//! The conformance matrix: `FastCpu` in lockstep against `RefCpu` on every
//! benchmark workload and on 200 fixed-seed synth programs, under the
//! 24-point scheme × checking × hardware oracle matrix
//! ([`tagstudy::Config::matrix`]). Each cell runs exactly once.
//!
//! Lockstep compares every retirement record (a squashed slot is a gap in the
//! pc sequence, so squashes are compared too), the final halt code, output,
//! register file and data memory, and a `Stats` rebuilt from the trace
//! against `FastCpu`'s own accounting.
//!
//! Debug builds (plain `cargo test`) run a deterministic subset: every
//! benchmark on the plain-hardware cells, `trav` and `inter` on the
//! tag-hardware cells, and every eighth synth seed. `--release` runs
//! everything. One `#[test]` per slice so failures name their cell and the
//! slices run in parallel.

use lisp::CheckingMode;
use mipsx::HwConfig;
use synth::{generate, render, OpMix};
use tagstudy::{Config, Session};
use tagword::TagScheme;

/// Check one compiled program in lockstep, plus the harness invariants the
/// summary exposes.
fn check(label: &str, compiled: &lisp::CompiledProgram, fuel: u64) -> conformance::Conformance {
    let c = conformance::check_compiled(compiled, fuel, None)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(c.retired > 0, "{label}: empty trace");
    assert!(
        c.cycles >= c.retired + c.squashed,
        "{label}: cycles ({}) < retired ({}) + squashed ({})",
        c.cycles,
        c.retired,
        c.squashed
    );
    c
}

/// Check every benchmark under the six cells of the oracle matrix belonging
/// to `scheme` (2 checking modes × 3 hardware levels).
fn benchmark_slice(scheme: TagScheme) {
    let session = Session::serial();
    let configs: Vec<Config> = Config::matrix()
        .into_iter()
        .filter(|c| c.scheme == scheme)
        .collect();
    assert_eq!(configs.len(), 6);
    let debug = cfg!(debug_assertions);
    for b in programs::all() {
        for config in &configs {
            let plain = config.hw == HwConfig::plain();
            if debug && !plain && !matches!(b.name, "trav" | "inter") {
                continue;
            }
            let label = format!("{} under {config}", b.name);
            let compiled = session
                .compile_program(b.name, *config)
                .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
            let c = check(&label, &compiled, programs::FUEL);
            if plain {
                assert_eq!(c.traps, 0, "{label}: plain hardware cannot trap");
            }
        }
    }
}

#[test]
fn matrix_high5_conforms() {
    benchmark_slice(TagScheme::HighTag5);
}

#[test]
fn matrix_high6_conforms() {
    benchmark_slice(TagScheme::HighTag6);
}

#[test]
fn matrix_low2_conforms() {
    benchmark_slice(TagScheme::LowTag2);
}

#[test]
fn matrix_low3_conforms() {
    benchmark_slice(TagScheme::LowTag3);
}

/// The number of fixed synth seeds the release suite sweeps.
const SYNTH_SEEDS: u64 = 200;

/// Check one quarter of the synth seeds (seeds ≡ `lane` mod 4). Each seed gets
/// a rotating generator mix and a rotating cell of the 24-config matrix, so
/// the 200 seeds cover every cell more than eight times.
fn synth_slice(lane: u64) {
    let mixes = [
        OpMix::balanced(),
        OpMix::list_heavy(),
        OpMix::vector_heavy(),
        OpMix::arith_heavy(),
    ];
    let configs = Config::matrix();
    // Debug builds take every eighth seed of the lane; release takes them all.
    let step: u64 = if cfg!(debug_assertions) { 32 } else { 4 };
    let mut seed = lane;
    while seed < SYNTH_SEEDS {
        let mix = &mixes[(seed as usize / 4) % mixes.len()];
        let config = &configs[seed as usize % configs.len()];
        let source = render(&generate(seed, mix));
        let label = format!("synth seed {seed} under {config}");
        let compiled = lisp::compile(&source, &config.to_options())
            .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        check(&label, &compiled, synth::oracle::SIM_FUEL);
        seed += step;
    }
}

#[test]
fn synth_seeds_lane0_conform() {
    synth_slice(0);
}

#[test]
fn synth_seeds_lane1_conform() {
    synth_slice(1);
}

#[test]
fn synth_seeds_lane2_conform() {
    synth_slice(2);
}

#[test]
fn synth_seeds_lane3_conform() {
    synth_slice(3);
}

/// The tag-hardware configurations outside the oracle matrix: SPUR (the
/// maximal set with checked accesses for lists only) and generic arithmetic
/// alone. Tag branches and the maximal set are matrix cells above.
#[test]
fn tag_hardware_conforms() {
    let session = Session::serial();
    let hws = [
        ("spur", HwConfig::spur(5)),
        ("generic", HwConfig::with_generic_arith()),
    ];
    for name in ["inter", "trav"] {
        for (hw_name, hw) in hws {
            for checking in [CheckingMode::None, CheckingMode::Full] {
                let label = format!("{name}/{hw_name}/{checking:?}");
                let config = Config::baseline(checking).with_hw(hw);
                let compiled = session
                    .compile_program(name, config)
                    .unwrap_or_else(|e| panic!("{label}: compile: {e}"));
                check(&label, &compiled, programs::FUEL);
            }
        }
    }
}

/// An injected semantics bug in the reference executor must surface as a
/// divergence on a real workload — proof the matrix would notice a real bug.
#[test]
fn injected_bug_is_caught_on_a_workload() {
    let session = Session::serial();
    let config = Config::baseline(CheckingMode::None);
    let compiled = session.compile_program("trav", config).expect("compiles");
    let err = conformance::check_compiled(
        &compiled,
        programs::FUEL,
        Some(mipsx::Fault::AddOffByOne { nth: 500 }),
    )
    .expect_err("a corrupted add must diverge");
    let report = err.to_string();
    assert!(report.contains("divergence"), "unexpected report: {report}");
}

/// `Session::run_observed` exposes the trace layer through the experiment
/// engine: the observer sees exactly as many retirements as the measurement
/// commits, and the measurement still validates output.
#[test]
fn session_exposes_observed_runs() {
    use mipsx::trace::{Observer, Retirement};
    use mipsx::Annot;
    use std::ops::ControlFlow;

    #[derive(Default)]
    struct Count {
        retired: u64,
        squashed: u64,
    }
    impl Observer for Count {
        fn retire(&mut self, _: &Retirement, _: Annot, _: u64) -> ControlFlow<()> {
            self.retired += 1;
            ControlFlow::Continue(())
        }
        fn squash(&mut self, _: usize, _: Annot, _: u64) {
            self.squashed += 1;
        }
    }

    let session = Session::serial();
    let config = Config::baseline(CheckingMode::None);
    let mut count = Count::default();
    let m = session
        .run_observed("trav", config, programs::FUEL, &mut count)
        .expect("observed run succeeds");
    assert_eq!(count.retired, m.stats.committed, "one event per commit");
    assert_eq!(count.squashed, m.stats.squashed);
}
