//! Shrinker properties, checked over seeded programs with injected executor
//! faults: shrinking preserves the failure, never grows the program, and is
//! idempotent (a shrunk program is a fixpoint).

use std::sync::atomic::{AtomicUsize, Ordering};

use lisp::CheckingMode;
use mipsx::Fault;
use synth::oracle::caught_by_oracle;
use synth::{generate, shrink, OpMix, Program};
use tagstudy::Config;
use tagword::TagScheme;

/// (seed, mix, fault) work items. Inverting the first conditional branch
/// derails essentially any program; an off-by-one `add` only matters once
/// execution is deep in user arithmetic (the early adds are all
/// runtime/allocation bookkeeping), so those pairs pin occurrence counts
/// found by scanning the two seeds. An item whose fault the oracle doesn't
/// catch on the *original* program is skipped (the property is about
/// shrinking a failure, not finding one) — but at least one item per fault
/// kind must be caught, or the suite is vacuous.
fn work_items() -> Vec<(u64, OpMix, Fault)> {
    vec![
        (3, OpMix::balanced(), Fault::BranchInvert { nth: 1 }),
        (11, OpMix::balanced(), Fault::BranchInvert { nth: 1 }),
        (3, OpMix::arith_heavy(), Fault::AddOffByOne { nth: 1744 }),
    ]
}

#[test]
fn shrinking_preserves_failure_never_grows_and_is_idempotent() {
    let config = Config::new(TagScheme::HighTag5, CheckingMode::Full);
    let work = work_items();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(work.len());

    // (fault spelling, failure) per checked item; None when skipped.
    let results: Vec<Option<(String, Option<String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((seed, mix, fault)) = work.get(i).copied() else {
                            break;
                        };
                        let p = generate(seed, &mix);
                        let mut caught = |q: &Program| caught_by_oracle(q, &config, fault);
                        if !caught(&p) {
                            local.push(None);
                            continue;
                        }
                        let tag = format!("{fault:?} seed {seed}");
                        local.push(Some((tag.clone(), check_properties(&p, &mut caught, &tag))));
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

    let failures: Vec<&String> = results
        .iter()
        .flatten()
        .filter_map(|(_, failure)| failure.as_ref())
        .collect();
    assert!(failures.is_empty(), "{failures:?}");

    // The suite must not be vacuous: every fault kind caught at least once.
    for fault_name in ["BranchInvert", "AddOffByOne"] {
        assert!(
            results
                .iter()
                .flatten()
                .any(|(tag, _)| tag.contains(fault_name)),
            "no seed had its {fault_name} fault caught — all items skipped"
        );
    }
}

/// The three shrinker properties for one caught failure. Returns a
/// description of the first violated property.
fn check_properties(
    p: &Program,
    caught: &mut dyn FnMut(&Program) -> bool,
    tag: &str,
) -> Option<String> {
    let s = shrink(p, caught);
    if !caught(&s) {
        return Some(format!("{tag}: shrinking lost the failure"));
    }
    if s.size() > p.size() {
        return Some(format!(
            "{tag}: shrunk program grew: {} -> {} forms",
            p.size(),
            s.size()
        ));
    }
    let s2 = shrink(&s, caught);
    if s2 != s {
        return Some(format!(
            "{tag}: shrink is not idempotent: {} forms -> {} forms",
            s.size(),
            s2.size()
        ));
    }
    None
}
