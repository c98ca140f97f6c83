//! Property test: [`HwConfig::as_seen_by`] changes nothing a program can
//! observe. Under random hardware, both executors give the same outcome, or
//! the same error, whether they run a compiled paper program under `hw` or
//! under `hw.as_seen_by(&program)`.
//!
//! The programs are compiled for hardware with some of the gates (tag
//! branches, checked accesses, generic arithmetic), so a random `hw` may
//! lack a gate the code needs (a `MissingHardware` error: at predecode on
//! `FastCpu`, when executed on `RefCpu`) and may have gates the code never
//! names (which `as_seen_by` clears).

use std::sync::OnceLock;

use lisp::{CheckingMode, CompiledProgram, Options};
use mipsx::{Backend, Executor, HwConfig, ParallelCheck, SimError, Stats};
use proptest::prelude::*;
use tagword::TagScheme;

/// Cycle budget per run: `trav` and `frl` finish well inside it.
const FUEL: u64 = 50_000_000;

/// Paper programs compiled for hardware with one, two, all or none of the
/// gates, compiled once.
fn programs() -> &'static [CompiledProgram] {
    static PROGRAMS: OnceLock<Vec<CompiledProgram>> = OnceLock::new();
    PROGRAMS.get_or_init(compile_programs)
}

fn compile_programs() -> Vec<CompiledProgram> {
    let opts = |scheme: TagScheme, checking: CheckingMode, hw: &str| {
        let mut opts = Options::new(scheme, checking);
        opts.hw = HwConfig::parse(hw, scheme.tag_bits()).expect("hardware name");
        opts
    };
    [
        (
            "trav",
            opts(TagScheme::HighTag5, CheckingMode::Full, "genarith"),
        ),
        (
            "frl",
            opts(TagScheme::LowTag2, CheckingMode::Full, "tagbr+chklists"),
        ),
        (
            "frl",
            opts(TagScheme::HighTag5, CheckingMode::Full, "maximal"),
        ),
        (
            "trav",
            opts(TagScheme::HighTag5, CheckingMode::None, "plain"),
        ),
    ]
    .into_iter()
    .map(|(name, opts)| {
        programs::by_name(name)
            .expect("paper program")
            .compile(&opts)
            .expect("compiles")
    })
    .collect()
}

/// Everything a run reports: the outcome's fields, or the error.
fn run(
    backend: Backend,
    c: &CompiledProgram,
    hw: HwConfig,
) -> Result<(i32, String, Stats), SimError> {
    let outcome = backend.executor(&c.program, hw, c.mem_bytes)?.run(FUEL)?;
    Ok((outcome.halt_code, outcome.output, outcome.stats))
}

/// A random `HwConfig`: any gate combination, an address drop of 0 (none)
/// or 5, and cost fields near their stock values.
fn hw_from(gates: u32, drop: bool, costs: u32) -> HwConfig {
    HwConfig {
        drop_high_address_bits: if drop { 5 } else { 0 },
        tag_branch: gates & 1 != 0,
        generic_arith: gates & 2 != 0,
        parallel_check: match gates >> 2 {
            0 => ParallelCheck::None,
            1 => ParallelCheck::Lists,
            _ => ParallelCheck::All,
        },
        trap_penalty: 10 + costs % 20,
        mul_cycles: 1 + (costs >> 5) % 16,
        div_cycles: 1 + (costs >> 9) % 32,
        fp_cycles: 1 + (costs >> 14) % 8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn executors_cannot_tell_hw_from_hw_as_seen(
        gates in 0u32..12,
        drop in any::<bool>(),
        costs in 0u32..(1 << 17),
        which in 0usize..4,
    ) {
        let c = &programs()[which];
        let hw = hw_from(gates, drop, costs);
        let seen = hw.as_seen_by(&c.program);
        for backend in [Backend::Fast, Backend::Ref] {
            prop_assert_eq!(
                run(backend, c, hw),
                run(backend, c, seen),
                "{} under {:?}",
                backend,
                hw
            );
        }
    }
}
