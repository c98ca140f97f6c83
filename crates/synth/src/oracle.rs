//! The cross-scheme differential oracle.
//!
//! For one program the oracle establishes a single source of truth — the
//! tree-walking reference evaluator, which never touches codegen, tag layout,
//! or the simulator — then compiles and simulates the program under every
//! scheme × checking × hardware configuration and demands:
//!
//! 1. **Result equality**: halt code and printed output match the evaluator.
//! 2. **Census reconciliation**: the simulator's checking-cycle attribution
//!    ([`mipsx::Stats::checking_cycles`]) is consistent with the evaluator's
//!    dynamic op census, category by category — a lower bound from the ops
//!    whose checks are emitted on every hardware level, an upper bound of
//!    [`CYCLES_PER_OP`] cycles per countable op, and an exact-zero rule when
//!    a category has no ops at all (or when checking is off entirely).
//!
//! The front end runs once per program: the evaluator and all 24 compiles
//! share one lowered [`Unit`], which no configuration changes.
//!
//! This is the one differential check in the workspace. One private `run`
//! compiles a [`Unit`] under a [`Config`] and executes it, and one private
//! `diff` compares the outcome with the evaluator (halt code, output, then
//! census). The oracle's own sweep ([`check_rendered`]) and the fuzzing fleet
//! ([`crate::fleet`]: its runners, `column_diverges` and the witness
//! replayer) all go through those two.
//!
//! A fault injected into the reference executor ([`mipsx::Fault`]) models a
//! codegen/simulator bug; [`caught_by_oracle`] reruns the comparison over the
//! faulted execution so tests can prove the oracle actually detects it.

use crate::gen;
use lisp::ast::Unit;
use lisp::eval::{eval_unit, EvalError, EvalOptions, EvalOutcome, OpCensus};
use lisp::{CheckingMode, CompileError};
use mipsx::{CheckCat, Executor, Fault, Outcome, ParallelCheck, RefCpu, Stats};
use tagstudy::Config;
use tagword::TagScheme;

/// Simulator cycle budget per configuration — generated programs finish in
/// well under a million cycles, so this only guards against harness bugs.
pub const SIM_FUEL: u64 = 50_000_000;

/// Upper bound on checking cycles a single censused operation may cost
/// (slowest case: a plain-hardware funcall's symbol + function-cell checks
/// plus `prin-name`'s per-character loop).
pub const CYCLES_PER_OP: u64 = 64;

/// Why a configuration disagreed with the reference evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MismatchKind {
    /// The program failed to compile under this configuration.
    Compile,
    /// The simulator reported a harness-level error (bad program, fuel).
    Sim,
    /// Halt codes differ.
    Halt,
    /// Printed output differs.
    Output,
    /// Checking-cycle attribution is inconsistent with the op census.
    Census,
}

/// A single configuration's disagreement with the reference evaluator.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// What went wrong.
    pub kind: MismatchKind,
    /// The configuration that disagreed, by [`Config::name`], e.g.
    /// `high5:full:maximal`.
    pub config: String,
    /// Human-readable specifics (expected vs got).
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {:?}: {}", self.config, self.kind, self.detail)
    }
}

/// The full scheme × checking × hardware matrix the oracle sweeps:
/// [`Config::matrix`].
pub fn oracle_configs() -> Vec<Config> {
    Config::matrix()
}

/// Lower the prelude and `source` into the [`Unit`] that the reference
/// evaluator and every configuration's compile share.
///
/// # Errors
///
/// Reader errors, unknown names, malformed forms, arity mismatches.
pub fn lower(source: &str) -> Result<Unit, CompileError> {
    lisp::lower_sources(&[lisp::PRELUDE, source])
}

/// Evaluate `source` with the reference evaluator under the *narrowest*
/// fixnum range in the sweep (HighTag6's 26 bits), so an overflow that any
/// scheme could hit is flagged rather than silently scheme-dependent.
pub fn reference(source: &str) -> Result<EvalOutcome, EvalError> {
    reference_unit(&lower(source).map_err(EvalError::Compile)?)
}

/// [`reference()`] on an already-lowered [`Unit`].
pub fn reference_unit(unit: &Unit) -> Result<EvalOutcome, EvalError> {
    eval_unit(unit, &EvalOptions::for_scheme(TagScheme::HighTag6))
}

/// Check `source` against `expected` under one configuration: result
/// equality always, census reconciliation too. Returns the mismatch if any.
pub fn check_config(source: &str, expected: &EvalOutcome, config: &Config) -> Result<(), Mismatch> {
    let unit = lower(source).map_err(|e| Mismatch {
        kind: MismatchKind::Compile,
        config: config.name(),
        detail: e.to_string(),
    })?;
    check_unit(&unit, expected, config)
}

/// [`check_config`] on an already-lowered [`Unit`] (see [`lower`]).
fn check_unit(unit: &Unit, expected: &EvalOutcome, config: &Config) -> Result<(), Mismatch> {
    diff(expected, &run(unit, config, None)?, config)
}

/// A mismatch of `kind` under `config`.
pub(crate) fn mismatch(kind: MismatchKind, config: &Config, detail: String) -> Mismatch {
    Mismatch {
        kind,
        config: config.name(),
        detail,
    }
}

/// Compile `unit` under `config` and run it to completion: on
/// `config.backend`, or, with a `fault`, on [`RefCpu`] (the only executor
/// with fault injection).
pub(crate) fn run(unit: &Unit, config: &Config, fault: Option<Fault>) -> Result<Outcome, Mismatch> {
    let compiled = lisp::compile_unit(unit, &config.to_options())
        .map_err(|e| mismatch(MismatchKind::Compile, config, e.to_string()))?;
    match fault {
        Some(fault) => {
            let mut cpu = RefCpu::new(&compiled.program, compiled.hw, compiled.mem_bytes);
            cpu.inject_fault(fault);
            cpu.run(SIM_FUEL)
                .map_err(|e| mismatch(MismatchKind::Sim, config, format!("faulted run: {e:?}")))
        }
        None => lisp::run_with(&compiled, config.backend, SIM_FUEL)
            .map_err(|e| mismatch(MismatchKind::Sim, config, format!("{e:?}"))),
    }
}

/// Diff one run against the reference evaluator: halt code, printed
/// output, then census reconciliation.
pub(crate) fn diff(expected: &EvalOutcome, got: &Outcome, config: &Config) -> Result<(), Mismatch> {
    if got.halt_code != expected.halt_code {
        let detail = format!(
            "evaluator halt {}, simulated {}",
            expected.halt_code, got.halt_code
        );
        return Err(mismatch(MismatchKind::Halt, config, detail));
    }
    if got.output != expected.output {
        let detail = format!(
            "evaluator printed {:?}, simulator {:?}",
            expected.output, got.output
        );
        return Err(mismatch(MismatchKind::Output, config, detail));
    }
    reconcile(&expected.census, &got.stats, config)
        .map_err(|detail| mismatch(MismatchKind::Census, config, detail))
}

/// Reconcile the simulator's checking-cycle attribution with the evaluator's
/// dynamic op census for one configuration. Returns a description of the
/// first violated bound.
pub fn reconcile(census: &OpCensus, stats: &Stats, config: &Config) -> Result<(), String> {
    let hw = config.hw;
    let cats = [CheckCat::List, CheckCat::Vector, CheckCat::Arith];

    if config.checking == CheckingMode::None {
        // No checking compiled in: the only checking-attributed cycles can
        // come from float ops (their FPU work is charged as generic
        // arithmetic regardless of mode).
        if census.float_ops == 0 {
            for cat in cats {
                let c = stats.checking_cycles(cat);
                if c != 0 {
                    return Err(format!(
                        "checking off, no float ops, but {c} {cat:?} checking cycles"
                    ));
                }
            }
        }
        return Ok(());
    }

    let parallel_lists = matches!(hw.parallel_check, ParallelCheck::Lists | ParallelCheck::All);
    let parallel_all = matches!(hw.parallel_check, ParallelCheck::All);

    // (category, certain lower-bound ops, all countable ops)
    let rows = [
        (
            CheckCat::List,
            census.list_certain
                + if parallel_lists {
                    0
                } else {
                    census.list_all - census.list_certain
                },
            census.list_all,
        ),
        (
            CheckCat::Vector,
            census.vector_certain
                + if parallel_all {
                    0
                } else {
                    census.vector_all - census.vector_certain
                },
            census.vector_all,
        ),
        (
            CheckCat::Arith,
            census.arith_certain
                + if hw.generic_arith {
                    0
                } else {
                    census.arith_addsub
                },
            census.arith_all + census.float_ops,
        ),
    ];
    for (cat, lo, all) in rows {
        let cycles = stats.checking_cycles(cat);
        if all == 0 && cycles != 0 {
            return Err(format!(
                "census has no {cat:?} ops but {cycles} checking cycles"
            ));
        }
        if cycles < lo {
            return Err(format!(
                "{cat:?}: {cycles} checking cycles below certain-op floor {lo}"
            ));
        }
        let hi = CYCLES_PER_OP * all;
        if cycles > hi {
            return Err(format!(
                "{cat:?}: {cycles} checking cycles exceed {CYCLES_PER_OP}x{all} op ceiling"
            ));
        }
    }
    Ok(())
}

/// Run the whole oracle for one generated program: evaluate the reference
/// once, then sweep every configuration from [`oracle_configs`].
pub fn check_program(p: &gen::Program) -> Result<EvalOutcome, Mismatch> {
    check_rendered(&gen::render(p))
}

/// [`check_program`] for already-rendered (or hand-written) source. The
/// source is lowered once; the reference and every configuration share it.
pub fn check_rendered(source: &str) -> Result<EvalOutcome, Mismatch> {
    let reference_failed = |e: EvalError| Mismatch {
        kind: MismatchKind::Compile,
        config: "reference".into(),
        detail: format!("{e:?}"),
    };
    let unit = lower(source).map_err(|e| reference_failed(EvalError::Compile(e)))?;
    let expected = reference_unit(&unit).map_err(reference_failed)?;
    for config in oracle_configs() {
        check_unit(&unit, &expected, &config)?;
    }
    Ok(expected)
}

/// Does the oracle catch `fault` when it corrupts this program's execution
/// under `config`? True when the faulted run's halt code or output disagrees
/// with the reference evaluator, or the faulted machine wedges or crashes;
/// false when the program fails to lower, evaluate or compile. The census is
/// not consulted.
pub fn caught_by_oracle(p: &gen::Program, config: &Config, fault: Fault) -> bool {
    let Ok(unit) = lower(&gen::render(p)) else {
        return false;
    };
    let Ok(expected) = reference_unit(&unit) else {
        return false;
    };
    match run(&unit, config, Some(fault)) {
        Ok(out) => out.halt_code != expected.halt_code || out.output != expected.output,
        Err(m) => m.kind == MismatchKind::Sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OpMix;

    #[test]
    fn a_seeded_program_passes_every_config() {
        let p = gen::generate(11, &OpMix::balanced());
        if let Err(m) = check_program(&p) {
            panic!("seed 11 failed the oracle: {m}\n{}", gen::render(&p));
        }
    }

    #[test]
    fn a_source_that_fails_to_lower_fails_the_reference() {
        for source in ["(car", "(nosuch 1)"] {
            let m = check_rendered(source).unwrap_err();
            assert_eq!(m.kind, MismatchKind::Compile, "{source}");
            assert_eq!(m.config, "reference", "{source}");
            // The text the evaluator's own lowering reports for this source.
            let e = lisp::eval::eval_source(source, &EvalOptions::for_scheme(TagScheme::HighTag6))
                .unwrap_err();
            assert!(matches!(e, EvalError::Compile(_)), "{source}: {e:?}");
            assert_eq!(m.detail, format!("{e:?}"), "{source}");
        }
    }

    #[test]
    fn lowering_once_matches_the_per_config_sweep() {
        let configs = oracle_configs();
        for seed in 0..50 {
            let mix = [OpMix::list_heavy(), OpMix::balanced(), OpMix::arith_heavy()][seed % 3];
            let source = gen::render(&gen::generate(seed as u64, &mix));
            let expected = reference(&source).expect("generated programs evaluate");
            let swept = configs
                .iter()
                .try_for_each(|config| check_config(&source, &expected, config));
            match check_rendered(&source) {
                Ok(got) => {
                    assert_eq!(got, expected, "seed {seed}");
                    assert!(swept.is_ok(), "seed {seed}: {swept:?}");
                }
                Err(m) => {
                    let s = swept.expect_err("the sweep must fail too");
                    assert_eq!((m.kind, m.config), (s.kind, s.config), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn census_zero_rule_flags_phantom_cycles() {
        // A census with no vector ops must force zero vector checking cycles;
        // fabricate stats via a real run of a vector-free program and check
        // the reconciliation rejects a doctored census.
        let source = "(defun main () (print (plus 1 2))) (main)";
        let expected = reference(source).unwrap();
        assert_eq!(expected.census.vector_all, 0);
        let config = Config::new(TagScheme::HighTag5, CheckingMode::Full);
        let compiled = lisp::compile(source, &config.to_options()).unwrap();
        let out = lisp::run(&compiled, SIM_FUEL).unwrap();
        // Sanity: the honest census reconciles.
        reconcile(&expected.census, &out.stats, &config).unwrap();
        // Claim there were arith ops when there were cycles... the reverse:
        // deny the arith ops that really happened and the floor/zero rules fire.
        let mut doctored = expected.census;
        doctored.arith_all = 0;
        doctored.arith_certain = 0;
        doctored.arith_addsub = 0;
        assert!(reconcile(&doctored, &out.stats, &config).is_err());
    }

    #[test]
    fn faulted_execution_is_caught() {
        // Inverting the first conditional branch derails any program that
        // branches at all; the differential check must notice.
        let p = gen::generate(2, &OpMix::arith_heavy());
        let config = Config::new(TagScheme::HighTag5, CheckingMode::Full);
        assert!(caught_by_oracle(
            &p,
            &config,
            Fault::BranchInvert { nth: 1 }
        ));
    }
}
