//! The compile → run pipeline replayed through the layers' public entry
//! points, one span per layer call.
//!
//! `lisp::compile` runs the front end and the verifier internally; the
//! replay also calls `lisp::lower_sources` and `mipsx::verify::verify` on
//! their own, on the same input, so codegen (with the delay-slot scheduler
//! and assembler) is `compile − front − verify` per call.

use lisp::{CompiledProgram, Executor, Options, Outcome};
use mipsx::{TimingConfig, TimingModel, TimingStats};

use crate::summary::{metric, Metric};
use crate::trace::{Ledger, Tracer};

/// Span names of the layers this module times.
pub const FRONT: &str = "lisp.front";
/// Whole-compile span (front + codegen + verify, as `lisp::compile` runs them).
pub const COMPILE: &str = "lisp.compile";
/// Standalone verifier span.
pub const VERIFY: &str = "mipsx.verify";
/// Predecode span (`Backend::executor` on the default backend).
pub const PREDECODE: &str = "mipsx.predecode";
/// Untimed execution span (`Executor::run`).
pub const EXECUTE: &str = "mipsx.execute";
/// Execution under a timing model (`lisp::run_observed_with` + `TimingModel`).
pub const TIMED_RUN: &str = "mipsx.timed_run";
/// Reference-evaluator span (`synth::oracle::reference`).
pub const EVAL: &str = "lisp.eval";

/// Compile `source` under `opts`, timing the front end, the whole compile
/// and the verifier as separate spans under `parent`.
///
/// # Errors
///
/// Any front-end, compile or verification failure, as text.
pub fn compile(
    t: &Tracer,
    op: u64,
    parent: u64,
    source: &str,
    opts: &Options,
) -> Result<CompiledProgram, String> {
    let sources: &[&str] = if opts.include_prelude {
        &[lisp::PRELUDE, source]
    } else {
        &[source]
    };
    t.span(FRONT, op, Some(parent), |_| lisp::lower_sources(sources))
        .map_err(|e| format!("front end: {e}"))?;
    let compiled = t
        .span(COMPILE, op, Some(parent), |_| lisp::compile(source, opts))
        .map_err(|e| format!("compile: {e}"))?;
    t.span(VERIFY, op, Some(parent), |_| {
        mipsx::verify::verify(&compiled.program)
    })
    .map_err(|e| format!("verify: {e}"))?;
    Ok(compiled)
}

/// Predecode and run `compiled` on the default backend, each a span.
///
/// # Errors
///
/// Predecode or simulation errors, as text.
pub fn execute(
    t: &Tracer,
    op: u64,
    parent: u64,
    compiled: &CompiledProgram,
    fuel: u64,
) -> Result<Outcome, String> {
    let mut cpu = t
        .span(PREDECODE, op, Some(parent), |_| {
            mipsx::Backend::default().executor(&compiled.program, compiled.hw, compiled.mem_bytes)
        })
        .map_err(|e| format!("predecode: {e}"))?;
    t.span(EXECUTE, op, Some(parent), |_| cpu.run(fuel))
        .map_err(|e| format!("execute: {e}"))
}

/// Run `compiled` under the timing model `timing` (predecode included, as
/// the session's timed path runs it), one span.
///
/// # Errors
///
/// Simulation errors, as text.
pub fn timed_run(
    t: &Tracer,
    op: u64,
    parent: u64,
    compiled: &CompiledProgram,
    timing: TimingConfig,
    fuel: u64,
) -> Result<(Outcome, TimingStats), String> {
    let mut model = TimingModel::new(timing);
    let outcome = t
        .span(TIMED_RUN, op, Some(parent), |_| {
            lisp::run_observed_with(compiled, mipsx::Backend::default(), fuel, &mut model)
        })
        .map_err(|e| format!("timed run: {e}"))?;
    Ok((outcome, model.finish()))
}

/// The compiler/simulator layer metrics of a ledger: mean self time per
/// call, codegen as compile − front − verify, the simulated cycles the
/// caller reports (`reported_cycles`, over a fixed set of runs so it repeats
/// exactly), and simulator speed (`executed_cycles`, the cycles of every
/// traced execute call, over their self time).
pub fn metrics(ledger: &Ledger, reported_cycles: u64, executed_cycles: u64) -> Vec<Metric> {
    let ms = |name| ledger.layer(name).mean_self_ms();
    let execute_s = ledger.layer(EXECUTE).self_ns as f64 / 1e9;
    vec![
        metric("lisp.front.ms", ms(FRONT), "ms"),
        metric(
            "lisp.codegen.ms",
            ms(COMPILE) - ms(FRONT) - ms(VERIFY),
            "ms",
        ),
        metric("mipsx.verify.ms", ms(VERIFY), "ms"),
        metric("mipsx.predecode.ms", ms(PREDECODE), "ms"),
        metric("mipsx.execute.ms", ms(EXECUTE), "ms"),
        metric("mipsx.execute.cycles", reported_cycles as f64, "count"),
        metric(
            "mipsx.execute.mcycles_per_s",
            if execute_s > 0.0 {
                executed_cycles as f64 / execute_s / 1e6
            } else {
                0.0
            },
            "Mcycle/s",
        ),
        metric("lisp.eval.ms", ms(EVAL), "ms"),
    ]
}
