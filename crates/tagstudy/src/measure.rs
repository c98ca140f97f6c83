//! Output-validated, measured benchmark executions.
//!
//! [`run_benchmark`]/[`run_program`] are the single-shot primitives: one
//! compile + one simulation, output checked against the benchmark's pinned
//! expectation. Studies should not call them in a loop — that is what
//! [`Session`](crate::Session) is for, which memoizes them per
//! `(program, Config)` and runs batches on a bounded worker pool.

use std::fmt;
use std::time::{Duration, Instant};

use lisp::CompileStats;
use mipsx::Stats;
use programs::Benchmark;

use crate::config::Config;

/// A caller-supplied program: Lisp source text plus an optional heap override
/// and an optional pinned output.
///
/// This is the dynamic counterpart of [`programs::Benchmark`] (whose fields
/// are `&'static str` because the ten paper benchmarks are compiled in).
/// Registered on a [`Session`](crate::Session) under a name via
/// [`Session::register_source`](crate::Session::register_source), an inline
/// program is measured, cached, deduplicated, and reported exactly like a
/// built-in benchmark; generated workloads (the `synth` crate) and the daemon's
/// inline experiment specs both ride this path.
///
/// When `expected_output` is `None` the measurement validates only that the
/// program halts cleanly (exit code [`lisp::exit_code::OK`]) — the right
/// default for generated programs whose output is pinned elsewhere (by the
/// reference evaluator). When it is `Some`, the output is asserted exactly as
/// for a built-in benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineProgram {
    /// The Lisp source text.
    pub source: String,
    /// Per-semispace heap bytes; `None` uses the configuration's default.
    pub heap_semi_bytes: Option<u32>,
    /// Exact expected output, or `None` to validate the exit code only.
    pub expected_output: Option<String>,
}

impl InlineProgram {
    /// An inline program with the default heap and no pinned output.
    pub fn new(source: impl Into<String>) -> InlineProgram {
        InlineProgram {
            source: source.into(),
            heap_semi_bytes: None,
            expected_output: None,
        }
    }

    /// Override the per-semispace heap size.
    #[must_use]
    pub fn with_heap(mut self, semi_bytes: u32) -> InlineProgram {
        self.heap_semi_bytes = Some(semi_bytes);
        self
    }

    /// Pin the exact expected output.
    #[must_use]
    pub fn with_expected_output(mut self, output: impl Into<String>) -> InlineProgram {
        self.expected_output = Some(output.into());
        self
    }

    /// Compile under `opts`, the heap override (when set) taking precedence —
    /// the same contract as [`programs::Benchmark::compile`].
    ///
    /// # Errors
    ///
    /// Propagates [`lisp::CompileError`].
    pub fn compile(
        &self,
        opts: &lisp::Options,
    ) -> Result<lisp::CompiledProgram, lisp::CompileError> {
        let opts = lisp::Options {
            heap_semi_bytes: self.heap_semi_bytes.unwrap_or(opts.heap_semi_bytes),
            ..*opts
        };
        lisp::compile(&self.source, &opts)
    }
}

/// A failure while measuring (any of these indicates a toolchain bug, since the
/// benchmarks are fixed inputs).
#[derive(Debug, Clone)]
pub enum StudyError {
    /// No benchmark with that name.
    UnknownProgram(String),
    /// Compilation failed.
    Compile {
        /// Benchmark name.
        program: String,
        /// The compiler's message.
        message: String,
    },
    /// Simulation failed.
    Sim {
        /// Benchmark name.
        program: String,
        /// The simulator's message.
        message: String,
    },
    /// The program ran but produced the wrong answer under this configuration.
    WrongOutput {
        /// Benchmark name.
        program: String,
        /// Configuration that produced it.
        config: String,
        /// What it printed.
        got: String,
    },
    /// Several measurements of one batch failed; every failure is retained.
    Multiple(Vec<StudyError>),
}

impl StudyError {
    /// Collapse a non-empty error list: a single error stays itself, several
    /// become [`StudyError::Multiple`].
    pub(crate) fn from_many(mut errors: Vec<StudyError>) -> StudyError {
        debug_assert!(!errors.is_empty());
        if errors.len() == 1 {
            errors.pop().expect("non-empty")
        } else {
            StudyError::Multiple(errors)
        }
    }
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::UnknownProgram(p) => write!(f, "unknown program {p}"),
            StudyError::Compile { program, message } => {
                write!(f, "{program}: compile failed: {message}")
            }
            StudyError::Sim { program, message } => write!(f, "{program}: run failed: {message}"),
            StudyError::WrongOutput {
                program,
                config,
                got,
            } => {
                write!(f, "{program} under {config}: wrong output {got:?}")
            }
            StudyError::Multiple(errors) => {
                write!(f, "{} measurements failed:", errors.len())?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StudyError {}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub program: String,
    /// Configuration measured.
    pub config: Config,
    /// Dynamic statistics.
    pub stats: Stats,
    /// Static statistics.
    pub compile: CompileStats,
    /// Exit code of the simulated run. Validation guarantees
    /// [`lisp::exit_code::OK`] on every path that produces a `Measurement`,
    /// but the field is carried explicitly so result consumers (the daemon's
    /// differential-fuzzing clients in particular) can diff it instead of
    /// trusting the producer.
    pub halt_code: i32,
    /// Everything the simulated run printed.
    pub output: String,
}

/// Host-side wall time of one measurement, split compile vs simulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Wall time spent in the compiler.
    pub compile: Duration,
    /// Wall time spent in the simulator (including output validation).
    pub simulate: Duration,
}

impl Timing {
    /// Total wall time of the measurement.
    pub fn total(&self) -> Duration {
        self.compile + self.simulate
    }
}

/// Run a compiled program on the config's backend, attaching a
/// [`mipsx::TimingModel`] when the config asks for one. The stall breakdown
/// lands in `outcome.stats.timing`; every architectural result (cycles,
/// output, halt code, the rest of `Stats`) is identical either way, which is
/// why the ideal path skips the observer entirely.
fn simulate(
    compiled: &lisp::CompiledProgram,
    config: &Config,
) -> Result<lisp::Outcome, lisp::SimError> {
    if config.timing.is_ideal() {
        lisp::run_with(compiled, config.backend, programs::FUEL)
    } else {
        let mut model = mipsx::TimingModel::new(config.timing);
        let mut outcome =
            lisp::run_observed_with(compiled, config.backend, programs::FUEL, &mut model)?;
        outcome.stats.timing = Some(model.finish());
        Ok(outcome)
    }
}

/// Compile and run program `name` under `config`, validating its output,
/// and report where the host's wall time went. Inside a trace context the
/// same instants are recorded as `compile` and `simulate` spans (see
/// [`crate::trace::record`]). `compile` builds the program
/// from the config's compiler options (a [`Benchmark`] or an
/// [`InlineProgram`]); `expected_output` is the exact output to assert, or
/// `None` to validate only the exit code ([`lisp::exit_code::OK`], which is
/// always required).
///
/// # Errors
///
/// [`StudyError`] on compile/run failure, a non-zero exit, or (when pinned)
/// an output mismatch.
pub fn run_timed(
    name: &str,
    compile: impl FnOnce(&lisp::Options) -> Result<lisp::CompiledProgram, lisp::CompileError>,
    expected_output: Option<&str>,
    config: &Config,
) -> Result<(Measurement, Timing), StudyError> {
    let compile_start = Instant::now();
    let compiled = compile(&config.to_options()).map_err(|e| StudyError::Compile {
        program: name.to_string(),
        message: e.to_string(),
    })?;
    let sim_start = Instant::now();
    let outcome = simulate(&compiled, config).map_err(|e| StudyError::Sim {
        program: name.to_string(),
        message: e.to_string(),
    })?;
    let output_ok = expected_output.is_none_or(|want| outcome.output == want);
    if outcome.halt_code != lisp::exit_code::OK || !output_ok {
        return Err(StudyError::WrongOutput {
            program: name.to_string(),
            config: config.to_string(),
            got: format!("halt={} {:?}", outcome.halt_code, outcome.output),
        });
    }
    let end = Instant::now();
    let timing = Timing {
        compile: sim_start - compile_start,
        simulate: end - sim_start,
    };
    let labels = [("program", name), ("config", &config.to_string())];
    crate::trace::record("compile", "session", compile_start, sim_start, &labels);
    crate::trace::record("simulate", "session", sim_start, end, &labels);
    Ok((
        Measurement {
            program: name.to_string(),
            config: *config,
            stats: outcome.stats,
            compile: compiled.stats,
            halt_code: outcome.halt_code,
            output: outcome.output,
        },
        timing,
    ))
}

/// Compile and run benchmark `b` under `config`, validating its output.
///
/// # Errors
///
/// [`StudyError`] on compile/run failure or output mismatch.
pub fn run_benchmark(b: &Benchmark, config: &Config) -> Result<Measurement, StudyError> {
    run_timed(b.name, |o| b.compile(o), Some(b.expected_output), config).map(|(m, _)| m)
}

/// Run a named benchmark under `config`.
///
/// # Errors
///
/// [`StudyError::UnknownProgram`] plus everything [`run_benchmark`] can raise.
pub fn run_program(name: &str, config: &Config) -> Result<Measurement, StudyError> {
    let b = programs::by_name(name).ok_or_else(|| StudyError::UnknownProgram(name.into()))?;
    run_benchmark(b, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisp::CheckingMode;

    #[test]
    fn unknown_program_is_an_error() {
        let e = run_program("nope", &Config::baseline(CheckingMode::None));
        assert!(matches!(e, Err(StudyError::UnknownProgram(_))));
    }

    #[test]
    fn run_program_validates_and_measures() {
        let m = run_program("frl", &Config::baseline(CheckingMode::None)).unwrap();
        assert!(m.stats.cycles > 100_000);
        assert!(m.compile.procedures > 20);
        assert_eq!(m.program, "frl");
    }

    #[test]
    fn timed_runs_attribute_wall_time() {
        let b = programs::by_name("frl").unwrap();
        let config = Config::baseline(CheckingMode::None);
        let (_, t) = run_timed(b.name, |o| b.compile(o), Some(b.expected_output), &config).unwrap();
        assert!(t.compile > Duration::ZERO);
        assert!(t.simulate > Duration::ZERO);
        assert_eq!(t.total(), t.compile + t.simulate);
    }

    #[test]
    fn multiple_collapses_singletons() {
        let e = StudyError::from_many(vec![StudyError::UnknownProgram("x".into())]);
        assert!(matches!(e, StudyError::UnknownProgram(_)));
        let e = StudyError::from_many(vec![
            StudyError::UnknownProgram("x".into()),
            StudyError::UnknownProgram("y".into()),
        ]);
        let text = e.to_string();
        assert!(text.contains("2 measurements failed"));
        assert!(text.contains('x') && text.contains('y'));
    }
}
