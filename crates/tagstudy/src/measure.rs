//! Output-validated, measured benchmark executions.
//!
//! `run_timed` is the single-shot primitive: one compile + one simulation,
//! output checked against the program's pinned expectation.
//! [`Session`](crate::Session) calls it, memoizing per `(program, Config)`
//! and running batches on a bounded worker pool.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use lisp::CompileStats;
use mipsx::Stats;

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
pub(crate) fn simulate(
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

/// Everything [`simulate`] can observe of a compiled point, so two points
/// with equal keys have bit-identical runs: the same `Stats`, output and
/// halt code. The hardware is kept only as far as the code can observe it
/// ([`mipsx::HwConfig::as_seen_by`]); the code, its annotations and the data
/// image enter through a 128-bit digest keyed by [`RunSeeds`]. The key lives
/// in memory only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    backend: mipsx::Backend,
    timing: mipsx::TimingConfig,
    fuel: u64,
    mem_bytes: usize,
    entry: usize,
    code_len: usize,
    data_len: usize,
    hw: mipsx::HwConfig,
    digest: [u64; 2],
}

/// The secret seeds of one session's run digests, drawn at random with the
/// session. The digest is a fast keyed hash, not a cryptographic one: with
/// seeds nobody outside the process knows, a program sent to the daemon
/// cannot be crafted to collide with another program's run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSeeds([u64; 3]);

impl RunSeeds {
    pub(crate) fn random() -> RunSeeds {
        let state = std::collections::hash_map::RandomState::new();
        RunSeeds([0u8, 1, 2].map(|lane| state.hash_one(lane)))
    }
}

impl RunKey {
    /// The key of `compiled`'s run under `config`, digested with `seeds`.
    pub(crate) fn of(
        compiled: &lisp::CompiledProgram,
        config: &Config,
        seeds: &RunSeeds,
    ) -> RunKey {
        let program = &compiled.program;
        RunKey {
            backend: config.backend,
            timing: config.timing,
            fuel: programs::FUEL,
            mem_bytes: compiled.mem_bytes,
            entry: program.entry,
            code_len: program.insns.len(),
            data_len: program.data.len(),
            hw: compiled.hw.as_seen_by(program),
            digest: digest(program, seeds),
        }
    }
}

/// The 128-bit digest of a program's code, annotations and data image: two
/// independently seeded 64-bit lanes, fed one word per instruction and its
/// annotation (the instruction's `derive(Hash)` encoding folded by [`Word`])
/// and one per data word.
fn digest(program: &mipsx::Program, seeds: &RunSeeds) -> [u64; 2] {
    let RunSeeds([mut lo, mut hi, word_seed]) = *seeds;
    let mut mix = |word: u64| {
        lo = folded_multiply(lo ^ word, 0xa076_1d64_78bd_642f);
        hi = folded_multiply(hi ^ word, 0xe703_7ed1_a0b4_28db);
    };
    mix(program.annots.len() as u64);
    for (insn, annot) in program.insns.iter().zip(&program.annots) {
        // Each instruction folds on its own, so the folds of neighbouring
        // instructions overlap and only one multiply per lane is serial.
        let mut word = Word(word_seed);
        insn.hash(&mut word);
        // One write for the annotation. The destructuring names every
        // field, so a new one cannot be left out of the digest unnoticed.
        let mipsx::Annot { tag_op, cat, prov } = *annot;
        word.write_u64(
            tag_op.map_or(0, |op| op as u64 + 1) | (cat as u64) << 8 | (prov as u64) << 16,
        );
        mix(word.0);
    }
    for &(addr, value) in &program.data {
        mix(u64::from(addr) << 32 | u64::from(value));
    }
    [lo, hi]
}

/// The high and low halves of `a × b`, xor-ed together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// A 64-bit fold of one value's `Hash` encoding: every integer written is
/// widened to 64 bits and folded in with [`folded_multiply`]. The fold
/// starts from a random seed, not zero: from zero, a leading zero write
/// (variant 0's discriminant) would leave the state as it was, and
/// `Add(r5, ..)` could fold like variant 5.
struct Word(u64);

impl Hasher for Word {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = folded_multiply(self.0 ^ n, 0x8ebc_6af0_9c88_c6e3);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where a compiled point's run came from.
pub(crate) enum Run {
    /// Simulated for this point.
    Simulated(lisp::Outcome),
    /// Taken from the point `owner` (`program:config`), which simulated
    /// the identical run.
    Shared {
        /// The owner's outcome.
        outcome: lisp::Outcome,
        /// The owning point, as `program:config`.
        owner: String,
    },
}

/// Compile program `name` under `config`, get its run from `run`, validate
/// its output, and report where the host's wall time went. Inside a trace
/// context the same instants are recorded as `compile` and `simulate` spans
/// (see [`crate::trace::record`]); a run shared from another point is a
/// `run.shared` span labelled with its `owner` in place of `simulate`, and
/// [`Timing::simulate`] holds the wait for it. `compile` builds the program
/// from the config's compiler options (a [`programs::Benchmark`] or an
/// [`InlineProgram`]); `run` is [`simulate`] or the session's run index,
/// an error being the simulator's message; `expected_output` is the
/// exact output to assert, or `None` to validate only the exit code
/// ([`lisp::exit_code::OK`], which is always required).
///
/// # Errors
///
/// [`StudyError`] on compile/run failure, a non-zero exit, or (when pinned)
/// an output mismatch.
pub(crate) fn run_timed(
    name: &str,
    compile: impl FnOnce(&lisp::Options) -> Result<lisp::CompiledProgram, lisp::CompileError>,
    expected_output: Option<&str>,
    config: &Config,
    run: impl FnOnce(&lisp::CompiledProgram) -> Result<Run, String>,
) -> Result<(Measurement, Timing), StudyError> {
    let compile_start = Instant::now();
    let compiled = compile(&config.to_options()).map_err(|e| StudyError::Compile {
        program: name.to_string(),
        message: e.to_string(),
    })?;
    let sim_start = Instant::now();
    let run = run(&compiled).map_err(|message| StudyError::Sim {
        program: name.to_string(),
        message,
    })?;
    let (outcome, owner) = match run {
        Run::Simulated(outcome) => (outcome, None),
        Run::Shared { outcome, owner } => (outcome, Some(owner)),
    };
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
    let config_name = config.to_string();
    let labels = [
        ("program", name),
        ("config", &config_name),
        ("owner", owner.as_deref().unwrap_or_default()),
    ];
    crate::trace::record("compile", "session", compile_start, sim_start, &labels[..2]);
    match owner {
        None => crate::trace::record("simulate", "session", sim_start, end, &labels[..2]),
        Some(_) => crate::trace::record("run.shared", "session", sim_start, end, &labels),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use lisp::CheckingMode;

    #[test]
    fn timed_runs_attribute_wall_time() {
        let b = programs::by_name("frl").unwrap();
        let config = Config::baseline(CheckingMode::None);
        let expected = Some(b.expected_output);
        let (_, t) = run_timed(
            b.name,
            |o| b.compile(o),
            expected,
            &config,
            |c| {
                simulate(c, &config)
                    .map(Run::Simulated)
                    .map_err(|e| e.to_string())
            },
        )
        .unwrap();
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

    /// Over real compiled programs, two run keys are equal exactly when
    /// everything the simulator reads is equal: the digest neither merges
    /// different programs nor splits identical ones.
    #[test]
    fn run_keys_are_equal_exactly_when_the_runs_are() {
        let hws = [
            "plain",
            "tagbr",
            "genarith",
            "chklists",
            "chkall",
            "drop5+tagbr",
            "maximal",
            "spur",
        ];
        let seeds = RunSeeds::random();
        let mut points = Vec::new();
        for program in ["rat", "frl"] {
            let b = programs::by_name(program).unwrap();
            for scheme in tagword::ALL_SCHEMES {
                for checking in ["none", "full"] {
                    for hw in hws {
                        let name = format!("{}:{checking}:{hw}", scheme.name());
                        let config = Config::parse(&name).unwrap();
                        let compiled = b.compile(&config.to_options()).unwrap();
                        points.push((RunKey::of(&compiled, &config, &seeds), compiled));
                    }
                }
            }
        }
        let mut shared = 0;
        for (i, (key_a, a)) in points.iter().enumerate() {
            for (key_b, b) in &points[i + 1..] {
                let same_run = a.program.insns == b.program.insns
                    && a.program.annots == b.program.annots
                    && a.program.data == b.program.data
                    && a.program.entry == b.program.entry
                    && a.mem_bytes == b.mem_bytes
                    && a.hw.as_seen_by(&a.program) == b.hw.as_seen_by(&b.program);
                assert_eq!(key_a == key_b, same_run);
                shared += usize::from(same_run);
            }
        }
        assert!(shared > 0, "some configurations coincide");
    }
}
