//! The continuous differential-fuzzing fleet.
//!
//! [`run_campaign`] streams seeded generated programs ([`crate::gen`]) across
//! the full scheme × checking × hardware × backend matrix and diffs every
//! column against the tree-walking reference evaluator. A column is a
//! [`Config`] with its backend applied. The fleet has no differential check
//! of its own: it compiles, runs and diffs each column through
//! [`crate::oracle`], the same code the oracle's sweep uses. Execution is
//! abstracted behind [`Runner`], so the same engine drives both an
//! in-process sweep ([`LocalRunner`]) and a live `tagstudyd` daemon (the
//! `serve` crate's `DaemonRunner`).
//!
//! Two persistent artifacts (both in [`store::fuzz`]) make campaigns
//! *cumulative*:
//!
//! - every divergence is shrunk ([`crate::shrink`]) and archived as a
//!   content-addressed [`Witness`] that replays deterministically
//!   ([`replay_witness`]);
//! - a [`CoverageLedger`] counts completed runs per `(op-mix cell | column)`
//!   coverage cell and is persisted after *every* program, so a killed
//!   campaign resumes exactly where it stopped: already-covered columns are
//!   skipped (and counted, so tests can prove the skipping happened) and
//!   seeds are steered at the least-covered cells first.
//!
//! Injecting a [`Fault`] into the reference executor turns the fleet into its
//! own acceptance test: the campaign must catch the planted bug and archive a
//! small witness for it.

use crate::gen::{self, Program};
use crate::oracle::{self, Mismatch, MismatchKind, SIM_FUEL};
use crate::profile::OpMix;
use crate::shrink;
use lisp::eval::EvalError;
use mipsx::{Backend, Fault, Outcome, ALL_BACKENDS};
use store::fuzz::{CoverageLedger, FuzzStore, Witness};
use tagstudy::Config;

/// Seed offset between adjacent coverage cells, so each cell draws from its
/// own effectively-disjoint seed range (a cell never consumes more than
/// `per_cell` seeds).
const SEED_STRIDE: u64 = 1_000_003;

/// Cap on archived divergence details, so one pathological output diff can't
/// bloat a witness record.
const MAX_DETAIL: usize = 2000;

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

/// A column's coordinate label: the config's [`Config::name`] and its
/// backend, e.g. `high5:full:maximal:ref`. Ledger keys and witnesses persist
/// it.
pub fn column_label(config: &Config) -> String {
    format!("{}:{}", config.name(), config.backend.name())
}

/// The full differential matrix: every oracle configuration
/// ([`Config::matrix`], 24 of them) crossed with `backends`.
pub fn matrix_columns(backends: &[Backend]) -> Vec<Config> {
    Config::matrix()
        .into_iter()
        .flat_map(|config| backends.iter().map(move |b| config.with_backend(*b)))
        .collect()
}

/// One op-mix coverage cell: a named point on an axis sweep from a heavy
/// preset toward the balanced mix.
#[derive(Debug, Clone)]
pub struct MixCell {
    /// Cell name, e.g. `list@2` (profile `list`, axis step 2).
    pub name: String,
    /// The interpolated op-mix programs in this cell are drawn from.
    pub mix: OpMix,
}

/// The op-mix axis sweep: three heavy profiles (`list`, `vector`, `arith`),
/// each interpolated toward [`OpMix::balanced`] over `axis_points` steps
/// (step 0 is the pure profile; the balanced endpoint itself is excluded —
/// every profile converges there, so it would triple-count one cell).
pub fn mix_cells(axis_points: u32) -> Vec<MixCell> {
    let axis_points = axis_points.max(1);
    let profiles = [
        ("list", OpMix::list_heavy()),
        ("vector", OpMix::vector_heavy()),
        ("arith", OpMix::arith_heavy()),
    ];
    let mut out = Vec::new();
    for (name, profile) in profiles {
        for step in 0..axis_points {
            let t = f64::from(step) / f64::from(axis_points);
            out.push(MixCell {
                name: format!("{name}@{step}"),
                mix: OpMix::lerp(&profile, &OpMix::balanced(), t),
            });
        }
    }
    out
}

/// The coverage-ledger key of one `(cell, column)` coverage cell.
pub fn ledger_key(cell: &str, column_label: &str) -> String {
    format!("{cell}|{column_label}")
}

// ---------------------------------------------------------------------------
// Fault spelling (CLI + witness records)
// ---------------------------------------------------------------------------

/// Render a fault in its CLI/witness spelling, e.g. `branch-invert:1`.
pub fn fault_to_string(fault: &Fault) -> String {
    match fault {
        Fault::AddOffByOne { nth } => format!("add-off-by-one:{nth}"),
        Fault::BranchInvert { nth } => format!("branch-invert:{nth}"),
    }
}

/// Parse the CLI/witness fault spelling produced by [`fault_to_string`].
///
/// # Errors
///
/// An unknown fault name or a malformed occurrence count.
pub fn fault_from_string(text: &str) -> Result<Fault, String> {
    let (name, nth) = text
        .split_once(':')
        .ok_or_else(|| format!("fault {text:?}: want name:N, e.g. branch-invert:1"))?;
    let nth: u64 = nth
        .parse()
        .map_err(|_| format!("fault {text:?}: bad occurrence count {nth:?}"))?;
    match name {
        "add-off-by-one" => Ok(Fault::AddOffByOne { nth }),
        "branch-invert" => Ok(Fault::BranchInvert { nth }),
        other => Err(format!(
            "unknown fault {other:?} (known: add-off-by-one, branch-invert)"
        )),
    }
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

/// Executes one program across a set of matrix columns. The returned vector
/// must have one entry per requested column, in order; a column that
/// produced no outcome is a [`MismatchKind::Compile`] or
/// [`MismatchKind::Sim`] mismatch.
pub trait Runner {
    /// Run `source` under every column in `columns`.
    fn run(&mut self, source: &str, columns: &[Config]) -> Vec<Result<Outcome, Mismatch>>;
}

/// The in-process runner: lowers the program once and runs every column
/// through [`oracle`], optionally with a fault injected into the reference
/// executor (the fleet's self-test mode).
#[derive(Debug, Default)]
pub struct LocalRunner {
    /// Fault injected into every execution, if any.
    pub fault: Option<Fault>,
}

impl Runner for LocalRunner {
    fn run(&mut self, source: &str, columns: &[Config]) -> Vec<Result<Outcome, Mismatch>> {
        let unit = oracle::lower(source);
        columns
            .iter()
            .map(|config| match &unit {
                Ok(unit) => oracle::run(unit, config, self.fault),
                Err(e) => Err(oracle::mismatch(
                    MismatchKind::Compile,
                    config,
                    e.to_string(),
                )),
            })
            .collect()
    }
}

/// Does `source` diverge from the reference evaluator under `config` (with
/// `fault` injected, executed locally)? The shrinker's predicate, and the
/// witness replayer's core. A source the reference rejects diverges with a
/// `reference: …` compile mismatch.
pub fn column_diverges(source: &str, config: &Config, fault: Option<Fault>) -> Option<Mismatch> {
    let reference_failed = |e: EvalError| Mismatch {
        kind: MismatchKind::Compile,
        config: "reference".into(),
        detail: format!("reference: {e:?}"),
    };
    let check = || {
        let unit = oracle::lower(source).map_err(|e| reference_failed(EvalError::Compile(e)))?;
        let expected = oracle::reference_unit(&unit).map_err(reference_failed)?;
        oracle::diff(&expected, &oracle::run(&unit, config, fault)?, config)
    };
    check().err()
}

/// Re-execute an archived witness locally and report whether it still
/// diverges (the corpus's regression check: a fixed bug flips its witnesses
/// to `false`).
///
/// # Errors
///
/// A witness carrying an unknown backend or fault spelling (i.e. written by
/// a future format).
pub fn replay_witness(witness: &Witness) -> Result<bool, String> {
    let config = witness.config_with_backend()?;
    let fault = witness
        .fault
        .as_deref()
        .map(fault_from_string)
        .transpose()?;
    Ok(column_diverges(&witness.source, &config, fault).is_some())
}

// ---------------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------------

/// Parameters of one fuzzing campaign. Everything that shapes the coverage
/// space is part of the campaign identity ([`CampaignSpec::campaign_id`]), so
/// a resumed campaign can detect a ledger written under different rules.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Base of the deterministic seed schedule.
    pub seed_base: u64,
    /// Axis-sweep steps per op-mix profile (see [`mix_cells`]).
    pub axis_points: u32,
    /// Programs required to saturate each coverage cell.
    pub per_cell: u64,
    /// Backends crossed with the 24 oracle configurations.
    pub backends: Vec<Backend>,
    /// Stop after this many programs even if coverage is incomplete (the
    /// kill-mid-campaign half of the resume test).
    pub max_programs: Option<u64>,
    /// Fault injected into every execution — the fleet's self-test mode.
    /// Fault campaigns never persist the ledger (their counts describe a
    /// deliberately broken machine).
    pub fault: Option<Fault>,
    /// Stop as soon as the first witness is archived.
    pub stop_on_witness: bool,
}

impl CampaignSpec {
    /// The full acceptance campaign: 12 op-mix cells × 45 programs = 540
    /// programs, each through 24 configurations × both backends (fast and
    /// ref).
    pub fn full() -> CampaignSpec {
        CampaignSpec {
            seed_base: 0x5EED_F1EE,
            axis_points: 4,
            per_cell: 45,
            backends: ALL_BACKENDS.to_vec(),
            max_programs: None,
            fault: None,
            stop_on_witness: false,
        }
    }

    /// The CI smoke campaign: 3 cells × 2 programs, same matrix.
    pub fn smoke() -> CampaignSpec {
        CampaignSpec {
            axis_points: 1,
            per_cell: 2,
            ..CampaignSpec::full()
        }
    }

    /// The identity string persisted in the coverage ledger.
    pub fn campaign_id(&self) -> String {
        let backends: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
        format!(
            "fuzz/v1 seed={} axis={} per-cell={} backends={}",
            self.seed_base,
            self.axis_points,
            self.per_cell,
            backends.join("+")
        )
    }
}

/// A running campaign's counters, handed to the progress callback after every
/// program (the daemon driver forwards them to `/metrics`).
#[derive(Debug, Clone)]
pub struct Progress<'a> {
    /// The coverage cell the program was steered at.
    pub cell: &'a str,
    /// Programs completed so far (this run, not counting resumed coverage).
    pub programs: u64,
    /// Columns executed so far.
    pub columns_run: u64,
    /// Columns skipped because a previous (resumed) run already covered them.
    pub columns_skipped: u64,
    /// Divergences found so far.
    pub divergences: u64,
    /// Witnesses archived so far.
    pub witnesses: u64,
    /// Ledger saturation, in percent.
    pub coverage_percent: f64,
}

/// The campaign's final accounting.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign identity ([`CampaignSpec::campaign_id`]).
    pub campaign: String,
    /// Programs generated and executed by this run.
    pub programs: u64,
    /// Columns executed by this run.
    pub columns_run: u64,
    /// Columns skipped because the resumed ledger already covered them.
    pub columns_skipped: u64,
    /// Sum of ledger counts inherited from a previous run (zero when fresh).
    pub resumed_from: u64,
    /// Divergences found by this run.
    pub divergences: u64,
    /// Keys of the witnesses archived by this run.
    pub witnesses: Vec<String>,
    /// Final ledger saturation, in percent.
    pub coverage_percent: f64,
    /// Whether every coverage cell reached the per-cell target.
    pub complete: bool,
}

/// Run (or resume) a campaign: steer seeds at the least-covered coverage
/// cell, fan each program across the matrix via `runner`, diff every column
/// against the reference evaluator, shrink and archive divergences, and
/// persist the ledger after every program.
///
/// # Errors
///
/// Harness-level failures only (a reference-evaluator rejection — a generator
/// bug — a ledger belonging to a different campaign, a runner arity bug, or
/// store I/O). Divergences are *results*, reported in the
/// [`CampaignReport`], not errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    store: &FuzzStore,
    runner: &mut dyn Runner,
    resume: bool,
    progress: &mut dyn FnMut(&Progress<'_>),
) -> Result<CampaignReport, String> {
    if spec.backends.is_empty() {
        return Err("campaign has no backends".to_string());
    }
    let columns = matrix_columns(&spec.backends);
    let cells = mix_cells(spec.axis_points);
    let campaign = spec.campaign_id();
    let persist = spec.fault.is_none();

    let mut ledger = if !persist {
        CoverageLedger::new(&campaign, spec.per_cell)
    } else if resume {
        match store.load_ledger() {
            Some(l) if l.campaign() == campaign => l,
            Some(l) => {
                return Err(format!(
                    "ledger belongs to campaign {:?}, not {campaign:?}; \
                     rerun without --resume to start fresh",
                    l.campaign()
                ))
            }
            None => CoverageLedger::new(&campaign, spec.per_cell),
        }
    } else {
        store.reset_ledger();
        CoverageLedger::new(&campaign, spec.per_cell)
    };
    for cell in &cells {
        for column in &columns {
            ledger.register(&ledger_key(&cell.name, &column_label(column)));
        }
    }
    if persist {
        // The full (all-zeros) cell space hits the disk before any work does,
        // so even a campaign killed inside its first program leaves books.
        store
            .store_ledger(&ledger)
            .map_err(|e| format!("persisting ledger: {e}"))?;
    }

    let mut report = CampaignReport {
        campaign,
        programs: 0,
        columns_run: 0,
        columns_skipped: 0,
        resumed_from: ledger.cells().map(|(_, count)| count).sum(),
        divergences: 0,
        witnesses: Vec::new(),
        coverage_percent: ledger.coverage_percent(),
        complete: false,
    };

    loop {
        // Steer at the globally least-covered cell: the one whose minimum
        // column count is smallest (and below the target).
        let mut pick: Option<(usize, u64)> = None;
        for (ci, cell) in cells.iter().enumerate() {
            let min = columns
                .iter()
                .map(|column| ledger.count(&ledger_key(&cell.name, &column_label(column))))
                .min()
                .unwrap_or(u64::MAX);
            if min < spec.per_cell && pick.is_none_or(|(_, best)| min < best) {
                pick = Some((ci, min));
            }
        }
        let Some((ci, k)) = pick else {
            break; // every cell saturated
        };
        if spec.max_programs.is_some_and(|max| report.programs >= max) {
            break;
        }

        let cell = &cells[ci];
        // Deterministic seed schedule: the k-th program of a cell is the same
        // in every run, resumed or not.
        let seed = spec.seed_base + ci as u64 * SEED_STRIDE + k;
        let program = gen::generate(seed, &cell.mix);
        let source = gen::render(&program);
        let expected = oracle::reference(&source).map_err(|e| {
            format!("seed {seed}: reference evaluation failed (generator bug): {e:?}")
        })?;

        // Columns a previous run already carried past k are skipped — the
        // observable proof that resuming does not repeat covered work.
        let todo: Vec<Config> = columns
            .iter()
            .filter(|column| ledger.count(&ledger_key(&cell.name, &column_label(column))) == k)
            .copied()
            .collect();
        report.columns_skipped += (columns.len() - todo.len()) as u64;

        let results = runner.run(&source, &todo);
        if results.len() != todo.len() {
            return Err(format!(
                "runner returned {} results for {} columns",
                results.len(),
                todo.len()
            ));
        }

        for (column, result) in todo.iter().zip(results) {
            // One witness is the proof a stop-on-witness campaign exists to
            // produce (a planted fault derails *every* column — archiving 48
            // near-identical witnesses would bury it); stop mid-program.
            if spec.stop_on_witness && !report.witnesses.is_empty() {
                break;
            }
            let verdict = result.and_then(|got| oracle::diff(&expected, &got, column));
            if let Err(found) = verdict {
                report.divergences += 1;
                let key = archive_divergence(spec, store, cell, column, seed, &program, found)?;
                report.witnesses.push(key);
            }
            ledger.bump(&ledger_key(&cell.name, &column_label(column)));
            report.columns_run += 1;
            if persist {
                // Persist per column, not per program: a campaign killed
                // mid-program resumes with exactly the unfinished columns,
                // and the resume test can count the skipped ones.
                store
                    .store_ledger(&ledger)
                    .map_err(|e| format!("persisting ledger: {e}"))?;
            }
        }

        report.programs += 1;
        report.coverage_percent = ledger.coverage_percent();
        progress(&Progress {
            cell: &cell.name,
            programs: report.programs,
            columns_run: report.columns_run,
            columns_skipped: report.columns_skipped,
            divergences: report.divergences,
            witnesses: report.witnesses.len() as u64,
            coverage_percent: report.coverage_percent,
        });
        if spec.stop_on_witness && !report.witnesses.is_empty() {
            break;
        }
    }

    report.complete = ledger.complete();
    Ok(report)
}

/// Shrink one diverging program (re-checking the divergence locally) and
/// archive the result as a witness. Returns the witness key.
fn archive_divergence(
    spec: &CampaignSpec,
    store: &FuzzStore,
    cell: &MixCell,
    column: &Config,
    seed: u64,
    program: &Program,
    found: Mismatch,
) -> Result<String, String> {
    let mut still_failing =
        |q: &Program| column_diverges(&gen::render(q), column, spec.fault).is_some();
    // A divergence the local re-run can't reproduce (e.g. a daemon-side
    // fault) is archived unshrunk — a witness with caveats beats none.
    let small = if still_failing(program) {
        shrink::shrink(program, &mut still_failing)
    } else {
        program.clone()
    };
    let source = gen::render(&small);
    let Mismatch {
        kind, mut detail, ..
    } = column_diverges(&source, column, spec.fault).unwrap_or(found);

    // In fault mode the conformance harness can pin the divergence to the
    // exact retired instruction — record that alongside the oracle's view.
    if let Some(fault) = spec.fault {
        if let Ok(compiled) = lisp::compile(&source, &column.to_options()) {
            if let Err(e) = conformance::check_compiled(&compiled, SIM_FUEL, Some(fault)) {
                detail.push_str("; lockstep: ");
                detail.push_str(&e.to_string());
            }
        }
    }
    if detail.len() > MAX_DETAIL {
        let mut end = MAX_DETAIL;
        while !detail.is_char_boundary(end) {
            end -= 1;
        }
        detail.truncate(end);
        detail.push('…');
    }

    let witness = Witness {
        seed,
        mix: cell.mix.to_string(),
        cell: cell.name.clone(),
        column: column_label(column),
        config: *column,
        backend: column.backend.name().to_string(),
        fault: spec.fault.map(|f| fault_to_string(&f)),
        kind: format!("{kind:?}"),
        detail,
        source,
        forms: small.size() as u64,
    };
    let key = store
        .put_witness(&witness)
        .map_err(|e| format!("archiving witness: {e}"))?;
    Ok(key.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_configs_times_backends() {
        let columns = matrix_columns(&ALL_BACKENDS);
        assert_eq!(columns.len(), 24 * 2);
        let mut labels: Vec<String> = columns.iter().map(column_label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 48, "labels identify columns uniquely");
        assert!(labels.iter().any(|l| l == "high5:full:maximal:ref"));
    }

    #[test]
    fn mix_cells_sweep_the_axes() {
        let cells = mix_cells(4);
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].name, "list@0");
        // Step 0 is the pure preset.
        assert_eq!(cells[0].mix, OpMix::list_heavy());
        // Later steps move toward balanced but never reach it.
        assert_ne!(cells[3].mix, OpMix::balanced());
        // Degenerate axis still yields the three pure profiles.
        assert_eq!(mix_cells(0).len(), 3);
    }

    #[test]
    fn fault_spelling_round_trips() {
        for fault in [
            Fault::AddOffByOne { nth: 3 },
            Fault::BranchInvert { nth: 1 },
        ] {
            let spelled = fault_to_string(&fault);
            assert_eq!(fault_from_string(&spelled), Ok(fault));
        }
        assert!(fault_from_string("branch-invert").is_err());
        assert!(fault_from_string("rowhammer:1").is_err());
        assert!(fault_from_string("branch-invert:x").is_err());
    }
}
