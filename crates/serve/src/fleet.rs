//! The daemon half of the differential-fuzzing fleet: a [`Runner`] that
//! executes matrix columns on a live `tagstudyd`, and the `tagctl fuzz`
//! campaign driver shared by the CLI and the end-to-end tests.
//!
//! The daemon path exists to fuzz the *service*, not just the simulators: a
//! campaign driven through [`DaemonRunner`] exercises the wire protocol, the
//! session engine, and the uncached `/v1/fuzz/run` execution path with the
//! same oracle that checks the simulators themselves. The runner only turns
//! each column's result into a `mipsx::Outcome` (or a `Sim` mismatch); the
//! campaign diffs it through `synth::oracle`. Campaign telemetry is
//! pushed back to the daemon (`/v1/fuzz/report`) so `/metrics` shows
//! throughput, divergences, and coverage while a fleet is running.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mipsx::Outcome;
use store::fuzz::FuzzStore;
use store::StoreKey;
use synth::fleet::{replay_witness, run_campaign, CampaignSpec, LocalRunner, Progress, Runner};
use synth::{Mismatch, MismatchKind};
use tagstudy::trace::{TraceContext, TRACEPARENT_HEADER};
use tagstudy::Config;

use crate::http::{fetch, fetch_headers, json_string};
use crate::proto;

/// Client-side timeout per daemon request. Generous: a fuzz batch simulates
/// up to 48 columns of one program on a possibly-loaded machine.
const RUN_TIMEOUT: Duration = Duration::from_secs(600);

/// Timeout for telemetry pushes — best-effort, never worth stalling the
/// campaign for.
const REPORT_TIMEOUT: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// DaemonRunner
// ---------------------------------------------------------------------------

/// Executes matrix columns by POSTing inline fuzz batches to a live
/// `tagstudyd` (`/v1/fuzz/run`, the uncached execution path).
#[derive(Debug, Clone)]
pub struct DaemonRunner {
    addr: String,
    /// The campaign's originating trace context: every fuzz batch carries it
    /// as a `traceparent`, so the daemon-side request trees of one campaign
    /// all share a single trace id.
    ctx: TraceContext,
}

impl DaemonRunner {
    /// A runner talking to the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> DaemonRunner {
        DaemonRunner {
            addr: addr.into(),
            ctx: TraceContext::fresh(),
        }
    }

    /// The campaign's trace context (one id for the whole campaign).
    pub fn trace(&self) -> TraceContext {
        self.ctx
    }

    /// One column as an inline experiment object. The source rides in the
    /// batch itself; the daemon derives the `inline:<hash>` name, so every
    /// column of one program shares a single registered source.
    fn spec_json(source: &str, c: &Config) -> String {
        format!(
            "{{\"source\":{},\"scheme\":{},\"checking\":{},\"hw\":{},\"backend\":{}}}",
            json_string(source),
            json_string(c.scheme.name()),
            json_string(c.checking.name()),
            json_string(&c.hw.name(c.scheme.tag_bits())),
            json_string(c.backend.name()),
        )
    }

    /// Run `columns` as one `/v1/fuzz/run` batch: one outcome per column, in
    /// order, or why the daemon produced none.
    fn post(&self, source: &str, columns: &[Config]) -> Result<Vec<Outcome>, String> {
        let specs: Vec<String> = columns
            .iter()
            .map(|c| DaemonRunner::spec_json(source, c))
            .collect();
        let body = format!("{{\"experiments\":[{}]}}", specs.join(","));
        let (status, bytes) = fetch_headers(
            &self.addr,
            "POST",
            "/v1/fuzz/run",
            body.as_bytes(),
            RUN_TIMEOUT,
            &[(TRACEPARENT_HEADER, &self.ctx.to_traceparent())],
        )?;
        if status != 200 {
            return Err(format!(
                "daemon answered {status}: {}",
                String::from_utf8_lossy(&bytes).trim_end()
            ));
        }
        let text =
            std::str::from_utf8(&bytes).map_err(|_| "daemon response is not UTF-8".to_string())?;
        let results = proto::parse_results(text)?;
        if results.len() != columns.len() {
            return Err(format!(
                "daemon returned {} results for {} specs",
                results.len(),
                columns.len()
            ));
        }
        Ok(results
            .into_iter()
            .map(|(_, _, m)| Outcome {
                halt_code: m.halt_code,
                output: m.output,
                stats: m.stats,
            })
            .collect())
    }
}

impl Runner for DaemonRunner {
    fn run(&mut self, source: &str, columns: &[Config]) -> Vec<Result<Outcome, Mismatch>> {
        if columns.is_empty() {
            return Vec::new();
        }
        // Fast path: all columns in one batch. The daemon fails a batch whole
        // (a refused column — e.g. an unexpected halt code — 500s everything),
        // so on any failure fall back to one request per column; the columns
        // that still refuse become their own differential signal.
        if let Ok(outcomes) = self.post(source, columns) {
            return outcomes.into_iter().map(Ok).collect();
        }
        columns
            .iter()
            .map(|column| {
                self.post(source, std::slice::from_ref(column))
                    .map(|mut one| one.remove(0))
                    .map_err(|detail| Mismatch {
                        kind: MismatchKind::Sim,
                        config: column.name(),
                        detail,
                    })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Pushes per-program campaign deltas to the daemon's `/v1/fuzz/report`,
/// where they surface on `/metrics`. Best-effort: a failed push is dropped
/// (the campaign's own books are the source of truth).
struct Telemetry {
    addr: String,
    started: Instant,
    last_programs: u64,
    last_skipped: u64,
    last_divergences: u64,
    last_witnesses: u64,
}

impl Telemetry {
    fn new(addr: &str) -> Telemetry {
        Telemetry {
            addr: addr.to_string(),
            started: Instant::now(),
            last_programs: 0,
            last_skipped: 0,
            last_divergences: 0,
            last_witnesses: 0,
        }
    }

    fn push(&mut self, p: &Progress<'_>) {
        // Column totals are counted by the daemon itself (every /v1/fuzz/run
        // increments them), so the report carries only driver-side facts.
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            p.columns_run as f64 / elapsed
        } else {
            0.0
        };
        let body = format!(
            "{{\"programs\":{},\"skipped\":{},\"divergences\":{},\"witnesses\":{},\
             \"coverage_percent\":{:.4},\"columns_per_second\":{rate:.4}}}",
            p.programs - self.last_programs,
            p.columns_skipped - self.last_skipped,
            p.divergences - self.last_divergences,
            p.witnesses - self.last_witnesses,
            p.coverage_percent,
        );
        self.last_programs = p.programs;
        self.last_skipped = p.columns_skipped;
        self.last_divergences = p.divergences;
        self.last_witnesses = p.witnesses;
        let _ = fetch(
            &self.addr,
            "POST",
            "/v1/fuzz/report",
            body.as_bytes(),
            REPORT_TIMEOUT,
        );
    }
}

// ---------------------------------------------------------------------------
// The tagctl fuzz driver
// ---------------------------------------------------------------------------

/// Everything `tagctl fuzz` parses from its command line.
#[derive(Debug, Clone)]
pub struct FuzzArgs {
    /// The campaign to run.
    pub spec: CampaignSpec,
    /// Resume from the persisted coverage ledger instead of starting fresh.
    pub resume: bool,
    /// Root of the witness corpus and coverage ledger.
    pub witness_dir: PathBuf,
    /// Run in-process instead of through the daemon.
    pub local: bool,
    /// Replay one archived witness (by store key) instead of campaigning.
    pub replay: Option<String>,
}

/// Run `tagctl fuzz`: a campaign (daemon-backed unless `--local` or fault
/// mode), or a single witness replay. Returns the process exit code: 0 for a
/// clean campaign (or, in fault mode, for a campaign that caught its planted
/// fault; in replay mode, for a witness that still diverges), 1 otherwise.
pub fn run_fuzz(addr: &str, args: &FuzzArgs) -> i32 {
    let store = match FuzzStore::open(&args.witness_dir) {
        Ok(store) => store,
        Err(why) => {
            eprintln!("tagctl fuzz: opening {}: {why}", args.witness_dir.display());
            return 1;
        }
    };
    if let Some(key) = &args.replay {
        return replay(&store, key);
    }

    // Fault campaigns must run locally: only the in-process reference
    // executor has fault injection, and a healthy daemon would (correctly)
    // refuse to be the broken half of the diff.
    let use_daemon = !args.local && args.spec.fault.is_none();
    let mut local_runner = LocalRunner {
        fault: args.spec.fault,
    };
    let mut daemon_runner = DaemonRunner::new(addr);
    if use_daemon {
        // One trace id for the whole campaign: every daemon-side request
        // tree is findable with `tagctl trace <id>`.
        eprintln!("[fuzz] trace {}", daemon_runner.trace().trace);
    }
    let runner: &mut dyn Runner = if use_daemon {
        &mut daemon_runner
    } else {
        &mut local_runner
    };
    let mut telemetry = use_daemon.then(|| Telemetry::new(addr));

    let mut progress = |p: &Progress<'_>| {
        eprintln!(
            "[fuzz] cell={} programs={} columns={} skipped={} divergences={} \
             witnesses={} coverage={:.1}%",
            p.cell,
            p.programs,
            p.columns_run,
            p.columns_skipped,
            p.divergences,
            p.witnesses,
            p.coverage_percent
        );
        if let Some(t) = telemetry.as_mut() {
            t.push(p);
        }
    };

    let report = match run_campaign(&args.spec, &store, runner, args.resume, &mut progress) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("tagctl fuzz: {why}");
            return 1;
        }
    };

    println!("campaign: {}", report.campaign);
    println!(
        "programs={} columns={} skipped={} resumed-from={} divergences={} \
         witnesses={} coverage={:.1}% complete={}",
        report.programs,
        report.columns_run,
        report.columns_skipped,
        report.resumed_from,
        report.divergences,
        report.witnesses.len(),
        report.coverage_percent,
        report.complete
    );
    for key in &report.witnesses {
        println!("witness {key}");
    }

    if args.spec.fault.is_some() {
        // Self-test mode: the planted fault must be caught and archived.
        if report.witnesses.is_empty() {
            eprintln!("tagctl fuzz: planted fault escaped the fleet");
            return 1;
        }
        0
    } else {
        i32::from(report.divergences != 0)
    }
}

/// Replay one archived witness. Exit 0 iff it still diverges (the corpus's
/// regression contract: a fixed bug flips its witnesses to "no longer
/// diverges", exit 1).
fn replay(store: &FuzzStore, key_text: &str) -> i32 {
    let key = match StoreKey::from_hex(key_text) {
        Ok(key) => key,
        Err(why) => {
            eprintln!("tagctl fuzz: {why}");
            return 1;
        }
    };
    let witness = match store.get_witness(&key) {
        Some(witness) => witness,
        None => {
            eprintln!("tagctl fuzz: no witness {key_text} in the corpus");
            return 1;
        }
    };
    match replay_witness(&witness) {
        Ok(diverges) => {
            println!(
                "witness {key_text} column={} kind={} forms={} still-diverges={diverges}",
                witness.column, witness.kind, witness.forms
            );
            i32::from(!diverges)
        }
        Err(why) => {
            eprintln!("tagctl fuzz: replaying {key_text}: {why}");
            1
        }
    }
}
