//! `paper_report`: regenerate the full report of the paper's tables and
//! figures through `tagstudy::report::full_report` on a fresh `Session`,
//! and compare it byte for byte with the committed golden file.
//!
//! The inputs are the paper's ten programs, so the seed changes nothing.
//! The traced run alternates untraced and traced reports (the traced one
//! records the session's measurements as spans through its progress
//! callback), then replays every distinct point of the report through the
//! compiler and simulator entry points, and evaluates each program with the
//! reference evaluator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use tagstudy::{report, tables, Config, Progress, Session};

use crate::layers;
use crate::summary::{median, metric, setup_seconds, Tally};
use crate::trace::{Ledger, Span, Tracer};
use crate::{Ctx, RunOutput};

/// The golden report, relative to the repository root.
const GOLDEN: &str = "tests/expected/all_experiments.txt";

/// Session constructions per set-up burst. A burst runs before every report
/// and after the last; `setup_s` is the mean of the bursts' medians.
const SETUP_BURST: usize = 21;

pub fn run(ctx: &Ctx) -> RunOutput {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let golden = match std::fs::read_to_string(GOLDEN) {
        Ok(text) => plant(text, ctx.plant_fault),
        Err(e) => {
            notes.push(format!("cannot read {GOLDEN}: {e}"));
            tally.record(false);
            return RunOutput {
                tally,
                metrics: Vec::new(),
                notes,
            };
        }
    };
    let names = tables::default_programs();

    let mut setup = Vec::new();
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last_traced: Option<(Session, f64)> = None;
    for op in 0.. {
        setup.push(setup_burst());
        // Traced runs alternate which of the pair goes first, so neither
        // side always pays for the process's first report.
        for traced_turn in [op % 2 == 1, op % 2 == 0] {
            if !traced_turn {
                let mut session = Session::new();
                let t = Instant::now();
                let text = report::full_report(&mut session, &names);
                untraced.push(t.elapsed().as_secs_f64());
                tally.record(text.is_ok_and(|t| t == golden));
            } else if ctx.tracer.enabled() {
                let (text, session, secs) = traced_report(&ctx.tracer, op, &names);
                traced.push(secs);
                tally.record(text.is_ok_and(|t| t == golden));
                last_traced = Some((session, secs));
            }
        }
        if start.elapsed() >= ctx.window {
            break;
        }
    }
    setup.push(setup_burst());
    notes.push(format!(
        "reports (s): untraced {}{}; golden {} bytes",
        seconds_list(&untraced),
        if traced.is_empty() {
            String::new()
        } else {
            format!(", traced {}", seconds_list(&traced))
        },
        golden.len()
    ));

    let metrics = match last_traced {
        // Reports run one after another, so the rate is the reciprocal of
        // the median report time. Only four to six reports fit in a window;
        // a mean would let one report slowed by a neighbour move the rate.
        None => vec![
            metric("setup_s", setup_seconds(&setup), "s"),
            metric("latency_p50_ms", median(&untraced) * 1e3, "ms"),
            metric("throughput_per_s", 1.0 / median(&untraced), "1/s"),
        ],
        Some((session, wall)) => {
            let cycles = replay(ctx, &session, &mut tally);
            evaluate(&ctx.tracer, &mut tally);
            let ledger = Ledger::build(&ctx.tracer.spans());
            let mut m = layers::metrics(&ledger, cycles, cycles);
            let stats = session.stats();
            let busy = stats.work_time().as_secs_f64();
            m.extend([
                metric("tagstudy.session.hits", stats.hits as f64, "count"),
                metric("tagstudy.session.misses", stats.misses as f64, "count"),
                metric(
                    "tagstudy.session.hit_ratio",
                    stats.hits as f64 / stats.requests() as f64,
                    "share",
                ),
                metric("tagstudy.session.busy_s", busy, "s"),
                metric(
                    "tagstudy.session.pool_utilization",
                    busy / (wall * session.parallelism().get() as f64),
                    "share",
                ),
                metric(
                    "trace.overhead_share",
                    median(&traced) / median(&untraced) - 1.0,
                    "share",
                ),
            ]);
            m
        }
    };
    RunOutput {
        tally,
        metrics,
        notes,
    }
}

/// Time [`SETUP_BURST`] session constructions.
fn setup_burst() -> Vec<f64> {
    (0..SETUP_BURST)
        .map(|_| {
            let t = Instant::now();
            let session = Session::new();
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(session);
            secs
        })
        .collect()
}

fn seconds_list(values: &[f64]) -> String {
    let list: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    list.join(" ")
}

/// Corrupt the expected report by one appended byte when planting a fault.
fn plant(mut golden: String, plant_fault: bool) -> String {
    if plant_fault {
        golden.push('#');
    }
    golden
}

/// One report on a fresh session whose progress callback records a
/// `session.measure` span (with `session.compile` and `session.simulate`
/// children cut from the session's own timing split) for every measurement,
/// under a `report` root spanning the session's worker lanes.
fn traced_report(
    tracer: &Arc<Tracer>,
    op: u64,
    names: &[&str],
) -> (Result<String, tagstudy::StudyError>, Session, f64) {
    let root = tracer.new_id();
    let open: Mutex<HashMap<ThreadId, (u64, Instant)>> = Mutex::new(HashMap::new());
    let t = Arc::clone(tracer);
    let mut session = Session::new().with_progress(move |p| match p {
        Progress::Started { .. } => {
            open.lock()
                .expect("open span lock")
                .insert(std::thread::current().id(), (t.new_id(), Instant::now()));
        }
        Progress::Finished { timing, .. } => {
            let Some((id, start)) = open
                .lock()
                .expect("open span lock")
                .remove(&std::thread::current().id())
            else {
                return;
            };
            let end = t.at_ns(Instant::now());
            let s = t.at_ns(start);
            let at = |d: Duration| (s + d.as_nanos() as u64).min(end);
            let span = |id, parent, name, start_ns, end_ns| Span {
                id,
                parent: Some(parent),
                op,
                name,
                start_ns,
                end_ns,
                lanes: 1,
            };
            t.record(span(id, root, "session.measure", s, end));
            let compiled = at(timing.compile);
            t.record(span(t.new_id(), id, "session.compile", s, compiled));
            let simulated = at(timing.compile + timing.simulate);
            t.record(span(
                t.new_id(),
                id,
                "session.simulate",
                compiled,
                simulated,
            ));
        }
        Progress::Hit { .. } => {}
    });
    let start = Instant::now();
    let text = report::full_report(&mut session, names);
    let end = Instant::now();
    tracer.record(Span {
        id: root,
        parent: None,
        op,
        name: "report",
        start_ns: tracer.at_ns(start),
        end_ns: tracer.at_ns(end),
        lanes: session.parallelism().get() as u32,
    });
    (text, session, (end - start).as_secs_f64())
}

/// Replay every distinct point the session measured through the compiler
/// and simulator entry points, checking output and cycle count against the
/// session's measurement. Returns the total simulated cycles (fixed by the
/// paper's inputs, so it repeats exactly).
fn replay(ctx: &Ctx, session: &Session, tally: &mut Tally) -> u64 {
    let mut points: Vec<(String, Config, u64)> = session
        .measurements()
        .map(|(m, _)| (m.program.clone(), m.config, m.stats.cycles))
        .collect();
    points.sort_by_cached_key(|(p, c, _)| (p.clone(), format!("{c:?}")));
    let next = AtomicUsize::new(0);
    let results: Mutex<(Tally, u64)> = Mutex::new((Tally::default(), 0));
    std::thread::scope(|scope| {
        for _ in 0..ctx.workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((program, config, want_cycles)) = points.get(i) else {
                    break;
                };
                let op = 1_000_000 + i as u64;
                let got = ctx.tracer.span("replay.point", op, None, |root| {
                    replay_point(&ctx.tracer, op, root, program, config)
                });
                let ok = matches!(got, Ok(cycles) if cycles == *want_cycles);
                let mut r = results.lock().expect("replay results lock");
                r.0.record(ok);
                r.1 += got.unwrap_or(0);
            });
        }
    });
    let (t, cycles) = results.into_inner().expect("replay results lock");
    tally.merge(t);
    cycles
}

fn replay_point(
    tracer: &Tracer,
    op: u64,
    root: u64,
    program: &str,
    config: &Config,
) -> Result<u64, String> {
    let b = programs::by_name(program).ok_or_else(|| format!("unknown program {program}"))?;
    let opts = lisp::Options {
        heap_semi_bytes: b.heap_semi_bytes,
        ..config.to_options()
    };
    let compiled = layers::compile(tracer, op, root, b.source, &opts)?;
    let outcome = layers::execute(tracer, op, root, &compiled, programs::FUEL)?;
    if outcome.halt_code != lisp::exit_code::OK || outcome.output != b.expected_output {
        return Err(format!("{program}: wrong output"));
    }
    Ok(outcome.stats.cycles)
}

/// Cross-check each paper program's pinned output with the reference
/// evaluator.
fn evaluate(tracer: &Tracer, tally: &mut Tally) {
    for (i, b) in programs::all().iter().enumerate() {
        let op = 2_000_000 + i as u64;
        let ok = tracer.span("eval.program", op, None, |root| {
            tracer
                .span(layers::EVAL, op, Some(root), |_| {
                    synth::oracle::reference(b.source)
                })
                .is_ok_and(|e| e.halt_code == lisp::exit_code::OK && e.output == b.expected_output)
        });
        tally.record(ok);
    }
}
