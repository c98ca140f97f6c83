//! `daemon_mixed`: an in-process `serve::Server` on loopback with a result
//! store pre-seeded with records, driven by two closed-loop clients at once:
//!
//! - the *warm* client replays points the daemon loaded from the store at
//!   start-up, so every answer is a cache hit;
//! - the *cold* client sends a seeded stream of points nobody has measured:
//!   paper programs under the `classic5`/`modern` timing models, and inline
//!   `synth` sources.
//!
//! Set-up (timed as `setup_s`) is opening the store and starting the
//! daemon, whose warm start loads and seeds every record. Checks: every
//! response is 200; each warm response is byte-identical to the first one
//! for its point, and that first one matches a local measurement; named
//! cold results print the program's pinned output; inline results match
//! the reference evaluator.
//!
//! The traced run adds client-side spans around every request and, after
//! the window, times the store, protocol and timing layers directly: the
//! store's put/get/load on the same records, the protocol parser on every
//! body sent, and the first cold paper points replayed with and without
//! their timing model.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::http::{fetch, json_string};
use serve::{proto, Server, ServerConfig};
use store::ResultStore;
use synth::Pcg32;
use tagstudy::{CheckingMode, Config, Measurement, Session, Timing};
use tagword::{TagScheme, ALL_SCHEMES};

use crate::summary::{describe, median, metric, setup_seconds, tail, Metric, Tally};
use crate::trace::{Ledger, Tracer};
use crate::{fuzz, layers, Ctx, RunOutput};

/// Daemon starts per set-up burst. One burst runs before the window and one
/// after; `setup_s` is the mean of the bursts' medians.
const SETUP_BURST: usize = 15;

/// Pre-seeded records the warm client replays (of the 72 in the store), so
/// each is requested many times in a window.
const WARM_REPLAYED: usize = 12;

/// Inline synth programs per round of the cold stream (one round also holds
/// each paper program once).
const INLINE_PER_ROUND: usize = 3;

/// Rounds of the cold stream prepared per run (more than any run reaches).
const ROUNDS: usize = 40;

/// The paper programs the cold stream times: all but the three whose timed
/// runs take 0.3–0.8 s (`deduce`, `dedgc`, `boyer`). Leaving them out keeps
/// cold requests within about 3× of each other (80–250 ms), so a warm
/// request's wait — the rest of whichever cold request it lands in — varies
/// less from run to run, and a window holds more of both.
const COLD_PROGRAMS: [&str; 7] = ["inter", "rat", "comp", "opt", "frl", "brow", "trav"];

/// Hardware levels and timing models the cold paper points draw from.
const COLD_HW: [&str; 3] = ["plain", "tagbr", "maximal"];
const COLD_TIMING: [&str; 2] = ["classic5", "modern"];

/// The first cold paper points of the stream, replayed by the traced run
/// with and without their timing model.
const TIMING_REPLAYS: usize = 4;

/// The warm client's think time between an answer and its next request is
/// uniform in `THINK_MIN .. THINK_MIN + THINK_SPAN_US µs`: it lands each warm
/// request at a seeded point inside whatever the cold client is doing,
/// instead of racing the cold client's next request at every cold
/// completion (a race whose winner flips from run to run).
const THINK_MIN: Duration = Duration::from_millis(1);
const THINK_SPAN_US: u32 = 49_000;

/// How long the traced run's warm client runs alone after the window.
const WARM_ALONE: Duration = Duration::from_secs(1);

/// Per-request client timeout: far above any cold point.
const TIMEOUT: Duration = Duration::from_secs(120);

/// One point either client sends.
struct Point {
    /// The request body, as JSON text.
    body: String,
    /// What a correct answer looks like.
    check: Check,
}

enum Check {
    /// A pre-seeded point: the local measurement the first answer must match.
    Warm(Box<Measurement>),
    /// A paper program: its pinned output, under a timing model.
    Named {
        program: &'static programs::Benchmark,
        config: Config,
    },
    /// An inline source: its output must match the reference evaluator.
    Inline(usize),
}

/// One request as the client saw it.
struct Sample {
    start_ns: u64,
    end_ns: u64,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let tracer = &*ctx.tracer;
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // Inputs: the pre-seeded records (measured here, then written to a
    // template store), the warm points replayed from them, and the cold
    // stream.
    let template = ctx.work_dir.join("template");
    let prepared = tracer.span("prep", 7_000_000, None, |root| {
        prepare_template(tracer, root, &template, ctx.seed)
    });
    let (records, warm) = match prepared {
        Ok(prepared) => prepared,
        Err(why) => {
            notes.push(format!("preparing the store failed: {why}"));
            tally.record(false);
            return RunOutput {
                tally,
                metrics: Vec::new(),
                notes,
            };
        }
    };
    let inline_sources = tracer.span("prep.inline", 7_000_001, None, |root| {
        fuzz::generate(tracer, root, ctx.seed ^ 0x1d, ROUNDS * INLINE_PER_ROUND)
    });
    let cold = cold_stream(ctx.seed, &inline_sources);

    // Set-up: the last daemon of the first burst serves the window.
    let (before, server) = setup_burst(ctx, &template, 0, records.len(), &mut tally, &mut notes);
    let Some(server) = server else {
        return RunOutput {
            tally,
            metrics: Vec::new(),
            notes,
        };
    };
    let addr = server.addr().to_string();

    // The window: both clients closed-loop until the deadline.
    let origin = Instant::now();
    let deadline = origin + ctx.window;
    let planted = ctx.plant_fault;
    let (warm_run, cold_run) = std::thread::scope(|scope| {
        let warm_client = scope.spawn(|| {
            client(
                tracer,
                "request.warm",
                1 << 40,
                &addr,
                &warm,
                origin,
                deadline,
                Some(Pcg32::new(ctx.seed, 3)),
                planted,
            )
        });
        let cold_client = scope.spawn(|| {
            client(
                tracer,
                "request.cold",
                2 << 40,
                &addr,
                &cold,
                origin,
                deadline,
                None,
                false,
            )
        });
        (
            warm_client.join().expect("warm client thread"),
            cold_client.join().expect("cold client thread"),
        )
    });
    // The traced run then lets the warm client run alone briefly: the
    // baseline a warm hit costs when nothing contends with it.
    let alone_run = tracer.enabled().then(|| {
        let alone_origin = Instant::now();
        client(
            tracer,
            "request.warm",
            3 << 40,
            &addr,
            &warm,
            origin,
            alone_origin + WARM_ALONE,
            None,
            false,
        )
    });
    stop(server);
    let (after, last) = setup_burst(ctx, &template, 1, records.len(), &mut tally, &mut notes);
    if let Some(last) = last {
        stop(last);
    }
    let setup = [before, after];
    tally.merge(warm_run.tally);
    tally.merge(cold_run.tally);
    if let Some(alone) = &alone_run {
        tally.merge(alone.tally);
    }

    // Inline results against the reference evaluator (outside the window).
    for (i, response) in &cold_run.inline_results {
        let op = 3_000_000 + *i as u64;
        let ok = tracer.span("eval.inline", op, None, |root| {
            tracer
                .span(layers::EVAL, op, Some(root), |_| {
                    synth::oracle::reference(&inline_sources[*i])
                })
                .is_ok_and(|e| e.halt_code == response.halt_code && e.output == response.output)
        });
        tally.record(ok);
    }

    let warm_ms: Vec<f64> = warm_run.samples.iter().map(Sample::ms).collect();
    let cold_ms: Vec<f64> = cold_run.samples.iter().map(Sample::ms).collect();
    let cold_elapsed = cold_run
        .samples
        .last()
        .map_or(f64::NAN, |s| s.end_ns as f64 / 1e9);
    notes.push(format!(
        "requests: {} warm, {} cold ({} inline) over {:.3} s; warm-start seeded {} records",
        warm_ms.len(),
        cold_ms.len(),
        cold_run.inline_results.len(),
        cold_elapsed,
        records.len()
    ));
    notes.push(describe("warm latency", &warm_ms));
    notes.push(describe("cold latency", &cold_ms));
    if warm_ms.is_empty() || cold_ms.is_empty() {
        notes.push("a client completed no request".to_string());
        tally.record(false);
        return RunOutput {
            tally,
            metrics: Vec::new(),
            notes,
        };
    }

    let metrics = if tracer.enabled() {
        let mut m = traced_metrics(
            ctx, &records, &warm, &cold, &cold_run, &template, &mut tally,
        );
        let alone = alone_run.map(|a| a.samples).unwrap_or_default();
        let (latency, latency_notes) =
            latency_metrics(&warm_run.samples, &alone, &cold_run.samples);
        m.extend(latency);
        notes.extend(latency_notes);
        m
    } else {
        vec![
            metric("setup_s", setup_seconds(&setup), "s"),
            metric("latency_p50_ms", median(&warm_ms), "ms"),
            metric(
                "throughput_per_s",
                cold_ms.len() as f64 / cold_elapsed,
                "1/s",
            ),
        ]
    };
    RunOutput {
        tally,
        metrics,
        notes,
    }
}

/// The pre-seeded records: every paper program but `dedgc` (which shares
/// `deduce`'s source, and so its store address) under every scheme and
/// checking mode, on plain hardware without a timing model — measured
/// locally and written to a template store, one `store.put` span each. The
/// warm client replays the first [`WARM_REPLAYED`] of them in a seeded
/// order.
fn prepare_template(
    tracer: &Tracer,
    root: u64,
    dir: &Path,
    seed: u64,
) -> Result<(Vec<Measurement>, Vec<Point>), String> {
    let mut requests: Vec<(&str, Config)> = Vec::new();
    for b in programs::all().iter().filter(|b| b.name != "dedgc") {
        for scheme in ALL_SCHEMES {
            for checking in [CheckingMode::None, CheckingMode::Full] {
                requests.push((b.name, Config::new(scheme, checking)));
            }
        }
    }
    shuffle(&mut requests, &mut Pcg32::new(seed, 1));
    let records = tracer
        .span("session.measure_many", 0, Some(root), |_| {
            Session::new().measure_many(&requests)
        })
        .map_err(|e| e.to_string())?;
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    for (i, m) in records.iter().enumerate() {
        tracer
            .span("store.put", i as u64, Some(root), |_| {
                store.put(m, &Timing::default())
            })
            .map_err(|e| e.to_string())?;
    }
    let warm = records
        .iter()
        .take(WARM_REPLAYED)
        .map(|m| Point {
            body: format!(
                "{{\"experiments\":[{{\"program\":\"{}\",\"scheme\":\"{}\",\"checking\":\"{}\",\"hw\":\"plain\"}}]}}",
                m.program,
                m.config.scheme.name(),
                checking_name(m.config.checking)
            ),
            check: Check::Warm(Box::new(m.clone())),
        })
        .collect();
    Ok((records, warm))
}

fn checking_name(c: CheckingMode) -> &'static str {
    match c {
        CheckingMode::None => "none",
        CheckingMode::Full => "full",
    }
}

/// Start [`SETUP_BURST`] daemons, each on a fresh copy of the template
/// store, timing the store's open plus the daemon's start (its warm start
/// seeds every record, which is checked). Every daemon but the last is
/// stopped; the last is returned running.
fn setup_burst(
    ctx: &Ctx,
    template: &Path,
    burst: usize,
    records: usize,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> (Vec<f64>, Option<Server>) {
    let mut times = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_BURST {
        let dir = ctx.work_dir.join(format!("store-{burst}-{rep}"));
        if let Err(e) = copy_records(template, &dir) {
            notes.push(format!("copying the store failed: {e}"));
            tally.record(false);
            continue;
        }
        let t = Instant::now();
        let started = ResultStore::open(&dir).and_then(|store| {
            Server::start(
                "127.0.0.1:0",
                Some(Arc::new(store)),
                ServerConfig::default(),
            )
        });
        times.push(t.elapsed().as_secs_f64());
        match started {
            Ok((s, warm_start)) => {
                tally.record(warm_start.seeded == records);
                if let Some(previous) = server.replace(s) {
                    stop(previous);
                }
            }
            Err(e) => {
                notes.push(format!("daemon start failed: {e}"));
                tally.record(false);
            }
        }
    }
    (times, server)
}

/// Copy the record files of `from` into a fresh store directory `to`.
fn copy_records(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The cold stream: rounds that each hold every [`COLD_PROGRAMS`] program
/// once, plus [`INLINE_PER_ROUND`] inline sources under a seeded scheme,
/// checking mode and hardware level, shuffled within the round.
///
/// Each paper program cycles through the four checking × timing pairs
/// (from a seeded offset), so every four rounds carry the same mix of costs
/// whatever the seed; scheme and hardware level come from a seeded
/// permutation of their twelve pairs, advanced every four rounds, so no
/// point repeats within 48 rounds.
fn cold_stream(seed: u64, inline_sources: &[String]) -> Vec<Point> {
    const CHECKING_TIMING: [(CheckingMode, &str); 4] = [
        (CheckingMode::None, COLD_TIMING[0]),
        (CheckingMode::Full, COLD_TIMING[1]),
        (CheckingMode::None, COLD_TIMING[1]),
        (CheckingMode::Full, COLD_TIMING[0]),
    ];
    let mut rng = Pcg32::new(seed, 2);
    let scheme_hw: Vec<(TagScheme, &str)> = ALL_SCHEMES
        .into_iter()
        .flat_map(|s| COLD_HW.into_iter().map(move |h| (s, h)))
        .collect();
    let cold_programs: Vec<&'static programs::Benchmark> = COLD_PROGRAMS
        .iter()
        .map(|name| programs::by_name(name).expect("a paper program"))
        .collect();
    let per_program: Vec<(usize, Vec<usize>)> = cold_programs
        .iter()
        .map(|_| {
            let mut order: Vec<usize> = (0..scheme_hw.len()).collect();
            shuffle(&mut order, &mut rng);
            (rng.below(4) as usize, order)
        })
        .collect();
    let mut stream = Vec::new();
    for round in 0..ROUNDS {
        let mut items: Vec<Point> = cold_programs
            .iter()
            .zip(&per_program)
            .map(|(b, (offset, order))| {
                let (checking, timing) = CHECKING_TIMING[(round + offset) % 4];
                let (scheme, hw) = scheme_hw[order[round / 4 % order.len()]];
                Point {
                    body: format!(
                        "{{\"experiments\":[{{\"program\":\"{}\",\"scheme\":\"{}\",\"checking\":\"{}\",\"hw\":\"{hw}\",\"timing\":\"{timing}\"}}]}}",
                        b.name,
                        scheme.name(),
                        checking_name(checking)
                    ),
                    check: Check::Named {
                        program: b,
                        config: cold_config(scheme, checking, hw, timing),
                    },
                }
            })
            .collect();
        for k in 0..INLINE_PER_ROUND {
            let i = round * INLINE_PER_ROUND + k;
            let scheme = ALL_SCHEMES[rng.below(4) as usize];
            let checking = [CheckingMode::None, CheckingMode::Full][rng.below(2) as usize];
            let hw = COLD_HW[rng.below(3) as usize];
            items.push(Point {
                body: format!(
                    "{{\"experiments\":[{{\"source\":{},\"scheme\":\"{}\",\"checking\":\"{}\",\"hw\":\"{hw}\"}}]}}",
                    json_string(&inline_sources[i]),
                    scheme.name(),
                    checking_name(checking)
                ),
                check: Check::Inline(i),
            });
        }
        shuffle(&mut items, &mut rng);
        stream.extend(items);
    }
    stream
}

fn cold_config(scheme: TagScheme, checking: CheckingMode, hw: &str, timing: &str) -> Config {
    let hw = match hw {
        "plain" => mipsx::HwConfig::plain(),
        "tagbr" => mipsx::HwConfig::with_tag_branch(),
        _ => mipsx::HwConfig::maximal(scheme.tag_bits()),
    };
    let timing = mipsx::TimingConfig::preset(timing).expect("a timing preset name");
    Config::new(scheme, checking)
        .with_hw(hw)
        .with_timing(timing)
}

fn shuffle<T>(items: &mut [T], rng: &mut Pcg32) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u32 + 1) as usize);
    }
}

fn stop(server: Server) {
    server.handle().shutdown();
    server.join();
}

/// What one client did in the window.
#[derive(Default)]
struct ClientRun {
    tally: Tally,
    samples: Vec<Sample>,
    /// Bodies actually sent, by point index (the protocol parser replays them).
    sent: Vec<usize>,
    /// Inline results, by source index, for the evaluator check.
    inline_results: Vec<(usize, Measurement)>,
    /// Named cold results, by point index (the timing replay cross-checks).
    named_results: HashMap<usize, Measurement>,
}

/// A closed-loop client: send `points` in order (wrapping), each after the
/// previous answer — and, given a `think` generator, after a think time
/// drawn from it — until `deadline`; check every answer. Request `n` is
/// operation `op_base + n`. With `planted`, the first warm answer gets its
/// first byte flipped before it is checked and kept as the reference, so it
/// and every later answer for that point must be counted as wrong.
#[allow(clippy::too_many_arguments)]
fn client(
    tracer: &Tracer,
    name: &'static str,
    op_base: u64,
    addr: &str,
    points: &[Point],
    origin: Instant,
    deadline: Instant,
    mut think: Option<Pcg32>,
    planted: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut first: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut n = 0usize;
    while Instant::now() < deadline {
        let index = n % points.len();
        let point = &points[index];
        let op = op_base + n as u64;
        n += 1;
        let start = Instant::now();
        let ok = tracer.span(name, op, None, |root| {
            let answer = tracer.span("serve.http", op, Some(root), |_| {
                fetch(
                    addr,
                    "POST",
                    "/v1/experiments",
                    point.body.as_bytes(),
                    TIMEOUT,
                )
            });
            let Ok((200, mut body)) = answer else {
                return false;
            };
            match &point.check {
                Check::Warm(expected) => match first.get(&index) {
                    Some(reference) => *reference == body,
                    None => {
                        if planted && first.is_empty() {
                            body[0] ^= 1;
                        }
                        let ok = decode(tracer, op, root, &body).is_some_and(|m| {
                            m.stats.cycles == expected.stats.cycles && m.output == expected.output
                        });
                        first.insert(index, body);
                        ok
                    }
                },
                Check::Named { program, .. } => decode(tracer, op, root, &body).is_some_and(|m| {
                    let ok = m.halt_code == lisp::exit_code::OK
                        && m.output == program.expected_output
                        && m.stats.timing.is_some();
                    run.named_results.insert(index, m);
                    ok
                }),
                Check::Inline(i) => decode(tracer, op, root, &body).is_some_and(|m| {
                    run.inline_results.push((*i, m));
                    true
                }),
            }
        });
        let end = Instant::now();
        run.tally.record(ok);
        run.sent.push(index);
        run.samples.push(Sample {
            start_ns: start.duration_since(origin).as_nanos() as u64,
            end_ns: end.duration_since(origin).as_nanos() as u64,
        });
        if let Some(rng) = &mut think {
            let us = u64::from(rng.below(THINK_SPAN_US));
            let think = THINK_MIN + Duration::from_micros(us);
            std::thread::sleep(think);
        }
    }
    run
}

/// Decode a one-result answer (a `serve.proto.results` span).
fn decode(tracer: &Tracer, op: u64, root: u64, body: &[u8]) -> Option<Measurement> {
    tracer.span("serve.proto.results", op, Some(root), |_| {
        let text = std::str::from_utf8(body).ok()?;
        let mut results = proto::parse_results(text).ok()?;
        (results.len() == 1).then(|| results.remove(0).2)
    })
}

/// Warm and cold latency tails over the window (by the ten-beyond rule),
/// and the warm requests that overlapped a cold one (as the client saw it)
/// against those that ran alone — in the window's gaps or in the warm-only
/// phase after it (`warm_alone`). Also returns a note per sample set naming
/// the percentile each tail was taken at.
fn latency_metrics(
    warm: &[Sample],
    warm_alone: &[Sample],
    cold: &[Sample],
) -> (Vec<Metric>, Vec<String>) {
    let ms = |s: &[&Sample]| s.iter().map(|s| s.ms()).collect::<Vec<f64>>();
    let overlaps_cold = |w: &&Sample| {
        cold.iter()
            .any(|c| c.start_ns < w.end_ns && w.start_ns < c.end_ns)
    };
    let (behind, mut alone): (Vec<&Sample>, Vec<&Sample>) = warm.iter().partition(overlaps_cold);
    let behind_share = behind.len() as f64 / warm.len() as f64;
    alone.extend(warm_alone);
    let all_warm = ms(&warm.iter().collect::<Vec<_>>());
    let all_cold = ms(&cold.iter().collect::<Vec<_>>());
    let (behind, alone) = (ms(&behind), ms(&alone));
    let notes = vec![
        describe("warm behind cold", &behind),
        describe("warm alone", &alone),
    ];
    let metrics = vec![
        metric("serve.warm_tail_ms", tail(&all_warm), "ms"),
        metric("serve.cold_p50_ms", median(&all_cold), "ms"),
        metric("serve.cold_tail_ms", tail(&all_cold), "ms"),
        metric("serve.warm_samples", warm.len() as f64, "count"),
        metric("serve.cold_samples", cold.len() as f64, "count"),
        metric("serve.warm_alone_tail_ms", tail(&alone), "ms"),
        metric("serve.warm_behind_cold_tail_ms", tail(&behind), "ms"),
        metric("serve.warm_behind_cold_share", behind_share, "share"),
    ];
    (metrics, notes)
}

/// The traced run's direct layer timings, after the window: store get and
/// load on the same records, the protocol parser on every body sent, and
/// the first cold paper points replayed with and without their timing
/// model (cross-checked against the daemon's answers).
fn traced_metrics(
    ctx: &Ctx,
    records: &[Measurement],
    warm: &[Point],
    cold: &[Point],
    cold_run: &ClientRun,
    template: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let tracer = &*ctx.tracer;
    let probe_dir: PathBuf = ctx.work_dir.join("probe");
    let probe = copy_records(template, &probe_dir).and_then(|()| ResultStore::open(&probe_dir));
    match &probe {
        Ok(store) => tracer.span("store.probe", 4_000_000, None, |root| {
            for _ in 0..SETUP_BURST {
                let loaded = tracer.span("store.load", 4_000_000, Some(root), |_| {
                    store.load_current()
                });
                tally.record(loaded.len() == records.len());
            }
            for (i, m) in records.iter().enumerate() {
                let key = ResultStore::key_of(m).expect("records are paper programs");
                let got = tracer.span("store.get", 4_000_001 + i as u64, Some(root), |_| {
                    store.get(&key)
                });
                tally.record(got.is_some_and(|(g, _)| g.stats.cycles == m.stats.cycles));
            }
        }),
        Err(_) => tally.record(false),
    }

    // The protocol parser on every distinct body the clients sent.
    let mut bodies: Vec<&str> = warm.iter().map(|p| p.body.as_str()).collect();
    bodies.extend(cold_run.sent.iter().map(|&i| cold[i].body.as_str()));
    tracer.span("proto.probe", 5_000_000, None, |root| {
        for body in &bodies {
            let parsed = tracer.span("serve.proto.parse", 5_000_000, Some(root), |_| {
                proto::parse_batch(body.as_bytes())
            });
            tally.record(parsed.is_ok_and(|specs| specs.len() == 1));
        }
    });

    // The first cold paper points, untimed then timed.
    let mut cycles = 0;
    let mut stalls = 0;
    let named = cold.iter().enumerate().filter_map(|(i, p)| match &p.check {
        Check::Named { program, config } => Some((i, *program, *config)),
        _ => None,
    });
    for (i, program, config) in named.take(TIMING_REPLAYS) {
        let op = 6_000_000 + i as u64;
        let replayed = tracer.span("replay.point", op, None, |root| {
            let opts = lisp::Options {
                heap_semi_bytes: program.heap_semi_bytes,
                ..config.to_options()
            };
            let compiled = layers::compile(tracer, op, root, program.source, &opts)?;
            let plain = layers::execute(tracer, op, root, &compiled, programs::FUEL)?;
            let (timed, stats) =
                layers::timed_run(tracer, op, root, &compiled, config.timing, programs::FUEL)?;
            if timed.stats.cycles != plain.stats.cycles || plain.output != program.expected_output {
                return Err("timed and untimed runs disagree".to_string());
            }
            Ok((plain.stats.cycles, stats.total_stalls()))
        });
        let served = cold_run.named_results.get(&i);
        let ok = replayed.as_ref().is_ok_and(|(c, s)| {
            served.is_none_or(|m| {
                m.stats.cycles == *c && m.stats.timing.map(|t| t.total_stalls()) == Some(*s)
            })
        });
        tally.record(ok);
        if let Ok((c, s)) = replayed {
            cycles += c;
            stalls += s;
        }
    }

    let ledger = Ledger::build(&tracer.spans());
    let us = |name| ledger.layer(name).mean_self_ms() * 1e3;
    let untimed = ledger.layer(layers::PREDECODE).mean_self_ms()
        + ledger.layer(layers::EXECUTE).mean_self_ms();
    let mut m = layers::metrics(&ledger, cycles, cycles);
    m.extend([
        metric(
            "mipsx.timing.ms",
            ledger.layer(layers::TIMED_RUN).mean_self_ms() - untimed,
            "ms",
        ),
        metric("mipsx.timing.stall_cycles", stalls as f64, "count"),
        metric(
            "synth.gen.ms",
            ledger.layer("synth.gen").mean_self_ms(),
            "ms",
        ),
        metric("store.put_us", us("store.put"), "us"),
        metric("store.get_us", us("store.get"), "us"),
        metric(
            "store.load_ms",
            ledger.layer("store.load").mean_self_ms(),
            "ms",
        ),
        metric("serve.proto.parse_us", us("serve.proto.parse"), "us"),
        metric(
            "trace.overhead_share",
            recording_overhead(&ledger, tracer),
            "share",
        ),
    ]);
    m
}

/// Tracing overhead of the window, where traced and untraced requests
/// cannot be paired: the measured cost of recording one span times the
/// spans recorded around requests, over the requests' traced time.
fn recording_overhead(ledger: &Ledger, tracer: &Tracer) -> f64 {
    const CALIBRATION: u64 = 20_000;
    let scratch = Tracer::new();
    let t = Instant::now();
    for i in 0..CALIBRATION {
        scratch.span("calibration", i, None, |_| ());
    }
    let per_span = t.elapsed().as_secs_f64() / CALIBRATION as f64;
    let requests = tracer.spans().iter().filter(|s| s.op >= 1 << 40).count();
    let traced: f64 = ["request.warm", "request.cold"]
        .iter()
        .filter_map(|n| ledger.roots.get(n))
        .map(|r| r.total_ns as f64 / 1e9)
        .sum();
    if traced == 0.0 {
        0.0
    } else {
        requests as f64 * per_span / traced
    }
}
