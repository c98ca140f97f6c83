//! `fuzz_oracle`: a seeded stream of `synth` programs spread over the
//! list → arith op-mix axis, each checked by the differential oracle
//! (`synth::oracle`: the reference evaluator plus all 24 scheme × checking ×
//! hardware configurations on the default backend, census reconciliation
//! included), on as many threads as the machine has cores.
//!
//! The traced run checks each program twice: once through
//! `synth::oracle::check_rendered` as the untraced run does, and once
//! decomposed into the same public calls with a span around each, so the
//! two timings pair up program by program for the overhead figure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use synth::oracle::{self, SIM_FUEL};
use synth::OpMix;

use crate::layers;
use crate::summary::{describe, median, metric, setup_seconds, Tally};
use crate::trace::{Ledger, Tracer};
use crate::{Ctx, RunOutput};

/// Programs generated per set-up; the stream wraps around if a run checks
/// more.
const PROGRAMS: usize = 512;

/// Points on the list → arith axis the stream cycles through.
const AXIS_POINTS: usize = 8;

/// Set-ups per burst. One burst runs before the window and one after;
/// `setup_s` is the mean of the bursts' medians.
const SETUP_BURST: usize = 3;

/// The traced run checks at least this many programs, and reports the
/// simulated cycles of exactly these (so the count repeats for a seed).
const CYCLE_PREFIX: usize = 8;

/// The generator seed of program `i` of the stream for `seed` (SplitMix64).
pub fn program_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Render `count` programs of the stream for `seed`, program `i` at axis
/// point `i mod 8`, each generated inside a `synth.gen` span under `root`.
pub fn generate(tracer: &Tracer, root: u64, seed: u64, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let t = (i % AXIS_POINTS) as f64 / (AXIS_POINTS - 1) as f64;
            let mix = OpMix::lerp(&OpMix::list_heavy(), &OpMix::arith_heavy(), t);
            tracer.span("synth.gen", i as u64, Some(root), |_| {
                synth::render(&synth::generate(program_seed(seed, i as u64), &mix))
            })
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> RunOutput {
    let tracer = &*ctx.tracer;
    let (before, sources) = setup_burst(ctx);

    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let shared = Mutex::new(Shared::default());
    std::thread::scope(|scope| {
        for _ in 0..ctx.workers {
            scope.spawn(|| loop {
                let claimed = next.load(Ordering::Relaxed);
                if start.elapsed() >= ctx.window && (!tracer.enabled() || claimed >= CYCLE_PREFIX) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let source = &sources[i % sources.len()];
                let fault = ctx.plant_fault && i == 0;
                let t = Instant::now();
                let ok = if fault {
                    check_with_wrong_expectation(source)
                } else {
                    oracle::check_rendered(source).is_ok()
                };
                let secs = t.elapsed().as_secs_f64();
                let traced = tracer.enabled().then(|| {
                    let t = Instant::now();
                    let (ok, cycles) = check_traced(tracer, i as u64, source);
                    (ok, cycles, t.elapsed().as_secs_f64())
                });
                let done = start.elapsed().as_secs_f64();
                let mut s = shared.lock().expect("fuzz results lock");
                s.tally.record(ok);
                s.latency.push(secs);
                s.elapsed = s.elapsed.max(done);
                if let Some((ok, cycles, traced_secs)) = traced {
                    s.tally.record(ok);
                    s.traced.push(traced_secs);
                    s.cycles_all += cycles;
                    if i < CYCLE_PREFIX {
                        s.cycles_prefix += cycles;
                    }
                }
            });
        }
    });
    let s = shared.into_inner().expect("fuzz results lock");
    let stream_len = sources.len();
    drop(sources);
    let setup = [before, setup_burst(ctx).0];
    let latency_ms: Vec<f64> = s.latency.iter().map(|v| v * 1e3).collect();
    let notes = vec![
        format!(
            "programs checked: {} on {} threads in {:.3} s (stream of {} over {AXIS_POINTS} axis points)",
            s.latency.len(),
            ctx.workers,
            s.elapsed,
            stream_len
        ),
        describe("per-program check latency", &latency_ms),
    ];

    let metrics = if tracer.enabled() {
        let ledger = Ledger::build(&tracer.spans());
        let mut m = layers::metrics(&ledger, s.cycles_prefix, s.cycles_all);
        let gen = ledger.layer("synth.gen");
        m.push(metric("synth.gen.ms", gen.mean_self_ms(), "ms"));
        // The decomposed check also calls the front end and the verifier on
        // their own (see `layers::compile`); that extra work is not tracing
        // overhead, so its self time leaves the traced total first.
        let extra_s = (ledger.layer(layers::FRONT).self_ns + ledger.layer(layers::VERIFY).self_ns)
            as f64
            / 1e9;
        m.push(metric(
            "trace.overhead_share",
            (s.traced.iter().sum::<f64>() - extra_s) / s.latency.iter().sum::<f64>() - 1.0,
            "share",
        ));
        m
    } else {
        vec![
            metric("setup_s", setup_seconds(&setup), "s"),
            metric("latency_p50_ms", median(&latency_ms), "ms"),
            metric(
                "throughput_per_s",
                s.latency.len() as f64 / s.elapsed,
                "1/s",
            ),
        ]
    };
    RunOutput {
        tally: s.tally,
        metrics,
        notes,
    }
}

/// Generate the stream [`SETUP_BURST`] times; the set-up times and the
/// stream.
fn setup_burst(ctx: &Ctx) -> (Vec<f64>, Vec<String>) {
    let tracer = &*ctx.tracer;
    let mut times = Vec::new();
    let mut sources = Vec::new();
    for _ in 0..SETUP_BURST {
        drop(std::mem::take(&mut sources));
        let t = Instant::now();
        sources = tracer.span("setup", u64::MAX, None, |root| {
            generate(tracer, root, ctx.seed, PROGRAMS)
        });
        times.push(t.elapsed().as_secs_f64());
    }
    (times, sources)
}

#[derive(Default)]
struct Shared {
    tally: Tally,
    latency: Vec<f64>,
    traced: Vec<f64>,
    elapsed: f64,
    cycles_prefix: u64,
    cycles_all: u64,
}

/// The planted fault: check every configuration against a reference result
/// whose output has been altered, which the oracle must reject.
fn check_with_wrong_expectation(source: &str) -> bool {
    let Ok(mut expected) = oracle::reference(source) else {
        return false;
    };
    expected.output.push('#');
    oracle::oracle_configs()
        .iter()
        .all(|config| oracle::check_config(source, &expected, config).is_ok())
}

/// The oracle's check, decomposed into its public calls with a span around
/// each layer: the reference evaluation, then for every configuration the
/// compile (front end, whole compile, verifier), predecode and execute,
/// followed by result comparison and census reconciliation. Returns whether
/// every configuration agreed, and the simulated cycles.
fn check_traced(tracer: &Tracer, op: u64, source: &str) -> (bool, u64) {
    tracer.span("program", op, None, |root| {
        let Ok(expected) = tracer.span(layers::EVAL, op, Some(root), |_| oracle::reference(source))
        else {
            return (false, 0);
        };
        let mut cycles = 0;
        let mut ok = true;
        for config in oracle::oracle_configs() {
            let outcome = layers::compile(tracer, op, root, source, &config.to_options())
                .and_then(|c| layers::execute(tracer, op, root, &c, SIM_FUEL));
            let Ok(outcome) = outcome else {
                ok = false;
                continue;
            };
            cycles += outcome.stats.cycles;
            ok &= outcome.halt_code == expected.halt_code
                && outcome.output == expected.output
                && oracle::reconcile(&expected.census, &outcome.stats, &config).is_ok();
        }
        (ok, cycles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_fixed_by_the_seed() {
        let t = Tracer::disabled();
        assert_eq!(generate(&t, 0, 5, 3), generate(&t, 0, 5, 3));
        assert_ne!(generate(&t, 0, 5, 3), generate(&t, 0, 6, 3));
        assert_ne!(program_seed(1, 0), program_seed(1, 1));
    }

    #[test]
    fn a_planted_wrong_expectation_fails_the_check() {
        let source = &generate(&Tracer::disabled(), 0, 1, 1)[0];
        assert!(oracle::check_rendered(source).is_ok());
        assert!(!check_with_wrong_expectation(source));
    }

    #[test]
    fn the_decomposed_check_agrees_with_the_oracle() {
        let t = Tracer::new();
        let source = &generate(&t, 0, 2, 1)[0];
        let (ok, cycles) = check_traced(&t, 0, source);
        assert!(ok && cycles > 0);
        let ledger = Ledger::build(&t.spans());
        assert_eq!(ledger.layer(layers::EXECUTE).calls, 24);
        assert_eq!(ledger.layer(layers::EVAL).calls, 1);
    }
}
