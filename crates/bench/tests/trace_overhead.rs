//! Zero-overhead proof for the tracing spine, mirroring the profiler's
//! (`tests/profiler.rs`): a Session measuring inside an entered trace
//! context (a live `Tracer`) produces `Stats` — and a full `all_experiments`
//! report — byte-identical to an untraced run. Spans only read the host's
//! clock around the compiler and the simulator, never inside a simulated
//! run; if recording ever perturbed a measurement, the paper's numbers could
//! not be trusted with tracing enabled, and `tagstudyd` (which always
//! traces) would publish different results than the offline binaries.

use std::time::Duration;

use tagstudy::trace::{TraceContext, Tracer};
use tagstudy::{report, CheckingMode, Config, Session};

/// A recorder that keeps everything and slow-logs everything — the most
/// observation the tracing spine can do.
fn eager_tracer() -> Tracer {
    Tracer::new(64, Duration::from_micros(0))
}

/// Every benchmark measures identically inside a trace context, and the
/// recorder provably observed each run.
#[test]
fn tracing_never_changes_stats() {
    let untraced = Session::serial();
    let tracer = eager_tracer();
    let traced = Session::serial();
    let config = Config::baseline(CheckingMode::Full);
    for b in programs::all() {
        // The cached path (not `measure_uncached`) is the one the daemon
        // traces: it records the measure/compile/simulate spans. Fresh
        // sessions per run would be slower; distinct sessions per arm keep
        // both arms on cache misses for the same (program, config) points.
        let plain = untraced
            .measure(b.name, config)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let ctx = TraceContext::fresh();
        let observed = {
            let _entered = tracer.enter(ctx);
            traced
                .measure(b.name, config)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name))
        };
        assert_eq!(
            plain.stats, observed.stats,
            "{}: tracing must be invisible to the measurement",
            b.name
        );
        assert_eq!(plain.output, observed.output, "{}", b.name);
        assert_eq!(plain.halt_code, observed.halt_code, "{}", b.name);
        // The observer was really watching: sealing the trace finds spans.
        assert!(
            tracer.finish(ctx.trace, ctx.parent).is_some(),
            "{}: the traced run recorded no spans — the proof proved nothing",
            b.name
        );
    }
}

/// The `all_experiments` report bytes are identical with the flight recorder
/// attached — the whole study, tables and figures, unperturbed by tracing.
/// (A two-program subset keeps this affordable; the per-benchmark test above
/// covers every program's raw stats.) The report runs inside the context,
/// so every measurement it makes is a traced one.
#[test]
fn full_report_is_byte_identical_with_recorder_attached() {
    let names = ["frl", "trav"];

    let mut untraced = Session::serial();
    let plain = report::full_report(&mut untraced, &names).expect("untraced report");

    let tracer = eager_tracer();
    let mut traced = Session::serial();
    let ctx = TraceContext::fresh();
    let observed = {
        let _entered = tracer.enter(ctx);
        report::full_report(&mut traced, &names).expect("traced report")
    };
    assert_eq!(traced.stats().misses, untraced.stats().misses);

    assert!(
        tracer.finish(ctx.trace, ctx.parent).is_some(),
        "the traced report recorded no spans"
    );
    assert_eq!(
        plain, observed,
        "report bytes must not depend on the recorder"
    );
}
