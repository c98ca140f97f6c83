//! Integration tests for the Session metrics/event layer: a live session's
//! JSON export round-trips exactly, the schema holds the shape CI relies on,
//! and the Prometheus rendering exposes the same counters.

use tagstudy::{CheckingMode, Config, Json, MetricsRegistry, Session};

fn warmed_session() -> Session {
    let s = Session::serial();
    let none = Config::baseline(CheckingMode::None);
    let full = Config::baseline(CheckingMode::Full);
    s.measure_many(&[("frl", none), ("frl", none), ("frl", full)])
        .expect("frl measures");
    s.measure("frl", none).expect("warm hit");
    s
}

/// JSON export → parse → equal registry, against real session data.
#[test]
fn session_metrics_round_trip_exactly() {
    let s = warmed_session();
    let snapshot = s.metrics();
    let json = s.metrics_json();
    let parsed = MetricsRegistry::from_json(&json).expect("export parses");
    assert_eq!(parsed, snapshot, "JSON round-trip must be lossless");
    assert_eq!(parsed.to_json(), json, "canonical re-serialization");
}

/// The schema sanity check CI runs: required sections, required metrics, and
/// internally consistent histograms.
#[test]
fn session_metrics_schema_is_sane() {
    use tagstudy::metrics::names;

    let s = warmed_session();
    let json = s.metrics_json();
    let root = Json::parse(&json).expect("valid JSON");
    let obj = root.as_object("top level").unwrap();
    for section in ["counters", "gauges", "histograms", "events"] {
        assert!(
            obj.iter().any(|(k, _)| k == section),
            "missing section {section:?}"
        );
    }

    let m = s.metrics();
    // 2 misses (frl/None, frl/Full), 2 hits (in-batch dup + warm re-request).
    assert_eq!(m.counter(names::CACHE_MISSES), 2);
    assert_eq!(m.counter(names::CACHE_HITS), 2);
    assert_eq!(m.counter(names::REQUESTS), 4);
    assert_eq!(m.counter(names::FAILURES), 0);
    assert_eq!(m.gauge(names::WORKERS_CONFIGURED), Some(1.0));
    assert_eq!(m.gauge(names::CACHED_MEASUREMENTS), Some(2.0));
    assert_eq!(m.gauge(names::POOL_PEAK_OCCUPANCY), Some(1.0));

    for name in [names::COMPILE_SECONDS, names::SIMULATE_SECONDS] {
        let h = m
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(h.count, 2, "{name}: one observation per measurement");
        assert_eq!(h.counts.len(), h.buckets.len() + 1, "{name}");
        assert_eq!(h.counts.iter().sum::<u64>(), h.count, "{name}");
        assert!(h.sum > 0.0, "{name}: wall time was spent");
        assert!(
            h.buckets.windows(2).all(|w| w[0] < w[1]),
            "{name}: bucket bounds ascend"
        );
    }

    // The event log tells the same story, in order: every request produced
    // exactly one lifecycle event plus one finish per actual measurement.
    let events = m.events();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.name == "measure_started")
            .count(),
        2
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| e.name == "measure_finished")
            .count(),
        2
    );
    assert_eq!(events.iter().filter(|e| e.name == "cache_hit").count(), 2);
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "seq numbers are contiguous");
        assert!(
            e.labels.iter().any(|(k, _)| k == "program"),
            "{}: every lifecycle event names its program",
            e.name
        );
    }
}

/// A failing measurement is visible in the registry: failure counter, a
/// `measure_failed` event carrying the error text.
#[test]
fn failures_are_recorded() {
    let s = Session::serial();
    let cfg = Config::baseline(CheckingMode::None);
    s.measure_many(&[("no-such-benchmark", cfg), ("frl", cfg)])
        .expect_err("unknown benchmark fails the batch");
    let m = s.metrics();
    assert_eq!(m.counter("session_failures_total"), 1);
    let failed: Vec<_> = m
        .events()
        .iter()
        .filter(|e| e.name == "measure_failed")
        .collect();
    assert_eq!(failed.len(), 1);
    assert!(
        failed[0]
            .labels
            .iter()
            .any(|(k, v)| k == "error" && v.contains("no-such-benchmark")),
        "the event carries the error: {:?}",
        failed[0]
    );
    // Registries with failure events still round-trip.
    let parsed = MetricsRegistry::from_json(&s.metrics_json()).expect("parses");
    assert_eq!(parsed, m);
}

/// Prometheus text exposes the same counters the JSON does.
#[test]
fn prometheus_matches_json_counters() {
    let s = warmed_session();
    let prom = s.metrics_prometheus();
    let m = s.metrics();
    for name in [
        "session_requests_total",
        "session_cache_hits_total",
        "session_cache_misses_total",
    ] {
        let line = format!("{name} {}", m.counter(name));
        assert!(prom.contains(&line), "{line:?} not in:\n{prom}");
    }
    assert!(prom.contains("# TYPE session_compile_seconds histogram"));
    assert!(prom.contains("session_compile_seconds_bucket{le=\"+Inf\"} 2"));
}
