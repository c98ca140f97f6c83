//! Regression tests for the `/metrics` latency-quantile gauges: a histogram
//! with zero observations must contribute *no*
//! `daemon_request_latency_quantile_seconds` series — not a `NaN`, not a
//! zero, not a bucket-bound artifact.

use std::time::Duration;

use serve::daemon_metrics::{LATENCY_QUANTILE, REQUEST_DURATION};
use serve::{http, latency_quantile_gauges, Server, ServerConfig};
use tagstudy::metrics::{labeled, Histogram, REQUEST_BUCKETS};
use tagstudy::MetricsRegistry;

const TIMEOUT: Duration = Duration::from_secs(600);

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, bytes) = http::fetch(addr, "GET", path, b"", TIMEOUT).unwrap();
    (status, String::from_utf8(bytes).expect("UTF-8 response"))
}

/// A fresh daemon has served nothing, so the first scrape must carry zero
/// quantile gauges; once that scrape itself has been observed, the second
/// scrape grows exactly the `GET /metrics` series — finite and positive.
#[test]
fn fresh_daemon_emits_no_quantile_gauges() {
    let (server, _warm) =
        Server::start("127.0.0.1:0", None, ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let (status, first) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        !first.contains(LATENCY_QUANTILE),
        "zero-observation daemon must omit quantile gauges:\n{first}"
    );

    let (status, second) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let mut seen = 0;
    for line in second.lines() {
        let Some(rest) = line.strip_prefix(LATENCY_QUANTILE) else {
            continue;
        };
        let (labels, value) = rest.rsplit_once(' ').expect("gauge line");
        assert!(labels.contains("endpoint=\"GET /metrics\""), "{line}");
        let value: f64 = value.parse().expect("numeric gauge");
        assert!(value.is_finite() && value > 0.0, "{line}");
        seen += 1;
    }
    assert_eq!(seen, 3, "one gauge per quantile:\n{second}");

    let (status, _) = http::fetch(&addr, "POST", "/v1/shutdown", b"", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    server.join();
}

/// The scrape-time estimator skips request-duration histograms with no
/// observations, including the degenerate restored-snapshot shape where
/// `count` claims observations but every bucket is zero.
#[test]
fn empty_histograms_are_omitted() {
    let key = labeled(REQUEST_DURATION, &[("endpoint", "POST /v1/experiments")]);

    // A restored snapshot whose histogram claims one observation but holds
    // zeroed buckets — every count field is schema-valid, so `from_json`
    // accepts it, and the estimator must still refuse to invent a latency.
    let buckets = REQUEST_BUCKETS
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let counts = vec!["0"; REQUEST_BUCKETS.len() + 1].join(",");
    let snapshot = format!(
        "{{\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{{}:{{\"buckets\":[{buckets}],\
         \"counts\":[{counts}],\"sum\":0.5,\"count\":1}}}},\"events_dropped\":0,\"events\":[]}}",
        serve_key_json(&key)
    );
    let restored = MetricsRegistry::from_json(&snapshot).expect("parses");
    let hist = restored.histogram(&key).expect("histogram survives");
    assert_eq!(hist.count, 1, "test setup: inconsistent snapshot");
    assert!(hist.counts.iter().all(|c| *c == 0), "test setup");
    assert_eq!(
        latency_quantile_gauges(&restored),
        vec![],
        "zeroed buckets must yield no gauges"
    );

    // The healthy shape still produces all three quantiles.
    let mut m = MetricsRegistry::new();
    m.observe(&key, REQUEST_BUCKETS, 0.25);
    let gauges = latency_quantile_gauges(&m);
    assert_eq!(gauges.len(), 3);
    for (name, value) in &gauges {
        assert!(name.starts_with(LATENCY_QUANTILE), "{name}");
        assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
    }
}

/// JSON string literal for a histogram key (the key itself contains quotes).
fn serve_key_json(key: &str) -> String {
    format!("\"{}\"", key.replace('"', "\\\""))
}

/// `Histogram::quantile` itself refuses to fabricate an estimate from empty
/// buckets — the property the gauge omission rests on.
#[test]
fn quantile_of_empty_buckets_is_none() {
    let mut h = Histogram::new(REQUEST_BUCKETS);
    assert_eq!(h.quantile(0.5), None, "never observed");

    // Inconsistent: count claims observations, buckets hold none. Before the
    // fix this returned the largest finite bound — dashboard poison.
    h.count = 7;
    h.sum = 1.0;
    assert_eq!(h.quantile(0.5), None, "count/bucket mismatch");

    h.observe(0.1);
    assert!(h.quantile(0.5).is_some());
}
