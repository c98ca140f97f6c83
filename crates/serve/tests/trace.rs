//! End-to-end tracing tests: a client-originated trace id shows up on
//! daemon, session, and store spans of the same request; warm restarts trace
//! store reads instead of simulations; malformed `traceparent` headers never
//! fail a request; and the flight recorder speaks valid Chrome trace-event
//! JSON.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serve::{http, Server, ServerConfig};
use store::ResultStore;
use tagstudy::trace::{RecorderSnapshot, TraceContext, TraceRecord, TRACEPARENT_HEADER};
use tagstudy::Json;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
const TIMEOUT: Duration = Duration::from_secs(600);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "tagstudyd-trace-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn start(dir: &PathBuf) -> (Server, serve::WarmStart, String) {
    let store = Arc::new(ResultStore::open(dir).expect("open store"));
    let (server, warm) =
        Server::start("127.0.0.1:0", Some(store), ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    (server, warm, addr)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, bytes) = http::fetch(addr, "GET", path, b"", TIMEOUT).unwrap();
    (status, String::from_utf8(bytes).expect("UTF-8 response"))
}

fn shutdown(addr: &str, server: Server) {
    let (status, _) = http::fetch(addr, "POST", "/v1/shutdown", b"", TIMEOUT).unwrap();
    assert_eq!(status, 200);
    server.join();
}

/// Submit `body` with an originating trace context, like `tagctl submit`.
fn post_traced(addr: &str, body: &str, ctx: TraceContext) -> (u16, String) {
    let (status, bytes) = http::fetch_headers(
        addr,
        "POST",
        "/v1/experiments",
        body.as_bytes(),
        TIMEOUT,
        &[(TRACEPARENT_HEADER, &ctx.to_traceparent())],
    )
    .unwrap();
    (status, String::from_utf8(bytes).expect("UTF-8 response"))
}

fn snapshot(addr: &str) -> RecorderSnapshot {
    let (status, text) = get(addr, "/v1/debug/trace");
    assert_eq!(status, 200, "{text}");
    RecorderSnapshot::from_json(&text).expect("snapshot parses")
}

fn span_names(record: &TraceRecord) -> Vec<&str> {
    record.spans.iter().map(|s| s.name.as_str()).collect()
}

const BATCH: &str = r#"{"experiments": ["frl:high5:none:plain"]}"#;

/// One request, traced end-to-end: the client's trace id is on the daemon's
/// request span, the session's measure/compile/simulate spans, and the
/// store's write span — one shared id across every layer. The trace is also
/// addressable by id, and `/metrics` reports per-endpoint latency quantiles.
#[test]
fn client_trace_id_spans_daemon_session_and_store() {
    let scratch = Scratch::new("e2e");
    let (server, _, addr) = start(&scratch.0);

    let ctx = TraceContext::fresh();
    let (status, body) = post_traced(&addr, BATCH, ctx);
    assert_eq!(status, 200, "{body}");

    // The completed trace carries the client's id.
    let snap = snapshot(&addr);
    let record = snap
        .recent
        .iter()
        .find(|t| t.trace == ctx.trace)
        .unwrap_or_else(|| panic!("client trace {} not recorded", ctx.trace));

    // Every layer contributed spans, all under the one trace id (they are in
    // this record *because* they share it).
    let names = span_names(record);
    for expected in [
        "POST /v1/experiments", // daemon request root
        "queue_wait",           // accept-queue wait
        "session.batch",        // dedup + fan-out envelope
        "measure",              // session wall-time split...
        "compile",
        "simulate",
        "store.write", // write-through I/O
    ] {
        assert!(
            names.contains(&expected),
            "missing {expected:?} in {names:?}"
        );
    }
    let root = record
        .spans
        .iter()
        .find(|s| s.name == "POST /v1/experiments")
        .expect("request root span");
    assert_eq!(root.component, "daemon");
    assert_eq!(
        root.parent,
        Some(ctx.parent),
        "request root parents under the client's span"
    );
    assert!(
        root.labels
            .contains(&("status".to_string(), "200".to_string())),
        "{:?}",
        root.labels
    );
    let store_write = record
        .spans
        .iter()
        .find(|s| s.name == "store.write")
        .expect("store span");
    assert_eq!(store_write.component, "store");

    // The same trace is addressable by id; an unknown id is 404, a malformed
    // one 400.
    let (status, text) = get(&addr, &format!("/v1/debug/trace/{}", ctx.trace));
    assert_eq!(status, 200, "{text}");
    let by_id = TraceRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(by_id.trace, ctx.trace);
    assert_eq!(by_id.spans.len(), record.spans.len());
    let (status, _) = get(&addr, "/v1/debug/trace/ffffffffffffffffffffffffffffffff");
    assert_eq!(status, 404);
    let (status, _) = get(&addr, "/v1/debug/trace/nothex");
    assert_eq!(status, 400);

    // Per-endpoint latency histogram + quantile gauges on /metrics.
    let (_, metrics) = get(&addr, "/metrics");
    let count_line = "daemon_request_duration_seconds_count{endpoint=\"POST /v1/experiments\"} ";
    let count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix(count_line))
        .unwrap_or_else(|| panic!("no request-duration series:\n{metrics}"))
        .parse()
        .unwrap();
    assert!(count >= 1);
    for quantile in ["0.5", "0.99"] {
        let line = format!(
            "daemon_request_latency_quantile_seconds\
             {{endpoint=\"POST /v1/experiments\",quantile=\"{quantile}\"}} "
        );
        let value: f64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(line.as_str()))
            .unwrap_or_else(|| panic!("no p{quantile} gauge:\n{metrics}"))
            .parse()
            .unwrap();
        assert!(value > 0.0, "p{quantile} is zero");
    }

    shutdown(&addr, server);
}

/// A cold request's trace shows compilation and simulation; after a restart
/// on the same cache dir, the same batch's trace shows a store read and **no**
/// simulate span — the flight recorder proves where the answer came from.
#[test]
fn warm_restart_trace_reads_store_instead_of_simulating() {
    let scratch = Scratch::new("warm");

    let (server, _, addr) = start(&scratch.0);
    let cold_ctx = TraceContext::fresh();
    let (status, body) = post_traced(&addr, BATCH, cold_ctx);
    assert_eq!(status, 200, "{body}");
    let snap = snapshot(&addr);
    let cold = snap
        .recent
        .iter()
        .find(|t| t.trace == cold_ctx.trace)
        .expect("cold trace recorded");
    let cold_names = span_names(cold);
    assert!(cold_names.contains(&"simulate"), "{cold_names:?}");
    assert!(cold_names.contains(&"store.write"), "{cold_names:?}");
    shutdown(&addr, server);

    let (server, warm, addr) = start(&scratch.0);
    assert_eq!(warm.seeded, 1, "record preloaded");
    let warm_ctx = TraceContext::fresh();
    let (status, body) = post_traced(&addr, BATCH, warm_ctx);
    assert_eq!(status, 200, "{body}");
    let snap = snapshot(&addr);
    let warm_trace = snap
        .recent
        .iter()
        .find(|t| t.trace == warm_ctx.trace)
        .expect("warm trace recorded");
    let warm_names = span_names(warm_trace);
    assert!(
        warm_names.contains(&"store.read"),
        "warm hit must trace as a store read: {warm_names:?}"
    );
    for absent in ["simulate", "compile", "store.write"] {
        assert!(
            !warm_names.contains(&absent),
            "warm request must not {absent}: {warm_names:?}"
        );
    }
    shutdown(&addr, server);
}

/// A fuzz run's `fuzz.column` spans name each column's backend, so a fast
/// and a ref column of one point tell apart in a trace, while the results'
/// `spec` field (the store identity) leaves the backend out.
#[test]
fn fuzz_column_spans_name_the_backend() {
    let scratch = Scratch::new("fuzz-backend");
    let (server, _, addr) = start(&scratch.0);

    let ctx = TraceContext::fresh();
    let body = r#"{"experiments": ["trav:high5:none:plain:backend=fast", "trav:high5:none:plain:backend=ref"]}"#;
    let (status, bytes) = http::fetch_headers(
        &addr,
        "POST",
        "/v1/fuzz/run",
        body.as_bytes(),
        TIMEOUT,
        &[(TRACEPARENT_HEADER, &ctx.to_traceparent())],
    )
    .unwrap();
    let text = String::from_utf8(bytes).expect("UTF-8 response");
    assert_eq!(status, 200, "{text}");
    assert_eq!(
        text.matches(r#""spec":"trav:high5:none:plain""#).count(),
        2,
        "{text}"
    );

    let snap = snapshot(&addr);
    let record = snap
        .recent
        .iter()
        .find(|t| t.trace == ctx.trace)
        .expect("fuzz trace recorded");
    let specs: Vec<&str> = record
        .spans
        .iter()
        .filter(|s| s.name == "fuzz.column")
        .map(|s| {
            s.labels
                .iter()
                .find(|(k, _)| k == "spec")
                .map(|(_, v)| v.as_str())
                .expect("spec label")
        })
        .collect();
    assert_eq!(
        specs,
        [
            "trav:high5:none:plain:backend=fast",
            "trav:high5:none:plain:backend=ref"
        ]
    );
    shutdown(&addr, server);
}

/// A malformed (or missing) `traceparent` never fails the request: it is
/// served normally under a fresh trace id.
#[test]
fn malformed_traceparent_falls_back_to_fresh_trace() {
    let scratch = Scratch::new("malformed");
    let (server, _, addr) = start(&scratch.0);

    for bad in ["garbage", "00-zz-zz-01", "00-0-0-01", ""] {
        let (status, body) = http::fetch_headers(
            &addr,
            "POST",
            "/v1/experiments",
            BATCH.as_bytes(),
            TIMEOUT,
            &[(TRACEPARENT_HEADER, bad)],
        )
        .unwrap();
        assert_eq!(
            status,
            200,
            "traceparent {bad:?} failed the request: {}",
            String::from_utf8_lossy(&body)
        );
    }

    // Every request still got traced, each under its own fresh id.
    let snap = snapshot(&addr);
    let batches: Vec<_> = snap
        .recent
        .iter()
        .filter(|t| t.spans.iter().any(|s| s.name == "POST /v1/experiments"))
        .collect();
    assert_eq!(batches.len(), 4, "all four requests recorded");
    for record in &batches {
        // A fallback root has no parent outside the daemon.
        let root = record
            .spans
            .iter()
            .find(|s| s.name == "POST /v1/experiments")
            .unwrap();
        assert_eq!(root.parent, None, "fresh trace has no client parent");
    }

    shutdown(&addr, server);
}

/// The Chrome export is valid JSON in trace-event shape: a `traceEvents`
/// array of complete (`ph == "X"`) events with name/ts/dur/pid/tid.
#[test]
fn chrome_export_has_trace_event_shape() {
    let scratch = Scratch::new("chrome");
    let (server, _, addr) = start(&scratch.0);
    let ctx = TraceContext::fresh();
    let (status, _) = post_traced(&addr, BATCH, ctx);
    assert_eq!(status, 200);

    let (status, text) = get(&addr, "/v1/debug/trace?format=chrome");
    assert_eq!(status, 200, "{text}");
    let root = Json::parse(&text).expect("chrome export parses as JSON");
    let obj = root.as_object("export").unwrap();
    let (_, events) = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .expect("traceEvents key");
    let events = events.as_array("traceEvents").unwrap();
    assert!(!events.is_empty());
    let mut saw_batch_root = false;
    for event in events {
        let event = event.as_object("event").unwrap();
        let field = |name: &str| {
            event
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("event missing {name}"))
                .1
                .clone()
        };
        assert_eq!(field("ph").as_str("ph").unwrap(), "X");
        assert!(field("dur").as_u64("dur").unwrap() >= 1);
        field("ts").as_u64("ts").unwrap();
        field("pid").as_u64("pid").unwrap();
        field("tid").as_u64("tid").unwrap();
        if field("name").as_str("name").unwrap() == "POST /v1/experiments" {
            saw_batch_root = true;
        }
    }
    assert!(saw_batch_root, "request root missing from chrome export");

    shutdown(&addr, server);
}
