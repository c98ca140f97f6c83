//! End-to-end tests for `tagstudyd`: a real server on an ephemeral port, real
//! sockets, real simulations — asserting the acceptance properties of the
//! serving layer: responses byte-identical to direct Session output, warm
//! restarts that answer with zero simulations, corruption that is quarantined
//! and recomputed, graceful shutdown that drains in-flight work, and load
//! shedding with `Retry-After`.

use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serve::{http, proto, Server, ServerConfig};
use store::{record, ResultStore, StoreKey};
use tagstudy::Session;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
const TIMEOUT: Duration = Duration::from_secs(600);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "tagstudyd-test-{tag}-{}-{}",
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

fn start(dir: Option<&PathBuf>, config: ServerConfig) -> (Server, serve::WarmStart, String) {
    let store = dir.map(|d| Arc::new(ResultStore::open(d).expect("open store")));
    let (server, warm) = Server::start("127.0.0.1:0", store, config).expect("bind");
    let addr = server.addr().to_string();
    (server, warm, addr)
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let (status, bytes) = http::fetch(addr, "POST", path, body.as_bytes(), TIMEOUT).unwrap();
    (status, String::from_utf8(bytes).expect("UTF-8 response"))
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, bytes) = http::fetch(addr, "GET", path, b"", TIMEOUT).unwrap();
    (status, String::from_utf8(bytes).expect("UTF-8 response"))
}

fn shutdown(addr: &str, server: Server) {
    let (status, _) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.join();
}

/// The value of a counter/gauge line in Prometheus text (0 when absent — a
/// counter that was never incremented is not exported).
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .map_or(0, |v| v.parse::<f64>().expect("numeric metric") as u64)
}

const BATCH: &str = r#"{"experiments": ["frl:high5:none:plain", "frl", "trav:high5:none:plain"]}"#;

/// The daemon's batch responses carry exactly the measurements a direct
/// Session produces (byte-identical encoding), concurrent clients all see the
/// same bytes, and each result is re-fetchable by its content address.
#[test]
fn batch_matches_direct_session_and_concurrent_clients_agree() {
    let scratch = Scratch::new("e2e");
    let (server, _, addr) = start(Some(&scratch.0), ServerConfig::default());

    // Four concurrent clients submit the same batch.
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| post(&addr, "/v1/experiments", BATCH)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, body) in &bodies {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(body, &bodies[0].1, "all clients see the same bytes");
    }

    // Compare against a Session driven directly, with the same encoding.
    let results = proto::parse_results(&bodies[0].1).unwrap();
    assert_eq!(results.len(), 3);
    let direct = Session::serial();
    for (spec_text, key, served) in &results {
        let spec = serve::proto::parse_spec(spec_text).unwrap();
        let reference = direct.measure(&spec.program, spec.config).unwrap();
        assert_eq!(
            record::measurement_to_json(served),
            record::measurement_to_json(&reference),
            "daemon response differs from direct Session for {spec_text}"
        );

        // The same measurement is addressable through the record endpoint.
        let (status, raw) = get(&addr, &format!("/v1/results/{key}"));
        assert_eq!(status, 200, "{raw}");
        let (record_key, from_record, _) = record::record_from_json(&raw).unwrap();
        assert_eq!(record_key.as_str(), key);
        assert_eq!(
            record::measurement_to_json(&from_record),
            record::measurement_to_json(&reference)
        );
    }

    // Three distinct points ("frl" defaults to full checking, distinct from
    // the explicit none-checking spec), measured once despite four clients.
    let (status, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "session_cache_misses_total"), 3);
    assert_eq!(metric(&metrics, "store_puts_total"), 3);
    assert_eq!(metric(&metrics, "daemon_batches_total"), 4);
    assert_eq!(metric(&metrics, "daemon_experiments_total"), 12);

    shutdown(&addr, server);
}

/// A restarted daemon on the same cache dir answers a known batch with ZERO
/// simulations — proven by the metrics — and byte-identical to the first run.
#[test]
fn warm_restart_answers_without_simulating() {
    let scratch = Scratch::new("warm");

    let (server, warm, addr) = start(Some(&scratch.0), ServerConfig::default());
    assert_eq!(warm.seeded, 0, "first boot is cold");
    let (status, cold_body) = post(&addr, "/v1/experiments", BATCH);
    assert_eq!(status, 200, "{cold_body}");
    shutdown(&addr, server);

    let (server, warm, addr) = start(Some(&scratch.0), ServerConfig::default());
    assert_eq!(warm.seeded, 3, "every record preloaded");
    let (status, warm_body) = post(&addr, "/v1/experiments", BATCH);
    assert_eq!(status, 200, "{warm_body}");
    assert_eq!(warm_body, cold_body, "warm restart is byte-identical");

    let (_, metrics) = get(&addr, "/metrics");
    assert_eq!(
        metric(&metrics, "session_cache_misses_total"),
        0,
        "zero simulations since restart:\n{metrics}"
    );
    assert_eq!(metric(&metrics, "session_seeded_total"), 3);
    assert_eq!(
        metric(&metrics, "session_cache_hits_total"),
        3,
        "one hit per spec"
    );
    assert_eq!(
        metric(&metrics, "store_puts_total"),
        0,
        "nothing re-written"
    );

    shutdown(&addr, server);
}

/// A corrupted record is quarantined at warm start and transparently
/// recomputed — never served, never fatal.
#[test]
fn corrupted_record_is_quarantined_and_recomputed() {
    let scratch = Scratch::new("corrupt");
    let batch = r#"{"experiments": ["trav:high5:none:plain"]}"#;

    let (server, _, addr) = start(Some(&scratch.0), ServerConfig::default());
    let (status, clean_body) = post(&addr, "/v1/experiments", batch);
    assert_eq!(status, 200, "{clean_body}");
    shutdown(&addr, server);

    // Flip bits in the one record on disk.
    let rec = fs::read_dir(&scratch.0)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "rec"))
        .expect("one record on disk");
    let text = fs::read_to_string(&rec).unwrap();
    fs::write(&rec, text.replacen("\"cycles\":", "\"cycles\":9", 1)).unwrap();

    let (server, warm, addr) = start(Some(&scratch.0), ServerConfig::default());
    assert_eq!(warm.seeded, 0, "corrupt record must not seed the session");
    let (status, healed_body) = post(&addr, "/v1/experiments", batch);
    assert_eq!(status, 200, "{healed_body}");
    assert_eq!(
        healed_body, clean_body,
        "recomputed answer matches the original"
    );

    let (_, metrics) = get(&addr, "/metrics");
    assert_eq!(metric(&metrics, "store_quarantined_total"), 1, "{metrics}");
    assert_eq!(
        metric(&metrics, "session_cache_misses_total"),
        1,
        "recomputed once"
    );
    assert_eq!(
        metric(&metrics, "store_records"),
        1,
        "healed by write-through"
    );

    shutdown(&addr, server);
}

/// A temp file a crashed writer left behind (named as older versions named
/// them, with the record extension) is not a record: the warm start neither
/// seeds it nor counts it as a skipped record, and `/metrics` does not count
/// it either.
#[test]
fn stray_temp_file_is_not_counted_as_a_record() {
    let scratch = Scratch::new("stray-temp");
    let batch = r#"{"experiments": ["trav:high5:none:plain"]}"#;

    let (server, _, addr) = start(Some(&scratch.0), ServerConfig::default());
    let (status, body) = post(&addr, "/v1/experiments", batch);
    assert_eq!(status, 200, "{body}");
    shutdown(&addr, server);

    let rec = fs::read_dir(&scratch.0)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "rec"))
        .expect("one record on disk");
    fs::copy(&rec, scratch.0.join("tmp-999-0.rec")).unwrap();

    let (server, warm, addr) = start(Some(&scratch.0), ServerConfig::default());
    assert_eq!((warm.seeded, warm.skipped), (1, 0));
    let (_, metrics) = get(&addr, "/metrics");
    assert_eq!(metric(&metrics, "store_records"), 1, "{metrics}");
    assert_eq!(metric(&metrics, "store_quarantined_total"), 0, "{metrics}");
    shutdown(&addr, server);
}

/// Inline sources measure like named benchmarks — deterministic bytes, cache
/// hits on repeat — but are never persisted to the on-disk store (the store is
/// keyed by the benchmark registry, which can't name them).
#[test]
fn inline_sources_measure_but_are_not_persisted() {
    let scratch = Scratch::new("inline");
    let (server, _, addr) = start(Some(&scratch.0), ServerConfig::default());
    let batch = r#"{"experiments": [
        {"source": "(print (plus 1 2))", "checking": "none"},
        {"source": "(print (plus 1 2))", "checking": "full"},
        "trav:high5:none:plain"
    ]}"#;

    let (status, first) = post(&addr, "/v1/experiments", batch);
    assert_eq!(status, 200, "{first}");
    let results = proto::parse_results(&first).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].0.starts_with("inline:"), "{}", results[0].0);
    assert!(results[1].0.starts_with("inline:"), "{}", results[1].0);
    // Same source, different configs: same content-derived name, distinct
    // store keys, and the checked run costs cycles the unchecked one doesn't.
    assert_eq!(
        results[0].0.split(':').nth(1),
        results[1].0.split(':').nth(1)
    );
    assert_ne!(results[0].1, results[1].1);
    assert!(results[1].2.stats.cycles > results[0].2.stats.cycles);

    // A repeat batch is served from cache, byte-identical.
    let (status, second) = post(&addr, "/v1/experiments", batch);
    assert_eq!(status, 200);
    assert_eq!(second, first, "repeat batch is byte-identical");
    let (_, metrics) = get(&addr, "/metrics");
    assert_eq!(metric(&metrics, "session_cache_misses_total"), 3);
    assert_eq!(metric(&metrics, "session_cache_hits_total"), 3);

    // Only the named benchmark reached the store: its key resolves, the
    // inline keys do not, and exactly one record exists on disk.
    assert_eq!(metric(&metrics, "store_puts_total"), 1);
    let (status, _) = get(&addr, &format!("/v1/results/{}", results[2].1));
    assert_eq!(status, 200);
    for inline in &results[..2] {
        let (status, body) = get(&addr, &format!("/v1/results/{}", inline.1));
        assert_eq!(status, 404, "inline result persisted: {body}");
    }

    shutdown(&addr, server);
}

/// One inline source under two heap sizes is two programs, also within one
/// batch: each spec gets its own heap's cycle count, not the last one's.
#[test]
fn one_source_under_two_heaps_in_one_batch() {
    let (server, _, addr) = start(None, ServerConfig::default());
    // A live list plus steady garbage: a small heap collects, a large one
    // never does, so the two heaps cost different cycles.
    let source = "(defvar keep (list 1 2 3 4 5 6 7 8)) \
                  (defun churn (n) (while (greaterp n 0) (list n n n n) (setq n (sub1 n)))) \
                  (churn 3000) (print (car keep))";
    let spec = |heap: u32| format!(r#"{{"source": "{source}", "heap": {heap}}}"#);
    let cycles = |body: &str| -> Vec<u64> {
        let (status, text) = post(&addr, "/v1/experiments", body);
        assert_eq!(status, 200, "{text}");
        proto::parse_results(&text)
            .unwrap()
            .iter()
            .map(|(_, _, m)| m.stats.cycles)
            .collect()
    };
    let small = cycles(&format!(r#"{{"experiments": [{}]}}"#, spec(16 << 10)))[0];
    let large = cycles(&format!(r#"{{"experiments": [{}]}}"#, spec(1 << 20)))[0];
    assert_ne!(small, large, "the heap must change the measurement");

    let both = cycles(&format!(
        r#"{{"experiments": [{}, {}]}}"#,
        spec(16 << 10),
        spec(1 << 20)
    ));
    assert_eq!(both, [small, large], "each heap keeps its own answer");

    shutdown(&addr, server);
}

/// `deduce` and `dedgc` share a source and differ only in heap: one batch of
/// both gets two content addresses, each record serves its own program's
/// cycles, and a warm restart seeds both.
#[test]
fn deduce_and_dedgc_are_stored_apart() {
    let scratch = Scratch::new("dedgc");
    let (server, _, addr) = start(Some(&scratch.0), ServerConfig::default());
    let batch = r#"{"experiments": ["deduce:high5:none:plain", "dedgc:high5:none:plain"]}"#;
    let (status, body) = post(&addr, "/v1/experiments", batch);
    assert_eq!(status, 200, "{body}");
    let results = proto::parse_results(&body).unwrap();
    assert_eq!(results.len(), 2);
    assert_ne!(results[0].1, results[1].1, "one key for two programs");
    assert_ne!(results[0].2.stats.cycles, results[1].2.stats.cycles);
    for (_, key, served) in &results {
        let (status, raw) = get(&addr, &format!("/v1/results/{key}"));
        assert_eq!(status, 200, "{raw}");
        let (_, stored, _) = record::record_from_json(&raw).unwrap();
        assert_eq!(
            stored.program, served.program,
            "{key} serves another program"
        );
        assert_eq!(stored.stats.cycles, served.stats.cycles);
    }
    shutdown(&addr, server);

    let (server, warm, addr) = start(Some(&scratch.0), ServerConfig::default());
    assert_eq!(warm.seeded, 2, "both records preloaded");
    shutdown(&addr, server);
}

/// A heap whose semispaces cannot fit the pointer space is a 400 with the
/// sizes spelled out — never a 500 or a simulated memory fault.
#[test]
fn oversized_heap_is_a_precise_400() {
    let (server, _, addr) = start(None, ServerConfig::default());
    for heap in [2_147_481_600u64, u64::from(u32::MAX)] {
        let body = format!(
            r#"{{"experiments": [{{"source": "(print 1)", "heap": {heap}, "scheme": "low2"}}]}}"#
        );
        let (status, text) = post(&addr, "/v1/experiments", &body);
        assert_eq!(status, 400, "{text}");
        assert!(text.contains("does not fit"), "{text}");
    }
    shutdown(&addr, server);
}

/// A broken inline source is the client's error, not the server's: a 400
/// naming the spec and the reason, whether the source fails to parse or
/// fails validation at run time — also beside a good named benchmark.
#[test]
fn broken_inline_source_is_a_400() {
    let (server, _, addr) = start(None, ServerConfig::default());
    let cases = [
        (r#"{"source": "(print"}"#, "(print", "unterminated list"),
        (
            r#"{"source": "(car 5)", "checking": "full"}"#,
            "(car 5)",
            "wrong output",
        ),
    ];
    for (spec, source, reason) in cases {
        for batch in [format!("[{spec}]"), format!(r#"["trav", {spec}]"#)] {
            let body = format!(r#"{{"experiments": {batch}}}"#);
            let (status, text) = post(&addr, "/v1/experiments", &body);
            assert_eq!(status, 400, "{batch}: {text}");
            let name = store::inline_name(source, None);
            assert!(text.contains(&name), "{batch}: spec not named: {text}");
            assert!(text.contains(reason), "{batch}: reason missing: {text}");
        }
    }
    shutdown(&addr, server);
}

/// An inline source nested past the reader's bound is a 400 that names the
/// nesting, on the measuring and the fuzzing endpoint alike, where unbounded
/// recursion would overflow a worker's stack and abort the whole daemon; the
/// daemon then still answers.
#[test]
fn deeply_nested_inline_source_is_a_400() {
    let (server, _, addr) = start(None, ServerConfig::default());
    let source = format!("(print {}1{})", "(+ 1 ".repeat(4_999), ")".repeat(4_999));
    let body = format!(r#"{{"experiments": [{{"source": "{source}"}}]}}"#);
    for path in ["/v1/experiments", "/v1/fuzz/run"] {
        let (status, text) = post(&addr, path, &body);
        assert_eq!(status, 400, "{path}: {text}");
        assert!(text.contains("inline source failed"), "{path}: {text}");
        assert!(text.contains("nesting deeper than"), "{path}: {text}");
        let (status, text) = get(&addr, "/healthz");
        assert_eq!((status, text.as_str()), (200, "ok\n"), "after {path}");
    }
    shutdown(&addr, server);
}

/// `POST /v1/shutdown` stops accepting but drains in-flight work: a batch
/// already being measured still completes and gets its full response.
#[test]
fn shutdown_drains_in_flight_batch() {
    let (server, _, addr) = start(None, ServerConfig::default());

    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            post(
                &addr,
                "/v1/experiments",
                r#"{"experiments": ["boyer:high5:full:plain"]}"#,
            )
        })
    };
    // Give the batch a head start into the simulator, then pull the plug.
    std::thread::sleep(Duration::from_millis(200));
    let (status, _) = post(&addr, "/v1/shutdown", "");
    assert_eq!(status, 200);

    let (status, body) = in_flight.join().unwrap();
    assert_eq!(
        status, 200,
        "in-flight batch completed through shutdown: {body}"
    );
    let results = proto::parse_results(&body).unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].2.stats.cycles > 0);

    server.join();
}

/// With the accept queue full (capacity 0 pins it full), connections are shed
/// with `503` and a `Retry-After` header instead of queueing without bound.
#[test]
fn overload_sheds_with_retry_after() {
    let (server, _, addr) = start(
        None,
        ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        },
    );

    // Raw client: the shed headers are part of the contract.
    for _ in 0..2 {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
        assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
        assert!(raw.contains("accept queue is full"), "{raw}");
    }
    let handle = server.handle();
    let metrics = handle.metrics_prometheus();
    assert_eq!(metric(&metrics, "daemon_queue_shed_total"), 2, "{metrics}");

    handle.shutdown();
    server.join();
}

/// The unhappy paths answer with structured errors, not hangs or panics.
#[test]
fn bad_requests_are_answered_not_fatal() {
    let (server, _, addr) = start(None, ServerConfig::default());

    let (status, body) = post(&addr, "/v1/experiments", r#"{"experiments": ["nope"]}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown benchmark"), "{body}");

    let (status, body) = post(&addr, "/v1/experiments", "not json");
    assert_eq!(status, 400, "{body}");

    // An object field is one value: a `:` inside it fails as that field,
    // never as extra fields of a spec string.
    for (request, want) in [
        (
            r#"{"experiments": [{"program": "frl", "scheme": "low2:none", "checking": "tagbr", "hw": "timing=ideal"}]}"#,
            r#"unknown scheme \"low2:none\""#,
        ),
        (
            r#"{"experiments": [{"program": "frl", "hw": "plain:timing=modern"}]}"#,
            r#"unknown hardware level \"plain:timing=modern\""#,
        ),
    ] {
        let (status, body) = post(&addr, "/v1/experiments", request);
        assert_eq!(status, 400, "{request}: {body}");
        assert!(body.contains(want), "{request}: {body}");
    }

    let (status, body) = get(&addr, "/v1/results/zzz");
    assert_eq!(status, 400);
    assert!(body.contains("bad store key"), "{body}");

    let missing = StoreKey::compute(
        "no such source",
        None,
        &tagstudy::Config::baseline(tagstudy::CheckingMode::Full),
    );
    let (status, body) = get(&addr, &format!("/v1/results/{missing}"));
    assert_eq!(status, 404, "{body}");

    let (status, _) = get(&addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = post(&addr, "/healthz", "");
    assert_eq!(status, 405);

    let (status, body) = get(&addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    shutdown(&addr, server);
}
