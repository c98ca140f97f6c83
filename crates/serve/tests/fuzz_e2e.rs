//! End-to-end tests for the differential-fuzzing fleet against a live
//! `tagstudyd`: a daemon-backed campaign saturates with zero divergences and
//! surfaces its telemetry on `/metrics`, campaign state survives a daemon
//! kill/restart (the coverage ledger lives client-side), and the fuzz
//! endpoints validate their inputs.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mipsx::Backend;
use serve::fleet::{DaemonRunner, FuzzArgs};
use serve::{http, Server, ServerConfig};
use store::fuzz::FuzzStore;
use synth::fleet::{ledger_key, matrix_columns, mix_cells, run_campaign, CampaignSpec};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
const TIMEOUT: Duration = Duration::from_secs(600);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "tagstudyd-fuzz-test-{tag}-{}-{}",
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

fn start() -> (Server, String) {
    let (server, _) = Server::start("127.0.0.1:0", None, ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    (server, addr)
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let (status, bytes) = http::fetch(addr, "POST", path, body.as_bytes(), TIMEOUT).unwrap();
    (status, String::from_utf8(bytes).expect("UTF-8 response"))
}

fn shutdown(addr: &str, server: Server) {
    let (status, _) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.join();
}

fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .map_or(0.0, |v| v.parse().expect("numeric metric"))
}

/// One program per cell on a single backend: 3 cells × 24 configs.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        axis_points: 1,
        per_cell: 1,
        backends: vec![Backend::Fast],
        ..CampaignSpec::smoke()
    }
}

/// The full `tagctl fuzz` driver against a live daemon: zero divergences,
/// saturated ledger, and the campaign telemetry visible on `/metrics`.
#[test]
fn daemon_campaign_saturates_and_reports_metrics() {
    let scratch = Scratch::new("campaign");
    let (server, addr) = start();

    let code = serve::fleet::run_fuzz(
        &addr,
        &FuzzArgs {
            spec: tiny_spec(),
            resume: false,
            witness_dir: scratch.0.clone(),
            local: false,
            replay: None,
        },
    );
    assert_eq!(code, 0, "clean campaign through the daemon exits 0");

    let store = FuzzStore::open(&scratch.0).unwrap();
    assert_eq!(store.witness_count(), 0, "no divergences, no witnesses");
    let ledger = store.load_ledger().expect("ledger persisted");
    assert!(ledger.complete(), "campaign saturated its coverage ledger");

    let metrics = server.handle().metrics_prometheus();
    assert_eq!(metric(&metrics, "daemon_fuzz_runs_total"), 3.0, "{metrics}");
    assert_eq!(
        metric(&metrics, "daemon_fuzz_columns_total"),
        72.0,
        "{metrics}"
    );
    assert_eq!(
        metric(&metrics, "daemon_fuzz_programs_total"),
        3.0,
        "{metrics}"
    );
    assert_eq!(
        metric(&metrics, "daemon_fuzz_divergences_total"),
        0.0,
        "{metrics}"
    );
    assert_eq!(
        metric(&metrics, "daemon_fuzz_coverage_percent"),
        100.0,
        "{metrics}"
    );
    assert!(
        metric(&metrics, "daemon_fuzz_columns_per_second") > 0.0,
        "{metrics}"
    );

    shutdown(&addr, server);
}

/// Kill the daemon mid-campaign, restart it, resume: the client-side ledger
/// carries the campaign across the restart, and the counters prove covered
/// columns are skipped rather than re-run.
#[test]
fn campaign_survives_daemon_restart_and_skips_covered_columns() {
    let scratch = Scratch::new("restart");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let spec = tiny_spec();

    // Phase 1: one program's worth of coverage, then the daemon dies.
    let (server, addr) = start();
    let part1 = run_campaign(
        &CampaignSpec {
            max_programs: Some(1),
            ..spec.clone()
        },
        &store,
        &mut DaemonRunner::new(&addr),
        false,
        &mut |_| {},
    )
    .unwrap();
    assert_eq!(part1.programs, 1);
    assert_eq!(part1.columns_run, 24);
    assert_eq!(part1.divergences, 0);
    assert!(!part1.complete);
    shutdown(&addr, server);

    // Simulate dying *mid-program* too: hand-advance five columns of the
    // next cell, exactly as the per-column ledger persistence would have.
    let columns = matrix_columns(&spec.backends);
    let next_cell = &mix_cells(spec.axis_points)[1].name;
    let mut ledger = store.load_ledger().unwrap();
    for column in &columns[..5] {
        ledger.bump(&ledger_key(next_cell, &column.label()));
    }
    store.store_ledger(&ledger).unwrap();

    // Phase 2: fresh daemon, resumed campaign. The new daemon has no memory
    // of phase 1 — the skipping is driven entirely by the persisted ledger.
    let (server, addr) = start();
    let part2 = run_campaign(
        &spec,
        &store,
        &mut DaemonRunner::new(&addr),
        true,
        &mut |_| {},
    )
    .unwrap();
    assert_eq!(part2.resumed_from, 24 + 5, "inherited coverage is visible");
    assert_eq!(part2.columns_skipped, 5, "covered columns are not re-run");
    assert_eq!(part2.columns_run, 72 - 24 - 5);
    assert_eq!(part2.programs, 2, "the covered cell is not revisited");
    assert_eq!(part2.divergences, 0);
    assert!(part2.complete);
    assert_eq!(
        part1.columns_run + part2.columns_skipped + part2.columns_run,
        72,
        "every column of every cell ran exactly once across the restart"
    );

    // The restarted daemon only saw phase 2's work.
    let metrics = server.handle().metrics_prometheus();
    assert_eq!(
        metric(&metrics, "daemon_fuzz_columns_total"),
        43.0,
        "{metrics}"
    );

    shutdown(&addr, server);
}

/// The fuzz endpoints validate their inputs: malformed run batches and
/// reports earn 400s, wrong methods 405, and a bad report never poisons the
/// counters.
#[test]
fn fuzz_endpoints_validate_inputs() {
    let (server, addr) = start();

    let (status, body) = post(&addr, "/v1/fuzz/run", "not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(&addr, "/v1/fuzz/run", r#"{"experiments": []}"#);
    assert_eq!(status, 400);
    assert!(body.contains("empty batch"), "{body}");
    let (status, body) = post(
        &addr,
        "/v1/fuzz/run",
        r#"{"experiments": [{"source": "(print 1)", "scheme": "tag9"}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown scheme"), "{body}");

    let (status, _) = http::fetch(&addr, "GET", "/v1/fuzz/run", b"", TIMEOUT).unwrap();
    assert_eq!(status, 405);
    let (status, _) = http::fetch(&addr, "GET", "/v1/fuzz/report", b"", TIMEOUT).unwrap();
    assert_eq!(status, 405);

    let (status, body) = post(&addr, "/v1/fuzz/report", "not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(&addr, "/v1/fuzz/report", r#"{"programs": "many"}"#);
    assert_eq!(status, 400, "{body}");

    // A valid report accumulates; the earlier rejects contributed nothing.
    for _ in 0..2 {
        let (status, body) = post(
            &addr,
            "/v1/fuzz/report",
            r#"{"programs": 2, "divergences": 1, "coverage_percent": 50.0}"#,
        );
        assert_eq!(status, 200, "{body}");
    }
    let metrics = server.handle().metrics_prometheus();
    assert_eq!(
        metric(&metrics, "daemon_fuzz_programs_total"),
        4.0,
        "{metrics}"
    );
    assert_eq!(
        metric(&metrics, "daemon_fuzz_divergences_total"),
        2.0,
        "{metrics}"
    );
    assert_eq!(
        metric(&metrics, "daemon_fuzz_coverage_percent"),
        50.0,
        "{metrics}"
    );

    // A rejected report applies none of its fields: not the valid ones
    // before the bad one, not a delta that would overflow a total, not an
    // infinite gauge.
    for (report, field) in [
        (r#"{"programs": 2, "divergences": "x"}"#, "divergences"),
        (r#"{"programs": 18446744073709551615}"#, "programs"),
        (
            r#"{"programs": 1, "coverage_percent": 1e400}"#,
            "coverage_percent",
        ),
    ] {
        let (status, body) = post(&addr, "/v1/fuzz/report", report);
        assert_eq!(status, 400, "{report}: {body}");
        assert!(body.contains(field), "{report}: {body}");
    }
    let after = server.handle().metrics_prometheus();
    for name in [
        "daemon_fuzz_programs_total",
        "daemon_fuzz_divergences_total",
        "daemon_fuzz_coverage_percent",
    ] {
        assert_eq!(
            metric(&after, name),
            metric(&metrics, name),
            "{name}: {after}"
        );
    }

    // A well-executed run batch works end-to-end through raw HTTP, too.
    let (status, body) = post(
        &addr,
        "/v1/fuzz/run",
        r#"{"experiments": [{"source": "(print (plus 1 2))", "backend": "fast"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let results = serve::proto::parse_results(&body).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].2.output, "3\n");

    shutdown(&addr, server);
}
