//! `tagctl` — the command-line client for `tagstudyd`.
//!
//! ```text
//! tagctl [--addr HOST:PORT] submit SPEC...     measure a batch, print a table
//! tagctl [--addr HOST:PORT] submit --json SPEC...   ... print the raw response
//! tagctl [--addr HOST:PORT] result KEY         fetch the raw store record
//! tagctl [--addr HOST:PORT] metrics [--watch SECS]  scrape /metrics (repeatedly)
//! tagctl [--addr HOST:PORT] health             liveness probe
//! tagctl [--addr HOST:PORT] shutdown           ask the daemon to drain and exit
//! tagctl [--addr HOST:PORT] fuzz [...]         drive a differential-fuzzing campaign
//! tagctl [--addr HOST:PORT] trace [--chrome|--slow|ID]  inspect the flight recorder
//! tagctl [--addr HOST:PORT] top [--watch SECS] per-endpoint latency summary
//! ```
//!
//! The argument grammar lives in [`serve::cli`]; this binary only does I/O.
//!
//! `submit` originates a trace: it sends a `traceparent` header so the
//! daemon's spans join the client's trace id, and prints that id to stderr
//! (stdout stays byte-stable for scripts that diff it).

use std::process::exit;
use std::time::Duration;

use serve::cli::{self, Command};
use serve::fleet;
use serve::http::{fetch, fetch_headers, json_string};
use serve::proto;
use tagstudy::trace::{
    chrome_trace_json, RecorderSnapshot, TraceContext, TraceRecord, TRACEPARENT_HEADER,
};

const DEFAULT_ADDR: &str = "127.0.0.1:7099";
const TIMEOUT: Duration = Duration::from_secs(600);

fn usage() -> ! {
    eprintln!(
        "usage: tagctl [--addr HOST:PORT] <command>\n\
         \n\
         commands:\n\
         \u{20} submit [--json] SPEC...   measure a batch and print the results\n\
         \u{20} result KEY                fetch the raw store record for a content address\n\
         \u{20} metrics [--watch SECS]    scrape /metrics (with --watch: forever)\n\
         \u{20} health                    liveness probe (exit 0 iff the daemon answers ok)\n\
         \u{20} shutdown                  ask the daemon to drain in-flight work and exit\n\
         \u{20} fuzz [--smoke] [--resume] [--local] [--witness-dir DIR]\n\
         \u{20}      [--seed-base N] [--axis-points N] [--per-cell N] [--max-programs N]\n\
         \u{20}      [--backends a,b] [--inject-fault NAME:N] [--replay KEY]\n\
         \u{20}                           differential-fuzz the matrix through the daemon\n\
         \u{20} trace [--chrome] [--slow] [TRACE_ID]\n\
         \u{20}                           dump the daemon's flight recorder: recent request\n\
         \u{20}                           span trees, the slow log, one trace by id, or\n\
         \u{20}                           Chrome trace-event JSON for chrome://tracing\n\
         \u{20} top [--watch SECS]        per-endpoint request counts and p50/p90/p99 latency\n\
         \n\
         Default address {DEFAULT_ADDR} (override with --addr or TAGSTUDYD_ADDR).\n\
         {}",
        serve::proto::spec_grammar()
    );
    exit(2);
}

fn die(message: &str) -> ! {
    eprintln!("tagctl: {message}");
    exit(1);
}

/// GET/POST and fail loudly on transport errors; non-2xx is returned to the
/// caller (some commands want to print the error body).
fn call(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    match fetch(addr, method, path, body, TIMEOUT) {
        Ok((status, bytes)) => (status, String::from_utf8_lossy(&bytes).into_owned()),
        Err(why) => die(&why),
    }
}

fn submit(addr: &str, raw_json: bool, specs: &[String]) {
    let body = format!(
        "{{\"experiments\":[{}]}}",
        specs
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(",")
    );
    // Originate the trace here: the daemon's request span parents under this
    // context, so `tagctl trace <id>` finds the whole server-side tree. The
    // id goes to stderr — stdout is the data channel and stays diffable.
    let ctx = TraceContext::fresh();
    eprintln!("tagctl: trace {}", ctx.trace);
    let (status, text) = match fetch_headers(
        addr,
        "POST",
        "/v1/experiments",
        body.as_bytes(),
        TIMEOUT,
        &[(TRACEPARENT_HEADER, &ctx.to_traceparent())],
    ) {
        Ok((status, bytes)) => (status, String::from_utf8_lossy(&bytes).into_owned()),
        Err(why) => die(&why),
    };
    if status != 200 {
        die(&format!("daemon answered {status}: {}", text.trim_end()));
    }
    if raw_json {
        print!("{text}");
        return;
    }
    let results = proto::parse_results(&text).unwrap_or_else(|why| die(&why));
    println!(
        "{:<34} {:>14} {:>12} {:>6}  KEY",
        "SPEC", "CYCLES", "INSNS", "CPI"
    );
    for (spec, key, m) in &results {
        let cycles = m.stats.cycles;
        let insns = m.stats.committed;
        let cpi = if insns == 0 {
            0.0
        } else {
            cycles as f64 / insns as f64
        };
        println!("{spec:<34} {cycles:>14} {insns:>12} {cpi:>6.3}  {key}");
    }
}

fn metrics(addr: &str, watch: Option<u64>) {
    loop {
        let (status, text) = call(addr, "GET", "/metrics", b"");
        if status != 200 {
            die(&format!("daemon answered {status}: {}", text.trim_end()));
        }
        print!("{text}");
        let Some(secs) = watch else { return };
        println!("# --- next scrape in {secs}s ---");
        std::thread::sleep(Duration::from_secs(secs));
    }
}

fn trace_cmd(addr: &str, chrome: bool, slow: bool, id: Option<&str>) {
    if let Some(id) = id {
        let (status, text) = call(addr, "GET", &format!("/v1/debug/trace/{id}"), b"");
        if status != 200 {
            die(&format!("daemon answered {status}: {}", text.trim_end()));
        }
        let root = tagstudy::Json::parse(&text).unwrap_or_else(|why| die(&why));
        let record = TraceRecord::from_json(&root).unwrap_or_else(|why| die(&why));
        if chrome {
            print!("{}", chrome_trace_json(&[record]));
        } else {
            print!("{}", record.render_tree());
        }
        return;
    }
    if chrome {
        // The daemon already speaks trace-event JSON; pass it through.
        let (status, text) = call(addr, "GET", "/v1/debug/trace?format=chrome", b"");
        if status != 200 {
            die(&format!("daemon answered {status}: {}", text.trim_end()));
        }
        print!("{text}");
        return;
    }
    let (status, text) = call(addr, "GET", "/v1/debug/trace", b"");
    if status != 200 {
        die(&format!("daemon answered {status}: {}", text.trim_end()));
    }
    let snapshot = RecorderSnapshot::from_json(&text).unwrap_or_else(|why| die(&why));
    println!(
        "flight recorder: {} completed, {} evicted, {} slow (threshold {}ms), {} span(s) dropped",
        snapshot.stats.completed,
        snapshot.stats.evicted,
        snapshot.stats.slow,
        snapshot.slow_threshold_us / 1000,
        snapshot.stats.dropped_spans,
    );
    let traces = if slow {
        &snapshot.slow
    } else {
        &snapshot.recent
    };
    if traces.is_empty() {
        println!(
            "(no {} traces recorded)",
            if slow { "slow" } else { "recent" }
        );
        return;
    }
    for record in traces {
        println!();
        print!("{}", record.render_tree());
    }
}

/// Seconds → a human duration (the quantile gauges are in seconds).
fn fmt_secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2}s")
    } else if v >= 0.001 {
        format!("{:.2}ms", v * 1000.0)
    } else {
        format!("{:.0}\u{b5}s", v * 1_000_000.0)
    }
}

/// Extract the per-endpoint latency table from one `/metrics` scrape.
fn render_top(metrics: &str) -> String {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<String, (u64, [Option<f64>; 3])> = BTreeMap::new();
    let mut in_flight = 0u64;
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("daemon_requests_in_flight ") {
            in_flight = rest.trim().parse::<f64>().unwrap_or(0.0) as u64;
        } else if let Some(rest) =
            line.strip_prefix("daemon_request_duration_seconds_count{endpoint=\"")
        {
            if let Some((endpoint, value)) = rest.split_once("\"} ") {
                rows.entry(endpoint.to_string()).or_default().0 = value.trim().parse().unwrap_or(0);
            }
        } else if let Some(rest) =
            line.strip_prefix("daemon_request_latency_quantile_seconds{endpoint=\"")
        {
            if let Some((endpoint, rest)) = rest.split_once("\",quantile=\"") {
                if let Some((quantile, value)) = rest.split_once("\"} ") {
                    let slot = match quantile {
                        "0.5" => 0,
                        "0.9" => 1,
                        "0.99" => 2,
                        _ => continue,
                    };
                    rows.entry(endpoint.to_string()).or_default().1[slot] =
                        value.trim().parse().ok();
                }
            }
        }
    }
    let mut out = format!(
        "{} endpoint(s), {} request(s) in flight\n{:<28} {:>8} {:>9} {:>9} {:>9}\n",
        rows.len(),
        in_flight,
        "ENDPOINT",
        "COUNT",
        "P50",
        "P90",
        "P99"
    );
    for (endpoint, (count, quantiles)) in &rows {
        let q = |slot: usize| quantiles[slot].map_or("-".to_string(), fmt_secs);
        out.push_str(&format!(
            "{endpoint:<28} {count:>8} {:>9} {:>9} {:>9}\n",
            q(0),
            q(1),
            q(2)
        ));
    }
    out
}

fn top(addr: &str, watch: Option<u64>) {
    loop {
        let (status, text) = call(addr, "GET", "/metrics", b"");
        if status != 200 {
            die(&format!("daemon answered {status}: {}", text.trim_end()));
        }
        print!("{}", render_top(&text));
        let Some(secs) = watch else { return };
        println!("--- next refresh in {secs}s ---");
        std::thread::sleep(Duration::from_secs(secs));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = cli::parse(&args).unwrap_or_else(|why| {
        eprintln!("tagctl: {why}\n");
        usage();
    });
    let addr = invocation
        .addr
        .or_else(|| std::env::var("TAGSTUDYD_ADDR").ok())
        .unwrap_or_else(|| DEFAULT_ADDR.to_string());
    match invocation.command {
        Command::Help => usage(),
        Command::Submit { json, specs } => submit(&addr, json, &specs),
        Command::Result { key } => {
            let (status, text) = call(&addr, "GET", &format!("/v1/results/{key}"), b"");
            if status != 200 {
                die(&format!("daemon answered {status}: {}", text.trim_end()));
            }
            print!("{text}");
        }
        Command::Metrics { watch } => metrics(&addr, watch),
        Command::Health => {
            let (status, text) = call(&addr, "GET", "/healthz", b"");
            print!("{text}");
            exit(i32::from(status != 200));
        }
        Command::Shutdown => {
            let (status, text) = call(&addr, "POST", "/v1/shutdown", b"");
            print!("{text}");
            exit(i32::from(status != 200));
        }
        Command::Fuzz(fuzz_args) => exit(fleet::run_fuzz(&addr, &fuzz_args)),
        Command::Trace { chrome, slow, id } => trace_cmd(&addr, chrome, slow, id.as_deref()),
        Command::Top { watch } => top(&addr, watch),
    }
}
