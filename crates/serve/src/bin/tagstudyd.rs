//! `tagstudyd` — serve tag-study experiments over HTTP with a persistent
//! result cache.
//!
//! ```text
//! tagstudyd [--addr HOST:PORT] [--cache-dir DIR] [--no-cache]
//!           [--http-workers N] [--queue N] [--queue-deadline-secs N]
//!           [--trace-capacity N] [--slow-ms N]
//! ```

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use serve::{Server, ServerConfig};
use store::ResultStore;

const DEFAULT_ADDR: &str = "127.0.0.1:7099";
const DEFAULT_CACHE_DIR: &str = "tagstudy-cache";

fn usage() -> ! {
    eprintln!(
        "usage: tagstudyd [--addr HOST:PORT] [--cache-dir DIR] [--no-cache]\n\
         \u{20}                [--http-workers N] [--queue N] [--queue-deadline-secs N]\n\
         \u{20}                [--trace-capacity N] [--slow-ms N]\n\
         \n\
         Serve tag-study experiments over HTTP, write-through caching every\n\
         measurement in DIR (default {DEFAULT_CACHE_DIR}) so a restarted daemon\n\
         answers known batches without simulating. Default address {DEFAULT_ADDR}.\n\
         \n\
         Every request is traced end-to-end; the flight recorder keeps the\n\
         last --trace-capacity completed traces plus requests slower than\n\
         --slow-ms (inspect with `tagctl trace` / GET /v1/debug/trace).\n\
         \n\
         Endpoints: POST /v1/experiments, GET /v1/results/{{key}}, GET /metrics,\n\
         GET /healthz, GET /v1/debug/trace, POST /v1/shutdown. See\n\
         EXPERIMENTS.md for the protocol."
    );
    exit(2);
}

fn parse_or_usage<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("tagstudyd: bad {what}: {e}\n");
        usage()
    })
}

fn main() {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cache_dir = Some(DEFAULT_CACHE_DIR.to_string());
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("tagstudyd: {flag} needs a value\n");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--no-cache" => cache_dir = None,
            "--http-workers" => {
                config.http_workers =
                    parse_or_usage("--http-workers", value("--http-workers").parse::<usize>());
            }
            "--queue" => {
                config.queue_capacity =
                    parse_or_usage("--queue", value("--queue").parse::<usize>());
            }
            "--queue-deadline-secs" => {
                config.queue_deadline = Duration::from_secs(parse_or_usage(
                    "--queue-deadline-secs",
                    value("--queue-deadline-secs").parse::<u64>(),
                ));
            }
            "--trace-capacity" => {
                config.trace_capacity = parse_or_usage(
                    "--trace-capacity",
                    value("--trace-capacity").parse::<usize>(),
                );
            }
            "--slow-ms" => {
                config.slow_threshold = Duration::from_millis(parse_or_usage(
                    "--slow-ms",
                    value("--slow-ms").parse::<u64>(),
                ));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tagstudyd: unknown argument {other:?}\n");
                usage();
            }
        }
    }

    let store = cache_dir.map(|dir| {
        let store = ResultStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("tagstudyd: cannot open cache dir {dir:?}: {e}");
            exit(1);
        });
        eprintln!(
            "[tagstudyd] cache dir {dir} ({} records)",
            store.record_count()
        );
        Arc::new(store)
    });

    let (server, warm) = Server::start(&addr, store, config).unwrap_or_else(|e| {
        eprintln!("tagstudyd: cannot bind {addr}: {e}");
        exit(1);
    });
    if warm.seeded > 0 || warm.skipped > 0 {
        eprintln!(
            "[tagstudyd] warm start: {} measurements preloaded, {} stale records skipped",
            warm.seeded, warm.skipped
        );
    }
    // The one stdout line, for humans and scripts alike (CI greps it).
    println!("tagstudyd listening on http://{}", server.addr());
    server.join();
    eprintln!("[tagstudyd] drained and flushed; bye");
}
