//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <paper_report|fuzz_oracle|daemon_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--plant-fault]
//! ```
//!
//! One run builds its inputs from the seed, sets up (in bursts spread over
//! the run), measures for the given number of seconds, checks every output,
//! and prints provenance, a human-readable metric table and — as the
//! last line — one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones, at a
//! reference machine speed (see `calib.rs`); with
//! `--trace 1` the per-layer ones, from spans the benchmark records around
//! its calls into each layer. `--plant-fault` corrupts one expected result,
//! to prove a wrong output is counted and fails the run.
//!
//! The exit code is 0 only when every check passed. See `README.md` for the
//! metrics, the layer → end-to-end mapping and the recorded baseline.

mod calib;
mod daemon;
mod fuzz;
mod layers;
mod paper;
mod summary;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use summary::{metric, Metric, Tally};
use trace::Tracer;

/// End-to-end metrics (untraced runs), in output order, with units.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), in output order, with units. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("lisp.front.ms", "ms"),
    ("lisp.codegen.ms", "ms"),
    ("mipsx.verify.ms", "ms"),
    ("mipsx.predecode.ms", "ms"),
    ("mipsx.execute.ms", "ms"),
    ("mipsx.execute.cycles", "count"),
    ("mipsx.execute.mcycles_per_s", "Mcycle/s"),
    ("mipsx.timing.ms", "ms"),
    ("mipsx.timing.stall_cycles", "count"),
    ("lisp.eval.ms", "ms"),
    ("synth.gen.ms", "ms"),
    ("tagstudy.session.hits", "count"),
    ("tagstudy.session.misses", "count"),
    ("tagstudy.session.hit_ratio", "share"),
    ("tagstudy.session.busy_s", "s"),
    ("tagstudy.session.pool_utilization", "share"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.load_ms", "ms"),
    ("serve.proto.parse_us", "us"),
    ("serve.warm_tail_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_tail_ms", "ms"),
    ("serve.warm_samples", "count"),
    ("serve.cold_samples", "count"),
    ("serve.warm_alone_tail_ms", "ms"),
    ("serve.warm_behind_cold_tail_ms", "ms"),
    ("serve.warm_behind_cold_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["paper_report", "fuzz_oracle", "daemon_mixed"];

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measuring window.
    pub window: Duration,
    /// Span recorder (disabled in untraced runs).
    pub tracer: Arc<Tracer>,
    /// Corrupt one expected result (the planted-fault check).
    pub plant_fault: bool,
    /// Threads the benchmark may use: the machine's available parallelism.
    pub workers: usize,
    /// Scratch directory under the working directory, removed when the run ends.
    pub work_dir: PathBuf,
}

/// What a workload hands back: its correctness tally, the metrics it
/// measured, and human-readable notes printed above the result line.
pub struct RunOutput {
    /// Checked operations.
    pub tally: Tally,
    /// Measured metrics (end-to-end or per-layer, per the run's mode).
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    plant_fault: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_report|fuzz_oracle|daemon_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--plant-fault]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut plant_fault = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--plant-fault" {
            plant_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".to_string()),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        plant_fault,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = PathBuf::from(format!(
        ".perfbench-work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        tracer: Arc::new(if args.trace {
            Tracer::new()
        } else {
            Tracer::disabled()
        }),
        plant_fault: args.plant_fault,
        workers,
        work_dir: work_dir.clone(),
    };

    println!(
        "provenance: commit={} source_digest={} nproc={workers} workload={} seed={} \
         seconds={} traced={}{}",
        git_commit().unwrap_or_else(|| "none".to_string()),
        source_digest(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.plant_fault {
            " planted_fault=1"
        } else {
            ""
        }
    );

    let workload = || match args.workload.as_str() {
        "paper_report" => paper::run(&ctx),
        "fuzz_oracle" => fuzz::run(&ctx),
        _ => daemon::run(&ctx),
    };
    // Only untraced runs calibrate: their times are the ones reported at the
    // reference speed, and the traced run's spans stay free of the sampler.
    let (out, speed) = if args.trace {
        (workload(), None)
    } else {
        let (out, speed) = calib::during(workload);
        (out, Some(speed))
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    let mut metrics = out.metrics;
    // The end-to-end values as measured, printed beside the scaled ones.
    let mut measured = None;
    if let Some(speed) = speed {
        measured = Some(order_metrics(&END_TO_END, &metrics));
        for m in &mut metrics {
            m.value = at_reference_speed(m, speed.scale());
        }
        println!(
            "calibration: kernel median {:.4} ms over {} runs; times scaled by {:.4} to the \
             reference speed ({} ms)",
            speed.kernel_ms,
            speed.samples,
            speed.scale(),
            calib::REFERENCE_MS
        );
    }
    if args.trace {
        let ledger = trace::Ledger::build(&ctx.tracer.spans());
        print!("{}", ledger.render());
        metrics.push(metric(
            "trace.unattributed_share",
            ledger.unattributed_share(),
            "share",
        ));
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let ordered = order_metrics(wanted, &metrics);

    for note in &out.notes {
        println!("{note}");
    }
    println!("peak RSS {:.1} MB", peak_rss_mb());
    for (i, m) in ordered.iter().enumerate() {
        let raw = measured
            .as_ref()
            .map(|r| format!(" (as measured {:.6})", r[i].value))
            .unwrap_or_default();
        println!("  {:<36} {:>16.6} {}{raw}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {} attempted, {} failed, failed_share {}",
        out.tally.attempted,
        out.tally.failed,
        out.tally.failed_share()
    );
    println!("{}", summary::result_line(out.tally, &ordered));
    if !out.tally.correct() {
        std::process::exit(1);
    }
}

/// `m` at the reference speed, given the run's `scale` (reference kernel
/// time over measured): times shrink by it on a slow machine, rates grow.
fn at_reference_speed(m: &Metric, scale: f64) -> f64 {
    match m.unit {
        "s" | "ms" => m.value * scale,
        "1/s" => m.value / scale,
        _ => m.value,
    }
}

/// `wanted` in order, taking each value from `measured`; a metric the
/// workload did not measure (a layer it does not exercise) reads 0.
fn order_metrics(wanted: &[(&'static str, &'static str)], measured: &[Metric]) -> Vec<Metric> {
    wanted
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| {
                debug_assert_eq!(m.unit, unit, "unit of {name}");
                m.value
            });
            metric(name, value, unit)
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` when the benchmark runs inside
/// a git working tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the path and bytes of every source file the benchmark builds
/// from (`Cargo.toml`, `Cargo.lock`, `crates/`, `perfbench/`): identifies
/// the code that produced a result even where no git metadata exists.
/// Hashed file by file, so the digest costs no memory worth measuring.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for root in ["crates", "perfbench"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        if let Ok(content) = std::fs::read(f) {
            let name = f.to_string_lossy();
            for b in name.bytes().chain([0]).chain(content) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn args_parse_the_full_form() {
        let a = parse_args(&strings(&[
            "--workload",
            "fuzz_oracle",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("fuzz_oracle", 7, 10)
        );
        assert!(a.trace && !a.plant_fault);
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "paper_report",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "paper_report",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "paper_report",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "paper_report",
                "--seed",
                "1",
                "--seconds",
                "1",
            ],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_slow_machine_scales_times_down_and_rates_up() {
        let scale = 0.5;
        assert_eq!(at_reference_speed(&metric("a", 8.0, "ms"), scale), 4.0);
        assert_eq!(at_reference_speed(&metric("b", 2.0, "s"), scale), 1.0);
        assert_eq!(at_reference_speed(&metric("c", 3.0, "1/s"), scale), 6.0);
        assert_eq!(at_reference_speed(&metric("d", 5.0, "count"), scale), 5.0);
    }

    #[test]
    fn unmeasured_metrics_read_zero_in_declared_order() {
        let got = order_metrics(
            &[("a", "ms"), ("b", "count")],
            &[metric("b", 3.0, "count"), metric("extra", 1.0, "s")],
        );
        assert_eq!(got, vec![metric("a", 0.0, "ms"), metric("b", 3.0, "count")]);
    }
}
