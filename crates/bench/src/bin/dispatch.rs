//! Dispatch-speedup study: the predecoded micro-op `FastCpu` against the
//! decode-on-step reference interpreter `RefCpu`, measured as simulated
//! cycles per wall-clock second over real benchmark workloads.
//!
//! ```text
//! dispatch [--programs a,b,c] [--reps N] [--min-speedup X] [--out PATH] [--smoke]
//! ```
//!
//! Each program is compiled once and then run to completion on both backends
//! `--reps` times; the best (minimum) wall time per backend is kept, so noise
//! from a loaded host only ever *understates* throughput. Cycle counts come
//! from the simulator's own `Stats` and are asserted identical across
//! backends — the speedup is a pure host-dispatch ratio, never a workload
//! difference.
//!
//! The run fails (exit 1) unless the geometric-mean speedup across the
//! measured programs reaches `--min-speedup` (default 5), and records the
//! whole measurement as JSON for the benchmark trail.
//!
//! `--smoke` shrinks the sweep to two reps for CI; the workload list stays
//! full so the geomean keeps the arithmetic-heavy end's margin over the gate.

use mipsx::Backend;
use std::time::Instant;

/// Default per-program repetitions (best-of is kept).
const DEFAULT_REPS: u32 = 3;
/// Default geometric-mean speedup gate.
const DEFAULT_MIN_SPEEDUP: f64 = 5.0;
/// Default workload list: all ten benchmarks, so the geomean spans the
/// paper's full op-mix range rather than one workload's dispatch profile.
const DEFAULT_PROGRAMS: &str = "inter,deduce,dedgc,rat,comp,opt,frl,boyer,brow,trav";

fn usage() -> ! {
    eprintln!(
        "usage: dispatch [--programs a,b,c] [--reps N] [--min-speedup X] \
         [--out PATH] [--smoke]"
    );
    std::process::exit(2);
}

fn next_arg(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    })
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: not a number: {text:?}");
        usage()
    })
}

/// One measured workload.
struct Row {
    name: &'static str,
    cycles: u64,
    ref_secs: f64,
    fast_secs: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ref_secs / self.fast_secs
    }
    /// Simulated megacycles per wall-clock second.
    fn mcps(&self, secs: f64) -> f64 {
        self.cycles as f64 / secs / 1e6
    }
}

/// Best-of-`reps` wall time for running `compiled` on `backend`, plus the
/// cycle count the run reports.
fn time_backend(compiled: &lisp::CompiledProgram, backend: Backend, reps: u32) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = lisp::run_with(compiled, backend, programs::FUEL)
            .unwrap_or_else(|e| panic!("{backend}: run failed: {e:?}"));
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        cycles = outcome.stats.cycles;
    }
    (best, cycles)
}

fn main() {
    let mut reps = DEFAULT_REPS;
    let mut min_speedup = DEFAULT_MIN_SPEEDUP;
    let mut program_list = DEFAULT_PROGRAMS.to_string();
    let mut out_path = "BENCH_dispatch_speedup.json".to_string();

    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--programs" => program_list = next_arg(&mut args, "--programs"),
            "--reps" => reps = parse_num(&next_arg(&mut args, "--reps"), "--reps"),
            "--min-speedup" => {
                min_speedup = parse_num(&next_arg(&mut args, "--min-speedup"), "--min-speedup");
            }
            "--out" => out_path = next_arg(&mut args, "--out"),
            "--smoke" => reps = 2,
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    if reps == 0 {
        eprintln!("need at least 1 rep");
        usage();
    }

    let mut rows: Vec<Row> = Vec::new();
    for name in program_list.split(',').map(str::trim) {
        let b = programs::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown benchmark {name:?}");
            usage()
        });
        let compiled = b
            .compile(&lisp::Options::default())
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        let (ref_secs, ref_cycles) = time_backend(&compiled, Backend::Ref, reps);
        let (fast_secs, fast_cycles) = time_backend(&compiled, Backend::Fast, reps);
        assert_eq!(
            ref_cycles, fast_cycles,
            "{name}: backends disagree on cycle count"
        );
        let row = Row {
            name: b.name,
            cycles: fast_cycles,
            ref_secs,
            fast_secs,
        };
        eprintln!(
            "[dispatch] {}: {} cycles, ref {:.1} Mc/s, fast {:.1} Mc/s, speedup {:.2}x",
            row.name,
            row.cycles,
            row.mcps(row.ref_secs),
            row.mcps(row.fast_secs),
            row.speedup()
        );
        rows.push(row);
    }
    if rows.is_empty() {
        eprintln!("no programs measured");
        usage();
    }

    let geomean = (rows.iter().map(|r| r.speedup().ln()).sum::<f64>() / rows.len() as f64).exp();

    let json = render_json(&rows, reps, min_speedup, geomean);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    println!(
        "dispatch speedup: {} programs x best-of-{reps}, geomean {geomean:.2}x (gate {min_speedup}x)",
        rows.len()
    );
    println!("wrote {out_path}");

    if geomean < min_speedup {
        eprintln!(
            "FAIL: expected the predecoded backend to dispatch >= {min_speedup}x faster than \
             the reference interpreter (got {geomean:.2}x)"
        );
        std::process::exit(1);
    }
}

/// Hand-rendered JSON document for the study (the workspace is std-only).
fn render_json(rows: &[Row], reps: u32, min_speedup: f64, geomean: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"study\": \"dispatch_speedup\",");
    let _ = writeln!(out, "  \"ref\": \"decode-on-step RefCpu\",");
    let _ = writeln!(out, "  \"fast\": \"predecoded micro-op FastCpu\",");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"min_speedup\": {min_speedup},");
    let _ = writeln!(out, "  \"geomean_speedup\": {geomean:.4},");
    let _ = writeln!(out, "  \"programs\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"cycles\": {}, \"ref_secs\": {:.6}, \
             \"fast_secs\": {:.6}, \"ref_mcps\": {:.3}, \"fast_mcps\": {:.3}, \
             \"speedup\": {:.4}}}{comma}",
            r.name,
            r.cycles,
            r.ref_secs,
            r.fast_secs,
            r.mcps(r.ref_secs),
            r.mcps(r.fast_secs),
            r.speedup()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
