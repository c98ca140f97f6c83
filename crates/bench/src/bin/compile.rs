//! System-image study: the linked compile (`lisp::compile_unit`, which
//! generates only `main` and the program's own functions and links the
//! prebuilt prelude and runtime in) against the monolithic reference
//! (`lisp::compile_unit_reference`, which generates, schedules and assembles
//! everything on every call), measured as compile wall time.
//!
//! ```text
//! compile [--smoke] [--out PATH]
//! ```
//!
//! Each workload is lowered once, then compiled under all 24 oracle
//! configurations (`tagstudy::Config::matrix`) by both compilers, five times
//! each with the two interleaved; the best (minimum) wall time per
//! configuration and compiler is kept and summed over the configurations.
//! Before timing, each configuration is compiled once both ways: that builds
//! the configuration's image, as the first compile of a process does, and
//! checks that the two programs are identical field by field, and that the
//! linked program's spliced predecode (`CompiledProgram::predecode`) equals
//! the full decode of the reference program. The two predecodes, and the
//! static verification of the linked program (`mipsx::verify`, which every
//! compile runs), are timed the same way as the compiles.
//!
//! Workloads are the paper's ten programs plus 24 generated programs from a
//! fixed-seed stream spread across the list-heavy to arith-heavy op-mix
//! axis. The run fails (exit 1) unless the geometric-mean speed-up over the
//! workloads reaches 1.5x, and records the measurement as JSON
//! (`BENCH_compile_image.json` unless `--out` says otherwise).
//!
//! `--smoke` runs two reps over eight generated programs, for CI.

use std::time::Instant;

use lisp::ast::Unit;
use lisp::{CompiledProgram, Options};
use mipsx::DecodedProgram;
use synth::OpMix;
use tagstudy::Config;

/// Per-configuration repetitions (best-of is kept): full run, `--smoke`.
const REPS: [u32; 2] = [5, 2];
/// Generated programs: full run, `--smoke`.
const SYNTH: [usize; 2] = [24, 8];
/// Seed of the generated-program stream.
const SEED: u64 = 21;
/// The geometric-mean speed-up the linked compile must reach.
const MIN_SPEEDUP: f64 = 1.5;

fn usage() -> ! {
    eprintln!("usage: compile [--smoke] [--out PATH]");
    std::process::exit(2);
}

/// One workload to compile: its lowered unit and per-configuration options.
struct Workload {
    name: String,
    kind: &'static str,
    unit: Unit,
    heap_semi_bytes: u32,
}

/// One measured workload.
struct Row {
    name: String,
    kind: &'static str,
    /// Object words summed over the configurations.
    words: usize,
    ref_secs: f64,
    linked_secs: f64,
    /// Full decode of the reference program and spliced predecode of the
    /// linked one, summed like the compiles.
    ref_decode_secs: f64,
    linked_decode_secs: f64,
    /// `mipsx::verify` of the linked program, summed like the compiles.
    verify_secs: f64,
    /// Configurations whose two predecodes were checked equal.
    decodes_checked: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ref_secs / self.linked_secs
    }
}

/// Whether two compiles produced the same program, field by field.
fn same(a: &CompiledProgram, b: &CompiledProgram) -> bool {
    let (p, q) = (&a.program, &b.program);
    p.insns == q.insns
        && p.annots == q.annots
        && p.entry == q.entry
        && p.data == q.data
        && p.symbols == q.symbols
        && p.symtab == q.symtab
        && a.mem_bytes == b.mem_bytes
        && a.hw == b.hw
        && a.stats == b.stats
        && a.schedule == b.schedule
}

/// The best wall time of `reps` runs of `f`.
fn best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Wall time of one compile.
fn time(
    compile: fn(&Unit, &Options) -> Result<CompiledProgram, lisp::CompileError>,
    unit: &Unit,
    opts: &Options,
) -> f64 {
    let start = Instant::now();
    let compiled = compile(unit, opts);
    let secs = start.elapsed().as_secs_f64();
    assert!(compiled.is_ok(), "a checked workload compiles");
    secs
}

fn measure(w: &Workload, reps: u32) -> Row {
    let mut row = Row {
        name: w.name.clone(),
        kind: w.kind,
        words: 0,
        ref_secs: 0.0,
        linked_secs: 0.0,
        ref_decode_secs: 0.0,
        linked_decode_secs: 0.0,
        verify_secs: 0.0,
        decodes_checked: 0,
    };
    for config in Config::matrix() {
        let opts = Options {
            heap_semi_bytes: w.heap_semi_bytes,
            ..config.to_options()
        };
        let linked = lisp::compile_unit(&w.unit, &opts)
            .unwrap_or_else(|e| panic!("{} {config}: compile failed: {e}", w.name));
        let reference = lisp::compile_unit_reference(&w.unit, &opts)
            .unwrap_or_else(|e| panic!("{} {config}: reference compile failed: {e}", w.name));
        assert!(
            same(&linked, &reference),
            "{} {config}: the linked program differs from the reference",
            w.name
        );
        let full = || DecodedProgram::decode(&reference.program, reference.hw);
        assert!(
            linked.predecode() == full(),
            "{} {config}: the spliced predecode differs from the full decode",
            w.name
        );
        row.decodes_checked += 1;
        row.ref_decode_secs += best_of(reps, full);
        row.linked_decode_secs += best_of(reps, || linked.predecode());
        row.verify_secs += best_of(reps, || mipsx::verify::verify(&linked.program));
        row.words += linked.stats.object_words;
        let (mut best_ref, mut best_linked) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            best_ref = best_ref.min(time(lisp::compile_unit_reference, &w.unit, &opts));
            best_linked = best_linked.min(time(lisp::compile_unit, &w.unit, &opts));
        }
        row.ref_secs += best_ref;
        row.linked_secs += best_linked;
    }
    row
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_compile_image.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    let reps = REPS[usize::from(smoke)];

    let mut workloads = Vec::new();
    for b in programs::all() {
        workloads.push(Workload {
            name: b.name.to_string(),
            kind: "paper",
            unit: lisp::lower_sources(&[lisp::PRELUDE, b.source])
                .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", b.name)),
            heap_semi_bytes: b.heap_semi_bytes,
        });
    }
    for i in 0..SYNTH[usize::from(smoke)] {
        let t = (i % 8) as f64 / 7.0;
        let mix = OpMix::lerp(&OpMix::list_heavy(), &OpMix::arith_heavy(), t);
        let program_seed = SEED.wrapping_mul(1_000_003).wrapping_add(i as u64);
        let source = synth::render(&synth::generate(program_seed, &mix));
        workloads.push(Workload {
            name: format!("synth-{program_seed}"),
            kind: "synth",
            unit: synth::oracle::lower(&source)
                .unwrap_or_else(|e| panic!("synth program {program_seed}: lowering failed: {e}")),
            heap_semi_bytes: Options::default().heap_semi_bytes,
        });
    }

    let mut rows = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let row = measure(w, reps);
        eprintln!(
            "[compile] {}: {} words over 24 configs, reference {:.2} ms, linked {:.2} ms, \
             speed-up {:.2}x; predecode full {:.2} ms, spliced {:.2} ms; verify {:.2} ms",
            row.name,
            row.words,
            row.ref_secs * 1e3,
            row.linked_secs * 1e3,
            row.speedup(),
            row.ref_decode_secs * 1e3,
            row.linked_decode_secs * 1e3,
            row.verify_secs * 1e3
        );
        rows.push(row);
    }

    let geomean_of = |kind: Option<&str>| {
        let picked: Vec<f64> = rows
            .iter()
            .filter(|r| kind.is_none_or(|k| r.kind == k))
            .map(|r| r.speedup().ln())
            .collect();
        (picked.iter().sum::<f64>() / picked.len().max(1) as f64).exp()
    };
    let geomean = geomean_of(None);
    let json = render_json(
        &rows,
        reps,
        geomean,
        geomean_of(Some("paper")),
        geomean_of(Some("synth")),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    println!(
        "compile speed-up: {} workloads x 24 configs x best-of-{reps}, geomean {geomean:.2}x \
         (gate {MIN_SPEEDUP}x)",
        rows.len()
    );
    println!("wrote {out_path}");

    if geomean < MIN_SPEEDUP {
        eprintln!(
            "FAIL: expected linking against the system image to compile >= {MIN_SPEEDUP}x \
             faster than the monolithic reference (got {geomean:.2}x)"
        );
        std::process::exit(1);
    }
}

/// Hand-rendered JSON document for the study (the workspace is std-only).
fn render_json(rows: &[Row], reps: u32, geomean: f64, paper: f64, synth: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"study\": \"compile_image\",");
    let _ = writeln!(
        out,
        "  \"reference\": \"monolithic compile_unit_reference\","
    );
    let _ = writeln!(
        out,
        "  \"linked\": \"compile_unit against the system image\","
    );
    let _ = writeln!(out, "  \"configs\": 24,");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"synth_seed\": {SEED},");
    let _ = writeln!(out, "  \"min_speedup\": {MIN_SPEEDUP},");
    let _ = writeln!(out, "  \"geomean_speedup\": {geomean:.4},");
    let _ = writeln!(out, "  \"paper_geomean_speedup\": {paper:.4},");
    let _ = writeln!(out, "  \"synth_geomean_speedup\": {synth:.4},");
    let _ = writeln!(
        out,
        "  \"predecodes_checked\": {},",
        rows.iter().map(|r| r.decodes_checked).sum::<usize>()
    );
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"words\": {}, \"ref_ms\": {:.4}, \
             \"linked_ms\": {:.4}, \"speedup\": {:.4}, \"ref_predecode_ms\": {:.4}, \
             \"linked_predecode_ms\": {:.4}, \"verify_ms\": {:.4}, \"predecodes_checked\": {}}}{comma}",
            r.name,
            r.kind,
            r.words,
            r.ref_secs * 1e3,
            r.linked_secs * 1e3,
            r.speedup(),
            r.ref_decode_secs * 1e3,
            r.linked_decode_secs * 1e3,
            r.verify_secs * 1e3,
            r.decodes_checked
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
