//! Mix-sweep study: checking overhead as a function of the operation mix.
//!
//! The paper's Table 1 spread — 6% overhead for list-heavy programs up to 88%
//! for arithmetic-heavy ones — is a statement about *op mixes*, sampled at
//! the ten fixed benchmarks. This study makes the claim continuous: it sweeps
//! a seeded generated workload (`synth`) along the list→arith axis by
//! interpolating the op-mix profile, measures every point with checking off
//! and on, and records the overhead curve as JSON.
//!
//! ```text
//! synth [--points N] [--seeds M] [--seed-base K]
//!       [--scheme high5|high6|low2|low3] [--hw plain|tagbr|genarith|maximal|spur|FEATURES]
//!       [--out PATH] [--smoke]
//! ```
//!
//! Every generated program is registered on the measurement
//! [`Session`] as an inline source, so the sweep rides the
//! same memoizing engine (and the same `inline:<hash>` naming) as the daemon.
//!
//! The run fails (exit 1) unless the curve satisfies the two properties the
//! sweep exists to demonstrate:
//!
//! 1. overhead is monotone non-decreasing along the list→arith axis (within a
//!    small tolerance), and
//! 2. the arith-heavy end's overhead is at least 3× the list-heavy end's.
//!
//! `--smoke` shrinks the sweep (3 points × 2 seeds) for CI; determinism makes
//! even the small sweep reproducible bit-for-bit.

use synth::OpMix;
use tagstudy::{CheckingMode, Config, ConfigFields, InlineProgram, Session};

/// Minimum arith-end : list-end overhead ratio the sweep must exhibit
/// (the paper's own spread is ~15×: 6% to 88%).
const MIN_SPAN: f64 = 3.0;
/// Relative tolerance for the monotonicity check: a point may dip below its
/// predecessor by at most this fraction of the predecessor's overhead.
const MONOTONE_TOLERANCE: f64 = 0.05;

fn usage() -> ! {
    eprintln!(
        "usage: synth [--points N] [--seeds M] [--seed-base K] \
         [--scheme high5|high6|low2|low3] [--hw plain|tagbr|genarith|maximal|spur|FEATURES] \
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

fn parse_or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|message| {
        eprintln!("{message}");
        usage()
    })
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: not a number: {text:?}");
        usage()
    })
}

/// One measured point of the sweep.
struct Point {
    t: f64,
    mix: OpMix,
    none_cycles: u64,
    full_cycles: u64,
}

impl Point {
    /// Checking overhead at this point: extra cycles with checking on,
    /// relative to checking off, aggregated over the point's seeds.
    fn overhead(&self) -> f64 {
        (self.full_cycles as f64 - self.none_cycles as f64) / self.none_cycles as f64
    }
}

fn main() {
    let mut points = 9usize;
    let mut seeds = 6u64;
    let mut seed_base = 0u64;
    let mut scheme = None;
    let mut hw = None;
    let mut out_path = "BENCH_synth_mix_sweep.json".to_string();

    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--points" => points = parse_num(&next_arg(&mut args, "--points"), "--points"),
            "--seeds" => seeds = parse_num(&next_arg(&mut args, "--seeds"), "--seeds"),
            "--seed-base" => {
                seed_base = parse_num(&next_arg(&mut args, "--seed-base"), "--seed-base");
            }
            "--scheme" => scheme = Some(next_arg(&mut args, "--scheme")),
            "--hw" => hw = Some(next_arg(&mut args, "--hw")),
            "--out" => out_path = next_arg(&mut args, "--out"),
            "--smoke" => {
                points = 3;
                seeds = 2;
            }
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    if points < 2 || seeds == 0 {
        eprintln!("need at least 2 points and 1 seed");
        usage();
    }
    let fields = ConfigFields {
        scheme: scheme.as_deref(),
        hw: hw.as_deref(),
        ..ConfigFields::default()
    };
    let config_full = parse_or_usage(fields.resolve());
    let config_none = Config {
        checking: CheckingMode::None,
        ..config_full
    };
    let scheme = config_full.scheme;
    let hw_name = config_full.hw.name(scheme.tag_bits());

    let list_end = OpMix::list_heavy();
    let arith_end = OpMix::arith_heavy();
    let session = Session::new();

    let mut curve: Vec<Point> = Vec::with_capacity(points);
    for i in 0..points {
        let t = i as f64 / (points - 1) as f64;
        let mix = OpMix::lerp(&list_end, &arith_end, t);
        // Register every seed's program, then measure the whole point as one
        // deduplicated batch across both checking modes.
        let names: Vec<String> = (0..seeds)
            .map(|s| {
                let source = synth::render(&synth::generate(seed_base + s, &mix));
                let name = store::inline_name(&source, None);
                session.register_source(&name, InlineProgram::new(source));
                name
            })
            .collect();
        let requests: Vec<(&str, Config)> = names
            .iter()
            .flat_map(|n| [(n.as_str(), config_none), (n.as_str(), config_full)])
            .collect();
        let measurements = bench::unwrap_study(session.measure_many(&requests));
        let mut point = Point {
            t,
            mix,
            none_cycles: 0,
            full_cycles: 0,
        };
        for m in &measurements {
            if m.config == config_none {
                point.none_cycles += m.stats.cycles;
            } else {
                point.full_cycles += m.stats.cycles;
            }
        }
        eprintln!(
            "[synth] t={t:.3} mix=({}) none={} full={} overhead={:+.1}%",
            point.mix,
            point.none_cycles,
            point.full_cycles,
            point.overhead() * 100.0
        );
        curve.push(point);
    }

    let first = curve.first().expect("at least 2 points").overhead();
    let last = curve.last().expect("at least 2 points").overhead();
    let span = last / first;
    let monotone = curve
        .windows(2)
        .all(|w| w[1].overhead() >= w[0].overhead() * (1.0 - MONOTONE_TOLERANCE));

    let json = render_json(&curve, scheme, &hw_name, seeds, seed_base, span, monotone);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    println!(
        "mix sweep: {} points x {} seeds, scheme {}, hw {}",
        points,
        seeds,
        scheme.name(),
        hw_name
    );
    println!(
        "overhead {:.1}% (list-heavy) -> {:.1}% (arith-heavy): span {span:.2}x, monotone: {monotone}",
        first * 100.0,
        last * 100.0
    );
    println!("wrote {out_path}");

    if !monotone || span < MIN_SPAN {
        eprintln!(
            "FAIL: expected a monotone overhead curve spanning >= {MIN_SPAN}x along the \
             list->arith axis (got span {span:.2}x, monotone {monotone})"
        );
        std::process::exit(1);
    }
}

/// Hand-rendered JSON document for the sweep (the workspace is std-only).
#[allow(clippy::too_many_arguments)]
fn render_json(
    curve: &[Point],
    scheme: tagword::TagScheme,
    hw_name: &str,
    seeds: u64,
    seed_base: u64,
    span: f64,
    monotone: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"study\": \"synth_mix_sweep\",");
    let _ = writeln!(out, "  \"axis\": \"list_heavy -> arith_heavy\",");
    let _ = writeln!(out, "  \"scheme\": \"{}\",", scheme.name());
    let _ = writeln!(out, "  \"hw\": \"{hw_name}\",");
    let _ = writeln!(out, "  \"seeds_per_point\": {seeds},");
    let _ = writeln!(out, "  \"seed_base\": {seed_base},");
    let _ = writeln!(out, "  \"span_ratio\": {span:.4},");
    let _ = writeln!(out, "  \"monotone\": {monotone},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in curve.iter().enumerate() {
        let comma = if i + 1 < curve.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"t\": {:.4}, \"mix\": \"{}\", \"none_cycles\": {}, \"full_cycles\": {}, \
             \"overhead\": {:.4}}}{comma}",
            p.t,
            p.mix,
            p.none_cycles,
            p.full_cycles,
            p.overhead()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
