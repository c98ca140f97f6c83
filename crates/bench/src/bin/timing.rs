//! Timing-realism study: re-run the scheme × checking × hardware grid under
//! the microarchitectural timing presets and report where stalls change the
//! paper's rankings.
//!
//! ```text
//! timing [--programs a,b,c] [--presets p1,p2] [--out PATH] [--smoke]
//! ```
//!
//! Every grid cell is measured under each preset through one
//! [`tagstudy::Session`], so the `ideal` column reuses exactly the
//! architectural measurements the tables are built from. For each non-ideal
//! cell the binary asserts, to the cycle, that the stall breakdown reconciles
//! (`timed = architectural + icache + dcache + mispredict + load-use`) and
//! that the predecoded and reference backends produce an identical breakdown
//! (sampled per program). It then ranks the schemes within each
//! (checking, hardware) group by total cycles — architectural vs timed — and
//! prints every group whose order changes: the "ranking flips" table.
//!
//! The whole measurement lands in `--out` (default `BENCH_timing_grid.json`)
//! for the benchmark trail. `--smoke` shrinks the workload list for CI; the
//! asserts all stay on.

use std::collections::BTreeMap;

use lisp::CheckingMode;
use mipsx::{Backend, HwConfig, StallCause, TimingConfig, ALL_STALL_CAUSES};
use tagstudy::{Config, Measurement};
use tagword::TagScheme;

/// Default workload list: all ten benchmarks, matching `all_experiments`.
const DEFAULT_PROGRAMS: &str = "inter,deduce,dedgc,rat,comp,opt,frl,boyer,brow,trav";
/// Smoke workload list: the cheapest pair that still exercises both a
/// list-heavy and an arithmetic-heavy op mix.
const SMOKE_PROGRAMS: &str = "frl,trav";
/// Default preset sweep. `ideal` must come first: it is the baseline the
/// flips table compares against.
const DEFAULT_PRESETS: &str = "ideal,classic5,modern";

fn usage() -> ! {
    eprintln!("usage: timing [--programs a,b,c] [--presets p1,p2] [--out PATH] [--smoke]");
    std::process::exit(2);
}

fn next_arg(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    })
}

/// The hardware levels of the grid, by spec-grammar name.
fn hw_levels(scheme: TagScheme) -> [(&'static str, HwConfig); 3] {
    [
        ("plain", HwConfig::plain()),
        ("tagbr", HwConfig::with_tag_branch()),
        ("maximal", HwConfig::maximal(scheme.tag_bits())),
    ]
}

/// One measured grid cell under one preset.
struct Cell {
    program: String,
    scheme: TagScheme,
    checking: CheckingMode,
    hw: &'static str,
    preset: &'static str,
    cycles: u64,
    timed_cycles: u64,
    stalls: [u64; 4],
    timing: Option<mipsx::TimingStats>,
}

/// Assert the acceptance criterion: the stall breakdown accounts for every
/// timed cycle, with nothing lost or invented.
fn assert_reconciles(m: &Measurement) -> (u64, [u64; 4]) {
    match &m.stats.timing {
        None => {
            assert!(
                m.config.timing.is_ideal(),
                "{}/{}: non-ideal timing produced no stall breakdown",
                m.program,
                m.config
            );
            (m.stats.cycles, [0; 4])
        }
        Some(t) => {
            let stalls: Vec<u64> = ALL_STALL_CAUSES.iter().map(|&c| t.stall(c)).collect();
            let timed = t.timed_cycles(m.stats.cycles);
            assert_eq!(
                timed,
                m.stats.cycles + stalls.iter().sum::<u64>(),
                "{}/{}: stall breakdown does not reconcile to the cycle",
                m.program,
                m.config
            );
            (timed, [stalls[0], stalls[1], stalls[2], stalls[3]])
        }
    }
}

/// Backend equivalence: the stall breakdown is a function of the retirement
/// stream, which every backend produces identically — so the full
/// `TimingStats` must match between the predecoded and reference executors.
fn assert_backend_equivalence(session: &tagstudy::Session, program: &str, config: Config) {
    let fast = session
        .measure_uncached(program, config.with_backend(Backend::Fast))
        .unwrap_or_else(|e| panic!("{program}: fast backend failed: {e}"));
    let reference = session
        .measure_uncached(program, config.with_backend(Backend::Ref))
        .unwrap_or_else(|e| panic!("{program}: ref backend failed: {e}"));
    assert_eq!(
        fast.stats.cycles, reference.stats.cycles,
        "{program}: cycles"
    );
    assert_eq!(
        fast.stats.timing, reference.stats.timing,
        "{program} under {config}: backends disagree on the stall breakdown"
    );
}

/// A scheme ranking within one (checking, hardware) group: scheme names in
/// ascending order of total cycles across the measured programs.
fn rank_schemes(totals: &BTreeMap<&'static str, u64>) -> Vec<&'static str> {
    let mut order: Vec<(&'static str, u64)> = totals.iter().map(|(s, c)| (*s, *c)).collect();
    order.sort_by_key(|&(name, cycles)| (cycles, name));
    order.into_iter().map(|(name, _)| name).collect()
}

/// One ranking comparison: a (checking, hardware) group's scheme order under
/// ideal vs one timed preset.
struct Flip {
    preset: &'static str,
    checking: CheckingMode,
    hw: &'static str,
    ideal_order: Vec<&'static str>,
    timed_order: Vec<&'static str>,
}

fn main() {
    let mut program_list = DEFAULT_PROGRAMS.to_string();
    let mut preset_list = DEFAULT_PRESETS.to_string();
    let mut out_path = "BENCH_timing_grid.json".to_string();

    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--programs" => program_list = next_arg(&mut args, "--programs"),
            "--presets" => preset_list = next_arg(&mut args, "--presets"),
            "--out" => out_path = next_arg(&mut args, "--out"),
            "--smoke" => program_list = SMOKE_PROGRAMS.to_string(),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }

    let programs: Vec<&str> = program_list.split(',').map(str::trim).collect();
    for name in &programs {
        if programs::by_name(name).is_none() {
            eprintln!("unknown benchmark {name:?}");
            usage();
        }
    }
    let mut presets: Vec<(&'static str, TimingConfig)> = Vec::new();
    for name in preset_list.split(',').map(str::trim) {
        let Some(config) = TimingConfig::preset(name) else {
            eprintln!(
                "unknown timing preset {name:?} (want one of: {})",
                mipsx::TIMING_PRESETS.join(", ")
            );
            usage()
        };
        presets.push((config.preset_name(), config));
    }
    if !presets.iter().any(|(name, _)| *name == "ideal") {
        // Without the architectural baseline there is nothing to diff the
        // timed rankings against.
        presets.insert(0, ("ideal", TimingConfig::ideal()));
    }

    let session = bench::session();
    let mut cells: Vec<Cell> = Vec::new();
    for &(preset, timing) in &presets {
        // One batch per preset so the session's worker pool sees the whole
        // grid at once.
        let mut requests: Vec<(&str, Config)> = Vec::new();
        for &program in &programs {
            for scheme in tagword::ALL_SCHEMES {
                for checking in [CheckingMode::None, CheckingMode::Full] {
                    for (_, hw) in hw_levels(scheme) {
                        let config = Config::new(scheme, checking)
                            .with_hw(hw)
                            .with_timing(timing);
                        requests.push((program, config));
                    }
                }
            }
        }
        let measured = bench::unwrap_study(session.measure_many(&requests));
        for m in measured {
            let (timed_cycles, stalls) = assert_reconciles(&m);
            let hw = hw_levels(m.config.scheme)
                .iter()
                .find(|(_, h)| *h == m.config.hw)
                .map(|(name, _)| *name)
                .expect("grid hardware level");
            cells.push(Cell {
                program: m.program.clone(),
                scheme: m.config.scheme,
                checking: m.config.checking,
                hw,
                preset,
                cycles: m.stats.cycles,
                timed_cycles,
                stalls,
                timing: m.stats.timing,
            });
        }
    }

    // Backend equivalence, sampled: every program once per non-ideal preset,
    // at the paper's baseline point.
    for &(preset, timing) in &presets {
        if timing.is_ideal() {
            continue;
        }
        for &program in &programs {
            let config = Config::baseline(CheckingMode::Full).with_timing(timing);
            assert_backend_equivalence(&session, program, config);
            eprintln!("[timing] {program}: fast/ref stall breakdowns identical under {preset}");
        }
    }

    // Per-preset scheme totals within each (checking, hw) group.
    type GroupKey = (&'static str, String, &'static str); // (preset, checking, hw)
    let mut totals: BTreeMap<GroupKey, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for cell in &cells {
        let key = (cell.preset, format!("{:?}", cell.checking), cell.hw);
        *totals
            .entry(key)
            .or_default()
            .entry(cell.scheme.name())
            .or_default() += cell.timed_cycles;
    }

    let mut flips: Vec<Flip> = Vec::new();
    for &(preset, timing) in &presets {
        if timing.is_ideal() {
            continue;
        }
        for checking in [CheckingMode::None, CheckingMode::Full] {
            for (hw, _) in hw_levels(TagScheme::HighTag5) {
                let checking_name = format!("{checking:?}");
                let ideal = &totals[&("ideal", checking_name.clone(), hw)];
                let timed = &totals[&(preset, checking_name, hw)];
                let ideal_order = rank_schemes(ideal);
                let timed_order = rank_schemes(timed);
                if ideal_order != timed_order {
                    flips.push(Flip {
                        preset,
                        checking,
                        hw,
                        ideal_order,
                        timed_order,
                    });
                }
            }
        }
    }

    println!(
        "timing grid: {} programs x {} schemes x 2 checking x 3 hw x {} presets = {} cells",
        programs.len(),
        tagword::ALL_SCHEMES.len(),
        presets.len(),
        cells.len()
    );
    println!("every non-ideal cell's stall breakdown reconciles to the cycle");
    println!();
    if flips.is_empty() {
        println!("ranking flips: none — the scheme order is robust to every measured timing model");
    } else {
        println!("ranking flips (scheme order by total cycles, ideal -> timed):");
        for f in &flips {
            println!(
                "  {:<8} {:<4?}/{:<7}  {}  ->  {}",
                f.preset,
                f.checking,
                f.hw,
                f.ideal_order.join(" < "),
                f.timed_order.join(" < ")
            );
        }
    }

    let json = render_json(&programs, &presets, &cells, &flips);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!();
    println!("wrote {out_path}");
    bench::report_session(&session);
}

/// Hand-rendered JSON document for the study (the workspace is std-only).
fn render_json(
    programs: &[&str],
    presets: &[(&'static str, TimingConfig)],
    cells: &[Cell],
    flips: &[Flip],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"study\": \"timing_grid\",");
    let _ = writeln!(
        out,
        "  \"programs\": [{}],",
        programs
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "  \"presets\": [{}],",
        presets
            .iter()
            .map(|(name, _)| format!("\"{name}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"ranking_flips\": [");
    for (i, f) in flips.iter().enumerate() {
        let comma = if i + 1 < flips.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"preset\": \"{}\", \"checking\": \"{:?}\", \"hw\": \"{}\", \
             \"ideal_order\": [{}], \"timed_order\": [{}]}}{comma}",
            f.preset,
            f.checking,
            f.hw,
            f.ideal_order
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", "),
            f.timed_order
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let mut line = format!(
            "    {{\"program\": \"{}\", \"scheme\": \"{}\", \"checking\": \"{:?}\", \
             \"hw\": \"{}\", \"preset\": \"{}\", \"cycles\": {}, \"timed_cycles\": {}",
            c.program,
            c.scheme.name(),
            c.checking,
            c.hw,
            c.preset,
            c.cycles,
            c.timed_cycles
        );
        for (cause, stall) in ALL_STALL_CAUSES.iter().zip(c.stalls) {
            let _ = write!(line, ", \"stall_{}\": {stall}", json_cause(*cause));
        }
        if let Some(t) = &c.timing {
            let _ = write!(
                line,
                ", \"icache_misses\": {}, \"dcache_misses\": {}, \"l2_misses\": {}, \
                 \"branches\": {}, \"mispredicts\": {}",
                t.icache_misses, t.dcache_misses, t.l2_misses, t.branches, t.mispredicts
            );
        }
        let _ = writeln!(out, "{line}}}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Stable JSON field suffix for a stall cause.
fn json_cause(cause: StallCause) -> &'static str {
    match cause {
        StallCause::Icache => "icache",
        StallCause::Dcache => "dcache",
        StallCause::Mispredict => "mispredict",
        StallCause::LoadUse => "load_use",
    }
}
