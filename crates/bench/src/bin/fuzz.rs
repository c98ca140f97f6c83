//! In-process differential-fuzzing campaign: the fleet engine over
//! [`synth::fleet::LocalRunner`], without a daemon.
//!
//! ```text
//! fuzz [--smoke] [--seed-base K] [--axis-points N] [--per-cell N]
//!      [--max-programs N] [--witness-dir DIR] [--out PATH]
//! ```
//!
//! Every generated program fans across the full 24-configuration oracle
//! matrix × both backends (fast and ref), and every column is diffed against
//! the reference evaluator. The run fails (exit 1) unless the campaign
//! saturates its coverage ledger with **zero divergences** — the executable
//! form of the paper's claim that all tagging schemes compute the same
//! values, differing only in cost.
//!
//! `--smoke` shrinks the campaign (3 cells × 2 programs) for CI; the seed
//! schedule is deterministic, so even the smoke campaign is reproducible
//! bit-for-bit. The campaign report lands as JSON at `--out` and the
//! coverage ledger persists under `--witness-dir` for artifact upload.

use std::path::PathBuf;

use store::fuzz::FuzzStore;
use synth::fleet::{run_campaign, CampaignSpec, LocalRunner};

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--smoke] [--seed-base K] [--axis-points N] [--per-cell N] \
         [--max-programs N] [--witness-dir DIR] [--out PATH]"
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

fn main() {
    let mut spec = CampaignSpec::full();
    let mut witness_dir = PathBuf::from("witnesses");
    let mut out_path = "BENCH_fuzz_campaign.json".to_string();

    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                let full = std::mem::replace(&mut spec, CampaignSpec::smoke());
                spec.seed_base = full.seed_base;
            }
            "--seed-base" => {
                spec.seed_base = parse_num(&next_arg(&mut args, "--seed-base"), "--seed-base");
            }
            "--axis-points" => {
                spec.axis_points =
                    parse_num(&next_arg(&mut args, "--axis-points"), "--axis-points");
            }
            "--per-cell" => {
                spec.per_cell = parse_num(&next_arg(&mut args, "--per-cell"), "--per-cell");
            }
            "--max-programs" => {
                spec.max_programs = Some(parse_num(
                    &next_arg(&mut args, "--max-programs"),
                    "--max-programs",
                ));
            }
            "--witness-dir" => witness_dir = PathBuf::from(next_arg(&mut args, "--witness-dir")),
            "--out" => out_path = next_arg(&mut args, "--out"),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }

    let store = FuzzStore::open(&witness_dir).unwrap_or_else(|e| {
        eprintln!("cannot open witness dir {}: {e}", witness_dir.display());
        std::process::exit(1);
    });
    let report = run_campaign(
        &spec,
        &store,
        &mut LocalRunner::default(),
        false,
        &mut |p| {
            eprintln!(
                "[fuzz] cell={} programs={} columns={} divergences={} coverage={:.1}%",
                p.cell, p.programs, p.columns_run, p.divergences, p.coverage_percent
            );
        },
    )
    .unwrap_or_else(|why| {
        eprintln!("fuzz: {why}");
        std::process::exit(1);
    });

    let json = render_json(&report);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    println!("campaign: {}", report.campaign);
    println!(
        "programs={} columns={} divergences={} witnesses={} coverage={:.1}% complete={}",
        report.programs,
        report.columns_run,
        report.divergences,
        report.witnesses.len(),
        report.coverage_percent,
        report.complete
    );
    for key in &report.witnesses {
        println!("witness {key}");
    }
    println!("wrote {out_path}");

    if report.divergences != 0 || !report.complete {
        eprintln!(
            "FAIL: expected a saturated campaign with zero divergences \
             (got {} divergences, complete: {})",
            report.divergences, report.complete
        );
        std::process::exit(1);
    }
}

/// Hand-rendered JSON report (the workspace is std-only).
fn render_json(report: &synth::fleet::CampaignReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"study\": \"fuzz_campaign\",");
    let _ = writeln!(
        out,
        "  \"campaign\": {},",
        tagstudy::json_string(&report.campaign)
    );
    let _ = writeln!(out, "  \"programs\": {},", report.programs);
    let _ = writeln!(out, "  \"columns_run\": {},", report.columns_run);
    let _ = writeln!(out, "  \"columns_skipped\": {},", report.columns_skipped);
    let _ = writeln!(out, "  \"divergences\": {},", report.divergences);
    let _ = writeln!(
        out,
        "  \"coverage_percent\": {:.4},",
        report.coverage_percent
    );
    let _ = writeln!(out, "  \"complete\": {},", report.complete);
    let _ = writeln!(
        out,
        "  \"witnesses\": [{}]",
        report
            .witnesses
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "}}");
    out
}
