//! Hardware study: one benchmark under every hardware support level of the
//! paper's Table 2 — from stock RISC to the maximal tagged configuration.
//!
//! Run with: `cargo run --release --example hardware_study [benchmark]`

use tags_repro::mipsx::{HwConfig, ParallelCheck};
use tags_repro::tagstudy::{CheckingMode, Config, Session};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "deduce".to_string());
    if tags_repro::programs::by_name(&name).is_none() {
        eprintln!("unknown benchmark {name}");
        std::process::exit(1);
    }

    let rows: Vec<(&str, HwConfig)> = vec![
        ("stock RISC (baseline)", HwConfig::plain()),
        ("loads/stores ignore tags", HwConfig::with_address_drop(5)),
        ("tag-field branch", HwConfig::with_tag_branch()),
        (
            "both of the above",
            HwConfig {
                tag_branch: true,
                ..HwConfig::with_address_drop(5)
            },
        ),
        ("generic-arithmetic traps", HwConfig::with_generic_arith()),
        (
            "checked list access",
            HwConfig::with_parallel_check(ParallelCheck::Lists),
        ),
        (
            "checked all access",
            HwConfig::with_parallel_check(ParallelCheck::All),
        ),
        ("maximal (paper row 7)", HwConfig::maximal(5)),
        ("SPUR-like (§7)", HwConfig::spur(5)),
    ];

    // Batch all nine configurations up front so the session's worker pool can
    // measure them concurrently.
    let session = Session::new();
    let requests: Vec<(&str, Config)> = rows
        .iter()
        .map(|(_, hw)| {
            (
                name.as_str(),
                Config::baseline(CheckingMode::Full).with_hw(*hw),
            )
        })
        .collect();
    let measurements = session.measure_many(&requests).expect("benchmarks run");

    println!("benchmark: {name} (HighTag5, full run-time checking)\n");
    println!(
        "{:<28} {:>12} {:>10} {:>8} {:>7}",
        "hardware", "cycles", "saved", "traps", "noops"
    );
    let mut base = None;
    for ((label, _), m) in rows.iter().zip(&measurements) {
        let b = *base.get_or_insert(m.stats.cycles);
        let saved = 100.0 * (b as f64 - m.stats.cycles as f64) / b as f64;
        println!(
            "{label:<28} {:>12} {saved:>9.2}% {:>8} {:>7}",
            m.stats.cycles,
            m.stats.traps,
            m.stats.class_count(tags_repro::mipsx::InsnClass::Nop),
        );
    }
    println!("\n('saved' is the paper's Table 2 metric: % of baseline cycles eliminated)");
    eprint!("{}", session.summary());
}
