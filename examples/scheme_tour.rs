//! Scheme tour: run one benchmark under all four tag schemes and both checking
//! modes, and compare cycle counts and tag-handling shares — the heart of the
//! paper's software-vs-software comparison.
//!
//! Run with: `cargo run --release --example scheme_tour [benchmark]`

use tags_repro::mipsx::TagOpKind;
use tags_repro::tagstudy::{CheckingMode, Config, Session};
use tags_repro::tagword::ALL_SCHEMES;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "boyer".to_string());
    if tags_repro::programs::by_name(&name).is_none() {
        eprintln!(
            "unknown benchmark {name}; pick one of: {}",
            tags_repro::programs::all()
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    }

    // One batch of all eight (scheme, mode) points; the session runs them on
    // its worker pool and hands back results in request order.
    let session = Session::new();
    let name_ref = name.as_str();
    let requests: Vec<(&str, Config)> = [CheckingMode::None, CheckingMode::Full]
        .iter()
        .flat_map(|&checking| {
            ALL_SCHEMES
                .into_iter()
                .map(move |scheme| (name_ref, Config::new(scheme, checking)))
        })
        .collect();
    let measurements = session.measure_many(&requests).expect("benchmarks run");
    let mut results = measurements.iter();

    println!("benchmark: {name}\n");
    println!(
        "{:<7} {:<6} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "scheme", "check", "cycles", "insert%", "remove%", "extract%", "check%", "vs high5"
    );
    for checking in [CheckingMode::None, CheckingMode::Full] {
        let mut base_cycles = None;
        for scheme in ALL_SCHEMES {
            let m = results.next().expect("one result per request");
            let base = *base_cycles.get_or_insert(m.stats.cycles);
            let rel = 100.0 * (base as f64 - m.stats.cycles as f64) / base as f64;
            println!(
                "{:<7} {:<6} {:>12} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>+8.2}%",
                scheme.to_string(),
                format!("{checking:?}"),
                m.stats.cycles,
                m.stats.tag_op_percent(TagOpKind::Insert),
                m.stats.tag_op_percent(TagOpKind::Remove),
                m.stats.tag_op_percent(TagOpKind::Extract),
                m.stats.tag_op_percent(TagOpKind::Check),
                rel,
            );
        }
        println!();
    }
    println!("(positive 'vs high5' = cycles saved relative to the paper's baseline scheme)");
    eprint!("{}", session.summary());
}
