//! Pins the store's content addresses and canonical encodings byte for byte.
//!
//! The store's cache identity is `StoreKey::compute(source, heap, config)`
//! over the canonical config JSON, and a record's payload embeds `stats_to_json` /
//! `config_to_json` verbatim. Any accidental change to those encodings
//! silently orphans every record on disk (the daemon would re-simulate the
//! world on restart) — so this test pins, against checked-in expected files:
//!
//! - the content address of every benchmark × scheme × checking × hw point,
//! - the canonical config JSON for a representative config set,
//! - the full stats JSON for a handful of actually-simulated cells.
//!
//! To regenerate after an *intentional* format change (which should also bump
//! `FORMAT_VERSION`):
//!
//! ```text
//! UPDATE_EXPECTED=1 cargo test -p store --test pinned_identity
//! ```

use std::fs;
use std::path::PathBuf;

use lisp::CheckingMode;
use mipsx::HwConfig;
use store::record::{config_to_json, measurement_to_json};
use store::StoreKey;
use tagstudy::Config;

fn expected_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/expected/{name}"))
}

/// Compare `got` against the checked-in `name`, honoring `UPDATE_EXPECTED`.
fn assert_pinned(name: &str, got: &str) {
    let path = expected_path(name);
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        fs::write(&path, got).expect("write the expected file");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nseed it with: UPDATE_EXPECTED=1 cargo test -p store",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{} drifted at line {} — stored records would be orphaned; \
             if intentional, bump FORMAT_VERSION and regenerate with UPDATE_EXPECTED=1",
            path.display(),
            i + 1
        );
    }
    assert_eq!(got, want, "{} differs in length", path.display());
}

/// The hardware points the study grid uses, with stable labels.
fn hw_points() -> Vec<(&'static str, HwConfig)> {
    vec![
        ("plain", HwConfig::plain()),
        ("tagbr", HwConfig::with_tag_branch()),
        ("max5", HwConfig::maximal(5)),
    ]
}

fn grid() -> Vec<(String, Config)> {
    let mut out = Vec::new();
    for scheme in tagword::ALL_SCHEMES {
        for checking in [CheckingMode::None, CheckingMode::Full] {
            for (hw_name, hw) in hw_points() {
                let config = Config::new(scheme, checking).with_hw(hw);
                out.push((format!("{scheme}:{checking:?}:{hw_name}"), config));
            }
        }
    }
    out
}

/// Every benchmark × scheme × checking × hw content address, byte for byte.
#[test]
fn content_addresses_are_pinned() {
    let mut lines = String::new();
    for b in programs::all() {
        for (label, config) in grid() {
            let key = StoreKey::compute(b.source, Some(b.heap_semi_bytes), &config);
            lines.push_str(&format!("{}:{label} {key}\n", b.name));
        }
    }
    assert_pinned("pinned_addresses.txt", &lines);
}

/// No two distinct `(program, config)` points of the pinned grid share an
/// address — in particular `dedgc`, which runs `deduce`'s source under a
/// smaller heap, is addressed apart from `deduce`.
#[test]
fn distinct_points_have_distinct_addresses() {
    let mut seen = std::collections::HashMap::new();
    for b in programs::all() {
        for (label, config) in grid() {
            let key = StoreKey::compute(b.source, Some(b.heap_semi_bytes), &config);
            let point = format!("{}:{label}", b.name);
            if let Some(other) = seen.insert(key.clone(), point.clone()) {
                panic!("{point} and {other} share the address {key}");
            }
        }
    }
    assert_eq!(seen.len(), programs::all().len() * grid().len());
}

/// The canonical config encoding the addresses (and payloads) are built from.
#[test]
fn config_json_is_pinned() {
    let mut lines = String::new();
    for (label, config) in grid() {
        lines.push_str(&format!("{label} {}\n", config_to_json(&config)));
    }
    assert_pinned("pinned_config_json.txt", &lines);
}

/// Full measurement JSON (program, config, stats, compile shape, output) for
/// a few simulated cells: pins both the simulator's architectural results and
/// the stats encoding.
#[test]
fn measurement_json_is_pinned() {
    let cells = [
        ("inter", Config::baseline(CheckingMode::None)),
        ("inter", Config::baseline(CheckingMode::Full)),
        (
            "trav",
            Config::baseline(CheckingMode::Full).with_hw(HwConfig::maximal(5)),
        ),
        (
            "boyer",
            Config::new(tagword::TagScheme::LowTag2, CheckingMode::Full),
        ),
    ];
    let mut lines = String::new();
    for (name, config) in cells {
        let m = tagstudy::run_program(name, &config).expect("cell simulates");
        lines.push_str(&format!("{name}:{config} {}\n", measurement_to_json(&m)));
    }
    assert_pinned("pinned_measurements.txt", &lines);
}

/// Every grid point has a lossless name — `maximal(5)` under a scheme of
/// another tag width is spelled as its feature list — so the config name
/// identifies exactly the point its content address was computed from.
#[test]
fn grid_names_are_lossless() {
    let grid = grid();
    let mut names = std::collections::BTreeSet::new();
    for (label, config) in &grid {
        let name = config.name();
        assert_eq!(Config::parse(&name).as_ref(), Ok(config), "{label}: {name}");
        names.insert(name);
    }
    assert_eq!(names.len(), grid.len());
    assert!(names.contains("low2:full:drop5+tagbr+genarith+chkall"));
    assert!(names.contains("high5:none:maximal"));
}
