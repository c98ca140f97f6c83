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
//! - the full stats JSON for a handful of actually-simulated cells,
//! - the full file text the stores write for a measurement record, two
//!   witnesses and a coverage ledger.
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
use mipsx::{Annot, CheckCat, InsnClass, TagOpKind};
use store::fuzz::{CoverageLedger, FuzzStore, Witness};
use store::record::{config_to_json, measurement_to_json};
use store::{ResultStore, StoreKey};
use tagstudy::{Config, Measurement, Timing};

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
    let session = tagstudy::Session::serial();
    let mut lines = String::new();
    for (name, config) in cells {
        let m = session
            .measure_uncached(name, config)
            .expect("cell simulates");
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

/// The full text of the files the stores write: a measurement record (a
/// non-ideal timing model, and `dedgc`'s non-default heap in its address),
/// a witness with an injected fault, an organic witness, and a coverage
/// ledger. Each is written through its store and read back from disk, so
/// the envelope, the payload codec and the write path are pinned together.
#[test]
fn envelopes_are_pinned() {
    let dir =
        std::env::temp_dir().join(format!("tagstudy-pinned-envelopes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let mut stats = mipsx::Stats {
        cycles: 5_000,
        committed: 4_000,
        squashed: 17,
        ..Default::default()
    };
    stats.record(InsnClass::Alu, Annot::NONE, 1);
    stats.record(
        InsnClass::And,
        Annot::checking(TagOpKind::Check, CheckCat::List),
        2,
    );
    stats.record_squashed(Annot::checking(TagOpKind::Check, CheckCat::Vector));
    stats.record_trap(Annot::base(TagOpKind::Generic), 20);
    stats.timing = Some(mipsx::TimingStats {
        stall_icache: 10,
        stall_dcache: 20,
        stall_mispredict: 30,
        stall_load_use: 5,
        icache_accesses: 1000,
        icache_misses: 3,
        dcache_accesses: 200,
        dcache_misses: 2,
        l2_accesses: 5,
        l2_misses: 1,
        branches: 77,
        mispredicts: 4,
    });
    let m = Measurement {
        program: "dedgc".to_string(),
        config: Config::new(tagword::TagScheme::LowTag2, CheckingMode::Full)
            .with_timing(mipsx::TimingConfig::modern()),
        stats,
        compile: lisp::CompileStats {
            procedures: 42,
            source_lines: 314,
            object_words: 2718,
        },
        halt_code: 0,
        output: "(a \"b\")\n".to_string(),
    };
    let t = Timing {
        compile: std::time::Duration::from_nanos(123_456_789),
        simulate: std::time::Duration::from_micros(987_654),
    };
    let results = ResultStore::open(dir.join("results")).unwrap();
    let key = results.put(&m, &t).unwrap();
    let record = fs::read_to_string(dir.join(format!("results/{key}.rec"))).unwrap();

    let fuzz = FuzzStore::open(dir.join("witnesses")).unwrap();
    let faulted = Witness {
        seed: 7,
        mix: "list=4,vector=1,arith=2,branch=2,call=1".to_string(),
        cell: "list@2".to_string(),
        column: "high5:full:maximal:ref".to_string(),
        config: Config::baseline(CheckingMode::Full).with_hw(HwConfig::maximal(5)),
        backend: "ref".to_string(),
        fault: Some("branch-invert:1".to_string()),
        kind: "Halt".to_string(),
        detail: "halt: want 0, got 3".to_string(),
        source: "(defun drive () 7)\n(drive)\n".to_string(),
        forms: 2,
    };
    let organic = Witness {
        seed: 8,
        column: "low2:none:plain:fast".to_string(),
        config: Config::new(tagword::TagScheme::LowTag2, CheckingMode::None),
        backend: "fast".to_string(),
        fault: None,
        kind: "Output".to_string(),
        detail: "output: want \"1\", got \"2\"".to_string(),
        ..faulted.clone()
    };
    let mut ledger = CoverageLedger::new("campaign-abc", 3);
    for cell in ["list@0|a", "list@0|b", "arith@1|a"] {
        ledger.register(cell);
    }
    ledger.bump("list@0|a");
    ledger.bump("list@0|a");
    fuzz.store_ledger(&ledger).unwrap();
    let ledger_text = fs::read_to_string(fuzz.ledger_path()).unwrap();

    let mut lines = format!("== record {key}\n{record}");
    for w in [&faulted, &organic] {
        let key = fuzz.put_witness(w).unwrap();
        let text = fs::read_to_string(dir.join(format!("witnesses/{key}.wit"))).unwrap();
        lines.push_str(&format!("== witness {key}\n{text}"));
    }
    lines.push_str(&format!("== ledger\n{ledger_text}"));
    let _ = fs::remove_dir_all(&dir);
    assert_pinned("pinned_envelopes.txt", &lines);
}
