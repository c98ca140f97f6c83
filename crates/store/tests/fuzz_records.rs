//! Durability tests for the witness corpus and coverage ledger, mirroring the
//! measurement-record suite: round-trips, stale-version and corruption
//! quarantine, and ledger persistence across store handles (a restarted
//! campaign).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use store::fuzz::{CoverageLedger, FuzzStore, Witness, FUZZ_FORMAT_VERSION};
use tagstudy::{CheckingMode, Config};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "tagstudy-fuzz-test-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn witness(seed: u64, kind: &str) -> Witness {
    Witness {
        seed,
        mix: "list=4,vector=1,arith=2,branch=2,call=1".to_string(),
        cell: "list@2".to_string(),
        column: "high5:full:maximal:ref".to_string(),
        config: Config::baseline(CheckingMode::Full),
        backend: "ref".to_string(),
        fault: Some("branch-invert:1".to_string()),
        kind: kind.to_string(),
        detail: "halt: want 0, got 3".to_string(),
        source: format!("(defun drive () {seed})\n(drive)\n"),
        forms: 2,
    }
}

/// The one witness file in `dir` (fails the test if there isn't exactly one).
fn only_witness(dir: &std::path::Path) -> PathBuf {
    let wits: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "wit"))
        .collect();
    assert_eq!(wits.len(), 1, "want exactly one witness, got {wits:?}");
    wits.into_iter().next().unwrap()
}

#[test]
fn witness_round_trip_and_content_addressing() {
    let scratch = Scratch::new("wit-roundtrip");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let w = witness(7, "Halt");

    let key = store.put_witness(&w).unwrap();
    assert_eq!(key, w.key());
    assert_eq!(store.get_witness(&key).as_ref(), Some(&w));

    // Archiving the same divergence again deduplicates: same address, still
    // one file on disk.
    assert_eq!(store.put_witness(&w).unwrap(), key);
    assert_eq!(store.witness_count(), 1);

    // A different kind of divergence of the same source is a distinct record.
    let w2 = witness(7, "Output");
    let key2 = store.put_witness(&w2).unwrap();
    assert_ne!(key2, key);
    assert_eq!(store.witness_count(), 2);

    // A restarted campaign sees both, deterministically ordered by key.
    let store2 = FuzzStore::open(&scratch.0).unwrap();
    let loaded = store2.load_witnesses();
    assert_eq!(loaded.len(), 2);
    assert!(loaded.windows(2).all(|p| p[0].0.as_str() < p[1].0.as_str()));
    assert_eq!(store2.quarantine_count(), 0);
}

#[test]
fn stale_witness_format_version_is_quarantined() {
    let scratch = Scratch::new("wit-version");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let key = store.put_witness(&witness(1, "Census")).unwrap();

    let path = only_witness(&scratch.0);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(
        &path,
        text.replacen(
            &format!("\"format_version\":{FUZZ_FORMAT_VERSION}"),
            &format!("\"format_version\":{}", FUZZ_FORMAT_VERSION + 1),
            1,
        ),
    )
    .unwrap();

    assert!(store.get_witness(&key).is_none(), "stale version untrusted");
    assert_eq!(store.quarantine_count(), 1);
    assert_eq!(store.witness_count(), 0, "moved out of the namespace");
    // Not fatal: re-archiving heals the corpus.
    store.put_witness(&witness(1, "Census")).unwrap();
    assert!(store.get_witness(&key).is_some());
}

#[test]
fn truncated_and_bit_flipped_witnesses_are_quarantined() {
    for (tag, corrupt) in [
        (
            "truncate",
            &(|text: &str| text[..text.len() / 3].to_string()) as &dyn Fn(&str) -> String,
        ),
        ("bitflip", &|text: &str| {
            // Flip the recorded halt detail — checksum must catch it.
            text.replacen("got 3", "got 4", 1)
        }),
    ] {
        let scratch = Scratch::new(&format!("wit-{tag}"));
        let store = FuzzStore::open(&scratch.0).unwrap();
        let key = store.put_witness(&witness(9, "Halt")).unwrap();

        let path = only_witness(&scratch.0);
        let text = fs::read_to_string(&path).unwrap();
        let mangled = corrupt(&text);
        assert_ne!(mangled, text, "{tag}: corruption must change the file");
        fs::write(&path, mangled).unwrap();

        assert!(store.get_witness(&key).is_none(), "{tag}: not served");
        assert_eq!(store.quarantine_count(), 1, "{tag}");
        assert!(store.load_witnesses().is_empty(), "{tag}");
    }
}

#[test]
fn witness_filed_under_wrong_key_is_quarantined() {
    let scratch = Scratch::new("wit-misfiled");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let w = witness(3, "Output");
    store.put_witness(&w).unwrap();

    // Rename the record to a different (valid-looking) address, as a buggy
    // or malicious mirror might.
    let path = only_witness(&scratch.0);
    let bogus = scratch.0.join(format!("{}.wit", "ab".repeat(16)));
    fs::rename(&path, &bogus).unwrap();

    assert!(store.load_witnesses().is_empty(), "misfiled record dropped");
    assert_eq!(store.quarantine_count(), 1);
}

#[test]
fn ledger_round_trip_and_resume_semantics() {
    let scratch = Scratch::new("ledger-roundtrip");
    let store = FuzzStore::open(&scratch.0).unwrap();
    assert!(store.load_ledger().is_none(), "fresh store has no ledger");

    let mut ledger = CoverageLedger::new("campaign-abc", 3);
    for cell in ["list@0|a", "list@0|b", "arith@1|a", "arith@1|b"] {
        ledger.register(cell);
    }
    assert_eq!(ledger.coverage_percent(), 0.0);
    assert!(!ledger.complete());

    ledger.bump("list@0|a");
    ledger.bump("list@0|a");
    ledger.bump("list@0|a");
    ledger.bump("list@0|b");
    assert!(ledger.is_saturated("list@0|a"));
    assert!(!ledger.is_saturated("list@0|b"));
    assert_eq!(ledger.covered_runs(), 4);
    store.store_ledger(&ledger).unwrap();

    // A restarted campaign (fresh handle on the same dir) resumes the books.
    let store2 = FuzzStore::open(&scratch.0).unwrap();
    let resumed = store2.load_ledger().expect("persisted ledger loads");
    assert_eq!(resumed, ledger);
    assert_eq!(resumed.campaign(), "campaign-abc");
    assert_eq!(resumed.count("list@0|a"), 3);
    assert_eq!(resumed.count("never-registered"), 0);

    // Saturate everything: coverage hits 100% and the ledger reports done.
    let mut full = resumed;
    let cells: Vec<String> = full.cells().map(|(c, _)| c.to_string()).collect();
    for cell in &cells {
        while !full.is_saturated(cell) {
            full.bump(cell);
        }
    }
    assert_eq!(full.coverage_percent(), 100.0);
    assert!(full.complete());

    // Counts past the target don't inflate coverage.
    full.bump("list@0|a");
    assert_eq!(full.coverage_percent(), 100.0);

    store.reset_ledger();
    assert!(store.load_ledger().is_none(), "reset removes the books");
}

#[test]
fn corrupt_or_stale_ledger_is_quarantined_not_trusted() {
    for (tag, corrupt) in [
        (
            "bitflip",
            &(|text: &str| text.replacen("\"list@0|a\",2", "\"list@0|a\",7", 1))
                as &dyn Fn(&str) -> String,
        ),
        ("stale", &|text: &str| {
            text.replacen(
                &format!("\"format_version\":{FUZZ_FORMAT_VERSION}"),
                &format!("\"format_version\":{}", FUZZ_FORMAT_VERSION + 1),
                1,
            )
        }),
        ("truncate", &|text: &str| text[..text.len() / 2].to_string()),
    ] {
        let scratch = Scratch::new(&format!("ledger-{tag}"));
        let store = FuzzStore::open(&scratch.0).unwrap();
        let mut ledger = CoverageLedger::new("campaign-abc", 5);
        ledger.register("list@0|a");
        ledger.bump("list@0|a");
        ledger.bump("list@0|a");
        store.store_ledger(&ledger).unwrap();

        let path = store.ledger_path();
        let text = fs::read_to_string(&path).unwrap();
        let mangled = corrupt(&text);
        assert_ne!(mangled, text, "{tag}: corruption must change the file");
        fs::write(&path, mangled).unwrap();

        // An untrusted ledger is quarantined; the campaign restarts its
        // books from zero rather than fuzzing against forged counts.
        assert!(store.load_ledger().is_none(), "{tag}: not trusted");
        assert_eq!(store.quarantine_count(), 1, "{tag}");
        assert!(!path.exists(), "{tag}: moved out of the way");
    }
}

/// A stored witness naming the removed `classic` interpreter still loads (the
/// record itself is intact), but asking for its replay configuration is an
/// error naming the backend — never a panic, never another backend.
#[test]
fn witness_naming_classic_loads_but_has_no_replay_config() {
    let scratch = Scratch::new("wit-classic");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let w = Witness {
        column: "high5:full:maximal:classic".to_string(),
        backend: "classic".to_string(),
        ..witness(11, "Halt")
    };
    let key = store.put_witness(&w).unwrap();
    let back = store.get_witness(&key).expect("an intact record loads");
    assert_eq!(
        back.config_with_backend().unwrap_err(),
        "unknown backend \"classic\" (want fast or ref)"
    );
    assert!(witness(11, "Halt").config_with_backend().is_ok());
}
