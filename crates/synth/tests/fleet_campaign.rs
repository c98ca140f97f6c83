//! Fleet campaign integration: a clean local campaign saturates its coverage
//! ledger with zero divergences, a killed campaign resumes without repeating
//! covered columns, and a fault-injected campaign archives a small witness
//! that replays from the store.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mipsx::{Backend, Fault};
use store::fuzz::FuzzStore;
use synth::fleet::{
    ledger_key, matrix_columns, mix_cells, replay_witness, run_campaign, CampaignSpec, LocalRunner,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "tagstudy-fleet-test-{tag}-{}-{}",
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

/// A single-backend, one-program-per-cell campaign — small enough for debug
/// builds, still the full 24-configuration oracle matrix.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        axis_points: 1,
        per_cell: 1,
        backends: vec![Backend::Fast],
        ..CampaignSpec::smoke()
    }
}

#[test]
fn clean_campaign_saturates_with_zero_divergences() {
    let scratch = Scratch::new("clean");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let spec = tiny_spec();
    let mut progress_calls = 0u64;

    let report = run_campaign(
        &spec,
        &store,
        &mut LocalRunner::default(),
        false,
        &mut |p| {
            progress_calls += 1;
            assert!(p.coverage_percent <= 100.0);
        },
    )
    .expect("campaign runs");

    // 3 pure-profile cells × 24 configs × 1 backend, one program each.
    assert_eq!(report.programs, 3);
    assert_eq!(report.columns_run, 72);
    assert_eq!(report.columns_skipped, 0);
    assert_eq!(report.resumed_from, 0);
    assert_eq!(report.divergences, 0, "witnesses: {:?}", report.witnesses);
    assert!(report.witnesses.is_empty());
    assert_eq!(report.coverage_percent, 100.0);
    assert!(report.complete);
    assert_eq!(progress_calls, report.programs);
    assert_eq!(store.witness_count(), 0);

    // The persisted ledger agrees with the report.
    let ledger = store.load_ledger().expect("ledger persisted");
    assert_eq!(ledger.campaign(), report.campaign);
    assert!(ledger.complete());
}

#[test]
fn resumed_campaign_skips_covered_columns() {
    let scratch = Scratch::new("resume");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let spec = tiny_spec();

    // Part 1: stop after one program — one cell fully covered, two untouched.
    let part1 = run_campaign(
        &CampaignSpec {
            max_programs: Some(1),
            ..spec.clone()
        },
        &store,
        &mut LocalRunner::default(),
        false,
        &mut |_| {},
    )
    .unwrap();
    assert_eq!(part1.programs, 1);
    assert_eq!(part1.columns_run, 24);
    assert!(!part1.complete);

    // Simulate a kill *mid-program*: hand-advance five columns of the next
    // cell, as the per-column ledger persistence would have left them.
    let columns = matrix_columns(&spec.backends);
    let next_cell = &mix_cells(spec.axis_points)[1].name;
    let mut ledger = store.load_ledger().unwrap();
    for column in &columns[..5] {
        ledger.bump(&ledger_key(next_cell, &column.label()));
    }
    store.store_ledger(&ledger).unwrap();

    // Part 2: resume finishes the books without repeating covered work.
    let part2 = run_campaign(&spec, &store, &mut LocalRunner::default(), true, &mut |_| {})
        .unwrap();
    assert_eq!(part2.resumed_from, 24 + 5, "inherited coverage is visible");
    assert_eq!(part2.columns_skipped, 5, "covered columns are not re-run");
    assert_eq!(part2.columns_run, 72 - 24 - 5);
    assert_eq!(part2.programs, 2, "only the two uncovered cells run");
    assert_eq!(part2.divergences, 0);
    assert_eq!(part2.coverage_percent, 100.0);
    assert!(part2.complete);

    // Grand total: every column of every cell exactly once.
    assert_eq!(part1.columns_run + part2.columns_skipped + part2.columns_run, 72);

    // A ledger from a different campaign is refused, not silently mixed.
    let other = CampaignSpec {
        seed_base: spec.seed_base + 1,
        ..spec.clone()
    };
    let err = run_campaign(&other, &store, &mut LocalRunner::default(), true, &mut |_| {})
        .unwrap_err();
    assert!(err.contains("belongs to campaign"), "{err}");
}

#[test]
fn fault_campaign_archives_a_small_replayable_witness() {
    let scratch = Scratch::new("fault");
    let store = FuzzStore::open(&scratch.0).unwrap();
    let fault = Fault::BranchInvert { nth: 1 };
    let spec = CampaignSpec {
        fault: Some(fault),
        stop_on_witness: true,
        ..tiny_spec()
    };

    let report = run_campaign(
        &spec,
        &store,
        &mut LocalRunner {
            fault: Some(fault),
            trace: None,
        },
        false,
        &mut |_| {},
    )
    .expect("fault campaign runs");

    assert!(report.divergences > 0, "planted fault must be caught");
    assert!(!report.witnesses.is_empty());
    // Fault campaigns never write books: their counts describe a broken machine.
    assert!(store.load_ledger().is_none());

    // The archived witness is small, self-describing, and replays.
    let witnesses = store.load_witnesses();
    assert!(!witnesses.is_empty());
    let (key, w) = &witnesses[0];
    assert!(report.witnesses.contains(&key.to_string()));
    assert!(w.forms <= 20, "witness did not shrink: {} forms\n{}", w.forms, w.source);
    assert_eq!(w.fault.as_deref(), Some("branch-invert:1"));
    assert!(w.source.contains("(defun drive"));
    assert!(
        replay_witness(w).expect("witness replays"),
        "replayed witness no longer diverges:\n{}",
        w.source
    );
}

/// A witness naming the removed `classic` interpreter is refused on replay
/// with the precise backend error: never a panic, and never a silent re-run
/// under another backend.
#[test]
fn witness_naming_classic_is_refused_on_replay() {
    let w = store::fuzz::Witness {
        seed: 1,
        mix: "list=1".to_string(),
        cell: "list@0".to_string(),
        column: "high5:full:maximal:classic".to_string(),
        config: tagstudy::Config::baseline(tagstudy::CheckingMode::Full),
        backend: "classic".to_string(),
        fault: None,
        kind: "Halt".to_string(),
        detail: "halt: want 0, got 3".to_string(),
        source: "(print 1)\n".to_string(),
        forms: 1,
    };
    let err = replay_witness(&w).expect_err("classic must not replay");
    assert_eq!(err, "unknown backend \"classic\" (want fast or ref)");
}
