//! Integration tests for the cycle-attribution profiler: golden snapshot of
//! the `profile` binary's report, exact reconciliation against `Stats`,
//! flamegraph-format validation of the folded output, and the zero-overhead
//! proof that attaching a `Profiler` cannot change what is measured.

use std::fs;
use std::path::PathBuf;

use tagstudy::{CheckingMode, Config, Session};

fn expected_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/expected/{name}"))
}

/// The report for `frl` under the paper's baseline with full checking,
/// pinned byte for byte. This is exactly what
/// `cargo run --release -p bench --bin profile -- frl` prints, because the
/// binary and this test share [`bench::profile_report`].
///
/// Regenerate after an intentional change:
///
/// ```text
/// UPDATE_EXPECTED=1 cargo test -p bench --test profiler
/// ```
#[test]
fn profile_report_matches_golden() {
    let session = Session::serial();
    let config = Config::baseline(CheckingMode::Full);
    let (measurement, profiler) = session
        .profile("frl", config, programs::FUEL)
        .expect("frl profiles");
    let got = bench::profile_report(&measurement, &profiler);

    let path = expected_path("profile_frl.txt");
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        fs::write(&path, &got).expect("write the expected file");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nseed it with: UPDATE_EXPECTED=1 cargo test -p bench --test profiler",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "profile report drifted at line {} (regenerate with UPDATE_EXPECTED=1)",
            i + 1
        );
    }
    assert_eq!(got, want, "trailing content differs");
}

/// The acceptance criterion: per-function tag-cycle totals sum exactly to
/// `Stats::total_tag_cycles()`, and every other book the profiler keeps
/// reconciles with the simulator's own counters — across checking modes and
/// a hardware level that exercises squash/trap attribution.
#[test]
fn per_function_totals_reconcile_exactly() {
    let session = Session::serial();
    let configs = [
        Config::baseline(CheckingMode::None),
        Config::baseline(CheckingMode::Full),
        Config::baseline(CheckingMode::Full).with_hw(mipsx::HwConfig::with_generic_arith()),
        Config::baseline(CheckingMode::Full).with_hw(mipsx::HwConfig::maximal(5)),
    ];
    for program in ["frl", "trav"] {
        for config in configs {
            let (m, prof) = session
                .profile(program, config, programs::FUEL)
                .unwrap_or_else(|e| panic!("{program}/{config}: {e}"));
            prof.reconcile(&m.stats)
                .unwrap_or_else(|e| panic!("{program}/{config}: {e}"));
            let per_function_tag_total: u64 = prof
                .hot_functions()
                .iter()
                .map(|(_, f)| f.stats.total_tag_cycles())
                .sum();
            assert_eq!(
                per_function_tag_total,
                m.stats.total_tag_cycles(),
                "{program}/{config}: per-function tag cycles must sum to the \
                 whole-program figure"
            );
            assert_eq!(prof.total_cycles(), m.stats.cycles, "{program}/{config}");
        }
    }
}

/// Folded output validates against the flamegraph text format — one
/// `frame;frame;frame count` line per bucket, non-empty frames, counts that
/// sum to the run's total cycles.
#[test]
fn folded_output_is_flamegraph_format() {
    let session = Session::serial();
    let (m, prof) = session
        .profile("frl", Config::baseline(CheckingMode::Full), programs::FUEL)
        .expect("frl profiles");
    let folded = prof.folded();
    assert!(!folded.is_empty());
    let mut total = 0u64;
    for line in folded.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {line:?} has no count"));
        let count: u64 = count
            .parse()
            .unwrap_or_else(|e| panic!("count in {line:?}: {e}"));
        assert!(count > 0, "empty buckets are not emitted: {line:?}");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
            assert!(
                !frame.contains(' '),
                "frames must not contain spaces: {line:?}"
            );
        }
        total += count;
    }
    assert_eq!(
        total, m.stats.cycles,
        "folded counts partition the run's cycles"
    );
    // The root frame everywhere is the entry function.
    assert!(folded.lines().all(|l| l.starts_with("main")), "{folded}");
}

/// Zero-overhead proof: a `Profiler`-attached run produces `Stats` identical
/// to an unobserved run, for every benchmark. The observer only reads the
/// retirement stream; if it ever perturbed the simulation, the paper's
/// numbers could not be trusted with profiling enabled.
#[test]
fn profiler_never_changes_stats() {
    let session = Session::serial();
    let config = Config::baseline(CheckingMode::Full);
    for b in programs::all() {
        let unobserved = session
            .measure_uncached(b.name, config)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let (observed, prof) = session
            .profile(b.name, config, programs::FUEL)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(
            unobserved.stats, observed.stats,
            "{}: observation must be invisible to the measurement",
            b.name
        );
        prof.reconcile(&observed.stats)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
}
