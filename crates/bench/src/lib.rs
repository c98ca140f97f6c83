//! Shared helpers for the table/figure regeneration binaries and Criterion
//! benches. The binaries (`table1`, `table2`, `table3`, `figure1`, `figure2`,
//! `generic_arith`, `all_experiments`, `profile`) print the paper's tables
//! next to the measured values; the Criterion benches time the underlying
//! simulations.
//!
//! Every binary drives one [`Session`]: [`session`] wires up a live progress
//! feed on stderr, and [`report_session`] prints the cache/timing summary at
//! exit. Tables go to stdout, telemetry to stderr, so redirecting stdout
//! still captures exactly the paper's tables.
//!
//! [`profile_report`] renders the per-function cycle-attribution report the
//! `profile` binary prints — shared with the golden-snapshot test
//! (`tests/profiler.rs` at the workspace root) so the two cannot drift.

#![deny(missing_docs)]

pub mod spec;

use tagstudy::{Measurement, Progress, Session};

/// Guard for the no-argument binaries (`table1`, …, `all_experiments`): any
/// command-line argument is a mistake, so print usage and exit 2 instead of
/// silently ignoring it.
pub fn reject_args(binary: &str) {
    let extra: Vec<String> = std::env::args().skip(1).collect();
    if !extra.is_empty() {
        eprintln!(
            "usage: {binary} (takes no arguments; got {extra:?})\n\
             tables and figures go to stdout, session telemetry to stderr"
        );
        std::process::exit(2);
    }
}

/// Exit with a readable message on measurement failure.
pub fn unwrap_study<T>(r: Result<T, tagstudy::StudyError>) -> T {
    match r {
        Ok(t) => t,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A session wired for the command-line binaries: default parallelism, live
/// per-measurement status on stderr (stdout stays table-only).
pub fn session() -> Session {
    Session::new().with_progress(|p| {
        if let Progress::Finished {
            program,
            config,
            timing,
            ..
        } = p
        {
            eprintln!(
                "[session] {program}/{config}: compile {:.1?}, simulate {:.1?}",
                timing.compile, timing.simulate
            );
        }
    })
}

/// Print the session's cache/timing summary to stderr. Call on exit from every
/// bench binary.
pub fn report_session(session: &Session) {
    eprint!("{}", session.summary());
}

/// Render the per-function cycle-attribution report for one profiled run:
/// a header identifying the measured point, the whole-program reconciliation
/// line, and the profiler's hot-spot tables. Deterministic for a given
/// `(program, config)` — the golden-snapshot test pins this output.
///
/// # Panics
///
/// If the profiler's books do not reconcile exactly with the measurement's
/// [`mipsx::Stats`] — that would mean the attribution lost or invented
/// cycles, which is a bug, not a degraded report.
pub fn profile_report(measurement: &Measurement, profiler: &mipsx::Profiler) -> String {
    use std::fmt::Write as _;
    profiler
        .reconcile(&measurement.stats)
        .expect("profiler books reconcile with Stats");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} under {} — {} cycles, {} retired, {} tag cycles (reconciled exactly)",
        measurement.program,
        measurement.config,
        measurement.stats.cycles,
        measurement.stats.committed,
        measurement.stats.total_tag_cycles(),
    );
    let _ = writeln!(out);
    out.push_str(&profiler.report());
    out
}

/// Render the per-function *stall* attribution of a timing-model run: the
/// microarchitectural counterpart of [`profile_report`]. Functions are listed
/// in descending order of total stall cycles (ties broken by name); the
/// header reconciles the per-function books against the run's whole-program
/// stall breakdown.
///
/// # Panics
///
/// If the measurement carries no stall breakdown, or the per-function stalls
/// do not sum to it exactly — either would mean the attribution lost or
/// invented cycles.
pub fn stall_report(measurement: &Measurement, stalls: &[mipsx::FuncStalls]) -> String {
    use std::fmt::Write as _;
    let timing = measurement
        .stats
        .timing
        .as_ref()
        .expect("stall report needs a timed measurement");
    let mut per_cause = [0u64; 4];
    for f in stalls {
        for (total, s) in per_cause.iter_mut().zip(f.stalls) {
            *total += s;
        }
    }
    assert_eq!(
        per_cause,
        [
            timing.stall_icache,
            timing.stall_dcache,
            timing.stall_mispredict,
            timing.stall_load_use
        ],
        "per-function stalls reconcile with the whole-program breakdown"
    );
    let total = timing.total_stalls();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stalls: {} under {} — {} architectural + {} stall = {} timed cycles (reconciled exactly)",
        measurement.program,
        measurement.config,
        measurement.stats.cycles,
        total,
        timing.timed_cycles(measurement.stats.cycles),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "function", "icache", "dcache", "mispred", "load-use", "total", "share"
    );
    let mut rows: Vec<&mipsx::FuncStalls> = stalls.iter().filter(|f| f.total() > 0).collect();
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name.cmp(&b.name)));
    for f in rows {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * f.total() as f64 / total as f64
        };
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6.1}%",
            f.name,
            f.stalls[0],
            f.stalls[1],
            f.stalls[2],
            f.stalls[3],
            f.total(),
            share
        );
    }
    out
}
