//! Run sharing: a `Session` simulates each distinct machine run once, and a
//! point whose compiled code, data, memory, backend, timing model and
//! observable hardware match another point's takes that point's run.
//!
//! A shared point must be indistinguishable from one that simulated: each
//! shared measurement is compared field by field with `measure_uncached`,
//! which always simulates.

use tagstudy::{
    metrics::names, report, tables, Backend, Config, Measurement, Session, SessionStats,
};

fn config(name: &str) -> Config {
    Config::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The fields a run and a compile determine, compared one by one.
fn assert_same_measurement(shared: &Measurement, simulated: &Measurement) {
    let point = format!("{}/{}", shared.program, shared.config);
    assert_eq!(shared.program, simulated.program, "{point}");
    assert_eq!(shared.config, simulated.config, "{point}");
    assert_eq!(shared.stats, simulated.stats, "{point}: stats");
    assert_eq!(shared.output, simulated.output, "{point}: output");
    assert_eq!(shared.halt_code, simulated.halt_code, "{point}: halt code");
    assert_eq!(shared.compile, simulated.compile, "{point}: compile stats");
}

/// The full report on a fresh session: 420 requests, 260 distinct points
/// compiled, 50 of them sharing a run another point simulated — 210
/// simulations.
#[test]
fn full_report_simulates_210_runs_for_260_points() {
    let mut session = Session::new();
    report::full_report(&mut session, &tables::default_programs()).unwrap();
    let stats = session.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.shared_runs),
        (160, 260, 50),
        "{stats:?}"
    );
    assert_eq!(stats.simulated(), 210);
    assert_eq!(session.metrics().counter(names::SHARED_RUNS), 50);
    assert_eq!(session.metrics().counter(names::CACHE_MISSES), 260);
    let summary = session.summary();
    assert!(
        summary.contains("260 compiled, 210 simulated, 50 runs shared"),
        "{summary}"
    );
}

/// Table 2's coinciding rows without checking: the check hardware has
/// nothing to do, so each group compiles to one run. Every shared point
/// equals a fresh simulation of itself.
#[test]
fn coinciding_table2_rows_share_one_run() {
    let groups: [&[&str]; 2] = [
        &[
            "high5:none:plain",
            "high5:none:genarith",
            "high5:none:chklists",
            "high5:none:chkall",
        ],
        &[
            "high5:none:drop5+tagbr",
            "high5:none:maximal",
            "high5:none:spur",
        ],
    ];
    for program in ["rat", "opt"] {
        for group in groups {
            let session = Session::new();
            let requests: Vec<(&str, Config)> =
                group.iter().map(|name| (program, config(name))).collect();
            let measured = session.measure_many(&requests).unwrap();
            let stats = session.stats();
            assert_eq!(
                (stats.misses, stats.shared_runs),
                (group.len() as u64, group.len() as u64 - 1),
                "{program} {group:?}: one simulation for the group"
            );
            for m in &measured {
                let fresh = session.measure_uncached(program, m.config).unwrap();
                assert_same_measurement(m, &fresh);
            }
            assert_eq!(session.stats(), stats, "measure_uncached counts nothing");
        }
    }
}

/// The backend and the timing model are part of a run: a `ref` point never
/// takes a fast run, and a timed point never takes an untimed one, even
/// where the code is identical.
#[test]
fn backend_and_timing_split_runs() {
    let plain = config("high5:none:plain");
    let genarith = config("high5:none:genarith");
    let pairs = [
        (plain.with_backend(Backend::Ref), genarith),
        (
            config("high5:none:plain:timing=classic5"),
            config("high5:none:genarith"),
        ),
    ];
    for (a, b) in pairs {
        let session = Session::new();
        session.measure_many(&[("trav", a), ("trav", b)]).unwrap();
        let stats = session.stats();
        assert_eq!((stats.misses, stats.shared_runs), (2, 0), "{a} / {b}");
    }
}

/// `measure_uncached`, `run_observed` and `profile` always simulate: they
/// neither take a run from the index nor count one as shared.
#[test]
fn uncached_observed_and_profiled_runs_always_simulate() {
    let session = Session::new();
    let plain = config("high5:none:plain");
    let genarith = config("high5:none:genarith");
    session.measure("trav", plain).unwrap();
    let before: SessionStats = session.stats();

    session.measure_uncached("trav", genarith).unwrap();
    session
        .run_observed("trav", genarith, programs::FUEL, &mut mipsx::trace::NoTrace)
        .unwrap();
    session.profile("trav", genarith, programs::FUEL).unwrap();

    let after = session.stats();
    assert_eq!(after.shared_runs, before.shared_runs);
    assert_eq!(session.metrics().counter(names::SHARED_RUNS), 0);

    // The cached path still shares.
    session.measure("trav", genarith).unwrap();
    assert_eq!(session.stats().shared_runs, 1);
}

/// The 24-configuration matrix (the oracle's, and the hardware levels of
/// the daemon benchmark's cold stream) compiles the ten paper programs to
/// 240 distinct runs: no point of it shares a run.
#[test]
fn the_config_matrix_shares_no_run() {
    let session = Session::new();
    let names = tables::default_programs();
    let matrix = Config::matrix();
    let requests: Vec<(&str, Config)> = names
        .iter()
        .flat_map(|name| matrix.iter().map(move |config| (*name, *config)))
        .collect();
    session.measure_many(&requests).unwrap();
    let stats = session.stats();
    assert_eq!((stats.misses, stats.shared_runs), (240, 0));
}
