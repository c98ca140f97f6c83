//! Session engine integration tests: memoization across table regenerations,
//! determinism of the parallel worker pool, and one session shared between
//! threads (hits answered while a miss runs, single-flight, failures never
//! cached).
//!
//! The concurrency tests order threads with channels fed by the progress
//! callback, never with sleeps: a measurement is parked inside its `Started`
//! event until the test releases it.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tagstudy::{
    metrics::names, tables, CheckingMode, Config, InlineProgram, Progress, Session, StudyError,
};

/// Regenerating Table 1 on a warm session must do zero new compiles or
/// simulations — every request is a cache hit.
#[test]
fn warm_session_regenerates_table1_without_compiling() {
    let names = ["frl", "trav", "boyer"];
    let mut session = Session::new();

    let first = tables::table1_for(&mut session, &names).unwrap();
    let cold = session.stats();
    assert_eq!(cold.misses, 6, "3 programs x 2 checking modes");
    assert_eq!(cold.hits, 0);

    let second = tables::table1_for(&mut session, &names).unwrap();
    let warm = session.stats();
    assert_eq!(warm.misses, cold.misses, "warm run compiles nothing");
    assert_eq!(warm.hits, 6, "every warm request is a hit");
    assert_eq!(
        warm.work_time(),
        cold.work_time(),
        "no new wall time attributed"
    );

    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.program, b.program);
        assert_eq!(a.total, b.total, "{}: cached rows identical", a.program);
    }
}

/// The worker pool must not perturb results: a parallel session and a strictly
/// serial one produce identical `Stats` for every program.
#[test]
fn parallel_and_serial_sessions_agree() {
    let names = tables::default_programs();
    let config = Config::baseline(CheckingMode::None);

    let parallel = Session::new().with_parallelism(NonZeroUsize::new(8).unwrap());
    let serial = Session::serial();
    let par = parallel.measure_set(&names, config).unwrap();
    let ser = serial.measure_set(&names, config).unwrap();

    assert_eq!(par.len(), names.len());
    for ((p, s), name) in par.iter().zip(&ser).zip(&names) {
        assert_eq!(p.program, *name, "request order preserved");
        assert_eq!(s.program, *name);
        assert_eq!(p.stats, s.stats, "{name}: parallel == serial");
        assert_eq!(p.compile.object_words, s.compile.object_words, "{name}");
    }
    assert_eq!(parallel.stats().misses, names.len() as u64);
    assert_eq!(serial.stats().misses, names.len() as u64);
}

/// How long a test waits for an event that a correct session delivers at
/// once. It only bounds how long a broken session hangs before the test
/// fails; no passing run waits on it.
const HANG: Duration = Duration::from_secs(300);

/// The test's side of a gated session: `parked` fires when the first
/// measurement of the gated program is held inside its `Started` event,
/// `hit` fires whenever a request for that program counts as a hit, and
/// sending on `release` lets the parked measurement go on.
struct Gate {
    parked: Receiver<()>,
    hit: Receiver<()>,
    release: Sender<()>,
}

/// `session` with a progress callback that parks the first measurement of
/// `program` until the test releases it.
fn gated(session: Session, program: &'static str) -> (Session, Gate) {
    let (parked_tx, parked) = channel();
    let (hit_tx, hit) = channel();
    let (release, release_rx) = channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let first = AtomicBool::new(true);
    let session = session.with_progress(move |p| match p {
        Progress::Started { program: p, .. }
            if p == program && first.swap(false, Ordering::SeqCst) =>
        {
            parked_tx.send(()).expect("test is listening");
            release_rx
                .lock()
                .unwrap()
                .recv()
                .expect("test releases the gate");
        }
        Progress::Hit { program: p, .. } if p == program => {
            let _ = hit_tx.send(());
        }
        _ => {}
    });
    (
        session,
        Gate {
            parked,
            hit,
            release,
        },
    )
}

/// A request for a cached point returns while another thread's batch is
/// parked inside a miss.
#[test]
fn a_hit_does_not_wait_on_a_miss() {
    let cfg = Config::baseline(CheckingMode::None);
    let (session, gate) = gated(Session::serial(), "trav");
    let cached = session.measure("frl", cfg).unwrap();

    std::thread::scope(|scope| {
        let miss = scope.spawn(|| session.measure("trav", cfg));
        gate.parked
            .recv()
            .expect("the miss reached its measurement");

        let (done_tx, done) = channel();
        let shared = &session;
        let hit = scope.spawn(move || {
            let answer = shared.measure_many(&[("frl", cfg)]);
            done_tx.send(()).unwrap();
            answer
        });
        let waited = done.recv_timeout(HANG);
        // Release before asserting, so a failure cannot leave the miss parked.
        gate.release.send(()).unwrap();
        assert_eq!(
            waited,
            Ok(()),
            "the hit returned only after the parked miss was released"
        );
        let answer = hit.join().unwrap().unwrap();
        assert_eq!(answer[0].stats, cached.stats);
        miss.join().unwrap().unwrap();
    });
    let stats = session.stats();
    assert_eq!((stats.misses, stats.hits), (2, 1));
}

/// Two threads asking for the same uncached point at once measure it once:
/// the second waits on the first's cell and counts as a hit.
#[test]
fn concurrent_requests_for_one_point_measure_it_once() {
    let cfg = Config::baseline(CheckingMode::None);
    let writebacks = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&writebacks);
    let base = Session::serial().with_writeback(move |_, _| {
        sink.fetch_add(1, Ordering::SeqCst);
    });
    let (session, gate) = gated(base, "trav");

    std::thread::scope(|scope| {
        let first = scope.spawn(|| session.measure("trav", cfg));
        gate.parked.recv().expect("the first request is measuring");
        let second = scope.spawn(|| session.measure_many(&[("trav", cfg)]));
        // The second request found the point in flight: it counted as a hit
        // and now waits on the cell, while the first is still parked.
        let arrived = gate.hit.recv_timeout(HANG);
        gate.release.send(()).unwrap();
        assert_eq!(
            arrived,
            Ok(()),
            "the second request measured instead of waiting"
        );
        let a = first.join().unwrap().unwrap();
        let b = second.join().unwrap().unwrap().remove(0);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.output, b.output);
    });
    let stats = session.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    assert_eq!(writebacks.load(Ordering::SeqCst), 1, "one writeback");
    assert_eq!(session.cached_measurements(), 1);
}

/// Every request waiting on a failing point gets the error, nothing is
/// cached, and a later request measures the point again.
#[test]
fn a_failed_point_is_not_cached_for_waiters_or_later_requests() {
    let cfg = Config::baseline(CheckingMode::Full);
    let (session, gate) = gated(Session::serial(), "claims-four");
    session.register_source(
        "claims-four",
        InlineProgram::new("(print (plus 1 2))").with_expected_output("4\n"),
    );
    let is_wrong_output = |e: &StudyError| matches!(e, StudyError::WrongOutput { program, .. } if program == "claims-four");

    std::thread::scope(|scope| {
        let first = scope.spawn(|| session.measure("claims-four", cfg));
        gate.parked.recv().expect("the first request is measuring");
        let waiter = scope.spawn(|| session.measure("claims-four", cfg));
        let arrived = gate.hit.recv_timeout(HANG);
        gate.release.send(()).unwrap();
        assert_eq!(
            arrived,
            Ok(()),
            "the second request measured instead of waiting"
        );
        let e = first.join().unwrap().unwrap_err();
        assert!(is_wrong_output(&e), "{e}");
        let e = waiter.join().unwrap().unwrap_err();
        assert!(
            is_wrong_output(&e),
            "waiter got the measuring batch's error: {e}"
        );
    });
    assert_eq!(session.cached_measurements(), 0);
    assert!(!session.contains("claims-four", cfg));

    let e = session.measure("claims-four", cfg).unwrap_err();
    assert!(is_wrong_output(&e), "{e}");
    let m = session.metrics();
    assert_eq!(
        m.counter(names::CACHE_MISSES),
        2,
        "measured again, not served"
    );
    assert_eq!(m.counter(names::FAILURES), 2);
    assert_eq!(session.stats().misses, 0);
}

/// The property the daemon relies on to share one session between threads.
#[test]
fn session_is_send_and_sync() {
    fn shareable<T: Send + Sync>() {}
    shareable::<Session>();
}
