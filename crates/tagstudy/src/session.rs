//! The memoizing, parallel experiment engine.
//!
//! A [`Session`] owns one pool of measurements for the whole process: a cache
//! keyed by `(program, Config)`, a bounded worker pool that fills it, and an
//! observability surface (hit/miss counters, per-measurement wall time split
//! compile vs simulate, an optional progress callback). Every table/figure in
//! [`crate::tables`] is a pure projection over session measurements, so
//! regenerating all of them — which shares the HighTag5 baseline and several
//! Table 2 configurations — compiles and simulates each point of the design
//! space exactly once:
//!
//! ```no_run
//! use tagstudy::{tables, CheckingMode, Config, Session};
//!
//! let mut session = Session::new();
//! let names = tables::default_programs();
//! let t1 = tables::table1_for(&mut session, &names)?;
//! let f1 = tables::figure1_for(&mut session, &names)?; // baseline runs reused
//! assert!(session.stats().hits > 0);
//! # Ok::<(), tagstudy::StudyError>(())
//! ```
//!
//! ## Sharing one session between threads
//!
//! `Session` is `Sync`, and every measuring method takes `&self`, so a
//! long-lived process (the `tagstudyd` daemon) shares one session between
//! request threads without an outer lock. No session-wide lock is held
//! across a compile, a simulation or a writeback:
//!
//! - Each `(program, Config)` point has one cache cell, either *ready* or
//!   *in flight*. The map of cells is locked only to look up or claim a
//!   cell, so a cached point is answered while other batches are measuring.
//! - A point is measured once however many batches ask for it at the same
//!   time (single-flight): the first batch claims the cell and measures it
//!   on its worker pool; every other request for it waits on that cell alone
//!   and counts as a hit, as a duplicate within one batch does.
//! - A failed measurement drops its cell. Every waiter gets the error, and a
//!   later request measures the point again: failures are never cached.
//!
//! The worker-pool bound applies per batch; concurrent batches each run
//! their own pool.
//!
//! ## One simulation per distinct run
//!
//! Several points of the design space compile to the same machine run: with
//! no run-time checking, the generic-arithmetic and parallel-check hardware
//! of Table 2 rows 4–6 has nothing to do, so those rows run the plain code.
//! Once a point has compiled, the session keys its run by everything the
//! simulator can observe: the backend, the timing model, the fuel, the
//! memory size, the entry point, a digest of the code, annotations and data
//! image, and the hardware as far as the code can observe it
//! ([`mipsx::HwConfig::as_seen_by`]). A point whose run another point of the
//! session has simulated, or is simulating, takes that run's `Stats`, output
//! and halt code instead of simulating again. It is still compiled, checked
//! against its own expected output, cached and reported under its own
//! `(program, Config)`; [`SessionStats::shared_runs`] counts it, and its
//! trace has a `run.shared` span naming the owning point in place of
//! `simulate`.
//!
//! The run index is single-flight like the cells: the first worker to
//! register a run simulates it and publishes it from the worker itself, so a
//! point of the same batch can wait for it. A failed or abandoned run
//! reaches its waiters as an error and is forgotten. A finished entry only
//! names the point whose ready cell holds the run, so the index never holds
//! more entries than the cache holds points.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::config::Config;
use crate::measure::{
    run_timed, simulate, simulate_run, InlineProgram, Measurement, Run, RunKey, RunSeeds,
    StudyError, Timing,
};
use crate::metrics::{
    names, MetricsRegistry, DURATION_BUCKETS, MCYCLES_PER_SECOND_BUCKETS, OCCUPANCY_BUCKETS,
};
use crate::trace;

/// A resolved program name: either one of the ten compiled-in paper
/// benchmarks, or an [`InlineProgram`] registered on this session.
#[derive(Clone)]
enum Source {
    Builtin(&'static programs::Benchmark),
    Inline(Arc<InlineProgram>),
}

impl Source {
    /// Measure this program as `name` under `config`, getting the compiled
    /// program's run from `run`: a benchmark always pins its output, an
    /// inline program may.
    fn run_timed(
        &self,
        name: &str,
        config: &Config,
        run: impl FnOnce(&lisp::CompiledProgram) -> Result<Run, String>,
    ) -> Result<(Measurement, Timing), StudyError> {
        match self {
            Source::Builtin(b) => run_timed(
                b.name,
                |o| b.compile(o),
                Some(b.expected_output),
                config,
                run,
            ),
            Source::Inline(p) => run_timed(
                name,
                |o| p.compile(o),
                p.expected_output.as_deref(),
                config,
                run,
            ),
        }
    }
}

/// A progress event, delivered to the session's callback as measurements move
/// through the engine. Callbacks run on worker threads; keep them cheap.
#[derive(Debug, Clone)]
pub enum Progress {
    /// A requested measurement was served from the cache, or joined one
    /// already being measured.
    Hit {
        /// Benchmark name.
        program: String,
        /// Configuration requested.
        config: Config,
    },
    /// A compile + simulate started on a worker.
    Started {
        /// Benchmark name.
        program: String,
        /// Configuration being measured.
        config: Config,
    },
    /// A measurement finished and entered the cache.
    Finished {
        /// Benchmark name.
        program: String,
        /// Configuration measured.
        config: Config,
        /// Where the wall time went.
        timing: Timing,
        /// Simulated cycles of the measured run (`Stats::cycles`).
        cycles: u64,
    },
}

/// Aggregate counters for one [`Session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served from the cache (including duplicates within one batch
    /// and requests that waited on another batch measuring the same point).
    pub hits: u64,
    /// Measurements actually compiled (and simulated, unless the run was
    /// shared).
    pub misses: u64,
    /// Measurements whose run was taken from another point of the session
    /// that simulated the identical run, instead of simulated (see the
    /// [module docs](self)). `misses - shared_runs` runs were simulated.
    pub shared_runs: u64,
    /// Total wall time spent compiling.
    pub compile_time: Duration,
    /// Total wall time spent simulating, or waiting for a shared run.
    pub sim_time: Duration,
}

impl SessionStats {
    /// Measurements that simulated their own run.
    pub fn simulated(&self) -> u64 {
        self.misses - self.shared_runs
    }

    /// Total requests the session has answered.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Total wall time spent measuring (compile + simulate, summed over
    /// workers — parallel batches finish in less elapsed time than this).
    pub fn work_time(&self) -> Duration {
        self.compile_time + self.sim_time
    }
}

type ProgressFn = Arc<dyn Fn(&Progress) + Send + Sync>;
type WritebackFn = Arc<dyn Fn(&Measurement, &Timing) + Send + Sync>;
type MeasureResult = Result<(Measurement, Timing), StudyError>;
type Key = (String, Config);

/// The cache cell of one `(program, Config)` point. Almost every cell is
/// ready, so boxing the large variant would only add an allocation.
#[allow(clippy::large_enum_variant)]
enum Cell {
    /// Measured in this process, or seeded from a persistent store — hits
    /// span as `cache.read`, labelled `seeded=true` on seeded cells.
    Ready {
        measurement: Measurement,
        timing: Timing,
        seeded: bool,
        /// The key of the run the measurement holds (`None` when seeded).
        run: Option<RunKey>,
    },
    /// Claimed by one batch that is measuring it now.
    InFlight(Arc<Flight>),
}

/// The hand-off from the batch measuring a point to the requests waiting on
/// it: set once, by that batch.
type Flight = OnceLock<Result<Measurement, StudyError>>;

/// One distinct machine run in the run index (see the [module docs](self)).
enum RunEntry {
    /// Registered by the point `owner`, whose worker simulates it and sets
    /// `flight` when the run ends. The entry stays until `owner` settles.
    Running { owner: Key, flight: Arc<RunFlight> },
    /// Simulated by `owner`, whose ready cell holds the run's results.
    Done { owner: Key },
}

impl RunEntry {
    fn owner(&self) -> &Key {
        match self {
            RunEntry::Running { owner, .. } | RunEntry::Done { owner } => owner,
        }
    }

    /// Whether this is the running entry whose flight is `mine`.
    fn runs(&self, mine: &Arc<RunFlight>) -> bool {
        matches!(self, RunEntry::Running { flight, .. } if Arc::ptr_eq(flight, mine))
    }
}

/// The hand-off from the worker simulating a run to the points waiting for
/// it: the outcome, or the simulator's error message. Set once.
type RunFlight = OnceLock<Result<lisp::Outcome, String>>;

type RunIndex = Mutex<HashMap<RunKey, RunEntry>>;

/// One claimed point's part in the run index, filled in by its worker.
#[derive(Default)]
struct Ticket {
    /// The key of the point's run, once the point has compiled.
    run: Option<RunKey>,
    /// The flight of the entry the point registered, when it simulated.
    owned: Option<Arc<RunFlight>>,
    /// Whether the run was taken from another point.
    shared: bool,
}

/// A run one worker has registered. Publishing sets its flight; an error is
/// never kept, so it also drops the entry. A guard dropped unpublished (its
/// worker unwound) publishes an error, so waiters never hang.
struct RunGuard<'s> {
    runs: &'s RunIndex,
    key: RunKey,
    flight: Arc<RunFlight>,
}

impl RunGuard<'_> {
    fn publish(&self, result: Result<lisp::Outcome, String>) {
        if result.is_err() {
            let mut runs = lock(self.runs);
            if runs.get(&self.key).is_some_and(|e| e.runs(&self.flight)) {
                runs.remove(&self.key);
            }
        }
        let _ = self.flight.set(result);
    }
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        if self.flight.get().is_none() {
            self.publish(Err(
                "run abandoned: the worker simulating it unwound".to_string()
            ));
        }
    }
}

/// A point one batch has claimed. Publishing settles it; a claim dropped
/// unpublished (its batch unwound) publishes an error, so waiters never hang
/// on a measurement nobody will finish.
struct Claim<'s> {
    cells: &'s Mutex<HashMap<Key, Cell>>,
    runs: &'s RunIndex,
    key: Key,
    flight: Arc<Flight>,
    published: bool,
}

impl Claim<'_> {
    /// Replace the in-flight cell with the outcome — a ready cell, or no
    /// cell for a failure — and wake the waiters. A cell evicted meanwhile
    /// (its source was replaced) stays evicted. The run the point simulated
    /// becomes a finished entry naming the ready cell; a point that leaves
    /// no ready cell leaves no entry.
    fn publish(&mut self, result: &MeasureResult, ticket: &Ticket) {
        let mut cells = lock(self.cells);
        let ours =
            matches!(cells.get(&self.key), Some(Cell::InFlight(f)) if Arc::ptr_eq(f, &self.flight));
        let ready = ours && result.is_ok();
        if ours {
            match result {
                Ok((measurement, timing)) => {
                    let ready = Cell::Ready {
                        measurement: measurement.clone(),
                        timing: *timing,
                        seeded: false,
                        run: ticket.run,
                    };
                    cells.insert(self.key.clone(), ready);
                }
                Err(_) => {
                    cells.remove(&self.key);
                }
            }
        }
        drop(cells);
        let mut runs = lock(self.runs);
        if !ready {
            runs.retain(|_, entry| *entry.owner() != self.key);
        } else if let (Some(run), Some(owned)) = (ticket.run, &ticket.owned) {
            if runs.get(&run).is_some_and(|e| e.runs(owned)) {
                let owner = self.key.clone();
                runs.insert(run, RunEntry::Done { owner });
            }
        }
        drop(runs);
        let _ = self.flight.set(result.clone().map(|(m, _)| m));
        self.published = true;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if !self.published {
            let abandoned = Err(StudyError::Sim {
                program: self.key.0.clone(),
                message: "measurement abandoned: its batch unwound before finishing".to_string(),
            });
            self.publish(&abandoned, &Ticket::default());
        }
    }
}

/// Lock `m`, riding over a poisoned lock (a panicking progress callback must
/// not take the session down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The memoizing, parallel experiment engine. See the [module docs](self).
pub struct Session {
    cells: Mutex<HashMap<Key, Cell>>,
    /// The run index: each distinct machine run a point of this session has
    /// simulated, or is simulating (see the [module docs](self)).
    runs: RunIndex,
    /// The seeds of this session's run digests.
    run_seeds: RunSeeds,
    /// Caller-registered inline programs, consulted before the built-in
    /// benchmark registry when a name is resolved.
    sources: Mutex<HashMap<String, Arc<InlineProgram>>>,
    parallelism: NonZeroUsize,
    progress: Option<ProgressFn>,
    writeback: Option<WritebackFn>,
    stats: Mutex<SessionStats>,
    /// The structured metrics/event registry every lifecycle event flows
    /// through (see [`crate::metrics`]); `Progress` is an adapter fed from
    /// the same spine.
    metrics: Mutex<MetricsRegistry>,
    /// Measurements currently on a worker (pool-occupancy observations).
    inflight: AtomicUsize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("cached", &self.cached_measurements())
            .field("parallelism", &self.parallelism)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A session with an empty cache and one worker per available core.
    pub fn new() -> Session {
        let parallelism =
            std::thread::available_parallelism().unwrap_or(NonZeroUsize::new(4).expect("non-zero"));
        Session {
            cells: Mutex::new(HashMap::new()),
            runs: Mutex::new(HashMap::new()),
            run_seeds: RunSeeds::random(),
            sources: Mutex::new(HashMap::new()),
            parallelism,
            progress: None,
            writeback: None,
            stats: Mutex::new(SessionStats::default()),
            metrics: Mutex::new(MetricsRegistry::new()),
            inflight: AtomicUsize::new(0),
        }
    }

    /// A session that measures strictly serially (one worker, no threads) —
    /// useful as a determinism reference and in constrained environments.
    pub fn serial() -> Session {
        Session::new().with_parallelism(NonZeroUsize::new(1).expect("non-zero"))
    }

    /// Bound each batch's worker pool to `parallelism` workers.
    pub fn with_parallelism(mut self, parallelism: NonZeroUsize) -> Session {
        self.parallelism = parallelism;
        self
    }

    /// Install a progress callback. It is invoked from worker threads while a
    /// batch is in flight, so it must be `Send + Sync` and should be cheap.
    pub fn with_progress(mut self, f: impl Fn(&Progress) + Send + Sync + 'static) -> Session {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Install a persistence hook: `f` is called once for every *fresh*
    /// measurement, on the thread that requested it, just before it enters
    /// the cache (never for cache hits, seeded entries, or failed
    /// measurements). A daemon wires this to a durable result store so every
    /// computed point is written through.
    pub fn with_writeback(
        mut self,
        f: impl Fn(&Measurement, &Timing) + Send + Sync + 'static,
    ) -> Session {
        self.writeback = Some(Arc::new(f));
        self
    }

    /// The session's counters so far.
    pub fn stats(&self) -> SessionStats {
        *lock(&self.stats)
    }

    /// The configured worker-pool bound.
    pub fn parallelism(&self) -> NonZeroUsize {
        self.parallelism
    }

    /// Number of distinct `(program, Config)` points measured so far.
    pub fn cached_measurements(&self) -> usize {
        lock(&self.cells)
            .values()
            .filter(|cell| matches!(cell, Cell::Ready { .. }))
            .count()
    }

    /// Whether `(program, config)` is already in the cache (a request for it
    /// would be answered without simulating or waiting).
    pub fn contains(&self, program: &str, config: Config) -> bool {
        matches!(
            lock(&self.cells).get(&(program.to_string(), config)),
            Some(Cell::Ready { .. })
        )
    }

    /// Preload one measurement into the cache — the warm-start path for a
    /// persistent result store. The entry is answered like any cache hit but
    /// is counted separately (the `session_seeded_total` counter), so "zero
    /// simulations since restart" is provable from the metrics alone.
    ///
    /// Returns `false` (and changes nothing) if the point is already cached
    /// or being measured; the writeback hook is *not* invoked — the store
    /// already has it.
    pub fn seed(&self, measurement: Measurement, timing: Timing) -> bool {
        let key = (measurement.program.clone(), measurement.config);
        {
            let mut cells = lock(&self.cells);
            if cells.contains_key(&key) {
                return false;
            }
            let ready = Cell::Ready {
                measurement,
                timing,
                seeded: true,
                run: None,
            };
            cells.insert(key.clone(), ready);
        }
        let mut m = self.lock_metrics();
        m.inc(names::SEEDED);
        m.event(
            "cache_seeded",
            &[("program", &key.0), ("config", &key.1.to_string())],
        );
        true
    }

    /// Register an [`InlineProgram`] under `name`, making it measurable,
    /// cacheable, and compilable exactly like a built-in benchmark. A
    /// registered name shadows a built-in of the same name (callers that want
    /// no ambiguity should use a distinct namespace, as the daemon does with
    /// its content-addressed `inline:<hash>` names).
    ///
    /// Re-registering the identical program is a no-op and returns `false`.
    /// Re-registering a *different* program under an existing name replaces
    /// it and evicts every cached measurement for that name — the cache is
    /// keyed by name, and stale results must not outlive their source.
    pub fn register_source(&self, name: impl Into<String>, program: InlineProgram) -> bool {
        let name = name.into();
        let replaced = {
            let mut sources = lock(&self.sources);
            if sources.get(&name).is_some_and(|p| **p == program) {
                return false;
            }
            let replaced = sources.insert(name.clone(), Arc::new(program)).is_some();
            if replaced {
                // Evict before releasing the sources lock: a request that
                // resolves the new source can never find a cell measured
                // from the old one. The runs those cells owned go with them.
                lock(&self.cells).retain(|(cached, _), _| *cached != name);
                lock(&self.runs).retain(|_, entry| entry.owner().0 != name);
            }
            replaced
        };
        let mut m = self.lock_metrics();
        m.inc(names::SOURCES_REGISTERED);
        m.event(
            "source_registered",
            &[("program", &name), ("replaced", &replaced.to_string())],
        );
        true
    }

    /// Whether `name` is currently answerable: a registered inline source or
    /// a built-in benchmark.
    pub fn has_source(&self, name: &str) -> bool {
        lock(&self.sources).contains_key(name) || programs::by_name(name).is_some()
    }

    /// Resolve a program name: registered inline sources first, then the
    /// built-in benchmark registry.
    fn resolve(&self, name: &str) -> Result<Source, StudyError> {
        if let Some(p) = lock(&self.sources).get(name) {
            return Ok(Source::Inline(Arc::clone(p)));
        }
        programs::by_name(name)
            .map(Source::Builtin)
            .ok_or_else(|| StudyError::UnknownProgram(name.to_string()))
    }

    /// A snapshot of every cached measurement and its timing, in no
    /// particular order.
    pub fn measurements(&self) -> impl Iterator<Item = (Measurement, Timing)> {
        let ready: Vec<(Measurement, Timing)> = lock(&self.cells)
            .values()
            .filter_map(|cell| match cell {
                Cell::Ready {
                    measurement,
                    timing,
                    ..
                } => Some((measurement.clone(), *timing)),
                Cell::InFlight(_) => None,
            })
            .collect();
        ready.into_iter()
    }

    /// Measure one `(program, config)` point, reusing the cache.
    ///
    /// # Errors
    ///
    /// Any [`StudyError`] the underlying measurement raises.
    pub fn measure(&self, program: &str, config: Config) -> Result<Measurement, StudyError> {
        self.measure_many(&[(program, config)])
            .map(|mut v| v.pop().expect("one result per request"))
    }

    /// Measure every `(program, config)` request of a batch, returning results
    /// in request order. Cached points are served without work; uncached
    /// points are deduplicated (a point requested twice in one batch is
    /// measured once) and measured on the bounded worker pool. A point
    /// another batch is measuring right now is not measured again: this
    /// batch waits for that result (see the [module docs](self)).
    ///
    /// Inside a trace context (see [`crate::trace`]) every hit records a
    /// `cache.read` span (labelled `seeded=true` when the point was seeded
    /// from a store), and every measurement a `measure` span with `compile`
    /// and `simulate` children, on whichever worker ran it; a measurement
    /// whose run was shared has a `run.shared` child in place of
    /// `simulate`.
    ///
    /// # Errors
    ///
    /// If any measurement fails, *all* failures of the batch are collected and
    /// collapsed via [`StudyError::Multiple`]; a panicking worker surfaces as
    /// a [`StudyError::Sim`] for its program, never as a harness panic.
    pub fn measure_many(
        &self,
        requests: &[(&str, Config)],
    ) -> Result<Vec<Measurement>, StudyError> {
        /// Where one distinct point of the batch gets its answer.
        #[allow(clippy::large_enum_variant)]
        enum Point {
            /// Cached; `true` when seeded from a persistent store.
            Ready(Measurement, bool),
            /// Index into `claims`: this batch measures it.
            Claimed(usize),
            /// Another batch is measuring it.
            Waiting(Arc<Flight>),
        }
        let mut seen: HashMap<Key, usize> = HashMap::new();
        let mut points: Vec<Point> = Vec::new();
        let mut claims: Vec<Claim<'_>> = Vec::new();
        let mut order: Vec<usize> = Vec::with_capacity(requests.len());
        // Each hit with whether its point was seeded from a store.
        let mut hits: Vec<(Key, bool)> = Vec::new();
        {
            // The map lock covers lookups and claims only — never the work.
            let mut cells = lock(&self.cells);
            for (name, config) in requests {
                let key = (name.to_string(), *config);
                if let Some(&i) = seen.get(&key) {
                    // A second request of the same point rides along with
                    // the first and counts as a hit (and is reported as one,
                    // so every request produces exactly one event).
                    order.push(i);
                    hits.push((key, matches!(points[i], Point::Ready(_, true))));
                    continue;
                }
                let point = match cells.get(&key) {
                    Some(Cell::Ready {
                        measurement,
                        seeded,
                        ..
                    }) => {
                        hits.push((key.clone(), *seeded));
                        Point::Ready(measurement.clone(), *seeded)
                    }
                    Some(Cell::InFlight(flight)) => {
                        hits.push((key.clone(), false));
                        Point::Waiting(Arc::clone(flight))
                    }
                    None => {
                        let flight = Arc::new(Flight::default());
                        cells.insert(key.clone(), Cell::InFlight(Arc::clone(&flight)));
                        claims.push(Claim {
                            cells: &self.cells,
                            runs: &self.runs,
                            key: key.clone(),
                            flight,
                            published: false,
                        });
                        Point::Claimed(claims.len() - 1)
                    }
                };
                order.push(points.len());
                seen.insert(key, points.len());
                points.push(point);
            }
        }
        for ((program, config), seeded) in hits {
            lock(&self.stats).hits += 1;
            let now = std::time::Instant::now();
            let config_name = config.to_string();
            let labels = [
                ("program", program.as_str()),
                ("config", &config_name),
                ("seeded", "true"),
            ];
            let labelled = if seeded { &labels[..] } else { &labels[..2] };
            trace::record("cache.read", "session", now, now, labelled);
            self.emit(&Progress::Hit { program, config });
        }

        // Publish every claimed point before waiting on anyone else's: two
        // batches each waiting on the other's unpublished point would never
        // finish.
        let jobs: Vec<Key> = claims.iter().map(|c| c.key.clone()).collect();
        let measured: Vec<Result<Measurement, StudyError>> = claims
            .iter_mut()
            .zip(self.run_pool(&jobs))
            .map(|(claim, (result, ticket))| self.settle(claim, result, &ticket))
            .collect();

        let mut errors: Vec<StudyError> = Vec::new();
        let answers: Vec<Option<Measurement>> = points
            .into_iter()
            .map(|point| {
                let result = match point {
                    Point::Ready(measurement, _) => Ok(measurement),
                    Point::Claimed(i) => measured[i].clone(),
                    Point::Waiting(flight) => flight.wait().clone(),
                };
                result.map_err(|e| errors.push(e)).ok()
            })
            .collect();
        if !errors.is_empty() {
            return Err(StudyError::from_many(errors));
        }
        Ok(order
            .into_iter()
            .map(|i| answers[i].clone().expect("every point succeeded"))
            .collect())
    }

    /// Account for one claimed point's outcome — counters, writeback, or the
    /// failure event — then publish it to the cache and its waiters.
    fn settle(
        &self,
        claim: &mut Claim<'_>,
        result: MeasureResult,
        ticket: &Ticket,
    ) -> Result<Measurement, StudyError> {
        match &result {
            Ok((measurement, timing)) => {
                {
                    let mut stats = lock(&self.stats);
                    stats.misses += 1;
                    stats.shared_runs += u64::from(ticket.shared);
                    stats.compile_time += timing.compile;
                    stats.sim_time += timing.simulate;
                }
                if ticket.shared {
                    self.lock_metrics().inc(names::SHARED_RUNS);
                }
                if let Some(wb) = &self.writeback {
                    wb(measurement, timing);
                }
            }
            Err(e) => {
                let (program, config) = &claim.key;
                let mut m = self.lock_metrics();
                m.inc(names::FAILURES);
                m.event(
                    "measure_failed",
                    &[
                        ("program", program),
                        ("config", &config.to_string()),
                        ("error", &e.to_string()),
                    ],
                );
            }
        }
        claim.publish(&result, ticket);
        result.map(|(m, _)| m)
    }

    /// Measure every program of `names` under one `config`, in `names` order.
    ///
    /// # Errors
    ///
    /// As [`Session::measure_many`].
    pub fn measure_set(
        &self,
        names: &[&str],
        config: Config,
    ) -> Result<Vec<Measurement>, StudyError> {
        let requests: Vec<(&str, Config)> = names.iter().map(|n| (*n, config)).collect();
        self.measure_many(&requests)
    }

    /// Measure without touching the cache, the run index or the counters:
    /// always compiles and simulates. This is the right primitive for timing
    /// harnesses and backend comparisons, where serving a memoized result
    /// would time (or compare) the cache instead of the toolchain.
    ///
    /// # Errors
    ///
    /// Any [`StudyError`] the underlying measurement raises.
    pub fn measure_uncached(
        &self,
        program: &str,
        config: Config,
    ) -> Result<Measurement, StudyError> {
        self.resolve(program)?
            .run_timed(program, &config, |compiled| simulate_run(compiled, &config))
            .map(|(m, _)| m)
    }

    /// Compile a named program (built-in benchmark or registered inline
    /// source) under `config` without running it. The conformance harness
    /// uses this to get at the executable image both executors will
    /// interpret.
    ///
    /// # Errors
    ///
    /// [`StudyError::UnknownProgram`] or [`StudyError::Compile`].
    pub fn compile_program(
        &self,
        program: &str,
        config: Config,
    ) -> Result<lisp::CompiledProgram, StudyError> {
        let opts = config.to_options();
        match self.resolve(program)? {
            Source::Builtin(b) => b.compile(&opts),
            Source::Inline(p) => p.compile(&opts),
        }
        .map_err(|e| StudyError::Compile {
            program: program.to_string(),
            message: e.to_string(),
        })
    }

    /// Run a named benchmark with the retired-instruction trace enabled (see
    /// [`mipsx::trace`]), validating its output like any other measurement.
    ///
    /// Trace-enabled runs are never cached: the whole point is to re-execute
    /// under observation, and the observer itself is stateful.
    ///
    /// # Errors
    ///
    /// Any [`StudyError`]; an observer that breaks out of the run surfaces as
    /// [`StudyError::Sim`].
    pub fn run_observed<O: mipsx::trace::Observer>(
        &self,
        program: &str,
        config: Config,
        fuel: u64,
        obs: &mut O,
    ) -> Result<Measurement, StudyError> {
        let compiled = self.compile_program(program, config)?;
        self.run_compiled_observed(program, config, &compiled, fuel, obs)
    }

    fn run_compiled_observed<O: mipsx::trace::Observer>(
        &self,
        program: &str,
        config: Config,
        compiled: &lisp::CompiledProgram,
        fuel: u64,
        obs: &mut O,
    ) -> Result<Measurement, StudyError> {
        let outcome =
            lisp::run_observed_with(compiled, config.backend, fuel, obs).map_err(|e| {
                StudyError::Sim {
                    program: program.to_string(),
                    message: e.to_string(),
                }
            })?;
        let source = self.resolve(program)?;
        let expected: Option<&str> = match &source {
            Source::Builtin(b) => Some(b.expected_output),
            Source::Inline(p) => p.expected_output.as_deref(),
        };
        let output_ok = expected.is_none_or(|want| outcome.output == want);
        if outcome.halt_code != lisp::exit_code::OK || !output_ok {
            return Err(StudyError::WrongOutput {
                program: program.to_string(),
                config: config.to_string(),
                got: format!("halt={} {:?}", outcome.halt_code, outcome.output),
            });
        }
        Ok(Measurement {
            program: program.to_string(),
            config,
            stats: outcome.stats,
            compile: compiled.stats,
            halt_code: outcome.halt_code,
            output: outcome.output,
        })
    }

    /// Compile `program` under `config` and run it with a cycle-attribution
    /// [`mipsx::Profiler`] attached, validating the output like any other
    /// measurement. Returns the measurement together with the profiler, whose
    /// books are guaranteed to reconcile with `measurement.stats` (the
    /// profiler asserts this property; see [`mipsx::Profiler::reconcile`]).
    ///
    /// Profiled runs are never cached — the observer is the point.
    ///
    /// # Errors
    ///
    /// Any [`StudyError`] compilation or simulation raises.
    pub fn profile(
        &self,
        program: &str,
        config: Config,
        fuel: u64,
    ) -> Result<(Measurement, mipsx::Profiler), StudyError> {
        self.profile_with_stalls(program, config, fuel)
            .map(|(m, p, _)| (m, p))
    }

    /// [`Session::profile`], additionally attaching a
    /// [`mipsx::TimingModel`] when `config.timing` asks for one. The stall
    /// breakdown lands in `measurement.stats.timing`, and the per-function
    /// stall attribution (cycles lost to icache/dcache/mispredict/load-use,
    /// by function) is returned alongside the profiler; under the ideal model
    /// it is `None` and the run is exactly [`Session::profile`].
    ///
    /// # Errors
    ///
    /// Any [`StudyError`] compilation or simulation raises.
    pub fn profile_with_stalls(
        &self,
        program: &str,
        config: Config,
        fuel: u64,
    ) -> Result<(Measurement, mipsx::Profiler, Option<Vec<mipsx::FuncStalls>>), StudyError> {
        // A profiled run is neither a request to the cache nor a miss: it is
        // never cached, so only its finish is reported.
        let t0 = std::time::Instant::now();
        let compiled = self.compile_program(program, config)?;
        let compile = t0.elapsed();
        let profiler = mipsx::Profiler::new(&compiled.program);
        let t1 = std::time::Instant::now();
        let (measurement, profiler, stalls) = if config.timing.is_ideal() {
            let mut profiler = profiler;
            let measurement =
                self.run_compiled_observed(program, config, &compiled, fuel, &mut profiler)?;
            (measurement, profiler, None)
        } else {
            // Both observers ride one run: the profiler attributes
            // architectural cycles, the timing model attributes stalls, and
            // they see the identical retirement stream.
            let mut obs =
                mipsx::trace::Chain::new(profiler, mipsx::TimingModel::new(config.timing));
            let mut measurement =
                self.run_compiled_observed(program, config, &compiled, fuel, &mut obs)?;
            let mipsx::trace::Chain {
                first: profiler,
                second: model,
            } = obs;
            measurement.stats.timing = Some(model.finish());
            let stalls = model.by_function(&compiled.program.symtab);
            (measurement, profiler, Some(stalls))
        };
        self.finished(
            program,
            config,
            Timing {
                compile,
                simulate: t1.elapsed(),
            },
            measurement.stats.cycles,
            true,
        );
        Ok((measurement, profiler, stalls))
    }

    /// Render the observability surface as a short plain-text summary: cache
    /// counters, how many compiled points simulated and how many shared a
    /// run, the compile/simulate wall-time split, and the slowest measured
    /// points.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = self.stats();
        let _ = writeln!(
            out,
            "session: {} measurements cached, {} hits / {} misses ({} requests), workers {}",
            self.cached_measurements(),
            s.hits,
            s.misses,
            s.requests(),
            self.parallelism
        );
        let _ = writeln!(
            out,
            "  {} compiled, {} simulated, {} runs shared",
            s.misses,
            s.simulated(),
            s.shared_runs
        );
        let _ = writeln!(
            out,
            "  work time {:.2?} = compile {:.2?} + simulate {:.2?}",
            s.work_time(),
            s.compile_time,
            s.sim_time
        );
        let mut slowest: Vec<(Measurement, Timing)> = self.measurements().collect();
        slowest.sort_by_key(|(_, t)| std::cmp::Reverse(t.total()));
        for (m, t) in slowest.iter().take(3) {
            let _ = writeln!(
                out,
                "  slowest: {}/{} {:.2?} (compile {:.2?}, simulate {:.2?})",
                m.program,
                m.config,
                t.total(),
                t.compile,
                t.simulate
            );
        }
        out
    }

    fn lock_metrics(&self) -> MutexGuard<'_, MetricsRegistry> {
        lock(&self.metrics)
    }

    /// Run `f` on the live registry under its lock, with the point-in-time
    /// gauges (configured workers, cache size) brought up to date first.
    fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        // Count the cache before taking the metrics lock: no path holds both.
        let cached = self.cached_measurements() as f64;
        let mut m = self.lock_metrics();
        m.set_gauge(names::WORKERS_CONFIGURED, self.parallelism.get() as f64);
        m.set_gauge(names::CACHED_MEASUREMENTS, cached);
        f(&m)
    }

    /// A snapshot of the session's metrics registry: every counter, histogram
    /// and event recorded so far, plus point-in-time gauges (configured
    /// workers, peak occupancy, cache size).
    pub fn metrics(&self) -> MetricsRegistry {
        self.with_metrics(MetricsRegistry::clone)
    }

    /// The metrics snapshot serialized as JSON (see
    /// [`MetricsRegistry::to_json`]).
    pub fn metrics_json(&self) -> String {
        self.with_metrics(MetricsRegistry::to_json)
    }

    /// The metrics snapshot in Prometheus text-exposition format (see
    /// [`MetricsRegistry::to_prometheus`]), rendered under the registry's lock
    /// without copying it.
    pub fn metrics_prometheus(&self) -> String {
        self.with_metrics(MetricsRegistry::to_prometheus)
    }

    /// The instrumentation spine: record the event in the metrics registry,
    /// then hand it to the optional [`Progress`] adapter.
    fn emit(&self, event: &Progress) {
        {
            let mut m = self.lock_metrics();
            match event {
                Progress::Hit { program, config } => {
                    m.inc(names::REQUESTS);
                    m.inc(names::CACHE_HITS);
                    m.event(
                        "cache_hit",
                        &[("program", program), ("config", &config.to_string())],
                    );
                }
                Progress::Started { program, config } => {
                    m.inc(names::REQUESTS);
                    m.inc(names::CACHE_MISSES);
                    m.event(
                        "measure_started",
                        &[("program", program), ("config", &config.to_string())],
                    );
                }
                Progress::Finished {
                    program,
                    config,
                    timing,
                    ..
                } => {
                    let compile = timing.compile.as_secs_f64();
                    let simulate = timing.simulate.as_secs_f64();
                    m.observe(names::COMPILE_SECONDS, DURATION_BUCKETS, compile);
                    m.observe(names::SIMULATE_SECONDS, DURATION_BUCKETS, simulate);
                    m.event(
                        "measure_finished",
                        &[
                            ("program", program),
                            ("config", &config.to_string()),
                            ("compile_s", &compile.to_string()),
                            ("simulate_s", &simulate.to_string()),
                        ],
                    );
                }
            }
        }
        if let Some(f) = &self.progress {
            f(event);
        }
    }

    /// Emit [`Progress::Finished`] for a measurement. Its simulated rate is
    /// observed only when it `simulated` its run: the wait for a shared run
    /// says nothing about the simulator's speed.
    fn finished(
        &self,
        program: &str,
        config: Config,
        timing: Timing,
        cycles: u64,
        simulated: bool,
    ) {
        let simulate = timing.simulate.as_secs_f64();
        if simulated && simulate > 0.0 {
            self.lock_metrics().observe(
                names::SIMULATE_MCYCLES_PER_SECOND,
                MCYCLES_PER_SECOND_BUCKETS,
                cycles as f64 / simulate / 1e6,
            );
        }
        self.emit(&Progress::Finished {
            program: program.to_owned(),
            config,
            timing,
            cycles,
        });
    }

    /// Run `jobs` on at most `self.parallelism` workers, returning results in
    /// job order, each with its part in the run index. Worker panics are
    /// converted into per-program errors. Each worker enters the caller's
    /// trace context, so its spans parent where the caller's would.
    fn run_pool(&self, jobs: &[Key]) -> Vec<(MeasureResult, Ticket)> {
        let workers = jobs.len().min(self.parallelism.get());
        if workers <= 1 {
            return jobs.iter().map(|job| self.run_one(job)).collect();
        }
        let ctx = trace::current();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(MeasureResult, Ticket)>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _entered = ctx.as_ref().map(|(tracer, ctx)| tracer.enter(*ctx));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        *slots[i].lock().expect("result slot") = Some(self.run_one(job));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }

    fn run_one(&self, point: &Key) -> (MeasureResult, Ticket) {
        let mut ticket = Ticket::default();
        let source = match self.resolve(&point.0) {
            Ok(source) => source,
            Err(e) => return (Err(e), ticket),
        };
        let depth = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut m = self.lock_metrics();
            m.observe(names::POOL_OCCUPANCY, OCCUPANCY_BUCKETS, depth as f64);
            m.gauge_max(names::POOL_PEAK_OCCUPANCY, depth as f64);
        }
        let result = self.run_one_inner(point, source, &mut ticket);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        (result, ticket)
    }

    fn run_one_inner(&self, point: &Key, source: Source, ticket: &mut Ticket) -> MeasureResult {
        let (name, config) = (point.0.as_str(), &point.1);
        // The measurement's span; `run_timed` records its compile and
        // simulate children.
        let _measure = trace::span("measure", "session")
            .label("program", name)
            .label("config", config);
        // The Started emit runs inside the panic guard too: a misbehaving
        // progress callback surfaces as this measurement's error, not as a
        // harness abort.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.emit(&Progress::Started {
                program: name.to_owned(),
                config: *config,
            });
            source.run_timed(name, config, |compiled| {
                self.take_run(point, compiled, ticket)
            })
        }))
        .unwrap_or_else(|payload| {
            Err(StudyError::Sim {
                program: name.to_owned(),
                message: format!("measurement worker panicked: {}", panic_text(&payload)),
            })
        });
        if let Ok((measurement, timing)) = &result {
            let simulated = !ticket.shared;
            self.finished(name, *config, *timing, measurement.stats.cycles, simulated);
        }
        result
    }

    /// The run of `point`, compiled to `compiled`: taken from the point
    /// that simulated or is simulating the identical run, or else
    /// registered in the run index and simulated here. `ticket` records
    /// which.
    fn take_run(
        &self,
        point: &Key,
        compiled: &lisp::CompiledProgram,
        ticket: &mut Ticket,
    ) -> Result<Run, String> {
        let key = RunKey::of(compiled, &point.1, &self.run_seeds);
        ticket.run = Some(key);
        let (outcome, owner) = loop {
            let mut runs = lock(&self.runs);
            let owner = match runs.get(&key) {
                None => {
                    let flight = Arc::new(RunFlight::default());
                    let entry = RunEntry::Running {
                        owner: point.clone(),
                        flight: Arc::clone(&flight),
                    };
                    runs.insert(key, entry);
                    drop(runs);
                    ticket.owned = Some(Arc::clone(&flight));
                    // Publish from this worker, not through the point's
                    // claim: claims publish only after the whole batch
                    // returns, and a point of this batch may be waiting.
                    let guard = RunGuard {
                        runs: &self.runs,
                        key,
                        flight,
                    };
                    let result = simulate(compiled, &point.1).map_err(|e| e.to_string());
                    guard.publish(result.clone());
                    return result.map(Run::Simulated);
                }
                Some(RunEntry::Running { owner, flight }) => {
                    let (owner, flight) = (owner.clone(), Arc::clone(flight));
                    drop(runs);
                    break (flight.wait().clone()?, owner);
                }
                Some(RunEntry::Done { owner }) => owner.clone(),
            };
            drop(runs);
            if let Some(outcome) = self.ready_run(&owner, &key) {
                break (outcome, owner);
            }
            // The owner's cell no longer holds the run (its source was
            // replaced): forget the entry, unless it changed meanwhile, and
            // look again.
            let mut runs = lock(&self.runs);
            if matches!(runs.get(&key), Some(RunEntry::Done { owner: o }) if *o == owner) {
                runs.remove(&key);
            }
        };
        ticket.shared = true;
        Ok(Run::Shared {
            outcome,
            owner: format!("{}:{}", owner.0, owner.1),
        })
    }

    /// The outcome of run `key` from `owner`'s ready cell, if that cell holds
    /// it.
    fn ready_run(&self, owner: &Key, key: &RunKey) -> Option<lisp::Outcome> {
        match lock(&self.cells).get(owner) {
            Some(Cell::Ready {
                measurement,
                run: Some(run),
                ..
            }) if run == key => Some(lisp::Outcome {
                halt_code: measurement.halt_code,
                output: measurement.output.clone(),
                stats: measurement.stats.clone(),
            }),
            _ => None,
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisp::CheckingMode;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn measure_hits_cache_on_second_request() {
        let s = Session::serial();
        let cfg = Config::baseline(CheckingMode::None);
        let a = s.measure("frl", cfg).unwrap();
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().hits, 0);
        let b = s.measure("frl", cfg).unwrap();
        assert_eq!(s.stats().misses, 1, "no recompute");
        assert_eq!(s.stats().hits, 1);
        assert_eq!(a.stats, b.stats);
        assert!(s.stats().work_time() > Duration::ZERO);
    }

    #[test]
    fn batch_duplicates_measure_once() {
        let s = Session::new();
        let cfg = Config::baseline(CheckingMode::None);
        let out = s
            .measure_many(&[("frl", cfg), ("frl", cfg), ("frl", cfg)])
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(s.stats().misses, 1, "in-flight dedup");
        assert_eq!(s.stats().hits, 2);
        assert_eq!(out[0].stats, out[1].stats);
    }

    #[test]
    fn failures_are_collected_not_raced() {
        let s = Session::new();
        let cfg = Config::baseline(CheckingMode::None);
        let err = s
            .measure_many(&[("frl", cfg), ("nope", cfg), ("nada", cfg)])
            .unwrap_err();
        match err {
            StudyError::Multiple(errors) => {
                assert_eq!(errors.len(), 2, "both failures retained: {errors:?}");
                assert!(errors
                    .iter()
                    .all(|e| matches!(e, StudyError::UnknownProgram(_))));
            }
            other => panic!("expected Multiple, got {other}"),
        }
        // The successful sibling still entered the cache.
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.cached_measurements(), 1);
    }

    #[test]
    fn progress_callback_sees_lifecycle() {
        let started = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        let (s2, f2, h2) = (started.clone(), finished.clone(), hits.clone());
        let s = Session::new().with_progress(move |p| match p {
            Progress::Started { .. } => {
                s2.fetch_add(1, Ordering::Relaxed);
            }
            Progress::Finished { timing, .. } => {
                assert!(timing.total() > Duration::ZERO);
                f2.fetch_add(1, Ordering::Relaxed);
            }
            Progress::Hit { .. } => {
                h2.fetch_add(1, Ordering::Relaxed);
            }
        });
        let cfg = Config::baseline(CheckingMode::None);
        s.measure("frl", cfg).unwrap();
        s.measure("frl", cfg).unwrap();
        assert_eq!(started.load(Ordering::Relaxed), 1);
        assert_eq!(finished.load(Ordering::Relaxed), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    /// A panicking worker (here: a progress callback that panics for one
    /// program) is contained by the pool and reported alongside ordinary
    /// failures in the same [`StudyError::Multiple`].
    #[test]
    fn worker_panic_is_collected_into_multiple() {
        let s = Session::new().with_progress(|p| {
            if let Progress::Started { program, .. } = p {
                assert!(program != "trav", "callback rejects trav");
            }
        });
        let cfg = Config::baseline(CheckingMode::None);
        let err = s
            .measure_many(&[("trav", cfg), ("nope", cfg), ("frl", cfg)])
            .unwrap_err();
        match err {
            StudyError::Multiple(errors) => {
                assert_eq!(errors.len(), 2, "panic + unknown program: {errors:?}");
                assert!(
                    errors.iter().any(|e| matches!(
                        e,
                        StudyError::Sim { program, message }
                            if program == "trav" && message.contains("panicked")
                    )),
                    "panic not surfaced: {errors:?}"
                );
                assert!(
                    errors
                        .iter()
                        .any(|e| matches!(e, StudyError::UnknownProgram(p) if p == "nope")),
                    "unknown program lost: {errors:?}"
                );
            }
            other => panic!("expected Multiple, got {other}"),
        }
        // The healthy sibling still completed and entered the cache.
        assert_eq!(s.cached_measurements(), 1);
    }

    /// Hit/miss counters across overlapping batches match the hand-computed
    /// plan: first occurrence of each (program, config) is a miss, everything
    /// after — including in-batch duplicates — is a hit.
    #[test]
    fn warm_cache_counters_match_hand_computed_plan() {
        let s = Session::serial();
        let none = Config::baseline(CheckingMode::None);
        let full = Config::baseline(CheckingMode::Full);

        // Batch 1: two fresh points.
        s.measure_many(&[("frl", none), ("trav", none)]).unwrap();
        assert_eq!((s.stats().misses, s.stats().hits), (2, 0));

        // Batch 2: one warm point, one fresh point requested twice, one warm.
        s.measure_many(&[("frl", none), ("frl", full), ("trav", none), ("frl", full)])
            .unwrap();
        assert_eq!((s.stats().misses, s.stats().hits), (3, 3));

        // A single warm request afterwards.
        s.measure("frl", full).unwrap();
        assert_eq!((s.stats().misses, s.stats().hits), (3, 4));
        assert_eq!(s.stats().requests(), 7);
        assert_eq!(s.cached_measurements(), 3);
    }

    /// The persistence hooks: a writeback fires exactly once per fresh
    /// measurement, a seeded entry is served as a hit without simulating, and
    /// seeding neither double-inserts nor re-triggers the writeback.
    #[test]
    fn seed_and_writeback_round_trip() {
        let cfg = Config::baseline(CheckingMode::None);
        let written: Arc<Mutex<Vec<(Measurement, Timing)>>> = Arc::default();
        let sink = written.clone();
        let s = Session::serial()
            .with_writeback(move |m, t| sink.lock().unwrap().push((m.clone(), *t)));

        assert!(!s.contains("frl", cfg));
        s.measure("frl", cfg).unwrap();
        s.measure("frl", cfg).unwrap(); // hit: no second writeback
        assert!(s.contains("frl", cfg));
        let persisted = written.lock().unwrap().clone();
        assert_eq!(persisted.len(), 1, "one writeback per fresh measurement");

        // A second session warm-started from the persisted entry answers the
        // same request with zero misses, and the metrics prove it.
        let (m, t) = persisted.into_iter().next().unwrap();
        let warm = Session::serial();
        assert!(warm.seed(m.clone(), t));
        assert!(!warm.seed(m.clone(), t), "double seed is a no-op");
        let again = warm.measure("frl", cfg).unwrap();
        assert_eq!(again.stats, m.stats);
        assert_eq!(warm.stats().misses, 0, "seeded entry served without work");
        assert_eq!(warm.stats().hits, 1);
        assert_eq!(warm.metrics().counter(names::SEEDED), 1);
    }

    /// Inline sources flow through the same cache, counters, and writeback
    /// as built-in benchmarks, and carry their pinned output when given one.
    #[test]
    fn inline_sources_measure_like_benchmarks() {
        let cfg = Config::baseline(CheckingMode::Full);
        let s = Session::serial();
        assert!(!s.has_source("tiny"));
        assert!(s.register_source(
            "tiny",
            InlineProgram::new("(print (plus 1 2))").with_expected_output("3\n"),
        ));
        assert!(s.has_source("tiny"));
        assert!(
            !s.register_source(
                "tiny",
                InlineProgram::new("(print (plus 1 2))").with_expected_output("3\n"),
            ),
            "identical re-registration is a no-op"
        );
        let m = s.measure("tiny", cfg).unwrap();
        assert_eq!(m.program, "tiny");
        assert!(m.stats.cycles > 0);
        s.measure("tiny", cfg).unwrap();
        assert_eq!((s.stats().misses, s.stats().hits), (1, 1));
        assert_eq!(s.metrics().counter(names::SOURCES_REGISTERED), 1);

        // Uncached and compile-only paths resolve the same name.
        s.measure_uncached("tiny", cfg).unwrap();
        let compiled = s.compile_program("tiny", cfg).unwrap();
        assert!(compiled.stats.object_words > 0);
    }

    /// A wrong pinned output is a [`StudyError::WrongOutput`]; no pinned
    /// output validates the exit code only.
    #[test]
    fn inline_expected_output_is_enforced_when_pinned() {
        let cfg = Config::baseline(CheckingMode::Full);
        let s = Session::serial();
        s.register_source(
            "claims-four",
            InlineProgram::new("(print (plus 1 2))").with_expected_output("4\n"),
        );
        s.register_source("unpinned", InlineProgram::new("(print (plus 1 2))"));
        let err = s.measure("claims-four", cfg).unwrap_err();
        assert!(
            matches!(&err, StudyError::WrongOutput { program, .. } if program == "claims-four"),
            "{err}"
        );
        s.measure("unpinned", cfg).unwrap();
    }

    /// Replacing a registered source under the same name evicts its cached
    /// measurements, so a stale result can never outlive its source.
    #[test]
    fn reregistering_a_different_source_evicts_the_cache() {
        let cfg = Config::baseline(CheckingMode::Full);
        let s = Session::serial();
        s.register_source("shifty", InlineProgram::new("(print (plus 1 2))"));
        s.measure("shifty", cfg).unwrap();
        assert!(s.contains("shifty", cfg));
        assert!(s.register_source("shifty", InlineProgram::new("(print (plus 2 3))")));
        assert!(!s.contains("shifty", cfg), "stale measurement evicted");
        s.measure("shifty", cfg).unwrap();
        assert_eq!(s.stats().misses, 2, "replacement re-measured");
    }

    /// An inline source that fails to compile surfaces as
    /// [`StudyError::Compile`] with the registered name, and an unknown name
    /// is still [`StudyError::UnknownProgram`].
    #[test]
    fn inline_compile_errors_carry_the_registered_name() {
        let cfg = Config::baseline(CheckingMode::Full);
        let s = Session::serial();
        s.register_source("broken", InlineProgram::new("(print (no-such-fn 1))"));
        let err = s.measure("broken", cfg).unwrap_err();
        assert!(
            matches!(&err, StudyError::Compile { program, .. } if program == "broken"),
            "{err}"
        );
        let err = s.measure("never-registered", cfg).unwrap_err();
        assert!(matches!(err, StudyError::UnknownProgram(_)), "{err}");
    }

    /// Inside a trace context, a batch records session spans (cache.read for
    /// hits, measure/compile/simulate for misses) that share the context's
    /// trace id; outside one, nothing is recorded.
    #[test]
    fn traced_batch_records_session_spans() {
        use crate::trace::{TraceContext, Tracer};
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let s = Session::serial();
        let cfg = Config::baseline(CheckingMode::None);
        s.measure("frl", cfg).unwrap(); // no context: no spans

        let ctx = TraceContext::fresh();
        {
            let _entered = tracer.enter(ctx);
            s.measure("frl", cfg).unwrap(); // hit → cache.read
            s.measure("trav", cfg).unwrap(); // miss → measure + compile + simulate
        }
        s.measure("boyer", cfg).unwrap(); // no context: no spans

        tracer
            .finish(ctx.trace, ctx.parent)
            .expect("trace recorded");
        let rec = tracer.lookup(ctx.trace).unwrap();
        let names: Vec<&str> = rec.spans.iter().map(|sp| sp.name.as_str()).collect();
        // Record order: the measure guard records when it closes, after the
        // compile and simulate intervals inside it.
        assert_eq!(names, ["cache.read", "compile", "simulate", "measure"]);
        assert!(rec.spans.iter().all(|sp| sp.trace == ctx.trace));
        let measure = rec.spans.iter().find(|sp| sp.name == "measure").unwrap();
        assert_eq!(measure.parent, Some(ctx.parent));
        for leaf in ["compile", "simulate"] {
            let sp = rec.spans.iter().find(|sp| sp.name == leaf).unwrap();
            assert_eq!(sp.parent, Some(measure.id), "{leaf} nests under measure");
        }
        // Every session span carries the same program/config labels as before.
        for sp in &rec.spans {
            assert_eq!(sp.component, "session");
            let keys: Vec<&str> = sp.labels.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["program", "config"], "{}", sp.name);
        }
    }

    /// A hit on a seeded entry spans as `cache.read` labelled `seeded=true` —
    /// the provenance that lets a warm-restart trace prove "no simulation
    /// happened" without passing the hit off as a disk read.
    #[test]
    fn seeded_hit_spans_as_seeded_cache_read() {
        use crate::trace::{TraceContext, Tracer};
        let cfg = Config::baseline(CheckingMode::None);
        let cold = Session::serial();
        let m = cold.measure("frl", cfg).unwrap();
        let t = Timing::default();

        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let warm = Session::serial();
        warm.seed(m, t);
        let ctx = TraceContext::fresh();
        let _entered = tracer.enter(ctx);
        warm.measure_many(&[("frl", cfg), ("frl", cfg)]).unwrap();
        tracer
            .finish(ctx.trace, ctx.parent)
            .expect("trace recorded");
        let rec = tracer.lookup(ctx.trace).unwrap();
        let names: Vec<&str> = rec.spans.iter().map(|sp| sp.name.as_str()).collect();
        assert_eq!(names, ["cache.read", "cache.read"], "a duplicate too");
        for sp in &rec.spans {
            assert_eq!(sp.component, "session");
            let labels: Vec<(&str, &str)> = sp
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            assert_eq!(
                labels,
                [
                    ("program", "frl"),
                    ("config", cfg.to_string().as_str()),
                    ("seeded", "true")
                ]
            );
        }
        assert!(!rec
            .spans
            .iter()
            .any(|sp| sp.name == "simulate" || sp.name == "store.read"));
    }

    /// A point whose run another point simulated records `run.shared`,
    /// labelled with the owning point, in place of `simulate`; its
    /// measurement and the owner's agree.
    #[test]
    fn shared_run_spans_name_the_owner() {
        use crate::trace::{TraceContext, Tracer};
        let plain = Config::baseline(CheckingMode::None);
        let genarith = plain.with_hw(mipsx::HwConfig::with_generic_arith());
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let s = Session::serial();
        let ctx = TraceContext::fresh();
        let (owner, shared) = {
            let _entered = tracer.enter(ctx);
            let owner = s.measure("frl", plain).unwrap();
            (owner, s.measure("frl", genarith).unwrap())
        };
        assert_eq!(shared.stats, owner.stats);
        assert_eq!(shared.output, owner.output);
        assert_eq!((s.stats().misses, s.stats().shared_runs), (2, 1));
        assert_eq!(s.metrics().counter(names::SHARED_RUNS), 1);
        let rate = s
            .metrics()
            .histogram(names::SIMULATE_MCYCLES_PER_SECOND)
            .map(|h| h.counts.iter().sum::<u64>());
        assert_eq!(rate, Some(1), "only the simulating point has a rate");

        tracer
            .finish(ctx.trace, ctx.parent)
            .expect("trace recorded");
        let rec = tracer.lookup(ctx.trace).unwrap();
        let names: Vec<&str> = rec.spans.iter().map(|sp| sp.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "compile",
                "simulate",
                "measure",
                "compile",
                "run.shared",
                "measure"
            ]
        );
        let run = rec.spans.iter().find(|sp| sp.name == "run.shared").unwrap();
        let owner_label = format!("frl:{plain}");
        let labels: Vec<(&str, &str)> = run
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            labels,
            [
                ("program", "frl"),
                ("config", genarith.to_string().as_str()),
                ("owner", owner_label.as_str())
            ]
        );
    }

    /// Errors are never kept in the run index: a point that fails its own
    /// validation leaves no entry, so the next point with the same run
    /// simulates it, and a later one shares that.
    #[test]
    fn a_failed_point_leaves_no_run_behind() {
        let cfg = Config::baseline(CheckingMode::Full);
        let s = Session::serial();
        let source = "(print (plus 1 2))";
        s.register_source(
            "claims-four",
            InlineProgram::new(source).with_expected_output("4\n"),
        );
        s.register_source("first", InlineProgram::new(source));
        s.register_source("second", InlineProgram::new(source));
        assert!(s.measure("claims-four", cfg).is_err());
        assert!(
            lock(&s.runs).is_empty(),
            "the failed owner's run is dropped"
        );
        s.measure("first", cfg).unwrap();
        assert_eq!(s.stats().shared_runs, 0, "simulated again");
        s.measure("second", cfg).unwrap();
        assert_eq!(s.stats().shared_runs, 1);
        assert_eq!(lock(&s.runs).len(), 1, "one run for the two points");

        // Replacing the owner's source drops its run with its cells.
        s.register_source("first", InlineProgram::new("(print 7)"));
        assert!(lock(&s.runs).is_empty());
        s.register_source("third", InlineProgram::new(source));
        s.measure("third", cfg).unwrap();
        assert_eq!(s.stats().shared_runs, 1, "no owner left to share from");
    }

    /// The text and JSON renderings, made under the lock, match rendering a
    /// snapshot — gauges included.
    #[test]
    fn renderings_match_the_snapshot() {
        let s = Session::serial();
        s.measure("frl", Config::baseline(CheckingMode::None))
            .unwrap();
        let snapshot = s.metrics();
        assert_eq!(snapshot.gauge(names::CACHED_MEASUREMENTS), Some(1.0));
        assert_eq!(s.metrics_prometheus(), snapshot.to_prometheus());
        assert_eq!(s.metrics_json(), snapshot.to_json());
    }

    #[test]
    fn summary_mentions_cache_and_split() {
        let s = Session::new();
        s.measure("frl", Config::baseline(CheckingMode::None))
            .unwrap();
        let text = s.summary();
        assert!(text.contains("1 measurements cached"), "{text}");
        assert!(text.contains("compile"), "{text}");
        assert!(text.contains("slowest: frl"), "{text}");
    }
}
