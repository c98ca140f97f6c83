//! `tagstudyd`: the experiment-serving daemon, plus the `tagctl` client's
//! plumbing.
//!
//! The daemon puts a [`tagstudy::Session`] behind a hand-rolled HTTP/1.1
//! server ([`crate::http`]) and wires it to a persistent
//! [`store::ResultStore`]: every fresh measurement is written through to disk,
//! and on startup every still-valid record is seeded back into the session, so
//! a restarted daemon answers previously-computed batches with **zero**
//! simulations — provable from `/metrics` (`session_cache_misses_total` stays
//! 0, `session_seeded_total` counts the preload).
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/experiments` | Measure a batch (see [`crate::proto`]); deduplicated and fanned through the session worker pool |
//! | `GET /v1/results/{key}` | The raw validated store record for a content address |
//! | `GET /metrics` | Prometheus text: session + daemon + store series, always current |
//! | `GET /healthz` | Liveness: `ok` |
//! | `GET /v1/debug/trace` | Flight-recorder snapshot (JSON; `?format=chrome` for `chrome://tracing`) |
//! | `GET /v1/debug/trace/{id}` | One completed trace by trace id |
//! | `POST /v1/shutdown` | Graceful shutdown: stop accepting, drain, flush |
//!
//! ## Concurrency
//!
//! Every HTTP worker shares the one session directly; the daemon has no
//! lock around it. A cache hit is answered while other requests' misses are
//! being compiled and simulated, and `/metrics` reads the session without
//! waiting on any measurement. A point that several requests ask for at
//! once is measured once (single-flight): the first request measures it,
//! the others wait for that result and count as cache hits. A failed
//! measurement is not cached; every request waiting on it gets the error.
//!
//! ## Tracing
//!
//! Every request is traced end-to-end (see [`tagstudy::trace`]): the root
//! span is the request itself (named by normalized endpoint), with a
//! `queue_wait` child for time spent in the accept queue and, for
//! `/v1/experiments`, a `session.batch` child under which the session's
//! `cache.read`/`measure`/`compile`/`simulate`/`run.shared` spans and the
//! store's `store.write` I/O spans attach. A hit on an entry seeded from the
//! store at start-up is a `cache.read` labelled `seeded=true`; `store.read`
//! names only a real read of the store's disk. The root span is the worker
//! thread's trace context for the whole request, and the session carries it
//! into its pool workers, so no layer below takes a context argument. A
//! client-supplied `traceparent` header joins the request to the client's
//! trace — a malformed header is *never* an error, it just starts a fresh
//! trace. Completed traces land in a bounded in-memory flight recorder
//! served by the debug endpoints; per-endpoint latency histograms and
//! p50/p90/p99 quantile gauges ride `/metrics`.
//!
//! ## Overload behavior
//!
//! Accepted connections go through a bounded queue. When the queue is full
//! the acceptor *sheds* the connection immediately — `503` with a
//! `Retry-After` header — instead of letting latency grow without bound; a
//! connection that waited in the queue longer than its deadline is shed the
//! moment a worker picks it up, because by then the client has likely given
//! up and simulating for a dead socket helps nobody.

#![deny(missing_docs)]

pub mod cli;
pub mod fleet;
pub mod http;
pub mod proto;

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use store::{ResultStore, StoreKey};
use tagstudy::metrics::{labeled, REQUEST_BUCKETS};
use tagstudy::trace::{self, chrome_trace_json, TraceContext, TraceId, Tracer};
use tagstudy::{MetricsRegistry, Session, StudyError};

use http::{Request, Response};
use proto::ExperimentSpec;

/// Metric names the daemon publishes (alongside the session's and store's).
pub mod daemon_metrics {
    /// Counter: HTTP requests parsed and routed.
    pub const REQUESTS: &str = "daemon_http_requests_total";
    /// Counter: 2xx responses sent.
    pub const RESPONSES_2XX: &str = "daemon_http_responses_2xx_total";
    /// Counter: 4xx responses sent.
    pub const RESPONSES_4XX: &str = "daemon_http_responses_4xx_total";
    /// Counter: 5xx responses sent (including sheds).
    pub const RESPONSES_5XX: &str = "daemon_http_responses_5xx_total";
    /// Counter: connections shed at accept because the queue was full.
    pub const QUEUE_SHED: &str = "daemon_queue_shed_total";
    /// Counter: connections shed at dequeue because they overstayed the
    /// queue deadline.
    pub const DEADLINE_SHED: &str = "daemon_deadline_shed_total";
    /// Counter: experiment batches served.
    pub const BATCHES: &str = "daemon_batches_total";
    /// Counter: experiments across all served batches.
    pub const EXPERIMENTS: &str = "daemon_experiments_total";
    /// Gauge: connections waiting in the accept queue right now.
    pub const QUEUE_DEPTH: &str = "daemon_queue_depth";
    /// Gauge: highest queue depth observed.
    pub const QUEUE_PEAK: &str = "daemon_queue_peak_depth";
    /// Counter: uncached differential-fuzz batches served (`/v1/fuzz/run`).
    pub const FUZZ_RUNS: &str = "daemon_fuzz_runs_total";
    /// Counter: matrix columns executed across all fuzz batches.
    pub const FUZZ_COLUMNS: &str = "daemon_fuzz_columns_total";
    /// Counter: programs a fuzz campaign reported completing.
    pub const FUZZ_PROGRAMS: &str = "daemon_fuzz_programs_total";
    /// Counter: columns a fuzz campaign reported skipping (resume coverage).
    pub const FUZZ_SKIPPED: &str = "daemon_fuzz_columns_skipped_total";
    /// Counter: divergences a fuzz campaign reported.
    pub const FUZZ_DIVERGENCES: &str = "daemon_fuzz_divergences_total";
    /// Counter: witnesses a fuzz campaign reported archiving.
    pub const FUZZ_WITNESSES: &str = "daemon_fuzz_witnesses_total";
    /// Gauge: the reporting campaign's coverage-ledger saturation (percent).
    pub const FUZZ_COVERAGE: &str = "daemon_fuzz_coverage_percent";
    /// Gauge: the reporting campaign's recent throughput (columns/second).
    pub const FUZZ_RATE: &str = "daemon_fuzz_columns_per_second";
    /// Histogram (per-endpoint, labeled): end-to-end request latency in
    /// seconds, from enqueue to response written. Buckets:
    /// [`tagstudy::metrics::REQUEST_BUCKETS`].
    pub const REQUEST_DURATION: &str = "daemon_request_duration_seconds";
    /// Histogram: time a served connection spent waiting in the accept queue
    /// (also observed for deadline sheds — that *is* the tuning signal).
    pub const QUEUE_WAIT: &str = "daemon_queue_wait_seconds";
    /// Gauge: requests being served right now (dequeued, response not yet
    /// written).
    pub const IN_FLIGHT: &str = "daemon_requests_in_flight";
    /// Gauge (per-endpoint + quantile, labeled): p50/p90/p99 latency
    /// estimated from [`REQUEST_DURATION`] at scrape time.
    pub const LATENCY_QUANTILE: &str = "daemon_request_latency_quantile_seconds";
    /// Counter: request traces sealed into the flight recorder.
    pub const TRACES_RECORDED: &str = "daemon_traces_recorded_total";
    /// Counter: completed traces evicted from the recorder ring.
    pub const TRACES_EVICTED: &str = "daemon_traces_evicted_total";
    /// Counter: completed traces that overstayed the slow threshold.
    pub const TRACES_SLOW: &str = "daemon_traces_slow_total";
    /// Counter: spans dropped by the recorder's bounds.
    pub const SPANS_DROPPED: &str = "daemon_trace_spans_dropped_total";
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP worker threads (each serves one connection at a time). The
    /// *measurement* parallelism is the session's own worker pool, so a small
    /// number here is plenty.
    pub http_workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond this the
    /// acceptor sheds with `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// How long a connection may wait in the queue before a worker sheds it
    /// instead of serving it.
    pub queue_deadline: Duration,
    /// Socket read/write timeout per connection — a stalled peer cannot pin
    /// a worker forever.
    pub io_timeout: Duration,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Completed request traces the flight recorder keeps (ring buffer).
    pub trace_capacity: usize,
    /// Requests whose total duration reaches this threshold also land in the
    /// recorder's slow-request log.
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            http_workers: 4,
            queue_capacity: 64,
            queue_deadline: Duration::from_secs(60),
            io_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
            trace_capacity: 256,
            slow_threshold: Duration::from_secs(1),
        }
    }
}

/// What warmed up at startup — reported by [`Server::start`] callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmStart {
    /// Records seeded into the session from the store.
    pub seeded: usize,
    /// Records on disk that no longer match any current source (skipped).
    pub skipped: usize,
}

/// The shared daemon state: the session, the store, the bounded accept
/// queue, and the daemon-side metrics.
struct Daemon {
    /// Shared by every worker without an outer lock: a cache hit is answered
    /// while another request's miss is being measured.
    session: Session,
    store: Option<Arc<ResultStore>>,
    metrics: Mutex<MetricsRegistry>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_ready: Condvar,
    shutting_down: AtomicBool,
    config: ServerConfig,
    /// Where to self-connect to unblock the acceptor on shutdown.
    wake_addr: SocketAddr,
    /// The flight recorder every layer's spans land in: each request's root
    /// span enters it on the worker thread serving the request.
    tracer: Tracer,
    /// Requests currently being served (dequeued, response not written).
    in_flight: AtomicUsize,
}

/// A handle for poking a running server from outside the HTTP surface
/// (used by the binary for logging and by tests for assertions).
#[derive(Clone)]
pub struct DaemonHandle(Arc<Daemon>);

impl DaemonHandle {
    /// Begin graceful shutdown: stop accepting, let workers drain the queue
    /// and in-flight work. Idempotent. Returns immediately;
    /// [`Server::join`] observes completion.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }

    /// The full Prometheus exposition the `/metrics` endpoint serves:
    /// current session, daemon and store series. It never waits on a
    /// measurement in flight.
    pub fn metrics_prometheus(&self) -> String {
        self.0.metrics_prometheus()
    }
}

/// A running daemon: the listener thread, the worker pool, and the shared
/// state. Dropping a `Server` without [`Server::join`] detaches the threads.
pub struct Server {
    daemon: Arc<Daemon>,
    addr: SocketAddr,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7099"`, or port 0 for an ephemeral
    /// port) and start serving. When `store` is given, the session writes
    /// every fresh measurement through to it, and everything still valid on
    /// disk is seeded back into the session before the first request.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        store: Option<Arc<ResultStore>>,
        config: ServerConfig,
    ) -> std::io::Result<(Server, WarmStart)> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let wake_addr = if addr.ip().is_unspecified() {
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), addr.port())
        } else {
            addr
        };

        let tracer = Tracer::new(config.trace_capacity, config.slow_threshold);
        let mut session = Session::new();
        if let Some(store) = &store {
            let sink = Arc::clone(store);
            session = session.with_writeback(move |m, t| {
                // Inline sources live outside the benchmark registry the
                // store keys by name; their measurements are returned to the
                // caller but not persisted.
                if programs::by_name(&m.program).is_none() {
                    return;
                }
                if let Err(e) = sink.put(m, t) {
                    eprintln!("[tagstudyd] writeback failed (continuing): {e}");
                }
            });
        }
        let mut warm = WarmStart::default();
        if let Some(store) = &store {
            let on_disk = store.record_count();
            for (m, t) in store.load_current() {
                if session.seed(m, t) {
                    warm.seeded += 1;
                }
            }
            warm.skipped = on_disk.saturating_sub(warm.seeded);
        }

        let daemon = Arc::new(Daemon {
            session,
            store,
            metrics: Mutex::new(MetricsRegistry::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            config: config.clone(),
            wake_addr,
            tracer,
            in_flight: AtomicUsize::new(0),
        });

        let acceptor = {
            let daemon = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name("tagstudyd-accept".to_string())
                .spawn(move || daemon.accept_loop(listener))?
        };
        let workers = (0..config.http_workers.max(1))
            .map(|i| {
                let daemon = Arc::clone(&daemon);
                std::thread::Builder::new()
                    .name(format!("tagstudyd-worker-{i}"))
                    .spawn(move || daemon.worker_loop())
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok((
            Server {
                daemon,
                addr,
                acceptor,
                workers,
            },
            warm,
        ))
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle to the shared daemon state.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle(Arc::clone(&self.daemon))
    }

    /// Block until the daemon has shut down (via `POST /v1/shutdown` or
    /// [`DaemonHandle::shutdown`]): joins the acceptor and every worker —
    /// which drain all queued and in-flight requests first — then flushes
    /// the store.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(store) = &self.daemon.store {
            if let Err(e) = store.flush() {
                eprintln!("[tagstudyd] store flush failed: {e}");
            }
        }
    }
}

impl Daemon {
    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking accept() with a throwaway
        // self-connection, and every idle worker waiting on the queue.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        self.queue_ready.notify_all();
    }

    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue an accepted connection, or hand it back when the queue is full.
    fn try_enqueue(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.config.queue_capacity {
            Err(stream)
        } else {
            q.push_back((stream, Instant::now()));
            self.queue_ready.notify_one();
            Ok(q.len())
        }
    }

    fn accept_loop(&self, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            match self.try_enqueue(stream) {
                Ok(depth) => {
                    self.lock_metrics()
                        .gauge_max(daemon_metrics::QUEUE_PEAK, depth as f64);
                }
                Err(mut stream) => {
                    // Shed at the door: tell the client when to come back
                    // rather than queueing unbounded work.
                    {
                        let mut m = self.lock_metrics();
                        m.inc(daemon_metrics::QUEUE_SHED);
                        m.inc(daemon_metrics::RESPONSES_5XX);
                    }
                    let _ = stream.set_write_timeout(Some(self.config.io_timeout));
                    let mut shed = Response::error(503, "overloaded: accept queue is full");
                    shed.retry_after = Some(self.config.retry_after_secs);
                    http::write_response(&mut stream, &shed);
                    // Half-close and drain the unread request (bounded by the
                    // short timeout): closing with unread data would RST the
                    // connection and could discard the 503 we just sent.
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    let mut scratch = [0u8; 4096];
                    while matches!(std::io::Read::read(&mut stream, &mut scratch), Ok(n) if n > 0) {
                    }
                }
            }
        }
        // Wake the workers so they can observe the flag and drain out.
        self.queue_ready.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let next = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(item) = q.pop_front() {
                        break Some(item);
                    }
                    if self.shutting_down.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = self.queue_ready.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some((mut stream, enqueued)) = next else {
                return;
            };
            let waited = enqueued.elapsed();
            self.lock_metrics().observe(
                daemon_metrics::QUEUE_WAIT,
                REQUEST_BUCKETS,
                waited.as_secs_f64(),
            );
            if waited > self.config.queue_deadline {
                {
                    let mut m = self.lock_metrics();
                    m.inc(daemon_metrics::DEADLINE_SHED);
                    m.inc(daemon_metrics::RESPONSES_5XX);
                }
                let mut shed =
                    Response::error(503, "overloaded: request overstayed its queue deadline");
                shed.retry_after = Some(self.config.retry_after_secs);
                http::write_response(&mut stream, &shed);
                continue;
            }
            self.serve_connection(stream, enqueued);
        }
    }

    fn serve_connection(&self, mut stream: TcpStream, enqueued: Instant) {
        let dequeued = Instant::now();
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(self.config.io_timeout));
        let _ = stream.set_write_timeout(Some(self.config.io_timeout));
        let parsed = http::read_request(&mut stream);

        // Join the client's trace when a well-formed traceparent came along;
        // anything else — missing header, malformed header, unparsable
        // request — starts a fresh trace. Never an error.
        let client_ctx = parsed
            .as_ref()
            .ok()
            .and_then(|r| r.header(tagstudy::trace::TRACEPARENT_HEADER))
            .and_then(TraceContext::from_traceparent);
        let trace = client_ctx.map_or_else(TraceId::generate, |c| c.trace);
        let endpoint = match &parsed {
            Ok(r) => endpoint_of(&r.method, &r.path),
            Err(_) => "unparsed".to_string(),
        };

        // The root span covers enqueue → response written, and is this
        // thread's trace context until it closes: every span below joins it.
        let root = self.tracer.root(
            trace,
            client_ctx.map(|c| c.parent),
            &endpoint,
            "daemon",
            enqueued,
        );
        // queue_wait is a real child span: the request's lifetime includes
        // the time it sat in the accept queue before any byte was read.
        trace::record("queue_wait", "daemon", enqueued, dequeued, &[]);

        let response = match &parsed {
            Ok(request) => self.route(request),
            Err(why) => Response::error(400, why),
        };
        {
            let mut m = self.lock_metrics();
            m.inc(daemon_metrics::REQUESTS);
            m.inc(match response.status {
                200..=299 => daemon_metrics::RESPONSES_2XX,
                400..=499 => daemon_metrics::RESPONSES_4XX,
                _ => daemon_metrics::RESPONSES_5XX,
            });
        }
        http::write_response(&mut stream, &response);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);

        // Seal the trace: the per-endpoint latency histogram observes the
        // root span's interval.
        self.lock_metrics().observe(
            &labeled(daemon_metrics::REQUEST_DURATION, &[("endpoint", &endpoint)]),
            REQUEST_BUCKETS,
            enqueued.elapsed().as_secs_f64(),
        );
        let root_id = root.id().expect("a root span is always recorded");
        drop(root.label("status", response.status));
        self.tracer.finish(trace, root_id);
    }

    fn route(&self, request: &Request) -> Response {
        let path = request.path.split('?').next().unwrap_or(&request.path);
        let query = request.path.strip_prefix(path).unwrap_or("");
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/metrics") => Response::text(200, self.metrics_prometheus()),
            ("POST", "/v1/experiments") => self.handle_batch(&request.body),
            ("POST", "/v1/fuzz/run") => self.handle_fuzz_run(&request.body),
            ("POST", "/v1/fuzz/report") => self.handle_fuzz_report(&request.body),
            ("GET", "/v1/debug/trace") => self.handle_debug_trace(query),
            ("GET", p) if p.starts_with("/v1/debug/trace/") => {
                self.handle_debug_trace_one(&p["/v1/debug/trace/".len()..])
            }
            ("GET", p) if p.starts_with("/v1/results/") => {
                self.handle_result(&p["/v1/results/".len()..])
            }
            ("POST", "/v1/shutdown") => {
                self.shutdown();
                Response::json(200, "{\"status\":\"shutting down\"}\n")
            }
            (
                _,
                "/healthz" | "/metrics" | "/v1/experiments" | "/v1/fuzz/run" | "/v1/fuzz/report"
                | "/v1/shutdown" | "/v1/debug/trace",
            ) => Response::error(405, &format!("wrong method for {path}")),
            _ => Response::error(404, &format!("no route for {path}")),
        }
    }

    fn handle_batch(&self, body: &[u8]) -> Response {
        let specs = match proto::parse_batch(body) {
            Ok(specs) => specs,
            Err(why) => return Response::error(400, &why),
        };
        let requests: Vec<(&str, tagstudy::Config)> = specs
            .iter()
            .map(|s| (s.program.as_str(), s.config))
            .collect();
        // The whole dedup + fan-out + writeback sits under one session.batch
        // span; session spans (cache reads, measure/compile/simulate or
        // run.shared) and store writeback spans parent under it.
        let batch = trace::span("session.batch", "session").label("experiments", specs.len());
        self.register_inline(&specs);
        let result = self.session.measure_many(&requests);
        drop(batch);
        match result {
            Ok(measurements) => {
                {
                    let mut m = self.lock_metrics();
                    m.inc(daemon_metrics::BATCHES);
                    m.add(daemon_metrics::EXPERIMENTS, specs.len() as u64);
                }
                let entries: Vec<(ExperimentSpec, StoreKey, tagstudy::Measurement)> = specs
                    .into_iter()
                    .zip(measurements)
                    .map(|(spec, m)| {
                        let key = store_key(&spec);
                        (spec, key, m)
                    })
                    .collect();
                Response::json(200, proto::results_json(&entries))
            }
            // The client's own inline source failed to compile, validate or
            // fit: its error, not the server's. A failing named benchmark is
            // a server bug.
            Err(e) if only_inline_failures(&e, &specs) => {
                Response::error(400, &format!("inline source failed: {e}"))
            }
            Err(e) => Response::error(500, &format!("measurement failed: {e}")),
        }
    }

    /// The differential-fuzzing execution path: like a batch, but every spec
    /// is measured **uncached**. The session cache keys on `(program,
    /// config)` with the backend deliberately excluded (results are
    /// backend-independent *by design* — which is exactly the property a
    /// differential fuzzer must not assume), so the cached path would
    /// collapse a fast-vs-ref fan-out into one execution. This route
    /// always compiles and simulates, per spec, on the spec's own backend.
    fn handle_fuzz_run(&self, body: &[u8]) -> Response {
        let specs = match proto::parse_batch(body) {
            Ok(specs) => specs,
            Err(why) => return Response::error(400, &why),
        };
        self.register_inline(&specs);
        let mut entries: Vec<(ExperimentSpec, StoreKey, tagstudy::Measurement)> = Vec::new();
        for spec in specs {
            // One fuzz.column span per matrix column. The label names the
            // backend, which the spec string leaves out for store identity:
            // a fast and a ref column of one point are different columns.
            let label = format!(
                "{}:backend={}",
                spec.to_spec_string(),
                spec.config.backend.name()
            );
            let column = trace::span("fuzz.column", "fleet").label("spec", &label);
            let measured = self.session.measure_uncached(&spec.program, spec.config);
            drop(column);
            match measured {
                Ok(m) => {
                    let key = store_key(&spec);
                    entries.push((spec, key, m));
                }
                // One failing spec fails the whole batch: the client retries
                // spec-by-spec to pin down which column refused (a refusal
                // *is* a differential signal — e.g. a halt-code mismatch the
                // measurement validator catches before the client could).
                // An inline source that does not compile is the client's
                // error, as on `/v1/experiments`.
                Err(e @ StudyError::Compile { .. }) if spec.source.is_some() => {
                    return Response::error(400, &format!("inline source failed: {e}"));
                }
                Err(e) => {
                    return Response::error(500, &format!("fuzz run failed: {label}: {e}"));
                }
            }
        }
        {
            let mut m = self.lock_metrics();
            m.inc(daemon_metrics::FUZZ_RUNS);
            m.add(daemon_metrics::FUZZ_COLUMNS, entries.len() as u64);
        }
        Response::json(200, proto::results_json(&entries))
    }

    /// Inline specs carry their own source: register each under its
    /// content-derived name before measuring, so the batch rides the same
    /// memoizing engine as named benchmarks. The name covers the source and
    /// the heap, so re-registering is a no-op and repeated batches — and
    /// concurrent ones — stay cache hits.
    fn register_inline(&self, specs: &[ExperimentSpec]) {
        for spec in specs {
            if let Some(source) = &spec.source {
                let mut program = tagstudy::InlineProgram::new(source.clone());
                if let Some(heap) = spec.heap_semi_bytes {
                    program = program.with_heap(heap);
                }
                self.session.register_source(&spec.program, program);
            }
        }
    }

    /// Campaign telemetry sink: the fuzz driver posts per-program deltas and
    /// the current coverage/throughput gauges, and `/metrics` republishes
    /// them. Body: `{"programs":Δ,"skipped":Δ,"divergences":Δ,"witnesses":Δ,
    /// "coverage_percent":x,"columns_per_second":x}`, every field optional.
    /// Column totals are not reported: `/v1/fuzz/run` counts them itself.
    /// A report with an unknown or repeated key, a coverage outside
    /// [0, 100], a negative or non-finite gauge, or a delta that would
    /// overflow its total is refused with a 400 naming the field, and
    /// changes nothing.
    fn handle_fuzz_report(&self, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        let root = match tagstudy::Json::parse(text) {
            Ok(root) => root,
            Err(why) => return Response::error(400, &why),
        };
        let obj = match root.as_object("fuzz report") {
            Ok(obj) => obj,
            Err(why) => return Response::error(400, &why),
        };
        let counters = [
            ("programs", daemon_metrics::FUZZ_PROGRAMS),
            ("skipped", daemon_metrics::FUZZ_SKIPPED),
            ("divergences", daemon_metrics::FUZZ_DIVERGENCES),
            ("witnesses", daemon_metrics::FUZZ_WITNESSES),
        ];
        // (field, gauge, largest meaningful reading)
        let gauges = [
            ("coverage_percent", daemon_metrics::FUZZ_COVERAGE, 100.0),
            (
                "columns_per_second",
                daemon_metrics::FUZZ_RATE,
                f64::INFINITY,
            ),
        ];
        // Check the whole report before applying any of it: a rejected report
        // changes nothing. Every accepted key is known and not yet seen, so
        // the repeat check looks back over at most six keys.
        let mut deltas = Vec::new();
        let mut readings = Vec::new();
        for (i, (name, v)) in obj.iter().enumerate() {
            if obj[..i].iter().any(|(seen, _)| seen == name) {
                return Response::error(400, &format!("{name}: repeated key"));
            }
            if let Some(&(_, metric)) = counters.iter().find(|(field, _)| field == name) {
                match v.as_u64(name) {
                    Ok(n) => deltas.push((name, metric, n)),
                    Err(why) => return Response::error(400, &why),
                }
            } else if let Some(&(_, metric, max)) = gauges.iter().find(|(f, ..)| f == name) {
                let why = match v.as_f64(name) {
                    Ok(x) if !x.is_finite() => format!("{name}: {x} is not finite"),
                    Ok(x) if x < 0.0 => format!("{name}: {x} is negative"),
                    Ok(x) if x > max => format!("{name}: {x} exceeds {max}"),
                    Ok(x) => {
                        readings.push((metric, x));
                        continue;
                    }
                    Err(why) => why,
                };
                return Response::error(400, &why);
            } else {
                return Response::error(400, &format!("{name}: unknown fuzz report field"));
            }
        }
        let mut m = self.lock_metrics();
        for &(name, metric, n) in &deltas {
            if m.counter(metric).checked_add(n).is_none() {
                let why = format!("{name}: adding {n} overflows the daemon's total");
                return Response::error(400, &why);
            }
        }
        for (_, metric, n) in deltas {
            m.add(metric, n);
        }
        for (metric, x) in readings {
            m.set_gauge(metric, x);
        }
        Response::json(200, "{\"status\":\"ok\"}\n")
    }

    fn handle_result(&self, key_text: &str) -> Response {
        let key = match StoreKey::from_hex(key_text) {
            Ok(key) => key,
            Err(why) => return Response::error(400, &why),
        };
        let Some(store) = &self.store else {
            return Response::error(404, "daemon is running without a result store");
        };
        match store.raw_record(&key) {
            Some(text) => Response::json(200, text),
            None => Response::error(404, &format!("no record for key {key}")),
        }
    }

    /// The flight-recorder snapshot: recent + slow traces as JSON, or the
    /// whole thing as a Chrome trace-event document (`?format=chrome`) ready
    /// for `chrome://tracing` / Perfetto.
    fn handle_debug_trace(&self, query: &str) -> Response {
        let snapshot = self.tracer.snapshot();
        if query_param(query, "format") == Some("chrome") {
            let mut traces = snapshot.recent.clone();
            let seen: std::collections::HashSet<u128> = traces.iter().map(|t| t.trace.0).collect();
            traces.extend(
                snapshot
                    .slow
                    .iter()
                    .filter(|t| !seen.contains(&t.trace.0))
                    .cloned(),
            );
            return Response::json(200, chrome_trace_json(&traces));
        }
        Response::json(200, snapshot.to_json())
    }

    /// One completed trace by id (32 lowercase hex digits).
    fn handle_debug_trace_one(&self, id_text: &str) -> Response {
        let Some(trace) = TraceId::from_hex(id_text) else {
            return Response::error(400, &format!("bad trace id {id_text:?}"));
        };
        match self.tracer.lookup(trace) {
            Some(record) => Response::json(200, record.to_json()),
            None => Response::error(404, &format!("no recorded trace {trace}")),
        }
    }

    /// The full `/metrics` exposition: session series, daemon series, store
    /// series — always current, since reading the session never waits on a
    /// measurement.
    fn metrics_prometheus(&self) -> String {
        let session_text = self.session.metrics_prometheus();
        let daemon_text = {
            let mut m = self.lock_metrics().clone();
            m.set_gauge(
                daemon_metrics::QUEUE_DEPTH,
                self.queue.lock().unwrap_or_else(|e| e.into_inner()).len() as f64,
            );
            m.set_gauge(
                daemon_metrics::IN_FLIGHT,
                self.in_flight.load(Ordering::Relaxed) as f64,
            );
            let recorder = self.tracer.stats();
            m.add(daemon_metrics::TRACES_RECORDED, recorder.completed);
            m.add(daemon_metrics::TRACES_EVICTED, recorder.evicted);
            m.add(daemon_metrics::TRACES_SLOW, recorder.slow);
            m.add(daemon_metrics::SPANS_DROPPED, recorder.dropped_spans);
            for (key, value) in latency_quantile_gauges(&m) {
                m.set_gauge(&key, value);
            }
            m.to_prometheus()
        };
        let store_text = self.store.as_ref().map_or(String::new(), |store| {
            let s = store.stats();
            format!(
                "store_puts_total {}\nstore_gets_total {}\nstore_hits_total {}\n\
                 store_quarantined_total {}\nstore_records {}\nstore_quarantine_files {}\n",
                s.puts,
                s.gets,
                s.hits,
                s.quarantined,
                store.record_count(),
                store.quarantine_count()
            )
        });
        format!("{session_text}{daemon_text}{store_text}")
    }
}

/// The content address of a measured spec: its source (a benchmark's, or the
/// inline text) under the heap it ran with.
fn store_key(spec: &ExperimentSpec) -> StoreKey {
    match &spec.source {
        Some(text) => StoreKey::compute(text, spec.heap_semi_bytes, &spec.config),
        None => {
            let benchmark = programs::by_name(&spec.program)
                .expect("named spec validated against the registry");
            StoreKey::compute(
                benchmark.source,
                Some(benchmark.heap_semi_bytes),
                &spec.config,
            )
        }
    }
}

/// Latency-quantile gauges estimated at scrape time from the per-endpoint
/// `daemon_request_duration_seconds` histograms: one
/// `daemon_request_latency_quantile_seconds` series per (endpoint, quantile).
///
/// An endpoint whose histogram holds no observations contributes **no**
/// series at all — the quantile of an empty histogram is undefined, and
/// emitting it as `NaN` or `0` would poison dashboards that aggregate over
/// endpoints. (Empty histograms do occur: a scrape can race request
/// registration, and snapshots restored from JSON may carry zeroed buckets.)
pub fn latency_quantile_gauges(m: &MetricsRegistry) -> Vec<(String, f64)> {
    let prefix = format!("{}{{endpoint=\"", daemon_metrics::REQUEST_DURATION);
    let mut quantiles: Vec<(String, f64)> = Vec::new();
    for (key, hist) in m.histograms() {
        let Some(endpoint) = key
            .strip_prefix(prefix.as_str())
            .and_then(|rest| rest.strip_suffix("\"}"))
        else {
            continue;
        };
        if hist.count == 0 {
            // No observations yet: omit the endpoint, don't emit garbage.
            continue;
        }
        for (q, q_label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            if let Some(v) = hist.quantile(q) {
                quantiles.push((
                    labeled(
                        daemon_metrics::LATENCY_QUANTILE,
                        &[("endpoint", endpoint), ("quantile", q_label)],
                    ),
                    v,
                ));
            }
        }
    }
    quantiles
}

/// Normalize a request to a bounded endpoint label for metrics and span
/// names: known routes verbatim, parameterized routes collapsed
/// (`/v1/results/{key}`, `/v1/debug/trace/{trace}`), everything else
/// `other` — an attacker scanning paths must not mint unbounded series.
fn endpoint_of(method: &str, path: &str) -> String {
    let path = path.split('?').next().unwrap_or(path);
    let path = match path {
        "/healthz" | "/metrics" | "/v1/experiments" | "/v1/fuzz/run" | "/v1/fuzz/report"
        | "/v1/shutdown" | "/v1/debug/trace" => path,
        p if p.starts_with("/v1/debug/trace/") => "/v1/debug/trace/{trace}",
        p if p.starts_with("/v1/results/") => "/v1/results/{key}",
        _ => "other",
    };
    let method = match method {
        "GET" | "POST" | "PUT" | "DELETE" | "HEAD" | "OPTIONS" => method,
        _ => "OTHER",
    };
    format!("{method} {path}")
}

/// The value of `name` in a query string like `?format=chrome&x=1`.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .trim_start_matches('?')
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Whether every failure in `e` belongs to one of the inline specs of the
/// batch (each failure names the program it measured).
fn only_inline_failures(e: &StudyError, specs: &[ExperimentSpec]) -> bool {
    let program = match e {
        StudyError::Multiple(all) => return all.iter().all(|e| only_inline_failures(e, specs)),
        StudyError::UnknownProgram(program)
        | StudyError::Compile { program, .. }
        | StudyError::Sim { program, .. }
        | StudyError::WrongOutput { program, .. } => program,
    };
    specs
        .iter()
        .any(|s| s.source.is_some() && s.program == *program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(
            endpoint_of("POST", "/v1/experiments"),
            "POST /v1/experiments"
        );
        assert_eq!(
            endpoint_of("GET", "/v1/results/abc123"),
            "GET /v1/results/{key}"
        );
        assert_eq!(
            endpoint_of("GET", "/v1/debug/trace/deadbeef"),
            "GET /v1/debug/trace/{trace}"
        );
        assert_eq!(
            endpoint_of("GET", "/v1/debug/trace?format=chrome"),
            "GET /v1/debug/trace"
        );
        assert_eq!(endpoint_of("GET", "/../../etc/passwd"), "GET other");
        assert_eq!(endpoint_of("BREW", "/healthz"), "OTHER /healthz");
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("?format=chrome", "format"), Some("chrome"));
        assert_eq!(query_param("?a=1&format=json", "format"), Some("json"));
        assert_eq!(query_param("", "format"), None);
        assert_eq!(query_param("?format", "format"), None);
    }
}
