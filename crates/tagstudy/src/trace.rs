//! End-to-end request tracing: trace/span identifiers, a `traceparent`-style
//! propagation header, and a bounded in-memory flight recorder.
//!
//! One experiment request produces one *trace* — a tree of timed *spans*
//! rooted at the daemon's request span, with children for queue wait, session
//! batch execution, per-measurement compile/simulate, and store read/write
//! I/O. The client (`tagctl`) mints the [`TraceId`] and carries it to the
//! daemon in a `traceparent` header; every layer below attaches its spans to
//! the same id, so the whole request is reconstructable from a single lookup.
//!
//! ## How spans are recorded
//!
//! A trace context is per thread. [`Tracer::enter`] makes a recorder and a
//! [`TraceContext`] current until its guard drops (the daemon enters each
//! request once, through its root span, [`Tracer::root`]). Below that, no
//! layer takes a tracer or a context as an argument:
//!
//! - [`span`] opens a guard that is the thread's parent while it lives and
//!   records itself when dropped (`session.batch`, `measure`, `fuzz.column`);
//! - [`record`] records an interval whose bounds were taken before a guard
//!   could open (`queue_wait`, the `compile`/`simulate` children cut from
//!   the same instants as [`crate::Timing`], the store's I/O, cache hits);
//! - [`crate::Session`]'s worker pool enters the caller's context on each of
//!   its threads.
//!
//! Outside a context both are inert, so untraced callers (the offline
//! binaries, most tests) pay one thread-local check per span.
//!
//! The [`Tracer`] is the flight recorder: a ring buffer of the last N
//! completed traces plus a separate slow-request log (root span duration over
//! a configurable threshold). Everything is bounded — a daemon under
//! production traffic records forever in constant memory. Like every observer
//! in this codebase (the retirement trace, the profiler), the recorder is
//! provably zero-cost on *measurements*: spans time wall-clock I/O and
//! scheduling around the simulator, never the simulation itself, and the
//! zero-overhead proof test asserts byte-identical reports and `Stats` with
//! the recorder attached vs detached.
//!
//! Export formats: a hand-rolled JSON document (parsed back by `tagctl
//! trace` via [`RecorderSnapshot::from_json`]), the Chrome `chrome://tracing`
//! trace-event format ([`chrome_trace_json`]), and a plain-text span tree
//! ([`TraceRecord::render_tree`]).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{json_field, json_string, Json};

/// The HTTP header that carries a [`TraceContext`] between processes
/// (`00-<32 hex trace>-<16 hex span>-01`, the W3C Trace Context shape).
pub const TRACEPARENT_HEADER: &str = "traceparent";

/// Active traces the recorder will hold spans for concurrently; spans for
/// further trace ids are dropped (and counted) rather than growing the map.
const MAX_ACTIVE_TRACES: usize = 64;
/// Spans one trace may accumulate before further spans are dropped.
const MAX_SPANS_PER_TRACE: usize = 4096;
/// Completed traces kept in the slow-request log.
const SLOW_LOG_CAPACITY: usize = 32;

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

/// A 128-bit trace identifier, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// A 64-bit span identifier, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A process-global sequence mixed into every generated id so two ids minted
/// in the same nanosecond still differ.
static ID_SEQ: AtomicU64 = AtomicU64::new(0);

/// splitmix64 — a tiny, well-distributed mixer (public-domain constants).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A fresh pseudo-random 64-bit value: wall clock + pid + a global sequence,
/// stirred through splitmix64. Not cryptographic — ids only need to be
/// unique enough that concurrent requests never collide in practice.
fn fresh_u64() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = ID_SEQ.fetch_add(1, Ordering::Relaxed);
    splitmix64(nanos ^ seq.rotate_left(17) ^ u64::from(std::process::id()).rotate_left(47))
}

impl TraceId {
    /// Mint a fresh (non-zero) trace id.
    pub fn generate() -> TraceId {
        loop {
            let id = (u128::from(fresh_u64()) << 64) | u128::from(fresh_u64());
            if id != 0 {
                return TraceId(id);
            }
        }
    }

    /// Parse 32 lowercase hex digits. `None` on any other shape (including
    /// the all-zero id, which the W3C spec reserves as invalid).
    pub fn from_hex(text: &str) -> Option<TraceId> {
        if text.len() != 32 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        match u128::from_str_radix(text, 16) {
            Ok(0) | Err(_) => None,
            Ok(id) => Some(TraceId(id)),
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl SpanId {
    /// Mint a fresh (non-zero) span id.
    pub fn generate() -> SpanId {
        loop {
            let id = fresh_u64();
            if id != 0 {
                return SpanId(id);
            }
        }
    }

    /// Parse 16 lowercase hex digits; `None` on any other shape or all-zero.
    pub fn from_hex(text: &str) -> Option<SpanId> {
        if text.len() != 16 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        match u64::from_str_radix(text, 16) {
            Ok(0) | Err(_) => None,
            Ok(id) => Some(SpanId(id)),
        }
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------------

/// Where new spans should attach: a trace id and the parent span to hang
/// children under. `Copy`, so it threads freely through worker pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span joins.
    pub trace: TraceId,
    /// The span new children are parented under.
    pub parent: SpanId,
}

impl TraceContext {
    /// A context rooted at `parent` within `trace`.
    pub fn new(trace: TraceId, parent: SpanId) -> TraceContext {
        TraceContext { trace, parent }
    }

    /// A brand-new trace with a freshly minted client-side root span — what
    /// `tagctl` sends when originating a request.
    pub fn fresh() -> TraceContext {
        TraceContext {
            trace: TraceId::generate(),
            parent: SpanId::generate(),
        }
    }

    /// Render as a `traceparent` header value: `00-<trace>-<parent>-01`.
    pub fn to_traceparent(self) -> String {
        format!("00-{}-{}-01", self.trace, self.parent)
    }

    /// Parse a `traceparent` header value. Deliberately lenient in effect:
    /// callers treat `None` as "start a fresh trace" — a malformed header
    /// must never fail a request (asserted by the daemon's e2e tests).
    pub fn from_traceparent(text: &str) -> Option<TraceContext> {
        let mut parts = text.trim().split('-');
        let version = parts.next()?;
        if version.len() != 2 || !version.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let trace = TraceId::from_hex(parts.next()?)?;
        let parent = SpanId::from_hex(parts.next()?)?;
        // Flags must be present and hex; anything after is tolerated per spec
        // only for future versions — we reject it, falling back to fresh ids.
        let flags = parts.next()?;
        if flags.len() != 2 || !flags.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(TraceContext { trace, parent })
    }
}

// ---------------------------------------------------------------------------
// Spans and trace records
// ---------------------------------------------------------------------------

/// One completed span: a named, labeled interval within a trace. Times are
/// microseconds since the owning [`Tracer`]'s epoch (the daemon's start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// The parent span, if any. A parent outside the recorded set (e.g. the
    /// client's originating span) renders this span as a root.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `POST /v1/experiments`, `simulate`, `store.write`.
    pub name: String,
    /// The layer that produced it: `daemon`, `session`, `store`, `fleet`,
    /// `client`.
    pub component: String,
    /// Start, µs since the tracer epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Ordered key/value labels (program, config, status, key, …).
    pub labels: Vec<(String, String)>,
}

/// One completed trace: the sealed set of spans for a finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace id.
    pub trace: TraceId,
    /// Name of the root span (the daemon request span).
    pub root: String,
    /// Root span start, µs since the tracer epoch.
    pub start_us: u64,
    /// Root span duration, µs.
    pub dur_us: u64,
    /// Every recorded span, in record order.
    pub spans: Vec<SpanRecord>,
}

/// Recorder counters, reported on `/v1/debug/trace` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Traces completed (sealed by [`Tracer::finish`]) since start.
    pub completed: u64,
    /// Completed traces evicted from the ring buffer.
    pub evicted: u64,
    /// Spans dropped by the active-trace or spans-per-trace bounds.
    pub dropped_spans: u64,
    /// Completed traces whose root exceeded the slow threshold.
    pub slow: u64,
}

/// A point-in-time copy of the flight recorder's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderSnapshot {
    /// The last N completed traces, oldest first.
    pub recent: Vec<TraceRecord>,
    /// The slow-request log, oldest first.
    pub slow: Vec<TraceRecord>,
    /// Recorder counters.
    pub stats: RecorderStats,
    /// The configured slow threshold, µs.
    pub slow_threshold_us: u64,
}

// ---------------------------------------------------------------------------
// The flight recorder
// ---------------------------------------------------------------------------

struct RecorderState {
    /// Spans of traces still in flight, keyed by trace id.
    active: HashMap<u128, Vec<SpanRecord>>,
    /// The ring of completed traces (bounded by `capacity`).
    recent: VecDeque<TraceRecord>,
    /// Completed traces over the slow threshold (bounded separately, so a
    /// burst of fast requests cannot evict the slow outliers under study).
    slow: VecDeque<TraceRecord>,
    stats: RecorderStats,
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    slow_threshold: Duration,
    state: Mutex<RecorderState>,
}

/// The bounded in-memory flight recorder. Cheap to clone (an `Arc`), safe to
/// share across threads; all recording goes through one short-held mutex.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.snapshot().stats;
        f.debug_struct("Tracer")
            .field("capacity", &self.inner.capacity)
            .field("slow_threshold", &self.inner.slow_threshold)
            .field("completed", &stats.completed)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A recorder keeping the last `capacity` completed traces, flagging
    /// roots that take `slow_threshold` or longer into the slow log.
    pub fn new(capacity: usize, slow_threshold: Duration) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                slow_threshold,
                state: Mutex::new(RecorderState {
                    active: HashMap::new(),
                    recent: VecDeque::new(),
                    slow: VecDeque::new(),
                    stats: RecorderStats::default(),
                }),
            }),
        }
    }

    /// `at` as microseconds since the tracer epoch (0 for instants before
    /// the epoch — e.g. a connection accepted while the tracer was built).
    fn at_us(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.inner.epoch)
            .map_or(0, |d| d.as_micros() as u64)
    }

    /// The configured slow-request threshold.
    pub fn slow_threshold(&self) -> Duration {
        self.inner.slow_threshold
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one completed span into its (still-active) trace. Bounded: a
    /// span for a brand-new trace is dropped when [`MAX_ACTIVE_TRACES`]
    /// traces are already in flight, and a trace stops accumulating at
    /// [`MAX_SPANS_PER_TRACE`] spans — both counted in
    /// [`RecorderStats::dropped_spans`]. Spans reach it through [`span`]
    /// and [`record`].
    fn record(&self, span: SpanRecord) {
        let mut s = self.lock();
        if !s.active.contains_key(&span.trace.0) && s.active.len() >= MAX_ACTIVE_TRACES {
            s.stats.dropped_spans += 1;
            return;
        }
        let spans = s.active.entry(span.trace.0).or_default();
        if spans.len() >= MAX_SPANS_PER_TRACE {
            s.stats.dropped_spans += 1;
            return;
        }
        spans.push(span);
        drop(s);
    }

    /// Seal `trace`: move its spans out of the active set and into the
    /// completed ring (and the slow log when the root overstays the
    /// threshold). `root` names the request span the duration is read from;
    /// when it was never recorded (or everything was dropped), the trace
    /// envelope stands in. Returns the sealed record's root duration, or
    /// `None` if the trace recorded no spans at all.
    pub fn finish(&self, trace: TraceId, root: SpanId) -> Option<Duration> {
        let mut s = self.lock();
        let spans = s.active.remove(&trace.0)?;
        if spans.is_empty() {
            return None;
        }
        let record = seal(trace, root, spans);
        let dur = Duration::from_micros(record.dur_us);
        s.stats.completed += 1;
        if dur >= self.inner.slow_threshold {
            s.stats.slow += 1;
            s.slow.push_back(record.clone());
            while s.slow.len() > SLOW_LOG_CAPACITY {
                s.slow.pop_front();
            }
        }
        s.recent.push_back(record);
        while s.recent.len() > self.inner.capacity {
            s.recent.pop_front();
            s.stats.evicted += 1;
        }
        Some(dur)
    }

    /// The recorder's counters alone — cheap, no record cloning (what the
    /// daemon's `/metrics` scrape uses).
    pub fn stats(&self) -> RecorderStats {
        self.lock().stats
    }

    /// A copy of everything the recorder currently holds.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let s = self.lock();
        RecorderSnapshot {
            recent: s.recent.iter().cloned().collect(),
            slow: s.slow.iter().cloned().collect(),
            stats: s.stats,
            slow_threshold_us: self.inner.slow_threshold.as_micros() as u64,
        }
    }

    /// Find one completed trace by id (recent ring first, then the slow log).
    pub fn lookup(&self, trace: TraceId) -> Option<TraceRecord> {
        let s = self.lock();
        s.recent
            .iter()
            .rev()
            .chain(s.slow.iter().rev())
            .find(|t| t.trace == trace)
            .cloned()
    }
}

/// Build the sealed [`TraceRecord`] for a finished trace.
fn seal(trace: TraceId, root: SpanId, spans: Vec<SpanRecord>) -> TraceRecord {
    let (root_name, start_us, dur_us) = match spans.iter().find(|s| s.id == root) {
        Some(r) => (r.name.clone(), r.start_us, r.dur_us),
        None => {
            // Fall back to the span envelope: earliest start to latest end.
            let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end = spans
                .iter()
                .map(|s| s.start_us + s.dur_us)
                .max()
                .unwrap_or(start);
            let name = spans.first().map_or_else(String::new, |s| s.name.clone());
            (name, start, end - start)
        }
    };
    TraceRecord {
        trace,
        root: root_name,
        start_us,
        dur_us,
        spans,
    }
}

// ---------------------------------------------------------------------------
// The thread's trace context and span guards
// ---------------------------------------------------------------------------

thread_local! {
    /// The recorder and context new spans on this thread attach to, if any.
    static CURRENT: RefCell<Option<(Tracer, TraceContext)>> = const { RefCell::new(None) };
}

fn swap_current(next: Option<(Tracer, TraceContext)>) -> Option<(Tracer, TraceContext)> {
    CURRENT.with(|c| c.replace(next))
}

/// The current thread's recorder and context, to carry into another thread
/// (enter it there with [`Tracer::enter`]). `None` outside any context.
pub(crate) fn current() -> Option<(Tracer, TraceContext)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Guard returned by [`Tracer::enter`]: restores the thread's previous
/// context when dropped. Tied to the thread it was made on.
#[must_use = "the context is current only while this guard lives"]
pub struct Entered {
    prev: Option<(Tracer, TraceContext)>,
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        swap_current(self.prev.take());
    }
}

impl Tracer {
    /// Make `(self, ctx)` the current thread's trace context until the guard
    /// drops: [`span`] and [`record`] on this thread then record into this
    /// recorder, under `ctx.parent`. Entering nests; dropping the guard
    /// restores whatever was current before.
    pub fn enter(&self, ctx: TraceContext) -> Entered {
        Entered {
            prev: swap_current(Some((self.clone(), ctx))),
            _thread: PhantomData,
        }
    }

    /// Open a request's root span in `trace`: it began at `start`, parents
    /// under the caller's span `parent` (none for a trace started here), and
    /// is the thread's context while it lives — every [`span`] and [`record`]
    /// on this thread hangs under it.
    pub fn root(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        component: &str,
        start: Instant,
    ) -> Span {
        Span::open(self.clone(), trace, parent, name, component, start)
    }
}

/// A span guard (see [`span`] and [`Tracer::root`]). While it lives it is the
/// thread's parent for new spans; when dropped it records itself, ending
/// then, and restores the previous context. Outside a context it is inert.
#[must_use = "a span ends when its guard drops"]
pub struct Span {
    open: Option<OpenSpan>,
    _thread: PhantomData<*const ()>,
}

struct OpenSpan {
    tracer: Tracer,
    record: SpanRecord,
    start: Instant,
    prev: Option<(Tracer, TraceContext)>,
}

impl Span {
    fn open(
        tracer: Tracer,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        component: &str,
        start: Instant,
    ) -> Span {
        let id = SpanId::generate();
        let record = SpanRecord {
            trace,
            id,
            parent,
            name: name.to_string(),
            component: component.to_string(),
            start_us: tracer.at_us(start),
            dur_us: 0,
            labels: Vec::new(),
        };
        let prev = swap_current(Some((tracer.clone(), TraceContext::new(trace, id))));
        Span {
            open: Some(OpenSpan {
                tracer,
                record,
                start,
                prev,
            }),
            _thread: PhantomData,
        }
    }

    /// Add the label `key=value` (nothing, not even formatting `value`,
    /// outside a context).
    pub fn label(mut self, key: &str, value: impl fmt::Display) -> Span {
        if let Some(open) = &mut self.open {
            open.record
                .labels
                .push((key.to_string(), value.to_string()));
        }
        self
    }

    /// This span's id; `None` outside a context.
    pub fn id(&self) -> Option<SpanId> {
        self.open.as_ref().map(|open| open.record.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(OpenSpan {
            tracer,
            mut record,
            start,
            prev,
        }) = self.open.take()
        {
            swap_current(prev);
            record.dur_us = start.elapsed().as_micros() as u64;
            tracer.record(record);
        }
    }
}

/// Open a span named `name` under the current thread's context, starting
/// now. Outside a context this does nothing.
pub fn span(name: &str, component: &str) -> Span {
    match current() {
        Some((tracer, ctx)) => Span::open(
            tracer,
            ctx.trace,
            Some(ctx.parent),
            name,
            component,
            Instant::now(),
        ),
        None => Span {
            open: None,
            _thread: PhantomData,
        },
    }
}

/// Record a finished interval `start..end` under the current thread's
/// context: for work that began before a guard could open, or whose bounds
/// were already taken by other bookkeeping. Outside a context this does
/// nothing.
pub fn record(name: &str, component: &str, start: Instant, end: Instant, labels: &[(&str, &str)]) {
    CURRENT.with(|c| {
        let Some((tracer, ctx)) = &*c.borrow() else {
            return;
        };
        tracer.record(SpanRecord {
            trace: ctx.trace,
            id: SpanId::generate(),
            parent: Some(ctx.parent),
            name: name.to_string(),
            component: component.to_string(),
            start_us: tracer.at_us(start),
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        });
    });
}

// ---------------------------------------------------------------------------
// JSON export / import
// ---------------------------------------------------------------------------

fn span_to_json(out: &mut String, s: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":{},\"name\":{},\"component\":{},\
         \"start_us\":{},\"dur_us\":{},\"labels\":{{",
        s.trace,
        s.id,
        s.parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
        json_string(&s.name),
        json_string(&s.component),
        s.start_us,
        s.dur_us,
    );
    for (i, (k, v)) in s.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push_str("}}");
}

impl TraceRecord {
    /// Serialize as a JSON object (inverse of [`TraceRecord::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace\":\"{}\",\"root\":{},\"start_us\":{},\"dur_us\":{},\"spans\":[",
            self.trace,
            json_string(&self.root),
            self.start_us,
            self.dur_us,
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_to_json(&mut out, s);
        }
        out.push_str("]}");
        out
    }

    /// Rebuild from a parsed [`Json`] object.
    ///
    /// # Errors
    ///
    /// The first schema violation, described.
    pub fn from_json(v: &Json) -> Result<TraceRecord, String> {
        let obj = v.as_object("trace record")?;
        let trace =
            TraceId::from_hex(json_field(obj, "trace")?.as_str("trace")?).ok_or("bad trace id")?;
        let mut spans = Vec::new();
        for s in json_field(obj, "spans")?.as_array("spans")? {
            let so = s.as_object("span")?;
            let parent = match json_field(so, "parent")? {
                Json::Null => None,
                other => {
                    Some(SpanId::from_hex(other.as_str("parent")?).ok_or("bad parent span id")?)
                }
            };
            spans.push(SpanRecord {
                trace: TraceId::from_hex(json_field(so, "trace")?.as_str("trace")?)
                    .ok_or("bad span trace id")?,
                id: SpanId::from_hex(json_field(so, "span")?.as_str("span")?)
                    .ok_or("bad span id")?,
                parent,
                name: json_field(so, "name")?.as_str("name")?.to_string(),
                component: json_field(so, "component")?
                    .as_str("component")?
                    .to_string(),
                start_us: json_field(so, "start_us")?.as_u64("start_us")?,
                dur_us: json_field(so, "dur_us")?.as_u64("dur_us")?,
                labels: json_field(so, "labels")?
                    .as_object("labels")?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_str(k)?.to_string())))
                    .collect::<Result<Vec<_>, String>>()?,
            });
        }
        Ok(TraceRecord {
            trace,
            root: json_field(obj, "root")?.as_str("root")?.to_string(),
            start_us: json_field(obj, "start_us")?.as_u64("start_us")?,
            dur_us: json_field(obj, "dur_us")?.as_u64("dur_us")?,
            spans,
        })
    }

    /// Render the span tree as indented plain text — what `tagctl trace`
    /// prints. Spans whose parent is outside the record (e.g. the client's
    /// originating span) are shown as roots.
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "trace {}  root {:?}  {}  {} span(s)\n",
            self.trace,
            self.root,
            fmt_us(self.dur_us),
            self.spans.len()
        );
        let ids: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id.0).collect();
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for s in &self.spans {
            match s.parent {
                Some(p) if ids.contains(&p.0) && p != s.id => {
                    children.entry(p.0).or_default().push(s);
                }
                _ => roots.push(s),
            }
        }
        let by_start = |a: &&SpanRecord, b: &&SpanRecord| {
            a.start_us.cmp(&b.start_us).then(a.id.0.cmp(&b.id.0))
        };
        roots.sort_by(by_start);
        for v in children.values_mut() {
            v.sort_by(by_start);
        }
        fn walk(
            out: &mut String,
            span: &SpanRecord,
            children: &HashMap<u64, Vec<&SpanRecord>>,
            prefix: &str,
            last: bool,
        ) {
            let branch = if last { "└─ " } else { "├─ " };
            let labels = span
                .labels
                .iter()
                .map(|(k, v)| format!(" {k}={v}"))
                .collect::<String>();
            // Tree prefix and name are padded together, so the duration
            // column stays put at every depth.
            let _ = writeln!(
                out,
                "{:<40} {:>10}  [{}]{labels}",
                format!("{prefix}{branch}{}", span.name),
                fmt_us(span.dur_us),
                span.component
            );
            let next_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
            if let Some(kids) = children.get(&span.id.0) {
                for (i, kid) in kids.iter().enumerate() {
                    walk(out, kid, children, &next_prefix, i + 1 == kids.len());
                }
            }
        }
        for (i, root) in roots.iter().enumerate() {
            walk(&mut out, root, &children, "", i + 1 == roots.len());
        }
        out
    }
}

impl RecorderSnapshot {
    /// Serialize the whole snapshot (the `GET /v1/debug/trace` document).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"completed\":{},\"evicted\":{},\"dropped_spans\":{},\"slow_total\":{},\
             \"slow_threshold_us\":{},\"traces\":[",
            self.stats.completed,
            self.stats.evicted,
            self.stats.dropped_spans,
            self.stats.slow,
            self.slow_threshold_us,
        );
        for (i, t) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"slow\":[");
        for (i, t) in self.slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Parse a [`RecorderSnapshot::to_json`] document.
    ///
    /// # Errors
    ///
    /// The first syntactic or schema violation, described.
    pub fn from_json(text: &str) -> Result<RecorderSnapshot, String> {
        let root = Json::parse(text)?;
        let obj = root.as_object("snapshot")?;
        let traces = |key: &str| -> Result<Vec<TraceRecord>, String> {
            json_field(obj, key)?
                .as_array(key)?
                .iter()
                .map(TraceRecord::from_json)
                .collect()
        };
        Ok(RecorderSnapshot {
            recent: traces("traces")?,
            slow: traces("slow")?,
            stats: RecorderStats {
                completed: json_field(obj, "completed")?.as_u64("completed")?,
                evicted: json_field(obj, "evicted")?.as_u64("evicted")?,
                dropped_spans: json_field(obj, "dropped_spans")?.as_u64("dropped_spans")?,
                slow: json_field(obj, "slow_total")?.as_u64("slow_total")?,
            },
            slow_threshold_us: json_field(obj, "slow_threshold_us")?.as_u64("slow_threshold_us")?,
        })
    }
}

/// Render `traces` in the Chrome `chrome://tracing` / Perfetto trace-event
/// format: one complete (`"ph":"X"`) event per span, timestamps and
/// durations in µs, the component as the category and labels as `args`.
/// Every trace gets its own `pid` row so concurrent requests stack visually.
pub fn chrome_trace_json(traces: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (row, t) in traces.iter().enumerate() {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":1,\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"",
                json_string(&s.name),
                json_string(&s.component),
                s.start_us,
                s.dur_us.max(1),
                row + 1,
                s.trace,
                s.id,
            );
            for (k, v) in &s.labels {
                let _ = write!(out, ",{}:{}", json_string(k), json_string(v));
            }
            out.push_str("}}");
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Human-friendly µs formatting: `417µs`, `12.35ms`, `3.20s`.
pub fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: TraceId,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.to_string(),
            component: "test".to_string(),
            start_us: start,
            dur_us: dur,
            labels: vec![("k".to_string(), "v".to_string())],
        }
    }

    #[test]
    fn ids_render_and_parse() {
        let t = TraceId::generate();
        let s = SpanId::generate();
        assert_eq!(TraceId::from_hex(&t.to_string()), Some(t));
        assert_eq!(SpanId::from_hex(&s.to_string()), Some(s));
        assert_ne!(TraceId::generate(), TraceId::generate());
        assert!(TraceId::from_hex("short").is_none());
        assert!(
            TraceId::from_hex(&"0".repeat(32)).is_none(),
            "all-zero is invalid"
        );
        assert!(SpanId::from_hex(&"g".repeat(16)).is_none());
    }

    #[test]
    fn traceparent_round_trips_and_rejects_malformed() {
        let ctx = TraceContext::fresh();
        let header = ctx.to_traceparent();
        assert_eq!(TraceContext::from_traceparent(&header), Some(ctx));
        // Lenient fallback: every malformed shape is None, never a panic.
        for bad in [
            "",
            "xx",
            "00-abc-def-01",
            "00-00000000000000000000000000000000-0000000000000000-01",
            &header[..header.len() - 3],
            &format!("{header}-junk"),
            "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        ] {
            assert_eq!(TraceContext::from_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn recorder_seals_a_trace_with_root_timing() {
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let trace = TraceId::generate();
        let root = SpanId(42);
        tracer.record(span(trace, 7, Some(42), "child", 10, 5));
        tracer.record(span(trace, 42, None, "root", 0, 100));
        let dur = tracer.finish(trace, root).expect("sealed");
        assert_eq!(dur, Duration::from_micros(100));
        let got = tracer.lookup(trace).expect("in the ring");
        assert_eq!(got.root, "root");
        assert_eq!((got.start_us, got.dur_us), (0, 100));
        assert_eq!(got.spans.len(), 2);
        // Finishing again is a no-op: the trace is no longer active.
        assert_eq!(tracer.finish(trace, root), None);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts() {
        let tracer = Tracer::new(3, Duration::from_secs(3600));
        let mut ids = Vec::new();
        for i in 0..5u64 {
            let trace = TraceId(u128::from(i) + 1);
            ids.push(trace);
            tracer.record(span(trace, 1, None, &format!("req{i}"), 0, 10));
            tracer.finish(trace, SpanId(1));
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.stats.completed, 5);
        assert_eq!(snap.stats.evicted, 2);
        assert_eq!(snap.recent.len(), 3);
        // The oldest two are gone; the newest three remain in order.
        assert_eq!(tracer.lookup(ids[0]), None);
        assert_eq!(tracer.lookup(ids[1]), None);
        let names: Vec<&str> = snap.recent.iter().map(|t| t.root.as_str()).collect();
        assert_eq!(names, ["req2", "req3", "req4"]);
    }

    #[test]
    fn slow_log_keeps_only_over_threshold_roots() {
        let tracer = Tracer::new(2, Duration::from_millis(1));
        let fast = TraceId(1);
        tracer.record(span(fast, 1, None, "fast", 0, 500)); // 0.5ms
        tracer.finish(fast, SpanId(1));
        let slow = TraceId(2);
        tracer.record(span(slow, 1, None, "slow", 0, 2_000)); // 2ms
        tracer.finish(slow, SpanId(1));
        let snap = tracer.snapshot();
        assert_eq!(snap.stats.slow, 1);
        assert_eq!(snap.slow.len(), 1);
        assert_eq!(snap.slow[0].root, "slow");
        // Eviction from the recent ring does not touch the slow log.
        for i in 3..6u64 {
            let t = TraceId(u128::from(i));
            tracer.record(span(t, 1, None, "filler", 0, 10));
            tracer.finish(t, SpanId(1));
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.slow.len(), 1, "slow log survives ring churn");
        assert!(tracer.lookup(slow).is_some(), "slow trace still findable");
    }

    #[test]
    fn bounds_drop_spans_instead_of_growing() {
        let tracer = Tracer::new(4, Duration::from_secs(3600));
        // Fill the active-trace bound without finishing anything.
        for i in 0..MAX_ACTIVE_TRACES as u64 {
            tracer.record(span(TraceId(u128::from(i) + 1), 1, None, "open", 0, 1));
        }
        tracer.record(span(TraceId(9999), 1, None, "one-too-many", 0, 1));
        assert_eq!(tracer.snapshot().stats.dropped_spans, 1);
        assert_eq!(tracer.lookup(TraceId(9999)), None);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let tracer = Tracer::new(4, Duration::from_millis(1));
        let trace = TraceId::generate();
        tracer.record(span(trace, 2, Some(1), "store.read \"quoted\"", 5, 7));
        tracer.record(span(trace, 1, None, "GET /v1/results/{key}", 0, 2_500));
        tracer.finish(trace, SpanId(1));
        let snap = tracer.snapshot();
        let parsed = RecorderSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
        // And a single record round-trips through the Json value layer.
        let one = &snap.recent[0];
        let back = TraceRecord::from_json(&Json::parse(&one.to_json()).unwrap()).unwrap();
        assert_eq!(&back, one);
    }

    #[test]
    fn chrome_export_is_valid_json_with_complete_events() {
        let tracer = Tracer::new(4, Duration::from_secs(3600));
        let trace = TraceId::generate();
        tracer.record(span(trace, 1, None, "root", 0, 100));
        tracer.record(span(trace, 2, Some(1), "child", 10, 0)); // zero-width
        tracer.finish(trace, SpanId(1));
        let text = chrome_trace_json(&tracer.snapshot().recent);
        let root = Json::parse(&text).expect("chrome export parses");
        let events = json_field(root.as_object("doc").unwrap(), "traceEvents")
            .unwrap()
            .as_array("traceEvents")
            .unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            let obj = e.as_object("event").unwrap();
            assert_eq!(json_field(obj, "ph").unwrap().as_str("ph").unwrap(), "X");
            assert!(json_field(obj, "dur").unwrap().as_u64("dur").unwrap() >= 1);
        }
    }

    #[test]
    fn render_tree_nests_children_under_parents() {
        let trace = TraceId::generate();
        let record = TraceRecord {
            trace,
            root: "POST /v1/experiments".to_string(),
            start_us: 0,
            dur_us: 1000,
            spans: vec![
                span(trace, 1, Some(99), "POST /v1/experiments", 0, 1000),
                span(trace, 2, Some(1), "queue_wait", 0, 50),
                span(trace, 3, Some(1), "session.batch", 60, 900),
                span(trace, 4, Some(3), "simulate", 100, 700),
            ],
        };
        let tree = record.render_tree();
        // The root (parent 99 is outside the record) renders unindented; the
        // batch nests under it; simulate nests one level deeper.
        assert!(tree.contains("└─ POST /v1/experiments"), "{tree}");
        assert!(tree.contains("   └─ session.batch"), "{tree}");
        assert!(tree.contains("      └─ simulate"), "{tree}");
        assert!(tree.contains("├─ queue_wait"), "{tree}");
        // Every span's duration ends in the same character column, whatever
        // its depth.
        let ends: std::collections::BTreeSet<usize> = tree
            .lines()
            .skip(1)
            .map(|line| line[..line.find("  [").expect("component")].chars().count())
            .collect();
        assert_eq!(ends.len(), 1, "{tree}");
    }

    /// Seal `ctx`'s trace and return its spans, in record order.
    fn sealed(tracer: &Tracer, ctx: TraceContext) -> Vec<SpanRecord> {
        tracer.finish(ctx.trace, ctx.parent);
        tracer.lookup(ctx.trace).map_or_else(Vec::new, |t| t.spans)
    }

    #[test]
    fn no_context_means_no_spans() {
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let now = Instant::now();
        let guard = super::span("outside", "test").label("k", "v");
        assert_eq!(guard.id(), None, "a span outside a context is inert");
        record("outside", "test", now, now, &[]);
        drop(guard);
        assert!(current().is_none());

        let ctx = TraceContext::fresh();
        {
            let _entered = tracer.enter(ctx);
            assert_eq!(current().map(|(_, c)| c), Some(ctx));
            record("inside", "test", now, now, &[("k", "v")]);
        }
        assert!(current().is_none(), "dropping the guard leaves the context");
        record("after", "test", now, now, &[]);
        let spans = sealed(&tracer, ctx);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inside"]);
        assert_eq!(spans[0].parent, Some(ctx.parent));
        assert_eq!(spans[0].labels, [("k".to_string(), "v".to_string())]);
        assert_eq!(tracer.stats().completed, 1, "nothing else was recorded");
    }

    #[test]
    fn guards_nest_and_restore_the_parent() {
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let ctx = TraceContext::fresh();
        let _entered = tracer.enter(ctx);
        let outer = super::span("outer", "test");
        let outer_id = outer.id().expect("inside a context");
        {
            let _inner = super::span("inner", "test");
            let now = Instant::now();
            record("leaf", "test", now, now, &[]);
        }
        let now = Instant::now();
        record("sibling", "test", now, now, &[]);
        drop(outer);
        record("top", "test", now, now, &[]);

        let spans = sealed(&tracer, ctx);
        let parent_of = |name: &str| spans.iter().find(|s| s.name == name).unwrap().parent;
        let id_of = |name: &str| spans.iter().find(|s| s.name == name).unwrap().id;
        assert_eq!(parent_of("outer"), Some(ctx.parent));
        assert_eq!(id_of("outer"), outer_id);
        assert_eq!(parent_of("inner"), Some(outer_id));
        assert_eq!(parent_of("leaf"), Some(id_of("inner")));
        assert_eq!(parent_of("sibling"), Some(outer_id));
        assert_eq!(parent_of("top"), Some(ctx.parent));
    }

    #[test]
    fn a_root_span_parents_under_its_caller_and_carries_the_trace() {
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let trace = TraceId::generate();
        let start = Instant::now();
        let root = tracer.root(trace, None, "GET /x", "daemon", start);
        let root_id = root.id().expect("a root is always open");
        record("queue_wait", "daemon", start, Instant::now(), &[]);
        drop(root.label("status", "200"));
        assert!(current().is_none(), "the root's context ends with it");
        tracer.finish(trace, root_id).expect("sealed");
        let rec = tracer.lookup(trace).unwrap();
        assert_eq!(rec.root, "GET /x");
        let root = rec.spans.iter().find(|s| s.id == root_id).unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(root.labels, [("status".to_string(), "200".to_string())]);
        let wait = rec.spans.iter().find(|s| s.name == "queue_wait").unwrap();
        assert_eq!(wait.parent, Some(root_id));
    }

    #[test]
    fn a_context_on_one_thread_is_invisible_to_another() {
        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let ctx = TraceContext::fresh();
        let _entered = tracer.enter(ctx);
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    assert!(current().is_none());
                    let now = Instant::now();
                    record("elsewhere", "test", now, now, &[]);
                    assert_eq!(super::span("elsewhere", "test").id(), None);
                })
                .join()
                .unwrap();
        });
        assert_eq!(tracer.finish(ctx.trace, ctx.parent), None, "no spans");
    }

    /// A session's worker pool enters the caller's context on every worker,
    /// so measurements on other threads parent under the caller's span.
    #[test]
    fn pool_workers_inherit_the_callers_context() {
        use crate::{CheckingMode, Config, Session};
        use std::num::NonZeroUsize;

        let tracer = Tracer::new(8, Duration::from_secs(3600));
        let session = Session::new().with_parallelism(NonZeroUsize::new(2).unwrap());
        let cfg = Config::baseline(CheckingMode::None);
        let ctx = TraceContext::fresh();
        let batch_id = {
            let _entered = tracer.enter(ctx);
            let batch = super::span("session.batch", "session");
            session
                .measure_many(&[("frl", cfg), ("trav", cfg)])
                .unwrap();
            batch.id().unwrap()
        };
        let spans = sealed(&tracer, ctx);
        let measures: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "measure").collect();
        assert_eq!(measures.len(), 2, "{spans:?}");
        for m in &measures {
            assert_eq!(m.parent, Some(batch_id));
            for leaf in ["compile", "simulate"] {
                assert_eq!(
                    spans
                        .iter()
                        .filter(|s| s.name == leaf && s.parent == Some(m.id))
                        .count(),
                    1,
                    "{leaf} under {m:?}"
                );
            }
        }
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(417), "417µs");
        assert_eq!(fmt_us(12_350), "12.35ms");
        assert_eq!(fmt_us(3_200_000), "3.20s");
    }
}
