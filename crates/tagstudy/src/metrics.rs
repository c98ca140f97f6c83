//! The structured metrics and event layer: counters, gauges, duration
//! histograms and a machine-readable event log, exportable as JSON and as
//! Prometheus text-exposition format.
//!
//! [`crate::Session`] writes its registry only by folding lifecycle facts,
//! the fold that also keeps [`crate::SessionStats`] and feeds the
//! [`crate::Progress`] callback (see the session's *One ledger* docs for its
//! three rules). The registry is deliberately self-contained — plain
//! maps, no external dependencies — with a hand-rolled JSON emitter *and*
//! parser ([`Json`]) so round-tripping can be asserted in tests and CI can
//! validate the schema without any tooling beyond `cargo test`.
//!
//! Numeric fidelity: counters are `u64` and are emitted as bare integers;
//! floating-point values are emitted with Rust's shortest-round-trip
//! formatting, so `from_json(to_json(r)) == r` holds exactly (asserted by the
//! round-trip tests).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Histogram bucket upper bounds for wall-time observations, in seconds.
pub const DURATION_BUCKETS: &[f64] = &[0.001, 0.004, 0.016, 0.064, 0.256, 1.0, 4.0, 16.0];
/// Histogram bucket upper bounds for worker-pool occupancy observations.
pub const OCCUPANCY_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Histogram bucket upper bounds for daemon request latency, in seconds.
/// Finer at the low end than [`DURATION_BUCKETS`]: a cache-hit request
/// answers in well under a millisecond, while a cold batch can simulate for
/// seconds — the geometric ×4 spacing covers 0.5ms…8s so both p50 of warm
/// traffic and p99 of cold traffic land inside finite buckets.
pub const REQUEST_BUCKETS: &[f64] = &[0.0005, 0.002, 0.008, 0.032, 0.128, 0.512, 2.048, 8.192];
/// Histogram bucket upper bounds for simulated throughput, in millions of
/// simulated cycles per wall-clock second. Doubling from 4: the reference
/// interpreter runs at tens of Mcycles/s, the predecoded one at hundreds.
pub const MCYCLES_PER_SECOND_BUCKETS: &[f64] =
    &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];

/// How many events the log keeps. A long-lived registry (the daemon's
/// session gains an event per cache hit) keeps only the newest ones; the
/// rest are dropped and counted.
pub const EVENT_LOG_CAPACITY: usize = 4096;

/// Metric names the [`crate::Session`] publishes, each once first touched.
pub mod names {
    /// Counter: requests to `measure_many`, each a hit or a miss, so
    /// `requests == hits + misses`. A profile is no request.
    pub const REQUESTS: &str = "session_requests_total";
    /// Counter: requests served from the cache (incl. in-batch duplicates).
    pub const CACHE_HITS: &str = "session_cache_hits_total";
    /// Counter: requests the cache could not answer, failed ones included
    /// (an unknown program is a miss and a failure).
    pub const CACHE_MISSES: &str = "session_cache_misses_total";
    /// Counter: measurements whose run was taken from another point of the
    /// session that simulated the identical run, instead of simulated.
    pub const SHARED_RUNS: &str = "session_shared_runs_total";
    /// Counter: misses that produced no result (error or worker panic), so
    /// `failures <= misses`.
    pub const FAILURES: &str = "session_failures_total";
    /// Histogram: compile wall time per finished measurement or profile,
    /// seconds.
    pub const COMPILE_SECONDS: &str = "session_compile_seconds";
    /// Histogram: simulate wall time per finished measurement or profile,
    /// seconds.
    pub const SIMULATE_SECONDS: &str = "session_simulate_seconds";
    /// Histogram: simulated throughput per measurement that simulated its
    /// run — its simulated cycles over its simulate wall time, in Mcycles/s.
    /// Shared runs and profiles add no sample.
    pub const SIMULATE_MCYCLES_PER_SECOND: &str = "session_simulate_mcycles_per_second";
    /// Histogram: in-flight measurements observed at each measurement start.
    pub const POOL_OCCUPANCY: &str = "session_pool_occupancy";
    /// Gauge: configured worker-pool bound.
    pub const WORKERS_CONFIGURED: &str = "session_workers_configured";
    /// Gauge: highest observed in-flight measurement count.
    pub const POOL_PEAK_OCCUPANCY: &str = "session_pool_peak_occupancy";
    /// Gauge: distinct `(program, config)` points currently cached.
    pub const CACHED_MEASUREMENTS: &str = "session_cached_measurements";
    /// Counter: measurements preloaded into the cache from a persistent store
    /// (see [`crate::Session::seed`]) — answered later without simulating.
    pub const SEEDED: &str = "session_seeded_total";
    /// Counter: inline programs registered on the session (see
    /// [`crate::Session::register_source`]).
    pub const SOURCES_REGISTERED: &str = "session_sources_registered_total";
}

/// A fixed-bucket histogram (Prometheus-style, non-cumulative internally).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds, ascending. An implicit `+Inf` bucket follows.
    pub buckets: Vec<f64>,
    /// Observations per bucket (`counts[i]` ≤ `buckets[i]`, last = `+Inf`).
    /// Always `buckets.len() + 1` long.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            buckets: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let i = self
            .buckets
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.buckets.len());
        self.counts[i] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear interpolation
    /// within the bucket holding the target rank — the same estimate
    /// Prometheus's `histogram_quantile` computes server-side. `None` when
    /// the histogram is empty — judged by the per-bucket counts, not the
    /// `count` field, so a deserialized histogram whose `count` disagrees
    /// with its buckets (every bucket zero) yields `None` instead of a
    /// fabricated estimate. Observations that landed in the `+Inf`
    /// overflow bucket clamp to the largest finite bound, so the estimate is
    /// always finite (and always positive for positive observations).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let bucketed: u64 = self.counts.iter().sum();
        if bucketed == 0 || self.buckets.is_empty() {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * bucketed as f64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if (cum as f64) >= rank && *c > 0 {
                let Some(&upper) = self.buckets.get(i) else {
                    // Overflow bucket: clamp to the largest finite bound.
                    return self.buckets.last().copied();
                };
                let lower = if i == 0 { 0.0 } else { self.buckets[i - 1] };
                let below = (cum - c) as f64;
                let frac = ((rank - below) / *c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        self.buckets.last().copied()
    }
}

/// One entry of the machine-readable event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (0-based, append order; dropped events
    /// keep their numbers, so the log's first entry may not be 0).
    pub seq: u64,
    /// Event name (`cache_hit`, `measure_started`, `measure_finished`, …).
    pub name: String,
    /// Ordered label pairs (`program`, `config`, timings, …).
    pub labels: Vec<(String, String)>,
}

/// Counters, gauges, histograms and the event log. See the
/// [module docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// The newest [`EVENT_LOG_CAPACITY`] events.
    events: VecDeque<Event>,
    /// Events dropped from the front of the log (the next one has seq
    /// `events_dropped + events.len()`).
    events_dropped: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raise gauge `name` to `value` if `value` exceeds its current reading.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(value);
        if value > *g {
            *g = value;
        }
    }

    /// Record `value` into histogram `name`, creating it over `bounds` on
    /// first use.
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Append an event to the log, dropping the oldest one when the log
    /// holds [`EVENT_LOG_CAPACITY`] events.
    pub fn event(&mut self, name: &str, labels: &[(&str, &str)]) {
        if self.events.len() == EVENT_LOG_CAPACITY {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events.push_back(Event {
            seq: self.events_dropped + self.events.len() as u64,
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        });
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Every histogram, in name order (labeled keys included as stored).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// The event log (the newest [`EVENT_LOG_CAPACITY`] events), in append
    /// order.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &Event> + ExactSizeIterator {
        self.events.iter()
    }

    /// How many events the log has dropped to stay bounded.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    // --- JSON -------------------------------------------------------------

    /// Serialize the whole registry as a JSON object with keys `counters`,
    /// `gauges`, `histograms`, `events_dropped` and `events`. Deterministic
    /// (maps are sorted by name) and exactly invertible by
    /// [`MetricsRegistry::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{{\"buckets\":[", json_string(k));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_f64(*b));
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"sum\":{},\"count\":{}}}", json_f64(h.sum), h.count);
        }
        let _ = write!(
            out,
            "}},\"events_dropped\":{},\"events\":[",
            self.events_dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"name\":{},\"labels\":{{",
                e.seq,
                json_string(&e.name)
            );
            for (j, (k, v)) in e.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(k), json_string(v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Rebuild a registry from [`MetricsRegistry::to_json`] output.
    ///
    /// # Errors
    ///
    /// A description of the first syntactic or schema violation, including
    /// events whose `seq` values do not count on from `events_dropped`, and
    /// more events than the log holds.
    pub fn from_json(text: &str) -> Result<MetricsRegistry, String> {
        let root = Json::parse(text)?;
        let obj = root.as_object("top level")?;
        let mut r = MetricsRegistry::new();
        for (k, v) in json_field(obj, "counters")?.as_object("counters")? {
            r.counters.insert(k.clone(), v.as_u64(k)?);
        }
        for (k, v) in json_field(obj, "gauges")?.as_object("gauges")? {
            r.gauges.insert(k.clone(), v.as_f64(k)?);
        }
        for (k, v) in json_field(obj, "histograms")?.as_object("histograms")? {
            let h = v.as_object(k)?;
            let buckets = json_field(h, "buckets")?
                .as_array("buckets")?
                .iter()
                .map(|b| b.as_f64("bucket bound"))
                .collect::<Result<Vec<f64>, String>>()?;
            let counts = json_field(h, "counts")?
                .as_array("counts")?
                .iter()
                .map(|c| c.as_u64("bucket count"))
                .collect::<Result<Vec<u64>, String>>()?;
            if counts.len() != buckets.len() + 1 {
                return Err(format!(
                    "histogram {k}: {} counts for {} buckets (want buckets+1)",
                    counts.len(),
                    buckets.len()
                ));
            }
            r.histograms.insert(
                k.clone(),
                Histogram {
                    buckets,
                    counts,
                    sum: json_field(h, "sum")?.as_f64("sum")?,
                    count: json_field(h, "count")?.as_u64("count")?,
                },
            );
        }
        r.events_dropped = json_field(obj, "events_dropped")?.as_u64("events_dropped")?;
        let events = json_field(obj, "events")?.as_array("events")?;
        if events.len() > EVENT_LOG_CAPACITY {
            return Err(format!(
                "{} events exceed the log's capacity of {EVENT_LOG_CAPACITY}",
                events.len()
            ));
        }
        for (i, e) in events.iter().enumerate() {
            let eo = e.as_object("event")?;
            let seq = json_field(eo, "seq")?.as_u64("seq")?;
            if seq != r.events_dropped + i as u64 {
                return Err(format!("event {i}: out-of-order seq {seq}"));
            }
            r.events.push_back(Event {
                seq,
                name: json_field(eo, "name")?.as_str("name")?.to_string(),
                labels: json_field(eo, "labels")?
                    .as_object("labels")?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_str(k)?.to_string())))
                    .collect::<Result<Vec<(String, String)>, String>>()?,
            });
        }
        Ok(r)
    }

    // --- Prometheus -------------------------------------------------------

    /// Render counters, gauges and histograms in the Prometheus
    /// text-exposition format (the event log is JSON-only).
    ///
    /// Metric names may carry a label set inline — a key like
    /// `daemon_request_duration_seconds{endpoint="POST /v1/experiments"}`
    /// renders as one labeled series of the `daemon_request_duration_seconds`
    /// family: the `# TYPE` header is emitted once per family, and histogram
    /// `le` labels merge into the series' own label set. Unlabeled keys
    /// render exactly as before.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed = std::collections::BTreeSet::new();
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            if typed.insert(base.to_string()) {
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
        };
        for (k, v) in &self.counters {
            let (base, _) = split_labels(k);
            type_line(&mut out, base, "counter");
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            let (base, _) = split_labels(k);
            type_line(&mut out, base, "gauge");
            let _ = writeln!(out, "{k} {}", json_f64(*v));
        }
        for (k, h) in &self.histograms {
            let (base, labels) = split_labels(k);
            type_line(&mut out, base, "histogram");
            // `le` joins the series' own labels: `{a="b",le="0.5"}`.
            let with_le = |le: &str| match labels {
                Some(l) => format!("{{{l},le=\"{le}\"}}"),
                None => format!("{{le=\"{le}\"}}"),
            };
            let mut cum = 0u64;
            for (b, c) in h.buckets.iter().zip(&h.counts) {
                cum += c;
                let _ = writeln!(out, "{base}_bucket{} {cum}", with_le(&json_f64(*b)));
            }
            let _ = writeln!(out, "{base}_bucket{} {}", with_le("+Inf"), h.count);
            let suffix = labels.map_or_else(String::new, |l| format!("{{{l}}}"));
            let _ = writeln!(out, "{base}_sum{suffix} {}", json_f64(h.sum));
            let _ = writeln!(out, "{base}_count{suffix} {}", h.count);
        }
        out
    }
}

/// Split a metric key into its family name and inline label set:
/// `name{a="b"}` → `("name", Some("a=\"b\""))`, `name` → `("name", None)`.
fn split_labels(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(open) if key.ends_with('}') => (&key[..open], Some(&key[open + 1..key.len() - 1])),
        _ => (key, None),
    }
}

/// Build a labeled metric key for [`MetricsRegistry`] maps:
/// `labeled("m", &[("a", "b")])` → `m{a="b"}`. Label values are escaped per
/// the Prometheus text format (backslash, quote, newline).
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Shortest-round-trip float formatting that is also valid JSON (Rust's `{:?}`
/// already prints a decimal point or exponent for every finite value).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "metrics never record NaN/Inf");
    format!("{v:?}")
}

/// Encode `s` as a JSON string literal: quotes, backslashes and every control
/// character escaped. The one string encoder of the workspace's hand-rolled
/// JSON writers.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The value of `key` among a parsed [`Json`] object's fields (see
/// [`Json::as_object`]).
///
/// # Errors
///
/// `missing key "…"` when the object has no such field.
pub fn json_field<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// A minimal JSON value, parsed without external dependencies.
///
/// Numbers are kept as their source text ([`Json::Num`]) so `u64` counters
/// survive untouched instead of being squeezed through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, with key order preserved.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// A number, as written.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The deepest nesting of arrays and objects [`Json::parse`] accepts.
    /// The documents this workspace writes nest a few levels deep (the
    /// committed benchmark records and the fault witness, 3 to 4). The
    /// parser recurses once per level, and this bound keeps that recursion,
    /// and the drop of what it built, well inside a 2 MiB thread stack.
    pub const MAX_DEPTH: usize = 128;

    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, with byte offset, or of the
    /// first array or object nested deeper than [`Json::MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The object entries, or an error mentioning `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an object.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The array elements, or an error mentioning `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// The string contents, or an error mentioning `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// The number as `u64`, or an error mentioning `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an unsigned integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => n
                .parse::<u64>()
                .map_err(|e| format!("{what}: {n:?} is not a u64 ({e})")),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// The number as `f64`, or an error mentioning `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => n
                .parse::<f64>()
                .map_err(|e| format!("{what}: {n:?} is not an f64 ({e})")),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == Json::MAX_DEPTH => Err(format!(
                "nesting deeper than {} levels at byte {}",
                Json::MAX_DEPTH,
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parse an array or object one level further in.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash in
                    // one slice. Both are ASCII, so the run ends on a char
                    // boundary of the input `&str`.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.is_empty() || text == "-" {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        let body = "ab\u{e9}\u{1f600}".repeat(1 << 17);
        let doc = format!("{{\"source\": \"{body}\\n\\u00e9\"}}");
        assert!(doc.len() > 1 << 20);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).expect("parses");
        let took = start.elapsed();
        let Json::Obj(fields) = parsed else {
            panic!("not an object")
        };
        assert_eq!(fields[0].1, Json::Str(format!("{body}\n\u{e9}")));
        assert!(took.as_secs_f64() < 1.0, "parsing 1 MiB took {took:?}");
    }

    #[test]
    fn counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("a");
        r.add("a", 2);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
        r.set_gauge("g", 2.5);
        r.gauge_max("g", 1.0);
        assert_eq!(r.gauge("g"), Some(2.5));
        r.gauge_max("g", 7.0);
        assert_eq!(r.gauge("g"), Some(7.0));
        r.observe("h", &[1.0, 10.0], 0.5);
        r.observe("h", &[1.0, 10.0], 5.0);
        r.observe("h", &[1.0, 10.0], 50.0);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 55.5);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut r = MetricsRegistry::new();
        r.add("requests", u64::MAX - 1); // would not survive an f64 detour
        r.set_gauge("workers", 8.0);
        r.set_gauge("tiny", 0.1 + 0.2); // classic non-representable sum
        r.observe("lat", DURATION_BUCKETS, 0.003);
        r.observe("lat", DURATION_BUCKETS, 2.0);
        r.event("started", &[("program", "frl"), ("config", "high5/Full")]);
        r.event("weird \"labels\"", &[("k\n", "v\\")]);
        let json = r.to_json();
        let back = MetricsRegistry::from_json(&json).expect("parses");
        assert_eq!(back, r);
        // And the re-serialization is byte-identical (canonical form).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn prometheus_text_shape() {
        let mut r = MetricsRegistry::new();
        r.inc(names::CACHE_HITS);
        r.set_gauge(names::WORKERS_CONFIGURED, 4.0);
        r.observe(names::COMPILE_SECONDS, DURATION_BUCKETS, 0.01);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE session_cache_hits_total counter"));
        assert!(text.contains("session_cache_hits_total 1"));
        assert!(text.contains("# TYPE session_workers_configured gauge"));
        assert!(text.contains("session_compile_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("session_compile_seconds_count 1"));
        // Buckets are cumulative: the 0.016 bucket includes the 0.01 obs.
        assert!(text.contains("session_compile_seconds_bucket{le=\"0.016\"} 1"));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // Four observations in (1, 2]: rank interpolates across that bucket.
        for v in [1.2, 1.4, 1.6, 1.8] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), Some(1.5));
        assert_eq!(h.quantile(1.0), Some(2.0));
        // An overflow observation clamps to the largest finite bound.
        h.observe(100.0);
        assert_eq!(h.quantile(0.99), Some(4.0));
        // Positive observations always yield a positive estimate.
        let mut tiny = Histogram::new(REQUEST_BUCKETS);
        tiny.observe(0.0001);
        assert!(tiny.quantile(0.5).unwrap() > 0.0);
        assert!(tiny.quantile(0.99).unwrap() > 0.0);
    }

    #[test]
    fn labeled_keys_render_as_series_of_one_family() {
        let mut r = MetricsRegistry::new();
        let a = labeled("req_seconds", &[("endpoint", "POST /v1/experiments")]);
        let b = labeled("req_seconds", &[("endpoint", "GET /metrics")]);
        r.observe(&a, &[0.5, 2.0], 0.1);
        r.observe(&b, &[0.5, 2.0], 1.0);
        r.add(&labeled("hits_total", &[("endpoint", "GET /metrics")]), 3);
        let text = r.to_prometheus();
        // One TYPE header per family, even with two labeled series.
        assert_eq!(text.matches("# TYPE req_seconds histogram").count(), 1);
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total{endpoint=\"GET /metrics\"} 3"));
        // `le` merges into the series' own label set.
        assert!(
            text.contains("req_seconds_bucket{endpoint=\"GET /metrics\",le=\"0.5\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("req_seconds_bucket{endpoint=\"POST /v1/experiments\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("req_seconds_count{endpoint=\"GET /metrics\"} 1"));
        assert!(text.contains("req_seconds_sum{endpoint=\"POST /v1/experiments\"} 0.1"));
    }

    #[test]
    fn labeled_escapes_values() {
        assert_eq!(
            labeled("m", &[("k", "a\"b\\c\nd")]),
            "m{k=\"a\\\"b\\\\c\\nd\"}"
        );
        assert_eq!(split_labels("m{k=\"v\"}"), ("m", Some("k=\"v\"")));
        assert_eq!(split_labels("plain"), ("plain", None));
    }

    /// Parse `text` on a thread with a 2 MiB stack, the size of a daemon
    /// worker's.
    fn parse_on_small_stack(text: String) -> Result<Json, String> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&text))
            .expect("spawns")
            .join()
            .expect("no stack overflow")
    }

    #[test]
    fn nesting_is_bounded() {
        let nest =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
        let deepest = parse_on_small_stack(nest("[", "]", Json::MAX_DEPTH));
        assert!(deepest.is_ok(), "{deepest:?}");
        let objects = nest("{\"a\":", "}", Json::MAX_DEPTH).replacen("{\"a\":}", "{}", 1);
        assert!(parse_on_small_stack(objects).is_ok());
        for text in [
            nest("[", "]", Json::MAX_DEPTH + 1),
            nest("{\"a\":", "}", Json::MAX_DEPTH + 1),
            "[".repeat(1 << 20),
        ] {
            let err = parse_on_small_stack(text).unwrap_err();
            assert!(
                err.contains(&format!("nesting deeper than {} levels", Json::MAX_DEPTH)),
                "{err}"
            );
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = Json::parse(r#"{"a":[1,-2.5,1e3,true,false,null],"b":"x\u0041\n"}"#).unwrap();
        let obj = v.as_object("top").unwrap();
        let arr = json_field(obj, "a").unwrap().as_array("a").unwrap();
        assert_eq!(arr[0].as_u64("n").unwrap(), 1);
        assert_eq!(arr[1].as_f64("n").unwrap(), -2.5);
        assert_eq!(arr[2].as_f64("n").unwrap(), 1000.0);
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[5], Json::Null);
        assert_eq!(json_field(obj, "b").unwrap().as_str("b").unwrap(), "xA\n");
    }

    #[test]
    fn from_json_validates_schema() {
        // counts must be buckets+1 long.
        let bad = r#"{"counters":{},"gauges":{},"histograms":{"h":{"buckets":[1.0],"counts":[1],"sum":0.5,"count":1}},"events":[]}"#;
        let err = MetricsRegistry::from_json(bad).unwrap_err();
        assert!(err.contains("want buckets+1"), "{err}");
        // events must carry contiguous seq numbers.
        let bad = r#"{"counters":{},"gauges":{},"histograms":{},"events_dropped":0,"events":[{"seq":3,"name":"x","labels":{}}]}"#;
        let err = MetricsRegistry::from_json(bad).unwrap_err();
        assert!(err.contains("out-of-order"), "{err}");
        // ...counting on from the dropped events.
        let ok = r#"{"counters":{},"gauges":{},"histograms":{},"events_dropped":3,"events":[{"seq":3,"name":"x","labels":{}}]}"#;
        let r = MetricsRegistry::from_json(ok).expect("seq counts from events_dropped");
        assert_eq!(r.events_dropped(), 3);
        let bad = ok.replace("\"events_dropped\":3", "\"events_dropped\":2");
        let err = MetricsRegistry::from_json(&bad).unwrap_err();
        assert!(err.contains("out-of-order"), "{err}");
        // missing a top-level section.
        let err = MetricsRegistry::from_json(r#"{"counters":{}}"#).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }

    #[test]
    fn event_log_keeps_the_newest_events() {
        let mut r = MetricsRegistry::new();
        let n = 100_000;
        for i in 0..n {
            r.event("cache_hit", &[("i", &i.to_string())]);
        }
        assert_eq!(r.events().len(), EVENT_LOG_CAPACITY);
        assert_eq!(r.events_dropped(), (n - EVENT_LOG_CAPACITY) as u64);
        for (e, seq) in r.events().zip(r.events_dropped()..) {
            assert_eq!(e.seq, seq, "seq values stay contiguous");
        }
        let last = r.events().next_back().unwrap();
        assert_eq!(last.seq, n as u64 - 1);
        assert_eq!(last.labels, [("i".to_string(), (n - 1).to_string())]);
        // The bounded log round-trips, dropped count included.
        let json = r.to_json();
        let back = MetricsRegistry::from_json(&json).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }
}
