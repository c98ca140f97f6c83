//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! each layer, kept in memory, and folded into a self-time ledger when the
//! run ends.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! made), a parent, and an operation id shared by every span of one request
//! or program. A span whose work ran on several threads at once (a report
//! measured by the session's worker pool) carries `lanes` > 1: its capacity
//! is `duration × lanes` thread-nanoseconds.
//!
//! Self time is capacity minus the children's durations, so the self times
//! of every span in a tree add up to its root's capacity exactly. Root spans
//! stand for whole operations rather than layers: their self time is the
//! part of the traced time no layer span covers — the unattributed
//! remainder.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span; `None` for an operation's root.
    pub parent: Option<u64>,
    /// The request or program this span belongs to.
    pub op: u64,
    /// Layer (or, for a root, operation) name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Threads the span's work could occupy at once.
    pub lanes: u32,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span recorder. A disabled tracer runs the traced closures
/// and records nothing, so untraced runs share the traced code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id (for spans recorded later with [`Tracer::record`]).
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `t` in nanoseconds since the tracer was made.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` gets the span's id, to
    /// parent the spans it records.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.new_id();
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        self.record(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.at_ns(start),
            end_ns: self.at_ns(end),
            lanes: 1,
        });
        result
    }

    /// Record a span built by the caller.
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span list lock").push(span);
        }
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of their capacities (duration × lanes).
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: i64,
}

impl Layer {
    /// Mean self time per call, in milliseconds (0 without calls).
    pub fn mean_self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// The self-time ledger of one traced run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// Non-root spans, by name: the layers.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Root spans, by name: whole operations.
    pub roots: BTreeMap<&'static str, Layer>,
}

impl Ledger {
    /// Fold `spans` into per-name totals. Every parent named by a span must
    /// itself be among `spans`.
    pub fn build(spans: &[Span]) -> Ledger {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut ledger = Ledger::default();
        for s in spans {
            let capacity = s.dur_ns() * u64::from(s.lanes);
            let self_ns = capacity as i64 - child_ns.get(&s.id).copied().unwrap_or(0) as i64;
            let book = if s.parent.is_some() {
                &mut ledger.layers
            } else {
                &mut ledger.roots
            };
            let entry = book.entry(s.name).or_default();
            entry.calls += 1;
            entry.total_ns += capacity;
            entry.self_ns += self_ns;
        }
        ledger
    }

    /// The layer named `name` (all zero if no such span was recorded).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Traced thread-time: the capacity of every root span.
    pub fn traced_ns(&self) -> u64 {
        self.roots.values().map(|r| r.total_ns).sum()
    }

    /// Self time of every layer span.
    pub fn attributed_ns(&self) -> i64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }

    /// Self time of the root spans: traced time no layer span covers.
    pub fn unattributed_ns(&self) -> i64 {
        self.roots.values().map(|r| r.self_ns).sum()
    }

    /// [`Ledger::unattributed_ns`] as a share of the traced time.
    pub fn unattributed_share(&self) -> f64 {
        let traced = self.traced_ns();
        if traced == 0 {
            0.0
        } else {
            self.unattributed_ns() as f64 / traced as f64
        }
    }

    /// The reconciliation table: every layer's self time and share, then the
    /// sum of layers plus the unattributed remainder against the traced
    /// total.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let traced = self.traced_ns();
        let share = |ns: i64| {
            if traced == 0 {
                0.0
            } else {
                100.0 * ns as f64 / traced as f64
            }
        };
        let mut out = String::from("ledger (self time, outside-in spans):\n");
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>12} {:>7}",
            "layer", "calls", "self ms", "share"
        );
        for (name, l) in &self.layers {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12.3} {:>6.2}%",
                name,
                l.calls,
                l.self_ns as f64 / 1e6,
                share(l.self_ns)
            );
        }
        let attributed = self.attributed_ns();
        let unattributed = self.unattributed_ns();
        let _ = writeln!(
            out,
            "  layers {:.3} ms + unattributed {:.3} ms ({:.2}%) = {:.3} ms traced thread-time \
             over {} operations ({})",
            attributed as f64 / 1e6,
            unattributed as f64 / 1e6,
            share(unattributed),
            traced as f64 / 1e6,
            self.roots.values().map(|r| r.calls).sum::<u64>(),
            if attributed + unattributed == traced as i64 {
                "reconciled exactly"
            } else {
                "NOT reconciled"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
            lanes: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_reconciles() {
        let spans = [
            span(1, None, "program", 0, 100),
            span(2, Some(1), "lisp.compile", 10, 50),
            span(3, Some(2), "lisp.front", 10, 20),
            span(4, Some(1), "mipsx.execute", 60, 90),
        ];
        let l = Ledger::build(&spans);
        assert_eq!(l.layer("lisp.compile").self_ns, 30);
        assert_eq!(l.layer("lisp.front").self_ns, 10);
        assert_eq!(l.layer("mipsx.execute").self_ns, 30);
        assert_eq!(l.unattributed_ns(), 30);
        assert_eq!(l.traced_ns(), 100);
        assert_eq!(l.attributed_ns() + l.unattributed_ns(), 100);
        assert!((l.unattributed_share() - 0.3).abs() < 1e-12);
        assert!(l.render().contains("reconciled exactly"));
    }

    #[test]
    fn lanes_scale_a_parallel_roots_capacity() {
        let mut root = span(1, None, "report", 0, 100);
        root.lanes = 2;
        let spans = [
            root,
            span(2, Some(1), "session.measure", 0, 90),
            span(3, Some(1), "session.measure", 5, 95),
        ];
        let l = Ledger::build(&spans);
        assert_eq!(l.traced_ns(), 200);
        assert_eq!(l.unattributed_ns(), 20, "idle lane time is unattributed");
    }

    #[test]
    fn disabled_tracer_runs_closures_and_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.span("x", 0, None, |_| 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new();
        let inner = t.span("outer", 3, None, |id| t.span("inner", 3, Some(id), |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(inner));
        assert_eq!(spans[1].id, inner);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
