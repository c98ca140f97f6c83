//! The retired-instruction trace layer: an opt-in observer hook on every
//! [`Executor`].
//!
//! [`Executor::run_observed`] reports every *architecturally executed*
//! instruction to an [`Observer`] as a [`Retirement`] record — program
//! counter, decoded instruction, register writeback, memory operation,
//! tag-trap redirect — plus the cumulative cycle count and the instruction's
//! [`Annot`]ation at the moment it retired. Squashed delay slots (which burn a
//! cycle but execute nothing) are reported separately through
//! [`Observer::squash`].
//!
//! The hook is **zero-cost when disabled**: observers are a generic parameter,
//! every emission site is guarded by the associated constant
//! [`Observer::ENABLED`], and [`Executor::run`] instantiates the loop with
//! [`NoTrace`] (`ENABLED = false`), so the plain path monomorphizes to exactly
//! the untraced dispatch loop.
//!
//! Two executors produce this record stream — the predecoded
//! [`crate::FastCpu`] and the deliberately simple [`crate::RefCpu`] — which is
//! what makes differential (trace-oracle) testing possible; see the
//! `conformance` crate.
//!
//! [`Executor`]: crate::Executor
//! [`Executor::run`]: crate::Executor::run
//! [`Executor::run_observed`]: crate::Executor::run_observed

use std::ops::ControlFlow;

use crate::annot::Annot;
use crate::insn::Insn;
use crate::reg::Reg;

/// A memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Effective byte address (after tag dropping / masking).
    pub addr: u32,
    /// The word read or written.
    pub value: u32,
    /// `true` for a store, `false` for a load.
    pub store: bool,
}

/// One retired instruction, as both executors report it.
///
/// `Retirement` deliberately contains only *architectural* facts — no cycles,
/// no pipeline state — so records from the pipelined [`crate::FastCpu`] and
/// the sequential [`crate::RefCpu`] can be compared with `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// Instruction index.
    pub pc: usize,
    /// The decoded instruction.
    pub insn: Insn,
    /// Register writeback, if the instruction wrote one (writes to `r0` are
    /// discarded and never reported).
    pub write: Option<(Reg, u32)>,
    /// Memory operation, if the instruction performed one.
    pub mem: Option<MemOp>,
    /// Tag-trap redirect target: `Some(on_fail)` when a checked memory access
    /// or generic-arithmetic instruction failed its tag test and transferred
    /// control instead of completing. Trapping retirements have no writeback
    /// and no memory operation.
    pub trap: Option<usize>,
}

/// An instruction-retirement observer. See the [module docs](self).
///
/// `retire` returns [`ControlFlow`]: `Break(())` stops the simulation, which
/// then reports [`crate::SimError::Stopped`]. This lets a differential harness
/// abort at the first divergence instead of running the program to completion.
pub trait Observer {
    /// Compile-time gate: when `false`, every emission site (including the
    /// bookkeeping that assembles [`Retirement`] records) compiles away.
    const ENABLED: bool = true;

    /// Called after each architecturally executed instruction, including
    /// trapping checked instructions and `halt`.
    ///
    /// `annot` is the annotation the statistics were charged to (for trapping
    /// generic arithmetic this is the dispatch annotation, not the fast
    /// path's) and `cycle` the cumulative cycle count after retirement.
    fn retire(&mut self, ev: &Retirement, annot: Annot, cycle: u64) -> ControlFlow<()>;

    /// Called when a delay slot is squashed: the slot's cycle is wasted and
    /// charged to the branch's annotation; nothing executes or retires.
    fn squash(&mut self, pc: usize, branch_annot: Annot, cycle: u64) {
        let _ = (pc, branch_annot, cycle);
    }
}

/// The disabled observer: [`crate::Executor::run`] uses it, and with
/// `ENABLED = false` the traced loop monomorphizes back to the plain one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Observer for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn retire(&mut self, _ev: &Retirement, _annot: Annot, _cycle: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// What [`TraceBuffer::drain`] hands back: the retirements, the parallel
/// `(annotation, cumulative cycle)` sidecar, and the squashed-slot log.
pub type DrainedTrace = (Vec<Retirement>, Vec<(Annot, u64)>, Vec<(usize, Annot, u64)>);

/// An observer that records the whole run in memory.
///
/// Only suitable for small programs — the ten benchmark workloads retire
/// hundreds of millions of instructions, for which a streaming observer (as in
/// the `conformance` crate's lockstep harness) is the right tool. As a middle
/// ground, [`TraceBuffer::bounded`] caps the recording and stops the
/// simulation (via `ControlFlow::Break`, surfacing as
/// [`crate::SimError::Stopped`]) once the cap is reached, and
/// [`TraceBuffer::drain`] hands the records out batch-wise so one buffer can
/// be reused across windows of a long run.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    /// Every retirement, in order.
    pub records: Vec<Retirement>,
    /// `(annot, cycle)` sidecar, parallel to `records`.
    pub annotations: Vec<(Annot, u64)>,
    /// Squashed delay slots as `(pc, branch annot, cycle)`.
    pub squashes: Vec<(usize, Annot, u64)>,
    /// When set, `retire` breaks out of the run once this many records are
    /// held (squashes don't count against the bound).
    limit: Option<usize>,
}

impl TraceBuffer {
    /// An unbounded buffer (same as `TraceBuffer::default()`).
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// A buffer that stops the simulation after recording `limit`
    /// retirements; the run then ends with [`crate::SimError::Stopped`].
    pub fn bounded(limit: usize) -> TraceBuffer {
        TraceBuffer {
            limit: Some(limit),
            ..TraceBuffer::default()
        }
    }

    /// Number of retirements currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no retirement has been recorded (squashes don't count).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Take everything recorded so far, leaving the buffer empty (and, for a
    /// bounded buffer, ready to accept `limit` more records).
    pub fn drain(&mut self) -> DrainedTrace {
        (
            std::mem::take(&mut self.records),
            std::mem::take(&mut self.annotations),
            std::mem::take(&mut self.squashes),
        )
    }
}

impl Observer for TraceBuffer {
    fn retire(&mut self, ev: &Retirement, annot: Annot, cycle: u64) -> ControlFlow<()> {
        self.records.push(*ev);
        self.annotations.push((annot, cycle));
        if self.limit.is_some_and(|l| self.records.len() >= l) {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    fn squash(&mut self, pc: usize, branch_annot: Annot, cycle: u64) {
        self.squashes.push((pc, branch_annot, cycle));
    }
}

/// Two observers driven by one run — e.g. a
/// [`Profiler`](crate::profile::Profiler) and a
/// [`TimingModel`](crate::timing::TimingModel) watching the same stream. The
/// fields are public so both halves can be inspected after the run.
///
/// `retire` stops the simulation when *either* half asks to
/// (`ControlFlow::Break`); the other half still sees the event first.
#[derive(Debug, Clone, Default)]
pub struct Chain<A, B> {
    /// The first observer (sees each event first).
    pub first: A,
    /// The second observer.
    pub second: B,
}

impl<A: Observer, B: Observer> Chain<A, B> {
    /// Chain `first` and `second`.
    pub fn new(first: A, second: B) -> Chain<A, B> {
        Chain { first, second }
    }
}

impl<A: Observer, B: Observer> Observer for Chain<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn retire(&mut self, ev: &Retirement, annot: Annot, cycle: u64) -> ControlFlow<()> {
        let a = self.first.retire(ev, annot, cycle);
        let b = self.second.retire(ev, annot, cycle);
        if a.is_break() || b.is_break() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn squash(&mut self, pc: usize, branch_annot: Annot, cycle: u64) {
        self.first.squash(pc, branch_annot, cycle);
        self.second.squash(pc, branch_annot, cycle);
    }
}
