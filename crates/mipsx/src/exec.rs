//! The execution-backend API: the [`Executor`] trait, the [`Backend`]
//! selector, the run results ([`Outcome`], [`SimError`]), and the predecoded
//! interpreter ([`FastCpu`]).
//!
//! # Two interpreters
//!
//! [`FastCpu`] produces every number the study reports. A naive interpreter
//! re-derives per-instruction facts on every step: it looks up the
//! instruction's [`Annot`], classifies it, checks hardware availability, and
//! charges statistics on every retirement. None of that depends on run-time
//! state — it is all a pure function of `(Program, HwConfig)`.
//! [`DecodedProgram::decode`] therefore lowers the
//! program **once** into a dense array of micro-ops ([`FastCpu`]'s internal
//! `Op`) with everything pre-resolved:
//!
//! - hardware-feature availability: an instruction needing absent hardware is
//!   a *predecode* error ([`SimError::MissingHardware`] from `decode`), not a
//!   per-step branch;
//! - the annotation and the instruction class;
//! - the retirement cost in cycles (multiply/divide/float costs folded in);
//! - branch shapes: delay-slot counts, squash behaviour, link registers, and
//!   tag-clearing masks for checked accesses;
//! - the register-use set as a bitmask, so the load-delay check is two ANDs;
//! - the straight-line *run* starting at each pc: the consecutive ops with no
//!   control transfer, no trapping op (`LdChk`, `StChk`, generic
//!   arithmetic), no `halt`, and no load whose register the very next op
//!   reads — with its length and total cost. A branch or jump records the
//!   same for its delay slots when they form such a run, and marks them
//!   when every slot is a `nop`.
//!
//! Most of a compiled Lisp program is a system image shared with every other
//! program compiled under the same code shape. [`DecodedProgram::splice`]
//! copies the image's ops, decoded once per image, into their placed ranges
//! and decodes only the program's own code and the image positions that the
//! placement or the hardware's cycle costs change; the result equals
//! [`DecodedProgram::decode`]'s, which stays the definition. A run's set-up
//! then scales with the program, not with the image it links, and likewise
//! with the memory it touches, not the memory map: [`Mem`] materialises a
//! zeroed prefix on demand.
//!
//! The dispatch loop matches on the dense micro-op enum (a jump table) and
//! accounts **per run, not per instruction**. Every counter in [`Stats`] is a
//! linear function of how often each pc commits, and inside a run every pc
//! commits exactly as often as the run is entered. So when the whole run
//! fits the cycle budget, the loop executes it as one step: one load-delay
//! check at its first op, each op through the one semantic `match`, one
//! cycle add, one bump of the run's counter, and the load hazard of its last
//! op. A taken or non-squashing branch executes slots that form a run the
//! same way, with one counter per branch; unobserved, slots marked
//! all-`nop` only add their cycles. Trapping ops, runs the fuel check
//! could fire inside, and squashed slots take the per-op path, which bumps a
//! per-pc counter. When the run halts, the run counters are spread over
//! their ops with running sums and added to the per-pc counts, and
//! [`Stats`] is folded from those counts and the predecoded op metadata
//! (trap penalties, which are rare and data-dependent, are accumulated
//! directly as they happen). The result is byte-identical to charging every
//! retirement as it happens. The [`Observer`] hook is monomorphized behind
//! [`Observer::ENABLED`]: the unobserved path compiles to the plain loop,
//! and an observed run still sees every retirement, stamped with its own
//! cycle.
//!
//! [`RefCpu`] is the other interpreter, and the oracle: a deliberately naive
//! single-step interpreter over the undecoded [`Insn`]s, sharing none of the
//! machinery above. Its [`Executor`] implementation drives the single step
//! in a loop and rebuilds the statistics from the retirement stream (cycle
//! accounting is purely architectural).
//!
//! # Equivalence contract
//!
//! For any program that [`RefCpu`] runs to completion (`Ok` or `Err`),
//! [`FastCpu`] produces **byte-identical** results: the same [`Outcome`]
//! (halt code, output, and `Stats`, including every table cell), the same
//! retirement/squash event stream, and the same errors — except where
//! [`RefCpu`] documents that it does not model the pipeline:
//!
//! - only [`FastCpu`] enforces the load-delay rule
//!   ([`SimError::LoadDelayViolation`]);
//! - [`FastCpu`] reports `MissingHardware` from [`DecodedProgram::decode`]
//!   for the lowest-pc offending instruction, even if that instruction would
//!   never have executed;
//! - on error paths the event stream may end slightly differently.
//!
//! The `conformance` crate holds [`FastCpu`] to this contract by running it
//! in lockstep against [`RefCpu`].

use std::fmt;
use std::ops::Range;

use crate::annot::{Annot, CheckCat, Provenance, TagOpKind};
use crate::hw::{HwConfig, ParallelCheck};
use crate::insn::{Cond, FpOp, Insn, IntTest, TagField, WriteKind};
use crate::mem::Mem;
use crate::program::Program;
use crate::refcpu::RefCpu;
use crate::reg::Reg;
use crate::stats::{InsnClass, Stats};
use crate::trace::{MemOp, NoTrace, Observer, Retirement};

/// Simulation failures. These indicate bugs in generated code (or an exhausted
/// cycle budget), never ordinary program behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget ran out before `halt`.
    OutOfFuel {
        /// Cycles executed when the budget expired.
        cycles: u64,
    },
    /// A memory access fell outside the simulated memory.
    MemFault {
        /// Faulting effective byte address.
        addr: u32,
        /// Instruction index.
        pc: usize,
    },
    /// The program counter left the code.
    PcOutOfRange {
        /// The bad instruction index.
        pc: usize,
    },
    /// An instruction requiring absent hardware support was executed.
    MissingHardware {
        /// Instruction index.
        pc: usize,
        /// Which feature was missing.
        feature: &'static str,
    },
    /// A control-transfer instruction appeared in a delay slot.
    ControlInSlot {
        /// Slot instruction index.
        pc: usize,
    },
    /// The instruction after a load read the loaded register.
    LoadDelayViolation {
        /// Offending instruction index.
        pc: usize,
        /// The register read too early.
        reg: Reg,
    },
    /// The [`Observer`] asked the simulation to stop (never produced by
    /// [`Executor::run`], whose observer cannot break).
    Stopped {
        /// Cycles executed when the observer broke.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfFuel { cycles } => write!(f, "cycle budget exhausted after {cycles}"),
            SimError::MemFault { addr, pc } => {
                write!(f, "memory fault at address {addr:#x} (pc {pc})")
            }
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} outside code"),
            SimError::MissingHardware { pc, feature } => {
                write!(f, "instruction at pc {pc} needs absent hardware: {feature}")
            }
            SimError::ControlInSlot { pc } => {
                write!(f, "control transfer in delay slot at pc {pc}")
            }
            SimError::LoadDelayViolation { pc, reg } => {
                write!(
                    f,
                    "instruction at pc {pc} reads {reg} during its load delay"
                )
            }
            SimError::Stopped { cycles } => {
                write!(f, "stopped by the observer after {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of a completed simulation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Exit code passed to `halt`.
    pub halt_code: i32,
    /// Everything the program wrote with [`Insn::Write`].
    pub output: String,
    /// Cycle and attribution statistics.
    pub stats: Stats,
}

/// A simulation backend: anything that can run a program to an [`Outcome`]
/// while reporting retirements to an [`Observer`].
///
/// Both interpreters ([`FastCpu`], [`RefCpu`]) implement this trait, so
/// harnesses, studies, and the profiler drive either backend through one
/// API. Construct a backend generically with [`Backend::executor`].
pub trait Executor {
    /// Run until `halt`, a simulation error, or the cycle budget is
    /// exhausted, reporting every retired instruction to `obs`.
    ///
    /// With [`NoTrace`] this monomorphizes to exactly the untraced loop.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], including [`SimError::Stopped`] if the observer
    /// breaks out of the run. A normal `halt` is not an error.
    fn run_observed<O: Observer>(
        &mut self,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<Outcome, SimError>;

    /// [`run_observed`](Executor::run_observed) without an observer.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] except [`SimError::Stopped`].
    fn run(&mut self, max_cycles: u64) -> Result<Outcome, SimError> {
        self.run_observed(max_cycles, &mut NoTrace)
    }

    /// The register file (for post-run comparison).
    fn regs(&self) -> &[u32; 32];

    /// The data memory (for post-run inspection).
    fn mem(&self) -> &Mem;
}

/// Which interpreter executes a program.
///
/// Both backends produce identical results (the conformance suite runs them
/// in lockstep), so the choice only affects host-side speed — which is why
/// measurement cache keys and store content addresses deliberately exclude
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The predecoded micro-op interpreter ([`FastCpu`]) — the default.
    #[default]
    Fast,
    /// The deliberately naive reference interpreter ([`RefCpu`]), driven
    /// step-wise; slowest, but independent of the pipelined machinery.
    Ref,
}

/// All backends, in report order.
pub const ALL_BACKENDS: [Backend; 2] = [Backend::Fast, Backend::Ref];

impl Backend {
    /// The canonical lower-case name (`fast`, `ref`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Fast => "fast",
            Backend::Ref => "ref",
        }
    }

    /// Parse a backend [`name`](Self::name), ignoring ASCII case.
    ///
    /// # Errors
    ///
    /// A usage-ready message listing [`ALL_BACKENDS`] for an unknown name,
    /// the removed `classic` interpreter included.
    pub fn parse(text: &str) -> Result<Backend, String> {
        ALL_BACKENDS
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(text))
            .ok_or_else(|| {
                let all = ALL_BACKENDS.map(Backend::name);
                format!("unknown backend {text:?} (want {})", all.join(" or "))
            })
    }

    /// Build an executor of this kind for `prog` with `hw` support and
    /// `mem_bytes` of data memory, applying the program's initial data image.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingHardware`] from predecode when the fast backend is
    /// selected and the program contains an instruction `hw` cannot execute.
    pub fn executor<'p>(
        self,
        prog: &'p Program,
        hw: HwConfig,
        mem_bytes: usize,
    ) -> Result<AnyExecutor<'p>, SimError> {
        Ok(match self {
            Backend::Fast => AnyExecutor::Fast(Box::new(FastCpu::new(prog, hw, mem_bytes)?)),
            Backend::Ref => AnyExecutor::Ref(Box::new(RefCpu::new(prog, hw, mem_bytes))),
        })
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend chosen at run time: the [`Executor`] trait object-ified as an
/// enum (the trait itself is not object-safe because `run_observed` is
/// generic over the observer). Both variants are boxed: the interpreters
/// differ in size by hundreds of bytes, and one is built per run.
#[derive(Debug)]
pub enum AnyExecutor<'p> {
    /// The predecoded interpreter.
    Fast(Box<FastCpu<'p>>),
    /// The reference interpreter.
    Ref(Box<RefCpu<'p>>),
}

impl Executor for AnyExecutor<'_> {
    fn run_observed<O: Observer>(
        &mut self,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<Outcome, SimError> {
        match self {
            AnyExecutor::Fast(c) => c.run_observed(max_cycles, obs),
            AnyExecutor::Ref(c) => c.run_observed(max_cycles, obs),
        }
    }

    fn regs(&self) -> &[u32; 32] {
        match self {
            AnyExecutor::Fast(c) => c.regs(),
            AnyExecutor::Ref(c) => c.regs(),
        }
    }

    fn mem(&self) -> &Mem {
        match self {
            AnyExecutor::Fast(c) => c.mem(),
            AnyExecutor::Ref(c) => c.mem(),
        }
    }
}

/// The annotation every generic-arithmetic trap is charged to (dispatch work,
/// regardless of the fast path's annotation), on both backends.
pub(crate) const GEN_TRAP_ANNOT: Annot = Annot {
    tag_op: Some(TagOpKind::Generic),
    cat: CheckCat::Arith,
    prov: Provenance::Checking,
};

/// Fold the per-pc retirement and squash counters into `stats`: each
/// committed execution of an op contributes its class, its cost charged to
/// its annotation, and `committed`; each squashed slot contributes one cycle
/// charged to the owning branch's annotation. Exactly what per-retirement
/// [`Stats::record`]/[`Stats::record_squashed`] calls would have accumulated
/// — but the hot loop only paid one counter bump per op or per run (trap
/// penalties are rare and recorded directly as they happen). `counts` yields
/// the committed executions of each op, in pc order.
fn fold_counts(
    mut stats: Stats,
    ops: &[Op],
    counts: impl IntoIterator<Item = u64>,
    squashes: &[u64],
) -> Stats {
    for ((op, n), &s) in ops.iter().zip(counts).zip(squashes) {
        if n > 0 {
            stats.committed += n;
            stats.class_counts[op.class as usize] += n;
            stats.attribute(op.annot, n * u64::from(op.cost));
        }
        if s > 0 {
            stats.squashed += s;
            stats.attribute(op.annot, s);
        }
    }
    stats
}

/// A conditional branch's condition, with operand shape resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BrCond {
    /// Register-register compare ([`Insn::Br`]).
    RegReg(Cond, Reg, Reg),
    /// Register-immediate compare ([`Insn::Bri`]), immediate pre-widened.
    RegImm(Cond, Reg, u32),
    /// Tag-field compare ([`Insn::TagBr`]) — only decoded when the hardware
    /// has the tag-branch unit.
    Tag {
        rs: Reg,
        field: TagField,
        value: u32,
        neq: bool,
    },
}

/// One predecoded micro-op. Variants mirror [`Insn`] but with immediates
/// pre-widened, hardware gates resolved away, checked-access clear masks
/// precomputed, and control transfers lowered to three resolved shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    And(Reg, Reg, Reg),
    Or(Reg, Reg, Reg),
    Xor(Reg, Reg, Reg),
    Slt(Reg, Reg, Reg),
    Addi(Reg, Reg, u32),
    Andi(Reg, Reg, u32),
    Ori(Reg, Reg, u32),
    Xori(Reg, Reg, u32),
    Sll(Reg, Reg, u8),
    Srl(Reg, Reg, u8),
    Sra(Reg, Reg, u8),
    Li(Reg, u32),
    Mov(Reg, Reg),
    Fop(FpOp, Reg, Reg, Reg),
    Mul(Reg, Reg, Reg),
    Div(Reg, Reg, Reg),
    Rem(Reg, Reg, Reg),
    Ld(Reg, Reg, u32),
    St {
        src: Reg,
        base: Reg,
        disp: u32,
    },
    LdChk {
        rd: Reg,
        base: Reg,
        disp: u32,
        field: TagField,
        expect: u32,
        /// `!(field.mask << field.shift)`: AND-mask clearing the tag bits
        /// during address calculation.
        clear: u32,
        on_fail: u32,
    },
    StChk {
        src: Reg,
        base: Reg,
        disp: u32,
        field: TagField,
        expect: u32,
        clear: u32,
        on_fail: u32,
    },
    GenArith {
        sub: bool,
        rd: Reg,
        rs: Reg,
        rt: Reg,
        int_test: IntTest,
        on_fail: u32,
    },
    Nop,
    Write(Reg, WriteKind),
    Halt(Reg),
    /// Conditional branch: two delay slots, squash behaviour resolved.
    CondBr {
        cond: BrCond,
        target: u32,
        squash: bool,
    },
    /// Direct jump (J/Jal): one delay slot, link register resolved.
    Jump {
        target: u32,
        link: Option<Reg>,
    },
    /// Indirect jump (Jr/Jalr): one delay slot.
    JumpReg {
        r: Reg,
        link: Option<Reg>,
    },
}

impl OpKind {
    #[inline(always)]
    fn is_control(self) -> bool {
        matches!(
            self,
            OpKind::CondBr { .. } | OpKind::Jump { .. } | OpKind::JumpReg { .. }
        )
    }

    /// Whether the op may sit in a straight-line run: it always falls
    /// through to the next pc (no control transfer, no trap, no halt).
    fn is_straight(self) -> bool {
        !self.is_control()
            && !matches!(
                self,
                OpKind::LdChk { .. }
                    | OpKind::StChk { .. }
                    | OpKind::GenArith { .. }
                    | OpKind::Halt(_)
            )
    }

    /// The register a plain load writes, as a bitmask (0 for other ops).
    fn load_mask(self) -> u32 {
        match self {
            OpKind::Ld(d, ..) => 1 << d.index(),
            _ => 0,
        }
    }
}

/// One micro-op with its fused metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    kind: OpKind,
    /// The instruction's annotation (reported to observers, and charged
    /// when the counts are folded).
    annot: Annot,
    /// `InsnClass as u8`, the [`Stats::class_counts`] index.
    class: u8,
    /// Retirement cost in cycles (multiply/divide/float resolved).
    cost: u32,
    /// Registers read, as a bitmask over register indices (r0 excluded).
    use_mask: u32,
    /// Length of the run the dispatch loop may execute as one step here, or
    /// 0: for a straight op, the straight-line run starting at this pc; for
    /// a control op, its delay slots when they form such a run.
    run: u16,
    /// Total cost in cycles of those `run` ops (a run ends early rather
    /// than overflow either field).
    run_cost: u32,
    /// For a control op whose delay slots form a run: whether every slot is
    /// a `nop`. Such a group changes nothing but the cycle count, so the
    /// unobserved dispatch loop charges `run_cost` and counts the run
    /// without executing it. Set by [`link_one`] alone, like `run`.
    nop_slots: bool,
}

// Keep an `Op` within 48 bytes: the dispatch loop copies one per step.
const _: () = assert!(std::mem::size_of::<Op>() <= 48);

/// A program lowered to micro-ops for one hardware configuration.
///
/// Produced by [`DecodedProgram::decode`]; executed by [`FastCpu`]. The
/// lowering is pure, so a decoded program can be cloned and reused across
/// runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    ops: Vec<Op>,
    entry: usize,
    address_mask: u32,
    trap_penalty: u64,
}

impl DecodedProgram {
    /// Lower `prog` for `hw`. See the [module docs](self) for what is
    /// resolved at predecode time.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingHardware`] at the lowest pc whose instruction
    /// requires a feature `hw` does not provide — even if that instruction
    /// would never execute (the one place predecode is stricter than
    /// [`RefCpu`]).
    ///
    /// # Panics
    ///
    /// If `prog.annots` is not parallel to `prog.insns` (the assembler
    /// guarantees it; hand-built programs must too).
    pub fn decode(prog: &Program, hw: HwConfig) -> Result<DecodedProgram, SimError> {
        assert_eq!(
            prog.annots.len(),
            prog.insns.len(),
            "program annots must parallel insns (one Annot per instruction)"
        );
        let mut ops = Vec::with_capacity(prog.insns.len());
        for (pc, &insn) in prog.insns.iter().enumerate() {
            ops.push(decode_one(pc, insn, prog.annots[pc], hw)?);
        }
        link_runs(&mut ops);
        Ok(DecodedProgram {
            ops,
            entry: prog.entry,
            address_mask: hw.address_mask(),
            trap_penalty: u64::from(hw.trap_penalty),
        })
    }

    /// [`decode`](Self::decode) for a program that contains already-decoded
    /// stretches: copy `image`'s ops into their placed ranges, decode the
    /// rest of `prog` and the `fresh` positions inside those ranges, then
    /// link runs. The program's own code is linked in full. A copied op
    /// keeps the run `image` linked for it unless its successors differ in
    /// `prog`, so each placed range is relinked only back from its end and
    /// from each fresh position, as far as a run can change.
    ///
    /// Each `placed` entry `(range, at)` says that `prog`'s positions from
    /// `at` on hold `image`'s positions `range`, in order; the entries are in
    /// ascending `at` and do not overlap. `fresh` lists, in ascending order,
    /// every position inside a placed range whose op is not `image`'s: an
    /// instruction the placement changed (a moved code target, a relocated
    /// operand), or whose cost `hw` sets (`mul`, `div`, `rem` and float
    /// ops). `image` must have been decoded under hardware with `hw`'s
    /// feature gates. Under that contract the result equals
    /// [`decode`](Self::decode)`(prog, hw)`, errors included, at the cost of
    /// decoding only what is not shared.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    ///
    /// # Panics
    ///
    /// As [`decode`](Self::decode), or if a placed range falls outside
    /// `image` or `prog`.
    pub fn splice(
        prog: &Program,
        hw: HwConfig,
        image: &DecodedProgram,
        placed: &[(Range<usize>, usize)],
        fresh: impl IntoIterator<Item = usize>,
    ) -> Result<DecodedProgram, SimError> {
        assert_eq!(
            prog.annots.len(),
            prog.insns.len(),
            "program annots must parallel insns (one Annot per instruction)"
        );
        let decode = |pc: usize| decode_one(pc, prog.insns[pc], prog.annots[pc], hw);
        let mut fresh = fresh.into_iter().peekable();
        // Positions are filled in ascending order, so the first error is at
        // the lowest offending pc, as `decode` reports it.
        let mut ops = Vec::with_capacity(prog.insns.len());
        // Where a copied op's run may differ from the image's: each fresh
        // position and the last position of each range, ascending.
        let mut changed = Vec::new();
        for (range, at) in placed {
            while ops.len() < *at {
                ops.push(decode(ops.len())?);
            }
            let end = at + range.len();
            while ops.len() < end {
                let stop = fresh.next_if(|&pc| pc < end).unwrap_or(end);
                let copied = range.start + ops.len() - at..range.start + stop - at;
                ops.extend_from_slice(&image.ops[copied]);
                if stop < end {
                    ops.push(decode(stop)?);
                    changed.push(stop);
                }
            }
            if end > *at && changed.last() != Some(&(end - 1)) {
                changed.push(end - 1);
            }
        }
        debug_assert!(
            fresh.next().is_none(),
            "fresh positions lie in placed ranges"
        );
        while ops.len() < prog.insns.len() {
            ops.push(decode(ops.len())?);
        }
        // Link the program's own code in full; in each placed range, walk
        // back from each changed position.
        let mut own_end = ops.len();
        for (range, at) in placed.iter().rev() {
            let end = at + range.len();
            for pc in (end..own_end).rev() {
                link_one(&mut ops, pc);
            }
            while let Some(&from) = changed.last().filter(|&&pc| pc >= *at) {
                changed.pop();
                relink_back(&mut ops, from, *at);
            }
            own_end = *at;
        }
        for pc in (0..own_end).rev() {
            link_one(&mut ops, pc);
        }
        Ok(DecodedProgram {
            ops,
            entry: prog.entry,
            address_mask: hw.address_mask(),
            trap_penalty: u64::from(hw.trap_penalty),
        })
    }

    /// Number of micro-ops (= instructions).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Fill in every op's `run`, `run_cost` and `nop_slots`, back to front
/// (see [`link_one`]).
fn link_runs(ops: &mut [Op]) {
    for pc in (0..ops.len()).rev() {
        link_one(ops, pc);
    }
}

/// Fill in `run`, `run_cost` and `nop_slots` at `pc` from the op after it,
/// which must be linked already; returns whether they changed. A straight
/// op heads a run of itself plus the run after it, unless it is a load
/// whose register the next op reads (the load-delay check must then run at
/// that next op) or its length or total cost would overflow. A control op's
/// delay slots form a run when the run after it covers them all, and are
/// marked when they are all `nop`s.
fn link_one(ops: &mut [Op], pc: usize) -> bool {
    let op = ops[pc];
    let next = ops
        .get(pc + 1)
        .filter(|n| n.run > 0 && !n.kind.is_control());
    let (run, run_cost, nop_slots) = match op.kind {
        OpKind::CondBr { .. } | OpKind::Jump { .. } | OpKind::JumpReg { .. } => {
            let slots = if matches!(op.kind, OpKind::CondBr { .. }) {
                2
            } else {
                1
            };
            match next {
                // The run after covers the slots, so their cost fits.
                Some(n) if n.run >= slots => {
                    let group = &ops[pc + 1..=pc + slots as usize];
                    (
                        slots,
                        group.iter().map(|o| o.cost).sum(),
                        group.iter().all(|o| o.kind == OpKind::Nop),
                    )
                }
                _ => (0, 0, false),
            }
        }
        kind if kind.is_straight() => {
            let linked = next
                .filter(|n| kind.load_mask() & n.use_mask == 0)
                .and_then(|n| Some((n.run.checked_add(1)?, op.cost.checked_add(n.run_cost)?)));
            let (run, run_cost) = linked.unwrap_or((1, op.cost));
            (run, run_cost, false)
        }
        _ => (0, 0, false),
    };
    ops[pc].run = run;
    ops[pc].run_cost = run_cost;
    ops[pc].nop_slots = nop_slots;
    (run, run_cost, nop_slots) != (op.run, op.run_cost, op.nop_slots)
}

/// Relink a stretch of ops copied from an image, whose links were made in
/// the image's own stream, after the op at `from` changed or its successor
/// did: walk back from `from`, not below `floor`. A straight op's link reads
/// only its successor's, so the walk stops at the first op whose link comes
/// out as it was, and at a control op or one that traps or halts, whose
/// predecessor never joins its run. A branch's link also sums the costs of
/// both its slots, so where the walk stops on an unchanged op, a branch just
/// before it is relinked too.
fn relink_back(ops: &mut [Op], from: usize, floor: usize) {
    let mut pc = from;
    loop {
        let changed = link_one(ops, pc);
        if pc == floor || !ops[pc].kind.is_straight() {
            return;
        }
        if pc != from && !changed {
            if ops[pc - 1].kind.is_control() {
                link_one(ops, pc - 1);
            }
            return;
        }
        pc -= 1;
    }
}

fn decode_one(pc: usize, insn: Insn, annot: Annot, hw: HwConfig) -> Result<Op, SimError> {
    let mut cost = 1u32;
    let kind = match insn {
        Insn::Add(d, a, b) => OpKind::Add(d, a, b),
        Insn::Sub(d, a, b) => OpKind::Sub(d, a, b),
        Insn::And(d, a, b) => OpKind::And(d, a, b),
        Insn::Or(d, a, b) => OpKind::Or(d, a, b),
        Insn::Xor(d, a, b) => OpKind::Xor(d, a, b),
        Insn::Slt(d, a, b) => OpKind::Slt(d, a, b),
        Insn::Addi(d, a, i) => OpKind::Addi(d, a, i as u32),
        Insn::Andi(d, a, i) => OpKind::Andi(d, a, i),
        Insn::Ori(d, a, i) => OpKind::Ori(d, a, i),
        Insn::Xori(d, a, i) => OpKind::Xori(d, a, i),
        Insn::Sll(d, a, s) => OpKind::Sll(d, a, s & 31),
        Insn::Srl(d, a, s) => OpKind::Srl(d, a, s & 31),
        Insn::Sra(d, a, s) => OpKind::Sra(d, a, s & 31),
        Insn::Li(d, i) => OpKind::Li(d, i as u32),
        Insn::Mov(d, a) => OpKind::Mov(d, a),
        Insn::Fop(op, d, a, b) => {
            cost = hw.fp_cycles;
            OpKind::Fop(op, d, a, b)
        }
        Insn::Mul(d, a, b) => {
            cost = hw.mul_cycles;
            OpKind::Mul(d, a, b)
        }
        Insn::Div(d, a, b) => {
            cost = hw.div_cycles;
            OpKind::Div(d, a, b)
        }
        Insn::Rem(d, a, b) => {
            cost = hw.div_cycles;
            OpKind::Rem(d, a, b)
        }
        Insn::Ld(d, base, disp) => OpKind::Ld(d, base, disp as u32),
        Insn::St { src, base, disp } => OpKind::St {
            src,
            base,
            disp: disp as u32,
        },
        Insn::LdChk {
            rd,
            base,
            disp,
            field,
            expect,
            on_fail,
        } => {
            if hw.parallel_check == ParallelCheck::None {
                return Err(SimError::MissingHardware {
                    pc,
                    feature: "parallel tag check",
                });
            }
            OpKind::LdChk {
                rd,
                base,
                disp: disp as u32,
                field,
                expect,
                clear: !(field.mask << field.shift),
                on_fail,
            }
        }
        Insn::StChk {
            src,
            base,
            disp,
            field,
            expect,
            on_fail,
        } => {
            if hw.parallel_check == ParallelCheck::None {
                return Err(SimError::MissingHardware {
                    pc,
                    feature: "parallel tag check",
                });
            }
            OpKind::StChk {
                src,
                base,
                disp: disp as u32,
                field,
                expect,
                clear: !(field.mask << field.shift),
                on_fail,
            }
        }
        Insn::AddG {
            rd,
            rs,
            rt,
            int_test,
            on_fail,
        }
        | Insn::SubG {
            rd,
            rs,
            rt,
            int_test,
            on_fail,
        } => {
            if !hw.generic_arith {
                return Err(SimError::MissingHardware {
                    pc,
                    feature: "generic arithmetic",
                });
            }
            OpKind::GenArith {
                sub: matches!(insn, Insn::SubG { .. }),
                rd,
                rs,
                rt,
                int_test,
                on_fail,
            }
        }
        Insn::Nop => OpKind::Nop,
        Insn::Write(r, kind) => OpKind::Write(r, kind),
        Insn::Halt(r) => OpKind::Halt(r),
        Insn::Br {
            cond,
            rs,
            rt,
            target,
            squash,
        } => OpKind::CondBr {
            cond: BrCond::RegReg(cond, rs, rt),
            target,
            squash,
        },
        Insn::Bri {
            cond,
            rs,
            imm,
            target,
            squash,
        } => OpKind::CondBr {
            cond: BrCond::RegImm(cond, rs, imm as u32),
            target,
            squash,
        },
        Insn::TagBr {
            rs,
            field,
            value,
            neq,
            target,
            squash,
        } => {
            if !hw.tag_branch {
                return Err(SimError::MissingHardware {
                    pc,
                    feature: "tag branch",
                });
            }
            OpKind::CondBr {
                cond: BrCond::Tag {
                    rs,
                    field,
                    value,
                    neq,
                },
                target,
                squash,
            }
        }
        Insn::J(t) => OpKind::Jump {
            target: t,
            link: None,
        },
        Insn::Jal(t, link) => OpKind::Jump {
            target: t,
            link: Some(link),
        },
        Insn::Jr(r) => OpKind::JumpReg { r, link: None },
        Insn::Jalr(r, link) => OpKind::JumpReg {
            r,
            link: Some(link),
        },
    };
    let use_mask = insn.uses().bits();
    Ok(Op {
        kind,
        annot,
        class: InsnClass::of(insn) as u8,
        cost,
        use_mask,
        run: 0,
        run_cost: 0,
        nop_slots: false,
    })
}

enum Flow {
    Next,
    Halt(i32),
    /// A checked op failed its check: nothing committed, control goes to
    /// `target`, and the caller charges the trap.
    Trap {
        target: usize,
    },
}

/// What one non-control micro-op did besides its architectural effects.
struct Effect {
    flow: Flow,
    /// The register the op loaded, as a bitmask (0 = none): the next op's
    /// load-delay hazard.
    pending: u32,
    /// The memory access, for observers (only filled when one is enabled).
    mem: Option<MemOp>,
}

/// The architectural state the micro-ops read and write.
#[derive(Debug)]
struct Arch {
    regs: [u32; 32],
    mem: Mem,
    output: String,
    /// [`HwConfig::address_mask`], applied to every effective address.
    address_mask: u32,
}

impl Arch {
    /// Read a register (r0 reads zero).
    #[inline(always)]
    fn reg(&self, r: Reg) -> u32 {
        if r == Reg::Zero {
            0
        } else {
            self.regs[r.index()]
        }
    }

    #[inline(always)]
    fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.regs[r.index()] = v;
        }
    }

    #[inline(always)]
    fn ea(&self, base: Reg, disp: u32) -> u32 {
        self.reg(base).wrapping_add(disp) & self.address_mask
    }

    /// The observer record of a committed retirement of `insn` at `pc`.
    fn retirement(&self, pc: usize, insn: Insn, mem: Option<MemOp>) -> Retirement {
        Retirement {
            pc,
            insn,
            write: insn.def().map(|r| (r, self.reg(r))),
            mem,
            trap: None,
        }
    }

    /// The semantics of one non-control micro-op — the only copy, shared by
    /// the per-op and the whole-run paths. Accounting is the caller's.
    #[inline(always)]
    fn exec<O: Observer>(&mut self, pc: usize, op: &Op) -> Result<Effect, SimError> {
        debug_assert!(!op.kind.is_control());
        let mut pending = 0u32;
        let mut memop: Option<MemOp> = None;
        let flow = match op.kind {
            OpKind::Add(d, a, b) => {
                let v = self.reg(a).wrapping_add(self.reg(b));
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Sub(d, a, b) => {
                let v = self.reg(a).wrapping_sub(self.reg(b));
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::And(d, a, b) => {
                let v = self.reg(a) & self.reg(b);
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Or(d, a, b) => {
                let v = self.reg(a) | self.reg(b);
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Xor(d, a, b) => {
                let v = self.reg(a) ^ self.reg(b);
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Slt(d, a, b) => {
                let v = ((self.reg(a) as i32) < (self.reg(b) as i32)) as u32;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Addi(d, a, i) => {
                let v = self.reg(a).wrapping_add(i);
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Andi(d, a, i) => {
                let v = self.reg(a) & i;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Ori(d, a, i) => {
                let v = self.reg(a) | i;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Xori(d, a, i) => {
                let v = self.reg(a) ^ i;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Sll(d, a, s) => {
                let v = self.reg(a) << s;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Srl(d, a, s) => {
                let v = self.reg(a) >> s;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Sra(d, a, s) => {
                let v = ((self.reg(a) as i32) >> s) as u32;
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Li(d, i) => {
                self.set_reg(d, i);
                Flow::Next
            }
            OpKind::Mov(d, a) => {
                let v = self.reg(a);
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Fop(fop, d, a, b) => {
                let v = fop.apply(self.reg(a), self.reg(b));
                self.set_reg(d, v);
                Flow::Next
            }
            OpKind::Mul(d, a, b) => {
                let v = (self.reg(a) as i32).wrapping_mul(self.reg(b) as i32);
                self.set_reg(d, v as u32);
                Flow::Next
            }
            OpKind::Div(d, a, b) => {
                let bb = self.reg(b) as i32;
                let v = if bb == 0 {
                    0
                } else {
                    (self.reg(a) as i32).wrapping_div(bb)
                };
                self.set_reg(d, v as u32);
                Flow::Next
            }
            OpKind::Rem(d, a, b) => {
                let bb = self.reg(b) as i32;
                let v = if bb == 0 {
                    0
                } else {
                    (self.reg(a) as i32).wrapping_rem(bb)
                };
                self.set_reg(d, v as u32);
                Flow::Next
            }
            OpKind::Ld(d, base, disp) => {
                let addr = self.ea(base, disp);
                let v = self.mem.load(addr).ok_or(SimError::MemFault { addr, pc })?;
                if O::ENABLED {
                    memop = Some(MemOp {
                        addr,
                        value: v,
                        store: false,
                    });
                }
                self.set_reg(d, v);
                pending = 1 << d.index();
                Flow::Next
            }
            OpKind::St { src, base, disp } => {
                let addr = self.ea(base, disp);
                let v = self.reg(src);
                if !self.mem.store(addr, v) {
                    return Err(SimError::MemFault { addr, pc });
                }
                if O::ENABLED {
                    memop = Some(MemOp {
                        addr,
                        value: v,
                        store: true,
                    });
                }
                Flow::Next
            }
            OpKind::LdChk {
                rd,
                base,
                disp,
                field,
                expect,
                clear,
                on_fail,
            } => {
                let word = self.reg(base);
                if field.extract(word) != expect {
                    Flow::Trap {
                        target: on_fail as usize,
                    }
                } else {
                    let addr = (word & clear).wrapping_add(disp) & self.address_mask;
                    let v = self.mem.load(addr).ok_or(SimError::MemFault { addr, pc })?;
                    if O::ENABLED {
                        memop = Some(MemOp {
                            addr,
                            value: v,
                            store: false,
                        });
                    }
                    self.set_reg(rd, v);
                    pending = 1 << rd.index();
                    Flow::Next
                }
            }
            OpKind::StChk {
                src,
                base,
                disp,
                field,
                expect,
                clear,
                on_fail,
            } => {
                let word = self.reg(base);
                if field.extract(word) != expect {
                    Flow::Trap {
                        target: on_fail as usize,
                    }
                } else {
                    let addr = (word & clear).wrapping_add(disp) & self.address_mask;
                    let v = self.reg(src);
                    if !self.mem.store(addr, v) {
                        return Err(SimError::MemFault { addr, pc });
                    }
                    if O::ENABLED {
                        memop = Some(MemOp {
                            addr,
                            value: v,
                            store: true,
                        });
                    }
                    Flow::Next
                }
            }
            OpKind::GenArith {
                sub,
                rd,
                rs,
                rt,
                int_test,
                on_fail,
            } => {
                let a = self.reg(rs);
                let b = self.reg(rt);
                let result = if sub {
                    (a as i32).checked_sub(b as i32)
                } else {
                    (a as i32).checked_add(b as i32)
                };
                match result {
                    Some(r)
                        if int_test.is_int(a)
                            && int_test.is_int(b)
                            && int_test.is_int(r as u32) =>
                    {
                        self.set_reg(rd, r as u32);
                        Flow::Next
                    }
                    _ => Flow::Trap {
                        target: on_fail as usize,
                    },
                }
            }
            OpKind::Nop => Flow::Next,
            OpKind::Write(r, kind) => {
                let v = self.reg(r);
                match kind {
                    WriteKind::Char => self.output.push((v & 0xFF) as u8 as char),
                    WriteKind::Int => {
                        use std::fmt::Write as _;
                        let _ = write!(self.output, "{}", v as i32);
                    }
                }
                Flow::Next
            }
            OpKind::Halt(r) => Flow::Halt(self.reg(r) as i32),
            OpKind::CondBr { .. } | OpKind::Jump { .. } | OpKind::JumpReg { .. } => {
                unreachable!("control handled by the main loop")
            }
        };
        Ok(Effect {
            flow,
            pending,
            mem: memop,
        })
    }
}

/// Hand `ev` to the observer, stamped `cycles`; a break stops the run.
#[inline(always)]
fn report<O: Observer>(
    obs: &mut O,
    ev: &Retirement,
    annot: Annot,
    cycles: u64,
) -> Result<(), SimError> {
    if obs.retire(ev, annot, cycles).is_break() {
        return Err(SimError::Stopped { cycles });
    }
    Ok(())
}

/// The predecoded interpreter: [`DecodedProgram`] micro-ops driven by a dense
/// dispatch loop. The default [`Backend`]. See the [module docs](self).
#[derive(Debug)]
pub struct FastCpu<'p> {
    /// Kept for observer events (retirements carry the original [`Insn`]).
    prog: &'p Program,
    decoded: DecodedProgram,
    arch: Arch,
    pc: usize,
    /// Committed executions per pc on the per-op path.
    counts: Vec<u64>,
    /// Whole-run executions, per pc heading the run (for a control op: per
    /// execution of its delay slots as one run). Spread over the run's ops
    /// when the program halts.
    run_counts: Vec<u64>,
    /// Squashed delay slots per *branch* pc (squashes are attributed to the
    /// branch that owns the slot).
    squash_counts: Vec<u64>,
    /// Register written by the immediately preceding load, as a bitmask
    /// (0 = none): the load-delay check is `use_mask & pending_load`.
    pending_load: u32,
    /// Out of line: the dispatch loop touches only `cycles`, and with the
    /// whole table inline the larger `FastCpu` measured about 4% slower on
    /// `all_experiments`.
    stats: Box<Stats>,
}

impl<'p> FastCpu<'p> {
    /// Predecode `prog` for `hw` and build an interpreter over it with
    /// `mem_bytes` of data memory, applying the program's initial data image.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingHardware`] from [`DecodedProgram::decode`].
    pub fn new(prog: &'p Program, hw: HwConfig, mem_bytes: usize) -> Result<Self, SimError> {
        let decoded = DecodedProgram::decode(prog, hw)?;
        Ok(FastCpu::from_decoded(prog, decoded, mem_bytes))
    }

    /// Build an interpreter from an already-decoded program. `decoded` must
    /// have been produced by [`DecodedProgram::decode`] or
    /// [`DecodedProgram::splice`] from this same `prog` (reusing a decoded
    /// program across runs skips the predecode pass).
    pub fn from_decoded(prog: &'p Program, decoded: DecodedProgram, mem_bytes: usize) -> Self {
        assert_eq!(
            decoded.ops.len(),
            prog.insns.len(),
            "decoded program must match the source program"
        );
        let mut mem = Mem::new(mem_bytes);
        for &(addr, word) in &prog.data {
            assert!(
                mem.store(addr, word),
                "data image outside memory: {addr:#x}"
            );
        }
        let nops = decoded.ops.len();
        FastCpu {
            prog,
            pc: decoded.entry,
            arch: Arch {
                regs: [0; 32],
                mem,
                output: String::new(),
                address_mask: decoded.address_mask,
            },
            decoded,
            stats: Box::default(),
            counts: vec![0; nops],
            run_counts: vec![0; nops],
            squash_counts: vec![0; nops],
            pending_load: 0,
        }
    }

    /// Read a register (r0 reads zero).
    #[inline(always)]
    pub fn reg(&self, r: Reg) -> u32 {
        self.arch.reg(r)
    }

    /// The register file (for post-run comparison).
    pub fn regs(&self) -> &[u32; 32] {
        &self.arch.regs
    }

    /// The data memory (for post-run inspection).
    pub fn mem(&self) -> &Mem {
        &self.arch.mem
    }

    #[inline(always)]
    fn check_load_delay(&self, pc: usize, op: &Op) -> Result<(), SimError> {
        if op.use_mask & self.pending_load != 0 {
            return Err(SimError::LoadDelayViolation {
                pc,
                reg: Reg::from_index(self.pending_load.trailing_zeros() as usize),
            });
        }
        Ok(())
    }

    /// Execute one non-control micro-op, recording its cycles.
    #[inline(always)]
    fn exec_simple<O: Observer>(
        &mut self,
        pc: usize,
        op: &Op,
        obs: &mut O,
    ) -> Result<Flow, SimError> {
        self.check_load_delay(pc, op)?;
        let done = self.arch.exec::<O>(pc, op)?;
        if let Flow::Trap { target } = done.flow {
            // Nothing commits; the trap penalty is charged to the op's
            // annotation (a generic-arithmetic trap to dispatch work).
            let annot = if matches!(op.kind, OpKind::GenArith { .. }) {
                GEN_TRAP_ANNOT
            } else {
                op.annot
            };
            self.stats.record_trap(annot, self.decoded.trap_penalty);
            self.pending_load = 0;
            if O::ENABLED {
                let ev = Retirement {
                    pc,
                    insn: self.prog.insns[pc],
                    write: None,
                    mem: None,
                    trap: Some(target),
                };
                report(obs, &ev, annot, self.stats.cycles)?;
            }
            return Ok(done.flow);
        }
        self.stats.cycles += u64::from(op.cost);
        self.counts[pc] += 1;
        self.pending_load = done.pending;
        if O::ENABLED {
            let ev = self.arch.retirement(pc, self.prog.insns[pc], done.mem);
            report(obs, &ev, op.annot, self.stats.cycles)?;
        }
        Ok(done.flow)
    }

    /// Execute the `len` straight ops from `start` (costing `cost` cycles) as
    /// one step: one load-delay check at the first op, each op through
    /// [`Arch::exec`], one cycle add, and the hazard of the last op. The
    /// caller counts the run. Observers still see every retirement, stamped
    /// with its own cycle.
    #[inline(always)]
    fn exec_run<O: Observer>(
        &mut self,
        start: usize,
        len: usize,
        cost: u64,
        obs: &mut O,
    ) -> Result<(), SimError> {
        let ops = &self.decoded.ops[start..start + len];
        self.check_load_delay(start, &ops[0])?;
        let mut pending = 0;
        for (pc, op) in (start..).zip(ops) {
            let done = self.arch.exec::<O>(pc, op)?;
            debug_assert!(
                matches!(done.flow, Flow::Next),
                "runs hold straight ops only"
            );
            pending = done.pending;
            if O::ENABLED {
                self.stats.cycles += u64::from(op.cost);
                let ev = self.arch.retirement(pc, self.prog.insns[pc], done.mem);
                report(obs, &ev, op.annot, self.stats.cycles)?;
            }
        }
        if !O::ENABLED {
            self.stats.cycles += cost;
        }
        self.pending_load = pending;
        Ok(())
    }

    /// Execute one delay-slot micro-op (must not be a control transfer).
    #[inline(always)]
    fn exec_slot<O: Observer>(&mut self, pc: usize, obs: &mut O) -> Result<Flow, SimError> {
        let op = *self
            .decoded
            .ops
            .get(pc)
            .ok_or(SimError::PcOutOfRange { pc })?;
        if op.kind.is_control() {
            return Err(SimError::ControlInSlot { pc });
        }
        self.exec_simple(pc, &op, obs)
    }

    /// Committed executions per pc, in pc order: the per-op counts plus
    /// every whole-run execution that covers the pc, in one pass. Straight
    /// runs are suffix-linked: a straight op's run reaches exactly as far as
    /// the run of the op after it, unless it is one op long. So every run
    /// heading a pc of one maximal chain of straight ops ends where the
    /// chain does, and one running sum, reset at each chain's first op,
    /// holds the chain's runs. A control op's run is its delay slots, one pc
    /// on; it covers straight ops only, so at most one is live at a time.
    fn commit_counts(&self) -> impl Iterator<Item = u64> + '_ {
        // (executions, end) of the current chain and of the last slot run.
        let mut chain = (0u64, 0usize);
        let mut slots = (0u64, 0usize);
        let ops = self
            .decoded
            .ops
            .iter()
            .zip(&self.counts)
            .zip(&self.run_counts);
        ops.enumerate().map(move |(pc, ((op, &own), &runs))| {
            if op.kind.is_control() {
                slots = (runs, pc + 1 + op.run as usize);
                return own;
            }
            if op.run == 0 {
                return own;
            }
            if pc >= chain.1 {
                chain = (0, pc + op.run as usize);
            }
            chain.0 += runs;
            let in_slots = if pc < slots.1 { slots.0 } else { 0 };
            own + chain.0 + in_slots
        })
    }

    fn outcome(&mut self, code: i32) -> Outcome {
        let stats = fold_counts(
            (*self.stats).clone(),
            &self.decoded.ops,
            self.commit_counts(),
            &self.squash_counts,
        );
        Outcome {
            halt_code: code,
            output: std::mem::take(&mut self.arch.output),
            stats,
        }
    }
}

impl Executor for FastCpu<'_> {
    fn run_observed<O: Observer>(
        &mut self,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<Outcome, SimError> {
        loop {
            if self.stats.cycles >= max_cycles {
                return Err(SimError::OutOfFuel {
                    cycles: self.stats.cycles,
                });
            }
            let pc = self.pc;
            let op = *self
                .decoded
                .ops
                .get(pc)
                .ok_or(SimError::PcOutOfRange { pc })?;
            if !op.kind.is_control() {
                // A whole run in one step, unless the fuel check could fire
                // inside it.
                let cost = u64::from(op.run_cost);
                if op.run > 0 && cost < max_cycles - self.stats.cycles {
                    self.exec_run(pc, op.run as usize, cost, obs)?;
                    self.run_counts[pc] += 1;
                    self.pc = pc + op.run as usize;
                    continue;
                }
                match self.exec_simple(pc, &op, obs)? {
                    Flow::Next => self.pc = pc + 1,
                    Flow::Halt(code) => return Ok(self.outcome(code)),
                    Flow::Trap { target } => self.pc = target,
                }
                continue;
            }

            // Control transfer. Charge the branch/jump cycle itself
            // (control ops always decode with cost 1).
            self.check_load_delay(pc, &op)?;
            self.stats.cycles += 1;
            self.counts[pc] += 1;
            self.pending_load = 0;

            let (taken, target, squash, slots, link): (bool, usize, bool, usize, Option<Reg>) =
                match op.kind {
                    OpKind::CondBr {
                        cond,
                        target,
                        squash,
                    } => {
                        let t = match cond {
                            BrCond::RegReg(c, rs, rt) => c.eval(self.reg(rs), self.reg(rt)),
                            BrCond::RegImm(c, rs, imm) => c.eval(self.reg(rs), imm),
                            BrCond::Tag {
                                rs,
                                field,
                                value,
                                neq,
                            } => {
                                let eq = field.extract(self.reg(rs)) == value;
                                if neq {
                                    !eq
                                } else {
                                    eq
                                }
                            }
                        };
                        (t, target as usize, squash, 2, None)
                    }
                    OpKind::Jump { target, link } => (true, target as usize, false, 1, link),
                    OpKind::JumpReg { r, link } => (true, self.reg(r) as usize, false, 1, link),
                    _ => unreachable!(),
                };

            if let Some(link) = link {
                self.arch.set_reg(link, (pc + 1 + slots) as u32);
            }

            if O::ENABLED {
                let ev = self.arch.retirement(pc, self.prog.insns[pc], None);
                report(obs, &ev, op.annot, self.stats.cycles)?;
            }

            if !taken && squash {
                // Squashed: each slot's cycle is wasted, attributed to the
                // branch.
                for spc in pc + 1..=pc + slots {
                    self.stats.cycles += 1;
                    self.squash_counts[pc] += 1;
                    if O::ENABLED {
                        obs.squash(spc, op.annot, self.stats.cycles);
                    }
                }
            } else if op.run > 0 {
                // The slots form a run: one step, counted at the branch.
                // Unobserved, an all-`nop` group is only its cycles.
                if O::ENABLED || !op.nop_slots {
                    self.exec_run(pc + 1, slots, u64::from(op.run_cost), obs)?;
                } else {
                    self.stats.cycles += u64::from(op.run_cost);
                }
                self.run_counts[pc] += 1;
            } else {
                for spc in pc + 1..=pc + slots {
                    match self.exec_slot(spc, obs)? {
                        Flow::Next => {}
                        Flow::Halt(code) => return Ok(self.outcome(code)),
                        Flow::Trap { .. } => {
                            // Checked instructions are never placed in delay
                            // slots by the code generator (verify.rs enforces
                            // it).
                            return Err(SimError::ControlInSlot { pc: spc });
                        }
                    }
                }
            }

            self.pc = if taken { target } else { pc + 1 + slots };
        }
    }

    fn regs(&self) -> &[u32; 32] {
        &self.arch.regs
    }

    fn mem(&self) -> &Mem {
        &self.arch.mem
    }
}

impl Executor for RefCpu<'_> {
    /// Drive [`RefCpu::step`] to completion, rebuilding the cycle accounting
    /// from the retirement stream (it is purely architectural: retirement
    /// class/annotation plus the hardware's fixed costs determine every
    /// counter; see [`RefCpu::charge`]). Produces the same `Outcome` and
    /// event stream as [`FastCpu`], with two caveats: the reference
    /// interpreter does not enforce the load-delay rule, and on error paths
    /// the event stream may end slightly earlier than [`FastCpu`]'s.
    fn run_observed<O: Observer>(
        &mut self,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<Outcome, SimError> {
        let mut stats = Stats::default();
        loop {
            // The pipelined loop checks fuel only between instruction groups
            // (never inside a branch's delay slots, never after `halt`);
            // mirror that.
            if !self.in_delay_slot() && self.halt_code().is_none() && stats.cycles >= max_cycles {
                return Err(SimError::OutOfFuel {
                    cycles: stats.cycles,
                });
            }
            let ev = match self.step()? {
                Some(ev) => ev,
                None => {
                    return Ok(Outcome {
                        halt_code: self.halt_code().expect("step returned None, so halted"),
                        output: self.take_output(),
                        stats,
                    })
                }
            };
            let (annot, cost) = self.charge(&ev);
            if ev.trap.is_some() {
                stats.record_trap(annot, cost);
                if O::ENABLED && obs.retire(&ev, annot, stats.cycles).is_break() {
                    return Err(SimError::Stopped {
                        cycles: stats.cycles,
                    });
                }
                continue;
            }
            stats.record(InsnClass::of(ev.insn), annot, cost);
            if O::ENABLED && obs.retire(&ev, annot, stats.cycles).is_break() {
                return Err(SimError::Stopped {
                    cycles: stats.cycles,
                });
            }
            if let Some((first_slot, nslots)) = self.take_squashed() {
                for s in 0..nslots {
                    stats.record_squashed(annot);
                    if O::ENABLED {
                        obs.squash(first_slot + s, annot, stats.cycles);
                    }
                }
            }
        }
    }

    fn regs(&self) -> &[u32; 32] {
        RefCpu::regs(self)
    }

    fn mem(&self) -> &Mem {
        RefCpu::mem(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::trace::TraceBuffer;

    fn demo_program() -> Program {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let target = asm.new_label();
        asm.li(Reg::A0, 40);
        asm.li(Reg::A1, 2);
        asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A1));
        asm.st(Reg::A0, Reg::Sp, 8);
        asm.ld(Reg::A2, Reg::Sp, 8);
        asm.nop();
        asm.bri(crate::insn::Cond::Gt, Reg::A2, 0, target);
        asm.halt(Reg::Zero);
        asm.bind(target);
        asm.write(Reg::A2, WriteKind::Int);
        asm.halt(Reg::A2);
        asm.finish().expect("assembles")
    }

    /// Run `prog` on `backend` with 64 KiB of memory.
    fn run_on(
        backend: Backend,
        prog: &Program,
        hw: HwConfig,
        fuel: u64,
    ) -> Result<Outcome, SimError> {
        backend.executor(prog, hw, 1 << 16)?.run(fuel)
    }

    /// Run `prog` on both backends with `fuel`, assert they agree on the
    /// whole result (the `Outcome`, or the error), and return FastCpu's.
    fn agree(prog: &Program, hw: HwConfig, fuel: u64) -> Result<Outcome, SimError> {
        let fast = run_on(Backend::Fast, prog, hw, fuel);
        let reference = run_on(Backend::Ref, prog, hw, fuel);
        match (&fast, &reference) {
            (Ok(f), Ok(r)) => {
                assert_eq!(f.halt_code, r.halt_code, "halt code at fuel {fuel}");
                assert_eq!(f.output, r.output, "output at fuel {fuel}");
                assert_eq!(f.stats, r.stats, "statistics at fuel {fuel}");
            }
            (f, r) => assert_eq!(f.as_ref().err(), r.as_ref().err(), "error at fuel {fuel}"),
        }
        fast
    }

    /// Run `prog` on both backends, assert they agree on the whole
    /// [`Outcome`], and return it.
    fn run_prog(prog: &Program, hw: HwConfig) -> Outcome {
        agree(prog, hw, 1_000_000).expect("both backends run")
    }

    fn run(asm: Asm, hw: HwConfig) -> Outcome {
        run_prog(&asm.finish().expect("assembles"), hw)
    }

    /// The error `prog` stops with on `backend`.
    fn run_err(backend: Backend, prog: &Program, hw: HwConfig, fuel: u64) -> SimError {
        run_on(backend, prog, hw, fuel).expect_err("the run must fail")
    }

    fn entry(asm: &mut Asm) {
        let e = asm.here("entry");
        asm.set_entry(e);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in ALL_BACKENDS {
            assert_eq!(Backend::parse(b.name()), Ok(b));
            assert_eq!(Backend::parse(&b.name().to_uppercase()), Ok(b));
        }
        assert!(Backend::parse("turbo").is_err());
        assert_eq!(
            Backend::parse("classic"),
            Err("unknown backend \"classic\" (want fast or ref)".to_string())
        );
        assert_eq!(Backend::default(), Backend::Fast);
        assert_eq!(Backend::Fast.to_string(), "fast");
    }

    #[test]
    fn all_backends_agree_on_a_demo_program() {
        let o = run_prog(&demo_program(), HwConfig::plain());
        assert_eq!(o.halt_code, 42);
        assert_eq!(o.output, "42");
    }

    #[test]
    fn fast_and_ref_event_streams_match() {
        let prog = demo_program();
        let hw = HwConfig::plain();
        let trace = |backend: Backend| {
            let mut buf = TraceBuffer::default();
            let mut ex = backend.executor(&prog, hw, 1 << 16).unwrap();
            ex.run_observed(100_000, &mut buf).unwrap();
            (buf.records, buf.annotations, buf.squashes)
        };
        assert_eq!(trace(Backend::Fast), trace(Backend::Ref));
    }

    /// `FastCpu` only: `RefCpu` reports absent hardware when the instruction
    /// executes, not at construction.
    #[test]
    fn missing_hardware_is_a_predecode_error() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        // The tag branch is unreachable, but predecode rejects it anyway.
        asm.halt(Reg::Zero);
        asm.emit(Insn::TagBr {
            rs: Reg::A0,
            field: TagField {
                shift: 27,
                mask: 0x1F,
            },
            value: 0,
            neq: false,
            target: e.id(),
            squash: false,
        });
        asm.nop();
        asm.nop();
        let prog = asm.finish().unwrap();
        let err = DecodedProgram::decode(&prog, HwConfig::plain()).unwrap_err();
        assert_eq!(
            err,
            SimError::MissingHardware {
                pc: 1,
                feature: "tag branch"
            }
        );
        // With the hardware present, predecode succeeds and the program runs.
        let decoded = DecodedProgram::decode(&prog, HwConfig::with_tag_branch()).unwrap();
        assert_eq!(decoded.len(), prog.len());
        assert!(!decoded.is_empty());
        let o = FastCpu::new(&prog, HwConfig::with_tag_branch(), 1 << 16)
            .unwrap()
            .run(1000)
            .unwrap();
        assert_eq!(o.halt_code, 0);
    }

    // ISA semantics. Each test runs on both backends (`run` asserts they
    // agree), except behaviour `RefCpu` documents it does not model.

    #[test]
    fn arithmetic_and_halt() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::A0, 40);
        asm.li(Reg::A1, 2);
        asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A1));
        asm.halt(Reg::A0);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, 42);
        assert_eq!(o.stats.cycles, 4);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::Zero, 7);
        asm.emit(Insn::Add(Reg::A0, Reg::Zero, Reg::Zero));
        asm.halt(Reg::A0);
        assert_eq!(run(asm, HwConfig::plain()).halt_code, 0);
    }

    #[test]
    fn taken_branch_executes_slots_and_jumps() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let target = asm.new_label();
        asm.li(Reg::A0, 1);
        asm.beq(Reg::A0, Reg::A0, target); // always taken; 2 nop slots
        asm.li(Reg::A0, 99); // skipped
        asm.bind(target);
        asm.halt(Reg::A0);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, 1);
        // li + br + 2 slots + halt
        assert_eq!(o.stats.cycles, 5);
    }

    #[test]
    fn squashing_branch_cancels_slots_when_not_taken() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let target = asm.new_label();
        asm.li(Reg::A0, 1);
        asm.br_raw(Cond::Eq, Reg::A0, Reg::Zero, target, true); // not taken, squash
        asm.li(Reg::A0, 50); // slot 1: squashed
        asm.li(Reg::A0, 60); // slot 2: squashed
        asm.halt(Reg::A0);
        asm.bind(target);
        asm.halt(Reg::Zero);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, 1, "squashed writes must not commit");
        assert_eq!(o.stats.squashed, 2);
    }

    #[test]
    fn non_squashing_branch_commits_slots_when_not_taken() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let target = asm.new_label();
        asm.li(Reg::A0, 1);
        asm.br_raw(Cond::Eq, Reg::A0, Reg::Zero, target, false); // not taken
        asm.li(Reg::A1, 50); // slot 1: commits
        asm.nop(); // slot 2
        asm.halt(Reg::A1);
        asm.bind(target);
        asm.halt(Reg::Zero);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, 50);
        assert_eq!(o.stats.squashed, 0);
    }

    #[test]
    fn call_and_return() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let f = asm.new_label();
        asm.jal(f, Reg::Link);
        asm.halt(Reg::A0);
        asm.bind(f);
        asm.li(Reg::A0, 7);
        asm.jr(Reg::Link);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, 7);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::T0, 0x100);
        asm.li(Reg::T1, 1234);
        asm.st(Reg::T1, Reg::T0, 8);
        asm.ld(Reg::A0, Reg::T0, 8);
        asm.nop(); // load delay
        asm.halt(Reg::A0);
        assert_eq!(run(asm, HwConfig::plain()).halt_code, 1234);
    }

    /// `FastCpu` only: `RefCpu` does not enforce the load-delay rule.
    #[test]
    fn load_delay_violation_detected() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::T0, 0x100);
        asm.ld(Reg::A0, Reg::T0, 0);
        asm.emit(Insn::Add(Reg::A1, Reg::A0, Reg::Zero)); // reads A0 too early
        asm.halt(Reg::A1);
        let prog = asm.finish().unwrap();
        let err = run_err(Backend::Fast, &prog, HwConfig::plain(), 1000);
        assert!(matches!(
            err,
            SimError::LoadDelayViolation { reg: Reg::A0, .. }
        ));
    }

    #[test]
    fn address_drop_masks_high_bits() {
        let mut asm = Asm::new();
        entry(&mut asm);
        // Address with a 5-bit "tag" in the top bits.
        asm.li(Reg::T0, (0b01011u32 << 27) as i32 | 0x40);
        asm.li(Reg::T1, 77);
        asm.st(Reg::T1, Reg::T0, 0);
        asm.ld(Reg::A0, Reg::T0, 0);
        asm.nop();
        asm.halt(Reg::A0);
        let o = run(asm, HwConfig::with_address_drop(5));
        assert_eq!(o.halt_code, 77);
    }

    #[test]
    fn tagged_address_without_drop_faults() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::T0, (0b01011u32 << 27) as i32 | 0x40);
        asm.st(Reg::T0, Reg::T0, 0);
        asm.halt(Reg::Zero);
        let prog = asm.finish().unwrap();
        for backend in ALL_BACKENDS {
            let err = run_err(backend, &prog, HwConfig::plain(), 1000);
            assert!(matches!(err, SimError::MemFault { .. }), "{backend}: {err}");
        }
    }

    #[test]
    fn tag_branch_requires_hardware() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let t = asm.new_label();
        asm.emit(Insn::TagBr {
            rs: Reg::A0,
            field: TagField {
                shift: 27,
                mask: 0x1F,
            },
            value: 0,
            neq: false,
            target: t.0,
            squash: false,
        });
        asm.nop();
        asm.nop();
        asm.bind(t);
        asm.halt(Reg::Zero);
        let prog = asm.finish().unwrap();
        for backend in ALL_BACKENDS {
            let err = run_err(backend, &prog, HwConfig::plain(), 1000);
            assert!(
                matches!(
                    err,
                    SimError::MissingHardware {
                        feature: "tag branch",
                        ..
                    }
                ),
                "{backend}: {err}"
            );
        }
        let ok = run_prog(&prog, HwConfig::with_tag_branch());
        assert_eq!(ok.halt_code, 0);
    }

    #[test]
    fn tag_branch_compares_field() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let is_pair = asm.new_label();
        // tag 1 (pair) in top 5 bits
        asm.li(Reg::A0, (1u32 << 27) as i32 | 0x123);
        asm.emit(Insn::TagBr {
            rs: Reg::A0,
            field: TagField {
                shift: 27,
                mask: 0x1F,
            },
            value: 1,
            neq: false,
            target: is_pair.0,
            squash: false,
        });
        asm.nop();
        asm.nop();
        asm.halt(Reg::Zero); // not reached
        asm.bind(is_pair);
        asm.li(Reg::A1, 1);
        asm.halt(Reg::A1);
        let o = run(asm, HwConfig::with_tag_branch());
        assert_eq!(o.halt_code, 1);
    }

    #[test]
    fn checked_load_passes_and_traps() {
        let field = TagField {
            shift: 27,
            mask: 0x1F,
        };
        let mk = |tag: u32| -> i32 { ((tag << 27) | 0x80) as i32 };
        let build = |tag: u32| {
            let mut asm = Asm::new();
            entry(&mut asm);
            let fail = asm.new_label();
            asm.li(Reg::T0, mk(tag));
            asm.li(Reg::T1, 55);
            asm.st(Reg::T1, Reg::T0, 0); // plain store faults on tagged addr...
            asm.emit(Insn::LdChk {
                rd: Reg::A0,
                base: Reg::T0,
                disp: 0,
                field,
                expect: 1,
                on_fail: fail.0,
            });
            asm.nop();
            asm.halt(Reg::A0);
            asm.bind(fail);
            asm.li(Reg::A0, -1);
            asm.halt(Reg::A0);
            asm.finish().unwrap()
        };
        // Use address-drop hardware so the plain store works through a tagged ptr.
        let hw = HwConfig {
            parallel_check: ParallelCheck::All,
            drop_high_address_bits: 5,
            ..HwConfig::plain()
        };
        let o = run_prog(&build(1), hw);
        assert_eq!(o.halt_code, 55, "matching tag loads normally");
        assert_eq!(o.stats.traps, 0);
        let o = run_prog(&build(3), hw);
        assert_eq!(o.halt_code, -1, "mismatch traps to on_fail");
        assert_eq!(o.stats.traps, 1);
        assert_eq!(o.stats.trap_cycles, u64::from(hw.trap_penalty));
    }

    #[test]
    fn generic_add_fast_path_and_trap() {
        let test = IntTest::SignExt(27);
        let build = |a: i32, b: i32| {
            let mut asm = Asm::new();
            entry(&mut asm);
            let fail = asm.new_label();
            asm.li(Reg::A0, a);
            asm.li(Reg::A1, b);
            asm.emit(Insn::AddG {
                rd: Reg::A2,
                rs: Reg::A0,
                rt: Reg::A1,
                int_test: test,
                on_fail: fail.0,
            });
            asm.halt(Reg::A2);
            asm.bind(fail);
            asm.li(Reg::A2, -999);
            asm.halt(Reg::A2);
            asm.finish().unwrap()
        };
        let hw = HwConfig::with_generic_arith();
        assert_eq!(run_prog(&build(20, 22), hw).halt_code, 42);
        // Overflow of the 27-bit fixnum range traps.
        assert_eq!(run_prog(&build((1 << 26) - 1, 1), hw).halt_code, -999);
        // Non-integer operand traps.
        assert_eq!(run_prog(&build((3u32 << 27) as i32, 1), hw).halt_code, -999);
    }

    #[test]
    fn write_output() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::A0, 'h' as i32);
        asm.write(Reg::A0, WriteKind::Char);
        asm.li(Reg::A0, -42);
        asm.write(Reg::A0, WriteKind::Int);
        asm.halt(Reg::Zero);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.output, "h-42");
    }

    #[test]
    fn out_of_fuel() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let l = asm.here("loop");
        asm.j(l);
        let prog = asm.finish().unwrap();
        for backend in ALL_BACKENDS {
            let err = run_err(backend, &prog, HwConfig::plain(), 100);
            assert!(
                matches!(err, SimError::OutOfFuel { .. }),
                "{backend}: {err}"
            );
        }
    }

    #[test]
    fn mul_div_cost_and_semantics() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::A0, -6);
        asm.li(Reg::A1, 7);
        asm.emit(Insn::Mul(Reg::A2, Reg::A0, Reg::A1));
        asm.halt(Reg::A2);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, -42);
        assert_eq!(
            o.stats.cycles,
            2 + u64::from(HwConfig::plain().mul_cycles) + 1
        );
        // division by zero yields 0 (runtime checks divisors itself)
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::A0, 5);
        asm.emit(Insn::Div(Reg::A2, Reg::A0, Reg::Zero));
        asm.halt(Reg::A2);
        assert_eq!(run(asm, HwConfig::plain()).halt_code, 0);
    }

    #[test]
    fn control_in_slot_is_an_error() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let t = asm.new_label();
        asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, t, false);
        asm.emit(Insn::J(t.0)); // illegal: control in slot
        asm.nop();
        asm.bind(t);
        asm.halt(Reg::Zero);
        let prog = asm.finish().unwrap();
        for backend in ALL_BACKENDS {
            let err = run_err(backend, &prog, HwConfig::plain(), 1000);
            assert!(
                matches!(err, SimError::ControlInSlot { .. }),
                "{backend}: {err}"
            );
        }
    }

    #[test]
    fn bri_compares_against_immediate() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let hit = asm.new_label();
        asm.li(Reg::A0, -3);
        asm.bri(Cond::Lt, Reg::A0, 0, hit); // signed comparison with immediate
        asm.halt(Reg::Zero);
        asm.bind(hit);
        asm.li(Reg::A1, 1);
        asm.halt(Reg::A1);
        assert_eq!(run(asm, HwConfig::plain()).halt_code, 1);
    }

    #[test]
    fn fop_semantics_and_cost() {
        let hw = HwConfig::plain();
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::A0, 2.5f32.to_bits() as i32);
        asm.li(Reg::A1, 0.5f32.to_bits() as i32);
        asm.emit(Insn::Fop(FpOp::Mul, Reg::A2, Reg::A0, Reg::A1));
        asm.emit(Insn::Fop(FpOp::Lt, Reg::A3, Reg::A1, Reg::A2));
        asm.halt(Reg::A3);
        let o = run(asm, hw);
        assert_eq!(o.halt_code, 1, "0.5 < 1.25");
        assert_eq!(o.stats.cycles, 2 + 2 * u64::from(hw.fp_cycles) + 1);
        // integer conversion
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::A0, -7);
        asm.emit(Insn::Fop(FpOp::FromInt, Reg::A1, Reg::A0, Reg::Zero));
        asm.halt(Reg::A1);
        let o = run(asm, hw);
        assert_eq!(f32::from_bits(o.halt_code as u32), -7.0);
    }

    #[test]
    fn checked_store_traps_on_mismatch() {
        let field = TagField {
            shift: 27,
            mask: 0x1F,
        };
        let hw = HwConfig {
            parallel_check: ParallelCheck::All,
            ..HwConfig::plain()
        };
        let mut asm = Asm::new();
        entry(&mut asm);
        let fail = asm.new_label();
        asm.li(Reg::T0, ((3u32 << 27) | 0x80) as i32); // wrong tag
        asm.li(Reg::T1, 9);
        asm.emit(Insn::StChk {
            src: Reg::T1,
            base: Reg::T0,
            disp: 0,
            field,
            expect: 1,
            on_fail: fail.0,
        });
        asm.halt(Reg::Zero);
        asm.bind(fail);
        asm.li(Reg::A0, -7);
        asm.halt(Reg::A0);
        let o = run(asm, hw);
        assert_eq!(o.halt_code, -7);
        assert_eq!(o.stats.traps, 1);
    }

    /// Regression: a `Program` whose `annots` is shorter than `insns` used to
    /// be accepted, with missing entries silently read as `Annot::NONE` —
    /// misattributing every affected cycle. Construction now rejects it.
    #[test]
    fn mismatched_annots_are_rejected_at_construction() {
        let prog = Program {
            insns: vec![Insn::Nop, Insn::Halt(Reg::Zero)],
            annots: vec![Annot::NONE], // one short
            ..Program::default()
        };
        for backend in ALL_BACKENDS {
            let panic = std::panic::catch_unwind(|| {
                let _ = backend.executor(&prog, HwConfig::plain(), 1 << 12);
            })
            .expect_err("construction must panic");
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("annots must parallel insns"),
                "{backend}: {msg}"
            );
        }
    }

    #[test]
    fn jal_links_past_slot() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let f = asm.new_label();
        asm.jal(f, Reg::Link); // emits jal + 1 slot nop
        asm.li(Reg::A1, 5); // return lands here
        asm.halt(Reg::A1);
        asm.bind(f);
        asm.jr(Reg::Link);
        let o = run(asm, HwConfig::plain());
        assert_eq!(o.halt_code, 5);
    }

    // Boundaries of whole-run dispatch. FastCpu executes a straight-line run
    // (or a branch's delay slots) as one step; each test pins a case where
    // that step must stop, fall back to the per-op path, or be entered
    // mid-way, and checks FastCpu against RefCpu.

    /// FastCpu's committed executions per pc after running `prog` to halt,
    /// next to RefCpu's, counted from its retirement stream.
    fn per_pc_counts(prog: &Program, hw: HwConfig) -> (Vec<u64>, Vec<u64>) {
        let mut fast = FastCpu::new(prog, hw, 1 << 16).unwrap();
        fast.run(1_000_000).expect("fast runs");
        let mut buf = TraceBuffer::default();
        RefCpu::new(prog, hw, 1 << 16)
            .run_observed(1_000_000, &mut buf)
            .expect("ref runs");
        let mut reference = vec![0; prog.len()];
        for r in buf.records.iter().filter(|r| r.trap.is_none()) {
            reference[r.pc] += 1;
        }
        (fast.commit_counts().collect(), reference)
    }

    /// `(run, run_cost)` of every op, as predecode linked them.
    fn runs(prog: &Program, hw: HwConfig) -> Vec<(u16, u32)> {
        let decoded = DecodedProgram::decode(prog, hw).unwrap();
        decoded.ops.iter().map(|o| (o.run, o.run_cost)).collect()
    }

    /// A three-trip loop whose body is one run holding a multiply (so op
    /// costs differ), closed by a branch whose two nop slots form a run.
    fn costed_loop() -> Program {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::T0, 3);
        let top = asm.here("top");
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
        asm.emit(Insn::Mul(Reg::A1, Reg::A0, Reg::A0));
        asm.emit(Insn::Add(Reg::A2, Reg::A2, Reg::A1));
        asm.emit(Insn::Addi(Reg::T0, Reg::T0, -1));
        asm.bri(Cond::Gt, Reg::T0, 0, top);
        asm.halt(Reg::A2);
        asm.finish().unwrap()
    }

    #[test]
    fn fuel_ending_inside_or_at_the_end_of_a_run_matches_ref() {
        let prog = costed_loop();
        let hw = HwConfig::plain();
        let mul = u64::from(hw.mul_cycles);
        let body = 3 + mul;
        let table = runs(&prog, hw);
        assert_eq!(table[1], (4, 3 + hw.mul_cycles), "the loop body is one run");
        let total = agree(&prog, hw, 1_000_000).unwrap().stats.cycles;
        assert_eq!(total, 1 + 3 * (body + 3) + 1);
        // Every budget up to past the end: each one expires at a different
        // op, inside a run, at a run's last op, or in a branch's slots.
        // A budget that ends with the `halt` itself still halts.
        for fuel in 1..=total + 1 {
            match agree(&prog, hw, fuel) {
                Err(SimError::OutOfFuel { cycles }) => assert!(cycles >= fuel && fuel < total),
                Err(e) => panic!("fuel {fuel}: {e}"),
                Ok(o) => assert!(o.stats.cycles == total && fuel >= total),
            }
        }
        // The budget covers the first run of the body up to, not including,
        // its last op: the check before that op fires.
        let before_last = 1 + 1 + mul + 1;
        assert_eq!(
            agree(&prog, hw, before_last).unwrap_err(),
            SimError::OutOfFuel {
                cycles: before_last
            }
        );
        // The budget ends exactly with the run: the check after it fires.
        assert_eq!(
            agree(&prog, hw, 1 + body).unwrap_err(),
            SimError::OutOfFuel { cycles: 1 + body }
        );
    }

    /// `FastCpu` only: `RefCpu` does not enforce the load-delay rule.
    #[test]
    fn load_ending_a_run_is_checked_at_the_next_runs_first_op() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::T0, 0x100);
        asm.ld(Reg::A0, Reg::T0, 0);
        asm.emit(Insn::Add(Reg::A1, Reg::A0, Reg::Zero)); // reads A0 too early
        asm.emit(Insn::Add(Reg::A1, Reg::A1, Reg::A1));
        asm.halt(Reg::A1);
        let prog = asm.finish().unwrap();
        let hw = HwConfig::plain();
        let table = runs(&prog, hw);
        assert_eq!(table[0].0, 2, "li + ld: the run stops at the load");
        assert_eq!(table[2].0, 2, "the reader heads the next run");
        assert_eq!(
            run_err(Backend::Fast, &prog, hw, 1000),
            SimError::LoadDelayViolation {
                pc: 2,
                reg: Reg::A0
            }
        );
    }

    #[test]
    fn jumps_into_a_run_and_onto_a_delay_slot_count_every_pc() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let mid = asm.new_label();
        let slot = asm.new_label();
        asm.li(Reg::T0, 2); // 0
        asm.emit(Insn::J(mid.0)); // 1
        asm.bind(slot);
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, 100)); // 2: the jump's slot
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1)); // 3
        asm.bind(mid);
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, 2)); // 4: mid-run target
        asm.emit(Insn::Addi(Reg::T0, Reg::T0, -1)); // 5
        asm.bri(Cond::Gt, Reg::T0, 0, slot); // 6, slots 7-8: back onto pc 2
        asm.halt(Reg::A0); // 9
        let prog = asm.finish().unwrap();
        let hw = HwConfig::plain();
        let table: Vec<u16> = runs(&prog, hw).iter().map(|r| r.0).collect();
        assert_eq!(table, [1, 1, 4, 3, 2, 1, 2, 2, 1, 0]);
        let o = agree(&prog, hw, 1_000_000).unwrap();
        assert_eq!(o.halt_code, 100 + 2 + 100 + 1 + 2);
        let (fast, reference) = per_pc_counts(&prog, hw);
        assert_eq!(fast, reference);
        assert_eq!(fast, [1, 1, 2, 1, 2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn halt_in_a_delay_slot_group_matches_ref() {
        for first in [true, false] {
            let mut asm = Asm::new();
            entry(&mut asm);
            let t = asm.new_label();
            asm.li(Reg::A0, 7);
            asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, t, false); // taken
            if first {
                asm.halt(Reg::A0);
                asm.nop();
            } else {
                asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
                asm.halt(Reg::A0);
            }
            asm.bind(t);
            asm.halt(Reg::Zero);
            let prog = asm.finish().unwrap();
            let hw = HwConfig::plain();
            assert_eq!(runs(&prog, hw)[1].0, 0, "a halt keeps the slots per-op");
            let o = agree(&prog, hw, 1000).unwrap();
            assert_eq!(o.halt_code, if first { 7 } else { 8 });
            let (fast, reference) = per_pc_counts(&prog, hw);
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn mem_fault_in_the_middle_of_a_run_matches_ref() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.li(Reg::T0, 0x100);
        asm.li(Reg::A0, 5);
        asm.st(Reg::A0, Reg::T0, 0);
        asm.li(Reg::T1, -8); // far outside the 64 KiB memory
        asm.st(Reg::A0, Reg::T1, 0); // pc 4 faults
        asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
        asm.halt(Reg::A0);
        let prog = asm.finish().unwrap();
        let hw = HwConfig::plain();
        assert_eq!(runs(&prog, hw)[0].0, 6, "the fault sits inside one run");
        assert_eq!(
            agree(&prog, hw, 1000).unwrap_err(),
            (SimError::MemFault {
                addr: -8i32 as u32,
                pc: 4
            })
        );
    }

    // All-`nop` delay-slot groups. Unobserved, FastCpu charges such a group
    // without executing it; each test checks the mark and holds the result,
    // the per-pc counts and every fuel budget to RefCpu.

    /// `nop_slots` of every op, as predecode marked them.
    fn marks(prog: &Program, hw: HwConfig) -> Vec<bool> {
        let decoded = DecodedProgram::decode(prog, hw).unwrap();
        decoded.ops.iter().map(|o| o.nop_slots).collect()
    }

    /// Assert both backends agree on `prog` under every fuel budget up to
    /// past its end, and on the per-pc counts; return the full run.
    fn agree_at_every_fuel(prog: &Program, hw: HwConfig) -> Outcome {
        let full = agree(prog, hw, 1_000_000).unwrap();
        for fuel in 1..=full.stats.cycles + 1 {
            let _ = agree(prog, hw, fuel);
        }
        let (fast, reference) = per_pc_counts(prog, hw);
        assert_eq!(fast, reference);
        full
    }

    #[test]
    fn all_nop_slots_after_conditional_branches_match_ref() {
        let field = TagField {
            shift: 27,
            mask: 0x1F,
        };
        let hw = HwConfig::with_tag_branch();
        for squash in [false, true] {
            for kind in 0..3 {
                // Three trips: the branch is taken twice, then falls
                // through, its slots squashed or committed.
                let mut asm = Asm::new();
                entry(&mut asm);
                asm.li(Reg::T0, 3); // 0
                let top = asm.here("top");
                asm.emit(Insn::Addi(Reg::T0, Reg::T0, -1)); // 1
                asm.emit(Insn::Sll(Reg::T1, Reg::T0, 27)); // 2
                let target = top.0;
                asm.emit(match kind {
                    0 => Insn::Br {
                        cond: Cond::Ne,
                        rs: Reg::T0,
                        rt: Reg::Zero,
                        target,
                        squash,
                    },
                    1 => Insn::Bri {
                        cond: Cond::Gt,
                        rs: Reg::T0,
                        imm: 0,
                        target,
                        squash,
                    },
                    _ => Insn::TagBr {
                        rs: Reg::T1,
                        field,
                        value: 0,
                        neq: true,
                        target,
                        squash,
                    },
                }); // 3
                asm.nop();
                asm.nop();
                asm.emit(Insn::Addi(Reg::A0, Reg::T0, 7)); // 6
                asm.halt(Reg::A0);
                let prog = asm.finish().unwrap();
                assert_eq!(
                    marks(&prog, hw),
                    [false, false, false, true, false, false, false, false]
                );
                let o = agree_at_every_fuel(&prog, hw);
                assert_eq!(o.halt_code, 7);
                assert_eq!(o.stats.squashed, if squash { 2 } else { 0 });
                assert_eq!(o.stats.cycles, 1 + 3 * 5 + 2);
                // A budget spent at the third branch ends inside its slots;
                // the check waits for the end of the group.
                let at_branch = 1 + 2 * 5 + 3;
                assert_eq!(
                    agree(&prog, hw, at_branch).unwrap_err(),
                    SimError::OutOfFuel {
                        cycles: at_branch + 2
                    }
                );
            }
        }
    }

    #[test]
    fn all_nop_slots_after_jumps_match_ref() {
        let mut asm = Asm::new();
        let g = asm.here("g");
        asm.jr(Reg::T2); // 0-1
        let f = asm.here("f");
        asm.jr(Reg::Link); // 2-3
        entry(&mut asm);
        let done = asm.new_label();
        asm.li(Reg::T0, 3); // 4
        let top = asm.here("top");
        asm.jal(f, Reg::Link); // 5-6
        asm.li(Reg::T3, asm.position(g).unwrap() as i32); // 7
        asm.jalr(Reg::T3, Reg::T2); // 8-9
        asm.emit(Insn::Addi(Reg::T0, Reg::T0, -1)); // 10
        asm.bri(Cond::Eq, Reg::T0, 0, done); // 11-13
        asm.j(top); // 14-15
        asm.bind(done);
        asm.halt(Reg::T0); // 16
        let prog = asm.finish().unwrap();
        let hw = HwConfig::plain();
        let marked: Vec<usize> = (0..prog.len()).filter(|&pc| marks(&prog, hw)[pc]).collect();
        assert_eq!(marked, [0, 2, 5, 8, 11, 14]);
        let o = agree_at_every_fuel(&prog, hw);
        assert_eq!(o.halt_code, 0);
        assert_eq!(o.stats.squashed, 0);
        // A budget spent at the first `jal` ends inside its slot.
        assert_eq!(
            agree(&prog, hw, 2).unwrap_err(),
            SimError::OutOfFuel { cycles: 3 }
        );
    }

    #[test]
    fn a_slot_group_with_a_live_slot_is_not_marked() {
        for live_first in [true, false] {
            let mut asm = Asm::new();
            entry(&mut asm);
            let t = asm.new_label();
            asm.li(Reg::T0, 2); // 0
            let top = asm.here("top");
            asm.emit(Insn::Addi(Reg::T0, Reg::T0, -1)); // 1
            asm.br_raw(Cond::Ne, Reg::T0, Reg::Zero, top, false); // 2
            if live_first {
                asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
                asm.nop();
            } else {
                asm.nop();
                asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
            }
            asm.bind(t);
            asm.halt(Reg::A0); // 5
            let prog = asm.finish().unwrap();
            let hw = HwConfig::plain();
            assert_eq!(runs(&prog, hw)[2].0, 2, "the slots still form a run");
            assert!(!marks(&prog, hw).contains(&true));
            let o = agree_at_every_fuel(&prog, hw);
            assert_eq!(o.halt_code, 2, "both trips commit the live slot");
        }
    }
}
