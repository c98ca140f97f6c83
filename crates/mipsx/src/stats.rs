//! Execution statistics: cycles decomposed by instruction class and tag operation.

use std::ops::AddAssign;

use crate::annot::{Annot, CheckCat, Provenance, TagOpKind, ALL_CHECK_CATS, ALL_TAG_OPS};
use crate::insn::Insn;

/// Instruction classes counted for Figure 2 of the paper. Declared in
/// [`ALL_CLASSES`] order: `class as usize` indexes [`Stats::class_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnClass {
    /// Generic ALU (add/sub/xor/or/slt/shift/immediate forms, excluding the
    /// classes broken out below).
    Alu,
    /// `and`/`andi` — the masking instructions Figure 2 tracks.
    And,
    /// Register moves.
    Move,
    /// Constant loads.
    Li,
    /// Loads.
    Load,
    /// Stores.
    Store,
    /// Conditional branches (including tag branches).
    Branch,
    /// Unconditional jumps, calls and returns.
    Jump,
    /// No-ops that executed (delay-slot padding, load-delay padding).
    Nop,
    /// Multiply/divide/remainder.
    MulDiv,
    /// Checked loads/stores (parallel-check hardware).
    CheckedMem,
    /// Hardware generic arithmetic.
    GenericArith,
    /// Output instructions.
    Write,
    /// Halt.
    Halt,
}

/// All instruction classes, in report order.
pub const ALL_CLASSES: [InsnClass; 14] = [
    InsnClass::Alu,
    InsnClass::And,
    InsnClass::Move,
    InsnClass::Li,
    InsnClass::Load,
    InsnClass::Store,
    InsnClass::Branch,
    InsnClass::Jump,
    InsnClass::Nop,
    InsnClass::MulDiv,
    InsnClass::CheckedMem,
    InsnClass::GenericArith,
    InsnClass::Write,
    InsnClass::Halt,
];

impl InsnClass {
    /// Classify an instruction.
    pub fn of(insn: Insn) -> InsnClass {
        match insn {
            Insn::And(..) | Insn::Andi(..) => InsnClass::And,
            Insn::Mov(..) => InsnClass::Move,
            Insn::Li(..) => InsnClass::Li,
            Insn::Add(..)
            | Insn::Sub(..)
            | Insn::Or(..)
            | Insn::Xor(..)
            | Insn::Slt(..)
            | Insn::Addi(..)
            | Insn::Ori(..)
            | Insn::Xori(..)
            | Insn::Sll(..)
            | Insn::Srl(..)
            | Insn::Sra(..) => InsnClass::Alu,
            Insn::Mul(..) | Insn::Div(..) | Insn::Rem(..) | Insn::Fop(..) => InsnClass::MulDiv,
            Insn::Ld(..) => InsnClass::Load,
            Insn::St { .. } => InsnClass::Store,
            Insn::Br { .. } | Insn::Bri { .. } | Insn::TagBr { .. } => InsnClass::Branch,
            Insn::J(_) | Insn::Jal(..) | Insn::Jr(_) | Insn::Jalr(..) => InsnClass::Jump,
            Insn::LdChk { .. } | Insn::StChk { .. } => InsnClass::CheckedMem,
            Insn::AddG { .. } | Insn::SubG { .. } => InsnClass::GenericArith,
            Insn::Nop => InsnClass::Nop,
            Insn::Write(..) => InsnClass::Write,
            Insn::Halt(_) => InsnClass::Halt,
        }
    }

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InsnClass::Alu => "alu",
            InsnClass::And => "and",
            InsnClass::Move => "move",
            InsnClass::Li => "li",
            InsnClass::Load => "load",
            InsnClass::Store => "store",
            InsnClass::Branch => "branch",
            InsnClass::Jump => "jump",
            InsnClass::Nop => "noop",
            InsnClass::MulDiv => "muldiv",
            InsnClass::CheckedMem => "chkmem",
            InsnClass::GenericArith => "addg",
            InsnClass::Write => "write",
            InsnClass::Halt => "halt",
        }
    }
}

/// Aggregated execution statistics from one simulation.
///
/// Every breakdown is a dense table indexed by its enums' declaration order
/// (`InsnClass as usize`, `TagOpKind as usize`, `Provenance as usize`,
/// `CheckCat as usize`), which is also the order of [`ALL_CLASSES`],
/// [`ALL_TAG_OPS`] and [`ALL_CHECK_CATS`]. A zero cell means the run charged
/// nothing there.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions that executed and committed (excludes squashed slots).
    pub committed: u64,
    /// Delay-slot instructions whose effects were cancelled (cycles still spent).
    pub squashed: u64,
    /// Cycles spent in trap penalties.
    pub trap_cycles: u64,
    /// Number of traps taken (checked-memory or generic-arith failures).
    pub traps: u64,
    /// Committed-instruction counts per class.
    pub class_counts: [u64; ALL_CLASSES.len()],
    /// Cycles per `[tag operation][provenance]`.
    pub tag_cycles: [[u64; 2]; ALL_TAG_OPS.len()],
    /// Cycles of checking-added work per checking category.
    pub check_cat_cycles: [u64; ALL_CHECK_CATS.len()],
    /// Microarchitectural stall breakdown, present only when a
    /// [`TimingModel`](crate::timing::TimingModel) was attached to the run.
    /// Purely additive: `cycles` above stays the architectural count, and the
    /// timed total is `cycles + timing.total_stalls()`.
    pub timing: Option<crate::timing::TimingStats>,
}

impl Stats {
    /// Charge `cycles` to `annot`: to its tag operation (under its
    /// provenance) if it has one, and to its checking category if checking
    /// added it. The one attribution rule behind every breakdown.
    #[inline(always)]
    pub(crate) fn attribute(&mut self, annot: Annot, cycles: u64) {
        if let Some(op) = annot.tag_op {
            self.tag_cycles[op as usize][annot.prov as usize] += cycles;
        }
        if annot.prov == Provenance::Checking {
            self.check_cat_cycles[annot.cat as usize] += cycles;
        }
    }

    /// Record `cycles` for an instruction of `class` with annotation `annot`
    /// that committed.
    ///
    /// Public so a conformance harness can rebuild a `Stats` from a retirement
    /// trace and compare it against the simulator's own accounting.
    #[inline]
    pub fn record(&mut self, class: InsnClass, annot: Annot, cycles: u64) {
        self.cycles += cycles;
        self.committed += 1;
        self.class_counts[class as usize] += 1;
        self.attribute(annot, cycles);
    }

    /// Record a squashed delay-slot instruction: one wasted cycle attributed to the
    /// *branch's* annotation (the paper charges unused slots to the checking
    /// operation that owns the branch).
    #[inline]
    pub fn record_squashed(&mut self, branch_annot: Annot) {
        self.cycles += 1;
        self.squashed += 1;
        self.attribute(branch_annot, 1);
    }

    /// Record a trap: the penalty cycles, attributed to `annot`. Traps are
    /// rare, so this stays out of line: folding it into the fast
    /// interpreter's dispatch loop measured slower.
    #[cold]
    #[inline(never)]
    pub fn record_trap(&mut self, annot: Annot, penalty: u64) {
        self.cycles += penalty;
        self.trap_cycles += penalty;
        self.traps += 1;
        self.attribute(annot, penalty);
    }

    /// Cycles attributed to tag operation `op`, over both provenances.
    pub fn tag_op_cycles(&self, op: TagOpKind) -> u64 {
        self.tag_cycles[op as usize].iter().sum()
    }

    /// Cycles attributed to tag operation `op` restricted to `prov`.
    pub fn tag_op_cycles_by(&self, op: TagOpKind, prov: Provenance) -> u64 {
        self.tag_cycles[op as usize][prov as usize]
    }

    /// All cycles attributed to any tag operation.
    pub fn total_tag_cycles(&self) -> u64 {
        self.tag_cycles.iter().flatten().sum()
    }

    /// Cycles of checking-added work in category `cat`.
    pub fn checking_cycles(&self, cat: CheckCat) -> u64 {
        self.check_cat_cycles[cat as usize]
    }

    /// Committed-instruction count in class `class`.
    pub fn class_count(&self, class: InsnClass) -> u64 {
        self.class_counts[class as usize]
    }

    /// Fraction of total cycles in `op`, as a percentage.
    pub fn tag_op_percent(&self, op: TagOpKind) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * self.tag_op_cycles(op) as f64 / self.cycles as f64
        }
    }
}

fn add_cells<const N: usize>(into: &mut [u64; N], from: &[u64; N]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl AddAssign<&Stats> for Stats {
    fn add_assign(&mut self, rhs: &Stats) {
        self.cycles += rhs.cycles;
        self.committed += rhs.committed;
        self.squashed += rhs.squashed;
        self.trap_cycles += rhs.trap_cycles;
        self.traps += rhs.traps;
        add_cells(&mut self.class_counts, &rhs.class_counts);
        for (a, b) in self.tag_cycles.iter_mut().zip(&rhs.tag_cycles) {
            add_cells(a, b);
        }
        add_cells(&mut self.check_cat_cycles, &rhs.check_cat_cycles);
        if let Some(t) = &rhs.timing {
            *self.timing.get_or_insert_with(Default::default) += t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn classification() {
        assert_eq!(
            InsnClass::of(Insn::And(Reg::A0, Reg::A0, Reg::Mask)),
            InsnClass::And
        );
        assert_eq!(
            InsnClass::of(Insn::Andi(Reg::A0, Reg::A0, 3)),
            InsnClass::And
        );
        assert_eq!(InsnClass::of(Insn::Mov(Reg::A0, Reg::A1)), InsnClass::Move);
        assert_eq!(InsnClass::of(Insn::Nop), InsnClass::Nop);
        assert_eq!(
            InsnClass::of(Insn::St {
                src: Reg::A0,
                base: Reg::Sp,
                disp: 0
            }),
            InsnClass::Store
        );
    }

    #[test]
    fn record_accumulates() {
        let mut s = Stats::default();
        s.record(InsnClass::And, Annot::base(TagOpKind::Remove), 1);
        s.record(
            InsnClass::Alu,
            Annot::checking(TagOpKind::Check, CheckCat::List),
            1,
        );
        s.record_squashed(Annot::checking(TagOpKind::Check, CheckCat::List));
        assert_eq!(s.cycles, 3);
        assert_eq!(s.committed, 2);
        assert_eq!(s.squashed, 1);
        assert_eq!(s.tag_op_cycles(TagOpKind::Remove), 1);
        assert_eq!(s.tag_op_cycles(TagOpKind::Check), 2);
        assert_eq!(s.checking_cycles(CheckCat::List), 2);
        assert_eq!(
            s.tag_op_cycles_by(TagOpKind::Check, Provenance::Checking),
            2
        );
        assert_eq!(s.total_tag_cycles(), 3);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = Stats::default();
        a.record(InsnClass::Alu, Annot::NONE, 1);
        let mut b = Stats::default();
        b.record(InsnClass::Alu, Annot::NONE, 2);
        b.record_trap(Annot::base(TagOpKind::Generic), 20);
        a += &b;
        assert_eq!(a.cycles, 23);
        assert_eq!(a.traps, 1);
        assert_eq!(a.class_count(InsnClass::Alu), 2);
    }

    /// `as usize` on each enum indexes the dense tables, so declaration
    /// order must be report order.
    #[test]
    fn declaration_order_is_report_order() {
        for (i, c) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        for (i, op) in ALL_TAG_OPS.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
        for (i, cat) in ALL_CHECK_CATS.iter().enumerate() {
            assert_eq!(*cat as usize, i, "{cat:?}");
        }
        assert_eq!(Provenance::Base as usize, 0);
        assert_eq!(Provenance::Checking as usize, 1);
    }

    #[test]
    fn class_names_unique() {
        let mut names: Vec<_> = ALL_CLASSES.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_CLASSES.len());
    }
}
