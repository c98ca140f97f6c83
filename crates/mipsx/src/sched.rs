//! Post-codegen instruction scheduling: load-delay padding and branch delay-slot
//! filling.
//!
//! MIPS-X exposes its pipeline: loads have one delay slot and branches two. The code
//! generator emits naive sequences with explicit `nop` padding (via
//! [`Asm::br`]/[`Asm::j`]); this pass then tries to *fill* branch delay slots by
//! moving independent instructions from before the branch into the slots, exactly
//! the job the paper's compiler does. This matters to the study: tag-removal `and`
//! instructions are prime slot filler, so eliminating them (paper §5) claws back
//! fewer cycles than the raw count suggests — Figure 2's no-op/squash increase.
//!
//! Both passes run in one forward sweep that copies the stream once, so the
//! cost is linear in the stream apart from the block-local candidate search:
//!
//! 1. *Load padding* yields each item and, when it is a load whose original
//!    successor reads the loaded register, a `nop` after it.
//! 2. *Slot filling* streams those items into the output, where everything
//!    before the current basic block is final. A block starts at the latest
//!    label or control-group end, so only its first position can carry a
//!    label. The filler for a slot is removed from the block at the output's
//!    tail.
//! 3. *Attribution* ([`schedule_and_attribute`]) charges each delay slot
//!    that is still a `nop` to its branch once the branch's group is filled.
//!
//! No per-item index is kept. Labels are placed as their item lands, since a
//! labelled item never moves once pushed: the assembler lists labels in the
//! order they were bound, which is the order of their positions. A
//! relocation tag follows its instruction until the instruction's block is
//! final.
//!
//! The pass is deliberately block-local and conservative; [`crate::verify`] checks
//! the result and the simulator re-checks load delays dynamically.

use crate::annot::Annot;
use crate::asm::{Asm, Label};
use crate::insn::Insn;
use crate::reg::Reg;

/// What the scheduler did, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Branch delay-slot no-ops replaced with useful instructions.
    pub slots_filled: usize,
    /// No-ops inserted to satisfy the load delay.
    pub load_nops_inserted: usize,
}

/// Whether an instruction may be moved into a (non-squashing) branch delay slot.
fn movable(insn: Insn) -> bool {
    !insn.is_control()
        && !matches!(
            insn,
            Insn::Nop
                | Insn::Ld(..)
                | Insn::LdChk { .. }
                | Insn::StChk { .. }
                | Insn::AddG { .. }
                | Insn::SubG { .. }
                | Insn::Halt(_)
        )
}

fn is_mem(insn: Insn) -> bool {
    matches!(
        insn,
        Insn::Ld(..) | Insn::St { .. } | Insn::LdChk { .. } | Insn::StChk { .. }
    )
}

/// The register `insn` loads, if it is a load.
fn loaded(insn: Insn) -> Option<Reg> {
    match insn {
        Insn::Ld(rd, ..) | Insn::LdChk { rd, .. } => Some(rd),
        _ => None,
    }
}

/// Run the scheduler over the assembler's instruction stream.
///
/// Must be called before [`Asm::finish`] (it rewrites positions and label
/// bindings). Calling it twice is harmless.
pub fn schedule(asm: &mut Asm) -> ScheduleReport {
    sweep(asm, false)
}

/// The input position of a pad, which no label or relocation tag names.
const PAD: usize = usize::MAX;

/// Where the next label or relocation tag is once there are none left: a
/// position no item, pad or not, has.
const NO_MARK: usize = usize::MAX - 1;

/// The input stream with a `nop` after every load whose successor reads the
/// loaded register: load padding, generated as slot filling consumes it.
struct Padded<'a> {
    items: &'a [(Insn, Annot)],
    next: usize,
    pad: Option<Annot>,
}

impl Iterator for Padded<'_> {
    /// An item and its input position ([`PAD`] for a pad).
    type Item = ((Insn, Annot), usize);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(annot) = self.pad.take() {
            return Some(((Insn::Nop, annot), PAD));
        }
        let k = self.next;
        let item = *self.items.get(k)?;
        self.next += 1;
        if let (Some(rd), Some(&(next, _))) = (loaded(item.0), self.items.get(k + 1)) {
            if next.uses().contains(rd) {
                // Inherit the load's annotation: the wasted cycle belongs to
                // whatever the load was doing (paper: delay-slot waste is
                // charged to the owning operation).
                self.pad = Some(item.1);
            }
        }
        Some((item, k))
    }
}

/// Where the labels and relocation tags of the input stream land in the
/// output, settled in input order as the sweep makes positions final.
struct Marks<'a> {
    /// Bound labels, ascending by input position, and their positions.
    bound: &'a [Label],
    label_pos: &'a mut [Option<usize>],
    /// `bound[label..]` are not placed yet; the first binds at `label_at`.
    label: usize,
    label_at: usize,
    /// Relocation tags, ascending by input position. `relocs[settled..next]`
    /// hold output positions a fill can still move; `relocs[next..]` input
    /// positions not reached yet, the first of them `reloc_at`.
    relocs: &'a mut [(usize, u32)],
    settled: usize,
    next: usize,
    reloc_at: usize,
}

impl<'a> Marks<'a> {
    fn new(
        bound: &'a [Label],
        label_pos: &'a mut [Option<usize>],
        relocs: &'a mut [(usize, u32)],
    ) -> Self {
        if !relocs.is_sorted_by_key(|r| r.0) {
            relocs.sort_by_key(|r| r.0);
        }
        let mut marks = Marks {
            bound,
            label_pos,
            label: 0,
            label_at: NO_MARK,
            relocs,
            settled: 0,
            next: 0,
            reloc_at: NO_MARK,
        };
        marks.label_at = marks.label_pos_at(0);
        marks.reloc_at = marks.relocs.first().map_or(NO_MARK, |r| r.0);
        marks
    }

    fn label_pos_at(&self, i: usize) -> usize {
        self.bound
            .get(i)
            .and_then(|l| self.label_pos[l.0 as usize])
            .unwrap_or(NO_MARK)
    }

    /// Input position `k` now sits at output position `pos`.
    fn pushed(&mut self, k: usize, pos: usize) {
        while k == self.reloc_at {
            self.relocs[self.next].0 = pos;
            self.next += 1;
            self.reloc_at = self.relocs.get(self.next).map_or(NO_MARK, |r| r.0);
        }
    }

    /// Input position `k`, pushed at `pos`, stays there: place its labels.
    fn settle(&mut self, k: usize, pos: usize) {
        while k == self.label_at {
            self.label_pos[self.bound[self.label].0 as usize] = Some(pos);
            self.label += 1;
            self.label_at = self.label_pos_at(self.label);
        }
    }

    /// Output positions before `start` are final.
    fn block_starts(&mut self, start: usize) {
        while self.settled < self.next && self.relocs[self.settled].0 < start {
            self.settled += 1;
        }
    }

    /// The item at output position `from` moved to `to`, later in its
    /// block, and everything after `from` up to `to` moved back by one.
    fn moved(&mut self, from: usize, to: usize) {
        for r in &mut self.relocs[self.settled..self.next] {
            if r.0 == from {
                r.0 = to;
            } else if r.0 > from {
                r.0 -= 1;
            }
        }
    }

    /// Labels bound at the very end stay there, at `end`.
    fn finish(self, end: usize) {
        for l in &self.bound[self.label..] {
            self.label_pos[l.0 as usize] = Some(end);
        }
    }
}

/// Both passes in one forward sweep over the stream, which is copied once:
/// load padding ([`Padded`]) feeds slot filling, which, when `attribute`
/// is set, also charges each unfilled delay slot to its branch.
///
/// Slot filling streams the padded items into the output, where everything
/// before the current basic block is final. A block starts at the latest
/// label or control-group end, so only its first position can carry a label,
/// and a filler is removed from the block at the output's tail. A label's
/// item therefore never moves once pushed; a relocated instruction may move
/// into a slot, so its tag follows it until its block ends.
fn sweep(asm: &mut Asm, attribute: bool) -> ScheduleReport {
    let items = std::mem::take(&mut asm.items);
    let mut out: Vec<(Insn, Annot)> = Vec::with_capacity(items.len() + items.len() / 16);
    let mut input = Padded {
        items: &items,
        next: 0,
        pad: None,
    };
    let mut marks = Marks::new(&asm.bound, &mut asm.label_pos, &mut asm.relocs);
    let mut block = Block::default();
    let mut group = [PAD; 3];
    let mut filled = 0;
    while let Some((item, k)) = input.next() {
        let slots = item.0.delay_slots();
        if slots == 0 {
            let pos = out.len();
            if k == marks.label_at {
                block.last_label = Some(pos);
                marks.settle(k, pos);
            }
            marks.pushed(k, pos);
            out.push(item);
            continue;
        }
        // The control group: the instruction and its delay slots.
        let mut c = out.len();
        let labelled = k == marks.label_at;
        group[0] = k;
        marks.pushed(k, c);
        out.push(item);
        let mut len = 1;
        for (slot, k) in input.by_ref().take(slots) {
            group[len] = k;
            marks.pushed(k, out.len());
            out.push(slot);
            len += 1;
        }
        // Squashing branches are filled explicitly by the code generator from
        // the taken path; hoisting always-executed code into them would be
        // wrong.
        let squash = matches!(
            item.0,
            Insn::Br { squash: true, .. }
                | Insn::Bri { squash: true, .. }
                | Insn::TagBr { squash: true, .. }
        );
        if !squash {
            let (start, start_labelled) = block.start(c, labelled);
            marks.block_starts(start);
            for s in 0..slots {
                let slot_pos = c + 1 + s;
                if slot_pos >= out.len() || out[slot_pos].0 != Insn::Nop {
                    continue;
                }
                if let Some(p) = find_candidate(&out, start, start_labelled, c, slot_pos) {
                    // Move out[p] into the slot: remove it, then overwrite the
                    // nop (which has shifted down by one), as has the branch.
                    let item = out.remove(p);
                    debug_assert_eq!(out[slot_pos - 1].0, Insn::Nop);
                    out[slot_pos - 1] = item;
                    marks.moved(p, slot_pos - 1);
                    c -= 1;
                    filled += 1;
                }
            }
        }
        for (j, &k) in group[..len].iter().enumerate() {
            block.note(c + j, out[c + j].0, k == marks.label_at);
            marks.settle(k, c + j);
        }
        if attribute {
            let annot = out[c].1;
            for slot in &mut out[c + 1..c + len] {
                if slot.0 == Insn::Nop {
                    slot.1 = annot;
                }
            }
        }
    }
    marks.finish(out.len());
    let report = ScheduleReport {
        slots_filled: filled,
        load_nops_inserted: out.len() + filled - items.len(),
    };
    asm.items = out;
    report
}

/// Where the basic block around the next branch starts, tracked over the
/// streamed output. Positions before the block are final: fills only remove
/// instructions from inside the current block.
#[derive(Default)]
struct Block {
    /// Output position of the latest label.
    last_label: Option<usize>,
    /// The latest end of a control group (its instruction and delay slots)
    /// that lies at or before the current branch.
    group_end: usize,
    /// Ends of control groups that reach past the current branch.
    pending_ends: Vec<usize>,
}

impl Block {
    /// Record the item now final at output position `pos`.
    fn note(&mut self, pos: usize, insn: Insn, labelled: bool) {
        if labelled {
            self.last_label = Some(pos);
        }
        let slots = insn.delay_slots();
        if slots > 0 {
            self.pending_ends.push(pos + slots + 1);
        }
    }

    /// The first position of the basic block of the branch at output position
    /// `c` (after the latest label binding or control-group end), and whether
    /// a label binds there.
    fn start(&mut self, c: usize, branch_labelled: bool) -> (usize, bool) {
        if branch_labelled {
            self.last_label = Some(c);
        }
        let group_end = &mut self.group_end;
        self.pending_ends.retain(|&end| {
            let reached = end <= c;
            if reached {
                *group_end = (*group_end).max(end);
            }
            !reached
        });
        let label = self.last_label.unwrap_or(0);
        let start = self.group_end.max(label);
        (start, self.last_label == Some(start))
    }
}

/// Find the latest movable instruction in `[block_start, c)` that can be hoisted
/// past everything between it and the slot being filled at `slot_pos` — including
/// instructions already placed in earlier delay slots of the branch at `c`, which
/// will execute before the new arrival. Only `block_start` can carry a label.
fn find_candidate(
    items: &[(Insn, Annot)],
    block_start: usize,
    start_labelled: bool,
    c: usize,
    slot_pos: usize,
) -> Option<usize> {
    let (branch, _) = items[c];
    let branch_uses = branch.uses();
    let branch_def = branch.def(); // link register of jal/jalr
    'outer: for p in (block_start..c).rev() {
        let (cand, _) = items[p];
        if !movable(cand) {
            continue;
        }
        // No label may bind exactly at p (the jump target would change meaning).
        if p == block_start && start_labelled {
            continue;
        }
        let cd = cand.def();
        let cu = cand.uses();
        // Must not produce a value the branch condition consumes.
        if let Some(d) = cd {
            if branch_uses.contains(d) {
                continue;
            }
        }
        // Must not touch the branch's own destination (the link register of a
        // call): moving across would reorder the writes or read the new link.
        if let Some(bd) = branch_def {
            if cd == Some(bd) || cu.contains(bd) {
                continue;
            }
        }
        // Must commute with every intervening instruction, including already
        // filled earlier slots (they execute before the new arrival).
        for q in (p + 1..slot_pos).filter(|&q| q != c) {
            let (mid, _) = items[q];
            let md = mid.def();
            let mu = mid.uses();
            if let Some(d) = cd {
                if mu.contains(d) || md == Some(d) {
                    continue 'outer; // RAW or WAW on the candidate's output
                }
            }
            if let Some(m) = md {
                if cu.contains(m) {
                    continue 'outer; // candidate reads a value redefined in between
                }
            }
            if is_mem(cand) && is_mem(mid) {
                continue 'outer; // conservative memory ordering
            }
        }
        // Removing the candidate must not create a load-delay hazard between its
        // former neighbours.
        if p > block_start {
            if let Some(rd) = loaded(items[p - 1].0) {
                if items[p + 1].0.uses().contains(rd) {
                    continue;
                }
            }
        }
        // The candidate itself must not consume a register loaded immediately
        // before the branch position it lands behind; slots execute two cycles
        // after `c-1`, so only the branch adjacency matters and the branch does
        // not load. Safe.
        return Some(p);
    }
    None
}

/// [`schedule`], and in the same sweep re-annotate the delay slots that
/// stay `nop` with their branch's annotation, so that unused-slot cycles are
/// charged to the operation owning the branch (as the paper does for tag
/// checks).
pub fn schedule_and_attribute(asm: &mut Asm) -> ScheduleReport {
    sweep(asm, true)
}

#[allow(unused_imports)]
use crate::annot::TagOpKind as _docref; // keep rustdoc link targets alive

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, FastCpu};
    use crate::hw::HwConfig;
    use crate::insn::Cond;
    use crate::reg::Reg;

    fn run_code(asm: Asm) -> (i32, u64) {
        let prog = asm.finish().unwrap();
        crate::verify::verify(&prog).unwrap();
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run(100_000)
            .unwrap();
        (o.halt_code, o.stats.cycles)
    }

    /// Build: some independent ALU work, then a branch with nop slots.
    fn sample() -> Asm {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let done = asm.new_label();
        asm.li(Reg::T0, 10);
        asm.li(Reg::T1, 20);
        asm.li(Reg::A0, 1);
        asm.emit(Insn::Add(Reg::T2, Reg::T0, Reg::T1)); // independent of condition
        asm.beq(Reg::A0, Reg::A0, done); // taken; 2 nop slots
        asm.li(Reg::A0, 99);
        asm.bind(done);
        asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::T2));
        asm.halt(Reg::A0);
        asm
    }

    #[test]
    fn filling_preserves_semantics_and_saves_cycles() {
        let baseline = run_code(sample());
        let mut scheduled = sample();
        let rep = schedule(&mut scheduled);
        assert!(rep.slots_filled >= 1, "the add should move into a slot");
        let after = run_code(scheduled);
        assert_eq!(baseline.0, after.0, "same result");
        assert!(after.1 < baseline.1, "fewer cycles after filling");
    }

    #[test]
    fn relocation_tags_move_with_their_instruction() {
        // Tag the independent add, which moves into a slot, and the
        // load-immediate before it, which stays.
        let mut tagged = sample();
        let add = tagged
            .items
            .iter()
            .position(|(i, _)| matches!(i, Insn::Add(..)))
            .unwrap();
        tagged.relocs.push((add, 7));
        tagged.relocs.push((add - 1, 9));
        let rep = schedule(&mut tagged);
        assert!(rep.slots_filled >= 1, "the add moves into a slot");
        let part = tagged.finish_part(|p| p, |_| None).unwrap();
        for (pos, tag) in part.relocs {
            let want = if tag == 7 {
                Insn::Add(Reg::T2, Reg::T0, Reg::T1)
            } else {
                Insn::Li(Reg::A0, 1)
            };
            assert_eq!(part.insns[pos], want, "tag {tag}");
        }
    }

    #[test]
    fn condition_producer_is_not_hoisted() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let done = asm.new_label();
        asm.li(Reg::A0, 1); // produces the condition — must NOT move
        asm.beq(Reg::A0, Reg::A0, done);
        asm.li(Reg::A0, 99);
        asm.bind(done);
        asm.halt(Reg::A0);
        let mut s = asm;
        let rep = schedule(&mut s);
        assert_eq!(rep.slots_filled, 0);
        assert_eq!(run_code(s).0, 1);
    }

    #[test]
    fn load_nop_inserted_for_hazard() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::T0, 0x100);
        asm.li(Reg::T1, 5);
        asm.st(Reg::T1, Reg::T0, 0);
        asm.ld(Reg::A0, Reg::T0, 0);
        asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A0)); // hazard
        asm.halt(Reg::A0);
        let mut s = asm;
        let rep = schedule(&mut s);
        assert_eq!(rep.load_nops_inserted, 1);
        assert_eq!(run_code(s).0, 10);
    }

    #[test]
    fn labels_stay_correct_across_moves() {
        // A loop whose body has fillable work; label targets must survive.
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::S0, 0); // sum
        asm.li(Reg::S1, 5); // counter
        let top = asm.new_label();
        asm.bind(top);
        asm.emit(Insn::Add(Reg::S0, Reg::S0, Reg::S1));
        asm.emit(Insn::Addi(Reg::S1, Reg::S1, -1));
        asm.br(Cond::Ne, Reg::S1, Reg::Zero, top);
        asm.halt(Reg::S0);
        let baseline = {
            let mut a2 = Asm::new();
            let e = a2.here("entry");
            a2.set_entry(e);
            a2.li(Reg::S0, 0);
            a2.li(Reg::S1, 5);
            let top = a2.new_label();
            a2.bind(top);
            a2.emit(Insn::Add(Reg::S0, Reg::S0, Reg::S1));
            a2.emit(Insn::Addi(Reg::S1, Reg::S1, -1));
            a2.br(Cond::Ne, Reg::S1, Reg::Zero, top);
            a2.halt(Reg::S0);
            run_code(a2)
        };
        let mut s = asm;
        schedule(&mut s);
        let after = run_code(s);
        assert_eq!(after.0, baseline.0);
        assert_eq!(after.0, 5 + 4 + 3 + 2 + 1);
        assert!(after.1 <= baseline.1);
    }

    #[test]
    fn squashing_branches_are_left_alone() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let t = asm.new_label();
        asm.li(Reg::T0, 1);
        asm.emit(Insn::Add(Reg::T1, Reg::T0, Reg::T0));
        asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, t, true);
        asm.nop();
        asm.nop();
        asm.bind(t);
        asm.halt(Reg::T1);
        let mut s = asm;
        let rep = schedule(&mut s);
        assert_eq!(rep.slots_filled, 0);
    }

    #[test]
    fn unfilled_slots_inherit_branch_annot() {
        use crate::annot::{Annot, TagOpKind};
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let t = asm.new_label();
        asm.with_annot(Annot::base(TagOpKind::Check), |a| {
            a.beq(Reg::A0, Reg::Zero, t);
        });
        asm.bind(t);
        asm.halt(Reg::Zero);
        let rep = schedule_and_attribute(&mut asm);
        assert_eq!(rep.slots_filled, 0, "nothing precedes the branch");
        let prog = asm.finish().unwrap();
        assert_eq!(prog.annots[1].tag_op, Some(TagOpKind::Check));
        assert_eq!(prog.annots[2].tag_op, Some(TagOpKind::Check));
    }
}
