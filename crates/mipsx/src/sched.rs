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
//! The pass is deliberately block-local and conservative; [`crate::verify`] checks
//! the result and the simulator re-checks load delays dynamically.

use crate::asm::Asm;
use crate::insn::Insn;

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

/// Run the scheduler over the assembler's instruction stream.
///
/// Must be called before [`Asm::finish`] (it rewrites positions and label
/// bindings). Calling it twice is harmless.
pub fn schedule(asm: &mut Asm) -> ScheduleReport {
    let mut report = ScheduleReport::default();
    insert_load_nops(asm, &mut report);
    fill_branch_slots(asm, &mut report);
    report
}

/// Pass 1: make every load's successor safe by inserting `nop`s where the next
/// instruction reads the loaded register.
fn insert_load_nops(asm: &mut Asm, report: &mut ScheduleReport) {
    // Positions that are delay slots (we never insert inside a control+slots
    // group; the code generator keeps loads out of slots).
    let mut i = 0;
    while i + 1 < asm.items.len() {
        let (insn, annot) = asm.items[i];
        let loaded = match insn {
            Insn::Ld(rd, ..) => Some(rd),
            Insn::LdChk { rd, .. } => Some(rd),
            _ => None,
        };
        if let Some(rd) = loaded {
            let (next, _) = asm.items[i + 1];
            if next.uses().contains(&rd) {
                // Inherit the load's annotation: the wasted cycle belongs to
                // whatever the load was doing (paper: delay-slot waste is charged
                // to the owning operation).
                asm.items.insert(i + 1, (Insn::Nop, annot));
                shift_labels_at_or_after(asm, i + 1, 1);
                report.load_nops_inserted += 1;
            }
        }
        i += 1;
    }
}

fn shift_labels_at_or_after(asm: &mut Asm, pos: usize, by: isize) {
    for slot in asm.label_pos.iter_mut().flatten() {
        if *slot >= pos {
            *slot = (*slot as isize + by) as usize;
        }
    }
}

/// Pass 2: fill `nop` delay slots of non-squashing branches/jumps with independent
/// instructions hoisted from earlier in the same basic block.
fn fill_branch_slots(asm: &mut Asm, report: &mut ScheduleReport) {
    let mut c = 0;
    while c < asm.items.len() {
        let (insn, _) = asm.items[c];
        let slots = insn.delay_slots();
        if slots == 0 {
            c += 1;
            continue;
        }
        if let Insn::Br { squash: true, .. }
        | Insn::Bri { squash: true, .. }
        | Insn::TagBr { squash: true, .. } = insn
        {
            // Squashing branches are filled explicitly by the code generator from
            // the taken path; hoisting always-executed code into them would be
            // wrong.
            c += slots + 1;
            continue;
        }
        // Block start: just after the previous control group or the closest label.
        let block_start = block_start(asm, c);
        for s in 0..slots {
            let slot_pos = c + 1 + s;
            if slot_pos >= asm.items.len() || asm.items[slot_pos].0 != Insn::Nop {
                continue;
            }
            if let Some(p) = find_candidate(asm, block_start, c, slot_pos) {
                // Move items[p] into the slot: remove it, then overwrite the nop
                // (which has shifted down by one).
                let item = asm.items.remove(p);
                shift_labels_at_or_after(asm, p + 1, -1);
                let new_slot = slot_pos - 1;
                debug_assert_eq!(asm.items[new_slot].0, Insn::Nop);
                asm.items[new_slot] = item;
                report.slots_filled += 1;
                // The branch itself moved down by one.
                c -= 1;
            }
        }
        c += slots + 1;
    }
}

/// The first position of the basic block containing position `c`: after the most
/// recent label binding or control group end.
fn block_start(asm: &Asm, c: usize) -> usize {
    let mut start = 0;
    // after any earlier control instruction's last delay slot
    let mut i = 0;
    while i < c {
        let slots = asm.items[i].0.delay_slots();
        if slots > 0 && i + slots < c {
            start = start.max(i + slots + 1);
        }
        i += 1;
    }
    for pos in asm.label_pos.iter().flatten() {
        if *pos <= c {
            start = start.max(*pos);
        }
    }
    start
}

/// Find the latest movable instruction in `[block_start, c)` that can be hoisted
/// past everything between it and the slot being filled at `slot_pos` — including
/// instructions already placed in earlier delay slots of the branch at `c`, which
/// will execute before the new arrival.
fn find_candidate(asm: &Asm, block_start: usize, c: usize, slot_pos: usize) -> Option<usize> {
    let (branch, _) = asm.items[c];
    let branch_uses = branch.uses();
    let branch_def = branch.def(); // link register of jal/jalr
    'outer: for p in (block_start..c).rev() {
        let (cand, _) = asm.items[p];
        if !movable(cand) {
            continue;
        }
        // No label may bind exactly at p (the jump target would change meaning).
        if asm.label_pos.iter().flatten().any(|&pos| pos == p) {
            continue;
        }
        let cd = cand.def();
        let cu = cand.uses();
        // Must not produce a value the branch condition consumes.
        if let Some(d) = cd {
            if branch_uses.contains(&d) {
                continue;
            }
        }
        // Must not touch the branch's own destination (the link register of a
        // call): moving across would reorder the writes or read the new link.
        if let Some(bd) = branch_def {
            if cd == Some(bd) || cu.contains(&bd) {
                continue;
            }
        }
        // Must commute with every intervening instruction, including already
        // filled earlier slots (they execute before the new arrival).
        for q in (p + 1..slot_pos).filter(|&q| q != c) {
            let (mid, _) = asm.items[q];
            let md = mid.def();
            let mu = mid.uses();
            if let Some(d) = cd {
                if mu.contains(&d) || md == Some(d) {
                    continue 'outer; // RAW or WAW on the candidate's output
                }
            }
            if let Some(m) = md {
                if cu.contains(&m) {
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
            let (prev, _) = asm.items[p - 1];
            let prev_loaded = match prev {
                Insn::Ld(rd, ..) | Insn::LdChk { rd, .. } => Some(rd),
                _ => None,
            };
            if let Some(rd) = prev_loaded {
                let (next, _) = asm.items[p + 1];
                if next.uses().contains(&rd) {
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

/// Re-annotate the remaining `nop` delay slots of every branch with the branch's
/// own annotation, so that unused-slot cycles are charged to the operation owning
/// the branch (as the paper does for tag checks).
pub fn attribute_slot_nops(asm: &mut Asm) {
    let mut c = 0;
    while c < asm.items.len() {
        let (insn, annot) = asm.items[c];
        let slots = insn.delay_slots();
        for s in 0..slots {
            let sp = c + 1 + s;
            if sp < asm.items.len() && asm.items[sp].0 == Insn::Nop {
                asm.items[sp].1 = annot;
            }
        }
        c += slots + 1;
    }
}

/// Convenience: run [`schedule`] then [`attribute_slot_nops`].
pub fn schedule_and_attribute(asm: &mut Asm) -> ScheduleReport {
    let r = schedule(asm);
    attribute_slot_nops(asm);
    r
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
    fn attribute_slot_nops_inherits_branch_annot() {
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
        attribute_slot_nops(&mut asm);
        let prog = asm.finish().unwrap();
        assert_eq!(prog.annots[1].tag_op, Some(TagOpKind::Check));
        assert_eq!(prog.annots[2].tag_op, Some(TagOpKind::Check));
    }
}
