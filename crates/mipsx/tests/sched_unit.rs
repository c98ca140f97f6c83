//! Hazard and delay-slot edge cases for the post-codegen scheduler
//! (`mipsx::sched`): the interactions between load-delay padding and branch
//! delay-slot filling that the block-local pass must get right. Each case
//! runs the scheduled program on the simulator, whose dynamic load-delay
//! check is the final arbiter that no hazard survived.

use mipsx::sched::{schedule, schedule_and_attribute};
use mipsx::{Asm, Cond, Executor, FastCpu, HwConfig, Insn, Program, Reg};

/// Finish a scheduled stream into a verified program.
fn finish(asm: Asm) -> Program {
    let prog = asm.finish().expect("assembles");
    mipsx::verify::verify(&prog).expect("verifies");
    prog
}

/// Run a verified program; returns (halt code, cycles). The simulator's
/// dynamic load-delay check makes any surviving hazard a hard failure here.
fn run_prog(prog: &Program) -> (i32, u64) {
    let o = FastCpu::new(prog, HwConfig::plain(), 1 << 16)
        .expect("predecodes")
        .run(100_000)
        .expect("runs");
    (o.halt_code, o.stats.cycles)
}

/// Finish + run in one step, for cases that don't inspect the layout.
fn run_code(asm: Asm) -> (i32, u64) {
    run_prog(&finish(asm))
}

/// A load's consumer may be hoisted into a branch delay slot: by the time
/// the slot issues (two cycles after the branch's predecessor) the load
/// delay has elapsed, so the move is legal and saves a cycle.
#[test]
fn load_consumer_may_fill_a_branch_delay_slot() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    asm.data(0x100, 21);
    let done = asm.new_label();
    asm.li(Reg::T5, 0x100);
    let block = asm.new_label();
    asm.bind(block);
    asm.ld(Reg::A0, Reg::T5, 0);
    asm.emit(Insn::Add(Reg::T2, Reg::A0, Reg::A0)); // consumer of the load
    asm.beq(Reg::Zero, Reg::Zero, done); // taken; 2 nop slots
    asm.li(Reg::T2, 99); // skipped
    asm.bind(done);
    asm.halt(Reg::T2);

    let mut s = asm;
    let rep = schedule(&mut s);
    // Pass 1 pads the ld→add hazard; pass 2 then moves the add into a slot.
    assert_eq!(rep.load_nops_inserted, 1);
    assert!(rep.slots_filled >= 1, "the consumer should fill a slot");
    let prog = finish(s);
    let branch_at = prog
        .insns
        .iter()
        .position(|i| matches!(i, Insn::Br { .. }))
        .expect("branch survives");
    assert_eq!(
        prog.insns[branch_at + 1],
        Insn::Add(Reg::T2, Reg::A0, Reg::A0),
        "the consumer sits in the first delay slot"
    );
    assert_eq!(run_prog(&prog).0, 42);
}

/// Hoisting an instruction out from between a load and that load's consumer
/// would make the consumer the load's immediate successor — a hazard the
/// padding pass already discharged. The filler must leave it in place.
#[test]
fn filler_never_recreates_a_load_use_hazard() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    asm.data(0x100, 21);
    let done = asm.new_label();
    asm.li(Reg::T5, 0x100);
    asm.li(Reg::T1, 3);
    let block = asm.new_label();
    asm.bind(block);
    asm.ld(Reg::A0, Reg::T5, 0);
    asm.emit(Insn::Add(Reg::T2, Reg::T1, Reg::T1)); // the only legal-looking candidate
    asm.emit(Insn::Add(Reg::T3, Reg::A0, Reg::A0)); // load consumer, feeds the condition
    asm.bne(Reg::T3, Reg::Zero, done); // 2 nop slots
    asm.li(Reg::T3, 99); // skipped
    asm.bind(done);
    asm.halt(Reg::T3);

    let mut s = asm;
    let rep = schedule(&mut s);
    // The condition producer cannot move, and moving the independent add
    // would leave `add T3, A0, A0` adjacent to the load — so nothing moves.
    assert_eq!(rep.slots_filled, 0, "no safe candidate exists");
    assert_eq!(rep.load_nops_inserted, 0, "ld's successor is independent");
    assert_eq!(run_code(s).0, 42);
}

/// Back-to-back dependent loads (a pointer chase) need a pad between each
/// load and its use — including when the use is itself a load.
#[test]
fn back_to_back_dependent_loads_are_each_padded() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    asm.data(0x100, 0x200); // mem[0x100] points at mem[0x200]
    asm.data(0x200, 42);
    asm.li(Reg::T5, 0x100);
    asm.ld(Reg::T0, Reg::T5, 0);
    asm.ld(Reg::T1, Reg::T0, 0); // address comes from the first load
    asm.emit(Insn::Add(Reg::A0, Reg::T1, Reg::T1)); // value from the second
    asm.halt(Reg::A0);

    let mut s = asm;
    let rep = schedule(&mut s);
    assert_eq!(rep.load_nops_inserted, 2, "one pad per dependent pair");
    assert_eq!(run_code(s).0, 84);
}

/// A branch that consumes a just-loaded register needs the same padding as
/// any other consumer — the condition read happens at issue.
#[test]
fn branch_reading_a_fresh_load_is_padded() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    asm.data(0x100, 1);
    let done = asm.new_label();
    asm.li(Reg::T5, 0x100);
    asm.ld(Reg::A0, Reg::T5, 0);
    asm.bne(Reg::A0, Reg::Zero, done); // uses A0 one cycle after the load
    asm.li(Reg::A0, 99); // skipped when mem[0x100] != 0
    asm.bind(done);
    asm.halt(Reg::A0);

    let mut s = asm;
    let rep = schedule(&mut s);
    assert_eq!(rep.load_nops_inserted, 1);
    assert_eq!(run_code(s).0, 1, "the taken path must still win");
}

/// Calls: a candidate that writes the link register must not move into the
/// `jal`'s delay slot — the slot executes after the call has written the
/// return address, so the hoist would clobber it.
#[test]
fn link_register_write_stays_out_of_the_call_slot() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let sub = asm.new_label();
    let over = asm.new_label();
    asm.li(Reg::A0, 5);
    let block = asm.new_label();
    asm.bind(block);
    asm.emit(Insn::Addi(Reg::Link, Reg::Zero, 7)); // the only candidate: clobbers Link
    asm.jal(sub, Reg::Link); // 1 nop slot
    asm.j(over); // return lands here, then jump over the subroutine
    asm.bind(sub);
    asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
    asm.jr(Reg::Link);
    asm.bind(over);
    asm.halt(Reg::A0);

    let mut s = asm;
    schedule(&mut s);
    let prog = finish(s);
    let jal_at = prog
        .insns
        .iter()
        .position(|i| matches!(i, Insn::Jal(..)))
        .expect("call survives");
    assert_eq!(
        prog.insns[jal_at + 1],
        Insn::Nop,
        "the link write must not move into the call's slot"
    );
    assert_eq!(run_prog(&prog).0, 6, "the return address must survive");
}

/// Two memory operations never reorder: a store may not jump over a load
/// (or vice versa) on the way into a delay slot, even to different
/// addresses — the pass is conservative by design.
#[test]
fn memory_operations_do_not_reorder_into_slots() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    asm.data(0x100, 1);
    let done = asm.new_label();
    asm.li(Reg::T5, 0x100);
    asm.li(Reg::T1, 9);
    let block = asm.new_label();
    asm.bind(block);
    asm.st(Reg::T1, Reg::T5, 4); // candidate-looking, but a memory op
    asm.ld(Reg::A0, Reg::T5, 4); // reads what the store wrote
    asm.nop();
    asm.beq(Reg::Zero, Reg::Zero, done); // 2 nop slots
    asm.li(Reg::A0, 99);
    asm.bind(done);
    asm.halt(Reg::A0);

    let mut s = asm;
    let rep = schedule(&mut s);
    assert_eq!(rep.slots_filled, 0, "neither memory op may move");
    let prog = finish(s);
    let st_at = prog
        .insns
        .iter()
        .position(|i| matches!(i, Insn::St { .. }))
        .expect("store survives");
    let ld_at = prog
        .insns
        .iter()
        .position(|i| matches!(i, Insn::Ld(..)))
        .expect("load survives");
    assert!(st_at < ld_at, "store and load kept their order");
    assert_eq!(run_prog(&prog).0, 9);
}

/// `schedule_and_attribute` after filling: slots that stay `nop` inherit the
/// branch's annotation, while a hoisted instruction keeps its own — the
/// attribution must follow the final layout, not the pre-fill one.
#[test]
fn attribution_tracks_the_filled_layout() {
    use mipsx::{Annot, TagOpKind};
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let done = asm.new_label();
    asm.li(Reg::T0, 10);
    asm.li(Reg::T1, 20);
    asm.emit(Insn::Add(Reg::T2, Reg::T0, Reg::T1)); // plain-annot filler
    asm.with_annot(Annot::base(TagOpKind::Check), |a| {
        a.beq(Reg::Zero, Reg::Zero, done); // 2 nop slots, Check-annotated
    });
    asm.li(Reg::T2, 99);
    asm.bind(done);
    asm.halt(Reg::T2);

    let mut s = asm;
    let rep = schedule_and_attribute(&mut s);
    assert!(rep.slots_filled >= 1);
    let prog = s.finish().expect("assembles");
    let branch_at = prog
        .insns
        .iter()
        .position(|i| matches!(i, Insn::Br { .. }))
        .expect("branch survives");
    assert_eq!(
        prog.insns[branch_at + 1],
        Insn::Add(Reg::T2, Reg::T0, Reg::T1)
    );
    assert_eq!(
        prog.annots[branch_at + 1].tag_op,
        None,
        "the hoisted add keeps its own annotation"
    );
    assert_eq!(prog.insns[branch_at + 2], Insn::Nop);
    assert_eq!(
        prog.annots[branch_at + 2].tag_op,
        Some(TagOpKind::Check),
        "the leftover nop is charged to the branch's operation"
    );
}

// --- exact layouts ----------------------------------------------------------
//
// The cases below pin the finished instruction stream and every label
// target, not just the run result: each is a place where the scheduler's
// bookkeeping of positions (inserted pads, hoisted fillers, label shifts)
// could go wrong without changing what the program computes.

/// Schedule and assemble without running: (report, program).
fn scheduled(mut asm: Asm) -> (mipsx::sched::ScheduleReport, Program) {
    let rep = schedule(&mut asm);
    (rep, asm.finish().expect("assembles"))
}

/// Where the label registered under `name` ended up.
fn at(prog: &Program, name: &str) -> usize {
    prog.symbols[name]
}

fn br(cond: Cond, target: u32, squash: bool) -> Insn {
    Insn::Br {
        cond,
        rs: Reg::Zero,
        rt: Reg::Zero,
        target,
        squash,
    }
}

/// A label bound on a delay slot moves with its slot: the one on the filled
/// first slot now names the hoisted instruction, the one on the unfilled
/// second slot still names the `nop`.
#[test]
fn labels_inside_delay_slots_follow_their_slots() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let done = asm.new_label();
    asm.li(Reg::T0, 1);
    asm.li(Reg::T1, 2);
    asm.emit(Insn::Add(Reg::T2, Reg::T0, Reg::T1)); // the only legal filler
    asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, done, false);
    asm.here("slot1");
    asm.nop();
    asm.here("slot2");
    asm.nop();
    asm.bind(done);
    asm.name_label("done", done);
    asm.halt(Reg::T2);

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.slots_filled, 1);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::T0, 1),
            Insn::Li(Reg::T1, 2),
            br(Cond::Eq, 5, false),
            Insn::Add(Reg::T2, Reg::T0, Reg::T1),
            Insn::Nop,
            Insn::Halt(Reg::T2),
        ]
    );
    assert_eq!(at(&prog, "slot1"), 3);
    assert_eq!(at(&prog, "slot2"), 4);
    assert_eq!(at(&prog, "done"), 5);
    mipsx::verify::verify(&prog).expect("verifies");
    assert_eq!(run_prog(&prog).0, 3);
}

/// A label bound after the last instruction stays one past the end, however
/// many slots were filled before it.
#[test]
fn label_at_the_end_of_the_stream_stays_at_the_end() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let done = asm.new_label();
    asm.li(Reg::A0, 7); // carries the entry label: may not move
    asm.li(Reg::T0, 3);
    asm.beq(Reg::Zero, Reg::Zero, done);
    asm.bind(done);
    asm.name_label("done", done);
    asm.halt(Reg::A0);
    asm.here("end");

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.slots_filled, 1);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::A0, 7),
            br(Cond::Eq, 4, false),
            Insn::Li(Reg::T0, 3),
            Insn::Nop,
            Insn::Halt(Reg::A0),
        ]
    );
    assert_eq!(at(&prog, "entry"), 0);
    assert_eq!(at(&prog, "done"), 4);
    assert_eq!(at(&prog, "end"), prog.insns.len());
    assert_eq!(run_prog(&prog).0, 7);
}

/// A load as the very last item has no successor to pad for; a load just
/// before a consumer still gets its pad, and the end label moves past it.
#[test]
fn load_as_the_last_item_needs_no_pad() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    asm.li(Reg::T5, 0x100);
    asm.ld(Reg::A0, Reg::T5, 0);
    asm.here("use");
    asm.emit(Insn::Add(Reg::A1, Reg::A0, Reg::A0));
    asm.ld(Reg::A2, Reg::A1, 0); // last item
    asm.here("end");

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.load_nops_inserted, 1);
    assert_eq!(rep.slots_filled, 0);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::T5, 0x100),
            Insn::Ld(Reg::A0, Reg::T5, 0),
            Insn::Nop,
            Insn::Add(Reg::A1, Reg::A0, Reg::A0),
            Insn::Ld(Reg::A2, Reg::A1, 0),
        ]
    );
    assert_eq!(at(&prog, "use"), 3, "the label stays on the consumer");
    assert_eq!(at(&prog, "end"), 5);
}

/// A label on the first instruction of a block pins it there (a jump
/// enters at it), while a later instruction of the block may still fill.
#[test]
fn label_at_block_start_blocks_hoisting_that_instruction() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let done = asm.new_label();
    asm.li(Reg::T0, 1);
    asm.li(Reg::T1, 2);
    asm.here("top");
    asm.li(Reg::T2, 5); // independent, but labelled
    asm.li(Reg::T3, 6); // independent, unlabelled
    asm.beq(Reg::Zero, Reg::Zero, done);
    asm.li(Reg::T2, 9); // skipped
    asm.bind(done);
    asm.name_label("done", done);
    asm.emit(Insn::Add(Reg::A0, Reg::T2, Reg::T3));
    asm.halt(Reg::A0);

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.slots_filled, 1);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::T0, 1),
            Insn::Li(Reg::T1, 2),
            Insn::Li(Reg::T2, 5),
            br(Cond::Eq, 7, false),
            Insn::Li(Reg::T3, 6),
            Insn::Nop,
            Insn::Li(Reg::T2, 9),
            Insn::Add(Reg::A0, Reg::T2, Reg::T3),
            Insn::Halt(Reg::A0),
        ]
    );
    assert_eq!(at(&prog, "top"), 2);
    assert_eq!(at(&prog, "done"), 7);
    assert_eq!(run_prog(&prog).0, 11);
}

/// A branch right after a label has an empty block: nothing before the
/// label may cross it, so both slots stay `nop`.
#[test]
fn branch_right_after_a_label_has_nothing_to_hoist() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let done = asm.new_label();
    asm.li(Reg::T0, 1);
    asm.li(Reg::T1, 2);
    asm.here("here");
    asm.beq(Reg::Zero, Reg::Zero, done);
    asm.li(Reg::T1, 9); // skipped
    asm.bind(done);
    asm.name_label("done", done);
    asm.halt(Reg::T1);

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.slots_filled, 0);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::T0, 1),
            Insn::Li(Reg::T1, 2),
            br(Cond::Eq, 6, false),
            Insn::Nop,
            Insn::Nop,
            Insn::Li(Reg::T1, 9),
            Insn::Halt(Reg::T1),
        ]
    );
    assert_eq!(at(&prog, "here"), 2);
    assert_eq!(at(&prog, "done"), 6);
    assert_eq!(run_prog(&prog).0, 2);
}

/// Two branches in a row each fill a slot; every label after them moves by
/// the fills before it, and the second block starts after the first group.
#[test]
fn consecutive_fills_shift_every_later_label() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let l1 = asm.new_label();
    let l2 = asm.new_label();
    asm.li(Reg::A0, 1);
    asm.li(Reg::T0, 10);
    asm.bne(Reg::Zero, Reg::Zero, l1); // never taken
    asm.li(Reg::T1, 20);
    asm.bne(Reg::Zero, Reg::Zero, l2); // never taken
    asm.bind(l1);
    asm.name_label("l1", l1);
    asm.emit(Insn::Add(Reg::A0, Reg::T0, Reg::T1));
    asm.bind(l2);
    asm.name_label("l2", l2);
    asm.halt(Reg::A0);
    asm.here("end");

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.slots_filled, 2);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::A0, 1),
            br(Cond::Ne, 7, false),
            Insn::Li(Reg::T0, 10),
            Insn::Nop,
            br(Cond::Ne, 8, false),
            Insn::Li(Reg::T1, 20),
            Insn::Nop,
            Insn::Add(Reg::A0, Reg::T0, Reg::T1),
            Insn::Halt(Reg::A0),
        ]
    );
    assert_eq!(at(&prog, "l1"), 7);
    assert_eq!(at(&prog, "l2"), 8);
    assert_eq!(at(&prog, "end"), 9);
    assert_eq!(run_prog(&prog).0, 30);
}

/// A squashing branch keeps its slots as the code generator left them and
/// ends the block: the fillable branch after it hoists only from its own
/// block, both slots this time.
#[test]
fn squashing_branch_then_fillable_branch() {
    let mut asm = Asm::new();
    let e = asm.here("entry");
    asm.set_entry(e);
    let t = asm.new_label();
    asm.li(Reg::T0, 1);
    asm.li(Reg::T1, 2); // before the squashing branch: stays put
    asm.br_raw(Cond::Ne, Reg::Zero, Reg::Zero, t, true); // never taken
    asm.nop();
    asm.nop();
    asm.li(Reg::T2, 3);
    asm.li(Reg::T3, 4);
    asm.beq(Reg::Zero, Reg::Zero, t);
    asm.li(Reg::A0, 99); // skipped
    asm.bind(t);
    asm.name_label("t", t);
    asm.emit(Insn::Add(Reg::A0, Reg::T2, Reg::T3));
    asm.halt(Reg::A0);

    let (rep, prog) = scheduled(asm);
    assert_eq!(rep.slots_filled, 2);
    assert_eq!(
        prog.insns,
        vec![
            Insn::Li(Reg::T0, 1),
            Insn::Li(Reg::T1, 2),
            br(Cond::Ne, 9, true),
            Insn::Nop,
            Insn::Nop,
            br(Cond::Eq, 9, false),
            Insn::Li(Reg::T3, 4),
            Insn::Li(Reg::T2, 3),
            Insn::Li(Reg::A0, 99),
            Insn::Add(Reg::A0, Reg::T2, Reg::T3),
            Insn::Halt(Reg::A0),
        ]
    );
    assert_eq!(at(&prog, "t"), 9);
    mipsx::verify::verify(&prog).expect("verifies");
    assert_eq!(run_prog(&prog).0, 7);
}
