//! Hazard and delay-slot edge cases for the post-codegen scheduler
//! (`mipsx::sched`): the interactions between load-delay padding and branch
//! delay-slot filling that the block-local pass must get right. Each case
//! runs the scheduled program on the simulator, whose dynamic load-delay
//! check is the final arbiter that no hazard survived.

use mipsx::sched::{schedule, schedule_and_attribute};
use mipsx::{Asm, Executor, FastCpu, HwConfig, Insn, Program, Reg};

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
