//! Direct unit tests for the trace layer (`mipsx::trace`): `Retirement` field
//! population for loads, stores and traps, `TraceBuffer` bounding and
//! draining, and squash reporting. The conformance matrix exercises all of
//! this indirectly; these tests pin the contract itself.

use std::ops::ControlFlow;

use mipsx::trace::{MemOp, Observer, TraceBuffer};
use mipsx::{Asm, Executor, FastCpu, HwConfig, Insn, Reg, SimError, TagField};

fn entry(asm: &mut Asm) {
    let e = asm.here("entry");
    asm.set_entry(e);
}

fn run_traced(asm: Asm, hw: HwConfig, buf: &mut TraceBuffer) -> Result<mipsx::Outcome, SimError> {
    let prog = asm.finish().expect("assembles");
    FastCpu::new(&prog, hw, 1 << 16)?.run_observed(10_000, buf)
}

#[test]
fn load_retirement_reports_memop_and_writeback() {
    let mut asm = Asm::new();
    entry(&mut asm);
    asm.li(Reg::T0, 0x100);
    asm.li(Reg::T1, 42);
    asm.st(Reg::T1, Reg::T0, 4);
    asm.ld(Reg::A0, Reg::T0, 4);
    asm.nop();
    asm.halt(Reg::A0);
    let mut buf = TraceBuffer::new();
    let o = run_traced(asm, HwConfig::plain(), &mut buf).unwrap();
    assert_eq!(o.halt_code, 42);

    let load = buf
        .records
        .iter()
        .find(|r| matches!(r.insn, Insn::Ld(..)))
        .expect("the load retired");
    assert_eq!(
        load.mem,
        Some(MemOp {
            addr: 0x104,
            value: 42,
            store: false
        })
    );
    assert_eq!(
        load.write,
        Some((Reg::A0, 42)),
        "loads report the writeback"
    );
    assert_eq!(load.trap, None);

    // Annotation sidecar stays parallel, and cycles are strictly increasing.
    assert_eq!(buf.annotations.len(), buf.records.len());
    assert!(
        buf.annotations.windows(2).all(|w| w[0].1 < w[1].1),
        "cumulative cycles increase"
    );
}

#[test]
fn store_retirement_reports_memop_without_writeback() {
    let mut asm = Asm::new();
    entry(&mut asm);
    asm.li(Reg::T0, 0x200);
    asm.li(Reg::T1, 7);
    asm.st(Reg::T1, Reg::T0, 0);
    asm.halt(Reg::Zero);
    let mut buf = TraceBuffer::new();
    run_traced(asm, HwConfig::plain(), &mut buf).unwrap();

    let store = buf
        .records
        .iter()
        .find(|r| matches!(r.insn, Insn::St { .. }))
        .expect("the store retired");
    assert_eq!(
        store.mem,
        Some(MemOp {
            addr: 0x200,
            value: 7,
            store: true
        })
    );
    assert_eq!(store.write, None, "stores write no register");
    assert_eq!(store.trap, None);
}

#[test]
fn trapping_checked_load_reports_redirect_only() {
    let field = TagField {
        shift: 27,
        mask: 0x1F,
    };
    let mut asm = Asm::new();
    entry(&mut asm);
    let fail = asm.new_label();
    // Tag 3 in the top 5 bits; the checked load expects tag 1 → trap.
    asm.li(Reg::T0, ((3u32 << 27) | 0x80) as i32);
    asm.emit(Insn::LdChk {
        rd: Reg::A0,
        base: Reg::T0,
        disp: 0,
        field,
        expect: 1,
        on_fail: fail.id(),
    });
    asm.nop();
    asm.halt(Reg::Zero);
    asm.bind(fail);
    asm.li(Reg::A0, -1);
    asm.halt(Reg::A0);
    let hw = HwConfig {
        parallel_check: mipsx::ParallelCheck::All,
        drop_high_address_bits: 5,
        ..HwConfig::plain()
    };
    let mut buf = TraceBuffer::new();
    let o = run_traced(asm, hw, &mut buf).unwrap();
    assert_eq!(o.halt_code, -1, "the trap path ran");
    assert_eq!(o.stats.traps, 1);

    let trap = buf
        .records
        .iter()
        .find(|r| r.trap.is_some())
        .expect("the trapping retirement is reported");
    assert!(matches!(trap.insn, Insn::LdChk { .. }));
    assert_eq!(trap.write, None, "trapping retirements write nothing");
    assert_eq!(trap.mem, None, "trapping retirements access no memory");
    // The redirect target is where execution actually resumed.
    let target = trap.trap.unwrap();
    assert!(
        buf.records.iter().any(|r| r.pc == target),
        "execution continued at the trap target {target}"
    );
}

#[test]
fn squashed_slots_are_reported_separately() {
    use mipsx::Cond;
    let mut asm = Asm::new();
    entry(&mut asm);
    let t = asm.new_label();
    asm.li(Reg::A0, 1);
    asm.br_raw(Cond::Eq, Reg::A0, Reg::Zero, t, true); // not taken → squash both slots
    asm.li(Reg::A1, 5);
    asm.li(Reg::A1, 6);
    asm.halt(Reg::A1);
    asm.bind(t);
    asm.halt(Reg::Zero);
    let mut buf = TraceBuffer::new();
    let o = run_traced(asm, HwConfig::plain(), &mut buf).unwrap();
    assert_eq!(o.stats.squashed, 2);
    assert_eq!(buf.squashes.len(), 2, "both squashed slots reported");
    let branch_pc = buf
        .records
        .iter()
        .find(|r| matches!(r.insn, Insn::Br { .. }))
        .expect("branch retired")
        .pc;
    assert_eq!(
        buf.squashes[0].0,
        branch_pc + 1,
        "slot pcs follow the branch"
    );
    assert_eq!(buf.squashes[1].0, branch_pc + 2);
    // Squashed slots never retire.
    assert!(buf.records.iter().all(|r| r.pc != branch_pc + 1));
}

/// An infinite loop so the bound, not the program, ends the run.
fn looping_asm() -> Asm {
    let mut asm = Asm::new();
    entry(&mut asm);
    let top = asm.new_label();
    asm.bind(top);
    asm.emit(Insn::Addi(Reg::A0, Reg::A0, 1));
    asm.emit(Insn::J(top.id()));
    asm.nop();
    asm
}

#[test]
fn bounded_buffer_stops_the_run() {
    let mut buf = TraceBuffer::bounded(5);
    let err = run_traced(looping_asm(), HwConfig::plain(), &mut buf).unwrap_err();
    assert!(
        matches!(err, SimError::Stopped { .. }),
        "bounded buffer surfaces as Stopped, got {err:?}"
    );
    assert_eq!(buf.len(), 5, "exactly the bound is held");
    assert_eq!(buf.annotations.len(), 5);
}

#[test]
fn drain_empties_and_rearms_the_bound() {
    let mut buf = TraceBuffer::bounded(4);
    let _ = run_traced(looping_asm(), HwConfig::plain(), &mut buf);
    let (records, annotations, _squashes) = buf.drain();
    assert_eq!(records.len(), 4);
    assert_eq!(annotations.len(), 4);
    assert!(buf.is_empty(), "drain leaves the buffer empty");
    assert_eq!(buf.len(), 0);

    // The same buffer records a fresh window up to the bound again.
    let err = run_traced(looping_asm(), HwConfig::plain(), &mut buf).unwrap_err();
    assert!(matches!(err, SimError::Stopped { .. }));
    assert_eq!(buf.len(), 4);
}

#[test]
fn unbounded_buffer_records_to_completion() {
    let mut asm = Asm::new();
    entry(&mut asm);
    asm.li(Reg::A0, 9);
    asm.halt(Reg::A0);
    let mut buf = TraceBuffer::default();
    let o = run_traced(asm, HwConfig::plain(), &mut buf).unwrap();
    assert_eq!(o.halt_code, 9);
    assert!(!buf.is_empty());
    // Every retirement up to and including the halt is present.
    assert!(matches!(buf.records.last().unwrap().insn, Insn::Halt(_)));
    assert_eq!(buf.records.len() as u64, o.stats.committed);
}

/// `ControlFlow::Break` from a custom observer stops the run too — the trait
/// contract, not just the `TraceBuffer` convenience.
#[test]
fn custom_observer_break_stops_the_run() {
    struct StopAfter(u32);
    impl Observer for StopAfter {
        fn retire(
            &mut self,
            _ev: &mipsx::trace::Retirement,
            _annot: mipsx::Annot,
            _cycle: u64,
        ) -> ControlFlow<()> {
            self.0 -= 1;
            if self.0 == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }
    }
    let prog = looping_asm().finish().unwrap();
    let mut obs = StopAfter(7);
    let err = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
        .unwrap()
        .run_observed(10_000, &mut obs)
        .unwrap_err();
    assert!(matches!(err, SimError::Stopped { .. }));
}
