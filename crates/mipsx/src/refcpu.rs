//! A reference executor: the trace oracle's second opinion.
//!
//! [`RefCpu`] is a deliberately naive sequential interpreter for the same
//! instruction set as [`crate::FastCpu`]. It shares the [`Insn`]
//! representation and the pure operand helpers ([`Cond::eval`],
//! [`TagField::extract`], [`IntTest::is_int`], [`FpOp::apply`]) but **none** of
//! the pipelined simulator's machinery: no predecode, no cycle accounting, no
//! statistics, no load-delay enforcement, and delay slots handled by a
//! three-field resume bookkeeping instead of the dispatch loop's inline slot
//! execution. Where `FastCpu` is written for speed and cycle attribution,
//! `RefCpu` is written to be obviously correct — which is what makes
//! disagreement between the two meaningful (see the `conformance` crate).
//!
//! [`RefCpu::step`] retires exactly one instruction per call and returns the
//! same [`Retirement`] record [`crate::FastCpu`] reports to its observer, so a
//! lockstep harness can compare the two streams with `==`. Squashed delay
//! slots retire nothing (on either executor) and are skipped silently here.
//!
//! For harness self-tests, [`RefCpu::inject_fault`] plants a deliberate
//! semantics bug ([`Fault`]) so a conformance suite can prove it would notice
//! one.

use crate::annot::Annot;
use crate::exec::{SimError, GEN_TRAP_ANNOT};
use crate::hw::{HwConfig, ParallelCheck};
use crate::insn::{Insn, WriteKind};
use crate::mem::Mem;
use crate::program::Program;
use crate::reg::Reg;
use crate::trace::{MemOp, Retirement};

/// A deliberately injected semantics bug, for harness self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `nth` retired `add` (1-based) computes `rs + rt + 1`.
    AddOffByOne {
        /// Which `add` to corrupt.
        nth: u64,
    },
    /// The `nth` retired conditional branch (1-based) goes the wrong way.
    BranchInvert {
        /// Which conditional branch to corrupt.
        nth: u64,
    },
}

/// Pending delay-slot work after a retired control transfer.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    /// Next slot instruction index to execute.
    next: usize,
    /// Last slot instruction index.
    end: usize,
    /// Where control goes once the slots are done.
    resume: usize,
}

/// The reference executor: a naive sequential interpreter, sharing none of
/// [`crate::FastCpu`]'s machinery, which the `conformance` crate runs in
/// lockstep with it (see [`crate::exec`]).
#[derive(Debug)]
pub struct RefCpu<'p> {
    prog: &'p Program,
    hw: HwConfig,
    regs: [u32; 32],
    mem: Mem,
    pc: usize,
    slots: Option<SlotState>,
    /// Delay slots the last retired branch squashed, as `(first slot pc,
    /// count)` — consumed by [`RefCpu::take_squashed`] so a driver can mirror
    /// the pipelined executor's squash events and cycle accounting.
    squashed: Option<(usize, usize)>,
    output: String,
    halt_code: Option<i32>,
    fault: Option<Fault>,
    adds_retired: u64,
    branches_retired: u64,
}

impl<'p> RefCpu<'p> {
    /// Build a reference executor for `prog` with `hw` support and
    /// `mem_bytes` of data memory, applying the program's initial data image.
    ///
    /// # Panics
    ///
    /// If `prog.annots` is not parallel to `prog.insns`, as for
    /// [`crate::DecodedProgram::decode`].
    pub fn new(prog: &'p Program, hw: HwConfig, mem_bytes: usize) -> Self {
        assert_eq!(
            prog.annots.len(),
            prog.insns.len(),
            "program annots must parallel insns (one Annot per instruction)"
        );
        let mut mem = Mem::new(mem_bytes);
        for &(addr, word) in &prog.data {
            assert!(
                mem.store(addr, word),
                "data image outside memory: {addr:#x}"
            );
        }
        RefCpu {
            prog,
            hw,
            regs: [0; 32],
            mem,
            pc: prog.entry,
            slots: None,
            squashed: None,
            output: String::new(),
            halt_code: None,
            fault: None,
            adds_retired: 0,
            branches_retired: 0,
        }
    }

    /// Plant a deliberate semantics bug (for harness self-tests).
    pub fn inject_fault(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    /// Read a register (r0 reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r == Reg::Zero {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.regs[r.index()] = v;
        }
    }

    /// The register file, for final-state comparison.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// The data memory, for final-state comparison.
    pub fn mem(&self) -> &Mem {
        &self.mem
    }

    /// Everything written so far with [`Insn::Write`].
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Take the output buffer, leaving it empty (for building an
    /// [`crate::Outcome`] once the program has halted).
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// The `halt` exit code, once the program has halted.
    pub fn halt_code(&self) -> Option<i32> {
        self.halt_code
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// The hardware configuration this executor was built with.
    pub fn hw_config(&self) -> HwConfig {
        self.hw
    }

    /// Whether the next [`step`](RefCpu::step) retires a delay-slot
    /// instruction of an earlier control transfer (the pipelined executor
    /// never checks its cycle budget in that window; a driver rebuilding cycle
    /// accounting wants to match).
    pub fn in_delay_slot(&self) -> bool {
        self.slots.is_some()
    }

    /// The delay slots the most recently retired branch squashed, as
    /// `(first slot pc, count)`, consumed on read. `None` when the last
    /// retirement squashed nothing or the squashes were already taken.
    ///
    /// Squashed slots retire nothing, so they are invisible in the
    /// [`Retirement`] stream; this is the side channel that lets a driver
    /// reproduce the pipelined executor's per-slot squash events.
    pub fn take_squashed(&mut self) -> Option<(usize, usize)> {
        self.squashed.take()
    }

    /// The annotation and cycle cost the architecture charges for retiring
    /// `ev`, a record this executor produced: the instruction's annotation
    /// and its fixed cost on this hardware, or, for a tag trap, the trap
    /// penalty (a generic add/subtract trap is charged to the dispatch
    /// annotation instead of its own). Each squashed slot costs one cycle,
    /// charged to its branch's annotation.
    pub fn charge(&self, ev: &Retirement) -> (Annot, u64) {
        let annot = self.prog.annots[ev.pc];
        if ev.trap.is_some() {
            let annot = if matches!(ev.insn, Insn::AddG { .. } | Insn::SubG { .. }) {
                GEN_TRAP_ANNOT
            } else {
                annot
            };
            return (annot, u64::from(self.hw.trap_penalty));
        }
        let cost = match ev.insn {
            Insn::Fop(..) => self.hw.fp_cycles,
            Insn::Mul(..) => self.hw.mul_cycles,
            Insn::Div(..) | Insn::Rem(..) => self.hw.div_cycles,
            _ => 1,
        };
        (annot, u64::from(cost))
    }

    fn fetch(&self, pc: usize) -> Result<Insn, SimError> {
        match self.prog.insns.get(pc) {
            Some(i) => Ok(*i),
            None => Err(SimError::PcOutOfRange { pc }),
        }
    }

    fn ea(&self, base: Reg, disp: i32) -> u32 {
        (self.reg(base).wrapping_add(disp as u32)) & self.hw.address_mask()
    }

    fn ea_untagged(&self, word: u32, field: crate::insn::TagField, disp: i32) -> u32 {
        let untagged = word & !(field.mask << field.shift);
        untagged.wrapping_add(disp as u32) & self.hw.address_mask()
    }

    fn load(&self, addr: u32, pc: usize) -> Result<u32, SimError> {
        self.mem.load(addr).ok_or(SimError::MemFault { addr, pc })
    }

    fn store(&mut self, addr: u32, v: u32, pc: usize) -> Result<(), SimError> {
        if self.mem.store(addr, v) {
            Ok(())
        } else {
            Err(SimError::MemFault { addr, pc })
        }
    }

    /// Retire one instruction; `Ok(None)` once the program has halted.
    ///
    /// # Errors
    ///
    /// The same [`SimError`]s as [`crate::FastCpu`] raises for the same
    /// programs, except the pipeline-only ones: `RefCpu` never reports
    /// `OutOfFuel`, `LoadDelayViolation`, or `Stopped`, and it reports
    /// `MissingHardware` only when the instruction executes.
    pub fn step(&mut self) -> Result<Option<Retirement>, SimError> {
        if self.halt_code.is_some() {
            return Ok(None);
        }
        if let Some(slot) = self.slots {
            let pc = slot.next;
            let insn = self.fetch(pc)?;
            if insn.is_control() {
                return Err(SimError::ControlInSlot { pc });
            }
            if slot.next == slot.end {
                self.slots = None;
                self.pc = slot.resume;
            } else {
                self.slots = Some(SlotState {
                    next: slot.next + 1,
                    ..slot
                });
            }
            let ev = self.exec_plain(pc, insn, true)?;
            return Ok(Some(ev));
        }
        let pc = self.pc;
        let insn = self.fetch(pc)?;
        if insn.is_control() {
            let ev = self.exec_control(pc, insn)?;
            return Ok(Some(ev));
        }
        self.pc = pc + 1;
        let ev = self.exec_plain(pc, insn, false)?;
        Ok(Some(ev))
    }

    /// Execute a retired control transfer, leaving slot bookkeeping behind.
    fn exec_control(&mut self, pc: usize, insn: Insn) -> Result<Retirement, SimError> {
        let (mut taken, target, squash, nslots, link): (bool, usize, bool, usize, Option<Reg>) =
            match insn {
                Insn::Br {
                    cond,
                    rs,
                    rt,
                    target,
                    squash,
                } => {
                    let t = cond.eval(self.reg(rs), self.reg(rt));
                    (t, target as usize, squash, 2, None)
                }
                Insn::Bri {
                    cond,
                    rs,
                    imm,
                    target,
                    squash,
                } => {
                    let t = cond.eval(self.reg(rs), imm as u32);
                    (t, target as usize, squash, 2, None)
                }
                Insn::TagBr {
                    rs,
                    field,
                    value,
                    neq,
                    target,
                    squash,
                } => {
                    if !self.hw.tag_branch {
                        return Err(SimError::MissingHardware {
                            pc,
                            feature: "tag branch",
                        });
                    }
                    let eq = field.extract(self.reg(rs)) == value;
                    let t = if neq { !eq } else { eq };
                    (t, target as usize, squash, 2, None)
                }
                Insn::J(t) => (true, t as usize, false, 1, None),
                Insn::Jal(t, link) => (true, t as usize, false, 1, Some(link)),
                Insn::Jr(r) => (true, self.reg(r) as usize, false, 1, None),
                Insn::Jalr(r, link) => (true, self.reg(r) as usize, false, 1, Some(link)),
                _ => unreachable!("exec_control only sees control instructions"),
            };

        if matches!(
            insn,
            Insn::Br { .. } | Insn::Bri { .. } | Insn::TagBr { .. }
        ) {
            self.branches_retired += 1;
            if self.fault
                == Some(Fault::BranchInvert {
                    nth: self.branches_retired,
                })
            {
                taken = !taken;
            }
        }

        let fall_through = pc + 1 + nslots;
        if let Some(link) = link {
            self.set_reg(link, fall_through as u32);
        }
        let resume = if taken { target } else { fall_through };
        if !taken && squash {
            // Squashed slots execute nothing and retire nothing.
            self.squashed = Some((pc + 1, nslots));
            self.pc = resume;
        } else {
            self.slots = Some(SlotState {
                next: pc + 1,
                end: pc + nslots,
                resume,
            });
        }
        Ok(Retirement {
            pc,
            insn,
            write: insn.def().map(|r| (r, self.reg(r))),
            mem: None,
            trap: None,
        })
    }

    /// Execute a retired non-control instruction. `in_slot` forbids traps, as
    /// the pipeline does.
    fn exec_plain(&mut self, pc: usize, insn: Insn, in_slot: bool) -> Result<Retirement, SimError> {
        let mut memop: Option<MemOp> = None;
        let mut trap: Option<usize> = None;
        match insn {
            Insn::Add(d, a, b) => {
                self.adds_retired += 1;
                let mut v = self.reg(a).wrapping_add(self.reg(b));
                if self.fault
                    == Some(Fault::AddOffByOne {
                        nth: self.adds_retired,
                    })
                {
                    v = v.wrapping_add(1);
                }
                self.set_reg(d, v);
            }
            Insn::Sub(d, a, b) => {
                let v = self.reg(a).wrapping_sub(self.reg(b));
                self.set_reg(d, v);
            }
            Insn::And(d, a, b) => {
                let v = self.reg(a) & self.reg(b);
                self.set_reg(d, v);
            }
            Insn::Or(d, a, b) => {
                let v = self.reg(a) | self.reg(b);
                self.set_reg(d, v);
            }
            Insn::Xor(d, a, b) => {
                let v = self.reg(a) ^ self.reg(b);
                self.set_reg(d, v);
            }
            Insn::Slt(d, a, b) => {
                let v = ((self.reg(a) as i32) < (self.reg(b) as i32)) as u32;
                self.set_reg(d, v);
            }
            Insn::Addi(d, a, i) => {
                let v = self.reg(a).wrapping_add(i as u32);
                self.set_reg(d, v);
            }
            Insn::Andi(d, a, i) => {
                let v = self.reg(a) & i;
                self.set_reg(d, v);
            }
            Insn::Ori(d, a, i) => {
                let v = self.reg(a) | i;
                self.set_reg(d, v);
            }
            Insn::Xori(d, a, i) => {
                let v = self.reg(a) ^ i;
                self.set_reg(d, v);
            }
            Insn::Sll(d, a, s) => {
                let v = self.reg(a) << (s & 31);
                self.set_reg(d, v);
            }
            Insn::Srl(d, a, s) => {
                let v = self.reg(a) >> (s & 31);
                self.set_reg(d, v);
            }
            Insn::Sra(d, a, s) => {
                let v = ((self.reg(a) as i32) >> (s & 31)) as u32;
                self.set_reg(d, v);
            }
            Insn::Li(d, i) => self.set_reg(d, i as u32),
            Insn::Mov(d, a) => {
                let v = self.reg(a);
                self.set_reg(d, v);
            }
            Insn::Fop(op, d, a, b) => {
                let v = op.apply(self.reg(a), self.reg(b));
                self.set_reg(d, v);
            }
            Insn::Mul(d, a, b) => {
                let v = (self.reg(a) as i32).wrapping_mul(self.reg(b) as i32);
                self.set_reg(d, v as u32);
            }
            Insn::Div(d, a, b) => {
                let bb = self.reg(b) as i32;
                let v = if bb == 0 {
                    0
                } else {
                    (self.reg(a) as i32).wrapping_div(bb)
                };
                self.set_reg(d, v as u32);
            }
            Insn::Rem(d, a, b) => {
                let bb = self.reg(b) as i32;
                let v = if bb == 0 {
                    0
                } else {
                    (self.reg(a) as i32).wrapping_rem(bb)
                };
                self.set_reg(d, v as u32);
            }
            Insn::Ld(d, base, disp) => {
                let addr = self.ea(base, disp);
                let v = self.load(addr, pc)?;
                memop = Some(MemOp {
                    addr,
                    value: v,
                    store: false,
                });
                self.set_reg(d, v);
            }
            Insn::St { src, base, disp } => {
                let addr = self.ea(base, disp);
                let v = self.reg(src);
                self.store(addr, v, pc)?;
                memop = Some(MemOp {
                    addr,
                    value: v,
                    store: true,
                });
            }
            Insn::LdChk {
                rd,
                base,
                disp,
                field,
                expect,
                on_fail,
            } => {
                if self.hw.parallel_check == ParallelCheck::None {
                    return Err(SimError::MissingHardware {
                        pc,
                        feature: "parallel tag check",
                    });
                }
                let word = self.reg(base);
                if field.extract(word) != expect {
                    if in_slot {
                        return Err(SimError::ControlInSlot { pc });
                    }
                    trap = Some(on_fail as usize);
                    self.pc = on_fail as usize;
                } else {
                    let addr = self.ea_untagged(word, field, disp);
                    let v = self.load(addr, pc)?;
                    memop = Some(MemOp {
                        addr,
                        value: v,
                        store: false,
                    });
                    self.set_reg(rd, v);
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
                if self.hw.parallel_check == ParallelCheck::None {
                    return Err(SimError::MissingHardware {
                        pc,
                        feature: "parallel tag check",
                    });
                }
                let word = self.reg(base);
                if field.extract(word) != expect {
                    if in_slot {
                        return Err(SimError::ControlInSlot { pc });
                    }
                    trap = Some(on_fail as usize);
                    self.pc = on_fail as usize;
                } else {
                    let addr = self.ea_untagged(word, field, disp);
                    let v = self.reg(src);
                    self.store(addr, v, pc)?;
                    memop = Some(MemOp {
                        addr,
                        value: v,
                        store: true,
                    });
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
                if !self.hw.generic_arith {
                    return Err(SimError::MissingHardware {
                        pc,
                        feature: "generic arithmetic",
                    });
                }
                let a = self.reg(rs);
                let b = self.reg(rt);
                let result = if matches!(insn, Insn::SubG { .. }) {
                    (a as i32).checked_sub(b as i32)
                } else {
                    (a as i32).checked_add(b as i32)
                };
                let ok = int_test.is_int(a)
                    && int_test.is_int(b)
                    && result.map(|r| int_test.is_int(r as u32)).unwrap_or(false);
                if !ok {
                    if in_slot {
                        return Err(SimError::ControlInSlot { pc });
                    }
                    trap = Some(on_fail as usize);
                    self.pc = on_fail as usize;
                } else {
                    self.set_reg(rd, result.expect("checked above") as u32);
                }
            }
            Insn::Nop => {}
            Insn::Write(r, kind) => {
                let v = self.reg(r);
                match kind {
                    WriteKind::Char => self.output.push((v & 0xFF) as u8 as char),
                    WriteKind::Int => {
                        use std::fmt::Write as _;
                        let _ = write!(self.output, "{}", v as i32);
                    }
                }
            }
            Insn::Halt(r) => {
                self.halt_code = Some(self.reg(r) as i32);
            }
            Insn::Br { .. }
            | Insn::Bri { .. }
            | Insn::TagBr { .. }
            | Insn::J(_)
            | Insn::Jal(..)
            | Insn::Jr(_)
            | Insn::Jalr(..) => unreachable!("control handled by exec_control"),
        }
        Ok(Retirement {
            pc,
            insn,
            write: if trap.is_some() {
                None
            } else {
                insn.def().map(|r| (r, self.reg(r)))
            },
            mem: memop,
            trap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::{Executor, FastCpu};
    use crate::insn::Cond;
    use crate::trace::{Observer, TraceBuffer};

    /// Drive the reference executor to `halt`, collecting its retirements.
    fn ref_trace(prog: &Program, hw: HwConfig) -> (Vec<Retirement>, i32, String) {
        let mut r = RefCpu::new(prog, hw, 1 << 16);
        let mut evs = Vec::new();
        for _ in 0..100_000 {
            match r.step().expect("ref executes") {
                Some(ev) => evs.push(ev),
                None => return (evs, r.halt_code().unwrap(), r.output().to_string()),
            }
        }
        panic!("reference executor did not halt");
    }

    fn both(prog: &Program, hw: HwConfig) -> (Vec<Retirement>, Vec<Retirement>) {
        let mut buf = TraceBuffer::default();
        let mut cpu = FastCpu::new(prog, hw, 1 << 16).expect("predecodes");
        let out = cpu.run_observed(100_000, &mut buf).expect("cpu runs");
        let (evs, code, output) = ref_trace(prog, hw);
        assert_eq!(out.halt_code, code);
        assert_eq!(out.output, output);
        (buf.records, evs)
    }

    #[test]
    fn straight_line_traces_match() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::A0, 40);
        asm.li(Reg::A1, 2);
        asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A1));
        asm.st(Reg::A0, Reg::Sp, 8);
        asm.ld(Reg::A2, Reg::Sp, 8);
        asm.nop();
        asm.halt(Reg::A2);
        let prog = asm.finish().unwrap();
        let (cpu_t, ref_t) = both(&prog, HwConfig::plain());
        assert_eq!(cpu_t, ref_t);
        assert_eq!(cpu_t.len(), 7);
        // The load's record carries the memory op and the loaded value.
        let ld = &cpu_t[4];
        assert_eq!(
            ld.mem,
            Some(MemOp {
                addr: 8,
                value: 42,
                store: false
            })
        );
        assert_eq!(ld.write, Some((Reg::A2, 42)));
    }

    #[test]
    fn branch_slots_and_squashes_match() {
        // Taken and untaken squashing branches, call/return: the traces must
        // agree event for event even though the executors sequence slots
        // completely differently.
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let f = asm.new_label();
        let out = asm.new_label();
        asm.li(Reg::A0, 3);
        asm.jal(f, Reg::Link);
        asm.nop();
        asm.br_raw(Cond::Eq, Reg::A0, Reg::Zero, out, true); // not taken: squash
        asm.li(Reg::A1, 9); // squashed
        asm.li(Reg::A2, 9); // squashed
        asm.br_raw(Cond::Gt, Reg::A0, Reg::Zero, out, true); // taken
        asm.li(Reg::A3, 1); // slot 1 executes
        asm.nop(); // slot 2
        asm.bind(out);
        asm.halt(Reg::A3);
        asm.bind(f);
        asm.jr(Reg::Link);
        let prog = asm.finish().unwrap();
        let (cpu_t, ref_t) = both(&prog, HwConfig::plain());
        assert_eq!(cpu_t, ref_t);
    }

    #[test]
    fn injected_add_fault_diverges() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::A0, 1);
        asm.emit(Insn::Add(Reg::A1, Reg::A0, Reg::A0));
        asm.emit(Insn::Add(Reg::A2, Reg::A1, Reg::A0));
        asm.halt(Reg::A2);
        let prog = asm.finish().unwrap();
        let (_, clean) = both(&prog, HwConfig::plain());
        let mut r = RefCpu::new(&prog, HwConfig::plain(), 1 << 16);
        r.inject_fault(Fault::AddOffByOne { nth: 2 });
        let mut evs = Vec::new();
        while let Some(ev) = r.step().unwrap() {
            evs.push(ev);
        }
        assert_ne!(clean, evs, "the fault must corrupt the trace");
        assert_eq!(clean[0..2], evs[0..2], "first add is untouched");
        assert_eq!(evs[2].write, Some((Reg::A2, 4)), "second add off by one");
        assert_eq!(r.halt_code(), Some(4));
    }

    #[test]
    fn injected_branch_fault_diverges() {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let t = asm.new_label();
        asm.li(Reg::A0, 1);
        asm.br_raw(Cond::Eq, Reg::A0, Reg::Zero, t, true); // not taken
        asm.nop();
        asm.nop();
        asm.halt(Reg::A0);
        asm.bind(t);
        asm.halt(Reg::Zero);
        let prog = asm.finish().unwrap();
        let mut r = RefCpu::new(&prog, HwConfig::plain(), 1 << 16);
        r.inject_fault(Fault::BranchInvert { nth: 1 });
        let mut evs = Vec::new();
        while let Some(ev) = r.step().unwrap() {
            evs.push(ev);
        }
        // Inverted to taken: the squashing branch now executes its slots and
        // lands on the other halt.
        assert_eq!(r.halt_code(), Some(0));
        assert_eq!(evs.len(), 5, "branch + 2 slots + halt after li");
    }

    #[test]
    fn checked_load_trap_matches_cpu() {
        use crate::insn::TagField;
        let field = TagField {
            shift: 27,
            mask: 0x1F,
        };
        let hw = HwConfig {
            parallel_check: ParallelCheck::All,
            ..HwConfig::plain()
        };
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let fail = asm.new_label();
        asm.li(Reg::T0, ((3u32 << 27) | 0x80) as i32); // wrong tag: traps
        asm.emit(Insn::LdChk {
            rd: Reg::A0,
            base: Reg::T0,
            disp: 0,
            field,
            expect: 1,
            on_fail: fail.0,
        });
        asm.halt(Reg::Zero);
        asm.bind(fail);
        asm.li(Reg::A0, -1);
        asm.halt(Reg::A0);
        let prog = asm.finish().unwrap();
        let (cpu_t, ref_t) = both(&prog, hw);
        assert_eq!(cpu_t, ref_t);
        assert!(cpu_t[1].trap.is_some(), "second record is the trap");
        assert_eq!(cpu_t[1].write, None);
    }

    #[test]
    fn observer_break_stops_cpu() {
        struct StopAfter(usize);
        impl Observer for StopAfter {
            fn retire(
                &mut self,
                _ev: &Retirement,
                _annot: crate::annot::Annot,
                _cycle: u64,
            ) -> std::ops::ControlFlow<()> {
                if self.0 == 0 {
                    return std::ops::ControlFlow::Break(());
                }
                self.0 -= 1;
                std::ops::ControlFlow::Continue(())
            }
        }
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::A0, 1);
        asm.li(Reg::A1, 2);
        asm.halt(Reg::A0);
        let prog = asm.finish().unwrap();
        let err = FastCpu::new(&prog, HwConfig::plain(), 1 << 16)
            .unwrap()
            .run_observed(1000, &mut StopAfter(1))
            .unwrap_err();
        assert!(matches!(err, SimError::Stopped { .. }));
    }
}
