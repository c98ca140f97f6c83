//! Static well-formedness checks for assembled programs.
//!
//! The simulator also detects these conditions dynamically, but only on paths a
//! test happens to execute; this verifier checks the whole program once, right
//! after code generation, so that scheduling bugs surface deterministically.

use std::fmt;

use crate::insn::Insn;
use crate::program::Program;
use crate::reg::Reg;

/// A static rule violation found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A control-transfer instruction sits in another's delay slot.
    ControlInSlot {
        /// The offending instruction index.
        pc: usize,
    },
    /// A trapping instruction (checked memory / generic arithmetic) sits in a
    /// delay slot, where a trap redirect would corrupt the pipeline model.
    TrapInSlot {
        /// The offending instruction index.
        pc: usize,
    },
    /// A branch or jump target lands inside somebody's delay slot.
    TargetInSlot {
        /// The branch instruction index.
        branch: usize,
        /// The bad target.
        target: usize,
    },
    /// A control target is outside the program.
    TargetOutOfRange {
        /// The branch instruction index.
        branch: usize,
        /// The bad target.
        target: usize,
    },
    /// The instruction after a load reads the loaded register.
    LoadDelayHazard {
        /// The load's index.
        load: usize,
        /// The register read one cycle too early.
        reg: Reg,
    },
    /// A load in the final delay slot of a branch, where its delay would span a
    /// block boundary (conservatively rejected).
    LoadInLastSlot {
        /// The load's index.
        pc: usize,
    },
    /// The program ends inside a control instruction's delay slots.
    TruncatedSlots {
        /// The control instruction's index.
        pc: usize,
    },
    /// The entry point is inside a delay slot.
    EntryInSlot {
        /// The entry index.
        entry: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ControlInSlot { pc } => write!(f, "control transfer in slot at {pc}"),
            VerifyError::TrapInSlot { pc } => write!(f, "trapping instruction in slot at {pc}"),
            VerifyError::TargetInSlot { branch, target } => {
                write!(f, "branch at {branch} targets delay slot {target}")
            }
            VerifyError::TargetOutOfRange { branch, target } => {
                write!(f, "branch at {branch} targets out-of-range {target}")
            }
            VerifyError::LoadDelayHazard { load, reg } => {
                write!(f, "load at {load}: next instruction reads {reg}")
            }
            VerifyError::LoadInLastSlot { pc } => write!(f, "load in last delay slot at {pc}"),
            VerifyError::TruncatedSlots { pc } => {
                write!(f, "program ends inside delay slots of {pc}")
            }
            VerifyError::EntryInSlot { entry } => write!(f, "entry {entry} is a delay slot"),
        }
    }
}

impl std::error::Error for VerifyError {}

fn targets(insn: Insn) -> Option<u32> {
    match insn {
        Insn::Br { target, .. } | Insn::TagBr { target, .. } | Insn::J(target) => Some(target),
        Insn::Jal(target, _) => Some(target),
        Insn::LdChk { on_fail, .. }
        | Insn::StChk { on_fail, .. }
        | Insn::AddG { on_fail, .. }
        | Insn::SubG { on_fail, .. } => Some(on_fail),
        _ => None,
    }
}

/// Check all static pipeline rules. Returns the first violation found.
///
/// # Errors
///
/// Any [`VerifyError`]; a verified program cannot produce
/// [`crate::SimError::ControlInSlot`] or (statically detectable)
/// [`crate::SimError::LoadDelayViolation`] at run time.
pub fn verify(prog: &Program) -> Result<(), VerifyError> {
    let n = prog.insns.len();
    // Mark delay-slot positions.
    let mut in_slot = vec![false; n];
    let mut i = 0;
    while i < n {
        let slots = prog.insns[i].delay_slots();
        if slots > 0 {
            if i + slots >= n {
                return Err(VerifyError::TruncatedSlots { pc: i });
            }
            for s in 1..=slots {
                in_slot[i + s] = true;
            }
            // Slots themselves are scanned for violations below; a control insn in
            // a slot has its own "slots" which we must not double-mark, so skip
            // past the group only when the slots are sane.
        }
        i += 1;
    }

    for (pc, insn) in prog.insns.iter().copied().enumerate() {
        if in_slot[pc] {
            if insn.is_control() {
                return Err(VerifyError::ControlInSlot { pc });
            }
            if insn.can_trap() {
                return Err(VerifyError::TrapInSlot { pc });
            }
        }
        if let Some(t) = targets(insn) {
            let t = t as usize;
            if t >= n {
                return Err(VerifyError::TargetOutOfRange {
                    branch: pc,
                    target: t,
                });
            }
            if in_slot[t] {
                return Err(VerifyError::TargetInSlot {
                    branch: pc,
                    target: t,
                });
            }
        }
        // Load-delay: linear adjacency.
        let loaded = match insn {
            Insn::Ld(rd, ..) | Insn::LdChk { rd, .. } => Some(rd),
            _ => None,
        };
        if let Some(rd) = loaded {
            // A load in the *last* delay slot would need cross-block analysis.
            let is_last_slot = in_slot[pc] && (pc + 1 >= n || !in_slot[pc + 1]);
            if is_last_slot {
                return Err(VerifyError::LoadInLastSlot { pc });
            }
            if pc + 1 < n && prog.insns[pc + 1].uses().contains(rd) {
                return Err(VerifyError::LoadDelayHazard { load: pc, reg: rd });
            }
        }
    }

    if n > 0 && in_slot[prog.entry] {
        return Err(VerifyError::EntryInSlot { entry: prog.entry });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::Cond;

    fn entry(asm: &mut Asm) {
        let e = asm.here("entry");
        asm.set_entry(e);
    }

    #[test]
    fn clean_program_verifies() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let t = asm.new_label();
        asm.li(Reg::A0, 1);
        asm.beq(Reg::A0, Reg::Zero, t);
        asm.bind(t);
        asm.halt(Reg::A0);
        verify(&asm.finish().unwrap()).unwrap();
    }

    #[test]
    fn detects_control_in_slot() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let t = asm.new_label();
        asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, t, false);
        asm.emit(Insn::J(t.0));
        asm.nop();
        asm.bind(t);
        asm.halt(Reg::Zero);
        assert!(matches!(
            verify(&asm.finish().unwrap()),
            Err(VerifyError::ControlInSlot { .. })
        ));
    }

    #[test]
    fn detects_target_into_slot() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let slot_label = asm.new_label();
        let top = asm.new_label();
        asm.bind(top);
        asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, slot_label, false);
        asm.bind(slot_label); // label on the first delay slot
        asm.nop();
        asm.nop();
        asm.halt(Reg::Zero);
        assert!(matches!(
            verify(&asm.finish().unwrap()),
            Err(VerifyError::TargetInSlot { .. })
        ));
    }

    #[test]
    fn detects_load_hazard() {
        let mut asm = Asm::new();
        entry(&mut asm);
        asm.ld(Reg::A0, Reg::Sp, 0);
        asm.emit(Insn::Add(Reg::A1, Reg::A0, Reg::Zero));
        asm.halt(Reg::A1);
        assert!(matches!(
            verify(&asm.finish().unwrap()),
            Err(VerifyError::LoadDelayHazard { reg: Reg::A0, .. })
        ));
    }

    #[test]
    fn detects_truncated_slots() {
        let mut asm = Asm::new();
        entry(&mut asm);
        let t = asm.new_label();
        asm.bind(t);
        asm.emit(Insn::J(t.0)); // no slot follows
        assert!(matches!(
            verify(&asm.finish().unwrap()),
            Err(VerifyError::TruncatedSlots { .. })
        ));
    }

    #[test]
    fn detects_trap_in_slot() {
        use crate::insn::TagField;
        let mut asm = Asm::new();
        entry(&mut asm);
        let t = asm.new_label();
        asm.br_raw(Cond::Eq, Reg::Zero, Reg::Zero, t, false);
        asm.emit(Insn::LdChk {
            rd: Reg::A0,
            base: Reg::A1,
            disp: 0,
            field: TagField {
                shift: 27,
                mask: 0x1F,
            },
            expect: 1,
            on_fail: t.0,
        });
        asm.nop();
        asm.bind(t);
        asm.halt(Reg::Zero);
        assert!(matches!(
            verify(&asm.finish().unwrap()),
            Err(VerifyError::TrapInSlot { .. })
        ));
    }
}
