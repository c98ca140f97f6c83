//! Static well-formedness checks for assembled programs.
//!
//! The simulator also detects these conditions dynamically, but only on paths a
//! test happens to execute; this verifier checks the whole program once, right
//! after code generation, so that scheduling bugs surface deterministically.
//!
//! Every compile runs it over the whole linked program, so [`verify`] is
//! one pass that allocates nothing. The unit tests keep a two-pass
//! verifier (mark every slot, then scan) as its reference and compare the
//! two on random streams, which violation is reported first included.

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

/// Whether position `p` of `insns` is a delay slot: one of the two
/// positions after a conditional branch, or the position after a jump.
/// Slots are at most two deep, so only the two instructions before `p`
/// decide it.
fn in_slot(insns: &[Insn], p: usize) -> bool {
    (p >= 1 && insns[p - 1].delay_slots() >= 1) || (p >= 2 && insns[p - 2].delay_slots() >= 2)
}

/// Check all static pipeline rules. Returns the first violation found.
///
/// One pass, allocating nothing. A position's slot state follows from the
/// two instructions before it, so the pass carries it forward, and a
/// target's is read where the target is. The violations come in a fixed
/// order, the order of a pass that marks every slot first and then scans:
/// a control instruction whose slots run past the end (only one of the
/// last two positions can have such slots) before anything else; then, by
/// position, a control or trapping instruction in a slot, a target out of
/// range or in a slot, and a load in a branch's last slot or followed by a
/// reader of its register; then an entry in a slot.
///
/// # Errors
///
/// Any [`VerifyError`]; a verified program cannot produce
/// [`crate::SimError::ControlInSlot`] or (statically detectable)
/// [`crate::SimError::LoadDelayViolation`] at run time.
pub fn verify(prog: &Program) -> Result<(), VerifyError> {
    let insns = &prog.insns[..];
    let n = insns.len();
    let last_two = n.saturating_sub(2);
    for (pc, insn) in (last_two..).zip(&insns[last_two..]) {
        let slots = insn.delay_slots();
        if slots > 0 && pc + slots >= n {
            return Err(VerifyError::TruncatedSlots { pc });
        }
    }

    // Delay slots still to come after the previous position.
    let mut pending = 0usize;
    for (pc, insn) in insns.iter().copied().enumerate() {
        let here = pending > 0;
        pending = insn.delay_slots().max(pending.saturating_sub(1));
        if here {
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
            if in_slot(insns, t) {
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
            // A load in the *last* delay slot would need cross-block
            // analysis. `pending` now says whether the next position is a
            // slot.
            if here && pending == 0 {
                return Err(VerifyError::LoadInLastSlot { pc });
            }
            if pc + 1 < n && insns[pc + 1].uses().contains(rd) {
                return Err(VerifyError::LoadDelayHazard { load: pc, reg: rd });
            }
        }
    }

    if n > 0 && in_slot(insns, prog.entry) {
        return Err(VerifyError::EntryInSlot { entry: prog.entry });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::asm::Asm;
    use crate::insn::{Cond, IntTest, TagField};

    /// The two-pass verifier [`verify`] replaced, kept as its reference:
    /// mark every delay slot in a vector, then scan.
    fn verify_two_pass(prog: &Program) -> Result<(), VerifyError> {
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
            let loaded = match insn {
                Insn::Ld(rd, ..) | Insn::LdChk { rd, .. } => Some(rd),
                _ => None,
            };
            if let Some(rd) = loaded {
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

    /// Few registers, so a load is often followed by a reader of its
    /// register.
    const POOL: [Reg; 3] = [Reg::A0, Reg::T0, Reg::T1];

    /// One instruction from a menu of straight, load, store, control and
    /// trapping forms; `target` is a branch target or trap target, and may
    /// lie past the end of the stream.
    fn insn((kind, a, b, target): (u8, usize, usize, u32)) -> Insn {
        let (a, b) = (POOL[a], POOL[b]);
        let field = TagField {
            shift: 27,
            mask: 0x1F,
        };
        match kind {
            0 => Insn::Add(a, a, b),
            1 => Insn::Ld(a, b, 4),
            2 => Insn::St {
                src: a,
                base: b,
                disp: 4,
            },
            3 => Insn::Br {
                cond: Cond::Eq,
                rs: a,
                rt: b,
                target,
                squash: a == b,
            },
            4 => Insn::Bri {
                cond: Cond::Ne,
                rs: a,
                imm: 3,
                target,
                squash: false,
            },
            5 => Insn::TagBr {
                rs: a,
                field,
                value: 2,
                neq: a == b,
                target,
                squash: false,
            },
            6 => Insn::J(target),
            7 => Insn::Jal(target, Reg::Link),
            8 => Insn::Jr(a),
            9 => Insn::LdChk {
                rd: a,
                base: b,
                disp: 0,
                field,
                expect: 1,
                on_fail: target,
            },
            10 => Insn::StChk {
                src: a,
                base: b,
                disp: 0,
                field,
                expect: 1,
                on_fail: target,
            },
            11 => Insn::AddG {
                rd: a,
                rs: a,
                rt: b,
                int_test: IntTest::LowBitsZero(2),
                on_fail: target,
            },
            12 => Insn::Halt(a),
            _ => Insn::Nop,
        }
    }

    /// A stream of up to 23 instructions, about half of them `nop`s, with
    /// targets up to 3 past its end, and an entry anywhere in it.
    fn program() -> impl Strategy<Value = Program> {
        let one = prop_oneof![
            Just(Insn::Nop),
            (0u8..14, 0usize..3, 0usize..3, 0u32..26).prop_map(insn),
        ];
        (prop::collection::vec(one, 0..24), any::<u64>()).prop_map(|(insns, entry)| Program {
            entry: (entry % insns.len().max(1) as u64) as usize,
            annots: vec![crate::Annot::NONE; insns.len()],
            insns,
            ..Program::default()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The one-pass verifier returns exactly the two-pass one's result,
        /// which violation comes first included.
        #[test]
        fn one_pass_equals_two_pass(prog in program()) {
            prop_assert_eq!(verify(&prog), verify_two_pass(&prog));
        }
    }

    /// The generator above reaches every outcome, so the comparison covers
    /// each violation and a clean pass.
    #[test]
    fn the_generated_streams_reach_every_outcome() {
        let mut rng = proptest::TestRng::deterministic("verify::the_generated_streams");
        let strategy = program();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4096 {
            let outcome = match verify(&Strategy::generate(&strategy, &mut rng)) {
                Ok(()) => "ok",
                Err(VerifyError::ControlInSlot { .. }) => "control in slot",
                Err(VerifyError::TrapInSlot { .. }) => "trap in slot",
                Err(VerifyError::TargetInSlot { .. }) => "target in slot",
                Err(VerifyError::TargetOutOfRange { .. }) => "target out of range",
                Err(VerifyError::LoadDelayHazard { .. }) => "load delay",
                Err(VerifyError::LoadInLastSlot { .. }) => "load in last slot",
                Err(VerifyError::TruncatedSlots { .. }) => "truncated",
                Err(VerifyError::EntryInSlot { .. }) => "entry in slot",
            };
            seen.insert(outcome);
        }
        assert_eq!(seen.len(), 9, "{seen:?}");
    }

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
