//! The trace-oracle differential harness.
//!
//! Every cycle count the study reports comes out of the predecoded pipelined
//! simulator ([`mipsx::FastCpu`]); this crate checks it against a second,
//! deliberately naive implementation of the same ISA ([`mipsx::RefCpu`]). The
//! two executors run the same program **in lockstep**: `FastCpu`'s
//! retired-instruction trace (see [`mipsx::trace`]) drives one [`RefCpu::step`]
//! per retirement, and the two [`Retirement`] records are compared on the spot,
//! together with the annotation and cycle cost `FastCpu` charged for it
//! ([`RefCpu::charge`]). Every squashed delay slot is checked against the
//! slots the reference squashed, and must cost one cycle charged to its
//! branch.
//! Comparison is O(1) in memory — the benchmark workloads retire hundreds of
//! millions of instructions, so traces are never stored, only the last few
//! records for divergence context.
//!
//! After a clean run the harness also checks:
//!
//! - **final architectural state**: halt code, output stream, register file
//!   and every word of data memory agree;
//! - **statistics reconciliation**: a [`Stats`] rebuilt from the trace (using
//!   cumulative-cycle deltas) is *equal* to the simulator's own accounting —
//!   tying `committed`/`squashed`/`traps`/`class_counts`/`tag_cycles`/
//!   `check_cat_cycles` to the instruction stream they claim to summarize.
//!
//! A divergence aborts the run immediately ([`SimError::Stopped`]) and is
//! reported as a [`Divergence`] whose `Display` form shows both records plus
//! the last few retirements both executors agreed on.
//!
//! The crate's integration tests sweep every benchmark in [`programs`] and
//! 200 fixed-seed synth programs under the 24-point
//! `TagScheme × CheckingMode × hardware` oracle matrix, plus the remaining
//! tag-hardware configurations, and prove (via [`mipsx::Fault`] injection)
//! that the harness actually notices a semantics bug.

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;

use mipsx::trace::{Observer, Retirement};
use mipsx::{
    Annot, DecodedProgram, Executor, FastCpu, Fault, HwConfig, InsnClass, Mem, Program, RefCpu,
    Reg, SimError, Stats,
};

/// How many agreed retirements to keep for divergence context.
const CONTEXT: usize = 8;

/// Summary of one clean conformance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conformance {
    /// Retirements both executors agreed on.
    pub retired: u64,
    /// Squashed delay slots observed.
    pub squashed: u64,
    /// Traps taken.
    pub traps: u64,
    /// Total cycles of the pipelined run.
    pub cycles: u64,
}

/// A point where the two executors disagreed.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// Retirement `index` differs between the executors.
    Record {
        /// Zero-based index into the retirement stream.
        index: u64,
        /// What the pipelined simulator retired.
        cpu: Retirement,
        /// What the reference executor retired.
        reference: Retirement,
        /// The most recent retirements both agreed on, oldest first.
        context: Vec<Retirement>,
    },
    /// The pipeline charged a retirement a different annotation or cycle
    /// cost than the architecture prescribes.
    Charge {
        /// Zero-based index into the retirement stream.
        index: u64,
        /// The retirement (both executors agree on it).
        cpu: Retirement,
        /// What the pipelined simulator charged: annotation and cycles.
        charged: (Annot, u64),
        /// What [`RefCpu::charge`] prescribes.
        expected: (Annot, u64),
    },
    /// The pipeline squashed a delay slot the reference did not squash, or
    /// charged a squash other than one cycle to its branch's annotation.
    Squash {
        /// Retirements agreed on before the squash.
        index: u64,
        /// The delay slot in question.
        pc: usize,
    },
    /// The reference executor raised an error where the pipeline retired.
    RefError {
        /// Zero-based index into the retirement stream.
        index: u64,
        /// What the pipelined simulator retired.
        cpu: Retirement,
        /// The reference executor's error.
        error: SimError,
    },
    /// The reference executor halted while the pipeline kept retiring.
    RefHalted {
        /// Zero-based index into the retirement stream.
        index: u64,
        /// The retirement the reference executor had no answer for.
        cpu: Retirement,
    },
    /// The pipeline halted but the reference executor had not.
    RefNotHalted {
        /// Retirements agreed on before the pipeline halted.
        retired: u64,
    },
    /// Both halted, with different exit codes.
    HaltCode {
        /// Pipelined exit code.
        cpu: i32,
        /// Reference exit code.
        reference: i32,
    },
    /// Both halted, with different output streams.
    Output {
        /// Pipelined output.
        cpu: String,
        /// Reference output.
        reference: String,
    },
    /// Final register files differ.
    Register {
        /// The differing register.
        reg: Reg,
        /// Pipelined value.
        cpu: u32,
        /// Reference value.
        reference: u32,
    },
    /// Final data memories differ.
    Memory {
        /// Differing word's byte address.
        addr: u32,
        /// Pipelined value.
        cpu: u32,
        /// Reference value.
        reference: u32,
    },
    /// The [`Stats`] rebuilt from the trace do not equal the simulator's.
    Stats {
        /// What the simulator accounted.
        simulator: Box<Stats>,
        /// What the trace adds up to.
        rebuilt: Box<Stats>,
    },
}

fn fmt_record(f: &mut fmt::Formatter<'_>, r: &Retirement) -> fmt::Result {
    write!(f, "pc {:>6}  `{}`", r.pc, r.insn)?;
    if let Some((reg, v)) = r.write {
        write!(f, "  {reg} <- {v:#010x}")?;
    }
    if let Some(m) = r.mem {
        let arrow = if m.store { "<-" } else { "->" };
        write!(f, "  mem[{:#x}] {} {:#010x}", m.addr, arrow, m.value)?;
    }
    if let Some(t) = r.trap {
        write!(f, "  TRAP -> pc {t}")?;
    }
    Ok(())
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Record {
                index,
                cpu,
                reference,
                context,
            } => {
                writeln!(f, "trace divergence at retirement #{index}:")?;
                write!(f, "  pipelined: ")?;
                fmt_record(f, cpu)?;
                writeln!(f)?;
                write!(f, "  reference: ")?;
                fmt_record(f, reference)?;
                writeln!(f)?;
                writeln!(f, "  last {} agreed retirements:", context.len())?;
                for (i, r) in context.iter().enumerate() {
                    write!(f, "    #{:>6}  ", index - context.len() as u64 + i as u64)?;
                    fmt_record(f, r)?;
                    writeln!(f)?;
                }
                Ok(())
            }
            Divergence::Charge {
                index,
                cpu,
                charged,
                expected,
            } => {
                writeln!(f, "charge divergence at retirement #{index}:")?;
                write!(f, "  retired:   ")?;
                fmt_record(f, cpu)?;
                writeln!(f)?;
                writeln!(f, "  pipelined: {:?}, {} cycles", charged.0, charged.1)?;
                write!(f, "  reference: {:?}, {} cycles", expected.0, expected.1)
            }
            Divergence::Squash { index, pc } => write!(
                f,
                "squash divergence at delay slot pc {pc}, after retirement #{index}"
            ),
            Divergence::RefError { index, cpu, error } => {
                writeln!(f, "reference executor failed at retirement #{index}: {error}")?;
                write!(f, "  pipelined retired: ")?;
                fmt_record(f, cpu)
            }
            Divergence::RefHalted { index, cpu } => {
                writeln!(f, "reference executor halted early, at retirement #{index}:")?;
                write!(f, "  pipelined retired: ")?;
                fmt_record(f, cpu)
            }
            Divergence::RefNotHalted { retired } => write!(
                f,
                "pipeline halted after {retired} retirements; reference executor had not"
            ),
            Divergence::HaltCode { cpu, reference } => {
                write!(f, "halt codes differ: pipelined {cpu}, reference {reference}")
            }
            Divergence::Output { cpu, reference } => write!(
                f,
                "output streams differ: pipelined {cpu:?}, reference {reference:?}"
            ),
            Divergence::Register {
                reg,
                cpu,
                reference,
            } => write!(
                f,
                "final {reg} differs: pipelined {cpu:#010x}, reference {reference:#010x}"
            ),
            Divergence::Memory {
                addr,
                cpu,
                reference,
            } => write!(
                f,
                "final mem[{addr:#x}] differs: pipelined {cpu:#010x}, reference {reference:#010x}"
            ),
            Divergence::Stats { simulator, rebuilt } => write!(
                f,
                "statistics do not reconcile with the trace:\n  simulator: {simulator:?}\n  rebuilt:   {rebuilt:?}"
            ),
        }
    }
}

/// A conformance-check failure: either an ordinary simulation error (both
/// executors are allowed to fail, e.g. out of fuel) or a divergence.
#[derive(Debug, Clone)]
pub enum CheckError {
    /// The pipelined simulator failed outright (not observer-stopped).
    Sim(SimError),
    /// The executors disagreed.
    Diverged(Box<Divergence>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Sim(e) => write!(f, "simulation failed: {e}"),
            CheckError::Diverged(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// The lockstep observer: drives the reference executor one step per pipelined
/// retirement and rebuilds the statistics from the trace as it goes.
struct Lockstep<'p> {
    reference: RefCpu<'p>,
    index: u64,
    context: VecDeque<Retirement>,
    divergence: Option<Divergence>,
    rebuilt: Stats,
    last_cycle: u64,
    squashed: u64,
    traps: u64,
    /// Slots the reference squashed after the last retirement that the
    /// pipeline has not yet reported: `(next slot pc, count)`.
    pending_squash: Option<(usize, usize)>,
}

impl<'p> Lockstep<'p> {
    fn new(reference: RefCpu<'p>) -> Self {
        Lockstep {
            reference,
            index: 0,
            context: VecDeque::with_capacity(CONTEXT + 1),
            divergence: None,
            rebuilt: Stats::default(),
            last_cycle: 0,
            squashed: 0,
            traps: 0,
            pending_squash: None,
        }
    }

    fn diverge(&mut self, d: Divergence) -> ControlFlow<()> {
        self.divergence.get_or_insert(d);
        ControlFlow::Break(())
    }
}

impl Observer for Lockstep<'_> {
    fn retire(&mut self, ev: &Retirement, annot: Annot, cycle: u64) -> ControlFlow<()> {
        // A squash divergence is recorded by `squash`, which cannot stop the
        // run; stop at the next retirement. (Slots the reference squashed
        // but the pipeline did not show up as a record divergence below.)
        if self.divergence.is_some() {
            return ControlFlow::Break(());
        }
        // Rebuild the statistics exactly as the simulator accounts them: the
        // cumulative-cycle delta is this retirement's cost.
        let delta = cycle - self.last_cycle;
        self.last_cycle = cycle;
        if ev.trap.is_some() {
            self.traps += 1;
            self.rebuilt.record_trap(annot, delta);
        } else {
            self.rebuilt.record(InsnClass::of(ev.insn), annot, delta);
        }

        let step = self.reference.step();
        match step {
            Ok(Some(r)) if r == *ev => {
                let expected = self.reference.charge(&r);
                if (annot, delta) != expected {
                    return self.diverge(Divergence::Charge {
                        index: self.index,
                        cpu: *ev,
                        charged: (annot, delta),
                        expected,
                    });
                }
                self.pending_squash = self.reference.take_squashed();
                self.index += 1;
                self.context.push_back(*ev);
                if self.context.len() > CONTEXT {
                    self.context.pop_front();
                }
                ControlFlow::Continue(())
            }
            Ok(Some(r)) => {
                self.divergence = Some(Divergence::Record {
                    index: self.index,
                    cpu: *ev,
                    reference: r,
                    context: self.context.iter().copied().collect(),
                });
                ControlFlow::Break(())
            }
            Ok(None) => {
                self.divergence = Some(Divergence::RefHalted {
                    index: self.index,
                    cpu: *ev,
                });
                ControlFlow::Break(())
            }
            Err(error) => {
                self.divergence = Some(Divergence::RefError {
                    index: self.index,
                    cpu: *ev,
                    error,
                });
                ControlFlow::Break(())
            }
        }
    }

    fn squash(&mut self, pc: usize, branch_annot: Annot, cycle: u64) {
        let delta = cycle - self.last_cycle;
        self.last_cycle = cycle;
        self.squashed += 1;
        self.rebuilt.record_squashed(branch_annot);
        // The reference squashed this very slot, after the branch that was
        // just retired, whose annotation the cycle is charged to.
        let branch_annot_ok = self
            .context
            .back()
            .is_some_and(|b| self.reference.charge(b).0 == branch_annot);
        match self.pending_squash {
            Some((next, n)) if next == pc && delta == 1 && branch_annot_ok => {
                self.pending_squash = (n > 1).then_some((next + 1, n - 1));
            }
            _ => {
                let _ = self.diverge(Divergence::Squash {
                    index: self.index,
                    pc,
                });
            }
        }
    }
}

/// Check one program: run it on [`FastCpu`] and the reference executor in
/// lockstep and verify trace, final state, and statistics agreement.
/// `fault`, if given, is injected into the *reference* executor — used by
/// self-tests to prove the harness notices a semantics bug.
///
/// # Errors
///
/// [`CheckError::Diverged`] when the executors disagree, [`CheckError::Sim`]
/// when `FastCpu` itself fails (e.g. out of fuel, or absent hardware at
/// predecode).
pub fn check_program(
    prog: &Program,
    hw: HwConfig,
    mem_bytes: usize,
    fuel: u64,
    fault: Option<Fault>,
) -> Result<Conformance, CheckError> {
    let decoded = DecodedProgram::decode(prog, hw).map_err(CheckError::Sim)?;
    check_decoded(prog, decoded, hw, mem_bytes, fuel, fault)
}

/// [`check_program`] with `FastCpu` running `decoded`, `prog`'s predecode.
fn check_decoded(
    prog: &Program,
    decoded: DecodedProgram,
    hw: HwConfig,
    mem_bytes: usize,
    fuel: u64,
    fault: Option<Fault>,
) -> Result<Conformance, CheckError> {
    let mut reference = RefCpu::new(prog, hw, mem_bytes);
    if let Some(fault) = fault {
        reference.inject_fault(fault);
    }
    let mut lockstep = Lockstep::new(reference);
    let mut cpu = FastCpu::from_decoded(prog, decoded, mem_bytes);

    let outcome = match cpu.run_observed(fuel, &mut lockstep) {
        Ok(outcome) => outcome,
        Err(SimError::Stopped { .. }) => {
            let d = lockstep
                .divergence
                .expect("a stopped run always stores its divergence");
            return Err(CheckError::Diverged(Box::new(d)));
        }
        Err(e) => return Err(CheckError::Sim(e)),
    };

    let reference = &mut lockstep.reference;
    let diverged = |d: Divergence| Err(CheckError::Diverged(Box::new(d)));

    // The pipeline has halted; the reference executor's very next step must
    // report that it has halted too.
    match reference.step() {
        Ok(None) => {}
        _ => {
            return diverged(Divergence::RefNotHalted {
                retired: lockstep.index,
            })
        }
    }
    let ref_code = reference.halt_code().expect("halted");
    if ref_code != outcome.halt_code {
        return diverged(Divergence::HaltCode {
            cpu: outcome.halt_code,
            reference: ref_code,
        });
    }
    if reference.output() != outcome.output {
        return diverged(Divergence::Output {
            cpu: outcome.output.clone(),
            reference: reference.output().to_string(),
        });
    }
    for i in 0..32 {
        let (c, r) = (cpu.regs()[i], reference.regs()[i]);
        if c != r {
            return diverged(Divergence::Register {
                reg: Reg::from_index(i),
                cpu: c,
                reference: r,
            });
        }
    }
    if let Some(d) = memory_divergence(cpu.mem(), reference.mem()) {
        return diverged(d);
    }
    if lockstep.rebuilt != outcome.stats {
        return diverged(Divergence::Stats {
            simulator: Box::new(outcome.stats),
            rebuilt: Box::new(lockstep.rebuilt),
        });
    }

    Ok(Conformance {
        retired: lockstep.index,
        squashed: lockstep.squashed,
        traps: lockstep.traps,
        cycles: outcome.stats.cycles,
    })
}

/// The lowest word at which the final memories differ, over their whole
/// size: words past either side's materialised prefix read as 0.
fn memory_divergence(cpu: &Mem, reference: &Mem) -> Option<Divergence> {
    let addr = cpu.first_difference(reference)?;
    let word = |m: &Mem| m.load(addr).unwrap_or(0);
    Some(Divergence::Memory {
        addr,
        cpu: word(cpu),
        reference: word(reference),
    })
}

/// [`check_program`] for a compiled Lisp program, under its compiled-for
/// hardware. `FastCpu` runs [`lisp::CompiledProgram::predecode`], the ops
/// every fast run of the program executes.
///
/// # Errors
///
/// As [`check_program`].
pub fn check_compiled(
    compiled: &lisp::CompiledProgram,
    fuel: u64,
    fault: Option<Fault>,
) -> Result<Conformance, CheckError> {
    let decoded = compiled.predecode().map_err(CheckError::Sim)?;
    check_decoded(
        &compiled.program,
        decoded,
        compiled.hw,
        compiled.mem_bytes,
        fuel,
        fault,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx::{Asm, Cond, Insn};

    fn tiny_program() -> Program {
        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        let loop_top = asm.new_label();
        asm.li(Reg::A0, 0);
        asm.li(Reg::A1, 10);
        asm.bind(loop_top);
        asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::TrueR));
        asm.emit(Insn::Addi(Reg::A1, Reg::A1, -1));
        asm.br_raw(Cond::Gt, Reg::A1, Reg::Zero, loop_top, true);
        asm.nop();
        asm.nop();
        asm.halt(Reg::A1);
        asm.finish().expect("assembles")
    }

    #[test]
    fn clean_program_conforms() {
        let prog = tiny_program();
        let c = check_program(&prog, HwConfig::plain(), 1 << 12, 10_000, None).unwrap();
        assert!(c.retired > 10);
        assert_eq!(c.traps, 0);
        assert!(c.cycles >= c.retired, "every retirement costs >= 1 cycle");
    }

    #[test]
    fn injected_fault_is_reported_with_context() {
        let prog = tiny_program();
        let err = check_program(
            &prog,
            HwConfig::plain(),
            1 << 12,
            10_000,
            Some(Fault::AddOffByOne { nth: 3 }),
        )
        .unwrap_err();
        let CheckError::Diverged(d) = err else {
            panic!("expected divergence, got {err}");
        };
        let report = d.to_string();
        assert!(report.contains("trace divergence"), "{report}");
        assert!(report.contains("pipelined:"), "{report}");
        assert!(report.contains("reference:"), "{report}");
        assert!(report.contains("agreed retirements"), "{report}");
        match *d {
            Divergence::Record { cpu, reference, .. } => {
                assert_eq!(cpu.pc, reference.pc, "same instruction, different result");
                assert_ne!(cpu.write, reference.write);
            }
            other => panic!("expected a record divergence, got {other}"),
        }
    }

    #[test]
    fn injected_branch_fault_is_caught() {
        let prog = tiny_program();
        let err = check_program(
            &prog,
            HwConfig::plain(),
            1 << 12,
            10_000,
            Some(Fault::BranchInvert { nth: 10 }),
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::Diverged(_)), "got {err}");
    }

    /// The charge and squash checks bite: a retirement charged the wrong
    /// cycle cost, and a squash the reference did not make, both diverge.
    #[test]
    fn wrong_charges_and_squashes_diverge() {
        let prog = tiny_program();
        let hw = HwConfig::plain();
        // The first retirement, `li a0, 0`, costs one cycle.
        let first = RefCpu::new(&prog, hw, 1 << 12).step().unwrap().unwrap();
        let annot = prog.annots[first.pc];

        let mut lockstep = Lockstep::new(RefCpu::new(&prog, hw, 1 << 12));
        assert!(lockstep.retire(&first, annot, 2).is_break());
        assert!(matches!(
            lockstep.divergence,
            Some(Divergence::Charge { .. })
        ));

        let mut lockstep = Lockstep::new(RefCpu::new(&prog, hw, 1 << 12));
        assert!(lockstep.retire(&first, annot, 1).is_continue());
        lockstep.squash(first.pc + 1, annot, 2);
        let d = lockstep.divergence.expect("an unexpected squash diverges");
        assert!(matches!(d, Divergence::Squash { .. }), "{d}");
    }

    /// Memories that differ only past one side's materialised prefix
    /// diverge at that address; one materialised further with zeroes only
    /// does not diverge.
    #[test]
    fn memory_compares_past_either_prefix() {
        const SIZE: usize = 1 << 20;
        let (mut cpu, mut reference) = (Mem::new(SIZE), Mem::new(SIZE));
        assert!(cpu.store(16, 3) && reference.store(16, 3));
        assert!(reference.store(0x8_0000, 0));
        assert!(reference.words().len() > cpu.words().len());
        assert!(memory_divergence(&cpu, &reference).is_none());
        assert!(memory_divergence(&reference, &cpu).is_none());

        assert!(reference.store(0x7_0000, 42));
        assert!(cpu.words().len() * 4 <= 0x7_0000, "past the cpu's prefix");
        match memory_divergence(&cpu, &reference) {
            Some(Divergence::Memory {
                addr,
                cpu,
                reference,
            }) => assert_eq!((addr, cpu, reference), (0x7_0000, 0, 42)),
            other => panic!("expected a memory divergence, got {other:?}"),
        }
    }

    #[test]
    fn out_of_fuel_is_a_sim_error_not_a_divergence() {
        let prog = tiny_program();
        let err = check_program(&prog, HwConfig::plain(), 1 << 12, 5, None).unwrap_err();
        assert!(matches!(err, CheckError::Sim(SimError::OutOfFuel { .. })));
    }
}
