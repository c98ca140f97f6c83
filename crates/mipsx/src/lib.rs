//! An instruction-level simulator for a MIPS-X-like reduced-instruction-set
//! processor, with the tag-handling hardware extensions studied in Steenkiste &
//! Hennessy (ASPLOS 1987).
//!
//! The paper's methodology rests on a RISC property it states explicitly: execution
//! time "depends directly on" instruction count (ignoring cache misses). This
//! simulator therefore charges one cycle per instruction (a few cycles for
//! multiply/divide), models the two pipeline features that matter to the study —
//! **squashed delayed branches** with two delay slots and a **one-cycle load delay**
//! — and attributes every cycle to the tag operation (if any) that the instruction
//! implements.
//!
//! # Architecture summary
//!
//! - 32 general registers, `r0` wired to zero; 32-bit words; byte addresses with
//!   word-aligned memory (the bottom two address bits are dropped, as on MIPS-X).
//! - Conditional branches have two delay slots executed while the condition
//!   resolves; *squashing* branches cancel the slots when the branch does not go
//!   (the cycles are wasted and counted as squashed). Unconditional jumps have one
//!   delay slot.
//! - Loads have one delay slot: the instruction after a load must not read the
//!   loaded register ([`verify`] enforces this statically; [`sched`] fills or pads).
//! - Code and data live in separate spaces (the simulator is not used for
//!   self-modifying code); the program counter indexes instructions.
//!
//! # Hardware extensions (paper §5–§6, Table 2)
//!
//! All extensions are gated by [`HwConfig`]:
//!
//! - *address tag dropping* (row 1 hardware variant): loads and stores ignore the
//!   top `n` bits of every effective address;
//! - *tag branch* (row 2): [`Insn::TagBr`] compares a bit-field of a register with a
//!   constant and branches, without a separate extract instruction;
//! - *parallel checked memory access* (rows 5–6): [`Insn::LdChk`]/[`Insn::StChk`]
//!   check the tag of the base register during address calculation and trap on
//!   mismatch;
//! - *generic arithmetic* (row 4): [`Insn::AddG`]/[`Insn::SubG`] perform an integer
//!   add/subtract while testing both operands and the result, trapping to a software
//!   routine otherwise.
//!
//! # Example
//!
//! Programs run on either [`Executor`] backend — the predecoded [`FastCpu`]
//! (the default, which produces every reported number) or the reference
//! [`RefCpu`], the oracle it is checked against; both produce identical
//! results (see the [`exec`] module docs).
//!
//! ```
//! use mipsx::{Asm, Backend, Executor, HwConfig, Insn, Reg};
//!
//! let mut asm = Asm::new();
//! let entry = asm.here("entry");
//! asm.set_entry(entry);
//! asm.li(Reg::A0, 2);
//! asm.li(Reg::A1, 40);
//! asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A1));
//! asm.emit(Insn::Halt(Reg::A0));
//! let prog = asm.finish().unwrap();
//!
//! let mut cpu = Backend::default()
//!     .executor(&prog, HwConfig::plain(), 1 << 16)
//!     .unwrap();
//! let outcome = cpu.run(10_000).unwrap();
//! assert_eq!(outcome.halt_code, 42);
//! ```

#![deny(missing_docs)]

mod annot;
mod asm;
mod hw;
mod insn;
mod mem;
mod program;
mod refcpu;
mod reg;
mod stats;

pub mod exec;
pub mod profile;
pub mod sched;
pub mod symtab;
pub mod timing;
pub mod trace;
pub mod verify;

pub use annot::{Annot, CheckCat, Provenance, TagOpKind, ALL_CHECK_CATS, ALL_TAG_OPS};
pub use asm::{Asm, AsmError, Label};
pub use exec::{
    AnyExecutor, Backend, DecodedProgram, Executor, FastCpu, Outcome, SimError, ALL_BACKENDS,
};
pub use hw::{HwConfig, ParallelCheck, HW_LEVELS};
pub use insn::{Cond, FpOp, Insn, IntTest, TagField, WriteKind};
pub use mem::Mem;
pub use profile::{FuncProfile, PcProfile, Profiler};
pub use program::Program;
pub use refcpu::{Fault, RefCpu};
pub use reg::{Reg, RegSet};
pub use stats::{InsnClass, Stats, ALL_CLASSES};
pub use symtab::{CallSite, FuncSym, SymbolTable};
pub use timing::{
    CacheParams, FuncStalls, PredictorKind, StallCause, TimingConfig, TimingModel, TimingStats,
    ALL_STALL_CAUSES, TIMING_PRESETS,
};
