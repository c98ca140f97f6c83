//! A PSL-like Lisp system targeting the [`mipsx`] simulator.
//!
//! This crate is the software half of the reproduction: a small, efficient Lisp
//! dialect in the spirit of Portable Standard Lisp, compiled to MIPS-X-like machine
//! code. Everything the paper varies is a compile-time parameter here:
//!
//! - the **tag scheme** ([`tagword::TagScheme`]): where tags live in the word and
//!   how integers are encoded;
//! - the **checking mode** ([`CheckingMode`]): no run-time checking vs. full
//!   run-time checking on list, vector and arithmetic operations (the two extremes
//!   the paper measures);
//! - the **hardware support** ([`mipsx::HwConfig`]): tag-ignoring memory access,
//!   tag branches, parallel checked loads/stores, trap-based generic arithmetic.
//!
//! The code generator emits exactly the instruction sequences the paper costs out
//! (two-cycle tag insertion, one-cycle masking, one-cycle extraction, three-cycle
//! high-tag integer tests, ten-cycle integer-biased generic adds), and annotates
//! every instruction with the tag operation it implements so the simulator can
//! attribute cycles the way the paper's figures do.
//!
//! # Example
//!
//! ```
//! use lisp::{compile, run, CheckingMode, Options};
//!
//! let opts = Options::default();
//! let compiled = compile("(defun main () (plus 40 2))", &opts).unwrap();
//! let outcome = run(&compiled, 1_000_000).unwrap();
//! assert_eq!(outcome.halt_code, 0); // clean exit
//! # let _ = CheckingMode::Full;
//! ```
//!
//! The result of the program's `main` is printed via `prin1` only if the program
//! does so itself; the halt code is 0 on success.

#![deny(missing_docs)]

pub mod ast;
mod codegen;
mod compile;
mod error;
pub mod eval;
mod front;
mod image;
mod layout;
mod prelude;
mod runtime;
mod sexp;
mod tagops;

pub use compile::{
    compile, compile_unit, compile_unit_reference, run, run_observed, run_observed_with, run_with,
    CompileStats, CompiledProgram, Options,
};
pub use error::CompileError;
pub use front::{lower_sources, CheckingMode};
pub use mipsx::{Backend, Executor, Outcome, SimError};
pub use prelude::PRELUDE;
pub use runtime::exit_code;
pub use sexp::{parse_all, parse_one, Sexp, MAX_NESTING};
pub use tagops::IntTestMethod;
