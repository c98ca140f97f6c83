//! `synth` — seeded workload generation and a cross-scheme differential
//! oracle.
//!
//! The paper's central empirical fact is that run-time checking overhead is a
//! function of each program's *operation mix*: list-heavy programs sit near
//! the 6% end of the spread, arithmetic-heavy ones near 88% (Table 1). The
//! ten fixed benchmarks in the `programs` crate sample that space at ten
//! points; this crate makes the space *dense* and, at the same time, gives
//! the whole reproduction a semantic ground truth:
//!
//! - [`profile::OpMix`] — an op-mix profile (list/vector/arith/branch/call
//!   weights) that can be preset, parsed, and interpolated along an axis;
//! - [`gen`] — a deterministic, seeded generator (its own PCG32, no `std`
//!   randomness) that turns a `(seed, mix)` pair into a terminating,
//!   trap-free Lisp program whose behaviour is identical under every tag
//!   scheme, checking mode, and hardware level;
//! - [`oracle`] — the differential oracle: the tree-walking reference
//!   evaluator ([`lisp::eval`]) fixes the expected result and an op census,
//!   then every scheme × checking × hardware configuration must reproduce
//!   the result exactly and attribute checking cycles consistently with the
//!   census;
//! - [`shrink`] — greedy minimization of any program the oracle rejects, so
//!   a failure report is a few forms, not a few hundred;
//! - [`fleet`] — the continuous campaign engine over that oracle, which
//!   compiles, runs and diffs every column through it: a coverage grid of
//!   op-mix cells × matrix columns, pluggable [`fleet::Runner`]s (in-process
//!   or a live daemon), shrunk witnesses archived through `store::fuzz`, and
//!   a persistent ledger that makes campaigns resumable.
//!
//! Reproduce any program from its report: `gen::render(&gen::generate(seed,
//! &mix))` is bit-identical across runs and machines.

#![deny(missing_docs)]

pub mod fleet;
pub mod gen;
pub mod oracle;
pub mod profile;
pub mod rng;
pub mod shrink;

pub use fleet::{run_campaign, CampaignReport, CampaignSpec, LocalRunner, Runner};
pub use gen::{generate, render, Program};
pub use oracle::{check_program, check_rendered, oracle_configs, Mismatch, MismatchKind};
pub use profile::OpMix;
pub use rng::Pcg32;
pub use shrink::shrink;
