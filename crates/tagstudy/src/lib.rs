//! The measurement framework: runs the ten benchmarks under tag-implementation
//! configurations and regenerates every table and figure of Steenkiste &
//! Hennessy (ASPLOS 1987).
//!
//! # Architecture
//!
//! The crate is organised around three layers:
//!
//! - [`Config`] — one point in the study's design space (tag scheme × checking
//!   mode × hardware support). `Config` is `Copy + Hash + Eq`, so a
//!   `(program, Config)` pair identifies a measurement.
//! - [`Session`] — the experiment engine. A session owns a measurement cache
//!   keyed by `(program, Config)`, a bounded worker pool that fills it in
//!   parallel, and an observability surface: cache hit/miss counters, compile
//!   vs simulate wall-time attribution ([`Timing`]), and an optional
//!   [`Progress`] callback for live status. Every design-space point is
//!   compiled and simulated at most once per session, no matter how many
//!   tables ask for it.
//! - [`tables`] — pure projections over a session. Each `*_for` function takes
//!   `&mut Session`, requests the measurements it needs (batched, so the pool
//!   can run them concurrently), and folds them into a table struct:
//!
//!   - [`tables::table1_for`] — execution-time increase from full run-time
//!     checking, split into arithmetic/vector/list categories;
//!   - [`tables::figure1_for`] — time spent on tag insertion/removal/
//!     extraction/checking, with and without run-time checking;
//!   - [`tables::figure2_for`] — instruction-frequency reduction when tag
//!     masking is eliminated (and the no-op/squash comeback);
//!   - [`tables::table2_for`] — cycles eliminated by each software/hardware
//!     support level, including the SPUR comparison of §7;
//!   - [`tables::table3_for`] — static program statistics;
//!   - [`tables::generic_arith_study_for`] — §4.2/§6.2.2: the arithmetic-safe
//!     tag encoding, trap hardware, and the wrong-bias float sweep.
//!
//! Because the projections share configurations (Table 1, Figure 1 and
//! Table 3 all use the HighTag5 baselines; Table 2 revisits several hardware
//! levels), regenerating *everything* through one session does a fraction of
//! the work of regenerating each table in isolation:
//!
//! ```no_run
//! use tagstudy::{tables, Session};
//!
//! let mut session = Session::new(); // workers = available_parallelism()
//! let names = tables::default_programs();
//! let t1 = tables::table1_for(&mut session, &names)?;
//! let t2 = tables::table2_for(&mut session, &names)?; // baselines reused
//! eprintln!("{}", session.summary()); // hits/misses, compile vs simulate time
//! # Ok::<(), tagstudy::StudyError>(())
//! ```
//!
//! Paper reference values are embedded in [`paper`] so reports can print
//! side-by-side comparisons.
//!
//! For long-lived processes, [`Session::with_writeback`] and [`Session::seed`]
//! are the persistence hooks the `store` crate's durable result store (and the
//! `tagstudyd` daemon built on it) plug into: every fresh measurement is
//! written through, and a restarted process preloads the cache so repeat
//! queries are answered without simulating. A `Session` is `Sync` and
//! measures through `&self`, so such a process shares one session between
//! threads without a lock around it (see the [`Session`] docs).

#![deny(missing_docs)]

mod config;
mod measure;
pub mod metrics;
pub mod paper;
pub mod report;
mod session;
pub mod tables;
pub mod trace;

pub use config::{Config, ConfigFields};
pub use lisp::CheckingMode;
pub use measure::{run_benchmark, run_program, InlineProgram, Measurement, StudyError, Timing};
pub use metrics::{json_field, json_string, Event, Histogram, Json, MetricsRegistry};
pub use mipsx::Backend;
pub use session::{Progress, Session, SessionStats};
pub use trace::{SpanId, SpanRecord, TraceContext, TraceId, TraceRecord, Tracer};
