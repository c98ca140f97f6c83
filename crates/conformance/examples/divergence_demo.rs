//! Run one benchmark through the trace oracle, then show what a divergence
//! report looks like by injecting a deliberate bug into the reference
//! executor.
//!
//! ```sh
//! cargo run --release -p conformance --example divergence_demo
//! ```

use lisp::CheckingMode;
use mipsx::Fault;
use tagstudy::{Config, Session};

fn main() {
    let session = Session::serial();
    let config = Config::baseline(CheckingMode::Full);
    let compiled = session
        .compile_program("trav", config)
        .expect("trav compiles");

    let c =
        conformance::check_compiled(&compiled, programs::FUEL, None).expect("clean run conforms");
    println!(
        "trav/{config}: {} retirements, {} squashed slots, {} cycles — executors agree\n",
        c.retired, c.squashed, c.cycles
    );

    for fault in [
        Fault::AddOffByOne { nth: 500 },
        Fault::BranchInvert { nth: 40 },
    ] {
        let err = conformance::check_compiled(&compiled, programs::FUEL, Some(fault))
            .expect_err("an injected bug must diverge");
        println!("injected {fault:?}:\n{err}");
    }
}
