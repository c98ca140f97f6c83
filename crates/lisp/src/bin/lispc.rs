//! `lispc` — compile a Lisp source file and run it on the simulated MIPS-X.
//!
//! ```text
//! lispc FILE [--scheme high5|high6|low2|low3] [--check] [--hw drop|tagbr|chk-lists|chk-all|genarith|max|spur]
//!       [--heap KB] [--stats] [--listing]
//! ```

use std::process::ExitCode;

use lisp::{compile, run, CheckingMode, IntTestMethod, Options};
use mipsx::{HwConfig, ParallelCheck, TagOpKind};
use tagword::TagScheme;

fn usage() -> ! {
    eprintln!(
        "usage: lispc FILE [--scheme high5|high6|low2|low3] [--check] \
         [--hw drop|tagbr|chk-lists|chk-all|genarith|max|spur] [--int-test signext|tagcmp] \
         [--heap KB] [--stats] [--listing]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut file = None;
    let mut opts = Options::default();
    let mut stats = false;
    let mut listing = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => {
                opts.scheme = match args.next().as_deref() {
                    Some("high5") => TagScheme::HighTag5,
                    Some("high6") => TagScheme::HighTag6,
                    Some("low2") => TagScheme::LowTag2,
                    Some("low3") => TagScheme::LowTag3,
                    _ => usage(),
                }
            }
            "--check" => opts.checking = CheckingMode::Full,
            "--int-test" => {
                opts.int_test_method = match args.next().as_deref() {
                    Some("signext") => IntTestMethod::SignExtend,
                    Some("tagcmp") => IntTestMethod::TagCompare,
                    _ => usage(),
                }
            }
            "--hw" => {
                opts.hw = match args.next().as_deref() {
                    Some("drop") => HwConfig::with_address_drop(5),
                    Some("tagbr") => HwConfig::with_tag_branch(),
                    Some("chk-lists") => HwConfig::with_parallel_check(ParallelCheck::Lists),
                    Some("chk-all") => HwConfig::with_parallel_check(ParallelCheck::All),
                    Some("genarith") => HwConfig::with_generic_arith(),
                    Some("max") => HwConfig::maximal(5),
                    Some("spur") => HwConfig::spur(5),
                    _ => usage(),
                }
            }
            "--heap" => match args
                .next()
                .and_then(|s| s.parse::<u32>().ok())
                .and_then(|kb| kb.checked_mul(1024))
            {
                Some(bytes) => opts.heap_semi_bytes = bytes,
                None => usage(),
            },
            "--stats" => stats = true,
            "--listing" => listing = true,
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };

    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lispc: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };

    let compiled = match compile(&source, &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lispc: {e}");
            return ExitCode::from(1);
        }
    };
    if listing {
        eprintln!("{}", compiled.program.listing());
    }

    match run(&compiled, 10_000_000_000) {
        Ok(o) => {
            print!("{}", o.output);
            if stats {
                eprintln!(
                    "-- {} cycles, {} instructions committed",
                    o.stats.cycles, o.stats.committed
                );
                eprintln!(
                    "-- tag handling: insert {:.2}%  remove {:.2}%  extract {:.2}%  check {:.2}%",
                    o.stats.tag_op_percent(TagOpKind::Insert),
                    o.stats.tag_op_percent(TagOpKind::Remove),
                    o.stats.tag_op_percent(TagOpKind::Extract),
                    o.stats.tag_op_percent(TagOpKind::Check),
                );
                eprintln!(
                    "-- code: {} words, {} procedures",
                    compiled.stats.object_words, compiled.stats.procedures
                );
            }
            if o.halt_code == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("lispc: program stopped with error code {}", o.halt_code);
                ExitCode::from(u8::try_from(o.halt_code).unwrap_or(1))
            }
        }
        Err(e) => {
            eprintln!("lispc: simulation failed: {e}");
            ExitCode::from(1)
        }
    }
}
