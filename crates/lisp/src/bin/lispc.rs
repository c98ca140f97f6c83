//! `lispc` — compile a Lisp source file and run it on the simulated MIPS-X.
//!
//! ```text
//! lispc FILE [--scheme high5|high6|low2|low3] [--check] [--hw HW] [--int-test signext|tagcmp]
//!       [--heap KB] [--stats] [--listing]
//! ```
//!
//! `HW` is a hardware name as `HwConfig::parse` reads it: a named level
//! (`plain`, `tagbr`, `genarith`, `maximal`, `spur`; the last two at the
//! scheme's tag width) or a `+`-joined feature list such as `drop5+tagbr`.

use std::process::ExitCode;

use lisp::{compile, run, CheckingMode, IntTestMethod, Options};
use mipsx::{HwConfig, TagOpKind};
use tagword::TagScheme;

fn usage() -> ! {
    eprintln!(
        "usage: lispc FILE [--scheme high5|high6|low2|low3] [--check] \
         [--hw plain|tagbr|genarith|maximal|spur|drop<N>+tagbr+genarith+chklists|chkall] \
         [--int-test signext|tagcmp] [--heap KB] [--stats] [--listing]"
    );
    std::process::exit(2)
}

/// A parsed flag value, or usage: a missing value, or the parser's message
/// first.
fn parse_or_usage<T>(parsed: Option<Result<T, String>>) -> T {
    match parsed {
        Some(Ok(value)) => value,
        Some(Err(why)) => {
            eprintln!("lispc: {why}");
            usage()
        }
        None => usage(),
    }
}

fn main() -> ExitCode {
    let mut file = None;
    let mut opts = Options::default();
    let mut stats = false;
    let mut listing = false;
    let mut hw = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => {
                opts.scheme = parse_or_usage(args.next().as_deref().map(TagScheme::parse))
            }
            "--check" => opts.checking = CheckingMode::Full,
            "--int-test" => {
                opts.int_test_method =
                    parse_or_usage(args.next().as_deref().map(IntTestMethod::parse));
            }
            "--hw" => hw = Some(args.next().unwrap_or_else(|| usage())),
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
    // `maximal` and `spur` take the scheme's tag width, and `--scheme` may
    // come after `--hw` on the line.
    if let Some(hw) = hw {
        opts.hw = parse_or_usage(Some(HwConfig::parse(&hw, opts.scheme.tag_bits())));
    }

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
