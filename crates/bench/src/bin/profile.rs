//! Per-function cycle-attribution profiler: "Table 1, but per function".
//!
//! Runs one benchmark under one configuration with a [`mipsx::Profiler`]
//! attached and prints where the cycles — and specifically the tag-handling
//! cycles — went, function by function. The paper only ever reports these
//! numbers as whole-program aggregates; this is the drill-down.
//!
//! ```text
//! profile <benchmark> [--scheme high5|high6|low2|low3] [--checking none|full]
//!                     [--hw plain|tagbr|genarith|maximal|spur]
//!                     [--backend fast|ref]
//!                     [--timing ideal|classic5|modern]
//!                     [--folded] [--metrics json|prom]
//! ```
//!
//! Default output is the per-function report (stdout). `--folded` instead
//! prints folded call stacks (`frame;frame count` per line) ready for
//! `flamegraph.pl` or any compatible renderer. `--timing` with a non-ideal
//! preset attaches a [`mipsx::TimingModel`] to the same run and appends the
//! per-function *stall* attribution (icache/dcache/mispredict/load-use) after
//! the cycle report. `--metrics json|prom` prints the session's metrics
//! registry after the run, in JSON or Prometheus text.
//!
//! Scheme/checking/hardware names are the shared [`bench::spec`] vocabulary —
//! the same strings `tagctl` and the `tagstudyd` wire protocol accept.

use bench::spec;
use tagstudy::Config;

fn usage() -> ! {
    eprintln!(
        "usage: profile <benchmark> [--scheme high5|high6|low2|low3] \
         [--checking none|full] [--hw plain|tagbr|genarith|maximal|spur] \
         [--backend fast|ref] [--timing ideal|classic5|modern] \
         [--folded] [--metrics json|prom]\nbenchmarks: {}",
        programs::names().join(" ")
    );
    std::process::exit(2);
}

fn next_arg(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    })
}

/// Unwrap a spec-vocabulary parse, or print its message and the usage text.
fn parse_or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|message| {
        eprintln!("{message}");
        usage()
    })
}

fn main() {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    let Some(benchmark) = args.next() else {
        usage()
    };
    if benchmark.starts_with('-') || programs::by_name(&benchmark).is_none() {
        eprintln!("unknown benchmark {benchmark:?}");
        usage();
    }
    let mut scheme = tagword::TagScheme::HighTag5;
    let mut checking = tagstudy::CheckingMode::Full;
    let mut hw_name = spec::DEFAULT_HW.to_string();
    let mut backend = mipsx::Backend::default();
    let mut timing = mipsx::TimingConfig::ideal();
    let mut folded = false;
    let mut metrics: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => {
                scheme = parse_or_usage(spec::parse_scheme(&next_arg(&mut args, "--scheme")))
            }
            "--checking" => {
                checking = parse_or_usage(spec::parse_checking(&next_arg(&mut args, "--checking")));
            }
            "--hw" => hw_name = next_arg(&mut args, "--hw"),
            "--backend" => {
                backend = parse_or_usage(spec::parse_backend(&next_arg(&mut args, "--backend")));
            }
            "--timing" => {
                timing = parse_or_usage(spec::parse_timing(&next_arg(&mut args, "--timing")));
            }
            "--folded" => folded = true,
            "--metrics" => metrics = Some(next_arg(&mut args, "--metrics")),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    // Hardware is parsed after the flag loop: `maximal`/`spur` depend on the
    // scheme's tag width, and `--scheme` may come after `--hw` on the line.
    let hw = parse_or_usage(spec::parse_hw(&hw_name, scheme));
    let config = Config::new(scheme, checking)
        .with_hw(hw)
        .with_backend(backend)
        .with_timing(timing);

    let session = bench::session();
    let (measurement, profiler, stalls) =
        bench::unwrap_study(session.profile_with_stalls(&benchmark, config, programs::FUEL));

    if folded {
        // Folded stacks only: pipeable straight into flamegraph.pl.
        print!("{}", profiler.folded());
    } else {
        print!("{}", bench::profile_report(&measurement, &profiler));
        if let Some(stalls) = &stalls {
            println!();
            print!("{}", bench::stall_report(&measurement, stalls));
        }
    }
    match metrics.as_deref() {
        None => {}
        Some("json") => println!("{}", session.metrics_json()),
        Some("prom") => print!("{}", session.metrics_prometheus()),
        Some(v) => {
            eprintln!("unknown metrics format {v:?} (want json or prom)");
            usage()
        }
    }
}
