//! Per-function cycle-attribution profiler: "Table 1, but per function".
//!
//! Runs one benchmark under one configuration with a [`mipsx::Profiler`]
//! attached and prints where the cycles — and specifically the tag-handling
//! cycles — went, function by function. The paper only ever reports these
//! numbers as whole-program aggregates; this is the drill-down.
//!
//! ```text
//! profile <benchmark> [--scheme high5|high6|low2|low3] [--checking none|full]
//!                     [--hw plain|tagbr|genarith|maximal|spur|FEATURES]
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
//! Each flag value is parsed by its own type through
//! [`tagstudy::ConfigFields`]: the same strings a config name, `tagctl` and
//! the `tagstudyd` wire protocol accept. `FEATURES` is a `+`-joined hardware
//! feature list such as `drop5+tagbr`.

use tagstudy::ConfigFields;

fn usage() -> ! {
    eprintln!(
        "usage: profile <benchmark> [--scheme high5|high6|low2|low3] \
         [--checking none|full] [--hw plain|tagbr|genarith|maximal|spur|FEATURES] \
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

/// Unwrap a flag value's parse, or print its message and the usage text.
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
    // One value per config flag; `ConfigFields` parses each by its type once
    // all are known (`maximal` and `spur` take the scheme's tag width, and
    // `--scheme` may come after `--hw`).
    const CONFIG_FLAGS: [&str; 5] = ["--scheme", "--checking", "--hw", "--backend", "--timing"];
    let mut flags: [Option<String>; 5] = Default::default();
    let mut folded = false;
    let mut metrics: Option<String> = None;
    while let Some(arg) = args.next() {
        if let Some(i) = CONFIG_FLAGS.iter().position(|flag| *flag == arg) {
            flags[i] = Some(next_arg(&mut args, &arg));
            continue;
        }
        match arg.as_str() {
            "--folded" => folded = true,
            "--metrics" => metrics = Some(next_arg(&mut args, "--metrics")),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    let [scheme, checking, hw, backend, timing] = flags.each_ref().map(Option::as_deref);
    let config = parse_or_usage(
        ConfigFields {
            scheme,
            checking,
            hw,
            backend,
            timing,
            ..ConfigFields::default()
        }
        .resolve(),
    );

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
