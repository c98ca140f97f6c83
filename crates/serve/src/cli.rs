//! `tagctl`'s command-line grammar, as a pure parser.
//!
//! Every subcommand rejects unknown flags and stray positionals with a
//! usage-ready message (the binary answers with the usage text and exit 2),
//! as the bench binaries' `reject_args` does: a typo must never be silently
//! ignored and mistaken for a run that did what was asked.

use std::path::PathBuf;

use synth::fleet::{fault_from_string, CampaignSpec};

use crate::fleet::FuzzArgs;

/// One parsed `tagctl` invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// `--addr HOST:PORT` override, when given.
    pub addr: Option<String>,
    /// The subcommand.
    pub command: Command,
}

/// The `tagctl` subcommands.
#[derive(Debug, Clone)]
pub enum Command {
    /// Print the usage text (exit 2, like any other usage error).
    Help,
    /// `submit [--json] SPEC...`
    Submit {
        /// Print the raw response document instead of a table.
        json: bool,
        /// The experiment specs, pre-validated against the spec grammar.
        specs: Vec<String>,
    },
    /// `result KEY`
    Result {
        /// The content address to fetch.
        key: String,
    },
    /// `metrics [--watch SECS]`
    Metrics {
        /// Re-scrape forever at this period.
        watch: Option<u64>,
    },
    /// `health`
    Health,
    /// `shutdown`
    Shutdown,
    /// `fuzz [...]` — see [`FuzzArgs`].
    Fuzz(FuzzArgs),
    /// `trace [--chrome] [--slow] [TRACE_ID]`
    Trace {
        /// Dump Chrome trace-event JSON instead of rendered span trees.
        chrome: bool,
        /// Show only the slow-request log.
        slow: bool,
        /// Show one specific trace (32 lowercase hex digits).
        id: Option<String>,
    },
    /// `top [--watch SECS]` — endpoint latency/traffic summary.
    Top {
        /// Re-render forever at this period.
        watch: Option<u64>,
    },
}

/// Parse a `tagctl` argument vector (without the binary name).
///
/// # Errors
///
/// A usage-ready message: unknown subcommand, unknown flag, a flag missing
/// its value, a malformed value, or missing/stray positionals.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut args = args.iter().map(String::as_str);
    let mut addr = None;
    let mut head = args.next();
    if head == Some("--addr") {
        addr = Some(
            args.next()
                .ok_or("--addr needs a HOST:PORT value")?
                .to_string(),
        );
        head = args.next();
    }
    let rest: Vec<&str> = args.collect();
    let command = match head {
        None | Some("--help" | "-h" | "help") => {
            reject_extras("help", &rest)?;
            Command::Help
        }
        Some("submit") => parse_submit(&rest)?,
        Some("result") => parse_result(&rest)?,
        Some("metrics") => parse_metrics(&rest)?,
        Some("health") => {
            reject_extras("health", &rest)?;
            Command::Health
        }
        Some("shutdown") => {
            reject_extras("shutdown", &rest)?;
            Command::Shutdown
        }
        Some("fuzz") => parse_fuzz(&rest)?,
        Some("trace") => parse_trace(&rest)?,
        Some("top") => parse_top(&rest)?,
        Some(other) => return Err(format!("unknown command {other:?}")),
    };
    Ok(Invocation { addr, command })
}

/// Bare subcommands take nothing at all (the bench binaries' `reject_args` contract).
fn reject_extras(command: &str, rest: &[&str]) -> Result<(), String> {
    match rest.first() {
        None => Ok(()),
        Some(extra) => Err(format!("{command}: unexpected argument {extra:?}")),
    }
}

fn parse_submit(rest: &[&str]) -> Result<Command, String> {
    let mut json = false;
    let mut specs = Vec::new();
    for arg in rest {
        match *arg {
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                return Err(format!("submit: unknown flag {flag:?}"));
            }
            spec => {
                // Validate client-side: a typo earns a usage message, not a
                // daemon round-trip ending in a 400.
                crate::proto::parse_spec(spec).map_err(|why| format!("submit: {why}"))?;
                specs.push(spec.to_string());
            }
        }
    }
    if specs.is_empty() {
        return Err("submit: no specs given".to_string());
    }
    Ok(Command::Submit { json, specs })
}

fn parse_result(rest: &[&str]) -> Result<Command, String> {
    match rest {
        [flag, ..] if flag.starts_with('-') => Err(format!("result: unknown flag {flag:?}")),
        [key] => Ok(Command::Result {
            key: (*key).to_string(),
        }),
        [] => Err("result: want exactly one KEY".to_string()),
        [_, extra, ..] => Err(format!("result: unexpected argument {extra:?}")),
    }
}

fn parse_metrics(rest: &[&str]) -> Result<Command, String> {
    let mut watch = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--watch" => {
                let secs = it.next().ok_or("metrics: --watch needs seconds")?;
                watch = Some(
                    secs.parse()
                        .map_err(|_| format!("metrics: bad --watch value {secs:?}"))?,
                );
            }
            other => return Err(format!("metrics: unexpected argument {other:?}")),
        }
    }
    Ok(Command::Metrics { watch })
}

fn parse_trace(rest: &[&str]) -> Result<Command, String> {
    let mut chrome = false;
    let mut slow = false;
    let mut id = None;
    for arg in rest {
        match *arg {
            "--chrome" => chrome = true,
            "--slow" => slow = true,
            flag if flag.starts_with('-') => return Err(format!("trace: unknown flag {flag:?}")),
            text => {
                if id.is_some() {
                    return Err(format!("trace: unexpected argument {text:?}"));
                }
                // Validate client-side so a typo'd id earns a usage message,
                // not a daemon 400.
                if tagstudy::trace::TraceId::from_hex(text).is_none() {
                    return Err(format!(
                        "trace: bad trace id {text:?} (want 32 lowercase hex digits)"
                    ));
                }
                id = Some(text.to_string());
            }
        }
    }
    if id.is_some() && slow {
        return Err("trace: --slow cannot be combined with a TRACE_ID".to_string());
    }
    Ok(Command::Trace { chrome, slow, id })
}

fn parse_top(rest: &[&str]) -> Result<Command, String> {
    let mut watch = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--watch" => {
                let secs = it.next().ok_or("top: --watch needs seconds")?;
                watch = Some(
                    secs.parse()
                        .map_err(|_| format!("top: bad --watch value {secs:?}"))?,
                );
            }
            other => return Err(format!("top: unexpected argument {other:?}")),
        }
    }
    Ok(Command::Top { watch })
}

fn parse_fuzz(rest: &[&str]) -> Result<Command, String> {
    let mut smoke = false;
    let mut resume = false;
    let mut local = false;
    let mut seed_base: Option<u64> = None;
    let mut axis_points: Option<u32> = None;
    let mut per_cell: Option<u64> = None;
    let mut max_programs: Option<u64> = None;
    let mut backends: Option<Vec<mipsx::Backend>> = None;
    let mut fault = None;
    let mut replay = None;
    let mut witness_dir: Option<PathBuf> = None;

    fn value<'a>(it: &mut std::slice::Iter<'_, &'a str>, flag: &str) -> Result<&'a str, String> {
        it.next()
            .copied()
            .ok_or_else(|| format!("fuzz: {flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("fuzz: bad {flag} value {text:?}"))
    }

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--smoke" => smoke = true,
            "--resume" => resume = true,
            "--local" => local = true,
            "--seed-base" => {
                seed_base = Some(number("--seed-base", value(&mut it, "--seed-base")?)?);
            }
            "--axis-points" => {
                axis_points = Some(number("--axis-points", value(&mut it, "--axis-points")?)?);
            }
            "--per-cell" => per_cell = Some(number("--per-cell", value(&mut it, "--per-cell")?)?),
            "--max-programs" => {
                max_programs = Some(number("--max-programs", value(&mut it, "--max-programs")?)?);
            }
            "--backends" => {
                let list = value(&mut it, "--backends")?
                    .split(',')
                    .map(|name| mipsx::Backend::parse(name).map_err(|why| format!("fuzz: {why}")))
                    .collect::<Result<Vec<_>, _>>()?;
                backends = Some(list);
            }
            "--inject-fault" => {
                fault = Some(
                    fault_from_string(value(&mut it, "--inject-fault")?)
                        .map_err(|why| format!("fuzz: {why}"))?,
                );
            }
            "--replay" => replay = Some(value(&mut it, "--replay")?.to_string()),
            "--witness-dir" => witness_dir = Some(PathBuf::from(value(&mut it, "--witness-dir")?)),
            flag if flag.starts_with('-') => return Err(format!("fuzz: unknown flag {flag:?}")),
            other => return Err(format!("fuzz: unexpected argument {other:?}")),
        }
    }

    let mut spec = if smoke {
        CampaignSpec::smoke()
    } else {
        CampaignSpec::full()
    };
    if let Some(v) = seed_base {
        spec.seed_base = v;
    }
    if let Some(v) = axis_points {
        spec.axis_points = v;
    }
    if let Some(v) = per_cell {
        spec.per_cell = v;
    }
    spec.max_programs = max_programs;
    if let Some(v) = backends {
        if v.is_empty() {
            return Err("fuzz: --backends names no backends".to_string());
        }
        spec.backends = v;
    }
    spec.fault = fault;
    // A fault campaign's job is to prove the fleet catches a planted bug;
    // the first archived witness is that proof, so stop there.
    spec.stop_on_witness = fault.is_some();

    Ok(Command::Fuzz(FuzzArgs {
        spec,
        resume,
        witness_dir: witness_dir.unwrap_or_else(|| PathBuf::from("witnesses")),
        local,
        replay,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx::{Backend, Fault};

    fn parse_ok(args: &[&str]) -> Invocation {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned).unwrap_or_else(|why| panic!("{args:?}: {why}"))
    }

    fn parse_err(args: &[&str]) -> String {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned).expect_err(&format!("{args:?} should be rejected"))
    }

    #[test]
    fn addr_override_and_help() {
        let inv = parse_ok(&["--addr", "10.0.0.1:80", "health"]);
        assert_eq!(inv.addr.as_deref(), Some("10.0.0.1:80"));
        assert!(matches!(inv.command, Command::Health));
        assert!(matches!(parse_ok(&[]).command, Command::Help));
        assert!(matches!(parse_ok(&["--help"]).command, Command::Help));
        assert!(parse_err(&["--addr"]).contains("--addr needs"));
        assert!(parse_err(&["frobnicate"]).contains("unknown command"));
    }

    #[test]
    fn submit_validates_specs_and_rejects_unknown_flags() {
        let inv = parse_ok(&["submit", "--json", "frl", "trav:low2:none:tagbr"]);
        let Command::Submit { json, specs } = inv.command else {
            panic!("not a submit");
        };
        assert!(json);
        assert_eq!(specs, ["frl", "trav:low2:none:tagbr"]);
        assert!(parse_err(&["submit"]).contains("no specs"));
        assert!(parse_err(&["submit", "--jsno", "frl"]).contains("unknown flag"));
        assert!(parse_err(&["submit", "frl:turbo9"]).contains("unknown"));
    }

    #[test]
    fn result_wants_exactly_one_key() {
        let inv = parse_ok(&["result", "abc123"]);
        assert!(matches!(inv.command, Command::Result { key } if key == "abc123"));
        assert!(parse_err(&["result"]).contains("exactly one KEY"));
        assert!(parse_err(&["result", "a", "b"]).contains("unexpected argument"));
        assert!(parse_err(&["result", "--raw"]).contains("unknown flag"));
    }

    #[test]
    fn metrics_watch_is_strict() {
        assert!(matches!(
            parse_ok(&["metrics"]).command,
            Command::Metrics { watch: None }
        ));
        assert!(matches!(
            parse_ok(&["metrics", "--watch", "5"]).command,
            Command::Metrics { watch: Some(5) }
        ));
        assert!(parse_err(&["metrics", "--watch"]).contains("needs seconds"));
        assert!(parse_err(&["metrics", "--watch", "soon"]).contains("bad --watch"));
        assert!(parse_err(&["metrics", "--wach"]).contains("unexpected argument"));
    }

    #[test]
    fn bare_commands_take_no_arguments() {
        for command in ["health", "shutdown"] {
            assert!(matches!(
                parse_ok(&[command]).command,
                Command::Health | Command::Shutdown
            ));
            let err = parse_err(&[command, "--force"]);
            assert!(err.contains("unexpected argument"), "{err}");
        }
    }

    #[test]
    fn trace_flags_and_id_validation() {
        assert!(matches!(
            parse_ok(&["trace"]).command,
            Command::Trace {
                chrome: false,
                slow: false,
                id: None
            }
        ));
        assert!(matches!(
            parse_ok(&["trace", "--chrome"]).command,
            Command::Trace { chrome: true, .. }
        ));
        assert!(matches!(
            parse_ok(&["trace", "--slow"]).command,
            Command::Trace { slow: true, .. }
        ));
        let id = "0123456789abcdef0123456789abcdef";
        let Command::Trace { id: parsed, .. } = parse_ok(&["trace", id]).command else {
            panic!("not a trace");
        };
        assert_eq!(parsed.as_deref(), Some(id));
        assert!(parse_err(&["trace", "nothex"]).contains("bad trace id"));
        assert!(parse_err(&["trace", id, id]).contains("unexpected argument"));
        assert!(parse_err(&["trace", "--slow", id]).contains("cannot be combined"));
        assert!(parse_err(&["trace", "--deep"]).contains("unknown flag"));
    }

    #[test]
    fn top_watch_is_strict() {
        assert!(matches!(
            parse_ok(&["top"]).command,
            Command::Top { watch: None }
        ));
        assert!(matches!(
            parse_ok(&["top", "--watch", "2"]).command,
            Command::Top { watch: Some(2) }
        ));
        assert!(parse_err(&["top", "--watch"]).contains("needs seconds"));
        assert!(parse_err(&["top", "now"]).contains("unexpected argument"));
    }

    #[test]
    fn fuzz_flags_shape_the_campaign() {
        let inv = parse_ok(&[
            "fuzz",
            "--smoke",
            "--resume",
            "--local",
            "--seed-base",
            "7",
            "--per-cell",
            "3",
            "--backends",
            "ref,fast",
            "--witness-dir",
            "/tmp/w",
            "--max-programs",
            "9",
        ]);
        let Command::Fuzz(args) = inv.command else {
            panic!("not a fuzz");
        };
        assert!(args.resume && args.local && args.replay.is_none());
        assert_eq!(args.witness_dir, PathBuf::from("/tmp/w"));
        assert_eq!(args.spec.seed_base, 7);
        assert_eq!(args.spec.per_cell, 3);
        assert_eq!(args.spec.axis_points, CampaignSpec::smoke().axis_points);
        assert_eq!(args.spec.backends, [Backend::Ref, Backend::Fast]);
        assert_eq!(args.spec.max_programs, Some(9));
        assert!(args.spec.fault.is_none() && !args.spec.stop_on_witness);
    }

    #[test]
    fn fuzz_fault_and_replay_modes() {
        let Command::Fuzz(args) = parse_ok(&["fuzz", "--inject-fault", "branch-invert:1"]).command
        else {
            panic!("not a fuzz");
        };
        assert_eq!(args.spec.fault, Some(Fault::BranchInvert { nth: 1 }));
        assert!(
            args.spec.stop_on_witness,
            "fault mode stops at first witness"
        );

        let Command::Fuzz(args) = parse_ok(&["fuzz", "--replay", "deadbeef"]).command else {
            panic!("not a fuzz");
        };
        assert_eq!(args.replay.as_deref(), Some("deadbeef"));

        assert!(parse_err(&["fuzz", "--inject-fault", "rowhammer:1"]).contains("unknown fault"));
        assert!(parse_err(&["fuzz", "--fuzz-harder"]).contains("unknown flag"));
        assert!(parse_err(&["fuzz", "now"]).contains("unexpected argument"));
        assert!(parse_err(&["fuzz", "--backends", "fast,turbo"]).contains("unknown backend"));
        // The removed interpreter is rejected with the same precise error.
        assert!(parse_err(&["fuzz", "--backends", "classic"])
            .contains("fuzz: unknown backend \"classic\" (want fast or ref)"));
        assert!(parse_err(&["fuzz", "--per-cell", "many"]).contains("bad --per-cell"));
        assert!(parse_err(&["fuzz", "--seed-base"]).contains("needs a value"));
    }
}
