//! The daemon's JSON wire protocol: batch requests in, deterministic result
//! documents out, and the experiment-spec grammar they share with `tagctl`.
//!
//! A batch body is `{"experiments": [ <spec>, ... ]}` where each spec is
//! either a string in the [`parse_spec`] grammar (`"frl:low2:none:tagbr"`),
//! an object `{"program": "frl", "scheme": "low2", "checking": "none",
//! "hw": "tagbr", "timing": "modern"}` with every field but `program`
//! optional, or an *inline* object `{"source": "(print 1)", "heap": 65536,
//! ...}` carrying its own Lisp source — measured under the content-derived `inline:<hash>` name, so equal
//! sources share a cache entry per configuration. Both forms build their
//! [`Config`] through one field path, [`ConfigFields`], so each field value
//! is parsed alone by its own type whichever form it arrived in.
//!
//! The response is `{"results": [ ... ]}` with one entry per request, in
//! request order; each entry carries the canonical spec string, the content
//! address the measurement is stored under, and the measurement itself in the
//! same deterministic encoding the store uses. Timing is deliberately absent —
//! it varies run to run, and its absence is what makes daemon responses
//! byte-identical whether a point was simulated, cached, or warm-loaded from
//! disk.

use mipsx::{Backend, ALL_BACKENDS, HW_LEVELS, TIMING_PRESETS};
use store::{inline_name, record, StoreKey};
use tagstudy::{Config, ConfigFields, Json, Measurement};
use tagword::{TagScheme, ALL_SCHEMES};

use crate::http::json_string;

/// Upper bound on experiments per batch — a guard rail, not a tuning knob.
pub const MAX_BATCH: usize = 1024;

/// The trailing keys a spec string takes: the backend, which picks the
/// simulator and never enters the point's identity, and the timing model,
/// which does.
const SPEC_KEYS: [&str; 2] = ["backend", "timing"];

/// One validated experiment point: a program and a full [`Config`].
///
/// The program is usually one of the ten built-in benchmarks (validated
/// against [`programs::names`]); an *inline* spec instead carries its own
/// Lisp source and a content-derived `inline:<hash>` name (see
/// [`ExperimentSpec::inline`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExperimentSpec {
    /// Program name: a built-in benchmark, or `inline:<hash>` for an inline
    /// source.
    pub program: String,
    /// The configuration to measure it under.
    pub config: Config,
    /// The Lisp source for an inline spec; `None` for built-in benchmarks.
    pub source: Option<String>,
    /// Per-semispace heap override for an inline spec.
    pub heap_semi_bytes: Option<u32>,
}

impl ExperimentSpec {
    /// An inline experiment: measure caller-supplied Lisp source under
    /// `config`. The program name is derived from the source content via
    /// [`store::inline_name`].
    pub fn inline(
        source: impl Into<String>,
        config: Config,
        heap_semi_bytes: Option<u32>,
    ) -> ExperimentSpec {
        let source = source.into();
        ExperimentSpec {
            program: inline_name(&source, heap_semi_bytes),
            config,
            source: Some(source),
            heap_semi_bytes,
        }
    }

    /// The canonical form: the program, `:`, and the config's
    /// [`name`](Config::name) — e.g. `frl:low2:none:tagbr:timing=modern`.
    /// (Inline specs render with their `inline:<hash>` name; the result
    /// identifies the point but is not re-parseable as a string spec, since
    /// inline sources only travel as objects.)
    pub fn to_spec_string(&self) -> String {
        format!("{}:{}", self.program, self.config.name())
    }
}

/// The spec grammar's shape, with the backends and timing presets spelled
/// out from their registries.
fn spec_shape() -> String {
    format!(
        "program[:scheme[:checking[:hw]]][:backend={}][:timing={}]",
        ALL_BACKENDS.map(Backend::name).join("|"),
        TIMING_PRESETS.join("|")
    )
}

/// The one place every spec error is phrased: the reason, the offending spec,
/// and the grammar reminder, in that order.
fn spec_error(text: &str, why: impl std::fmt::Display) -> String {
    format!("{why} in spec {text:?} (want {})", spec_shape())
}

/// A named experiment: the benchmark must exist, then every config field is
/// resolved by its own type.
fn named(program: &str, fields: &ConfigFields) -> Result<ExperimentSpec, String> {
    if programs::by_name(program).is_none() {
        return Err(format!(
            "unknown benchmark {program:?} (want one of: {})",
            programs::names().join(", ")
        ));
    }
    Ok(ExperimentSpec {
        program: program.to_string(),
        config: fields.resolve()?,
        source: None,
        heap_semi_bytes: None,
    })
}

/// Parse one `program[:scheme[:checking[:hw]]][:backend=B][:timing=T]` spec,
/// validating the benchmark name against the registry. After the program,
/// the fields are a [`Config::name`] with trailing fields optional, and
/// `backend` and `timing` as its only keys, accepted in either order. Field
/// values are case-insensitive and whitespace around fields is ignored; the
/// benchmark name itself is exact.
///
/// # Errors
///
/// A usage-ready message — always phrased by the same canonical path — for an
/// empty spec or field, an unknown benchmark, an unknown field value, a
/// duplicated trailing key, or too many `:`-separated fields.
pub fn parse_spec(text: &str) -> Result<ExperimentSpec, String> {
    if text.trim().is_empty() {
        return Err(spec_error(text, "empty spec"));
    }
    let (program, rest) = match text.split_once(':') {
        Some((program, rest)) => (program.trim(), Some(rest)),
        None => (text.trim(), None),
    };
    let fields = match rest {
        _ if program.is_empty() => Err("empty benchmark field".to_string()),
        None => Ok(ConfigFields::default()),
        Some(rest) => ConfigFields::split(rest, &SPEC_KEYS),
    };
    fields
        .and_then(|fields| named(program, &fields))
        .map_err(|why| spec_error(text, why))
}

/// One line describing the spec grammar, for usage messages.
pub fn spec_grammar() -> String {
    format!(
        "spec: {}\n  schemes: {}; checking: none|full; hw: {}, or features \
         drop<N>+tagbr+genarith+chklists|chkall\n  benchmarks: {}",
        spec_shape(),
        ALL_SCHEMES.map(TagScheme::name).join("|"),
        HW_LEVELS.join("|"),
        programs::names().join(" ")
    )
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn spec_from_object(obj: &[(String, Json)]) -> Result<ExperimentSpec, String> {
    for (key, _) in obj {
        if !matches!(
            key.as_str(),
            "program" | "source" | "heap" | "scheme" | "checking" | "hw" | "backend" | "timing"
        ) {
            return Err(format!(
                "unknown experiment field {key:?} (want program or source, \
                 plus scheme, checking, hw, heap, backend, timing)"
            ));
        }
    }
    let text = |name: &str| get(obj, name).map(|v| v.as_str(name)).transpose();
    // Each field is one value, parsed alone: a `:` inside it is part of
    // that value, never the start of another field.
    let fields = ConfigFields {
        scheme: text("scheme")?,
        checking: text("checking")?,
        hw: text("hw")?,
        timing: text("timing")?,
        backend: text("backend")?,
        ..ConfigFields::default()
    };
    // An inline spec carries its own Lisp source (and optionally a heap
    // override); a named spec references a built-in benchmark. Exactly one.
    if let Some(source) = get(obj, "source") {
        if get(obj, "program").is_some() {
            return Err("experiment object has both \"program\" and \"source\"".to_string());
        }
        let source = source.as_str("source")?;
        if source.trim().is_empty() {
            return Err("inline \"source\" is empty".to_string());
        }
        let heap = match get(obj, "heap") {
            Some(v) => {
                let bytes = v.as_u64("heap")?;
                let bytes = u32::try_from(bytes)
                    .map_err(|_| format!("heap of {bytes} bytes exceeds the 32-bit limit"))?;
                Some(bytes)
            }
            None => None,
        };
        let config = fields.resolve()?;
        if let Some(bytes) = heap {
            check_heap_fits(bytes, &config)?;
        }
        return Ok(ExperimentSpec::inline(source, config, heap));
    }
    if get(obj, "heap").is_some() {
        return Err("\"heap\" only applies to inline sources (use \"source\")".to_string());
    }
    let program = get(obj, "program")
        .ok_or("experiment object is missing \"program\" (or inline \"source\")")?
        .as_str("program")?;
    named(program, &fields)
}

/// Refuse a semispace size whose two semispaces plus the stack cannot fit
/// the scheme's pointer space, whatever the program: such a request is the
/// caller's mistake, and gets a precise 400 rather than a compile failure.
fn check_heap_fits(semi_bytes: u32, config: &tagstudy::Config) -> Result<(), String> {
    let stack = u64::from(config.to_options().stack_bytes);
    let need = 2 * u64::from(semi_bytes) + stack;
    let bits = config.scheme.pointer_bits();
    if need >= 1u64 << bits {
        return Err(format!(
            "heap of {semi_bytes} bytes does not fit: two semispaces plus the {stack}-byte \
             stack need {need} bytes, beyond the {bits}-bit pointer space of {}",
            config.scheme
        ));
    }
    Ok(())
}

/// Parse a batch request body into validated experiment specs.
///
/// # Errors
///
/// A usage-ready message for malformed JSON, a missing or empty
/// `experiments` array, an oversized batch, or any invalid spec.
pub fn parse_batch(body: &[u8]) -> Result<Vec<ExperimentSpec>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let root = Json::parse(text)?;
    let obj = root.as_object("request body")?;
    let experiments = get(obj, "experiments")
        .ok_or("request body is missing \"experiments\"")?
        .as_array("experiments")?;
    if experiments.is_empty() {
        return Err("empty batch: \"experiments\" has no entries".to_string());
    }
    if experiments.len() > MAX_BATCH {
        return Err(format!(
            "batch of {} experiments exceeds the limit of {MAX_BATCH}",
            experiments.len()
        ));
    }
    experiments
        .iter()
        .enumerate()
        .map(|(i, item)| {
            match item {
                Json::Str(text) => parse_spec(text),
                Json::Obj(obj) => spec_from_object(obj),
                other => Err(format!("expected a spec string or object, got {other:?}")),
            }
            .map_err(|e| format!("experiments[{i}]: {e}"))
        })
        .collect()
}

/// Render the result document for a batch: one entry per request, in request
/// order, carrying only deterministic data (no timing).
pub fn results_json(entries: &[(ExperimentSpec, StoreKey, Measurement)]) -> String {
    let mut out = String::from("{\"results\":[");
    for (i, (spec, key, m)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"spec\":{},\"key\":\"{key}\",\"measurement\":{}}}",
            json_string(&spec.to_spec_string()),
            record::measurement_to_json(m)
        ));
    }
    out.push_str("]}\n");
    out
}

/// Decode a result document (the client side of [`results_json`]).
///
/// # Errors
///
/// Malformed JSON or a document not shaped like a result batch.
pub fn parse_results(text: &str) -> Result<Vec<(String, String, Measurement)>, String> {
    let root = Json::parse(text)?;
    let obj = root.as_object("response body")?;
    if let Some(error) = get(obj, "error") {
        return Err(format!("daemon error: {}", error.as_str("error")?));
    }
    let results = get(obj, "results")
        .ok_or("response body is missing \"results\"")?
        .as_array("results")?;
    results
        .iter()
        .map(|item| {
            let entry = item.as_object("result entry")?;
            let spec = get(entry, "spec").ok_or("missing spec")?.as_str("spec")?;
            let key = get(entry, "key").ok_or("missing key")?.as_str("key")?;
            let m = record::measurement_from_json(
                get(entry, "measurement").ok_or("missing measurement")?,
            )?;
            Ok((spec.to_string(), key.to_string(), m))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagstudy::CheckingMode;

    #[test]
    fn batch_accepts_strings_and_objects() {
        let body = br#"{"experiments": [
            "frl",
            {"program": "trav", "scheme": "low2", "checking": "none", "hw": "tagbr"},
            {"program": "boyer"}
        ]}"#;
        let specs = parse_batch(body).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].to_spec_string(), "frl:high5:full:plain");
        assert_eq!(specs[1].to_spec_string(), "trav:low2:none:tagbr");
        assert_eq!(
            specs[2].config,
            tagstudy::Config::baseline(CheckingMode::Full)
        );
    }

    #[test]
    fn batch_accepts_inline_sources() {
        let body = br#"{"experiments": [
            {"source": "(print 1)", "scheme": "low2", "checking": "none", "hw": "tagbr", "heap": 65536},
            {"source": "(print 1)"},
            {"program": "frl"}
        ]}"#;
        let specs = parse_batch(body).unwrap();
        assert_eq!(specs.len(), 3);
        assert!(
            specs[0].program.starts_with("inline:"),
            "{}",
            specs[0].program
        );
        assert_ne!(
            specs[0].program, specs[1].program,
            "the heap override is part of the content-derived name"
        );
        assert_eq!(
            specs[1].program,
            inline_name("(print 1)", None),
            "no heap: the name hashes the source alone"
        );
        assert_eq!(specs[0].source.as_deref(), Some("(print 1)"));
        assert_eq!(specs[0].heap_semi_bytes, Some(65536));
        assert_eq!(
            specs[0].to_spec_string(),
            format!("{}:low2:none:tagbr", specs[0].program)
        );
        assert_eq!(
            specs[1].config,
            tagstudy::Config::baseline(CheckingMode::Full)
        );
        assert_eq!(specs[1].heap_semi_bytes, None);
        assert_eq!(specs[2].source, None);
    }

    /// The wire protocol accepts a backend everywhere a spec does — string
    /// key and object field — and the backend never changes the spec string
    /// (which feeds cache keys and content addresses).
    #[test]
    fn backend_rides_along_without_changing_identity() {
        use mipsx::Backend;
        let body = br#"{"experiments": [
            "frl:backend=fast",
            {"program": "trav", "backend": "ref"},
            {"source": "(print 1)", "backend": "ref"},
            {"program": "boyer"}
        ]}"#;
        let specs = parse_batch(body).unwrap();
        assert_eq!(specs[0].config.backend, Backend::Fast);
        assert_eq!(specs[1].config.backend, Backend::Ref);
        assert_eq!(specs[2].config.backend, Backend::Ref);
        assert_eq!(specs[3].config.backend, Backend::default());
        for s in &specs {
            assert!(
                !s.to_spec_string().contains("backend"),
                "{}: backend must not leak into the canonical spec string",
                s.to_spec_string()
            );
        }
        // Same store key regardless of backend.
        let a = StoreKey::compute("src", None, &specs[1].config);
        let b = StoreKey::compute("src", None, &specs[1].config.with_backend(Backend::Fast));
        assert_eq!(a.as_str(), b.as_str(), "backend must not split addresses");
    }

    /// The wire protocol accepts a timing preset everywhere a spec does —
    /// string key and object field — and unlike the backend, the preset DOES
    /// change the spec string and the content address.
    #[test]
    fn timing_rides_along_and_changes_identity() {
        use mipsx::TimingConfig;
        let body = br#"{"experiments": [
            "frl:timing=classic5",
            {"program": "trav", "timing": "modern"},
            {"source": "(print 1)", "timing": "classic5"},
            {"program": "boyer", "timing": "ideal"},
            {"program": "boyer"}
        ]}"#;
        let specs = parse_batch(body).unwrap();
        assert_eq!(specs[0].config.timing, TimingConfig::classic5());
        assert_eq!(specs[1].config.timing, TimingConfig::modern());
        assert_eq!(specs[2].config.timing, TimingConfig::classic5());
        assert_eq!(specs[3].config.timing, TimingConfig::ideal());
        assert_eq!(specs[4], specs[3], "explicit ideal equals omitted");
        assert_eq!(
            specs[1].to_spec_string(),
            "trav:high5:full:plain:timing=modern"
        );
        let ideal = StoreKey::compute("src", None, &specs[3].config);
        let timed = StoreKey::compute(
            "src",
            None,
            &specs[3].config.with_timing(TimingConfig::modern()),
        );
        assert_ne!(
            ideal.as_str(),
            timed.as_str(),
            "timing must split addresses"
        );
    }

    /// A timed measurement's stall breakdown survives the results document.
    #[test]
    fn timed_results_round_trip() {
        let spec = parse_spec("frl:high6:none:maximal:timing=modern").unwrap();
        let m = Measurement {
            program: spec.program.clone(),
            config: spec.config,
            stats: mipsx::Stats {
                cycles: 123,
                committed: 45,
                timing: Some(mipsx::TimingStats {
                    stall_icache: 7,
                    stall_dcache: 9,
                    branches: 11,
                    ..Default::default()
                }),
                ..Default::default()
            },
            compile: lisp::CompileStats {
                procedures: 1,
                source_lines: 2,
                object_words: 3,
            },
            halt_code: 0,
            output: "9\n".to_string(),
        };
        let key = StoreKey::compute("fake source", None, &spec.config);
        let doc = results_json(&[(spec.clone(), key.clone(), m.clone())]);
        let parsed = parse_results(&doc).unwrap();
        assert_eq!(parsed[0].0, spec.to_spec_string());
        assert_eq!(parsed[0].2.stats, m.stats);
        assert_eq!(parsed[0].2.config, m.config);
    }

    #[test]
    fn inline_spec_errors_are_described() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"experiments": [{"source": "(print 1)", "program": "frl"}]}"#,
                "both \"program\" and \"source\"",
            ),
            (r#"{"experiments": [{"source": "   "}]}"#, "empty"),
            (
                r#"{"experiments": [{"program": "frl", "heap": 4096}]}"#,
                "only applies to inline sources",
            ),
            (
                r#"{"experiments": [{"source": "(print 1)", "scheme": "tag9"}]}"#,
                "unknown scheme",
            ),
            (
                r#"{"experiments": [{"source": "(print 1)", "heap": 5000000000}]}"#,
                "32-bit limit",
            ),
        ];
        for (body, want) in cases {
            let err = parse_batch(body.as_bytes()).unwrap_err();
            assert!(err.contains(want), "{body}: {err}");
        }
    }

    /// A heap whose two semispaces cannot fit the scheme's pointer space is
    /// refused at parse time with the sizes spelled out — including the
    /// sizes that used to wrap the memory map in u32 — while the largest
    /// heap that can fit is accepted.
    #[test]
    fn oversized_heaps_are_refused_precisely() {
        let body = |heap: u64, scheme: &str| {
            format!(
                r#"{{"experiments": [{{"source": "(print 1)", "heap": {heap}, "scheme": "{scheme}"}}]}}"#
            )
        };
        for (heap, scheme, bits) in [
            (u64::from(u32::MAX), "low2", 32),
            (2_147_481_600, "low3", 32),
            (1 << 31, "low2", 32),
            (64 << 20, "high5", 27),
            (32 << 20, "high6", 26),
        ] {
            let err = parse_batch(body(heap, scheme).as_bytes()).unwrap_err();
            assert!(
                err.contains(&format!("heap of {heap} bytes does not fit"))
                    && err.contains(&format!("{bits}-bit pointer space")),
                "{heap} {scheme}: {err}"
            );
        }
        // Two semispaces plus the 256 KiB stack just fit a 32-bit space.
        let largest = ((1u64 << 32) - (256 << 10) - 8) / 2;
        let specs = parse_batch(body(largest, "low2").as_bytes()).unwrap();
        assert_eq!(specs[0].heap_semi_bytes, Some(largest as u32));
    }

    #[test]
    fn batch_errors_name_the_offender() {
        let err = parse_batch(b"{\"experiments\": [\"frl\", \"nope\"]}").unwrap_err();
        assert!(err.contains("experiments[1]"), "{err}");
        assert!(err.contains("unknown benchmark"), "{err}");

        let err = parse_batch(b"{\"experiments\": []}").unwrap_err();
        assert!(err.contains("empty batch"), "{err}");

        let err = parse_batch(b"{}").unwrap_err();
        assert!(err.contains("missing \"experiments\""), "{err}");

        let err = parse_batch(b"{\"experiments\": [{\"prog\": \"frl\"}]}").unwrap_err();
        assert!(err.contains("unknown experiment field"), "{err}");

        let err = parse_batch(b"not json").unwrap_err();
        assert!(!err.is_empty());
    }

    /// results_json and parse_results are inverses for the deterministic part.
    #[test]
    fn results_round_trip() {
        let spec = parse_spec("frl:high6:none:maximal").unwrap();
        let m = Measurement {
            program: spec.program.clone(),
            config: spec.config,
            stats: mipsx::Stats {
                cycles: 123,
                committed: 45,
                ..Default::default()
            },
            compile: lisp::CompileStats {
                procedures: 1,
                source_lines: 2,
                object_words: 3,
            },
            halt_code: 0,
            output: "9\n".to_string(),
        };
        let key = StoreKey::compute("fake source", None, &spec.config);
        let doc = results_json(&[(spec.clone(), key.clone(), m.clone())]);
        let parsed = parse_results(&doc).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, spec.to_spec_string());
        assert_eq!(parsed[0].1, key.as_str());
        assert_eq!(parsed[0].2.stats, m.stats);
        assert_eq!(parsed[0].2.config, m.config);
    }

    /// Specs parse to the canonical `program:` + config-name form: trailing
    /// fields default, keys come in either order and at any truncation
    /// point, values ignore case and whitespace, hardware outside the named
    /// levels is a feature list, and the backend never enters the name.
    #[test]
    fn specs_render_canonically() {
        for (text, canonical) in [
            ("frl", "frl:high5:full:plain"),
            ("boyer:low2:none:tagbr", "boyer:low2:none:tagbr"),
            ("frl:LOW2:None:TagBr", "frl:low2:none:tagbr"),
            (" frl : LOW2 : None : TagBr ", "frl:low2:none:tagbr"),
            ("frl:backend=fast", "frl:high5:full:plain"),
            ("frl:high5:full:plain:backend=ref", "frl:high5:full:plain"),
            (
                "frl:timing=classic5",
                "frl:high5:full:plain:timing=classic5",
            ),
            (
                "frl:high5:full:plain:timing=classic5",
                "frl:high5:full:plain:timing=classic5",
            ),
            ("frl:low2:backend=ref", "frl:low2:full:plain"),
            ("frl : BACKEND=Fast", "frl:high5:full:plain"),
            ("frl:timing=ideal", "frl:high5:full:plain"),
            ("frl : TIMING=Modern", "frl:high5:full:plain:timing=modern"),
            (
                "frl:low2:none:tagbr:backend=ref:timing=modern",
                "frl:low2:none:tagbr:timing=modern",
            ),
            (
                "frl:low2:none:tagbr:timing=modern:backend=ref",
                "frl:low2:none:tagbr:timing=modern",
            ),
            ("frl:high6:full:plain", "frl:high6:full:plain"),
            ("frl:high6:full:tagbr", "frl:high6:full:tagbr"),
            ("frl:high6:full:genarith", "frl:high6:full:genarith"),
            ("frl:high6:full:maximal", "frl:high6:full:maximal"),
            ("frl:high6:full:spur", "frl:high6:full:spur"),
            ("frl:high6:full:drop6+tagbr", "frl:high6:full:drop6+tagbr"),
            ("frl:high6:full:chkall+drop5", "frl:high6:full:drop5+chkall"),
            (
                "frl:high6:full:drop6+tagbr+genarith+chkall",
                "frl:high6:full:maximal",
            ),
        ] {
            let s = parse_spec(text).unwrap();
            assert_eq!(s.to_spec_string(), canonical, "{text}");
            assert_eq!(parse_spec(canonical).unwrap(), s, "{text}");
        }
        assert_eq!(
            parse_spec("frl").unwrap().config,
            Config::baseline(CheckingMode::Full)
        );
        assert_eq!(
            parse_spec("frl:backend=ref").unwrap().config.backend,
            Backend::Ref
        );
        assert_ne!(
            parse_spec("frl").unwrap(),
            parse_spec("frl:timing=modern").unwrap()
        );
    }

    /// Every malformed spec goes through the one canonical error path: the
    /// message names the reason, quotes the spec, and restates the grammar.
    #[test]
    fn every_error_is_canonically_phrased() {
        for (text, reason) in [
            ("", "empty spec"),
            ("   ", "empty spec"),
            (":", "empty benchmark field"),
            (":high5", "empty benchmark field"),
            ("frl:", "empty scheme field"),
            ("frl::none", "empty scheme field"),
            ("frl:high5:", "empty checking field"),
            ("frl:high5::plain", "empty checking field"),
            ("frl:high5:full:", "empty hw field"),
            ("nope", "unknown benchmark"),
            ("FRL", "unknown benchmark"),
            ("frl:tag9", "unknown scheme"),
            ("frl:high5:maybe", "unknown checking mode"),
            ("frl:high5:full:warp", "unknown hardware level"),
            ("frl:high5:full:drop32", "out of range"),
            ("frl:high5:full:plain:x", "trailing field \"x\""),
            ("frl:high5:full:plain::", "trailing field"),
            ("frl:high5:full:plain:inttest=tagcmp", "trailing field"),
            ("frl:backend=turbo", "unknown backend \"turbo\""),
            ("frl:backend=", "empty backend field"),
            ("frl:high5:full:plain:backend=x", "unknown backend"),
            // The removed interpreter is rejected, never aliased: an alias
            // would report one backend's numbers under another's name.
            (
                "frl:backend=classic",
                "unknown backend \"classic\" (want fast or ref)",
            ),
            ("frl:backend=ref:backend=fast", "duplicate backend field"),
            ("frl:timing=warp", "unknown timing preset \"warp\""),
            ("frl:timing=", "empty timing field"),
            ("frl:high5:full:plain:timing=x", "unknown timing preset"),
            ("frl:timing=ideal:timing=modern", "duplicate timing field"),
            // A key before a positional field is that field's value.
            ("frl:backend=fast:low2", "unknown scheme"),
            ("frl:timing=modern:low2", "unknown scheme"),
        ] {
            let err = parse_spec(text).unwrap_err();
            assert!(err.contains(reason), "{text:?}: {err}");
            assert!(
                err.contains(&format!("in spec {text:?}")),
                "{text:?}: {err}"
            );
            assert!(
                err.contains("want program[:scheme[:checking[:hw]]]"),
                "{text:?}: {err}"
            );
        }
    }

    /// Inline specs are named by content: the same source and heap share a
    /// name, a different source or heap gets another, and a heap-less name
    /// hashes the source alone, as it always has.
    #[test]
    fn inline_specs_are_content_addressed() {
        let cfg = Config::baseline(CheckingMode::Full);
        let name = |source: &str, heap| ExperimentSpec::inline(source, cfg, heap).program;
        let a = ExperimentSpec::inline("(print 1)", cfg, None);
        assert_eq!(a.program, "inline:8508c9d692687518");
        assert_eq!(a.source.as_deref(), Some("(print 1)"));
        assert_eq!(
            a.to_spec_string(),
            format!("{}:high5:full:plain", a.program)
        );
        assert_eq!(
            name("(print 1)", Some(16 << 10)),
            name("(print 1)", Some(16 << 10))
        );
        for other in [
            name("(print 2)", None),
            name("(print 1)", Some(16 << 10)),
            name("(print 1)", Some(1 << 20)),
        ] {
            assert_ne!(a.program, other);
        }
        assert_ne!(
            name("(print 1)", Some(16 << 10)),
            name("(print 1)", Some(1 << 20))
        );
    }

    /// Each object field is one value, parsed by its own type: a `:` inside
    /// it is part of that value, so it fails as that field instead of
    /// spilling into the next.
    #[test]
    fn object_fields_parse_alone() {
        for (body, want) in [
            (
                r#"{"experiments": [{"program": "frl", "scheme": "low2:none", "checking": "tagbr", "hw": "timing=ideal"}]}"#,
                "unknown scheme \"low2:none\"",
            ),
            (
                r#"{"experiments": [{"program": "frl", "hw": "plain:timing=modern"}]}"#,
                "unknown hardware level \"plain:timing=modern\"",
            ),
            (
                r#"{"experiments": [{"source": "(print 1)", "checking": "full:x"}]}"#,
                "unknown checking mode \"full:x\"",
            ),
            (
                r#"{"experiments": [{"program": "frl", "timing": "warp"}]}"#,
                "unknown timing preset \"warp\"",
            ),
            (
                r#"{"experiments": [{"program": "frl", "backend": "classic"}]}"#,
                "unknown backend \"classic\" (want fast or ref)",
            ),
        ] {
            let err = parse_batch(body.as_bytes()).unwrap_err();
            assert!(err.contains(want), "{body}: {err}");
        }
        // The object and string forms agree on what they accept.
        let object = parse_batch(
            br#"{"experiments": [{"program": "frl", "scheme": "high6", "hw": "drop6+tagbr", "timing": "modern"}]}"#,
        )
        .unwrap();
        assert_eq!(
            object[0],
            parse_spec("frl:high6:full:drop6+tagbr:timing=modern").unwrap()
        );
    }

    /// The removed `classic` backend is advertised nowhere: not in any spec
    /// error's list of choices and not in the grammar line. (The `classic5`
    /// timing preset is a different word.)
    #[test]
    fn no_message_advertises_the_removed_backend() {
        let grammar = spec_grammar();
        let mut texts = vec![grammar.clone()];
        for bad in [
            "",
            "nope",
            "frl:tag9",
            "frl:backend=turbo",
            "frl:timing=x",
            "frl:a:b:c:d",
        ] {
            texts.push(parse_spec(bad).unwrap_err());
        }
        let body = br#"{"experiments": [{"program": "frl", "backend": "turbo"}]}"#;
        texts.push(parse_batch(body).unwrap_err());
        for text in &texts {
            assert!(!text.replace("classic5", "").contains("classic"), "{text}");
        }
        for backend in ALL_BACKENDS {
            assert!(grammar.contains(backend.name()), "{grammar}");
        }
    }
}
