//! The daemon's JSON wire protocol: batch requests in, deterministic result
//! documents out.
//!
//! A batch body is `{"experiments": [ <spec>, ... ]}` where each spec is
//! either a string in the [`bench::spec`] grammar (`"frl:low2:none:tagbr"`),
//! an object `{"program": "frl", "scheme": "low2", "checking": "none",
//! "hw": "tagbr", "timing": "modern"}` with every field but `program`
//! optional, or an *inline* object `{"source": "(print 1)", "heap": 65536,
//! ...}` carrying its own Lisp source — measured under the content-derived `inline:<hash>` name, so equal
//! sources share a cache entry per configuration.
//!
//! The response is `{"results": [ ... ]}` with one entry per request, in
//! request order; each entry carries the canonical spec string, the content
//! address the measurement is stored under, and the measurement itself in the
//! same deterministic encoding the store uses. Timing is deliberately absent —
//! it varies run to run, and its absence is what makes daemon responses
//! byte-identical whether a point was simulated, cached, or warm-loaded from
//! disk.

use bench::spec::{self, ExperimentSpec};
use store::{record, StoreKey};
use tagstudy::{Json, Measurement};

use crate::http::json_string;

/// Upper bound on experiments per batch — a guard rail, not a tuning knob.
pub const MAX_BATCH: usize = 1024;

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
    let field = |name: &str, default: &str| -> Result<String, String> {
        match get(obj, name) {
            Some(v) => Ok(v.as_str(name)?.to_string()),
            None => Ok(default.to_string()),
        }
    };
    // The backend pins which simulator executes the measurement; it never
    // enters the config's identity or the store's content addresses.
    let backend = match get(obj, "backend") {
        Some(v) => spec::parse_backend(v.as_str("backend")?)?,
        None => mipsx::Backend::default(),
    };
    // The timing model, by contrast, IS identity: a timed point is stored
    // under (and served from) its own content address.
    let timing = match get(obj, "timing") {
        Some(v) => spec::parse_timing(v.as_str("timing")?)?,
        None => mipsx::TimingConfig::ideal(),
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
        let scheme = spec::parse_scheme(&field("scheme", spec::DEFAULT_SCHEME)?)?;
        let checking = spec::parse_checking(&field("checking", spec::DEFAULT_CHECKING)?)?;
        let hw = spec::parse_hw(&field("hw", spec::DEFAULT_HW)?, scheme)?;
        let config = tagstudy::Config::new(scheme, checking)
            .with_hw(hw)
            .with_backend(backend)
            .with_timing(timing);
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
    let text = format!(
        "{program}:{}:{}:{}",
        field("scheme", spec::DEFAULT_SCHEME)?,
        field("checking", spec::DEFAULT_CHECKING)?,
        field("hw", spec::DEFAULT_HW)?
    );
    let mut parsed = spec::parse_spec(&text)?;
    parsed.config = parsed.config.with_backend(backend).with_timing(timing);
    Ok(parsed)
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
                Json::Str(text) => spec::parse_spec(text),
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
            bench::spec::inline_name("(print 1)", None),
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
        let a = StoreKey::compute("src", &specs[1].config);
        let b = StoreKey::compute("src", &specs[1].config.with_backend(Backend::Fast));
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
        assert_eq!(specs[1].to_spec_string(), "trav:high5:full:plain:timing=modern");
        let ideal = StoreKey::compute("src", &specs[3].config);
        let timed = StoreKey::compute("src", &specs[3].config.with_timing(TimingConfig::modern()));
        assert_ne!(ideal.as_str(), timed.as_str(), "timing must split addresses");
    }

    /// Unknown timing presets take the canonical error paths of both shapes.
    #[test]
    fn bad_timing_presets_are_rejected() {
        let err = parse_batch(br#"{"experiments": ["frl:timing=warp"]}"#).unwrap_err();
        assert!(err.contains("unknown timing preset \"warp\""), "{err}");
        let err = parse_batch(br#"{"experiments": [{"program": "frl", "timing": "warp"}]}"#)
            .unwrap_err();
        assert!(err.contains("unknown timing preset \"warp\""), "{err}");
    }

    /// A timed measurement's stall breakdown survives the results document.
    #[test]
    fn timed_results_round_trip() {
        let spec = bench::spec::parse_spec("frl:high6:none:maximal:timing=modern").unwrap();
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
        let key = StoreKey::compute("fake source", &spec.config);
        let doc = results_json(&[(spec.clone(), key.clone(), m.clone())]);
        let parsed = parse_results(&doc).unwrap();
        assert_eq!(parsed[0].0, spec.to_spec_string());
        assert_eq!(parsed[0].2.stats, m.stats);
        assert_eq!(parsed[0].2.config, m.config);
    }

    /// Unknown backend values — including the removed `classic` — take the
    /// canonical error paths of both shapes.
    #[test]
    fn bad_backends_are_rejected() {
        for name in ["turbo", "classic"] {
            let want = format!("unknown backend \"{name}\" (want fast or ref)");
            let body = format!(r#"{{"experiments": ["frl:backend={name}"]}}"#);
            let err = parse_batch(body.as_bytes()).unwrap_err();
            assert!(err.contains(&want), "{err}");
            let body = format!(r#"{{"experiments": [{{"program": "frl", "backend": "{name}"}}]}}"#);
            let err = parse_batch(body.as_bytes()).unwrap_err();
            assert!(err.contains(&want), "{err}");
        }
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
        let spec = bench::spec::parse_spec("frl:high6:none:maximal").unwrap();
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
        let key = StoreKey::compute("fake source", &spec.config);
        let doc = results_json(&[(spec.clone(), key.clone(), m.clone())]);
        let parsed = parse_results(&doc).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, spec.to_spec_string());
        assert_eq!(parsed[0].1, key.as_str());
        assert_eq!(parsed[0].2.stats, m.stats);
        assert_eq!(parsed[0].2.config, m.config);
    }
}
