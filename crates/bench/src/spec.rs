//! Textual experiment specs, shared by every front end.
//!
//! One experiment point is written `program:scheme:checking:hw` with trailing
//! fields optional (`frl`, `frl:low2`, `frl:high5:full:tagbr`, …). Trailing
//! `key=value` fields (in any order) refine the point: a
//! `backend=fast|ref` field pins the simulator backend (`frl:backend=ref`,
//! `frl:low2:none:plain:backend=fast`); backends produce identical results,
//! so that key never enters cache identities. The removed `classic` backend
//! is rejected like any unknown name, never aliased to another backend. A
//! `timing=ideal|classic5|modern` field attaches a microarchitectural timing
//! model (`frl:low2:none:plain:timing=modern`) — unlike the backend, timing
//! **is** part of the point's identity, since it adds a stall breakdown to
//! the measured stats. The same grammar — and the same flag vocabulary (`--scheme`, `--checking`,
//! `--hw`) — is understood by the `profile` binary, the `tagctl` client, and
//! the `tagstudyd` daemon's wire protocol, so a spec that works in one place
//! works everywhere.

use tagstudy::{CheckingMode, Config};

/// Defaults when a spec omits a field: the paper's measured configuration
/// (HighTag5, full checking, stock hardware).
pub const DEFAULT_SCHEME: &str = "high5";
/// Default checking mode name.
pub const DEFAULT_CHECKING: &str = "full";
/// Default hardware level name.
pub const DEFAULT_HW: &str = "plain";

/// The accepted hardware level names, for usage strings.
pub const HW_LEVELS: &[&str] = &["plain", "tagbr", "genarith", "maximal", "spur"];

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

/// The content-derived name of an inline source: `inline:` plus the 64-bit
/// FNV-1a hash of the source text, and of the heap override when one is
/// given. Two specs with the same source and heap share a name (and
/// therefore a cache entry per [`Config`]); the same source under two heaps
/// gets two names, since the heap changes the measurement. Without a heap
/// the name hashes the source alone. The `inline:` namespace cannot collide
/// with benchmark names, which never contain `:`.
pub fn inline_name(source: &str, heap_semi_bytes: Option<u32>) -> String {
    let hash = match heap_semi_bytes {
        None => store::fnv1a64(source.as_bytes()),
        Some(heap) => store::fnv1a64(format!("{source}\0heap={heap}").as_bytes()),
    };
    format!("inline:{hash:016x}")
}

impl ExperimentSpec {
    /// An inline experiment: measure caller-supplied Lisp source under
    /// `config`. The program name is derived from the source content via
    /// [`inline_name`].
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

    /// Render back to the canonical `program:scheme:checking:hw` form, with
    /// a `:timing=` key appended when a non-ideal timing model is part of
    /// the point's identity. (Inline specs render with their `inline:<hash>` name; the result
    /// identifies the point but is not re-parseable as a string spec, since
    /// inline sources only travel as objects.)
    pub fn to_spec_string(&self) -> String {
        let mut spec = format!(
            "{}:{}:{}:{}",
            self.program,
            self.config.scheme.name(),
            match self.config.checking {
                CheckingMode::None => "none",
                CheckingMode::Full => "full",
            },
            hw_level_name(&self.config)
        );
        if !self.config.timing.is_ideal() {
            spec.push_str(&format!(":timing={}", self.config.timing));
        }
        spec
    }
}

/// Name the hardware level of `config` (the inverse of [`parse_hw`] for the
/// levels the spec grammar can express; unrecognised combinations print as
/// `custom`).
pub fn hw_level_name(config: &Config) -> &'static str {
    let bits = config.scheme.tag_bits();
    let hw = config.hw;
    if hw == mipsx::HwConfig::plain() {
        "plain"
    } else if hw == mipsx::HwConfig::with_tag_branch() {
        "tagbr"
    } else if hw == mipsx::HwConfig::with_generic_arith() {
        "genarith"
    } else if hw == mipsx::HwConfig::maximal(bits) {
        "maximal"
    } else if hw == mipsx::HwConfig::spur(bits) {
        "spur"
    } else {
        "custom"
    }
}

/// Parse a tag-scheme name (`high5`, `high6`, `low2`, `low3`), ignoring ASCII
/// case.
///
/// # Errors
///
/// A usage-ready message naming the accepted schemes.
pub fn parse_scheme(name: &str) -> Result<tagword::TagScheme, String> {
    tagword::ALL_SCHEMES
        .iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| {
            let all: Vec<&str> = tagword::ALL_SCHEMES.iter().map(|s| s.name()).collect();
            format!("unknown scheme {name:?} (want one of: {})", all.join(", "))
        })
}

/// Parse a checking-mode name (`none` or `full`), ignoring ASCII case.
///
/// # Errors
///
/// A usage-ready message naming the accepted modes.
pub fn parse_checking(name: &str) -> Result<CheckingMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "none" => Ok(CheckingMode::None),
        "full" => Ok(CheckingMode::Full),
        _ => Err(format!(
            "unknown checking mode {name:?} (want none or full)"
        )),
    }
}

/// Parse an execution-backend name (`fast` or `ref`), ignoring ASCII case.
///
/// # Errors
///
/// A usage-ready message naming the accepted backends.
pub fn parse_backend(name: &str) -> Result<mipsx::Backend, String> {
    mipsx::Backend::from_name(name)
        .ok_or_else(|| format!("unknown backend {name:?} (want fast or ref)"))
}

/// Parse a timing-preset name (`ideal`, `classic5`, or `modern`), ignoring
/// ASCII case.
///
/// # Errors
///
/// A usage-ready message naming the accepted presets.
pub fn parse_timing(name: &str) -> Result<mipsx::TimingConfig, String> {
    mipsx::TimingConfig::preset(&name.to_ascii_lowercase()).ok_or_else(|| {
        format!(
            "unknown timing preset {name:?} (want {})",
            mipsx::TIMING_PRESETS.join(", ")
        )
    })
}

/// Parse a hardware level name for `scheme` (the tag-dependent levels need the
/// scheme's tag width), ignoring ASCII case.
///
/// # Errors
///
/// A usage-ready message naming the accepted levels.
pub fn parse_hw(name: &str, scheme: tagword::TagScheme) -> Result<mipsx::HwConfig, String> {
    match name.to_ascii_lowercase().as_str() {
        "plain" => Ok(mipsx::HwConfig::plain()),
        "tagbr" => Ok(mipsx::HwConfig::with_tag_branch()),
        "genarith" => Ok(mipsx::HwConfig::with_generic_arith()),
        "maximal" => Ok(mipsx::HwConfig::maximal(scheme.tag_bits())),
        "spur" => Ok(mipsx::HwConfig::spur(scheme.tag_bits())),
        _ => Err(format!(
            "unknown hardware level {name:?} (want one of: {})",
            HW_LEVELS.join(", ")
        )),
    }
}

/// The one place every spec error is phrased: the reason, the offending spec,
/// and the grammar reminder, in that order.
fn spec_error(text: &str, why: impl std::fmt::Display) -> String {
    format!(
        "{why} in spec {text:?} (want program[:scheme[:checking[:hw]]]\
         [:backend=classic|fast|ref][:timing=ideal|classic5|modern])"
    )
}

/// Parse one `program[:scheme[:checking[:hw]]][:backend=B][:timing=T]` spec,
/// validating the benchmark name against the registry. Field values are
/// case-insensitive and whitespace around fields is ignored; the benchmark
/// name itself is exact. The optional trailing `key=value` fields (accepted
/// in either order) select the simulator backend — which never affects the
/// point's identity — and the timing model, which does (see [`Config`]).
///
/// # Errors
///
/// A usage-ready message — always phrased by the same canonical path — for an
/// empty spec or field, an unknown benchmark, an unknown field value, a
/// duplicated trailing key, or too many `:`-separated fields.
pub fn parse_spec(text: &str) -> Result<ExperimentSpec, String> {
    const FIELD_NAMES: [&str; 4] = ["benchmark", "scheme", "checking", "hw"];
    let mut fields: Vec<&str> = text.split(':').map(str::trim).collect();
    let mut backend = mipsx::Backend::default();
    let mut timing = mipsx::TimingConfig::ideal();
    let mut saw_backend = false;
    let mut saw_timing = false;
    // Pop trailing `key=value` fields; the keys may appear in either order,
    // each at most once. (A key in first position is a program name, not a
    // key — it falls through to the unknown-benchmark error.)
    while fields.len() >= 2 {
        let last: &str = fields.last().copied().unwrap_or("");
        let (key, prefix_len, seen) = if last
            .get(..8)
            .is_some_and(|p| p.eq_ignore_ascii_case("backend="))
        {
            ("backend", 8, &mut saw_backend)
        } else if last
            .get(..7)
            .is_some_and(|p| p.eq_ignore_ascii_case("timing="))
        {
            ("timing", 7, &mut saw_timing)
        } else {
            break;
        };
        if *seen {
            return Err(spec_error(text, format!("duplicate {key} field")));
        }
        *seen = true;
        let name = last[prefix_len..].trim();
        if name.is_empty() {
            return Err(spec_error(text, format!("empty {key} field")));
        }
        match key {
            "backend" => backend = parse_backend(name).map_err(|e| spec_error(text, e))?,
            _ => timing = parse_timing(name).map_err(|e| spec_error(text, e))?,
        }
        fields.pop();
    }
    if fields.len() > FIELD_NAMES.len() {
        return Err(spec_error(text, format!("trailing field {:?}", fields[4])));
    }
    if fields[0].is_empty() && fields.len() == 1 {
        return Err(spec_error(text, "empty spec"));
    }
    if let Some(i) = fields.iter().position(|f| f.is_empty()) {
        return Err(spec_error(text, format!("empty {} field", FIELD_NAMES[i])));
    }
    let program = fields[0];
    if programs::by_name(program).is_none() {
        return Err(spec_error(
            text,
            format!(
                "unknown benchmark {program:?} (want one of: {})",
                programs::names().join(", ")
            ),
        ));
    }
    let scheme = parse_scheme(fields.get(1).copied().unwrap_or(DEFAULT_SCHEME))
        .map_err(|e| spec_error(text, e))?;
    let checking = parse_checking(fields.get(2).copied().unwrap_or(DEFAULT_CHECKING))
        .map_err(|e| spec_error(text, e))?;
    let hw = parse_hw(fields.get(3).copied().unwrap_or(DEFAULT_HW), scheme)
        .map_err(|e| spec_error(text, e))?;
    Ok(ExperimentSpec {
        program: program.to_string(),
        config: Config::new(scheme, checking)
            .with_hw(hw)
            .with_backend(backend)
            .with_timing(timing),
        source: None,
        heap_semi_bytes: None,
    })
}

/// One line describing the spec grammar, for usage messages.
pub fn spec_grammar() -> String {
    let schemes: Vec<&str> = tagword::ALL_SCHEMES.iter().map(|s| s.name()).collect();
    format!(
        "spec: program[:scheme[:checking[:hw]]][:backend=B][:timing=T]  \
         (schemes: {}; checking: none|full; hw: {}; backend: fast|ref; \
         timing: {})\n\
         benchmarks: {}",
        schemes.join("|"),
        HW_LEVELS.join("|"),
        mipsx::TIMING_PRESETS.join("|"),
        programs::names().join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_full_form() {
        let s = parse_spec("frl").unwrap();
        assert_eq!(s.program, "frl");
        assert_eq!(s.config, Config::baseline(CheckingMode::Full));
        assert_eq!(s.to_spec_string(), "frl:high5:full:plain");

        let s = parse_spec("boyer:low2:none:tagbr").unwrap();
        assert_eq!(s.config.scheme, tagword::TagScheme::LowTag2);
        assert_eq!(s.config.checking, CheckingMode::None);
        assert_eq!(s.config.hw, mipsx::HwConfig::with_tag_branch());
        assert_eq!(s.to_spec_string(), "boyer:low2:none:tagbr");
    }

    #[test]
    fn every_hw_level_round_trips() {
        for hw in HW_LEVELS {
            let s = parse_spec(&format!("frl:high6:full:{hw}")).unwrap();
            assert_eq!(hw_level_name(&s.config), *hw);
            assert_eq!(parse_spec(&s.to_spec_string()).unwrap(), s);
        }
    }

    #[test]
    fn bad_specs_are_described() {
        assert!(parse_spec("nope")
            .unwrap_err()
            .contains("unknown benchmark"));
        assert!(parse_spec("frl:tag9")
            .unwrap_err()
            .contains("unknown scheme"));
        assert!(parse_spec("frl:high5:maybe")
            .unwrap_err()
            .contains("checking"));
        assert!(parse_spec("frl:high5:full:warp")
            .unwrap_err()
            .contains("hardware"));
        assert!(parse_spec("frl:high5:full:plain:x")
            .unwrap_err()
            .contains("trailing"));
    }

    /// Every malformed shape goes through the one canonical error path: the
    /// message names the reason, quotes the spec, and restates the grammar.
    #[test]
    fn every_error_is_canonically_phrased() {
        let cases: &[(&str, &str)] = &[
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
            ("frl:tag9", "unknown scheme"),
            ("frl:high5:maybe", "unknown checking mode"),
            ("frl:high5:full:warp", "unknown hardware level"),
            ("frl:high5:full:plain:x", "trailing field \"x\""),
            ("frl:high5:full:plain::", "trailing field"),
        ];
        for (text, reason) in cases {
            let err = parse_spec(text).unwrap_err();
            assert!(err.contains(reason), "{text:?}: {err}");
            assert!(
                err.contains(&format!("in spec {text:?}")),
                "{text:?}: error does not quote the spec: {err}"
            );
            assert!(
                err.contains("want program[:scheme[:checking[:hw]]]"),
                "{text:?}: error does not restate the grammar: {err}"
            );
        }
    }

    /// The trailing `backend=` key pins the simulator backend at any truncation
    /// point of the positional grammar, without changing the point's identity.
    #[test]
    fn backend_key_is_parsed_and_identity_free() {
        use mipsx::Backend;
        let cases = [
            ("frl:backend=fast", Backend::Fast),
            ("frl:low2:backend=ref", Backend::Ref),
            ("frl:high5:full:plain:backend=ref", Backend::Ref),
            ("frl : BACKEND=Fast", Backend::Fast),
        ];
        for (text, want) in cases {
            let s = parse_spec(text).unwrap();
            assert_eq!(s.config.backend, want, "{text}");
            // The backend never reaches the cache identity or the canonical
            // rendered form.
            let plain = parse_spec(&s.to_spec_string()).unwrap();
            assert_eq!(s, plain, "{text}: backend must not split identity");
            assert!(!s.to_spec_string().contains("backend"), "{text}");
        }
        assert_eq!(
            parse_spec("frl").unwrap().config.backend,
            Backend::default(),
            "omitted key means the default backend"
        );
    }

    /// Unknown or empty backend values go through the canonical error path.
    #[test]
    fn bad_backend_values_are_canonically_phrased() {
        for (text, reason) in [
            ("frl:backend=turbo", "unknown backend \"turbo\""),
            ("frl:backend=", "empty backend field"),
            ("frl:high5:full:plain:backend=x", "unknown backend"),
            // The removed interpreter is rejected, never aliased: an alias
            // would report one backend's numbers under another's name.
            (
                "frl:backend=classic",
                "unknown backend \"classic\" (want fast or ref)",
            ),
        ] {
            let err = parse_spec(text).unwrap_err();
            assert!(err.contains(reason), "{text:?}: {err}");
            assert!(
                err.contains(&format!("in spec {text:?}")),
                "{text:?}: error does not quote the spec: {err}"
            );
            assert!(
                err.contains("want program[:scheme[:checking[:hw]]]"),
                "{text:?}: error does not restate the grammar: {err}"
            );
        }
        // A backend key anywhere but last is not recognized as a key.
        assert!(parse_spec("frl:backend=fast:low2")
            .unwrap_err()
            .contains("unknown scheme"));
    }

    /// The trailing `timing=` key attaches a timing preset — which, unlike
    /// the backend, IS identity and round-trips through the rendered form.
    #[test]
    fn timing_key_is_parsed_and_is_identity() {
        use mipsx::TimingConfig;
        let cases = [
            ("frl:timing=ideal", TimingConfig::ideal()),
            ("frl:timing=classic5", TimingConfig::classic5()),
            ("frl:low2:timing=modern", TimingConfig::modern()),
            (
                "frl:high5:full:plain:timing=classic5",
                TimingConfig::classic5(),
            ),
            ("frl : TIMING=Modern", TimingConfig::modern()),
        ];
        for (text, want) in cases {
            let s = parse_spec(text).unwrap();
            assert_eq!(s.config.timing, want, "{text}");
            // Unlike backend, a non-ideal timing model renders and re-parses:
            // the spec string IS the identity.
            let rendered = s.to_spec_string();
            assert_eq!(parse_spec(&rendered).unwrap(), s, "{text} via {rendered}");
            assert_eq!(rendered.contains("timing="), !want.is_ideal(), "{text}");
        }
        assert!(
            parse_spec("frl").unwrap().config.timing.is_ideal(),
            "omitted key means the ideal model"
        );
        // Ideal and non-ideal are different points.
        assert_ne!(
            parse_spec("frl").unwrap(),
            parse_spec("frl:timing=modern").unwrap()
        );
    }

    /// Backend and timing keys compose in either order; bad or duplicate
    /// values go through the canonical error path.
    #[test]
    fn trailing_keys_compose_and_fail_canonically() {
        for text in [
            "frl:low2:none:tagbr:backend=ref:timing=modern",
            "frl:low2:none:tagbr:timing=modern:backend=ref",
        ] {
            let s = parse_spec(text).unwrap();
            assert_eq!(s.config.backend, mipsx::Backend::Ref, "{text}");
            assert_eq!(s.config.timing, mipsx::TimingConfig::modern(), "{text}");
            assert_eq!(s.to_spec_string(), "frl:low2:none:tagbr:timing=modern");
        }
        for (text, reason) in [
            ("frl:timing=warp", "unknown timing preset \"warp\""),
            ("frl:timing=", "empty timing field"),
            ("frl:timing=ideal:timing=modern", "duplicate timing field"),
            ("frl:backend=ref:backend=fast", "duplicate backend field"),
            ("frl:high5:full:plain:timing=x", "unknown timing preset"),
        ] {
            let err = parse_spec(text).unwrap_err();
            assert!(err.contains(reason), "{text:?}: {err}");
            assert!(
                err.contains(&format!("in spec {text:?}")),
                "{text:?}: error does not quote the spec: {err}"
            );
            assert!(
                err.contains("want program[:scheme[:checking[:hw]]]"),
                "{text:?}: error does not restate the grammar: {err}"
            );
        }
        // A timing key anywhere but trailing is not recognized as a key.
        assert!(parse_spec("frl:timing=modern:low2")
            .unwrap_err()
            .contains("unknown scheme"));
    }

    /// Scheme, checking, and hw names are case-insensitive and tolerate
    /// surrounding whitespace; the benchmark name stays exact.
    #[test]
    fn field_values_are_case_insensitive() {
        let canonical = parse_spec("frl:low2:none:tagbr").unwrap();
        assert_eq!(parse_spec("frl:LOW2:None:TagBr").unwrap(), canonical);
        assert_eq!(
            parse_spec(" frl : Low2 : NONE : TAGBR ").unwrap(),
            canonical
        );
        assert!(parse_spec("FRL").unwrap_err().contains("unknown benchmark"));
    }

    /// Inline specs: content-derived name, carried source, heap override, and
    /// a rendered spec string that identifies the point.
    #[test]
    fn inline_specs_are_content_addressed() {
        let cfg = Config::baseline(CheckingMode::Full);
        let a = ExperimentSpec::inline("(print 1)", cfg, None);
        let b = ExperimentSpec::inline("(print 1)", cfg, None);
        let c = ExperimentSpec::inline("(print 2)", cfg, Some(64 << 10));
        assert_eq!(a.program, b.program, "same source, same name");
        assert_ne!(a.program, c.program, "different source, different name");
        assert!(a.program.starts_with("inline:"), "{}", a.program);
        assert_eq!(a.source.as_deref(), Some("(print 1)"));
        assert_eq!(c.heap_semi_bytes, Some(64 << 10));
        assert_eq!(
            a.to_spec_string(),
            format!("{}:high5:full:plain", a.program)
        );
        assert_eq!(a.program, inline_name("(print 1)", None));
        // A heap-less name hashes the source alone, as it always has.
        assert_eq!(a.program, "inline:8508c9d692687518");
    }

    /// The heap override is part of an inline point's name: one source under
    /// two heaps is two programs.
    #[test]
    fn inline_names_cover_the_heap() {
        let cfg = Config::baseline(CheckingMode::Full);
        let small = ExperimentSpec::inline("(print 1)", cfg, Some(16 << 10));
        let large = ExperimentSpec::inline("(print 1)", cfg, Some(1 << 20));
        let default = ExperimentSpec::inline("(print 1)", cfg, None);
        assert_ne!(small.program, large.program);
        assert_ne!(small.program, default.program);
        assert_eq!(
            small.program,
            ExperimentSpec::inline("(print 1)", cfg, Some(16 << 10)).program
        );
    }
}
