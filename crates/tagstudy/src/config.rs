//! One point in the study's design space.

use std::fmt;
use std::hash::{Hash, Hasher};

use lisp::{CheckingMode, IntTestMethod, Options};
use mipsx::{Backend, HwConfig, TimingConfig};
use tagword::TagScheme;

/// A tag-implementation configuration: scheme × checking mode × hardware (plus
/// the §3.1 preshifted-tag ablation).
///
/// `Config` is `Hash + Eq` so that a `(program, Config)` pair can key the
/// [`Session`](crate::Session) measurement cache. The execution [`Backend`]
/// rides along for run routing but is **excluded** from `Eq`/`Hash` (and from
/// the persistent store's content addresses): all backends produce identical
/// measurements by construction, so the backend must never split the cache.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The tag scheme.
    pub scheme: TagScheme,
    /// The checking mode.
    pub checking: CheckingMode,
    /// Hardware support.
    pub hw: HwConfig,
    /// §3.1 ablation: preshifted pair tag kept in a register.
    pub preshifted_pair_tag: bool,
    /// §4.1: the integer-test sequence high-tag schemes emit.
    pub int_test_method: IntTestMethod,
    /// Which simulator backend executes the measurement (not part of the
    /// config's identity — results are backend-independent).
    pub backend: Backend,
    /// The microarchitectural timing model. Unlike `backend`, timing **is**
    /// part of a config's identity: a non-ideal model adds a stall breakdown
    /// to the measured `Stats`, so two timing configs are two experiments.
    pub timing: TimingConfig,
}

impl PartialEq for Config {
    fn eq(&self, other: &Self) -> bool {
        // `backend` deliberately omitted: see the type docs.
        self.scheme == other.scheme
            && self.checking == other.checking
            && self.hw == other.hw
            && self.preshifted_pair_tag == other.preshifted_pair_tag
            && self.int_test_method == other.int_test_method
            && self.timing == other.timing
    }
}

impl Eq for Config {}

impl Hash for Config {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `backend` deliberately omitted, mirroring `PartialEq`.
        self.scheme.hash(state);
        self.checking.hash(state);
        self.hw.hash(state);
        self.preshifted_pair_tag.hash(state);
        self.int_test_method.hash(state);
        self.timing.hash(state);
    }
}

impl Config {
    /// A plain-hardware configuration.
    pub fn new(scheme: TagScheme, checking: CheckingMode) -> Config {
        Config {
            scheme,
            checking,
            hw: HwConfig::plain(),
            preshifted_pair_tag: false,
            int_test_method: IntTestMethod::default(),
            backend: Backend::default(),
            timing: TimingConfig::ideal(),
        }
    }

    /// The paper's baseline: HighTag5 on stock hardware.
    pub fn baseline(checking: CheckingMode) -> Config {
        Config::new(TagScheme::HighTag5, checking)
    }

    /// Replace the hardware.
    pub fn with_hw(self, hw: HwConfig) -> Config {
        Config { hw, ..self }
    }

    /// Replace the execution backend (does not change the config's identity).
    pub fn with_backend(self, backend: Backend) -> Config {
        Config { backend, ..self }
    }

    /// Replace the timing model (changes the config's identity unless both
    /// are ideal).
    pub fn with_timing(self, timing: TimingConfig) -> Config {
        Config { timing, ..self }
    }

    /// The configuration's canonical name,
    /// `scheme:checking:hw[:inttest=M][:pairtag=preshift][:timing=T]`, with
    /// the keys printed only when they differ from the default, e.g.
    /// `high5:full:maximal` or `low2:none:drop5+tagbr:timing=modern`. The
    /// hardware is spelled by `HwConfig::name` for the scheme's tag width.
    /// [`parse`](Config::parse) inverts it, so two configurations share a
    /// name exactly when they are equal, except for two fields the study
    /// never varies:
    ///
    /// - the hardware cost fields (trap penalty, multiply, divide and FP
    ///   cycles), which every configuration leaves at their stock values;
    /// - a timing model that is not one of the named presets, which prints
    ///   as `timing=custom`.
    ///
    /// The backend is not part of the identity and is not printed.
    pub fn name(&self) -> String {
        let mut name = format!(
            "{}:{}:{}",
            self.scheme.name(),
            self.checking.name(),
            self.hw.name(self.scheme.tag_bits())
        );
        if self.int_test_method != IntTestMethod::default() {
            name.push_str(":inttest=");
            name.push_str(self.int_test_method.name());
        }
        if self.preshifted_pair_tag {
            name.push_str(":pairtag=preshift");
        }
        if !self.timing.is_ideal() {
            name.push_str(":timing=");
            name.push_str(self.timing.preset_name());
        }
        name
    }

    /// Parse a [`name`](Config::name): all three positional fields, then any
    /// of the keys `inttest`, `pairtag` and `timing` in any order. Values
    /// ignore ASCII case.
    ///
    /// # Errors
    ///
    /// A usage-ready message naming the bad field and quoting `text`.
    pub fn parse(text: &str) -> Result<Config, String> {
        let fields = ConfigFields::split(text, &NAME_KEYS).and_then(|fields| {
            // Positional fields fill in order: without hw, one is missing.
            match (fields.checking, fields.hw) {
                (None, _) => Err("missing checking field".to_string()),
                (_, None) => Err("missing hw field".to_string()),
                _ => fields.resolve(),
            }
        });
        fields.map_err(|why| {
            format!(
                "{why} in config name {text:?} \
                 (want scheme:checking:hw[:inttest=M][:pairtag=preshift][:timing=T])"
            )
        })
    }

    /// The 24-point matrix the differential oracle, the fuzz fleet, the
    /// conformance suite and the timing grid sweep: every tag scheme under
    /// no and full checking on plain, tag-branch and maximal hardware (at
    /// the scheme's tag width), nested in that order.
    pub fn matrix() -> Vec<Config> {
        let mut out = Vec::with_capacity(24);
        for scheme in tagword::ALL_SCHEMES {
            for checking in [CheckingMode::None, CheckingMode::Full] {
                for hw in [
                    HwConfig::plain(),
                    HwConfig::with_tag_branch(),
                    HwConfig::maximal(scheme.tag_bits()),
                ] {
                    out.push(Config::new(scheme, checking).with_hw(hw));
                }
            }
        }
        out
    }

    /// Convert to compiler options (heap size comes from the benchmark).
    pub fn to_options(self) -> Options {
        Options {
            scheme: self.scheme,
            hw: self.hw,
            checking: self.checking,
            preshifted_pair_tag: self.preshifted_pair_tag,
            int_test_method: self.int_test_method,
            ..Options::default()
        }
    }
}

impl fmt::Display for Config {
    /// The configuration's [`name`](Config::name).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The optional `key=value` fields of a [`Config::name`], in the order it
/// prints them.
const NAME_KEYS: [&str; 3] = ["inttest", "pairtag", "timing"];

/// A configuration spelled as separate text fields, each parsed next to its
/// type (`TagScheme::parse`, `HwConfig::parse`, …) when the fields are
/// [`resolve`](ConfigFields::resolve)d. [`Config::parse`], the daemon's spec
/// strings and its experiment objects all build their [`Config`] here, so a
/// value is checked the same way whichever form it arrived in.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfigFields<'a> {
    /// Tag scheme name; default `high5`.
    pub scheme: Option<&'a str>,
    /// Checking mode name; default `full`.
    pub checking: Option<&'a str>,
    /// Hardware name (see `HwConfig::name`); default `plain`.
    pub hw: Option<&'a str>,
    /// Int-test method (`signext` or `tagcmp`); default `signext`.
    pub inttest: Option<&'a str>,
    /// `preshift` for the §3.1 preshifted pair tag; default off.
    pub pairtag: Option<&'a str>,
    /// Timing preset name; default `ideal`.
    pub timing: Option<&'a str>,
    /// Simulator backend name; default `fast`. Not part of the identity.
    pub backend: Option<&'a str>,
}

impl<'a> ConfigFields<'a> {
    /// Split `scheme[:checking[:hw]][:key=value]...` into fields, where the
    /// trailing keys come from `keys` (matched ignoring ASCII case), in any
    /// order, each at most once. Fields are trimmed. A `key=value` field
    /// before a positional one is not a key, and fails as that positional
    /// field's value.
    ///
    /// # Errors
    ///
    /// A duplicate or empty key, a fourth positional field, or an empty
    /// positional field.
    pub fn split(text: &'a str, keys: &[&str]) -> Result<ConfigFields<'a>, String> {
        const POSITIONAL: [&str; 3] = ["scheme", "checking", "hw"];
        let mut fields: Vec<&str> = text.split(':').map(str::trim).collect();
        let mut out = ConfigFields::default();
        while let Some(last) = fields.last() {
            let Some((key, value)) = last.split_once('=') else {
                break;
            };
            let Some(key) = keys.iter().find(|k| k.eq_ignore_ascii_case(key)) else {
                break;
            };
            let slot = out.key_slot(key);
            if slot.is_some() {
                return Err(format!("duplicate {key} field"));
            }
            let value = value.trim();
            if value.is_empty() {
                return Err(format!("empty {key} field"));
            }
            *slot = Some(value);
            fields.pop();
        }
        if let Some(extra) = fields.get(POSITIONAL.len()) {
            return Err(format!("trailing field {extra:?}"));
        }
        if let Some(i) = fields.iter().position(|f| f.is_empty()) {
            return Err(format!("empty {} field", POSITIONAL[i]));
        }
        out.scheme = fields.first().copied();
        out.checking = fields.get(1).copied();
        out.hw = fields.get(2).copied();
        Ok(out)
    }

    fn key_slot(&mut self, key: &str) -> &mut Option<&'a str> {
        match key {
            "inttest" => &mut self.inttest,
            "pairtag" => &mut self.pairtag,
            "timing" => &mut self.timing,
            "backend" => &mut self.backend,
            _ => unreachable!("no config field is keyed {key:?}"),
        }
    }

    /// Parse every field with its type's parser; an absent field takes the
    /// paper's measured default (HighTag5, full checking, stock hardware).
    ///
    /// # Errors
    ///
    /// The first field whose value its type rejects, named by that parser.
    pub fn resolve(&self) -> Result<Config, String> {
        let scheme = self
            .scheme
            .map_or(Ok(TagScheme::HighTag5), TagScheme::parse)?;
        let checking = self
            .checking
            .map_or(Ok(CheckingMode::Full), CheckingMode::parse)?;
        let hw = self.hw.map_or(Ok(HwConfig::plain()), |text| {
            HwConfig::parse(text, scheme.tag_bits())
        })?;
        let int_test_method = self
            .inttest
            .map_or(Ok(IntTestMethod::default()), IntTestMethod::parse)?;
        let preshifted_pair_tag = match self.pairtag {
            None => false,
            Some(text) if text.eq_ignore_ascii_case("preshift") => true,
            Some(text) => {
                return Err(format!(
                    "unknown pair-tag mode {text:?} (want preshift, or no pairtag key)"
                ))
            }
        };
        let timing = self
            .timing
            .map_or(Ok(TimingConfig::ideal()), TimingConfig::parse)?;
        let backend = self
            .backend
            .map_or(Ok(Backend::default()), Backend::parse)?;
        Ok(Config {
            scheme,
            checking,
            hw,
            preshifted_pair_tag,
            int_test_method,
            backend,
            timing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_options() {
        let c = Config::baseline(CheckingMode::Full);
        assert_eq!(c.to_string(), "high5:full:plain");
        let o = c.to_options();
        assert_eq!(o.scheme, TagScheme::HighTag5);
        assert_eq!(o.checking, CheckingMode::Full);
        let c = c.with_hw(HwConfig::with_tag_branch());
        assert_eq!(c.to_string(), "high5:full:tagbr");
        assert_eq!(c.to_string(), c.name());
    }

    /// Every field that differs from the default is spelled, in the fixed
    /// key order, and the name parses back to the configuration.
    #[test]
    fn names_spell_every_ablation() {
        let c = Config {
            int_test_method: IntTestMethod::TagCompare,
            preshifted_pair_tag: true,
            ..Config::new(TagScheme::LowTag2, CheckingMode::None)
                .with_hw(HwConfig::maximal(5))
                .with_timing(TimingConfig::modern())
        };
        let name =
            "low2:none:drop5+tagbr+genarith+chkall:inttest=tagcmp:pairtag=preshift:timing=modern";
        assert_eq!(c.name(), name);
        assert_eq!(Config::parse(name), Ok(c));
        assert_eq!(
            Config::parse("LOW2 : None : chkall+genarith+tagbr+drop5 : timing=Modern : PAIRTAG=preshift : inttest=tagcmp"),
            Ok(c),
            "keys in any order, case-insensitive, fields trimmed"
        );
    }

    #[test]
    fn bad_names_are_described() {
        for (text, want) in [
            ("", "empty scheme field"),
            ("high5", "missing checking field"),
            ("high5:full", "missing hw field"),
            ("high5:full:plain:x", "trailing field \"x\""),
            ("high5:full:plain:backend=ref", "trailing field"),
            ("high9:full:plain", "unknown scheme \"high9\""),
            ("high5:some:plain", "unknown checking mode"),
            ("high5:full:warp", "unknown hardware level"),
            ("high5:full:drop0", "out of range"),
            ("high5:full:plain:inttest=guess", "unknown int-test method"),
            ("high5:full:plain:pairtag=yes", "unknown pair-tag mode"),
            ("high5:full:plain:timing=warp", "unknown timing preset"),
            (
                "high5:full:plain:timing=modern:timing=ideal",
                "duplicate timing field",
            ),
            ("high5:full:plain:timing=", "empty timing field"),
        ] {
            let err = Config::parse(text).unwrap_err();
            assert!(err.contains(want), "{text:?}: {err}");
            assert!(err.contains(&format!("in config name {text:?}")), "{err}");
        }
    }

    /// The matrix is 24 distinct configurations whose names are exactly the
    /// fleet's column coordinates, and each parses back.
    #[test]
    fn matrix_names_round_trip() {
        let matrix = Config::matrix();
        assert_eq!(matrix.len(), 24);
        let names: std::collections::BTreeSet<String> = matrix.iter().map(Config::name).collect();
        assert_eq!(names.len(), 24);
        assert!(names.contains("high5:full:maximal"));
        assert!(names.contains("low2:none:tagbr"));
        for c in &matrix {
            assert_eq!(Config::parse(&c.name()), Ok(*c));
        }
    }

    /// Every distinct point of the design space must round-trip through a hash
    /// map — the property the session cache key rests on.
    #[test]
    fn config_round_trips_as_hash_key() {
        use std::collections::HashMap;

        let mut points = Config::matrix();
        points.push(Config {
            preshifted_pair_tag: true,
            ..Config::baseline(CheckingMode::None)
        });
        points.push(Config {
            int_test_method: IntTestMethod::TagCompare,
            ..Config::baseline(CheckingMode::Full)
        });
        points.push(Config::baseline(CheckingMode::Full).with_timing(TimingConfig::classic5()));
        points.push(Config::baseline(CheckingMode::Full).with_timing(TimingConfig::modern()));

        let map: HashMap<Config, usize> = points.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        assert_eq!(map.len(), points.len(), "all points are distinct keys");
        for (i, c) in points.iter().enumerate() {
            assert_eq!(map.get(c), Some(&i), "{c} must round-trip");
        }
    }

    /// The backend never splits the cache: two configs differing only in
    /// backend are the same key, hash, and display string.
    #[test]
    fn backend_is_excluded_from_identity() {
        let base = Config::baseline(CheckingMode::Full);
        for backend in mipsx::ALL_BACKENDS {
            let c = base.with_backend(backend);
            assert_eq!(base, c, "{backend}");
            assert_eq!(base.to_string(), c.to_string(), "{backend}");
            let mut set = std::collections::HashSet::new();
            set.insert(base);
            assert!(set.contains(&c), "{backend} must hit the same cache slot");
        }
    }

    /// Timing, unlike backend, *is* identity: a non-ideal model yields a
    /// different key (and says so in the display string), while the ideal
    /// model is indistinguishable from never mentioning timing at all.
    #[test]
    fn timing_is_part_of_identity() {
        let base = Config::baseline(CheckingMode::Full);
        assert_eq!(base, base.with_timing(TimingConfig::ideal()));
        assert_eq!(base.to_string(), "high5:full:plain");

        let classic = base.with_timing(TimingConfig::classic5());
        assert_ne!(base, classic);
        assert_eq!(classic.to_string(), "high5:full:plain:timing=classic5");

        let modern = base.with_timing(TimingConfig::modern());
        assert_ne!(classic, modern);
        let mut set = std::collections::HashSet::new();
        set.insert(base);
        assert!(!set.contains(&classic), "timing must split the cache");
    }
}
