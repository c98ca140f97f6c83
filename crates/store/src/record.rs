//! The on-disk record codec: deterministic JSON for a [`Measurement`] plus its
//! [`Timing`], wrapped in the store's one versioned, checksummed envelope
//! (see the crate docs).
//!
//! Everything here is exact: all numeric fields are `u64`/`usize` counters or
//! `Duration` nanoseconds, the statistics tables are emitted as arrays of
//! their non-zero cells sorted by name, and enum variants are written by name — so encode → decode → encode
//! is byte-identical, which is what lets a checksum over the payload text
//! detect any corruption.

use std::time::Duration;

use mipsx::{
    CheckCat, HwConfig, InsnClass, ParallelCheck, Provenance, Stats, TagOpKind, ALL_CHECK_CATS,
    ALL_CLASSES, ALL_TAG_OPS,
};
use tagstudy::{json_field, json_string, CheckingMode, Config, Json, Measurement, Timing};

use crate::disk::Envelope;
use crate::{StoreKey, FORMAT_VERSION};

const PROVENANCES: [Provenance; 2] = [Provenance::Base, Provenance::Checking];

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The canonical JSON encoding of a [`Config`] — every field spelled out, so
/// adding a field to `Config` changes the encoding (and therefore every store
/// key) instead of silently aliasing distinct configurations.
///
/// The one deliberate exception: an **ideal** timing model is encoded by
/// *omitting* the `timing` key entirely, so every pre-timing content address
/// (and stored record) stays byte-identical. A non-ideal model appends its
/// full structure — a different address, as it must be: the measurement
/// carries a stall breakdown the ideal one lacks.
pub fn config_to_json(c: &Config) -> String {
    let hw = c.hw;
    let timing = if c.timing.is_ideal() {
        String::new()
    } else {
        format!(",\"timing\":{}", timing_config_to_json(&c.timing))
    };
    format!(
        "{{\"scheme\":{},\"checking\":\"{:?}\",\"hw\":{{\"drop_high_address_bits\":{},\
         \"tag_branch\":{},\"parallel_check\":\"{:?}\",\"generic_arith\":{},\
         \"trap_penalty\":{},\"mul_cycles\":{},\"div_cycles\":{},\"fp_cycles\":{}}},\
         \"preshifted_pair_tag\":{},\"int_test_method\":\"{:?}\"{timing}}}",
        json_string(c.scheme.name()),
        c.checking,
        hw.drop_high_address_bits,
        hw.tag_branch,
        hw.parallel_check,
        hw.generic_arith,
        hw.trap_penalty,
        hw.mul_cycles,
        hw.div_cycles,
        hw.fp_cycles,
        c.preshifted_pair_tag,
        c.int_test_method,
    )
}

fn cache_params_to_json(p: &mipsx::CacheParams) -> String {
    format!(
        "{{\"size\":{},\"ways\":{},\"line\":{}}}",
        p.size, p.ways, p.line
    )
}

/// Canonical encoding of a non-ideal [`mipsx::TimingConfig`]: structural, not
/// by preset name, so a retuned preset in a future version cannot silently
/// alias records measured under the old numbers.
fn timing_config_to_json(t: &mipsx::TimingConfig) -> String {
    format!(
        "{{\"l1i\":{},\"l1d\":{},\"l2\":{},\"l2_latency\":{},\"mem_latency\":{},\
         \"predictor\":\"{:?}\",\"predictor_bits\":{},\"btb_bits\":{},\
         \"mispredict_penalty\":{},\"load_latency\":{}}}",
        cache_params_to_json(&t.l1i),
        cache_params_to_json(&t.l1d),
        cache_params_to_json(&t.l2),
        t.l2_latency,
        t.mem_latency,
        t.predictor,
        t.predictor_bits,
        t.btb_bits,
        t.mispredict_penalty,
        t.load_latency,
    )
}

fn stats_to_json(s: &Stats) -> String {
    // Each table is written as its non-zero cells, sorted by name.
    let mut classes: Vec<(&str, u64)> = ALL_CLASSES
        .iter()
        .map(|&c| (c.name(), s.class_count(c)))
        .filter(|&(_, v)| v > 0)
        .collect();
    classes.sort_unstable();
    let mut tags: Vec<(String, String, u64)> = ALL_TAG_OPS
        .iter()
        .flat_map(|&op| PROVENANCES.map(|prov| (op, prov)))
        .map(|(op, prov)| {
            let v = s.tag_op_cycles_by(op, prov);
            (format!("{op:?}"), format!("{prov:?}"), v)
        })
        .filter(|&(_, _, v)| v > 0)
        .collect();
    tags.sort();
    let mut cats: Vec<(String, u64)> = ALL_CHECK_CATS
        .iter()
        .map(|&c| (format!("{c:?}"), s.checking_cycles(c)))
        .filter(|&(_, v)| v > 0)
        .collect();
    cats.sort();

    let classes = classes
        .iter()
        .map(|(k, v)| format!("[{},{v}]", json_string(k)))
        .collect::<Vec<_>>()
        .join(",");
    let tags = tags
        .iter()
        .map(|(op, prov, v)| format!("[{},{},{v}]", json_string(op), json_string(prov)))
        .collect::<Vec<_>>()
        .join(",");
    let cats = cats
        .iter()
        .map(|(k, v)| format!("[{},{v}]", json_string(k)))
        .collect::<Vec<_>>()
        .join(",");
    let timing = match &s.timing {
        None => String::new(),
        Some(t) => format!(",\"timing\":{}", timing_stats_to_json(t)),
    };
    format!(
        "{{\"cycles\":{},\"committed\":{},\"squashed\":{},\"trap_cycles\":{},\"traps\":{},\
         \"class_counts\":[{classes}],\"tag_cycles\":[{tags}],\"check_cat_cycles\":[{cats}]{timing}}}",
        s.cycles, s.committed, s.squashed, s.trap_cycles, s.traps,
    )
}

fn timing_stats_to_json(t: &mipsx::TimingStats) -> String {
    format!(
        "{{\"stall_icache\":{},\"stall_dcache\":{},\"stall_mispredict\":{},\
         \"stall_load_use\":{},\"icache_accesses\":{},\"icache_misses\":{},\
         \"dcache_accesses\":{},\"dcache_misses\":{},\"l2_accesses\":{},\"l2_misses\":{},\
         \"branches\":{},\"mispredicts\":{}}}",
        t.stall_icache,
        t.stall_dcache,
        t.stall_mispredict,
        t.stall_load_use,
        t.icache_accesses,
        t.icache_misses,
        t.dcache_accesses,
        t.dcache_misses,
        t.l2_accesses,
        t.l2_misses,
        t.branches,
        t.mispredicts,
    )
}

/// The deterministic JSON encoding of a measurement *without* host timing —
/// everything in it is a simulator-determined value, so two runs of the same
/// `(program, Config)` point encode byte-identically. This is the payload the
/// daemon serves.
pub fn measurement_to_json(m: &Measurement) -> String {
    format!(
        "{{\"program\":{},\"config\":{},\"stats\":{},\"compile\":{{\"procedures\":{},\
         \"source_lines\":{},\"object_words\":{}}},\"halt_code\":{},\"output\":{}}}",
        json_string(&m.program),
        config_to_json(&m.config),
        stats_to_json(&m.stats),
        m.compile.procedures,
        m.compile.source_lines,
        m.compile.object_words,
        m.halt_code,
        json_string(&m.output),
    )
}

/// The record payload: the measurement plus the host-side wall time the
/// original computation cost (kept so a warm-started session can still report
/// a meaningful compile/simulate split).
pub fn payload_to_json(m: &Measurement, t: &Timing) -> String {
    format!(
        "{{\"measurement\":{},\"timing\":{{\"compile_ns\":{},\"simulate_ns\":{}}}}}",
        measurement_to_json(m),
        t.compile.as_nanos(),
        t.simulate.as_nanos(),
    )
}

const RECORD: Envelope = Envelope(FORMAT_VERSION, "payload");

/// A full on-disk record: versioned envelope, key, payload checksum, payload.
pub fn record_to_json(key: &StoreKey, m: &Measurement, t: &Timing) -> String {
    RECORD.seal(Some(key), &payload_to_json(m, t))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

pub(crate) fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    json_field(obj, key)?.as_u64(key)
}

pub(crate) fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    json_field(obj, key)?.as_str(key)
}

fn get_bool(obj: &[(String, Json)], key: &str) -> Result<bool, String> {
    match json_field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{key}: expected bool, got {other:?}")),
    }
}

fn parse_variant<T: Copy>(
    what: &str,
    name: &str,
    all: &[T],
    variant_name: impl Fn(&T) -> String,
) -> Result<T, String> {
    all.iter()
        .find(|v| variant_name(v) == name)
        .copied()
        .ok_or_else(|| format!("{what}: unknown variant {name:?}"))
}

/// Decode a [`Config`] from its [`config_to_json`] encoding. The backend is
/// never serialized (it is not part of a config's identity), so decoded
/// configs carry [`mipsx::Backend::default`]; callers that routed a specific
/// backend must re-apply it.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn config_from_json(v: &Json) -> Result<Config, String> {
    let obj = v.as_object("config")?;
    let scheme = parse_variant(
        "scheme",
        get_str(obj, "scheme")?,
        &tagword::ALL_SCHEMES,
        |s| s.name().to_string(),
    )?;
    let checking = parse_variant(
        "checking",
        get_str(obj, "checking")?,
        &[CheckingMode::None, CheckingMode::Full],
        |c| format!("{c:?}"),
    )?;
    let hw_obj = json_field(obj, "hw")?.as_object("hw")?;
    let parallel_check = parse_variant(
        "parallel_check",
        get_str(hw_obj, "parallel_check")?,
        &[
            ParallelCheck::None,
            ParallelCheck::Lists,
            ParallelCheck::All,
        ],
        |p| format!("{p:?}"),
    )?;
    let as_u32 = |key: &str| -> Result<u32, String> {
        u32::try_from(get_u64(hw_obj, key)?).map_err(|_| format!("{key}: out of range"))
    };
    let hw = HwConfig {
        drop_high_address_bits: as_u32("drop_high_address_bits")?,
        tag_branch: get_bool(hw_obj, "tag_branch")?,
        parallel_check,
        generic_arith: get_bool(hw_obj, "generic_arith")?,
        trap_penalty: as_u32("trap_penalty")?,
        mul_cycles: as_u32("mul_cycles")?,
        div_cycles: as_u32("div_cycles")?,
        fp_cycles: as_u32("fp_cycles")?,
    };
    let int_test_method = parse_variant(
        "int_test_method",
        get_str(obj, "int_test_method")?,
        &[
            lisp::IntTestMethod::SignExtend,
            lisp::IntTestMethod::TagCompare,
        ],
        |m| format!("{m:?}"),
    )?;
    // An absent `timing` key is the ideal model (the encoding every
    // pre-timing record carries).
    let timing = match obj.iter().find(|(k, _)| k == "timing") {
        None => mipsx::TimingConfig::ideal(),
        Some((_, v)) => timing_config_from_json(v)?,
    };
    Ok(Config {
        scheme,
        checking,
        hw,
        preshifted_pair_tag: get_bool(obj, "preshifted_pair_tag")?,
        int_test_method,
        // The backend is not part of a config's identity (results are
        // backend-independent), so it is never serialized; loads get the
        // default.
        backend: mipsx::Backend::default(),
        timing,
    })
}

fn cache_params_from_json(v: &Json, what: &str) -> Result<mipsx::CacheParams, String> {
    let obj = v.as_object(what)?;
    let as_u32 = |key: &str| -> Result<u32, String> {
        u32::try_from(get_u64(obj, key)?).map_err(|_| format!("{what}.{key}: out of range"))
    };
    Ok(mipsx::CacheParams {
        size: as_u32("size")?,
        ways: as_u32("ways")?,
        line: as_u32("line")?,
    })
}

fn timing_config_from_json(v: &Json) -> Result<mipsx::TimingConfig, String> {
    let obj = v.as_object("timing config")?;
    let as_u32 = |key: &str| -> Result<u32, String> {
        u32::try_from(get_u64(obj, key)?).map_err(|_| format!("timing.{key}: out of range"))
    };
    let as_u8 = |key: &str| -> Result<u8, String> {
        u8::try_from(get_u64(obj, key)?).map_err(|_| format!("timing.{key}: out of range"))
    };
    let predictor = parse_variant(
        "predictor",
        get_str(obj, "predictor")?,
        &[
            mipsx::PredictorKind::NotTaken,
            mipsx::PredictorKind::Bimodal,
            mipsx::PredictorKind::Gshare,
        ],
        |p| format!("{p:?}"),
    )?;
    Ok(mipsx::TimingConfig {
        // Only non-ideal configs are ever serialized.
        enabled: true,
        l1i: cache_params_from_json(json_field(obj, "l1i")?, "timing.l1i")?,
        l1d: cache_params_from_json(json_field(obj, "l1d")?, "timing.l1d")?,
        l2: cache_params_from_json(json_field(obj, "l2")?, "timing.l2")?,
        l2_latency: as_u32("l2_latency")?,
        mem_latency: as_u32("mem_latency")?,
        predictor,
        predictor_bits: as_u8("predictor_bits")?,
        btb_bits: as_u8("btb_bits")?,
        mispredict_penalty: as_u32("mispredict_penalty")?,
        load_latency: as_u32("load_latency")?,
    })
}

fn timing_stats_from_json(v: &Json) -> Result<mipsx::TimingStats, String> {
    let obj = v.as_object("timing stats")?;
    Ok(mipsx::TimingStats {
        stall_icache: get_u64(obj, "stall_icache")?,
        stall_dcache: get_u64(obj, "stall_dcache")?,
        stall_mispredict: get_u64(obj, "stall_mispredict")?,
        stall_load_use: get_u64(obj, "stall_load_use")?,
        icache_accesses: get_u64(obj, "icache_accesses")?,
        icache_misses: get_u64(obj, "icache_misses")?,
        dcache_accesses: get_u64(obj, "dcache_accesses")?,
        dcache_misses: get_u64(obj, "dcache_misses")?,
        l2_accesses: get_u64(obj, "l2_accesses")?,
        l2_misses: get_u64(obj, "l2_misses")?,
        branches: get_u64(obj, "branches")?,
        mispredicts: get_u64(obj, "mispredicts")?,
    })
}

fn stats_from_json(v: &Json) -> Result<Stats, String> {
    let obj = v.as_object("stats")?;
    let mut stats = Stats {
        cycles: get_u64(obj, "cycles")?,
        committed: get_u64(obj, "committed")?,
        squashed: get_u64(obj, "squashed")?,
        trap_cycles: get_u64(obj, "trap_cycles")?,
        traps: get_u64(obj, "traps")?,
        ..Stats::default()
    };
    for entry in json_field(obj, "class_counts")?.as_array("class_counts")? {
        let pair = entry.as_array("class count entry")?;
        let [name, count] = pair else {
            return Err(format!(
                "class count entry: want [name, count], got {pair:?}"
            ));
        };
        let class: InsnClass = parse_variant(
            "insn class",
            name.as_str("class name")?,
            &ALL_CLASSES,
            |c| c.name().to_string(),
        )?;
        stats.class_counts[class as usize] = count.as_u64("class count")?;
    }
    for entry in json_field(obj, "tag_cycles")?.as_array("tag_cycles")? {
        let triple = entry.as_array("tag cycle entry")?;
        let [op, prov, cycles] = triple else {
            return Err(format!(
                "tag cycle entry: want [op, prov, cycles], got {triple:?}"
            ));
        };
        let op: TagOpKind = parse_variant("tag op", op.as_str("tag op")?, &ALL_TAG_OPS, |o| {
            format!("{o:?}")
        })?;
        let prov: Provenance = parse_variant(
            "provenance",
            prov.as_str("provenance")?,
            &PROVENANCES,
            |p| format!("{p:?}"),
        )?;
        stats.tag_cycles[op as usize][prov as usize] = cycles.as_u64("tag cycles")?;
    }
    for entry in json_field(obj, "check_cat_cycles")?.as_array("check_cat_cycles")? {
        let pair = entry.as_array("check cat entry")?;
        let [name, cycles] = pair else {
            return Err(format!("check cat entry: want [cat, cycles], got {pair:?}"));
        };
        let cat: CheckCat = parse_variant(
            "check cat",
            name.as_str("check cat")?,
            &ALL_CHECK_CATS,
            |c| format!("{c:?}"),
        )?;
        stats.check_cat_cycles[cat as usize] = cycles.as_u64("check cat cycles")?;
    }
    if let Some((_, v)) = obj.iter().find(|(k, _)| k == "timing") {
        stats.timing = Some(timing_stats_from_json(v)?);
    }
    Ok(stats)
}

/// Decode a measurement from the [`measurement_to_json`] encoding.
///
/// # Errors
///
/// A description of the first syntactic or schema violation.
pub fn measurement_from_json(v: &Json) -> Result<Measurement, String> {
    let obj = v.as_object("measurement")?;
    let compile_obj = json_field(obj, "compile")?.as_object("compile")?;
    let as_usize = |key: &str| -> Result<usize, String> {
        usize::try_from(get_u64(compile_obj, key)?).map_err(|_| format!("{key}: out of range"))
    };
    let halt_code = match json_field(obj, "halt_code")? {
        Json::Num(n) => n
            .parse::<i32>()
            .map_err(|_| format!("halt_code: not a 32-bit integer: {n:?}"))?,
        other => return Err(format!("halt_code: expected number, got {other:?}")),
    };
    Ok(Measurement {
        program: get_str(obj, "program")?.to_string(),
        config: config_from_json(json_field(obj, "config")?)?,
        stats: stats_from_json(json_field(obj, "stats")?)?,
        compile: lisp::CompileStats {
            procedures: as_usize("procedures")?,
            source_lines: as_usize("source_lines")?,
            object_words: as_usize("object_words")?,
        },
        halt_code,
        output: get_str(obj, "output")?.to_string(),
    })
}

fn timing_from_json(v: &Json) -> Result<Timing, String> {
    let obj = v.as_object("timing")?;
    Ok(Timing {
        compile: Duration::from_nanos(get_u64(obj, "compile_ns")?),
        simulate: Duration::from_nanos(get_u64(obj, "simulate_ns")?),
    })
}

fn payload_from_json(v: &Json) -> Result<(Measurement, Timing), String> {
    let obj = v.as_object("payload")?;
    Ok((
        measurement_from_json(json_field(obj, "measurement")?)?,
        timing_from_json(json_field(obj, "timing")?)?,
    ))
}

/// Decode and *validate* one on-disk record: the envelope must parse, carry
/// the current [`FORMAT_VERSION`], and its payload, re-encoded canonically,
/// must reproduce the checksum (so even semantically neutral reformatting is
/// rejected).
///
/// # Errors
///
/// A description of why the record cannot be trusted; callers quarantine on
/// any error.
pub fn record_from_json(text: &str) -> Result<(StoreKey, Measurement, Timing), String> {
    open_record(text, None)
}

/// [`record_from_json`], also requiring the envelope to carry `key` when
/// given (the key the record is filed under).
pub(crate) fn open_record(
    text: &str,
    key: Option<&StoreKey>,
) -> Result<(StoreKey, Measurement, Timing), String> {
    let encode = |(m, t): &(Measurement, Timing)| payload_to_json(m, t);
    let (key, (m, t)) = RECORD.unseal(text, key, payload_from_json, encode)?;
    Ok((key.ok_or("record carries no key")?, m, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx::Annot;

    fn sample_measurement() -> Measurement {
        let mut stats = Stats::default();
        stats.record(InsnClass::Alu, Annot::NONE, 1);
        stats.record(
            InsnClass::And,
            Annot::checking(TagOpKind::Check, CheckCat::List),
            2,
        );
        stats.record_squashed(Annot::checking(TagOpKind::Check, CheckCat::Vector));
        stats.record_trap(Annot::base(TagOpKind::Generic), 20);
        Measurement {
            program: "frl".to_string(),
            config: Config::baseline(CheckingMode::Full),
            stats,
            compile: lisp::CompileStats {
                procedures: 42,
                source_lines: 314,
                object_words: 2718,
            },
            halt_code: 0,
            output: "42\nt\n".to_string(),
        }
    }

    #[test]
    fn record_round_trips_exactly() {
        let m = sample_measurement();
        let t = Timing {
            compile: Duration::from_nanos(123_456_789),
            simulate: Duration::from_micros(987_654),
        };
        let key = StoreKey::compute("(source)", None, &m.config);
        let text = record_to_json(&key, &m, &t);
        let (k2, m2, t2) = record_from_json(&text).expect("decodes");
        assert_eq!(k2, key);
        assert_eq!(t2, t);
        assert_eq!(m2.program, m.program);
        assert_eq!(m2.config, m.config);
        assert_eq!(m2.stats, m.stats);
        assert_eq!(m2.compile.procedures, m.compile.procedures);
        // And re-encoding is byte-identical (canonical form).
        assert_eq!(record_to_json(&key, &m2, &t2), text);
    }

    /// The ideal timing model is invisible in the encoding (so every
    /// pre-timing address survives), while a non-ideal model round-trips
    /// exactly and yields a different content address.
    #[test]
    fn timing_round_trips_and_ideal_is_invisible() {
        let ideal = Config::baseline(CheckingMode::Full);
        assert!(
            !config_to_json(&ideal).contains("timing"),
            "ideal timing must not be encoded"
        );

        let timed = ideal.with_timing(mipsx::TimingConfig::modern());
        let encoded = config_to_json(&timed);
        assert!(encoded.contains("\"timing\""));
        let decoded = config_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, timed);
        assert_eq!(config_to_json(&decoded), encoded, "canonical re-encoding");
        assert_ne!(
            StoreKey::compute("(source)", None, &ideal),
            StoreKey::compute("(source)", None, &timed),
            "timing is part of the content address"
        );

        // A full record with stall stats survives the envelope too.
        let mut m = sample_measurement();
        m.config = timed;
        m.stats.timing = Some(mipsx::TimingStats {
            stall_icache: 10,
            stall_dcache: 20,
            stall_mispredict: 30,
            stall_load_use: 5,
            icache_accesses: 1000,
            icache_misses: 3,
            dcache_accesses: 200,
            dcache_misses: 2,
            l2_accesses: 5,
            l2_misses: 1,
            branches: 77,
            mispredicts: 4,
        });
        let key = StoreKey::compute("(source)", None, &m.config);
        let text = record_to_json(&key, &m, &Timing::default());
        let (_, m2, _) = record_from_json(&text).expect("decodes");
        assert_eq!(m2.config, m.config);
        assert_eq!(m2.stats, m.stats);
        assert_eq!(record_to_json(&key, &m2, &Timing::default()), text);
    }

    fn decode(json: &str) -> Measurement {
        measurement_from_json(&Json::parse(json).expect("parses")).expect("decodes")
    }

    /// Every class, `(op, prov)` and category cell, each with its own
    /// value, survives the codec.
    #[test]
    fn every_stats_cell_round_trips() {
        let mut m = sample_measurement();
        let mut next = 0;
        let mut value = || {
            next += 1;
            next
        };
        for count in &mut m.stats.class_counts {
            *count = value();
        }
        for cell in m.stats.tag_cycles.iter_mut().flatten() {
            *cell = value();
        }
        for cycles in &mut m.stats.check_cat_cycles {
            *cycles = value();
        }
        let json = measurement_to_json(&m);
        let back = decode(&json);
        assert_eq!(back.stats, m.stats);
        assert_eq!(measurement_to_json(&back), json);
    }

    /// A zero cell is not written.
    #[test]
    fn zero_cells_are_not_written() {
        let m = sample_measurement();
        assert_eq!(m.stats.class_count(InsnClass::CheckedMem), 0);
        assert_eq!(m.stats.checking_cycles(CheckCat::Arith), 0);
        let json = measurement_to_json(&m);
        assert!(!json.contains(",0]"), "{json}");
        assert!(!json.contains("\"chkmem\""), "{json}");
        assert!(!json.contains("\"Arith\""), "{json}");
        assert!(json.contains("[\"Generic\",\"Base\",20]"), "{json}");
    }

    /// Records that wrote explicit zero entries still decode to an equal
    /// `Stats`, and re-encode without them.
    #[test]
    fn explicit_zero_entries_still_decode() {
        let m = sample_measurement();
        let json = measurement_to_json(&m);
        let with_zero = json.replacen(
            "\"tag_cycles\":[",
            "\"tag_cycles\":[[\"Generic\",\"Checking\",0],",
            1,
        );
        assert_ne!(with_zero, json);
        let back = decode(&with_zero);
        assert_eq!(back.stats, m.stats);
        assert_eq!(measurement_to_json(&back), json);
    }

    #[test]
    fn measurement_json_is_deterministic() {
        let m = sample_measurement();
        assert_eq!(measurement_to_json(&m), measurement_to_json(&m.clone()));
    }

    #[test]
    fn stale_version_and_bad_checksum_are_rejected() {
        let m = sample_measurement();
        let t = Timing::default();
        let key = StoreKey::compute("(source)", None, &m.config);
        let good = record_to_json(&key, &m, &t);

        let stale = good.replacen(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            &format!("\"format_version\":{}", FORMAT_VERSION + 1),
            1,
        );
        assert!(record_from_json(&stale)
            .unwrap_err()
            .contains("stale format version"));

        let flipped = good.replacen("\"cycles\":", "\"cycles\":1", 1);
        assert!(record_from_json(&flipped)
            .unwrap_err()
            .contains("checksum mismatch"));

        assert!(record_from_json(&good[..good.len() / 2]).is_err());
    }
}
