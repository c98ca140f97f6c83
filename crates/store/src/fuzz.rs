//! The differential-fuzzing fleet's persistent artifacts: content-addressed
//! **witness records** and the campaign **coverage ledger**.
//!
//! A witness is a shrunk, replayable counterexample: the exact source, the
//! configuration column (scheme × checking × hw × backend), the injected
//! fault (if any), and what diverged. Witnesses live in a `witnesses/` area
//! beside the measurement records and get the same durability discipline:
//! versioned envelopes, checksums over a canonical re-encoding,
//! write-to-temp + atomic rename, and quarantine (never trust, never crash)
//! on any validation failure.
//!
//! The coverage ledger makes campaigns cumulative: it counts completed
//! program runs per `(op-mix cell | config column)` coverage cell, persisted
//! after every program, so a killed and restarted campaign (`tagctl fuzz
//! --resume`) picks up exactly where the previous one stopped instead of
//! re-fuzzing covered cells.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tagstudy::{Config, Json};

use crate::record::{config_from_json, config_to_json};
use crate::{fnv1a64, StoreKey, NAME_SEQ};

/// Version of the witness / ledger on-disk formats (independent of the
/// measurement-record [`crate::FORMAT_VERSION`] — the two kinds evolve
/// separately). Bump on any encoding change; files carrying any other
/// version are quarantined on read.
pub const FUZZ_FORMAT_VERSION: u64 = 1;

/// Extension of witness files under the witness root.
const WITNESS_EXT: &str = "wit";

/// File name of the coverage ledger under the witness root.
const LEDGER_FILE: &str = "ledger.json";

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    get(obj, key)?.as_u64(key)
}

fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    get(obj, key)?.as_str(key)
}

// ---------------------------------------------------------------------------
// Witness records
// ---------------------------------------------------------------------------

/// A shrunk, replayable divergence found by the fuzzing fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The generator seed that produced the original (pre-shrink) program.
    pub seed: u64,
    /// The op-mix the program was drawn from (`OpMix` display form).
    pub mix: String,
    /// The coverage cell (`profile@step`) the program was steered at.
    pub cell: String,
    /// Human-readable column label, e.g. `high5:full:maximal:ref`.
    pub column: String,
    /// The configuration of the diverging column (backend **not** included —
    /// see [`Witness::backend`]).
    pub config: Config,
    /// The simulator backend of the diverging column (`fast`/`ref`).
    pub backend: String,
    /// The injected fault, e.g. `branch-invert:1`, or `None` for an organic
    /// divergence.
    pub fault: Option<String>,
    /// The divergence kind (`Halt`, `Output`, `Census`, `Compile`, `Sim`).
    pub kind: String,
    /// Human-readable specifics (expected vs got).
    pub detail: String,
    /// The shrunk program source — the replayable artifact.
    pub source: String,
    /// Top-level form count of the shrunk program.
    pub forms: u64,
}

impl Witness {
    /// The content address of this witness: derived from the source, the
    /// column, the fault, and the kind — so the same divergence found twice
    /// deduplicates into one record, while distinct columns or kinds of the
    /// same source are distinct witnesses.
    pub fn key(&self) -> StoreKey {
        StoreKey::of_material(&format!(
            "tagstudy-witness/v{FUZZ_FORMAT_VERSION}\0{}\0{}\0{}\0{}\0{}",
            self.source,
            config_to_json(&self.config),
            self.backend,
            self.fault.as_deref().unwrap_or("-"),
            self.kind,
        ))
    }

    /// The configuration with the recorded backend re-applied — what a
    /// replayer should execute under.
    ///
    /// # Errors
    ///
    /// An unknown backend name: a record written by a future format, or one
    /// naming the removed `classic` interpreter. Neither is trusted, and
    /// `classic` is never replayed under another backend's name.
    pub fn config_with_backend(&self) -> Result<Config, String> {
        let backend = mipsx::Backend::parse(&self.backend)?;
        Ok(self.config.with_backend(backend))
    }
}

fn witness_payload_json(w: &Witness) -> String {
    format!(
        "{{\"seed\":{},\"mix\":{},\"cell\":{},\"column\":{},\"config\":{},\"backend\":{},\
         \"fault\":{},\"kind\":{},\"detail\":{},\"source\":{},\"forms\":{}}}",
        w.seed,
        json_str(&w.mix),
        json_str(&w.cell),
        json_str(&w.column),
        config_to_json(&w.config),
        json_str(&w.backend),
        w.fault.as_deref().map_or("null".to_string(), json_str),
        json_str(&w.kind),
        json_str(&w.detail),
        json_str(&w.source),
        w.forms,
    )
}

/// The full on-disk witness record: versioned envelope, content key, payload
/// checksum, payload.
pub fn witness_to_json(w: &Witness) -> String {
    let payload = witness_payload_json(w);
    format!(
        "{{\"format_version\":{FUZZ_FORMAT_VERSION},\"key\":{},\"checksum\":\"{:016x}\",\
         \"witness\":{payload}}}\n",
        json_str(w.key().as_str()),
        fnv1a64(payload.as_bytes()),
    )
}

fn witness_payload_from_json(v: &Json) -> Result<Witness, String> {
    let obj = v.as_object("witness")?;
    let fault = match get(obj, "fault")? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        other => return Err(format!("fault: expected string or null, got {other:?}")),
    };
    Ok(Witness {
        seed: get_u64(obj, "seed")?,
        mix: get_str(obj, "mix")?.to_string(),
        cell: get_str(obj, "cell")?.to_string(),
        column: get_str(obj, "column")?.to_string(),
        config: config_from_json(get(obj, "config")?)?,
        backend: get_str(obj, "backend")?.to_string(),
        fault,
        kind: get_str(obj, "kind")?.to_string(),
        detail: get_str(obj, "detail")?.to_string(),
        source: get_str(obj, "source")?.to_string(),
        forms: get_u64(obj, "forms")?,
    })
}

/// Decode and validate one witness record: envelope version, checksum over
/// the canonical re-encoding, and the content address must all check out.
///
/// # Errors
///
/// A description of why the record cannot be trusted; callers quarantine on
/// any error.
pub fn witness_from_json(text: &str) -> Result<(StoreKey, Witness), String> {
    let root = Json::parse(text)?;
    let obj = root.as_object("witness record")?;
    let version = get_u64(obj, "format_version")?;
    if version != FUZZ_FORMAT_VERSION {
        return Err(format!(
            "stale witness format version {version} (current is {FUZZ_FORMAT_VERSION})"
        ));
    }
    let key = StoreKey::from_hex(get_str(obj, "key")?)?;
    let stored_checksum = get_str(obj, "checksum")?;
    let witness = witness_payload_from_json(get(obj, "witness")?)?;
    let canonical = witness_payload_json(&witness);
    let computed = format!("{:016x}", fnv1a64(canonical.as_bytes()));
    if computed != stored_checksum {
        return Err(format!(
            "checksum mismatch: stored {stored_checksum}, computed {computed}"
        ));
    }
    if witness.key() != key {
        return Err(format!(
            "key mismatch: envelope says {key}, content addresses to {}",
            witness.key()
        ));
    }
    Ok((key, witness))
}

// ---------------------------------------------------------------------------
// Coverage ledger
// ---------------------------------------------------------------------------

/// Completed-run counts per coverage cell, with a saturation target.
///
/// A cell key is `"{mix-cell}|{column-label}"`; a cell is *saturated* once
/// its count reaches the target. The campaign identity string pins every
/// parameter that shapes the cell space (seed base, axis points, target,
/// backends), so a resumed campaign can refuse a ledger written by a
/// different campaign instead of silently mixing counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageLedger {
    campaign: String,
    target: u64,
    cells: BTreeMap<String, u64>,
}

impl CoverageLedger {
    /// An empty ledger for `campaign`, saturating each cell at `target` runs.
    pub fn new(campaign: impl Into<String>, target: u64) -> CoverageLedger {
        CoverageLedger {
            campaign: campaign.into(),
            target: target.max(1),
            cells: BTreeMap::new(),
        }
    }

    /// The campaign identity this ledger belongs to.
    pub fn campaign(&self) -> &str {
        &self.campaign
    }

    /// Runs required to saturate one cell.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Register `cell` at zero runs if it is not yet present — so the ledger
    /// enumerates the whole cell space from the first persist, and coverage
    /// percentages are meaningful immediately.
    pub fn register(&mut self, cell: &str) {
        self.cells.entry(cell.to_string()).or_insert(0);
    }

    /// Completed runs of `cell` (zero for unknown cells).
    pub fn count(&self, cell: &str) -> u64 {
        self.cells.get(cell).copied().unwrap_or(0)
    }

    /// Record one completed run of `cell`.
    pub fn bump(&mut self, cell: &str) {
        *self.cells.entry(cell.to_string()).or_insert(0) += 1;
    }

    /// Whether `cell` has reached the target.
    pub fn is_saturated(&self, cell: &str) -> bool {
        self.count(cell) >= self.target
    }

    /// Iterate over `(cell, count)` in deterministic (sorted) order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, u64)> {
        self.cells.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are registered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total runs recorded, counting each cell at most at the target (the
    /// numerator of [`CoverageLedger::coverage_percent`]).
    pub fn covered_runs(&self) -> u64 {
        self.cells.values().map(|c| (*c).min(self.target)).sum()
    }

    /// Saturation of the registered cell space, in percent (100.0 when every
    /// cell has reached the target; 0.0 for an empty ledger).
    pub fn coverage_percent(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        100.0 * self.covered_runs() as f64 / (self.target * self.cells.len() as u64) as f64
    }

    /// Whether every registered cell is saturated.
    pub fn complete(&self) -> bool {
        !self.cells.is_empty() && self.cells.values().all(|c| *c >= self.target)
    }

    fn payload_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|(k, v)| format!("[{},{v}]", json_str(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"campaign\":{},\"target\":{},\"cells\":[{cells}]}}",
            json_str(&self.campaign),
            self.target,
        )
    }

    /// The full on-disk ledger document: versioned, checksummed.
    pub fn to_json(&self) -> String {
        let payload = self.payload_json();
        format!(
            "{{\"format_version\":{FUZZ_FORMAT_VERSION},\"checksum\":\"{:016x}\",\
             \"ledger\":{payload}}}\n",
            fnv1a64(payload.as_bytes()),
        )
    }

    /// Decode and validate a ledger document.
    ///
    /// # Errors
    ///
    /// A description of why the ledger cannot be trusted; callers quarantine
    /// on any error.
    pub fn from_json(text: &str) -> Result<CoverageLedger, String> {
        let root = Json::parse(text)?;
        let obj = root.as_object("ledger record")?;
        let version = get_u64(obj, "format_version")?;
        if version != FUZZ_FORMAT_VERSION {
            return Err(format!(
                "stale ledger format version {version} (current is {FUZZ_FORMAT_VERSION})"
            ));
        }
        let stored_checksum = get_str(obj, "checksum")?;
        let payload = get(obj, "ledger")?.as_object("ledger")?;
        let mut ledger =
            CoverageLedger::new(get_str(payload, "campaign")?, get_u64(payload, "target")?);
        for entry in get(payload, "cells")?.as_array("cells")? {
            let pair = entry.as_array("cell entry")?;
            let [cell, count] = pair else {
                return Err(format!("cell entry: want [cell, count], got {pair:?}"));
            };
            ledger
                .cells
                .insert(cell.as_str("cell")?.to_string(), count.as_u64("count")?);
        }
        let canonical = ledger.payload_json();
        let computed = format!("{:016x}", fnv1a64(canonical.as_bytes()));
        if computed != stored_checksum {
            return Err(format!(
                "checksum mismatch: stored {stored_checksum}, computed {computed}"
            ));
        }
        Ok(ledger)
    }
}

// ---------------------------------------------------------------------------
// The on-disk store
// ---------------------------------------------------------------------------

/// The persistent witness corpus plus coverage ledger, rooted at a
/// `witnesses/`-style directory. Same discipline as [`crate::ResultStore`]:
/// atomic writes, quarantine on any validation failure, never fatal.
#[derive(Debug)]
pub struct FuzzStore {
    root: PathBuf,
    quarantined: AtomicU64,
}

impl FuzzStore {
    /// Open (creating if needed) a fuzz store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<FuzzStore> {
        let root = dir.into();
        fs::create_dir_all(root.join("quarantine"))?;
        Ok(FuzzStore {
            root,
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the coverage ledger (what CI uploads as an artifact).
    pub fn ledger_path(&self) -> PathBuf {
        self.root.join(LEDGER_FILE)
    }

    fn witness_path(&self, key: &StoreKey) -> PathBuf {
        self.root.join(format!("{key}.{WITNESS_EXT}"))
    }

    fn write_atomic(&self, dest: &Path, text: &str) -> std::io::Result<()> {
        let temp = self.root.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NAME_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&temp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&temp, dest)
    }

    /// Durably archive one witness under its content address. Re-archiving
    /// the same divergence overwrites with identical bytes, so the corpus
    /// deduplicates naturally.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn put_witness(&self, w: &Witness) -> std::io::Result<StoreKey> {
        let key = w.key();
        self.write_atomic(&self.witness_path(&key), &witness_to_json(w))?;
        Ok(key)
    }

    /// Look up a witness by key; an invalid record is quarantined and `None`.
    pub fn get_witness(&self, key: &StoreKey) -> Option<Witness> {
        let path = self.witness_path(key);
        let text = fs::read_to_string(&path).ok()?;
        match witness_from_json(&text) {
            Ok((stored_key, w)) if stored_key == *key => Some(w),
            Ok((stored_key, _)) => {
                self.quarantine(&path, &format!("key mismatch: record says {stored_key}"));
                None
            }
            Err(why) => {
                self.quarantine(&path, &why);
                None
            }
        }
    }

    /// Validate and load every witness, quarantining the invalid ones.
    /// Sorted by key for deterministic iteration.
    pub fn load_witnesses(&self) -> Vec<(StoreKey, Witness)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.root) else {
            return out;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(WITNESS_EXT) || !path.is_file() {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if stem.starts_with("tmp-") {
                continue;
            }
            let Ok(key) = StoreKey::from_hex(stem) else {
                self.quarantine(&path, "malformed witness file name");
                continue;
            };
            match fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| witness_from_json(&text))
            {
                Ok((stored_key, w)) if stored_key == key => out.push((key, w)),
                Ok((stored_key, _)) => {
                    self.quarantine(&path, &format!("key mismatch: record says {stored_key}"))
                }
                Err(why) => self.quarantine(&path, &why),
            }
        }
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Number of (untrusted, unparsed) witness files on disk.
    pub fn witness_count(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(WITNESS_EXT))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Number of files in `quarantine/`.
    pub fn quarantine_count(&self) -> usize {
        fs::read_dir(self.root.join("quarantine"))
            .map(|entries| entries.flatten().count())
            .unwrap_or(0)
    }

    /// Durably persist the coverage ledger (atomic replace).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn store_ledger(&self, ledger: &CoverageLedger) -> std::io::Result<()> {
        self.write_atomic(&self.ledger_path(), &ledger.to_json())
    }

    /// Load the coverage ledger; a missing ledger is `None`, an invalid one
    /// is quarantined and also `None` (the campaign restarts from zero —
    /// wasteful, never wrong).
    pub fn load_ledger(&self) -> Option<CoverageLedger> {
        let path = self.ledger_path();
        let text = fs::read_to_string(&path).ok()?;
        match CoverageLedger::from_json(&text) {
            Ok(ledger) => Some(ledger),
            Err(why) => {
                self.quarantine(&path, &why);
                None
            }
        }
    }

    /// Remove the coverage ledger if present (a fresh, non-resumed campaign
    /// starts its books from zero).
    pub fn reset_ledger(&self) {
        let _ = fs::remove_file(self.ledger_path());
    }

    fn quarantine(&self, path: &Path, why: &str) {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("record");
        let dest = self.root.join("quarantine").join(format!(
            "{name}.{}-{}",
            std::process::id(),
            NAME_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::rename(path, &dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!("[fuzz-store] quarantined {name}: {why}");
        }
    }
}
