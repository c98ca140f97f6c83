//! The differential-fuzzing fleet's persistent artifacts: content-addressed
//! **witness records** and the campaign **coverage ledger**.
//!
//! A witness is a shrunk, replayable counterexample: the exact source, the
//! configuration column (scheme × checking × hw × backend), the injected
//! fault (if any), and what diverged. Witnesses (`<key>.wit`, which must
//! carry the key their content addresses to) and the ledger (`ledger.json`)
//! live in a `witnesses/` area beside the measurement records, under the
//! store's one disk discipline (see the crate docs).
//!
//! The coverage ledger makes campaigns cumulative: it counts completed
//! program runs per `(op-mix cell | config column)` coverage cell, persisted
//! after every program, so a killed and restarted campaign (`tagctl fuzz
//! --resume`) picks up exactly where the previous one stopped instead of
//! re-fuzzing covered cells.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use tagstudy::{json_field, json_string, Config, Json};

use crate::disk::{Dir, Envelope};
use crate::record::{config_from_json, config_to_json, get_str, get_u64};
use crate::StoreKey;

/// Version of the witness / ledger on-disk formats (independent of the
/// measurement-record [`crate::FORMAT_VERSION`] — the two kinds evolve
/// separately). Bump on any encoding change; files carrying any other
/// version are quarantined on read.
pub const FUZZ_FORMAT_VERSION: u64 = 1;

const WITNESS: Envelope = Envelope(FUZZ_FORMAT_VERSION, "witness");
const LEDGER: Envelope = Envelope(FUZZ_FORMAT_VERSION, "ledger");

/// Extension of witness files under the witness root.
const WITNESS_EXT: &str = "wit";

/// File name of the coverage ledger under the witness root.
const LEDGER_FILE: &str = "ledger.json";

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
        json_string(&w.mix),
        json_string(&w.cell),
        json_string(&w.column),
        config_to_json(&w.config),
        json_string(&w.backend),
        w.fault.as_deref().map_or("null".to_string(), json_string),
        json_string(&w.kind),
        json_string(&w.detail),
        json_string(&w.source),
        w.forms,
    )
}

/// The full on-disk witness record: versioned envelope, content key, payload
/// checksum, payload.
pub fn witness_to_json(w: &Witness) -> String {
    WITNESS.seal(Some(&w.key()), &witness_payload_json(w))
}

fn witness_payload_from_json(v: &Json) -> Result<Witness, String> {
    let obj = v.as_object("witness")?;
    let fault = match json_field(obj, "fault")? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        other => return Err(format!("fault: expected string or null, got {other:?}")),
    };
    Ok(Witness {
        seed: get_u64(obj, "seed")?,
        mix: get_str(obj, "mix")?.to_string(),
        cell: get_str(obj, "cell")?.to_string(),
        column: get_str(obj, "column")?.to_string(),
        config: config_from_json(json_field(obj, "config")?)?,
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
    open_witness(text, None)
}

/// [`witness_from_json`], also requiring the envelope to carry `key` when
/// given (the key the witness is filed under).
fn open_witness(text: &str, key: Option<&StoreKey>) -> Result<(StoreKey, Witness), String> {
    let (key, witness) =
        WITNESS.unseal(text, key, witness_payload_from_json, witness_payload_json)?;
    let content = witness.key();
    if key.as_ref() != Some(&content) {
        return Err(format!("key mismatch: content addresses to {content}"));
    }
    Ok((content, witness))
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
            .map(|(k, v)| format!("[{},{v}]", json_string(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"campaign\":{},\"target\":{},\"cells\":[{cells}]}}",
            json_string(&self.campaign),
            self.target,
        )
    }

    fn payload_from_json(v: &Json) -> Result<CoverageLedger, String> {
        let obj = v.as_object("ledger")?;
        let mut ledger = CoverageLedger::new(get_str(obj, "campaign")?, get_u64(obj, "target")?);
        for entry in json_field(obj, "cells")?.as_array("cells")? {
            let pair = entry.as_array("cell entry")?;
            let [cell, count] = pair else {
                return Err(format!("cell entry: want [cell, count], got {pair:?}"));
            };
            ledger
                .cells
                .insert(cell.as_str("cell")?.to_string(), count.as_u64("count")?);
        }
        Ok(ledger)
    }

    /// The full on-disk ledger document: versioned, checksummed.
    pub fn to_json(&self) -> String {
        LEDGER.seal(None, &self.payload_json())
    }

    /// Decode and validate a ledger document.
    ///
    /// # Errors
    ///
    /// A description of why the ledger cannot be trusted; callers quarantine
    /// on any error.
    pub fn from_json(text: &str) -> Result<CoverageLedger, String> {
        let (_, ledger) = LEDGER.unseal(text, None, Self::payload_from_json, Self::payload_json)?;
        Ok(ledger)
    }
}

// ---------------------------------------------------------------------------
// The on-disk store
// ---------------------------------------------------------------------------

/// The persistent witness corpus plus coverage ledger, rooted at a
/// `witnesses/`-style directory. Same disk discipline as
/// [`crate::ResultStore`]: atomic writes, quarantine on any validation
/// failure, never fatal.
#[derive(Debug)]
pub struct FuzzStore {
    dir: Dir,
}

impl FuzzStore {
    /// Open (creating if needed) a fuzz store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<FuzzStore> {
        Ok(FuzzStore {
            dir: Dir::open(dir.into(), "fuzz-store")?,
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.dir.root()
    }

    /// Path of the coverage ledger (what CI uploads as an artifact).
    pub fn ledger_path(&self) -> PathBuf {
        self.dir.path(LEDGER_FILE)
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
        self.dir
            .write(&format!("{key}.{WITNESS_EXT}"), &witness_to_json(w))?;
        Ok(key)
    }

    /// Look up a witness by key; an invalid record is quarantined and `None`.
    pub fn get_witness(&self, key: &StoreKey) -> Option<Witness> {
        let name = format!("{key}.{WITNESS_EXT}");
        let found = self.dir.read(&name, |text| open_witness(text, Some(key)));
        found.map(|(_, (_, w))| w)
    }

    /// Validate and load every witness, quarantining the invalid ones.
    /// Sorted by key for deterministic iteration.
    pub fn load_witnesses(&self) -> Vec<(StoreKey, Witness)> {
        self.dir.scan(WITNESS_EXT, |key, text| {
            open_witness(text, Some(key)).map(|(_, w)| w)
        })
    }

    /// Number of (untrusted, unparsed) witness files on disk.
    pub fn witness_count(&self) -> usize {
        self.dir.count(WITNESS_EXT)
    }

    /// Number of files in `quarantine/`.
    pub fn quarantine_count(&self) -> usize {
        self.dir.quarantine_count()
    }

    /// Durably persist the coverage ledger (atomic replace).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn store_ledger(&self, ledger: &CoverageLedger) -> std::io::Result<()> {
        self.dir.write(LEDGER_FILE, &ledger.to_json())
    }

    /// Load the coverage ledger; a missing ledger is `None`, an invalid one
    /// is quarantined and also `None` (the campaign restarts from zero —
    /// wasteful, never wrong).
    pub fn load_ledger(&self) -> Option<CoverageLedger> {
        self.dir
            .read(LEDGER_FILE, CoverageLedger::from_json)
            .map(|(_, ledger)| ledger)
    }

    /// Remove the coverage ledger if present (a fresh, non-resumed campaign
    /// starts its books from zero).
    pub fn reset_ledger(&self) {
        let _ = fs::remove_file(self.ledger_path());
    }
}
