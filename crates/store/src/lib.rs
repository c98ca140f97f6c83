//! A persistent, content-addressed store for tagstudy measurements.
//!
//! Results are keyed by a stable 128-bit hash of `(program source, Config)`
//! ([`StoreKey::compute`]) and written as versioned, checksummed JSON records
//! under a cache directory — one file per key, created with write-to-temp +
//! atomic rename so readers and concurrent writers never observe a partial
//! record. A record that fails validation on read — syntax error, truncation,
//! bit flip, stale [`FORMAT_VERSION`] — is *quarantined*: moved into a
//! `quarantine/` subdirectory for post-mortem, counted, and treated as a miss.
//! Corruption is never served and never fatal.
//!
//! Inside a trace context (see [`tagstudy::trace`]) every [`ResultStore::put`],
//! [`ResultStore::get`] and [`ResultStore::raw_record`] records a
//! `store.write` / `store.read` span under the calling thread's current span;
//! the store itself holds no tracer.
//!
//! The intended wiring (what `tagstudyd` does):
//!
//! ```no_run
//! use std::sync::Arc;
//! use store::ResultStore;
//! use tagstudy::Session;
//!
//! let store = Arc::new(ResultStore::open("cache-dir")?);
//! let mut session = Session::new().with_writeback({
//!     let store = Arc::clone(&store);
//!     move |m, t| {
//!         let _ = store.put(m, t); // write-through; errors are non-fatal
//!     }
//! });
//! // Warm start: preload everything still valid for the current sources.
//! for (m, t) in store.load_current() {
//!     session.seed(m, t);
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]

pub mod fuzz;
pub mod record;

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tagstudy::{trace, Config, Measurement, Timing};

/// Version of the on-disk record format. Bump on any encoding change; records
/// carrying any other version are quarantined on read (stale, not corrupt —
/// but equally untrusted). v2 added `halt_code`/`output` to the measurement
/// encoding.
pub const FORMAT_VERSION: u64 = 2;

/// Extension of record files under the store root.
const RECORD_EXT: &str = "rec";

/// Process-wide uniquifier for temp-file and quarantine names. Global, not
/// per-handle: several `ResultStore` handles on one directory (one per daemon
/// thread, or tests) must never generate the same temp name, or a concurrent
/// writer's rename source can be snatched from under it.
pub(crate) static NAME_SEQ: AtomicU64 = AtomicU64::new(0);

/// The 64-bit FNV-1a hash — the store's checksum, and (applied twice with
/// different offset bases) its content-address hash. Self-contained so the
/// workspace stays dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a64_seeded(offset_basis: u64, bytes: &[u8]) -> u64 {
    let mut hash = offset_basis;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content-derived name of an inline source: `inline:` plus the 64-bit
/// FNV-1a hash of the source text, and of the heap override when one is
/// given. Two inline programs with the same source and heap share a name
/// (and therefore a cache entry per `Config`); the same source under two
/// heaps gets two names, since the heap changes the measurement. Without a
/// heap the name hashes the source alone. The `inline:` namespace cannot
/// collide with benchmark names, which never contain `:`.
pub fn inline_name(source: &str, heap_semi_bytes: Option<u32>) -> String {
    let hash = match heap_semi_bytes {
        None => fnv1a64(source.as_bytes()),
        Some(heap) => fnv1a64(format!("{source}\0heap={heap}").as_bytes()),
    };
    format!("inline:{hash:016x}")
}

/// A content address: 32 lowercase hex digits (128 bits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey(String);

impl StoreKey {
    /// The stable key of a `(program source, heap, Config)` point, where
    /// `heap_semi_bytes` is the semispace size the program runs with (`None`:
    /// [`lisp::Options`]' default, as for an inline source without a heap).
    ///
    /// The key material is a versioned frame of the full source text and the
    /// canonical config encoding, plus the heap when it differs from the
    /// default — so every default-heap address is the one it always was, the
    /// same rule that leaves an ideal timing model out of the config
    /// encoding. The address is two independently-seeded 64-bit FNV-1a hashes
    /// concatenated. Any change to the source, the heap, the configuration,
    /// or the record format yields a different address — which is exactly the
    /// invalidation the cache wants.
    pub fn compute(source: &str, heap_semi_bytes: Option<u32>, config: &Config) -> StoreKey {
        let heap = match heap_semi_bytes {
            Some(heap) if heap != lisp::Options::default().heap_semi_bytes => {
                format!("\0heap={heap}")
            }
            _ => String::new(),
        };
        StoreKey::of_material(&format!(
            "tagstudy-store/v{FORMAT_VERSION}\0{source}\0{}{heap}",
            record::config_to_json(config)
        ))
    }

    /// The content address of arbitrary key material: two independently-seeded
    /// 64-bit FNV-1a hashes concatenated. [`StoreKey::compute`] frames
    /// measurement records with this; other record kinds (the fuzzing
    /// fleet's witnesses, see [`crate::fuzz`]) frame their own material.
    pub fn of_material(material: &str) -> StoreKey {
        let lo = fnv1a64(material.as_bytes());
        let hi = fnv1a64_seeded(0x6c62_272e_07bb_0142, material.as_bytes());
        StoreKey(format!("{hi:016x}{lo:016x}"))
    }

    /// Parse a key the wire gave us.
    ///
    /// # Errors
    ///
    /// When `text` is not exactly 32 lowercase hex digits.
    pub fn from_hex(text: &str) -> Result<StoreKey, String> {
        if text.len() == 32 && text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            Ok(StoreKey(text.to_string()))
        } else {
            Err(format!(
                "bad store key {text:?} (want 32 lowercase hex digits)"
            ))
        }
    }

    /// The key as hex.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Monotonic counters describing one store's activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records written.
    pub puts: u64,
    /// Lookups performed.
    pub gets: u64,
    /// Lookups that returned a valid record.
    pub hits: u64,
    /// Records moved to `quarantine/` (corrupt, truncated, or stale-version).
    pub quarantined: u64,
}

/// The persistent result store. Cheap to share: all methods take `&self`, and
/// the file system plus atomic counters carry the state, so one instance can
/// be used from any number of threads.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    puts: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    quarantined: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        let root = dir.into();
        fs::create_dir_all(root.join("quarantine"))?;
        Ok(ResultStore {
            root,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Activity counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    fn record_path(&self, key: &StoreKey) -> PathBuf {
        self.root.join(format!("{key}.{RECORD_EXT}"))
    }

    /// The key under which `measurement` would be stored, derived from the
    /// current source and heap of its benchmark.
    ///
    /// Returns `None` for a program name not in the registry (a measurement
    /// of an unknown program has no stable source to address by).
    pub fn key_of(measurement: &Measurement) -> Option<StoreKey> {
        let benchmark = programs::by_name(&measurement.program)?;
        Some(StoreKey::compute(
            benchmark.source,
            Some(benchmark.heap_semi_bytes),
            &measurement.config,
        ))
    }

    /// Durably store one measurement under its content address: serialize,
    /// write to a uniquely-named temp file in the store directory, then
    /// atomically rename over the final name. Concurrent writers of the same
    /// key are safe — both write the same canonical bytes, and rename is
    /// atomic, so readers always see one complete record.
    ///
    /// # Errors
    ///
    /// I/O failures (callers in a serving path should log and continue — the
    /// store is an accelerator, not a source of truth).
    pub fn put(&self, measurement: &Measurement, timing: &Timing) -> std::io::Result<StoreKey> {
        let key = Self::key_of(measurement).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown program {:?}", measurement.program),
            )
        })?;
        let started = Instant::now();
        let text = record::record_to_json(&key, measurement, timing);
        let temp = self.root.join(format!(
            "tmp-{}-{}.{RECORD_EXT}",
            std::process::id(),
            NAME_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&temp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&temp, self.record_path(&key))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        trace::record(
            "store.write",
            "store",
            started,
            Instant::now(),
            &[("key", key.as_str()), ("program", &measurement.program)],
        );
        Ok(key)
    }

    /// Look up a record by key. A missing record is `None`; a record that
    /// fails validation is quarantined and also `None` — corruption is
    /// indistinguishable from a miss to callers, by design.
    pub fn get(&self, key: &StoreKey) -> Option<(Measurement, Timing)> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let path = self.record_path(key);
        let text = fs::read_to_string(&path).ok();
        let result = text
            .as_deref()
            .and_then(|text| match record::record_from_json(text) {
                Ok((stored_key, m, t)) if stored_key == *key => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some((m, t))
                }
                Ok((stored_key, ..)) => {
                    self.quarantine(&path, &format!("key mismatch: record says {stored_key}"));
                    None
                }
                Err(why) => {
                    self.quarantine(&path, &why);
                    None
                }
            });
        trace::record(
            "store.read",
            "store",
            started,
            Instant::now(),
            &[
                ("key", key.as_str()),
                ("hit", if result.is_some() { "true" } else { "false" }),
            ],
        );
        result
    }

    /// The raw record text for `key`, *after* validating it — what the daemon
    /// serves on `GET /v1/results/{key}`. Invalid records are quarantined and
    /// reported as missing, exactly like [`ResultStore::get`].
    pub fn raw_record(&self, key: &StoreKey) -> Option<String> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let path = self.record_path(key);
        let result =
            fs::read_to_string(&path)
                .ok()
                .and_then(|text| match record::record_from_json(&text) {
                    Ok((stored_key, ..)) if stored_key == *key => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Some(text)
                    }
                    Ok((stored_key, ..)) => {
                        self.quarantine(&path, &format!("key mismatch: record says {stored_key}"));
                        None
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        None
                    }
                });
        trace::record(
            "store.read",
            "store",
            started,
            Instant::now(),
            &[
                ("key", key.as_str()),
                ("hit", if result.is_some() { "true" } else { "false" }),
            ],
        );
        result
    }

    /// Validate and load every record in the store, quarantining the invalid
    /// ones. Returned entries are sorted by key so the load order (and any
    /// seeding built on it) is deterministic.
    pub fn load_all(&self) -> Vec<(StoreKey, Measurement, Timing)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.root) else {
            return out;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(RECORD_EXT) || !path.is_file() {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            // Leftover temp files from a crashed writer are not records; a
            // malformed *name* is suspicious enough to quarantine.
            if stem.starts_with("tmp-") {
                continue;
            }
            let Ok(key) = StoreKey::from_hex(stem) else {
                self.quarantine(&path, "malformed record file name");
                continue;
            };
            match fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| record::record_from_json(&text))
            {
                Ok((stored_key, m, t)) if stored_key == key => out.push((key, m, t)),
                Ok((stored_key, ..)) => {
                    self.quarantine(&path, &format!("key mismatch: record says {stored_key}"))
                }
                Err(why) => self.quarantine(&path, &why),
            }
        }
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// [`ResultStore::load_all`], restricted to records whose address still
    /// matches the *current* source of their benchmark — the warm-start set.
    /// A record for a renamed benchmark or an edited source is simply skipped
    /// (it is unreachable under any current key, not corrupt).
    pub fn load_current(&self) -> Vec<(Measurement, Timing)> {
        self.load_all()
            .into_iter()
            .filter(|(key, m, _)| Self::key_of(m).as_ref() == Some(key))
            .map(|(_, m, t)| (m, t))
            .collect()
    }

    /// Number of (untrusted, unparsed) records currently on disk.
    pub fn record_count(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(RECORD_EXT))
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

    /// Durability barrier: fsync the store directory so all completed renames
    /// survive power loss. Called by the daemon's graceful shutdown.
    ///
    /// # Errors
    ///
    /// I/O failures opening or syncing the directory.
    pub fn flush(&self) -> std::io::Result<()> {
        fs::File::open(&self.root)?.sync_all()
    }

    /// Move a bad record out of the addressable namespace, never failing: if
    /// the rename itself fails (e.g. the file vanished), the record is simply
    /// left to the next reader. The reason is logged to stderr — the store has
    /// no other channel — and the quarantine counter feeds `/metrics`.
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
            eprintln!("[store] quarantined {name}: {why}");
        }
    }
}
