//! A persistent, content-addressed store for tagstudy measurements.
//!
//! Results are keyed by a stable 128-bit hash of `(program source, Config)`
//! ([`StoreKey::compute`]), one `<key>.rec` file per key under a cache
//! directory.
//!
//! # One disk discipline
//!
//! Measurement records and the fuzzing fleet's witnesses and coverage ledger
//! ([`fuzz`]) share one envelope and one directory protocol:
//!
//! - **Envelope:** one JSON line of `format_version` ([`FORMAT_VERSION`] or
//!   [`fuzz::FUZZ_FORMAT_VERSION`]), the content `key` (records and
//!   witnesses), an FNV-1a `checksum` of the payload, and the payload.
//! - **Write:** a `tmp-<pid>-<n>` file, fsynced, then renamed into place.
//! - **Read:** a file that fails validation (syntax, truncation, a bit flip
//!   the checksum catches, a stale version, a key other than the one it is
//!   filed under) is moved into `quarantine/`, counted, and read as missing.
//!   Corruption is never served and never fatal.
//! - **Scan and count:** `<32 hex>.<ext>` files only, sorted by key; temp
//!   files are skipped and malformed names quarantined.
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

mod disk;
pub mod fuzz;
pub mod record;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tagstudy::{trace, Config, Measurement, Timing};

use disk::Dir;

/// Version of the on-disk record format. Bump on any encoding change; records
/// carrying any other version are quarantined on read (stale, not corrupt —
/// but equally untrusted). v2 added `halt_code`/`output` to the measurement
/// encoding.
pub const FORMAT_VERSION: u64 = 2;

/// Extension of record files under the store root.
const RECORD_EXT: &str = "rec";

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
    dir: Dir,
    puts: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        Ok(ResultStore {
            dir: Dir::open(dir.into(), "store")?,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.dir.root()
    }

    /// Activity counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            quarantined: self.dir.quarantined(),
        }
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

    /// Durably store one measurement under its content address (an atomic
    /// replace, see the crate docs). Concurrent writers of the same key are
    /// safe: both write the same canonical bytes, and readers always see one
    /// complete record.
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
        self.dir.write(
            &format!("{key}.{RECORD_EXT}"),
            &record::record_to_json(&key, measurement, timing),
        )?;
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
        self.read(key).map(|(_, (_, m, t))| (m, t))
    }

    /// The raw record text for `key`, *after* validating it — what the daemon
    /// serves on `GET /v1/results/{key}`. Invalid records are quarantined and
    /// reported as missing, exactly like [`ResultStore::get`].
    pub fn raw_record(&self, key: &StoreKey) -> Option<String> {
        self.read(key).map(|(text, _)| text)
    }

    /// The one validated lookup behind [`ResultStore::get`] and
    /// [`ResultStore::raw_record`], recorded as a `store.read` span.
    fn read(&self, key: &StoreKey) -> Option<(String, (StoreKey, Measurement, Timing))> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let name = format!("{key}.{RECORD_EXT}");
        let result = self
            .dir
            .read(&name, |text| record::open_record(text, Some(key)));
        if result.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
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
        self.dir
            .scan(RECORD_EXT, |key, text| record::open_record(text, Some(key)))
            .into_iter()
            .map(|(key, (_, m, t))| (key, m, t))
            .collect()
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
        self.dir.count(RECORD_EXT)
    }

    /// Number of files in `quarantine/`.
    pub fn quarantine_count(&self) -> usize {
        self.dir.quarantine_count()
    }

    /// Durability barrier: fsync the store directory so all completed renames
    /// survive power loss. Called by the daemon's graceful shutdown.
    ///
    /// # Errors
    ///
    /// I/O failures opening or syncing the directory.
    pub fn flush(&self) -> std::io::Result<()> {
        self.dir.sync()
    }
}
