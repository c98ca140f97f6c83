//! The store's one disk discipline (see the crate docs): [`Envelope`] is the
//! one envelope codec, [`Dir`] the one write, read, scan and quarantine
//! protocol. Each kind of file brings its payload codec.

use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tagstudy::{json_field, json_string, Json};

use crate::record::{get_str, get_u64};
use crate::{fnv1a64, StoreKey};

const QUARANTINE: &str = "quarantine";

/// Process-wide uniquifier for temp-file and quarantine names. Global, not
/// per-handle: several handles on one directory (one per daemon thread, or
/// tests) must never generate the same temp name, or a concurrent writer's
/// rename source can be snatched from under it.
static NAME_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique(prefix: &str) -> String {
    let n = NAME_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}{}-{n}", std::process::id())
}

/// The envelope of one kind of file, `(format version, payload field)`:
/// one JSON line of `format_version`, the content `key` (for the kinds that
/// have one), the `checksum` of the payload, and the payload.
pub(crate) struct Envelope(pub(crate) u64, pub(crate) &'static str);

impl Envelope {
    /// The full file text for `payload`.
    pub(crate) fn seal(&self, key: Option<&StoreKey>, payload: &str) -> String {
        let Envelope(version, field) = self;
        let key = key.map_or(String::new(), |k| {
            format!("\"key\":{},", json_string(k.as_str()))
        });
        let checksum = fnv1a64(payload.as_bytes());
        format!(
            "{{\"format_version\":{version},{key}\"checksum\":\"{checksum:016x}\",\
             \"{field}\":{payload}}}\n"
        )
    }

    /// Open a [`Envelope::seal`]ed file: the version must match, the payload
    /// must `decode`, its canonical re-encoding must reproduce the checksum
    /// (so even semantically neutral reformatting is rejected), and the
    /// envelope must carry `key` when one is given. Returns the envelope's
    /// key, if any, and the payload, or why the file cannot be trusted.
    pub(crate) fn unseal<T>(
        &self,
        text: &str,
        key: Option<&StoreKey>,
        decode: impl FnOnce(&Json) -> Result<T, String>,
        encode: impl FnOnce(&T) -> String,
    ) -> Result<(Option<StoreKey>, T), String> {
        let Envelope(version, field) = *self;
        let root = Json::parse(text)?;
        let obj = root.as_object(field)?;
        let found = get_u64(obj, "format_version")?;
        if found != version {
            return Err(format!(
                "stale format version {found} (current is {version})"
            ));
        }
        let stored_key = match obj.iter().find(|(k, _)| k == "key") {
            None => None,
            Some((_, v)) => Some(StoreKey::from_hex(v.as_str("key")?)?),
        };
        let stored = get_str(obj, "checksum")?;
        let payload = decode(json_field(obj, field)?)?;
        let computed = format!("{:016x}", fnv1a64(encode(&payload).as_bytes()));
        if computed != stored {
            return Err(format!(
                "checksum mismatch: stored {stored}, computed {computed}"
            ));
        }
        match key {
            Some(want) if stored_key.as_ref() != Some(want) => {
                Err(format!("key mismatch: record filed as {want}"))
            }
            _ => Ok((stored_key, payload)),
        }
    }
}

/// One store directory and its `quarantine/` subdirectory.
#[derive(Debug)]
pub(crate) struct Dir {
    root: PathBuf,
    /// Prefix of the quarantine log lines on stderr.
    log: &'static str,
    quarantined: AtomicU64,
}

impl Dir {
    pub(crate) fn open(root: PathBuf, log: &'static str) -> std::io::Result<Dir> {
        fs::create_dir_all(root.join(QUARANTINE))?;
        let quarantined = AtomicU64::new(0);
        Ok(Dir {
            root,
            log,
            quarantined,
        })
    }

    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    pub(crate) fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Atomically replace `name` with `text`: write a `tmp-<pid>-<n>` file
    /// (no extension, so no scan or count sees it), fsync it, rename it.
    pub(crate) fn write(&self, name: &str, text: &str) -> std::io::Result<()> {
        let temp = self.path(&unique("tmp-"));
        let mut f = fs::File::create(&temp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&temp, self.path(name))
    }

    /// Read `name` and `decode` it (the key check included), returning the
    /// text and the value. A missing file is `None`; an unreadable or invalid
    /// one is quarantined and also `None`.
    pub(crate) fn read<T>(
        &self,
        name: &str,
        decode: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<(String, T)> {
        let why = match fs::read_to_string(self.path(name)) {
            Ok(text) => match decode(&text) {
                Ok(value) => return Some((text, value)),
                Err(why) => why,
            },
            Err(e) if e.kind() == ErrorKind::NotFound => return None,
            Err(e) => e.to_string(),
        };
        self.quarantine(name, &why);
        None
    }

    /// [`Dir::read`] every `<key>.<ext>` file, `decode` given the key it is
    /// filed under, sorted by key; malformed names are quarantined.
    pub(crate) fn scan<T>(
        &self,
        ext: &str,
        decode: impl Fn(&StoreKey, &str) -> Result<T, String>,
    ) -> Vec<(StoreKey, T)> {
        let mut out = Vec::new();
        for (name, key) in self.listing(ext) {
            let Some(key) = key else {
                self.quarantine(&name, "malformed file name");
                continue;
            };
            if let Some((_, value)) = self.read(&name, |text| decode(&key, text)) {
                out.push((key, value));
            }
        }
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Number of (untrusted, unparsed) files [`Dir::scan`] would read.
    pub(crate) fn count(&self, ext: &str) -> usize {
        self.listing(ext)
            .iter()
            .filter(|(_, key)| key.is_some())
            .count()
    }

    /// The one file-name filter: regular files named `<stem>.<ext>`, except
    /// leftover temp files (`tmp-*`), with the key the stem spells, if any.
    fn listing(&self, ext: &str) -> Vec<(String, Option<StoreKey>)> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let names = entries.flatten().filter(|e| e.path().is_file());
        names
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let stem = name.strip_suffix(ext)?.strip_suffix('.')?;
                if stem.starts_with("tmp-") {
                    return None;
                }
                let key = StoreKey::from_hex(stem).ok();
                Some((name, key))
            })
            .collect()
    }

    pub(crate) fn quarantine_count(&self) -> usize {
        let entries = fs::read_dir(self.path(QUARANTINE));
        entries.map_or(0, |entries| entries.flatten().count())
    }

    pub(crate) fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Durability barrier: fsync the directory so completed renames survive
    /// power loss.
    pub(crate) fn sync(&self) -> std::io::Result<()> {
        fs::File::open(&self.root)?.sync_all()
    }

    /// Move a bad file out of the addressable namespace, never failing: if
    /// the rename fails (e.g. the file vanished) the file is left to the next
    /// reader. The reason goes to stderr, the store's only channel for it.
    fn quarantine(&self, name: &str, why: &str) {
        let dest = self.path(QUARANTINE).join(unique(&format!("{name}.")));
        if fs::rename(self.path(name), dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!("[{}] quarantined {name}: {why}", self.log);
        }
    }
}
