//! Durability tests for the persistent result store: round-trips, stale-version
//! and corruption quarantine, and concurrent writers sharing one cache dir.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use store::{ResultStore, StoreKey, FORMAT_VERSION};
use tagstudy::{CheckingMode, Config, Measurement, Timing};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "tagstudy-store-test-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A synthetic measurement for a real registry program (the store derives the
/// content address from the benchmark's current source).
fn measurement(program: &str, config: Config, cycles: u64) -> Measurement {
    Measurement {
        program: program.to_string(),
        config,
        stats: mipsx::Stats {
            cycles,
            committed: cycles / 2,
            ..Default::default()
        },
        compile: lisp::CompileStats {
            procedures: 7,
            source_lines: 70,
            object_words: 700,
        },
        halt_code: 0,
        output: "ok\n".to_string(),
    }
}

fn timing(ms: u64) -> Timing {
    Timing {
        compile: Duration::from_millis(ms),
        simulate: Duration::from_millis(ms * 3),
    }
}

/// The one record file in `dir` (fails the test if there isn't exactly one).
fn only_record(dir: &std::path::Path) -> PathBuf {
    let recs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rec"))
        .collect();
    assert_eq!(recs.len(), 1, "want exactly one record, got {recs:?}");
    recs.into_iter().next().unwrap()
}

#[test]
fn put_get_round_trip_and_warm_load() {
    let scratch = Scratch::new("roundtrip");
    let store = ResultStore::open(&scratch.0).unwrap();
    let m = measurement("frl", Config::baseline(CheckingMode::Full), 1_000_000);
    let t = timing(12);

    let key = store.put(&m, &t).unwrap();
    assert_eq!(Some(&key), ResultStore::key_of(&m).as_ref());
    let (m2, t2) = store.get(&key).expect("stored record is served");
    assert_eq!(m2.stats, m.stats);
    assert_eq!(m2.config, m.config);
    assert_eq!(t2, t);

    // A second store on the same directory — a restarted daemon — sees it.
    let store2 = ResultStore::open(&scratch.0).unwrap();
    let warm = store2.load_current();
    assert_eq!(warm.len(), 1);
    assert_eq!(warm[0].0.stats, m.stats);
    assert_eq!(store2.quarantine_count(), 0);

    // Distinct configs are distinct addresses.
    let other = StoreKey::compute(
        programs::by_name("frl").unwrap().source,
        None,
        &Config::baseline(CheckingMode::None),
    );
    assert_ne!(other, key);
    assert!(store.get(&other).is_none());

    let s = store.stats();
    assert_eq!((s.puts, s.hits, s.quarantined), (1, 1, 0));
}

#[test]
fn stale_format_version_is_quarantined_not_served() {
    let scratch = Scratch::new("version");
    let store = ResultStore::open(&scratch.0).unwrap();
    let m = measurement("trav", Config::baseline(CheckingMode::None), 2_000_000);
    let key = store.put(&m, &timing(5)).unwrap();

    // Simulate a record written by a future (or ancient) format.
    let path = only_record(&scratch.0);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(
        &path,
        text.replacen(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            &format!("\"format_version\":{}", FORMAT_VERSION + 1),
            1,
        ),
    )
    .unwrap();

    assert!(store.get(&key).is_none(), "stale version is never trusted");
    assert_eq!(store.quarantine_count(), 1);
    assert_eq!(store.record_count(), 0, "moved out of the namespace");
    // Not fatal: the store keeps working, and a fresh put heals the entry.
    store.put(&m, &timing(5)).unwrap();
    assert!(store.get(&key).is_some());
}

#[test]
fn truncated_and_bit_flipped_records_are_quarantined() {
    for (tag, corrupt) in [
        (
            "truncate",
            &(|text: &str| text[..text.len() / 3].to_string()) as &dyn Fn(&str) -> String,
        ),
        ("bitflip", &|text: &str| {
            text.replacen("\"cycles\":3", "\"cycles\":4", 1)
        }),
    ] {
        let scratch = Scratch::new(tag);
        let store = ResultStore::open(&scratch.0).unwrap();
        let m = measurement("frl", Config::baseline(CheckingMode::None), 3_000_000);
        let key = store.put(&m, &timing(9)).unwrap();

        let path = only_record(&scratch.0);
        let text = fs::read_to_string(&path).unwrap();
        let mangled = corrupt(&text);
        assert_ne!(mangled, text, "{tag}: corruption must change the file");
        fs::write(&path, mangled).unwrap();

        assert!(
            store.get(&key).is_none(),
            "{tag}: corrupt record not served"
        );
        assert_eq!(store.quarantine_count(), 1, "{tag}");
        assert!(store.load_all().is_empty(), "{tag}");
        assert_eq!(store.stats().quarantined, 1, "{tag}");
    }
}

#[test]
fn concurrent_writers_on_one_cache_dir() {
    let scratch = Scratch::new("concurrent");
    let configs = [
        Config::baseline(CheckingMode::None),
        Config::baseline(CheckingMode::Full),
        Config::new(tagword::TagScheme::LowTag2, CheckingMode::Full),
        Config::new(tagword::TagScheme::HighTag6, CheckingMode::None),
    ];

    // 8 writers × 8 rounds, all racing on the same directory through
    // *independent* store handles (as separate daemon processes would), with
    // heavy key contention: every writer writes every config.
    std::thread::scope(|scope| {
        for w in 0..8 {
            let dir = scratch.0.clone();
            let configs = &configs;
            scope.spawn(move || {
                let store = ResultStore::open(&dir).unwrap();
                for round in 0..8 {
                    for config in configs {
                        let m = measurement("frl", *config, 5_000_000);
                        store.put(&m, &timing(w * 10 + round)).unwrap();
                    }
                }
            });
        }
    });

    let store = ResultStore::open(&scratch.0).unwrap();
    let loaded = store.load_all();
    assert_eq!(loaded.len(), configs.len(), "one record per distinct point");
    assert_eq!(store.record_count(), configs.len());
    assert_eq!(store.quarantine_count(), 0, "no torn writes");
    for (key, m, _) in &loaded {
        // Every surviving record is complete and correctly addressed.
        assert_eq!(ResultStore::key_of(m).as_ref(), Some(key));
        assert_eq!(m.stats.cycles, 5_000_000);
    }
    // No temp files left behind.
    let leftovers: Vec<_> = fs::read_dir(&scratch.0)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

/// A temp file a crashed writer left behind (named as older versions named
/// them, with the record extension) is neither a record nor corrupt: it is
/// not counted, not loaded and not quarantined.
#[test]
fn stray_temp_file_is_not_a_record() {
    let scratch = Scratch::new("stray-temp");
    let store = ResultStore::open(&scratch.0).unwrap();
    let m = measurement("frl", Config::baseline(CheckingMode::Full), 1_000_000);
    store.put(&m, &timing(1)).unwrap();
    fs::copy(only_record(&scratch.0), scratch.0.join("tmp-999-0.rec")).unwrap();

    assert_eq!(store.record_count(), 1);
    assert_eq!(store.load_all().len(), 1);
    assert_eq!(store.quarantine_count(), 0);
}

/// Store I/O spans are recorded only on a thread inside an entered trace
/// context, carry its trace id, and label reads with hit/miss.
#[test]
fn entered_context_records_store_spans() {
    use tagstudy::trace::{TraceContext, Tracer};

    let scratch = Scratch::new("trace");
    let store = ResultStore::open(&scratch.0).unwrap();
    let cfg = Config::baseline(CheckingMode::None);
    let m = measurement("frl", cfg, 1234);

    // No context: everything works, nothing recorded anywhere.
    let key = store.put(&m, &timing(1)).unwrap();
    assert!(store.get(&key).is_some());

    let tracer = Tracer::new(8, Duration::from_secs(3600));
    let ctx = TraceContext::fresh();
    {
        let _entered = tracer.enter(ctx);
        // Another thread's I/O stays outside this thread's context.
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(store.get(&key).is_some()));
        });
        store.put(&m, &timing(1)).unwrap();
        assert!(store.get(&key).is_some());
        assert!(store
            .get(&StoreKey::compute("(no such src)", None, &cfg))
            .is_none());
    }
    // Context left: subsequent I/O is unrecorded again.
    assert!(store.get(&key).is_some());

    tracer
        .finish(ctx.trace, ctx.parent)
        .expect("spans recorded");
    let rec = tracer.lookup(ctx.trace).unwrap();
    let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["store.write", "store.read", "store.read"]);
    assert!(rec.spans.iter().all(|s| s.trace == ctx.trace));
    assert!(rec.spans.iter().all(|s| s.parent == Some(ctx.parent)));
    let hit_labels: Vec<&str> = rec
        .spans
        .iter()
        .filter(|s| s.name == "store.read")
        .map(|s| {
            s.labels
                .iter()
                .find(|(k, _)| k == "hit")
                .map(|(_, v)| v.as_str())
                .unwrap()
        })
        .collect();
    assert_eq!(hit_labels, ["true", "false"]);
}
