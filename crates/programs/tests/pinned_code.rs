//! Pins the finished object code of every paper program, byte for byte.
//!
//! The golden report only sees cycle counts, so a change to the code
//! generator or the delay-slot scheduler that happens to cost the same
//! cycles would slip past it. This test pins, per benchmark × scheme ×
//! checking × hardware point, the scheduler's report, the object size and an
//! FNV-1a digest of the whole `Program` (instructions, annotations, entry,
//! sorted symbols and data image) against a checked-in expected file.
//!
//! A second test compiles one lowered `Unit` per program under all 24
//! configurations and must reproduce the same file: the front end's output
//! does not depend on the configuration, so lowering once is safe.
//!
//! To regenerate after an *intentional* change to the generated code:
//!
//! ```text
//! UPDATE_EXPECTED=1 cargo test -p programs --test pinned_code
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use lisp::{CheckingMode, CompiledProgram, Options};
use mipsx::{HwConfig, Program};
use tagword::ALL_SCHEMES;

fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/expected/pinned_code.txt")
}

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One record, terminated so adjacent records cannot run together.
    fn record(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(b"\n");
    }
}

/// Digest of everything the executor and the profiler read from a program.
fn digest(p: &Program) -> u64 {
    let mut h = Fnv::new();
    for (insn, annot) in p.insns.iter().zip(&p.annots) {
        h.record(&format!("{insn:?} {annot:?}"));
    }
    h.record(&format!("entry {}", p.entry));
    let mut symbols: Vec<_> = p.symbols.iter().collect();
    symbols.sort();
    for (name, pos) in symbols {
        h.record(&format!("sym {name} {pos}"));
    }
    for (addr, word) in &p.data {
        h.record(&format!("data {addr} {word}"));
    }
    h.0
}

/// The 24 oracle configurations: scheme × checking × plain/tag-branch/maximal.
fn configs() -> Vec<(String, Options)> {
    let mut out = Vec::new();
    for scheme in ALL_SCHEMES {
        for checking in [CheckingMode::None, CheckingMode::Full] {
            for (hw_name, hw) in [
                ("plain", HwConfig::plain()),
                ("tagbr", HwConfig::with_tag_branch()),
                ("maximal", HwConfig::maximal(scheme.tag_bits())),
            ] {
                let opts = Options {
                    hw,
                    ..Options::new(scheme, checking)
                };
                out.push((format!("{scheme}:{checking:?}:{hw_name}"), opts));
            }
        }
    }
    out
}

/// One line of the expected file: the scheduler's report, the object size
/// and the digest of `c` for one benchmark × configuration point.
fn pinned_line(out: &mut String, name: &str, label: &str, c: &CompiledProgram) {
    writeln!(
        out,
        "{name}:{label} slots_filled={} load_nops_inserted={} object_words={} digest={:016x}",
        c.schedule.slots_filled,
        c.schedule.load_nops_inserted,
        c.stats.object_words,
        digest(&c.program)
    )
    .unwrap();
}

fn assert_matches_expected(got: &str) {
    let path = expected_path();
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nseed it with: UPDATE_EXPECTED=1 cargo test -p programs --test pinned_code",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{} drifted at line {}: the generated code changed; \
             if intentional, regenerate with UPDATE_EXPECTED=1",
            path.display(),
            i + 1
        );
    }
    assert_eq!(got, want, "{} differs in length", path.display());
}

#[test]
fn object_code_is_pinned() {
    let mut got = String::new();
    for b in programs::all() {
        for (label, opts) in configs() {
            let c = b.compile(&opts).expect("benchmark compiles");
            pinned_line(&mut got, b.name, &label, &c);
        }
    }
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        let path = expected_path();
        fs::write(&path, &got).expect("write the expected file");
        eprintln!("updated {}", path.display());
        return;
    }
    assert_matches_expected(&got);
}

#[test]
fn one_lowered_unit_compiles_to_the_pinned_code_under_every_config() {
    let mut got = String::new();
    for b in programs::all() {
        let unit = lisp::lower_sources(&[lisp::PRELUDE, b.source]).expect("benchmark lowers");
        for (label, opts) in configs() {
            let opts = Options {
                heap_semi_bytes: b.heap_semi_bytes,
                ..opts
            };
            let c = lisp::compile_unit(&unit, &opts).expect("benchmark compiles");
            pinned_line(&mut got, b.name, &label, &c);
        }
    }
    assert_matches_expected(&got);
}
