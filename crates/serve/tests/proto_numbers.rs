//! The request grammar's numeric fields under hostile values: the inline
//! `heap` and the `drop<N>` hardware feature, at the edges of their integer
//! types and at random. `parse_batch` must answer `Ok`, or an error naming
//! the experiment and the exact reason — never panic, never wrap.

use proptest::prelude::*;
use serve::proto::parse_batch;
use tagstudy::{CheckingMode, Config};
use tagword::{TagScheme, ALL_SCHEMES};

/// An edge value (0, 1, 31, 32, 2³¹, 2³²−1, 2³², `u64::MAX`) or a random
/// one, across u64, inside u32, or small.
fn number() -> impl Strategy<Value = u64> {
    let edges = vec![0, 1, 31, 32, 1 << 31, (1 << 32) - 1, 1 << 32, u64::MAX];
    prop_oneof![
        prop::sample::select(edges),
        any::<u64>(),
        any::<u32>().prop_map(u64::from),
        0u64..64,
    ]
}

/// Parse `body` and check the verdict against the values in it: refused
/// exactly when the drop is outside 1..=31, the heap exceeds 32 bits, or
/// the two semispaces plus the stack overflow the scheme's pointer space —
/// with that reason in the message.
fn check(body: &str, scheme: TagScheme, heap: Option<u64>, drop: u64) {
    let stack = u64::from(
        Config::baseline(CheckingMode::Full)
            .to_options()
            .stack_bytes,
    );
    let mut why = Vec::new();
    if !(1..32).contains(&drop) {
        why.push("out of range");
    }
    match heap {
        Some(h) if h > u64::from(u32::MAX) => why.push("exceeds the 32-bit limit"),
        Some(h) if 2 * h + stack >= 1 << scheme.pointer_bits() => why.push("does not fit"),
        _ => {}
    }
    match parse_batch(body.as_bytes()) {
        Ok(specs) => {
            assert!(why.is_empty(), "{body}: accepted despite {why:?}");
            let config = specs[0].config;
            assert_eq!(config.scheme, scheme, "{body}");
            assert_eq!(u64::from(config.hw.drop_high_address_bits), drop, "{body}");
            assert_eq!(specs[0].heap_semi_bytes.map(u64::from), heap, "{body}");
        }
        Err(e) => {
            assert!(e.starts_with("experiments[0]: "), "{body}: {e}");
            assert!(
                why.iter().any(|w| e.contains(w)),
                "{body}: {e} (want {why:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn inline_heap_and_drop(s in prop::sample::select(ALL_SCHEMES.to_vec()), heap in number(), drop in number(), tagbr in any::<bool>()) {
        let hw = if tagbr { format!("tagbr+drop{drop}") } else { format!("drop{drop}") };
        let body = format!(
            r#"{{"experiments": [{{"source": "(print 1)", "scheme": "{s}", "hw": "{hw}", "heap": {heap}}}]}}"#
        );
        check(&body, s, Some(heap), drop);
    }

    #[test]
    fn named_and_string_drop(s in prop::sample::select(ALL_SCHEMES.to_vec()), drop in number()) {
        let object = format!(r#"{{"experiments": [{{"program": "frl", "scheme": "{s}", "hw": "drop{drop}"}}]}}"#);
        check(&object, s, None, drop);
        check(&format!(r#"{{"experiments": ["frl:{s}:none:drop{drop}"]}}"#), s, None, drop);
    }
}

/// `drop5` is accepted under every scheme — the store's pinned grid measures
/// `maximal(5)` under all four — and a drop too long for any integer type is
/// refused as out of range, not as an unknown name.
#[test]
fn drop5_everywhere_and_overlong_drops() {
    for s in ALL_SCHEMES {
        let body = format!(r#"{{"experiments": ["frl:{s}:full:drop5+tagbr+genarith+chkall"]}}"#);
        let specs = parse_batch(body.as_bytes()).unwrap();
        let want = Config::new(s, CheckingMode::Full).with_hw(mipsx::HwConfig::maximal(5));
        assert_eq!(specs[0].config, want);
    }
    let body =
        r#"{"experiments": [{"program": "frl", "hw": "drop123456789012345678901234567890"}]}"#;
    let err = parse_batch(body.as_bytes()).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
}
