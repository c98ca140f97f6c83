//! Property-based tests for tag schemes.

use proptest::prelude::*;
use tagword::{Extracted, Tag, TagScheme, ALL_SCHEMES};

fn schemes() -> impl Strategy<Value = TagScheme> {
    prop::sample::select(ALL_SCHEMES.to_vec())
}

fn pointer_tags() -> impl Strategy<Value = Tag> {
    prop::sample::select(vec![
        Tag::Pair,
        Tag::Symbol,
        Tag::Vector,
        Tag::Float,
        Tag::Str,
        Tag::Code,
    ])
}

proptest! {
    /// make_int then int_value is the identity over the whole fixnum range.
    #[test]
    fn int_round_trip(s in schemes(), v in any::<i32>()) {
        let v = v.clamp(s.min_int(), s.max_int());
        let w = s.make_int(v).unwrap();
        prop_assert!(s.is_int(w));
        prop_assert_eq!(s.int_value(w), Some(v));
        prop_assert_eq!(s.extract(w), Extracted::Exact(Tag::Int));
    }

    /// Out-of-range integers are always rejected.
    #[test]
    fn int_out_of_range_rejected(s in schemes(), v in any::<i32>()) {
        prop_assume!(v < s.min_int() || v > s.max_int());
        prop_assert!(s.make_int(v).is_err());
    }

    /// insert then remove recovers the pointer; extract agrees with the inserted
    /// tag (exactly, or through the escape for low-tag escape types).
    #[test]
    fn pointer_round_trip(s in schemes(), t in pointer_tags(), raw in 0u32..(1 << 24)) {
        let align = s.pointer_align();
        let ptr = (raw / align) * align;
        let w = s.insert(t, ptr).unwrap();
        prop_assert_eq!(s.remove(w), ptr);
        match s.extract(w) {
            Extracted::Exact(got) => prop_assert_eq!(got, t),
            Extracted::Escape => prop_assert!(!s.has_exact_tag(t)),
        }
        // a pointer word is never mistaken for an integer...
        if ptr != 0 || s.raw_tag(t).map(|r| r != 0).unwrap_or(true) {
            prop_assert!(!s.is_int(w));
        }
    }

    /// Tagged pointers of different exact types never alias the same word.
    #[test]
    fn distinct_tags_distinct_words(s in schemes(), raw in 1u32..(1 << 20)) {
        let align = s.pointer_align();
        let ptr = (raw / align) * align;
        let mut words = vec![];
        for t in [Tag::Pair, Tag::Symbol, Tag::Vector, Tag::Str] {
            if s.has_exact_tag(t) {
                words.push(s.insert(t, ptr).unwrap());
            }
        }
        words.sort_unstable();
        let before = words.len();
        words.dedup();
        prop_assert_eq!(words.len(), before);
    }

    /// The §4.2 arithmetic-safety property, exercised dynamically: adding any two
    /// valid HighTag6 fixnums either yields the correct fixnum or a word whose
    /// integer test fails (signalling overflow); and adding any non-integer word to
    /// anything never passes the integer test.
    #[test]
    fn high6_add_safety(a in any::<i32>(), b in any::<i32>()) {
        let s = TagScheme::HighTag6;
        let a = a.clamp(s.min_int(), s.max_int());
        let b = b.clamp(s.min_int(), s.max_int());
        let wa = s.make_int(a).unwrap();
        let wb = s.make_int(b).unwrap();
        let sum = wa.wrapping_add(wb);
        let exact = i64::from(a) + i64::from(b);
        if exact >= i64::from(s.min_int()) && exact <= i64::from(s.max_int()) {
            prop_assert!(s.is_int(sum));
            prop_assert_eq!(s.int_value(sum), Some(exact as i32));
        } else {
            prop_assert!(!s.is_int(sum), "overflowed add must fail the integer test");
        }
    }

    /// HighTag6: non-integer plus anything never looks like an integer.
    #[test]
    fn high6_non_int_add_never_int(t in pointer_tags(), raw in 0u32..(1 << 20), v in any::<i32>()) {
        let s = TagScheme::HighTag6;
        let ptr = (raw / 4) * 4;
        let wp = s.insert(t, ptr).unwrap();
        let v = v.clamp(s.min_int(), s.max_int());
        let wi = s.make_int(v).unwrap();
        prop_assert!(!s.is_int(wp.wrapping_add(wi)));
        let wp2 = s.insert(Tag::Pair, ptr).unwrap();
        prop_assert!(!s.is_int(wp.wrapping_add(wp2)));
    }

    /// Low-tag displacement folding: loading through `ptr|tag` at displacement
    /// `fold + k` addresses the same word as loading through `ptr` at `k`.
    #[test]
    fn fold_displacement_equivalence(s in prop::sample::select(vec![TagScheme::LowTag2, TagScheme::LowTag3]),
                                     t in prop::sample::select(vec![Tag::Pair, Tag::Symbol]),
                                     raw in 0u32..(1 << 20), k in 0i32..16) {
        let align = s.pointer_align();
        let ptr = (raw / align) * align;
        let w = s.insert(t, ptr).unwrap();
        let fold = s.fold_displacement(t).unwrap();
        let via_tagged = (w as i64) + i64::from(fold) + i64::from(k * 4);
        let via_clean = (ptr as i64) + i64::from(k * 4);
        prop_assert_eq!(via_tagged, via_clean);
    }
}
