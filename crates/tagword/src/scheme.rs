//! The tag-implementation schemes compared by the paper.

use std::fmt;

use crate::tag::{Tag, ALL_TAGS};
use crate::Word;

/// Error produced when a value cannot be encoded under a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeError {
    /// The data part does not fit in the scheme's data field.
    DataTooWide {
        /// The offending data value.
        data: u32,
        /// Number of data bits the scheme provides.
        bits: u32,
    },
    /// An integer is outside the scheme's fixnum range.
    IntOutOfRange {
        /// The offending integer.
        value: i32,
        /// Number of signed bits available.
        bits: u32,
    },
    /// A pointer is not aligned as the scheme requires (low-tag schemes).
    Misaligned {
        /// The offending pointer value.
        ptr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
    /// [`TagScheme::insert`] was called with [`Tag::Int`]; use
    /// [`TagScheme::make_int`] instead, because integer encodings are not a simple
    /// tag-OR under every scheme.
    IntViaInsert,
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchemeError::DataTooWide { data, bits } => {
                write!(f, "data {data:#x} does not fit in {bits} bits")
            }
            SchemeError::IntOutOfRange { value, bits } => {
                write!(f, "integer {value} outside {bits}-bit fixnum range")
            }
            SchemeError::Misaligned { ptr, align } => {
                write!(f, "pointer {ptr:#x} not aligned to {align} bytes")
            }
            SchemeError::IntViaInsert => {
                write!(f, "integers must be encoded with make_int, not insert")
            }
        }
    }
}

impl std::error::Error for SchemeError {}

/// What a tag-field inspection can tell you without touching memory.
///
/// High-tag schemes have a tag value per type, so extraction is always
/// [`Extracted::Exact`]. Low-tag schemes reserve an *escape* combination for the less
/// frequent types, whose precise type lives in a header word of the pointed-to object
/// (paper §5.2); inspecting only the word yields [`Extracted::Escape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extracted {
    /// The tag field identifies the type exactly.
    Exact(Tag),
    /// The tag field is the escape combination; the type is in the object header.
    Escape,
}

impl Extracted {
    /// The exact tag, if the word's tag field determined one.
    pub fn exact(self) -> Option<Tag> {
        match self {
            Extracted::Exact(t) => Some(t),
            Extracted::Escape => None,
        }
    }
}

/// A tag-implementation scheme: where tag bits live in the word and how each
/// [`Tag`] is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagScheme {
    /// Paper §2.1: 5-bit tag in bits 31..27, 27-bit data. Positive integers have tag
    /// 0 and negative integers tag 31, so a fixnum *is* its sign-extended machine
    /// representation and integer arithmetic needs no reformatting.
    HighTag5,
    /// Paper §4.2: 6-bit tag in bits 31..26 with non-integer tags assigned in
    /// `16..=30` so that the sum of two non-integer tags — with a possible carry in
    /// from the data field — can never produce an integer tag (0 or 63) without
    /// overflow. A generic add becomes: add, then one integer check on the result.
    HighTag6,
    /// Paper §5.2: 2-bit tag in bits 1..0. Integers are `v << 2` (tag `00`), pairs
    /// tag `01`, symbols tag `10`, and `11` escapes to a header word. Word-aligned
    /// memory drops the low two address bits, so no tag removal is needed on access.
    LowTag2,
    /// Paper §5.2: 3-bit tag in bits 2..0. Even/odd integers are `000`/`100` (so an
    /// integer is `v << 2`), four three-bit combinations encode pairs, symbols,
    /// vectors and floats, and `011`/`111` escape. Pointer objects are double-word
    /// aligned. This is the Lucid Common Lisp layout.
    LowTag3,
}

/// Every scheme, for exhaustive tests and sweeps.
pub const ALL_SCHEMES: [TagScheme; 4] = [
    TagScheme::HighTag5,
    TagScheme::HighTag6,
    TagScheme::LowTag2,
    TagScheme::LowTag3,
];

const fn sign_extend(w: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((w << shift) as i32) >> shift
}

impl TagScheme {
    /// Number of tag bits the scheme reserves.
    pub fn tag_bits(self) -> u32 {
        match self {
            TagScheme::HighTag5 => 5,
            TagScheme::HighTag6 => 6,
            TagScheme::LowTag2 => 2,
            TagScheme::LowTag3 => 3,
        }
    }

    /// Whether tag bits occupy the most significant end of the word.
    pub fn is_high(self) -> bool {
        matches!(self, TagScheme::HighTag5 | TagScheme::HighTag6)
    }

    /// Number of data bits available to a pointer.
    ///
    /// Low-tag schemes keep the full address space (tag bits overlap alignment
    /// bits), which the paper calls out as "important for large LISP systems".
    pub fn pointer_bits(self) -> u32 {
        match self {
            TagScheme::HighTag5 => 27,
            TagScheme::HighTag6 => 26,
            TagScheme::LowTag2 | TagScheme::LowTag3 => 32,
        }
    }

    /// Number of signed bits in a fixnum.
    pub fn int_bits(self) -> u32 {
        match self {
            TagScheme::HighTag5 => 27,
            TagScheme::HighTag6 => 26,
            TagScheme::LowTag2 | TagScheme::LowTag3 => 30,
        }
    }

    /// Smallest representable fixnum.
    pub fn min_int(self) -> i32 {
        -(1 << (self.int_bits() - 1))
    }

    /// Largest representable fixnum.
    pub fn max_int(self) -> i32 {
        (1 << (self.int_bits() - 1)) - 1
    }

    /// Required byte alignment for heap pointers under this scheme.
    pub fn pointer_align(self) -> u32 {
        match self {
            // High-tag pointers address a word-aligned heap.
            TagScheme::HighTag5 | TagScheme::HighTag6 => 4,
            TagScheme::LowTag2 => 4,
            TagScheme::LowTag3 => 8,
        }
    }

    /// The raw tag-field value used for `tag`, or `None` if the scheme encodes the
    /// type through the escape combination (low-tag schemes) or if the tag is
    /// [`Tag::Int`] under a scheme with asymmetric integer tags.
    pub fn raw_tag(self, tag: Tag) -> Option<u32> {
        match self {
            TagScheme::HighTag5 => Some(match tag {
                Tag::Int => return None, // 0 for positive, 31 for negative
                Tag::Pair => 1,
                Tag::Symbol => 2,
                Tag::Vector => 3,
                Tag::Float => 4,
                Tag::Str => 5,
                Tag::Code => 6,
                Tag::Char => 7,
            }),
            TagScheme::HighTag6 => Some(match tag {
                Tag::Int => return None, // 0 / 63
                Tag::Pair => 16,
                Tag::Symbol => 17,
                Tag::Vector => 18,
                Tag::Float => 19,
                Tag::Str => 20,
                Tag::Code => 21,
                Tag::Char => 22,
            }),
            TagScheme::LowTag2 => match tag {
                Tag::Int => Some(0),
                Tag::Pair => Some(1),
                Tag::Symbol => Some(2),
                _ => None, // escape
            },
            TagScheme::LowTag3 => match tag {
                Tag::Int => Some(0), // and 4 for odd integers
                Tag::Pair => Some(1),
                Tag::Symbol => Some(2),
                Tag::Vector => Some(5),
                Tag::Float => Some(6),
                _ => None, // escape
            },
        }
    }

    /// The escape tag-field value, if the scheme has one.
    pub fn escape_tag(self) -> Option<u32> {
        match self {
            TagScheme::HighTag5 | TagScheme::HighTag6 => None,
            TagScheme::LowTag2 => Some(3),
            // Both 011 and 111 escape; 3 is the canonical one we emit.
            TagScheme::LowTag3 => Some(3),
        }
    }

    /// Whether `tag` can be identified from the word alone (no header load).
    pub fn has_exact_tag(self, tag: Tag) -> bool {
        tag == Tag::Int || self.raw_tag(tag).is_some()
    }

    /// Tags that must go through the escape encoding under this scheme.
    pub fn escape_tags(self) -> Vec<Tag> {
        ALL_TAGS
            .iter()
            .copied()
            .filter(|&t| !self.has_exact_tag(t))
            .collect()
    }

    /// Construct a tagged word from a non-integer `tag` and its data part
    /// (a heap pointer for pointer types, a code point for [`Tag::Char`]).
    ///
    /// # Errors
    ///
    /// - [`SchemeError::IntViaInsert`] if `tag` is [`Tag::Int`];
    /// - [`SchemeError::DataTooWide`] if `data` does not fit the data field
    ///   (high-tag schemes);
    /// - [`SchemeError::Misaligned`] if a pointer's low bits collide with the tag
    ///   field (low-tag schemes).
    pub fn insert(self, tag: Tag, data: u32) -> Result<Word, SchemeError> {
        if tag == Tag::Int {
            return Err(SchemeError::IntViaInsert);
        }
        match self {
            TagScheme::HighTag5 | TagScheme::HighTag6 => {
                let bits = 32 - self.tag_bits();
                if data >> bits != 0 {
                    return Err(SchemeError::DataTooWide { data, bits });
                }
                let raw = self.raw_tag(tag).expect("non-int high tags are exact");
                Ok((raw << bits) | data)
            }
            TagScheme::LowTag2 | TagScheme::LowTag3 => {
                let align = if tag.is_pointer() {
                    self.pointer_align()
                } else {
                    4
                };
                if tag.is_pointer() && !data.is_multiple_of(align) {
                    return Err(SchemeError::Misaligned { ptr: data, align });
                }
                let raw = match self.raw_tag(tag) {
                    Some(raw) => raw,
                    None => self.escape_tag().expect("low-tag schemes have an escape"),
                };
                if !tag.is_pointer() {
                    // Chars ride in the data field above the tag bits.
                    let bits = 32 - self.tag_bits();
                    if data >> bits != 0 {
                        return Err(SchemeError::DataTooWide { data, bits });
                    }
                    return Ok((data << self.tag_bits()) | raw);
                }
                Ok(data | raw)
            }
        }
    }

    /// Encode a fixnum.
    ///
    /// Under the high-tag schemes the result is the sign-extended two's-complement
    /// representation of `value` itself (paper §2.1), so integer arithmetic can use
    /// the processor's instructions directly. Under the low-tag schemes the result
    /// is `value << 2`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::IntOutOfRange`] if `value` is outside
    /// [`min_int`](Self::min_int)`..=`[`max_int`](Self::max_int).
    pub fn make_int(self, value: i32) -> Result<Word, SchemeError> {
        if value < self.min_int() || value > self.max_int() {
            return Err(SchemeError::IntOutOfRange {
                value,
                bits: self.int_bits(),
            });
        }
        match self {
            TagScheme::HighTag5 | TagScheme::HighTag6 => Ok(value as u32),
            TagScheme::LowTag2 | TagScheme::LowTag3 => Ok((value as u32) << 2),
        }
    }

    /// Whether `word` encodes a fixnum.
    pub fn is_int(self, word: Word) -> bool {
        match self {
            TagScheme::HighTag5 => sign_extend(word, 27) as u32 == word,
            TagScheme::HighTag6 => sign_extend(word, 26) as u32 == word,
            TagScheme::LowTag2 | TagScheme::LowTag3 => word & 0b11 == 0,
        }
    }

    /// Decode a fixnum, or `None` if `word` is not an integer.
    pub fn int_value(self, word: Word) -> Option<i32> {
        if !self.is_int(word) {
            return None;
        }
        match self {
            TagScheme::HighTag5 | TagScheme::HighTag6 => Some(word as i32),
            TagScheme::LowTag2 | TagScheme::LowTag3 => Some((word as i32) >> 2),
        }
    }

    /// Inspect the tag field of `word`.
    ///
    /// Returns [`Extracted::Escape`] for low-tag escape combinations, whose exact
    /// type requires a header load. Unknown high-tag values (never produced by this
    /// library) also map onto the nearest meaning: they are reported as
    /// [`Extracted::Escape`].
    pub fn extract(self, word: Word) -> Extracted {
        if self.is_int(word) {
            return Extracted::Exact(Tag::Int);
        }
        match self {
            TagScheme::HighTag5 => match word >> 27 {
                1 => Extracted::Exact(Tag::Pair),
                2 => Extracted::Exact(Tag::Symbol),
                3 => Extracted::Exact(Tag::Vector),
                4 => Extracted::Exact(Tag::Float),
                5 => Extracted::Exact(Tag::Str),
                6 => Extracted::Exact(Tag::Code),
                7 => Extracted::Exact(Tag::Char),
                _ => Extracted::Escape,
            },
            TagScheme::HighTag6 => match word >> 26 {
                16 => Extracted::Exact(Tag::Pair),
                17 => Extracted::Exact(Tag::Symbol),
                18 => Extracted::Exact(Tag::Vector),
                19 => Extracted::Exact(Tag::Float),
                20 => Extracted::Exact(Tag::Str),
                21 => Extracted::Exact(Tag::Code),
                22 => Extracted::Exact(Tag::Char),
                _ => Extracted::Escape,
            },
            TagScheme::LowTag2 => match word & 0b11 {
                1 => Extracted::Exact(Tag::Pair),
                2 => Extracted::Exact(Tag::Symbol),
                _ => Extracted::Escape,
            },
            TagScheme::LowTag3 => match word & 0b111 {
                1 => Extracted::Exact(Tag::Pair),
                2 => Extracted::Exact(Tag::Symbol),
                5 => Extracted::Exact(Tag::Vector),
                6 => Extracted::Exact(Tag::Float),
                _ => Extracted::Escape,
            },
        }
    }

    /// Strip the tag, recovering the data part (a pointer, code point, or for
    /// integers the value's machine representation).
    ///
    /// For high-tag schemes this is the masking operation the paper charges one
    /// cycle for (§3.2); for low-tag schemes it masks the low bits — though on a
    /// word-aligned memory system even that is unnecessary for addressing, which is
    /// the point of §5.2.
    pub fn remove(self, word: Word) -> u32 {
        match self {
            TagScheme::HighTag5 => word & 0x07FF_FFFF,
            TagScheme::HighTag6 => word & 0x03FF_FFFF,
            TagScheme::LowTag2 => word & !0b11,
            TagScheme::LowTag3 => word & !0b111,
        }
    }

    /// Whether a memory system that ignores the scheme's tag-bit positions in
    /// addresses makes explicit tag removal unnecessary for pointer use.
    ///
    /// True for low-tag schemes on word-aligned memory (the low address bits are
    /// dropped anyway) and for high-tag schemes only when the paper's
    /// "loads and stores that ignore the tag" hardware is present.
    pub fn free_address_masking(self) -> bool {
        match self {
            TagScheme::HighTag5 | TagScheme::HighTag6 => false,
            // LowTag2 tags sit entirely inside the word-alignment bits. LowTag3's
            // bit 2 is folded into the load/store displacement by the compiler.
            TagScheme::LowTag2 | TagScheme::LowTag3 => true,
        }
    }

    /// The displacement correction a compiler must fold into loads/stores that go
    /// through a tagged pointer of type `tag` without removing the tag, in bytes.
    ///
    /// E.g. under [`TagScheme::LowTag2`] a `car` through a pair pointer `p|01` is
    /// `load p, -1+0` and `cdr` is `load p, -1+4` (paper §5.2, the T approach).
    /// Returns `None` when the tag cannot be folded (high-tag schemes, or escape
    /// types whose raw tag is not statically known).
    pub fn fold_displacement(self, tag: Tag) -> Option<i32> {
        if !tag.is_pointer() {
            return None;
        }
        match self {
            TagScheme::HighTag5 | TagScheme::HighTag6 => None,
            TagScheme::LowTag2 | TagScheme::LowTag3 => {
                let raw = self.raw_tag(tag).or(self.escape_tag())?;
                Some(-(raw as i32))
            }
        }
    }

    /// Verify the §4.2 arithmetic-safety property: for every pair of non-integer
    /// tag values `(a, b)` and carry-in `c ∈ {0,1}`, `a + b + c` (mod tag space)
    /// is not an integer tag. Only meaningful — and only true — for
    /// [`TagScheme::HighTag6`].
    pub fn is_arith_safe(self) -> bool {
        let bits = self.tag_bits();
        if !self.is_high() {
            return false;
        }
        let modulus = 1u32 << bits;
        let int_tags: &[u32] = &[0, modulus - 1];
        let non_int: Vec<u32> = ALL_TAGS.iter().filter_map(|&t| self.raw_tag(t)).collect();
        // Also mixed sums: int tag + non-int tag must stay non-integer.
        for &a in &non_int {
            for b in non_int.iter().copied().chain(int_tags.iter().copied()) {
                for c in 0..=1u32 {
                    let sum = (a + b + c) % modulus;
                    if int_tags.contains(&sum) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TagScheme::HighTag5 => "high5",
            TagScheme::HighTag6 => "high6",
            TagScheme::LowTag2 => "low2",
            TagScheme::LowTag3 => "low3",
        }
    }

    /// Parse a [`name`](Self::name), ignoring ASCII case.
    ///
    /// # Errors
    ///
    /// A usage-ready message naming the accepted schemes.
    pub fn parse(text: &str) -> Result<TagScheme, String> {
        ALL_SCHEMES
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(text))
            .ok_or_else(|| {
                let all: Vec<&str> = ALL_SCHEMES.iter().map(|s| s.name()).collect();
                format!("unknown scheme {text:?} (want one of: {})", all.join(", "))
            })
    }
}

impl fmt::Display for TagScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high5_int_is_machine_representation() {
        let s = TagScheme::HighTag5;
        for v in [-1, 0, 1, 42, -42, s.min_int(), s.max_int()] {
            let w = s.make_int(v).unwrap();
            assert_eq!(w, v as u32, "fixnum {v} must be its own two's complement");
            assert!(s.is_int(w));
            assert_eq!(s.int_value(w), Some(v));
        }
    }

    #[test]
    fn high5_negative_int_has_all_ones_tag() {
        let s = TagScheme::HighTag5;
        let w = s.make_int(-5).unwrap();
        assert_eq!(w >> 27, 31);
        let w = s.make_int(5).unwrap();
        assert_eq!(w >> 27, 0);
    }

    #[test]
    fn int_range_is_enforced() {
        for s in ALL_SCHEMES {
            assert!(s.make_int(s.max_int()).is_ok());
            assert!(s.make_int(s.min_int()).is_ok());
            assert!(matches!(
                s.make_int(s.max_int() + 1),
                Err(SchemeError::IntOutOfRange { .. })
            ));
            assert!(matches!(
                s.make_int(s.min_int() - 1),
                Err(SchemeError::IntOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn insert_rejects_int() {
        for s in ALL_SCHEMES {
            assert_eq!(s.insert(Tag::Int, 0), Err(SchemeError::IntViaInsert));
        }
    }

    #[test]
    fn insert_extract_remove_round_trip_pairs() {
        for s in ALL_SCHEMES {
            let ptr = 0x1000u32; // aligned for every scheme
            let w = s.insert(Tag::Pair, ptr).unwrap();
            assert_eq!(s.extract(w), Extracted::Exact(Tag::Pair));
            assert_eq!(s.remove(w), ptr);
            assert!(!s.is_int(w));
        }
    }

    #[test]
    fn low2_escape_covers_vectors() {
        let s = TagScheme::LowTag2;
        let w = s.insert(Tag::Vector, 0x2000).unwrap();
        assert_eq!(s.extract(w), Extracted::Escape);
        assert_eq!(s.remove(w), 0x2000);
        assert!(s.escape_tags().contains(&Tag::Vector));
    }

    #[test]
    fn low3_exact_vector_and_escape_string() {
        let s = TagScheme::LowTag3;
        let w = s.insert(Tag::Vector, 0x2000).unwrap();
        assert_eq!(s.extract(w), Extracted::Exact(Tag::Vector));
        let w = s.insert(Tag::Str, 0x2000).unwrap();
        assert_eq!(s.extract(w), Extracted::Escape);
    }

    #[test]
    fn low3_requires_double_word_alignment() {
        let s = TagScheme::LowTag3;
        assert!(matches!(
            s.insert(Tag::Pair, 0x1004),
            Err(SchemeError::Misaligned { .. })
        ));
        assert!(s.insert(Tag::Pair, 0x1008).is_ok());
    }

    #[test]
    fn low_tags_keep_full_address_space() {
        assert_eq!(TagScheme::LowTag2.pointer_bits(), 32);
        assert_eq!(TagScheme::LowTag3.pointer_bits(), 32);
        assert_eq!(TagScheme::HighTag5.pointer_bits(), 27);
    }

    #[test]
    fn high6_is_arith_safe_and_others_are_not() {
        assert!(TagScheme::HighTag6.is_arith_safe());
        assert!(!TagScheme::HighTag5.is_arith_safe());
        assert!(!TagScheme::LowTag2.is_arith_safe());
        assert!(!TagScheme::LowTag3.is_arith_safe());
    }

    #[test]
    fn low_int_encoding_is_shifted() {
        for s in [TagScheme::LowTag2, TagScheme::LowTag3] {
            assert_eq!(s.make_int(3).unwrap(), 12);
            assert_eq!(s.int_value(12), Some(3));
            assert_eq!(s.make_int(-1).unwrap(), (-4i32) as u32);
            assert_eq!(s.int_value((-4i32) as u32), Some(-1));
        }
    }

    #[test]
    fn low3_even_and_odd_integer_tags() {
        let s = TagScheme::LowTag3;
        assert_eq!(s.make_int(2).unwrap() & 0b111, 0b000, "even int tag 000");
        assert_eq!(s.make_int(3).unwrap() & 0b111, 0b100, "odd int tag 100");
    }

    #[test]
    fn fold_displacement_matches_raw_tag() {
        assert_eq!(TagScheme::LowTag2.fold_displacement(Tag::Pair), Some(-1));
        assert_eq!(TagScheme::LowTag3.fold_displacement(Tag::Vector), Some(-5));
        assert_eq!(TagScheme::HighTag5.fold_displacement(Tag::Pair), None);
        assert_eq!(TagScheme::LowTag2.fold_displacement(Tag::Int), None);
    }

    #[test]
    fn data_too_wide_is_rejected_high() {
        let s = TagScheme::HighTag5;
        assert!(matches!(
            s.insert(Tag::Pair, 1 << 27),
            Err(SchemeError::DataTooWide { .. })
        ));
    }

    #[test]
    fn char_is_immediate_everywhere() {
        for s in ALL_SCHEMES {
            let w = s.insert(Tag::Char, 'A' as u32).unwrap();
            match s.extract(w) {
                Extracted::Exact(Tag::Char) | Extracted::Escape => {}
                other => panic!("char extraction produced {other:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = SchemeError::IntOutOfRange {
            value: 1 << 28,
            bits: 27,
        };
        assert!(e.to_string().contains("27-bit"));
    }
}
