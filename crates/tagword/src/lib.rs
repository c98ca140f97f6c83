//! Tagged-word representations for dynamically typed language runtimes.
//!
//! This crate implements the tag-implementation schemes studied in Steenkiste &
//! Hennessy, *Tags and Type Checking in LISP: Hardware and Software Approaches*
//! (ASPLOS 1987), as a standalone library:
//!
//! - [`TagScheme::HighTag5`] — the straightforward PSL-on-MIPS-X scheme: a 5-bit tag
//!   in the most significant bits, 27-bit data, integers encoded so that a short
//!   integer *is* its two's-complement machine representation (paper §2.1).
//! - [`TagScheme::HighTag6`] — the arithmetic-safe 6-bit encoding in which the sum of
//!   two non-integer tags can never masquerade as an integer tag, so a generic add
//!   needs only one type check, on the result (paper §4.2).
//! - [`TagScheme::LowTag2`] — tag in the two low-order bits; word-aligned accesses
//!   drop them for free, eliminating tag removal on memory access (paper §5.2).
//! - [`TagScheme::LowTag3`] — tag in the three low-order bits with even/odd integers
//!   at `000`/`100` and double-word-aligned pointer objects (paper §5.2; the scheme
//!   Lucid Common Lisp used).
//!
//! # Example
//!
//! ```
//! use tagword::{Extracted, TagScheme, Tag, Word};
//!
//! let scheme = TagScheme::HighTag5;
//! let w: Word = scheme.insert(Tag::Pair, 0x1234).unwrap();
//! assert_eq!(scheme.extract(w), Extracted::Exact(Tag::Pair));
//! assert_eq!(scheme.remove(w), 0x1234);
//! // Integers are their own machine representation under HighTag5:
//! assert_eq!(scheme.make_int(-7).unwrap(), (-7i32) as u32);
//! assert_eq!(scheme.int_value(scheme.make_int(-7).unwrap()), Some(-7));
//! ```

#![deny(missing_docs)]

mod scheme;
mod tag;

pub use scheme::{Extracted, SchemeError, TagScheme, ALL_SCHEMES};
pub use tag::{Tag, ALL_TAGS};

/// A 32-bit machine word carrying a tagged Lisp item.
pub type Word = u32;
