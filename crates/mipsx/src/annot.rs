//! Per-instruction annotations: which tag operation a cycle belongs to.
//!
//! The paper's figures decompose execution time by tag operation (Figure 1), by
//! checking category (Table 1), and by whether an operation exists only because
//! run-time checking is enabled (Figure 1's dark histogram). The code generator
//! tags every instruction it emits with an [`Annot`]; the simulator accumulates
//! cycles per annotation.

/// Which primitive tag operation an instruction implements (paper §2.1).
/// Declared in [`ALL_TAG_OPS`] order, which `op as usize` indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagOpKind {
    /// Tag insertion: constructing a tagged item.
    Insert,
    /// Tag removal: masking the tag to use the datum/pointer.
    Remove,
    /// Tag extraction: isolating the tag for comparison.
    Extract,
    /// Tag checking: the compare-and-branch after an extraction (plus its delay
    /// slots, which the paper charges to checking).
    Check,
    /// Generic-arithmetic support beyond the plain check: type dispatch, the
    /// out-of-line general routine, overflow handling.
    Generic,
}

/// All tag-operation kinds, in report order.
pub const ALL_TAG_OPS: [TagOpKind; 5] = [
    TagOpKind::Insert,
    TagOpKind::Remove,
    TagOpKind::Extract,
    TagOpKind::Check,
    TagOpKind::Generic,
];

/// The run-time-checking category an instruction belongs to (Table 1's columns).
/// Declared in [`ALL_CHECK_CATS`] order, which `cat as usize` indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckCat {
    /// Not part of run-time checking.
    NotChecking,
    /// Checking on arithmetic (operand type + overflow).
    Arith,
    /// Checking on vector accesses (type, index type, bounds).
    Vector,
    /// Checking on list (car/cdr/rplaca/rplacd) and symbol operations.
    List,
}

/// All checking categories, in report order.
pub const ALL_CHECK_CATS: [CheckCat; 4] = [
    CheckCat::NotChecking,
    CheckCat::Arith,
    CheckCat::Vector,
    CheckCat::List,
];

/// Whether an instruction is part of the base program or was added by enabling
/// full run-time checking. `prov as usize` is 0 for `Base`, 1 for `Checking`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Present regardless of the checking mode (source-level tests, data access).
    Base,
    /// Added by full run-time checking (would be absent with checking off).
    Checking,
}

/// The annotation attached to every emitted instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Annot {
    /// Tag operation this instruction implements, if any.
    pub tag_op: Option<TagOpKind>,
    /// Checking category.
    pub cat: CheckCat,
    /// Base program or checking-added.
    pub prov: Provenance,
}

impl Annot {
    /// An unannotated (plain computation) instruction.
    pub const NONE: Annot = Annot {
        tag_op: None,
        cat: CheckCat::NotChecking,
        prov: Provenance::Base,
    };

    /// A base-program tag operation.
    pub fn base(op: TagOpKind) -> Annot {
        Annot {
            tag_op: Some(op),
            cat: CheckCat::NotChecking,
            prov: Provenance::Base,
        }
    }

    /// A tag operation that exists because run-time checking is on, in category
    /// `cat`.
    pub fn checking(op: TagOpKind, cat: CheckCat) -> Annot {
        Annot {
            tag_op: Some(op),
            cat,
            prov: Provenance::Checking,
        }
    }
}

impl Default for Annot {
    fn default() -> Self {
        Annot::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Annot::default(), Annot::NONE);
        let a = Annot::base(TagOpKind::Remove);
        assert_eq!(a.tag_op, Some(TagOpKind::Remove));
        assert_eq!(a.prov, Provenance::Base);
        let c = Annot::checking(TagOpKind::Check, CheckCat::List);
        assert_eq!(c.prov, Provenance::Checking);
        assert_eq!(c.cat, CheckCat::List);
    }
}
