//! Scheme- and hardware-aware emission of tag-operation instruction sequences.
//!
//! This module is the heart of the reproduction: for each tag scheme and hardware
//! configuration it emits exactly the sequences the paper costs out —
//!
//! - tag **insertion**: `shift+or` (2 cycles) under high tags, `ori` (1) under low
//!   tags, `or` with a preshifted register-resident tag (1) for the §3.1 ablation;
//! - tag **removal**: `and` with a register mask (1 cycle), or nothing at all when
//!   the tag folds into the displacement (low tags) or the memory system drops it
//!   (address-drop hardware);
//! - tag **extraction**: one `srl` (high) or `andi` (low);
//! - tag **checking**: extraction + compare-and-branch, or a single [`Insn::TagBr`]
//!   when the §6.1 hardware exists;
//! - the **integer test**: sign-extend-and-compare (3 cycles) under high tags
//!   (paper §4.1 method 2), low-bits test (2 cycles) under low tags.
//!
//! Every emitted instruction carries an [`Annot`] so the simulator can attribute
//! its cycles as the paper's figures do.

use mipsx::{
    Annot, Asm, CheckCat, Cond, HwConfig, Insn, IntTest, Label, Provenance, Reg, TagField,
    TagOpKind,
};
use tagword::{Tag, TagScheme};

use crate::front::CheckingMode;

/// How high-tag schemes test for an integer (paper §4.1). Low-tag schemes always
/// use their single two-bit test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntTestMethod {
    /// §4.1 method 2 (the paper's measurement default): sign-extend the data
    /// field and compare with the original — always 3 cycles.
    #[default]
    SignExtend,
    /// §4.1 method 1: extract the tag, compare with the positive-integer tag,
    /// then with the negative-integer tag — 2 cycles for positive numbers,
    /// 3 for negative ones.
    TagCompare,
}

impl IntTestMethod {
    /// The short name `lispc --int-test` and config names use: `signext` or
    /// `tagcmp`.
    pub fn name(self) -> &'static str {
        match self {
            IntTestMethod::SignExtend => "signext",
            IntTestMethod::TagCompare => "tagcmp",
        }
    }

    /// Parse a [`name`](Self::name), ignoring ASCII case.
    ///
    /// # Errors
    ///
    /// A usage-ready message naming the accepted methods.
    pub fn parse(text: &str) -> Result<IntTestMethod, String> {
        [IntTestMethod::SignExtend, IntTestMethod::TagCompare]
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(text))
            .ok_or_else(|| format!("unknown int-test method {text:?} (want signext or tagcmp)"))
    }
}

/// Emission context: the knobs that decide which sequence each tag operation gets.
#[derive(Debug, Clone, Copy)]
pub struct TagOps {
    /// The tag scheme.
    pub scheme: TagScheme,
    /// Hardware support present.
    pub hw: HwConfig,
    /// Checking mode (drives which checks exist at all).
    pub checking: CheckingMode,
    /// §3.1 ablation: keep a preshifted pair tag in [`Reg::Pt`].
    pub preshifted_pair_tag: bool,
    /// §4.1: which integer test high-tag schemes emit.
    pub int_test_method: IntTestMethod,
}

impl TagOps {
    /// Where the tag field lives, for [`Insn::TagBr`] and checked memory ops.
    pub fn field(&self) -> TagField {
        let bits = self.scheme.tag_bits();
        if self.scheme.is_high() {
            TagField {
                shift: (32 - bits) as u8,
                mask: (1 << bits) - 1,
            }
        } else {
            TagField {
                shift: 0,
                mask: (1 << bits) - 1,
            }
        }
    }

    /// The tag field restricted to what a *check* needs: under `LowTag3`, integers
    /// and the escape are identified by the low two bits only, so pair/symbol/
    /// vector/float checks use all three bits while int checks use two.
    pub fn int_field(&self) -> TagField {
        if self.scheme.is_high() {
            self.field()
        } else {
            TagField {
                shift: 0,
                mask: 0b11,
            }
        }
    }

    /// The hardware integer test for generic-arithmetic instructions.
    pub fn int_test(&self) -> IntTest {
        if self.scheme.is_high() {
            IntTest::SignExt((32 - self.scheme.tag_bits()) as u8)
        } else {
            IntTest::LowBitsZero(2)
        }
    }

    /// The raw tag value a check compares against for `tag` (exact or escape).
    pub fn check_value(&self, tag: Tag) -> u32 {
        self.scheme
            .raw_tag(tag)
            .or_else(|| self.scheme.escape_tag())
            .expect("pointer tags always have a raw or escape encoding")
    }

    /// Whether `tag` needs a header load to be fully checked (low-tag escape).
    pub fn needs_header_check(&self, tag: Tag) -> bool {
        !self.scheme.has_exact_tag(tag)
    }

    /// Whether explicit masking is unnecessary before using a tagged pointer as an
    /// address (paper §5): low-tag schemes on word-aligned memory, or high-tag
    /// schemes with address-drop hardware.
    #[allow(dead_code)] // exposed for analysis tooling and asserted in tests
    pub fn avoid_masking(&self) -> bool {
        self.scheme.free_address_masking()
            || self.hw.drop_high_address_bits >= self.scheme.tag_bits()
    }

    /// The pointer mask kept in [`Reg::Mask`].
    pub fn pointer_mask(&self) -> u32 {
        match self.scheme {
            TagScheme::HighTag5 => 0x07FF_FFFF,
            TagScheme::HighTag6 => 0x03FF_FFFF,
            TagScheme::LowTag2 => !0b11,
            TagScheme::LowTag3 => !0b111,
        }
    }

    /// The header type-code for the full check of an escape-encoded type.
    pub fn header_code(&self, tag: Tag) -> u32 {
        match tag {
            Tag::Vector => crate::layout::VEC_CODE,
            Tag::Float => crate::layout::FLOAT_CODE,
            _ => unreachable!("only vectors and floats are heap-boxed with headers"),
        }
    }

    /// Annotation helper: a checking-added op when `self.checking` is
    /// [`CheckingMode::Full`], otherwise a base op.
    #[allow(dead_code)] // convenience for downstream emitters
    pub fn check_annot(&self, op: TagOpKind, cat: CheckCat) -> Annot {
        Annot {
            tag_op: Some(op),
            cat,
            prov: Provenance::Checking,
        }
    }

    // --- address formation ------------------------------------------------------

    /// Prepare the tagged pointer in `src` for use as an address for an object of
    /// type `tag`. Returns the register to use as base and the displacement
    /// correction to add; emits the masking `and` (annotated as removal, with
    /// `annot`'s provenance) only when the configuration requires it.
    pub fn address(
        &self,
        asm: &mut Asm,
        src: Reg,
        scratch: Reg,
        tag: Tag,
        annot: Annot,
    ) -> (Reg, i32) {
        if self.scheme.free_address_masking() {
            let fold = self
                .scheme
                .fold_displacement(tag)
                .expect("low-tag pointer types always fold");
            (src, fold)
        } else if self.hw.drop_high_address_bits >= self.scheme.tag_bits() {
            // The memory system blanks the tag bits; use the tagged word directly.
            (src, 0)
        } else {
            asm.emit_annot(Insn::And(scratch, src, Reg::Mask), annot);
            (scratch, 0)
        }
    }

    /// Emit the full untag (mask) of `src` into `dst`, for non-address uses.
    #[allow(dead_code)] // convenience for downstream emitters
    pub fn untag(&self, asm: &mut Asm, dst: Reg, src: Reg, annot: Annot) {
        match self.scheme {
            TagScheme::HighTag5 | TagScheme::HighTag6 => {
                asm.emit_annot(Insn::And(dst, src, Reg::Mask), annot)
            }
            TagScheme::LowTag2 | TagScheme::LowTag3 => {
                asm.emit_annot(Insn::And(dst, src, Reg::Mask), annot)
            }
        }
    }

    // --- insertion ----------------------------------------------------------------

    /// Tag the raw pointer in `ptr` with `tag`, leaving the tagged word in `dst`
    /// (may equal `ptr`). Costs 2 cycles under high tags (build the shifted tag,
    /// then `or`), 1 under low tags, 1 with the preshifted pair-tag register.
    pub fn insert(&self, asm: &mut Asm, dst: Reg, ptr: Reg, scratch: Reg, tag: Tag, annot: Annot) {
        match self.scheme {
            TagScheme::HighTag5 | TagScheme::HighTag6 => {
                let shift = 32 - self.scheme.tag_bits();
                let raw = self.check_value(tag);
                if tag == Tag::Pair && self.preshifted_pair_tag {
                    asm.emit_annot(Insn::Or(dst, ptr, Reg::Pt), annot);
                } else {
                    asm.emit_annot(Insn::Li(scratch, (raw << shift) as i32), annot);
                    asm.emit_annot(Insn::Or(dst, ptr, scratch), annot);
                }
            }
            TagScheme::LowTag2 | TagScheme::LowTag3 => {
                let raw = self.check_value(tag);
                asm.emit_annot(Insn::Ori(dst, ptr, raw), annot);
            }
        }
    }

    // --- checking -------------------------------------------------------------------

    /// Emit a type check: fall through when `val` has type `tag`, branch to
    /// `error` otherwise. `scratch` must differ from `val`.
    #[allow(clippy::too_many_arguments)] // mirrors the machine operation's operands
    pub fn check_exact(
        &self,
        asm: &mut Asm,
        val: Reg,
        scratch: Reg,
        tag: Tag,
        error: Label,
        cat: CheckCat,
        prov: Provenance,
    ) {
        let extract = Annot {
            tag_op: Some(TagOpKind::Extract),
            cat,
            prov,
        };
        let check = Annot {
            tag_op: Some(TagOpKind::Check),
            cat,
            prov,
        };
        let field = self.field();
        let raw = self.check_value(tag);
        if self.hw.tag_branch {
            asm.with_annot(check, |a| {
                a.emit(Insn::TagBr {
                    rs: val,
                    field,
                    value: raw,
                    neq: true,
                    target: label_id(error),
                    squash: false,
                });
                a.nop();
                a.nop();
            });
        } else {
            asm.with_annot(extract, |a| {
                if self.scheme.is_high() {
                    a.emit(Insn::Srl(scratch, val, field.shift));
                } else {
                    a.emit(Insn::Andi(scratch, val, field.mask));
                }
            });
            asm.with_annot(check, |a| a.bri(Cond::Ne, scratch, raw as i32, error));
        }
        if self.needs_header_check(tag) {
            // Escape-encoded type: confirm via the object header.
            let (base, fold) = self.address(asm, val, scratch, tag, extract);
            asm.with_annot(check, |a| {
                a.ld(scratch, base, fold);
                a.emit(Insn::Andi(
                    scratch,
                    scratch,
                    (1 << crate::layout::HDR_LEN_SHIFT) - 1,
                ));
                a.bri(Cond::Ne, scratch, self.header_code(tag) as i32, error);
            });
        }
    }

    /// Emit an integer check: fall through when `val` is a fixnum, branch to
    /// `error` otherwise. 3 cycles under high tags with §4.1 method 2 (the
    /// default), 2–3 with method 1, 2 under low tags.
    pub fn check_int(
        &self,
        asm: &mut Asm,
        val: Reg,
        scratch: Reg,
        error: Label,
        cat: CheckCat,
        prov: Provenance,
    ) {
        let extract = Annot {
            tag_op: Some(TagOpKind::Extract),
            cat,
            prov,
        };
        let check = Annot {
            tag_op: Some(TagOpKind::Check),
            cat,
            prov,
        };
        if self.scheme.is_high() {
            let bits = self.scheme.tag_bits() as u8;
            if self.int_test_method == IntTestMethod::TagCompare {
                // §4.1 method 1: tag == 0 (positive) or tag == all-ones (negative).
                let neg_tag = (1u32 << bits) - 1;
                let ok = asm.new_label();
                asm.with_annot(extract, |a| a.emit(Insn::Srl(scratch, val, 32 - bits)));
                asm.with_annot(check, |a| {
                    a.bri(Cond::Eq, scratch, 0, ok);
                    a.bri(Cond::Ne, scratch, neg_tag as i32, error);
                });
                asm.bind(ok);
                return;
            }
            asm.with_annot(extract, |a| {
                a.emit(Insn::Sll(scratch, val, bits));
                a.emit(Insn::Sra(scratch, scratch, bits));
            });
            asm.with_annot(check, |a| a.br(Cond::Ne, scratch, val, error));
        } else if self.hw.tag_branch {
            asm.with_annot(check, |a| {
                a.emit(Insn::TagBr {
                    rs: val,
                    field: self.int_field(),
                    value: 0,
                    neq: true,
                    target: label_id(error),
                    squash: false,
                });
                a.nop();
                a.nop();
            });
        } else {
            asm.with_annot(extract, |a| a.emit(Insn::Andi(scratch, val, 0b11)));
            asm.with_annot(check, |a| a.bri(Cond::Ne, scratch, 0, error));
        }
    }

    /// Branch to `target` if `val` has type `tag` (`if_match`) or hasn't
    /// (`!if_match`). Used for source-level predicates in branch position.
    #[allow(clippy::too_many_arguments)]
    pub fn branch_type(
        &self,
        asm: &mut Asm,
        val: Reg,
        scratch: Reg,
        tag: Tag,
        target: Label,
        if_match: bool,
        cat: CheckCat,
        prov: Provenance,
    ) {
        let extract = Annot {
            tag_op: Some(TagOpKind::Extract),
            cat,
            prov,
        };
        let check = Annot {
            tag_op: Some(TagOpKind::Check),
            cat,
            prov,
        };
        let field = self.field();
        let raw = self.check_value(tag);
        if !self.needs_header_check(tag) {
            if self.hw.tag_branch {
                asm.with_annot(check, |a| {
                    a.emit(Insn::TagBr {
                        rs: val,
                        field,
                        value: raw,
                        neq: !if_match,
                        target: label_id(target),
                        squash: false,
                    });
                    a.nop();
                    a.nop();
                });
            } else {
                asm.with_annot(extract, |a| {
                    if self.scheme.is_high() {
                        a.emit(Insn::Srl(scratch, val, field.shift));
                    } else {
                        a.emit(Insn::Andi(scratch, val, field.mask));
                    }
                });
                let cond = if if_match { Cond::Eq } else { Cond::Ne };
                asm.with_annot(check, |a| a.bri(cond, scratch, raw as i32, target));
            }
            return;
        }
        // Escape-encoded type: tag says "escape", header says which.
        let no = asm.new_label();
        if self.hw.tag_branch {
            asm.with_annot(check, |a| {
                a.emit(Insn::TagBr {
                    rs: val,
                    field,
                    value: raw,
                    neq: true,
                    target: label_id(if if_match { no } else { target }),
                    squash: false,
                });
                a.nop();
                a.nop();
            });
        } else {
            asm.with_annot(extract, |a| {
                a.emit(Insn::Andi(scratch, val, field.mask));
            });
            asm.with_annot(check, |a| {
                a.bri(
                    Cond::Ne,
                    scratch,
                    raw as i32,
                    if if_match { no } else { target },
                )
            });
        }
        let (base, fold) = self.address(asm, val, scratch, tag, extract);
        asm.with_annot(check, |a| {
            a.ld(scratch, base, fold);
            a.emit(Insn::Andi(
                scratch,
                scratch,
                (1 << crate::layout::HDR_LEN_SHIFT) - 1,
            ));
            let cond = if if_match { Cond::Eq } else { Cond::Ne };
            a.bri(cond, scratch, self.header_code(tag) as i32, target);
        });
        asm.bind(no);
    }

    /// Branch to `target` if `val` is (`if_match`) / is not (`!if_match`) a fixnum.
    #[allow(clippy::too_many_arguments)]
    pub fn branch_int(
        &self,
        asm: &mut Asm,
        val: Reg,
        scratch: Reg,
        target: Label,
        if_match: bool,
        cat: CheckCat,
        prov: Provenance,
    ) {
        let extract = Annot {
            tag_op: Some(TagOpKind::Extract),
            cat,
            prov,
        };
        let check = Annot {
            tag_op: Some(TagOpKind::Check),
            cat,
            prov,
        };
        if self.scheme.is_high() {
            let bits = self.scheme.tag_bits() as u8;
            if self.int_test_method == IntTestMethod::TagCompare {
                let neg_tag = ((1u32 << bits) - 1) as i32;
                asm.with_annot(extract, |a| a.emit(Insn::Srl(scratch, val, 32 - bits)));
                if if_match {
                    asm.with_annot(check, |a| {
                        a.bri(Cond::Eq, scratch, 0, target);
                        a.bri(Cond::Eq, scratch, neg_tag, target);
                    });
                } else {
                    let no = asm.new_label();
                    asm.with_annot(check, |a| {
                        a.bri(Cond::Eq, scratch, 0, no);
                        a.bri(Cond::Ne, scratch, neg_tag, target);
                    });
                    asm.bind(no);
                }
                return;
            }
            asm.with_annot(extract, |a| {
                a.emit(Insn::Sll(scratch, val, bits));
                a.emit(Insn::Sra(scratch, scratch, bits));
            });
            let cond = if if_match { Cond::Eq } else { Cond::Ne };
            asm.with_annot(check, |a| a.br(cond, scratch, val, target));
        } else if self.hw.tag_branch {
            asm.with_annot(check, |a| {
                a.emit(Insn::TagBr {
                    rs: val,
                    field: self.int_field(),
                    value: 0,
                    neq: !if_match,
                    target: label_id(target),
                    squash: false,
                });
                a.nop();
                a.nop();
            });
        } else {
            asm.with_annot(extract, |a| a.emit(Insn::Andi(scratch, val, 0b11)));
            let cond = if if_match { Cond::Eq } else { Cond::Ne };
            asm.with_annot(check, |a| a.bri(cond, scratch, 0, target));
        }
    }
}

/// Recover the raw label id (the assembler's `Label` is opaque outside `mipsx`, so
/// we round-trip through a tiny helper there).
fn label_id(l: Label) -> u32 {
    l.id()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx::{Executor, FastCpu, Outcome};

    fn ops(scheme: TagScheme, hw: HwConfig) -> TagOps {
        TagOps {
            scheme,
            hw,
            checking: CheckingMode::Full,
            preshifted_pair_tag: false,
            int_test_method: IntTestMethod::default(),
        }
    }

    fn run(mut asm: Asm, hw: HwConfig, data: &[(u32, u32)]) -> Outcome {
        mipsx::sched::schedule(&mut asm);
        let mut prog = asm.finish().unwrap();
        prog.data.extend_from_slice(data);
        mipsx::verify::verify(&prog).unwrap();
        FastCpu::new(&prog, hw, 1 << 20)
            .unwrap()
            .run(100_000)
            .unwrap()
    }

    fn setup(asm: &mut Asm, t: &TagOps) {
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.li(Reg::Mask, t.pointer_mask() as i32);
    }

    #[test]
    fn insert_costs_match_paper() {
        // High tags: 2 instructions; low tags: 1.
        for (scheme, want) in [
            (TagScheme::HighTag5, 2),
            (TagScheme::HighTag6, 2),
            (TagScheme::LowTag2, 1),
            (TagScheme::LowTag3, 1),
        ] {
            let t = ops(scheme, HwConfig::plain());
            let mut asm = Asm::new();
            setup(&mut asm, &t);
            let before = asm.len();
            t.insert(&mut asm, Reg::A0, Reg::A1, Reg::X1, Tag::Pair, Annot::NONE);
            assert_eq!(asm.len() - before, want, "{scheme}");
        }
        // Preshifted pair tag: 1 instruction under high tags (§3.1).
        let t = TagOps {
            preshifted_pair_tag: true,
            ..ops(TagScheme::HighTag5, HwConfig::plain())
        };
        let mut asm = Asm::new();
        setup(&mut asm, &t);
        let before = asm.len();
        t.insert(&mut asm, Reg::A0, Reg::A1, Reg::X1, Tag::Pair, Annot::NONE);
        assert_eq!(asm.len() - before, 1);
    }

    #[test]
    fn insert_round_trips_through_simulator() {
        for scheme in tagword::ALL_SCHEMES {
            let t = ops(scheme, HwConfig::plain());
            let mut asm = Asm::new();
            setup(&mut asm, &t);
            asm.li(Reg::A1, 0x1000);
            if t.preshifted_pair_tag {
                unreachable!();
            }
            t.insert(&mut asm, Reg::A0, Reg::A1, Reg::X1, Tag::Pair, Annot::NONE);
            asm.halt(Reg::A0);
            let o = run(asm, HwConfig::plain(), &[]);
            let expect = scheme.insert(Tag::Pair, 0x1000).unwrap();
            assert_eq!(o.halt_code as u32, expect, "{scheme}");
        }
    }

    #[test]
    fn address_needs_no_mask_under_low_tags() {
        for scheme in [TagScheme::LowTag2, TagScheme::LowTag3] {
            let t = ops(scheme, HwConfig::plain());
            let mut asm = Asm::new();
            setup(&mut asm, &t);
            let before = asm.len();
            let (base, fold) = t.address(&mut asm, Reg::A0, Reg::X0, Tag::Pair, Annot::NONE);
            assert_eq!(asm.len(), before, "no instructions emitted");
            assert_eq!(base, Reg::A0);
            assert_eq!(fold, -1, "pair tag folds into the displacement");
        }
    }

    #[test]
    fn address_masks_under_plain_high_tags_only() {
        let t = ops(TagScheme::HighTag5, HwConfig::plain());
        let mut asm = Asm::new();
        setup(&mut asm, &t);
        let before = asm.len();
        let (base, _) = t.address(&mut asm, Reg::A0, Reg::X0, Tag::Pair, Annot::NONE);
        assert_eq!(asm.len() - before, 1);
        assert_eq!(base, Reg::X0);

        let t = ops(TagScheme::HighTag5, HwConfig::with_address_drop(5));
        let mut asm = Asm::new();
        setup(&mut asm, &t);
        let before = asm.len();
        let (base, _) = t.address(&mut asm, Reg::A0, Reg::X0, Tag::Pair, Annot::NONE);
        assert_eq!(asm.len(), before, "drop hardware: no mask instruction");
        assert_eq!(base, Reg::A0);
    }

    #[test]
    fn check_int_runs_correctly_everywhere() {
        for scheme in tagword::ALL_SCHEMES {
            for hw in [HwConfig::plain(), HwConfig::with_tag_branch()] {
                let t = ops(scheme, hw);
                // value that IS an int → reach halt(1)
                let mut asm = Asm::new();
                setup(&mut asm, &t);
                let err = asm.new_label();
                asm.li(Reg::A0, scheme.make_int(-3).unwrap() as i32);
                t.check_int(
                    &mut asm,
                    Reg::A0,
                    Reg::X0,
                    err,
                    CheckCat::Arith,
                    Provenance::Checking,
                );
                asm.li(Reg::A1, 1);
                asm.halt(Reg::A1);
                asm.bind(err);
                asm.li(Reg::A1, -1);
                asm.halt(Reg::A1);
                assert_eq!(run(asm, hw, &[]).halt_code, 1, "{scheme} int accepted");

                // value that is NOT an int (a pair) → reach error
                let mut asm = Asm::new();
                setup(&mut asm, &t);
                let err = asm.new_label();
                let pair = scheme.insert(Tag::Pair, 0x1000).unwrap();
                asm.li(Reg::A0, pair as i32);
                t.check_int(
                    &mut asm,
                    Reg::A0,
                    Reg::X0,
                    err,
                    CheckCat::Arith,
                    Provenance::Checking,
                );
                asm.li(Reg::A1, 1);
                asm.halt(Reg::A1);
                asm.bind(err);
                asm.li(Reg::A1, -1);
                asm.halt(Reg::A1);
                assert_eq!(run(asm, hw, &[]).halt_code, -1, "{scheme} non-int rejected");
            }
        }
    }

    #[test]
    fn check_exact_with_escape_types() {
        // A vector under LowTag2 is escape-encoded; the check must read the header.
        let scheme = TagScheme::LowTag2;
        let t = ops(scheme, HwConfig::plain());
        let vec_addr = 0x2000u32;
        let data = [(vec_addr, crate::layout::header(crate::layout::VEC_CODE, 3))];
        let w = scheme.insert(Tag::Vector, vec_addr).unwrap();

        let mut asm = Asm::new();
        setup(&mut asm, &t);
        let err = asm.new_label();
        asm.li(Reg::A0, w as i32);
        t.check_exact(
            &mut asm,
            Reg::A0,
            Reg::X0,
            Tag::Vector,
            err,
            CheckCat::Vector,
            Provenance::Checking,
        );
        asm.li(Reg::A1, 1);
        asm.halt(Reg::A1);
        asm.bind(err);
        asm.li(Reg::A1, -1);
        asm.halt(Reg::A1);
        // Scheduling pads the header-load delay.
        mipsx::sched::schedule(&mut asm);
        let mut prog = asm.finish().unwrap();
        prog.data.extend_from_slice(&data);
        mipsx::verify::verify(&prog).unwrap();
        let o = FastCpu::new(&prog, HwConfig::plain(), 1 << 20)
            .unwrap()
            .run(100_000);
        match o {
            Ok(o) => assert_eq!(o.halt_code, 1),
            Err(e) => panic!("vector check failed: {e}"),
        }
    }

    #[test]
    fn branch_type_both_polarities() {
        for scheme in tagword::ALL_SCHEMES {
            let t = ops(scheme, HwConfig::plain());
            let pair = scheme.insert(Tag::Pair, 0x1000).unwrap();
            for (if_match, expect) in [(true, 7), (false, 1)] {
                let mut asm = Asm::new();
                setup(&mut asm, &t);
                let target = asm.new_label();
                asm.li(Reg::A0, pair as i32);
                t.branch_type(
                    &mut asm,
                    Reg::A0,
                    Reg::X0,
                    Tag::Pair,
                    target,
                    if_match,
                    CheckCat::NotChecking,
                    Provenance::Base,
                );
                asm.li(Reg::A1, 1);
                asm.halt(Reg::A1); // fallthrough
                asm.bind(target);
                asm.li(Reg::A1, 7);
                asm.halt(Reg::A1); // branch taken
                assert_eq!(
                    run(asm, HwConfig::plain(), &[]).halt_code,
                    expect,
                    "{scheme} if_match={if_match}"
                );
            }
        }
    }

    #[test]
    fn tag_branch_hardware_shrinks_checks() {
        let plain = ops(TagScheme::HighTag5, HwConfig::plain());
        let hw = ops(TagScheme::HighTag5, HwConfig::with_tag_branch());
        let count = |t: &TagOps| {
            let mut asm = Asm::new();
            let e = asm.here("e");
            asm.set_entry(e);
            let err = asm.new_label();
            t.check_exact(
                &mut asm,
                Reg::A0,
                Reg::X0,
                Tag::Pair,
                err,
                CheckCat::List,
                Provenance::Checking,
            );
            asm.bind(err);
            // count non-nop instructions
            asm.len()
        };
        assert!(count(&hw) < count(&plain), "TagBr eliminates the extract");
    }
}
