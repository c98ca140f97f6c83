//! Hardware-support configuration (the rows of the paper's Table 2).

use crate::insn::Insn;
use crate::program::Program;

/// Which memory accesses get parallel tag checking (paper §6.2.1, Table 2 rows 5–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelCheck {
    /// No checked loads/stores.
    #[default]
    None,
    /// Checked accesses for list cells only (row 5; also the SPUR configuration).
    Lists,
    /// Checked accesses for all data types — lists, vectors, structures (row 6).
    All,
}

/// The tag-handling hardware present in the simulated processor.
///
/// [`HwConfig::plain`] is a stock RISC (the paper's baseline). The other
/// constructors correspond to Table 2's rows; arbitrary combinations can be built
/// with struct update syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HwConfig {
    /// Number of *high* address bits the memory system ignores (row 1's hardware
    /// variant: "special hardware that would blank out the 5 most significant bits
    /// of each address"). 0 disables.
    pub drop_high_address_bits: u32,
    /// Whether the [`crate::Insn::TagBr`] conditional branch exists (row 2).
    pub tag_branch: bool,
    /// Parallel tag checking on memory accesses (rows 5–6).
    pub parallel_check: ParallelCheck,
    /// Whether [`crate::Insn::AddG`]/[`crate::Insn::SubG`] exist (row 4).
    pub generic_arith: bool,
    /// Cycles charged when a checked instruction traps to its software path.
    pub trap_penalty: u32,
    /// Cycles for a multiply (MIPS-X used multiply-step sequences; we charge a
    /// fixed cost).
    pub mul_cycles: u32,
    /// Cycles for a divide or remainder.
    pub div_cycles: u32,
    /// Cycles for a floating-point operation.
    pub fp_cycles: u32,
}

impl HwConfig {
    /// A stock RISC with no tag support — the paper's baseline processor.
    pub fn plain() -> Self {
        HwConfig {
            drop_high_address_bits: 0,
            tag_branch: false,
            parallel_check: ParallelCheck::None,
            generic_arith: false,
            trap_penalty: 20,
            mul_cycles: 8,
            div_cycles: 16,
            fp_cycles: 4,
        }
    }

    /// Row 1 (hardware flavour): loads/stores ignore the top `bits` address bits.
    pub fn with_address_drop(bits: u32) -> Self {
        HwConfig {
            drop_high_address_bits: bits,
            ..Self::plain()
        }
    }

    /// Row 2: the tag-field conditional branch.
    pub fn with_tag_branch() -> Self {
        HwConfig {
            tag_branch: true,
            ..Self::plain()
        }
    }

    /// Row 4: trap-based generic arithmetic.
    pub fn with_generic_arith() -> Self {
        HwConfig {
            generic_arith: true,
            ..Self::plain()
        }
    }

    /// Rows 5/6: parallel checked memory access.
    pub fn with_parallel_check(which: ParallelCheck) -> Self {
        HwConfig {
            parallel_check: which,
            ..Self::plain()
        }
    }

    /// Row 7: the maximum support addable to MIPS-X without reorganising it —
    /// address dropping, tag branch, generic arithmetic, and checked accesses for
    /// all types.
    pub fn maximal(drop_bits: u32) -> Self {
        HwConfig {
            drop_high_address_bits: drop_bits,
            tag_branch: true,
            parallel_check: ParallelCheck::All,
            generic_arith: true,
            ..Self::plain()
        }
    }

    /// The SPUR-like configuration of §7: row 7 but with checked accesses for
    /// lists only.
    pub fn spur(drop_bits: u32) -> Self {
        HwConfig {
            parallel_check: ParallelCheck::Lists,
            ..Self::maximal(drop_bits)
        }
    }

    /// The mask applied to every effective data address: the top
    /// [`drop_high_address_bits`](Self::drop_high_address_bits) are cleared, and the
    /// bottom two bits are always dropped because memory is word-aligned (as on
    /// MIPS-X, paper §5.2).
    pub fn address_mask(&self) -> u32 {
        let high = if self.drop_high_address_bits == 0 {
            u32::MAX
        } else {
            u32::MAX >> self.drop_high_address_bits
        };
        high & !0b11
    }

    /// The hardware as `prog` can observe it: each feature gate whose
    /// instructions appear nowhere in the code, dead code included, is
    /// cleared — [`tag_branch`](Self::tag_branch) without a
    /// [`Insn::TagBr`], [`parallel_check`](Self::parallel_check) without an
    /// [`Insn::LdChk`] or [`Insn::StChk`], [`generic_arith`](Self::generic_arith)
    /// without an [`Insn::AddG`] or [`Insn::SubG`]. Every other field is
    /// kept. A gate is only ever consulted at an instruction that needs it,
    /// so both executors give the same outcome, or the same
    /// [`SimError::MissingHardware`](crate::SimError::MissingHardware), under
    /// `self` and under the result.
    pub fn as_seen_by(&self, prog: &Program) -> HwConfig {
        let (mut tag_branch, mut checked, mut generic) = (false, false, false);
        for insn in &prog.insns {
            match insn {
                Insn::TagBr { .. } => tag_branch = true,
                Insn::LdChk { .. } | Insn::StChk { .. } => checked = true,
                Insn::AddG { .. } | Insn::SubG { .. } => generic = true,
                _ => {}
            }
        }
        HwConfig {
            tag_branch: self.tag_branch && tag_branch,
            parallel_check: if checked {
                self.parallel_check
            } else {
                ParallelCheck::None
            },
            generic_arith: self.generic_arith && generic,
            ..*self
        }
    }

    /// The named level `name` for a scheme with `tag_bits` tag bits
    /// (`maximal` and `spur` drop that many address bits), or `None` for a
    /// name not in [`HW_LEVELS`].
    fn level(name: &str, tag_bits: u32) -> Option<HwConfig> {
        match name {
            "plain" => Some(Self::plain()),
            "tagbr" => Some(Self::with_tag_branch()),
            "genarith" => Some(Self::with_generic_arith()),
            "maximal" => Some(Self::maximal(tag_bits)),
            "spur" => Some(Self::spur(tag_bits)),
            _ => None,
        }
    }

    /// The hardware's name under a scheme with `tag_bits` tag bits: the
    /// named level from [`HW_LEVELS`] the hardware equals, if any, and
    /// otherwise its features joined by `+` in the fixed order
    /// `drop<N>+tagbr+genarith+chklists|chkall`, e.g. `drop5+tagbr` for
    /// Table 2's row 3. [`parse`](Self::parse) inverts it.
    ///
    /// The cost fields (`trap_penalty`, `mul_cycles`, `div_cycles`,
    /// `fp_cycles`) are not spelled: the name describes the hardware as if
    /// they held their [`plain`](Self::plain) values, as they do in every
    /// configuration the study and its tools build.
    pub fn name(&self, tag_bits: u32) -> String {
        let spelled = HwConfig {
            drop_high_address_bits: self.drop_high_address_bits,
            tag_branch: self.tag_branch,
            parallel_check: self.parallel_check,
            generic_arith: self.generic_arith,
            ..Self::plain()
        };
        HW_LEVELS
            .into_iter()
            .find(|l| Self::level(l, tag_bits) == Some(spelled))
            .map_or_else(|| self.features().join("+"), str::to_string)
    }

    /// The features present, in name order.
    fn features(&self) -> Vec<String> {
        let mut features = Vec::new();
        if self.drop_high_address_bits != 0 {
            features.push(format!("drop{}", self.drop_high_address_bits));
        }
        for (on, feature) in [
            (self.tag_branch, "tagbr"),
            (self.generic_arith, "genarith"),
            (self.parallel_check == ParallelCheck::Lists, "chklists"),
            (self.parallel_check == ParallelCheck::All, "chkall"),
        ] {
            if on {
                features.push(feature.to_string());
            }
        }
        features
    }

    /// Parse a [`name`](Self::name) for a scheme with `tag_bits` tag bits,
    /// ignoring ASCII case: a named level, or `+`-joined features in any
    /// order, each at most once. `drop<N>` takes `N` in `1..=31`, the widths
    /// [`address_mask`](Self::address_mask) can shift by.
    ///
    /// # Errors
    ///
    /// A usage-ready message for an unknown name or feature, a repeated
    /// feature, or an address drop out of range.
    pub fn parse(text: &str, tag_bits: u32) -> Result<HwConfig, String> {
        let lower = text.to_ascii_lowercase();
        if let Some(hw) = Self::level(&lower, tag_bits) {
            return Ok(hw);
        }
        let features: Vec<&str> = lower.split('+').collect();
        let mut hw = Self::plain();
        for &feature in &features {
            match feature {
                "tagbr" => hw.tag_branch = true,
                "genarith" => hw.generic_arith = true,
                "chklists" => hw.parallel_check = ParallelCheck::Lists,
                "chkall" => hw.parallel_check = ParallelCheck::All,
                _ => {
                    let digits = feature
                        .strip_prefix("drop")
                        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
                        .ok_or_else(|| {
                            format!(
                                "unknown hardware level {text:?} (want one of: {}, \
                                 or features drop<N>+tagbr+genarith+chklists|chkall)",
                                HW_LEVELS.join(", ")
                            )
                        })?;
                    hw.drop_high_address_bits = digits
                        .parse()
                        .ok()
                        .filter(|n| (1..32).contains(n))
                        .ok_or_else(|| {
                            format!(
                                "address drop of {digits} bits in hardware {text:?} is out of \
                                 range (want drop1 to drop31)"
                            )
                        })?;
                }
            }
        }
        // Every feature sets its own field, so a repeated one (or two
        // parallel-check widths) leaves fewer features than were listed.
        if hw.features().len() != features.len() {
            return Err(format!("hardware {text:?} repeats a feature"));
        }
        Ok(hw)
    }
}

/// The named hardware levels, in the order [`HwConfig::name`] tries them.
pub const HW_LEVELS: [&str; 5] = ["plain", "tagbr", "genarith", "maximal", "spur"];

impl Default for HwConfig {
    fn default() -> Self {
        Self::plain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_has_no_support() {
        let hw = HwConfig::plain();
        assert_eq!(hw.drop_high_address_bits, 0);
        assert!(!hw.tag_branch);
        assert_eq!(hw.parallel_check, ParallelCheck::None);
        assert!(!hw.generic_arith);
    }

    #[test]
    fn address_mask_drops_alignment_and_high_bits() {
        assert_eq!(HwConfig::plain().address_mask(), !0b11);
        assert_eq!(HwConfig::with_address_drop(5).address_mask(), 0x07FF_FFFC);
    }

    #[test]
    fn maximal_enables_everything() {
        let hw = HwConfig::maximal(5);
        assert!(hw.tag_branch && hw.generic_arith);
        assert_eq!(hw.parallel_check, ParallelCheck::All);
        assert_eq!(hw.drop_high_address_bits, 5);
        assert_eq!(HwConfig::spur(5).parallel_check, ParallelCheck::Lists);
    }

    #[test]
    fn names_are_levels_or_feature_lists() {
        for level in HW_LEVELS {
            let hw = HwConfig::level(level, 5).unwrap();
            assert_eq!(hw.name(5), level);
            assert_eq!(HwConfig::parse(level, 5), Ok(hw));
        }
        let row3 = HwConfig {
            tag_branch: true,
            ..HwConfig::with_address_drop(5)
        };
        assert_eq!(row3.name(5), "drop5+tagbr");
        assert_eq!(HwConfig::maximal(5).name(2), "drop5+tagbr+genarith+chkall");
        assert_eq!(HwConfig::maximal(5).name(5), "maximal");
        assert_eq!(
            HwConfig::with_parallel_check(ParallelCheck::Lists).name(5),
            "chklists"
        );
        assert_eq!(HwConfig::parse("TagBr+DROP5", 5), Ok(row3));
        // Costs are not spelled.
        let slow_traps = HwConfig {
            trap_penalty: 99,
            ..HwConfig::plain()
        };
        assert_eq!(slow_traps.name(5), "plain");
    }

    #[test]
    fn bad_hardware_names_are_described() {
        for (text, want) in [
            ("warp", "unknown hardware level \"warp\""),
            ("tagbr+", "unknown hardware level"),
            ("drop", "unknown hardware level"),
            ("drop-1", "unknown hardware level"),
            ("drop0", "address drop of 0 bits"),
            ("drop32", "out of range"),
            ("drop18446744073709551616", "out of range"),
            ("tagbr+tagbr", "repeats a feature"),
            ("chklists+chkall", "repeats a feature"),
            ("drop5+drop6", "repeats a feature"),
        ] {
            let err = HwConfig::parse(text, 5).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
        assert_eq!(
            HwConfig::parse("drop31", 5),
            Ok(HwConfig::with_address_drop(31))
        );
    }

    /// A `TagBr` that only dead code holds still keeps the `tag_branch`
    /// gate: predecode rejects it under hardware without the gate, so
    /// clearing the gate would turn a run into an error. A gate the code
    /// never names is cleared.
    #[test]
    fn as_seen_by_keeps_gates_dead_code_names() {
        use crate::asm::Asm;
        use crate::exec::{DecodedProgram, SimError};
        use crate::insn::TagField;
        use crate::reg::Reg;

        let mut asm = Asm::new();
        let e = asm.here("entry");
        asm.set_entry(e);
        asm.halt(Reg::Zero);
        asm.emit(Insn::TagBr {
            rs: Reg::A0,
            field: TagField {
                shift: 27,
                mask: 0x1F,
            },
            value: 0,
            neq: false,
            target: e.id(),
            squash: false,
        });
        asm.nop();
        asm.nop();
        let prog = asm.finish().unwrap();

        let seen = HwConfig::maximal(5).as_seen_by(&prog);
        assert_eq!(
            seen,
            HwConfig {
                generic_arith: false,
                parallel_check: ParallelCheck::None,
                ..HwConfig::maximal(5)
            },
            "the unnamed gates are cleared, the address drop is kept"
        );
        assert!(DecodedProgram::decode(&prog, seen).is_ok());

        let plain = HwConfig::plain();
        assert_eq!(plain.as_seen_by(&prog), plain);
        let missing = SimError::MissingHardware {
            pc: 1,
            feature: "tag branch",
        };
        assert_eq!(DecodedProgram::decode(&prog, plain).unwrap_err(), missing);
        assert_eq!(
            DecodedProgram::decode(&prog, plain.as_seen_by(&prog)).unwrap_err(),
            missing
        );
    }
}
