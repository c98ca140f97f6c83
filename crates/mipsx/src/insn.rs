//! The instruction set.

use std::fmt;

use crate::reg::{Reg, RegSet};

/// Condition codes for compare-and-branch instructions (signed comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Le,
    Gt,
}

impl Cond {
    /// Evaluate the condition on two register values (signed).
    pub fn eval(self, a: u32, b: u32) -> bool {
        let (a, b) = (a as i32, b as i32);
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
        }
    }

    /// The negated condition.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
        }
    }
}

/// A bit-field specification for tag-aware instructions: the tag value of a word is
/// `(word >> shift) & mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagField {
    /// Right-shift amount to bring the tag to bit 0.
    pub shift: u8,
    /// Mask applied after shifting.
    pub mask: u32,
}

impl TagField {
    /// Extract the tag value of `word`.
    pub fn extract(self, word: u32) -> u32 {
        (word >> self.shift) & self.mask
    }
}

/// The hardware integer test used by generic-arithmetic instructions.
///
/// High-tag schemes identify an integer by sign-extending the data field and
/// comparing with the original; low-tag schemes test the low bits for zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntTest {
    /// Sign-extend the low `bits` and compare with the original word.
    SignExt(u8),
    /// The low `bits` must be zero.
    LowBitsZero(u8),
}

impl IntTest {
    /// Whether `word` passes the integer test.
    pub fn is_int(self, word: u32) -> bool {
        match self {
            IntTest::SignExt(bits) => {
                let shift = 32 - u32::from(bits);
                ((((word << shift) as i32) >> shift) as u32) == word
            }
            IntTest::LowBitsZero(bits) => word & ((1 << bits) - 1) == 0,
        }
    }
}

/// Floating-point operations for [`Insn::Fop`], over f32 bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpOp {
    Add,
    Sub,
    Mul,
    Div,
    /// `rd = (rs < rt) ? 1 : 0`.
    Lt,
    /// `rd = f32(rs as i32)` — integer-to-float conversion (rt ignored).
    FromInt,
}

impl FpOp {
    /// Apply the operation to two f32 bit patterns, producing a result bit
    /// pattern (or a 0/1 flag for comparisons).
    pub fn apply(self, a: u32, b: u32) -> u32 {
        let (x, y) = (f32::from_bits(a), f32::from_bits(b));
        match self {
            FpOp::Add => (x + y).to_bits(),
            FpOp::Sub => (x - y).to_bits(),
            FpOp::Mul => (x * y).to_bits(),
            FpOp::Div => (x / y).to_bits(),
            FpOp::Lt => u32::from(x < y),
            FpOp::FromInt => (a as i32 as f32).to_bits(),
        }
    }
}

/// Output channel selector for the [`Insn::Write`] debug/IO instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// Append the register's low byte as a character.
    Char,
    /// Append the register value formatted as a signed decimal integer.
    Int,
}

/// One machine instruction.
///
/// Branch and jump `target`s are label ids while a program is being assembled and
/// instruction indices afterwards; [`crate::Asm::finish`] resolves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    // --- ALU, register-register ---
    /// `rd = rs + rt` (wrapping).
    Add(Reg, Reg, Reg),
    /// `rd = rs - rt` (wrapping).
    Sub(Reg, Reg, Reg),
    /// `rd = rs & rt`.
    And(Reg, Reg, Reg),
    /// `rd = rs | rt`.
    Or(Reg, Reg, Reg),
    /// `rd = rs ^ rt`.
    Xor(Reg, Reg, Reg),
    /// `rd = (rs < rt) ? 1 : 0`, signed.
    Slt(Reg, Reg, Reg),

    // --- ALU, immediate ---
    /// `rd = rs + imm` (wrapping).
    Addi(Reg, Reg, i32),
    /// `rd = rs & imm` (imm zero-extended).
    Andi(Reg, Reg, u32),
    /// `rd = rs | imm`.
    Ori(Reg, Reg, u32),
    /// `rd = rs ^ imm`.
    Xori(Reg, Reg, u32),
    /// `rd = rs << sh`, logical.
    Sll(Reg, Reg, u8),
    /// `rd = rs >> sh`, logical.
    Srl(Reg, Reg, u8),
    /// `rd = rs >> sh`, arithmetic.
    Sra(Reg, Reg, u8),
    /// Load a 32-bit constant. One cycle (MIPS-X builds most constants in one
    /// instruction; we do not charge extra for wide ones — masks and tags are kept
    /// in registers by the code generator anyway).
    Li(Reg, i32),
    /// Register move (assembles to `or rd, rs, r0`; counted in the `move` class
    /// for Figure 2).
    Mov(Reg, Reg),

    // --- multi-cycle arithmetic ---
    /// Floating-point op on f32 bit patterns; multi-cycle. MIPS-X used an external
    /// FP coprocessor; we model FP as fixed-cost instructions because the paper's
    /// workloads are integer-dominated and only the generic-arithmetic dispatch
    /// experiments touch floats.
    Fop(FpOp, Reg, Reg, Reg),
    /// `rd = rs * rt` (wrapping); multi-cycle.
    Mul(Reg, Reg, Reg),
    /// `rd = rs / rt` (signed, trapping-free: x/0 = 0); multi-cycle.
    Div(Reg, Reg, Reg),
    /// `rd = rs % rt` (signed, x%0 = 0); multi-cycle.
    Rem(Reg, Reg, Reg),

    // --- memory ---
    /// `rd = mem[rs + disp]`. One load-delay slot.
    Ld(Reg, Reg, i32),
    /// `mem[base + disp] = src`.
    St {
        /// Value register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        disp: i32,
    },

    // --- control ---
    /// Compare-and-branch with two delay slots. `squash` cancels the slots when
    /// the branch does not go.
    Br {
        /// Condition code.
        cond: Cond,
        /// Left operand register.
        rs: Reg,
        /// Right operand register.
        rt: Reg,
        /// Label id (pre-resolution) / instruction index (post-resolution).
        target: u32,
        /// Squashing branch: delay slots execute only when taken.
        squash: bool,
    },
    /// Compare-register-with-small-immediate and branch, with two delay slots.
    /// Tag values and small constants fit the immediate; full-width words (e.g.
    /// the tagged NIL) must be compared register-register with [`Insn::Br`].
    Bri {
        /// Condition code.
        cond: Cond,
        /// Register operand.
        rs: Reg,
        /// Immediate operand (17-bit signed on MIPS-X; unchecked here).
        imm: i32,
        /// Branch target.
        target: u32,
        /// Squashing behaviour, as for [`Insn::Br`].
        squash: bool,
    },
    /// Tag-field compare-and-branch (paper §6.1 hardware): branches on
    /// `field(rs) == value` (or `!=` when `neq`), with the same delay-slot
    /// behaviour as [`Insn::Br`]. Requires [`crate::HwConfig::tag_branch`].
    TagBr {
        /// Register whose tag field is inspected.
        rs: Reg,
        /// Where the tag field lives.
        field: TagField,
        /// Expected tag value.
        value: u32,
        /// Branch when the field differs instead.
        neq: bool,
        /// Branch target.
        target: u32,
        /// Squashing behaviour, as for [`Insn::Br`].
        squash: bool,
    },
    /// Unconditional jump; one delay slot.
    J(u32),
    /// Jump and link: `link = return index`; one delay slot.
    Jal(u32, Reg),
    /// Jump to register (returns, tail calls); one delay slot.
    Jr(Reg),
    /// Jump to register and link; one delay slot.
    Jalr(Reg, Reg),

    // --- tag-checking hardware (paper §6.2) ---
    /// Checked load: `rd = mem[base + disp]`, testing `field(base) == expect`
    /// during address calculation; on mismatch, control transfers to `on_fail`
    /// after the trap penalty. Requires [`crate::HwConfig::parallel_check`].
    LdChk {
        /// Destination register.
        rd: Reg,
        /// Base address register (tagged).
        base: Reg,
        /// Byte displacement.
        disp: i32,
        /// Tag-field location.
        field: TagField,
        /// Expected tag value.
        expect: u32,
        /// Trap target on tag mismatch.
        on_fail: u32,
    },
    /// Checked store; see [`Insn::LdChk`].
    StChk {
        /// Value register.
        src: Reg,
        /// Base address register (tagged).
        base: Reg,
        /// Byte displacement.
        disp: i32,
        /// Tag-field location.
        field: TagField,
        /// Expected tag value.
        expect: u32,
        /// Trap target on tag mismatch.
        on_fail: u32,
    },
    /// Generic add (paper §6.2.2, SPUR-style): `rd = rs + rt` in one cycle if both
    /// operands pass the integer test and the result neither overflows nor fails
    /// the test; otherwise transfers to `on_fail` after the trap penalty without
    /// writing `rd`. Requires [`crate::HwConfig::generic_arith`].
    AddG {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
        /// The hardware integer test (scheme-dependent).
        int_test: IntTest,
        /// Trap target for the non-integer / overflow path.
        on_fail: u32,
    },
    /// Generic subtract; see [`Insn::AddG`].
    SubG {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
        /// The hardware integer test (scheme-dependent).
        int_test: IntTest,
        /// Trap target for the non-integer / overflow path.
        on_fail: u32,
    },

    // --- miscellany ---
    /// No operation (delay-slot filler).
    Nop,
    /// Append to the simulated output stream (validation/debugging aid).
    Write(Reg, WriteKind),
    /// Stop the simulation; the register value is the exit code.
    Halt(Reg),
}

impl Insn {
    /// Whether this instruction transfers control (and therefore owns delay slots).
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Insn::Br { .. }
                | Insn::Bri { .. }
                | Insn::TagBr { .. }
                | Insn::J(_)
                | Insn::Jal(..)
                | Insn::Jr(_)
                | Insn::Jalr(..)
        )
    }

    /// Number of delay slots following this instruction (0 for non-control).
    pub fn delay_slots(self) -> usize {
        match self {
            Insn::Br { .. } | Insn::Bri { .. } | Insn::TagBr { .. } => 2,
            Insn::J(_) | Insn::Jal(..) | Insn::Jr(_) | Insn::Jalr(..) => 1,
            _ => 0,
        }
    }

    /// Whether this instruction can trap to an `on_fail` target (checked memory
    /// access or generic arithmetic). Trapping instructions redirect control and
    /// so are as illegal in delay slots as explicit control transfers.
    pub fn can_trap(self) -> bool {
        matches!(
            self,
            Insn::LdChk { .. } | Insn::StChk { .. } | Insn::AddG { .. } | Insn::SubG { .. }
        )
    }

    /// The register this instruction writes, if any.
    pub fn def(self) -> Option<Reg> {
        let r = match self {
            Insn::Add(rd, ..)
            | Insn::Sub(rd, ..)
            | Insn::And(rd, ..)
            | Insn::Or(rd, ..)
            | Insn::Xor(rd, ..)
            | Insn::Slt(rd, ..)
            | Insn::Addi(rd, ..)
            | Insn::Andi(rd, ..)
            | Insn::Ori(rd, ..)
            | Insn::Xori(rd, ..)
            | Insn::Sll(rd, ..)
            | Insn::Srl(rd, ..)
            | Insn::Sra(rd, ..)
            | Insn::Li(rd, _)
            | Insn::Mov(rd, _)
            | Insn::Fop(_, rd, ..)
            | Insn::Mul(rd, ..)
            | Insn::Div(rd, ..)
            | Insn::Rem(rd, ..)
            | Insn::Ld(rd, ..)
            | Insn::LdChk { rd, .. }
            | Insn::AddG { rd, .. }
            | Insn::SubG { rd, .. } => rd,
            Insn::Jal(_, link) | Insn::Jalr(_, link) => link,
            _ => return None,
        };
        if r == Reg::Zero {
            None // writes to r0 are discarded
        } else {
            Some(r)
        }
    }

    /// The registers this instruction reads (up to two), `Reg::Zero` excluded.
    pub fn uses(self) -> RegSet {
        let (a, b) = match self {
            Insn::Add(_, a, b)
            | Insn::Sub(_, a, b)
            | Insn::And(_, a, b)
            | Insn::Or(_, a, b)
            | Insn::Xor(_, a, b)
            | Insn::Slt(_, a, b)
            | Insn::Fop(_, _, a, b)
            | Insn::Mul(_, a, b)
            | Insn::Div(_, a, b)
            | Insn::Rem(_, a, b) => (a, b),
            Insn::Addi(_, a, _)
            | Insn::Andi(_, a, _)
            | Insn::Ori(_, a, _)
            | Insn::Xori(_, a, _)
            | Insn::Sll(_, a, _)
            | Insn::Srl(_, a, _)
            | Insn::Sra(_, a, _)
            | Insn::Mov(_, a)
            | Insn::Ld(_, a, _) => (a, Reg::Zero),
            Insn::St { src, base, .. } => (src, base),
            Insn::Br { rs, rt, .. } => (rs, rt),
            Insn::Bri { rs, .. } | Insn::TagBr { rs, .. } => (rs, Reg::Zero),
            Insn::Jr(r) | Insn::Jalr(r, _) => (r, Reg::Zero),
            Insn::LdChk { base, .. } => (base, Reg::Zero),
            Insn::StChk { src, base, .. } => (src, base),
            Insn::AddG { rs, rt, .. } | Insn::SubG { rs, rt, .. } => (rs, rt),
            Insn::Write(r, _) | Insn::Halt(r) => (r, Reg::Zero),
            Insn::Li(..) | Insn::J(_) | Insn::Jal(..) | Insn::Nop => (Reg::Zero, Reg::Zero),
        };
        [a, b].into_iter().filter(|&r| r != Reg::Zero).collect()
    }

    /// Rewrite the branch/jump/trap target through `f` (used by the assembler to
    /// resolve labels to instruction indices, and by linkers to move code).
    /// Instructions without a code target come back unchanged.
    pub fn map_target(self, f: &mut impl FnMut(u32) -> u32) -> Insn {
        match self {
            Insn::Br {
                cond,
                rs,
                rt,
                target,
                squash,
            } => Insn::Br {
                cond,
                rs,
                rt,
                target: f(target),
                squash,
            },
            Insn::Bri {
                cond,
                rs,
                imm,
                target,
                squash,
            } => Insn::Bri {
                cond,
                rs,
                imm,
                target: f(target),
                squash,
            },
            Insn::TagBr {
                rs,
                field,
                value,
                neq,
                target,
                squash,
            } => Insn::TagBr {
                rs,
                field,
                value,
                neq,
                target: f(target),
                squash,
            },
            Insn::J(t) => Insn::J(f(t)),
            Insn::Jal(t, l) => Insn::Jal(f(t), l),
            Insn::LdChk {
                rd,
                base,
                disp,
                field,
                expect,
                on_fail,
            } => Insn::LdChk {
                rd,
                base,
                disp,
                field,
                expect,
                on_fail: f(on_fail),
            },
            Insn::StChk {
                src,
                base,
                disp,
                field,
                expect,
                on_fail,
            } => Insn::StChk {
                src,
                base,
                disp,
                field,
                expect,
                on_fail: f(on_fail),
            },
            Insn::AddG {
                rd,
                rs,
                rt,
                int_test,
                on_fail,
            } => Insn::AddG {
                rd,
                rs,
                rt,
                int_test,
                on_fail: f(on_fail),
            },
            Insn::SubG {
                rd,
                rs,
                rt,
                int_test,
                on_fail,
            } => Insn::SubG {
                rd,
                rs,
                rt,
                int_test,
                on_fail: f(on_fail),
            },
            other => other,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Add(d, a, b) => write!(f, "add {d}, {a}, {b}"),
            Insn::Sub(d, a, b) => write!(f, "sub {d}, {a}, {b}"),
            Insn::And(d, a, b) => write!(f, "and {d}, {a}, {b}"),
            Insn::Or(d, a, b) => write!(f, "or {d}, {a}, {b}"),
            Insn::Xor(d, a, b) => write!(f, "xor {d}, {a}, {b}"),
            Insn::Slt(d, a, b) => write!(f, "slt {d}, {a}, {b}"),
            Insn::Addi(d, a, i) => write!(f, "addi {d}, {a}, {i}"),
            Insn::Andi(d, a, i) => write!(f, "andi {d}, {a}, {i:#x}"),
            Insn::Ori(d, a, i) => write!(f, "ori {d}, {a}, {i:#x}"),
            Insn::Xori(d, a, i) => write!(f, "xori {d}, {a}, {i:#x}"),
            Insn::Sll(d, a, s) => write!(f, "sll {d}, {a}, {s}"),
            Insn::Srl(d, a, s) => write!(f, "srl {d}, {a}, {s}"),
            Insn::Sra(d, a, s) => write!(f, "sra {d}, {a}, {s}"),
            Insn::Li(d, i) => write!(f, "li {d}, {i}"),
            Insn::Mov(d, a) => write!(f, "mov {d}, {a}"),
            Insn::Fop(op, d, a, b) => write!(f, "f{op:?} {d}, {a}, {b}"),
            Insn::Mul(d, a, b) => write!(f, "mul {d}, {a}, {b}"),
            Insn::Div(d, a, b) => write!(f, "div {d}, {a}, {b}"),
            Insn::Rem(d, a, b) => write!(f, "rem {d}, {a}, {b}"),
            Insn::Ld(d, a, i) => write!(f, "ld {d}, {i}({a})"),
            Insn::St { src, base, disp } => write!(f, "st {src}, {disp}({base})"),
            Insn::Br {
                cond,
                rs,
                rt,
                target,
                squash,
            } => {
                write!(
                    f,
                    "b{:?}{} {rs}, {rt}, L{target}",
                    cond,
                    if squash { ".sq" } else { "" }
                )
            }
            Insn::Bri {
                cond,
                rs,
                imm,
                target,
                squash,
            } => {
                write!(
                    f,
                    "b{:?}i{} {rs}, {imm}, L{target}",
                    cond,
                    if squash { ".sq" } else { "" }
                )
            }
            Insn::TagBr {
                rs,
                value,
                neq,
                target,
                squash,
                ..
            } => write!(
                f,
                "tagb{}{} {rs}, {value}, L{target}",
                if neq { "ne" } else { "eq" },
                if squash { ".sq" } else { "" }
            ),
            Insn::J(t) => write!(f, "j L{t}"),
            Insn::Jal(t, l) => write!(f, "jal L{t}, {l}"),
            Insn::Jr(r) => write!(f, "jr {r}"),
            Insn::Jalr(r, l) => write!(f, "jalr {r}, {l}"),
            Insn::LdChk {
                rd,
                base,
                disp,
                expect,
                on_fail,
                ..
            } => {
                write!(f, "ldchk {rd}, {disp}({base}) tag={expect} fail=L{on_fail}")
            }
            Insn::StChk {
                src,
                base,
                disp,
                expect,
                on_fail,
                ..
            } => {
                write!(
                    f,
                    "stchk {src}, {disp}({base}) tag={expect} fail=L{on_fail}"
                )
            }
            Insn::AddG {
                rd,
                rs,
                rt,
                on_fail,
                ..
            } => {
                write!(f, "addg {rd}, {rs}, {rt} fail=L{on_fail}")
            }
            Insn::SubG {
                rd,
                rs,
                rt,
                on_fail,
                ..
            } => {
                write!(f, "subg {rd}, {rs}, {rt} fail=L{on_fail}")
            }
            Insn::Nop => write!(f, "nop"),
            Insn::Write(r, WriteKind::Char) => write!(f, "putc {r}"),
            Insn::Write(r, WriteKind::Int) => write!(f, "puti {r}"),
            Insn::Halt(r) => write!(f, "halt {r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_and_negate() {
        assert!(Cond::Lt.eval((-1i32) as u32, 0));
        assert!(!Cond::Lt.eval(0, (-1i32) as u32));
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le, Cond::Gt] {
            for (a, b) in [(0u32, 0u32), (1, 2), (u32::MAX, 3)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn tag_field_extract() {
        let hi5 = TagField {
            shift: 27,
            mask: 0x1F,
        };
        assert_eq!(hi5.extract(0x0800_0001), 1);
        let lo2 = TagField {
            shift: 0,
            mask: 0b11,
        };
        assert_eq!(lo2.extract(0x1003), 3);
    }

    #[test]
    fn int_tests() {
        assert!(IntTest::SignExt(27).is_int(5));
        assert!(IntTest::SignExt(27).is_int((-5i32) as u32));
        assert!(!IntTest::SignExt(27).is_int(0x0800_0000));
        assert!(IntTest::LowBitsZero(2).is_int(8));
        assert!(!IntTest::LowBitsZero(2).is_int(9));
    }

    fn set(regs: &[Reg]) -> RegSet {
        regs.iter().copied().collect()
    }

    #[test]
    fn def_use_basics() {
        let i = Insn::Add(Reg::A0, Reg::A1, Reg::A2);
        assert_eq!(i.def(), Some(Reg::A0));
        assert_eq!(i.uses(), set(&[Reg::A1, Reg::A2]));
        let st = Insn::St {
            src: Reg::T0,
            base: Reg::Sp,
            disp: 4,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), set(&[Reg::T0, Reg::Sp]));
        // writes to r0 are discarded
        assert_eq!(Insn::Li(Reg::Zero, 3).def(), None);
        // duplicated sources reported once
        assert_eq!(Insn::Add(Reg::A0, Reg::T1, Reg::T1).uses(), set(&[Reg::T1]));
    }

    #[test]
    fn delay_slots() {
        let br = Insn::Br {
            cond: Cond::Eq,
            rs: Reg::A0,
            rt: Reg::Zero,
            target: 0,
            squash: false,
        };
        assert_eq!(br.delay_slots(), 2);
        assert_eq!(Insn::J(0).delay_slots(), 1);
        assert_eq!(Insn::Nop.delay_slots(), 0);
        assert!(br.is_control());
        assert!(!Insn::Nop.is_control());
    }
}
