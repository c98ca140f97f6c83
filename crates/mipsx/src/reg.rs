//! Register file names and software conventions.

use std::fmt;

/// One of the 32 general-purpose registers.
///
/// `Zero` is wired to zero, as on MIPS-X. The remaining names encode the software
/// conventions the Lisp system uses; the simulator itself treats them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // the variant meanings are described in the table below
pub enum Reg {
    /// Hardwired zero.
    Zero = 0,
    /// Stack pointer (grows down).
    Sp = 1,
    /// Heap allocation pointer.
    Hp = 2,
    /// Heap limit.
    Hl = 3,
    /// The tagged NIL constant.
    Nil = 4,
    /// Tag-removal mask constant (scheme-dependent).
    Mask = 5,
    /// Return-address (link) register.
    Link = 6,
    /// The tagged T (true) constant.
    TrueR = 7,
    // Argument / result registers.
    A0 = 8,
    A1 = 9,
    A2 = 10,
    A3 = 11,
    A4 = 12,
    A5 = 13,
    // Caller-saved temporaries.
    T0 = 14,
    T1 = 15,
    T2 = 16,
    T3 = 17,
    T4 = 18,
    T5 = 19,
    T6 = 20,
    T7 = 21,
    T8 = 22,
    T9 = 23,
    // Callee-saved.
    S0 = 24,
    S1 = 25,
    S2 = 26,
    S3 = 27,
    /// Globals base pointer.
    Gp = 28,
    /// Runtime scratch (trap/support routines).
    X0 = 29,
    /// Runtime scratch (trap/support routines).
    X1 = 30,
    /// Preshifted list-tag constant (paper §3.1 ablation) / extra scratch.
    Pt = 31,
}

/// All registers in index order.
pub const ALL_REGS: [Reg; 32] = [
    Reg::Zero,
    Reg::Sp,
    Reg::Hp,
    Reg::Hl,
    Reg::Nil,
    Reg::Mask,
    Reg::Link,
    Reg::TrueR,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
    Reg::T8,
    Reg::T9,
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::Gp,
    Reg::X0,
    Reg::X1,
    Reg::Pt,
];

impl Reg {
    /// The register-file index, `0..32`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Look a register up by index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn from_index(i: usize) -> Reg {
        ALL_REGS[i]
    }

    /// The six argument/result registers, in order.
    pub const ARGS: [Reg; 6] = [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5];

    /// The ten caller-saved temporaries, in order.
    pub const TEMPS: [Reg; 10] = [
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::T3,
        Reg::T4,
        Reg::T5,
        Reg::T6,
        Reg::T7,
        Reg::T8,
        Reg::T9,
    ];
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// A set of registers: one bit per register-file index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(u32);

impl RegSet {
    /// Whether `r` is in the set.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// The set as a bitmask: bit `i` stands for register index `i`.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The members, in index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let i = rest.trailing_zeros();
            rest &= rest.wrapping_sub(1);
            ALL_REGS.get(i as usize).copied()
        })
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(regs: I) -> Self {
        RegSet(regs.into_iter().fold(0, |m, r| m | 1 << r.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, r) in ALL_REGS.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), *r);
        }
    }

    #[test]
    fn reg_sets_iterate_in_index_order() {
        let set: RegSet = [Reg::Pt, Reg::Zero, Reg::A0, Reg::A0].into_iter().collect();
        assert!(set.contains(Reg::A0) && set.contains(Reg::Pt) && !set.contains(Reg::A1));
        assert_eq!(set.bits(), 1 << 31 | 1 << 8 | 1);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [Reg::Zero, Reg::A0, Reg::Pt]
        );
        assert_eq!(RegSet::default().iter().count(), 0);
    }

    #[test]
    fn display_uses_machine_name() {
        assert_eq!(Reg::Zero.to_string(), "r0");
        assert_eq!(Reg::Pt.to_string(), "r31");
    }
}
