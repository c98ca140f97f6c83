//! Property test: `DecodedProgram::splice` equals `DecodedProgram::decode`
//! for a program spliced from its own code and an image's two pieces,
//! wherever the seams fall, whichever cycle costs the program's hardware
//! sets, and whichever extra positions are listed as fresh. The costs vary
//! independently, so a multiply can get dearer by as much as a divide after
//! it gets cheaper, which leaves a run's total unchanged but not the cost of
//! a branch's second delay slot.
//!
//! The hardware also lacks a random subset of the feature gates, and the
//! menu holds an instruction behind each gate, so the two must agree on the
//! error too: `MissingHardware` at the lowest offending pc, whether that pc
//! lies in `main`, in the program's functions or at a fresh position.

use proptest::prelude::*;

use mipsx::{
    Annot, Cond, DecodedProgram, FpOp, HwConfig, Insn, IntTest, ParallelCheck, Program, Reg,
    TagField,
};

/// The registers random instructions read and write: few, so loads are
/// often followed by a reader of the loaded register.
const POOL: [Reg; 3] = [Reg::A0, Reg::T0, Reg::T1];

/// One instruction from a menu of straight, costed, memory, control,
/// hardware-gated and halting forms. Control targets do not matter to the
/// decode.
fn insn((kind, a, b): (u8, usize, usize)) -> Insn {
    let (a, b) = (POOL[a], POOL[b]);
    let field = TagField {
        shift: 27,
        mask: 0x1F,
    };
    match kind {
        0 => Insn::Add(a, a, b),
        1 => Insn::Addi(a, b, 3),
        2 => Insn::Ld(a, b, 4),
        3 => Insn::St {
            src: a,
            base: b,
            disp: 4,
        },
        4 => Insn::Mul(a, a, b),
        5 => Insn::Div(a, b, a),
        6 => Insn::Rem(b, a, b),
        7 => Insn::Fop(FpOp::Add, a, a, b),
        8 => Insn::Nop,
        9 => Insn::Br {
            cond: Cond::Eq,
            rs: a,
            rt: b,
            target: 0,
            squash: a == b,
        },
        10 => Insn::J(0),
        11 => Insn::Jal(0, Reg::Link),
        12 => Insn::Jr(a),
        13 => Insn::TagBr {
            rs: a,
            field,
            value: 2,
            neq: a == b,
            target: 0,
            squash: false,
        },
        14 => Insn::LdChk {
            rd: a,
            base: b,
            disp: 0,
            field,
            expect: 1,
            on_fail: 0,
        },
        15 => Insn::StChk {
            src: a,
            base: b,
            disp: 0,
            field,
            expect: 1,
            on_fail: 0,
        },
        16 => Insn::AddG {
            rd: a,
            rs: a,
            rt: b,
            int_test: IntTest::LowBitsZero(2),
            on_fail: 0,
        },
        _ => Insn::Halt(a),
    }
}

/// Whether `hw` has the feature gate `insn` needs, if any.
fn gate_present(insn: &Insn, hw: &HwConfig) -> bool {
    match insn {
        Insn::TagBr { .. } => hw.tag_branch,
        Insn::LdChk { .. } | Insn::StChk { .. } => hw.parallel_check != ParallelCheck::None,
        Insn::AddG { .. } | Insn::SubG { .. } => hw.generic_arith,
        _ => true,
    }
}

/// About half the instructions are `nop`s, so branches and jumps whose
/// delay slots are all `nop`s, and seams inside those groups, are common.
fn stream() -> impl Strategy<Value = Vec<Insn>> {
    let one = prop_oneof![
        Just(Insn::Nop),
        (0u8..18, 0usize..3, 0usize..3).prop_map(insn),
    ];
    prop::collection::vec(one, 0..40)
}

fn program(insns: Vec<Insn>) -> Program {
    Program {
        annots: vec![Annot::NONE; insns.len()],
        insns,
        ..Program::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn splice_equals_decode(
        image in stream(),
        own in stream(),
        cuts in (0usize..64, 0usize..64),
        costs in (1u32..20, 1u32..40, 1u32..12),
        gates in (0u8..4, 0u8..4, 0u8..4),
        extra in any::<u64>(),
    ) {
        // Each gate is missing one time in four.
        let plain = HwConfig {
            tag_branch: gates.0 > 0,
            parallel_check: if gates.1 > 0 { ParallelCheck::All } else { ParallelCheck::None },
            generic_arith: gates.2 > 0,
            ..HwConfig::plain()
        };
        // The image is decoded under the program's gates, so it holds a `nop`
        // where the program holds an instruction whose gate is missing; that
        // position is fresh.
        let decodable: Vec<Insn> = image
            .iter()
            .map(|i| if gate_present(i, &plain) { *i } else { Insn::Nop })
            .collect();
        // The image's two pieces and the program's two stretches of own
        // code, laid out as a linked program is: own (main), image, own
        // (the program's functions), image.
        let k = cuts.0 % (image.len() + 1);
        let m = cuts.1 % (own.len() + 1);
        let mut insns = own[..m].to_vec();
        insns.extend_from_slice(&image[..k]);
        insns.extend_from_slice(&own[m..]);
        insns.extend_from_slice(&image[k..]);
        let prog = program(insns);
        let placed = [(0..k, m), (k..image.len(), own.len() + k)];

        let decoded_image = DecodedProgram::decode(&program(decodable), plain).expect("decodes");
        let hw = HwConfig { mul_cycles: costs.0, div_cycles: costs.1, fp_cycles: costs.2, ..plain };
        // Fresh: every op whose cost the hardware sets or whose gate it
        // lacks, and some others.
        let fresh: Vec<usize> = image
            .iter()
            .enumerate()
            .filter(|&(p, i)| {
                matches!(i, Insn::Mul(..) | Insn::Div(..) | Insn::Rem(..) | Insn::Fop(..))
                    || !gate_present(i, &plain)
                    || extra >> (p % 64) & 1 == 1
            })
            .map(|(p, _)| if p < k { m + p } else { own.len() + p })
            .collect();
        let spliced = DecodedProgram::splice(&prog, hw, &decoded_image, &placed, fresh);
        prop_assert_eq!(spliced, DecodedProgram::decode(&prog, hw));
    }
}
