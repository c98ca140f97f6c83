//! Property test: `DecodedProgram::splice` equals `DecodedProgram::decode`
//! for a program spliced from its own code and an image's two pieces,
//! wherever the seams fall, whichever cycle costs the program's hardware
//! sets, and whichever extra positions are listed as fresh. The costs vary
//! independently, so a multiply can get dearer by as much as a divide after
//! it gets cheaper, which leaves a run's total unchanged but not the cost of
//! a branch's second delay slot.

use proptest::prelude::*;

use mipsx::{Annot, Cond, DecodedProgram, FpOp, HwConfig, Insn, Program, Reg};

/// The registers random instructions read and write: few, so loads are
/// often followed by a reader of the loaded register.
const POOL: [Reg; 3] = [Reg::A0, Reg::T0, Reg::T1];

/// One instruction from a menu of straight, costed, memory, control and
/// halting forms. Control targets do not matter to the decode.
fn insn((kind, a, b): (u8, usize, usize)) -> Insn {
    let (a, b) = (POOL[a], POOL[b]);
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
        _ => Insn::Halt(a),
    }
}

/// About half the instructions are `nop`s, so branches and jumps whose
/// delay slots are all `nop`s, and seams inside those groups, are common.
fn stream() -> impl Strategy<Value = Vec<Insn>> {
    let one = prop_oneof![
        Just(Insn::Nop),
        (0u8..14, 0usize..3, 0usize..3).prop_map(insn),
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
        extra in any::<u64>(),
    ) {
        // The image's two pieces and the program's two stretches of own
        // code, laid out as a linked program is: own, image, own, image.
        let k = cuts.0 % (image.len() + 1);
        let m = cuts.1 % (own.len() + 1);
        let mut insns = own[..m].to_vec();
        insns.extend_from_slice(&image[..k]);
        insns.extend_from_slice(&own[m..]);
        insns.extend_from_slice(&image[k..]);
        let prog = program(insns);
        let placed = [(0..k, m), (k..image.len(), own.len() + k)];

        let plain = HwConfig::plain();
        let decoded_image = DecodedProgram::decode(&program(image.clone()), plain).expect("decodes");
        let hw = HwConfig { mul_cycles: costs.0, div_cycles: costs.1, fp_cycles: costs.2, ..plain };
        // Fresh: every op whose cost the hardware sets, and some others.
        let fresh: Vec<usize> = image
            .iter()
            .enumerate()
            .filter(|&(p, i)| {
                matches!(i, Insn::Mul(..) | Insn::Div(..) | Insn::Rem(..) | Insn::Fop(..))
                    || extra >> (p % 64) & 1 == 1
            })
            .map(|(p, _)| if p < k { m + p } else { own.len() + p })
            .collect();
        let spliced = DecodedProgram::splice(&prog, hw, &decoded_image, &placed, fresh);
        prop_assert_eq!(spliced, DecodedProgram::decode(&prog, hw));
    }
}
