//! Golden-sequence tests: the emitted tag-handling code must be exactly the
//! instruction sequences the paper costs out. Rather than matching opcodes
//! textually (brittle), each test counts the *annotated* instructions inside a
//! known function body — no-ops excluded, so the counts are the paper's ideal
//! cycle figures.

use lisp::{compile, CheckingMode, Options};
use mipsx::{CheckCat, HwConfig, Insn, InsnClass, TagOpKind};
use tagword::TagScheme;

/// Fast-path instructions of `fn:NAME`, with their annotations. The body is
/// truncated at the epilogue's return so the out-of-line slow-path blocks
/// (reached only on dispatch/overflow) are not counted — the paper's cycle
/// figures are fast-path figures.
fn body_of(src: &str, name: &str, opts: &Options) -> Vec<(Insn, mipsx::Annot)> {
    let c = compile(src, opts).expect("compiles");
    let p = &c.program;
    let start = p.symbols[format!("fn:{name}").as_str()];
    let ret = (start..p.insns.len())
        .find(|&i| matches!(p.insns[i], Insn::Jr(_)))
        .expect("function has an epilogue return");
    // Include the return's delay slot: the scheduler may park body work there.
    let end = (ret + 2).min(p.insns.len());
    (start..end).map(|i| (p.insns[i], p.annots[i])).collect()
}

fn count_checking(body: &[(Insn, mipsx::Annot)], cat: CheckCat) -> usize {
    body.iter()
        .filter(|(i, a)| *i != Insn::Nop && a.cat == cat && a.prov == mipsx::Provenance::Checking)
        .count()
}

const ADD_FN: &str = "(defun f (a b) (plus a b)) (f 1 2)";

#[test]
fn checked_add_is_ten_cycles_under_high5() {
    // Paper §4.2: "a generic integer add takes 10 cycles: 9 cycles for type and
    // overflow checking, and 1 for adding".
    let body = body_of(
        ADD_FN,
        "f",
        &Options::new(TagScheme::HighTag5, CheckingMode::Full),
    );
    assert_eq!(
        count_checking(&body, CheckCat::Arith),
        9,
        "9 checking instructions"
    );
    let adds = body
        .iter()
        .filter(|(i, a)| matches!(i, Insn::Add(..)) && a.tag_op.is_none())
        .count();
    assert_eq!(adds, 1, "one real add");
}

#[test]
fn checked_add_is_four_cycles_under_high6() {
    // Paper §4.2: the arithmetic-safe encoding folds all checking into one
    // integer test on the result: add + 3-cycle test.
    let body = body_of(
        ADD_FN,
        "f",
        &Options::new(TagScheme::HighTag6, CheckingMode::Full),
    );
    assert_eq!(
        count_checking(&body, CheckCat::Arith),
        3,
        "single 3-cycle test"
    );
}

#[test]
fn checked_add_is_one_instruction_with_trap_hardware() {
    // Paper §6.2.2: test the operands while executing the operation.
    let opts = Options {
        hw: HwConfig::with_generic_arith(),
        ..Options::new(TagScheme::HighTag5, CheckingMode::Full)
    };
    let body = body_of(ADD_FN, "f", &opts);
    assert_eq!(
        count_checking(&body, CheckCat::Arith),
        0,
        "no inline checking"
    );
    let addg = body
        .iter()
        .filter(|(i, _)| matches!(i, Insn::AddG { .. }))
        .count();
    assert_eq!(addg, 1);
}

#[test]
fn unchecked_add_is_one_instruction() {
    let body = body_of(
        ADD_FN,
        "f",
        &Options::new(TagScheme::HighTag5, CheckingMode::None),
    );
    assert_eq!(count_checking(&body, CheckCat::Arith), 0);
    let adds = body
        .iter()
        .filter(|(i, _)| matches!(i, Insn::Add(..)))
        .count();
    assert_eq!(
        adds, 1,
        "the Lisp integer IS its machine representation (§2.1)"
    );
}

const CAR_FN: &str = "(defun f (p) (car p)) (f '(1))";

#[test]
fn car_sequences_match_the_paper() {
    // Plain high tags, no checking: mask (1 cycle) + load.
    let body = body_of(
        CAR_FN,
        "f",
        &Options::new(TagScheme::HighTag5, CheckingMode::None),
    );
    let masks = body
        .iter()
        .filter(|(_, a)| a.tag_op == Some(TagOpKind::Remove))
        .count();
    assert_eq!(masks, 1, "one masking and (§3.2)");

    // Low tags: no masking at all (§5.2) — the displacement folds the tag.
    let body = body_of(
        CAR_FN,
        "f",
        &Options::new(TagScheme::LowTag2, CheckingMode::None),
    );
    let masks = body
        .iter()
        .filter(|(_, a)| a.tag_op == Some(TagOpKind::Remove))
        .count();
    assert_eq!(masks, 0, "no tag removal under low tags");

    // Full checking, plain hardware: extract + compare-and-branch = 2 checking
    // instructions (§3.4: "the cost of extracting the tag, one cycle for a
    // comparison"), plus the branch's delay slots at run time.
    let body = body_of(
        CAR_FN,
        "f",
        &Options::new(TagScheme::HighTag5, CheckingMode::Full),
    );
    assert_eq!(count_checking(&body, CheckCat::List), 2);

    // Tag-branch hardware (§6.1): the extraction disappears — 1 instruction.
    let opts = Options {
        hw: HwConfig::with_tag_branch(),
        ..Options::new(TagScheme::HighTag5, CheckingMode::Full)
    };
    let body = body_of(CAR_FN, "f", &opts);
    assert_eq!(count_checking(&body, CheckCat::List), 1);

    // Parallel-check hardware (§6.2.1): the load itself checks — zero separate
    // checking instructions AND zero removal.
    let opts = Options {
        hw: HwConfig::with_parallel_check(mipsx::ParallelCheck::Lists),
        ..Options::new(TagScheme::HighTag5, CheckingMode::Full)
    };
    let body = body_of(CAR_FN, "f", &opts);
    assert_eq!(count_checking(&body, CheckCat::List), 0);
    assert_eq!(
        body.iter()
            .filter(|(_, a)| a.tag_op == Some(TagOpKind::Remove))
            .count(),
        0
    );
    assert_eq!(
        body.iter()
            .filter(|(i, _)| matches!(i, Insn::LdChk { .. }))
            .count(),
        1
    );
}

const CONS_FN: &str = "(defun f (a b) (cons a b)) (f 1 2)";

#[test]
fn insertion_costs_match_the_paper() {
    // §3.1: two cycles under high tags (build shifted tag + or)...
    let body = body_of(
        CONS_FN,
        "f",
        &Options::new(TagScheme::HighTag5, CheckingMode::None),
    );
    let ins = body
        .iter()
        .filter(|(_, a)| a.tag_op == Some(TagOpKind::Insert))
        .count();
    assert_eq!(ins, 2);
    // ...one with a preshifted tag register...
    let opts = Options {
        preshifted_pair_tag: true,
        ..Options::new(TagScheme::HighTag5, CheckingMode::None)
    };
    let body = body_of(CONS_FN, "f", &opts);
    let ins = body
        .iter()
        .filter(|(_, a)| a.tag_op == Some(TagOpKind::Insert))
        .count();
    assert_eq!(ins, 1);
    // ...and one under low tags (or-immediate).
    let body = body_of(
        CONS_FN,
        "f",
        &Options::new(TagScheme::LowTag3, CheckingMode::None),
    );
    let ins = body
        .iter()
        .filter(|(_, a)| a.tag_op == Some(TagOpKind::Insert))
        .count();
    assert_eq!(ins, 1);
}

#[test]
fn int_test_methods_differ_as_described() {
    // §4.1: method 2 = 3 instructions; method 1 = 1 extract + 2 branches, of
    // which a positive operand executes only the first.
    let src = "(defun f (a) (intp a)) (f 1)";
    let m2 = body_of(
        src,
        "f",
        &Options::new(TagScheme::HighTag5, CheckingMode::None),
    );
    let m2n: usize = m2
        .iter()
        .filter(|(i, a)| *i != Insn::Nop && a.tag_op.is_some())
        .count();
    let opts = Options {
        int_test_method: lisp::IntTestMethod::TagCompare,
        ..Options::new(TagScheme::HighTag5, CheckingMode::None)
    };
    let m1 = body_of(src, "f", &opts);
    let m1n: usize = m1
        .iter()
        .filter(|(i, a)| *i != Insn::Nop && a.tag_op.is_some())
        .count();
    assert_eq!(m2n, 3, "sign-extend: sll+sra+branch");
    assert_eq!(
        m1n, 3,
        "tag-compare: srl+branch+branch (data-dependent path)"
    );
    // Method 1 uses an extraction plus two branches; method 2 has one branch.
    let branches = |body: &[(Insn, mipsx::Annot)]| {
        body.iter()
            .filter(|(i, a)| InsnClass::of(*i) == InsnClass::Branch && a.tag_op.is_some())
            .count()
    };
    assert_eq!(branches(&m2), 1);
    assert_eq!(branches(&m1), 2);
}

#[test]
fn annotated_listing_shows_tag_ops() {
    let c = compile(
        CAR_FN,
        &Options::new(TagScheme::HighTag5, CheckingMode::Full),
    )
    .unwrap();
    let l = c.program.listing_annotated();
    assert!(l.contains("Check/List"));
    assert!(l.contains("Remove"));
    assert!(l.contains("fn:f:"));
}
