//! Cross-crate integration tests: tagword encodings flow through the compiler,
//! the simulator, the GC and the measurement framework consistently.

use tags_repro::lisp::{compile, run, CheckingMode, Options};
use tags_repro::mipsx::{CheckCat, HwConfig, Provenance, TagOpKind};
use tags_repro::tagstudy::{Config, Session};
use tags_repro::tagword::{TagScheme, ALL_SCHEMES};

const SRC_LIST_WALK: &str = r#"
    (defun build (n) (if (greaterp n 0) (cons n (build (sub1 n))) nil))
    (defun sum (l) (if (pairp l) (plus (car l) (sum (cdr l))) 0))
    (print (sum (build 100)))
"#;

#[test]
fn results_identical_across_every_scheme_and_mode() {
    let mut outputs = Vec::new();
    for scheme in ALL_SCHEMES {
        for checking in [CheckingMode::None, CheckingMode::Full] {
            let c = compile(SRC_LIST_WALK, &Options::new(scheme, checking)).unwrap();
            let o = run(&c, 10_000_000).unwrap();
            outputs.push(o.output);
        }
    }
    assert!(outputs.iter().all(|o| o == "5050\n"), "{outputs:?}");
}

#[test]
fn hardware_variants_never_change_results_only_cycles() {
    let base = {
        let c = compile(
            SRC_LIST_WALK,
            &Options::new(TagScheme::HighTag5, CheckingMode::Full),
        )
        .unwrap();
        run(&c, 10_000_000).unwrap()
    };
    for hw in [
        HwConfig::with_tag_branch(),
        HwConfig::with_address_drop(5),
        HwConfig::with_generic_arith(),
        HwConfig::maximal(5),
        HwConfig::spur(5),
    ] {
        let opts = Options {
            hw,
            ..Options::new(TagScheme::HighTag5, CheckingMode::Full)
        };
        let c = compile(SRC_LIST_WALK, &opts).unwrap();
        let o = run(&c, 10_000_000).unwrap();
        assert_eq!(o.output, base.output);
        assert!(
            o.stats.cycles <= base.stats.cycles,
            "{hw:?} must not be slower than stock hardware"
        );
    }
}

#[test]
fn cycle_accounting_is_consistent() {
    // Total cycles must dominate the tag-attributed cycles, and checking-category
    // cycles must all carry the Checking provenance.
    let c = compile(
        SRC_LIST_WALK,
        &Options::new(TagScheme::HighTag5, CheckingMode::Full),
    )
    .unwrap();
    let o = run(&c, 10_000_000).unwrap();
    let s = &o.stats;
    assert!(s.total_tag_cycles() < s.cycles);
    let checking_total: u64 = [CheckCat::Arith, CheckCat::Vector, CheckCat::List]
        .iter()
        .map(|c| s.checking_cycles(*c))
        .sum();
    let by_prov: u64 = [
        TagOpKind::Insert,
        TagOpKind::Remove,
        TagOpKind::Extract,
        TagOpKind::Check,
        TagOpKind::Generic,
    ]
    .iter()
    .map(|op| s.tag_op_cycles_by(*op, Provenance::Checking))
    .sum();
    assert_eq!(
        checking_total, by_prov,
        "two views of checking-added cycles agree"
    );
}

#[test]
fn checking_delta_matches_attributed_checking_cycles() {
    // The cycle difference between modes should be approximately the cycles
    // attributed to checking-added operations (scheduling slack allowed).
    let none = {
        let c = compile(
            SRC_LIST_WALK,
            &Options::new(TagScheme::HighTag5, CheckingMode::None),
        )
        .unwrap();
        run(&c, 10_000_000).unwrap()
    };
    let full = {
        let c = compile(
            SRC_LIST_WALK,
            &Options::new(TagScheme::HighTag5, CheckingMode::Full),
        )
        .unwrap();
        run(&c, 10_000_000).unwrap()
    };
    let delta = full.stats.cycles - none.stats.cycles;
    let attributed: u64 = [CheckCat::Arith, CheckCat::Vector, CheckCat::List]
        .iter()
        .map(|c| full.stats.checking_cycles(*c))
        .sum();
    let slack = none.stats.cycles / 20 + 100; // 5%
    assert!(
        attributed.abs_diff(delta) <= slack,
        "attributed {attributed} vs actual delta {delta} (slack {slack})"
    );
}

#[test]
fn measurement_framework_round_trips() {
    let session = Session::new();
    let m = session
        .measure("rat", Config::baseline(CheckingMode::Full))
        .unwrap();
    assert_eq!(m.program, "rat");
    assert!(
        m.stats.checking_cycles(CheckCat::Arith) > 0,
        "rat does checked arithmetic"
    );
    assert!(m.compile.object_words > 1000);
    assert_eq!(session.stats().misses, 1);
}

#[test]
fn gc_stress_under_every_scheme() {
    // Heavy churn with a small heap, preserving a long-lived structure that has
    // to be copied repeatedly.
    let src = r#"
        (defvar keep nil)
        (defun fill (n) (if (greaterp n 0) (cons (list n 'x) (fill (sub1 n))) nil))
        (setq keep (fill 100))
        (defun churn (n)
          (while (greaterp n 0)
            (reverse (build-garbage 20))
            (setq n (sub1 n))))
        (defun build-garbage (n)
          (if (greaterp n 0) (cons (cons n n) (build-garbage (sub1 n))) nil))
        (churn 500)
        (print (length keep))
        (print (caar keep))
    "#;
    for scheme in ALL_SCHEMES {
        let opts = Options {
            heap_semi_bytes: 24 << 10,
            ..Options::new(scheme, CheckingMode::Full)
        };
        let c = compile(src, &opts).unwrap();
        let o = run(&c, 200_000_000).unwrap();
        assert_eq!(o.output, "100\n100\n", "{scheme}");
    }
}

#[test]
fn preshifted_tag_only_affects_insertion() {
    let opts = Options {
        preshifted_pair_tag: true,
        ..Options::new(TagScheme::HighTag5, CheckingMode::None)
    };
    let base = run(
        &compile(
            SRC_LIST_WALK,
            &Options::new(TagScheme::HighTag5, CheckingMode::None),
        )
        .unwrap(),
        10_000_000,
    )
    .unwrap();
    let pre = run(&compile(SRC_LIST_WALK, &opts).unwrap(), 10_000_000).unwrap();
    assert_eq!(base.output, pre.output);
    assert!(
        pre.stats.tag_op_cycles(TagOpKind::Insert) < base.stats.tag_op_cycles(TagOpKind::Insert)
    );
    // Everything else is untouched.
    assert_eq!(
        base.stats.tag_op_cycles(TagOpKind::Remove),
        pre.stats.tag_op_cycles(TagOpKind::Remove)
    );
}
