//! The linked compile (`lisp::compile_unit`: `main` and the program's own
//! functions, linked against the per-configuration system image) must
//! reproduce the monolithic reference compile
//! (`lisp::compile_unit_reference`) field by field: over generated programs
//! under every oracle configuration, over the paper's programs under
//! non-default heap and stack sizes, and on the small edge cases. The linked
//! program's predecode, spliced from its image's decoded stream, must equal
//! the full decode of the reference program op for op.

use std::sync::Barrier;

use lisp::{CompiledProgram, Options};
use mipsx::DecodedProgram;
use proptest::prelude::*;
use synth::{generate, render, OpMix};
use tagstudy::Config;

/// The index and both sides of the first difference between two slices.
fn first_difference<T: PartialEq + std::fmt::Debug>(a: &[T], b: &[T]) -> Option<String> {
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        return Some(format!("at {i}: linked {:?}, reference {:?}", a[i], b[i]));
    }
    (a.len() != b.len())
        .then(|| format!("lengths differ: linked {}, reference {}", a.len(), b.len()))
}

/// Assert that `linked` equals `reference`, naming the first field (and the
/// first position in it) that differs.
fn assert_same(linked: &CompiledProgram, reference: &CompiledProgram, what: &str) {
    let (l, r) = (&linked.program, &reference.program);
    if let Some(d) = first_difference(&l.insns, &r.insns) {
        panic!("{what}: insns differ {d}");
    }
    if let Some(d) = first_difference(&l.annots, &r.annots) {
        panic!("{what}: annots differ {d}");
    }
    assert_eq!(l.entry, r.entry, "{what}: entry");
    if let Some(d) = first_difference(&l.data, &r.data) {
        panic!("{what}: data differ {d}");
    }
    assert_eq!(l.symbols, r.symbols, "{what}: symbols");
    assert_eq!(l.symtab, r.symtab, "{what}: symtab");
    assert_eq!(linked.mem_bytes, reference.mem_bytes, "{what}: mem_bytes");
    assert_eq!(linked.hw, reference.hw, "{what}: hw");
    assert_eq!(linked.stats, reference.stats, "{what}: stats");
    assert_eq!(linked.schedule, reference.schedule, "{what}: schedule");
    assert_same_predecode(linked, reference, what);
}

/// Assert that `linked`'s predecode equals the full decode of `reference`'s
/// program under the same hardware, naming the first op that differs.
fn assert_same_predecode(linked: &CompiledProgram, reference: &CompiledProgram, what: &str) {
    let spliced = linked.predecode();
    let full = DecodedProgram::decode(&reference.program, reference.hw);
    if spliced != full {
        let [s, f] = [&spliced, &full].map(|d| format!("{d:#?}"));
        let (s, f): (Vec<_>, Vec<_>) = (s.lines().collect(), f.lines().collect());
        let d = first_difference(&s, &f).expect("unequal programs print differently");
        panic!("{what}: predecode differs from the full decode, line {d}");
    }
}

/// Compile `unit` both ways under `opts` and compare; both must agree on
/// success or on the error.
fn check(unit: &lisp::ast::Unit, opts: &Options, what: &str) -> Option<CompiledProgram> {
    let linked = lisp::compile_unit(unit, opts);
    let reference = lisp::compile_unit_reference(unit, opts);
    match (linked, reference) {
        (Ok(l), Ok(r)) => {
            assert_same(&l, &r, what);
            Some(l)
        }
        (Err(l), Err(r)) => {
            assert_eq!(l, r, "{what}: errors differ");
            None
        }
        (l, r) => panic!("{what}: linked {:?} but reference {:?}", l.err(), r.err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn linked_compile_equals_reference_on_synth_programs(seed in any::<u64>(), axis in 0u32..8) {
        let mix = OpMix::lerp(&OpMix::list_heavy(), &OpMix::arith_heavy(), f64::from(axis) / 7.0);
        let source = render(&generate(seed, &mix));
        let unit = synth::oracle::lower(&source).expect("generated programs lower");
        for config in Config::matrix() {
            let what = format!("seed {seed} axis {axis} {}", config.name());
            check(&unit, &config.to_options(), &what).expect("generated programs compile");
        }
    }
}

/// Heap and stack sizes are relocations, not part of the image's key: the
/// paper's programs link identically under sizes the image was not built
/// with, down to the smallest semispace the daemon accepts inline (0 bytes,
/// beside the default stack).
#[test]
fn paper_programs_link_under_other_heap_and_stack_sizes() {
    let sizes = [(0, Options::default().stack_bytes), (96 << 10, 40 << 10)];
    for b in programs::all() {
        let unit = lisp::lower_sources(&[lisp::PRELUDE, b.source]).expect("benchmark lowers");
        for config in Config::matrix() {
            for (heap_semi_bytes, stack_bytes) in sizes {
                let opts = Options {
                    heap_semi_bytes,
                    stack_bytes,
                    ..config.to_options()
                };
                let what = format!(
                    "{} {} heap {heap_semi_bytes} stack {stack_bytes}",
                    b.name,
                    config.name()
                );
                check(&unit, &opts, &what).expect("benchmark compiles");
            }
        }
    }
}

/// A unit lowered without the prelude links against the runtime alone.
#[test]
fn prelude_less_unit_links_against_the_runtime_alone() {
    let unit = lisp::lower_sources(&["(defun f (x) (plus x 1)) (wrint (f 41))"]).expect("lowers");
    assert_eq!(unit.prelude(), None);
    for config in Config::matrix() {
        let c = check(&unit, &config.to_options(), &config.name()).expect("compiles");
        assert_eq!(c.stats.procedures, 1);
        let outcome = lisp::run(&c, 1_000_000).expect("runs");
        assert_eq!(outcome.output, "42", "{}", config.name());
    }
}

/// The smallest program still links the whole prelude and runtime in.
#[test]
fn print_one_links_and_runs() {
    let unit = synth::oracle::lower("(print 1)").expect("lowers");
    let prefix = unit.prelude().expect("lowered with the prelude");
    assert_eq!(
        prefix.fns,
        unit.fns.len(),
        "every function is the prelude's"
    );
    for config in Config::matrix() {
        let c = check(&unit, &config.to_options(), &config.name()).expect("compiles");
        let outcome = lisp::run(&c, 1_000_000).expect("runs");
        assert_eq!(outcome.output, "1\n", "{}", config.name());
    }
}

/// Two threads that compile under the same options at once, while the image
/// for them does not exist yet, get the same program. No other test here
/// compiles with the preshifted pair tag, so no other test builds this image
/// first.
#[test]
fn concurrent_first_compiles_agree() {
    let unit = synth::oracle::lower("(defun sq (x) (times x x)) (print (sq 12))").expect("lowers");
    let opts = Options {
        hw: mipsx::HwConfig::with_tag_branch(),
        preshifted_pair_tag: true,
        int_test_method: lisp::IntTestMethod::TagCompare,
        ..Options::default()
    };
    let barrier = Barrier::new(2);
    let programs: Vec<CompiledProgram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    lisp::compile_unit(&unit, &opts).expect("compiles")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    assert_same(&programs[0], &programs[1], "thread 0 against thread 1");
    let reference = lisp::compile_unit_reference(&unit, &opts).expect("compiles");
    assert_same(&programs[0], &reference, "threads against the reference");
    assert_eq!(
        lisp::run(&programs[0], 1_000_000).expect("runs").output,
        "144\n"
    );
}
