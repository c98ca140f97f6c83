//! Top-level compilation pipeline and execution helpers.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mipsx::sched::{schedule_and_attribute, ScheduleReport};
use mipsx::{
    AnyExecutor, Asm, Backend, DecodedProgram, Executor, FastCpu, HwConfig, Outcome, Program,
    SimError, SymbolTable,
};
use tagword::TagScheme;

use crate::ast::Unit;
use crate::codegen::Codegen;
use crate::error::CompileError;
use crate::front::{lower_sources, CheckingMode};
use crate::image::{image, labels, Image, Placement};
use crate::layout::{Layout, SYM_FNCODE};
use crate::prelude::PRELUDE;
use crate::runtime::emit_runtime;
use crate::tagops::{IntTestMethod, TagOps};

/// Compilation options: everything the paper varies, plus sizing.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Tag-implementation scheme.
    pub scheme: TagScheme,
    /// Hardware support the generated code may assume.
    pub hw: HwConfig,
    /// Run-time checking mode.
    pub checking: CheckingMode,
    /// §3.1 ablation: keep a preshifted pair tag in a register.
    pub preshifted_pair_tag: bool,
    /// §4.1: which integer test high-tag schemes emit.
    pub int_test_method: IntTestMethod,
    /// Bytes per GC semispace.
    pub heap_semi_bytes: u32,
    /// Bytes of Lisp stack.
    pub stack_bytes: u32,
    /// Link the system library (prelude) in. On by default; only the smallest
    /// unit tests turn it off.
    pub include_prelude: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scheme: TagScheme::HighTag5,
            hw: HwConfig::plain(),
            checking: CheckingMode::None,
            preshifted_pair_tag: false,
            int_test_method: IntTestMethod::default(),
            heap_semi_bytes: 768 << 10,
            stack_bytes: 256 << 10,
            include_prelude: true,
        }
    }
}

impl Options {
    /// Convenience: default options with the given scheme and checking mode.
    pub fn new(scheme: TagScheme, checking: CheckingMode) -> Options {
        Options {
            scheme,
            checking,
            ..Options::default()
        }
    }

    /// The tag-operation emitter these options select.
    pub(crate) fn tag_ops(&self) -> TagOps {
        TagOps {
            scheme: self.scheme,
            hw: self.hw,
            checking: self.checking,
            preshifted_pair_tag: self.preshifted_pair_tag,
            int_test_method: self.int_test_method,
        }
    }
}

/// Static program statistics (the paper's Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of procedures compiled (user program + linked system modules).
    pub procedures: usize,
    /// Source lines without comments/blanks.
    pub source_lines: usize,
    /// Words of object code.
    pub object_words: usize,
}

/// A compiled, verified, ready-to-run program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The executable image.
    pub program: Program,
    /// Simulated memory size it needs.
    pub mem_bytes: usize,
    /// Hardware configuration it was compiled for.
    pub hw: HwConfig,
    /// Table 3 statistics.
    pub stats: CompileStats,
    /// What the delay-slot scheduler achieved.
    pub schedule: ScheduleReport,
    /// The system image `program` was linked from, and where it went;
    /// `None` for the one-piece reference compile.
    linked: Option<Linked>,
}

/// A linked program's system image and placement.
#[derive(Clone)]
struct Linked {
    image: Arc<Image>,
    at: Placement,
}

/// The image is shared and large: show only where it went.
impl fmt::Debug for Linked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Linked")
            .field("at", &self.at)
            .finish_non_exhaustive()
    }
}

impl CompiledProgram {
    /// `program` lowered to micro-ops for `hw`: what the fast backend runs.
    ///
    /// Equal to [`DecodedProgram::decode`]`(&self.program, self.hw)`. A
    /// program linked against a system image decodes only its own code and
    /// the image positions its placement or `hw`'s cycle costs change, and
    /// copies the rest from the image, which decodes itself once
    /// (DESIGN.md §4a).
    ///
    /// # Errors
    ///
    /// As [`DecodedProgram::decode`].
    pub fn predecode(&self) -> Result<DecodedProgram, SimError> {
        match &self.linked {
            Some(l) => l.image.predecode(l.at, &self.program, self.hw),
            None => DecodedProgram::decode(&self.program, self.hw),
        }
    }
}

/// Compile `source` under `opts`: [`lower_sources`] on the prelude (unless
/// `opts.include_prelude` is off) and `source`, then [`compile_unit`].
///
/// The lowered [`Unit`] does not depend on `opts`. A caller that compiles one
/// source under many configurations should lower it once and call
/// [`compile_unit`] per configuration instead: the object code is the same.
///
/// # Errors
///
/// Any [`CompileError`]: reader errors, unknown names, arity mismatches, literals
/// that don't fit the scheme, or (indicating a code-generator bug) assembly and
/// verification failures.
pub fn compile(source: &str, opts: &Options) -> Result<CompiledProgram, CompileError> {
    let sources: &[&str] = if opts.include_prelude {
        &[PRELUDE, source]
    } else {
        &[source]
    };
    compile_unit(&lower_sources(sources)?, opts)
}

/// Generate, schedule, assemble and verify an already-lowered [`Unit`] under
/// `opts`.
///
/// A `Unit` is independent of [`Options`]: the scheme, checking mode and
/// hardware only enter here, so one `Unit` compiles under every
/// configuration. `opts.include_prelude` is not read; whether the prelude is
/// linked in was decided when the `Unit` was lowered.
///
/// Only `main` and the unit's own functions are generated here. The
/// prelude's functions and the runtime come from a system image, built once
/// per process for each code-shaping configuration and linked in (DESIGN.md
/// §4a). The object code is the one [`compile_unit_reference`] generates in
/// one piece.
///
/// # Errors
///
/// Literals that don't fit the scheme, and (indicating a code-generator bug)
/// assembly and verification failures.
pub fn compile_unit(unit: &Unit, opts: &Options) -> Result<CompiledProgram, CompileError> {
    let mut layout = Layout::build(unit, opts.scheme, opts.heap_semi_bytes, opts.stack_bytes)?;
    let mut asm = Asm::new();
    let (rt, fn_labels) = labels(&mut asm, unit.fns.len());
    let cg = Codegen {
        unit,
        layout: &layout,
        t: opts.tag_ops(),
        rt,
        fn_labels,
    };
    // Errors surface in the reference's order: main, the prelude, the rest.
    let entry = cg.emit_main(&mut asm)?;
    asm.set_entry(entry);
    let image = image(cg.t, unit.prelude().is_some())?;
    assert_eq!(
        image.prefix,
        unit.prelude(),
        "the image was built from the prelude this unit was lowered with"
    );
    let shared = unit.prelude().map_or(0, |p| p.fns);
    for (f, label) in unit.fns.iter().zip(&cg.fn_labels).skip(shared) {
        cg.emit_fn(&mut asm, f, *label)?;
    }
    let fn_labels = cg.fn_labels;
    let own_schedule = schedule_and_attribute(&mut asm);

    let main_len = fn_labels
        .get(shared)
        .map_or(asm.len(), |&l| asm.position(l).expect("emitted above"));
    let at = image.placement(main_len, asm.len());
    let part = asm
        .finish_part(|pos| at.own(pos), |l| image.import(at, l))
        .map_err(|e| CompileError::Asm(e.to_string()))?;
    let (insns, annots) = image.link(at, &part.insns, &part.annots, &layout);
    let mut symbols: HashMap<String, usize> = part.symbols.into_iter().collect();
    symbols.extend(image.symbols(at));
    let symtab = SymbolTable::build(&symbols, &insns);

    // Patch each symbol's function cell with the function's code index
    // (funcall dispatches through these).
    let mut data = std::mem::take(&mut layout.data);
    for (f, label) in unit.fns.iter().zip(&fn_labels) {
        let idx = part.labels[label.id() as usize]
            .or_else(|| image.import(at, *label))
            .expect("every function is placed");
        let sym = &layout.symbols[layout.sym_ids[&f.name]];
        data.push(((sym.addr as i32 + SYM_FNCODE) as u32, idx as u32));
    }

    let program = Program {
        insns,
        annots,
        entry: part.entry.expect("the entry is set above"),
        data,
        symbols,
        symtab,
    };
    let schedule = ScheduleReport {
        slots_filled: own_schedule.slots_filled + image.schedule.slots_filled,
        load_nops_inserted: own_schedule.load_nops_inserted + image.schedule.load_nops_inserted,
    };
    let linked = Some(Linked { image, at });
    verified(unit, opts, program, layout.mem_bytes, schedule, linked)
}

/// [`compile_unit`] in one piece, without the system image: generate,
/// schedule and assemble `main`, every function and the runtime together.
///
/// This is the reference the linked compile is held to, as
/// [`mipsx::RefCpu`] is for the predecoded executor: it produces the same
/// [`CompiledProgram`], field by field, only slower. Nothing selects it at
/// run time; tests and the `compile` study call it.
///
/// # Errors
///
/// As [`compile_unit`].
pub fn compile_unit_reference(
    unit: &Unit,
    opts: &Options,
) -> Result<CompiledProgram, CompileError> {
    let layout = Layout::build(unit, opts.scheme, opts.heap_semi_bytes, opts.stack_bytes)?;

    let mut asm = Asm::new();
    let (rt, fn_labels) = labels(&mut asm, unit.fns.len());
    let cg = Codegen {
        unit,
        layout: &layout,
        t: opts.tag_ops(),
        rt,
        fn_labels,
    };

    let entry = cg.emit_main(&mut asm)?;
    asm.set_entry(entry);
    for (f, label) in unit.fns.iter().zip(cg.fn_labels.iter()) {
        cg.emit_fn(&mut asm, f, *label)?;
    }
    emit_runtime(&mut asm, &cg.t, &layout, &rt);

    for &(a, w) in &layout.data {
        asm.data(a, w);
    }

    let schedule = schedule_and_attribute(&mut asm);
    let mut program = asm.finish().map_err(|e| CompileError::Asm(e.to_string()))?;

    // Patch each symbol's function cell with the resolved code index (funcall
    // dispatches through these).
    for f in &unit.fns {
        let idx = *program
            .symbols
            .get(&format!("fn:{}", f.name))
            .expect("every function label is named");
        let sym = &layout.symbols[layout.sym_ids[&f.name]];
        program
            .data
            .push(((sym.addr as i32 + SYM_FNCODE) as u32, idx as u32));
    }

    verified(unit, opts, program, layout.mem_bytes, schedule, None)
}

/// Verify `program` and wrap it with its Table 3 statistics.
fn verified(
    unit: &Unit,
    opts: &Options,
    program: Program,
    mem_bytes: usize,
    schedule: ScheduleReport,
    linked: Option<Linked>,
) -> Result<CompiledProgram, CompileError> {
    mipsx::verify::verify(&program).map_err(|e| CompileError::Verify(e.to_string()))?;
    let stats = CompileStats {
        procedures: unit.fns.len(),
        source_lines: unit.source_lines,
        object_words: program.insns.len(),
    };
    Ok(CompiledProgram {
        program,
        mem_bytes,
        hw: opts.hw,
        stats,
        schedule,
        linked,
    })
}

/// Run a compiled program to completion under its compiled-for hardware, on
/// the default [`Backend`].
///
/// # Errors
///
/// [`SimError`] on a runaway program (`OutOfFuel`) or a code-generation bug.
pub fn run(c: &CompiledProgram, max_cycles: u64) -> Result<Outcome, SimError> {
    run_with(c, Backend::default(), max_cycles)
}

/// Run a compiled program on an explicit execution backend. All backends
/// produce identical [`Outcome`]s (see [`mipsx::exec`]); the choice only
/// affects wall-clock speed.
///
/// # Errors
///
/// See [`run`]; additionally [`SimError::MissingHardware`] at predecode time
/// if the code uses a hardware feature `c.hw` lacks (a compiler bug — the
/// program is compiled for that configuration).
pub fn run_with(
    c: &CompiledProgram,
    backend: Backend,
    max_cycles: u64,
) -> Result<Outcome, SimError> {
    executor(c, backend)?.run(max_cycles)
}

/// An executor of kind `backend` for `c`, the fast one over
/// [`CompiledProgram::predecode`].
fn executor(c: &CompiledProgram, backend: Backend) -> Result<AnyExecutor<'_>, SimError> {
    match backend {
        Backend::Fast => {
            let cpu = FastCpu::from_decoded(&c.program, c.predecode()?, c.mem_bytes);
            Ok(AnyExecutor::Fast(Box::new(cpu)))
        }
        Backend::Ref => backend.executor(&c.program, c.hw, c.mem_bytes),
    }
}

/// [`run`], reporting every retired instruction to `obs` (see
/// [`mipsx::trace`]). Used by the conformance harness to compare the pipelined
/// simulator against the reference executor.
///
/// # Errors
///
/// See [`run`]; additionally [`SimError::Stopped`] if the observer breaks.
pub fn run_observed<O: mipsx::trace::Observer>(
    c: &CompiledProgram,
    max_cycles: u64,
    obs: &mut O,
) -> Result<Outcome, SimError> {
    run_observed_with(c, Backend::default(), max_cycles, obs)
}

/// [`run_observed`] on an explicit execution backend: the backend-equivalence
/// suite compares the retirement streams this produces across backends.
///
/// # Errors
///
/// See [`run_with`] and [`run_observed`].
pub fn run_observed_with<O: mipsx::trace::Observer>(
    c: &CompiledProgram,
    backend: Backend,
    max_cycles: u64,
    obs: &mut O,
) -> Result<Outcome, SimError> {
    executor(c, backend)?.run_observed(max_cycles, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::exit_code;
    use mipsx::ParallelCheck;
    use tagword::ALL_SCHEMES;

    const FUEL: u64 = 50_000_000;

    fn run_src(src: &str, opts: &Options) -> Outcome {
        let c = compile(src, opts).expect("compiles");
        run(&c, FUEL).expect("runs")
    }

    /// Every (scheme, checking, hardware) combination we exercise in tests.
    fn all_configs() -> Vec<Options> {
        let mut v = Vec::new();
        for scheme in ALL_SCHEMES {
            for checking in [CheckingMode::None, CheckingMode::Full] {
                v.push(Options::new(scheme, checking));
                v.push(Options {
                    hw: HwConfig::with_tag_branch(),
                    ..Options::new(scheme, checking)
                });
                v.push(Options {
                    hw: HwConfig::maximal(scheme.tag_bits()),
                    ..Options::new(scheme, checking)
                });
            }
        }
        v
    }

    #[test]
    fn arithmetic_prints() {
        for opts in all_configs() {
            let o = run_src("(print (plus 40 2))", &opts);
            assert_eq!(o.halt_code, exit_code::OK, "{opts:?}");
            assert_eq!(o.output, "42\n", "{opts:?}");
        }
    }

    #[test]
    fn negative_arithmetic() {
        for opts in all_configs() {
            let o = run_src("(print (difference 3 10)) (print (times -4 6)) (print (quotient -12 4)) (print (remainder 7 3))", &opts);
            assert_eq!(o.output, "-7\n-24\n-3\n1\n", "{opts:?}");
        }
    }

    #[test]
    fn list_structure_and_printing() {
        for opts in all_configs() {
            let o = run_src("(print (cons 1 (cons 2 nil))) (print '(a (b) . c))", &opts);
            assert_eq!(o.output, "(1 2)\n(a (b) . c)\n", "{opts:?}");
        }
    }

    #[test]
    fn defun_recursion_fib() {
        let src = "(defun fib (n) (if (lessp n 2) n (plus (fib (sub1 n)) (fib (difference n 2))))) (print (fib 10))";
        for opts in all_configs() {
            let o = run_src(src, &opts);
            assert_eq!(o.output, "55\n", "{opts:?}");
        }
    }

    #[test]
    fn let_setq_while() {
        let src = "(defun sum-to (n) (let ((s 0) (i 1)) (while (leq i n) (setq s (plus s i)) (setq i (add1 i))) s)) (print (sum-to 100))";
        for opts in all_configs() {
            assert_eq!(run_src(src, &opts).output, "5050\n", "{opts:?}");
        }
    }

    #[test]
    fn prelude_functions() {
        let src = r#"
            (print (append '(1 2) '(3 4)))
            (print (reverse '(a b c)))
            (print (length '(x y z)))
            (print (assq 'b '((a . 1) (b . 2))))
            (print (member '(1) '(0 (1) 2)))
            (print (equal '(a (b c)) '(a (b c))))
        "#;
        for opts in all_configs() {
            let o = run_src(src, &opts);
            assert_eq!(
                o.output, "(1 2 3 4)\n(c b a)\n3\n(b . 2)\n((1) 2)\nt\n",
                "{opts:?}"
            );
        }
    }

    #[test]
    fn vectors_work() {
        let src = r#"
            (defvar v (mkvect 5))
            (putv v 0 10)
            (putv v 4 'end)
            (print (getv v 0))
            (print (getv v 4))
            (print (upbv v))
            (print v)
        "#;
        for opts in all_configs() {
            let o = run_src(src, &opts);
            assert_eq!(o.output, "10\nend\n5\n[10 nil nil nil end]\n", "{opts:?}");
        }
    }

    #[test]
    fn property_lists() {
        let src = r#"
            (put 'apple 'color 'red)
            (put 'apple 'size 3)
            (put 'apple 'color 'green)
            (print (get 'apple 'color))
            (print (get 'apple 'size))
            (print (get 'apple 'taste))
        "#;
        for opts in all_configs() {
            assert_eq!(run_src(src, &opts).output, "green\n3\nnil\n", "{opts:?}");
        }
    }

    #[test]
    fn funcall_through_symbols() {
        let src = r#"
            (defun double (x) (times x 2))
            (print (funcall 'double 21))
            (print (mapcar1 'double '(1 2 3)))
        "#;
        for opts in all_configs() {
            assert_eq!(run_src(src, &opts).output, "42\n(2 4 6)\n", "{opts:?}");
        }
    }

    #[test]
    fn gc_preserves_live_data() {
        // Allocate garbage in a loop with a tiny heap; keep one live structure.
        let src = r#"
            (defvar keep (list 1 2 3))
            (defun churn (n)
              (while (greaterp n 0)
                (list n n n n n n n n)
                (setq n (sub1 n))))
            (churn 3000)
            (print keep)
            (print (length keep))
        "#;
        for scheme in ALL_SCHEMES {
            for checking in [CheckingMode::None, CheckingMode::Full] {
                let opts = Options {
                    heap_semi_bytes: 32 << 10,
                    ..Options::new(scheme, checking)
                };
                let o = run_src(src, &opts);
                assert_eq!(o.output, "(1 2 3)\n3\n", "{scheme} {checking:?}");
            }
        }
    }

    #[test]
    fn gc_moves_vectors_and_floats() {
        let src = r#"
            (defvar v (mkvect 3))
            (putv v 1 (cons 'a 'b))
            (defvar f (float 3))
            (defun churn (n)
              (while (greaterp n 0)
                (mkvect 7)
                (setq n (sub1 n))))
            (churn 2000)
            (print (getv v 1))
            (print (floatp f))
        "#;
        for scheme in ALL_SCHEMES {
            let opts = Options {
                heap_semi_bytes: 32 << 10,
                ..Options::new(scheme, CheckingMode::Full)
            };
            let o = run_src(src, &opts);
            assert_eq!(o.output, "(a . b)\nt\n", "{scheme}");
        }
    }

    #[test]
    fn reclaim_forces_collection() {
        let src = "(defvar x (list 1 2)) (reclaim) (print x)";
        for opts in all_configs() {
            assert_eq!(run_src(src, &opts).output, "(1 2)\n", "{opts:?}");
        }
    }

    #[test]
    fn float_arithmetic_type_specific() {
        let src = "(print (flessp (fplus (float 1) (float 2)) (float 4)))";
        for opts in all_configs() {
            assert_eq!(run_src(src, &opts).output, "t\n", "{opts:?}");
        }
    }

    #[test]
    fn generic_arith_falls_back_to_floats_when_checking() {
        // With full checking, plus on floats must dispatch to the float path.
        let src = "(print (floatp (plus (float 1) (float 2)))) (print (lessp (float 1) 2))";
        for scheme in ALL_SCHEMES {
            for hw in [HwConfig::plain(), HwConfig::with_generic_arith()] {
                let opts = Options {
                    hw,
                    ..Options::new(scheme, CheckingMode::Full)
                };
                let o = run_src(src, &opts);
                assert_eq!(
                    o.output, "t\nt\n",
                    "{scheme} generic_arith={}",
                    hw.generic_arith
                );
            }
        }
    }

    #[test]
    fn checking_catches_type_errors() {
        // car of an integer must hit the error stop (checking mode only).
        let opts = Options::new(TagScheme::HighTag5, CheckingMode::Full);
        let c = compile("(car 5)", &opts).unwrap();
        let o = run(&c, FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_CAR);

        let o = run(&compile("(getv (mkvect 2) 7)", &opts).unwrap(), FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_BOUNDS);

        let o = run(&compile("(plus 'a 1)", &opts).unwrap(), FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_ARITH);

        let o = run(&compile("(quotient 1 0)", &opts).unwrap(), FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_DIV0);

        let o = run(&compile("(funcall 'no-def 1)", &opts).unwrap(), FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_FUNCALL);
    }

    #[test]
    fn parallel_check_hardware_catches_errors_too() {
        let opts = Options {
            hw: HwConfig::with_parallel_check(ParallelCheck::All),
            ..Options::new(TagScheme::HighTag5, CheckingMode::Full)
        };
        let o = run(&compile("(car 5)", &opts).unwrap(), FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_CAR);
        assert!(
            o.stats.traps >= 1,
            "hardware detected the mismatch via a trap"
        );
    }

    #[test]
    fn checking_costs_more() {
        let src = "(defun fib (n) (if (lessp n 2) n (plus (fib (sub1 n)) (fib (difference n 2))))) (fib 12)";
        for scheme in ALL_SCHEMES {
            let none = run_src(src, &Options::new(scheme, CheckingMode::None));
            let full = run_src(src, &Options::new(scheme, CheckingMode::Full));
            assert!(
                full.stats.cycles > none.stats.cycles,
                "{scheme}: checking must cost cycles ({} vs {})",
                full.stats.cycles,
                none.stats.cycles
            );
        }
    }

    #[test]
    fn cons_overflow_detected() {
        // Exceeding the fixnum range must stop with an overflow error under
        // full checking (no bignums).
        let max = TagScheme::HighTag5.max_int();
        let src = format!("(plus {max} 1)");
        let opts = Options::new(TagScheme::HighTag5, CheckingMode::Full);
        let o = run(&compile(&src, &opts).unwrap(), FUEL).unwrap();
        assert_eq!(o.halt_code, exit_code::ERR_OVERFLOW);
    }

    #[test]
    fn stats_are_populated() {
        let c = compile("(defun f (x) x) (f 1)", &Options::default()).unwrap();
        assert!(c.stats.procedures > 20, "prelude counts");
        assert!(c.stats.object_words > 100);
        assert!(c.stats.source_lines > 50);
        assert!(c.schedule.slots_filled > 0, "the scheduler found work");
    }

    #[test]
    fn tag_cycles_are_attributed() {
        let src = "(defun f (l) (if (pairp l) (f (cdr l)) l)) (f '(1 2 3 4 5))";
        let o = run_src(src, &Options::new(TagScheme::HighTag5, CheckingMode::None));
        use mipsx::TagOpKind::*;
        assert!(o.stats.tag_op_cycles(Check) > 0, "source-level pairp tests");
        assert!(o.stats.tag_op_cycles(Remove) > 0, "cdr masks pointers");
        let full = run_src(src, &Options::new(TagScheme::HighTag5, CheckingMode::Full));
        assert!(
            full.stats.checking_cycles(mipsx::CheckCat::List) > 0,
            "cdr checks are list-category checking cycles"
        );
    }

    #[test]
    fn preshifted_pair_tag_saves_insertion_cycles() {
        let src = "(defun build (n) (if (greaterp n 0) (cons n (build (sub1 n))) nil)) (build 500)";
        let base = run_src(src, &Options::new(TagScheme::HighTag5, CheckingMode::None));
        let pre = run_src(
            src,
            &Options {
                preshifted_pair_tag: true,
                ..Options::new(TagScheme::HighTag5, CheckingMode::None)
            },
        );
        assert!(pre.stats.cycles < base.stats.cycles);
        use mipsx::TagOpKind::Insert;
        assert!(pre.stats.tag_op_cycles(Insert) < base.stats.tag_op_cycles(Insert));
    }
}
