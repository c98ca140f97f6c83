//! The system image: the prelude's functions and the runtime, generated,
//! scheduled and assembled once per code-shaping configuration, then linked
//! into every program compiled under it.
//!
//! The paper's programs ran on a prebuilt PSL system whose "11000 lines"
//! include the Utah system code; the image is that system, built once per
//! process instead of once per compile.
//!
//! # Why linking gives the monolithic object code
//!
//! [`crate::compile_unit`] lays a program out as `main`, the prelude's
//! functions, the program's own functions, then the runtime. Each of those
//! pieces starts at a bound label and ends in a `halt` or in a jump's delay
//! slot, so no basic block, delay-slot group or load delay spans two pieces.
//! The delay-slot scheduler works inside basic blocks, so scheduling the
//! pieces apart gives what scheduling them together does. What the prelude's
//! and the runtime's code does depend on is where things landed:
//!
//! - **code targets**: every instruction with a code target in the image
//!   moves with the two pieces it is split into;
//! - **layout operands**: constants' words, runtime-cell and root-table
//!   addresses, the stack and heap bounds and the semispace size. Code
//!   generation tags each of them with a [`Reloc`] when it emits it, and the
//!   linker recomputes it from the program's own layout.
//!
//! So the key of an image holds only what shapes code: the emitter's
//! [`TagOps::code_shape`] (scheme, hardware feature gates, checking, the two
//! code-generation ablations) and whether the prelude is in. Cycle costs and
//! heap and stack sizes are not in it. That bounds the memo at 1,536 images
//! of at most about 90 KB each, plus at most about 130 KB for the decoded
//! stream of each image a program has run against (DESIGN.md §4a). A
//! program cannot redefine a prelude function ([`crate::lower_sources`]
//! refuses a duplicate `defun`), so every unit lowered with the prelude
//! links against it and no fallback exists. The pre-image monolithic compile survives as
//! [`crate::compile_unit_reference`], the oracle the tests hold the linked
//! output to.
//!
//! # Predecoding once
//!
//! On the first fast run of a program linked against it, an image decodes
//! its own stream to micro-ops ([`mipsx::DecodedProgram`]) under its key's
//! hardware: the code shape's feature gates, with plain cycle costs. It also
//! records, when it is built, the positions each program must decode afresh:
//! every code target, every layout operand, and every op whose cost the
//! hardware sets (multiply, divide, remainder, float). A program's predecode
//! ([`crate::CompiledProgram::predecode`]) then copies the rest and decodes
//! only its own code and those positions ([`mipsx::DecodedProgram::splice`]),
//! relinking runs only where a copied op's successors changed.
//!
//! The image's symbol table is built once too: a program's table shifts its
//! regions and call sites and merges in the program's own names
//! ([`mipsx::SymbolTable::splice`]), and every program shares the image's
//! names.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mipsx::sched::{schedule_and_attribute, ScheduleReport};
use mipsx::{Annot, Asm, DecodedProgram, HwConfig, Insn, Label, Program, SimError, SymbolTable};

use crate::ast::{PreludePrefix, Unit};
use crate::codegen::Codegen;
use crate::compile::Options;
use crate::error::CompileError;
use crate::front::lower_sources;
use crate::layout::{Layout, Reloc};
use crate::prelude::PRELUDE;
use crate::runtime::{emit_runtime, RtLabels};
use crate::tagops::TagOps;

/// The runtime's labels, then one label per function of a unit with `fns`
/// functions. Both the image and the programs linked against it create their
/// labels this way, so a program's label for a runtime routine or a prelude
/// function has the id of the image's label for it.
pub(crate) fn labels(asm: &mut Asm, fns: usize) -> (RtLabels, Vec<Label>) {
    let rt = RtLabels::create(asm);
    let fn_labels = (0..fns).map(|_| asm.new_label()).collect();
    (rt, fn_labels)
}

/// The prelude's functions and the runtime, scheduled and assembled.
#[derive(Debug)]
pub(crate) struct Image {
    /// The prelude's functions, then the runtime; code targets are positions
    /// in this stream.
    insns: Vec<Insn>,
    annots: Vec<Annot>,
    /// Where the runtime starts.
    prelude_len: usize,
    /// Every instruction with a code target.
    targets: Vec<usize>,
    /// Every layout-derived operand.
    relocs: Vec<(usize, Reloc)>,
    /// The hardware the stream is decoded under: the key's feature gates,
    /// with plain cycle costs.
    hw: HwConfig,
    /// The stream decoded under `hw`, once a program linked against it runs.
    decoded: OnceLock<Result<DecodedProgram, SimError>>,
    /// Every position whose op a program must decode afresh, ascending: code
    /// targets, layout operands and ops whose cost the hardware sets.
    fresh: Vec<usize>,
    symbols: Vec<(Arc<str>, usize)>,
    /// The symbol table of the stream alone: its regions and call sites,
    /// which a program's table shifts instead of rebuilding.
    symtab: SymbolTable,
    /// Position of each label a program imports, by label id: the runtime's
    /// entries, then the prelude's functions (see [`labels`]).
    exports: Vec<usize>,
    /// What the prelude contributed to the unit the image was built from.
    pub(crate) prefix: Option<PreludePrefix>,
    /// What the scheduler did to the image.
    pub(crate) schedule: ScheduleReport,
}

/// The image a unit emitted by `t` links against, with or without the
/// prelude's functions, built on first use and shared by every later compile
/// in the process. The memo is keyed by `t`'s [`TagOps::code_shape`], so
/// emitters that differ only in what does not shape code share one image. A
/// thread asking while another builds the same image waits for it rather
/// than building a second one.
pub(crate) fn image(t: TagOps, prelude: bool) -> Result<Arc<Image>, CompileError> {
    type Slot = Arc<OnceLock<Result<Arc<Image>, CompileError>>>;
    static IMAGES: OnceLock<Mutex<HashMap<(TagOps, bool), Slot>>> = OnceLock::new();
    let t = t.code_shape();
    let slot = IMAGES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry((t, prelude))
        .or_default()
        .clone();
    slot.get_or_init(|| Image::build(t, prelude).map(Arc::new))
        .clone()
}

impl Image {
    /// Generate, schedule and assemble the image under a reference layout of
    /// the prelude alone.
    fn build(t: TagOps, prelude: bool) -> Result<Image, CompileError> {
        // The prelude lowered alone: every configuration's image shares it.
        static PRELUDE_UNIT: OnceLock<Result<Unit, CompileError>> = OnceLock::new();
        let runtime_only = Unit::default();
        let unit = if prelude {
            PRELUDE_UNIT
                .get_or_init(|| lower_sources(&[PRELUDE]))
                .as_ref()
                .map_err(Clone::clone)?
        } else {
            &runtime_only
        };
        let sizing = Options::default();
        let layout = Layout::build(unit, t.scheme, sizing.heap_semi_bytes, sizing.stack_bytes)?;
        let mut asm = Asm::new();
        let (rt, fn_labels) = labels(&mut asm, unit.fns.len());
        // Created right after the exported labels, so its id counts them.
        let runtime = asm.new_label();
        let cg = Codegen {
            unit,
            layout: &layout,
            t,
            rt,
            fn_labels,
        };
        for (f, label) in unit.fns.iter().zip(&cg.fn_labels) {
            cg.emit_fn(&mut asm, f, *label)?;
        }
        // The runtime's first routine binds a label here too, so this one
        // leaves scheduling as it is.
        asm.bind(runtime);
        emit_runtime(&mut asm, &cg.t, &layout, &rt);
        let schedule = schedule_and_attribute(&mut asm);
        let part = asm
            .finish_part(|pos| pos, |_| None)
            .map_err(|e| CompileError::Asm(e.to_string()))?;
        let prelude_len = part.labels[runtime.id() as usize].expect("bound above");
        let exports = part.labels[..runtime.id() as usize]
            .iter()
            .map(|pos| pos.expect("the image binds every label it exports"))
            .collect();
        let targets: Vec<usize> = part
            .insns
            .iter()
            .enumerate()
            .filter(|(_, insn)| {
                let mut has_target = false;
                insn.map_target(&mut |t| {
                    has_target = true;
                    t
                });
                has_target
            })
            .map(|(pos, _)| pos)
            .collect();
        let relocs: Vec<(usize, Reloc)> = part
            .relocs
            .iter()
            .map(|&(pos, tag)| (pos, Reloc::from_tag(tag)))
            .collect();
        let costed = part.insns.iter().enumerate().filter(|(_, insn)| {
            matches!(
                insn,
                Insn::Mul(..) | Insn::Div(..) | Insn::Rem(..) | Insn::Fop(..)
            )
        });
        let mut fresh: Vec<usize> = targets
            .iter()
            .copied()
            .chain(relocs.iter().map(|&(pos, _)| pos))
            .chain(costed.map(|(pos, _)| pos))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        let symtab = SymbolTable::build(&part.symbols.iter().cloned().collect(), &part.insns);
        // A program's table shifts these regions (see `SymbolTable::splice`),
        // which needs a name at the start of each piece.
        let starts =
            [0, prelude_len].map(|pos| pos == part.insns.len() || symtab.entry_at(pos).is_some());
        assert!(
            starts == [true; 2],
            "the image names the start of each piece"
        );
        Ok(Image {
            insns: part.insns,
            annots: part.annots,
            prelude_len,
            targets,
            relocs,
            hw: t.hw,
            decoded: OnceLock::new(),
            fresh,
            symbols: part.symbols,
            symtab,
            exports,
            prefix: unit.prelude(),
            schedule,
        })
    }
}

/// Where the pieces of one linked program go: `main` is `[0, main)`, the
/// image's prelude functions follow, then the program's own `fns`
/// instructions, then the runtime.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    main: usize,
    fns: usize,
    prelude: usize,
}

impl Placement {
    /// The final position of position `pos` of the program's own stream.
    pub(crate) fn own(self, pos: usize) -> usize {
        if pos < self.main {
            pos
        } else {
            pos + self.prelude
        }
    }

    /// Where the image's `len` positions go: its prelude part, then its
    /// runtime, each with the final position of its start.
    pub(crate) fn ranges(self, len: usize) -> [(Range<usize>, usize); 2] {
        [
            (0..self.prelude, self.image(0)),
            (self.prelude..len, self.image(self.prelude)),
        ]
    }

    /// The final position of position `pos` of the image.
    pub(crate) fn image(self, pos: usize) -> usize {
        if pos < self.prelude {
            self.main + pos
        } else {
            self.main + self.fns + pos
        }
    }
}

impl Image {
    /// Where a program stream of `len` instructions, whose own functions
    /// start at `main`, places itself and this image.
    pub(crate) fn placement(&self, main: usize, len: usize) -> Placement {
        Placement {
            main,
            fns: len - main,
            prelude: self.prelude_len,
        }
    }

    /// The final position of the image label a program imports as `label`,
    /// if it is one.
    pub(crate) fn import(&self, at: Placement, label: Label) -> Option<usize> {
        self.exports
            .get(label.id() as usize)
            .map(|&pos| at.image(pos))
    }

    /// Splice the program's own `insns`/`annots` and this image together at
    /// `at`, moving the image's code targets and recomputing its layout
    /// operands under `layout`.
    pub(crate) fn link(
        &self,
        at: Placement,
        insns: &[Insn],
        annots: &[Annot],
        layout: &Layout,
    ) -> (Vec<Insn>, Vec<Annot>) {
        fn splice<T: Copy>(own: &[T], image: &[T], at: Placement) -> Vec<T> {
            let mut out = Vec::with_capacity(own.len() + image.len());
            out.extend_from_slice(&own[..at.main]);
            out.extend_from_slice(&image[..at.prelude]);
            out.extend_from_slice(&own[at.main..]);
            out.extend_from_slice(&image[at.prelude..]);
            out
        }
        let mut out = splice(insns, &self.insns, at);
        for &pos in &self.targets {
            let insn = &mut out[at.image(pos)];
            *insn = insn.map_target(&mut |t| at.image(t as usize) as u32);
        }
        for &(pos, reloc) in &self.relocs {
            let insn = &mut out[at.image(pos)];
            *insn = reloc.patch(*insn, layout);
        }
        (out, splice(annots, &self.annots, at))
    }

    /// Predecode `prog`, linked from this image at `at`, for `hw`: splice
    /// the image's decoded stream, decoding it on first use, with the
    /// program's own code and this image's fresh positions decoded under
    /// `hw`. Equal to [`DecodedProgram::decode`]`(prog, hw)`.
    ///
    /// `hw` must have the feature gates of the key this image was built
    /// under, as every program compiled against it does.
    pub(crate) fn predecode(
        &self,
        at: Placement,
        prog: &Program,
        hw: HwConfig,
    ) -> Result<DecodedProgram, SimError> {
        let decoded = self.decoded.get_or_init(|| {
            let stream = Program {
                insns: self.insns.clone(),
                annots: self.annots.clone(),
                ..Program::default()
            };
            DecodedProgram::decode(&stream, self.hw)
        });
        let Ok(image) = decoded else {
            // The image uses hardware its key lacks: the definition names
            // the lowest offending pc of the program.
            return DecodedProgram::decode(prog, hw);
        };
        let fresh = self.fresh.iter().map(|&pos| at.image(pos));
        DecodedProgram::splice(prog, hw, image, &at.ranges(self.insns.len()), fresh)
    }

    /// The image's named positions, placed at `at`, sharing its names.
    pub(crate) fn symbols(
        &self,
        at: Placement,
    ) -> impl ExactSizeIterator<Item = (Arc<str>, usize)> + '_ {
        self.symbols
            .iter()
            .map(move |(name, pos)| (Arc::clone(name), at.image(*pos)))
    }

    /// The symbol table of `insns`, linked from this image at `at`, whose
    /// own code names `own`.
    pub(crate) fn symtab<'a>(
        &self,
        at: Placement,
        own: impl IntoIterator<Item = (&'a Arc<str>, usize)>,
        insns: &[Insn],
    ) -> SymbolTable {
        SymbolTable::splice(own, insns, &self.symtab, &at.ranges(self.insns.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_unit, compile_unit_reference, run, CompiledProgram};
    use tagword::TagScheme;

    /// Heap and stack sizes are relocations, not key fields: programs
    /// compiled under any sizes share one image, so untrusted sizes cannot
    /// grow the memo.
    #[test]
    fn heap_and_stack_sizes_share_one_image() {
        let unit = lower_sources(&[PRELUDE, "(print 1)"]).expect("lowers");
        let base = Options::default();
        let shared = image(base.tag_ops(), true).expect("builds");
        for (heap_semi_bytes, stack_bytes) in
            [(0, 4 << 10), (40 << 10, 8 << 10), (4 << 20, 1 << 20)]
        {
            let opts = Options {
                heap_semi_bytes,
                stack_bytes,
                ..base
            };
            compile_unit(&unit, &opts).expect("compiles");
            let again = image(opts.tag_ops(), true).expect("memoised");
            assert!(
                Arc::ptr_eq(&shared, &again),
                "{heap_semi_bytes}/{stack_bytes}"
            );
        }
    }

    /// `linked`'s spliced predecode equals the full decode of the
    /// reference's program.
    fn assert_predecode_is_the_reference(linked: &CompiledProgram, reference: &CompiledProgram) {
        assert_eq!(
            linked.predecode(),
            DecodedProgram::decode(&reference.program, reference.hw),
            "{:?}",
            linked.hw
        );
    }

    /// Costs no preset uses, so a copied image op (decoded under plain
    /// costs) that should have been decoded afresh shows.
    fn odd_costs(hw: HwConfig) -> HwConfig {
        HwConfig {
            trap_penalty: 3,
            mul_cycles: 5,
            div_cycles: 7,
            fp_cycles: 9,
            ..hw
        }
    }

    /// Hardware spellings that differ only in cycle costs, or in address-drop
    /// widths on the same side of the tag width, share one image, and the
    /// programs linked against it are still the reference's, down to the
    /// predecoded ops: the cost-bearing ops are decoded afresh.
    #[test]
    fn hardware_that_does_not_shape_code_shares_one_image() {
        let unit = lower_sources(&[
            PRELUDE,
            "(print (car (list 1 2))) (print (times 6 7)) (print (remainder 9 4)) \
             (print (quotient 9 2)) (print (fplus (float 1) (float 2)))",
        ])
        .expect("lowers");
        let scheme = TagScheme::HighTag5;
        for (a, b) in [
            (
                HwConfig::plain(),
                HwConfig::with_address_drop(scheme.tag_bits() - 1),
            ),
            (
                HwConfig::with_address_drop(scheme.tag_bits()),
                HwConfig::with_address_drop(31),
            ),
            (
                HwConfig::with_tag_branch(),
                odd_costs(HwConfig::with_tag_branch()),
            ),
            (
                HwConfig::maximal(scheme.tag_bits()),
                odd_costs(HwConfig::maximal(scheme.tag_bits())),
            ),
        ] {
            let [a, b] = [a, b].map(|hw| Options {
                hw,
                ..Options::new(scheme, crate::CheckingMode::Full)
            });
            let shared = image(a.tag_ops(), true).expect("builds");
            assert!(
                Arc::ptr_eq(&shared, &image(b.tag_ops(), true).expect("memoised")),
                "{:?} / {:?}",
                a.hw,
                b.hw
            );
            let linked = compile_unit(&unit, &b).expect("compiles");
            let reference = compile_unit_reference(&unit, &b).expect("compiles");
            assert_eq!(linked.program.insns, reference.program.insns, "{:?}", b.hw);
            assert_eq!(linked.program.data, reference.program.data, "{:?}", b.hw);
            assert_predecode_is_the_reference(&linked, &reference);
            assert_eq!(
                run(&linked, 50_000_000).expect("runs").stats,
                run(&reference, 50_000_000).expect("runs").stats,
                "{:?}",
                b.hw
            );
        }
    }

    /// A unit lowered without the prelude splices the runtime-only image.
    #[test]
    fn prelude_less_unit_predecodes_as_the_reference() {
        let unit = lower_sources(&["(defun f (x) (times x 3)) (wrint (f 14))"]).expect("lowers");
        for hw in [HwConfig::plain(), odd_costs(HwConfig::with_generic_arith())] {
            let opts = Options {
                hw,
                ..Options::new(TagScheme::LowTag3, crate::CheckingMode::Full)
            };
            let linked = compile_unit(&unit, &opts).expect("compiles");
            let reference = compile_unit_reference(&unit, &opts).expect("compiles");
            assert_predecode_is_the_reference(&linked, &reference);
            assert_eq!(run(&linked, 1_000_000).expect("runs").output, "42");
        }
    }
}
