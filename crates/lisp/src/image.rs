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
//! of at most about 80 KB each (DESIGN.md §4a). A program cannot redefine a
//! prelude function ([`crate::lower_sources`] refuses a duplicate `defun`),
//! so every unit lowered with the prelude links against it and no fallback
//! exists. The pre-image monolithic compile survives as
//! [`crate::compile_unit_reference`], the oracle the tests hold the linked
//! output to.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mipsx::sched::{schedule_and_attribute, ScheduleReport};
use mipsx::{Annot, Asm, Insn, Label};

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
    symbols: Vec<(String, usize)>,
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
        let targets = part
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
        let relocs = part
            .relocs
            .iter()
            .map(|&(pos, tag)| (pos, Reloc::from_tag(tag)))
            .collect();
        Ok(Image {
            insns: part.insns,
            annots: part.annots,
            prelude_len,
            targets,
            relocs,
            symbols: part.symbols,
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

    /// The image's named positions, placed at `at`.
    pub(crate) fn symbols(&self, at: Placement) -> impl Iterator<Item = (String, usize)> + '_ {
        self.symbols
            .iter()
            .map(move |(name, pos)| (name.clone(), at.image(*pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_unit, compile_unit_reference};
    use mipsx::HwConfig;
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

    /// Hardware spellings that differ only in cycle costs, or in address-drop
    /// widths on the same side of the tag width, share one image, and the
    /// programs linked against it are still the reference's.
    #[test]
    fn hardware_that_does_not_shape_code_shares_one_image() {
        let unit = lower_sources(&[PRELUDE, "(print (car (list 1 2)))"]).expect("lowers");
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
                HwConfig {
                    trap_penalty: 3,
                    mul_cycles: 1,
                    div_cycles: 2,
                    fp_cycles: 9,
                    ..HwConfig::with_tag_branch()
                },
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
        }
    }
}
