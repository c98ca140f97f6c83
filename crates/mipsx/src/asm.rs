//! The assembler: emit instructions against symbolic labels, then resolve.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::annot::Annot;
use crate::insn::{Cond, Insn, WriteKind};
use crate::program::Program;
use crate::reg::Reg;

/// A forward-referencable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// The raw label id, as stored in unresolved instruction `target` fields.
    /// Needed by code generators that build control-flow instructions directly
    /// (e.g. [`crate::Insn::TagBr`]) instead of going through the `Asm` helpers.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Assembly errors reported by [`Asm::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(u32),
    /// A label was bound twice. ([`Asm::bind`] panics on this instead — it is
    /// always a code-generator bug — but the variant is kept so hosts that
    /// assemble untrusted streams can map the panic to an error.)
    Rebound(u32),
    /// The entry label was never set or bound.
    NoEntry,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{l} referenced but never bound"),
            AsmError::Rebound(l) => write!(f, "label L{l} bound twice"),
            AsmError::NoEntry => write!(f, "entry point not set"),
        }
    }
}

impl std::error::Error for AsmError {}

/// An instruction-stream builder with labels, per-instruction annotations, and an
/// ambient annotation for tag-operation attribution.
///
/// The code generator sets an ambient [`Annot`] with [`Asm::set_annot`] before
/// emitting a tag-operation sequence and restores it afterwards; every emitted
/// instruction picks up the ambient annotation unless overridden.
#[derive(Debug, Default)]
pub struct Asm {
    pub(crate) items: Vec<(Insn, Annot)>,
    pub(crate) label_pos: Vec<Option<usize>>,
    /// Every bound label, in the order it was bound: ascending position.
    pub(crate) bound: Vec<Label>,
    ambient: Annot,
    entry: Option<Label>,
    symbols: HashMap<Arc<str>, Label>,
    data: Vec<(u32, u32)>,
    /// `(item position, tag)`: relocation tags that follow their instruction
    /// through scheduling (see [`Asm::reloc`]).
    pub(crate) relocs: Vec<(usize, u32)>,
}

/// One assembled part of a program that a linker splices together with other
/// parts: [`Asm::finish_part`]'s output.
///
/// Instructions keep this stream's order; their code targets, the entry,
/// the symbols and the label positions are already positions of the final
/// program.
#[derive(Debug, Clone, Default)]
pub struct Part {
    /// Instructions, targets resolved to final positions.
    pub insns: Vec<Insn>,
    /// Parallel annotation per instruction.
    pub annots: Vec<Annot>,
    /// The entry's final position, if an entry was set.
    pub entry: Option<usize>,
    /// Named code positions (final).
    pub symbols: Vec<(Arc<str>, usize)>,
    /// Final position of every label bound in this stream, by label id.
    pub labels: Vec<Option<usize>>,
    /// Initial data words.
    pub data: Vec<(u32, u32)>,
    /// `(position in this part, tag)` for every [`Asm::reloc`] mark.
    pub relocs: Vec<(usize, u32)>,
}

impl Asm {
    /// A fresh, empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an unbound label.
    pub fn new_label(&mut self) -> Label {
        let id = self.label_pos.len() as u32;
        self.label_pos.push(None);
        Label(id)
    }

    /// Bind `label` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (a code-generation bug).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.label_pos[label.0 as usize];
        assert!(slot.is_none(), "label L{} bound twice", label.0);
        *slot = Some(self.items.len());
        self.bound.push(label);
    }

    /// Create and bind a label here, recording `name` in the program's symbols.
    pub fn here(&mut self, name: &str) -> Label {
        let l = self.new_label();
        self.bind(l);
        self.symbols.insert(name.into(), l);
        l
    }

    /// Associate `name` with an existing label (bound or not).
    pub fn name_label(&mut self, name: &str, label: Label) {
        self.symbols.insert(name.into(), label);
    }

    /// Set the ambient annotation; returns the previous one for restoring.
    pub fn set_annot(&mut self, annot: Annot) -> Annot {
        std::mem::replace(&mut self.ambient, annot)
    }

    /// The current ambient annotation.
    pub fn annot(&self) -> Annot {
        self.ambient
    }

    /// Run `f` with ambient annotation `annot`, then restore the previous one.
    pub fn with_annot<R>(&mut self, annot: Annot, f: impl FnOnce(&mut Asm) -> R) -> R {
        let prev = self.set_annot(annot);
        let r = f(self);
        self.set_annot(prev);
        r
    }

    /// Emit one instruction with the ambient annotation.
    pub fn emit(&mut self, insn: Insn) {
        let a = self.ambient;
        self.items.push((insn, a));
    }

    /// Emit one instruction with an explicit annotation.
    pub fn emit_annot(&mut self, insn: Insn, annot: Annot) {
        self.items.push((insn, annot));
    }

    /// Tag the instruction at position `pos` with a caller-defined relocation
    /// `tag`. The scheduler moves the tag with the instruction, and
    /// [`Asm::finish_part`] reports where it ended up, so a linker can patch
    /// an operand that depends on where the program's data lands.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been emitted at `pos`.
    pub fn reloc(&mut self, pos: usize, tag: u32) {
        assert!(pos < self.items.len(), "reloc tags an emitted instruction");
        self.relocs.push((pos, tag));
    }

    /// The position `label` is bound at, if it is bound.
    pub fn position(&self, label: Label) -> Option<usize> {
        self.label_pos[label.0 as usize]
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    // --- convenience emitters -------------------------------------------------

    /// `li rd, imm`.
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.emit(Insn::Li(rd, imm));
    }

    /// Register move.
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.emit(Insn::Mov(rd, rs));
    }

    /// `ld rd, disp(base)`.
    pub fn ld(&mut self, rd: Reg, base: Reg, disp: i32) {
        self.emit(Insn::Ld(rd, base, disp));
    }

    /// `st src, disp(base)`.
    pub fn st(&mut self, src: Reg, base: Reg, disp: i32) {
        self.emit(Insn::St { src, base, disp });
    }

    /// No-op.
    pub fn nop(&mut self) {
        self.emit(Insn::Nop);
    }

    /// Compare-and-branch **with two explicit no-op delay slots** (which the
    /// scheduler may later fill). Non-squashing.
    pub fn br(&mut self, cond: Cond, rs: Reg, rt: Reg, target: Label) {
        self.emit(Insn::Br {
            cond,
            rs,
            rt,
            target: target.0,
            squash: false,
        });
        self.nop();
        self.nop();
    }

    /// Compare-and-branch with **no** delay-slot padding; the caller must place
    /// exactly two following instructions that are safe in the slots.
    pub fn br_raw(&mut self, cond: Cond, rs: Reg, rt: Reg, target: Label, squash: bool) {
        self.emit(Insn::Br {
            cond,
            rs,
            rt,
            target: target.0,
            squash,
        });
    }

    /// Compare-with-immediate branch with two explicit no-op delay slots.
    pub fn bri(&mut self, cond: Cond, rs: Reg, imm: i32, target: Label) {
        self.emit(Insn::Bri {
            cond,
            rs,
            imm,
            target: target.0,
            squash: false,
        });
        self.nop();
        self.nop();
    }

    /// `beq rs, rt, target` with padded slots.
    pub fn beq(&mut self, rs: Reg, rt: Reg, target: Label) {
        self.br(Cond::Eq, rs, rt, target);
    }

    /// `bne rs, rt, target` with padded slots.
    pub fn bne(&mut self, rs: Reg, rt: Reg, target: Label) {
        self.br(Cond::Ne, rs, rt, target);
    }

    /// Unconditional jump with one padded delay slot.
    pub fn j(&mut self, target: Label) {
        self.emit(Insn::J(target.0));
        self.nop();
    }

    /// Call: jump-and-link with one padded delay slot.
    pub fn jal(&mut self, target: Label, link: Reg) {
        self.emit(Insn::Jal(target.0, link));
        self.nop();
    }

    /// Return / indirect jump with one padded delay slot.
    pub fn jr(&mut self, rs: Reg) {
        self.emit(Insn::Jr(rs));
        self.nop();
    }

    /// Indirect call with one padded delay slot.
    pub fn jalr(&mut self, rs: Reg, link: Reg) {
        self.emit(Insn::Jalr(rs, link));
        self.nop();
    }

    /// Halt with the value of `rs` as exit code.
    pub fn halt(&mut self, rs: Reg) {
        self.emit(Insn::Halt(rs));
    }

    /// Emit an output instruction.
    pub fn write(&mut self, rs: Reg, kind: WriteKind) {
        self.emit(Insn::Write(rs, kind));
    }

    // --- data and entry -------------------------------------------------------

    /// Initialise the data word at byte address `addr`.
    pub fn data(&mut self, addr: u32, word: u32) {
        self.data.push((addr, word));
    }

    /// Initialise consecutive words starting at byte address `addr`.
    pub fn data_block(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.data.push((addr + 4 * i as u32, *w));
        }
    }

    /// Set the entry point.
    pub fn set_entry(&mut self, label: Label) {
        self.entry = Some(label);
    }

    /// Resolve labels and produce the executable [`Program`].
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if any referenced label was never bound;
    /// [`AsmError::NoEntry`] if no entry point was set on a non-empty program.
    pub fn finish(self) -> Result<Program, AsmError> {
        let empty = self.items.is_empty();
        let part = self.finish_part(|pos| pos, |_| None)?;
        let entry = match part.entry {
            Some(entry) => entry,
            None if empty => 0,
            None => return Err(AsmError::NoEntry),
        };
        let symbols: HashMap<Arc<str>, usize> = part.symbols.into_iter().collect();
        let symtab = crate::symtab::SymbolTable::build(&symbols, &part.insns);
        Ok(Program {
            insns: part.insns,
            annots: part.annots,
            entry,
            data: part.data,
            symbols,
            symtab,
        })
    }

    /// Resolve labels for a stream that is one part of a larger program.
    ///
    /// The item at position `i` of this stream lands at `place(i)` of the
    /// final program, and a label this stream never bound resolves to
    /// `import(label)`. [`Asm::finish`] is this with both identities.
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if a referenced label (or the entry) is
    /// neither bound here nor imported.
    pub fn finish_part(
        mut self,
        place: impl Fn(usize) -> usize,
        import: impl Fn(Label) -> Option<usize>,
    ) -> Result<Part, AsmError> {
        // Labels bound at the very end point one past the last instruction;
        // that is allowed only if nothing branches there (checked by use).
        let labels: Vec<Option<usize>> = self.label_pos.iter().map(|p| p.map(&place)).collect();
        let resolve = |l: u32| -> Result<usize, AsmError> {
            labels
                .get(l as usize)
                .copied()
                .flatten()
                .or_else(|| import(Label(l)))
                .ok_or(AsmError::UnboundLabel(l))
        };
        let mut err = None;
        let insns: Vec<Insn> = self
            .items
            .iter()
            .map(|(i, _)| {
                i.map_target(&mut |l| match resolve(l) {
                    Ok(p) => p as u32,
                    Err(e) => {
                        err.get_or_insert(e);
                        0
                    }
                })
            })
            .collect();
        if let Some(e) = err {
            return Err(e);
        }
        let annots = self.items.iter().map(|(_, a)| *a).collect();
        let entry = self.entry.map(|l| resolve(l.0)).transpose()?;
        let symbols = std::mem::take(&mut self.symbols)
            .into_iter()
            .filter_map(|(name, l)| Some((name, labels[l.0 as usize]?)))
            .collect();
        Ok(Part {
            insns,
            annots,
            entry,
            symbols,
            labels,
            data: std::mem::take(&mut self.data),
            relocs: std::mem::take(&mut self.relocs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::TagOpKind;

    #[test]
    fn forward_labels_resolve() {
        let mut asm = Asm::new();
        let start = asm.new_label();
        asm.bind(start);
        asm.set_entry(start);
        let end = asm.new_label();
        asm.beq(Reg::A0, Reg::Zero, end);
        asm.li(Reg::A0, 1);
        asm.bind(end);
        asm.halt(Reg::A0);
        let p = asm.finish().unwrap();
        match p.insns[0] {
            Insn::Br { target, .. } => assert_eq!(target, 4),
            ref other => panic!("expected branch, got {other}"),
        }
        // two padded slots follow
        assert_eq!(p.insns[1], Insn::Nop);
        assert_eq!(p.insns[2], Insn::Nop);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Asm::new();
        let start = asm.here("start");
        asm.set_entry(start);
        let nowhere = asm.new_label();
        asm.j(nowhere);
        assert!(matches!(asm.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn ambient_annotation_applies() {
        let mut asm = Asm::new();
        let start = asm.here("start");
        asm.set_entry(start);
        asm.with_annot(Annot::base(TagOpKind::Remove), |a| {
            a.emit(Insn::And(Reg::A0, Reg::A0, Reg::Mask));
        });
        asm.halt(Reg::A0);
        let p = asm.finish().unwrap();
        assert_eq!(p.annots[0].tag_op, Some(TagOpKind::Remove));
        assert_eq!(p.annots[1], Annot::NONE);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut asm = Asm::new();
        let l = asm.new_label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn no_entry_is_an_error() {
        let mut asm = Asm::new();
        asm.nop();
        assert_eq!(asm.finish().unwrap_err(), AsmError::NoEntry);
    }

    #[test]
    fn data_blocks_lay_out_consecutively() {
        let mut asm = Asm::new();
        let e = asm.here("e");
        asm.set_entry(e);
        asm.halt(Reg::Zero);
        asm.data_block(100, &[1, 2, 3]);
        let p = asm.finish().unwrap();
        assert_eq!(p.data, vec![(100, 1), (104, 2), (108, 3)]);
    }
}
