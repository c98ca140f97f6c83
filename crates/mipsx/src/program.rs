//! An assembled, label-resolved program.

use std::collections::HashMap;
use std::sync::Arc;

use crate::annot::Annot;
use crate::insn::Insn;
use crate::symtab::SymbolTable;

/// An executable program: resolved instructions, their annotations, an entry point,
/// and an initial data image.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Instructions; the program counter indexes this vector.
    pub insns: Vec<Insn>,
    /// Parallel annotation per instruction.
    pub annots: Vec<Annot>,
    /// Entry instruction index.
    pub entry: usize,
    /// Initial data memory image: `(byte address, word)` pairs.
    pub data: Vec<(u32, u32)>,
    /// Named code positions (for debugging and tests). A linked program
    /// shares the names of its system image.
    pub symbols: HashMap<Arc<str>, usize>,
    /// PC-range symbol table derived from `symbols`: function regions and
    /// static call sites, for profiling and annotated listings.
    pub symtab: SymbolTable,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// The symbol name a jump-like instruction targets, when the target is a
    /// named region entry (used to annotate listings with `-> callee`).
    fn call_target(&self, insn: &Insn) -> Option<&str> {
        let target = match insn {
            Insn::Jal(t, _) | Insn::J(t) => *t as usize,
            _ => return None,
        };
        let i = self.symtab.entry_at(target)?;
        Some(self.symtab.name(i))
    }

    /// A human-readable listing with per-instruction tag-operation annotations
    /// (debugging and sequence-inspection aid). Jumps to named entries show
    /// their symbolic target (`-> fn:append`).
    pub fn listing_annotated(&self) -> String {
        use std::fmt::Write as _;
        let mut by_index: HashMap<usize, &str> = HashMap::new();
        for (name, idx) in &self.symbols {
            by_index.insert(*idx, name);
        }
        let mut out = String::new();
        for (i, insn) in self.insns.iter().enumerate() {
            if let Some(name) = by_index.get(&i) {
                let _ = writeln!(out, "{name}:");
            }
            let a = self.annots.get(i).copied().unwrap_or_default();
            let tag = match a.tag_op {
                Some(op) => format!("{op:?}"),
                None => String::new(),
            };
            let cat = match a.cat {
                crate::annot::CheckCat::NotChecking => String::new(),
                c => format!("/{c:?}"),
            };
            let callee = match self.call_target(insn) {
                Some(name) => format!(" -> {name}"),
                None => String::new(),
            };
            let _ = writeln!(out, "  {i:5}  {insn:<40} {tag}{cat}{callee}");
        }
        out
    }

    /// A human-readable listing (debugging aid).
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut by_index: HashMap<usize, &str> = HashMap::new();
        for (name, idx) in &self.symbols {
            by_index.insert(*idx, name);
        }
        let mut out = String::new();
        for (i, insn) in self.insns.iter().enumerate() {
            if let Some(name) = by_index.get(&i) {
                let _ = writeln!(out, "{name}:");
            }
            match self.call_target(insn) {
                Some(callee) => {
                    let _ = writeln!(out, "  {i:5}  {insn:<40} ; -> {callee}");
                }
                None => {
                    let _ = writeln!(out, "  {i:5}  {insn}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn listing_shows_symbols() {
        let p = Program {
            insns: vec![Insn::Nop, Insn::Halt(Reg::Zero)],
            annots: vec![Annot::NONE; 2],
            entry: 0,
            data: vec![],
            symbols: [("main".into(), 0)].into_iter().collect(),
            symtab: Default::default(),
        };
        let l = p.listing();
        assert!(l.contains("main:"));
        assert!(l.contains("halt"));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn listing_shows_call_targets() {
        let symbols: HashMap<Arc<str>, usize> = [("main".into(), 0), ("fn:f".into(), 3)]
            .into_iter()
            .collect();
        let insns = vec![
            Insn::Jal(3, Reg::Link),
            Insn::Nop,
            Insn::Halt(Reg::Zero),
            Insn::Jr(Reg::Link),
        ];
        let symtab = SymbolTable::build(&symbols, &insns);
        let p = Program {
            annots: vec![Annot::NONE; insns.len()],
            insns,
            entry: 0,
            data: vec![],
            symbols,
            symtab,
        };
        assert!(p.listing().contains("; -> fn:f"));
        assert!(p.listing_annotated().contains("-> fn:f"));
    }
}
