//! Symbol tables: attributing program counters to named code regions.
//!
//! The code generator names every routine it emits ([`crate::Asm::here`] /
//! [`crate::Asm::name_label`]): compiled Lisp functions (`fn:append`), the
//! program entry (`main`), and the runtime routines (`gc_collect`,
//! `generic_add`, the error stops). [`crate::Asm::finish`] turns those names
//! into a [`SymbolTable`]: the named positions, sorted, become half-open PC
//! ranges — each routine extends to the start of the next one — plus the
//! statically resolvable call sites (`jal` instructions whose target is a
//! named entry).
//!
//! The table is carried on [`crate::Program`] so that listings can show where
//! calls go and so the [`profiler`](crate::profile) can attribute cycles from
//! the retirement stream to functions in O(1) per retired instruction.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::insn::Insn;

/// One named code region: a compiled Lisp function or a runtime routine.
///
/// The range is half-open (`start..end`); slow-path blocks a function defers
/// to the space between its epilogue and the next routine still attribute to
/// the function that owns them, which is exactly what a profiler wants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSym {
    /// The symbol name (`main`, `fn:append`, `gc_collect`, …), shared with
    /// the program's [`symbols`](crate::Program::symbols).
    pub name: Arc<str>,
    /// First instruction index of the region.
    pub start: usize,
    /// One past the last instruction index of the region.
    pub end: usize,
}

/// A statically resolvable call site: a `jal` whose target is a named entry.
///
/// Indirect calls (`jalr`, used by `funcall`) are not listed here — their
/// targets only exist at run time, where the [`profiler`](crate::profile)
/// resolves them from the retirement stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Instruction index of the `jal`.
    pub pc: usize,
    /// Index (into [`SymbolTable::functions`]) of the calling region.
    pub caller: usize,
    /// Index of the called region.
    pub callee: usize,
}

/// PC-range → function attribution for one [`crate::Program`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    funcs: Vec<FuncSym>,
    call_sites: Vec<CallSite>,
}

impl SymbolTable {
    /// Build the table from an assembler's resolved name map and the final
    /// instruction stream. Every named position starts a region; regions run
    /// to the next named position (or the end of the program). When several
    /// names share a position the lexicographically first wins (deterministic,
    /// and in practice names are unique).
    pub fn build(symbols: &HashMap<Arc<str>, usize>, insns: &[Insn]) -> SymbolTable {
        let mut table = SymbolTable {
            funcs: regions(
                named(symbols.iter().map(|(n, p)| (n, *p)), insns.len()),
                insns.len(),
            ),
            call_sites: Vec::new(),
        };
        table.scan_calls(insns, 0..insns.len());
        table
    }

    /// [`build`](Self::build) for a program spliced from its own code and
    /// an image's: `own` names the program's own positions, and the rest of
    /// the program's names are `image`'s, placed.
    ///
    /// `image` is the table of the image's stream alone, and each `placed`
    /// entry `(range, at)` says that `insns` from `at` on hold the image's
    /// positions `range`, as for
    /// [`DecodedProgram::splice`](crate::DecodedProgram::splice); here the
    /// ranges must cover the image's stream in order. The image must name
    /// the first position of every non-empty range, and `own` must name no
    /// position strictly inside one. Under that contract
    /// the result equals `build` over both sets of names, aliases resolved
    /// alike, but only the program's own code is scanned for calls: the
    /// image's regions and call sites are shifted, not rebuilt.
    pub fn splice<'a>(
        own: impl IntoIterator<Item = (&'a Arc<str>, usize)>,
        insns: &[Insn],
        image: &SymbolTable,
        placed: &[(Range<usize>, usize)],
    ) -> SymbolTable {
        let len = insns.len();
        let image_at = |pos: usize| {
            placed
                .iter()
                .find(|(range, _)| range.contains(&pos))
                .map(|(range, at)| at + pos - range.start)
        };
        // Merge the two sorted name lists, keeping the first name at a
        // shared position, and note where each image region went.
        let own = named(own, len);
        let mut kept = Vec::with_capacity(image.funcs.len());
        let mut merged: Vec<(usize, &Arc<str>)> = Vec::with_capacity(own.len() + image.funcs.len());
        let mut own = own.into_iter().peekable();
        for f in &image.funcs {
            let start = image_at(f.start).expect("image regions start in placed ranges");
            while let Some(o) = own.next_if(|o| o.0 < start) {
                merged.push(o);
            }
            match own.next_if(|o| o.0 == start) {
                Some(o) if o.1 < &f.name => {
                    merged.push(o);
                    kept.push(None);
                }
                _ => {
                    kept.push(Some(merged.len()));
                    merged.push((start, &f.name));
                }
            }
        }
        merged.extend(own);
        let mut table = SymbolTable {
            funcs: regions(merged, len),
            call_sites: Vec::with_capacity(image.call_sites.len()),
        };
        // Call sites in program order: own code between the placed ranges
        // is scanned, the image's are shifted.
        let mut scanned = 0;
        let mut sites = image.call_sites.iter().peekable();
        for (range, at) in placed {
            table.scan_calls(insns, scanned..*at);
            while let Some(site) = sites.next_if(|s| s.pc < range.end) {
                let pc = at + site.pc - range.start;
                let caller = image.funcs[site.caller].start;
                let caller = kept[site.caller]
                    .filter(|_| range.contains(&caller))
                    .or_else(|| table.index_of(pc));
                let callee = kept[site.callee].or_else(|| match insns[pc] {
                    Insn::Jal(target, _) => table.entry_at(target as usize),
                    _ => None,
                });
                if let (Some(caller), Some(callee)) = (caller, callee) {
                    table.call_sites.push(CallSite { pc, caller, callee });
                }
            }
            scanned = at + range.len();
        }
        table.scan_calls(insns, scanned..len);
        table
    }

    /// Append the call sites of `insns[pcs]`, in order.
    fn scan_calls(&mut self, insns: &[Insn], pcs: Range<usize>) {
        for pc in pcs {
            if let Insn::Jal(target, _) = insns[pc] {
                let Some(callee) = self.entry_at(target as usize) else {
                    continue;
                };
                let Some(caller) = self.index_of(pc) else {
                    continue;
                };
                self.call_sites.push(CallSite { pc, caller, callee });
            }
        }
    }

    /// All regions, sorted by start position.
    pub fn functions(&self) -> &[FuncSym] {
        &self.funcs
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the table has no regions at all.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// All statically resolved call sites, in program order.
    pub fn call_sites(&self) -> &[CallSite] {
        &self.call_sites
    }

    /// Index of the region containing `pc`, if any (instructions before the
    /// first named position belong to no region).
    pub fn index_of(&self, pc: usize) -> Option<usize> {
        match self.funcs.binary_search_by(|f| f.start.cmp(&pc)) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => (pc < self.funcs[i - 1].end).then_some(i - 1),
        }
    }

    /// The region containing `pc`, if any.
    pub fn function_at(&self, pc: usize) -> Option<&FuncSym> {
        self.index_of(pc).map(|i| &self.funcs[i])
    }

    /// Index of the region *starting exactly at* `pc`, if any. This is what
    /// distinguishes a call landing on an entry from ordinary control flow.
    pub fn entry_at(&self, pc: usize) -> Option<usize> {
        self.funcs.binary_search_by(|f| f.start.cmp(&pc)).ok()
    }

    /// Region name by index.
    pub fn name(&self, index: usize) -> &str {
        &self.funcs[index].name
    }

    /// Human-readable position: `name+offset` inside a region, `pc N` outside.
    pub fn locate(&self, pc: usize) -> String {
        match self.function_at(pc) {
            Some(f) if pc == f.start => f.name.to_string(),
            Some(f) => format!("{}+{}", f.name, pc - f.start),
            None => format!("pc {pc}"),
        }
    }
}

/// The named positions inside a program of `len` instructions, ascending,
/// with the lexicographically first name where several share a position.
fn named<'a>(
    symbols: impl IntoIterator<Item = (&'a Arc<str>, usize)>,
    len: usize,
) -> Vec<(usize, &'a Arc<str>)> {
    let mut named: Vec<(usize, &Arc<str>)> = symbols
        .into_iter()
        .filter(|(_, pos)| *pos < len)
        .map(|(name, pos)| (pos, name))
        .collect();
    named.sort_unstable();
    named.dedup_by_key(|(pos, _)| *pos);
    named
}

/// Regions from ascending, distinct named positions: each runs to the next
/// one, the last to `len`.
fn regions(named: Vec<(usize, &Arc<str>)>, len: usize) -> Vec<FuncSym> {
    let mut funcs = Vec::with_capacity(named.len());
    for (i, (start, name)) in named.iter().enumerate() {
        let end = named.get(i + 1).map_or(len, |(next, _)| *next);
        funcs.push(FuncSym {
            name: Arc::clone(name),
            start: *start,
            end,
        });
    }
    funcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn table() -> SymbolTable {
        // 0..3 = main, 3..5 = fn:a, 5..8 = fn:b; jal at 1 targets fn:a.
        let symbols: HashMap<Arc<str>, usize> =
            [("main".into(), 0), ("fn:a".into(), 3), ("fn:b".into(), 5)]
                .into_iter()
                .collect();
        let insns = vec![
            Insn::Nop,
            Insn::Jal(3, Reg::Link),
            Insn::Nop,
            Insn::Nop,
            Insn::Jr(Reg::Link),
            Insn::Nop,
            Insn::Nop,
            Insn::Halt(Reg::Zero),
        ];
        SymbolTable::build(&symbols, &insns)
    }

    #[test]
    fn ranges_cover_the_program() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert_eq!(&*t.functions()[0].name, "main");
        assert_eq!((t.functions()[0].start, t.functions()[0].end), (0, 3));
        assert_eq!((t.functions()[2].start, t.functions()[2].end), (5, 8));
        assert_eq!(t.index_of(0), Some(0));
        assert_eq!(t.index_of(2), Some(0));
        assert_eq!(t.index_of(3), Some(1));
        assert_eq!(t.index_of(7), Some(2));
        assert_eq!(t.index_of(8), None, "past the end");
    }

    #[test]
    fn entries_and_locations() {
        let t = table();
        assert_eq!(t.entry_at(3), Some(1));
        assert_eq!(t.entry_at(4), None);
        assert_eq!(t.locate(0), "main");
        assert_eq!(t.locate(4), "fn:a+1");
        assert_eq!(t.locate(99), "pc 99");
    }

    #[test]
    fn static_call_sites_resolve() {
        let t = table();
        assert_eq!(
            t.call_sites(),
            &[CallSite {
                pc: 1,
                caller: 0,
                callee: 1
            }]
        );
    }

    #[test]
    fn unnamed_prefix_belongs_to_no_region() {
        let symbols: HashMap<Arc<str>, usize> = [("f".into(), 2)].into_iter().collect();
        let insns = vec![Insn::Nop, Insn::Nop, Insn::Nop, Insn::Halt(Reg::Zero)];
        let t = SymbolTable::build(&symbols, &insns);
        assert_eq!(t.index_of(0), None);
        assert_eq!(t.index_of(1), None);
        assert_eq!(t.index_of(2), Some(0));
        assert_eq!(t.locate(1), "pc 1");
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::default();
        assert!(t.is_empty());
        assert_eq!(t.index_of(0), None);
        assert_eq!(t.entry_at(0), None);
    }

    /// A splice equals `build` over the union of names, including where an
    /// own name shares the start of an image piece: the first name in
    /// order wins there, and the image's call sites into and out of the
    /// region it displaced are looked up afresh.
    #[test]
    fn splice_equals_build_at_the_seams() {
        // The image: piece `p` (0..3) calls `r`, piece `r` (3..6) calls `p`.
        let image_names: HashMap<Arc<str>, usize> =
            [("p".into(), 0), ("r".into(), 3)].into_iter().collect();
        let image_insns = [
            Insn::Jal(3, Reg::Link),
            Insn::Nop,
            Insn::Jr(Reg::Link),
            Insn::Nop,
            Insn::Jal(0, Reg::Link),
            Insn::Nop,
        ];
        let image = SymbolTable::build(&image_names, &image_insns);
        // The program: `main` (0..2) calls `p`, then the two pieces, placed
        // at 2 and 5 with their targets moved.
        let placed = [(0..3, 2), (3..6, 5)];
        let insns = [
            Insn::Jal(2, Reg::Link),
            Insn::Nop,
            Insn::Jal(5, Reg::Link),
            Insn::Nop,
            Insn::Jr(Reg::Link),
            Insn::Nop,
            Insn::Jal(2, Reg::Link),
            Insn::Nop,
        ];
        for alias in [None, Some("a_alias"), Some("zz_alias")] {
            let mut own: HashMap<Arc<str>, usize> = [("main".into(), 0)].into_iter().collect();
            if let Some(alias) = alias {
                own.insert(alias.into(), 5);
            }
            let spliced =
                SymbolTable::splice(own.iter().map(|(n, p)| (n, *p)), &insns, &image, &placed);
            let mut all = own.clone();
            all.extend([("p".into(), 2), ("r".into(), 5)]);
            assert_eq!(spliced, SymbolTable::build(&all, &insns), "{alias:?}");
            assert_eq!(spliced.call_sites().len(), 3, "{alias:?}");
        }
    }
}
