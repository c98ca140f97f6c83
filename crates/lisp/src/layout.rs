//! Memory map, symbol table, and static (constant) data construction.
//!
//! The simulated address space is laid out as:
//!
//! ```text
//! 0x00000000  reserved (so no valid pointer is 0)
//! globals     one word per global variable, plus runtime cells
//! roots       the GC root table: addresses of every static cell that may hold a
//!             heap pointer (global cells, symbol value/plist cells), 0-terminated
//! symtab      symbol records: [value][plist][fncode][namelen][chars...]
//! consts      quoted structure (pairs, floats) — immutable, never scanned
//! stack       the Lisp stack, grows down from stack_top
//! heap A      copying-collector semispace
//! heap B      copying-collector semispace
//! ```
//!
//! Everything static is built at compile time into the program's initial data
//! image; the heap semispaces start empty.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mipsx::{Asm, Insn};
use tagword::{Tag, TagScheme};

use crate::ast::Unit;
use crate::error::CompileError;
use crate::sexp::Sexp;

/// Header type code for vectors (low two bits clear so headers read as integers
/// under every tag scheme — the GC and the low-tag escape checks rely on it).
pub const VEC_CODE: u32 = 4;
/// Header type code for boxed floats.
pub const FLOAT_CODE: u32 = 8;
/// Bit position of the length field in a vector header.
pub const HDR_LEN_SHIFT: u32 = 10;

/// Make an object header: `(len << 10) | code`.
pub fn header(code: u32, len: u32) -> u32 {
    (len << HDR_LEN_SHIFT) | code
}

/// One interned symbol.
#[derive(Debug, Clone)]
pub struct SymbolInfo<'u> {
    /// The symbol's print name, borrowed from the unit.
    pub name: &'u str,
    /// Byte address of its record in the symbol table.
    pub addr: u32,
    /// Its tagged word.
    pub word: u32,
}

/// The complete memory map plus initial data image for one compilation of
/// a unit, whose symbol names it borrows.
#[derive(Debug, Clone)]
#[allow(dead_code)] // the map fields document the address space; tests read them
pub struct Layout<'u> {
    /// Tag scheme the image was built for.
    pub scheme: TagScheme,
    /// Base of the globals area.
    pub globals_base: u32,
    /// Number of global cells.
    pub n_globals: u32,
    /// Base of the GC root table.
    pub roots_base: u32,
    /// Base of the symbol table.
    pub symtab_base: u32,
    /// Base of the constant area.
    pub const_base: u32,
    /// Lowest stack address (overflow limit).
    pub stack_low: u32,
    /// Initial stack pointer (stack grows down; exclusive top).
    pub stack_top: u32,
    /// First semispace base.
    pub heap_a: u32,
    /// Second semispace base.
    pub heap_b: u32,
    /// Bytes per semispace.
    pub semi_bytes: u32,
    /// Total simulated memory needed.
    pub mem_bytes: usize,
    /// Interned symbols, `nil` first, `t` second.
    pub symbols: Vec<SymbolInfo<'u>>,
    /// Name → index into [`Layout::symbols`].
    pub sym_ids: HashMap<&'u str, usize>,
    /// The tagged `nil`.
    pub nil_word: u32,
    /// The tagged `t`.
    pub t_word: u32,
    /// Tagged word for each entry of the unit's constant table.
    pub const_words: Vec<u32>,
    /// Initial data image.
    pub data: Vec<(u32, u32)>,
}

fn align8(x: u32) -> u32 {
    (x + 7) & !7
}

/// Number of reserved runtime cells after the user globals (GC space flag first).
pub const N_RT_CELLS: u32 = 4;

/// Offset of the value cell in a symbol record.
#[allow(dead_code)] // documents the record layout; the value cell is addressed as offset 0
pub const SYM_VALUE: i32 = 0;
/// Offset of the plist cell in a symbol record.
pub const SYM_PLIST: i32 = 4;
/// Offset of the function-code cell (raw instruction index) in a symbol record.
pub const SYM_FNCODE: i32 = 8;
/// Offset of the name-length word in a symbol record.
pub const SYM_NAMELEN: i32 = 12;
/// Offset of the first name character in a symbol record.
pub const SYM_NAME: i32 = 16;

/// Intern `name` unless it already is: its record is placed later.
fn intern<'u>(name: &'u str, symbols: &mut Vec<SymbolInfo<'u>>, ids: &mut HashMap<&'u str, usize>) {
    if let Entry::Vacant(slot) = ids.entry(name) {
        slot.insert(symbols.len());
        symbols.push(SymbolInfo {
            name,
            addr: 0,
            word: 0,
        });
    }
}

fn collect_symbols<'u>(
    s: &'u Sexp,
    symbols: &mut Vec<SymbolInfo<'u>>,
    ids: &mut HashMap<&'u str, usize>,
) {
    match s {
        Sexp::Sym(n) => intern(n, symbols, ids),
        Sexp::List(items, tail) => {
            for i in items {
                collect_symbols(i, symbols, ids);
            }
            if let Some(t) = tail {
                collect_symbols(t, symbols, ids);
            }
        }
        _ => {}
    }
}

impl<'u> Layout<'u> {
    /// Build the layout and static image for `unit`.
    ///
    /// # Errors
    ///
    /// [`CompileError::Literal`] when a constant cannot be encoded (fixnum out of
    /// the scheme's range, or the address space exceeded).
    pub fn build(
        unit: &'u Unit,
        scheme: TagScheme,
        semi_bytes: u32,
        stack_bytes: u32,
    ) -> Result<Layout<'u>, CompileError> {
        // --- interning ---------------------------------------------------------
        // Names are borrowed from the unit; the map is the only index.
        let guess = 2 + unit.fns.len() + unit.consts.len();
        let mut symbols = Vec::with_capacity(guess);
        let mut sym_ids = HashMap::with_capacity(guess);
        for name in ["nil", "t"] {
            intern(name, &mut symbols, &mut sym_ids);
        }
        for c in &unit.consts {
            collect_symbols(c, &mut symbols, &mut sym_ids);
        }
        for f in &unit.fns {
            intern(&f.name, &mut symbols, &mut sym_ids);
        }

        // --- region sizing ------------------------------------------------------
        let globals_base = 0x40u32;
        let n_globals = unit.globals.len() as u32;
        // Runtime cells (GC space flag, spares) live after the user globals and
        // are *not* in the root table: they hold raw machine words.
        let roots_base = align8(globals_base + 4 * (n_globals + N_RT_CELLS));
        let n_roots = n_globals + 2 * symbols.len() as u32;
        let symtab_base = align8(roots_base + 4 * (n_roots + 1));

        let mut addr = symtab_base;
        let mut record_words = 0;
        for s in &mut symbols {
            s.addr = addr;
            addr = align8(addr + SYM_NAME as u32 + 4 * s.name.len() as u32);
            s.word = scheme
                .insert(Tag::Symbol, s.addr)
                .map_err(|e| CompileError::Literal {
                    message: e.to_string(),
                })?;
            record_words += 4 + s.name.len();
        }
        let const_base = align8(addr);
        let nil_word = symbols[0].word;
        let t_word = symbols[1].word;

        // --- constant structure -------------------------------------------------
        // Sized for everything but the constants: symbol records, globals
        // and the root table.
        let static_words = record_words + 2 * n_globals as usize + n_roots as usize + 1;
        let mut data: Vec<(u32, u32)> = Vec::with_capacity(static_words + 4 * unit.consts.len());
        let mut cursor = const_base;
        let mut const_words = Vec::with_capacity(unit.consts.len());
        for c in &unit.consts {
            let w = build_const(
                c,
                scheme,
                &sym_ids,
                &symbols,
                &mut cursor,
                &mut data,
                nil_word,
                t_word,
            )?;
            const_words.push(w);
        }

        let stack_low = align8(cursor);
        // Sized in u64: a stack or semispace near 2 GiB must not wrap the
        // end of the map back under the pointer-space check.
        let stack_top = (u64::from(stack_low) + u64::from(stack_bytes) + 7) & !7;
        let mem_end = stack_top + 2 * u64::from(semi_bytes);
        if mem_end >= 1u64 << scheme.pointer_bits() {
            return Err(CompileError::Literal {
                message: format!(
                    "memory map ({mem_end:#x}) exceeds the {}-bit pointer space of {scheme}",
                    scheme.pointer_bits()
                ),
            });
        }
        // Every address below fits in u32: the map ends inside the pointer
        // space, which is at most 32 bits wide.
        let stack_top = stack_top as u32;
        let mem_end = mem_end as u32;
        let heap_a = stack_top;
        let heap_b = heap_a + semi_bytes;

        // --- symbol records -----------------------------------------------------
        for s in &symbols {
            let value = if s.name == "t" { t_word } else { nil_word };
            data.push((s.addr, value));
            data.push(((s.addr as i32 + SYM_PLIST) as u32, nil_word));
            data.push(((s.addr as i32 + SYM_FNCODE) as u32, 0));
            data.push(((s.addr as i32 + SYM_NAMELEN) as u32, s.name.len() as u32));
            for (i, ch) in s.name.bytes().enumerate() {
                data.push((
                    (s.addr as i32 + SYM_NAME) as u32 + 4 * i as u32,
                    u32::from(ch),
                ));
            }
        }

        // --- globals and root table ----------------------------------------------
        for g in 0..n_globals {
            data.push((globals_base + 4 * g, nil_word));
        }
        let mut raddr = roots_base;
        for g in 0..n_globals {
            data.push((raddr, globals_base + 4 * g));
            raddr += 4;
        }
        for s in &symbols {
            data.push((raddr, s.addr));
            raddr += 4;
            data.push((raddr, (s.addr as i32 + SYM_PLIST) as u32));
            raddr += 4;
        }
        data.push((raddr, 0)); // terminator

        Ok(Layout {
            scheme,
            globals_base,
            n_globals,
            roots_base,
            symtab_base,
            const_base,
            stack_low,
            stack_top,
            heap_a,
            heap_b,
            semi_bytes,
            mem_bytes: mem_end as usize,
            symbols,
            sym_ids,
            nil_word,
            t_word,
            const_words,
            data,
        })
    }

    /// The tagged word for symbol `name`, if interned.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn symbol_word(&self, name: &str) -> Option<u32> {
        self.sym_ids.get(name).map(|&i| self.symbols[i].word)
    }

    /// Byte address of global cell `g`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn global_addr(&self, g: usize) -> u32 {
        self.globals_base + 4 * g as u32
    }

    /// Byte address of reserved runtime cell `i` (see [`N_RT_CELLS`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N_RT_CELLS`.
    pub fn rt_cell_addr(&self, i: u32) -> u32 {
        assert!(i < N_RT_CELLS, "runtime cell index out of range");
        self.globals_base + 4 * (self.n_globals + i)
    }
}

/// An operand of generated code that the layout decides: where a constant,
/// a runtime cell or a memory region landed, or how big a region is. Code
/// that emits such an operand tags it (see [`Reloc::emit`]), so that the
/// system image (`crate::image`), generated once under a reference layout,
/// can be patched for each program's own layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reloc {
    /// The tagged word of constant `i`: a symbol's word or a pointer into
    /// the constant area, both of which move with the symbol table.
    Const(u32),
    /// The address of reserved runtime cell `i`, which follows the globals.
    RtCell(u32),
    /// [`Layout::roots_base`].
    RootsBase,
    /// [`Layout::stack_low`].
    StackLow,
    /// [`Layout::stack_top`].
    StackTop,
    /// [`Layout::heap_a`].
    HeapA,
    /// [`Layout::heap_b`].
    HeapB,
    /// [`Layout::semi_bytes`].
    SemiBytes,
}

impl Reloc {
    /// The operand's value under `layout`.
    pub fn value(self, layout: &Layout) -> i32 {
        (match self {
            Reloc::Const(i) => layout.const_words[i as usize],
            Reloc::RtCell(i) => layout.rt_cell_addr(i),
            Reloc::RootsBase => layout.roots_base,
            Reloc::StackLow => layout.stack_low,
            Reloc::StackTop => layout.stack_top,
            Reloc::HeapA => layout.heap_a,
            Reloc::HeapB => layout.heap_b,
            Reloc::SemiBytes => layout.semi_bytes,
        }) as i32
    }

    /// Emit the instruction `emit` builds from the operand's value under
    /// `layout` (its first instruction carries the operand) and tag it.
    pub fn emit(self, asm: &mut Asm, layout: &Layout, emit: impl FnOnce(&mut Asm, i32)) {
        let at = asm.len();
        emit(asm, self.value(layout));
        asm.reloc(at, self.tag());
    }

    /// `insn` with its immediate operand recomputed under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `insn` carries no immediate a relocation can name.
    pub fn patch(self, insn: Insn, layout: &Layout) -> Insn {
        let v = self.value(layout);
        match insn {
            Insn::Li(rd, _) => Insn::Li(rd, v),
            Insn::Addi(rd, rs, _) => Insn::Addi(rd, rs, v),
            Insn::Bri {
                cond,
                rs,
                target,
                squash,
                ..
            } => Insn::Bri {
                cond,
                rs,
                imm: v,
                target,
                squash,
            },
            other => panic!("{self:?} tags {other}, which has no relocatable immediate"),
        }
    }

    /// The tag [`Asm::reloc`] carries: the kind in the low three bits, the
    /// index above them.
    pub fn tag(self) -> u32 {
        match self {
            Reloc::Const(i) => i << 3,
            Reloc::RtCell(i) => (i << 3) | 1,
            Reloc::RootsBase => 2,
            Reloc::StackLow => 3,
            Reloc::StackTop => 4,
            Reloc::HeapA => 5,
            Reloc::HeapB => 6,
            Reloc::SemiBytes => 7,
        }
    }

    /// Inverse of [`Reloc::tag`].
    pub fn from_tag(tag: u32) -> Reloc {
        match tag & 7 {
            0 => Reloc::Const(tag >> 3),
            1 => Reloc::RtCell(tag >> 3),
            2 => Reloc::RootsBase,
            3 => Reloc::StackLow,
            4 => Reloc::StackTop,
            5 => Reloc::HeapA,
            6 => Reloc::HeapB,
            _ => Reloc::SemiBytes,
        }
    }
}

/// Recursively build one quoted constant into the constant area, returning its
/// tagged word.
#[allow(clippy::too_many_arguments)]
fn build_const(
    s: &Sexp,
    scheme: TagScheme,
    sym_ids: &HashMap<&str, usize>,
    symbols: &[SymbolInfo],
    cursor: &mut u32,
    data: &mut Vec<(u32, u32)>,
    nil_word: u32,
    t_word: u32,
) -> Result<u32, CompileError> {
    match s {
        Sexp::Int(i) => scheme.make_int(*i).map_err(|e| CompileError::Literal {
            message: e.to_string(),
        }),
        Sexp::Float(bits) => {
            let addr = *cursor;
            *cursor = align8(addr + 8);
            data.push((addr, header(FLOAT_CODE, 0)));
            data.push((addr + 4, *bits));
            scheme
                .insert(Tag::Float, addr)
                .map_err(|e| CompileError::Literal {
                    message: e.to_string(),
                })
        }
        Sexp::Sym(n) if n == "nil" => Ok(nil_word),
        Sexp::Sym(n) if n == "t" => Ok(t_word),
        Sexp::Sym(n) => {
            let id = sym_ids
                .get(n.as_str())
                .ok_or_else(|| CompileError::Literal {
                    message: format!("unknown symbol {n}"),
                })?;
            Ok(symbols[*id].word)
        }
        Sexp::List(items, tail) => {
            // Build from the tail forward.
            let mut rest = match tail {
                Some(t) => {
                    build_const(t, scheme, sym_ids, symbols, cursor, data, nil_word, t_word)?
                }
                None => nil_word,
            };
            for item in items.iter().rev() {
                let car = build_const(
                    item, scheme, sym_ids, symbols, cursor, data, nil_word, t_word,
                )?;
                let addr = *cursor;
                *cursor = align8(addr + 8);
                data.push((addr, car));
                data.push((addr + 4, rest));
                rest = scheme
                    .insert(Tag::Pair, addr)
                    .map_err(|e| CompileError::Literal {
                        message: e.to_string(),
                    })?;
            }
            Ok(rest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::lower_sources;
    use tagword::ALL_SCHEMES;

    fn layout_for(src: &str, scheme: TagScheme) -> Layout<'static> {
        let unit = Box::leak(Box::new(lower_sources(&[src]).unwrap()));
        Layout::build(unit, scheme, 64 << 10, 16 << 10).unwrap()
    }

    /// FNV-1a over the data image's `(address, word)` pairs, in order.
    fn data_digest(data: &[(u32, u32)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (a, w) in data {
            for b in a.to_le_bytes().into_iter().chain(w.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The layout of one small unit under every scheme, at the default
    /// test sizes and at a smaller heap and stack: its map, symbol records
    /// and data image, rendered.
    fn small_unit_layouts() -> String {
        use std::fmt::Write as _;
        let src = "(defvar g 7) (defun f (x) (cons 'apple (list x 2.5 '(pear . 3)))) (f 'apple)";
        let unit = lower_sources(&[src]).unwrap();
        let mut out = String::new();
        for scheme in ALL_SCHEMES {
            for (semi, stack) in [(64 << 10, 16 << 10), (40 << 10, 8 << 10)] {
                let l = Layout::build(&unit, scheme, semi, stack).unwrap();
                let _ = write!(
                    out,
                    "{scheme} {semi}/{stack}: mem {:#x} consts {:x?} data {} fnv {:016x};",
                    l.mem_bytes,
                    l.const_words,
                    l.data.len(),
                    data_digest(&l.data)
                );
                for s in &l.symbols {
                    let _ = write!(out, " {}@{:#x}={:#x}", s.name, s.addr, s.word);
                }
                out.push('\n');
            }
        }
        out
    }

    /// The small unit's layouts as the one-piece compiler laid them out
    /// before symbol names were borrowed from the unit: every address,
    /// word and data image stays where it was.
    #[test]
    fn small_unit_layouts_are_pinned() {
        const PINNED: [&str; 8] = [
            "high5 65536/16384: mem 0x24128 consts [100000c0, 8000120] data 49 fnv 76653184b64f481c; nil@0x88=0x10000088 t@0xa8=0x100000a8 apple@0xc0=0x100000c0 pear@0xe8=0x100000e8 f@0x108=0x10000108\n",
            "high5 40960/8192: mem 0x16128 consts [100000c0, 8000120] data 49 fnv 76653184b64f481c; nil@0x88=0x10000088 t@0xa8=0x100000a8 apple@0xc0=0x100000c0 pear@0xe8=0x100000e8 f@0x108=0x10000108\n",
            "high6 65536/16384: mem 0x24128 consts [440000c0, 40000120] data 49 fnv 3b69a4043a40d8ac; nil@0x88=0x44000088 t@0xa8=0x440000a8 apple@0xc0=0x440000c0 pear@0xe8=0x440000e8 f@0x108=0x44000108\n",
            "high6 40960/8192: mem 0x16128 consts [440000c0, 40000120] data 49 fnv 3b69a4043a40d8ac; nil@0x88=0x44000088 t@0xa8=0x440000a8 apple@0xc0=0x440000c0 pear@0xe8=0x440000e8 f@0x108=0x44000108\n",
            "low2 65536/16384: mem 0x24128 consts [c2, 121] data 49 fnv d129fe8ae38350c7; nil@0x88=0x8a t@0xa8=0xaa apple@0xc0=0xc2 pear@0xe8=0xea f@0x108=0x10a\n",
            "low2 40960/8192: mem 0x16128 consts [c2, 121] data 49 fnv d129fe8ae38350c7; nil@0x88=0x8a t@0xa8=0xaa apple@0xc0=0xc2 pear@0xe8=0xea f@0x108=0x10a\n",
            "low3 65536/16384: mem 0x24128 consts [c2, 121] data 49 fnv d129fe8ae38350c7; nil@0x88=0x8a t@0xa8=0xaa apple@0xc0=0xc2 pear@0xe8=0xea f@0x108=0x10a\n",
            "low3 40960/8192: mem 0x16128 consts [c2, 121] data 49 fnv d129fe8ae38350c7; nil@0x88=0x8a t@0xa8=0xaa apple@0xc0=0xc2 pear@0xe8=0xea f@0x108=0x10a\n",
        ];
        assert_eq!(small_unit_layouts(), PINNED.concat());
    }

    #[test]
    fn nil_and_t_are_first() {
        for scheme in ALL_SCHEMES {
            let l = layout_for("(defun f () 1)", scheme);
            assert_eq!(l.symbols[0].name, "nil");
            assert_eq!(l.symbols[1].name, "t");
            assert_eq!(l.nil_word, l.symbols[0].word);
        }
    }

    #[test]
    fn nil_record_self_car_cdr() {
        // car/cdr of nil are nil: the record's first two cells are nil.
        let l = layout_for("(defun f () 1)", TagScheme::HighTag5);
        let nil_addr = l.symbols[0].addr;
        let value = l.data.iter().find(|(a, _)| *a == nil_addr).unwrap().1;
        let plist = l.data.iter().find(|(a, _)| *a == nil_addr + 4).unwrap().1;
        assert_eq!(value, l.nil_word);
        assert_eq!(plist, l.nil_word);
    }

    #[test]
    fn constants_build_lists() {
        for scheme in ALL_SCHEMES {
            let l = layout_for("(defun f () '(a 5 (b)))", scheme);
            assert_eq!(l.const_words.len(), 1);
            let w = l.const_words[0];
            assert_eq!(scheme.extract(w).exact(), Some(tagword::Tag::Pair));
            // The car of the first pair must be the symbol a.
            let addr = scheme.remove(w);
            let car = l.data.iter().find(|(a, _)| *a == addr).unwrap().1;
            assert_eq!(Some(car), l.symbol_word("a"));
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        for scheme in ALL_SCHEMES {
            let l = layout_for("(defvar g 1) (defun f () '(x y z))", scheme);
            assert!(l.globals_base < l.roots_base);
            assert!(l.roots_base < l.symtab_base);
            assert!(l.symtab_base < l.const_base);
            assert!(l.const_base <= l.stack_low);
            assert!(l.stack_low < l.stack_top);
            assert_eq!(l.stack_top, l.heap_a);
            assert_eq!(l.heap_a + l.semi_bytes, l.heap_b);
            assert_eq!(l.mem_bytes as u32, l.heap_b + l.semi_bytes);
            // every data word lands below the stack
            for (a, _) in &l.data {
                assert!(*a < l.stack_low, "data at {a:#x} in stack/heap");
            }
        }
    }

    #[test]
    fn pointer_space_overflow_detected() {
        let unit = lower_sources(&["(defun f () 1)"]).unwrap();
        let err = Layout::build(&unit, TagScheme::HighTag6, 40 << 20, 16 << 10);
        assert!(err.is_err(), "two 40MB semispaces exceed 26-bit pointers");
    }

    /// Semispaces near 2 GiB used to wrap the end of the map in u32 and slip
    /// past the check; every size up to `u32::MAX` is now refused exactly.
    #[test]
    fn huge_semispaces_are_refused_not_wrapped() {
        let unit = lower_sources(&["(defun f () 1)"]).unwrap();
        for semi in [2_147_481_600, 1 << 31, u32::MAX - 7, u32::MAX] {
            for scheme in ALL_SCHEMES {
                let err = Layout::build(&unit, scheme, semi, 256 << 10).unwrap_err();
                assert!(
                    err.to_string().contains("memory map") && err.to_string().contains("exceeds"),
                    "{scheme} {semi}: {err}"
                );
            }
        }
        let err = Layout::build(&unit, TagScheme::LowTag2, 1 << 20, u32::MAX).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The largest map that fits a 32-bit scheme still builds.
        let l = Layout::build(&unit, TagScheme::LowTag2, 1 << 30, 256 << 10).unwrap();
        assert_eq!(l.mem_bytes as u64, u64::from(l.heap_b) + (1 << 30));
    }

    #[test]
    fn symbol_records_are_aligned_and_named() {
        let l = layout_for("(defun frobnicate () 'frobnicate)", TagScheme::LowTag3);
        let s = &l.symbols[l.sym_ids["frobnicate"]];
        assert_eq!(s.addr % 8, 0);
        let len_addr = (s.addr as i32 + SYM_NAMELEN) as u32;
        let len = l.data.iter().find(|(a, _)| *a == len_addr).unwrap().1;
        assert_eq!(len as usize, "frobnicate".len());
        let c0 = l
            .data
            .iter()
            .find(|(a, _)| *a == (s.addr as i32 + SYM_NAME) as u32)
            .unwrap()
            .1;
        assert_eq!(c0, u32::from(b'f'));
    }

    #[test]
    fn root_table_terminated_and_covers_globals() {
        let l = layout_for("(defvar a) (defvar b)", TagScheme::HighTag5);
        // first two roots are the global cells
        let r0 = l.data.iter().find(|(a, _)| *a == l.roots_base).unwrap().1;
        assert_eq!(r0, l.global_addr(0));
        // terminator exists
        let n_roots = 2 + 2 * l.symbols.len() as u32;
        let term_addr = l.roots_base + 4 * n_roots;
        let t = l.data.iter().find(|(a, _)| *a == term_addr).unwrap().1;
        assert_eq!(t, 0);
    }

    #[test]
    fn relocation_tags_round_trip() {
        for r in [
            Reloc::Const(0),
            Reloc::Const(12_345),
            Reloc::RtCell(3),
            Reloc::RootsBase,
            Reloc::StackLow,
            Reloc::StackTop,
            Reloc::HeapA,
            Reloc::HeapB,
            Reloc::SemiBytes,
        ] {
            assert_eq!(Reloc::from_tag(r.tag()), r);
        }
    }

    #[test]
    fn dotted_constant() {
        let l = layout_for("(defun f () '(a . b))", TagScheme::HighTag5);
        let w = l.const_words[0];
        let addr = TagScheme::HighTag5.remove(w);
        let cdr = l.data.iter().find(|(a, _)| *a == addr + 4).unwrap().1;
        assert_eq!(Some(cdr), l.symbol_word("b"));
    }
}
