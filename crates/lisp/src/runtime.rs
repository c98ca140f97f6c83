//! The runtime system, emitted as simulated machine code.
//!
//! Everything here executes *inside* the simulation and is therefore measured,
//! exactly as the PSL system modules were in the paper ("each program includes…
//! the LISP system modules that are used by the program"). The pieces:
//!
//! - a two-space **copying garbage collector** (Cheney scan), whose own tag
//!   inspections are annotated tag operations — `dedgc` spends about half its time
//!   here;
//! - the **generic-arithmetic fallback** routines reached when the inline
//!   integer-biased tests fail (floats, and the overflow error path);
//! - **error stops** for run-time check failures;
//! - the **symbol printer** used by `prin-name`.
//!
//! # GC design
//!
//! Objects are pairs (two words, no header) or headered objects (vectors and
//! floats, `(len << 10) | code` headers that read as fixnums under every tag
//! scheme). Forwarding is detected without a dedicated mark: a first word that is
//! a non-integer whose pointer part lies in to-space *must* be a forwarding
//! pointer, because nothing else can point into to-space during a collection.
//!
//! Roots are: the root table built by [`crate::layout`] (global cells, symbol
//! value/plist cells), the Lisp stack between `Sp` and the stack top, and the
//! caller-spilled `A0`/`A1`. The code generator guarantees that at any allocation
//! point every other live value is on the Lisp stack.

use mipsx::{Annot, Asm, CheckCat, Cond, FpOp, Insn, Label, Provenance, Reg, TagOpKind, WriteKind};
use tagword::Tag;

use crate::layout::{Layout, Reloc, FLOAT_CODE, HDR_LEN_SHIFT, SYM_NAME, SYM_NAMELEN};
use crate::tagops::TagOps;

/// Exit codes used by runtime error stops.
pub mod exit_code {
    /// Normal completion.
    pub const OK: i32 = 0;
    /// car/cdr/rplaca/rplacd of a non-pair.
    pub const ERR_CAR: i32 = 10;
    /// Vector operation on a non-vector or with a non-integer index.
    pub const ERR_VEC: i32 = 11;
    /// Vector index out of bounds.
    pub const ERR_BOUNDS: i32 = 12;
    /// Arithmetic on a non-number.
    pub const ERR_ARITH: i32 = 13;
    /// Heap exhausted even after collection.
    pub const ERR_OOM: i32 = 14;
    /// funcall of a symbol with no function definition.
    pub const ERR_FUNCALL: i32 = 15;
    /// Fixnum overflow (no bignums in this system).
    pub const ERR_OVERFLOW: i32 = 16;
    /// Division by zero.
    pub const ERR_DIV0: i32 = 17;
    /// Lisp stack overflow.
    pub const ERR_STACK: i32 = 18;
}

/// Labels of the runtime routines, created before user code is generated so call
/// sites can reference them, and bound by [`emit_runtime`].
#[derive(Debug, Clone, Copy)]
pub struct RtLabels {
    /// Collect garbage. In: `A2` = bytes needed (may be 0). Spills/reloads
    /// `A0`/`A1`; clobbers `T0..T9`, `X0`, `X1`; preserves `A2`; returns via `Link`.
    pub gc_collect: Label,
    /// `A0 + A1 → A0` when not both fixnums (float path) or on overflow (error).
    pub generic_add: Label,
    /// `A0 - A1 → A0`, as above.
    pub generic_sub: Label,
    /// `A0 * A1 → A0`, as above.
    pub generic_mul: Label,
    /// `A0 / A1 → A0`, as above.
    pub generic_div: Label,
    /// `A0 % A1 → A0`; floats are an error.
    pub generic_rem: Label,
    /// Numeric compare `A0 ? A1 → t/nil in A0`; the condition is fixed per label.
    pub generic_less: Label,
    /// See [`RtLabels::generic_less`].
    pub generic_greater: Label,
    /// See [`RtLabels::generic_less`].
    pub generic_leq: Label,
    /// See [`RtLabels::generic_less`].
    pub generic_geq: Label,
    /// See [`RtLabels::generic_less`].
    pub generic_numeq: Label,
    /// Print the name of the symbol in `A0`; clobbers `T8`, `T9`, `X0`.
    pub print_symbol: Label,
    /// Error stops.
    pub err_car: Label,
    /// See [`RtLabels::err_car`].
    pub err_vec: Label,
    /// See [`RtLabels::err_car`].
    pub err_bounds: Label,
    /// See [`RtLabels::err_car`].
    pub err_arith: Label,
    /// See [`RtLabels::err_car`].
    pub err_funcall: Label,
    /// See [`RtLabels::err_car`].
    pub err_overflow: Label,
    /// See [`RtLabels::err_car`].
    pub err_div0: Label,
    /// See [`RtLabels::err_car`].
    pub err_oom: Label,
    /// See [`RtLabels::err_car`].
    pub err_stack: Label,
}

impl RtLabels {
    /// Allocate all labels (unbound) on `asm`.
    pub fn create(asm: &mut Asm) -> RtLabels {
        RtLabels {
            gc_collect: asm.new_label(),
            generic_add: asm.new_label(),
            generic_sub: asm.new_label(),
            generic_mul: asm.new_label(),
            generic_div: asm.new_label(),
            generic_rem: asm.new_label(),
            generic_less: asm.new_label(),
            generic_greater: asm.new_label(),
            generic_leq: asm.new_label(),
            generic_geq: asm.new_label(),
            generic_numeq: asm.new_label(),
            print_symbol: asm.new_label(),
            err_car: asm.new_label(),
            err_vec: asm.new_label(),
            err_bounds: asm.new_label(),
            err_arith: asm.new_label(),
            err_funcall: asm.new_label(),
            err_overflow: asm.new_label(),
            err_div0: asm.new_label(),
            err_oom: asm.new_label(),
            err_stack: asm.new_label(),
        }
    }
}

const BASE_EXTRACT: Annot = Annot {
    tag_op: Some(TagOpKind::Extract),
    cat: CheckCat::NotChecking,
    prov: Provenance::Base,
};
const BASE_CHECK: Annot = Annot {
    tag_op: Some(TagOpKind::Check),
    cat: CheckCat::NotChecking,
    prov: Provenance::Base,
};
const BASE_REMOVE: Annot = Annot {
    tag_op: Some(TagOpKind::Remove),
    cat: CheckCat::NotChecking,
    prov: Provenance::Base,
};
const GENERIC: Annot = Annot {
    tag_op: Some(TagOpKind::Generic),
    cat: CheckCat::Arith,
    prov: Provenance::Checking,
};

/// Emit every runtime routine, binding the labels in `rt`.
pub fn emit_runtime(asm: &mut Asm, t: &TagOps, layout: &Layout, rt: &RtLabels) {
    emit_errors(asm, rt);
    emit_gc(asm, t, layout, rt);
    emit_generic_arith(asm, t, layout, rt);
    emit_print_symbol(asm, t, rt);
}

fn emit_errors(asm: &mut Asm, rt: &RtLabels) {
    let stops = [
        (rt.err_car, exit_code::ERR_CAR, "err_car"),
        (rt.err_vec, exit_code::ERR_VEC, "err_vec"),
        (rt.err_bounds, exit_code::ERR_BOUNDS, "err_bounds"),
        (rt.err_arith, exit_code::ERR_ARITH, "err_arith"),
        (rt.err_funcall, exit_code::ERR_FUNCALL, "err_funcall"),
        (rt.err_overflow, exit_code::ERR_OVERFLOW, "err_overflow"),
        (rt.err_div0, exit_code::ERR_DIV0, "err_div0"),
        (rt.err_oom, exit_code::ERR_OOM, "err_oom"),
        (rt.err_stack, exit_code::ERR_STACK, "err_stack"),
    ];
    for (label, code, name) in stops {
        asm.bind(label);
        asm.name_label(name, label);
        asm.li(Reg::X0, code);
        asm.halt(Reg::X0);
    }
}

/// The copying collector.
///
/// Register plan: `T0` scan, `T1` free, `T2` from-lo, `T3` from-hi, `T4` to-lo,
/// `T5` cursor, `T6` cell/limit, `T7` size scratch, `T8` forward arg/result,
/// `T9`/`X0` scratch, `X1` forward's link.
fn emit_gc(asm: &mut Asm, t: &TagOps, layout: &Layout, rt: &RtLabels) {
    // The GC space flag is runtime cell 0. Every layout-derived operand is
    // tagged, so the system image can be linked under any program's layout.
    let flag_addr = Reloc::RtCell(0);
    let li = |asm: &mut Asm, rd: Reg, r: Reloc| r.emit(asm, layout, |a, v| a.li(rd, v));
    let add_semi = |asm: &mut Asm, rd: Reg, rs: Reg| {
        Reloc::SemiBytes.emit(asm, layout, |a, semi| a.emit(Insn::Addi(rd, rs, semi)));
    };

    let forward = asm.new_label();

    asm.bind(rt.gc_collect);
    asm.name_label("gc_collect", rt.gc_collect);

    // Spill the two live registers onto the Lisp stack (they become roots).
    asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, -8));
    asm.st(Reg::A0, Reg::Sp, 0);
    asm.st(Reg::A1, Reg::Sp, 4);

    // Pick spaces from the flag.
    let use_b = asm.new_label();
    let spaces_done = asm.new_label();
    li(asm, Reg::X0, flag_addr);
    asm.ld(Reg::X0, Reg::X0, 0);
    asm.nop(); // load delay
    asm.bne(Reg::X0, Reg::Zero, use_b);
    // flag == 0: from = A, to = B
    li(asm, Reg::T2, Reloc::HeapA);
    li(asm, Reg::T4, Reloc::HeapB);
    asm.j(spaces_done);
    asm.bind(use_b);
    // flag == 1: from = B, to = A
    li(asm, Reg::T2, Reloc::HeapB);
    li(asm, Reg::T4, Reloc::HeapA);
    asm.bind(spaces_done);
    add_semi(asm, Reg::T3, Reg::T2);
    asm.mov(Reg::T0, Reg::T4);
    asm.mov(Reg::T1, Reg::T4);

    // --- root table --------------------------------------------------------
    let root_loop = asm.new_label();
    let root_done = asm.new_label();
    li(asm, Reg::T5, Reloc::RootsBase);
    asm.bind(root_loop);
    asm.ld(Reg::T6, Reg::T5, 0);
    asm.nop();
    asm.beq(Reg::T6, Reg::Zero, root_done);
    asm.ld(Reg::T8, Reg::T6, 0);
    asm.jal(forward, Reg::X1);
    asm.st(Reg::T8, Reg::T6, 0);
    asm.emit(Insn::Addi(Reg::T5, Reg::T5, 4));
    asm.j(root_loop);
    asm.bind(root_done);

    // --- stack -------------------------------------------------------------
    let stack_loop = asm.new_label();
    let stack_done = asm.new_label();
    asm.mov(Reg::T5, Reg::Sp);
    li(asm, Reg::T6, Reloc::StackTop);
    asm.bind(stack_loop);
    asm.br(Cond::Ge, Reg::T5, Reg::T6, stack_done);
    asm.ld(Reg::T8, Reg::T5, 0);
    asm.jal(forward, Reg::X1);
    asm.st(Reg::T8, Reg::T5, 0);
    asm.emit(Insn::Addi(Reg::T5, Reg::T5, 4));
    asm.j(stack_loop);
    asm.bind(stack_done);

    // --- Cheney scan ---------------------------------------------------------
    let scan_loop = asm.new_label();
    let scan_done = asm.new_label();
    asm.bind(scan_loop);
    asm.br(Cond::Ge, Reg::T0, Reg::T1, scan_done);
    asm.ld(Reg::T8, Reg::T0, 0);
    asm.jal(forward, Reg::X1);
    asm.st(Reg::T8, Reg::T0, 0);
    asm.emit(Insn::Addi(Reg::T0, Reg::T0, 4));
    asm.j(scan_loop);
    asm.bind(scan_done);

    // --- flip ----------------------------------------------------------------
    asm.mov(Reg::Hp, Reg::T1);
    add_semi(asm, Reg::Hl, Reg::T4);
    li(asm, Reg::X0, flag_addr);
    asm.ld(Reg::T9, Reg::X0, 0);
    asm.nop();
    asm.emit(Insn::Xori(Reg::T9, Reg::T9, 1));
    asm.st(Reg::T9, Reg::X0, 0);

    // Space check: Hp + A2 must fit.
    let ok = asm.new_label();
    asm.emit(Insn::Add(Reg::X0, Reg::Hp, Reg::A2));
    asm.br(Cond::Le, Reg::X0, Reg::Hl, ok);
    asm.j(rt.err_oom);
    asm.bind(ok);

    // Reload roots and return.
    asm.ld(Reg::A0, Reg::Sp, 0);
    asm.ld(Reg::A1, Reg::Sp, 4);
    asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, 8));
    asm.jr(Reg::Link);

    // --- forward(T8) → T8; link in X1 ----------------------------------------
    let ret = asm.new_label();
    let not_forwarded = asm.new_label();
    asm.bind(forward);
    asm.name_label("gc_forward", forward);

    // Integers are immediate: return unchanged. (A tag inspection the paper
    // counts: the GC is full of these.)
    if t.scheme.is_high() {
        let bits = t.scheme.tag_bits() as u8;
        asm.with_annot(BASE_EXTRACT, |a| {
            a.emit(Insn::Sll(Reg::T9, Reg::T8, bits));
            a.emit(Insn::Sra(Reg::T9, Reg::T9, bits));
        });
        asm.with_annot(BASE_CHECK, |a| a.br(Cond::Eq, Reg::T9, Reg::T8, ret));
    } else {
        asm.with_annot(BASE_EXTRACT, |a| a.emit(Insn::Andi(Reg::T9, Reg::T8, 0b11)));
        asm.with_annot(BASE_CHECK, |a| a.bri(Cond::Eq, Reg::T9, 0, ret));
    }
    // Pointer part; ignore anything outside from-space (symbols, constants,
    // already-new pointers).
    asm.with_annot(BASE_REMOVE, |a| {
        a.emit(Insn::And(Reg::T9, Reg::T8, Reg::Mask))
    });
    asm.br(Cond::Lt, Reg::T9, Reg::T2, ret);
    asm.br(Cond::Ge, Reg::T9, Reg::T3, ret);

    // Forwarded? First word being a non-integer pointing into to-space.
    asm.ld(Reg::X0, Reg::T9, 0);
    if t.scheme.is_high() {
        let bits = t.scheme.tag_bits() as u8;
        asm.with_annot(BASE_EXTRACT, |a| {
            a.emit(Insn::Sll(Reg::T7, Reg::X0, bits));
            a.emit(Insn::Sra(Reg::T7, Reg::T7, bits));
        });
        asm.with_annot(BASE_CHECK, |a| {
            a.br(Cond::Eq, Reg::T7, Reg::X0, not_forwarded)
        });
    } else {
        asm.with_annot(BASE_EXTRACT, |a| a.emit(Insn::Andi(Reg::T7, Reg::X0, 0b11)));
        asm.with_annot(BASE_CHECK, |a| a.bri(Cond::Eq, Reg::T7, 0, not_forwarded));
    }
    asm.with_annot(BASE_REMOVE, |a| {
        a.emit(Insn::And(Reg::T7, Reg::X0, Reg::Mask))
    });
    asm.br(Cond::Lt, Reg::T7, Reg::T4, not_forwarded);
    // S0/S1 are forward's scratch: the outer loops own T5/T6 as cursors, and
    // compiled Lisp code never keeps values in the callee-saved registers.
    add_semi(asm, Reg::S0, Reg::T4);
    asm.br(Cond::Ge, Reg::T7, Reg::S0, not_forwarded);
    // Forwarded: the stored word is the new tagged pointer.
    asm.mov(Reg::T8, Reg::X0);
    asm.j(ret);

    asm.bind(not_forwarded);
    // Size: pairs are 8 bytes; headered objects round8((len+1)*4).
    let headered = asm.new_label();
    let copy = asm.new_label();
    let pair_raw = t.check_value(Tag::Pair) as i32;
    asm.with_annot(BASE_EXTRACT, |a| {
        if t.scheme.is_high() {
            a.emit(Insn::Srl(Reg::T7, Reg::T8, t.field().shift));
        } else {
            a.emit(Insn::Andi(Reg::T7, Reg::T8, t.field().mask));
        }
    });
    asm.with_annot(BASE_CHECK, |a| a.bri(Cond::Ne, Reg::T7, pair_raw, headered));
    asm.li(Reg::T7, 8);
    asm.j(copy);
    asm.bind(headered);
    // X0 still holds the header word.
    asm.emit(Insn::Srl(Reg::T7, Reg::X0, HDR_LEN_SHIFT as u8));
    asm.emit(Insn::Addi(Reg::T7, Reg::T7, 1));
    asm.emit(Insn::Sll(Reg::T7, Reg::T7, 2));
    asm.emit(Insn::Addi(Reg::T7, Reg::T7, 7));
    asm.emit(Insn::Srl(Reg::T7, Reg::T7, 3));
    asm.emit(Insn::Sll(Reg::T7, Reg::T7, 3));
    asm.bind(copy);

    // Copy T7 bytes from T9 to T1 (X0 = cursor offset; S0/S1 scratch).
    let copy_loop = asm.new_label();
    let copy_done = asm.new_label();
    asm.li(Reg::X0, 0);
    asm.bind(copy_loop);
    asm.br(Cond::Ge, Reg::X0, Reg::T7, copy_done);
    asm.emit(Insn::Add(Reg::S0, Reg::T9, Reg::X0));
    asm.ld(Reg::S0, Reg::S0, 0);
    asm.emit(Insn::Add(Reg::S1, Reg::T1, Reg::X0));
    asm.st(Reg::S0, Reg::S1, 0);
    asm.emit(Insn::Addi(Reg::X0, Reg::X0, 4));
    asm.j(copy_loop);
    asm.bind(copy_done);

    // New tagged pointer: to-space address | original tag bits (tag = T8 ^ T9).
    asm.emit(Insn::Xor(Reg::X0, Reg::T8, Reg::T9));
    asm.with_annot(
        Annot {
            tag_op: Some(TagOpKind::Insert),
            cat: CheckCat::NotChecking,
            prov: Provenance::Base,
        },
        |a| a.emit(Insn::Or(Reg::X0, Reg::T1, Reg::X0)),
    );
    // Install forwarding pointer, bump free.
    asm.st(Reg::X0, Reg::T9, 0);
    asm.emit(Insn::Add(Reg::T1, Reg::T1, Reg::T7));
    asm.mov(Reg::T8, Reg::X0);
    asm.bind(ret);
    asm.jr(Reg::X1);
}

/// Unbox the float in `src` into raw f32 bits in `dst`. If `src` is an integer,
/// convert it instead. Anything else jumps to the arithmetic error stop.
fn emit_tofloat(asm: &mut Asm, t: &TagOps, src: Reg, dst: Reg, rt: &RtLabels) {
    let is_float = asm.new_label();
    let done = asm.new_label();
    // integer? convert.
    t.branch_int(
        asm,
        src,
        Reg::X0,
        is_float,
        false,
        CheckCat::Arith,
        Provenance::Checking,
    );
    if t.scheme.is_high() {
        asm.with_annot(GENERIC, |a| {
            a.emit(Insn::Fop(FpOp::FromInt, dst, src, Reg::Zero))
        });
    } else {
        asm.with_annot(GENERIC, |a| {
            a.emit(Insn::Sra(dst, src, 2));
            a.emit(Insn::Fop(FpOp::FromInt, dst, dst, Reg::Zero));
        });
    }
    asm.j(done);
    asm.bind(is_float);
    // must be a float box
    t.check_exact(
        asm,
        src,
        Reg::X0,
        Tag::Float,
        rt.err_arith,
        CheckCat::Arith,
        Provenance::Checking,
    );
    let (base, fold) = t.address(asm, src, Reg::X0, Tag::Float, GENERIC);
    asm.with_annot(GENERIC, |a| a.ld(dst, base, fold + 4));
    asm.bind(done);
}

/// Box the raw f32 bits in `src` as a fresh float object, result in `A0`.
/// Clobbers `X0`, `X1`; may collect.
fn emit_boxfloat(asm: &mut Asm, t: &TagOps, src: Reg, rt: &RtLabels) {
    let ok = asm.new_label();
    asm.emit(Insn::Addi(Reg::X0, Reg::Hp, 8));
    asm.br(Cond::Le, Reg::X0, Reg::Hl, ok);
    asm.li(Reg::A2, 8);
    // Link was saved (shifted) by the generic-op prologue, so clobbering it here
    // is fine; gc_collect returns via Link.
    asm.jal(rt.gc_collect, Reg::Link);
    asm.bind(ok);
    asm.li(Reg::X0, crate::layout::header(FLOAT_CODE, 1) as i32);
    asm.st(Reg::X0, Reg::Hp, 0);
    asm.st(src, Reg::Hp, 4);
    t.insert(asm, Reg::A0, Reg::Hp, Reg::X0, Tag::Float, GENERIC);
    asm.emit(Insn::Addi(Reg::Hp, Reg::Hp, 8));
}

fn emit_generic_arith(asm: &mut Asm, t: &TagOps, layout: &Layout, rt: &RtLabels) {
    // Binary float ops. Called with A0, A1 when not both fixnums; saves Link on
    // the stack because boxing may collect.
    let ops: [(Label, Option<FpOp>, &str); 5] = [
        (rt.generic_add, Some(FpOp::Add), "generic_add"),
        (rt.generic_sub, Some(FpOp::Sub), "generic_sub"),
        (rt.generic_mul, Some(FpOp::Mul), "generic_mul"),
        (rt.generic_div, Some(FpOp::Div), "generic_div"),
        (rt.generic_rem, None, "generic_rem"),
    ];
    for (label, fop, name) in ops {
        asm.bind(label);
        asm.name_label(name, label);
        let Some(fop) = fop else {
            // remainder has no float form: reaching here is a type error (or a
            // fixnum overflow, which remainder cannot produce).
            asm.j(rt.err_arith);
            continue;
        };
        // If both are integers we got here through the overflow path: error.
        let not_both_int = asm.new_label();
        t.branch_int(
            asm,
            Reg::A0,
            Reg::X0,
            not_both_int,
            false,
            CheckCat::Arith,
            Provenance::Checking,
        );
        t.branch_int(
            asm,
            Reg::A1,
            Reg::X0,
            not_both_int,
            false,
            CheckCat::Arith,
            Provenance::Checking,
        );
        asm.j(rt.err_overflow);
        asm.bind(not_both_int);
        // Save Link (shifted to look like a fixnum) around the boxing alloc.
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, -4));
        asm.emit(Insn::Sll(Reg::X0, Reg::Link, 2));
        asm.st(Reg::X0, Reg::Sp, 0);
        emit_tofloat(asm, t, Reg::A0, Reg::T6, rt);
        emit_tofloat(asm, t, Reg::A1, Reg::T7, rt);
        asm.with_annot(GENERIC, |a| {
            a.emit(Insn::Fop(fop, Reg::T6, Reg::T6, Reg::T7))
        });
        emit_boxfloat(asm, t, Reg::T6, rt);
        asm.ld(Reg::X0, Reg::Sp, 0);
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, 4));
        asm.emit(Insn::Sra(Reg::X0, Reg::X0, 2));
        asm.jr(Reg::X0);
    }

    // Comparisons: produce t/nil in A0; no allocation, Link untouched.
    let cmps = [
        (rt.generic_less, FpOp::Lt, false, "generic_less"),
        (rt.generic_greater, FpOp::Lt, true, "generic_greater"),
        (rt.generic_leq, FpOp::Lt, true, "generic_leq"), // a<=b == !(b<a)
        (rt.generic_geq, FpOp::Lt, false, "generic_geq"), // a>=b == !(a<b)
        (rt.generic_numeq, FpOp::Sub, false, "generic_numeq"),
    ];
    for (i, (label, _, swapped, name)) in cmps.into_iter().enumerate() {
        asm.bind(label);
        asm.name_label(name, label);
        emit_tofloat(asm, t, Reg::A0, Reg::T6, rt);
        emit_tofloat(asm, t, Reg::A1, Reg::T7, rt);
        let yes = asm.new_label();
        let done = asm.new_label();
        let (x, y) = if swapped {
            (Reg::T7, Reg::T6)
        } else {
            (Reg::T6, Reg::T7)
        };
        match i {
            0 | 1 => {
                // less / greater: flag = x < y
                asm.with_annot(GENERIC, |a| a.emit(Insn::Fop(FpOp::Lt, Reg::X0, x, y)));
                asm.bne(Reg::X0, Reg::Zero, yes);
            }
            2 | 3 => {
                // leq/geq: !(x < y) with operands pre-swapped appropriately
                asm.with_annot(GENERIC, |a| a.emit(Insn::Fop(FpOp::Lt, Reg::X0, x, y)));
                asm.beq(Reg::X0, Reg::Zero, yes);
            }
            _ => {
                // numeq: bit-compare after coercion (adequate for our workloads)
                asm.beq(Reg::T6, Reg::T7, yes);
            }
        }
        asm.mov(Reg::A0, Reg::Nil);
        asm.j(done);
        asm.bind(yes);
        asm.mov(Reg::A0, Reg::TrueR);
        asm.bind(done);
        asm.jr(Reg::Link);
    }

    let _ = layout;
}

fn emit_print_symbol(asm: &mut Asm, t: &TagOps, rt: &RtLabels) {
    asm.bind(rt.print_symbol);
    asm.name_label("print_symbol", rt.print_symbol);
    let (base, fold) = t.address(asm, Reg::A0, Reg::X0, Tag::Symbol, BASE_REMOVE);
    // T8 = char cursor, T9 = end
    asm.ld(Reg::T9, base, fold + SYM_NAMELEN);
    asm.emit(Insn::Addi(Reg::T8, base, fold + SYM_NAME));
    asm.emit(Insn::Sll(Reg::T9, Reg::T9, 2));
    asm.emit(Insn::Add(Reg::T9, Reg::T8, Reg::T9));
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.bind(lp);
    asm.br(Cond::Ge, Reg::T8, Reg::T9, done);
    asm.ld(Reg::X0, Reg::T8, 0);
    asm.nop();
    asm.write(Reg::X0, WriteKind::Char);
    asm.emit(Insn::Addi(Reg::T8, Reg::T8, 4));
    asm.j(lp);
    asm.bind(done);
    asm.jr(Reg::Link);
}

#[allow(unused_imports)]
use crate::front::CheckingMode as _docref;
