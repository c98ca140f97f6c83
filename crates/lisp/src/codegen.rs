//! The code generator: [`Expr`] → annotated MIPS-X instructions.
//!
//! ## Conventions
//!
//! - Every expression evaluates into `A0`.
//! - Arguments are staged through the Lisp stack: complex arguments (and mutable
//!   simple ones that a later complex argument could change) are evaluated in
//!   order and pushed, then popped into their registers; immutable simple
//!   arguments are materialised directly.
//! - Frames: `[saved link << 2][param 0]…[param n][let locals…]`, addressed off
//!   `Sp` with the compile-time push depth folded into displacements.
//! - At any allocation point the only live registers are `A0`/`A1` (plus `A2` as
//!   a raw byte count); the GC scans exactly those plus the stack — see
//!   [`crate::runtime`].
//! - Scratch registers inside a primitive: `X0`, `X1`, `T8`, `T9` (never live
//!   across calls or allocation).
//!
//! ## Checking modes
//!
//! With [`CheckingMode::None`] the generator emits the bare operation (plus the
//! tag removals and insertions the representation forces). With
//! [`CheckingMode::Full`] it prepends the checks of paper §2.2: pair checks on
//! list access (category *list*), tag/index/bounds checks on vectors (*vector*),
//! and integer-biased generic arithmetic (*arith*) — 10 cycles for a checked
//! add on the plain high-tag scheme, 4 with the §4.2 arithmetic-safe encoding,
//! 1 with §6.2.2 trap hardware.

use mipsx::{
    Annot, Asm, CheckCat, Cond, FpOp, Insn, Label, ParallelCheck, Provenance, Reg, TagOpKind,
    WriteKind,
};
use tagword::{Tag, TagScheme};

use crate::ast::{Expr, FnDef, Prim, Unit};
use crate::error::CompileError;
use crate::front::CheckingMode;
use crate::layout::{Layout, Reloc, HDR_LEN_SHIFT, SYM_FNCODE, SYM_PLIST, VEC_CODE};
use crate::runtime::RtLabels;
use crate::tagops::TagOps;

const BASE_REMOVE: Annot = Annot {
    tag_op: Some(TagOpKind::Remove),
    cat: CheckCat::NotChecking,
    prov: Provenance::Base,
};
const BASE_INSERT: Annot = Annot {
    tag_op: Some(TagOpKind::Insert),
    cat: CheckCat::NotChecking,
    prov: Provenance::Base,
};
const GENERIC_ARITH: Annot = Annot {
    tag_op: Some(TagOpKind::Generic),
    cat: CheckCat::Arith,
    prov: Provenance::Checking,
};

fn check_annot(op: TagOpKind, cat: CheckCat) -> Annot {
    Annot {
        tag_op: Some(op),
        cat,
        prov: Provenance::Checking,
    }
}

/// Whether the compiler can prove this expression yields a fixnum (integer
/// literals only; a real system would also use declarations and flow analysis).
fn known_int(e: &Expr) -> bool {
    matches!(e, Expr::Int(_))
}

/// A deferred out-of-line block (slow paths placed after the function body so the
/// fast path pays no jump).
struct Deferred {
    slow: Label,
    done: Label,
    body: DeferredBody,
}

enum DeferredBody {
    /// `[undo]; jal rt; [branch A0==nil → target]; j done`
    GenericCall {
        undo: Option<Insn>,
        rt: Label,
        branch_nil_to: Option<Label>,
    },
}

/// Per-function state.
struct FnCtx {
    frame_words: usize,
    push_depth: usize,
    deferred: Vec<Deferred>,
}

impl FnCtx {
    fn new(nslots: usize) -> FnCtx {
        FnCtx {
            frame_words: 1 + nslots,
            push_depth: 0,
            deferred: Vec::new(),
        }
    }

    fn slot_off(&self, slot: usize) -> i32 {
        4 * (self.push_depth + 1 + slot) as i32
    }
}

/// The code generator.
pub struct Codegen<'a> {
    /// The lowered unit.
    pub unit: &'a Unit,
    /// Memory map and static data.
    pub layout: &'a Layout<'a>,
    /// Tag-operation emitter.
    pub t: TagOps,
    /// Runtime routine labels.
    pub rt: RtLabels,
    /// Entry label per function.
    pub fn_labels: Vec<Label>,
}

impl<'a> Codegen<'a> {
    /// Integer increment representing 1 under the scheme.
    fn one(&self) -> i32 {
        if self.t.scheme.is_high() {
            1
        } else {
            4
        }
    }

    fn full(&self) -> bool {
        self.t.checking == CheckingMode::Full
    }

    fn parallel_lists(&self) -> bool {
        self.full() && self.t.hw.parallel_check != ParallelCheck::None
    }

    fn parallel_all(&self) -> bool {
        self.full() && self.t.hw.parallel_check == ParallelCheck::All
    }

    fn make_int(&self, v: i32) -> Result<i32, CompileError> {
        self.t
            .scheme
            .make_int(v)
            .map(|w| w as i32)
            .map_err(|e| CompileError::Literal {
                message: e.to_string(),
            })
    }

    // --- stack ------------------------------------------------------------------

    fn push(&self, asm: &mut Asm, ctx: &mut FnCtx, reg: Reg) {
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, -4));
        asm.st(reg, Reg::Sp, 0);
        ctx.push_depth += 1;
    }

    fn pop(&self, asm: &mut Asm, ctx: &mut FnCtx, reg: Reg) {
        asm.ld(reg, Reg::Sp, 0);
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, 4));
        ctx.push_depth -= 1;
    }

    // --- simple values -------------------------------------------------------------

    fn eval_simple(
        &self,
        asm: &mut Asm,
        ctx: &FnCtx,
        e: &Expr,
        dst: Reg,
    ) -> Result<(), CompileError> {
        match e {
            Expr::Nil => asm.mov(dst, Reg::Nil),
            Expr::T => asm.mov(dst, Reg::TrueR),
            Expr::Int(v) => {
                let w = self.make_int(*v)?;
                asm.li(dst, w);
            }
            Expr::Const(i) => {
                Reloc::Const(*i as u32).emit(asm, self.layout, |a, w| a.li(dst, w));
            }
            Expr::Local(s) => asm.ld(dst, Reg::Sp, ctx.slot_off(*s)),
            Expr::Global(g) => asm.ld(dst, Reg::Gp, 4 * *g as i32),
            _ => unreachable!("eval_simple on a non-simple expression"),
        }
        Ok(())
    }

    /// Evaluate `args` into `dsts` (prefix), honouring left-to-right order.
    fn eval_args(
        &self,
        asm: &mut Asm,
        ctx: &mut FnCtx,
        args: &[Expr],
        dsts: &[Reg],
    ) -> Result<(), CompileError> {
        assert!(
            args.len() <= dsts.len(),
            "too many arguments for register set"
        );
        let last_complex = args.iter().rposition(|a| !a.is_simple());
        let pushed: Vec<bool> = args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if !a.is_simple() {
                    return true;
                }
                // Mutable simple values must be captured before a later complex
                // argument might change them.
                let mutable = matches!(a, Expr::Local(_) | Expr::Global(_));
                mutable && last_complex.map(|lc| i < lc).unwrap_or(false)
            })
            .collect();
        for (i, a) in args.iter().enumerate() {
            if pushed[i] {
                self.eval(asm, ctx, a)?;
                self.push(asm, ctx, Reg::A0);
            }
        }
        for i in (0..args.len()).rev() {
            if pushed[i] {
                self.pop(asm, ctx, dsts[i]);
            }
        }
        for (i, a) in args.iter().enumerate() {
            if !pushed[i] {
                self.eval_simple(asm, ctx, a, dsts[i])?;
            }
        }
        Ok(())
    }

    // --- expressions -----------------------------------------------------------

    /// Evaluate `e`; the result is left in `A0`.
    fn eval(&self, asm: &mut Asm, ctx: &mut FnCtx, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Nil
            | Expr::T
            | Expr::Int(_)
            | Expr::Const(_)
            | Expr::Local(_)
            | Expr::Global(_) => self.eval_simple(asm, ctx, e, Reg::A0),
            Expr::Float(bits) => {
                // Box a float literal.
                let ok = asm.new_label();
                asm.emit(Insn::Addi(Reg::X0, Reg::Hp, 8));
                asm.br(Cond::Le, Reg::X0, Reg::Hl, ok);
                asm.li(Reg::A2, 8);
                asm.jal(self.rt.gc_collect, Reg::Link);
                asm.bind(ok);
                asm.li(
                    Reg::X0,
                    crate::layout::header(crate::layout::FLOAT_CODE, 1) as i32,
                );
                asm.st(Reg::X0, Reg::Hp, 0);
                asm.li(Reg::X0, *bits as i32);
                asm.st(Reg::X0, Reg::Hp, 4);
                self.t
                    .insert(asm, Reg::A0, Reg::Hp, Reg::X1, Tag::Float, BASE_INSERT);
                asm.emit(Insn::Addi(Reg::Hp, Reg::Hp, 8));
                Ok(())
            }
            Expr::SetLocal(s, v) => {
                self.eval(asm, ctx, v)?;
                asm.st(Reg::A0, Reg::Sp, ctx.slot_off(*s));
                Ok(())
            }
            Expr::SetGlobal(g, v) => {
                self.eval(asm, ctx, v)?;
                asm.st(Reg::A0, Reg::Gp, 4 * *g as i32);
                Ok(())
            }
            Expr::If(c, t, f) => {
                let else_l = asm.new_label();
                let end = asm.new_label();
                self.branch_false(asm, ctx, c, else_l)?;
                self.eval(asm, ctx, t)?;
                asm.j(end);
                asm.bind(else_l);
                self.eval(asm, ctx, f)?;
                asm.bind(end);
                Ok(())
            }
            Expr::Progn(es) => {
                if es.is_empty() {
                    asm.mov(Reg::A0, Reg::Nil);
                    return Ok(());
                }
                for e in es {
                    self.eval(asm, ctx, e)?;
                }
                Ok(())
            }
            Expr::While(c, body) => {
                let top = asm.new_label();
                let end = asm.new_label();
                asm.bind(top);
                self.branch_false(asm, ctx, c, end)?;
                for b in body {
                    self.eval(asm, ctx, b)?;
                }
                asm.j(top);
                asm.bind(end);
                asm.mov(Reg::A0, Reg::Nil);
                Ok(())
            }
            Expr::And(es) => {
                if es.is_empty() {
                    asm.mov(Reg::A0, Reg::TrueR);
                    return Ok(());
                }
                let false_l = asm.new_label();
                let end = asm.new_label();
                for (i, e) in es.iter().enumerate() {
                    self.eval(asm, ctx, e)?;
                    if i + 1 < es.len() {
                        asm.beq(Reg::A0, Reg::Nil, false_l);
                    }
                }
                asm.j(end);
                asm.bind(false_l);
                asm.mov(Reg::A0, Reg::Nil);
                asm.bind(end);
                Ok(())
            }
            Expr::Or(es) => {
                if es.is_empty() {
                    asm.mov(Reg::A0, Reg::Nil);
                    return Ok(());
                }
                let end = asm.new_label();
                for (i, e) in es.iter().enumerate() {
                    self.eval(asm, ctx, e)?;
                    if i + 1 < es.len() {
                        asm.bne(Reg::A0, Reg::Nil, end);
                    }
                }
                asm.bind(end);
                Ok(())
            }
            Expr::Call(f, args) => {
                let dsts = &Reg::ARGS[..args.len()];
                self.eval_args(asm, ctx, args, dsts)?;
                asm.jal(self.fn_labels[*f], Reg::Link);
                Ok(())
            }
            Expr::Funcall(f, args) => {
                // Stage the function (a symbol) through T9.
                let mut all = Vec::with_capacity(args.len() + 1);
                all.push((**f).clone());
                all.extend(args.iter().cloned());
                let mut dsts = vec![Reg::T9];
                dsts.extend_from_slice(&Reg::ARGS[..args.len()]);
                self.eval_args(asm, ctx, &all, &dsts)?;
                if self.full() {
                    self.t.check_exact(
                        asm,
                        Reg::T9,
                        Reg::X0,
                        Tag::Symbol,
                        self.rt.err_funcall,
                        CheckCat::List,
                        Provenance::Checking,
                    );
                }
                let (base, fold) = self
                    .t
                    .address(asm, Reg::T9, Reg::X1, Tag::Symbol, BASE_REMOVE);
                asm.ld(Reg::T8, base, fold + SYM_FNCODE);
                if self.full() {
                    asm.with_annot(check_annot(TagOpKind::Check, CheckCat::List), |a| {
                        a.bri(Cond::Eq, Reg::T8, 0, self.rt.err_funcall)
                    });
                } else {
                    asm.nop(); // load delay before jalr
                }
                asm.jalr(Reg::T8, Reg::Link);
                Ok(())
            }
            Expr::Prim(p, args) => self.prim(asm, ctx, *p, args),
        }
    }

    // --- conditional compilation of predicates -----------------------------------

    /// Branch to `target` when `e` evaluates to nil (false).
    fn branch_false(
        &self,
        asm: &mut Asm,
        ctx: &mut FnCtx,
        e: &Expr,
        target: Label,
    ) -> Result<(), CompileError> {
        self.branch_bool(asm, ctx, e, target, false)
    }

    /// Branch to `target` when `e` evaluates truthy.
    fn branch_true(
        &self,
        asm: &mut Asm,
        ctx: &mut FnCtx,
        e: &Expr,
        target: Label,
    ) -> Result<(), CompileError> {
        self.branch_bool(asm, ctx, e, target, true)
    }

    /// Shared implementation: branch to `target` when truthiness == `want`.
    fn branch_bool(
        &self,
        asm: &mut Asm,
        ctx: &mut FnCtx,
        e: &Expr,
        target: Label,
        want: bool,
    ) -> Result<(), CompileError> {
        match e {
            Expr::Nil => {
                if !want {
                    asm.j(target);
                }
                return Ok(());
            }
            Expr::T | Expr::Int(_) | Expr::Const(_) => {
                if want {
                    asm.j(target);
                }
                return Ok(());
            }
            Expr::Prim(Prim::Null, args) => {
                return self.branch_bool(asm, ctx, &args[0], target, !want);
            }
            Expr::Prim(Prim::Eq, args) => {
                self.eval_args(asm, ctx, args, &[Reg::A0, Reg::A1])?;
                let cond = if want { Cond::Eq } else { Cond::Ne };
                asm.br(cond, Reg::A0, Reg::A1, target);
                return Ok(());
            }
            Expr::Prim(p, args)
                if matches!(
                    p,
                    Prim::Pairp
                        | Prim::Atom
                        | Prim::Idp
                        | Prim::Vectorp
                        | Prim::Floatp
                        | Prim::Intp
                ) =>
            {
                self.eval(asm, ctx, &args[0])?;
                let (tag, invert) = match p {
                    Prim::Pairp => (Some(Tag::Pair), false),
                    Prim::Atom => (Some(Tag::Pair), true),
                    Prim::Idp => (Some(Tag::Symbol), false),
                    Prim::Vectorp => (Some(Tag::Vector), false),
                    Prim::Floatp => (Some(Tag::Float), false),
                    Prim::Intp => (None, false),
                    _ => unreachable!(),
                };
                let if_match = want != invert;
                match tag {
                    Some(tag) => self.t.branch_type(
                        asm,
                        Reg::A0,
                        Reg::X0,
                        tag,
                        target,
                        if_match,
                        CheckCat::NotChecking,
                        Provenance::Base,
                    ),
                    None => self.t.branch_int(
                        asm,
                        Reg::A0,
                        Reg::X0,
                        target,
                        if_match,
                        CheckCat::NotChecking,
                        Provenance::Base,
                    ),
                }
                return Ok(());
            }
            Expr::Prim(p, args)
                if matches!(
                    p,
                    Prim::Lessp | Prim::Greaterp | Prim::Leq | Prim::Geq | Prim::NumEq
                ) =>
            {
                self.eval_args(asm, ctx, args, &[Reg::A0, Reg::A1])?;
                let cond = match p {
                    Prim::Lessp => Cond::Lt,
                    Prim::Greaterp => Cond::Gt,
                    Prim::Leq => Cond::Le,
                    Prim::Geq => Cond::Ge,
                    Prim::NumEq => Cond::Eq,
                    _ => unreachable!(),
                };
                let cond = if want { cond } else { cond.negate() };
                if self.full() {
                    let slow = asm.new_label();
                    let done = asm.new_label();
                    if !known_int(&args[0]) {
                        self.t.check_int(
                            asm,
                            Reg::A0,
                            Reg::X0,
                            slow,
                            CheckCat::Arith,
                            Provenance::Checking,
                        );
                    }
                    if !known_int(&args[1]) {
                        self.t.check_int(
                            asm,
                            Reg::A1,
                            Reg::X0,
                            slow,
                            CheckCat::Arith,
                            Provenance::Checking,
                        );
                    }
                    asm.br(cond, Reg::A0, Reg::A1, target);
                    asm.bind(done);
                    let rt = self.cmp_rt(*p);
                    ctx.deferred.push(Deferred {
                        slow,
                        done,
                        body: DeferredBody::GenericCall {
                            undo: None,
                            rt,
                            branch_nil_to: Some(if want { done } else { target }),
                        },
                    });
                    // When `want`, a nil result must fall through to done and a
                    // non-nil result must reach `target`; encode by branching on
                    // nil to the "false" destination and jumping to the other.
                    // Handled in emit_deferred via branch_nil_to + done/target.
                    if want {
                        // deferred: jal; beq A0,nil→done(false-case falls back); j target
                        // adjust: store target as the done-jump
                        let d = ctx.deferred.last_mut().expect("just pushed");
                        let DeferredBody::GenericCall { branch_nil_to, .. } = &mut d.body;
                        *branch_nil_to = Some(done);
                        d.done = target;
                    }
                    return Ok(());
                }
                asm.br(cond, Reg::A0, Reg::A1, target);
                return Ok(());
            }
            Expr::And(es) if !es.is_empty() => {
                if !want {
                    for e in es {
                        self.branch_false(asm, ctx, e, target)?;
                    }
                } else {
                    let out = asm.new_label();
                    for (i, e) in es.iter().enumerate() {
                        if i + 1 < es.len() {
                            self.branch_false(asm, ctx, e, out)?;
                        } else {
                            self.branch_true(asm, ctx, e, target)?;
                        }
                    }
                    asm.bind(out);
                }
                return Ok(());
            }
            Expr::Or(es) if !es.is_empty() => {
                if want {
                    for e in es {
                        self.branch_true(asm, ctx, e, target)?;
                    }
                } else {
                    let out = asm.new_label();
                    for (i, e) in es.iter().enumerate() {
                        if i + 1 < es.len() {
                            self.branch_true(asm, ctx, e, out)?;
                        } else {
                            self.branch_false(asm, ctx, e, target)?;
                        }
                    }
                    asm.bind(out);
                }
                return Ok(());
            }
            _ => {}
        }
        // General case: materialise and test against nil.
        self.eval(asm, ctx, e)?;
        let cond = if want { Cond::Ne } else { Cond::Eq };
        asm.br(cond, Reg::A0, Reg::Nil, target);
        Ok(())
    }

    // --- primitives -----------------------------------------------------------------

    fn cmp_rt(&self, p: Prim) -> Label {
        match p {
            Prim::Lessp => self.rt.generic_less,
            Prim::Greaterp => self.rt.generic_greater,
            Prim::Leq => self.rt.generic_leq,
            Prim::Geq => self.rt.generic_geq,
            Prim::NumEq => self.rt.generic_numeq,
            _ => unreachable!("not a comparison"),
        }
    }

    fn arith_rt(&self, p: Prim) -> Label {
        match p {
            Prim::Plus | Prim::Add1 => self.rt.generic_add,
            Prim::Difference | Prim::Sub1 | Prim::Minus => self.rt.generic_sub,
            Prim::Times => self.rt.generic_mul,
            Prim::Quotient => self.rt.generic_div,
            Prim::Remainder => self.rt.generic_rem,
            _ => unreachable!("not arithmetic"),
        }
    }

    /// Inline pair allocation: car in `A0`, cdr in `A1`, tagged result in `A0`.
    fn alloc_pair(&self, asm: &mut Asm) {
        let ok = asm.new_label();
        asm.emit(Insn::Addi(Reg::X0, Reg::Hp, 8));
        asm.br(Cond::Le, Reg::X0, Reg::Hl, ok);
        asm.li(Reg::A2, 8);
        asm.jal(self.rt.gc_collect, Reg::Link);
        asm.bind(ok);
        asm.st(Reg::A0, Reg::Hp, 0);
        asm.st(Reg::A1, Reg::Hp, 4);
        self.t
            .insert(asm, Reg::A0, Reg::Hp, Reg::X1, Tag::Pair, BASE_INSERT);
        asm.emit(Insn::Addi(Reg::Hp, Reg::Hp, 8));
    }

    /// car/cdr/rplaca/rplacd shared helper. `off` = 0 (car) or 4 (cdr); when
    /// `store` the value register `A1` is written.
    fn list_access(&self, asm: &mut Asm, off: i32, store: bool) {
        let pair_raw = self.t.check_value(Tag::Pair);
        if self.parallel_lists() {
            let field = self.t.field();
            if store {
                asm.emit(Insn::StChk {
                    src: Reg::A1,
                    base: Reg::A0,
                    disp: off,
                    field,
                    expect: pair_raw,
                    on_fail: self.rt.err_car.id(),
                });
            } else {
                asm.emit(Insn::LdChk {
                    rd: Reg::A0,
                    base: Reg::A0,
                    disp: off,
                    field,
                    expect: pair_raw,
                    on_fail: self.rt.err_car.id(),
                });
            }
            return;
        }
        if self.full() {
            self.t.check_exact(
                asm,
                Reg::A0,
                Reg::X0,
                Tag::Pair,
                self.rt.err_car,
                CheckCat::List,
                Provenance::Checking,
            );
        }
        let (base, fold) = self
            .t
            .address(asm, Reg::A0, Reg::X0, Tag::Pair, BASE_REMOVE);
        if store {
            asm.st(Reg::A1, base, fold + off);
        } else {
            asm.ld(Reg::A0, base, fold + off);
        }
    }

    /// Full-mode checked binary integer arithmetic with an out-of-line generic
    /// slow path. Operands in `A0`/`A1`, result in `A0`. `known_int` marks
    /// operands the compiler has proven to be fixnums (integer literals), whose
    /// tests are elided — the paper's §3 point that context-derived types remove
    /// checks "without affecting correctness or security".
    fn generic_binary(&self, asm: &mut Asm, ctx: &mut FnCtx, p: Prim, known_int: (bool, bool)) {
        let slow = asm.new_label();
        let done = asm.new_label();
        let overflow_checked = matches!(p, Prim::Plus | Prim::Difference);

        if self.t.hw.generic_arith && overflow_checked {
            // §6.2.2 hardware: one cycle, trap to the software path.
            let int_test = self.t.int_test();
            let insn = if p == Prim::Plus {
                Insn::AddG {
                    rd: Reg::A0,
                    rs: Reg::A0,
                    rt: Reg::A1,
                    int_test,
                    on_fail: slow.id(),
                }
            } else {
                Insn::SubG {
                    rd: Reg::A0,
                    rs: Reg::A0,
                    rt: Reg::A1,
                    int_test,
                    on_fail: slow.id(),
                }
            };
            asm.emit(insn);
            asm.bind(done);
            ctx.deferred.push(Deferred {
                slow,
                done,
                body: DeferredBody::GenericCall {
                    undo: None,
                    rt: self.arith_rt(p),
                    branch_nil_to: None,
                },
            });
            return;
        }

        if self.t.scheme == TagScheme::HighTag6 && overflow_checked {
            // §4.2 arithmetic-safe encoding: operate first, one check on the
            // result. The slow path reconstructs the operand by undoing the op.
            let (op, undo): (Insn, Insn) = if p == Prim::Plus {
                (
                    Insn::Add(Reg::A0, Reg::A0, Reg::A1),
                    Insn::Sub(Reg::A0, Reg::A0, Reg::A1),
                )
            } else {
                (
                    Insn::Sub(Reg::A0, Reg::A0, Reg::A1),
                    Insn::Add(Reg::A0, Reg::A0, Reg::A1),
                )
            };
            asm.emit(op);
            self.t.check_int(
                asm,
                Reg::A0,
                Reg::X0,
                slow,
                CheckCat::Arith,
                Provenance::Checking,
            );
            asm.bind(done);
            ctx.deferred.push(Deferred {
                slow,
                done,
                body: DeferredBody::GenericCall {
                    undo: Some(undo),
                    rt: self.arith_rt(p),
                    branch_nil_to: None,
                },
            });
            return;
        }

        // Plain integer-biased sequence: test both operands, operate, and (for
        // add/sub) catch overflow via the type check on the result — 10 cycles
        // for an add under HighTag5, as in §4.2.
        if !known_int.0 {
            self.t.check_int(
                asm,
                Reg::A0,
                Reg::X0,
                slow,
                CheckCat::Arith,
                Provenance::Checking,
            );
        }
        if !known_int.1 {
            self.t.check_int(
                asm,
                Reg::A1,
                Reg::X0,
                slow,
                CheckCat::Arith,
                Provenance::Checking,
            );
        }
        let mut undo = None;
        match p {
            Prim::Plus => {
                asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A1));
                undo = Some(Insn::Sub(Reg::A0, Reg::A0, Reg::A1));
            }
            Prim::Difference => {
                asm.emit(Insn::Sub(Reg::A0, Reg::A0, Reg::A1));
                undo = Some(Insn::Add(Reg::A0, Reg::A0, Reg::A1));
            }
            Prim::Times => self.emit_times(asm),
            Prim::Quotient => {
                asm.with_annot(check_annot(TagOpKind::Check, CheckCat::Arith), |a| {
                    a.beq(Reg::A1, Reg::Zero, self.rt.err_div0)
                });
                self.emit_quotient(asm);
            }
            Prim::Remainder => {
                asm.with_annot(check_annot(TagOpKind::Check, CheckCat::Arith), |a| {
                    a.beq(Reg::A1, Reg::Zero, self.rt.err_div0)
                });
                asm.emit(Insn::Rem(Reg::A0, Reg::A0, Reg::A1));
            }
            _ => unreachable!(),
        }
        if overflow_checked {
            // Overflow shows up as a failed integer test on the result (§2.1).
            let ovf = asm.new_label();
            self.t.check_int(
                asm,
                Reg::A0,
                Reg::X0,
                ovf,
                CheckCat::Arith,
                Provenance::Checking,
            );
            asm.bind(done);
            ctx.deferred.push(Deferred {
                slow: ovf,
                done,
                body: DeferredBody::GenericCall {
                    undo,
                    rt: self.arith_rt(p),
                    branch_nil_to: None,
                },
            });
            // The operand-test failures jump to `slow`, which shares the routine
            // but needs no undo.
            let done2 = done;
            ctx.deferred.push(Deferred {
                slow,
                done: done2,
                body: DeferredBody::GenericCall {
                    undo: None,
                    rt: self.arith_rt(p),
                    branch_nil_to: None,
                },
            });
        } else {
            asm.bind(done);
            ctx.deferred.push(Deferred {
                slow,
                done,
                body: DeferredBody::GenericCall {
                    undo: None,
                    rt: self.arith_rt(p),
                    branch_nil_to: None,
                },
            });
        }
    }

    /// Multiply on tagged operands (low tags need a de-scale).
    fn emit_times(&self, asm: &mut Asm) {
        if self.t.scheme.is_high() {
            asm.emit(Insn::Mul(Reg::A0, Reg::A0, Reg::A1));
        } else {
            asm.emit(Insn::Sra(Reg::X0, Reg::A0, 2));
            asm.emit(Insn::Mul(Reg::A0, Reg::X0, Reg::A1));
        }
    }

    /// Divide on tagged operands (low tags re-scale the quotient).
    fn emit_quotient(&self, asm: &mut Asm) {
        if self.t.scheme.is_high() {
            asm.emit(Insn::Div(Reg::A0, Reg::A0, Reg::A1));
        } else {
            asm.emit(Insn::Div(Reg::X0, Reg::A0, Reg::A1));
            asm.emit(Insn::Sll(Reg::A0, Reg::X0, 2));
        }
    }

    /// Turn the machine truth value produced by `emit` into t/nil in `A0`.
    fn boolify(&self, asm: &mut Asm, emit: impl FnOnce(&mut Asm, Label)) {
        let yes = asm.new_label();
        let end = asm.new_label();
        emit(asm, yes);
        asm.mov(Reg::A0, Reg::Nil);
        asm.j(end);
        asm.bind(yes);
        asm.mov(Reg::A0, Reg::TrueR);
        asm.bind(end);
    }

    fn prim(
        &self,
        asm: &mut Asm,
        ctx: &mut FnCtx,
        p: Prim,
        args: &[Expr],
    ) -> Result<(), CompileError> {
        use Prim::*;
        // Stage arguments.
        match p.arity() {
            0 => {}
            1 => self.eval_args(asm, ctx, args, &[Reg::A0])?,
            2 => self.eval_args(asm, ctx, args, &[Reg::A0, Reg::A1])?,
            3 => self.eval_args(asm, ctx, args, &[Reg::A0, Reg::A1, Reg::A2])?,
            _ => unreachable!(),
        }
        match p {
            Cons => self.alloc_pair(asm),
            Car => self.list_access(asm, 0, false),
            Cdr => self.list_access(asm, 4, false),
            Rplaca => {
                self.list_access(asm, 0, true);
                // result: the pair (still in A0)
            }
            Rplacd => {
                self.list_access(asm, 4, true);
            }
            Eq => self.boolify(asm, |a, yes| a.beq(Reg::A0, Reg::A1, yes)),
            Null => self.boolify(asm, |a, yes| a.beq(Reg::A0, Reg::Nil, yes)),
            Atom | Pairp | Idp | Vectorp | Floatp | Intp => {
                let (tag, invert) = match p {
                    Pairp => (Some(Tag::Pair), false),
                    Atom => (Some(Tag::Pair), true),
                    Idp => (Some(Tag::Symbol), false),
                    Vectorp => (Some(Tag::Vector), false),
                    Floatp => (Some(Tag::Float), false),
                    Intp => (None, false),
                    _ => unreachable!(),
                };
                self.boolify(asm, |a, yes| match tag {
                    Some(tag) => self.t.branch_type(
                        a,
                        Reg::A0,
                        Reg::X0,
                        tag,
                        yes,
                        !invert,
                        CheckCat::NotChecking,
                        Provenance::Base,
                    ),
                    None => self.t.branch_int(
                        a,
                        Reg::A0,
                        Reg::X0,
                        yes,
                        true,
                        CheckCat::NotChecking,
                        Provenance::Base,
                    ),
                });
            }
            Plus | Difference | Times | Quotient | Remainder => {
                if self.full() {
                    let known = (known_int(&args[0]), known_int(&args[1]));
                    self.generic_binary(asm, ctx, p, known);
                } else {
                    match p {
                        Plus => asm.emit(Insn::Add(Reg::A0, Reg::A0, Reg::A1)),
                        Difference => asm.emit(Insn::Sub(Reg::A0, Reg::A0, Reg::A1)),
                        Times => self.emit_times(asm),
                        Quotient => self.emit_quotient(asm),
                        Remainder => asm.emit(Insn::Rem(Reg::A0, Reg::A0, Reg::A1)),
                        _ => unreachable!(),
                    }
                }
            }
            Add1 | Sub1 => {
                let inc = if p == Add1 { self.one() } else { -self.one() };
                if self.full() {
                    // Reuse the binary machinery with a literal 1 in A1 (whose
                    // test is elided: it is a known fixnum).
                    asm.li(Reg::A1, self.one());
                    let known = (known_int(&args[0]), true);
                    self.generic_binary(asm, ctx, if p == Add1 { Plus } else { Difference }, known);
                } else {
                    asm.emit(Insn::Addi(Reg::A0, Reg::A0, inc));
                }
            }
            Minus => {
                if self.full() {
                    // 0 - x through the checked path.
                    asm.mov(Reg::A1, Reg::A0);
                    asm.li(Reg::A0, 0);
                    self.generic_binary(asm, ctx, Difference, (true, known_int(&args[0])));
                } else {
                    asm.emit(Insn::Sub(Reg::A0, Reg::Zero, Reg::A0));
                }
            }
            Lessp | Greaterp | Leq | Geq | NumEq => {
                let cond = match p {
                    Lessp => Cond::Lt,
                    Greaterp => Cond::Gt,
                    Leq => Cond::Le,
                    Geq => Cond::Ge,
                    NumEq => Cond::Eq,
                    _ => unreachable!(),
                };
                if self.full() {
                    let slow = asm.new_label();
                    let done = asm.new_label();
                    if !known_int(&args[0]) {
                        self.t.check_int(
                            asm,
                            Reg::A0,
                            Reg::X0,
                            slow,
                            CheckCat::Arith,
                            Provenance::Checking,
                        );
                    }
                    if !known_int(&args[1]) {
                        self.t.check_int(
                            asm,
                            Reg::A1,
                            Reg::X0,
                            slow,
                            CheckCat::Arith,
                            Provenance::Checking,
                        );
                    }
                    self.boolify(asm, |a, yes| a.br(cond, Reg::A0, Reg::A1, yes));
                    asm.bind(done);
                    ctx.deferred.push(Deferred {
                        slow,
                        done,
                        body: DeferredBody::GenericCall {
                            undo: None,
                            rt: self.cmp_rt(p),
                            branch_nil_to: None,
                        },
                    });
                } else {
                    self.boolify(asm, |a, yes| a.br(cond, Reg::A0, Reg::A1, yes));
                }
            }
            Mkvect => self.emit_mkvect(asm),
            Getv => self.emit_getv(asm),
            Putv => self.emit_putv(asm),
            Upbv => self.emit_upbv(asm),
            Plist => {
                if self.parallel_all() {
                    asm.emit(Insn::LdChk {
                        rd: Reg::A0,
                        base: Reg::A0,
                        disp: SYM_PLIST,
                        field: self.t.field(),
                        expect: self.t.check_value(Tag::Symbol),
                        on_fail: self.rt.err_car.id(),
                    });
                } else {
                    if self.full() {
                        self.t.check_exact(
                            asm,
                            Reg::A0,
                            Reg::X0,
                            Tag::Symbol,
                            self.rt.err_car,
                            CheckCat::List,
                            Provenance::Checking,
                        );
                    }
                    let (base, fold) =
                        self.t
                            .address(asm, Reg::A0, Reg::X0, Tag::Symbol, BASE_REMOVE);
                    asm.ld(Reg::A0, base, fold + SYM_PLIST);
                }
            }
            Setplist => {
                if self.parallel_all() {
                    asm.emit(Insn::StChk {
                        src: Reg::A1,
                        base: Reg::A0,
                        disp: SYM_PLIST,
                        field: self.t.field(),
                        expect: self.t.check_value(Tag::Symbol),
                        on_fail: self.rt.err_car.id(),
                    });
                } else {
                    if self.full() {
                        self.t.check_exact(
                            asm,
                            Reg::A0,
                            Reg::X0,
                            Tag::Symbol,
                            self.rt.err_car,
                            CheckCat::List,
                            Provenance::Checking,
                        );
                    }
                    let (base, fold) =
                        self.t
                            .address(asm, Reg::A0, Reg::X0, Tag::Symbol, BASE_REMOVE);
                    asm.st(Reg::A1, base, fold + SYM_PLIST);
                }
                asm.mov(Reg::A0, Reg::A1);
            }
            Wrch => {
                if self.full() {
                    self.t.check_int(
                        asm,
                        Reg::A0,
                        Reg::X0,
                        self.rt.err_arith,
                        CheckCat::Arith,
                        Provenance::Checking,
                    );
                }
                if self.t.scheme.is_high() {
                    asm.write(Reg::A0, WriteKind::Char);
                } else {
                    asm.emit(Insn::Sra(Reg::X0, Reg::A0, 2));
                    asm.write(Reg::X0, WriteKind::Char);
                }
            }
            Wrint => {
                if self.full() {
                    self.t.check_int(
                        asm,
                        Reg::A0,
                        Reg::X0,
                        self.rt.err_arith,
                        CheckCat::Arith,
                        Provenance::Checking,
                    );
                }
                if self.t.scheme.is_high() {
                    asm.write(Reg::A0, WriteKind::Int);
                } else {
                    asm.emit(Insn::Sra(Reg::X0, Reg::A0, 2));
                    asm.write(Reg::X0, WriteKind::Int);
                }
            }
            PrinName => {
                if self.full() {
                    self.t.check_exact(
                        asm,
                        Reg::A0,
                        Reg::X0,
                        Tag::Symbol,
                        self.rt.err_car,
                        CheckCat::List,
                        Provenance::Checking,
                    );
                }
                asm.jal(self.rt.print_symbol, Reg::Link);
            }
            Reclaim => {
                asm.li(Reg::A2, 0);
                asm.jal(self.rt.gc_collect, Reg::Link);
                asm.mov(Reg::A0, Reg::Nil);
            }
            FPlus | FDifference | FTimes | FQuotient => {
                self.emit_float_binary(asm, p);
            }
            FLessp => {
                self.emit_float_unbox(asm, Reg::A0, Reg::T8);
                self.emit_float_unbox(asm, Reg::A1, Reg::T9);
                asm.with_annot(GENERIC_ARITH, |a| {
                    a.emit(Insn::Fop(FpOp::Lt, Reg::X0, Reg::T8, Reg::T9))
                });
                self.boolify(asm, |a, yes| a.bne(Reg::X0, Reg::Zero, yes));
            }
            FloatFromInt => {
                if self.full() {
                    self.t.check_int(
                        asm,
                        Reg::A0,
                        Reg::X0,
                        self.rt.err_arith,
                        CheckCat::Arith,
                        Provenance::Checking,
                    );
                }
                if self.t.scheme.is_high() {
                    asm.emit(Insn::Fop(FpOp::FromInt, Reg::T8, Reg::A0, Reg::Zero));
                } else {
                    asm.emit(Insn::Sra(Reg::T8, Reg::A0, 2));
                    asm.emit(Insn::Fop(FpOp::FromInt, Reg::T8, Reg::T8, Reg::Zero));
                }
                self.emit_box_float(asm, Reg::T8);
            }
        }
        Ok(())
    }

    /// Unbox the float in `src` (type-checked in full mode) to raw bits in `dst`.
    fn emit_float_unbox(&self, asm: &mut Asm, src: Reg, dst: Reg) {
        if self.full() {
            self.t.check_exact(
                asm,
                src,
                Reg::X0,
                Tag::Float,
                self.rt.err_arith,
                CheckCat::Arith,
                Provenance::Checking,
            );
        }
        let (base, fold) = self.t.address(asm, src, Reg::X0, Tag::Float, BASE_REMOVE);
        asm.ld(dst, base, fold + 4);
    }

    /// Box the raw float bits in `src` into a fresh float object in `A0`.
    fn emit_box_float(&self, asm: &mut Asm, src: Reg) {
        debug_assert!(
            matches!(src, Reg::T8 | Reg::T9),
            "raw bits stay out of root registers"
        );
        let ok = asm.new_label();
        asm.emit(Insn::Addi(Reg::X0, Reg::Hp, 8));
        asm.br(Cond::Le, Reg::X0, Reg::Hl, ok);
        asm.li(Reg::A2, 8);
        asm.jal(self.rt.gc_collect, Reg::Link);
        asm.bind(ok);
        asm.li(
            Reg::X0,
            crate::layout::header(crate::layout::FLOAT_CODE, 1) as i32,
        );
        asm.st(Reg::X0, Reg::Hp, 0);
        asm.st(src, Reg::Hp, 4);
        self.t
            .insert(asm, Reg::A0, Reg::Hp, Reg::X1, Tag::Float, BASE_INSERT);
        asm.emit(Insn::Addi(Reg::Hp, Reg::Hp, 8));
    }

    fn emit_float_binary(&self, asm: &mut Asm, p: Prim) {
        let fop = match p {
            Prim::FPlus => FpOp::Add,
            Prim::FDifference => FpOp::Sub,
            Prim::FTimes => FpOp::Mul,
            Prim::FQuotient => FpOp::Div,
            _ => unreachable!(),
        };
        self.emit_float_unbox(asm, Reg::A0, Reg::T8);
        self.emit_float_unbox(asm, Reg::A1, Reg::T9);
        asm.with_annot(GENERIC_ARITH, |a| {
            a.emit(Insn::Fop(fop, Reg::T8, Reg::T8, Reg::T9))
        });
        self.emit_box_float(asm, Reg::T8);
    }

    fn emit_mkvect(&self, asm: &mut Asm) {
        if self.full() {
            self.t.check_int(
                asm,
                Reg::A0,
                Reg::X0,
                self.rt.err_vec,
                CheckCat::Vector,
                Provenance::Checking,
            );
            asm.with_annot(check_annot(TagOpKind::Check, CheckCat::Vector), |a| {
                a.br(Cond::Lt, Reg::A0, Reg::Zero, self.rt.err_vec)
            });
        }
        // bytes = round8(4 * (n + 1))
        if self.t.scheme.is_high() {
            asm.emit(Insn::Addi(Reg::T8, Reg::A0, 1));
            asm.emit(Insn::Sll(Reg::T8, Reg::T8, 2));
        } else {
            asm.emit(Insn::Addi(Reg::T8, Reg::A0, 4));
        }
        asm.emit(Insn::Addi(Reg::T8, Reg::T8, 7));
        asm.emit(Insn::Srl(Reg::T8, Reg::T8, 3));
        asm.emit(Insn::Sll(Reg::T8, Reg::T8, 3));
        // allocate
        let ok = asm.new_label();
        asm.emit(Insn::Add(Reg::X0, Reg::Hp, Reg::T8));
        asm.br(Cond::Le, Reg::X0, Reg::Hl, ok);
        asm.mov(Reg::A2, Reg::T8);
        asm.jal(self.rt.gc_collect, Reg::Link);
        asm.mov(Reg::T8, Reg::A2);
        asm.bind(ok);
        // header
        if self.t.scheme.is_high() {
            asm.emit(Insn::Sll(Reg::X1, Reg::A0, HDR_LEN_SHIFT as u8));
        } else {
            asm.emit(Insn::Sll(Reg::X1, Reg::A0, (HDR_LEN_SHIFT - 2) as u8));
        }
        asm.emit(Insn::Ori(Reg::X1, Reg::X1, VEC_CODE));
        asm.st(Reg::X1, Reg::Hp, 0);
        // nil fill
        let lp = asm.new_label();
        let done = asm.new_label();
        asm.emit(Insn::Add(Reg::X1, Reg::Hp, Reg::T8));
        asm.emit(Insn::Addi(Reg::T9, Reg::Hp, 4));
        asm.bind(lp);
        asm.br(Cond::Ge, Reg::T9, Reg::X1, done);
        asm.st(Reg::Nil, Reg::T9, 0);
        asm.emit(Insn::Addi(Reg::T9, Reg::T9, 4));
        asm.j(lp);
        asm.bind(done);
        self.t
            .insert(asm, Reg::A0, Reg::Hp, Reg::X0, Tag::Vector, BASE_INSERT);
        asm.emit(Insn::Add(Reg::Hp, Reg::Hp, Reg::T8));
    }

    /// Vector tag + header fetch shared by getv/putv/upbv. Leaves the header in
    /// `T9` and returns the (base, fold) for element access.
    fn vector_header(&self, asm: &mut Asm) -> (Reg, i32) {
        if self.parallel_all() {
            asm.emit(Insn::LdChk {
                rd: Reg::T9,
                base: Reg::A0,
                disp: 0,
                field: self.t.field(),
                expect: self.t.check_value(Tag::Vector),
                on_fail: self.rt.err_vec.id(),
            });
            // With checked access the base register stays tagged; element access
            // goes through LdChk/StChk (high tags) or folds (low tags).
            if self.t.scheme.free_address_masking() {
                let fold = self
                    .t
                    .scheme
                    .fold_displacement(Tag::Vector)
                    .expect("low tags fold");
                (Reg::A0, fold)
            } else {
                (Reg::A0, 0)
            }
        } else {
            if self.full() {
                self.t.check_exact(
                    asm,
                    Reg::A0,
                    Reg::X0,
                    Tag::Vector,
                    self.rt.err_vec,
                    CheckCat::Vector,
                    Provenance::Checking,
                );
            }
            let (base, fold) = self
                .t
                .address(asm, Reg::A0, Reg::T8, Tag::Vector, BASE_REMOVE);
            if self.full() {
                asm.with_annot(check_annot(TagOpKind::Check, CheckCat::Vector), |a| {
                    a.ld(Reg::T9, base, fold)
                });
            }
            (base, fold)
        }
    }

    /// Emit the index-type and bounds checks (full mode only); index in `A1`,
    /// header in `T9`.
    fn vector_bounds(&self, asm: &mut Asm) {
        if !self.full() {
            return;
        }
        self.t.check_int(
            asm,
            Reg::A1,
            Reg::X0,
            self.rt.err_vec,
            CheckCat::Vector,
            Provenance::Checking,
        );
        let a = check_annot(TagOpKind::Check, CheckCat::Vector);
        let shift = if self.t.scheme.is_high() {
            HDR_LEN_SHIFT
        } else {
            HDR_LEN_SHIFT - 2
        };
        asm.with_annot(a, |s| {
            s.emit(Insn::Srl(Reg::X0, Reg::T9, shift as u8));
            s.br(Cond::Ge, Reg::A1, Reg::X0, self.rt.err_bounds);
            s.br(Cond::Lt, Reg::A1, Reg::Zero, self.rt.err_bounds);
        });
    }

    fn emit_getv(&self, asm: &mut Asm) {
        let (base, fold) = self.vector_header(asm);
        self.vector_bounds(asm);
        if self.parallel_all() && !self.t.scheme.free_address_masking() {
            // element through a checked load (the sum keeps the tag bits).
            asm.emit(Insn::Sll(Reg::X1, Reg::A1, 2));
            asm.emit(Insn::Add(Reg::X1, Reg::X1, Reg::A0));
            asm.emit(Insn::LdChk {
                rd: Reg::A0,
                base: Reg::X1,
                disp: 4,
                field: self.t.field(),
                expect: self.t.check_value(Tag::Vector),
                on_fail: self.rt.err_vec.id(),
            });
            return;
        }
        if self.t.scheme.is_high() {
            asm.emit(Insn::Sll(Reg::X1, Reg::A1, 2));
            asm.emit(Insn::Add(Reg::X1, Reg::X1, base));
        } else {
            asm.emit(Insn::Add(Reg::X1, base, Reg::A1));
        }
        asm.ld(Reg::A0, Reg::X1, fold + 4);
    }

    fn emit_putv(&self, asm: &mut Asm) {
        let (base, fold) = self.vector_header(asm);
        self.vector_bounds(asm);
        if self.parallel_all() && !self.t.scheme.free_address_masking() {
            asm.emit(Insn::Sll(Reg::X1, Reg::A1, 2));
            asm.emit(Insn::Add(Reg::X1, Reg::X1, Reg::A0));
            asm.emit(Insn::StChk {
                src: Reg::A2,
                base: Reg::X1,
                disp: 4,
                field: self.t.field(),
                expect: self.t.check_value(Tag::Vector),
                on_fail: self.rt.err_vec.id(),
            });
        } else {
            if self.t.scheme.is_high() {
                asm.emit(Insn::Sll(Reg::X1, Reg::A1, 2));
                asm.emit(Insn::Add(Reg::X1, Reg::X1, base));
            } else {
                asm.emit(Insn::Add(Reg::X1, base, Reg::A1));
            }
            asm.st(Reg::A2, Reg::X1, fold + 4);
        }
        asm.mov(Reg::A0, Reg::A2);
    }

    fn emit_upbv(&self, asm: &mut Asm) {
        let (base, fold) = self.vector_header(asm);
        if !(self.parallel_all() || self.full()) {
            // header not yet loaded
            asm.ld(Reg::T9, base, fold);
            asm.nop();
        } else if !self.parallel_all() && !self.full() {
            unreachable!();
        }
        if !self.full() && !self.parallel_all() {
            // loaded just above
        } else if !self.parallel_all() && self.full() {
            // header already in T9 from vector_header
        }
        let shift = if self.t.scheme.is_high() {
            HDR_LEN_SHIFT
        } else {
            HDR_LEN_SHIFT - 2
        };
        asm.emit(Insn::Srl(Reg::A0, Reg::T9, shift as u8));
    }

    // --- functions --------------------------------------------------------------

    /// Emit one function: prologue, body, epilogue, deferred blocks.
    pub fn emit_fn(&self, asm: &mut Asm, f: &FnDef, label: Label) -> Result<(), CompileError> {
        asm.bind(label);
        asm.name_label(&format!("fn:{}", f.name), label);
        let mut ctx = FnCtx::new(f.nslots);
        let frame_bytes = 4 * ctx.frame_words as i32;
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, -frame_bytes));
        // Stack-overflow check: one compare-and-branch per call, uniform across
        // every configuration so relative measurements are unaffected.
        Reloc::StackLow.emit(asm, self.layout, |a, low| {
            a.bri(Cond::Lt, Reg::Sp, low, self.rt.err_stack);
        });
        // Save the return address as a fixnum-looking word so the GC can scan
        // frames blindly.
        asm.emit(Insn::Sll(Reg::X0, Reg::Link, 2));
        asm.st(Reg::X0, Reg::Sp, 0);
        for i in 0..f.params {
            asm.st(Reg::ARGS[i], Reg::Sp, 4 * (1 + i) as i32);
        }
        if f.body.is_empty() {
            asm.mov(Reg::A0, Reg::Nil);
        }
        for e in &f.body {
            self.eval(asm, &mut ctx, e)?;
        }
        debug_assert_eq!(ctx.push_depth, 0, "unbalanced pushes in {}", f.name);
        // Epilogue.
        asm.ld(Reg::X0, Reg::Sp, 0);
        asm.emit(Insn::Addi(Reg::Sp, Reg::Sp, frame_bytes));
        asm.emit(Insn::Sra(Reg::X0, Reg::X0, 2));
        asm.jr(Reg::X0);
        self.emit_deferred(asm, &mut ctx);
        Ok(())
    }

    /// Emit the program entry: register setup, top-level forms, halt.
    pub fn emit_main(&self, asm: &mut Asm) -> Result<Label, CompileError> {
        let entry = asm.here("main");
        asm.li(Reg::Sp, self.layout.stack_top as i32);
        asm.li(Reg::Hp, self.layout.heap_a as i32);
        asm.li(
            Reg::Hl,
            (self.layout.heap_a + self.layout.semi_bytes) as i32,
        );
        asm.li(Reg::Nil, self.layout.nil_word as i32);
        asm.li(Reg::TrueR, self.layout.t_word as i32);
        asm.li(Reg::Mask, self.t.pointer_mask() as i32);
        asm.li(Reg::Gp, self.layout.globals_base as i32);
        if self.t.preshifted_pair_tag && self.t.scheme.is_high() {
            let shift = 32 - self.t.scheme.tag_bits();
            asm.li(Reg::Pt, (self.t.check_value(Tag::Pair) << shift) as i32);
        }
        let mut ctx = FnCtx::new(0);
        for e in &self.unit.top {
            self.eval(asm, &mut ctx, e)?;
        }
        asm.halt(Reg::Zero);
        self.emit_deferred(asm, &mut ctx);
        Ok(entry)
    }

    fn emit_deferred(&self, asm: &mut Asm, ctx: &mut FnCtx) {
        for d in ctx.deferred.drain(..) {
            asm.bind(d.slow);
            match d.body {
                DeferredBody::GenericCall {
                    undo,
                    rt,
                    branch_nil_to,
                } => {
                    if let Some(u) = undo {
                        asm.emit_annot(u, GENERIC_ARITH);
                    }
                    asm.with_annot(GENERIC_ARITH, |a| a.jal(rt, Reg::Link));
                    if let Some(nil_target) = branch_nil_to {
                        asm.with_annot(GENERIC_ARITH, |a| a.beq(Reg::A0, Reg::Nil, nil_target));
                    }
                    asm.j(d.done);
                }
            }
        }
    }
}
