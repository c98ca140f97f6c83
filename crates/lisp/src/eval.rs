//! A tree-walking reference evaluator over the lowered AST.
//!
//! The evaluator computes a program's *observable behaviour* — its printed
//! output and exit code — directly from [`crate::ast`], independent of the
//! code generator, the tag scheme, and the simulator. That independence is
//! what makes it usable as a differential oracle: if a compiled program's
//! simulated output under some scheme × checking × hardware point disagrees
//! with the evaluator, one of the two is wrong, and the evaluator is by far
//! the simpler artifact.
//!
//! Alongside the result it keeps an [`OpCensus`]: dynamic counts of the
//! operations whose full-checking compilations carry tag-checking cycles.
//! The census is bucketed the way [`mipsx::CheckCat`] buckets checking
//! cycles (list / vector / arithmetic), split into counts that are *certainly*
//! checked on every hardware level and counts that may be checked depending
//! on the hardware (parallel checked loads and generic-arithmetic units make
//! some checks free). A differential harness can therefore bound the
//! simulator's per-category checking cycles from both sides without knowing
//! which hardware ran.
//!
//! Error semantics mirror the *full checking* mode of the compiled system:
//! `car` of a non-pair exits with [`exit_code::ERR_CAR`], a bad vector index
//! with [`exit_code::ERR_BOUNDS`], fixnum overflow on add/sub with
//! [`exit_code::ERR_OVERFLOW`], and so on. Programs that trigger no run-time
//! errors behave identically under either checking mode, which is what lets
//! one evaluation stand as the oracle for both.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::ast::{Expr, Prim, Unit};
use crate::error::CompileError;
use crate::front;
use crate::prelude::PRELUDE;
use crate::runtime::exit_code;
use crate::sexp::Sexp;

/// Knobs for one evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Fixnum width in bits (tag-scheme dependent: 27 for HighTag5, 26 for
    /// HighTag6, 30 for the low-tag schemes). Add/sub results outside
    /// `[-2^(bits-1), 2^(bits-1))` exit with [`exit_code::ERR_OVERFLOW`],
    /// exactly as the checked compiled code does.
    pub int_bits: u32,
    /// Evaluation step budget; exceeding it is an [`EvalError::Fuel`] — a
    /// harness error, not a program trap, because the compiled counterpart
    /// gets its own (cycle) budget.
    pub fuel: u64,
    /// Maximum evaluation depth: how many expressions may be under
    /// evaluation at once, counting every level of nesting, a call's body
    /// as one level below the call; exceeding it is [`EvalError::Depth`].
    /// The compiled system traps on stack overflow at a
    /// configuration-dependent depth, so the two limits are deliberately not
    /// conflated. The default, [`DEFAULT_MAX_DEPTH`], keeps the evaluator's
    /// recursion within a 2 MiB thread stack, whatever the source.
    pub max_depth: usize,
}

/// The default [`EvalOptions::max_depth`]. Each level of evaluation costs
/// the evaluator's recursion up to about 740 bytes of Rust stack, so on a
/// 2 MiB thread the costliest shape (a primitive's argument, nested level
/// after level) overflows past 2,852 levels in a release build; synth's
/// generator reaches 61 levels and the paper programs 929 (`opt`). See
/// DESIGN.md, *Evaluation depth*.
pub const DEFAULT_MAX_DEPTH: usize = 1_600;

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            int_bits: 27,
            fuel: 2_000_000_000,
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }
}

impl EvalOptions {
    /// Options matching `scheme`'s fixnum range.
    pub fn for_scheme(scheme: tagword::TagScheme) -> EvalOptions {
        EvalOptions {
            int_bits: scheme.int_bits(),
            ..EvalOptions::default()
        }
    }
}

/// Dynamic counts of operations that compile to tag-checking work, bucketed
/// like [`mipsx::CheckCat`].
///
/// For each category the `*_certain` count covers operations whose
/// full-checking compilation carries at least one cycle annotated as a
/// checking cycle on *every* hardware level, while the `*_all` count covers
/// every operation that can contribute checking cycles on *some* level. A
/// measured [`mipsx::Stats`] under full checking must therefore satisfy
/// `certain ≤ checking_cycles ≤ K · all` for a per-op cycle bound `K`, and
/// `all == 0` forces `checking_cycles == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// List-category ops checked on every hardware level (`funcall` symbol +
    /// function-cell checks, `prin-name` symbol checks).
    pub list_certain: u64,
    /// All list-category ops (`car`/`cdr`/`rplaca`/`rplacd`, `plist`/
    /// `setplist`, plus the certain ones) — parallel checked loads make the
    /// structure-access checks free, so they are not certain.
    pub list_all: u64,
    /// Vector ops checked on every hardware level (`mkvect` size checks,
    /// `getv`/`putv` index and bounds checks).
    pub vector_certain: u64,
    /// All vector ops (adds `upbv`, whose only check rides the header load).
    pub vector_all: u64,
    /// Arithmetic ops checked on every hardware level: division-by-zero
    /// guards on `quotient`/`remainder`, `wrch`/`wrint`/`float` argument
    /// checks, and `times`/comparison operand checks when at least one
    /// operand is not an integer literal (literal operand checks are elided).
    pub arith_certain: u64,
    /// The add/sub family (`plus`/`difference`/`add1`/`sub1`/`minus`):
    /// overflow-checked on stock hardware, but free on a generic-arithmetic
    /// unit, so certain only when the hardware lacks one.
    pub arith_addsub: u64,
    /// All (possibly generic) arithmetic ops, including `wrch`/`wrint`/
    /// `float` and both-literal `times`/comparisons.
    pub arith_all: u64,
    /// Float-specific ops (`fplus` … `flessp`): their FPU instructions are
    /// annotated as generic-arithmetic cycles even under `CheckingMode::None`,
    /// so a nonzero count voids the "no checking ⇒ zero checking cycles"
    /// implication.
    pub float_ops: u64,
    /// Function calls (known calls and funcalls) — informational.
    pub calls: u64,
    /// Total primitive applications — informational.
    pub prim_ops: u64,
}

/// The observable result of one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Exit code: [`exit_code::OK`] or the `ERR_*` trap the program hit.
    pub halt_code: i32,
    /// Everything the program printed before halting.
    pub output: String,
    /// The operation census (up to and including the trapping operation).
    pub census: OpCensus,
}

/// Why an evaluation could not produce an [`EvalOutcome`].
///
/// Program-level traps (wrong-type `car`, overflow, …) are *not* errors —
/// they are outcomes with the matching `ERR_*` halt code. These variants
/// cover harness-level failures only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The source failed to lower.
    Compile(CompileError),
    /// The step budget ran out.
    Fuel,
    /// The evaluation-depth limit was exceeded.
    Depth,
    /// The program left the domain the evaluator models faithfully (e.g. a
    /// `times` product outside the fixnum range, which compiled code does
    /// not check and silently corrupts).
    Unsupported(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Compile(e) => write!(f, "compile: {e}"),
            EvalError::Fuel => write!(f, "evaluation step budget exhausted"),
            EvalError::Depth => write!(f, "evaluation depth exceeded"),
            EvalError::Unsupported(why) => write!(f, "outside the modeled domain: {why}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluate the prelude followed by `source` and return its observable
/// behaviour plus op census.
///
/// # Errors
///
/// [`EvalError::Compile`] when lowering fails, and the harness-level limits
/// described on [`EvalError`].
pub fn eval_source(source: &str, opts: &EvalOptions) -> Result<EvalOutcome, EvalError> {
    let unit = front::lower_sources(&[PRELUDE, source]).map_err(EvalError::Compile)?;
    eval_unit(&unit, opts)
}

/// Evaluate an already-lowered [`Unit`].
///
/// # Errors
///
/// The harness-level limits described on [`EvalError`].
pub fn eval_unit(unit: &Unit, opts: &EvalOptions) -> Result<EvalOutcome, EvalError> {
    let mut interp = Interp::new(unit, opts);
    let mut frame = Vec::new();
    for form in &unit.top {
        match interp.eval(form, &mut frame) {
            Ok(_) => {}
            Err(Stop::Trap(code)) => {
                return Ok(EvalOutcome {
                    halt_code: code,
                    output: interp.output,
                    census: interp.census,
                })
            }
            Err(Stop::Fuel) => return Err(EvalError::Fuel),
            Err(Stop::Depth) => return Err(EvalError::Depth),
            Err(Stop::Bad(why)) => return Err(EvalError::Unsupported(why)),
        }
    }
    Ok(EvalOutcome {
        halt_code: exit_code::OK,
        output: interp.output,
        census: interp.census,
    })
}

/// A run-time Lisp value. Heap objects (pairs, vectors, floats) have
/// reference identity, exactly like their tagged-pointer counterparts, so
/// `eq` means pointer equality for them and value equality for immediates.
#[derive(Debug, Clone)]
enum Value {
    Nil,
    True,
    Int(i32),
    Float(Rc<u32>),
    Sym(Rc<str>),
    Pair(Rc<RefCell<(Value, Value)>>),
    Vector(Rc<RefCell<Vec<Value>>>),
}

impl Value {
    fn truthy(&self) -> bool {
        !matches!(self, Value::Nil)
    }

    /// The print name when the value is a symbol (`nil` and `t` are interned
    /// symbols in the runtime, so they answer here too).
    fn symbol_name(&self) -> Option<&str> {
        match self {
            Value::Nil => Some("nil"),
            Value::True => Some("t"),
            Value::Sym(s) => Some(s),
            _ => None,
        }
    }
}

fn eq_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Nil, Value::Nil) | (Value::True, Value::True) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Sym(x), Value::Sym(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => Rc::ptr_eq(x, y),
        (Value::Pair(x), Value::Pair(y)) => Rc::ptr_eq(x, y),
        (Value::Vector(x), Value::Vector(y)) => Rc::ptr_eq(x, y),
        _ => false,
    }
}

/// Why evaluation of an expression stopped early.
enum Stop {
    /// A program-level trap: carries the exit code the compiled program
    /// halts with.
    Trap(i32),
    Fuel,
    Depth,
    Bad(String),
}

type R<T> = Result<T, Stop>;

/// Largest vector the evaluator will allocate — far above anything the
/// simulated heaps can hold, so hitting it means the program is outside the
/// modeled domain rather than a legitimate big allocation.
const MAX_VECTOR: i32 = 1 << 22;

struct Interp<'u> {
    unit: &'u Unit,
    fn_by_name: HashMap<&'u str, usize>,
    globals: Vec<Value>,
    consts: Vec<Value>,
    plists: HashMap<String, Value>,
    output: String,
    census: OpCensus,
    fuel: u64,
    depth: usize,
    max_depth: usize,
    max_int: i64,
    min_int: i64,
}

impl<'u> Interp<'u> {
    fn new(unit: &'u Unit, opts: &EvalOptions) -> Interp<'u> {
        let fn_by_name = unit
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        // Constants materialise once, before `main` runs, and every reference
        // to the same table index shares the object — matching the static
        // constant area the compiled program addresses.
        let consts = unit.consts.iter().map(sexp_to_value).collect();
        Interp {
            unit,
            fn_by_name,
            globals: vec![Value::Nil; unit.globals.len()],
            consts,
            plists: HashMap::new(),
            output: String::new(),
            census: OpCensus::default(),
            fuel: opts.fuel,
            depth: 0,
            max_depth: opts.max_depth,
            max_int: (1i64 << (opts.int_bits - 1)) - 1,
            min_int: -(1i64 << (opts.int_bits - 1)),
        }
    }

    fn tick(&mut self) -> R<()> {
        if self.fuel == 0 {
            return Err(Stop::Fuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Evaluate `e`, one level deeper: every level counts against
    /// `max_depth`, since each costs Rust stack, whether or not it is a
    /// call.
    fn eval(&mut self, e: &Expr, frame: &mut Vec<Value>) -> R<Value> {
        self.tick()?;
        if self.depth >= self.max_depth {
            return Err(Stop::Depth);
        }
        self.depth += 1;
        let value = self.eval_expr(e, frame);
        self.depth -= 1;
        value
    }

    fn eval_expr(&mut self, e: &Expr, frame: &mut Vec<Value>) -> R<Value> {
        match e {
            Expr::Nil => Ok(Value::Nil),
            Expr::T => Ok(Value::True),
            Expr::Int(i) => Ok(Value::Int(*i)),
            // A float literal boxes a fresh object each evaluation, exactly
            // like the compiled allocation sequence.
            Expr::Float(bits) => Ok(Value::Float(Rc::new(*bits))),
            Expr::Const(i) => Ok(self.consts[*i].clone()),
            Expr::Local(s) => Ok(frame[*s].clone()),
            Expr::Global(g) => Ok(self.globals[*g].clone()),
            Expr::SetLocal(s, v) => {
                let val = self.eval(v, frame)?;
                frame[*s] = val.clone();
                Ok(val)
            }
            Expr::SetGlobal(g, v) => {
                let val = self.eval(v, frame)?;
                self.globals[*g] = val.clone();
                Ok(val)
            }
            Expr::If(c, t, f) => {
                if self.eval(c, frame)?.truthy() {
                    self.eval(t, frame)
                } else {
                    self.eval(f, frame)
                }
            }
            Expr::Progn(es) => {
                let mut last = Value::Nil;
                for e in es {
                    last = self.eval(e, frame)?;
                }
                Ok(last)
            }
            Expr::While(c, body) => {
                while self.eval(c, frame)?.truthy() {
                    for b in body {
                        self.eval(b, frame)?;
                    }
                }
                Ok(Value::Nil)
            }
            Expr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                self.call(*f, vals)
            }
            Expr::Funcall(f, args) => {
                // Arguments evaluate before the symbol check, matching the
                // staged argument evaluation the code generator emits.
                let fv = self.eval(f, frame)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                self.census.list_certain += 1;
                self.census.list_all += 1;
                let Some(name) = fv.symbol_name() else {
                    return Err(Stop::Trap(exit_code::ERR_FUNCALL));
                };
                match self.fn_by_name.get(name).copied() {
                    Some(id) => self.call(id, vals),
                    None => Err(Stop::Trap(exit_code::ERR_FUNCALL)),
                }
            }
            Expr::Prim(p, args) => self.prim(*p, args, frame),
            Expr::And(es) => {
                if es.is_empty() {
                    return Ok(Value::True);
                }
                let mut last = Value::True;
                for e in es {
                    last = self.eval(e, frame)?;
                    if !last.truthy() {
                        return Ok(Value::Nil);
                    }
                }
                Ok(last)
            }
            Expr::Or(es) => {
                for e in es {
                    let v = self.eval(e, frame)?;
                    if v.truthy() {
                        return Ok(v);
                    }
                }
                Ok(Value::Nil)
            }
        }
    }

    fn call(&mut self, f: usize, args: Vec<Value>) -> R<Value> {
        let unit = self.unit;
        let def = &unit.fns[f];
        if args.len() != def.params {
            return Err(Stop::Bad(format!(
                "call of {} with {} args (takes {})",
                def.name,
                args.len(),
                def.params
            )));
        }
        self.census.calls += 1;
        let mut frame = args;
        frame.resize(def.nslots, Value::Nil);
        let mut result = Value::Nil;
        for b in &def.body {
            result = self.eval(b, &mut frame)?;
        }
        Ok(result)
    }

    fn prim(&mut self, p: Prim, args: &[Expr], frame: &mut Vec<Value>) -> R<Value> {
        use Prim::*;
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, frame)?);
        }
        self.census.prim_ops += 1;
        // A comparison or multiply operand that is an integer literal has its
        // type check elided by the compiler, so an op with only literal
        // operands is not *certainly* checked.
        let any_nonliteral = args.iter().any(|a| !matches!(a, Expr::Int(_)));
        match p {
            Cons => Ok(Value::Pair(Rc::new(RefCell::new((
                vals[0].clone(),
                vals[1].clone(),
            ))))),
            Car | Cdr => {
                self.census.list_all += 1;
                match &vals[0] {
                    Value::Pair(cell) => {
                        let pair = cell.borrow();
                        Ok(if p == Car {
                            pair.0.clone()
                        } else {
                            pair.1.clone()
                        })
                    }
                    _ => Err(Stop::Trap(exit_code::ERR_CAR)),
                }
            }
            Rplaca | Rplacd => {
                self.census.list_all += 1;
                match &vals[0] {
                    Value::Pair(cell) => {
                        if p == Rplaca {
                            cell.borrow_mut().0 = vals[1].clone();
                        } else {
                            cell.borrow_mut().1 = vals[1].clone();
                        }
                        // rplaca/rplacd return the pair.
                        Ok(vals[0].clone())
                    }
                    _ => Err(Stop::Trap(exit_code::ERR_CAR)),
                }
            }
            Eq => Ok(boolean(eq_value(&vals[0], &vals[1]))),
            Null => Ok(boolean(!vals[0].truthy())),
            Atom => Ok(boolean(!matches!(vals[0], Value::Pair(_)))),
            Pairp => Ok(boolean(matches!(vals[0], Value::Pair(_)))),
            Intp => Ok(boolean(matches!(vals[0], Value::Int(_)))),
            Idp => Ok(boolean(vals[0].symbol_name().is_some())),
            Vectorp => Ok(boolean(matches!(vals[0], Value::Vector(_)))),
            Floatp => Ok(boolean(matches!(vals[0], Value::Float(_)))),
            Plus | Difference => {
                self.census.arith_all += 1;
                self.census.arith_addsub += 1;
                self.add_sub(&vals[0], &vals[1], p == Plus)
            }
            Add1 | Sub1 => {
                self.census.arith_all += 1;
                self.census.arith_addsub += 1;
                self.add_sub(&vals[0], &Value::Int(1), p == Add1)
            }
            Minus => {
                self.census.arith_all += 1;
                self.census.arith_addsub += 1;
                self.add_sub(&Value::Int(0), &vals[0], false)
            }
            Times => {
                self.census.arith_all += 1;
                if any_nonliteral {
                    self.census.arith_certain += 1;
                }
                match self.numbers(&vals[0], &vals[1])? {
                    Nums::Ints(x, y) => {
                        let prod = x * y;
                        if prod < self.min_int || prod > self.max_int {
                            // The compiled multiply is not overflow-checked;
                            // an overflowing product silently corrupts the
                            // tag, so the program has left the domain the
                            // evaluator can model.
                            return Err(Stop::Bad(format!("times overflow: {x} * {y}")));
                        }
                        Ok(Value::Int(prod as i32))
                    }
                    Nums::Floats(x, y) => Ok(box_float(x * y)),
                }
            }
            Quotient => {
                self.census.arith_all += 1;
                self.census.arith_certain += 1;
                match self.numbers(&vals[0], &vals[1])? {
                    Nums::Ints(x, y) => {
                        if y == 0 {
                            return Err(Stop::Trap(exit_code::ERR_DIV0));
                        }
                        let q = x / y; // truncating, like the simulator's Div
                        if q < self.min_int || q > self.max_int {
                            return Err(Stop::Bad(format!("quotient overflow: {x} / {y}")));
                        }
                        Ok(Value::Int(q as i32))
                    }
                    Nums::Floats(x, y) => Ok(box_float(x / y)),
                }
            }
            Remainder => {
                self.census.arith_all += 1;
                self.census.arith_certain += 1;
                match self.numbers(&vals[0], &vals[1])? {
                    Nums::Ints(x, y) => {
                        if y == 0 {
                            return Err(Stop::Trap(exit_code::ERR_DIV0));
                        }
                        Ok(Value::Int((x % y) as i32))
                    }
                    // The runtime has no float remainder: the generic slow
                    // path raises the arithmetic-type error.
                    Nums::Floats(..) => Err(Stop::Trap(exit_code::ERR_ARITH)),
                }
            }
            Lessp | Greaterp | Leq | Geq | NumEq => {
                self.census.arith_all += 1;
                if any_nonliteral {
                    self.census.arith_certain += 1;
                }
                let truth = match self.numbers(&vals[0], &vals[1])? {
                    Nums::Ints(x, y) => match p {
                        Lessp => x < y,
                        Greaterp => x > y,
                        Leq => x <= y,
                        Geq => x >= y,
                        NumEq => x == y,
                        _ => unreachable!(),
                    },
                    Nums::Floats(x, y) => match p {
                        Lessp => x < y,
                        Greaterp => x > y,
                        Leq => x <= y,
                        Geq => x >= y,
                        // The runtime compares the coerced bit patterns.
                        NumEq => x.to_bits() == y.to_bits(),
                        _ => unreachable!(),
                    },
                };
                Ok(boolean(truth))
            }
            Mkvect => {
                self.census.vector_certain += 1;
                self.census.vector_all += 1;
                match vals[0] {
                    Value::Int(n) if n >= 0 => {
                        if n > MAX_VECTOR {
                            return Err(Stop::Bad(format!("mkvect of {n} slots")));
                        }
                        Ok(Value::Vector(Rc::new(RefCell::new(vec![
                            Value::Nil;
                            n as usize
                        ]))))
                    }
                    _ => Err(Stop::Trap(exit_code::ERR_VEC)),
                }
            }
            Getv | Putv => {
                self.census.vector_certain += 1;
                self.census.vector_all += 1;
                let Value::Vector(v) = &vals[0] else {
                    return Err(Stop::Trap(exit_code::ERR_VEC));
                };
                let Value::Int(i) = vals[1] else {
                    return Err(Stop::Trap(exit_code::ERR_VEC));
                };
                let len = v.borrow().len() as i32;
                if i < 0 || i >= len {
                    return Err(Stop::Trap(exit_code::ERR_BOUNDS));
                }
                if p == Getv {
                    Ok(v.borrow()[i as usize].clone())
                } else {
                    v.borrow_mut()[i as usize] = vals[2].clone();
                    // putv returns the stored value.
                    Ok(vals[2].clone())
                }
            }
            Upbv => {
                self.census.vector_all += 1;
                match &vals[0] {
                    Value::Vector(v) => Ok(Value::Int(v.borrow().len() as i32)),
                    _ => Err(Stop::Trap(exit_code::ERR_VEC)),
                }
            }
            Plist => {
                self.census.list_all += 1;
                match vals[0].symbol_name() {
                    Some(name) => Ok(self.plists.get(name).cloned().unwrap_or(Value::Nil)),
                    None => Err(Stop::Trap(exit_code::ERR_CAR)),
                }
            }
            Setplist => {
                self.census.list_all += 1;
                match vals[0].symbol_name() {
                    Some(name) => {
                        self.plists.insert(name.to_string(), vals[1].clone());
                        // setplist returns the stored plist.
                        Ok(vals[1].clone())
                    }
                    None => Err(Stop::Trap(exit_code::ERR_CAR)),
                }
            }
            Wrch => {
                self.census.arith_all += 1;
                self.census.arith_certain += 1;
                match vals[0] {
                    Value::Int(c) => {
                        self.output.push((c & 0xFF) as u8 as char);
                        Ok(vals[0].clone())
                    }
                    _ => Err(Stop::Trap(exit_code::ERR_ARITH)),
                }
            }
            Wrint => {
                self.census.arith_all += 1;
                self.census.arith_certain += 1;
                match vals[0] {
                    Value::Int(n) => {
                        let _ = write!(self.output, "{n}");
                        Ok(vals[0].clone())
                    }
                    _ => Err(Stop::Trap(exit_code::ERR_ARITH)),
                }
            }
            PrinName => {
                self.census.list_certain += 1;
                self.census.list_all += 1;
                match vals[0].symbol_name() {
                    Some(name) => {
                        self.output.push_str(name);
                        Ok(vals[0].clone())
                    }
                    None => Err(Stop::Trap(exit_code::ERR_CAR)),
                }
            }
            Reclaim => Ok(Value::Nil),
            FPlus | FDifference | FTimes | FQuotient => {
                self.census.float_ops += 1;
                let x = self.unbox_float(&vals[0])?;
                let y = self.unbox_float(&vals[1])?;
                let r = match p {
                    FPlus => x + y,
                    FDifference => x - y,
                    FTimes => x * y,
                    FQuotient => x / y,
                    _ => unreachable!(),
                };
                Ok(box_float(r))
            }
            FLessp => {
                self.census.float_ops += 1;
                let x = self.unbox_float(&vals[0])?;
                let y = self.unbox_float(&vals[1])?;
                Ok(boolean(x < y))
            }
            FloatFromInt => {
                self.census.arith_all += 1;
                self.census.arith_certain += 1;
                match vals[0] {
                    Value::Int(n) => Ok(box_float(n as f32)),
                    _ => Err(Stop::Trap(exit_code::ERR_ARITH)),
                }
            }
        }
    }

    /// Generic add/sub: both-int with an overflow check, otherwise float
    /// coercion, otherwise the arithmetic-type trap — the integer-biased
    /// sequence plus its runtime slow path.
    fn add_sub(&mut self, a: &Value, b: &Value, add: bool) -> R<Value> {
        match self.numbers(a, b)? {
            Nums::Ints(x, y) => {
                let r = if add { x + y } else { x - y };
                if r < self.min_int || r > self.max_int {
                    return Err(Stop::Trap(exit_code::ERR_OVERFLOW));
                }
                Ok(Value::Int(r as i32))
            }
            Nums::Floats(x, y) => Ok(box_float(if add { x + y } else { x - y })),
        }
    }

    /// Coerce an operand pair the way the generic arithmetic runtime does:
    /// both ints stay exact, a float contaminates to float, anything else is
    /// the arithmetic-type trap.
    fn numbers(&mut self, a: &Value, b: &Value) -> R<Nums> {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Ok(Nums::Ints(*x as i64, *y as i64)),
            (Value::Int(x), Value::Float(y)) => Ok(Nums::Floats(*x as f32, f32::from_bits(**y))),
            (Value::Float(x), Value::Int(y)) => Ok(Nums::Floats(f32::from_bits(**x), *y as f32)),
            (Value::Float(x), Value::Float(y)) => {
                Ok(Nums::Floats(f32::from_bits(**x), f32::from_bits(**y)))
            }
            _ => Err(Stop::Trap(exit_code::ERR_ARITH)),
        }
    }

    fn unbox_float(&mut self, v: &Value) -> R<f32> {
        match v {
            Value::Float(bits) => Ok(f32::from_bits(**bits)),
            _ => Err(Stop::Trap(exit_code::ERR_ARITH)),
        }
    }
}

enum Nums {
    Ints(i64, i64),
    Floats(f32, f32),
}

fn boolean(b: bool) -> Value {
    if b {
        Value::True
    } else {
        Value::Nil
    }
}

fn box_float(f: f32) -> Value {
    Value::Float(Rc::new(f.to_bits()))
}

/// Materialise one constant-table entry. Quoted `nil`/`t` are the interned
/// runtime objects; quoted lists build shared, mutable pairs.
fn sexp_to_value(s: &Sexp) -> Value {
    match s {
        Sexp::Int(i) => Value::Int(*i),
        Sexp::Float(bits) => Value::Float(Rc::new(*bits)),
        Sexp::Sym(name) => match name.as_str() {
            "nil" => Value::Nil,
            "t" => Value::True,
            _ => Value::Sym(Rc::from(name.as_str())),
        },
        Sexp::List(items, tail) => {
            let mut acc = match tail {
                Some(t) => sexp_to_value(t),
                None => Value::Nil,
            };
            for item in items.iter().rev() {
                acc = Value::Pair(Rc::new(RefCell::new((sexp_to_value(item), acc))));
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> EvalOutcome {
        eval_source(src, &EvalOptions::default()).expect("evaluates")
    }

    #[test]
    fn prints_like_the_compiled_system() {
        let o = run("(print (cons 1 (cons 2 nil))) (print 'sym) (print (list 1 '(a . b)))");
        assert_eq!(o.halt_code, exit_code::OK);
        assert_eq!(o.output, "(1 2)\nsym\n(1 (a . b))\n");
    }

    #[test]
    fn arithmetic_and_errors() {
        assert_eq!(run("(print (quotient -12 4))").output, "-3\n");
        assert_eq!(run("(print (remainder 7 3))").output, "1\n");
        assert_eq!(run("(quotient 1 0)").halt_code, exit_code::ERR_DIV0);
        assert_eq!(run("(car 5)").halt_code, exit_code::ERR_CAR);
        assert_eq!(run("(plus 'a 1)").halt_code, exit_code::ERR_ARITH);
        assert_eq!(run("(getv (mkvect 2) 7)").halt_code, exit_code::ERR_BOUNDS);
        assert_eq!(run("(funcall 'no-def 1)").halt_code, exit_code::ERR_FUNCALL);
        let max = (1i64 << 26) - 1; // high5: 27-bit fixnums
        assert_eq!(
            run(&format!("(plus {max} 1)")).halt_code,
            exit_code::ERR_OVERFLOW
        );
    }

    #[test]
    fn nil_is_a_symbol_and_vectors_have_n_slots() {
        let o = run("(print (idp nil)) (print (upbv (mkvect 3))) (print (atom (mkvect 1)))");
        assert_eq!(o.output, "t\n3\nt\n");
    }

    #[test]
    fn partial_output_survives_a_trap() {
        let o = run("(wrch 104) (wrch 105) (car 5)");
        assert_eq!(o.halt_code, exit_code::ERR_CAR);
        assert_eq!(o.output, "hi");
    }

    #[test]
    fn census_counts_checked_ops() {
        let o = run("(plus 1 2) (times 3 4) (car '(1)) (getv (mkvect 2) 1)");
        assert_eq!(o.census.arith_addsub, 1);
        assert_eq!(o.census.arith_all, 2);
        // both-literal times is fully elided
        assert_eq!(o.census.arith_certain, 0);
        assert_eq!(o.census.list_all, 1);
        assert_eq!(o.census.vector_certain, 2); // mkvect + getv
        assert_eq!(o.census.float_ops, 0);
    }

    #[test]
    fn fuel_and_depth_are_harness_errors() {
        let opts = EvalOptions {
            fuel: 100,
            ..EvalOptions::default()
        };
        assert!(matches!(
            eval_source("(setq x 0)", &opts),
            Err(EvalError::Compile(_))
        ));
        let looping = "(defun spin () (spin)) (spin)";
        let tight = EvalOptions {
            max_depth: 10,
            ..EvalOptions::default()
        };
        assert_eq!(eval_source(looping, &tight).unwrap_err(), EvalError::Depth);
        let thirsty = EvalOptions {
            fuel: 1_000,
            ..EvalOptions::default()
        };
        assert_eq!(
            eval_source(
                "(defvar i 0) (while (lessp i 1000) (setq i (add1 i)))",
                &thirsty
            )
            .unwrap_err(),
            EvalError::Fuel
        );
    }

    /// Every level of evaluation counts against `max_depth`, not only
    /// calls: one more `add1` around an expression needs exactly one more
    /// level.
    #[test]
    fn every_level_counts_against_the_depth_limit() {
        // The smallest `max_depth` under which `source` evaluates.
        let least_depth = |source: &str| {
            (1..100)
                .find(|&max_depth| {
                    let opts = EvalOptions {
                        max_depth,
                        ..EvalOptions::default()
                    };
                    eval_source(source, &opts) != Err(EvalError::Depth)
                })
                .expect("evaluates within 100 levels")
        };
        let nested = |levels: usize| {
            let mut e = "0".to_string();
            for _ in 0..levels {
                e = format!("(add1 {e})");
            }
            format!("(print {e})")
        };
        // Past the prelude's own top-level forms, which are shallower.
        let base = least_depth(&nested(20));
        for levels in 21..28 {
            assert_eq!(least_depth(&nested(levels)), base + levels - 20);
        }
    }

    /// On a 2 MiB thread, the size of a worker's stack, recursion that
    /// never ends gets [`EvalError::Depth`] under the default limit, where an
    /// unbounded evaluator would overflow the stack and abort the process:
    /// a plain recursive call, and one nested inside 10 `add1`s (the
    /// costliest shape per level), which a bound on calls alone let
    /// overflow at 400 calls.
    #[test]
    fn default_depth_limit_fits_a_worker_stack() {
        let results = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let run = |src: &str| eval_source(src, &EvalOptions::default()).map(|o| o.output);
                let mut add1s = "(f (sub1 n))".to_string();
                for _ in 0..10 {
                    add1s = format!("(add1 {add1s})");
                }
                [
                    run("(defun f (n) (f n)) (f 0)"),
                    run(&format!(
                        "(defun f (n) (cond ((eq n 0) 0) (t {add1s}))) (print (f 399))"
                    )),
                    run("(defun f (n) (cons 1 (f n))) (f 0)"),
                    run("(defun f (n) (list 1 2 (f n))) (f 0)"),
                ]
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
        for result in results {
            assert_eq!(result, Err(EvalError::Depth));
        }
    }
}
