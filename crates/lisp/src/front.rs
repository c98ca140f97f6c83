//! The front end: top-level form processing and lowering to [`Expr`].

use std::collections::HashMap;

use crate::ast::{Expr, FnDef, PreludePrefix, Prim, Unit};
use crate::error::CompileError;
use crate::prelude::PRELUDE;
use crate::sexp::{count_code_lines, parse_forms, Sexp, MAX_NESTING};

/// How much run-time checking the compiler emits — the paper's two extremes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckingMode {
    /// No run-time checking: list/vector/arithmetic operations assume their
    /// operands are well-typed (compiler "speed" setting).
    #[default]
    None,
    /// Full run-time checking: every car/cdr checks for a pair, vector accesses
    /// check tag, index type and bounds, and arithmetic is integer-biased generic
    /// (compiler "safety" setting).
    Full,
}

impl CheckingMode {
    /// The lower-case name: `none` or `full`.
    pub fn name(self) -> &'static str {
        match self {
            CheckingMode::None => "none",
            CheckingMode::Full => "full",
        }
    }

    /// Parse a [`name`](Self::name), ignoring ASCII case.
    ///
    /// # Errors
    ///
    /// A usage-ready message naming the accepted modes.
    pub fn parse(text: &str) -> Result<CheckingMode, String> {
        [CheckingMode::None, CheckingMode::Full]
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(text))
            .ok_or_else(|| format!("unknown checking mode {text:?} (want none or full)"))
    }
}

fn form_err(msg: impl Into<String>) -> CompileError {
    CompileError::Form {
        message: msg.into(),
    }
}

struct Scope {
    frames: Vec<HashMap<String, usize>>,
    next_slot: usize,
    max_slots: usize,
}

impl Scope {
    fn new() -> Self {
        Scope {
            frames: vec![HashMap::new()],
            next_slot: 0,
            max_slots: 0,
        }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self, n_bound: usize) {
        self.frames.pop();
        self.next_slot -= n_bound;
    }

    fn bind(&mut self, name: &str) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot);
        self.frames
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), slot);
        slot
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.frames.iter().rev().find_map(|f| f.get(name)).copied()
    }
}

struct Lower {
    unit: Unit,
    fn_ids: HashMap<String, usize>,
    fn_arity: Vec<usize>,
    global_ids: HashMap<String, usize>,
    const_ids: HashMap<String, usize>,
    /// Levels of nesting around the expression being lowered (see
    /// [`MAX_NESTING`]).
    depth: usize,
    /// The line the top-level form being lowered starts on.
    line: usize,
}

impl Lower {
    fn intern_const(&mut self, s: &Sexp) -> usize {
        let key = s.to_string();
        if let Some(&i) = self.const_ids.get(&key) {
            return i;
        }
        let i = self.unit.consts.len();
        self.unit.consts.push(s.clone());
        self.const_ids.insert(key, i);
        i
    }

    fn global(&mut self, name: &str) -> usize {
        if let Some(&i) = self.global_ids.get(name) {
            return i;
        }
        let i = self.unit.globals.len();
        self.unit.globals.push(name.to_string());
        self.global_ids.insert(name.to_string(), i);
        i
    }

    fn lower_quote(&mut self, s: &Sexp) -> Expr {
        match s {
            Sexp::Int(i) => Expr::Int(*i),
            Sexp::Float(b) => Expr::Float(*b),
            Sexp::Sym(n) if n == "nil" => Expr::Nil,
            Sexp::Sym(n) if n == "t" => Expr::T,
            other => Expr::Const(self.intern_const(other)),
        }
    }

    fn lower_body(&mut self, forms: &[Sexp], sc: &mut Scope) -> Result<Vec<Expr>, CompileError> {
        forms.iter().map(|f| self.lower(f, sc)).collect()
    }

    /// Run `lower` `levels` deeper, or fail past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        levels: usize,
        lower: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth + levels > MAX_NESTING {
            return Err(CompileError::Nesting {
                line: self.line,
                limit: MAX_NESTING,
            });
        }
        self.depth += levels;
        let v = lower(self);
        self.depth -= levels;
        v
    }

    /// Lower `s`, a level deeper when it is a list, as the reader counts.
    fn lower(&mut self, s: &Sexp, sc: &mut Scope) -> Result<Expr, CompileError> {
        match s {
            Sexp::List(..) => self.nested(1, |lo| lo.lower_one(s, sc)),
            _ => self.lower_one(s, sc),
        }
    }

    fn lower_one(&mut self, s: &Sexp, sc: &mut Scope) -> Result<Expr, CompileError> {
        match s {
            Sexp::Int(i) => Ok(Expr::Int(*i)),
            Sexp::Float(b) => Ok(Expr::Float(*b)),
            Sexp::Sym(n) => match n.as_str() {
                "nil" => Ok(Expr::Nil),
                "t" => Ok(Expr::T),
                _ => {
                    if let Some(slot) = sc.lookup(n) {
                        Ok(Expr::Local(slot))
                    } else if let Some(&g) = self.global_ids.get(n) {
                        Ok(Expr::Global(g))
                    } else {
                        Err(CompileError::UnknownVariable { name: n.clone() })
                    }
                }
            },
            Sexp::List(items, tail) => {
                if tail.is_some() {
                    return Err(form_err(format!("dotted form in code: {s}")));
                }
                let head = items
                    .first()
                    .and_then(Sexp::as_sym)
                    .ok_or_else(|| form_err(format!("call head must be a symbol: {s}")))?
                    .to_string();
                let args = &items[1..];
                self.lower_form(&head, args, s, sc)
            }
        }
    }

    fn lower_form(
        &mut self,
        head: &str,
        args: &[Sexp],
        whole: &Sexp,
        sc: &mut Scope,
    ) -> Result<Expr, CompileError> {
        match head {
            "quote" => {
                if args.len() != 1 {
                    return Err(form_err(format!("quote wants 1 arg: {whole}")));
                }
                Ok(self.lower_quote(&args[0]))
            }
            "if" => {
                if args.len() < 2 || args.len() > 3 {
                    return Err(form_err(format!("if wants 2-3 args: {whole}")));
                }
                let c = self.lower(&args[0], sc)?;
                let t = self.lower(&args[1], sc)?;
                let e = if let Some(e) = args.get(2) {
                    self.lower(e, sc)?
                } else {
                    Expr::Nil
                };
                Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            "when" | "unless" => {
                if args.is_empty() {
                    return Err(form_err(format!("{head} wants a condition: {whole}")));
                }
                let c = self.lower(&args[0], sc)?;
                let body = Expr::Progn(self.lower_body(&args[1..], sc)?);
                let (t, e) = if head == "when" {
                    (body, Expr::Nil)
                } else {
                    (Expr::Nil, body)
                };
                Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            "cond" => {
                // (cond (c e...) ... ) => nested ifs: clause k sits inside k
                // of them.
                let mut out = Expr::Nil;
                for (k, clause) in args.iter().enumerate().rev() {
                    let cl = clause
                        .as_list()
                        .ok_or_else(|| form_err(format!("bad cond clause: {clause}")))?;
                    if cl.is_empty() {
                        return Err(form_err(format!("empty cond clause: {whole}")));
                    }
                    let is_default = cl[0].as_sym() == Some("t");
                    let body = if cl.len() == 1 {
                        None
                    } else {
                        let body = self.nested(k, |lo| lo.lower_body(&cl[1..], sc))?;
                        Some(Expr::Progn(body))
                    };
                    if is_default {
                        out = body.unwrap_or(Expr::T);
                    } else {
                        let c = self.nested(k, |lo| lo.lower(&cl[0], sc))?;
                        out = match body {
                            Some(b) => Expr::If(Box::new(c), Box::new(b), Box::new(out)),
                            // (cond (x) ...): value of the test itself
                            None => Expr::Or(vec![c, out]),
                        };
                    }
                }
                Ok(out)
            }
            "progn" | "prog2" => {
                let body = self.lower_body(args, sc)?;
                Ok(Expr::Progn(body))
            }
            "let" | "let*" => {
                let binds = args
                    .first()
                    .and_then(Sexp::as_list)
                    .ok_or_else(|| form_err(format!("{head} wants a binding list: {whole}")))?;
                let sequential = head == "let*";
                sc.push();
                let mut bound = 0;
                let mut inits = Vec::new();
                if sequential {
                    // let*: each init sees the previous bindings.
                    for b in binds {
                        let (name, init) = lower_binding(self, b, sc)?;
                        let slot = sc.bind(&name);
                        bound += 1;
                        inits.push(Expr::SetLocal(slot, Box::new(init)));
                    }
                } else {
                    // let: every init is evaluated in the outer scope (the new
                    // frame is empty while lowering, so lookups resolve outward),
                    // then all bindings are installed. Slots are disjoint from the
                    // outer ones, so the stores cannot disturb the inits.
                    let mut pending = Vec::new();
                    for b in binds {
                        pending.push(lower_binding(self, b, sc)?);
                    }
                    for (name, init) in pending {
                        let slot = sc.bind(&name);
                        bound += 1;
                        inits.push(Expr::SetLocal(slot, Box::new(init)));
                    }
                }
                let mut body = self.lower_body(&args[1..], sc)?;
                sc.pop(bound);
                let mut seq = inits;
                seq.append(&mut body);
                Ok(Expr::Progn(seq))
            }
            "setq" => {
                if args.len() != 2 {
                    return Err(form_err(format!("setq wants 2 args: {whole}")));
                }
                let name = args[0]
                    .as_sym()
                    .ok_or_else(|| form_err(format!("setq of non-symbol: {whole}")))?;
                let v = self.lower(&args[1], sc)?;
                if let Some(slot) = sc.lookup(name) {
                    Ok(Expr::SetLocal(slot, Box::new(v)))
                } else if let Some(&g) = self.global_ids.get(name) {
                    Ok(Expr::SetGlobal(g, Box::new(v)))
                } else {
                    Err(CompileError::UnknownVariable {
                        name: name.to_string(),
                    })
                }
            }
            "while" => {
                if args.is_empty() {
                    return Err(form_err(format!("while wants a condition: {whole}")));
                }
                let c = self.lower(&args[0], sc)?;
                let body = self.lower_body(&args[1..], sc)?;
                Ok(Expr::While(Box::new(c), body))
            }
            "and" => Ok(Expr::And(self.lower_body(args, sc)?)),
            "or" => Ok(Expr::Or(self.lower_body(args, sc)?)),
            "list" => {
                // (list a b c) => (cons a (cons b (cons c nil))): element i
                // sits inside i conses.
                let mut out = Expr::Nil;
                let mut lowered = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    lowered.push(self.nested(i, |lo| lo.lower(a, sc))?);
                }
                for e in lowered.into_iter().rev() {
                    out = Expr::Prim(Prim::Cons, vec![e, out]);
                }
                Ok(out)
            }
            "funcall" | "apply1" => {
                if args.is_empty() {
                    return Err(form_err(format!("funcall wants a function: {whole}")));
                }
                let f = self.lower(&args[0], sc)?;
                let rest = self.lower_body(&args[1..], sc)?;
                if rest.len() > 6 {
                    return Err(CompileError::TooManyParams {
                        name: "funcall".into(),
                    });
                }
                Ok(Expr::Funcall(Box::new(f), rest))
            }
            "function" => {
                // #'name / (function name): the symbol, used with funcall.
                let n = args
                    .first()
                    .and_then(Sexp::as_sym)
                    .ok_or_else(|| form_err(format!("function wants a symbol: {whole}")))?;
                Ok(self.lower_quote(&Sexp::Sym(n.to_string())))
            }
            // c[ad]{2,3}r sugar
            _ if is_cxr(head) => {
                if args.len() != 1 {
                    return Err(form_err(format!("{head} wants 1 arg: {whole}")));
                }
                let mut e = self.lower(&args[0], sc)?;
                for c in head[1..head.len() - 1].chars().rev() {
                    let p = if c == 'a' { Prim::Car } else { Prim::Cdr };
                    e = Expr::Prim(p, vec![e]);
                }
                Ok(e)
            }
            _ => {
                // primitive?
                if let Some(p) = Prim::by_name(head) {
                    let lowered = self.lower_body(args, sc)?;
                    if lowered.len() != p.arity() {
                        return Err(CompileError::Arity {
                            name: head.to_string(),
                            expected: p.arity(),
                            got: lowered.len(),
                        });
                    }
                    return Ok(Expr::Prim(p, lowered));
                }
                // known function?
                if let Some(&id) = self.fn_ids.get(head) {
                    let lowered = self.lower_body(args, sc)?;
                    if lowered.len() != self.fn_arity[id] {
                        return Err(CompileError::Arity {
                            name: head.to_string(),
                            expected: self.fn_arity[id],
                            got: lowered.len(),
                        });
                    }
                    return Ok(Expr::Call(id, lowered));
                }
                Err(CompileError::UnknownFunction {
                    name: head.to_string(),
                })
            }
        }
    }
}

fn lower_binding(lo: &mut Lower, b: &Sexp, sc: &mut Scope) -> Result<(String, Expr), CompileError> {
    match b {
        Sexp::Sym(n) => Ok((n.clone(), Expr::Nil)),
        Sexp::List(bi, None) if bi.len() <= 2 => {
            let n = bi[0]
                .as_sym()
                .ok_or_else(|| form_err(format!("bad binding: {b}")))?;
            let init = if let Some(e) = bi.get(1) {
                lo.lower(e, sc)?
            } else {
                Expr::Nil
            };
            Ok((n.to_string(), init))
        }
        _ => Err(form_err(format!("bad binding: {b}"))),
    }
}

fn is_cxr(name: &str) -> bool {
    name.len() >= 4
        && name.len() <= 6
        && name.starts_with('c')
        && name.ends_with('r')
        && name[1..name.len() - 1]
            .bytes()
            .all(|c| c == b'a' || c == b'd')
}

impl Lower {
    /// Pass 1 over one top-level form: declare a function signature or a
    /// global, so forward references work.
    fn declare(&mut self, form: &Sexp) -> Result<(), CompileError> {
        if let Some(items) = form.as_list() {
            match items.first().and_then(Sexp::as_sym) {
                Some("defun" | "de") => {
                    let name = items
                        .get(1)
                        .and_then(Sexp::as_sym)
                        .ok_or_else(|| form_err(format!("bad defun: {form}")))?;
                    let params = items
                        .get(2)
                        .map(|p| {
                            if p.is_nil() {
                                Some(&[][..])
                            } else {
                                p.as_list()
                            }
                        })
                        .ok_or_else(|| form_err(format!("defun wants a lambda list: {form}")))?
                        .ok_or_else(|| form_err(format!("bad lambda list: {form}")))?;
                    if params.len() > 6 {
                        return Err(CompileError::TooManyParams {
                            name: name.to_string(),
                        });
                    }
                    if self.fn_ids.contains_key(name) {
                        return Err(form_err(format!("duplicate defun: {name}")));
                    }
                    let id = self.unit.fns.len();
                    self.fn_ids.insert(name.to_string(), id);
                    self.fn_arity.push(params.len());
                    // Placeholder; body filled in pass 2.
                    self.unit.fns.push(FnDef {
                        name: name.to_string(),
                        params: params.len(),
                        nslots: params.len(),
                        body: Vec::new(),
                    });
                }
                Some("defvar" | "global") => {
                    let name = items
                        .get(1)
                        .and_then(Sexp::as_sym)
                        .ok_or_else(|| form_err(format!("bad defvar: {form}")))?;
                    self.global(name);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Pass 2 over one top-level form: lower a function body, a global's
    /// initialiser or a top-level form.
    fn define(&mut self, form: &Sexp) -> Result<(), CompileError> {
        let items = match form.as_list() {
            Some(i) => i,
            None => {
                // A bare top-level atom evaluates for effect; lower it.
                let mut sc = Scope::new();
                let e = self.lower(form, &mut sc)?;
                self.unit.top.push(e);
                return Ok(());
            }
        };
        match items.first().and_then(Sexp::as_sym) {
            Some("defun" | "de") => {
                let name = items[1].as_sym().expect("checked in pass 1").to_string();
                let params: Vec<String> = if items[2].is_nil() {
                    vec![]
                } else {
                    items[2]
                        .as_list()
                        .expect("checked in pass 1")
                        .iter()
                        .map(|p| {
                            p.as_sym()
                                .map(str::to_string)
                                .ok_or_else(|| form_err(format!("bad parameter in {name}")))
                        })
                        .collect::<Result<_, _>>()?
                };
                let mut sc = Scope::new();
                for p in &params {
                    sc.bind(p);
                }
                let body = self.lower_body(&items[3..], &mut sc)?;
                let id = self.fn_ids[&name];
                self.unit.fns[id].body = body;
                self.unit.fns[id].nslots = sc.max_slots;
            }
            Some("defvar" | "global") => {
                let name = items[1].as_sym().expect("checked in pass 1");
                let g = self.global_ids[name];
                let init = if let Some(e) = items.get(2) {
                    let mut sc = Scope::new();
                    self.lower(e, &mut sc)?
                } else {
                    Expr::Nil
                };
                self.unit.top.push(Expr::SetGlobal(g, Box::new(init)));
            }
            _ => {
                let mut sc = Scope::new();
                let e = self.lower(form, &mut sc)?;
                if sc.max_slots > 0 {
                    return Err(form_err(format!(
                        "top-level form binds locals (wrap it in a defun): {form}"
                    )));
                }
                self.unit.top.push(e);
            }
        }
        Ok(())
    }
}

/// Parse and lower a set of sources (prelude first, then the program) into a
/// [`Unit`].
///
/// # Errors
///
/// Reader errors, unknown variables/functions, malformed forms, arity
/// mismatches, and nesting past [`MAX_NESTING`].
pub fn lower_sources(sources: &[&str]) -> Result<Unit, CompileError> {
    let mut parsed = Vec::with_capacity(sources.len());
    let mut lines = 0;
    for src in sources {
        lines += count_code_lines(src);
        parsed.push(parse_forms(src)?);
    }

    let mut lo = Lower {
        unit: Unit {
            source_lines: lines,
            ..Unit::default()
        },
        fn_ids: HashMap::new(),
        fn_arity: Vec::new(),
        global_ids: HashMap::new(),
        const_ids: HashMap::new(),
        depth: 0,
        line: 0,
    };

    // Pass 1 declares every function and global, pass 2 lowers the bodies.
    // The prelude's functions, globals and constants are the first of each
    // table when it is lowered first: record where they end.
    let with_prelude = sources.first() == Some(&PRELUDE);
    let mut prelude = PreludePrefix {
        fns: 0,
        globals: 0,
        consts: 0,
    };
    for (s, forms) in parsed.iter().enumerate() {
        for (_, form) in forms {
            lo.declare(form)?;
        }
        if s == 0 {
            prelude.fns = lo.unit.fns.len();
            prelude.globals = lo.unit.globals.len();
        }
    }
    for (s, forms) in parsed.iter().enumerate() {
        for (line, form) in forms {
            lo.line = *line;
            lo.define(form)?;
        }
        if s == 0 {
            prelude.consts = lo.unit.consts.len();
        }
    }
    lo.unit.prelude = with_prelude.then_some(prelude);
    Ok(lo.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower1(src: &str) -> Unit {
        lower_sources(&[src]).expect("lowers")
    }

    #[test]
    fn defun_and_call() {
        let u = lower1("(defun f (x) (plus x 1)) (f 3)");
        assert_eq!(u.fns.len(), 1);
        assert_eq!(u.fns[0].params, 1);
        assert_eq!(u.top.len(), 1);
        assert!(matches!(u.top[0], Expr::Call(0, _)));
    }

    #[test]
    fn forward_references_work() {
        let u = lower1("(defun f (x) (g x)) (defun g (x) x)");
        assert!(matches!(u.fns[0].body[0], Expr::Call(1, _)));
    }

    #[test]
    fn cond_lowers_to_ifs() {
        let u = lower1("(defun f (x) (cond ((null x) 1) ((atom x) 2) (t 3)))");
        assert!(matches!(u.fns[0].body[0], Expr::If(..)));
    }

    #[test]
    fn let_allocates_slots() {
        let u = lower1("(defun f (x) (let ((a 1) (b 2)) (plus a b)))");
        assert_eq!(u.fns[0].nslots, 3); // x, a, b
    }

    #[test]
    fn nested_lets_reuse_slots() {
        let u = lower1("(defun f () (progn (let ((a 1)) a) (let ((b 2)) b)))");
        assert_eq!(u.fns[0].nslots, 1, "sibling lets share the slot");
    }

    #[test]
    fn cxr_sugar() {
        let u = lower1("(defun f (x) (cadr x))");
        match &u.fns[0].body[0] {
            Expr::Prim(Prim::Car, args) => {
                assert!(matches!(args[0], Expr::Prim(Prim::Cdr, _)))
            }
            other => panic!("expected car(cdr(x)), got {other:?}"),
        }
    }

    #[test]
    fn quote_and_constants_dedupe() {
        let u = lower1("(defun f () (cons '(a b) '(a b)))");
        assert_eq!(u.consts.len(), 1);
    }

    #[test]
    fn quoted_atoms_fold() {
        let u = lower1("(defun f () (cons '5 'nil))");
        match &u.fns[0].body[0] {
            Expr::Prim(Prim::Cons, args) => {
                assert_eq!(args[0], Expr::Int(5));
                assert_eq!(args[1], Expr::Nil);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn globals() {
        let u = lower1("(defvar counter 0) (defun bump () (setq counter (add1 counter)))");
        assert_eq!(u.globals, vec!["counter".to_string()]);
        assert!(matches!(u.fns[0].body[0], Expr::SetGlobal(0, _)));
    }

    #[test]
    fn errors() {
        assert!(matches!(
            lower_sources(&["(defun f (x) y)"]),
            Err(CompileError::UnknownVariable { .. })
        ));
        assert!(matches!(
            lower_sources(&["(nosuch 1)"]),
            Err(CompileError::UnknownFunction { .. })
        ));
        assert!(matches!(
            lower_sources(&["(cons 1)"]),
            Err(CompileError::Arity { .. })
        ));
        assert!(matches!(
            lower_sources(&["(defun f (a b c d e f g) 1)"]),
            Err(CompileError::TooManyParams { .. })
        ));
        assert!(lower_sources(&["(defun f () 1) (defun f () 2)"]).is_err());
    }

    #[test]
    fn while_and_list() {
        let u = lower1("(defvar n 0) (defun f () (while (lessp n 10) (setq n (add1 n))))");
        assert!(matches!(u.fns[0].body[0], Expr::While(..)));
        let u = lower1("(defun g () (list 1 2))");
        assert!(matches!(u.fns[0].body[0], Expr::Prim(Prim::Cons, _)));
    }

    #[test]
    fn line_count_recorded() {
        let u = lower_sources(&["(defun f () 1)\n", "; c\n(f)\n"]).unwrap();
        assert_eq!(u.source_lines, 2);
    }
}
