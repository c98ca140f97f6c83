//! The core expression language the front end lowers source into.

use crate::sexp::Sexp;

/// Built-in primitive operations, compiled inline (or to short runtime calls).
///
/// The names follow Portable Standard Lisp: `plus`/`difference`/`times`/
/// `quotient`, `lessp`/`greaterp`, `idp` for symbols, `upbv` for vector upper
/// bound. The front end also accepts the usual operator aliases (`+`, `-`, `<`…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Prim {
    // lists
    Cons,
    Car,
    Cdr,
    Rplaca,
    Rplacd,
    // predicates
    Eq,
    Null,
    Atom,
    Pairp,
    Intp,
    Idp,
    Vectorp,
    Floatp,
    // integer (generic under full checking) arithmetic
    Plus,
    Difference,
    Times,
    Quotient,
    Remainder,
    Add1,
    Sub1,
    Minus,
    Lessp,
    Greaterp,
    Leq,
    Geq,
    NumEq,
    // vectors
    Mkvect,
    Getv,
    Putv,
    Upbv,
    // symbols
    Plist,
    Setplist,
    // output
    Wrch,
    Wrint,
    PrinName,
    // runtime services
    Reclaim,
    // float-specific operators (PSL-style type-specific arithmetic)
    FPlus,
    FDifference,
    FTimes,
    FQuotient,
    FLessp,
    FloatFromInt,
}

impl Prim {
    /// Number of arguments the primitive takes.
    pub fn arity(self) -> usize {
        use Prim::*;
        match self {
            Reclaim => 0,
            Car | Cdr | Null | Atom | Pairp | Intp | Idp | Vectorp | Floatp | Add1 | Sub1
            | Minus | Mkvect | Upbv | Plist | Wrch | Wrint | PrinName | FloatFromInt => 1,
            Cons | Rplaca | Rplacd | Eq | Plus | Difference | Times | Quotient | Remainder
            | Lessp | Greaterp | Leq | Geq | NumEq | Getv | Setplist | FPlus | FDifference
            | FTimes | FQuotient | FLessp => 2,
            Putv => 3,
        }
    }

    /// Look a primitive up by (PSL or alias) name.
    pub fn by_name(name: &str) -> Option<Prim> {
        use Prim::*;
        Some(match name {
            "cons" => Cons,
            "car" => Car,
            "cdr" => Cdr,
            "rplaca" => Rplaca,
            "rplacd" => Rplacd,
            "eq" => Eq,
            "null" | "not" => Null,
            "atom" => Atom,
            "pairp" | "consp" => Pairp,
            "intp" | "fixp" | "numberp" => Intp,
            "idp" | "symbolp" => Idp,
            "vectorp" => Vectorp,
            "floatp" => Floatp,
            "plus" | "plus2" | "+" => Plus,
            "difference" | "-" => Difference,
            "times" | "times2" | "*" => Times,
            "quotient" | "/" => Quotient,
            "remainder" | "rem" => Remainder,
            "add1" | "1+" => Add1,
            "sub1" | "1-" => Sub1,
            "minus" => Minus,
            "lessp" | "<" => Lessp,
            "greaterp" | ">" => Greaterp,
            "leq" | "<=" => Leq,
            "geq" | ">=" => Geq,
            "eqn" | "=" => NumEq,
            "mkvect" => Mkvect,
            "getv" => Getv,
            "putv" => Putv,
            "upbv" => Upbv,
            "plist" => Plist,
            "setplist" => Setplist,
            "wrch" => Wrch,
            "wrint" => Wrint,
            "prin-name" => PrinName,
            "reclaim" => Reclaim,
            "fplus" => FPlus,
            "fdifference" => FDifference,
            "ftimes" => FTimes,
            "fquotient" => FQuotient,
            "flessp" => FLessp,
            "float" => FloatFromInt,
            _ => return None,
        })
    }

    /// Whether the primitive is one of the (possibly generic) arithmetic ops that
    /// full run-time checking turns into integer-biased generic sequences.
    #[allow(dead_code)] // part of the AST API surface, exercised by tests
    pub fn is_generic_arith(self) -> bool {
        use Prim::*;
        matches!(
            self,
            Plus | Difference
                | Times
                | Quotient
                | Remainder
                | Add1
                | Sub1
                | Minus
                | Lessp
                | Greaterp
                | Leq
                | Geq
                | NumEq
        )
    }
}

/// A reference to a compiled function (index into the unit's function table).
pub type FnId = usize;

/// The core expression language.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The constant `nil`.
    Nil,
    /// The constant `t`.
    T,
    /// A fixnum literal.
    Int(i32),
    /// A float literal (f32 bits), boxed at run time.
    Float(u32),
    /// Quoted structure or a symbol literal: index into the unit's constant table.
    Const(usize),
    /// A local variable (frame slot).
    Local(usize),
    /// A global variable (cell index in the globals area).
    Global(usize),
    /// Assign a local; value is the assigned value.
    SetLocal(usize, Box<Expr>),
    /// Assign a global; value is the assigned value.
    SetGlobal(usize, Box<Expr>),
    /// Two- or three-armed conditional (the else arm defaults to `nil`).
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Sequence; value of the last form (empty = `nil`).
    Progn(Vec<Expr>),
    /// Loop while the condition is non-nil; value `nil`.
    While(Box<Expr>, Vec<Expr>),
    /// Call a known function.
    Call(FnId, Vec<Expr>),
    /// Call through a symbol's function cell.
    Funcall(Box<Expr>, Vec<Expr>),
    /// A primitive application.
    Prim(Prim, Vec<Expr>),
    /// Short-circuit and; value of last form or `nil`.
    And(Vec<Expr>),
    /// Short-circuit or; first non-nil value or `nil`.
    Or(Vec<Expr>),
}

impl Expr {
    /// Whether evaluation is a single constant/register/frame access with no side
    /// effects and no allocation — eligible for deferred materialisation in
    /// argument lists.
    pub fn is_simple(&self) -> bool {
        matches!(
            self,
            Expr::Nil | Expr::T | Expr::Int(_) | Expr::Const(_) | Expr::Local(_) | Expr::Global(_)
        )
    }
}

/// A compiled-to-AST function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name (also its symbol).
    pub name: String,
    /// Number of parameters (≤ 6).
    pub params: usize,
    /// Total frame slots (params + let locals).
    pub nslots: usize,
    /// Body forms.
    pub body: Vec<Expr>,
}

/// A whole lowered compilation unit.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// All functions, in definition order (prelude first).
    pub fns: Vec<FnDef>,
    /// Global variable names, in cell order.
    pub globals: Vec<String>,
    /// Constant table: quoted structure and symbol literals.
    pub consts: Vec<Sexp>,
    /// Top-level forms, run in order by the generated `main`.
    pub top: Vec<Expr>,
    /// Source lines (comments and blanks excluded), for Table 3.
    pub source_lines: usize,
    /// What the system prelude contributed, when it was lowered first.
    pub(crate) prelude: Option<PreludePrefix>,
}

impl Unit {
    /// What the system prelude ([`crate::PRELUDE`]) contributed to this unit,
    /// or `None` when the unit was lowered without it.
    ///
    /// Functions, globals and constants are numbered in lowering order, so
    /// the prelude's are the first of each table, and [`crate::lower_sources`]
    /// refuses a program that redefines one of its functions. Compiling links
    /// such a unit against a prebuilt image of those functions.
    pub fn prelude(&self) -> Option<PreludePrefix> {
        self.prelude
    }
}

/// The lengths of the prefixes of a [`Unit`]'s tables that the system
/// prelude contributed (see [`Unit::prelude`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreludePrefix {
    /// Functions.
    pub fns: usize,
    /// Global variables.
    pub globals: usize,
    /// Constants.
    pub consts: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_lookup_and_aliases() {
        assert_eq!(Prim::by_name("plus"), Some(Prim::Plus));
        assert_eq!(Prim::by_name("+"), Some(Prim::Plus));
        assert_eq!(Prim::by_name("consp"), Some(Prim::Pairp));
        assert_eq!(Prim::by_name("no-such"), None);
    }

    #[test]
    fn arities() {
        assert_eq!(Prim::Cons.arity(), 2);
        assert_eq!(Prim::Putv.arity(), 3);
        assert_eq!(Prim::Reclaim.arity(), 0);
        assert_eq!(Prim::Car.arity(), 1);
    }

    #[test]
    fn generic_arith_classification() {
        assert!(Prim::Plus.is_generic_arith());
        assert!(Prim::Lessp.is_generic_arith());
        assert!(!Prim::Cons.is_generic_arith());
        assert!(
            !Prim::FPlus.is_generic_arith(),
            "float ops are type-specific"
        );
    }

    #[test]
    fn simplicity() {
        assert!(Expr::Int(3).is_simple());
        assert!(Expr::Local(0).is_simple());
        assert!(!Expr::Prim(Prim::Car, vec![Expr::Local(0)]).is_simple());
        assert!(!Expr::Float(0).is_simple(), "floats allocate");
    }
}
