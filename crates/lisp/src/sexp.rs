//! S-expression data type and reader.

use std::fmt;

use crate::error::CompileError;

/// The deepest nesting the reader and lowering accept: lists (a quote
/// counts as one) for the reader, nested forms plus the elements of a
/// `list` and the clauses of a `cond` (each nests the next) for lowering.
/// The paper programs, the prelude and synth's generator nest at most 18
/// levels on either count (DESIGN.md). The reader, lowering, code
/// generation and the drop of what they built each recurse once per level
/// or a few, and this bound keeps them well inside a 2 MiB thread stack.
pub const MAX_NESTING: usize = 256;

/// A parsed s-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sexp {
    /// An integer literal.
    Int(i32),
    /// A float literal (f32; used only by the generic-arithmetic experiments).
    Float(u32),
    /// A symbol (case-sensitive, lower-cased by convention).
    Sym(String),
    /// A proper or dotted list. `(a b . c)` is `List(vec![a, b], Some(c))`; a
    /// proper list has `None` as its tail.
    List(Vec<Sexp>, Option<Box<Sexp>>),
}

impl Sexp {
    /// The symbol `nil`.
    pub fn nil() -> Sexp {
        Sexp::Sym("nil".to_string())
    }

    /// Construct a proper list.
    pub fn list(items: Vec<Sexp>) -> Sexp {
        if items.is_empty() {
            Sexp::nil()
        } else {
            Sexp::List(items, None)
        }
    }

    /// Whether this is the symbol `nil` or the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Sexp::Sym(s) if s == "nil")
    }

    /// The symbol name, if this is a symbol.
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            Sexp::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// The proper-list items, if this is a proper list.
    pub fn as_list(&self) -> Option<&[Sexp]> {
        match self {
            Sexp::List(items, None) => Some(items),
            _ => None,
        }
    }

    /// Whether the expression is a list whose head is the symbol `head`.
    pub fn is_form(&self, head: &str) -> bool {
        matches!(self, Sexp::List(items, _) if items.first().and_then(Sexp::as_sym) == Some(head))
    }
}

impl fmt::Display for Sexp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sexp::Int(i) => write!(f, "{i}"),
            Sexp::Float(bits) => write!(f, "{:?}", f32::from_bits(*bits)),
            Sexp::Sym(s) => write!(f, "{s}"),
            Sexp::List(items, tail) => {
                write!(f, "(")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{it}")?;
                }
                if let Some(t) = tail {
                    write!(f, " . {t}")?;
                }
                write!(f, ")")
            }
        }
    }
}

struct Reader<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Lists (and quotes) open around the current position.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str) -> Self {
        Reader {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::Read {
            line: self.line,
            message: msg.into(),
        }
    }

    fn read(&mut self) -> Result<Option<Sexp>, CompileError> {
        self.skip_ws();
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        match c {
            b'(' | b'\'' if self.depth == MAX_NESTING => Err(CompileError::Nesting {
                line: self.line,
                limit: MAX_NESTING,
            }),
            b'(' => {
                self.bump();
                self.nested(Self::read_list).map(Some)
            }
            b')' => Err(self.err("unexpected ')'")),
            b'\'' => {
                self.bump();
                let inner = self
                    .nested(Self::read)?
                    .ok_or_else(|| self.err("end of input after quote"))?;
                Ok(Some(Sexp::list(vec![Sexp::Sym("quote".into()), inner])))
            }
            _ => self.read_atom().map(Some),
        }
    }

    fn nested<T>(&mut self, read: fn(&mut Self) -> T) -> T {
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    fn read_list(&mut self) -> Result<Sexp, CompileError> {
        let mut items = Vec::new();
        let mut tail = None;
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err("unterminated list")),
                Some(b')') => {
                    self.bump();
                    break;
                }
                Some(b'.') if self.is_dot_separator() => {
                    self.bump();
                    let t = self
                        .read()?
                        .ok_or_else(|| self.err("end of input after '.'"))?;
                    if items.is_empty() {
                        return Err(self.err("dotted tail with no head"));
                    }
                    tail = Some(Box::new(t));
                    self.skip_ws();
                    if self.bump() != Some(b')') {
                        return Err(self.err("expected ')' after dotted tail"));
                    }
                    break;
                }
                Some(_) => {
                    let it = self
                        .read()?
                        .ok_or_else(|| self.err("end of input in list"))?;
                    items.push(it);
                }
            }
        }
        if items.is_empty() && tail.is_none() {
            return Ok(Sexp::nil());
        }
        // Normalise dotted nil back to a proper list.
        if let Some(t) = &tail {
            if t.is_nil() {
                tail = None;
            }
        }
        Ok(Sexp::List(items, tail))
    }

    fn is_dot_separator(&self) -> bool {
        // A lone '.' (not part of a number or symbol like '.5' or '...').
        matches!(self.src.get(self.pos), Some(b'.'))
            && self
                .src
                .get(self.pos + 1)
                .map(|c| c.is_ascii_whitespace() || *c == b')' || *c == b'(')
                .unwrap_or(true)
    }

    fn read_atom(&mut self) -> Result<Sexp, CompileError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() || c == b'(' || c == b')' || c == b';' || c == b'\'' {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("non-utf8 atom"))?;
        if text.is_empty() {
            return Err(self.err("empty atom"));
        }
        // Integer?
        if text
            .bytes()
            .next()
            .map(|c| c.is_ascii_digit() || c == b'-' || c == b'+')
            == Some(true)
            && text.len() > (!text.as_bytes()[0].is_ascii_digit()) as usize
        {
            if text.bytes().skip(1).all(|c| c.is_ascii_digit())
                && (text.as_bytes()[0].is_ascii_digit() || text.len() > 1)
            {
                return text
                    .parse::<i32>()
                    .map(Sexp::Int)
                    .map_err(|_| self.err(format!("integer out of range: {text}")));
            }
            // Float like 1.5, -2.25
            if text.contains('.') && text.parse::<f32>().is_ok() {
                let f: f32 = text.parse().unwrap();
                return Ok(Sexp::Float(f.to_bits()));
            }
        }
        Ok(Sexp::Sym(text.to_ascii_lowercase()))
    }
}

/// Parse a single s-expression from `src`.
///
/// # Errors
///
/// [`CompileError::Read`] on malformed input or when `src` is empty,
/// [`CompileError::Nesting`] past [`MAX_NESTING`].
pub fn parse_one(src: &str) -> Result<Sexp, CompileError> {
    let mut r = Reader::new(src);
    r.read()?.ok_or_else(|| CompileError::Read {
        line: r.line,
        message: "empty input".into(),
    })
}

/// Parse every top-level s-expression in `src`.
///
/// # Errors
///
/// [`CompileError::Read`] on malformed input, [`CompileError::Nesting`] past
/// [`MAX_NESTING`].
pub fn parse_all(src: &str) -> Result<Vec<Sexp>, CompileError> {
    Ok(parse_forms(src)?.into_iter().map(|(_, s)| s).collect())
}

/// [`parse_all`], each form with the 1-based line it starts on.
pub(crate) fn parse_forms(src: &str) -> Result<Vec<(usize, Sexp)>, CompileError> {
    let mut r = Reader::new(src);
    let mut out = Vec::new();
    loop {
        r.skip_ws();
        let line = r.line;
        match r.read()? {
            Some(s) => out.push((line, s)),
            None => return Ok(out),
        }
    }
}

/// Count the non-blank, non-comment-only source lines (Table 3's "lines source
/// code ... without comments").
pub(crate) fn count_code_lines(src: &str) -> usize {
    src.lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with(';')
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms() {
        assert_eq!(parse_one("42").unwrap(), Sexp::Int(42));
        assert_eq!(parse_one("-7").unwrap(), Sexp::Int(-7));
        assert_eq!(parse_one("foo").unwrap(), Sexp::Sym("foo".into()));
        assert_eq!(
            parse_one("FOO").unwrap(),
            Sexp::Sym("foo".into()),
            "case folded"
        );
        assert_eq!(parse_one("1.5").unwrap(), Sexp::Float(1.5f32.to_bits()));
        assert_eq!(parse_one("-").unwrap(), Sexp::Sym("-".into()));
        assert_eq!(parse_one("1+").unwrap(), Sexp::Sym("1+".into()));
    }

    #[test]
    fn lists_and_quote() {
        let s = parse_one("(a (b 1) 'c)").unwrap();
        assert_eq!(s.to_string(), "(a (b 1) (quote c))");
        assert!(parse_one("()").unwrap().is_nil());
    }

    #[test]
    fn dotted_pairs() {
        let s = parse_one("(a . b)").unwrap();
        assert_eq!(s.to_string(), "(a . b)");
        let s = parse_one("(a b . c)").unwrap();
        assert_eq!(s.to_string(), "(a b . c)");
        // dotted nil normalises to proper list
        let s = parse_one("(a . nil)").unwrap();
        assert_eq!(s.to_string(), "(a)");
    }

    #[test]
    fn comments_and_whitespace() {
        let all = parse_all("; header\n(a) ; trailing\n(b)\n").unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn errors() {
        assert!(parse_one("(a").is_err());
        assert!(parse_one(")").is_err());
        assert!(parse_one("").is_err());
        assert!(parse_one("( . b)").is_err());
        assert!(parse_one("99999999999999999999").is_err());
    }

    #[test]
    fn line_counting() {
        let src = "; comment only\n\n(defun f () 1)\n  ; another\n(f)\n";
        assert_eq!(count_code_lines(src), 2);
    }

    #[test]
    fn helpers() {
        let s = parse_one("(defun f (x) x)").unwrap();
        assert!(s.is_form("defun"));
        assert!(!s.is_form("setq"));
        assert_eq!(s.as_list().unwrap().len(), 4);
    }
}
