//! Compilation errors.

use std::fmt;

/// Errors produced while reading or compiling a Lisp program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Reader (parse) error.
    Read {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Source nested deeper than [`crate::MAX_NESTING`] levels.
    Nesting {
        /// 1-based source line: where the reader passed the limit, or where
        /// the top-level form starts whose lowering did.
        line: usize,
        /// The limit passed.
        limit: usize,
    },
    /// A malformed special form or top-level item.
    Form {
        /// What went wrong, with the offending form rendered.
        message: String,
    },
    /// Reference to an unknown variable.
    UnknownVariable {
        /// The variable name.
        name: String,
    },
    /// Call to an unknown function.
    UnknownFunction {
        /// The function name.
        name: String,
    },
    /// A function was called with the wrong number of arguments.
    Arity {
        /// The function name.
        name: String,
        /// Number the definition expects.
        expected: usize,
        /// Number supplied at the call site.
        got: usize,
    },
    /// Too many parameters (the calling convention passes six in registers).
    TooManyParams {
        /// The function name.
        name: String,
    },
    /// A literal doesn't fit the chosen tag scheme (e.g. a fixnum out of range).
    Literal {
        /// What went wrong.
        message: String,
    },
    /// The assembler rejected the generated code (an internal bug).
    Asm(String),
    /// The generated code failed static verification (an internal bug).
    Verify(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Read { line, message } => {
                write!(f, "read error (line {line}): {message}")
            }
            CompileError::Nesting { line, limit } => {
                write!(f, "nesting deeper than {limit} levels (line {line})")
            }
            CompileError::Form { message } => write!(f, "bad form: {message}"),
            CompileError::UnknownVariable { name } => write!(f, "unknown variable: {name}"),
            CompileError::UnknownFunction { name } => write!(f, "unknown function: {name}"),
            CompileError::Arity {
                name,
                expected,
                got,
            } => {
                write!(f, "{name} expects {expected} argument(s), got {got}")
            }
            CompileError::TooManyParams { name } => {
                write!(f, "{name}: more than 6 parameters not supported")
            }
            CompileError::Literal { message } => write!(f, "bad literal: {message}"),
            CompileError::Asm(m) => write!(f, "assembly failed: {m}"),
            CompileError::Verify(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_subject() {
        let e = CompileError::Arity {
            name: "cons".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("cons"));
        let e = CompileError::UnknownVariable {
            name: "zork".into(),
        };
        assert!(e.to_string().contains("zork"));
    }
}
