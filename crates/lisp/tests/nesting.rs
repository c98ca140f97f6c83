//! Nesting bounds: the reader and lowering refuse source nested deeper than
//! `MAX_NESTING` with an error that names the limit and the line, and the
//! deepest source they accept compiles. Each check runs on a thread with an
//! explicit 2 MiB stack, the size of the daemon's and the session's
//! workers, so an unbounded recursion overflows here instead of passing on
//! a larger main-thread stack.

use lisp::{compile, parse_all, CompileError, Options, MAX_NESTING};

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no stack overflow")
}

/// `(print (+ 1 (+ 1 … 1)))`, `depth` lists deep, on line 3.
fn sums(depth: usize) -> String {
    let open = "(+ 1 ".repeat(depth - 1);
    format!("\n\n(print {open}1{})", ")".repeat(depth - 1))
}

/// `(print (list 1 1 …))` with `n` elements, on line 3: each element nests
/// inside the conses of those before it.
fn wide_list(n: usize) -> String {
    format!("\n\n(print (list{}))", " 1".repeat(n))
}

/// `(print (cond ((null 1) 1) … (t 0)))` with `n` clauses, on line 3: each
/// clause nests inside the conditionals of those before it.
fn wide_cond(n: usize) -> String {
    format!("\n\n(print (cond{} (t 0)))", " ((null 1) 1)".repeat(n - 1))
}

/// `(print (cadddr (cadddr … nil)))`, `depth` lists deep: four nested
/// accesses per level.
fn cxrs(depth: usize) -> String {
    let open = "(cadddr ".repeat(depth - 1);
    format!("(print {open}nil{})", ")".repeat(depth - 1))
}

fn too_deep(line: usize) -> CompileError {
    CompileError::Nesting {
        line,
        limit: MAX_NESTING,
    }
}

fn compiles(src: String) -> Result<(), CompileError> {
    on_small_stack(move || compile(&src, &Options::default()).map(drop))
}

#[test]
fn the_reader_refuses_nesting_past_the_limit() {
    let read = |src: String| on_small_stack(move || parse_all(&src).map(drop));
    assert_eq!(read(sums(MAX_NESTING)), Ok(()));
    assert_eq!(read(sums(MAX_NESTING + 1)), Err(too_deep(3)));
    assert_eq!(
        read(format!("'{}x", "'".repeat(MAX_NESTING))),
        Err(too_deep(1))
    );
    assert_eq!(read("(".repeat(1 << 20)), Err(too_deep(1)));
    let err = read(sums(MAX_NESTING + 1)).unwrap_err().to_string();
    assert_eq!(
        err,
        format!("nesting deeper than {MAX_NESTING} levels (line 3)")
    );
}

#[test]
fn lowering_refuses_nesting_past_the_limit() {
    // `print` and `list` (or `cond`) take two levels, and element (clause)
    // i sits i deeper.
    let widest = MAX_NESTING - 1;
    assert_eq!(compiles(wide_list(widest)), Ok(()));
    assert_eq!(compiles(wide_list(widest + 1)), Err(too_deep(3)));
    assert_eq!(compiles(wide_list(1 << 19)), Err(too_deep(3)));
    assert_eq!(compiles(wide_cond(widest)), Ok(()));
    assert_eq!(compiles(wide_cond(widest + 1)), Err(too_deep(3)));
}

#[test]
fn the_deepest_accepted_source_compiles() {
    assert_eq!(compiles(sums(MAX_NESTING)), Ok(()));
    assert_eq!(compiles(cxrs(MAX_NESTING)), Ok(()));
    assert_eq!(compiles(sums(MAX_NESTING + 1)), Err(too_deep(3)));
    assert_eq!(compiles("(".repeat(1 << 20)), Err(too_deep(1)));
}
