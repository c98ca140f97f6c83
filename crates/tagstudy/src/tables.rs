//! Computation of every table and figure in the paper's evaluation.
//!
//! Each `*_for` function is a pure projection over a [`Session`]: it asks the
//! session for the measurements it needs and folds them into a table struct.
//! Because many tables share configurations (Table 1, Figure 1 and Table 3 all
//! want the HighTag5 baseline; Table 2 revisits several hardware levels), one
//! session regenerating everything compiles and simulates each
//! `(program, Config)` point exactly once.

use lisp::CheckingMode;
use mipsx::{CheckCat, HwConfig, InsnClass, ParallelCheck, Provenance, TagOpKind};
use tagword::TagScheme;

use crate::config::Config;
use crate::measure::{Measurement, StudyError};
use crate::session::Session;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn pct_delta(base: u64, variant: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (base as f64 - variant as f64) / base as f64
    }
}

/// The default program set: all ten benchmarks.
pub fn default_programs() -> Vec<&'static str> {
    programs::all().iter().map(|b| b.name).collect()
}

// ===========================================================================
// Table 1
// ===========================================================================

/// One row of Table 1: % increase in execution time when full run-time checking
/// is added, by category.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name (or "average").
    pub program: String,
    /// Increase attributed to arithmetic checking.
    pub arith: f64,
    /// Increase attributed to vector checking.
    pub vector: f64,
    /// Increase attributed to list/symbol checking.
    pub list: f64,
    /// Total increase, `(T_checked - T_unchecked) / T_unchecked`.
    pub total: f64,
}

/// Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Per-program rows.
    pub rows: Vec<Table1Row>,
    /// Unweighted average.
    pub average: Table1Row,
}

/// Compute Table 1 over `names`.
///
/// # Errors
///
/// Any measurement failure.
pub fn table1_for(session: &mut Session, names: &[&str]) -> Result<Table1, StudyError> {
    let base = session.measure_set(names, Config::baseline(CheckingMode::None))?;
    let full = session.measure_set(names, Config::baseline(CheckingMode::Full))?;
    let mut rows = Vec::new();
    for (b, f) in base.iter().zip(&full) {
        let t0 = b.stats.cycles;
        rows.push(Table1Row {
            program: b.program.clone(),
            arith: pct(f.stats.checking_cycles(CheckCat::Arith), t0),
            vector: pct(f.stats.checking_cycles(CheckCat::Vector), t0),
            list: pct(f.stats.checking_cycles(CheckCat::List), t0),
            total: pct(f.stats.cycles.saturating_sub(t0), t0),
        });
    }
    let n = rows.len() as f64;
    let average = Table1Row {
        program: "average".into(),
        arith: rows.iter().map(|r| r.arith).sum::<f64>() / n,
        vector: rows.iter().map(|r| r.vector).sum::<f64>() / n,
        list: rows.iter().map(|r| r.list).sum::<f64>() / n,
        total: rows.iter().map(|r| r.total).sum::<f64>() / n,
    };
    Ok(Table1 { rows, average })
}

// ===========================================================================
// Figure 1
// ===========================================================================

/// One tag operation's share of execution time (Figure 1's bar groups).
#[derive(Debug, Clone)]
pub struct Figure1Entry {
    /// The operation.
    pub op: TagOpKind,
    /// % of time in the run *without* checking.
    pub without: f64,
    /// % of checked-run time that was already present without checking (the
    /// black part of the paper's bars).
    pub with_base: f64,
    /// % of checked-run time added by checking (the dark grey part).
    pub with_added: f64,
}

impl Figure1Entry {
    /// Total % of checked-run time.
    pub fn with_total(&self) -> f64 {
        self.with_base + self.with_added
    }
}

/// Figure 1: averaged over the program set.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// Insertion, removal, extraction, checking, generic (in that order).
    pub entries: Vec<Figure1Entry>,
    /// Total tag-handling share without checking.
    pub total_without: f64,
    /// Total tag-handling share with checking.
    pub total_with: f64,
}

/// Compute Figure 1 over `names`.
///
/// # Errors
///
/// Any measurement failure.
pub fn figure1_for(session: &mut Session, names: &[&str]) -> Result<Figure1, StudyError> {
    let base = session.measure_set(names, Config::baseline(CheckingMode::None))?;
    let full = session.measure_set(names, Config::baseline(CheckingMode::Full))?;
    let ops = [
        TagOpKind::Insert,
        TagOpKind::Remove,
        TagOpKind::Extract,
        TagOpKind::Check,
        TagOpKind::Generic,
    ];
    let n = names.len() as f64;
    let mut entries = Vec::new();
    for op in ops {
        let mut without = 0.0;
        let mut with_base = 0.0;
        let mut with_added = 0.0;
        for (b, f) in base.iter().zip(&full) {
            without += pct(b.stats.tag_op_cycles(op), b.stats.cycles);
            with_base += pct(
                f.stats.tag_op_cycles_by(op, Provenance::Base),
                f.stats.cycles,
            );
            with_added += pct(
                f.stats.tag_op_cycles_by(op, Provenance::Checking),
                f.stats.cycles,
            );
        }
        entries.push(Figure1Entry {
            op,
            without: without / n,
            with_base: with_base / n,
            with_added: with_added / n,
        });
    }
    let total_without = entries.iter().map(|e| e.without).sum();
    let total_with = entries.iter().map(|e| e.with_total()).sum();
    Ok(Figure1 {
        entries,
        total_without,
        total_with,
    })
}

// ===========================================================================
// Figure 2
// ===========================================================================

/// Figure 2: change in instruction frequencies when tag masking for addresses
/// is eliminated (no-checking runs; positive = fewer, negative = more).
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// Reduction in `and` (masking) instructions, % of base execution time.
    pub and_: f64,
    /// Reduction in register moves.
    pub mov: f64,
    /// Reduction in executed no-ops (negative: scheduler loses filler).
    pub noop: f64,
    /// Reduction in squashed delay slots (negative: more waste).
    pub squash: f64,
    /// Net cycle reduction.
    pub total: f64,
}

/// Compute Figure 2 over `names`: the baseline versus address-tag-dropping
/// hardware (equivalently, a low-tag software scheme; paper §5.1–5.2).
///
/// # Errors
///
/// Any measurement failure.
pub fn figure2_for(session: &mut Session, names: &[&str]) -> Result<Figure2, StudyError> {
    let base = session.measure_set(names, Config::baseline(CheckingMode::None))?;
    let nomask = session.measure_set(
        names,
        Config::baseline(CheckingMode::None).with_hw(HwConfig::with_address_drop(5)),
    )?;
    let n = names.len() as f64;
    let (mut and_, mut mov, mut noop, mut squash, mut total) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (b, v) in base.iter().zip(&nomask) {
        let t0 = b.stats.cycles;
        let d = |c: InsnClass| {
            100.0 * (b.stats.class_count(c) as f64 - v.stats.class_count(c) as f64) / t0 as f64
        };
        and_ += d(InsnClass::And);
        mov += d(InsnClass::Move);
        noop += d(InsnClass::Nop);
        squash += 100.0 * (b.stats.squashed as f64 - v.stats.squashed as f64) / t0 as f64;
        total += pct_delta(t0, v.stats.cycles);
    }
    Ok(Figure2 {
        and_: and_ / n,
        mov: mov / n,
        noop: noop / n,
        squash: squash / n,
        total: total / n,
    })
}

// ===========================================================================
// Table 2
// ===========================================================================

/// A Table 2 row: % of cycles eliminated by one support level.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Row label (matches the paper's).
    pub label: String,
    /// % eliminated with no run-time checking.
    pub none_pct: f64,
    /// % eliminated with full run-time checking.
    pub full_pct: f64,
    /// For rows 5/6: the checking-cycle and masking-cycle components
    /// `(check_none, check_full, mask_none, mask_full)`.
    pub split: Option<(f64, f64, f64, f64)>,
}

/// Table 2, plus the §7 SPUR comparison.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The seven support-level rows.
    pub rows: Vec<Table2Row>,
    /// SPUR-like configuration (row 7 with list-only checked access).
    pub spur: Table2Row,
    /// SPUR's gain measured against a machine already using row-1 software
    /// tagging (paper: drops to 4–16%).
    pub spur_over_software: Table2Row,
}

fn row_hw() -> Vec<(&'static str, HwConfig)> {
    vec![
        (
            "1 avoid tag masking (software)",
            HwConfig::with_address_drop(5),
        ),
        ("2 avoid tag extraction", HwConfig::with_tag_branch()),
        (
            "3 avoid masking and extraction",
            HwConfig {
                tag_branch: true,
                ..HwConfig::with_address_drop(5)
            },
        ),
        (
            "4 support generic arithmetic",
            HwConfig::with_generic_arith(),
        ),
        (
            "5 avoid tag checking on list ops",
            HwConfig::with_parallel_check(ParallelCheck::Lists),
        ),
        (
            "6 avoid all error tag checking",
            HwConfig::with_parallel_check(ParallelCheck::All),
        ),
        ("7 maximal MIPS-X support", HwConfig::maximal(5)),
    ]
}

struct ModeResults {
    base: Vec<Measurement>,
    variants: Vec<Vec<Measurement>>, // per row
    spur: Vec<Measurement>,
}

fn run_mode(
    session: &mut Session,
    names: &[&str],
    checking: CheckingMode,
) -> Result<ModeResults, StudyError> {
    let base = session.measure_set(names, Config::baseline(checking))?;
    let mut variants = Vec::new();
    for (_, hw) in row_hw() {
        variants.push(session.measure_set(names, Config::baseline(checking).with_hw(hw))?);
    }
    let spur = session.measure_set(names, Config::baseline(checking).with_hw(HwConfig::spur(5)))?;
    Ok(ModeResults {
        base,
        variants,
        spur,
    })
}

fn avg_speedup(base: &[Measurement], variant: &[Measurement]) -> f64 {
    let n = base.len() as f64;
    base.iter()
        .zip(variant)
        .map(|(b, v)| pct_delta(b.stats.cycles, v.stats.cycles))
        .sum::<f64>()
        / n
}

/// Average reduction in cycles of a particular accounting bucket, as % of base
/// total cycles.
fn avg_bucket_reduction(
    base: &[Measurement],
    variant: &[Measurement],
    bucket: impl Fn(&Measurement) -> u64,
) -> f64 {
    let n = base.len() as f64;
    base.iter()
        .zip(variant)
        .map(|(b, v)| 100.0 * (bucket(b) as f64 - bucket(v) as f64) / b.stats.cycles as f64)
        .sum::<f64>()
        / n
}

/// Compute Table 2 over `names`.
///
/// # Errors
///
/// Any measurement failure.
pub fn table2_for(session: &mut Session, names: &[&str]) -> Result<Table2, StudyError> {
    let none = run_mode(session, names, CheckingMode::None)?;
    let full = run_mode(session, names, CheckingMode::Full)?;
    let mut rows = Vec::new();
    for (i, (label, _)) in row_hw().into_iter().enumerate() {
        let none_pct = avg_speedup(&none.base, &none.variants[i]);
        let full_pct = avg_speedup(&full.base, &full.variants[i]);
        // Rows 5 and 6 get the check/mask split the paper prints.
        let split = if i == 4 || i == 5 {
            let checkb = |m: &Measurement| {
                m.stats.checking_cycles(CheckCat::List)
                    + m.stats.checking_cycles(CheckCat::Vector)
                    + m.stats.checking_cycles(CheckCat::Arith)
            };
            let maskb = |m: &Measurement| m.stats.tag_op_cycles(TagOpKind::Remove);
            Some((
                avg_bucket_reduction(&none.base, &none.variants[i], checkb),
                avg_bucket_reduction(&full.base, &full.variants[i], checkb),
                avg_bucket_reduction(&none.base, &none.variants[i], maskb),
                avg_bucket_reduction(&full.base, &full.variants[i], maskb),
            ))
        } else {
            None
        };
        rows.push(Table2Row {
            label: label.to_string(),
            none_pct,
            full_pct,
            split,
        });
    }
    let spur = Table2Row {
        label: "SPUR-like (row 7, lists only)".into(),
        none_pct: avg_speedup(&none.base, &none.spur),
        full_pct: avg_speedup(&full.base, &full.spur),
        split: None,
    };
    // SPUR against a row-1 software baseline.
    let spur_over_software = Table2Row {
        label: "SPUR-like vs row-1 software".into(),
        none_pct: avg_speedup(&none.variants[0], &none.spur),
        full_pct: avg_speedup(&full.variants[0], &full.spur),
        split: None,
    };
    Ok(Table2 {
        rows,
        spur,
        spur_over_software,
    })
}

// ===========================================================================
// Table 3
// ===========================================================================

/// A Table 3 row: static program statistics.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub program: String,
    /// Procedures compiled (user program plus linked system modules).
    pub procedures: usize,
    /// Source lines without comments.
    pub source_lines: usize,
    /// Words of object code.
    pub object_words: usize,
}

/// Compute Table 3 over `names`: static statistics, projected from the
/// unchecked-baseline measurements (which Table 1 and Figure 1 share, so in a
/// combined run this row costs nothing extra).
///
/// # Errors
///
/// Any measurement failure.
pub fn table3_for(session: &mut Session, names: &[&str]) -> Result<Vec<Table3Row>, StudyError> {
    let base = session.measure_set(names, Config::baseline(CheckingMode::None))?;
    Ok(base
        .iter()
        .map(|m| Table3Row {
            program: m.program.clone(),
            procedures: m.compile.procedures,
            source_lines: m.compile.source_lines,
            object_words: m.compile.object_words,
        })
        .collect())
}

// ===========================================================================
// §3.1 / §4.2 / §6.2.2 studies
// ===========================================================================

/// §3.1: the preshifted-pair-tag ablation.
#[derive(Debug, Clone)]
pub struct PreshiftStudy {
    /// Average % of time on tag insertion, straightforward encoding.
    pub insertion_pct: f64,
    /// Average speedup from keeping a preshifted pair tag in a register.
    pub speedup_pct: f64,
}

/// Compute the §3.1 ablation over `names` (no-checking runs, as in the paper).
///
/// # Errors
///
/// Any measurement failure.
pub fn preshift_study_for(
    session: &mut Session,
    names: &[&str],
) -> Result<PreshiftStudy, StudyError> {
    let base = session.measure_set(names, Config::baseline(CheckingMode::None))?;
    let pre = session.measure_set(
        names,
        Config {
            preshifted_pair_tag: true,
            ..Config::baseline(CheckingMode::None)
        },
    )?;
    let n = names.len() as f64;
    let insertion_pct = base
        .iter()
        .map(|m| pct(m.stats.tag_op_cycles(TagOpKind::Insert), m.stats.cycles))
        .sum::<f64>()
        / n;
    Ok(PreshiftStudy {
        insertion_pct,
        speedup_pct: avg_speedup(&base, &pre),
    })
}

/// A float-heavy microworkload: with integer-biased checking, *every* addition
/// and multiplication dispatches — the paper's §6.2.2 "wrong bias" case.
const FSWEEP: &str = r#"
(defvar half 0.5)
(defvar one 1.0)
(defvar quarter 0.25)
(defun fsweep (n)
  (let ((x one) (s one) (i 0))
    (while (lessp i n)
      (setq x (plus (times x half) one))
      (setq s (plus s (times x quarter)))
      (setq i (add1 i)))
    s))
(fsweep 4000)
(print 1)
"#;

/// §4.2 and §6.2.2: generic arithmetic under the plain encoding, the
/// arithmetic-safe encoding, and trap hardware; plus the wrong-bias sweep.
#[derive(Debug, Clone)]
pub struct GenericArithStudy {
    /// Average % of (checked) time spent on generic arithmetic, HighTag5.
    pub sw_avg: f64,
    /// Same, for the arithmetic-intensive `rat`.
    pub sw_rat: f64,
    /// Average with the §4.2 arithmetic-safe 6-bit encoding.
    pub safe_avg: f64,
    /// `rat` with the arithmetic-safe encoding.
    pub safe_rat: f64,
    /// Average with §6.2.2 trap hardware.
    pub hw_avg: f64,
    /// Wrong-bias float sweep: % of time in dispatch, software integer-biased.
    pub wrong_bias_sw: f64,
    /// Wrong-bias float sweep: % of time in dispatch with trap hardware (the
    /// paper predicts this is *worse* than software, as on SPUR).
    pub wrong_bias_hw: f64,
    /// Wrong-bias float sweep: total-cycle ratio, trap hardware over software
    /// (> 1 means the trap path loses, the paper's SPUR observation).
    pub wrong_bias_hw_over_sw: f64,
}

fn arith_share(m: &Measurement) -> f64 {
    pct(m.stats.checking_cycles(CheckCat::Arith), m.stats.cycles)
}

/// Run the generic-arithmetic study over `names`.
///
/// # Errors
///
/// Any measurement failure.
pub fn generic_arith_study_for(
    session: &mut Session,
    names: &[&str],
) -> Result<GenericArithStudy, StudyError> {
    let avg = |ms: &[Measurement]| ms.iter().map(arith_share).sum::<f64>() / ms.len() as f64;
    let rat_of = |ms: &[Measurement]| {
        ms.iter()
            .find(|m| m.program == "rat")
            .map(arith_share)
            .unwrap_or(0.0)
    };

    let sw = session.measure_set(names, Config::baseline(CheckingMode::Full))?;
    let safe = session.measure_set(names, Config::new(TagScheme::HighTag6, CheckingMode::Full))?;
    let hw = session.measure_set(
        names,
        Config::baseline(CheckingMode::Full).with_hw(HwConfig::with_generic_arith()),
    )?;

    // The wrong-bias sweep is not one of the ten benchmarks, so it is not a
    // cacheable (program, Config) point; compile it inline.
    let sweep = |hw: HwConfig| -> Result<(f64, u64), StudyError> {
        let opts = lisp::Options {
            hw,
            checking: CheckingMode::Full,
            ..lisp::Options::default()
        };
        let c = lisp::compile(FSWEEP, &opts).map_err(|e| StudyError::Compile {
            program: "fsweep".into(),
            message: e.to_string(),
        })?;
        let o = lisp::run(&c, 500_000_000).map_err(|e| StudyError::Sim {
            program: "fsweep".into(),
            message: e.to_string(),
        })?;
        Ok((
            pct(o.stats.checking_cycles(CheckCat::Arith), o.stats.cycles),
            o.stats.cycles,
        ))
    };
    let (wb_sw, sw_cycles) = sweep(HwConfig::plain())?;
    let (wb_hw, hw_cycles) = sweep(HwConfig::with_generic_arith())?;

    Ok(GenericArithStudy {
        sw_avg: avg(&sw),
        sw_rat: rat_of(&sw),
        safe_avg: avg(&safe),
        safe_rat: rat_of(&safe),
        hw_avg: avg(&hw),
        wrong_bias_sw: wb_sw,
        wrong_bias_hw: wb_hw,
        wrong_bias_hw_over_sw: hw_cycles as f64 / sw_cycles as f64,
    })
}

/// §4.1: integer-test method comparison — sign-extend (always 3 cycles) vs
/// tag-compare (2 for positive operands, 3 for negative).
#[derive(Debug, Clone)]
pub struct IntTestStudy {
    /// Average % cycles saved by method 1 over method 2, full checking.
    pub tag_compare_saves: f64,
}

/// Run the §4.1 comparison over `names` (checked runs, where integer tests are
/// frequent). The winner depends on the sign mix of the workload's numbers —
/// exactly the paper's remark.
///
/// # Errors
///
/// Any measurement failure.
pub fn int_test_study_for(
    session: &mut Session,
    names: &[&str],
) -> Result<IntTestStudy, StudyError> {
    let base = session.measure_set(names, Config::baseline(CheckingMode::Full))?;
    let m1 = session.measure_set(
        names,
        Config {
            int_test_method: lisp::IntTestMethod::TagCompare,
            ..Config::baseline(CheckingMode::Full)
        },
    )?;
    Ok(IntTestStudy {
        tag_compare_saves: avg_speedup(&base, &m1),
    })
}

// ===========================================================================
// Scheme comparison (extension: all four schemes head-to-head)
// ===========================================================================

/// Relative cycles of every tag scheme against the HighTag5 baseline.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    /// `(scheme, avg % cycles saved vs HighTag5 — None mode, Full mode)`.
    pub rows: Vec<(TagScheme, f64, f64)>,
}

/// Compare all four schemes on stock hardware.
///
/// # Errors
///
/// Any measurement failure.
pub fn scheme_comparison_for(
    session: &mut Session,
    names: &[&str],
) -> Result<SchemeComparison, StudyError> {
    let base_n = session.measure_set(names, Config::baseline(CheckingMode::None))?;
    let base_f = session.measure_set(names, Config::baseline(CheckingMode::Full))?;
    let mut rows = Vec::new();
    for scheme in tagword::ALL_SCHEMES {
        let n = session.measure_set(names, Config::new(scheme, CheckingMode::None))?;
        let f = session.measure_set(names, Config::new(scheme, CheckingMode::Full))?;
        rows.push((scheme, avg_speedup(&base_n, &n), avg_speedup(&base_f, &f)));
    }
    Ok(SchemeComparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast subset for unit tests; full-set runs live in the bench
    /// binaries and integration tests.
    const SMALL: &[&str] = &["frl", "trav"];

    #[test]
    fn table1_small_subset() {
        let mut s = Session::new();
        let t = table1_for(&mut s, SMALL).unwrap();
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            assert!(r.total > 0.0, "{}: checking must cost time", r.program);
            assert!(
                r.arith + r.vector + r.list <= r.total + 3.0,
                "{}: categories roughly bounded by total",
                r.program
            );
        }
        // trav is the vector-heavy program.
        let trav = t.rows.iter().find(|r| r.program == "trav").unwrap();
        let frl = t.rows.iter().find(|r| r.program == "frl").unwrap();
        assert!(trav.vector > frl.vector, "trav leads the vector column");
        assert_eq!(s.stats().misses, 4, "2 programs x 2 configs");
    }

    #[test]
    fn figure1_small_subset() {
        let f = figure1_for(&mut Session::new(), SMALL).unwrap();
        assert_eq!(f.entries.len(), 5);
        let check = f.entries.iter().find(|e| e.op == TagOpKind::Check).unwrap();
        assert!(check.with_added > 0.0, "checking adds check cycles");
        assert!(
            f.total_with > f.total_without,
            "checking raises the tag share"
        );
        assert!(f.total_without > 5.0, "tag handling is a significant share");
    }

    #[test]
    fn figure2_small_subset() {
        let f = figure2_for(&mut Session::new(), SMALL).unwrap();
        assert!(f.and_ > 0.0, "masking ands disappear");
        assert!(f.total > 0.0, "eliminating masking is a net win");
        assert!(
            f.total <= f.and_ + f.mov.max(0.0) + 1.0,
            "waste claws part back"
        );
    }

    #[test]
    fn preshift_small_subset() {
        let p = preshift_study_for(&mut Session::new(), &["frl"]).unwrap();
        assert!(p.insertion_pct > 0.0);
        assert!(p.speedup_pct >= 0.0);
        assert!(
            p.speedup_pct < p.insertion_pct,
            "saves at most the insert share"
        );
    }

    #[test]
    fn table3_matches_compile_stats() {
        let t = table3_for(&mut Session::new(), &default_programs()).unwrap();
        assert_eq!(t.len(), 10);
        for r in &t {
            assert!(r.procedures >= 20, "{}", r.program);
            assert!(r.object_words > 500, "{}", r.program);
        }
        // deduce and dedgc share sources, so identical static stats.
        let d = t.iter().find(|r| r.program == "deduce").unwrap();
        let g = t.iter().find(|r| r.program == "dedgc").unwrap();
        assert_eq!(d.object_words, g.object_words);
    }

    #[test]
    fn tables_share_a_session_cache() {
        let mut s = Session::new();
        table1_for(&mut s, SMALL).unwrap();
        let misses_after_t1 = s.stats().misses;
        // Figure 1 wants exactly Table 1's two configurations.
        figure1_for(&mut s, SMALL).unwrap();
        assert_eq!(s.stats().misses, misses_after_t1, "figure1 fully cached");
        assert!(s.stats().hits >= 4);
        // Table 3 projects static stats out of the same baseline runs.
        table3_for(&mut s, SMALL).unwrap();
        assert_eq!(s.stats().misses, misses_after_t1, "table3 fully cached");
    }

    /// Every configuration a paper table measures has its own name, and the
    /// name parses back to it: Table 2's seven rows and SPUR under both
    /// checking modes, and the §3.1 and §4.1 ablations.
    #[test]
    fn paper_configurations_have_lossless_names() {
        let mut configs = Vec::new();
        for checking in [CheckingMode::None, CheckingMode::Full] {
            configs.push(Config::baseline(checking));
            for (_, hw) in row_hw() {
                configs.push(Config::baseline(checking).with_hw(hw));
            }
            configs.push(Config::baseline(checking).with_hw(HwConfig::spur(5)));
        }
        configs.push(Config {
            preshifted_pair_tag: true,
            ..Config::baseline(CheckingMode::None)
        });
        configs.push(Config {
            int_test_method: lisp::IntTestMethod::TagCompare,
            ..Config::baseline(CheckingMode::Full)
        });
        let names: Vec<String> = configs.iter().map(Config::name).collect();
        for (c, name) in configs.iter().zip(&names) {
            assert_eq!(Config::parse(name).as_ref(), Ok(c), "{name}");
        }
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "{names:?}");
        assert_eq!(
            names[1..9].join(" "),
            "high5:none:drop5 high5:none:tagbr high5:none:drop5+tagbr high5:none:genarith \
             high5:none:chklists high5:none:chkall high5:none:maximal high5:none:spur"
        );
        assert_eq!(names[18], "high5:none:plain:pairtag=preshift");
        assert_eq!(names[19], "high5:full:plain:inttest=tagcmp");
    }
}
