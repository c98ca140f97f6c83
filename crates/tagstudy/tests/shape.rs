//! Shape assertions on a small program subset: the orderings the paper's
//! conclusions rest on must hold for any representative workload mix.

use mipsx::{HwConfig, ParallelCheck};
use tagstudy::tables;
use tagstudy::{CheckingMode, Config, Session};

const SET: &[&str] = &["deduce", "trav", "boyer"];

fn total_cycles(session: &mut Session, config: Config) -> u64 {
    session
        .measure_set(SET, config)
        .unwrap()
        .iter()
        .map(|m| m.stats.cycles)
        .sum()
}

#[test]
fn support_levels_never_hurt_and_max_wins() {
    let mut session = Session::new();
    let base = total_cycles(&mut session, Config::baseline(CheckingMode::Full));
    let mut cycles = Vec::new();
    for hw in [
        HwConfig::with_address_drop(5),
        HwConfig::with_tag_branch(),
        HwConfig::with_generic_arith(),
        HwConfig::with_parallel_check(ParallelCheck::Lists),
        HwConfig::with_parallel_check(ParallelCheck::All),
        HwConfig::maximal(5),
    ] {
        let c = total_cycles(
            &mut session,
            Config::baseline(CheckingMode::Full).with_hw(hw),
        );
        assert!(c <= base, "{hw:?} must not slow programs down");
        cycles.push(c);
    }
    let maximal = *cycles.last().unwrap();
    assert!(
        cycles.iter().all(|&c| maximal <= c),
        "row 7 dominates every other row"
    );
    // parallel All beats parallel Lists, which beats tag-branch alone
    assert!(cycles[4] <= cycles[3]);
    assert!(cycles[3] < cycles[1]);
}

#[test]
fn figure2_shape_on_subset() {
    let f = tables::figure2_for(&mut Session::new(), SET).expect("measures");
    assert!(f.and_ > 0.5, "masking ands removed");
    assert!(
        f.total > 0.0 && f.total <= f.and_ + 0.5,
        "net win bounded by and reduction"
    );
}

#[test]
fn checking_is_never_free() {
    let session = Session::new();
    for name in SET {
        let none = session
            .measure(name, Config::baseline(CheckingMode::None))
            .unwrap();
        let full = session
            .measure(name, Config::baseline(CheckingMode::Full))
            .unwrap();
        let pct = 100.0 * (full.stats.cycles - none.stats.cycles) as f64 / none.stats.cycles as f64;
        assert!(
            (5.0..150.0).contains(&pct),
            "{name}: slowdown {pct:.1}% out of plausible range"
        );
    }
}

#[test]
fn low_tags_beat_high_tags_without_hardware() {
    // The paper's software conclusion on this subset.
    let mut session = Session::new();
    for checking in [CheckingMode::None, CheckingMode::Full] {
        let high = total_cycles(
            &mut session,
            Config::new(tagword::TagScheme::HighTag5, checking),
        );
        let low = total_cycles(
            &mut session,
            Config::new(tagword::TagScheme::LowTag3, checking),
        );
        assert!(
            low < high,
            "{checking:?}: low tags must win ({low} vs {high})"
        );
    }
}
