//! `Config::name` is lossless: `Config::parse(&c.name()) == Ok(c)` over the
//! whole space the study can spell — every scheme and checking mode, any
//! combination of hardware features, both int-test methods, the preshifted
//! pair tag on or off, and every timing preset.

use lisp::IntTestMethod;
use mipsx::{HwConfig, ParallelCheck, TimingConfig, TIMING_PRESETS};
use proptest::prelude::*;
use tagstudy::{CheckingMode, Config};
use tagword::ALL_SCHEMES;

fn hardware() -> impl Strategy<Value = HwConfig> {
    // Drop widths 1..=31 or off, weighted towards the edges and the
    // schemes' tag widths.
    let drop = prop_oneof![
        Just(0u32),
        prop::sample::select(vec![1u32, 2, 3, 5, 6, 30, 31]),
        1u32..32,
    ];
    let check = prop::sample::select(vec![
        ParallelCheck::None,
        ParallelCheck::Lists,
        ParallelCheck::All,
    ]);
    (drop, any::<bool>(), check, any::<bool>()).prop_map(|(drop, tag_branch, check, generic)| {
        HwConfig {
            drop_high_address_bits: drop,
            tag_branch,
            parallel_check: check,
            generic_arith: generic,
            ..HwConfig::plain()
        }
    })
}

fn config() -> impl Strategy<Value = Config> {
    let base = (
        prop::sample::select(ALL_SCHEMES.to_vec()),
        prop::sample::select(vec![CheckingMode::None, CheckingMode::Full]),
        hardware(),
    );
    let ablations = (
        prop::sample::select(vec![IntTestMethod::SignExtend, IntTestMethod::TagCompare]),
        any::<bool>(),
        prop::sample::select(TIMING_PRESETS.to_vec()),
    );
    (base, ablations).prop_map(
        |((scheme, checking, hw), (int_test, preshift, timing))| Config {
            int_test_method: int_test,
            preshifted_pair_tag: preshift,
            ..Config::new(scheme, checking)
                .with_hw(hw)
                .with_timing(TimingConfig::preset(timing).expect("a preset name"))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn names_round_trip(c in config()) {
        let name = c.name();
        prop_assert_eq!(Config::parse(&name), Ok(c), "{}", name);
        prop_assert_eq!(c.to_string(), name);
    }

    #[test]
    fn distinct_configs_have_distinct_names(a in config(), b in config()) {
        prop_assert_eq!(a == b, a.name() == b.name(), "{} vs {}", a, b);
    }
}
