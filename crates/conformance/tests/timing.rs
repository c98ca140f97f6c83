//! Timing-model determinism: the stall breakdown is a pure function of the
//! retirement stream and the `TimingConfig`, so it must be identical across
//! executor backends (`FastCpu` and `RefCpu`) and across repeated runs — the
//! microarchitectural counterpart of the lockstep sweep in `matrix.rs`.
//!
//! 64 fixed-seed synth oracle programs, each under a rotating cell of the
//! 24-point scheme × checking × hardware matrix and both non-ideal presets.
//! Debug builds (plain `cargo test`) run a deterministic subset; `--release`
//! runs everything. The sweep also re-proves, per seed, that attaching the
//! model never perturbs the architectural outcome.

use mipsx::{Backend, Outcome, TimingConfig, TimingModel, ALL_STALL_CAUSES};
use synth::{generate, render, OpMix};
use tagstudy::Config;

/// The number of fixed synth seeds the release suite sweeps.
const SYNTH_SEEDS: u64 = 64;

/// Run `compiled` with a fresh timing model attached; returns the
/// architectural outcome and the stall breakdown.
fn timed_run(
    label: &str,
    compiled: &lisp::CompiledProgram,
    backend: Backend,
    timing: TimingConfig,
) -> (Outcome, mipsx::TimingStats) {
    let mut model = TimingModel::new(timing);
    let outcome = lisp::run_observed_with(compiled, backend, synth::oracle::SIM_FUEL, &mut model)
        .unwrap_or_else(|e| panic!("{label}: {backend} failed: {e}"));
    (outcome, model.finish())
}

/// Sweep half of the synth seeds (seeds ≡ `lane` mod 2): every seed gets a
/// rotating generator mix and matrix cell, and both presets must produce one
/// breakdown — the same one — on every backend and every repeat.
fn timing_slice(lane: u64) {
    let mixes = [
        OpMix::balanced(),
        OpMix::list_heavy(),
        OpMix::vector_heavy(),
        OpMix::arith_heavy(),
    ];
    let configs = Config::matrix();
    // Debug builds take every eighth seed of the lane; release takes them all.
    let step: u64 = if cfg!(debug_assertions) { 16 } else { 2 };
    let mut seed = lane;
    while seed < SYNTH_SEEDS {
        let mix = &mixes[(seed as usize / 2) % mixes.len()];
        let config = &configs[seed as usize % configs.len()];
        let source = render(&generate(seed, mix));
        let compiled = lisp::compile(&source, &config.to_options())
            .unwrap_or_else(|e| panic!("synth seed {seed} under {config}: compile failed: {e}"));
        let baseline = lisp::run_with(&compiled, Backend::Fast, synth::oracle::SIM_FUEL)
            .unwrap_or_else(|e| panic!("synth seed {seed} under {config}: run failed: {e}"));
        for timing in [TimingConfig::classic5(), TimingConfig::modern()] {
            let label = format!("synth seed {seed} under {config}, timing={timing}");
            let (fast, fast_stats) = timed_run(&label, &compiled, Backend::Fast, timing);
            let (reference, ref_stats) = timed_run(&label, &compiled, Backend::Ref, timing);

            // Determinism across backends: breakdown and architectural
            // outcome both match field for field.
            assert_eq!(fast_stats, ref_stats, "{label}: stall breakdown");
            assert_eq!(fast.halt_code, reference.halt_code, "{label}: halt code");
            assert_eq!(fast.output, reference.output, "{label}: output");
            assert_eq!(fast.stats, reference.stats, "{label}: statistics");

            // Determinism across runs: a second fresh model on the same
            // backend reproduces the breakdown exactly.
            let (_, again) = timed_run(&label, &compiled, Backend::Fast, timing);
            assert_eq!(fast_stats, again, "{label}: repeat run");

            // Observation is free: the architectural outcome matches the
            // unobserved baseline byte for byte.
            assert_eq!(fast.stats, baseline.stats, "{label}: observer effect");
            assert_eq!(fast.output, baseline.output, "{label}: observer effect");

            // And the books balance: timed = architectural + the four causes.
            let total: u64 = ALL_STALL_CAUSES.iter().map(|&c| fast_stats.stall(c)).sum();
            assert_eq!(
                fast_stats.timed_cycles(fast.stats.cycles),
                fast.stats.cycles + total,
                "{label}: stall breakdown reconciles"
            );
        }
        seed += step;
    }
}

#[test]
fn timing_lane0_deterministic_across_backends_and_runs() {
    timing_slice(0);
}

#[test]
fn timing_lane1_deterministic_across_backends_and_runs() {
    timing_slice(1);
}
