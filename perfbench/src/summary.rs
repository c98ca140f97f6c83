//! Summary statistics and the result line: medians, quartiles, the tail
//! percentile rule, failure counting, and the JSON object the benchmark
//! prints last.

use std::fmt::Write as _;

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match ones computed with Python.
///
/// # Panics
///
/// With fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// One line describing a latency sample set: its size, quartiles, and the
/// tail by the ten-beyond rule (see [`tail_percentile`]).
pub fn describe(label: &str, ms: &[f64]) -> String {
    let n = ms.len();
    let quartiles = if n >= 2 {
        let [q1, q2, q3] = quartiles(ms);
        format!("q1 {q1:.3} / median {q2:.3} / q3 {q3:.3} ms")
    } else {
        "too few samples for quartiles".to_string()
    };
    let tail = match tail_percentile(n) {
        Some(p) => format!("p{p} {:.3} ms", percentile(ms, p)),
        None => "no percentile has ten samples beyond it".to_string(),
    };
    format!("{label}: n={n}, {quartiles}, tail {tail}")
}

/// Set-up time from bursts of set-ups taken at different points of a run:
/// the mean of the bursts' medians. The machine's speed drifts between
/// states that last seconds; averaging bursts spread over the run keeps one
/// state from deciding the whole figure, while each burst's median still
/// drops its outliers.
///
/// # Panics
///
/// If there is no burst, or a burst is empty.
pub fn setup_seconds(bursts: &[Vec<f64>]) -> f64 {
    assert!(!bursts.is_empty(), "no set-up burst");
    bursts.iter().map(|b| median(b)).sum::<f64>() / bursts.len() as f64
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10000 = 9990.000…02) from
    // bumping an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile in {99.9, 99, 90, 50} that has at least ten
/// samples beyond it among `n` samples; `None` below twenty samples, where
/// not even the median has ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// The tail of `values` by the ten-beyond rule: the value at
/// [`tail_percentile`], or the maximum below twenty samples (where no
/// percentile qualifies), or 0 for no samples.
pub fn tail(values: &[f64]) -> f64 {
    match tail_percentile(values.len()) {
        Some(p) => percentile(values, p),
        None => values.iter().copied().fold(0.0, f64::max),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations attempted and failed in one run. Every correctness check
/// records exactly one outcome here, so a failure can never go uncounted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Record one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations as a share of those attempted (0 when nothing was
    /// attempted, which the result line reports as a failure anyway).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// A run is correct when it checked something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print with every digit Rust's shortest round-trip form gives; a
/// non-finite value (which no metric should ever produce) prints as -1 so
/// the line stays valid JSON and the anomaly stays visible.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn describe_names_the_tail_it_can_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let line = describe("warm", &v);
        assert!(
            line.starts_with("warm: n=100, q1 25.250 / median 50.500 / q3 75.750 ms"),
            "{line}"
        );
        assert!(line.ends_with("tail p90 90.000 ms"), "{line}");
        assert!(describe("cold", &[1.0]).contains("no percentile has ten samples beyond it"));
    }

    #[test]
    fn setup_averages_burst_medians() {
        let bursts = vec![vec![1.0, 9.0, 2.0], vec![4.0]];
        assert_eq!(setup_seconds(&bursts), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule holds at every size: the chosen rank leaves ≥ 10 beyond.
        for n in 20..3000 {
            let p = tail_percentile(n).expect("defined from 20 samples");
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_follows_the_rule_and_falls_back_to_the_maximum() {
        let v: Vec<f64> = (1..=115).map(f64::from).collect();
        // 115 samples: p90 is rank 104, leaving 11 beyond it; p99 would leave 1.
        assert_eq!(tail(&v), 104.0);
        assert_eq!(tail(&[3.0, 9.0, 4.0]), 9.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut t = Tally::default();
        assert!(!t.correct(), "a run that checked nothing is not correct");
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_share(), 0.25);
        assert!(!t.correct());
        let mut total = Tally::default();
        total.merge(t);
        total.merge(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(total.failed_share(), 0.125);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut t = Tally::default();
        t.record(true);
        let line = result_line(
            t,
            &[
                metric("setup_s", 0.8127, "s"),
                metric("x_ms", f64::NAN, "ms"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"x_ms\": {\"value\": -1.0, \"unit\": \"ms\"}}}"
        );
    }
}
