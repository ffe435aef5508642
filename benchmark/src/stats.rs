//! Order statistics over latency samples.
//!
//! `p50` is taken over all of a run's pooled samples. The tail is `p95`,
//! computed per window of [`TAIL_WINDOW`] consecutive samples — ten lie
//! beyond it — and reported as the **median over windows**: a 15 s run
//! has twenty or more windows on the slowest workload, and their median
//! is far steadier than one pooled tail that a single seal, compaction
//! or scheduler hiccup can own. (A p99 needs 1000-sample windows; the
//! slowest workload fills four of those in a run, and across ten runs
//! their median spread by 25–30 % of itself, against 8 % for this.)

/// Samples per tail window: the fewest that leave ten beyond the p95.
pub const TAIL_WINDOW: usize = 200;

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Median that averages the two middle values of an even-sized sample
/// (the convention of Python's `statistics.median`, which `aa.sh` and
/// the driver use on run-level values).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of a run's repeats: what `build_s` reports. The host
/// only ever adds time to a build (a neighbour on the core, a cold
/// cache), so the minimum over repeats is the steadiest estimate of what
/// the build costs: over ten runs of `mplccs_angular_100k` the fastest
/// of five spread by 0.11-0.14 of its median where the median of three
/// had spread by 0.19-0.27.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no values");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median over all pooled samples.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.50)
}

/// p95 of every full [`TAIL_WINDOW`] of consecutive samples, in order.
/// Fewer samples than one window (`--quick`) make one window of all.
pub fn window_p95s(samples: &[f64]) -> Vec<f64> {
    if samples.len() < TAIL_WINDOW {
        return vec![percentile(samples, 0.95)];
    }
    samples
        .chunks_exact(TAIL_WINDOW)
        .map(|w| percentile(w, 0.95))
        .collect()
}

/// The tail metric: the median of [`window_p95s`].
pub fn p95(samples: &[f64]) -> f64 {
    median(&window_p95s(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn p50_pools_and_p95_is_the_median_over_windows() {
        // Three windows: 1..=200, 201..=400, and one whose tail is a
        // 10 000 µs stall twenty samples long.
        let mut samples: Vec<f64> = (1..=600).map(f64::from).collect();
        for s in &mut samples[580..] {
            *s = 10_000.0;
        }
        assert_eq!(p50(&samples), 300.0, "pooled over all 600 samples");
        // Window p95s are 190, 390, 10000: the median ignores the stall
        // the pooled p95 (= 570) would not, and is not the pooled value.
        assert_eq!(window_p95s(&samples), vec![190.0, 390.0, 10_000.0]);
        assert_eq!(p95(&samples), 390.0);
    }

    #[test]
    fn a_short_tail_is_dropped_and_a_short_run_is_one_window() {
        let samples: Vec<f64> = (1..=450).map(f64::from).collect();
        assert_eq!(
            window_p95s(&samples),
            vec![190.0, 390.0],
            "the last 50 fill no window"
        );
        let quick: Vec<f64> = (1..=64).map(f64::from).collect();
        assert_eq!(window_p95s(&quick), vec![61.0]);
    }
}
