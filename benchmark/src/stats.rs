//! Order statistics for timing samples.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it ([`tail_pct`]) — on a shared two-core
//! box anything further out does not repeat from run to run.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0.0..=100.0`) of `samples`, linearly
/// interpolated between closest ranks. Panics on an empty slice: a metric
/// with no samples is a harness bug, not a zero.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentile of the *fast* sample a throughput is computed from. The
/// host's interference is one-sided (a shared box only takes cycles away)
/// and comes in bursts that last seconds, long enough to cover most of a
/// run. The fast decile of a run's reps is therefore what the code costs,
/// where the median is what the neighbours allowed: over ten 20-second runs
/// of each simulated workload the median rep wall spread 2.6–8.6 % (IQR
/// over median), the fast decile of the same reps 1.2–4.5 %.
pub const FAST_PCT: f64 = 10.0;

/// The fast-decile ([`FAST_PCT`]) sample.
pub fn fast(samples: &[f64]) -> f64 {
    percentile(samples, FAST_PCT)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, or 50 when `n` is too small for any percentile above the
/// median to qualify (the caller then reports the median twice and the
/// `*_tail_pct` metric says so).
pub fn tail_pct(n: usize) -> u32 {
    if n <= 2 * TAIL_MIN_BEYOND {
        return 50;
    }
    let pct = 100 * (n - TAIL_MIN_BEYOND) / n;
    pct.clamp(50, 99) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_interpolation() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 75.0), 40.0);
        assert_eq!(percentile(&[1.0], 99.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Too few samples: no percentile above the median qualifies.
        assert_eq!(tail_pct(1), 50);
        assert_eq!(tail_pct(20), 50);
        // 40 reps -> p75 (10 of 40 beyond); 600 jobs -> p98.
        assert_eq!(tail_pct(40), 75);
        assert_eq!(tail_pct(200), 95);
        assert_eq!(tail_pct(600), 98);
        // Never past p99, and always at least ten beyond.
        assert_eq!(tail_pct(1_000_000), 99);
        for n in 21..2_000 {
            let p = tail_pct(n) as usize;
            assert!(n * (100 - p) >= 100 * TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_is_a_bug() {
        median(&[]);
    }
}
