//! The benchmark's arithmetic: medians and the percentile rule. Kept
//! free of I/O so `tests/arithmetic.rs` can pin it down.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of an ascending slice by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, highest last.
pub const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// The guide's tail rule: the highest percentile of [`TAIL_LADDER`] that
/// still has at least ten samples beyond it, or `None` when even p90
/// does not (fewer than 100 samples).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| samples_beyond(samples, *p) >= 10)
}

/// The name of the percentile [`tail_percentile`] picks for `samples`
/// samples (`p99.9`), or `no tail` below 100 samples.
pub fn tail_name(samples: usize) -> String {
    tail_percentile(samples).map_or("no tail".into(), |p| format!("p{}", p * 100.0))
}

/// How many of `samples` sorted samples lie strictly beyond the
/// nearest-rank `p`-quantile.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    // The epsilon keeps 0.99 × 1000 = 990.0000000000001 from rounding up.
    let rank = (p * samples as f64 - 1e-9).ceil().max(1.0) as usize;
    samples.saturating_sub(rank)
}

/// Median and supported tail of one distribution of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// The percentile [`tail_percentile`] chose and its value.
    pub tail: Option<(f64, u64)>,
    /// Largest sample.
    pub max: u64,
}

/// Summarises `samples` (sorted in place).
pub fn summarize(samples: &mut [u64]) -> Summary {
    samples.sort_unstable();
    Summary {
        n: samples.len(),
        p50: quantile_sorted(samples, 0.5),
        tail: tail_percentile(samples.len()).map(|p| (p, quantile_sorted(samples, p))),
        max: samples.last().copied().unwrap_or(0),
    }
}

/// A metric measured once per repetition, reported as the median over
/// repetitions with its range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverReps {
    /// Repetitions measured.
    pub reps: usize,
    /// Median over repetitions — the reported value.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
}

/// Median-of-repetitions with min..max.
pub fn over_reps(values: &[f64]) -> OverReps {
    OverReps {
        reps: values.len(),
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}
