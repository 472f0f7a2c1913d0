//! Percentiles that report how many samples they rest on.

/// Nearest-rank summary of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Number of samples summarised.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest sample.
    pub max: f64,
}

impl Quantiles {
    /// Summarises `values` (any order).  An empty sample reads 0 everywhere
    /// with `samples == 0`, so callers can print it without special cases.
    pub fn of(mut values: Vec<f64>) -> Self {
        values.sort_unstable_by(f64::total_cmp);
        Quantiles {
            samples: values.len(),
            p50: quantile(&values, 0.50),
            p99: quantile(&values, 0.99),
            p999: quantile(&values, 0.999),
            max: values.last().copied().unwrap_or(0.0),
        }
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Quantiles::of(values.to_vec()).p50
}

/// The median, over consecutive time windows of length `window`, of each
/// window's `q`-quantile, plus the number of windows it rests on.
/// `samples` are `(time, value)` pairs in any order; a window holding
/// fewer than `min_samples` samples (the run's ragged end) is skipped.
/// One disturbed window moves this at most one rank, where it could move
/// a whole-run tail percentile as far as the disturbance reached.
pub fn windowed_quantile(
    samples: &[(f64, f64)],
    window: f64,
    q: f64,
    min_samples: usize,
) -> (f64, usize) {
    let start = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let k = ((t - start) / window) as usize;
        if windows.len() <= k {
            windows.resize_with(k + 1, Vec::new);
        }
        windows[k].push(v);
    }
    let per_window: Vec<f64> = windows
        .into_iter()
        .filter(|w| w.len() >= min_samples)
        .map(|mut w| {
            w.sort_unstable_by(f64::total_cmp);
            quantile(&w, q)
        })
        .collect();
    (median(&per_window), per_window.len())
}
