//! Sample summaries: median with quartiles, and the tail percentile the
//! sample count can support.

/// Median, quartiles and sample count of one set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (linear interpolation between order statistics).
    pub median: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Summary {
    /// A single measured value (counts, one-shot timings).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice, interpolating
/// linearly between the two nearest order statistics.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        samples: s.len(),
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The tail percentile ladder, highest first: `(p, 1 / (1 − p))`. The
/// reciprocal is kept as an integer so "samples beyond" is exact.
const TAIL_LADDER: [(f64, usize); 5] = [
    (0.9999, 10_000),
    (0.999, 1_000),
    (0.99, 100),
    (0.95, 20),
    (0.9, 10),
];

/// The median plus the highest percentile of the ladder p99.99 / p99.9 /
/// p99 / p95 / p90 that still has at least ten samples beyond it, with
/// the sample count — so a tail is never reported off a handful of
/// points. `None` for the tail when even p90 has fewer than ten beyond it
/// (under 100 samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// The median.
    pub median: f64,
    /// `(p, value)` of the highest supportable tail percentile.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub samples: usize,
}

/// See [`Percentiles`].
pub fn percentiles(samples: &[f64]) -> Percentiles {
    let s = sorted(samples);
    let n = s.len();
    let tail = TAIL_LADDER
        .iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map(|&(p, _)| (p, quantile_sorted(&s, p)));
    Percentiles {
        median: quantile_sorted(&s, 0.5),
        tail,
        samples: n,
    }
}

/// A fixed percentile of `samples` (for metrics whose definition pins the
/// percentile, like `p99`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_ramp() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.samples), (3.0, 5.0, 7.0, 9));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentiles(&v);
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(p.tail.map(|t| t.0), Some(0.99));
        let small: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentiles(&small).tail, None);
        let big: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(percentiles(&big).tail.map(|t| t.0), Some(0.9999));
    }
}
