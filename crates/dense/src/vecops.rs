//! Free functions on plain `&[f64]` vectors used across the workspace.
//!
//! The accumulating functions run on the fixed-lane reduction kernels of
//! [`crate::simd`], so their results are deterministic across runs, worker
//! counts, and the SIMD gate (`Runtime::set_simd`).

use crate::simd;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    simd::dot(a, b)
}

/// Euclidean (L2) norm of a slice.
pub fn l2_norm(a: &[f64]) -> f64 {
    simd::dot(a, a).sqrt()
}

/// Largest absolute element-wise difference between two slices.
///
/// # Panics
/// Panics if the lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Multiplies every element of `a` by `s` in place.
pub fn scale_in_place(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn diffs_and_scaling() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 5.5]), 1.0);
        let mut v = [1.0, -2.0];
        scale_in_place(&mut v, 3.0);
        assert_eq!(v, [3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
