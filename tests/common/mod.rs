//! Helpers shared by the integration test binaries (`mod common;`).

/// Bit patterns for the bitwise determinism contract (README,
/// *Determinism*): every non-NaN element keeps its exact bits — so
/// `-0.0` and `0.0` differ, as does any change of rounding — and every
/// NaN maps to one canonical pattern. Rust leaves the sign and payload of
/// a NaN produced by arithmetic unspecified, so two equal vectors under
/// this map are bitwise equal off NaN and NaN in the same places.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}
