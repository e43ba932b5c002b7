//! The heuristic decision rule (§3.7, §5.1).
//!
//! Factorized execution can *lose* when the join introduces little
//! redundancy: the extra operator overhead then dominates the redundancy
//! saved. Empirically (Figure 3) the slow-down region is "L-shaped" in the
//! (tuple ratio, feature ratio) plane, which motivates the paper's
//! disjunctive threshold rule with conservatively tuned `τ = 5`, `ρ = 1`:
//! *do not factorize if `TR < τ` **or** `FR < ρ`*.
//!
//! The rule is one of the [`crate::Strategy`] variants of the per-operator
//! planner ([`crate::PlannedMatrix`]); pass it to
//! [`crate::PlannedMatrix::with_strategy`] to reproduce the paper's
//! construction-time routing against the cost-based default.

use crate::NormalizedMatrix;

/// The paper's heuristic decision rule with thresholds `τ` (tuple ratio)
/// and `ρ` (feature ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRule {
    /// Tuple-ratio threshold `τ` (default 5).
    pub tau: f64,
    /// Feature-ratio threshold `ρ` (default 1).
    pub rho: f64,
}

impl Default for DecisionRule {
    fn default() -> Self {
        // §5.1: "we set τ = 5 and ρ = 1", tuned conservatively on the
        // synthetic operator-level sweeps.
        Self { tau: 5.0, rho: 1.0 }
    }
}

impl DecisionRule {
    /// Creates a rule with explicit thresholds.
    pub fn new(tau: f64, rho: f64) -> Self {
        Self { tau, rho }
    }

    /// Predicts whether factorized execution will beat materialized
    /// execution for this normalized matrix.
    ///
    /// Implements the disjunctive predicate on the paper's tuple and
    /// feature ratios. For M:N joins (no identity entity part) the feature
    /// ratio is infinite and the tuple ratio measures output blow-up, so
    /// the same predicate applies.
    pub fn should_factorize(&self, t: &NormalizedMatrix) -> bool {
        let stats = t.stats();
        !(stats.tuple_ratio < self.tau || stats.feature_ratio < self.rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_dense::DenseMatrix;

    fn with_ratios(tr: usize, dr: usize, ds: usize) -> NormalizedMatrix {
        let nr = 4usize;
        let ns = nr * tr;
        let s = DenseMatrix::from_fn(ns, ds, |i, j| ((i + j) % 7) as f64);
        let r = DenseMatrix::from_fn(nr, dr, |i, j| ((i * dr + j) % 5) as f64 + 0.5);
        let fk: Vec<usize> = (0..ns).map(|i| i % nr).collect();
        NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
    }

    #[test]
    fn default_thresholds_match_paper() {
        let rule = DecisionRule::default();
        assert_eq!(rule.tau, 5.0);
        assert_eq!(rule.rho, 1.0);
    }

    #[test]
    fn rule_accepts_high_redundancy() {
        // TR = 10, FR = 2 → factorize.
        let t = with_ratios(10, 4, 2);
        assert!(DecisionRule::default().should_factorize(&t));
    }

    #[test]
    fn rule_rejects_low_tuple_ratio() {
        // TR = 2 < 5 → don't factorize, even with FR = 2.
        let t = with_ratios(2, 4, 2);
        assert!(!DecisionRule::default().should_factorize(&t));
    }

    #[test]
    fn rule_rejects_low_feature_ratio() {
        // FR = 0.5 < 1 → don't factorize, even with TR = 10.
        let t = with_ratios(10, 2, 4);
        assert!(!DecisionRule::default().should_factorize(&t));
    }

    #[test]
    fn mn_join_feature_ratio_is_infinite() {
        // M:N normalized matrices have no identity part → FR = ∞, so only
        // the tuple ratio gates factorization.
        let s = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let r = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        // 8 logical rows over 4 S-rows and 2 R-rows.
        let t = NormalizedMatrix::mn_join(
            s.into(),
            &[0, 0, 1, 1, 2, 2, 3, 3],
            r.into(),
            &[0, 1, 0, 1, 0, 1, 0, 1],
        );
        let stats = t.stats();
        assert!(stats.feature_ratio.is_infinite());
        assert!((stats.tuple_ratio - 2.0).abs() < 1e-12);
    }
}
