//! The planner's public decision log (`with_hook`), tied to the span that
//! was open when each verdict fell.

use crate::harness::Report;
use crate::stats::median;
use crate::trace::{self, Span};
use morpheus_core::Decision;
use std::sync::{Arc, Mutex};

/// One routing verdict as the decision hook saw it.
#[derive(Debug, Clone, Copy)]
pub struct DecisionRec {
    /// The operand-call span that was open when the verdict fell.
    pub span: Option<u32>,
    /// Predicted ns of the chosen route (`NaN` unless cost-based).
    pub predicted_ns: f64,
    /// Whether the factorized route was chosen.
    pub factorized: bool,
}

/// A decision log shared between the hook and the harness.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog(Arc<Mutex<Vec<DecisionRec>>>);

impl DecisionLog {
    /// The closure to hand to `PlannedMatrix::with_hook` /
    /// `PlannedChunkedMatrix::with_hook`.
    pub fn hook(&self) -> impl Fn(&Decision) + Send + Sync + 'static {
        let log = self.clone();
        move |d| {
            let predicted_ns = if d.factorized {
                d.factorized_ns
            } else {
                d.materialized_ns
            };
            log.lock().push(DecisionRec {
                span: trace::current(),
                predicted_ns,
                factorized: d.factorized,
            });
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<DecisionRec>> {
        self.0.lock().expect("decision log poisoned")
    }

    /// Forgets every verdict logged so far.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// A copy of the verdicts logged so far.
    pub fn records(&self) -> Vec<DecisionRec> {
        self.lock().clone()
    }

    /// Whether every logged verdict chose the factorized route — the
    /// "identical routes" condition of the bitwise checks.
    pub fn all_factorized(&self) -> bool {
        self.lock().iter().all(|d| d.factorized)
    }

    /// Share of verdicts that chose the factorized route.
    pub fn factorized_frac(&self) -> f64 {
        let log = self.lock();
        log.iter().filter(|d| d.factorized).count() as f64 / log.len().max(1) as f64
    }

    /// Fills `core.planner.decisions` (per pass), `.factorized_frac` and
    /// `.residual_log2` — the median |log2(measured span ns / predicted ns
    /// of the chosen route)| over verdicts with finite estimates.
    pub fn report_core(&self, spans: &[Span], passes: usize, report: &mut Report) {
        let log = self.records();
        report.value(
            "core.planner.decisions",
            log.len() as f64 / passes.max(1) as f64,
        );
        report.value("core.planner.factorized_frac", self.factorized_frac());
        let residuals: Vec<f64> = log
            .iter()
            .filter(|d| d.predicted_ns.is_finite() && d.predicted_ns > 0.0)
            .filter_map(|d| {
                let measured = spans[d.span? as usize].duration_ns() as f64;
                Some((measured / d.predicted_ns).log2().abs())
            })
            .collect();
        if !residuals.is_empty() {
            report.value("core.planner.residual_log2", median(&residuals));
        }
    }
}
