//! The knob-selection module: importance measurements ranking the
//! catalog's knobs from a pool of `(configuration, performance)`
//! observations (§3.1, §5).
//!
//! Two families, as in Table 2:
//!
//! * **variance-based** — [`lasso::LassoImportance`] (OtterTune),
//!   [`gini::GiniImportance`] (Tuneful), [`fanova::FanovaImportance`]
//!   (HPO state of the art): how much a knob *moves* performance;
//! * **tunability-based** — [`ablation::AblationImportance`],
//!   [`shap::ShapImportance`]: how much performance can be *gained* by
//!   moving a knob away from its default.
//!
//! The distinction matters because DBMS defaults are robust: a knob can
//! have huge variance yet zero tunability (the simulator's "trap" knobs),
//! which is exactly why SHAP wins the paper's comparison.

use dbtune_dbsim::knob::KnobSpec;

pub mod ablation;
pub mod fanova;
pub mod gini;
pub mod lasso;
pub mod shap;

pub use ablation::AblationImportance;
pub use fanova::FanovaImportance;
pub use gini::GiniImportance;
pub use lasso::LassoImportance;
pub use shap::ShapImportance;

/// Input to an importance measurement.
pub struct ImportanceInput<'a> {
    /// Knob specs, aligned with configuration columns.
    pub specs: &'a [KnobSpec],
    /// The default configuration (tunability baselines).
    pub default: &'a [f64],
    /// Observed raw configurations.
    pub x: &'a [Vec<f64>],
    /// Maximize-oriented scores.
    pub y: &'a [f64],
    /// Determinism seed for stochastic measurements.
    pub seed: u64,
}

/// An importance measurement: maps observations to per-knob scores
/// (higher = more important).
pub trait ImportanceMeasure {
    /// Paper-style display name.
    fn name(&self) -> &'static str;
    /// Per-knob importance scores (length = number of knobs).
    fn scores(&self, input: &ImportanceInput<'_>) -> Vec<f64>;
}

/// Indices of the `k` highest-scoring knobs, best first. Ties break toward
/// the lower index, making rankings deterministic.
pub fn top_k(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| crate::ord::cmp_score_desc(&scores[a], &scores[b]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Identifier for building any of the five measurements uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// OtterTune's Lasso ranking.
    Lasso,
    /// Tuneful's Gini (tree split count) score.
    Gini,
    /// Functional ANOVA.
    Fanova,
    /// Ablation analysis.
    Ablation,
    /// SHAP tunability.
    Shap,
}

impl MeasureKind {
    /// All five measurements, Table 2 order.
    pub const ALL: [MeasureKind; 5] = [
        MeasureKind::Lasso,
        MeasureKind::Gini,
        MeasureKind::Fanova,
        MeasureKind::Ablation,
        MeasureKind::Shap,
    ];

    /// Paper-style display label.
    pub fn label(self) -> &'static str {
        match self {
            MeasureKind::Lasso => "Lasso",
            MeasureKind::Gini => "Gini",
            MeasureKind::Fanova => "fANOVA",
            MeasureKind::Ablation => "Ablation Analysis",
            MeasureKind::Shap => "SHAP",
        }
    }

    /// Instantiates the measurement.
    pub fn build(self) -> Box<dyn ImportanceMeasure> {
        match self {
            MeasureKind::Lasso => Box::new(LassoImportance::default()),
            MeasureKind::Gini => Box::new(GiniImportance::default()),
            MeasureKind::Fanova => Box::new(FanovaImportance::default()),
            MeasureKind::Ablation => Box::new(AblationImportance::default()),
            MeasureKind::Shap => Box::new(ShapImportance::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_by_score_with_stable_ties() {
        let scores = [0.5, 2.0, 2.0, 0.1];
        assert_eq!(top_k(&scores, 3), vec![1, 2, 0]);
        assert_eq!(top_k(&scores, 10).len(), 4);
    }

    #[test]
    fn all_kinds_buildable() {
        for k in MeasureKind::ALL {
            let m = k.build();
            assert_eq!(m.name(), k.label());
        }
    }

    #[test]
    fn every_measure_scores_a_single_observation_as_all_zeros() {
        let specs = vec![
            KnobSpec::real("a", 0.0, 1.0, false, 0.5),
            KnobSpec::real("b", 1.0, 100.0, true, 10.0),
            KnobSpec::cat("c", vec!["x", "y", "z"], 0),
        ];
        let default = vec![0.5, 10.0, 0.0];
        let x = vec![vec![0.9, 50.0, 2.0]];
        let y = vec![3.5];
        let input = ImportanceInput { specs: &specs, default: &default, x: &x, y: &y, seed: 11 };
        for k in MeasureKind::ALL {
            assert_eq!(k.build().scores(&input), vec![0.0; specs.len()], "{}", k.label());
        }
    }
}
