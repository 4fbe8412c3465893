//! Gradient-boosted regression trees with squared loss and shrinkage.
//!
//! One of the Table 9 surrogate-model candidates ("GB"); the paper finds it
//! tied with random forests as the best surrogate family.

use crate::dataset::FeatureKind;
use crate::tree::{DecisionTree, DecisionTreeParams};
use crate::Regressor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gradient-boosting hyper-parameters.
#[derive(Clone, Debug)]
pub struct GradientBoostingParams {
    /// Number of boosting stages.
    pub n_stages: usize,
    /// Shrinkage applied to every stage's contribution.
    pub learning_rate: f64,
    /// Depth of each weak learner.
    pub max_depth: usize,
    /// Minimum samples per leaf for weak learners.
    pub min_samples_leaf: usize,
    /// Fraction of rows sampled per stage (stochastic gradient boosting,
    /// Friedman 2002); 1.0 fits every stage on the full sample.
    pub subsample: f64,
    /// RNG seed for row subsampling.
    pub seed: u64,
}

impl Default for GradientBoostingParams {
    fn default() -> Self {
        Self {
            n_stages: 120,
            learning_rate: 0.08,
            max_depth: 4,
            min_samples_leaf: 3,
            subsample: 1.0,
            seed: 0,
        }
    }
}

/// A fitted gradient-boosting ensemble.
#[derive(Clone, Debug)]
pub struct GradientBoosting {
    params: GradientBoostingParams,
    feature_kinds: Vec<FeatureKind>,
    base: f64,
    stages: Vec<DecisionTree>,
}

impl GradientBoosting {
    /// Creates an unfitted model over columns described by `feature_kinds`.
    pub fn new(params: GradientBoostingParams, feature_kinds: Vec<FeatureKind>) -> Self {
        Self { params, feature_kinds, base: 0.0, stages: Vec::new() }
    }

    /// Convenience constructor for all-continuous features.
    pub fn continuous(params: GradientBoostingParams, dim: usize) -> Self {
        Self::new(params, vec![FeatureKind::Continuous; dim])
    }

    /// Number of fitted stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The fitted stage trees (empty before `fit`).
    pub fn stages(&self) -> &[DecisionTree] {
        &self.stages
    }

    /// The shrinkage applied to each stage's contribution.
    pub fn learning_rate(&self) -> f64 {
        self.params.learning_rate
    }

    /// The constant base prediction (training-target mean).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Fits with early stopping: after each stage the RMSE on the
    /// validation split is checked, and fitting stops once it has not
    /// improved for `patience` stages (the ensemble is truncated at the
    /// best stage). Prevents late stages from fitting noise — which
    /// matters when the ensemble is used for attribution, not just
    /// prediction.
    pub fn fit_with_validation(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        x_val: &[Vec<f64>],
        y_val: &[f64],
        patience: usize,
    ) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty() && !x_val.is_empty());
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        self.stages.clear();

        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut residual: Vec<f64> = y.iter().map(|v| v - self.base).collect();
        let idx: Vec<usize> = (0..x.len()).collect();
        let tree_params = DecisionTreeParams {
            max_depth: self.params.max_depth,
            min_samples_leaf: self.params.min_samples_leaf,
            min_samples_split: self.params.min_samples_leaf * 2,
            max_features: None,
        };
        let mut val_pred: Vec<f64> = vec![self.base; x_val.len()];
        let mut best_rmse = f64::INFINITY;
        let mut best_stages = 0usize;
        // Shared across stages: the design matrix never changes, only
        // the residual target does (see `FitScratch`).
        let mut scratch = crate::tree::FitScratch::for_design(x, &self.feature_kinds);
        for stage in 0..self.params.n_stages {
            let stage_idx = self.stage_rows(&idx, &mut rng);
            let mut tree = DecisionTree::new(tree_params.clone(), self.feature_kinds.clone());
            tree.fit_indices_with(&mut scratch, x, &residual, &stage_idx, &mut rng);
            for (r, row) in residual.iter_mut().zip(x) {
                *r -= self.params.learning_rate * tree.predict(row);
            }
            for (p, row) in val_pred.iter_mut().zip(x_val) {
                *p += self.params.learning_rate * tree.predict(row);
            }
            self.stages.push(tree);

            let mut mse = 0.0;
            for (p, t) in val_pred.iter().zip(y_val) {
                mse += (p - t) * (p - t);
            }
            let rmse = (mse / y_val.len() as f64).sqrt();
            if rmse < best_rmse - 1e-12 {
                best_rmse = rmse;
                best_stages = stage + 1;
            } else if stage + 1 >= best_stages + patience {
                break;
            }
        }
        self.stages.truncate(best_stages.max(1));
    }
}

impl GradientBoosting {
    /// Row indices for one boosting stage (subsampled without
    /// replacement when `subsample < 1`).
    fn stage_rows(&self, idx: &[usize], rng: &mut StdRng) -> Vec<usize> {
        if self.params.subsample >= 1.0 {
            return idx.to_vec();
        }
        use rand::seq::SliceRandom;
        let k = ((idx.len() as f64) * self.params.subsample).ceil().max(2.0) as usize;
        let mut pool = idx.to_vec();
        pool.shuffle(rng);
        pool.truncate(k.min(idx.len()));
        pool
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        self.stages.clear();

        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut residual: Vec<f64> = y.iter().map(|v| v - self.base).collect();
        let idx: Vec<usize> = (0..x.len()).collect();
        let tree_params = DecisionTreeParams {
            max_depth: self.params.max_depth,
            min_samples_leaf: self.params.min_samples_leaf,
            min_samples_split: self.params.min_samples_leaf * 2,
            max_features: None,
        };
        let mut scratch = crate::tree::FitScratch::for_design(x, &self.feature_kinds);
        for _ in 0..self.params.n_stages {
            let stage_idx = self.stage_rows(&idx, &mut rng);
            let mut tree = DecisionTree::new(tree_params.clone(), self.feature_kinds.clone());
            tree.fit_indices_with(&mut scratch, x, &residual, &stage_idx, &mut rng);
            for (r, row) in residual.iter_mut().zip(x) {
                *r -= self.params.learning_rate * tree.predict(row);
            }
            self.stages.push(tree);
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let boost: f64 = self.stages.iter().map(|t| t.predict(row)).sum();
        self.base + self.params.learning_rate * boost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn boosting_reduces_training_error_monotonically_enough() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen::<f64>() * 4.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0]).sin() * 5.0 + r[0]).collect();

        let mut weak = GradientBoosting::continuous(
            GradientBoostingParams { n_stages: 5, ..Default::default() },
            1,
        );
        weak.fit(&x, &y);
        let mut strong = GradientBoosting::continuous(
            GradientBoostingParams { n_stages: 150, ..Default::default() },
            1,
        );
        strong.fit(&x, &y);

        let err = |m: &GradientBoosting| dbtune_linalg::stats::rmse(&m.predict_batch(&x), &y);
        assert!(err(&strong) < err(&weak) * 0.5, "boosting failed to improve fit");
    }

    #[test]
    fn predicts_mean_with_zero_stages() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![2.0, 4.0];
        let mut m = GradientBoosting::continuous(
            GradientBoostingParams { n_stages: 0, ..Default::default() },
            1,
        );
        m.fit(&x, &y);
        assert!((m.predict(&[0.5]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn early_stopping_truncates_noise_stages() {
        let mut rng = StdRng::seed_from_u64(7);
        // Signal in x0, plus pure noise targets.
        let x: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + rng.gen::<f64>() * 0.5).collect();
        let xv: Vec<Vec<f64>> =
            (0..100).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let yv: Vec<f64> = xv.iter().map(|r| 3.0 * r[0] + rng.gen::<f64>() * 0.5).collect();
        let mut m = GradientBoosting::continuous(
            GradientBoostingParams { n_stages: 400, ..Default::default() },
            2,
        );
        m.fit_with_validation(&x, &y, &xv, &yv, 10);
        assert!(m.n_stages() < 400, "early stopping never triggered");
        assert!(m.n_stages() >= 1);
        // Validation fit quality should still be decent.
        let r2 = dbtune_linalg::stats::r_squared(&m.predict_batch(&xv), &yv);
        assert!(r2 > 0.8, "early-stopped model too weak: {r2}");
    }

    #[test]
    fn handles_categorical_features() {
        // y depends on category parity, not order.
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![(i % 4) as f64]).collect();
        let y: Vec<f64> = (0..80).map(|i| if i % 2 == 0 { 1.0 } else { 9.0 }).collect();
        let mut m = GradientBoosting::new(
            GradientBoostingParams::default(),
            vec![FeatureKind::Categorical { cardinality: 4 }],
        );
        m.fit(&x, &y);
        assert!((m.predict(&[0.0]) - 1.0).abs() < 0.5);
        assert!((m.predict(&[3.0]) - 9.0).abs() < 0.5);
    }
}
