//! Random forest regression: bootstrap aggregation of CART trees with
//! feature subsampling.
//!
//! The forest triples as (1) SMAC's surrogate — predictive mean/variance
//! come from the across-tree disagreement, giving the Gaussian
//! `N(μ̂, σ̂²)` SMAC assumes; (2) the source of Gini importance — split
//! counts aggregated over all trees; (3) the carrier for fANOVA, which
//! marginalizes each tree's piecewise-constant function.

use crate::dataset::FeatureKind;
use crate::tree::{DecisionTree, DecisionTreeParams};
use crate::{Regressor, UncertainRegressor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Random-forest hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree parameters (depth, leaf size, feature subsampling).
    pub tree: DecisionTreeParams,
    /// Bootstrap sample fraction (1.0 = classic bagging with replacement).
    pub bootstrap_fraction: f64,
    /// RNG seed for reproducible fits.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_trees: 40,
            tree: DecisionTreeParams {
                min_samples_leaf: 2,
                min_samples_split: 4,
                ..Default::default()
            },
            bootstrap_fraction: 1.0,
            seed: 0,
        }
    }
}

impl RandomForestParams {
    /// A forest sized for surrogate duty inside optimizers (SMAC): modest
    /// tree count, feature subsampling scaled to the dimensionality.
    pub fn surrogate(dim: usize, seed: u64) -> Self {
        let max_features = ((dim as f64) * 5.0 / 6.0).ceil().max(1.0) as usize;
        Self {
            n_trees: 24,
            tree: DecisionTreeParams {
                min_samples_leaf: 3,
                min_samples_split: 6,
                max_features: Some(max_features),
                ..Default::default()
            },
            bootstrap_fraction: 1.0,
            seed,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForest {
    params: RandomForestParams,
    feature_kinds: Vec<FeatureKind>,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Creates an unfitted forest over columns described by `feature_kinds`.
    pub fn new(params: RandomForestParams, feature_kinds: Vec<FeatureKind>) -> Self {
        Self { params, feature_kinds, trees: Vec::new() }
    }

    /// Convenience constructor assuming all-continuous features.
    pub fn continuous(params: RandomForestParams, dim: usize) -> Self {
        Self::new(params, vec![FeatureKind::Continuous; dim])
    }

    /// The fitted trees (empty before `fit`).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Total split count per feature across all trees — the Gini score of
    /// Tuneful (Nembrini et al. formulation used by the paper).
    pub fn split_counts(&self) -> Vec<usize> {
        let d = self.feature_kinds.len();
        let mut counts = vec![0usize; d];
        for t in &self.trees {
            for (c, tc) in counts.iter_mut().zip(t.split_counts()) {
                *c += tc;
            }
        }
        counts
    }

    /// The feature descriptors the forest was built with.
    pub fn feature_kinds(&self) -> &[FeatureKind] {
        &self.feature_kinds
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// [`UncertainRegressor::predict_with_variance`] over a whole batch of
    /// rows, reusing one per-tree prediction buffer across the batch
    /// instead of allocating per row. Each element is bit-identical to the
    /// pointwise call — same tree traversals, same summation order.
    pub fn predict_with_variance_batch(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        assert!(self.is_fitted(), "predict on unfitted forest");
        let mut preds = vec![0.0; self.trees.len()];
        rows.iter()
            .map(|row| {
                for (p, t) in preds.iter_mut().zip(&self.trees) {
                    *p = t.predict(row);
                }
                let mean = preds.iter().sum::<f64>() / preds.len() as f64;
                let var =
                    preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / preds.len() as f64;
                (mean, var)
            })
            .collect()
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit forest on empty sample");
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let n = x.len();
        let n_boot = ((n as f64) * self.params.bootstrap_fraction).round().max(1.0) as usize;
        self.trees.clear();
        self.trees.reserve(self.params.n_trees);
        // One scratch for the whole ensemble: the column-major copy of
        // `x` and every build buffer are shared across trees instead of
        // being reallocated per tree (same splits to the bit — see
        // `FitScratch`). This was the worst allocation-churn site in a
        // SMAC session by an order of magnitude.
        let mut scratch = crate::tree::FitScratch::for_design(x, &self.feature_kinds);
        let mut indices: Vec<usize> = Vec::with_capacity(n_boot);
        for _ in 0..self.params.n_trees {
            indices.clear();
            indices.extend((0..n_boot).map(|_| rng.gen_range(0..n)));
            let mut tree = DecisionTree::new(self.params.tree.clone(), self.feature_kinds.clone());
            tree.fit_indices_with(&mut scratch, x, y, &indices, &mut rng);
            self.trees.push(tree);
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        assert!(self.is_fitted(), "predict on unfitted forest");
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }
}

impl UncertainRegressor for RandomForest {
    fn predict_with_variance(&self, row: &[f64]) -> (f64, f64) {
        assert!(self.is_fitted(), "predict on unfitted forest");
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(row)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / preds.len() as f64;
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn friedman_sample(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // A standard nonlinear regression benchmark (Friedman #1, 5 dims).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..5).map(|_| rng.gen::<f64>()).collect();
            let t = 10.0 * (std::f64::consts::PI * row[0] * row[1]).sin()
                + 20.0 * (row[2] - 0.5) * (row[2] - 0.5)
                + 10.0 * row[3]
                + 5.0 * row[4];
            y.push(t);
            x.push(row);
        }
        (x, y)
    }

    #[test]
    fn forest_fits_nonlinear_function() {
        let (x, y) = friedman_sample(400, 7);
        let (xt, yt) = friedman_sample(100, 8);
        let mut rf = RandomForest::continuous(RandomForestParams::default(), 5);
        rf.fit(&x, &y);
        let pred = rf.predict_batch(&xt);
        let r2 = dbtune_linalg::stats::r_squared(&pred, &yt);
        assert!(r2 > 0.75, "forest R² too low: {r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_sample(100, 3);
        let mut a =
            RandomForest::continuous(RandomForestParams { seed: 42, ..Default::default() }, 5);
        let mut b =
            RandomForest::continuous(RandomForestParams { seed: 42, ..Default::default() }, 5);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in x.iter().take(10) {
            assert_eq!(a.predict(row), b.predict(row));
        }
    }

    #[test]
    fn variance_is_nonnegative_and_zero_on_constant_target() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y = vec![2.0; 30];
        let mut rf = RandomForest::continuous(RandomForestParams::default(), 1);
        rf.fit(&x, &y);
        let (m, v) = rf.predict_with_variance(&[10.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!(v.abs() < 1e-18);
    }

    #[test]
    fn split_counts_prefer_informative_feature() {
        let mut rng = StdRng::seed_from_u64(11);
        let x: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 10.0).collect(); // only feature 0 matters
        let mut rf = RandomForest::continuous(RandomForestParams::default(), 2);
        rf.fit(&x, &y);
        let counts = rf.split_counts();
        assert!(
            counts[0] > counts[1] * 3,
            "informative feature should dominate splits: {counts:?}"
        );
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (x, y) = friedman_sample(200, 5);
        let mut rf = RandomForest::continuous(RandomForestParams::default(), 5);
        rf.fit(&x, &y);
        // In-sample point variance should generally be modest; probing
        // ensures the API shape rather than a statistical guarantee.
        let (_, v) = rf.predict_with_variance(&x[0]);
        assert!(v >= 0.0);
    }
}
