//! OtterTune's Lasso importance: L1-regularized linear regression over
//! standardized (optionally degree-2 polynomial) features; a knob's
//! importance is its accumulated coefficient magnitude along a descending
//! regularization path — features that survive heavier penalties matter
//! more, mirroring OtterTune's lasso-path ordering.

use super::{ImportanceInput, ImportanceMeasure};
use dbtune_ml::{LassoRegression, PolynomialFeatures, Regressor};

/// Lasso-based importance measurement.
#[derive(Clone, Debug)]
pub struct LassoImportance {
    /// Descending regularization path.
    pub alphas: Vec<f64>,
    /// Use degree-2 polynomial features when the dimensionality allows
    /// (OtterTune's setup; quadratic expansion of 197 knobs is impractical
    /// and linear terms dominate the ranking anyway).
    pub max_poly_dim: usize,
}

impl Default for LassoImportance {
    fn default() -> Self {
        Self { alphas: vec![0.3, 0.1, 0.03, 0.01], max_poly_dim: 64 }
    }
}

impl ImportanceMeasure for LassoImportance {
    fn name(&self) -> &'static str {
        "Lasso"
    }

    fn scores(&self, input: &ImportanceInput<'_>) -> Vec<f64> {
        let d = input.specs.len();
        // Unit-encode all knobs (ordinal categoricals — the linear model
        // has no better option, which is part of why Lasso underperforms).
        let xu: Vec<Vec<f64>> = input
            .x
            .iter()
            .map(|row| row.iter().zip(input.specs).map(|(v, s)| s.domain.to_unit(*v)).collect())
            .collect();
        // Standardize the target so alphas are scale-free.
        let y_std = dbtune_linalg::stats::std_dev(input.y).max(1e-12);
        let y_mean = dbtune_linalg::stats::mean(input.y);
        let yn: Vec<f64> = input.y.iter().map(|v| (v - y_mean) / y_std).collect();

        let poly = if d <= self.max_poly_dim { Some(PolynomialFeatures::new(d)) } else { None };
        let features: Vec<Vec<f64>> = match &poly {
            Some(p) => p.transform_all(&xu),
            None => xu,
        };

        let mut scores = vec![0.0; d];
        for &alpha in &self.alphas {
            let mut lasso = LassoRegression::new(alpha);
            lasso.fit(&features, &yn);
            for (j, w) in lasso.weights().iter().enumerate() {
                if *w == 0.0 {
                    continue;
                }
                match &poly {
                    None => scores[j] += w.abs(),
                    Some(p) => {
                        let (a, b) = p.base_features(j);
                        match b {
                            None => scores[a] += w.abs(),
                            Some(b) => {
                                // Interaction terms split their weight.
                                scores[a] += 0.5 * w.abs();
                                scores[b] += 0.5 * w.abs();
                            }
                        }
                    }
                }
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::top_k;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lasso_ranks_linear_effects_first() {
        let specs = vec![
            KnobSpec::real("strong", 0.0, 1.0, false, 0.5),
            KnobSpec::real("weak", 0.0, 1.0, false, 0.5),
            KnobSpec::real("none", 0.0, 1.0, false, 0.5),
        ];
        let default = vec![0.5, 0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> =
            (0..200).map(|_| (0..3).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| 10.0 * r[0] + 1.0 * r[1]).collect();
        let m = LassoImportance::default();
        let scores =
            m.scores(&ImportanceInput { specs: &specs, default: &default, x: &x, y: &y, seed: 0 });
        assert_eq!(top_k(&scores, 3), vec![0, 1, 2]);
        assert!(scores[2] < scores[0] * 0.05);
    }

    #[test]
    fn lasso_struggles_with_pure_interaction() {
        // Importance signal exists only as x0·x1 (zero marginal effects on
        // centered inputs). With polynomial features Lasso still finds it —
        // the documented reason OtterTune adds degree-2 terms.
        let specs = vec![
            KnobSpec::real("a", -1.0, 1.0, false, 0.0),
            KnobSpec::real("b", -1.0, 1.0, false, 0.0),
            KnobSpec::real("c", -1.0, 1.0, false, 0.0),
        ];
        let default = vec![0.0; 3];
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> =
            (0..300).map(|_| (0..3).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| 5.0 * r[0] * r[1]).collect();
        let m = LassoImportance::default();
        let scores =
            m.scores(&ImportanceInput { specs: &specs, default: &default, x: &x, y: &y, seed: 0 });
        assert!(scores[0] > scores[2] * 3.0, "poly term should credit a: {scores:?}");
        assert!(scores[1] > scores[2] * 3.0, "poly term should credit b: {scores:?}");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test leaks its few knob names to get the &'static str KnobSpec wants"
    )]
    fn high_dim_falls_back_to_linear_terms() {
        let specs: Vec<KnobSpec> = (0..80)
            .map(|i| {
                let name: &'static str = Box::leak(format!("k{i}").into_boxed_str());
                KnobSpec::real(name, 0.0, 1.0, false, 0.5)
            })
            .collect();
        let default = vec![0.5; 80];
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> =
            (0..150).map(|_| (0..80).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| 4.0 * r[7]).collect();
        let m = LassoImportance::default();
        let scores =
            m.scores(&ImportanceInput { specs: &specs, default: &default, x: &x, y: &y, seed: 0 });
        assert_eq!(top_k(&scores, 1), vec![7]);
    }
}
