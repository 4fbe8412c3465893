//! SHAP tunability (Lundberg & Lee): Shapley values of each knob for
//! pushing performance from the **default configuration** to an observed
//! configuration, computed **exactly** with single-reference
//! interventional TreeSHAP over a gradient-boosted surrogate.
//!
//! Following the paper's adaptation, the baseline of the explanation is
//! the given default configuration, and a knob's importance is its
//! **average positive SHAP value** across well-performing observations —
//! i.e. its tunability. Knobs whose movement only ever hurts (the trap
//! knobs) receive ≈0, which is what separates SHAP from variance-based
//! measures (§5.2).
//!
//! Implementation notes (see DESIGN.md §5b): the surrogate is a stochastic
//! GBDT with validation early stopping, averaged over three row-subsampled
//! fits; explanations target the best *held-out* configurations; a
//! Monte-Carlo permutation estimator is kept as a reference
//! implementation.

use super::{ImportanceInput, ImportanceMeasure};
use dbtune_dbsim::knob::Domain;
use dbtune_ml::{FeatureKind, GradientBoosting, GradientBoostingParams, RandomForest, Regressor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// SHAP-based tunability measurement.
#[derive(Clone, Debug)]
pub struct ShapImportance {
    /// Surrogate capacity unit: the GBDT stage cap is `8 × n_trees`.
    pub n_trees: usize,
    /// Number of best held-out observations to explain.
    pub n_explained: usize,
}

impl Default for ShapImportance {
    fn default() -> Self {
        Self { n_trees: 40, n_explained: 48 }
    }
}

/// **Exact** SHAP values of `x` against a single `baseline` under a tree
/// ensemble (interventional TreeSHAP with one background sample).
///
/// For each tree, a DFS visits only the leaves reachable when every
/// feature takes its value from either `x` or `baseline`. At a leaf, the
/// path features split into `D_x` (consistent with `x` only) and `D_z`
/// (consistent with `baseline` only); the leaf is reached by exactly the
/// coalitions containing all of `D_x` and none of `D_z`, so its value
/// enters each Shapley sum with the closed-form weight
/// `W(a, b) = a!·b!/(a+b+1)!`. No Monte-Carlo noise — which is what makes
/// SHAP usable over 197 knobs.
pub fn tree_shap_values(rf: &RandomForest, baseline: &[f64], x: &[f64]) -> Vec<f64> {
    ensemble_shap_values(rf.trees(), 1.0 / rf.trees().len() as f64, baseline, x)
}

/// Exact single-reference SHAP values under a gradient-boosting ensemble
/// (each stage's attribution scaled by the learning rate; the constant
/// base cancels between `x` and `baseline`).
pub fn gbdt_shap_values(gb: &GradientBoosting, baseline: &[f64], x: &[f64]) -> Vec<f64> {
    ensemble_shap_values(gb.stages(), gb.learning_rate(), baseline, x)
}

/// Shared exact TreeSHAP over a weighted sum of trees.
fn ensemble_shap_values(
    trees: &[dbtune_ml::DecisionTree],
    weight: f64,
    baseline: &[f64],
    x: &[f64],
) -> Vec<f64> {
    let d = baseline.len();
    let mut phi = vec![0.0; d];
    // ln k! table for the Shapley weights.
    let max_depth = 128;
    let mut lnfact = vec![0.0f64; max_depth + 2];
    for k in 1..lnfact.len() {
        lnfact[k] = lnfact[k - 1] + (k as f64).ln();
    }
    let w = |a: usize, b: usize| -> f64 { (lnfact[a] + lnfact[b] - lnfact[a + b + 1]).exp() };

    for tree in trees {
        walk_tree(tree, tree.root_index(), baseline, x, &mut Vec::new(), &mut phi, &w);
    }
    for p in &mut phi {
        *p *= weight;
    }
    phi
}

/// Per-feature path state: does the path remain consistent with taking
/// this feature's value from x / from the baseline z?
#[derive(Clone, Copy)]
struct FeatState {
    feature: usize,
    x_ok: bool,
    z_ok: bool,
}

fn walk_tree(
    tree: &dbtune_ml::DecisionTree,
    node: usize,
    z: &[f64],
    x: &[f64],
    path: &mut Vec<FeatState>,
    phi: &mut [f64],
    w: &dyn Fn(usize, usize) -> f64,
) {
    match &tree.nodes()[node] {
        dbtune_ml::Node::Leaf { value, .. } => {
            // Collapse repeated features, drop unreachable leaves.
            let mut dx: Vec<usize> = Vec::new();
            let mut dz: Vec<usize> = Vec::new();
            let mut seen: Vec<(usize, bool, bool)> = Vec::new();
            for s in path.iter() {
                if let Some(e) = seen.iter_mut().find(|e| e.0 == s.feature) {
                    e.1 &= s.x_ok;
                    e.2 &= s.z_ok;
                } else {
                    seen.push((s.feature, s.x_ok, s.z_ok));
                }
            }
            for (f, x_ok, z_ok) in seen {
                match (x_ok, z_ok) {
                    (true, true) => {}
                    (true, false) => dx.push(f),
                    (false, true) => dz.push(f),
                    (false, false) => return, // unreachable leaf
                }
            }
            let (a, b) = (dx.len(), dz.len());
            for &j in &dx {
                phi[j] += value * w(a - 1, b);
            }
            for &j in &dz {
                phi[j] -= value * w(a, b - 1);
            }
        }
        dbtune_ml::Node::Internal { rule, left, right } => {
            let x_left = rule.goes_left(x);
            let z_left = rule.goes_left(z);
            let feature = rule.feature();
            for &(child, is_left) in &[(*left, true), (*right, false)] {
                // Only descend where x or z can actually go.
                if x_left != is_left && z_left != is_left {
                    continue;
                }
                path.push(FeatState { feature, x_ok: x_left == is_left, z_ok: z_left == is_left });
                walk_tree(tree, child, z, x, path, phi, w);
                path.pop();
            }
        }
    }
}

/// Monte-Carlo permutation estimate of the SHAP values of `x` against
/// `baseline` under surrogate `rf` (kept as a reference implementation;
/// each permutation's contributions telescope exactly to
/// `f(x) − f(baseline)`).
pub fn shap_values(
    rf: &RandomForest,
    baseline: &[f64],
    x: &[f64],
    n_permutations: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let d = baseline.len();
    let mut phi = vec![0.0; d];
    let mut perm: Vec<usize> = (0..d).collect();
    for _ in 0..n_permutations {
        perm.shuffle(rng);
        let mut z = baseline.to_vec();
        let mut prev = rf.predict(&z);
        for &j in &perm {
            z[j] = x[j];
            let cur = rf.predict(&z);
            phi[j] += cur - prev;
            prev = cur;
        }
    }
    for p in &mut phi {
        *p /= n_permutations as f64;
    }
    phi
}

impl ImportanceMeasure for ShapImportance {
    fn name(&self) -> &'static str {
        "SHAP"
    }

    fn scores(&self, input: &ImportanceInput<'_>) -> Vec<f64> {
        let d = input.specs.len();
        let n = input.x.len();
        if n < 2 {
            // No observation left to hold out and explain: nothing to
            // attribute, as the other measures report.
            return vec![0.0; d];
        }
        let mut rng = StdRng::seed_from_u64(input.seed.wrapping_add(0x5aa9));

        // Fit the surrogate on ~75% of the observations and explain
        // configurations from the held-out quarter. Explaining *training*
        // points of a deep forest credits every coordinate of a memorized
        // good configuration — filler knobs included — because toggling a
        // coordinate toward the memorized value re-enters the training
        // point's leaf. Held-out configs only get credit through splits
        // that generalize.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let n_holdout = (n / 4).max(self.n_explained.min(n / 2)).min(n.saturating_sub(8).max(1));
        let (holdout, train) = idx.split_at(n_holdout);
        // Surrogate: gradient boosting on winsorized scores. Boosting fits
        // stage-wise residuals, so once the dominant memory knobs are
        // absorbed, the secondary knobs (join buffers, optimizer depth)
        // become each next stage's strongest signal — a plain forest's
        // greedy splits never get to them in 197 dimensions.
        let floor = dbtune_linalg::stats::quantile(input.y, 0.10);
        let kinds: Vec<FeatureKind> = input
            .specs
            .iter()
            .map(|s| match &s.domain {
                Domain::Cat { choices } => FeatureKind::Categorical { cardinality: choices.len() },
                _ => FeatureKind::Continuous,
            })
            .collect();
        let xt: Vec<Vec<f64>> = train.iter().map(|&i| input.x[i].clone()).collect();
        let yt: Vec<f64> = train.iter().map(|&i| input.y[i].max(floor)).collect();
        let xv: Vec<Vec<f64>> = holdout.iter().map(|&i| input.x[i].clone()).collect();
        let yv: Vec<f64> = holdout.iter().map(|&i| input.y[i].max(floor)).collect();
        // Several stochastic fits: the spurious attribution a single
        // ensemble hands to irrelevant knobs is fit-specific structure
        // noise, so averaging across row-subsampled fits cancels it while
        // genuine tunability persists. Early stopping against the held-out
        // quarter keeps late stages from fitting noise in the first place.
        let mut fits: Vec<GradientBoosting> = Vec::new();
        for rep in 0..3u64 {
            let mut gb = GradientBoosting::new(
                GradientBoostingParams {
                    n_stages: self.n_trees * 8,
                    learning_rate: 0.1,
                    max_depth: 4,
                    min_samples_leaf: 10,
                    subsample: 0.7,
                    seed: input.seed.wrapping_add(rep * 7919),
                },
                kinds.clone(),
            );
            gb.fit_with_validation(&xt, &yt, &xv, &yv, 20);
            fits.push(gb);
        }

        // Explained set: the best held-out configurations — the ones whose
        // improvement over the default we want to attribute. (Mixing in
        // random configurations halves the tunability signal of the real
        // knobs while leaving the junk-attribution floor unchanged.)
        let mut order: Vec<usize> = holdout.to_vec();
        order.sort_by(|&a, &b| crate::ord::cmp_score_desc(&input.y[a], &input.y[b]));
        let explained: Vec<usize> = order[..self.n_explained.min(order.len())].to_vec();

        // Tunability = average **positive** SHAP value per knob (the
        // paper's definition): a knob whose good settings push performance
        // up collects credit from the configurations that used them; a
        // trap knob whose every move hurts collects none. Per-config
        // rectification is only usable because the per-config values are
        // *exact* (TreeSHAP) — a Monte-Carlo estimate would rectify its
        // own noise into a positive bias on all 197 knobs.
        let mut scores = vec![0.0; d];
        for &i in &explained {
            // Average φ across the fits, then rectify: per-fit structure
            // noise cancels, real per-config contributions do not.
            let mut phi = vec![0.0; d];
            for gb in &fits {
                for (acc, p) in phi.iter_mut().zip(gbdt_shap_values(gb, input.default, &input.x[i]))
                {
                    *acc += p;
                }
            }
            for (s, p) in scores.iter_mut().zip(&phi) {
                *s += (p / fits.len() as f64).max(0.0);
            }
        }
        for s in &mut scores {
            *s /= explained.len() as f64;
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::top_k;
    use dbtune_dbsim::knob::KnobSpec;
    use dbtune_ml::{FeatureKind, RandomForestParams};
    use rand::Rng;

    #[test]
    fn tree_shap_matches_brute_force_on_tiny_forest() {
        // Exact Shapley values by 2^d subset enumeration vs TreeSHAP.
        let mut rng = StdRng::seed_from_u64(4);
        let x: Vec<Vec<f64>> =
            (0..120).map(|_| (0..3).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| 5.0 * r[0] - 3.0 * r[1] * r[2] + r[2]).collect();
        let mut rf = RandomForest::new(
            RandomForestParams { n_trees: 6, ..Default::default() },
            vec![FeatureKind::Continuous; 3],
        );
        rf.fit(&x, &y);
        let baseline = vec![0.5, 0.5, 0.5];
        let probe = vec![0.9, 0.2, 0.7];

        // Brute force: φ_j = Σ_S (|S|!(d−|S|−1)!/d!)(f(S∪j) − f(S)).
        let d = 3usize;
        let eval = |mask: u32| -> f64 {
            let cfg: Vec<f64> =
                (0..d).map(|j| if mask & (1 << j) != 0 { probe[j] } else { baseline[j] }).collect();
            rf.predict(&cfg)
        };
        let fact = |k: usize| -> f64 { (1..=k).product::<usize>().max(1) as f64 };
        let mut brute = vec![0.0; d];
        for (j, slot) in brute.iter_mut().enumerate() {
            for mask in 0u32..(1 << d) {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let s = mask.count_ones() as usize;
                let weight = fact(s) * fact(d - s - 1) / fact(d);
                *slot += weight * (eval(mask | (1 << j)) - eval(mask));
            }
        }

        let fast = tree_shap_values(&rf, &baseline, &probe);
        for (b, f) in brute.iter().zip(&fast) {
            assert!((b - f).abs() < 1e-9, "TreeSHAP mismatch: {brute:?} vs {fast:?}");
        }
    }

    #[test]
    fn tree_shap_efficiency_property_holds() {
        let mut rng = StdRng::seed_from_u64(9);
        let x: Vec<Vec<f64>> =
            (0..150).map(|_| (0..5).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| r.iter().sum::<f64>() + r[0] * r[1]).collect();
        let mut rf =
            RandomForest::new(RandomForestParams::default(), vec![FeatureKind::Continuous; 5]);
        rf.fit(&x, &y);
        let baseline = vec![0.5; 5];
        let probe = vec![0.1, 0.9, 0.3, 0.7, 0.2];
        let phi = tree_shap_values(&rf, &baseline, &probe);
        let total: f64 = phi.iter().sum();
        let expect = rf.predict(&probe) - rf.predict(&baseline);
        assert!((total - expect).abs() < 1e-9, "efficiency violated: {total} vs {expect}");
    }

    #[test]
    fn shap_efficiency_property_holds() {
        // Σφ must equal f(x) − f(baseline) for the permutation estimator.
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> =
            (0..200).map(|_| (0..3).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| 4.0 * r[0] - 2.0 * r[1] * r[2]).collect();
        let mut rf =
            RandomForest::new(RandomForestParams::default(), vec![FeatureKind::Continuous; 3]);
        rf.fit(&x, &y);
        let baseline = vec![0.5, 0.5, 0.5];
        let probe = vec![0.9, 0.1, 0.8];
        let phi = shap_values(&rf, &baseline, &probe, 16, &mut rng);
        let total: f64 = phi.iter().sum();
        let expect = rf.predict(&probe) - rf.predict(&baseline);
        assert!((total - expect).abs() < 1e-9, "efficiency violated: {total} vs {expect}");
    }

    #[test]
    fn shap_prefers_tunable_knob_over_high_variance_trap() {
        // Trap knob: enormous variance, but moving from the default only
        // hurts. Tunable knob: moderate variance, positive gains.
        let specs = vec![
            KnobSpec::real("tunable", 0.0, 1.0, false, 0.0),
            KnobSpec::real("trap", 0.0, 1.0, false, 0.5),
        ];
        let default = vec![0.0, 0.5];
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<f64> =
            x.iter().map(|r| 3.0 * r[0] - 30.0 * (r[1] - 0.5) * (r[1] - 0.5)).collect();
        let m = ShapImportance::default();
        let shap_scores =
            m.scores(&ImportanceInput { specs: &specs, default: &default, x: &x, y: &y, seed: 7 });
        assert_eq!(
            top_k(&shap_scores, 1),
            vec![0],
            "SHAP must prefer the tunable knob: {shap_scores:?}"
        );

        // Contrast: a pure variance measure ranks the trap first (fANOVA
        // measures variance fractions directly).
        let fanova = super::super::fanova::FanovaImportance::default();
        let fanova_scores = fanova.scores(&ImportanceInput {
            specs: &specs,
            default: &default,
            x: &x,
            y: &y,
            seed: 7,
        });
        assert_eq!(
            top_k(&fanova_scores, 1),
            vec![1],
            "the trap knob should dominate variance: {fanova_scores:?}"
        );
    }

    #[test]
    fn shap_scores_are_nonnegative() {
        let specs =
            vec![KnobSpec::real("a", 0.0, 1.0, false, 0.5), KnobSpec::cat("c", vec!["x", "y"], 0)];
        let default = vec![0.5, 0.0];
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> =
            (0..150).map(|_| vec![rng.gen::<f64>(), rng.gen_range(0..2) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] + r[1]).collect();
        let m = ShapImportance { n_explained: 16, ..Default::default() };
        let scores =
            m.scores(&ImportanceInput { specs: &specs, default: &default, x: &x, y: &y, seed: 0 });
        assert!(scores.iter().all(|&s| s >= 0.0));
        assert!(scores.iter().any(|&s| s > 0.0));
    }
}
