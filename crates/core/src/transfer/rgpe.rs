//! RGPE (ranking-weighted Gaussian process ensemble, Feurer et al.), the
//! transfer framework of ResTune.
//!
//! One base surrogate is fitted per source task (on task-standardized
//! scores) plus one on the target observations. Ensemble weights come
//! from bootstrapped *ranking loss* on the target observations: a
//! surrogate's weight is the fraction of bootstrap draws in which it
//! misorders the fewest target pairs. Fitting one model per task avoids
//! the poor scaling of a single GP over all pooled observations, and the
//! adaptive weights prevent negative transfer (§7.2): a dissimilar source
//! simply receives weight ≈ 0.

use super::SourceTask;
use crate::acquisition::{expected_improvement, maximize};
use crate::gp::{GaussianProcess, MixedKernel};
use crate::optimizer::{ObsStore, Optimizer, SurrogateIntrospect};
use crate::space::ConfigSpace;
use crate::telemetry;
use dbtune_ml::{RandomForest, RandomForestParams, Regressor, UncertainRegressor};
use rand::rngs::StdRng;
use rand::Rng;

/// Which base surrogate family the ensemble uses — RGPE(Mixed-Kernel BO)
/// vs RGPE(SMAC) in Table 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SurrogateKind {
    /// Matérn×Hamming Gaussian processes.
    MixedGp,
    /// Random forests.
    RandomForest,
}

/// A fitted base surrogate (GP or forest) with a uniform interface.
enum Fitted {
    Gp(GaussianProcess),
    Rf(RandomForest),
}

impl Fitted {
    fn predict(&self, enc_or_raw: &[f64]) -> (f64, f64) {
        match self {
            Fitted::Gp(gp) => gp.predict(enc_or_raw),
            Fitted::Rf(rf) => rf.predict_with_variance(enc_or_raw),
        }
    }
}

/// RGPE-accelerated Bayesian optimizer.
pub struct RgpeOptimizer {
    space: ConfigSpace,
    kind: SurrogateKind,
    base_models: Vec<Fitted>,
    obs: ObsStore,
    seed: u64,
    /// Bootstrap draws for the weight estimate.
    pub n_bootstrap: usize,
    /// Random candidates per acquisition maximization.
    pub n_candidates: usize,
    /// Last computed ensemble weights (base tasks then target) —
    /// diagnostics for the negative-transfer analysis.
    pub last_weights: Vec<f64>,
}

impl RgpeOptimizer {
    /// Builds the optimizer, fitting one base surrogate per source task.
    pub fn new(space: ConfigSpace, kind: SurrogateKind, sources: &[SourceTask], seed: u64) -> Self {
        let mut s = Self {
            space,
            kind,
            base_models: Vec::new(),
            obs: ObsStore::default(),
            seed,
            n_bootstrap: 30,
            n_candidates: 400,
            last_weights: Vec::new(),
        };
        for (i, task) in sources.iter().enumerate() {
            if task.x.len() >= 3 {
                let y = task.standardized_y();
                s.base_models.push(s.fit_surrogate(&task.x, &y, seed ^ (i as u64 + 1)));
            }
        }
        s
    }

    /// The mixed encoding shared by GP surrogates (raw categoricals, unit
    /// numerics).
    fn encode(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter()
            .zip(self.space.specs())
            .map(|(v, s)| if s.domain.is_categorical() { *v } else { s.domain.to_unit(*v) })
            .collect()
    }

    fn fit_surrogate(&self, x: &[Vec<f64>], y: &[f64], seed: u64) -> Fitted {
        match self.kind {
            SurrogateKind::MixedGp => {
                let enc: Vec<Vec<f64>> = x.iter().map(|c| self.encode(c)).collect();
                let kernel = Box::new(MixedKernel {
                    cont_dims: self.space.numeric_dims(),
                    cat_dims: self.space.categorical_dims(),
                    lengthscale: 0.3,
                    hamming_weight: 2.0,
                });
                Fitted::Gp(GaussianProcess::fit_auto(kernel, &enc, y))
            }
            SurrogateKind::RandomForest => {
                let mut rf = RandomForest::new(
                    RandomForestParams::surrogate(self.space.dim(), seed),
                    self.space.feature_kinds(),
                );
                rf.fit(x, y);
                Fitted::Rf(rf)
            }
        }
    }

    fn predict_model(&self, model: &Fitted, raw: &[f64]) -> (f64, f64) {
        match (self.kind, model) {
            (SurrogateKind::MixedGp, m) => m.predict(&self.encode(raw)),
            (SurrogateKind::RandomForest, m) => m.predict(raw),
        }
    }

    /// Bootstrapped ranking-loss weights over `models` (target last).
    /// `target_pred[m][i]` caches model m's mean at target observation i.
    fn rank_weights(&self, target_pred: &[Vec<f64>], rng: &mut StdRng) -> Vec<f64> {
        let n_models = target_pred.len();
        let n = self.obs.len();
        let mut wins = vec![0.0; n_models];
        for _ in 0..self.n_bootstrap {
            let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let mut best_loss = usize::MAX;
            let mut best_models: Vec<usize> = Vec::new();
            for (m, preds) in target_pred.iter().enumerate() {
                let mut loss = 0usize;
                for (ai, &a) in sample.iter().enumerate() {
                    for &b in &sample[ai + 1..] {
                        if a == b {
                            continue;
                        }
                        let truth = self.obs.y[a] < self.obs.y[b];
                        let pred = preds[a] < preds[b];
                        if truth != pred {
                            loss += 1;
                        }
                    }
                }
                if loss < best_loss {
                    best_loss = loss;
                    best_models = vec![m];
                } else if loss == best_loss {
                    best_models.push(m);
                }
            }
            let share = 1.0 / best_models.len() as f64;
            for m in best_models {
                wins[m] += share;
            }
        }
        let total: f64 = wins.iter().sum();
        if total > 0.0 {
            for w in &mut wins {
                *w /= total;
            }
        } else {
            let u = 1.0 / n_models as f64;
            wins.iter_mut().for_each(|w| *w = u);
        }
        wins
    }

    /// The observations recorded so far.
    pub fn observations(&self) -> &ObsStore {
        &self.obs
    }
}

// Model-free family from the quality recorder's viewpoint:
// no surrogate scores the suggestion, so the default `None` applies.
impl SurrogateIntrospect for RgpeOptimizer {}

impl Optimizer for RgpeOptimizer {
    fn name(&self) -> &str {
        match self.kind {
            SurrogateKind::MixedGp => "RGPE (Mixed-Kernel BO)",
            SurrogateKind::RandomForest => "RGPE (SMAC)",
        }
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        if self.obs.len() < 3 {
            return self.space.sample(rng);
        }
        // Standardize the target scores and fit the target surrogate.
        let y_mean = dbtune_linalg::stats::mean(&self.obs.y);
        let y_std = dbtune_linalg::stats::std_dev(&self.obs.y).max(1e-12);
        let yz: Vec<f64> = self.obs.y.iter().map(|v| (v - y_mean) / y_std).collect();
        // Fitting the ensemble: the target surrogate, every model's
        // predictions at the target observations, and the weights.
        let (target_model, weights) = {
            let _fit = telemetry::span("surrogate_fit");
            let target_model = self.fit_surrogate(&self.obs.x, &yz, self.seed ^ 0xbeef);
            let mut preds: Vec<Vec<f64>> = Vec::with_capacity(self.base_models.len() + 1);
            for m in &self.base_models {
                preds.push(self.obs.x.iter().map(|c| self.predict_model(m, c).0).collect());
            }
            preds.push(self.obs.x.iter().map(|c| self.predict_model(&target_model, c).0).collect());
            let weights = self.rank_weights(&preds, rng);
            (target_model, weights)
        };
        self.last_weights = weights.clone();

        let best_z = yz.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        // Ensemble EI over the weighted mixture.
        let all_models: Vec<&Fitted> =
            self.base_models.iter().chain(std::iter::once(&target_model)).collect();
        let incumbents: Vec<Vec<f64>> =
            self.obs.top_k(3).into_iter().map(|i| self.obs.x[i].clone()).collect();
        let _acq_span = telemetry::span("acquisition");
        maximize(
            &self.space,
            |raw| {
                let mut mean = 0.0;
                let mut second = 0.0;
                for (w, m) in weights.iter().zip(&all_models) {
                    if *w < 1e-6 {
                        continue;
                    }
                    let (mu, var) = self.predict_model(m, raw);
                    mean += w * mu;
                    second += w * (var + mu * mu);
                }
                let var = (second - mean * mean).max(1e-12);
                expected_improvement(mean, var, best_z, 0.01)
            },
            &incumbents,
            self.n_candidates,
            rng,
        )
    }

    fn observe(&mut self, cfg: &[f64], score: f64, _metrics: &[f64]) {
        self.obs.push(cfg, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::SeedableRng;

    fn space1() -> ConfigSpace {
        ConfigSpace::new(vec![KnobSpec::real("x", 0.0, 1.0, false, 0.5)])
    }

    fn task_from(f: impl Fn(f64) -> f64, n: usize, name: &str) -> SourceTask {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|c| f(c[0])).collect();
        SourceTask { name: name.into(), x, y, metrics: vec![] }
    }

    fn run(mut opt: RgpeOptimizer, f: impl Fn(f64) -> f64, iters: usize) -> (f64, RgpeOptimizer) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..iters {
            let cfg = opt.suggest(&mut rng);
            let y = f(cfg[0]);
            best = best.max(y);
            opt.observe(&cfg, y, &[]);
        }
        (best, opt)
    }

    #[test]
    fn similar_source_accelerates_target() {
        // Source ≈ target (optimum at 0.8): RGPE should find it quickly.
        let source = task_from(|x| -(x - 0.8f64).powi(2), 30, "similar");
        let opt = RgpeOptimizer::new(space1(), SurrogateKind::MixedGp, &[source], 1);
        let (best, _) = run(opt, |x| -(x - 0.8f64).powi(2), 12);
        assert!(best > -0.01, "transfer failed: {best}");
    }

    #[test]
    fn dissimilar_source_gets_down_weighted() {
        // Source optimum at 0.0, target at 1.0 with inverted ordering.
        let source = task_from(|x| -x, 30, "adversarial");
        let opt = RgpeOptimizer::new(space1(), SurrogateKind::MixedGp, &[source], 2);
        let (best, opt) = run(opt, |x| x, 25);
        assert!(best > 0.9, "negative transfer not avoided: {best}");
        // After enough target evidence the adversarial source should hold
        // little weight (last weight entry is the target model).
        let w = &opt.last_weights;
        assert_eq!(w.len(), 2);
        assert!(w[1] > w[0], "target model should dominate: {w:?}");
    }

    #[test]
    fn rf_surrogate_kind_works() {
        let source = task_from(|x| -(x - 0.3f64).powi(2), 30, "s");
        let opt = RgpeOptimizer::new(space1(), SurrogateKind::RandomForest, &[source], 3);
        let (best, _) = run(opt, |x| -(x - 0.3f64).powi(2), 20);
        assert!(best > -0.02, "RGPE(RF) failed: {best}");
    }

    #[test]
    fn weights_form_probability_simplex() {
        let s1 = task_from(|x| x, 20, "a");
        let s2 = task_from(|x| -x, 20, "b");
        let opt = RgpeOptimizer::new(space1(), SurrogateKind::MixedGp, &[s1, s2], 4);
        let (_, opt) = run(opt, |x| (x * 6.0).sin(), 10);
        let w = &opt.last_weights;
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&v| v >= 0.0));
    }
}
