//! The configuration-optimization module: Table 3's seven optimizers plus
//! a random-search control, all behind one [`Optimizer`] trait.
//!
//! Every optimizer works in *maximize* orientation — the tuning driver
//! negates latency objectives before they get here — and receives raw
//! (decoded) subspace configurations.

use crate::space::ConfigSpace;
use rand::rngs::StdRng;

pub mod bo;
pub mod ddpg;
pub mod ga;
pub mod grid;
pub mod random;
pub mod smac;
pub mod tpe;
pub mod turbo;

pub use bo::{Acquisition, BoKind, BoOptimizer};
pub use ddpg::{Ddpg, DdpgParams, DdpgWeights};
pub use ga::{Ga, GaParams};
pub use grid::GridSearch;
pub use random::RandomSearch;
pub use smac::{Smac, SmacParams};
pub use tpe::{Tpe, TpeParams};
pub use turbo::{Turbo, TurboParams};

/// Read-only introspection into a model-based optimizer's surrogate,
/// consumed by the optimizer-quality flight recorder (`dbtune-diag`).
///
/// After [`Optimizer::suggest`] returns, [`last_prediction`] exposes the
/// surrogate's predictive `(mean, variance)` at the chosen point — on the
/// oriented score scale, captured *before* the observation is folded in —
/// or `None` when no model scored the suggestion (model-free optimizers,
/// init/random-interleave/fallback paths). Implementations must only
/// *observe*: capturing the prediction may never consume randomness or
/// alter the suggestion stream (the `observer_inertness` suite enforces
/// byte-identical results with diagnostics on or off).
///
/// [`last_prediction`]: SurrogateIntrospect::last_prediction
pub trait SurrogateIntrospect {
    /// Predictive moments at the most recently suggested point, if a
    /// surrogate scored it.
    fn last_prediction(&self) -> Option<(f64, f64)> {
        None
    }
}

/// A sequential configuration optimizer.
///
/// The driver alternates [`Optimizer::suggest`] and [`Optimizer::observe`];
/// scores are maximize-oriented (throughput, or negated latency).
pub trait Optimizer: SurrogateIntrospect {
    /// Short display name (matching the paper's terminology).
    fn name(&self) -> &str;

    /// Proposes the next raw configuration to evaluate.
    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64>;

    /// Reports the outcome of evaluating `cfg`. `metrics` carries the
    /// DBMS-internal metric vector (consumed by DDPG; others ignore it).
    fn observe(&mut self, cfg: &[f64], score: f64, metrics: &[f64]);

    /// Whether the driver should spend the first iterations on LHS
    /// initialization (§4.1 does this for BO-based optimizers only).
    fn wants_lhs_init(&self) -> bool {
        true
    }
}

impl SurrogateIntrospect for Box<dyn Optimizer> {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.as_ref().last_prediction()
    }
}

impl Optimizer for Box<dyn Optimizer> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.as_mut().suggest(rng)
    }

    fn observe(&mut self, cfg: &[f64], score: f64, metrics: &[f64]) {
        self.as_mut().observe(cfg, score, metrics)
    }

    fn wants_lhs_init(&self) -> bool {
        self.as_ref().wants_lhs_init()
    }
}

/// Shared observation storage for model-based optimizers.
#[derive(Clone, Debug, Default)]
pub struct ObsStore {
    /// Raw configurations, evaluation order.
    pub x: Vec<Vec<f64>>,
    /// Maximize-oriented scores.
    pub y: Vec<f64>,
}

impl ObsStore {
    /// Records one observation.
    pub fn push(&mut self, cfg: &[f64], score: f64) {
        self.x.push(cfg.to_vec());
        self.y.push(score);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Index of the best observation so far.
    pub fn best_index(&self) -> Option<usize> {
        self.y.iter().enumerate().max_by(|a, b| crate::ord::cmp_score(a.1, b.1)).map(|(i, _)| i)
    }

    /// Best score so far.
    pub fn best_score(&self) -> Option<f64> {
        self.best_index().map(|i| self.y[i])
    }

    /// Indices of the top-`k` observations by score, best first.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.y.len()).collect();
        idx.sort_by(|&a, &b| crate::ord::cmp_score_desc(&self.y[a], &self.y[b]));
        idx.truncate(k);
        idx
    }
}

/// Identifier for constructing any of the evaluated optimizers uniformly
/// (used by the experiment drivers to sweep Table 7's rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// GP + RBF on the ordinal-encoded unit cube.
    VanillaBo,
    /// GP with Matérn×Hamming mixed kernel.
    MixedKernelBo,
    /// Random-forest surrogate (SMAC).
    Smac,
    /// Tree-structured Parzen estimator.
    Tpe,
    /// Trust-region BO.
    Turbo,
    /// Deep deterministic policy gradient.
    Ddpg,
    /// Genetic algorithm.
    Ga,
    /// Uniform random search (control).
    Random,
    /// Grid search (classic HPO baseline).
    Grid,
}

impl OptimizerKind {
    /// All optimizers of Table 3 (no control).
    pub const PAPER: [OptimizerKind; 7] = [
        OptimizerKind::VanillaBo,
        OptimizerKind::MixedKernelBo,
        OptimizerKind::Smac,
        OptimizerKind::Tpe,
        OptimizerKind::Turbo,
        OptimizerKind::Ddpg,
        OptimizerKind::Ga,
    ];

    /// Paper-style display name.
    pub fn label(self) -> &'static str {
        match self {
            OptimizerKind::VanillaBo => "Vanilla BO",
            OptimizerKind::MixedKernelBo => "Mixed-Kernel BO",
            OptimizerKind::Smac => "SMAC",
            OptimizerKind::Tpe => "TPE",
            OptimizerKind::Turbo => "TuRBO",
            OptimizerKind::Ddpg => "DDPG",
            OptimizerKind::Ga => "GA",
            OptimizerKind::Random => "Random",
            OptimizerKind::Grid => "Grid Search",
        }
    }

    /// Machine-friendly identifier (lowercase, no spaces) for artifact
    /// keys and diagnostic session labels, where [`Self::label`]'s
    /// paper-style names would need quoting.
    pub fn slug(self) -> &'static str {
        match self {
            OptimizerKind::VanillaBo => "vanilla_bo",
            OptimizerKind::MixedKernelBo => "mixed_bo",
            OptimizerKind::Smac => "smac",
            OptimizerKind::Tpe => "tpe",
            OptimizerKind::Turbo => "turbo",
            OptimizerKind::Ddpg => "ddpg",
            OptimizerKind::Ga => "ga",
            OptimizerKind::Random => "random",
            OptimizerKind::Grid => "grid",
        }
    }

    /// Instantiates the optimizer over `space` with a deterministic seed.
    pub fn build(self, space: &ConfigSpace, metrics_dim: usize, seed: u64) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::VanillaBo => Box::new(BoOptimizer::new(space.clone(), BoKind::Vanilla)),
            OptimizerKind::MixedKernelBo => {
                Box::new(BoOptimizer::new(space.clone(), BoKind::Mixed))
            }
            OptimizerKind::Smac => Box::new(Smac::new(space.clone(), SmacParams::default(), seed)),
            OptimizerKind::Tpe => Box::new(Tpe::new(space.clone(), TpeParams::default())),
            OptimizerKind::Turbo => Box::new(Turbo::new(space.clone(), TurboParams::default())),
            OptimizerKind::Ddpg => {
                Box::new(Ddpg::new(space.clone(), metrics_dim, DdpgParams::default(), seed))
            }
            OptimizerKind::Ga => Box::new(Ga::new(space.clone(), GaParams::default())),
            OptimizerKind::Random => Box::new(RandomSearch::new(space.clone())),
            OptimizerKind::Grid => Box::new(GridSearch::new(space.clone(), 3, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_store_best_tracking() {
        let mut s = ObsStore::default();
        assert!(s.best_index().is_none());
        s.push(&[1.0], 5.0);
        s.push(&[2.0], 9.0);
        s.push(&[3.0], 7.0);
        assert_eq!(s.best_index(), Some(1));
        assert_eq!(s.best_score(), Some(9.0));
        assert_eq!(s.top_k(2), vec![1, 2]);
    }

    #[test]
    fn kind_labels_are_paper_terms() {
        assert_eq!(OptimizerKind::Smac.label(), "SMAC");
        assert_eq!(OptimizerKind::PAPER.len(), 7);
    }
}
