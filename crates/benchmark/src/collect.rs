//! Offline training-data collection for the surrogate benchmark.
//!
//! Following Eggensperger et al. (the paper's §8 recipe): run real
//! optimizers to densely sample the *high-performance* regions, and LHS
//! to cover the poorly-performing rest. Failed configurations are kept
//! with the worst-seen score so the surrogate learns where the cliffs
//! are. All data is collected within one simulated instance for a
//! consistent measurement.

use dbtune_core::optimizer::{Optimizer, OptimizerKind};
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{PoolScorer, SimObjective};
use dbtune_dbsim::METRICS_DIM;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A collected `(configuration, score)` sample set over a tuning space.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Raw subspace configurations.
    pub x: Vec<Vec<f64>>,
    /// Maximize-oriented scores.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Collects `n_total` samples: 50% LHS coverage, 50% optimizer-driven
/// (SMAC sessions) densification of good regions.
pub fn collect_samples(
    objective: &mut dyn SimObjective,
    space: &TuningSpace,
    n_total: usize,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // One scorer across both phases: a crash in the optimizer phase takes
    // the worst score of the whole collection so far.
    let mut scorer = PoolScorer::default();

    // Phase 1: LHS coverage.
    let n_lhs = n_total / 2;
    let (mut x, mut y) = scorer.lhs(objective, space, n_lhs.max(1), &mut rng);

    // Phase 2: optimizer-driven densification of good regions.
    let n_opt = n_total - n_lhs;
    let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, seed ^ 0xc0111ec7);
    // Warm-start from the best LHS half so the optimizer heads uphill.
    for (sub, score) in x.iter().zip(&y) {
        opt.observe(sub, *score, &[]);
    }
    for _ in 0..n_opt {
        let sub = opt.suggest(&mut rng);
        let (score, res) = scorer.evaluate(objective, space, &sub);
        opt.observe(&sub, score, &res.metrics);
        x.push(sub);
        y.push(score);
    }
    Dataset { x, y }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::{DbSimulator, Hardware, Workload};

    fn write_space(sim: &DbSimulator) -> TuningSpace {
        let cat = sim.catalog();
        let selected = vec![
            cat.expect_index("innodb_flush_log_at_trx_commit"),
            cat.expect_index("sync_binlog"),
            cat.expect_index("innodb_log_file_size"),
        ];
        TuningSpace::with_default_base(cat, selected, Hardware::B)
    }

    /// FNV-1a over the bit patterns of a dataset's configurations and
    /// scores. The pinned values below were computed on a bare simulator,
    /// whose evaluations draw their noise from the simulator's seed mixed
    /// with each configuration's cache key.
    fn digest(ds: &Dataset) -> (u64, u64) {
        let fnv = |words: &mut dyn Iterator<Item = u64>| {
            words.flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        (
            fnv(&mut ds.x.iter().flatten().map(|v| v.to_bits())),
            fnv(&mut ds.y.iter().map(|v| v.to_bits())),
        )
    }

    #[test]
    fn collects_requested_number_of_samples() {
        let mut sim = DbSimulator::new(Workload::Smallbank, Hardware::B, 17);
        let space = write_space(&sim);
        let ds = collect_samples(&mut sim, &space, 60, 1);
        assert_eq!(ds.len(), 60);
        assert!(ds.x.iter().all(|c| c.len() == 3));
        assert!(ds.y.iter().all(|y| y.is_finite()));
        assert_eq!(digest(&ds), (0xa0a5_7abe_30a8_72e0, 0x8af4_ae5b_cbd4_978a));
    }

    #[test]
    fn optimizer_phase_densifies_good_regions() {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 18);
        let space = write_space(&sim);
        let ds = collect_samples(&mut sim, &space, 80, 2);
        assert_eq!(digest(&ds), (0xf43f_66b5_ee5d_f622, 0x238e_0d6a_723f_9c23));
        // Second half (optimizer-driven) should average better than the
        // LHS half — that's the whole point of densification.
        let half = ds.len() / 2;
        let lhs_mean = dbtune_linalg::stats::mean(&ds.y[..half]);
        let opt_mean = dbtune_linalg::stats::mean(&ds.y[half..]);
        assert!(
            opt_mean > lhs_mean,
            "optimizer phase should find better configs: {lhs_mean} vs {opt_mean}"
        );
    }
}
