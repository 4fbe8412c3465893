//! Bitwise reference for Grid Search's lazy pass queue.
//!
//! `EagerGrid` is the queue `GridSearch` replaced: each refill decodes
//! every point of the pass into a configuration, shuffles the decoded
//! points, drops each one equal to its predecessor, and suggestions pop
//! from the back. `GridSearch` keeps a pass as level indices and the
//! shuffled visit order, decodes a point only when it proposes it, and
//! consumes the run of equal points before it. Both must propose the same
//! configurations, compared by bits, pass after pass.
//!
//! The inputs make the differences show. Two 12-knob catalog spaces take
//! the sampled path: the first twelve catalog knobs, and twelve OFF/ON
//! knobs, whose levels decode to two values each, so equal neighbours
//! (dedup runs) occur. A small enumerated lattice is refined until it
//! outgrows the enumeration limit and is sampled too. A one-knob integer
//! space over [-1, 1] decodes some levels to -0.0 and others to +0.0,
//! which compare equal but differ in bits, so the choice of which point of
//! a run to keep shows.

use dbtune_core::optimizer::grid::GridSearch;
use dbtune_core::optimizer::Optimizer;
use dbtune_core::space::{ConfigSpace, TuningSpace};
use dbtune_dbsim::knob::KnobSpec;
use dbtune_dbsim::{Hardware, KnobCatalog};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Lattice points a pass enumerates at most; larger lattices are sampled.
const MAX_POINTS_PER_PASS: usize = 4096;

/// The eager queue: every pass decoded, shuffled and deduplicated up front.
struct EagerGrid {
    space: ConfigSpace,
    levels: usize,
    queue: Vec<Vec<f64>>,
    seed: u64,
    /// Points dedup dropped, over every pass so far.
    dropped: usize,
}

impl EagerGrid {
    fn new(space: ConfigSpace, initial_levels: usize, seed: u64) -> Self {
        Self { space, levels: initial_levels, queue: Vec::new(), seed, dropped: 0 }
    }

    fn refill(&mut self) {
        let d = self.space.dim();
        let levels = self.levels;
        let total = (levels as f64).powi(d as i32);
        let mut rng = StdRng::seed_from_u64(self.seed ^ (levels as u64) << 32);

        let mut points: Vec<Vec<f64>> = Vec::new();
        if total <= MAX_POINTS_PER_PASS as f64 {
            let n = (levels as u64).pow(d as u32);
            for mut code in 0..n {
                let mut unit = Vec::with_capacity(d);
                for _ in 0..d {
                    let level = (code % levels as u64) as f64;
                    unit.push(level / (levels - 1) as f64);
                    code /= levels as u64;
                }
                points.push(self.space.from_unit(&unit));
            }
        } else {
            for _ in 0..MAX_POINTS_PER_PASS {
                let unit: Vec<f64> =
                    (0..d).map(|_| rng.gen_range(0..levels) as f64 / (levels - 1) as f64).collect();
                points.push(self.space.from_unit(&unit));
            }
        }
        points.shuffle(&mut rng);
        let before = points.len();
        points.dedup();
        self.dropped += before - points.len();
        self.queue = points;
        self.levels += 1;
    }

    fn suggest(&mut self) -> Vec<f64> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop().expect("refill produced points")
    }
}

fn bits(cfg: &[f64]) -> Vec<u64> {
    cfg.iter().map(|v| v.to_bits()).collect()
}

/// Drives both queues until the reference has refilled `refills` times
/// and drained that last pass too, comparing every suggestion. Returns
/// the reference (for its counters) and the suggestions.
fn run_both(space: ConfigSpace, seed: u64, refills: usize) -> (EagerGrid, Vec<Vec<f64>>) {
    const INITIAL_LEVELS: usize = 3;
    let mut lazy = GridSearch::new(space.clone(), INITIAL_LEVELS, seed);
    let mut eager = EagerGrid::new(space, INITIAL_LEVELS, seed);
    let mut rng = StdRng::seed_from_u64(0);
    let mut seen = Vec::new();
    loop {
        let want = eager.suggest();
        let got = lazy.suggest(&mut rng);
        assert_eq!(bits(&got), bits(&want), "suggestion {} (seed {seed})", seen.len());
        assert_eq!(lazy.levels(), eager.levels, "suggestion {} (seed {seed})", seen.len());
        seen.push(got);
        if eager.levels == INITIAL_LEVELS + refills && eager.queue.is_empty() {
            return (eager, seen);
        }
    }
}

#[test]
fn sampled_passes_match_the_eager_queue() {
    let catalog = KnobCatalog::mysql57();
    // The first twelve catalog knobs (the space perfbench's chaos_sweep
    // tunes), and twelve OFF/ON knobs, whose small lattice image makes
    // equal neighbours common.
    let leading: Vec<usize> = (0..12).collect();
    let switches: Vec<usize> = catalog
        .categorical_indices()
        .into_iter()
        .filter(|&i| catalog.specs()[i].domain.cardinality() == Some(2))
        .take(12)
        .collect();
    assert_eq!(switches.len(), 12);
    for knobs in [leading, switches] {
        let space = TuningSpace::with_default_base(&catalog, knobs.clone(), Hardware::B);
        let mut dropped = 0;
        for seed in [42, 1234] {
            let (eager, seen) = run_both(space.space().clone(), seed, 2);
            assert!(seen.len() > MAX_POINTS_PER_PASS, "two passes must have been proposed");
            dropped += eager.dropped;
        }
        if knobs.iter().all(|&i| catalog.specs()[i].domain.cardinality() == Some(2)) {
            assert!(dropped > 0, "no dedup run to consume");
        }
    }
}

#[test]
fn enumerated_passes_match_the_eager_queue() {
    let space = ConfigSpace::new(vec![
        KnobSpec::int("i", -1, 1, false, 0),
        KnobSpec::cat("c", vec!["a", "b", "c"], 0),
        KnobSpec::real("x", 0.0, 1.0, false, 0.5),
    ]);
    // Levels 3 to 16 enumerate (16³ = 4096 points); level 17 samples.
    let (eager, seen) = run_both(space, 7, 15);
    assert_eq!(eager.levels, 18);
    assert!(eager.dropped > 0, "no dedup run to consume");
    assert!(seen.len() > 18_000);
}

#[test]
fn the_first_point_of_a_run_is_proposed_bit_for_bit() {
    let space = ConfigSpace::new(vec![KnobSpec::int("i", -1, 1, false, 0)]);
    let mut negative_zeros = 0;
    for seed in 0..8 {
        let (eager, seen) = run_both(space.clone(), seed, 20);
        assert!(eager.dropped > 0, "seed {seed}: no dedup run to consume");
        negative_zeros += seen.iter().filter(|c| c[0].to_bits() == (-0.0f64).to_bits()).count();
    }
    assert!(negative_zeros > 0, "no pass proposed -0.0");
}
