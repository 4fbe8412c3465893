//! Determinism guarantees of the parallel executor (`dbtune_core::exec`):
//! a grid of tuning sessions must produce bit-identical results for any
//! worker count, and with the shared evaluation cache on or off.
//!
//! These are the invariants every figure/table driver in `dbtune-bench`
//! relies on when it accepts `workers=` / `cache=` flags. A session on a
//! bare simulator is the same evaluation path: it equals one through the
//! uncached adapter with the simulator's own seed.

use dbtune_core::exec::{cell_seed, run_grid, CachedObjective, EvalCache};
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{run_session, SessionConfig, SessionResult};
use dbtune_dbsim::{DbSimulator, Hardware, Workload, METRICS_DIM};
use std::sync::Arc;

const NOISE_SEED: u64 = 9001;

/// One cell: (workload, optimizer, session seed). Seeds are shared
/// across optimizers (like the figure drivers do), so two sessions on
/// the same workload evaluate the same LHS-init configs — that overlap
/// is what the shared cache deduplicates.
fn cells() -> Vec<(Workload, OptimizerKind, u64)> {
    let mut out = Vec::new();
    for &wl in &[Workload::Sysbench, Workload::Smallbank] {
        for &opt in &[OptimizerKind::Smac, OptimizerKind::Tpe] {
            for s in 0..2u64 {
                out.push((wl, opt, cell_seed(31, 0) % 1000 + s));
            }
        }
    }
    out
}

fn run_cells(workers: usize, cache: Option<Arc<EvalCache>>) -> Vec<SessionResult> {
    let grid = cells();
    run_grid(&grid, workers, |_, &(wl, opt_kind, seed)| {
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        // A small fixed space keeps the suite fast while still crossing
        // the crash-prone region (buffer pool is knob 0).
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = CachedObjective::new(sim, cache.clone(), NOISE_SEED);
        run_session(
            &mut obj,
            &space,
            &mut opt,
            &SessionConfig { iterations: 14, lhs_init: 6, seed, ..Default::default() },
        )
    })
}

/// Everything deterministic about a session, bit-exact. Excludes
/// `overhead_secs` (wall-clock, legitimately varies run to run).
fn digest(results: &[SessionResult]) -> Vec<Vec<u64>> {
    results
        .iter()
        .map(|r| {
            let mut words: Vec<u64> = Vec::new();
            words.push(r.observations.len() as u64);
            for o in &r.observations {
                words.extend(o.config.iter().map(|v| v.to_bits()));
                words.push(o.value.to_bits());
                words.push(o.score.to_bits());
                words.push(o.failed as u64);
                words.extend(o.metrics.iter().map(|v| v.to_bits()));
            }
            words.extend(r.best_score_trace.iter().map(|v| v.to_bits()));
            words.push(r.default_value.to_bits());
            words.push(r.simulated_secs.to_bits());
            words
        })
        .collect()
}

#[test]
fn grid_results_identical_for_any_worker_count() {
    let serial = digest(&run_cells(1, Some(EvalCache::shared())));
    for workers in [2, 8] {
        let parallel = digest(&run_cells(workers, Some(EvalCache::shared())));
        assert_eq!(
            serial, parallel,
            "results with {workers} workers must be bit-identical to sequential"
        );
    }
}

#[test]
fn cache_on_and_off_agree() {
    let without = digest(&run_cells(4, None));
    let cache = EvalCache::shared();
    let with = digest(&run_cells(4, Some(cache.clone())));
    assert_eq!(without, with, "the cache must only memoize, never change results");

    // The counters themselves are deterministic: every evaluation is a
    // hit or a miss, and misses are exactly the distinct keys.
    let stats = cache.stats();
    assert!(stats.hits > 0, "repeated seeds across optimizers must produce cache hits");
    assert_eq!(stats.misses, stats.entries);
    let total: usize = cells().len() * 14;
    assert_eq!((stats.hits + stats.misses) as usize, total);
}

#[test]
fn shared_and_private_caches_agree() {
    // One cache per cell (nothing shared) vs one cache for the grid:
    // sharing may only convert misses into hits.
    let shared_cache = EvalCache::shared();
    let shared = digest(&run_cells(4, Some(shared_cache.clone())));
    let grid = cells();
    let private = digest(&run_grid(&grid, 4, |_, &(wl, opt_kind, seed)| {
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = CachedObjective::new(sim, Some(EvalCache::shared()), NOISE_SEED);
        run_session(
            &mut obj,
            &space,
            &mut opt,
            &SessionConfig { iterations: 14, lhs_init: 6, seed, ..Default::default() },
        )
    }));
    assert_eq!(shared, private, "cache sharing must not change any session's results");
}

#[test]
fn bare_simulator_session_equals_uncached_adapter_session() {
    let run = |opt_kind: OptimizerKind, wl: Workload, seed: u64, bare: bool| {
        let mut sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let session = SessionConfig { iterations: 14, lhs_init: 6, seed, ..Default::default() };
        if bare {
            run_session(&mut sim, &space, &mut opt, &session)
        } else {
            let mut obj = CachedObjective::new(&sim, None, sim.noise_seed());
            run_session(&mut obj, &space, &mut opt, &session)
        }
    };
    for (opt_kind, wl, seed) in
        [(OptimizerKind::Smac, Workload::Sysbench, 3), (OptimizerKind::Ga, Workload::Job, 4)]
    {
        let bare = run(opt_kind, wl, seed, true);
        let adapted = run(opt_kind, wl, seed, false);
        assert_eq!(digest(&[bare]), digest(&[adapted]), "{opt_kind:?} on {wl:?}");
    }
}
