//! Incremental knob selection (§5.3, Figure 6): instead of fixing the
//! tuning space up front, grow it (OtterTune) or shrink it (Tuneful) as
//! the session progresses.
//!
//! [`IncrementalOptimizer`] is an ordinary [`Optimizer`] over the union of
//! every phase's knobs ([`session_space`]), so an incremental session runs
//! in the one session loop, [`crate::tuner::run_session`], and shares its
//! failure policies, fault tagging, diag records and checkpoints. Phase
//! `k` tunes the first `k` knobs of the importance ranking. At every phase
//! boundary a fresh phase optimizer is re-seeded with the history
//! projected onto its knobs, and its suggestions are padded with the base
//! values of the knobs outside the phase.

use crate::optimizer::{Optimizer, SurrogateIntrospect};
use crate::sampling;
use crate::space::{ConfigSpace, TuningSpace};
use dbtune_dbsim::KnobCatalog;
use rand::rngs::StdRng;

/// How the number of tuning knobs evolves over the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncrementalStrategy {
    /// OtterTune: start small, add knobs (in importance order) over time.
    Increase {
        /// Initial number of knobs.
        start: usize,
        /// Knobs added per phase.
        step: usize,
        /// Iterations per phase.
        every: usize,
        /// Ceiling on the knob count.
        cap: usize,
    },
    /// Tuneful: start large, drop the least important knobs over time.
    Decrease {
        /// Initial number of knobs.
        start: usize,
        /// Knobs removed per phase.
        step: usize,
        /// Iterations per phase.
        every: usize,
        /// Floor on the knob count.
        floor: usize,
    },
}

impl IncrementalStrategy {
    /// Number of knobs in use after `observed` observations.
    pub fn knobs_at(&self, observed: usize) -> usize {
        match *self {
            IncrementalStrategy::Increase { start, step, every, cap } => {
                (start + step * (observed / every)).min(cap)
            }
            IncrementalStrategy::Decrease { start, step, every, floor } => {
                start.saturating_sub(step * (observed / every)).max(floor)
            }
        }
    }

    /// The most knobs any phase tunes.
    pub fn widest(&self) -> usize {
        match *self {
            IncrementalStrategy::Increase { start, step, cap, .. } => {
                if step == 0 {
                    start.min(cap)
                } else {
                    cap
                }
            }
            IncrementalStrategy::Decrease { start, floor, .. } => start.max(floor),
        }
    }
}

/// The session space of an incremental session: the union of every
/// phase's knobs, which is the [`IncrementalStrategy::widest`] prefix of
/// `ranked` (most important first), over the full-length `base`.
pub fn session_space(
    catalog: &KnobCatalog,
    base: Vec<f64>,
    ranked: &[usize],
    strategy: IncrementalStrategy,
) -> TuningSpace {
    let widest = strategy.widest().clamp(1, ranked.len());
    TuningSpace::new(catalog, ranked[..widest].to_vec(), base)
}

/// An optimizer whose knob set follows an [`IncrementalStrategy`].
///
/// It works in the coordinates of [`session_space`]; phase `k` owns the
/// first `k` of them. The phase schedule advances with the observations
/// the adapter has received, not with `suggest` calls: quarantine re-draws
/// call `suggest` several times per iteration, and
/// [`crate::tuner::FailurePolicy::Discard`] skips `observe`.
///
/// The first phase opens with the §4.1 initial design drawn in its own
/// space (when its optimizer wants one). The adapter therefore reports
/// [`Optimizer::wants_lhs_init`] as `false`: a design drawn by the session
/// would span the union space. Each design point is handed out once; the
/// phase optimizer is asked only after the design is spent.
pub struct IncrementalOptimizer<'a> {
    space: ConfigSpace,
    base: Vec<f64>,
    strategy: IncrementalStrategy,
    make_opt: &'a dyn Fn(&ConfigSpace, u64) -> Box<dyn Optimizer>,
    seed: u64,
    lhs_init: usize,
    /// Knob count of the current phase.
    knobs: usize,
    phase: Box<dyn Optimizer>,
    /// The unspent initial design; `None` until the first `suggest`.
    design: Option<std::vec::IntoIter<Vec<f64>>>,
    /// Observed configurations (session coordinates) and scores.
    history: Vec<(Vec<f64>, f64)>,
}

impl<'a> IncrementalOptimizer<'a> {
    /// An adapter over `space` (from [`session_space`]). `make_opt` builds
    /// each phase's optimizer, seeded with `seed` XOR the number of
    /// observations at the phase boundary; `lhs_init` is the first phase's
    /// initial-design length.
    pub fn new(
        space: &TuningSpace,
        strategy: IncrementalStrategy,
        make_opt: &'a dyn Fn(&ConfigSpace, u64) -> Box<dyn Optimizer>,
        seed: u64,
        lhs_init: usize,
    ) -> Self {
        let knobs = strategy.knobs_at(0).clamp(1, space.dim());
        let phase = make_opt(&phase_space(space.space(), knobs), seed);
        Self {
            space: space.space().clone(),
            base: space.default_sub(),
            strategy,
            make_opt,
            seed,
            lhs_init,
            knobs,
            phase,
            design: None,
            history: Vec::new(),
        }
    }

    /// Moves to the phase the observation count calls for, replaying the
    /// history into a fresh phase optimizer when the knob count changes.
    fn sync_phase(&mut self) {
        let observed = self.history.len();
        let knobs = self.strategy.knobs_at(observed).clamp(1, self.space.dim());
        if knobs == self.knobs {
            return;
        }
        self.knobs = knobs;
        self.phase = (self.make_opt)(&phase_space(&self.space, knobs), self.seed ^ observed as u64);
        for (cfg, score) in &self.history {
            self.phase.observe(&cfg[..knobs], *score, &[]);
        }
    }
}

/// The space of the phase that tunes the first `knobs` coordinates.
fn phase_space(space: &ConfigSpace, knobs: usize) -> ConfigSpace {
    ConfigSpace::new(space.specs()[..knobs].to_vec())
}

impl SurrogateIntrospect for IncrementalOptimizer<'_> {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.phase.last_prediction()
    }
}

impl Optimizer for IncrementalOptimizer<'_> {
    fn name(&self) -> &str {
        self.phase.name()
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.sync_phase();
        let design = self.design.get_or_insert_with(|| {
            let n = if self.phase.wants_lhs_init() { self.lhs_init } else { 0 };
            let first_phase = phase_space(&self.space, self.knobs);
            let points = if n > 0 { sampling::lhs(&first_phase, n, rng) } else { Vec::new() };
            points.into_iter()
        });
        let sub = design.next().unwrap_or_else(|| self.phase.suggest(rng));
        let mut cfg = self.base.clone();
        cfg[..sub.len()].copy_from_slice(&sub);
        cfg
    }

    fn observe(&mut self, cfg: &[f64], score: f64, metrics: &[f64]) {
        self.phase.observe(&cfg[..self.knobs], score, metrics);
        self.history.push((cfg.to_vec(), score));
    }

    fn wants_lhs_init(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Smac, SmacParams};
    use crate::tuner::{run_session, SessionConfig};
    use dbtune_dbsim::{DbSimulator, Hardware, Workload};
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn strategy_schedules_knob_counts() {
        let inc = IncrementalStrategy::Increase { start: 4, step: 2, every: 10, cap: 10 };
        assert_eq!(inc.knobs_at(0), 4);
        assert_eq!(inc.knobs_at(9), 4);
        assert_eq!(inc.knobs_at(10), 6);
        assert_eq!(inc.knobs_at(100), 10);
        assert_eq!(inc.widest(), 10);
        let dec = IncrementalStrategy::Decrease { start: 10, step: 3, every: 5, floor: 4 };
        assert_eq!(dec.knobs_at(0), 10);
        assert_eq!(dec.knobs_at(5), 7);
        assert_eq!(dec.knobs_at(10), 4);
        assert_eq!(dec.knobs_at(50), 4);
        assert_eq!(dec.widest(), 10);
        let fixed = IncrementalStrategy::Increase { start: 5, step: 0, every: 120, cap: 5 };
        assert_eq!(fixed.widest(), 5);
    }

    fn ranked(cat: &KnobCatalog) -> Vec<usize> {
        [
            "innodb_flush_log_at_trx_commit",
            "sync_binlog",
            "innodb_log_file_size",
            "innodb_io_capacity",
            "innodb_doublewrite",
            "innodb_thread_concurrency",
            "innodb_flush_neighbors",
        ]
        .iter()
        .filter_map(|n| cat.index_of(n))
        .collect()
    }

    #[test]
    fn incremental_session_runs_and_improves() {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 9);
        let cat = sim.catalog().clone();
        let ranked = ranked(&cat);
        let strategy =
            IncrementalStrategy::Increase { start: 3, step: 2, every: 15, cap: ranked.len() };
        let make_opt = |space: &ConfigSpace, seed: u64| -> Box<dyn Optimizer> {
            Box::new(Smac::new(
                space.clone(),
                SmacParams { n_candidates: 100, ..Default::default() },
                seed,
            ))
        };
        let space = session_space(&cat, cat.default_config(Hardware::B), &ranked, strategy);
        let mut opt = IncrementalOptimizer::new(&space, strategy, &make_opt, 11, 5);
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 45, lhs_init: 5, seed: 11, ..Default::default() },
        );
        assert_eq!(result.observations.len(), 45);
        assert!(result.best_improvement() > 0.2, "improvement {}", result.best_improvement());
        for w in result.best_score_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    /// A phase optimizer that samples uniformly and logs, for every
    /// `suggest`, its dimension and how many observations it holds.
    struct Counting {
        space: ConfigSpace,
        observed: usize,
        log: Rc<RefCell<Vec<(usize, usize)>>>,
    }

    impl SurrogateIntrospect for Counting {}

    impl Optimizer for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
            self.log.borrow_mut().push((self.space.dim(), self.observed));
            self.space.sample(rng)
        }

        fn observe(&mut self, _cfg: &[f64], _score: f64, _metrics: &[f64]) {
            self.observed += 1;
        }
    }

    #[test]
    fn first_phase_opens_with_an_lhs_design_in_its_own_space() {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 9);
        let cat = sim.catalog().clone();
        let ranked = ranked(&cat);
        let strategy = IncrementalStrategy::Increase { start: 2, step: 2, every: 8, cap: 6 };
        let log = Rc::new(RefCell::new(Vec::new()));
        let make_opt = |space: &ConfigSpace, _seed: u64| -> Box<dyn Optimizer> {
            Box::new(Counting { space: space.clone(), observed: 0, log: log.clone() })
        };
        let space = session_space(&cat, cat.default_config(Hardware::B), &ranked, strategy);
        assert_eq!(space.dim(), 6);
        let (lhs_init, seed) = (5, 3);
        let mut opt = IncrementalOptimizer::new(&space, strategy, &make_opt, seed, lhs_init);
        let cfg = SessionConfig { iterations: 20, lhs_init, seed, ..Default::default() };
        let result = run_session(&mut sim, &space, &mut opt, &cfg);

        // The session draws (and, for this adapter, leaves unused) a
        // one-point design of its own before the first suggest; the
        // adapter's design follows on the same stream.
        let mut rng = StdRng::seed_from_u64(seed);
        sampling::lhs(space.space(), 1, &mut rng);
        let design = sampling::lhs(&phase_space(space.space(), 2), lhs_init, &mut rng);
        let base = space.default_sub();
        for (it, obs) in result.observations.iter().enumerate() {
            let phase_knobs = strategy.knobs_at(it);
            if it < lhs_init {
                assert_eq!(obs.config[..2], design[it][..], "iteration {it} is design point {it}");
            }
            assert_eq!(
                obs.config[phase_knobs..],
                base[phase_knobs..],
                "iteration {it}: knobs outside the phase stay at their base values"
            );
        }

        // One phase-optimizer suggest per iteration after the design, the
        // first at iteration `lhs_init`; later phases start with the
        // replayed history.
        let log = log.borrow();
        assert_eq!(log.len(), cfg.iterations - lhs_init);
        assert_eq!(log[0], (2, lhs_init));
        let firsts: Vec<(usize, usize)> =
            log.windows(2).filter(|w| w[0].0 != w[1].0).map(|w| w[1]).collect();
        assert_eq!(firsts, vec![(4, 8), (6, 16)]);
    }

    #[test]
    fn each_phase_optimizer_is_seeded_with_seed_xor_its_boundary() {
        let seed = 3;
        for (strategy, boundaries) in [
            (IncrementalStrategy::Increase { start: 2, step: 2, every: 8, cap: 6 }, [8, 16]),
            (IncrementalStrategy::Decrease { start: 6, step: 2, every: 7, floor: 2 }, [7, 14]),
        ] {
            let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 9);
            let cat = sim.catalog().clone();
            let seeds = RefCell::new(Vec::new());
            let log = Rc::new(RefCell::new(Vec::new()));
            let make_opt = |space: &ConfigSpace, s: u64| -> Box<dyn Optimizer> {
                seeds.borrow_mut().push(s);
                Box::new(Counting { space: space.clone(), observed: 0, log: log.clone() })
            };
            let space =
                session_space(&cat, cat.default_config(Hardware::B), &ranked(&cat), strategy);
            let mut opt = IncrementalOptimizer::new(&space, strategy, &make_opt, seed, 5);
            let cfg = SessionConfig { iterations: 20, lhs_init: 5, seed, ..Default::default() };
            run_session(&mut sim, &space, &mut opt, &cfg);

            for b in boundaries {
                assert_ne!(strategy.knobs_at(b - 1), strategy.knobs_at(b), "{b} is a boundary");
            }
            let [b1, b2] = boundaries.map(|b| b as u64);
            assert_eq!(*seeds.borrow(), vec![seed, seed ^ b1, seed ^ b2], "{strategy:?}");
        }
    }
}
