//! Outside-in timing wrappers around the two traits a tuning session
//! talks through. Each times the calls it forwards and changes nothing
//! else, so a wrapped session returns the same results as a bare one.

use dbtune_core::optimizer::{Optimizer, SurrogateIntrospect};
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{EvalResult, SimObjective};
use dbtune_dbsim::Objective;
use rand::rngs::StdRng;
use std::time::Instant;

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// What a [`TimedObjective`] saw.
#[derive(Clone, Debug, Default)]
pub struct EvalLog {
    /// Think time before each `evaluate` call, in nanoseconds: from the
    /// previous call returning (or, for the first call, from the wrapper's
    /// creation) to this call.
    pub decide_ns: Vec<u64>,
    /// Duration of each `evaluate` call, in nanoseconds.
    pub evaluate_ns: Vec<u64>,
    /// From the last call returning (or the wrapper's creation) to
    /// [`TimedObjective::into_parts`], in nanoseconds.
    pub tail_ns: u64,
    /// The first evaluated configurations, up to the capture limit.
    pub configs: Vec<Vec<f64>>,
}

/// A [`SimObjective`] wrapper that timestamps every `evaluate` call.
pub struct TimedObjective<O> {
    inner: O,
    last_return: Instant,
    capture_limit: usize,
    log: EvalLog,
}

impl<O: SimObjective> TimedObjective<O> {
    /// Wraps `inner`; the first think-time sample starts now. The first
    /// `capture_limit` evaluated configurations are kept for replay.
    pub fn new(inner: O, capture_limit: usize) -> Self {
        Self { inner, last_return: Instant::now(), capture_limit, log: EvalLog::default() }
    }

    /// The wrapped objective and the collected log, whose tail ends now.
    pub fn into_parts(mut self) -> (O, EvalLog) {
        self.log.tail_ns = nanos_between(self.last_return, Instant::now());
        (self.inner, self.log)
    }
}

impl<O: SimObjective> SimObjective for TimedObjective<O> {
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult {
        let start = Instant::now();
        self.log.decide_ns.push(nanos_between(self.last_return, start));
        let res = self.inner.evaluate(full_cfg);
        let end = Instant::now();
        self.log.evaluate_ns.push(nanos_between(start, end));
        self.last_return = end;
        if self.log.configs.len() < self.capture_limit {
            self.log.configs.push(full_cfg.to_vec());
        }
        res
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn reference_value(&self, full_cfg: &[f64]) -> f64 {
        self.inner.reference_value(full_cfg)
    }

    fn eval_cursor(&self) -> u64 {
        self.inner.eval_cursor()
    }

    fn seek_eval_cursor(&mut self, cursor: u64) {
        self.inner.seek_eval_cursor(cursor)
    }

    fn optimum_value(&self, space: &TuningSpace) -> Option<f64> {
        self.inner.optimum_value(space)
    }

    fn last_failure_was_transient(&self) -> bool {
        self.inner.last_failure_was_transient()
    }
}

/// An [`Optimizer`] wrapper that sums the time spent in `suggest` and
/// `observe`.
pub struct TimedOptimizer<O> {
    inner: O,
    /// Total nanoseconds inside `suggest`.
    pub suggest_ns: u64,
    /// Total nanoseconds inside `observe`.
    pub observe_ns: u64,
}

impl<O: Optimizer> TimedOptimizer<O> {
    /// Wraps `inner` with zeroed totals.
    pub fn new(inner: O) -> Self {
        Self { inner, suggest_ns: 0, observe_ns: 0 }
    }
}

impl<O: Optimizer> SurrogateIntrospect for TimedOptimizer<O> {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.inner.last_prediction()
    }
}

impl<O: Optimizer> Optimizer for TimedOptimizer<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let start = Instant::now();
        let cfg = self.inner.suggest(rng);
        self.suggest_ns += nanos_between(start, Instant::now());
        cfg
    }

    fn observe(&mut self, cfg: &[f64], score: f64, metrics: &[f64]) {
        let start = Instant::now();
        self.inner.observe(cfg, score, metrics);
        self.observe_ns += nanos_between(start, Instant::now());
    }

    fn wants_lhs_init(&self) -> bool {
        self.inner.wants_lhs_init()
    }
}
