//! The tuning-session driver: the iterate–evaluate–observe loop of §2.2,
//! with the paper's experimental conventions baked in (§4.1):
//!
//! * 10 LHS initialization iterations for BO-based optimizers;
//! * failed configurations replaced by the worst performance seen so far
//!   (avoiding surrogate scaling problems);
//! * throughput maximized, 95th-percentile latency minimized (scores are
//!   internally maximize-oriented);
//! * per-iteration algorithm overhead read from the `suggest` and
//!   `observe` spans (model fit + probe), which is what Figure 9 plots;
//! * the session's simulated evaluation cost, summed from each
//!   evaluation's `simulated_secs`.
//!
//! Observation pools (knob selection's LHS pools, the surrogate
//! benchmark's offline collection) score through [`PoolScorer`], the
//! pool form of the same failure rule.

use crate::optimizer::Optimizer;
use crate::sampling;
use crate::space::TuningSpace;
use crate::telemetry::{self, phase_secs, TraceEvent};
pub use dbtune_dbsim::EvalResult;
use dbtune_dbsim::Objective;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Anything a tuning session can optimize against: the live simulator or
/// the cheap surrogate benchmark of §8.
pub trait SimObjective {
    /// Evaluates a full catalog-length configuration.
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult;
    /// Optimization direction.
    fn objective(&self) -> Objective;
    /// Noise-free reference performance of `full_cfg` (used for the
    /// default-configuration baseline in improvement accounting).
    fn reference_value(&self, full_cfg: &[f64]) -> f64;
    /// Position in the backend's evaluation-attempt schedule (see
    /// `CachedObjective`'s fault plan); backends without fault injection
    /// report 0. Persisted in session checkpoints.
    fn eval_cursor(&self) -> u64 {
        0
    }
    /// Realigns the evaluation-attempt schedule after a checkpoint
    /// resume. No-op for backends without fault injection.
    fn seek_eval_cursor(&mut self, _cursor: u64) {}
    /// Noise-free optimum of the objective over the tuned sub-space, on
    /// the raw metric scale — the regret baseline of the quality flight
    /// recorder (`dbtune-diag`). `None` (the default) when no optimum is
    /// known (e.g. surrogate benchmarks); regret fields then stay null.
    fn optimum_value(&self, _space: &TuningSpace) -> Option<f64> {
        None
    }
    /// Whether the most recent [`Self::evaluate`] failure came from an
    /// exhausted transient-fault retry budget rather than a modelled
    /// crash (diag outcome tagging). Backends without fault injection
    /// always report `false`.
    fn last_failure_was_transient(&self) -> bool {
        false
    }
}

/// One evaluated iteration.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Subspace configuration that was evaluated.
    pub config: Vec<f64>,
    /// Raw metric (for failed configs: the substituted worst-seen value).
    pub value: f64,
    /// Maximize-oriented score fed to the optimizer.
    pub score: f64,
    /// Whether the evaluation crashed.
    pub failed: bool,
    /// Internal metrics observed during the evaluation.
    pub metrics: Vec<f64>,
}

/// What to feed the optimizer when a configuration crashes the DBMS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// §4.1: substitute the worst performance seen so far (avoids
    /// surrogate scaling problems). The paper's choice and the default.
    #[default]
    WorstSeen,
    /// Drop the observation entirely (the iteration still consumes
    /// budget). Ablation switch: surrogates never learn where the cliffs
    /// are and keep re-proposing crashing configurations.
    Discard,
    /// Feed a penalized score (one log-unit below the worst *observed*
    /// performance — a cliff the surrogate can model without scale
    /// damage) and remember the crash site: suggestions landing inside a
    /// remembered crash region are re-drawn a bounded number of times
    /// (see [`CrashRegionMemory`]). Robustness mode for flaky or
    /// crash-prone deployments.
    QuarantinePenalty,
}

impl FailurePolicy {
    /// Stable textual name (the checkpoint format's encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            FailurePolicy::WorstSeen => "worst_seen",
            FailurePolicy::Discard => "discard",
            FailurePolicy::QuarantinePenalty => "quarantine_penalty",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "worst_seen" => Ok(FailurePolicy::WorstSeen),
            "discard" => Ok(FailurePolicy::Discard),
            "quarantine_penalty" => Ok(FailurePolicy::QuarantinePenalty),
            other => Err(format!("unknown failure policy `{other}`")),
        }
    }
}

/// Unit-cube L∞ radius of a remembered crash region.
const QUARANTINE_RADIUS: f64 = 0.05;
/// How many times a quarantined suggestion is re-drawn before being
/// accepted anyway (the optimizer may genuinely need to probe the edge).
const QUARANTINE_RESUGGEST: usize = 4;

/// The crash sites a [`FailurePolicy::QuarantinePenalty`] session has
/// seen, in the unit cube of the tuning space. A point is *quarantined*
/// when it lies within L∞ distance 0.05 (`QUARANTINE_RADIUS`) of a
/// remembered crash — the session re-draws such suggestions (boundedly),
/// steering samplers away from known cliffs without carving the region
/// out of the space entirely.
#[derive(Clone, Debug, Default)]
pub struct CrashRegionMemory {
    points: Vec<Vec<f64>>,
}

impl CrashRegionMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a crash at `unit` (unit-cube coordinates).
    pub fn remember(&mut self, unit: Vec<f64>) {
        self.points.push(unit);
    }

    /// True when `unit` falls inside any remembered crash region.
    pub fn is_quarantined(&self, unit: &[f64]) -> bool {
        self.points.iter().any(|p| {
            p.len() == unit.len()
                && p.iter().zip(unit).all(|(a, b)| (a - b).abs() <= QUARANTINE_RADIUS)
        })
    }

    /// Number of remembered crash sites.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no crash has been remembered.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Session parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Total iterations (including LHS initialization).
    pub iterations: usize,
    /// LHS initialization length for optimizers that want it (§4.1: 10).
    pub lhs_init: usize,
    /// RNG seed for the session.
    pub seed: u64,
    /// Crash handling (§4.1; see [`FailurePolicy`]).
    pub failure_policy: FailurePolicy,
    /// Session label attached to this session's `diag` journal records
    /// (see `dbtune-diag`); `None` falls back to the optimizer's display
    /// name. Only consulted when diagnostics are enabled.
    pub diag_label: Option<String>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            lhs_init: 10,
            seed: 0,
            failure_policy: FailurePolicy::default(),
            diag_label: None,
        }
    }
}

/// Per-iteration wall-clock attribution of a session's time, split the
/// way the paper's overhead discussion (§7.4) splits it: model fitting
/// (`surrogate_fit`), acquisition probing (`acquisition`), everything
/// else the optimizer and driver do between evaluations (`bookkeeping`),
/// and the evaluation itself (`evaluate`, excluded from "algorithm
/// overhead").
///
/// The first three sum to [`SessionResult::overhead_secs`] per iteration.
/// The session loop's `suggest`, `evaluate` and `observe` spans time each
/// step; attribution within a step comes from the telemetry spans each
/// optimizer opens inside `suggest()`/`observe()` (see
/// `docs/observability.md`), and time not covered by a phase span is
/// bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct PhaseTrace {
    /// Surrogate/model fitting time per iteration (seconds).
    pub surrogate_fit_secs: Vec<f64>,
    /// Acquisition optimization / candidate probing time per iteration.
    pub acquisition_secs: Vec<f64>,
    /// Residual overhead per iteration (history upkeep, encoding, …).
    pub bookkeeping_secs: Vec<f64>,
    /// Evaluation (simulated stress test) wall time per iteration.
    pub evaluate_secs: Vec<f64>,
}

impl PhaseTrace {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            surrogate_fit_secs: Vec::with_capacity(n),
            acquisition_secs: Vec::with_capacity(n),
            bookkeeping_secs: Vec::with_capacity(n),
            evaluate_secs: Vec::with_capacity(n),
        }
    }

    /// Iterations recorded.
    pub fn len(&self) -> usize {
        self.surrogate_fit_secs.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.surrogate_fit_secs.is_empty()
    }

    /// Session totals `(surrogate_fit, acquisition, bookkeeping)` in
    /// seconds — the per-optimizer bars of the Figure 9 decomposition.
    pub fn overhead_totals(&self) -> (f64, f64, f64) {
        (
            self.surrogate_fit_secs.iter().sum(),
            self.acquisition_secs.iter().sum(),
            self.bookkeeping_secs.iter().sum(),
        )
    }
}

/// Everything a tuning session produces.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// All iterations, in order.
    pub observations: Vec<Observation>,
    /// Cumulative best maximize-oriented score after each iteration.
    pub best_score_trace: Vec<f64>,
    /// Reference (noise-free default) performance.
    pub default_value: f64,
    /// Optimization direction.
    pub objective: Objective,
    /// Measured algorithm overhead (seconds) per iteration.
    pub overhead_secs: Vec<f64>,
    /// Per-phase attribution of the overhead (and evaluation time).
    pub phases: PhaseTrace,
    /// Simulated evaluation cost of the whole session (seconds).
    pub simulated_secs: f64,
}

impl SessionResult {
    /// The maximize-oriented score of the default configuration.
    pub fn default_score(&self) -> f64 {
        orient(self.objective, self.default_value)
    }

    /// Best score over the session.
    pub fn best_score(&self) -> f64 {
        *self.best_score_trace.last().expect("session ran at least one iteration")
    }

    /// Best raw metric value over the session.
    pub fn best_value(&self) -> f64 {
        un_orient(self.objective, self.best_score())
    }

    /// Performance improvement over the default configuration, as the
    /// paper reports it: `(tps − tps₀)/tps₀` for throughput,
    /// `(lat₀ − lat)/lat₀` for latency. May be negative.
    pub fn best_improvement(&self) -> f64 {
        improvement(self.objective, self.default_value, self.best_value())
    }

    /// Improvement trace per iteration (cumulative best).
    pub fn improvement_trace(&self) -> Vec<f64> {
        self.best_score_trace
            .iter()
            .map(|&s| improvement(self.objective, self.default_value, un_orient(self.objective, s)))
            .collect()
    }

    /// 1-based iteration at which the final best was first reached
    /// ("tuning cost" in Figure 5).
    pub fn iterations_to_best(&self) -> usize {
        let best = self.best_score();
        self.best_score_trace
            .iter()
            .position(|&s| s >= best)
            .expect("best must appear in its own trace")
            + 1
    }

    /// First 1-based iteration whose cumulative best beats `score`;
    /// `None` if never (used by the transfer speedup metric, Eq. 5).
    pub fn iterations_to_beat(&self, score: f64) -> Option<usize> {
        self.best_score_trace.iter().position(|&s| s > score).map(|p| p + 1)
    }
}

/// Maps a raw metric into maximize orientation, on a **log scale**.
///
/// Throughput and latency are ratio-scale metrics spanning orders of
/// magnitude (a wrecked configuration can be 50× worse than the default);
/// modelling the log keeps surrogates, importance measurements, and
/// rewards from being dominated by the catastrophic tail. The transform
/// is strictly monotone, so rankings, incumbents, and
/// iterations-to-beat are unchanged, and [`un_orient`] recovers exact
/// metric values for improvement accounting.
pub fn orient(obj: Objective, value: f64) -> f64 {
    debug_assert!(value > 0.0, "performance metrics are positive");
    match obj {
        Objective::Throughput => value.max(1e-12).ln(),
        Objective::Latency95 => -value.max(1e-12).ln(),
    }
}

/// Inverse of [`orient`].
pub fn un_orient(obj: Objective, score: f64) -> f64 {
    match obj {
        Objective::Throughput => score.exp(),
        Objective::Latency95 => (-score).exp(),
    }
}

/// Paper-style improvement of `value` over `default_value`.
pub fn improvement(obj: Objective, default_value: f64, value: f64) -> f64 {
    match obj {
        Objective::Throughput => (value - default_value) / default_value,
        Objective::Latency95 => (default_value - value) / default_value,
    }
}

/// The §4.1 failure rule for observation pools: a failed configuration
/// scores as the worst score seen so far, and a failure before any score
/// takes the default configuration's score minus one log-unit.
///
/// Sessions anchor a first failure further down (the default's score
/// minus `max(|score|, 1)`, see [`run_session_resumable`]). The two
/// anchors stay apart on purpose: every committed pool was collected with
/// this one, and JOB's 6250-sample pool crashes on its very first sample.
#[derive(Clone, Debug)]
pub struct PoolScorer {
    worst: f64,
}

impl Default for PoolScorer {
    fn default() -> Self {
        Self { worst: f64::INFINITY }
    }
}

impl PoolScorer {
    /// Evaluates `sub`, a configuration of `space`, and returns its
    /// maximize-oriented pool score with the raw result.
    pub fn evaluate(
        &mut self,
        objective: &mut dyn SimObjective,
        space: &TuningSpace,
        sub: &[f64],
    ) -> (f64, EvalResult) {
        let res = objective.evaluate(&space.full_config(sub));
        let obj = objective.objective();
        let score = if !res.failed {
            orient(obj, res.value)
        } else if self.worst.is_finite() {
            self.worst
        } else {
            orient(obj, objective.reference_value(space.base())) - 1.0
        };
        self.worst = self.worst.min(score);
        (score, res)
    }

    /// Evaluates an `n`-point LHS design over `space` drawn from `rng`,
    /// returning the design and its scores.
    pub fn lhs(
        &mut self,
        objective: &mut dyn SimObjective,
        space: &TuningSpace,
        n: usize,
        rng: &mut StdRng,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x = sampling::lhs(space.space(), n, rng);
        let y = x.iter().map(|sub| self.evaluate(objective, space, sub).0).collect();
        (x, y)
    }
}

/// Collects an `n`-sample LHS observation pool over `space` (§5.1):
/// configurations and their [`PoolScorer`] scores. Knob selection, the
/// experiment drivers' cached pools and the CLI's `rank` all collect
/// through this one function.
pub fn lhs_pool(
    objective: &mut dyn SimObjective,
    space: &TuningSpace,
    n: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    PoolScorer::default().lhs(objective, space, n, rng)
}

/// One raw evaluation as recorded in a [`SessionCheckpoint`]. Floats are
/// stored as raw IEEE-754 bit words so the JSON round-trip is exact —
/// a resumed session must replay *byte-identical* inputs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecordedEval {
    /// `EvalResult::value` as `f64::to_bits`.
    pub value_bits: u64,
    /// Whether the evaluation failed.
    pub failed: bool,
    /// `EvalResult::metrics`, each as `f64::to_bits`.
    pub metrics_bits: Vec<u64>,
    /// `EvalResult::simulated_secs` as `f64::to_bits`.
    pub simulated_secs_bits: u64,
}

impl RecordedEval {
    /// Captures a raw evaluation result.
    pub fn record(res: &EvalResult) -> Self {
        Self {
            value_bits: res.value.to_bits(),
            failed: res.failed,
            metrics_bits: res.metrics.iter().map(|m| m.to_bits()).collect(),
            simulated_secs_bits: res.simulated_secs.to_bits(),
        }
    }

    /// Rebuilds the exact evaluation result.
    pub fn restore(&self) -> EvalResult {
        EvalResult {
            value: f64::from_bits(self.value_bits),
            failed: self.failed,
            metrics: self.metrics_bits.iter().map(|&b| f64::from_bits(b)).collect(),
            simulated_secs: f64::from_bits(self.simulated_secs_bits),
        }
    }
}

/// A mid-session snapshot from which [`run_session_resumable`] can
/// continue byte-identically: the session's identity (seed, LHS length,
/// failure policy), every raw evaluation so far, the RNG state after the
/// last completed iteration, and the backend's fault-schedule cursor.
///
/// Resume *replays* the recorded evaluations through the live
/// suggest/observe loop instead of serializing optimizer internals —
/// the optimizer and RNG land in exactly the state they had when the
/// checkpoint was taken, for all seven optimizer families, and the RNG
/// state doubles as an end-to-end integrity check (see
/// `docs/robustness.md` for the JSON format).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Checkpoint format version (currently 1).
    pub schema: u32,
    /// `SessionConfig::seed` of the checkpointed session.
    pub seed: u64,
    /// `SessionConfig::iterations` of the checkpointed session.
    pub iterations: usize,
    /// `SessionConfig::lhs_init` of the checkpointed session.
    pub lhs_init: usize,
    /// `SessionConfig::failure_policy`, encoded via
    /// [`FailurePolicy::as_str`].
    pub failure_policy: String,
    /// Iterations completed when the snapshot was taken.
    pub completed: usize,
    /// Raw evaluation results of those iterations, in order.
    pub evals: Vec<RecordedEval>,
    /// xoshiro256++ state words after the last completed iteration.
    pub rng_state: [u64; 4],
    /// The backend's evaluation-attempt cursor (fault-schedule position).
    pub eval_cursor: u64,
}

impl SessionCheckpoint {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses a checkpoint back from [`Self::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ck: Self = serde_json::from_str(s).map_err(|e| format!("bad checkpoint: {e}"))?;
        if ck.schema != 1 {
            return Err(format!("unsupported checkpoint schema {}", ck.schema));
        }
        if ck.evals.len() != ck.completed {
            return Err(format!(
                "corrupt checkpoint: {} recorded evals for {} completed iterations",
                ck.evals.len(),
                ck.completed
            ));
        }
        FailurePolicy::parse(&ck.failure_policy)?;
        Ok(ck)
    }

    /// Panics unless this checkpoint belongs to a session shaped like
    /// `cfg` (same seed, LHS length, failure policy, and no more
    /// completed iterations than the session has).
    fn validate_against(&self, cfg: &SessionConfig) {
        assert_eq!(self.seed, cfg.seed, "checkpoint seed does not match the session");
        assert_eq!(self.lhs_init, cfg.lhs_init, "checkpoint LHS length does not match");
        assert_eq!(
            self.failure_policy,
            cfg.failure_policy.as_str(),
            "checkpoint failure policy does not match"
        );
        assert_eq!(self.evals.len(), self.completed, "corrupt checkpoint: eval count mismatch");
        assert!(
            self.completed <= cfg.iterations,
            "checkpoint has {} completed iterations but the session only runs {}",
            self.completed,
            cfg.iterations
        );
    }
}

/// Runs one tuning session.
pub fn run_session(
    objective: &mut dyn SimObjective,
    space: &TuningSpace,
    opt: &mut dyn Optimizer,
    cfg: &SessionConfig,
) -> SessionResult {
    run_session_resumable(objective, space, opt, cfg, None, None)
}

/// [`run_session`] with checkpoint support.
///
/// `resume` replays a [`SessionCheckpoint`]'s recorded evaluations
/// through the live suggest/observe loop (no objective calls), then
/// continues evaluating from where the snapshot left off — the final
/// [`SessionResult`] is byte-identical to an uninterrupted run. After
/// the replay the RNG state is asserted against the snapshot, so silent
/// divergence (a changed optimizer, a doctored checkpoint) fails loudly
/// instead of corrupting results.
///
/// `sink` is invoked with a fresh checkpoint after every completed
/// iteration; callers decide persistence cadence (a session killed
/// between two invocations loses at most one iteration).
#[allow(
    clippy::needless_range_loop,
    reason = "the iteration index doubles as the LHS-design cursor"
)]
pub fn run_session_resumable(
    objective: &mut dyn SimObjective,
    space: &TuningSpace,
    opt: &mut dyn Optimizer,
    cfg: &SessionConfig,
    resume: Option<&SessionCheckpoint>,
    mut sink: Option<&mut dyn FnMut(&SessionCheckpoint)>,
) -> SessionResult {
    let _session_span = telemetry::span("session");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let obj = objective.objective();
    let default_value = objective.reference_value(space.base());
    let default_score = orient(obj, default_value);

    let replayed = match resume {
        Some(ck) => {
            ck.validate_against(cfg);
            ck.completed
        }
        None => 0,
    };

    // Pre-draw the LHS initial design if the optimizer wants it.
    let n_init = if opt.wants_lhs_init() { cfg.lhs_init.min(cfg.iterations) } else { 0 };
    let init = sampling::lhs(space.space(), n_init.max(1), &mut rng);

    let mut observations = Vec::with_capacity(cfg.iterations);
    let mut best_trace = Vec::with_capacity(cfg.iterations);
    let mut overheads = Vec::with_capacity(cfg.iterations);
    let mut phases = PhaseTrace::with_capacity(cfg.iterations);
    let mut recorded: Vec<RecordedEval> = Vec::with_capacity(cfg.iterations);
    let mut crash_memory = CrashRegionMemory::new();
    let quarantine = cfg.failure_policy == FailurePolicy::QuarantinePenalty;
    let mut best = f64::NEG_INFINITY;
    let mut worst_seen = f64::INFINITY;
    let mut worst_observed = f64::INFINITY;
    let mut simulated = 0.0;

    // Optimizer-quality flight recorder (`dbtune-diag`): one `diag`
    // journal event per iteration. Gated separately from tracing and
    // strictly observational — the optimum estimate and the surrogate's
    // capture of its own prediction consume no randomness and never feed
    // back into tuning decisions, so results are byte-identical with
    // diagnostics on or off (the `observer_inertness` suite).
    let diag = telemetry::global().diag_enabled();
    let diag_label: String = if diag {
        cfg.diag_label.clone().unwrap_or_else(|| opt.name().to_string())
    } else {
        String::new()
    };
    // Regret baseline on the oriented log scale; computed once per
    // session, and only when diagnostics are on.
    let diag_optimum: Option<f64> =
        if diag { objective.optimum_value(space).map(|v| orient(obj, v)) } else { None };
    let mut diag_units: Vec<Vec<f64>> = Vec::new();
    let mut diag_cum_regret = 0.0f64;

    for it in 0..cfg.iterations {
        if it == replayed {
            if let Some(ck) = resume {
                // End of replay: the live loop takes over. The RNG must
                // have landed exactly where the snapshot left it —
                // anything else means the replay diverged.
                assert_eq!(
                    rng.state(),
                    ck.rng_state,
                    "checkpoint RNG state mismatch: resumed session diverged during replay"
                );
                objective.seek_eval_cursor(ck.eval_cursor);
            }
        }
        // The phase collector picks up the `suggest` span, which times
        // the step, and the `surrogate_fit`/`acquisition` spans the
        // optimizer opens inside suggest(); whatever time they do not
        // cover is bookkeeping.
        let (sub, suggest_phases) = telemetry::collect_phases(|| {
            let _s = telemetry::span("suggest");
            if it < n_init {
                init[it].clone()
            } else if quarantine && !crash_memory.is_empty() {
                // Re-draw suggestions that land in a remembered crash
                // region (boundedly — the optimizer may genuinely need
                // to probe the edge of a cliff).
                let mut cand = opt.suggest(&mut rng);
                for _ in 0..QUARANTINE_RESUGGEST {
                    if !crash_memory.is_quarantined(&space.space().to_unit(&cand)) {
                        break;
                    }
                    telemetry::global().metrics.counter("tuner.quarantine.rejections").inc();
                    cand = opt.suggest(&mut rng);
                }
                cand
            } else {
                opt.suggest(&mut rng)
            }
        });
        let suggest_secs = phase_secs(&suggest_phases, "suggest");

        let full = space.full_config(&sub);
        let (res, evaluate_secs) = if it < replayed {
            // Replay: feed the recorded evaluation instead of re-running
            // it; suggest/observe still run live, rebuilding optimizer
            // and RNG state exactly.
            (resume.expect("replay implies a checkpoint").evals[it].restore(), 0.0)
        } else {
            let (res, evaluate_phases) = telemetry::collect_phases(|| {
                let _e = telemetry::span("evaluate");
                objective.evaluate(&full)
            });
            (res, phase_secs(&evaluate_phases, "evaluate"))
        };
        simulated += res.simulated_secs;
        recorded.push(RecordedEval::record(&res));

        // §4.1: failures take the worst performance seen so far (or are
        // discarded / penalized under the other policies).
        let (score, value, failed) = if res.failed {
            let fallback = if quarantine {
                // One log-unit below the worst *observed* score: a cliff
                // the surrogate can model, independent of how many
                // failures came before.
                let base = if worst_observed.is_finite() { worst_observed } else { default_score };
                base - 1.0
            } else if worst_seen.is_finite() {
                worst_seen
            } else {
                default_score - default_score.abs().max(1.0)
            };
            (fallback, un_orient(obj, fallback), true)
        } else {
            (orient(obj, res.value), res.value, false)
        };
        worst_seen = worst_seen.min(score);
        if !failed {
            worst_observed = worst_observed.min(score);
        } else if quarantine {
            crash_memory.remember(space.space().to_unit(&sub));
        }
        best = best.max(score);

        if diag {
            let unit = space.space().to_unit(&sub);
            // Novelty: L∞ distance to the nearest previously evaluated
            // configuration (unit space); null for the first evaluation.
            let novelty = diag_units
                .iter()
                .map(|p| p.iter().zip(&unit).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max))
                .min_by(crate::ord::cmp_f64);
            let (regret, cum_regret) = match diag_optimum {
                Some(optimum) => {
                    diag_cum_regret += optimum - score;
                    // Simple regret of the incumbent; mildly negative
                    // values are possible because the baseline is
                    // noise-free while observed scores carry simulated
                    // measurement noise.
                    (Some(optimum - best), Some(diag_cum_regret))
                }
                None => (None, None),
            };
            let outcome = if !failed {
                "ok"
            } else if objective.last_failure_was_transient() {
                "fault"
            } else {
                "crash"
            };
            // LHS init iterations never call suggest(), so no surrogate
            // scored them; everything else reports whatever the optimizer
            // captured (None for model-free families).
            let pred = if it < n_init { None } else { opt.last_prediction() };
            telemetry::global().journal.emit(TraceEvent::Diag {
                session: diag_label.clone(),
                iter: it as u64,
                outcome: outcome.to_string(),
                score_bits: score.to_bits(),
                best_bits: best.to_bits(),
                regret_bits: regret.map(f64::to_bits),
                cum_regret_bits: cum_regret.map(f64::to_bits),
                novelty_bits: novelty.map(f64::to_bits),
                pred_mean_bits: pred.map(|(m, _)| m.to_bits()),
                pred_var_bits: pred.map(|(_, v)| v.to_bits()),
                seq: 0,
            });
            diag_units.push(unit);
        }

        // Algorithm overhead (Figure 9) = statistics collection, model
        // fitting, and model probe — i.e. everything but the evaluation.
        // Fitting happens inside suggest() for the BO family but inside
        // observe() for DDPG (replay training), so both scopes
        // contribute; the uncovered remainder is bookkeeping.
        let ((), observe_phases) = telemetry::collect_phases(|| {
            let _o = telemetry::span("observe");
            if !(failed && cfg.failure_policy == FailurePolicy::Discard) {
                opt.observe(&sub, score, &res.metrics);
            }
        });
        let observe_secs = phase_secs(&observe_phases, "observe");

        let fit = phase_secs(&suggest_phases, "surrogate_fit")
            + phase_secs(&observe_phases, "surrogate_fit");
        let acq =
            phase_secs(&suggest_phases, "acquisition") + phase_secs(&observe_phases, "acquisition");
        let overhead = suggest_secs + observe_secs;
        phases.surrogate_fit_secs.push(fit);
        phases.acquisition_secs.push(acq);
        phases.bookkeeping_secs.push((overhead - fit - acq).max(0.0));
        phases.evaluate_secs.push(evaluate_secs);
        overheads.push(overhead);
        observations.push(Observation { config: sub, value, score, failed, metrics: res.metrics });
        best_trace.push(best);

        // Checkpoints are only emitted for live iterations: during replay
        // the objective's fault-schedule cursor is not yet realigned, so
        // a snapshot taken there would record a stale cursor.
        if it >= replayed {
            if let Some(sink) = sink.as_deref_mut() {
                sink(&SessionCheckpoint {
                    schema: 1,
                    seed: cfg.seed,
                    iterations: cfg.iterations,
                    lhs_init: cfg.lhs_init,
                    failure_policy: cfg.failure_policy.as_str().to_string(),
                    completed: it + 1,
                    evals: recorded.clone(),
                    rng_state: rng.state(),
                    eval_cursor: objective.eval_cursor(),
                });
            }
        }
    }

    SessionResult {
        observations,
        best_score_trace: best_trace,
        default_value,
        objective: obj,
        overhead_secs: overheads,
        phases,
        simulated_secs: simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{OptimizerKind, RandomSearch};
    use dbtune_dbsim::{DbSimulator, Hardware, Workload, METRICS_DIM};

    fn small_space(sim: &DbSimulator) -> TuningSpace {
        let cat = sim.catalog();
        let selected = vec![
            cat.expect_index("innodb_flush_log_at_trx_commit"),
            cat.expect_index("sync_binlog"),
            cat.expect_index("innodb_log_file_size"),
            cat.expect_index("innodb_io_capacity"),
            cat.expect_index("innodb_thread_concurrency"),
        ];
        TuningSpace::with_default_base(cat, selected, Hardware::B)
    }

    #[test]
    fn random_session_improves_write_heavy_workload() {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 3);
        let space = small_space(&sim);
        let mut opt = RandomSearch::new(space.space().clone());
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 60, lhs_init: 10, seed: 1, ..Default::default() },
        );
        assert_eq!(result.observations.len(), 60);
        assert!(
            result.best_improvement() > 0.2,
            "random search on impactful knobs should improve TPC-C: {}",
            result.best_improvement()
        );
    }

    #[test]
    fn latency_objective_is_minimized() {
        let mut sim = DbSimulator::new(Workload::Job, Hardware::B, 4);
        let cat = sim.catalog();
        let selected = vec![
            cat.expect_index("join_buffer_size"),
            cat.expect_index("optimizer_search_depth"),
            cat.expect_index("sort_buffer_size"),
        ];
        let space = TuningSpace::with_default_base(cat, selected, Hardware::B);
        let mut opt = RandomSearch::new(space.space().clone());
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 40, lhs_init: 10, seed: 2, ..Default::default() },
        );
        assert_eq!(result.objective, Objective::Latency95);
        assert!(result.best_value() < result.default_value, "latency should go down");
        assert!(result.best_improvement() > 0.0);
    }

    #[test]
    fn failures_are_replaced_with_worst_seen() {
        let mut sim = DbSimulator::new(Workload::Sysbench, Hardware::A, 5);
        let cat = sim.catalog();
        // Only the buffer pool: huge values crash (A has 8 GB RAM).
        let selected = vec![cat.expect_index("innodb_buffer_pool_size")];
        let space = TuningSpace::with_default_base(cat, selected, Hardware::A);
        let mut opt = RandomSearch::new(space.space().clone());
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 50, lhs_init: 0, seed: 3, ..Default::default() },
        );
        let failures: Vec<&Observation> = result.observations.iter().filter(|o| o.failed).collect();
        assert!(!failures.is_empty(), "upper range must produce crashes");
        for f in failures {
            assert!(f.score.is_finite());
            // A failure never becomes the session best.
            assert!(f.score <= result.best_score());
        }
    }

    #[test]
    fn best_trace_is_monotone() {
        let mut sim = DbSimulator::new(Workload::Smallbank, Hardware::B, 6);
        let space = small_space(&sim);
        let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 1);
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 30, lhs_init: 10, seed: 4, ..Default::default() },
        );
        for w in result.best_score_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(result.iterations_to_best() <= 30);
    }

    #[test]
    fn orientation_helpers_round_trip() {
        // Log-scale orientation: monotone, exactly invertible.
        for v in [0.5, 200.0, 16000.0] {
            assert!(
                (un_orient(Objective::Latency95, orient(Objective::Latency95, v)) - v).abs() < 1e-9
            );
            assert!(
                (un_orient(Objective::Throughput, orient(Objective::Throughput, v)) - v).abs()
                    < 1e-9
            );
        }
        // Lower latency / higher throughput => higher score.
        assert!(orient(Objective::Latency95, 150.0) > orient(Objective::Latency95, 200.0));
        assert!(orient(Objective::Throughput, 150.0) > orient(Objective::Throughput, 100.0));
        assert!((improvement(Objective::Latency95, 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!((improvement(Objective::Throughput, 100.0, 150.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_recorded_per_iteration() {
        let mut sim = DbSimulator::new(Workload::Voter, Hardware::B, 7);
        let space = small_space(&sim);
        let mut opt = RandomSearch::new(space.space().clone());
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 10, lhs_init: 0, seed: 5, ..Default::default() },
        );
        assert_eq!(result.overhead_secs.len(), 10);
        assert!(result.simulated_secs > 0.0);
    }

    /// Asserts the per-iteration phases add up to the measured overhead
    /// and that the model-based phases recorded time.
    fn assert_phases_partition_the_overhead(result: &SessionResult, iterations: usize) {
        assert_eq!(result.phases.len(), iterations);
        for i in 0..iterations {
            let sum = result.phases.surrogate_fit_secs[i]
                + result.phases.acquisition_secs[i]
                + result.phases.bookkeeping_secs[i];
            let overhead = result.overhead_secs[i];
            // Fitting and acquisition spans nest inside the suggest and
            // observe spans that time the overhead, so the phases add up
            // to it up to float rounding.
            assert!(
                (sum - overhead).abs() <= 1e-5 + overhead * 1e-2,
                "iteration {i}: phases {sum} != overhead {overhead}"
            );
            assert!(result.phases.evaluate_secs[i] >= 0.0);
        }
        let (fit, acq, _) = result.phases.overhead_totals();
        assert!(fit > 0.0, "model-based sessions must record fitting time");
        assert!(acq > 0.0, "model-based sessions must record acquisition time");
    }

    #[test]
    fn phase_attribution_partitions_the_overhead() {
        let mut sim = DbSimulator::new(Workload::Twitter, Hardware::B, 8);
        let space = small_space(&sim);
        // SMAC opens surrogate_fit/acquisition spans once past LHS init.
        let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 2);
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 20, lhs_init: 5, seed: 6, ..Default::default() },
        );
        assert_phases_partition_the_overhead(&result, 20);
    }

    #[test]
    fn rgpe_phase_attribution_partitions_the_overhead() {
        use crate::transfer::{RgpeOptimizer, SourceTask, SurrogateKind};
        let mut sim = DbSimulator::new(Workload::Twitter, Hardware::B, 8);
        let space = small_space(&sim);
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> = (0..12).map(|_| space.space().sample(&mut rng)).collect();
        let y: Vec<f64> = x.iter().map(|c| c[0] - c[1]).collect();
        let source = SourceTask { name: "source".into(), x, y, metrics: vec![] };
        // RGPE(SMAC) fits its forests in surrogate_fit and maximizes the
        // ensemble EI in acquisition, like every model-based optimizer.
        let mut opt =
            RgpeOptimizer::new(space.space().clone(), SurrogateKind::RandomForest, &[source], 2);
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 20, lhs_init: 5, seed: 6, ..Default::default() },
        );
        assert_phases_partition_the_overhead(&result, 20);
    }

    #[test]
    fn result_accessors_agree_with_the_trace() {
        let mut sim = DbSimulator::new(Workload::Smallbank, Hardware::B, 9);
        let space = small_space(&sim);
        let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 9);
        let result = run_session(
            &mut sim,
            &space,
            &mut opt,
            &SessionConfig { iterations: 25, lhs_init: 8, seed: 9, ..Default::default() },
        );

        // iterations_to_beat: anything below the default is beaten at
        // iteration 1; the final best is never beaten; thresholds in
        // between are beaten exactly where the trace first exceeds them.
        let first = result.best_score_trace[0];
        assert_eq!(result.iterations_to_beat(first - 1.0), Some(1));
        assert_eq!(result.iterations_to_beat(result.best_score()), None);
        let mid = (first + result.best_score()) / 2.0;
        if let Some(n) = result.iterations_to_beat(mid) {
            assert!(result.best_score_trace[n - 1] > mid);
            assert!(result.best_score_trace[..n - 1].iter().all(|&s| s <= mid));
        }

        // iterations_to_best points at the first occurrence of the best.
        let n_best = result.iterations_to_best();
        assert_eq!(result.best_score_trace[n_best - 1], result.best_score());
        assert!(result.best_score_trace[..n_best - 1].iter().all(|&s| s < result.best_score()));

        // best_value/best_improvement are consistent transforms.
        let improv = improvement(result.objective, result.default_value, result.best_value());
        assert!((result.best_improvement() - improv).abs() < 1e-12);
    }

    #[test]
    fn failure_policy_names_round_trip() {
        for policy in
            [FailurePolicy::WorstSeen, FailurePolicy::Discard, FailurePolicy::QuarantinePenalty]
        {
            assert_eq!(FailurePolicy::parse(policy.as_str()), Ok(policy));
        }
        assert!(FailurePolicy::parse("retry_forever").is_err());
    }

    #[test]
    fn crash_region_memory_quarantines_by_infinity_norm() {
        let mut mem = CrashRegionMemory::new();
        assert!(mem.is_empty());
        assert!(!mem.is_quarantined(&[0.5, 0.5]), "empty memory quarantines nothing");
        mem.remember(vec![0.5, 0.5]);
        assert_eq!(mem.len(), 1);
        assert!(mem.is_quarantined(&[0.5, 0.5]));
        assert!(mem.is_quarantined(&[0.5 + QUARANTINE_RADIUS * 0.9, 0.5]));
        assert!(!mem.is_quarantined(&[0.5 + QUARANTINE_RADIUS * 1.1, 0.5]), "outside the ball");
        assert!(!mem.is_quarantined(&[0.5, 0.5, 0.5]), "dimension mismatch must never quarantine");
        mem.remember(vec![0.1, 0.9]);
        assert!(mem.is_quarantined(&[0.12, 0.88]), "any remembered point suffices");
    }

    /// FNV-1a over the bit patterns of a pool's configurations and scores.
    fn pool_digest(x: &[Vec<f64>], y: &[f64]) -> (u64, u64) {
        let fnv = |words: &mut dyn Iterator<Item = u64>| {
            words.flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        (fnv(&mut x.iter().flatten().map(|v| v.to_bits())), fnv(&mut y.iter().map(|v| v.to_bits())))
    }

    #[test]
    fn lhs_pool_reproduces_the_inline_pool_collectors() {
        // JOB on instance B: the first LHS sample of this stream crashes,
        // so it takes the default − 1 anchor before any score exists. The
        // configuration digest was computed by the inline loop that knob
        // selection, the drivers' pools and the CLI each carried before
        // they shared this collector; the score digest by this collector on
        // a bare simulator, whose noise tokens mix its seed with each
        // configuration's cache key.
        let mut sim = DbSimulator::new(Workload::Job, Hardware::B, 2);
        let catalog = sim.catalog().clone();
        let all: Vec<usize> = (0..catalog.len()).collect();
        let space = TuningSpace::with_default_base(&catalog, all, Hardware::B);
        let (x, y) = lhs_pool(&mut sim, &space, 24, &mut StdRng::seed_from_u64(2));
        let anchor = orient(Objective::Latency95, sim.reference_value(space.base())) - 1.0;
        assert_eq!(y[0].to_bits(), anchor.to_bits(), "a first crash takes the pool anchor");
        assert_eq!(pool_digest(&x, &y), (0xa47b_59f3_57f1_ff8d, 0xea35_2d31_d00b_11ad));
    }

    #[test]
    fn recorded_eval_is_bit_exact_for_awkward_floats() {
        let res = EvalResult {
            value: f64::NAN,
            failed: true,
            metrics: vec![0.1 + 0.2, -0.0, f64::INFINITY, 3.0],
            simulated_secs: 210.000000000001,
        };
        let back = RecordedEval::record(&res).restore();
        assert_eq!(back.value.to_bits(), res.value.to_bits(), "NaN payload preserved");
        assert_eq!(back.failed, res.failed);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.metrics), bits(&res.metrics));
        assert_eq!(back.simulated_secs.to_bits(), res.simulated_secs.to_bits());
    }

    #[test]
    fn checkpoint_json_round_trip_is_exact() {
        let ck = SessionCheckpoint {
            schema: 1,
            seed: 42,
            iterations: 30,
            lhs_init: 8,
            failure_policy: FailurePolicy::QuarantinePenalty.as_str().to_string(),
            completed: 2,
            evals: vec![
                RecordedEval::record(&EvalResult {
                    value: 1234.5678,
                    failed: false,
                    metrics: vec![0.1, 0.2],
                    simulated_secs: 210.0,
                }),
                RecordedEval::record(&EvalResult {
                    value: f64::NAN,
                    failed: true,
                    metrics: vec![],
                    simulated_secs: 720.0,
                }),
            ],
            rng_state: [u64::MAX, 0, 0x9e3779b97f4a7c15, 7],
            eval_cursor: 11,
        };
        let json = ck.to_json();
        let back = SessionCheckpoint::from_json(&json).expect("round-trip");
        assert_eq!(back.to_json(), json, "serialization is a fixed point");
        assert_eq!(back.rng_state, ck.rng_state);
        assert_eq!(back.evals[0].value_bits, ck.evals[0].value_bits);

        // Corrupt inputs are rejected, not misparsed.
        assert!(SessionCheckpoint::from_json("{}").is_err());
        assert!(
            SessionCheckpoint::from_json(&json.replace("\"schema\": 1", "\"schema\": 9")).is_err()
        );
        assert!(SessionCheckpoint::from_json(
            &json.replace("quarantine_penalty", "explode_quietly")
        )
        .is_err());
    }
}
