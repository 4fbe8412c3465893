//! Chaos suite: the fault-injection / resilience invariants from
//! `docs/robustness.md`.
//!
//! * faults **off** → byte-identical to the plain evaluation path;
//! * a fixed fault seed → bit-identical chaos results on any worker
//!   count, run after run;
//! * a panicking grid cell is contained: the grid completes, the failure
//!   is reported, and the shared evaluation cache stays usable;
//! * transient faults retry deterministically, with backoff charged to
//!   the *simulated* clock only;
//! * a session killed after iteration k resumes from its checkpoint to
//!   the same final result as an uninterrupted run — with or without an
//!   active fault plan, and for incremental (Figure 6) sessions across a
//!   phase boundary;
//! * exhausted transient faults never reach the shared evaluation cache;
//! * `FailurePolicy::QuarantinePenalty` scores crashes one log-unit
//!   below the worst observed configuration and remembers crash regions.

use dbtune_core::exec::{
    cell_seed, run_grid, run_grid_contained, CacheStats, CachedObjective, CellOutcome, EvalCache,
    RetryPolicy,
};
use dbtune_core::incremental::{session_space, IncrementalOptimizer, IncrementalStrategy};
use dbtune_core::optimizer::{Optimizer, OptimizerKind};
use dbtune_core::space::{ConfigSpace, TuningSpace};
use dbtune_core::tuner::{
    run_session, run_session_resumable, FailurePolicy, SessionCheckpoint, SessionConfig,
    SessionResult,
};
use dbtune_dbsim::{DbSimulator, FaultPlan, Hardware, Workload, METRICS_DIM};
use proptest::prelude::*;
use std::sync::Arc;

const NOISE_SEED: u64 = 4242;

fn chaos_plan() -> FaultPlan {
    FaultPlan::parse("seed:11,timeout:0.08,crash:0.05,noise:0.1,stall:0.08").expect("valid plan")
}

/// One cell: (workload, optimizer, session seed) — shared seeds across
/// optimizers, like the figure drivers, so the cache sees hits.
fn cells() -> Vec<(Workload, OptimizerKind, u64)> {
    let mut out = Vec::new();
    for &wl in &[Workload::Sysbench, Workload::Smallbank] {
        for &opt in &[OptimizerKind::Smac, OptimizerKind::Tpe] {
            for s in 0..2u64 {
                out.push((wl, opt, 700 + s));
            }
        }
    }
    out
}

fn session_cfg(seed: u64, policy: FailurePolicy) -> SessionConfig {
    SessionConfig {
        iterations: 12,
        lhs_init: 5,
        seed,
        failure_policy: policy,
        ..Default::default()
    }
}

/// Runs the grid with a per-cell reseeded copy of `plan` (exactly what
/// `dbtune-bench` does), `retry`, and a fresh shared cache.
fn run_cells(workers: usize, plan: FaultPlan, retry: RetryPolicy) -> Vec<SessionResult> {
    let cache = EvalCache::shared();
    let grid = cells();
    run_grid(&grid, workers, |index, &(wl, opt_kind, seed)| {
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        // Knob 0 is the buffer pool: the simulator's own crash region
        // stays in play alongside the injected transients.
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let cell_plan =
            if plan.is_active() { plan.reseeded(cell_seed(plan.seed, index)) } else { plan };
        let mut obj =
            CachedObjective::with_faults(sim, Some(cache.clone()), NOISE_SEED, cell_plan, retry);
        run_session(&mut obj, &space, &mut opt, &session_cfg(seed, FailurePolicy::WorstSeen))
    })
}

/// Everything deterministic about a session, bit-exact (excludes
/// `overhead_secs`, which is wall-clock).
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

// ---------------------------------------------------------------------------
// Faults off: byte identity with the plain path
// ---------------------------------------------------------------------------

#[test]
fn disabled_plan_is_byte_identical_to_plain_objective() {
    let grid = cells();
    let plain = digest(&run_grid(&grid, 4, |_, &(wl, opt_kind, seed)| {
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = CachedObjective::new(sim, Some(EvalCache::shared()), NOISE_SEED);
        run_session(&mut obj, &space, &mut opt, &session_cfg(seed, FailurePolicy::WorstSeen))
    }));
    let gated = digest(&run_cells(4, FaultPlan::disabled(), RetryPolicy::default()));
    assert_eq!(plain, gated, "an inactive fault plan must not perturb a single bit");
}

// ---------------------------------------------------------------------------
// Faults on: fixed seed ⇒ reproducible on any worker count
// ---------------------------------------------------------------------------

#[test]
fn fault_grid_identical_for_any_worker_count() {
    let plan = chaos_plan();
    let serial = digest(&run_cells(1, plan, RetryPolicy::default()));
    // The chaos run must actually differ from the fault-free one, or
    // this test proves nothing.
    let clean = digest(&run_cells(1, FaultPlan::disabled(), RetryPolicy::default()));
    assert_ne!(serial, clean, "the chaos plan never fired — raise its rates");
    for workers in [2, 8] {
        let parallel = digest(&run_cells(workers, plan, RetryPolicy::default()));
        assert_eq!(
            serial, parallel,
            "chaos results with {workers} workers must be bit-identical to sequential"
        );
    }
    // And replayable: the same seed gives the same faults, run after run.
    let again = digest(&run_cells(1, plan, RetryPolicy::default()));
    assert_eq!(serial, again, "same fault seed must replay bit-identically");
}

// ---------------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------------

#[test]
fn contained_panic_reports_failure_and_leaves_cache_usable() {
    let cache = EvalCache::shared();
    let grid = cells();
    let poison_index = 2usize;
    let outcomes = run_grid_contained(&grid, 4, |index, &(wl, opt_kind, seed)| {
        if index == poison_index {
            panic!("injected cell panic (index {index})");
        }
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = CachedObjective::new(sim, Some(cache.clone()), NOISE_SEED);
        run_session(&mut obj, &space, &mut opt, &session_cfg(seed, FailurePolicy::WorstSeen))
    });

    assert_eq!(outcomes.len(), grid.len(), "the grid must complete despite the panic");
    for (i, outcome) in outcomes.iter().enumerate() {
        if i == poison_index {
            match outcome {
                CellOutcome::Panicked { message } => {
                    assert!(message.contains("injected cell panic"), "got message {message:?}");
                }
                CellOutcome::Completed(_) => panic!("poisoned cell must report its panic"),
            }
        } else {
            assert!(!outcome.is_panicked(), "cell {i} must be unaffected by cell {poison_index}");
        }
    }

    // The shared cache survives: stats are readable and a fresh session
    // through it agrees bit-for-bit with one through a brand-new cache.
    let stats = cache.stats();
    assert!(stats.entries > 0, "surviving cells must have populated the cache");
    let through_survivor = |cache: Arc<EvalCache>| {
        let (wl, opt_kind, seed) = cells()[0];
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = CachedObjective::new(sim, Some(cache), NOISE_SEED);
        run_session(&mut obj, &space, &mut opt, &session_cfg(seed, FailurePolicy::WorstSeen))
    };
    let reused = digest(&[through_survivor(cache)]);
    let fresh = digest(&[through_survivor(EvalCache::shared())]);
    assert_eq!(reused, fresh, "a cache that saw a contained panic must not be poisoned");
}

#[test]
#[should_panic(expected = "grid cell panicked")]
fn plain_run_grid_still_propagates_panics() {
    let _ = run_grid(&[0u32, 1, 2], 1, |_, &x| {
        if x == 1 {
            panic!("boom");
        }
        x
    });
}

// ---------------------------------------------------------------------------
// Retry and backoff accounting
// ---------------------------------------------------------------------------

#[test]
fn exhausted_retries_charge_exact_simulated_backoff() {
    // Every attempt times out: 3 attempts burn 3 timeout windows plus
    // 30 s + 60 s of exponential backoff — all on the simulated ledger.
    let plan = FaultPlan::parse("seed:5,timeout:1.0").expect("valid plan");
    let retry = RetryPolicy::default();
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 1);
    let base = sim.catalog().default_config(Hardware::B);
    let mut obj = CachedObjective::with_faults(sim, None, NOISE_SEED, plan, retry);

    use dbtune_core::tuner::SimObjective;
    let res = obj.evaluate(&base);
    assert!(res.failed, "an all-timeout plan must exhaust the retries");
    assert!(res.value.is_nan());
    let expected = 3.0 * plan.timeout_secs + retry.backoff_before(1) + retry.backoff_before(2);
    assert!(
        (res.simulated_secs - expected).abs() < 1e-9,
        "expected {expected} charged simulated seconds, got {}",
        res.simulated_secs
    );
    assert_eq!(obj.eval_cursor(), 3, "each attempt must consume one schedule slot");
}

#[test]
fn recovered_transients_charge_lost_attempts_and_keep_the_clean_result() {
    // Timeouts strike schedule slots until one attempt completes; the
    // surviving result must equal the fault-free evaluation, with the
    // lost windows and backoff charged on top.
    let retry = RetryPolicy { max_attempts: 50, backoff_secs: 30.0, multiplier: 1.0 };
    let mk = || DbSimulator::new(Workload::Sysbench, Hardware::B, 1);
    let base = mk().catalog().default_config(Hardware::B);

    use dbtune_core::tuner::SimObjective;
    let mut clean = CachedObjective::new(mk(), None, NOISE_SEED);
    let want = clean.evaluate(&base);

    let sparse = FaultPlan::parse("seed:9,timeout:0.6").expect("valid plan");
    let mut faulty = CachedObjective::with_faults(mk(), None, NOISE_SEED, sparse, retry);
    let got = faulty.evaluate(&base);
    let lost_attempts = faulty.eval_cursor() - 1;
    assert!(!got.failed, "with 50 attempts a 0.6 timeout rate recovers");
    assert_eq!(got.value.to_bits(), want.value.to_bits(), "the recovered result is the clean one");
    assert_eq!(got.metrics, want.metrics, "recovered metrics are uncorrupted");
    let expected =
        want.simulated_secs + lost_attempts as f64 * (sparse.timeout_secs + retry.backoff_secs);
    assert!(
        (got.simulated_secs - expected).abs() < 1e-9,
        "lost {lost_attempts} attempts: expected {expected} secs, got {}",
        got.simulated_secs
    );
}

#[test]
fn exhausted_timeouts_leave_the_shared_cache_untouched() {
    // Transient faults are properties of the attempt: an all-timeout plan
    // must store nothing, so a later fault-free evaluation of the same
    // configuration misses and computes the clean result.
    let cache = EvalCache::shared();
    let mk = || DbSimulator::new(Workload::Sysbench, Hardware::B, 1);
    let base = mk().catalog().default_config(Hardware::B);
    let plan = FaultPlan::parse("seed:5,timeout:1.0").expect("valid plan");

    use dbtune_core::tuner::SimObjective;
    let mut faulty = CachedObjective::with_faults(
        mk(),
        Some(cache.clone()),
        NOISE_SEED,
        plan,
        RetryPolicy::default(),
    );
    assert!(faulty.evaluate(&base).failed, "an all-timeout plan must exhaust the retries");
    assert_eq!(cache.stats(), CacheStats::default(), "no attempt completed, so nothing is stored");

    let mut clean = CachedObjective::new(mk(), Some(cache.clone()), NOISE_SEED);
    let got = clean.evaluate(&base);
    let want = CachedObjective::new(mk(), None, NOISE_SEED).evaluate(&base);
    assert_eq!(clean.n_misses(), 1, "the fault-free evaluation must miss");
    assert!(!got.failed);
    assert_eq!(got.value.to_bits(), want.value.to_bits(), "the clean result, not a cached fault");
    assert_eq!(got.metrics, want.metrics);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, entries: 1 });
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

/// Runs one session with a checkpoint sink, keeping only the snapshot
/// taken after iteration `kill_after`.
fn run_with_sink(
    plan: FaultPlan,
    policy: FailurePolicy,
    kill_after: usize,
) -> (SessionResult, SessionCheckpoint) {
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 7);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
    let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 7);
    let mut obj = CachedObjective::with_faults(sim, None, NOISE_SEED, plan, RetryPolicy::default());
    let mut kept: Option<SessionCheckpoint> = None;
    let mut sink = |ck: &SessionCheckpoint| {
        if ck.completed == kill_after {
            kept = Some(ck.clone());
        }
    };
    let result = run_session_resumable(
        &mut obj,
        &space,
        &mut opt,
        &session_cfg(7, policy),
        None,
        Some(&mut sink),
    );
    (result, kept.expect("session must have reached the kill point"))
}

fn resume_from(ck: &SessionCheckpoint, plan: FaultPlan, policy: FailurePolicy) -> SessionResult {
    // A fresh process: new simulator, new optimizer, new objective.
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 7);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
    let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 7);
    let mut obj = CachedObjective::with_faults(sim, None, NOISE_SEED, plan, RetryPolicy::default());
    run_session_resumable(&mut obj, &space, &mut opt, &session_cfg(7, policy), Some(ck), None)
}

#[test]
fn checkpoint_resume_round_trips_fault_free() {
    let plan = FaultPlan::disabled();
    let (uninterrupted, ck) = run_with_sink(plan, FailurePolicy::WorstSeen, 5);

    // The JSON round-trip is exact (floats travel as bit words).
    let ck2 = SessionCheckpoint::from_json(&ck.to_json()).expect("round-trip");
    assert_eq!(ck.to_json(), ck2.to_json());

    let resumed = resume_from(&ck2, plan, FailurePolicy::WorstSeen);
    assert_eq!(
        digest(&[uninterrupted]),
        digest(&[resumed]),
        "a session resumed at iteration 5 must finish bit-identically"
    );
}

#[test]
fn checkpoint_resume_round_trips_under_faults() {
    let plan = chaos_plan();
    for kill_after in [1, 5, 11] {
        let (uninterrupted, ck) = run_with_sink(plan, FailurePolicy::QuarantinePenalty, kill_after);
        let ck = SessionCheckpoint::from_json(&ck.to_json()).expect("round-trip");
        let resumed = resume_from(&ck, plan, FailurePolicy::QuarantinePenalty);
        assert_eq!(
            digest(&[uninterrupted]),
            digest(&[resumed]),
            "chaos session resumed after iteration {kill_after} must finish bit-identically \
             (fault-schedule cursor realignment)"
        );
    }
}

/// One incremental (Figure 6) session under the chaos plan: SMAC phases
/// over 2, 4 and 6 knobs with boundaries after observations 4 and 8.
/// Knob 0 is the buffer pool, so modelled crashes mix with injected
/// faults. Returns the result and the snapshot taken after `kill_after`.
fn run_incremental(
    policy: FailurePolicy,
    resume: Option<&SessionCheckpoint>,
    kill_after: usize,
) -> (SessionResult, Option<SessionCheckpoint>) {
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 7);
    let catalog = sim.catalog().clone();
    let strategy = IncrementalStrategy::Increase { start: 2, step: 2, every: 4, cap: 6 };
    let space =
        session_space(&catalog, catalog.default_config(Hardware::B), &[0, 1, 2, 3, 4, 5], strategy);
    let make_opt = |space: &ConfigSpace, seed: u64| -> Box<dyn Optimizer> {
        OptimizerKind::Smac.build(space, METRICS_DIM, seed)
    };
    let cfg = SessionConfig {
        iterations: 12,
        lhs_init: 3,
        seed: 7,
        failure_policy: policy,
        ..Default::default()
    };
    let mut opt = IncrementalOptimizer::new(&space, strategy, &make_opt, cfg.seed, cfg.lhs_init);
    let mut obj =
        CachedObjective::with_faults(sim, None, NOISE_SEED, chaos_plan(), RetryPolicy::default());
    let mut kept: Option<SessionCheckpoint> = None;
    let mut sink = |ck: &SessionCheckpoint| {
        if ck.completed == kill_after {
            kept = Some(ck.clone());
        }
    };
    let result = run_session_resumable(&mut obj, &space, &mut opt, &cfg, resume, Some(&mut sink));
    (result, kept)
}

#[test]
fn incremental_session_resumes_across_a_phase_boundary() {
    for policy in [FailurePolicy::WorstSeen, FailurePolicy::QuarantinePenalty] {
        // Killed mid-phase (the 4-knob phase covers observations 4..8);
        // the resumed run rebuilds that phase during replay and then
        // crosses into the 6-knob phase live.
        let (uninterrupted, ck) = run_incremental(policy, None, 6);
        assert!(uninterrupted.observations.iter().any(|o| o.failed), "{policy:?}: no failure");
        let ck = SessionCheckpoint::from_json(&ck.expect("kill point reached").to_json())
            .expect("round-trip");
        let (resumed, _) = run_incremental(policy, Some(&ck), 6);
        assert_eq!(
            digest(&[uninterrupted]),
            digest(&[resumed]),
            "{policy:?}: an incremental session resumed after iteration 6 must finish \
             bit-identically"
        );
    }
}

#[test]
fn checkpoint_rejects_mismatched_sessions() {
    let (_, ck) = run_with_sink(FaultPlan::disabled(), FailurePolicy::WorstSeen, 3);

    let mut wrong_schema = ck.clone();
    wrong_schema.schema = 2;
    assert!(SessionCheckpoint::from_json(&wrong_schema.to_json()).is_err());

    let mut wrong_count = ck.clone();
    wrong_count.completed = 2;
    assert!(SessionCheckpoint::from_json(&wrong_count.to_json()).is_err());

    let mut wrong_seed = ck;
    wrong_seed.seed = 8;
    #[expect(clippy::disallowed_methods, reason = "the test asserts that this call panics")]
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        resume_from(&wrong_seed, FaultPlan::disabled(), FailurePolicy::WorstSeen)
    }));
    assert!(res.is_err(), "resuming under a different seed must fail loudly");
}

// ---------------------------------------------------------------------------
// Quarantine policy
// ---------------------------------------------------------------------------

#[test]
fn quarantine_penalty_scores_crashes_one_log_unit_below_worst_observed() {
    // Random search over a crash-prone space (buffer pool included)
    // reliably hits §4.1 crashes within a few dozen draws.
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 3);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
    let mut opt = OptimizerKind::Random.build(space.space(), METRICS_DIM, 3);
    let mut obj = CachedObjective::new(sim, None, NOISE_SEED);
    let cfg = SessionConfig {
        iterations: 40,
        lhs_init: 5,
        seed: 3,
        failure_policy: FailurePolicy::QuarantinePenalty,
        ..Default::default()
    };
    let result = run_session(&mut obj, &space, &mut opt, &cfg);

    let failures = result.observations.iter().filter(|o| o.failed).count();
    assert!(failures > 0, "seed 3 must hit the crash region (else widen the space)");

    // Re-derive the documented penalty: one log-unit below the worst
    // *observed* (non-failed) score so far, default score before any.
    let default_score = result.default_score();
    let mut worst_observed = f64::INFINITY;
    for o in &result.observations {
        if o.failed {
            let base = if worst_observed.is_finite() { worst_observed } else { default_score };
            assert_eq!(
                o.score.to_bits(),
                (base - 1.0).to_bits(),
                "quarantine penalty must be worst-observed − 1 log-unit"
            );
        } else {
            worst_observed = worst_observed.min(o.score);
        }
    }
}

// ---------------------------------------------------------------------------
// Property: retry schedules are invisible without faults
// ---------------------------------------------------------------------------

/// Small but non-trivial session for the property test.
fn tiny_session(workers: usize, retry: RetryPolicy) -> Vec<Vec<u64>> {
    let grid: Vec<(Workload, OptimizerKind, u64)> = vec![
        (Workload::Sysbench, OptimizerKind::Smac, 700),
        (Workload::Sysbench, OptimizerKind::Tpe, 700),
    ];
    let cache = EvalCache::shared();
    digest(&run_grid(&grid, workers, |_, &(wl, opt_kind, seed)| {
        let sim = DbSimulator::new(wl, Hardware::B, seed);
        let catalog = sim.catalog().clone();
        let space = TuningSpace::with_default_base(&catalog, vec![0, 1, 2, 3, 4], Hardware::B);
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = CachedObjective::with_faults(
            sim,
            Some(cache.clone()),
            NOISE_SEED,
            FaultPlan::disabled(),
            retry,
        );
        run_session(
            &mut obj,
            &space,
            &mut opt,
            &SessionConfig { iterations: 8, lhs_init: 4, seed, ..Default::default() },
        )
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any retry schedule leaves fault-free results byte-identical, on
    /// any worker count — the policy only exists when a plan is active.
    #[test]
    fn any_retry_schedule_is_inert_without_faults(
        attempts in 1u32..=16,
        backoff in 0.0f64..=600.0,
        mult in 1.0f64..=8.0,
    ) {
        let policy = RetryPolicy { max_attempts: attempts, backoff_secs: backoff, multiplier: mult };
        let baseline = tiny_session(1, RetryPolicy::none());
        for workers in [1usize, 2, 8] {
            prop_assert_eq!(
                &baseline,
                &tiny_session(workers, policy),
                "retry policy {:?} perturbed fault-free results at {} workers",
                policy,
                workers
            );
        }
    }
}
