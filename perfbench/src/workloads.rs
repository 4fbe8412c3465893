//! The four workloads: the inputs each builds from a seed, and one pass
//! of its fixed work. Every session evaluates through a
//! [`TimedObjective`], so a pass reports the think time between
//! evaluations; a traced pass also wraps each optimizer and keeps the
//! per-layer timings of [`PassTrace`].

use crate::digest;
use crate::wrap::{EvalLog, TimedObjective, TimedOptimizer};
use dbtune_core::exec::{cell_seed, run_grid_contained, CachedObjective, CellOutcome, EvalCache};
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::service::{TuningRequest, TuningService};
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{run_session, FailurePolicy, SessionConfig, SessionResult};
use dbtune_core::RetryPolicy;
use dbtune_dbsim::{DbSimulator, FaultPlan, Hardware, Workload as DbWorkload, METRICS_DIM};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// The seed whose digests `expected.json` pins.
pub const DEFAULT_SEED: u64 = 42;

/// Base of every session, optimizer and design seed (see [`setup`]).
pub const SESSION_SEED: u64 = 2022;

/// The fault plan of the `fig11_resilience` experiment: about 16% of
/// evaluation attempts suffer a timeout, a spurious crash, corrupted
/// metrics or a stall.
const CHAOS_FAULTS: &str = "seed:11,timeout:0.05,crash:0.03,noise:0.05,stall:0.03";

/// Configurations a traced pass keeps for the simulator replay probe,
/// spread evenly over its sessions.
const REPLAY_CONFIGS: usize = 2000;

/// Iteration counts at which the Fig. 9 think-time curve is read.
pub const FIG9_AT: [usize; 4] = [50, 100, 200, 250];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Mixed-Kernel BO on JOB for 250 iterations: the Fig. 9 regime.
    GpLong,
    /// The Fig. 7 / Table 7 grid: seven optimizers on two workloads.
    PaperGrid,
    /// Cheap optimizers under injected faults: the session loop, cache,
    /// retries and simulator are the whole cost.
    ChaosSweep,
    /// The Figure 2 path: SHAP knob selection, then three SMAC requests,
    /// two of them with RGPE transfer.
    KnobService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::GpLong, Workload::PaperGrid, Workload::ChaosSweep, Workload::KnobService];

    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GpLong => "gp_long",
            Workload::PaperGrid => "paper_grid",
            Workload::ChaosSweep => "chaos_sweep",
            Workload::KnobService => "knob_service",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// How much work a pass does: the benchmark runs `Full`; the self-tests
/// run `Smoke`, which keeps every code path at a fraction of the cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined by.
    Full,
    /// Reduced sizes for tests.
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }

    /// Observations in the knob-selection pool.
    pub fn pool_samples(self) -> usize {
        self.pick(600, 240)
    }
}

/// One tuning session of a grid workload.
#[derive(Clone, Debug)]
struct Cell {
    label: String,
    workload: DbWorkload,
    opt: OptimizerKind,
    knobs: usize,
    iterations: usize,
    session_seed: u64,
    /// Consecutive cells with the same group share one `EvalCache`,
    /// which is dropped when the group is done.
    cache_group: usize,
    faults: FaultPlan,
    retry: RetryPolicy,
    failure_policy: FailurePolicy,
}

/// The knob-selection-then-tuning requests of `knob_service`, run once
/// per database workload.
#[derive(Clone, Debug)]
struct ServicePlan {
    workloads: Vec<DbWorkload>,
    pool_samples: usize,
    n_knobs: usize,
    iterations: usize,
    requests: usize,
}

#[derive(Clone, Debug)]
enum Plan {
    Grid(Vec<Cell>),
    Service(ServicePlan),
}

/// Everything a pass needs, built from the seed before the first pass.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The seed they were built from.
    pub seed: u64,
    /// Worker threads for grid workloads. Every workload runs one: with
    /// two on a 2-vCPU machine, each session's time depended on what ran
    /// beside it, and the spread across runs doubled. The digests do not
    /// depend on the worker count.
    pub workers: usize,
    plan: Plan,
}

/// Builds the inputs of `workload` at `size` from `seed`, then builds
/// every session's simulator, tuning space and optimizer once and drops
/// them (see [`Inputs::build_units`]).
///
/// The seed is the input the tuning stack receives from outside: it
/// drives the measurement noise of every evaluation and the fault
/// schedules. Session and optimizer seeds are part of each workload's
/// definition, like its iteration counts: they steer how much work an
/// optimizer does (trust-region restarts, kernel lengthscales, network
/// initialisation), and varying them moved single sessions' cost by up
/// to 3×, which no pass of a few seconds can average out.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Inputs {
    let cell = |label: String, workload, opt, knobs, iterations, index| Cell {
        label,
        workload,
        opt,
        knobs,
        iterations,
        session_seed: cell_seed(SESSION_SEED, index),
        cache_group: 0,
        faults: FaultPlan::disabled(),
        retry: RetryPolicy::none(),
        failure_policy: FailurePolicy::WorstSeen,
    };
    let plan = match workload {
        Workload::GpLong => {
            let opt = OptimizerKind::MixedKernelBo;
            let label = format!("gp_long/{}", opt.slug());
            Plan::Grid(vec![cell(label, DbWorkload::Job, opt, 20, size.pick(250, 24), 0)])
        }
        Workload::PaperGrid => {
            let mut cells = Vec::new();
            for w in [DbWorkload::Sysbench, DbWorkload::Tpcc] {
                for opt in OptimizerKind::PAPER {
                    let label = format!("paper_grid/{}/{}", slug(w), opt.slug());
                    cells.push(cell(label, w, opt, 12, size.pick(60, 16), cells.len()));
                }
            }
            Plan::Grid(cells)
        }
        Workload::ChaosSweep => {
            let plan = FaultPlan::parse(CHAOS_FAULTS).expect("the fixed fault plan parses");
            let mut cells = Vec::new();
            for w in
                [DbWorkload::Job, DbWorkload::Sysbench, DbWorkload::Tpcc, DbWorkload::Smallbank]
            {
                for opt in [OptimizerKind::Random, OptimizerKind::Ga, OptimizerKind::Grid] {
                    // The sessions of one optimizer on one database share a
                    // cache, so Grid Search's repeated points hit it. A cache
                    // for the whole pass would hold every evaluation of it
                    // (120 MB), and the pass would time the memory system.
                    let group = cells.len();
                    for s in 0..size.pick(25, 2) {
                        let index = cells.len();
                        let label = format!("chaos_sweep/{}/{}/{s}", slug(w), opt.slug());
                        cells.push(Cell {
                            cache_group: group,
                            faults: plan.reseeded(cell_seed(plan.seed ^ seed, index)),
                            retry: RetryPolicy::default(),
                            failure_policy: FailurePolicy::QuarantinePenalty,
                            ..cell(label, w, opt, 12, size.pick(200, 20), index)
                        });
                    }
                }
            }
            Plan::Grid(cells)
        }
        Workload::KnobService => Plan::Service(ServicePlan {
            workloads: vec![DbWorkload::Job],
            pool_samples: size.pool_samples(),
            n_knobs: size.pick(10, 5),
            iterations: size.pick(100, 20),
            requests: 3,
        }),
    };
    let inputs = Inputs { seed, workers: 1, plan };
    inputs.build_units();
    inputs
}

fn slug(w: DbWorkload) -> String {
    w.name().replace('-', "").to_lowercase()
}

impl Inputs {
    /// Builds what each session of a pass starts from, as the pass does,
    /// and drops it: a plan that cannot be built fails here, before any
    /// pass, and the construction cost is part of set-up time, so work a
    /// change moves from the sessions into construction shows there too.
    fn build_units(&self) {
        match &self.plan {
            Plan::Grid(cells) => {
                for cell in cells {
                    let sim = DbSimulator::new(cell.workload, Hardware::B, cell.session_seed);
                    let knobs = (0..cell.knobs).collect();
                    let space = TuningSpace::with_default_base(sim.catalog(), knobs, Hardware::B);
                    black_box(cell.opt.build(space.space(), METRICS_DIM, cell.session_seed));
                }
            }
            Plan::Service(plan) => {
                for &workload in &plan.workloads {
                    let sim = DbSimulator::new(workload, Hardware::B, SESSION_SEED);
                    black_box(TuningService::new(sim.catalog().clone()));
                }
            }
        }
    }

    /// Objective evaluations one pass requests: tuning iterations plus
    /// knob-selection pool samples.
    pub fn evals_per_pass(&self) -> u64 {
        let n = match &self.plan {
            Plan::Grid(cells) => cells.iter().map(|c| c.iterations).sum(),
            Plan::Service(p) => p.workloads.len() * (p.pool_samples + p.requests * p.iterations),
        };
        n as u64
    }

    /// Sessions and requests one pass checks digests for.
    pub fn sessions_per_pass(&self) -> usize {
        match &self.plan {
            Plan::Grid(cells) => cells.len(),
            Plan::Service(p) => p.workloads.len() * (1 + p.requests),
        }
    }
}

/// One digest-checked unit of a pass: a session, a knob selection or a
/// service request. `digest` is `None` when it panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionDigest {
    /// Stable label naming the unit.
    pub label: String,
    /// The result digest.
    pub digest: Option<u64>,
}

/// Per-layer timings of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct PassTrace {
    /// Per optimizer family: nanoseconds in `suggest` and in `observe`.
    pub opt_ns: BTreeMap<&'static str, (u64, u64)>,
    /// Σ `SessionResult::overhead_secs` (suggest + observe).
    pub overhead_s: f64,
    /// Σ surrogate-fit phase seconds.
    pub fit_s: f64,
    /// Σ acquisition phase seconds.
    pub acq_s: f64,
    /// Σ bookkeeping phase seconds.
    pub book_s: f64,
    /// Σ evaluation seconds as the sessions timed them.
    pub evaluate_s: f64,
    /// Session iterations run.
    pub iterations: u64,
    /// Σ wall time of the session calls (`run_session` or `tune`).
    pub session_s: f64,
    /// Duration of every `evaluate` call.
    pub evaluate_ns: Vec<u64>,
    /// Time to build each session's objective, space and optimizer.
    pub cell_setup_ns: Vec<u64>,
    /// Σ wall time of the pass's top-level work units.
    pub busy_s: f64,
    /// Evaluations answered by the shared cache.
    pub cache_hits: u64,
    /// Evaluations the cache had to run.
    pub cache_misses: u64,
    /// Configurations to replay through the simulator, with the workload
    /// they were evaluated on.
    pub replay: Vec<(DbWorkload, Vec<f64>)>,
    /// `knob_service` only: Σ pool evaluation seconds inside
    /// `select_knobs`.
    pub pool_eval_s: Option<f64>,
    /// `knob_service` only: wall seconds of the requests without transfer.
    pub tune_s: Vec<f64>,
    /// `knob_service` only: wall seconds of the requests with transfer.
    pub tune_transfer_s: Vec<f64>,
}

/// What one pass did.
#[derive(Clone, Debug, Default)]
pub struct PassOutput {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Digest of every session, in a fixed order.
    pub sessions: Vec<SessionDigest>,
    /// Think-time samples of every session, in a fixed order.
    pub decide_ns: Vec<u64>,
    /// The rest of the pass's timed work, in a fixed order: each unit's
    /// set-up, every `evaluate` call, the time from a session's last
    /// evaluation to its return, and the knob-selection pools' think
    /// time. With `decide_ns` it covers every work unit end to end.
    pub work_ns: Vec<u64>,
    /// Grid workloads only: the Fig. 9 curve, `fig9.<slug>.decide_ms.at<n>`
    /// with the mean think time (ms) over the five iterations before each
    /// [`FIG9_AT`] count the family's sessions reach, averaged over them.
    pub fig9: Vec<(String, f64)>,
    /// `knob_service` only: wall seconds of each `select_knobs` call.
    pub select_s: Vec<f64>,
    /// Present for a traced pass.
    pub trace: Option<PassTrace>,
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Adds one session's Fig. 9 windows to per-(family, count) sums.
fn add_fig9(
    sums: &mut BTreeMap<(&'static str, usize), (f64, usize)>,
    slug: &'static str,
    decide_ns: &[u64],
) {
    for at in FIG9_AT.into_iter().filter(|&at| at <= decide_ns.len()) {
        let window = &decide_ns[at - 5..at];
        let e = sums.entry((slug, at)).or_default();
        e.0 += window.iter().sum::<u64>() as f64 / window.len() as f64 / 1e6;
        e.1 += 1;
    }
}

/// The per-layer totals of one session, taken from its result.
#[derive(Clone, Copy, Debug, Default)]
struct SessionTotals {
    overhead_s: f64,
    fit_s: f64,
    acq_s: f64,
    book_s: f64,
    evaluate_s: f64,
    iterations: u64,
    session_s: f64,
}

impl SessionTotals {
    fn of(result: &SessionResult, session_s: f64) -> Self {
        let (fit_s, acq_s, book_s) = result.phases.overhead_totals();
        Self {
            overhead_s: result.overhead_secs.iter().sum(),
            fit_s,
            acq_s,
            book_s,
            evaluate_s: result.phases.evaluate_secs.iter().sum(),
            iterations: result.observations.len() as u64,
            session_s,
        }
    }
}

impl PassTrace {
    fn add_session(&mut self, s: SessionTotals, log: &EvalLog) {
        self.overhead_s += s.overhead_s;
        self.fit_s += s.fit_s;
        self.acq_s += s.acq_s;
        self.book_s += s.book_s;
        self.evaluate_s += s.evaluate_s;
        self.iterations += s.iterations;
        self.session_s += s.session_s;
        self.evaluate_ns.extend_from_slice(&log.evaluate_ns);
    }
}

/// Runs one pass of `inputs`; `traced` adds the optimizer wrappers and
/// keeps the per-layer timings.
pub fn run_pass(inputs: &Inputs, traced: bool) -> PassOutput {
    match &inputs.plan {
        Plan::Grid(cells) => run_grid_pass(inputs, cells, traced),
        Plan::Service(plan) => run_service_pass(inputs, plan, traced),
    }
}

/// What one grid cell hands back to the pass.
struct CellRun {
    digest: u64,
    totals: SessionTotals,
    log: EvalLog,
    opt_ns: Option<(u64, u64)>,
    setup_ns: u64,
    cell_s: f64,
    hits: u64,
    misses: u64,
}

fn run_cell(
    cell: &Cell,
    cache: &Arc<EvalCache>,
    noise_seed: u64,
    capture_limit: usize,
    traced: bool,
) -> CellRun {
    let t0 = Instant::now();
    let sim = DbSimulator::new(cell.workload, Hardware::B, cell.session_seed);
    let space =
        TuningSpace::with_default_base(sim.catalog(), (0..cell.knobs).collect(), Hardware::B);
    let opt = cell.opt.build(space.space(), METRICS_DIM, cell.session_seed);
    let objective =
        CachedObjective::with_faults(sim, Some(cache.clone()), noise_seed, cell.faults, cell.retry);
    let setup_ns = nanos(t0);

    let session = SessionConfig {
        iterations: cell.iterations,
        lhs_init: 10,
        seed: cell.session_seed,
        failure_policy: cell.failure_policy,
        diag_label: None,
    };
    let mut obj = TimedObjective::new(objective, capture_limit);
    let t1 = Instant::now();
    let (result, opt_ns) = if traced {
        let mut timed = TimedOptimizer::new(opt);
        let result = run_session(&mut obj, &space, &mut timed, &session);
        (result, Some((timed.suggest_ns, timed.observe_ns)))
    } else {
        let mut opt = opt;
        (run_session(&mut obj, &space, &mut opt, &session), None)
    };
    let session_s = t1.elapsed().as_secs_f64();
    let (objective, log) = obj.into_parts();
    CellRun {
        digest: digest::session_digest(&result),
        totals: SessionTotals::of(&result, session_s),
        log,
        opt_ns,
        setup_ns,
        cell_s: t0.elapsed().as_secs_f64(),
        hits: objective.n_hits() as u64,
        misses: objective.n_misses() as u64,
    }
}

fn run_grid_pass(inputs: &Inputs, cells: &[Cell], traced: bool) -> PassOutput {
    let capture_limit = if traced { REPLAY_CONFIGS.div_ceil(cells.len()) } else { 0 };
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(cells.len());
    for group in cells.chunk_by(|a, b| a.cache_group == b.cache_group) {
        let cache = EvalCache::shared();
        outcomes.extend(run_grid_contained(group, inputs.workers, |_, cell| {
            run_cell(cell, &cache, inputs.seed, capture_limit, traced)
        }));
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut out = PassOutput { wall_s, ..Default::default() };
    let mut trace = PassTrace::default();
    let mut fig9 = BTreeMap::new();
    for (cell, outcome) in cells.iter().zip(outcomes) {
        let run = match outcome {
            CellOutcome::Completed(run) => run,
            CellOutcome::Panicked { message } => {
                eprintln!("perfbench: session {} panicked: {message}", cell.label);
                out.sessions.push(SessionDigest { label: cell.label.clone(), digest: None });
                continue;
            }
        };
        out.sessions.push(SessionDigest { label: cell.label.clone(), digest: Some(run.digest) });
        add_fig9(&mut fig9, cell.opt.slug(), &run.log.decide_ns);
        if traced {
            trace.add_session(run.totals, &run.log);
            if let Some((s, o)) = run.opt_ns {
                let e = trace.opt_ns.entry(cell.opt.slug()).or_default();
                e.0 += s;
                e.1 += o;
            }
            trace.cell_setup_ns.push(run.setup_ns);
            trace.busy_s += run.cell_s;
            trace.cache_hits += run.hits;
            trace.cache_misses += run.misses;
            trace.replay.extend(run.log.configs.into_iter().map(|c| (cell.workload, c)));
        }
        out.decide_ns.extend_from_slice(&run.log.decide_ns);
        out.work_ns.push(run.setup_ns);
        out.work_ns.extend_from_slice(&run.log.evaluate_ns);
        out.work_ns.push(run.log.tail_ns);
    }
    out.fig9 = fig9
        .into_iter()
        .map(|((slug, at), (sum, n))| (format!("fig9.{slug}.decide_ms.at{at}"), sum / n as f64))
        .collect();
    if traced {
        out.trace = Some(trace);
    }
    out
}

fn run_service_pass(inputs: &Inputs, plan: &ServicePlan, traced: bool) -> PassOutput {
    let units = plan.workloads.len() * (1 + plan.requests);
    let capture_limit = if traced { REPLAY_CONFIGS / units } else { 0 };
    let start = Instant::now();
    let mut out = PassOutput::default();
    let mut trace = PassTrace::default();
    for (wi, &workload) in plan.workloads.iter().enumerate() {
        // The knob-selection pool is measured with fixed noise: a pool is
        // collected once and reused (the experiment binaries cache theirs under
        // `results/`), and its SHAP cost hinges on where the boosted
        // trees stop early, which moved `select_knobs` by 20% from one
        // noise draw to the next. The seed drives the requests' noise.
        let pool_noise = cell_seed(SESSION_SEED, wi);
        let request_noise = |r| cell_seed(inputs.seed, wi * plan.requests + r);
        run_service_flow(
            workload,
            plan,
            pool_noise,
            request_noise,
            capture_limit,
            &mut out,
            &mut trace,
        );
    }
    out.wall_s = start.elapsed().as_secs_f64();
    if traced {
        out.trace = Some(trace);
    }
    out
}

/// The Figure 2 flow for one database workload: a fresh service selects
/// knobs, then serves the tuning requests over them.
fn run_service_flow(
    workload: DbWorkload,
    plan: &ServicePlan,
    pool_noise: u64,
    request_noise: impl Fn(usize) -> u64,
    capture_limit: usize,
    out: &mut PassOutput,
    trace: &mut PassTrace,
) {
    let prefix = format!("knob_service/{}", slug(workload));
    let t0 = Instant::now();
    let sim = DbSimulator::new(workload, Hardware::B, SESSION_SEED);
    let mut service = TuningService::new(sim.catalog().clone());
    let pool_objective = CachedObjective::new(&sim, None, pool_noise);
    let setup_ns = nanos(t0);
    trace.cell_setup_ns.push(setup_ns);
    out.work_ns.push(setup_ns);

    let mut pool = TimedObjective::new(pool_objective, capture_limit);
    let t_select = Instant::now();
    let selected = std::panic::catch_unwind(AssertUnwindSafe(|| {
        service.select_knobs(
            &mut pool,
            MeasureKind::Shap,
            plan.pool_samples,
            plan.n_knobs,
            SESSION_SEED,
        )
    }))
    .ok();
    let select_s = t_select.elapsed().as_secs_f64();
    out.select_s.push(select_s);
    trace.busy_s += select_s;
    let (_, pool_log) = pool.into_parts();
    out.work_ns.extend_from_slice(&pool_log.decide_ns);
    out.work_ns.extend_from_slice(&pool_log.evaluate_ns);
    out.work_ns.push(pool_log.tail_ns);
    *trace.pool_eval_s.get_or_insert(0.0) += pool_log.evaluate_ns.iter().sum::<u64>() as f64 / 1e9;
    trace.evaluate_ns.extend_from_slice(&pool_log.evaluate_ns);
    trace.replay.extend(pool_log.configs.into_iter().map(|c| (workload, c)));
    out.sessions.push(SessionDigest {
        label: format!("{prefix}/select"),
        digest: selected.as_deref().map(digest::selection_digest),
    });

    for r in 0..plan.requests {
        let label = format!("{prefix}/request{}", r + 1);
        let Some(selected) = &selected else {
            out.sessions.push(SessionDigest { label, digest: None });
            continue;
        };
        let t0 = Instant::now();
        let request = TuningRequest {
            task: format!("{prefix}/task{}", r + 1),
            measure: MeasureKind::Shap,
            pool_samples: plan.pool_samples,
            n_knobs: plan.n_knobs,
            optimizer: OptimizerKind::Smac,
            transfer: r > 0,
            knobs_override: Some(selected.clone()),
            session: SessionConfig {
                iterations: plan.iterations,
                lhs_init: 10,
                seed: cell_seed(SESSION_SEED, r),
                ..Default::default()
            },
        };
        let objective = CachedObjective::new(&sim, None, request_noise(r));
        let setup_ns = nanos(t0);
        trace.cell_setup_ns.push(setup_ns);
        out.work_ns.push(setup_ns);

        let mut obj = TimedObjective::new(objective, capture_limit);
        let t1 = Instant::now();
        let report =
            std::panic::catch_unwind(AssertUnwindSafe(|| service.tune(&mut obj, &request)));
        let tune_s = t1.elapsed().as_secs_f64();
        let (_, log) = obj.into_parts();
        let digest = report.ok().map(|report| {
            trace.add_session(SessionTotals::of(&report.result, tune_s), &log);
            // The source count is part of the result: a request that
            // silently stopped transferring must not pass the gate.
            digest::fnv1a([digest::session_digest(&report.result), report.n_sources as u64])
        });
        out.sessions.push(SessionDigest { label, digest });
        if r == 0 {
            trace.tune_s.push(tune_s);
        } else {
            trace.tune_transfer_s.push(tune_s);
        }
        trace.busy_s += tune_s;
        trace.replay.extend(log.configs.into_iter().map(|c| (workload, c)));
        out.decide_ns.extend_from_slice(&log.decide_ns);
        out.work_ns.extend_from_slice(&log.evaluate_ns);
        out.work_ns.push(log.tail_ns);
    }
}
