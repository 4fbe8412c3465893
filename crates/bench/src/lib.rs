//! Shared plumbing for the experiment drivers (one binary per paper table
//! or figure — see `src/bin/`) and the trace and quality tooling.
//!
//! Every driver accepts `key=value` command-line overrides (`iters=200`,
//! `seeds=3`, `samples=6250`, …). Defaults are scaled for a single-core
//! machine; `EXPERIMENTS.md` records both the defaults used and the
//! paper-scale settings.

pub mod artifact;
pub mod quality;

use dbtune_core::exec::{
    cell_seed, resolve_workers, run_grid, CacheStats, CachedObjective, DeterministicObjective,
    EvalCache, RetryPolicy,
};
use dbtune_core::importance::{ImportanceInput, MeasureKind};
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::space::TuningSpace;
use dbtune_core::telemetry;
use dbtune_core::tuner::{lhs_pool, run_session, SessionConfig, SessionResult};
use dbtune_dbsim::{DbSimulator, FaultPlan, Hardware, KnobCatalog, Workload, METRICS_DIM};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// RAII guard flushing the global trace journal when dropped. Every
/// driver `main` takes one as its first statement:
///
/// ```no_run
/// fn main() {
///     let _trace_flush = dbtune_bench::flush_guard();
///     // ...
/// }
/// ```
///
/// The journal writes through a `BufWriter`, so without a final flush a
/// driver that exits early — a panic mid-grid, a `return` on a bad
/// argument — leaves its last buffered lines unwritten, and a truncated
/// journal can look complete enough to pass naive checks. The guard
/// runs on ordinary returns *and* unwinding panics, making truncation a
/// structural violation `trace_validate` can actually catch (an
/// unclosed parent span) rather than a silent artifact of buffering.
/// A no-op when tracing is disabled.
#[allow(
    clippy::needless_doctest_main,
    reason = "the guard must be the first statement of a driver's main, so the example shows one"
)]
#[must_use = "the guard flushes on drop; binding it to _ drops it immediately"]
pub struct TraceFlushGuard(());

impl Drop for TraceFlushGuard {
    fn drop(&mut self) {
        telemetry::global().journal.flush();
    }
}

/// Creates the [`TraceFlushGuard`] for a driver's `main`.
pub fn flush_guard() -> TraceFlushGuard {
    TraceFlushGuard(())
}

/// `key=value` command-line arguments with typed getters. A driver names
/// every key it reads when it parses them, so a mistyped flag stops it
/// instead of running silently with a default.
pub struct ExpArgs {
    map: BTreeMap<String, String>,
    known: Vec<&'static str>,
}

/// The keys [`GridOpts::from_args`] reads.
const GRID_KEYS: &[&str] = &["workers", "cache", "trace", "diag", "mem", "faults", "retries"];

/// Size arguments and the least value a driver can do anything with:
/// no iterations, samples, seeds, repeats or runs leave nothing to report,
/// and k-fold cross-validation needs two folds.
const MIN_SIZES: &[(&str, usize)] =
    &[("iters", 1), ("samples", 1), ("seeds", 1), ("repeats", 1), ("runs", 1), ("folds", 2)];

/// Ends a driver before any work: prints `error: {msg}` and exits with
/// status 1, as the CLI does.
fn exit_with(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

impl ExpArgs {
    /// Parses `std::env::args` for a driver that reads the keys in `known`.
    /// Any other key ends the driver here, before any work: it prints
    /// ``error: unknown argument `workrs=` (known: …)`` and exits with
    /// status 1. Arguments without `=` are left to the driver.
    pub fn parse(known: &[&'static str]) -> Self {
        Self::from_strs(std::env::args().skip(1), known).unwrap_or_else(|msg| exit_with(msg))
    }

    /// [`Self::parse`] for a driver that runs a grid: its own keys plus
    /// the keys [`GridOpts::from_args`] reads.
    pub fn parse_grid(known: &[&'static str]) -> Self {
        Self::parse(&[known, GRID_KEYS].concat())
    }

    fn from_strs(
        args: impl IntoIterator<Item = String>,
        known: &[&'static str],
    ) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for arg in args {
            if let Some((k, v)) = arg.split_once('=') {
                let k = k.trim_start_matches('-');
                if !known.contains(&k) {
                    return Err(format!("unknown argument `{k}=` (known: {})", known.join(", ")));
                }
                map.insert(k.to_string(), v.to_string());
            }
        }
        Ok(Self { map, known: known.to_vec() })
    }

    /// The raw value of `key`, which the driver must have declared.
    fn value(&self, key: &str) -> Option<&String> {
        assert!(self.known.contains(&key), "argument `{key}` is read but was never declared");
        self.map.get(key)
    }

    /// Size argument with default (`iters`, `samples`, `seeds`, `repeats`,
    /// `runs` or `folds`). Drivers read their sizes before any work, so a
    /// size too small to report anything ends the driver here: it prints
    /// `error: iters=0: must be at least 1` and exits with status 1.
    pub fn get_size(&self, key: &str, default: usize) -> usize {
        self.size(key, default).unwrap_or_else(|msg| exit_with(msg))
    }

    /// [`Self::get_size`]'s check, as a value.
    fn size(&self, key: &str, default: usize) -> Result<usize, String> {
        let min = MIN_SIZES
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, min)| min)
            .unwrap_or_else(|| panic!("`{key}` is not a size argument"));
        let n = self.usize_value(key)?.unwrap_or(default);
        if n < min {
            return Err(format!("{key}={n}: must be at least {min}"));
        }
        Ok(n)
    }

    /// Integer argument with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.opt_usize(key).unwrap_or(default)
    }

    /// String argument with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.value(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Optional integer argument (no default — e.g. `workers=`, which
    /// falls back to the executor's own resolution chain when absent). A
    /// value that is not a non-negative integer ends the driver like an
    /// unknown flag: it prints `error: bad value for workers: two
    /// (expected a non-negative integer)` and exits with status 1.
    pub fn opt_usize(&self, key: &str) -> Option<usize> {
        self.usize_value(key).unwrap_or_else(|msg| exit_with(msg))
    }

    /// [`Self::opt_usize`]'s parse, as a value.
    fn usize_value(&self, key: &str) -> Result<Option<usize>, String> {
        self.value(key)
            .map(|v| {
                v.parse().map_err(|_| {
                    format!("bad value for {key}: {v} (expected a non-negative integer)")
                })
            })
            .transpose()
    }

    /// An `on|off` switch, `default` when absent.
    fn on_off(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.value(key).map(String::as_str) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(format!("bad value for {key}: {other} (expected on|off)")),
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel grid execution (see dbtune_core::exec and docs/execution.md)
// ---------------------------------------------------------------------------

/// Execution settings shared by every driver: worker-pool size
/// (`workers=N` flag > `DBTUNE_WORKERS` env > detected, capped at 8),
/// whether the shared evaluation cache is on (`cache=on|off`, default
/// on), and the grid-level noise seed from which every evaluation's
/// noise token is mixed.
#[derive(Clone, Copy, Debug)]
pub struct GridOpts {
    /// Worker threads for [`run_grid`].
    pub workers: usize,
    /// Share an [`EvalCache`] across the grid's sessions.
    pub cache: bool,
    /// Grid-level noise seed (fixed per driver so cached results mean
    /// the same thing to every session).
    pub noise_seed: u64,
    /// Transient-fault schedule (`faults=` flag; inactive by default, so
    /// every existing artifact stays byte-identical). Each grid cell gets
    /// the plan reseeded by its index.
    pub faults: FaultPlan,
    /// Retry schedule for transient faults (`retries=` flag).
    pub retry: RetryPolicy,
}

impl GridOpts {
    /// Parses `workers=` / `cache=` / `trace=` / `diag=` / `mem=` /
    /// `faults=` / `retries=` from the driver's arguments. `driver`
    /// names the binary; it becomes the journal's `source` when
    /// `trace=<path>` starts one (the `DBTUNE_TRACE` environment
    /// variable is handled by the telemetry global itself). `diag=on`
    /// latches the optimizer-quality recorder (see
    /// docs/observability.md); its records go only to the journal, so it
    /// needs `trace=` or `DBTUNE_TRACE`. `mem=on` latches the memory
    /// profiler the same way: span records carry their allocations
    /// (journal on) and the `mem.*` metrics are published at report time;
    /// accounting is read-only, so results stay byte-identical either
    /// way. Fault injection defaults off; see `docs/robustness.md` for
    /// the flag grammar.
    ///
    /// A bad value, a journal that cannot be opened, or `diag=on` with no
    /// journal ends the driver here, before any work: it prints
    /// `error: bad value for cache: maybe (expected on|off)` (or the
    /// matching message) and exits with status 1.
    pub fn from_args(driver: &str, args: &ExpArgs, noise_seed: u64) -> Self {
        Self::try_from_args(driver, args, noise_seed).unwrap_or_else(|msg| exit_with(msg))
    }

    /// [`Self::from_args`] as a value. Every value is checked before the
    /// journal opens or an observer latches.
    fn try_from_args(driver: &str, args: &ExpArgs, noise_seed: u64) -> Result<Self, String> {
        let cache = args.on_off("cache", true)?;
        let diag = args.on_off("diag", false)?;
        let mem = args.on_off("mem", false)?;
        let faults = FaultPlan::parse(&args.get_str("faults", "off"))
            .map_err(|e| format!("bad value for faults: {e}"))?;
        let retry = RetryPolicy::parse(&args.get_str("retries", ""))
            .map_err(|e| format!("bad value for retries: {e}"))?;
        let workers = resolve_workers(args.usize_value("workers")?);
        let tele = telemetry::global();
        let trace = args.get_str("trace", "");
        if !trace.is_empty() {
            tele.enable_journal(std::path::Path::new(&trace), driver)
                .map_err(|e| format!("cannot open trace journal {trace}: {e}"))?;
        }
        if diag {
            if !tele.journal.is_enabled() {
                return Err(format!(
                    "diag=on writes its records only to the trace journal; \
                     add trace=<path> or set {}",
                    telemetry::TRACE_ENV
                ));
            }
            tele.enable_diag();
        }
        if mem {
            tele.enable_memprof();
        }
        Ok(Self { workers, cache, noise_seed, faults, retry })
    }

    /// A fresh shared cache, or `None` when disabled.
    pub fn make_cache(&self) -> Option<Arc<EvalCache>> {
        if self.cache {
            Some(EvalCache::shared())
        } else {
            None
        }
    }

    /// The objective grid cell `index` evaluates through: `inner` behind
    /// `cache`, under the cell's reseeded fault plan (see
    /// [`cell_fault_plan`]) and the grid's retry policy. With faults off,
    /// the default, this is exactly `CachedObjective::new(inner, cache,
    /// noise_seed)`.
    pub fn cell_objective<O: DeterministicObjective>(
        &self,
        inner: O,
        cache: Option<Arc<EvalCache>>,
        index: usize,
    ) -> CachedObjective<O> {
        CachedObjective::with_faults(
            inner,
            cache,
            self.noise_seed,
            cell_fault_plan(&self.faults, index),
            self.retry,
        )
    }

    /// Final execution report for the driver's JSON output. Also publishes
    /// the cache counters into the global metrics registry, so the
    /// `"telemetry"` block, the journal flush, and the console summary all
    /// read the same numbers.
    pub fn report(&self, cache: Option<&Arc<EvalCache>>) -> ExecReport {
        let stats = cache.map(|c| c.stats()).unwrap_or_default();
        let metrics = &telemetry::global().metrics;
        metrics.counter("exec.cache.hits").add(stats.hits);
        metrics.counter("exec.cache.misses").add(stats.misses);
        metrics.gauge("exec.cache.entries").set(stats.entries as i64);
        // Memory metrics are registered lazily, only when the profiler is
        // latched (`mem=on`), so unprofiled artifacts keep their exact
        // telemetry key set. All of these live in the `"telemetry"` block
        // only — like wall clock, never `"results"`.
        if telemetry::global().memprof_enabled() {
            let mem = dbtune_obs::memprof::global_stats();
            metrics.gauge("mem.peak_bytes").set(mem.peak_bytes as i64);
            metrics.gauge("mem.live_bytes").set(mem.live_bytes as i64);
            metrics.counter("mem.alloc_count").add(mem.alloc_count);
            metrics.counter("mem.alloc_bytes").add(mem.alloc_bytes);
            let evals = metrics.counter("sim.evals").get();
            if let Some(per_eval) = mem.alloc_count.checked_div(evals) {
                metrics.gauge("mem.allocs_per_eval").set(per_eval as i64);
            }
        }
        ExecReport {
            workers: self.workers,
            cache_enabled: self.cache,
            noise_seed: self.noise_seed,
            cache: stats,
            faults: self.faults,
            retry: self.retry,
        }
    }
}

/// How a grid was executed — embedded under `"exec"` in every driver's
/// JSON output. The cache counters are deterministic (see
/// [`CacheStats`]). `workers` is deliberately NOT serialized: it is the
/// one field that would differ between otherwise byte-identical runs,
/// and keeping it out of the artifact makes `workers=1` and `workers=8`
/// outputs literally `cmp`-equal (the count still goes to stdout).
#[derive(Clone, Copy, Debug)]
pub struct ExecReport {
    /// Worker threads used (stdout only, see above).
    pub workers: usize,
    /// Whether the shared evaluation cache was on.
    pub cache_enabled: bool,
    /// Grid-level noise seed.
    pub noise_seed: u64,
    /// Cache counters (all zero when the cache was off).
    pub cache: CacheStats,
    /// The fault schedule the grid ran under (inactive by default).
    pub faults: FaultPlan,
    /// The retry policy applied to transient faults.
    pub retry: RetryPolicy,
}

impl Serialize for ExecReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("cache_enabled".to_string(), self.cache_enabled.to_value()),
            ("noise_seed".to_string(), self.noise_seed.to_value()),
            ("cache".to_string(), self.cache.to_value()),
        ];
        // Chaos settings appear only when injection is on: faults-off
        // artifacts must stay byte-identical to the pre-fault baseline.
        if self.faults.is_active() {
            fields.push((
                "faults".to_string(),
                serde::Value::Object(vec![
                    ("seed".to_string(), self.faults.seed.to_value()),
                    ("timeout_rate".to_string(), self.faults.timeout_rate.to_value()),
                    ("crash_rate".to_string(), self.faults.crash_rate.to_value()),
                    ("noise_rate".to_string(), self.faults.noise_rate.to_value()),
                    ("stall_rate".to_string(), self.faults.stall_rate.to_value()),
                    ("timeout_secs".to_string(), self.faults.timeout_secs.to_value()),
                    ("stall_secs".to_string(), self.faults.stall_secs.to_value()),
                ]),
            ));
            fields.push((
                "retry".to_string(),
                serde::Value::Object(vec![
                    ("max_attempts".to_string(), self.retry.max_attempts.to_value()),
                    ("backoff_secs".to_string(), self.retry.backoff_secs.to_value()),
                    ("multiplier".to_string(), self.retry.multiplier.to_value()),
                ]),
            ));
        }
        serde::Value::Object(fields)
    }
}

/// One cell of a standard tuning grid: a full session of `opt_kind` over
/// `selected` knobs of `workload` on instance B.
#[derive(Clone, Debug)]
pub struct TuningCell {
    /// Workload under tuning.
    pub workload: Workload,
    /// Catalog indices of the tuning space.
    pub selected: Vec<usize>,
    /// Optimizer driving the session.
    pub opt_kind: OptimizerKind,
    /// Session iterations.
    pub iters: usize,
    /// Session seed (LHS init + optimizer).
    pub seed: u64,
}

/// Runs grid cell `index`: a tuning session against the cell's
/// cache-wrapped simulator ([`GridOpts::cell_objective`]). Pure given the
/// cell and the options: the shared cache only memoizes, so results are
/// identical with the cache on, off, or shared, and exhausted fault
/// retries surface as failures to the session's failure policy.
pub fn run_grid_cell(
    cell: &TuningCell,
    cache: Option<Arc<EvalCache>>,
    opts: &GridOpts,
    index: usize,
) -> SessionResult {
    let sim = DbSimulator::new(cell.workload, Hardware::B, cell.seed);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, cell.selected.clone(), Hardware::B);
    let mut opt = cell.opt_kind.build(space.space(), METRICS_DIM, cell.seed);
    let mut obj = opts.cell_objective(sim, cache, index);
    // Label diag records so one journal distinguishes grid cells; the
    // label is built only when the recorder is on (it never influences
    // tuning either way).
    let diag_label = telemetry::global()
        .diag_enabled()
        .then(|| diag_session_label(cell.opt_kind, cell.workload, cell.selected.len(), cell.seed));
    run_session(
        &mut obj,
        &space,
        &mut opt,
        &SessionConfig {
            iterations: cell.iters,
            lhs_init: 10,
            seed: cell.seed,
            diag_label,
            ..Default::default()
        },
    )
}

/// The diag session label a grid cell's records carry: optimizer slug,
/// lowercased workload name, knob count, and seed (`smac/job/k12/s42`).
/// One definition so journal producers and `BENCH_quality.json`
/// consumers agree. The knob count matters: drivers like fig5/fig7
/// sweep space sizes with everything else fixed, and two sessions that
/// fold into one label would merge into a nonsense summary.
pub fn diag_session_label(
    opt_kind: OptimizerKind,
    workload: Workload,
    knobs: usize,
    seed: u64,
) -> String {
    format!("{}/{}/k{knobs}/s{seed}", opt_kind.slug(), workload.name().to_lowercase())
}

/// The per-cell fault schedule: the grid plan reseeded by the cell's
/// index, so every cell draws an unrelated fault sequence while the grid
/// as a whole stays replayable from one seed (and independent of worker
/// count — the index, not the thread, picks the schedule).
pub fn cell_fault_plan(grid: &FaultPlan, index: usize) -> FaultPlan {
    if grid.is_active() {
        grid.reseeded(cell_seed(grid.seed, index))
    } else {
        *grid
    }
}

/// Runs a grid of tuning sessions on the worker pool with a shared cache,
/// returning results in grid order plus the execution report.
pub fn run_tuning_grid(cells: &[TuningCell], opts: &GridOpts) -> (Vec<SessionResult>, ExecReport) {
    let cache = opts.make_cache();
    let results = run_grid(cells, opts.workers, |index, cell| {
        run_grid_cell(cell, cache.clone(), opts, index)
    });
    (results, opts.report(cache.as_ref()))
}

/// The uniform end-of-run console summary, printed by every driver in
/// place of ad-hoc `[exec]` lines. Cache counters come from the execution
/// report (deterministic per grid); the simulator counters come from the
/// same global registry the `"telemetry"` JSON block snapshots.
pub fn print_exec_summary(exec: &ExecReport) {
    let metrics = &telemetry::global().metrics;
    println!(
        "\n[exec] workers={} cache hits={} misses={} entries={} | sim evals={} crashes={}",
        exec.workers,
        exec.cache.hits,
        exec.cache.misses,
        exec.cache.entries,
        metrics.counter("sim.evals").get(),
        metrics.counter("sim.crashes").get(),
    );
    if telemetry::global().memprof_enabled() {
        let mem = dbtune_obs::memprof::global_stats();
        println!(
            "[mem] peak={} live={} allocs={} alloc bytes={}",
            mem.peak_bytes, mem.live_bytes, mem.alloc_count, mem.alloc_bytes,
        );
    }
    if exec.faults.is_active() {
        println!(
            "[chaos] fault seed={} timeouts={} spurious crashes={} noisy={} stalls={} | retries={} exhausted={} panics contained={}",
            exec.faults.seed,
            metrics.counter("sim.faults.timeout").get(),
            metrics.counter("sim.faults.crash").get(),
            metrics.counter("sim.faults.noise").get(),
            metrics.counter("sim.faults.stall").get(),
            metrics.counter("exec.retries").get(),
            metrics.counter("exec.retry_exhausted").get(),
            metrics.counter("exec.panics_contained").get(),
        );
    }
}

/// Directory where drivers persist JSON results (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create results directory {}: {e}", dir.display()));
    dir
}

/// Persists a serializable result under `results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let file = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create {} for driver '{name}': {e}", path.display()));
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), value)
        .unwrap_or_else(|e| panic!("cannot write '{name}' results to {}: {e}", path.display()));
    println!("[saved {}]", path.display());
}

/// Persists `{"results": ..., "exec": ..., "telemetry": ...}` — the
/// uniform output shape of every driver, so downstream tooling (and the
/// smoke test) can rely on those top-level keys. Only `"telemetry"`
/// contains wall-clock numbers; `"results"` and `"exec"` are byte-
/// identical run to run, traced or not (see docs/observability.md).
pub fn save_json_with_exec<T: Serialize>(name: &str, results: &T, exec: &ExecReport) {
    save_json_with_telemetry(name, results, exec, None)
}

/// [`save_json_with_exec`] with an extra driver-specific value appended
/// to the `"telemetry"` block under `"driver"` (e.g. fig9's per-phase
/// overhead series). Flushes the metrics registry to the journal first,
/// so a trace ends with one `counter`/`gauge` event per instrument.
pub fn save_json_with_telemetry<T: Serialize>(
    name: &str,
    results: &T,
    exec: &ExecReport,
    driver_telemetry: Option<serde::Value>,
) {
    telemetry::global().flush_metrics();
    let mut tele_value = telemetry::global_report_value();
    if let Some(extra) = driver_telemetry {
        if let serde::Value::Object(fields) = &mut tele_value {
            fields.push(("driver".to_string(), extra));
        }
    }
    let wrapped = serde::Value::Object(vec![
        ("results".to_string(), results.to_value()),
        ("exec".to_string(), exec.to_value()),
        ("telemetry".to_string(), tele_value),
    ]);
    save_json(name, &wrapped);
}

/// An LHS observation pool over the full 197-knob catalog for one
/// workload: configurations and maximize-oriented scores.
#[derive(Clone, Debug)]
pub struct Pool {
    /// Full-catalog raw configurations.
    pub x: Vec<Vec<f64>>,
    /// Maximize-oriented scores (failures scored by the pool rule, see
    /// [`dbtune_core::tuner::PoolScorer`]).
    pub y: Vec<f64>,
    /// The hardware-adjusted default configuration.
    pub default_cfg: Vec<f64>,
}

/// Collects an LHS pool of `n` observations of `workload` on instance B
/// — the §5.1 sample-collection step. Collecting is cheap (a 6250-sample
/// pool takes tens of milliseconds in a release build), so every driver
/// run collects its pools afresh.
pub fn full_pool(workload: Workload, n: usize, seed: u64) -> Pool {
    let mut sim = DbSimulator::new(workload, Hardware::B, seed);
    let catalog = sim.catalog().clone();
    let default_cfg = catalog.default_config(Hardware::B);
    let all: Vec<usize> = (0..catalog.len()).collect();
    let space = TuningSpace::new(&catalog, all, default_cfg.clone());
    let (x, y) = lhs_pool(&mut sim, &space, n, &mut StdRng::seed_from_u64(seed ^ 0x9001));
    Pool { x, y, default_cfg }
}

/// Runs one importance measurement over a pool, returning per-knob scores.
pub fn importance_scores(
    kind: MeasureKind,
    catalog: &KnobCatalog,
    pool: &Pool,
    seed: u64,
) -> Vec<f64> {
    let measure = kind.build();
    measure.scores(&ImportanceInput {
        specs: catalog.specs(),
        default: &pool.default_cfg,
        x: &pool.x,
        y: &pool.y,
        seed,
    })
}

/// Top-`k` knob indices under a measurement.
pub fn top_k_knobs(
    kind: MeasureKind,
    catalog: &KnobCatalog,
    pool: &Pool,
    k: usize,
    seed: u64,
) -> Vec<usize> {
    dbtune_core::importance::top_k(&importance_scores(kind, catalog, pool, seed), k)
}

/// Runs one full tuning session of `opt_kind` over the selected knobs of
/// `workload` on instance B — the single-cell convenience form of
/// [`run_tuning_grid`], sharing its deterministic noise scheme (noise
/// seed = session seed, no cache, no faults).
pub fn run_tuning(
    workload: Workload,
    selected: Vec<usize>,
    opt_kind: OptimizerKind,
    iters: usize,
    seed: u64,
) -> SessionResult {
    let cell = TuningCell { workload, selected, opt_kind, iters, seed };
    let opts = GridOpts {
        workers: 1,
        cache: false,
        noise_seed: seed,
        faults: FaultPlan::disabled(),
        retry: RetryPolicy::none(),
    };
    run_grid_cell(&cell, None, &opts, 0)
}

/// Median of a slice (convenience re-export for drivers).
pub fn median(xs: &[f64]) -> f64 {
    dbtune_linalg::stats::median(xs)
}

/// Renders a plain-text table with padded columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row.clone());
    }
}

/// Formats a fraction as a signed percentage string.
pub fn pct(v: f64) -> String {
    format!("{:+.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_signed_percent() {
        assert_eq!(pct(0.3802), "+38.02%");
        assert_eq!(pct(-0.015), "-1.50%");
    }

    const KEYS: &[&str] = &["iters", "samples", "seeds", "repeats", "runs", "folds", "pretrain"];

    fn args(raw: &[&str]) -> ExpArgs {
        ExpArgs::from_strs(raw.iter().map(|s| s.to_string()), &[KEYS, GRID_KEYS].concat())
            .expect("declared keys")
    }

    #[test]
    fn args_typed_getters() {
        let args = args(&["iters=42", "--cache=off", "positional"]);
        assert_eq!(args.get_usize("iters", 7), 42);
        assert_eq!(args.get_usize("seeds", 7), 7);
        assert_eq!(args.opt_usize("workers"), None);
        assert_eq!(args.get_str("cache", "on"), "off", "leading dashes are trimmed");
    }

    #[test]
    fn undeclared_keys_are_rejected() {
        let raw = ["samples=120", "workrs=1"].map(String::from);
        let err = ExpArgs::from_strs(raw, &["samples", "workers"]).err().expect("typo must fail");
        assert_eq!(err, "unknown argument `workrs=` (known: samples, workers)");
    }

    #[test]
    #[should_panic(expected = "argument `seed` is read but was never declared")]
    fn reading_an_undeclared_key_panics() {
        args(&[]).get_usize("seed", 3);
    }

    #[test]
    fn sizes_below_their_minimum_are_rejected() {
        for (key, min) in MIN_SIZES {
            let too_small = min - 1;
            let err = args(&[&format!("{key}={too_small}")]).size(key, 5).expect_err("must fail");
            assert_eq!(err, format!("{key}={too_small}: must be at least {min}"));
            assert_eq!(args(&[&format!("{key}={min}")]).size(key, 5), Ok(*min));
            assert_eq!(args(&[]).size(key, 5), Ok(5), "{key}: an absent size takes its default");
        }
        // The message is the CLI's.
        assert_eq!(
            args(&["samples=150", "iters=0", "seeds=1"]).size("iters", 120),
            Err("iters=0: must be at least 1".to_string())
        );
        // Zero is only checked where a driver reads the key as a size.
        assert_eq!(args(&["pretrain=0"]).get_usize("pretrain", 150), 0);
        assert_eq!(
            args(&["iters=ten"]).size("iters", 5),
            Err("bad value for iters: ten (expected a non-negative integer)".to_string())
        );
    }

    #[test]
    fn integer_values_are_non_negative_integers() {
        assert_eq!(
            args(&["workers=two"]).usize_value("workers"),
            Err("bad value for workers: two (expected a non-negative integer)".to_string())
        );
        assert_eq!(args(&["workers=-1"]).usize_value("workers").map_err(|_| ()), Err(()));
        assert_eq!(args(&["workers="]).usize_value("workers").map_err(|_| ()), Err(()));
        assert_eq!(args(&["workers=3"]).usize_value("workers"), Ok(Some(3)));
        assert_eq!(args(&[]).usize_value("workers"), Ok(None));
    }

    #[test]
    fn switches_take_on_or_off() {
        for key in ["cache", "diag", "mem"] {
            assert_eq!(
                args(&[&format!("{key}=maybe")]).on_off(key, true),
                Err(format!("bad value for {key}: maybe (expected on|off)"))
            );
            assert_eq!(args(&[&format!("{key}=off")]).on_off(key, true), Ok(false));
            assert_eq!(args(&[&format!("{key}=on")]).on_off(key, false), Ok(true));
            assert_eq!(args(&[]).on_off(key, true), Ok(true), "{key}: absent takes its default");
        }
    }

    #[test]
    fn grid_flags_are_checked_before_any_observer_latches() {
        // Each bad value is reported as the driver would print it, and
        // none of them opens the journal named next to it.
        let journal = std::env::temp_dir().join("dbtune_bench_unopened.jsonl");
        let _ = std::fs::remove_file(&journal);
        let trace = format!("trace={}", journal.display());
        for (bad, message) in [
            ("cache=maybe", "bad value for cache: maybe (expected on|off)"),
            ("diag=yes", "bad value for diag: yes (expected on|off)"),
            ("mem=1", "bad value for mem: 1 (expected on|off)"),
            ("workers=two", "bad value for workers: two (expected a non-negative integer)"),
        ] {
            let err = GridOpts::try_from_args("unit", &args(&[bad, &trace]), 7).err();
            assert_eq!(err.as_deref(), Some(message), "{bad}");
        }
        for bad in ["faults=seed:x", "retries=lots"] {
            let err = GridOpts::try_from_args("unit", &args(&[bad, &trace]), 7).err();
            let key = bad.split_once('=').map(|(k, _)| k).unwrap_or(bad);
            assert!(
                err.as_deref().is_some_and(|e| e.starts_with(&format!("bad value for {key}: "))),
                "{bad}: {err:?}"
            );
        }
        assert!(!journal.exists(), "no journal opens while a flag is bad");
        let unopenable = std::env::temp_dir().join("dbtune_bench_no_such_dir").join("j.jsonl");
        let err = GridOpts::try_from_args(
            "unit",
            &args(&[&format!("trace={}", unopenable.display())]),
            7,
        )
        .err();
        assert!(
            err.as_deref().is_some_and(|e| e.starts_with("cannot open trace journal ")),
            "{err:?}"
        );
    }
}
