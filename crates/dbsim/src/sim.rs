//! The analytic response surface: configuration → performance, metrics,
//! failures, and the simulated cost of each evaluation.
//!
//! The score of a configuration is a product of per-mechanism factors
//! (buffer-pool hit rate, redo-log sizing, flush policy, concurrency peak,
//! per-session buffer benefits, query cache, …), each scaled by workload
//! sensitivities, plus a memory-pressure interaction term coupling the
//! buffer pool, per-thread buffers, and concurrency. Performance is the
//! score normalized to the default configuration, times the hardware scale
//! and base rate, times log-normal measurement noise. The noise is drawn
//! from a token the caller passes in, so an evaluation is a pure function
//! of the configuration and the token.
//!
//! Failures (§4.1): memory overcommit "crashes" the DBMS; the tuning
//! driver substitutes the worst performance seen so far, exactly as the
//! paper does to avoid scaling problems.

use crate::catalog::KnobCatalog;
use crate::hardware::Hardware;
use crate::knob::UnitEncoding;
use crate::workload::{Workload, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated stress-test duration per iteration (the paper replays each
/// workload for three minutes).
pub const EVAL_SECONDS: f64 = 180.0;
/// Simulated DBMS restart cost per iteration (knob changes need restarts).
pub const RESTART_SECONDS: f64 = 30.0;
/// Dimensionality of the internal-metric vector.
pub const METRICS_DIM: usize = 40;

/// Optimization direction for a workload's performance metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Maximize transactions per second (OLTP workloads).
    Throughput,
    /// Minimize 95th-percentile latency in seconds (JOB).
    Latency95,
}

/// Result of evaluating a full configuration: one simulated stress test,
/// or a prediction of any other objective backend (the surrogate
/// benchmark of §8).
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Raw performance: tx/s for throughput workloads, seconds for latency.
    pub value: f64,
    /// Whether the configuration crashed the DBMS (value is meaningless).
    pub failed: bool,
    /// Simulated internal metrics (DDPG state / workload-mapping features);
    /// empty for backends without internal metrics.
    pub metrics: Vec<f64>,
    /// Simulated seconds this evaluation cost (stress test + restart).
    pub simulated_secs: f64,
}

/// A simulated MySQL 5.7 instance running one workload on one hardware
/// profile.
#[derive(Clone, Debug)]
pub struct DbSimulator {
    workload: Workload,
    hardware: Hardware,
    catalog: KnobCatalog,
    profile: WorkloadProfile,
    idx: Idx,
    noise_sigma: f64,
    noise_seed: u64,
    fillers: Vec<FillerEffect>,
    s_default: f64,
    default_cfg: Vec<f64>,
}

/// The micro-effect of one filler knob, tabulated once per simulator:
/// the surface multiplies by `1.0 + weight·(unit.encode(cfg[index]) −
/// default_unit)`.
#[derive(Clone, Copy, Debug)]
struct FillerEffect {
    /// Catalog index of the knob.
    index: usize,
    /// Signed amplitude `amp·dir`, derived from the FNV-1a hash of the
    /// knob's name; exact, because `dir` is ±1.
    weight: f64,
    /// The knob's `Domain::to_unit`, with its bounds' logarithms taken once.
    unit: UnitEncoding,
    /// The knob's catalog default, unit-encoded.
    default_unit: f64,
}

impl FillerEffect {
    /// The effects of every filler knob, in catalog order. Semantic knobs
    /// are modelled by the surface itself; filler is identified by index
    /// (the first 40 catalog entries are semantic).
    fn tabulate(cat: &KnobCatalog) -> Vec<Self> {
        cat.specs()
            .iter()
            .enumerate()
            .skip(40)
            .map(|(index, spec)| {
                let h = fnv1a(spec.name);
                let amp = ((h % 1000) as f64 / 1000.0) * 0.004;
                let dir = if (h >> 10) & 1 == 0 { 1.0 } else { -1.0 };
                let unit = spec.domain.unit_encoding();
                Self { index, weight: amp * dir, unit, default_unit: unit.encode(spec.default) }
            })
            .collect()
    }
}

/// Resolved catalog indices of every semantic knob.
#[derive(Clone, Debug)]
struct Idx {
    bp_size: usize,
    bp_instances: usize,
    old_blocks_pct: usize,
    lru_scan_depth: usize,
    adaptive_hash: usize,
    change_buffering: usize,
    log_file_size: usize,
    log_buffer_size: usize,
    flush_log_at_trx_commit: usize,
    sync_binlog: usize,
    doublewrite: usize,
    adaptive_flushing: usize,
    max_dirty_pages_pct: usize,
    flush_method: usize,
    flush_neighbors: usize,
    io_capacity: usize,
    io_capacity_max: usize,
    read_io_threads: usize,
    write_io_threads: usize,
    thread_concurrency: usize,
    purge_threads: usize,
    page_cleaners: usize,
    spin_wait_delay: usize,
    sync_spin_loops: usize,
    concurrency_tickets: usize,
    max_connections: usize,
    thread_cache_size: usize,
    table_open_cache: usize,
    tmp_table_size: usize,
    max_heap_table_size: usize,
    sort_buffer_size: usize,
    join_buffer_size: usize,
    read_buffer_size: usize,
    read_rnd_buffer_size: usize,
    binlog_cache_size: usize,
    innodb_sort_buffer: usize,
    query_cache_type: usize,
    query_cache_size: usize,
    stats_sample_pages: usize,
    optimizer_search_depth: usize,
}

impl Idx {
    fn resolve(cat: &KnobCatalog) -> Self {
        let g = |n: &str| cat.expect_index(n);
        Self {
            bp_size: g("innodb_buffer_pool_size"),
            bp_instances: g("innodb_buffer_pool_instances"),
            old_blocks_pct: g("innodb_old_blocks_pct"),
            lru_scan_depth: g("innodb_lru_scan_depth"),
            adaptive_hash: g("innodb_adaptive_hash_index"),
            change_buffering: g("innodb_change_buffering"),
            log_file_size: g("innodb_log_file_size"),
            log_buffer_size: g("innodb_log_buffer_size"),
            flush_log_at_trx_commit: g("innodb_flush_log_at_trx_commit"),
            sync_binlog: g("sync_binlog"),
            doublewrite: g("innodb_doublewrite"),
            adaptive_flushing: g("innodb_adaptive_flushing"),
            max_dirty_pages_pct: g("innodb_max_dirty_pages_pct"),
            flush_method: g("innodb_flush_method"),
            flush_neighbors: g("innodb_flush_neighbors"),
            io_capacity: g("innodb_io_capacity"),
            io_capacity_max: g("innodb_io_capacity_max"),
            read_io_threads: g("innodb_read_io_threads"),
            write_io_threads: g("innodb_write_io_threads"),
            thread_concurrency: g("innodb_thread_concurrency"),
            purge_threads: g("innodb_purge_threads"),
            page_cleaners: g("innodb_page_cleaners"),
            spin_wait_delay: g("innodb_spin_wait_delay"),
            sync_spin_loops: g("innodb_sync_spin_loops"),
            concurrency_tickets: g("innodb_concurrency_tickets"),
            max_connections: g("max_connections"),
            thread_cache_size: g("thread_cache_size"),
            table_open_cache: g("table_open_cache"),
            tmp_table_size: g("tmp_table_size"),
            max_heap_table_size: g("max_heap_table_size"),
            sort_buffer_size: g("sort_buffer_size"),
            join_buffer_size: g("join_buffer_size"),
            read_buffer_size: g("read_buffer_size"),
            read_rnd_buffer_size: g("read_rnd_buffer_size"),
            binlog_cache_size: g("binlog_cache_size"),
            innodb_sort_buffer: g("innodb_sort_buffer_size"),
            query_cache_type: g("query_cache_type"),
            query_cache_size: g("query_cache_size"),
            stats_sample_pages: g("innodb_stats_persistent_sample_pages"),
            optimizer_search_depth: g("optimizer_search_depth"),
        }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Saturating benefit in log space: 0 at `lo_anchor`, →1 as v grows past
/// `center`.
#[inline]
fn log_rise(v: f64, anchor: f64, center: f64, width: f64) -> f64 {
    let s = |x: f64| sigmoid((x.max(1e-9).ln() - center.ln()) / width);
    s(v) - s(anchor)
}

/// Log-space Gaussian bump peaking at `center`.
#[inline]
fn gauss_log(v: f64, center: f64, width: f64) -> f64 {
    let d = (v.max(1e-9).ln() - center.ln()) / width;
    (-0.5 * d * d).exp()
}

/// Linear-space Gaussian bump peaking at `center`.
#[inline]
fn gauss_lin(v: f64, center: f64, width: f64) -> f64 {
    let d = (v - center) / width;
    (-0.5 * d * d).exp()
}

/// FNV-1a hash used for deterministic filler-knob micro-effects.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl DbSimulator {
    /// Builds a simulator for `workload` on `hardware`. `seed` is the
    /// noise seed a session on the bare simulator mixes into each
    /// evaluation's noise token (see [`Self::noise_seed`]).
    pub fn new(workload: Workload, hardware: Hardware, seed: u64) -> Self {
        let catalog = KnobCatalog::mysql57();
        let idx = Idx::resolve(&catalog);
        let fillers = FillerEffect::tabulate(&catalog);
        let profile = workload.profile();
        let default_cfg = catalog.default_config(hardware);
        let mut sim = Self {
            workload,
            hardware,
            catalog,
            profile,
            idx,
            noise_sigma: 0.02,
            noise_seed: seed,
            fillers,
            s_default: 1.0,
            default_cfg,
        };
        sim.s_default = sim.score(&sim.default_cfg).expect("default configuration must not crash");
        sim
    }

    /// The knob catalog.
    pub fn catalog(&self) -> &KnobCatalog {
        &self.catalog
    }

    /// The workload under test.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The hardware profile.
    pub fn hardware(&self) -> Hardware {
        self.hardware
    }

    /// The default configuration (buffer pool at 60% RAM).
    pub fn default_config(&self) -> &[f64] {
        &self.default_cfg
    }

    /// Optimization direction for this workload.
    pub fn objective(&self) -> Objective {
        if self.workload.is_latency_objective() {
            Objective::Latency95
        } else {
            Objective::Throughput
        }
    }

    /// Overrides the measurement-noise level (σ of the log-normal factor).
    pub fn set_noise_sigma(&mut self, sigma: f64) {
        assert!(sigma >= 0.0);
        self.noise_sigma = sigma;
    }

    /// The seed given to [`Self::new`]. A session on the bare simulator
    /// mixes it with each configuration's cache key into the noise token
    /// of [`Self::evaluate_seeded`], exactly as a cache adapter built with
    /// this seed does.
    pub fn noise_seed(&self) -> u64 {
        self.noise_seed
    }

    /// Runs one simulated three-minute stress test (plus restart), with
    /// measurement noise drawn from a fresh RNG seeded with `noise_token`
    /// (draw order: one value for the performance noise, then one per
    /// internal metric). The result is a pure function of
    /// `(cfg, noise_token)`: bit-identical no matter what was evaluated
    /// before or on which thread it runs, which is what lets the parallel
    /// executor's shared evaluation cache memoize results without
    /// changing them.
    ///
    /// Counts every evaluation (and every crash-region hit) in the global
    /// metrics registry: observation only, so caching a result elsewhere
    /// changes the counts but never the results.
    pub fn evaluate_seeded(&self, cfg: &[f64], noise_token: u64) -> EvalResult {
        assert_eq!(cfg.len(), self.catalog.len(), "configuration length mismatch");
        let mut rng = StdRng::seed_from_u64(noise_token);
        // Evaluations are the hot path; resolve the instrument handles once.
        static COUNTERS: std::sync::OnceLock<(dbtune_obs::Counter, dbtune_obs::Counter)> =
            std::sync::OnceLock::new();
        let (evals, crashes) = COUNTERS.get_or_init(|| {
            let m = &dbtune_obs::global().metrics;
            (m.counter("sim.evals"), m.counter("sim.crashes"))
        });
        evals.inc();
        match self.score(cfg) {
            None => {
                crashes.inc();
                EvalResult {
                    value: f64::NAN,
                    failed: true,
                    metrics: vec![0.0; METRICS_DIM],
                    simulated_secs: EVAL_SECONDS + RESTART_SECONDS,
                }
            }
            Some(s) => {
                let noise = if self.noise_sigma > 0.0 {
                    let z: f64 = rng.sample(rand_distr::StandardNormal);
                    (z * self.noise_sigma).exp()
                } else {
                    1.0
                };
                let ratio = (s / self.s_default).max(0.02);
                let value = match self.objective() {
                    Objective::Throughput => {
                        self.profile.base_rate * self.hardware.perf_scale() * ratio * noise
                    }
                    // Default JOB latency ≈ 200 s, matching §6.2.1.
                    Objective::Latency95 => 200.0 / ratio * noise,
                };
                let metrics = self.metrics(cfg, ratio, &mut rng);
                EvalResult {
                    value,
                    failed: false,
                    metrics,
                    simulated_secs: EVAL_SECONDS + RESTART_SECONDS,
                }
            }
        }
    }

    /// Noise-free expected performance (for tests and analysis); `None`
    /// when the configuration crashes.
    pub fn expected_value(&self, cfg: &[f64]) -> Option<f64> {
        let s = self.score(cfg)?;
        let ratio = (s / self.s_default).max(0.02);
        Some(match self.objective() {
            Objective::Throughput => self.profile.base_rate * self.hardware.perf_scale() * ratio,
            Objective::Latency95 => 200.0 / ratio,
        })
    }

    /// Deterministic estimate of the noise-free optimum over the
    /// sub-space spanned by `knob_indices` (catalog indices), every other
    /// knob held at `base` — the regret baseline of the quality flight
    /// recorder (`dbtune-diag`).
    ///
    /// The multiplicative surface has interaction terms, so there is no
    /// closed form; instead we run coordinate ascent over
    /// [`Self::expected_value`]: each sweep scans every selected knob on
    /// a fixed 17-point unit-space grid (categoricals enumerate all
    /// choices), keeps the best value, and three sweeps let knobs react
    /// to each other's moves. Pure function of the catalog and arguments
    /// — no randomness, no mutation — so the estimate is byte-stable.
    /// Crashing grid points are skipped; `None` only if every probed
    /// configuration (including `base`) crashes.
    ///
    /// The result is a (tight, deterministic) *lower* bound on the true
    /// optimum of the subspace, which is exactly what a regret baseline
    /// needs: regressions show up as growing regret against a fixed
    /// reference. Observed scores carry simulated measurement noise, so
    /// slightly negative regret is possible and documented.
    pub fn estimate_optimum_over(&self, knob_indices: &[usize], base: &[f64]) -> Option<f64> {
        const GRID: usize = 17;
        const SWEEPS: usize = 3;
        let orient = |v: f64| match self.objective() {
            Objective::Throughput => v,
            Objective::Latency95 => -v,
        };
        let mut cfg = base.to_vec();
        let mut best = self.expected_value(&cfg).map(orient);
        for _ in 0..SWEEPS {
            for &ki in knob_indices {
                let spec = &self.catalog.specs()[ki];
                let steps = match spec.domain.cardinality() {
                    Some(c) => c.min(GRID),
                    None => GRID,
                };
                if steps < 2 {
                    continue;
                }
                let mut best_v = cfg[ki];
                for step in 0..steps {
                    let u = step as f64 / (steps - 1) as f64;
                    let v = spec.domain.from_unit(u);
                    let prev = cfg[ki];
                    cfg[ki] = v;
                    if let Some(val) = self.expected_value(&cfg).map(orient) {
                        if best.is_none_or(|b| val > b) {
                            best = Some(val);
                            best_v = v;
                        }
                    }
                    cfg[ki] = prev;
                }
                cfg[ki] = best_v;
            }
        }
        best.map(|b| match self.objective() {
            Objective::Throughput => b,
            Objective::Latency95 => -b,
        })
    }

    /// Effective server thread count implied by a configuration.
    fn effective_threads(&self, cfg: &[f64]) -> f64 {
        let t = cfg[self.idx.thread_concurrency];
        if t < 0.5 {
            // 0 = unlimited; the simulated client drives ~8×cores sessions.
            (self.hardware.cores() as f64) * 8.0
        } else {
            t
        }
    }

    /// The raw multiplicative score surface; `None` when the
    /// configuration crashes. Performance is this score over the default
    /// configuration's, floored at 0.02, times the workload's base rate
    /// and the hardware scale (throughput) or dividing 200 s (latency).
    pub fn score(&self, cfg: &[f64]) -> Option<f64> {
        let p = &self.profile;
        let hw = self.hardware;
        let cores = hw.cores() as f64;
        let ram = hw.ram_mb();
        let idx = &self.idx;

        let wp = p.write_intensity;
        let rd = p.read_intensity;
        let scan = p.scan_intensity;
        let jc = p.join_complexity;
        let cont = p.contention;

        let bp = cfg[idx.bp_size]; // MB
        let ws = self.workload.working_set_mb();

        // --- hard failure regions -----------------------------------------
        // Real MySQL tolerates moderate overcommit by swapping (modelled
        // as smooth thrash penalties below); it only gets OOM-killed at
        // extreme misconfiguration.
        if bp > ram * 4.0 {
            return None; // OOM at startup
        }
        let t_eff = self.effective_threads(cfg);
        let tmp_mb = cfg[idx.tmp_table_size].min(cfg[idx.max_heap_table_size]);
        let per_thread_mb = (cfg[idx.sort_buffer_size]
            + cfg[idx.join_buffer_size]
            + cfg[idx.read_buffer_size]
            + cfg[idx.read_rnd_buffer_size]
            + cfg[idx.binlog_cache_size])
            / 1024.0
            + tmp_mb * 0.5;
        let qc_mb = if cfg[idx.query_cache_type] >= 0.5 { cfg[idx.query_cache_size] } else { 0.0 };
        // Sort/join/read buffers are allocated per *executing* operation —
        // concurrency beyond ~4x cores queues rather than multiplying
        // resident buffer memory. In-memory temp tables, however, live per
        // connection (the paper's tmp_table_size × innodb_thread_concurrency
        // interaction).
        let active = t_eff.min(4.0 * cores);
        let buffers_mb = per_thread_mb - tmp_mb * 0.5;
        let total_mem = bp + active * buffers_mb * 0.3 + t_eff * tmp_mb * 0.5 + qc_mb;
        if total_mem > ram * 2.5 {
            return None; // OOM under load — the tmp_table × concurrency trap
        }

        let mut s = 1.0f64;

        // --- buffer pool: hit-rate benefit + thrash cliff -------------------
        let hit = 1.0 - (-1.2 * bp / ws).exp();
        let miss_pen = 1.2 + 2.2 * rd + 1.4 * scan;
        s *= 1.0 / (1.0 + miss_pen * (1.0 - hit));
        if bp > ram * 0.85 {
            // Swap thrash: steep but floored — the DBMS limps, it doesn't die.
            s *= (-6.0 * (bp - ram * 0.85) / ram).exp().max(0.05);
        }
        // Memory pressure penalty before the hard OOM cliff.
        if total_mem > ram * 0.9 {
            s *= (-5.0 * (total_mem - ram * 0.9) / ram).exp().max(0.05);
        }

        // --- redo log sizing -------------------------------------------------
        s *= 1.0 + 0.45 * wp * log_rise(cfg[idx.log_file_size], 48.0, 400.0, 0.9);
        s *= 1.0 + 0.06 * wp * log_rise(cfg[idx.log_buffer_size], 16.0, 64.0, 0.9);

        // --- durability policy -------------------------------------------------
        s *= match cfg[idx.flush_log_at_trx_commit] as usize {
            0 => 1.0 + 0.28 * wp,
            2 => 1.0 + 0.22 * wp,
            _ => 1.0,
        };
        let sb = cfg[idx.sync_binlog];
        s *= 1.0 + 0.20 * wp / (1.0 + sb);
        if cfg[idx.doublewrite] < 0.5 {
            s *= 1.0 + 0.12 * wp;
        }
        if cfg[idx.adaptive_flushing] < 0.5 {
            s *= 1.0 - 0.05 * wp;
        }
        // Dirty-page ceiling: monotone benefit saturating near the default.
        s *= 1.0 + 0.10 * wp * sigmoid((cfg[idx.max_dirty_pages_pct] - 50.0) / 8.0);

        // --- I/O path ------------------------------------------------------------
        let io_int = 0.55 * wp + 0.45 * scan;
        s *= match cfg[idx.flush_method] as usize {
            1 => 1.0 - 0.03,                              // O_DSYNC
            2 => 1.0 + 0.10 * io_int * (0.5 + 0.5 * hit), // O_DIRECT
            3 => 1.0 + 0.12 * io_int * (0.5 + 0.5 * hit), // O_DIRECT_NO_FSYNC
            _ => 1.0,                                     // fsync
        };
        s *= match cfg[idx.flush_neighbors] as usize {
            0 => 1.0 + 0.08 * wp, // SSD: neighbor flushing wasted
            2 => 1.0 - 0.04 * wp,
            _ => 1.0,
        };
        s *= 1.0 + 0.28 * wp * log_rise(cfg[idx.io_capacity], 200.0, 2000.0, 1.0);
        s *= 1.0 + 0.05 * wp * log_rise(cfg[idx.io_capacity_max], 2000.0, 8000.0, 1.0);
        s *= 1.0 + 0.08 * (rd + scan) * 0.5 * gauss_log(cfg[idx.read_io_threads], cores, 0.9);
        s *= 1.0 + 0.08 * wp * gauss_log(cfg[idx.write_io_threads], cores, 0.9);

        // --- concurrency ---------------------------------------------------------
        // Peak at ~2× cores; "unlimited" (default) sits below the peak so
        // tuning the knob pays off on contended workloads.
        s *= 1.0 + 0.30 * cont * gauss_log(t_eff, 2.0 * cores, 0.9);
        s *= 1.0 + 0.05 * wp * gauss_log(cfg[idx.purge_threads], cores / 4.0, 0.9);
        s *= 1.0 + 0.05 * wp * gauss_log(cfg[idx.page_cleaners], cores / 2.0, 0.9);
        s *= 1.0 + 0.06 * cont * gauss_log(cfg[idx.bp_instances], cores, 0.8);
        let mc = cfg[idx.max_connections];
        if mc < t_eff {
            s *= 0.55; // connection starvation
        } else {
            s *= 1.0 + 0.02 * log_rise(mc, 151.0, 600.0, 1.0);
        }
        s *= 1.0 + 0.04 * cont * log_rise(cfg[idx.thread_cache_size], 9.0, 64.0, 1.0);
        s *= 1.0
            + 0.03
                * log_rise(cfg[idx.table_open_cache], 2000.0, 4000.0, 1.0)
                * (p.tables as f64 / 150.0).min(1.0);

        // --- trap knobs: default already optimal --------------------------------
        // Large variance, zero tunability: the property that separates the
        // tunability-based measurements from the variance-based ones (§5.2).
        s *= 1.0 + 0.30 * gauss_log(cfg[idx.lru_scan_depth], 1024.0, 0.8);
        s *= 1.0 + 0.25 * cont * gauss_lin(cfg[idx.spin_wait_delay], 6.0, 30.0);
        s *= 1.0 + 0.18 * cont * gauss_lin(cfg[idx.sync_spin_loops], 30.0, 50.0);
        s *= 1.0 + 0.22 * rd * gauss_lin(cfg[idx.old_blocks_pct], 37.0, 25.0);
        s *= 1.0 + 0.10 * gauss_log(cfg[idx.concurrency_tickets], 5000.0, 1.0);

        // --- engine features ------------------------------------------------------
        if cfg[idx.adaptive_hash] >= 0.5 {
            s *= 1.0 + 0.10 * rd - 0.06 * cont * wp;
        }
        let cb = cfg[idx.change_buffering] / 5.0; // none..all
        s *= 1.0 + 0.08 * wp * cb;

        // --- per-session buffers ----------------------------------------------------
        s *= 1.0 + (0.25 * scan + 0.04 * cont) * log_rise(tmp_mb, 16.0, 64.0, 0.9);
        s *= 1.0 + (0.20 * scan + 0.02) * log_rise(cfg[idx.sort_buffer_size], 256.0, 4096.0, 1.0);
        s *= 1.0 + 0.35 * jc * log_rise(cfg[idx.join_buffer_size], 256.0, 16384.0, 1.1);
        s *= 1.0 + 0.06 * scan * log_rise(cfg[idx.read_buffer_size], 128.0, 2048.0, 1.0);
        s *= 1.0 + 0.06 * scan * log_rise(cfg[idx.read_rnd_buffer_size], 256.0, 2048.0, 1.0);
        s *= 1.0 + 0.04 * wp * log_rise(cfg[idx.binlog_cache_size], 32.0, 1024.0, 1.0);
        s *= 1.0 + 0.05 * scan * log_rise(cfg[idx.innodb_sort_buffer], 1.0, 8.0, 0.9);

        // --- query cache: read-repetition benefit vs write invalidation -------------
        let qct = cfg[idx.query_cache_type] as usize;
        if qct > 0 {
            let size_factor = log_rise(cfg[idx.query_cache_size], 1.0, 128.0, 1.0);
            let strength = if qct == 1 { 1.0 } else { 0.5 };
            s *= 1.0 + strength * size_factor * (0.30 * p.repeat_read * rd - 0.20 * wp);
        }

        // --- optimizer & statistics ----------------------------------------------------
        s *= 1.0 + 0.15 * jc * log_rise(cfg[idx.stats_sample_pages], 20.0, 128.0, 1.0)
            - 0.02 * wp * log_rise(cfg[idx.stats_sample_pages], 20.0, 512.0, 1.0);
        // JOB's 113-way joins: exhaustive search (default 62) wastes planning
        // time; a moderate depth is optimal. 0 = heuristic auto ≈ depth 12.
        let osd = cfg[idx.optimizer_search_depth];
        let osd_eff = if osd < 0.5 { 12.0 } else { osd };
        s *= 1.0 + 0.28 * jc * gauss_log(osd_eff, 8.0, 1.0);

        // --- filler knobs: deterministic micro-effects ------------------------------
        for f in &self.fillers {
            s *= 1.0 + f.weight * (f.unit.encode(cfg[f.index]) - f.default_unit);
        }

        debug_assert!(s.is_finite() && s > 0.0, "surface score degenerate: {s}");
        Some(s)
    }

    /// Simulated internal metrics: a workload signature plus
    /// configuration-responsive counters, lightly noised from `rng`.
    fn metrics(&self, cfg: &[f64], perf_ratio: f64, rng: &mut StdRng) -> Vec<f64> {
        let p = &self.profile;
        let idx = &self.idx;
        let ram = self.hardware.ram_mb();
        let bp = cfg[idx.bp_size];
        let ws = self.workload.working_set_mb();
        let hit = 1.0 - (-1.2 * bp / ws).exp();
        let t_eff = self.effective_threads(cfg);
        let cores = self.hardware.cores() as f64;
        let sat = |x: f64| x / (1.0 + x);

        let mut m = Vec::with_capacity(METRICS_DIM);
        // Workload signature (stable identity for workload mapping).
        m.push(p.read_only_frac);
        m.push(p.write_intensity);
        m.push(p.read_intensity);
        m.push(p.scan_intensity);
        m.push(p.join_complexity);
        m.push(p.contention);
        m.push(p.repeat_read);
        m.push(sat(p.size_gb / 10.0));
        m.push(sat(p.tables as f64 / 50.0));
        m.push(sat(p.base_rate / 5000.0));
        // Buffer pool counters.
        m.push(hit);
        m.push(sat(bp / ram));
        m.push(sat(ws / bp.max(1.0)));
        m.push((1.0 - hit) * p.read_intensity); // disk reads/s proxy
        m.push(cfg[idx.max_dirty_pages_pct] / 100.0 * p.write_intensity);
        // Log subsystem.
        m.push(sat(cfg[idx.log_file_size] / 1024.0));
        m.push(p.write_intensity * sat(200.0 / cfg[idx.log_file_size].max(4.0))); // checkpoint pressure
        m.push(cfg[idx.flush_log_at_trx_commit] / 2.0);
        m.push(sat(cfg[idx.sync_binlog] / 10.0));
        // Concurrency.
        m.push(sat(t_eff / (4.0 * cores)));
        m.push(p.contention * sat(t_eff / cores / 4.0)); // lock waits proxy
        m.push(sat(cfg[idx.max_connections] / 1000.0));
        m.push(sat(cfg[idx.thread_cache_size] / 100.0));
        // IO.
        m.push(sat(cfg[idx.io_capacity] / 5000.0));
        m.push(sat((cfg[idx.read_io_threads] + cfg[idx.write_io_threads]) / 32.0));
        m.push(cfg[idx.flush_method] / 3.0);
        // Session buffers / temp tables.
        m.push(sat(cfg[idx.tmp_table_size] / 256.0));
        m.push(p.scan_intensity * sat(64.0 / cfg[idx.tmp_table_size].max(1.0))); // on-disk tmp tables
        m.push(sat(cfg[idx.sort_buffer_size] / 8192.0));
        m.push(sat(cfg[idx.join_buffer_size] / 32768.0));
        // Query cache.
        m.push(if cfg[idx.query_cache_type] >= 0.5 { 1.0 } else { 0.0 });
        m.push(p.repeat_read * sat(cfg[idx.query_cache_size] / 256.0));
        // Throughput-derived counters.
        m.push(sat(perf_ratio));
        m.push(sat(perf_ratio * p.write_intensity));
        m.push(sat(perf_ratio * p.read_intensity));
        m.push(p.contention / (1.0 + perf_ratio)); // queueing proxy
                                                   // Optimizer.
        m.push(cfg[idx.optimizer_search_depth] / 62.0);
        m.push(sat(cfg[idx.stats_sample_pages] / 256.0));
        m.push(cfg[idx.adaptive_hash]);
        m.push(sat(cfg[idx.table_open_cache] / 8000.0));
        debug_assert_eq!(m.len(), METRICS_DIM);

        // Light multiplicative noise on every metric.
        for v in &mut m {
            let z: f64 = rng.sample(rand_distr::StandardNormal);
            *v *= 1.0 + 0.03 * z;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(w: Workload) -> DbSimulator {
        DbSimulator::new(w, Hardware::B, 42)
    }

    #[test]
    fn default_config_matches_base_rate() {
        let mut s = sim(Workload::Sysbench);
        s.set_noise_sigma(0.0);
        let cfg = s.default_config().to_vec();
        let out = s.evaluate_seeded(&cfg, 0);
        assert!(!out.failed);
        assert!(
            (out.value - 3200.0).abs() < 1.0,
            "default TPS should equal base rate: {}",
            out.value
        );
    }

    #[test]
    fn job_default_latency_is_about_200s() {
        let mut s = sim(Workload::Job);
        s.set_noise_sigma(0.0);
        let cfg = s.default_config().to_vec();
        let out = s.evaluate_seeded(&cfg, 0);
        assert_eq!(s.objective(), Objective::Latency95);
        assert!((out.value - 200.0).abs() < 1.0);
    }

    #[test]
    fn oversized_buffer_pool_crashes() {
        let s = sim(Workload::Sysbench);
        let mut cfg = s.default_config().to_vec();
        let bp = s.catalog().expect_index("innodb_buffer_pool_size");
        cfg[bp] = Hardware::B.ram_mb() * 5.0; // 5x RAM: OOM at startup
        let out = s.evaluate_seeded(&cfg, 0);
        assert!(out.failed);
        // Moderate overcommit swaps instead of crashing, but gets slow.
        let mut cfg2 = s.default_config().to_vec();
        cfg2[bp] = Hardware::B.ram_mb() * 0.98;
        let out2 = s.evaluate_seeded(&cfg2, 1);
        assert!(!out2.failed);
        let dflt = s.expected_value(s.default_config()).expect("modelled config must evaluate");
        assert!(s.expected_value(&cfg2).expect("modelled config must evaluate") < dflt * 0.9);
    }

    #[test]
    fn thread_times_tmp_table_memory_interaction_crashes() {
        let s = sim(Workload::Sysbench);
        let cat = s.catalog().clone();
        let mut cfg = s.default_config().to_vec();
        cfg[cat.expect_index("innodb_thread_concurrency")] = 512.0;
        cfg[cat.expect_index("tmp_table_size")] = 2048.0;
        cfg[cat.expect_index("max_heap_table_size")] = 2048.0;
        let out = s.evaluate_seeded(&cfg, 0);
        assert!(out.failed, "512 threads × 2GB tmp tables must overcommit");
    }

    #[test]
    fn optimum_estimate_beats_default_and_is_deterministic() {
        let s = sim(Workload::Sysbench);
        let cat = s.catalog().clone();
        let knobs = vec![
            cat.expect_index("innodb_buffer_pool_size"),
            cat.expect_index("innodb_flush_log_at_trx_commit"),
            cat.expect_index("innodb_log_file_size"),
        ];
        let base = s.default_config().to_vec();
        let opt = s.estimate_optimum_over(&knobs, &base).expect("default must not crash");
        let dflt = s.expected_value(&base).expect("default must evaluate");
        assert!(opt >= dflt, "coordinate ascent can never do worse than base: {dflt} -> {opt}");
        assert!(opt > dflt * 1.05, "tuning 3 impactful knobs should pay off: {dflt} -> {opt}");
        let again = s.estimate_optimum_over(&knobs, &base).expect("same inputs");
        assert_eq!(opt.to_bits(), again.to_bits(), "estimator must be byte-stable");
    }

    #[test]
    fn optimum_estimate_minimizes_latency_objectives() {
        let s = sim(Workload::Job);
        let cat = s.catalog().clone();
        let knobs =
            vec![cat.expect_index("innodb_buffer_pool_size"), cat.expect_index("join_buffer_size")];
        let base = s.default_config().to_vec();
        let opt = s.estimate_optimum_over(&knobs, &base).expect("default must not crash");
        let dflt = s.expected_value(&base).expect("default must evaluate");
        assert_eq!(s.objective(), Objective::Latency95);
        assert!(opt <= dflt, "latency optimum must not exceed base: {dflt} -> {opt}");
    }

    #[test]
    fn write_knobs_help_write_heavy_workload() {
        let mut s = sim(Workload::Tpcc);
        s.set_noise_sigma(0.0);
        let cat = s.catalog().clone();
        let mut cfg = s.default_config().to_vec();
        cfg[cat.expect_index("innodb_flush_log_at_trx_commit")] = 0.0;
        cfg[cat.expect_index("sync_binlog")] = 0.0;
        cfg[cat.expect_index("innodb_log_file_size")] = 2048.0;
        cfg[cat.expect_index("innodb_io_capacity")] = 8000.0;
        let tuned = s.expected_value(&cfg).expect("modelled config must evaluate");
        let dflt = s.expected_value(s.default_config()).expect("modelled config must evaluate");
        assert!(tuned > dflt * 1.5, "write tuning should pay off: {dflt} -> {tuned}");
    }

    #[test]
    fn join_buffer_helps_job_but_not_voter() {
        let job = sim(Workload::Job);
        let voter = sim(Workload::Voter);
        let jb = job.catalog().expect_index("join_buffer_size");

        // 32 MB join buffers: large enough to matter, small enough to fit
        // within memory across 64 effective threads.
        let mut cfg_j = job.default_config().to_vec();
        cfg_j[jb] = 32_768.0;
        let lat_tuned = job.expected_value(&cfg_j).expect("modelled config must evaluate");
        let lat_dflt =
            job.expected_value(job.default_config()).expect("modelled config must evaluate");
        assert!(lat_tuned < lat_dflt * 0.87, "join buffer should cut JOB latency");

        let mut cfg_v = voter.default_config().to_vec();
        cfg_v[jb] = 32_768.0;
        let tps_tuned = voter.expected_value(&cfg_v).expect("modelled config must evaluate");
        let tps_dflt =
            voter.expected_value(voter.default_config()).expect("modelled config must evaluate");
        assert!((tps_tuned / tps_dflt - 1.0).abs() < 0.02, "join buffer ~irrelevant for Voter");
    }

    #[test]
    fn trap_knob_default_is_optimal() {
        let s = sim(Workload::Sysbench);
        let lru = s.catalog().expect_index("innodb_lru_scan_depth");
        let dflt = s.expected_value(s.default_config()).expect("modelled config must evaluate");
        for v in [100.0, 400.0, 4000.0, 16_384.0] {
            let mut cfg = s.default_config().to_vec();
            cfg[lru] = v;
            let moved = s.expected_value(&cfg).expect("modelled config must evaluate");
            assert!(moved <= dflt + 1e-9, "moving lru_scan_depth to {v} should not help");
        }
    }

    #[test]
    fn filler_knobs_have_negligible_effect() {
        let s = sim(Workload::Sysbench);
        let dflt = s.expected_value(s.default_config()).expect("modelled config must evaluate");
        let i = s.catalog().expect_index("performance_schema_max_mutex_classes");
        let mut cfg = s.default_config().to_vec();
        cfg[i] = 1024.0;
        let moved = s.expected_value(&cfg).expect("modelled config must evaluate");
        assert!((moved / dflt - 1.0).abs() < 0.01);
    }

    #[test]
    fn hardware_scales_throughput() {
        let mut small = DbSimulator::new(Workload::Tatp, Hardware::A, 1);
        let mut big = DbSimulator::new(Workload::Tatp, Hardware::D, 1);
        small.set_noise_sigma(0.0);
        big.set_noise_sigma(0.0);
        let cfg_small = small.default_config().to_vec();
        let cfg_big = big.default_config().to_vec();
        let v_small = small.evaluate_seeded(&cfg_small, 0).value;
        let v_big = big.evaluate_seeded(&cfg_big, 0).value;
        assert!(v_big > v_small * 2.0);
    }

    #[test]
    fn metrics_have_stable_dimension_and_identify_workloads() {
        let a = sim(Workload::Tpcc);
        let b = sim(Workload::Twitter);
        let cfg_a = a.default_config().to_vec();
        let cfg_b = b.default_config().to_vec();
        let ma = a.evaluate_seeded(&cfg_a, 0).metrics;
        let mb = b.evaluate_seeded(&cfg_b, 1).metrics;
        assert_eq!(ma.len(), METRICS_DIM);
        let dist: f64 = ma.iter().zip(&mb).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        assert!(dist > 0.3, "different workloads should have distinct metric signatures");
    }

    #[test]
    fn evaluate_seeded_is_pure() {
        let s = sim(Workload::Tpcc);
        let cfg = s.default_config().to_vec();
        let a = s.evaluate_seeded(&cfg, 7);
        let mut other = cfg.clone();
        other[s.catalog().expect_index("innodb_log_file_size")] = 2048.0;
        s.evaluate_seeded(&other, 8);
        let b = s.evaluate_seeded(&cfg, 7);
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "same token, same value");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.simulated_secs, EVAL_SECONDS + RESTART_SECONDS);
        let c = s.evaluate_seeded(&cfg, 8);
        assert_ne!(a.value.to_bits(), c.value.to_bits(), "the token draws the noise");
    }

    #[test]
    fn noise_is_multiplicative_and_bounded() {
        let s = sim(Workload::Tatp);
        let cfg = s.default_config().to_vec();
        let expected = s.expected_value(&cfg).expect("modelled config must evaluate");
        for token in 0..50 {
            let v = s.evaluate_seeded(&cfg, token).value;
            assert!((v / expected - 1.0).abs() < 0.15, "noise too large: {v} vs {expected}");
        }
    }

    #[test]
    fn optimizer_search_depth_matters_only_for_job() {
        let job = sim(Workload::Job);
        let tpcc = sim(Workload::Tpcc);
        let osd_idx = job.catalog().expect_index("optimizer_search_depth");

        let mut cfg = job.default_config().to_vec();
        cfg[osd_idx] = 8.0;
        let lat = job.expected_value(&cfg).expect("modelled config must evaluate");
        assert!(
            lat < job.expected_value(job.default_config()).expect("modelled config must evaluate")
                * 0.85
        );

        let mut cfg_t = tpcc.default_config().to_vec();
        cfg_t[osd_idx] = 8.0;
        let tps = tpcc.expected_value(&cfg_t).expect("modelled config must evaluate");
        let tps_d =
            tpcc.expected_value(tpcc.default_config()).expect("modelled config must evaluate");
        assert!((tps / tps_d - 1.0).abs() < 0.03);
    }
}
