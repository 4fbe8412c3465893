//! Parallel experiment executor with a shared, deterministic evaluation
//! cache.
//!
//! Every figure/table binary in `dbtune-bench` runs a *grid* of tuning
//! sessions (workload × optimizer × seed × …). The sessions are
//! independent, so they parallelize trivially, provided nothing a result
//! depends on is shared mutable state. Every evaluation is a pure
//! function of the configuration and a noise token,
//! [`noise_token`]`(noise_seed, &cache_key)`, whether a session runs on a
//! bare simulator or through [`CachedObjective`]; so this module can make
//! parallel execution bit-identical to sequential execution:
//!
//! * [`run_grid`] executes one closure per grid cell on a fixed-size
//!   worker pool and returns results **in grid order**. Each cell derives
//!   everything it needs (simulator, optimizer, session seed) from
//!   [`cell_seed`]`(base_seed, index)`, never from shared mutable state,
//!   so the output is independent of the worker count and of scheduling.
//! * [`EvalCache`] memoizes evaluations across sessions. It is keyed by
//!   the *quantized* configuration plus a domain tag
//!   (workload/hardware/objective), and it is sound because every
//!   objective evaluates **purely**: [`DeterministicObjective`] draws
//!   per-evaluation noise from a token mixed out of the cache key, so an
//!   evaluation's result is a function of `(configuration, noise_seed)`
//!   alone. Cache hits return the stored result verbatim (including its
//!   simulated cost), which keeps every per-session account deterministic
//!   whether the cache is on, off, shared, or thread-local.
//!
//! Worker-count selection: explicit flag > `DBTUNE_WORKERS` env var >
//! `available_parallelism` capped at 8 (see [`resolve_workers`]).
//!
//! Resilience (see `docs/robustness.md`): deterministic crashes are pure
//! functions of the configuration and cache like any result, while
//! *transient* faults (timeouts, spurious deaths — properties of the
//! attempt) are retried by [`CachedObjective`] under a [`RetryPolicy`],
//! with deterministic exponential backoff charged to the simulated
//! clock, before anything reaches the cache. [`run_grid_contained`]
//! catches a panicking cell so one dying session degrades to a reported
//! failure instead of killing the grid.

use crate::space::TuningSpace;
use crate::telemetry;
use crate::tuner::{EvalResult, SimObjective};
use dbtune_dbsim::{DbSimulator, FaultEvent, FaultPlan, KnobSpec, Objective};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------------

/// splitmix64 finalizer: a fast, well-mixed 64-bit permutation.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Mixes two words into one (order-sensitive).
#[inline]
fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.rotate_left(17))
}

/// The noise token of one evaluation: the grid-level `noise_seed` mixed
/// with the configuration's cache key. Every evaluation path draws its
/// measurement noise from this token: [`CachedObjective`], with or
/// without a cache, and a session on a bare [`DbSimulator`], which uses
/// the seed it was built with.
pub fn noise_token(noise_seed: u64, key: &CacheKey) -> u64 {
    mix2(noise_seed, key.fingerprint())
}

/// Derives the RNG seed for grid cell `index` from the experiment's base
/// seed. Adjacent indices map to statistically unrelated seeds, and the
/// mapping is independent of worker count and scheduling — the foundation
/// of the executor's determinism guarantee.
pub fn cell_seed(base_seed: u64, index: usize) -> u64 {
    mix2(base_seed, index as u64)
}

/// Resolves the worker count: an explicit request wins, then the
/// `DBTUNE_WORKERS` environment variable, then the machine's available
/// parallelism capped at 8. Always at least 1.
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    explicit
        // lint: allow(R3) worker count is explicitly part of the determinism contract — results are byte-identical at any worker count, so this env read cannot steer them
        .or_else(|| std::env::var("DBTUNE_WORKERS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
        })
        .max(1)
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// How one grid cell ended under [`run_grid_contained`]: its result, or
/// the message of the panic that killed it.
#[derive(Clone, Debug)]
pub enum CellOutcome<R> {
    /// The cell's closure returned normally.
    Completed(R),
    /// The cell's closure panicked; the panic was caught at the cell
    /// boundary and the rest of the grid ran to completion.
    Panicked {
        /// The panic payload, rendered to text.
        message: String,
    },
}

impl<R> CellOutcome<R> {
    /// The result, when the cell completed.
    pub fn completed(self) -> Option<R> {
        match self {
            CellOutcome::Completed(r) => Some(r),
            CellOutcome::Panicked { .. } => None,
        }
    }

    /// True when the cell panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, CellOutcome::Panicked { .. })
    }
}

/// Renders a caught panic payload (`&str` or `String` in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(index, &cell)` for every cell on `workers` threads and returns
/// the results in grid order. Cells are claimed from a shared atomic
/// cursor (dynamic load balancing: an expensive cell does not stall the
/// others). `f` must derive any randomness from the cell index (see
/// [`cell_seed`]); under that contract the output is bit-identical for
/// any worker count. A panic in any cell propagates (after the remaining
/// cells have run — see [`run_grid_contained`], which this wraps, for
/// the degraded form that reports the panic instead).
pub fn run_grid<T, R, F>(cells: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_grid_contained(cells, workers, f)
        .into_iter()
        .map(|outcome| match outcome {
            CellOutcome::Completed(r) => r,
            CellOutcome::Panicked { message } => panic!("grid cell panicked: {message}"),
        })
        .collect()
}

/// [`run_grid`] with per-cell panic containment: a cell whose closure
/// panics yields [`CellOutcome::Panicked`] while every other cell still
/// runs and returns. Each caught panic increments the
/// `exec.panics_contained` counter (registered on first catch, so
/// panic-free runs publish no new instruments). The shared [`EvalCache`]
/// survives a contained panic unpoisoned: its locks are `parking_lot`
/// mutexes (no poisoning) and evaluation closures run outside the shard
/// locks, so a panicking cell can never leave a lock held or a
/// half-written entry behind.
#[expect(
    clippy::disallowed_methods,
    reason = "sanctioned containment layer: every caught panic becomes a counted Panicked outcome"
)]
pub fn run_grid_contained<T, R, F>(cells: &[T], workers: usize, f: F) -> Vec<CellOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    grid_exec(cells, workers, move |i, c| {
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, c))) {
            Ok(r) => CellOutcome::Completed(r),
            Err(payload) => {
                telemetry::global().metrics.counter("exec.panics_contained").inc();
                CellOutcome::Panicked { message: panic_message(payload) }
            }
        }
    })
}

/// The worker pool itself (shared by [`run_grid`]'s propagate-panics
/// facade and [`run_grid_contained`]'s catching wrapper).
fn grid_exec<T, R, F>(cells: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = cells.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    // Executor telemetry (docs/observability.md): one `exec.worker` span
    // per worker thread, one `exec.cell` span per cell, and the
    // `exec.cells` count. Pure observation — none of it feeds back into
    // scheduling or results.
    let tele = telemetry::global();
    let cells_done = tele.metrics.counter("exec.cells");

    if workers == 1 {
        // Serial fast path: the caller is the worker.
        return cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let result = {
                    let _cell = tele.span("exec.cell");
                    f(i, c)
                };
                cells_done.inc();
                result
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let (cursor_ref, slots_ref, f_ref, cells_done) = (&cursor, &slots, &f, &cells_done);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move |_| {
                let _worker = tele.span("exec.worker");
                loop {
                    let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = {
                        let _cell = tele.span("exec.cell");
                        f_ref(i, &cells[i])
                    };
                    cells_done.inc();
                    *slots_ref[i].lock() = Some(result);
                }
            });
        }
    })
    .expect("executor worker pool");

    slots.into_iter().map(|slot| slot.into_inner().expect("cell computed")).collect()
}

// ---------------------------------------------------------------------------
// Retry
// ---------------------------------------------------------------------------

/// Deterministic retry schedule for transient evaluation faults.
///
/// Backoff is *simulated*: waiting out a flaky replica costs wall-clock
/// on a real deployment, so each retry charges
/// `backoff_secs * multiplier^(retry-1)` seconds to the session's
/// simulated ledger — never to the real clock, keeping chaos runs fast
/// and bit-reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per evaluation (1 = no retries).
    pub max_attempts: u32,
    /// Simulated seconds charged before the first retry.
    pub backoff_secs: f64,
    /// Backoff growth factor per additional retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 3 attempts, 30 s then 60 s of simulated backoff: one DBMS
        // restart window per retry, doubling.
        Self { max_attempts: 3, backoff_secs: 30.0, multiplier: 2.0 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        Self { max_attempts: 1, backoff_secs: 0.0, multiplier: 1.0 }
    }

    /// Simulated backoff charged before retry number `retry` (1-based):
    /// `backoff_secs * multiplier^(retry-1)`.
    pub fn backoff_before(&self, retry: u32) -> f64 {
        self.backoff_secs * self.multiplier.powi(retry.saturating_sub(1) as i32)
    }

    /// Parses the drivers' `retries=` flag: `off`, or comma-separated
    /// `key:value` pairs with keys `attempts`, `backoff` (seconds),
    /// `mult`. Example: `retries=attempts:4,backoff:15,mult:2`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec == "off" {
            return Ok(Self::none());
        }
        let mut policy = Self::default();
        if spec.is_empty() {
            return Ok(policy);
        }
        for pair in spec.split(',') {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("retry policy: expected key:value, got `{pair}`"))?;
            match key.trim() {
                "attempts" => {
                    policy.max_attempts = value
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("retry policy: bad attempts `{value}`"))?;
                }
                "backoff" => {
                    policy.backoff_secs = value
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s >= 0.0)
                        .ok_or_else(|| format!("retry policy: bad backoff `{value}`"))?;
                }
                "mult" => {
                    policy.multiplier = value
                        .parse()
                        .ok()
                        .filter(|&m: &f64| m >= 1.0)
                        .ok_or_else(|| format!("retry policy: bad mult `{value}`"))?;
                }
                other => return Err(format!("retry policy: unknown key `{other}`")),
            }
        }
        Ok(policy)
    }
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// `FNV_PRIME^k` mod 2⁶⁴ for k = 0..=8: what k zero bytes do to an
/// FNV-1a state.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds one word's little-endian bytes into the FNV-1a state `h`, with
/// the same value as eight `h = (h ^ b) * P` steps. Its run of k low zero
/// bytes comes first, and xor with a zero byte leaves `h` alone, so that
/// run is one multiply by `P^k`; the other bytes fold one at a time.
#[inline]
fn fnv1a_fold(h: u64, word: u64) -> u64 {
    let zeros = (word.trailing_zeros() / 8) as usize; // 8 for a zero word
    let mut h = h.wrapping_mul(FNV_PRIME_POW[zeros]);
    for &b in &word.to_le_bytes()[zeros..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Cache identity of one evaluation: a domain tag (workload, hardware,
/// objective — whatever distinguishes one response surface from another)
/// plus the quantized configuration.
///
/// Keys are totally ordered (domain tag first, then the quantized words
/// lexicographically) so cache shards can live in `BTreeMap`s and any
/// traversal — [`EvalCache::snapshot`], future eviction or export — is in
/// key order regardless of insertion order (the D1 determinism contract).
///
/// The fingerprint is computed once, at quantization, and stored: the
/// cache shard choice and the noise token both read it. It is a function
/// of the first two fields, so as the last field it never changes how
/// two keys compare. Its value is the byte-wise FNV-1a of the key; the
/// fold that computes it skips each word's run of low zero bytes, which
/// integer and categorical knobs produce (see `docs/execution.md`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    domain: u64,
    bits: Vec<u64>,
    fingerprint: u64,
}

impl CacheKey {
    /// Builds a key by quantizing `cfg` through each knob's domain:
    /// integer and categorical knobs round to their legal values, reals
    /// clamp to their range. Configurations that a DBMS could not tell
    /// apart therefore map to the same key.
    ///
    /// One pass: each quantized word is folded into the fingerprint as
    /// it is produced, so the next knob's clamp overlaps the hash chain.
    pub fn quantize(domain: u64, specs: &[KnobSpec], cfg: &[f64]) -> Self {
        assert_eq!(specs.len(), cfg.len(), "configuration/spec length mismatch");
        let mut fingerprint = fnv1a_fold(FNV_OFFSET, domain);
        let bits = specs
            .iter()
            .zip(cfg)
            .map(|(spec, &v)| {
                let q = spec.domain.clamp(v);
                // Normalize -0.0 so it cannot split a cache entry.
                let q = if q == 0.0 { 0.0 } else { q };
                let word = q.to_bits();
                fingerprint = fnv1a_fold(fingerprint, word);
                word
            })
            .collect::<Vec<u64>>();
        Self { domain, bits, fingerprint }
    }

    /// Hash of the response surface's identity.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Per-knob quantized values (`f64::to_bits` after `Domain::clamp`).
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// 64-bit fingerprint of the whole key: byte-wise FNV-1a over the
    /// domain tag, then every quantized word, little-endian. Also the
    /// source of the per-evaluation noise token, so its value is fixed.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Tags a domain from its identifying parts (e.g. workload name,
    /// hardware label, objective direction).
    pub fn domain_tag<'a, I: IntoIterator<Item = &'a str>>(parts: I) -> u64 {
        let mut h = FNV_OFFSET;
        for part in parts {
            for b in part.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            h ^= 0xff; // separator: ("ab","c") != ("a","bc")
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

// ---------------------------------------------------------------------------
// The shared evaluation cache
// ---------------------------------------------------------------------------

const SHARDS: usize = 16;

/// Cache hit/miss/size counters. Under the executor's determinism
/// contract all three are scheduling-independent: every evaluation
/// increments exactly one counter, the set of evaluated keys is fixed by
/// the seeds, and `misses == entries` counts distinct keys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Evaluations answered from memory.
    pub hits: u64,
    /// Evaluations that had to run (and were then stored).
    pub misses: u64,
    /// Distinct configurations stored.
    pub entries: u64,
}

/// A concurrent, sharded memo table for evaluation results.
///
/// Only sound for **pure** evaluation functions: racing threads may both
/// compute the same key, and whichever inserts first wins — callers get
/// the stored result either way, so results must not depend on which
/// thread computed them. [`DeterministicObjective`] provides exactly that
/// purity.
///
/// The hit/miss counters belong to the cache (so [`CacheStats`] stays
/// deterministic per grid); `GridOpts::report` republishes them as
/// `exec.cache.*` in the process-global registry the drivers snapshot.
#[derive(Debug)]
pub struct EvalCache {
    shards: Vec<Mutex<BTreeMap<CacheKey, EvalResult>>>,
    hits: telemetry::Counter,
    misses: telemetry::Counter,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
            hits: telemetry::Counter::new(),
            misses: telemetry::Counter::new(),
        }
    }

    /// Convenience: a new cache behind an [`Arc`] for sharing across the
    /// worker pool.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Returns the cached result for `key` (with a hit flag), or computes
    /// it with `f` and stores it. `f` runs outside the shard lock; if two
    /// threads race on the same key, the first insertion wins and the
    /// loser's (identical) result is discarded — still counted as a hit,
    /// so `hits + misses == total evaluations` exactly.
    ///
    /// Completed results only: both successes and *deterministic* crashes
    /// are pure functions of the configuration and cache soundly.
    /// Transient faults never get here — [`CachedObjective`] retries
    /// failed attempts before it asks the cache, and an exhausted retry
    /// budget fails the evaluation without storing anything.
    pub fn lookup_or_compute(
        &self,
        key: &CacheKey,
        f: impl FnOnce() -> EvalResult,
    ) -> (EvalResult, bool) {
        let shard = &self.shards[(key.fingerprint() as usize) % self.shards.len()];
        if let Some(found) = shard.lock().get(key) {
            self.hits.inc();
            return (found.clone(), true);
        }
        let computed = f();
        match shard.lock().entry(key.clone()) {
            Entry::Occupied(e) => {
                self.hits.inc();
                (e.get().clone(), true)
            }
            Entry::Vacant(v) => {
                self.misses.inc();
                v.insert(computed.clone());
                (computed, false)
            }
        }
    }

    /// Every `(key, result)` pair in the cache, in ascending key order.
    ///
    /// The order is a function of the key set alone — independent of
    /// insertion order, worker count, and scheduling — so a snapshot of
    /// two caches that saw the same evaluations compares equal entry by
    /// entry. Debug/regression surface for the determinism contract.
    pub fn snapshot(&self) -> Vec<(CacheKey, EvalResult)> {
        let mut all: Vec<(CacheKey, EvalResult)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            all.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        // Shards are traversed in fixed order but keys interleave across
        // shards; one global sort restores full key order.
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.shards.iter().map(|s| s.lock().len() as u64).sum(),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic (cacheable) objectives
// ---------------------------------------------------------------------------

/// An objective whose evaluations are pure functions of the quantized
/// configuration and a noise token — the property that makes both the
/// shared cache and cache-on/cache-off equivalence sound.
///
/// Implementors derive any stochasticity from `noise_token` (itself mixed
/// from the cache key and a grid-level seed), never from internal mutable
/// state.
pub trait DeterministicObjective {
    /// Identity of the response surface (workload + hardware + objective
    /// or equivalent); evaluations from different domains never collide.
    fn domain_tag(&self) -> u64;
    /// The cache key of a configuration on this objective — typically
    /// [`CacheKey::quantize`] over the specs that actually influence the
    /// result (a surrogate projects onto its subspace first).
    fn cache_key(&self, full_cfg: &[f64]) -> CacheKey;
    /// Pure evaluation: same `(cfg, noise_token)` in, same result out.
    fn evaluate_pure(&self, full_cfg: &[f64], noise_token: u64) -> EvalResult;
    /// Optimization direction.
    fn objective_kind(&self) -> Objective;
    /// Noise-free reference performance (improvement baseline).
    fn reference(&self, full_cfg: &[f64]) -> f64;
    /// Width of the metric vectors this objective emits (0 for backends
    /// without internal metrics). Used to shape the zero-filled metrics
    /// of an evaluation that exhausted its retries.
    fn metrics_dim(&self) -> usize {
        0
    }
    /// Noise-free optimum over the tuned sub-space (the quality flight
    /// recorder's regret baseline; see `SimObjective::optimum_value`).
    /// `None` — the default — for backends without a known optimum.
    fn optimum(&self, _space: &TuningSpace) -> Option<f64> {
        None
    }
}

/// Shared references delegate, so one trained objective (e.g. a
/// surrogate benchmark) can back many concurrent sessions without
/// cloning.
impl<T: DeterministicObjective + ?Sized> DeterministicObjective for &T {
    fn domain_tag(&self) -> u64 {
        (**self).domain_tag()
    }

    fn cache_key(&self, full_cfg: &[f64]) -> CacheKey {
        (**self).cache_key(full_cfg)
    }

    fn evaluate_pure(&self, full_cfg: &[f64], noise_token: u64) -> EvalResult {
        (**self).evaluate_pure(full_cfg, noise_token)
    }

    fn objective_kind(&self) -> Objective {
        (**self).objective_kind()
    }

    fn reference(&self, full_cfg: &[f64]) -> f64 {
        (**self).reference(full_cfg)
    }

    fn metrics_dim(&self) -> usize {
        (**self).metrics_dim()
    }

    fn optimum(&self, space: &TuningSpace) -> Option<f64> {
        (**self).optimum(space)
    }
}

impl DeterministicObjective for DbSimulator {
    fn domain_tag(&self) -> u64 {
        CacheKey::domain_tag(["sim", self.workload().name(), self.hardware().label()])
    }

    fn cache_key(&self, full_cfg: &[f64]) -> CacheKey {
        CacheKey::quantize(self.domain_tag(), self.catalog().specs(), full_cfg)
    }

    fn evaluate_pure(&self, full_cfg: &[f64], noise_token: u64) -> EvalResult {
        self.evaluate_seeded(full_cfg, noise_token)
    }

    fn objective_kind(&self) -> Objective {
        DbSimulator::objective(self)
    }

    fn reference(&self, full_cfg: &[f64]) -> f64 {
        self.expected_value(full_cfg).expect("reference configuration must not crash")
    }

    fn metrics_dim(&self) -> usize {
        dbtune_dbsim::METRICS_DIM
    }

    fn optimum(&self, space: &TuningSpace) -> Option<f64> {
        self.estimate_optimum_over(space.selected(), space.base())
    }
}

/// A bare simulator is a session objective of its own, with no cache and
/// no faults: each evaluation draws its noise from
/// [`noise_token`]`(self.noise_seed(), &key)`, so a session on `&mut sim`
/// equals one on `CachedObjective::new(&sim, None, sim.noise_seed())` bit
/// for bit.
impl SimObjective for DbSimulator {
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult {
        let token = noise_token(self.noise_seed(), &self.cache_key(full_cfg));
        self.evaluate_seeded(full_cfg, token)
    }

    fn objective(&self) -> Objective {
        DbSimulator::objective(self)
    }

    fn reference_value(&self, full_cfg: &[f64]) -> f64 {
        self.reference(full_cfg)
    }

    fn optimum_value(&self, space: &TuningSpace) -> Option<f64> {
        self.optimum(space)
    }
}

/// Adapter plugging a [`DeterministicObjective`] into the session driver,
/// optionally memoizing through a shared [`EvalCache`].
///
/// With or without a cache, an evaluation's result is
/// `evaluate_pure(cfg, noise_token(noise_seed, &key))` — the cache
/// only short-circuits recomputation. Sessions running against the same
/// `noise_seed` therefore agree bit-for-bit regardless of worker count,
/// cache sharing, or cache presence.
///
/// [`Self::with_faults`] additionally threads every evaluation through a
/// [`FaultPlan`] schedule and a [`RetryPolicy`]; with the plan inactive
/// the evaluation path is *exactly* the plain one (same results, same
/// counters, no new instruments registered), which is what keeps
/// faults-off artifacts byte-identical.
pub struct CachedObjective<O: DeterministicObjective> {
    inner: O,
    cache: Option<Arc<EvalCache>>,
    noise_seed: u64,
    n_evals: usize,
    n_hits: usize,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    eval_cursor: u64,
    /// Whether the most recent evaluation's failure came from an
    /// exhausted transient-fault retry budget (diag outcome tagging).
    last_transient: bool,
}

impl<O: DeterministicObjective> CachedObjective<O> {
    /// Wraps `inner`, memoizing through `cache` when given. `noise_seed`
    /// is the grid-level noise seed: all sessions sharing a cache must
    /// use the same value (otherwise a hit could return another session's
    /// noise draw — still deterministic, but surprising).
    pub fn new(inner: O, cache: Option<Arc<EvalCache>>, noise_seed: u64) -> Self {
        Self {
            inner,
            cache,
            noise_seed,
            n_evals: 0,
            n_hits: 0,
            faults: None,
            retry: RetryPolicy::none(),
            eval_cursor: 0,
            last_transient: false,
        }
    }

    /// [`Self::new`] plus a fault schedule and retry policy. An inactive
    /// plan (all rates zero) is dropped entirely, so
    /// `with_faults(.., FaultPlan::disabled(), ..)` behaves byte-for-byte
    /// like [`Self::new`].
    pub fn with_faults(
        inner: O,
        cache: Option<Arc<EvalCache>>,
        noise_seed: u64,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> Self {
        let mut this = Self::new(inner, cache, noise_seed);
        if plan.is_active() {
            this.faults = Some(plan);
            this.retry = retry;
        }
        this
    }

    /// The wrapped objective.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Evaluations requested through this wrapper (hits included).
    pub fn n_evals(&self) -> usize {
        self.n_evals
    }

    /// Of [`Self::n_evals`], how many were answered from the shared cache.
    /// Per-wrapper, unlike [`EvalCache::stats`], which aggregates over the
    /// whole grid.
    pub fn n_hits(&self) -> usize {
        self.n_hits
    }

    /// Of [`Self::n_evals`], how many actually ran.
    pub fn n_misses(&self) -> usize {
        self.n_evals - self.n_hits
    }
}

impl<O: DeterministicObjective> CachedObjective<O> {
    /// One clean (fault-free) evaluation through the cache; the stored
    /// entry is always the uncorrupted result.
    fn evaluate_clean(&mut self, full_cfg: &[f64], key: &CacheKey, token: u64) -> EvalResult {
        match &self.cache {
            Some(cache) => {
                let (result, hit) =
                    cache.lookup_or_compute(key, || self.inner.evaluate_pure(full_cfg, token));
                if hit {
                    self.n_hits += 1;
                }
                result
            }
            None => self.inner.evaluate_pure(full_cfg, token),
        }
    }

    /// The fault-schedule path: each attempt consumes one schedule slot,
    /// transient faults are retried under the policy with simulated
    /// backoff, and post-completion faults (metric corruption, stalls)
    /// are applied *after* the cache so stored entries stay clean. All
    /// fault counters are registered lazily — a plan that never fires
    /// publishes nothing.
    fn evaluate_faulty(&mut self, full_cfg: &[f64], plan: FaultPlan) -> EvalResult {
        let key = self.inner.cache_key(full_cfg);
        let token = noise_token(self.noise_seed, &key);
        let metrics = &telemetry::global().metrics;
        let mut charged = 0.0; // simulated secs from failed attempts + backoff
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let slot = self.eval_cursor;
            self.eval_cursor += 1;
            let fault = plan.fault_at(slot);

            // Attempt-killing faults: no result, charge the window.
            let transient_secs = match fault {
                Some(FaultEvent::Timeout) => {
                    metrics.counter("sim.faults.timeout").inc();
                    Some(plan.timeout_secs)
                }
                Some(FaultEvent::SpuriousCrash) => {
                    metrics.counter("sim.faults.crash").inc();
                    Some(plan.timeout_secs)
                }
                _ => None,
            };
            let Some(lost) = transient_secs else {
                // The attempt completes; degrading faults apply after
                // the cache so memoized entries stay uncorrupted.
                let mut res = self.evaluate_clean(full_cfg, &key, token);
                match fault {
                    Some(FaultEvent::NoisyMetrics { corruption }) => {
                        metrics.counter("sim.faults.noise").inc();
                        FaultPlan::corrupt_metrics(corruption, &mut res.metrics);
                    }
                    Some(FaultEvent::Stall { extra_secs }) => {
                        metrics.counter("sim.faults.stall").inc();
                        res.simulated_secs += extra_secs;
                    }
                    _ => {}
                }
                res.simulated_secs += charged;
                return res;
            };

            charged += lost;
            if attempt >= self.retry.max_attempts {
                metrics.counter("exec.retry_exhausted").inc();
                self.last_transient = true;
                // Out of attempts: surface a failed evaluation carrying
                // the full simulated cost of the doomed slot. The session
                // driver treats it like any crash (worst-seen
                // substitution / discard / quarantine).
                return EvalResult {
                    value: f64::NAN,
                    failed: true,
                    metrics: vec![0.0; self.inner.metrics_dim()],
                    simulated_secs: charged,
                };
            }
            metrics.counter("exec.retries").inc();
            charged += self.retry.backoff_before(attempt);
        }
    }
}

impl<O: DeterministicObjective> SimObjective for CachedObjective<O> {
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult {
        self.n_evals += 1;
        self.last_transient = false;
        match self.faults {
            Some(plan) => self.evaluate_faulty(full_cfg, plan),
            None => {
                let key = self.inner.cache_key(full_cfg);
                let token = noise_token(self.noise_seed, &key);
                self.evaluate_clean(full_cfg, &key, token)
            }
        }
    }

    fn objective(&self) -> Objective {
        self.inner.objective_kind()
    }

    fn reference_value(&self, full_cfg: &[f64]) -> f64 {
        self.inner.reference(full_cfg)
    }

    fn eval_cursor(&self) -> u64 {
        self.eval_cursor
    }

    fn seek_eval_cursor(&mut self, cursor: u64) {
        self.eval_cursor = cursor;
    }

    fn optimum_value(&self, space: &TuningSpace) -> Option<f64> {
        self.inner.optimum(space)
    }

    fn last_failure_was_transient(&self) -> bool {
        self.last_transient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::{Hardware, Workload};

    fn sim() -> DbSimulator {
        DbSimulator::new(Workload::Sysbench, Hardware::B, 5)
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| cell_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| cell_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "adjacent cells must get distinct seeds");
        assert_ne!(cell_seed(42, 0), cell_seed(43, 0), "base seed must matter");
    }

    #[test]
    fn run_grid_preserves_grid_order() {
        let cells: Vec<usize> = (0..100).collect();
        for workers in [1, 3, 8] {
            let out = run_grid(&cells, workers, |i, &c| {
                assert_eq!(i, c);
                c * 2
            });
            assert_eq!(out, cells.iter().map(|c| c * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_grid_handles_empty_and_oversized_pools() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_grid(&empty, 4, |_, &c| c).is_empty());
        let two = [10u32, 20];
        assert_eq!(run_grid(&two, 64, |_, &c| c + 1), vec![11, 21]);
    }

    #[test]
    fn quantization_rounds_to_domain_values() {
        let s = sim();
        let specs = s.catalog().specs();
        let tag = DeterministicObjective::domain_tag(&s);
        let base = s.default_config().to_vec();
        let mut jittered = base.clone();
        // Integer knobs: sub-step jitter must collapse onto the same key.
        for (v, spec) in jittered.iter_mut().zip(specs) {
            if matches!(spec.domain, dbtune_dbsim::Domain::Int { .. }) {
                *v += 0.3;
            }
        }
        assert_eq!(
            CacheKey::quantize(tag, specs, &base),
            CacheKey::quantize(tag, specs, &jittered)
        );
    }

    #[test]
    fn different_domains_never_collide() {
        let a = DbSimulator::new(Workload::Sysbench, Hardware::B, 1);
        let b = DbSimulator::new(Workload::Tpcc, Hardware::B, 1);
        let c = DbSimulator::new(Workload::Sysbench, Hardware::C, 1);
        let cfg = a.default_config().to_vec();
        let (ka, kb, kc) = (a.cache_key(&cfg), b.cache_key(&cfg), c.cache_key(&cfg));
        assert_ne!(ka, kb, "workload must be part of the key");
        assert_ne!(ka, kc, "hardware must be part of the key");
    }

    #[test]
    fn cache_counters_balance() {
        let cache = EvalCache::new();
        let s = sim();
        let cfg = s.default_config().to_vec();
        let key = s.cache_key(&cfg);
        let (r1, hit1) = cache.lookup_or_compute(&key, || s.evaluate_pure(&cfg, 7));
        let (r2, hit2) = cache.lookup_or_compute(&key, || panic!("must not recompute"));
        assert!(!hit1 && hit2);
        assert_eq!(r1.value.to_bits(), r2.value.to_bits());
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn cached_objective_is_cache_agnostic() {
        let cfg = sim().default_config().to_vec();
        let mut with = CachedObjective::new(sim(), Some(EvalCache::shared()), 11);
        let mut without = CachedObjective::new(sim(), None, 11);
        for _ in 0..3 {
            let a = with.evaluate(&cfg);
            let b = without.evaluate(&cfg);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.metrics, b.metrics);
        }
        assert_eq!(with.n_evals(), 3);
    }

    #[test]
    fn cache_snapshot_is_sorted_and_schedule_independent() {
        // Fill a fresh cache with the same 16 evaluations under different
        // worker counts; the snapshots must be byte-identical and in
        // ascending key order both times.
        let fill = |workers: usize| {
            let cache = EvalCache::shared();
            let base = sim().default_config().to_vec();
            let cfgs: Vec<Vec<f64>> = (0..16)
                .map(|i| {
                    let mut c = base.clone();
                    c[0] = 256.0 + 64.0 * i as f64;
                    c
                })
                .collect();
            run_grid(&cfgs, workers, |_, cfg| {
                let mut obj = CachedObjective::new(sim(), Some(cache.clone()), 13);
                obj.evaluate(cfg).value
            });
            cache.snapshot()
        };
        let serial = fill(1);
        let parallel = fill(8);
        assert_eq!(serial.len(), 16);
        assert!(serial.windows(2).all(|w| w[0].0 < w[1].0), "snapshot must ascend by key");
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.0, b.0, "same key set in the same order");
            assert_eq!(a.1.value.to_bits(), b.1.value.to_bits(), "bit-identical results");
        }
    }

    #[test]
    fn deterministic_crashes_cache_like_any_result() {
        // §4.1 crashes are a property of the configuration: cacheable.
        let cache = EvalCache::new();
        let s = sim();
        let key = s.cache_key(s.default_config());
        let crash = EvalResult {
            value: f64::NAN,
            failed: true,
            metrics: vec![0.0; dbtune_dbsim::METRICS_DIM],
            simulated_secs: 210.0,
        };
        let (out, hit) = cache.lookup_or_compute(&key, || crash.clone());
        assert!(!hit);
        assert!(out.failed);
        let (again, hit) = cache.lookup_or_compute(&key, || panic!("must not recompute"));
        assert!(hit, "a deterministic crash is served from cache");
        assert!(again.failed);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn retry_policy_backoff_is_exponential_and_parse_round_trips() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 3);
        assert!((p.backoff_before(1) - 30.0).abs() < 1e-12);
        assert!((p.backoff_before(2) - 60.0).abs() < 1e-12);
        assert!((p.backoff_before(3) - 120.0).abs() < 1e-12);
        assert_eq!(RetryPolicy::parse("off").expect("off"), RetryPolicy::none());
        assert_eq!(RetryPolicy::parse("").expect("default"), RetryPolicy::default());
        let q = RetryPolicy::parse("attempts:5,backoff:10,mult:3").expect("ok");
        assert_eq!(q, RetryPolicy { max_attempts: 5, backoff_secs: 10.0, multiplier: 3.0 });
        assert!((q.backoff_before(3) - 90.0).abs() < 1e-12);
        assert!(RetryPolicy::parse("attempts:0").is_err(), "at least one attempt");
        assert!(RetryPolicy::parse("mult:0.5").is_err(), "shrinking backoff rejected");
        assert!(RetryPolicy::parse("nope:1").is_err(), "unknown keys rejected");
    }

    #[test]
    fn run_grid_contained_reports_panics_in_place() {
        let cells: Vec<u32> = (0..10).collect();
        for workers in [1, 4] {
            let out = run_grid_contained(&cells, workers, |_, &c| {
                if c % 4 == 1 {
                    panic!("cell {c} exploded");
                }
                c * 10
            });
            assert_eq!(out.len(), cells.len());
            for (c, o) in cells.iter().zip(&out) {
                match o {
                    CellOutcome::Completed(v) => {
                        assert_eq!(*v, c * 10);
                        assert!(c % 4 != 1);
                    }
                    CellOutcome::Panicked { message } => {
                        assert_eq!(c % 4, 1);
                        assert!(message.contains(&format!("cell {c} exploded")), "{message:?}");
                    }
                }
            }
            assert_eq!(out.iter().filter(|o| o.is_panicked()).count(), 3);
        }
    }

    #[test]
    fn concurrent_cache_is_deterministic() {
        let s = sim();
        let cfg = s.default_config().to_vec();
        let serial = s.evaluate_pure(&cfg, noise_token(9, &s.cache_key(&cfg)));
        let cache = EvalCache::shared();
        let values = run_grid(&[(); 32], 8, |_, _| {
            let mut obj = CachedObjective::new(sim(), Some(cache.clone()), 9);
            obj.evaluate(&cfg).value.to_bits()
        });
        assert!(values.iter().all(|&v| v == serial.value.to_bits()));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert_eq!(stats.misses, stats.entries);
        assert_eq!(stats.entries, 1);
    }
}
