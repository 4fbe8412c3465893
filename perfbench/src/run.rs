//! One benchmark run: repeated set-up, measured passes, the correctness
//! gate, and then either a traced pass with the probes or an
//! observer-cost comparison.

use crate::calib::Reference;
use crate::digest;
use crate::probes;
use crate::report::{median, percentile_us, Metric};
use crate::workloads::{run_pass, setup, Inputs, PassOutput, SessionDigest, Size, Workload};
use dbtune_core::telemetry;
use std::path::PathBuf;
use std::time::Instant;

/// A run measures at least this many passes, whatever its time budget.
const MIN_PASSES: usize = 2;
/// Passes an observer-cost run repeats with the observer latched, at most.
const OBSERVED_PASSES: usize = 3;
/// Set-up samples taken before the first pass; their median is reported.
const SETUP_SAMPLES: usize = 20;
/// Each set-up sample repeats the set-up for at least this long and
/// reports the fastest repetition.
const SETUP_SAMPLE_S: f64 = 0.005;
/// Reference rounds taken beside each set-up sample, which scale it.
const SETUP_REFERENCE_ROUNDS: usize = 20;
/// Reference rounds taken after each pass; the passes are scaled by the
/// fastest round of each computation over the run.
const PASS_REFERENCE_ROUNDS: usize = 100;

/// An instrument an observer-cost run switches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observer {
    /// The JSONL trace journal.
    Journal,
    /// The counting allocator's accounting latch.
    Memprof,
}

impl Observer {
    /// The observer's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Observer::Journal => "journal",
            Observer::Memprof => "memprof",
        }
    }

    /// Inverse of [`Observer::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "journal" => Ok(Observer::Journal),
            "memprof" => Ok(Observer::Memprof),
            other => Err(format!("unknown observer `{other}` (expected journal|memprof)")),
        }
    }
}

/// What a run adds after its measured passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the result line holds the end-to-end metrics.
    Run,
    /// A traced pass and the probes: the result line holds the per-layer
    /// metrics.
    Traced,
    /// Passes with one observer latched: the result line holds its cost.
    Observe(Observer),
}

impl Mode {
    /// The mode's name in records.
    pub fn name(self) -> String {
        match self {
            Mode::Run => "run".into(),
            Mode::Traced => "traced".into(),
            Mode::Observe(o) => format!("observe={}", o.name()),
        }
    }
}

/// How to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time budget for the measured passes.
    pub seconds: f64,
    /// Work per pass.
    pub size: Size,
    /// What to do after the measured passes.
    pub mode: Mode,
    /// Where the run's record goes, and an observer-cost run's journal.
    pub out: PathBuf,
}

/// What a run measured and whether its results were right.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// No session panicked and every digest matched.
    pub correct: bool,
    /// Sessions and requests whose digests were checked.
    pub attempted: u64,
    /// Of those, how many panicked or failed the check.
    pub failed: u64,
    /// The metrics of the result line.
    pub headline: Vec<Metric>,
    /// Every metric measured, the headline included.
    pub all: Vec<Metric>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Digest of the first pass.
    pub digest: u64,
}

/// The correctness gate: pass-to-pass equality of every session digest.
#[derive(Default)]
struct Gate {
    reference: Vec<SessionDigest>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn check(&mut self, pass: &str, sessions: &[SessionDigest]) {
        if self.reference.is_empty() {
            self.reference = sessions.to_vec();
        }
        self.attempted += sessions.len() as u64;
        for (s, r) in sessions.iter().zip(&self.reference) {
            match s.digest {
                None => {
                    self.failed += 1;
                    self.problems.push(format!("{pass}: {} panicked", s.label));
                }
                Some(d) if r.digest.is_some_and(|rd| rd != d) => {
                    self.failed += 1;
                    self.problems
                        .push(format!("{pass}: {} digest differs from the first pass", s.label));
                }
                Some(_) => {}
            }
        }
    }

    fn digest(&self) -> u64 {
        digest::fnv1a(self.reference.iter().map(|s| s.digest.unwrap_or(0)))
    }
}

/// The fastest time of every timed segment of a pass, over the passes
/// run so far. A pass does the same work in the same order every time, so
/// segment `i` of one pass is segment `i` of every other. Keeping the
/// fastest of each discards the time that other tenants of the machine
/// took in bursts, which a median of whole passes cannot: every pass of a
/// few seconds holds some burst.
#[derive(Default)]
struct Floor {
    ns: Option<Vec<u64>>,
}

impl Floor {
    fn fold(&mut self, pass: &str, ns: Vec<u64>, gate: &mut Gate) {
        match &mut self.ns {
            None => self.ns = Some(ns),
            Some(floor) if floor.len() != ns.len() => {
                gate.failed += 1;
                gate.problems.push(format!(
                    "{pass}: {} timed segments, the first pass had {}",
                    ns.len(),
                    floor.len()
                ));
            }
            Some(floor) => {
                for (f, x) in floor.iter_mut().zip(ns) {
                    *f = (*f).min(x);
                }
            }
        }
    }

    fn ns(&self) -> &[u64] {
        self.ns.as_deref().unwrap_or_default()
    }

    fn secs(&self) -> f64 {
        self.ns().iter().sum::<u64>() as f64 / 1e9
    }
}

/// `VmHWM` of this process less its file-backed resident pages, in MiB:
/// the peak of the memory the process allocated. How much of the
/// executable is resident depends on what the page cache holds, which
/// moved `VmHWM` alone by up to 0.8 MB between runs of the same seed.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return f64::NAN };
    let kb = |field: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (kb("VmHWM:") - kb("RssFile:") - kb("RssShmem:")) / 1024.0
}

fn registry_count(name: &str) -> u64 {
    telemetry::global().metrics.counter(name).get()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One set-up sample: the set-up repeated for at least `SETUP_SAMPLE_S`.
/// Returns the last inputs built and the fastest set-up's seconds.
fn setup_sample(cfg: &RunConfig) -> (Inputs, f64) {
    let start = Instant::now();
    let mut fastest = f64::INFINITY;
    loop {
        let t = Instant::now();
        let inputs = setup(cfg.workload, cfg.size, cfg.seed);
        fastest = fastest.min(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_SAMPLE_S {
            return (inputs, fastest);
        }
    }
}

/// Runs the workload: set-up, passes until the time budget is spent, the
/// correctness gate, then whatever `cfg.mode` adds. `expected` is the
/// digest the first pass must have, when known.
pub fn run(cfg: &RunConfig, expected: Option<u64>) -> RunOutcome {
    // Samples taken later, on the heap the passes leave behind, ran up to
    // a third slower, by an amount that differed from process to process.
    // Each sample is scaled by reference rounds taken right after it: the
    // machine's speed changed within the 0.2 s of set-up, and the passes'
    // reference, taken later, did not follow it.
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_SAMPLES {
        let (built, secs) = setup_sample(cfg);
        let mut beside = Reference::default();
        beside.sample(SETUP_REFERENCE_ROUNDS);
        inputs = Some(built);
        setup_times.push(secs * beside.scale());
    }
    let inputs = inputs.expect("set-up sampled at least once");

    let start = Instant::now();
    let mut passes: Vec<PassOutput> = Vec::new();
    let mut decide = Floor::default();
    let mut work = Floor::default();
    let mut gate = Gate::default();
    let mut reference = Reference::default();
    let mut peak_rss = None;
    loop {
        let mut pass = run_pass(&inputs, false);
        let name = format!("pass {}", passes.len() + 1);
        gate.check(&name, &pass.sessions);
        decide.fold(&name, std::mem::take(&mut pass.decide_ns), &mut gate);
        work.fold(&name, std::mem::take(&mut pass.work_ns), &mut gate);
        let last = pass.wall_s;
        passes.push(pass);
        // Read after the first pass: later passes raise the peak a little
        // through heap fragmentation, and how many there are depends on
        // the machine's speed.
        peak_rss.get_or_insert_with(peak_rss_mb);
        reference.sample(PASS_REFERENCE_ROUNDS);
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + last > cfg.seconds {
            break;
        }
    }
    let floor_s = decide.secs() + work.secs();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Every time is reported at the reference machine's speed.
    let scale = reference.scale();
    let pass_s = floor_s * scale;

    let e2e = vec![
        Metric::new("setup_s", median(&setup_times), "s"),
        Metric::new("pass_s", pass_s, "s"),
        Metric::new("evals_per_s", inputs.evals_per_pass() as f64 / pass_s, "1/s"),
        Metric::new("decide_p50_us", percentile_us(decide.ns(), 50.0) * scale, "us"),
        Metric::new("decide_p99_us", percentile_us(decide.ns(), 99.0) * scale, "us"),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MB"),
    ];
    let [dense, maps, trees, mlp] = reference.floors();
    let mut extras = vec![
        Metric::new("pass_floor_s", floor_s, "s"),
        Metric::new("pass_wall_s", median(&walls), "s"),
        Metric::new("reference_us", reference.secs() * 1e6, "us"),
        Metric::new("ref.dense_us", dense * 1e6, "us"),
        Metric::new("ref.maps_us", maps * 1e6, "us"),
        Metric::new("ref.trees_us", trees * 1e6, "us"),
        Metric::new("ref.mlp_us", mlp * 1e6, "us"),
        Metric::new("decide_n", decide.ns().len() as f64, "count"),
        Metric::new("passes", passes.len() as f64, "count"),
    ];
    let select: Vec<f64> = passes.iter().flat_map(|p| p.select_s.iter().copied()).collect();
    if !select.is_empty() {
        extras.push(Metric::new("select_s", median(&select), "s"));
    }
    extras.extend(fig9_curve(&passes));

    // `more` is what the mode adds to the record, its headline included.
    let (headline, more) = match cfg.mode {
        Mode::Run => (e2e.clone(), Vec::new()),
        Mode::Traced => traced(cfg, &inputs, median(&walls), &mut gate),
        Mode::Observe(o) => observe(cfg, &inputs, &passes, o, &mut gate),
    };

    let digest = gate.digest();
    if let Some(exp) = expected {
        if exp != digest {
            gate.failed += inputs.sessions_per_pass() as u64;
            gate.problems.push(format!(
                "{} digest {} differs from expected.json ({})",
                cfg.workload.name(),
                digest::hex(digest),
                digest::hex(exp)
            ));
        }
    }
    let failed_frac = ratio(gate.failed as f64, gate.attempted as f64);
    extras.push(Metric::new("failed_frac", failed_frac, "ratio"));

    let mut all = e2e;
    all.extend(extras);
    all.extend(more);
    RunOutcome {
        correct: gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        headline,
        all,
        problems: gate.problems,
        digest,
    }
}

/// The Fig. 9 curves of a grid workload, median across passes.
fn fig9_curve(passes: &[PassOutput]) -> Vec<Metric> {
    let Some(first) = passes.first() else { return Vec::new() };
    first
        .fig9
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let per_pass: Vec<f64> = passes.iter().map(|p| p.fig9[i].1).collect();
            Metric::new(name.clone(), median(&per_pass), "ms")
        })
        .collect()
}

/// The traced pass and the probes. Returns the per-layer metrics of the
/// result line, and those plus the per-family metrics for the record.
fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    pass_wall_s: f64,
    gate: &mut Gate,
) -> (Vec<Metric>, Vec<Metric>) {
    let retries0 = registry_count("exec.retries");
    let exhausted0 = registry_count("exec.retry_exhausted");
    let pass = run_pass(inputs, true);
    gate.check("traced pass", &pass.sessions);
    let t = pass.trace.expect("a traced pass returns its trace");
    let iters = t.iterations.max(1) as f64;

    let mut layers = vec![
        Metric::new("trace_overhead_ratio", pass.wall_s / pass_wall_s, "ratio"),
        Metric::new("opt.overhead_us_per_iter", t.overhead_s / iters * 1e6, "us"),
        Metric::new("phase.surrogate_fit_share", ratio(t.fit_s, t.overhead_s), "ratio"),
        Metric::new("phase.acquisition_share", ratio(t.acq_s, t.overhead_s), "ratio"),
        Metric::new("phase.bookkeeping_share", ratio(t.book_s, t.overhead_s), "ratio"),
        Metric::new(
            "tuner.loop_us_per_iter",
            (t.session_s - t.overhead_s - t.evaluate_s).max(0.0) / iters * 1e6,
            "us",
        ),
        Metric::new(
            "tuner.cell_setup_us",
            ratio(t.cell_setup_ns.iter().sum::<u64>() as f64, t.cell_setup_ns.len() as f64) / 1e3,
            "us",
        ),
        Metric::new("exec.evaluate_us_p50", percentile_us(&t.evaluate_ns, 50.0), "us"),
        Metric::new(
            "exec.cache.hit_ratio",
            ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
            "ratio",
        ),
        Metric::new("exec.retries", (registry_count("exec.retries") - retries0) as f64, "count"),
        Metric::new(
            "exec.retry_exhausted",
            (registry_count("exec.retry_exhausted") - exhausted0) as f64,
            "count",
        ),
        Metric::new(
            "exec.grid.idle_ratio",
            (1.0 - t.busy_s / (inputs.workers as f64 * pass.wall_s)).max(0.0),
            "ratio",
        ),
    ];
    layers.extend(probes::run_probes(cfg.size, &t.replay));

    let mut extras = Vec::new();
    for (slug, (s, o)) in &t.opt_ns {
        extras.push(Metric::new(format!("opt.{slug}.suggest_s"), *s as f64 / 1e9, "s"));
        extras.push(Metric::new(format!("opt.{slug}.observe_s"), *o as f64 / 1e9, "s"));
    }
    if let Some(pool) = t.pool_eval_s {
        extras.push(Metric::new("service.pool_eval_s", pool, "s"));
        extras.push(Metric::new("service.tune_s", median(&t.tune_s), "s"));
        extras.push(Metric::new("service.tune_transfer_s", median(&t.tune_transfer_s), "s"));
    }
    extras.extend(layers.iter().cloned());
    (layers, extras)
}

/// Passes with one observer latched, against the observer-off passes
/// already run. Returns the observer's metrics for both the result line
/// and the record.
fn observe(
    cfg: &RunConfig,
    inputs: &Inputs,
    off: &[PassOutput],
    observer: Observer,
    gate: &mut Gate,
) -> (Vec<Metric>, Vec<Metric>) {
    let tele = telemetry::global();
    let journal = cfg.out.join(format!("journal-{}.jsonl", std::process::id()));
    match observer {
        Observer::Journal => {
            if let Err(e) = std::fs::create_dir_all(&cfg.out)
                .and_then(|_| tele.enable_journal(&journal, "perfbench"))
            {
                gate.failed += 1;
                gate.problems.push(format!("cannot open journal {}: {e}", journal.display()));
                return (Vec::new(), Vec::new());
            }
        }
        Observer::Memprof => tele.enable_memprof(),
    }
    let allocs0 = dbtune_obs::memprof::global_stats().alloc_count;
    let n = off.len().min(OBSERVED_PASSES);
    let mut walls = Vec::with_capacity(n);
    for i in 0..n {
        let pass = run_pass(inputs, false);
        gate.check(&format!("{} pass {}", observer.name(), i + 1), &pass.sessions);
        walls.push(pass.wall_s);
    }
    let allocs = dbtune_obs::memprof::global_stats().alloc_count - allocs0;
    if observer == Observer::Journal {
        tele.journal.disable();
        // The journal is only a load on the program here; its content is
        // not needed.
        let _ = std::fs::remove_file(&journal);
    }

    let off_walls: Vec<f64> = off.iter().map(|p| p.wall_s).collect();
    let overhead = median(&walls) / median(&off_walls);
    let mut metrics =
        vec![Metric::new(format!("obs.{}_overhead_ratio", observer.name()), overhead, "ratio")];
    if observer == Observer::Memprof {
        let evals = (n as u64 * inputs.evals_per_pass()) as f64;
        metrics.push(Metric::new("mem.allocs_per_eval", allocs as f64 / evals, "count"));
    }
    (metrics.clone(), metrics)
}
