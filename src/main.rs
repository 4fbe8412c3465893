//! `dbtune` command-line interface.
//!
//! Thin argument-parsing shell over the workspace crates — every
//! subcommand maps onto one library entry point:
//!
//! ```sh
//! dbtune workloads                        # Table 4/5 metadata
//! dbtune rank SYSBENCH measure=shap       # knob ranking
//! dbtune tune TPC-C optimizer=smac        # tune + append history.json
//! dbtune transfer Twitter                 # RGPE over stored history
//! dbtune benchmark Smallbank              # §8 surrogate benchmark
//! ```
//!
//! Options are `key=value` pairs after the positional workload name; see
//! `dbtune help`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use dbtune::core::repository::Repository;
use dbtune::core::service::{TuningRequest, TuningService};
use dbtune::core::tuner::lhs_pool;
use dbtune::prelude::*;
use rand::SeedableRng;

const USAGE: &str = "\
dbtune — database configuration tuning with hyper-parameter optimization

USAGE: dbtune <COMMAND> [WORKLOAD] [key=value ...]

COMMANDS
  workloads   Table 4 workloads and Table 5 hardware instances
  rank        rank all catalog knobs by importance for one workload
  tune        run a tuning session and append it to the history file
  transfer    tune with RGPE acceleration over stored history
  benchmark   train + evaluate the §8 surrogate tuning benchmark
  help        this text

COMMON OPTIONS
  hardware=B            target instance A|B|C|D            (default B)
  seed=42               RNG seed                           (default 42)
  measure=shap          lasso|gini|fanova|ablation|shap    (default shap)
  samples=500           observation-pool size for ranking  (default 500)
  knobs=10              number of knobs to tune            (default 10)

TUNE / TRANSFER OPTIONS
  optimizer=smac        vanilla-bo|mixed-bo|smac|tpe|turbo|ddpg|ga|random|grid
  iters=100             tuning iterations                  (default 100)
  init=10               LHS initial design size            (default 10)
  policy=worst          failed-config handling: worst|discard
  history=history.json  repository file to append/load     (default history.json)
  task=<workload>       repository task name
  pin=knob1,knob2       pin the knob set by name (skips ranking)

BENCHMARK OPTIONS
  samples=400           offline collection size            (default 400)
  iters=100             surrogate-session iterations       (default 100)
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let Some(cmd) = raw.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(&raw[1..])?;
    match cmd.as_str() {
        "workloads" => cmd_workloads(),
        "rank" => cmd_rank(&args),
        "tune" => cmd_tune(&args),
        "transfer" => cmd_transfer(&args),
        "benchmark" => cmd_benchmark(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `dbtune help`)")),
    }
}

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

/// Every `key=` any subcommand understands; typos fail fast instead of
/// silently running with defaults (a mistyped `optimzer=tpe` would
/// otherwise tune with SMAC and report nothing amiss).
const KNOWN_OPTS: &[&str] = &[
    "hardware",
    "history",
    "init",
    "iters",
    "knobs",
    "measure",
    "optimizer",
    "pin",
    "policy",
    "samples",
    "seed",
    "task",
];

/// Sizes that must be at least 1, checked as early as unknown keys: a
/// zero-iteration session has no best configuration, a zero-knob space
/// is empty, and a zero-sample pool has nothing to rank or train on.
const POSITIVE_OPTS: &[&str] = &["iters", "knobs", "samples"];

struct Args {
    positional: Vec<String>,
    opts: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut opts = BTreeMap::new();
        for a in raw {
            match a.split_once('=') {
                Some((k, v)) => {
                    let k = k.to_ascii_lowercase();
                    if !KNOWN_OPTS.contains(&k.as_str()) {
                        return Err(format!(
                            "unknown option `{k}=` (known: {})",
                            KNOWN_OPTS.join(", ")
                        ));
                    }
                    if POSITIVE_OPTS.contains(&k.as_str()) && v.parse::<usize>() == Ok(0) {
                        return Err(format!("{k}={v}: must be at least 1"));
                    }
                    opts.insert(k, v.to_string());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Self { positional, opts })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name =
            self.positional.first().ok_or("missing workload name (e.g. `dbtune tune TPC-C`)")?;
        parse_workload(name)
    }

    fn str_opt(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    fn usize_opt(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}={v}: not an integer")),
        }
    }

    fn u64_opt(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}={v}: not an integer")),
        }
    }

    fn hardware(&self) -> Result<Hardware, String> {
        match self.str_opt("hardware").unwrap_or("B") {
            "A" | "a" => Ok(Hardware::A),
            "B" | "b" => Ok(Hardware::B),
            "C" | "c" => Ok(Hardware::C),
            "D" | "d" => Ok(Hardware::D),
            other => Err(format!("hardware={other}: expected A|B|C|D")),
        }
    }

    fn measure(&self) -> Result<MeasureKind, String> {
        match self.str_opt("measure").unwrap_or("shap") {
            "lasso" => Ok(MeasureKind::Lasso),
            "gini" => Ok(MeasureKind::Gini),
            "fanova" => Ok(MeasureKind::Fanova),
            "ablation" => Ok(MeasureKind::Ablation),
            "shap" => Ok(MeasureKind::Shap),
            other => Err(format!("measure={other}: expected lasso|gini|fanova|ablation|shap")),
        }
    }

    fn optimizer(&self) -> Result<OptimizerKind, String> {
        match self.str_opt("optimizer").unwrap_or("smac") {
            "vanilla-bo" | "vanillabo" | "bo" => Ok(OptimizerKind::VanillaBo),
            "mixed-bo" | "mixed-kernel-bo" | "mixedbo" => Ok(OptimizerKind::MixedKernelBo),
            "smac" => Ok(OptimizerKind::Smac),
            "tpe" => Ok(OptimizerKind::Tpe),
            "turbo" => Ok(OptimizerKind::Turbo),
            "ddpg" => Ok(OptimizerKind::Ddpg),
            "ga" => Ok(OptimizerKind::Ga),
            "random" => Ok(OptimizerKind::Random),
            "grid" => Ok(OptimizerKind::Grid),
            other => Err(format!("optimizer={other}: unknown optimizer")),
        }
    }

    fn failure_policy(&self) -> Result<FailurePolicy, String> {
        match self.str_opt("policy").unwrap_or("worst") {
            "worst" | "worst-seen" => Ok(FailurePolicy::WorstSeen),
            "discard" | "skip" => Ok(FailurePolicy::Discard),
            other => Err(format!("policy={other}: expected worst|discard")),
        }
    }

    fn session_config(&self) -> Result<SessionConfig, String> {
        Ok(SessionConfig {
            iterations: self.usize_opt("iters", 100)?,
            lhs_init: self.usize_opt("init", 10)?,
            seed: self.u64_opt("seed", 42)?,
            failure_policy: self.failure_policy()?,
            ..Default::default()
        })
    }

    /// `pin=knob1,knob2,...` resolved against the catalog. A knob named
    /// twice is an error: both coordinates would write one slot of the
    /// full configuration, so the first could never reach the simulator.
    fn pinned_knobs(&self, catalog: &KnobCatalog) -> Result<Option<Vec<usize>>, String> {
        let Some(list) = self.str_opt("pin") else { return Ok(None) };
        let mut idx = Vec::new();
        for name in list.split(',').filter(|s| !s.is_empty()) {
            let i = catalog.index_of(name).ok_or_else(|| format!("pin: unknown knob `{name}`"))?;
            if idx.contains(&i) {
                return Err(format!("pin: duplicate knob `{name}`"));
            }
            idx.push(i);
        }
        if idx.is_empty() {
            return Err("pin=: empty knob list".into());
        }
        Ok(Some(idx))
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    let wanted = name.to_ascii_lowercase().replace('-', "");
    Workload::ALL
        .iter()
        .find(|w| w.name().to_ascii_lowercase().replace('-', "") == wanted)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (one of {})", names.join(", "))
        })
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_workloads() -> Result<(), String> {
    println!("Workloads (Table 4):");
    println!(
        "  {:<10} {:<16} {:>8} {:>7} {:>10}  objective",
        "name", "class", "size GB", "tables", "read-only"
    );
    for w in Workload::ALL {
        let p = w.profile();
        let obj = if w.is_latency_objective() { "95th-pct latency" } else { "throughput" };
        println!(
            "  {:<10} {:<16} {:>8.1} {:>7} {:>9.0}%  {obj}",
            w.name(),
            format!("{:?}", p.class),
            p.size_gb,
            p.tables,
            p.read_only_frac * 100.0,
        );
    }
    println!("\nHardware instances (Table 5):");
    println!("  {:<4} {:>6} {:>8} {:>12}", "name", "cores", "RAM GB", "perf scale");
    for h in [Hardware::A, Hardware::B, Hardware::C, Hardware::D] {
        println!(
            "  {:<4} {:>6} {:>8.0} {:>12.2}",
            h.label(),
            h.cores(),
            h.ram_mb() / 1024.0,
            h.perf_scale()
        );
    }
    Ok(())
}

fn cmd_rank(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let measure = args.measure()?;
    let samples = args.usize_opt("samples", 500)?;
    let top = args.usize_opt("knobs", 10)?;

    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();
    let default_cfg = catalog.default_config(hardware);
    let all: Vec<usize> = (0..catalog.len()).collect();
    let space = TuningSpace::new(&catalog, all, default_cfg.clone());

    eprintln!(
        "collecting {samples}-sample LHS pool on {} ({} knobs)…",
        workload.name(),
        catalog.len()
    );
    let (x, y) = lhs_pool(&mut sim, &space, samples, &mut rand::rngs::StdRng::seed_from_u64(seed));

    let scores = measure.build().scores(&ImportanceInput {
        specs: catalog.specs(),
        default: &default_cfg,
        x: &x,
        y: &y,
        seed,
    });
    let ranked = top_k(&scores, top);

    println!("top {top} of {} knobs for {} by {measure:?}:", catalog.len(), workload.name());
    for (rank, &i) in ranked.iter().enumerate() {
        println!("  {:>3}. {:<40} {:>10.4}", rank + 1, catalog.specs()[i].name, scores[i]);
    }
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();

    let selected = match args.pinned_knobs(&catalog)? {
        Some(pinned) => pinned,
        None => {
            let measure = args.measure()?;
            let samples = args.usize_opt("samples", 500)?;
            let n_knobs = args.usize_opt("knobs", 10)?;
            eprintln!("selecting {n_knobs} knobs by {measure:?} over a {samples}-sample pool…");
            let service = TuningService::new(catalog.clone());
            service.select_knobs(&mut sim, measure, samples, n_knobs, seed)
        }
    };
    let space = TuningSpace::with_default_base(&catalog, selected.clone(), hardware);

    let optimizer = args.optimizer()?;
    let cfg = args.session_config()?;
    let mut opt = optimizer.build(space.space(), METRICS_DIM, cfg.seed);
    let result = run_session(&mut sim, &space, &mut *opt, &cfg);
    report_session(&space, &result);

    let history = args.str_opt("history").unwrap_or("history.json");
    let task =
        args.str_opt("task").map(str::to_string).unwrap_or_else(|| workload.name().to_lowercase());
    let mut repo = Repository::load(Path::new(history)).map_err(|e| e.to_string())?;
    repo.record_session(&task, &space, &result);
    repo.save(Path::new(history)).map_err(|e| e.to_string())?;
    println!(
        "recorded task `{task}` ({} knobs: {}) into {history}",
        selected.len(),
        space.space().specs().iter().map(|s| s.name).collect::<Vec<_>>().join(", "),
    );
    Ok(())
}

fn report_session(space: &TuningSpace, result: &SessionResult) {
    println!(
        "best improvement over default: {:+.1}% (found at iteration {})",
        result.best_improvement() * 100.0,
        result.iterations_to_best(),
    );
    println!(
        "  default {:.1} -> best {:.1}; {:.2} simulated hours, {:.2}s optimizer overhead",
        result.default_value,
        result.best_value(),
        result.simulated_secs / 3600.0,
        result.overhead_secs.iter().sum::<f64>(),
    );
    if let Some(best) =
        result.observations.iter().filter(|o| !o.failed).max_by(|a, b| a.score.total_cmp(&b.score))
    {
        println!("  best configuration:");
        for (spec, v) in space.space().specs().iter().zip(&best.config) {
            println!("    {:<40} {v}", spec.name);
        }
    }
}

fn cmd_transfer(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let history = args.str_opt("history").unwrap_or("history.json");
    let task =
        args.str_opt("task").map(str::to_string).unwrap_or_else(|| workload.name().to_lowercase());

    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();
    let repo = Repository::load(Path::new(history)).map_err(|e| e.to_string())?;
    if repo.is_empty() {
        return Err(format!(
            "no stored history in {history}; run `dbtune tune` first to build one"
        ));
    }
    eprintln!("{} stored task(s) in {history}: {}", repo.len(), repo.task_names().join(", "));

    let mut service = TuningService::with_repository(catalog.clone(), repo);
    let req = TuningRequest {
        task: task.clone(),
        measure: args.measure()?,
        pool_samples: args.usize_opt("samples", 500)?,
        n_knobs: args.usize_opt("knobs", 10)?,
        optimizer: args.optimizer()?,
        transfer: true,
        knobs_override: args.pinned_knobs(&catalog)?,
        session: args.session_config()?,
    };
    let report = service.tune(&mut sim, &req);
    println!(
        "transfer used {} source task(s){}",
        report.n_sources,
        if report.n_sources == 0 {
            " — no stored space matched; tuned from scratch (try pin= to reuse a stored knob set)"
        } else {
            ""
        }
    );
    report_session(&report.space, &report.result);
    service.repository().save(Path::new(history)).map_err(|e| e.to_string())?;
    println!("appended task `{task}` to {history}");
    Ok(())
}

fn cmd_benchmark(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let samples = args.usize_opt("samples", 400)?;
    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();

    let selected = match args.pinned_knobs(&catalog)? {
        Some(p) => p,
        None => {
            let measure = args.measure()?;
            let n_knobs = args.usize_opt("knobs", 10)?;
            let service = TuningService::new(catalog.clone());
            service.select_knobs(&mut sim, measure, args.usize_opt("samples", 500)?, n_knobs, seed)
        }
    };
    let space = TuningSpace::with_default_base(&catalog, selected, hardware);

    eprintln!("collecting {samples} offline samples on {}…", workload.name());
    let ds = collect_samples(&mut sim, &space, samples, seed);
    let mut bench = SurrogateBenchmark::train(space.clone(), sim.objective(), &ds, seed);

    let optimizer = args.optimizer()?;
    let cfg = args.session_config()?;
    let mut opt = optimizer.build(space.space(), METRICS_DIM, cfg.seed);
    let result = run_session(&mut bench, &space, &mut *opt, &cfg);
    println!(
        "{} on the surrogate: {:+.1}% improvement over default",
        optimizer.label(),
        result.best_improvement() * 100.0
    );
    let report = bench.speedup_report();
    println!(
        "{} surrogate evaluations in {:.3}s; workload replay would have taken {:.1} h -> {:.0}x speedup",
        report.n_evals,
        report.surrogate_secs,
        report.replay_secs / 3600.0,
        report.speedup,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = parse(&["TPC-C", "optimzer=tpe"]).err().expect("typo must fail");
        assert!(err.starts_with("unknown option `optimzer=`"), "{err}");
    }

    #[test]
    fn zero_sizes_are_rejected_before_any_work() {
        for key in POSITIVE_OPTS {
            let err = parse(&["TPC-C", &format!("{key}=0")]).err().expect("zero must fail");
            assert_eq!(err, format!("{key}=0: must be at least 1"));
        }
        // Through the command dispatcher too: parsing fails before the
        // subcommand collects a pool or runs a session.
        for cmd in [
            &["tune", "TPC-C", "iters=0", "pin=sync_binlog"][..],
            &["benchmark", "Smallbank", "iters=0"],
            &["tune", "TPC-C", "knobs=0"],
            &["rank", "TPC-C", "samples=0"],
            &["benchmark", "Smallbank", "samples=0"],
        ] {
            let raw: Vec<String> = cmd.iter().map(|s| s.to_string()).collect();
            let err = run(&raw).expect_err("zero size must fail");
            assert!(err.ends_with("=0: must be at least 1"), "{cmd:?}: {err}");
        }
        // A positive size still parses.
        assert!(parse(&["TPC-C", "iters=1", "knobs=1", "samples=1"]).is_ok());
    }

    #[test]
    fn defaults_parse() {
        let args = parse(&["TPC-C"]).expect("a bare workload parses");
        assert_eq!(args.workload(), Ok(Workload::Tpcc));
        assert_eq!(args.hardware(), Ok(Hardware::B));
        assert_eq!(args.measure(), Ok(MeasureKind::Shap));
        assert_eq!(args.optimizer(), Ok(OptimizerKind::Smac));
        assert_eq!(args.usize_opt("samples", 500), Ok(500));
        assert_eq!(args.usize_opt("knobs", 10), Ok(10));
        assert_eq!(args.pinned_knobs(&KnobCatalog::mysql57()), Ok(None));
        let cfg = args.session_config().expect("default session config");
        assert_eq!((cfg.iterations, cfg.lhs_init, cfg.seed), (100, 10, 42));
        assert_eq!(cfg.failure_policy, FailurePolicy::WorstSeen);
    }

    #[test]
    fn malformed_values_are_rejected() {
        let args = parse(&["TPCC-X", "iters=ten", "seed=-1", "hardware=E", "measure=shapley"])
            .expect("values are checked by the subcommand's accessors");
        assert!(args.workload().is_err_and(|e| e.starts_with("unknown workload `TPCC-X`")));
        assert_eq!(args.session_config().err(), Some("iters=ten: not an integer".into()));
        assert_eq!(args.u64_opt("seed", 42), Err("seed=-1: not an integer".into()));
        assert_eq!(args.hardware(), Err("hardware=E: expected A|B|C|D".into()));
        assert!(args.measure().is_err_and(|e| e.starts_with("measure=shapley:")));
        let args = parse(&["tpcc", "optimizer=bayes", "policy=retry", "pin=sync_binlog,nope"])
            .expect("parses");
        assert_eq!(args.workload(), Ok(Workload::Tpcc), "names match case- and dash-blind");
        assert_eq!(args.optimizer(), Err("optimizer=bayes: unknown optimizer".into()));
        assert_eq!(args.failure_policy(), Err("policy=retry: expected worst|discard".into()));
        assert_eq!(
            args.pinned_knobs(&KnobCatalog::mysql57()),
            Err("pin: unknown knob `nope`".into())
        );
        let err = run(&["rebuild".to_string()]).expect_err("unknown command");
        assert!(err.starts_with("unknown command `rebuild`"), "{err}");
    }

    #[test]
    fn duplicate_pins_are_rejected_before_any_work() {
        let catalog = KnobCatalog::mysql57();
        for pin in
            ["pin=sync_binlog,sync_binlog", "pin=sync_binlog,innodb_buffer_pool_size,sync_binlog"]
        {
            let args = parse(&["TPC-C", pin]).expect("parses");
            assert_eq!(
                args.pinned_knobs(&catalog),
                Err("pin: duplicate knob `sync_binlog`".into())
            );
        }
        // `tune` resolves its pins before it runs or records anything.
        let history = std::env::temp_dir().join("dbtune-duplicate-pin-history.json");
        let _ = std::fs::remove_file(&history);
        let raw: Vec<String> = [
            "tune",
            "TPC-C",
            "pin=sync_binlog,sync_binlog",
            "iters=4",
            "init=2",
            &format!("history={}", history.display()),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run(&raw), Err("pin: duplicate knob `sync_binlog`".into()));
        assert!(!history.exists(), "a rejected command must not write its history file");
        let args = parse(&["TPC-C", "pin=sync_binlog,innodb_buffer_pool_size"]).expect("parses");
        assert_eq!(args.pinned_knobs(&catalog).map(|p| p.map(|p| p.len())), Ok(Some(2)));
    }
}
