//! The `perfbench` command.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--observe journal|memprof] [--out DIR]
//! perfbench compare <dirA> <dirB> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints every metric as `name value unit`, writes one record to
//! `--out` (default `target/perfbench/runs`), and ends with one JSON line
//! holding `correct`, `attempted`, `failed` and `metrics`. It exits 1 when
//! the correctness gate fails and 2 on bad arguments.

use dbtune_core::telemetry;
use perfbench::report::{print_metrics, result_line, Record};
use perfbench::run::{run, Mode, Observer, RunConfig};
use perfbench::workloads::{Size, Workload, DEFAULT_SEED};
use perfbench::{compare, digest};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload gp_long|paper_grid|chaos_sweep|knob_service \
[--seed N] [--seconds S] [--trace 0|1] [--observe journal|memprof] [--out DIR]\n       \
perfbench compare <dirA> <dirB> [--benchmark BENCHMARK.json]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut mode = Mode::Run;
    let mut out = PathBuf::from("target/perfbench/runs");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => match (value.as_str(), mode) {
                ("0", _) => {}
                ("1", Mode::Run) => mode = Mode::Traced,
                ("1", _) => return Err("--trace 1 and --observe are exclusive".into()),
                _ => return Err(bad()),
            },
            "--observe" => match mode {
                Mode::Run => mode = Mode::Observe(Observer::parse(value)?),
                _ => return Err("--trace 1 and --observe are exclusive".into()),
            },
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig { workload, seed, seconds, size: Size::Full, mode, out })
}

fn main() -> ExitCode {
    // Observers stay off: an inherited DBTUNE_TRACE would open the journal
    // when the telemetry global first initializes.
    std::env::remove_var(telemetry::TRACE_ENV);
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]));
    }
    let cfg = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let name = cfg.workload.name();
    let outcome = run(&cfg, digest::expected(name, cfg.seed));
    print_metrics(&outcome.all);
    for problem in &outcome.problems {
        eprintln!("perfbench: {problem}");
    }
    eprintln!("perfbench: {name} seed {} digest {}", cfg.seed, digest::hex(outcome.digest));
    let record = Record {
        workload: name.to_string(),
        seed: cfg.seed,
        mode: cfg.mode.name(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.all.clone(),
    };
    if let Err(e) = record.write(&cfg.out) {
        eprintln!("perfbench: cannot write a record to {}: {e}", cfg.out.display());
    }
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.headline)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
