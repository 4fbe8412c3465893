//! Smoke test: every figure/table driver must run end-to-end at tiny
//! scale, exit zero, and write `results/<name>.json` with the uniform
//! `{"results": …, "exec": …, "telemetry": …}` shape the executor port
//! and telemetry layer established.
//!
//! Each binary gets its own scratch CWD under the system temp dir, so
//! result files never collide across (parallel) tests.

use dbtune_bench::artifact::lookup;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Flags every driver takes: two workers, cache on.
const GRID: &[&str] = &["workers=2", "cache=on"];

/// Runs one driver at a tiny but non-degenerate scale: `sizes` are the
/// size flags it declares (a driver rejects any flag it does not read).
fn run_smoke(exe: &str, json_name: &str, sizes: &[&str]) {
    let name = Path::new(exe).file_name().expect("exe name").to_string_lossy().to_string();
    let dir = std::env::temp_dir().join(format!("dbtune_smoke_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let out =
        Command::new(exe).args(sizes).args(GRID).current_dir(&dir).output().expect("spawn driver");
    assert!(
        out.status.success(),
        "{name} exited with {:?}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );

    let path = dir.join("results").join(format!("{json_name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} did not write {}: {e}", path.display()));
    let value: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} wrote invalid JSON: {e:?}"));

    lookup(&value, "results").unwrap_or_else(|| panic!("{name}: missing top-level 'results'"));
    let exec = lookup(&value, "exec").unwrap_or_else(|| panic!("{name}: missing top-level 'exec'"));
    for key in ["cache_enabled", "noise_seed"] {
        lookup(exec, key).unwrap_or_else(|| panic!("{name}: missing exec.{key}"));
    }
    let cache = lookup(exec, "cache").unwrap_or_else(|| panic!("{name}: missing exec.cache"));
    for key in ["hits", "misses", "entries"] {
        lookup(cache, key).unwrap_or_else(|| panic!("{name}: missing exec.cache.{key}"));
    }
    let tele = lookup(&value, "telemetry")
        .unwrap_or_else(|| panic!("{name}: missing top-level 'telemetry'"));
    for key in ["spans", "counters", "gauges", "histograms"] {
        lookup(tele, key).unwrap_or_else(|| panic!("{name}: missing telemetry.{key}"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

macro_rules! smoke {
    ($test:ident, $bin:literal, $json:literal, $sizes:expr) => {
        #[test]
        fn $test() {
            run_smoke(env!(concat!("CARGO_BIN_EXE_", $bin)), $json, $sizes);
        }
    };
}

/// Sessions of six iterations over 120-sample pools, on one seed.
const SESSIONS: &[&str] = &["samples=120", "iters=6", "seeds=1"];

smoke!(fig3_runs, "fig3_knob_importance", "fig3_table6", SESSIONS);
smoke!(fig4_runs, "fig4_sensitivity", "fig4_sensitivity", &["samples=120", "repeats=2"]);
smoke!(fig5_runs, "fig5_num_knobs", "fig5_num_knobs", SESSIONS);
smoke!(fig6_runs, "fig6_incremental", "fig6_incremental", SESSIONS);
smoke!(fig7_runs, "fig7_optimizers", "fig7_table7", SESSIONS);
smoke!(fig8_runs, "fig8_heterogeneity", "fig8_heterogeneity", SESSIONS);
smoke!(fig9_runs, "fig9_overhead", "fig9_overhead", &["samples=120", "iters=6"]);
smoke!(
    fig10_runs,
    "fig10_surrogate_bench",
    "fig10_surrogate_bench",
    &["samples=120", "iters=6", "runs=2"]
);
smoke!(ablations_runs, "ablations", "ablations", SESSIONS);
smoke!(
    table8_runs,
    "table8_transfer",
    "table8_transfer",
    &["samples=120", "iters=6", "pretrain=8"]
);
smoke!(table9_runs, "table9_surrogate_models", "table9_surrogates", &["samples=120", "folds=3"]);
smoke!(workloads_report_runs, "workloads_report", "workloads_report", &[]);
smoke!(fig11_runs, "fig11_resilience", "fig11_resilience", &["iters=6", "seeds=1"]);

/// Runs `exe` with `args` in an empty scratch directory `name`; returns
/// the exit code, stderr, and what the driver wrote there.
fn run_rejected(exe: &str, name: &str, args: &[&str]) -> (Option<i32>, String, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(exe).args(args).current_dir(&dir).output().expect("spawn driver");
    let written: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("entry").path())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), written)
}

/// A zero size is rejected before any work: the driver prints the CLI's
/// message, exits 1 without panicking, and writes nothing — not even
/// the observation pools it would collect first.
#[test]
fn zero_iterations_exit_before_any_work() {
    let (code, stderr, written) = run_rejected(
        env!("CARGO_BIN_EXE_fig7_optimizers"),
        "dbtune_smoke_zero_iters",
        &["samples=150", "iters=0", "seeds=1", "workers=1"],
    );
    assert_eq!(code, Some(1), "--- stderr ---\n{stderr}");
    assert_eq!(stderr.trim_end(), "error: iters=0: must be at least 1");
    assert!(written.is_empty(), "wrote {written:?}");
}

/// A flag the driver never reads is rejected before any work, like the
/// CLI's unknown options: a mistyped `workers=` must not run the default
/// 400 iterations on the default worker count and exit 0.
#[test]
fn unknown_flags_exit_before_any_work() {
    let (code, stderr, written) = run_rejected(
        env!("CARGO_BIN_EXE_fig9_overhead"),
        "dbtune_smoke_unknown_flag",
        &["samples=120", "iter=3", "workers=1"],
    );
    assert_eq!(code, Some(1), "--- stderr ---\n{stderr}");
    assert!(stderr.starts_with("error: unknown argument `iter=` (known: samples, iters, workers"));
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(written.is_empty(), "wrote {written:?}");
}
