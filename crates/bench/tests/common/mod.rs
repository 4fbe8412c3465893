//! Helpers shared by the integration suites that drive `fig9_overhead`
//! as a child process.

use dbtune_bench::artifact::lookup;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty scratch directory under the system temp dir. The tag
/// keeps concurrently running tests (and suites) out of each other's
/// way.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbtune_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `fig9_overhead samples=120 iters=6 cache=on workers=<workers>`
/// plus `extra` flags (`trace=…`, `mem=on`, `diag=on`, `faults=…`) in
/// `dir`, and returns the canonical serialization of its `"results"`
/// payload.
///
/// `fig9_overhead` keeps its wall-clock phase series in the
/// `"telemetry"` block, so its `"results"` payload must be byte-identical
/// under every observer and at every worker count.
pub fn run_fig9(dir: &Path, workers: usize, extra: &[String]) -> String {
    std::fs::create_dir_all(dir).expect("create driver cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_fig9_overhead"))
        .args(["samples=120", "iters=6", "cache=on"])
        .arg(format!("workers={workers}"))
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("spawn fig9_overhead");
    assert!(
        out.status.success(),
        "fig9_overhead failed (workers={workers}, {extra:?})\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stderr),
    );
    let text = std::fs::read_to_string(dir.join("results/fig9_overhead.json"))
        .expect("driver wrote results json");
    let value: Value = serde_json::from_str(&text).expect("valid JSON");
    let results = lookup(&value, "results").expect("top-level 'results'");
    serde_json::to_string(results).expect("serialize results")
}
