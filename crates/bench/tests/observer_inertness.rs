//! Observer inertness: every instrument observes, none perturbs.
//!
//! Three observers can watch a tuning run — the trace journal
//! (`trace=`), the memory profiler (`mem=on`) and the diag recorder
//! (`diag=on`). Tuning results must come out byte-identical with any of
//! them on or off, at every worker count, and what they record must be
//! well-formed. The memprof and diag latches are one-way and
//! process-global, so the suite checks inertness from two sides:
//!
//! * **Cross-process** — `fig9_overhead` runs as a child process with
//!   observers off, all on, and each latch alone, at workers 1/2/8,
//!   and once more under fault injection. Each set of runs happens once,
//!   on first use, and several tests read it: one per claim, so a
//!   failure names the observer or the journal property that broke. The
//!   all-on journals are checked line by line and structurally.
//! * **In-process** — one test runs the quality matrix and the perf
//!   matrix unlatched, latches diag and memprof, and runs them again.
//!   Every run must reproduce the unlatched trajectories, the committed
//!   `BENCH_quality.json` results and the pinned perf results. Because
//!   the latches cannot be undone, that sequence is a single `#[test]`,
//!   and no other test in this binary may tune in-process.

mod common;

use common::{run_fig9, scratch};
use dbtune_bench::artifact::{load_journal, load_json_file, lookup};
use dbtune_bench::{quality, run_tuning_grid, GridOpts, TuningCell};
use dbtune_core::exec::CacheStats;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::telemetry::{self, TraceEvent, SCHEMA_VERSION};
use dbtune_dbsim::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;
use std::sync::LazyLock;

/// The `fig9_overhead` flags that switch every observer on, journaling
/// into `journal`.
fn all_observers(journal: &Path) -> Vec<String> {
    vec![format!("trace={}", journal.display()), "mem=on".into(), "diag=on".into()]
}

/// The canonical `"results"` of every fault-free `fig9_overhead` run,
/// and the journal of the all-on run at workers=2.
struct Fig9Runs {
    /// Observers off at workers=1: what every other run must equal.
    reference: String,
    /// Observers off, per worker count.
    off: Vec<(usize, String)>,
    /// Journal, memprof and diag all on, per worker count.
    all_on: Vec<(usize, String)>,
    /// The journal alone, at workers=2.
    journal_only: String,
    /// memprof alone, at workers=2.
    memprof_only: String,
    /// Text of the all-on journal taken at workers=2.
    all_on_journal: String,
}

/// The nine fault-free runs, made once on first use. A failed run
/// poisons the lock, so every reader fails instead of re-running them.
static FIG9: LazyLock<Fig9Runs> = LazyLock::new(|| {
    let dir = scratch("inertness_fig9");
    let reference = run_fig9(&dir, 1, &[]);
    let (mut off, mut all_on) = (Vec::new(), Vec::new());
    for workers in [1usize, 2, 8] {
        off.push((workers, run_fig9(&dir, workers, &[])));
        let journal = dir.join(format!("all_on_w{workers}.jsonl"));
        all_on.push((workers, run_fig9(&dir, workers, &all_observers(&journal))));
    }
    let journal_only =
        run_fig9(&dir, 2, &[format!("trace={}", dir.join("journal_only.jsonl").display())]);
    let memprof_only = run_fig9(&dir, 2, &["mem=on".to_string()]);
    let all_on_journal =
        std::fs::read_to_string(dir.join("all_on_w2.jsonl")).expect("journal written");
    let _ = std::fs::remove_dir_all(&dir);
    Fig9Runs { reference, off, all_on, journal_only, memprof_only, all_on_journal }
});

#[test]
fn fig9_results_are_identical_across_worker_counts_with_observers_off() {
    let runs = &*FIG9;
    for (workers, off) in &runs.off {
        assert_eq!(&runs.reference, off, "observers off: results drifted at workers={workers}");
    }
}

#[test]
fn fig9_results_are_identical_with_all_observers_on() {
    let runs = &*FIG9;
    for (workers, on) in &runs.all_on {
        assert_eq!(&runs.reference, on, "all observers on changed the results (workers={workers})");
    }
}

#[test]
fn fig9_results_are_identical_with_the_journal_alone() {
    let runs = &*FIG9;
    assert_eq!(runs.reference, runs.journal_only, "the journal alone changed the results");
}

#[test]
fn fig9_results_are_identical_with_memprof_alone() {
    let runs = &*FIG9;
    assert_eq!(runs.reference, runs.memprof_only, "memprof alone changed the results");
}

#[test]
fn journal_lines_all_parse_against_the_schema() {
    let text = &FIG9.all_on_journal;
    let mut kinds = BTreeSet::new();
    let mut last_seq = 0u64;
    for (idx, line) in text.lines().enumerate() {
        let event = TraceEvent::parse_line(line)
            .unwrap_or_else(|e| panic!("journal line {}: {e}\n  {line}", idx + 1));
        // Serialization must reproduce the line exactly (stable field
        // order is part of the schema).
        assert_eq!(event.to_jsonl(), line, "line {} does not round-trip", idx + 1);
        match (&event, idx) {
            (TraceEvent::Meta { version, source }, 0) => {
                assert_eq!(*version, SCHEMA_VERSION);
                assert_eq!(source, "fig9_overhead");
            }
            (TraceEvent::Meta { .. }, _) => panic!("line {}: meta after the first line", idx + 1),
            (_, 0) => panic!("first line must be meta: {line}"),
            _ => {
                assert!(event.seq() > last_seq, "line {}: seq not strictly increasing", idx + 1);
                last_seq = event.seq();
            }
        }
        kinds.insert(event.kind());
    }
    for kind in ["meta", "span", "counter"] {
        assert!(kinds.contains(kind), "journal has no '{kind}' events; kinds seen: {kinds:?}");
    }
}

#[test]
fn profiled_journal_carries_sound_mem_events() {
    let journal = dbtune_trace::load_journal_str(&FIG9.all_on_journal).expect("journal loads");
    let violations = dbtune_trace::check_structure(&journal.events);
    assert!(violations.is_empty(), "journal has structural violations: {violations:?}");

    // memprof was latched before the first span opened, so every span
    // close carries its allocations (check_structure above holds them
    // to self <= total), and a span is one record.
    let mut spans = 0u64;
    for jl in &journal.events {
        if let TraceEvent::Span { name, mem, .. } = &jl.event {
            spans += 1;
            assert!(mem.is_some(), "line {}: span '{name}' has no allocations", jl.line);
        }
    }
    assert!(spans > 0, "mem=on journal has no span events");
    assert!(!FIG9.all_on_journal.contains("\"type\":\"mem\""), "no separate mem records");
}

#[test]
fn every_exec_cell_span_nests_in_an_exec_worker_span_and_matches_the_cell_count() {
    // A worker's idle time is read as its `exec.worker` span's self time,
    // which holds only if every cell it ran is a direct child span.
    let journal = dbtune_trace::load_journal_str(&FIG9.all_on_journal).expect("journal loads");
    let mut names = BTreeMap::new();
    for jl in &journal.events {
        if let TraceEvent::Span { name, id, thread, .. } = &jl.event {
            names.insert((*thread, *id), name.as_str());
        }
    }
    let mut cells = 0u64;
    for jl in &journal.events {
        let TraceEvent::Span { name, parent_id, thread, .. } = &jl.event else { continue };
        if name == "exec.cell" {
            cells += 1;
            let parent = parent_id.and_then(|p| names.get(&(*thread, p)).copied());
            assert_eq!(parent, Some("exec.worker"), "line {}: exec.cell's parent", jl.line);
        }
    }
    let counted = dbtune_trace::summarize(&journal).counters.get("exec.cells").copied();
    assert!(cells > 0, "the journal has no exec.cell spans");
    assert_eq!(Some(cells), counted, "one exec.cell span per counted cell");
}

#[test]
fn trace_validate_accepts_the_all_on_journal() {
    let dir = scratch("inertness_validate");
    let path = dir.join("all_on_w2.jsonl");
    std::fs::write(&path, &FIG9.all_on_journal).expect("write journal");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_validate"))
        .arg(&path)
        .output()
        .expect("spawn trace_validate");
    assert!(
        out.status.success(),
        "trace_validate rejected the journal:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `fig9_overhead` pair at workers=2 under fault injection: the
/// `"results"` with observers off and all on, and the all-on journal.
struct FaultRuns {
    off: String,
    on: String,
    journal: String,
}

static FAULTS: LazyLock<FaultRuns> = LazyLock::new(|| {
    let dir = scratch("inertness_faults");
    let faults = ["faults=seed:11,timeout:0.2,crash:0.1".to_string(), "retries=off".to_string()];
    let off = run_fig9(&dir, 2, &faults);
    let path = dir.join("all_on.jsonl");
    let on = run_fig9(&dir, 2, &[&faults[..], &all_observers(&path)].concat());
    let journal = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_dir_all(&dir);
    FaultRuns { off, on, journal }
});

#[test]
fn fig9_results_are_identical_with_observers_on_and_off_under_faults() {
    let runs = &*FAULTS;
    assert_eq!(runs.off, runs.on, "all observers on changed the results under fault injection");
}

#[test]
fn diag_fault_records_match_the_retry_exhausted_counter() {
    // With retries off every injected timeout or crash exhausts its one
    // attempt, and the session loop records that evaluation as a fault.
    let journal = dbtune_trace::load_journal_str(&FAULTS.journal).expect("journal loads");
    let faults_recorded = journal
        .events
        .iter()
        .filter(|l| matches!(&l.event, TraceEvent::Diag { outcome, .. } if outcome == "fault"))
        .count() as u64;
    let exhausted = dbtune_trace::summarize(&journal).counters.get("exec.retry_exhausted").copied();
    assert!(faults_recorded > 0, "no diag record has outcome 'fault'");
    assert_eq!(
        Some(faults_recorded),
        exhausted,
        "diag 'fault' records must match the exec.retry_exhausted counter"
    );
}

/// The perf matrix: four cells that between them exercise the GP, the
/// random forest, TPE's density models and GA on three workload models,
/// each on the first 12 catalog knobs at seed 42 for 60 iterations, with
/// the shared cache on. Each cell carries the bit pattern of its pinned
/// `best_improvement`.
const PERF_MATRIX: [(Workload, OptimizerKind, u64); 4] = [
    (Workload::Job, OptimizerKind::VanillaBo, 0x3fc3_522d_9f5c_3743), // 0.15094538003216415
    (Workload::Job, OptimizerKind::Smac, 0x3fc8_523d_df70_7600),      // 0.19000981721994492
    (Workload::Sysbench, OptimizerKind::Tpe, 0x3fc9_8aef_1089_9d29),  // 0.19955242450235147
    (Workload::Tpcc, OptimizerKind::Ga, 0x3fe0_f874_4838_7487),       // 0.5303288851315678
];
const PERF_KNOBS: usize = 12;
const PERF_SEED: u64 = 42;
const PERF_ITERS: usize = 60;

/// Work counts of the perf matrix at workers=1. With more workers,
/// concurrent sessions can race the shared cache and both compute a
/// missing entry, so only the single-worker counts are exact.
const PERF_CACHE: CacheStats = CacheStats { hits: 14, misses: 226, entries: 226 };
const PERF_SIM_EVALS: u64 = 226;
const PERF_SIM_CRASHES: u64 = 26;

fn grid_opts(workers: usize, noise_seed: u64) -> GridOpts {
    GridOpts {
        workers,
        cache: true,
        noise_seed,
        faults: dbtune_dbsim::FaultPlan::disabled(),
        retry: dbtune_core::RetryPolicy::none(),
    }
}

/// Runs the perf matrix and checks it against its pins: the
/// `best_improvement` bits at any worker count, and the work counts at
/// workers=1.
fn check_perf_matrix(workers: usize, phase: &str) {
    let cells: Vec<TuningCell> = PERF_MATRIX
        .iter()
        .map(|&(workload, opt_kind, _)| TuningCell {
            workload,
            selected: (0..PERF_KNOBS).collect(),
            opt_kind,
            iters: PERF_ITERS,
            seed: PERF_SEED,
        })
        .collect();
    let metrics = &telemetry::global().metrics;
    let (evals0, crashes0) =
        (metrics.counter("sim.evals").get(), metrics.counter("sim.crashes").get());
    let (results, exec) = run_tuning_grid(&cells, &grid_opts(workers, PERF_SEED));
    for (&(workload, opt_kind, bits), result) in PERF_MATRIX.iter().zip(&results) {
        let got = result.best_improvement();
        assert_eq!(
            bits,
            got.to_bits(),
            "{phase}, workers={workers}, {}/{}: best_improvement drifted from its pin \
             ({} vs {got})",
            workload.name(),
            opt_kind.label(),
            f64::from_bits(bits),
        );
    }
    if workers == 1 {
        assert_eq!(exec.cache, PERF_CACHE, "{phase}: cache counters drifted");
        let evals = metrics.counter("sim.evals").get() - evals0;
        let crashes = metrics.counter("sim.crashes").get() - crashes0;
        assert_eq!((evals, crashes), (PERF_SIM_EVALS, PERF_SIM_CRASHES), "{phase}: sim counts");
    }
}

/// One quality-matrix run; returns every session's score trace as bit
/// patterns (strict byte-identity, not tolerance comparison).
fn run_quality(workers: usize, journal: Option<&Path>) -> Vec<Vec<u64>> {
    let tele = telemetry::global();
    if let Some(path) = journal {
        tele.enable_journal(path, "observer_inertness").expect("journal opens");
    }
    let cells = quality::quality_cells(quality::DEFAULT_ITERS);
    let (results, _) = run_tuning_grid(&cells, &grid_opts(workers, quality::SEED));
    if journal.is_some() {
        tele.journal.flush();
        tele.journal.disable();
    }
    results.iter().map(|r| r.best_score_trace.iter().map(|v| v.to_bits()).collect()).collect()
}

fn fold_quality(journal_path: &Path) -> String {
    let journal = load_journal(journal_path).expect("journal loads");
    let results = quality::results_value(&journal).expect("journal folds into results");
    serde_json::to_string(&results).expect("results serialize")
}

#[test]
fn in_process_matrices_reproduce_their_pins_with_diag_and_memprof_latched() {
    // Unlatched: the quality reference and the perf pins. These must
    // come first — the latches below stay on for the process.
    let reference = run_quality(1, None);
    for workers in [1usize, 2, 8] {
        check_perf_matrix(workers, "unlatched");
    }

    // Latched: the quality matrix reproduces the reference at every
    // worker count, and its journals fold to the committed results.
    let tele = telemetry::global();
    tele.enable_diag();
    tele.enable_memprof();
    let dir = scratch("inertness_quality");
    let mut folded = Vec::new();
    for workers in [1usize, 2, 8] {
        let path = dir.join(format!("quality_w{workers}.jsonl"));
        let traces = run_quality(workers, Some(&path));
        assert_eq!(
            traces, reference,
            "workers={workers}: latching diag and memprof changed results"
        );
        folded.push(fold_quality(&path));
    }
    assert_eq!(folded[0], folded[1], "workers=1 vs 2: folded results differ");
    assert_eq!(folded[0], folded[2], "workers=1 vs 8: folded results differ");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_quality.json");
    let baseline = load_json_file(&committed).expect("committed BENCH_quality.json loads");
    let baseline_results = lookup(&baseline, "results").expect("baseline has results");
    assert_eq!(
        folded[0],
        serde_json::to_string(baseline_results).expect("baseline results serialize"),
        "freshly folded quality results differ from committed BENCH_quality.json — \
         intended optimizer changes must regenerate the baseline in the same commit \
         (cargo run --release --bin quality_baseline)"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Still latched: the perf pins hold, and the profiler saw the run.
    check_perf_matrix(1, "latched");
    let stats = dbtune_obs::memprof::global_stats();
    assert!(stats.alloc_count > 0, "latched run recorded no allocations");
    assert!(stats.peak_bytes >= stats.live_bytes, "peak below live in snapshot");
}
