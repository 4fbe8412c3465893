//! The surrogate benchmark objective: a fitted random forest standing in
//! for the DBMS, behind the same [`SimObjective`] interface the live
//! simulator implements — optimizers cannot tell the difference, which is
//! the point.

use crate::collect::Dataset;
use dbtune_core::exec::{CacheKey, DeterministicObjective};
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{un_orient, EvalResult, SessionResult, SimObjective};
use dbtune_dbsim::{KnobCatalog, Objective, EVAL_SECONDS, RESTART_SECONDS};
use dbtune_ml::{RandomForest, RandomForestParams, Regressor};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// A cheap tuning benchmark built from offline samples (§8).
pub struct SurrogateBenchmark {
    space: TuningSpace,
    objective: Objective,
    model: RandomForest,
}

impl SurrogateBenchmark {
    /// Trains the benchmark surrogate (a random forest, the paper's
    /// Table 9 winner) on a collected dataset.
    pub fn train(space: TuningSpace, objective: Objective, ds: &Dataset, seed: u64) -> Self {
        assert!(!ds.is_empty(), "cannot train benchmark on empty dataset");
        let x: Vec<Vec<f64>> = ds.x.iter().map(|c| space.space().to_unit(c)).collect();
        let mut model = RandomForest::continuous(
            RandomForestParams { n_trees: 60, seed, ..Default::default() },
            space.dim(),
        );
        model.fit(&x, &ds.y);
        Self { space, objective, model }
    }

    /// The tuning space the benchmark serves.
    pub fn space(&self) -> &TuningSpace {
        &self.space
    }

    /// The surrogate's noise-free prediction for a full configuration, on
    /// the raw metric scale.
    fn predict(&self, full_cfg: &[f64]) -> f64 {
        let sub = self.space.project(full_cfg);
        let enc = self.space.space().to_unit(&sub);
        un_orient(self.objective, self.model.predict(&enc))
    }
}

/// Replay-vs-surrogate cost comparison (the paper reports 150–311×
/// end-to-end including optimizer overhead; this report covers the
/// evaluation side).
#[derive(Clone, Copy, Debug)]
pub struct SpeedupReport {
    /// Evaluations served.
    pub n_evals: usize,
    /// What the evaluations would have cost with workload replay.
    pub replay_secs: f64,
    /// What they actually cost on the surrogate, as measured.
    pub surrogate_secs: f64,
    /// Ratio of the two.
    pub speedup: f64,
}

impl SpeedupReport {
    /// `n_evals` surrogate evaluations that took `surrogate_secs` measured
    /// seconds, against the workload replay (stress test plus restart)
    /// each would have cost.
    pub fn new(n_evals: usize, surrogate_secs: f64) -> Self {
        let replay_secs = n_evals as f64 * (EVAL_SECONDS + RESTART_SECONDS);
        let speedup =
            if surrogate_secs > 0.0 { replay_secs / surrogate_secs } else { f64::INFINITY };
        Self { n_evals, replay_secs, surrogate_secs, speedup }
    }

    /// The report for tuning sessions run on the surrogate: their
    /// evaluations against the time the session loop measured for them
    /// (`PhaseTrace::evaluate_secs`).
    pub fn of_sessions<'a>(sessions: impl IntoIterator<Item = &'a SessionResult>) -> Self {
        let (n_evals, secs) = sessions.into_iter().fold((0, 0.0), |(n, secs), r| {
            (n + r.observations.len(), secs + r.phases.evaluate_secs.iter().sum::<f64>())
        });
        Self::new(n_evals, secs)
    }
}

/// Portable on-disk form of a trained benchmark: the §8 deliverable
/// ("the benchmark is publicly available"). Knobs are stored by *name* so
/// the artifact is robust to catalog reordering; the model is the full
/// fitted forest.
#[derive(Serialize, Deserialize)]
struct BenchmarkArtifact {
    objective: String,
    knob_names: Vec<String>,
    base: Vec<f64>,
    model: RandomForest,
}

impl SurrogateBenchmark {
    /// Persists the trained benchmark as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let artifact = BenchmarkArtifact {
            objective: match self.objective {
                Objective::Throughput => "throughput".to_string(),
                Objective::Latency95 => "latency95".to_string(),
            },
            knob_names: self.space.space().specs().iter().map(|s| s.name.to_string()).collect(),
            base: self.space.base().to_vec(),
            model: self.model.clone(),
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(io::BufWriter::new(file), &artifact)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Loads a benchmark saved by [`SurrogateBenchmark::save`], resolving
    /// knob names against the stock MySQL 5.7 catalog.
    pub fn load(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let artifact: BenchmarkArtifact = serde_json::from_reader(io::BufReader::new(file))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let catalog = KnobCatalog::mysql57();
        let selected: Vec<usize> = artifact
            .knob_names
            .iter()
            .map(|n| {
                catalog.index_of(n).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("unknown knob {n}"))
                })
            })
            .collect::<io::Result<_>>()?;
        let objective = match artifact.objective.as_str() {
            "throughput" => Objective::Throughput,
            "latency95" => Objective::Latency95,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown objective {other}"),
                ))
            }
        };
        let space = TuningSpace::new(&catalog, selected, artifact.base);
        Ok(Self { space, objective, model: artifact.model })
    }
}

/// A session on the bare benchmark evaluates exactly as one through the
/// executor's cache adapter: the forest's prediction, noise-free.
impl SimObjective for SurrogateBenchmark {
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult {
        self.evaluate_pure(full_cfg, 0)
    }

    fn objective(&self) -> Objective {
        self.objective
    }

    fn reference_value(&self, full_cfg: &[f64]) -> f64 {
        self.predict(full_cfg)
    }
}

/// The surrogate is already a pure function of the projected
/// configuration (a fitted forest), so it plugs straight into the
/// parallel executor's shared cache; the noise token is ignored. An
/// evaluation reports zero simulated cost: what it really costs is wall
/// time, which the session loop measures (see [`SpeedupReport`]).
impl DeterministicObjective for SurrogateBenchmark {
    fn domain_tag(&self) -> u64 {
        let obj = match self.objective {
            Objective::Throughput => "throughput",
            Objective::Latency95 => "latency95",
        };
        CacheKey::domain_tag(
            ["surrogate", obj].into_iter().chain(self.space.space().specs().iter().map(|s| s.name)),
        )
    }

    fn cache_key(&self, full_cfg: &[f64]) -> CacheKey {
        let sub = self.space.project(full_cfg);
        CacheKey::quantize(self.domain_tag(), self.space.space().specs(), &sub)
    }

    fn evaluate_pure(&self, full_cfg: &[f64], _noise_token: u64) -> EvalResult {
        EvalResult {
            value: self.predict(full_cfg),
            failed: false,
            // The paper notes benchmarking RL would additionally need a
            // state-transition surrogate (left as future work there too).
            metrics: Vec::new(),
            simulated_secs: 0.0,
        }
    }

    fn objective_kind(&self) -> Objective {
        self.objective
    }

    fn reference(&self, full_cfg: &[f64]) -> f64 {
        self.predict(full_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_samples;
    use dbtune_core::optimizer::OptimizerKind;
    use dbtune_core::tuner::{run_session, SessionConfig};
    use dbtune_dbsim::{DbSimulator, Hardware, Workload, METRICS_DIM};

    fn build_benchmark() -> SurrogateBenchmark {
        let mut sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 40);
        let cat = sim.catalog().clone();
        let selected = vec![
            cat.expect_index("innodb_flush_log_at_trx_commit"),
            cat.expect_index("sync_binlog"),
            cat.expect_index("innodb_log_file_size"),
            cat.expect_index("innodb_io_capacity"),
        ];
        let space = TuningSpace::with_default_base(&cat, selected, Hardware::B);
        let ds = collect_samples(&mut sim, &space, 150, 7);
        SurrogateBenchmark::train(space, Objective::Throughput, &ds, 1)
    }

    #[test]
    fn surrogate_agrees_with_simulator_on_ranking() {
        let mut bench = build_benchmark();
        let sim = DbSimulator::new(Workload::Tpcc, Hardware::B, 41);
        // A known-good and a known-poor configuration.
        let cat = sim.catalog();
        let mut good = bench.space().base().to_vec();
        good[cat.expect_index("innodb_flush_log_at_trx_commit")] = 0.0;
        good[cat.expect_index("sync_binlog")] = 0.0;
        good[cat.expect_index("innodb_log_file_size")] = 2048.0;
        good[cat.expect_index("innodb_io_capacity")] = 8000.0;
        let poor = bench.space().base().to_vec();

        let g = bench.evaluate(&good).value;
        let p = bench.evaluate(&poor).value;
        assert!(g > p, "surrogate must preserve the good>default ordering: {g} vs {p}");
        // And roughly agree with the simulator's magnitudes.
        let g_true = sim.expected_value(&good).expect("good config evaluates");
        assert!((g / g_true - 1.0).abs() < 0.35, "surrogate {g} vs simulator {g_true}");
    }

    #[test]
    fn tuning_on_surrogate_reproduces_optimizer_behaviour() {
        let mut bench = build_benchmark();
        let space = bench.space().clone();
        let mut opt = OptimizerKind::Smac.build(space.space(), METRICS_DIM, 3);
        let result = run_session(
            &mut bench,
            &space,
            &mut opt,
            &SessionConfig { iterations: 40, lhs_init: 10, seed: 9, ..Default::default() },
        );
        assert!(result.best_improvement() > 0.1, "improvement {}", result.best_improvement());
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let mut bench = build_benchmark();
        let dir = std::env::temp_dir().join("dbtune_bench_artifact");
        let path = dir.join("benchmark.json");
        bench.save(&path).expect("save");
        let mut loaded = SurrogateBenchmark::load(&path).expect("load");
        // Identical predictions on a probe configuration.
        let cfg = bench.space().base().to_vec();
        let a = bench.evaluate(&cfg).value;
        let b = loaded.evaluate(&cfg).value;
        assert_eq!(a, b, "loaded benchmark diverges: {a} vs {b}");
        assert_eq!(loaded.objective(), Objective::Throughput);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pure_evaluation_matches_live_evaluation() {
        let mut bench = build_benchmark();
        let cfg = bench.space().base().to_vec();
        let live = bench.evaluate(&cfg).value;
        let pure = bench.evaluate_pure(&cfg, 123).value;
        assert_eq!(live.to_bits(), pure.to_bits(), "surrogate must be noise-free");
        // Configurations differing only outside the subspace share a key.
        let cat = dbtune_dbsim::KnobCatalog::mysql57();
        let mut other = cfg.clone();
        other[cat.expect_index("innodb_lru_scan_depth")] = 4000.0;
        assert!(!bench.space().space().specs().iter().any(|s| s.name == "innodb_lru_scan_depth"));
        assert_eq!(bench.cache_key(&cfg), bench.cache_key(&other));
    }

    #[test]
    fn speedup_ledger_reports_large_factor() {
        let mut bench = build_benchmark();
        let space = bench.space().clone();
        let session = SessionConfig { iterations: 50, lhs_init: 10, seed: 9, ..Default::default() };
        let mut opt = OptimizerKind::Random.build(space.space(), METRICS_DIM, 3);
        let result = run_session(&mut bench, &space, &mut opt, &session);
        assert_eq!(result.simulated_secs, 0.0, "surrogate evaluations simulate no replay");
        let report = SpeedupReport::of_sessions([&result, &result]);
        assert_eq!(report.n_evals, 100);
        assert_eq!(report.replay_secs, 100.0 * (EVAL_SECONDS + RESTART_SECONDS));
        assert!(report.speedup > 100.0, "speedup {}", report.speedup);
        let fixed = SpeedupReport::new(4, 2.0);
        assert_eq!(fixed.speedup, 2.0 * (EVAL_SECONDS + RESTART_SECONDS));
        assert_eq!(SpeedupReport::new(3, 0.0).speedup, f64::INFINITY);
    }
}
