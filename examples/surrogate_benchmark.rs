//! The §8 surrogate tuning benchmark as a runnable example: collect
//! offline samples once, train a random-forest stand-in for the DBMS, and
//! evaluate optimizers against it at a tiny fraction of the cost.
//!
//! ```sh
//! cargo run --release --example surrogate_benchmark
//! ```

use dbtune::prelude::*;

fn main() {
    let workload = Workload::Smallbank;
    let mut sim = DbSimulator::new(workload, Hardware::B, 33);
    let catalog = sim.catalog().clone();
    let selected: Vec<usize> = [
        "innodb_flush_log_at_trx_commit",
        "sync_binlog",
        "innodb_log_file_size",
        "innodb_io_capacity",
        "innodb_thread_concurrency",
        "innodb_doublewrite",
    ]
    .iter()
    .map(|n| catalog.expect_index(n))
    .collect();
    let space = TuningSpace::with_default_base(&catalog, selected, Hardware::B);

    // --- Offline: expensive one-time collection ------------------------
    println!("collecting 400 offline samples (LHS + optimizer-driven)…");
    let ds = collect_samples(&mut sim, &space, 400, 5);
    println!(
        "  would have cost {:.1} simulated hours of workload replay",
        SpeedupReport::new(ds.len(), 0.0).replay_secs / 3600.0
    );
    let mut bench = SurrogateBenchmark::train(space.clone(), Objective::Throughput, &ds, 1);

    // --- Online: cheap optimizer evaluation ----------------------------
    let mut sessions = Vec::new();
    for kind in [OptimizerKind::Smac, OptimizerKind::MixedKernelBo, OptimizerKind::Ga] {
        let mut opt = kind.build(space.space(), METRICS_DIM, 2);
        let r = run_session(
            &mut bench,
            &space,
            &mut opt,
            &SessionConfig { iterations: 100, lhs_init: 10, seed: 2, ..Default::default() },
        );
        println!(
            "  {:<16} best improvement on surrogate: {:+.1}%",
            kind.label(),
            r.best_improvement() * 100.0
        );
        sessions.push(r);
    }

    let report = SpeedupReport::of_sessions(&sessions);
    println!(
        "\n{} surrogate evaluations took {:.3}s of wall clock; workload replay\n\
         would have taken {:.1} hours -> {:.0}x speedup (the paper reports\n\
         150-311x end-to-end including optimizer overhead)",
        report.n_evals,
        report.surrogate_secs,
        report.replay_secs / 3600.0,
        report.speedup
    );
    assert!(report.speedup > 100.0);
}
