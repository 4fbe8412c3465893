//! OLAP (latency-objective) tuning on the Join Order Benchmark, comparing
//! vanilla BO against mixed-kernel BO on a *heterogeneous* knob set —
//! the §6.2.2 experiment as a runnable example.
//!
//! ```sh
//! cargo run --release --example tune_olap
//! ```

use dbtune::prelude::*;

fn run(kind: OptimizerKind, selected: &[usize], seed: u64) -> SessionResult {
    let mut sim = DbSimulator::new(Workload::Job, Hardware::B, seed);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, selected.to_vec(), Hardware::B);
    let mut opt = kind.build(space.space(), METRICS_DIM, seed);
    run_session(
        &mut sim,
        &space,
        &mut opt,
        &SessionConfig { iterations: 100, lhs_init: 10, seed, ..Default::default() },
    )
}

fn main() {
    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();

    // A heterogeneous space: categorical engine switches plus the integer
    // knobs that drive JOB's scan/join path.
    let selected: Vec<usize> = [
        // categorical
        "innodb_flush_method",
        "innodb_adaptive_hash_index",
        "query_cache_type",
        "innodb_change_buffering",
        "innodb_flush_neighbors",
        // integer
        "innodb_buffer_pool_size",
        "join_buffer_size",
        "sort_buffer_size",
        "read_rnd_buffer_size",
        "tmp_table_size",
        "innodb_stats_persistent_sample_pages",
        "optimizer_search_depth",
        "innodb_read_io_threads",
        "query_cache_size",
        "read_buffer_size",
    ]
    .iter()
    .map(|n| catalog.expect_index(n))
    .collect();

    println!("tuning JOB 95th-percentile latency over a 15-knob heterogeneous space\n");
    for kind in [OptimizerKind::VanillaBo, OptimizerKind::MixedKernelBo] {
        let r = run(kind, &selected, 21);
        println!(
            "{:<16}: default {:.1}s -> best {:.1}s ({:+.1}% latency reduction, found at iter {})",
            kind.label(),
            r.default_value,
            r.best_value(),
            r.best_improvement() * 100.0,
            r.iterations_to_best()
        );
        assert_eq!(r.objective, Objective::Latency95);
        assert!(r.best_value() <= r.default_value, "latency must not regress");
    }

    println!(
        "\nThe Hamming kernel treats `innodb_flush_method` options as unordered\n\
         identities; the RBF ordinal encoding pretends fsync < O_DSYNC < O_DIRECT.\n\
         The paper credits this for mixed-kernel BO's faster convergence on\n\
         heterogeneous spaces; one seed on one space, as here, can go either way."
    );
}
