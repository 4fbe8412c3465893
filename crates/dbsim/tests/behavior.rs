//! Behavioural tests of the response surface: the workload-dependent knob
//! sensitivities the knob-selection experiments rely on.

use dbtune_dbsim::{DbSimulator, Hardware, Workload};

/// Relative change of the noise-free metric when setting one knob,
/// in maximize orientation (positive = better).
fn gain(sim: &DbSimulator, knob: &str, value: f64) -> f64 {
    let i = sim.catalog().expect_index(knob);
    let mut cfg = sim.default_config().to_vec();
    cfg[i] = value;
    let v = sim.expected_value(&cfg).expect("no crash");
    let d = sim.expected_value(sim.default_config()).expect("no crash");
    match sim.objective() {
        dbtune_dbsim::Objective::Throughput => v / d - 1.0,
        dbtune_dbsim::Objective::Latency95 => d / v - 1.0,
    }
}

#[test]
fn durability_relaxation_scales_with_write_intensity() {
    // flush_log_at_trx_commit = 0 helps write-heavy workloads most.
    let tpcc = DbSimulator::new(Workload::Tpcc, Hardware::B, 1);
    let twitter = DbSimulator::new(Workload::Twitter, Hardware::B, 1);
    let job = DbSimulator::new(Workload::Job, Hardware::B, 1);
    let g_tpcc = gain(&tpcc, "innodb_flush_log_at_trx_commit", 0.0);
    let g_twitter = gain(&twitter, "innodb_flush_log_at_trx_commit", 0.0);
    let g_job = gain(&job, "innodb_flush_log_at_trx_commit", 0.0);
    assert!(g_tpcc > g_twitter, "TPC-C (92% writes) should gain more: {g_tpcc} vs {g_twitter}");
    assert!(g_twitter > g_job, "Twitter should gain more than read-only JOB");
    assert!(g_job < 0.02, "JOB barely writes: {g_job}");
}

#[test]
fn scan_buffers_matter_for_analytics_not_point_lookups() {
    let job = DbSimulator::new(Workload::Job, Hardware::B, 2);
    let tatp = DbSimulator::new(Workload::Tatp, Hardware::B, 2);
    let g_job = gain(&job, "sort_buffer_size", 16_384.0);
    let g_tatp = gain(&tatp, "sort_buffer_size", 16_384.0);
    assert!(g_job > 0.05, "JOB should benefit from big sort buffers: {g_job}");
    assert!(g_tatp < g_job / 2.0, "TATP point lookups barely sort: {g_tatp}");
}

#[test]
fn query_cache_helps_repeat_readers_and_hurts_writers() {
    let twitter = DbSimulator::new(Workload::Twitter, Hardware::B, 3);
    let voter = DbSimulator::new(Workload::Voter, Hardware::B, 3);
    let set_qc = |sim: &DbSimulator| {
        let t = sim.catalog().expect_index("query_cache_type");
        let s = sim.catalog().expect_index("query_cache_size");
        let mut cfg = sim.default_config().to_vec();
        cfg[t] = 1.0;
        cfg[s] = 512.0;
        let v = sim.expected_value(&cfg).expect("no crash");
        let d = sim.expected_value(sim.default_config()).expect("no crash");
        v / d - 1.0
    };
    assert!(set_qc(&twitter) > 0.02, "repeat-read Twitter should gain");
    assert!(set_qc(&voter) < 0.0, "pure-write Voter should lose");
}

#[test]
fn concurrency_peak_tracks_core_count() {
    // Find the best thread_concurrency per instance by scanning; the
    // optimum should grow with cores.
    let best_threads = |hw: Hardware| -> f64 {
        let sim = DbSimulator::new(Workload::Tpcc, hw, 4);
        let i = sim.catalog().expect_index("innodb_thread_concurrency");
        let mut best = (f64::NEG_INFINITY, 0.0);
        for t in (2..=256).step_by(2) {
            let mut cfg = sim.default_config().to_vec();
            cfg[i] = t as f64;
            let v = sim.expected_value(&cfg).expect("no crash");
            if v > best.0 {
                best = (v, t as f64);
            }
        }
        best.1
    };
    let a = best_threads(Hardware::A);
    let d = best_threads(Hardware::D);
    assert!(a < d, "optimal concurrency must grow with cores: A={a} D={d}");
    assert!((6.0..=16.0).contains(&a), "A (4 cores) optimum near 8: {a}");
    assert!((48.0..=128.0).contains(&d), "D (32 cores) optimum near 64: {d}");
}

#[test]
fn trap_knobs_have_zero_tunability_everywhere() {
    for wl in Workload::ALL {
        let sim = DbSimulator::new(wl, Hardware::B, 5);
        for (knob, probes) in [
            ("innodb_lru_scan_depth", vec![100.0, 16_384.0]),
            ("innodb_spin_wait_delay", vec![0.0, 200.0]),
            ("innodb_old_blocks_pct", vec![5.0, 95.0]),
        ] {
            for p in probes {
                let g = gain(&sim, knob, p);
                assert!(
                    g <= 1e-9,
                    "{}: moving trap {knob} to {p} should never help (got {g})",
                    wl.name()
                );
            }
        }
    }
}

#[test]
fn metrics_distinguish_configurations_not_just_workloads() {
    let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 6);
    let cfg_a = sim.default_config().to_vec();
    let mut cfg_b = cfg_a.clone();
    cfg_b[sim.catalog().expect_index("innodb_buffer_pool_size")] = 1024.0;
    cfg_b[sim.catalog().expect_index("innodb_thread_concurrency")] = 256.0;
    // One noise token for both, so only the configuration differs.
    let ma = sim.evaluate_seeded(&cfg_a, 6).metrics;
    let mb = sim.evaluate_seeded(&cfg_b, 6).metrics;
    let dist: f64 = ma.iter().zip(&mb).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    assert!(dist > 0.2, "metrics should respond to configuration changes: {dist}");
}

#[test]
fn swap_thrash_boundary_scales_with_instance_memory() {
    // The same buffer-pool size can be a thrashing overcommit on a small
    // instance and a harmless setting on a large one.
    let probe = |hw: Hardware, bp_mb: f64| -> f64 {
        let sim = DbSimulator::new(Workload::Seats, hw, 7);
        let i = sim.catalog().expect_index("innodb_buffer_pool_size");
        let mut cfg = sim.default_config().to_vec();
        cfg[i] = bp_mb;
        let v = sim.expected_value(&cfg).expect("below the OOM threshold");
        let d = sim.expected_value(sim.default_config()).expect("no crash");
        v / d
    };
    // 12 GB on an 8 GB instance: deep in the swap-thrash zone.
    assert!(probe(Hardware::A, 12_288.0) < 0.7, "A should thrash on a 12G pool");
    // 44 GB on a 64 GB instance: comfortably below the 85% boundary and
    // above D's default, so at worst a mild change.
    assert!(probe(Hardware::D, 45_056.0) > 0.9, "D should shrug off a 44G pool");
    // 62 GB on the same instance: past the boundary, clearly degraded.
    assert!(
        probe(Hardware::D, 63_488.0) < probe(Hardware::D, 45_056.0),
        "D must eventually thrash too"
    );
}
