#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Tables 4 & 5: workload profiles and hardware configurations, printed
//! from the simulator's own metadata, plus the default performance of
//! every workload (sanity anchor for all other experiments).
//!
//! Arguments: `workers= cache=on`. The per-workload default evaluations
//! run on the executor through the shared cache (one entry per
//! workload — distinct domains never collide).

use dbtune_bench::{print_exec_summary, print_table, save_json_with_exec, ExpArgs, GridOpts};
use dbtune_core::exec::{run_grid, CachedObjective};
use dbtune_core::tuner::SimObjective;
use dbtune_dbsim::{DbSimulator, Hardware, Objective, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Anchor {
    workload: String,
    objective: String,
    /// Noise-free default performance on instance B.
    expected_default: f64,
    /// One noise-bearing measurement of the same configuration (through
    /// the deterministic noise token, so reproducible).
    measured_default: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&[]);
    let opts = GridOpts::from_args("workloads_report", &args, 42);

    println!("== Table 4: Profile information for workloads ==");
    let rows: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| {
            let p = w.profile();
            vec![
                w.name().to_string(),
                format!("{:?}", p.class),
                if p.size_gb >= 0.01 {
                    format!("{:.1}G", p.size_gb)
                } else {
                    format!("{:.2}M", p.size_gb * 1024.0)
                },
                p.tables.to_string(),
                format!("{:.1}%", p.read_only_frac * 100.0),
            ]
        })
        .collect();
    print_table(&["Workload", "Class", "Size", "Tables", "Read-Only Txns"], &rows);

    println!("\n== Table 5: Hardware configurations for database instances ==");
    let rows: Vec<Vec<String>> = Hardware::ALL
        .iter()
        .map(|h| {
            vec![
                h.label().to_string(),
                format!("{} cores", h.cores()),
                format!("{}GB", h.ram_mb() / 1024.0),
            ]
        })
        .collect();
    print_table(&["Instance", "CPU", "RAM"], &rows);

    let cache = opts.make_cache();
    let anchors = run_grid(&Workload::ALL, opts.workers, |_, &w| {
        let sim = DbSimulator::new(w, Hardware::B, 0);
        let expected = sim.expected_value(sim.default_config()).expect("default must not crash");
        let objective = sim.objective();
        let default_cfg = sim.default_config().to_vec();
        let mut obj = CachedObjective::new(sim, cache.clone(), opts.noise_seed);
        let measured = obj.evaluate(&default_cfg).value;
        Anchor {
            workload: w.name().to_string(),
            objective: match objective {
                Objective::Throughput => "throughput".to_string(),
                Objective::Latency95 => "latency95".to_string(),
            },
            expected_default: expected,
            measured_default: measured,
        }
    });
    let exec = opts.report(cache.as_ref());

    println!("\n== Default performance on instance B (simulator anchor) ==");
    let rows: Vec<Vec<String>> = anchors
        .iter()
        .map(|a| {
            let unit = match a.objective.as_str() {
                "throughput" => format!("{:.0} tx/s", a.expected_default),
                _ => format!("{:.1} s (95th pct latency)", a.expected_default),
            };
            vec![a.workload.clone(), unit]
        })
        .collect();
    print_table(&["Workload", "Default performance"], &rows);

    print_exec_summary(&exec);
    save_json_with_exec("workloads_report", &anchors, &exec);
}
