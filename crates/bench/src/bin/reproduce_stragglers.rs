//! Straggler-sensitivity experiment: utilization vs straggler severity
//! for the four pipeline schedules, with one mid-pipeline device slowed
//! by a deterministic multiplicative perturbation.
//!
//! Prints each schedule's degradation curve (throughput, utilization and
//! retention vs its own fault-free baseline) and names the schedule that
//! degrades most gracefully.
//!
//! Usage: `reproduce_stragglers [--trace out.json] [--mem-trace mem.json]`
//!
//! With `--trace`, the *perturbed* timelines at the worst severity are
//! written as one Chrome-trace JSON document, so the straggler's
//! inflated ops and the downstream waits they cause are visible in
//! `ui.perfetto.dev`. With `--mem-trace`, the document additionally
//! carries the memory and bandwidth counter tracks — peak memory is
//! invariant under the straggler, but the instant of peak shifts.

use bfpp_bench::robustness::{
    most_graceful, robustness_table, straggler_mem_trace, straggler_sweep, straggler_trace,
    SEVERITIES, STRAGGLER_DEVICE,
};
use bfpp_bench::{write_trace, BenchArgs};
use bfpp_cluster::presets::dgx1_v100;
use bfpp_model::presets::bert_52b;

fn main() {
    let args = BenchArgs::from_env();
    let model = bert_52b();
    let cluster = dgx1_v100(8);
    println!(
        "# Straggler sensitivity — {} on {}, device {} slowed by each multiplier",
        model.name, cluster.name, STRAGGLER_DEVICE
    );
    let rows = straggler_sweep(&model, &cluster, &SEVERITIES);
    let t = robustness_table(&rows);
    print!("{}", t.to_text());
    println!();
    println!("csv:");
    print!("{}", t.to_csv());
    if let Some((kind, worst)) = most_graceful(&rows) {
        println!();
        println!(
            "most graceful schedule: {kind} (worst-case retention {:.1}%)",
            worst * 100.0
        );
    }
    let worst = SEVERITIES[SEVERITIES.len() - 1];
    if let Some(path) = args.trace() {
        write_trace(&path, &straggler_trace(&model, &cluster, worst));
    }
    if let Some(path) = args.mem_trace() {
        write_trace(&path, &straggler_mem_trace(&model, &cluster, worst));
    }
}
