//! Reproduces Figure 5: highest GPU utilization per method as a function
//! of batch size, on the 64-V100 cluster.
//!
//! Usage: `reproduce_fig5 [52b|6.6b] [--ethernet] [--threads N] [--trace out.json]
//! [--mem-trace mem.json]`
//!
//! With `--trace`, each method's best-utilization winner is re-lowered
//! and written as one Chrome-trace JSON document (`ui.perfetto.dev`).
//! With `--mem-trace`, the document additionally carries the per-device
//! memory counter tracks (stacked by buffer class) and PP/DP bandwidth
//! counters.

use bfpp_bench::figures::{
    figure5_batches, figure5_sweep, figure5_table, sweep_mem_trace, sweep_trace,
};
use bfpp_bench::{write_trace, BenchArgs};

fn main() {
    let args = BenchArgs::from_env();
    let model_name = args.positional_or("52b");
    let ethernet = args.flag("--ethernet");
    let model = bfpp_model::presets::by_name(&model_name)
        .unwrap_or_else(|| panic!("unknown model {model_name}; try 52b or 6.6b"));
    let cluster = if ethernet {
        bfpp_cluster::presets::dgx1_v100_ethernet(8)
    } else {
        bfpp_cluster::presets::dgx1_v100(8)
    };
    let batches = figure5_batches(&model_name, ethernet);
    let opts = args.search_options();
    eprintln!(
        "sweeping {} on {} over {:?}...",
        model.name, cluster.name, batches
    );
    let rows = figure5_sweep(&model, &cluster, &batches, &opts);
    let panel = if ethernet {
        "5c"
    } else if model_name.contains("52") {
        "5a"
    } else {
        "5b"
    };
    println!(
        "# Figure {panel} — best utilization vs batch size ({}, {})",
        model.name, cluster.name
    );
    print!("{}", figure5_table(&rows, cluster.num_gpus()).to_csv());
    if let Some(path) = args.trace() {
        write_trace(&path, &sweep_trace(&model, &cluster, &rows));
    }
    if let Some(path) = args.mem_trace() {
        write_trace(&path, &sweep_mem_trace(&model, &cluster, &rows));
    }
}
