//! Reproduces Figure 6: predicted cost/time trade-offs per method,
//! extrapolated from the Figure 5 sweeps over a range of cluster sizes.
//! The `memory_gib` column is regenerated from *event-level* per-device
//! peaks (each winner re-lowered, solved and profiled), not the
//! closed-form Eq. 10–14 estimate — the two reconcile byte-exactly.
//!
//! Usage: `reproduce_fig6 [52b|6.6b] [--threads N] [--trace out.json]
//! [--mem-trace mem.json]`
//!
//! With `--trace`, each method's best-utilization winner is re-lowered
//! and written as one Chrome-trace JSON document (`ui.perfetto.dev`).
//! With `--mem-trace`, the document additionally carries the per-device
//! memory counter tracks (stacked by buffer class) and PP/DP bandwidth
//! counters.

use bfpp_analytic::tradeoff::TradeoffModel;
use bfpp_bench::figures::{figure5_batches, figure5_sweep, figure6, sweep_mem_trace, sweep_trace};
use bfpp_bench::{write_trace, BenchArgs};

fn main() {
    let args = BenchArgs::from_env();
    let model_name = args.positional_or("52b");
    let model = bfpp_model::presets::by_name(&model_name)
        .unwrap_or_else(|| panic!("unknown model {model_name}"));
    let cluster = bfpp_cluster::presets::dgx1_v100(8);
    let peak = cluster.node.gpu.peak_fp16_flops;
    let tradeoff = if model_name.contains("52") {
        TradeoffModel::paper_52b(&model, peak)
    } else {
        TradeoffModel::paper_6_6b(&model, peak)
    };
    let batches = figure5_batches(&model_name, false);
    let rows = figure5_sweep(&model, &cluster, &batches, &args.search_options());
    let sizes: Vec<u32> = [256u32, 512, 1024, 2048, 4096, 8192, 16384, 32768]
        .into_iter()
        .collect();
    println!(
        "# Figure 6 — cost/time trade-off ({}), extrapolated from the 64-GPU sweep",
        model.name
    );
    print!(
        "{}",
        figure6(
            &model,
            &cluster,
            &rows,
            cluster.num_gpus(),
            &tradeoff,
            &sizes
        )
        .to_csv()
    );
    if let Some(path) = args.trace() {
        write_trace(&path, &sweep_trace(&model, &cluster, &rows));
    }
    if let Some(path) = args.mem_trace() {
        write_trace(&path, &sweep_mem_trace(&model, &cluster, &rows));
    }
}
