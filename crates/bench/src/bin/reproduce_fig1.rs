//! Reproduces Figure 1: predicted training time and memory usage for the
//! 52 B model on a cluster of 4096 V100 GPUs, per method.

use bfpp_analytic::tradeoff::TradeoffModel;
use bfpp_bench::figures::{figure1, figure5_batches, figure5_sweep};
use bfpp_bench::BenchArgs;

fn main() {
    let model = bfpp_model::presets::bert_52b();
    let cluster = bfpp_cluster::presets::dgx1_v100(8);
    let tradeoff = TradeoffModel::paper_52b(&model, cluster.node.gpu.peak_fp16_flops);
    let batches = figure5_batches("52b", false);
    let rows = figure5_sweep(
        &model,
        &cluster,
        &batches,
        &BenchArgs::from_env().search_options(),
    );
    println!("# Figure 1 — 52 B model on 4096 V100s: predicted time, cost and memory");
    print!(
        "{}",
        figure1(&rows, cluster.num_gpus(), &tradeoff).to_text()
    );
}
