//! Plans a training run: given a model and a target cluster size, uses
//! the measured utilization curve and the critical-batch-size trade-off
//! (Eqs. 5–6) to report the predicted training time and cost per method —
//! the reasoning behind the paper's Figures 1 and 6.
//!
//! ```sh
//! cargo run --release --example tradeoff_planner [52b|6.6b] [n_gpus]
//! ```

use bfpp::analytic::tradeoff::TradeoffModel;
use bfpp::cluster::presets::dgx1_v100;
use bfpp::exec::search::{Method, SearchOptions};
use bfpp::model::presets::by_name;
use bfpp_bench::figures::{figure5_batches, figure5_sweep, operating_points};

fn main() {
    let model_name = std::env::args().nth(1).unwrap_or_else(|| "52b".into());
    let n_gpus: u32 = std::env::args()
        .nth(2)
        .map(|b| b.parse().expect("numeric cluster size"))
        .unwrap_or(4096);
    let model = by_name(&model_name).expect("model: 52b or 6.6b");
    let cluster = dgx1_v100(8);
    let tradeoff = if model_name.contains("52") {
        TradeoffModel::paper_52b(&model, cluster.node.gpu.peak_fp16_flops)
    } else {
        TradeoffModel::paper_6_6b(&model, cluster.node.gpu.peak_fp16_flops)
    };

    eprintln!("measuring utilization curves on the 64-GPU reference cluster...");
    let rows = figure5_sweep(
        &model,
        &cluster,
        &figure5_batches(&model_name, false),
        &SearchOptions::default(),
    );

    println!(
        "\npredicted full training of {} on {} V100s (B_crit = {:.0} samples):",
        model.name, n_gpus, tradeoff.b_crit_samples
    );
    for method in Method::ALL {
        let points = operating_points(&rows, cluster.num_gpus(), method);
        if points.is_empty() {
            continue;
        }
        if let Some(p) = tradeoff.frontier(&points, &[n_gpus]).first() {
            println!(
                "{:>14}: {:>7.1} days, {:>9.0} GPU-days (beta = {:.3}, batch = {:.0})",
                method.label(),
                p.time_days,
                p.cost_gpu_days,
                p.beta,
                p.global_batch
            );
        }
    }
}
