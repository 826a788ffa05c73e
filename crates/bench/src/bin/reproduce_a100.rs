//! The paper's conclusion asks for an evaluation "on bigger models and
//! with more modern hardware such as NVIDIA A100": this driver projects
//! the Figure 5 sweep onto an A100 cluster (same methodology, A100
//! kernel calibration and link tiers) for GPT-3.

use bfpp_bench::figures::{figure5_sweep, figure5_table};
use bfpp_bench::BenchArgs;

fn main() {
    let model = bfpp_model::presets::gpt3();
    let cluster = bfpp_cluster::presets::dgx_a100_80gb(8);
    let batches: Vec<u64> = vec![8, 16, 32, 64, 128, 256, 512];
    eprintln!(
        "projecting {} on {} ({} GPUs)...",
        model.name,
        cluster.name,
        cluster.num_gpus()
    );
    let rows = figure5_sweep(
        &model,
        &cluster,
        &batches,
        &BenchArgs::from_env().search_options(),
    );
    println!("# A100 projection — GPT-3 on 64 A100-80GB (conclusion's next step)");
    print!("{}", figure5_table(&rows, cluster.num_gpus()).to_csv());
}
