//! Reproduces Table E.2: selected optimal configurations, 6.6 B model.
//!
//! Usage: `reproduce_table_e2 [--threads N]`

use bfpp_bench::figures::{figure5_batches, figure5_sweep};
use bfpp_bench::tables::table_e;
use bfpp_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    let model = bfpp_model::presets::bert_6_6b();
    let cluster = bfpp_cluster::presets::dgx1_v100(8);
    let batches = figure5_batches("6.6b", false);
    let opts = args.search_options();
    let rows = figure5_sweep(&model, &cluster, &batches, &opts);
    println!("# Table E.2 — optimal configurations, 6.6 B model, 64 V100s");
    print!("{}", table_e(&rows).to_csv());
}
