//! Reproduces Table E.3: selected optimal configurations, 6.6 B model on
//! the Ethernet (InfiniBand-disabled) cluster.
//!
//! Usage: `reproduce_table_e3 [--threads N]`

use bfpp_bench::figures::{figure5_batches, figure5_sweep};
use bfpp_bench::tables::table_e;
use bfpp_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    let model = bfpp_model::presets::bert_6_6b();
    let cluster = bfpp_cluster::presets::dgx1_v100_ethernet(8);
    let batches = figure5_batches("6.6b", true);
    let opts = args.search_options();
    let rows = figure5_sweep(&model, &cluster, &batches, &opts);
    println!("# Table E.3 — optimal configurations, 6.6 B model, Ethernet cluster");
    print!("{}", table_e(&rows).to_csv());
}
