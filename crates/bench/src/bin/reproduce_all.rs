//! Runs every reproduction driver in sequence (the full evaluation).

use bfpp_analytic::tradeoff::TradeoffModel;
use bfpp_bench::figures::{
    figure1, figure2, figure3, figure4, figure5_batches, figure5_sweep, figure5_table, figure6,
    figure7,
};
use bfpp_bench::robustness::{most_graceful, robustness_table, straggler_sweep, SEVERITIES};
use bfpp_bench::tables::{table_5_1, table_e};
use bfpp_bench::BenchArgs;

fn main() {
    let opts = BenchArgs::from_env().search_options();
    let sizes: Vec<u32> = vec![256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

    println!("# Table 5.1");
    print!("{}", table_5_1().to_text());

    println!("\n# Figure 2 (CSV)");
    print!("{}", figure2().to_csv());

    println!("\n# Figure 3");
    print!("{}", figure3());

    println!("\n# Figure 4");
    let (art, t) = figure4();
    print!("{art}");
    print!("{}", t.to_text());

    println!("\n# Figure 7");
    let (art, t) = figure7();
    print!("{art}");
    print!("{}", t.to_text());

    // 52 B sweeps: Figure 5a, Table E.1, Figures 1 and 6a.
    let model = bfpp_model::presets::bert_52b();
    let cluster = bfpp_cluster::presets::dgx1_v100(8);

    // Straggler sensitivity: degradation curves of the four schedules.
    eprintln!("sweeping straggler severities...");
    let straggler_rows = straggler_sweep(&model, &cluster, &SEVERITIES);
    println!("\n# Straggler sensitivity (CSV)");
    print!("{}", robustness_table(&straggler_rows).to_csv());
    if let Some((kind, worst)) = most_graceful(&straggler_rows) {
        println!(
            "most graceful: {kind} (worst-case retention {:.1}%)",
            worst * 100.0
        );
    }

    let tradeoff = TradeoffModel::paper_52b(&model, cluster.node.gpu.peak_fp16_flops);
    eprintln!("sweeping 52b / InfiniBand...");
    let rows = figure5_sweep(&model, &cluster, &figure5_batches("52b", false), &opts);
    println!("\n# Figure 5a (CSV)");
    print!("{}", figure5_table(&rows, cluster.num_gpus()).to_csv());
    println!("\n# Table E.1 (CSV)");
    print!("{}", table_e(&rows).to_csv());
    println!("\n# Figure 1");
    print!(
        "{}",
        figure1(&rows, cluster.num_gpus(), &tradeoff).to_text()
    );
    println!("\n# Figure 6a (CSV)");
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

    // 6.6 B sweeps: Figure 5b, Table E.2, Figure 6b.
    let model = bfpp_model::presets::bert_6_6b();
    let tradeoff = TradeoffModel::paper_6_6b(&model, cluster.node.gpu.peak_fp16_flops);
    eprintln!("sweeping 6.6b / InfiniBand...");
    let rows = figure5_sweep(&model, &cluster, &figure5_batches("6.6b", false), &opts);
    println!("\n# Figure 5b (CSV)");
    print!("{}", figure5_table(&rows, cluster.num_gpus()).to_csv());
    println!("\n# Table E.2 (CSV)");
    print!("{}", table_e(&rows).to_csv());
    println!("\n# Figure 6b (CSV)");
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

    // 6.6 B Ethernet: Figure 5c, Table E.3.
    let eth = bfpp_cluster::presets::dgx1_v100_ethernet(8);
    eprintln!("sweeping 6.6b / Ethernet...");
    let rows = figure5_sweep(&model, &eth, &figure5_batches("6.6b", true), &opts);
    println!("\n# Figure 5c (CSV)");
    print!("{}", figure5_table(&rows, eth.num_gpus()).to_csv());
    println!("\n# Table E.3 (CSV)");
    print!("{}", table_e(&rows).to_csv());
}
