//! The `bfpp` command-line tool: simulate, search and visualize
//! pipeline-parallel training configurations from the terminal.
//!
//! ```text
//! bfpp simulate --model 52b --dp 4 --tp 2 --pp 8 --loops 8 --mb 12 \
//!               --smb 1 --sharding fs --schedule bf
//! bfpp search   --model 52b --batch 48 [--ethernet]
//! bfpp viz      --pp 4 --loops 4 --mb 8
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use bfpp::analytic::tradeoff::TradeoffModel;
use bfpp::cluster::presets;
use bfpp::cluster::{ClusterSpec, NodeSpec};
use bfpp::core::ScheduleKind;
use bfpp::exec::search::{best_config, Method, SearchOptions};
use bfpp::exec::{breakdown, lower, simulate, KernelModel, OverlapConfig};
use bfpp::model::presets::by_name;
use bfpp::parallel::{BatchConfig, DataParallelism, Grid, ParallelConfig, Placement};
use bfpp_bench::figures::schedule_unit_timelines;

fn usage() -> &'static str {
    "usage:
  bfpp simulate --model <52b|6.6b|gpt3|1t> --dp N --tp N --pp N [--loops N]
                [--mb N] [--smb N] [--sharding <dp0|ps|fs>]
                [--schedule <gpipe|1f1b|df|bf>] [--nodes N] [--ethernet]
                [--no-overlap]
  bfpp search   --model <name> --batch B [--nodes N] [--ethernet]
  bfpp plan     --model <name> --gpus N   (training time/cost per method)
  bfpp viz      [--pp N] [--loops N] [--mb N]"
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if matches!(name, "ethernet" | "no-overlap") {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            return Err(format!("unexpected argument {a}"));
        }
    }
    Ok(flags)
}

fn get_u32(flags: &HashMap<String, String>, key: &str, default: u32) -> Result<u32, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
    }
}

/// Reads a count that must be at least 1: node, GPU, grid, loop and
/// micro-batch counts, whose constructors assert it.
fn get_count(flags: &HashMap<String, String>, key: &str, default: u32) -> Result<u32, String> {
    match get_u32(flags, key, default)? {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    }
}

fn cluster_for(flags: &HashMap<String, String>) -> Result<ClusterSpec, String> {
    let nodes = get_count(flags, "nodes", 8)?;
    let (preset, node): (fn(u32) -> ClusterSpec, NodeSpec) = if flags.contains_key("ethernet") {
        (presets::dgx1_v100_ethernet, NodeSpec::dgx1_v100_ethernet())
    } else {
        (presets::dgx1_v100, NodeSpec::dgx1_v100())
    };
    // Device ranks are `u32`, and `ClusterSpec::new` asserts the count fits.
    if nodes.checked_mul(node.gpus_per_node).is_none() {
        return Err(format!(
            "--nodes {nodes} is too large: its GPU count overflows u32"
        ));
    }
    Ok(preset(nodes))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage().to_string());
    };
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "simulate" => cmd_simulate(&flags),
        "search" => cmd_search(&flags),
        "plan" => cmd_plan(&flags),
        "viz" => cmd_viz(&flags),
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let model_name = flags.get("model").cloned().unwrap_or_else(|| "52b".into());
    let model = by_name(&model_name).ok_or_else(|| format!("unknown model {model_name}"))?;
    let cluster = cluster_for(flags)?;
    let n_dp = get_count(flags, "dp", 1)?;
    let n_tp = get_count(flags, "tp", 8)?;
    let n_pp = get_count(flags, "pp", 8)?;
    let n_loop = get_count(flags, "loops", 1)?;
    let n_mb = get_count(flags, "mb", n_pp)?;
    let s_mb = get_count(flags, "smb", 1)?;
    let sharding = match flags.get("sharding").map(String::as_str) {
        None | Some("dp0") => DataParallelism::Unsharded,
        Some("ps") => DataParallelism::PartiallySharded,
        Some("fs") => DataParallelism::FullySharded,
        Some(x) => return Err(format!("unknown sharding {x}")),
    };
    let schedule = match flags.get("schedule").map(String::as_str) {
        None | Some("bf") => ScheduleKind::BreadthFirst,
        Some("df") => ScheduleKind::DepthFirst,
        Some("gpipe") => ScheduleKind::GPipe,
        Some("1f1b") => ScheduleKind::OneFOneB,
        Some(x) => return Err(format!("unknown schedule {x}")),
    };
    let overlap = if flags.contains_key("no-overlap") {
        OverlapConfig::none()
    } else {
        OverlapConfig::full()
    };
    let cfg = ParallelConfig::new(
        Grid::new(n_dp, n_tp, n_pp),
        Placement::looping(n_pp, n_loop),
        BatchConfig::new(n_mb, s_mb),
        sharding,
    );
    let kernel = KernelModel::v100();
    let m =
        simulate(&model, &cluster, &cfg, schedule, overlap, &kernel).map_err(|e| e.to_string())?;
    println!("model    : {model}");
    println!("cluster  : {cluster}");
    println!(
        "config   : {} | {} | {} | {}",
        cfg.grid, cfg.placement, cfg.batch, cfg.dp
    );
    println!("schedule : {schedule}");
    println!("beta     : {:.3} samples/GPU", cfg.batch_per_gpu());
    println!("batch    : {:.3} ms", m.batch_seconds * 1e3);
    println!(
        "through  : {:.2} Tflop/s/GPU ({:.1}% of peak)",
        m.tflops_per_gpu,
        m.utilization * 100.0
    );
    println!(
        "memory   : {:.2} GiB (fits: {})",
        m.memory_gib(),
        m.fits(cluster.min_memory_bytes())
    );
    let lowered =
        lower(&model, &cluster, &cfg, schedule, overlap, &kernel).map_err(|e| e.to_string())?;
    let t = lowered.graph.solve().expect("acyclic");
    let b = breakdown(&lowered, &t);
    println!(
        "breakdown: kernels {:.1}% | inline comm {:.1}% | idle {:.1}% (overlapped dp {:.1} ms, pp {:.1} ms)",
        100.0 * b.kernel_s / b.makespan_s,
        100.0 * b.inline_comm_s / b.makespan_s,
        100.0 * b.idle_s / b.makespan_s,
        b.dp_stream_s * 1e3,
        b.pp_stream_s * 1e3,
    );
    Ok(())
}

fn cmd_search(flags: &HashMap<String, String>) -> Result<(), String> {
    let model_name = flags.get("model").cloned().unwrap_or_else(|| "52b".into());
    let model = by_name(&model_name).ok_or_else(|| format!("unknown model {model_name}"))?;
    let cluster = cluster_for(flags)?;
    let batch = u64::from(get_count(flags, "batch", 48)?);
    let kernel = KernelModel::v100();
    let opts = SearchOptions::default();
    println!(
        "best configurations for {} at batch {batch} on {}:",
        model.name, cluster.name
    );
    for method in Method::ALL {
        match best_config(&model, &cluster, method, batch, &kernel, &opts) {
            Some(r) => println!(
                "{:>14}: {:>6.2} Tflop/s/GPU  ({} | {} | {} | {} | {:.1} GiB)",
                method.label(),
                r.measurement.tflops_per_gpu,
                r.kind,
                r.cfg.grid,
                r.cfg.placement,
                r.cfg.dp,
                r.measurement.memory_gib(),
            ),
            None => println!("{:>14}: no feasible configuration", method.label()),
        }
    }
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let model_name = flags.get("model").cloned().unwrap_or_else(|| "52b".into());
    let model = by_name(&model_name).ok_or_else(|| format!("unknown model {model_name}"))?;
    let gpus = get_count(flags, "gpus", 4096)?;
    let cluster = presets::dgx1_v100(8);
    let kernel = KernelModel::v100();
    let tradeoff = if model_name.contains("52") {
        TradeoffModel::paper_52b(&model, cluster.node.gpu.peak_fp16_flops)
    } else {
        TradeoffModel::paper_6_6b(&model, cluster.node.gpu.peak_fp16_flops)
    };
    println!(
        "planning {} on {gpus} V100s (B_crit = {:.0} samples); measuring reference curves...",
        model.name, tradeoff.b_crit_samples
    );
    let opts = SearchOptions::default();
    for method in Method::ALL {
        let mut points = Vec::new();
        for batch in [8u64, 32, 128, 512] {
            if let Some(r) = best_config(&model, &cluster, method, batch, &kernel, &opts) {
                points.push(bfpp::analytic::tradeoff::OperatingPoint {
                    beta: batch as f64 / cluster.num_gpus() as f64,
                    utilization: r.measurement.utilization,
                });
            }
        }
        if let Some(p) = tradeoff.frontier(&points, &[gpus]).first() {
            println!(
                "{:>14}: {:>7.1} days, {:>9.0} GPU-days (beta {:.3})",
                method.label(),
                p.time_days,
                p.cost_gpu_days,
                p.beta
            );
        }
    }
    Ok(())
}

fn cmd_viz(flags: &HashMap<String, String>) -> Result<(), String> {
    let n_pp = get_count(flags, "pp", 4)?;
    let n_loop = get_count(flags, "loops", 4)?;
    let n_mb = get_count(flags, "mb", 8)?;
    print!("{}", schedule_unit_timelines(n_pp, n_loop, n_mb));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
