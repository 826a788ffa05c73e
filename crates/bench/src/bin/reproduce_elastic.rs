//! Elastic re-planning experiment: a node flaps out of and back into a
//! Figure 5a-shaped fleet, and the planner re-places the pipeline at
//! each step.
//!
//! Walks the operator story end to end — cold plan on the full fleet,
//! first node drop (cold re-plan: the degraded topology has never been
//! planned, and the dead fleet's warm records are quarantined), re-add
//! (restores the original spec byte-for-byte; quarantines nothing),
//! second drop of the same node (warm re-plan: the degraded topology's
//! sweep record survived the flap, so the planner replays it instead of
//! re-searching) — and prints one CSV row per event with the re-plan
//! latency, warm-hit and quarantine accounting, and the winning
//! throughput for that topology.
//!
//! Usage: `reproduce_elastic [--mixed] [--threads N]`
//!
//! * `--mixed` runs the flap on the heterogeneous `mixed_v100_a100`
//!   fleet (the A100 island's last node flaps) instead of the
//!   homogeneous 4× DGX-1 fleet.
//!
//! The final line reports the warm-over-cold re-plan speedup; the warm
//! re-plan and the cold re-plan of the same degraded topology are
//! asserted to return bit-identical winners.

use std::time::Instant;

use bfpp_bench::BenchArgs;
use bfpp_cluster::presets::{dgx1_v100, mixed_v100_a100};
use bfpp_cluster::NodeId;
use bfpp_exec::search::{Method, SearchReport, SearchResult};
use bfpp_exec::KernelModel;
use bfpp_model::presets::bert_52b;
use bfpp_planner::{ClusterDelta, PlanRequest, Planner};

fn main() {
    let args = BenchArgs::from_env();
    let model = bert_52b();
    // Four-node fleets: the 3-node survivor topology still admits valid
    // grids at batch 48 (through `N_DP = 3`), so the degraded plan is a
    // real search, not an empty one.
    let cluster = if args.flag("--mixed") {
        mixed_v100_a100(2, 2)
    } else {
        dgx1_v100(4)
    };
    let flapping = NodeId(cluster.num_nodes - 1);
    let req = PlanRequest {
        opts: args.search_options(),
        ..PlanRequest::new(
            model.clone(),
            cluster.clone(),
            Method::BreadthFirst,
            48,
            KernelModel::v100(),
        )
    };

    println!(
        "# Elastic re-planning — {} on {} ({} nodes), node {} flaps",
        model.name, cluster.name, cluster.num_nodes, flapping.0
    );
    println!("csv:");
    println!("event,nodes,warm_hits,quarantined,replan_us,tflops_per_gpu");

    let planner = Planner::with_threads(req.opts.threads);
    let quarantined = |planner: &Planner| {
        planner
            .lifecycle()
            .count("elastic_quarantined_warm_records")
    };

    // Cold plan on the full fleet: the baseline the flap disturbs.
    let t = Instant::now();
    let (result, report) = planner.plan(&req);
    row("cold_plan", cluster.num_nodes, &report, 0, t, &result);

    // First drop: quarantine the full fleet's records, plan the
    // survivors cold.
    let drop = ClusterDelta::drop_node(flapping);
    let before = quarantined(&planner);
    let t = Instant::now();
    let (degraded, cold_result, cold_report) = planner.replan(&req, &drop).expect("drop applies");
    let cold_us = t.elapsed();
    assert_eq!(cold_report.warm_hits, 0, "first drop must plan cold");
    row(
        "drop_cold",
        degraded.cluster.num_nodes,
        &cold_report,
        quarantined(&planner) - before,
        t,
        &cold_result,
    );

    // The node returns: the restored spec is byte-identical to the
    // original, and nothing is quarantined.
    let add = ClusterDelta::add_node(req.cluster.node_spec(flapping).clone());
    let before = quarantined(&planner);
    let t = Instant::now();
    let (restored, add_result, add_report) = planner.replan(&degraded, &add).expect("add applies");
    assert_eq!(restored.cluster, req.cluster, "flap restores the fleet");
    row(
        "re_add",
        restored.cluster.num_nodes,
        &add_report,
        quarantined(&planner) - before,
        t,
        &add_result,
    );

    // Second drop of the same node: the degraded topology's record is
    // still warm, so the re-plan replays instead of re-searching.
    let before = quarantined(&planner);
    let t = Instant::now();
    let (_, warm_result, warm_report) = planner.replan(&restored, &drop).expect("drop applies");
    let warm_us = t.elapsed();
    assert!(warm_report.warm_hits > 0, "flapped drop must warm-hit");
    assert_eq!(
        warm_result, cold_result,
        "warm replay equals the cold degraded plan"
    );
    row(
        "drop_warm",
        cluster.num_nodes - 1,
        &warm_report,
        quarantined(&planner) - before,
        t,
        &warm_result,
    );

    println!();
    println!(
        "warm re-plan {:.0} us vs cold re-plan {:.0} us: {:.1}x faster",
        warm_us.as_secs_f64() * 1e6,
        cold_us.as_secs_f64() * 1e6,
        cold_us.as_secs_f64() / warm_us.as_secs_f64()
    );
}

fn row(
    event: &str,
    nodes: u32,
    report: &SearchReport,
    quarantined: u64,
    started: Instant,
    result: &Option<SearchResult>,
) {
    println!(
        "{event},{nodes},{},{quarantined},{:.0},{}",
        report.warm_hits,
        started.elapsed().as_secs_f64() * 1e6,
        result
            .as_ref()
            .map(|r| format!("{:.1}", r.measurement.tflops_per_gpu))
            .unwrap_or_else(|| "-".to_string()),
    );
}
