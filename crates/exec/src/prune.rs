//! Analytic pre-filters of the configuration search.
//!
//! Before a [`Candidate`] is lowered and simulated, two closed-form
//! models can reject it outright:
//!
//! * **Memory.** Every term of the peak-memory estimate
//!   ([`crate::estimate_memory`]) except the live checkpoint count is
//!   closed-form in the configuration, and the checkpoint count has a
//!   per-kind lower bound ([`peak_checkpoints_lower_bound`]). A candidate
//!   whose memory *lower bound* already exceeds the device's usable
//!   memory can never pass `Measurement::fits` — pruning it is sound.
//! * **Throughput.** The Eq. (3)/(7) bubble bound
//!   ([`bfpp_core::bubble`]) caps any schedule's throughput given the
//!   per-kernel durations the simulator itself would charge
//!   ([`lower_bound_tflops`]). A candidate whose throughput *upper
//!   bound* is strictly below the best simulated result so far can never
//!   win — pruning it is sound. Ties are kept, because equally fast
//!   candidates are resolved by enumeration order, not by the bound.

use bfpp_cluster::ClusterSpec;
use bfpp_core::{bubble, ScheduleKind};
use bfpp_model::TransformerConfig;

use crate::candidates::Candidate;
use crate::kernel::KernelModel;
use crate::lower::Durations;
use crate::measure::MEMORY_HEADROOM;
use crate::memory::memory_with_checkpoints;
use crate::overlap::OverlapConfig;

/// Why the analytic pre-filter rejected a candidate. Surfaced through
/// [`crate::SearchReport`]'s `pruned_memory`/`pruned_throughput`
/// counters (and their CSV columns), so "why was this candidate
/// rejected" is answerable from a search report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// The memory lower bound ([`memory_lower_bound_bytes`]) already
    /// exceeds the device's usable memory — the candidate can never fit.
    Memory,
    /// The throughput upper bound ([`lower_bound_tflops`]) is strictly
    /// below the best simulated result so far — the candidate can never
    /// win.
    Throughput,
}

/// Applies both analytic filters to one candidate, in their fixed order
/// (memory first, then throughput against `best_tflops`): `Some(reason)`
/// if the candidate is rejected, `None` if it must be simulated.
/// `speedup` widens the throughput bound for perturbed searches (1.0
/// when unperturbed) — see
/// [`bfpp_sim::Perturbation::max_speedup`](crate::Perturbation::max_speedup).
pub fn prune_reason(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cand: &Candidate,
    overlap: OverlapConfig,
    kernel: &KernelModel,
    best_tflops: Option<f64>,
    speedup: f64,
) -> Option<PruneReason> {
    if exceeds_device_memory(model, cluster, cand) {
        Some(PruneReason::Memory)
    } else if best_tflops
        .is_some_and(|t| lower_bound_tflops(model, cluster, cand, overlap, kernel) * speedup < t)
    {
        Some(PruneReason::Throughput)
    } else {
        None
    }
}

/// A lower bound on [`Schedule::peak_checkpoints`] for a schedule of
/// this shape, without generating it.
///
/// * GPipe and breadth-first hold every checkpoint at the
///   forward/backward boundary — `N_mb · N_loop` exactly.
/// * 1F1B and depth-first retire early micro-batches, but the first
///   device still completes at least `min(N_mb, N_PP)` forwards before
///   its first backward (the warm-up that fills the pipeline), so at
///   least that many checkpoints are live at once.
///
/// [`Schedule::peak_checkpoints`]: bfpp_core::Schedule::peak_checkpoints
pub fn peak_checkpoints_lower_bound(kind: ScheduleKind, n_pp: u32, n_mb: u32, n_loop: u32) -> u32 {
    match kind {
        ScheduleKind::GPipe | ScheduleKind::BreadthFirst => n_mb * n_loop,
        ScheduleKind::OneFOneB | ScheduleKind::DepthFirst => n_mb.min(n_pp),
    }
}

/// A lower bound in bytes on the candidate's estimated peak memory.
///
/// Evaluated on the candidate's *resolved* configuration
/// ([`Candidate::config_on`]): a speed-proportional split moves layers
/// between devices, and a device that sheds layers but keeps the
/// embedding table can peak strictly below the uniform estimate — a
/// uniform-config bound would over-prune such candidates.
pub fn memory_lower_bound_bytes(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cand: &Candidate,
) -> f64 {
    let checkpoints_lb = peak_checkpoints_lower_bound(
        cand.kind,
        cand.grid.n_pp,
        cand.batch.num_microbatches,
        cand.placement.n_loop(),
    );
    memory_with_checkpoints(
        model,
        &cand.config_on(model, cluster),
        cand.kind,
        checkpoints_lb,
    )
}

/// Whether the candidate's memory lower bound already exceeds the
/// smallest device's usable memory (capacity × the fragmentation
/// headroom shared with `Measurement::fits`, taken over the whole fleet
/// because the estimate itself maximizes over devices). True means the
/// candidate can never fit.
pub fn exceeds_device_memory(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cand: &Candidate,
) -> bool {
    memory_lower_bound_bytes(model, cluster, cand)
        > cluster.min_memory_bytes() as f64 * MEMORY_HEADROOM
}

/// An upper bound on the candidate's simulated throughput (Tflop/s per
/// GPU): the hardware flops the measurement credits, divided by the
/// Eq. (3)/(7) lower bound on batch time under the exact forward and
/// backward kernel durations the simulator would charge (tensor-parallel
/// all-reduce time included). The simulator adds pipeline and
/// data-parallel communication on top of those kernels, never removes
/// any, so no simulated result can exceed this bound.
pub fn lower_bound_tflops(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cand: &Candidate,
    overlap: OverlapConfig,
    kernel: &KernelModel,
) -> f64 {
    let cfg = cand.config_on(model, cluster);
    let d = Durations::new(model, cluster, &cfg, kernel, overlap);
    let seconds_lb = if d.per_device.is_some() {
        // Heterogeneous (or non-uniformly split) stages: the scalar
        // fields are maxima over devices, and feeding maxima to the
        // homogeneous bound would overestimate batch time — i.e. give a
        // throughput bound *below* what the simulator can achieve, which
        // is unsound. Use the per-stage chain bound instead.
        let costs: Vec<(f64, f64)> = (0..cand.grid.n_pp)
            .map(|dev| (d.fwd_on(dev).as_secs_f64(), d.bwd_on(dev).as_secs_f64()))
            .collect();
        bubble::lower_bound_seconds_per_stage(
            cand.batch.num_microbatches,
            cand.placement.n_loop(),
            &costs,
        )
    } else {
        bubble::lower_bound_seconds(
            cand.grid.n_pp,
            cand.batch.num_microbatches,
            cand.placement.n_loop(),
            d.fwd.as_secs_f64(),
            d.bwd.as_secs_f64(),
        )
    };
    let flops_per_gpu =
        model.hardware_flops_per_batch(cfg.global_batch_size()) / cand.grid.num_gpus() as f64;
    flops_per_gpu / seconds_lb / 1e12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate;
    use crate::measure::simulate;
    use crate::search::{Method, SearchOptions};
    use bfpp_cluster::presets;
    use bfpp_core::Schedule;
    use bfpp_model::presets as models;
    use bfpp_parallel::Placement;

    fn opts() -> SearchOptions {
        SearchOptions {
            max_microbatch: 4,
            max_loop: 8,
            max_actions: 30_000,
            threads: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn checkpoint_bound_never_exceeds_the_measured_peak() {
        for kind in ScheduleKind::ALL {
            for n_pp in [1u32, 2, 4] {
                for n_loop in [1u32, 2, 4] {
                    if n_loop > 1 && !kind.supports_looping() {
                        continue;
                    }
                    for n_mb in [1u32, 4, 8, 16] {
                        let placement = Placement::looping(n_pp, n_loop);
                        let Ok(s) = Schedule::generate(kind, placement, n_mb) else {
                            continue;
                        };
                        let lb = peak_checkpoints_lower_bound(kind, n_pp, n_mb, n_loop);
                        assert!(
                            lb <= s.peak_checkpoints(),
                            "{kind} pp={n_pp} loop={n_loop} mb={n_mb}: \
                             bound {lb} > measured {}",
                            s.peak_checkpoints()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memory_bound_never_exceeds_the_estimate() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let o = opts();
        for method in Method::ALL {
            for cand in enumerate(&model, &cluster, method, 48, &o) {
                let cfg = cand.config_on(&model, &cluster);
                let Ok(s) =
                    Schedule::generate(cand.kind, cfg.placement, cfg.batch.num_microbatches)
                else {
                    continue;
                };
                let lb = memory_lower_bound_bytes(&model, &cluster, &cand);
                let exact = crate::estimate_memory(&model, &cfg, &s);
                assert!(
                    lb <= exact + 1e-6,
                    "{method} {cand:?}: memory bound {lb} > estimate {exact}"
                );
            }
        }
    }

    #[test]
    fn tflops_bound_never_undercuts_the_simulator() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let kernel = KernelModel::v100();
        let o = opts();
        for method in Method::ALL {
            let overlap = method.overlap();
            for cand in enumerate(&model, &cluster, method, 48, &o) {
                let Ok(m) = simulate(
                    &model,
                    &cluster,
                    &cand.config_on(&model, &cluster),
                    cand.kind,
                    overlap,
                    &kernel,
                ) else {
                    continue;
                };
                let ub = lower_bound_tflops(&model, &cluster, &cand, overlap, &kernel);
                assert!(
                    m.tflops_per_gpu <= ub * (1.0 + 1e-9),
                    "{method} {cand:?}: simulated {} > bound {ub}",
                    m.tflops_per_gpu
                );
            }
        }
    }

    #[test]
    fn memory_filter_rejects_what_cannot_fit() {
        // A deliberately oversized shape: unsharded 52B state on a lone
        // V100 cannot fit; the filter must say so without simulating.
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(1);
        let o = SearchOptions {
            max_microbatch: 1,
            ..opts()
        };
        let mut saw_reject = false;
        for cand in enumerate(&model, &cluster, Method::NoPipeline, 8, &o) {
            if exceeds_device_memory(&model, &cluster, &cand) {
                saw_reject = true;
            }
        }
        assert!(saw_reject, "52B unsharded on 8 V100s must trip the filter");
    }
}
