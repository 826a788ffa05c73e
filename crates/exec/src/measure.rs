//! Simulated measurement of one configuration.

use std::error::Error;
use std::fmt;

use bfpp_cluster::ClusterSpec;
use bfpp_core::{ScheduleError, ScheduleKind};
use bfpp_model::TransformerConfig;
use bfpp_parallel::{ConfigError, ParallelConfig};

use bfpp_sim::{Perturbation, SimDuration, SolveStats, Solver, Timeline};

use crate::kernel::KernelModel;
use crate::lower::{lower, LoweredGraph};
use crate::memory::memory_with_checkpoints;
use crate::overlap::OverlapConfig;

/// Fraction of device memory a configuration may use; the rest is a
/// fragmentation reserve (the paper's Appendix D.2 discusses
/// fragmentation at length; we keep 8% headroom). Shared between
/// [`Measurement::fits`] and the search's analytic memory pre-filter so
/// both apply the identical threshold.
pub(crate) const MEMORY_HEADROOM: f64 = 0.92;

/// What the paper measures for each configuration (§5.1): batch duration,
/// utilization, throughput and memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Wall-clock seconds per batch.
    pub batch_seconds: f64,
    /// Achieved throughput per GPU, Tflop/s. Hardware flops are credited
    /// (8 flop/parameter/token, checkpoint recomputation included), which
    /// is the accounting under which the paper's best V100 entries reach
    /// ~62 Tflop/s (Tables E).
    pub tflops_per_gpu: f64,
    /// GPU utilization: achieved / peak flop/s, in `[0, 1]`.
    pub utilization: f64,
    /// Mean busy fraction of the simulated compute streams — an upper
    /// bound view: it exceeds `utilization` because kernels run below
    /// peak (the kernel-efficiency model) even while the stream is busy.
    pub compute_busy: f64,
    /// Estimated peak memory of the worst device, bytes.
    pub memory_bytes: f64,
    /// The global batch size this was measured at.
    pub global_batch: u64,
    /// Batch size per GPU (β).
    pub batch_per_gpu: f64,
}

impl Measurement {
    /// Whether the estimated memory fits the device, with the crate's
    /// shared 8% fragmentation reserve (`MEMORY_HEADROOM`, also applied
    /// by the search's analytic memory pre-filter).
    pub fn fits(&self, memory_bytes: u64) -> bool {
        self.memory_bytes <= memory_bytes as f64 * MEMORY_HEADROOM
    }

    /// Memory in GiB, for reporting.
    pub fn memory_gib(&self) -> f64 {
        self.memory_bytes / (1u64 << 30) as f64
    }
}

/// Why a configuration could not be simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimulateError {
    /// The parallel configuration is invalid for the model/cluster.
    Config(ConfigError),
    /// The schedule could not be generated.
    Schedule(ScheduleError),
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimulateError::Schedule(e) => write!(f, "cannot generate schedule: {e}"),
        }
    }
}

impl Error for SimulateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimulateError::Config(e) => Some(e),
            SimulateError::Schedule(e) => Some(e),
        }
    }
}

/// Simulates one batch of one configuration and reports the paper's
/// metrics.
///
/// # Errors
///
/// Returns [`SimulateError`] for invalid configurations or ungenerable
/// schedules.
pub fn simulate(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    kind: ScheduleKind,
    overlap: OverlapConfig,
    kernel: &KernelModel,
) -> Result<Measurement, SimulateError> {
    let lowered = lower(model, cluster, cfg, kind, overlap, kernel)?;
    Ok(measure_lowered(model, cluster, cfg, &lowered))
}

/// [`simulate`] under a deterministic [`Perturbation`] (stragglers, link
/// degradation, jitter, stalls): the clean lowering re-timed under its
/// perturbed duration row ([`LoweredGraph::perturbed_durations`]).
/// Throughput and utilization are still credited against the
/// *fault-free* ideal, so a straggler shows up as lost utilization — the
/// quantity the straggler-sensitivity experiment sweeps. An identity
/// perturbation's row is the base durations, so it reproduces
/// [`simulate`] bit-for-bit.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_perturbed(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    kind: ScheduleKind,
    overlap: OverlapConfig,
    kernel: &KernelModel,
    perturbation: &Perturbation,
) -> Result<Measurement, SimulateError> {
    let lowered = lower(model, cluster, cfg, kind, overlap, kernel)?;
    let mut durations = Vec::new();
    lowered.perturbed_durations(perturbation, &mut durations);
    let stats = Solver::new(&lowered.graph)
        .solve_stats_with_durations(&durations)
        .expect("lowered graphs are acyclic by construction");
    Ok(measure_stats(model, cluster, cfg, &lowered, &stats))
}

/// Solves `lowered` on the solver's per-thread workspace
/// ([`bfpp_sim::OpGraph::solve`]) and measures it.
pub(crate) fn measure_lowered(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    lowered: &LoweredGraph,
) -> Measurement {
    let timeline = lowered
        .graph
        .solve()
        .expect("lowered graphs are acyclic by construction");
    measure_timeline(model, cluster, cfg, lowered, &timeline)
}

/// Derives the paper's metrics from an already solved timeline of
/// `lowered` — the companion to [`bfpp_sim::Solver::solve_with_durations`]
/// for perturbation sweeps that lower once and re-solve per point.
pub fn measure_timeline(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    lowered: &LoweredGraph,
    timeline: &Timeline,
) -> Measurement {
    let compute_busy = timeline
        .utilization_over(lowered.compute_resources.iter().copied())
        .mean;
    measure_from_parts(
        model,
        cluster,
        cfg,
        lowered.schedule.kind(),
        lowered.peak_checkpoints,
        timeline.makespan(),
        compute_busy,
    )
}

/// As [`measure_timeline`], from the aggregate [`SolveStats`] of a solve
/// ([`bfpp_sim::Solver::solve_stats_with_durations`]) — the cheapest
/// per-point path in a perturbation sweep, and bit-identical to
/// measuring a materialized timeline of the same solve.
pub fn measure_stats(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    lowered: &LoweredGraph,
    stats: &SolveStats,
) -> Measurement {
    let compute_busy = stats
        .utilization_over(lowered.compute_resources.iter().copied())
        .mean;
    measure_from_parts(
        model,
        cluster,
        cfg,
        lowered.schedule.kind(),
        lowered.peak_checkpoints,
        stats.makespan,
        compute_busy,
    )
}

/// The metric derivation itself, from the handful of scalars a solve
/// produces — no [`LoweredGraph`] in sight, so the topology-class path
/// (`crate::batch`), which never builds a graph, shares the exact
/// arithmetic of every other path.
pub(crate) fn measure_from_parts(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    cfg: &ParallelConfig,
    kind: ScheduleKind,
    peak_checkpoints: u32,
    makespan: SimDuration,
    compute_busy: f64,
) -> Measurement {
    let batch_seconds = makespan.as_secs_f64();
    let global_batch = cfg.global_batch_size();
    let num_gpus = cfg.grid.num_gpus() as f64;
    let flops_per_gpu = model.hardware_flops_per_batch(global_batch) / num_gpus;
    let tflops_per_gpu = flops_per_gpu / batch_seconds / 1e12;
    // Utilization is reported against the fleet's reference device speed
    // (identical to `node.gpu.peak_fp16_flops` on homogeneous clusters,
    // the fleet mean on heterogeneous ones).
    let utilization = flops_per_gpu / batch_seconds / cluster.reference_flops();
    let memory_bytes = memory_with_checkpoints(model, cfg, kind, peak_checkpoints);

    Measurement {
        batch_seconds,
        tflops_per_gpu,
        utilization,
        compute_busy,
        memory_bytes,
        global_batch,
        batch_per_gpu: cfg.batch_per_gpu(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_cluster::presets;
    use bfpp_model::presets as models;
    use bfpp_parallel::{BatchConfig, DataParallelism, Grid, Placement};

    fn run(
        kind: ScheduleKind,
        grid: Grid,
        placement: Placement,
        batch: BatchConfig,
        dp: DataParallelism,
        overlap: OverlapConfig,
    ) -> Measurement {
        simulate(
            &models::bert_52b(),
            &presets::dgx1_v100(8),
            &ParallelConfig::new(grid, placement, batch, dp),
            kind,
            overlap,
            &KernelModel::v100(),
        )
        .unwrap()
    }

    #[test]
    fn utilization_is_sane() {
        let m = run(
            ScheduleKind::BreadthFirst,
            Grid::new(4, 2, 8),
            Placement::looping(8, 8),
            BatchConfig::new(12, 1),
            DataParallelism::FullySharded,
            OverlapConfig::full(),
        );
        assert!(m.utilization > 0.05 && m.utilization < 0.65, "{m:?}");
        assert!(m.compute_busy >= m.utilization * 0.9, "{m:?}");
        assert!((m.tflops_per_gpu / 125.0 - m.utilization).abs() < 1e-9);
        assert_eq!(m.global_batch, 48);
    }

    #[test]
    fn breadth_first_beats_non_looped_at_small_batch() {
        // The headline claim at low β: BF looped vs non-looped, batch 9,
        // PP=8, TP=8 (the paper's β_min + 1 configuration).
        let bf = run(
            ScheduleKind::BreadthFirst,
            Grid::new(1, 8, 8),
            Placement::looping(8, 8),
            BatchConfig::new(9, 1),
            DataParallelism::Unsharded,
            OverlapConfig::full(),
        );
        let nl = run(
            ScheduleKind::GPipe,
            Grid::new(1, 8, 8),
            Placement::linear(8),
            BatchConfig::new(9, 1),
            DataParallelism::Unsharded,
            OverlapConfig::full(),
        );
        assert!(
            bf.tflops_per_gpu > nl.tflops_per_gpu * 1.2,
            "bf {} vs non-looped {}",
            bf.tflops_per_gpu,
            nl.tflops_per_gpu
        );
    }

    #[test]
    fn more_loops_cut_the_bubble() {
        let mk = |n_loop| {
            run(
                ScheduleKind::BreadthFirst,
                Grid::new(1, 8, 8),
                Placement::looping(8, n_loop),
                BatchConfig::new(9, 1),
                DataParallelism::Unsharded,
                OverlapConfig::full(),
            )
        };
        let l1 = mk(1);
        let l4 = mk(4);
        let l8 = mk(8);
        assert!(l4.tflops_per_gpu > l1.tflops_per_gpu);
        assert!(l8.tflops_per_gpu > l1.tflops_per_gpu);
    }

    #[test]
    fn identity_perturbation_reproduces_simulate() {
        let (model, cluster) = (models::bert_52b(), presets::dgx1_v100(8));
        let cfg = ParallelConfig::new(
            Grid::new(1, 8, 8),
            Placement::looping(8, 8),
            BatchConfig::new(9, 1),
            DataParallelism::Unsharded,
        );
        let (kind, overlap, kernel) = (
            ScheduleKind::BreadthFirst,
            OverlapConfig::full(),
            KernelModel::v100(),
        );
        let clean = simulate(&model, &cluster, &cfg, kind, overlap, &kernel);
        for p in [Perturbation::none(), Perturbation::with_seed(1234)] {
            let m = simulate_perturbed(&model, &cluster, &cfg, kind, overlap, &kernel, &p);
            assert_eq!(m, clean, "{p:?}");
        }
    }

    #[test]
    fn memory_fits_check_uses_headroom() {
        let m = Measurement {
            batch_seconds: 1.0,
            tflops_per_gpu: 1.0,
            utilization: 0.1,
            compute_busy: 0.1,
            memory_bytes: 31.0 * (1u64 << 30) as f64,
            global_batch: 8,
            batch_per_gpu: 0.125,
        };
        assert!(
            !m.fits(32 * (1 << 30)),
            "31 GiB does not fit with 8% reserve"
        );
        assert!(m.fits(64 * (1 << 30)));
        assert!((m.memory_gib() - 31.0).abs() < 1e-9);
    }

    #[test]
    fn errors_propagate() {
        let bad = ParallelConfig::new(
            Grid::new(1, 8, 8),
            Placement::linear(8),
            BatchConfig::new(7, 1),
            DataParallelism::Unsharded,
        );
        // Depth-first with N_mb not a multiple of N_PP.
        let err = simulate(
            &models::bert_52b(),
            &presets::dgx1_v100(8),
            &bad,
            ScheduleKind::DepthFirst,
            OverlapConfig::full(),
            &KernelModel::v100(),
        )
        .unwrap_err();
        assert!(matches!(err, SimulateError::Schedule(_)));
        assert!(err.source().is_some());
    }
}
