//! # bfpp-exec — simulated execution and configuration search
//!
//! Lowers a complete training configuration — model ([`bfpp_model`]),
//! cluster ([`bfpp_cluster`]), parallel layout ([`bfpp_parallel`]) and
//! pipeline schedule ([`bfpp_core`]) — onto the deterministic timeline
//! solver of [`bfpp_sim`], and measures what the paper measures:
//!
//! * batch duration and GPU utilization (%, and Tflop/s per GPU),
//! * peak memory per device,
//! * where the time went (compute, pipeline bubble, exposed network).
//!
//! The lowering models one pipeline "column" (data- and tensor-parallel
//! peers behave symmetrically, so their communication costs are charged
//! analytically from the group sizes): each pipeline device gets a
//! *compute stream*, a *data-parallel network stream* and a
//! *pipeline-parallel network stream*, mirroring the parallel CUDA
//! streams of the paper's Figure 4. Overlap can be disabled per class of
//! communication ([`OverlapConfig`]) to reproduce the Megatron-LM
//! baselines, which lacked it (§5.1).
//!
//! On top of single-configuration measurement sits the configuration
//! search: the paper's methodology of trying "a wide variety of
//! configurations in each case and selecting the fastest one" (§5.1),
//! which regenerates Figure 5 and Tables E.1–E.3. It is layered:
//! [`candidates`] enumerates the typed search space in a fixed total
//! order, [`prune`] rejects candidates by closed-form memory and
//! Eq. (3)/(7) throughput bounds, and [`search`] evaluates the survivors
//! on a worker pool with a deterministic, order-based reduction — the
//! winner is bit-identical to the exhaustive serial reference for any
//! thread count.
//!
//! ```
//! use bfpp_cluster::presets::dgx1_v100;
//! use bfpp_exec::{simulate, KernelModel, OverlapConfig};
//! use bfpp_model::presets::bert_52b;
//! use bfpp_core::ScheduleKind;
//! use bfpp_parallel::{BatchConfig, DataParallelism, Grid, ParallelConfig, Placement};
//!
//! let cfg = ParallelConfig::new(
//!     Grid::new(4, 2, 8),
//!     Placement::looping(8, 8),
//!     BatchConfig::new(12, 1),
//!     DataParallelism::FullySharded,
//! );
//! let m = simulate(
//!     &bert_52b(),
//!     &dgx1_v100(8),
//!     &cfg,
//!     ScheduleKind::BreadthFirst,
//!     OverlapConfig::full(),
//!     &KernelModel::v100(),
//! )
//! .unwrap();
//! assert!(m.tflops_per_gpu > 10.0);
//! ```

pub mod batch;
mod breakdown;
pub mod candidates;
pub mod executor;
mod kernel;
mod lower;
mod measure;
mod memory;
pub mod memprof;
pub mod observe;
mod overlap;
pub mod prune;
pub mod search;
pub mod warm;

pub use batch::ClassCache;
pub use breakdown::{breakdown, TimeBreakdown};
pub use candidates::{speed_proportional_layers, Candidate, SplitStrategy};
pub use executor::Executor;
pub use kernel::KernelModel;
pub use lower::{lower, lower_with_schedule, Durations, LoweredGraph, OpTag, TraceInfo};
pub use measure::{
    measure_stats, measure_timeline, simulate, simulate_perturbed, Measurement, SimulateError,
};
pub use memory::estimate_memory;
pub use memprof::{chrome_trace_with_memory, link_spans, memory_profile, peak_attribution};
pub use observe::{attribution, chrome_trace, op_category, TraceBuilder};
pub use overlap::OverlapConfig;
pub use prune::{lower_bound_tflops, PruneReason};
pub use search::{PhaseSpans, ProgressSnapshot, SearchEnv, SearchProgress, SearchReport};
pub use warm::WarmCache;

// Re-exported so search/bench callers can build fault models and consume
// memory profiles without depending on `bfpp_sim` directly.
pub use bfpp_sim::{
    BufferClass, MemoryPeaks, MemoryProfile, MetricsRegistry, MetricsSnapshot, OpClass,
    PeakAttribution, Perturbation,
};
