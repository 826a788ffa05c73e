//! # bfpp-train — a real training substrate
//!
//! A performance simulator can show that the breadth-first schedule is
//! *fast*; it cannot show that it is *correct*. This crate runs the
//! schedules for real: an f32 tensor library with hand-written backward
//! passes ([`tensor`], [`layers`]), a serial reference implementation
//! ([`serial`]), and a multi-threaded pipeline executor ([`pipeline`])
//! with one OS thread per simulated device, std `mpsc` channels for the
//! stage boundaries, and the shared-memory collectives of
//! [`bfpp_collectives::thread`] for data parallelism.
//!
//! The executor consumes a [`bfpp_core::Schedule`] **verbatim** — each
//! device thread executes exactly the action order the generator
//! produced — and supports all three data-parallel sharding levels,
//! including fully sharded weights reconstructed around each
//! same-(stage, direction) run, exactly as the paper's §4.2 prescribes.
//! The test suite proves the load-bearing property: for every schedule ×
//! sharding combination, the losses and the updated weights match the
//! serial reference (bit-for-bit for the unsharded and partially sharded
//! variants, whose reduction orders we make deterministic).
//!
//! Device threads run inside a panic-catching harness: a worker that
//! panics or errors poisons its collective group and drops its channels,
//! so peers fail fast with a typed [`pipeline::TrainError`] instead of
//! deadlocking, and transient faults can be retried with
//! [`pipeline::run_batch_with_retry`] (see the [`pipeline`] module docs
//! for the fault model). The retry loop is observable:
//! [`pipeline::run_batch_with_retry_instrumented`] records attempts,
//! retries, per-cause failure counts and attempt/backoff wall-clock
//! samples (`train_*`) into a [`bfpp_sim::MetricsRegistry`], the one
//! registry the planner service and the configuration search record
//! into as well.
//!
//! ```
//! use bfpp_core::ScheduleKind;
//! use bfpp_parallel::{DataParallelism, Placement};
//! use bfpp_train::pipeline::{run_batch, TrainSpec};
//! use bfpp_train::builder::{build_mlp_stages, synthetic_batch};
//!
//! let placement = Placement::looping(2, 2);
//! let stages = build_mlp_stages(8, 16, 4, placement.num_stages(), 42);
//! let (inputs, targets) = synthetic_batch(8, 4, 2 * 4, 2, 7);
//! let spec = TrainSpec {
//!     kind: ScheduleKind::BreadthFirst,
//!     placement,
//!     n_mb: 4,
//!     n_dp: 2,
//!     dp: DataParallelism::FullySharded,
//!     optimizer: bfpp_train::optim::OptimizerKind::sgd(0.01),
//!     half_comms: false,
//! };
//! let result = run_batch(&spec, stages, &inputs, &targets);
//! assert!(result.mean_loss.is_finite());
//! ```

pub mod attention;
pub mod builder;
pub mod half;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod pipeline;
pub mod serial;
pub mod tensor;
