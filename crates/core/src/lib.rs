//! # bfpp-core — pipeline-parallel schedules
//!
//! The paper's contribution and its baselines as first-class objects. A
//! [`Schedule`] is, per pipeline device, the exact order in which that
//! device executes the forward and backward steps of every (micro-batch,
//! stage) pair it hosts. Four generators are provided
//! ([`ScheduleKind`]):
//!
//! * [`ScheduleKind::GPipe`] — non-looped, forward-first (Huang et al.);
//! * [`ScheduleKind::OneFOneB`] — non-looped, one-forward-one-backward
//!   (Harlap et al.; Megatron-LM's default);
//! * [`ScheduleKind::DepthFirst`] — looped, micro-batches in sequences of
//!   `N_PP`, 1F1B-style (Narayanan et al.'s interleaved schedule — the
//!   paper's depth-first baseline);
//! * [`ScheduleKind::BreadthFirst`] — looped, all micro-batches
//!   breadth-first per stage: **the paper's schedule** (Figure 4d).
//!
//! On top of the raw orders, this crate provides what the paper's analysis
//! needs:
//!
//! * [`Schedule::validate`] — structural and executability checking (no
//!   cross-device deadlock);
//! * [`Schedule::exact_timing`] — an exact unit-cost timing of the
//!   schedule, from which the *measured* pipeline bubble is derived and
//!   shown to match Eqs. (3)/(7);
//! * [`Schedule::stage_runs`] — the contiguous same-(stage, direction)
//!   runs of each device's order, which determine how often fully sharded
//!   data parallelism must re-gather weights and re-reduce gradients
//!   (§4.2, Appendix A.3.1) — the structural reason breadth-first
//!   composes with `DP_FS` and the others do not;
//! * [`Schedule::peak_checkpoints_per_device`] — live activation
//!   checkpoints over time (Appendix A.2.2);
//! * [`bubble`] — the closed-form Eq. (3)/(7) bubble bound, stated as a
//!   provable lower bound on any schedule's makespan (what the
//!   configuration search prunes against).
//!
//! ```
//! use bfpp_core::{Schedule, ScheduleKind};
//! use bfpp_parallel::Placement;
//!
//! // Figure 4 setup: 16 layers, 4 devices, 4 stages/device, 8 micro-batches.
//! let placement = Placement::looping(4, 4);
//! let s = Schedule::generate(ScheduleKind::BreadthFirst, placement, 8).unwrap();
//! s.validate().expect("breadth-first schedules are valid by construction");
//! let timing = s.exact_timing(1, 2);
//! // Eq. (7): bubble = (N_PP - 1) / (N_mb * N_loop) = 3/32.
//! assert!((timing.bubble_overhead() - 3.0 / 32.0).abs() < 1e-9);
//! ```

mod action;
pub mod bubble;
mod generators;
mod memory;
mod runs;
mod schedule;
mod timing;
mod validate;

pub use action::{Action, Direction};
pub use runs::StageRun;
pub use schedule::{Schedule, ScheduleError, ScheduleKind};
pub use timing::{ActionTiming, ExactTiming};
pub use validate::ValidateError;
