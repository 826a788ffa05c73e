//! # bfpp-sim — deterministic timeline solver
//!
//! A small discrete-event simulation substrate used by the rest of the
//! `bfpp` workspace to predict the wall-clock behaviour of distributed
//! training runs.
//!
//! The central abstraction is an [`OpGraph`]: a set of operations, each
//! bound to a *resource* (an execution stream such as a GPU compute stream
//! or a network link direction), with a fixed duration and a set of
//! dependencies on other operations. Resources execute their operations
//! **in submission order** (FIFO), exactly like CUDA streams: an operation
//! launched on a stream cannot overtake an earlier one even if its
//! dependencies resolve first. Overlap between *different* resources (e.g.
//! compute and communication) is what the Breadth-First Pipeline
//! Parallelism paper exploits, and this solver models it exactly.
//!
//! The solver ([`OpGraph::solve`]) is deterministic and produces a
//! [`Timeline`] with a start/end time for every operation, from which
//! makespan and per-resource utilization ([`Timeline::resource_stats`])
//! can be derived.
//!
//! ```
//! use bfpp_sim::{OpGraph, SimDuration};
//!
//! let mut g: OpGraph<&'static str> = OpGraph::new();
//! let compute = g.add_resource("compute");
//! let net = g.add_resource("net");
//! let a = g.add_op(compute, SimDuration::from_micros(10), &[], "fwd");
//! let x = g.add_op(net, SimDuration::from_micros(4), &[a], "send");
//! let b = g.add_op(compute, SimDuration::from_micros(10), &[], "fwd2");
//! let timeline = g.solve().expect("acyclic");
//! // `b` overlaps with `x` because they run on different resources.
//! assert_eq!(timeline.makespan(), SimDuration::from_micros(20));
//! assert_eq!(timeline.end_of(x), bfpp_sim::SimTime::ZERO + SimDuration::from_micros(14));
//! # let _ = b;
//! ```

mod graph;
pub mod json;
pub mod memprof;
pub mod metrics;
pub mod observe;
mod perturb;
#[cfg(any(test, feature = "reference-solver"))]
mod reference;
mod solver;
mod stats;
mod time;
mod trace;

pub use graph::{Op, OpGraph, OpId, ResourceId};
pub use memprof::{
    BufferClass, DeviceMemModel, DeviceMemTimeline, EventEdge, LinkSpan, MemEffect, MemEvent,
    MemoryPeaks, MemoryProfile, MemorySpec, PeakAttribution,
};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use observe::{
    attribute, ArgValue, Breakdown, Category, ChromeTraceWriter, OpCategory, ResourceBreakdown,
    TraceOp, Track,
};
pub use perturb::{Draws, OpClass, Perturbation, SlotDraw};
pub use solver::{
    DeadlockError, DurationTable, ReplayWorkspace, ScheduledOp, SolveScratch, SolveStats, Solver,
    Timeline,
};
pub use stats::{ResourceStats, UtilizationSummary};
pub use time::{SimDuration, SimTime};
pub use trace::{AsciiTimelineOptions, TraceRow};
