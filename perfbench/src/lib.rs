//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three closed-loop workloads, one op in flight, each in its own
//! process (see `README.md` next to this crate for why each exists and
//! how it was sized):
//!
//! * `regen_paper` — a fresh `reproduce_all` process per op;
//! * `cold_1t` — a cold plan of the CI telemetry request per op;
//! * `whatif_5a` — a round of 398 warm what-if and elastic re-plans per
//!   op.
//!
//! Every request is built from its NDJSON line and every answer is
//! checked ([`checks`]); the traced run times each layer from outside,
//! through its public functions ([`replica`], [`spans`]) and the
//! program's own metrics registry ([`registry`]).

pub mod checks;
pub mod layers;
pub mod registry;
pub mod replica;
pub mod requests;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Stored `whatif_5a` winners: every what-if of every GPU, the link
/// degradation of every cell, and both halves of the elastic flap.
pub const WHATIF_EXPECTATIONS: &str = include_str!("../expect/whatif_5a.tsv");

/// Stored `cold_1t` answers, one per jitter seed.
pub const COLD_EXPECTATIONS: &str = include_str!("../expect/cold_1t.tsv");

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["regen_paper", "cold_1t", "whatif_5a"];
