//! # bfpp-bench — the benchmark harness
//!
//! One driver per table and figure of the paper. The `reproduce_*`
//! binaries print CSV (plus, where it helps, ASCII timelines) with the
//! same rows/series the paper reports; `reproduce_all` runs everything.
//! The Criterion benches under `benches/` measure the harness's own
//! moving parts (solver, schedule generation, collectives, search,
//! training step).

pub mod cli;
pub mod figures;
pub mod report;
pub mod robustness;
pub mod tables;

pub use cli::BenchArgs;

/// Writes a Chrome-trace JSON string to `path` and confirms on stderr
/// (stderr so the CSV on stdout stays machine-readable).
///
/// # Panics
///
/// Panics if the file cannot be written — in a reproduction binary a
/// silently dropped trace is worse than an abort.
pub fn write_trace(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("failed to write trace to {path}: {e}"));
    eprintln!("wrote Chrome trace to {path} (open in ui.perfetto.dev)");
}
