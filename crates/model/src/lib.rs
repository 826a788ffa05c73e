//! # bfpp-model — analytic transformer model
//!
//! Parameter counts, floating-point operation counts and memory footprints
//! for decoder/encoder-style transformer language models, following the
//! conventions of the Breadth-First Pipeline Parallelism paper
//! (Appendix A):
//!
//! * `N_params ≈ 12 · N_layers · S_hidden²` (plus embeddings),
//! * ≈ 8 flop per parameter per token per batch (2 forward, 4 backward,
//!   2 recomputation under activation checkpointing) — Eq. (9),
//! * per-layer activation memory — Eq. (13),
//! * activation-checkpoint memory — Eq. (14),
//! * training-state memory under the three data-parallel sharding levels —
//!   Eqs. (10)–(12).
//!
//! Presets cover the paper's evaluation models (Table 5.1: the 52 B and
//! 6.6 B BERT models) and the appendix examples (GPT-3 and the
//! trillion-parameter "1T" configuration).
//!
//! ```
//! use bfpp_model::presets;
//!
//! let m = presets::bert_52b();
//! // Table 5.1 row: 64 layers, 64 heads of size 128, hidden 8192, seq 1024.
//! assert_eq!(m.num_layers, 64);
//! assert!((m.total_params() as f64) > 51e9);
//! ```

mod memory;
pub mod presets;
mod transformer;

pub use memory::{
    activation_memory_bytes, checkpoint_memory_per_layer_bytes, state_memory_dp0_bytes,
    state_memory_fs_bytes, state_memory_ps_bytes, StateMemoryRange,
};
pub use transformer::{TransformerConfig, ZeroDimension};
