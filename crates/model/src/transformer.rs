//! Transformer configuration, parameter and flop counts.

use std::fmt;

/// An analytic description of a transformer language model.
///
/// The model consists of `num_layers` identical transformer layers
/// (multi-head attention of `num_heads` heads of size `head_size`,
/// followed by a two-layer MLP with hidden size `mlp_size`), preceded by a
/// token embedding and followed by an output (LM head) layer, processed at
/// sequence length `seq_length`.
///
/// The paper assumes the common choices `num_heads × head_size =
/// hidden_size` and `mlp_size = 4 × hidden_size`; the presets follow them,
/// but other shapes are accepted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Model name for reporting.
    pub name: String,
    /// Number of transformer layers (`N_layers`).
    pub num_layers: u32,
    /// Attention heads per layer (`N_heads`).
    pub num_heads: u32,
    /// Size of each attention head (`S_head`).
    pub head_size: u32,
    /// Hidden (embedding) size (`S_hidden`).
    pub hidden_size: u32,
    /// MLP intermediate size (`S_mlp`), typically `4 × hidden_size`.
    pub mlp_size: u32,
    /// Training sequence length (`S_seq`).
    pub seq_length: u32,
    /// Vocabulary size (embedding rows).
    pub vocab_size: u32,
}

impl TransformerConfig {
    /// Creates a configuration with the standard shape
    /// (`hidden = heads × head_size`, `mlp = 4 × hidden`).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        num_layers: u32,
        num_heads: u32,
        head_size: u32,
        seq_length: u32,
        vocab_size: u32,
    ) -> Self {
        let hidden_size = num_heads
            .checked_mul(head_size)
            .expect("hidden size overflow");
        let cfg = TransformerConfig {
            name: name.into(),
            num_layers,
            num_heads,
            head_size,
            hidden_size,
            mlp_size: 4 * hidden_size,
            seq_length,
            vocab_size,
        };
        if let Err(zero) = cfg.check() {
            panic!("{zero}");
        }
        cfg
    }

    /// Checks that every dimension is positive, naming the first that
    /// is zero. The fields are public, so a struct literal skips the
    /// check [`TransformerConfig::new`] panics on; code that must not
    /// panic on such a model (the configuration search yields no
    /// candidate for it) calls this instead.
    ///
    /// ```
    /// use bfpp_model::{presets, TransformerConfig, ZeroDimension};
    ///
    /// let flat = TransformerConfig {
    ///     num_layers: 0,
    ///     ..presets::bert_6_6b()
    /// };
    /// assert_eq!(flat.check(), Err(ZeroDimension("num_layers")));
    /// assert_eq!(presets::bert_6_6b().check(), Ok(()));
    /// ```
    pub fn check(&self) -> Result<(), ZeroDimension> {
        [
            ("num_layers", self.num_layers),
            ("num_heads", self.num_heads),
            ("head_size", self.head_size),
            ("hidden_size", self.hidden_size),
            ("mlp_size", self.mlp_size),
            ("seq_length", self.seq_length),
            ("vocab_size", self.vocab_size),
        ]
        .into_iter()
        .find(|&(_, value)| value == 0)
        .map_or(Ok(()), |(field, _)| Err(ZeroDimension(field)))
    }

    /// Parameters of one transformer layer: `4·h²` for attention
    /// (QKV + output projections) plus `2·h·mlp` for the MLP — `12·h²`
    /// at the standard `mlp = 4h` (the paper's approximation; biases and
    /// layer norms are neglected, as in the paper).
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden_size as u64;
        4 * h * h + 2 * h * self.mlp_size as u64
    }

    /// Parameters of the token embedding (shared with the output head in
    /// BERT/GPT style models, so counted once).
    pub fn embedding_params(&self) -> u64 {
        self.vocab_size as u64 * self.hidden_size as u64
    }

    /// Total parameters: `num_layers × params_per_layer + embedding`.
    pub fn total_params(&self) -> u64 {
        self.num_layers as u64 * self.params_per_layer() + self.embedding_params()
    }

    /// Forward-pass flops for one *token* through one layer:
    /// `2 flop/param` (one multiply-accumulate per parameter), the paper's
    /// convention — attention-score flops are neglected relative to the
    /// matrix multiplies for the large models considered.
    pub fn fwd_flops_per_token_per_layer(&self) -> f64 {
        2.0 * self.params_per_layer() as f64
    }

    /// Backward-pass flops for one token through one layer: `4 flop/param`
    /// (gradients w.r.t. both inputs and weights).
    pub fn bwd_flops_per_token_per_layer(&self) -> f64 {
        4.0 * self.params_per_layer() as f64
    }

    /// Recomputation flops under activation checkpointing: one extra
    /// forward pass, paid during the backward step.
    pub fn recompute_flops_per_token_per_layer(&self) -> f64 {
        self.fwd_flops_per_token_per_layer()
    }

    /// Total flops for one token through one layer for a full training
    /// step with activation checkpointing: `8 flop/param` (Eq. 9 context).
    pub fn total_flops_per_token_per_layer(&self) -> f64 {
        self.fwd_flops_per_token_per_layer()
            + self.bwd_flops_per_token_per_layer()
            + self.recompute_flops_per_token_per_layer()
    }

    /// *Model flops* for a whole batch of `batch_size` sequences: the
    /// flops credited when computing utilization (fwd + bwd, excluding
    /// recomputation, which is overhead — matching how Tflop/s/GPU is
    /// conventionally reported and how the paper counts "total compute").
    pub fn model_flops_per_batch(&self, batch_size: u64) -> f64 {
        let tokens = batch_size as f64 * self.seq_length as f64;
        tokens
            * self.num_layers as f64
            * (self.fwd_flops_per_token_per_layer() + self.bwd_flops_per_token_per_layer())
    }

    /// Hardware flops actually executed per batch (including the
    /// checkpoint recomputation).
    pub fn hardware_flops_per_batch(&self, batch_size: u64) -> f64 {
        let tokens = batch_size as f64 * self.seq_length as f64;
        tokens * self.num_layers as f64 * self.total_flops_per_token_per_layer()
    }

    /// Forward flops of the embedding / output layers per token (two
    /// `h × vocab` matmuls for the LM head; the embedding lookup itself is
    /// bandwidth-bound and counted as zero flops, as is conventional).
    pub fn head_fwd_flops_per_token(&self) -> f64 {
        2.0 * self.embedding_params() as f64
    }

    /// Pipeline-parallel transfer size per token at a stage boundary:
    /// one hidden vector in half precision (2 bytes), per Appendix A.3.2.
    pub fn boundary_bytes_per_token(&self) -> f64 {
        2.0 * self.hidden_size as f64
    }
}

/// A [`TransformerConfig`] dimension that must be positive but is zero,
/// by field name ([`TransformerConfig::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroDimension(pub &'static str);

impl fmt::Display for ZeroDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} must be positive", self.0)
    }
}

impl std::error::Error for ZeroDimension {}

impl fmt::Display for TransformerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1} B params: {} layers x {} hidden, seq {})",
            self.name,
            self.total_params() as f64 / 1e9,
            self.num_layers,
            self.hidden_size,
            self.seq_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TransformerConfig {
        TransformerConfig::new("toy", 4, 8, 16, 128, 1000)
    }

    #[test]
    fn standard_shape_derived() {
        let m = toy();
        assert_eq!(m.hidden_size, 128);
        assert_eq!(m.mlp_size, 512);
    }

    #[test]
    fn params_per_layer_is_12_h_squared() {
        let m = toy();
        let h = m.hidden_size as u64;
        assert_eq!(m.params_per_layer(), 12 * h * h);
    }

    #[test]
    fn total_params_includes_embedding() {
        let m = toy();
        assert_eq!(
            m.total_params(),
            4 * m.params_per_layer() + 1000 * m.hidden_size as u64
        );
    }

    #[test]
    fn flop_ratios_follow_paper_convention() {
        let m = toy();
        let fwd = m.fwd_flops_per_token_per_layer();
        assert_eq!(m.bwd_flops_per_token_per_layer(), 2.0 * fwd);
        assert_eq!(m.recompute_flops_per_token_per_layer(), fwd);
        // 8 flop per parameter per token in total.
        assert_eq!(
            m.total_flops_per_token_per_layer(),
            8.0 * m.params_per_layer() as f64
        );
    }

    #[test]
    fn batch_flop_accounting() {
        let m = toy();
        let b = 3u64;
        let tokens = (b * m.seq_length as u64) as f64;
        assert_eq!(
            m.model_flops_per_batch(b),
            tokens * m.num_layers as f64 * 6.0 * m.params_per_layer() as f64
        );
        assert!(m.hardware_flops_per_batch(b) > m.model_flops_per_batch(b));
    }

    #[test]
    fn boundary_bytes_are_half_precision_hidden() {
        assert_eq!(toy().boundary_bytes_per_token(), 256.0);
    }

    #[test]
    #[should_panic(expected = "num_layers")]
    fn rejects_zero_layers() {
        TransformerConfig::new("bad", 0, 8, 16, 128, 1000);
    }

    #[test]
    fn check_names_each_zero_field() {
        let zeroed = |zero: fn(&mut TransformerConfig)| {
            let mut m = toy();
            zero(&mut m);
            m
        };
        let cases = [
            ("num_layers", zeroed(|m| m.num_layers = 0)),
            ("num_heads", zeroed(|m| m.num_heads = 0)),
            ("head_size", zeroed(|m| m.head_size = 0)),
            ("hidden_size", zeroed(|m| m.hidden_size = 0)),
            ("mlp_size", zeroed(|m| m.mlp_size = 0)),
            ("seq_length", zeroed(|m| m.seq_length = 0)),
            ("vocab_size", zeroed(|m| m.vocab_size = 0)),
        ];
        assert_eq!(toy().check(), Ok(()));
        for (field, m) in cases {
            assert_eq!(m.check(), Err(ZeroDimension(field)));
            assert_eq!(
                m.check().unwrap_err().to_string(),
                format!("{field} must be positive")
            );
        }
    }

    #[test]
    fn display_mentions_name_and_size() {
        let s = toy().to_string();
        assert!(s.contains("toy"));
        assert!(s.contains("layers"));
    }
}
