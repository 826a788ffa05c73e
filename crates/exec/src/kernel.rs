//! The kernel-efficiency model.
//!
//! The simulator needs to convert flops into seconds. GPUs do not run
//! transformer kernels at peak: achieved throughput depends on
//! *thread-level parallelism* (§3.1 — enough rows in the GEMMs, i.e.
//! tokens per micro-batch) and on the *width* of the weight matrices on
//! this device (tensor parallelism slices them `N_TP` ways). We model the
//! achievable fraction of peak as a product of two saturation terms:
//!
//! `eff = eff_max · t/(t + t_half) · w/(w + w_half)`
//!
//! with `t = S_mb · S_seq` (tokens per kernel launch) and
//! `w = S_hidden / N_TP` (sliced width).
//!
//! Calibration (documented in DESIGN.md §4): `eff_max = 0.65`,
//! `t_half = 128`, `w_half = 1024` put the best V100 configurations in
//! the paper's observed 50–62 Tflop/s band and reproduce the observed
//! penalty of high tensor parallelism and tiny micro-batches. The *shape*
//! of the efficiency surface, not its absolute level, is what the
//! reproduction claims.

use bfpp_model::TransformerConfig;

/// Achievable-fraction-of-peak model for transformer kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModel {
    /// Ceiling on the achievable fraction of peak flop/s.
    pub eff_max: f64,
    /// Tokens per kernel at which thread-level parallelism reaches half
    /// of its asymptote.
    pub token_half: f64,
    /// Sliced hidden width at which kernel width efficiency reaches half
    /// of its asymptote.
    pub width_half: f64,
}

impl KernelModel {
    /// Calibration for V100 (the paper's evaluation hardware).
    pub fn v100() -> Self {
        KernelModel {
            eff_max: 0.65,
            token_half: 128.0,
            width_half: 1024.0,
        }
    }

    /// Calibration for A100: slightly lower achievable fraction (the
    /// conclusion notes the memory-bandwidth bottleneck "worsens with
    /// every new generation") and a higher saturation width.
    pub fn a100() -> Self {
        KernelModel {
            eff_max: 0.60,
            token_half: 192.0,
            width_half: 1536.0,
        }
    }

    /// An idealized device that always runs at peak — useful in tests to
    /// isolate scheduling effects from kernel effects.
    pub fn ideal() -> Self {
        KernelModel {
            eff_max: 1.0,
            token_half: 0.0,
            width_half: 0.0,
        }
    }

    /// The achievable fraction of peak for a layer kernel processing a
    /// micro-batch of `s_mb` sequences under `n_tp`-way tensor
    /// parallelism. Always in `(0, eff_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `s_mb` or `n_tp` is zero, if `eff_max` is not in
    /// `(0, 1]`, or if `token_half` or `width_half` is negative or not
    /// finite. A zero, negative or NaN efficiency would make
    /// [`KernelModel::seconds`] infinite or NaN, which a duration
    /// rounds to zero: every kernel would cost nothing.
    pub fn efficiency(&self, model: &TransformerConfig, s_mb: u32, n_tp: u32) -> f64 {
        assert!(s_mb > 0, "micro-batch size must be positive");
        assert!(n_tp > 0, "N_TP must be positive");
        assert!(
            self.eff_max > 0.0 && self.eff_max <= 1.0,
            "eff_max must be in (0, 1], got {}",
            self.eff_max
        );
        for (name, half) in [
            ("token_half", self.token_half),
            ("width_half", self.width_half),
        ] {
            assert!(
                half.is_finite() && half >= 0.0,
                "{name} must be finite and non-negative, got {half}"
            );
        }
        let t = s_mb as f64 * model.seq_length as f64;
        let w = model.hidden_size as f64 / n_tp as f64;
        self.eff_max * (t / (t + self.token_half)) * (w / (w + self.width_half))
    }

    /// Seconds to execute `flops` floating-point operations at
    /// `peak_flops` peak and the given efficiency context.
    pub fn seconds(
        &self,
        model: &TransformerConfig,
        s_mb: u32,
        n_tp: u32,
        flops: f64,
        peak_flops: f64,
    ) -> f64 {
        flops / (peak_flops * self.efficiency(model, s_mb, n_tp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_model::presets;

    #[test]
    fn efficiency_increases_with_microbatch() {
        let k = KernelModel::v100();
        let m = presets::bert_6_6b();
        let e1 = k.efficiency(&m, 1, 1);
        let e4 = k.efficiency(&m, 4, 1);
        assert!(e4 > e1);
        assert!(e4 <= k.eff_max);
    }

    #[test]
    fn efficiency_decreases_with_tensor_parallelism() {
        let k = KernelModel::v100();
        let m = presets::bert_52b();
        assert!(k.efficiency(&m, 1, 1) > k.efficiency(&m, 1, 8));
    }

    #[test]
    fn big_models_saturate_higher() {
        // §3.1: "larger ones generally allow for a high kernel efficiency
        // even for small micro-batches".
        let k = KernelModel::v100();
        let small = presets::bert_6_6b();
        let large = presets::bert_52b();
        assert!(k.efficiency(&large, 1, 8) > k.efficiency(&small, 1, 8));
    }

    #[test]
    fn calibration_is_in_the_papers_band() {
        // The best observed 52 B throughput in Table E.1 is ~62 Tflop/s on
        // a 125 Tflop/s V100 (~50%); our model must land in that band for
        // the good configurations.
        let k = KernelModel::v100();
        let m = presets::bert_52b();
        let frac = k.efficiency(&m, 4, 2);
        let tflops = frac * 125.0;
        assert!(
            (50.0..68.0).contains(&tflops),
            "calibration off: {tflops} Tflop/s"
        );
    }

    #[test]
    fn ideal_model_runs_at_peak() {
        let k = KernelModel::ideal();
        let m = presets::bert_6_6b();
        assert_eq!(k.efficiency(&m, 1, 8), 1.0);
        assert_eq!(k.seconds(&m, 1, 8, 125e12, 125e12), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_microbatch_rejected() {
        KernelModel::v100().efficiency(&presets::bert_52b(), 0, 1);
    }

    /// `KernelModel::v100()` with one field replaced, asked for an
    /// efficiency.
    fn efficiency_with(patch: impl FnOnce(&mut KernelModel)) -> f64 {
        let mut k = KernelModel::v100();
        patch(&mut k);
        k.efficiency(&presets::bert_52b(), 1, 1)
    }

    #[test]
    #[should_panic(expected = "eff_max must be in (0, 1], got 0")]
    fn zero_eff_max_rejected() {
        efficiency_with(|k| k.eff_max = 0.0);
    }

    #[test]
    #[should_panic(expected = "eff_max must be in (0, 1], got NaN")]
    fn nan_eff_max_rejected() {
        efficiency_with(|k| k.eff_max = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "eff_max must be in (0, 1], got -0.5")]
    fn negative_eff_max_rejected() {
        efficiency_with(|k| k.eff_max = -0.5);
    }

    #[test]
    #[should_panic(expected = "eff_max must be in (0, 1], got inf")]
    fn infinite_eff_max_rejected() {
        efficiency_with(|k| k.eff_max = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "token_half must be finite and non-negative, got NaN")]
    fn nan_token_half_rejected() {
        efficiency_with(|k| k.token_half = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "token_half must be finite and non-negative, got -1")]
    fn negative_token_half_rejected() {
        efficiency_with(|k| k.token_half = -1.0);
    }

    #[test]
    #[should_panic(expected = "width_half must be finite and non-negative, got inf")]
    fn infinite_width_half_rejected() {
        efficiency_with(|k| k.width_half = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "width_half must be finite and non-negative, got NaN")]
    fn nan_width_half_rejected() {
        efficiency_with(|k| k.width_half = f64::NAN);
    }
}
