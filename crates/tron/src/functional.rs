//! Functional (value-level) simulation of the TRON analog datapath.
//!
//! Runs an actual transformer forward pass through the modelled photonic
//! pipeline: int8 DAC quantization of every operand, signed arithmetic
//! via the balanced-photodetector positive/negative arms (§V.C), analog
//! noise injection at the receiver, 8-bit ADC read-back with per-tile
//! auto-ranging, LUT softmax, optical LayerNorm and coherent-summation
//! residuals. Used to validate that the accelerator computes the same
//! results as the digital int8 reference within noise tolerance.
//!
//! The forward itself is `phox-nn`'s one transformer forward
//! ([`TransformerModel::forward_with`]); [`TronFunctional`] is its
//! photonic backend. The signal-chain arithmetic lives in
//! [`phox_photonics::analog::AnalogEngine`] and the fault runtime in
//! [`FaultAwareEngine`].

use phox_nn::engine::{concat_heads, mask_future, MatmulEngine, TransformerEngine};
use phox_nn::transformer::{FfActivation, TransformerModel};
use phox_photonics::analog::AnalogEngine;
use phox_photonics::devices::OpticalActivation;
use phox_photonics::fault::{Datapath, FaultAwareEngine, FaultPlan, FaultSchedule};
use phox_photonics::{Ctx, PhotonicError};
use phox_tensor::{parallel, Matrix};

use crate::config::TronConfig;

/// Functional TRON simulator: executes a [`TransformerModel`] through the
/// analog engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TronFunctional {
    engine: FaultAwareEngine,
}

fn datapath(config: &TronConfig) -> Datapath {
    Datapath {
        mr: config.mr,
        tuning: config.tuning,
        noise: config.noise,
        adc_bits: config.adc.bits,
        dac_bits: config.dac.bits,
        array_rows: config.array_rows,
        array_channels: config.array_channels,
    }
}

impl TronFunctional {
    fn from_engine(engine: FaultAwareEngine) -> Self {
        TronFunctional { engine }
    }

    /// Builds the functional simulator with receiver noise derived from
    /// the configuration's provisioned 8-bit optical budget.
    ///
    /// # Errors
    ///
    /// Propagates noise-budget failures.
    pub fn new(config: &TronConfig, seed: u64) -> Result<Self, PhotonicError> {
        FaultAwareEngine::new(&datapath(config), seed).map(Self::from_engine)
    }

    /// Builds a noiseless simulator (quantization effects only).
    pub fn ideal(config: &TronConfig, seed: u64) -> Self {
        Self::from_engine(FaultAwareEngine::ideal(&datapath(config), seed))
    }

    /// Builds a simulator with an explicit receiver noise level, for
    /// robustness sweeps beyond the provisioned operating point.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn with_noise(
        config: &TronConfig,
        relative_sigma: f64,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        FaultAwareEngine::with_noise(&datapath(config), relative_sigma, seed).map(Self::from_engine)
    }

    /// Builds a simulator with injected device faults
    /// ([`FaultAwareEngine::with_faults`]); the degradation applies to
    /// every analog operation, including the per-head child engines.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the plan is out of geometry
    /// or a fault is uncompensatable.
    pub fn with_faults(
        config: &TronConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        FaultAwareEngine::with_faults(&datapath(config), plan, seed)
            .ctx("injecting device faults into TRON")
            .map(Self::from_engine)
    }

    /// Builds a simulator driven by a model-time [`FaultSchedule`]: call
    /// [`TronFunctional::advance_to`] before each forward pass. An empty
    /// schedule is a strict no-op — the simulator behaves byte-identically
    /// to [`TronFunctional::new`].
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the schedule geometry does
    /// not match the accelerator, or a fault active at `t = 0` is
    /// uncompensatable.
    pub fn with_fault_schedule(
        config: &TronConfig,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        FaultAwareEngine::with_fault_schedule(&datapath(config), schedule, seed)
            .ctx("attaching fault schedule to TRON")
            .map(Self::from_engine)
    }

    /// Advances the fault schedule to model time `t_s`
    /// ([`FaultAwareEngine::advance_to`]).
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when a newly active fault is
    /// uncompensatable: the accelerator is down, not silently wrong.
    pub fn advance_to(&mut self, t_s: f64) -> Result<(), PhotonicError> {
        self.engine
            .advance_to(t_s)
            .ctx("advancing TRON fault schedule")
    }

    /// The attached fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.engine.fault_schedule()
    }

    /// The underlying analog engine.
    pub fn engine(&self) -> &AnalogEngine {
        self.engine.engine()
    }

    /// Runs the photonic forward pass of `model` on `x`
    /// (`seq_len × d_model`). Encoder-decoder models run the full
    /// pipeline with `x` as both source and target; use
    /// [`TronFunctional::forward_seq2seq`] for distinct sequences.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn forward(
        &mut self,
        model: &TransformerModel,
        x: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        model.forward_with(x, self)
    }

    /// Photonic sequence-to-sequence pass: encode `src`, decode `tgt`
    /// through the cross-attention blocks.
    ///
    /// # Errors
    ///
    /// Returns an error for non-encoder-decoder models or shape
    /// mismatches.
    pub fn forward_seq2seq(
        &mut self,
        model: &TransformerModel,
        src: &Matrix,
        tgt: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        model.forward_seq2seq_with(src, tgt, self)
    }
}

/// Every weight product runs on the analog MAC array; the hardware has
/// no weight-only sites.
impl MatmulEngine for TronFunctional {
    type Error = PhotonicError;

    fn mm(&mut self, a: &Matrix, w: &Matrix) -> Result<Matrix, PhotonicError> {
        self.engine.engine_mut().matmul(a, w)
    }
}

impl TransformerEngine for TronFunctional {
    /// Analog multi-head attention: per-head optical Q·Kᵀ (eq. (3) keeps
    /// it fully analog), digital LUT softmax and optical context matmul.
    ///
    /// Heads run in parallel, each on a deterministic child engine keyed
    /// by `(operation key, head index)` — see
    /// [`AnalogEngine::make_child`] — so the result is bit-identical for
    /// any thread count.
    fn attention(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
        causal: bool,
    ) -> Result<Matrix, PhotonicError> {
        let dh = q.cols() / heads;
        let parent = self.engine.engine_mut();
        let key = parent.stream_key();
        let parent = &*parent;
        let contexts = parallel::par_map_indexed(heads, |head| {
            let mut engine = parent.make_child(key, head as u64);
            let (lo, hi) = (head * dh, head * dh + dh);
            let qh = q.col_slice(lo, hi).ctx("slicing query head columns")?;
            let kh = k.col_slice(lo, hi).ctx("slicing key head columns")?;
            let vh = v.col_slice(lo, hi).ctx("slicing value head columns")?;
            let mut scores = engine
                .matmul(&qh, &kh.transpose())?
                .scale(1.0 / (dh as f64).sqrt());
            if causal {
                mask_future(&mut scores);
            }
            let attn = engine.lut_softmax(&scores);
            engine.matmul(&attn, &vh)
        });
        Ok(concat_heads(
            &contexts.into_iter().collect::<Result<Vec<_>, _>>()?,
        ))
    }

    /// Coherent residual addition.
    fn residual_add(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, PhotonicError> {
        self.engine.engine_mut().coherent_add(x, y)
    }

    /// Optical LayerNorm.
    fn layer_norm(
        &mut self,
        x: &Matrix,
        gamma: &[f64],
        beta: &[f64],
    ) -> Result<Matrix, PhotonicError> {
        self.engine.engine_mut().optical_layer_norm(x, gamma, beta)
    }

    /// ReLU maps onto an SOA; GELU is realised digitally between
    /// conversions (modelled as exact).
    fn ff_activation(&mut self, f: FfActivation, x: &Matrix) -> Matrix {
        match f {
            FfActivation::Relu => self
                .engine
                .engine_mut()
                .soa_activate(OpticalActivation::Relu, x),
            FfActivation::Gelu => phox_tensor::ops::gelu(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_nn::transformer::TransformerConfig;
    use phox_tensor::{stats, Prng};

    fn tiny_model(seed: u64) -> TransformerModel {
        TransformerModel::random(TransformerConfig::tiny(8), seed).unwrap()
    }

    #[test]
    fn functional_forward_tracks_reference() {
        let model = tiny_model(21);
        let x = Prng::new(22).fill_normal(8, 32, 0.0, 1.0);
        let reference = model.forward(&x).unwrap();
        let mut sim = TronFunctional::new(&TronConfig::default(), 23).unwrap();
        let photonic = sim.forward(&model, &x).unwrap();
        let err = stats::relative_error(&reference, &photonic);
        assert!(err < 0.35, "photonic forward error {err}");
    }

    #[test]
    fn ideal_functional_is_bounded() {
        let model = tiny_model(31);
        let x = Prng::new(32).fill_normal(8, 32, 0.0, 1.0);
        let reference = model.forward(&x).unwrap();
        let mut ideal = TronFunctional::ideal(&TronConfig::default(), 33);
        let mut noisy = TronFunctional::new(&TronConfig::default(), 33).unwrap();
        let e_ideal = stats::relative_error(&reference, &ideal.forward(&model, &x).unwrap());
        let e_noisy = stats::relative_error(&reference, &noisy.forward(&model, &x).unwrap());
        assert!(e_ideal < 0.3, "ideal err {e_ideal}");
        assert!(e_noisy < 0.5, "noisy err {e_noisy}");
        assert!(noisy.engine().relative_sigma() > 0.0);
        assert_eq!(ideal.engine().relative_sigma(), 0.0);
    }

    #[test]
    fn int8_counters_fire_during_forward() {
        let model = tiny_model(61);
        let x = Prng::new(62).fill_normal(8, 32, 0.0, 1.0);
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || {
            let mut sim = TronFunctional::new(&TronConfig::default(), 63).unwrap();
            sim.forward(&model, &x).unwrap();
        });
        let counters = trace.counters();
        for name in ["analog_gemm_calls", "analog_macs"] {
            assert!(
                counters
                    .iter()
                    .any(|(track, n, _)| track == "int8" && n == name),
                "missing int8/{name} counter: {counters:?}"
            );
        }
        assert!(
            counters
                .iter()
                .any(|(track, n, _)| track == "analog" && n == "scratch_reuse_hits"),
            "missing analog/scratch_reuse_hits counter"
        );
    }

    #[test]
    fn functional_forward_shape_validation() {
        let model = tiny_model(41);
        let mut sim = TronFunctional::ideal(&TronConfig::default(), 42);
        let bad = Matrix::zeros(4, 32);
        assert!(sim.forward(&model, &bad).is_err());
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let model = tiny_model(51);
        let x = Prng::new(52).fill_normal(8, 32, 0.0, 1.0);
        let mut a = TronFunctional::new(&TronConfig::default(), 53).unwrap();
        let mut b = TronFunctional::new(&TronConfig::default(), 53).unwrap();
        assert_eq!(
            a.forward(&model, &x).unwrap(),
            b.forward(&model, &x).unwrap()
        );
    }

    #[test]
    fn forward_is_thread_count_invariant() {
        let model = tiny_model(55);
        let x = Prng::new(56).fill_normal(8, 32, 0.0, 1.0);
        let reference = parallel::with_threads(1, || {
            let mut sim = TronFunctional::new(&TronConfig::default(), 57).unwrap();
            sim.forward(&model, &x).unwrap()
        });
        for threads in [2, 8] {
            let y = parallel::with_threads(threads, || {
                let mut sim = TronFunctional::new(&TronConfig::default(), 57).unwrap();
                sim.forward(&model, &x).unwrap()
            });
            assert_eq!(y, reference, "threads={threads}");
        }
    }

    #[test]
    fn quantization_agreement_with_digital_int8() {
        // The analog path should agree with the digital int8 reference
        // about as well as int8 agrees with fp64.
        let model = tiny_model(61);
        let x = Prng::new(62).fill_normal(8, 32, 0.0, 1.0);
        let int8 = model.forward_quantized(&x).unwrap();
        let mut sim = TronFunctional::ideal(&TronConfig::default(), 63);
        let analog = sim.forward(&model, &x).unwrap();
        let err = stats::relative_error(&int8, &analog);
        assert!(err < 0.3, "analog vs int8 error {err}");
    }
}

#[cfg(test)]
mod encoder_decoder_tests {
    use super::*;
    use phox_nn::transformer::{TransformerConfig, TransformerKind};
    use phox_tensor::{stats, Prng};

    fn encdec_model(seed: u64) -> TransformerModel {
        let cfg = TransformerConfig {
            kind: TransformerKind::EncoderDecoder,
            ..TransformerConfig::tiny(8)
        };
        TransformerModel::random(cfg, seed).unwrap()
    }

    #[test]
    fn seq2seq_tracks_digital_reference() {
        let model = encdec_model(71);
        let src = Prng::new(72).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(73).fill_normal(8, 32, 0.0, 1.0);
        let reference = model.forward_seq2seq(&src, &tgt).unwrap();
        let mut sim = TronFunctional::new(&TronConfig::default(), 74).unwrap();
        let photonic = sim.forward_seq2seq(&model, &src, &tgt).unwrap();
        let err = stats::relative_error(&reference, &photonic);
        assert!(err < 0.45, "seq2seq analog error {err}");
    }

    #[test]
    fn forward_routes_encdec_to_seq2seq() {
        let model = encdec_model(75);
        let x = Prng::new(76).fill_normal(8, 32, 0.0, 1.0);
        let mut a = TronFunctional::ideal(&TronConfig::default(), 77);
        let mut b = TronFunctional::ideal(&TronConfig::default(), 77);
        assert_eq!(
            a.forward(&model, &x).unwrap(),
            b.forward_seq2seq(&model, &x, &x).unwrap()
        );
    }

    #[test]
    fn seq2seq_rejects_wrong_kind_and_shape() {
        let enc_only = TransformerModel::random(TransformerConfig::tiny(8), 78).unwrap();
        let x = Matrix::zeros(8, 32);
        let mut sim = TronFunctional::ideal(&TronConfig::default(), 79);
        assert!(sim.forward_seq2seq(&enc_only, &x, &x).is_err());
        let model = encdec_model(80);
        let bad = Matrix::zeros(4, 32);
        assert!(sim.forward_seq2seq(&model, &x, &bad).is_err());
    }
}
