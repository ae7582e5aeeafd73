//! Transformer reference models (§II of the paper).
//!
//! Provides the model configurations the paper evaluates TRON on
//! (BERT-base/large, GPT-2, ViT-B/16), a static operation census for the
//! performance model, and an executable fp64 reference implementation of
//! the encoder/decoder stack used to validate the photonic functional
//! simulation and the 8-bit quantization claim.

use phox_tensor::{quant, Matrix, Prng, TensorError};

use crate::census::OpCensus;
use crate::engine::{Digital, TransformerEngine};

/// Which parts of the original transformer a model keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformerKind {
    /// Encoder-only (BERT-style).
    EncoderOnly,
    /// Decoder-only with causal masking (GPT-style).
    DecoderOnly,
    /// Vision transformer: encoder stack over patch embeddings.
    Vision,
    /// The full original architecture of Fig. 1: an encoder stack feeding
    /// a decoder stack through cross-attention.
    EncoderDecoder,
}

impl std::fmt::Display for TransformerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformerKind::EncoderOnly => write!(f, "encoder-only"),
            TransformerKind::DecoderOnly => write!(f, "decoder-only"),
            TransformerKind::Vision => write!(f, "vision"),
            TransformerKind::EncoderDecoder => write!(f, "encoder-decoder"),
        }
    }
}

/// Nonlinearity of the feed-forward block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfActivation {
    /// ReLU, as in the original transformer ("two dense layers with a RELU
    /// activation in between", §II).
    Relu,
    /// GELU, as in BERT/GPT-2.
    Gelu,
}

/// Hyper-parameters of a transformer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Human-readable model name.
    pub name: String,
    /// Encoder/decoder/vision.
    pub kind: TransformerKind,
    /// Number of stacked layers (`N` in Fig. 1).
    pub layers: usize,
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads (`H`).
    pub heads: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Sequence length the workload runs at.
    pub seq_len: usize,
    /// Feed-forward nonlinearity.
    pub ff_activation: FfActivation,
}

impl TransformerConfig {
    /// BERT-base: 12 layers, d=768, 12 heads, d_ff=3072.
    pub fn bert_base(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("BERT-base/s{seq_len}"),
            kind: TransformerKind::EncoderOnly,
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            seq_len,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// BERT-large: 24 layers, d=1024, 16 heads, d_ff=4096.
    pub fn bert_large(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("BERT-large/s{seq_len}"),
            kind: TransformerKind::EncoderOnly,
            layers: 24,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
            seq_len,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// GPT-2 (117M): 12 decoder layers, d=768, 12 heads, d_ff=3072.
    pub fn gpt2(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("GPT-2/s{seq_len}"),
            kind: TransformerKind::DecoderOnly,
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            seq_len,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// ViT-B/16: 12 encoder layers over 196 patches + class token.
    pub fn vit_b16() -> Self {
        TransformerConfig {
            name: "ViT-B/16".to_owned(),
            kind: TransformerKind::Vision,
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            seq_len: 197,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// The original "Attention is All You Need" base model: 6 encoder +
    /// 6 decoder layers, d=512, 8 heads, d_ff=2048, ReLU.
    pub fn transformer_base(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("Transformer-base/s{seq_len}"),
            kind: TransformerKind::EncoderDecoder,
            layers: 6,
            d_model: 512,
            heads: 8,
            d_ff: 2048,
            seq_len,
            ff_activation: FfActivation::Relu,
        }
    }

    /// A small configuration for functional (value-level) simulation and
    /// tests — same structure, laptop-friendly size.
    pub fn tiny(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("tiny/s{seq_len}"),
            kind: TransformerKind::EncoderOnly,
            layers: 2,
            d_model: 32,
            heads: 4,
            d_ff: 64,
            seq_len,
            ff_activation: FfActivation::Relu,
        }
    }

    /// Validates divisibility and non-zero dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when a dimension is zero
    /// or `d_model` is not divisible by `heads`.
    pub fn validated(self) -> Result<Self, TensorError> {
        if self.layers == 0
            || self.d_model == 0
            || self.heads == 0
            || self.d_ff == 0
            || self.seq_len == 0
        {
            return Err(TensorError::InvalidDimension {
                what: "transformer dimensions must be non-zero",
            });
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(TensorError::InvalidDimension {
                what: "d_model must be divisible by the head count",
            });
        }
        Ok(self)
    }

    /// Per-head dimension `d_k = d_model / heads`.
    pub fn d_head(&self) -> usize {
        self.d_model / self.heads
    }

    /// Parameter count of the stack (attention + FF + LN weights).
    pub fn parameter_count(&self) -> u64 {
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;
        // Q,K,V,O projections + two FF mats + 2 LN (gamma,beta).
        let per_layer = 4 * d * d + 2 * d * ff + 4 * d;
        match self.kind {
            TransformerKind::EncoderDecoder => {
                // Encoder layers plus decoder layers, each decoder layer
                // adding a cross-attention block (4 more projections and
                // one more LN).
                let per_decoder = per_layer + 4 * d * d + 2 * d;
                (per_layer + per_decoder) * self.layers as u64
            }
            _ => per_layer * self.layers as u64,
        }
    }

    /// Static operation census of one inference at `seq_len`.
    pub fn census(&self) -> OpCensus {
        let s = self.seq_len as u64;
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;

        // Per layer:
        // QKV projections: 3·s·d·d MACs; output projection: s·d·d.
        let proj_macs = 4 * s * d * d;
        // Attention scores Q·Kᵀ: s·s·d; attention × V: s·s·d.
        let attn_macs = 2 * s * s * d;
        // Feed-forward: s·d·ff + s·ff·d.
        let ff_macs = 2 * s * d * ff;
        // Softmax over H per-head score matrices of s×s each.
        let softmax_elements = self.heads as u64 * s * s;
        // Two LayerNorms of s×d each; two residual adds of s×d each.
        let layernorm_elements = 2 * s * d;
        let adds = 2 * s * d;
        // FF activation on s×ff.
        let activation_elements = s * ff;

        let per_layer = OpCensus {
            macs: proj_macs + attn_macs + ff_macs,
            adds,
            softmax_elements,
            layernorm_elements,
            activation_elements,
            weight_bytes: 4 * d * d + 2 * d * ff + 4 * d,
            activation_bytes: s * d.max(ff),
            // Weights stream in once per layer; activations stay on chip.
            offchip_bytes: 4 * d * d + 2 * d * ff + 4 * d,
        };
        match self.kind {
            TransformerKind::EncoderDecoder => {
                // A decoder layer adds a cross-attention block: Q from
                // the target, K/V from the encoder memory, plus the
                // output projection, per-head softmax and a third
                // residual + LayerNorm.
                let cross = OpCensus {
                    macs: 4 * s * d * d + 2 * s * s * d,
                    adds: s * d,
                    softmax_elements: self.heads as u64 * s * s,
                    layernorm_elements: s * d,
                    activation_elements: 0,
                    weight_bytes: 4 * d * d + 2 * d,
                    activation_bytes: s * d,
                    offchip_bytes: 4 * d * d + 2 * d,
                };
                let decoder_layer = per_layer.combine(&cross);
                per_layer
                    .repeat(self.layers as u64)
                    .combine(&decoder_layer.repeat(self.layers as u64))
            }
            _ => per_layer.repeat(self.layers as u64),
        }
    }
}

/// Weights of one transformer layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Query projection, `d_model x d_model`.
    pub w_q: Matrix,
    /// Key projection, `d_model x d_model`.
    pub w_k: Matrix,
    /// Value projection, `d_model x d_model`.
    pub w_v: Matrix,
    /// Output projection, `d_model x d_model`.
    pub w_o: Matrix,
    /// First feed-forward matrix, `d_model x d_ff`.
    pub w_ff1: Matrix,
    /// Second feed-forward matrix, `d_ff x d_model`.
    pub w_ff2: Matrix,
    /// Post-attention LayerNorm gain.
    pub ln1_gamma: Vec<f64>,
    /// Post-attention LayerNorm bias.
    pub ln1_beta: Vec<f64>,
    /// Post-FF LayerNorm gain.
    pub ln2_gamma: Vec<f64>,
    /// Post-FF LayerNorm bias.
    pub ln2_beta: Vec<f64>,
}

/// Weights of one decoder layer: a full self-attention layer plus the
/// cross-attention block that reads the encoder memory.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderLayerWeights {
    /// The self-attention + feed-forward half (identical structure to an
    /// encoder layer; self-attention is causally masked).
    pub base: LayerWeights,
    /// Cross-attention query projection (from the decoder state).
    pub w_cq: Matrix,
    /// Cross-attention key projection (from the encoder memory).
    pub w_ck: Matrix,
    /// Cross-attention value projection (from the encoder memory).
    pub w_cv: Matrix,
    /// Cross-attention output projection.
    pub w_co: Matrix,
    /// Post-cross-attention LayerNorm gain.
    pub ln_cross_gamma: Vec<f64>,
    /// Post-cross-attention LayerNorm bias.
    pub ln_cross_beta: Vec<f64>,
}

/// An executable transformer with materialized weights.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: TransformerConfig,
    layers: Vec<LayerWeights>,
    decoder_layers: Vec<DecoderLayerWeights>,
}

impl TransformerModel {
    /// Materializes a model with Xavier-initialised random weights.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    ///
    /// # Example
    ///
    /// ```
    /// use phox_nn::transformer::{TransformerConfig, TransformerModel};
    ///
    /// # fn main() -> Result<(), phox_tensor::TensorError> {
    /// let model = TransformerModel::random(TransformerConfig::tiny(8), 42)?;
    /// let x = phox_tensor::Prng::new(1).fill_normal(8, 32, 0.0, 1.0);
    /// let y = model.forward(&x)?;
    /// assert_eq!(y.shape(), (8, 32));
    /// # Ok(())
    /// # }
    /// ```
    pub fn random(config: TransformerConfig, seed: u64) -> Result<Self, TensorError> {
        let config = config.validated()?;
        let mut rng = Prng::new(seed);
        let d = config.d_model;
        let ff = config.d_ff;
        let mk_layer = |rng: &mut Prng| LayerWeights {
            w_q: rng.xavier(d, d),
            w_k: rng.xavier(d, d),
            w_v: rng.xavier(d, d),
            w_o: rng.xavier(d, d),
            w_ff1: rng.xavier(d, ff),
            w_ff2: rng.xavier(ff, d),
            ln1_gamma: vec![1.0; d],
            ln1_beta: vec![0.0; d],
            ln2_gamma: vec![1.0; d],
            ln2_beta: vec![0.0; d],
        };
        let layers = (0..config.layers).map(|_| mk_layer(&mut rng)).collect();
        let decoder_layers = if config.kind == TransformerKind::EncoderDecoder {
            (0..config.layers)
                .map(|_| DecoderLayerWeights {
                    base: mk_layer(&mut rng),
                    w_cq: rng.xavier(d, d),
                    w_ck: rng.xavier(d, d),
                    w_cv: rng.xavier(d, d),
                    w_co: rng.xavier(d, d),
                    ln_cross_gamma: vec![1.0; d],
                    ln_cross_beta: vec![0.0; d],
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(TransformerModel {
            config,
            layers,
            decoder_layers,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// The encoder (or single-stack) layer weights.
    pub fn layers(&self) -> &[LayerWeights] {
        &self.layers
    }

    /// The decoder layer weights (empty unless the model is
    /// [`TransformerKind::EncoderDecoder`]).
    pub fn decoder_layers(&self) -> &[DecoderLayerWeights] {
        &self.decoder_layers
    }

    /// Full-precision reference forward pass over `x`
    /// (`seq_len x d_model`). For an encoder-decoder model this runs the
    /// full pipeline with `x` as both source and target (the standard
    /// structure-validation setting); use
    /// [`TransformerModel::forward_seq2seq`] for distinct sequences.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(x, &mut Digital::F64)
    }

    /// Full-precision sequence-to-sequence pass: encodes `src`, then
    /// decodes `tgt` against the encoder memory through the
    /// cross-attention blocks (Fig. 1).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for non-encoder-decoder
    /// models and shape errors for mismatched inputs.
    pub fn forward_seq2seq(&self, src: &Matrix, tgt: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_seq2seq_with(src, tgt, &mut Digital::F64)
    }

    /// [`TransformerModel::forward_seq2seq`] with fake int8 quantization
    /// on every matmul operand.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::forward_seq2seq`].
    pub fn forward_seq2seq_quantized(
        &self,
        src: &Matrix,
        tgt: &Matrix,
    ) -> Result<Matrix, TensorError> {
        self.forward_seq2seq_with(src, tgt, &mut Digital::Pre(&quant::fake_quantize))
    }

    /// [`TransformerModel::forward_seq2seq`] executed on the true int8
    /// datapath: every weight product runs on the `i8 x i8 -> i32` kernel
    /// with one dequantization at the output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::forward_seq2seq`].
    pub fn forward_seq2seq_int8(&self, src: &Matrix, tgt: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_seq2seq_with(src, tgt, &mut Digital::Int8)
    }

    /// Forward pass with fake int8 quantization applied to every operand
    /// (weights and activations) — the digital 8-bit reference the
    /// photonic datapath is validated against.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration.
    pub fn forward_quantized(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(x, &mut Digital::Pre(&quant::fake_quantize))
    }

    /// Forward pass on the true int8 datapath: projections execute on the
    /// `i8 x i8 -> i32` GEMM kernel (operands quantized, exact integer
    /// accumulation, one dequantization per product), while softmax,
    /// LayerNorm and residual adds stay in f64 — matching the
    /// digital/LUT periphery of the accelerator. Contrast with
    /// [`TransformerModel::forward_quantized`], which only *models* 8-bit
    /// rounding inside an f64 pass.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration.
    pub fn forward_int8(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(x, &mut Digital::Int8)
    }

    /// Full-precision causal forward over an arbitrary-length prefix of
    /// a decoder-only model: like [`TransformerModel::forward`] but
    /// accepting any row count `>= 1` instead of exactly `seq_len` (the
    /// reference stack has no positional encodings, so nothing pins the
    /// length). This is the oracle the KV-cached incremental decode in
    /// [`crate::decode`] is validated against, prefix by prefix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for models that are not
    /// decoder-only and shape errors for mismatched inputs.
    pub fn forward_prefix(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_prefix_with(x, &mut Digital::F64)
    }

    /// [`TransformerModel::forward_prefix`] on the true int8 datapath
    /// (per-row activation quantization — see
    /// [`crate::int8::QuantLinear::forward_rowwise`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::forward_prefix`].
    pub fn forward_prefix_int8(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_prefix_with(x, &mut Digital::Int8)
    }

    /// Shared prefix-forward implementation over `x` (`t × d_model`,
    /// any `t >= 1`), causal by construction (decoder-only).
    fn forward_prefix_with(
        &self,
        x: &Matrix,
        eng: &mut Digital<'_>,
    ) -> Result<Matrix, TensorError> {
        if self.config.kind != TransformerKind::DecoderOnly {
            return Err(TensorError::InvalidDimension {
                what: "prefix forward requires a decoder-only model",
            });
        }
        if x.rows() == 0 || x.cols() != self.config.d_model {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: (1, self.config.d_model),
            });
        }
        self.encode(x, eng)
    }

    /// Forward pass with fake quantization at an arbitrary bit width —
    /// the precision-sensitivity analysis (heterogeneous-quantization
    /// direction of the paper's CrossLight/SONIC lineage).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for `bits` outside
    /// `2..=16` and shape errors for mismatched inputs.
    pub fn forward_quantized_bits(&self, x: &Matrix, bits: u32) -> Result<Matrix, TensorError> {
        // Validate once up front so the closure cannot fail.
        quant::fake_quantize_bits(&Matrix::zeros(1, 1), bits)?;
        let pre = move |m: &Matrix| {
            quant::fake_quantize_bits(m, bits)
                .unwrap_or_else(|_| unreachable!("bit width validated above"))
        };
        self.forward_with(x, &mut Digital::Pre(&pre))
    }

    /// The transformer forward, written once for every backend: `eng`
    /// decides how each operation executes — fp64, fake-quant or int8
    /// here, TRON's photonic datapath in `phox-tron`. An encoder-decoder
    /// model runs [`TransformerModel::forward_seq2seq_with`] with `x` as
    /// both source and target.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration,
    /// and propagates backend failures.
    pub fn forward_with<E: TransformerEngine>(
        &self,
        x: &Matrix,
        eng: &mut E,
    ) -> Result<Matrix, E::Error> {
        self.check_input(x)?;
        if self.config.kind == TransformerKind::EncoderDecoder {
            return self.forward_seq2seq_with(x, x, eng);
        }
        self.encode(x, eng)
    }

    /// The sequence-to-sequence forward on any backend: encode `src`,
    /// then decode `tgt` through causal self-attention and
    /// cross-attention against the encoder memory.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for non-encoder-decoder
    /// models and shape errors for mismatched inputs, converted into the
    /// backend's error; propagates backend failures.
    pub fn forward_seq2seq_with<E: TransformerEngine>(
        &self,
        src: &Matrix,
        tgt: &Matrix,
        eng: &mut E,
    ) -> Result<Matrix, E::Error> {
        if self.config.kind != TransformerKind::EncoderDecoder {
            return Err(TensorError::InvalidDimension {
                what: "seq2seq forward requires an encoder-decoder model",
            }
            .into());
        }
        self.check_input(src)?;
        self.check_input(tgt)?;
        let memory = self.encode(src, eng)?;
        let heads = self.config.heads;
        let mut h = tgt.clone();
        for dw in &self.decoder_layers {
            h = self.layer(eng, &h, &dw.base, Some((&memory, dw)), |eng, q, k, v| {
                eng.attention(q, k, v, heads, true)
            })?;
        }
        Ok(h)
    }

    fn check_input(&self, x: &Matrix) -> Result<(), TensorError> {
        if x.rows() != self.config.seq_len || x.cols() != self.config.d_model {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: (self.config.seq_len, self.config.d_model),
            });
        }
        Ok(())
    }

    /// Runs `x` through the encoder (or only) stack; self-attention is
    /// causal for decoder-only models.
    fn encode<E: TransformerEngine>(&self, x: &Matrix, eng: &mut E) -> Result<Matrix, E::Error> {
        let causal = self.config.kind == TransformerKind::DecoderOnly;
        let heads = self.config.heads;
        let mut h = x.clone();
        for lw in &self.layers {
            h = self.layer(eng, &h, lw, None, |eng, q, k, v| {
                eng.attention(q, k, v, heads, causal)
            })?;
        }
        Ok(h)
    }

    /// One transformer layer — the one layer body of every forward,
    /// including the KV-cached decode step. Self-attention maps the Q/K/V
    /// projections to concatenated head contexts through
    /// `self_attention`; a decoder layer of an encoder-decoder model then
    /// runs cross-attention against the encoder `memory`; the
    /// feed-forward block comes last. Each block ends in its residual
    /// add and LayerNorm.
    pub(crate) fn layer<E: TransformerEngine>(
        &self,
        eng: &mut E,
        x: &Matrix,
        lw: &LayerWeights,
        cross: Option<(&Matrix, &DecoderLayerWeights)>,
        self_attention: impl FnOnce(&mut E, &Matrix, &Matrix, &Matrix) -> Result<Matrix, E::Error>,
    ) -> Result<Matrix, E::Error> {
        let heads = {
            let q = eng.mm(x, &lw.w_q)?;
            let k = eng.mm(x, &lw.w_k)?;
            let v = eng.mm(x, &lw.w_v)?;
            self_attention(eng, &q, &k, &v)?
        };
        let mut h = add_norm(eng, x, &heads, &lw.w_o, &lw.ln1_gamma, &lw.ln1_beta)?;
        if let Some((memory, dw)) = cross {
            let heads = {
                let q = eng.mm(&h, &dw.w_cq)?;
                let k = eng.mm(memory, &dw.w_ck)?;
                let v = eng.mm(memory, &dw.w_cv)?;
                eng.attention(&q, &k, &v, self.config.heads, false)?
            };
            h = add_norm(
                eng,
                &h,
                &heads,
                &dw.w_co,
                &dw.ln_cross_gamma,
                &dw.ln_cross_beta,
            )?;
        }
        let inner = eng.mm_weight_only(&h, &lw.w_ff1)?;
        let activated = eng.ff_activation(self.config.ff_activation, &inner);
        add_norm(eng, &h, &activated, &lw.w_ff2, &lw.ln2_gamma, &lw.ln2_beta)
    }
}

/// `LayerNorm(x + a·w)`: a block's output projection, residual add and
/// LayerNorm.
fn add_norm<E: TransformerEngine>(
    eng: &mut E,
    x: &Matrix,
    a: &Matrix,
    w: &Matrix,
    gamma: &[f64],
    beta: &[f64],
) -> Result<Matrix, E::Error> {
    let y = eng.mm_weight_only(a, w)?;
    let sum = eng.residual_add(x, &y)?;
    eng.layer_norm(&sum, gamma, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::stats;

    #[test]
    fn presets_have_published_shapes() {
        let b = TransformerConfig::bert_base(128);
        assert_eq!((b.layers, b.d_model, b.heads, b.d_ff), (12, 768, 12, 3072));
        let l = TransformerConfig::bert_large(128);
        assert_eq!((l.layers, l.d_model, l.heads, l.d_ff), (24, 1024, 16, 4096));
        let g = TransformerConfig::gpt2(128);
        assert_eq!(g.kind, TransformerKind::DecoderOnly);
        let v = TransformerConfig::vit_b16();
        assert_eq!(v.seq_len, 197);
    }

    #[test]
    fn bert_base_parameter_count_near_published() {
        // BERT-base encoder stack ≈ 85M parameters (the 110M figure
        // includes embeddings, which the accelerator does not compute).
        let p = TransformerConfig::bert_base(128).parameter_count();
        assert!((8.0e7..9.0e7).contains(&(p as f64)), "params = {p}");
    }

    #[test]
    fn census_macs_match_hand_count() {
        let c = TransformerConfig::tiny(8).validated().unwrap();
        let census = c.census();
        let (s, d, ff) = (8u64, 32u64, 64u64);
        let per_layer = 4 * s * d * d + 2 * s * s * d + 2 * s * d * ff;
        assert_eq!(census.macs, per_layer * 2);
    }

    #[test]
    fn census_scales_quadratically_with_seq_for_attention() {
        let short = TransformerConfig::bert_base(128).census();
        let long = TransformerConfig::bert_base(512).census();
        // Attention term grows 16x, projections 4x: total must grow
        // between 4x and 16x.
        let ratio = long.macs as f64 / short.macs as f64;
        assert!(ratio > 4.0 && ratio < 16.0, "ratio = {ratio}");
    }

    #[test]
    fn validation_rejects_bad_heads() {
        let bad = TransformerConfig {
            heads: 5,
            ..TransformerConfig::tiny(8)
        };
        assert!(bad.validated().is_err());
        let zero = TransformerConfig {
            layers: 0,
            ..TransformerConfig::tiny(8)
        };
        assert!(zero.validated().is_err());
    }

    #[test]
    fn forward_output_shape() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Prng::new(2).fill_normal(8, 32, 0.0, 1.0);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.shape(), (8, 32));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_rejects_wrong_shape() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Matrix::zeros(4, 32);
        assert!(m.forward(&x).is_err());
    }

    #[test]
    fn forward_is_deterministic() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 7).unwrap();
        let x = Prng::new(3).fill_normal(8, 32, 0.0, 1.0);
        assert_eq!(m.forward(&x).unwrap(), m.forward(&x).unwrap());
    }

    #[test]
    fn layer_norm_keeps_rows_normalized() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 7).unwrap();
        let x = Prng::new(4).fill_normal(8, 32, 0.0, 1.0);
        let y = m.forward(&x).unwrap();
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean: f64 = row.iter().sum::<f64>() / row.len() as f64;
            assert!(mean.abs() < 1e-6, "row {r} mean {mean}");
        }
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        // In a decoder, changing the *last* token must not affect the
        // *first* token's output.
        let cfg = TransformerConfig {
            kind: TransformerKind::DecoderOnly,
            ..TransformerConfig::tiny(8)
        };
        let m = TransformerModel::random(cfg, 9).unwrap();
        let x1 = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
        let mut x2 = x1.clone();
        for c in 0..32 {
            x2.set(7, c, x2.get(7, c) + 1.0);
        }
        let y1 = m.forward(&x1).unwrap();
        let y2 = m.forward(&x2).unwrap();
        for c in 0..32 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-9);
        }
        // But the last token's output does change.
        let mut changed = false;
        for c in 0..32 {
            if (y1.get(7, c) - y2.get(7, c)).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn encoder_has_no_causal_mask() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 9).unwrap();
        let x1 = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
        let mut x2 = x1.clone();
        for c in 0..32 {
            x2.set(7, c, x2.get(7, c) + 1.0);
        }
        let y1 = m.forward(&x1).unwrap();
        let y2 = m.forward(&x2).unwrap();
        let mut changed = false;
        for c in 0..32 {
            if (y1.get(0, c) - y2.get(0, c)).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed, "encoder token 0 should see token 7");
    }

    #[test]
    fn quantized_forward_tracks_full_precision() {
        let m = TransformerModel::random(TransformerConfig::tiny(16), 11).unwrap();
        let x = Prng::new(6).fill_normal(16, 32, 0.0, 1.0);
        let y = m.forward(&x).unwrap();
        let yq = m.forward_quantized(&x).unwrap();
        let err = stats::relative_error(&y, &yq);
        assert!(err < 0.15, "int8 relative error {err}");
    }
}

#[cfg(test)]
mod encoder_decoder_tests {
    use super::*;

    fn tiny_encdec(seed: u64) -> TransformerModel {
        let cfg = TransformerConfig {
            kind: TransformerKind::EncoderDecoder,
            ..TransformerConfig::tiny(8)
        };
        TransformerModel::random(cfg, seed).unwrap()
    }

    #[test]
    fn transformer_base_preset_shapes() {
        let c = TransformerConfig::transformer_base(64);
        assert_eq!(c.kind, TransformerKind::EncoderDecoder);
        assert_eq!((c.layers, c.d_model, c.heads, c.d_ff), (6, 512, 8, 2048));
        // "Attention is All You Need" base: ~44M attention/FF parameters
        // in the 6+6 stack (the 65M figure includes embeddings).
        let p = c.parameter_count();
        assert!((4.0e7..6.0e7).contains(&(p as f64)), "params {p}");
    }

    #[test]
    fn encdec_census_exceeds_encoder_only() {
        let enc = TransformerConfig::tiny(8);
        let encdec = TransformerConfig {
            kind: TransformerKind::EncoderDecoder,
            ..TransformerConfig::tiny(8)
        };
        // Decoder stack roughly doubles the MACs and adds cross-attention.
        assert!(encdec.census().macs > 2 * enc.census().macs);
        assert!(encdec.census().softmax_elements > 2 * enc.census().softmax_elements);
    }

    #[test]
    fn seq2seq_forward_shapes_and_determinism() {
        let m = tiny_encdec(7);
        let src = Prng::new(8).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(9).fill_normal(8, 32, 0.0, 1.0);
        let y = m.forward_seq2seq(&src, &tgt).unwrap();
        assert_eq!(y.shape(), (8, 32));
        assert_eq!(y, m.forward_seq2seq(&src, &tgt).unwrap());
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_on_encdec_uses_x_as_both_sequences() {
        let m = tiny_encdec(11);
        let x = Prng::new(12).fill_normal(8, 32, 0.0, 1.0);
        assert_eq!(m.forward(&x).unwrap(), m.forward_seq2seq(&x, &x).unwrap());
    }

    #[test]
    fn decoder_self_attention_is_causal_cross_is_not() {
        let m = tiny_encdec(13);
        let src = Prng::new(14).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(15).fill_normal(8, 32, 0.0, 1.0);
        let y1 = m.forward_seq2seq(&src, &tgt).unwrap();
        // Perturb the last target token: earlier target outputs must not
        // change (causal self-attention).
        let mut tgt2 = tgt.clone();
        for c in 0..32 {
            tgt2.set(7, c, tgt2.get(7, c) + 1.0);
        }
        let y2 = m.forward_seq2seq(&src, &tgt2).unwrap();
        for c in 0..32 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-9);
        }
        // Perturb the last *source* token: every target output may change
        // (cross-attention is bidirectional over the memory).
        let mut src2 = src.clone();
        for c in 0..32 {
            src2.set(7, c, src2.get(7, c) + 1.0);
        }
        let y3 = m.forward_seq2seq(&src2, &tgt).unwrap();
        let mut changed = false;
        for c in 0..32 {
            if (y1.get(0, c) - y3.get(0, c)).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed, "cross-attention should expose source changes");
    }

    #[test]
    fn seq2seq_rejects_non_encdec_models() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Matrix::zeros(8, 32);
        assert!(m.forward_seq2seq(&x, &x).is_err());
        assert!(m.decoder_layers().is_empty());
    }

    #[test]
    fn seq2seq_quantized_tracks_full_precision() {
        let m = tiny_encdec(17);
        let src = Prng::new(18).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(19).fill_normal(8, 32, 0.0, 1.0);
        let fp = m.forward_seq2seq(&src, &tgt).unwrap();
        let q = m.forward_seq2seq_quantized(&src, &tgt).unwrap();
        assert!(phox_tensor::stats::relative_error(&fp, &q) < 0.2);
    }

    #[test]
    fn decoder_layer_count_matches_config() {
        let m = tiny_encdec(21);
        assert_eq!(m.decoder_layers().len(), 2);
        assert_eq!(m.layers().len(), 2);
    }
}

/// The context lengths the decode steps of an autoregressive generation
/// actually see: step `i` (producing generated token `i + 1`) attends
/// over `prompt + i` rows, so the contexts are exactly
/// `prompt..prompt + gen_tokens` (mean `prompt + (gen_tokens - 1) / 2`,
/// *not* `prompt + gen_tokens / 2`). Both the static
/// [`TransformerConfig::generation_census`] and TRON's
/// `simulate_generation` iterate this one range so their context
/// arithmetic cannot drift apart — and both are pinned against the MACs
/// the functional decode path in [`crate::decode`] executes.
pub fn decode_context_lengths(prompt: usize, gen_tokens: usize) -> std::ops::Range<usize> {
    prompt..prompt + gen_tokens
}

/// Total context rows summed over every decode step:
/// `Σ_{i=0}^{g-1} (p + i) = g·p + g·(g−1)/2` (exact — `g·(g−1)` is
/// always even, so no integer truncation). The closed form of summing
/// [`decode_context_lengths`]; zero when `gen_tokens` is zero.
pub fn decode_context_rows(prompt: u64, gen_tokens: u64) -> u64 {
    gen_tokens * prompt + gen_tokens * gen_tokens.saturating_sub(1) / 2
}

impl TransformerConfig {
    /// Operation census for autoregressive *generation*: a prefill pass
    /// over the `seq_len`-token prompt followed by `gen_tokens`
    /// incremental decode steps with a KV cache (each step recomputes
    /// only the new token's projections and attends over the grown
    /// context). The LLM-serving workload the paper's motivation points
    /// at, beyond the single forward pass its figures measure.
    ///
    /// Context-dependent terms are summed *exactly* over the per-step
    /// contexts `seq_len..seq_len + gen_tokens`
    /// ([`decode_context_rows`]); the decode MAC total equals the MAC
    /// count the functional KV-cache path reports (pinned by the
    /// `decode_equiv` suite).
    pub fn generation_census(&self, gen_tokens: usize) -> OpCensus {
        let prefill = self.census();
        if gen_tokens == 0 {
            return prefill;
        }
        let p = self.seq_len as u64;
        let g = gen_tokens as u64;
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;
        // Exact total context rows over all decode steps (replaces the
        // old per-step integer mean `p + g/2`, which was off by one on
        // average and truncated).
        let ctx_rows = decode_context_rows(p, g);

        // Per layer, summed over the g decode steps (m = 1 row each):
        let proj_macs = g * 4 * d * d; // Q,K,V of the new token + out proj
        let attn_macs = 2 * d * ctx_rows; // scores + context over the cache
        let ff_macs = g * 2 * d * ff;
        let per_layer = OpCensus {
            macs: proj_macs + attn_macs + ff_macs,
            adds: g * 2 * d,
            softmax_elements: self.heads as u64 * ctx_rows,
            layernorm_elements: g * 2 * d,
            activation_elements: g * ff,
            // Weights re-streamed every step (the decode memory wall);
            // KV-cache reads grow with the context.
            weight_bytes: g * (4 * d * d + 2 * d * ff + 4 * d),
            // Peak resident activation: the cache at its final size.
            activation_bytes: (p + g - 1) * d,
            offchip_bytes: g * (4 * d * d + 2 * d * ff + 4 * d) + 2 * ctx_rows * d,
        };
        let decode = per_layer.repeat(self.layers as u64);
        prefill.combine(&decode)
    }
}
