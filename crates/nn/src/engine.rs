//! The backend seam the model forwards are written against.
//!
//! Each model family has one forward in this crate:
//! [`TransformerModel::forward_with`](crate::transformer::TransformerModel::forward_with)
//! (whose layer body the seq2seq, prefix and KV-cached decode paths
//! share) and [`GnnModel::forward_with`](crate::gnn::GnnModel::forward_with).
//! A backend decides how the operations that differ between digital and
//! photonic execution run: the weight products ([`MatmulEngine`]), the
//! transformer periphery ([`TransformerEngine`]) and the GNN reduce and
//! update stages ([`GnnEngine`]). Only `mm_weight_only` has a default
//! (the backend's own `mm`), so a backend never falls back silently to
//! digital execution.
//!
//! The digital backends here reproduce the fp64, fake-quant and int8
//! references; the photonic ones are the TRON and GHOST functional
//! simulators.

use std::collections::HashMap;
use std::marker::PhantomData;

use phox_tensor::sparse::{self, CsrView};
use phox_tensor::{ops, Matrix, TensorError};

use crate::gnn::{self, Aggregation, CsrGraph};
use crate::int8::QuantLinear;
use crate::transformer::FfActivation;

/// How a forward pass executes its weight products. The two methods
/// distinguish the operand sites of the fake-quant reference: `mm`
/// covers projections where *both* operands are treated (Q/K/V,
/// cross-attention, GNN combine), `mm_weight_only` the sites where the
/// reference only treats the weight (attention output projection and the
/// feed-forward block, whose activations come out of LayerNorm/softmax
/// already conditioned). Both fail on an inner-dimension mismatch.
pub trait MatmulEngine {
    /// The backend's error; tensor-shape failures raised by the shared
    /// forward convert into it.
    type Error: From<TensorError>;

    /// `a · w` with both operands through the backend's precision model.
    fn mm(&mut self, a: &Matrix, w: &Matrix) -> Result<Matrix, Self::Error>;

    /// `a · w` at a site where the fake-quant reference treats only the
    /// weight. A backend without such sites (true int8, the photonic
    /// datapaths) runs it as [`MatmulEngine::mm`].
    fn mm_weight_only(&mut self, a: &Matrix, w: &Matrix) -> Result<Matrix, Self::Error> {
        self.mm(a, w)
    }
}

/// The transformer operations other than weight products. Each fails on
/// mismatched operand shapes.
pub trait TransformerEngine: MatmulEngine {
    /// Multi-head scaled-dot-product attention: `q`, `k` and `v` split
    /// into `heads` equal column slices; returns the per-head contexts
    /// concatenated in head order (Fig. 5(b) buffer & concat), before the
    /// output projection. All heads are one hook, so a backend may run
    /// them in parallel.
    fn attention(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
        causal: bool,
    ) -> Result<Matrix, Self::Error>;

    /// The residual connection `x + y`.
    fn residual_add(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, Self::Error>;

    /// Row-wise LayerNorm with gain `gamma` and bias `beta`.
    fn layer_norm(
        &mut self,
        x: &Matrix,
        gamma: &[f64],
        beta: &[f64],
    ) -> Result<Matrix, Self::Error>;

    /// The feed-forward nonlinearity.
    fn ff_activation(&mut self, f: FfActivation, x: &Matrix) -> Matrix;
}

/// The GNN operations other than the combine products. Each fails when
/// its feature matrix does not have one row per graph vertex.
pub trait GnnEngine: MatmulEngine {
    /// Reduces each vertex's in-neighbour rows of `h` (plus its own row
    /// when `include_self`) with `agg`.
    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, Self::Error>;

    /// GAT aggregation of the transformed features `z`: each vertex `v`
    /// softmaxes `LeakyReLU(src_logit[u] + dst_logit[v])` over its
    /// in-neighbours `u` and sums their `z` rows with those weights. An
    /// isolated vertex keeps its own row.
    fn attention_aggregate(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src_logit: &[f64],
        dst_logit: &[f64],
    ) -> Result<Matrix, Self::Error>;

    /// The ReLU update after every hidden layer.
    fn hidden_relu(&mut self, h: &Matrix) -> Matrix;
}

/// Sets every score of a future position (`c > r`) to `-∞`: the causal
/// mask of decoder self-attention.
pub fn mask_future(scores: &mut Matrix) {
    for r in 0..scores.rows() {
        for c in (r + 1)..scores.cols() {
            scores.set(r, c, f64::NEG_INFINITY);
        }
    }
}

/// Concatenates equally shaped per-head contexts column-wise, in head
/// order.
pub fn concat_heads(contexts: &[Matrix]) -> Matrix {
    let (rows, dh) = contexts.first().map_or((0, 0), Matrix::shape);
    let mut out = Matrix::zeros(rows, dh * contexts.len());
    for (head, ctx) in contexts.iter().enumerate() {
        for r in 0..rows {
            out.row_mut(r)[head * dh..(head + 1) * dh].copy_from_slice(ctx.row(r));
        }
    }
    out
}

/// The digital reference backends.
pub(crate) enum Digital<'w> {
    /// Full-precision f64.
    F64,
    /// Applies `pre` (fake quantization) to the operands the 8-bit
    /// accuracy reference treats.
    Pre(&'w dyn Fn(&Matrix) -> Matrix),
    /// True int8: every weight product runs through [`QuantLinear`] —
    /// both operands quantized, exact `i32` accumulation — and GNN
    /// aggregation uses the int8 sparse kernel. Activations are
    /// calibrated per row, so a one-row decode step is bit-identical to
    /// the matching row of a full-sequence forward. The hardware model
    /// has no weight-only sites: everything entering the MAC array is
    /// 8-bit.
    Int8,
    /// [`Digital::Int8`] with each weight quantized once and kept
    /// resident across calls, as the accelerator holds weights during
    /// decode. Weight quantization is deterministic, so this is
    /// bitwise-neutral. Weights are keyed by `(data pointer, rows,
    /// cols)`; the lifetime ties the memo to a borrow of the weights'
    /// owner, so a key never outlives (and thus never aliases) the weight
    /// it describes.
    Resident(
        HashMap<(usize, usize, usize), QuantLinear>,
        PhantomData<&'w ()>,
    ),
}

impl<'w> Digital<'w> {
    /// A resident int8 backend whose memo lives as long as the borrow of
    /// the weights' owner (typically the model).
    pub fn resident<T>(_weights: &'w T) -> Self {
        Digital::Resident(HashMap::new(), PhantomData)
    }

    fn int8(&self) -> bool {
        matches!(self, Digital::Int8 | Digital::Resident(..))
    }
}

impl MatmulEngine for Digital<'_> {
    type Error = TensorError;

    fn mm(&mut self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        match self {
            Digital::F64 => a.matmul(w),
            Digital::Pre(pre) => pre(a).matmul(&pre(w)),
            Digital::Int8 => QuantLinear::from_weight(w).forward_rowwise(a),
            Digital::Resident(memo, _) => memo
                .entry((w.as_slice().as_ptr() as usize, w.rows(), w.cols()))
                .or_insert_with(|| QuantLinear::from_weight(w))
                .forward_rowwise(a),
        }
    }

    fn mm_weight_only(&mut self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        match self {
            Digital::Pre(pre) => a.matmul(&pre(w)),
            _ => self.mm(a, w),
        }
    }
}

impl TransformerEngine for Digital<'_> {
    fn attention(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
        causal: bool,
    ) -> Result<Matrix, TensorError> {
        let dh = q.cols() / heads;
        let contexts = (0..heads)
            .map(|head| {
                let (lo, hi) = (head * dh, head * dh + dh);
                let kh = k.col_slice(lo, hi)?;
                let mut scores = q
                    .col_slice(lo, hi)?
                    .matmul(&kh.transpose())?
                    .scale(1.0 / (dh as f64).sqrt());
                if causal {
                    mask_future(&mut scores);
                }
                // Sequential accumulation over the context dimension: the
                // masked tail beyond row r carries exact-zero weights, so
                // a KV-cached decode step (context t, no tail) reproduces
                // row t-1 of this product bit-for-bit. See
                // [`ops::matmul_seq`].
                ops::matmul_seq(&ops::softmax_rows(&scores), &v.col_slice(lo, hi)?)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(concat_heads(&contexts))
    }

    fn residual_add(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, TensorError> {
        x.add(y)
    }

    fn layer_norm(
        &mut self,
        x: &Matrix,
        gamma: &[f64],
        beta: &[f64],
    ) -> Result<Matrix, TensorError> {
        ops::layer_norm(x, gamma, beta, 1e-9)
    }

    fn ff_activation(&mut self, f: FfActivation, x: &Matrix) -> Matrix {
        match f {
            FfActivation::Relu => ops::relu(x),
            FfActivation::Gelu => ops::gelu(x),
        }
    }
}

impl GnnEngine for Digital<'_> {
    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, TensorError> {
        if self.int8() {
            gnn::aggregate_i8(graph, h, agg, include_self)
        } else {
            gnn::aggregate_f64(graph, h, agg, include_self)
        }
    }

    /// Attention coefficients stay in f64 on every digital backend: on
    /// the accelerator they live in the digital/LUT periphery.
    fn attention_aggregate(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src_logit: &[f64],
        dst_logit: &[f64],
    ) -> Result<Matrix, TensorError> {
        // Per-edge weights laid out CSR-aligned, so the accumulation is
        // one weighted SpMM through the sparse kernel.
        let n = graph.num_nodes();
        let offsets = graph.offsets();
        let mut alphas = vec![0.0; graph.num_edges()];
        for v in 0..n {
            let slot = &mut alphas[offsets[v]..offsets[v + 1]];
            for (a, &u) in slot.iter_mut().zip(graph.neighbors(v)) {
                *a = ops::leaky_relu_scalar(src_logit[u as usize] + dst_logit[v], 0.2);
            }
            ops::softmax_in_place(slot);
        }
        let attention = CsrView::new(n, n, offsets, graph.neighbor_ids(), Some(&alphas))?;
        let mut out = sparse::spmm(&attention, z)?;
        for v in (0..n).filter(|&v| graph.degree(v) == 0) {
            out.row_mut(v).copy_from_slice(z.row(v));
        }
        Ok(out)
    }

    fn hidden_relu(&mut self, h: &Matrix) -> Matrix {
        ops::relu(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::{quant, stats, Prng};

    #[test]
    fn int8_engine_tracks_f64_product() {
        let a = Prng::new(3).fill_normal(6, 12, 0.0, 1.0);
        let w = Prng::new(4).xavier(12, 5);
        let exact = a.matmul(&w).unwrap();
        let int8 = Digital::Int8.mm(&a, &w).unwrap();
        assert!(stats::relative_error(&exact, &int8) < 0.1);
        assert_eq!(int8, Digital::Int8.mm_weight_only(&a, &w).unwrap());
    }

    #[test]
    fn resident_engine_matches_stateless_bitwise() {
        let w1 = Prng::new(9).xavier(10, 4);
        let w2 = Prng::new(10).xavier(10, 4);
        let x = Prng::new(11).fill_normal(3, 10, 0.0, 1.0);
        let weights = (w1, w2);
        let mut resident = Digital::resident(&weights);
        for w in [&weights.0, &weights.1] {
            // Twice per weight: the second call hits the memo.
            for _ in 0..2 {
                assert_eq!(
                    resident.mm(&x, w).unwrap(),
                    Digital::Int8.mm(&x, w).unwrap()
                );
            }
        }
        assert!(matches!(&resident, Digital::Resident(memo, _) if memo.len() == 2));
        assert!(resident.int8());
    }

    #[test]
    fn pre_engine_reproduces_legacy_semantics() {
        let a = Prng::new(5).fill_normal(4, 8, 0.0, 1.0);
        let w = Prng::new(6).xavier(8, 3);
        let mut eng = Digital::Pre(&quant::fake_quantize);
        let expected_both = quant::fake_quantize(&a)
            .matmul(&quant::fake_quantize(&w))
            .unwrap();
        assert_eq!(eng.mm(&a, &w).unwrap(), expected_both);
        let expected_weight_only = a.matmul(&quant::fake_quantize(&w)).unwrap();
        assert_eq!(eng.mm_weight_only(&a, &w).unwrap(), expected_weight_only);
        assert!(!eng.int8());
    }

    #[test]
    fn concat_heads_places_heads_in_order() {
        let heads = [Matrix::filled(2, 3, 1.0), Matrix::filled(2, 3, 2.0)];
        let out = concat_heads(&heads);
        assert_eq!(out.shape(), (2, 6));
        assert_eq!(out.row(1), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let mut scores = Matrix::zeros(3, 3);
        mask_future(&mut scores);
        assert_eq!(scores.get(0, 2), f64::NEG_INFINITY);
        assert_eq!(scores.get(2, 0), 0.0);
    }
}
