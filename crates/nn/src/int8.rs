//! True int8 execution for the reference models.
//!
//! The fake-quantization paths (`forward_quantized`) inject 8-bit
//! rounding error into an otherwise f64 forward pass — the right tool
//! for *accuracy* analysis, but every product still runs through the
//! f64 GEMM. This module executes the matmuls the way the 8-bit
//! photonic MAC array does: operands quantized to `i8`, products
//! accumulated exactly in `i32` on the [`phox_tensor::gemm_i8`] kernel,
//! one dequantization at the output ([`QuantLinear`]).
//!
//! Attention softmax, LayerNorm, residual adds and GAT attention
//! coefficients stay in f64: on the accelerator those live in the
//! digital/LUT periphery, not on the optical MAC array, so the int8
//! forward quantizes exactly the operands the photonic datapath sees.
//!
//! The int8 backend of the shared model forwards
//! ([`crate::engine::MatmulEngine`]) routes every weight product through
//! [`QuantLinear`].

use phox_tensor::{Matrix, QuantMatrix, Quantizer, RowQuantMatrix, TensorError};

/// A linear layer with a pre-quantized int8 weight: quantizes the
/// incoming activation, multiplies on the int8 kernel with `i32`
/// accumulation, and dequantizes with the product of the two scales.
///
/// # Example
///
/// ```
/// use phox_nn::int8::QuantLinear;
/// use phox_tensor::Prng;
///
/// # fn main() -> Result<(), phox_tensor::TensorError> {
/// let w = Prng::new(1).xavier(16, 8);
/// let x = Prng::new(2).fill_normal(4, 16, 0.0, 1.0);
/// let layer = QuantLinear::from_weight(&w);
/// let y = layer.forward(&x)?;
/// let exact = x.matmul(&w)?;
/// assert!(phox_tensor::stats::relative_error(&exact, &y) < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLinear {
    qw: QuantMatrix,
}

impl QuantLinear {
    /// Quantizes `w` once (per-tensor symmetric calibration); the weight
    /// stays resident in int8 form, as on the accelerator.
    pub fn from_weight(w: &Matrix) -> Self {
        QuantLinear {
            qw: Quantizer::calibrate(w).quantize(w),
        }
    }

    /// The stored int8 weight.
    pub fn weight(&self) -> &QuantMatrix {
        &self.qw
    }

    /// `x · W` on the int8 kernel: `x` is quantized per call (activations
    /// change every step; weights were quantized once).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols()` differs
    /// from the weight's row count.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        let qx = Quantizer::calibrate(x).quantize(x);
        qx.matmul(&self.qw)
    }

    /// `x · W` with *per-row* (per-token, dynamic) activation
    /// calibration: each row of `x` is quantized against its own absmax,
    /// so a row's result is independent of which other rows share the
    /// batch. This is what makes a one-token KV-cached decode step
    /// reproduce the full-sequence int8 forward bit-for-bit; see
    /// [`phox_tensor::RowQuantMatrix`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols()` differs
    /// from the weight's row count.
    pub fn forward_rowwise(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        RowQuantMatrix::quantize_rows(x).matmul(&self.qw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::{gemm_i8, Prng};

    #[test]
    fn quant_linear_matches_raw_kernel_exactly() {
        let w = Prng::new(1).xavier(16, 8);
        let x = Prng::new(2).fill_normal(4, 16, 0.0, 1.0);
        let layer = QuantLinear::from_weight(&w);
        let y = layer.forward(&x).unwrap();

        let qx = Quantizer::calibrate(&x).quantize(&x);
        let sums =
            gemm_i8::matmul_i32_naive(qx.as_i8_slice(), layer.weight().as_i8_slice(), 4, 16, 8)
                .unwrap();
        let scale = qx.scale() * layer.weight().scale();
        for (i, &s) in sums.iter().enumerate() {
            assert_eq!(y.get(i / 8, i % 8), s as f64 * scale);
        }
    }

    #[test]
    fn quant_linear_shape_mismatch() {
        let layer = QuantLinear::from_weight(&Matrix::zeros(3, 2));
        assert!(layer.forward(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn forward_rowwise_rows_are_batch_independent() {
        // The decode-oracle property at the layer level: a row pushed
        // through alone equals the same row inside a batch, bit for bit.
        let w = Prng::new(7).xavier(12, 6);
        let x = Prng::new(8).fill_normal(5, 12, 0.0, 1.0);
        let layer = QuantLinear::from_weight(&w);
        let batch = layer.forward_rowwise(&x).unwrap();
        for r in 0..x.rows() {
            let alone = Matrix::from_vec(1, 12, x.row(r).to_vec()).unwrap();
            let solo = layer.forward_rowwise(&alone).unwrap();
            assert_eq!(solo.row(0), batch.row(r), "row {r}");
        }
    }
}
