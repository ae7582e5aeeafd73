//! Generic analog compute engine: value-level simulation of an MR-based
//! photonic datapath, shared by the TRON and GHOST functional
//! simulators.
//!
//! The engine models the full signal chain of one analog operation:
//! int8 DAC quantization of every operand, signed accumulation of the
//! balanced-photodetector difference current in exact level-product
//! counts (the same `i32` accumulators as the digital int8 reference,
//! via [`phox_tensor::gemm_i8`]), receiver noise injected on the
//! accumulated counts, and ADC read-back with per-tile auto-ranging
//! whose code grid coincides with the accumulator grid — so a
//! noiseless, fault-free engine reproduces the digital int8 reference
//! bit for bit.

use phox_tensor::{gemm_i8, ops, parallel, split_seed, Matrix, Prng, Quantizer};

use crate::devices::{OpticalActivation, Soa};
use crate::fault::FaultImpact;
use crate::noise::{perturb, NoiseBudget};
use crate::{Ctx, PhotonicError};

/// Resolved device-fault state carried by an engine: the quantified
/// [`FaultImpact`] plus the bank-array geometry needed to map array
/// coordinates (rows, wavelength channels, receiver lanes) onto matmul
/// indices.
#[derive(Debug, Clone, PartialEq)]
struct FaultState {
    impact: FaultImpact,
    array_rows: usize,
    array_channels: usize,
}

/// Output-tile edge of the analog matmul: each `TILE × TILE` block of the
/// product is one work item with its own noise stream.
pub const TILE: usize = 32;

/// Reusable per-engine matmul scratch: the packed int8 `bᵀ` panel and
/// the flat per-tile accumulator buffer (fixed `TILE × TILE` stride per
/// tile). Capacities persist across calls, so steady-state serving hits
/// the same allocations on every step; the `analog/scratch_reuse_hits`
/// trace counter reports how often each buffer was large enough.
///
/// Scratch is a cache, not engine state: it is excluded from the
/// engine's `PartialEq` and children start with empty buffers.
#[derive(Debug, Clone, Default)]
struct MatmulScratch {
    qbt: Vec<i8>,
    tiles: Vec<f64>,
}

/// A value-level analog compute engine.
///
/// # Example
///
/// ```
/// use phox_photonics::analog::AnalogEngine;
/// use phox_tensor::{Matrix, Prng};
///
/// # fn main() -> Result<(), phox_photonics::PhotonicError> {
/// let mut engine = AnalogEngine::new(2e-3, 8, 8, 42)?;
/// let a = Prng::new(1).fill_normal(4, 8, 0.0, 1.0);
/// let b = Prng::new(2).fill_normal(8, 4, 0.0, 1.0);
/// // Analog matmul: int8 DACs, BPD arms, noise, 8-bit ADC read-back.
/// let y = engine.matmul(&a, &b)?;
/// let exact = a.matmul(&b).expect("shapes agree");
/// assert!(phox_tensor::stats::relative_error(&exact, &y) < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnalogEngine {
    relative_sigma: f64,
    /// The unfaulted receiver noise level. `relative_sigma` is always
    /// `base_sigma ×` the current fault impact's `sigma_scale`, so fault
    /// state can be replaced or cleared mid-run without compounding.
    base_sigma: f64,
    adc_bits: u32,
    dac_bits: u32,
    soa: Soa,
    /// Root seed of the engine's noise-stream family (see [`split_seed`]).
    seed: u64,
    /// Operations issued so far; each matmul takes the next stream key,
    /// so repeated calls draw fresh (but reproducible) noise.
    ops: u64,
    /// Sequential stream for the element-wise perturbation paths
    /// (layer norm, residual add, SOA, coherent sums).
    rng: Prng,
    /// Injected device faults, if any (inherited by child engines).
    faults: Option<FaultState>,
    /// Reusable matmul buffers (see [`MatmulScratch`]).
    scratch: MatmulScratch,
}

/// Scratch buffers are a cache, never observable state: two engines
/// compare equal whenever they would produce identical outputs from
/// here on, regardless of what either one has allocated so far.
impl PartialEq for AnalogEngine {
    fn eq(&self, other: &Self) -> bool {
        self.relative_sigma == other.relative_sigma
            && self.base_sigma == other.base_sigma
            && self.adc_bits == other.adc_bits
            && self.dac_bits == other.dac_bits
            && self.soa == other.soa
            && self.seed == other.seed
            && self.ops == other.ops
            && self.rng == other.rng
            && self.faults == other.faults
    }
}

impl AnalogEngine {
    /// Builds an engine with an explicit receiver noise level.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for a negative sigma or
    /// out-of-range converter resolutions.
    pub fn new(
        relative_sigma: f64,
        adc_bits: u32,
        dac_bits: u32,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        if relative_sigma < 0.0 || !relative_sigma.is_finite() {
            return Err(PhotonicError::InvalidConfig {
                what: "relative sigma must be non-negative and finite",
            });
        }
        if !(1..=16).contains(&adc_bits) || !(1..=16).contains(&dac_bits) {
            return Err(PhotonicError::InvalidConfig {
                what: "converter resolutions must be 1..=16 bits",
            });
        }
        Ok(AnalogEngine {
            relative_sigma,
            base_sigma: relative_sigma,
            adc_bits,
            dac_bits,
            soa: Soa::default(),
            seed,
            ops: 0,
            rng: Prng::new(seed),
            faults: None,
            scratch: MatmulScratch::default(),
        })
    }

    /// Builds an engine whose noise level comes from a [`NoiseBudget`]
    /// provisioned for `bits` of precision.
    ///
    /// # Errors
    ///
    /// Propagates noise-budget failures.
    pub fn from_noise_budget(
        budget: &NoiseBudget,
        bits: u32,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        let rx = budget.required_power_w(bits)?;
        let report = budget.evaluate(rx)?;
        AnalogEngine::new(report.relative_sigma, bits, bits, seed)
    }

    /// A noiseless engine (quantization effects only).
    pub fn ideal(adc_bits: u32, dac_bits: u32, seed: u64) -> Self {
        AnalogEngine {
            relative_sigma: 0.0,
            base_sigma: 0.0,
            adc_bits,
            dac_bits,
            soa: Soa::default(),
            seed,
            ops: 0,
            rng: Prng::new(seed),
            faults: None,
            scratch: MatmulScratch::default(),
        }
    }

    /// Replaces the engine's fault state with `impact` (a zero-fault
    /// impact still marks the engine faulted; use
    /// [`AnalogEngine::clear_faults`] to restore it).
    ///
    /// The receiver noise becomes the unfaulted baseline times the
    /// impact's `sigma_scale` (laser droop), so repeated calls never
    /// compound; subsequent [`AnalogEngine::matmul`] calls apply the
    /// stuck weight cells, the residual drift weight gain, and the dead
    /// ADC lanes. Child engines created afterwards inherit the faults, so
    /// a faulted accelerator is faulted in every parallel unit.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::InvalidConfig`] for a
    /// degenerate geometry or when every receiver lane is dead.
    pub fn set_fault_impact(
        &mut self,
        impact: &FaultImpact,
        array_rows: usize,
        array_channels: usize,
    ) -> Result<(), PhotonicError> {
        if array_rows == 0 || array_channels == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "fault geometry must be non-zero",
            }
            .ctx("injecting device faults"));
        }
        if impact.dead_lanes.len() >= array_rows {
            return Err(PhotonicError::InvalidConfig {
                what: "every receiver lane is dead",
            }
            .ctx("injecting device faults"));
        }
        self.relative_sigma = self.base_sigma * impact.sigma_scale;
        self.faults = Some(FaultState {
            impact: impact.clone(),
            array_rows,
            array_channels,
        });
        Ok(())
    }

    /// Clears all fault state, restoring the unfaulted noise baseline.
    pub fn clear_faults(&mut self) {
        self.relative_sigma = self.base_sigma;
        self.faults = None;
    }

    /// `true` when device faults are injected.
    pub fn faulted(&self) -> bool {
        self.faults.is_some()
    }

    /// Receiver relative noise (σ/signal).
    pub fn relative_sigma(&self) -> f64 {
        self.relative_sigma
    }

    /// Number of output levels of the DAC / LUT grid (`2^dac_bits − 1`):
    /// [`AnalogEngine::lut_softmax_in_place`] emits multiples of
    /// `1 / dac_levels()`, so callers can recover the exact integer LUT
    /// codes for an int8-routed weighted accumulation.
    pub fn dac_levels(&self) -> f64 {
        (2u64.pow(self.dac_bits) - 1) as f64
    }

    /// Takes the next operation stream key.
    ///
    /// Each key roots an independent family of noise streams (one per
    /// output tile / per child unit); advancing a counter rather than
    /// drawing from `rng` keeps the key sequence independent of how many
    /// noise values earlier operations consumed.
    pub fn stream_key(&mut self) -> u64 {
        let key = split_seed(self.seed, self.ops);
        self.ops += 1;
        key
    }

    /// Builds a deterministic child engine for parallel unit `unit` of
    /// the operation keyed by `key` (an attention head, a graph node).
    ///
    /// The child inherits the parent's physical parameters but owns an
    /// independent noise-stream family, so sibling units can run
    /// concurrently while drawing exactly the noise they would draw
    /// serially.
    pub fn make_child(&self, key: u64, unit: u64) -> AnalogEngine {
        let child_seed = split_seed(key, unit);
        AnalogEngine {
            relative_sigma: self.relative_sigma,
            base_sigma: self.base_sigma,
            adc_bits: self.adc_bits,
            dac_bits: self.dac_bits,
            soa: self.soa,
            seed: child_seed,
            ops: 0,
            rng: Prng::new(child_seed),
            faults: self.faults.clone(),
            scratch: MatmulScratch::default(),
        }
    }

    /// Analog matrix multiplication `a · b`.
    ///
    /// The product is computed [`TILE`]`×`[`TILE`] output tile by tile,
    /// in parallel across tiles. Each output element accumulates the
    /// balanced-photodetector difference current in exact level-product
    /// counts — the same `i32` accumulation the digital int8 reference
    /// ([`phox_tensor::QuantMatrix::matmul`]) performs, run through the
    /// [`gemm_i8`] microkernel — and receiver noise perturbs the
    /// accumulated count before dequantization. Each tile draws its
    /// noise from an independent stream keyed on `(engine seed,
    /// operation counter, tile index)`, so the result is
    /// **bit-identical for any thread count** — the tile's noise depends
    /// only on which tile it is, never on which thread computes it or
    /// in what order. The cross-tile `abs_max` reduction for ADC
    /// auto-ranging is a plain `max`, which is order-independent.
    ///
    /// The ADC read-back rounds to the nearest level-product count,
    /// clamped to the auto-ranged window: with the int8 datapath the
    /// accumulator grid *is* the converter's code grid (the TIA gain
    /// maps the tile's dynamic range onto full scale, and the
    /// sub-count quantization residual is subsumed by the receiver
    /// noise term). A noiseless, fault-free engine therefore returns
    /// exactly the digital int8 product. `adc_bits` continues to gate
    /// constructor validation and the digital conversion blocks.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on inner-dimension
    /// mismatch.
    pub fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Result<Matrix, PhotonicError> {
        if a.cols() != b.rows() {
            return Err(PhotonicError::InvalidConfig {
                what: "matmul inner dimensions must agree",
            });
        }
        // DAC stage: symmetric int8 levels.
        let qa = Quantizer::calibrate(a).quantize(a);
        let qb = Quantizer::calibrate(b).quantize(b);
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let full_scale = 127.0 * 127.0 * k as f64;
        let op_key = self.stream_key();
        let sigma = self.relative_sigma;

        let tile_rows = m.div_ceil(TILE);
        let tile_cols = n.div_ceil(TILE).max(1);
        let num_tiles = tile_rows * tile_cols;

        // Reusable scratch, moved out of `self` for the duration of the
        // call so the parallel section can borrow both buffers freely.
        let mut qbt = std::mem::take(&mut self.scratch.qbt);
        let mut tile_vals = std::mem::take(&mut self.scratch.tiles);
        let scratch_hits = i64::from(qbt.capacity() >= k * n)
            + i64::from(tile_vals.capacity() >= num_tiles * TILE * TILE);
        qbt.clear();
        qbt.resize(k * n, 0);
        tile_vals.clear();
        tile_vals.resize(num_tiles * TILE * TILE, 0.0);

        // Pack bᵀ so every output element reads both operands
        // contiguously (blocked copy, same scheme as the digital kernel).
        let qbs = qb.as_i8_slice();
        for r0 in (0..k).step_by(TILE) {
            let r1 = (r0 + TILE).min(k);
            for c0 in (0..n).step_by(TILE) {
                let c1 = (c0 + TILE).min(n);
                for r in r0..r1 {
                    for c in c0..c1 {
                        qbt[c * k + r] = qbs[r * n + c];
                    }
                }
            }
        }

        // Device faults, part 1: a stuck microring forces every weight it
        // carries to its stuck transmission level. Output column `j` is
        // produced by array row `j % array_rows`, and reduction index
        // `kk` rides wavelength channel `kk % array_channels`, so the
        // stuck cell repeats across the logical matrix with the bank
        // geometry's period. The programmed sign survives (it lives in
        // the BPD arm assignment, not the ring bias).
        let (weight_gain, dead_period, dead_lanes): (f64, usize, &[usize]) = match &self.faults {
            Some(fs) => {
                for s in &fs.impact.stuck {
                    #[allow(clippy::cast_possible_truncation)]
                    let level = (s.transmission * 127.0).round() as i8;
                    for j in (s.row..n).step_by(fs.array_rows) {
                        for kk in (s.channel..k).step_by(fs.array_channels) {
                            let w = &mut qbt[j * k + kk];
                            *w = if *w >= 0 { level } else { -level };
                        }
                    }
                }
                (fs.impact.weight_gain, fs.array_rows, &fs.impact.dead_lanes)
            }
            None => (1.0, 1, &[]),
        };

        let qas = qa.as_i8_slice();
        parallel::par_chunks_mut(&mut tile_vals, TILE * TILE, |t, chunk| {
            let (i0, j0) = ((t / tile_cols) * TILE, (t % tile_cols) * TILE);
            let (i1, j1) = ((i0 + TILE).min(m), (j0 + TILE).min(n));
            let mut rng = Prng::stream(op_key, t as u64);
            for i in i0..i1 {
                let arow = &qas[i * k..(i + 1) * k];
                for j in j0..j1 {
                    let brow = &qbt[j * k..(j + 1) * k];
                    // The BPD difference current accumulates level
                    // products exactly — the int8 microkernel's i32
                    // accumulator, shared with the digital reference.
                    let s = gemm_i8::dot_i8(arow, brow);
                    // Receiver noise perturbs the accumulated count
                    // (pre-dequantization). The draw happens even for
                    // dead-lane outputs, to keep stream alignment with
                    // the fault-free engine.
                    let noisy = perturb(f64::from(s), sigma, &mut rng);
                    // Device faults, part 2: residual thermal-drift
                    // mis-bias is a uniform gain error on the analog
                    // difference; a dead ADC lane reads its output
                    // columns as zero. Both are pure functions of (i, j),
                    // so the result stays bit-identical across thread
                    // counts.
                    let diff = if dead_lanes.contains(&(j % dead_period)) {
                        0.0
                    } else {
                        noisy * weight_gain
                    };
                    chunk[(i - i0) * TILE + (j - j0)] = diff;
                }
            }
        });

        let mut raw = Matrix::zeros(m, n);
        let mut abs_max = 0.0f64;
        // Tile spans are recorded here, in the serial assembly loop over
        // tile indices — never from the worker threads — so the recording
        // order (and hence the exported trace) is independent of the
        // thread count. The span axis is the tile sequence number, not
        // wall or model time: the functional engine has no time model.
        let tracer = if phox_trace::enabled() {
            let tr = phox_trace::active();
            tr.count("analog", "matmuls", 1);
            tr.count("analog", "tiles", num_tiles as i64);
            tr.count("analog", "scratch_reuse_hits", scratch_hits);
            tr.count("int8", "analog_gemm_calls", 1);
            tr.count("int8", "analog_macs", (m * k * n) as i64);
            Some(tr)
        } else {
            None
        };
        for (t, chunk) in tile_vals.chunks(TILE * TILE).enumerate() {
            let (i0, j0) = ((t / tile_cols) * TILE, (t % tile_cols) * TILE);
            let (i1, j1) = ((i0 + TILE).min(m), (j0 + TILE).min(n));
            let tile_w = j1 - j0;
            let mut tile_max = 0.0f64;
            for i in i0..i1 {
                let vals = &chunk[(i - i0) * TILE..(i - i0) * TILE + tile_w];
                for &v in vals {
                    tile_max = tile_max.max(v.abs());
                }
                raw.row_mut(i)[j0..j1].copy_from_slice(vals);
            }
            abs_max = abs_max.max(tile_max);
            if let Some(tr) = &tracer {
                tr.model_span(
                    "analog",
                    "tile",
                    t as f64,
                    1.0,
                    None,
                    vec![
                        ("op_key", phox_trace::Value::UInt(op_key)),
                        ("stream", phox_trace::Value::UInt(t as u64)),
                        ("i0", phox_trace::Value::UInt(i0 as u64)),
                        ("j0", phox_trace::Value::UInt(j0 as u64)),
                        ("rows", phox_trace::Value::UInt((i1 - i0) as u64)),
                        ("cols", phox_trace::Value::UInt((j1 - j0) as u64)),
                        ("abs_max", phox_trace::Value::Float(tile_max)),
                    ],
                );
            }
        }
        self.scratch.qbt = qbt;
        self.scratch.tiles = tile_vals;
        // ADC stage: per-tile auto-ranged read-back on the accumulator
        // code grid — round to the nearest level-product count, clamped
        // to the ranged window (the TIA gain maps `range` onto full
        // scale). Noiseless, fault-free counts are already exact
        // integers, so the read-back is the identity there and the
        // dequantized product equals the digital int8 reference bitwise.
        let range = if abs_max > 0.0 { abs_max } else { full_scale };
        let window = range.round();
        let scale = qa.scale() * qb.scale();
        Ok(raw.map(|v| v.round().clamp(-window, window) * scale))
    }

    /// Coherent summation of the rows of `inputs` (each column summed
    /// across rows), with receiver-noise perturbation — the value-level
    /// model of a reduce unit's column.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on an empty input.
    pub fn coherent_sum_rows(&mut self, inputs: &Matrix) -> Result<Vec<f64>, PhotonicError> {
        if inputs.is_empty() {
            return Err(PhotonicError::InvalidConfig {
                what: "coherent sum needs at least one row",
            });
        }
        let mut out = Vec::with_capacity(inputs.cols());
        for c in 0..inputs.cols() {
            let s: f64 = (0..inputs.rows()).map(|r| inputs.get(r, c)).sum();
            out.push(perturb(s, self.relative_sigma, &mut self.rng));
        }
        Ok(out)
    }

    /// Digital LUT softmax: row-wise softmax with probabilities quantized
    /// to the LUT's output grid. Delegates each row to
    /// [`AnalogEngine::lut_softmax_in_place`].
    pub fn lut_softmax(&self, logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        for r in 0..out.rows() {
            self.lut_softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// The one LUT-softmax implementation: numerically stable softmax over
    /// `values`, rewritten in place with each probability quantized to the
    /// LUT's output grid. Consumes no noise stream — the LUT is a digital
    /// block — so it never perturbs the engine's RNG state.
    pub fn lut_softmax_in_place(&self, values: &mut [f64]) {
        if values.is_empty() {
            return;
        }
        let m = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in values.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        let levels = (2u64.pow(self.dac_bits) - 1) as f64;
        for v in values.iter_mut() {
            *v = (*v / sum * levels).round() / levels;
        }
    }

    /// Optical LayerNorm: exact normalization followed by analog
    /// perturbation of the single-MR gain stage.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::Upstream`] preserving
    /// the tensor-layer shape detail on a parameter-length mismatch.
    pub fn optical_layer_norm(
        &mut self,
        x: &Matrix,
        gamma: &[f64],
        beta: &[f64],
    ) -> Result<Matrix, PhotonicError> {
        let ln = ops::layer_norm(x, gamma, beta, 1e-9).ctx("optical layer norm")?;
        let sigma = self.relative_sigma;
        let rng = &mut self.rng;
        Ok(ln.map(|v| perturb(v, sigma, rng)))
    }

    /// Coherent residual addition with receiver-noise perturbation.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::Upstream`] preserving
    /// the tensor-layer shape detail on an operand shape mismatch.
    pub fn coherent_add(&mut self, a: &Matrix, b: &Matrix) -> Result<Matrix, PhotonicError> {
        let sum = a.add(b).ctx("coherent residual add")?;
        let sigma = self.relative_sigma;
        let rng = &mut self.rng;
        Ok(sum.map(|v| perturb(v, sigma, rng)))
    }

    /// SOA-based optical activation applied elementwise, with the SOA's
    /// calibration residual plus receiver noise.
    pub fn soa_activate(&mut self, f: OpticalActivation, x: &Matrix) -> Matrix {
        let sigma = (self.relative_sigma.powi(2) + self.soa.activation_error.powi(2)).sqrt();
        let soa = self.soa;
        let rng = &mut self.rng;
        x.map(|v| perturb(soa.activate(f, v), sigma, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::stats;

    #[test]
    fn matmul_matches_digital_within_tolerance() {
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 1).unwrap();
        let mut rng = Prng::new(2);
        let a = rng.fill_normal(8, 16, 0.0, 1.0);
        let b = rng.fill_normal(16, 8, 0.0, 1.0);
        let analog = eng.matmul(&a, &b).unwrap();
        let exact = a.matmul(&b).unwrap();
        assert!(stats::relative_error(&exact, &analog) < 0.05);
    }

    #[test]
    fn ideal_error_is_pure_quantization() {
        let mut eng = AnalogEngine::ideal(8, 8, 1);
        let mut rng = Prng::new(3);
        let a = rng.fill_normal(8, 16, 0.0, 1.0);
        let b = rng.fill_normal(16, 8, 0.0, 1.0);
        let err = stats::relative_error(&a.matmul(&b).unwrap(), &eng.matmul(&a, &b).unwrap());
        assert!(err < 0.02, "{err}");
    }

    #[test]
    fn ideal_matmul_is_bitwise_the_digital_int8_reference() {
        let mut eng = AnalogEngine::ideal(8, 8, 5);
        let mut rng = Prng::new(6);
        // Ragged shapes: partial edge tiles on both axes.
        let a = rng.fill_normal(41, 70, 0.0, 1.0);
        let b = rng.fill_normal(70, 37, 0.0, 1.0);
        let analog = eng.matmul(&a, &b).unwrap();
        let qa = Quantizer::calibrate(&a).quantize(&a);
        let qb = Quantizer::calibrate(&b).quantize(&b);
        let digital = qa.matmul(&qb).unwrap();
        let analog_bits: Vec<u64> = analog.as_slice().iter().map(|v| v.to_bits()).collect();
        let digital_bits: Vec<u64> = digital.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(analog_bits, digital_bits);
    }

    #[test]
    fn scratch_is_reused_across_calls_and_excluded_from_eq() {
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 9).unwrap();
        let mut twin = eng.clone();
        let mut rng = Prng::new(10);
        let a = rng.fill_normal(40, 40, 0.0, 1.0);
        let b = rng.fill_normal(40, 40, 0.0, 1.0);
        eng.matmul(&a, &b).unwrap();
        let (cap_qbt, cap_tiles) = (eng.scratch.qbt.capacity(), eng.scratch.tiles.capacity());
        assert!(cap_qbt > 0 && cap_tiles > 0);
        eng.matmul(&a, &b).unwrap();
        assert_eq!(
            eng.scratch.qbt.capacity(),
            cap_qbt,
            "qbt scratch reallocated"
        );
        assert_eq!(
            eng.scratch.tiles.capacity(),
            cap_tiles,
            "tile scratch reallocated"
        );
        // The twin performs the same ops but drops its scratch: engines
        // must still compare equal (scratch is a cache, not state).
        twin.matmul(&a, &b).unwrap();
        twin.matmul(&a, &b).unwrap();
        twin.scratch = MatmulScratch::default();
        assert_eq!(eng, twin);
    }

    #[test]
    fn matmul_validates_shapes() {
        let mut eng = AnalogEngine::ideal(8, 8, 1);
        assert!(eng
            .matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2))
            .is_err());
    }

    #[test]
    fn coherent_sum_rows_sums() {
        let mut eng = AnalogEngine::ideal(8, 8, 1);
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let s = eng.coherent_sum_rows(&m).unwrap();
        assert!((s[0] - 9.0).abs() < 1e-12);
        assert!((s[1] - 12.0).abs() < 1e-12);
        assert!(eng.coherent_sum_rows(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn lut_softmax_in_place_sums_near_one() {
        let eng = AnalogEngine::ideal(8, 8, 1);
        let mut p = [1.0, 2.0, 3.0];
        eng.lut_softmax_in_place(&mut p);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 0.02);
        eng.lut_softmax_in_place(&mut []);
    }

    #[test]
    fn soa_activation_close_to_ideal() {
        let mut eng = AnalogEngine::ideal(8, 8, 7);
        let x = Matrix::from_rows(&[&[-1.0, 0.5, 2.0]]).unwrap();
        let y = eng.soa_activate(OpticalActivation::Relu, &x);
        // SOA residual is ~0.5 %: outputs near the ideal ReLU.
        assert!(y.get(0, 0).abs() < 0.05);
        assert!((y.get(0, 1) - 0.5).abs() < 0.05);
        assert!((y.get(0, 2) - 2.0).abs() < 0.1);
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        let mut rng = Prng::new(11);
        let a = rng.fill_normal(40, 33, 0.0, 1.0);
        let b = rng.fill_normal(33, 37, 0.0, 1.0);
        let reference = {
            let mut eng = AnalogEngine::new(5e-3, 8, 8, 99).unwrap();
            parallel::with_threads(1, || eng.matmul(&a, &b).unwrap())
        };
        for threads in [2, 8] {
            let mut eng = AnalogEngine::new(5e-3, 8, 8, 99).unwrap();
            let y = parallel::with_threads(threads, || eng.matmul(&a, &b).unwrap());
            assert_eq!(y, reference, "threads={threads}");
        }
    }

    #[test]
    fn repeated_matmuls_draw_fresh_noise() {
        let mut eng = AnalogEngine::new(5e-3, 8, 8, 7).unwrap();
        let mut rng = Prng::new(8);
        let a = rng.fill_normal(8, 8, 0.0, 1.0);
        let b = rng.fill_normal(8, 8, 0.0, 1.0);
        let first = eng.matmul(&a, &b).unwrap();
        let second = eng.matmul(&a, &b).unwrap();
        assert_ne!(first, second, "op counter must advance the noise family");
        // A fresh engine with the same seed replays the same sequence.
        let mut replay = AnalogEngine::new(5e-3, 8, 8, 7).unwrap();
        assert_eq!(replay.matmul(&a, &b).unwrap(), first);
        assert_eq!(replay.matmul(&a, &b).unwrap(), second);
    }

    #[test]
    fn children_are_deterministic_and_distinct() {
        let mut parent = AnalogEngine::new(5e-3, 8, 8, 21).unwrap();
        let key = parent.stream_key();
        let mut rng = Prng::new(22);
        let a = rng.fill_normal(6, 6, 0.0, 1.0);
        let b = rng.fill_normal(6, 6, 0.0, 1.0);
        let y0 = parent.make_child(key, 0).matmul(&a, &b).unwrap();
        let y0_again = parent.make_child(key, 0).matmul(&a, &b).unwrap();
        let y1 = parent.make_child(key, 1).matmul(&a, &b).unwrap();
        assert_eq!(y0, y0_again);
        assert_ne!(y0, y1, "sibling units draw independent noise");
    }

    #[test]
    fn fault_state_replacement_never_compounds() {
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 1).unwrap();
        let impact = FaultImpact {
            sigma_scale: 2.0,
            weight_gain: 1.0,
            compensation_power_w: 0.0,
            dead_lanes: Vec::new(),
            stuck: Vec::new(),
        };
        eng.set_fault_impact(&impact, 64, 16).unwrap();
        assert!((eng.relative_sigma() - 4e-3).abs() < 1e-15);
        // Re-applying the same impact reflects it once, not twice.
        eng.set_fault_impact(&impact, 64, 16).unwrap();
        assert!((eng.relative_sigma() - 4e-3).abs() < 1e-15);
        eng.clear_faults();
        assert!(!eng.faulted());
        assert!((eng.relative_sigma() - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn constructor_validation() {
        assert!(AnalogEngine::new(-1.0, 8, 8, 1).is_err());
        assert!(AnalogEngine::new(0.0, 0, 8, 1).is_err());
        assert!(AnalogEngine::new(0.0, 8, 32, 1).is_err());
        assert!(AnalogEngine::from_noise_budget(&NoiseBudget::default(), 8, 1).is_ok());
    }
}
