//! Functional (value-level) simulation of the GHOST analog datapath.
//!
//! Executes an actual GNN inference through the modelled photonic
//! pipeline: coherent-summation aggregation (sum/mean) and
//! optical-comparator `max` (Fig. 7(a)), transform-unit matmuls through
//! the shared [`AnalogEngine`], per-edge LUT-softmax attention for GAT,
//! and SOA update activations. Validated against the digital int8
//! reference of `phox-nn`.

use phox_nn::engine::{GnnEngine, MatmulEngine};
use phox_nn::gnn::{Aggregation, CsrGraph, GnnModel};
use phox_photonics::analog::AnalogEngine;
use phox_photonics::devices::OpticalActivation;
use phox_photonics::fault::{Datapath, FaultAwareEngine, FaultPlan, FaultSchedule};
use phox_photonics::noise::perturb;
use phox_photonics::summation::OpticalComparator;
use phox_photonics::{Ctx, PhotonicError};
use phox_tensor::sparse::DegreeBuckets;
use phox_tensor::{ops, parallel, Matrix, Prng, Quantizer};

use crate::config::GhostConfig;

/// Functional GHOST simulator: the photonic backend of `phox-nn`'s one
/// GNN forward ([`GnnModel::forward_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GhostFunctional {
    engine: FaultAwareEngine,
    comparator: OpticalComparator,
}

fn datapath(config: &GhostConfig) -> Datapath {
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

impl GhostFunctional {
    fn from_engine(engine: FaultAwareEngine) -> Self {
        GhostFunctional {
            engine,
            comparator: OpticalComparator::default(),
        }
    }

    /// Builds the functional simulator with receiver noise derived from
    /// the configuration's provisioned 8-bit optical budget.
    ///
    /// # Errors
    ///
    /// Propagates noise-budget failures.
    pub fn new(config: &GhostConfig, seed: u64) -> Result<Self, PhotonicError> {
        FaultAwareEngine::new(&datapath(config), seed).map(Self::from_engine)
    }

    /// Builds a noiseless simulator (quantization effects only).
    pub fn ideal(config: &GhostConfig, seed: u64) -> Self {
        Self::from_engine(FaultAwareEngine::ideal(&datapath(config), seed))
    }

    /// Builds a simulator with an explicit receiver noise level, for
    /// robustness sweeps beyond the provisioned operating point.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn with_noise(
        config: &GhostConfig,
        relative_sigma: f64,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        FaultAwareEngine::with_noise(&datapath(config), relative_sigma, seed).map(Self::from_engine)
    }

    /// Builds a simulator with injected device faults
    /// ([`FaultAwareEngine::with_faults`]); the degradation applies to
    /// every analog operation, including the per-node streams of the aggregation units.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the plan is out of geometry
    /// or a fault is uncompensatable.
    pub fn with_faults(
        config: &GhostConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        FaultAwareEngine::with_faults(&datapath(config), plan, seed)
            .ctx("injecting device faults into GHOST")
            .map(Self::from_engine)
    }

    /// Builds a simulator driven by a model-time [`FaultSchedule`]: call
    /// [`GhostFunctional::advance_to`] before each forward pass. An empty
    /// schedule is a strict no-op — the simulator behaves byte-identically
    /// to [`GhostFunctional::new`].
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the schedule geometry does
    /// not match the accelerator, or a fault active at `t = 0` is
    /// uncompensatable.
    pub fn with_fault_schedule(
        config: &GhostConfig,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        FaultAwareEngine::with_fault_schedule(&datapath(config), schedule, seed)
            .ctx("attaching fault schedule to GHOST")
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
            .ctx("advancing GHOST fault schedule")
    }

    /// The attached fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.engine.fault_schedule()
    }

    /// The underlying analog engine.
    pub fn engine(&self) -> &AnalogEngine {
        self.engine.engine()
    }

    /// Runs the photonic inference of `model` over `graph` with node
    /// `features` (`nodes × dims[0]`).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn forward(
        &mut self,
        model: &GnnModel,
        graph: &CsrGraph,
        features: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        model.forward_with(graph, features, self)
    }

    /// Optical aggregation through the reduce units: sum/mean use
    /// coherent summation, max uses the optical comparator tournament.
    ///
    /// Int8 datapath: sum/mean members enter through the DAC, so the
    /// reduce unit accumulates exact integer level counts — the same
    /// accumulators as the digital int8 reference
    /// ([`phox_tensor::sparse_i8::aggregate_i8_into`]) — and receiver
    /// noise perturbs the accumulated count *before* dequantization. A
    /// noiseless sum aggregation therefore reproduces the digital int8
    /// reference bit for bit. Max stays on the optical amplitudes
    /// directly (the comparator is value-preserving, not a quantizing
    /// stage).
    ///
    /// Nodes run on the sparse tile schedule (`on_tiles`). Each draws its
    /// receiver noise from a stream keyed by `(operation key, node
    /// index)`, the scheme of [`AnalogEngine::matmul`]'s per-tile
    /// streams, so the aggregate is bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on operand shape
    /// mismatch.
    pub fn optical_aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, PhotonicError> {
        check_rows(graph, h)?;
        let f = h.cols();
        let key = self.engine.engine_mut().stream_key();
        let sigma = self.engine().relative_sigma();
        let comparator = self.comparator;
        // DAC stage for the coherent-summation path: member rows enter
        // as symmetric int8 levels, one calibration per aggregate call.
        let qh = Quantizer::calibrate(h).quantize(h);
        let codes = qh.as_i8_slice();
        let h_scale = qh.scale();
        let sched = DegreeBuckets::new(graph.offsets());
        let out = on_tiles(&sched, f, |v, slot, acc, _| {
            let neigh = graph.neighbors(v);
            if neigh.is_empty() && !include_self {
                return; // isolated node aggregates to zero
            }
            match agg {
                Aggregation::Sum | Aggregation::Mean => {
                    // Coherent summation on the int8 codes: member levels
                    // accumulate exactly in CSR order (the digital
                    // reference's accumulator), then every column's count
                    // picks up receiver noise before dequantization.
                    acc.fill(0);
                    if include_self {
                        for (a, &q) in acc.iter_mut().zip(&codes[v * f..(v + 1) * f]) {
                            *a = i64::from(q);
                        }
                    }
                    for &u in neigh {
                        let u = u as usize;
                        for (a, &q) in acc.iter_mut().zip(&codes[u * f..(u + 1) * f]) {
                            *a += i64::from(q);
                        }
                    }
                    let denom = if agg == Aggregation::Mean {
                        (neigh.len() + usize::from(include_self)) as f64
                    } else {
                        1.0
                    };
                    read_out(slot, acc, Prng::stream(key, v as u64), sigma, |x| {
                        x * h_scale / denom
                    });
                }
                Aggregation::Max => {
                    // Comparator tournament, folded member-major with the
                    // first member seeding every column.
                    let mut seeded = false;
                    if include_self {
                        slot.copy_from_slice(h.row(v));
                        seeded = true;
                    }
                    for &u in neigh {
                        let row = h.row(u as usize);
                        if !seeded {
                            slot.copy_from_slice(row);
                            seeded = true;
                        } else {
                            for (s, &x) in slot.iter_mut().zip(row) {
                                *s = comparator.max2(*s, x);
                            }
                        }
                    }
                }
            }
        });
        self.trace_aggregate(
            "optical_aggregate",
            &sched,
            f,
            !matches!(agg, Aggregation::Max),
        );
        Ok(out)
    }

    /// Records sparse-aggregation counters and a summary event. Called
    /// from the serial assembly path only, so traces stay byte-identical
    /// across thread counts. `int8` marks calls whose accumulation ran
    /// on integer DAC codes (sum/mean/attention — everything but the
    /// comparator max).
    fn trace_aggregate(&self, op: &'static str, sched: &DegreeBuckets, f: usize, int8: bool) {
        if !phox_trace::enabled() {
            return;
        }
        let tr = phox_trace::active();
        tr.count("ghost", "sparse_agg_calls", 1);
        if int8 {
            tr.count("int8", "analog_agg_calls", 1);
            tr.count("int8", "analog_agg_accs", (sched.nnz() * f) as i64);
        }
        tr.count("ghost", "sparse_agg_rows", sched.rows() as i64);
        tr.count("ghost", "sparse_agg_nnz", sched.nnz() as i64);
        // Rows beyond the first of each tile reuse the tile's scratch
        // buffer — the allocations the dense-stack path paid per node.
        tr.count(
            "ghost",
            "sparse_agg_scratch_reuse",
            (sched.rows() - sched.num_tiles().min(sched.rows())) as i64,
        );
        tr.instant(
            "ghost",
            op,
            vec![
                ("rows", phox_trace::Value::UInt(sched.rows() as u64)),
                ("nnz", phox_trace::Value::UInt(sched.nnz() as u64)),
                ("features", phox_trace::Value::UInt(f as u64)),
                ("tiles", phox_trace::Value::UInt(sched.num_tiles() as u64)),
                (
                    "degree_buckets",
                    phox_trace::Value::UInt(sched.histogram().len() as u64),
                ),
            ],
        );
    }
}

/// Every combine product runs on the transform units' analog MAC array;
/// the hardware has no weight-only sites.
impl MatmulEngine for GhostFunctional {
    type Error = PhotonicError;

    fn mm(&mut self, a: &Matrix, w: &Matrix) -> Result<Matrix, PhotonicError> {
        self.engine.engine_mut().matmul(a, w)
    }
}

impl GnnEngine for GhostFunctional {
    /// [`GhostFunctional::optical_aggregate`].
    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, PhotonicError> {
        self.optical_aggregate(graph, h, agg, include_self)
    }

    /// Digital LUT attention softmax, then attention-weighted coherent
    /// accumulation.
    ///
    /// Runs on the sparse tile schedule with per-node noise streams, as
    /// [`GhostFunctional::optical_aggregate`] does.
    ///
    /// Int8 datapath: the transformed features re-enter through the DAC
    /// as int8 levels, and the LUT softmax already emits attention
    /// weights on the DAC grid — multiples of `1 / dac_levels()` — so the
    /// weighted accumulation is an exact integer MAC (`alpha code ×
    /// feature code`) with receiver noise perturbing the accumulated count
    /// before dequantization.
    fn attention_aggregate(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src_logit: &[f64],
        dst_logit: &[f64],
    ) -> Result<Matrix, PhotonicError> {
        check_rows(graph, z)?;
        let fout = z.cols();
        let engine = self.engine.engine_mut();
        let key = engine.stream_key();
        let engine = &*engine;
        let sigma = engine.relative_sigma();
        let qz = Quantizer::calibrate(z).quantize(z);
        let zcodes = qz.as_i8_slice();
        let alpha_levels = engine.dac_levels();
        let acc_scale = qz.scale() / alpha_levels;
        let sched = DegreeBuckets::new(graph.offsets());
        let out = on_tiles(&sched, fout, |v, slot, acc, alphas| {
            let neigh = graph.neighbors(v);
            if neigh.is_empty() {
                // Attention over an empty neighbourhood passes the node's
                // own transform through.
                slot.copy_from_slice(z.row(v));
                return;
            }
            alphas.clear();
            alphas.extend(
                neigh
                    .iter()
                    .map(|&u| ops::leaky_relu_scalar(src_logit[u as usize] + dst_logit[v], 0.2)),
            );
            engine.lut_softmax_in_place(alphas);
            acc.fill(0);
            for (&u, &a) in neigh.iter().zip(alphas.iter()) {
                let u = u as usize;
                // Recover the exact integer LUT code of the attention
                // weight (the softmax output is a multiple of
                // 1/alpha_levels by construction).
                #[allow(clippy::cast_possible_truncation)]
                let code = (a * alpha_levels).round() as i64;
                for (s, &q) in acc.iter_mut().zip(&zcodes[u * fout..(u + 1) * fout]) {
                    *s += code * i64::from(q);
                }
            }
            read_out(slot, acc, Prng::stream(key, v as u64), sigma, |x| {
                x * acc_scale
            });
        });
        self.trace_aggregate("gat_attention_aggregate", &sched, fout, true);
        Ok(out)
    }

    /// SOA ReLU in the update units.
    fn hidden_relu(&mut self, h: &Matrix) -> Matrix {
        self.engine
            .engine_mut()
            .soa_activate(OpticalActivation::Relu, h)
    }
}

/// Aggregation operands must have one row per graph vertex.
fn check_rows(graph: &CsrGraph, h: &Matrix) -> Result<(), PhotonicError> {
    if h.rows() != graph.num_nodes() {
        return Err(PhotonicError::InvalidConfig {
            what: "aggregation features must have one row per graph vertex",
        });
    }
    Ok(())
}

/// Runs `node(v, slot, acc, scratch)` for every vertex `v` on the sparse
/// tile schedule: degree-bucketed [`phox_tensor::sparse::ROW_TILE`]-row
/// tiles (hubs first, so the work-stealing loop never straggles on a
/// power-law tail) in parallel, with one row buffer per tile (`slot` is
/// `v`'s `f`-wide row, zeroed) and an integer accumulator and a scratch
/// vector reused across the tile's vertices. No per-vertex allocation.
/// Returns the rows in vertex order.
fn on_tiles(
    sched: &DegreeBuckets,
    f: usize,
    node: impl Fn(usize, &mut [f64], &mut [i64], &mut Vec<f64>) + Sync,
) -> Matrix {
    let tiles: Vec<Vec<f64>> = parallel::par_map_indexed(sched.num_tiles(), |t| {
        let rows = sched.tile_rows(t);
        let mut buf = vec![0.0; rows.len() * f];
        let (mut acc, mut scratch) = (vec![0i64; f], Vec::new());
        for (i, &v) in rows.iter().enumerate() {
            node(
                v as usize,
                &mut buf[i * f..(i + 1) * f],
                &mut acc,
                &mut scratch,
            );
        }
        buf
    });
    let mut out = Matrix::zeros(sched.rows(), f);
    for (t, buf) in tiles.iter().enumerate() {
        for (i, &v) in sched.tile_rows(t).iter().enumerate() {
            out.row_mut(v as usize)
                .copy_from_slice(&buf[i * f..(i + 1) * f]);
        }
    }
    out
}

/// Receiver read-out of accumulated level counts: each count picks up
/// receiver noise from the vertex's stream `rng`, then `dequantize` maps
/// it back to a feature value.
fn read_out(
    slot: &mut [f64],
    acc: &[i64],
    mut rng: Prng,
    sigma: f64,
    dequantize: impl Fn(f64) -> f64,
) {
    for (s, &a) in slot.iter_mut().zip(acc) {
        #[allow(clippy::cast_precision_loss)]
        let count = a as f64;
        *s = dequantize(perturb(count, sigma, &mut rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_nn::datasets::sbm;
    use phox_nn::gnn::{GnnConfig, GnnKind};
    use phox_tensor::{stats, Prng};

    fn small_task() -> phox_nn::datasets::LabelledGraph {
        sbm(3, 8, 12, 0.5, 0.05, 71).unwrap()
    }

    #[test]
    fn functional_tracks_reference_for_all_kinds() {
        let task = small_task();
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 72).unwrap();
            let reference = model.forward(&task.graph, &task.features).unwrap();
            let mut sim = GhostFunctional::new(&GhostConfig::default(), 73).unwrap();
            let photonic = sim.forward(&model, &task.graph, &task.features).unwrap();
            let err = stats::relative_error(&reference, &photonic);
            assert!(err < 0.4, "{kind}: photonic error {err}");
        }
    }

    #[test]
    fn predictions_mostly_agree_with_reference() {
        let task = small_task();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 74).unwrap();
        let reference = model.forward(&task.graph, &task.features).unwrap();
        let mut sim = GhostFunctional::new(&GhostConfig::default(), 75).unwrap();
        let photonic = sim.forward(&model, &task.graph, &task.features).unwrap();
        let agree = stats::accuracy(&ops::argmax_rows(&photonic), &ops::argmax_rows(&reference));
        assert!(agree >= 0.8, "agreement {agree}");
    }

    #[test]
    fn max_aggregation_through_comparator() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut x = Matrix::zeros(3, 2);
        x.set(0, 0, 5.0);
        x.set(1, 0, 3.0);
        let cfg = GnnConfig {
            kind: GnnKind::GraphSage,
            dims: vec![2, 2],
            aggregation: Aggregation::Max,
        };
        let model = GnnModel::random(cfg, 76).unwrap();
        let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 77);
        let agg = sim
            .optical_aggregate(&g, &x, Aggregation::Max, false)
            .unwrap();
        assert_eq!(agg.get(2, 0), 5.0);
        let _ = model;
    }

    #[test]
    fn ideal_sum_aggregation_is_bitwise_the_digital_int8_reference() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 1), (3, 1), (1, 4), (4, 0)]).unwrap();
        let h = Prng::new(90).fill_normal(5, 7, 0.0, 1.0);
        let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 91);
        let agg = sim
            .optical_aggregate(&g, &h, Aggregation::Sum, false)
            .unwrap();
        // Digital int8 reference: exact integer level sums, dequantized.
        let qh = Quantizer::calibrate(&h).quantize(&h);
        let codes = qh.as_i8_slice();
        let f = h.cols();
        for v in 0..5 {
            for c in 0..f {
                let count: i64 = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| i64::from(codes[u as usize * f + c]))
                    .sum();
                #[allow(clippy::cast_precision_loss)]
                let expected = count as f64 * qh.scale();
                assert_eq!(
                    agg.get(v, c).to_bits(),
                    expected.to_bits(),
                    "node {v} col {c}"
                );
            }
        }
    }

    #[test]
    fn int8_counters_fire_during_forward() {
        let task = small_task();
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || {
            for kind in [GnnKind::Gcn, GnnKind::Gat] {
                let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 92).unwrap();
                let mut sim = GhostFunctional::new(&GhostConfig::default(), 93).unwrap();
                sim.forward(&model, &task.graph, &task.features).unwrap();
            }
        });
        let counters = trace.counters();
        for name in ["analog_gemm_calls", "analog_macs", "analog_agg_calls"] {
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
    fn shape_validation() {
        let task = small_task();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 78).unwrap();
        let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 79);
        let bad = Matrix::zeros(task.graph.num_nodes(), 11);
        assert!(sim.forward(&model, &task.graph, &bad).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let task = small_task();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gin, 12, 16, 3), 80).unwrap();
        let mut a = GhostFunctional::new(&GhostConfig::default(), 81).unwrap();
        let mut b = GhostFunctional::new(&GhostConfig::default(), 81).unwrap();
        assert_eq!(
            a.forward(&model, &task.graph, &task.features).unwrap(),
            b.forward(&model, &task.graph, &task.features).unwrap()
        );
    }

    #[test]
    fn forward_is_thread_count_invariant() {
        let task = small_task();
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 85).unwrap();
            let reference = parallel::with_threads(1, || {
                let mut sim = GhostFunctional::new(&GhostConfig::default(), 86).unwrap();
                sim.forward(&model, &task.graph, &task.features).unwrap()
            });
            for threads in [2, 4, 8] {
                let y = parallel::with_threads(threads, || {
                    let mut sim = GhostFunctional::new(&GhostConfig::default(), 86).unwrap();
                    sim.forward(&model, &task.graph, &task.features).unwrap()
                });
                assert_eq!(y, reference, "{kind}: threads={threads}");
            }
        }
    }

    #[test]
    fn isolated_nodes_survive() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let x = Prng::new(82).fill_normal(3, 4, 0.0, 1.0);
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 4, 8, 2), 83).unwrap();
            let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 84);
            let y = sim.forward(&model, &g, &x).unwrap();
            assert!(y.as_slice().iter().all(|v| v.is_finite()), "{kind}");
        }
    }
}
