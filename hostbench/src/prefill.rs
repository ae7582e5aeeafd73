//! `llm_prefill`, a part of the `functional` workload:
//! `TronFunctional::forward` over one BERT-base-shaped encoder layer
//! (d_model 768, 12 heads, d_ff 3072, 128 tokens) at the default
//! receiver noise — about 0.93 GMAC of dense analog int8 matmul per pass
//! and nothing else: no sparse work, no GEMV, no cost model. It
//! exercises the `photonics`/`tensor` dense path.

use std::collections::BTreeMap;

use phox_core::nn::transformer::{FfActivation, TransformerConfig, TransformerModel};
use phox_core::photonics::analog::{AnalogEngine, TILE};
use phox_core::tensor::stats::relative_error;
use phox_core::tensor::{gemm_i8, quant, split_seed, Matrix, Prng, Quantizer};
use phox_core::tron::{TronConfig, TronFunctional};

use crate::functional::AnalogMatmul;
use crate::harness::{digest_matrix, median_step_total, replay, timed, Harness, Runs, Steps};

const SEQ: usize = 128;
/// Largest relative error of the analog forward against the f64
/// forward that still counts as correct (the bound the TRON functional
/// tests hold the simulator to).
const MAX_ANALOG_ERROR: f64 = 0.35;

/// The `(m, k, n)` of every analog matmul one forward of `cfg` issues,
/// in issue order.
pub fn matmul_shapes(cfg: &TransformerConfig) -> Vec<(usize, usize, usize)> {
    let (s, d, dh, ff) = (cfg.seq_len, cfg.d_model, cfg.d_head(), cfg.d_ff);
    let mut shapes = Vec::new();
    for _ in 0..cfg.layers {
        shapes.extend([(s, d, d); 3]);
        for _ in 0..cfg.heads {
            shapes.push((s, dh, s));
            shapes.push((s, s, dh));
        }
        shapes.extend([(s, d, d), (s, d, ff), (s, ff, d)]);
    }
    shapes
}

/// Output tiles of an `m × n` product on the `TILE × TILE` array.
pub fn tiles(m: usize, n: usize) -> u64 {
    (m.div_ceil(TILE) * n.div_ceil(TILE).max(1)) as u64
}

/// The prefill part, built and checked against its references.
pub struct Prefill {
    cfg: TransformerConfig,
    model: TransformerModel,
    x: Matrix,
    sim: TronFunctional,
    digest: u64,
    shapes: Vec<(usize, usize, usize)>,
    macs: u64,
    tile_count: u64,
}

/// Builds the part and runs its one-off checks.
///
/// # Errors
///
/// Fails when the model or simulator cannot be built.
pub fn prepare(h: &mut Harness) -> Result<Prefill, String> {
    let seed = h.seed();
    let cfg = TransformerConfig {
        name: "BERT-base-layer/s128".to_owned(),
        layers: 1,
        ..TransformerConfig::bert_base(SEQ)
    };
    let (model, x, sim) = h.setup(|| {
        let model = TransformerModel::random(cfg.clone(), split_seed(seed, 1))
            .map_err(|e| e.to_string())?;
        let x = Prng::new(split_seed(seed, 2)).fill_normal(SEQ, cfg.d_model, 0.0, 1.0);
        let sim = TronFunctional::new(&TronConfig::default(), split_seed(seed, 3))
            .map_err(|e| e.to_string())?;
        Ok((model, x, sim))
    })?;

    let reference = sim.clone().forward(&model, &x).map_err(|e| e.to_string())?;
    let digest = digest_matrix(&reference);
    h.reference("llm_prefill", digest);
    let exact = model.forward(&x).map_err(|e| e.to_string())?;
    let err = relative_error(&exact, &reference);
    h.check(
        &format!("analog forward error {err} against the f64 forward exceeds {MAX_ANALOG_ERROR}"),
        err < MAX_ANALOG_ERROR,
    );
    let w_q = &model.layers()[0].w_q;
    let ideal = AnalogEngine::ideal(8, 8, seed)
        .matmul(&x, w_q)
        .map_err(|e| e.to_string())?;
    let int8 = quant::int8_matmul(&x, w_q).map_err(|e| e.to_string())?;
    h.check(
        "ideal AnalogEngine::matmul equals the int8 GEMM bit for bit",
        digest_matrix(&ideal) == digest_matrix(&int8),
    );

    let shapes = matmul_shapes(&cfg);
    let macs: u64 = shapes.iter().map(|&(m, k, n)| (m * k * n) as u64).sum();
    let tile_count: u64 = shapes.iter().map(|&(m, _, n)| tiles(m, n)).sum();
    h.work(macs as f64, 1.0);
    Ok(Prefill {
        cfg,
        model,
        x,
        sim,
        digest,
        shapes,
        macs,
        tile_count,
    })
}

impl Prefill {
    /// One forward; whether its output equals the reference.
    ///
    /// # Errors
    ///
    /// Propagates a failed forward.
    pub fn pass(&self, steps: &mut Steps) -> Result<bool, String> {
        let mut sim = self.sim.clone();
        let out = timed(steps, "tron.forward", || sim.forward(&self.model, &self.x))
            .map_err(|e| e.to_string())?;
        Ok(digest_matrix(&out) == self.digest)
    }

    /// Reconciles the traced counters of part `part` and records the
    /// per-layer metrics of a traced run, but for the analog matmul's,
    /// which it returns to be summed with the other parts'.
    pub fn layers(&self, h: &mut Harness, runs: &Runs, part: usize) -> AnalogMatmul {
        let Prefill {
            cfg,
            model,
            x,
            sim,
            shapes,
            macs,
            tile_count,
            ..
        } = self;
        let (macs, tile_count) = (*macs, *tile_count);
        let seed = h.seed();
        for c in runs.counts(part) {
            h.check_eq(
                "analog/matmuls per forward",
                shapes.len() as u64,
                c.counter("analog/matmuls"),
            );
            h.check_eq(
                "int8/analog_macs per forward",
                macs,
                c.counter("int8/analog_macs"),
            );
            h.check_eq(
                "analog/tiles per forward",
                tile_count,
                c.counter("analog/tiles"),
            );
            h.check_eq(
                "analog tile spans per forward",
                tile_count,
                c.spans("analog:tile") as i64,
            );
        }
        // Replays: each distinct shape once per repetition, times its count.
        let mut by_shape: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
        for &s in shapes {
            *by_shape.entry(s).or_default() += 1.0;
        }
        let mut rng = Prng::new(split_seed(seed, 4));
        let (mut analog_s, mut i8_s) = (0.0, 0.0);
        for (&(m, k, n), &count) in &by_shape {
            let a = rng.fill_normal(m, k, 0.0, 1.0);
            let b = rng.fill_normal(k, n, 0.0, 1.0);
            let mut engine = sim.engine().clone();
            analog_s += count * replay(|| engine.matmul(&a, &b));
            let (qa, qb) = (
                Quantizer::calibrate(&a).quantize(&a),
                Quantizer::calibrate(&b).quantize(&b),
            );
            i8_s +=
                count * replay(|| gemm_i8::matmul_i32(qa.as_i8_slice(), qb.as_i8_slice(), m, k, n));
        }
        let engine = sim.engine().clone();
        let lw = &model.layers()[0];
        let scores = rng.fill_normal(SEQ, SEQ, 0.0, 1.0);
        let softmax_s = (cfg.layers * cfg.heads) as f64 * replay(|| engine.lut_softmax(&scores));
        let mut ln_engine = engine.clone();
        let ln_s = (2 * cfg.layers) as f64
            * replay(|| ln_engine.optical_layer_norm(x, &lw.ln1_gamma, &lw.ln1_beta));
        // BERT's GELU runs digitally between conversions: the forward makes
        // no SOA call, so `photonics.soa_activate` is measured on the GNN.
        debug_assert_eq!(cfg.ff_activation, FfActivation::Gelu);

        let forward_s = median_step_total(&runs.timed, "tron.forward");
        h.layer("tron.forward.busy_s", forward_s);
        h.layer("tensor.gemm_i8.busy_s", i8_s);
        h.layer("photonics.lut_softmax.busy_s", softmax_s);
        h.layer("photonics.optical_layer_norm.busy_s", ln_s);
        h.layer(
            "llm_prefill.coverage",
            (analog_s + softmax_s + ln_s) / forward_s,
        );
        eprintln!(
            "hostbench: analog matmul {analog_s:.4}s vs gemm_i8 floor {i8_s:.4}s per forward of {forward_s:.4}s"
        );
        AnalogMatmul::of(runs, part, analog_s)
    }
}
