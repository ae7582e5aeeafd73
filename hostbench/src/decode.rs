//! `llm_decode`, a part of the `functional` workload: a 16-token prompt
//! plus 64 generated tokens on a GPT-2-shaped decoder (d_model 768, d_ff 3072, 4 layers), each token
//! driven through `TransformerModel::int8_decoder().step` on a
//! `KvCache` and timed alone. The int8 layer of prefill, used as m = 1
//! GEMVs with a cache write every step.

use std::time::Instant;

use phox_core::nn::decode::{Int8Decoder, KvCache};
use phox_core::nn::transformer::{TransformerConfig, TransformerModel};
use phox_core::tensor::{gemm_i8, split_seed, Matrix, Prng};

use crate::harness::{median_step_total, replay, timed, Harness, Iter, Runs, Steps};
use crate::stats;

const PROMPT: usize = 16;
const GEN: usize = 64;
/// Steps per generation: every prompt row, then every generated token
/// but the last is fed back.
const STEPS: usize = PROMPT + GEN - 1;
const LAYERS: usize = 4;
/// Steps averaged at each end of a generation for `ctx_growth`.
const EDGE_STEPS: usize = 8;

fn config() -> TransformerConfig {
    TransformerConfig {
        name: "GPT-2-4L".to_owned(),
        layers: LAYERS,
        ..TransformerConfig::gpt2(PROMPT + GEN)
    }
}

/// The `(k, n)` of the GEMVs one decode step issues per layer: Q, K, V,
/// output projection, and the two feed-forward layers.
fn gemv_shapes(cfg: &TransformerConfig) -> [(usize, usize); 6] {
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    [(d, d), (d, d), (d, d), (d, d), (d, ff), (ff, d)]
}

/// MACs of the step at context length `t` (projections plus attention
/// over `t` cached rows).
fn step_macs(cfg: &TransformerConfig, t: usize) -> u64 {
    let (d, ff) = (cfg.d_model as u64, cfg.d_ff as u64);
    cfg.layers as u64 * (4 * d * d + 2 * d * t as u64 + 2 * d * ff)
}

/// One generation, step by step: `prompt` rows, then each output fed
/// back. Returns the generated rows.
fn generate(
    decoder: &Int8Decoder<'_>,
    cfg: &TransformerConfig,
    prompt: &Matrix,
    steps: &mut Steps,
) -> Result<Vec<Matrix>, String> {
    let mut cache = KvCache::new(cfg, STEPS).map_err(|e| e.to_string())?;
    let mut step = |x: &Matrix| {
        timed(steps, "nn.decode_step", || decoder.step(&mut cache, x)).map_err(|e| e.to_string())
    };
    for r in 0..PROMPT - 1 {
        step(&Matrix::row_vector(prompt.row(r)))?;
    }
    let mut out = Vec::with_capacity(GEN);
    let mut next = Matrix::row_vector(prompt.row(PROMPT - 1));
    for _ in 0..GEN {
        next = step(&next)?;
        out.push(next.clone());
    }
    Ok(out)
}

/// The decoder step times of an iteration, in order.
fn step_times(it: &Iter) -> impl Iterator<Item = f64> + '_ {
    it.steps
        .iter()
        .filter(|(label, _)| *label == "nn.decode_step")
        .map(|x| x.1)
}

/// Last-`EDGE_STEPS` over first-`EDGE_STEPS` mean step time.
fn ctx_growth(it: &Iter) -> f64 {
    let s: Vec<f64> = step_times(it).collect();
    let head = stats::mean(&s[..EDGE_STEPS.min(s.len())]).unwrap_or(f64::NAN);
    let tail = stats::mean(&s[s.len().saturating_sub(EDGE_STEPS)..]).unwrap_or(f64::NAN);
    tail / head
}

/// The decode part, built and checked against its references.
pub struct Decode {
    cfg: TransformerConfig,
    model: TransformerModel,
    prompt: Matrix,
    /// The bits of every generated row of the reference generation.
    want: Vec<Vec<u64>>,
    warmup_s: Vec<f64>,
}

/// Builds the part and runs its one-off checks.
///
/// # Errors
///
/// Fails when the model cannot be built or the reference generation
/// errs.
pub fn prepare(h: &mut Harness) -> Result<Decode, String> {
    let seed = h.seed();
    let cfg = config();
    let prompt = Prng::new(split_seed(seed, 2)).fill_normal(PROMPT, cfg.d_model, 0.0, 1.0);
    // Set-up builds the model and pays the decoder's lazy weight
    // quantization with one step on a scratch cache.
    let mut warmup_s = Vec::new();
    let model = h.setup(|| {
        let model = TransformerModel::random(cfg.clone(), split_seed(seed, 1))
            .map_err(|e| e.to_string())?;
        let mut cache = KvCache::new(&cfg, 1).map_err(|e| e.to_string())?;
        let t = Instant::now();
        model
            .int8_decoder()
            .step(&mut cache, &Matrix::row_vector(prompt.row(0)))
            .map_err(|e| e.to_string())?;
        warmup_s.push(t.elapsed().as_secs_f64());
        Ok(model)
    })?;
    let reference = model
        .generate_int8(&prompt, GEN)
        .map_err(|e| e.to_string())?;
    let want: Vec<Vec<u64>> = (0..GEN)
        .map(|i| {
            reference
                .tokens
                .row(i)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    h.reference(
        "llm_decode",
        crate::harness::digest_matrix(&reference.tokens),
    );
    let macs: u64 = (1..=STEPS).map(|t| step_macs(&cfg, t)).sum();
    let stats = reference.stats;
    h.check_eq(
        "analytic MACs per generation against DecodeStats",
        macs,
        (stats.prefill_macs + stats.decode_macs) as i64,
    );
    h.work(macs as f64, 1.0);
    Ok(Decode {
        cfg,
        model,
        prompt,
        want,
        warmup_s,
    })
}

impl Decode {
    /// The model's decoder, its lazy weight quantization paid by one
    /// step on a scratch cache.
    ///
    /// # Errors
    ///
    /// Propagates a failed step.
    pub fn decoder(&self) -> Result<Int8Decoder<'_>, String> {
        let decoder = self.model.int8_decoder();
        let mut cache = KvCache::new(&self.cfg, 1).map_err(|e| e.to_string())?;
        decoder
            .step(&mut cache, &Matrix::row_vector(self.prompt.row(0)))
            .map_err(|e| e.to_string())?;
        Ok(decoder)
    }

    /// One generation through `decoder`; whether every generated row
    /// equals the reference's.
    ///
    /// # Errors
    ///
    /// Propagates a failed step.
    pub fn pass(&self, decoder: &Int8Decoder<'_>, steps: &mut Steps) -> Result<bool, String> {
        let out = generate(decoder, &self.cfg, &self.prompt, steps)?;
        Ok(out
            .iter()
            .zip(&self.want)
            .all(|(row, w)| row.row(0).iter().map(|v| v.to_bits()).eq(w.iter().copied())))
    }

    /// Reconciles the traced counters of part `part` and records the
    /// per-layer metrics of a traced run.
    pub fn layers(&self, h: &mut Harness, runs: &Runs, part: usize) {
        let cfg = &self.cfg;
        let gemvs = (6 * LAYERS * STEPS) as u64;
        let projection_macs: u64 = STEPS as u64
            * LAYERS as u64
            * gemv_shapes(cfg)
                .iter()
                .map(|&(k, n)| (k * n) as u64)
                .sum::<u64>();
        for c in runs.counts(part) {
            h.check_eq(
                "decode/steps per generation",
                STEPS as u64,
                c.counter("decode/steps"),
            );
            h.check_eq(
                "decode/cached_rows per generation",
                (LAYERS * STEPS) as u64,
                c.counter("decode/cached_rows"),
            );
            h.check_eq(
                "decode/gemv_calls per generation",
                gemvs,
                c.counter("decode/gemv_calls"),
            );
            h.check_eq(
                "int8/gemv_calls per generation",
                gemvs,
                c.counter("int8/gemv_calls"),
            );
            h.check_eq(
                "int8/macs per generation",
                projection_macs,
                c.counter("int8/macs"),
            );
        }
        let c = &runs.traced[0].1[part];

        let mut rng = Prng::new(split_seed(h.seed(), 3));
        let mut random_i8 = |len: usize| -> Vec<i8> {
            #[allow(clippy::cast_possible_truncation)]
            (0..len)
                .map(|_| ((rng.next_u64() % 255) as i16 - 127) as i8)
                .collect()
        };
        let mut gemv_s = 0.0;
        for (k, n) in gemv_shapes(cfg) {
            let (a, b) = (random_i8(k), random_i8(k * n));
            gemv_s += replay(|| gemm_i8::gemv_i32(&a, &b, k, n));
        }
        gemv_s *= (LAYERS * STEPS) as f64;

        let step_s = median_step_total(&runs.timed, "nn.decode_step");
        let growth: Vec<f64> = runs.timed.iter().map(ctx_growth).collect();
        h.layer("nn.decode_step.busy_s", step_s);
        h.layer("nn.decode.steps", c.counter("decode/steps") as f64);
        h.layer(
            "nn.decode.cached_rows",
            c.counter("decode/cached_rows") as f64,
        );
        h.layer("tensor.gemv.calls", c.counter("int8/gemv_calls") as f64);
        h.layer("tensor.gemv_i32.busy_s", gemv_s);
        h.layer(
            "nn.decode_step.ctx_growth",
            stats::median(&growth).unwrap_or(f64::NAN),
        );
        let step_times: Vec<f64> = runs.timed.iter().flat_map(step_times).collect();
        h.layer(
            "nn.decode_step.p99_s",
            stats::percentile(&step_times, 99.0).unwrap_or(f64::NAN),
        );
        h.layer(
            "nn.int8_decoder.warmup_s",
            stats::median(&self.warmup_s).unwrap_or(0.0),
        );
        h.layer("llm_decode.coverage", gemv_s / step_s);
        eprintln!(
            "hostbench: gemv_i32 {gemv_s:.4}s of {step_s:.4}s of decode steps per generation"
        );
    }
}
