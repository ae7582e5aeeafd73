//! `model_sweep`: the model-time pipeline with no functional compute.
//! One iteration costs the Figs. 8–11 workloads through the comparison
//! harness, the sensitivity grid (sequence length, batch, wavelength
//! channels, neighbour fan-out), one `simulate_generation`, and a
//! serving rate ladder over `serve::standard_mix`. It exercises the
//! `tron`/`ghost` cost models, the baselines and `serve`.

use phox_bench::{ghost_workloads, paper_ghost, paper_tron, tron_workloads};
use phox_core::baselines::roofline::WorkloadKind;
use phox_core::baselines::{gnn_suite, transformer_suite};
use phox_core::comparison::{ghost_comparison, tron_comparison};
use phox_core::ghost::{GhostAccelerator, GnnWorkload};
use phox_core::nn::datasets::GraphShape;
use phox_core::nn::gnn::{GnnConfig, GnnKind};
use phox_core::nn::transformer::TransformerConfig;
use phox_core::serve::{standard_mix, ServeConfig, ServeEngine};
use phox_core::tensor::split_seed;
use phox_core::tron::{TronAccelerator, TronConfig};

use crate::harness::{digest_text, median_step_total, replay, timed, Harness, Steps};

const SEQS: [usize; 4] = [128, 256, 384, 512];
const BATCHES: [usize; 4] = [1, 4, 16, 64];
const CHANNELS: [usize; 4] = [8, 16, 25, 32];
const FANOUTS: [usize; 5] = [5, 10, 25, 50, 100];
const GEN_TOKENS: usize = 64;
/// Offered loads of the serving ladder, requests per second: from
/// mostly solo windows to saturation.
const RATES_HZ: [f64; 4] = [500.0, 2_000.0, 8_000.0, 32_000.0];
/// Expected arrivals per rate point; the horizon is this over the rate.
/// At saturation about half are rejected, which still leaves every point
/// well above [`MIN_COMPLETIONS`].
const ARRIVALS_PER_POINT: f64 = 4_000.0;
/// Completions every rate point must reach for its tail to mean much.
const MIN_COMPLETIONS: u64 = 1_000;

/// The accelerators and workload lists every iteration costs.
struct Sweep {
    tron: TronAccelerator,
    ghost: GhostAccelerator,
    tron_models: Vec<TransformerConfig>,
    ghost_loads: Vec<GnnWorkload>,
}

impl Sweep {
    fn tron_at(&self, batch: usize, channels: usize) -> Result<TronAccelerator, String> {
        TronAccelerator::new(TronConfig {
            batch,
            array_channels: channels,
            ..self.tron.config().clone()
        })
        .map_err(|e| e.to_string())
    }

    /// The sensitivity grid's TRON points: `(batch, channels, model)`.
    fn tron_grid(&self) -> Vec<(usize, usize, TransformerConfig)> {
        let (b, c) = (self.tron.config().batch, self.tron.config().array_channels);
        let base = TransformerConfig::bert_base(128);
        SEQS.iter()
            .map(|&s| (b, c, TransformerConfig::bert_base(s)))
            .chain(BATCHES.iter().map(|&batch| (batch, c, base.clone())))
            .chain(CHANNELS.iter().map(|&ch| (b, ch, base.clone())))
            .collect()
    }

    /// The sensitivity grid's GHOST points: GraphSAGE on Reddit by
    /// neighbour fan-out.
    fn fanout_loads() -> Vec<GnnWorkload> {
        FANOUTS
            .iter()
            .map(|&f| {
                GnnWorkload::sampled(
                    GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
                    GraphShape::reddit(),
                    f,
                )
            })
            .collect()
    }
}

/// What one iteration produced.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// Every ledger, comparison row and serving report, as text.
    text: String,
    /// Costed (platform, workload) points plus serving rate points.
    points: u64,
    /// Modelled MACs of the costed workloads.
    macs: u64,
    comparison_rows: u64,
    completed: Vec<u64>,
    windows: u64,
}

fn iteration(s: &Sweep, seed: u64, steps: &mut Steps) -> Result<Outcome, String> {
    let err = |e: phox_core::photonics::PhotonicError| e.to_string();
    let mut o = Outcome::default();
    let record = |o: &mut Outcome, text: String, points: usize, macs: u64| {
        o.text.push_str(&text);
        o.text.push('\n');
        o.points += points as u64;
        o.macs += points as u64 * macs;
    };
    for m in &s.tron_models {
        let rows = timed(steps, "core.tron_comparison", || {
            tron_comparison(&s.tron, m)
        })
        .map_err(err)?;
        o.comparison_rows += rows.len() as u64;
        record(&mut o, format!("{rows:?}"), rows.len(), m.census().macs);
    }
    for w in &s.ghost_loads {
        let rows = timed(steps, "core.ghost_comparison", || {
            ghost_comparison(&s.ghost, w)
        })
        .map_err(err)?;
        o.comparison_rows += rows.len() as u64;
        record(&mut o, format!("{rows:?}"), rows.len(), w.census().macs);
    }
    for (batch, channels, model) in s.tron_grid() {
        let report = timed(steps, "tron.simulate", || {
            s.tron_at(batch, channels)
                .and_then(|acc| acc.simulate(&model).map_err(err))
        })?;
        record(&mut o, format!("{report:?}"), 1, model.census().macs);
    }
    for w in Sweep::fanout_loads() {
        let report = timed(steps, "ghost.simulate", || s.ghost.simulate(&w)).map_err(err)?;
        record(&mut o, format!("{report:?}"), 1, w.census().macs);
    }
    let gpt2 = TransformerConfig::gpt2(128);
    let generation = timed(steps, "tron.simulate_generation", || {
        s.tron.simulate_generation(&gpt2, GEN_TOKENS)
    })
    .map_err(err)?;
    let gen_macs = gpt2.census().macs + gpt2.generation_census(GEN_TOKENS).macs;
    record(&mut o, format!("{generation:?}"), 1, gen_macs);

    let classes = timed(steps, "serve.standard_mix", || {
        standard_mix(&s.tron, &s.ghost)
    })
    .map_err(err)?;
    for (i, &rate) in RATES_HZ.iter().enumerate() {
        let config = ServeConfig {
            seed: split_seed(seed, 10 + i as u64),
            arrival_rate_hz: rate,
            duration_s: ARRIVALS_PER_POINT / rate,
            ..ServeConfig::default()
        };
        let report = timed(steps, "serve.run", || {
            ServeEngine::new(config, classes.clone()).and_then(|e| e.run())
        })
        .map_err(err)?;
        o.completed.push(report.completed);
        o.windows += report.windows;
        record(&mut o, report.to_json(), 1, 0);
    }
    Ok(o)
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when the paper accelerators cannot be built or the reference
/// iteration errs.
pub fn run(h: &mut Harness) -> Result<(), String> {
    let seed = h.seed();
    let s = h.setup(|| {
        Ok(Sweep {
            tron: paper_tron().map_err(|e| e.to_string())?,
            ghost: paper_ghost().map_err(|e| e.to_string())?,
            tron_models: tron_workloads(),
            ghost_loads: ghost_workloads(),
        })
    })?;

    let reference = iteration(&s, seed, &mut Steps::new())?;
    h.reference("model_sweep", digest_text(&reference.text));
    for (rate, &done) in RATES_HZ.iter().zip(&reference.completed) {
        h.check(
            &format!("serving at {rate} req/s completed {done} < {MIN_COMPLETIONS} requests"),
            done >= MIN_COMPLETIONS,
        );
    }
    h.work(reference.macs as f64, reference.points as f64);

    let runs = h.iterate(&mut [("model_sweep", &mut |steps: &mut Steps| {
        Ok(iteration(&s, seed, steps)? == reference)
    })]);
    if !h.tracing() {
        return Ok(());
    }

    let completed: u64 = reference.completed.iter().sum();
    for c in runs.counts(0) {
        h.check_eq(
            "serve/completed per iteration",
            completed,
            c.counter("serve/completed"),
        );
        h.check_eq(
            "serve/windows per iteration",
            reference.windows,
            c.counter("serve/windows"),
        );
        h.check_eq(
            "comparison platform spans per iteration",
            reference.comparison_rows,
            c.spans("compare:") as i64,
        );
    }
    let c = &runs.traced[0].1[0];

    // Replays of the cost-model calls the iteration makes itself (the
    // comparison harness's and the grid's), on prebuilt accelerators.
    let mut tron_s = 0.0;
    for m in &s.tron_models {
        tron_s += replay(|| s.tron.simulate(m));
    }
    for (batch, channels, model) in s.tron_grid() {
        let acc = s.tron_at(batch, channels)?;
        tron_s += replay(|| acc.simulate(&model));
    }
    let (mut ghost_s, mut balance_s) = (0.0, 0.0);
    for w in s.ghost_loads.iter().chain(&Sweep::fanout_loads()) {
        ghost_s += replay(|| s.ghost.simulate(w));
        balance_s += replay(|| s.ghost.balance_factor(w));
    }
    let batch = s.tron.config().batch;
    let mut baselines_s = 0.0;
    for m in &s.tron_models {
        let census = m.census();
        baselines_s += replay(|| {
            transformer_suite()
                .iter()
                .map(|b| b.evaluate(&census, WorkloadKind::DenseTransformer, m.layers, batch))
                .collect::<Vec<_>>()
        });
    }
    for w in &s.ghost_loads {
        let census = w.census();
        baselines_s += replay(|| {
            gnn_suite()
                .iter()
                .map(|b| b.evaluate(&census, WorkloadKind::SparseGnn, w.model.layers(), 1))
                .collect::<Vec<_>>()
        });
    }

    let generation_s = median_step_total(&runs.timed, "tron.simulate_generation");
    let mix_s = median_step_total(&runs.timed, "serve.standard_mix");
    let serve_s = median_step_total(&runs.timed, "serve.run");
    let secs: Vec<f64> = runs.timed.iter().map(|i| i.secs).collect();
    let iter_s = crate::stats::median(&secs).unwrap_or(f64::NAN);
    h.layer("tron.simulate.calls", c.spans("tron:stage/static") as f64);
    h.layer("tron.simulate.busy_s", tron_s);
    h.layer("tron.simulate_generation.busy_s", generation_s);
    h.layer("ghost.simulate.calls", c.spans("ghost:stage/static") as f64);
    h.layer("ghost.simulate.busy_s", ghost_s);
    h.layer("ghost.balance_factor.busy_s", balance_s);
    h.layer("baselines.evaluate.busy_s", baselines_s);
    h.layer("serve.standard_mix.busy_s", mix_s);
    h.layer("serve.run.busy_s", serve_s);
    h.layer("serve.completed", c.counter("serve/completed") as f64);
    h.layer("serve.windows", c.counter("serve/windows") as f64);
    h.layer(
        "model_sweep.coverage",
        (tron_s + ghost_s + baselines_s + generation_s + mix_s + serve_s) / iter_s,
    );
    eprintln!(
        "hostbench: balance_factor {balance_s:.4}s of ghost.simulate {ghost_s:.4}s of {iter_s:.4}s per sweep"
    );
    Ok(())
}
