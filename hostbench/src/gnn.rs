//! `gnn_powerlaw`, a part of the `functional` workload: a 2-layer GCN
//! through `GhostFunctional::forward` on
//! a 100k-node / 1M-edge Chung–Lu power-law graph (γ 2.2, 32 features).
//! Optical aggregation over a hub-skewed degree schedule is gathered
//! from a 25.6 MB feature matrix, larger than a core's L2 cache. It
//! exercises `ghost` and the sparse kernels; its only dense products are
//! the thin `n × 32 × 32` and `n × 32 × 8` combines.

use std::time::Instant;

use phox_core::ghost::{GhostConfig, GhostFunctional};
use phox_core::nn::datasets::power_law;
use phox_core::nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_core::photonics::devices::OpticalActivation;
use phox_core::tensor::sparse_i8::{aggregate_i8_into, I8Reduce};
use phox_core::tensor::stats::relative_error;
use phox_core::tensor::{split_seed, Matrix, Prng, Quantizer};

use crate::functional::AnalogMatmul;
use crate::harness::{digest_matrix, median_step_total, replay, timed, Harness, Runs, Steps};
use crate::stats;

const NODES: usize = 100_000;
const EDGES: usize = 1_000_000;
const GAMMA: f64 = 2.2;
/// Layer widths: input features, hidden, classes.
const DIMS: [usize; 3] = [32, 32, 8];
/// `(input, output)` widths of the two layers.
const LAYERS: [(usize, usize); 2] = [(DIMS[0], DIMS[1]), (DIMS[1], DIMS[2])];
/// Largest relative error of the analog forward against the f64
/// forward that still counts as correct (the bound the GHOST end-to-end
/// tests hold the simulator to).
const MAX_ANALOG_ERROR: f64 = 0.4;

/// The GNN part, built and checked against its references.
pub struct Gnn {
    graph: CsrGraph,
    features: Matrix,
    model: GnnModel,
    sim: GhostFunctional,
    digest: u64,
    graph_s: Vec<f64>,
}

/// Builds the part and runs its one-off checks.
///
/// # Errors
///
/// Fails when the graph, model or simulator cannot be built.
pub fn prepare(h: &mut Harness) -> Result<Gnn, String> {
    let seed = h.seed();
    let mut graph_s = Vec::new();
    let (graph, features, model, sim) = h.setup(|| {
        let t = Instant::now();
        let graph =
            power_law(NODES, EDGES, GAMMA, split_seed(seed, 1)).map_err(|e| e.to_string())?;
        graph_s.push(t.elapsed().as_secs_f64());
        let features = Prng::new(split_seed(seed, 2)).fill_normal(NODES, DIMS[0], 0.0, 1.0);
        let cfg = GnnConfig::two_layer(GnnKind::Gcn, DIMS[0], DIMS[1], DIMS[2]);
        let model = GnnModel::random(cfg, split_seed(seed, 3)).map_err(|e| e.to_string())?;
        let sim = GhostFunctional::new(&GhostConfig::default(), split_seed(seed, 4))
            .map_err(|e| e.to_string())?;
        Ok((graph, features, model, sim))
    })?;

    let reference = sim
        .clone()
        .forward(&model, &graph, &features)
        .map_err(|e| e.to_string())?;
    let digest = digest_matrix(&reference);
    h.reference("gnn_powerlaw", digest);
    let exact = model
        .forward(&graph, &features)
        .map_err(|e| e.to_string())?;
    let err = relative_error(&exact, &reference);
    h.check(
        &format!("analog forward error {err} against the f64 forward exceeds {MAX_ANALOG_ERROR}"),
        err < MAX_ANALOG_ERROR,
    );

    let (_, combine_macs) = counts(&graph);
    let (n, e) = (graph.num_nodes() as u64, graph.num_edges() as u64);
    // Each layer aggregates its input over every edge plus the node
    // itself, then combines on the analog array.
    let macs = LAYERS.iter().map(|&(f, _)| (e + n) * f as u64).sum::<u64>() + combine_macs;
    h.work(macs as f64, 1.0);
    Ok(Gnn {
        graph,
        features,
        model,
        sim,
        digest,
        graph_s,
    })
}

/// The analog accumulates of the aggregations and the MACs of the
/// combines one forward makes on `graph`.
fn counts(graph: &CsrGraph) -> (u64, u64) {
    let (n, e) = (graph.num_nodes() as u64, graph.num_edges() as u64);
    let agg_accs = LAYERS.iter().map(|&(f, _)| e * f as u64).sum();
    let combine_macs = LAYERS.iter().map(|&(f, o)| n * (f * o) as u64).sum();
    (agg_accs, combine_macs)
}

impl Gnn {
    /// One forward; whether its output equals the reference.
    ///
    /// # Errors
    ///
    /// Propagates a failed forward.
    pub fn pass(&self, steps: &mut Steps) -> Result<bool, String> {
        let mut sim = self.sim.clone();
        let out = timed(steps, "ghost.forward", || {
            sim.forward(&self.model, &self.graph, &self.features)
        })
        .map_err(|e| e.to_string())?;
        Ok(digest_matrix(&out) == self.digest)
    }

    /// Reconciles the traced counters of part `part` and records the
    /// per-layer metrics of a traced run, but for the analog matmul's,
    /// which it returns to be summed with the other parts'.
    pub fn layers(&self, h: &mut Harness, runs: &Runs, part: usize) -> AnalogMatmul {
        let Gnn {
            graph,
            features,
            sim,
            graph_s,
            ..
        } = self;
        let (n, e) = (graph.num_nodes() as u64, graph.num_edges() as u64);
        let (agg_accs, combine_macs) = counts(graph);
        for c in runs.counts(part) {
            h.check_eq(
                "ghost/sparse_agg_calls per forward",
                2,
                c.counter("ghost/sparse_agg_calls"),
            );
            h.check_eq(
                "ghost/sparse_agg_rows per forward",
                2 * n,
                c.counter("ghost/sparse_agg_rows"),
            );
            h.check_eq(
                "ghost/sparse_agg_nnz per forward",
                2 * e,
                c.counter("ghost/sparse_agg_nnz"),
            );
            h.check_eq(
                "int8/analog_agg_accs per forward",
                agg_accs,
                c.counter("int8/analog_agg_accs"),
            );
            h.check_eq("analog/matmuls per forward", 2, c.counter("analog/matmuls"));
            h.check_eq(
                "int8/analog_macs per forward",
                combine_macs,
                c.counter("int8/analog_macs"),
            );
        }
        let c = &runs.traced[0].1[part];

        let mut rng = Prng::new(split_seed(h.seed(), 5));
        let hidden = rng.fill_normal(NODES, DIMS[1], 0.0, 1.0);
        let (mut agg_s, mut floor_s, mut matmul_s) = (0.0, 0.0, 0.0);
        for (input, &(_, out)) in [features, &hidden].into_iter().zip(&LAYERS) {
            let f = input.cols();
            let mut s = sim.clone();
            agg_s += replay(|| s.optical_aggregate(graph, input, Aggregation::Mean, true));
            let codes = Quantizer::calibrate(input).quantize(input);
            let mut sums = vec![0i32; NODES * f];
            let view = graph.csr_i8_view();
            floor_s += replay(|| {
                aggregate_i8_into(
                    &view,
                    codes.as_i8_slice(),
                    f,
                    I8Reduce::Sum,
                    true,
                    &mut sums,
                )
            });
            let w = rng.fill_normal(f, out, 0.0, 1.0);
            let mut engine = sim.engine().clone();
            matmul_s += replay(|| engine.matmul(input, &w));
        }
        let mut engine = sim.engine().clone();
        let soa_s = replay(|| engine.soa_activate(OpticalActivation::Relu, &hidden));

        let forward_s = median_step_total(&runs.timed, "ghost.forward");
        h.layer("ghost.forward.busy_s", forward_s);
        h.layer("ghost.optical_aggregate.busy_s", agg_s);
        h.layer(
            "ghost.sparse_agg.calls",
            c.counter("ghost/sparse_agg_calls") as f64,
        );
        h.layer(
            "ghost.sparse_agg.rows",
            c.counter("ghost/sparse_agg_rows") as f64,
        );
        h.layer(
            "ghost.sparse_agg.nnz",
            c.counter("ghost/sparse_agg_nnz") as f64,
        );
        h.layer(
            "ghost.analog_agg.accs",
            c.counter("int8/analog_agg_accs") as f64,
        );
        h.layer("tensor.aggregate_i8.busy_s", floor_s);
        h.layer("photonics.soa_activate.busy_s", soa_s);
        h.layer(
            "nn.datasets.power_law.busy_s",
            stats::median(graph_s).unwrap_or(0.0),
        );
        h.layer(
            "gnn_powerlaw.coverage",
            (agg_s + matmul_s + soa_s) / forward_s,
        );
        eprintln!(
            "hostbench: optical aggregate {agg_s:.4}s vs aggregate_i8 floor {floor_s:.4}s per forward of {forward_s:.4}s"
        );
        AnalogMatmul::of(runs, part, matmul_s)
    }
}
