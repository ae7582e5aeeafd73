//! Equivalence properties for the sparse graph compute path.
//!
//! The CSR kernels in `phox_tensor::sparse` replaced the per-node
//! dense-stack aggregation; these properties pin the new path to the old
//! semantics exactly (`assert_eq`, not tolerance — both reduce members in
//! CSR order, so the floats must match bit for bit) and pin the digital
//! forward pass to byte-identity across thread counts.

use proptest::prelude::*;

use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_tensor::{ops, parallel, Matrix, Prng};

const NODES: usize = 12;

fn arbitrary_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..NODES as u32, 0u32..NODES as u32), 0..90)
}

/// Per-node reference for a single digital GAT layer, mirroring the
/// retired implementation: per-node softmax over LeakyReLU attention
/// logits, then a weighted accumulation of neighbour transforms in CSR
/// member order (the same order the sparse SpMM reduces in).
#[allow(clippy::needless_range_loop)] // index loops mirror the retired implementation
fn gat_layer_reference(model: &GnnModel, graph: &CsrGraph, x: &Matrix) -> Matrix {
    let lw = &model.layers()[0];
    let z = x.matmul(&lw.w).unwrap();
    let fout = z.cols();
    let n = graph.num_nodes();
    let mut src_logit = vec![0.0; n];
    let mut dst_logit = vec![0.0; n];
    for v in 0..n {
        for c in 0..fout {
            src_logit[v] += z.get(v, c) * lw.a_src[c];
            dst_logit[v] += z.get(v, c) * lw.a_dst[c];
        }
    }
    let mut out = Matrix::zeros(n, fout);
    for v in 0..n {
        let neigh = graph.neighbors(v);
        if neigh.is_empty() {
            out.row_mut(v).copy_from_slice(z.row(v));
            continue;
        }
        let mut alphas: Vec<f64> = neigh
            .iter()
            .map(|&u| ops::leaky_relu_scalar(src_logit[u as usize] + dst_logit[v], 0.2))
            .collect();
        let m = alphas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for a in alphas.iter_mut() {
            *a = (*a - m).exp();
            sum += *a;
        }
        for a in alphas.iter_mut() {
            *a /= sum;
        }
        for (&u, &a) in neigh.iter().zip(alphas.iter()) {
            for c in 0..fout {
                let acc = out.get(v, c) + a * z.get(u as usize, c);
                out.set(v, c, acc);
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn sparse_aggregation_equals_dense_stack(
        edges in arbitrary_edges(),
        seed in any::<u64>(),
    ) {
        let g = CsrGraph::from_edges(NODES, &edges).unwrap();
        let x = Prng::new(seed).fill_normal(NODES, 5, 0.0, 1.0);
        let model =
            GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 5, 4, 2), seed).unwrap();
        for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
            for include_self in [false, true] {
                let sparse = model.aggregate(&g, &x, agg, include_self).unwrap();
                let dense = model.aggregate_dense_stack(&g, &x, agg, include_self).unwrap();
                prop_assert_eq!(sparse, dense, "agg {:?} include_self {}", agg, include_self);
            }
        }
    }

    #[test]
    fn forward_equals_dense_semantics_for_every_kind(
        edges in arbitrary_edges(),
        seed in any::<u64>(),
        kind_idx in 0usize..4,
        agg_idx in 0usize..3,
    ) {
        // Every kind's aggregation step must agree with the dense-stack
        // oracle when spliced into the same layer arithmetic.
        let kind = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat][kind_idx];
        let agg = [Aggregation::Sum, Aggregation::Mean, Aggregation::Max][agg_idx];
        let g = CsrGraph::from_edges(NODES, &edges).unwrap();
        let x = Prng::new(seed).fill_normal(NODES, 6, 0.0, 1.0);
        let cfg = GnnConfig { kind, dims: vec![6, 3], aggregation: agg };
        let model = GnnModel::random(cfg, seed).unwrap();
        let y = model.forward(&g, &x).unwrap();
        let expected = match kind {
            GnnKind::Gcn => {
                let a = model.aggregate_dense_stack(&g, &x, Aggregation::Mean, true).unwrap();
                a.matmul(&model.layers()[0].w).unwrap()
            }
            GnnKind::GraphSage => {
                let a = model.aggregate_dense_stack(&g, &x, agg, false).unwrap();
                x.hconcat(&a).unwrap().matmul(&model.layers()[0].w).unwrap()
            }
            GnnKind::Gin => {
                let a = model.aggregate_dense_stack(&g, &x, Aggregation::Sum, false).unwrap();
                let mixed = x.scale(1.0 + model.epsilon()).add(&a).unwrap();
                mixed.matmul(&model.layers()[0].w).unwrap()
            }
            GnnKind::Gat => gat_layer_reference(&model, &g, &x),
        };
        prop_assert_eq!(y, expected, "kind {:?}", kind);
    }

    #[test]
    fn digital_forward_is_thread_count_invariant(
        edges in arbitrary_edges(),
        seed in any::<u64>(),
        kind_idx in 0usize..4,
    ) {
        let kind = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat][kind_idx];
        let g = CsrGraph::from_edges(NODES, &edges).unwrap();
        let x = Prng::new(seed).fill_normal(NODES, 6, 0.0, 1.0);
        let model =
            GnnModel::random(GnnConfig::two_layer(kind, 6, 8, 3), seed).unwrap();
        let reference =
            parallel::with_threads(1, || model.forward(&g, &x).unwrap());
        for threads in [2usize, 4] {
            let y = parallel::with_threads(threads, || model.forward(&g, &x).unwrap());
            prop_assert_eq!(&y, &reference, "kind {:?} threads {}", kind, threads);
        }
    }
}
