//! Property-based tests for the model zoo and workload generators.

use proptest::prelude::*;

use phox_nn::datasets::{labelled_sequences, sbm, GraphShape};
use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_nn::transformer::TransformerConfig;

proptest! {
    #[test]
    fn csr_preserves_every_distinct_edge(
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
    ) {
        let g = CsrGraph::from_edges(20, &edges).unwrap();
        let distinct: std::collections::BTreeSet<(u32, u32)> = edges.iter().copied().collect();
        prop_assert_eq!(g.num_edges(), distinct.len());
        let total_degree: usize = (0..20).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total_degree, distinct.len());
        // Every adjacency list is sorted and duplicate-free.
        for v in 0..20 {
            let n = g.neighbors(v);
            prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn csr_neighbor_set_matches_distinct_input(
        edges in proptest::collection::vec((0u32..8, 0u32..8), 1..30),
    ) {
        let g = CsrGraph::from_edges(8, &edges).unwrap();
        for v in 0..8u32 {
            let expected: std::collections::BTreeSet<u32> = edges
                .iter()
                .filter(|(_, d)| *d == v)
                .map(|&(s, _)| s)
                .collect();
            let got: Vec<u32> = g.neighbors(v as usize).to_vec();
            prop_assert_eq!(got, expected.into_iter().collect::<Vec<u32>>());
        }
    }

    #[test]
    fn census_counts_scale_with_layers(
        layers in 1usize..6,
        d in (1usize..8).prop_map(|x| x * 16),
        seq in (1usize..8).prop_map(|x| x * 16),
    ) {
        let one = TransformerConfig {
            name: "t".into(),
            kind: phox_nn::transformer::TransformerKind::EncoderOnly,
            layers: 1,
            d_model: d,
            heads: 4,
            d_ff: 2 * d,
            seq_len: seq,
            ff_activation: phox_nn::transformer::FfActivation::Relu,
        };
        let many = TransformerConfig { layers, ..one.clone() };
        prop_assert_eq!(many.census().macs, one.census().macs * layers as u64);
        prop_assert_eq!(
            many.parameter_count(),
            one.parameter_count() * layers as u64
        );
    }

    #[test]
    fn census_total_ops_positive_and_consistent(
        nodes in 10u64..5_000,
        edges in 10u64..50_000,
    ) {
        let cfg = GnnConfig::two_layer(GnnKind::Gcn, 64, 16, 4);
        let c = cfg.census(nodes, edges);
        prop_assert!(c.total_ops() > 0);
        prop_assert_eq!(c.total_bits(), c.total_ops() * 8);
        // More edges -> at least as many total ops.
        let c2 = cfg.census(nodes, edges + 1000);
        prop_assert!(c2.total_ops() >= c.total_ops());
    }

    #[test]
    fn rmat_generator_matches_requested_shape(
        nodes in 16usize..400,
        avg_degree in 1usize..8,
        seed in any::<u64>(),
    ) {
        let shape = GraphShape {
            name: "p".into(),
            nodes,
            edges: nodes * avg_degree,
            features: 4,
            classes: 2,
        };
        let g = shape.instantiate(seed).unwrap();
        prop_assert_eq!(g.num_nodes(), nodes);
        prop_assert_eq!(g.num_edges(), nodes * avg_degree);
        // No self loops by construction.
        for v in 0..nodes {
            prop_assert!(!g.neighbors(v).contains(&(v as u32)));
        }
    }

    #[test]
    fn sbm_labels_partition_nodes(
        communities in 2usize..5,
        per in 3usize..10,
        seed in any::<u64>(),
    ) {
        let t = sbm(communities, per, 4, 0.4, 0.05, seed).unwrap();
        prop_assert_eq!(t.labels.len(), communities * per);
        for k in 0..communities {
            let count = t.labels.iter().filter(|&&l| l == k).count();
            prop_assert_eq!(count, per);
        }
    }

    #[test]
    fn gnn_forward_always_finite(
        seed in any::<u64>(),
        kind_idx in 0usize..4,
    ) {
        let kind = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat][kind_idx];
        let t = sbm(2, 6, 8, 0.5, 0.1, seed).unwrap();
        let model = GnnModel::random(GnnConfig::two_layer(kind, 8, 8, 2), seed).unwrap();
        let y = model.forward(&t.graph, &t.features).unwrap();
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn aggregate_sum_equals_mean_times_degree(seed in any::<u64>()) {
        let t = sbm(2, 6, 4, 0.6, 0.2, seed).unwrap();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 4, 4, 2), seed).unwrap();
        let sum = model.aggregate(&t.graph, &t.features, Aggregation::Sum, false).unwrap();
        let mean = model.aggregate(&t.graph, &t.features, Aggregation::Mean, false).unwrap();
        for v in 0..t.graph.num_nodes() {
            let deg = t.graph.degree(v);
            if deg == 0 {
                continue;
            }
            for c in 0..4 {
                prop_assert!((sum.get(v, c) - mean.get(v, c) * deg as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn max_aggregation_dominates_mean(seed in any::<u64>()) {
        let t = sbm(2, 6, 4, 0.6, 0.2, seed).unwrap();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 4, 4, 2), seed).unwrap();
        let mean = model.aggregate(&t.graph, &t.features, Aggregation::Mean, false).unwrap();
        let max = model.aggregate(&t.graph, &t.features, Aggregation::Max, false).unwrap();
        for v in 0..t.graph.num_nodes() {
            if t.graph.degree(v) == 0 {
                continue;
            }
            for c in 0..4 {
                prop_assert!(max.get(v, c) >= mean.get(v, c) - 1e-9);
            }
        }
    }

    #[test]
    fn sequence_tasks_are_deterministic(seed in any::<u64>()) {
        let a = labelled_sequences(4, 2, 4, 8, seed).unwrap();
        let b = labelled_sequences(4, 2, 4, 8, seed).unwrap();
        prop_assert_eq!(a, b);
    }
}
