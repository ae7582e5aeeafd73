//! Integration tests for the true int8 forward paths: accuracy against
//! the f64 oracle, exact thread-count invariance, and equivalence of the
//! int8 sparse aggregation with its dense counterpart.

use phox_nn::datasets::{labelled_sequences, sbm};
use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_nn::int8::QuantLinear;
use phox_nn::quant_eval::{evaluate_gnn_int8, evaluate_transformer_int8};
use phox_nn::transformer::{TransformerConfig, TransformerKind, TransformerModel};
use phox_tensor::{gemm_i8, parallel, Matrix, Prng, Quantizer};

#[test]
fn transformer_int8_tracks_full_precision() {
    let x = Prng::new(1).fill_normal(8, 32, 0.0, 1.0);
    let model = TransformerModel::random(TransformerConfig::tiny(8), 2).unwrap();
    let fp = model.forward(&x).unwrap();
    let int8 = model.forward_int8(&x).unwrap();
    let err = phox_tensor::stats::relative_error(&fp, &int8);
    assert!(err < 0.2, "int8 relative error {err}");
}

#[test]
fn seq2seq_int8_tracks_full_precision() {
    let mut cfg = TransformerConfig::tiny(8);
    cfg.kind = TransformerKind::EncoderDecoder;
    let model = TransformerModel::random(cfg, 3).unwrap();
    let src = Prng::new(4).fill_normal(8, 32, 0.0, 1.0);
    let tgt = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
    let fp = model.forward_seq2seq(&src, &tgt).unwrap();
    let int8 = model.forward_seq2seq_int8(&src, &tgt).unwrap();
    let err = phox_tensor::stats::relative_error(&fp, &int8);
    assert!(err < 0.25, "seq2seq int8 relative error {err}");
}

#[test]
fn gnn_int8_tracks_full_precision_all_kinds() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 6).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 7).unwrap();
        let fp = model.forward(&task.graph, &task.features).unwrap();
        let int8 = model.forward_int8(&task.graph, &task.features).unwrap();
        let err = phox_tensor::stats::relative_error(&fp, &int8);
        assert!(err < 0.3, "{kind}: int8 relative error {err}");
    }
}

#[test]
fn int8_forward_is_bit_identical_across_thread_counts() {
    // i32 sums are exact, so the int8 forward must not depend on the
    // thread count in any bit.
    let x = Prng::new(8).fill_normal(8, 32, 0.0, 1.0);
    let model = TransformerModel::random(TransformerConfig::tiny(8), 9).unwrap();
    let task = sbm(3, 12, 16, 0.5, 0.05, 10).unwrap();
    let gnn = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 16, 32, 3), 11).unwrap();
    let baseline_t = parallel::with_threads(1, || model.forward_int8(&x).unwrap());
    let baseline_g = parallel::with_threads(1, || gnn.forward_int8(&task.graph, &task.features));
    let baseline_g = baseline_g.unwrap();
    for threads in [2usize, 4] {
        let t = parallel::with_threads(threads, || model.forward_int8(&x).unwrap());
        assert_eq!(t, baseline_t, "transformer differs at {threads} threads");
        let g = parallel::with_threads(threads, || gnn.forward_int8(&task.graph, &task.features));
        assert_eq!(g.unwrap(), baseline_g, "gnn differs at {threads} threads");
    }
}

#[test]
fn quant_linear_equals_raw_kernel() {
    let w = Prng::new(12).xavier(24, 10);
    let x = Prng::new(13).fill_normal(6, 24, 0.0, 1.0);
    let layer = QuantLinear::from_weight(&w);
    let y = layer.forward(&x).unwrap();

    let qx = Quantizer::calibrate(&x).quantize(&x);
    let sums = gemm_i8::matmul_i32_naive(qx.as_i8_slice(), layer.weight().as_i8_slice(), 6, 24, 10)
        .unwrap();
    let scale = qx.scale() * layer.weight().scale();
    for r in 0..6 {
        for c in 0..10 {
            assert_eq!(y.get(r, c), sums[r * 10 + c] as f64 * scale);
        }
    }
}

#[test]
fn aggregate_int8_matches_dense_reference_on_levels() {
    // Feed features that are exactly representable at the quantization
    // scale: the int8 aggregation must then equal the f64 aggregation
    // exactly (sums/maxima of levels are exact in i32).
    let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3)]).unwrap();
    let mut levels = Matrix::zeros(5, 3);
    let mut seed = Prng::new(14);
    for r in 0..5 {
        for c in 0..3 {
            levels.set(r, c, seed.uniform(-127.0, 127.0).round());
        }
    }
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 3, 4, 2), 15).unwrap();
    for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
        for include_self in [false, true] {
            let int8 = model
                .aggregate_int8(&g, &levels, agg, include_self)
                .unwrap();
            let dense = model
                .aggregate_dense_stack(&g, &levels, agg, include_self)
                .unwrap();
            let err = phox_tensor::stats::relative_error(&dense, &int8);
            assert!(err < 1e-12, "{agg} include_self={include_self}: err {err}");
        }
    }
}

#[test]
fn quant_eval_int8_reports_are_comparable() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 16).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 17).unwrap();
        let r = evaluate_gnn_int8(&model, &task).unwrap();
        assert!(r.agreement >= 0.8, "{kind}: agreement {}", r.agreement);
        assert!(r.is_comparable(0.15), "{kind}: {r:?}");
    }

    let seq_task = labelled_sequences(12, 3, 8, 32, 18).unwrap();
    let model = TransformerModel::random(TransformerConfig::tiny(8), 19).unwrap();
    let r = evaluate_transformer_int8(&model, &seq_task).unwrap();
    assert!(r.agreement >= 0.75, "agreement {}", r.agreement);
    assert!(r.is_comparable(0.25), "{r:?}");
    assert!(r.mean_relative_error < 0.3, "err {}", r.mean_relative_error);
}
