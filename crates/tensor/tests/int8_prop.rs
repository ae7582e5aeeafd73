//! Property-based tests for the int8 compute path: the blocked/SIMD GEMM
//! and GEMV kernels must be *bitwise* equal to the naive i32 oracle over
//! arbitrary shapes (including degenerate and saturated operands), the
//! GEMM byte-identical across thread counts, and the int8 SpMM must
//! agree exactly with the int8 dense GEMM on the densified adjacency.

use proptest::prelude::*;

use phox_tensor::sparse::DegreeBuckets;
use phox_tensor::sparse_i8::{self, CsrI8View, I8Reduce};
use phox_tensor::{gemm_i8, parallel, Matrix, QuantMatrix, Quantizer};

/// Strategy: an i8 buffer of exactly `len` elements spanning the full
/// (symmetric) level range, saturation included.
fn levels(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(-127i8..=127, len)
}

/// Strategy: a CSR pattern over an `n x n` adjacency as a row-major
/// density mask, returned as (offsets, indices).
fn csr_pattern(n: usize) -> impl Strategy<Value = (Vec<usize>, Vec<u32>)> {
    proptest::collection::vec(0u8..4, n * n).prop_map(move |mask| {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        offsets.push(0);
        for r in 0..n {
            for c in 0..n {
                // Keep ~1 in 4 candidate edges.
                if mask[r * n + c] == 0 {
                    indices.push(c as u32);
                }
            }
            offsets.push(indices.len());
        }
        (offsets, indices)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_gemm_bitwise_equals_naive_oracle(
        ((m, k, n), a, b) in (1usize..=24, 0usize..=24, 1usize..=24)
            .prop_flat_map(|(m, k, n)| {
                (Just((m, k, n)), levels(m * k), levels(k * n))
            }),
    ) {
        let naive = gemm_i8::matmul_i32_naive(&a, &b, m, k, n).unwrap();
        let blocked = gemm_i8::matmul_i32_blocked(&a, &b, m, k, n).unwrap();
        let production = gemm_i8::matmul_i32(&a, &b, m, k, n).unwrap();
        prop_assert_eq!(&blocked, &naive);
        prop_assert_eq!(&production, &naive);
    }

    #[test]
    fn gemv_bitwise_equals_naive_oracle(
        ((k, n), a, zero_mask, b) in (1usize..=300, 1usize..=300)
            .prop_flat_map(|(k, n)| {
                (
                    Just((k, n)),
                    proptest::collection::vec(i8::MIN..=i8::MAX, k),
                    proptest::collection::vec(0u8..3, k),
                    proptest::collection::vec(i8::MIN..=i8::MAX, k * n),
                )
            }),
    ) {
        // About a third of the activations are zeroed, so the SIMD
        // kernel's skipped all-zero pairs and the scalar kernel's skipped
        // zeros both occur; the full i8 range includes -128.
        let a: Vec<i8> = a
            .iter()
            .zip(&zero_mask)
            .map(|(&v, &z)| if z == 0 { 0 } else { v })
            .collect();
        let naive = gemm_i8::matmul_i32_naive(&a, &b, 1, k, n).unwrap();
        prop_assert_eq!(&gemm_i8::gemv_i32(&a, &b, k, n).unwrap(), &naive);
    }

    #[test]
    fn saturated_operands_stay_exact(
        (m, k, n) in (1usize..=8, 1usize..=64, 1usize..=8),
    ) {
        // All-saturated panels maximise every partial product; the sums
        // must still be exact (i32 headroom) and identical in all paths.
        let a = vec![127i8; m * k];
        let b = vec![-127i8; k * n];
        let naive = gemm_i8::matmul_i32_naive(&a, &b, m, k, n).unwrap();
        prop_assert!(naive.iter().all(|&s| s == -(127 * 127 * k as i32)));
        let blocked = gemm_i8::matmul_i32_blocked(&a, &b, m, k, n).unwrap();
        prop_assert_eq!(&blocked, &naive);
    }

    #[test]
    fn gemm_is_byte_identical_across_thread_counts(
        ((m, k, n), a, b) in (1usize..=20, 1usize..=20, 1usize..=20)
            .prop_flat_map(|(m, k, n)| {
                (Just((m, k, n)), levels(m * k), levels(k * n))
            }),
    ) {
        let baseline = parallel::with_threads(1, || {
            gemm_i8::matmul_i32(&a, &b, m, k, n).unwrap()
        });
        for threads in [2usize, 4] {
            let out = parallel::with_threads(threads, || {
                gemm_i8::matmul_i32(&a, &b, m, k, n).unwrap()
            });
            prop_assert_eq!(&out, &baseline, "threads = {}", threads);
        }
    }

    #[test]
    fn quant_matmul_equals_naive_oracle(
        ((m, k, n), a, b) in (1usize..=12, 1usize..=12, 1usize..=12)
            .prop_flat_map(|(m, k, n)| {
                (Just((m, k, n)), levels(m * k), levels(k * n))
            }),
    ) {
        let qa = QuantMatrix::from_levels(m, k, 0.25, a).unwrap();
        let qb = QuantMatrix::from_levels(k, n, 0.5, b).unwrap();
        let fast = qa.matmul(&qb).unwrap();
        let naive = qa.matmul_naive(&qb).unwrap();
        // Same integer sums, same scale product: bitwise-equal f64.
        prop_assert_eq!(fast.as_slice(), naive.as_slice());
    }

    #[test]
    fn spmm_equals_densified_gemm(
        (n, f, pattern, x) in (1usize..=12, 1usize..=8)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let nnz = indices.len();
        let values: Vec<i8> = (0..nnz).map(|i| ((i % 255) as i32 - 127) as i8).collect();
        let view = CsrI8View::new(n, n, &offsets, &indices, Some(&values)).unwrap();
        let spmm = sparse_i8::spmm_i8(&view, &x, f).unwrap();
        let dense = view.densify();
        let gemm = gemm_i8::matmul_i32_naive(&dense, &x, n, n, f).unwrap();
        prop_assert_eq!(&spmm, &gemm);
    }

    #[test]
    fn spmm_is_byte_identical_across_thread_counts(
        (n, f, pattern, x) in (1usize..=16, 1usize..=6)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let baseline = parallel::with_threads(1, || {
            sparse_i8::spmm_i8(&view, &x, f).unwrap()
        });
        for threads in [2usize, 4] {
            let out = parallel::with_threads(threads, || {
                sparse_i8::spmm_i8(&view, &x, f).unwrap()
            });
            prop_assert_eq!(&out, &baseline, "threads = {}", threads);
        }
    }

    #[test]
    fn scheduled_spmm_reuses_any_matching_schedule(
        (n, f, pattern, x) in (1usize..=12, 1usize..=6)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let schedule = DegreeBuckets::new(&offsets);
        let mut out = vec![0i32; n * f];
        sparse_i8::spmm_i8_scheduled(&view, &x, f, &schedule, &mut out).unwrap();
        let unscheduled = sparse_i8::spmm_i8(&view, &x, f).unwrap();
        prop_assert_eq!(&out, &unscheduled);
    }

    #[test]
    fn aggregate_max_bounds_members(
        (n, f, pattern, x) in (1usize..=10, 1usize..=4)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let mut out = vec![0i32; n * f];
        sparse_i8::aggregate_i8_into(&view, &x, f, I8Reduce::Max, true, &mut out).unwrap();
        for v in 0..n {
            for c in 0..f {
                // With include_self the max is at least the vertex's own
                // level and never exceeds the global max level.
                prop_assert!(out[v * f + c] >= x[v * f + c] as i32);
                prop_assert!(out[v * f + c] <= 127);
            }
        }
    }
}

/// The int8 kernels must report their work through the same counter
/// scheme as the f64 kernels: `int8/gemm_calls`, `int8/macs`,
/// `int8/spmm_calls`.
#[test]
fn int8_trace_counters_mirror_f64_scheme() {
    use phox_trace::{CounterValue, Trace};

    let trace = Trace::new();
    phox_trace::with_installed(trace.clone(), || {
        let a = Quantizer::with_scale(0.1)
            .unwrap()
            .quantize(&Matrix::filled(4, 6, 0.5));
        let b = Quantizer::with_scale(0.1)
            .unwrap()
            .quantize(&Matrix::filled(6, 3, -0.5));
        let _ = a.matmul(&b).unwrap();

        let offsets = [0usize, 1, 2];
        let indices = [1u32, 0];
        let view = CsrI8View::new(2, 2, &offsets, &indices, None).unwrap();
        let _ = sparse_i8::spmm_i8(&view, &[1, 2], 1).unwrap();
    });

    let counters = trace.counters();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(t, n, _)| t == "int8" && n == name)
            .map(|(_, _, v)| match v {
                CounterValue::Int(i) => *i,
                CounterValue::Float(f) => *f as i64,
            })
            .unwrap_or_else(|| panic!("counter int8/{name} missing"))
    };
    assert_eq!(get("gemm_calls"), 1);
    assert_eq!(get("spmm_calls"), 1);
    // One 4x6x3 product plus 2 nnz * 1 feature of SpMM MACs.
    assert_eq!(get("macs"), 4 * 6 * 3 + 2);
}
