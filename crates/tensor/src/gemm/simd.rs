//! Runtime-dispatched f64 SIMD dot/axpy microkernels with a pinned
//! lane-accumulation order.
//!
//! Floating-point addition is not associative, so an AVX2 kernel that
//! accumulates in four 4-wide vector registers produces different bits
//! than a scalar single-accumulator loop. The int8 kernel
//! ([`crate::gemm_i8`]) sidesteps this because wrapping-`i32` addition
//! *is* associative; here we get the same guarantee a different way:
//! **the scalar kernel is restructured to the exact lane-accumulation
//! order of the vector kernel**, fused-multiply-add included.
//!
//! * [`dot`] accumulates in **16 fixed lanes** (four 4-lane `f64`
//!   vectors); lane `l` owns indices `i ≡ l (mod 16)`. The AVX2 path
//!   issues one `vfmadd231pd` per vector per 16-element step; the
//!   scalar path replays the identical schedule with [`f64::mul_add`],
//!   which is the same correctly-rounded IEEE-754 fusedMultiplyAdd
//!   operation. The reduction order is fixed on both paths:
//!   `w[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12])` (vector adds
//!   `(acc0 + acc1) + (acc2 + acc3)`), then horizontally
//!   `(w[0] + w[2]) + (w[1] + w[3])` (low-128 + high-128, then the
//!   final pairwise add), then a sequential fused tail for `k % 16`.
//!   Result: scalar and AVX2 agree **bit-for-bit** on every input,
//!   subnormals and signed zeros included.
//! * [`axpy`] and [`axpy_unit`] vectorize over the *output* dimension
//!   (`o[j] += a · b[j]`), where each element has its own accumulator —
//!   no reassociation happens, so plain vector multiply + add is
//!   bitwise-equal to the scalar loop by construction. These back the
//!   [`crate::sparse`] row accumulator and the [`crate::ops::matmul_seq`]
//!   decode GEMV, whose sequential-in-`k` accumulation order is a
//!   documented invariant (prefix invariance) that must not change.
//!
//! Dispatch follows the [`crate::gemm_i8`] idiom: cached once-per-process
//! feature detection (`avx2` **and** `fma` here), with a
//! `PHOX_FORCE_SCALAR=1` environment override — read once, same cache —
//! so CI can run the whole suite on the scalar path and byte-diff the
//! results against the SIMD run.

/// Number of independent accumulation lanes in [`dot`]: four 4-lane
/// `f64` vectors. Both the scalar and AVX2 kernels are written against
/// this constant; changing it changes result bits.
pub const DOT_LANES: usize = 16;

/// Scalar [`dot`] kernel replaying the AVX2 lane schedule with
/// [`f64::mul_add`] (the same correctly-rounded fusedMultiplyAdd the
/// `vfmadd231pd` instruction performs). Bit-identical to the AVX2 path
/// on every input; public so equivalence suites can pin the dispatched
/// kernel against it regardless of which path dispatch selected.
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let mut s = [0.0f64; DOT_LANES];
    let mut k = 0usize;
    while k + DOT_LANES <= n {
        // One fused multiply-add per lane, in lane order — the exact
        // operation sequence of the four vfmadd231pd issues per step.
        for (l, acc) in s.iter_mut().enumerate() {
            *acc = a[k + l].mul_add(b[k + l], *acc);
        }
        k += DOT_LANES;
    }
    // Vector reduction order: (acc0 + acc1) + (acc2 + acc3), lane-wise.
    let mut w = [0.0f64; 4];
    for (l, wl) in w.iter_mut().enumerate() {
        *wl = (s[l] + s[l + 4]) + (s[l + 8] + s[l + 12]);
    }
    // Horizontal order: low 128 + high 128, then the final pairwise add.
    let mut acc = (w[0] + w[2]) + (w[1] + w[3]);
    while k < n {
        acc = a[k].mul_add(b[k], acc);
        k += 1;
    }
    acc
}

/// Scalar `o[j] += x · b[j]` loop. Each output element is its own
/// accumulator, so the vector path is bitwise-equal by construction.
/// Public as the equivalence-suite reference for [`axpy`].
#[inline]
pub fn axpy_scalar(out: &mut [f64], x: f64, b: &[f64]) {
    for (o, &v) in out.iter_mut().zip(b) {
        *o += x * v;
    }
}

/// Scalar `o[j] += b[j]` loop (the weightless-edge case in the sparse
/// accumulator). Public as the equivalence-suite reference for
/// [`axpy_unit`].
#[inline]
pub fn axpy_unit_scalar(out: &mut [f64], b: &[f64]) {
    for (o, &v) in out.iter_mut().zip(b) {
        *o += v;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// AVX2+FMA dot product: four 4-lane accumulators advanced by one
    /// `vfmadd231pd` each per 16-element step, reduced in the fixed
    /// order documented at module level. Bit-identical to the scalar
    /// kernel, which replays the same schedule with `f64::mul_add`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut k = 0usize;
        while k + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(k)), _mm256_loadu_pd(bp.add(k)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(k + 4)),
                _mm256_loadu_pd(bp.add(k + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(k + 8)),
                _mm256_loadu_pd(bp.add(k + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(k + 12)),
                _mm256_loadu_pd(bp.add(k + 12)),
                acc3,
            );
            k += 16;
        }
        // w[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12]) per lane.
        let w = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        // (w0 + w2, w1 + w3): low 128 bits + high 128 bits.
        let lo: __m128d = _mm256_castpd256_pd128(w);
        let hi: __m128d = _mm256_extractf128_pd::<1>(w);
        let pair = _mm_add_pd(lo, hi);
        // (w0 + w2) + (w1 + w3).
        let one = _mm_add_sd(pair, _mm_unpackhi_pd(pair, pair));
        let mut acc = _mm_cvtsd_f64(one);
        while k < n {
            acc = (*ap.add(k)).mul_add(*bp.add(k), acc);
            k += 1;
        }
        acc
    }

    /// AVX2 `o[j] += x · b[j]`: broadcast `x`, then vector multiply and
    /// add per 4-lane group (deliberately *not* fused — the scalar loop
    /// this must match bitwise computes `o + x*v` with a rounded
    /// product). Element accumulators are independent, so ordering is
    /// untouched.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(out: &mut [f64], x: f64, b: &[f64]) {
        let n = out.len().min(b.len());
        let op = out.as_mut_ptr();
        let bp = b.as_ptr();
        let xv = _mm256_set1_pd(x);
        let mut j = 0usize;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(op.add(j));
            let v = _mm256_loadu_pd(bp.add(j));
            _mm256_storeu_pd(op.add(j), _mm256_add_pd(o, _mm256_mul_pd(xv, v)));
            j += 4;
        }
        while j < n {
            *op.add(j) += x * *bp.add(j);
            j += 1;
        }
    }

    /// AVX2 `o[j] += b[j]`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_unit_avx2(out: &mut [f64], b: &[f64]) {
        let n = out.len().min(b.len());
        let op = out.as_mut_ptr();
        let bp = b.as_ptr();
        let mut j = 0usize;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(op.add(j));
            let v = _mm256_loadu_pd(bp.add(j));
            _mm256_storeu_pd(op.add(j), _mm256_add_pd(o, v));
            j += 4;
        }
        while j < n {
            *op.add(j) += *bp.add(j);
            j += 1;
        }
    }

    /// The f64 kernels need both AVX2 (4-lane f64 vectors) and FMA
    /// (`vfmadd231pd`); detection is cached once per process together
    /// with the `PHOX_FORCE_SCALAR` override so a flipped environment
    /// variable mid-run cannot produce mixed-path results.
    pub fn simd_usable() -> bool {
        use std::sync::OnceLock;
        static USABLE: OnceLock<bool> = OnceLock::new();
        *USABLE.get_or_init(|| {
            !super::force_scalar()
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
}

/// Whether `PHOX_FORCE_SCALAR` requests the scalar path. `1`, `true`,
/// `yes`, and `on` (any case) force scalar; anything else (including
/// unset) leaves dispatch to feature detection. Read once per process
/// and shared by the f64 kernels here and the int8 kernels in
/// [`crate::gemm_i8`], so both families resolve the override
/// identically.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) fn force_scalar() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| match std::env::var("PHOX_FORCE_SCALAR") {
        Ok(v) => matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "yes" | "on"
        ),
        Err(_) => false,
    })
}

/// Whether the f64 `core::arch` kernels are in use on this host.
/// Informational only — scalar and SIMD paths are bit-identical — but
/// the bench snapshot records it so a perf figure is attributable to a
/// path, and `PHOX_FORCE_SCALAR=1` makes this return `false`.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::simd_usable()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dot product over contiguous `f64` panels in the pinned 16-lane FMA
/// order, dispatching to AVX2+FMA when available. All paths agree
/// bit-for-bit; see the module docs for the exact operation schedule.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY: AVX2+FMA availability was just checked.
        return unsafe { x86::dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

/// `out[j] += x · b[j]` over `min(out.len(), b.len())` elements,
/// dispatching to the AVX2 kernel when available. Per-element
/// accumulation order is untouched, so this is bitwise-equal to the
/// scalar loop it replaces — safe for order-sensitive callers like the
/// decode GEMV.
#[inline]
pub fn axpy(out: &mut [f64], x: f64, b: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::axpy_avx2(out, x, b) };
        return;
    }
    axpy_scalar(out, x, b);
}

/// `out[j] += b[j]` over `min(out.len(), b.len())` elements — the
/// unit-weight edge case of [`axpy`], kept separate so the sparse
/// accumulator's weightless path skips the broadcast multiply.
#[inline]
pub fn axpy_unit(out: &mut [f64], b: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::axpy_unit_avx2(out, b) };
        return;
    }
    axpy_unit_scalar(out, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::new(seed);
        (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    #[test]
    fn scalar_dot_matches_simd_dot_bitwise() {
        // Every tail length around the 16-lane boundary, plus larger
        // panels; the assertion is exact bit equality, not a tolerance.
        for len in (0..40).chain([63, 64, 65, 127, 128, 129, 1000]) {
            let a = random(len, 11);
            let b = random(len, 12);
            let scalar = dot_scalar(&a, &b);
            let dispatched = dot(&a, &b);
            assert_eq!(
                scalar.to_bits(),
                dispatched.to_bits(),
                "len={len} scalar={scalar:e} dispatched={dispatched:e}"
            );
        }
    }

    #[test]
    fn scalar_dot_matches_simd_on_subnormals() {
        // Products of subnormals exercise gradual underflow, where a
        // non-fused path would differ from FMA in the last bits.
        let a: Vec<f64> = (0..100)
            .map(|i| f64::MIN_POSITIVE * (i as f64 + 0.5) * 1e-3)
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|i| f64::MIN_POSITIVE * (100.0 - i as f64))
            .collect();
        assert_eq!(dot_scalar(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot_is_a_fused_schedule() {
        // With k < 16 the kernel is the sequential fused tail, so the
        // value is exactly the chained mul_add.
        let a: [f64; 3] = [1.0 + 1e-16, 3.0, -2.5];
        let b: [f64; 3] = [1.0 + 1e-16, -1.0, 0.5];
        let mut expect = 0.0f64;
        for (&x, &y) in a.iter().zip(b.iter()) {
            expect = x.mul_add(y, expect);
        }
        assert_eq!(dot(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn empty_and_length_mismatch_use_shorter_len() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0]), 3.0);
        let mut out = [1.0, 1.0];
        axpy(&mut out, 2.0, &[10.0]);
        assert_eq!(out, [21.0, 1.0]);
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for len in (0..20).chain([64, 65, 127, 1000]) {
            let b = random(len, 21);
            let mut fast = random(len, 22);
            let mut slow = fast.clone();
            axpy(&mut fast, 0.37, &b);
            axpy_scalar(&mut slow, 0.37, &b);
            assert!(
                fast.iter()
                    .zip(&slow)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "len={len}"
            );
            let mut fast_u = random(len, 23);
            let mut slow_u = fast_u.clone();
            axpy_unit(&mut fast_u, &b);
            axpy_unit_scalar(&mut slow_u, &b);
            assert!(
                fast_u
                    .iter()
                    .zip(&slow_u)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "unit len={len}"
            );
        }
    }
}
