//! Runtime-dispatched word kernels for bitmap lanes.
//!
//! A bitmap lane stores its index set as 64-bit blocks over the full lane
//! dimension (see [`crate::hybrid`]). Its reduction — `Σ x[i]` over the set
//! bits — is a *branchless full scan*: every 8-lane group of `x` is loaded
//! under the corresponding byte of the block word and added into one of
//! four vector accumulators (the same chain-breaking scheme as the
//! 4-accumulator CSR gathers, lifted to vector registers). Cost is flat in
//! the lane dimension and independent of density, which is exactly why the
//! format only pays above a density threshold ([`crate::hybrid::DensityPlan`]).
//!
//! Three tiers, picked once per process by runtime CPU detection:
//!
//! * **AVX-512** — a block word's bytes *are* `__mmask8` masks, so each
//!   8-lane group is one `vmovupd{k}z` masked load plus one `vaddpd`
//!   (`_mm512_maskz_loadu_pd`). Masked-off lanes never fault, so even the
//!   partial tail group stays in vector registers — a scalar tail would
//!   re-serialize the FP-add chain for short lanes and dominate their cost.
//! * **AVX2** — no mask registers: bits are expanded to lane masks with a
//!   variable shift + compare, then ANDed over an unconditional load
//!   (`maskload` for the tail, which likewise tolerates out-of-bounds
//!   masked lanes).
//! * **Scalar** — portable branchless select via sign-extended bit masks
//!   (`0u64.wrapping_sub(bit) & x.to_bits()`), 4 accumulators.
//!
//! All tiers are deterministic for a fixed lane (fixed accumulation
//! order), but the *grouping* differs between tiers and from the sparse
//! gathers, so bitmap sums agree with CSR sums to rounding (≤ 1e-12 in the
//! equivalence suites), not bitwise.

/// The instruction-set tier the bitmap kernels run on, detected once at
/// first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// `_mm512_maskz_loadu_pd`-based kernels (x86-64 with AVX-512F).
    Avx512,
    /// Mask-expansion kernels over 256-bit vectors (x86-64 with AVX2).
    Avx2,
    /// Portable branchless select; correct everywhere, fast nowhere.
    Scalar,
}

impl KernelIsa {
    /// Short lowercase name (bench metadata / logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Scalar => "scalar",
        }
    }
}

/// The tier the current process dispatches bitmap kernels to.
pub fn kernel_isa() -> KernelIsa {
    use std::sync::atomic::{AtomicU8, Ordering};
    static TIER: AtomicU8 = AtomicU8::new(0);
    match TIER.load(Ordering::Relaxed) {
        1 => KernelIsa::Avx512,
        2 => KernelIsa::Avx2,
        3 => KernelIsa::Scalar,
        _ => {
            let tier = detect();
            TIER.store(
                match tier {
                    KernelIsa::Avx512 => 1,
                    KernelIsa::Avx2 => 2,
                    KernelIsa::Scalar => 3,
                },
                Ordering::Relaxed,
            );
            tier
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> KernelIsa {
    if is_x86_feature_detected!("avx512f") {
        KernelIsa::Avx512
    } else if is_x86_feature_detected!("avx2") {
        KernelIsa::Avx2
    } else {
        KernelIsa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> KernelIsa {
    KernelIsa::Scalar
}

/// `Σ x[i]` over the set bits of `words` (bit `i` of the lane ⇔ bit
/// `i % 64` of `words[i / 64]`). `x.len()` is the lane dimension; `words`
/// must cover it and carry no set bits at or beyond it.
#[inline]
pub fn bitmap_sum(words: &[u64], x: &[f64]) -> f64 {
    debug_assert!(words.len() >= x.len().div_ceil(64));
    #[cfg(target_arch = "x86_64")]
    match kernel_isa() {
        // SAFETY: dispatch guarantees the feature is present; bounds are
        // upheld by the callee's contract (checked above in debug).
        KernelIsa::Avx512 => unsafe { x86::bitmap_sum_avx512(words, x) },
        KernelIsa::Avx2 => unsafe { x86::bitmap_sum_avx2(words, x) },
        KernelIsa::Scalar => bitmap_sum_scalar(words, x),
    }
    #[cfg(not(target_arch = "x86_64"))]
    bitmap_sum_scalar(words, x)
}

/// `Σ x[i]·scale[i]` over the set bits of `words` — the bitmap analogue of
/// the sparse-lane `gather_sum_scaled`. `scale` must be at least as
/// long as `x` and contain only finite values (masked-off `x` lanes load as
/// `+0.0`, and `0 · finite = 0` keeps them out of the sum).
#[inline]
pub fn bitmap_sum_scaled(words: &[u64], x: &[f64], scale: &[f64]) -> f64 {
    debug_assert!(words.len() >= x.len().div_ceil(64));
    debug_assert!(scale.len() >= x.len());
    #[cfg(target_arch = "x86_64")]
    match kernel_isa() {
        // SAFETY: as in `bitmap_sum`.
        KernelIsa::Avx512 => unsafe { x86::bitmap_sum_scaled_avx512(words, x, scale) },
        KernelIsa::Avx2 => unsafe { x86::bitmap_sum_scaled_avx2(words, x, scale) },
        KernelIsa::Scalar => bitmap_sum_scaled_scalar(words, x, scale),
    }
    #[cfg(not(target_arch = "x86_64"))]
    bitmap_sum_scaled_scalar(words, x, scale)
}

/// Portable fallback: branchless select by sign-extended bit mask, four
/// accumulators to break the FP-add chain.
fn bitmap_sum_scalar(words: &[u64], x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = x.chunks_exact(64);
    let mut wi = 0usize;
    for xs in &mut chunks {
        let w = words[wi];
        wi += 1;
        let mut j = 0;
        while j < 64 {
            acc[0] += f64::from_bits(0u64.wrapping_sub((w >> j) & 1) & xs[j].to_bits());
            acc[1] += f64::from_bits(0u64.wrapping_sub((w >> (j + 1)) & 1) & xs[j + 1].to_bits());
            acc[2] += f64::from_bits(0u64.wrapping_sub((w >> (j + 2)) & 1) & xs[j + 2].to_bits());
            acc[3] += f64::from_bits(0u64.wrapping_sub((w >> (j + 3)) & 1) & xs[j + 3].to_bits());
            j += 4;
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let w = words[wi];
        for (j, &v) in rem.iter().enumerate() {
            acc[j % 4] += f64::from_bits(0u64.wrapping_sub((w >> j) & 1) & v.to_bits());
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Portable fallback of [`bitmap_sum_scaled`].
fn bitmap_sum_scaled_scalar(words: &[u64], x: &[f64], scale: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = x.chunks_exact(64);
    let mut wi = 0usize;
    for xs in &mut chunks {
        let w = words[wi];
        let base = wi * 64;
        wi += 1;
        let mut j = 0;
        while j < 64 {
            for u in 0..4 {
                let p = xs[j + u] * scale[base + j + u];
                acc[u] += f64::from_bits(0u64.wrapping_sub((w >> (j + u)) & 1) & p.to_bits());
            }
            j += 4;
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let w = words[wi];
        let base = wi * 64;
        for (j, &v) in rem.iter().enumerate() {
            let p = v * scale[base + j];
            acc[j % 4] += f64::from_bits(0u64.wrapping_sub((w >> j) & 1) & p.to_bits());
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86-64 kernel bodies. Each is a `#[target_feature]` function the
    //! dispatcher calls after detection; the only `unsafe` beyond the
    //! feature contract is pointer-based loads whose bounds are justified
    //! inline.
    use std::arch::x86_64::*;

    /// AVX-512: one masked load + add per 8-lane group; the tail group
    /// masks off lanes at/beyond `x.len()` (masked-off lanes never fault).
    ///
    /// # Safety
    /// Caller must ensure `avx512f` is available and
    /// `words.len() ≥ ceil(x.len()/64)`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn bitmap_sum_avx512(words: &[u64], x: &[f64]) -> f64 {
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut acc2 = _mm512_setzero_pd();
        let mut acc3 = _mm512_setzero_pd();
        let n = x.len();
        let full = n / 64;
        let p = x.as_ptr();
        for wi in 0..full {
            let w = *words.get_unchecked(wi);
            // SAFETY: groups 0..8 of word `wi` span x[wi*64 .. wi*64+64],
            // all in bounds because wi < n/64.
            let b = p.add(wi * 64);
            acc0 = _mm512_add_pd(acc0, _mm512_maskz_loadu_pd((w & 0xFF) as __mmask8, b));
            acc1 = _mm512_add_pd(
                acc1,
                _mm512_maskz_loadu_pd(((w >> 8) & 0xFF) as __mmask8, b.add(8)),
            );
            acc2 = _mm512_add_pd(
                acc2,
                _mm512_maskz_loadu_pd(((w >> 16) & 0xFF) as __mmask8, b.add(16)),
            );
            acc3 = _mm512_add_pd(
                acc3,
                _mm512_maskz_loadu_pd(((w >> 24) & 0xFF) as __mmask8, b.add(24)),
            );
            acc0 = _mm512_add_pd(
                acc0,
                _mm512_maskz_loadu_pd(((w >> 32) & 0xFF) as __mmask8, b.add(32)),
            );
            acc1 = _mm512_add_pd(
                acc1,
                _mm512_maskz_loadu_pd(((w >> 40) & 0xFF) as __mmask8, b.add(40)),
            );
            acc2 = _mm512_add_pd(
                acc2,
                _mm512_maskz_loadu_pd(((w >> 48) & 0xFF) as __mmask8, b.add(48)),
            );
            acc3 = _mm512_add_pd(
                acc3,
                _mm512_maskz_loadu_pd(((w >> 56) & 0xFF) as __mmask8, b.add(56)),
            );
        }
        let mut rem = n - full * 64;
        if rem > 0 {
            let w = *words.get_unchecked(full);
            let mut j = 0usize;
            while rem > 0 {
                let take = rem.min(8);
                let k = ((w >> j) as u8 & ((1u16 << take) - 1) as u8) as __mmask8;
                // SAFETY: the group's base lane full*64 + j is < n (rem > 0);
                // lanes past n are masked off and masked-off loads do not
                // fault or read.
                let b = p.add(full * 64 + j);
                acc0 = _mm512_add_pd(acc0, _mm512_maskz_loadu_pd(k, b));
                j += 8;
                rem -= take;
            }
        }
        let acc = _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3));
        _mm512_reduce_add_pd(acc)
    }

    /// AVX-512 scaled reduction: masked `x` load times a plain (tail:
    /// masked) `scale` load; masked-off lanes contribute `0 · finite = 0`.
    ///
    /// # Safety
    /// As [`bitmap_sum_avx512`], plus `scale.len() ≥ x.len()` and finite.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn bitmap_sum_scaled_avx512(words: &[u64], x: &[f64], scale: &[f64]) -> f64 {
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut acc2 = _mm512_setzero_pd();
        let mut acc3 = _mm512_setzero_pd();
        let n = x.len();
        let full = n / 64;
        let p = x.as_ptr();
        let q = scale.as_ptr();
        for wi in 0..full {
            let w = *words.get_unchecked(wi);
            // SAFETY: in bounds as in the unscaled kernel, for both arrays.
            let b = p.add(wi * 64);
            let s = q.add(wi * 64);
            macro_rules! group {
                ($acc:ident, $shift:expr, $off:expr) => {
                    $acc = _mm512_add_pd(
                        $acc,
                        _mm512_mul_pd(
                            _mm512_maskz_loadu_pd((($shift) & 0xFF) as __mmask8, b.add($off)),
                            _mm512_loadu_pd(s.add($off)),
                        ),
                    );
                };
            }
            group!(acc0, w, 0);
            group!(acc1, w >> 8, 8);
            group!(acc2, w >> 16, 16);
            group!(acc3, w >> 24, 24);
            group!(acc0, w >> 32, 32);
            group!(acc1, w >> 40, 40);
            group!(acc2, w >> 48, 48);
            group!(acc3, w >> 56, 56);
        }
        let mut rem = n - full * 64;
        if rem > 0 {
            let w = *words.get_unchecked(full);
            let mut j = 0usize;
            while rem > 0 {
                let take = rem.min(8);
                let k = ((w >> j) as u8 & ((1u16 << take) - 1) as u8) as __mmask8;
                // SAFETY: base lane < n; out-of-range lanes masked off in
                // BOTH loads.
                let b = p.add(full * 64 + j);
                let s = q.add(full * 64 + j);
                acc0 = _mm512_add_pd(
                    acc0,
                    _mm512_mul_pd(_mm512_maskz_loadu_pd(k, b), _mm512_maskz_loadu_pd(k, s)),
                );
                j += 8;
                rem -= take;
            }
        }
        let acc = _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3));
        _mm512_reduce_add_pd(acc)
    }

    /// Expands bits `j..j+3` of `w` to a 4×64-bit lane mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn expand4(w: __m256i, j: i64) -> __m256d {
        let shifts = _mm256_add_epi64(_mm256_setr_epi64x(0, 1, 2, 3), _mm256_set1_epi64x(j));
        let one = _mm256_set1_epi64x(1);
        let bits = _mm256_and_si256(_mm256_srlv_epi64(w, shifts), one);
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(bits, one))
    }

    /// AVX2: mask-expand + AND over unconditional loads; `maskload` tail.
    ///
    /// # Safety
    /// Caller must ensure `avx2` is available and
    /// `words.len() ≥ ceil(x.len()/64)`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bitmap_sum_avx2(words: &[u64], x: &[f64]) -> f64 {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let n = x.len();
        let full = n / 64;
        let p = x.as_ptr();
        for wi in 0..full {
            let w = _mm256_set1_epi64x(*words.get_unchecked(wi) as i64);
            // SAFETY: full word ⇒ x[wi*64 .. wi*64+64] in bounds.
            let b = p.add(wi * 64);
            let mut j = 0i64;
            while j < 64 {
                let m0 = expand4(w, j);
                let m1 = expand4(w, j + 4);
                acc0 = _mm256_add_pd(acc0, _mm256_and_pd(m0, _mm256_loadu_pd(b.add(j as usize))));
                acc1 = _mm256_add_pd(
                    acc1,
                    _mm256_and_pd(m1, _mm256_loadu_pd(b.add(j as usize + 4))),
                );
                j += 8;
            }
        }
        let mut rem = n - full * 64;
        if rem > 0 {
            // Zero the bits at/beyond the lane end, then masked 4-lane
            // groups; `maskload` lanes with a clear mask never fault.
            let w = _mm256_set1_epi64x((*words.get_unchecked(full) & (!0u64 >> (64 - rem))) as i64);
            let mut j = 0usize;
            while rem > 0 {
                let m = expand4(w, j as i64);
                // SAFETY: group base lane full*64 + j < n.
                let b = p.add(full * 64 + j);
                acc0 = _mm256_add_pd(acc0, _mm256_maskload_pd(b, _mm256_castpd_si256(m)));
                j += 4;
                rem -= rem.min(4);
            }
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let mut buf = [0.0f64; 4];
        _mm256_storeu_pd(buf.as_mut_ptr(), acc);
        (buf[0] + buf[1]) + (buf[2] + buf[3])
    }

    /// AVX2 scaled reduction.
    ///
    /// # Safety
    /// As [`bitmap_sum_avx2`], plus `scale.len() ≥ x.len()` and finite.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bitmap_sum_scaled_avx2(words: &[u64], x: &[f64], scale: &[f64]) -> f64 {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let n = x.len();
        let full = n / 64;
        let p = x.as_ptr();
        let q = scale.as_ptr();
        for wi in 0..full {
            let w = _mm256_set1_epi64x(*words.get_unchecked(wi) as i64);
            // SAFETY: full word ⇒ both arrays in bounds on this span.
            let b = p.add(wi * 64);
            let s = q.add(wi * 64);
            let mut j = 0i64;
            while j < 64 {
                let m0 = expand4(w, j);
                let m1 = expand4(w, j + 4);
                let p0 = _mm256_mul_pd(
                    _mm256_loadu_pd(b.add(j as usize)),
                    _mm256_loadu_pd(s.add(j as usize)),
                );
                let p1 = _mm256_mul_pd(
                    _mm256_loadu_pd(b.add(j as usize + 4)),
                    _mm256_loadu_pd(s.add(j as usize + 4)),
                );
                acc0 = _mm256_add_pd(acc0, _mm256_and_pd(m0, p0));
                acc1 = _mm256_add_pd(acc1, _mm256_and_pd(m1, p1));
                j += 8;
            }
        }
        let mut rem = n - full * 64;
        if rem > 0 {
            let w = _mm256_set1_epi64x((*words.get_unchecked(full) & (!0u64 >> (64 - rem))) as i64);
            let mut j = 0usize;
            while rem > 0 {
                let m = expand4(w, j as i64);
                // SAFETY: group base lane < n; masked-off lanes never read.
                let b = p.add(full * 64 + j);
                let s = q.add(full * 64 + j);
                let mi = _mm256_castpd_si256(m);
                let prod = _mm256_mul_pd(_mm256_maskload_pd(b, mi), _mm256_maskload_pd(s, mi));
                acc0 = _mm256_add_pd(acc0, _mm256_and_pd(m, prod));
                j += 4;
                rem -= rem.min(4);
            }
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let mut buf = [0.0f64; 4];
        _mm256_storeu_pd(buf.as_mut_ptr(), acc);
        (buf[0] + buf[1]) + (buf[2] + buf[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sum(words: &[u64], x: &[f64]) -> f64 {
        let mut s = 0.0;
        for (i, &v) in x.iter().enumerate() {
            if words[i / 64] >> (i % 64) & 1 == 1 {
                s += v;
            }
        }
        s
    }

    fn lane(dim: usize, seed: u64, density_permille: u64) -> (Vec<u64>, Vec<f64>) {
        let mut st = seed;
        let mut next = move || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            st >> 11
        };
        let mut words = vec![0u64; dim.div_ceil(64)];
        for i in 0..dim {
            if next() % 1000 < density_permille {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        let x: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.37).sin() + 0.01).collect();
        (words, x)
    }

    #[test]
    fn all_tiers_match_reference() {
        for &dim in &[0usize, 1, 7, 63, 64, 65, 100, 300, 1000, 4097] {
            for &d in &[0u64, 50, 300, 700, 1000] {
                let (words, x) = lane(dim, dim as u64 * 31 + d, d);
                let want = reference_sum(&words, &x);
                let got = bitmap_sum(&words, &x);
                assert!(
                    (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "dim {dim} d {d}: {got} vs {want}"
                );
                let got_scalar = bitmap_sum_scalar(&words, &x);
                assert!((got_scalar - want).abs() <= 1e-9 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn scaled_tiers_match_reference() {
        for &dim in &[1usize, 64, 65, 129, 300, 1000] {
            let (words, x) = lane(dim, dim as u64, 400);
            let scale: Vec<f64> = (0..dim).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let mut want = 0.0;
            for (i, &v) in x.iter().enumerate() {
                if words[i / 64] >> (i % 64) & 1 == 1 {
                    want += v * scale[i];
                }
            }
            let got = bitmap_sum_scaled(&words, &x, &scale);
            assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "dim {dim}: {got} vs {want}"
            );
            let got_scalar = bitmap_sum_scaled_scalar(&words, &x, &scale);
            assert!((got_scalar - want).abs() <= 1e-9 * (1.0 + want.abs()));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_paths_match_scalar_exactly_by_group_structure() {
        // Not bitwise across tiers (grouping differs), but every tier must
        // agree with the reference to rounding on adversarial shapes:
        // single set bit at each boundary position.
        for &dim in &[65usize, 127, 128, 300] {
            for pos in [0, 1, 7, 8, 63, 64, dim - 1] {
                let mut words = vec![0u64; dim.div_ceil(64)];
                words[pos / 64] |= 1 << (pos % 64);
                let x: Vec<f64> = (0..dim).map(|i| i as f64 + 1.0).collect();
                assert_eq!(bitmap_sum(&words, &x), x[pos], "dim {dim} pos {pos}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_available_isa_matches_reference() {
        // The dispatcher only ever runs the best tier on a given box; pin
        // the lower tiers directly so an AVX-512 CI machine still tests
        // the AVX2 bodies (and vice versa nothing is silently skipped).
        for &dim in &[1usize, 64, 100, 300, 1000] {
            let (words, x) = lane(dim, 0xC0FFEE ^ dim as u64, 450);
            let scale: Vec<f64> = (0..dim).map(|i| 0.5 + (i % 7) as f64).collect();
            let want = reference_sum(&words, &x);
            let mut want_scaled = 0.0;
            for (i, &v) in x.iter().enumerate() {
                if words[i / 64] >> (i % 64) & 1 == 1 {
                    want_scaled += v * scale[i];
                }
            }
            let tol = 1e-9 * (1.0 + want.abs() + want_scaled.abs());
            if is_x86_feature_detected!("avx2") {
                // SAFETY: feature checked above.
                let got = unsafe { super::x86::bitmap_sum_avx2(&words, &x) };
                assert!((got - want).abs() <= tol, "avx2 dim {dim}: {got} vs {want}");
                let got = unsafe { super::x86::bitmap_sum_scaled_avx2(&words, &x, &scale) };
                assert!((got - want_scaled).abs() <= tol, "avx2 scaled dim {dim}");
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: feature checked above.
                let got = unsafe { super::x86::bitmap_sum_avx512(&words, &x) };
                assert!(
                    (got - want).abs() <= tol,
                    "avx512 dim {dim}: {got} vs {want}"
                );
                let got = unsafe { super::x86::bitmap_sum_scaled_avx512(&words, &x, &scale) };
                assert!((got - want_scaled).abs() <= tol, "avx512 scaled dim {dim}");
            }
        }
    }

    #[test]
    fn detection_is_stable() {
        let a = kernel_isa();
        let b = kernel_isa();
        assert_eq!(a, b);
        assert!(!a.name().is_empty());
    }
}
