//! Runtime CPU-feature detection and the x86-64 SIMD microkernels behind
//! [`Backend::Simd`](crate::backend::Backend::Simd).
//!
//! Detection runs once per process through `is_x86_feature_detected!` and
//! is summarized as a [`SimdLevel`] capability ladder. Each rung keeps
//! everything the rungs below it offer (capability checks are `>=`):
//!
//! * [`SimdLevel::Avx512`] — AVX-512 F/BW/DQ/VL + `VPOPCNTDQ` + `BITALG`:
//!   the direct binary convolution counts eight pixels per `vpopcntq` over
//!   `u64` bitmap words, 16 per `vpopcntd` over `u32` and 32 per
//!   `vpopcntw` over `u16` (BITALG; without it a 16-bit popcount is
//!   emulated, so a CPU that lacks it runs the AVX2 rung), and the direct
//!   float convolution ([`crate::ops::direct`]) runs 4 × 48-position tiles
//!   on 512-bit lanes; the float GEMM stays on the AVX2 microkernel;
//! * [`SimdLevel::Avx2`] — AVX2 + POPCNT: the 8-lane float GEMM microkernel
//!   engages, the float convolution runs 4 × 16-position tiles and the
//!   binary convolution is compiled for 256-bit lanes;
//! * [`SimdLevel::Sse42`] — SSE4.2 + POPCNT: the float GEMM and the float
//!   convolution (4 × 8-position tiles) stay on the portable loops, the
//!   binary convolution uses the hardware `popcnt` instruction;
//! * [`SimdLevel::None`] — non-x86-64 targets or older CPUs: every loop
//!   falls back to the scalar reference kernel.
//!
//! Selecting the `simd` backend — the compiled default — is therefore
//! always valid: it degrades gracefully instead of faulting on hardware
//! without the instructions.
//!
//! # Bit-identity contract
//!
//! The AVX2 GEMM is **bit-identical** (`f32::to_bits`) to the scalar
//! kernel by construction, not by tolerance. The scalar microkernel
//! accumulates each output element independently in ascending-`k` order
//! with a separate multiply and add per product
//! (`t[l] += a[p] * b[p*n + l]`). The AVX2 kernel maps each 8-wide
//! accumulator tile onto one `__m256` register and issues the *same*
//! per-lane operations (`_mm256_mul_ps` then `_mm256_add_ps` — never FMA,
//! whose single rounding would diverge) in the same ascending-`k` order.
//! Lanes never reduce across each other: every output element is exactly
//! one lane, so the summation order per element is identical to the plain
//! ikj reference on every path. Column tails (`n % 8`) and row remainders
//! (`rows % 4`) reuse the scalar helpers outright.
//!
//! The direct float convolution extends the same argument to the deployed
//! path. It is one loop recompiled per level in which every output element
//! is again exactly one lane: the lane starts at `+0.0` (the GEMM's
//! zero-filled `c`) and takes `acc += w · x` for `(ci, ky, kx)` ascending —
//! the GEMM's ascending `p` over one im2col column — as a separate multiply
//! and add, never FMA. Padded taps are not skipped: they multiply the
//! `+0.0` the padded plane holds, exactly as they multiply the `0.0` im2col
//! writes, so `−0.0`, infinities and NaN-ness come out the same (NaN
//! *payloads* are not part of the contract: where two NaNs meet, x86
//! returns the first operand's, and operand order is the compiler's
//! choice). Tile width, channel blocking and the overlapped last tile only
//! change which lane computes an element, never how. The binary
//! XNOR-popcount convolution is one loop recompiled per level; its counts
//! are integer-exact, so it is trivially identical on every level.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// CPU capability ladder found at runtime, ordered weakest to strongest.
///
/// Reported by [`Backend::detected`](crate::backend::Backend::detected)
/// and carried per kernel via
/// [`Kernel::simd_level`](crate::backend::Kernel::simd_level): the scalar
/// kernel always reports [`SimdLevel::None`] (it never dispatches SIMD),
/// the simd kernel reports what the CPU offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SimdLevel {
    /// No usable vector extensions (non-x86-64, or a CPU without SSE4.2):
    /// scalar reference loops everywhere.
    #[default]
    None,
    /// SSE4.2 + POPCNT: hardware-popcount binary convolution, portable
    /// float GEMM and float convolution.
    Sse42,
    /// AVX2 + POPCNT: vectorized float GEMM, 256-bit float and binary
    /// convolutions.
    Avx2,
    /// AVX-512 (F, BW, DQ, VL) + `VPOPCNTDQ` + `BITALG`: vector-popcount
    /// binary convolution on 64-, 32- and 16-bit words and 512-bit float
    /// convolution on top of everything [`SimdLevel::Avx2`] offers.
    Avx512,
}

impl SimdLevel {
    /// Whether the 8-lane AVX2 float GEMM microkernel engages (true at
    /// the AVX2 level and every rung above it).
    #[must_use]
    pub fn has_avx2(self) -> bool {
        self >= SimdLevel::Avx2
    }

    /// Whether binary popcount loops use the hardware `popcnt`
    /// instruction (true from the SSE4.2 level up).
    #[must_use]
    pub fn has_popcnt(self) -> bool {
        self >= SimdLevel::Sse42
    }

    /// Stable display name (`"none"` / `"sse4.2"` / `"avx2"` / `"avx512"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Sse42 => "sse4.2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The CPU features found on this machine, probed once and cached.
#[must_use]
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            // POPCNT is checked explicitly even though every AVX2-era CPU
            // has it: the binary kernels rely on it at every level.
            let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt");
            // The AVX-512 rung names every subset its kernel is compiled
            // with, not just VPOPCNTDQ: BITALG is the 16-bit popcount the
            // binary kernel's `u16` lane counts with.
            let avx512 = avx2
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512vpopcntdq")
                && is_x86_feature_detected!("avx512bitalg");
            if avx512 {
                SimdLevel::Avx512
            } else if avx2 {
                SimdLevel::Avx2
            } else if is_x86_feature_detected!("sse4.2") && is_x86_feature_detected!("popcnt") {
                SimdLevel::Sse42
            } else {
                SimdLevel::None
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::None
    }
}

/// Every level this CPU offers, weakest first: the ladder up to
/// [`detected`]. What differential tests and per-level benches sweep.
pub fn available() -> impl Iterator<Item = SimdLevel> {
    [SimdLevel::None, SimdLevel::Sse42, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|level| *level <= detected())
}

/// The AVX2 float GEMM microkernel. Compiled only on x86-64; callers gate
/// on [`detected`]`().has_avx2()`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::backend::{gemm_row_single, GEMM_MR, GEMM_NR};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// AVX2 twin of `backend::gemm_rows`: output rows in [`GEMM_MR`]-row
    /// groups whose [`GEMM_NR`]-wide column tiles live in one `__m256`
    /// register each across the whole `k` loop.
    ///
    /// Per-lane semantics are identical to the scalar microkernel — each
    /// lane runs `t += a[p] * b[p*n + lane]` as a separate IEEE multiply
    /// and add in ascending-`p` order (no FMA, no cross-lane reduction) —
    /// so the result is bit-identical to `ScalarKernel::gemm`. Column
    /// tails and remainder rows call the scalar helpers directly.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime
    /// (`is_x86_feature_detected!("avx2")`, via [`super::detected`]).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemm_rows_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= rows * k);
        debug_assert!(b.len() >= k * n && c.len() >= rows * n);
        let tiles = n - n % GEMM_NR;
        let mut r = 0;
        while r + GEMM_MR <= rows {
            let base = r * k;
            let a0 = &a[base..base + k];
            let a1 = &a[base + k..base + 2 * k];
            let a2 = &a[base + 2 * k..base + 3 * k];
            let a3 = &a[base + 3 * k..base + 4 * k];
            let block = &mut c[r * n..(r + GEMM_MR) * n];
            let (c0, block) = block.split_at_mut(n);
            let (c1, block) = block.split_at_mut(n);
            let (c2, c3) = block.split_at_mut(n);
            let mut j = 0;
            while j < tiles {
                // SAFETY: j + GEMM_NR <= tiles <= n bounds every 8-lane
                // load/store below; b rows are k × n so p*n + j + 8 <= k*n.
                let mut t0: __m256 = unsafe { _mm256_loadu_ps(c0.as_ptr().add(j)) };
                let mut t1: __m256 = unsafe { _mm256_loadu_ps(c1.as_ptr().add(j)) };
                let mut t2: __m256 = unsafe { _mm256_loadu_ps(c2.as_ptr().add(j)) };
                let mut t3: __m256 = unsafe { _mm256_loadu_ps(c3.as_ptr().add(j)) };
                for p in 0..k {
                    let bt = unsafe { _mm256_loadu_ps(b.as_ptr().add(p * n + j)) };
                    // mul then add, matching the scalar kernel's two
                    // roundings per product exactly.
                    t0 = _mm256_add_ps(t0, _mm256_mul_ps(_mm256_set1_ps(a0[p]), bt));
                    t1 = _mm256_add_ps(t1, _mm256_mul_ps(_mm256_set1_ps(a1[p]), bt));
                    t2 = _mm256_add_ps(t2, _mm256_mul_ps(_mm256_set1_ps(a2[p]), bt));
                    t3 = _mm256_add_ps(t3, _mm256_mul_ps(_mm256_set1_ps(a3[p]), bt));
                }
                unsafe {
                    _mm256_storeu_ps(c0.as_mut_ptr().add(j), t0);
                    _mm256_storeu_ps(c1.as_mut_ptr().add(j), t1);
                    _mm256_storeu_ps(c2.as_mut_ptr().add(j), t2);
                    _mm256_storeu_ps(c3.as_mut_ptr().add(j), t3);
                }
                j += GEMM_NR;
            }
            if tiles < n {
                // Column tail: the scalar single-row helper over the tail
                // columns (shifting b by `tiles` re-bases its column
                // indexing; the tail is narrower than a tile, so the
                // helper goes straight to its scalar loop).
                gemm_row_single(a0, &b[tiles..], &mut c0[tiles..], k, n);
                gemm_row_single(a1, &b[tiles..], &mut c1[tiles..], k, n);
                gemm_row_single(a2, &b[tiles..], &mut c2[tiles..], k, n);
                gemm_row_single(a3, &b[tiles..], &mut c3[tiles..], k, n);
            }
            r += GEMM_MR;
        }
        while r < rows {
            let base = r * k;
            gemm_row_single(&a[base..base + k], b, &mut c[r * n..(r + 1) * n], k, n);
            r += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_consistent() {
        let level = detected();
        assert_eq!(level, detected(), "detection must be cached and stable");
        if level.has_avx2() {
            assert!(level.has_popcnt(), "AVX2 level implies hardware popcount");
        }
        assert_eq!(level.name(), level.to_string());
        assert_eq!(available().next(), Some(SimdLevel::None));
        assert_eq!(available().last(), Some(level));
    }

    #[test]
    fn level_ladder_orders_capabilities() {
        assert!(SimdLevel::None < SimdLevel::Sse42);
        assert!(SimdLevel::Sse42 < SimdLevel::Avx2);
        assert!(!SimdLevel::None.has_popcnt());
        assert!(SimdLevel::Sse42.has_popcnt());
        assert!(!SimdLevel::Sse42.has_avx2());
        assert!(SimdLevel::Avx2.has_avx2() && SimdLevel::Avx2.has_popcnt());
        // A rung above AVX2 keeps everything below it.
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        assert!(SimdLevel::Avx512.has_avx2() && SimdLevel::Avx512.has_popcnt());
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
    }
}
