//! NCHW-native forms of a transformer block's full-precision token ops:
//! LayerNorm, single-head window self-attention and GELU, as flat
//! slice-to-slice kernels for the deployed path.
//!
//! The training tape runs these on a `[B, L, C]` token layout between a
//! window partition and a window merge. None of them needs that layout:
//! LayerNorm is per pixel across channels, attention only has to know which
//! pixels share a window, and GELU is elementwise — so here they read and
//! write `[N, C, H, W]` directly and the partition survives only as index
//! arithmetic inside [`window_attention_into`].
//!
//! Every kernel reproduces its tape op's per-element arithmetic order
//! exactly (each states which), because what follows them in a binary
//! transformer is a sign: the deployed network must binarize the values
//! training binarized. Lanes are pixels (or the tokens of one window) and
//! every inner loop is a plain walk over equal-length slices.
//!
//! GELU and window attention call no libm: their `tanh` and `exp` are
//! [`math`]'s branch-free ones, so their loops vectorise, and each is one
//! `#[inline(always)]` body recompiled for AVX2 and AVX-512F and picked by
//! the active backend's [`SimdLevel`], the pattern of [`super::direct`].
//! Every step is a separate IEEE operation and lanes never mix, so a lane
//! computes exactly what the scalar call does: scalar and simd, and every
//! level, agree by construction. LayerNorm runs as compiled portably.
//!
//! At each level the attention body has two const-generic instances,
//! picked per call by the window: one for the only window the model zoo
//! uses (4×4: 16 tokens, one AVX-512 register) and one for any window. In
//! the first every token-lane loop and every 4-float row move of the
//! per-window gather and scatter has a compile-time length, so the loops
//! unroll into whole-register operations and the moves into single loads
//! and stores. Both instances run the same operations in the same order,
//! so they agree bit for bit too.

use crate::error::{Result, TensorError};
use crate::ops::math;
use crate::workspace::sized;
use crate::SimdLevel;

/// GELU, tanh approximation — the single scalar form shared by the autograd
/// activation and the deployed op, so both agree bit for bit. Branch-free
/// ([`math::tanh`]), so a loop over it vectorises.
#[inline(always)]
#[must_use]
pub fn gelu(v: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let inner = C * (v + 0.044_715 * v * v * v);
    0.5 * v * (1.0 + math::tanh(inner))
}

/// The deployed GELU op: `out = gelu(src)`, or `out = gelu(out)` in place
/// when `src` is `None`, at the active backend's [`SimdLevel`].
///
/// # Errors
///
/// Returns an error when `src` and `out` differ in length.
pub fn gelu_into(src: Option<&[f32]>, out: &mut [f32]) -> Result<()> {
    gelu_into_at(crate::backend::kernel().simd_level(), src, out)
}

/// [`gelu_into`] at `level`, clamped to what the CPU offers. Every lane is
/// one [`gelu`] call, so the result is `to_bits`-identical at every level.
///
/// # Errors
///
/// Returns an error when `src` and `out` differ in length.
pub fn gelu_into_at(level: SimdLevel, src: Option<&[f32]>, out: &mut [f32]) -> Result<()> {
    if let Some(src) = src {
        expect_len(src.len(), out.len())?;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(crate::simd::detected()) {
            SimdLevel::Avx512 => unsafe { x86::gelu_avx512(src, out) },
            SimdLevel::Avx2 => unsafe { x86::gelu_avx2(src, out) },
            SimdLevel::Sse42 | SimdLevel::None => gelu_lanes(src, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        gelu_lanes(src, out);
    }
    Ok(())
}

/// The one GELU loop every level compiles.
#[inline(always)]
fn gelu_lanes(src: Option<&[f32]>, out: &mut [f32]) {
    match src {
        Some(src) => out.iter_mut().zip(src).for_each(|(o, &v)| *o = gelu(v)),
        None => out.iter_mut().for_each(|v| *v = gelu(*v)),
    }
}

fn expect_len(actual: usize, expected: usize) -> Result<()> {
    if actual == expected {
        Ok(())
    } else {
        Err(TensorError::LengthMismatch { expected, actual })
    }
}

/// LayerNorm over the channel axis of a flat `[n, c, hw]` volume — what
/// `scales_nn::layers::LayerNorm` computes per token — into `out` (fully
/// overwritten). Per pixel, in the tape's order: ascending-channel sum
/// `· 1/c`, centre, ascending sum of squares `· 1/c`,
/// `sqrt(max(var + eps, 1e-12))`, then `x / d · γ + β`. `stats` is reusable
/// grow-only scratch (two planes of `hw`).
///
/// # Errors
///
/// Returns an error when `gamma` / `beta` are not one value per channel or
/// a buffer's length disagrees with the extents.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_into(
    x: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    expect_len(gamma.len(), c)?;
    expect_len(beta.len(), c)?;
    expect_len(x.len(), n * c * hw)?;
    expect_len(out.len(), n * c * hw)?;
    if c * hw == 0 {
        return Ok(());
    }
    let inv = 1.0 / c as f32;
    let (mean, denom) = sized(stats, 2 * hw).split_at_mut(hw);
    for (image, out) in x.chunks(c * hw).zip(out.chunks_mut(c * hw)) {
        mean.fill(0.0);
        for plane in image.chunks(hw) {
            for (m, &v) in mean.iter_mut().zip(plane) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m *= inv);
        denom.fill(0.0);
        for (plane, centred) in image.chunks(hw).zip(out.chunks_mut(hw)) {
            for (((o, &v), &m), d) in centred.iter_mut().zip(plane).zip(&*mean).zip(&mut *denom) {
                *o = v - m;
                *d += *o * *o;
            }
        }
        denom.iter_mut().for_each(|d| *d = (*d * inv + eps).max(1e-12).sqrt());
        for ((centred, &g), &b) in out.chunks_mut(hw).zip(gamma).zip(beta) {
            for (o, &d) in centred.iter_mut().zip(&*denom) {
                *o = *o / d * g + b;
            }
        }
    }
    Ok(())
}

/// Single-head self-attention inside non-overlapping `window × window`
/// pixel windows of flat `[n, c, h, w]` maps `q`, `k`, `v`, into `out`
/// (same shape, fully overwritten) — the tape's `window_partition →
/// q·kᵀ → ·1/√c → softmax → ·v → window_merge` without a token tensor.
///
/// Per window, in the tape's order: every score is an ascending-channel dot
/// from `0.0` then `· 1/√c`; the softmax subtracts the row maximum, takes
/// `exp`, sums ascending and divides; every context value is an
/// ascending-token sum from `0.0`. Lanes are the window's query tokens, so
/// the scores are held transposed (`[key][query]`) and every inner loop is
/// contiguous. `staging` is reusable grow-only scratch: the window's
/// `q` / `k` / `v` tiles (`3 · c · t` floats, `t = window²`), its `t × t`
/// scores and two rows of `t`.
///
/// # Errors
///
/// Returns an error when `h` or `w` is not divisible by `window` (or
/// `window` is 0), or a buffer's length disagrees with the extents.
#[allow(clippy::too_many_arguments)]
pub fn window_attention_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    window: usize,
    staging: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    let level = crate::backend::kernel().simd_level();
    window_attention_into_at(level, q, k, v, n, c, h, w, window, staging, out)
}

/// [`window_attention_into`] at `level`, clamped to what the CPU offers.
/// Every output element is one lane with the same operations in the same
/// order at every width, so the result is `to_bits`-identical at every
/// level.
///
/// # Errors
///
/// As [`window_attention_into`].
#[allow(clippy::too_many_arguments)]
pub fn window_attention_into_at(
    level: SimdLevel,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    window: usize,
    staging: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    check_window(h, w, window)?;
    for len in [q.len(), k.len(), v.len(), out.len()] {
        expect_len(len, n * c * h * w)?;
    }
    if c == 0 {
        return Ok(());
    }
    let t = window * window;
    let maps = Windows { q, k, v, n, c, h, w, window };
    let staging = sized(staging, 3 * c * t + t * t + 2 * t);
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(crate::simd::detected()) {
            SimdLevel::Avx512 => unsafe { x86::attend_avx512(&maps, staging, out) },
            SimdLevel::Avx2 => unsafe { x86::attend_avx2(&maps, staging, out) },
            SimdLevel::Sse42 | SimdLevel::None => attend(&maps, staging, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        attend(&maps, staging, out);
    }
    Ok(())
}

/// The checked operands of one [`window_attention_into_at`] call.
struct Windows<'a> {
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    window: usize,
}

/// The window every transformer of the model zoo attends over
/// (`scales_models::WINDOW`), which [`attend_windows`] has an instance for.
const ZOO_WINDOW: usize = 4;

/// The one attention loop every level compiles, through its instance for
/// the zoo's window or the one for any window.
#[inline(always)]
fn attend(maps: &Windows<'_>, staging: &mut [f32], out: &mut [f32]) {
    if maps.window == ZOO_WINDOW {
        attend_windows::<ZOO_WINDOW>(maps, staging, out);
    } else {
        attend_windows::<0>(maps, staging, out);
    }
}

/// [`attend`] for a `W × W` window, or for any window when `W` is 0;
/// `staging` is exactly the tiles, the scores and two rows.
#[inline(always)]
fn attend_windows<const W: usize>(maps: &Windows<'_>, staging: &mut [f32], out: &mut [f32]) {
    let Windows { q, k, v, n, c, h, w, window } = *maps;
    // A compile-time constant in every instance but `W = 0`, and with it
    // every token-lane loop's length and every row move's.
    let window = if W == 0 { window } else { W };
    let (t, hw) = (window * window, h * w);
    let scale = 1.0 / (c as f32).sqrt();
    let (tiles, rest) = staging.split_at_mut(3 * c * t);
    let (scores, rows) = rest.split_at_mut(t * t);
    let (row_a, row_b) = rows[..2 * t].split_at_mut(t);
    for b in 0..n {
        let image = b * c * hw..(b + 1) * c * hw;
        let (q, k, v, out) = (&q[image.clone()], &k[image.clone()], &v[image.clone()], &mut out[image]);
        for corner in (0..h / window).flat_map(|wy| (0..w / window).map(move |wx| (wy * w + wx) * window)) {
            // Channel `ci`'s window rows sit at `ci·hw + corner + ty·w`
            // of a map and at `ci·t + ty·window` of its tile.
            for (map, tile) in [q, k, v].into_iter().zip(tiles.chunks_exact_mut(c * t)) {
                for ci in 0..c {
                    for ty in 0..window {
                        let (from, to) = (ci * hw + corner + ty * w, ci * t + ty * window);
                        tile[to..to + window].copy_from_slice(&map[from..from + window]);
                    }
                }
            }
            let (qt, rest) = tiles.split_at(c * t);
            let (kt, vt) = rest.split_at(c * t);
            // scores[j][i] = Σ_c q[c][i] · k[c][j], ascending c.
            scores.fill(0.0);
            for (qc, kc) in qt.chunks_exact(t).zip(kt.chunks_exact(t)) {
                for (row, &kj) in scores.chunks_exact_mut(t).zip(kc) {
                    for (s, &qi) in row.iter_mut().zip(qc) {
                        *s += qi * kj;
                    }
                }
            }
            // Softmax over the keys of each query: columns of `scores`.
            let (max, sum) = (&mut *row_a, &mut *row_b);
            max.fill(f32::NEG_INFINITY);
            for row in scores.chunks_exact_mut(t) {
                for (s, m) in row.iter_mut().zip(&mut *max) {
                    *s *= scale;
                    *m = m.max(*s);
                }
            }
            sum.fill(0.0);
            for row in scores.chunks_exact_mut(t) {
                for ((s, &m), total) in row.iter_mut().zip(&*max).zip(&mut *sum) {
                    *s = math::exp(*s - m);
                    *total += *s;
                }
            }
            for row in scores.chunks_exact_mut(t) {
                for (s, &total) in row.iter_mut().zip(&*sum) {
                    *s /= total;
                }
            }
            // out[c][i] = Σ_j attn[i][j] · v[c][j], ascending j.
            let context = &mut *row_a;
            for (ci, vc) in vt.chunks_exact(t).enumerate() {
                context.fill(0.0);
                for (row, &vj) in scores.chunks_exact(t).zip(vc) {
                    for (acc, &a) in context.iter_mut().zip(row) {
                        *acc += a * vj;
                    }
                }
                for ty in 0..window {
                    let (from, to) = (ty * window, ci * hw + corner + ty * w);
                    out[to..to + window].copy_from_slice(&context[from..from + window]);
                }
            }
        }
    }
}

/// The geometry [`window_attention_into`] accepts: a positive `window` that
/// divides both spatial extents — also the planned executor's shape check.
///
/// # Errors
///
/// Returns an error naming the extents and the window otherwise.
pub fn check_window(h: usize, w: usize, window: usize) -> Result<()> {
    if window == 0 || !h.is_multiple_of(window) || !w.is_multiple_of(window) {
        return Err(TensorError::InvalidArgument(format!(
            "spatial extents {h}x{w} not divisible by attention window {window}"
        )));
    }
    Ok(())
}

/// [`gelu_lanes`] and both [`attend`] instances recompiled per x86-64
/// feature level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{attend, gelu_lanes, Windows};

    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-checked by
    /// [`super::gelu_into_at`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_avx2(src: Option<&[f32]>, out: &mut [f32]) {
        gelu_lanes(src, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::gelu_into_at`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn gelu_avx512(src: Option<&[f32]>, out: &mut [f32]) {
        gelu_lanes(src, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-checked by
    /// [`super::window_attention_into_at`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn attend_avx2(maps: &Windows<'_>, staging: &mut [f32], out: &mut [f32]) {
        attend(maps, staging, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::window_attention_into_at`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn attend_avx512(maps: &Windows<'_>, staging: &mut [f32], out: &mut [f32]) {
        attend(maps, staging, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_norm_normalises_every_pixel_across_channels() {
        let (n, c, hw) = (2, 5, 7);
        let x: Vec<f32> = (0..n * c * hw).map(|i| ((i as f32) * 0.37).sin() * 3.0 + 1.0).collect();
        let (gamma, beta) = (vec![1.0; c], vec![0.0; c]);
        let mut out = vec![f32::NAN; x.len()];
        // Oversized stale scratch, as a long-lived workspace hands it over.
        let mut stats = vec![f32::NAN; 100];
        layer_norm_into(&x, n, c, hw, &gamma, &beta, 1e-5, &mut stats, &mut out).unwrap();
        for b in 0..n {
            for p in 0..hw {
                let px: Vec<f32> = (0..c).map(|ci| out[(b * c + ci) * hw + p]).collect();
                let mean = px.iter().sum::<f32>() / c as f32;
                let var = px.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
                assert!(mean.abs() < 1e-5 && (var - 1.0).abs() < 1e-2, "mean {mean} var {var}");
            }
        }
        assert!(layer_norm_into(&x, n, c, hw, &gamma[1..], &beta, 1e-5, &mut stats, &mut out).is_err());
        assert!(layer_norm_into(&x[1..], n, c, hw, &gamma, &beta, 1e-5, &mut stats, &mut out).is_err());
    }

    #[test]
    fn attention_mixes_only_within_a_window_and_rejects_ragged_extents() {
        // Uniform q and k give uniform attention: every output pixel is the
        // mean of v over its own window.
        let (c, h, w, window) = (3, 4, 6, 2);
        let ones = vec![1.0f32; c * h * w];
        let v: Vec<f32> = (0..c * h * w).map(|i| i as f32).collect();
        let mut out = vec![f32::NAN; v.len()];
        let mut staging = Vec::new();
        window_attention_into(&ones, &ones, &v, 1, c, h, w, window, &mut staging, &mut out).unwrap();
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let (y0, x0) = (y / window * window, x / window * window);
                    let mean = (0..window * window)
                        .map(|i| v[ci * h * w + (y0 + i / window) * w + x0 + i % window])
                        .sum::<f32>()
                        / (window * window) as f32;
                    let got = out[ci * h * w + y * w + x];
                    assert!((got - mean).abs() < 1e-4, "({ci},{y},{x}): {got} vs {mean}");
                }
            }
        }
        let err = window_attention_into(&ones, &ones, &v, 1, c, h, w, 4, &mut staging, &mut out).unwrap_err();
        assert!(err.to_string().contains("4x6") && err.to_string().contains("window 4"), "{err}");
        assert!(check_window(4, 6, 0).is_err());
        assert!(window_attention_into(&ones[1..], &ones, &v, 1, c, h, w, 2, &mut staging, &mut out).is_err());
    }
}
