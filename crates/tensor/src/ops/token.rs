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
//! GELU and window attention call no libm: their `exp` is [`math`]'s
//! branch-free one, so their loops vectorise. GELU is `v · σ(2u)`, one
//! `exp` and one divide per value (see [`gelu`]). All three are
//! one `#[inline(always)]` body recompiled for AVX2 and AVX-512F and picked
//! by the active backend's [`SimdLevel`], the pattern of [`super::direct`].
//! Every step is a separate IEEE operation and lanes never mix, so a lane
//! computes exactly what the scalar call does: scalar and simd, and every
//! level, agree by construction.
//!
//! LayerNorm normalises 64 pixels at a time, the block's mean and
//! reciprocal denominator held in local arrays (registers) across its
//! channel passes: one divide per pixel, not one per value.
//!
//! Attention runs a window's queries in lane groups of a fixed width per
//! level (16 at AVX2 and AVX-512, 8 at the portable level), the last group
//! padded with zero queries that are never stored. Per group, a block of
//! keys' score rows accumulates in registers across the channel loop (the
//! block is one window row of the zoo's window), the row maximum and sum
//! live in local arrays beside the scores, and the context accumulates
//! a block of channels at a time in registers across the key loop, the
//! softmax's divide riding in its first block. Only `q` is gathered into a
//! tile; keys and values are read in place, a window row at a time, and
//! the context is stored from its registers straight into the output map.
//! The body has two const-generic instances, picked per call by the window:
//! one for the only window the model zoo uses (4×4: 16 tokens), in which
//! every row move and score block has a compile-time length, and one for
//! any window, which walks its gather and scatter a value at a time (a row
//! move of a run-time length is a `memcpy` call). The context's key count
//! is hidden from the optimiser in both: unrolled whole, its accumulation
//! chains compile to scalar code. Both instances run the same operations
//! in the same order, so they agree bit for bit too.

use crate::error::{Result, TensorError};
use crate::ops::math;
use crate::workspace::sized;
use crate::SimdLevel;

/// GELU, tanh approximation — the single scalar form shared by the autograd
/// activation and the deployed op, so both agree bit for bit.
///
/// `0.5·v·(1 + tanh u)` computed as `v · σ(2u) = v / (1 + e^{−2u})`, with
/// `u = √(2/π)·(v + 0.044715·v³)`: the same function, but one [`math::exp`]
/// and one divide instead of both of [`math::tanh`]'s branches, and no
/// cancellation in the negative tail, where `1 + tanh u` would round to 0.
/// Branch-free, so a loop over it vectorises. `±0` keep their sign, `+Inf`
/// gives `+Inf`, `−Inf` and NaN give NaN.
#[inline(always)]
#[must_use]
pub fn gelu(v: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    // `−2u` with `−2·C` folded into one constant: exact, as doubling is.
    let minus_2u = -2.0 * C * (v + 0.044_715 * v * v * v);
    v / (1.0 + math::exp(minus_2u))
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
/// overwritten), at the active backend's [`SimdLevel`]. Per pixel, in the
/// tape's order: ascending-channel sum `· 1/c`, centre, ascending sum of
/// squares `· 1/c`, `d = sqrt(max(var + eps, 1e-12))`, `r = 1 / d`, then
/// `x · r · γ + β`.
/// `stats` is reusable grow-only scratch (the two statistics of the last
/// `hw % 64` pixels; whole blocks of 64 keep theirs in registers).
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
    let level = crate::backend::kernel().simd_level();
    layer_norm_into_at(level, x, n, c, hw, gamma, beta, eps, stats, out)
}

/// [`layer_norm_into`] at `level`, clamped to what the CPU offers. Every
/// pixel is one lane with the same operations in the same order at every
/// width, so the result is `to_bits`-identical at every level.
///
/// # Errors
///
/// As [`layer_norm_into`].
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_into_at(
    level: SimdLevel,
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
    let norm = Norm { x, c, hw, gamma, beta, eps };
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(crate::simd::detected()) {
            SimdLevel::Avx512 => unsafe { x86::layer_norm_avx512(&norm, stats, out) },
            SimdLevel::Avx2 => unsafe { x86::layer_norm_avx2(&norm, stats, out) },
            SimdLevel::Sse42 | SimdLevel::None => layer_norm_pixels(&norm, stats, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        layer_norm_pixels(&norm, stats, out);
    }
    Ok(())
}

/// The checked operands of one [`layer_norm_into_at`] call.
struct Norm<'a> {
    x: &'a [f32],
    c: usize,
    hw: usize,
    gamma: &'a [f32],
    beta: &'a [f32],
    eps: f32,
}

/// Pixels per LayerNorm block: four AVX-512 registers. The same width at
/// every level measured best (32 read slower than the parent's plane walk
/// at AVX2 and as compiled portably, 16 and 64 faster).
const NORM_BLOCK: usize = 64;

/// The one LayerNorm loop every level compiles: lanes are pixels,
/// [`NORM_BLOCK`] at a time, with a block's mean and reciprocal
/// denominator in local arrays across the channel loops, so they stay in
/// registers; the last `hw % NORM_BLOCK` pixels keep theirs in `stats`.
#[inline(always)]
fn layer_norm_pixels(norm: &Norm<'_>, stats: &mut Vec<f32>, out: &mut [f32]) {
    const P: usize = NORM_BLOCK;
    let Norm { x, c, hw, .. } = *norm;
    let (whole, tail) = (hw - hw % P, hw % P);
    let (mean, recip) = sized(stats, 2 * tail).split_at_mut(tail);
    for (image, out) in x.chunks_exact(c * hw).zip(out.chunks_exact_mut(c * hw)) {
        for first in (0..whole).step_by(P) {
            normalise(norm, image, first, &mut [0.0; P], &mut [0.0; P], out);
        }
        normalise(norm, image, whole, mean, recip, out);
    }
}

/// LayerNorm of one image's pixels `first..first + mean.len()`, each pass
/// a walk over that span of every channel plane; `mean` and `recip` hold
/// the span's statistics, `recip` first the sum of squares and then one
/// reciprocal per pixel, `1 / d`, so the last pass multiplies.
#[inline(always)]
fn normalise(norm: &Norm<'_>, image: &[f32], first: usize, mean: &mut [f32], recip: &mut [f32], out: &mut [f32]) {
    let Norm { c, hw, gamma, beta, eps, .. } = *norm;
    let inv = 1.0 / c as f32;
    let span = first..first + mean.len();
    mean.fill(0.0);
    for plane in image.chunks_exact(hw) {
        for (m, &v) in mean.iter_mut().zip(&plane[span.clone()]) {
            *m += v;
        }
    }
    mean.iter_mut().for_each(|m| *m *= inv);
    recip.fill(0.0);
    for (plane, centred) in image.chunks_exact(hw).zip(out.chunks_exact_mut(hw)) {
        let (plane, centred) = (&plane[span.clone()], &mut centred[span.clone()]);
        for (((o, &v), &m), d) in centred.iter_mut().zip(plane).zip(&*mean).zip(&mut *recip) {
            *o = v - m;
            *d += *o * *o;
        }
    }
    recip.iter_mut().for_each(|r| *r = 1.0 / (*r * inv + eps).max(1e-12).sqrt());
    for ((centred, &g), &b) in out.chunks_exact_mut(hw).zip(gamma).zip(beta) {
        for (o, &r) in centred[span.clone()].iter_mut().zip(&*recip) {
            *o = *o * r * g + b;
        }
    }
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
/// contiguous. `staging` is reusable grow-only scratch: the window's `q`
/// tile (`c` rows of `t = window²` queries, rounded up to whole lane groups
/// of at most 16) and one lane group's `t` score rows.
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
    let maps = Windows { q, k, v, n, c, h, w, window };
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(crate::simd::detected()) {
            SimdLevel::Avx512 => unsafe { x86::attend_avx512(&maps, staging, out) },
            SimdLevel::Avx2 => unsafe { x86::attend_avx2(&maps, staging, out) },
            SimdLevel::Sse42 | SimdLevel::None => attend::<8, 2>(&maps, staging, out),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        attend::<8, 2>(&maps, staging, out);
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

/// The one attention loop every level compiles, `L` query lanes at a time
/// and `B` keys per score block and channels per context block, through
/// its instance for the zoo's window or the one for any window. Each level
/// picks `L` and `B` so that `B` rows of `L` accumulators and their
/// operands fit its register file: 16 and 4 (four zmm, or eight ymm
/// registers at AVX2), and 8 and 2 at the portable level (four of its
/// sixteen xmm registers).
#[inline(always)]
fn attend<const L: usize, const B: usize>(maps: &Windows<'_>, staging: &mut Vec<f32>, out: &mut [f32]) {
    if maps.window == ZOO_WINDOW {
        attend_windows::<ZOO_WINDOW, L, B>(maps, staging, out);
    } else {
        attend_windows::<0, L, B>(maps, staging, out);
    }
}

/// [`attend`] for a `W × W` window, or for any window when `W` is 0.
///
/// Lanes are query tokens, `L` at a time: a window's `t` queries are
/// `⌈t / L⌉` lane groups, the last padded with zero queries whose lanes
/// are computed and never stored. Every loop over a group's lanes has the
/// fixed length `L`; the row maximum and sum are local arrays and the
/// score and context accumulators are up to `B` local rows, so none can
/// alias the staged rows and the compiler keeps them in registers. Keys
/// are read from `k` and `v` in place, a window row at a time: score
/// blocks of `B` keys, then single keys, along each row. `staging` holds
/// the gathered `q` tile (`c` rows of the padded query count) and one lane
/// group's `t` score rows.
#[inline(always)]
fn attend_windows<const W: usize, const L: usize, const B: usize>(
    maps: &Windows<'_>,
    staging: &mut Vec<f32>,
    out: &mut [f32],
) {
    let Windows { q, k, v, n, c, h, w, window } = *maps;
    // A compile-time constant in every instance but `W = 0`, and with it
    // the key count, the lane-group count and every row's length.
    let window = if W == 0 { window } else { W };
    let (t, hw) = (window * window, h * w);
    let tq = t.div_ceil(L) * L;
    let scale = 1.0 / (c as f32).sqrt();
    let staging = sized(staging, c * tq + t * L);
    let (qt, scores) = staging.split_at_mut(c * tq);
    let scores = scores.as_chunks_mut::<L>().0;
    // The padding queries: zeroed once, never overwritten.
    for row in qt.chunks_exact_mut(tq) {
        row[t..].fill(0.0);
    }
    // A window row holds `whole` keys in blocks of B, then single keys.
    let whole = window - window % B;
    for b in 0..n {
        let image = b * c * hw..(b + 1) * c * hw;
        let (q, k, v, out) = (&q[image.clone()], &k[image.clone()], &v[image.clone()], &mut out[image]);
        for corner in (0..h / window).flat_map(|wy| (0..w / window).map(move |wx| (wy * w + wx) * window)) {
            for (plane, tile) in q.chunks_exact(hw).zip(qt.chunks_exact_mut(tq)) {
                gather_window::<W>(&plane[corner..], w, window, &mut tile[..t]);
            }
            for first in (0..t).step_by(L) {
                // scores[j][i] = Σ_c q[c][i] · k[c][j], ascending c, then
                // `· 1/√c`; the row maximum runs ascending j.
                let mut max = [f32::NEG_INFINITY; L];
                let queries = Queries { tile: qt, row: tq, first };
                for (ty, rows) in scores.chunks_exact_mut(window).enumerate() {
                    let at = corner + ty * w;
                    let (blocks, singles) = rows.split_at_mut(whole);
                    for (x, rows) in (0..).step_by(B).zip(blocks.chunks_exact_mut(B)) {
                        score_keys::<L, B>(&queries, k, hw, at + x, scale, rows, &mut max);
                    }
                    for (x, rows) in (whole..).zip(singles.chunks_exact_mut(1)) {
                        score_keys::<L, 1>(&queries, k, hw, at + x, scale, rows, &mut max);
                    }
                }
                // Softmax over the keys of each query: ascending sum of
                // `exp(s - max)`, then one divide, which the first context
                // block applies to each row as it first reads it.
                let mut sum = [0.0f32; L];
                for row in scores.iter_mut() {
                    for ((s, &m), total) in row.iter_mut().zip(&max).zip(&mut sum) {
                        *s = math::exp(*s - m);
                        *total += *s;
                    }
                }
                // out[c][i] = Σ_j attn[i][j] · v[c][j], ascending j, B
                // channels at a time, then single channels.
                let blocks = c - c % B;
                let mut c0 = 0;
                while c0 < c {
                    let channels = if c0 < blocks { B } else { 1 };
                    let divide = (c0 == 0).then_some(&sum);
                    let (planes, out) = (&v[c0 * hw + corner..], &mut out[c0 * hw + corner..]);
                    if channels == B {
                        let context = context_channels::<L, B>(scores, planes, hw, w, window, divide);
                        scatter_channels::<W, L>(&context, first, t, window, out, hw, w);
                    } else {
                        let context = context_channels::<L, 1>(scores, planes, hw, w, window, divide);
                        scatter_channels::<W, L>(&context, first, t, window, out, hw, w);
                    }
                    c0 += channels;
                }
            }
        }
    }
}

/// One lane group of the staged `q` tile: `L` queries from `first` of
/// every `row`-long channel row.
struct Queries<'a> {
    tile: &'a [f32],
    row: usize,
    first: usize,
}

/// Scores of the `K` keys that sit at `at..at + K` of every `hw`-long
/// channel plane of `k`, for one lane group of queries: accumulated in
/// registers across the channel loop, scaled into `rows` and folded into
/// the running row maximum.
#[inline(always)]
fn score_keys<const L: usize, const K: usize>(
    queries: &Queries<'_>,
    k: &[f32],
    hw: usize,
    at: usize,
    scale: f32,
    rows: &mut [[f32; L]],
    max: &mut [f32; L],
) {
    let Queries { tile, row, first } = *queries;
    let mut acc = [[0.0f32; L]; K];
    for (qc, kc) in tile.chunks_exact(row).zip(k.chunks_exact(hw)) {
        let qc: &[f32; L] = qc[first..first + L].try_into().expect("a lane group is L queries");
        let kc: &[f32; K] = kc[at..at + K].try_into().expect("a key block is K keys");
        for (acc, &kj) in acc.iter_mut().zip(kc) {
            for (s, &qi) in acc.iter_mut().zip(qc) {
                *s += qi * kj;
            }
        }
    }
    for (row, acc) in rows.iter_mut().zip(&acc) {
        for ((s, &a), m) in row.iter_mut().zip(acc).zip(max.iter_mut()) {
            *s = a * scale;
            *m = m.max(*s);
        }
    }
}

/// The context of `K` channels over one lane group's softmax rows `attn`
/// (a `window × window` window's keys, row-major): channel `r`'s window
/// starts at `planes[r · hw]`, its rows `w` apart. Accumulated in
/// registers across the key loop. With `divide`, each row is first divided
/// by its lane's sum in place: the softmax's last step, inside a loop whose
/// accumulators keep the compiler from vectorising it across rows.
#[inline(always)]
fn context_channels<const L: usize, const K: usize>(
    attn: &mut [[f32; L]],
    planes: &[f32],
    hw: usize,
    w: usize,
    window: usize,
    divide: Option<&[f32; L]>,
) -> [[f32; L]; K] {
    // Hidden from the optimiser: with the key count known, the key loop
    // unrolls whole, and its accumulation chains, 32 operations deep at
    // the zoo's window, outgrow what the vectoriser follows and compile to
    // scalar code.
    let window = std::hint::black_box(window);
    let mut acc = [[0.0f32; L]; K];
    for (ty, attn) in attn.chunks_exact_mut(window).enumerate() {
        let mut values: [&[f32]; K] = [&[]; K];
        for (r, values) in values.iter_mut().enumerate() {
            *values = &planes[r * hw + ty * w..][..window];
        }
        for (x, a) in attn.iter_mut().enumerate() {
            if let Some(sum) = divide {
                for (s, &total) in a.iter_mut().zip(sum) {
                    *s /= total;
                }
            }
            for (acc, values) in acc.iter_mut().zip(&values) {
                let vj = values[x];
                for (o, &ai) in acc.iter_mut().zip(&*a) {
                    *o += ai * vj;
                }
            }
        }
    }
    acc
}

/// Copies the `window × window` values whose rows start `w` apart from
/// `plane[0]` into `tile`, row-major. The zoo's window moves whole rows of
/// a compile-time length; any other window walks the values one at a time,
/// since a row move of a run-time length is a `memcpy` call per row.
#[inline(always)]
fn gather_window<const W: usize>(plane: &[f32], w: usize, window: usize, tile: &mut [f32]) {
    if W == 0 {
        for (to, at) in tile.iter_mut().zip(token_offsets(0, window, w)) {
            *to = plane[at];
        }
    } else {
        for (ty, to) in tile.chunks_exact_mut(W).enumerate() {
            to.copy_from_slice(&plane[ty * w..][..W]);
        }
    }
}

/// Writes the real tokens of the lane group from `first` — `first..min(first
/// + L, t)` of a `window`-wide window — of each channel in `context` into
/// the maps, whose window corner in channel `r` is `planes[r · hw]`, as
/// [`gather_window`] reads them.
#[inline(always)]
fn scatter_channels<const W: usize, const L: usize>(
    context: &[[f32; L]],
    first: usize,
    t: usize,
    window: usize,
    planes: &mut [f32],
    hw: usize,
    w: usize,
) {
    let real = L.min(t - first);
    for (lanes, plane) in context.iter().zip(planes.chunks_mut(hw)) {
        if W == 0 {
            for (&value, at) in lanes[..real].iter().zip(token_offsets(first, window, w)) {
                plane[at] = value;
            }
        } else {
            // Every level's `L` is a multiple of the zoo's window: a lane
            // group is whole window rows.
            for (ty, from) in (first / window..).zip(lanes[..real].chunks_exact(W)) {
                plane[ty * w..][..W].copy_from_slice(from);
            }
        }
    }
}

/// The offsets from a window's corner, in a map whose rows are `w` apart,
/// of the window's tokens from `first` on, row-major.
#[inline(always)]
fn token_offsets(first: usize, window: usize, w: usize) -> impl Iterator<Item = usize> {
    let (mut at, mut x) = (first / window * w + first % window, first % window);
    std::iter::from_fn(move || {
        let token = at;
        (at, x) = if x + 1 == window { (at + w + 1 - window, 0) } else { (at + 1, x + 1) };
        Some(token)
    })
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
    use super::{attend, gelu_lanes, layer_norm_pixels, Norm, Windows};

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
    /// [`super::layer_norm_into_at`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn layer_norm_avx2(norm: &Norm<'_>, stats: &mut Vec<f32>, out: &mut [f32]) {
        layer_norm_pixels(norm, stats, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::layer_norm_into_at`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn layer_norm_avx512(norm: &Norm<'_>, stats: &mut Vec<f32>, out: &mut [f32]) {
        layer_norm_pixels(norm, stats, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-checked by
    /// [`super::window_attention_into_at`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn attend_avx2(maps: &Windows<'_>, staging: &mut Vec<f32>, out: &mut [f32]) {
        attend::<16, 4>(maps, staging, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::window_attention_into_at`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn attend_avx512(maps: &Windows<'_>, staging: &mut Vec<f32>, out: &mut [f32]) {
        attend::<16, 4>(maps, staging, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gelu` against its own form, `v / (1 + e^{−2u})`, in f64. The f64
    /// tanh form is no reference: `1 + tanh u` cancels below `v ≈ −5`.
    #[test]
    fn gelu_is_within_its_ulp_bounds_of_a_stable_f64_reference() {
        fn reference(v: f64) -> f64 {
            let u = (2.0 / std::f64::consts::PI).sqrt() * (v + 0.044_715 * v * v * v);
            v / (1.0 + (-2.0 * u).exp())
        }
        // The wide range's error is `exp`'s argument: `2u` carries a few
        // f32 roundings, and `e^{2u}` scales them by `2u` (~140 at −10).
        for (lo, hi, bound) in [(-3.0, 3.0, 16), (-10.0, 10.0, 240)] {
            let (ulp, at) = math::tests::max_ulp(gelu, reference, lo, hi, 2_000_000);
            eprintln!("gelu on [{lo}, {hi}]: max {ulp} ulp at {at}");
            assert!(ulp <= bound, "gelu: {ulp} ulp at {at} on [{lo}, {hi}]");
        }
    }

    #[test]
    fn gelu_special_values() {
        assert_eq!(gelu(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(gelu(f32::INFINITY), f32::INFINITY);
        assert!(gelu(f32::NEG_INFINITY).is_nan());
        assert!(gelu(f32::NAN).is_nan() && gelu(-f32::NAN).is_nan());
        // `e^{−2u}` overflows from `v ≈ −10.1` on: the quotient is `−0`.
        assert_eq!(gelu(-12.0).to_bits(), (-0.0f32).to_bits());
        // Large positive inputs pass through: `e^{−2u}` is 0.
        assert_eq!(gelu(1e30), 1e30);
    }

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
