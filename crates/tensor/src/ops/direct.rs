//! The direct float convolution behind [`conv2d_into`](super::conv2d_into):
//! one loop, compiled once per [`SimdLevel`].
//!
//! A call copies each image once into a **zero-padded plane per input
//! channel** — `(h + 2·pad) × (w + 2·pad)` floats, fully overwritten, or no
//! copy at all when `pad` is 0 — and then walks *plane positions*: position
//! `q` is where a receptive field starts and every tap reads
//! `q + ky·row + kx`, the same offsets at every position. So lanes are
//! positions, each tap is one broadcast weight times a run of *contiguous*
//! plane values, and the loop runs flat across row ends, computing the few
//! positions that are not output pixels (the `k − 1` between one output row
//! and the next; at a stride, the skipped ones) rather than stopping for
//! them. The store picks the output pixels out and adds the bias.
//!
//! A tile is four output channels by `L` positions, so each loaded run of
//! plane values meets four weights. `L` is the one per-level constant:
//! two vector registers of lanes where the register file has 16 (eight
//! accumulators plus operands fit), three at AVX-512, which has 32. The
//! accumulators are fixed-size arrays that live in registers across the
//! whole tap loop,
//! every output element is exactly one lane, and each lane starts at `+0.0`
//! and takes `acc += w · x` for `(ci, ky, kx)` ascending as a separate IEEE
//! multiply and add — padded taps included, they multiply a real zero.
//! That is operation for operation what im2col → `gemm_rows` does for the
//! same element, so the result is `f32::to_bits`-identical to
//! [`conv2d`](super::conv2d) on every level, backend and geometry.
//!
//! `conv_planes` is an `#[inline(always)]` body with the kernel widths
//! every lowered model has (3 and 1) as const-generic instances beside the
//! generic one; the `#[target_feature]` wrappers in `x86` recompile exactly
//! that loop for AVX2 and AVX-512F.

use crate::ops::Conv2dSpec;
use crate::SimdLevel;

/// Output channels one tile accumulates side by side: each loaded run of
/// plane values is multiplied by this many weights.
const CHANNELS: usize = 4;

/// Shape of one call, shared by the padder and the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    pub(crate) ic: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) spec: Conv2dSpec,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
}

impl Geometry {
    /// Floats per plane row.
    fn row(&self) -> usize {
        self.w + 2 * self.spec.padding
    }

    /// Floats per (padded) input-channel plane.
    fn plane(&self) -> usize {
        (self.h + 2 * self.spec.padding) * self.row()
    }

    /// Floats the padded copy of one image takes; none when there is no
    /// padding and the kernel reads the image itself.
    pub(crate) fn scratch_len(&self) -> usize {
        if self.spec.padding == 0 {
            0
        } else {
            self.ic * self.plane()
        }
    }

    /// One past the last output pixel's position.
    fn span(&self) -> usize {
        ((self.oh - 1) * self.row() + (self.ow - 1)) * self.spec.stride + 1
    }
}

/// Copy one `[ic, h, w]` image into its zero-padded planes, overwriting
/// all of `planes` (stale scratch never leaks).
pub(crate) fn pad_image(g: &Geometry, image: &[f32], planes: &mut [f32]) {
    let (w, pad, row) = (g.w, g.spec.padding, g.row());
    for (plane, channel) in planes.chunks_mut(g.plane()).zip(image.chunks(g.h * w)) {
        let (top, rest) = plane.split_at_mut(pad * row);
        let (rows, bottom) = rest.split_at_mut(g.h * row);
        top.fill(0.0);
        bottom.fill(0.0);
        for (dst, src) in rows.chunks_mut(row).zip(channel.chunks(w)) {
            dst[..pad].fill(0.0);
            dst[pad..pad + w].copy_from_slice(src);
            dst[pad + w..].fill(0.0);
        }
    }
}

/// Everything the kernel reads for one image.
pub(crate) struct Job<'a> {
    pub(crate) g: &'a Geometry,
    /// `ic` planes of `g.plane()` floats: the padded copy, or the image
    /// itself when there is no padding.
    pub(crate) planes: &'a [f32],
    /// `[oc, ic·kh·kw]`, row-major.
    pub(crate) weights: &'a [f32],
    /// One value per output channel, added in the store.
    pub(crate) bias: Option<&'a [f32]>,
}

/// `C` output channels × `L` positions starting at `q`: the accumulators
/// after every tap, in ascending `(ci, ky, kx)` order.
#[inline(always)]
fn tile<const C: usize, const L: usize, const KW: usize>(
    job: &Job<'_>,
    weights: [&[f32]; C],
    q: usize,
) -> [[f32; L]; C] {
    let g = job.g;
    let row = g.row();
    let kw = if KW == 0 { g.kw } else { KW };
    let mut acc = [[0.0f32; L]; C];
    let mut tap = 0;
    for plane in job.planes.chunks(g.plane()) {
        for ky in 0..g.kh {
            let at = q + ky * row;
            let run = &plane[at..at + kw - 1 + L];
            for kx in 0..kw {
                let x: &[f32; L] = run[kx..kx + L].try_into().expect("L values");
                for (acc, w) in acc.iter_mut().zip(weights) {
                    let wv = w[tap];
                    for (a, &xv) in acc.iter_mut().zip(x) {
                        *a += wv * xv;
                    }
                }
                tap += 1;
            }
        }
    }
    acc
}

/// Store the output pixels among the `L` positions from `q` of `C`
/// channels (`out` is their `oh·ow` planes; rows are `stride · row`
/// positions apart, pixels `stride`), each as `v = acc; v += bias`.
#[inline(always)]
fn store<const C: usize, const L: usize>(g: &Geometry, q: usize, acc: &[[f32; L]; C], bias: &[f32; C], out: &mut [f32]) {
    let (stride, ow) = (g.spec.stride, g.ow);
    let row_step = stride * g.row();
    let pixels = |positions: usize| if stride == 1 { positions } else { positions.div_ceil(stride) };
    for oy in q / row_step..g.oh {
        let row0 = oy * row_step;
        if row0 >= q + L {
            break;
        }
        let lo = pixels(q.saturating_sub(row0));
        let hi = ow.min(pixels(q + L - row0));
        if lo >= hi {
            continue;
        }
        for ((out, acc), &bias) in out.chunks_mut(g.oh * ow).zip(acc).zip(bias) {
            let out = &mut out[oy * ow + lo..oy * ow + hi];
            let acc = &acc[row0 + lo * stride - q..];
            if stride == 1 {
                for (v, a) in out.iter_mut().zip(acc) {
                    *v = a + bias;
                }
            } else {
                for (v, a) in out.iter_mut().zip(acc.iter().step_by(stride)) {
                    *v = a + bias;
                }
            }
        }
    }
}

/// Output channels `first..first + C` over every position, in tiles of
/// `L`. The last tile is moved back to end on the last position (the
/// overlap is stored twice with the same values) so no tile reads past the
/// planes; an image with fewer than `L` positions goes one at a time.
#[inline(always)]
fn conv_block<const C: usize, const L: usize, const KW: usize>(job: &Job<'_>, first: usize, out: &mut [f32]) {
    let g = job.g;
    let (taps, span) = (g.ic * g.kh * g.kw, g.span());
    let weights: [&[f32]; C] = std::array::from_fn(|c| &job.weights[(first + c) * taps..(first + c + 1) * taps]);
    // `v + (−0.0)` is `v` bit for bit, so one store serves both cases.
    let bias: [f32; C] = std::array::from_fn(|c| job.bias.map_or(-0.0, |b| b[first + c]));
    if span < L {
        for q in 0..span {
            store(g, q, &tile::<C, 1, KW>(job, weights, q), &bias, out);
        }
        return;
    }
    for q in (0..span).step_by(L) {
        let q = q.min(span - L);
        store(g, q, &tile::<C, L, KW>(job, weights, q), &bias, out);
    }
}

/// Convolve one image into `planes` (one per output channel, `oh·ow`
/// floats each): [`CHANNELS`] at a time, then the remainder singly.
#[inline(always)]
fn conv_planes<const L: usize>(job: &Job<'_>, planes: &mut [f32]) {
    match job.g.kw {
        3 => conv_channels::<L, 3>(job, planes),
        1 => conv_channels::<L, 1>(job, planes),
        _ => conv_channels::<L, 0>(job, planes),
    }
}

#[inline(always)]
fn conv_channels<const L: usize, const KW: usize>(job: &Job<'_>, planes: &mut [f32]) {
    let pixels = job.g.oh * job.g.ow;
    let mut blocks = planes.chunks_exact_mut(CHANNELS * pixels);
    let mut c = 0;
    for block in &mut blocks {
        conv_block::<CHANNELS, L, KW>(job, c, block);
        c += CHANNELS;
    }
    for plane in blocks.into_remainder().chunks_mut(pixels) {
        conv_block::<1, L, KW>(job, c, plane);
        c += 1;
    }
}

/// [`conv_planes`] at `level`, clamped to what the CPU offers.
pub(crate) fn conv(level: SimdLevel, job: &Job<'_>, planes: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(crate::simd::detected()) {
            SimdLevel::Avx512 => return unsafe { x86::conv_avx512(job, planes) },
            SimdLevel::Avx2 => return unsafe { x86::conv_avx2(job, planes) },
            SimdLevel::Sse42 | SimdLevel::None => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    conv_planes::<8>(job, planes);
}

/// The generic body recompiled per x86-64 feature level, at the tile
/// width that level's register file holds.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{conv_planes, Job};

    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-checked by [`super::conv`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_avx2(job: &Job<'_>, planes: &mut [f32]) {
        conv_planes::<16>(job, planes);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::conv`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn conv_avx512(job: &Job<'_>, planes: &mut [f32]) {
        conv_planes::<48>(job, planes);
    }
}
