//! Image-layout operations: pixel shuffle (sub-pixel upsampling used by SR
//! tails), global average pooling, and windows partitioning for Swin-style
//! attention.

use crate::error::{Result, TensorError};
use crate::simd::SimdLevel;
use crate::tensor::Tensor;

/// Sub-pixel rearrangement `[N, C·r², H, W] → [N, C, H·r, W·r]`
/// (PixelShuffle, Shi et al. 2016), the standard SR tail upsampler.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or a channel count that is not a
/// multiple of `r²`.
pub fn pixel_shuffle(input: &Tensor, r: usize) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "pixel_shuffle" });
    }
    if r == 0 {
        return Err(TensorError::InvalidArgument("upscale factor must be positive".into()));
    }
    let (n, c_in, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    if c_in % (r * r) != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "channels {c_in} not divisible by r^2 = {}",
            r * r
        )));
    }
    let c = c_in / (r * r);
    let mut out = Tensor::zeros(&[n, c, h * r, w * r]);
    for b in 0..n {
        for co in 0..c {
            for ry in 0..r {
                for rx in 0..r {
                    let ci = co * r * r + ry * r + rx;
                    for y in 0..h {
                        for x in 0..w {
                            let v = input.at(&[b, ci, y, x]);
                            *out.at_mut(&[b, co, y * r + ry, x * r + rx]) = v;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Inverse of [`pixel_shuffle`]: `[N, C, H·r, W·r] → [N, C·r², H, W]`.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or spatial extents not divisible by
/// `r`.
pub fn pixel_unshuffle(input: &Tensor, r: usize) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "pixel_unshuffle" });
    }
    if r == 0 {
        return Err(TensorError::InvalidArgument("downscale factor must be positive".into()));
    }
    let (n, c, hr, wr) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    if hr % r != 0 || wr % r != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "spatial extents {hr}x{wr} not divisible by {r}"
        )));
    }
    let (h, w) = (hr / r, wr / r);
    let mut out = Tensor::zeros(&[n, c * r * r, h, w]);
    for b in 0..n {
        for co in 0..c {
            for ry in 0..r {
                for rx in 0..r {
                    let ci = co * r * r + ry * r + rx;
                    for y in 0..h {
                        for x in 0..w {
                            let v = input.at(&[b, co, y * r + ry, x * r + rx]);
                            *out.at_mut(&[b, ci, y, x]) = v;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Global average pooling `[N, C, H, W] → [N, C, 1, 1]`.
///
/// # Errors
///
/// Returns an error for non-rank-4 input.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "global_avg_pool" });
    }
    let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    let mut out = Tensor::zeros(&[n, c, 1, 1]);
    global_avg_pool_into(input.data(), n, c, h * w, out.data_mut());
    Ok(out)
}

/// The flat-slice core of [`global_avg_pool`]: per-channel means of a
/// `[n, c, hw]` volume into a caller-provided `n · c` buffer, at the active
/// backend's [`SimdLevel`]. One home for the summation order, so the
/// allocating op (the training tape's) and the zero-allocation deployment
/// kernels that pool into scratch can never drift apart bitwise.
///
/// # Panics
///
/// Panics when the buffers are shorter than the extents imply.
pub fn global_avg_pool_into(input: &[f32], n: usize, c: usize, hw: usize, out: &mut [f32]) {
    global_avg_pool_into_at(crate::backend::kernel().simd_level(), input, n, c, hw, out);
}

/// [`global_avg_pool_into`] at `level`, clamped to what the CPU offers.
///
/// Each plane is summed in 16 fixed lanes — lane `i` adds
/// elements `i, i + 16, i + 32, …` in order, from `−0.0` — and the lanes
/// are then folded by a fixed halving tree (lane `i` takes lane `i + 8`,
/// then `i + 4`, `i + 2`, `i + 1`), before one division by `hw`. That order
/// is the bit contract: every level runs the same per-lane adds, so the
/// result is `to_bits`-identical at every level, and sixteen short chains
/// round less than one `hw`-long chain.
///
/// # Panics
///
/// As [`global_avg_pool_into`].
pub fn global_avg_pool_into_at(level: SimdLevel, input: &[f32], n: usize, c: usize, hw: usize, out: &mut [f32]) {
    let (input, out) = (&input[..n * c * hw], &mut out[..n * c]);
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(crate::simd::detected()) {
            SimdLevel::Avx512 => return unsafe { x86::pool_avx512(input, hw, out) },
            SimdLevel::Avx2 => return unsafe { x86::pool_avx2(input, hw, out) },
            SimdLevel::Sse42 | SimdLevel::None => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    pool_planes(input, hw, out);
}

/// Lanes one plane's sum is split across by [`global_avg_pool_into_at`].
const GAP_LANES: usize = 16;

/// Planes pooled side by side, so their lanes' add chains overlap.
const GAP_SIDE: usize = 4;

/// The one pooling loop every level compiles: [`GAP_SIDE`] planes at a
/// time, each in its own [`GAP_LANES`] lanes.
#[inline(always)]
fn pool_planes(input: &[f32], hw: usize, out: &mut [f32]) {
    let mut first = 0;
    for group in out.chunks_mut(GAP_SIDE) {
        let mut lanes = [[-0.0f32; GAP_LANES]; GAP_SIDE];
        // A short last group sums its last plane again; those extra sums
        // are never written.
        let planes: [&[f32]; GAP_SIDE] = std::array::from_fn(|i| {
            let plane = (first + i).min(first + group.len() - 1);
            &input[plane * hw..(plane + 1) * hw]
        });
        for block in 0..hw / GAP_LANES {
            for (lane, plane) in lanes.iter_mut().zip(&planes) {
                let values = &plane[block * GAP_LANES..(block + 1) * GAP_LANES];
                for (l, &v) in lane.iter_mut().zip(values) {
                    *l += v;
                }
            }
        }
        for ((mean, mut lane), plane) in group.iter_mut().zip(lanes).zip(&planes) {
            for (l, &v) in lane.iter_mut().zip(&plane[hw / GAP_LANES * GAP_LANES..]) {
                *l += v;
            }
            let mut width = GAP_LANES;
            while width > 1 {
                width /= 2;
                let (low, high) = lane.split_at_mut(width);
                for (l, &h) in low.iter_mut().zip(&*high) {
                    *l += h;
                }
            }
            *mean = lane[0] / hw as f32;
        }
        first += group.len();
    }
}

/// Partition `[N, C, H, W]` into non-overlapping `ws×ws` windows, returning
/// a token tensor `[N·nw, ws·ws, C]` (Swin window attention layout).
///
/// # Errors
///
/// Returns an error when `H` or `W` is not divisible by `ws`.
pub fn window_partition(input: &Tensor, ws: usize) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "window_partition" });
    }
    let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    if ws == 0 || h % ws != 0 || w % ws != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "spatial extents {h}x{w} not divisible by window {ws}"
        )));
    }
    let (nh, nw) = (h / ws, w / ws);
    let mut out = Tensor::zeros(&[n * nh * nw, ws * ws, c]);
    for b in 0..n {
        for wy in 0..nh {
            for wx in 0..nw {
                let widx = (b * nh + wy) * nw + wx;
                for ty in 0..ws {
                    for tx in 0..ws {
                        let tok = ty * ws + tx;
                        for ci in 0..c {
                            let v = input.at(&[b, ci, wy * ws + ty, wx * ws + tx]);
                            *out.at_mut(&[widx, tok, ci]) = v;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Inverse of [`window_partition`]: tokens `[N·nw, ws·ws, C]` back to the
/// image `[N, C, H, W]`.
///
/// # Errors
///
/// Returns an error when the token tensor is inconsistent with the target
/// image geometry.
pub fn window_merge(tokens: &Tensor, n: usize, c: usize, h: usize, w: usize, ws: usize) -> Result<Tensor> {
    if tokens.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: tokens.rank(), op: "window_merge" });
    }
    if ws == 0 || !h.is_multiple_of(ws) || !w.is_multiple_of(ws) {
        return Err(TensorError::InvalidArgument(format!(
            "spatial extents {h}x{w} not divisible by window {ws}"
        )));
    }
    let (nh, nw) = (h / ws, w / ws);
    if tokens.shape() != [n * nh * nw, ws * ws, c] {
        return Err(TensorError::ShapeMismatch {
            lhs: tokens.shape().to_vec(),
            rhs: vec![n * nh * nw, ws * ws, c],
            op: "window_merge",
        });
    }
    let mut out = Tensor::zeros(&[n, c, h, w]);
    for b in 0..n {
        for wy in 0..nh {
            for wx in 0..nw {
                let widx = (b * nh + wy) * nw + wx;
                for ty in 0..ws {
                    for tx in 0..ws {
                        let tok = ty * ws + tx;
                        for ci in 0..c {
                            let v = tokens.at(&[widx, tok, ci]);
                            *out.at_mut(&[b, ci, wy * ws + ty, wx * ws + tx]) = v;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// [`pool_planes`] recompiled per x86-64 feature level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::pool_planes;

    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-checked by
    /// [`super::global_avg_pool_into_at`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pool_avx2(input: &[f32], hw: usize, out: &mut [f32]) {
        pool_planes(input, hw, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::global_avg_pool_into_at`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn pool_avx512(input: &[f32], hw: usize, out: &mut [f32]) {
        pool_planes(input, hw, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_shuffle_round_trip() {
        let t = Tensor::from_vec((0..32).map(|i| i as f32).collect(), &[1, 8, 2, 2]).unwrap();
        let up = pixel_shuffle(&t, 2).unwrap();
        assert_eq!(up.shape(), &[1, 2, 4, 4]);
        let back = pixel_unshuffle(&up, 2).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn pixel_shuffle_layout() {
        // One output channel, r=2: channels [0..4) interleave into a 2x2 block.
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[1, 4, 1, 1]).unwrap();
        let up = pixel_shuffle(&t, 2).unwrap();
        assert_eq!(up.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn pixel_shuffle_validates() {
        let t = Tensor::zeros(&[1, 3, 2, 2]);
        assert!(pixel_shuffle(&t, 2).is_err());
        let t = Tensor::zeros(&[1, 4, 3, 3]);
        assert!(pixel_unshuffle(&t, 2).is_err());
    }

    /// The pooling order written out plainly: lane `i % 16` takes element
    /// `i`, then the fixed halving tree, then one division.
    fn sixteen_lane_mean(plane: &[f32]) -> f32 {
        let mut lanes = [-0.0f32; 16];
        for (i, &v) in plane.iter().enumerate() {
            lanes[i % 16] += v;
        }
        for width in [8, 4, 2, 1] {
            for i in 0..width {
                lanes[i] += lanes[i + width];
            }
        }
        lanes[0] / plane.len() as f32
    }

    /// Values whose sum depends on the order they are added in.
    fn order_sensitive(len: usize, salt: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32 + salt) * 0.61).sin() * 1e3 + 1e-3).collect()
    }

    #[test]
    fn global_avg_pool_sums_sixteen_lanes_then_a_halving_tree_at_every_level() {
        use crate::backend::{with_thread_backend, Backend};
        // Plane counts that fill no whole group of four (or eight), plane
        // sizes on both sides of every lane boundary, and long planes.
        let sizes = (0..=40).chain(255..=257).chain([1_600]);
        for hw in sizes {
            for (n, c) in [(1usize, 1usize), (1, 19), (3, 5), (2, 3)] {
                let data = order_sensitive(n * c * hw, hw as f32);
                let want: Vec<u32> = data
                    .chunks(hw.max(1))
                    .take(n * c)
                    .map(|plane| sixteen_lane_mean(if hw == 0 { &[] } else { plane }).to_bits())
                    .collect();
                let mut got = vec![f32::NAN; n * c];
                for level in crate::simd::available() {
                    got.fill(f32::NAN);
                    global_avg_pool_into_at(level, &data, n, c, hw, &mut got);
                    let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    if hw == 0 {
                        assert!(got.iter().all(|v| v.is_nan()), "hw 0 at {level}");
                    } else {
                        assert_eq!(got_bits, want, "hw {hw}, {n}x{c} planes at {level}");
                    }
                }
                for backend in [Backend::Scalar, Backend::Simd] {
                    got.fill(f32::NAN);
                    with_thread_backend(backend, || global_avg_pool_into(&data, n, c, hw, &mut got));
                    if hw > 0 {
                        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got_bits, want, "hw {hw}, {n}x{c} planes on {backend}");
                    }
                }
            }
        }
        // A plane of −0.0 pools to −0.0, as a sum from `−0.0` must.
        let mut got = [f32::NAN];
        global_avg_pool_into(&[-0.0; 40], 1, 1, 40, &mut got);
        assert_eq!(got[0].to_bits(), (-0.0f32).to_bits());
    }

    /// Sixteen short chains round less than one long one: on a seeded
    /// corpus, the pooled means are, in total and at worst, no further from
    /// the f64 mean than one sequential chain's.
    #[test]
    fn global_avg_pool_is_no_less_accurate_than_one_sequential_chain() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut lanes_total, mut chain_total, mut lanes_worst, mut chain_worst) = (0f64, 0f64, 0f64, 0f64);
        for _ in 0..400 {
            let hw = 1 + (next() % 2_048) as usize;
            let offset = (next() % 1_000) as f32;
            let plane: Vec<f32> =
                (0..hw).map(|_| offset + (next() >> 40) as f32 / (1u64 << 20) as f32 - 8.0).collect();
            let exact = plane.iter().map(|&v| f64::from(v)).sum::<f64>() / hw as f64;
            let mut pooled = [0.0];
            global_avg_pool_into(&plane, 1, 1, hw, &mut pooled);
            let chain = plane.iter().fold(-0.0f32, |acc, &v| acc + v) / hw as f32;
            let (lanes_err, chain_err) = ((f64::from(pooled[0]) - exact).abs(), (f64::from(chain) - exact).abs());
            lanes_total += lanes_err;
            chain_total += chain_err;
            lanes_worst = lanes_worst.max(lanes_err);
            chain_worst = chain_worst.max(chain_err);
        }
        assert!(lanes_total <= chain_total, "total error {lanes_total} vs one chain's {chain_total}");
        assert!(lanes_worst <= chain_worst, "worst error {lanes_worst} vs one chain's {chain_worst}");
    }

    #[test]
    fn global_avg_pool_means() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]).unwrap();
        let p = global_avg_pool(&t).unwrap();
        assert_eq!(p.shape(), &[1, 2, 1, 1]);
        assert_eq!(p.data(), &[4.0, 2.0]);
    }

    #[test]
    fn window_partition_round_trip() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32).cos()).collect(), &[2, 2, 4, 4]).unwrap();
        let tokens = window_partition(&t, 2).unwrap();
        assert_eq!(tokens.shape(), &[8, 4, 2]);
        let back = window_merge(&tokens, 2, 2, 4, 4, 2).unwrap();
        assert_eq!(back, t);
    }
}
