//! Image-layout operations: pixel shuffle (sub-pixel upsampling used by SR
//! tails), global average pooling, and windows partitioning for Swin-style
//! attention.

use crate::error::{Result, TensorError};
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
/// `[n, c, hw]` volume into a caller-provided `n · c` buffer. One home
/// for the summation order, so the allocating op and the zero-allocation
/// deployment kernels that pool into scratch can never drift apart
/// bitwise.
///
/// # Panics
///
/// Panics (in debug builds via slice indexing) when the buffers are
/// shorter than the extents imply.
pub fn global_avg_pool_into(input: &[f32], n: usize, c: usize, hw: usize, out: &mut [f32]) {
    // Each plane's sum is one sequential chain of adds — that order is the
    // bit contract — so `SIDE` planes advance side by side and overlap
    // their add latencies instead of waiting on one chain at a time.
    const SIDE: usize = 8;
    // The neutral element `Iterator::sum` starts from, whatever std uses.
    let zero: f32 = std::iter::empty::<f32>().sum();
    let planes = n * c;
    let mut first = 0;
    while first + SIDE <= planes {
        let rows: [&[f32]; SIDE] =
            std::array::from_fn(|i| &input[(first + i) * hw..(first + i + 1) * hw]);
        let mut acc = [zero; SIDE];
        for p in 0..hw {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += row[p];
            }
        }
        for (o, a) in out[first..first + SIDE].iter_mut().zip(acc) {
            *o = a / hw as f32;
        }
        first += SIDE;
    }
    for plane in first..planes {
        let s: f32 = input[plane * hw..(plane + 1) * hw].iter().sum();
        out[plane] = s / hw as f32;
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

    #[test]
    fn global_avg_pool_keeps_each_planes_sequential_sum() {
        // 19 planes: two side-by-side groups and a tail; values whose sum
        // depends on the order they are added in.
        let (planes, hw) = (19usize, 37usize);
        let data: Vec<f32> = (0..planes * hw).map(|i| ((i as f32) * 0.61).sin() * 1e3 + 1e-3).collect();
        let mut got = vec![f32::NAN; planes];
        global_avg_pool_into(&data, 1, planes, hw, &mut got);
        for (plane, g) in got.iter().enumerate() {
            let want = data[plane * hw..(plane + 1) * hw].iter().sum::<f32>() / hw as f32;
            assert_eq!(g.to_bits(), want.to_bits(), "plane {plane}");
        }
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
