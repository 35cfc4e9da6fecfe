//! Bicubic resampling with the Keys kernel (a = −0.5) and edge clamping —
//! both the LR-generation pipeline (HR → ÷scale) and the paper's "Bicubic"
//! baseline row (LR → ×scale).

use crate::image::Image;
use scales_tensor::{Result, Tensor, TensorError};

/// The Keys cubic convolution kernel with a = −0.5 (the classic "bicubic").
#[must_use]
pub fn cubic_kernel(x: f32) -> f32 {
    const A: f32 = -0.5;
    let x = x.abs();
    if x < 1.0 {
        (A + 2.0) * x * x * x - (A + 3.0) * x * x + 1.0
    } else if x < 2.0 {
        A * x * x * x - 5.0 * A * x * x + 8.0 * A * x - 4.0 * A
    } else {
        0.0
    }
}

/// Precomputed, normalized bicubic filter taps for one axis — the
/// `(source index, weight)` pairs each output coordinate reads.
///
/// Building taps once per `(in, out)` extent pair (instead of per call)
/// is what lets the planned deployment executor run the bicubic global
/// skip with zero per-request allocation; [`resize_bicubic_tensor`] uses
/// the same construction, so both paths are bit-identical.
pub struct BicubicAxisTaps {
    /// `(source index, normalized weight)` pairs, flattened.
    taps: Vec<(usize, f32)>,
    /// Per output coordinate: half-open range into `taps`.
    spans: Vec<(usize, usize)>,
}

impl BicubicAxisTaps {
    /// Taps mapping `in_extent` source samples onto `out_extent` outputs
    /// under the align-corners-false pixel model
    /// (`src = (dst + 0.5)·scale − 0.5`), with clamped edges and PIL-style
    /// widened support (anti-aliasing) when downscaling.
    #[must_use]
    pub fn new(in_extent: usize, out_extent: usize) -> Self {
        let scale = in_extent as f32 / out_extent as f32;
        let support = scale.max(1.0);
        let mut taps = Vec::new();
        let mut spans = Vec::with_capacity(out_extent);
        for o in 0..out_extent {
            let src = (o as f32 + 0.5) * scale - 0.5;
            let lo = (src - 2.0 * support).floor() as isize;
            let hi = (src + 2.0 * support).ceil() as isize;
            let start = taps.len();
            let mut norm = 0.0;
            for i in lo..=hi {
                let wgt = cubic_kernel((i as f32 - src) / support);
                if wgt != 0.0 {
                    let idx = i.clamp(0, in_extent as isize - 1) as usize;
                    taps.push((idx, wgt));
                    norm += wgt;
                }
            }
            for (_, wgt) in &mut taps[start..] {
                *wgt /= norm;
            }
            spans.push((start, taps.len()));
        }
        Self { taps, spans }
    }

    /// Number of output coordinates.
    #[must_use]
    pub fn out_extent(&self) -> usize {
        self.spans.len()
    }

    /// Bytes the tap tables hold on the heap, by allocated capacity.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.taps.capacity() * std::mem::size_of::<(usize, f32)>()
            + self.spans.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// The `(source index, weight)` taps of output coordinate `o`.
    ///
    /// # Panics
    ///
    /// Panics when `o` is out of range.
    #[must_use]
    pub fn taps_for(&self, o: usize) -> &[(usize, f32)] {
        let (start, end) = self.spans[o];
        &self.taps[start..end]
    }
}

/// Resize one `[C, H, W]` tensor to `(out_h, out_w)` with separable bicubic
/// interpolation and clamped edges. Uses the align-corners-false pixel
/// model (`src = (dst + 0.5)·scale − 0.5`) like PIL/PyTorch.
///
/// # Errors
///
/// Returns an error for non-rank-3 input or zero target extents.
pub fn resize_bicubic_tensor(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: input.rank(), op: "resize" });
    }
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::InvalidArgument("target extent must be positive".into()));
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let xtaps = BicubicAxisTaps::new(w, out_w);
    let ytaps = BicubicAxisTaps::new(h, out_h);
    let mut tmp = vec![0.0f32; c * h * out_w];
    let mut out = Tensor::zeros(&[c, out_h, out_w]);
    resize_bicubic_passes(input.data(), c, h, w, &xtaps, &ytaps, &mut tmp, out.data_mut());
    Ok(out)
}

/// The zero-allocation core of [`resize_bicubic_tensor`]: resample a flat
/// `[c, h, w]` volume into a caller-provided `[c, out_h, out_w]` buffer
/// (fully overwritten) through precomputed axis taps, staging the
/// horizontal pass in a reusable grow-only buffer. Bit-identical to the
/// allocating path.
///
/// # Errors
///
/// Returns an error for mismatched input/output lengths.
#[allow(clippy::too_many_arguments)]
pub fn resize_bicubic_into(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    xtaps: &BicubicAxisTaps,
    ytaps: &BicubicAxisTaps,
    tmp: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    let (out_h, out_w) = (ytaps.out_extent(), xtaps.out_extent());
    if input.len() != c * h * w {
        return Err(TensorError::LengthMismatch { expected: c * h * w, actual: input.len() });
    }
    if out.len() != c * out_h * out_w {
        return Err(TensorError::LengthMismatch { expected: c * out_h * out_w, actual: out.len() });
    }
    let tmpbuf = scales_tensor::workspace::sized(tmp, c * h * out_w);
    resize_bicubic_passes(input, c, h, w, xtaps, ytaps, tmpbuf, out);
    Ok(())
}

/// Shared separable-resample kernel: horizontal pass into `tmp`
/// (`[c, h, out_w]`), vertical pass into `out` (`[c, out_h, out_w]`).
/// Each output element accumulates its taps in span order.
#[allow(clippy::too_many_arguments)]
fn resize_bicubic_passes(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    xtaps: &BicubicAxisTaps,
    ytaps: &BicubicAxisTaps,
    tmp: &mut [f32],
    out: &mut [f32],
) {
    let (out_h, out_w) = (ytaps.out_extent(), xtaps.out_extent());
    for ox in 0..out_w {
        let taps = xtaps.taps_for(ox);
        for ci in 0..c {
            for y in 0..h {
                let row = &input[(ci * h + y) * w..(ci * h + y + 1) * w];
                let mut acc = 0.0;
                for &(xi, wgt) in taps {
                    acc += row[xi] * wgt;
                }
                tmp[(ci * h + y) * out_w + ox] = acc;
            }
        }
    }
    for oy in 0..out_h {
        let taps = ytaps.taps_for(oy);
        for ci in 0..c {
            for ox in 0..out_w {
                let mut acc = 0.0;
                for &(yi, wgt) in taps {
                    acc += tmp[(ci * h + yi) * out_w + ox] * wgt;
                }
                out[(ci * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
}

/// Bicubic-resize an [`Image`].
///
/// # Errors
///
/// See [`resize_bicubic_tensor`].
pub fn resize_bicubic(image: &Image, out_h: usize, out_w: usize) -> Result<Image> {
    Image::from_tensor(resize_bicubic_tensor(image.tensor(), out_h, out_w)?)
}

/// Downscale an HR image by an integer factor — the standard LR-generation
/// protocol for SR benchmarks.
///
/// # Errors
///
/// Returns an error when the extents are not divisible by `scale`.
pub fn downscale(image: &Image, scale: usize) -> Result<Image> {
    if scale == 0 || !image.height().is_multiple_of(scale) || !image.width().is_multiple_of(scale) {
        return Err(TensorError::InvalidArgument(format!(
            "extents {}x{} not divisible by scale {scale}",
            image.height(),
            image.width()
        )));
    }
    resize_bicubic(image, image.height() / scale, image.width() / scale)
}

/// Upscale an LR image by an integer factor (the Bicubic baseline row).
///
/// # Errors
///
/// Returns an error for a zero factor.
pub fn upscale(image: &Image, scale: usize) -> Result<Image> {
    if scale == 0 {
        return Err(TensorError::InvalidArgument("scale must be positive".into()));
    }
    resize_bicubic(image, image.height() * scale, image.width() * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_partition_of_unity_at_integers() {
        // Σ_k k(x − k) = 1 for the Keys kernel at any phase.
        for phase in [0.0f32, 0.25, 0.5, 0.9] {
            let s: f32 = (-3..=3).map(|k| cubic_kernel(phase - k as f32)).sum();
            assert!((s - 1.0).abs() < 1e-5, "phase {phase}: {s}");
        }
    }

    #[test]
    fn constant_image_is_invariant() {
        let img = Image::from_tensor(Tensor::full(&[3, 8, 8], 0.6)).unwrap();
        let up = upscale(&img, 2).unwrap();
        for &v in up.tensor().data() {
            assert!((v - 0.6).abs() < 1e-4);
        }
        let down = downscale(&img, 2).unwrap();
        for &v in down.tensor().data() {
            assert!((v - 0.6).abs() < 1e-4);
        }
    }

    #[test]
    fn down_then_up_approximates_smooth_image() {
        // A smooth gradient survives a ÷2 → ×2 round trip closely.
        let mut img = Image::zeros(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                for c in 0..3 {
                    *img.pixel_mut(c, y, x) = (x as f32) / 16.0 * 0.8 + 0.1;
                }
            }
        }
        let rt = upscale(&downscale(&img, 2).unwrap(), 2).unwrap();
        let mut err = 0.0;
        for (a, b) in img.tensor().data().iter().zip(rt.tensor().data().iter()) {
            err += (a - b).abs();
        }
        err /= img.tensor().len() as f32;
        assert!(err < 0.02, "mean abs err {err}");
    }

    #[test]
    fn resize_into_is_bit_identical_with_stale_scratch() {
        let input = Tensor::from_vec(
            (0..3 * 9 * 7).map(|i| ((i as f32) * 0.23).sin() * 0.4 + 0.5).collect(),
            &[3, 9, 7],
        )
        .unwrap();
        let want = resize_bicubic_tensor(&input, 18, 14).unwrap();
        let xtaps = BicubicAxisTaps::new(7, 14);
        let ytaps = BicubicAxisTaps::new(9, 18);
        // Pre-dirtied scratch: reuse must not leak stale values.
        let mut tmp = vec![f32::NAN; 1000];
        let mut out = vec![f32::NAN; 3 * 18 * 14];
        resize_bicubic_into(input.data(), 3, 9, 7, &xtaps, &ytaps, &mut tmp, &mut out).unwrap();
        for (a, b) in want.data().iter().zip(out.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Length mismatches are typed errors.
        assert!(resize_bicubic_into(&[0.0; 5], 3, 9, 7, &xtaps, &ytaps, &mut tmp, &mut out).is_err());
        assert!(resize_bicubic_into(input.data(), 3, 9, 7, &xtaps, &ytaps, &mut tmp, &mut [0.0; 4])
            .is_err());
    }

    #[test]
    fn shapes_match_request() {
        let img = Image::zeros(12, 20);
        let r = resize_bicubic(&img, 7, 9).unwrap();
        assert_eq!((r.height(), r.width()), (7, 9));
    }

    #[test]
    fn rejects_bad_arguments() {
        let img = Image::zeros(9, 9);
        assert!(downscale(&img, 2).is_err());
        assert!(upscale(&img, 0).is_err());
    }
}
