//! Bicubic resampling with the Keys kernel (a = −0.5) and edge clamping —
//! both the LR-generation pipeline (HR → ÷scale) and the paper's "Bicubic"
//! baseline row (LR → ×scale), and the full-precision global skip every
//! deployed model adds to its binary body.
//!
//! The separable kernel runs a horizontal pass, then a vertical one, and
//! both are the same row resample: an output row is the span-ordered sum
//! of whole source rows times their weights, so the inner loop walks
//! contiguous memory and vectorises. The horizontal pass gets rows to walk
//! by transposing the input first (and its result back). Each output
//! element still starts from `0.0` and adds `x · w` over its taps in span
//! order, one IEEE multiply and one add each (no `mul_add`) — exactly the
//! per-element loop the kernel used to be, so the two agree under
//! `to_bits` (`tests/kernels.rs` holds that loop as its reference).

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
    ///
    /// # Panics
    ///
    /// Panics when `in_extent` is zero and `out_extent` is not: an output
    /// needs at least one source sample to clamp onto. The resize entry
    /// points reject a zero-extent input with a typed error first.
    #[must_use]
    pub fn new(in_extent: usize, out_extent: usize) -> Self {
        assert!(in_extent > 0 || out_extent == 0, "bicubic taps need a source sample: {in_extent} -> {out_extent}");
        let scale = in_extent as f32 / out_extent as f32;
        let support = scale.max(1.0);
        // Each output reads the sources inside the kernel's open support,
        // 4·support wide: at most ⌈4·support⌉ of them.
        let mut taps = Vec::with_capacity(out_extent * (4.0 * support).ceil() as usize);
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
/// Returns an error for non-rank-3 input, an input with a zero extent, or
/// zero target extents.
pub fn resize_bicubic_tensor(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: input.rank(), op: "resize" });
    }
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::InvalidArgument("target extent must be positive".into()));
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    if h == 0 || w == 0 {
        return Err(TensorError::InvalidArgument(format!("cannot resample a {h}x{w} input")));
    }
    let xtaps = BicubicAxisTaps::new(w, out_w);
    // A square resize reads the same taps along both axes.
    let ytaps = ((h, out_h) != (w, out_w)).then(|| BicubicAxisTaps::new(h, out_h));
    let ytaps = ytaps.as_ref().unwrap_or(&xtaps);
    let mut out = Tensor::zeros(&[c, out_h, out_w]);
    resize_bicubic_into(input.data(), c, h, w, &xtaps, ytaps, &mut Vec::new(), out.data_mut())?;
    Ok(out)
}

/// The zero-allocation core of [`resize_bicubic_tensor`]: resample a flat
/// `[c, h, w]` volume into a caller-provided `[c, out_h, out_w]` buffer
/// (fully overwritten) through precomputed axis taps, staging the passes
/// in a reusable grow-only buffer of `c·h·(out_w + max(w, out_w))` floats.
/// Bit-identical to the allocating path.
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
    stage: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    let (out_h, out_w) = (ytaps.out_extent(), xtaps.out_extent());
    if input.len() != c * h * w {
        return Err(TensorError::LengthMismatch { expected: c * h * w, actual: input.len() });
    }
    if out.len() != c * out_h * out_w {
        return Err(TensorError::LengthMismatch { expected: c * out_h * out_w, actual: out.len() });
    }
    let stage = scales_tensor::workspace::sized(stage, c * h * (out_w + w.max(out_w)));
    resize_bicubic_passes(input, c, h, w, xtaps, ytaps, stage, out);
    Ok(())
}

/// The separable resample kernel. The horizontal pass resamples the
/// rows of the input's transpose — `[c, h, w]` read as a `(c·h) × w`
/// matrix, so its `w` rows are input columns across every plane at once
/// — and transposes its `[out_w, c·h]` result back to `[c, h, out_w]`;
/// the vertical pass resamples each plane's rows straight into `out`.
/// `stage` holds the horizontal result and, one after the other, the two
/// transposes.
///
/// Loop order is the only change from the per-element loop: every output
/// element is still `acc = 0.0`, then `acc += x_k · w_k` over its span in
/// order, each product rounded before its add (Rust never contracts
/// `a * b + c` into an FMA, and no `mul_add` is written), in each pass.
/// One element's sequence of roundings is unchanged, so its bits are too —
/// NaN, infinities, `−0.0` and subnormals included.
#[allow(clippy::too_many_arguments)]
fn resize_bicubic_passes(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    xtaps: &BicubicAxisTaps,
    ytaps: &BicubicAxisTaps,
    stage: &mut [f32],
    out: &mut [f32],
) {
    let (out_h, out_w) = (ytaps.out_extent(), xtaps.out_extent());
    // The input's transpose is dead once the horizontal pass has read it,
    // so the result's transpose back takes its place.
    let (wide_columns, reused) = stage.split_at_mut(c * h * out_w);
    let columns = &mut reused[..c * h * w];
    transpose(input, c * h, w, columns);
    resample_rows(columns, c * h, xtaps, wide_columns);
    let wide = &mut reused[..c * h * out_w];
    transpose(wide_columns, out_w, c * h, wide);
    for ci in 0..c {
        let plane = &wide[ci * h * out_w..(ci + 1) * h * out_w];
        resample_rows(plane, out_w, ytaps, &mut out[ci * out_h * out_w..(ci + 1) * out_h * out_w]);
    }
}

/// `dst` (`[rows, cols]` → `[cols, rows]`) = the transpose of `src`.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for r in 0..rows {
        for (col, &v) in src[r * cols..(r + 1) * cols].iter().enumerate() {
            dst[col * rows + r] = v;
        }
    }
}

/// Output row `o` of `dst` (rows of `len`) = Σ over `o`'s taps of source
/// row `index` of `src` times `weight`, folded into the row from `0.0`
/// in span order, up to four taps per sweep over the row. Every output
/// has a tap (its nearest source weighs `cubic_kernel(x ≤ 0.5) > 0`), so
/// every row is written.
fn resample_rows(src: &[f32], len: usize, taps: &BicubicAxisTaps, dst: &mut [f32]) {
    for o in 0..taps.out_extent() {
        let row = &mut dst[o * len..(o + 1) * len];
        for (i, chunk) in taps.taps_for(o).chunks(4).enumerate() {
            let first = i == 0;
            match *chunk {
                [a, b, c, d] => fold(row, src, [a, b, c, d], first),
                [a, b, c] => fold(row, src, [a, b, c], first),
                [a, b] => fold(row, src, [a, b], first),
                [a] => fold(row, src, [a], first),
                _ => unreachable!("chunks(4) yields 1 to 4 taps"),
            }
        }
    }
}

/// `row[j] += src_row_k[j] · w_k` for the `N` taps in order, every element
/// carried through all `N` adds in a register.
#[inline(always)]
fn fold<const N: usize>(row: &mut [f32], src: &[f32], taps: [(usize, f32); N], first: bool) {
    let len = row.len();
    let lines = taps.map(|(index, _)| &src[index * len..][..len]);
    for (j, out) in row.iter_mut().enumerate() {
        let mut acc = if first { 0.0 } else { *out };
        for (line, &(_, weight)) in lines.iter().zip(&taps) {
            acc += line[j] * weight;
        }
        *out = acc;
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
/// Returns an error for a zero factor, or one whose output extents
/// overflow `usize`.
pub fn upscale(image: &Image, scale: usize) -> Result<Image> {
    if scale == 0 {
        return Err(TensorError::InvalidArgument("scale must be positive".into()));
    }
    let (h, w) = (image.height(), image.width());
    match (h.checked_mul(scale), w.checked_mul(scale)) {
        (Some(out_h), Some(out_w)) => resize_bicubic(image, out_h, out_w),
        _ => Err(TensorError::InvalidArgument(format!("{h}x{w} upscaled by {scale} overflows"))),
    }
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

    #[test]
    fn an_upscale_whose_extents_overflow_is_a_typed_error() {
        // 3 · (usize::MAX / 3 + 2) wraps to 5 without the checked product.
        let img = Image::zeros(3, 3);
        for scale in [usize::MAX / 3 + 2, usize::MAX] {
            assert!(matches!(upscale(&img, scale), Err(TensorError::InvalidArgument(_))), "scale {scale}");
        }
        let wide = Image::from_tensor(Tensor::zeros(&[3, 1, 3])).unwrap();
        assert!(matches!(upscale(&wide, usize::MAX / 2), Err(TensorError::InvalidArgument(_))));
    }

    #[test]
    fn a_zero_extent_input_is_a_typed_error() {
        for shape in [[3, 0, 4], [3, 4, 0], [1, 0, 0]] {
            let input = Tensor::zeros(&shape);
            assert!(
                matches!(resize_bicubic_tensor(&input, 2, 2), Err(TensorError::InvalidArgument(_))),
                "{shape:?}"
            );
        }
        let empty = Image::from_tensor(Tensor::zeros(&[3, 0, 4])).unwrap();
        assert!(matches!(resize_bicubic(&empty, 2, 2), Err(TensorError::InvalidArgument(_))));
        assert!(matches!(upscale(&empty, 2), Err(TensorError::InvalidArgument(_))));
    }

    #[test]
    fn axis_taps_for_an_empty_output_need_no_source() {
        assert_eq!(BicubicAxisTaps::new(0, 0).out_extent(), 0);
        assert_eq!(BicubicAxisTaps::new(5, 0).out_extent(), 0);
    }

    #[test]
    #[should_panic(expected = "bicubic taps need a source sample")]
    fn axis_taps_without_a_source_sample_panic_with_their_precondition() {
        let _ = BicubicAxisTaps::new(0, 2);
    }
}
