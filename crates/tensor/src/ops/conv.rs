//! Convolution kernels: the im2col → GEMM 2-D convolution [`conv2d`] with
//! the gradient kernels reverse-mode autodiff needs (the training tape),
//! the deployed path's [`conv2d_into`] — the same convolution, bit for
//! bit, run by the direct kernel in [`direct`] — and the
//! 1-D convolution used by the SCALES channel re-scaling module.

use crate::error::{Result, TensorError};
use crate::ops::direct::{self, Geometry, Job};
use crate::ops::matmul::gemm;
use crate::simd::SimdLevel;
use crate::tensor::Tensor;

/// Static hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Spatial stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Self { stride: 1, padding: 0 }
    }
}

impl Conv2dSpec {
    /// Spec with stride 1 and "same" padding for an odd kernel size.
    #[must_use]
    pub fn same(kernel: usize) -> Self {
        Self { stride: 1, padding: kernel / 2 }
    }

    /// Output spatial extent for an input extent and kernel size.
    ///
    /// # Errors
    ///
    /// Returns an error when the kernel does not fit in the padded input or
    /// the stride is zero.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Result<usize> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be positive".into()));
        }
        let padded = input + 2 * self.padding;
        if kernel == 0 || kernel > padded {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {kernel} does not fit padded extent {padded}"
            )));
        }
        Ok((padded - kernel) / self.stride + 1)
    }
}

/// Unfold one `[C, H, W]` image into an im2col matrix
/// `[C·kh·kw, oh·ow]`, zero-padding out-of-range taps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    debug_assert_eq!(col.len(), c * kh * kw * oh * ow);
    let pad = spec.padding as isize;
    let stride = spec.stride as isize;
    let mut row = 0usize;
    for ci in 0..c {
        let plane = &img[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let dst = &mut col[row * oh * ow..(row + 1) * oh * ow];
                row += 1;
                for oy in 0..oh {
                    let iy = oy as isize * stride - pad + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        for v in &mut dst[oy * ow..(oy + 1) * ow] {
                            *v = 0.0;
                        }
                        continue;
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = ox as isize * stride - pad + kx as isize;
                        dst[oy * ow + ox] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            src_row[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Fold an im2col matrix back into an image, accumulating overlapping taps.
/// This is the adjoint of [`im2col`] and implements the input-gradient pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im(
    col: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    img: &mut [f32],
) {
    let pad = spec.padding as isize;
    let stride = spec.stride as isize;
    let mut row = 0usize;
    for ci in 0..c {
        let plane = &mut img[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let src = &col[row * oh * ow..(row + 1) * oh * ow];
                row += 1;
                for oy in 0..oh {
                    let iy = oy as isize * stride - pad + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = ox as isize * stride - pad + kx as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        plane[iy as usize * w + ix as usize] += src[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// `(n, ic, h, w, oc, kh, oh, ow)` of a validated convolution.
type ConvDims = (usize, usize, usize, usize, usize, usize, usize, usize);

fn conv_dims(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<ConvDims> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "conv2d input" });
    }
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: weight.rank(), op: "conv2d weight" });
    }
    let (n, ic, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    let (oc, wic, kh, kw) = (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
    if ic != wic {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: weight.shape().to_vec(),
            op: "conv2d channels",
        });
    }
    let oh = spec.out_extent(h, kh)?;
    let ow = spec.out_extent(w, kw)?;
    Ok((n, ic, h, w, oc, kh, oh, ow))
}

/// 2-D convolution (cross-correlation, as in deep-learning frameworks):
/// `[N,IC,H,W] ⋆ [OC,IC,kh,kw] → [N,OC,OH,OW]`.
///
/// # Errors
///
/// Returns an error for wrong ranks, mismatched channel counts, or a kernel
/// that does not fit the padded input.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let (n, ic, h, w, oc, kh, oh, ow) = conv_dims(input, weight, spec)?;
    let kw = weight.shape()[3];
    let krows = ic * kh * kw;
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let mut col = vec![0.0f32; krows * oh * ow];
    for b in 0..n {
        im2col(&input.data()[b * ic * h * w..(b + 1) * ic * h * w], ic, h, w, kh, kw, spec, oh, ow, &mut col);
        gemm(
            weight.data(),
            &col,
            &mut out.data_mut()[b * oc * oh * ow..(b + 1) * oc * oh * ow],
            oc,
            krows,
            oh * ow,
        );
    }
    Ok(out)
}

/// The zero-allocation deployed convolution: convolve a flat
/// `[n, c, h, w]` input into a caller-provided output buffer with the
/// direct kernel ([`direct`]) at the active backend's
/// [`SimdLevel`] — no im2col matrix and no GEMM. `planes` is the reusable
/// grow-only scratch holding one image's zero-padded input planes
/// (`c · (h + 2p) · (w + 2p)` floats; untouched when `padding` is 0).
///
/// `out` must hold exactly `n · oc · oh · ow` elements and is fully
/// overwritten. Results are bit-identical to [`conv2d`] on every backend
/// and level: each output element takes the same products in the same
/// order as its im2col → GEMM row (see the [`direct`] docs).
///
/// # Errors
///
/// Returns an error for the same geometry violations as [`conv2d`], plus
/// mismatched `input`/`out` lengths.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    spec: Conv2dSpec,
    planes: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    let level = crate::backend::kernel().simd_level();
    conv2d_into_at(level, input, n, c, h, w, weight, None, spec, planes, out)
}

/// [`conv2d_into`] with a per-output-channel `bias` added in the store
/// (`v = acc; v += bias[oc]`, as a separate pass would) and the kernel
/// compiled for `level` (clamped to what the CPU offers, so any level is
/// safe to ask for) — how tests and benches compare the levels in one
/// process.
///
/// # Errors
///
/// As [`conv2d_into`], plus a `bias` that is not one value per output
/// channel.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into_at(
    level: SimdLevel,
    input: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: Option<&[f32]>,
    spec: Conv2dSpec,
    planes: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<()> {
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: weight.rank(), op: "conv2d weight" });
    }
    let (oc, wic, kh, kw) =
        (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
    if c != wic {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![n, c, h, w],
            rhs: weight.shape().to_vec(),
            op: "conv2d channels",
        });
    }
    let oh = spec.out_extent(h, kh)?;
    let ow = spec.out_extent(w, kw)?;
    if input.len() != n * c * h * w {
        return Err(TensorError::LengthMismatch { expected: n * c * h * w, actual: input.len() });
    }
    if out.len() != n * oc * oh * ow {
        return Err(TensorError::LengthMismatch { expected: n * oc * oh * ow, actual: out.len() });
    }
    if let Some(bias) = bias {
        if bias.len() != oc {
            return Err(TensorError::LengthMismatch { expected: oc, actual: bias.len() });
        }
    }
    let g = Geometry { ic: c, h, w, kh, kw, spec, oh, ow };
    let padded = crate::workspace::sized(planes, g.scratch_len());
    for (image, out) in input.chunks(c * h * w).zip(out.chunks_mut(oc * oh * ow)) {
        let planes = if spec.padding == 0 {
            image
        } else {
            direct::pad_image(&g, image, padded);
            &*padded
        };
        direct::conv(level, &Job { g: &g, planes, weights: weight.data(), bias }, out);
    }
    Ok(())
}

/// Gradient of [`conv2d`] with respect to its input.
///
/// # Errors
///
/// Propagates shape errors from the forward spec.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, ic, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    let (oc, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let krows = ic * kh * kw;
    // w^T : [krows, oc]
    let wt = weight.reshape(&[oc, krows])?.transpose()?;
    let mut grad_in = Tensor::zeros(input_shape);
    let mut col = vec![0.0f32; krows * oh * ow];
    for b in 0..n {
        col.iter_mut().for_each(|v| *v = 0.0);
        gemm(
            wt.data(),
            &grad_out.data()[b * oc * oh * ow..(b + 1) * oc * oh * ow],
            &mut col,
            krows,
            oc,
            oh * ow,
        );
        col2im(
            &col,
            ic,
            h,
            w,
            kh,
            kw,
            spec,
            oh,
            ow,
            &mut grad_in.data_mut()[b * ic * h * w..(b + 1) * ic * h * w],
        );
    }
    Ok(grad_in)
}

/// Gradient of [`conv2d`] with respect to its weight.
///
/// # Errors
///
/// Propagates shape errors from the forward spec.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, ic, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    let (oc, kh, kw) = (weight_shape[0], weight_shape[2], weight_shape[3]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let krows = ic * kh * kw;
    let mut grad_w = Tensor::zeros(weight_shape);
    let mut col = vec![0.0f32; krows * oh * ow];
    let mut col_t = vec![0.0f32; krows * oh * ow];
    for b in 0..n {
        im2col(&input.data()[b * ic * h * w..(b + 1) * ic * h * w], ic, h, w, kh, kw, spec, oh, ow, &mut col);
        // transpose col -> [oh*ow, krows]
        for r in 0..krows {
            for c in 0..oh * ow {
                col_t[c * krows + r] = col[r * oh * ow + c];
            }
        }
        gemm(
            &grad_out.data()[b * oc * oh * ow..(b + 1) * oc * oh * ow],
            &col_t,
            grad_w.data_mut(),
            oc,
            oh * ow,
            krows,
        );
    }
    Ok(grad_w)
}

/// 1-D convolution `[N,IC,L] ⋆ [OC,IC,k] → [N,OC,L']` with zero padding.
///
/// Used by the channel re-scaling module (`k = 5`, `padding = 2`, so the
/// channel axis length is preserved).
///
/// # Errors
///
/// Returns an error for wrong ranks or an unsatisfiable kernel size.
pub fn conv1d(input: &Tensor, weight: &Tensor, padding: usize) -> Result<Tensor> {
    if input.rank() != 3 || weight.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: if input.rank() != 3 { input.rank() } else { weight.rank() },
            op: "conv1d",
        });
    }
    let (n, ic, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (oc, wic, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    if ic != wic {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: weight.shape().to_vec(),
            op: "conv1d channels",
        });
    }
    let spec = Conv2dSpec { stride: 1, padding };
    let ol = spec.out_extent(l, k)?;
    let mut out = Tensor::zeros(&[n, oc, ol]);
    for b in 0..n {
        for o in 0..oc {
            for t in 0..ol {
                let mut acc = 0.0;
                for ci in 0..ic {
                    for ki in 0..k {
                        let pos = t as isize + ki as isize - padding as isize;
                        if pos < 0 || pos >= l as isize {
                            continue;
                        }
                        acc += input.data()[b * ic * l + ci * l + pos as usize]
                            * weight.data()[o * ic * k + ci * k + ki];
                    }
                }
                out.data_mut()[b * oc * ol + o * ol + t] = acc;
            }
        }
    }
    Ok(out)
}

/// Gradient of [`conv1d`] with respect to its input.
///
/// # Errors
///
/// Propagates shape errors.
pub fn conv1d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    padding: usize,
) -> Result<Tensor> {
    let (n, ic, l) = (input_shape[0], input_shape[1], input_shape[2]);
    let (oc, k) = (weight.shape()[0], weight.shape()[2]);
    let ol = grad_out.shape()[2];
    let mut grad_in = Tensor::zeros(input_shape);
    for b in 0..n {
        for o in 0..oc {
            for t in 0..ol {
                let g = grad_out.data()[b * oc * ol + o * ol + t];
                if g == 0.0 {
                    continue;
                }
                for ci in 0..ic {
                    for ki in 0..k {
                        let pos = t as isize + ki as isize - padding as isize;
                        if pos < 0 || pos >= l as isize {
                            continue;
                        }
                        grad_in.data_mut()[b * ic * l + ci * l + pos as usize] +=
                            g * weight.data()[o * ic * k + ci * k + ki];
                    }
                }
            }
        }
    }
    Ok(grad_in)
}

/// Gradient of [`conv1d`] with respect to its weight.
///
/// # Errors
///
/// Propagates shape errors.
pub fn conv1d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    padding: usize,
) -> Result<Tensor> {
    let (n, ic, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (oc, k) = (weight_shape[0], weight_shape[2]);
    let ol = grad_out.shape()[2];
    let mut grad_w = Tensor::zeros(weight_shape);
    for b in 0..n {
        for o in 0..oc {
            for t in 0..ol {
                let g = grad_out.data()[b * oc * ol + o * ol + t];
                if g == 0.0 {
                    continue;
                }
                for ci in 0..ic {
                    for ki in 0..k {
                        let pos = t as isize + ki as isize - padding as isize;
                        if pos < 0 || pos >= l as isize {
                            continue;
                        }
                        grad_w.data_mut()[o * ic * k + ci * k + ki] +=
                            g * input.data()[b * ic * l + ci * l + pos as usize];
                    }
                }
            }
        }
    }
    Ok(grad_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_conv2d(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, ic, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oc, _, kh, kw) = (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        let oh = spec.out_extent(h, kh).unwrap();
        let ow = spec.out_extent(w, kw).unwrap();
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for b in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..ic {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[b, ci, iy as usize, ix as usize])
                                        * weight.at(&[o, ci, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[b, o, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    fn arange(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|i| (i as f32 * 0.17).sin()).collect(), shape).unwrap()
    }

    #[test]
    fn conv2d_matches_reference() {
        for &(stride, padding) in &[(1, 0), (1, 1), (2, 1)] {
            let spec = Conv2dSpec { stride, padding };
            let input = arange(&[2, 3, 6, 5]);
            let weight = arange(&[4, 3, 3, 3]);
            let fast = conv2d(&input, &weight, spec).unwrap();
            let slow = reference_conv2d(&input, &weight, spec);
            assert_eq!(fast.shape(), slow.shape());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn conv2d_into_is_bit_identical_to_conv2d_with_reused_scratch() {
        let mut col = Vec::new();
        for &(n, stride, padding) in &[(1usize, 1usize, 1usize), (3, 1, 1), (2, 2, 1), (2, 1, 0)] {
            let spec = Conv2dSpec { stride, padding };
            let input = arange(&[n, 3, 6, 5]);
            let weight = arange(&[4, 3, 3, 3]);
            let want = conv2d(&input, &weight, spec).unwrap();
            let mut out = vec![f32::NAN; want.len()]; // must be fully overwritten
            conv2d_into(input.data(), n, 3, 6, 5, &weight, spec, &mut col, &mut out).unwrap();
            for (a, b) in want.data().iter().zip(out.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} spec={spec:?}");
            }
        }
        // Geometry violations are typed errors, not panics.
        let weight = arange(&[4, 3, 3, 3]);
        let mut out = vec![0.0; 4 * 6 * 5];
        assert!(conv2d_into(&[0.0; 10], 1, 3, 6, 5, &weight, Conv2dSpec::same(3), &mut col, &mut out)
            .is_err());
        assert!(conv2d_into(
            arange(&[1, 2, 6, 5]).data(),
            1,
            2,
            6,
            5,
            &weight,
            Conv2dSpec::same(3),
            &mut col,
            &mut out
        )
        .is_err());
    }

    #[test]
    fn conv2d_gradients_match_numeric() {
        let spec = Conv2dSpec::same(3);
        let input = arange(&[1, 2, 4, 4]);
        let weight = arange(&[2, 2, 3, 3]);
        let out = conv2d(&input, &weight, spec).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let gi = conv2d_backward_input(&grad_out, &weight, input.shape(), spec).unwrap();
        let gw = conv2d_backward_weight(&grad_out, &input, weight.shape(), spec).unwrap();
        let eps = 1e-2;
        // Numeric check on a few coordinates.
        for &idx in &[0usize, 7, 15] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (conv2d(&ip, &weight, spec).unwrap().sum()
                - conv2d(&im, &weight, spec).unwrap().sum())
                / (2.0 * eps);
            assert!((gi.data()[idx] - num).abs() < 1e-2, "input grad {idx}: {} vs {num}", gi.data()[idx]);
        }
        for &idx in &[0usize, 9, 17] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (conv2d(&input, &wp, spec).unwrap().sum()
                - conv2d(&input, &wm, spec).unwrap().sum())
                / (2.0 * eps);
            assert!((gw.data()[idx] - num).abs() < 1e-2, "weight grad {idx}: {} vs {num}", gw.data()[idx]);
        }
    }

    #[test]
    fn conv1d_preserves_length_with_same_padding() {
        let input = arange(&[2, 1, 8]);
        let weight = arange(&[1, 1, 5]);
        let out = conv1d(&input, &weight, 2).unwrap();
        assert_eq!(out.shape(), &[2, 1, 8]);
    }

    #[test]
    fn conv1d_gradients_match_numeric() {
        let input = arange(&[1, 1, 6]);
        let weight = arange(&[1, 1, 5]);
        let out = conv1d(&input, &weight, 2).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let gi = conv1d_backward_input(&grad_out, &weight, input.shape(), 2).unwrap();
        let gw = conv1d_backward_weight(&grad_out, &input, weight.shape(), 2).unwrap();
        let eps = 1e-2;
        for idx in 0..input.len() {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (conv1d(&ip, &weight, 2).unwrap().sum() - conv1d(&im, &weight, 2).unwrap().sum()) / (2.0 * eps);
            assert!((gi.data()[idx] - num).abs() < 1e-2);
        }
        for idx in 0..weight.len() {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (conv1d(&input, &wp, 2).unwrap().sum() - conv1d(&input, &wm, 2).unwrap().sum()) / (2.0 * eps);
            assert!((gw.data()[idx] - num).abs() < 1e-2);
        }
    }

    #[test]
    fn out_extent_validates() {
        let spec = Conv2dSpec { stride: 0, padding: 0 };
        assert!(spec.out_extent(4, 3).is_err());
        let spec = Conv2dSpec { stride: 1, padding: 0 };
        assert!(spec.out_extent(2, 5).is_err());
        assert_eq!(spec.out_extent(5, 3).unwrap(), 3);
    }
}
