//! Deployment: fold trained binary layers into the bit-packed
//! XNOR-popcount inference path.
//!
//! [`DeployedScalesConv2d`] lowers a single [`ScalesConv2d`] — or a
//! [`ScalesLinear`], which is the same layer with a 1×1 kernel;
//! [`DeployedBodyConv`] lowers *any* [`BodyConv`] method variant (FP,
//! E2FIF, BTM, BAM, BiBERT-style, SCALES) and any [`BodyLinear`], which is
//! what whole-network lowering in `scales-models` builds on.
//!
//! This is the Larq role in the paper's Table VI: after training, the
//! latent FP weights are sign-packed once, the weight scale `s_c` and the
//! learned layer scale `α` fold into the per-channel output scale, the
//! channel threshold `β` folds into an input shift (since
//! `sign((x−β)/α) = sign(x−β)` for `α > 0`), and only the two small
//! re-scaling branches plus the skip run in floating point.
//!
//! A transformer's per-token linear over `[B, L, C]` is a 1×1 convolution
//! over the `[N, C, H, W]` map the tokens were cut from, so the linears
//! lower to the same types with `k = 1`: the token-wise spatial gate
//! `sigmoid(Linear(C→1))` is the per-pixel gate, there is no channel
//! branch, and the linear's bias — added between the binary product and
//! the gate — rides in the kernel's store (`Fused::bias`).
//!
//! The float gates — SCALES' spatial map (the `C → 1` pixel dot and its
//! sigmoid), its channel map (global average pool, Conv1d over the channel
//! tokens, sigmoid) and BAM's `mean_c |x|` map — run in `crate::gate`, one
//! loop each compiled per [`SimdLevel`] like the kernel whose store applies
//! them, at the level `forward_into_at` is given (the active backend's for
//! `forward_into`, so the scalar backend runs the portable loops). Every
//! level computes every gate value with the same operations in the same
//! order, so a gate is `to_bits`-identical at every level.
//!
//! Every layer has one arithmetic body, its `forward_into` (gates staged
//! in a [`ConvScratch`], one fused kernel call); `forward` is that body
//! behind a rank / channel check, a fresh output and a fresh scratch. The
//! exception is [`FloatConv2d::forward`], which stays on im2col → GEMM: it
//! is the reference the direct float kernel is compared against.
//! [`DeployedScalesConv2d::forward`] is numerically equivalent to the
//! training-path forward (verified by unit and integration tests).

use crate::conv::ScalesConv2d;
use crate::factory::{BodyConv, BodyLinear};
use crate::gate::{gate_into, Gate};
use crate::linear::ScalesLinear;
use crate::lsf::LsfBinarizer;
use scales_autograd::Var;
use scales_nn::Module as _;
use scales_binary::{BinaryConv2d, Fused, SignShift};
use scales_tensor::ops::{conv2d, conv2d_into_at, Conv2dSpec};
use scales_tensor::workspace::{sized, ConvScratch};
use scales_tensor::{Result, SimdLevel, Tensor, TensorError};

/// Sign-pack a latent weight `[OC, IC, k, k]` and fold the LSF into it: `α`
/// into the per-channel scales (`ŷ = α·s_c·(xnor dot)`), `β` returned as the
/// input shift (empty without LSF).
fn pack_with_lsf(weight: &Tensor, lsf: Option<&LsfBinarizer>) -> Result<(BinaryConv2d, Vec<f32>)> {
    let oc = weight.shape()[0];
    let per = weight.len() / oc;
    let mut conv = BinaryConv2d::from_float_weight(weight)?;
    let (alpha, beta) = match lsf {
        Some(lsf) => {
            let a = lsf.alpha().value().data()[0].max(1e-6);
            (a, lsf.beta().value().data().to_vec())
        }
        None => (1.0, Vec::new()),
    };
    let scales: Vec<f32> = (0..oc)
        .map(|c| {
            let chunk = &weight.data()[c * per..(c + 1) * per];
            alpha * chunk.iter().map(|v| v.abs()).sum::<f32>() / per as f32
        })
        .collect();
    conv.set_scales(scales)?;
    Ok((conv, beta))
}

/// The spatial branch's predictor — a `C → 1` 1×1 conv or token linear,
/// `[weight, bias]` — as the `[1, C, 1, 1]` map and scalar bias of the
/// deployed per-pixel gate.
fn spatial_gate(params: &[Var], channels: usize) -> Result<(Tensor, f32)> {
    let [weight, bias] = params else {
        return Err(TensorError::InvalidArgument("spatial branch must hold weight and bias".into()));
    };
    Ok((weight.value().reshape(&[1, channels, 1, 1])?, bias.value().data()[0]))
}

/// A `[out, in]` linear weight as the `[out, in, 1, 1]` kernel of the 1×1
/// convolution it is on an NCHW map.
fn as_1x1_kernel(weight: &Var) -> Result<Tensor> {
    let w = weight.value();
    match *w.shape() {
        [out, inf] => w.reshape(&[out, inf, 1, 1]),
        _ => Err(TensorError::RankMismatch { expected: 2, actual: w.rank(), op: "linear weight" }),
    }
}

/// The dimensions of `input` once it is known to be `[N, in_channels, H,
/// W]` — the check of the allocating `forward` wrappers.
fn checked_nchw(input: &Tensor, in_channels: usize) -> Result<[usize; 4]> {
    let [n, c, h, w] = *input.shape() else {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "deployed conv" });
    };
    if c != in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: vec![0, in_channels, 0, 0],
            op: "deployed conv channels",
        });
    }
    Ok([n, c, h, w])
}

/// Output dimensions `(oc, oh, ow)` of a packed convolution for an input of
/// spatial extent `(h, w)`.
fn packed_out_shape(conv: &BinaryConv2d, h: usize, w: usize) -> Result<(usize, usize, usize)> {
    let (k, spec) = (conv.kernel(), conv.spec());
    Ok((conv.out_channels(), spec.out_extent(h, k)?, spec.out_extent(w, k)?))
}

/// A trained SCALES convolution lowered to the packed binary kernel.
pub struct DeployedScalesConv2d {
    conv: BinaryConv2d,
    /// Per-input-channel threshold β (empty when LSF was disabled).
    beta: Vec<f32>,
    /// Per-output-channel bias, added before the gates (lowered linears;
    /// convolution layers have none).
    bias: Option<Vec<f32>>,
    /// Spatial branch: 1×1 conv weight `[1, C, 1, 1]` and bias.
    spatial: Option<(Tensor, f32)>,
    /// Channel branch: Conv1d weight `[1, 1, k]`.
    channel: Option<Tensor>,
    skip: bool,
    in_channels: usize,
}

impl DeployedScalesConv2d {
    /// Fold a trained layer into packed form.
    ///
    /// # Errors
    ///
    /// Returns an error when the trained layer's tensors are malformed
    /// (cannot happen for layers built by this crate).
    pub fn from_trained(layer: &ScalesConv2d) -> Result<Self> {
        let weight = layer.weight().value();
        let ic = weight.shape()[1];
        let (conv, beta) = pack_with_lsf(&weight, layer.lsf())?;
        let spatial = layer.spatial().map(|s| spatial_gate(&s.params(), ic)).transpose()?;
        let channel = layer.channel().map(|c| c.params()[0].value());
        Ok(Self { conv, beta, bias: None, spatial, channel, skip: layer.has_skip(), in_channels: ic })
    }

    /// Fold a trained binary linear into the packed `k = 1` form it has on
    /// the NCHW feature map: the token gate becomes the per-pixel gate and
    /// the bias rides in the kernel's store.
    ///
    /// # Errors
    ///
    /// Returns an error when the trained layer's tensors are malformed
    /// (cannot happen for layers built by this crate).
    pub fn from_trained_linear(layer: &ScalesLinear) -> Result<Self> {
        let ic = layer.in_features();
        let (conv, beta) = pack_with_lsf(&as_1x1_kernel(layer.weight())?, layer.lsf())?;
        let spatial = layer.spatial().map(|s| spatial_gate(&s.params(), ic)).transpose()?;
        let bias = Some(layer.bias().value().data().to_vec());
        Self::from_parts(conv, beta, bias, spatial, None, layer.has_skip(), ic)
    }

    /// Rebuild a lowered layer from its serialized parts: the packed
    /// convolution, the folded channel thresholds β (empty when LSF was
    /// off), the per-output-channel bias (lowered linears only),
    /// the spatial branch (1×1 map weight `[1, C, 1, 1]` plus bias),
    /// the channel branch Conv1d kernel `[1, 1, k]`, the FP-skip flag, and
    /// the input channel count. Inverse of the accessors below.
    ///
    /// # Errors
    ///
    /// Returns an error when any part disagrees with the layer geometry
    /// the forward assumes: β must be empty or one value per input
    /// channel, the bias one value per output channel, the packed conv
    /// must consume `in_channels`, the spatial
    /// map must be a `[1, in_channels, 1, 1]` 1×1 conv weight, and the
    /// channel kernel must be `[1, 1, odd]` gating at most `in_channels`
    /// outputs. The parts may come from an untrusted serialized artifact,
    /// so a violation must be a typed error here — never an
    /// out-of-bounds panic at the first forward.
    pub fn from_parts(
        conv: BinaryConv2d,
        beta: Vec<f32>,
        bias: Option<Vec<f32>>,
        spatial: Option<(Tensor, f32)>,
        channel: Option<Tensor>,
        skip: bool,
        in_channels: usize,
    ) -> Result<Self> {
        if !beta.is_empty() && beta.len() != in_channels {
            return Err(TensorError::LengthMismatch { expected: in_channels, actual: beta.len() });
        }
        if let Some(bias) = &bias {
            if bias.len() != conv.out_channels() {
                return Err(TensorError::LengthMismatch {
                    expected: conv.out_channels(),
                    actual: bias.len(),
                });
            }
        }
        if conv.in_channels() != in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![conv.out_channels(), conv.in_channels()],
                rhs: vec![conv.out_channels(), in_channels],
                op: "scales conv packed-weight channels",
            });
        }
        if let Some((map, _)) = &spatial {
            if map.shape() != [1, in_channels, 1, 1] {
                return Err(TensorError::ShapeMismatch {
                    lhs: map.shape().to_vec(),
                    rhs: vec![1, in_channels, 1, 1],
                    op: "scales conv spatial map",
                });
            }
            // The gate is computed on the *input* grid, so the packed conv
            // must be shape-preserving (stride-1 "same") for the per-pixel
            // indexing to line up; anything else would read out of bounds
            // (padding > k/2) or gate misaligned pixels (stride > 1).
            let spec = conv.spec();
            if spec.stride != 1 || conv.kernel() != 2 * spec.padding + 1 {
                return Err(TensorError::InvalidArgument(format!(
                    "scales conv with a spatial branch needs a stride-1 \"same\" spec, got \
                     stride {} padding {} for kernel {}",
                    spec.stride,
                    spec.padding,
                    conv.kernel(),
                )));
            }
        }
        if let Some(k) = &channel {
            let ok = k.rank() == 3
                && k.shape()[0] == 1
                && k.shape()[1] == 1
                && k.shape()[2] % 2 == 1;
            // The gate indexes the mixed tokens by output channel, so the
            // forward can only serve oc ≤ ic with this branch — exactly
            // what every trained layer satisfies.
            if !ok || conv.out_channels() > in_channels {
                return Err(TensorError::InvalidArgument(format!(
                    "scales conv channel branch needs a [1, 1, odd] kernel gating at most \
                     {in_channels} channels, got {:?} for {} outputs",
                    k.shape(),
                    conv.out_channels(),
                )));
            }
        }
        Ok(Self { conv, beta, bias, spatial, channel, skip, in_channels })
    }

    /// The packed binary convolution with folded α·s_c scales.
    #[must_use]
    pub fn conv(&self) -> &BinaryConv2d {
        &self.conv
    }

    /// The folded per-input-channel thresholds β (empty without LSF).
    #[must_use]
    pub fn beta(&self) -> &[f32] {
        &self.beta
    }

    /// The per-output-channel bias of a lowered linear.
    #[must_use]
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// The spatial re-scaling branch: 1×1 map weight and bias.
    #[must_use]
    pub fn spatial(&self) -> Option<(&Tensor, f32)> {
        self.spatial.as_ref().map(|(w, b)| (w, *b))
    }

    /// The channel re-scaling branch's Conv1d kernel.
    #[must_use]
    pub fn channel(&self) -> Option<&Tensor> {
        self.channel.as_ref()
    }

    /// Whether the FP identity skip applies.
    #[must_use]
    pub fn skip(&self) -> bool {
        self.skip
    }

    /// Number of input channels.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.conv.out_channels()
    }

    /// Run packed inference on `[N, C, H, W]`, reproducing the training
    /// path exactly (up to f32 rounding in the FP branches).
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched geometry.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let [n, _, h, w] = checked_nchw(input, self.in_channels)?;
        let (oc, oh, ow) = packed_out_shape(&self.conv, h, w)?;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        self.forward_into(input.data(), n, h, w, &mut ConvScratch::new(), out.data_mut())?;
        Ok(out)
    }

    /// The zero-allocation core of [`DeployedScalesConv2d::forward`]:
    /// serve a flat `[n, in_channels, h, w]` input into a caller-provided
    /// output buffer (fully overwritten). The two re-scaling gates are
    /// computed from the FP input into a reusable [`ConvScratch`], then one
    /// fused kernel call shifts by β in the sign packer and applies
    /// `+bias ·spatial ·channel +skip` in its store — per element the order
    /// of the same steps run as separate passes over the unfused output
    /// (`tests/kernels.rs` keeps that pass-by-pass form as the oracle).
    /// Gates and kernel run at the active backend's [`SimdLevel`].
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched lengths or geometry.
    pub fn forward_into(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        scratch: &mut ConvScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let level = scales_tensor::backend::kernel().simd_level();
        self.forward_into_at(level, input, n, h, w, scratch, out)
    }

    /// [`DeployedScalesConv2d::forward_into`] with the gates and the kernel
    /// compiled for `level` (clamped to what the CPU offers) — how tests
    /// compare the levels in one process. Every level is bit-identical.
    ///
    /// # Errors
    ///
    /// As [`DeployedScalesConv2d::forward_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_into_at(
        &self,
        level: SimdLevel,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        scratch: &mut ConvScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let c = self.in_channels;
        let oc = self.conv.out_channels();
        if input.len() != n * c * h * w {
            return Err(TensorError::LengthMismatch { expected: n * c * h * w, actual: input.len() });
        }
        let dims = (n, c, h * w);
        let ConvScratch { plane, chan, chan2, bits, .. } = scratch;
        // Spatial gate from the FP input: the per-pixel channel dot of
        // `conv2d(input, wmap, 1×1)`, then the sigmoid.
        let spatial = self.spatial.as_ref().map(|(wmap, bias)| {
            let gate = sized(plane, n * h * w);
            gate_into(level, Gate::Spatial { weights: wmap.data(), bias: *bias }, input, dims, gate);
            &*gate
        });
        // Channel gate from the FP input (global average pool → 1-D conv
        // over channel tokens → sigmoid), one value per output channel;
        // `from_parts` guarantees oc ≤ c.
        let channel = self.channel.as_ref().map(|kernel| {
            let gate = sized(chan2, n * oc);
            gate_into(level, Gate::Channel { kernel: kernel.data(), pooled: sized(chan, n * c) }, input, dims, gate);
            &*gate
        });
        let shift = if self.beta.is_empty() { SignShift::None } else { SignShift::PerChannel(&self.beta) };
        let fused = Fused { shift, bias: self.bias.as_deref(), spatial, channel, skip: self.skip };
        self.conv.forward_at(level, input, n, h, w, &fused, bits, out)
    }
}

/// In-place FP identity skip `out += input`, requiring identical shapes —
/// the deployed graphs only attach skips to shape-preserving layers. Only
/// for a skip that cannot ride in the binary kernel's store.
fn add_identity_skip(
    out: &mut [f32],
    out_dims: (usize, usize, usize, usize),
    input: &[f32],
    in_dims: (usize, usize, usize, usize),
) -> Result<()> {
    if out_dims != in_dims {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![out_dims.0, out_dims.1, out_dims.2, out_dims.3],
            rhs: vec![in_dims.0, in_dims.1, in_dims.2, in_dims.3],
            op: "deployed conv identity skip",
        });
    }
    for (o, &x) in out.iter_mut().zip(input.iter()) {
        *o += x;
    }
    Ok(())
}

/// A full-precision convolution in deployed (tape-free) form: raw tensors
/// plus the spec, evaluated with the backend conv kernel directly.
pub struct FloatConv2d {
    weight: Tensor,
    bias: Option<Tensor>,
    spec: Conv2dSpec,
}

impl FloatConv2d {
    /// Build from a weight `[OC, IC, kh, kw]`, an optional bias that
    /// broadcasts over `[N, OC, OH, OW]` (e.g. `[1, OC, 1, 1]`), and a spec.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-rank-4 weight.
    pub fn new(weight: Tensor, bias: Option<Tensor>, spec: Conv2dSpec) -> Result<Self> {
        if weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: weight.rank(),
                op: "deployed float conv weight",
            });
        }
        Ok(Self { weight, bias, spec })
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.weight.shape()[0]
    }

    /// The weight tensor `[OC, IC, kh, kw]`.
    #[must_use]
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The broadcastable bias tensor, when present.
    #[must_use]
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// The convolution spec (stride and padding).
    #[must_use]
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Run the convolution (plus bias) on `[N, IC, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched geometry.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let y = conv2d(input, &self.weight, self.spec)?;
        match &self.bias {
            Some(b) => y.zip_map(b, |a, bv| a + bv),
            None => Ok(y),
        }
    }

    /// Output dimensions `(oc, oh, ow)` for an input of spatial extent
    /// `(h, w)` — the shape-inference hook the planned executor uses.
    ///
    /// # Errors
    ///
    /// Returns an error when the kernel does not fit the padded input.
    pub fn out_shape(&self, h: usize, w: usize) -> Result<(usize, usize, usize)> {
        let (kh, kw) = (self.weight.shape()[2], self.weight.shape()[3]);
        Ok((self.weight.shape()[0], self.spec.out_extent(h, kh)?, self.spec.out_extent(w, kw)?))
    }

    /// The zero-allocation core of [`FloatConv2d::forward`]: convolve a
    /// flat `[n, ic, h, w]` input into a caller-provided output buffer
    /// (fully overwritten) with the direct kernel at the active backend's
    /// [`SimdLevel`]; `planes` is the reusable grow-only scratch for one
    /// image's zero-padded input planes. Bit-identical to the allocating
    /// forward.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched lengths or geometry, or a bias
    /// whose broadcast would change the output shape.
    pub fn forward_into(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        planes: &mut Vec<f32>,
        out: &mut [f32],
    ) -> Result<()> {
        let level = scales_tensor::backend::kernel().simd_level();
        self.forward_at(level, input, n, h, w, planes, out)
    }

    /// [`FloatConv2d::forward_into`] with the kernel compiled for `level`
    /// (clamped to what the CPU offers, so any level is safe to ask for) —
    /// how tests and benches compare the levels in one process.
    ///
    /// # Errors
    ///
    /// As [`FloatConv2d::forward_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_at(
        &self,
        level: SimdLevel,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        planes: &mut Vec<f32>,
        out: &mut [f32],
    ) -> Result<()> {
        let (oc, ic) = (self.weight.shape()[0], self.weight.shape()[1]);
        // The canonical lowered bias, one value per channel, is added in
        // the kernel's store.
        let (fused, broadcast) = match &self.bias {
            Some(bias) if bias.shape() == [1, oc, 1, 1] => (Some(bias.data()), None),
            other => (None, other.as_ref()),
        };
        conv2d_into_at(level, input, n, ic, h, w, &self.weight, fused, self.spec, planes, out)?;
        if let Some(bias) = broadcast {
            // General broadcastable bias (possible via `FloatConv2d::new`
            // from serialized parts): replicate the allocating `zip_map`
            // element-for-element.
            let (_, oh, ow) = self.out_shape(h, w)?;
            let yshape = [n, oc, oh, ow];
            let bshape = scales_tensor::shape::broadcast_shape(&yshape, bias.shape())?;
            if bshape != yshape {
                return Err(TensorError::ShapeMismatch {
                    lhs: yshape.to_vec(),
                    rhs: bias.shape().to_vec(),
                    op: "deployed float conv bias broadcast",
                });
            }
            for (i, v) in out.iter_mut().enumerate() {
                *v += bias.data()[scales_tensor::shape::broadcast_src_index(i, &yshape, bias.shape())];
            }
        }
        Ok(())
    }
}

/// Per-channel batch-statistics batch norm in deployed form, in place and
/// scratch-buffered: the staged reductions of `mean_axis(0) → (2) → (3)`
/// (sum over batch, then height, then width, each divided by its extent
/// after the full sum) in the same per-element order as the training
/// layer's tensor chain, so the result is bit-identical to it — without
/// allocating the six intermediate tensors.
#[allow(clippy::too_many_arguments)]
fn batchnorm_batch_stats_inplace(
    y: &mut [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    scratch: &mut ConvScratch,
) -> Result<()> {
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![1, c, 1, 1],
            rhs: gamma.shape().to_vec(),
            op: "deployed batch-norm affine shape",
        });
    }
    let (hw, chw) = (h * w, c * h * w);
    let ConvScratch { padded, plane, chan, chan2, .. } = scratch;
    let m1 = sized(padded, chw); // per-(c,h,w) batch mean
    let m2 = sized(plane, c * w); // then reduced over height
    let mean = sized(chan, c); // then reduced over width
    let denom = sized(chan2, c);
    // Per-channel mean, staged exactly like mean_axis(0) → (2) → (3).
    m1.fill(0.0);
    for b in 0..n {
        for (o, &v) in m1.iter_mut().zip(&y[b * chw..(b + 1) * chw]) {
            *o += v;
        }
    }
    m1.iter_mut().for_each(|v| *v /= n as f32);
    m2.fill(0.0);
    for ci in 0..c {
        for row in 0..h {
            for (o, &v) in m2[ci * w..(ci + 1) * w].iter_mut().zip(&m1[ci * hw + row * w..]) {
                *o += v;
            }
        }
    }
    m2.iter_mut().for_each(|v| *v /= h as f32);
    for (ci, m) in mean.iter_mut().enumerate() {
        *m = m2[ci * w..(ci + 1) * w].iter().sum::<f32>() / w as f32;
    }
    // Center in place, then run the identical staged reduction over the
    // squared values for the variance.
    for b in 0..n {
        for ci in 0..c {
            let m = mean[ci];
            for v in &mut y[(b * c + ci) * hw..(b * c + ci + 1) * hw] {
                *v -= m;
            }
        }
    }
    m1.fill(0.0);
    for b in 0..n {
        for (o, &v) in m1.iter_mut().zip(&y[b * chw..(b + 1) * chw]) {
            *o += v * v;
        }
    }
    m1.iter_mut().for_each(|v| *v /= n as f32);
    m2.fill(0.0);
    for ci in 0..c {
        for row in 0..h {
            for (o, &v) in m2[ci * w..(ci + 1) * w].iter_mut().zip(&m1[ci * hw + row * w..]) {
                *o += v;
            }
        }
    }
    m2.iter_mut().for_each(|v| *v /= h as f32);
    for (ci, d) in denom.iter_mut().enumerate() {
        let var = m2[ci * w..(ci + 1) * w].iter().sum::<f32>() / w as f32;
        *d = (var + eps).sqrt();
    }
    // normed·γ + β, fused per element in the zip_map order
    // ((centered / denom) · γ) + β.
    let (gd, bd) = (gamma.data(), beta.data());
    for b in 0..n {
        for ci in 0..c {
            let (d, g, be) = (denom[ci], gd[ci], bd[ci]);
            for v in &mut y[(b * c + ci) * hw..(b * c + ci + 1) * hw] {
                *v = *v / d * g + be;
            }
        }
    }
    Ok(())
}

/// Any trained body convolution lowered to its deployment form: packed
/// XNOR-popcount kernels for the binary methods, raw-tensor float
/// convolution for the FP method. This is what [`DeployedNetwork`] graphs
/// are made of.
///
/// [`DeployedNetwork`]: https://docs.rs/scales-models
pub enum DeployedBodyConv {
    /// Full-precision convolution (FP method rows).
    Float(FloatConv2d),
    /// SCALES layer with folded scales and FP re-scaling branches.
    Scales(DeployedScalesConv2d),
    /// E2FIF: packed conv → per-image-stats BN → FP identity skip.
    E2fif {
        /// Packed binary convolution with XNOR-Net per-channel scales.
        conv: BinaryConv2d,
        /// BN gain `[1, OC, 1, 1]`.
        gamma: Tensor,
        /// BN shift `[1, OC, 1, 1]`.
        beta: Tensor,
        /// Whether the FP identity skip applies (square layers).
        skip: bool,
    },
    /// BTM: per-image mean threshold → packed conv → FP identity skip.
    Btm {
        /// Packed binary convolution.
        conv: BinaryConv2d,
        /// Whether the FP identity skip applies.
        skip: bool,
    },
    /// BAM: packed conv rescaled by the FP accumulation map `mean_c |x|`.
    Bam {
        /// Packed binary convolution.
        conv: BinaryConv2d,
        /// Whether the FP identity skip applies.
        skip: bool,
    },
    /// Plain sign binary conv with identity skip (BiBERT-style bodies).
    Basic {
        /// Packed binary convolution.
        conv: BinaryConv2d,
        /// Per-output-channel bias, added before the skip (lowered
        /// BiBERT-style linears; the convolution has none).
        bias: Option<Vec<f32>>,
        /// Whether the FP identity skip applies.
        skip: bool,
    },
}

impl DeployedBodyConv {
    /// Lower a trained [`BodyConv`] of any method to its packed form.
    ///
    /// # Errors
    ///
    /// Returns an error when the trained layer's tensors are malformed.
    pub fn from_trained(layer: &BodyConv) -> Result<Self> {
        Ok(match layer {
            BodyConv::Fp(conv) => DeployedBodyConv::Float(FloatConv2d::new(
                conv.weight().value(),
                conv.params().get(1).map(scales_autograd::Var::value),
                conv.spec(),
            )?),
            BodyConv::Scales(conv) => {
                DeployedBodyConv::Scales(DeployedScalesConv2d::from_trained(conv)?)
            }
            BodyConv::E2fif(conv) => {
                // Stable param order: [weight, bn gamma, bn beta].
                let params = conv.params();
                let weight = params[0].value();
                let square = weight.shape()[0] == weight.shape()[1];
                DeployedBodyConv::E2fif {
                    conv: BinaryConv2d::from_float_weight(&weight)?,
                    gamma: params[1].value(),
                    beta: params[2].value(),
                    skip: square,
                }
            }
            BodyConv::Btm(conv) => {
                let weight = conv.params()[0].value();
                let square = weight.shape()[0] == weight.shape()[1];
                DeployedBodyConv::Btm { conv: BinaryConv2d::from_float_weight(&weight)?, skip: square }
            }
            BodyConv::Bam(conv) => {
                let weight = conv.params()[0].value();
                let square = weight.shape()[0] == weight.shape()[1];
                DeployedBodyConv::Bam { conv: BinaryConv2d::from_float_weight(&weight)?, skip: square }
            }
            BodyConv::Basic(conv) => {
                let weight = conv.params()[0].value();
                let square = weight.shape()[0] == weight.shape()[1];
                DeployedBodyConv::Basic {
                    conv: BinaryConv2d::from_float_weight(&weight)?,
                    bias: None,
                    skip: square,
                }
            }
        })
    }

    /// Lower a trained transformer [`BodyLinear`] of any method to the 1×1
    /// body convolution it is on the NCHW feature map.
    ///
    /// # Errors
    ///
    /// Returns an error when the trained layer's tensors are malformed.
    pub fn from_trained_linear(layer: &BodyLinear) -> Result<Self> {
        Ok(match layer {
            BodyLinear::Fp(linear) => {
                let weight = as_1x1_kernel(linear.weight())?;
                let oc = weight.shape()[0];
                let bias =
                    linear.params().get(1).map(|b| b.value().reshape(&[1, oc, 1, 1])).transpose()?;
                DeployedBodyConv::Float(FloatConv2d::new(weight, bias, Conv2dSpec::same(1))?)
            }
            BodyLinear::Bibert(linear) => {
                // Stable param order: [weight, bias].
                let params = linear.params();
                let weight = as_1x1_kernel(&params[0])?;
                DeployedBodyConv::Basic {
                    skip: weight.shape()[0] == weight.shape()[1],
                    conv: BinaryConv2d::from_float_weight(&weight)?,
                    bias: Some(params[1].value().data().to_vec()),
                }
            }
            BodyLinear::Scales(linear) => {
                DeployedBodyConv::Scales(DeployedScalesConv2d::from_trained_linear(linear)?)
            }
        })
    }

    /// Run deployed inference on `[N, C, H, W]`, reproducing the matching
    /// training-path layer (up to f32 rounding in the FP pieces).
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched geometry.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let [n, _, h, w] = checked_nchw(input, self.in_channels())?;
        let (oc, oh, ow) = self.out_shape(h, w)?;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        self.forward_into(input.data(), n, h, w, &mut ConvScratch::new(), out.data_mut())?;
        Ok(out)
    }

    /// The zero-allocation core of [`DeployedBodyConv::forward`]: serve a
    /// flat `[n, in_channels, h, w]` input into a caller-provided output
    /// buffer (fully overwritten), staging every per-call temporary —
    /// packed bits, batch-norm reductions, accumulation maps — in a
    /// reusable [`ConvScratch`]. Every binary variant runs the one fused
    /// kernel ([`BinaryConv2d::forward_fused`]) with its shift, gate and
    /// skip; stale scratch contents never reach the output.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched lengths or geometry.
    pub fn forward_into(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        scratch: &mut ConvScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let level = scales_tensor::backend::kernel().simd_level();
        self.forward_into_at(level, input, n, h, w, scratch, out)
    }

    /// [`DeployedBodyConv::forward_into`] with its kernels and gates
    /// compiled for `level` (clamped to what the CPU offers). Every level
    /// is bit-identical.
    ///
    /// # Errors
    ///
    /// As [`DeployedBodyConv::forward_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_into_at(
        &self,
        level: SimdLevel,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        scratch: &mut ConvScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let (oc, oh, ow) = self.out_shape(h, w)?;
        let c = self.in_channels();
        if input.len() != n * c * h * w {
            return Err(TensorError::LengthMismatch { expected: n * c * h * w, actual: input.len() });
        }
        match self {
            DeployedBodyConv::Float(conv) => conv.forward_at(level, input, n, h, w, &mut scratch.padded, out),
            DeployedBodyConv::Scales(conv) => conv.forward_into_at(level, input, n, h, w, scratch, out),
            DeployedBodyConv::E2fif { conv, gamma, beta, skip } => {
                conv.forward_at(level, input, n, h, w, &Fused::default(), &mut scratch.bits, out)?;
                // Each image is normalised by its own statistics, so an
                // image served inside a batch reads exactly as served
                // alone (the training tape normalises over its batch).
                for image in out.chunks_mut((oc * oh * ow).max(1)) {
                    batchnorm_batch_stats_inplace(image, 1, oc, oh, ow, gamma, beta, 1e-5, scratch)?;
                }
                // The batch norm sits between the conv and the skip, so
                // this one cannot ride in the kernel's store.
                if *skip {
                    add_identity_skip(out, (n, oc, oh, ow), input, (n, c, h, w))?;
                }
                Ok(())
            }
            DeployedBodyConv::Btm { conv, skip } => {
                let chw = c * h * w;
                let ConvScratch { chan, bits, .. } = scratch;
                let means = sized(chan, n);
                for (mean, image) in means.iter_mut().zip(input.chunks(chw.max(1))) {
                    *mean = image.iter().sum::<f32>() / chw as f32;
                }
                let fused = Fused { shift: SignShift::PerImage(means), skip: *skip, ..Fused::default() };
                conv.forward_at(level, input, n, h, w, &fused, bits, out)
            }
            DeployedBodyConv::Bam { conv, skip } => {
                // FP accumulation map K = mean_c |x| per pixel, applied as
                // the kernel's per-pixel gate (its length check is the
                // "same-size output" requirement).
                let ConvScratch { plane, bits, .. } = scratch;
                let k = sized(plane, n * h * w);
                gate_into(level, Gate::Magnitude, input, (n, c, h * w), k);
                let fused = Fused { spatial: Some(k), skip: *skip, ..Fused::default() };
                conv.forward_at(level, input, n, h, w, &fused, bits, out)
            }
            DeployedBodyConv::Basic { conv, bias, skip } => {
                let fused = Fused { bias: bias.as_deref(), skip: *skip, ..Fused::default() };
                conv.forward_at(level, input, n, h, w, &fused, &mut scratch.bits, out)
            }
        }
    }

    /// Number of input channels this layer consumes.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        match self {
            DeployedBodyConv::Float(c) => c.weight().shape()[1],
            DeployedBodyConv::Scales(c) => c.in_channels(),
            DeployedBodyConv::E2fif { conv, .. }
            | DeployedBodyConv::Btm { conv, .. }
            | DeployedBodyConv::Bam { conv, .. }
            | DeployedBodyConv::Basic { conv, .. } => conv.in_channels(),
        }
    }

    /// Output dimensions `(oc, oh, ow)` for an input of spatial extent
    /// `(h, w)` — the shape-inference hook the planned executor uses.
    ///
    /// # Errors
    ///
    /// Returns an error when the kernel does not fit the padded input.
    pub fn out_shape(&self, h: usize, w: usize) -> Result<(usize, usize, usize)> {
        match self {
            DeployedBodyConv::Float(c) => c.out_shape(h, w),
            DeployedBodyConv::Scales(DeployedScalesConv2d { conv, .. })
            | DeployedBodyConv::E2fif { conv, .. }
            | DeployedBodyConv::Btm { conv, .. }
            | DeployedBodyConv::Bam { conv, .. }
            | DeployedBodyConv::Basic { conv, .. } => packed_out_shape(conv, h, w),
        }
    }

    /// Number of output channels after this layer.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        match self {
            DeployedBodyConv::Float(c) => c.out_channels(),
            DeployedBodyConv::Scales(c) => c.out_channels(),
            DeployedBodyConv::E2fif { conv, .. }
            | DeployedBodyConv::Btm { conv, .. }
            | DeployedBodyConv::Bam { conv, .. }
            | DeployedBodyConv::Basic { conv, .. } => conv.out_channels(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ScalesComponents;
    use scales_autograd::Var;
    use scales_nn::init::rng;
    use scales_nn::Module;

    fn check_equivalence(components: ScalesComponents, skip: bool, seed: u64) {
        let mut r = rng(seed);
        let layer = ScalesConv2d::with_components(6, 6, 3, components, skip, &mut r);
        // Nudge α/β off their init so folding is actually exercised.
        if let Some(lsf) = layer.lsf() {
            lsf.alpha().set_value(Tensor::from_vec(vec![0.8], &[1]).unwrap());
            lsf.beta().update_value(|t| {
                for (i, v) in t.data_mut().iter_mut().enumerate() {
                    *v = (i as f32 - 3.0) * 0.05;
                }
            });
        }
        let deployed = DeployedScalesConv2d::from_trained(&layer).unwrap();
        let input = Tensor::from_vec(
            (0..6 * 64).map(|i| ((i as f32) * 0.29).sin()).collect(),
            &[1, 6, 8, 8],
        )
        .unwrap();
        let reference = layer.forward(&Var::new(input.clone())).unwrap().value();
        let fast = deployed.forward(&input).unwrap();
        assert_eq!(fast.shape(), reference.shape());
        for (a, b) in fast.data().iter().zip(reference.data().iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn deployed_full_scales_matches_training_path() {
        check_equivalence(ScalesComponents::full(), true, 91);
    }

    #[test]
    fn deployed_lsf_only_matches_training_path() {
        check_equivalence(ScalesComponents::lsf_only(), true, 92);
    }

    #[test]
    fn deployed_no_skip_matches_training_path() {
        check_equivalence(ScalesComponents::lsf_spatial(), false, 93);
    }

    #[test]
    fn from_parts_rejects_mismatched_branch_geometry() {
        let make_conv = || BinaryConv2d::from_float_weight(&Tensor::ones(&[6, 6, 3, 3])).unwrap();
        // Baseline: well-formed parts are accepted.
        assert!(DeployedScalesConv2d::from_parts(
            make_conv(),
            vec![0.0; 6],
            Some(vec![0.0; 6]),
            Some((Tensor::ones(&[1, 6, 1, 1]), 0.1)),
            Some(Tensor::ones(&[1, 1, 5])),
            true,
            6,
        )
        .is_ok());
        // Packed conv consuming a different channel count.
        assert!(DeployedScalesConv2d::from_parts(make_conv(), vec![], None, None, None, true, 8).is_err());
        // A bias that is not one value per output channel.
        assert!(DeployedScalesConv2d::from_parts(make_conv(), vec![], Some(vec![0.0; 5]), None, None, true, 6)
            .is_err());
        // Spatial map that is not a [1, C, 1, 1] 1×1 weight.
        assert!(DeployedScalesConv2d::from_parts(
            make_conv(),
            vec![],
            None,
            Some((Tensor::ones(&[1, 6, 3, 3]), 0.0)),
            None,
            true,
            6,
        )
        .is_err());
        // Spatial branch over a non-shape-preserving conv (padding beyond
        // "same") would index the gate map out of bounds at forward.
        let padded = BinaryConv2d::from_float_weight(&Tensor::ones(&[6, 6, 3, 3]))
            .unwrap()
            .with_spec(Conv2dSpec { stride: 1, padding: 2 });
        assert!(DeployedScalesConv2d::from_parts(
            padded,
            vec![],
            None,
            Some((Tensor::ones(&[1, 6, 1, 1]), 0.0)),
            None,
            false,
            6,
        )
        .is_err());
        // Channel kernels of the wrong rank / even extent.
        for bad in [Tensor::ones(&[5]), Tensor::ones(&[1, 1, 4])] {
            assert!(DeployedScalesConv2d::from_parts(
                make_conv(),
                vec![],
                None,
                None,
                Some(bad),
                true,
                6,
            )
            .is_err());
        }
    }

    #[test]
    fn deployed_rejects_wrong_channels() {
        let mut r = rng(94);
        let layer = ScalesConv2d::new(4, 4, 3, &mut r);
        let deployed = DeployedScalesConv2d::from_trained(&layer).unwrap();
        assert!(deployed.forward(&Tensor::ones(&[1, 8, 4, 4])).is_err());
    }

    fn probe_input(c: usize, hw: usize, seed: f32) -> Tensor {
        Tensor::from_vec(
            (0..c * hw * hw).map(|i| ((i as f32 + seed) * 0.23).sin()).collect(),
            &[1, c, hw, hw],
        )
        .unwrap()
    }

    fn check_body_conv_equivalence(method: crate::Method, in_c: usize, out_c: usize, seed: u64) {
        let mut r = rng(seed);
        let layer = BodyConv::new(method, in_c, out_c, 3, &mut r).unwrap();
        let deployed = DeployedBodyConv::from_trained(&layer).unwrap();
        let input = probe_input(in_c, 8, seed as f32);
        let reference = layer.forward(&Var::new(input.clone())).unwrap().value();
        let fast = deployed.forward(&input).unwrap();
        assert_eq!(fast.shape(), reference.shape(), "{method}");
        assert_eq!(deployed.out_channels(), out_c, "{method}");
        for (a, b) in fast.data().iter().zip(reference.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{method}: {a} vs {b}");
        }
    }

    #[test]
    fn body_conv_forward_into_is_bit_identical_with_stale_scratch() {
        // One shared scratch across every method and two input shapes, so
        // each call sees stale contents from the previous layer — exactly
        // the planned executor's steady state.
        let mut scratch = ConvScratch::new();
        for (i, m) in [
            crate::Method::FullPrecision,
            crate::Method::E2fif,
            crate::Method::Btm,
            crate::Method::Bam,
            crate::Method::Bibert,
            crate::Method::scales(),
        ]
        .into_iter()
        .enumerate()
        {
            let mut r = rng(400 + i as u64);
            let layer = BodyConv::new(m, 6, 6, 3, &mut r).unwrap();
            let deployed = DeployedBodyConv::from_trained(&layer).unwrap();
            for (n, hw) in [(1usize, 8usize), (2, 8), (1, 5)] {
                let input = Tensor::from_vec(
                    (0..n * 6 * hw * hw).map(|j| ((j as f32 + i as f32) * 0.19).sin()).collect(),
                    &[n, 6, hw, hw],
                )
                .unwrap();
                let want = deployed.forward(&input).unwrap();
                let mut got = vec![f32::NAN; want.len()];
                deployed.forward_into(input.data(), n, hw, hw, &mut scratch, &mut got).unwrap();
                for (a, b) in want.data().iter().zip(got.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{m}, n={n}, hw={hw}");
                }
            }
        }
    }

    /// Per-channel batch-statistics batch norm as the tensor-op chain of
    /// `scales_nn::layers::BatchNorm2d` (which uses batch statistics at
    /// evaluation too — see its module docs for why): the bit-level spec of
    /// [`batchnorm_batch_stats_inplace`].
    fn batchnorm_batch_stats(y: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
        // Same nested-mean reduction order as the training layer so the two
        // paths agree to f32 rounding.
        let mean = y.mean_axis(0, true)?.mean_axis(2, true)?.mean_axis(3, true)?;
        let centered = y.zip_map(&mean, |a, m| a - m)?;
        let var = centered
            .zip_map(&centered, |a, b| a * b)?
            .mean_axis(0, true)?
            .mean_axis(2, true)?
            .mean_axis(3, true)?;
        let denom = var.map(|v| (v + eps).sqrt());
        let normed = centered.zip_map(&denom, |a, d| a / d)?;
        normed.zip_map(gamma, |a, g| a * g)?.zip_map(beta, |a, b| a + b)
    }

    #[test]
    fn batchnorm_batch_stats_inplace_matches_the_tensor_chain_bitwise() {
        // Largest shape first, so the later ones run on stale scratch.
        let mut scratch = ConvScratch::new();
        for (i, (n, c, h, w)) in [(2usize, 6usize, 8usize, 8usize), (3, 5, 7, 3), (1, 3, 4, 5), (1, 1, 1, 1)]
            .into_iter()
            .enumerate()
        {
            let wave = |len: usize, step: f32| -> Vec<f32> {
                (0..len).map(|j| ((j as f32 + i as f32) * step).sin()).collect()
            };
            let y = Tensor::from_vec(wave(n * c * h * w, 0.37), &[n, c, h, w]).unwrap();
            let gamma = Tensor::from_vec(wave(c, 0.91), &[1, c, 1, 1]).unwrap();
            let beta = Tensor::from_vec(wave(c, 1.73), &[1, c, 1, 1]).unwrap();
            let want = batchnorm_batch_stats(&y, &gamma, &beta, 1e-5).unwrap();
            let mut got = y.data().to_vec();
            batchnorm_batch_stats_inplace(&mut got, n, c, h, w, &gamma, &beta, 1e-5, &mut scratch).unwrap();
            for (a, b) in want.data().iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} c={c} {h}x{w}");
            }
        }
    }

    #[test]
    fn float_conv_forward_into_matches_forward_bitwise() {
        let mut r = rng(77);
        let conv = scales_nn::layers::Conv2d::new(5, 7, 3, &mut r);
        let lowered = FloatConv2d::new(
            conv.weight().value(),
            conv.params().get(1).map(scales_autograd::Var::value),
            conv.spec(),
        )
        .unwrap();
        let input = Tensor::from_vec(
            (0..2 * 5 * 36).map(|j| ((j as f32) * 0.31).cos()).collect(),
            &[2, 5, 6, 6],
        )
        .unwrap();
        let want = lowered.forward(&input).unwrap();
        let mut col = Vec::new();
        let mut got = vec![f32::NAN; want.len()];
        lowered.forward_into(input.data(), 2, 6, 6, &mut col, &mut got).unwrap();
        for (a, b) in want.data().iter().zip(got.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(lowered.out_shape(6, 6).unwrap(), (7, 6, 6));
    }

    #[test]
    fn deployed_body_conv_matches_every_method() {
        for (i, m) in [
            crate::Method::FullPrecision,
            crate::Method::E2fif,
            crate::Method::Btm,
            crate::Method::Bam,
            crate::Method::Bibert,
            crate::Method::scales(),
        ]
        .into_iter()
        .enumerate()
        {
            check_body_conv_equivalence(m, 6, 6, 200 + i as u64);
        }
    }

    /// `[n, c, h, w]` map → the `[n, h·w, c]` tokens a linear sees.
    fn as_tokens(x: &Tensor) -> Tensor {
        let (n, c, hw) = (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]);
        x.reshape(&[n, c, hw]).unwrap().permute(&[0, 2, 1]).unwrap()
    }

    #[test]
    fn lowered_body_linear_is_the_1x1_conv_of_the_training_linear_for_every_method() {
        // Square (skip) and both MLP shapes, every method a transformer
        // can build, including a subset without LSF (plain-sign packer);
        // biases, α and β nudged off their init so every fold is live.
        let mut scratch = ConvScratch::new();
        for (i, m) in crate::Method::transformer_registry().into_iter().enumerate() {
            for (inf, outf) in [(6usize, 6usize), (6, 12), (12, 6)] {
                let layer = BodyLinear::new(m, inf, outf, &mut rng(500 + i as u64)).unwrap();
                for (j, p) in layer.params().iter().enumerate().skip(1) {
                    p.update_value(|t| {
                        for (k, v) in t.data_mut().iter_mut().enumerate() {
                            *v += ((j * 7 + k) as f32 * 0.61).sin() * 0.1;
                        }
                    });
                }
                let deployed = DeployedBodyConv::from_trained_linear(&layer).unwrap();
                assert_eq!((deployed.in_channels(), deployed.out_channels()), (inf, outf), "{m}");
                let input = Tensor::from_vec(
                    (0..2 * inf * 20).map(|k| ((k as f32 + i as f32) * 0.23).sin()).collect(),
                    &[2, inf, 4, 5],
                )
                .unwrap();
                let reference = layer.forward(&Var::new(as_tokens(&input))).unwrap().value();
                let fast = deployed.forward(&input).unwrap();
                assert_eq!(fast.shape(), &[2, outf, 4, 5], "{m}");
                for (a, b) in as_tokens(&fast).data().iter().zip(reference.data()) {
                    assert!((a - b).abs() < 1e-4, "{m} {inf}->{outf}: {a} vs {b}");
                }
                let mut got = vec![f32::NAN; fast.len()];
                deployed.forward_into(input.data(), 2, 4, 5, &mut scratch, &mut got).unwrap();
                for (a, b) in fast.data().iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{m} {inf}->{outf}");
                }
            }
        }
    }

    #[test]
    fn deployed_body_conv_handles_channel_change() {
        // Non-square layers drop the skip; equivalence must still hold.
        for (i, m) in
            [crate::Method::FullPrecision, crate::Method::E2fif, crate::Method::Btm].into_iter().enumerate()
        {
            check_body_conv_equivalence(m, 4, 8, 300 + i as u64);
        }
    }
}
