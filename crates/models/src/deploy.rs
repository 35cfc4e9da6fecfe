//! Whole-network deployment: lower a trained [`SrNetwork`] to a
//! [`DeployedNetwork`] — a flat, tape-free op graph whose body convolutions
//! run on the bit-packed XNOR-popcount kernels of `scales-binary` and whose
//! remaining pieces (head/tail convs, activations, skips, channel
//! attention, the bicubic global skip) run as raw-tensor float ops through
//! the `scales-tensor` backend.
//!
//! Every architecture of the zoo lowers, the transformer family included,
//! and the graph is **NCHW throughout**: a transformer block's per-token
//! linears are `k = 1` body convolutions on the feature map, and its
//! LayerNorm, window attention and GELU are the NCHW-native kernels of
//! [`scales_tensor::ops::token`] — no token tensor is ever built, and
//! window partition / merge survive only as index arithmetic inside the
//! attention op.
//!
//! This is the whole-graph analogue of the paper's Table VI deployment
//! (Larq on a Snapdragon 870): training builds an autograd tape per call;
//! the deployed graph allocates no tape, packs each binary weight once at
//! lowering time, and is what the serving/bench paths execute.
//!
//! This module is the graph as data — ops, ids, the builder, liveness —
//! plus the one layer `scales-core` does not have (the channel-attention
//! gate, a single `forward_into` body like theirs). It walks no graph: the
//! one interpreter is [`crate::plan`], where
//! [`DeployedNetwork::forward_planned`] (serving) and
//! [`DeployedNetwork::forward`] (the same executor with slot reuse off)
//! both live, and CI greps that no tensor-level op creeps back in here.
//!
//! **Numerical-equivalence contract:** for every architecture and every
//! [`Method`] it can be built with, the deployed forward matches the
//! training-path forward within `1e-4` per output value (integer-exact
//! binary convolutions; the FP branches round identically up to f32
//! accumulation order, and the transformer's float ops keep the tape's
//! per-element order exactly, so every downstream binarizer takes the
//! sign training took). The contract is enforced by tests in this module,
//! `tests/deploy.rs`, and the examples.
//!
//! [`Method`]: scales_core::Method

use crate::common::SrNetwork;
use scales_core::{DeployedBodyConv, FloatConv2d};
use scales_data::Image;
use scales_tensor::ops::sigmoid;
use scales_tensor::workspace::ConvScratch;
use scales_tensor::{Result, TensorError};

/// Identifies a value in the deployed op graph (0 is the network input;
/// op `i` produces value `i + 1`).
pub type ValueId = usize;

/// A full-precision `Conv2d` layer (weight, optional bias, spec) in deployed
/// form.
fn lower_conv(conv: &scales_nn::layers::Conv2d) -> Result<FloatConv2d> {
    use scales_nn::Module as _;
    let bias = conv.params().get(1).map(scales_autograd::Var::value);
    FloatConv2d::new(conv.weight().value(), bias, conv.spec())
}

/// SE-style channel attention in deployed form (RCAN and HAT blocks).
pub struct DeployedChannelAttention {
    down: FloatConv2d,
    up: FloatConv2d,
}

impl DeployedChannelAttention {
    /// Build from the lowered 1×1 squeeze/excite convolutions.
    #[must_use]
    pub fn new(down: FloatConv2d, up: FloatConv2d) -> Self {
        Self { down, up }
    }

    /// Lower a trained gate (RCAN blocks, HAT's channel-attention branch).
    ///
    /// # Errors
    ///
    /// Propagates malformed-tensor errors.
    pub(crate) fn from_trained(ca: &crate::common::ChannelAttention) -> Result<Self> {
        Ok(Self { down: lower_conv(ca.down())?, up: lower_conv(ca.up())? })
    }

    /// The 1×1 squeeze convolution (for serialization).
    #[must_use]
    pub fn down(&self) -> &FloatConv2d {
        &self.down
    }

    /// The 1×1 excite convolution (for serialization).
    #[must_use]
    pub fn up(&self) -> &FloatConv2d {
        &self.up
    }

    /// The gate — global average pool → 1×1 squeeze → ReLU → 1×1 excite →
    /// sigmoid → per-channel multiply — with the pooled activations, both
    /// convolutions and the gate staged in [`ConvScratch`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_into(
        &self,
        x: &[f32],
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        scratch: &mut ConvScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let cr = self.down.out_channels();
        if self.up.out_channels() != c {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![self.up.out_channels()],
                rhs: vec![c],
                op: "channel attention excite width",
            });
        }
        let hw = h * w;
        if x.len() != n * c * hw {
            return Err(TensorError::LengthMismatch { expected: n * c * hw, actual: x.len() });
        }
        if out.len() != n * c * hw {
            return Err(TensorError::LengthMismatch { expected: n * c * hw, actual: out.len() });
        }
        let ConvScratch { padded, chan, chan2, .. } = scratch;
        let pooled = scales_tensor::workspace::sized(chan, n * c);
        scales_tensor::ops::global_avg_pool_into(x, n, c, hw, pooled);
        let mid = scales_tensor::workspace::sized(chan2, n * cr);
        self.down.forward_into(pooled, n, 1, 1, padded, mid)?;
        mid.iter_mut().for_each(|v| *v = v.max(0.0));
        // The excite conv writes back over the (now dead) pooled buffer.
        self.up.forward_into(mid, n, 1, 1, padded, pooled)?;
        pooled.iter_mut().for_each(|v| *v = sigmoid(*v));
        for b in 0..n {
            for ci in 0..c {
                let g = pooled[b * c + ci];
                let base = (b * c + ci) * hw;
                for (o, &v) in out[base..base + hw].iter_mut().zip(&x[base..base + hw]) {
                    *o = v * g;
                }
            }
        }
        Ok(())
    }
}

/// One node of the deployed graph. Each op reads previously produced
/// values and emits exactly one new value.
pub enum DeployedOp {
    /// Full-precision convolution (head, tail, RDN fusions).
    FloatConv {
        /// The lowered convolution.
        conv: FloatConv2d,
        /// Input value.
        src: ValueId,
    },
    /// A lowered body convolution of any method.
    Body {
        /// The lowered layer.
        conv: Box<DeployedBodyConv>,
        /// Input value.
        src: ValueId,
    },
    /// Elementwise `max(0, x)`.
    Relu {
        /// Input value.
        src: ValueId,
    },
    /// PReLU with a single learned negative slope.
    Prelu {
        /// Negative-region slope.
        slope: f32,
        /// Input value.
        src: ValueId,
    },
    /// Elementwise sum of two values of identical shape.
    Add {
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Channel-axis concatenation.
    Concat {
        /// Operands, in order.
        srcs: Vec<ValueId>,
    },
    /// SE-style channel attention gate.
    ChannelAttention {
        /// The lowered gate.
        ca: DeployedChannelAttention,
        /// Input value.
        src: ValueId,
    },
    /// Sub-pixel upsample.
    PixelShuffle {
        /// Upscale factor.
        factor: usize,
        /// Input value.
        src: ValueId,
    },
    /// Bicubic upsample of a batch (the FP global skip).
    BicubicUp {
        /// Upscale factor.
        scale: usize,
        /// Input value.
        src: ValueId,
    },
    /// LayerNorm per pixel across channels ([`scales_tensor::ops::layer_norm_into`]).
    LayerNorm {
        /// Per-channel gain.
        gamma: Vec<f32>,
        /// Per-channel shift.
        beta: Vec<f32>,
        /// Variance floor added before the square root.
        eps: f32,
        /// Input value.
        src: ValueId,
    },
    /// Single-head self-attention inside non-overlapping pixel windows
    /// ([`scales_tensor::ops::window_attention_into`]).
    WindowAttention {
        /// Window side; must divide both spatial extents.
        window: usize,
        /// Query map.
        q: ValueId,
        /// Key map.
        k: ValueId,
        /// Value map.
        v: ValueId,
    },
    /// Elementwise GELU ([`scales_tensor::ops::gelu`]).
    Gelu {
        /// Input value.
        src: ValueId,
    },
    /// Elementwise multiply by a constant.
    Scale {
        /// The constant.
        factor: f32,
        /// Input value.
        src: ValueId,
    },
}

/// A borrowed, allocation-free view of one op's input values: ops of fixed
/// arity store their ids inline, `Concat` hands out its slice. This
/// keeps the planner's walk free of a `Vec` per op.
pub(crate) enum OpInputs<'a> {
    One([ValueId; 1]),
    Two([ValueId; 2]),
    Three([ValueId; 3]),
    Many(&'a [ValueId]),
}

impl OpInputs<'_> {
    /// The input ids, in op order.
    pub(crate) fn as_slice(&self) -> &[ValueId] {
        match self {
            OpInputs::One(ids) => ids,
            OpInputs::Two(ids) => ids,
            OpInputs::Three(ids) => ids,
            OpInputs::Many(ids) => ids,
        }
    }
}

impl DeployedOp {
    /// Stable kind label of this op — the key the planned executor's
    /// opt-in profiler accumulates under and the `op` label value of the
    /// `scales_plan_op_*` Prometheus series. Distinguishes the serving
    /// cost centers: binary body GEMM vs float GEMM vs activations vs
    /// upsample.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DeployedOp::FloatConv { .. } => "float_conv",
            DeployedOp::Body { .. } => "body_conv",
            DeployedOp::Relu { .. } => "relu",
            DeployedOp::Prelu { .. } => "prelu",
            DeployedOp::Add { .. } => "add",
            DeployedOp::Concat { .. } => "concat",
            DeployedOp::ChannelAttention { .. } => "channel_attention",
            DeployedOp::PixelShuffle { .. } => "pixel_shuffle",
            DeployedOp::BicubicUp { .. } => "bicubic_up",
            DeployedOp::LayerNorm { .. } => "layer_norm",
            DeployedOp::WindowAttention { .. } => "window_attention",
            DeployedOp::Gelu { .. } => "gelu",
            DeployedOp::Scale { .. } => "scale",
        }
    }

    pub(crate) fn inputs(&self) -> OpInputs<'_> {
        match self {
            DeployedOp::FloatConv { src, .. }
            | DeployedOp::Body { src, .. }
            | DeployedOp::Relu { src }
            | DeployedOp::Prelu { src, .. }
            | DeployedOp::ChannelAttention { src, .. }
            | DeployedOp::PixelShuffle { src, .. }
            | DeployedOp::BicubicUp { src, .. }
            | DeployedOp::LayerNorm { src, .. }
            | DeployedOp::Gelu { src }
            | DeployedOp::Scale { src, .. } => OpInputs::One([*src]),
            DeployedOp::Add { lhs, rhs } => OpInputs::Two([*lhs, *rhs]),
            DeployedOp::WindowAttention { q, k, v, .. } => OpInputs::Three([*q, *k, *v]),
            DeployedOp::Concat { srcs } => OpInputs::Many(srcs),
        }
    }
}

/// A trained SR network lowered whole to its deployment form.
pub struct DeployedNetwork {
    ops: Vec<DeployedOp>,
    output: ValueId,
    scale: usize,
    name: String,
    /// For each value id, the index of the last op consuming it
    /// (`usize::MAX` when never consumed).
    last_use: Vec<usize>,
}

impl DeployedNetwork {
    /// Upscaling factor of the lowered network.
    #[must_use]
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Architecture name this graph was lowered from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ops in the graph.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The ops of the graph in execution order (op `i` produces value
    /// `i + 1`; value 0 is the network input). This is the walk the
    /// `scales-io` artifact writer serializes; rebuilding is pushing the
    /// same ops through a [`DeployedNetworkBuilder`] and sealing with
    /// [`DeployedNetwork::output`].
    #[must_use]
    pub fn ops(&self) -> &[DeployedOp] {
        &self.ops
    }

    /// The value id the graph returns.
    #[must_use]
    pub fn output(&self) -> ValueId {
        self.output
    }

    /// For each value id, the index of the last op consuming it
    /// (`usize::MAX` when never consumed) — the liveness table the memory
    /// planner walks.
    pub(crate) fn last_use(&self) -> &[usize] {
        &self.last_use
    }

    /// Number of bit-packed (binary) body convolutions in the graph.
    #[must_use]
    pub fn packed_layers(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    DeployedOp::Body { conv, .. } if !matches!(**conv, DeployedBodyConv::Float(_))
                )
            })
            .count()
    }

    /// Super-resolve a single image (batch-of-one convenience, mirroring
    /// [`SrNetwork::super_resolve`]).
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn super_resolve(&self, lr: &Image) -> Result<Image> {
        let t = lr.tensor();
        let (c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
        let y = self.forward(&t.reshape(&[1, c, h, w])?)?;
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        Image::from_tensor(y.reshape(&[3, oh, ow])?)
    }
}

/// Incrementally assembles a [`DeployedNetwork`]; used by each
/// architecture's `lower()` implementation.
pub struct DeployedNetworkBuilder {
    ops: Vec<DeployedOp>,
    scale: usize,
    name: String,
}

impl DeployedNetworkBuilder {
    /// Start a graph for a network with the given name and upscale factor.
    #[must_use]
    pub fn new(name: &str, scale: usize) -> Self {
        Self { ops: Vec::new(), scale, name: name.to_string() }
    }

    /// The network-input value.
    #[must_use]
    pub fn input(&self) -> ValueId {
        0
    }

    /// Append an op, returning the id of the value it produces.
    pub fn push(&mut self, op: DeployedOp) -> ValueId {
        self.ops.push(op);
        self.ops.len()
    }

    /// Lower a full-precision `Conv2d` layer (weight, optional bias, spec).
    ///
    /// # Errors
    ///
    /// Propagates malformed-tensor errors.
    pub fn float_conv(&mut self, conv: &scales_nn::layers::Conv2d, src: ValueId) -> Result<ValueId> {
        Ok(self.push(DeployedOp::FloatConv { conv: lower_conv(conv)?, src }))
    }

    /// Lower a trained body convolution of any method.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn body(&mut self, conv: &scales_core::BodyConv, src: ValueId) -> Result<ValueId> {
        let lowered = DeployedBodyConv::from_trained(conv)?;
        Ok(self.push(DeployedOp::Body { conv: Box::new(lowered), src }))
    }

    /// Lower a trained transformer body linear of any method to the `k = 1`
    /// body convolution it is on the NCHW feature map.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn body_linear(&mut self, linear: &scales_core::BodyLinear, src: ValueId) -> Result<ValueId> {
        let lowered = DeployedBodyConv::from_trained_linear(linear)?;
        Ok(self.push(DeployedOp::Body { conv: Box::new(lowered), src }))
    }

    /// Lower a trained `LayerNorm` (normalising across channels per pixel).
    pub fn layer_norm(&mut self, ln: &scales_nn::layers::LayerNorm, src: ValueId) -> ValueId {
        use scales_nn::Module as _;
        // Stable param order: [gamma, beta].
        let params = ln.params();
        let (gamma, beta) = (params[0].value().data().to_vec(), params[1].value().data().to_vec());
        self.push(DeployedOp::LayerNorm { gamma, beta, eps: ln.eps(), src })
    }

    /// Append single-head window self-attention over `q`, `k`, `v`.
    pub fn window_attention(&mut self, window: usize, q: ValueId, k: ValueId, v: ValueId) -> ValueId {
        self.push(DeployedOp::WindowAttention { window, q, k, v })
    }

    /// Append a GELU.
    pub fn gelu(&mut self, src: ValueId) -> ValueId {
        self.push(DeployedOp::Gelu { src })
    }

    /// Append a multiply by a constant.
    pub fn scale(&mut self, factor: f32, src: ValueId) -> ValueId {
        self.push(DeployedOp::Scale { factor, src })
    }

    /// Append a ReLU.
    pub fn relu(&mut self, src: ValueId) -> ValueId {
        self.push(DeployedOp::Relu { src })
    }

    /// Append a PReLU with the given slope.
    pub fn prelu(&mut self, slope: f32, src: ValueId) -> ValueId {
        self.push(DeployedOp::Prelu { slope, src })
    }

    /// Append an elementwise sum.
    pub fn add(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(DeployedOp::Add { lhs, rhs })
    }

    /// Append a channel concat (a single operand passes through without a
    /// copy).
    pub fn concat(&mut self, srcs: Vec<ValueId>) -> ValueId {
        if srcs.len() == 1 {
            return srcs[0];
        }
        self.push(DeployedOp::Concat { srcs })
    }

    /// Lower a trained channel-attention gate.
    ///
    /// # Errors
    ///
    /// Propagates malformed-tensor errors.
    pub fn channel_attention(
        &mut self,
        ca: &crate::common::ChannelAttention,
        src: ValueId,
    ) -> Result<ValueId> {
        let ca = DeployedChannelAttention::from_trained(ca)?;
        Ok(self.push(DeployedOp::ChannelAttention { ca, src }))
    }

    /// Append the tail upsample (identity at ×1).
    pub fn pixel_shuffle(&mut self, factor: usize, src: ValueId) -> ValueId {
        if factor == 1 {
            return src;
        }
        self.push(DeployedOp::PixelShuffle { factor, src })
    }

    /// Append the bicubic FP global skip.
    pub fn bicubic_up(&mut self, scale: usize, src: ValueId) -> ValueId {
        self.push(DeployedOp::BicubicUp { scale, src })
    }

    /// Seal the graph with its output value. Ids are not validated here:
    /// an op reading a value that does not exist before it, or an output
    /// that no op produces, is a typed error at [`DeployedNetwork::plan`].
    #[must_use]
    pub fn finish(self, output: ValueId) -> DeployedNetwork {
        let mut last_use = vec![usize::MAX; self.ops.len() + 1];
        for (i, op) in self.ops.iter().enumerate() {
            for &id in op.inputs().as_slice() {
                if let Some(last) = last_use.get_mut(id) {
                    *last = i;
                }
            }
        }
        DeployedNetwork { ops: self.ops, output, scale: self.scale, name: self.name, last_use }
    }
}

/// Lower a trained network behind a `dyn SrNetwork` handle.
///
/// # Errors
///
/// Propagates the architecture's lowering errors (malformed trained
/// tensors; no in-tree architecture lacks a lowering).
pub fn lower(net: &dyn SrNetwork) -> Result<DeployedNetwork> {
    net.lower()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SrConfig;
    use crate::{edsr, rcan, rdn, srresnet};
    use scales_autograd::Var;
    use scales_core::Method;
    use scales_tensor::Tensor;

    fn probe(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            (0..c * h * w).map(|i| ((i as f32) * 0.11).sin() * 0.4 + 0.5).collect(),
            &[1, c, h, w],
        )
        .unwrap()
    }

    fn assert_equiv(net: &dyn SrNetwork, input: &Tensor, label: &str) {
        let deployed = net.lower().unwrap();
        let reference = net.forward(&Var::new(input.clone())).unwrap().value();
        let fast = deployed.forward(input).unwrap();
        assert_eq!(fast.shape(), reference.shape(), "{label}");
        let mut worst = 0.0f32;
        for (a, b) in fast.data().iter().zip(reference.data().iter()) {
            worst = worst.max((a - b).abs());
        }
        assert!(worst < 1e-4, "{label}: worst |err| = {worst}");
    }

    #[test]
    fn lowered_srresnet_matches_training_path() {
        let x = probe(3, 8, 8);
        for m in [Method::FullPrecision, Method::E2fif, Method::scales()] {
            let net =
                srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: m, seed: 11 }).unwrap();
            assert_equiv(&net, &x, &format!("SRResNet/{m}"));
        }
    }

    #[test]
    fn lowered_edsr_matches_training_path() {
        let x = probe(3, 8, 8);
        let net =
            edsr(SrConfig { channels: 8, blocks: 2, scale: 2, method: Method::scales(), seed: 12 })
                .unwrap();
        assert_equiv(&net, &x, "EDSR/SCALES");
    }

    #[test]
    fn lowered_rdn_matches_training_path() {
        let x = probe(3, 8, 8);
        for m in [Method::FullPrecision, Method::scales()] {
            let net = rdn(SrConfig { channels: 8, blocks: 2, scale: 2, method: m, seed: 13 }).unwrap();
            assert_equiv(&net, &x, &format!("RDN/{m}"));
        }
    }

    #[test]
    fn lowered_rcan_matches_training_path() {
        let x = probe(3, 8, 8);
        for m in [Method::FullPrecision, Method::Btm, Method::scales()] {
            let net = rcan(SrConfig { channels: 8, blocks: 1, scale: 2, method: m, seed: 14 }).unwrap();
            assert_equiv(&net, &x, &format!("RCAN/{m}"));
        }
    }

    #[test]
    fn lowered_network_counts_packed_layers() {
        let net =
            srresnet(SrConfig { channels: 8, blocks: 2, scale: 2, method: Method::scales(), seed: 15 })
                .unwrap();
        let deployed = net.lower().unwrap();
        // 2 blocks × 2 convs + body-end conv, all binary.
        assert_eq!(deployed.packed_layers(), 5);
        assert_eq!(deployed.scale(), 2);
        assert_eq!(deployed.name(), "SRResNet");
    }

    #[test]
    fn fp_network_has_no_packed_layers() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::FullPrecision,
            seed: 16,
        })
        .unwrap();
        assert_eq!(net.lower().unwrap().packed_layers(), 0);
    }

    #[test]
    fn deployed_super_resolve_roundtrip() {
        let net =
            srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 17 })
                .unwrap();
        let deployed = net.lower().unwrap();
        let img = Image::zeros(8, 8);
        let sr = deployed.super_resolve(&img).unwrap();
        assert_eq!((sr.height(), sr.width()), (16, 16));
    }

    #[test]
    fn deployed_forward_handles_batches() {
        let net =
            srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 18 })
                .unwrap();
        let deployed = net.lower().unwrap();
        let one = probe(3, 6, 6);
        let mut batch_data = one.data().to_vec();
        batch_data.extend(one.data().iter().map(|v| 1.0 - v));
        let batch = Tensor::from_vec(batch_data, &[2, 3, 6, 6]).unwrap();
        let y = deployed.forward(&batch).unwrap();
        assert_eq!(y.shape(), &[2, 3, 12, 12]);
        // First batch entry must match the single-image forward exactly
        // (all ops are batch-local for this config... except the channel
        // re-scaling GAP, which is per-image, so equality holds).
        let y1 = deployed.forward(&one).unwrap();
        for (a, b) in y.data()[..y1.len()].iter().zip(y1.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn lowered_transformers_match_training_path() {
        // The inversion of the old "no lowering" pin: both transformer
        // archs lower for every method a `BodyLinear` can build, pack
        // every binary layer, and match the tape. 8×12 is window-aligned
        // and non-square.
        let x = probe(3, 8, 12);
        for (arch, build) in [("SwinIR", crate::swinir as fn(SrConfig) -> _), ("HAT", crate::hat)] {
            for m in [Method::FullPrecision, Method::Bibert, Method::scales()] {
                let net =
                    build(SrConfig { channels: 8, blocks: 2, scale: 2, method: m, seed: 19 }).unwrap();
                let deployed = net.lower().unwrap();
                assert_eq!(deployed.name(), arch);
                // Per block 6 linears + 1 conv, plus the body-end conv.
                let packed = if m == Method::FullPrecision { 0 } else { 2 * 7 + 1 };
                assert_eq!(deployed.packed_layers(), packed, "{arch}/{m}");
                assert_equiv(&net, &x, &format!("{arch}/{m}"));
            }
        }
    }

    #[test]
    fn new_ops_are_named_for_the_profiler() {
        let net = crate::hat(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 20 })
            .unwrap();
        let deployed = net.lower().unwrap();
        let kinds: Vec<&str> = deployed.ops().iter().map(DeployedOp::kind).collect();
        for kind in ["layer_norm", "window_attention", "gelu", "scale", "channel_attention", "body_conv"] {
            assert!(kinds.contains(&kind), "{kind} missing from {kinds:?}");
        }
    }
}
