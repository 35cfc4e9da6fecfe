//! The shared Swin-style transformer block used by SwinIR-lite and
//! HAT-lite (paper Fig. 2, right).
//!
//! Per block: window-partition the feature map into `ws×ws` token groups,
//! run pre-LN window self-attention and a pre-LN MLP (both with
//! method-parameterised linears), merge the windows back, and finish with a
//! 3×3 body convolution. HAT-lite additionally gates the conv output with a
//! full-precision channel-attention branch (its CAB), which is the
//! architectural delta the HAT paper adds over SwinIR.
//!
//! LayerNorm and softmax stay full precision, as in every published binary
//! transformer. Attention here is single-head: at lite widths (≤ 32
//! channels) multiple heads only shrink the per-head dimension without
//! changing the binarization behaviour being studied.
//!
//! The token layout is a training-path convenience only. [`lower`] emits
//! the block **NCHW-native**: a per-token linear is a 1×1 convolution on
//! the feature map and LayerNorm is per pixel across channels, so the
//! deployed block is `LayerNorm → 3 × Body(k=1) → WindowAttention →
//! Body(k=1) → Add → LayerNorm → Body(k=1) → Gelu → Body(k=1) → Add →
//! Body(k=3) [→ Add(·, Scale{0.1}(ChannelAttention(·)))] → Add`, with
//! every binary linear on the fused XNOR-popcount kernel and the window
//! partition reduced to index arithmetic inside the attention op.
//!
//! [`lower`]: TransformerBlock::lower

use crate::common::ChannelAttention;
use crate::cost::{body_conv_cost, body_linear_cost};
use crate::deploy::{DeployedNetworkBuilder, ValueId};
use crate::probe::Recorder;
use rand::rngs::StdRng;
use scales_autograd::Var;
use scales_binary::CostReport;
use scales_core::{BodyConv, BodyLinear, Method};
use scales_nn::layers::LayerNorm;
use scales_nn::Module;
use scales_tensor::{Result, TensorError};

/// MLP expansion ratio (SwinIR uses 2 for its lightweight variant).
pub const MLP_RATIO: usize = 2;

/// One Swin-style transformer block operating on NCHW features.
pub struct TransformerBlock {
    ln1: LayerNorm,
    q: BodyLinear,
    k: BodyLinear,
    v: BodyLinear,
    proj: BodyLinear,
    ln2: LayerNorm,
    mlp1: BodyLinear,
    mlp2: BodyLinear,
    conv: BodyConv,
    cab: Option<ChannelAttention>,
    channels: usize,
    window: usize,
}

impl TransformerBlock {
    /// Build a block; `with_cab` enables the HAT-style channel-attention
    /// branch.
    ///
    /// # Errors
    ///
    /// Returns an error for methods that cannot build transformer layers.
    pub fn new(
        channels: usize,
        window: usize,
        method: Method,
        with_cab: bool,
        rng: &mut StdRng,
    ) -> Result<Self> {
        Ok(Self {
            ln1: LayerNorm::new(channels),
            q: BodyLinear::new(method, channels, channels, rng)?,
            k: BodyLinear::new(method, channels, channels, rng)?,
            v: BodyLinear::new(method, channels, channels, rng)?,
            proj: BodyLinear::new(method, channels, channels, rng)?,
            ln2: LayerNorm::new(channels),
            mlp1: BodyLinear::new(method, channels, channels * MLP_RATIO, rng)?,
            mlp2: BodyLinear::new(method, channels * MLP_RATIO, channels, rng)?,
            conv: BodyConv::new(method, channels, channels, 3, rng)?,
            cab: with_cab.then(|| ChannelAttention::new(channels, rng)),
            channels,
            window,
        })
    }

    /// Window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    fn attention(&self, tokens: &Var, mut recorder: Option<&mut Recorder>) -> Result<Var> {
        let normed = self.ln1.forward(tokens)?;
        if let Some(r) = recorder.as_deref_mut() {
            r.record_tokens(&normed)?; // input of the q/k/v linears (Fig. 5c, layer 1)
        }
        let q = self.q.forward(&normed)?;
        let k = self.k.forward(&normed)?;
        let v = self.v.forward(&normed)?;
        let scale = 1.0 / (self.channels as f32).sqrt();
        let scores = q.batched_matmul(&k.permute(&[0, 2, 1])?)?.scale(scale);
        let attn = scores.softmax_last_axis()?;
        let ctx = attn.batched_matmul(&v)?;
        if let Some(r) = recorder {
            r.record_tokens(&ctx)?; // input of the projection linear (layer 2)
        }
        let projected = self.proj.forward(&ctx)?;
        tokens.add(&projected)
    }

    fn mlp(&self, tokens: &Var, mut recorder: Option<&mut Recorder>) -> Result<Var> {
        let normed = self.ln2.forward(tokens)?;
        if let Some(r) = recorder.as_deref_mut() {
            r.record_tokens(&normed)?; // input of mlp1 (layer 3)
        }
        let mid = self.mlp1.forward(&normed)?.gelu();
        if let Some(r) = recorder {
            r.record_tokens(&mid)?; // input of mlp2 (layer 4)
        }
        let out = self.mlp2.forward(&mid)?;
        tokens.add(&out)
    }

    /// Run the block on NCHW features.
    ///
    /// # Errors
    ///
    /// Returns an error when the spatial extents are not divisible by the
    /// window size.
    pub fn forward_features(&self, x: &Var, mut recorder: Option<&mut Recorder>) -> Result<Var> {
        let s = x.shape();
        if s.len() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: s.len(), op: "transformer block" });
        }
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let tokens = x.window_partition(self.window)?;
        let t = self.attention(&tokens, recorder.as_deref_mut())?;
        let t = self.mlp(&t, recorder.as_deref_mut())?;
        let merged = t.window_merge(n, c, h, w, self.window)?;
        if let Some(r) = recorder {
            r.record(&merged)?; // input of the block-end conv (Fig. 5d)
        }
        let mut y = self.conv.forward(&merged)?;
        if let Some(cab) = &self.cab {
            y = y.add(&cab.forward(&merged)?.scale(0.1))?;
        }
        y.add(x)
    }

    /// Append this block's deployed ops to `b`, reading the NCHW feature
    /// map `x` and returning the block's output value (see the module docs
    /// for the emitted sequence; it mirrors [`forward_features`] op for op).
    ///
    /// # Errors
    ///
    /// Propagates layer-lowering errors.
    ///
    /// [`forward_features`]: TransformerBlock::forward_features
    pub fn lower(&self, b: &mut DeployedNetworkBuilder, x: ValueId) -> Result<ValueId> {
        let normed = b.layer_norm(&self.ln1, x);
        let q = b.body_linear(&self.q, normed)?;
        let k = b.body_linear(&self.k, normed)?;
        let v = b.body_linear(&self.v, normed)?;
        let ctx = b.window_attention(self.window, q, k, v);
        let projected = b.body_linear(&self.proj, ctx)?;
        let attended = b.add(x, projected);
        let normed = b.layer_norm(&self.ln2, attended);
        let mid = b.body_linear(&self.mlp1, normed)?;
        let mid = b.gelu(mid);
        let mlp = b.body_linear(&self.mlp2, mid)?;
        let merged = b.add(attended, mlp);
        let mut y = b.body(&self.conv, merged)?;
        if let Some(cab) = &self.cab {
            let gated = b.channel_attention(cab, merged)?;
            let gated = b.scale(0.1, gated);
            y = b.add(y, gated);
        }
        Ok(b.add(y, x))
    }

    /// Trainable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Var> {
        let mut p = self.ln1.params();
        for l in [&self.q, &self.k, &self.v, &self.proj, &self.mlp1, &self.mlp2] {
            p.extend(l.params());
        }
        p.extend(self.ln2.params());
        p.extend(self.conv.params());
        if let Some(cab) = &self.cab {
            p.extend(cab.params());
        }
        p
    }

    /// Clamp LSF scales after optimizer steps.
    pub fn clamp_alphas(&self) {
        for l in [&self.q, &self.k, &self.v, &self.proj, &self.mlp1, &self.mlp2] {
            l.clamp_alpha(1e-3);
        }
        self.conv.clamp_alpha(1e-3);
    }

    /// Paper-convention cost of one block at spatial size `h×w` under
    /// `method`.
    #[must_use]
    pub fn cost(&self, method: Method, h: usize, w: usize) -> CostReport {
        let tokens = h * w;
        let c = self.channels;
        let mut r = CostReport::new();
        for _ in 0..4 {
            r.add(body_linear_cost(method, c, c, tokens));
        }
        r.add(body_linear_cost(method, c, c * MLP_RATIO, tokens));
        r.add(body_linear_cost(method, c * MLP_RATIO, c, tokens));
        // Attention score/context matmuls stay FP (softmax path):
        // 2 · tokens · window² · C MACs.
        let ws2 = (self.window * self.window) as u64;
        r.add(CostReport {
            fp_params: 4 * c as u64, // two LayerNorms
            bin_params: 0,
            fp_ops: 2 * tokens as u64 * ws2 * c as u64 + 6 * tokens as u64 * c as u64,
            bin_ops: 0,
        });
        r.add(body_conv_cost(method, c, c, 3, h, w));
        if self.cab.is_some() {
            r.add(scales_binary::count::se_block_cost(c, crate::common::CA_REDUCTION, h, w));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use scales_tensor::Tensor;

    fn block(method: Method, cab: bool) -> TransformerBlock {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        TransformerBlock::new(8, 4, method, cab, &mut rng).unwrap()
    }

    #[test]
    fn block_preserves_shape_all_methods() {
        let x = Var::new(Tensor::from_vec(
            (0..8 * 64).map(|i| (i as f32 * 0.17).sin()).collect(),
            &[1, 8, 8, 8],
        ).unwrap());
        for m in [Method::FullPrecision, Method::Bibert, Method::scales()] {
            let b = block(m, false);
            assert_eq!(b.forward_features(&x, None).unwrap().shape(), vec![1, 8, 8, 8], "{m}");
        }
    }

    #[test]
    fn cab_changes_output() {
        let x = Var::new(Tensor::from_vec(
            (0..8 * 64).map(|i| (i as f32 * 0.17).sin()).collect(),
            &[1, 8, 8, 8],
        ).unwrap());
        let plain = block(Method::FullPrecision, false);
        let hat = block(Method::FullPrecision, true);
        let y1 = plain.forward_features(&x, None).unwrap().value();
        let y2 = hat.forward_features(&x, None).unwrap().value();
        assert_ne!(y1.data(), y2.data());
    }

    #[test]
    fn recorder_captures_five_activations_per_block() {
        let b = block(Method::scales(), false);
        let x = Var::new(Tensor::ones(&[1, 8, 4, 4]));
        let mut rec = Recorder::new();
        b.forward_features(&x, Some(&mut rec)).unwrap();
        // qkv-in, proj-in, mlp1-in, mlp2-in, conv-in.
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn window_divisibility_enforced() {
        let b = block(Method::FullPrecision, false);
        let x = Var::new(Tensor::ones(&[1, 8, 6, 6])); // 6 % 4 != 0
        assert!(b.forward_features(&x, None).is_err());
    }

    #[test]
    fn grads_flow_through_attention() {
        let b = block(Method::scales(), true);
        let x = Var::new(Tensor::from_vec(
            (0..8 * 16).map(|i| (i as f32 * 0.29).cos()).collect(),
            &[1, 8, 4, 4],
        ).unwrap());
        let y = b.forward_features(&x, None).unwrap().sum_all().unwrap();
        y.backward().unwrap();
        let missing = b.params().iter().filter(|p| p.grad().is_none()).count();
        assert_eq!(missing, 0);
    }
}
