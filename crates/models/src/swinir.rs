//! SwinIR-lite and HAT-lite — the transformer SR networks of Table IV and
//! the Fig. 5 motivation study.
//!
//! Both follow the Fig. 2 skeleton with transformer basic blocks in the
//! body; HAT-lite additionally activates the channel-attention branch in
//! every block (see [`crate::transformer`]).
//!
//! Both lower to the packed, planned deployment graph like the CNN family
//! ([`SrNetwork::lower`]): the head, tail and bicubic skip are the usual
//! float ops, and each block is the NCHW-native op sequence of
//! [`TransformerBlock::lower`](crate::transformer::TransformerBlock) — every
//! binary linear a `k = 1` body convolution on the fused XNOR-popcount
//! kernel. Inputs must be divisible by [`WINDOW`]; anything else is a typed
//! planning error, not a panic.

use crate::arch::Arch;
use crate::common::{bicubic_skip, head_cost, tail_cost, Head, SrConfig, SrNetwork, Tail};
use crate::probe::Recorder;
use crate::transformer::TransformerBlock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scales_autograd::Var;
use scales_binary::CostReport;
use scales_core::BodyConv;
use scales_nn::Module;
use scales_tensor::Result;

/// Default attention window (inputs must be divisible by it).
pub const WINDOW: usize = 4;

/// Transformer SR network (SwinIR-lite skeleton; HAT-lite when built with
/// [`hat`]).
pub struct SwinSr {
    head: Head,
    blocks: Vec<TransformerBlock>,
    body_end: BodyConv,
    tail: Tail,
    config: SrConfig,
    arch: Arch,
}

fn build(config: SrConfig, with_cab: bool, arch: Arch) -> Result<SwinSr> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let c = config.channels;
    let head = Head::new(c, &mut rng);
    let mut blocks = Vec::with_capacity(config.blocks);
    for _ in 0..config.blocks {
        blocks.push(TransformerBlock::new(c, WINDOW, config.method, with_cab, &mut rng)?);
    }
    let body_end = BodyConv::new(config.method, c, c, 3, &mut rng)?;
    let tail = Tail::new(c, config.scale, &mut rng);
    Ok(SwinSr { head, blocks, body_end, tail, config, arch })
}

/// Build a SwinIR-lite network.
///
/// # Errors
///
/// Returns an error for invalid configurations or CNN-only methods.
pub fn swinir(config: SrConfig) -> Result<SwinSr> {
    build(config, false, Arch::SwinIr)
}

/// Build a HAT-lite network (SwinIR-lite + channel-attention branches).
///
/// # Errors
///
/// Returns an error for invalid configurations or CNN-only methods.
pub fn hat(config: SrConfig) -> Result<SwinSr> {
    build(config, true, Arch::Hat)
}

impl SwinSr {
    /// Architecture name (`"SwinIR"` or `"HAT"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.arch.name()
    }

    fn forward_impl(&self, input: &Var, mut recorder: Option<&mut Recorder>) -> Result<Var> {
        let shallow = self.head.forward(input)?;
        let mut x = shallow.clone();
        for b in &self.blocks {
            x = b.forward_features(&x, recorder.as_deref_mut())?;
        }
        let deep = self.body_end.forward(&x)?;
        let fused = deep.add(&shallow)?;
        let out = self.tail.forward(&fused)?;
        out.add(&bicubic_skip(input, self.config.scale)?)
    }
}

impl Module for SwinSr {
    fn forward(&self, input: &Var) -> Result<Var> {
        self.forward_impl(input, None)
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.head.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.body_end.params());
        p.extend(self.tail.params());
        p
    }
}

impl SrNetwork for SwinSr {
    fn scale(&self) -> usize {
        self.config.scale
    }

    fn arch(&self) -> Arch {
        self.arch
    }

    fn config(&self) -> SrConfig {
        self.config
    }

    fn lower(&self) -> Result<crate::deploy::DeployedNetwork> {
        let mut b = crate::deploy::DeployedNetworkBuilder::new(self.arch.name(), self.config.scale);
        let input = b.input();
        let shallow = b.float_conv(self.head.conv(), input)?;
        let mut x = shallow;
        for block in &self.blocks {
            x = block.lower(&mut b, x)?;
        }
        let deep = b.body(&self.body_end, x)?;
        let fused = b.add(deep, shallow);
        let tail = b.float_conv(self.tail.conv(), fused)?;
        let up = b.pixel_shuffle(self.tail.factor(), tail);
        let skip = b.bicubic_up(self.config.scale, input);
        let out = b.add(up, skip);
        Ok(b.finish(out))
    }

    fn cost(&self, lr_h: usize, lr_w: usize) -> CostReport {
        let c = self.config.channels;
        let mut r = head_cost(c, lr_h, lr_w);
        for b in &self.blocks {
            r.add(b.cost(self.config.method, lr_h, lr_w));
        }
        r.add(crate::cost::body_conv_cost(self.config.method, c, c, 3, lr_h, lr_w));
        r.add(tail_cost(c, self.config.scale, lr_h, lr_w));
        r
    }

    fn clamp_alphas(&self) {
        for b in &self.blocks {
            b.clamp_alphas();
        }
        self.body_end.clamp_alpha(1e-3);
    }

    fn forward_recorded(&self, input: &Var, recorder: &mut Recorder) -> Result<Var> {
        self.forward_impl(input, Some(recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_core::Method;
    use scales_tensor::Tensor;

    fn tiny(method: Method, scale: usize) -> SrConfig {
        SrConfig { channels: 8, blocks: 1, scale, method, seed: 11 }
    }

    #[test]
    fn swinir_forward_all_methods() {
        let x = Var::new(Tensor::from_vec(
            (0..3 * 64).map(|i| (i as f32 * 0.23).sin() * 0.4 + 0.5).collect(),
            &[1, 3, 8, 8],
        ).unwrap());
        for m in [Method::FullPrecision, Method::Bibert, Method::scales()] {
            let net = swinir(tiny(m, 2)).unwrap();
            assert_eq!(net.forward(&x).unwrap().shape(), vec![1, 3, 16, 16], "{m}");
        }
    }

    #[test]
    fn hat_forward_and_extra_params() {
        let s = swinir(tiny(Method::scales(), 2)).unwrap();
        let h = hat(tiny(Method::scales(), 2)).unwrap();
        assert!(h.param_count() > s.param_count(), "CAB adds parameters");
        let x = Var::new(Tensor::ones(&[1, 3, 8, 8]));
        assert_eq!(h.forward(&x).unwrap().shape(), vec![1, 3, 16, 16]);
    }

    #[test]
    fn recorder_counts_match_structure() {
        let net = swinir(tiny(Method::Bibert, 2)).unwrap();
        let x = Var::new(Tensor::ones(&[1, 3, 8, 8]));
        let mut rec = Recorder::new();
        net.forward_recorded(&x, &mut rec).unwrap();
        assert_eq!(rec.len(), 5); // 1 block × 5 recorded activations
    }

    #[test]
    fn cost_binary_far_below_fp() {
        // Paper-scale config: body linears dominate and the Table IV
        // parameter/ops reductions (~10×) appear.
        let big = |m| SrConfig { channels: 60, blocks: 8, scale: 2, method: m, seed: 11 };
        let fp = swinir(big(Method::FullPrecision)).unwrap();
        let bi = swinir(big(Method::Bibert)).unwrap();
        assert!(bi.cost(320, 320).effective_ops() < fp.cost(320, 320).effective_ops() / 5.0);
        assert!(bi.cost(320, 320).effective_params() < fp.cost(320, 320).effective_params() / 5.0);
    }

    #[test]
    fn grads_flow_end_to_end() {
        let net = hat(tiny(Method::scales(), 2)).unwrap();
        let x = Var::new(Tensor::from_vec(
            (0..3 * 64).map(|i| (i as f32 * 0.7).cos() * 0.3 + 0.5).collect(),
            &[1, 3, 8, 8],
        ).unwrap());
        net.forward(&x).unwrap().sum_all().unwrap().backward().unwrap();
        assert!(net.params().iter().all(|p| p.grad().is_some()));
    }
}
