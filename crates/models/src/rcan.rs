//! RCAN-lite — residual channel attention network (Zhang et al. 2018) at
//! reduced scale. Blocks are conv → ReLU → conv followed by an SE-style
//! channel attention gate (kept full-precision, as in binary RCAN
//! variants), inside a residual group with its own skip.

use crate::common::{bicubic_skip, head_cost, tail_cost, ChannelAttention, Head, SrConfig, SrNetwork, Tail, CA_REDUCTION as REDUCTION};
use crate::cost::body_conv_cost;
use crate::probe::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scales_autograd::Var;
use scales_binary::CostReport;
use scales_core::{BodyConv, Method};
use scales_nn::Module;
use scales_tensor::Result;

struct RcabBlock {
    conv1: BodyConv,
    conv2: BodyConv,
    ca: ChannelAttention,
    binary: bool,
}

impl RcabBlock {
    fn new(channels: usize, method: Method, rng: &mut StdRng) -> Result<Self> {
        Ok(Self {
            conv1: BodyConv::new(method, channels, channels, 3, rng)?,
            conv2: BodyConv::new(method, channels, channels, 3, rng)?,
            ca: ChannelAttention::new(channels, rng),
            binary: method.is_binary(),
        })
    }

    fn forward(&self, x: &Var, recorder: Option<&mut Recorder>) -> Result<Var> {
        if let Some(r) = recorder {
            r.record(x)?;
        }
        let y = if self.binary {
            let mid = self.conv1.forward(x)?;
            self.conv2.forward(&mid)?
        } else {
            let mid = self.conv1.forward(x)?.relu();
            self.conv2.forward(&mid)?
        };
        let gated = self.ca.forward(&y)?;
        if self.binary {
            Ok(gated) // body convs already carry identity skips
        } else {
            gated.add(x)
        }
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        p.extend(self.ca.params());
        p
    }
}

/// RCAN-lite network (a single residual group of RCAB blocks).
pub struct Rcan {
    head: Head,
    blocks: Vec<RcabBlock>,
    group_end: BodyConv,
    tail: Tail,
    config: SrConfig,
}

/// Build an RCAN-lite for a configuration.
///
/// # Errors
///
/// Returns an error for invalid configurations or methods without a CNN
/// body.
pub fn rcan(config: SrConfig) -> Result<Rcan> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let c = config.channels;
    let head = Head::new(c, &mut rng);
    let mut blocks = Vec::with_capacity(config.blocks);
    for _ in 0..config.blocks {
        blocks.push(RcabBlock::new(c, config.method, &mut rng)?);
    }
    let group_end = BodyConv::new(config.method, c, c, 3, &mut rng)?;
    let tail = Tail::new(c, config.scale, &mut rng);
    Ok(Rcan { head, blocks, group_end, tail, config })
}

impl Rcan {
    fn forward_impl(&self, input: &Var, mut recorder: Option<&mut Recorder>) -> Result<Var> {
        let shallow = self.head.forward(input)?;
        let mut x = shallow.clone();
        for b in &self.blocks {
            x = b.forward(&x, recorder.as_deref_mut())?;
        }
        let deep = self.group_end.forward(&x)?.add(&shallow)?;
        let out = self.tail.forward(&deep)?;
        out.add(&bicubic_skip(input, self.config.scale)?)
    }
}

impl Module for Rcan {
    fn forward(&self, input: &Var) -> Result<Var> {
        self.forward_impl(input, None)
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.head.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.group_end.params());
        p.extend(self.tail.params());
        p
    }
}

impl SrNetwork for Rcan {
    fn scale(&self) -> usize {
        self.config.scale
    }

    fn arch(&self) -> crate::Arch {
        crate::Arch::Rcan
    }

    fn lower(&self) -> Result<crate::deploy::DeployedNetwork> {
        use crate::deploy::DeployedNetworkBuilder;
        let mut b = DeployedNetworkBuilder::new("RCAN", self.config.scale);
        let input = b.input();
        let shallow = b.float_conv(self.head.conv(), input)?;
        let mut x = shallow;
        for block in &self.blocks {
            let y = if block.binary {
                let mid = b.body(&block.conv1, x)?;
                b.body(&block.conv2, mid)?
            } else {
                let mid = b.body(&block.conv1, x)?;
                let mid = b.relu(mid);
                b.body(&block.conv2, mid)?
            };
            let gated = b.channel_attention(&block.ca, y)?;
            // Binary body convs already carry identity skips.
            x = if block.binary { gated } else { b.add(gated, x) };
        }
        let end = b.body(&self.group_end, x)?;
        let deep = b.add(end, shallow);
        let tail = b.float_conv(self.tail.conv(), deep)?;
        let up = b.pixel_shuffle(self.tail.factor(), tail);
        let skip = b.bicubic_up(self.config.scale, input);
        let out = b.add(up, skip);
        Ok(b.finish(out))
    }

    fn config(&self) -> SrConfig {
        self.config
    }

    fn cost(&self, lr_h: usize, lr_w: usize) -> CostReport {
        let c = self.config.channels;
        let mut r = head_cost(c, lr_h, lr_w);
        for _ in &self.blocks {
            r.add(body_conv_cost(self.config.method, c, c, 3, lr_h, lr_w));
            r.add(body_conv_cost(self.config.method, c, c, 3, lr_h, lr_w));
            r.add(scales_binary::count::se_block_cost(c, REDUCTION, lr_h, lr_w));
        }
        r.add(body_conv_cost(self.config.method, c, c, 3, lr_h, lr_w));
        r.add(tail_cost(c, self.config.scale, lr_h, lr_w));
        r
    }

    fn clamp_alphas(&self) {
        for b in &self.blocks {
            b.conv1.clamp_alpha(1e-3);
            b.conv2.clamp_alpha(1e-3);
        }
        self.group_end.clamp_alpha(1e-3);
    }

    fn forward_recorded(&self, input: &Var, recorder: &mut Recorder) -> Result<Var> {
        self.forward_impl(input, Some(recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_tensor::Tensor;

    #[test]
    fn rcan_forward_all_methods() {
        let x = Var::new(Tensor::from_vec(
            (0..3 * 36).map(|i| (i as f32 * 0.31).cos() * 0.4 + 0.5).collect(),
            &[1, 3, 6, 6],
        ).unwrap());
        for m in [Method::FullPrecision, Method::Btm, Method::scales()] {
            let net = rcan(SrConfig { channels: 8, blocks: 1, scale: 2, method: m, seed: 5 }).unwrap();
            assert_eq!(net.forward(&x).unwrap().shape(), vec![1, 3, 12, 12], "{m}");
        }
    }

    #[test]
    fn grads_flow() {
        let net = rcan(SrConfig { channels: 4, blocks: 1, scale: 2, method: Method::scales(), seed: 5 }).unwrap();
        let x = Var::new(Tensor::ones(&[1, 3, 4, 4]));
        net.forward(&x).unwrap().sum_all().unwrap().backward().unwrap();
        assert!(net.params().iter().all(|p| p.grad().is_some()));
    }
}
