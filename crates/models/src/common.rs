//! Shared pieces of every SR architecture: configuration, head/tail
//! modules, the bicubic global skip, and the recording probe used by the
//! motivation study.

use crate::probe::Recorder;
use rand::rngs::StdRng;
use scales_autograd::Var;
use scales_binary::CostReport;
use scales_core::Method;
use scales_data::{resize_bicubic_tensor, Image};
use scales_nn::layers::Conv2d;
use scales_nn::Module;
use scales_tensor::ops::Conv2dSpec;
use scales_tensor::{Result, Tensor, TensorError};

/// Configuration shared by every SR network in the zoo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrConfig {
    /// Body feature channels (the paper uses 64; the lite default is 16).
    pub channels: usize,
    /// Number of body blocks.
    pub blocks: usize,
    /// Upscaling factor (2 or 4 in the paper).
    pub scale: usize,
    /// Binarization method for the body.
    pub method: Method,
    /// RNG seed for weight init.
    pub seed: u64,
}

impl SrConfig {
    /// The lite profile used throughout the reproduction's experiments.
    #[must_use]
    pub fn lite(scale: usize, method: Method) -> Self {
        Self { channels: 16, blocks: 2, scale, method, seed: 1234 }
    }

    /// Validate structural constraints.
    ///
    /// # Errors
    ///
    /// Returns an error for zero extents or an unsupported scale.
    pub fn validate(&self) -> Result<()> {
        if self.channels == 0 || self.blocks == 0 {
            return Err(TensorError::InvalidArgument("channels and blocks must be positive".into()));
        }
        if !matches!(self.scale, 1..=4) {
            return Err(TensorError::InvalidArgument(format!("unsupported scale {}", self.scale)));
        }
        Ok(())
    }
}

/// The common interface of every SR network in the zoo.
///
/// `Send + Sync` is part of the contract: networks are plain parameter
/// data (tape nodes behind `Arc<RwLock>`), so a `&dyn SrNetwork` can be
/// shared across serving threads — the property the `scales-runtime`
/// worker pool is built on. The compile-time checks live in
/// `infer_model.rs` (`engine_surface_is_send_and_sync`).
pub trait SrNetwork: Module + Send + Sync {
    /// Upscaling factor.
    fn scale(&self) -> usize;

    /// Which registry entry built this network — the identity persisted by
    /// `scales-io` checkpoints and resolved back through
    /// [`Arch::build`](crate::Arch::build) at load.
    fn arch(&self) -> crate::Arch;

    /// Model configuration.
    fn config(&self) -> SrConfig;

    /// Effective parameter/operation cost at the given LR input size,
    /// using the paper's counting conventions.
    fn cost(&self, lr_h: usize, lr_w: usize) -> CostReport;

    /// Clamp learnable layer scales after an optimizer step (no-op for
    /// methods without them).
    fn clamp_alphas(&self) {}

    /// Forward with an activation recorder capturing the input of every
    /// body conv/linear (what the binarizer sees).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the forward pass.
    fn forward_recorded(&self, input: &Var, recorder: &mut Recorder) -> Result<Var>;

    /// Lower the whole trained network to the packed deployment engine
    /// (see [`crate::deploy`]). The deployed forward matches this
    /// network's training-path forward within `1e-4`.
    ///
    /// # Errors
    ///
    /// Returns an error when a trained layer's tensors are malformed
    /// (cannot happen for networks built by this crate).
    fn lower(&self) -> Result<crate::deploy::DeployedNetwork>;

    /// Super-resolve a single image (batch-of-one convenience).
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    fn super_resolve(&self, lr: &Image) -> Result<Image> {
        let t = lr.tensor();
        let (c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
        let x = Var::new(t.reshape(&[1, c, h, w])?);
        let y = self.forward(&x)?.value();
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        Image::from_tensor(y.reshape(&[3, oh, ow])?)
    }
}

// Boxed networks (e.g. the `Box<dyn SrNetwork>` handles the registry and
// the checkpoint loader hand out) are networks too: forward every method to
// the boxee so they flow into `InferModel` and the serving layer unchanged.
impl<M: SrNetwork + ?Sized> SrNetwork for Box<M> {
    fn scale(&self) -> usize {
        (**self).scale()
    }
    fn arch(&self) -> crate::Arch {
        (**self).arch()
    }
    fn config(&self) -> SrConfig {
        (**self).config()
    }
    fn cost(&self, lr_h: usize, lr_w: usize) -> CostReport {
        (**self).cost(lr_h, lr_w)
    }
    fn clamp_alphas(&self) {
        (**self).clamp_alphas();
    }
    fn forward_recorded(&self, input: &Var, recorder: &mut Recorder) -> Result<Var> {
        (**self).forward_recorded(input, recorder)
    }
    fn lower(&self) -> Result<crate::deploy::DeployedNetwork> {
        (**self).lower()
    }
    fn super_resolve(&self, lr: &Image) -> Result<Image> {
        (**self).super_resolve(lr)
    }
}

/// Bicubic-upsample the (constant) LR input batch — the full-precision
/// global skip every model adds to its output, following E2FIF's
/// end-to-end FP information flow.
///
/// # Errors
///
/// Propagates resize errors.
pub fn bicubic_skip(input: &Var, scale: usize) -> Result<Var> {
    let t = input.value();
    let (n, c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
    let mut data = Vec::with_capacity(n * c * h * w * scale * scale);
    for b in 0..n {
        let img = t.slice_axis(0, b, 1)?.reshape(&[c, h, w])?;
        let up = resize_bicubic_tensor(&img, h * scale, w * scale)?;
        data.extend_from_slice(up.data());
    }
    Ok(Var::new(Tensor::from_vec(data, &[n, c, h * scale, w * scale])?))
}

/// Standard SR head: one FP 3×3 conv from RGB to body channels (never
/// binarized, per the paper's protocol).
pub struct Head {
    conv: Conv2d,
}

impl Head {
    /// Build the head for `channels` body features.
    #[must_use]
    pub fn new(channels: usize, rng: &mut StdRng) -> Self {
        Self { conv: Conv2d::new(3, channels, 3, rng) }
    }

    /// The underlying convolution (for deployment lowering).
    pub(crate) fn conv(&self) -> &Conv2d {
        &self.conv
    }
}

impl Module for Head {
    fn forward(&self, input: &Var) -> Result<Var> {
        self.conv.forward(input)
    }
    fn params(&self) -> Vec<Var> {
        self.conv.params()
    }
}

/// Standard SR tail: FP 3×3 conv to `3·scale²` channels followed by pixel
/// shuffle (never binarized). The ×1 scale degenerates to a plain conv.
pub struct Tail {
    conv: Conv2d,
    scale: usize,
}

impl Tail {
    /// Build the tail for a given body width and upscale factor.
    ///
    /// The conv is zero-initialised so an untrained model starts exactly at
    /// the bicubic-skip baseline and training only ever adds a learned
    /// residual — the standard zero-init-last-layer trick, essential at the
    /// reproduction's small training budgets.
    #[must_use]
    pub fn new(channels: usize, scale: usize, rng: &mut StdRng) -> Self {
        let conv = Conv2d::new(channels, 3 * scale * scale, 3, rng);
        for p in conv.params() {
            p.update_value(|t| t.map_inplace(|_| 0.0));
        }
        Self { conv, scale }
    }

    /// The underlying convolution (for deployment lowering).
    pub(crate) fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// The upscale factor.
    pub(crate) fn factor(&self) -> usize {
        self.scale
    }
}

impl Module for Tail {
    fn forward(&self, input: &Var) -> Result<Var> {
        let y = self.conv.forward(input)?;
        if self.scale == 1 {
            Ok(y)
        } else {
            y.pixel_shuffle(self.scale)
        }
    }
    fn params(&self) -> Vec<Var> {
        self.conv.params()
    }
}

/// SE reduction ratio used by the FP channel-attention gates.
pub const CA_REDUCTION: usize = 4;

/// Full-precision SE-style channel attention gate (RCAN / HAT style):
/// GlobalAvgPool → 1×1 conv down → ReLU → 1×1 conv up → sigmoid → scale.
pub struct ChannelAttention {
    down: Conv2d,
    up: Conv2d,
}

impl ChannelAttention {
    /// Build for a channel count with reduction [`CA_REDUCTION`].
    #[must_use]
    pub fn new(channels: usize, rng: &mut StdRng) -> Self {
        let spec = Conv2dSpec { stride: 1, padding: 0 };
        let mid = (channels / CA_REDUCTION).max(1);
        Self {
            down: Conv2d::with_spec(channels, mid, 1, spec, true, rng),
            up: Conv2d::with_spec(mid, channels, 1, spec, true, rng),
        }
    }

    /// The squeeze (1×1 down) convolution, for deployment lowering.
    pub(crate) fn down(&self) -> &Conv2d {
        &self.down
    }

    /// The excite (1×1 up) convolution, for deployment lowering.
    pub(crate) fn up(&self) -> &Conv2d {
        &self.up
    }

    /// Gate `x` by its own channel statistics.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors.
    pub fn forward(&self, x: &Var) -> Result<Var> {
        let pooled = x.global_avg_pool()?;
        let gate = self.up.forward(&self.down.forward(&pooled)?.relu())?.sigmoid();
        x.mul(&gate)
    }

    /// Trainable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Var> {
        let mut p = self.down.params();
        p.extend(self.up.params());
        p
    }
}


/// Paper-convention cost of the head at a given LR size.
#[must_use]
pub fn head_cost(channels: usize, lr_h: usize, lr_w: usize) -> CostReport {
    scales_binary::count::conv2d_cost(3, channels, 3, lr_h, lr_w, false, true)
}

/// Paper-convention cost of the tail at a given LR size.
#[must_use]
pub fn tail_cost(channels: usize, scale: usize, lr_h: usize, lr_w: usize) -> CostReport {
    scales_binary::count::conv2d_cost(channels, 3 * scale * scale, 3, lr_h, lr_w, false, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_nn::init::rng;

    #[test]
    fn config_validation() {
        assert!(SrConfig::lite(2, Method::scales()).validate().is_ok());
        assert!(SrConfig { channels: 0, ..SrConfig::lite(2, Method::scales()) }.validate().is_err());
        assert!(SrConfig { scale: 7, ..SrConfig::lite(2, Method::scales()) }.validate().is_err());
    }

    #[test]
    fn head_tail_shapes() {
        let mut r = rng(71);
        let head = Head::new(8, &mut r);
        let tail = Tail::new(8, 2, &mut r);
        let x = Var::new(Tensor::ones(&[1, 3, 6, 6]));
        let f = head.forward(&x).unwrap();
        assert_eq!(f.shape(), vec![1, 8, 6, 6]);
        let y = tail.forward(&f).unwrap();
        assert_eq!(y.shape(), vec![1, 3, 12, 12]);
    }

    #[test]
    fn bicubic_skip_matches_image_resize() {
        let img = scales_data::synth::scene(8, 8, scales_data::synth::SceneConfig::default(), &mut rng(5));
        let x = Var::new(img.tensor().reshape(&[1, 3, 8, 8]).unwrap());
        let up = bicubic_skip(&x, 2).unwrap().value();
        let direct = scales_data::upscale(&img, 2).unwrap();
        for (a, b) in up.data().iter().zip(direct.tensor().data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
