//! The binary linear layer integrated with SCALES — paper Fig. 8(b).
//!
//! Transformer variant: LSF-binarize the token activation, binary linear
//! with per-output binarized weights, spatial (token-wise) re-scaling from
//! the FP input, plus an identity skip when the feature count is preserved.
//! There is no channel re-scaling here — LayerNorm already removes
//! channel-to-channel variation in transformers (paper §III-B).
//!
//! A per-token linear over `[B, L, C]` tokens *is* a 1×1 convolution over
//! the `[N, C, H, W]` feature map the tokens were cut from, and that is how
//! the layer deploys: [`DeployedScalesConv2d::from_trained_linear`] folds it
//! into the packed `k = 1` body convolution (β in the sign packer, `α·mean|w|`
//! in the per-channel scales, the token gate as the per-pixel gate), with
//! the one thing a convolution layer lacks — the bias between the dot and
//! the gate — carried into the kernel's store.
//!
//! [`DeployedScalesConv2d::from_trained_linear`]: crate::DeployedScalesConv2d::from_trained_linear

use crate::lsf::LsfBinarizer;
use crate::method::ScalesComponents;
use crate::spatial::SpatialRescaleToken;
use rand::rngs::StdRng;
use scales_autograd::Var;
use scales_nn::init::xavier_uniform;
use scales_nn::Module;
use scales_tensor::{Result, Tensor, TensorError};

/// A drop-in binary replacement for a transformer body `Linear`.
pub struct ScalesLinear {
    weight: Var,
    bias: Var,
    lsf: Option<LsfBinarizer>,
    spatial: Option<SpatialRescaleToken>,
    skip: bool,
    in_features: usize,
    out_features: usize,
}

impl ScalesLinear {
    /// Build the full method for a `[.., in] → [.., out]` layer. The skip
    /// engages automatically only when `in == out`.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self::with_components(in_features, out_features, ScalesComponents::full(), rng)
    }

    /// Build with a component subset. `channel` is ignored (see module
    /// docs).
    #[must_use]
    pub fn with_components(
        in_features: usize,
        out_features: usize,
        components: ScalesComponents,
        rng: &mut StdRng,
    ) -> Self {
        let weight = Var::param(xavier_uniform(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        ));
        Self {
            weight,
            bias: Var::param(Tensor::zeros(&[out_features])),
            lsf: components.lsf.then(|| LsfBinarizer::for_tokens(in_features)),
            spatial: components.spatial.then(|| SpatialRescaleToken::new(in_features, rng)),
            skip: in_features == out_features,
            in_features,
            out_features,
        }
    }

    /// The latent full-precision weight `[out, in]`.
    #[must_use]
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// The bias `[out]`, added between the binary product and the gate.
    #[must_use]
    pub fn bias(&self) -> &Var {
        &self.bias
    }

    /// The LSF binarizer, when enabled.
    #[must_use]
    pub fn lsf(&self) -> Option<&LsfBinarizer> {
        self.lsf.as_ref()
    }

    /// The token-wise spatial re-scaling branch, when enabled.
    #[must_use]
    pub fn spatial(&self) -> Option<&SpatialRescaleToken> {
        self.spatial.as_ref()
    }

    /// Whether the layer carries the identity skip (`in == out`).
    #[must_use]
    pub fn has_skip(&self) -> bool {
        self.skip
    }

    /// Clamp the LSF α after an optimizer step (no-op without LSF).
    pub fn clamp_alpha(&self, floor: f32) {
        if let Some(lsf) = &self.lsf {
            lsf.clamp_alpha(floor);
        }
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Module for ScalesLinear {
    fn forward(&self, input: &Var) -> Result<Var> {
        let shape = input.shape();
        let last = *shape.last().ok_or_else(|| {
            TensorError::InvalidArgument("scales linear needs rank >= 1".into())
        })?;
        if last != self.in_features {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.clone(),
                rhs: vec![self.out_features, self.in_features],
                op: "scales linear",
            });
        }
        let xb = match &self.lsf {
            Some(lsf) => lsf.forward(input)?,
            None => input.sign_ste_bireal(),
        };
        let wb = self.weight.binarize_weight_per_channel()?;
        let m: usize = shape[..shape.len() - 1].iter().product();
        let flat = xb.reshape(&[m, self.in_features])?;
        let y = flat.matmul(&wb.permute(&[1, 0])?)?.add(&self.bias)?;
        let mut out_shape = shape;
        *out_shape.last_mut().expect("rank >= 1") = self.out_features;
        let mut y = y.reshape(&out_shape)?;
        if let Some(sp) = &self.spatial {
            y = sp.apply(&y, input)?;
        }
        if self.skip {
            y = y.add(input)?;
        }
        Ok(y)
    }

    fn params(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone(), self.bias.clone()];
        if let Some(l) = &self.lsf {
            p.extend(l.params());
        }
        if let Some(s) = &self.spatial {
            p.extend(s.params());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_nn::init::rng;

    #[test]
    fn square_layer_keeps_shape_and_skips() {
        let mut r = rng(41);
        let l = ScalesLinear::new(8, 8, &mut r);
        let x = Var::new(Tensor::from_vec((0..48).map(|i| (i as f32 * 0.3).sin()).collect(), &[2, 3, 8]).unwrap());
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 3, 8]);
    }

    #[test]
    fn rectangular_layer_changes_trailing_axis() {
        let mut r = rng(42);
        let l = ScalesLinear::new(8, 16, &mut r);
        let x = Var::new(Tensor::ones(&[1, 4, 8]));
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![1, 4, 16]);
    }

    #[test]
    fn grads_reach_all_params() {
        let mut r = rng(43);
        let l = ScalesLinear::new(4, 4, &mut r);
        let x = Var::new(Tensor::from_vec((0..8).map(|i| (i as f32 * 0.9).cos()).collect(), &[2, 4]).unwrap());
        let y = l.forward(&x).unwrap().sum_all().unwrap();
        y.backward().unwrap();
        for (i, p) in l.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn rejects_wrong_trailing_axis() {
        let mut r = rng(44);
        let l = ScalesLinear::new(8, 8, &mut r);
        assert!(l.forward(&Var::new(Tensor::ones(&[2, 3, 4]))).is_err());
    }
}
