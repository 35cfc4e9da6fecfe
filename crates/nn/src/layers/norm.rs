//! Normalisation layers: LayerNorm (transformer blocks) and a
//! batch-statistics BatchNorm2d (kept for the E2FIF/BAM-era baselines; the
//! paper's LSF removes BN from the binary SR networks).

use crate::module::Module;
use scales_autograd::Var;
use scales_tensor::{Result, Tensor};

/// Layer normalisation over the trailing axis with learnable affine
/// parameters, as used in every transformer block.
pub struct LayerNorm {
    gamma: Var,
    beta: Var,
    eps: f32,
    features: usize,
}

impl LayerNorm {
    /// Construct with unit gain, zero shift and the conventional `1e-5`
    /// epsilon.
    #[must_use]
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Var::param(Tensor::ones(&[features])),
            beta: Var::param(Tensor::zeros(&[features])),
            eps: 1e-5,
            features,
        }
    }

    /// Feature count of the trailing axis this layer normalises.
    #[must_use]
    pub fn features(&self) -> usize {
        self.features
    }

    /// The variance floor added before the square root.
    #[must_use]
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

impl Module for LayerNorm {
    fn forward(&self, input: &Var) -> Result<Var> {
        let mean = input.mean_axis(input.shape().len() - 1)?;
        let centered = input.sub(&mean)?;
        let var = centered.mul(&centered)?.mean_axis(input.shape().len() - 1)?;
        // One reciprocal per token, then multiplies: `x · (1/d) · γ + β`,
        // the deployed kernel's order (`scales_tensor::ops::layer_norm_into`).
        let recip = var.add_scalar(self.eps).sqrt().recip();
        let normed = centered.mul(&recip)?;
        normed.mul(&self.gamma)?.add(&self.beta)
    }

    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Batch normalisation for NCHW activations using **batch statistics** in
/// both training and evaluation.
///
/// The reproduction trains tiny models for a handful of iterations, so
/// running-average statistics would never converge; batch statistics keep
/// the baseline honest while preserving BN's variance-squashing behaviour
/// (the property the paper's motivation section contrasts against).
pub struct BatchNorm2d {
    gamma: Var,
    beta: Var,
    eps: f32,
}

impl BatchNorm2d {
    /// Construct with unit gain and zero shift.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Var::param(Tensor::ones(&[1, channels, 1, 1])),
            beta: Var::param(Tensor::zeros(&[1, channels, 1, 1])),
            eps: 1e-5,
        }
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, input: &Var) -> Result<Var> {
        // Normalise per channel over (N, H, W): permute stats axes via two
        // keepdim means.
        let s = input.shape();
        if s.len() != 4 {
            return Err(scales_tensor::TensorError::RankMismatch {
                expected: 4,
                actual: s.len(),
                op: "batchnorm2d",
            });
        }
        let mean = input.mean_axis(0)?.mean_axis(2)?.mean_axis(3)?;
        let centered = input.sub(&mean)?;
        let var = centered.mul(&centered)?.mean_axis(0)?.mean_axis(2)?.mean_axis(3)?;
        let denom = var.add_scalar(self.eps).sqrt();
        let normed = centered.div(&denom)?;
        normed.mul(&self.gamma)?.add(&self.beta)
    }

    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let ln = LayerNorm::new(4);
        let x = Var::new(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]).unwrap());
        let y = ln.forward(&x).unwrap().value();
        for row in 0..2 {
            let r = &y.data()[row * 4..(row + 1) * 4];
            let m: f32 = r.iter().sum::<f32>() / 4.0;
            let v: f32 = r.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn layernorm_grads_flow_to_affine() {
        let ln = LayerNorm::new(3);
        let x = Var::param(Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]).unwrap());
        let y = ln.forward(&x).unwrap().sum_all().unwrap();
        y.backward().unwrap();
        assert!(ln.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn batchnorm_squashes_channel_variance() {
        let bn = BatchNorm2d::new(2);
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 3.0).collect();
        let x = Var::new(Tensor::from_vec(data, &[2, 2, 2, 2]).unwrap());
        let y = bn.forward(&x).unwrap().value();
        // Per-channel variance should be ~1 after normalisation.
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..2 {
                for h in 0..2 {
                    for w in 0..2 {
                        vals.push(y.at(&[n, c, h, w]));
                    }
                }
            }
            let m: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let v: f32 = vals.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / vals.len() as f32;
            assert!(m.abs() < 1e-4);
            assert!((v - 1.0).abs() < 0.05);
        }
    }
}
