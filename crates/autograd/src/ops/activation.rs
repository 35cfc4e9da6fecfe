//! Differentiable activation functions. Every `exp` / `tanh` is
//! [`scales_tensor::ops::math`]'s, the one the deployed ops call.

use crate::var::Var;
use scales_tensor::ops::math;
use scales_tensor::{Result, Tensor};

impl Var {
    /// Rectified linear unit.
    #[must_use]
    pub fn relu(&self) -> Var {
        let x = self.value();
        let value = x.map(|v| v.max(0.0));
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![g.zip_map(&x, |gi, xi| if xi > 0.0 { gi } else { 0.0 }).expect("same shape")]
        })
    }

    /// Leaky rectified linear unit with negative slope `slope`.
    #[must_use]
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let x = self.value();
        let value = x.map(|v| if v > 0.0 { v } else { slope * v });
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![g
                .zip_map(&x, |gi, xi| if xi > 0.0 { gi } else { slope * gi })
                .expect("same shape")]
        })
    }

    /// Logistic sigmoid `1/(1+e^{-x})` — the gate used by both SCALES
    /// re-scaling branches.
    #[must_use]
    pub fn sigmoid(&self) -> Var {
        let value = self.with_value(|t| t.map(scales_tensor::ops::sigmoid));
        let y = value.clone();
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![g.zip_map(&y, |gi, yi| gi * yi * (1.0 - yi)).expect("same shape")]
        })
    }

    /// GELU with the tanh approximation (the transformer MLP nonlinearity),
    /// computed as `v · σ(2u)` ([`scales_tensor::ops::gelu`]).
    #[must_use]
    pub fn gelu(&self) -> Var {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let x = self.value();
        let value = x.map(scales_tensor::ops::gelu);
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![g
                .zip_map(&x, |gi, v| {
                    // d(v·s)/dv with s = σ(2u): s + v · 2s(1 − s) · du/dv.
                    let s = 1.0 / (1.0 + math::exp(-2.0 * C * (v + 0.044_715 * v * v * v)));
                    let du = C * (1.0 + 3.0 * 0.044_715 * v * v);
                    gi * (s + 2.0 * v * s * (1.0 - s) * du)
                })
                .expect("same shape")]
        })
    }

    /// Hyperbolic tangent ([`math::tanh`]).
    #[must_use]
    pub fn tanh(&self) -> Var {
        let value = self.with_value(|t| t.map(math::tanh));
        let y = value.clone();
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![g.zip_map(&y, |gi, yi| gi * (1.0 - yi * yi)).expect("same shape")]
        })
    }

    /// Numerically-stable softmax along the last axis.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 inputs.
    pub fn softmax_last_axis(&self) -> Result<Var> {
        let x = self.value();
        let rank = x.rank();
        if rank == 0 {
            return Err(scales_tensor::TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "softmax",
            });
        }
        let ext = x.shape()[rank - 1];
        let outer = x.len() / ext;
        let mut data = vec![0.0f32; x.len()];
        for o in 0..outer {
            let row = &x.data()[o * ext..(o + 1) * ext];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut s = 0.0;
            for (d, &v) in data[o * ext..(o + 1) * ext].iter_mut().zip(row.iter()) {
                *d = math::exp(v - m);
                s += *d;
            }
            for d in &mut data[o * ext..(o + 1) * ext] {
                *d /= s;
            }
        }
        let value = Tensor::from_vec(data, x.shape())?;
        let y = value.clone();
        Ok(Var::from_op(value, vec![self.clone()], move |g| {
            // dx = y * (g - sum(g*y, last))
            let mut gi = vec![0.0f32; g.len()];
            for o in 0..outer {
                let yr = &y.data()[o * ext..(o + 1) * ext];
                let gr = &g.data()[o * ext..(o + 1) * ext];
                let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                for ((d, &yv), &gv) in gi[o * ext..(o + 1) * ext].iter_mut().zip(yr).zip(gr) {
                    *d = yv * (gv - dot);
                }
            }
            vec![Tensor::from_vec(gi, y.shape()).expect("same shape")]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s).unwrap()
    }

    #[test]
    fn relu_grads() {
        let a = Var::param(t(vec![-1.0, 2.0], &[2]));
        let y = a.relu().sum_all().unwrap();
        y.backward().unwrap();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_grad_matches_analytic() {
        let a = Var::param(t(vec![0.0], &[1]));
        let y = a.sigmoid().sum_all().unwrap();
        y.backward().unwrap();
        assert!((a.grad().unwrap().data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Var::param(t(vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5], &[2, 3]));
        let y = a.softmax_last_axis().unwrap();
        let v = y.value();
        for o in 0..2 {
            let s: f32 = v.data()[o * 3..(o + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_grad_numeric() {
        let x0 = vec![0.3, -0.7, 1.1];
        let a = Var::param(t(x0.clone(), &[1, 3]));
        // Loss = weighted sum of softmax outputs.
        let w = Var::new(t(vec![1.0, 2.0, -1.0], &[1, 3]));
        let y = a.softmax_last_axis().unwrap().mul(&w).unwrap().sum_all().unwrap();
        y.backward().unwrap();
        let g = a.grad().unwrap();
        let eps = 1e-3;
        for i in 0..3 {
            let f = |xs: &[f32]| {
                let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let e: Vec<f32> = xs.iter().map(|&v| (v - m).exp()).collect();
                let s: f32 = e.iter().sum();
                e[0] / s * 1.0 + e[1] / s * 2.0 - e[2] / s
            };
            let mut xp = x0.clone();
            xp[i] += eps;
            let mut xm = x0.clone();
            xm[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((g.data()[i] - num).abs() < 1e-3, "{} vs {num}", g.data()[i]);
        }
    }

    #[test]
    fn gelu_grad_numeric() {
        let a = Var::param(t(vec![0.5, -1.2], &[2]));
        let y = a.gelu().sum_all().unwrap();
        y.backward().unwrap();
        let g = a.grad().unwrap();
        // The forward's own form, `v · σ(2u)`.
        let f = |v: f32| {
            let c = 0.797_884_6_f32;
            v / (1.0 + (-2.0 * c * (v + 0.044_715 * v * v * v)).exp())
        };
        let eps = 1e-3;
        for (i, &x) in [0.5f32, -1.2].iter().enumerate() {
            let num = (f(x + eps) - f(x - eps)) / (2.0 * eps);
            assert!((g.data()[i] - num).abs() < 1e-3);
        }
    }

    #[test]
    fn tanh_grad() {
        let a = Var::param(t(vec![0.7], &[1]));
        let y = a.tanh().sum_all().unwrap();
        y.backward().unwrap();
        let expect = 1.0 - 0.7f32.tanh().powi(2);
        assert!((a.grad().unwrap().data()[0] - expect).abs() < 1e-6);
    }
}
