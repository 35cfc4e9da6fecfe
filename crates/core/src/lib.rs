//! # scales-core
//!
//! The paper's primary contribution: the **SCALES** binarization method for
//! super-resolution networks (Wei et al., DATE 2025), plus the baseline
//! binary layers it is evaluated against.
//!
//! Components (paper §IV):
//!
//! * [`LsfBinarizer`] — layer-wise scaling factor + channel-wise threshold
//!   activation binarizer (Eq. 1), trained with the Eq. (2)/(3) gradients.
//! * [`SpatialRescale`] / [`SpatialRescaleToken`] — input-dependent
//!   per-pixel re-scaling (Eq. 4, Fig. 6).
//! * [`ChannelRescale`] — GlobalAvgPool → Conv1d(k=5) → sigmoid channel
//!   re-scaling with only `k` FP parameters (Eq. 5, Fig. 7).
//! * [`ScalesConv2d`] / [`ScalesLinear`] — the integrated binary layers of
//!   Fig. 8, drop-in replacements for body convolutions / linears.
//! * [`baselines`] — E2FIF, BTM, BAM and BiBERT-style layers.
//! * [`Method`] / [`BodyConv`] / [`BodyLinear`] — method registry and
//!   factories so one architecture serves every comparison row.
//!
//! ```
//! use scales_core::ScalesConv2d;
//! use scales_nn::{init, Module};
//! use scales_autograd::Var;
//! use scales_tensor::Tensor;
//!
//! # fn main() -> Result<(), scales_tensor::TensorError> {
//! let mut rng = init::rng(0);
//! let conv = ScalesConv2d::new(8, 8, 3, &mut rng);
//! let x = Var::new(Tensor::ones(&[1, 8, 6, 6]));
//! assert_eq!(conv.forward(&x)?.shape(), vec![1, 8, 6, 6]);
//! # Ok(())
//! # }
//! ```

pub mod baselines;
mod channel;
mod conv;
mod deploy;
mod factory;
mod gate;
mod linear;
mod lsf;
mod method;
mod spatial;

pub use channel::ChannelRescale;
pub use conv::ScalesConv2d;
pub use deploy::{DeployedBodyConv, DeployedScalesConv2d, FloatConv2d};
pub use factory::{BodyConv, BodyLinear};
pub use linear::ScalesLinear;
pub use lsf::LsfBinarizer;
pub use method::{Capabilities, Method, ScalesComponents};
pub use spatial::{SpatialRescale, SpatialRescaleToken};
