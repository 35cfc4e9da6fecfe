//! # scales-binary
//!
//! Bit-packed binary inference kernels and BNN cost accounting for the
//! SCALES reproduction.
//!
//! * [`pack::PackedBits`] — sign vectors packed into `u64` words with a
//!   validity mask, and the XNOR-popcount dot product.
//! * [`xnor::BinaryConv2d`] — the deployment-path layer (a binary linear
//!   is its `k = 1` case), bit-exact against the float reference on `±1`
//!   inputs.
//! * [`direct`] — the one convolution kernel behind `BinaryConv2d`: a
//!   direct, fused XNOR-popcount loop compiled once per
//!   [`scales_tensor::SimdLevel`] (portable, `popcnt`, AVX2, AVX-512
//!   `VPOPCNTDQ`) and run at the level the active backend reports — the
//!   best one detected by default, the portable loop under
//!   `SCALES_BACKEND=scalar`.
//! * [`count`] — the paper's cost model (`OPs = OPs_f + OPs_b/64`,
//!   `Params = Params_f + Params_b/32`).
//!
//! ```
//! use scales_binary::pack::PackedBits;
//! let a = PackedBits::from_signs(&[1.0, -1.0, 1.0]);
//! let b = PackedBits::from_signs(&[1.0, 1.0, 1.0]);
//! assert_eq!(a.dot(&b), 1); // +1 − 1 + 1
//! ```

pub mod count;
pub mod direct;
pub mod pack;
pub mod xnor;

pub use count::CostReport;
pub use direct::{Fused, SignShift};
pub use pack::PackedBits;
pub use xnor::BinaryConv2d;
