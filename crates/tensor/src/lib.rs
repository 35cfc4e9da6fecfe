//! # scales-tensor
//!
//! Dense `f32` tensor math underpinning the Rust reproduction of
//! *SCALES: Boost Binary Neural Network for Image Super-Resolution with
//! Efficient Scalings* (DATE 2025).
//!
//! The crate provides exactly what the reproduction's training and inference
//! stack needs and nothing more: a contiguous row-major [`Tensor`],
//! NumPy-style broadcasting, matrix multiplication, im2col 2-D/1-D
//! convolution with analytic gradient kernels, the direct (im2col-free)
//! 2-D convolution the deployed path runs, pixel (un)shuffle, window
//! partitioning for Swin-style attention, and global average pooling.
//!
//! Hot loops dispatch through the [`backend`] kernel layer: a
//! runtime-detected SIMD kernel ([`simd`]: AVX2 float GEMM, and the direct
//! float and binary convolutions at the detected level up to AVX-512,
//! falling back to scalar on older CPUs) and a scalar reference kernel,
//! with identical numerics. Selection, most specific first: a
//! thread-scoped handle ([`backend::with_thread_backend`]), the
//! `SCALES_BACKEND` environment variable, then simd.
//!
//! ```
//! use scales_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), scales_tensor::TensorError> {
//! let img = Tensor::ones(&[1, 3, 8, 8]);
//! let w = Tensor::full(&[4, 3, 3, 3], 0.1);
//! let y = ops::conv2d(&img, &w, ops::Conv2dSpec::same(3))?;
//! assert_eq!(y.shape(), &[1, 4, 8, 8]);
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod error;
pub mod ops;
pub mod shape;
pub mod simd;
mod tensor;
pub mod workspace;

pub use backend::{Backend, Kernel};
pub use simd::SimdLevel;
pub use error::{Result, TensorError};
pub use tensor::Tensor;
