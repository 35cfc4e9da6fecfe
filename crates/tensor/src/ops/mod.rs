//! Tensor operation kernels.
//!
//! These are plain functions over [`Tensor`](crate::Tensor) values; the
//! autograd crate wraps them with gradient rules.

pub mod conv;
pub mod direct;
pub mod image;
pub mod math;
pub mod matmul;
pub mod token;

pub use conv::{
    conv1d, conv1d_backward_input, conv1d_backward_weight, conv2d, conv2d_backward_input,
    conv2d_backward_weight, conv2d_into, conv2d_into_at, Conv2dSpec,
};
pub use image::{
    global_avg_pool, global_avg_pool_into, global_avg_pool_into_at, pixel_shuffle, pixel_unshuffle,
    window_merge, window_partition,
};
pub use matmul::{batched_matmul, gemm, matmul};
pub use token::{
    check_window, gelu, gelu_into, gelu_into_at, layer_norm_into, layer_norm_into_at,
    window_attention_into, window_attention_into_at,
};

/// The logistic function `1 / (1 + e^{-x})`.
///
/// The single scalar sigmoid shared by every crate in the workspace (the
/// autograd activation, the deployment path's re-scaling branches and the
/// benches), so all paths agree bit-for-bit. Its `e^{-x}` is
/// [`math::exp`]: branch-free, no libm call.
#[inline]
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + math::exp(-x))
}
