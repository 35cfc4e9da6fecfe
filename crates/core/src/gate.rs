//! The float gates a deployed binary layer computes from its FP input —
//! SCALES' spatial and channel re-scaling branches and BAM's magnitude map —
//! compiled once per [`SimdLevel`], like the kernel whose store they feed.
//!
//! Each gate is one loop over plain slices, the shape LLVM vectorises at
//! any width; the `#[target_feature]` wrappers in `x86` recompile exactly
//! that loop for AVX2 and AVX-512. Lanes are pixels (or output channels)
//! and every element keeps its own ascending-channel chain of separate
//! IEEE adds and multiplies, so every level is `to_bits`-identical to the
//! portable loop the scalar backend runs.

use scales_tensor::ops::{global_avg_pool_into_at, sigmoid};
use scales_tensor::SimdLevel;

/// One gate of a `[n, c, hw]` FP input.
pub(crate) enum Gate<'a> {
    /// Per pixel, `sigmoid(Σ_c w_c·x_c + bias)`: the spatial re-scaling
    /// branch, a `C → 1` 1×1 convolution whose every pixel accumulates from
    /// `0` in ascending-channel order (the GEMM's per-element order).
    Spatial { weights: &'a [f32], bias: f32 },
    /// Per pixel, `(Σ_c |x_c|) / c`: BAM's accumulation map.
    Magnitude,
    /// Per image and output channel, `sigmoid(Conv1d(GAP(x)))` over the
    /// channel tokens, zero-padded taps skipped: the channel re-scaling
    /// branch. `pooled` receives the `n·c` means.
    Channel { kernel: &'a [f32], pooled: &'a mut [f32] },
}

/// Compute `gate` of `input` (`[n, c, hw]`) into `out` — `n·hw` per-pixel
/// values, or `n·oc` per-channel ones — with the loop compiled for `level`
/// (clamped to what the CPU offers).
pub(crate) fn gate_into(
    level: SimdLevel,
    mut gate: Gate<'_>,
    input: &[f32],
    dims: (usize, usize, usize),
    out: &mut [f32],
) {
    if let Gate::Channel { pooled, .. } = &mut gate {
        let (n, c, hw) = dims;
        global_avg_pool_into_at(level, input, n, c, hw, pooled);
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(scales_tensor::simd::detected()) {
            SimdLevel::Avx512 => return unsafe { x86::gate_avx512(&gate, input, dims, out) },
            SimdLevel::Avx2 => return unsafe { x86::gate_avx2(&gate, input, dims, out) },
            SimdLevel::Sse42 | SimdLevel::None => {}
        }
    }
    gate_lanes(&gate, input, dims, out);
}

/// The one gate loop every level compiles. A channel gate reads the means
/// already pooled into its `pooled`.
#[inline(always)]
fn gate_lanes(gate: &Gate<'_>, input: &[f32], (n, c, hw): (usize, usize, usize), out: &mut [f32]) {
    match gate {
        Gate::Spatial { weights, bias } => {
            pixel_sums(input, c, hw, out, |ci, x| weights[ci] * x);
            out.iter_mut().for_each(|acc| *acc = sigmoid(*acc + bias));
        }
        Gate::Magnitude => {
            pixel_sums(input, c, hw, out, |_, x| x.abs());
            out.iter_mut().for_each(|acc| *acc /= c as f32);
        }
        Gate::Channel { kernel, pooled } => {
            let pad = kernel.len() / 2;
            let oc = out.len() / n.max(1);
            for (gate, tokens) in out.chunks_mut(oc.max(1)).zip(pooled.chunks(c.max(1))) {
                gate.fill(0.0);
                // Tap-outer, so each tap is one pass across the output
                // channels; per channel the taps still add in ascending
                // order, those that fall off the token row skipped.
                for (ki, &kv) in kernel.iter().enumerate() {
                    let (lo, hi) = (pad.saturating_sub(ki), oc.min((c + pad).saturating_sub(ki)));
                    if lo < hi {
                        let tokens = &tokens[lo + ki - pad..hi + ki - pad];
                        gate[lo..hi].iter_mut().zip(tokens).for_each(|(acc, &t)| *acc += t * kv);
                    }
                }
                gate.iter_mut().for_each(|acc| *acc = sigmoid(*acc));
            }
        }
    }
}

/// Per image and pixel, the sum over channels of `term(channel, x)` into
/// `sums` (`n·hw`): every pixel accumulates from 0 in ascending-channel
/// order, walked channel-outer so each pass streams one contiguous plane.
#[inline(always)]
fn pixel_sums(input: &[f32], c: usize, hw: usize, sums: &mut [f32], term: impl Fn(usize, f32) -> f32) {
    sums.fill(0.0);
    for (sums, image) in sums.chunks_mut(hw.max(1)).zip(input.chunks(c * hw.max(1))) {
        for (ci, x) in image.chunks(hw.max(1)).enumerate() {
            sums.iter_mut().zip(x).for_each(|(acc, &xv)| *acc += term(ci, xv));
        }
    }
}

/// [`gate_lanes`] recompiled per x86-64 feature level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gate_lanes, Gate};

    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-checked by [`super::gate_into`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gate_avx2(gate: &Gate<'_>, input: &[f32], dims: (usize, usize, usize), out: &mut [f32]) {
        gate_lanes(gate, input, dims, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F (runtime-checked by
    /// [`super::gate_into`]).
    #[target_feature(enable = "avx2", enable = "avx512f")]
    pub(super) unsafe fn gate_avx512(gate: &Gate<'_>, input: &[f32], dims: (usize, usize, usize), out: &mut [f32]) {
        gate_lanes(gate, input, dims, out);
    }
}
