//! The XNOR-popcount atom and cost accounting.
//!
//! # Popcount
//!
//! [`xnor_word_agree`] is the masked word atom
//! [`PackedBits::dot`](crate::pack::PackedBits::dot) is built from. The
//! convolution does not come through here: its one loop lives in
//! [`crate::direct`], compiled once per [`scales_tensor::SimdLevel`].
//!
//! # Cost accounting
//!
//! The paper's conventions (§V-E):
//!
//! ```text
//! OPs    = OPs_f    + OPs_b / 64
//! Params = Params_f + Params_b / 32
//! ```
//!
//! following Bi-Real Net and DoReFa-Net. Binary multiply-accumulates run 64
//! to a word on 64-bit hardware; binary weights cost 1 bit against a 32-bit
//! float.

use std::fmt;

/// XNOR-agree count of one word pair under a validity mask: the number of
/// lanes where `a` and `b` carry the same sign bit *and* the mask is set.
#[inline]
#[must_use]
pub fn xnor_word_agree(a: u64, b: u64, mask: u64) -> u32 {
    (!(a ^ b) & mask).count_ones()
}

/// Accumulated parameter and operation counts for a model, split into
/// full-precision and binary contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostReport {
    /// Full-precision parameter count.
    pub fp_params: u64,
    /// Binary (1-bit) parameter count.
    pub bin_params: u64,
    /// Full-precision multiply-accumulate operations.
    pub fp_ops: u64,
    /// Binary multiply-accumulate operations.
    pub bin_ops: u64,
}

impl CostReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Effective parameter count (`Params_f + Params_b/32`), in units of
    /// 32-bit parameters.
    #[must_use]
    pub fn effective_params(&self) -> f64 {
        self.fp_params as f64 + self.bin_params as f64 / 32.0
    }

    /// Effective operation count (`OPs_f + OPs_b/64`).
    #[must_use]
    pub fn effective_ops(&self) -> f64 {
        self.fp_ops as f64 + self.bin_ops as f64 / 64.0
    }

    /// Merge another report into this one.
    pub fn add(&mut self, other: CostReport) {
        self.fp_params += other.fp_params;
        self.bin_params += other.bin_params;
        self.fp_ops += other.fp_ops;
        self.bin_ops += other.bin_ops;
    }

    /// Effective params formatted in thousands ("34K") like the paper.
    #[must_use]
    pub fn params_display(&self) -> String {
        let p = self.effective_params();
        if p >= 1e6 {
            format!("{:.2}M", p / 1e6)
        } else {
            format!("{:.1}K", p / 1e3)
        }
    }

    /// Effective OPs formatted in G ("6.1G") like the paper.
    #[must_use]
    pub fn ops_display(&self) -> String {
        let o = self.effective_ops();
        if o >= 1e9 {
            format!("{:.2}G", o / 1e9)
        } else {
            format!("{:.1}M", o / 1e6)
        }
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} params, {} OPs", self.params_display(), self.ops_display())
    }
}

/// Cost of a 2-D convolution layer at a given output resolution.
///
/// `binary` marks the multiply-accumulates (and weights) as 1-bit.
#[must_use]
pub fn conv2d_cost(
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    out_h: usize,
    out_w: usize,
    binary: bool,
    bias: bool,
) -> CostReport {
    let params = (out_channels * in_channels * kernel * kernel) as u64;
    let macs = params * (out_h * out_w) as u64;
    let bias_params = if bias { out_channels as u64 } else { 0 };
    let bias_ops = if bias { (out_channels * out_h * out_w) as u64 } else { 0 };
    if binary {
        CostReport {
            fp_params: bias_params,
            bin_params: params,
            fp_ops: bias_ops,
            bin_ops: macs,
        }
    } else {
        CostReport {
            fp_params: params + bias_params,
            bin_params: 0,
            fp_ops: macs + bias_ops,
            bin_ops: 0,
        }
    }
}

/// Cost of a linear layer applied over `tokens` positions.
#[must_use]
pub fn linear_cost(in_features: usize, out_features: usize, tokens: usize, binary: bool, bias: bool) -> CostReport {
    let params = (out_features * in_features) as u64;
    let macs = params * tokens as u64;
    let bias_params = if bias { out_features as u64 } else { 0 };
    let bias_ops = if bias { (out_features * tokens) as u64 } else { 0 };
    if binary {
        CostReport { fp_params: bias_params, bin_params: params, fp_ops: bias_ops, bin_ops: macs }
    } else {
        CostReport { fp_params: params + bias_params, bin_params: 0, fp_ops: macs + bias_ops, bin_ops: 0 }
    }
}

/// Cost of the SCALES spatial re-scaling branch (FP 1×1 conv to one channel
/// plus sigmoid and the broadcast multiply).
#[must_use]
pub fn spatial_rescale_cost(channels: usize, out_h: usize, out_w: usize) -> CostReport {
    let hw = (out_h * out_w) as u64;
    CostReport {
        fp_params: channels as u64,
        bin_params: 0,
        // 1×1 conv MACs + sigmoid + rescale multiply.
        fp_ops: channels as u64 * hw + 2 * hw,
        bin_ops: 0,
    }
}

/// Cost of the SCALES channel re-scaling branch (global average pool,
/// Conv1d(k), sigmoid, broadcast multiply). Only `k` FP parameters — the
/// paper's headline efficiency claim versus the `2C²/r` of SE-style blocks.
#[must_use]
pub fn channel_rescale_cost(channels: usize, kernel: usize, out_h: usize, out_w: usize) -> CostReport {
    let hw = (out_h * out_w) as u64;
    let c = channels as u64;
    CostReport {
        fp_params: kernel as u64,
        bin_params: 0,
        // GAP (C·HW adds) + conv1d (C·k MACs) + sigmoid (C) + multiply (C·HW).
        fp_ops: c * hw + c * kernel as u64 + c + c * hw,
        bin_ops: 0,
    }
}

/// Cost of the SE-style channel attention of Real-to-Binary networks
/// (GlobalAvgPool–Linear–ReLU–Linear–Sigmoid with reduction `r`), for the
/// parameter-overhead comparison in the paper's §IV-C.
#[must_use]
pub fn se_block_cost(channels: usize, reduction: usize, out_h: usize, out_w: usize) -> CostReport {
    let c = channels as u64;
    let mid = (channels / reduction.max(1)) as u64;
    let hw = (out_h * out_w) as u64;
    CostReport {
        fp_params: 2 * c * mid,
        bin_params: 0,
        fp_ops: c * hw + 2 * c * mid + c * hw,
        bin_ops: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_conv_is_64x_cheaper_in_ops() {
        let fp = conv2d_cost(64, 64, 3, 100, 100, false, false);
        let bin = conv2d_cost(64, 64, 3, 100, 100, true, false);
        assert_eq!(fp.effective_ops(), bin.effective_ops() * 64.0);
        assert_eq!(fp.effective_params(), bin.effective_params() * 32.0);
    }

    #[test]
    fn report_merges() {
        let mut r = CostReport::new();
        r.add(conv2d_cost(3, 8, 3, 10, 10, false, true));
        r.add(conv2d_cost(8, 8, 3, 10, 10, true, false));
        assert!(r.fp_params > 0 && r.bin_params > 0);
    }

    #[test]
    fn channel_rescale_params_are_just_kernel() {
        let c = channel_rescale_cost(256, 5, 32, 32);
        assert_eq!(c.fp_params, 5);
    }

    #[test]
    fn se_vs_conv1d_ratio_matches_paper() {
        // Paper §IV-C: ratio = 2C²/(r·k) = 1638 when r = 16, C = 256, k = 5.
        let se = se_block_cost(256, 16, 1, 1);
        let ours = channel_rescale_cost(256, 5, 1, 1);
        let ratio = se.fp_params as f64 / ours.fp_params as f64;
        assert!((ratio - 1638.4).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn display_units() {
        let r = CostReport { fp_params: 1_520_000, bin_params: 0, fp_ops: 913_800_000_000, bin_ops: 0 };
        assert_eq!(r.params_display(), "1.52M");
        assert_eq!(r.ops_display(), "913.80G");
    }

    #[test]
    fn word_agree_counts_exactly() {
        assert_eq!(xnor_word_agree(0, 0, u64::MAX), 64);
        assert_eq!(xnor_word_agree(0, u64::MAX, u64::MAX), 0);
        assert_eq!(xnor_word_agree(0b1010, 0b1000, 0b1111), 3);
        assert_eq!(xnor_word_agree(0b1010, 0b1000, 0b0010), 0);
    }
}
