//! Binarization method registry — the rows of the paper's Table I plus the
//! ablation variants of Table V.

use std::fmt;

/// Which SCALES components are enabled (used directly for the Table V
/// ablation rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalesComponents {
    /// Layer-wise scaling factor + channel-wise threshold (Eq. 1-3).
    pub lsf: bool,
    /// Spatial re-scaling branch (Eq. 4).
    pub spatial: bool,
    /// Channel-wise re-scaling branch (Eq. 5).
    pub channel: bool,
    /// Conv1d kernel size of the channel branch (paper default 5).
    pub channel_kernel: usize,
}

impl ScalesComponents {
    /// The full method as published.
    #[must_use]
    pub fn full() -> Self {
        Self { lsf: true, spatial: true, channel: true, channel_kernel: 5 }
    }

    /// LSF only (Table V row 2).
    #[must_use]
    pub fn lsf_only() -> Self {
        Self { lsf: true, spatial: false, channel: false, channel_kernel: 5 }
    }

    /// LSF + channel re-scaling (Table V row 3).
    #[must_use]
    pub fn lsf_channel() -> Self {
        Self { lsf: true, spatial: false, channel: true, channel_kernel: 5 }
    }

    /// LSF + spatial re-scaling (Table V row 4).
    #[must_use]
    pub fn lsf_spatial() -> Self {
        Self { lsf: true, spatial: true, channel: false, channel_kernel: 5 }
    }
}

/// A binarization method evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full-precision reference network.
    FullPrecision,
    /// Bicubic interpolation (no network).
    Bicubic,
    /// BAM (Xin et al., ECCV 2020): bit-accumulation mechanism.
    Bam,
    /// BTM / IBTM (Jiang et al., AAAI 2021): BN-free binary training with
    /// image-adaptive normalisation.
    Btm,
    /// E2FIF (Lang et al., 2022): end-to-end full-precision information
    /// flow, the prior art the paper compares against.
    E2fif,
    /// BiBERT-style binarization (Bai et al., 2020), the transformer
    /// baseline of Table IV.
    Bibert,
    /// SCALES with a chosen component subset.
    Scales(ScalesComponents),
}

impl Method {
    /// The full SCALES method.
    #[must_use]
    pub fn scales() -> Self {
        Method::Scales(ScalesComponents::full())
    }

    /// Whether the method binarizes weights and activations (everything
    /// except FP and bicubic).
    #[must_use]
    pub fn is_binary(&self) -> bool {
        !matches!(self, Method::FullPrecision | Method::Bicubic)
    }

    /// Every registry row with a CNN body to build and lower — all
    /// methods except [`Method::Bicubic`] (no network), with each
    /// [`ScalesComponents`] subset the ablation serves. The single source
    /// of truth the cross-cutting equivalence suites (deployment,
    /// serialization, planned execution) iterate, so a new method row is
    /// automatically pulled into every bit-identity contract.
    #[must_use]
    pub fn cnn_registry() -> Vec<Method> {
        vec![
            Method::FullPrecision,
            Method::E2fif,
            Method::Btm,
            Method::Bam,
            Method::Bibert,
            Method::Scales(ScalesComponents::full()),
            Method::Scales(ScalesComponents::lsf_only()),
            Method::Scales(ScalesComponents::lsf_channel()),
            Method::Scales(ScalesComponents::lsf_spatial()),
        ]
    }

    /// Every method a transformer body (`BodyLinear`) can be built with: FP,
    /// the BiBERT baseline, SCALES and its component subsets — the last one
    /// without LSF, so the plain-sign packer path of a lowered linear is
    /// covered too. The transformer rows of the suites that iterate
    /// [`Method::cnn_registry`].
    #[must_use]
    pub fn transformer_registry() -> Vec<Method> {
        vec![
            Method::FullPrecision,
            Method::Bibert,
            Method::Scales(ScalesComponents::full()),
            Method::Scales(ScalesComponents::lsf_only()),
            Method::Scales(ScalesComponents::lsf_spatial()),
            Method::Scales(ScalesComponents { lsf: false, ..ScalesComponents::full() }),
        ]
    }

    /// Capability row, matching the paper's Table I.
    #[must_use]
    pub fn capabilities(&self) -> Capabilities {
        match self {
            Method::FullPrecision | Method::Bicubic => Capabilities {
                spatial: true,
                channel: true,
                layer: true,
                image: true,
                hw_cost: "FP",
            },
            Method::Bam => Capabilities {
                spatial: true,
                channel: false,
                layer: false,
                image: false,
                hw_cost: "Extra FP Accum.",
            },
            Method::Btm => Capabilities {
                spatial: false,
                channel: false,
                layer: false,
                image: true,
                hw_cost: "Low",
            },
            Method::E2fif => Capabilities {
                spatial: false,
                channel: false,
                layer: false,
                image: false,
                hw_cost: "Low",
            },
            Method::Bibert => Capabilities {
                spatial: false,
                channel: false,
                layer: false,
                image: false,
                hw_cost: "Low",
            },
            Method::Scales(c) => Capabilities {
                spatial: c.spatial,
                channel: c.lsf || c.channel,
                layer: c.lsf,
                image: c.spatial || c.channel,
                hw_cost: "Low",
            },
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::FullPrecision => write!(f, "FP"),
            Method::Bicubic => write!(f, "Bicubic"),
            Method::Bam => write!(f, "BAM"),
            Method::Btm => write!(f, "BTM"),
            Method::E2fif => write!(f, "E2FIF"),
            Method::Bibert => write!(f, "BiBERT"),
            Method::Scales(c) if *c == ScalesComponents::full() => write!(f, "SCALES"),
            Method::Scales(c) => {
                write!(f, "LSF")?;
                if c.channel {
                    write!(f, "+chl")?;
                }
                if c.spatial {
                    write!(f, "+spatial")?;
                }
                Ok(())
            }
        }
    }
}

/// Adaptability capabilities of a binarization method (Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Captures pixel-to-pixel variation.
    pub spatial: bool,
    /// Captures channel-to-channel variation.
    pub channel: bool,
    /// Captures layer-to-layer variation.
    pub layer: bool,
    /// Captures image-to-image variation (input-dependent).
    pub image: bool,
    /// Hardware-cost label as the paper writes it.
    pub hw_cost: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scales_row_checks_every_box() {
        let c = Method::scales().capabilities();
        assert!(c.spatial && c.channel && c.layer && c.image);
        assert_eq!(c.hw_cost, "Low");
    }

    #[test]
    fn table1_e2fif_row_is_all_cross() {
        let c = Method::E2fif.capabilities();
        assert!(!c.spatial && !c.channel && !c.layer && !c.image);
    }

    #[test]
    fn table1_btm_is_image_adaptive_only() {
        let c = Method::Btm.capabilities();
        assert!(c.image && !c.spatial && !c.channel && !c.layer);
    }

    #[test]
    fn display_names() {
        assert_eq!(Method::scales().to_string(), "SCALES");
        assert_eq!(Method::Scales(ScalesComponents::lsf_only()).to_string(), "LSF");
        assert_eq!(Method::Scales(ScalesComponents::lsf_channel()).to_string(), "LSF+chl");
        assert_eq!(Method::Scales(ScalesComponents::lsf_spatial()).to_string(), "LSF+spatial");
    }

    #[test]
    fn binary_flag() {
        assert!(!Method::FullPrecision.is_binary());
        assert!(!Method::Bicubic.is_binary());
        assert!(Method::E2fif.is_binary());
        assert!(Method::scales().is_binary());
    }
}
