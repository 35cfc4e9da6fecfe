//! The architecture registry: every SR network of the zoo, addressable by
//! a stable name.
//!
//! This is the factory the persistence layer (`scales-io`) rebuilds
//! checkpoints through: a saved model records its [`Arch::name`] plus its
//! [`SrConfig`](crate::SrConfig), and loading is `Arch::from_name` →
//! [`Arch::build`] → overwrite parameters. The experiment harness in
//! `scales-train` re-exports this enum (it lived there before the
//! registry moved down so `scales-io` could use it without a cycle).

use crate::common::{SrConfig, SrNetwork};
use crate::{edsr, hat, rcan, rdn, srresnet, swinir};
use scales_tensor::Result;

/// Architectures of the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// SRResNet (Table III).
    SrResNet,
    /// EDSR (motivation study).
    Edsr,
    /// RDN-lite.
    Rdn,
    /// RCAN-lite.
    Rcan,
    /// SwinIR-lite (Table IV).
    SwinIr,
    /// HAT-lite (Table IV).
    Hat,
}

impl Arch {
    /// Every architecture, in zoo order (CNN family first).
    pub const ALL: [Arch; 6] =
        [Arch::SrResNet, Arch::Edsr, Arch::Rdn, Arch::Rcan, Arch::SwinIr, Arch::Hat];

    /// The CNN family (every architecture, transformers included, has a
    /// deployment lowering; the families differ in which methods build).
    pub const CNN: [Arch; 4] = [Arch::SrResNet, Arch::Edsr, Arch::Rdn, Arch::Rcan];

    /// Display name, also the stable identifier persisted by `scales-io`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Arch::SrResNet => "SRResNet",
            Arch::Edsr => "EDSR",
            Arch::Rdn => "RDN",
            Arch::Rcan => "RCAN",
            Arch::SwinIr => "SwinIR",
            Arch::Hat => "HAT",
        }
    }

    /// Resolve a persisted [`Arch::name`] back to the architecture.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Arch> {
        Arch::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Build the architecture for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (e.g. CNN-only method on a
    /// transformer).
    pub fn build(&self, config: SrConfig) -> Result<Box<dyn SrNetwork>> {
        Ok(match self {
            Arch::SrResNet => Box::new(srresnet(config)?),
            Arch::Edsr => Box::new(edsr(config)?),
            Arch::Rdn => Box::new(rdn(config)?),
            Arch::Rcan => Box::new(rcan(config)?),
            Arch::SwinIr => Box::new(swinir(config)?),
            Arch::Hat => Box::new(hat(config)?),
        })
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_core::Method;

    #[test]
    fn names_round_trip_through_the_registry() {
        for arch in Arch::ALL {
            assert_eq!(Arch::from_name(arch.name()), Some(arch));
        }
        assert_eq!(Arch::from_name("VDSR"), None);
    }

    #[test]
    fn built_networks_report_their_arch() {
        let config = SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::FullPrecision, seed: 3 };
        for arch in Arch::ALL {
            let net = arch.build(config).unwrap();
            assert_eq!(net.arch(), arch, "{arch}");
            assert_eq!(net.config(), config, "{arch}");
        }
    }
}
