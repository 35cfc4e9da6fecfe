//! Tile geometry ([`TileSpec`]) and the engine-level tiling decision
//! ([`TilePolicy`]).
//!
//! ## Tiling equivalence
//!
//! Tiled serving reproduces the full-image output **exactly** when (a) the
//! overlap is at least the network's total receptive-field radius (sum of
//! conv radii along the deepest path, plus 2 for the bicubic skip kernel)
//! and (b) the network contains no whole-image operators. Global operators
//! — the SCALES channel-rescale GAP, BTM's per-image threshold, E2FIF's
//! per-image BN statistics — see per-tile statistics instead, which is the
//! standard trade-off of tiled SR serving; the local-only configurations
//! (FP, BAM, `ScalesComponents::lsf_spatial()`) stitch bit-exactly.
//!
//! No engine couples one image to another, at either precision: a
//! session forwards each image (or tile) as its own batch of one, so even
//! the training tape's E2FIF batch statistics are that image's own, and
//! E2FIF's deployed BN normalises each image by its own statistics
//! anyway. An image reads the same served alone, inside a multi-image
//! request, or coalesced by the runtime with other callers' work.

use scales_tensor::{Result, TensorError};

/// Tile geometry for tiled serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    /// Tile side length in LR pixels (the stride of the tiling).
    pub tile: usize,
    /// Context border around each tile, in LR pixels. Must cover the
    /// network's receptive-field radius for exact stitching.
    pub overlap: usize,
}

impl TileSpec {
    /// Build a spec, validating the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero tile, and for an overlap that is not
    /// smaller than the tile (such a split re-forwards every pixel more
    /// than twice per axis and signals a transposed argument order).
    pub fn new(tile: usize, overlap: usize) -> Result<Self> {
        if tile == 0 {
            return Err(TensorError::InvalidArgument("tile size must be positive".into()));
        }
        if overlap >= tile {
            return Err(TensorError::InvalidArgument(format!(
                "tile overlap ({overlap}) must be smaller than the tile ({tile})"
            )));
        }
        Ok(Self { tile, overlap })
    }

    /// Re-validate a spec (fields are public, so a struct literal can
    /// bypass [`TileSpec::new`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TileSpec::new`].
    pub fn validate(self) -> Result<()> {
        Self::new(self.tile, self.overlap).map(|_| ())
    }
}

/// When the engine splits an image into tiles instead of forwarding it
/// whole. Set per engine at build time; overridable per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TilePolicy {
    /// Never tile: every image runs whole, in a forward of its own.
    #[default]
    Off,
    /// Tile every image with this geometry.
    Fixed(TileSpec),
    /// Tile by input size: images whose longer LR side exceeds `max_side`
    /// are split into `max_side`-pixel tiles with `overlap` context;
    /// smaller images run whole.
    Auto {
        /// Longest LR side served in a single forward (also the tile size).
        max_side: usize,
        /// Context border in LR pixels, as in [`TileSpec::overlap`].
        overlap: usize,
    },
}

impl TilePolicy {
    /// The default size-adaptive policy: tile above 64 px with 8 px of
    /// context — enough overlap for exact stitching on every CNN in the
    /// zoo's lite profiles.
    #[must_use]
    pub fn auto() -> Self {
        TilePolicy::Auto { max_side: 64, overlap: 8 }
    }

    /// The tile geometry to use for an `h × w` LR image, or `None` to
    /// forward it whole.
    #[must_use]
    pub fn spec_for(&self, height: usize, width: usize) -> Option<TileSpec> {
        match *self {
            TilePolicy::Off => None,
            TilePolicy::Fixed(spec) => Some(spec),
            TilePolicy::Auto { max_side, overlap } => {
                (height.max(width) > max_side).then_some(TileSpec { tile: max_side, overlap })
            }
        }
    }

    /// Validate the policy's geometry.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid tile geometry (see [`TileSpec::new`]).
    pub fn validate(&self) -> Result<()> {
        match *self {
            TilePolicy::Off => Ok(()),
            TilePolicy::Fixed(spec) => spec.validate(),
            TilePolicy::Auto { max_side, overlap } => TileSpec::new(max_side, overlap).map(|_| ()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_spec_rejects_zero_tile() {
        assert!(TileSpec::new(0, 0).is_err());
        assert!(TileSpec::new(0, 2).is_err());
    }

    #[test]
    fn tile_spec_rejects_overlap_not_smaller_than_tile() {
        // Boundary: overlap == tile is invalid, overlap == tile - 1 is the
        // largest valid context.
        assert!(TileSpec::new(8, 8).is_err());
        assert!(TileSpec::new(8, 9).is_err());
        assert!(TileSpec::new(8, 7).is_ok());
        assert!(TileSpec::new(1, 0).is_ok());
        assert!(TileSpec::new(8, 0).is_ok());
    }

    #[test]
    fn auto_policy_tiles_only_oversized_images() {
        let policy = TilePolicy::Auto { max_side: 16, overlap: 4 };
        assert_eq!(policy.spec_for(16, 16), None);
        assert_eq!(policy.spec_for(8, 12), None);
        assert_eq!(policy.spec_for(17, 8), Some(TileSpec { tile: 16, overlap: 4 }));
        assert_eq!(policy.spec_for(8, 40), Some(TileSpec { tile: 16, overlap: 4 }));
    }

    #[test]
    fn policy_validation_covers_every_variant() {
        assert!(TilePolicy::Off.validate().is_ok());
        assert!(TilePolicy::auto().validate().is_ok());
        assert!(TilePolicy::Fixed(TileSpec { tile: 4, overlap: 9 }).validate().is_err());
        assert!(TilePolicy::Auto { max_side: 0, overlap: 0 }.validate().is_err());
        assert!(TilePolicy::Auto { max_side: 8, overlap: 8 }.validate().is_err());
    }
}
