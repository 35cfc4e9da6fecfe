//! The three model profiles the workloads serve, and their on-disk forms.
//!
//! Models are fixed (they do not depend on the workload seed): the seed
//! varies the traffic, never the program under test.

use scales_core::Method;
use scales_models::{Arch, DeployedNetwork, SrConfig, SrNetwork};
use scales_nn::Module as _;
use scales_serve::TilePolicy;
use std::path::{Path, PathBuf};

/// One model profile plus the request shapes a workload sends it.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    pub arch: Arch,
    pub config: SrConfig,
    /// Engine-default tile policy the workload serves under.
    pub tile: TilePolicy,
    /// Side of the light (80 % of requests) square LR input.
    pub light: usize,
    /// Side of the heavy (20 %) square LR input.
    pub heavy: usize,
}

/// Paper-profile SRResNet-SCALES x4 (64 channels, 16 blocks); the heavy
/// image is served tiled.
pub fn cnn() -> ModelSpec {
    ModelSpec {
        arch: Arch::SrResNet,
        config: SrConfig {
            channels: 64,
            blocks: 16,
            scale: 4,
            method: Method::scales(),
            seed: 11,
        },
        tile: TilePolicy::Auto {
            max_side: 32,
            overlap: 8,
        },
        light: 32,
        heavy: 48,
    }
}

/// SwinIR-lite SCALES x2 (32 channels, 4 blocks). Has no lowering today, so
/// `Precision::Deployed` degrades to the training-precision tape.
pub fn transformer() -> ModelSpec {
    ModelSpec {
        arch: Arch::SwinIr,
        config: SrConfig {
            channels: 32,
            blocks: 4,
            scale: 2,
            method: Method::scales(),
            seed: 12,
        },
        tile: TilePolicy::Off,
        light: 16,
        heavy: 24,
    }
}

/// Lite SRResNet-SCALES x2 (16 channels, 2 blocks): inference is a small
/// part of a request, so the serving path dominates.
pub fn lite() -> ModelSpec {
    ModelSpec {
        arch: Arch::SrResNet,
        config: SrConfig {
            channels: 16,
            blocks: 2,
            scale: 2,
            method: Method::scales(),
            seed: 13,
        },
        tile: TilePolicy::Off,
        light: 16,
        heavy: 40,
    }
}

/// Build the network for `spec`.
///
/// A freshly built network answers exactly the bicubic baseline (its tail
/// convolution is zero-initialised), which would make the correctness
/// oracle blind to everything in the body. Every parameter therefore gets a
/// deterministic perturbation large enough to survive 8-bit quantisation —
/// a stand-in for training that changes no shape and no cost.
pub fn build(spec: &ModelSpec) -> Box<dyn SrNetwork> {
    let net = spec
        .arch
        .build(spec.config)
        .expect("benchmark model configurations are valid");
    let mut state = spec.config.seed ^ 0x5ca1_e5be_9c40_0001;
    for p in net.params() {
        p.update_value(|t| {
            for v in t.data_mut() {
                *v += (crate::schedule::unit_f32(&mut state) - 0.5) * 0.04;
            }
        });
    }
    net
}

/// Files one model leaves on disk for the workloads to load.
pub struct ModelFiles {
    /// Training checkpoint (always present).
    pub checkpoint: PathBuf,
    /// Deployed artifact; `None` for architectures without a lowering.
    pub artifact: Option<PathBuf>,
}

impl ModelFiles {
    /// What a server would be pointed at: the deployed artifact when the
    /// model lowers, else the checkpoint.
    pub fn serving_path(&self) -> &Path {
        self.artifact.as_deref().unwrap_or(&self.checkpoint)
    }
}

/// Build `spec`'s model and write its checkpoint and (when it lowers) its
/// deployed artifact under `dir` as `<name>.ckpt.sca` / `<name>.dep.sca`.
pub fn write(spec: &ModelSpec, dir: &Path, name: &str) -> ModelFiles {
    std::fs::create_dir_all(dir).expect("output directory is writable");
    let net = build(spec);
    let checkpoint = dir.join(format!("{name}.ckpt.sca"));
    scales_io::save_checkpoint(&checkpoint, net.as_ref()).expect("checkpoint written");
    let artifact = net.lower().ok().map(|deployed: DeployedNetwork| {
        let path = dir.join(format!("{name}.dep.sca"));
        scales_io::save_artifact(&path, &deployed).expect("artifact written");
        path
    });
    ModelFiles {
        checkpoint,
        artifact,
    }
}
