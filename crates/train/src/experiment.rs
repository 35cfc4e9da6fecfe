//! The experiment runner shared by benches and examples: builds a model
//! for an (architecture, method, scale) triple, trains it with the shared
//! protocol, evaluates it on the four synthetic benchmarks, and reports
//! cost with the paper's conventions.

use crate::eval::{evaluate_bicubic, evaluate_with, Score};
use crate::trainer::{train, TrainConfig};
use scales_binary::CostReport;
use scales_core::Method;
use scales_data::Benchmark;
use scales_models::{DeployedNetwork, SrConfig, SrNetwork};
use scales_serve::{Engine, Precision};
use scales_tensor::Result;
use std::path::Path;

// The architecture registry lived here before the persistence layer
// needed it below the serving stack; it now comes from `scales-models`
// and is re-exported to keep the historical `scales_train::Arch` path.
pub use scales_models::Arch;

/// FNV-1a over the network's identity (arch, full config incl. method)
/// and every parameter's f32 bit pattern: a cheap content fingerprint
/// that changes whenever the weights — or the method interpreting them —
/// do. The method must participate because different binarization
/// methods can share bit-identical parameter sets (e.g. BTM and BAM both
/// hold a single kaiming weight) while lowering to materially different
/// graphs.
fn network_fingerprint(net: &dyn SrNetwork) -> u64 {
    // Built on the shared `scales_io::Fnv1a` primitive with the exact
    // historical mixing scheme — byte-wise over the identity string,
    // whole-word over each parameter's bit pattern — so cache entries
    // written before the hash moved into `scales-io` remain valid.
    let mut h = scales_io::Fnv1a::new();
    let config = net.config();
    h.write(
        format!(
            "{}/{}/{}x{}b{}",
            net.arch().name(),
            config.method,
            config.scale,
            config.channels,
            config.blocks
        )
        .as_bytes(),
    );
    for p in net.params() {
        p.with_value(|t| {
            for v in t.data() {
                h.write_u64(u64::from(v.to_bits()));
            }
        });
    }
    h.finish()
}

/// Lower `net` through an on-disk artifact cache. The entry lives at
/// `dir/<key>-<fingerprint>.sca`, where the fingerprint hashes the
/// network's identity (arch, config, method) and parameter bits — so a
/// re-seeded, re-initialised, further trained or re-methoded network
/// regenerates automatically instead of being served a stale graph. When the entry exists, decodes, and matches the
/// network's architecture name and scale, the packed graph is
/// reassembled from disk (no re-lowering, bit-identical by the
/// `scales-io` format contract); otherwise the network is lowered and
/// the artifact written back best-effort (an unwritable cache never
/// fails the caller — the lowered graph is returned either way).
///
/// The fingerprint covers the network's identity and weights; changes
/// to the *lowering code itself* still require a fresh `key` or a cache
/// scrub (CI scrubs; see `.github/workflows/ci.yml`).
///
/// This is what lets many benchmark/serving processes share one packing
/// cost: the first run pays `lower()`, every later run deserializes.
///
/// # Errors
///
/// Propagates lowering errors.
pub fn lower_cached_in(dir: &Path, net: &dyn SrNetwork, key: &str) -> Result<DeployedNetwork> {
    let path = dir.join(format!("{key}-{:016x}.sca", network_fingerprint(net)));
    if path.exists() {
        if let Ok(artifact) = scales_io::load_artifact(&path) {
            if artifact.name() == net.arch().name() && artifact.scale() == net.scale() {
                return Ok(artifact);
            }
        }
        // Stale, foreign or corrupt entries fall through and regenerate.
    }
    let lowered = net.lower()?;
    if std::fs::create_dir_all(dir).is_ok() {
        // save_artifact publishes atomically (temp file + rename), so
        // concurrent cache sharers never observe a torn entry; a failed
        // write is non-fatal — the lowered graph is returned regardless.
        if scales_io::save_artifact(&path, &lowered).is_ok() {
            // Evict superseded fingerprints of the same key so a cache
            // that outlives many training rounds stays one entry per
            // key rather than growing without bound.
            if let Ok(entries) = std::fs::read_dir(dir) {
                let prefix = format!("{key}-");
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    // Only this key's own fingerprinted entries: the
                    // remainder must be exactly 16 hex chars + ".sca",
                    // so keys that extend this one ("edsr" vs
                    // "edsr-x4") are never evicted by each other.
                    let fingerprinted = name
                        .strip_prefix(&prefix)
                        .and_then(|rest| rest.strip_suffix(".sca"))
                        .is_some_and(|fp| {
                            fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit())
                        });
                    if fingerprinted && entry.path() != path {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
    }
    Ok(lowered)
}

/// [`lower_cached_in`] rooted at the `SCALES_ARTIFACT_CACHE` environment
/// variable; with the variable unset this is a plain [`SrNetwork::lower`].
///
/// # Errors
///
/// Propagates lowering errors.
pub fn lower_cached(net: &dyn SrNetwork, key: &str) -> Result<DeployedNetwork> {
    match std::env::var_os("SCALES_ARTIFACT_CACHE") {
        Some(dir) => lower_cached_in(Path::new(&dir), net, key),
        None => net.lower(),
    }
}

/// Experiment budget, overridable through environment variables so CI can
/// run fast while a workstation can run closer to the paper's scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Training iterations per row (`SCALES_BENCH_ITERS`).
    pub iters: usize,
    /// HR evaluation image side (`SCALES_BENCH_HR`), divisible by 8.
    pub hr_eval: usize,
    /// Body channels (`SCALES_BENCH_CHANNELS`).
    pub channels: usize,
    /// Body blocks (`SCALES_BENCH_BLOCKS`).
    pub blocks: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Self { iters: 120, hr_eval: 32, channels: 8, blocks: 1 }
    }
}

impl Budget {
    /// Read the budget from the environment, falling back to defaults.
    #[must_use]
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d)
        };
        let d = Self::default();
        Self {
            iters: get("SCALES_BENCH_ITERS", d.iters),
            hr_eval: get("SCALES_BENCH_HR", d.hr_eval),
            channels: get("SCALES_BENCH_CHANNELS", d.channels),
            blocks: get("SCALES_BENCH_BLOCKS", d.blocks),
        }
    }

    /// The train config this budget implies.
    #[must_use]
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            iters: self.iters,
            batch: 4,
            lr_patch: 12,
            lr: 2e-3,
            halve_every: (self.iters as u64 * 2 / 3).max(1),
            seed,
        }
    }
}

/// One comparison-table row: a method evaluated on all four benchmarks.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The method of this row.
    pub method: Method,
    /// `(benchmark name, score)` per benchmark, in paper column order.
    pub scores: Vec<(&'static str, Score)>,
    /// Cost accounted on a 640×360 LR input (the paper evaluates OPs on a
    /// 1280×720 HR image; at ×2 that is a 640×360 LR input).
    pub cost: Option<CostReport>,
}

/// Run one table row: train (unless FP-free bicubic) and evaluate.
///
/// # Errors
///
/// Propagates build/train/eval errors.
pub fn run_row(arch: Arch, method: Method, scale: usize, budget: &Budget) -> Result<RowResult> {
    let mut scores = Vec::with_capacity(Benchmark::ALL.len());
    if method == Method::Bicubic {
        for b in Benchmark::ALL {
            let set = b.build(scale, budget.hr_eval)?;
            scores.push((b.name(), evaluate_bicubic(&set)?));
        }
        return Ok(RowResult { method, scores, cost: None });
    }
    let config = SrConfig {
        channels: budget.channels,
        blocks: budget.blocks,
        scale,
        method,
        seed: 1234,
    };
    let model = arch.build(config)?;
    train(model.as_ref(), budget.train_config(42))?;
    // One serving engine per row, reused across the four benchmarks (the
    // table protocol evaluates the training path).
    let engine =
        Engine::builder().model_ref(model.as_ref()).precision(Precision::Training).build()?;
    let session = engine.session();
    for b in Benchmark::ALL {
        let set = b.build(scale, budget.hr_eval)?;
        scores.push((b.name(), evaluate_with(&session, &set)?));
    }
    let hr_eval_w = 1280 / scale;
    let hr_eval_h = 720 / scale;
    Ok(RowResult { method, scores, cost: Some(model.cost(hr_eval_h, hr_eval_w)) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bicubic_row_needs_no_training() {
        let r = run_row(Arch::SrResNet, Method::Bicubic, 2, &Budget { iters: 0, hr_eval: 32, channels: 4, blocks: 1 }).unwrap();
        assert_eq!(r.scores.len(), 4);
        assert!(r.cost.is_none());
    }

    #[test]
    fn tiny_scales_row_runs_end_to_end() {
        let budget = Budget { iters: 6, hr_eval: 32, channels: 4, blocks: 1 };
        let r = run_row(Arch::SrResNet, Method::scales(), 2, &budget).unwrap();
        assert_eq!(r.scores.len(), 4);
        assert!(r.cost.is_some());
        assert!(r.scores.iter().all(|(_, s)| s.psnr.is_finite()));
    }

    #[test]
    fn lower_cached_round_trips_through_the_cache_dir() {
        let net = Arch::SrResNet
            .build(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 5 })
            .unwrap();
        let dir = std::env::temp_dir().join(format!("scales-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First call lowers and populates the cache (one fingerprinted
        // entry under the key).
        let first = lower_cached_in(&dir, net.as_ref(), "srresnet-test").unwrap();
        let entry = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "sca"))
                .collect();
            assert_eq!(files.len(), 1, "exactly one cache entry");
            files.pop().unwrap()
        };
        let path = entry();
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("srresnet-test-"));
        // Second call must deserialize (poke the file's mtime-independent
        // path by checking bit-identical forwards instead of identity).
        let second = lower_cached_in(&dir, net.as_ref(), "srresnet-test").unwrap();
        let x = scales_tensor::Tensor::from_vec(
            (0..3 * 64).map(|i| (i as f32 * 0.21).sin() * 0.4 + 0.5).collect(),
            &[1, 3, 8, 8],
        )
        .unwrap();
        let a = first.forward(&x).unwrap();
        let b = second.forward(&x).unwrap();
        for (p, q) in a.data().iter().zip(b.data().iter()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // A corrupt cache entry regenerates instead of failing.
        std::fs::write(&path, b"garbage").unwrap();
        let third = lower_cached_in(&dir, net.as_ref(), "srresnet-test").unwrap();
        assert_eq!(third.num_ops(), first.num_ops());
        // A colliding entry from a *different* network (here: a ×4 RDN
        // copied over this network's fingerprint path) is detected by the
        // arch/scale check and regenerated, not served.
        let other = Arch::Rdn
            .build(SrConfig { channels: 8, blocks: 1, scale: 4, method: Method::scales(), seed: 9 })
            .unwrap();
        scales_io::save_artifact(&path, &other.lower().unwrap()).unwrap();
        let fourth = lower_cached_in(&dir, net.as_ref(), "srresnet-test").unwrap();
        assert_eq!(fourth.name(), "SRResNet");
        assert_eq!(fourth.scale(), 2);
        assert_eq!(fourth.num_ops(), first.num_ops());
        // Changed weights change the fingerprint: a fresh entry replaces
        // the superseded one (stale fingerprints are evicted, so the
        // cache stays one entry per key).
        net.params()[0].update_value(|t| t.data_mut()[0] += 1.0);
        let _ = lower_cached_in(&dir, net.as_ref(), "srresnet-test").unwrap();
        let remaining = entry();
        assert_ne!(remaining, path, "the entry is the re-weighted network's fingerprint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lower_cached_distinguishes_methods_with_identical_params() {
        // BTM and BAM nets from one seed hold bit-identical parameters;
        // the fingerprint must still keep their cache entries apart.
        let config =
            |m| SrConfig { channels: 8, blocks: 1, scale: 2, method: m, seed: 31 };
        let btm = Arch::SrResNet.build(config(Method::Btm)).unwrap();
        let bam = Arch::SrResNet.build(config(Method::Bam)).unwrap();
        // Give both nets the *same* nonzero tail (the zero-init tail would
        // otherwise make every method's output equal the bicubic skip),
        // keeping the parameter sets bit-identical across the two methods.
        for net in [btm.as_ref(), bam.as_ref()] {
            for p in net.params() {
                p.update_value(|t| {
                    for (j, v) in t.data_mut().iter_mut().enumerate() {
                        *v += ((j as f32) * 0.41).sin() * 0.1;
                    }
                });
            }
        }
        let dir = std::env::temp_dir().join(format!("scales-cache-m-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = lower_cached_in(&dir, btm.as_ref(), "same-key").unwrap();
        let b = lower_cached_in(&dir, bam.as_ref(), "same-key").unwrap();
        // The BAM publish evicts the superseded BTM fingerprint, and the
        // distinct fingerprints guarantee the BTM entry was never served
        // for the BAM network (checked on outputs below).
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sca"))
            .collect();
        assert_eq!(entries.len(), 1, "superseded fingerprint evicted");
        // The graphs must really be the two different lowerings.
        let x = scales_tensor::Tensor::from_vec(
            (0..3 * 36).map(|i| (i as f32 * 0.31).sin() * 0.4 + 0.5).collect(),
            &[1, 3, 6, 6],
        )
        .unwrap();
        let ya = a.forward(&x).unwrap();
        let yb = b.forward(&x).unwrap();
        assert!(
            ya.data().iter().zip(yb.data().iter()).any(|(p, q)| p != q),
            "BTM and BAM lowerings must not be interchangeable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lower_cached_propagates_unsupported_architectures() {
        // Every in-tree architecture lowers now, so the unsupported one is
        // an out-of-tree network: a real model whose `lower` refuses.
        struct NoLowering(Box<dyn SrNetwork>);
        impl scales_nn::Module for NoLowering {
            fn forward(&self, input: &scales_autograd::Var) -> Result<scales_autograd::Var> {
                self.0.forward(input)
            }
            fn params(&self) -> Vec<scales_autograd::Var> {
                self.0.params()
            }
        }
        impl SrNetwork for NoLowering {
            fn scale(&self) -> usize {
                self.0.scale()
            }
            fn arch(&self) -> Arch {
                self.0.arch()
            }
            fn config(&self) -> SrConfig {
                self.0.config()
            }
            fn cost(&self, lr_h: usize, lr_w: usize) -> CostReport {
                self.0.cost(lr_h, lr_w)
            }
            fn forward_recorded(
                &self,
                input: &scales_autograd::Var,
                recorder: &mut scales_models::Recorder,
            ) -> Result<scales_autograd::Var> {
                self.0.forward_recorded(input, recorder)
            }
            fn lower(&self) -> Result<DeployedNetwork> {
                Err(scales_tensor::TensorError::InvalidArgument("no packed form".into()))
            }
        }
        let net = NoLowering(
            Arch::SrResNet
                .build(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 6 })
                .unwrap(),
        );
        let dir = std::env::temp_dir().join(format!("scales-cache-t-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = lower_cached_in(&dir, &net, "stub").err().expect("the lowering error propagates");
        assert!(err.to_string().contains("no packed form"), "{err}");
        assert!(!dir.exists(), "a failed lowering must not leave a cache entry");
    }

    #[test]
    fn lower_cached_serves_transformers_bit_identically_from_the_cache() {
        // The inversion of the old "transformers have no lowering" pin.
        let dir = std::env::temp_dir().join(format!("scales-cache-tr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let x = scales_tensor::Tensor::from_vec(
            (0..3 * 64).map(|i| (i as f32 * 0.31).sin() * 0.4 + 0.5).collect(),
            &[1, 3, 8, 8],
        )
        .unwrap();
        for arch in [Arch::SwinIr, Arch::Hat] {
            let net = arch
                .build(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 6 })
                .unwrap();
            let lowered = lower_cached_in(&dir, net.as_ref(), arch.name()).unwrap();
            assert!(lowered.packed_layers() > 0, "{arch}");
            let cached = lower_cached_in(&dir, net.as_ref(), arch.name()).unwrap();
            let (a, b) = (lowered.forward(&x).unwrap(), cached.forward(&x).unwrap());
            for (p, q) in a.data().iter().zip(b.data()) {
                assert_eq!(p.to_bits(), q.to_bits(), "{arch}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
