//! The experiment runner shared by benches and examples: builds a model
//! for an (architecture, method, scale) triple, trains it with the shared
//! protocol, evaluates it on the four synthetic benchmarks, and reports
//! cost with the paper's conventions.

use crate::eval::{evaluate_bicubic, evaluate_with, Score};
use crate::trainer::{train, TrainConfig};
use scales_binary::CostReport;
use scales_core::Method;
use scales_data::Benchmark;
use scales_models::SrConfig;
use scales_serve::{Engine, Precision};
use scales_tensor::Result;

// The architecture registry lived here before the persistence layer
// needed it below the serving stack; it now comes from `scales-models`
// and is re-exported to keep the historical `scales_train::Arch` path.
pub use scales_models::Arch;

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
}
