//! # scales-train
//!
//! Training, evaluation and experiment-running harness shared by the
//! repository's benches, examples and integration tests:
//!
//! * [`trainer`] — the paper's protocol (L1, Adam β₁=0.9/β₂=0.999/ε=1e-8,
//!   LR halving, random aligned patches) at configurable scale.
//! * [`eval`] — mean PSNR/SSIM over the synthetic benchmark sets with the
//!   standard Y-channel + shave protocol.
//! * [`experiment`] — one-call table rows: build (architecture, method,
//!   scale), train, evaluate on all four benchmarks, account cost.
//! * [`report`] — paper-style plain-text tables and the
//!   `target/scales-report/` sink.

pub mod eval;
pub mod experiment;
pub mod report;
pub mod trainer;

pub use eval::{evaluate, evaluate_bicubic, evaluate_with, Score};
pub use experiment::{run_row, Arch, Budget, RowResult};
pub use report::{format_score, render_table, report_dir, write_report};
pub use trainer::{train, TrainConfig, TrainStats};
