//! # scales
//!
//! A complete Rust reproduction of **"SCALES: Boost Binary Neural Network
//! for Image Super-Resolution with Efficient Scalings"** (Wei et al.,
//! DATE 2025, arXiv:2303.12270).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`tensor`] | dense f32 tensors, im2col → GEMM convolution with gradients, the direct float convolution of the deployed path, broadcasting, [`tensor::backend`] kernel dispatch (scalar / simd) with a register-blocked GEMM microkernel, [`tensor::workspace`] reusable kernel scratch |
//! | [`autograd`] | reverse-mode tape with STE binarization gradients |
//! | [`nn`] | layers, Adam, losses, init |
//! | [`binary`] | bit-packed XNOR-popcount kernels, BNN cost model |
//! | [`core`] | the SCALES method (LSF + spatial/channel re-scaling), baselines, per-layer deployment lowering |
//! | [`models`] | SRResNet/EDSR/RDN/RCAN/SwinIR/HAT zoo + classifier probes + [`models::DeployedNetwork`] whole-network deployment engine + [`models::Plan`]/[`models::Workspace`] planned zero-allocation executor |
//! | [`data`] | synthetic datasets, bicubic resize, image IO, [`data::codec`] hardened wire codecs (binary PPM, stored/fixed-Huffman PNG subset) |
//! | [`io`] | versioned on-disk model artifacts: [`io::save_checkpoint`] / [`io::save_artifact`] and their loaders, served straight from disk via [`serve::EngineBuilder::model_path`] |
//! | [`metrics`] | PSNR/SSIM, activation-variance analysis |
//! | [`serve`] | the serving API: [`serve::Engine`] / [`serve::Session`] — one `infer` entry point for single/batch/tiled requests in training or deployed precision, per-engine backend |
//! | [`runtime`] | the concurrent serving runtime: [`runtime::Runtime`] worker pool over one shared engine, bounded queue with typed backpressure, cross-request dynamic batching, SLO-aware admission control (request deadlines with EDF scheduling, weighted per-tenant lanes + quotas, [`runtime::ShedPolicy`] load shedding), [`runtime::metrics`] with p50/p99 latency, batch-fill and per-tenant counters in [`runtime::RuntimeStats`] |
//! | [`router`] | multi-model serving: [`router::ModelRouter`] fleet of named engines — per-request routing, zero-downtime hot-swap of artifact versions (transient artifact reads retried with bounded backoff), per-model memory accounting with LRU eviction |
//! | [`http`] | the network edge: [`http::HttpServer`], a std-only HTTP/1.1 front end over a model fleet — hardened parser, `POST /v1/upscale` and `/v1/models/{name}/...` wire-image round trips with `X-Scales-Tenant` / `X-Scales-Deadline-Ms` SLO headers and typed 429/503/504 overload statuses, Prometheus `GET /metrics`, `GET /v1/debug/traces` / `GET /v1/debug/profile` observability endpoints, graceful drain |
//! | [`telemetry`] | request-scoped observability: [`telemetry::RequestId`] trace context (`X-Scales-Request-Id`), eight-stage span attribution in [`telemetry::RequestTrace`], the [`telemetry::FlightRecorder`] ring of recent/slow traces, and [`telemetry::OpProfile`] per-op plan profiles |
//! | `scales-faults` | injectable failure plane for chaos tests: named fault points armed with delay/panic/error actions, compiled into test builds only (the `faults` features) — a release build never links it |
//! | [`train`] | trainer, evaluator, experiment harness |
//!
//! ## Serving engine
//!
//! All inference goes through one request-oriented API: build an
//! [`serve::Engine`] (model + precision + backend + tile policy), open a
//! [`serve::Session`], and [`infer`](serve::Session::infer). Deployed
//! precision auto-lowers the network to the packed binary graph — every
//! architecture of the zoo, the transformers included — and a model that
//! cannot lower fails the build with its lowering error.
//!
//! ```
//! use scales::core::Method;
//! use scales::models::{srresnet, SrConfig};
//! use scales::serve::{Engine, Precision, SrRequest, TilePolicy};
//!
//! # fn main() -> Result<(), scales::tensor::TensorError> {
//! let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
//! let engine = Engine::builder()
//!     .model(net)                      // auto-lowered: packed XNOR-popcount body
//!     .precision(Precision::Deployed)
//!     .tile_policy(TilePolicy::auto()) // oversized inputs tile transparently
//!     .build()?;
//! let session = engine.session();
//! let lr = scales::data::Image::zeros(8, 8);
//! let sr = session.infer(SrRequest::batch(vec![lr.clone(), lr]))?;
//! assert_eq!(sr.images()[0].height(), 16);
//! # Ok(())
//! # }
//! ```
//!
//! ## Deployment engine
//!
//! A trained network lowers whole to the packed binary path — the Table VI
//! deployment story, end to end:
//!
//! ```
//! use scales::core::Method;
//! use scales::models::{srresnet, SrConfig, SrNetwork};
//!
//! # fn main() -> Result<(), scales::tensor::TensorError> {
//! let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
//! let deployed = net.lower()?; // packed XNOR-popcount body convs
//! let lr = scales::data::Image::zeros(8, 8);
//! let sr = deployed.super_resolve(&lr)?; // matches net.super_resolve within 1e-4
//! assert_eq!(sr.height(), 16);
//! # Ok(())
//! # }
//! ```
//!
//! ## Artifacts & persistence
//!
//! Both model forms persist to a versioned little-endian binary format
//! (`scales-io`): a **checkpoint** stores trained f32 weights plus the
//! (architecture, config) pair to rebuild through the [`models::Arch`]
//! registry; a **deployed artifact** stores the packed op graph itself.
//! Either file serves straight from disk, bit-identically to the model
//! that was saved:
//!
//! ```
//! use scales::core::Method;
//! use scales::models::{srresnet, SrConfig, SrNetwork};
//! use scales::serve::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
//! let dir = std::env::temp_dir().join(format!("scales-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! scales::io::save_checkpoint(dir.join("model.sca"), &net)?;       // trained weights
//! scales::io::save_artifact(dir.join("model.dep.sca"), &net.lower()?)?; // packed graph
//! let engine = Engine::builder().model_path(dir.join("model.dep.sca")).build()?;
//! let lr = scales::data::Image::zeros(8, 8);
//! assert_eq!(engine.session().super_resolve(&lr)?.height(), 16);
//! std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! Hot loops dispatch through [`tensor::backend`]: the runtime-detected
//! SIMD kernel (the default — AVX2 float GEMM and the direct float and
//! binary convolutions at the best ISA level the CPU reports, the scalar
//! loops where there is none) and the scalar reference kernel, with
//! identical numerics, selected per engine
//! ([`serve::EngineBuilder::backend`]), per thread
//! (`tensor::backend::with_thread_backend`), or for the process by
//! `SCALES_BACKEND=scalar|simd` (case-insensitive; unrecognized values are
//! a hard error).
//!
//! ```
//! use scales::core::Method;
//! use scales::models::{srresnet, SrConfig, SrNetwork};
//!
//! # fn main() -> Result<(), scales::tensor::TensorError> {
//! let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
//! let lr = scales::data::Image::zeros(8, 8);
//! assert_eq!(net.super_resolve(&lr)?.height(), 16);
//! # Ok(())
//! # }
//! ```

pub use scales_autograd as autograd;
pub use scales_binary as binary;
pub use scales_core as core;
pub use scales_data as data;
pub use scales_http as http;
pub use scales_io as io;
pub use scales_metrics as metrics;
pub use scales_models as models;
pub use scales_nn as nn;
pub use scales_router as router;
pub use scales_runtime as runtime;
pub use scales_serve as serve;
pub use scales_telemetry as telemetry;
pub use scales_tensor as tensor;
pub use scales_train as train;
