//! # scales-serve
//!
//! The serving layer of the SCALES reproduction: one request-oriented API
//! over every inference axis the workspace grew — training vs deployed
//! precision, single- vs multi-image requests, full-image vs tiled forwards, and
//! scalar vs simd compute backends.
//!
//! The shape is the classic serving-engine triple:
//!
//! 1. [`Engine::builder()`] configures a model (anything implementing the
//!    object-safe [`InferModel`] — every `SrNetwork`, or a pre-lowered
//!    [`DeployedNetwork`](scales_models::DeployedNetwork)), a [`Precision`], a per-engine
//!    [`Backend`](scales_tensor::Backend) handle, and a [`TilePolicy`].
//! 2. [`EngineBuilder::build`] resolves the configuration once:
//!    `Precision::Deployed` auto-lowers the model to the packed binary
//!    graph — every architecture of the zoo lowers, CNN and transformer
//!    alike — and a model that cannot lower fails the build with its
//!    lowering error instead of silently serving the training path.
//! 3. [`Session::infer`] serves [`SrRequest`]s: the tile policy
//!    (per-request overridable) decides per image whether it is tiled or
//!    forwarded whole, every forward is one image or one tile — so an
//!    image's output never depends on the other images of its request —
//!    and everything runs under the engine's backend handle via
//!    [`scales_tensor::backend::with_thread_backend`] — no process-global
//!    backend state is read or written on this path.
//!
//! ```
//! use scales_serve::{Engine, Precision, SrRequest, TilePolicy};
//! use scales_models::{srresnet, SrConfig};
//! use scales_core::Method;
//!
//! # fn main() -> Result<(), scales_tensor::TensorError> {
//! let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
//! let engine = Engine::builder()
//!     .model(net)                      // auto-lowered to the packed graph
//!     .precision(Precision::Deployed)
//!     .tile_policy(TilePolicy::auto()) // large inputs tile transparently
//!     .build()?;
//! let session = engine.session();
//! let lr = scales_data::Image::zeros(8, 8);
//! let response = session.infer(SrRequest::batch(vec![lr.clone(), lr]))?;
//! assert_eq!(response.images()[0].height(), 16);
//! # Ok(())
//! # }
//! ```

mod engine;
mod request;
mod session;
mod tile;

pub use engine::{Engine, EngineBuilder, Precision};
pub use request::{InferStats, SrRequest, SrResponse};
pub use session::Session;
pub use tile::{TilePolicy, TileSpec};

// The model handle the engine is generic over and the workspace a session
// serves through, re-exported so `use scales_serve::*` is self-contained.
pub use scales_models::{InferModel, Workspace};
