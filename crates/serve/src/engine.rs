//! [`Engine`]: the resolved serving configuration — model, precision,
//! backend handle, tile policy — built once and shared by its
//! [`Session`](crate::Session)s.

use crate::tile::TilePolicy;
use scales_models::{DeployedNetwork, InferModel};
use scales_tensor::backend::{self, Backend};
use scales_tensor::{Result, Tensor, TensorError};
use std::path::PathBuf;

/// Which forward path an engine serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// The autograd training path — exact reference semantics, builds a
    /// tape per forward.
    Training,
    /// The packed deployment graph — tape-free, bit-packed binary body
    /// convolutions and linears. Auto-lowered at engine build; every
    /// architecture of the zoo lowers, and a model that cannot fails the
    /// build with its lowering error.
    Deployed,
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::Training => "training",
            Precision::Deployed => "deployed",
        })
    }
}

/// Borrow adapter: lets an engine serve a model it does not own.
struct ByRef<'a, M: InferModel + ?Sized>(&'a M);

impl<M: InferModel + ?Sized> InferModel for ByRef<'_, M> {
    fn scale(&self) -> usize {
        self.0.scale()
    }
    fn forward_infer(&self, batch: &Tensor) -> Result<Tensor> {
        self.0.forward_infer(batch)
    }
    fn try_lower(&self) -> Result<DeployedNetwork> {
        self.0.try_lower()
    }
    fn as_deployed(&self) -> Option<&DeployedNetwork> {
        self.0.as_deployed()
    }
}

/// Configures an [`Engine`]. Obtained from [`Engine::builder`].
pub struct EngineBuilder<'m> {
    model: Option<Box<dyn InferModel + 'm>>,
    model_path: Option<PathBuf>,
    precision: Precision,
    backend: Option<Backend>,
    tile: TilePolicy,
}

impl<'m> EngineBuilder<'m> {
    fn new() -> Self {
        Self {
            model: None,
            model_path: None,
            precision: Precision::Deployed,
            backend: None,
            tile: TilePolicy::Off,
        }
    }

    /// Serve an owned model — any [`SrNetwork`](scales_models::SrNetwork)
    /// (including `Box<dyn SrNetwork>`) or a [`DeployedNetwork`].
    #[must_use]
    pub fn model(mut self, model: impl InferModel + 'm) -> Self {
        self.model = Some(Box::new(model));
        self
    }

    /// Serve a borrowed model; the engine lives at most as long as the
    /// borrow.
    #[must_use]
    pub fn model_ref<M: InferModel + ?Sized>(mut self, model: &'m M) -> Self {
        self.model = Some(Box::new(ByRef(model)));
        self
    }

    /// Serve a model straight from a `scales-io` artifact file. At
    /// [`EngineBuilder::build`] the header is sniffed and either form
    /// loads: a **checkpoint** rebuilds the training network through the
    /// architecture registry (usable at both precisions, with `Deployed`
    /// auto-lowering as usual), a **deployed artifact** reassembles the
    /// packed graph as-is (already deployed; requesting
    /// [`Precision::Training`] on it is the usual build error). Loaded
    /// models serve outputs bit-identical to the model that was saved.
    ///
    /// Load failures surface at [`EngineBuilder::build`] as this crate's
    /// `TensorError`, with the underlying typed `scales_io::Error` in the
    /// message; callers that need to branch on the exact failure (missing
    /// file vs corrupt artifact, say) should load through `scales_io`
    /// directly and pass the model in via [`EngineBuilder::model`].
    #[must_use]
    pub fn model_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.model_path = Some(path.into());
        self
    }

    /// Requested forward path (default: [`Precision::Deployed`], the fast
    /// serving path).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Compute backend for every forward this engine runs, held by value
    /// and installed thread-scoped per request — independent engines never
    /// contend on process state. Defaults to the process-wide selection
    /// ([`backend::active`]) captured once at build.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Engine-default tiling decision (default: [`TilePolicy::Off`]);
    /// individual requests can override it.
    #[must_use]
    pub fn tile_policy(mut self, policy: TilePolicy) -> Self {
        self.tile = policy;
        self
    }

    /// Resolve the configuration into a ready engine.
    ///
    /// With [`Precision::Deployed`] this is where auto-lowering runs (and
    /// where its one-time packing cost is paid).
    ///
    /// # Errors
    ///
    /// Returns an error when no model was set (or both a model and a
    /// model path were), when a [`EngineBuilder::model_path`] artifact
    /// fails to load, when the tile policy is geometrically invalid, when
    /// [`Precision::Deployed`] is requested for a model that cannot lower
    /// (the lowering error itself — never a silent degradation to the
    /// 50–100× slower training path), or
    /// when [`Precision::Training`] is requested for a model that is
    /// already a deployed graph (it has no training path, and silently
    /// substituting the deployed one would hide a numerics difference of
    /// up to `1e-4`).
    pub fn build(self) -> Result<Engine<'m>> {
        // Cheap configuration checks come first: an invalid tile policy
        // must never pay an artifact read/decode (or any other expensive
        // resolution) before being reported.
        self.tile.validate()?;
        let model: Box<dyn InferModel + 'm> = match (self.model, self.model_path) {
            (Some(_), Some(_)) => {
                return Err(TensorError::InvalidArgument(
                    "engine got both a model and a model path; set exactly one".into(),
                ))
            }
            (Some(model), None) => model,
            (None, Some(path)) => {
                let describe = |e: scales_io::Error| {
                    TensorError::InvalidArgument(format!(
                        "loading model artifact {}: {e}",
                        path.display()
                    ))
                };
                // One read of the file: sniff the kind from the in-memory
                // bytes and decode the same buffer.
                let bytes = std::fs::read(&path)
                    .map_err(|e| describe(scales_io::Error::from(e)))?;
                match scales_io::sniff_kind(&bytes).map_err(describe)? {
                    scales_io::ArtifactKind::Checkpoint => {
                        Box::new(scales_io::checkpoint_from_bytes(&bytes).map_err(describe)?)
                    }
                    scales_io::ArtifactKind::Deployed => {
                        Box::new(scales_io::artifact_from_bytes(&bytes).map_err(describe)?)
                    }
                }
            }
            (None, None) => {
                return Err(TensorError::InvalidArgument("engine needs a model".into()))
            }
        };
        let scale = model.scale();
        let deployed = model.as_deployed().is_some();
        let lowered = match self.precision {
            Precision::Training if deployed => {
                return Err(TensorError::InvalidArgument(
                    "cannot serve a deployed network at training precision: \
                     a lowered graph has no training path"
                        .into(),
                ));
            }
            Precision::Deployed if !deployed => Some(model.try_lower()?),
            Precision::Training | Precision::Deployed => None,
        };
        Ok(Engine {
            model,
            lowered,
            precision: self.precision,
            backend: self.backend.unwrap_or_else(backend::active),
            tile: self.tile,
            scale,
        })
    }
}

/// A resolved serving configuration. Create via [`Engine::builder`], then
/// open a [`Session`](crate::Session) to serve requests.
pub struct Engine<'m> {
    model: Box<dyn InferModel + 'm>,
    /// Present when `Deployed` precision lowered a training model at
    /// build; absent when serving the model directly (training path, or a
    /// model that is already deployed).
    lowered: Option<DeployedNetwork>,
    precision: Precision,
    backend: Backend,
    tile: TilePolicy,
    scale: usize,
}

impl<'m> Engine<'m> {
    /// Start configuring an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder<'m> {
        EngineBuilder::new()
    }

    /// Open a session on this engine. Sessions are cheap; open one per
    /// client or per logical stream of requests.
    #[must_use]
    pub fn session(&self) -> crate::Session<'_, 'm> {
        crate::Session::over(self, crate::Workspace::new())
    }

    /// Open a session that serves through `workspace` — typically one a
    /// finished session gave back ([`Session::into_workspace`](crate::Session::into_workspace)),
    /// so its arenas, plan cache and profiler setting carry over to the
    /// next stream. The workspace must have served only this engine's
    /// network (or nothing yet).
    #[must_use]
    pub fn session_over(&self, workspace: crate::Workspace) -> crate::Session<'_, 'm> {
        crate::Session::over(self, workspace)
    }

    /// Upscaling factor of the served model.
    #[must_use]
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The backend handle every forward of this engine runs under.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The precision served — always the one the builder asked for.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The engine-default tile policy.
    #[must_use]
    pub fn tile_policy(&self) -> TilePolicy {
        self.tile
    }

    /// The deployment graph this engine lowered at build, when it did.
    #[must_use]
    pub fn lowered(&self) -> Option<&DeployedNetwork> {
        self.lowered.as_ref()
    }

    /// One forward through whichever path this engine resolved to. A
    /// deployed graph — auto-lowered at build or passed in pre-lowered —
    /// runs through the planned zero-allocation executor against the
    /// caller's [`Workspace`] — never through
    /// [`DeployedNetwork::forward`], the same executor with slot reuse off
    /// that tests use as the aliasing oracle; the training path ignores
    /// the workspace. Callers are responsible
    /// for running under [`Engine::backend`]; sessions do.
    pub(crate) fn forward_with(
        &self,
        batch: &Tensor,
        ws: &mut scales_models::Workspace,
    ) -> Result<Tensor> {
        if let Some(net) = self.lowered.as_ref().or_else(|| self.model.as_deployed()) {
            net.forward_planned(batch, ws)
        } else {
            self.model.forward_infer(batch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time contract of the concurrent serving stack: `&Engine`
    /// must be `Send` (equivalently `Engine: Sync`) so one engine can be
    /// shared by every `scales-runtime` worker, and a `Session` must be
    /// `Send` so each worker thread can own one. Sessions are deliberately
    /// *not* `Sync` — they carry interior-mutable per-stream state (serving
    /// counters and the planned executor's workspace), which is exactly why
    /// the worker pool gives each thread its own session instead of sharing
    /// one.
    #[test]
    fn engine_is_shareable_and_sessions_are_movable() {
        fn assert_send<T: Send + ?Sized>() {}
        fn assert_sync<T: Sync + ?Sized>() {}
        assert_send::<Engine<'static>>();
        assert_sync::<Engine<'static>>();
        assert_send::<&Engine<'static>>();
        assert_send::<crate::Session<'static, 'static>>();
    }

    /// An invalid tile policy must be reported before the artifact file is
    /// even opened: the path below does not exist, so reaching the loader
    /// would surface an I/O error instead of the tile error we require.
    #[test]
    fn invalid_tile_policy_errors_before_artifact_io() {
        let dir = std::env::temp_dir()
            .join(format!("scales-engine-no-io-{}", std::process::id()));
        let missing = dir.join("definitely-not-created.sca");
        assert!(!missing.exists(), "precondition: the artifact path must not exist");
        let built = Engine::builder()
            .model_path(&missing)
            .tile_policy(TilePolicy::Auto { max_side: 4, overlap: 4 })
            .build();
        let Err(err) = built else {
            panic!("an invalid tile policy must fail the build")
        };
        let text = err.to_string();
        assert!(text.contains("overlap"), "tile validation must win: {text}");
        assert!(
            !text.contains("artifact"),
            "the loader must not have run for an invalid tile policy: {text}"
        );
    }
}
