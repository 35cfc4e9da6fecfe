//! # scales-router
//!
//! Multi-model serving for the SCALES reproduction: a [`ModelRouter`]
//! fronts any number of named engines — different architectures, binary
//! methods, and scales — behind one routing surface, and keeps the fleet
//! alive through version changes and memory pressure. Std-only, like the
//! rest of the serving stack: each model runs its own `scales-runtime`
//! worker pool, and every lifecycle decision — routing, installing a
//! load, the budget sweep, folding a drained version's counters,
//! shutdown — is made by one plain `Fleet` value behind the router's one
//! mutex, while artifact reads, runtime spawns and drains run outside it.
//!
//! The three jobs, in the order a deployment meets them:
//!
//! 1. **Routing** — register models under validated names
//!    ([`ModelRouter::register_path`] for `scales-io` artifact files,
//!    [`ModelRouter::register_model`] for in-memory deployed networks),
//!    then [`ModelRouter::submit_wait_timeout`] routes each request by
//!    name. A routed response is bit-identical (`f32::to_bits`) to what
//!    a dedicated single-model runtime would produce — the router adds
//!    dispatch, never numerics. An unknown name is a typed
//!    [`RouterError::UnknownModel`] (the HTTP front end's 404).
//! 2. **Hot-swap** — [`ModelRouter::reload`] re-reads a path-backed
//!    model's artifact and swaps it in with zero downtime: the new
//!    version is fully built (read, decode, engine, worker pool) before
//!    the serving `Arc` is replaced, new intake moves over instantly,
//!    and the old runtime drains its in-flight requests to completion
//!    before shutting down. A failed load leaves the serving version
//!    untouched, and a transient artifact-*read* failure is retried with
//!    bounded doubling backoff
//!    ([`RouterConfig::reload_retries`] / [`RouterConfig::reload_backoff`])
//!    before the load gives up. No request routed before, during, or
//!    after the swap is dropped.
//! 3. **Memory accounting** — every model is charged its packed-weight
//!    bytes (serialized artifact size) plus its workers' live
//!    planned-executor workspace bytes. Over a configured
//!    [`RouterConfig::memory_budget`] the least-recently-used path-backed
//!    models are drained, evicted, and lazily reloaded on their next
//!    request; in-memory registrations are pinned.
//!
//! Observability rides along: [`ModelRouter::stats`] reports per-model
//! [`ModelStats`] (identity, version, FNV-1a artifact fingerprint, state,
//! memory charges, folded serving counters across every version), and
//! [`ModelRouter::render_prometheus`] renders the same as
//! `model`-labeled Prometheus series for `GET /metrics`: each model's
//! whole runtime record through the runtime's one renderer
//! ([`RuntimeStats::render_models`](scales_runtime::RuntimeStats::render_models):
//! the admission ledger, scalars, latency and stage histograms, per-op
//! profile, tenant lanes), then the router's own rows, written through
//! [`scales_telemetry::Exposition`] — which escapes label values.
//! A model's counters include every version from its first request, a
//! draining one too, so they never fall across a swap or an eviction.
//! [`ModelRouter::shutdown`] is final: a load that finishes after it is
//! refused and drained.
//!
//! ```no_run
//! use scales_router::{ModelRouter, RouterConfig};
//! use scales_serve::SrRequest;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let router = ModelRouter::new(RouterConfig::default())?;
//! router.register_path("edsr-x2", "models/edsr_x2.sca")?;
//! let lr = scales_data::Image::zeros(8, 8);
//! let sr = router
//!     .submit_wait_timeout("edsr-x2", SrRequest::single(lr), Duration::from_secs(5))??;
//! assert_eq!(sr.images()[0].height(), 16);
//! // Retrain, rewrite models/edsr_x2.sca, then swap it in live:
//! router.reload("edsr-x2")?;
//! let record = router.shutdown();
//! println!("{} models served", record.models.len());
//! # Ok(())
//! # }
//! ```

mod error;
mod fleet;
mod router;

pub use error::RouterError;
pub use router::{ModelRouter, ModelState, ModelStats, RouterConfig, RouterStats};
