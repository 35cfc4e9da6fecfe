//! [`ModelRouter`] — named model registry, per-request routing,
//! zero-downtime hot-swap, and byte-budgeted LRU eviction.

use crate::error::RouterError;
use crate::fleet::{Commit, Drain, Fleet, Identity, Load, Model, Record, Route};
use scales_models::{DeployedNetwork, SrNetwork};
use scales_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use scales_serve::{Engine, SrRequest, SrResponse};
use scales_telemetry::{Exposition, FamilyKind};
use scales_tensor::TensorError;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Fleet sizing: the per-model runtime configuration every loaded version
/// is spawned with, plus the optional resident-memory budget the LRU
/// eviction enforces.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Byte budget across all resident models (packed weights plus live
    /// planned-executor workspaces). When a load pushes the total over
    /// the budget, the least-recently-used *path-backed* models are
    /// drained and evicted until it fits; in-memory registrations are
    /// pinned (they have no source to reload from) and never evicted, so
    /// a fleet of pinned models can legitimately exceed the budget.
    /// `None` disables eviction.
    pub memory_budget: Option<usize>,
    /// Sizing of each model's private [`Runtime`] worker pool.
    pub runtime: RuntimeConfig,
    /// Transient-read retries during a (re)load: a failed artifact *read*
    /// is retried this many times with doubling backoff before the load
    /// fails. Decode failures never retry — bad bytes are a content
    /// problem, not an IO blip. `0` fails on the first read error.
    /// Default: 2.
    pub reload_retries: u32,
    /// Backoff before the first read retry; doubles on every further
    /// attempt (bounded by `reload_retries`). Default: 20 ms.
    pub reload_backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            memory_budget: None,
            runtime: RuntimeConfig::default(),
            reload_retries: 2,
            reload_backoff: Duration::from_millis(20),
        }
    }
}

impl RouterConfig {
    /// Check the configuration is servable.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::Load`] (named `<config>`) when the embedded
    /// [`RuntimeConfig`] is invalid.
    pub fn validate(&self) -> Result<(), RouterError> {
        self.runtime.validate().map_err(|e| RouterError::Load {
            name: "<config>".into(),
            detail: e.to_string(),
        })
    }
}

/// Whether a registered model currently holds a serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    /// A runtime is resident and accepting requests.
    Serving,
    /// The engine was drained and dropped by the memory budget; the next
    /// request (or an explicit [`ModelRouter::reload`]) reloads it from
    /// its artifact path. After [`ModelRouter::shutdown`] every model
    /// reads `Evicted`, and nothing reloads it.
    Evicted,
}

impl std::fmt::Display for ModelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelState::Serving => "serving",
            ModelState::Evicted => "evicted",
        })
    }
}

impl Record for RuntimeStats {
    fn merge(&mut self, other: &Self) {
        RuntimeStats::merge(self, other);
    }
}

/// A finished load: a spawned runtime and its identity, or why not.
type LoadResult = Result<(Arc<Runtime>, Identity), RouterError>;

struct Inner {
    config: RouterConfig,
    /// Every lifecycle decision; the router's one lock.
    fleet: Mutex<Fleet<Arc<Runtime>, RuntimeStats>>,
}

/// A fleet of named serving engines behind one routing surface.
///
/// * **Routing** — [`ModelRouter::submit_wait_timeout`] routes a request
///   to the model it names; an unknown name is a typed
///   [`RouterError::UnknownModel`].
/// * **Hot-swap** — [`ModelRouter::reload`] builds the *new* version
///   completely (read, decode, spawn runtime) before touching the
///   serving one, then swaps the `Arc` so new intake lands on the new
///   version instantly, and only then drains the old runtime to its last
///   in-flight ticket. A failed load returns [`RouterError::Load`] and
///   the serving version keeps serving — zero downtime either way.
/// * **Memory accounting** — each model is charged its packed-weight
///   bytes (the serialized artifact size) plus the live planned-executor
///   workspace bytes of its worker pool; over a configured budget the
///   least-recently-used path-backed models are drained and evicted, and
///   lazily reloaded on their next request.
///
/// Cloning the router clones a handle to the same fleet (the registry is
/// internally `Arc`-shared); [`ModelRouter::shutdown`] drains every model,
/// is final, and is idempotent across handles.
#[derive(Clone)]
pub struct ModelRouter {
    inner: Arc<Inner>,
}

/// Everything the router knows about one model: identity, state, memory
/// charges, and the serving counters folded across every version it has
/// run (live and drained).
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// Registered name (unique; the routing key).
    pub name: String,
    /// Architecture name of the loaded model.
    pub arch: String,
    /// Upscaling factor of the loaded model.
    pub scale: usize,
    /// Monotonic version counter; each successful (re)load increments it.
    pub version: u64,
    /// FNV-1a fingerprint of the current version's artifact bytes.
    pub fingerprint: u64,
    /// Whether a runtime is resident.
    pub state: ModelState,
    /// Packed-weight bytes (serialized artifact size) of the current
    /// version.
    pub weight_bytes: usize,
    /// Bytes currently charged against the budget: weight bytes plus the
    /// live worker workspaces. Zero while evicted.
    pub resident_bytes: usize,
    /// Times the memory budget drained this model.
    pub evictions: u64,
    /// Successful hot-swaps.
    pub swaps: u64,
    /// Whether the model can be reloaded (and therefore evicted): true
    /// exactly for path-backed registrations.
    pub reloadable: bool,
    /// Serving counters folded across every version of this model, or
    /// `None` when nothing has ever been loaded (unreachable through the
    /// public API — registration always loads).
    pub runtime: Option<RuntimeStats>,
}

/// A point-in-time (or final, from [`ModelRouter::shutdown`]) fleet
/// report: one [`ModelStats`] per registered model, sorted by name.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Per-model reports, sorted by name.
    pub models: Vec<ModelStats>,
}

impl RouterStats {
    /// Fold every model's serving counters into one [`RuntimeStats`] —
    /// the fleet's aggregate record, shaped like a single runtime's so
    /// existing single-model tooling can consume it. Zeroed when the
    /// fleet is empty.
    #[must_use]
    pub fn merged_runtime(&self) -> RuntimeStats {
        let mut merged = RuntimeStats::default();
        for stats in self.models.iter().filter_map(|m| m.runtime.as_ref()) {
            merged.merge(stats);
        }
        merged
    }
}

impl ModelRouter {
    /// Create an empty fleet.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the embedded runtime sizing is invalid.
    pub fn new(config: RouterConfig) -> Result<Self, RouterError> {
        config.validate()?;
        Ok(Self { inner: Arc::new(Inner { config, fleet: Mutex::new(Fleet::new()) }) })
    }

    /// The fleet configuration.
    #[must_use]
    pub fn config(&self) -> RouterConfig {
        self.inner.config.clone()
    }

    /// Register a model from a `scales-io` artifact file (checkpoint or
    /// deployed artifact). Path-backed models are **reloadable** — a
    /// later [`ModelRouter::reload`] hot-swaps whatever the file then
    /// holds — and **evictable** under the memory budget.
    ///
    /// # Errors
    ///
    /// [`RouterError::InvalidName`], [`RouterError::DuplicateModel`],
    /// [`RouterError::Load`] when the file cannot be read/decoded or the
    /// runtime cannot spawn, and [`RouterError::ShuttingDown`].
    pub fn register_path(
        &self,
        name: &str,
        path: impl Into<PathBuf>,
    ) -> Result<ModelStats, RouterError> {
        validate_name(name)?;
        let path = path.into();
        let loaded = self.load_version(name, &path);
        self.install(name, Load::Register(Some(path)), loaded)?;
        self.model(name)
    }

    /// Register an in-memory deployed model. In-memory models are
    /// **pinned**: they have no artifact path to reload from, so they are
    /// never evicted and [`ModelRouter::reload`] refuses them with
    /// [`RouterError::NotReloadable`]. The fingerprint and weight bytes
    /// are taken from the model's serialized artifact form.
    ///
    /// # Errors
    ///
    /// [`RouterError::InvalidName`], [`RouterError::DuplicateModel`],
    /// [`RouterError::Load`] when the engine or runtime cannot be built,
    /// and [`RouterError::ShuttingDown`].
    pub fn register_model(
        &self,
        name: &str,
        model: DeployedNetwork,
    ) -> Result<ModelStats, RouterError> {
        validate_name(name)?;
        let bytes = scales_io::artifact_to_bytes(&model);
        let loaded = self.spawn_version(name, model, &bytes);
        self.install(name, Load::Register(None), loaded)?;
        self.model(name)
    }

    /// Route one request to the model named `name`, bounding the whole
    /// round trip by `timeout` exactly as
    /// [`Runtime::submit_wait_timeout`] does. An evicted path-backed
    /// model is transparently reloaded first (the caller pays the load
    /// latency of its own cold request).
    ///
    /// The nested result separates the layers: the outer
    /// [`RouterError`] is the router or runtime refusing the request, the
    /// inner result is the serving outcome.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`], [`RouterError::Load`] when a lazy
    /// reload fails, [`RouterError::Submit`] for runtime refusals, and
    /// [`RouterError::ShuttingDown`].
    pub fn submit_wait_timeout(
        &self,
        name: &str,
        request: SrRequest,
        timeout: Duration,
    ) -> Result<scales_tensor::Result<SrResponse>, RouterError> {
        let route = self.fleet().route(name)?;
        let (version, readmitted) = match route {
            Route::Serve(version) => (version, false),
            // Lazily readmit an evicted model from its source, outside the
            // lock: routes and scrapes never wait on the read.
            Route::Load(path) => {
                let loaded = self.load_version(name, &path);
                let Commit { serving, drain } = self.fleet().commit(name, Load::Readmit, loaded);
                // A readmission replaces nothing, so `drain` is at most
                // this load, refused, which no one else ever held:
                // draining it waits on nobody.
                drain.into_iter().for_each(|d| self.retire(d));
                (serving?, true)
            }
        };
        let outcome = version.submit_wait_timeout(request, timeout);
        // `version` is this request's hold on the runtime: a swap or
        // eviction drains it only once every such hold has dropped, so it
        // must drop before this thread drains anything itself.
        drop(version);
        if readmitted {
            // The readmitted bytes may have pushed the fleet back over
            // budget; evict colder models, never the one just used.
            self.sweep(name);
        }
        outcome.map_err(RouterError::Submit)
    }

    /// Hot-swap `name` to whatever its artifact file currently holds,
    /// with zero downtime: the new version is built completely (read,
    /// decode, engine, runtime) while the old one serves — a failure
    /// returns [`RouterError::Load`] and changes nothing — then swapped in
    /// under the fleet lock. The old version drains: once no submitter
    /// holds it, it shuts down, and its final stats fold into the model's
    /// record, which counts it throughout. No accepted request is dropped.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`], [`RouterError::NotReloadable`] for
    /// in-memory registrations, [`RouterError::Load`], and
    /// [`RouterError::ShuttingDown`].
    pub fn reload(&self, name: &str) -> Result<ModelStats, RouterError> {
        let source = self.fleet().source(name)?;
        let loaded = self.load_version(name, &source);
        self.install(name, Load::Reload, loaded)?;
        self.model(name)
    }

    /// Per-model reports for every registered model, sorted by name.
    #[must_use]
    pub fn list(&self) -> Vec<ModelStats> {
        // Copy the models out (handles, not readings) and read each runtime
        // after the lock is released: a scrape never holds up a route
        // behind a runtime's own lock.
        let models: Vec<_> =
            self.fleet().models().map(|(name, m)| (name.clone(), m.clone())).collect();
        models.iter().map(|(name, m)| report(name, m)).collect()
    }

    /// The registered model names, sorted — read from the fleet alone,
    /// without a runtime's stats.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.fleet().models().map(|(name, _)| name.clone()).collect()
    }

    /// The report for one model.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`].
    pub fn model(&self, name: &str) -> Result<ModelStats, RouterError> {
        let model = self.fleet().model(name)?.clone();
        Ok(report(name, &model))
    }

    /// A live fleet snapshot.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        RouterStats { models: self.list() }
    }

    /// Bytes currently charged against the memory budget across the
    /// fleet (resident models only).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.list().iter().map(|m| m.resident_bytes).sum()
    }

    /// Render the fleet's per-model serving record in the Prometheus text
    /// exposition format: every model's runtime record through
    /// [`RuntimeStats::render_models`], then what only the router knows —
    /// eviction/swap counters, memory gauges, the version, the serving
    /// state and an info series — every sample labeled `model="<name>"`
    /// first. This is the HTTP front end's `GET /metrics` (plus its own
    /// families). Empty fleet → empty string.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        Self::render_fleet(&self.list())
    }

    /// [`ModelRouter::render_prometheus`] as a function of the per-model
    /// reports alone, so the format can be pinned on hand-built records.
    fn render_fleet(models: &[ModelStats]) -> String {
        use FamilyKind::{Counter, Gauge};
        /// One of the router's own per-model families: name, help, kind,
        /// and the reading it takes from a model's report.
        type ModelRow = (&'static str, &'static str, FamilyKind, fn(&ModelStats) -> u64);
        if models.is_empty() {
            return String::new();
        }
        let idle = RuntimeStats::default();
        let records: Vec<(&str, &RuntimeStats)> =
            models.iter().map(|m| (m.name.as_str(), m.runtime.as_ref().unwrap_or(&idle))).collect();
        let mut expo = Exposition::default();
        RuntimeStats::render_models(&mut expo, &records);
        #[rustfmt::skip]
        let rows: [ModelRow; 6] = [
            ("scales_model_evictions_total", "Times the memory budget drained this model.", Counter, |m| m.evictions),
            ("scales_model_swaps_total", "Hot-swaps that replaced a serving version of this model.", Counter, |m| m.swaps),
            ("scales_model_memory_bytes", "Bytes charged against the budget (weights + live workspaces).", Gauge, |m| m.resident_bytes as u64),
            ("scales_model_weight_bytes", "Packed-weight bytes (serialized artifact size) of the current version.", Gauge, |m| m.weight_bytes as u64),
            ("scales_model_version", "Monotonic version counter of the model's loads.", Gauge, |m| m.version),
            ("scales_model_serving", "1 while a runtime is resident, 0 while evicted.", Gauge, |m| u64::from(m.state == ModelState::Serving)),
        ];
        for (name, help, kind, value) in rows {
            expo.family(name, help, kind);
            for m in models {
                expo.sample(&[("model", &m.name)], value(m));
            }
        }
        expo.family("scales_model_info", "Model identity and serving backend (constant 1; labels carry the info).", Gauge);
        for (m, (_, record)) in models.iter().zip(&records) {
            expo.sample(
                &[
                    ("model", &m.name),
                    ("arch", &m.arch),
                    ("scale", &m.scale.to_string()),
                    ("fingerprint", &format!("{:016x}", m.fingerprint)),
                    ("state", &m.state.to_string()),
                    ("backend", &record.backend.to_string()),
                    ("simd", &record.simd.to_string()),
                ],
                1,
            );
        }
        expo.finish()
    }

    /// Drain the whole fleet: refuse new work and new models, shut every
    /// resident runtime down gracefully (every accepted ticket resolves),
    /// and return the final per-model reports. Shutdown is final: a load
    /// still running is refused when it finishes, and its runtime drained.
    /// Idempotent across handles: later calls return the same final
    /// record.
    #[must_use = "the final per-model stats are the fleet's serving record"]
    pub fn shutdown(&self) -> RouterStats {
        let resident = self.fleet().shutdown();
        resident.into_iter().for_each(|d| self.retire(d));
        // A swap, a sweep or another handle's shutdown may still be
        // draining a version; the record is final once it has folded.
        while !self.fleet().settled() {
            std::thread::sleep(DRAIN_POLL);
        }
        self.stats()
    }

    // -- internals ---------------------------------------------------------

    /// The fleet, poison-tolerant: each `Fleet` method leaves it whole.
    fn fleet(&self) -> MutexGuard<'_, Fleet<Arc<Runtime>, RuntimeStats>> {
        self.inner.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read the artifact bytes, retrying transient IO failures with
    /// bounded doubling backoff
    /// ([`reload_retries`](RouterConfig::reload_retries) /
    /// [`reload_backoff`](RouterConfig::reload_backoff)). Only the *read*
    /// stage retries; decode failures downstream fail fast.
    fn read_artifact(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut backoff = self.inner.config.reload_backoff;
        for _ in 0..self.inner.config.reload_retries {
            if let Ok(bytes) = read_once(path) {
                return Ok(bytes);
            }
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        read_once(path)
    }

    /// Read + decode + spawn a runtime for the artifact at `path` —
    /// everything a (re)load pays, entirely off the serving path and
    /// outside the fleet lock. A checkpoint is lowered here, so both kinds
    /// serve as the same packed graph through the same path.
    fn load_version(&self, name: &str, path: &Path) -> LoadResult {
        let fail = |detail: String| RouterError::Load { name: name.into(), detail };
        let bytes = self
            .read_artifact(path)
            .map_err(|e| fail(format!("reading {}: {e}", path.display())))?;
        let net = match scales_io::sniff_kind(&bytes).map_err(|e| fail(e.to_string()))? {
            scales_io::ArtifactKind::Checkpoint => {
                let trained =
                    scales_io::checkpoint_from_bytes(&bytes).map_err(|e| fail(e.to_string()))?;
                trained.lower().map_err(|e| fail(e.to_string()))?
            }
            scales_io::ArtifactKind::Deployed => {
                scales_io::artifact_from_bytes(&bytes).map_err(|e| fail(e.to_string()))?
            }
        };
        self.spawn_version(name, net, &bytes)
    }

    /// Spawn a runtime worker pool around `net`, whose serialized form
    /// `bytes` is what the version is fingerprinted and charged by.
    fn spawn_version(&self, name: &str, net: DeployedNetwork, bytes: &[u8]) -> LoadResult {
        let fail = |e: TensorError| RouterError::Load { name: name.into(), detail: e.to_string() };
        let (arch, scale) = (net.name().to_string(), net.scale());
        let engine = Engine::builder().model(net).build().map_err(fail)?;
        let runtime = Runtime::spawn(engine, self.inner.config.runtime.clone()).map_err(fail)?;
        let fingerprint = scales_io::fingerprint(bytes);
        let identity = Identity { arch, scale, fingerprint, weight_bytes: bytes.len() };
        Ok((Arc::new(runtime), identity))
    }

    /// Hand a finished load to the fleet and carry out its decision: drain
    /// the version it replaced (or the refused load), then the budget
    /// sweep's victims.
    fn install(&self, name: &str, load: Load, loaded: LoadResult) -> Result<(), RouterError> {
        let Commit { serving, drain } = self.fleet().commit(name, load, loaded);
        // Hold no version while draining: two drains that each held the
        // other's version would wait on each other forever.
        let installed = serving.map(drop);
        drain.into_iter().for_each(|d| self.retire(d));
        installed?;
        self.sweep(name);
        Ok(())
    }

    /// Drain the models the memory budget evicts; never `protect`. The
    /// caller holds no version.
    fn sweep(&self, protect: &str) {
        let budget = self.inner.config.memory_budget;
        let victims = self.fleet().sweep(budget, protect, |v| v.stats().workspace_bytes);
        victims.into_iter().for_each(|d| self.retire(d));
    }

    /// Drain a version the fleet handed back. This is the zero-drop
    /// guarantee: it shuts down only once no submitter holds a clone, so a
    /// swap or eviction never refuses work already routed to it. Until
    /// then the fleet's own clone keeps a counted version readable; it is
    /// closed on its last reading, and its final stats fold in. The caller
    /// must hold no version of its own.
    fn retire(&self, Drain { handle, ticket }: Drain<Arc<Runtime>>) {
        // Versions are cloned only under the fleet lock (a route, or a
        // snapshot being read), and a closed one never again, so a count
        // that has fallen under the lock stays there.
        loop {
            let mut fleet = self.fleet();
            if Arc::strong_count(&handle) <= 1 + usize::from(ticket.is_some()) {
                if let Some(ticket) = &ticket {
                    fleet.close(ticket, handle.stats());
                }
                break;
            }
            drop(fleet);
            std::thread::sleep(DRAIN_POLL);
        }
        let sole = Arc::into_inner(handle).expect("no clone outlives the wait");
        let final_stats = sole.shutdown();
        if let Some(ticket) = ticket {
            self.fleet().fold(ticket, &final_stats);
        }
    }
}

/// How often a drain looks again for the last submitter to let go.
const DRAIN_POLL: Duration = Duration::from_micros(500);

/// One model's report. The record counts every version from its first
/// request: the serving one, those still draining, and the folded ones.
fn report(name: &str, m: &Model<Arc<Runtime>, RuntimeStats>) -> ModelStats {
    let runtime = m.record(|v| v.stats());
    // The record folds the serving version last, so its gauges are that
    // version's live workspace.
    let live = runtime.as_ref().filter(|_| m.serving.is_some());
    let resident_bytes = live.map_or(0, |r| m.identity.weight_bytes + r.workspace_bytes);
    let Identity { arch, scale, fingerprint, weight_bytes } = m.identity.clone();
    ModelStats {
        name: name.to_string(),
        arch,
        scale,
        version: m.version,
        fingerprint,
        state: if m.serving.is_some() { ModelState::Serving } else { ModelState::Evicted },
        weight_bytes,
        resident_bytes,
        evictions: m.evictions,
        swaps: m.swaps,
        reloadable: m.source.is_some(),
        runtime,
    }
}

/// One artifact read attempt. With the `faults` feature (test builds
/// only) the `"router.read"` injection point runs first, so chaos tests
/// can stage transient IO failures against the retry loop.
fn read_once(path: &Path) -> std::io::Result<Vec<u8>> {
    #[cfg(feature = "faults")]
    match scales_faults::fire("router.read") {
        Some(scales_faults::FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(scales_faults::FaultAction::Panic) => panic!("injected fault: router.read"),
        Some(scales_faults::FaultAction::Error(message)) => {
            return Err(std::io::Error::other(format!("injected fault: {message}")));
        }
        None => {}
    }
    std::fs::read(path)
}

/// Names are URL path segments, and render in Prometheus labels and JSON
/// as themselves, so the alphabet is locked down at registration.
fn validate_name(name: &str) -> Result<(), RouterError> {
    // Only the explanation branches here; validity is the wire rule's.
    let reason = match name.len() {
        _ if scales_telemetry::is_wire_safe_name(name) => return Ok(()),
        0 => "must not be empty",
        65.. => "must be at most 64 characters",
        _ => "allowed characters are A-Z a-z 0-9 . _ -",
    };
    Err(RouterError::InvalidName { name: name.into(), reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_handle_is_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ModelRouter>();
    }

    #[test]
    fn names_are_validated_at_registration() {
        for bad in ["", "has space", "sla/sh", "ünïcode", &"x".repeat(65) as &str] {
            assert!(
                matches!(validate_name(bad), Err(RouterError::InvalidName { .. })),
                "{bad:?} must be rejected"
            );
        }
        for good in ["edsr", "edsr-x4.v2", "A_B-c.9"] {
            assert!(validate_name(good).is_ok(), "{good:?} must be accepted");
        }
    }

    #[test]
    fn invalid_runtime_sizing_is_rejected_at_construction() {
        let bad = RouterConfig {
            runtime: RuntimeConfig { workers: 0, ..RuntimeConfig::default() },
            ..RouterConfig::default()
        };
        assert!(ModelRouter::new(bad).is_err());
    }

    #[test]
    fn merged_runtime_of_an_empty_fleet_is_zeroed() {
        let stats = RouterStats { models: Vec::new() }.merged_runtime();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.latency.count(), 0);
    }

    /// The per-model scope renders the runtime's whole ledger table: a
    /// tenant-quota refusal is visible per model (the fleet used to type
    /// out seven of the eight counters and drop this one), under the
    /// global help text with the scope's suffix.
    #[test]
    fn fleet_renders_the_whole_ledger_per_model() {
        let model = ModelStats {
            name: "edsr-x2".into(),
            arch: "EDSR".into(),
            scale: 2,
            version: 1,
            fingerprint: 0xabc,
            state: ModelState::Serving,
            weight_bytes: 10,
            resident_bytes: 20,
            evictions: 0,
            swaps: 0,
            reloadable: false,
            runtime: Some(RuntimeStats { submitted: 5, quota_rejected: 2, images: 3, ..RuntimeStats::default() }),
        };
        let text = ModelRouter::render_fleet(&[model]);
        assert!(
            text.contains(
                "# HELP scales_model_requests_quota_rejected_total Requests refused at a tenant lane quota, per model.\n\
                 # TYPE scales_model_requests_quota_rejected_total counter\n\
                 scales_model_requests_quota_rejected_total{model=\"edsr-x2\"} 2\n"
            ),
            "{text}"
        );
        for (family, value) in [
            ("scales_model_requests_submitted_total", 5),
            ("scales_model_requests_rejected_total", 0),
            ("scales_model_requests_shed_total", 0),
            ("scales_model_requests_expired_total", 0),
            ("scales_model_deadline_misses_total", 0),
            ("scales_model_requests_completed_total", 0),
            ("scales_model_requests_failed_total", 0),
            ("scales_model_images_total", 3),
        ] {
            assert!(text.contains(&format!("{family}{{model=\"edsr-x2\"}} {value}\n")), "{family}:\n{text}");
            assert_eq!(text.matches(&format!("# TYPE {family} counter\n")).count(), 1, "{family}");
        }
    }

    /// The whole per-model latency block, byte for byte (the other
    /// families are substring-checked over the wire in `tests/http.rs`).
    #[test]
    fn latency_histogram_block_is_pinned() {
        let mut runtime = RuntimeStats::default();
        for us in [3, 700, 700, 40_000] {
            runtime.latency.record(Duration::from_micros(us));
        }
        let model = ModelStats {
            name: "edsr-x2".into(),
            arch: "EDSR".into(),
            scale: 2,
            version: 1,
            fingerprint: 0xabc,
            state: ModelState::Serving,
            weight_bytes: 10,
            resident_bytes: 20,
            evictions: 0,
            swaps: 0,
            reloadable: false,
            runtime: Some(runtime),
        };
        let text = ModelRouter::render_fleet(&[model]);
        // The router's own families follow the block; cut it at its count.
        let start = text.find("# HELP scales_model_request_latency_seconds").unwrap();
        let count = "scales_model_request_latency_seconds_count{model=\"edsr-x2\"} 4\n";
        let block = &text[start..text.find(count).unwrap() + count.len()];
        let expected = "\
            # HELP scales_model_request_latency_seconds End-to-end request latency per model (enqueue to ticket resolution).\n\
            # TYPE scales_model_request_latency_seconds histogram\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000001\"} 0\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000002\"} 0\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000004\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000008\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000016\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000032\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000064\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000128\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000256\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.000512\"} 1\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.001024\"} 3\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.002048\"} 3\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.004096\"} 3\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.008192\"} 3\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.016384\"} 3\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.032768\"} 3\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.065536\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.131072\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.262144\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"0.524288\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"1.048576\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"2.097152\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"4.194304\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"8.388608\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"16.777216\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"33.554432\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"67.108864\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"134.217728\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"268.435456\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"536.870912\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"1073.741824\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"2147.483648\"} 4\n\
            scales_model_request_latency_seconds_bucket{model=\"edsr-x2\",le=\"+Inf\"} 4\n\
            scales_model_request_latency_seconds_sum{model=\"edsr-x2\"} 0.041403\n\
            scales_model_request_latency_seconds_count{model=\"edsr-x2\"} 4\n\
        ";
        assert_eq!(block, expected);
    }
}
