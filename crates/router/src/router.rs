//! [`ModelRouter`] — named model registry, per-request routing,
//! zero-downtime hot-swap, and byte-budgeted LRU eviction.

use crate::error::RouterError;
use crate::lock;
use scales_models::{DeployedNetwork, SrNetwork};
use scales_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use scales_serve::{Engine, SrRequest, SrResponse};
use scales_telemetry::{Exposition, FamilyKind};
use scales_tensor::TensorError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// its artifact path.
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

/// The mutable half of a registry entry, behind the entry's own mutex.
#[derive(Default)]
struct EntryState {
    /// The serving version's runtime; `None` while evicted. Submitters
    /// clone the `Arc` for the duration of one request; a swap drains the
    /// old version by waiting for those clones to drop before shutting
    /// the runtime down.
    current: Option<Arc<Runtime>>,
    /// Monotonic version counter; 1 is the first load.
    version: u64,
    arch: String,
    scale: usize,
    /// FNV-1a over the serialized artifact bytes of the current version.
    fingerprint: u64,
    weight_bytes: usize,
    /// Times this model was drained by the memory budget.
    evictions: u64,
    /// Successful hot-swaps (reloads that replaced a serving version).
    swaps: u64,
    /// LRU clock stamp of the last routed request (or load).
    last_used: u64,
    /// Folded final stats of every drained version, so a model's serving
    /// record survives hot-swaps and evictions.
    retired: Option<RuntimeStats>,
}

impl EntryState {
    /// Make `loaded` the serving version — the next version number and
    /// its identity — and hand back the version it replaces, if any.
    fn swap_in(&mut self, loaded: LoadedVersion) -> Option<Arc<Runtime>> {
        self.version += 1;
        self.arch = loaded.arch;
        self.scale = loaded.scale;
        self.fingerprint = loaded.fingerprint;
        self.weight_bytes = loaded.weight_bytes;
        self.current.replace(loaded.runtime)
    }
}

/// One named model in the registry.
struct ModelEntry {
    name: String,
    /// Artifact path for path-backed models; `None` pins an in-memory
    /// registration resident (it cannot be reloaded or evicted).
    source: Option<PathBuf>,
    state: Mutex<EntryState>,
}

struct Inner {
    config: RouterConfig,
    models: Mutex<HashMap<String, Arc<ModelEntry>>>,
    shutdown: AtomicBool,
    /// LRU clock: bumped on every routed request and load.
    clock: AtomicU64,
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
/// internally `Arc`-shared); [`ModelRouter::shutdown`] drains every model
/// and is idempotent across handles.
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

/// What a successful artifact load produced, before it is installed.
struct LoadedVersion {
    runtime: Arc<Runtime>,
    arch: String,
    scale: usize,
    fingerprint: u64,
    weight_bytes: usize,
}

impl ModelRouter {
    /// Create an empty fleet.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the embedded runtime sizing is invalid.
    pub fn new(config: RouterConfig) -> Result<Self, RouterError> {
        config.validate()?;
        Ok(Self {
            inner: Arc::new(Inner {
                config,
                models: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                clock: AtomicU64::new(0),
            }),
        })
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
        let loaded = self.load_version(name, &path)?;
        self.install(name, Some(path), loaded)
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
        let loaded = self.spawn_version(name, model, &bytes)?;
        self.install(name, None, loaded)
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
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(RouterError::ShuttingDown);
        }
        let entry = self.entry(name)?;
        let mut reloaded = false;
        let version = {
            let mut st = lock(&entry.state);
            st.last_used = self.tick();
            match &st.current {
                Some(v) => Arc::clone(v),
                None => {
                    // Lazily re-admit an evicted model from its source.
                    let source = entry
                        .source
                        .as_deref()
                        .ok_or_else(|| RouterError::NotReloadable { name: name.into() })?;
                    let loaded = self.load_version(name, source)?;
                    let runtime = Arc::clone(&loaded.runtime);
                    st.swap_in(loaded);
                    reloaded = true;
                    runtime
                }
            }
        };
        let outcome = version.submit_wait_timeout(request, timeout);
        // Dropping `version` releases this request's hold on the `Arc` —
        // that is what lets a concurrent swap's drain proceed, and it
        // must happen before any budget sweep this thread runs (draining
        // a version while holding a clone of it would never terminate).
        drop(version);
        if reloaded {
            // The re-admitted bytes may have pushed the fleet back over
            // budget; evict colder models, never the one just used.
            self.enforce_budget(Some(name));
        }
        outcome.map_err(RouterError::Submit)
    }

    /// Hot-swap `name` to whatever its artifact file currently holds,
    /// with zero downtime:
    ///
    /// 1. the new version is built completely first — file read, decode,
    ///    engine build, runtime spawn — while the old version keeps
    ///    serving; a failure at any point returns [`RouterError::Load`]
    ///    and changes nothing;
    /// 2. the serving `Arc` is swapped under the entry lock, so every
    ///    request routed from that instant on lands on the new version;
    /// 3. the old version is drained: the swap waits for in-flight
    ///    submitters to release their clones, then shuts the old runtime
    ///    down and folds its final stats into the model's record. Every
    ///    request the old version accepted is served, never dropped.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`], [`RouterError::NotReloadable`] for
    /// in-memory registrations, [`RouterError::Load`], and
    /// [`RouterError::ShuttingDown`].
    pub fn reload(&self, name: &str) -> Result<ModelStats, RouterError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(RouterError::ShuttingDown);
        }
        let entry = self.entry(name)?;
        let source = entry
            .source
            .as_deref()
            .ok_or_else(|| RouterError::NotReloadable { name: name.into() })?;
        let loaded = self.load_version(name, source)?;
        let old = {
            let mut st = lock(&entry.state);
            st.last_used = self.tick();
            let old = st.swap_in(loaded);
            st.swaps += u64::from(old.is_some());
            old
        };
        if let Some(old) = old {
            retire(&entry, old, false);
        }
        self.enforce_budget(Some(name));
        Ok(self.snapshot(&entry))
    }

    /// Per-model reports for every registered model, sorted by name.
    #[must_use]
    pub fn list(&self) -> Vec<ModelStats> {
        let entries: Vec<Arc<ModelEntry>> =
            lock(&self.inner.models).values().cloned().collect();
        let mut models: Vec<ModelStats> =
            entries.iter().map(|e| self.snapshot(e)).collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        models
    }

    /// The report for one model.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownModel`].
    pub fn model(&self, name: &str) -> Result<ModelStats, RouterError> {
        let entry = self.entry(name)?;
        Ok(self.snapshot(&entry))
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

    /// Render the fleet's per-model serving record in the Prometheus
    /// text exposition format: the admission ledger (the runtime's table
    /// under its per-model scope), images served, eviction/swap counters,
    /// memory gauges, an info series and the latency histogram
    /// — every sample labeled `model="<name>"`, one `# HELP`/`# TYPE`
    /// block per family. This is what the HTTP front end's `GET /metrics`
    /// serves in fleet mode (plus its own connection counters). Empty
    /// fleet → empty string.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        Self::render_fleet(&self.list())
    }

    /// [`ModelRouter::render_prometheus`] as a function of the per-model
    /// reports alone, so the format can be pinned on hand-built records.
    fn render_fleet(models: &[ModelStats]) -> String {
        use FamilyKind::{Counter, Gauge, Histogram};
        /// One of the router's own per-model families: name, help, kind,
        /// and the reading it takes from a model's report.
        type ModelRow = (&'static str, &'static str, FamilyKind, fn(&ModelStats) -> u64);
        if models.is_empty() {
            return String::new();
        }
        let mut expo = Exposition::default();
        let idle = RuntimeStats::default();
        let served = models.iter().map(|m| (m.name.as_str(), m.runtime.as_ref().unwrap_or(&idle)));
        RuntimeStats::render_model_ledger(&mut expo, served);
        #[rustfmt::skip]
        let rows: [ModelRow; 7] = [
            ("scales_model_images_total", "Images served, per model.", Counter, |m| m.runtime.as_ref().map_or(0, |r| r.images)),
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
        expo.family("scales_model_info", "Model identity (constant 1; labels carry the info).", Gauge);
        for m in models {
            expo.sample(
                &[
                    ("model", &m.name),
                    ("arch", &m.arch),
                    ("scale", &m.scale.to_string()),
                    ("fingerprint", &format!("{:016x}", m.fingerprint)),
                    ("state", &m.state.to_string()),
                ],
                1,
            );
        }
        expo.family("scales_model_request_latency_seconds", "End-to-end request latency per model (enqueue to ticket resolution).", Histogram);
        for m in models {
            if let Some(stats) = &m.runtime {
                stats.latency.render_into(&mut expo, &[("model", &m.name)]);
            }
        }
        expo.finish()
    }

    /// Drain the whole fleet: refuse new work and new models, shut every
    /// resident runtime down gracefully (every accepted ticket resolves),
    /// and return the final per-model reports. Idempotent across handles:
    /// later calls return the same final record.
    #[must_use = "the final per-model stats are the fleet's serving record"]
    pub fn shutdown(&self) -> RouterStats {
        self.inner.shutdown.store(true, Ordering::Release);
        let entries: Vec<Arc<ModelEntry>> =
            lock(&self.inner.models).values().cloned().collect();
        for entry in &entries {
            let old = lock(&entry.state).current.take();
            if let Some(old) = old {
                retire(entry, old, false);
            }
        }
        self.stats()
    }

    // -- internals ---------------------------------------------------------

    fn entry(&self, name: &str) -> Result<Arc<ModelEntry>, RouterError> {
        lock(&self.inner.models)
            .get(name)
            .cloned()
            .ok_or_else(|| RouterError::UnknownModel { name: name.into() })
    }

    /// Read the artifact bytes, retrying transient IO failures with
    /// bounded doubling backoff
    /// ([`reload_retries`](RouterConfig::reload_retries) /
    /// [`reload_backoff`](RouterConfig::reload_backoff)). Only the *read*
    /// stage retries; decode failures downstream fail fast.
    fn read_artifact(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut backoff = self.inner.config.reload_backoff;
        let mut attempts_left = self.inner.config.reload_retries;
        loop {
            match read_once(path) {
                Ok(bytes) => return Ok(bytes),
                Err(e) => {
                    if attempts_left == 0 {
                        return Err(e);
                    }
                    attempts_left -= 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }

    /// Read + decode + spawn a runtime for the artifact at `path` —
    /// everything a (re)load pays, entirely off the serving path. A
    /// checkpoint is lowered here, so both kinds serve as the same packed
    /// graph through the same path.
    fn load_version(&self, name: &str, path: &Path) -> Result<LoadedVersion, RouterError> {
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
    fn spawn_version(
        &self,
        name: &str,
        net: DeployedNetwork,
        bytes: &[u8],
    ) -> Result<LoadedVersion, RouterError> {
        let fail = |e: TensorError| RouterError::Load { name: name.into(), detail: e.to_string() };
        let (arch, scale) = (net.name().to_string(), net.scale());
        let engine = Engine::builder().model(net).build().map_err(fail)?;
        let runtime = Runtime::spawn(engine, self.inner.config.runtime.clone()).map_err(fail)?;
        Ok(LoadedVersion {
            runtime: Arc::new(runtime),
            arch,
            scale,
            fingerprint: scales_io::fingerprint(bytes),
            weight_bytes: bytes.len(),
        })
    }

    /// The LRU clock's next stamp.
    fn tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert a freshly loaded model under `name`, then let the budget
    /// sweep evict colder models if the admission pushed the fleet over.
    fn install(
        &self,
        name: &str,
        source: Option<PathBuf>,
        loaded: LoadedVersion,
    ) -> Result<ModelStats, RouterError> {
        let mut state = EntryState { last_used: self.tick(), ..EntryState::default() };
        state.swap_in(loaded);
        let entry =
            Arc::new(ModelEntry { name: name.to_string(), source, state: Mutex::new(state) });
        let refusal = if self.inner.shutdown.load(Ordering::Acquire) {
            Some(RouterError::ShuttingDown)
        } else {
            let mut models = lock(&self.inner.models);
            let taken = models.contains_key(name);
            if !taken {
                models.insert(name.to_string(), Arc::clone(&entry));
            }
            taken.then(|| RouterError::DuplicateModel { name: name.into() })
        };
        if let Some(refusal) = refusal {
            // The runtime spawned for nothing is drained quietly, outside
            // the map lock.
            let stray = lock(&entry.state).current.take();
            let _ = stray.map(drain);
            return Err(refusal);
        }
        self.enforce_budget(Some(name));
        Ok(self.snapshot(&entry))
    }

    fn snapshot(&self, entry: &ModelEntry) -> ModelStats {
        let st = lock(&entry.state);
        let (state, resident_bytes, live) = match &st.current {
            Some(v) => {
                let stats = v.stats();
                (ModelState::Serving, st.weight_bytes + stats.workspace_bytes, Some(stats))
            }
            None => (ModelState::Evicted, 0, None),
        };
        let mut runtime = st.retired.clone();
        if let Some(live) = &live {
            runtime.get_or_insert_default().merge(live);
        }
        ModelStats {
            name: entry.name.clone(),
            arch: st.arch.clone(),
            scale: st.scale,
            version: st.version,
            fingerprint: st.fingerprint,
            state,
            weight_bytes: st.weight_bytes,
            resident_bytes,
            evictions: st.evictions,
            swaps: st.swaps,
            reloadable: entry.source.is_some(),
            runtime,
        }
    }

    /// While the fleet's resident bytes exceed the budget, drain the
    /// least-recently-used path-backed model. In-memory registrations are
    /// pinned, and `protect` (the model the caller just loaded or used)
    /// is never the victim — both to keep the hottest model resident and
    /// because the caller may still hold its version `Arc`. When only
    /// pinned/protected models remain over budget the sweep stops: the
    /// budget is a target, not an admission refusal — the newest load
    /// always serves.
    fn enforce_budget(&self, protect: Option<&str>) {
        let Some(budget) = self.inner.config.memory_budget else { return };
        loop {
            let entries: Vec<Arc<ModelEntry>> =
                lock(&self.inner.models).values().cloned().collect();
            let mut total = 0usize;
            let mut coldest: Option<(u64, Arc<ModelEntry>)> = None;
            for entry in &entries {
                let st = lock(&entry.state);
                let Some(v) = &st.current else { continue };
                total += st.weight_bytes + v.stats().workspace_bytes;
                if entry.source.is_some() && protect != Some(entry.name.as_str()) {
                    let colder = coldest.as_ref().is_none_or(|(used, _)| st.last_used < *used);
                    if colder {
                        coldest = Some((st.last_used, Arc::clone(entry)));
                    }
                }
            }
            if total <= budget {
                return;
            }
            let Some((_, victim)) = coldest else { return };
            let Some(old) = lock(&victim.state).current.take() else { continue };
            retire(&victim, old, true);
        }
    }
}

/// One artifact read attempt. With the `faults` feature (test builds
/// only) the `"router.read"` injection point runs first, so chaos tests
/// can stage transient IO failures against the retry loop.
#[cfg(feature = "faults")]
fn read_once(path: &Path) -> std::io::Result<Vec<u8>> {
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

#[cfg(not(feature = "faults"))]
fn read_once(path: &Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

/// Wait for every in-flight submitter to release its clone of `version`,
/// then drain the runtime gracefully and return its final stats. This is
/// the zero-drop guarantee: a submitter holding the `Arc` keeps the
/// runtime alive until its request resolves, so a swap or eviction never
/// refuses work that was already routed here.
fn drain(mut version: Arc<Runtime>) -> RuntimeStats {
    loop {
        match Arc::try_unwrap(version) {
            Ok(sole) => return sole.shutdown(),
            Err(shared) => {
                version = shared;
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

/// Drain `old`, a version `entry` no longer serves, and fold its final
/// stats into the entry's record — what a reload, an eviction and the
/// fleet shutdown each do with the version they take out; an eviction is
/// counted in the same critical section.
fn retire(entry: &ModelEntry, old: Arc<Runtime>, evicted: bool) {
    let final_stats = drain(old);
    let mut st = lock(&entry.state);
    st.retired.get_or_insert_default().merge(&final_stats);
    st.evictions += u64::from(evicted);
}

/// Names are URL path segments, and render in Prometheus labels and JSON
/// as themselves, so the alphabet is locked down at registration.
fn validate_name(name: &str) -> Result<(), RouterError> {
    if scales_telemetry::is_wire_safe_name(name) {
        return Ok(());
    }
    // Only the explanation branches here; validity was decided above.
    let reason = if name.is_empty() {
        "must not be empty"
    } else if name.len() > 64 {
        "must be at most 64 characters"
    } else {
        "allowed characters are A-Z a-z 0-9 . _ -"
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
        let block = &text[text.find("# HELP scales_model_request_latency_seconds").unwrap()..];
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
