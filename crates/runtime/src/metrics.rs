//! The runtime's observability subsystem: the admission ledger, fixed-bucket
//! latency histograms, and the [`RuntimeStats`] snapshot.
//!
//! The runtime keeps **one record**, inside the queue value behind its one
//! lock: each lane's ledger (`Counters`) and the serving half (images,
//! dispatches, busy time, histograms) are booked by a worker in one
//! critical section per dispatch, before any of its tickets resolve, so a
//! caller that reads [`Runtime::stats`] after its response sees it counted
//! in every scope. A snapshot is one lock acquisition, not a fold.
//!
//! Latency is tracked end-to-end (enqueue → ticket resolution, so queueing
//! and batching-window time are included) in a [`LatencyHistogram`] with
//! geometric fixed buckets; [`LatencyHistogram::p50`] / `p99` read
//! quantiles from the bucket counts without recording individual samples.
//!
//! Rendering knows no text format: every family is rows fed to
//! [`scales_telemetry::Exposition`]. The admission ledger is declared once
//! (`LEDGER`) and rendered under three label scopes — `scales_runtime_*`,
//! `scales_runtime_tenant_*` (`tenant`) and, for `scales-router` through
//! [`RuntimeStats::render_model_ledger`], `scales_model_*` (`model`).
//!
//! [`Runtime::stats`]: crate::Runtime::stats

use scales_telemetry::{Exposition, FamilyKind, OpProfile};
use scales_tensor::backend::Backend;
use scales_tensor::SimdLevel;
use std::time::Duration;

/// Number of geometric latency buckets: bucket `i` holds samples up to
/// `1 µs × 2^i`, so the histogram spans 1 µs to ~35 min — comfortably
/// both a cached 8×8 forward and a pathological stall.
pub const LATENCY_BUCKETS: usize = 32;

/// Fixed-bucket latency histogram with geometric bounds.
///
/// Recording is O(buckets) worst case and allocation-free; quantile reads
/// report the **upper bound** of the bucket containing the requested rank
/// (a conservative estimate with at most 2× resolution error, which is
/// what fixed geometric buckets buy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl LatencyHistogram {
    /// Upper bound of bucket `i`, in nanoseconds.
    fn bound_ns(i: usize) -> u128 {
        1_000u128 << i
    }

    fn bucket_for(ns: u128) -> usize {
        for i in 0..LATENCY_BUCKETS {
            if ns <= Self::bound_ns(i) {
                return i;
            }
        }
        LATENCY_BUCKETS - 1
    }

    /// Record one sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos();
        self.counts[Self::bucket_for(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(u64::try_from(ns).unwrap_or(u64::MAX));
    }

    /// Fold another histogram into this one ([`RuntimeStats::merge`]).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (zero when empty).
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let ns = self.sum_ns / u128::from(self.total);
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Largest sample seen (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The latency at quantile `q ∈ [0, 1]`, reported as the upper bound
    /// of the bucket containing that rank (zero when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket bound to the observed max so a lone
                // sample deep inside a wide bucket (or below the first
                // bound) never reports a quantile above `max()`.
                let ns = Self::bound_ns(i).min(u128::from(self.max_ns));
                return Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX));
            }
        }
        self.max()
    }

    /// Upper bound of bucket `i` as a [`Duration`]
    /// (`1 µs × 2^i`; see [`LATENCY_BUCKETS`]).
    ///
    /// # Panics
    ///
    /// Panics when `i >= LATENCY_BUCKETS`.
    #[must_use]
    pub fn bucket_bound(i: usize) -> Duration {
        assert!(i < LATENCY_BUCKETS, "bucket index {i} out of range");
        Duration::from_nanos(u64::try_from(Self::bound_ns(i)).unwrap_or(u64::MAX))
    }

    /// Per-bucket sample counts (not cumulative), index-aligned with
    /// [`LatencyHistogram::bucket_bound`].
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(u64::try_from(self.sum_ns).unwrap_or(u64::MAX))
    }

    /// Median latency (bucket upper bound).
    #[must_use]
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency (bucket upper bound).
    #[must_use]
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Append this histogram as one labelled series of the histogram
    /// family `expo` has open (bounds and sum in seconds) — shared by the
    /// runtime's, the router's and the HTTP front end's histograms.
    pub fn render_into(&self, expo: &mut Exposition, labels: &[(&str, &str)]) {
        let mut cumulative = 0u64;
        let buckets = self.counts.iter().enumerate().map(|(i, &count)| {
            cumulative += count;
            (Self::bucket_bound(i).as_secs_f64(), cumulative)
        });
        expo.histogram(labels, buckets, self.sum().as_secs_f64(), self.count());
    }
}

/// One tenant lane's admission and serving counters, reported inside
/// [`RuntimeStats::tenants`]. Only *tagged* tenants appear here —
/// untagged traffic shares the anonymous lane and is visible in the
/// global counters alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant tag ([`SrRequest::tenant`](scales_serve::SrRequest::tenant)).
    pub tenant: String,
    /// The lane's weighted-round-robin dequeue weight
    /// ([`RuntimeConfig::tenant_weights`](crate::RuntimeConfig::tenant_weights)).
    pub weight: u32,
    /// Requests queued in this lane at snapshot time.
    pub queued: usize,
    /// Requests accepted into this lane.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests resolved with an error (dispatch failure or unserved at
    /// shutdown).
    pub failed: u64,
    /// Requests refused for capacity: queue full, or an admission
    /// timeout while blocked for space.
    pub rejected: u64,
    /// Requests refused early by the shed policy.
    pub shed: u64,
    /// Requests refused at this lane's quota.
    pub quota_rejected: u64,
    /// Requests whose deadline passed before dispatch (never served).
    pub expired: u64,
    /// Requests served, but after their deadline passed mid-flight.
    pub deadline_misses: u64,
}

/// The eight counters of a [`TenantStats`] row, named once: [`Counters`]
/// is what a tenant lane keeps — the runtime's one ledger — and what `+=`
/// folds. The admission half of the global [`RuntimeStats`] is the sum
/// over the live lanes plus the aggregate that absorbs retired lanes and
/// lane-less refusals, so retiring a lane never loses a count.
macro_rules! ledger {
    ($($counter:ident),*) => {
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub(crate) struct Counters {
            $(pub $counter: u64,)*
        }

        impl std::ops::AddAssign for Counters {
            fn add_assign(&mut self, other: Self) {
                $(self.$counter += other.$counter;)*
            }
        }

        impl TenantStats {
            /// The public row of one lane's ledger.
            pub(crate) fn new(tenant: String, weight: u32, queued: usize, c: Counters) -> Self {
                Self { tenant, weight, queued, $($counter: c.$counter,)* }
            }

            fn counters(&self) -> Counters {
                Counters { $($counter: self.$counter,)* }
            }
        }

        impl RuntimeStats {
            /// The admission half of the snapshot.
            fn counters(&self) -> Counters {
                Counters { $($counter: self.$counter,)* }
            }

            /// Overwrite the admission half of the snapshot.
            pub(crate) fn set_counters(&mut self, c: Counters) {
                $(self.$counter = c.$counter;)*
            }
        }
    };
}
ledger!(submitted, completed, failed, rejected, shed, quota_rejected, expired, deadline_misses);

/// One ledger family: the name stem a scope prefixes, the help sentence
/// it finishes, and the counter it reads.
type LedgerFamily = (&'static str, &'static str, fn(&Counters) -> u64);

/// The ledger as `/metrics` families, declared once, one row per line. A
/// new `ledger!` counter plus one row here renders globally, per tenant
/// lane and per model.
#[rustfmt::skip]
const LEDGER: [LedgerFamily; 8] = [
    ("requests_submitted_total", "Requests accepted into the queue", |c| c.submitted),
    ("requests_rejected_total", "Requests rejected at submission (queue full or admission timeout)", |c| c.rejected),
    ("requests_shed_total", "Requests refused early by the shed policy", |c| c.shed),
    ("requests_quota_rejected_total", "Requests refused at a tenant lane quota", |c| c.quota_rejected),
    ("requests_expired_total", "Requests whose deadline passed before dispatch (never served)", |c| c.expired),
    ("deadline_misses_total", "Requests served after their deadline passed mid-flight", |c| c.deadline_misses),
    ("requests_completed_total", "Requests served successfully", |c| c.completed),
    ("requests_failed_total", "Requests resolved with an error", |c| c.failed),
];

/// Render the [`LEDGER`] of `rows` — `(label value, counters)` — under one
/// label scope: `prefix` opens every family name, `label` is the key that
/// tells the rows apart (`None`: one unlabelled row), `help_end` finishes
/// every help sentence.
fn render_ledger(
    expo: &mut Exposition,
    prefix: &str,
    label: Option<&str>,
    help_end: &str,
    rows: &[(&str, Counters)],
) {
    for (stem, help, counter) in LEDGER {
        expo.family(&format!("{prefix}{stem}"), &format!("{help}{help_end}"), FamilyKind::Counter);
        for (row, counters) in rows {
            expo.sample(label.map(|key| (key, *row)).as_slice(), counter(counters));
        }
    }
}

/// Aggregated snapshot of a runtime's serving counters, returned by
/// [`Runtime::stats`](crate::Runtime::stats) (live) and
/// [`Runtime::shutdown`](crate::Runtime::shutdown) (final).
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Backend the runtime's engine dispatches forwards under.
    pub backend: Backend,
    /// CPU SIMD level the backend's kernel dispatches at
    /// ([`SimdLevel::None`] for the scalar kernel, the detected feature
    /// level for simd).
    pub simd: SimdLevel,
    /// The configured dispatch target ([`RuntimeConfig::max_batch`](crate::RuntimeConfig::max_batch)).
    pub max_batch: usize,
    /// Requests accepted into the queue so far.
    pub submitted: u64,
    /// Requests rejected at submission: [`SubmitError::QueueFull`](crate::SubmitError::QueueFull),
    /// or a [`submit_wait_timeout`](crate::Runtime::submit_wait_timeout)
    /// deadline that expired while still blocked for queue space.
    pub rejected: u64,
    /// Requests refused early by the shed policy
    /// ([`SubmitError::Shedding`](crate::SubmitError::Shedding)).
    pub shed: u64,
    /// Requests refused at a tenant lane quota
    /// ([`SubmitError::TenantQuota`](crate::SubmitError::TenantQuota)).
    pub quota_rejected: u64,
    /// Requests whose deadline passed before dispatch
    /// ([`SubmitError::Expired`](crate::SubmitError::Expired)) — refused
    /// at the door or retracted from the queue, never served.
    pub expired: u64,
    /// Requests served successfully, but after their deadline passed
    /// mid-flight — the late-but-served counterpart of `expired`.
    pub deadline_misses: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests resolved with an error.
    pub failed: u64,
    /// Images served.
    pub images: u64,
    /// Coalesced forward dispatches (one `Session::infer` each).
    pub dispatches: u64,
    /// Requests that shared a dispatch with at least one other request.
    pub coalesced: u64,
    /// Requests queued (accepted, not yet dispatched) at snapshot time.
    pub queue_depth: usize,
    /// Deepest the queue has been.
    pub queue_high_water: usize,
    /// Bytes resident across the workers' planned-executor workspaces
    /// (arena slots + cached plans) — the runtime's live plan-cache
    /// memory, summed over worker sessions at their last dispatch.
    pub workspace_bytes: usize,
    /// Mean images per dispatch relative to `max_batch`:
    /// `images / (dispatches × max_batch)`. Can exceed 1.0 when single
    /// requests are larger than `max_batch`.
    pub batch_fill: f64,
    /// Total worker wall time inside forwards.
    pub busy: Duration,
    /// Wall time since [`Runtime::spawn`](crate::Runtime::spawn).
    pub elapsed: Duration,
    /// End-to-end request latency (enqueue → ticket resolution).
    pub latency: LatencyHistogram,
    /// Queue residence per request (enqueue → worker pop) — the
    /// `queue_wait` stage of the request trace, as a histogram.
    pub queue_wait: LatencyHistogram,
    /// Batch-assembly wait per request (worker pop → batch sealed) —
    /// the `batch_wait` trace stage.
    pub batch_wait: LatencyHistogram,
    /// Forward span per request (batch sealed → infer done) — the
    /// `infer` trace stage. Coalesced requests share one forward, so
    /// each records the same span.
    pub infer: LatencyHistogram,
    /// Responses that resolved after their submitter's
    /// [`submit_wait_timeout`](crate::Runtime::submit_wait_timeout)
    /// deadline gave up waiting — the work was served (and counted in
    /// `completed`/`failed`), but the result was discarded unread.
    pub late_discarded: u64,
    /// Cumulative per-op plan profile across worker sessions, populated
    /// while [`RuntimeConfig::profile_ops`](crate::RuntimeConfig::profile_ops)
    /// is on (empty otherwise).
    pub op_profile: OpProfile,
    /// Per-tenant lane counters, sorted by tenant name. Empty when no
    /// request carried a tenant tag and no weights were configured.
    pub tenants: Vec<TenantStats>,
}

impl RuntimeStats {
    /// Fold `other` into `self`: counters, durations and histograms add,
    /// sizing and high-water marks take the max, tenant lanes merge by
    /// name, and the readings that describe *now* (`backend`, `simd`,
    /// `workspace_bytes`, a lane's `weight`) take `other`'s — so fold
    /// older records first and the live one last. Folding into
    /// [`RuntimeStats::default`] reproduces `other`.
    pub fn merge(&mut self, other: &Self) {
        self.workers = self.workers.max(other.workers);
        self.backend = other.backend;
        self.simd = other.simd;
        self.max_batch = self.max_batch.max(other.max_batch);
        let mut ledger = self.counters();
        ledger += other.counters();
        self.set_counters(ledger);
        self.images += other.images;
        self.dispatches += other.dispatches;
        self.coalesced += other.coalesced;
        self.queue_depth += other.queue_depth;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.workspace_bytes = other.workspace_bytes;
        for t in &other.tenants {
            match self.tenants.iter_mut().find(|have| have.tenant == t.tenant) {
                Some(have) => {
                    let mut sum = have.counters();
                    sum += t.counters();
                    let queued = have.queued + t.queued;
                    *have = TenantStats::new(t.tenant.clone(), t.weight, queued, sum);
                }
                None => self.tenants.push(t.clone()),
            }
        }
        self.tenants.sort_by(|x, y| x.tenant.cmp(&y.tenant));
        self.fill_batch();
        self.busy += other.busy;
        self.elapsed += other.elapsed;
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.batch_wait.merge(&other.batch_wait);
        self.infer.merge(&other.infer);
        self.late_discarded += other.late_discarded;
        self.op_profile.merge(&other.op_profile);
    }

    /// Set [`RuntimeStats::batch_fill`] from the counters it is defined
    /// over — the one place its formula is written.
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn fill_batch(&mut self) {
        self.batch_fill = if self.dispatches == 0 || self.max_batch == 0 {
            0.0
        } else {
            self.images as f64 / (self.dispatches as f64 * self.max_batch as f64)
        };
    }

    /// Completed requests per second of runtime lifetime.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        per_sec(self.completed, self.elapsed)
    }

    /// Served images per second of runtime lifetime.
    #[must_use]
    pub fn images_per_sec(&self) -> f64 {
        per_sec(self.images, self.elapsed)
    }
}

impl RuntimeStats {
    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` comments, counters with a
    /// `_total` suffix, gauges, and the latency histogram as a cumulative
    /// `_bucket{le="..."}` series (bounds in seconds) with `_sum` and
    /// `_count`. This is the exact body `GET /metrics` on
    /// `scales_http::HttpServer` serves.
    ///
    /// The format is pinned by a unit test: changing a metric name or the
    /// line layout is a deliberate, test-visible act.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use FamilyKind::{Counter, Gauge, Histogram};
        let mut expo = Exposition::default();
        render_ledger(&mut expo, "scales_runtime_", None, ".", &[("", self.counters())]);
        #[rustfmt::skip]
        let scalars: [(&str, &str, FamilyKind, String); 11] = [
            ("scales_runtime_images_total", "Images served.", Counter, self.images.to_string()),
            ("scales_runtime_dispatches_total", "Coalesced forward dispatches (one Session::infer each).", Counter, self.dispatches.to_string()),
            ("scales_runtime_requests_coalesced_total", "Requests that shared a dispatch with at least one other request.", Counter, self.coalesced.to_string()),
            ("scales_runtime_busy_seconds_total", "Worker wall time spent inside forwards.", Counter, self.busy.as_secs_f64().to_string()),
            ("scales_runtime_workers", "Worker threads in the pool.", Gauge, self.workers.to_string()),
            ("scales_runtime_max_batch", "Configured images per coalesced dispatch.", Gauge, self.max_batch.to_string()),
            ("scales_runtime_queue_depth", "Requests queued (accepted, not yet dispatched) at scrape time.", Gauge, self.queue_depth.to_string()),
            ("scales_runtime_queue_high_water", "Deepest the queue has been.", Gauge, self.queue_high_water.to_string()),
            ("scales_runtime_workspace_bytes", "Bytes resident across worker planned-executor workspaces.", Gauge, self.workspace_bytes.to_string()),
            ("scales_runtime_batch_fill", "Mean images per dispatch relative to max_batch.", Gauge, self.batch_fill.to_string()),
            ("scales_runtime_uptime_seconds", "Wall time since the runtime started.", Gauge, self.elapsed.as_secs_f64().to_string()),
        ];
        for (name, help, kind, value) in scalars {
            expo.family(name, help, kind);
            expo.sample(&[], value);
        }
        expo.family("scales_runtime_info", "Serving backend of the runtime's engine (constant 1; labels carry the info).", Gauge);
        expo.sample(&[("backend", &self.backend.to_string()), ("simd", &self.simd.to_string())], 1);
        expo.family("scales_runtime_request_latency_seconds", "End-to-end request latency (enqueue to ticket resolution).", Histogram);
        self.latency.render_into(&mut expo, &[]);
        expo.family("scales_runtime_late_discarded_total", "Responses resolved after their submitter gave up waiting (result discarded unread).", Counter);
        expo.sample(&[], self.late_discarded);
        expo.family("scales_build_info", "Build metadata of the serving stack (constant 1; labels carry the info).", Gauge);
        expo.sample(&[("version", env!("CARGO_PKG_VERSION")), ("features", "default")], 1);
        // Per-stage histograms render only once the runtime has served
        // work, and the per-op series only while the profiler is on, so
        // the base rendering stays exactly the pinned text.
        let stages =
            [("queue_wait", &self.queue_wait), ("batch_wait", &self.batch_wait), ("infer", &self.infer)];
        if stages.iter().any(|(_, h)| h.count() > 0) {
            expo.family("scales_runtime_stage_seconds", "Per-request stage spans inside the runtime (queue wait, batch assembly, forward).", Histogram);
            for (stage, hist) in stages {
                hist.render_into(&mut expo, &[("stage", stage)]);
            }
        }
        if !self.op_profile.is_empty() {
            expo.family("scales_plan_op_calls_total", "Planned-executor op executions, per deployed op kind.", Counter);
            for e in self.op_profile.entries() {
                expo.sample(&[("op", e.kind)], e.calls);
            }
            expo.family("scales_plan_op_seconds_total", "Wall time inside planned-executor ops, per deployed op kind.", Counter);
            for e in self.op_profile.entries() {
                expo.sample(&[("op", e.kind)], Duration::from_nanos(e.total_ns).as_secs_f64());
            }
        }
        // Per-tenant lane series, after the scalar block so tenant-free
        // runtimes render the exact historical text.
        if !self.tenants.is_empty() {
            let lanes: Vec<(&str, Counters)> =
                self.tenants.iter().map(|t| (t.tenant.as_str(), t.counters())).collect();
            render_ledger(&mut expo, "scales_runtime_tenant_", Some("tenant"), ", per tenant lane.", &lanes);
            expo.family("scales_runtime_tenant_queue_depth", "Requests queued at scrape time, per tenant lane.", Gauge);
            for t in &self.tenants {
                expo.sample(&[("tenant", &t.tenant)], t.queued);
            }
            expo.family("scales_runtime_tenant_weight", "Weighted-round-robin dequeue weight of the tenant lane.", Gauge);
            for t in &self.tenants {
                expo.sample(&[("tenant", &t.tenant)], t.weight);
            }
        }
        expo.finish()
    }

    /// The per-model scope of the admission ledger: `model`-labelled
    /// `scales_model_*` counters over one `(model name, folded stats)` row
    /// per model — how `scales-router` opens its fleet rendering.
    pub fn render_model_ledger<'a>(
        expo: &mut Exposition,
        models: impl IntoIterator<Item = (&'a str, &'a RuntimeStats)>,
    ) {
        let rows: Vec<(&str, Counters)> =
            models.into_iter().map(|(model, stats)| (model, stats.counters())).collect();
        render_ledger(expo, "scales_model_", Some("model"), ", per model.", &rows);
    }
}

#[allow(clippy::cast_precision_loss)]
fn per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "runtime: {} workers on {} (simd {}) | {} submitted, {} completed, {} failed, {} rejected",
            self.workers, self.backend, self.simd, self.submitted, self.completed, self.failed, self.rejected
        )?;
        writeln!(
            f,
            "  throughput: {:.1} req/s, {:.1} images/s ({} images over {:.2?}, busy {:.2?})",
            self.requests_per_sec(),
            self.images_per_sec(),
            self.images,
            self.elapsed,
            self.busy
        )?;
        writeln!(
            f,
            "  batching: {} dispatches, fill {:.2} of max_batch {}, {} requests coalesced",
            self.dispatches, self.batch_fill, self.max_batch, self.coalesced
        )?;
        writeln!(
            f,
            "  queue: depth {} now, high water {}",
            self.queue_depth, self.queue_high_water
        )?;
        writeln!(
            f,
            "  admission: {} shed, {} quota-limited, {} expired, {} deadline misses, {} late-discarded ({} tenant lanes)",
            self.shed,
            self.quota_rejected,
            self.expired,
            self.deadline_misses,
            self.late_discarded,
            self.tenants.len()
        )?;
        write!(
            f,
            "  latency: p50 {:.2?}, p99 {:.2?}, max {:.2?} ({} samples)",
            self.latency.p50(),
            self.latency.p99(),
            self.latency.max(),
            self.latency.count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn quantiles_walk_the_bucket_bounds() {
        let mut h = LatencyHistogram::default();
        // 99 fast samples (~2 µs) and one slow outlier (~1 ms).
        for _ in 0..99 {
            h.record(Duration::from_micros(2));
        }
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 100);
        // p50 lands in the 2 µs bucket (bound 2 µs), p99 still fast,
        // p100 reaches the outlier's bucket.
        assert_eq!(h.p50(), Duration::from_micros(2));
        assert_eq!(h.p99(), Duration::from_micros(2));
        assert!(h.quantile(1.0) >= Duration::from_millis(1));
        assert_eq!(h.max(), Duration::from_millis(1));
    }

    #[test]
    fn reported_quantile_never_exceeds_the_observed_max() {
        let mut h = LatencyHistogram::default();
        // One sample deep inside a wide bucket: the bucket bound (≈2 s)
        // must be clamped to the observed max, not reported raw.
        h.record(Duration::from_millis(1100));
        assert_eq!(h.p50(), Duration::from_millis(1100));
        assert_eq!(h.p99(), h.max());
        // Same below the first bucket bound (sub-microsecond sample).
        let mut fast = LatencyHistogram::default();
        fast.record(Duration::from_nanos(500));
        assert_eq!(fast.p50(), Duration::from_nanos(500));
        assert!(fast.p99() <= fast.max());
    }

    #[test]
    fn merge_accumulates_counts_and_extremes() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(500));
        b.record(Duration::from_micros(500));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Duration::from_micros(500));
        assert!(a.mean() > Duration::from_micros(300));
    }

    #[test]
    fn folding_runtime_stats_accumulates_counters() {
        let mut folded = RuntimeStats {
            workers: 2,
            max_batch: 8,
            submitted: 10,
            completed: 9,
            images: 18,
            dispatches: 3,
            queue_high_water: 5,
            workspace_bytes: 100,
            ..RuntimeStats::default()
        };
        folded.merge(&RuntimeStats {
            workers: 1,
            backend: Backend::Simd,
            simd: SimdLevel::Avx2,
            max_batch: 8,
            submitted: 5,
            completed: 5,
            images: 6,
            dispatches: 3,
            queue_high_water: 2,
            workspace_bytes: 700,
            ..RuntimeStats::default()
        });
        assert_eq!(folded.workers, 2, "workers take the max");
        assert_eq!(folded.submitted, 15);
        assert_eq!(folded.completed, 14);
        assert_eq!(folded.images, 24);
        assert_eq!(folded.queue_high_water, 5);
        assert_eq!(folded.workspace_bytes, 700, "latest fold wins the gauge");
        assert_eq!((folded.backend, folded.simd), (Backend::Simd, SimdLevel::Avx2));
        let expected_fill = 24.0 / (6.0 * 8.0);
        assert!((folded.batch_fill - expected_fill).abs() < 1e-12);
    }

    #[test]
    fn folding_merges_tenant_lanes_by_name() {
        let tenant = |name: &str, submitted: u64, shed: u64| TenantStats {
            tenant: name.into(),
            weight: 2,
            queued: 1,
            submitted,
            completed: submitted,
            failed: 0,
            rejected: 0,
            shed,
            quota_rejected: 0,
            expired: 0,
            deadline_misses: 0,
        };
        let mut folded = RuntimeStats {
            shed: 3,
            expired: 1,
            tenants: vec![tenant("acme", 5, 3)],
            ..RuntimeStats::default()
        };
        folded.merge(&RuntimeStats {
            shed: 1,
            deadline_misses: 2,
            tenants: vec![tenant("zeta", 2, 0), tenant("acme", 4, 1)],
            ..RuntimeStats::default()
        });
        assert_eq!(folded.shed, 4);
        assert_eq!(folded.expired, 1);
        assert_eq!(folded.deadline_misses, 2);
        assert_eq!(folded.tenants.len(), 2, "lanes merge by tenant name");
        assert_eq!(folded.tenants[0].tenant, "acme");
        assert_eq!(folded.tenants[0].submitted, 9);
        assert_eq!(folded.tenants[0].shed, 4);
        assert_eq!(folded.tenants[0].queued, 2);
        assert_eq!(folded.tenants[1].tenant, "zeta");
        assert_eq!(folded.tenants[1].submitted, 2);
    }

    #[test]
    fn oversized_samples_clamp_into_the_last_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.count(), 1);
        assert!(h.p50() > Duration::ZERO);
    }

    #[test]
    fn prometheus_rendering_is_pinned() {
        let mut latency = LatencyHistogram::default();
        latency.record(Duration::from_micros(2)); // bucket 1 (bound 2 µs)
        latency.record(Duration::from_micros(2)); // bucket 1
        latency.record(Duration::from_millis(1)); // bucket 10 (bound 1.024 ms)
        let stats = RuntimeStats {
            workers: 2,
            backend: Backend::Scalar,
            simd: SimdLevel::None,
            max_batch: 8,
            submitted: 10,
            rejected: 1,
            shed: 2,
            quota_rejected: 1,
            expired: 3,
            deadline_misses: 1,
            completed: 9,
            failed: 0,
            images: 18,
            dispatches: 3,
            coalesced: 6,
            queue_depth: 0,
            queue_high_water: 5,
            workspace_bytes: 4096,
            batch_fill: 0.75,
            busy: Duration::from_millis(20),
            elapsed: Duration::from_millis(100),
            latency,
            queue_wait: LatencyHistogram::default(),
            batch_wait: LatencyHistogram::default(),
            infer: LatencyHistogram::default(),
            late_discarded: 4,
            op_profile: OpProfile::default(),
            tenants: Vec::new(),
        };
        let text = stats.render_prometheus();
        // The scalar series, pinned line for line.
        let expected_head = "\
# HELP scales_runtime_requests_submitted_total Requests accepted into the queue.
# TYPE scales_runtime_requests_submitted_total counter
scales_runtime_requests_submitted_total 10
# HELP scales_runtime_requests_rejected_total Requests rejected at submission (queue full or admission timeout).
# TYPE scales_runtime_requests_rejected_total counter
scales_runtime_requests_rejected_total 1
# HELP scales_runtime_requests_shed_total Requests refused early by the shed policy.
# TYPE scales_runtime_requests_shed_total counter
scales_runtime_requests_shed_total 2
# HELP scales_runtime_requests_quota_rejected_total Requests refused at a tenant lane quota.
# TYPE scales_runtime_requests_quota_rejected_total counter
scales_runtime_requests_quota_rejected_total 1
# HELP scales_runtime_requests_expired_total Requests whose deadline passed before dispatch (never served).
# TYPE scales_runtime_requests_expired_total counter
scales_runtime_requests_expired_total 3
# HELP scales_runtime_deadline_misses_total Requests served after their deadline passed mid-flight.
# TYPE scales_runtime_deadline_misses_total counter
scales_runtime_deadline_misses_total 1
# HELP scales_runtime_requests_completed_total Requests served successfully.
# TYPE scales_runtime_requests_completed_total counter
scales_runtime_requests_completed_total 9
# HELP scales_runtime_requests_failed_total Requests resolved with an error.
# TYPE scales_runtime_requests_failed_total counter
scales_runtime_requests_failed_total 0
# HELP scales_runtime_images_total Images served.
# TYPE scales_runtime_images_total counter
scales_runtime_images_total 18
# HELP scales_runtime_dispatches_total Coalesced forward dispatches (one Session::infer each).
# TYPE scales_runtime_dispatches_total counter
scales_runtime_dispatches_total 3
# HELP scales_runtime_requests_coalesced_total Requests that shared a dispatch with at least one other request.
# TYPE scales_runtime_requests_coalesced_total counter
scales_runtime_requests_coalesced_total 6
# HELP scales_runtime_busy_seconds_total Worker wall time spent inside forwards.
# TYPE scales_runtime_busy_seconds_total counter
scales_runtime_busy_seconds_total 0.02
# HELP scales_runtime_workers Worker threads in the pool.
# TYPE scales_runtime_workers gauge
scales_runtime_workers 2
# HELP scales_runtime_max_batch Configured images per coalesced dispatch.
# TYPE scales_runtime_max_batch gauge
scales_runtime_max_batch 8
# HELP scales_runtime_queue_depth Requests queued (accepted, not yet dispatched) at scrape time.
# TYPE scales_runtime_queue_depth gauge
scales_runtime_queue_depth 0
# HELP scales_runtime_queue_high_water Deepest the queue has been.
# TYPE scales_runtime_queue_high_water gauge
scales_runtime_queue_high_water 5
# HELP scales_runtime_workspace_bytes Bytes resident across worker planned-executor workspaces.
# TYPE scales_runtime_workspace_bytes gauge
scales_runtime_workspace_bytes 4096
# HELP scales_runtime_batch_fill Mean images per dispatch relative to max_batch.
# TYPE scales_runtime_batch_fill gauge
scales_runtime_batch_fill 0.75
# HELP scales_runtime_uptime_seconds Wall time since the runtime started.
# TYPE scales_runtime_uptime_seconds gauge
scales_runtime_uptime_seconds 0.1
# HELP scales_runtime_info Serving backend of the runtime's engine (constant 1; labels carry the info).
# TYPE scales_runtime_info gauge
scales_runtime_info{backend=\"scalar\",simd=\"none\"} 1
# HELP scales_runtime_request_latency_seconds End-to-end request latency (enqueue to ticket resolution).
# TYPE scales_runtime_request_latency_seconds histogram
";
        assert!(
            text.starts_with(expected_head),
            "prometheus head diverged:\n{text}"
        );
        // Histogram: cumulative buckets. The three samples land in the
        // 2 µs and 1.024 ms buckets; every later bound reports 3.
        let tail = &text[expected_head.len()..];
        let lines: Vec<&str> = tail.lines().collect();
        assert_eq!(
            lines.len(),
            LATENCY_BUCKETS + 3 + 6,
            "32 buckets + +Inf + sum + count, then late-discarded and build-info blocks"
        );
        assert_eq!(lines[0], "scales_runtime_request_latency_seconds_bucket{le=\"0.000001\"} 0");
        assert_eq!(lines[1], "scales_runtime_request_latency_seconds_bucket{le=\"0.000002\"} 2");
        assert_eq!(lines[10], "scales_runtime_request_latency_seconds_bucket{le=\"0.001024\"} 3");
        assert_eq!(
            lines[LATENCY_BUCKETS - 1],
            "scales_runtime_request_latency_seconds_bucket{le=\"2147.483648\"} 3"
        );
        assert_eq!(lines[LATENCY_BUCKETS], "scales_runtime_request_latency_seconds_bucket{le=\"+Inf\"} 3");
        assert_eq!(lines[LATENCY_BUCKETS + 1], "scales_runtime_request_latency_seconds_sum 0.001004");
        assert_eq!(lines[LATENCY_BUCKETS + 2], "scales_runtime_request_latency_seconds_count 3");
        // The always-on observability tail: late-discarded counter, then
        // the build-info gauge (labels vary with the build, so the last
        // line is matched against the same sources the renderer reads).
        assert_eq!(
            lines[LATENCY_BUCKETS + 3],
            "# HELP scales_runtime_late_discarded_total Responses resolved after their submitter gave up waiting (result discarded unread)."
        );
        assert_eq!(lines[LATENCY_BUCKETS + 4], "# TYPE scales_runtime_late_discarded_total counter");
        assert_eq!(lines[LATENCY_BUCKETS + 5], "scales_runtime_late_discarded_total 4");
        assert_eq!(
            lines[LATENCY_BUCKETS + 6],
            "# HELP scales_build_info Build metadata of the serving stack (constant 1; labels carry the info)."
        );
        assert_eq!(lines[LATENCY_BUCKETS + 7], "# TYPE scales_build_info gauge");
        assert_eq!(
            lines[LATENCY_BUCKETS + 8],
            format!("scales_build_info{{version=\"{}\",features=\"default\"}} 1", env!("CARGO_PKG_VERSION"))
        );
        // Trace-derived series are gated on data: none here.
        assert!(!text.contains("scales_runtime_stage_seconds"));
        assert!(!text.contains("scales_plan_op_"));
        // Cumulative monotonicity across the whole series.
        let mut last = 0u64;
        for line in &lines[..LATENCY_BUCKETS] {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket series must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn stats_display_mentions_every_axis() {
        let stats = RuntimeStats {
            workers: 2,
            backend: Backend::Scalar,
            simd: SimdLevel::None,
            max_batch: 8,
            submitted: 10,
            rejected: 1,
            shed: 4,
            quota_rejected: 2,
            expired: 1,
            deadline_misses: 0,
            completed: 9,
            failed: 0,
            images: 18,
            dispatches: 3,
            coalesced: 6,
            queue_depth: 0,
            queue_high_water: 5,
            workspace_bytes: 0,
            batch_fill: 0.75,
            busy: Duration::from_millis(20),
            elapsed: Duration::from_millis(100),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
            batch_wait: LatencyHistogram::default(),
            infer: LatencyHistogram::default(),
            late_discarded: 3,
            op_profile: OpProfile::default(),
            tenants: vec![TenantStats {
                tenant: "acme".into(),
                weight: 3,
                queued: 0,
                submitted: 10,
                completed: 9,
                failed: 0,
                rejected: 1,
                shed: 4,
                quota_rejected: 2,
                expired: 1,
                deadline_misses: 0,
            }],
        };
        let text = stats.to_string();
        for needle in [
            "workers",
            "scalar",
            "simd none",
            "req/s",
            "fill",
            "high water",
            "p50",
            "p99",
            "4 shed",
            "2 quota-limited",
            "1 expired",
            "0 deadline misses",
            "3 late-discarded",
            "1 tenant lanes",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
        assert!(stats.requests_per_sec() > 80.0);
    }

    #[test]
    fn tenant_series_render_after_the_scalar_block() {
        let base = RuntimeStats {
            workers: 1,
            backend: Backend::Scalar,
            simd: SimdLevel::None,
            max_batch: 8,
            submitted: 7,
            rejected: 0,
            shed: 0,
            quota_rejected: 2,
            expired: 0,
            deadline_misses: 1,
            completed: 5,
            failed: 0,
            images: 5,
            dispatches: 5,
            coalesced: 0,
            queue_depth: 1,
            queue_high_water: 3,
            workspace_bytes: 0,
            batch_fill: 0.5,
            busy: Duration::ZERO,
            elapsed: Duration::from_millis(50),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
            batch_wait: LatencyHistogram::default(),
            infer: LatencyHistogram::default(),
            late_discarded: 0,
            op_profile: OpProfile::default(),
            tenants: Vec::new(),
        };
        // Tenant-free stats render no tenant series at all.
        assert!(!base.render_prometheus().contains("scales_runtime_tenant_"));
        let mut stats = base;
        stats.tenants = vec![
            TenantStats {
                tenant: "acme".into(),
                weight: 3,
                queued: 1,
                submitted: 5,
                completed: 3,
                failed: 0,
                rejected: 0,
                shed: 0,
                quota_rejected: 2,
                expired: 0,
                deadline_misses: 1,
            },
            TenantStats {
                tenant: "zeta".into(),
                weight: 1,
                queued: 0,
                submitted: 2,
                completed: 2,
                failed: 0,
                rejected: 0,
                shed: 0,
                quota_rejected: 0,
                expired: 0,
                deadline_misses: 0,
            },
        ];
        let text = stats.render_prometheus();
        // Labeled series sit after the histogram so the scalar block is
        // byte-identical to the tenant-free rendering.
        let histogram_count = "scales_runtime_request_latency_seconds_count 0\n";
        let tail_at = text.find(histogram_count).unwrap() + histogram_count.len();
        let tail = &text[tail_at..];
        for line in [
            "# HELP scales_runtime_tenant_requests_submitted_total Requests accepted into the queue, per tenant lane.",
            "# TYPE scales_runtime_tenant_requests_submitted_total counter",
            "scales_runtime_tenant_requests_submitted_total{tenant=\"acme\"} 5",
            "scales_runtime_tenant_requests_submitted_total{tenant=\"zeta\"} 2",
            "scales_runtime_tenant_requests_quota_rejected_total{tenant=\"acme\"} 2",
            "scales_runtime_tenant_deadline_misses_total{tenant=\"acme\"} 1",
            "scales_runtime_tenant_queue_depth{tenant=\"acme\"} 1",
            "scales_runtime_tenant_weight{tenant=\"acme\"} 3",
            "scales_runtime_tenant_weight{tenant=\"zeta\"} 1",
        ] {
            assert!(tail.contains(line), "missing {line:?} in tail:\n{tail}");
        }
        // Each metric name declares HELP/TYPE exactly once, with one line
        // per tenant under it.
        assert_eq!(tail.matches("# TYPE scales_runtime_tenant_requests_submitted_total").count(), 1);
        assert_eq!(
            tail.matches("scales_runtime_tenant_requests_submitted_total{tenant=").count(),
            2
        );
    }

    #[test]
    fn stage_and_op_series_are_gated_on_data() {
        let mut stats = RuntimeStats {
            workers: 1,
            backend: Backend::Scalar,
            simd: SimdLevel::None,
            max_batch: 8,
            submitted: 0,
            rejected: 0,
            shed: 0,
            quota_rejected: 0,
            expired: 0,
            deadline_misses: 0,
            completed: 0,
            failed: 0,
            images: 0,
            dispatches: 0,
            coalesced: 0,
            queue_depth: 0,
            queue_high_water: 0,
            workspace_bytes: 0,
            batch_fill: 0.0,
            busy: Duration::ZERO,
            elapsed: Duration::from_millis(10),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
            batch_wait: LatencyHistogram::default(),
            infer: LatencyHistogram::default(),
            late_discarded: 0,
            op_profile: OpProfile::default(),
            tenants: Vec::new(),
        };
        // An idle runtime renders neither gated family, but always the
        // late-discarded counter and the build-info gauge.
        let text = stats.render_prometheus();
        assert!(!text.contains("scales_runtime_stage_seconds"), "{text}");
        assert!(!text.contains("scales_plan_op_"), "{text}");
        assert!(text.contains("scales_runtime_late_discarded_total 0"));
        assert!(text.contains("scales_build_info{version=\""));
        // One recorded stage span renders all three stage series (zeros
        // included — a scrape must see a consistent label set).
        stats.queue_wait.record(Duration::from_micros(3));
        stats.infer.record(Duration::from_micros(9));
        stats.op_profile.record("body_conv", 1500);
        stats.op_profile.record("relu", 40);
        let text = stats.render_prometheus();
        assert!(text.contains(
            "scales_runtime_stage_seconds_bucket{stage=\"queue_wait\",le=\"0.000004\"} 1"
        ));
        assert!(text.contains("scales_runtime_stage_seconds_sum{stage=\"queue_wait\"} 0.000003"));
        assert!(text.contains("scales_runtime_stage_seconds_count{stage=\"queue_wait\"} 1"));
        assert!(text.contains("scales_runtime_stage_seconds_count{stage=\"batch_wait\"} 0"));
        assert!(text.contains("scales_runtime_stage_seconds_count{stage=\"infer\"} 1"));
        assert_eq!(text.matches("# TYPE scales_runtime_stage_seconds histogram").count(), 1);
        assert!(text.contains("scales_plan_op_calls_total{op=\"body_conv\"} 1"));
        assert!(text.contains("scales_plan_op_seconds_total{op=\"body_conv\"} 0.0000015"));
        assert!(text.contains("scales_plan_op_seconds_total{op=\"relu\"} 0.00000004"));
        // The gated families sit between build info and the tenant block.
        let build_at = text.find("scales_build_info").unwrap();
        let stage_at = text.find("scales_runtime_stage_seconds").unwrap();
        assert!(stage_at > build_at);
    }
}
