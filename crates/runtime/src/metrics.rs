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
//! and dispatch set-up are included) in a [`LatencyHistogram`] with
//! geometric fixed buckets; [`LatencyHistogram::p50`] / `p99` read
//! quantiles from the bucket counts without recording individual samples.
//!
//! Rendering knows no text format: every family is rows fed to
//! [`scales_telemetry::Exposition`]. [`RuntimeStats::render_models`] is
//! the one renderer of a serving record: one `(model, record)` row per
//! model, every family `scales_model_*` with `model` as its first label.
//! The admission ledger is declared once (`LEDGER`) and rendered under two
//! label scopes — `scales_model_*` (`model`) and `scales_model_tenant_*`
//! (`model`, `tenant`).
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
/// new `ledger!` counter plus one row here renders per model and per
/// tenant lane.
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

/// Render the [`LEDGER`] of `rows` — `(labels, counters)` — under one
/// label scope: `prefix` opens every family name, `help_end` finishes
/// every help sentence.
fn render_ledger<const N: usize>(
    expo: &mut Exposition,
    prefix: &str,
    help_end: &str,
    rows: &[([(&str, &str); N], Counters)],
) {
    for (stem, help, counter) in LEDGER {
        expo.family(&format!("{prefix}{stem}"), &format!("{help}{help_end}"), FamilyKind::Counter);
        for (labels, counters) in rows {
            expo.sample(labels, counter(counters));
        }
    }
}

/// One scalar family of a serving record: the name stem after
/// `scales_model_`, the help sentence `, per model.` finishes, the kind,
/// and the reading it takes.
type RecordFamily = (&'static str, &'static str, FamilyKind, fn(&RuntimeStats) -> String);

/// The record's scalars as `/metrics` families, one row per line.
#[rustfmt::skip]
const SCALARS: [RecordFamily; 10] = [
    ("images_total", "Images served", FamilyKind::Counter, |s| s.images.to_string()),
    ("dispatches_total", "Forward dispatches (one request each)", FamilyKind::Counter, |s| s.dispatches.to_string()),
    ("busy_seconds_total", "Worker wall time spent inside forwards", FamilyKind::Counter, |s| s.busy.as_secs_f64().to_string()),
    ("late_discarded_total", "Responses resolved after their submitter gave up waiting (result discarded unread)", FamilyKind::Counter, |s| s.late_discarded.to_string()),
    ("caller_runs_total", "Requests a blocking submitter ran on its own thread (lanes empty, a worker idle)", FamilyKind::Counter, |s| s.caller_runs.to_string()),
    ("workers", "Worker threads in the pool", FamilyKind::Gauge, |s| s.workers.to_string()),
    ("queue_depth", "Requests queued (accepted, not yet dispatched) at scrape time", FamilyKind::Gauge, |s| s.queue_depth.to_string()),
    ("queue_high_water", "Deepest the queue has been", FamilyKind::Gauge, |s| s.queue_high_water.to_string()),
    ("workspace_bytes", "Bytes resident across worker planned-executor workspaces", FamilyKind::Gauge, |s| s.workspace_bytes.to_string()),
    ("uptime_seconds", "Wall time since the runtime started (summed over versions)", FamilyKind::Gauge, |s| s.elapsed.as_secs_f64().to_string()),
];

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
    /// Forward dispatches: one request and one `Session::infer` each.
    pub dispatches: u64,
    /// Requests a [`submit_wait_timeout`](crate::Runtime::submit_wait_timeout)
    /// caller ran on its own thread — the lanes were empty and a worker
    /// idle — each one dispatch that no worker woke for. Asynchronous
    /// submits never count here.
    pub caller_runs: u64,
    /// Requests queued (accepted, not yet dispatched) at snapshot time.
    pub queue_depth: usize,
    /// Deepest the queue has been.
    pub queue_high_water: usize,
    /// Bytes resident across the pool's planned-executor workspaces
    /// (arena slots + cached plans), one per worker — the runtime's live
    /// plan-cache memory, summed over the workspaces at their last
    /// dispatch.
    pub workspace_bytes: usize,
    /// 1.0 once a dispatch has run, 0.0 before: every dispatch serves
    /// exactly one request. Inert; kept only while the benchmark still
    /// reads it.
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
    /// Dispatch set-up per request (worker pop → forward start) — the
    /// `batch_wait` trace stage.
    pub batch_wait: LatencyHistogram,
    /// Forward span per request (forward start → infer done) — the
    /// `infer` trace stage.
    pub infer: LatencyHistogram,
    /// Responses that resolved after their submitter's
    /// [`submit_wait_timeout`](crate::Runtime::submit_wait_timeout)
    /// deadline gave up waiting — the work was served (and counted in
    /// `completed`/`failed`), but the result was discarded unread.
    pub late_discarded: u64,
    /// Cumulative per-op plan profile across the pool's workspaces, populated
    /// while [`RuntimeConfig::profile_ops`](crate::RuntimeConfig::profile_ops)
    /// is on (empty otherwise).
    pub op_profile: OpProfile,
    /// Per-tenant lane counters, sorted by tenant name. Empty when no
    /// request carried a tenant tag and no weights were configured.
    pub tenants: Vec<TenantStats>,
}

impl RuntimeStats {
    /// Fold `other` into `self`: counters, durations and histograms add,
    /// sizing, high-water marks and `batch_fill` take the max, tenant lanes merge by
    /// name, and the readings that describe *now* (`backend`, `simd`,
    /// `workspace_bytes`, a lane's `weight`) take `other`'s — so fold
    /// older records first and the live one last. Folding into
    /// [`RuntimeStats::default`] reproduces `other`.
    pub fn merge(&mut self, other: &Self) {
        self.workers = self.workers.max(other.workers);
        self.backend = other.backend;
        self.simd = other.simd;
        let mut ledger = self.counters();
        ledger += other.counters();
        self.set_counters(ledger);
        self.images += other.images;
        self.dispatches += other.dispatches;
        self.caller_runs += other.caller_runs;
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
        self.batch_fill = self.batch_fill.max(other.batch_fill);
        self.busy += other.busy;
        self.elapsed += other.elapsed;
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.batch_wait.merge(&other.batch_wait);
        self.infer.merge(&other.infer);
        self.late_discarded += other.late_discarded;
        self.op_profile.merge(&other.op_profile);
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
    /// The three runtime-side stage histograms, by trace-stage name.
    fn stages(&self) -> [(&'static str, &LatencyHistogram); 3] {
        [("queue_wait", &self.queue_wait), ("batch_wait", &self.batch_wait), ("infer", &self.infer)]
    }

    /// Render serving records in the Prometheus text exposition format
    /// (version 0.0.4), one `(model name, record)` row per model: every
    /// family is `scales_model_*` with `model` as its first label —
    /// the admission ledger, the scalars, and the request-latency
    /// histogram (cumulative `_bucket{le="..."}` series, bounds in
    /// seconds, with `_sum` and `_count`) for every row; then the gated
    /// families — the stage histograms, the per-op profile and the tenant
    /// lanes — each once any row has data for it, with samples only for
    /// the rows that do. `scales-router` writes its fleet's `/metrics`
    /// through this, then appends what only it knows.
    ///
    /// The format is pinned by unit tests: changing a metric name or the
    /// line layout is a deliberate, test-visible act.
    pub fn render_models(expo: &mut Exposition, models: &[(&str, &RuntimeStats)]) {
        use FamilyKind::{Counter, Gauge, Histogram};
        let ledger: Vec<_> = models.iter().map(|(m, s)| ([("model", *m)], s.counters())).collect();
        render_ledger(expo, "scales_model_", ", per model.", &ledger);
        for (stem, help, kind, value) in SCALARS {
            expo.family(&format!("scales_model_{stem}"), &format!("{help}, per model."), kind);
            for (model, stats) in models {
                expo.sample(&[("model", model)], value(stats));
            }
        }
        expo.family("scales_model_request_latency_seconds", "End-to-end request latency per model (enqueue to ticket resolution).", Histogram);
        for (model, stats) in models {
            stats.latency.render_into(expo, &[("model", model)]);
        }
        // All three stages of a model render together, zeros included, so
        // a scrape sees a consistent label set.
        let staged: Vec<_> =
            models.iter().filter(|(_, s)| s.stages().iter().any(|(_, h)| h.count() > 0)).collect();
        if !staged.is_empty() {
            expo.family("scales_model_stage_seconds", "Per-request stage spans inside the runtime (queue wait, dispatch set-up, forward), per model.", Histogram);
            for (model, stats) in staged {
                for (stage, hist) in stats.stages() {
                    hist.render_into(expo, &[("model", model), ("stage", stage)]);
                }
            }
        }
        let profiled: Vec<_> = models.iter().filter(|(_, s)| !s.op_profile.is_empty()).collect();
        if !profiled.is_empty() {
            expo.family("scales_model_plan_op_calls_total", "Planned-executor op executions, per model and deployed op kind.", Counter);
            for (model, stats) in &profiled {
                for e in stats.op_profile.entries() {
                    expo.sample(&[("model", model), ("op", e.kind)], e.calls);
                }
            }
            expo.family("scales_model_plan_op_seconds_total", "Wall time inside planned-executor ops, per model and deployed op kind.", Counter);
            for (model, stats) in &profiled {
                for e in stats.op_profile.entries() {
                    let seconds = Duration::from_nanos(e.total_ns).as_secs_f64();
                    expo.sample(&[("model", model), ("op", e.kind)], seconds);
                }
            }
        }
        let lanes: Vec<([(&str, &str); 2], &TenantStats)> = models
            .iter()
            .flat_map(|(model, s)| {
                s.tenants.iter().map(|t| ([("model", *model), ("tenant", t.tenant.as_str())], t))
            })
            .collect();
        if !lanes.is_empty() {
            let ledger: Vec<_> = lanes.iter().map(|(labels, t)| (*labels, t.counters())).collect();
            render_ledger(expo, "scales_model_tenant_", ", per model and tenant lane.", &ledger);
            expo.family("scales_model_tenant_queue_depth", "Requests queued at scrape time, per model and tenant lane.", Gauge);
            for (labels, t) in &lanes {
                expo.sample(labels, t.queued);
            }
            expo.family("scales_model_tenant_weight", "Weighted-round-robin dequeue weight of the tenant lane, per model.", Gauge);
            for (labels, t) in &lanes {
                expo.sample(labels, t.weight);
            }
        }
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
            "  dispatches: {} ({} run by their callers)",
            self.dispatches, self.caller_runs
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
            submitted: 10,
            completed: 9,
            images: 18,
            dispatches: 3,
            caller_runs: 2,
            batch_fill: 1.0,
            queue_high_water: 5,
            workspace_bytes: 100,
            ..RuntimeStats::default()
        };
        folded.merge(&RuntimeStats {
            workers: 1,
            backend: Backend::Simd,
            simd: SimdLevel::Avx2,
            submitted: 5,
            completed: 5,
            images: 6,
            dispatches: 3,
            caller_runs: 1,
            queue_high_water: 2,
            workspace_bytes: 700,
            ..RuntimeStats::default()
        });
        assert_eq!(folded.workers, 2, "workers take the max");
        assert_eq!(folded.submitted, 15);
        assert_eq!(folded.completed, 14);
        assert_eq!(folded.images, 24);
        assert_eq!(folded.caller_runs, 3);
        assert_eq!(folded.queue_high_water, 5);
        assert_eq!(folded.workspace_bytes, 700, "latest fold wins the gauge");
        assert_eq!((folded.backend, folded.simd), (Backend::Simd, SimdLevel::Avx2));
        assert_eq!(folded.dispatches, 6);
        assert!((folded.batch_fill - 1.0).abs() < f64::EPSILON, "a dispatch has run");
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

    /// Render `rows` through [`RuntimeStats::render_models`] alone.
    fn render(rows: &[(&str, &RuntimeStats)]) -> String {
        let mut expo = Exposition::default();
        RuntimeStats::render_models(&mut expo, rows);
        expo.finish()
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
            caller_runs: 1,
            queue_depth: 0,
            queue_high_water: 5,
            workspace_bytes: 4096,
            batch_fill: 1.0,
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
        let text = render(&[("m", &stats)]);
        // One row, pinned line for line: the ledger, the scalars, then the
        // latency histogram.
        let mut expected = String::from(
            "\
# HELP scales_model_requests_submitted_total Requests accepted into the queue, per model.
# TYPE scales_model_requests_submitted_total counter
scales_model_requests_submitted_total{model=\"m\"} 10
# HELP scales_model_requests_rejected_total Requests rejected at submission (queue full or admission timeout), per model.
# TYPE scales_model_requests_rejected_total counter
scales_model_requests_rejected_total{model=\"m\"} 1
# HELP scales_model_requests_shed_total Requests refused early by the shed policy, per model.
# TYPE scales_model_requests_shed_total counter
scales_model_requests_shed_total{model=\"m\"} 2
# HELP scales_model_requests_quota_rejected_total Requests refused at a tenant lane quota, per model.
# TYPE scales_model_requests_quota_rejected_total counter
scales_model_requests_quota_rejected_total{model=\"m\"} 1
# HELP scales_model_requests_expired_total Requests whose deadline passed before dispatch (never served), per model.
# TYPE scales_model_requests_expired_total counter
scales_model_requests_expired_total{model=\"m\"} 3
# HELP scales_model_deadline_misses_total Requests served after their deadline passed mid-flight, per model.
# TYPE scales_model_deadline_misses_total counter
scales_model_deadline_misses_total{model=\"m\"} 1
# HELP scales_model_requests_completed_total Requests served successfully, per model.
# TYPE scales_model_requests_completed_total counter
scales_model_requests_completed_total{model=\"m\"} 9
# HELP scales_model_requests_failed_total Requests resolved with an error, per model.
# TYPE scales_model_requests_failed_total counter
scales_model_requests_failed_total{model=\"m\"} 0
# HELP scales_model_images_total Images served, per model.
# TYPE scales_model_images_total counter
scales_model_images_total{model=\"m\"} 18
# HELP scales_model_dispatches_total Forward dispatches (one request each), per model.
# TYPE scales_model_dispatches_total counter
scales_model_dispatches_total{model=\"m\"} 3
# HELP scales_model_busy_seconds_total Worker wall time spent inside forwards, per model.
# TYPE scales_model_busy_seconds_total counter
scales_model_busy_seconds_total{model=\"m\"} 0.02
# HELP scales_model_late_discarded_total Responses resolved after their submitter gave up waiting (result discarded unread), per model.
# TYPE scales_model_late_discarded_total counter
scales_model_late_discarded_total{model=\"m\"} 4
# HELP scales_model_caller_runs_total Requests a blocking submitter ran on its own thread (lanes empty, a worker idle), per model.
# TYPE scales_model_caller_runs_total counter
scales_model_caller_runs_total{model=\"m\"} 1
# HELP scales_model_workers Worker threads in the pool, per model.
# TYPE scales_model_workers gauge
scales_model_workers{model=\"m\"} 2
# HELP scales_model_queue_depth Requests queued (accepted, not yet dispatched) at scrape time, per model.
# TYPE scales_model_queue_depth gauge
scales_model_queue_depth{model=\"m\"} 0
# HELP scales_model_queue_high_water Deepest the queue has been, per model.
# TYPE scales_model_queue_high_water gauge
scales_model_queue_high_water{model=\"m\"} 5
# HELP scales_model_workspace_bytes Bytes resident across worker planned-executor workspaces, per model.
# TYPE scales_model_workspace_bytes gauge
scales_model_workspace_bytes{model=\"m\"} 4096
# HELP scales_model_uptime_seconds Wall time since the runtime started (summed over versions), per model.
# TYPE scales_model_uptime_seconds gauge
scales_model_uptime_seconds{model=\"m\"} 0.1
# HELP scales_model_request_latency_seconds End-to-end request latency per model (enqueue to ticket resolution).
# TYPE scales_model_request_latency_seconds histogram
",
        );
        // Cumulative buckets: the three samples land in the 2 µs and the
        // 1.024 ms buckets, and every later bound reports 3.
        for i in 0..LATENCY_BUCKETS {
            let cumulative = match i {
                0 => 0,
                1..=9 => 2,
                _ => 3,
            };
            let le = LatencyHistogram::bucket_bound(i).as_secs_f64();
            expected += &format!(
                "scales_model_request_latency_seconds_bucket{{model=\"m\",le=\"{le}\"}} {cumulative}\n"
            );
        }
        expected += "\
scales_model_request_latency_seconds_bucket{model=\"m\",le=\"+Inf\"} 3
scales_model_request_latency_seconds_sum{model=\"m\"} 0.001004
scales_model_request_latency_seconds_count{model=\"m\"} 3
";
        assert_eq!(text, expected);
        // The bounds as a scraper reads them.
        for line in [
            "scales_model_request_latency_seconds_bucket{model=\"m\",le=\"0.000001\"} 0\n",
            "scales_model_request_latency_seconds_bucket{model=\"m\",le=\"0.000002\"} 2\n",
            "scales_model_request_latency_seconds_bucket{model=\"m\",le=\"0.001024\"} 3\n",
            "scales_model_request_latency_seconds_bucket{model=\"m\",le=\"2147.483648\"} 3\n",
        ] {
            assert!(text.contains(line), "missing {line:?}");
        }
    }

    #[test]
    fn stats_display_mentions_every_axis() {
        let stats = RuntimeStats {
            workers: 2,
            backend: Backend::Scalar,
            simd: SimdLevel::None,
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
            caller_runs: 1,
            queue_depth: 0,
            queue_high_water: 5,
            workspace_bytes: 0,
            batch_fill: 1.0,
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
            "dispatches: 3",
            "high water",
            "p50",
            "p99",
            "4 shed",
            "2 quota-limited",
            "1 expired",
            "0 deadline misses",
            "3 late-discarded",
            "1 tenant lanes",
            "(1 run by their callers)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
        assert!(stats.requests_per_sec() > 80.0);
    }

    /// One tenant lane with the given counters (the rest zero).
    fn lane(tenant: &str, weight: u32, queued: usize, submitted: u64, completed: u64) -> TenantStats {
        let c = Counters { submitted, completed, ..Counters::default() };
        TenantStats::new(tenant.into(), weight, queued, c)
    }

    /// Two rows: every family declares one `# HELP` / `# TYPE` with one
    /// sample per row under it, and the tenant lanes — gated — render
    /// after the latency histogram, for the row that has lanes only.
    #[test]
    fn tenant_series_render_after_the_scalar_block() {
        let mut alpha = RuntimeStats {
            submitted: 7,
            completed: 5,
            quota_rejected: 2,
            deadline_misses: 1,
            queue_depth: 1,
            ..RuntimeStats::default()
        };
        let beta = RuntimeStats { submitted: 3, completed: 3, ..RuntimeStats::default() };
        // Tenant-free rows render no tenant series at all.
        assert!(!render(&[("alpha", &alpha), ("beta", &beta)]).contains("scales_model_tenant_"));
        let mut acme = lane("acme", 3, 1, 5, 3);
        (acme.quota_rejected, acme.deadline_misses) = (2, 1);
        alpha.tenants = vec![acme, lane("zeta", 1, 0, 2, 2)];
        let text = render(&[("alpha", &alpha), ("beta", &beta)]);
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let helps = text.lines().filter(|l| l.starts_with("# HELP ")).count();
        assert_eq!(types.len(), 8 + 10 + 1 + 8 + 2, "ledger, scalars, latency, tenant ledger, tenant gauges");
        assert_eq!(helps, types.len());
        assert_eq!(types.iter().collect::<std::collections::BTreeSet<_>>().len(), types.len(), "one TYPE per family");
        for line in [
            "scales_model_requests_submitted_total{model=\"alpha\"} 7\nscales_model_requests_submitted_total{model=\"beta\"} 3\n",
            "scales_model_requests_quota_rejected_total{model=\"alpha\"} 2\nscales_model_requests_quota_rejected_total{model=\"beta\"} 0\n",
            "scales_model_queue_depth{model=\"alpha\"} 1\nscales_model_queue_depth{model=\"beta\"} 0\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // Labelled lanes sit after the histogram, `model` first.
        let histogram_count = "scales_model_request_latency_seconds_count{model=\"beta\"} 0\n";
        let tail_at = text.find(histogram_count).unwrap() + histogram_count.len();
        let tail = &text[tail_at..];
        for line in [
            "# HELP scales_model_tenant_requests_submitted_total Requests accepted into the queue, per model and tenant lane.",
            "# TYPE scales_model_tenant_requests_submitted_total counter",
            "scales_model_tenant_requests_submitted_total{model=\"alpha\",tenant=\"acme\"} 5",
            "scales_model_tenant_requests_submitted_total{model=\"alpha\",tenant=\"zeta\"} 2",
            "scales_model_tenant_requests_quota_rejected_total{model=\"alpha\",tenant=\"acme\"} 2",
            "scales_model_tenant_deadline_misses_total{model=\"alpha\",tenant=\"acme\"} 1",
            "scales_model_tenant_queue_depth{model=\"alpha\",tenant=\"acme\"} 1",
            "scales_model_tenant_weight{model=\"alpha\",tenant=\"acme\"} 3",
            "scales_model_tenant_weight{model=\"alpha\",tenant=\"zeta\"} 1",
        ] {
            assert!(tail.contains(line), "missing {line:?} in tail:\n{tail}");
        }
        assert!(!tail.contains("model=\"beta\""), "beta has no lanes:\n{tail}");
        assert_eq!(tail.matches("scales_model_tenant_requests_submitted_total{").count(), 2);
    }

    #[test]
    fn stage_and_op_series_are_gated_on_data() {
        let mut alpha = RuntimeStats { workers: 1, ..RuntimeStats::default() };
        let beta = alpha.clone();
        // Idle rows render neither gated family, but always the
        // late-discarded counter.
        let text = render(&[("alpha", &alpha), ("beta", &beta)]);
        assert!(!text.contains("scales_model_stage_seconds"), "{text}");
        assert!(!text.contains("scales_model_plan_op_"), "{text}");
        assert!(text.contains("scales_model_late_discarded_total{model=\"beta\"} 0"));
        // One recorded stage span renders all three of that row's stage
        // series (zeros included — a scrape must see a consistent label
        // set), and none of the idle row's.
        alpha.queue_wait.record(Duration::from_micros(3));
        alpha.infer.record(Duration::from_micros(9));
        alpha.op_profile.record("body_conv", 1500);
        alpha.op_profile.record("relu", 40);
        let text = render(&[("alpha", &alpha), ("beta", &beta)]);
        for line in [
            "scales_model_stage_seconds_bucket{model=\"alpha\",stage=\"queue_wait\",le=\"0.000004\"} 1",
            "scales_model_stage_seconds_sum{model=\"alpha\",stage=\"queue_wait\"} 0.000003",
            "scales_model_stage_seconds_count{model=\"alpha\",stage=\"queue_wait\"} 1",
            "scales_model_stage_seconds_count{model=\"alpha\",stage=\"batch_wait\"} 0",
            "scales_model_stage_seconds_count{model=\"alpha\",stage=\"infer\"} 1",
            "scales_model_plan_op_calls_total{model=\"alpha\",op=\"body_conv\"} 1",
            "scales_model_plan_op_seconds_total{model=\"alpha\",op=\"body_conv\"} 0.0000015",
            "scales_model_plan_op_seconds_total{model=\"alpha\",op=\"relu\"} 0.00000004",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        assert_eq!(text.matches("# TYPE scales_model_stage_seconds histogram").count(), 1);
        for gated in ["scales_model_stage_seconds_", "scales_model_plan_op_"] {
            assert!(!text.lines().any(|l| l.starts_with(gated) && l.contains("model=\"beta\"")), "{gated}");
        }
        // The gated families follow the latency histogram.
        let latency_at = text.find("# HELP scales_model_request_latency_seconds").unwrap();
        assert!(text.find("# HELP scales_model_stage_seconds").unwrap() > latency_at);
    }
}
