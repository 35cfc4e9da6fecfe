//! The runtime's admission and scheduling policy as one plain value:
//! tenant lanes and placement, the lane quota, the shed watermark and p99
//! window, expiry sweeps, the EDF-inside-weighted-rotation pop, the gather
//! round and its batching window, the pre-dispatch expiry seal, the
//! runtime's one serving record, and shutdown failing.
//!
//! [`Queue`] holds no lock, waits on nothing, and never reads a clock:
//! every method takes the current time as `now` and returns a typed
//! decision plus how many queue slots it freed. `runtime.rs` keeps the one
//! lock around it, takes the timestamps, and does the waiting and waking;
//! the tests at the bottom of this file drive the same value under a
//! virtual clock, with no thread in sight.

use crate::metrics::{Counters, RuntimeStats, TenantStats};
use crate::runtime::{ServeError, SubmitError};
use crate::ticket::{Ticket, TicketCell};
use crate::RuntimeConfig;
use scales_data::Image;
use scales_serve::TilePolicy;
use scales_telemetry::{OpProfile, RuntimeStamps};
use scales_tensor::TensorError;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What survives request validation: the payload plus the admission
/// metadata (tenant tag, absolute deadline).
pub(crate) struct Admitted {
    pub images: Vec<Image>,
    pub tile: Option<TilePolicy>,
    pub tenant: Option<String>,
    pub deadline: Option<Instant>,
}

/// One accepted request waiting in (or taken from) its tenant lane.
pub(crate) struct Entry {
    pub images: Vec<Image>,
    pub tile: Option<TilePolicy>,
    /// The lane this entry was placed in — the anonymous lane for a
    /// tenant folded at a busy lane cap, whatever tag the request carried.
    tenant: Option<Arc<str>>,
    pub deadline: Option<Instant>,
    pub cell: Arc<TicketCell>,
    pub enqueued: Instant,
    /// When a worker took this entry from its lane (`None` while queued) —
    /// the boundary between the queue-wait and batch-wait trace stages.
    pub dequeued: Option<Instant>,
}

impl Entry {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }

    /// Resolve an expired entry with the typed retraction and count it.
    /// Expired work is resolved the moment it is found, never served late.
    fn retract(&self, counters: &mut Counters) {
        self.cell.resolve(Err(ServeError::Rejected(SubmitError::Expired)));
        counters.expired += 1;
    }

    /// The stage stamps of this entry in a dispatch that sealed at
    /// `sealed` and whose forward returned at `infer_done`.
    pub fn stamps(&self, sealed: Instant, infer_done: Instant) -> RuntimeStamps {
        let dequeued = self.dequeued.unwrap_or(self.enqueued);
        RuntimeStamps { enqueued: self.enqueued, dequeued, sealed, infer_done }
    }
}

/// What one dispatch did, handed by its worker to [`Queue::complete`].
pub(crate) struct Dispatch {
    /// The worker that ran it.
    pub worker: usize,
    /// Whether the forward succeeded: every entry completed, or every
    /// entry failed.
    pub served: bool,
    /// Images in the forward.
    pub images: usize,
    /// When the batch sealed and the forward began.
    pub sealed: Instant,
    /// When the forward returned.
    pub infer_done: Instant,
    /// The worker session's workspace bytes after the forward.
    pub workspace_bytes: usize,
    /// The worker session's cumulative op profile after the forward.
    pub op_profile: OpProfile,
}

fn unserved(message: &str) -> ServeError {
    ServeError::Infer(TensorError::InvalidArgument(message.into()))
}

/// One tenant's FIFO queue plus its ledger. Lanes are created on the first
/// **accepted** request of a tenant (or up front for weighted tenants) and
/// the table is bounded by [`RuntimeConfig::max_tenant_lanes`] — tenant
/// names are client-controlled, so unbounded growth would let a hostile
/// client inflate memory, metrics cardinality, and scheduler scans. At the
/// cap, idle unweighted lanes are retired (ledger folded into
/// [`Queue::retired`]) to make room.
#[derive(Default)]
struct Lane {
    tenant: Option<Arc<str>>,
    weight: u32,
    /// Remaining dequeues in the current weighted-round-robin cycle.
    credits: u32,
    entries: VecDeque<Entry>,
    /// Entries taken by a worker and not yet completed, sealed out as
    /// expired, or abandoned. With the ledger this closes
    /// `submitted + refused-at-the-door expiries = completed + failed +
    /// expired + queued + in flight` for every lane at every step.
    in_flight: usize,
    counters: Counters,
}

impl Lane {
    fn new(tenant: Option<&str>, weight: u32) -> Self {
        Self { tenant: tenant.map(Arc::from), weight, ..Self::default() }
    }
}

/// The lane a request will join, resolved once per admission attempt and
/// used for both the quota check and the enqueue — so a request is held to
/// the quota of the lane it actually lands in.
enum Placement {
    /// An existing lane: the tenant's own, or the anonymous lane 0 for an
    /// untagged request and for a new tenant folded at a busy lane cap
    /// (served and counted, just without its own per-tenant series).
    Join(usize),
    /// A new lane for this tenant, after retiring the idle lane `retire`
    /// when the table is at its cap.
    Open { retire: Option<usize> },
}

/// What [`Queue::submit`] decided.
pub(crate) enum Admission {
    Accepted(Ticket),
    /// Every fail-fast check passed but the queue is at capacity. The
    /// request comes back so a blocking caller can wait for a slot and
    /// submit again; one that gives up says so with
    /// [`Queue::refuse_for_space`].
    Full(Admitted),
    Refused(SubmitError),
}

/// What the batcher does after one [`Queue::gather`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gathered {
    /// Dispatch: the batch is full, the runtime is shutting down, only
    /// incompatible heads remain (never reorder around them within a lane),
    /// or the queue is drained and the batching window has closed.
    Seal,
    /// The round took something and work is still queued: run another.
    Again,
    /// The queue is drained with room left in the batch and the window
    /// open: wait for stragglers, then gather again. `until` is the
    /// earliest instant the window can close without a new arrival.
    Wait { until: Instant },
}

/// Sliding-window size for the shed policy's p99 sample: large enough
/// that one unlucky dispatch cannot trip the wire, small enough that the
/// estimate tracks the current regime rather than the process lifetime.
const P99_WINDOW: usize = 256;

/// Everything the runtime decides about a request between validation and
/// dispatch, and the ledger of what became of it.
pub(crate) struct Queue {
    config: RuntimeConfig,
    /// Lane 0 is the anonymous lane and is never retired.
    lanes: Vec<Lane>,
    /// Entries across all lanes — the quantity bounded by
    /// `queue_capacity`.
    queued: usize,
    /// Where the weighted round-robin left off.
    cursor: usize,
    shutting_down: bool,
    high_water: usize,
    /// Workers idle between [`Queue::park`] and [`Queue::unpark`]: each
    /// would serve a straggler the moment it arrives.
    parked: usize,
    /// The latest accepted arrival and the gap before it — the arrival
    /// pace a batching window is weighed against.
    last_arrival: Option<Instant>,
    gap: Duration,
    /// Ledgers of retired lanes and of refusals whose tenant never had a
    /// lane.
    retired: Counters,
    /// The serving half of the record — images, dispatches, coalesced,
    /// busy, the four histograms, late-discarded — as booked by
    /// [`Queue::complete`]; [`Queue::report`] fills in the rest.
    record: RuntimeStats,
    /// Per worker, the latest workspace bytes and cumulative op profile
    /// of its session: re-sampled, not accumulated, after every dispatch.
    readings: Vec<(usize, OpProfile)>,
    /// Queue-to-response latencies of the most recent [`P99_WINDOW`]
    /// resolutions. Kept only while the p99 trip wire is armed.
    recent: VecDeque<Duration>,
    /// The window's p99 and when it was read. A trip that succeeds in
    /// draining the queue stops all dispatches, so nothing would ever
    /// refresh the reading: one older than [`ShedPolicy::p99_recovery`] is
    /// evidence the overload has passed and re-arms admission instead of
    /// latching the outage.
    ///
    /// [`ShedPolicy::p99_recovery`]: crate::ShedPolicy::p99_recovery
    p99: Option<(Duration, Instant)>,
}

impl Queue {
    pub fn new(config: RuntimeConfig) -> Self {
        // The anonymous lane plus one lane per weighted tenant, so
        // configured weights are visible in the stats from the start.
        let mut lanes = vec![Lane::new(None, 1)];
        for (name, weight) in &config.tenant_weights {
            lanes.push(Lane::new(Some(name), *weight));
        }
        Self {
            readings: vec![(0, OpProfile::default()); config.workers],
            config,
            lanes,
            queued: 0,
            cursor: 0,
            shutting_down: false,
            high_water: 0,
            parked: 0,
            last_arrival: None,
            gap: Duration::ZERO,
            retired: Counters::default(),
            record: RuntimeStats::default(),
            recent: VecDeque::new(),
            p99: None,
        }
    }

    fn lane_index(&self, tenant: Option<&str>) -> Option<usize> {
        self.lanes.iter().position(|l| l.tenant.as_deref() == tenant)
    }

    /// Where a refusal for `tenant` is counted: the tenant's live lane when
    /// one exists, the retired aggregate otherwise. A client-controlled
    /// tenant name can only ever grow the lane table through **accepted**
    /// work — a refused request must not cost the server a lane.
    fn ledger(&mut self, tenant: Option<&str>) -> &mut Counters {
        match self.lane_index(tenant) {
            Some(i) => &mut self.lanes[i].counters,
            None => &mut self.retired,
        }
    }

    fn place(&self, tenant: Option<&str>) -> Placement {
        if let Some(i) = self.lane_index(tenant) {
            return Placement::Join(i);
        }
        // `tenant` is tagged here: the anonymous lane always exists at 0.
        if self.lanes.len() - 1 < self.config.max_tenant_lanes {
            return Placement::Open { retire: None };
        }
        // A lane can be retired to make room once every request it accepted
        // has resolved: nothing queued, nothing in flight. The anonymous and
        // the weighted lanes — created up front, so first in the table —
        // are part of the stats surface from spawn and never retire.
        let pinned = 1 + self.config.tenant_weights.len();
        match self.lanes[pinned..].iter().position(|l| l.entries.is_empty() && l.in_flight == 0) {
            Some(idle) => Placement::Open { retire: Some(pinned + idle) },
            // Every tagged lane is weighted or still has unresolved work.
            None => Placement::Join(0),
        }
    }

    /// Remove lane `i`, folding its ledger into the retired aggregate so
    /// the totals are unchanged (the per-tenant series disappears — that
    /// cardinality bound is the point).
    fn retire_lane(&mut self, i: usize) {
        let lane = self.lanes.remove(i);
        debug_assert!(lane.entries.is_empty(), "retired lanes must be idle");
        self.retired += lane.counters;
        if self.cursor > i {
            self.cursor -= 1;
        } else if self.cursor >= self.lanes.len() {
            self.cursor = 0;
        }
    }

    /// Admit `request` into the lane it belongs to, or say why not. The
    /// fail-fast checks run in a fixed order — shutdown, a passed
    /// deadline, the shed policy, the quota of the lane the request would
    /// join — and only then capacity, which the blocking submit paths wait
    /// out ([`Admission::Full`]). A refusal never creates a lane. `now`
    /// becomes the entry's `enqueued` stamp — the moment it enters its
    /// lane, not when it was validated — and the arrival the next gap is
    /// measured from.
    pub fn submit(&mut self, request: Admitted, now: Instant) -> (Admission, usize) {
        if self.shutting_down {
            return (Admission::Refused(SubmitError::ShuttingDown), 0);
        }
        if request.deadline.is_some_and(|d| d <= now) {
            self.ledger(request.tenant.as_deref()).expired += 1;
            return (Admission::Refused(SubmitError::Expired), 0);
        }
        let placement = self.place(request.tenant.as_deref());
        // The lane the request would join, when that lane is at its quota
        // (a lane about to be opened has nothing queued).
        let quota = self.config.tenant_quota;
        let full_lane = |q: &Self| match (quota, &placement) {
            (Some(quota), &Placement::Join(i)) if q.lanes[i].entries.len() >= quota => {
                Some((i, quota))
            }
            _ => None,
        };
        // Before refusing for space, retract expired entries buried in
        // the lanes: dead work must not hold the shed watermark, a lane
        // quota, or the capacity against live work.
        let crowded = self.queued >= self.config.queue_capacity
            || self.config.shed.queue_watermark.is_some_and(|mark| self.queued >= mark)
            || full_lane(self).is_some();
        let freed = if crowded { self.sweep_expired(now) } else { 0 };
        if let Some(reason) = self.shed_reason(now) {
            self.ledger(request.tenant.as_deref()).shed += 1;
            return (Admission::Refused(SubmitError::Shedding { reason }), freed);
        }
        if let Some((i, quota)) = full_lane(self) {
            let lane = &mut self.lanes[i];
            lane.counters.quota_rejected += 1;
            let tenant = lane.tenant.as_deref().unwrap_or("default").into();
            return (Admission::Refused(SubmitError::TenantQuota { tenant, quota }), freed);
        }
        if self.queued >= self.config.queue_capacity {
            return (Admission::Full(request), freed);
        }
        let lane = match placement {
            Placement::Join(i) => &mut self.lanes[i],
            Placement::Open { retire } => {
                if let Some(idle) = retire {
                    self.retire_lane(idle);
                }
                let tenant = request.tenant.as_deref();
                self.lanes.push(Lane::new(tenant, self.config.tenant_weight(tenant)));
                self.lanes.last_mut().expect("just pushed")
            }
        };
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        lane.counters.submitted += 1;
        lane.entries.push_back(Entry {
            images: request.images,
            tile: request.tile,
            tenant: lane.tenant.clone(),
            deadline: request.deadline,
            cell,
            enqueued: now,
            dequeued: None,
        });
        self.queued += 1;
        self.high_water = self.high_water.max(self.queued);
        if let Some(last) = self.last_arrival {
            self.gap = now.saturating_duration_since(last);
        }
        self.last_arrival = Some(now);
        (Admission::Accepted(ticket), freed)
    }

    /// Count a request that came back [`Admission::Full`] and whose caller
    /// will not wait (any longer) for a slot.
    pub fn refuse_for_space(&mut self, tenant: Option<&str>) {
        self.ledger(tenant).rejected += 1;
    }

    /// Whether the shed policy refuses new work right now. The p99 trip
    /// wire is self-recovering: a reading only refuses work while it is
    /// fresher than `p99_recovery`. A *real* ongoing overload keeps
    /// producing slow dispatches, which keep the reading fresh and the
    /// wire tripped.
    fn shed_reason(&mut self, now: Instant) -> Option<&'static str> {
        let policy = self.config.shed;
        if policy.queue_watermark.is_some_and(|mark| self.queued >= mark) {
            return Some("queue depth watermark");
        }
        let (trip, (p99, read_at)) = (policy.p99_trip?, self.p99?);
        if p99 > trip {
            if now.saturating_duration_since(read_at) <= policy.p99_recovery {
                return Some("p99 latency trip wire");
            }
            // Stale over-trip reading: re-arm. Forgetting the window is
            // deliberate — those samples describe the regime that tripped
            // the wire, not the one this request is being admitted into.
            self.p99 = None;
            self.recent.clear();
        }
        None
    }

    /// Retract every expired entry at the head of a lane. Expiry is lazy —
    /// an expired entry buried behind live ones is retracted when it
    /// surfaces at its lane head (or by [`Queue::seal`]) — but an expired
    /// entry is *never* handed to a session.
    fn expire_stale_heads(&mut self, now: Instant) -> usize {
        let mut freed = 0;
        for lane in &mut self.lanes {
            while lane.entries.front().is_some_and(|e| e.expired(now)) {
                let entry = lane.entries.pop_front().expect("front checked");
                entry.retract(&mut lane.counters);
                freed += 1;
            }
        }
        self.queued -= freed;
        freed
    }

    /// Retract every expired entry anywhere in the lanes — not just the
    /// heads.
    fn sweep_expired(&mut self, now: Instant) -> usize {
        let mut freed = 0;
        for lane in &mut self.lanes {
            let Lane { entries, counters, .. } = lane;
            entries.retain(|e| {
                let dead = e.expired(now);
                if dead {
                    e.retract(counters);
                    freed += 1;
                }
                !dead
            });
        }
        self.queued -= freed;
        freed
    }

    /// Hand the head of lane `i` to a worker.
    fn take_head(&mut self, i: usize, now: Instant) -> Entry {
        let lane = &mut self.lanes[i];
        let mut entry = lane.entries.pop_front().expect("the chosen lane is backlogged");
        entry.dequeued = Some(now);
        lane.in_flight += 1;
        self.queued -= 1;
        entry
    }

    /// Pick the next entry to anchor a dispatch — `None` only when nothing
    /// live is queued. Earliest-deadline-first *within* the weighted
    /// rotation: among lanes still holding credits this cycle, a
    /// deadline-tagged head is drained before the cursor scan, earliest
    /// first. FIFO order within a lane is never violated.
    ///
    /// Bounding EDF by credits is what keeps deadlines from defeating
    /// fairness: deadline tags order work inside a cycle but cannot buy
    /// more than the lane's weight per cycle, so a tenant stamping every
    /// request with a far-future deadline (the tag is client-controlled)
    /// still cannot starve untagged tenants.
    pub fn pop(&mut self, now: Instant) -> (Option<Entry>, usize) {
        let freed = self.expire_stale_heads(now);
        if self.queued == 0 {
            return (None, freed);
        }
        // Weighted round-robin: when every backlogged lane is out of
        // credits, grant a fresh cycle (weight credits each).
        if !self.lanes.iter().any(|l| !l.entries.is_empty() && l.credits > 0) {
            for lane in &mut self.lanes {
                if !lane.entries.is_empty() {
                    lane.credits = lane.weight;
                }
            }
        }
        // EDF among the credit-holding lanes: urgent work goes first
        // within the cycle, spending a credit like any other dispatch.
        let edf = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| lane.credits > 0)
            .filter_map(|(i, lane)| lane.entries.front().and_then(|e| e.deadline).map(|d| (d, i)))
            .min_by_key(|&(d, _)| d);
        let i = match edf {
            Some((_, i)) => i,
            None => {
                // Scan from the cursor so a lane spends its credits
                // consecutively (coalescing-friendly).
                let n = self.lanes.len();
                (0..n)
                    .map(|k| (self.cursor + k) % n)
                    .find(|&i| !self.lanes[i].entries.is_empty() && self.lanes[i].credits > 0)
                    .expect("a fresh cycle credits every backlogged lane")
            }
        };
        self.lanes[i].credits -= 1;
        self.cursor = i;
        (Some(self.take_head(i, now)), freed + 1)
    }

    /// One fairness round over the lanes for the batch anchored at
    /// `batch[0]`: take at most one compatible head (same tile override,
    /// fits within `max_batch` images) per lane, then say what the batcher
    /// should do next — waiting out the batching window
    /// ([`Queue::window_closes`]) only once the queue is drained.
    pub fn gather(&mut self, batch: &mut Vec<Entry>, now: Instant) -> (Gathered, usize) {
        let expired = self.expire_stale_heads(now);
        let max_batch = self.config.max_batch;
        let tile = batch[0].tile;
        let mut images: usize = batch.iter().map(|e| e.images.len()).sum();
        let before = batch.len();
        let n = self.lanes.len();
        for k in 0..n {
            if images >= max_batch {
                break;
            }
            let i = (self.cursor + k) % n;
            let fits = self.lanes[i]
                .entries
                .front()
                .is_some_and(|e| e.tile == tile && images + e.images.len() <= max_batch);
            if fits {
                let entry = self.take_head(i, now);
                images += entry.images.len();
                batch.push(entry);
            }
        }
        let took = batch.len() - before;
        let next = if images >= max_batch || self.shutting_down {
            Gathered::Seal
        } else if self.queued == 0 {
            match self.window_closes(batch, max_batch - images) {
                closes if closes <= now => Gathered::Seal,
                until => Gathered::Wait { until },
            }
        } else if took > 0 {
            Gathered::Again
        } else {
            Gathered::Seal
        };
        (next, expired + took)
    }

    /// When the batching window of a drained batch with `room` images to
    /// spare closes, absent new arrivals. It opens when the anchor left its
    /// lane and lasts at most `max_wait`; it is shut from the start when a
    /// held entry's deadline falls inside it, since waiting could only
    /// expire that entry. While a worker is parked — it would serve a
    /// straggler at once — the window also closes at the first instant the
    /// arrival pace cannot fill the room before its end: pace × room ≥
    /// end − t, where the pace is the slower of the last inter-arrival gap
    /// and the time since the last arrival (a lull reads as one). With no
    /// idle peer the straggler would wait for this worker anyway, so the
    /// window stays open to its end.
    fn window_closes(&self, batch: &[Entry], room: usize) -> Instant {
        let opened = batch[0].dequeued.expect("a batch's anchor was taken from its lane");
        let end = opened + self.config.max_wait;
        if batch.iter().any(|e| e.deadline.is_some_and(|d| d <= end)) {
            return opened;
        }
        if self.parked == 0 {
            return end;
        }
        let last = self.last_arrival.expect("the anchor was accepted");
        let room = u32::try_from(room).unwrap_or(u32::MAX);
        // gap × room ≥ end − t: a product past the clock's range is a pace
        // that never fills, so the window is shut already.
        let by_gap = end.checked_sub(self.gap.saturating_mul(room)).unwrap_or(opened);
        // (t − last) × room ≥ end − t ⟺ (t − last) × (room + 1) ≥ end − last,
        // rounded up to the nanosecond.
        let lull = end.saturating_duration_since(last).as_nanos().div_ceil(u128::from(room) + 1);
        let by_lull = last + Duration::from_nanos(u64::try_from(lull).unwrap_or(u64::MAX));
        end.min(by_gap).min(by_lull)
    }

    /// A worker found nothing to pop and is about to wait for work. Returns
    /// whether it is the only idle worker: a peer holding a batch open had
    /// no idle worker to count on until now, so its window may close early.
    pub fn park(&mut self) -> bool {
        self.parked += 1;
        self.parked == 1
    }

    /// A parked worker woke.
    pub fn unpark(&mut self) {
        self.parked = self.parked.checked_sub(1).expect("a worker unparks after it parked");
    }

    /// The hard guarantee behind [`SubmitError::Expired`]: nothing expired
    /// is ever dispatched. The batching window closes before any held
    /// deadline, but a worker can wake from its wait late; retract what
    /// expired at the last moment before the batch leaves the lock.
    /// Returns whether work is still queued behind the batch (an
    /// incompatible tile override, or a head that would not fit) for
    /// another worker to be woken for.
    pub fn seal(&mut self, batch: &mut Vec<Entry>, now: Instant) -> bool {
        batch.retain(|entry| {
            let dead = entry.expired(now);
            if dead {
                entry.retract(self.land(entry));
            }
            !dead
        });
        self.queued > 0
    }

    /// An entry a worker took is in flight no longer; the ledger of the
    /// lane it came from says what became of it. In-flight entries pin
    /// their lane (see [`Queue::place`]), so the lookup lands; the
    /// fallback keeps the totals exact regardless.
    fn land(&mut self, entry: &Entry) -> &mut Counters {
        match self.lane_index(entry.tenant.as_deref()) {
            Some(i) => {
                let lane = &mut self.lanes[i];
                lane.in_flight = lane.in_flight.saturating_sub(1);
                &mut lane.counters
            }
            None => &mut self.retired,
        }
    }

    /// Book a dispatch whose tickets the worker is about to resolve, all
    /// of it at once: the serving record (images, busy time, each entry's
    /// latency and stage spans, a response its submitter gave up on); the
    /// ledger's completions, failures, and deadline misses (served, but
    /// after the deadline passed mid-flight — the late-but-served
    /// counterpart of the never-dispatched `Expired`); then the p99 window
    /// when that wire is armed. Windowed — not lifetime-cumulative — so the
    /// estimate can come back down when the overload passes.
    pub fn complete(&mut self, batch: &[Entry], dispatch: Dispatch, now: Instant) {
        let Dispatch { worker, served, images, sealed, infer_done, workspace_bytes, op_profile } =
            dispatch;
        let record = &mut self.record;
        record.dispatches += 1;
        record.busy += infer_done.saturating_duration_since(sealed);
        if batch.len() > 1 {
            record.coalesced += batch.len() as u64;
        }
        if served {
            record.images += images as u64;
        }
        for entry in batch {
            let RuntimeStamps { enqueued, dequeued, .. } = entry.stamps(sealed, infer_done);
            record.latency.record(now.saturating_duration_since(enqueued));
            record.queue_wait.record(dequeued.saturating_duration_since(enqueued));
            record.batch_wait.record(sealed.saturating_duration_since(dequeued));
            record.infer.record(infer_done.saturating_duration_since(sealed));
            record.late_discarded += u64::from(entry.cell.is_abandoned());
        }
        self.readings[worker] = (workspace_bytes, op_profile);
        for entry in batch {
            let counters = self.land(entry);
            if !served {
                counters.failed += 1;
                continue;
            }
            counters.completed += 1;
            if entry.deadline.is_some_and(|d| now > d) {
                counters.deadline_misses += 1;
            }
        }
        if self.config.shed.p99_trip.is_none() || batch.is_empty() {
            return;
        }
        for entry in batch {
            if self.recent.len() == P99_WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back(now.saturating_duration_since(entry.enqueued));
        }
        let mut window: Vec<Duration> = self.recent.iter().copied().collect();
        let rank = (window.len() * 99).div_ceil(100).max(1);
        self.p99 = Some((*window.select_nth_unstable(rank - 1).1, now));
    }

    /// A worker died serving `batch`: fail every ticket it had not
    /// resolved yet, so no caller is left blocked forever and `failed`
    /// stays exact.
    pub fn abandon(&mut self, batch: &[Entry], message: &str) {
        for entry in batch {
            if entry.cell.resolve_if_pending(Err(unserved(message))) {
                self.land(entry).failed += 1;
            }
        }
    }

    /// Fail every queued entry with `message`.
    pub fn fail_queued(&mut self, message: &str) -> usize {
        let mut freed = 0;
        for lane in &mut self.lanes {
            for entry in lane.entries.drain(..) {
                if entry.cell.resolve_if_pending(Err(unserved(message))) {
                    lane.counters.failed += 1;
                }
                freed += 1;
            }
        }
        self.queued -= freed;
        freed
    }

    /// Refuse new submissions from here on; what is queued still drains.
    pub fn begin_shutdown(&mut self) {
        self.shutting_down = true;
    }

    pub fn shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// The record as a stats snapshot, short of what only the runtime
    /// knows (pool, backend, uptime): the serving half as booked, the
    /// ledger summed over every lane plus the retired aggregate (so
    /// retiring a lane, or refusing a lane-less tenant, never loses a
    /// count), the tagged lanes in table order, depth and high-water, and
    /// the workers' latest readings.
    pub fn report(&self) -> RuntimeStats {
        let mut stats = self.record.clone();
        let mut totals = self.retired;
        for lane in &self.lanes {
            totals += lane.counters;
            if let Some(name) = &lane.tenant {
                let (name, queued) = (name.to_string(), lane.entries.len());
                stats.tenants.push(TenantStats::new(name, lane.weight, queued, lane.counters));
            }
        }
        stats.set_counters(totals);
        stats.queue_depth = self.queued;
        stats.queue_high_water = self.high_water;
        for (bytes, profile) in &self.readings {
            stats.workspace_bytes += bytes;
            stats.op_profile.merge(profile);
        }
        stats.max_batch = self.config.max_batch;
        stats.fill_batch();
        stats
    }
}

#[cfg(test)]
mod tests {
    //! Model-checked admission: generated op sequences drive the [`Queue`]
    //! under a virtual clock — no thread, no sleep — next to a small
    //! reference model that mirrors the lane table by observation,
    //! predicts every admission verdict from its own records, and checks
    //! the scheduler's picks and batching windows against the invariants
    //! the runtime promises.

    use super::*;
    use crate::ShedPolicy;
    use scales_serve::{InferStats, Precision, SrResponse, TileSpec};
    use std::collections::{BTreeMap, HashMap, HashSet};

    /// splitmix64: a fixed seed is a fixed sequence on every platform.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            usize::try_from(self.next() % n as u64).unwrap()
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn millis(&mut self, upto: usize) -> Duration {
            Duration::from_millis(self.below(upto) as u64)
        }
    }

    const TENANTS: [Option<&str>; 6] =
        [None, Some("gold"), Some("silver"), Some("a"), Some("b"), Some("c")];

    fn config(rng: &mut Rng) -> RuntimeConfig {
        let queue_capacity = 1 + rng.below(8);
        let tenant_weights: Vec<(String, u32)> = [("gold", 3), ("silver", 2)]
            .into_iter()
            .filter(|_| rng.chance(40))
            .map(|(name, weight)| (name.to_string(), weight))
            .collect();
        let config = RuntimeConfig {
            workers: 1 + rng.below(3),
            queue_capacity,
            max_batch: 1 + rng.below(4),
            max_wait: if rng.chance(15) { Duration::ZERO } else { rng.millis(30) },
            shed: ShedPolicy {
                queue_watermark: rng.chance(40).then(|| 1 + rng.below(queue_capacity)),
                p99_trip: rng.chance(40).then(|| Duration::from_millis(1) + rng.millis(20)),
                p99_recovery: Duration::from_millis(5) + rng.millis(40),
            },
            tenant_quota: rng.chance(50).then(|| 1 + rng.below(3)),
            max_tenant_lanes: tenant_weights.len().max(1) + rng.below(2),
            tenant_weights,
            profile_ops: false,
        };
        config.validate().expect("generated configs are servable");
        config
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Queued,
        InFlight,
        Served,
        Failed,
        Expired,
    }

    /// What the model remembers of one accepted request.
    struct Req {
        lane: Option<String>,
        deadline: Option<Instant>,
        images: usize,
        tile: Option<TilePolicy>,
        enqueued: Instant,
        /// Taken the moment the outcome is read, so an outcome is read once.
        ticket: Option<Ticket>,
        state: State,
    }

    impl Req {
        fn dead(&self, now: Instant) -> bool {
            self.deadline.is_some_and(|d| d <= now)
        }
    }

    #[derive(Default)]
    struct ModelLane {
        name: Option<String>,
        weight: u32,
        fifo: VecDeque<usize>,
        in_flight: usize,
        counters: Counters,
    }

    #[derive(Debug, PartialEq)]
    enum Verdict {
        Accept,
        Full,
        Refuse(SubmitError),
    }

    /// A batch a (virtual) worker is holding outside the queue.
    struct Batch {
        entries: Vec<Entry>,
        sealed: bool,
        /// What the last gather said to wait for, if it said wait.
        until: Option<Instant>,
    }

    struct Model {
        config: RuntimeConfig,
        reqs: Vec<Req>,
        /// Ticket cell address → request id: how an [`Entry`] coming out
        /// of the queue is recognised.
        ids: HashMap<usize, usize>,
        /// The lane table in the queue's own order.
        lanes: Vec<ModelLane>,
        /// What the retired lanes and the lane-less refusals counted.
        retired: Counters,
        /// Deadlines refused at the door: counted in `expired`, never in
        /// `submitted`.
        door_expired: u64,
        /// The serving half: dispatches completed, images they served,
        /// and entries they resolved.
        dispatches: u64,
        images: u64,
        booked: u64,
        high_water: usize,
        shutdown: bool,
        window: VecDeque<Duration>,
        p99: Option<(Duration, Instant)>,
        /// Virtual workers waiting for work.
        parked: usize,
        /// The latest accepted arrival and the gap before it.
        last_arrival: Option<Instant>,
        gap: Duration,
        /// Anchor pops a backlogged, credit-holding lane has sat through.
        waited: HashMap<Option<String>, u32>,
        /// Anchor pops per lane since the last fresh cycle.
        cycle_pops: HashMap<Option<String>, u32>,
    }

    fn key(cell: &Arc<TicketCell>) -> usize {
        Arc::as_ptr(cell) as usize
    }

    /// Read a resolved ticket. A pending one fails the test, never hangs it.
    fn outcome(ticket: Ticket) -> crate::ticket::ServeResult {
        assert!(ticket.is_ready(), "an outcome was expected and the ticket is still pending");
        ticket.wait()
    }

    impl Model {
        fn new(config: RuntimeConfig) -> Self {
            let lane = |name: Option<&String>, weight| ModelLane {
                name: name.cloned(),
                weight,
                ..ModelLane::default()
            };
            let mut lanes = vec![lane(None, 1)];
            lanes.extend(config.tenant_weights.iter().map(|(name, w)| lane(Some(name), *w)));
            Self {
                config,
                reqs: Vec::new(),
                ids: HashMap::new(),
                lanes,
                retired: Counters::default(),
                door_expired: 0,
                dispatches: 0,
                images: 0,
                booked: 0,
                high_water: 0,
                shutdown: false,
                window: VecDeque::new(),
                p99: None,
                parked: 0,
                last_arrival: None,
                gap: Duration::ZERO,
                waited: HashMap::new(),
                cycle_pops: HashMap::new(),
            }
        }

        fn queued(&self) -> usize {
            self.lanes.iter().map(|l| l.fifo.len()).sum()
        }

        fn live(&self, lane: &ModelLane, now: Instant) -> usize {
            lane.fifo.iter().filter(|&&id| !self.reqs[id].dead(now)).count()
        }

        fn weight_of(&self, tenant: Option<&str>) -> u32 {
            let listed =
                self.config.tenant_weights.iter().find(|(name, _)| Some(name.as_str()) == tenant);
            listed.map_or(1, |(_, weight)| *weight)
        }

        /// The lane request `id` was placed in; unresolved work pins it.
        fn lane_of(&mut self, id: usize) -> &mut ModelLane {
            let name = &self.reqs[id].lane;
            self.lanes.iter_mut().find(|l| l.name == *name).expect("the lane is pinned")
        }

        /// Where a refusal is counted, restated: the tenant's own lane if
        /// it has one, else the aggregate — never a new lane.
        fn charge(&mut self, tenant: Option<&str>) -> &mut Counters {
            match self.lanes.iter_mut().find(|l| l.name.as_deref() == tenant) {
                Some(lane) => &mut lane.counters,
                None => &mut self.retired,
            }
        }

        fn totals(&self) -> Counters {
            let mut totals = self.retired;
            for lane in &self.lanes {
                totals += lane.counters;
            }
            totals
        }

        /// The placement rule, restated: own lane, else a new lane while
        /// the table has room, else the first idle unweighted lane's slot,
        /// else the anonymous lane.
        fn place(&self, tenant: Option<&str>) -> Placement {
            if let Some(i) = self.lanes.iter().position(|l| l.name.as_deref() == tenant) {
                return Placement::Join(i);
            }
            if self.lanes.len() - 1 < self.config.max_tenant_lanes {
                return Placement::Open { retire: None };
            }
            let idle = self.lanes.iter().position(|l| {
                l.name.is_some()
                    && l.fifo.is_empty()
                    && l.in_flight == 0
                    && self.weight_of(l.name.as_deref()) == 1
            });
            idle.map_or(Placement::Join(0), |i| Placement::Open { retire: Some(i) })
        }

        /// The verdict the runtime promises, from *live* work only: dead
        /// entries must never hold the watermark, a quota, or the capacity
        /// against a request.
        fn expect(
            &mut self,
            tenant: Option<&str>,
            deadline: Option<Instant>,
            now: Instant,
        ) -> (Verdict, Placement) {
            let placement = self.place(tenant);
            if self.shutdown {
                return (Verdict::Refuse(SubmitError::ShuttingDown), placement);
            }
            if deadline.is_some_and(|d| d <= now) {
                return (Verdict::Refuse(SubmitError::Expired), placement);
            }
            let live: usize = self.lanes.iter().map(|l| self.live(l, now)).sum();
            let shed = self.config.shed;
            if shed.queue_watermark.is_some_and(|mark| live >= mark) {
                let reason = "queue depth watermark";
                return (Verdict::Refuse(SubmitError::Shedding { reason }), placement);
            }
            if let (Some(trip), Some((p99, read_at))) = (shed.p99_trip, self.p99) {
                if p99 > trip {
                    if now - read_at <= shed.p99_recovery {
                        let reason = "p99 latency trip wire";
                        return (Verdict::Refuse(SubmitError::Shedding { reason }), placement);
                    }
                    // A stale reading re-arms the wire from scratch.
                    self.p99 = None;
                    self.window.clear();
                }
            }
            if let (Some(quota), &Placement::Join(i)) = (self.config.tenant_quota, &placement) {
                if self.live(&self.lanes[i], now) >= quota {
                    let tenant = self.lanes[i].name.clone().unwrap_or_else(|| "default".into());
                    return (
                        Verdict::Refuse(SubmitError::TenantQuota { tenant, quota }),
                        placement,
                    );
                }
            }
            if live >= self.config.queue_capacity {
                return (Verdict::Full, placement);
            }
            (Verdict::Accept, placement)
        }

        /// Read the outcome of every queued request the queue resolved in
        /// the step just taken: it must be the typed retraction, and the
        /// request must really be past its deadline.
        fn observe_retractions(&mut self, now: Instant) -> usize {
            let mut retracted = 0;
            for id in 0..self.reqs.len() {
                let req = &mut self.reqs[id];
                if req.state != State::Queued || !req.ticket.as_ref().is_some_and(Ticket::is_ready)
                {
                    continue;
                }
                assert!(req.dead(now), "request {id} was retracted before its deadline");
                match outcome(req.ticket.take().expect("checked")) {
                    Err(ServeError::Rejected(SubmitError::Expired)) => {}
                    other => panic!("request {id} was retracted with {:?}", other.map(|_| ())),
                }
                req.state = State::Expired;
                let lane = self.lane_of(id);
                lane.fifo.retain(|&queued| queued != id);
                lane.counters.expired += 1;
                retracted += 1;
            }
            retracted
        }

        /// A worker took `entry`: it must be the live head of its lane.
        fn take(&mut self, entry: &Entry, now: Instant) -> usize {
            let id = self.ids[&key(&entry.cell)];
            let req = &mut self.reqs[id];
            assert_eq!(req.state, State::Queued, "request {id} left the queue twice");
            assert!(!req.dead(now), "expired request {id} was handed to a worker");
            assert_eq!(entry.tenant.as_deref(), req.lane.as_deref());
            assert_eq!(
                (entry.images.len(), entry.tile, entry.deadline),
                (req.images, req.tile, req.deadline)
            );
            assert_eq!((entry.enqueued, entry.dequeued), (req.enqueued, Some(now)));
            req.state = State::InFlight;
            let lane = self.lane_of(id);
            assert_eq!(lane.fifo.pop_front(), Some(id), "FIFO within a lane");
            lane.in_flight += 1;
            id
        }

        /// In-flight request `id` reached `outcome`; its lane counts it.
        fn land(&mut self, id: usize, outcome: State) -> &mut Counters {
            assert_eq!(self.reqs[id].state, State::InFlight, "request {id} resolved twice");
            self.reqs[id].state = outcome;
            let lane = self.lane_of(id);
            lane.in_flight -= 1;
            &mut lane.counters
        }

        /// Which case, if any, closes the batching window of the drained
        /// `batch` with `room` images to spare at `t`, restated from the
        /// rule: (a) the window, `max_wait` from the anchor's dequeue, has
        /// passed; (b) a held deadline falls inside it; (c) a worker is
        /// parked and the pace — the slower of the last gap and the time
        /// since the last arrival — cannot fill the room before it ends.
        fn window_closed(&self, batch: &[Entry], room: usize, t: Instant) -> Option<&'static str> {
            let end = batch[0].dequeued.expect("taken") + self.config.max_wait;
            if t >= end {
                return Some("window: passed");
            }
            if batch.iter().any(|e| e.deadline.is_some_and(|d| d <= end)) {
                return Some("window: a held deadline inside it");
            }
            let last = self.last_arrival.expect("an arrival anchors every batch");
            let pace = self.gap.max(t - last);
            let cannot_fill = pace.as_nanos() * room as u128 >= (end - t).as_nanos();
            (self.parked > 0 && cannot_fill).then_some("window: a parked peer, a pace too slow")
        }
    }

    /// Everything that must hold between any two steps.
    fn check(q: &Queue, m: &Model, now: Instant) {
        // The lane table: same lanes in the same order, same FIFO contents.
        assert_eq!(q.lanes.len(), m.lanes.len());
        assert!(q.lanes[0].tenant.is_none(), "lane 0 is the anonymous lane");
        assert!(q.lanes.len() - 1 <= m.config.max_tenant_lanes, "the lane table outgrew its cap");
        assert_eq!(q.retired, m.retired);
        for (lane, want) in q.lanes.iter().zip(&m.lanes) {
            assert_eq!(lane.tenant.as_deref(), want.name.as_deref());
            assert_eq!(lane.weight, want.weight);
            assert!(lane.credits <= lane.weight, "a lane holds more credits than its weight");
            assert_eq!(lane.in_flight, want.in_flight);
            let queued: Vec<usize> = lane.entries.iter().map(|e| m.ids[&key(&e.cell)]).collect();
            assert_eq!(queued, Vec::from(want.fifo.clone()));
            assert_eq!(lane.counters, want.counters, "lane {:?}", want.name);
        }
        assert_eq!(q.queued, m.queued());
        assert_eq!(q.high_water, m.high_water);
        assert_eq!((q.parked, q.last_arrival, q.gap), (m.parked, m.last_arrival, m.gap));
        assert_eq!((&q.recent, q.p99), (&m.window, m.p99), "the p99 window and its reading");
        assert!(q.high_water <= m.config.queue_capacity, "the queue outgrew its capacity");
        // One ledger: the lanes plus the retired aggregate are the totals,
        // and every accepted request is in exactly one place.
        let ledger = m.totals();
        let in_flight: usize = q.lanes.iter().map(|l| l.in_flight).sum();
        assert_eq!(
            ledger.submitted + m.door_expired,
            ledger.completed + ledger.failed + ledger.expired + (q.queued + in_flight) as u64,
            "Σ lanes: submitted = completed + failed + expired + queued + in flight"
        );
        // The report's global counters are that same ledger — completions
        // and failures included, with no second count beside it — so the
        // law holds on what a scrape reads, too.
        let stats = q.report();
        assert_eq!((stats.queue_depth, stats.queue_high_water), (q.queued, q.high_water));
        assert_eq!(
            (
                stats.submitted,
                stats.completed,
                stats.failed,
                stats.rejected,
                stats.shed,
                stats.quota_rejected,
                stats.expired,
                stats.deadline_misses
            ),
            (
                ledger.submitted,
                ledger.completed,
                ledger.failed,
                ledger.rejected,
                ledger.shed,
                ledger.quota_rejected,
                ledger.expired,
                ledger.deadline_misses
            )
        );
        assert_eq!(
            stats.submitted + m.door_expired,
            stats.completed + stats.failed + stats.expired + (stats.queue_depth + in_flight) as u64,
            "globally: submitted = completed + failed + expired + queued + in flight"
        );
        // The serving half is booked by the same call, per dispatch and
        // per dispatched entry.
        assert_eq!((stats.dispatches, stats.images), (m.dispatches, m.images));
        for hist in [&stats.latency, &stats.queue_wait, &stats.batch_wait, &stats.infer] {
            assert_eq!(hist.count(), m.booked, "one sample per dispatched entry");
        }
        let names: Vec<&str> = m.lanes.iter().filter_map(|l| l.name.as_deref()).collect();
        assert_eq!(stats.tenants.iter().map(|t| t.tenant.as_str()).collect::<Vec<_>>(), names);
        // Exactly the requests that were served or failed hold an unread
        // outcome (a retraction is read the step it happens): nothing
        // queued or in flight is resolved, nothing resolved is pending.
        for (id, req) in m.reqs.iter().enumerate() {
            let ready = req.ticket.as_ref().is_some_and(Ticket::is_ready);
            let resolved = matches!(req.state, State::Served | State::Failed);
            assert_eq!(ready, resolved, "request {id} is {:?} at {now:?}", req.state);
        }
    }

    fn submit(q: &mut Queue, m: &mut Model, rng: &mut Rng, now: Instant, seen: &mut Seen) {
        let tenant = TENANTS[rng.below(TENANTS.len())];
        let deadline = match rng.below(10) {
            0 => Some(now),
            1..=4 => Some(now + Duration::from_millis(1) + rng.millis(40)),
            _ => None,
        };
        let images = 1 + rng.below(3);
        let tile = rng.chance(25).then_some(TilePolicy::Fixed(TileSpec { tile: 16, overlap: 2 }));
        let (want, placement) = m.expect(tenant, deadline, now);
        let request = Admitted {
            images: vec![Image::zeros(1, 1); images],
            tile,
            tenant: tenant.map(String::from),
            deadline,
        };
        let rotation = q.lanes[q.cursor].tenant.clone();
        let (got, freed) = q.submit(request, now);
        assert_eq!(freed, m.observe_retractions(now), "freed slots are retracted entries");
        if let Some(i) = q.lane_index(rotation.as_deref()) {
            assert_eq!(q.cursor, i, "retiring a lane must not move the rotation");
        }
        match (got, want) {
            (Admission::Accepted(ticket), Verdict::Accept) => {
                let lane = match placement {
                    Placement::Join(i) => {
                        if m.lanes[i].name.as_deref() != tenant {
                            seen.saw("folded into the anonymous lane");
                        }
                        i
                    }
                    Placement::Open { retire } => {
                        if let Some(idle) = retire {
                            seen.saw("retired an idle lane");
                            m.retired += m.lanes.remove(idle).counters;
                        }
                        m.lanes.push(ModelLane {
                            name: tenant.map(String::from),
                            weight: m.weight_of(tenant),
                            ..ModelLane::default()
                        });
                        m.lanes.len() - 1
                    }
                };
                let id = m.reqs.len();
                m.ids.insert(key(&ticket.cell), id);
                m.lanes[lane].fifo.push_back(id);
                m.reqs.push(Req {
                    lane: m.lanes[lane].name.clone(),
                    deadline,
                    images,
                    tile,
                    enqueued: now,
                    ticket: Some(ticket),
                    state: State::Queued,
                });
                m.lanes[lane].counters.submitted += 1;
                m.high_water = m.high_water.max(m.queued());
                if let Some(last) = m.last_arrival {
                    m.gap = now - last;
                }
                m.last_arrival = Some(now);
            }
            (Admission::Full(back), Verdict::Full) => {
                assert_eq!(back.images.len(), images, "a full queue hands the request back whole");
                // The non-blocking path: give up at once.
                q.refuse_for_space(back.tenant.as_deref());
                m.charge(tenant).rejected += 1;
                seen.saw("queue full");
            }
            (Admission::Refused(got), Verdict::Refuse(want)) => {
                assert_eq!(got, want);
                match got {
                    SubmitError::ShuttingDown => seen.saw("refused for shutdown"),
                    SubmitError::Expired => {
                        m.charge(tenant).expired += 1;
                        m.door_expired += 1;
                    }
                    SubmitError::Shedding { reason } => {
                        m.charge(tenant).shed += 1;
                        seen.saw(reason);
                    }
                    SubmitError::TenantQuota { .. } => {
                        // Counted by the lane that was full, whatever the tag.
                        let Placement::Join(full) = placement else { unreachable!() };
                        m.lanes[full].counters.quota_rejected += 1;
                        seen.saw("lane quota");
                    }
                    other => panic!("not an admission verdict: {other}"),
                }
            }
            (got, want) => {
                let got = match got {
                    Admission::Accepted(_) => "accepted".to_string(),
                    Admission::Full(_) => "full".to_string(),
                    Admission::Refused(refusal) => refusal.to_string(),
                };
                panic!("admission said {got:?}, the model {want:?}");
            }
        }
    }

    /// Pop an anchor and check the pick: FIFO, never expired, EDF among
    /// the credit-holding lanes, credits spent and granted by the rules.
    fn pop(q: &mut Queue, m: &mut Model, now: Instant, seen: &mut Seen) -> Option<Entry> {
        let before: Vec<u32> = q.lanes.iter().map(|l| l.credits).collect();
        let cursor = q.cursor;
        let (popped, freed) = q.pop(now);
        let retracted = m.observe_retractions(now);
        for lane in &m.lanes {
            assert!(
                lane.fifo.front().is_none_or(|&id| !m.reqs[id].dead(now)),
                "a dead lane head survived"
            );
        }
        let Some(entry) = popped else {
            assert_eq!(m.queued(), 0, "pop may only come back empty from an empty queue");
            assert_eq!(freed, retracted);
            return None;
        };
        assert_eq!(freed, retracted + 1);
        let n = q.lanes.len();
        let i = q.lane_index(entry.tenant.as_deref()).expect("taken entries pin their lane");
        let backlogged: Vec<bool> = m.lanes.iter().map(|l| !l.fifo.is_empty()).collect();
        // Credits as they stood when the pick was made.
        let credits: Vec<u32> =
            q.lanes.iter().enumerate().map(|(j, l)| l.credits + u32::from(j == i)).collect();
        if (0..n).any(|j| credits[j] > before[j]) {
            for j in 0..n {
                if backlogged[j] {
                    assert_eq!(before[j], 0, "a fresh cycle while a backlogged lane held credits");
                    assert_eq!(credits[j], q.lanes[j].weight);
                } else {
                    assert_eq!(credits[j], before[j], "only backlogged lanes are credited");
                }
            }
            m.cycle_pops.clear();
        } else {
            assert_eq!(credits, before);
        }
        assert!(backlogged[i] && credits[i] > 0, "the popped lane held no credit");
        let credited = |j: &usize| backlogged[*j] && credits[*j] > 0;
        let head_deadline = |j: usize| m.reqs[m.lanes[j].fifo[0]].deadline;
        let earliest = (0..n).filter(credited).filter_map(head_deadline).min();
        match earliest {
            Some(deadline) => {
                assert_eq!(entry.deadline, Some(deadline), "EDF among the credit-holding lanes");
                seen.saw("EDF pick");
            }
            None => {
                let scan = (0..n).map(|k| (cursor + k) % n).find(credited);
                assert_eq!(Some(i), scan, "the rotation resumes at the cursor");
            }
        }
        m.take(&entry, now);
        assert_eq!(q.cursor, i, "the cursor rests on the lane just popped");
        // Fairness: a lane is popped at most `weight` times per cycle, and
        // a backlogged lane holding credits is reached within Σ weights.
        let name = m.lanes[i].name.clone();
        let pops = m.cycle_pops.entry(name.clone()).or_default();
        *pops += 1;
        assert!(*pops <= q.lanes[i].weight, "lane {name:?} outran its weight in one cycle");
        let bound: u32 = q.lanes.iter().map(|l| l.weight).sum();
        for j in 0..n {
            let waited = m.waited.entry(m.lanes[j].name.clone()).or_default();
            *waited = if j != i && credited(&j) { *waited + 1 } else { 0 };
            assert!(*waited <= bound, "lane {j} was passed over {waited} times");
        }
        Some(entry)
    }

    /// One gather round on an open batch; returns what the batcher is told.
    fn gather(
        q: &mut Queue,
        m: &mut Model,
        batch: &mut Vec<Entry>,
        now: Instant,
        seen: &mut Seen,
    ) -> Gathered {
        let max_batch = m.config.max_batch;
        let had = batch.len();
        let (next, freed) = q.gather(batch, now);
        let retracted = m.observe_retractions(now);
        let mut images: usize = batch[..had].iter().map(|e| e.images.len()).sum();
        let mut lanes = HashSet::new();
        for entry in &batch[had..] {
            assert_eq!(entry.tile, batch[0].tile, "a batch shares one tile override");
            images += entry.images.len();
            assert!(images <= max_batch, "gathered past max_batch");
            assert!(lanes.insert(entry.tenant.clone()), "one head per lane per round");
            m.take(entry, now);
        }
        assert_eq!(freed, retracted + batch.len() - had);
        // Nothing that fits was passed over (a lane taken from this round
        // may have a new head that fits: that is what another round is for).
        for lane in m.lanes.iter().filter(|l| !lanes.contains(&l.name.as_deref().map(Arc::from))) {
            if let Some(head) = lane.fifo.front().map(|&id| &m.reqs[id]) {
                assert!(!head.dead(now), "a dead lane head survived");
                assert!(
                    head.tile != batch[0].tile || images + head.images > max_batch,
                    "a compatible head was left behind"
                );
            }
        }
        let want = if images >= max_batch || m.shutdown {
            Gathered::Seal
        } else if m.queued() == 0 {
            // A drained batch with room left seals only when the window
            // is closed, and otherwise waits exactly until it closes.
            let room = max_batch - images;
            if let Some(case) = m.window_closed(batch, room, now) {
                seen.saw(case);
                Gathered::Seal
            } else {
                let Gathered::Wait { until } = next else {
                    panic!("{next:?} with the window open and the queue drained")
                };
                let end = batch[0].dequeued.expect("taken") + m.config.max_wait;
                assert!(now < until && until <= end, "waited past dequeued + max_wait");
                assert!(
                    batch.iter().all(|e| e.deadline.is_none_or(|d| until <= d)),
                    "waited past a held deadline"
                );
                assert!(m.window_closed(batch, room, until).is_some(), "still open at `until`");
                assert!(
                    m.window_closed(batch, room, until - Duration::from_nanos(1)).is_none(),
                    "closed before `until`"
                );
                next
            }
        } else if batch.len() > had {
            Gathered::Again
        } else {
            Gathered::Seal
        };
        assert_eq!(next, want);
        next
    }

    /// A gather round on a batch a worker holds, remembering a wait's
    /// `until` the way the worker would.
    fn gather_on(q: &mut Queue, m: &mut Model, batch: &mut Batch, now: Instant, seen: &mut Seen) {
        batch.until = None;
        match gather(q, m, &mut batch.entries, now, seen) {
            Gathered::Seal => seen.saw("gather: seal"),
            Gathered::Again => seen.saw("gather: again"),
            Gathered::Wait { until } => {
                seen.saw("gather: wait");
                batch.until = Some(until);
            }
        }
    }

    /// Seal a batch: whatever expired while it was gathered is retracted,
    /// never dispatched.
    fn seal(q: &mut Queue, m: &mut Model, batch: &mut Vec<Entry>, now: Instant, seen: &mut Seen) {
        let before: Vec<usize> = batch.iter().map(|e| key(&e.cell)).collect();
        let more = q.seal(batch, now);
        assert_eq!(more, m.queued() > 0);
        let kept: Vec<usize> = batch.iter().map(|e| key(&e.cell)).collect();
        let mut kept_in_order = kept.iter();
        for cell in before {
            let id = m.ids[&cell];
            if !m.reqs[id].dead(now) {
                assert_eq!(kept_in_order.next(), Some(&cell), "seal keeps live entries, in order");
                continue;
            }
            match outcome(m.reqs[id].ticket.take().expect("unread")) {
                Err(ServeError::Rejected(SubmitError::Expired)) => {}
                other => panic!("request {id} was sealed out with {:?}", other.map(|_| ())),
            }
            m.land(id, State::Expired).expired += 1;
            seen.saw("sealed out an expired entry");
        }
        assert_eq!(kept_in_order.next(), None);
    }

    /// Book a sealed batch, then resolve it, the way `serve_dispatch` does.
    /// Like the worker loop, skip a batch that sealed out to nothing.
    fn complete(q: &mut Queue, m: &mut Model, batch: &[Entry], served: bool, now: Instant) {
        if batch.is_empty() {
            return;
        }
        let images = batch.iter().map(|e| e.images.len()).sum();
        let dispatch = Dispatch {
            worker: 0,
            served,
            images,
            sealed: now,
            infer_done: now,
            workspace_bytes: 0,
            op_profile: OpProfile::default(),
        };
        q.complete(batch, dispatch, now);
        m.dispatches += 1;
        m.images += if served { images as u64 } else { 0 };
        m.booked += batch.len() as u64;
        for entry in batch {
            entry.cell.resolve(if served {
                Ok(SrResponse::from_parts(
                    Vec::new(),
                    InferStats {
                        images: entry.images.len(),
                        batches: 1,
                        tiled: 0,
                        backend: scales_tensor::backend::Backend::Scalar,
                        simd: scales_tensor::SimdLevel::None,
                        precision: Precision::Deployed,
                        plans_built: 0,
                        plan_reuses: 0,
                    },
                ))
            } else {
                Err(unserved("injected"))
            });
            let id = m.ids[&key(&entry.cell)];
            let req = &m.reqs[id];
            let (late, latency) = (req.deadline.is_some_and(|d| now > d), now - req.enqueued);
            if served {
                let counters = m.land(id, State::Served);
                counters.completed += 1;
                counters.deadline_misses += u64::from(late);
            } else {
                m.land(id, State::Failed).failed += 1;
            }
            if m.config.shed.p99_trip.is_some() {
                if m.window.len() == P99_WINDOW {
                    m.window.pop_front();
                }
                m.window.push_back(latency);
            }
        }
        if m.config.shed.p99_trip.is_some() {
            // Nearest-rank p99, restated: the smallest sample that at
            // least 99 % of the window does not exceed.
            let p99 = m.window.iter().copied().filter(|&v| {
                m.window.iter().filter(|&&sample| sample <= v).count() * 100 >= m.window.len() * 99
            });
            m.p99 = Some((p99.min().expect("the batch is not empty"), now));
        }
    }

    /// How often the generator reached each corner, summed over a run.
    #[derive(Default)]
    struct Seen(BTreeMap<&'static str, u32>);

    impl Seen {
        fn saw(&mut self, what: &'static str) {
            *self.0.entry(what).or_default() += 1;
        }
    }

    fn run(seed: u64, seen: &mut Seen) {
        let mut rng = Rng(seed);
        let config = config(&mut rng);
        let (mut q, mut m) = (Queue::new(config.clone()), Model::new(config));
        let mut now = Instant::now();
        let mut open: Vec<Batch> = Vec::new();
        check(&q, &m, now);
        for _ in 0..(20 + rng.below(60)) {
            let sealed: Vec<usize> = (0..open.len()).filter(|&b| open[b].sealed).collect();
            let gathering: Vec<usize> = (0..open.len()).filter(|&b| !open[b].sealed).collect();
            let waiting: Vec<usize> =
                gathering.iter().copied().filter(|&b| open[b].until.is_some()).collect();
            match rng.below(100) {
                0..=44 => submit(&mut q, &mut m, &mut rng, now, seen),
                45..=56 => {
                    if let Some(anchor) = pop(&mut q, &mut m, now, seen) {
                        let mut batch = Batch { entries: vec![anchor], sealed: false, until: None };
                        // Like the worker, mostly gather at once.
                        if rng.chance(60) {
                            gather_on(&mut q, &mut m, &mut batch, now, seen);
                        }
                        open.push(batch);
                    }
                }
                57..=66 if !gathering.is_empty() => {
                    let b = gathering[rng.below(gathering.len())];
                    gather_on(&mut q, &mut m, &mut open[b], now, seen);
                }
                // The worker that was told to wait wakes when it was told to.
                67..=68 if !waiting.is_empty() => {
                    let b = waiting[rng.below(waiting.len())];
                    now = now.max(open[b].until.expect("waiting"));
                    gather_on(&mut q, &mut m, &mut open[b], now, seen);
                    seen.saw("gathered again at a wait's end");
                }
                69..=74 if !gathering.is_empty() => {
                    let b = gathering[rng.below(gathering.len())];
                    seal(&mut q, &mut m, &mut open[b].entries, now, seen);
                    open[b].sealed = true;
                    if open[b].entries.is_empty() {
                        open.swap_remove(b);
                    }
                }
                75..=86 if !sealed.is_empty() => {
                    let batch = open.swap_remove(sealed[rng.below(sealed.len())]);
                    complete(&mut q, &mut m, &batch.entries, rng.chance(80), now);
                }
                87 if !sealed.is_empty() => {
                    // The worker died serving this batch.
                    let batch = open.swap_remove(sealed[rng.below(sealed.len())]);
                    q.abandon(&batch.entries, "worker died");
                    for entry in &batch.entries {
                        m.land(m.ids[&key(&entry.cell)], State::Failed).failed += 1;
                    }
                    seen.saw("abandoned a batch");
                }
                88 => {
                    q.begin_shutdown();
                    m.shutdown = true;
                }
                // An idle worker waits for work, and wakes.
                89..=91 if m.parked < m.config.workers => {
                    assert_eq!(q.park(), m.parked == 0, "only the first to park wakes a window");
                    m.parked += 1;
                }
                92..=93 if m.parked > 0 => {
                    q.unpark();
                    m.parked -= 1;
                }
                // Time passes: sometimes sub-millisecond, so arrival gaps
                // land on both sides of what fills a window.
                _ if rng.chance(50) => now += Duration::from_micros(rng.below(2_000) as u64),
                _ => now += rng.millis(12),
            }
            assert_eq!(q.shutting_down(), m.shutdown);
            check(&q, &m, now);
        }
        // Wind down. Most runs drain like a graceful shutdown; some lose
        // every worker with the lanes still loaded.
        q.begin_shutdown();
        m.shutdown = true;
        let drain = rng.chance(75);
        for mut batch in open.drain(..) {
            if !batch.sealed {
                seal(&mut q, &mut m, &mut batch.entries, now, seen);
            }
            complete(&mut q, &mut m, &batch.entries, true, now);
            check(&q, &m, now);
        }
        while let Some(anchor) = drain.then(|| pop(&mut q, &mut m, now, seen)).flatten() {
            let mut batch = vec![anchor];
            while gather(&mut q, &mut m, &mut batch, now, seen) == Gathered::Again {}
            seal(&mut q, &mut m, &mut batch, now, seen);
            complete(&mut q, &mut m, &batch, true, now);
            check(&q, &m, now);
            now += rng.millis(6);
        }
        let stranded = m.queued();
        assert_eq!(q.fail_queued("no workers left"), stranded);
        if stranded > 0 {
            seen.saw("failed a loaded queue");
        }
        for lane in &mut m.lanes {
            for id in lane.fifo.drain(..) {
                m.reqs[id].state = State::Failed;
                lane.counters.failed += 1;
            }
        }
        check(&q, &m, now);
        // By the end every accepted request has exactly one outcome, and
        // it is the one the model watched happen.
        for (id, req) in m.reqs.iter_mut().enumerate() {
            match (req.state, req.ticket.take().map(outcome)) {
                (State::Served, Some(Ok(_)))
                | (State::Failed, Some(Err(ServeError::Infer(_))))
                | (State::Expired, None) => {}
                (state, read) => {
                    panic!("request {id} ended {state:?} with {:?}", read.map(|o| o.map(|_| ())))
                }
            }
        }
        let ledger = m.totals();
        assert_eq!(
            ledger.submitted + m.door_expired,
            ledger.completed + ledger.failed + ledger.expired
        );
    }

    // Hand mutants of the batching window (`Queue::window_closes`, `park`,
    // `unpark`), each killed by this check; the count is how many of the
    // 2,400 seeds fail (run each seed under `catch_unwind` to re-count):
    //
    // | mutant                                                 | kills |
    // |--------------------------------------------------------|-------|
    // | idle count ignored (no `parked == 0` early return)     |   341 |
    // | pace term dropped (a parked peer alone shuts it)       |   117 |
    // | time since the last arrival ignored (gap term only)    |   148 |
    // | window measured from `now`, not the anchor's dequeue   |   117 |
    // | deadline cap dropped (no held-deadline case)           |   127 |
    // | `unpark` skipped                                       |   784 |
    #[test]
    fn generated_op_sequences_agree_with_the_reference_model() {
        let mut seen = Seen::default();
        for seed in 0..2_400 {
            run(seed, &mut seen);
        }
        // The generator must actually reach the corners the model guards.
        for corner in [
            "folded into the anonymous lane",
            "retired an idle lane",
            "queue full",
            "refused for shutdown",
            "queue depth watermark",
            "p99 latency trip wire",
            "lane quota",
            "EDF pick",
            "gather: seal",
            "gather: again",
            "gather: wait",
            "gathered again at a wait's end",
            "window: passed",
            "window: a held deadline inside it",
            "window: a parked peer, a pace too slow",
            "sealed out an expired entry",
            "abandoned a batch",
            "failed a loaded queue",
        ] {
            assert!(seen.0.get(corner).is_some_and(|&n| n >= 20), "{corner}: {:?}", seen.0);
        }
    }
}
