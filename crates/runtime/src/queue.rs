//! The runtime's admission and scheduling policy as one plain value:
//! tenant lanes and placement, each lane's order by expected finish, the
//! lane quota, the shed watermark and p99 window, expiry sweeps, the
//! EDF-inside-weighted-rotation pop that picks the one request a dispatch
//! serves, who runs a lone blocking request
//! (its caller, on a lease) and which workspace every forward borrows, the
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
use scales_serve::{TilePolicy, Workspace};
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
    /// Input pixels, Σ h·w over the images: the size the forward-time
    /// estimate scales with, and what a served dispatch adds to the
    /// rate's denominator.
    pixels: u64,
    /// The lane's sort key, fixed at admission (see [`Lane::insert`]):
    /// `enqueued` plus the estimated forward time for an untagged entry,
    /// `enqueued` alone for a deadline-tagged one.
    key: Instant,
    /// When a worker took this entry from its lane (`None` while queued) —
    /// the boundary between the queue-wait and dispatch set-up
    /// (`batch_wait`) trace stages.
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

    /// The stage stamps of this entry in a dispatch whose forward began
    /// at `sealed` and returned at `infer_done`.
    pub fn stamps(&self, sealed: Instant, infer_done: Instant) -> RuntimeStamps {
        let dequeued = self.dequeued.unwrap_or(self.enqueued);
        RuntimeStamps { enqueued: self.enqueued, dequeued, sealed, infer_done }
    }
}

/// Who runs a dispatch: the pool slot whose workspace it borrows, and
/// whether that is a blocking caller on a lease ([`Admission::RunHere`])
/// rather than a worker.
#[derive(Clone, Copy)]
pub(crate) struct Runner {
    pub slot: usize,
    pub here: bool,
}

/// A request its blocking submitter runs itself: the entry, already out
/// of the queue, and the workspace of the slot the caller leased.
pub(crate) struct Lease {
    pub entry: Entry,
    pub runner: Runner,
    pub workspace: Workspace,
}

/// How a submitter waits for its outcome.
#[derive(Clone, Copy)]
pub(crate) enum Caller {
    /// It takes the ticket and goes (`submit`, `submit_wait`).
    Ticket,
    /// It blocks on the outcome until `until` (`None`: no bound), so it
    /// may run a lone request itself.
    Blocking { until: Option<Instant> },
}

/// What one dispatch did, handed by its runner to [`Queue::complete`].
pub(crate) struct Dispatch {
    /// Who ran it.
    pub runner: Runner,
    /// The workspace the forward borrowed, going back to its slot.
    pub workspace: Workspace,
    /// Whether the forward succeeded: the entry completed, or it failed.
    pub served: bool,
    /// Images in the request.
    pub images: usize,
    /// When the forward began.
    pub sealed: Instant,
    /// When the forward returned.
    pub infer_done: Instant,
    /// The workspace's bytes after the forward.
    pub workspace_bytes: usize,
    /// The workspace's cumulative op profile after the forward.
    pub op_profile: OpProfile,
}

fn unserved(message: &str) -> ServeError {
    ServeError::Infer(TensorError::InvalidArgument(message.into()))
}

/// One tenant's queue, ordered by expected finish, plus its ledger. Lanes
/// are created on the first
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
    /// Entries taken by a worker and not yet completed or abandoned. With
    /// the ledger this closes
    /// `submitted + refused-at-the-door expiries = completed + failed +
    /// expired + queued + in flight` for every lane at every step.
    in_flight: usize,
    counters: Counters,
}

impl Lane {
    fn new(tenant: Option<&str>, weight: u32) -> Self {
        Self { tenant: tenant.map(Arc::from), weight, ..Self::default() }
    }

    /// Queue `entry` behind every entry whose key is not later than its
    /// own, so the lane stays sorted by key and ties keep arrival order.
    /// This is the only way an entry joins a lane, and every removal keeps
    /// the order, so the head is always the least `(key, arrival)`.
    ///
    /// An untagged entry's key is its arrival plus its estimated forward
    /// time: shortest expected finish first, which lowers the mean wait
    /// and costs no throughput. A light entry passes a heavy one only if
    /// it arrived less than `est_heavy − est_light` after it, so a heavy
    /// entry's wait stays bounded. A deadline-tagged entry's key is its
    /// arrival alone, so no later arrival ever passes it.
    fn insert(&mut self, entry: Entry) {
        let at = self.entries.partition_point(|queued| queued.key <= entry.key);
        self.entries.insert(at, entry);
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
    /// A blocking caller found the lanes empty and an idle worker whose
    /// slot is free: it runs the request itself on that slot's workspace,
    /// and no worker wakes. The entry never enters a lane. (Boxed: a
    /// workspace is large, and this outcome is moved twice per request.)
    RunHere(Ticket, Box<Lease>),
    /// Every fail-fast check passed but the queue is at capacity. The
    /// request comes back so a blocking caller can wait for a slot and
    /// submit again; one that gives up says so with
    /// [`Queue::refuse_for_space`].
    Full(Admitted),
    Refused(SubmitError),
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
    /// Workers idle between [`Queue::park`] (or [`Queue::complete`], or
    /// spawn) and [`Queue::unpark`]: each would serve an arrival the moment
    /// it is queued, unless a caller has leased its slot.
    parked: usize,
    /// Parked workers whose slot a blocking caller holds, running its own
    /// request ([`Admission::RunHere`]): never more than `parked`, so the
    /// forwards in flight never outnumber the workers.
    leased: usize,
    /// The free half of the pool of `workers` workspaces, by slot: whoever
    /// runs a forward takes one, [`Queue::complete`] puts it back.
    pool: Vec<(usize, Workspace)>,
    /// Ledgers of retired lanes and of refusals whose tenant never had a
    /// lane.
    retired: Counters,
    /// The serving half of the record — images, dispatches, busy, the
    /// four histograms, late-discarded — as booked by
    /// [`Queue::complete`]; [`Queue::report`] fills in the rest.
    record: RuntimeStats,
    /// Input pixels of every served dispatch: with the record's `busy`,
    /// the measured forward time per input pixel ([`Queue::estimate`]).
    served_pixels: u64,
    /// Per slot, the latest workspace bytes and cumulative op profile of
    /// its workspace: re-sampled, not accumulated, after every dispatch.
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
        let pool = (0..config.workers).rev().map(|slot| (slot, fresh_workspace(&config))).collect();
        Self {
            readings: vec![(0, OpProfile::default()); config.workers],
            // Workers are born parked: idle before their threads first run.
            parked: config.workers,
            leased: 0,
            pool,
            config,
            lanes,
            queued: 0,
            cursor: 0,
            shutting_down: false,
            high_water: 0,
            retired: Counters::default(),
            record: RuntimeStats::default(),
            served_pixels: 0,
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
    /// lane, not when it was validated.
    ///
    /// An accepted request from a [`Caller::Blocking`] runs on its
    /// caller's thread ([`Admission::RunHere`]) when the lanes hold
    /// nothing, a parked worker's slot is free (`parked > leased`), and
    /// the caller's own bound has not passed; the runtime is not shutting
    /// down, or it would have been refused. Nothing queued is passed by.
    pub fn submit(
        &mut self,
        request: Admitted,
        now: Instant,
        caller: Caller,
    ) -> (Admission, usize) {
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
        let here = self.queued == 0
            && self.parked > self.leased
            && matches!(caller, Caller::Blocking { until } if until.is_none_or(|u| now < u));
        let pixels = request.images.iter().map(|i| (i.height() * i.width()) as u64).sum();
        let key = match request.deadline {
            Some(_) => now,
            None => now.checked_add(self.estimate(pixels)).unwrap_or(now),
        };
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
        let entry = Entry {
            images: request.images,
            tile: request.tile,
            tenant: lane.tenant.clone(),
            deadline: request.deadline,
            cell,
            enqueued: now,
            pixels,
            key,
            dequeued: here.then_some(now),
        };
        if !here {
            lane.insert(entry);
            self.queued += 1;
            self.high_water = self.high_water.max(self.queued);
            return (Admission::Accepted(ticket), freed);
        }
        lane.in_flight += 1;
        self.leased += 1;
        self.record.caller_runs += 1;
        let (runner, workspace) = self.lend(None, true);
        (Admission::RunHere(ticket, Box::new(Lease { entry, runner, workspace })), freed)
    }

    /// The forward time `pixels` input pixels are expected to take: the
    /// forward time per input pixel measured so far (the record's `busy`
    /// over the pixels of every served dispatch) times `pixels`. Zero until
    /// a dispatch has been served, so a cold runtime queues in arrival
    /// order.
    fn estimate(&self, pixels: u64) -> Duration {
        if self.served_pixels == 0 {
            return Duration::ZERO;
        }
        let ns = self.record.busy.as_nanos() * u128::from(pixels) / u128::from(self.served_pixels);
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
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
    /// surfaces at its lane head — but an expired entry is *never* handed
    /// to a session.
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

    /// Pick the entry the next dispatch serves — `None` only when nothing
    /// live is queued. Earliest-deadline-first *within* the weighted
    /// rotation: among lanes still holding credits this cycle, a
    /// deadline-tagged head is drained before the cursor scan, earliest
    /// first. A lane is only ever served from its head, its least
    /// `(key, arrival)` ([`Lane::insert`]).
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
                // consecutively within a cycle.
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

    /// A worker found nothing to pop and is about to wait for work.
    pub fn park(&mut self) {
        self.parked += 1;
    }

    /// A parked worker woke. It leaves the idle count only for work —
    /// something queued, or the shutdown drain — and only while a parked
    /// worker's slot is free (`parked > leased`): a slot a caller leased
    /// stays with that caller, so at most `workers` forwards run at once.
    /// Returns whether it may go; otherwise it waits again.
    pub fn unpark(&mut self) -> bool {
        let go = (self.queued > 0 || self.shutting_down) && self.parked > self.leased;
        if go {
            self.parked -= 1;
        }
        go
    }

    /// Seal a popped entry's dispatch. It runs on the workspace of its
    /// worker's `home` slot when that is free — so a busy worker keeps its
    /// arenas warm in its own core's caches — and on the last one returned
    /// otherwise. The entry has not expired: the worker pops and seals
    /// under one lock hold, and it was live at that `now`. Also returns
    /// whether work is still queued behind it, for another worker to be
    /// woken for.
    pub fn seal(&mut self, home: usize) -> (Runner, Workspace, bool) {
        let at = self.pool.iter().position(|&(slot, _)| slot == home);
        let (runner, workspace) = self.lend(at, false);
        (runner, workspace, self.queued > 0)
    }

    /// Take the pool entry `at`, or the last one returned — the warmest —
    /// without a preference.
    fn lend(&mut self, at: Option<usize>, here: bool) -> (Runner, Workspace) {
        // Busy workers plus leases never exceed `workers` (see `unpark`),
        // and each holds one workspace.
        let last = self.pool.len().checked_sub(1).expect("a forward finds a workspace free");
        let (slot, workspace) = self.pool.swap_remove(at.unwrap_or(last));
        (Runner { slot, here }, workspace)
    }

    /// A dispatch is over: its workspace goes back to its slot, and its
    /// runner goes idle — a worker parks, a caller's lease ends. Returns
    /// whether to wake the workers: a lease ended with work queued that no
    /// parked worker could take while the slot was out.
    fn release(&mut self, runner: Runner, workspace: Workspace) -> bool {
        self.pool.push((runner.slot, workspace));
        if runner.here {
            self.leased -= 1;
            return self.queued > 0;
        }
        self.park();
        false
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

    /// Book a dispatch whose ticket its runner is about to resolve, all of
    /// it at once: the workspace back in its slot and the runner idle
    /// ([`Queue::release`], whose wake-up verdict this returns); the
    /// serving record (images, busy time, the entry's latency and stage
    /// spans, a response its submitter gave up on); the ledger's
    /// completion, failure, or deadline miss (served, but after the
    /// deadline passed mid-flight — the late-but-served counterpart of the
    /// never-dispatched `Expired`); then the p99 window when that wire is
    /// armed. Windowed — not lifetime-cumulative — so the estimate can come
    /// back down when the overload passes.
    pub fn complete(&mut self, entry: &Entry, dispatch: Dispatch, now: Instant) -> bool {
        let Dispatch {
            runner,
            workspace,
            served,
            images,
            sealed,
            infer_done,
            workspace_bytes,
            op_profile,
        } = dispatch;
        let wake = self.release(runner, workspace);
        let record = &mut self.record;
        record.dispatches += 1;
        record.batch_fill = 1.0;
        record.busy += infer_done.saturating_duration_since(sealed);
        if served {
            record.images += images as u64;
            self.served_pixels += entry.pixels;
        }
        let RuntimeStamps { enqueued, dequeued, .. } = entry.stamps(sealed, infer_done);
        let latency = now.saturating_duration_since(enqueued);
        record.latency.record(latency);
        record.queue_wait.record(dequeued.saturating_duration_since(enqueued));
        record.batch_wait.record(sealed.saturating_duration_since(dequeued));
        record.infer.record(infer_done.saturating_duration_since(sealed));
        record.late_discarded += u64::from(entry.cell.is_abandoned());
        self.readings[runner.slot] = (workspace_bytes, op_profile);
        let counters = self.land(entry);
        if served {
            counters.completed += 1;
            counters.deadline_misses += u64::from(entry.deadline.is_some_and(|d| now > d));
        } else {
            counters.failed += 1;
        }
        if self.config.shed.p99_trip.is_none() {
            return wake;
        }
        if self.recent.len() == P99_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(latency);
        let mut window: Vec<Duration> = self.recent.iter().copied().collect();
        let rank = (window.len() * 99).div_ceil(100).max(1);
        self.p99 = Some((*window.select_nth_unstable(rank - 1).1, now));
        wake
    }

    /// A forward serving `entry` panicked: fail its ticket if it had not
    /// resolved yet, so no caller is left blocked forever and `failed`
    /// stays exact. The unwound workspace is lost, so a fresh, empty one
    /// takes its slot (and its byte reading); a caller's lease ends
    /// (whether to wake the workers is returned, as from
    /// [`Queue::complete`]), while a worker dies with its thread and parks
    /// no more.
    pub fn abandon(&mut self, entry: &Entry, message: &str, runner: Runner) -> bool {
        if entry.cell.resolve_if_pending(Err(unserved(message))) {
            self.land(entry).failed += 1;
        }
        self.readings[runner.slot].0 = 0;
        let workspace = fresh_workspace(&self.config);
        if runner.here {
            return self.release(runner, workspace);
        }
        self.pool.push((runner.slot, workspace));
        false
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
    /// the slots' latest readings.
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
        stats
    }
}

/// An empty workspace for a pool slot, profiling per the config.
fn fresh_workspace(config: &RuntimeConfig) -> Workspace {
    let mut workspace = Workspace::new();
    workspace.enable_profiling(config.profile_ops);
    workspace
}

#[cfg(test)]
mod tests {
    //! Model-checked admission: generated op sequences drive the [`Queue`]
    //! under a virtual clock — no thread, no sleep — next to a small
    //! reference model that mirrors the lane table by observation,
    //! predicts every admission verdict from its own records (which
    //! blocking caller runs its own request included), and checks the
    //! scheduler's picks, leases, wake-ups and the workspace pool against
    //! the invariants the runtime promises.
    //!
    //! The lane order is restated, not mirrored: the model keeps each
    //! lane's requests in arrival order, keys each one itself (its arrival,
    //! plus for an untagged request its pixels times the model's own
    //! `busy / served pixels`), and expects every pop to take the chosen
    //! lane's least `(key, arrival)`. Forwards take virtual time — a
    //! dispatch is sealed when it is taken and returns when it completes —
    //! so the estimate turns positive and light requests pass heavy ones.

    use super::*;
    use crate::ShedPolicy;
    use scales_serve::{InferStats, Precision, SrResponse, TileSpec};
    use std::collections::{BTreeMap, HashMap};

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
            shed: ShedPolicy {
                queue_watermark: rng.chance(40).then(|| 1 + rng.below(queue_capacity)),
                p99_trip: rng.chance(40).then(|| Duration::from_millis(1) + rng.millis(20)),
                p99_recovery: Duration::from_millis(5) + rng.millis(40),
            },
            tenant_quota: rng.chance(50).then(|| 1 + rng.below(3)),
            max_tenant_lanes: tenant_weights.len().max(1) + rng.below(2),
            tenant_weights,
            profile_ops: false,
            ..RuntimeConfig::default()
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
        /// Input pixels, Σ h·w.
        pixels: u64,
        tile: Option<TilePolicy>,
        enqueued: Instant,
        /// The lane sort key the model expects: `enqueued`, plus the
        /// estimate for an untagged request.
        key: Instant,
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
        /// The lane's queued requests, in arrival order (ids ascend).
        waiting: Vec<usize>,
        in_flight: usize,
        counters: Counters,
    }

    #[derive(Debug, PartialEq)]
    enum Verdict {
        Accept,
        Full,
        Refuse(SubmitError),
    }

    /// A sealed dispatch a (virtual) worker, or a blocking caller on a
    /// lease, is running outside the queue, with the workspace it runs on.
    /// Its forward began when it was taken (`sealed`) and returns when it
    /// completes, so it takes whatever virtual time passes in between.
    struct Forward {
        entry: Entry,
        runner: Runner,
        workspace: Workspace,
        sealed: Instant,
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
        /// The serving half: dispatches completed (one entry each), the
        /// images they served, their forwards' time and the pixels of the
        /// served ones — the forward-rate estimate, restated.
        dispatches: u64,
        images: u64,
        busy: Duration,
        served_pixels: u64,
        high_water: usize,
        shutdown: bool,
        window: VecDeque<Duration>,
        p99: Option<(Duration, Instant)>,
        /// Virtual workers waiting for work; born parked.
        parked: usize,
        /// Parked workers whose slot a blocking caller holds.
        leased: usize,
        /// Requests their blocking callers ran.
        caller_runs: u64,
        /// Pops a backlogged, credit-holding lane has sat through.
        waited: HashMap<Option<String>, u32>,
        /// Pops per lane since the last fresh cycle.
        cycle_pops: HashMap<Option<String>, u32>,
    }

    fn addr(cell: &Arc<TicketCell>) -> usize {
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
            let parked = config.workers;
            Self {
                config,
                reqs: Vec::new(),
                ids: HashMap::new(),
                lanes,
                retired: Counters::default(),
                door_expired: 0,
                dispatches: 0,
                images: 0,
                busy: Duration::ZERO,
                served_pixels: 0,
                high_water: 0,
                shutdown: false,
                window: VecDeque::new(),
                p99: None,
                parked,
                leased: 0,
                caller_runs: 0,
                waited: HashMap::new(),
                cycle_pops: HashMap::new(),
            }
        }

        fn queued(&self) -> usize {
            self.lanes.iter().map(|l| l.waiting.len()).sum()
        }

        fn live(&self, lane: &ModelLane, now: Instant) -> usize {
            lane.waiting.iter().filter(|&&id| !self.reqs[id].dead(now)).count()
        }

        /// The order a lane must hold its requests in: least
        /// `(key, arrival)` first.
        fn order(&self, lane: &ModelLane) -> Vec<usize> {
            let mut order = lane.waiting.clone();
            order.sort_by_key(|&id| (self.reqs[id].key, id));
            order
        }

        /// The request a pop of `lane` must take.
        fn head(&self, lane: &ModelLane) -> Option<usize> {
            self.order(lane).first().copied()
        }

        /// The forward time of `pixels` input pixels, restated: the busy
        /// time of every forward booked so far, per pixel served, in whole
        /// nanoseconds; zero before anything was served.
        fn estimate(&self, pixels: u64) -> Duration {
            if self.served_pixels == 0 {
                return Duration::ZERO;
            }
            let ns = self.busy.as_nanos() * u128::from(pixels) / u128::from(self.served_pixels);
            Duration::from_nanos(ns.try_into().unwrap())
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
                    && l.waiting.is_empty()
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
                lane.waiting.retain(|&queued| queued != id);
                lane.counters.expired += 1;
                retracted += 1;
            }
            retracted
        }

        /// A worker took `entry`: it must be the live head of its lane,
        /// the lane's least `(key, arrival)`.
        fn take(&mut self, entry: &Entry, now: Instant) -> usize {
            let id = self.ids[&addr(&entry.cell)];
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
            let lane = self.lanes.iter().find(|l| l.name == self.reqs[id].lane);
            let head = self.head(lane.expect("the lane is pinned"));
            assert_eq!(head, Some(id), "each pop takes its lane's least (key, arrival)");
            let lane = self.lane_of(id);
            lane.waiting.retain(|&queued| queued != id);
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
    }

    /// Everything that must hold between any two steps.
    fn check(q: &Queue, m: &Model, open: &[Forward], now: Instant) {
        // The lane table: same lanes in the same order, each holding its
        // requests in the model's (key, arrival) order.
        assert_eq!(q.lanes.len(), m.lanes.len());
        assert!(q.lanes[0].tenant.is_none(), "lane 0 is the anonymous lane");
        assert!(q.lanes.len() - 1 <= m.config.max_tenant_lanes, "the lane table outgrew its cap");
        assert_eq!(q.retired, m.retired);
        for (lane, want) in q.lanes.iter().zip(&m.lanes) {
            assert_eq!(lane.tenant.as_deref(), want.name.as_deref());
            assert_eq!(lane.weight, want.weight);
            assert!(lane.credits <= lane.weight, "a lane holds more credits than its weight");
            assert_eq!(lane.in_flight, want.in_flight);
            let queued: Vec<usize> = lane.entries.iter().map(|e| m.ids[&addr(&e.cell)]).collect();
            assert_eq!(queued, m.order(want), "lane {:?} in (key, arrival) order", want.name);
            assert_eq!(lane.counters, want.counters, "lane {:?}", want.name);
        }
        assert_eq!(q.queued, m.queued());
        assert_eq!(q.high_water, m.high_water);
        assert_eq!((q.parked, q.leased), (m.parked, m.leased));
        // Never more forwards than workers: a lease is a parked worker's
        // slot, and the busy workers are the ones not parked.
        let here = open.iter().filter(|b| b.runner.here).count();
        let busy = open.len() - here;
        assert_eq!(here, q.leased, "one lease per caller-run request");
        assert!(q.leased <= q.parked, "leased {} of {} parked", q.leased, q.parked);
        assert!(busy + q.parked <= m.config.workers, "a busy worker is not parked");
        assert!(busy + q.leased <= m.config.workers, "more forwards than workers");
        // The workspace pool: every slot once, free or with its runner.
        let mut slots: Vec<usize> = q.pool.iter().map(|(slot, _)| *slot).collect();
        slots.extend(open.iter().map(|b| b.runner.slot));
        slots.sort_unstable();
        assert_eq!(slots, (0..m.config.workers).collect::<Vec<_>>(), "each slot once");
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
        // The serving half is booked by the same call, once per dispatch,
        // and so is the forward rate the lane keys are estimated from.
        assert_eq!((stats.dispatches, stats.images), (m.dispatches, m.images));
        assert_eq!((stats.busy, q.served_pixels), (m.busy, m.served_pixels));
        assert_eq!(stats.caller_runs, m.caller_runs);
        assert_eq!(stats.batch_fill, if m.dispatches == 0 { 0.0 } else { 1.0 });
        for hist in [&stats.latency, &stats.queue_wait, &stats.batch_wait, &stats.infer] {
            assert_eq!(hist.count(), m.dispatches, "one sample per dispatch");
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

    /// Submit a generated request; a blocking caller that is handed it
    /// comes back holding it, leased, to run.
    fn submit(
        q: &mut Queue,
        m: &mut Model,
        rng: &mut Rng,
        now: Instant,
        seen: &mut Seen,
    ) -> Option<Forward> {
        let tenant = TENANTS[rng.below(TENANTS.len())];
        let deadline = match rng.below(10) {
            0 => Some(now),
            1..=4 => Some(now + Duration::from_millis(1) + rng.millis(40)),
            _ => None,
        };
        // Light and heavy requests: 1 to 3 images of 1 to 8 pixels a side.
        let shapes: Vec<(usize, usize)> =
            (0..1 + rng.below(3)).map(|_| (1 + rng.below(8), 1 + rng.below(8))).collect();
        let images = shapes.len();
        let pixels = shapes.iter().map(|&(h, w)| (h * w) as u64).sum();
        let tile = rng.chance(25).then_some(TilePolicy::Fixed(TileSpec { tile: 16, overlap: 2 }));
        let (want, placement) = m.expect(tenant, deadline, now);
        let request = Admitted {
            images: shapes.iter().map(|&(h, w)| Image::zeros(h, w)).collect(),
            tile,
            tenant: tenant.map(String::from),
            deadline,
        };
        // A blocking caller's own bound: none, already passed, or ahead.
        let caller = if rng.chance(30) {
            let until = match rng.below(5) {
                0 => None,
                1 => Some(now),
                _ => Some(now + Duration::from_micros(1) + rng.millis(20)),
            };
            Caller::Blocking { until }
        } else {
            Caller::Ticket
        };
        let rotation = q.lanes[q.cursor].tenant.clone();
        let (got, freed) = q.submit(request, now, caller);
        assert_eq!(freed, m.observe_retractions(now), "freed slots are retracted entries");
        if let Some(i) = q.lane_index(rotation.as_deref()) {
            assert_eq!(q.cursor, i, "retiring a lane must not move the rotation");
        }
        // Whether an accepted request runs on its caller's thread,
        // restated: a blocking caller within its bound, lanes that hold
        // nothing, and a parked worker whose slot is free.
        let here = match caller {
            Caller::Ticket => false,
            Caller::Blocking { until } => {
                let (empty, free) = (m.queued() == 0, m.parked > m.leased);
                let within = until.is_none_or(|u| now < u);
                if want == Verdict::Accept {
                    seen.saw(match (empty, free, within) {
                        (true, true, true) => "ran here",
                        (false, _, _) => "not here: lanes held work",
                        (true, false, _) => "not here: every idle slot leased",
                        (true, true, false) => "not here: past its bound",
                    });
                }
                empty && free && within
            }
        };
        let (ticket, lease) = match (got, want) {
            (Admission::Accepted(ticket), Verdict::Accept) if !here => (ticket, None),
            (Admission::RunHere(ticket, lease), Verdict::Accept) if here => (ticket, Some(lease)),
            (Admission::Full(back), Verdict::Full) => {
                assert_eq!(back.images.len(), images, "a full queue hands the request back whole");
                // The non-blocking path: give up at once.
                q.refuse_for_space(back.tenant.as_deref());
                m.charge(tenant).rejected += 1;
                seen.saw("queue full");
                return None;
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
                return None;
            }
            (got, want) => {
                let got = match got {
                    Admission::Accepted(_) => "accepted".to_string(),
                    Admission::RunHere(..) => "run here".to_string(),
                    Admission::Full(_) => "full".to_string(),
                    Admission::Refused(refusal) => refusal.to_string(),
                };
                panic!("admission said {got:?}, the model {want:?} (here: {here})");
            }
        };
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
        m.ids.insert(addr(&ticket.cell), id);
        let key = if deadline.is_some() { now } else { now + m.estimate(pixels) };
        m.reqs.push(Req {
            lane: m.lanes[lane].name.clone(),
            deadline,
            images,
            pixels,
            tile,
            enqueued: now,
            key,
            ticket: Some(ticket),
            state: if here { State::InFlight } else { State::Queued },
        });
        m.lanes[lane].counters.submitted += 1;
        let Some(Lease { entry, runner, workspace }) = lease.map(|lease| *lease) else {
            if m.lanes[lane].waiting.iter().any(|&queued| m.reqs[queued].key > key) {
                seen.saw("queued ahead of an earlier arrival");
            }
            m.lanes[lane].waiting.push(id);
            m.high_water = m.high_water.max(m.queued());
            return None;
        };
        // Taken at once: never queued, so no queue wait.
        assert!(runner.here);
        assert_eq!(m.ids[&addr(&entry.cell)], id);
        assert_eq!(
            (entry.tenant.as_deref(), entry.images.len(), entry.tile, entry.deadline),
            (m.lanes[lane].name.as_deref(), images, tile, deadline)
        );
        assert_eq!((entry.enqueued, entry.dequeued), (now, Some(now)));
        m.lanes[lane].in_flight += 1;
        m.leased += 1;
        m.caller_runs += 1;
        Some(Forward { entry, runner, workspace, sealed: now })
    }

    /// Pop an entry and check the pick: its lane's least `(key, arrival)`,
    /// never expired, EDF among the credit-holding lanes' heads, credits
    /// spent and granted by the rules.
    fn pop(q: &mut Queue, m: &mut Model, now: Instant, seen: &mut Seen) -> Option<Entry> {
        let before: Vec<u32> = q.lanes.iter().map(|l| l.credits).collect();
        let cursor = q.cursor;
        let (popped, freed) = q.pop(now);
        let retracted = m.observe_retractions(now);
        for lane in &m.lanes {
            let live = m.head(lane).is_none_or(|id| !m.reqs[id].dead(now));
            assert!(live, "a dead lane head survived");
        }
        let Some(entry) = popped else {
            assert_eq!(m.queued(), 0, "pop may only come back empty from an empty queue");
            assert_eq!(freed, retracted);
            return None;
        };
        assert_eq!(freed, retracted + 1);
        let n = q.lanes.len();
        let i = q.lane_index(entry.tenant.as_deref()).expect("taken entries pin their lane");
        let backlogged: Vec<bool> = m.lanes.iter().map(|l| !l.waiting.is_empty()).collect();
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
        let head_deadline = |j: usize| m.head(&m.lanes[j]).and_then(|id| m.reqs[id].deadline);
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
        let id = m.take(&entry, now);
        if m.lanes[i].waiting.iter().any(|&queued| queued < id) {
            seen.saw("served ahead of an earlier arrival");
        }
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

    /// A worker's dispatch, the way `next_dispatch` runs it under one lock
    /// hold at one `now`: pop an entry and seal it on a workspace from the
    /// pool. With nothing to pop the worker parks, or, shutting down,
    /// exits.
    fn dispatch(q: &mut Queue, m: &mut Model, now: Instant, seen: &mut Seen) -> Option<Forward> {
        let Some(entry) = pop(q, m, now, seen) else {
            if !m.shutdown {
                q.park();
                m.parked += 1;
                seen.saw("parked on an empty queue");
            }
            return None;
        };
        // Any worker may seal: vary which one by the dispatch count.
        let home = (m.dispatches as usize + entry.images.len()) % m.config.workers;
        let free = q.pool.iter().any(|&(slot, _)| slot == home);
        let (runner, workspace, more) = q.seal(home);
        assert_eq!(more, m.queued() > 0, "work left queued behind the dispatch");
        seen.saw(if more { "sealed with work left queued" } else { "sealed the last entry" });
        assert!(!runner.here, "a worker's dispatch holds no lease");
        assert!(runner.slot == home || !free, "a worker takes its own slot when it is free");
        Some(Forward { entry, runner, workspace, sealed: now })
    }

    /// A runner goes idle at the end of its dispatch: a worker parks, a
    /// caller's lease ends. Returns whether the workers are woken, by the
    /// rule: a lease ended with work queued that no parked worker could
    /// take meanwhile.
    fn idle_after(m: &mut Model, runner: Runner, seen: &mut Seen) -> bool {
        if !runner.here {
            m.parked += 1;
            return false;
        }
        m.leased -= 1;
        let wake = m.queued() > 0;
        if wake {
            seen.saw("a lease ended and woke the workers");
        }
        wake
    }

    /// Book a sealed dispatch, then resolve it, the way `serve_dispatch`
    /// does.
    fn complete(
        q: &mut Queue,
        m: &mut Model,
        forward: Forward,
        served: bool,
        now: Instant,
        seen: &mut Seen,
    ) {
        let Forward { entry, runner, workspace, sealed } = forward;
        let images = entry.images.len();
        let dispatch = Dispatch {
            runner,
            workspace,
            served,
            images,
            sealed,
            infer_done: now,
            workspace_bytes: 0,
            op_profile: OpProfile::default(),
        };
        let wake = q.complete(&entry, dispatch, now);
        assert_eq!(wake, idle_after(m, runner, seen), "the wake-up after a dispatch");
        m.dispatches += 1;
        m.busy += now - sealed;
        let id = m.ids[&addr(&entry.cell)];
        if served {
            m.images += images as u64;
            m.served_pixels += m.reqs[id].pixels;
        }
        entry.cell.resolve(if served {
            Ok(SrResponse::from_parts(
                Vec::new(),
                InferStats {
                    images,
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
            // Nearest-rank p99, restated: the smallest sample that at
            // least 99 % of the window does not exceed.
            let p99 = m.window.iter().copied().filter(|&v| {
                m.window.iter().filter(|&&sample| sample <= v).count() * 100 >= m.window.len() * 99
            });
            m.p99 = Some((p99.min().expect("the window is not empty"), now));
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

    /// A parked worker wakes: it goes only for work (or the shutdown
    /// drain), and only while a parked worker's slot is free.
    fn unpark(q: &mut Queue, m: &mut Model, seen: &mut Seen) -> bool {
        let work = m.queued() > 0 || m.shutdown;
        let go = work && m.parked > m.leased;
        assert_eq!(q.unpark(), go, "unpark with {} parked, {} leased", m.parked, m.leased);
        if go {
            m.parked -= 1;
        } else if work {
            seen.saw("unpark refused: every parked slot leased");
        }
        go
    }

    fn run(seed: u64, seen: &mut Seen) {
        let mut rng = Rng(seed);
        let config = config(&mut rng);
        let (mut q, mut m) = (Queue::new(config.clone()), Model::new(config));
        let mut now = Instant::now();
        let mut open: Vec<Forward> = Vec::new();
        check(&q, &m, &open, now);
        for _ in 0..(20 + rng.below(60)) {
            match rng.below(100) {
                0..=41 => open.extend(submit(&mut q, &mut m, &mut rng, now, seen)),
                // A parked worker wakes, and takes work when it may go.
                42..=59 if m.parked > 0 => {
                    if unpark(&mut q, &mut m, seen) {
                        open.extend(dispatch(&mut q, &mut m, now, seen));
                    }
                }
                60..=71 if !open.is_empty() => {
                    let forward = open.swap_remove(rng.below(open.len()));
                    if forward.runner.here {
                        seen.saw("a caller ran its request");
                    }
                    complete(&mut q, &mut m, forward, rng.chance(80), now, seen);
                }
                72 if !open.is_empty() => {
                    // The forward panicked: a worker dies with it, a
                    // caller carries on.
                    let Forward { entry, runner, .. } = open.swap_remove(rng.below(open.len()));
                    let wake = q.abandon(&entry, "the forward panicked", runner);
                    let want = runner.here && idle_after(&mut m, runner, seen);
                    assert_eq!(wake, want, "the wake-up after a panicked forward");
                    m.land(m.ids[&addr(&entry.cell)], State::Failed).failed += 1;
                    seen.saw(match runner.here {
                        true => "a caller's forward panicked",
                        false => "abandoned a dispatch",
                    });
                }
                73 if rng.chance(50) => {
                    q.begin_shutdown();
                    m.shutdown = true;
                }
                // Time passes: sometimes sub-millisecond, sometimes past
                // a deadline or the p99 recovery window.
                _ if rng.chance(50) => now += Duration::from_micros(rng.below(2_000) as u64),
                _ => now += rng.millis(12),
            }
            assert_eq!(q.shutting_down(), m.shutdown);
            check(&q, &m, &open, now);
        }
        // Wind down. Most runs drain like a graceful shutdown; some lose
        // every worker with the lanes still loaded.
        q.begin_shutdown();
        m.shutdown = true;
        let drain = rng.chance(75);
        while let Some(forward) = open.pop() {
            complete(&mut q, &mut m, forward, true, now, seen);
            check(&q, &m, &open, now);
        }
        // Each parked worker serves until the lanes are empty, then exits.
        while drain && m.parked > 0 {
            assert!(unpark(&mut q, &mut m, seen), "the shutdown drain wakes a parked worker");
            if let Some(forward) = dispatch(&mut q, &mut m, now, seen) {
                complete(&mut q, &mut m, forward, true, now, seen);
            }
            check(&q, &m, &open, now);
            now += rng.millis(6);
        }
        let stranded = m.queued();
        assert_eq!(q.fail_queued("no workers left"), stranded);
        if stranded > 0 {
            seen.saw("failed a loaded queue");
        }
        for lane in &mut m.lanes {
            for id in lane.waiting.drain(..) {
                m.reqs[id].state = State::Failed;
                lane.counters.failed += 1;
            }
        }
        check(&q, &m, &open, now);
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

    // Hand mutants of the lane order (`Lane::insert`, the key in
    // `submit`, the rate booked by `complete`), the idle count (`unpark`)
    // and the caller-run path (`submit`'s `RunHere`, the lease in
    // `unpark`, `release`), each killed by this check; the count is how
    // many of the 2,400 seeds fail (run each seed under `catch_unwind` to
    // re-count):
    //
    // | mutant                                                          | kills |
    // |-----------------------------------------------------------------|-------|
    // | the key ignores pixels (FIFO)                                   |   366 |
    // | tagged entries are keyed by size                                |   314 |
    // | ties are broken newest-first                                    |   872 |
    // | the per-pixel estimate is never updated                         |  2278 |
    // | `unpark` leaves the idle count alone                            |  2394 |
    // | `RunHere` with a queued entry                                   |   921 |
    // | a lease ignored by `unpark` (`parked > 0`)                      |   338 |
    // | a release that wakes nobody                                     |   671 |
    // | `RunHere` past the caller's timeout                             |   288 |
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
            "queued ahead of an earlier arrival",
            "served ahead of an earlier arrival",
            "sealed with work left queued",
            "sealed the last entry",
            "parked on an empty queue",
            "abandoned a dispatch",
            "failed a loaded queue",
            "ran here",
            "not here: lanes held work",
            "not here: every idle slot leased",
            "not here: past its bound",
            "a caller ran its request",
            "a caller's forward panicked",
            "a lease ended and woke the workers",
            "unpark refused: every parked slot leased",
        ] {
            assert!(seen.0.get(corner).is_some_and(|&n| n >= 20), "{corner}: {:?}", seen.0);
        }
    }
}
