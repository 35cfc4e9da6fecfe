//! [`Runtime`] — the worker pool around the [`Queue`]: the one lock and
//! its two condition variables, the blocking submit paths, the worker
//! loop, the dispatch itself (on a worker, or on a blocking caller's own
//! thread), and the panic guards. Every admission and scheduling
//! decision, and the serving record, is the queue's (`queue.rs`); this
//! file takes the timestamps, holds the lock, waits, and wakes.

use crate::metrics::RuntimeStats;
use crate::queue::{Admission, Admitted, Caller, Dispatch, Entry, Lease, Queue, Runner};
use crate::ticket::Ticket;
use crate::{lock, wait, wait_timeout, RuntimeConfig};
use scales_data::Image;
use scales_serve::{Engine, InferStats, SrRequest, SrResponse, Workspace};
use scales_tensor::{Result, TensorError};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a submission was not accepted. Backpressure is part of the API
/// contract: callers see a typed error the moment the runtime cannot take
/// more work, never silent queueing without bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue already holds `capacity` requests. Retry later,
    /// or use [`Runtime::submit_wait`] to block for space.
    QueueFull {
        /// The configured queue bound
        /// ([`RuntimeConfig::queue_capacity`]).
        capacity: usize,
    },
    /// [`Runtime::shutdown`] has begun (or the runtime is being dropped):
    /// queued work drains, new work is refused.
    ShuttingDown,
    /// The request can never be served (empty, or an invalid per-request
    /// tile override) — rejected at submission rather than poisoning a
    /// coalesced dispatch later.
    InvalidRequest(String),
    /// [`Runtime::submit_wait_timeout`] ran out its deadline — either
    /// blocked on a full queue or waiting for the response. A timed-out
    /// request that was already accepted is still served eventually; its
    /// response is discarded at resolution.
    Timeout {
        /// The deadline the caller gave.
        timeout: std::time::Duration,
    },
    /// The request's tenant lane is at its configured queue quota
    /// ([`RuntimeConfig::tenant_quota`]). Other tenants may still have
    /// room; this one must retry later.
    TenantQuota {
        /// The tenant at its quota (`"default"` for untagged requests).
        tenant: String,
        /// The configured per-lane bound.
        quota: usize,
    },
    /// The request's deadline passed before it could be dispatched —
    /// refused at the door, or retracted from the queue by a worker.
    /// Expired requests are **never** dispatched.
    Expired,
    /// The configured [`ShedPolicy`](crate::ShedPolicy) tripped: the
    /// runtime is refusing work early to protect latency. Fail-fast even
    /// on the blocking submit paths.
    Shedding {
        /// Which trip wire fired.
        reason: &'static str,
    },
}

/// The admission-control verdict behind a refusal, for callers (like the
/// HTTP front end) that map families of [`SubmitError`]s to transport
/// statuses: retryable-by-this-caller ([`RejectReason::QueueFull`],
/// [`RejectReason::TenantQuota`] → `429`) versus server-side overload or
/// lateness ([`RejectReason::Shedding`] → `503`,
/// [`RejectReason::Expired`] → `504`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The shared queue is at capacity.
    QueueFull,
    /// The tenant's own lane is at its quota.
    TenantQuota,
    /// The request's deadline passed before dispatch.
    Expired,
    /// The shed policy is refusing work early.
    Shedding,
}

impl SubmitError {
    /// The admission verdict, when this error is one —
    /// `None` for [`ShuttingDown`](SubmitError::ShuttingDown),
    /// [`InvalidRequest`](SubmitError::InvalidRequest), and
    /// [`Timeout`](SubmitError::Timeout).
    #[must_use]
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            SubmitError::QueueFull { .. } => Some(RejectReason::QueueFull),
            SubmitError::TenantQuota { .. } => Some(RejectReason::TenantQuota),
            SubmitError::Expired => Some(RejectReason::Expired),
            SubmitError::Shedding { .. } => Some(RejectReason::Shedding),
            SubmitError::ShuttingDown
            | SubmitError::InvalidRequest(_)
            | SubmitError::Timeout { .. } => None,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "runtime queue is full ({capacity} requests queued)")
            }
            SubmitError::ShuttingDown => f.write_str("runtime is shutting down"),
            SubmitError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            SubmitError::Timeout { timeout } => {
                write!(f, "request was not served within {timeout:?}")
            }
            SubmitError::TenantQuota { tenant, quota } => {
                write!(f, "tenant {tenant:?} is at its queue quota ({quota} requests)")
            }
            SubmitError::Expired => {
                f.write_str("request deadline expired before it could be dispatched")
            }
            SubmitError::Shedding { reason } => {
                write!(f, "runtime is shedding load ({reason})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// How an *accepted* request finished: served, retracted before dispatch,
/// or failed in flight. This is what [`Ticket::wait`] returns on the
/// error side — the typed outcome contract that "every accepted ticket
/// resolves" promises.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The runtime retracted the request before dispatching it — today
    /// always [`SubmitError::Expired`] (the deadline passed while
    /// queued). Expired work is resolved immediately, never served late.
    Rejected(SubmitError),
    /// The dispatch ran and failed — the same error a serial
    /// `Session::infer` of this request would have produced (or the
    /// runtime lost its workers before serving it).
    Infer(TensorError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "request retracted before dispatch: {e}"),
            ServeError::Infer(e) => write!(f, "inference failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rejected(e) => Some(e),
            ServeError::Infer(e) => Some(e),
        }
    }
}

/// State shared between the handle and the workers.
struct Inner {
    engine: Engine<'static>,
    config: RuntimeConfig,
    /// The whole admission and scheduling state, p99 window and serving
    /// record included, behind the runtime's one lock.
    state: Mutex<Queue>,
    /// Signaled on enqueue, on shutdown, when a batch leaves work queued
    /// behind it, and when a lease ends with work queued: parked workers
    /// wait here.
    work: Condvar,
    /// Signaled on dequeue and on shutdown: [`Runtime::submit_wait`]
    /// blockers wait here.
    space: Condvar,
    /// Workers still running. When the last one dies *panicking* (a bug
    /// in a forward), its exit guard flips the pool to shutting-down and
    /// fails the queued tickets — a pool with no workers must refuse
    /// intake, not accept tickets nobody will ever resolve.
    alive: AtomicUsize,
    started: Instant,
}

/// Wake the submitters blocked for space when a queue step freed slots.
fn wake_space(inner: &Inner, freed: usize) {
    if freed > 0 {
        inner.space.notify_all();
    }
}

/// A running worker pool over one shared [`Engine`].
///
/// See the [crate docs](crate) for the lifecycle. The engine must be
/// `'static` (own its model) because workers are real threads; the
/// `&Engine: Send` bound this relies on is a compile-time contract of the
/// serving stack (see `engine_is_shareable_and_sessions_are_movable` in
/// `scales-serve`).
///
/// Dropping the runtime performs the same graceful drain-and-join as
/// [`Runtime::shutdown`], discarding the final stats.
pub struct Runtime {
    inner: Arc<Inner>,
    /// Drained by `shutdown`/`Drop`; empty means workers are already
    /// joined.
    handles: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Start `config.workers` worker threads over `engine`.
    ///
    /// The pool holds `workers` planned-executor workspaces (arenas and
    /// per-shape plan cache); every forward — a worker's, or a blocking
    /// caller's ([`Runtime::submit_wait_timeout`]) — borrows one through a
    /// [`Session`](scales_serve::Session) over it and runs under the
    /// engine's backend handle
    /// ([`with_thread_backend`](scales_tensor::backend::with_thread_backend)),
    /// so a running pool neither reads nor writes the process-global
    /// backend selection.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid [`RuntimeConfig`] or when the OS
    /// refuses to spawn a worker thread.
    pub fn spawn(engine: Engine<'static>, config: RuntimeConfig) -> Result<Self> {
        config.validate()?;
        let workers = config.workers;
        let inner = Arc::new(Inner {
            engine,
            state: Mutex::new(Queue::new(config.clone())),
            config,
            work: Condvar::new(),
            space: Condvar::new(),
            alive: AtomicUsize::new(workers),
            started: Instant::now(),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("scales-runtime-{w}"))
                .spawn(move || worker_loop(&worker_inner, w));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Roll back the partial pool before reporting.
                    let partial = Runtime { inner, handles };
                    drop(partial);
                    return Err(TensorError::InvalidArgument(format!(
                        "failed to spawn runtime worker {w}: {e}"
                    )));
                }
            }
        }
        Ok(Self { inner, handles })
    }

    /// The engine the pool serves through.
    #[must_use]
    pub fn engine(&self) -> &Engine<'static> {
        &self.inner.engine
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// Enqueue a request without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::TenantQuota`] when the request's tenant lane is at
    /// its quota, [`SubmitError::Shedding`] while the shed policy is
    /// tripped, [`SubmitError::Expired`] for a deadline already passed,
    /// [`SubmitError::ShuttingDown`] after [`Runtime::shutdown`] begins,
    /// and [`SubmitError::InvalidRequest`] for a request that could never
    /// be served.
    pub fn submit(&self, request: SrRequest) -> std::result::Result<Ticket, SubmitError> {
        self.ticket(request, Block::Never)
    }

    /// Enqueue a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Everything [`Runtime::submit`] can return except
    /// [`SubmitError::QueueFull`] — a full queue blocks instead. The
    /// admission checks stay fail-fast while blocked: shedding, a tenant
    /// quota, a passed deadline, or shutdown refuse immediately rather
    /// than waiting out the overload.
    pub fn submit_wait(&self, request: SrRequest) -> std::result::Result<Ticket, SubmitError> {
        self.ticket(request, Block::UntilSpace)
    }

    /// The two ticket-returning paths: a caller that takes its ticket and
    /// goes never runs a request itself.
    fn ticket(&self, request: SrRequest, block: Block) -> std::result::Result<Ticket, SubmitError> {
        match self.admit_and_enqueue(request, block)? {
            Accepted::Queued(ticket) => Ok(ticket),
            Accepted::Here(..) => unreachable!("only a blocking caller runs its own request"),
        }
    }

    /// Submit and wait for the response, bounding the **whole** round
    /// trip — time blocked on a full queue plus time waiting for the
    /// ticket — by `timeout` (a `timeout` too long to represent as an
    /// `Instant`, such as `Duration::MAX`, is no bound). This is the
    /// deadline-serving entry point network front ends use (`scales-http`
    /// maps each refusal family to its own status and `Retry-After`).
    ///
    /// The caller has nothing else to do, so a lone request runs on its
    /// own thread: when the lanes are empty and a worker is idle, the
    /// caller leases that worker's slot and serves the request itself —
    /// the same dispatch, fault hook and booking a worker would run, with
    /// no worker woken and no ticket crossing threads
    /// ([`RuntimeStats::caller_runs`] counts them). Otherwise the request
    /// is queued like any other, and the caller sleeps on its ticket.
    ///
    /// The nested result separates the layers: the outer
    /// [`SubmitError`] is the runtime refusing, retracting, or timing out
    /// the request (including [`SubmitError::Expired`] when a
    /// [deadline-tagged](scales_serve::SrRequest::deadline_at) request
    /// expires while queued), the inner [`Result`] is the serving outcome
    /// exactly as a serial `Session::infer` would report it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Timeout`] when the deadline passes (whether still
    /// queued for space or already in flight — an in-flight request is
    /// still served eventually and its response discarded), plus
    /// everything [`Runtime::submit_wait`] can return. A request the
    /// caller runs itself is answered when its forward ends: past the
    /// deadline, that is the same `Timeout`, booked as discarded work.
    pub fn submit_wait_timeout(
        &self,
        request: SrRequest,
        timeout: Duration,
    ) -> std::result::Result<Result<SrResponse>, SubmitError> {
        let deadline = Instant::now().checked_add(timeout);
        let served = match self.admit_and_enqueue(request, Block::Until { deadline, timeout })? {
            Accepted::Queued(ticket) => {
                let remaining = deadline
                    .map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
                ticket.wait_timeout(remaining)
            }
            Accepted::Here(ticket, lease) => {
                run_here(&self.inner, lease, deadline);
                if ticket.cell.is_abandoned() {
                    Err(ticket)
                } else {
                    Ok(ticket.wait())
                }
            }
        };
        match served {
            Ok(Ok(response)) => Ok(Ok(response)),
            Ok(Err(ServeError::Infer(e))) => Ok(Err(e)),
            Ok(Err(ServeError::Rejected(e))) => Err(e),
            Err(still_pending) => {
                // A queued request is still served eventually; mark the
                // cell so its resolution is counted as discarded work
                // (`RuntimeStats::late_discarded`). A caller-run one was
                // marked before it was booked.
                still_pending.cell.abandon();
                Err(SubmitError::Timeout { timeout })
            }
        }
    }

    /// The one admission loop behind every submit path: validate, then
    /// under the queue lock let the [`Queue`] decide. A queue that stays
    /// full is where the paths differ — `block` says how long to wait for
    /// a worker to free a slot, with every fail-fast check run again on
    /// each wake-up; a caller that stops waiting is counted as `rejected`.
    /// Only the caller that blocks on its outcome (`Block::Until`) may be
    /// handed its request to run itself.
    fn admit_and_enqueue(
        &self,
        request: SrRequest,
        block: Block,
    ) -> std::result::Result<Accepted, SubmitError> {
        let mut parts = validate(request)?;
        let caller = match block {
            Block::Until { deadline, .. } => Caller::Blocking { until: deadline },
            Block::Never | Block::UntilSpace => Caller::Ticket,
        };
        let inner = &*self.inner;
        let mut st = lock(&inner.state);
        loop {
            let now = Instant::now();
            let (admission, freed) = st.submit(parts, now, caller);
            wake_space(inner, freed);
            parts = match admission {
                Admission::Accepted(ticket) => {
                    inner.work.notify_one();
                    return Ok(Accepted::Queued(ticket));
                }
                Admission::RunHere(ticket, lease) => return Ok(Accepted::Here(ticket, lease)),
                Admission::Refused(refusal) => return Err(refusal),
                Admission::Full(parts) => parts,
            };
            let refusal = match block {
                Block::Never => SubmitError::QueueFull { capacity: inner.config.queue_capacity },
                Block::UntilSpace | Block::Until { deadline: None, .. } => {
                    st = wait(&inner.space, st);
                    continue;
                }
                Block::Until { deadline: Some(deadline), timeout } => {
                    if now < deadline {
                        st = wait_timeout(&inner.space, st, deadline - now);
                        continue;
                    }
                    SubmitError::Timeout { timeout }
                }
            };
            st.refuse_for_space(parts.tenant.as_deref());
            return Err(refusal);
        }
    }

    /// A live snapshot of the serving record. A request whose ticket has
    /// resolved is already counted in it, globally and in its lane.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        snapshot(&self.inner)
    }

    /// Graceful shutdown: refuse new submissions, serve everything already
    /// queued, join the workers, and return the final stats. Every
    /// accepted ticket is resolved before this returns.
    #[must_use = "the final stats are the runtime's lifetime report; drop the runtime instead if you don't want them"]
    pub fn shutdown(mut self) -> RuntimeStats {
        self.drain_and_join();
        snapshot(&self.inner)
    }

    fn begin_shutdown(&self) {
        lock(&self.inner.state).begin_shutdown();
        self.inner.work.notify_all();
        self.inner.space.notify_all();
    }

    /// Stop intake, let the workers drain the lanes, and join them — a
    /// no-op once the pool is joined. The drain normally empties the lanes
    /// before the workers exit; entries can only remain if every worker
    /// died panicking, and even then no accepted ticket may be left
    /// blocking forever.
    fn drain_and_join(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        lock(&self.inner.state)
            .fail_queued("runtime shut down before this request could be served");
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// How long a submit path may block on a full queue.
#[derive(Clone, Copy)]
enum Block {
    /// Not at all: a full queue is [`SubmitError::QueueFull`].
    Never,
    /// Until a worker frees a slot.
    UntilSpace,
    /// Until `deadline` (`None`: no bound), then [`SubmitError::Timeout`]
    /// carrying the caller's `timeout`.
    Until { deadline: Option<Instant>, timeout: Duration },
}

/// What an accepted submission leaves its caller with.
enum Accepted {
    /// A ticket for a queued request.
    Queued(Ticket),
    /// A request the blocking caller runs itself, on the slot it leased.
    Here(Ticket, Box<Lease>),
}

/// Reject requests that could never be served, so they cannot poison a
/// coalesced dispatch later: a degenerate payload must fail only its own
/// caller — with a typed error at submission — never the innocent
/// requests batched alongside it.
fn validate(request: SrRequest) -> std::result::Result<Admitted, SubmitError> {
    let tenant = request.tenant_tag().map(str::to_owned);
    if let Some(name) = &tenant {
        if !scales_telemetry::is_wire_safe_name(name) {
            return Err(SubmitError::InvalidRequest(format!(
                "tenant name {name:?} is invalid: 1-64 characters of [A-Za-z0-9._-]"
            )));
        }
    }
    let deadline = request.deadline();
    let (images, tile) = request.into_parts();
    if images.is_empty() {
        return Err(SubmitError::InvalidRequest(
            "inference request needs at least one image".into(),
        ));
    }
    for (i, img) in images.iter().enumerate() {
        if img.height() == 0 || img.width() == 0 {
            return Err(SubmitError::InvalidRequest(format!(
                "image {i} is zero-sized ({}x{})",
                img.height(),
                img.width()
            )));
        }
        // Every SR head in the zoo is a 3->C conv (and `Image` only
        // permits 1 or 3 channels), so non-RGB input is a guaranteed
        // forward error today. If a grayscale-serving model ever lands,
        // the expected channel count should move onto the engine/model
        // surface and be consulted here instead of this literal.
        if img.channels() != 3 {
            return Err(SubmitError::InvalidRequest(format!(
                "image {i} has {} channel(s); the SR networks serve RGB (3)",
                img.channels()
            )));
        }
    }
    if let Some(policy) = tile {
        policy.validate().map_err(|e| SubmitError::InvalidRequest(e.to_string()))?;
    }
    Ok(Admitted { images, tile, tenant, deadline })
}

fn worker_loop(inner: &Inner, worker: usize) {
    // On exit — normal (shutdown drain) or panic unwind — account for
    // this worker; the last one to die panicking closes the pool so
    // intake stops and nothing queued hangs forever.
    struct WorkerExit<'a> {
        inner: &'a Inner,
    }
    impl Drop for WorkerExit<'_> {
        fn drop(&mut self) {
            let was = self.inner.alive.fetch_sub(1, Ordering::SeqCst);
            if was == 1 && std::thread::panicking() {
                let mut st = lock(&self.inner.state);
                st.begin_shutdown();
                st.fail_queued("runtime has no live workers left (all panicked)");
                drop(st);
                self.inner.space.notify_all();
            }
        }
    }
    let _exit = WorkerExit { inner };
    while let Some((batch, runner, workspace)) = next_dispatch(inner, worker) {
        serve_dispatch(inner, batch, runner, workspace, None);
    }
}

/// Wait, parked, until [`Queue::unpark`] lets this worker go: there is
/// work (or the shutdown drain) and its slot is not leased to a caller.
fn unparked<'a>(inner: &'a Inner, mut st: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
    while !st.unpark() {
        st = wait(&inner.work, st);
    }
    st
}

/// The cross-request dynamic batcher. The worker comes in parked — born
/// so, and parked again by [`Queue::complete`] after each dispatch — and
/// waits for work; then, under one lock hold and at one `now`, it anchors
/// a batch on the scheduler's pick, gathers every compatible head queued
/// at that moment, and seals the batch on a workspace (its own slot's when
/// free). Returns `None` when the runtime is shutting down and the lanes
/// are fully drained.
fn next_dispatch(inner: &Inner, worker: usize) -> Option<(Vec<Entry>, Runner, Workspace)> {
    let mut st = unparked(inner, lock(&inner.state));
    let (first, now) = loop {
        let now = Instant::now();
        let (popped, freed) = st.pop(now);
        wake_space(inner, freed);
        if let Some(entry) = popped {
            break (entry, now);
        }
        if st.shutting_down() {
            return None;
        }
        // Nothing is queued (`pop` retracts what expired and hands out
        // anything live), so there is no deadline to wake for either.
        st.park();
        st = unparked(inner, st);
    };
    let mut batch = vec![first];
    loop {
        let (again, freed) = st.gather(&mut batch, now);
        wake_space(inner, freed);
        if !again {
            break;
        }
    }
    let (runner, workspace, more) = st.seal(worker);
    // This worker may have consumed a submit's `notify_one` for an entry
    // it is deliberately leaving queued. Re-signal so an idle worker picks
    // it up instead of waiting out this whole dispatch.
    if more {
        inner.work.notify_one();
    }
    Some((batch, runner, workspace))
}

/// Serve a request its blocking caller was handed
/// ([`Admission::RunHere`]) on the caller's own thread. A panic in the
/// forward stops here: [`ResolveOnPanic`] has already failed the ticket,
/// ended the lease and replaced the lost workspace by the time it is
/// caught, and the caller — an HTTP connection worker, say — goes on.
fn run_here(inner: &Inner, lease: Box<Lease>, give_up: Option<Instant>) {
    let Lease { entry, runner, workspace } = *lease;
    let serve = AssertUnwindSafe(|| serve_dispatch(inner, vec![entry], runner, workspace, give_up));
    // The panic already reached the panic hook, and its ticket names it.
    let _ = std::panic::catch_unwind(serve);
}

/// On unwind — a panic inside the forward path — resolve every
/// still-pending ticket of the dispatch with an error and account each
/// one as failed, and hand the slot a fresh workspace: no caller is left
/// blocked forever and `stats.failed` stays exact. A worker thread dies
/// (the rest of the pool keeps serving); a caller's lease ends.
struct ResolveOnPanic<'a> {
    inner: &'a Inner,
    entries: &'a [Entry],
    runner: Runner,
}

impl Drop for ResolveOnPanic<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let message = if self.runner.here {
            "the caller's forward panicked while serving this request"
        } else {
            "runtime worker panicked while serving this dispatch"
        };
        // The panic came out of the forward path, so this thread does not
        // hold the state lock here.
        if lock(&self.inner.state).abandon(self.entries, message, self.runner) {
            self.inner.work.notify_all();
        }
    }
}

/// The injectable failure hook on the dispatch path. Unarmed (and in
/// builds without the `faults` feature) this is free; armed, it can
/// stall the dispatch, kill it mid-dispatch, or substitute an inference
/// error — the raw material of the chaos suite.
#[cfg(feature = "faults")]
fn dispatch_fault() -> Option<TensorError> {
    match scales_faults::fire("runtime.dispatch")? {
        scales_faults::FaultAction::Delay(pause) => {
            std::thread::sleep(pause);
            None
        }
        scales_faults::FaultAction::Panic => panic!("injected fault: runtime.dispatch"),
        scales_faults::FaultAction::Error(message) => {
            Some(TensorError::InvalidArgument(format!("injected fault: {message}")))
        }
    }
}

#[cfg(not(feature = "faults"))]
fn dispatch_fault() -> Option<TensorError> {
    None
}

/// Serve one coalesced batch through a session over `workspace`, book it,
/// and hand every caller its own slice of the response. Workers and
/// blocking callers alike serve through here. `give_up` is a caller's own
/// bound: a forward that ends past it is booked as discarded work.
fn serve_dispatch(
    inner: &Inner,
    batch: Vec<Entry>,
    runner: Runner,
    workspace: Workspace,
    give_up: Option<Instant>,
) {
    let counts: Vec<usize> = batch.iter().map(|e| e.images.len()).collect();
    let total: usize = counts.iter().sum();
    let mut combined = Vec::with_capacity(total);
    let mut entries = batch;
    for entry in &mut entries {
        combined.append(&mut entry.images);
    }
    let _panic_guard = ResolveOnPanic { inner, entries: &entries, runner };
    let mut request = SrRequest::batch(combined);
    if let Some(policy) = entries[0].tile {
        request = request.tile_policy(policy);
    }
    let session = inner.engine.session_over(workspace);
    let sealed = Instant::now();
    let result = match dispatch_fault() {
        Some(injected) => Err(injected),
        None => session.infer(request),
    };
    let infer_done = Instant::now();
    if give_up.is_some_and(|d| infer_done >= d) {
        for entry in &entries {
            entry.cell.abandon();
        }
    }
    let dispatch = Dispatch {
        runner,
        served: result.is_ok(),
        images: total,
        sealed,
        infer_done,
        workspace_bytes: session.workspace_bytes(),
        op_profile: session.op_profile(),
        workspace: session.into_workspace(),
    };
    // Booked before any ticket resolves: a caller that reads the stats
    // after its response finds it counted.
    if lock(&inner.state).complete(&entries, dispatch, Instant::now()) {
        inner.work.notify_all();
    }
    match result {
        Ok(response) => {
            // Per-caller stats: own image count; the shared dispatch's
            // execution breakdown (tiled and plan counters) otherwise.
            let stats = response.stats();
            let mut images = response.into_images().into_iter();
            for (entry, n) in entries.iter().zip(counts) {
                let own: Vec<Image> = images.by_ref().take(n).collect();
                debug_assert_eq!(own.len(), n, "response images must cover the dispatch");
                entry.cell.resolve(Ok(SrResponse::from_parts(
                    own,
                    InferStats { images: n, ..stats },
                )
                .with_stamps(entry.stamps(sealed, infer_done))));
            }
        }
        Err(e) => {
            // The whole dispatch failed. Degenerate payloads were already
            // rejected at submission, so this is a systemic failure (the
            // engine/model itself) that a serial `Session::infer` of each
            // coalesced request would also have hit; every caller sees
            // that error.
            for entry in &entries {
                entry.cell.resolve(Err(ServeError::Infer(e.clone())));
            }
        }
    }
}

fn snapshot(inner: &Inner) -> RuntimeStats {
    let mut stats = RuntimeStats {
        workers: inner.config.workers,
        backend: inner.engine.backend(),
        simd: inner.engine.backend().kernel().simd_level(),
        elapsed: inner.started.elapsed(),
        ..lock(&inner.state).report()
    };
    stats.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_core::Method;
    use scales_models::{srresnet, SrConfig};
    use scales_serve::{Precision, TilePolicy};

    fn small_engine() -> Engine<'static> {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 97,
        })
        .unwrap();
        Engine::builder().model(net).precision(Precision::Deployed).build().unwrap()
    }

    fn probe(h: usize, w: usize, seed: u64) -> Image {
        scales_data::synth::scene(
            h,
            w,
            scales_data::synth::SceneConfig::default(),
            &mut scales_nn::init::rng(seed),
        )
    }

    #[test]
    fn runtime_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Runtime>();
        assert_send_sync::<Ticket>();
    }

    #[test]
    fn serves_a_request_and_reports_stats() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        )
        .unwrap();
        let response =
            runtime.submit(SrRequest::single(probe(8, 8, 1))).unwrap().wait().unwrap();
        assert_eq!(response.images().len(), 1);
        assert_eq!(response.images()[0].height(), 16);
        assert_eq!(response.stats().images, 1);
        // Runtime responses carry the stage stamps, in timeline order.
        let stamps = response.stamps().expect("runtime responses carry stage stamps");
        assert!(stamps.enqueued <= stamps.dequeued);
        assert!(stamps.dequeued <= stamps.sealed);
        assert!(stamps.sealed <= stamps.infer_done);
        let stats = runtime.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.images, 1);
        assert_eq!(stats.dispatches, 1);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.latency.count(), 1);
        assert!(stats.latency.p99() > std::time::Duration::ZERO);
        // Every served request lands in all three stage histograms.
        assert_eq!(stats.queue_wait.count(), 1);
        assert_eq!(stats.batch_wait.count(), 1);
        assert_eq!(stats.infer.count(), 1);
        assert!(stats.infer.max() > std::time::Duration::ZERO);
        assert_eq!(stats.late_discarded, 0);
        assert!(stats.op_profile.is_empty(), "profiling is opt-in");
    }

    #[test]
    fn invalid_requests_are_rejected_at_submission() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        )
        .unwrap();
        let empty = runtime.submit(SrRequest::batch(vec![])).unwrap_err();
        assert!(matches!(empty, SubmitError::InvalidRequest(_)), "{empty}");
        let bad_tile = runtime
            .submit(SrRequest::single(probe(8, 8, 2)).tile_policy(TilePolicy::Fixed(
                scales_serve::TileSpec { tile: 0, overlap: 0 },
            )))
            .unwrap_err();
        assert!(matches!(bad_tile, SubmitError::InvalidRequest(_)), "{bad_tile}");
        // Degenerate payloads must fail their own caller at submission —
        // they can never reach (and poison) a coalesced dispatch.
        let zero_sized = runtime.submit(SrRequest::single(Image::zeros(0, 0))).unwrap_err();
        assert!(matches!(zero_sized, SubmitError::InvalidRequest(_)), "{zero_sized}");
        let gray = Image::from_tensor(scales_tensor::Tensor::zeros(&[1, 8, 8])).unwrap();
        let not_rgb = runtime.submit(SrRequest::single(gray)).unwrap_err();
        assert!(matches!(not_rgb, SubmitError::InvalidRequest(_)), "{not_rgb}");
        // A malformed tenant tag is a validation error, not a new lane.
        let bad_tenant = runtime
            .submit(SrRequest::single(probe(8, 8, 5)).tenant("not a tenant!"))
            .unwrap_err();
        assert!(matches!(bad_tenant, SubmitError::InvalidRequest(_)), "{bad_tenant}");
        let stats = runtime.shutdown();
        assert_eq!(stats.submitted, 0, "rejected requests never enter the queue");
    }

    #[test]
    fn submit_wait_timeout_round_trips_and_times_out() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        )
        .unwrap();
        // A served request comes back through the nested result.
        let response = runtime
            .submit_wait_timeout(
                SrRequest::single(probe(8, 8, 40)),
                std::time::Duration::from_secs(120),
            )
            .expect("accepted")
            .expect("served");
        assert_eq!(response.images()[0].height(), 16);
        // Validation errors surface exactly as in `submit`.
        let err = runtime
            .submit_wait_timeout(SrRequest::batch(vec![]), std::time::Duration::from_secs(1))
            .err()
            .expect("empty request must be rejected");
        assert!(matches!(err, SubmitError::InvalidRequest(_)), "{err}");
        // A zero deadline on a queue that still has space accepts the
        // request but cannot wait for it: typed timeout, and the request
        // is still served (discarded) rather than leaked. The worker is
        // busy first, so the request cannot be served before its caller
        // looks at the ticket: ~3 ms of work optimised, long enough to
        // outlast the caller being descheduled on a loaded box.
        let heavy: Vec<Image> = (0..8).map(|i| probe(48, 48, 50 + i)).collect();
        let busy = runtime.submit(SrRequest::batch(heavy)).unwrap();
        while runtime.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        let err = runtime
            .submit_wait_timeout(
                SrRequest::single(probe(8, 8, 41)),
                std::time::Duration::ZERO,
            )
            .err()
            .expect("a zero deadline must time out");
        assert_eq!(err, SubmitError::Timeout { timeout: std::time::Duration::ZERO });
        assert!(busy.wait().is_ok());
        let stats = runtime.shutdown();
        assert_eq!(stats.completed, 3, "the timed-out request was still served");
        assert_eq!(
            stats.late_discarded, 1,
            "the abandoned response is counted as discarded work"
        );
    }

    #[test]
    fn an_unrepresentable_timeout_is_no_bound() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        )
        .unwrap();
        // On the idle pool the caller runs the request itself.
        let alone = runtime
            .submit_wait_timeout(SrRequest::single(probe(8, 8, 80)), Duration::MAX)
            .expect("accepted")
            .expect("served");
        assert_eq!(alone.images()[0].height(), 16);
        assert_eq!(runtime.stats().caller_runs, 1);
        // Behind a busy worker it queues, and its ticket wait is unbounded.
        let heavy: Vec<Image> = (0..8).map(|i| probe(16, 16, 81 + i)).collect();
        let busy = runtime.submit(SrRequest::batch(heavy)).unwrap();
        let queued = runtime
            .submit_wait_timeout(SrRequest::single(probe(8, 8, 90)), Duration::MAX)
            .expect("accepted")
            .expect("served");
        assert_eq!(queued.images()[0].height(), 16);
        assert!(busy.wait().is_ok());
        let stats = runtime.shutdown();
        assert_eq!((stats.completed, stats.failed, stats.late_discarded), (3, 0, 0));
    }

    #[test]
    fn profile_ops_samples_worker_sessions() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, profile_ops: true, ..RuntimeConfig::default() },
        )
        .unwrap();
        let _ = runtime.submit(SrRequest::single(probe(8, 8, 90))).unwrap().wait().unwrap();
        let stats = runtime.shutdown();
        assert!(!stats.op_profile.is_empty(), "profiling was enabled");
        assert!(stats.op_profile.total_ns() > 0);
        let kinds: Vec<&str> = stats.op_profile.entries().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"body_conv"), "{kinds:?}");
        // Attributed op time lies strictly inside the forward wall time.
        assert!(
            stats.op_profile.total_ns() <= u64::try_from(stats.busy.as_nanos()).unwrap_or(u64::MAX)
        );
    }

    #[test]
    fn submit_error_display_is_exhaustive() {
        // Every variant renders a non-empty, variant-specific message —
        // the `scales-io` error-surface discipline applied to the
        // runtime's error type (and `source()` stays None: these are
        // leaf errors).
        let cases: Vec<(SubmitError, &str)> = vec![
            (SubmitError::QueueFull { capacity: 7 }, "full (7"),
            (SubmitError::ShuttingDown, "shutting down"),
            (SubmitError::InvalidRequest("zero-sized".into()), "invalid request: zero-sized"),
            (
                SubmitError::Timeout { timeout: std::time::Duration::from_millis(250) },
                "not served within 250ms",
            ),
            (
                SubmitError::TenantQuota { tenant: "acme".into(), quota: 3 },
                "\"acme\" is at its queue quota (3",
            ),
            (SubmitError::Expired, "deadline expired"),
            (SubmitError::Shedding { reason: "queue depth watermark" }, "shedding load"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{err:?} renders {text:?}, wanted {needle:?}");
            let dyn_err: &dyn std::error::Error = &err;
            assert!(dyn_err.source().is_none(), "{err:?} is a leaf error");
        }
    }

    #[test]
    fn reject_reason_classifies_the_admission_refusals() {
        assert_eq!(
            SubmitError::QueueFull { capacity: 1 }.reject_reason(),
            Some(RejectReason::QueueFull)
        );
        assert_eq!(
            SubmitError::TenantQuota { tenant: "a".into(), quota: 1 }.reject_reason(),
            Some(RejectReason::TenantQuota)
        );
        assert_eq!(SubmitError::Expired.reject_reason(), Some(RejectReason::Expired));
        assert_eq!(
            SubmitError::Shedding { reason: "x" }.reject_reason(),
            Some(RejectReason::Shedding)
        );
        assert_eq!(SubmitError::ShuttingDown.reject_reason(), None);
        assert_eq!(SubmitError::InvalidRequest(String::new()).reject_reason(), None);
        assert_eq!(
            SubmitError::Timeout { timeout: std::time::Duration::ZERO }.reject_reason(),
            None
        );
    }

    #[test]
    fn serve_error_display_and_sources_are_wired() {
        let rejected = ServeError::Rejected(SubmitError::Expired);
        assert!(rejected.to_string().contains("retracted"), "{rejected}");
        let infer = ServeError::Infer(TensorError::InvalidArgument("boom".into()));
        assert!(infer.to_string().contains("inference failed"), "{infer}");
        for err in [rejected, infer] {
            let dyn_err: &dyn std::error::Error = &err;
            assert!(dyn_err.source().is_some(), "{err:?} wraps its cause");
        }
    }

    #[test]
    fn already_expired_deadlines_are_refused_at_the_door() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        )
        .unwrap();
        let err = runtime
            .submit(SrRequest::single(probe(8, 8, 70)).deadline_at(Instant::now()))
            .unwrap_err();
        assert_eq!(err, SubmitError::Expired);
        let err = runtime
            .submit_wait(
                SrRequest::single(probe(8, 8, 71))
                    .deadline_in(std::time::Duration::ZERO),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Expired);
        let stats = runtime.shutdown();
        assert_eq!(stats.submitted, 0, "expired requests never enter the queue");
        assert_eq!(stats.expired, 2);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn submitting_after_shutdown_is_a_typed_error() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        )
        .unwrap();
        runtime.begin_shutdown();
        let err = runtime.submit(SrRequest::single(probe(8, 8, 3))).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        let err = runtime.submit_wait(SrRequest::single(probe(8, 8, 4))).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        let _ = runtime.shutdown();
    }

    #[test]
    fn invalid_config_is_rejected() {
        let err =
            Runtime::spawn(small_engine(), RuntimeConfig { workers: 0, ..RuntimeConfig::default() });
        assert!(err.is_err());
    }

    #[test]
    fn drop_without_shutdown_drains_and_joins() {
        let runtime = Runtime::spawn(
            small_engine(),
            RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| runtime.submit(SrRequest::single(probe(8, 8, 10 + i))).unwrap())
            .collect();
        drop(runtime);
        // Every accepted ticket resolves even though nobody called
        // `shutdown` — drop drains the queue before joining.
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
    }
}
