//! # scales-runtime
//!
//! The concurrent serving runtime of the SCALES reproduction: a
//! hand-rolled, std-only worker pool that turns one single-caller
//! [`Engine`](scales_serve::Engine) into a multi-tenant server — bounded
//! submission queue with explicit backpressure, deadline- and
//! tenant-aware scheduling, and one serving record ([`metrics`]). No external
//! dependencies, no async executor: plain threads, a `Mutex` + two
//! `Condvar`s for the queue — the whole synchronisation story of admission,
//! scheduling and accounting — and a `Mutex` + `Condvar` one-shot per
//! in-flight request.
//!
//! `queue.rs` is the policy: every admission and scheduling decision below
//! is a method of one plain value that takes the time as an argument and
//! returns a typed decision — no lock, no clock read, no thread — and is
//! model-checked under a virtual clock (`cargo test -p scales-runtime
//! queue`). The same value holds the ledger and the serving record, which a
//! worker books once per dispatch before any of its tickets resolve.
//! `runtime.rs` is the threads: it keeps that value behind the one mutex,
//! takes the timestamps, waits, wakes, and runs the forwards.
//!
//! The lifecycle is:
//!
//! 1. [`Runtime::spawn`] takes ownership of an `Engine<'static>` and
//!    starts `workers` threads, born idle, over a pool of `workers`
//!    planned-executor workspaces (arenas and per-shape plan cache).
//!    Whoever runs a forward borrows one through a
//!    [`Session`](scales_serve::Session) over it, and every forward runs
//!    under the engine's backend handle (thread-scoped, never the process
//!    global).
//! 2. [`Runtime::submit`] enqueues an [`SrRequest`](scales_serve::SrRequest)
//!    and returns a [`Ticket`] immediately; a full queue is a typed
//!    [`SubmitError::QueueFull`], a stopped runtime is
//!    [`SubmitError::ShuttingDown`]. [`Runtime::submit_wait`] blocks for
//!    space instead. [`Runtime::submit_wait_timeout`] blocks on the
//!    outcome, so a lone request of its runs on the caller's own thread:
//!    when the lanes are empty and a worker is idle, the caller leases
//!    that worker's slot — workspace and all — and serves the request
//!    through the same dispatch a worker runs, and no worker wakes. The
//!    leased worker stays parked until the lease ends, so no more than
//!    `workers` forwards ever run at once
//!    ([`RuntimeStats::caller_runs`] counts the path).
//! 3. **A dispatch is one request.** A worker pops the scheduler's pick,
//!    seals it on a workspace, and serves it through one
//!    `Session::infer` at once, never waiting for more to arrive. A
//!    caller who wants several images served together sends them in one
//!    request; requests from different callers never share a dispatch,
//!    so none waits for another's forward.
//! 4. Each caller's [`Ticket`] resolves to its own
//!    [`SrResponse`](scales_serve::SrResponse) — the images of *its*
//!    request, in *its* order, bit-identical (`f32::to_bits`) to a serial
//!    `Session::infer` of that request (enforced at
//!    [`Precision::Deployed`](scales_serve::Precision::Deployed) by
//!    `tests/runtime.rs` on perturbed networks across the CNN method
//!    registry and both backends).
//! 5. [`Runtime::shutdown`] stops intake, drains every queued request,
//!    joins the workers, and returns the final [`RuntimeStats`] —
//!    throughput, dispatches, queue high-water, and p50/p99 latency from
//!    fixed-bucket histograms. Dropping a `Runtime` does the same
//!    drain-and-join without the stats.
//!
//! ## Admission control
//!
//! On top of the bounded queue the runtime runs an SLO-aware admission
//! controller, configured through [`RuntimeConfig`]:
//!
//! - **Deadlines** — a request tagged with
//!   [`SrRequest::deadline_in`](scales_serve::SrRequest::deadline_in) is
//!   refused at the door ([`SubmitError::Expired`]) when already late,
//!   retracted from the queue instead of being dispatched late
//!   ([`ServeError::Rejected`]), and scheduled earliest-deadline-first
//!   *within* the weighted rotation — deadline tags order work inside a
//!   fairness cycle but cannot buy more than the lane's weight per cycle
//!   (the tag is client-controlled).
//! - **Per-tenant fairness** — each
//!   [`SrRequest::tenant`](scales_serve::SrRequest::tenant) tag gets its
//!   own queue lane, drained by weighted round-robin
//!   ([`RuntimeConfig::tenant_weights`]) with an optional per-lane quota
//!   ([`RuntimeConfig::tenant_quota`], refusing with
//!   [`SubmitError::TenantQuota`]). The lane table is bounded
//!   ([`RuntimeConfig::max_tenant_lanes`]): idle unweighted lanes are
//!   retired at the cap (their counters folded into the global totals), a
//!   new tenant that finds every lane busy shares the anonymous lane *and
//!   its quota* — rotating names buys nothing — and a refused request
//!   never creates a lane, so untrusted tenant names cannot grow server
//!   state. Per-lane counters surface as [`TenantStats`].
//! - **Shortest expected finish first, inside a lane** — each lane is
//!   kept sorted by a key fixed at admission: an untagged request's
//!   arrival plus its estimated forward time (its input pixels times the
//!   forward time per input pixel measured over the dispatches served so
//!   far), a deadline-tagged request's arrival alone; ties keep arrival
//!   order. A light request passes a heavy one only if it arrived within
//!   the difference of their estimates, so the median wait falls, the
//!   heavy one's wait stays bounded, and throughput is unchanged (the
//!   order is work-conserving). Nothing that arrives later passes a
//!   tagged request, and a runtime that has served nothing yet is first
//!   come, first served.
//! - **Load shedding** — a [`ShedPolicy`] refuses work early
//!   ([`SubmitError::Shedding`]) on a queue-depth watermark or while the
//!   p99 latency over a sliding window of recent dispatches exceeds a
//!   trip wire; a tripped wire re-arms once its reading goes stale
//!   ([`ShedPolicy::p99_recovery`]), so a transient spike cannot latch
//!   into a permanent outage.
//!
//! Every refusal is typed; [`SubmitError::reject_reason`] classifies the
//! admission refusals into a [`RejectReason`] so serving front ends can
//! map them onto distinct wire responses (429 vs 503 vs 504).
//!
//! With the `faults` feature (test builds only) the worker dispatch path
//! evaluates the `scales-faults` registry (`"runtime.dispatch"`), so
//! chaos tests can inject delays, errors, and panics inside a live pool.
//!
//! ```
//! use scales_runtime::{Runtime, RuntimeConfig};
//! use scales_serve::{Engine, Precision, SrRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # use scales_models::{srresnet, SrConfig};
//! # use scales_core::Method;
//! let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
//! let engine = Engine::builder().model(net).precision(Precision::Deployed).build()?;
//! let runtime = Runtime::spawn(engine, RuntimeConfig { workers: 2, ..RuntimeConfig::default() })?;
//! let lr = scales_data::Image::zeros(8, 8);
//! let ticket = runtime.submit(SrRequest::single(lr))?; // non-blocking
//! let sr = ticket.wait()?;                             // caller's own response
//! assert_eq!(sr.images()[0].height(), 16);
//! let stats = runtime.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok(())
//! # }
//! ```

mod config;
pub mod metrics;
mod queue;
mod runtime;
mod ticket;

pub use config::{RuntimeConfig, ShedPolicy};
pub use metrics::{LatencyHistogram, RuntimeStats, TenantStats};
pub use runtime::{RejectReason, Runtime, ServeError, SubmitError};
pub use ticket::Ticket;

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Poison-tolerant lock: a worker that panicked mid-dispatch must not
/// deadlock or re-panic the rest of the pool (shutdown still drains and
/// joins).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant condvar wait.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant condvar wait with a timeout. Callers re-check their
/// condition on every return, so whether it timed out is not reported.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}
