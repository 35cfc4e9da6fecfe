//! [`Ticket`] — the caller's handle to an in-flight request: a hand-rolled
//! `Mutex` + `Condvar` one-shot cell resolved exactly once by the worker
//! that serves the request.

use crate::runtime::ServeError;
use crate::{lock, wait_timeout};
use scales_serve::SrResponse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a ticket resolves: the response, or a typed [`ServeError`].
pub(crate) type ServeResult = Result<SrResponse, ServeError>;

/// The shared one-shot cell between a submitted request and the worker
/// that eventually serves it.
pub(crate) struct TicketCell {
    slot: Mutex<Option<ServeResult>>,
    done: Condvar,
    /// The submitter gave up waiting (a `submit_wait_timeout` deadline
    /// ran out in flight). The request is still served — the guarantee
    /// that every accepted ticket resolves is unconditional — but the
    /// worker counts the resolution as late-discarded work.
    abandoned: AtomicBool,
}

impl TicketCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            done: Condvar::new(),
            abandoned: AtomicBool::new(false),
        })
    }

    /// Mark that nobody is waiting on this cell anymore.
    pub(crate) fn abandon(&self) {
        self.abandoned.store(true, Ordering::Relaxed);
    }

    /// Whether the submitter gave up before resolution.
    pub(crate) fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Relaxed)
    }

    /// Deliver the result, waking the waiting caller. Called exactly once
    /// per cell, by the worker that served (or failed) the request. The
    /// wake-up follows the unlock, so the woken caller does not then block
    /// on the mutex this thread still holds.
    pub(crate) fn resolve(&self, result: ServeResult) {
        let mut slot = lock(&self.slot);
        debug_assert!(slot.is_none(), "a ticket resolves exactly once");
        *slot = Some(result);
        drop(slot);
        self.done.notify_all();
    }

    /// Deliver `result` only if nothing was delivered yet — the
    /// last-resort path (worker panic unwind, post-join shutdown sweep)
    /// that guarantees no accepted ticket is ever left blocking forever.
    /// Returns whether this call resolved the cell, so those paths can
    /// account the requests they failed.
    pub(crate) fn resolve_if_pending(&self, result: ServeResult) -> bool {
        let mut slot = lock(&self.slot);
        let resolved = slot.is_none();
        if resolved {
            *slot = Some(result);
            drop(slot);
            self.done.notify_all();
        }
        resolved
    }
}

/// A claim on the response to one submitted request.
///
/// Returned by [`Runtime::submit`](crate::Runtime::submit) /
/// [`Runtime::submit_wait`](crate::Runtime::submit_wait). The ticket is
/// the *only* handle to the result: [`Ticket::wait`] consumes it and
/// returns the caller's own [`SrResponse`] — the images of the submitted
/// request, in the submitted order.
///
/// Every accepted request is eventually resolved: workers drain the queue
/// on shutdown, a failed dispatch resolves its ticket with the error
/// instead of dropping it, and a queued request whose deadline passes
/// resolves with [`ServeError::Rejected`] instead of being served late.
pub struct Ticket {
    pub(crate) cell: Arc<TicketCell>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("ready", &self.is_ready()).finish()
    }
}

impl Ticket {
    /// Block until the request is served and take the response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Infer`] carries the error the serving dispatch
    /// produced, exactly as a serial `Session::infer` of this request
    /// would have; [`ServeError::Rejected`] means the runtime retracted
    /// the accepted request before dispatch (deadline expiry).
    pub fn wait(self) -> ServeResult {
        let mut slot = lock(&self.cell.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = crate::wait(&self.cell.done, slot);
        }
    }

    /// Block up to `timeout` for the response. On timeout the ticket is
    /// handed back so the caller can keep waiting (or drop it — the
    /// runtime still serves the request; the response is discarded at
    /// resolution). A `timeout` too long to represent as an `Instant`
    /// (`Duration::MAX`) waits like [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// `Err(self)` on timeout; the inner `Result` is as in
    /// [`Ticket::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeResult, Ticket> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait());
        };
        let mut slot = lock(&self.cell.slot);
        loop {
            if let Some(result) = slot.take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            slot = wait_timeout(&self.cell.done, slot, deadline - now);
        }
    }

    /// Whether the response has already been delivered (a subsequent
    /// [`Ticket::wait`] will not block).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        lock(&self.cell.slot).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubmitError;
    use scales_serve::{InferStats, Precision, SrResponse};
    use scales_tensor::backend::Backend;

    fn empty_response() -> SrResponse {
        SrResponse::from_parts(
            Vec::new(),
            InferStats {
                images: 0,
                tiled: 0,
                backend: Backend::Scalar,
                simd: scales_tensor::SimdLevel::None,
                precision: Precision::Deployed,
                plans_built: 0,
                plan_reuses: 0,
            },
        )
    }

    #[test]
    fn resolved_ticket_returns_without_blocking() {
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        assert!(!ticket.is_ready());
        cell.resolve(Ok(empty_response()));
        assert!(ticket.is_ready());
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn wait_blocks_until_a_thread_resolves() {
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            cell.resolve(Ok(empty_response()));
        });
        assert!(ticket.wait().is_ok());
        resolver.join().unwrap();
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back() {
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        let Err(ticket) = ticket.wait_timeout(Duration::from_millis(5)) else {
            panic!("unresolved ticket must time out");
        };
        cell.resolve(Ok(empty_response()));
        assert!(ticket.wait_timeout(Duration::from_secs(5)).is_ok());
    }

    #[test]
    fn an_unrepresentable_timeout_waits_without_bound() {
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            cell.resolve(Ok(empty_response()));
        });
        assert!(matches!(ticket.wait_timeout(Duration::MAX), Ok(Ok(_))));
        resolver.join().unwrap();
    }

    #[test]
    fn abandonment_is_sticky_and_never_blocks_resolution() {
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        assert!(!cell.is_abandoned());
        cell.abandon();
        assert!(cell.is_abandoned());
        // An abandoned cell still resolves normally — the flag only
        // tells the resolver nobody will read the result.
        cell.resolve(Ok(empty_response()));
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn resolve_if_pending_reports_whether_it_won() {
        let cell = TicketCell::new();
        let ticket = Ticket { cell: Arc::clone(&cell) };
        assert!(cell.resolve_if_pending(Err(ServeError::Rejected(SubmitError::Expired))));
        assert!(!cell.resolve_if_pending(Ok(empty_response())));
        // The first resolution sticks.
        assert!(matches!(
            ticket.wait(),
            Err(ServeError::Rejected(SubmitError::Expired))
        ));
    }
}
