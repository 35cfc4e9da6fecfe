//! [`HttpConfig`] — sizing and hardening knobs for the HTTP front end.

use crate::error::HttpError;
use std::time::Duration;

/// Configuration for [`HttpServer`](crate::HttpServer).
///
/// Every limit exists to bound what an untrusted peer can make the server
/// buffer or wait for: request lines and headers are length- and
/// count-limited, bodies are size-limited before allocation, reads time
/// out, and the runtime round trip is bounded by
/// [`request_timeout`](HttpConfig::request_timeout) (a slow model answer
/// becomes a `503`, not a connection held forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// Connection-worker threads draining the accept queue. Each worker
    /// serves one connection at a time (requests on a keep-alive
    /// connection are served in order). Default: 4.
    pub workers: usize,
    /// Accepted connections waiting for a worker. When the backlog is
    /// full, new connections are refused with an immediate `503` instead
    /// of queueing without bound. Default: 128.
    pub max_pending: usize,
    /// Maximum request body size in bytes, enforced against
    /// `Content-Length` *before* any allocation. Default: 16 MiB
    /// (comfortably above the codec pixel cap).
    pub max_body: usize,
    /// Maximum length of the request line and of each header line,
    /// including the terminator. Default: 8192.
    pub max_line: usize,
    /// Maximum number of request headers. Default: 64.
    pub max_headers: usize,
    /// The socket's read timeout, set once per connection. It bounds the
    /// one blocking read an idle connection waits for its next request
    /// in (past it the connection closes without a response), and each
    /// read while a request is arriving (past it: `408`).
    /// `Duration::MAX`: no bound. Default: 5 s.
    pub read_timeout: Duration,
    /// Bound on the full runtime round trip (queue admission + inference)
    /// per request, passed to
    /// [`ModelRouter::submit_wait_timeout`](scales_router::ModelRouter::submit_wait_timeout).
    /// Expiry maps to `503 Service Unavailable` with a `Retry-After`
    /// (distinct from a request's *own* `X-Scales-Deadline-Ms` deadline,
    /// whose expiry is a `504 Gateway Timeout`). A request its connection
    /// thread runs itself (a lone request, a worker idle) is answered when
    /// its forward ends, with the same `503` if that is past this bound.
    /// `Duration::MAX`: no bound. Default: 30 s.
    pub request_timeout: Duration,
    /// Completed request traces retained by the flight recorder (the
    /// `GET /v1/debug/traces` ring). Default: 256.
    pub trace_capacity: usize,
    /// End-to-end latency above which a trace is *also* retained in the
    /// slow ring (`GET /v1/debug/traces?slow=1`), so a burst of fast
    /// traffic cannot flush the outliers a postmortem needs.
    /// Default: 250 ms.
    pub slow_threshold: Duration,
    /// Slow traces retained. Default: 64.
    pub slow_trace_capacity: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_pending: 128,
            max_body: 16 << 20,
            max_line: 8192,
            max_headers: 64,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            trace_capacity: 256,
            slow_threshold: Duration::from_millis(250),
            slow_trace_capacity: 64,
        }
    }
}

impl HttpConfig {
    /// Check the sizing is servable.
    ///
    /// # Errors
    ///
    /// [`HttpError::InvalidConfig`] when a worker/limit knob is zero or a
    /// timeout is zero.
    pub fn validate(&self) -> Result<(), HttpError> {
        let reject = |what: &str| Err(HttpError::InvalidConfig { what: what.into() });
        if self.workers == 0 {
            return reject("http server needs at least one connection worker");
        }
        if self.max_pending == 0 {
            return reject("pending-connection backlog must be positive");
        }
        if self.max_body == 0 {
            return reject("maximum body size must be positive");
        }
        if self.max_line < 16 {
            return reject("maximum line length must be at least 16 bytes");
        }
        if self.max_headers == 0 {
            return reject("maximum header count must be positive");
        }
        if self.read_timeout.is_zero() {
            return reject("read timeout must be positive");
        }
        if self.request_timeout.is_zero() {
            return reject("request timeout must be positive");
        }
        if self.trace_capacity == 0 {
            return reject("flight-recorder trace capacity must be positive");
        }
        if self.slow_threshold.is_zero() {
            return reject("slow-trace threshold must be positive");
        }
        if self.slow_trace_capacity == 0 {
            return reject("slow-trace capacity must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(HttpConfig::default().validate().is_ok());
    }

    #[test]
    fn every_zero_knob_is_rejected() {
        let ok = HttpConfig::default();
        let cases = [
            HttpConfig { workers: 0, ..ok },
            HttpConfig { max_pending: 0, ..ok },
            HttpConfig { max_body: 0, ..ok },
            HttpConfig { max_line: 15, ..ok },
            HttpConfig { max_headers: 0, ..ok },
            HttpConfig { read_timeout: Duration::ZERO, ..ok },
            HttpConfig { request_timeout: Duration::ZERO, ..ok },
            HttpConfig { trace_capacity: 0, ..ok },
            HttpConfig { slow_threshold: Duration::ZERO, ..ok },
            HttpConfig { slow_trace_capacity: 0, ..ok },
        ];
        for bad in cases {
            let err = bad.validate().expect_err("zero knob must be rejected");
            assert!(matches!(err, HttpError::InvalidConfig { .. }), "{err}");
        }
    }
}
