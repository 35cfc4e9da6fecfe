//! Request ids: the trace handle carried from the wire to the ticket.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique counter behind [`RequestId::generate`]. Starts at 1 so
/// a generated id is never the all-zero string.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The one wire-safe name rule of the serving stack: 1–64 bytes of
/// `[A-Za-z0-9._-]`. Tenant names, model names and request ids all obey
/// it, so any of them embeds in a URL, an HTTP header, a Prometheus label
/// value or a JSON string without escaping. Each caller wraps a `false`
/// in its own typed error.
#[must_use]
pub fn is_wire_safe_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b))
}

/// A request's trace id.
///
/// The id is either client-supplied (the `X-Scales-Request-Id` header,
/// accepted only when it satisfies [the header
/// rule](RequestId::parse)) or minted by [`RequestId::generate`] from a
/// process-unique atomic counter. Cheap to clone (`Arc<str>` inside) —
/// it rides on the request through router, runtime queue, and ticket,
/// and is echoed on every HTTP response.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RequestId(Arc<str>);

impl RequestId {
    /// Accept a client-supplied id.
    ///
    /// The rule is [`is_wire_safe_name`], the tenant/model-name rule used
    /// everywhere else in the stack, so an id is always safe to echo in a
    /// response header, embed in a Prometheus exemplar, or print in a log
    /// line without escaping.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidRequestId`] when empty, longer than 64
    /// bytes, or containing any other character.
    pub fn parse(id: &str) -> Result<Self, TelemetryError> {
        if is_wire_safe_name(id) {
            return Ok(Self(Arc::from(id)));
        }
        // Only the explanation branches here; validity was decided above.
        let what = if id.is_empty() {
            "empty"
        } else if id.len() > 64 {
            "longer than 64 bytes"
        } else {
            "allowed characters are [A-Za-z0-9._-]"
        };
        Err(TelemetryError::InvalidRequestId { what })
    }

    /// Mint a fresh id from the process-unique atomic counter, prefixed
    /// with the process id so ids from co-located servers stay distinct
    /// in shared logs.
    #[must_use]
    pub fn generate() -> Self {
        let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Self(Arc::from(format!("req-{:x}-{n:x}", std::process::id()).as_str()))
    }

    /// The wire policy in one call: a valid client-supplied id is
    /// accepted verbatim, anything else (absent *or* invalid) gets a
    /// generated id — a hostile header can never break correlation.
    #[must_use]
    pub fn accept_or_generate(header: Option<&str>) -> Self {
        header.and_then(|h| Self::parse(h).ok()).unwrap_or_else(Self::generate)
    }

    /// The id as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RequestId({})", self.0)
    }
}

/// Typed telemetry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// A client-supplied request id violated the header rule.
    InvalidRequestId {
        /// What exactly was wrong.
        what: &'static str,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::InvalidRequestId { what } => {
                write!(f, "invalid request id: {what} (1-64 characters of [A-Za-z0-9._-])")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_name_rule_is_one_table() {
        let cases: [(&str, bool); 14] = [
            ("", false),
            ("a", true),
            (&"x".repeat(64), true),
            (&"x".repeat(65), false),
            ("a.b", true),
            ("a_b", true),
            ("a-b", true),
            ("._-", true),
            ("AZaz09", true),
            ("has space", false),
            ("quote\"", false),
            ("sla/sh", false),
            ("new\nline", false),
            ("ünïcode", false),
        ];
        for (name, ok) in cases {
            assert_eq!(is_wire_safe_name(name), ok, "{name:?}");
        }
    }

    #[test]
    fn valid_ids_parse_verbatim() {
        for ok in ["a", "req-1f3a-2c", "A.b_C-9", &"x".repeat(64)] {
            assert_eq!(RequestId::parse(ok).unwrap().as_str(), ok);
        }
    }

    #[test]
    fn hostile_ids_are_rejected_with_typed_errors() {
        assert_eq!(
            RequestId::parse("").unwrap_err(),
            TelemetryError::InvalidRequestId { what: "empty" }
        );
        assert_eq!(
            RequestId::parse(&"x".repeat(65)).unwrap_err(),
            TelemetryError::InvalidRequestId { what: "longer than 64 bytes" }
        );
        for bad in ["has space", "new\nline", "quote\"", "läger", "a/b"] {
            assert!(matches!(
                RequestId::parse(bad).unwrap_err(),
                TelemetryError::InvalidRequestId { .. }
            ));
        }
    }

    #[test]
    fn generated_ids_are_unique_and_valid() {
        let a = RequestId::generate();
        let b = RequestId::generate();
        assert_ne!(a, b);
        assert!(RequestId::parse(a.as_str()).is_ok(), "{a}");
    }

    #[test]
    fn accept_or_generate_applies_the_wire_policy() {
        assert_eq!(RequestId::accept_or_generate(Some("client-7")).as_str(), "client-7");
        let minted = RequestId::accept_or_generate(Some("not valid!"));
        assert_ne!(minted.as_str(), "not valid!");
        assert!(RequestId::parse(minted.as_str()).is_ok());
        assert!(RequestId::accept_or_generate(None).as_str().starts_with("req-"));
    }

    #[test]
    fn errors_display_their_cause() {
        let err = TelemetryError::InvalidRequestId { what: "empty" };
        assert_eq!(
            err.to_string(),
            "invalid request id: empty (1-64 characters of [A-Za-z0-9._-])"
        );
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("invalid request id"));
    }

    #[test]
    fn ids_format_without_adornment() {
        let id = RequestId::parse("abc").unwrap();
        assert_eq!(id.to_string(), "abc");
        assert_eq!(format!("{id:?}"), "RequestId(abc)");
    }
}
