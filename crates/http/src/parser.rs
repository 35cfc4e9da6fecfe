//! Hardened HTTP/1.1 request parsing over any [`Read`] stream.
//!
//! The parser is deliberately narrow: request line + headers with hard
//! length/count limits, `Content-Length`-framed bodies only (any
//! `Transfer-Encoding` is a typed `501`), `Connection: keep-alive` /
//! `close`, and `Expect: 100-continue`. Head and body reads are split so
//! the server can interpose the `100 Continue` interim response — and
//! *skip* it (straight to the error) when the head alone already dooms
//! the request.

use crate::config::HttpConfig;
use crate::error::RequestError;
use scales_telemetry::is_wire_safe_name;
use std::io::Read;

/// A parsed request head: everything before the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The method token, as sent (methods are case-sensitive).
    pub method: String,
    /// The request target (path + optional query), e.g. `/v1/upscale`.
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Declared body length (0 when no `Content-Length` was sent).
    pub content_length: usize,
    /// Whether a `Content-Length` header was present at all — routes
    /// that require a body distinguish "0-length body" from "no body".
    pub has_length: bool,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Whether the peer sent `Expect: 100-continue`.
    pub expect_continue: bool,
    /// Validated `X-Scales-Tenant` header: the tenant lane the runtime's
    /// admission controller queues this request under.
    pub tenant: Option<String>,
    /// `X-Scales-Deadline-Ms` header: the request's deadline budget in
    /// milliseconds from arrival. `0` is legal and means "already due" —
    /// the runtime refuses it as expired.
    pub deadline_ms: Option<u64>,
    /// `X-Scales-Request-Id` header, kept only when it satisfies the
    /// shared name rule (1–64 characters of `[A-Za-z0-9._-]`). An
    /// invalid id is *dropped*, never a `400` — the server mints a fresh
    /// one instead, so a hostile header cannot break correlation and a
    /// well-formed request is never refused over its trace id.
    pub request_id: Option<String>,
}

impl RequestHead {
    /// First value of the named header (name must be lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Buffered request reader over a byte stream.
///
/// One `RequestReader` lives per connection and carries read-ahead
/// between keep-alive requests (a pipelined second request is not lost).
pub struct RequestReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> RequestReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: vec![0; 8 << 10], start: 0, end: 0 }
    }

    /// Whether bytes are already buffered (a pipelined next request).
    #[must_use]
    pub fn has_buffered(&self) -> bool {
        self.start < self.end
    }

    /// The wrapped stream (to adjust socket timeouts mid-connection).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Pull more bytes from the stream into the buffer. Returns the
    /// number of new bytes; `Ok(0)` means clean end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the stream's own error (timeouts included) untyped —
    /// callers decide whether a timeout is an idle keep-alive close or a
    /// mid-request `408`.
    pub fn fill(&mut self) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            // Compact so a line split across fills keeps fitting as long
            // as it is under the buffer size.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.inner.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    fn next_byte(&mut self) -> Result<Option<u8>, RequestError> {
        if self.start == self.end && self.fill().map_err(RequestError::from)? == 0 {
            return Ok(None);
        }
        let b = self.buf[self.start];
        self.start += 1;
        Ok(Some(b))
    }

    /// Read one `\n`-terminated line (CRLF or bare LF), without the
    /// terminator. `Ok(None)` only on end-of-stream *before any byte* —
    /// EOF mid-line is [`RequestError::UnexpectedEof`].
    fn read_line(&mut self, max_line: usize) -> Result<Option<Vec<u8>>, RequestError> {
        let mut line = Vec::new();
        loop {
            match self.next_byte()? {
                None if line.is_empty() => return Ok(None),
                None => return Err(RequestError::UnexpectedEof),
                Some(b'\n') => {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(line));
                }
                Some(b) => {
                    if line.len() >= max_line {
                        return Err(RequestError::LineTooLong { limit: max_line });
                    }
                    line.push(b);
                }
            }
        }
    }

    /// Parse one request head.
    ///
    /// Returns `Ok(None)` when the peer closed the connection cleanly
    /// between requests (normal keep-alive teardown, not an error).
    ///
    /// # Errors
    ///
    /// Every malformed or over-limit head is a typed [`RequestError`]
    /// carrying its HTTP status.
    pub fn read_head(&mut self, config: &HttpConfig) -> Result<Option<RequestHead>, RequestError> {
        // Tolerate stray CRLF before the request line (RFC 9112 §2.2).
        let line = loop {
            match self.read_line(config.max_line)? {
                None => return Ok(None),
                Some(l) if l.is_empty() => continue,
                Some(l) => break l,
            }
        };
        let line = std::str::from_utf8(&line)
            .map_err(|_| RequestError::BadRequestLine { what: "not valid UTF-8" })?;
        let mut parts = line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
            _ => {
                return Err(RequestError::BadRequestLine {
                    what: "expected `METHOD SP TARGET SP VERSION`",
                })
            }
        };
        if !method.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            return Err(RequestError::BadRequestLine { what: "method is not a token" });
        }
        if !(target.starts_with('/') || target == "*") {
            return Err(RequestError::BadRequestLine { what: "target must be absolute" });
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(RequestError::UnsupportedVersion { found: version.to_string() }),
        };

        let mut head = RequestHead {
            method: method.to_string(),
            target: target.to_string(),
            http11,
            headers: Vec::new(),
            content_length: 0,
            has_length: false,
            keep_alive: http11, // HTTP/1.1 defaults to persistent
            expect_continue: false,
            tenant: None,
            deadline_ms: None,
            request_id: None,
        };
        loop {
            let line = self.read_line(config.max_line)?.ok_or(RequestError::UnexpectedEof)?;
            if line.is_empty() {
                break;
            }
            if head.headers.len() >= config.max_headers {
                return Err(RequestError::TooManyHeaders { limit: config.max_headers });
            }
            if line[0] == b' ' || line[0] == b'\t' {
                return Err(RequestError::BadHeader { what: "obsolete line folding" });
            }
            let line = std::str::from_utf8(&line)
                .map_err(|_| RequestError::BadHeader { what: "not valid UTF-8" })?;
            let (name, value) =
                line.split_once(':').ok_or(RequestError::BadHeader { what: "missing colon" })?;
            if name.is_empty()
                || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b"-_.".contains(&b))
            {
                return Err(RequestError::BadHeader { what: "name is not a token" });
            }
            head.headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        self.interpret_headers(&mut head, config)?;
        Ok(Some(head))
    }

    fn interpret_headers(
        &self,
        head: &mut RequestHead,
        config: &HttpConfig,
    ) -> Result<(), RequestError> {
        let mut seen_length: Option<u64> = None;
        for (name, value) in &head.headers {
            match name.as_str() {
                "transfer-encoding" => return Err(RequestError::UnsupportedTransferEncoding),
                "content-length" => {
                    let parsed: u64 = value
                        .parse()
                        .map_err(|_| RequestError::BadContentLength { what: "not a decimal integer" })?;
                    if seen_length.is_some_and(|prev| prev != parsed) {
                        return Err(RequestError::BadContentLength {
                            what: "conflicting values",
                        });
                    }
                    seen_length = Some(parsed);
                }
                "connection" => {
                    for token in value.split(',') {
                        match token.trim().to_ascii_lowercase().as_str() {
                            "close" => head.keep_alive = false,
                            "keep-alive" => head.keep_alive = true,
                            _ => {}
                        }
                    }
                }
                "expect" if value.eq_ignore_ascii_case("100-continue") => {
                    head.expect_continue = true;
                }
                // The runtime enforces the same rule; checking at the
                // wire makes a hostile header a clean `400` before any
                // image bytes are decoded.
                "x-scales-tenant" => {
                    if !is_wire_safe_name(value) {
                        return Err(RequestError::BadHeader {
                            what: "tenant must be 1-64 characters of [A-Za-z0-9._-]",
                        });
                    }
                    head.tenant = Some(value.clone());
                }
                // The request-id rule is the same token alphabet as the
                // tenant rule, but the failure mode differs by design:
                // a bad id is ignored (the server generates one), while
                // a bad tenant is a 400 — it would change which
                // admission lane does the accounting.
                "x-scales-request-id" if is_wire_safe_name(value) => {
                    head.request_id = Some(value.clone());
                }
                "x-scales-deadline-ms" => {
                    let parsed: u64 = value.parse().map_err(|_| RequestError::BadHeader {
                        what: "deadline must be a decimal number of milliseconds",
                    })?;
                    head.deadline_ms = Some(parsed);
                }
                _ => {}
            }
        }
        if let Some(length) = seen_length {
            if length > config.max_body as u64 {
                return Err(RequestError::BodyTooLarge { length, limit: config.max_body });
            }
            head.has_length = true;
            head.content_length = usize::try_from(length)
                .map_err(|_| RequestError::BadContentLength { what: "does not fit in memory" })?;
        }
        Ok(())
    }

    /// Read exactly `length` body bytes (already validated against
    /// [`max_body`](HttpConfig::max_body) by [`read_head`](Self::read_head)).
    ///
    /// # Errors
    ///
    /// [`RequestError::UnexpectedEof`] when the peer closes early,
    /// [`RequestError::Timeout`] when it stalls.
    pub fn read_body(&mut self, length: usize) -> Result<Vec<u8>, RequestError> {
        let mut body = Vec::with_capacity(length);
        // Drain the read-ahead first.
        let buffered = (self.end - self.start).min(length);
        body.extend_from_slice(&self.buf[self.start..self.start + buffered]);
        self.start += buffered;
        while body.len() < length {
            let want = (length - body.len()).min(self.buf.len());
            let n = self.inner.read(&mut self.buf[..want]).map_err(RequestError::from)?;
            if n == 0 {
                return Err(RequestError::UnexpectedEof);
            }
            body.extend_from_slice(&self.buf[..n]);
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(bytes: &[u8]) -> RequestReader<Cursor<Vec<u8>>> {
        RequestReader::new(Cursor::new(bytes.to_vec()))
    }

    fn head_of(bytes: &[u8]) -> RequestHead {
        reader(bytes)
            .read_head(&HttpConfig::default())
            .expect("head parses")
            .expect("stream not empty")
    }

    fn err_of(bytes: &[u8]) -> RequestError {
        reader(bytes)
            .read_head(&HttpConfig::default())
            .expect_err("head must be rejected")
    }

    #[test]
    fn parses_a_get_head() {
        let head = head_of(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
        assert_eq!(head.method, "GET");
        assert_eq!(head.target, "/healthz");
        assert!(head.http11);
        assert!(head.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(!head.has_length);
        assert_eq!(head.header("host"), Some("localhost"));
    }

    #[test]
    fn parses_a_post_with_body() {
        let mut r = reader(b"POST /v1/upscale HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        let head = r.read_head(&HttpConfig::default()).unwrap().unwrap();
        assert!(head.has_length);
        assert_eq!(head.content_length, 5);
        assert_eq!(r.read_body(head.content_length).unwrap(), b"hello");
    }

    #[test]
    fn pipelined_requests_are_not_lost() {
        let mut r = reader(
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /b HTTP/1.1\r\n\r\n",
        );
        let cfg = HttpConfig::default();
        let first = r.read_head(&cfg).unwrap().unwrap();
        assert_eq!(r.read_body(first.content_length).unwrap(), b"xy");
        let second = r.read_head(&cfg).unwrap().unwrap();
        assert_eq!(second.target, "/b");
        assert!(r.read_head(&cfg).unwrap().is_none(), "clean EOF after the last request");
    }

    #[test]
    fn connection_and_expect_headers_are_interpreted() {
        let head =
            head_of(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!head.keep_alive);
        let head = head_of(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!head.keep_alive, "HTTP/1.0 defaults to close");
        let head = head_of(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(head.keep_alive);
        let head = head_of(
            b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(head.expect_continue);
    }

    #[test]
    fn slo_headers_are_interpreted_and_validated() {
        let head = head_of(
            b"POST /v1/upscale HTTP/1.1\r\nX-Scales-Tenant: acme-2.0\r\nX-Scales-Deadline-Ms: 250\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(head.tenant.as_deref(), Some("acme-2.0"));
        assert_eq!(head.deadline_ms, Some(250));
        let plain = head_of(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(plain.tenant, None);
        assert_eq!(plain.deadline_ms, None);
        // Zero is legal on the wire: the runtime refuses it as expired.
        let due = head_of(b"GET / HTTP/1.1\r\nX-Scales-Deadline-Ms: 0\r\n\r\n");
        assert_eq!(due.deadline_ms, Some(0));
        assert!(matches!(
            err_of(b"GET / HTTP/1.1\r\nX-Scales-Tenant: not a tenant!\r\n\r\n"),
            RequestError::BadHeader { what: "tenant must be 1-64 characters of [A-Za-z0-9._-]" }
        ));
        let long = format!("GET / HTTP/1.1\r\nX-Scales-Tenant: {}\r\n\r\n", "x".repeat(65));
        assert!(matches!(err_of(long.as_bytes()), RequestError::BadHeader { .. }));
        assert!(matches!(
            err_of(b"GET / HTTP/1.1\r\nX-Scales-Deadline-Ms: soon\r\n\r\n"),
            RequestError::BadHeader { what: "deadline must be a decimal number of milliseconds" }
        ));
    }

    #[test]
    fn request_id_header_is_kept_only_when_valid() {
        let head = head_of(
            b"POST /v1/upscale HTTP/1.1\r\nX-Scales-Request-Id: trace-42.a_b\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(head.request_id.as_deref(), Some("trace-42.a_b"));
        // Invalid ids are dropped, never refused: the request still
        // parses and the server will mint a replacement id.
        for hostile in
            ["not an id!", "", &"x".repeat(65), "new\nline"].map(|id| {
                format!("GET / HTTP/1.1\r\nX-Scales-Request-Id: {id}\r\n\r\n")
            })
        {
            // A raw \n inside the value splits the header line; every
            // variant must still parse (possibly as a different split)
            // or fail for a *header* reason, never leave a bad id.
            if let Ok(Some(head)) = reader(hostile.as_bytes()).read_head(&HttpConfig::default()) {
                assert_eq!(head.request_id, None, "hostile id must be dropped: {hostile:?}");
            }
        }
        assert_eq!(head_of(b"GET / HTTP/1.1\r\n\r\n").request_id, None);
    }

    #[test]
    fn bare_lf_lines_and_leading_crlf_are_tolerated() {
        let head = head_of(b"\r\nGET /x HTTP/1.1\nHost: a\n\n");
        assert_eq!(head.target, "/x");
        assert_eq!(head.header("host"), Some("a"));
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        assert!(reader(b"").read_head(&HttpConfig::default()).unwrap().is_none());
    }

    #[test]
    fn hostile_heads_get_typed_errors() {
        assert!(matches!(err_of(b"GET\r\n\r\n"), RequestError::BadRequestLine { .. }));
        assert!(matches!(
            err_of(b"GET /x HTTP/2\r\n\r\n"),
            RequestError::UnsupportedVersion { .. }
        ));
        assert!(matches!(
            err_of(b"G@T /x HTTP/1.1\r\n\r\n"),
            RequestError::BadRequestLine { what: "method is not a token" }
        ));
        assert!(matches!(
            err_of(b"GET x HTTP/1.1\r\n\r\n"),
            RequestError::BadRequestLine { what: "target must be absolute" }
        ));
        assert!(matches!(err_of(b"GET /x HTTP/1.1\r\nbad header\r\n\r\n"), RequestError::BadHeader { .. }));
        assert!(matches!(
            err_of(b"GET /x HTTP/1.1\r\n folded\r\n\r\n"),
            RequestError::BadHeader { what: "obsolete line folding" }
        ));
        assert!(matches!(
            err_of(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            RequestError::UnsupportedTransferEncoding
        ));
        assert!(matches!(
            err_of(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            RequestError::BadContentLength { .. }
        ));
        assert!(matches!(
            err_of(b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"),
            RequestError::BadContentLength { .. }
        ));
        assert!(matches!(
            err_of(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n"),
            RequestError::BadContentLength { what: "conflicting values" }
        ));
        assert!(matches!(err_of(b"GET /x HTTP/1.1\r\nHost: a"), RequestError::UnexpectedEof));
    }

    #[test]
    fn limits_are_enforced() {
        let cfg = HttpConfig { max_line: 16, max_headers: 2, ..HttpConfig::default() };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert!(matches!(
            reader(long.as_bytes()).read_head(&cfg).unwrap_err(),
            RequestError::LineTooLong { limit: 16 }
        ));
        let many = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
        assert!(matches!(
            reader(many).read_head(&cfg).unwrap_err(),
            RequestError::TooManyHeaders { limit: 2 }
        ));
        let big = b"POST / HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n";
        assert!(matches!(
            reader(big).read_head(&HttpConfig::default()).unwrap_err(),
            RequestError::BodyTooLarge { length: 1_000_000_000, .. }
        ));
    }

    #[test]
    fn body_shorter_than_declared_is_unexpected_eof() {
        let mut r = reader(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        let head = r.read_head(&HttpConfig::default()).unwrap().unwrap();
        assert!(matches!(
            r.read_body(head.content_length).unwrap_err(),
            RequestError::UnexpectedEof
        ));
    }
}
