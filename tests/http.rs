//! End-to-end suite for the `scales-http` front end: real TCP loopback
//! connections against a served deployed engine.
//!
//! The headline contract (ISSUE 7 acceptance): a PPM posted over a real
//! socket comes back as `200` with an encoded upscaled image
//! **byte-identical** to encoding `Session::infer` of the same decoded
//! tensor directly — the network edge adds transport, not numerics. On
//! top of that: `/metrics` scrapes parse and count completed requests,
//! keep-alive serves several requests per connection, `Expect:
//! 100-continue` gets its interim response, hostile requests get typed
//! 4xx/5xx statuses without ever killing a worker or hanging a
//! connection, and shutdown drains cleanly and hands back the final
//! runtime stats.

mod common;

use common::{trained_like, with_watchdog};
use scales::core::Method;
use scales::data::codec::{decode_image, encode_image};
use scales::data::{Image, WireFormat};
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, SrConfig};
use scales::runtime::RuntimeConfig;
use scales::serve::{Engine, Precision, SrRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;


fn probe(h: usize, w: usize, seed: u64) -> Image {
    scales::data::synth::scene(
        h,
        w,
        scales::data::synth::SceneConfig::default(),
        &mut scales::nn::init::rng(seed),
    )
}

fn engine(seed: u64) -> Engine<'static> {
    let net =
        srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed })
            .unwrap();
    Engine::builder().model(net).precision(Precision::Deployed).build().unwrap()
}

/// A one-model fleet: the network [`engine`] serves, lowered and
/// registered as `m`.
fn one_model(seed: u64, runtime: RuntimeConfig) -> scales::router::ModelRouter {
    use scales::models::SrNetwork;
    use scales::router::{ModelRouter, RouterConfig};
    let net =
        srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed })
            .unwrap();
    let router = ModelRouter::new(RouterConfig { runtime, ..RouterConfig::default() }).unwrap();
    router.register_model("m", net.lower().unwrap()).unwrap();
    router
}

fn server(seed: u64) -> HttpServer {
    let router = one_model(seed, RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
    HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap()
}

/// Read one full HTTP response (status, lowercased headers, body).
fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed before the response head finished");
        head.push(byte[0]);
    }
    let text = std::str::from_utf8(&head[..head.len() - 4]).expect("response head is UTF-8");
    let mut lines = text.split("\r\n");
    let status_line = lines.next().expect("status line");
    assert!(status_line.starts_with("HTTP/1.1 "), "bad status line: {status_line}");
    let status: u16 = status_line.split(' ').nth(1).expect("status code").parse().unwrap();
    let headers: Vec<(String, String)> = lines
        .map(|line| {
            let (name, value) = line.split_once(':').expect("header line");
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    let length: usize = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map_or(0, |(_, value)| value.parse().unwrap());
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read response body");
    (status, headers, body)
}

/// One-shot request over a fresh connection.
fn send(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw).expect("write request");
    read_response(&mut stream)
}

fn post_image(path: &str, format: WireFormat, payload: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Type: {}\r\nContent-Length: {}\r\n\r\n",
        format.content_type(),
        payload.len()
    )
    .into_bytes();
    raw.extend_from_slice(payload);
    raw
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// The acceptance headline: wire round trip == direct `Session::infer`,
/// byte for byte, and `/metrics` records the request.
#[test]
fn upscale_over_tcp_matches_direct_session_byte_for_byte() {
    with_watchdog(120, "tcp-bit-identity", || {
        let server = server(11);
        let addr = server.addr();
        let posted = encode_image(&probe(14, 11, 3), WireFormat::Ppm).unwrap();

        let (status, headers, wire_body) =
            send(addr, &post_image("/v1/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&wire_body));
        assert_eq!(header(&headers, "content-type"), Some("image/x-portable-pixmap"));

        // The same computation without the network: decode what was
        // posted, infer on an identical serial engine, encode.
        let (decoded, format) = decode_image(&posted).unwrap();
        assert_eq!(format, WireFormat::Ppm);
        let serial = engine(11);
        let direct = serial.session().infer(SrRequest::single(decoded)).unwrap();
        let direct_body = encode_image(&direct.images()[0], WireFormat::Ppm).unwrap();
        assert_eq!(
            wire_body, direct_body,
            "wire response must be byte-identical to the direct inference encoding"
        );

        // The one model is the default: its named route answers the same
        // bytes, and both traces name it.
        let (status, _, named_body) =
            send(addr, &post_image("/v1/models/m/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&named_body));
        assert_eq!(named_body, wire_body, "/v1/upscale serves the fleet's only model");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.traces().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "both traces must be recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        for trace in server.traces() {
            assert_eq!(trace.model.as_deref(), Some("m"), "{trace:?}");
        }

        // The scrape parses and shows the completed request.
        let (status, _, metrics) = send(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).expect("metrics are UTF-8");
        let mut completed = None;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            let value: f64 = value.parse().unwrap_or_else(|_| {
                panic!("metric value must parse as a number: {line:?}")
            });
            if name == "scales_model_requests_completed_total{model=\"m\"}" {
                completed = Some(value);
            }
        }
        assert!(
            completed.expect("scrape includes the completed counter") >= 1.0,
            "at least the upscale request must be counted"
        );
        let stats = server.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed >= 1);
    });
}

#[test]
fn png_round_trip_over_the_wire() {
    with_watchdog(120, "png-wire", || {
        let server = server(12);
        let posted = encode_image(&probe(10, 13, 5), WireFormat::Png).unwrap();
        let (status, headers, wire_body) =
            send(server.addr(), &post_image("/v1/upscale", WireFormat::Png, &posted));
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&wire_body));
        assert_eq!(header(&headers, "content-type"), Some("image/png"));

        let (decoded, _) = decode_image(&posted).unwrap();
        let direct = engine(12).session().infer(SrRequest::single(decoded)).unwrap();
        assert_eq!(wire_body, encode_image(&direct.images()[0], WireFormat::Png).unwrap());
        let _ = server.shutdown();
    });
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    with_watchdog(120, "keep-alive", || {
        let server = server(13);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, headers, body) = read_response(&mut stream);
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));

        // Second request — an actual inference — on the same socket.
        let posted = encode_image(&probe(9, 9, 1), WireFormat::Ppm).unwrap();
        stream.write_all(&post_image("/v1/upscale", WireFormat::Ppm, &posted)).unwrap();
        let (status, _, _) = read_response(&mut stream);
        assert_eq!(status, 200);

        // And a third, asking the server to close.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("close"));
        let _ = server.shutdown();
    });
}

/// Timeouts too long to represent as an instant are no bound at all: a
/// server configured with `Duration::MAX` for both serves requests,
/// keeps an idle connection open past the idle poll, and still drains
/// on shutdown.
#[test]
fn unrepresentable_timeouts_serve_a_keep_alive_round_trip() {
    with_watchdog(120, "max-timeouts", || {
        let router = one_model(14, RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
        let config = HttpConfig {
            read_timeout: Duration::MAX,
            request_timeout: Duration::MAX,
            ..HttpConfig::default()
        };
        let server = HttpServer::bind_router("127.0.0.1:0", router, config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let posted = encode_image(&probe(9, 9, 2), WireFormat::Ppm).unwrap();
        for _ in 0..2 {
            stream.write_all(&post_image("/v1/upscale", WireFormat::Ppm, &posted)).unwrap();
            let (status, headers, body) = read_response(&mut stream);
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            assert_eq!(header(&headers, "connection"), Some("keep-alive"));
            // Idle in the one blocking read, whose unbounded socket
            // timeout must not close the connection.
            std::thread::sleep(Duration::from_millis(120));
        }
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.failed), (2, 0));
    });
}

#[test]
fn expect_continue_gets_the_interim_response() {
    with_watchdog(120, "expect-continue", || {
        let server = server(14);
        let payload = encode_image(&probe(8, 8, 2), WireFormat::Ppm).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream
            .write_all(
                format!(
                    "POST /v1/upscale HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
                    payload.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let (status, _, body) = read_response(&mut stream);
        assert_eq!(status, 100, "interim response first");
        assert!(body.is_empty());
        stream.write_all(&payload).unwrap();
        let (status, _, _) = read_response(&mut stream);
        assert_eq!(status, 200);
        let _ = server.shutdown();
    });
}

/// Hostile traffic: every malformed request maps to its typed status and
/// the server keeps serving afterwards — no worker panic, no hang.
#[test]
fn hostile_requests_get_typed_statuses_and_the_server_survives() {
    with_watchdog(240, "hostile", || {
        let server = server(15);
        let addr = server.addr();
        let good_ppm = encode_image(&probe(8, 8, 4), WireFormat::Ppm).unwrap();
        let good_png = encode_image(&probe(8, 8, 4), WireFormat::Png).unwrap();

        // (label, raw request, expected status)
        let mut cases: Vec<(&str, Vec<u8>, u16)> = vec![
            ("garbage body", post_image("/v1/upscale", WireFormat::Ppm, b"not an image"), 415),
            (
                "truncated ppm",
                post_image("/v1/upscale", WireFormat::Ppm, &good_ppm[..good_ppm.len() - 3]),
                400,
            ),
            (
                "absurd ppm dimensions",
                post_image("/v1/upscale", WireFormat::Ppm, b"P6\n999999 999999\n255\n\0"),
                400,
            ),
            ("no content-length", b"POST /v1/upscale HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 411),
            (
                "chunked framing",
                b"POST /v1/upscale HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
                    .to_vec(),
                501,
            ),
            (
                "oversized declared body",
                b"POST /v1/upscale HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999999\r\n\r\n"
                    .to_vec(),
                413,
            ),
            ("bad request line", b"WHAT\r\n\r\n".to_vec(), 400),
            ("http/2 preface", b"GET /healthz HTTP/2\r\n\r\n".to_vec(), 505),
            ("wrong method", b"GET /v1/upscale HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 405),
            ("unknown route", b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 404),
        ];
        // PNG with one IDAT payload byte flipped: the chunk CRC catches it.
        let mut corrupt = good_png.clone();
        let idat = corrupt.windows(4).position(|w| w == b"IDAT").expect("IDAT chunk") + 6;
        corrupt[idat] ^= 0xff;
        cases.push(("png crc mismatch", post_image("/v1/upscale", WireFormat::Png, &corrupt), 400));

        for (label, raw, expected) in cases {
            let (status, _, body) = send(addr, &raw);
            assert_eq!(
                status,
                expected,
                "{label}: body {}",
                String::from_utf8_lossy(&body)
            );
            assert!(!body.is_empty(), "{label}: error responses carry the typed Display text");
        }

        // Wrong-method answers advertise what is allowed.
        let (_, headers, _) = send(addr, b"DELETE /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(header(&headers, "allow"), Some("GET, HEAD"));

        // After all of that, the server still upscales.
        let (status, _, _) = send(addr, &post_image("/v1/upscale", WireFormat::Ppm, &good_ppm));
        assert_eq!(status, 200, "server must survive hostile traffic");
        let stats = server.shutdown();
        assert_eq!(stats.failed, 0, "hostile wire input must never reach a worker as a failure");
    });
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    with_watchdog(120, "shutdown", || {
        let server = server(16);
        let addr = server.addr();
        let posted = encode_image(&probe(8, 8, 6), WireFormat::Ppm).unwrap();
        for _ in 0..3 {
            let (status, _, _) = send(addr, &post_image("/v1/upscale", WireFormat::Ppm, &posted));
            assert_eq!(status, 200);
        }
        let stats = server.shutdown();
        assert!(stats.completed >= 3);
        assert_eq!(stats.failed, 0);
        // The listener is gone: a fresh connection cannot complete a
        // request (connect may succeed briefly on some stacks, but no
        // response ever comes).
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut stream) = refused {
            stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = [0u8; 1];
            assert!(
                !matches!(stream.read(&mut buf), Ok(n) if n > 0),
                "a shut-down server must not answer"
            );
        }
    });
}

/// A keep-alive connection that stays quiet past `read_timeout` is closed
/// without a response: the server's one idle read times out, and the
/// client reads end of stream, no sooner than the timeout.
///
/// Kills the mutant that takes a connection's clone back out of its idle
/// slot only after a read that got bytes: after the timeout the clone
/// stays in the slot and keeps the socket open, so the client's read
/// never returns and fails on its own 30 s timeout instead.
#[test]
fn an_idle_keep_alive_connection_closes_at_the_read_timeout() {
    with_watchdog(120, "idle-timeout", || {
        let router = one_model(20, RuntimeConfig { workers: 1, ..RuntimeConfig::default() });
        let config = HttpConfig { read_timeout: Duration::from_millis(100), ..HttpConfig::default() };
        let server = HttpServer::bind_router("127.0.0.1:0", router, config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, headers, _) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));

        let idle = std::time::Instant::now();
        let mut buf = [0u8; 16];
        let read = stream.read(&mut buf).expect("the server closes before the client's own timeout");
        let waited = idle.elapsed();
        assert_eq!(read, 0, "an idle close sends no bytes: {:?}", &buf[..read]);
        // The kernel's timer may round the 100 ms down by a tick, and the
        // client's clock starts a little after the server's read began.
        assert!(waited >= Duration::from_millis(80), "closed after {waited:?}, before the read timeout");
        assert!(waited < Duration::from_secs(10), "closed after {waited:?}");
        let _ = server.shutdown();
    });
}

/// Shutdown with a request in flight: the connection that is mid-upload
/// still gets its `200` (with `Connection: close`), while the idle
/// keep-alive connection is woken and closed without a response.
///
/// Kills, each tried on a scratch copy: `stop` shutting the read half of
/// every live connection, not only the idle ones (A's body read hits end
/// of stream and A gets a `400`); a worker that never takes its clone
/// back, so it stays published mid-request (the same `400`); and `stop`
/// waking no idle connection (B's read outlasts its own 30 s timeout).
#[test]
fn shutdown_completes_a_request_in_flight_and_closes_idle_connections() {
    with_watchdog(120, "shutdown-in-flight", || {
        let router = one_model(21, RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
        let config = HttpConfig { read_timeout: Duration::from_secs(60), ..HttpConfig::default() };
        let server = HttpServer::bind_router("127.0.0.1:0", router, config).unwrap();
        let posted = encode_image(&probe(9, 9, 8), WireFormat::Ppm).unwrap();

        // A: the head and half the body. The interim `100 Continue` shows
        // its worker has parsed the head and is reading the body.
        let mut a = TcpStream::connect(server.addr()).unwrap();
        a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let head = format!(
            "POST /v1/upscale HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
            posted.len()
        );
        a.write_all(head.as_bytes()).unwrap();
        assert_eq!(read_response(&mut a).0, 100);
        let (first, rest) = posted.split_at(posted.len() / 2);
        a.write_all(first).unwrap();

        // B: one finished request, then idle on keep-alive.
        let mut b = TcpStream::connect(server.addr()).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        b.write_all(&post_image("/v1/upscale", WireFormat::Ppm, &posted)).unwrap();
        let (status, headers, _) = read_response(&mut b);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));

        let stopping = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(100));

        a.write_all(rest).unwrap();
        let (status, headers, body) = read_response(&mut a);
        assert_eq!(status, 200, "in-flight request: {}", String::from_utf8_lossy(&body));
        assert_eq!(header(&headers, "connection"), Some("close"));

        let mut buf = [0u8; 16];
        let read = b.read(&mut buf).expect("the idle connection is closed, not left to time out");
        assert_eq!(read, 0, "an idle connection closes without a response: {:?}", &buf[..read]);

        let stats = stopping.join().expect("shutdown thread");
        assert_eq!((stats.completed, stats.failed), (2, 0));
    });
}

/// Shutdown with a peer stalled mid-head: the worker reading the head is
/// woken like an idle one, so `shutdown()` returns at once instead of
/// waiting out the 30 s read timeout, and the peer gets no response.
///
/// Kills the worker that takes its clone back out of its idle slot after
/// the first read of a head instead of once the head parses: `shutdown()`
/// then waits for the read timeout.
#[test]
fn shutdown_wakes_a_peer_stalled_mid_head() {
    with_watchdog(120, "shutdown-mid-head", || {
        let router = one_model(22, RuntimeConfig { workers: 1, ..RuntimeConfig::default() });
        let config = HttpConfig { read_timeout: Duration::from_secs(30), ..HttpConfig::default() };
        let server = HttpServer::bind_router("127.0.0.1:0", router, config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        // Time for the worker to take the request line and block on the
        // rest of the head.
        std::thread::sleep(Duration::from_millis(200));

        let started = std::time::Instant::now();
        let stats = server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
        let mut buf = [0u8; 16];
        let read = stream.read(&mut buf);
        assert!(!matches!(read, Ok(n) if n > 0), "a stalled head gets no response: {read:?}");
        assert_eq!((stats.completed, stats.failed), (0, 0));
    });
}

/// The SLO surface over the wire: a tenant tag rides in on
/// `X-Scales-Tenant` and comes back out as per-tenant Prometheus series,
/// an invalid tenant is a `400` before any decode work, and an
/// already-expired `X-Scales-Deadline-Ms` is a `504 Gateway Timeout`
/// (no `Retry-After` — the peer needs a bigger budget, not a backoff).
#[test]
fn slo_headers_drive_tenants_deadlines_and_typed_statuses() {
    with_watchdog(120, "slo-surface", || {
        let server = server(19);
        let addr = server.addr();
        let posted = encode_image(&probe(9, 8, 7), WireFormat::Ppm).unwrap();
        let tagged_post = |extra: &str| {
            let mut raw = format!(
                "POST /v1/upscale HTTP/1.1\r\nHost: t\r\nContent-Type: {}\r\n{extra}Content-Length: {}\r\n\r\n",
                WireFormat::Ppm.content_type(),
                posted.len()
            )
            .into_bytes();
            raw.extend_from_slice(&posted);
            raw
        };

        // A tagged upscale serves normally.
        let (status, _, body) = send(addr, &tagged_post("X-Scales-Tenant: acme\r\n"));
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));

        // An invalid tenant name is refused before any decoding.
        let (status, _, body) = send(addr, &tagged_post("X-Scales-Tenant: not ok\r\n"));
        assert_eq!(status, 400);
        assert!(
            String::from_utf8_lossy(&body).contains("tenant"),
            "the 400 names the offending header: {}",
            String::from_utf8_lossy(&body)
        );

        // A deadline that is already due is a gateway timeout, served
        // without inviting a retry.
        let (status, headers, body) =
            send(addr, &tagged_post("X-Scales-Deadline-Ms: 0\r\n"));
        assert_eq!(status, 504, "body: {}", String::from_utf8_lossy(&body));
        assert_eq!(
            header(&headers, "retry-after"),
            None,
            "a missed deadline is the caller's budget, not server overload"
        );
        assert!(
            String::from_utf8_lossy(&body).contains("deadline"),
            "the 504 explains the expiry: {}",
            String::from_utf8_lossy(&body)
        );

        // The first scrape carries the tenant lane and the expired refusal:
        // a dispatch is booked before its tickets resolve, so the response
        // above is already counted in every scope.
        let (status, _, metrics) = send(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).unwrap();
        for needle in [
            "scales_model_tenant_requests_completed_total{model=\"m\",tenant=\"acme\"} 1",
            "scales_model_tenant_queue_depth{model=\"m\",tenant=\"acme\"} 0",
            "scales_model_tenant_weight{model=\"m\",tenant=\"acme\"} 1",
            "scales_model_requests_expired_total{model=\"m\"} 1",
        ] {
            assert!(text.contains(needle), "metrics must contain {needle}:\n{text}");
        }

        let stats = server.shutdown();
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 1);
    });
}

/// The tracing contract end to end (ISSUE 10 acceptance): a traced POST
/// echoes its `X-Scales-Request-Id`, its trace lands in the flight
/// recorder with all eight stage spans telescoping exactly to the
/// total, and `/metrics` gains the per-stage histograms — while an
/// invalid client id is replaced, never refused.
#[test]
fn traced_requests_echo_ids_and_land_in_the_flight_recorder() {
    use scales::telemetry::{Stage, STAGES};

    with_watchdog(120, "trace-e2e", || {
        let server = server(21);
        let addr = server.addr();
        let posted = encode_image(&probe(12, 10, 9), WireFormat::Ppm).unwrap();
        let tagged = |id: &str| {
            let mut raw = format!(
                "POST /v1/upscale HTTP/1.1\r\nHost: t\r\nX-Scales-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n",
                posted.len()
            )
            .into_bytes();
            raw.extend_from_slice(&posted);
            raw
        };

        // A valid client id is echoed verbatim.
        let (status, headers, body) = send(addr, &tagged("e2e-trace-1"));
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
        assert_eq!(header(&headers, "x-scales-request-id"), Some("e2e-trace-1"));

        // An invalid id is replaced with a generated one — the request
        // still serves and every response still carries *an* id.
        let (status, headers, _) = send(addr, &tagged("not%20an%20id"));
        assert_eq!(status, 200);
        let minted = header(&headers, "x-scales-request-id").expect("every response carries an id");
        assert_ne!(minted, "not%20an%20id");

        // Even a malformed head gets an id on its 400.
        let (status, headers, _) = send(addr, b"WHAT\r\n\r\n");
        assert_eq!(status, 400);
        assert!(header(&headers, "x-scales-request-id").is_some());

        // The trace is recorded after the response is written; poll the
        // typed API briefly rather than racing it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let trace = loop {
            if let Some(t) =
                server.traces().into_iter().find(|t| t.id.as_str() == "e2e-trace-1")
            {
                break t;
            }
            assert!(std::time::Instant::now() < deadline, "trace must appear in the recorder");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(trace.status, 200);
        assert!(trace.total_ns > 0);
        assert_eq!(
            trace.stage_ns.iter().sum::<u64>(),
            trace.total_ns,
            "telescoping spans must sum exactly to the total: {:?}",
            trace.stage_ns
        );
        for stage in [Stage::Parse, Stage::Decode, Stage::Infer, Stage::Encode, Stage::Write] {
            assert!(
                trace.stage(stage) > 0,
                "stage {} must have measurable time: {:?}",
                STAGES[stage as usize],
                trace.stage_ns
            );
        }

        // The same trace is retrievable over the wire, with every stage
        // key present in the JSON document.
        let (status, headers, body) =
            send(addr, b"GET /v1/debug/traces HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "content-type"), Some("application/json"));
        let doc = String::from_utf8(body).unwrap();
        assert!(doc.contains("\"id\":\"e2e-trace-1\""), "trace must be in the document: {doc}");
        for name in STAGES {
            assert!(doc.contains(&format!("\"{name}\":")), "stage key {name} missing: {doc}");
        }

        // The scrape now carries the per-stage histograms on both sides
        // of the queue.
        let (_, _, metrics) = send(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        let text = String::from_utf8(metrics).unwrap();
        for needle in [
            "scales_http_stage_seconds_bucket{stage=\"decode\",le=",
            "scales_http_stage_seconds_bucket{stage=\"encode\",le=",
            "scales_http_stage_seconds_bucket{stage=\"write\",le=",
            "scales_model_stage_seconds_bucket{model=\"m\",stage=\"queue_wait\",le=",
            "scales_model_stage_seconds_bucket{model=\"m\",stage=\"infer\",le=",
            "scales_http_refused_total 0",
        ] {
            assert!(text.contains(needle), "metrics must contain {needle}");
        }

        let stats = server.shutdown();
        assert_eq!(stats.failed, 0);
    });
}

/// The flight recorder's rings over the wire: a 2× burst wraps the
/// recent ring at exactly its capacity, and the slow ring (threshold
/// forced to 1 ns so everything qualifies) retains its own bounded set.
#[test]
fn flight_recorder_rings_wrap_over_the_wire() {
    with_watchdog(120, "ring-wrap", || {
        let router = one_model(22, RuntimeConfig { workers: 1, ..RuntimeConfig::default() });
        let server = HttpServer::bind_router(
            "127.0.0.1:0",
            router,
            HttpConfig {
                trace_capacity: 4,
                slow_threshold: Duration::from_nanos(1),
                slow_trace_capacity: 2,
                ..HttpConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        for _ in 0..8 {
            let (status, _, _) = send(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(status, 200);
        }
        // Recording happens just after the response write; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.traces().len() < 4 || server.slow_traces().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "rings must fill");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.traces().len(), 4, "the recent ring holds exactly its capacity");
        assert_eq!(server.slow_traces().len(), 2, "the slow ring is bounded separately");

        // The wire view agrees.
        let (status, _, body) =
            send(addr, b"GET /v1/debug/traces?slow=1 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            String::from_utf8(body).unwrap().starts_with("{\"count\":2,"),
            "the slow document reports its bounded count"
        );
        let _ = server.shutdown();
    });
}

/// Hostile sweep over the debug endpoints: bad queries are 400s, wrong
/// methods are 405s advertising `Allow`, HEAD answers headers-only, an
/// unknown fleet model is a 404, and unknown debug paths stay 404.
#[test]
fn debug_endpoints_survive_hostile_queries_and_methods() {
    use scales::models::SrNetwork;
    use scales::router::{ModelRouter, RouterConfig};

    with_watchdog(240, "debug-hostile", || {
        // A one-model server first.
        let server = server(23);
        let addr = server.addr();
        let cases: [(&str, &[u8], u16); 4] = [
            (
                "bad traces query",
                b"GET /v1/debug/traces?bogus=1 HTTP/1.1\r\nHost: t\r\n\r\n",
                400,
            ),
            (
                "bad profile query",
                b"GET /v1/debug/profile?x HTTP/1.1\r\nHost: t\r\n\r\n",
                400,
            ),
            ("unknown debug path", b"GET /v1/debug/nope HTTP/1.1\r\nHost: t\r\n\r\n", 404),
            (
                "wrong method",
                b"POST /v1/debug/traces HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
                405,
            ),
        ];
        for (label, raw, expected) in cases {
            let (status, headers, body) = send(addr, raw);
            assert_eq!(status, expected, "{label}: {}", String::from_utf8_lossy(&body));
            assert!(
                header(&headers, "x-scales-request-id").is_some(),
                "{label}: refusals carry a trace id too"
            );
            if expected == 405 {
                assert_eq!(header(&headers, "allow"), Some("GET, HEAD"), "{label}");
            }
        }

        // HEAD answers the head only: full Content-Length, no body.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream
            .write_all(b"HEAD /v1/debug/traces HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            let n = stream.read(&mut byte).expect("read HEAD response head");
            assert!(n > 0, "connection closed before the head finished");
            raw.push(byte[0]);
        }
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "HEAD must succeed: {text}");
        assert!(!text.lines().any(|l| l.starts_with("Content-Length: 0")), "{text}");
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "HEAD must not send a body");

        // The server survives the sweep.
        let (status, _, _) = send(addr, b"GET /v1/debug/traces HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let _ = server.shutdown();

        // Fleet mode: ?model routes, and an unknown name is a 404.
        let router = ModelRouter::new(RouterConfig {
            runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
            ..RouterConfig::default()
        })
        .unwrap();
        router.register_model("alpha", fleet_net(24).lower().unwrap()).unwrap();
        let fleet =
            HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap();
        let (status, _, body) =
            send(fleet.addr(), b"GET /v1/debug/profile?model=alpha HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let doc = String::from_utf8(body).unwrap();
        assert!(doc.contains("\"model\":\"alpha\""), "{doc}");
        let (status, _, _) =
            send(fleet.addr(), b"GET /v1/debug/profile?model=nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404, "unknown model on the profile endpoint");
        let _ = fleet.shutdown();
    });
}

/// The opt-in profiler over the wire: with `profile_ops` on, the debug
/// endpoint attributes forward wall time to named op kinds and the
/// scrape carries the `scales_model_plan_op_*` series.
#[test]
fn opt_in_profiler_reports_per_op_time_over_the_wire() {
    with_watchdog(120, "profiler-e2e", || {
        let router =
            one_model(25, RuntimeConfig { workers: 1, profile_ops: true, ..RuntimeConfig::default() });
        let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap();
        let addr = server.addr();
        let posted = encode_image(&probe(10, 10, 2), WireFormat::Ppm).unwrap();
        let (status, _, _) = send(addr, &post_image("/v1/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 200);

        let (status, _, body) =
            send(addr, b"GET /v1/debug/profile HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let doc = String::from_utf8(body).unwrap();
        assert!(doc.contains("\"model\":\"m\""), "the profile names its model: {doc}");
        for needle in ["\"op\":\"body_conv\"", "\"op\":\"bicubic_up\"", "\"total_ns\":"] {
            assert!(doc.contains(needle), "profile must contain {needle}: {doc}");
        }
        assert!(!doc.contains("\"total_ns\":0,"), "profiled ops must carry time: {doc}");

        let (_, _, metrics) = send(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        let text = String::from_utf8(metrics).unwrap();
        for needle in [
            "scales_model_plan_op_calls_total{model=\"m\",op=\"body_conv\"}",
            "scales_model_plan_op_seconds_total{model=\"m\",op=",
        ] {
            assert!(text.contains(needle), "metrics must contain {needle}");
        }
        let _ = server.shutdown();
    });
}

/// A deployable network whose output is bitwise distinguishable per seed:
/// freshly built nets all answer exactly the bicubic baseline, so it is
/// [`trained_like`].
fn fleet_net(seed: u64) -> impl scales::models::SrNetwork {
    let config = SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed };
    trained_like(srresnet(config).unwrap())
}

/// The fleet surface end to end: list as JSON, route by name
/// byte-identically to a direct session over the same artifact, typed
/// 404/405/409 refusals, a zero-downtime reload over the wire, and
/// per-model Prometheus series.
#[test]
fn fleet_routes_lists_reloads_and_reports_per_model_metrics() {
    use scales::models::SrNetwork;
    use scales::router::{ModelRouter, RouterConfig};

    with_watchdog(240, "fleet", || {
        let dir = std::env::temp_dir().join(format!("scales-http-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("alpha.dep.sca");
        scales::io::save_artifact(&artifact, &fleet_net(71).lower().unwrap()).unwrap();

        let router = ModelRouter::new(RouterConfig {
            memory_budget: None,
            runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
            ..RouterConfig::default()
        })
        .unwrap();
        router.register_path("alpha", &artifact).unwrap();
        router.register_model("beta", fleet_net(72).lower().unwrap()).unwrap();
        let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap();
        let addr = server.addr();

        // The fleet document is JSON with both models serving.
        let (status, headers, body) = send(addr, b"GET /v1/models HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "content-type"), Some("application/json"));
        let list = String::from_utf8(body).unwrap();
        for needle in [
            "\"name\":\"alpha\"",
            "\"name\":\"beta\"",
            "\"arch\":\"SRResNet\"",
            "\"state\":\"serving\"",
            "\"reloadable\":true",
            "\"reloadable\":false",
            "\"version\":1",
        ] {
            assert!(list.contains(needle), "fleet document must contain {needle}: {list}");
        }

        // Routing by name over the wire is byte-identical to a direct
        // serial engine over the same artifact.
        let posted = encode_image(&probe(10, 9, 8), WireFormat::Ppm).unwrap();
        let (decoded, _) = decode_image(&posted).unwrap();
        let direct = |path: &std::path::Path| {
            let engine = Engine::builder().model_path(path).build().unwrap();
            let out = engine.session().infer(SrRequest::single(decoded.clone())).unwrap();
            encode_image(&out.images()[0], WireFormat::Ppm).unwrap()
        };
        let want_v1 = direct(&artifact);
        let (status, _, wire) =
            send(addr, &post_image("/v1/models/alpha/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&wire));
        assert_eq!(wire, want_v1, "routed response must match the direct engine byte-for-byte");

        let (status, _, beta_wire) =
            send(addr, &post_image("/v1/models/beta/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 200);
        assert_ne!(beta_wire, want_v1, "the two models must answer differently");

        // Typed refusals on the fleet surface.
        let (status, _, body) =
            send(addr, &post_image("/v1/models/nope/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 404, "unknown model: {}", String::from_utf8_lossy(&body));
        let (status, _, body) = send(addr, &post_image("/v1/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 404, "single-runtime route in fleet mode: {}",
            String::from_utf8_lossy(&body));
        assert_eq!(body, b"this server routes by model name; POST /v1/models/{name}/upscale\n");
        let (status, headers, _) =
            send(addr, b"GET /v1/models/alpha/upscale HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        assert_eq!(header(&headers, "allow"), Some("POST"));
        let (status, _, body) =
            send(addr, b"POST /v1/models/beta/reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(status, 409, "pinned model reload: {}", String::from_utf8_lossy(&body));

        // Hot-swap over the wire: replace the artifact, reload, and the
        // route serves the new version.
        scales::io::save_artifact(&artifact, &fleet_net(73).lower().unwrap()).unwrap();
        let want_v2 = direct(&artifact);
        assert_ne!(want_v1, want_v2, "the swapped artifact must be distinguishable");
        let (status, _, body) =
            send(addr, b"POST /v1/models/alpha/reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        let reloaded = String::from_utf8(body).unwrap();
        assert_eq!(status, 200, "reload: {reloaded}");
        assert!(reloaded.contains("\"version\":2"), "reload reports the new version: {reloaded}");
        let (status, _, wire) =
            send(addr, &post_image("/v1/models/alpha/upscale", WireFormat::Ppm, &posted));
        assert_eq!(status, 200);
        assert_eq!(wire, want_v2, "post-reload responses must be the new version");

        // The scrape carries per-model series.
        let (status, _, metrics) = send(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).unwrap();
        for needle in [
            "scales_model_requests_completed_total{model=\"alpha\"}",
            "scales_model_requests_completed_total{model=\"beta\"}",
            "scales_model_memory_bytes{model=\"alpha\"}",
            "scales_model_version{model=\"alpha\"} 2",
            "scales_model_swaps_total{model=\"alpha\"} 1",
            "scales_model_requests_quota_rejected_total{model=\"alpha\"} 0",
            "scales_model_requests_quota_rejected_total{model=\"beta\"} 0",
            "scales_http_requests_total",
        ] {
            assert!(text.contains(needle), "metrics must contain {needle}");
        }

        let stats = server.shutdown();
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.completed, 3, "both alpha versions and beta served one upscale each");
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Regression (ISSUE 8 bugfix): an unroutable request that declares a
/// body must get its final status *immediately* — no `100 Continue`
/// inviting a doomed upload — and the connection closes so the unread
/// body cannot desynchronize keep-alive framing.
#[test]
fn unroutable_requests_with_bodies_get_the_final_status_immediately() {
    with_watchdog(120, "no-continue-on-unroutable", || {
        let server = server(17);
        let addr = server.addr();

        // (label, request head declaring a body that is never sent, expected status)
        let cases: [(&str, &str, u16); 3] = [
            (
                "unknown route",
                "POST /nope HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: 64\r\n\r\n",
                404,
            ),
            (
                "wrong method on upscale",
                "PUT /v1/upscale HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: 64\r\n\r\n",
                405,
            ),
            (
                "wrong method on metrics",
                "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\n",
                405,
            ),
        ];
        for (label, head, expected) in cases {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            stream.write_all(head.as_bytes()).unwrap();
            // The *first* thing on the wire is the final status — not 100.
            let (status, headers, _) = read_response(&mut stream);
            assert_eq!(status, expected, "{label}: final status, never an interim 100");
            assert_eq!(
                header(&headers, "connection"),
                Some("close"),
                "{label}: the unread body forces the connection closed"
            );
            // And the server really does close rather than waiting for
            // the declared body.
            let mut probe_buf = [0u8; 1];
            assert_eq!(
                stream.read(&mut probe_buf).unwrap_or(0),
                0,
                "{label}: connection must close without the body"
            );
        }

        // The server is unharmed.
        let (status, _, _) = send(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let _ = server.shutdown();

        // An empty fleet has no model to default to: `/v1/upscale` is
        // unroutable there, answered at once and closed.
        let empty = scales::router::ModelRouter::new(scales::router::RouterConfig::default()).unwrap();
        let empty = HttpServer::bind_router("127.0.0.1:0", empty, HttpConfig::default()).unwrap();
        let mut stream = TcpStream::connect(empty.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream
            .write_all(b"POST /v1/upscale HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: 64\r\n\r\n")
            .unwrap();
        let (status, headers, body) = read_response(&mut stream);
        assert_eq!(status, 404, "empty fleet: final status, never an interim 100");
        assert_eq!(body, b"this server routes by model name; POST /v1/models/{name}/upscale\n");
        assert_eq!(header(&headers, "connection"), Some("close"));
        let _ = empty.shutdown();
    });
}

/// Regression (ISSUE 8 bugfix): refusing connections off a full backlog
/// happens on a detached thread, so a refused peer that never reads its
/// `503` cannot stall the accept loop — refusals keep flowing and the
/// occupied worker keeps serving.
#[test]
fn full_backlog_refusals_do_not_block_the_accept_loop() {
    with_watchdog(120, "backlog-refusal", || {
        let router = one_model(18, RuntimeConfig { workers: 1, ..RuntimeConfig::default() });
        let server = HttpServer::bind_router(
            "127.0.0.1:0",
            router,
            HttpConfig { workers: 1, max_pending: 1, ..HttpConfig::default() },
        )
        .unwrap();
        let addr = server.addr();

        // Occupy the single worker and fill the one-slot backlog with
        // idle connections that send nothing.
        let mut occupant = TcpStream::connect(addr).unwrap();
        occupant.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let mut queued = TcpStream::connect(addr).unwrap();
        queued.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // A slow reader: refused, but never reads its 503. With the
        // refusal written synchronously on the accept thread, this peer
        // could wedge `accept()` for everyone; it must not.
        let stalled = TcpStream::connect(addr).unwrap();

        // Every further connection is promptly refused with a 503 — one
        // after another, which is exactly what a blocked accept loop
        // could not deliver.
        for i in 0..3 {
            let mut refused = TcpStream::connect(addr).unwrap();
            refused.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let (status, headers, body) = read_response(&mut refused);
            assert_eq!(status, 503, "refusal {i}: {}", String::from_utf8_lossy(&body));
            assert_eq!(
                header(&headers, "retry-after"),
                Some("1"),
                "refusal {i}: overload refusals must tell the peer when to come back"
            );
            assert!(
                header(&headers, "x-scales-request-id").is_some(),
                "refusal {i}: even edge refusals carry a trace id"
            );
        }

        // The occupied worker was never disturbed: the first connection
        // still gets served, and closing it lets the queued one through.
        occupant.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut occupant);
        assert_eq!(status, 200, "the occupant connection is still live");
        drop(occupant);
        queued.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut queued);
        assert_eq!(status, 200, "the queued connection gets a worker after the occupant leaves");

        // The refusals are no longer invisible: the scrape counts them.
        drop(queued);
        let (status, _, metrics) = send(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).unwrap();
        let refused_line = text
            .lines()
            .find(|l| l.starts_with("scales_http_refused_total"))
            .expect("the scrape exposes the refused counter");
        let count: u64 = refused_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count >= 3, "all three refusals must be counted: {refused_line}");

        drop(stalled);
        let stats = server.shutdown();
        assert_eq!(stats.failed, 0);
    });
}
