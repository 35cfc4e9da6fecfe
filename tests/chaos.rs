//! Chaos suite: injected failures against the serving stack, proving the
//! robustness contract — **every accepted ticket resolves with a typed
//! outcome and the stack keeps serving** — under worker death, transient
//! artifact IO failures during a hot reload, and a stalled peer while the
//! runtime sheds load.
//!
//! The `scales-faults` registry is process-global and the harness runs
//! `#[test]`s concurrently, so every scenario takes [`CHAOS`] and resets
//! the registry before arming anything.

use scales::core::Method;
use scales::data::codec::encode_image;
use scales::data::{Image, WireFormat};
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::router::{ModelRouter, RouterConfig, RouterError};
use scales::runtime::{Runtime, RuntimeConfig, ServeError, ShedPolicy, SubmitError, Ticket};
use scales::serve::{Engine, Precision, SrRequest};
use scales_faults::{self as faults, FaultAction};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the chaos scenarios: armed faults are process-global state.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    faults::reset();
    guard
}

/// Run `f` on a helper thread and fail the test if it has not finished
/// within `secs` — an unresolved ticket anywhere must be a clean test
/// failure, not a stuck CI job.
fn with_watchdog<T: Send + 'static>(
    secs: u64,
    label: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::Builder::new()
        .name(format!("watchdog-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog runner");
    let result = rx
        .recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("watchdog: {label} did not finish within {secs}s"));
    runner.join().expect("watchdog runner panicked");
    result
}

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

/// A worker panics mid-dispatch under sustained load: the poisoned
/// dispatch resolves as a typed failure (never a hang), every other
/// ticket is served, and the survivor worker keeps the runtime open for
/// business afterwards.
#[test]
fn a_worker_panic_mid_dispatch_resolves_its_ticket_and_service_continues() {
    let _chaos = chaos_lock();
    with_watchdog(120, "worker-panic", || {
        let runtime = Runtime::spawn(
            engine(31),
            RuntimeConfig {
                workers: 2,
                max_batch: 1,
                max_wait: Duration::ZERO,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // Exactly one dispatch dies; max_batch 1 pins the blast radius to
        // one request.
        let _fault = faults::arm_times("runtime.dispatch", FaultAction::Panic, 1);

        let tickets: Vec<Ticket> = (0..16)
            .map(|i| runtime.submit(SrRequest::single(probe(6, 6, 3_100 + i))).unwrap())
            .collect();
        let mut served = 0u64;
        let mut failed = 0u64;
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => served += 1,
                Err(ServeError::Infer(e)) => {
                    assert!(
                        e.to_string().contains("panicked"),
                        "the poisoned dispatch must name the worker panic: {e}"
                    );
                    failed += 1;
                }
                Err(other) => panic!("unexpected outcome: {other}"),
            }
        }
        assert_eq!(served + failed, 16, "every accepted ticket resolved");
        assert_eq!(failed, 1, "exactly the poisoned dispatch failed");
        assert!(faults::hits("runtime.dispatch") >= 1);

        // The survivor worker still serves.
        let after = runtime.submit(SrRequest::single(probe(6, 6, 3_199))).unwrap();
        assert!(after.wait().is_ok(), "the runtime must keep serving after a worker death");

        let stats = runtime.shutdown();
        assert_eq!(stats.submitted, 17);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.failed, 1);
    });
}

/// A bounded admission wait against a wedged queue: with the one worker
/// stalled inside a dispatch and the one queue slot taken, a
/// `submit_wait_timeout` blocked for space gives up with a typed
/// `Timeout`, charged to `rejected` exactly once — and the wedged work
/// still completes. (Until ISSUE 23 this was a unit test racing a 50 µs
/// wait against a real forward, which the optimised build won; the
/// injected delay makes the wedge a fact instead of a race.)
#[test]
fn a_blocked_admission_wait_times_out_once_against_a_wedged_queue() {
    let _chaos = chaos_lock();
    with_watchdog(120, "blocked-admission-timeout", || {
        let runtime = Runtime::spawn(
            engine(41),
            RuntimeConfig {
                workers: 1,
                queue_capacity: 1,
                max_batch: 1,
                max_wait: Duration::ZERO,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // The first dispatch stalls for a second; later ones run free.
        let wedge =
            faults::arm_times("runtime.dispatch", FaultAction::Delay(Duration::from_secs(1)), 1);
        let in_dispatch = runtime.submit(SrRequest::single(probe(6, 6, 4_100))).unwrap();
        // The fault point is evaluated after the pop, so one hit means the
        // worker holds the first request and the queue slot is free again.
        while faults::hits("runtime.dispatch") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = runtime.submit(SrRequest::single(probe(6, 6, 4_101))).unwrap();

        // The very first blocked submit expires: the stall outlasts it 50×.
        let timeout = Duration::from_millis(20);
        match runtime.submit_wait_timeout(SrRequest::single(probe(6, 6, 4_102)), timeout) {
            Err(SubmitError::Timeout { timeout: reported }) => assert_eq!(reported, timeout),
            Err(other) => panic!("expected an admission timeout, got: {other}"),
            Ok(_) => panic!("a full queue behind a stalled worker cannot admit"),
        }
        let stats = runtime.stats();
        assert_eq!(stats.rejected, 1, "the expired wait is charged exactly once");
        assert_eq!((stats.submitted, stats.completed), (2, 0), "the wedge still holds");

        // Release the fault and drain: both accepted requests are served.
        drop(wedge);
        assert!(in_dispatch.wait().is_ok());
        assert!(queued.wait().is_ok());
        let stats = runtime.shutdown();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (2, 2, 0));
        assert_eq!(stats.rejected, 1);
    });
}

/// A hot reload hits transient artifact-read failures while a client
/// hammers the model: the read is retried with bounded backoff and the
/// swap lands; a *persistently* failing read exhausts its retries into a
/// typed [`RouterError::Load`] that leaves the serving version untouched.
/// Either way the hammering client never sees a failed request.
#[test]
fn reload_retries_transient_reads_under_load_and_fails_typed_when_exhausted() {
    let _chaos = chaos_lock();
    with_watchdog(240, "reload-under-fire", || {
        let dir = std::env::temp_dir().join(format!("scales-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("alpha.dep.sca");
        let net = |seed| {
            srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed })
                .unwrap()
                .lower()
                .unwrap()
        };
        scales::io::save_artifact(&artifact, &net(41)).unwrap();

        let router = ModelRouter::new(RouterConfig {
            reload_retries: 2,
            reload_backoff: Duration::from_millis(1),
            runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
            ..RouterConfig::default()
        })
        .unwrap();
        router.register_path("alpha", &artifact).unwrap();

        // Overload pressure for the whole scenario: a client hammering
        // the model through both reload attempts.
        let stop = Arc::new(AtomicBool::new(false));
        let hammer = {
            let router = router.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> Result<u64, String> {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    router
                        .submit_wait_timeout(
                            "alpha",
                            SrRequest::single(probe(6, 6, 4_100 + served)),
                            Duration::from_secs(60),
                        )
                        .map_err(|e| format!("router refused: {e}"))?
                        .map_err(|e| format!("inference failed: {e}"))?;
                    served += 1;
                }
                Ok(served)
            })
        };
        let lane_completed =
            |m: &scales::router::ModelStats| m.runtime.as_ref().map_or(0, |r| r.completed);
        while lane_completed(&router.model("alpha").unwrap()) == 0 {
            std::thread::yield_now();
        }

        // Two transient read failures, then the disk recovers: the retry
        // loop (2 retries = 3 attempts) lands the swap.
        scales::io::save_artifact(&artifact, &net(42)).unwrap();
        {
            let _fault = faults::arm_times(
                "router.read",
                FaultAction::Error("disk glitch".into()),
                2,
            );
            let swapped = router.reload("alpha").expect("retries must absorb transient reads");
            assert_eq!(swapped.version, 2);
            assert_eq!(
                faults::hits("router.read"),
                3,
                "two failed attempts plus the successful third"
            );
        }

        // A read that keeps failing exhausts the budget into a typed
        // error; the serving version is untouched.
        {
            let _fault = faults::arm("router.read", FaultAction::Error("disk gone".into()));
            match router.reload("alpha") {
                Err(RouterError::Load { name, detail }) => {
                    assert_eq!(name, "alpha");
                    assert!(detail.contains("disk gone"), "detail carries the IO error: {detail}");
                }
                other => panic!("expected a typed load failure, got {other:?}"),
            }
        }
        assert_eq!(router.model("alpha").unwrap().version, 2, "failed reload never swaps");

        stop.store(true, Ordering::Relaxed);
        let served = hammer.join().unwrap().expect("no hammered request may fail");
        assert!(served > 0);
        let merged = router.shutdown().merged_runtime();
        assert_eq!(merged.failed, 0, "both reload attempts were invisible to traffic");
        std::fs::remove_dir_all(&dir).unwrap();
    });
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
    let status: u16 =
        lines.next().expect("status line").split(' ').nth(1).expect("code").parse().unwrap();
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

/// A peer that connects and then goes silent while the runtime is
/// shedding: the stall occupies one HTTP worker and nothing more — other
/// peers keep being served, overload keeps being shed with `503` +
/// `Retry-After`, and every in-flight request still completes.
#[test]
fn a_stalled_peer_does_not_block_shedding_or_in_flight_service() {
    let _chaos = chaos_lock();
    with_watchdog(240, "stalled-peer-shedding", || {
        let runtime = Runtime::spawn(
            engine(51),
            RuntimeConfig {
                workers: 1,
                max_batch: 1,
                max_wait: Duration::ZERO,
                shed: ShedPolicy { queue_watermark: Some(1), ..ShedPolicy::default() },
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let server =
            HttpServer::bind("127.0.0.1:0", runtime, HttpConfig::default()).unwrap();
        let addr = server.addr();
        let payload = encode_image(&probe(8, 8, 9), WireFormat::Ppm).unwrap();
        let post = |extra: &str| {
            let mut raw = format!(
                "POST /v1/upscale HTTP/1.1\r\nHost: t\r\nContent-Type: {}\r\n{extra}Content-Length: {}\r\n\r\n",
                WireFormat::Ppm.content_type(),
                payload.len()
            )
            .into_bytes();
            raw.extend_from_slice(&payload);
            raw
        };

        // The stalled peer: connects, sends nothing, reads nothing.
        let stalled = TcpStream::connect(addr).unwrap();

        // Slow dispatches wedge the single runtime worker so the queue
        // builds deterministically behind the in-flight request.
        let slow = faults::arm("runtime.dispatch", FaultAction::Delay(Duration::from_secs(1)));

        // A occupies the worker (in dispatch), B fills the queue to the
        // watermark; neither response is read yet.
        let mut in_flight = TcpStream::connect(addr).unwrap();
        in_flight.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        in_flight.write_all(&post("")).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let mut queued = TcpStream::connect(addr).unwrap();
        queued.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        queued.write_all(&post("")).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        // C arrives over the watermark: shed, typed, with a Retry-After —
        // while the stalled peer sits on its worker.
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        shed.write_all(&post("Connection: close\r\n")).unwrap();
        let (status, headers, body) = read_response(&mut shed);
        assert_eq!(status, 503, "over the watermark: {}", String::from_utf8_lossy(&body));
        let retry = headers.iter().find(|(n, _)| n == "retry-after").map(|(_, v)| v.as_str());
        assert_eq!(retry, Some("1"));
        assert!(
            String::from_utf8_lossy(&body).contains("shedding"),
            "the 503 names the shed policy: {}",
            String::from_utf8_lossy(&body)
        );

        // The control plane answers on a fresh connection despite the
        // stall and the overload.
        let mut health = TcpStream::connect(addr).unwrap();
        health.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        health.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut health);
        assert_eq!(status, 200, "health must answer while shedding around a stalled peer");

        // Let the wedge clear: both accepted requests complete.
        drop(slow);
        let (status, _, _) = read_response(&mut in_flight);
        assert_eq!(status, 200, "the in-flight request completes");
        let (status, _, _) = read_response(&mut queued);
        assert_eq!(status, 200, "the queued request completes");

        drop(stalled);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert!(stats.shed >= 1, "the refusal was counted as shed");
        assert_eq!(stats.failed, 0);
    });
}
