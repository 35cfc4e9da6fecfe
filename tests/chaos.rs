//! Chaos suite: injected failures against the serving stack, proving the
//! robustness contract — **every accepted ticket resolves with a typed
//! outcome and the stack keeps serving** — under worker death, transient
//! artifact IO failures during a hot reload, a stalled peer while the
//! runtime sheds load, and a deadline that passes behind a stalled
//! worker — and the fleet's lifecycle contract: shutdown is
//! final for a load still reading, no per-model counter falls while a
//! version drains, no scrape waits on an artifact read, and two commits
//! that evict each other's model both finish.
//!
//! The `scales-faults` registry is process-global and the harness runs
//! `#[test]`s concurrently, so every scenario takes [`CHAOS`] and resets
//! the registry before arming anything.

mod common;

use common::{assert_ledger_closes, with_watchdog};
use scales::core::Method;
use scales::data::codec::encode_image;
use scales::data::{Image, WireFormat};
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::router::{ModelRouter, ModelState, RouterConfig, RouterError};
use scales::runtime::{Runtime, RuntimeConfig, ServeError, ShedPolicy, SubmitError, Ticket};
use scales::serve::{Engine, Precision, SrRequest};
use scales_faults::{self as faults, FaultAction};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes the chaos scenarios: armed faults are process-global state.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    faults::reset();
    guard
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
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // Exactly one dispatch dies, and a dispatch is one request, so
        // the blast radius is that request.
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

/// A forward its blocking caller runs on its own thread panics: the caller
/// is answered with a typed failure naming the panic instead of
/// unwinding, the failure is booked once, and both paths keep serving —
/// the next lone blocking request runs on its caller again, and async
/// submits wake the workers.
#[test]
fn a_caller_run_forward_that_panics_fails_its_request_and_the_caller_goes_on() {
    let _chaos = chaos_lock();
    with_watchdog(120, "caller-run-panic", || {
        let runtime = Runtime::spawn(
            engine(33),
            RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
        )
        .unwrap();
        let _fault = faults::arm_times("runtime.dispatch", FaultAction::Panic, 1);
        let timeout = Duration::from_secs(60);
        match runtime.submit_wait_timeout(SrRequest::single(probe(6, 6, 3_300)), timeout) {
            Ok(Err(e)) => assert!(e.to_string().contains("panicked"), "names the panic: {e}"),
            other => panic!("expected the typed failure, got {:?}", other.map(|r| r.map(|_| ()))),
        }
        assert_eq!(faults::hits("runtime.dispatch"), 1);
        // This thread ran the forward, and it is still here.
        let stats = runtime.stats();
        assert_eq!(stats.caller_runs, 1, "an idle pool hands a lone request to its caller");
        assert_eq!((stats.submitted, stats.completed, stats.failed), (1, 0, 1));
        assert_eq!(stats.queue_depth, 0);

        let served = runtime
            .submit_wait_timeout(SrRequest::single(probe(6, 6, 3_301)), timeout)
            .expect("accepted")
            .expect("the caller path serves again");
        assert_eq!(served.images()[0].height(), 12);
        assert_eq!(runtime.stats().caller_runs, 2);
        let tickets: Vec<Ticket> = (0..2)
            .map(|i| runtime.submit(SrRequest::single(probe(6, 6, 3_302 + i))).unwrap())
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "the workers serve after the caller's panic");
        }
        let stats = runtime.shutdown();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (4, 3, 1));
        assert_eq!(stats.caller_runs, 2, "async submits never run on their caller");
        assert_eq!(stats.queue_depth, 0);
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

/// Deadline contract end to end: a deadline that passes while queued is
/// retracted (the ticket resolves with the typed rejection, the request is
/// never dispatched) and counted in `expired`, while a request without a
/// deadline in the same queue is served. The one worker is held by an
/// injected one-second stall, so the worker is still busy when the 5 ms
/// deadline passes whatever the forward's speed. (It used to be held by a
/// real 12 × 48² forward, which a loaded box outran 7 times in 100.)
#[test]
fn queued_requests_whose_deadline_passes_are_retracted_not_served_late() {
    let _chaos = chaos_lock();
    with_watchdog(120, "deadline-retraction", || {
        let runtime =
            Runtime::spawn(engine(21), RuntimeConfig { workers: 1, ..RuntimeConfig::default() })
                .unwrap();
        let stall =
            faults::arm_times("runtime.dispatch", FaultAction::Delay(Duration::from_secs(1)), 1);
        let wedge = runtime
            .submit(SrRequest::batch((0..12).map(|i| probe(6, 6, 2_110 + i)).collect()))
            .unwrap();
        // The fault point is evaluated after the pop: one hit means the
        // worker holds the wedge, stalled.
        while faults::hits("runtime.dispatch") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queued behind the wedge: this deadline expires long before the
        // worker frees up.
        let doomed = runtime
            .submit(SrRequest::single(probe(6, 6, 2_100)).deadline_in(Duration::from_millis(5)))
            .unwrap();
        // Same queue, no deadline: must be served normally.
        let patient = runtime.submit(SrRequest::single(probe(6, 6, 2_101))).unwrap();
        match doomed.wait() {
            Err(ServeError::Rejected(SubmitError::Expired)) => {}
            Err(other) => panic!("expected the expired retraction, got {other:?}"),
            Ok(_) => panic!("an expired request must never be served"),
        }
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        assert!(patient.wait().is_ok());
        drop(stall);
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.deadline_misses, 0, "retracted, so never served late");
        assert_eq!(stats.submitted, 3, "the retracted request was accepted");
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
        let router = ModelRouter::new(RouterConfig {
            runtime: RuntimeConfig {
                workers: 1,
                shed: ShedPolicy { queue_watermark: Some(1), ..ShedPolicy::default() },
                ..RuntimeConfig::default()
            },
            ..RouterConfig::default()
        })
        .unwrap();
        let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 51 })
            .unwrap();
        router.register_model("m", net.lower().unwrap()).unwrap();
        let server =
            HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap();
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

/// A scratch directory for one scenario's artifact files.
fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scales-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Save a small lowered SRResNet as `<dir>/<name>.dep.sca`.
fn save_model(dir: &Path, name: &str, seed: u64) -> PathBuf {
    let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed })
        .unwrap()
        .lower()
        .unwrap();
    let path = dir.join(format!("{name}.dep.sca"));
    scales::io::save_artifact(&path, &net).unwrap();
    path
}

/// A one-worker fleet under a one-byte budget: every load but the newest
/// path-backed one is evicted, and no read is retried.
fn tight_fleet(dir: &Path) -> ModelRouter {
    let router = ModelRouter::new(RouterConfig {
        memory_budget: Some(1),
        reload_retries: 0,
        runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })
    .unwrap();
    router.register_path("alpha", dir.join("alpha.dep.sca")).unwrap();
    router.register_path("beta", dir.join("beta.dep.sca")).unwrap();
    assert_eq!(router.model("alpha").unwrap().state, ModelState::Evicted);
    router
}

/// Block until `point` has been evaluated more than `before` times.
fn wait_for_hit(point: &str, before: u64) {
    while faults::hits(point) <= before {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runtime worker threads alive in this process (Linux names them in
/// `/proc`; elsewhere this reads 0 and the check it feeds is vacuous).
fn runtime_workers() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("scales-runtime"))
        .count()
}

/// A hot reload, a lazy readmission and a registration each still
/// reading their artifact when `shutdown()` runs: each is refused with
/// `ShuttingDown` once its read returns, the runtime it spawned is
/// drained, no model serves again, and a second `shutdown()` returns the
/// same final record.
#[test]
fn shutdown_is_final_for_a_load_still_reading_its_artifact() {
    let _chaos = chaos_lock();
    with_watchdog(240, "shutdown-is-final", || {
        let dir = chaos_dir("final");
        save_model(&dir, "alpha", 61);
        save_model(&dir, "beta", 62);
        type Load = fn(&ModelRouter, &Path) -> Result<(), RouterError>;
        let loads: [(&str, Load); 3] = [
            ("reload", |router, _| router.reload("beta").map(drop)),
            ("lazy reload", |router, _| {
                router
                    .submit_wait_timeout("alpha", SrRequest::single(probe(6, 6, 6_100)), Duration::from_secs(60))
                    .map(drop)
            }),
            ("register_path", |router, dir| router.register_path("gamma", dir.join("alpha.dep.sca")).map(drop)),
        ];
        for (case, load) in loads {
            let router = tight_fleet(&dir);
            let before = faults::hits("router.read");
            let _held = faults::arm_times("router.read", FaultAction::Delay(Duration::from_secs(1)), 1);
            let loading = {
                let (router, dir) = (router.clone(), dir.clone());
                std::thread::spawn(move || load(&router, &dir))
            };
            wait_for_hit("router.read", before);
            let record = router.shutdown();
            match loading.join().unwrap() {
                Err(RouterError::ShuttingDown) => {}
                other => panic!("{case}: a load finishing after shutdown must be refused, got {other:?}"),
            }
            let names: Vec<String> = router.list().into_iter().map(|m| m.name).collect();
            assert_eq!(names, ["alpha", "beta"], "{case}: nothing registers after shutdown");
            for model in router.list() {
                assert_eq!(model.state, ModelState::Evicted, "{case}: {} serves after shutdown", model.name);
            }
            assert_eq!(format!("{:?}", router.shutdown()), format!("{record:?}"), "{case}: the record is final");
            let drained = Instant::now();
            while runtime_workers() > 0 {
                assert!(drained.elapsed() < Duration::from_secs(5), "{case}: the refused load's runtime still runs");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// One exposition sample of a `model`-labeled family.
fn sample(text: &str, family: &str, model: &str) -> u64 {
    let key = format!("{family}{{model=\"{model}\"}} ");
    let value = text.lines().find_map(|line| line.strip_prefix(&key));
    value.unwrap_or_else(|| panic!("no {key:?} in:\n{text}")).parse().unwrap()
}

/// `alpha`'s counters as the API and a scrape report them.
fn counters(router: &ModelRouter) -> [u64; 6] {
    let record = router.model("alpha").unwrap().runtime.unwrap_or_default();
    let text = router.render_prometheus();
    [
        record.submitted,
        record.completed,
        record.images,
        sample(&text, "scales_model_requests_submitted_total", "alpha"),
        sample(&text, "scales_model_requests_completed_total", "alpha"),
        sample(&text, "scales_model_images_total", "alpha"),
    ]
}

/// A request wedged in dispatch holds `alpha`'s serving version while a
/// hot reload, then a budget eviction, waits to drain it: every reading
/// of `alpha`'s counters — through `model()` and through a scrape — is at
/// least the one before, and the wedged request is served.
#[test]
fn per_model_counters_never_fall_while_a_version_drains() {
    let _chaos = chaos_lock();
    with_watchdog(240, "counters-never-fall", || {
        let dir = chaos_dir("monotone");
        let beta = save_model(&dir, "beta", 72);
        let router = ModelRouter::new(RouterConfig {
            memory_budget: Some(1),
            runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
            ..RouterConfig::default()
        })
        .unwrap();
        router.register_path("alpha", save_model(&dir, "alpha", 71)).unwrap();
        let submit = |router: &ModelRouter, seed| {
            router.submit_wait_timeout("alpha", SrRequest::single(probe(6, 6, seed)), Duration::from_secs(60))
        };
        for seed in 0..3 {
            submit(&router, 7_100 + seed).unwrap().unwrap();
        }
        type Drain = Box<dyn FnOnce(ModelRouter) + Send>;
        let drains: [(&str, Drain); 2] = [
            ("reload", Box::new(|router| assert_eq!(router.reload("alpha").unwrap().swaps, 1))),
            ("eviction", Box::new(move |router| drop(router.register_path("beta", beta).unwrap()))),
        ];
        for (case, drain) in drains {
            let before = faults::hits("runtime.dispatch");
            let _wedge = faults::arm_times("runtime.dispatch", FaultAction::Delay(Duration::from_millis(600)), 1);
            let held = {
                let router = router.clone();
                std::thread::spawn(move || submit(&router, 7_200))
            };
            wait_for_hit("runtime.dispatch", before);
            let draining = {
                let router = router.clone();
                std::thread::spawn(move || drain(router))
            };
            let (mut last, mut readings) = (counters(&router), 0);
            while !draining.is_finished() {
                let now = counters(&router);
                for (i, (was, is)) in last.iter().zip(&now).enumerate() {
                    assert!(is >= was, "{case}: counter {i} fell from {was} to {is} ({last:?} -> {now:?})");
                }
                (last, readings) = (now, readings + 1);
            }
            draining.join().unwrap();
            assert!(held.join().unwrap().unwrap().is_ok(), "{case}: the held request is served");
            let after = counters(&router);
            assert!(after.iter().zip(&last).all(|(is, was)| is >= was), "{case}: {last:?} -> {after:?}");
            assert!(readings > 0, "{case}: no reading was taken during the drain");
        }
        let alpha = router.model("alpha").unwrap();
        assert_eq!((alpha.state, alpha.evictions, alpha.swaps), (ModelState::Evicted, 1, 1));
        let record = alpha.runtime.unwrap();
        assert_eq!((record.submitted, record.completed, record.images), (5, 5, 5));
        assert_eq!(router.shutdown().merged_runtime().failed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// A request to an evicted model readmits it while its artifact read is
/// stalled: `list()` and a scrape answer on another thread at once,
/// showing the model still evicted, and the request is then served.
#[test]
fn a_scrape_never_waits_on_an_artifact_read() {
    let _chaos = chaos_lock();
    with_watchdog(240, "scrape-vs-read", || {
        let dir = chaos_dir("scrape");
        save_model(&dir, "alpha", 81);
        save_model(&dir, "beta", 82);
        let router = tight_fleet(&dir);
        let stall = Duration::from_secs(3);
        let before = faults::hits("router.read");
        let _stall = faults::arm_times("router.read", FaultAction::Delay(stall), 1);
        let cold = {
            let router = router.clone();
            std::thread::spawn(move || {
                router.submit_wait_timeout("alpha", SrRequest::single(probe(6, 6, 8_100)), Duration::from_secs(60))
            })
        };
        wait_for_hit("router.read", before);
        let started = Instant::now();
        let listed = router.list();
        let text = router.render_prometheus();
        let waited = started.elapsed();
        assert!(waited < stall / 3, "a scrape waited {waited:?} on a {stall:?} artifact read");
        assert_eq!(listed[0].state, ModelState::Evicted, "the readmission is not installed yet");
        assert_eq!(sample(&text, "scales_model_serving", "alpha"), 0);
        assert!(cold.join().unwrap().unwrap().is_ok(), "the cold request is served once its load lands");
        assert_eq!(router.model("alpha").unwrap().state, ModelState::Serving);
        assert_eq!(router.shutdown().merged_runtime().failed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Two path-backed models under a budget that fits one, each reloaded or
/// readmitted on its own thread at the same instant, round after round:
/// each commit's sweep may evict the model the other thread just
/// installed, and neither may wait on the other's hold of it. Every call
/// returns, at most one model serves, and shutdown settles.
#[test]
fn concurrent_commits_that_evict_each_other_both_finish() {
    let _chaos = chaos_lock();
    with_watchdog(240, "concurrent-commits", || {
        let dir = chaos_dir("crossed");
        save_model(&dir, "alpha", 91);
        save_model(&dir, "beta", 92);
        let router = tight_fleet(&dir);
        for round in 0..40_u64 {
            let _paced = faults::arm_times("router.read", FaultAction::Delay(Duration::from_millis(5)), 2);
            let start = Arc::new(Barrier::new(2));
            let threads: Vec<_> = ["alpha", "beta"]
                .into_iter()
                .map(|name| {
                    let (router, start) = (router.clone(), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        if round % 2 == 0 {
                            router.reload(name).map(drop)
                        } else {
                            let request = SrRequest::single(probe(6, 6, 9_100 + round));
                            router.submit_wait_timeout(name, request, Duration::from_secs(60)).map(|r| drop(r.unwrap()))
                        }
                    })
                })
                .collect();
            for thread in threads {
                thread.join().unwrap().unwrap();
            }
            let serving = router.list().iter().filter(|m| m.state == ModelState::Serving).count();
            assert!(serving <= 1, "round {round}: {serving} models resident under a one-model budget");
        }
        assert_eq!(router.shutdown().merged_runtime().failed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
