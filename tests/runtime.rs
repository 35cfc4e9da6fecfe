//! Concurrency-correctness suite for the `scales-runtime` worker pool.
//!
//! The headline contract: responses served by the concurrent runtime —
//! one request per dispatch, executed by whichever worker (or blocking
//! caller) got there first — are **bit-identical** (`f32::to_bits`) to a
//! serial `Session::infer` of the same request, across the CNN method
//! registry and both compute backends (each response served under its
//! engine's backend, not the process default). On top of that: per-caller
//! response ordering under many submitter threads, typed backpressure when
//! the bounded queue fills, deadlock-free graceful shutdown under load (every test
//! is bounded by a watchdog), and the scheduling order: EDF among lane
//! heads, weighted lanes, and shortest expected finish first inside a
//! lane. The networks are [`trained_like`]: an
//! untrained one answers exactly its bicubic skip, whatever the method.

mod common;

use common::{assert_ledger_closes, trained_like, with_watchdog};
use scales::core::Method;
use scales::data::Image;
use scales::models::{srresnet, SrConfig};
use scales::nn::init::rng;
use scales::runtime::{
    Runtime, RuntimeConfig, ServeError, ShedPolicy, SubmitError, Ticket,
};
use scales::serve::{Engine, Precision, SrRequest};
use scales::tensor::backend::{self, Backend};
use std::time::Duration;


fn probe(h: usize, w: usize, seed: u64) -> Image {
    scales::data::synth::scene(h, w, scales::data::synth::SceneConfig::default(), &mut rng(seed))
}

fn engine_for(method: Method, backend: Backend, seed: u64) -> Engine<'static> {
    let net =
        trained_like(srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method, seed }).unwrap());
    Engine::builder()
        .model(net)
        .precision(Precision::Deployed)
        .backend(backend)
        .build()
        .unwrap()
}

/// The watchdog fails a test whose body panics with that panic, not as a
/// timeout it never ran into.
#[test]
#[should_panic(expected = "the body's own panic")]
fn the_watchdog_re_raises_a_panicking_body() {
    with_watchdog(60, "panicking-body", || panic!("the body's own panic"));
}

fn assert_images_bit_identical(got: &[Image], want: &[Image], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: image count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.tensor().shape(), w.tensor().shape(), "{label}: image {i} shape");
        for (j, (a, b)) in g.tensor().data().iter().zip(w.tensor().data().iter()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{label}: image {i}, value {j} differs bitwise: {a} vs {b}"
            );
        }
    }
}

/// Bit-identity of runtime serving vs serial `Session::infer`, for every
/// CNN registry method on both backends, with mixed-size requests queued
/// for two workers.
#[test]
fn runtime_matches_serial_session_bitwise_across_the_method_registry() {
    with_watchdog(240, "registry-bit-identity", || {
        for method in Method::cnn_registry() {
            for be in [Backend::Scalar, Backend::Simd] {
                let label = format!("{method}, {} backend", be.name());
                // Two engines built from identical networks: one serves
                // serially, one through the pool.
                let serial = engine_for(method, be, 1234);
                let concurrent = engine_for(method, be, 1234);
                let requests: Vec<SrRequest> = vec![
                    SrRequest::single(probe(8, 8, 41)),
                    SrRequest::batch(vec![probe(6, 10, 42), probe(8, 8, 43)]),
                    SrRequest::single(probe(10, 6, 44)),
                    SrRequest::batch(vec![probe(8, 8, 45), probe(8, 8, 46)]),
                ];
                let session = serial.session();
                let want: Vec<Vec<Image>> = requests
                    .iter()
                    .map(|r| session.infer(r.clone()).unwrap().into_images())
                    .collect();
                let runtime = Runtime::spawn(
                    concurrent,
                    RuntimeConfig {
                        workers: 2,
                        queue_capacity: 64,
                        ..RuntimeConfig::default()
                    },
                )
                .unwrap();
                let tickets: Vec<Ticket> =
                    requests.iter().map(|r| runtime.submit(r.clone()).unwrap()).collect();
                for (ticket, want) in tickets.into_iter().zip(&want) {
                    let response = ticket.wait().unwrap();
                    assert_images_bit_identical(response.images(), want, &label);
                    // Workers run under the engine's handle, whatever the
                    // process default is.
                    assert_eq!(response.stats().backend, be, "{label}");
                }
                let stats = runtime.shutdown();
                assert_ledger_closes(&stats);
                assert_eq!(stats.completed, 4, "{label}");
                assert_eq!(stats.images, 6, "{label}");
                assert_eq!(stats.failed, 0, "{label}");
                // The same requests once more, one at a time through the
                // blocking path on an idle pool: each one runs on this
                // thread, through the same dispatch a worker runs.
                let runtime = Runtime::spawn(
                    engine_for(method, be, 1234),
                    RuntimeConfig {
                        workers: 2,
                        ..RuntimeConfig::default()
                    },
                )
                .unwrap();
                for (request, want) in requests.iter().zip(&want) {
                    let response = runtime
                        .submit_wait_timeout(request.clone(), Duration::from_secs(60))
                        .expect("accepted")
                        .expect("served");
                    let here = format!("{label}, run here");
                    assert_images_bit_identical(response.images(), want, &here);
                    assert_eq!(response.stats().backend, be, "{label}");
                }
                let stats = runtime.shutdown();
                assert_ledger_closes(&stats);
                assert_eq!((stats.completed, stats.failed), (4, 0), "{label}");
                assert_eq!(stats.caller_runs, 4, "{label}: every request ran on its caller");
                assert_eq!(stats.dispatches, 4, "{label}");
            }
        }
    });
}

/// Many submitter threads, mixed sizes, every CNN registry method
/// sampled: each caller must get exactly its own images back, in its own
/// submission order, bit-identical to serial serving.
#[test]
fn concurrent_submitters_each_get_their_own_responses_in_order() {
    with_watchdog(240, "concurrent-submitters", || {
        // Sample the registry across the stress run (one runtime per
        // method keeps the engine/model relationship honest).
        for (m, method) in Method::cnn_registry().into_iter().enumerate() {
            let serial = engine_for(method, Backend::Scalar, 777);
            let concurrent = engine_for(method, Backend::Scalar, 777);
            let runtime = Runtime::spawn(
                concurrent,
                RuntimeConfig {
                    workers: 3,
                    queue_capacity: 8, // small: submitters hit submit_wait backpressure
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            let sizes = [(6usize, 6usize), (8, 8), (6, 10)];
            let serial_session = serial.session();
            std::thread::scope(|scope| {
                let runtime = &runtime;
                let sizes = &sizes;
                let serial_session = &serial_session;
                let mut submitters = Vec::new();
                for t in 0..4u64 {
                    submitters.push(scope.spawn(move || {
                        let mut pending: Vec<(Ticket, u64, (usize, usize))> = Vec::new();
                        for i in 0..3u64 {
                            let seed = 10_000 + (m as u64) * 100 + t * 10 + i;
                            let (h, w) = sizes[(t as usize + i as usize) % sizes.len()];
                            let ticket = runtime
                                .submit_wait(SrRequest::single(probe(h, w, seed)))
                                .expect("submit_wait only fails on shutdown");
                            pending.push((ticket, seed, (h, w)));
                        }
                        pending
                    }));
                }
                for (t, submitter) in submitters.into_iter().enumerate() {
                    for (ticket, seed, (h, w)) in submitter.join().unwrap() {
                        let got = ticket.wait().unwrap();
                        // The serial reference for this caller's request.
                        let want = serial_session
                            .infer(SrRequest::single(probe(h, w, seed)))
                            .unwrap();
                        assert_images_bit_identical(
                            got.images(),
                            want.images(),
                            &format!("{method}, submitter {t}, seed {seed}"),
                        );
                    }
                }
            });
            let stats = runtime.shutdown();
            assert_ledger_closes(&stats);
            assert_eq!(stats.completed, 12, "{method}");
            assert_eq!(stats.failed, 0, "{method}");
            assert!(stats.queue_high_water <= 8, "{method}: bounded queue respected");
        }
    });
}

/// One ledger, booked before the tickets resolve: the moment `wait`
/// returns, a snapshot already counts the request, globally and in its
/// tenant lane. Repeated because the failure it guards against is a race.
#[test]
fn a_resolved_request_is_already_counted_globally_and_in_its_lane() {
    with_watchdog(120, "counted-on-resolve", || {
        let runtime = Runtime::spawn(
            engine_for(Method::scales(), Backend::Scalar, 30),
            RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
        )
        .unwrap();
        for i in 0..200u64 {
            let request = SrRequest::single(probe(6, 6, 3_000 + i)).tenant("acme");
            assert!(runtime.submit(request).unwrap().wait().is_ok());
            let stats = runtime.stats();
            let lane = stats.tenants.iter().find(|t| t.tenant == "acme").expect("the tenant lane");
            assert_eq!(
                (stats.completed, lane.completed),
                (i + 1, i + 1),
                "request {i} resolved before it was counted"
            );
        }
        assert_ledger_closes(&runtime.shutdown());
    });
}

/// Backpressure contract: a full queue is a typed `QueueFull` error
/// carrying the configured capacity, and the queue bound counts requests,
/// not images.
#[test]
fn a_full_queue_rejects_submissions_with_a_typed_error() {
    with_watchdog(120, "queue-full", || {
        let runtime = Runtime::spawn(
            engine_for(Method::scales(), Backend::Scalar, 55),
            RuntimeConfig {
                workers: 1,
                queue_capacity: 2,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // A deliberately heavy request occupies the single worker...
        let heavy = runtime
            .submit(SrRequest::batch((0..12).map(|i| probe(24, 24, 900 + i)).collect()))
            .unwrap();
        // ...wait until the worker has actually popped it off the queue.
        while runtime.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        // Now fill the queue to its bound and overflow it.
        let q1 = runtime.submit(SrRequest::single(probe(6, 6, 920))).unwrap();
        let q2 = runtime.submit(SrRequest::single(probe(6, 6, 921))).unwrap();
        let overflow = runtime.submit(SrRequest::single(probe(6, 6, 922)));
        match overflow {
            Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Everything accepted is still served.
        assert_eq!(heavy.wait().unwrap().images().len(), 12);
        assert!(q1.wait().is_ok());
        assert!(q2.wait().is_ok());
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.queue_high_water, 2);
    });
}

/// Graceful shutdown under load: submissions race `shutdown()` from
/// several threads; every ticket that was accepted resolves successfully,
/// every rejection is the typed `ShuttingDown`, and the final stats
/// account for exactly the accepted set.
#[test]
fn graceful_shutdown_under_load_resolves_every_accepted_ticket() {
    with_watchdog(240, "shutdown-under-load", || {
        let runtime = Runtime::spawn(
            engine_for(Method::scales(), Backend::Scalar, 88),
            RuntimeConfig {
                workers: 2,
                queue_capacity: 64,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // Submission is microseconds, serving is milliseconds: by the
        // time the burst is accepted the queue still holds most of it, so
        // `shutdown` below really does run against a loaded queue.
        let tickets: Vec<Ticket> = std::thread::scope(|scope| {
            let runtime = &runtime;
            let submitters: Vec<_> = (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        (0..8u64)
                            .map(|i| {
                                runtime
                                    .submit_wait(SrRequest::single(probe(6, 6, t * 100 + i)))
                                    .expect("runtime is accepting")
                            })
                            .collect::<Vec<Ticket>>()
                    })
                })
                .collect();
            submitters.into_iter().flat_map(|s| s.join().unwrap()).collect()
        });
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        // Every accepted ticket resolved during the drain — none dropped,
        // none left pending.
        for ticket in tickets {
            assert!(ticket.is_ready(), "shutdown returned with a pending ticket");
            assert!(ticket.wait().is_ok());
        }
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.queue_depth, 0, "shutdown drained the queue");
    });
}

/// Same race, but with `shutdown` called concurrently with the
/// submitters (not after): accepted-before-shutdown work still resolves.
#[test]
fn shutdown_racing_submitters_stays_deadlock_free() {
    with_watchdog(240, "shutdown-race", || {
        let runtime = Runtime::spawn(
            engine_for(Method::scales(), Backend::Scalar, 99),
            RuntimeConfig {
                workers: 2,
                queue_capacity: 64,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let runtime = std::sync::Arc::new(std::sync::Mutex::new(Some(runtime)));
        let mut threads = Vec::new();
        for t in 0..3u64 {
            let runtime = std::sync::Arc::clone(&runtime);
            threads.push(std::thread::spawn(move || {
                for i in 0..6u64 {
                    let ticket = {
                        let guard = runtime.lock().unwrap();
                        let Some(rt) = guard.as_ref() else { return };
                        rt.submit(SrRequest::single(probe(6, 6, 3_000 + t * 10 + i)))
                    };
                    match ticket {
                        Ok(ticket) => assert!(ticket.wait().is_ok()),
                        Err(SubmitError::ShuttingDown) => return,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(3));
        let rt = runtime.lock().unwrap().take().expect("runtime present");
        let stats = rt.shutdown();
        assert_ledger_closes(&stats);
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(stats.completed + stats.failed, stats.submitted);
        assert_eq!(stats.failed, 0);
    });
}

/// A dispatch is one request: with the one worker wedged, eight queued
/// single-image callers are served by eight dispatches, each with its own
/// forward, so no two of them share an `infer_done` stamp.
#[test]
fn a_backlog_of_single_image_callers_is_served_one_request_per_dispatch() {
    with_watchdog(120, "one-request-per-dispatch", || {
        let (runtime, wedge) = wedged_runtime(RuntimeConfig::default(), 12);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| runtime.submit(SrRequest::single(probe(8, 8, 500 + i))).unwrap())
            .collect();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        let mut done: Vec<std::time::Instant> = tickets
            .into_iter()
            .map(|ticket| {
                let response = ticket.wait().unwrap();
                assert_eq!(response.stats().images, 1, "caller sees its own image count");
                response.stamps().expect("runtime responses carry stamps").infer_done
            })
            .collect();
        done.sort();
        done.dedup();
        assert_eq!(done.len(), 8, "every queued single had a forward of its own");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.completed, 9);
        assert_eq!(stats.dispatches, stats.completed, "one dispatch per request served");
    });
}

/// A lone request is booked where its stamps put it: `dequeued − enqueued`
/// as queue wait, `sealed − dequeued` as batch wait — on one worker and
/// with an idle peer.
#[test]
fn a_lone_request_books_its_waits_where_its_stamps_put_them() {
    with_watchdog(120, "lone-request-stamps", || {
        for workers in [1, 2] {
            let runtime = Runtime::spawn(
                engine_for(Method::scales(), Backend::Scalar, 60),
                RuntimeConfig { workers, ..RuntimeConfig::default() },
            )
            .unwrap();
            let request = SrRequest::single(probe(6, 6, 6_000 + workers as u64));
            let response = match runtime.submit(request).unwrap().wait() {
                Ok(response) => response,
                Err(e) => panic!("{workers} worker(s): a lone request must be served, got {e}"),
            };
            let stamps = response.stamps().expect("runtime responses carry stamps");
            let stats = runtime.shutdown();
            assert_ledger_closes(&stats);
            assert_eq!((stats.completed, stats.expired, stats.dispatches), (1, 0, 1));
            // One sample per histogram, so each one's max is this request's span.
            assert_eq!(stats.queue_wait.max(), stamps.dequeued - stamps.enqueued);
            assert_eq!(stats.batch_wait.max(), stamps.sealed - stamps.dequeued);
        }
    });
}

/// Spawn a one-lane runtime (single worker) and wedge its worker with a
/// deliberately heavy request, so everything submitted afterwards sits in
/// the queue under the admission controller's eyes.
fn wedged_runtime(config: RuntimeConfig, seed: u64) -> (Runtime, Ticket) {
    let runtime = Runtime::spawn(
        engine_for(Method::scales(), Backend::Scalar, seed),
        RuntimeConfig { workers: 1, ..config },
    )
    .unwrap();
    let wedge = wedge(&runtime, seed);
    (runtime, wedge)
}

/// Occupy the one worker with a batch of twelve 48×48 images (~20 ms on
/// the optimised scalar build, ~1 s unoptimised), returning once it has
/// been popped off the queue.
fn wedge(runtime: &Runtime, seed: u64) -> Ticket {
    let wedge = runtime
        .submit(SrRequest::batch((0..12).map(|i| probe(48, 48, seed * 100 + i)).collect()))
        .unwrap();
    // Wait until the worker has actually popped it off the queue.
    while runtime.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
    wedge
}

/// Input pixels of the request that warms the estimate in
/// [`warm_wedged_runtime`].
const WARM_PIXELS: u32 = 6 * 6;

/// A one-worker runtime whose forward-time estimate is warm — one 6×6
/// request served, so the rate is that forward's time per pixel, plan
/// build included — then wedged like [`wedged_runtime`]: what is queued
/// after it is keyed by arrival plus a positive estimate. Also returns
/// the rate.
fn warm_wedged_runtime(seed: u64) -> (Runtime, Ticket, Duration) {
    let runtime = Runtime::spawn(
        engine_for(Method::scales(), Backend::Scalar, seed),
        RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
    )
    .unwrap();
    let warm = runtime.submit(SrRequest::single(probe(6, 6, seed * 100 + 99))).unwrap();
    assert!(warm.wait().is_ok());
    let per_pixel = runtime.stats().busy / WARM_PIXELS;
    assert!(per_pixel > Duration::ZERO, "the served request warmed the estimate");
    let wedge = wedge(&runtime, seed);
    (runtime, wedge, per_pixel)
}

/// When the runtime finished each of `tickets`, by its own `infer_done`
/// stamp — with one worker, the dispatch order.
fn infer_done(tickets: Vec<Ticket>) -> Vec<std::time::Instant> {
    tickets
        .into_iter()
        .map(|t| {
            let response = t.wait().expect("queued request must serve");
            response.stamps().expect("runtime responses carry stamps").infer_done
        })
        .collect()
}

/// Shortest expected finish first: in one lane of a warm, wedged
/// one-worker runtime, a 96×96 request followed by two 6×6 ones completes
/// light, light, heavy. Each untagged entry is keyed by its arrival plus
/// its estimated forward time, and a light one passes the heavy one
/// because it arrived well within the difference of their estimates.
#[test]
fn a_lane_serves_light_requests_before_a_heavy_one_that_arrived_first() {
    with_watchdog(120, "shortest-finish-first", || {
        let (runtime, wedge, per_pixel) = warm_wedged_runtime(26);
        let start = std::time::Instant::now();
        let heavy = runtime.submit(SrRequest::single(probe(96, 96, 2_600))).unwrap();
        let lights: Vec<Ticket> = (0..2)
            .map(|i| runtime.submit(SrRequest::single(probe(6, 6, 2_601 + i))).unwrap())
            .collect();
        // The precondition, stated: the lights arrived sooner after the
        // heavy request than the difference of their estimates (~255
        // forwards of the warm-up request).
        let margin = per_pixel * (96 * 96 - 6 * 6);
        assert!(start.elapsed() < margin, "submitting took {:?} of {margin:?}", start.elapsed());
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        let lights = infer_done(lights);
        let heavy = infer_done(vec![heavy])[0];
        assert!(lights[0] < lights[1], "the lights keep their arrival order");
        assert!(lights[1] < heavy, "both lights finish before the heavy request");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!((stats.completed, stats.failed), (5, 0));
    });
}

/// A deadline-tagged entry is keyed by its arrival alone, so lights that
/// arrive after a tagged heavy request never pass it.
#[test]
fn a_deadline_tagged_heavy_request_is_never_passed_by_later_lights() {
    with_watchdog(120, "tagged-heavy-holds", || {
        let (runtime, wedge, _) = warm_wedged_runtime(27);
        let heavy = runtime
            .submit(
                SrRequest::single(probe(96, 96, 2_700)).deadline_in(Duration::from_secs(3600)),
            )
            .unwrap();
        let lights: Vec<Ticket> = (0..2)
            .map(|i| runtime.submit(SrRequest::single(probe(6, 6, 2_701 + i))).unwrap())
            .collect();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        let heavy = infer_done(vec![heavy])[0];
        let lights = infer_done(lights);
        assert!(heavy < lights[0] && lights[0] < lights[1], "served in arrival order");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!((stats.completed, stats.deadline_misses), (5, 0));
    });
}

/// Requests of one shape have one estimate, so their keys order them by
/// arrival: a lane of equal shapes stays first come, first served.
#[test]
fn equal_shapes_in_a_lane_keep_their_arrival_order() {
    with_watchdog(120, "equal-shapes-fifo", || {
        let (runtime, wedge, _) = warm_wedged_runtime(30);
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| runtime.submit(SrRequest::single(probe(8, 8, 3_000 + i))).unwrap())
            .collect();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        let done = infer_done(tickets);
        assert!(done.windows(2).all(|pair| pair[0] < pair[1]), "served in arrival order");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.completed, 8);
    });
}

/// When the runtime finished the last of `tickets`, by its own
/// `infer_done` stamp — the dispatch order, which a waiter thread's wake-up
/// time is not once forwards are microseconds apart.
fn last_infer_done(tickets: Vec<Ticket>) -> std::time::Instant {
    infer_done(tickets).into_iter().max().expect("at least one ticket")
}

/// Deadline-tagged lane heads outrank the weighted rotation, earliest
/// deadline first: with one queued request per tenant lane and the queue
/// drained strictly one request at a time, the completion order is
/// tightest-deadline → looser-deadline → no-deadline, regardless of
/// submission order. (EDF picks among lane *heads*; within a lane, the
/// head is the least key, arrival plus estimated forward time.)
#[test]
fn deadline_tagged_requests_are_scheduled_earliest_deadline_first() {
    with_watchdog(120, "edf-ordering", || {
        let (runtime, wedge) = wedged_runtime(RuntimeConfig::default(), 22);
        // One lane each, submitted in the *opposite* of the order they
        // must serve.
        let untagged = runtime.submit(SrRequest::single(probe(6, 6, 2_200))).unwrap();
        let loose = runtime
            .submit(
                SrRequest::single(probe(6, 6, 2_201))
                    .tenant("loose")
                    .deadline_in(Duration::from_secs(60)),
            )
            .unwrap();
        let tight = runtime
            .submit(
                SrRequest::single(probe(6, 6, 2_202))
                    .tenant("tight")
                    .deadline_in(Duration::from_secs(30)),
            )
            .unwrap();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        // With one worker the serving is strictly serial, so the
        // runtime's own `infer_done` stamps are the dispatch order.
        let mut done = [(tight, "tight"), (loose, "loose"), (untagged, "untagged")]
            .map(|(ticket, label)| (last_infer_done(vec![ticket]), label));
        done.sort();
        let order = done.map(|(_, label)| label);
        assert_eq!(order, ["tight", "loose", "untagged"], "EDF order");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.expired, 0, "generous deadlines never expire");
    });
}

/// Weighted round-robin fairness: a hot low-weight tenant that filled the
/// queue first cannot starve a higher-weight tenant — the weighted lane
/// finishes its backlog well before the hot lane drains, and per-tenant
/// counters account for every request.
#[test]
fn weighted_tenants_are_not_starved_by_a_hot_low_weight_tenant() {
    with_watchdog(120, "wrr-fairness", || {
        let config = RuntimeConfig {
            tenant_weights: vec![("gold".into(), 3), ("bronze".into(), 1)],
            ..RuntimeConfig::default()
        };
        let (runtime, wedge) = wedged_runtime(config, 23);
        // The hot tenant gets its whole burst in FIRST.
        let bronze: Vec<Ticket> = (0..4)
            .map(|i| {
                runtime
                    .submit(SrRequest::single(probe(6, 6, 2_300 + i)).tenant("bronze"))
                    .unwrap()
            })
            .collect();
        let gold: Vec<Ticket> = (0..4)
            .map(|i| {
                runtime
                    .submit(SrRequest::single(probe(6, 6, 2_350 + i)).tenant("gold"))
                    .unwrap()
            })
            .collect();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        let (gold_done, bronze_done) = (last_infer_done(gold), last_infer_done(bronze));
        // Strict FIFO would drain all of bronze first; weighted
        // round-robin must finish the weight-3 lane before the weight-1
        // lane that got there first.
        assert!(gold_done < bronze_done, "gold (weight 3) must not wait out bronze's backlog");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.completed, 9);
        let tenants: Vec<&str> = stats.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(tenants, ["bronze", "gold"], "tagged lanes reported, sorted");
        for lane in &stats.tenants {
            assert_eq!(lane.submitted, 4, "{}", lane.tenant);
            assert_eq!(lane.completed, 4, "{}", lane.tenant);
        }
        assert_eq!(stats.tenants[1].weight, 3);
    });
}

/// Per-tenant quota: a lane at its quota refuses with the typed
/// `TenantQuota` even while the global queue has room, and the other
/// tenant keeps being admitted.
#[test]
fn a_tenant_at_its_quota_is_refused_without_blocking_other_tenants() {
    with_watchdog(120, "tenant-quota", || {
        let config = RuntimeConfig {
            tenant_quota: Some(2),
            queue_capacity: 64,
            ..RuntimeConfig::default()
        };
        let (runtime, wedge) = wedged_runtime(config, 24);
        let hot: Vec<Ticket> = (0..2)
            .map(|i| {
                runtime.submit(SrRequest::single(probe(6, 6, 2_400 + i)).tenant("hot")).unwrap()
            })
            .collect();
        match runtime.submit(SrRequest::single(probe(6, 6, 2_402)).tenant("hot")) {
            Err(SubmitError::TenantQuota { tenant, quota }) => {
                assert_eq!(tenant, "hot");
                assert_eq!(quota, 2);
            }
            other => panic!("expected TenantQuota, got {other:?}"),
        }
        // The global queue has plenty of room: another tenant sails in.
        let cold = runtime.submit(SrRequest::single(probe(6, 6, 2_403)).tenant("cold")).unwrap();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        for ticket in hot {
            assert!(ticket.wait().is_ok());
        }
        assert!(cold.wait().is_ok());
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.quota_rejected, 1);
        assert_eq!(stats.completed, 4);
        let hot_lane = stats.tenants.iter().find(|t| t.tenant == "hot").unwrap();
        assert_eq!(hot_lane.quota_rejected, 1);
        assert_eq!(hot_lane.completed, 2);
    });
}

/// The quota follows the lane a request actually joins: at a busy lane cap
/// a new tenant folds into the anonymous lane and is held to *its* quota,
/// so rotating tenant names buys nothing — and the honest untagged traffic
/// sharing that lane is refused only while the folded requests are queued.
#[test]
fn rotating_tenant_names_cannot_bypass_the_lane_quota() {
    with_watchdog(120, "quota-fold", || {
        let config = RuntimeConfig {
            tenant_quota: Some(2),
            max_tenant_lanes: 1,
            queue_capacity: 64,
            ..RuntimeConfig::default()
        };
        let (runtime, wedge) = wedged_runtime(config, 29);
        // The one tagged lane is pinned by queued work, so it cannot be
        // retired to make room for another name.
        let pinned =
            runtime.submit(SrRequest::single(probe(6, 6, 2_900)).tenant("pinned")).unwrap();
        let mut folded = Vec::new();
        for i in 0..20 {
            let request = SrRequest::single(probe(6, 6, 2_901 + i)).tenant(format!("rotating-{i}"));
            match runtime.submit(request) {
                Ok(ticket) => folded.push(ticket),
                Err(SubmitError::TenantQuota { tenant, quota }) => {
                    assert_eq!(tenant, "default", "held to the lane it would join");
                    assert_eq!(quota, 2);
                }
                Err(other) => panic!("expected TenantQuota, got {other}"),
            }
        }
        assert_eq!(folded.len(), 2, "the anonymous lane's quota bounds every folded tenant");
        match runtime.submit(SrRequest::single(probe(6, 6, 2_950))) {
            Err(SubmitError::TenantQuota { .. }) => {}
            other => panic!("the shared lane is at its quota, got {other:?}"),
        }
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        assert!(pinned.wait().is_ok());
        for ticket in folded {
            assert!(ticket.wait().is_ok());
        }
        // The folded requests are served: untagged traffic is admitted again.
        let honest = runtime.submit(SrRequest::single(probe(6, 6, 2_951))).unwrap();
        assert!(honest.wait().is_ok());
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.quota_rejected, 19);
        let tenants: Vec<&str> = stats.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(tenants, ["pinned"], "a folded tenant never gets a lane");
        assert_eq!(stats.tenants[0].quota_rejected, 0, "charged to the lane that was full");
    });
}

/// Depth-watermark shedding: once the queue is at the watermark, both the
/// non-blocking and the blocking submit paths refuse immediately with the
/// typed `Shedding` — fail-fast, not wait-out-the-overload.
#[test]
fn the_shed_watermark_refuses_work_before_the_queue_is_full() {
    with_watchdog(120, "shed-watermark", || {
        let config = RuntimeConfig {
            shed: ShedPolicy { queue_watermark: Some(2), ..ShedPolicy::default() },
            queue_capacity: 64,
            ..RuntimeConfig::default()
        };
        let (runtime, wedge) = wedged_runtime(config, 25);
        let q1 = runtime.submit(SrRequest::single(probe(6, 6, 2_500))).unwrap();
        let q2 = runtime.submit(SrRequest::single(probe(6, 6, 2_501))).unwrap();
        for outcome in [
            runtime.submit(SrRequest::single(probe(6, 6, 2_502))).map(|_| ()),
            runtime.submit_wait(SrRequest::single(probe(6, 6, 2_503))).map(|_| ()),
            runtime
                .submit_wait_timeout(
                    SrRequest::single(probe(6, 6, 2_504)),
                    Duration::from_secs(30),
                )
                .map(|_| ()),
        ] {
            match outcome {
                Err(SubmitError::Shedding { reason }) => {
                    assert_eq!(reason, "queue depth watermark");
                }
                other => panic!("expected Shedding, got {other:?}"),
            }
        }
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        assert!(q1.wait().is_ok());
        assert!(q2.wait().is_ok());
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 0, "shedding is its own counter, not `rejected`");
    });
}

/// The p99 trip wire recovers: a tripped wire that drained the queue has
/// no dispatches left to refresh its sample, so the stale reading re-arms
/// admission after `p99_recovery` instead of latching a transient spike
/// into a permanent outage.
#[test]
fn a_tripped_p99_wire_recovers_once_its_reading_goes_stale() {
    with_watchdog(120, "p99-recovery", || {
        let config = RuntimeConfig {
            workers: 1,
            // Any completed dispatch trips a 1 ns wire.
            shed: ShedPolicy {
                queue_watermark: None,
                p99_trip: Some(Duration::from_nanos(1)),
                p99_recovery: Duration::from_millis(150),
            },
            ..RuntimeConfig::default()
        };
        let runtime =
            Runtime::spawn(engine_for(Method::scales(), Backend::Scalar, 26), config).unwrap();
        // Serve until the wire trips (the sample is published shortly
        // after the ticket resolves, so poll rather than assume).
        let mut served = 0;
        loop {
            match runtime.submit(SrRequest::single(probe(6, 6, 2_600 + served))) {
                Ok(ticket) => {
                    assert!(ticket.wait().is_ok());
                    served += 1;
                }
                Err(SubmitError::Shedding { reason }) => {
                    assert_eq!(reason, "p99 latency trip wire");
                    break;
                }
                Err(other) => panic!("expected Shedding, got {other:?}"),
            }
        }
        assert!(served >= 1, "at least one dispatch must publish a sample");
        // No dispatches run while tripped; once the reading is older than
        // the recovery window, admission must re-arm on its own.
        std::thread::sleep(Duration::from_millis(500));
        let revived = runtime
            .submit(SrRequest::single(probe(6, 6, 2_690)))
            .expect("a stale trip reading must re-arm admission");
        assert!(revived.wait().is_ok(), "recovered runtime must serve again");
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert!(stats.shed >= 1, "the trip itself was counted");
        assert_eq!(stats.completed, served + 1);
    });
}

/// The lane table is bounded by `max_tenant_lanes`: a parade of distinct
/// tenant names retires idle lanes instead of growing server state, the
/// retired lanes' counts stay in the global totals, and a *refused*
/// request never creates a lane at all.
#[test]
fn untrusted_tenant_names_cannot_grow_the_lane_table() {
    with_watchdog(120, "lane-cap", || {
        let config = RuntimeConfig {
            workers: 1,
            max_tenant_lanes: 2,
            ..RuntimeConfig::default()
        };
        let runtime =
            Runtime::spawn(engine_for(Method::scales(), Backend::Scalar, 27), config).unwrap();
        // Eight distinct tenants, served one at a time so each lane goes
        // idle before the next name arrives.
        for i in 0..8 {
            let ticket = runtime
                .submit(SrRequest::single(probe(6, 6, 2_700 + i)).tenant(format!("tenant-{i}")))
                .unwrap();
            assert!(ticket.wait().is_ok());
        }
        // A refusal must not create a lane either: this tenant only ever
        // shows up with an already-expired deadline.
        match runtime.submit(
            SrRequest::single(probe(6, 6, 2_790)).tenant("ghost").deadline_in(Duration::ZERO),
        ) {
            Err(SubmitError::Expired) => {}
            other => panic!("expected Expired, got {other:?}"),
        }
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert!(
            stats.tenants.len() <= 2,
            "lane table must stay within max_tenant_lanes, got {:?}",
            stats.tenants.iter().map(|t| t.tenant.as_str()).collect::<Vec<_>>()
        );
        assert!(
            stats.tenants.iter().all(|t| t.tenant != "ghost"),
            "a refused request must not create a lane"
        );
        // Retiring lanes must not lose counts from the global totals.
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.expired, 1, "the ghost refusal is still counted globally");
    });
}

/// Deadline tags cannot buy unbounded priority: EDF runs *within* the
/// weighted rotation, so a tenant stamping every request with a far-away
/// deadline still spends lane credits like everyone else and cannot
/// starve a weighted tenant's untagged backlog.
#[test]
fn deadline_spam_does_not_starve_the_weighted_rotation() {
    with_watchdog(120, "edf-fairness", || {
        let config = RuntimeConfig {
            tenant_weights: vec![("gold".into(), 3)],
            ..RuntimeConfig::default()
        };
        let (runtime, wedge) = wedged_runtime(config, 28);
        // The spammer queues first, every request deadline-tagged with a
        // huge budget — under absolute-priority EDF this backlog would
        // drain completely before any untagged work.
        let spam: Vec<Ticket> = (0..4)
            .map(|i| {
                runtime
                    .submit(
                        SrRequest::single(probe(6, 6, 2_800 + i))
                            .tenant("spam")
                            .deadline_in(Duration::from_secs(3600)),
                    )
                    .unwrap()
            })
            .collect();
        let gold: Vec<Ticket> = (0..4)
            .map(|i| {
                runtime
                    .submit(SrRequest::single(probe(6, 6, 2_850 + i)).tenant("gold"))
                    .unwrap()
            })
            .collect();
        assert_eq!(wedge.wait().unwrap().images().len(), 12);
        let (gold_done, spam_done) = (last_infer_done(gold), last_infer_done(spam));
        assert!(
            gold_done < spam_done,
            "gold (weight 3, no deadlines) must not wait out the deadline spammer's backlog"
        );
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);
        assert_eq!(stats.completed, 9);
        assert_eq!(stats.deadline_misses, 0, "the spam deadlines were generous");
    });
}

/// Outcome conservation under overload: a hot low-weight tenant (tight
/// deadlines on every other request) and a cold weighted tenant burst
/// concurrently into a short queue with a shed watermark below it and a
/// tenant quota below that. Every submission lands in exactly one typed
/// bucket, the buckets close over the number attempted, and the runtime's
/// own ledger agrees with the callers' tallies. How the burst splits
/// across the buckets is the scheduler's business and is not asserted.
#[test]
fn every_submission_under_overload_gets_exactly_one_typed_outcome() {
    /// One tenant's tally: `[served, queue_full, shed, quota, expired]`.
    fn drive(runtime: &Runtime, tenant: &str, count: u64, deadline: Option<Duration>) -> [u64; 5] {
        let mut tally = [0u64; 5];
        let mut tickets = Vec::new();
        for i in 0..count {
            let mut request = SrRequest::single(probe(16, 16, 9_000 + i)).tenant(tenant);
            if let Some(budget) = deadline.filter(|_| i % 2 == 0) {
                request = request.deadline_in(budget);
            }
            match runtime.submit(request) {
                Ok(ticket) => tickets.push(ticket),
                Err(SubmitError::QueueFull { .. }) => tally[1] += 1,
                Err(SubmitError::Shedding { .. }) => tally[2] += 1,
                Err(SubmitError::TenantQuota { .. }) => tally[3] += 1,
                Err(SubmitError::Expired) => tally[4] += 1,
                Err(other) => panic!("untyped refusal under overload: {other}"),
            }
        }
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => tally[0] += 1,
                Err(ServeError::Rejected(SubmitError::Expired)) => tally[4] += 1,
                Err(other) => panic!("an accepted ticket must serve or expire, got: {other}"),
            }
        }
        tally
    }

    with_watchdog(240, "overload-conservation", || {
        let runtime = Runtime::spawn(
            engine_for(Method::scales(), backend::active(), 7),
            RuntimeConfig {
                workers: 2,
                queue_capacity: 16,
                shed: ShedPolicy { queue_watermark: Some(12), ..ShedPolicy::default() },
                tenant_quota: Some(10),
                tenant_weights: vec![("cold".into(), 3)],
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // The hot tenant offers 3× the cold tenant's load at a third of
        // its weight.
        let (hot_share, cold_share) = (48, 16);
        let (hot, cold) = std::thread::scope(|scope| {
            let hot = scope
                .spawn(|| drive(&runtime, "hot", hot_share, Some(Duration::from_millis(5))));
            let cold = scope.spawn(|| drive(&runtime, "cold", cold_share, None));
            (hot.join().expect("hot tenant"), cold.join().expect("cold tenant"))
        });
        let stats = runtime.shutdown();
        assert_ledger_closes(&stats);

        assert_eq!(hot.iter().sum::<u64>(), hot_share, "hot outcomes must close: {hot:?}");
        assert_eq!(cold.iter().sum::<u64>(), cold_share, "cold outcomes must close: {cold:?}");
        let [served, queue_full, shed, quota, expired] =
            std::array::from_fn(|bucket| hot[bucket] + cold[bucket]);
        assert_eq!(stats.completed, served);
        assert_eq!(stats.rejected, queue_full);
        assert_eq!(stats.shed, shed);
        assert_eq!(stats.quota_rejected, quota);
        assert_eq!(stats.expired, expired);
        assert_eq!(stats.failed, 0, "overload must never surface as an inference failure");
        // The hot lane holds at most its quota (10) and the watermark is
        // 12, so the cold tenant's first request is always admitted — and
        // an admitted request without a deadline is always served.
        assert!(cold[0] > 0, "the weighted cold tenant must not be starved");
    });
}

