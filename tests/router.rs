//! Integration suite for the `scales-router` model fleet: per-request
//! routing, zero-downtime hot-swap, and the memory budget.
//!
//! The headline contracts (ISSUE 8 acceptance):
//!
//! - routing by name is **bit-identical** to serving the same model
//!   through a direct serial [`Session`](scales::serve::Session) — the
//!   router adds dispatch, not numerics;
//! - a hot-swap under concurrent submitters drops **zero** requests:
//!   every submit returns a served response that bit-matches either the
//!   old or the new version, never garbage, never an error;
//! - the byte budget evicts the least-recently-used path-backed model,
//!   and a request to an evicted model transparently reloads it.

mod common;

use common::trained_like;
use scales::core::Method;
use scales::data::Image;
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::router::{ModelRouter, ModelState, RouterConfig, RouterError};
use scales::runtime::RuntimeConfig;
use scales::serve::{Engine, SrRequest};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Run `f` on a helper thread and fail the test if it has not finished
/// within `secs` — a stuck drain or deadlocked sweep must be a clean
/// test failure, not a hung CI job.
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

/// A small deployable network whose output is bitwise distinguishable
/// per seed: freshly built nets all answer exactly the bicubic baseline,
/// so it is [`trained_like`].
fn net(seed: u64) -> impl SrNetwork {
    let config = SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed };
    trained_like(srresnet(config).unwrap())
}

/// Reference output: the same artifact served through a direct serial
/// engine — what every routed response must bit-match.
fn direct_from_path(path: &std::path::Path, input: &Image) -> Image {
    let engine = Engine::builder().model_path(path).build().unwrap();
    engine.session().infer(SrRequest::single(input.clone())).unwrap().into_images().remove(0)
}

fn assert_bit_identical(got: &Image, want: &Image, label: &str) {
    assert_eq!(got.tensor().shape(), want.tensor().shape(), "{label}: shape");
    for (i, (a, b)) in got.tensor().data().iter().zip(want.tensor().data().iter()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{label}: value {i} differs bitwise: {a} vs {b}"
        );
    }
}

fn bit_matches(got: &Image, want: &Image) -> bool {
    got.tensor().shape() == want.tensor().shape()
        && got
            .tensor()
            .data()
            .iter()
            .zip(want.tensor().data().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Fresh per-test scratch directory (removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("scales-router-test-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_runtime() -> RuntimeConfig {
    RuntimeConfig { workers: 1, queue_capacity: 16, ..RuntimeConfig::default() }
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// Routing adds dispatch, not numerics: a fleet of two models — one
/// path-backed, one in-memory — answers each name bit-identically to a
/// direct serial session over the same model, and never crosses wires.
#[test]
fn routing_by_name_is_bit_identical_to_direct_sessions() {
    with_watchdog(120, "route-bit-identity", || {
        let scratch = Scratch::new("route");
        let path_a = scratch.path("a.dep.sca");
        scales::io::save_artifact(&path_a, &net(21).lower().unwrap()).unwrap();

        let router = ModelRouter::new(RouterConfig {
            memory_budget: None,
            runtime: small_runtime(),
            ..RouterConfig::default()
        })
        .unwrap();
        router.register_path("model-a", &path_a).unwrap();
        router.register_model("model-b", net(22).lower().unwrap()).unwrap();

        let input = probe(9, 7, 5);
        let want_a = direct_from_path(&path_a, &input);
        let want_b = {
            // The same construction seed rebuilds the identical network.
            let engine = Engine::builder().model(net(22)).build().unwrap();
            engine.session().infer(SrRequest::single(input.clone())).unwrap().into_images().remove(0)
        };
        assert!(
            !bit_matches(&want_a, &want_b),
            "the two models must be distinguishable for this test to mean anything"
        );

        let got_a = router
            .submit_wait_timeout("model-a", SrRequest::single(input.clone()), TIMEOUT)
            .unwrap()
            .unwrap();
        let got_b = router
            .submit_wait_timeout("model-b", SrRequest::single(input.clone()), TIMEOUT)
            .unwrap()
            .unwrap();
        assert_bit_identical(&got_a.images()[0], &want_a, "model-a routed");
        assert_bit_identical(&got_b.images()[0], &want_b, "model-b routed");

        // The fleet report shows both models serving with sane identity.
        let list = router.list();
        assert_eq!(
            list.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["model-a", "model-b"],
            "list is sorted by name"
        );
        for m in &list {
            assert_eq!(m.state, ModelState::Serving);
            assert_eq!(m.version, 1);
            assert_eq!(m.scale, 2);
            assert!(m.weight_bytes > 0, "{}: weight bytes charged", m.name);
            assert!(m.resident_bytes >= m.weight_bytes, "{}: resident >= weights", m.name);
            assert_ne!(m.fingerprint, 0, "{}: fingerprint recorded", m.name);
        }
        assert!(list[0].reloadable, "path-backed model is reloadable");
        assert!(!list[1].reloadable, "in-memory model is pinned");

        let stats = router.shutdown();
        let merged = stats.merged_runtime();
        assert_eq!(merged.failed, 0);
        assert_eq!(merged.completed, 2);
    });
}

/// The zero-downtime headline: while submitter threads hammer one model,
/// the artifact file is replaced and hot-swapped. Every single submit —
/// before, during, and after the swap — must come back served and
/// bit-match exactly one of the two versions; after the swap settles,
/// responses must be the new version's.
#[test]
fn hot_swap_under_concurrent_load_drops_and_corrupts_nothing() {
    with_watchdog(240, "hot-swap", || {
        let scratch = Scratch::new("swap");
        let path = scratch.path("model.dep.sca");
        scales::io::save_artifact(&path, &net(31).lower().unwrap()).unwrap();

        let input = probe(8, 8, 9);
        let want_v1 = direct_from_path(&path, &input);
        let want_v2 = {
            let engine = Engine::builder().model(net(32)).build().unwrap();
            engine.session().infer(SrRequest::single(input.clone())).unwrap().into_images().remove(0)
        };
        assert!(!bit_matches(&want_v1, &want_v2), "versions must be distinguishable");

        let router = ModelRouter::new(RouterConfig {
            memory_budget: None,
            runtime: RuntimeConfig {
                workers: 2,
                queue_capacity: 16,
                ..RuntimeConfig::default()
            },
            ..RouterConfig::default()
        })
        .unwrap();
        let registered = router.register_path("sr", &path).unwrap();
        assert_eq!((registered.version, registered.swaps), (1, 0));

        let stop = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..2)
            .map(|t| {
                let router = router.clone();
                let stop = Arc::clone(&stop);
                let input = input.clone();
                let (want_v1, want_v2) = (want_v1.clone(), want_v2.clone());
                std::thread::Builder::new()
                    .name(format!("swap-submitter-{t}"))
                    .spawn(move || {
                        let mut served = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let response = router
                                .submit_wait_timeout("sr", SrRequest::single(input.clone()), TIMEOUT)
                                .expect("a hot-swap must never refuse a routed request")
                                .expect("a hot-swap must never fail a routed request");
                            let image = &response.images()[0];
                            assert!(
                                bit_matches(image, &want_v1) || bit_matches(image, &want_v2),
                                "response must bit-match exactly one served version"
                            );
                            served += 1;
                        }
                        served
                    })
                    .unwrap()
            })
            .collect();

        // Let traffic build, then swap the artifact under it.
        std::thread::sleep(Duration::from_millis(100));
        scales::io::save_artifact(&path, &net(32).lower().unwrap()).unwrap();
        let swapped = router.reload("sr").unwrap();
        assert_eq!((swapped.version, swapped.swaps), (2, 1));
        assert_eq!(swapped.state, ModelState::Serving);

        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        let mut served = 0;
        for t in submitters {
            served += t.join().expect("submitter panicked");
        }
        assert!(served >= 2, "submitters must have gotten real traffic through");

        // The swap has settled: a fresh request is the new version, bitwise.
        let after = router
            .submit_wait_timeout("sr", SrRequest::single(input.clone()), TIMEOUT)
            .unwrap()
            .unwrap();
        assert_bit_identical(&after.images()[0], &want_v2, "post-swap response");

        // Nothing was dropped anywhere: every request either version
        // accepted was completed, across both the retired and live runtimes.
        let stats = router.shutdown();
        let merged = stats.merged_runtime();
        assert_eq!(merged.failed, 0, "zero failed requests through the swap");
        assert_eq!(merged.rejected, 0, "zero rejected requests through the swap");
        assert_eq!(
            merged.submitted, merged.completed,
            "every accepted request was served (zero drops)"
        );
        assert_eq!(
            merged.completed,
            served + 1,
            "the folded record covers every submitter request plus the post-swap probe"
        );
    });
}

/// The byte budget: loading a second model over budget drains the
/// least-recently-used path-backed one; a request routed to the evicted
/// model transparently reloads it (and evicts the other in turn), and
/// pinned in-memory models are never victims.
#[test]
fn memory_budget_evicts_lru_and_requests_reload_transparently() {
    with_watchdog(240, "lru-eviction", || {
        let scratch = Scratch::new("lru");
        let path_a = scratch.path("a.dep.sca");
        let path_b = scratch.path("b.dep.sca");
        scales::io::save_artifact(&path_a, &net(41).lower().unwrap()).unwrap();
        scales::io::save_artifact(&path_b, &net(42).lower().unwrap()).unwrap();
        let size_a = usize::try_from(std::fs::metadata(&path_a).unwrap().len()).unwrap();
        let size_b = usize::try_from(std::fs::metadata(&path_b).unwrap().len()).unwrap();

        // Room for either model alone, never for both.
        let router = ModelRouter::new(RouterConfig {
            memory_budget: Some(size_a + size_b - 1),
            runtime: small_runtime(),
            ..RouterConfig::default()
        })
        .unwrap();
        router.register_path("a", &path_a).unwrap();
        let b = router.register_path("b", &path_b).unwrap();
        assert_eq!(b.state, ModelState::Serving, "the just-loaded model always serves");

        let a = router.model("a").unwrap();
        assert_eq!(a.state, ModelState::Evicted, "the colder model was drained");
        assert_eq!(a.evictions, 1);
        assert_eq!(a.resident_bytes, 0, "an evicted model charges nothing");
        assert!(router.resident_bytes() < size_a + size_b, "fleet fits the budget");

        // Routing to the evicted model reloads it — the response is still
        // bit-identical to its artifact — and now `b` is the LRU victim.
        let input = probe(8, 8, 7);
        let want_a = direct_from_path(&path_a, &input);
        let got_a = router
            .submit_wait_timeout("a", SrRequest::single(input.clone()), TIMEOUT)
            .unwrap()
            .unwrap();
        assert_bit_identical(&got_a.images()[0], &want_a, "reloaded model-a");

        let a = router.model("a").unwrap();
        assert_eq!(a.state, ModelState::Serving);
        assert_eq!(a.version, 2, "the lazy reload is a new version");
        let b = router.model("b").unwrap();
        assert_eq!(b.state, ModelState::Evicted);
        assert_eq!(b.evictions, 1);

        // A pinned in-memory model is never a victim, even over budget.
        router.register_model("pinned", net(43).lower().unwrap()).unwrap();
        let pinned = router.model("pinned").unwrap();
        assert_eq!(pinned.state, ModelState::Serving);
        assert!(!pinned.reloadable);
        let got_pinned = router
            .submit_wait_timeout("pinned", SrRequest::single(input.clone()), TIMEOUT)
            .unwrap()
            .unwrap();
        assert_eq!(got_pinned.images()[0].height(), 16);
        assert_eq!(
            router.model("pinned").unwrap().state,
            ModelState::Serving,
            "pinned models survive every budget sweep"
        );

        let stats = router.shutdown();
        let merged = stats.merged_runtime();
        assert_eq!(merged.failed, 0);
        assert_eq!(merged.submitted, merged.completed);
    });
}

/// Typed refusals: unknown names, duplicate registrations, reloading a
/// pinned model, and routing after shutdown each get their own variant.
#[test]
fn typed_errors_for_unknown_duplicate_pinned_and_shutdown() {
    with_watchdog(120, "typed-errors", || {
        let router =
            ModelRouter::new(RouterConfig { memory_budget: None, runtime: small_runtime(), ..RouterConfig::default() })
                .unwrap();
        router.register_model("only", net(51).lower().unwrap()).unwrap();

        let unknown =
            router.submit_wait_timeout("nope", SrRequest::single(probe(8, 8, 1)), TIMEOUT);
        assert!(
            matches!(&unknown, Err(RouterError::UnknownModel { name }) if name == "nope"),
            "unknown model must be a typed refusal: {:?}",
            unknown.map(|r| r.map(|_| "served"))
        );

        let duplicate = router.register_model("only", net(52).lower().unwrap());
        assert!(
            matches!(&duplicate, Err(RouterError::DuplicateModel { name }) if name == "only"),
            "duplicate registration must be refused: {duplicate:?}"
        );

        let pinned = router.reload("only");
        assert!(
            matches!(&pinned, Err(RouterError::NotReloadable { name }) if name == "only"),
            "reloading an in-memory model must be refused: {pinned:?}"
        );

        let _ = router.shutdown();
        let closed = router.submit_wait_timeout("only", SrRequest::single(probe(8, 8, 1)), TIMEOUT);
        assert!(
            matches!(&closed, Err(RouterError::ShuttingDown)),
            "routing after shutdown must be refused: {:?}",
            closed.map(|r| r.map(|_| "served"))
        );
        // Shutdown is idempotent through any clone of the handle.
        let again = router.clone().shutdown();
        assert_eq!(again.models.len(), 1);
    });
}

/// A failed reload never disturbs the serving version: corrupt the
/// artifact file, reload → typed `Load` error, and the model keeps
/// answering bit-identically on the original weights.
#[test]
fn failed_reload_leaves_the_serving_version_untouched() {
    with_watchdog(120, "failed-reload", || {
        let scratch = Scratch::new("badswap");
        let path = scratch.path("model.dep.sca");
        scales::io::save_artifact(&path, &net(61).lower().unwrap()).unwrap();
        let input = probe(8, 8, 3);
        let want = direct_from_path(&path, &input);

        let router =
            ModelRouter::new(RouterConfig { memory_budget: None, runtime: small_runtime(), ..RouterConfig::default() })
                .unwrap();
        router.register_path("sr", &path).unwrap();

        std::fs::write(&path, b"definitely not an artifact").unwrap();
        let failed = router.reload("sr");
        assert!(
            matches!(&failed, Err(RouterError::Load { name, .. }) if name == "sr"),
            "a corrupt artifact must be a typed load error: {failed:?}"
        );

        let m = router.model("sr").unwrap();
        assert_eq!((m.state, m.version, m.swaps), (ModelState::Serving, 1, 0));
        let got = router
            .submit_wait_timeout("sr", SrRequest::single(input.clone()), TIMEOUT)
            .unwrap()
            .unwrap();
        assert_bit_identical(&got.images()[0], &want, "post-failed-reload response");
        let _ = router.shutdown();
    });
}
