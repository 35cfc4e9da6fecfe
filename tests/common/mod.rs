//! Helpers shared by the whole-network and serving suites (`mod common;`).
//! Each suite uses a subset of them.
#![allow(dead_code)]

use scales::models::SrNetwork;
use scales::runtime::RuntimeStats;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// `net` with every parameter nudged off its seeded init — a stand-in for
/// training. A freshly built network answers exactly the bicubic skip (its
/// tail conv is zero-initialised), so an oracle over untrained networks
/// compares bicubic with bicubic; and a round trip that silently rebuilt
/// from the seed instead of restoring the stored tensors would pass.
pub fn trained_like<N: SrNetwork>(net: N) -> N {
    for (i, p) in net.params().iter().enumerate() {
        p.update_value(|t| {
            for (j, v) in t.data_mut().iter_mut().enumerate() {
                *v += ((i * 131 + j) as f32 * 0.29).sin() * 0.05;
            }
        });
    }
    net
}

/// Run `f` on a helper thread and fail the test if it has not finished
/// within `secs`: a deadlock anywhere in submit, dispatch or shutdown is a
/// clean test failure, not a hung CI job. A body that panics fails the
/// test with its own panic, not as a timeout.
pub fn with_watchdog<T: Send + 'static>(
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
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(result) => {
            runner.join().expect("the runner returns once it has sent its result");
            result
        }
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: {label} did not finish within {secs}s"),
        // The body dropped the sender without sending: it panicked.
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("watchdog: {label} returned without sending its result"),
        },
    }
}

/// What every final `shutdown()` report must satisfy: the queue is drained,
/// every accepted request resolved exactly once, and no tenant lane counts
/// more than the runtime as a whole. `expired` counts deadlines refused at
/// the door (never `submitted`) as well as retractions from the queue, so
/// from the report alone the accepted requests that neither completed nor
/// failed are bounded by it — with no deadline in play that is the
/// equality `submitted == completed + failed`.
pub fn assert_ledger_closes(stats: &RuntimeStats) {
    assert_eq!(stats.queue_depth, 0, "shutdown drains the queue");
    let resolved = stats.completed + stats.failed;
    assert!(
        resolved <= stats.submitted && stats.submitted <= resolved + stats.expired,
        "accepted requests must resolve exactly once: submitted {}, completed {}, failed {}, expired {}",
        stats.submitted, stats.completed, stats.failed, stats.expired
    );
    let lanes = |counter: fn(&scales::runtime::TenantStats) -> u64| -> u64 {
        stats.tenants.iter().map(counter).sum()
    };
    for (name, tenants, global) in [
        ("submitted", lanes(|t| t.submitted), stats.submitted),
        ("completed", lanes(|t| t.completed), stats.completed),
        ("failed", lanes(|t| t.failed), stats.failed),
        ("rejected", lanes(|t| t.rejected), stats.rejected),
        ("shed", lanes(|t| t.shed), stats.shed),
        ("quota_rejected", lanes(|t| t.quota_rejected), stats.quota_rejected),
        ("expired", lanes(|t| t.expired), stats.expired),
        ("deadline_misses", lanes(|t| t.deadline_misses), stats.deadline_misses),
    ] {
        assert!(tenants <= global, "tenant lanes count {tenants} {name}, the runtime only {global}");
    }
}
