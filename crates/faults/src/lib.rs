//! # scales-faults
//!
//! An injectable failure plane for chaos-testing the SCALES serving
//! stack. Production code sprinkles named *fault points* — e.g.
//! `"runtime.dispatch"` before a batch is served, `"router.read"` around
//! an artifact read — and tests arm those points with a [`FaultAction`]:
//! a delay (slow worker), a panic (worker death mid-dispatch), or an
//! error (transient IO failure). The hooks are compiled in only when the
//! consuming crate enables its `faults` cargo feature, which the
//! workspace turns on for test builds alone; a release build never links
//! this crate.
//!
//! The registry is process-global so a test can reach faults buried
//! several crates below it. Two consequences follow:
//!
//! - The unarmed fast path is a single relaxed atomic load — cheap
//!   enough to leave in test binaries that never arm anything.
//! - Tests that arm faults must serialize among themselves (the harness
//!   runs `#[test]`s concurrently); the chaos suite does so with a
//!   shared mutex.
//!
//! ```
//! use scales_faults as faults;
//! use std::time::Duration;
//!
//! // Nothing armed: firing is a no-op.
//! assert_eq!(faults::fire("doc.point"), None);
//!
//! // Arm a one-shot delay; the guard disarms the point when dropped.
//! let guard = faults::arm_times("doc.point", faults::FaultAction::Delay(Duration::ZERO), 1);
//! assert_eq!(
//!     faults::fire("doc.point"),
//!     Some(faults::FaultAction::Delay(Duration::ZERO))
//! );
//! assert_eq!(faults::fire("doc.point"), None); // budget spent
//! assert_eq!(faults::hits("doc.point"), 2);
//! drop(guard);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What an armed fault point does when execution reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Stall the caller for the given duration (slow worker, slow disk).
    Delay(Duration),
    /// Panic at the fault point (worker death mid-dispatch).
    Panic,
    /// Fail with the given message (transient IO error, decode failure).
    Error(String),
}

struct Plan {
    action: FaultAction,
    /// `None` fires forever; `Some(n)` fires `n` more times then goes quiet.
    remaining: Option<u64>,
}

#[derive(Default)]
struct Registry {
    plans: HashMap<&'static str, Plan>,
    hits: HashMap<&'static str, u64>,
}

/// Fast path: `false` means no point is armed anywhere, so [`fire`]
/// returns without touching the registry lock.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Disarms its fault point when dropped, so a panicking test cannot
/// leak an armed fault into the next one.
#[must_use = "dropping the guard immediately disarms the fault"]
#[derive(Debug)]
pub struct FaultGuard {
    point: &'static str,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm(self.point);
    }
}

/// Arm `point` to fire `action` on every hit until disarmed.
pub fn arm(point: &'static str, action: FaultAction) -> FaultGuard {
    install(point, action, None)
}

/// Arm `point` to fire `action` for the next `times` hits, then go quiet
/// (the point stays registered until the guard drops, but fires nothing).
pub fn arm_times(point: &'static str, action: FaultAction, times: u64) -> FaultGuard {
    install(point, action, Some(times))
}

fn install(point: &'static str, action: FaultAction, remaining: Option<u64>) -> FaultGuard {
    let mut reg = registry();
    reg.plans.insert(point, Plan { action, remaining });
    ARMED.store(true, Ordering::Release);
    FaultGuard { point }
}

/// Remove the plan for `point`; idempotent. Prefer letting the
/// [`FaultGuard`] do this.
pub fn disarm(point: &'static str) {
    let mut reg = registry();
    reg.plans.remove(point);
    if reg.plans.is_empty() {
        ARMED.store(false, Ordering::Release);
    }
}

/// Forget every plan and hit counter. For test-suite hygiene between
/// scenarios that share the process.
pub fn reset() {
    let mut reg = registry();
    reg.plans.clear();
    reg.hits.clear();
    ARMED.store(false, Ordering::Release);
}

/// How many times [`fire`] evaluated `point` while *any* fault was
/// armed. Counts evaluations, not firings, so a retry loop's attempt
/// count is observable even after a limited plan goes quiet.
pub fn hits(point: &str) -> u64 {
    registry().hits.get(point).copied().unwrap_or(0)
}

/// Called by production code at a fault point. Returns the action to
/// perform, or `None` when the point is unarmed (or its budget is
/// spent). The caller interprets the action — this crate never sleeps or
/// panics on its own from `fire`.
pub fn fire(point: &'static str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut reg = registry();
    *reg.hits.entry(point).or_insert(0) += 1;
    let plan = reg.plans.get_mut(point)?;
    match &mut plan.remaining {
        None => Some(plan.action.clone()),
        Some(0) => None,
        Some(n) => {
            *n -= 1;
            Some(plan.action.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and the harness runs tests
    /// concurrently, so every test here holds this lock for its whole
    /// body (taken first, so it outlives the test's fault guards): `fire`
    /// counts a hit on *any* point while *some* point is armed.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn unarmed_points_fire_nothing() {
        let _serial = serial();
        assert_eq!(fire("test.unarmed"), None);
        assert_eq!(hits("test.unarmed"), 0);
    }

    #[test]
    fn armed_point_fires_until_the_guard_drops() {
        let _serial = serial();
        let guard = arm("test.forever", FaultAction::Panic);
        assert_eq!(fire("test.forever"), Some(FaultAction::Panic));
        assert_eq!(fire("test.forever"), Some(FaultAction::Panic));
        drop(guard);
        assert_eq!(fire("test.forever"), None);
    }

    #[test]
    fn limited_plan_spends_its_budget_then_goes_quiet() {
        let _serial = serial();
        let _guard = arm_times("test.limited", FaultAction::Error("boom".into()), 2);
        assert_eq!(fire("test.limited"), Some(FaultAction::Error("boom".into())));
        assert_eq!(fire("test.limited"), Some(FaultAction::Error("boom".into())));
        assert_eq!(fire("test.limited"), None);
        // Evaluations keep counting after the budget is spent.
        assert!(hits("test.limited") >= 3);
    }

    #[test]
    fn rearming_replaces_the_plan() {
        let _serial = serial();
        let _guard = arm_times("test.rearm", FaultAction::Panic, 1);
        let _guard2 = arm("test.rearm", FaultAction::Delay(Duration::from_millis(1)));
        assert_eq!(
            fire("test.rearm"),
            Some(FaultAction::Delay(Duration::from_millis(1)))
        );
    }
}
