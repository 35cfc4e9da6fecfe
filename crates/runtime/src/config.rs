//! Runtime sizing and admission-control configuration.

use scales_tensor::{Result, TensorError};
use std::time::Duration;

/// Sizing of a [`Runtime`](crate::Runtime): worker count, submission-queue
/// bound, the dynamic batcher's image cap, and the admission controller's
/// fairness and shedding knobs.
///
/// All fields are public; start from [`RuntimeConfig::default`] and
/// override with struct-update syntax:
///
/// ```
/// use scales_runtime::RuntimeConfig;
///
/// let config = RuntimeConfig {
///     workers: 4,
///     max_batch: 4,
///     ..RuntimeConfig::default()
/// };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads, and the size of the pool of planned-executor
    /// workspaces (arenas and per-shape plan cache) that every forward — a
    /// worker's, or a blocking caller's running its own request — borrows
    /// one of. Default: the machine's available parallelism.
    pub workers: usize,
    /// Maximum queued (accepted but not yet dispatched) **requests**
    /// across all tenant lanes. When the queue is full,
    /// [`submit`](crate::Runtime::submit) returns
    /// [`SubmitError::QueueFull`](crate::SubmitError::QueueFull) — explicit
    /// backpressure instead of unbounded memory growth. Default: 64.
    pub queue_capacity: usize,
    /// Most **images** per coalesced dispatch. A dispatch takes what is
    /// queued now: the worker gathers compatible queued requests until the
    /// batch holds this many images or none that fits is left, and seals at
    /// once — it never waits for more to arrive. A single request larger
    /// than `max_batch` is still served (alone, in one dispatch). Default: 8.
    pub max_batch: usize,
    /// Load-shedding policy. Default: never shed (admission is bounded by
    /// `queue_capacity` alone).
    pub shed: ShedPolicy,
    /// Maximum queued requests **per tenant lane** (the anonymous lane
    /// included). A lane at its quota refuses with
    /// [`SubmitError::TenantQuota`](crate::SubmitError::TenantQuota) even
    /// while the global queue has room, so one hot tenant cannot fill the
    /// whole queue. `None` (the default) disables quotas.
    pub tenant_quota: Option<usize>,
    /// Dequeue weights for named tenants. Lanes are drained by weighted
    /// round-robin: a lane with weight `w` gets `w` dequeues per cycle
    /// among the backlogged lanes. Tenants not listed here (and the
    /// anonymous lane) weigh 1. Default: empty.
    pub tenant_weights: Vec<(String, u32)>,
    /// Maximum **tagged** tenant lanes (the anonymous lane is not
    /// counted). Lanes are created on the first accepted request of each
    /// tenant, and tenant names are client-controlled (the HTTP
    /// `X-Scales-Tenant` header), so the lane table must be bounded: at
    /// the cap, an idle unweighted lane is retired to make room (its
    /// counters fold into the global totals, its per-tenant series
    /// disappear), and when every tagged lane is weighted or still has
    /// work, new tenants share the anonymous lane instead of growing the
    /// table. Must be at least `tenant_weights.len()` (weighted lanes are
    /// created up front and never retired). Default: 64.
    pub max_tenant_lanes: usize,
    /// Enable the per-op plan profiler in every worker session: each
    /// planned forward attributes its wall time to the deployed op kinds
    /// it executed, surfaced as `RuntimeStats::op_profile` and the
    /// `scales_model_plan_op_*` Prometheus series. Off (the default), the
    /// planned executor takes no timestamps at all — the hot path is
    /// untouched. Default: the `SCALES_PROFILE_OPS` environment variable
    /// (`"0"`, `""`, and unset mean off; anything else means on).
    pub profile_ops: bool,
}

/// When to refuse work *before* the queue is full — the early-rejection
/// half of overload robustness. Both trip wires are optional and
/// independent; the default policy never sheds.
///
/// Shedding is deliberately fail-fast: even the blocking submit paths
/// ([`Runtime::submit_wait`](crate::Runtime::submit_wait) /
/// [`submit_wait_timeout`](crate::Runtime::submit_wait_timeout)) refuse
/// immediately with
/// [`SubmitError::Shedding`](crate::SubmitError::Shedding) instead of
/// waiting out the overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Shed once this many requests are queued. Lower than
    /// `queue_capacity` this acts as an early-warning watermark; `None`
    /// never sheds on depth.
    pub queue_watermark: Option<usize>,
    /// Shed while the observed p99 queue-to-response latency exceeds this
    /// budget. The runtime samples the p99 over a sliding window of its
    /// most recent dispatches, so the wire trips on *current* serving
    /// behavior and releases as recent dispatches come back under budget.
    /// `None` never sheds on latency.
    pub p99_trip: Option<Duration>,
    /// How long a tripped p99 reading stays authoritative without a fresh
    /// dispatch refreshing it. The trip wire stops admissions, which can
    /// drain the queue and freeze the p99 sample at its spike value; once
    /// the last reading is older than this window the wire re-arms from
    /// fresh observations instead of latching a transient spike into a
    /// permanent outage. Ignored while `p99_trip` is `None`; must be
    /// positive when it is not. Default: 1 s.
    pub p99_recovery: Duration,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self {
            queue_watermark: None,
            p99_trip: None,
            p99_recovery: Duration::from_secs(1),
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            queue_capacity: 64,
            max_batch: 8,
            shed: ShedPolicy::default(),
            tenant_quota: None,
            tenant_weights: Vec::new(),
            max_tenant_lanes: 64,
            profile_ops: profile_ops_from_env(),
        }
    }
}

/// The `SCALES_PROFILE_OPS` opt-in: set to anything but `"0"` or the
/// empty string to enable the per-op plan profiler by default.
fn profile_ops_from_env() -> bool {
    std::env::var("SCALES_PROFILE_OPS").is_ok_and(|v| !v.is_empty() && v != "0")
}

impl RuntimeConfig {
    /// Check the sizing and admission policy are servable.
    ///
    /// # Errors
    ///
    /// Returns an error when `workers`, `queue_capacity`, or `max_batch`
    /// is zero; when `tenant_quota`, the shed watermark, the p99 trip
    /// wire, or its recovery window is a vacuous zero; when
    /// `max_tenant_lanes` is zero or smaller than `tenant_weights`; or
    /// when `tenant_weights` contains a zero weight, a duplicate, or an
    /// invalid tenant name.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(TensorError::InvalidArgument(
                "runtime needs at least one worker".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(TensorError::InvalidArgument(
                "runtime queue capacity must be positive".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(TensorError::InvalidArgument(
                "runtime max_batch must be positive".into(),
            ));
        }
        if self.tenant_quota == Some(0) {
            return Err(TensorError::InvalidArgument(
                "runtime tenant quota must be positive (use None to disable quotas)".into(),
            ));
        }
        if self.shed.queue_watermark == Some(0) {
            return Err(TensorError::InvalidArgument(
                "shed watermark must be positive (use None to disable depth shedding)".into(),
            ));
        }
        if self.shed.p99_trip == Some(Duration::ZERO) {
            return Err(TensorError::InvalidArgument(
                "shed p99 trip wire must be positive (use None to disable latency shedding)"
                    .into(),
            ));
        }
        if self.shed.p99_trip.is_some() && self.shed.p99_recovery == Duration::ZERO {
            return Err(TensorError::InvalidArgument(
                "shed p99 recovery window must be positive when the trip wire is armed".into(),
            ));
        }
        if self.max_tenant_lanes == 0 {
            return Err(TensorError::InvalidArgument(
                "runtime max_tenant_lanes must be positive".into(),
            ));
        }
        if self.max_tenant_lanes < self.tenant_weights.len() {
            return Err(TensorError::InvalidArgument(format!(
                "max_tenant_lanes ({}) must cover every weighted tenant ({} configured)",
                self.max_tenant_lanes,
                self.tenant_weights.len()
            )));
        }
        for (i, (name, weight)) in self.tenant_weights.iter().enumerate() {
            if !scales_telemetry::is_wire_safe_name(name) {
                return Err(TensorError::InvalidArgument(format!(
                    "tenant weight name {name:?} is invalid: 1-64 characters of [A-Za-z0-9._-]"
                )));
            }
            if *weight == 0 {
                return Err(TensorError::InvalidArgument(format!(
                    "tenant {name:?} has weight 0; weights must be positive"
                )));
            }
            if self.tenant_weights[..i].iter().any(|(seen, _)| seen == name) {
                return Err(TensorError::InvalidArgument(format!(
                    "tenant {name:?} is weighted twice"
                )));
            }
        }
        Ok(())
    }

    /// The configured dequeue weight for `tenant` (1 when unlisted or
    /// anonymous).
    pub(crate) fn tenant_weight(&self, tenant: Option<&str>) -> u32 {
        tenant
            .and_then(|name| {
                self.tenant_weights
                    .iter()
                    .find(|(weighted, _)| weighted == name)
                    .map(|(_, weight)| *weight)
            })
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let config = RuntimeConfig::default();
        assert!(config.validate().is_ok());
        assert!(config.workers >= 1);
        // The profiler default tracks the environment opt-in exactly.
        assert_eq!(config.profile_ops, profile_ops_from_env());
    }

    #[test]
    fn zero_extents_are_rejected() {
        for bad in [
            RuntimeConfig { workers: 0, ..RuntimeConfig::default() },
            RuntimeConfig { queue_capacity: 0, ..RuntimeConfig::default() },
            RuntimeConfig { max_batch: 0, ..RuntimeConfig::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn vacuous_admission_knobs_are_rejected() {
        for bad in [
            RuntimeConfig { tenant_quota: Some(0), ..RuntimeConfig::default() },
            RuntimeConfig {
                shed: ShedPolicy { queue_watermark: Some(0), ..ShedPolicy::default() },
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                shed: ShedPolicy { p99_trip: Some(Duration::ZERO), ..ShedPolicy::default() },
                ..RuntimeConfig::default()
            },
            // An armed trip wire with a zero recovery window could never
            // re-arm meaningfully: vacuous, rejected.
            RuntimeConfig {
                shed: ShedPolicy {
                    p99_trip: Some(Duration::from_millis(1)),
                    p99_recovery: Duration::ZERO,
                    ..ShedPolicy::default()
                },
                ..RuntimeConfig::default()
            },
            RuntimeConfig { max_tenant_lanes: 0, ..RuntimeConfig::default() },
            // The cap must cover the pre-created weighted lanes.
            RuntimeConfig {
                max_tenant_lanes: 1,
                tenant_weights: vec![("a".into(), 1), ("b".into(), 2)],
                ..RuntimeConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        // The positive boundary of each knob is legal.
        let tight = RuntimeConfig {
            tenant_quota: Some(1),
            shed: ShedPolicy {
                queue_watermark: Some(1),
                p99_trip: Some(Duration::from_nanos(1)),
                p99_recovery: Duration::from_nanos(1),
            },
            max_tenant_lanes: 1,
            tenant_weights: vec![("a".into(), 1)],
            ..RuntimeConfig::default()
        };
        assert!(tight.validate().is_ok());
        // A zero recovery window is fine while the trip wire is disarmed.
        let disarmed = RuntimeConfig {
            shed: ShedPolicy { p99_recovery: Duration::ZERO, ..ShedPolicy::default() },
            ..RuntimeConfig::default()
        };
        assert!(disarmed.validate().is_ok());
    }

    #[test]
    fn tenant_weights_are_validated() {
        let zero = RuntimeConfig {
            tenant_weights: vec![("acme".into(), 0)],
            ..RuntimeConfig::default()
        };
        assert!(zero.validate().is_err());
        let duplicate = RuntimeConfig {
            tenant_weights: vec![("acme".into(), 2), ("acme".into(), 3)],
            ..RuntimeConfig::default()
        };
        assert!(duplicate.validate().is_err());
        for bad_name in ["", "has space", "x".repeat(65).as_str()] {
            let bad = RuntimeConfig {
                tenant_weights: vec![(bad_name.into(), 1)],
                ..RuntimeConfig::default()
            };
            assert!(bad.validate().is_err(), "{bad_name:?}");
        }
        let good = RuntimeConfig {
            tenant_weights: vec![("acme".into(), 3), ("coyote-2.0".into(), 1)],
            ..RuntimeConfig::default()
        };
        assert!(good.validate().is_ok());
        assert_eq!(good.tenant_weight(Some("acme")), 3);
        assert_eq!(good.tenant_weight(Some("unlisted")), 1);
        assert_eq!(good.tenant_weight(None), 1);
    }
}
