//! # scales-telemetry
//!
//! The request-scoped observability layer of the serving stack: trace
//! context, stage-level latency attribution, per-op plan profiles, and
//! the flight recorder behind the HTTP debug endpoints. Std-only, no
//! dependencies — every serving crate (models, serve, runtime, router,
//! http) threads these types without pulling anything else in.
//!
//! Five pieces:
//!
//! - [`RequestId`] — the trace handle. The HTTP edge accepts a valid
//!   `X-Scales-Request-Id` header or mints one from a process-unique
//!   atomic counter, carries it on the request through router, runtime
//!   and ticket, and echoes it on **every** response (refusals
//!   included), so any client-observed outcome is correlatable with a
//!   recorded trace.
//! - [`RequestTrace`] + [`Stage`] — one completed request, attributed to
//!   the eight serving stages (`parse` → `write`). Spans telescope over
//!   one monotonic timeline, so they are non-negative by construction
//!   and sum *exactly* to the recorded total.
//! - [`FlightRecorder`] — a mutex-sharded fixed-capacity ring of recent
//!   traces plus a separate ring retaining slow requests above a
//!   threshold; snapshots render as JSON for `GET /v1/debug/traces` and
//!   are available as typed values in-process.
//! - [`OpProfile`] — cumulative calls/nanoseconds per deployed-op kind,
//!   accumulated in the planned executor's workspace when profiling is
//!   switched on (zero cost when off) and aggregated per model for
//!   `GET /v1/debug/profile` and the `scales_model_plan_op_*` series.
//! - [`Exposition`] + [`JsonWriter`] — the two text writers. Every
//!   `/metrics` family and every JSON document of the stack is rendered
//!   through them, so the Prometheus text format and JSON (escaping
//!   included) are known here and nowhere else — CI greps for it.
//!
//! ```
//! use scales_telemetry::{FlightRecorder, RequestId, RequestTrace, Stage};
//! use std::time::Duration;
//!
//! let recorder = FlightRecorder::new(64, Duration::from_millis(250), 16);
//! let mut trace = RequestTrace::new(RequestId::generate(), 200);
//! trace.stage_ns[Stage::Infer as usize] = 1_000_000;
//! trace.total_ns = 1_000_000;
//! recorder.record(trace);
//! assert_eq!(recorder.recent().len(), 1);
//! assert!(recorder.slow().is_empty(), "1 ms is under the 250 ms threshold");
//! ```

mod expo;
mod id;
mod json;
mod profile;
mod recorder;
mod trace;

pub use expo::{Exposition, FamilyKind};
pub use id::{is_wire_safe_name, RequestId, TelemetryError};
pub use json::JsonWriter;
pub use profile::{OpProfile, OpProfileEntry};
pub use recorder::FlightRecorder;
pub use trace::{render_traces_json, RequestTrace, RuntimeStamps, Stage, STAGES};
