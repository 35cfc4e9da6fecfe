//! # scales-http
//!
//! The network edge of the SCALES reproduction: a std-only HTTP/1.1
//! server over a [`scales-router`](scales_router) model fleet — one model
//! or many, each on its own [`scales-runtime`](scales_runtime) worker
//! pool. No tokio, no hyper — a
//! [`TcpListener`](std::net::TcpListener) accept thread, a bounded
//! connection backlog, and plain connection-worker threads, matching the
//! runtime's own hand-rolled concurrency style.
//!
//! Routes ([`HttpServer::bind_router`]):
//!
//! | Route | Behavior |
//! |---|---|
//! | `POST /v1/models/{name}/upscale` | Decode the body ([`scales_data::codec`]: PPM P6 or the PNG subset), route it by model name through [`ModelRouter::submit_wait_timeout`](scales_router::ModelRouter::submit_wait_timeout), answer `200` with the upscaled image in the same wire format; an unknown name is a `404`. |
//! | `POST /v1/upscale` | The same, to the fleet's only model; a fleet of none or several answers `404` (name the model). |
//! | `GET /v1/models` | The fleet as JSON: name, arch, scale, version, artifact fingerprint, serving state, memory charges. |
//! | `POST /v1/models/{name}/reload` | Zero-downtime hot-swap from the model's artifact path ([`ModelRouter::reload`](scales_router::ModelRouter::reload)); in-memory models answer `409`. |
//! | `GET /metrics` | Prometheus text: the fleet's `model`-labeled series, the build info, and the front end's own counters and stage histograms (the README's "Metric families" table lists every family). |
//! | `GET /healthz` | `200 ok` liveness probe. |
//! | `GET /v1/debug/traces` | The flight recorder as JSON: recent completed-request traces with per-stage nanoseconds; `?slow=1` returns the separately-retained slow ring. |
//! | `GET /v1/debug/profile` | Per-op plan profiles per model (`?model={name}` selects one); empty until profiling is on ([`RuntimeConfig::profile_ops`](scales_runtime::RuntimeConfig::profile_ops)). |
//!
//! Every request is traced: the server accepts a valid
//! `X-Scales-Request-Id` header (or mints an id), echoes it on **every**
//! response — refusals included — and folds the completed request into
//! the [`FlightRecorder`](scales_telemetry::FlightRecorder) with its
//! eight stage spans (`parse` → `write`), retrievable over the wire at
//! `GET /v1/debug/traces` or in-process via [`HttpServer::traces`].
//!
//! The server assembles no text format itself: `/metrics` goes through
//! [`scales_telemetry::Exposition`] and every JSON document through
//! [`scales_telemetry::JsonWriter`], so whatever a name or label holds (an
//! artifact's architecture name is free-form UTF-8) the writer escapes it.
//!
//! Hardening is the point, not an afterthought: request lines and
//! headers are length- and count-bounded, bodies are
//! `Content-Length`-framed and size-checked before allocation, hostile
//! payloads map to typed [`RequestError`]s with definite 4xx statuses
//! (never a panic or a hung connection), a slow or stuck model answer
//! becomes a `503` after [`HttpConfig::request_timeout`], and
//! [`HttpServer::shutdown`] drains in-flight work through
//! [`ModelRouter::shutdown`](scales_router::ModelRouter::shutdown) and
//! returns the final serving stats.
//!
//! See the [`HttpServer`] docs for a complete spawn-and-shutdown
//! example, and `examples/http_serve.rs` at the workspace root for a
//! full train → serve → HTTP round trip.

mod config;
mod error;
mod parser;
mod server;

pub use config::HttpConfig;
pub use error::{HttpError, RequestError};
pub use parser::{RequestHead, RequestReader};
pub use server::HttpServer;
