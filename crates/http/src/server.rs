//! [`HttpServer`] — accept loop, connection-worker pool, routing, and
//! graceful shutdown over a [`ModelRouter`] fleet.
//!
//! Threading model: one accept thread pushes connections into a bounded
//! backlog (`Mutex<VecDeque>` + `Condvar`); [`HttpConfig::workers`]
//! connection workers pop and serve them, one connection at a time, with
//! keep-alive. Between requests a worker waits for the next one with one
//! blocking read, bounded by the socket's read timeout
//! ([`HttpConfig::read_timeout`], set once per connection). While it
//! waits and reads the request head, the worker publishes a clone of its
//! connection in its idle slot; [`HttpServer::shutdown`] wakes it by
//! shutting that clone's read half, so the read returns end of stream.
//! The worker takes the clone back once the head parses, so a request
//! being served is never woken. The accept thread never
//! writes to a socket: backlog-full refusals are handed to a short-lived
//! detached thread with a bounded write timeout, so a stalled peer cannot
//! block intake.
//! [`HttpServer::shutdown`] stops intake, wakes everything, joins the
//! threads, then drains the fleet and returns its per-model records
//! folded into one [`RuntimeStats`].

use crate::config::HttpConfig;
use crate::error::{HttpError, RequestError};
use crate::parser::{RequestHead, RequestReader};
use scales_data::{decode_image, encode_image};
use scales_router::{ModelRouter, RouterError};
use scales_runtime::{LatencyHistogram, RejectReason, RuntimeStats, SubmitError};
use scales_serve::{SrRequest, SrResponse};
use scales_telemetry::{
    render_traces_json, Exposition, FamilyKind, FlightRecorder, JsonWriter, OpProfile, RequestId,
    RequestTrace, Stage,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Write timeout for the detached backlog-full refusal thread: long
/// enough for any live peer to take a ~100-byte response, short enough
/// that a stalled one cannot pin the thread.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the accept thread, the workers, and the handle.
struct Shared {
    router: ModelRouter,
    config: HttpConfig,
    shutdown: AtomicBool,
    /// Accepted connections waiting for a worker (bounded by
    /// [`HttpConfig::max_pending`]).
    backlog: Mutex<VecDeque<TcpStream>>,
    /// Signaled on enqueue and on shutdown.
    work: Condvar,
    /// One slot per connection worker: a clone of its connection while
    /// it waits for and reads the next request head, `None` otherwise.
    /// The shutdown flag is set under this lock, so a worker about to
    /// block either sees the flag or is woken by [`HttpServer::stop`]
    /// shutting the clone's read half.
    idle: Mutex<Vec<Option<TcpStream>>>,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Connections refused with an immediate `503` off a full backlog.
    refused: AtomicU64,
    /// The flight recorder behind `GET /v1/debug/traces`.
    recorder: FlightRecorder,
    /// HTTP-side stage histograms: wire-codec decode, wire-codec encode,
    /// and response write. (The runtime owns queue/batch/infer.) Each is
    /// its own lock so a decode never contends with a write.
    decode_hist: Mutex<LatencyHistogram>,
    encode_hist: Mutex<LatencyHistogram>,
    write_hist: Mutex<LatencyHistogram>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn count_response(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running HTTP front end over a [`ModelRouter`] fleet.
///
/// Requests route by model name (`POST /v1/models/{name}/upscale`);
/// `POST /v1/upscale` serves the fleet's only model. `GET /v1/models`
/// lists the fleet, `POST /v1/models/{name}/reload` hot-swaps a
/// path-backed model with zero downtime, and `/metrics` and `/healthz`
/// round it off.
///
/// ```
/// use scales_http::{HttpConfig, HttpServer};
/// use scales_router::{ModelRouter, RouterConfig};
/// use scales_runtime::RuntimeConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # use scales_models::{srresnet, SrConfig, SrNetwork};
/// # use scales_core::Method;
/// let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 1 })?;
/// let router = ModelRouter::new(RouterConfig {
///     runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
///     ..RouterConfig::default()
/// })?;
/// router.register_model("m", net.lower()?)?;
/// let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default())?;
/// println!("serving on http://{}", server.addr());
/// // ... later:
/// let stats = server.shutdown();
/// assert_eq!(stats.failed, 0);
/// # Ok(())
/// # }
/// ```
pub struct HttpServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind a listener and start the accept thread and connection
    /// workers over a [`ModelRouter`] fleet. `addr` may be ephemeral
    /// (`127.0.0.1:0`); the bound address is [`HttpServer::addr`].
    ///
    /// The router handle is cloned in, so the caller can keep its own
    /// handle for registration and stats while the server runs.
    ///
    /// # Errors
    ///
    /// [`HttpError::InvalidConfig`] for unservable sizing,
    /// [`HttpError::Io`] when the socket or a thread cannot be set up.
    pub fn bind_router(
        addr: impl ToSocketAddrs,
        router: ModelRouter,
        config: HttpConfig,
    ) -> Result<Self, HttpError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)
            .map_err(|source| HttpError::Io { context: "bind", source })?;
        let addr = listener
            .local_addr()
            .map_err(|source| HttpError::Io { context: "local_addr", source })?;
        let shared = Arc::new(Shared {
            router,
            config,
            shutdown: AtomicBool::new(false),
            backlog: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            idle: Mutex::new((0..config.workers).map(|_| None).collect()),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            recorder: FlightRecorder::new(
                config.trace_capacity,
                config.slow_threshold,
                config.slow_trace_capacity,
            ),
            decode_hist: Mutex::new(LatencyHistogram::default()),
            encode_hist: Mutex::new(LatencyHistogram::default()),
            write_hist: Mutex::new(LatencyHistogram::default()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("scales-http-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|source| HttpError::Io { context: "spawn accept thread", source })?
        };
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("scales-http-{w}"))
                .spawn(move || worker_loop(&shared, w))
                .map_err(|source| HttpError::Io { context: "spawn worker thread", source })?;
            workers.push(handle);
        }
        Ok(Self { shared, addr, accept: Some(accept), workers })
    }

    /// The bound listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model fleet behind the server (always `Some`).
    #[must_use]
    pub fn router(&self) -> Option<&ModelRouter> {
        Some(&self.shared.router)
    }

    /// Snapshot of the flight recorder's recent completed-request
    /// traces, oldest → newest — the typed in-process view of
    /// `GET /v1/debug/traces`.
    #[must_use]
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.shared.recorder.recent()
    }

    /// Snapshot of the retained slow traces (end-to-end latency at or
    /// above [`HttpConfig::slow_threshold`]), oldest → newest — the
    /// typed view of `GET /v1/debug/traces?slow=1`.
    #[must_use]
    pub fn slow_traces(&self) -> Vec<RequestTrace> {
        self.shared.recorder.slow()
    }

    /// Stop intake, let workers finish their in-flight requests (answered
    /// with `Connection: close`; idle keep-alive connections and peers
    /// stalled mid-head close without a response), join every thread,
    /// then drain the fleet and return its final per-model records folded
    /// into one [`RuntimeStats`].
    #[must_use = "the final runtime stats are the serving record"]
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop();
        self.shared.router.shutdown().merged_runtime()
    }

    /// Set the shutdown flag, wake every blocked thread, join them.
    fn stop(&mut self) {
        {
            let idle = lock(&self.shared.idle);
            self.shared.shutdown.store(true, Ordering::Release);
            for stream in idle.iter().flatten() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // Notify under the backlog lock: a worker holds it from its flag
        // check until it waits, so the notification cannot fall between.
        let backlog = lock(&self.shared.backlog);
        self.shared.work.notify_all();
        drop(backlog);
        // The accept thread blocks in `accept()`; poke it awake.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.stop();
        }
    }
}

// ---------------------------------------------------------------------------
// Accept loop and worker pool
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutting_down() {
            return;
        }
        let Ok((stream, _peer)) = listener.accept() else {
            // Transient accept failure (EMFILE, aborted handshake):
            // yield briefly rather than spinning.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        if shared.shutting_down() {
            return; // likely the shutdown wake-up poke
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let mut backlog = lock(&shared.backlog);
        if backlog.len() >= shared.config.max_pending {
            drop(backlog);
            // Refuse instead of queueing without bound — but never write
            // from the accept thread: a peer that opened the connection
            // and stopped reading would block intake for everyone. A
            // detached thread with a bounded write timeout delivers the
            // refusal on a best-effort basis; if even spawning fails,
            // dropping the stream (RST) is refusal enough.
            shared.count_response(503);
            shared.refused.fetch_add(1, Ordering::Relaxed);
            let spawned = std::thread::Builder::new()
                .name("scales-http-refusal".into())
                .spawn(move || {
                    let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
                    // No head was read, so there is no client id to
                    // echo; a generated one still lets the peer quote
                    // something findable in the server's logs.
                    let id = RequestId::generate();
                    let response = Response::text(503, "server backlog is full, retry later\n")
                        .retry_after(Some(1));
                    let _ = write_response(&stream, &response, false, false, id.as_str());
                });
            drop(spawned);
        } else {
            backlog.push_back(stream);
            drop(backlog);
            shared.work.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    loop {
        let stream = {
            let mut backlog = lock(&shared.backlog);
            loop {
                if let Some(stream) = backlog.pop_front() {
                    break Some(stream);
                }
                if shared.shutting_down() {
                    break None;
                }
                backlog = shared
                    .work
                    .wait(backlog)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match stream {
            Some(stream) => handle_connection(shared, slot, stream),
            None => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Shared, slot: usize, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The clone `stop` shuts the read half of while this connection waits
    // for or reads a request head.
    let Ok(clone) = stream.try_clone() else { return };
    let mut waker = Some(clone);
    if stream.set_read_timeout(Some(shared.config.read_timeout)).is_err() {
        return;
    }
    let mut reader = RequestReader::new(stream);
    loop {
        let head = match await_head(shared, slot, &mut reader, &mut waker) {
            None => return, // idle or stopping: close without a response
            Some(Ok(head)) => head,
            Some(Err(err)) => {
                // Malformed head: typed status, then close (framing is
                // unrecoverable). No head means no client trace id and
                // no timeline to attribute, but the response still
                // carries a generated id — every response does.
                shared.count_response(err.status());
                let response = Response::text(err.status(), format!("{err}\n"));
                let id = RequestId::generate();
                let _ = write_response(reader.get_ref(), &response, false, false, id.as_str());
                return;
            }
        };

        // The deadline budget and the trace clock start here, the moment
        // the head is fully parsed — the body upload and decode count
        // against both, so a slow upload cannot silently extend the
        // client's deadline or vanish from the trace.
        let arrived = Instant::now();
        let head_only = head.method == "HEAD";
        let mut draft = TraceDraft::new(&head, arrived);
        match route(shared, &mut reader, &head, arrived, &mut draft) {
            Ok(response) => {
                shared.count_response(response.status);
                let keep_alive = head.keep_alive && !response.close && !shared.shutting_down();
                let wrote = write_response(
                    reader.get_ref(),
                    &response,
                    head_only,
                    keep_alive,
                    draft.id.as_str(),
                );
                record_trace(shared, &draft, response.status);
                if wrote.is_err() || !keep_alive {
                    return;
                }
            }
            Err(err) => {
                // The body was not (fully) consumed: answer and close.
                shared.count_response(err.status());
                let response = Response::text(err.status(), format!("{err}\n"));
                let _ = write_response(
                    reader.get_ref(),
                    &response,
                    head_only,
                    false,
                    draft.id.as_str(),
                );
                record_trace(shared, &draft, err.status());
                return;
            }
        }
    }
}

/// Wait for a connection's next request with one blocking read (unless a
/// pipelined one is already buffered) and read its head, the clone
/// published in the worker's idle slot for the whole head read, so `stop`
/// wakes a peer that idles or stalls mid-head. The clone is taken back
/// once the head parses. `None`: close without a response — the peer
/// closed or stayed quiet past the read timeout before its first byte,
/// the socket failed, or the server is stopping.
fn await_head(
    shared: &Shared,
    slot: usize,
    reader: &mut RequestReader<TcpStream>,
    waker: &mut Option<TcpStream>,
) -> Option<Result<RequestHead, RequestError>> {
    {
        let mut idle = lock(&shared.idle);
        if shared.shutting_down() {
            return None;
        }
        idle[slot] = waker.take();
    }
    let arrived = reader.has_buffered() || matches!(reader.fill(), Ok(n) if n > 0);
    let head = if arrived { reader.read_head(&shared.config).transpose() } else { None };
    // The flag is set under this lock as `stop` shuts every published
    // clone: unset here, this connection was not woken.
    let mut idle = lock(&shared.idle);
    *waker = idle[slot].take();
    head.filter(|_| !shared.shutting_down())
}

// ---------------------------------------------------------------------------
// Request tracing
// ---------------------------------------------------------------------------

/// An in-flight request's trace under construction: the id, the trace
/// clock's origin (head parsed), and the stage boundaries reached so
/// far.
///
/// Boundary `i` in `marks` ends stage `i` (parse, decode, submit,
/// queue_wait, batch_wait, infer, encode); the write stage ends at the
/// instant [`TraceDraft::finish`] seals the trace. A boundary a request
/// never reached inherits its predecessor, so the spans always
/// *telescope*: non-negative by construction and summing exactly to the
/// recorded total.
struct TraceDraft {
    id: RequestId,
    arrived: Instant,
    marks: [Option<Instant>; 7],
    tenant: Option<String>,
    model: Option<String>,
    deadline_ms: Option<u64>,
}

impl TraceDraft {
    fn new(head: &RequestHead, arrived: Instant) -> Self {
        Self {
            id: RequestId::accept_or_generate(head.request_id.as_deref()),
            arrived,
            marks: [None; 7],
            tenant: head.tenant.clone(),
            model: None,
            deadline_ms: head.deadline_ms,
        }
    }

    /// End `stage` now.
    fn mark(&mut self, stage: Stage) {
        self.mark_at(stage, Instant::now());
    }

    /// End `stage` at `at` — for boundaries stamped elsewhere (the
    /// runtime's [`RuntimeStamps`](scales_telemetry::RuntimeStamps)).
    fn mark_at(&mut self, stage: Stage, at: Instant) {
        self.marks[stage as usize] = Some(at);
    }

    /// Seal the trace: fold the boundaries into telescoping stage spans
    /// ending at `written`, with the total as their exact sum.
    fn finish(&self, status: u16, written: Instant) -> RequestTrace {
        let mut trace = RequestTrace::new(self.id.clone(), status);
        trace.tenant = self.tenant.clone();
        trace.model = self.model.clone();
        let mut prev = self.arrived;
        for (i, mark) in self.marks.iter().enumerate() {
            let end = mark.unwrap_or(prev);
            trace.stage_ns[i] = span_ns(prev, end);
            // Never let a boundary move the clock backwards: a
            // non-monotone stamp records a zero span and the remainder
            // stays attributed to the stage that actually spent it.
            prev = prev.max(end);
        }
        trace.stage_ns[Stage::Write as usize] = span_ns(prev, written);
        trace.total_ns = trace.stage_ns.iter().sum();
        if let Some(ms) = self.deadline_ms {
            let budget = i64::try_from(ms.saturating_mul(1_000_000)).unwrap_or(i64::MAX);
            let total = i64::try_from(trace.total_ns).unwrap_or(i64::MAX);
            trace.deadline_slack_ns = Some(budget.saturating_sub(total));
        }
        trace
    }
}

/// Non-negative nanoseconds from `start` to `end`, saturating.
fn span_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Seal `draft` at this instant, fold its HTTP-side spans into the
/// stage histograms (decode/encode only when that stage actually ran;
/// write always — every response is written), and hand the trace to the
/// flight recorder.
fn record_trace(shared: &Shared, draft: &TraceDraft, status: u16) {
    let trace = draft.finish(status, Instant::now());
    if draft.marks[Stage::Decode as usize].is_some() {
        lock(&shared.decode_hist).record(Duration::from_nanos(trace.stage(Stage::Decode)));
    }
    if draft.marks[Stage::Encode as usize].is_some() {
        lock(&shared.encode_hist).record(Duration::from_nanos(trace.stage(Stage::Encode)));
    }
    lock(&shared.write_hist).record(Duration::from_nanos(trace.stage(Stage::Write)));
    shared.recorder.record(trace);
}

/// Strip the query string from a request target.
fn path_of(target: &str) -> &str {
    target.split(['?', '#']).next().unwrap_or(target)
}

/// The query string of a request target (without the `?`), if any.
fn query_of(target: &str) -> Option<&str> {
    let no_fragment = target.split('#').next().unwrap_or(target);
    no_fragment.split_once('?').map(|(_, q)| q)
}

fn route(
    shared: &Shared,
    reader: &mut RequestReader<TcpStream>,
    head: &RequestHead,
    arrived: Instant,
    draft: &mut TraceDraft,
) -> Result<Response, RequestError> {
    let path = path_of(&head.target);
    if let Some(rest) = path.strip_prefix("/v1/models") {
        return route_models(shared, reader, head, arrived, draft, rest);
    }
    if let Some(which) = path.strip_prefix("/v1/debug/") {
        return route_debug(shared, reader, head, which);
    }
    match (head.method.as_str(), path) {
        ("POST", "/v1/upscale") => match shared.router.names().as_slice() {
            [only] => upscale(shared, reader, head, arrived, draft, only),
            // With no model, or several, there is no default one; naming
            // one is the only unambiguous contract. Final status, no body
            // read.
            _ => Ok(Response::text(
                404,
                "this server routes by model name; POST /v1/models/{name}/upscale\n",
            )
            .close_if_unread(head)),
        },
        ("GET" | "HEAD", "/metrics") => {
            drain_body(reader, head)?;
            Ok(Response::new(200, "text/plain; version=0.0.4", render_metrics(shared).into_bytes()))
        }
        ("GET" | "HEAD", "/healthz") => {
            drain_body(reader, head)?;
            Ok(Response::text(200, "ok\n"))
        }
        (_, "/v1/upscale") => {
            // Wrong method: answer with the final status immediately —
            // inviting and draining a body the route will not use (or
            // sending `100 Continue` for it) only wastes the client's
            // upload. An unread body breaks keep-alive framing, so the
            // connection closes after the response.
            Ok(Response::text(405, "use POST\n").allow("POST").close_if_unread(head))
        }
        (_, "/metrics" | "/healthz") => {
            Ok(Response::text(405, "use GET\n").allow("GET, HEAD").close_if_unread(head))
        }
        _ => Ok(Response::text(404, "no such route\n").close_if_unread(head)),
    }
}

/// Routes under `/v1/models`: the fleet surface. `rest` is the target
/// with the `/v1/models` prefix stripped (empty, or `/{name}/{action}`).
fn route_models(
    shared: &Shared,
    reader: &mut RequestReader<TcpStream>,
    head: &RequestHead,
    arrived: Instant,
    draft: &mut TraceDraft,
    rest: &str,
) -> Result<Response, RequestError> {
    let router = &shared.router;
    // `GET /v1/models` — list the fleet.
    if rest.is_empty() || rest == "/" {
        return match head.method.as_str() {
            "GET" | "HEAD" => {
                drain_body(reader, head)?;
                Ok(Response::new(200, "application/json", render_model_list(router).into_bytes()))
            }
            _ => Ok(Response::text(405, "use GET\n").allow("GET, HEAD").close_if_unread(head)),
        };
    }
    // `/v1/models/{name}/{action}`.
    let Some((name, action)) = rest
        .strip_prefix('/')
        .and_then(|r| r.split_once('/'))
        .filter(|(name, _)| !name.is_empty())
    else {
        return Ok(Response::text(404, "no such route\n").close_if_unread(head));
    };
    match action {
        "upscale" => match head.method.as_str() {
            "POST" => upscale(shared, reader, head, arrived, draft, name),
            _ => Ok(Response::text(405, "use POST\n").allow("POST").close_if_unread(head)),
        },
        "reload" => match head.method.as_str() {
            "POST" => {
                drain_body(reader, head)?;
                Ok(reload_model(router, name))
            }
            _ => Ok(Response::text(405, "use POST\n").allow("POST").close_if_unread(head)),
        },
        _ => Ok(Response::text(404, "no such route\n").close_if_unread(head)),
    }
}

/// The debug surface: `GET /v1/debug/traces[?slow=1]` (the flight
/// recorder as JSON) and `GET /v1/debug/profile[?model={name}]` (the
/// per-op plan profiles). `which` is the path with the `/v1/debug/`
/// prefix stripped.
fn route_debug(
    shared: &Shared,
    reader: &mut RequestReader<TcpStream>,
    head: &RequestHead,
    which: &str,
) -> Result<Response, RequestError> {
    if !matches!(which, "traces" | "profile") {
        return Ok(Response::text(404, "no such route\n").close_if_unread(head));
    }
    if !matches!(head.method.as_str(), "GET" | "HEAD") {
        return Ok(Response::text(405, "use GET\n").allow("GET, HEAD").close_if_unread(head));
    }
    drain_body(reader, head)?;
    let query = query_of(&head.target).filter(|q| !q.is_empty());
    let response = match which {
        "traces" => match query {
            None => json_response(render_traces_json(&shared.recorder.recent())),
            Some("slow=1") => json_response(render_traces_json(&shared.recorder.slow())),
            Some(_) => Response::text(400, "unsupported query; the only query is ?slow=1\n"),
        },
        _ => debug_profile(&shared.router, query),
    };
    Ok(response)
}

/// `GET /v1/debug/profile`: per-op plan profiles, per model. Empty `ops`
/// until profiling is switched on
/// ([`RuntimeConfig::profile_ops`](scales_runtime::RuntimeConfig::profile_ops)
/// or `SCALES_PROFILE_OPS=1`) and a forward has run.
fn debug_profile(router: &ModelRouter, query: Option<&str>) -> Response {
    let models = match query.map(|q| q.split_once('=')) {
        None => router.list(),
        Some(Some(("model", name))) if !name.is_empty() => match router.model(name) {
            Ok(m) => vec![m],
            Err(err) => return router_error_response(&err),
        },
        Some(_) => {
            return Response::text(400, "unsupported query; the only query is ?model={name}\n")
        }
    };
    let profiles: Vec<(String, OpProfile)> = models
        .into_iter()
        .map(|m| (m.name, m.runtime.map(|s| s.op_profile).unwrap_or_default()))
        .collect();
    json_response(render_profiles_json(&profiles))
}

/// The profile document: one object per model.
fn render_profiles_json(profiles: &[(String, OpProfile)]) -> String {
    let mut w = JsonWriter::default();
    w.object(|w| {
        w.key("profiles").array(|w| {
            for (model, profile) in profiles {
                w.object(|w| {
                    w.key("model").string(model);
                    w.key("calls").int(profile.total_calls()).key("total_ns").int(profile.total_ns());
                    w.key("ops").raw(&profile.to_json());
                });
            }
        });
    });
    w.finish()
}

/// A `200 application/json` response (a trailing newline is appended —
/// every body this server writes ends in one).
fn json_response(mut body: String) -> Response {
    body.push('\n');
    Response::new(200, "application/json", body.into_bytes())
}

/// Consume a declared body this route does not use, so keep-alive
/// framing survives (the length is already bounded by `max_body`).
fn drain_body(
    reader: &mut RequestReader<TcpStream>,
    head: &RequestHead,
) -> Result<(), RequestError> {
    if head.content_length > 0 {
        send_continue(reader, head)?;
        reader.read_body(head.content_length)?;
    }
    Ok(())
}

/// Honor `Expect: 100-continue` before the body read.
fn send_continue(
    reader: &RequestReader<TcpStream>,
    head: &RequestHead,
) -> Result<(), RequestError> {
    if head.expect_continue && head.http11 {
        let mut stream = reader.get_ref();
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(RequestError::from)?;
    }
    Ok(())
}

/// Build the runtime request for one decoded image, applying the SLO
/// headers: `X-Scales-Tenant` picks the admission lane,
/// `X-Scales-Deadline-Ms` sets the deadline budget from `arrived` — the
/// instant the request head was parsed — so the body upload, the image
/// decode, and the queue wait all count against it. A budget too large
/// to represent as an `Instant` is no deadline at all.
fn build_request(image: scales_data::Image, head: &RequestHead, arrived: Instant) -> SrRequest {
    let mut request = SrRequest::single(image);
    if let Some(tenant) = &head.tenant {
        request = request.tenant(tenant.clone());
    }
    if let Some(deadline) =
        head.deadline_ms.and_then(|ms| arrived.checked_add(Duration::from_millis(ms)))
    {
        request = request.deadline_at(deadline);
    }
    request
}

/// Map a runtime refusal onto the wire: the status, and the
/// `Retry-After` seconds when backing off can help.
///
/// * `429 Too Many Requests` — the *caller* can fix it by slowing down:
///   the queue is full, or this tenant is at its lane quota.
/// * `503 Service Unavailable` — the *server* is unavailable regardless
///   of who asks: shedding, admission timeout, shutting down.
/// * `504 Gateway Timeout` — the request's own deadline expired before
///   it could be served; retrying without a larger budget is pointless,
///   so no `Retry-After`.
/// * `400 Bad Request` — the request itself is invalid.
fn submit_status(err: &SubmitError) -> (u16, Option<u32>) {
    match err.reject_reason() {
        Some(RejectReason::QueueFull | RejectReason::TenantQuota) => (429, Some(1)),
        Some(RejectReason::Shedding) => (503, Some(1)),
        Some(RejectReason::Expired) => (504, None),
        None => match err {
            SubmitError::InvalidRequest(_) => (400, None),
            // Timeout while queued, or shutting down.
            _ => (503, Some(1)),
        },
    }
}

/// `POST /v1/upscale` and `POST /v1/models/{name}/upscale`: decode →
/// route to `model` (bounded wait; the name also tags the trace) → encode
/// in the same wire format.
fn upscale(
    shared: &Shared,
    reader: &mut RequestReader<TcpStream>,
    head: &RequestHead,
    arrived: Instant,
    draft: &mut TraceDraft,
    model: &str,
) -> Result<Response, RequestError> {
    if !head.has_length {
        return Err(RequestError::LengthRequired);
    }
    draft.model = Some(model.to_string());
    send_continue(reader, head)?;
    let body = reader.read_body(head.content_length)?;
    draft.mark(Stage::Parse);
    let decoded = decode_image(&body);
    draft.mark(Stage::Decode);
    let (image, format) = decoded?;
    let request = build_request(image, head, arrived);
    let timeout = shared.config.request_timeout;
    let served = match shared.router.submit_wait_timeout(model, request, timeout) {
        Err(refusal) => {
            // The failed admission wait is the submit span.
            draft.mark(Stage::Submit);
            return Ok(router_error_response(&refusal));
        }
        Ok(Err(infer_err)) => {
            // Error resolutions carry no stamps; the round trip is the
            // forward's to own.
            draft.mark(Stage::Infer);
            return Ok(Response::text(500, format!("inference failed: {infer_err}\n")));
        }
        Ok(Ok(response)) => response,
    };
    mark_runtime_stages(draft, &served);
    let encoded = encode_image(&served.images()[0], format);
    draft.mark(Stage::Encode);
    match encoded {
        Ok(bytes) => Ok(Response::new(200, format.content_type(), bytes)),
        Err(err) => Ok(Response::text(500, format!("encoding the result failed: {err}\n"))),
    }
}

/// Fold the runtime's queue-crossing stamps into the draft: they end the
/// submit, queue-wait, batch-wait, and infer stages. (Encode then starts
/// at infer-done, so ticket wake-up and unpacking are attributed to
/// encode, not left unaccounted.)
fn mark_runtime_stages(draft: &mut TraceDraft, served: &SrResponse) {
    if let Some(stamps) = served.stamps() {
        draft.mark_at(Stage::Submit, stamps.enqueued);
        draft.mark_at(Stage::QueueWait, stamps.dequeued);
        draft.mark_at(Stage::BatchWait, stamps.sealed);
        draft.mark_at(Stage::Infer, stamps.infer_done);
    }
}

/// `POST /v1/models/{name}/reload`: zero-downtime hot-swap from the
/// model's artifact path.
fn reload_model(router: &ModelRouter, name: &str) -> Response {
    match router.reload(name) {
        Ok(stats) => json_response(render_model_json(&stats)),
        Err(err) => router_error_response(&err),
    }
}

/// Map the router's typed errors onto the HTTP status space: unknown
/// name → 404, duplicate/pinned conflicts → 409, failed load → 500,
/// invalid request → 400, and runtime refusals through [`submit_status`]
/// (client-paced 429 vs server-side 503 vs expired-deadline 504, with
/// `Retry-After` where backing off helps).
fn router_error_response(err: &RouterError) -> Response {
    let (status, retry) = match err {
        RouterError::UnknownModel { .. } => (404, None),
        RouterError::DuplicateModel { .. } | RouterError::NotReloadable { .. } => (409, None),
        RouterError::InvalidName { .. } => (400, None),
        RouterError::Load { .. } => (500, None),
        RouterError::Submit(sub) => submit_status(sub),
        RouterError::ShuttingDown => (503, Some(1)),
    };
    Response::text(status, format!("{err}\n")).retry_after(retry)
}

/// The `GET /v1/models` document: the fleet as a JSON array.
fn render_model_list(router: &ModelRouter) -> String {
    let mut w = JsonWriter::default();
    w.object(|w| {
        w.key("models").array(|w| {
            for m in &router.list() {
                w.raw(&render_model_json(m));
            }
        });
    });
    w.finish() + "\n"
}

/// One model's identity and state as a JSON object.
fn render_model_json(m: &scales_router::ModelStats) -> String {
    let mut w = JsonWriter::default();
    w.object(|w| {
        w.key("name").string(&m.name).key("arch").string(&m.arch);
        w.key("scale").int(m.scale as u64).key("version").int(m.version);
        w.key("fingerprint").string(&format!("{:016x}", m.fingerprint));
        w.key("state").string(&m.state.to_string());
        w.key("weight_bytes").int(m.weight_bytes as u64);
        w.key("resident_bytes").int(m.resident_bytes as u64);
        w.key("reloadable").bool(m.reloadable);
        w.key("evictions").int(m.evictions).key("swaps").int(m.swaps);
    });
    w.finish()
}

/// The `/metrics` document: the fleet's per-model rendering, then the
/// build info and the HTTP front end's own families.
fn render_metrics(shared: &Shared) -> String {
    let fleet = shared.router.render_prometheus();
    let mut expo = Exposition::default();
    expo.family("scales_build_info", "Build metadata of the serving stack (constant 1; labels carry the info).", FamilyKind::Gauge);
    expo.sample(&[("version", env!("CARGO_PKG_VERSION")), ("features", "default")], 1);
    #[rustfmt::skip]
    let counters = [
        ("scales_http_connections_total", "Connections accepted by the HTTP front end.", &shared.connections),
        ("scales_http_requests_total", "HTTP responses sent.", &shared.requests),
        ("scales_http_errors_total", "HTTP responses with a 4xx or 5xx status.", &shared.errors),
        ("scales_http_refused_total", "Connections refused off a full accept backlog with an immediate 503.", &shared.refused),
    ];
    for (name, help, count) in counters {
        expo.family(name, help, FamilyKind::Counter);
        expo.sample(&[], count.load(Ordering::Relaxed));
    }
    // The HTTP-side stage histograms render only once a response has
    // been written (all three together, so scrapes always see a
    // consistent label set).
    let stages: [(&str, LatencyHistogram); 3] = [
        ("decode", *lock(&shared.decode_hist)),
        ("encode", *lock(&shared.encode_hist)),
        ("write", *lock(&shared.write_hist)),
    ];
    if stages.iter().any(|(_, h)| h.count() > 0) {
        expo.family("scales_http_stage_seconds", "Per-request stage spans at the HTTP edge (wire-codec decode, wire-codec encode, response write).", FamilyKind::Histogram);
        for (stage, hist) in &stages {
            hist.render_into(&mut expo, &[("stage", stage)]);
        }
    }
    fleet + &expo.finish()
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    allow: Option<&'static str>,
    /// `Retry-After` seconds on overload responses (429/503), telling
    /// well-behaved clients when backing off is worth it.
    retry_after: Option<u32>,
    /// Close the connection after this response even on a keep-alive
    /// request — set when a declared request body was left unread (the
    /// framing of any pipelined request behind it is unknowable).
    close: bool,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self { status, content_type, body, allow: None, retry_after: None, close: false }
    }

    fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status, "text/plain; charset=utf-8", body.into().into_bytes())
    }

    fn allow(mut self, methods: &'static str) -> Self {
        self.allow = Some(methods);
        self
    }

    fn retry_after(mut self, seconds: Option<u32>) -> Self {
        self.retry_after = seconds;
        self
    }

    /// Mark the connection for closing when the request declared a body
    /// this route chose not to read. Responding with the final status
    /// immediately (instead of inviting the upload with `100 Continue`
    /// and draining it) is the hardening; the close keeps the framing
    /// honest.
    fn close_if_unread(mut self, head: &RequestHead) -> Self {
        self.close = head.content_length > 0;
        self
    }
}

/// Head and body go out as one buffer in one `write_all`: on a
/// `TCP_NODELAY` socket two writes are two syscalls, two segments and two
/// client wake-ups per reply.
fn write_response(
    mut stream: &TcpStream,
    response: &Response,
    head_only: bool,
    keep_alive: bool,
    request_id: &str,
) -> std::io::Result<()> {
    let body: &[u8] = if head_only { &[] } else { &response.body };
    let mut reply = Vec::with_capacity(256 + request_id.len() + body.len());
    write!(
        reply,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nX-Scales-Request-Id: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        request_id,
    )?;
    if let Some(methods) = response.allow {
        write!(reply, "Allow: {methods}\r\n")?;
    }
    if let Some(seconds) = response.retry_after {
        write!(reply, "Retry-After: {seconds}\r\n")?;
    }
    reply.extend_from_slice(if keep_alive { b"Connection: keep-alive\r\n" } else { b"Connection: close\r\n" });
    reply.extend_from_slice(b"\r\n");
    reply.extend_from_slice(body);
    stream.write_all(&reply)?;
    stream.flush()
}

/// The canonical reason phrase for every status this server emits.
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Content Too Large",
        415 => "Unsupported Media Type",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_router::{ModelState, ModelStats, RouterConfig};

    fn model(name: &str, reloadable: bool) -> ModelStats {
        ModelStats {
            name: name.into(),
            arch: "SRResNet".into(),
            scale: 2,
            version: 3,
            fingerprint: 0x1a9f_85fe_86a6_0916,
            state: ModelState::Serving,
            weight_bytes: 6914,
            resident_bytes: 7001,
            evictions: 1,
            swaps: 2,
            reloadable,
            runtime: None,
        }
    }

    // The three goldens below are byte-for-byte what the hand-assembled
    // writers produced before `JsonWriter` (recorded at the parent of
    // ISSUE 23); the two telemetry documents are pinned the same way by
    // `traces_render_as_json` / `profiles_render_as_json`.

    #[test]
    fn model_document_is_pinned() {
        assert_eq!(
            render_model_json(&model("alpha", true)),
            "{\"name\":\"alpha\",\"arch\":\"SRResNet\",\"scale\":2,\"version\":3,\
             \"fingerprint\":\"1a9f85fe86a60916\",\"state\":\"serving\",\"weight_bytes\":6914,\
             \"resident_bytes\":7001,\"reloadable\":true,\"evictions\":1,\"swaps\":2}"
        );
        let evicted = ModelStats { state: ModelState::Evicted, fingerprint: 0xabc, ..model("b", false) };
        assert!(render_model_json(&evicted)
            .contains("\"fingerprint\":\"0000000000000abc\",\"state\":\"evicted\""));
    }

    #[test]
    fn model_list_document_is_pinned() {
        let tiny = |name: &str| {
            let mut b = scales_models::DeployedNetworkBuilder::new(name, 2);
            let up = b.bicubic_up(2, b.input());
            b.finish(up)
        };
        let router = ModelRouter::new(RouterConfig::default()).unwrap();
        assert_eq!(render_model_list(&router), "{\"models\":[]}\n");
        router.register_model("beta", tiny("Bicubic")).unwrap();
        router.register_model("alpha", tiny("Bicubic")).unwrap();
        let listed = router.list();
        let (a, b) = (render_model_json(&listed[0]), render_model_json(&listed[1]));
        assert!(a.starts_with("{\"name\":\"alpha\",\"arch\":\"Bicubic\",\"scale\":2,\"version\":1,"));
        assert_eq!(render_model_list(&router), format!("{{\"models\":[{a},{b}]}}\n"));
        let _ = router.shutdown();
    }

    #[test]
    fn profile_document_is_pinned() {
        assert_eq!(render_profiles_json(&[]), "{\"profiles\":[]}");
        let mut profile = OpProfile::new();
        profile.record("body_conv", 1500);
        profile.record("relu", 40);
        profile.record("body_conv", 500);
        assert_eq!(
            render_profiles_json(&[("alpha".into(), profile.clone())]),
            "{\"profiles\":[{\"model\":\"alpha\",\"calls\":3,\"total_ns\":2040,\"ops\":[\
             {\"op\":\"body_conv\",\"calls\":2,\"total_ns\":2000},\
             {\"op\":\"relu\",\"calls\":1,\"total_ns\":40}]}]}"
        );
        assert_eq!(
            render_profiles_json(&[("alpha".into(), OpProfile::new()), ("beta".into(), profile)]),
            "{\"profiles\":[{\"model\":\"alpha\",\"calls\":0,\"total_ns\":0,\"ops\":[]},\
             {\"model\":\"beta\",\"calls\":3,\"total_ns\":2040,\"ops\":[\
             {\"op\":\"body_conv\",\"calls\":2,\"total_ns\":2000},\
             {\"op\":\"relu\",\"calls\":1,\"total_ns\":40}]}]}"
        );
    }
}
