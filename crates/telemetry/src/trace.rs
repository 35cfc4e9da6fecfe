//! Completed-request traces: eight telescoping stage spans over one
//! monotonic timeline.

use crate::{JsonWriter, RequestId};
use std::time::Instant;

/// The eight serving stages of one request, in pipeline order. Used as
/// an index into [`RequestTrace::stage_ns`].
///
/// The spans *telescope*: each stage starts exactly where the previous
/// one ended, so per-stage nanoseconds are non-negative by construction
/// and sum exactly to [`RequestTrace::total_ns`]. A stage a request
/// never reached (a refusal, a decode error) records zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Reading the request body off the socket (the head is parsed
    /// before the trace clock starts, so idle keep-alive time between
    /// requests is never attributed).
    Parse = 0,
    /// Wire-codec decode of the uploaded image.
    Decode = 1,
    /// Admission: from decode-done to the request resting in the queue
    /// (includes any blocking wait for queue space).
    Submit = 2,
    /// Queue residence: from enqueue to a worker popping the request.
    QueueWait = 3,
    /// Dispatch set-up: from pop to the forward starting (workspace and
    /// session). The wire name `batch_wait` is kept for readers of older
    /// traces.
    BatchWait = 4,
    /// The planned forward itself.
    Infer = 5,
    /// Response encode: ticket wake-up, unpacking, and wire-codec
    /// encode of the result image.
    Encode = 6,
    /// Writing the response bytes to the socket.
    Write = 7,
}

/// Stage names, indexed by `Stage as usize` — the JSON keys of
/// `GET /v1/debug/traces` and the `stage` label values of the per-stage
/// histograms.
pub const STAGES: [&str; 8] =
    ["parse", "decode", "submit", "queue_wait", "batch_wait", "infer", "encode", "write"];

/// One completed request, as retained by the
/// [`FlightRecorder`](crate::FlightRecorder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The trace id echoed to the client.
    pub id: RequestId,
    /// Tenant lane the request was queued under, if tagged.
    pub tenant: Option<String>,
    /// Model the request was routed to (`None` when no model route
    /// was taken: a scrape, a 404).
    pub model: Option<String>,
    /// Final HTTP status of the response — refusals are traces too.
    pub status: u16,
    /// Per-stage nanoseconds, indexed by [`Stage`].
    pub stage_ns: [u64; 8],
    /// End-to-end nanoseconds (head parsed → response written); always
    /// the exact sum of `stage_ns`.
    pub total_ns: u64,
    /// Deadline slack in nanoseconds (budget minus total) for
    /// deadline-tagged requests: negative means the response was late.
    pub deadline_slack_ns: Option<i64>,
}

impl RequestTrace {
    /// A zeroed trace for `id` with final status `status`.
    #[must_use]
    pub fn new(id: RequestId, status: u16) -> Self {
        Self {
            id,
            tenant: None,
            model: None,
            status,
            stage_ns: [0; 8],
            total_ns: 0,
            deadline_slack_ns: None,
        }
    }

    /// Nanoseconds attributed to `stage`.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    /// Render this trace as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.object(|w| {
            w.key("id").string(self.id.as_str());
            w.key("tenant").string_or_null(self.tenant.as_deref());
            w.key("model").string_or_null(self.model.as_deref());
            w.key("status").int(self.status).key("total_ns").int(self.total_ns);
            match self.deadline_slack_ns {
                Some(slack) => w.key("deadline_slack_ns").int(slack),
                None => w.key("deadline_slack_ns").null(),
            };
            w.key("stages").object(|w| {
                for (name, ns) in STAGES.iter().zip(self.stage_ns) {
                    w.key(name).int(ns);
                }
            });
        });
        w.finish()
    }
}

/// Render a snapshot of traces as a JSON document:
/// `{"count":N,"traces":[...]}` — the body of
/// `GET /v1/debug/traces`.
#[must_use]
pub fn render_traces_json(traces: &[RequestTrace]) -> String {
    let mut w = JsonWriter::default();
    w.object(|w| {
        w.key("count").int(traces.len() as u64).key("traces").array(|w| {
            for trace in traces {
                w.raw(&trace.to_json());
            }
        });
    });
    w.finish()
}

/// The runtime-side stage stamps, taken on the monotonic clock while a
/// request crosses the queue, and returned to the submitter on its
/// response so the front end can attribute queue wait, dispatch set-up,
/// and the forward without a side channel. `Instant`s are valid across
/// threads, so the submitting thread subtracts them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStamps {
    /// When the request came to rest in the submission queue.
    pub enqueued: Instant,
    /// When a worker popped it (end of queue wait).
    pub dequeued: Instant,
    /// When the forward began.
    pub sealed: Instant,
    /// When the forward finished.
    pub infer_done: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's string escape, in the shape the pinned
    /// `json_strings_escape_hostile_content` calls it.
    fn json_string(out: &mut String, s: &str) {
        let mut w = JsonWriter::default();
        w.string(s);
        out.push_str(&w.finish());
    }

    fn trace() -> RequestTrace {
        let mut t = RequestTrace::new(RequestId::parse("t-1").unwrap(), 200);
        t.stage_ns = [1, 2, 3, 4, 5, 6, 7, 8];
        t.total_ns = 36;
        t
    }

    #[test]
    fn stage_names_line_up_with_indices() {
        assert_eq!(STAGES[Stage::Parse as usize], "parse");
        assert_eq!(STAGES[Stage::QueueWait as usize], "queue_wait");
        assert_eq!(STAGES[Stage::Write as usize], "write");
        assert_eq!(trace().stage(Stage::Infer), 6);
    }

    #[test]
    fn traces_render_as_json() {
        let mut t = trace();
        t.tenant = Some("acme".into());
        t.deadline_slack_ns = Some(-5);
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"id\":\"t-1\",\"tenant\":\"acme\",\"model\":null,\"status\":200,\
             \"total_ns\":36,\"deadline_slack_ns\":-5,\"stages\":{\"parse\":1,\"decode\":2,\
             \"submit\":3,\"queue_wait\":4,\"batch_wait\":5,\"infer\":6,\"encode\":7,\"write\":8}}"
        );
    }

    #[test]
    fn trace_documents_wrap_their_count() {
        let doc = render_traces_json(&[trace(), trace()]);
        assert!(doc.starts_with("{\"count\":2,\"traces\":["));
        assert!(doc.ends_with("]}"));
        assert_eq!(doc.matches("\"id\":\"t-1\"").count(), 2);
        assert_eq!(render_traces_json(&[]), "{\"count\":0,\"traces\":[]}");
    }

    #[test]
    fn json_strings_escape_hostile_content() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\u000ad\"");
    }
}
