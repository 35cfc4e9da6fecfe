//! Spans recorded by the benchmark's own files around the calls into each
//! layer, kept in memory until the run ends and then written to
//! `out/<workload>/spans.jsonl`.
//!
//! One *root* span covers each request's public call (`Session::infer`, the
//! `Runtime::submit` → `Ticket::wait` pair, or the HTTP round trip); its
//! *children* are cut from what the public API already returns — the
//! runtime's stage stamps on the response, or the eight stage spans of the
//! HTTP server's flight recorder, joined on the request id the client
//! supplied. A span's self time is its duration minus its children's.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Packed request identity: generator thread, unit, index in the unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey {
    pub generator: u16,
    pub unit: u32,
    pub index: u32,
}

impl RequestKey {
    /// The id the HTTP client sends as `X-Scales-Request-Id` and the
    /// `request` field of `spans.jsonl`.
    pub fn name(self) -> String {
        format!("g{}-u{}-r{}", self.generator, self.unit, self.index)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: RequestKey,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One generator thread's span buffer. Ids are unique across generators
/// (the generator index is the high bits).
pub struct Tracer {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, generator: usize) -> Self {
        Self {
            epoch,
            next: (generator as u64) << 40,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record the root span of one request; returns its id.
    pub fn root(
        &mut self,
        name: &'static str,
        request: RequestKey,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(None, name, request, start_ns, end_ns.max(start_ns))
    }

    /// Record consecutive children of `parent` at the given instants:
    /// `marks[i] → marks[i + 1]` becomes the span named `names[i]`. Marks
    /// are clamped into the parent and made monotonic, so a child is always
    /// inside its parent and never negative.
    pub fn children(&mut self, parent: u64, names: &[&'static str], marks: &[Instant]) {
        let marks: Vec<u64> = marks.iter().map(|&m| self.ns(m)).collect();
        self.children_ns(parent, names, &marks);
    }

    fn children_ns(&mut self, parent: u64, names: &[&'static str], marks: &[u64]) {
        let Some(p) = self.spans.iter().rev().find(|s| s.id == parent).cloned() else {
            return;
        };
        let mut at = p.start_ns;
        for (name, pair) in names.iter().zip(marks.windows(2)) {
            let start = pair[0].clamp(at, p.end_ns);
            let end = pair[1].clamp(start, p.end_ns);
            self.push(Some(parent), name, p.request, start, end);
            at = end;
        }
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        request: RequestKey,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }
}

/// Child span names of an HTTP round trip, in the flight recorder's stage
/// order. The three runtime stages keep their runtime names so the same
/// per-layer metric reads them on every workload.
pub const HTTP_STAGES: [&str; 8] = [
    "http.parse",
    "http.decode",
    "http.submit",
    RUNTIME_STAGES[0],
    RUNTIME_STAGES[1],
    RUNTIME_STAGES[2],
    "http.encode",
    "http.write",
];

/// Child span names cut from `RuntimeStamps`.
pub const RUNTIME_STAGES: [&str; 3] = ["runtime.queue_wait", "runtime.batch_wait", "runtime.infer"];

/// Attach the server-side stage spans to the client-side HTTP roots.
/// `stages` maps a request id to the flight recorder's eight stage
/// durations. The server's clock starts once the head is parsed and stops
/// when the response is written, so the stage block is laid out ending at
/// the root's end; what precedes it (client write, loopback, head parse,
/// client read) stays in the root's self time.
pub fn attach_http_stages(spans: &mut Vec<Span>, stages: &HashMap<String, [u64; 8]>) {
    let roots: Vec<Span> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .cloned()
        .collect();
    let mut next = spans.iter().map(|s| s.id).max().map_or(0, |m| m + 1);
    for root in roots {
        let Some(stage_ns) = stages.get(&root.request.name()) else {
            continue;
        };
        let total: u64 = stage_ns.iter().sum();
        let mut at = root.end_ns.saturating_sub(total).max(root.start_ns);
        for (name, &ns) in HTTP_STAGES.iter().zip(stage_ns) {
            let end = (at + ns).min(root.end_ns);
            spans.push(Span {
                id: next,
                parent: Some(root.id),
                request: root.request,
                name,
                start_ns: at,
                end_ns: end,
            });
            next += 1;
            at = end;
        }
    }
}

/// For every HTTP root that got its server-side stages: the eight stage
/// durations and the client-observed round trip, in nanoseconds.
pub fn http_pairs(spans: &[Span]) -> Vec<([u64; 8], u64)> {
    let mut stages: HashMap<u64, [u64; 8]> = HashMap::new();
    for s in spans {
        if let (Some(parent), Some(at)) = (s.parent, HTTP_STAGES.iter().position(|n| *n == s.name))
        {
            stages.entry(parent).or_default()[at] = s.ns();
        }
    }
    spans
        .iter()
        .filter_map(|s| stages.get(&s.id).map(|st| (*st, s.ns())))
        .collect()
}

/// Per-span-name totals over a finished trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Fold spans by name, computing self time as span minus children.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, NameTotals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns();
        }
    }
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s
            .ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        t.durations_ns.push(s.ns());
    }
    out
}

/// Check the span tree is well formed: every span ends after it starts,
/// every child lies inside its parent, siblings do not cover more than
/// their parent (self time ≥ 0), and every request has exactly one root.
pub fn check(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span id".into());
    }
    let mut roots: HashMap<RequestKey, u32> = HashMap::new();
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        match s.parent {
            None => *roots.entry(s.request).or_default() += 1,
            Some(p) => {
                let parent = by_id
                    .get(&p)
                    .ok_or_else(|| format!("span {} has no parent {p}", s.id))?;
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {} leaves its parent {p}", s.id));
                }
                if s.request != parent.request {
                    return Err(format!("span {} changes request under {p}", s.id));
                }
                *covered.entry(p).or_default() += s.ns();
            }
        }
    }
    for (id, ns) in covered {
        if ns > by_id[&id].ns() {
            return Err(format!("children of span {id} cover more than the span"));
        }
    }
    for s in spans {
        if roots.get(&s.request) != Some(&1) {
            return Err(format!(
                "request {} does not have exactly one root",
                s.request.name()
            ));
        }
    }
    Ok(())
}

/// Write one JSON object per line: `span`, `name`, `start_ns`, `end_ns`,
/// `parent` (null for a root), `request`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":\"{}\"}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.request.name()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn key(index: u32) -> RequestKey {
        RequestKey {
            generator: 0,
            unit: 1,
            index,
        }
    }

    #[test]
    fn runtime_children_tile_the_root_and_leave_self_time() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 0);
        let root = t.root("runtime.request", key(0), at(100), at(1000));
        t.children(root, &RUNTIME_STAGES, &[at(150), at(400), at(450), at(900)]);
        check(&t.spans).unwrap();
        let totals = totals(&t.spans);
        assert_eq!(totals["runtime.queue_wait"].total_ns, 250_000);
        assert_eq!(totals["runtime.infer"].total_ns, 450_000);
        assert_eq!(totals["runtime.request"].self_ns, 900_000 - 750_000);
    }

    #[test]
    fn marks_outside_the_parent_are_clamped_not_trusted() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 1);
        let root = t.root("runtime.request", key(0), at(100), at(200));
        // Enqueued "before" the root started, done "after" it ended, and a
        // mark that goes backwards.
        t.children(root, &RUNTIME_STAGES, &[at(50), at(150), at(120), at(900)]);
        check(&t.spans).unwrap();
        assert!(t.spans.iter().all(|s| s.id >> 40 == 1));
    }

    #[test]
    fn http_stages_join_on_the_request_id_and_end_at_the_root_end() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 0);
        t.root("http.request", key(0), at(0), at(1000));
        t.root("http.request", key(1), at(1000), at(1500));
        let mut stages = HashMap::new();
        stages.insert(
            key(0).name(),
            [
                10_000, 20_000, 30_000, 40_000, 50_000, 600_000, 70_000, 80_000,
            ],
        );
        // Server total longer than the client saw: clamped into the root.
        stages.insert(key(1).name(), [100_000; 8]);
        let mut spans = t.spans;
        attach_http_stages(&mut spans, &stages);
        check(&spans).unwrap();
        assert_eq!(spans.len(), 2 + 16);
        let write = spans
            .iter()
            .find(|s| s.name == "http.write" && s.request == key(0))
            .unwrap();
        assert_eq!(write.end_ns, 1_000_000);
        let totals = totals(&spans);
        assert_eq!(totals["runtime.infer"].count, 2);
        assert_eq!(totals["http.request"].self_ns, 100_000);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 0);
        let root = t.root("session.infer", key(0), at(0), at(10));
        check(&t.spans).unwrap();
        // A second root for the same request.
        let mut two = t.spans.clone();
        two.push(Span {
            id: 99,
            ..two[0].clone()
        });
        assert!(check(&two).is_err());
        // A child outside its parent.
        let mut out = t.spans.clone();
        out.push(Span {
            id: 98,
            parent: Some(root),
            start_ns: 5_000,
            end_ns: 20_000,
            ..out[0].clone()
        });
        assert!(check(&out).is_err());
        // Children covering more than the parent (negative self time).
        let mut over = t.spans.clone();
        for id in [96, 97] {
            over.push(Span {
                id,
                parent: Some(root),
                start_ns: 1_000,
                end_ns: 9_000,
                ..over[0].clone()
            });
        }
        assert!(check(&over).is_err());
        // An orphan.
        let mut orphan = t.spans.clone();
        orphan.push(Span {
            id: 95,
            parent: Some(12345),
            ..orphan[0].clone()
        });
        assert!(check(&orphan).is_err());
    }
}
