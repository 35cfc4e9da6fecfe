//! Grammar-level checks of the stack's two text formats, as served.
//!
//! `tests/http.rs` and `tests/router.rs` look for substrings; this suite
//! parses. Every `/metrics` rendering goes through a std-only checker of
//! the Prometheus text format (version 0.0.4) and every JSON document
//! through a minimal validating reader, the family inventory of both
//! server modes is frozen, a deployed network with a hostile name is
//! pushed through both, and the README's metric reference is kept in
//! sync with what is actually rendered.

use scales::core::Method;
use scales::data::codec::encode_image;
use scales::data::{Image, WireFormat};
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, DeployedNetwork, DeployedNetworkBuilder, SrConfig, SrNetwork};
use scales::router::{ModelRouter, RouterConfig};
use scales::runtime::{Runtime, RuntimeConfig};
use scales::serve::{Engine, Precision};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

// ---------------------------------------------------------------------------
// The exposition checker
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Debug)]
struct Family {
    name: String,
    kind: String,
    samples: Vec<Sample>,
}

impl Family {
    /// The label keys every series of the family carries (`le` is the
    /// bucket layout, not identity).
    fn label_keys(&self) -> Vec<&str> {
        let first = identity_keys(&self.samples[0]);
        for s in &self.samples {
            assert_eq!(identity_keys(s), first, "{}: every series carries the same label keys", self.name);
        }
        first
    }
}

fn identity_keys(sample: &Sample) -> Vec<&str> {
    sample.labels.iter().map(|(k, _)| k.as_str()).filter(|k| *k != "le").collect()
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Undo the format's escapes; `quoted` adds `\"` (label values). Any
/// other backslash sequence is a grammar error.
fn unescape(text: &str, quoted: bool) -> Result<String, String> {
    let mut out = String::new();
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('"') if quoted => out.push('"'),
                other => return Err(format!("bad escape \\{other:?} in {text:?}")),
            },
            '"' if quoted => return Err(format!("raw quote in label value {text:?}")),
            c => out.push(c),
        }
    }
    Ok(out)
}

/// Parse one sample line: `name{key="value",…} value`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line.find(['{', ' ']).ok_or("no value")?;
    let name = &line[..name_end];
    if !is_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(mut body) = rest.strip_prefix('{') {
        loop {
            let eq = body.find("=\"").ok_or("label without =\"")?;
            let key = &body[..eq];
            if !is_name(key) {
                return Err(format!("bad label key {key:?}"));
            }
            body = &body[eq + 2..];
            // The value ends at the first quote not behind a backslash.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in body.char_indices() {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let end = end.ok_or("unterminated label value")?;
            labels.push((key.to_string(), unescape(&body[..end], true)?));
            body = &body[end + 1..];
            if let Some(after) = body.strip_prefix(',') {
                body = after;
            } else if let Some(after) = body.strip_prefix('}') {
                rest = after;
                break;
            } else {
                return Err(format!("junk after label value: {body:?}"));
            }
        }
    }
    let value = rest.strip_prefix(' ').ok_or("no space before the value")?;
    let value: f64 = value.parse().map_err(|_| format!("bad value {value:?}"))?;
    Ok(Sample { name: name.to_string(), labels, value })
}

/// Check `text` against the text-format grammar and the layout rules
/// every renderer here promises, and hand back the families:
///
/// - every line is `# HELP`, `# TYPE` or a sample `name{k="v",…} value`;
/// - exactly one HELP and one TYPE per family, HELP first, both before
///   the family's samples, and the samples contiguous under them;
/// - no duplicate `(name, label set)`;
/// - histogram buckets are cumulative with increasing bounds, close with
///   `le="+Inf"` equal to `_count`, and carry `_sum`;
/// - help text and label values unescape cleanly.
fn check_exposition(text: &str) -> Vec<Family> {
    let mut families: Vec<Family> = Vec::new();
    let mut seen_series = BTreeSet::new();
    assert!(text.is_empty() || text.ends_with('\n'), "the document ends in a line feed");
    let mut lines = text.split('\n').peekable();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            assert!(lines.peek().is_none(), "blank line inside the document");
            break;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(is_name(name), "bad family name in {line:?}");
            unescape(help, false).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                families.iter().all(|f| f.name != name),
                "{name}: a second HELP (families are declared once and stay contiguous)"
            );
            let type_line = lines.next().unwrap_or_default();
            let kind = type_line
                .strip_prefix(&format!("# TYPE {name} "))
                .unwrap_or_else(|| panic!("{name}: HELP must be followed by its TYPE, got {type_line:?}"));
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{name}: TYPE {kind:?}");
            families.push(Family { name: name.into(), kind: kind.into(), samples: Vec::new() });
            continue;
        }
        assert!(!line.starts_with('#'), "stray comment or TYPE without HELP: {line:?}");
        let sample = parse_sample(line).unwrap_or_else(|e| panic!("{e} in line {line:?}"));
        let family = families.last_mut().unwrap_or_else(|| panic!("sample before any family: {line:?}"));
        let suffix = sample
            .name
            .strip_prefix(family.name.as_str())
            .unwrap_or_else(|| panic!("{line:?} sits under family {}", family.name));
        if family.kind == "histogram" {
            assert!(matches!(suffix, "_bucket" | "_sum" | "_count"), "histogram line {line:?}");
            let has_le = sample.labels.last().is_some_and(|(k, _)| k == "le");
            assert_eq!(has_le, suffix == "_bucket", "le closes bucket lines only: {line:?}");
        } else {
            assert_eq!(suffix, "", "{line:?} sits under family {}", family.name);
        }
        assert!(
            seen_series.insert((sample.name.clone(), sample.labels.clone())),
            "duplicate series {line:?}"
        );
        family.samples.push(sample);
    }
    for family in &families {
        assert!(!family.samples.is_empty(), "{}: a family without samples", family.name);
        let _ = family.label_keys();
        if family.kind == "histogram" {
            check_histogram(family);
        }
    }
    families
}

fn check_histogram(family: &Family) {
    let identity = |s: &Sample| -> Vec<(String, String)> {
        s.labels.iter().filter(|(k, _)| k != "le").cloned().collect()
    };
    let series: BTreeSet<_> = family.samples.iter().map(identity).collect();
    for labels in series {
        let of = |suffix: &str| -> Vec<&Sample> {
            family
                .samples
                .iter()
                .filter(|s| s.name.ends_with(suffix) && identity(s) == labels)
                .collect()
        };
        let (buckets, sum, count) = (of("_bucket"), of("_sum"), of("_count"));
        assert_eq!((sum.len(), count.len()), (1, 1), "{} {labels:?}: one _sum, one _count", family.name);
        let mut last = (f64::NEG_INFINITY, 0.0);
        for b in &buckets {
            let le = &b.labels.last().unwrap().1;
            let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() };
            assert!(bound > last.0, "{}: bucket bounds increase ({le})", family.name);
            assert!(b.value >= last.1, "{}: buckets are cumulative ({le})", family.name);
            last = (bound, b.value);
        }
        assert_eq!(last.0, f64::INFINITY, "{}: the last bucket is +Inf", family.name);
        assert_eq!(last.1, count[0].value, "{}: +Inf equals _count", family.name);
        assert!(sum[0].value >= 0.0);
    }
}

/// `(name, TYPE, label keys)` of every family in `families`.
fn inventory(families: &[Family]) -> BTreeSet<(String, String, Vec<String>)> {
    families
        .iter()
        .map(|f| {
            (f.name.clone(), f.kind.clone(), f.label_keys().into_iter().map(String::from).collect())
        })
        .collect()
}

fn frozen(rows: &[&[(&str, &str, &[&str])]]) -> BTreeSet<(String, String, Vec<String>)> {
    rows.iter()
        .flat_map(|set| set.iter())
        .map(|(name, kind, keys)| {
            ((*name).to_string(), (*kind).to_string(), keys.iter().map(|k| (*k).to_string()).collect())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The frozen family inventory (recorded at the parent of ISSUE 23)
// ---------------------------------------------------------------------------

/// What every single-mode scrape carries, idle or not.
const SINGLE_ALWAYS: &[(&str, &str, &[&str])] = &[
    ("scales_runtime_requests_submitted_total", "counter", &[]),
    ("scales_runtime_requests_rejected_total", "counter", &[]),
    ("scales_runtime_requests_shed_total", "counter", &[]),
    ("scales_runtime_requests_quota_rejected_total", "counter", &[]),
    ("scales_runtime_requests_expired_total", "counter", &[]),
    ("scales_runtime_deadline_misses_total", "counter", &[]),
    ("scales_runtime_requests_completed_total", "counter", &[]),
    ("scales_runtime_requests_failed_total", "counter", &[]),
    ("scales_runtime_images_total", "counter", &[]),
    ("scales_runtime_dispatches_total", "counter", &[]),
    ("scales_runtime_requests_coalesced_total", "counter", &[]),
    ("scales_runtime_busy_seconds_total", "counter", &[]),
    ("scales_runtime_workers", "gauge", &[]),
    ("scales_runtime_max_batch", "gauge", &[]),
    ("scales_runtime_queue_depth", "gauge", &[]),
    ("scales_runtime_queue_high_water", "gauge", &[]),
    ("scales_runtime_workspace_bytes", "gauge", &[]),
    ("scales_runtime_batch_fill", "gauge", &[]),
    ("scales_runtime_uptime_seconds", "gauge", &[]),
    ("scales_runtime_info", "gauge", &["backend", "simd"]),
    ("scales_runtime_request_latency_seconds", "histogram", &[]),
    ("scales_runtime_late_discarded_total", "counter", &[]),
    ("scales_build_info", "gauge", &["version", "features"]),
];

/// What single mode adds once it has served tagged, profiled work.
const SINGLE_GATED: &[(&str, &str, &[&str])] = &[
    ("scales_runtime_stage_seconds", "histogram", &["stage"]),
    ("scales_plan_op_calls_total", "counter", &["op"]),
    ("scales_plan_op_seconds_total", "counter", &["op"]),
    ("scales_runtime_tenant_requests_submitted_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_requests_completed_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_requests_failed_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_requests_rejected_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_requests_shed_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_requests_quota_rejected_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_requests_expired_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_deadline_misses_total", "counter", &["tenant"]),
    ("scales_runtime_tenant_queue_depth", "gauge", &["tenant"]),
    ("scales_runtime_tenant_weight", "gauge", &["tenant"]),
];

/// The fleet's per-model families at the parent.
const FLEET: &[(&str, &str, &[&str])] = &[
    ("scales_model_requests_submitted_total", "counter", &["model"]),
    ("scales_model_requests_completed_total", "counter", &["model"]),
    ("scales_model_requests_failed_total", "counter", &["model"]),
    ("scales_model_requests_rejected_total", "counter", &["model"]),
    ("scales_model_requests_shed_total", "counter", &["model"]),
    ("scales_model_requests_expired_total", "counter", &["model"]),
    ("scales_model_deadline_misses_total", "counter", &["model"]),
    ("scales_model_images_total", "counter", &["model"]),
    ("scales_model_evictions_total", "counter", &["model"]),
    ("scales_model_swaps_total", "counter", &["model"]),
    ("scales_model_memory_bytes", "gauge", &["model"]),
    ("scales_model_weight_bytes", "gauge", &["model"]),
    ("scales_model_version", "gauge", &["model"]),
    ("scales_model_serving", "gauge", &["model"]),
    ("scales_model_info", "gauge", &["model", "arch", "scale", "fingerprint", "state"]),
    ("scales_model_request_latency_seconds", "histogram", &["model"]),
];

/// The one family ISSUE 23 adds: the per-model scope renders the whole
/// ledger, tenant-quota refusals included.
const FLEET_ADDED: &[(&str, &str, &[&str])] =
    &[("scales_model_requests_quota_rejected_total", "counter", &["model"])];

/// The HTTP front end's own families, both modes.
const HTTP_ALWAYS: &[(&str, &str, &[&str])] = &[
    ("scales_http_connections_total", "counter", &[]),
    ("scales_http_requests_total", "counter", &[]),
    ("scales_http_errors_total", "counter", &[]),
    ("scales_http_refused_total", "counter", &[]),
];

/// Added once a response has been written.
const HTTP_GATED: &[(&str, &str, &[&str])] =
    &[("scales_http_stage_seconds", "histogram", &["stage"])];

// ---------------------------------------------------------------------------
// A minimal validating JSON reader
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a whole document (RFC 8259; trailing whitespace allowed).
    fn parse(text: &str) -> Result<Json, String> {
        let mut reader = JsonReader { bytes: text.as_bytes(), at: 0 };
        let value = reader.value()?;
        reader.whitespace();
        if reader.at != reader.bytes.len() {
            return Err(format!("trailing bytes at {}", reader.at));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map_or_else(|| panic!("no key {key:?} in {self:?}"), |(_, v)| v),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct JsonReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonReader<'_> {
    fn whitespace(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            Ok(())
        } else {
            Err(format!("expected {token:?} at {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.whitespace();
        match self.bytes.get(self.at).copied() {
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.whitespace();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.whitespace();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected , or ] at {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.whitespace();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.whitespace();
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    self.whitespace();
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.whitespace();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected , or }} at {}", self.at)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at {}", self.at)),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.bytes.get(self.at), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        let leading_zero = self.bytes.get(self.at) == Some(&b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(format!("bad integer part at {start}"));
        }
        if self.bytes.get(self.at) == Some(&b'.') {
            self.at += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at {start}"));
            }
        }
        if matches!(self.bytes.get(self.at), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.bytes.get(self.at), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        text.parse().map(Json::Number).map_err(|_| format!("bad number {text:?}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.bytes.get(self.at..self.at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        self.at += 4;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or("truncated escape")?;
                    self.at += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                self.expect("\\u")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("unpaired surrogate".into());
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            char::from_u32(code).ok_or("bad code point")?
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0..=0x1f => return Err(format!("raw control byte {b:#04x} in a string")),
                b => out.push(b),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn probe(h: usize, w: usize, seed: u64) -> Image {
    scales::data::synth::scene(
        h,
        w,
        scales::data::synth::SceneConfig::default(),
        &mut scales::nn::init::rng(seed),
    )
}

/// A fresh directory per call: the harness runs tests concurrently and
/// several of them build the same fleet.
fn scratch_dir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("scales-exposition-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lowered(seed: u64) -> DeployedNetwork {
    srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed })
        .unwrap()
        .lower()
        .unwrap()
}

fn single_server(profile_ops: bool) -> HttpServer {
    let engine =
        Engine::builder().model(lowered(3)).precision(Precision::Deployed).build().unwrap();
    let runtime = Runtime::spawn(
        engine,
        RuntimeConfig { workers: 1, profile_ops, ..RuntimeConfig::default() },
    )
    .unwrap();
    HttpServer::bind("127.0.0.1:0", runtime, HttpConfig::default()).unwrap()
}

/// One request over a fresh connection, read to the close: `(status,
/// body)`. Every request here says `Connection: close`, and the server
/// closes only after it has recorded the request's trace, so whatever a
/// test reads next already counts this one.
fn send(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response.windows(4).position(|w| w == b"\r\n\r\n").expect("response head");
    let head = std::str::from_utf8(&response[..split]).expect("response head is text");
    let status = head.split(' ').nth(1).expect("status code").parse().unwrap();
    (status, response[split + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> String {
    let (status, body) =
        send(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes());
    let body = String::from_utf8(body).expect("text body");
    assert_eq!(status, 200, "GET {path}: {body}");
    body
}

fn post(addr: SocketAddr, path: &str, headers: &str, payload: &[u8]) -> (u16, Vec<u8>) {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{headers}Content-Length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    raw.extend_from_slice(payload);
    send(addr, &raw)
}

/// `POST …/reload` on a path-backed model: the reply document.
fn reload(addr: SocketAddr, model: &str) -> String {
    let (status, body) = post(addr, &format!("/v1/models/{model}/reload"), "", b"");
    let body = String::from_utf8(body).expect("text body");
    assert_eq!(status, 200, "reload {model}: {body}");
    body
}

/// Single mode with every gated family switched on: two tenant-tagged,
/// profiled upscales and one 404. Returns the scrape, then (the scrape
/// being a fourth traced request by now) both debug documents.
fn busy_single_mode() -> (String, String, String) {
    let server = single_server(true);
    let addr = server.addr();
    let payload = encode_image(&probe(8, 8, 4), WireFormat::Ppm).unwrap();
    for tenant in ["acme", "zeta"] {
        let (status, _) =
            post(addr, "/v1/upscale", &format!("X-Scales-Tenant: {tenant}\r\n"), &payload);
        assert_eq!(status, 200, "upscale as {tenant}");
    }
    let (status, _) = send(addr, b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 404);
    let docs = (get(addr, "/metrics"), get(addr, "/v1/debug/traces"), get(addr, "/v1/debug/profile"));
    let _ = server.shutdown();
    docs
}

/// Fleet mode with two models, one request each, and a reload of the
/// path-backed one. Returns the scrape, `/v1/models`, the reload reply
/// and the fleet's profile document.
fn busy_fleet_mode() -> (String, String, String, String) {
    let dir = scratch_dir();
    let artifact = dir.join("alpha.dep.sca");
    scales::io::save_artifact(&artifact, &lowered(5)).unwrap();
    let router = ModelRouter::new(RouterConfig {
        runtime: RuntimeConfig { workers: 1, profile_ops: true, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })
    .unwrap();
    router.register_path("alpha", &artifact).unwrap();
    router.register_model("beta", lowered(6)).unwrap();
    let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap();
    let addr = server.addr();
    let payload = encode_image(&probe(8, 8, 4), WireFormat::Ppm).unwrap();
    for model in ["alpha", "beta"] {
        let (status, _) = post(addr, &format!("/v1/models/{model}/upscale"), "", &payload);
        assert_eq!(status, 200, "upscale on {model}");
    }
    let reloaded = reload(addr, "alpha");
    let docs = (
        get(addr, "/metrics"),
        get(addr, "/v1/models"),
        reloaded,
        get(addr, "/v1/debug/profile"),
    );
    let _ = server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    docs
}

// ---------------------------------------------------------------------------
// The five renderings
// ---------------------------------------------------------------------------

#[test]
fn idle_single_mode_scrape_is_well_formed_and_complete() {
    let server = single_server(false);
    let scrape = get(server.addr(), "/metrics");
    let _ = server.shutdown();
    // The scrape's own connection is the only traffic so far, and its
    // response is not written yet: no gated family, HTTP stages included.
    assert_eq!(inventory(&check_exposition(&scrape)), frozen(&[SINGLE_ALWAYS, HTTP_ALWAYS]));
}

#[test]
fn busy_single_mode_scrape_is_well_formed_and_complete() {
    let (scrape, _, _) = busy_single_mode();
    let families = check_exposition(&scrape);
    assert_eq!(
        inventory(&families),
        frozen(&[SINGLE_ALWAYS, SINGLE_GATED, HTTP_ALWAYS, HTTP_GATED]),
        "single mode renders exactly the families recorded at the parent"
    );
    // Both lanes, all three runtime stages, and a law the two scopes of
    // the ledger satisfy in every snapshot (they are read under one
    // lock): with all traffic tagged, the lanes add up to the global.
    let family = |name: &str| families.iter().find(|f| f.name == name).unwrap();
    let lanes = family("scales_runtime_tenant_requests_submitted_total");
    let tenants: Vec<&str> = lanes.samples.iter().map(|s| s.labels[0].1.as_str()).collect();
    assert_eq!(tenants, ["acme", "zeta"]);
    let per_lane: f64 = lanes.samples.iter().map(|s| s.value).sum();
    assert_eq!(per_lane, 2.0);
    assert_eq!(per_lane, family("scales_runtime_requests_submitted_total").samples[0].value);
    let stages: BTreeSet<&str> = family("scales_runtime_stage_seconds")
        .samples
        .iter()
        .map(|s| s.labels[0].1.as_str())
        .collect();
    assert_eq!(stages, BTreeSet::from(["batch_wait", "infer", "queue_wait"]));
}

#[test]
fn http_families_count_what_the_front_end_did() {
    let (scrape, _, _) = busy_single_mode();
    let at = scrape.find("# HELP scales_http_").expect("the HTTP families close the scrape");
    let families = check_exposition(&scrape[at..]);
    assert_eq!(inventory(&families), frozen(&[HTTP_ALWAYS, HTTP_GATED]));
    let value = |name: &str| families.iter().find(|f| f.name == name).unwrap().samples[0].value;
    // Two upscales and a 404 were answered before the scrape was rendered.
    assert_eq!(value("scales_http_requests_total"), 3.0);
    assert_eq!(value("scales_http_errors_total"), 1.0);
    assert_eq!(value("scales_http_refused_total"), 0.0);
    let stages = families.iter().find(|f| f.name == "scales_http_stage_seconds").unwrap();
    let written: Vec<(&str, f64)> = stages
        .samples
        .iter()
        .filter(|s| s.name.ends_with("_count"))
        .map(|s| (s.labels[0].1.as_str(), s.value))
        .collect();
    assert_eq!(written, [("decode", 2.0), ("encode", 2.0), ("write", 3.0)]);
}

#[test]
fn fleet_scrape_after_a_reload_is_well_formed_and_complete() {
    let (scrape, _, _, _) = busy_fleet_mode();
    let families = check_exposition(&scrape);
    assert_eq!(
        inventory(&families),
        frozen(&[FLEET, FLEET_ADDED, HTTP_ALWAYS, HTTP_GATED]),
        "fleet mode renders the parent's families plus the per-model quota counter"
    );
    for family in families.iter().filter(|f| f.name.starts_with("scales_model_")) {
        let models: BTreeSet<&str> = family.samples.iter().map(|s| s.labels[0].1.as_str()).collect();
        assert_eq!(models, BTreeSet::from(["alpha", "beta"]), "{}", family.name);
    }
}

// ---------------------------------------------------------------------------
// The four JSON documents
// ---------------------------------------------------------------------------

#[test]
fn every_json_document_parses_and_means_what_it_says() {
    let (_, traces, profile) = busy_single_mode();
    let traces = Json::parse(&traces).unwrap_or_else(|e| panic!("{e}: {traces}"));
    let listed = traces.get("traces").items();
    assert_eq!(traces.get("count").number(), 4.0, "two upscales, the 404 and the scrape");
    assert_eq!(listed.len(), 4);
    for trace in listed {
        let spans: f64 = scales::telemetry::STAGES
            .iter()
            .map(|stage| trace.get("stages").get(stage).number())
            .sum();
        assert_eq!(spans, trace.get("total_ns").number(), "spans telescope: {trace:?}");
        assert_eq!(*trace.get("model"), Json::Null, "single mode routes no model");
    }
    let tagged: Vec<&Json> = listed.iter().map(|t| t.get("tenant")).collect();
    assert!(tagged.contains(&&Json::Str("acme".into())) && tagged.contains(&&Json::Null));

    let profile = Json::parse(&profile).unwrap_or_else(|e| panic!("{e}: {profile}"));
    let [only] = profile.get("profiles").items() else { panic!("one profile: {profile:?}") };
    assert_eq!(*only.get("model"), Json::Null);
    let ops = only.get("ops").items();
    assert!(ops.iter().any(|op| op.get("op").str() == "body_conv"));
    let calls: f64 = ops.iter().map(|op| op.get("calls").number()).sum();
    assert_eq!(calls, only.get("calls").number(), "per-op calls add up to the total");

    let (_, models, reloaded, fleet_profile) = busy_fleet_mode();
    let models = Json::parse(&models).unwrap_or_else(|e| panic!("{e}: {models}"));
    let names: Vec<&str> = models.get("models").items().iter().map(|m| m.get("name").str()).collect();
    assert_eq!(names, ["alpha", "beta"]);
    let reloaded = Json::parse(&reloaded).unwrap_or_else(|e| panic!("{e}: {reloaded}"));
    assert_eq!(reloaded.get("name").str(), "alpha");
    assert_eq!(reloaded.get("version").number(), 2.0);
    assert_eq!(reloaded.get("swaps").number(), 1.0);
    assert_eq!(*reloaded.get("reloadable"), Json::Bool(true));
    let fleet_profile =
        Json::parse(&fleet_profile).unwrap_or_else(|e| panic!("{e}: {fleet_profile}"));
    let profiled: Vec<&str> =
        fleet_profile.get("profiles").items().iter().map(|p| p.get("model").str()).collect();
    assert_eq!(profiled, ["alpha", "beta"]);
}

// ---------------------------------------------------------------------------
// Hostile names
// ---------------------------------------------------------------------------

/// A name that closes the label, finishes the sample, injects a series
/// and comments out the rest of the line — and is not a JSON string body
/// either.
const HOSTILE: &str = "x\"} 1\nscales_injected_total 42\n# \"";

/// The smallest deployable network carrying [`HOSTILE`] as its name, as
/// an artifact file would deliver it.
fn hostile_artifact() -> Vec<u8> {
    let mut b = DeployedNetworkBuilder::new(HOSTILE, 2);
    let up = b.bicubic_up(2, b.input());
    scales::io::artifact_to_bytes(&b.finish(up))
}

#[test]
fn a_hostile_artifact_name_cannot_inject_a_series() {
    let net = scales::io::artifact_from_bytes(&hostile_artifact()).unwrap();
    assert_eq!(net.name(), HOSTILE, "the artifact format carries the name verbatim");
    let router = ModelRouter::new(RouterConfig {
        runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })
    .unwrap();
    router.register_model("evil", net).unwrap();
    let text = router.render_prometheus();
    let _ = router.shutdown();
    assert!(
        !text.lines().any(|line| line.starts_with("scales_injected_total")),
        "the name must stay inside its label value:\n{text}"
    );
    assert!(
        text.contains(r#"arch="x\"} 1\nscales_injected_total 42\n# \"""#),
        "quote and line feed are escaped in place:\n{text}"
    );
    let families = check_exposition(&text);
    assert_eq!(inventory(&families), frozen(&[FLEET, FLEET_ADDED]));
    let info = families.iter().find(|f| f.name == "scales_model_info").unwrap();
    let arch = info.samples[0].labels.iter().find(|(k, _)| k == "arch").unwrap();
    assert_eq!(arch.1, HOSTILE, "the label value unescapes to the name");
}

#[test]
fn a_hostile_artifact_name_round_trips_through_the_json_documents() {
    let dir = scratch_dir();
    let artifact = dir.join("evil.dep.sca");
    std::fs::write(&artifact, hostile_artifact()).unwrap();
    let router = ModelRouter::new(RouterConfig {
        runtime: RuntimeConfig { workers: 1, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })
    .unwrap();
    router.register_path("disk", &artifact).unwrap();
    router
        .register_model("mem", scales::io::artifact_from_bytes(&hostile_artifact()).unwrap())
        .unwrap();
    let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default()).unwrap();
    let addr = server.addr();

    let listed = get(addr, "/v1/models");
    let doc = Json::parse(&listed).unwrap_or_else(|e| panic!("{e}: {listed}"));
    for model in doc.get("models").items() {
        assert_eq!(model.get("arch").str(), HOSTILE, "{}", model.get("name").str());
    }
    let reloaded = reload(addr, "disk");
    let doc = Json::parse(&reloaded).unwrap_or_else(|e| panic!("{e}: {reloaded}"));
    assert_eq!(doc.get("arch").str(), HOSTILE);
    assert_eq!(doc.get("version").number(), 2.0);
    // The scrape over the wire holds up as well.
    let scrape = get(addr, "/metrics");
    assert!(!scrape.lines().any(|line| line.starts_with("scales_injected_total")), "{scrape}");
    check_exposition(&scrape);

    let _ = server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// The checkers check
// ---------------------------------------------------------------------------

#[test]
fn the_exposition_checker_rejects_what_it_claims_to() {
    let ok = "# HELP a_total A.\n# TYPE a_total counter\na_total{k=\"v\"} 1\n";
    assert_eq!(check_exposition(ok).len(), 1);
    let rejected = [
        ("sample before a family", "a_total 1\n"),
        ("TYPE without HELP", "# TYPE a_total counter\na_total 1\n"),
        ("HELP without TYPE", "# HELP a_total A.\na_total 1\n"),
        ("foreign sample", "# HELP a_total A.\n# TYPE a_total counter\nb_total 1\n"),
        ("raw quote", "# HELP a A.\n# TYPE a gauge\na{k=\"x\"y\"} 1\n"),
        ("bad escape", "# HELP a A.\n# TYPE a gauge\na{k=\"x\\ty\"} 1\n"),
        ("duplicate series", "# HELP a A.\n# TYPE a gauge\na{k=\"v\"} 1\na{k=\"v\"} 2\n"),
        ("no value", "# HELP a A.\n# TYPE a gauge\na{k=\"v\"}\n"),
        (
            "family reopened",
            "# HELP a A.\n# TYPE a gauge\na 1\n# HELP b B.\n# TYPE b gauge\nb 1\n# HELP a A.\n# TYPE a gauge\na{k=\"v\"} 1\n",
        ),
        (
            "buckets not cumulative",
            "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
        ),
        (
            "+Inf disagrees with _count",
            "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 2\n",
        ),
    ];
    for (what, text) in rejected {
        let caught = std::panic::catch_unwind(|| check_exposition(text));
        assert!(caught.is_err(), "the checker must reject: {what}");
    }
}

#[test]
fn the_json_reader_rejects_what_it_claims_to() {
    assert_eq!(
        Json::parse(r#"{"a":[1,-2.5e3,"xé\n",true,null],"b":{}}"#).unwrap(),
        Json::Object(vec![
            (
                "a".into(),
                Json::Array(vec![
                    Json::Number(1.0),
                    Json::Number(-2500.0),
                    Json::Str("xé\n".into()),
                    Json::Bool(true),
                    Json::Null,
                ])
            ),
            ("b".into(), Json::Object(Vec::new())),
        ])
    );
    for bad in [
        "",
        "{",
        "{\"a\":1,}",
        "[1 2]",
        "\"raw\nline feed\"",
        "\"bad \\x escape\"",
        "01",
        "1.",
        "{\"a\":1,\"a\":2}",
        "{\"a\":1} trailing",
        "nul",
    ] {
        assert!(Json::parse(bad).is_err(), "the reader must reject {bad:?}");
    }
}

// ---------------------------------------------------------------------------
// Doc sync
// ---------------------------------------------------------------------------

/// Every family either mode renders is listed in the README's metric
/// reference, and the reference lists nothing that is not rendered.
#[test]
fn readme_metric_reference_lists_every_rendered_family() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let (single, _, _) = busy_single_mode();
    let (fleet, _, _, _) = busy_fleet_mode();
    let mut rendered = BTreeSet::new();
    for family in check_exposition(&single).iter().chain(&check_exposition(&fleet)) {
        rendered.insert(family.name.clone());
        assert!(
            readme.contains(&format!("| `{}` | {} |", family.name, family.kind)),
            "README.md \"Metric families\" is missing `{}` ({})",
            family.name,
            family.kind
        );
    }
    let documented: BTreeSet<String> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `scales_"))
        .filter_map(|rest| rest.split_once('`'))
        .map(|(name, _)| format!("scales_{name}"))
        .collect();
    assert_eq!(documented, rendered, "README.md documents exactly the rendered families");
}
