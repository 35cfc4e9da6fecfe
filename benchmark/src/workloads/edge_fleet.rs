//! `edge_fleet`: two keep-alive loopback connections (two client threads,
//! closed loop) → `HttpServer::bind_router` → two path-backed lite models
//! `a`/`b`, alternating; PNG in, PNG out, request id supplied. Once per unit
//! client 0 also posts `/v1/models/b/reload` — the write beside the reads.
//! Inference is a small part of each request, so parser, codecs, submit,
//! queue/batch wait, telemetry and routing are most of the latency.

use crate::harness::{Client, Info, UnitOut, Workload};
use crate::models::{ModelFiles, ModelSpec};
use crate::schedule::{checksum, quantised, CycleImages, CYCLE, HEAVY_SLOT};
use crate::stats::Sample;
use crate::trace::{RequestKey, Tracer};
use scales_data::{decode_image, encode_image, WireFormat};
use scales_http::{HttpConfig, HttpServer};
use scales_router::{ModelRouter, RouterConfig};
use scales_runtime::{RuntimeConfig, RuntimeStats};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const MODELS: [&str; 2] = ["a", "b"];
const GENERATORS: usize = 2;

pub struct EdgeFleet {
    info: Info,
    files: [ModelFiles; 2],
    /// Per generator, per cycle slot: PNG request body.
    bodies: Vec<Vec<Vec<u8>>>,
    /// Per generator, per cycle slot, per model: checksum of the quantised
    /// reference output.
    expect: Vec<Vec<[u64; 2]>>,
}

/// Cycles of five per client per unit: 40 requests each, ~0.3 s of work on
/// the reference box, and few enough that one unit's traces fit the flight
/// recorder's default ring (256).
const CYCLES_PER_UNIT: usize = 8;

impl EdgeFleet {
    pub fn prepare(info: Info, seed: u64, dir: &Path) -> Self {
        // Model `b` is the same profile with other weights, so a request
        // routed to the wrong model fails the oracle.
        let mut other = info.model;
        other.config.seed += 1;
        let specs: [ModelSpec; 2] = [info.model, other];
        let files = [0, 1].map(|m| crate::models::write(&specs[m], dir, MODELS[m]));
        let sessions = [0, 1].map(|m| super::session::engine(&specs[m], files[m].serving_path()));
        let mut bodies = Vec::new();
        let mut expect = Vec::new();
        for g in 0..GENERATORS {
            let cycle = CycleImages::new(seed, g as u64, info.model.light, info.model.heavy);
            bodies.push(
                cycle
                    .images
                    .iter()
                    .map(|i| encode_image(i, WireFormat::Png).expect("PNG encodes"))
                    .collect(),
            );
            expect.push(
                cycle
                    .images
                    .iter()
                    .map(|img| {
                        // The server sees the decoded (quantised) upload.
                        let seen = quantised(img);
                        [0, 1].map(|m| {
                            let sr = sessions[m]
                                .session()
                                .super_resolve(&seen)
                                .expect("reference forward");
                            checksum(&quantised(&sr))
                        })
                    })
                    .collect(),
            );
        }
        Self {
            info,
            files,
            bodies,
            expect,
        }
    }

    /// Which model request `index` of a unit goes to: strict alternation.
    fn model_of(index: usize) -> usize {
        index % 2
    }

    /// Send request `index` of generator `g`'s unit and check the answer.
    fn serve(
        &self,
        conn: &mut Connection,
        g: usize,
        index: usize,
        id: &str,
    ) -> (Instant, Instant, bool) {
        let (slot, model) = (index % CYCLE, Self::model_of(index));
        let wire = upscale_request(MODELS[model], id, &self.bodies[g][slot]);
        let start = Instant::now();
        let response = conn.round_trip(&wire);
        let end = Instant::now();
        let ok = response.is_some_and(|(status, body)| {
            status == 200
                && decode_image(&body)
                    .is_ok_and(|(image, _)| checksum(&image) == self.expect[g][slot][model])
        });
        (start, end, ok)
    }
}

/// One PNG upscale request for `model`, as it goes on the wire.
pub fn upscale_request(model: &str, id: &str, png: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST /v1/models/{model}/upscale HTTP/1.1\r\nHost: bench\r\nContent-Type: image/png\r\n\
         X-Scales-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n",
        png.len()
    )
    .into_bytes();
    wire.extend_from_slice(png);
    wire
}

/// The `router.*` and `http.*` counters of a live fleet server: swaps and
/// resident bytes from the router, refusals and errors scraped from
/// `/metrics` (the server has no typed accessor for them).
pub fn fleet_counters(server: &HttpServer) -> Vec<(&'static str, f64)> {
    let router = server.router().expect("a fleet server has a router");
    let metrics = Connection::open(server.addr())
        .round_trip(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
        .unwrap_or_default();
    vec![
        (
            "router.swaps",
            router.list().iter().map(|m| m.swaps).sum::<u64>() as f64,
        ),
        ("router.resident_mb", router.resident_bytes() as f64 / 1e6),
        (
            "http.refused",
            prometheus_value(&metrics, "scales_http_refused_total"),
        ),
        (
            "http.errors",
            prometheus_value(&metrics, "scales_http_errors_total"),
        ),
    ]
}

/// Library defaults; the profiler switch is pinned off so the environment
/// cannot change the program under test.
pub fn router_config() -> RouterConfig {
    RouterConfig {
        runtime: RuntimeConfig {
            profile_ops: false,
            ..RuntimeConfig::default()
        },
        ..RouterConfig::default()
    }
}

impl Workload for EdgeFleet {
    type Stack = HttpServer;

    fn info(&self) -> Info {
        self.info
    }

    fn files(&self) -> &ModelFiles {
        &self.files[0]
    }

    fn setup(&self) -> HttpServer {
        let router = ModelRouter::new(router_config()).expect("router config is valid");
        for (name, files) in MODELS.iter().zip(&self.files) {
            router
                .register_path(name, files.serving_path())
                .expect("model registers");
        }
        HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default())
            .expect("loopback server binds")
    }

    fn first_requests(&self, stack: &HttpServer) -> (usize, usize) {
        let mut conn = Connection::open(stack.addr());
        // Light and heavy, once to each model.
        let probes = [0, 1, HEAVY_SLOT, HEAVY_SLOT + CYCLE];
        let wrong = probes
            .iter()
            .filter(|&&index| !self.serve(&mut conn, 0, index, "setup").2)
            .count();
        (probes.len(), wrong)
    }

    fn teardown(&self, stack: HttpServer) -> Option<RuntimeStats> {
        Some(stack.shutdown())
    }

    fn client<'a>(&'a self, stack: &'a HttpServer, generator: usize) -> Box<dyn Client + 'a> {
        Box::new(EdgeClient {
            workload: self,
            generator,
            conn: Connection::open(stack.addr()),
        })
    }

    fn collect_stages(&self, stack: &HttpServer, stages: &mut HashMap<String, [u64; 8]>) {
        for trace in stack.traces() {
            stages
                .entry(trace.id.as_str().to_string())
                .or_insert(trace.stage_ns);
        }
    }

    fn stack_counters(&self, stack: &HttpServer) -> Vec<(&'static str, f64)> {
        fleet_counters(stack)
    }
}

/// The value of an unlabelled series in a Prometheus text exposition; 0
/// when the series is absent.
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

struct EdgeClient<'a> {
    workload: &'a EdgeFleet,
    generator: usize,
    conn: Connection,
}

impl Client for EdgeClient<'_> {
    fn run_unit(&mut self, unit: u32, out: &mut UnitOut, mut tracer: Option<&mut Tracer>) {
        let requests = CYCLES_PER_UNIT * CYCLE;
        let mut previous_end = None;
        for index in 0..requests {
            // The write beside the reads: one hot-swap of `b` per unit, from
            // client 0, while client 1 keeps routing.
            if self.generator == 0 && index == requests / 2 {
                let start = Instant::now();
                let answer = self
                    .conn
                    .round_trip(b"POST /v1/models/b/reload HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
                out.admin_ms.push(start.elapsed().as_secs_f64() * 1e3);
                out.admin_failed += usize::from(answer.is_none_or(|(status, _)| status != 200));
                previous_end = None;
            }
            let key = RequestKey {
                generator: self.generator as u16,
                unit,
                index: index as u32,
            };
            let (start, end, ok) =
                self.workload
                    .serve(&mut self.conn, self.generator, index, &key.name());
            if let Some(prev) = previous_end {
                out.lag_ms
                    .push(start.duration_since(prev).as_secs_f64() * 1e3);
            }
            previous_end = Some(end);
            out.samples.push(Sample {
                raw_ms: end.duration_since(start).as_secs_f64() * 1e3,
                ok,
            });
            if let Some(t) = tracer.as_deref_mut() {
                t.root("http.request", key, start, end);
            }
        }
    }
}

/// A keep-alive HTTP/1.1 client connection that reads whole responses.
pub struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connects");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Self {
            stream,
            buffer: Vec::with_capacity(64 * 1024),
        }
    }

    /// Write one request and read one full response: status and body.
    /// `None` on any I/O or framing failure.
    pub fn round_trip(&mut self, request: &[u8]) -> Option<(u16, Vec<u8>)> {
        self.stream.write_all(request).ok()?;
        self.buffer.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = self.buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
            self.buffer.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buffer[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        while self.buffer.len() < head_end + length {
            let n = self.stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
            self.buffer.extend_from_slice(&chunk[..n]);
        }
        Some((status, self.buffer[head_end..head_end + length].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_scrape_reads_unlabelled_series_only() {
        let text = "# TYPE scales_http_refused_total counter\nscales_http_refused_total 3\n\
                    scales_http_errors_total{kind=\"x\"} 9\nscales_http_errors_total 2\n";
        assert_eq!(prometheus_value(text, "scales_http_refused_total"), 3.0);
        assert_eq!(prometheus_value(text, "scales_http_errors_total"), 2.0);
        assert_eq!(prometheus_value(text, "scales_http_missing_total"), 0.0);
    }
}
