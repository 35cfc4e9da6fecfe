//! The observability layer, end to end: serve a one-model fleet behind
//! the HTTP front end with the per-op profiler switched on, post a
//! *traced*, tenant-tagged upscale (client-chosen `X-Scales-Request-Id`),
//! then read everything the stack recorded about it — the echoed id, the
//! flight recorder's eight-stage trace, the per-op plan profile, and the
//! per-stage, per-op and per-tenant Prometheus series of the model.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use scales::core::Method;
use scales::data::codec::encode_image;
use scales::data::WireFormat;
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::router::{ModelRouter, RouterConfig};
use scales::runtime::RuntimeConfig;
use scales::telemetry::{Stage, STAGES};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Status, lowercased header pairs, and the `Content-Length` body.
type Response = (u16, Vec<(String, String)>, Vec<u8>);

/// Minimal client-side response read: status line + lowercased headers +
/// `Content-Length` body.
fn read_response(stream: &mut TcpStream) -> Result<Response, Box<dyn std::error::Error>> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if stream.read(&mut byte)? == 0 {
            return Err("server closed mid-response".into());
        }
        head.push(byte[0]);
    }
    let text = std::str::from_utf8(&head[..head.len() - 4])?;
    let mut lines = text.split("\r\n");
    let status: u16 = lines.next().ok_or("no status line")?.split(' ').nth(1).ok_or("no status")?.parse()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map_or(Ok(0), |(_, v)| v.parse())?;
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok((status, headers, body))
}

fn get(addr: std::net::SocketAddr, target: &str) -> Result<(u16, Vec<u8>), Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let (status, _, body) = read_response(&mut stream)?;
    Ok((status, body))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A one-model fleet, its worker pool's profiler ON (the opt-in
    //    knob; `SCALES_PROFILE_OPS=1` sets the same default).
    let net = srresnet(SrConfig {
        channels: 16,
        blocks: 2,
        scale: 2,
        method: Method::scales(),
        seed: 11,
    })?;
    let router = ModelRouter::new(RouterConfig {
        runtime: RuntimeConfig { workers: 2, profile_ops: true, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })?;
    router.register_model("m", net.lower()?)?;
    let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default())?;
    let addr = server.addr();
    println!("serving on http://{addr} (profiler on)");

    // 2. Post a traced upscale: the client picks its own request id and
    //    tags its tenant lane.
    let lr = scales::data::synth::scene(
        24,
        32,
        scales::data::synth::SceneConfig::default(),
        &mut scales::nn::init::rng(3),
    );
    let payload = encode_image(&lr, WireFormat::Ppm)?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!(
            "POST /v1/upscale HTTP/1.1\r\nHost: localhost\r\nX-Scales-Request-Id: example-trace-1\r\nX-Scales-Tenant: acme\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            WireFormat::Ppm.content_type(),
            payload.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(&payload)?;
    let (status, headers, body) = read_response(&mut stream)?;
    assert_eq!(status, 200, "upscale failed: {}", String::from_utf8_lossy(&body));
    let echoed = headers
        .iter()
        .find(|(n, _)| n == "x-scales-request-id")
        .map(|(_, v)| v.as_str())
        .expect("every response echoes the trace id");
    assert_eq!(echoed, "example-trace-1", "a valid client id is echoed verbatim");
    println!("upscaled {} bytes, trace id echoed: {echoed}", body.len());

    // 3. The flight recorder has the trace — typed, in-process, with the
    //    eight telescoping stage spans summing exactly to the total.
    let trace = std::iter::repeat_with(|| {
        std::thread::sleep(Duration::from_millis(10));
        server.traces().into_iter().find(|t| t.id.as_str() == "example-trace-1")
    })
    .take(200)
    .flatten()
    .next()
    .expect("the trace must land in the flight recorder");
    println!("\ntrace {} (status {}, total {} ns):", trace.id, trace.status, trace.total_ns);
    for (i, name) in STAGES.iter().enumerate() {
        println!("  {name:<11} {:>12} ns", trace.stage_ns[i]);
    }
    assert_eq!(trace.stage_ns.iter().sum::<u64>(), trace.total_ns, "spans telescope exactly");
    assert!(trace.stage(Stage::Infer) > 0, "the forward must have measurable time");

    // 4. The same trace over the wire, plus the per-op plan profile.
    let (status, traces_doc) = get(addr, "/v1/debug/traces")?;
    assert_eq!(status, 200);
    let traces_doc = String::from_utf8(traces_doc)?;
    assert!(traces_doc.contains("\"id\":\"example-trace-1\""), "wire view has the trace");

    let (status, profile) = get(addr, "/v1/debug/profile")?;
    assert_eq!(status, 200);
    let profile = String::from_utf8(profile)?;
    println!("\n/v1/debug/profile:\n  {profile}");
    assert!(profile.contains("\"op\":\"body_conv\""), "the profiler names the binary convs");

    // 5. And the scrape carries the per-stage histograms on both sides
    //    of the queue plus the per-op and per-tenant series, the model's
    //    all labelled with its name.
    let (status, metrics) = get(addr, "/metrics")?;
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics)?;
    println!("/metrics highlights:");
    for line in metrics.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("scales_model_stage_seconds_count")
                || l.starts_with("scales_http_stage_seconds_count")
                || l.starts_with("scales_model_plan_op_seconds_total")
                || l.starts_with("scales_model_tenant_requests_completed_total")
                || l.starts_with("scales_build_info"))
    }) {
        println!("  {line}");
    }
    for needle in [
        "scales_model_stage_seconds_bucket{model=\"m\",stage=\"infer\",le=",
        "scales_http_stage_seconds_bucket{stage=\"decode\",le=",
        "scales_model_plan_op_calls_total{model=\"m\",op=\"body_conv\"}",
        "scales_model_tenant_requests_completed_total{model=\"m\",tenant=\"acme\"} 1",
        "scales_build_info{version=",
    ] {
        assert!(metrics.contains(needle), "metrics must contain {needle}");
    }

    let final_stats = server.shutdown();
    println!(
        "\nshutdown: {} completed, {} failed, profiled {} op calls",
        final_stats.completed,
        final_stats.failed,
        final_stats.op_profile.total_calls(),
    );
    assert_eq!(final_stats.failed, 0);
    Ok(())
}
