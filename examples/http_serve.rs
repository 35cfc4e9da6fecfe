//! Network serving, end to end: train a lite SCALES network, lower it
//! into a one-model `scales::router` fleet (its own `scales::runtime`
//! worker pool), put the `scales::http` front end on an ephemeral
//! loopback port, then act as a client — post a PPM over a plain
//! `TcpStream`, check the upscaled reply, scrape `/metrics`, and shut the
//! stack down gracefully.
//!
//! ```sh
//! cargo run --release --example http_serve
//! ```

use scales::core::Method;
use scales::data::codec::{decode_image, encode_image};
use scales::data::WireFormat;
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::router::{ModelRouter, RouterConfig};
use scales::runtime::RuntimeConfig;
use scales::train::{train, TrainConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn scene(h: usize, w: usize, seed: u64) -> scales::data::Image {
    scales::data::synth::scene(
        h,
        w,
        scales::data::synth::SceneConfig::default(),
        &mut scales::nn::init::rng(seed),
    )
}

/// Minimal client-side response read: status line + headers +
/// `Content-Length` body.
fn read_response(stream: &mut TcpStream) -> Result<(u16, Vec<u8>), Box<dyn std::error::Error>> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if stream.read(&mut byte)? == 0 {
            return Err("server closed mid-response".into());
        }
        head.push(byte[0]);
    }
    let text = std::str::from_utf8(&head)?;
    let status: u16 = text.split(' ').nth(1).ok_or("no status code")?.parse()?;
    let length: usize = text
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::trim).map(String::from))
        .map_or(Ok(0), |v| v.parse())?;
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok((status, body))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train briefly.
    let config = SrConfig { channels: 16, blocks: 2, scale: 2, method: Method::scales(), seed: 7 };
    let net = srresnet(config)?;
    let stats = train(
        &net,
        TrainConfig { iters: 30, batch: 2, lr_patch: 8, lr: 2e-3, halve_every: 1_000, seed: 7 },
    )?;
    println!("trained 30 steps: loss {:.4} -> {:.4}", stats.initial_loss, stats.final_loss);

    // 2. A one-model fleet (a two-worker pool) + HTTP front end on an
    //    ephemeral loopback port.
    let router = ModelRouter::new(RouterConfig {
        runtime: RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })?;
    router.register_model("m", net.lower()?)?;
    let server = HttpServer::bind_router("127.0.0.1:0", router, HttpConfig::default())?;
    let addr = server.addr();
    println!("serving on http://{addr}");

    // 3. Be the client: post a PPM-encoded low-resolution image to the
    //    fleet's only model.
    let lr = scene(24, 32, 42);
    let payload = encode_image(&lr, WireFormat::Ppm)?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!(
            "POST /v1/upscale HTTP/1.1\r\nHost: localhost\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            WireFormat::Ppm.content_type(),
            payload.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(&payload)?;
    let (status, body) = read_response(&mut stream)?;
    if status != 200 {
        return Err(format!("upscale failed: HTTP {status}: {}", String::from_utf8_lossy(&body))
            .into());
    }
    let (upscaled, format) = decode_image(&body)?;
    println!(
        "posted {}x{} {} ({} bytes) -> received {}x{} ({} bytes)",
        lr.width(),
        lr.height(),
        format,
        payload.len(),
        upscaled.width(),
        upscaled.height(),
        body.len()
    );
    assert_eq!(upscaled.height(), lr.height() * 2, "x2 super-resolution");
    assert_eq!(upscaled.width(), lr.width() * 2);

    // 4. Scrape /metrics like a Prometheus agent would.
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")?;
    let (status, body) = read_response(&mut stream)?;
    assert_eq!(status, 200, "metrics scrape");
    let text = String::from_utf8(body)?;
    println!("\n/metrics highlights:");
    for line in text.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("scales_model_requests_completed_total")
                || l.starts_with("scales_model_request_latency_seconds_count")
                || l.starts_with("scales_model_stage_seconds_count")
                || l.starts_with("scales_http_"))
    }) {
        println!("  {line}");
    }
    assert!(
        text.contains("scales_model_requests_completed_total{model=\"m\"} 1"),
        "the upscale request must be counted"
    );
    assert!(
        text.contains("scales_model_stage_seconds_count{model=\"m\",stage=\"infer\"} 1"),
        "the runtime's stage histograms are labelled by model"
    );

    // 5. Graceful shutdown drains the stack and reports the record.
    let final_stats = server.shutdown();
    println!(
        "\nshutdown: {} completed, {} failed, p99 {:?}",
        final_stats.completed, final_stats.failed, final_stats.latency.p99()
    );
    assert_eq!(final_stats.failed, 0);
    Ok(())
}
