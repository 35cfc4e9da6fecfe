//! A model fleet, end to end: two deployed SCALES networks behind one
//! `scales::router::ModelRouter` — one loaded from an on-disk artifact,
//! one registered in memory — served over HTTP by name, hot-swapped to a
//! new artifact version with zero downtime while a client hammers the
//! route, and scraped for per-model Prometheus series.
//!
//! ```sh
//! cargo run --release --example router_serve
//! ```

use scales::core::Method;
use scales::data::codec::encode_image;
use scales::data::WireFormat;
use scales::http::{HttpConfig, HttpServer};
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::router::{ModelRouter, RouterConfig};
use scales::runtime::RuntimeConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scene(h: usize, w: usize, seed: u64) -> scales::data::Image {
    scales::data::synth::scene(
        h,
        w,
        scales::data::synth::SceneConfig::default(),
        &mut scales::nn::init::rng(seed),
    )
}

fn net(seed: u64) -> impl SrNetwork {
    srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed })
        .expect("srresnet config is valid")
}

/// Minimal client-side response read: status + `Content-Length` body.
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

/// One-shot request over a fresh connection.
fn send(addr: SocketAddr, raw: &[u8]) -> Result<(u16, Vec<u8>), Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(raw)?;
    read_response(&mut stream)
}

fn post(path: &str, payload: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: fleet\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        WireFormat::Ppm.content_type(),
        payload.len()
    )
    .into_bytes();
    raw.extend_from_slice(payload);
    raw
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two deployed models: "photo" persisted as an on-disk artifact
    //    (reloadable, evictable), "pixel" registered straight from memory
    //    (pinned resident).
    let dir = std::env::temp_dir().join(format!("scales-router-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let artifact = dir.join("photo.dep.sca");
    scales::io::save_artifact(&artifact, &net(11).lower()?)?;

    let router = ModelRouter::new(RouterConfig {
        memory_budget: None,
        runtime: RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
        ..RouterConfig::default()
    })?;
    let photo = router.register_path("photo", &artifact)?;
    router.register_model("pixel", net(22).lower()?)?;
    println!(
        "registered photo v{} (fingerprint {:016x}, {} weight bytes) and pinned pixel",
        photo.version, photo.fingerprint, photo.weight_bytes
    );

    // 2. The HTTP front end over the fleet.
    let server = HttpServer::bind_router("127.0.0.1:0", router.clone(), HttpConfig::default())?;
    let addr = server.addr();
    println!("serving the fleet on http://{addr}");

    // 3. List the fleet, then upscale through each model by name.
    let (status, body) = send(addr, b"GET /v1/models HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n")?;
    assert_eq!(status, 200, "fleet listing");
    println!("\nGET /v1/models\n  {}", String::from_utf8_lossy(&body).trim());

    let lr = scene(24, 32, 42);
    let payload = encode_image(&lr, WireFormat::Ppm)?;
    for name in ["photo", "pixel"] {
        let (status, body) = send(addr, &post(&format!("/v1/models/{name}/upscale"), &payload))?;
        assert_eq!(status, 200, "{name} upscale: {}", String::from_utf8_lossy(&body));
        println!("POST /v1/models/{name}/upscale -> 200 ({} bytes)", body.len());
    }

    // 4. Hot-swap "photo" to a new artifact version with zero downtime:
    //    a client thread hammers the route through the swap, and every
    //    one of its requests must be served.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        let payload = payload.clone();
        std::thread::spawn(move || -> Result<u64, String> {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = send(addr, &post("/v1/models/photo/upscale", &payload))
                    .map_err(|e| e.to_string())?;
                if status != 200 {
                    return Err(format!("HTTP {status}: {}", String::from_utf8_lossy(&body)));
                }
                served += 1;
            }
            Ok(served)
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    scales::io::save_artifact(&artifact, &net(33).lower()?)?;
    let (status, body) = send(
        addr,
        b"POST /v1/models/photo/reload HTTP/1.1\r\nHost: fleet\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )?;
    assert_eq!(status, 200, "reload: {}", String::from_utf8_lossy(&body));
    println!("\nPOST /v1/models/photo/reload\n  {}", String::from_utf8_lossy(&body).trim());
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let served = hammer.join().expect("client thread").map_err(|e| -> Box<dyn std::error::Error> {
        format!("a request failed during the hot-swap: {e}").into()
    })?;
    let swapped = router.model("photo")?;
    println!(
        "hot-swapped under load: {served} client requests served, photo now v{} \
         (fingerprint {:016x}, {} swap)",
        swapped.version, swapped.fingerprint, swapped.swaps
    );
    assert_eq!(swapped.version, 2);
    assert_ne!(swapped.fingerprint, photo.fingerprint, "the new version is a new artifact");

    // 5. Scrape the per-model Prometheus series.
    let (status, body) =
        send(addr, b"GET /metrics HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n")?;
    assert_eq!(status, 200, "metrics scrape");
    let text = String::from_utf8(body)?;
    println!("\n/metrics highlights:");
    for line in text.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("scales_model_requests_completed_total")
                || l.starts_with("scales_model_version")
                || l.starts_with("scales_model_swaps_total")
                || l.starts_with("scales_model_memory_bytes"))
    }) {
        println!("  {line}");
    }

    // 6. Graceful shutdown drains every model and reports the fleet's
    //    merged serving record.
    let merged = server.shutdown();
    println!("\nshutdown: {} completed, {} failed across the fleet", merged.completed, merged.failed);
    assert_eq!(merged.failed, 0, "zero failures through registration, routing, and the swap");
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
