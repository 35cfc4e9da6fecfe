//! Serving under load, end to end: train a lite SCALES network, lower it
//! into a deployed engine, put a `scales::runtime` worker pool in front
//! of it, drive concurrent mixed-size traffic from several submitter
//! threads, and read the final `RuntimeStats` — throughput, batch fill,
//! queue high-water, and p50/p99 latency.
//!
//! ```sh
//! cargo run --release --example load_serve
//! ```

use scales::core::Method;
use scales::models::{srresnet, SrConfig};
use scales::runtime::{Runtime, RuntimeConfig, SubmitError};
use scales::serve::{Engine, Precision, SrRequest};
use scales::train::{train, TrainConfig};

fn scene(h: usize, w: usize, seed: u64) -> scales::data::Image {
    scales::data::synth::scene(
        h,
        w,
        scales::data::synth::SceneConfig::default(),
        &mut scales::nn::init::rng(seed),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train briefly, then build the deployed serving engine (packed
    //    binary body, planned zero-allocation executor).
    let config = SrConfig { channels: 16, blocks: 2, scale: 2, method: Method::scales(), seed: 7 };
    let net = srresnet(config)?;
    let stats = train(
        &net,
        TrainConfig { iters: 30, batch: 2, lr_patch: 8, lr: 2e-3, halve_every: 1_000, seed: 7 },
    )?;
    println!("trained 30 steps: loss {:.4} -> {:.4}", stats.initial_loss, stats.final_loss);
    let engine = Engine::builder().model(net).precision(Precision::Deployed).build()?;

    // 2. Spawn the worker pool. The workers share a pool of `workers`
    //    workspaces (arenas + plan cache), one per forward in flight; the
    //    bounded queue gives explicit backpressure; each dispatch
    //    coalesces the compatible requests queued when it starts.
    let runtime = Runtime::spawn(
        engine,
        RuntimeConfig {
            workers: 4,
            queue_capacity: 32,
            max_batch: 8,
            ..RuntimeConfig::default()
        },
    )?;
    println!("runtime: {} workers over one shared engine", runtime.workers());

    // 3. Concurrent mixed-size traffic: three submitter threads, each a
    //    stream of single-image requests of rotating sizes — exactly the
    //    many-small-callers pattern cross-request batching exists for.
    let sizes = [(16usize, 16usize), (24, 24), (16, 24)];
    std::thread::scope(|scope| {
        let runtime = &runtime;
        for t in 0..3u64 {
            scope.spawn(move || {
                for i in 0..20u64 {
                    let (h, w) = sizes[(t as usize + i as usize) % sizes.len()];
                    // submit_wait blocks for queue space: a slow consumer
                    // throttles producers instead of erroring.
                    match runtime.submit_wait(SrRequest::single(scene(h, w, t * 100 + i))) {
                        Ok(ticket) => {
                            let response = ticket.wait().expect("serving failed");
                            assert_eq!(response.images()[0].height(), h * 2);
                        }
                        Err(SubmitError::ShuttingDown) => return,
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
            });
        }
    });

    // 4. Graceful shutdown: drain, join, and report.
    let final_stats = runtime.shutdown();
    println!("{final_stats}");
    assert_eq!(final_stats.completed, 60, "every request served");
    assert_eq!(final_stats.failed, 0);
    assert_eq!(final_stats.queue_depth, 0, "queue drained");
    println!(
        "batching saved {} dispatches ({} requests over {} dispatches)",
        final_stats.completed - final_stats.dispatches,
        final_stats.completed,
        final_stats.dispatches
    );
    Ok(())
}
