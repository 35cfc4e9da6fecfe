//! The unified serving API end to end: build an `Engine` (model +
//! precision + backend + tile policy), open a `Session`, and serve
//! single-image, multi-image and tiled requests through one `infer`
//! entry point.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use scales::core::Method;
use scales::models::{srresnet, swinir, SrConfig};
use scales::serve::{Engine, Precision, SrRequest, TilePolicy};
use scales::tensor::backend::Backend;
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
    // 1. Train the published SCALES method briefly on the lite profile.
    let config = SrConfig { channels: 16, blocks: 2, scale: 2, method: Method::scales(), seed: 7 };
    let net = srresnet(config)?;
    let stats = train(
        &net,
        TrainConfig { iters: 30, batch: 2, lr_patch: 8, lr: 2e-3, halve_every: 1_000, seed: 7 },
    )?;
    println!("trained 30 steps: loss {:.4} -> {:.4}", stats.initial_loss, stats.final_loss);

    // 2. Build the serving engine: deployed precision auto-lowers the
    //    whole network to the packed binary graph; the backend handle and
    //    tile policy are engine state, not process state.
    let engine = Engine::builder()
        .model(net)
        .precision(Precision::Deployed)
        .backend(Backend::Scalar)
        .tile_policy(TilePolicy::auto()) // LR sides above 64 px tile transparently
        .build()?;
    println!(
        "engine: precision={} backend={} packed_layers={}",
        engine.precision(),
        engine.backend().name(),
        engine.lowered().map_or(0, scales::models::DeployedNetwork::packed_layers),
    );

    // 3. One entry point serves everything. A mixed-size request: every
    //    image runs a forward of its own, in request order, and the
    //    oversized one is split -> forward -> stitched.
    let session = engine.session();
    let request = SrRequest::batch(vec![
        scene(24, 24, 1),
        scene(24, 24, 2), // same shape as the first: reuses its plan
        scene(32, 20, 3),
        scene(96, 72, 4), // above the auto threshold: tiled
    ]);
    let response = session.infer(request)?;
    let s = response.stats();
    println!(
        "served {} images: {} whole, {} tiled, precision={}, backend={}",
        s.images,
        s.images - s.tiled,
        s.tiled,
        s.precision,
        s.backend.name()
    );
    for (i, sr) in response.images().iter().enumerate() {
        println!("  image {i}: -> {}x{}", sr.height(), sr.width());
    }

    // 4. Per-request overrides: force full-image serving for one request.
    let exact = session.infer(SrRequest::single(scene(96, 72, 4)).tile_policy(TilePolicy::Off))?;
    println!("override: full-image forward of {}x{}", 96, 72);
    assert_eq!(exact.stats().tiled, 0);
    println!("session totals: {} requests, {} images", session.requests(), session.images_served());

    // 5. The transformer family serves on the same packed, planned path:
    //    its binary linears lower to 1x1 body convolutions on the fused
    //    XNOR-popcount kernel (inputs must divide the attention window).
    let swin = swinir(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 9 })?;
    let swin_engine = Engine::builder().model(swin).precision(Precision::Deployed).build()?;
    let stats = swin_engine.session().infer(SrRequest::single(scene(16, 16, 5)))?.stats();
    println!(
        "transformer engine: serving={} ({} packed layers, {} plan built)",
        stats.precision,
        swin_engine.lowered().map_or(0, |graph| graph.packed_layers()),
        stats.plans_built,
    );
    Ok(())
}
