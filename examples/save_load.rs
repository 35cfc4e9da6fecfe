//! Train → save → reload in a "fresh process" → serve, bit-identically:
//! the persistence-layer tour.
//!
//! Trains a small binary SCALES SRResNet, saves **both** artifact forms —
//! a checkpoint (trained f32 weights + registry identity) and a deployed
//! artifact (the packed op graph itself) — then drops every in-memory
//! model and serves straight from disk through
//! [`EngineBuilder::model_path`], verifying `f32::to_bits`-identical
//! outputs against the pre-save engine. Ends with the typed error surface
//! a malformed file produces.
//!
//! ```sh
//! cargo run --release --example save_load
//! ```
//!
//! [`EngineBuilder::model_path`]: scales::serve::EngineBuilder::model_path

use scales::core::Method;
use scales::io::{read_kind, save_artifact, save_checkpoint};
use scales::models::{srresnet, SrConfig, SrNetwork};
use scales::nn::init::rng;
use scales::serve::{Engine, Precision, SrRequest};
use scales::train::{train, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("scales-save-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let ckpt_path = dir.join("srresnet.ckpt.sca");
    let dep_path = dir.join("srresnet.dep.sca");

    // 1. Train the published SCALES method on the lite profile.
    let config = SrConfig { channels: 16, blocks: 2, scale: 2, method: Method::scales(), seed: 7 };
    let net = srresnet(config)?;
    let stats = train(
        &net,
        TrainConfig { iters: 30, batch: 2, lr_patch: 8, lr: 2e-3, halve_every: 1_000, seed: 7 },
    )?;
    println!("trained 30 steps: loss {:.4} -> {:.4}", stats.initial_loss, stats.final_loss);

    // 2. Persist both artifact forms.
    save_checkpoint(&ckpt_path, &net)?;
    let lowered = net.lower()?;
    save_artifact(&dep_path, &lowered)?;
    for (label, path) in [("checkpoint", &ckpt_path), ("deployed artifact", &dep_path)] {
        println!(
            "saved {label:<17} {:>8} bytes  kind={}",
            std::fs::metadata(path)?.len(),
            read_kind(path)?,
        );
    }

    // 3. Reference outputs from the in-memory model, then drop it: from
    //    here on the "process" holds no model state — only file paths.
    let images = vec![
        scales::data::synth::scene(16, 16, scales::data::synth::SceneConfig::default(), &mut rng(1)),
        scales::data::synth::scene(12, 20, scales::data::synth::SceneConfig::default(), &mut rng(2)),
    ];
    let reference: Vec<_> = {
        let engine = Engine::builder().model(net).precision(Precision::Deployed).build()?;
        engine.session().infer(SrRequest::batch(images.clone()))?.into_images()
    };
    drop(lowered);
    println!("dropped every in-memory model; serving from disk only");

    // 4. Serve each artifact straight from disk and verify bit-identity.
    for (label, path) in [("checkpoint", &ckpt_path), ("deployed artifact", &dep_path)] {
        let engine = Engine::builder().model_path(path).build()?;
        let session = engine.session();
        let served = session.infer(SrRequest::batch(images.clone()))?;
        assert_eq!(served.stats().precision, Precision::Deployed);
        let mut identical = true;
        for (a, b) in reference.iter().zip(served.images()) {
            identical &= a
                .tensor()
                .data()
                .iter()
                .zip(b.tensor().data().iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        }
        assert!(identical, "{label} must serve bit-identical outputs");
        println!(
            "{label:<17} served {} image(s), one forward each: bit-identical ✓",
            served.stats().images,
        );
    }

    // 5. Malformed files fail with typed errors, never partial models.
    let truncated = dir.join("truncated.sca");
    let bytes = std::fs::read(&dep_path)?;
    std::fs::write(&truncated, &bytes[..bytes.len() / 2])?;
    match scales::io::load_artifact(&truncated) {
        Err(e) => println!("truncated file rejected: {e}"),
        Ok(_) => unreachable!("a half file must not load"),
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
