//! Whole-network deployment latency — the Table VI story extended from a
//! single conv to an entire SR network, comparing serving paths on the
//! same trained SRResNet (64×64 LR input, ×2) through the unified
//! `scales-serve` Engine API:
//!
//! * training-precision engine, scalar backend — the seed's only
//!   inference route;
//! * training-precision engine, simd backend (the compiled default) —
//!   runtime-detected AVX2 float GEMM, bit-identical outputs;
//! * deployed-precision engine (packed XNOR-popcount body) on each
//!   backend.
//!
//! On AVX2 hardware the simd deployed row — AVX2 float GEMM plus the
//! binary convolution at the detected level — must beat the scalar
//! deployed row by 20% (asserted; skipped when detection reports no AVX2).
//!
//! Each row is a separate `Engine` carrying its backend by value — the
//! process-global backend selection is never touched, which is itself the
//! smoke test for per-engine backend threading.
//!
//! Expected shape: deployed ≫ training path (no tape, packed body convs)
//! on both backends.
//!
//! ```sh
//! cargo bench --bench table7_network_latency
//! ```

use scales_core::Method;
use scales_data::Image;
use scales_models::{srresnet, SrConfig, SrNetwork, Workspace};
use scales_serve::{Engine, Precision, Session};
use scales_tensor::backend::Backend;
use scales_tensor::Tensor;
use std::time::{Duration, Instant};

const SIZE: usize = 64;
const CHANNELS: usize = 16;
const BLOCKS: usize = 2;
const SEED: u64 = 77;

fn probe_input() -> Image {
    let t = Tensor::from_vec(
        (0..3 * SIZE * SIZE).map(|i| ((i as f32) * 0.071).sin() * 0.4 + 0.5).collect(),
        &[3, SIZE, SIZE],
    )
    .expect("probe volume");
    Image::from_tensor(t).expect("probe image")
}

fn time_serving(reps: usize, session: &Session<'_, '_>, input: &Image) -> Duration {
    // One untimed warm-up call.
    let _ = session.super_resolve(input).expect("serving forward");
    let start = Instant::now();
    for _ in 0..reps {
        let _ = session.super_resolve(input).expect("serving forward");
    }
    start.elapsed() / reps as u32
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = srresnet(SrConfig {
        channels: CHANNELS,
        blocks: BLOCKS,
        scale: 2,
        method: Method::scales(),
        seed: SEED,
    })?;
    let input = probe_input();
    let reps = 5;

    let mut rows = Vec::new();
    let mut packed_layers = 0;
    for backend_kind in [Backend::Scalar, Backend::Simd] {
        let training = Engine::builder()
            .model_ref(&net)
            .precision(Precision::Training)
            .backend(backend_kind)
            .build()?;
        let graph = net.lower()?;
        packed_layers = graph.packed_layers();
        let deployed = Engine::builder()
            .model(graph)
            .precision(Precision::Deployed)
            .backend(backend_kind)
            .build()?;
        let t = time_serving(reps, &training.session(), &input);
        let d = time_serving(reps, &deployed.session(), &input);
        rows.push((backend_kind.name(), t, d));
    }

    println!(
        "whole-network serving latency via Engine (SRResNet/SCALES, {CHANNELS} ch x {BLOCKS} \
         blocks, {SIZE}x{SIZE} LR, x2, {packed_layers} packed layers, {} cores, simd {})",
        std::thread::available_parallelism().map_or(1, usize::from),
        Backend::detected(),
    );

    println!("\n  {:<10} {:>18} {:>18}", "backend", "training engine", "deployed engine");
    for (name, train_t, deploy_t) in &rows {
        println!("  {name:<10} {:>15.2?} {:>15.2?}", train_t, deploy_t);
    }
    let seed_path = rows[0].1; // scalar training path = the seed's route
    let best_deploy = rows.iter().map(|r| r.2).min().expect("rows");
    println!(
        "\n  speedup (deployed engine vs seed scalar training path): {:.1}x",
        seed_path.as_secs_f64() / best_deploy.as_secs_f64().max(1e-9)
    );
    assert!(
        best_deploy < seed_path,
        "deployed whole-network serving must beat the seed scalar path"
    );
    if Backend::detected().has_avx2() {
        // rows: [scalar, simd]. The portable loop is the same
        // direct kernel, so the scalar row moved with the simd one: on this
        // probe the detected level serves in 0.4-0.6x the scalar time
        // (float GEMM 1.4x, binary conv 2.5-5x). 0.8 leaves room for timer
        // jitter; the per-kernel floors are asserted in micro_kernels.
        let (scalar_deploy, simd_deploy) = (rows[0].2, rows[1].2);
        assert!(
            simd_deploy.as_secs_f64() <= scalar_deploy.as_secs_f64() * 0.8,
            "simd deployed serving must beat scalar by 20% (got {simd_deploy:.2?} vs {scalar_deploy:.2?})"
        );
    }
    let json: Vec<String> = rows
        .iter()
        .flat_map(|(name, t, d)| {
            [
                format!("\"{name}_training_us\":{:.1}", t.as_secs_f64() * 1e6),
                format!("\"{name}_deployed_us\":{:.1}", d.as_secs_f64() * 1e6),
            ]
        })
        .collect();
    println!("\nBENCH_table7 {{{}}}", json.join(","));

    // The planned schedule (slots recycled, elementwise ops in place, a
    // warm arena) next to `DeployedNetwork::forward` (the same executor
    // with slot reuse off and fresh buffers per call) on the same probe:
    // same kernels, so the outputs are bit-identical and the ratio is what
    // allocation plus one buffer per value costs.
    let graph = net.lower()?;
    let batch = {
        let t = input.tensor();
        t.reshape(&[1, 3, SIZE, SIZE])?
    };
    let unshared = graph.forward(&batch)?; // also the warm-up
    let ratio_reps = reps * 2;
    let timed = |f: &mut dyn FnMut() -> Duration| -> Duration {
        (0..ratio_reps).map(|_| f()).min().expect("reps > 0")
    };
    let reuse_off = timed(&mut || {
        let start = Instant::now();
        let _ = graph.forward(&batch).expect("reuse-off forward");
        start.elapsed()
    });
    let mut ws = Workspace::new();
    let served = graph.forward_planned(&batch, &mut ws)?; // builds + warms the plan
    assert!(
        served.data().iter().zip(unshared.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
        "planned forward must be bit-identical to the reuse-off forward"
    );
    let planned = timed(&mut || {
        let start = Instant::now();
        let _ = graph.forward_planned(&batch, &mut ws).expect("planned forward");
        start.elapsed()
    });
    println!(
        "\n  planned executor ({} arena slots for {} values): {:.2?} vs slot reuse off {:.2?} — {:.2}x",
        ws.plans()[0].slot_count(),
        ws.plans()[0].num_values(),
        planned,
        reuse_off,
        reuse_off.as_secs_f64() / planned.as_secs_f64().max(1e-9),
    );
    Ok(())
}
