//! Whole-network deployment equivalence: the packed `DeployedNetwork`
//! must reproduce the training-path forward for **every** method in the
//! `Method` registry — and, on SwinIR / HAT, for every method a transformer
//! can be built with — across random inputs and seeds, and tiled serving
//! must reproduce full-image serving.
//!
//! Also the serving-parity suite: multi-image and tiled `Session::infer`
//! against per-image forwards, and the backends against each other.

mod common;

use common::trained_like;
use proptest::prelude::*;
use scales::core::{Method, ScalesComponents};
use scales::models::{hat, srresnet, swinir, Arch, SrConfig, SrNetwork, Workspace};
use scales::nn::init::rng;
use scales::serve::{Engine, Precision, SrRequest, TilePolicy, TileSpec};
use scales::tensor::Tensor;

/// Every registry row with a CNN body (bicubic has no network to lower).
fn cnn_method_registry() -> Vec<Method> {
    Method::cnn_registry()
}

fn probe_image(h: usize, w: usize, seed: u64) -> scales::data::Image {
    scales::data::synth::scene(
        h,
        w,
        scales::data::synth::SceneConfig::default(),
        &mut rng(seed),
    )
}

fn assert_images_close(a: &scales::data::Image, b: &scales::data::Image, tol: f32, label: &str) {
    assert_eq!((a.height(), a.width()), (b.height(), b.width()), "{label}");
    let mut worst = 0.0f32;
    for (x, y) in a.tensor().data().iter().zip(b.tensor().data().iter()) {
        worst = worst.max((x - y).abs());
    }
    assert!(worst < tol, "{label}: worst |err| = {worst}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline contract: lowered inference matches `super_resolve`
    /// within 1e-4 for every registry method, on random scenes and seeds.
    #[test]
    fn deployed_network_matches_training_path_for_every_method(
        seed in 0u64..10_000,
        size in 6usize..10,
    ) {
        let img = probe_image(size, size, seed);
        for method in cnn_method_registry() {
            let net = srresnet(SrConfig {
                channels: 8,
                blocks: 1,
                scale: 2,
                method,
                seed: seed ^ 0xA5A5,
            })
            .unwrap();
            let deployed = net.lower().unwrap();
            let reference = net.super_resolve(&img).unwrap();
            let fast = deployed.super_resolve(&img).unwrap();
            let label = format!("method {method}, seed {seed}, size {size}");
            prop_assert!(reference.height() == fast.height() && reference.width() == fast.width(),
                "{}: shape mismatch", label);
            let worst = reference
                .tensor()
                .data()
                .iter()
                .zip(fast.tensor().data().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(worst < 1e-4, "{}: worst |err| = {}", label, worst);
        }
        // The transformer rows of the same contract, at a window-aligned
        // shape (square, ragged or multi-window), every parameter nudged
        // off its init so the biases, β and the LayerNorm affines are live.
        let (h, w) = [(8, 8), (12, 8), (16, 16)][size % 3];
        let img = probe_image(h, w, seed);
        for method in Method::transformer_registry() {
            let cfg = SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: seed ^ 0xA5A5 };
            for (arch, net) in [("SwinIR", swinir(cfg).unwrap()), ("HAT", hat(cfg).unwrap())] {
                let net = trained_like(net);
                let deployed = net.lower().unwrap();
                prop_assert!(
                    (deployed.packed_layers() > 0) == (method != Method::FullPrecision),
                    "{}/{}: {} packed layers", arch, method, deployed.packed_layers()
                );
                let reference = net.super_resolve(&img).unwrap();
                let fast = deployed.super_resolve(&img).unwrap();
                let worst = reference
                    .tensor()
                    .data()
                    .iter()
                    .zip(fast.tensor().data().iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                prop_assert!(
                    worst < 1e-4,
                    "{}/{}, seed {}, {}x{}: worst |err| = {}", arch, method, seed, h, w, worst
                );
            }
        }
    }

    /// Tiled serving stitches to exactly the full-image output on
    /// local-only networks, for arbitrary (tile, overlap ≥ receptive
    /// radius) splits and non-divisible image sizes.
    #[test]
    fn tiled_serving_matches_full_image(
        seed in 0u64..10_000,
        h in 12usize..20,
        w in 12usize..20,
        tile in 8usize..13,
    ) {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            // Local-only components: exact stitching (see the scales::serve tile docs).
            method: Method::Scales(ScalesComponents::lsf_spatial()),
            seed: seed ^ 0x5A5A,
        })
        .unwrap();
        let deployed = net.lower().unwrap();
        let img = probe_image(h, w, seed);
        let full = deployed.super_resolve(&img).unwrap();
        // Receptive radius: head 1 + body 2 + body-end 1 + tail 1 + bicubic 2 = 7.
        let engine = Engine::builder()
            .model_ref(&deployed)
            .tile_policy(TilePolicy::Fixed(TileSpec::new(tile, 7).unwrap()))
            .build()
            .unwrap();
        let tiled = engine.session().super_resolve(&img).unwrap();
        let worst = full
            .tensor()
            .data()
            .iter()
            .zip(tiled.tensor().data().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(worst < 1e-5, "tile {} on {}x{}: worst |err| = {}", tile, h, w, worst);
    }
}

#[test]
fn batched_deployed_serving_matches_per_image() {
    let net = srresnet(SrConfig {
        channels: 8,
        blocks: 1,
        scale: 2,
        method: Method::scales(),
        seed: 404,
    })
    .unwrap();
    let deployed = net.lower().unwrap();
    let images: Vec<_> = (0..3).map(|i| probe_image(8, 8, 600 + i)).collect();
    let engine = Engine::builder().model_ref(&deployed).build().unwrap();
    let batched = engine.session().infer(SrRequest::batch(images.clone())).unwrap();
    for (img, sr) in images.iter().zip(batched.images()) {
        let single = deployed.super_resolve(img).unwrap();
        assert_images_close(sr, &single, 1e-5, "batched vs single");
    }
}

/// An image's deployed output must not depend on the images it is batched
/// with: forwarded alone it is bit-identical to the middle of a
/// three-image `[3, C, H, W]` batch, through both the planned executor and
/// the allocating forward. A session forwards one image at a time, so this
/// checks the deployed ops themselves — E2FIF's per-image BN, BTM's
/// per-image mean, the SCALES GAP — on the batch dimension they keep.
#[test]
fn a_deployed_image_does_not_depend_on_its_batch_neighbours() {
    // Stack 8x8 RGB images into one `[N, 3, 8, 8]` batch.
    let batch_of = |images: &[&scales::data::Image]| {
        let data = images.iter().flat_map(|img| img.tensor().data().iter().copied()).collect();
        Tensor::from_vec(data, &[images.len(), 3, 8, 8]).unwrap()
    };
    let image = probe_image(8, 8, 31);
    let alone = batch_of(&[&image]);
    let batch = batch_of(&[&probe_image(8, 8, 32), &image, &probe_image(8, 8, 33)]);
    for method in cnn_method_registry() {
        for arch in [Arch::SrResNet, Arch::Rdn, Arch::Rcan] {
            let cfg = SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: 35 };
            let deployed = trained_like(arch.build(cfg).unwrap()).lower().unwrap();
            let mut ws = Workspace::new();
            let want = deployed.forward(&alone).unwrap();
            let outputs = [
                ("planned alone", deployed.forward_planned(&alone, &mut ws).unwrap()),
                ("inside a batch of 3", deployed.forward(&batch).unwrap().slice_axis(0, 1, 1).unwrap()),
                (
                    "planned inside a batch of 3",
                    deployed.forward_planned(&batch, &mut ws).unwrap().slice_axis(0, 1, 1).unwrap(),
                ),
            ];
            for (path, got) in &outputs {
                assert_eq!(got.shape(), want.shape());
                assert_bits_identical(
                    want.data(),
                    got.data(),
                    &format!("{}/{method}: alone vs {path}", arch.name()),
                );
            }
        }
    }
}

/// At `Precision::Training` the tape's E2FIF batch norm takes batch
/// statistics, so an image forwarded with neighbours would be normalised
/// over them. A session forwards one image at a time: served alone or in
/// the middle of a three-image request, the image reads bit-identically.
#[test]
fn a_training_e2fif_image_does_not_depend_on_its_request_neighbours() {
    let cfg = SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::E2fif, seed: 29 };
    let net = trained_like(srresnet(cfg).unwrap());
    let engine = Engine::builder().model_ref(&net).precision(Precision::Training).build().unwrap();
    let session = engine.session();
    let image = probe_image(8, 8, 90);
    let alone = session.super_resolve(&image).unwrap();
    let request = vec![probe_image(8, 8, 91), image, probe_image(8, 8, 92)];
    let served = session.infer(SrRequest::batch(request)).unwrap();
    assert_images_identical(&alone, &served.images()[1], "E2FIF training: alone vs middle of 3");
}

fn assert_images_identical(a: &scales::data::Image, b: &scales::data::Image, label: &str) {
    assert_eq!((a.height(), a.width()), (b.height(), b.width()), "{label}");
    assert_bits_identical(a.tensor().data(), b.tensor().data(), label);
}

fn assert_bits_identical(da: &[f32], db: &[f32], label: &str) {
    for (i, (x, y)) in da.iter().zip(db.iter()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}: value {i} differs bitwise: {x} vs {y}"
        );
    }
}

/// The SIMD backend must serve bit-identically to the scalar backend for
/// every CNN method in the registry, at both precisions: the AVX2 float
/// GEMM keeps the scalar kernel's per-element summation order exactly and
/// the popcount binary GEMM is integer-exact, so `f32::to_bits` equality
/// is the contract, not a tolerance. (On hardware without AVX2 the simd
/// backend degrades toward the scalar loops, so the assertion still holds.)
#[test]
fn simd_backend_serving_is_bit_identical_to_scalar_for_every_method() {
    use scales::tensor::backend::Backend;
    let images: Vec<_> = (0..2).map(|i| probe_image(8, 8, 750 + i)).collect();
    for method in cnn_method_registry() {
        let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: 77 }).unwrap();
        for precision in [Precision::Training, Precision::Deployed] {
            let serve = |backend: Backend| {
                Engine::builder()
                    .model_ref(&net)
                    .precision(precision)
                    .backend(backend)
                    .build()
                    .unwrap()
                    .session()
                    .infer(SrRequest::batch(images.clone()))
                    .unwrap()
            };
            let scalar = serve(Backend::Scalar);
            let simd = serve(Backend::Simd);
            assert_eq!(simd.stats().backend, Backend::Simd);
            assert_eq!(simd.stats().simd, Backend::detected());
            for (a, b) in scalar.images().iter().zip(simd.images()) {
                assert_images_identical(a, b, &format!("{precision} simd vs scalar, {method}"));
            }
        }
    }
}

/// `TilePolicy::Auto` must reproduce the full-image output on local-only
/// networks: the oversized image tiles, the small one runs whole, and both
/// match an untiled engine.
#[test]
fn auto_tile_policy_matches_full_image_serving() {
    let net = srresnet(SrConfig {
        channels: 8,
        blocks: 1,
        scale: 2,
        // Local-only components: exact stitching (receptive radius 7).
        method: Method::Scales(ScalesComponents::lsf_spatial()),
        seed: 33,
    })
    .unwrap();
    let small = probe_image(8, 8, 900);
    let big = probe_image(18, 13, 901);

    let full_engine =
        Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
    let auto_engine = Engine::builder()
        .model_ref(&net)
        .precision(Precision::Deployed)
        .tile_policy(TilePolicy::Auto { max_side: 9, overlap: 7 })
        .build()
        .unwrap();

    let full = full_engine.session();
    let auto = auto_engine.session();
    let response = auto.infer(SrRequest::batch(vec![small.clone(), big.clone()])).unwrap();
    assert_eq!(response.stats().tiled, 1, "only the oversized image tiles");

    assert_images_identical(
        &response.images()[0],
        &full.super_resolve(&small).unwrap(),
        "under-threshold image",
    );
    let reference = full.super_resolve(&big).unwrap();
    let tiled = &response.images()[1];
    assert_eq!((tiled.height(), tiled.width()), (reference.height(), reference.width()));
    let worst = reference
        .tensor()
        .data()
        .iter()
        .zip(tiled.tensor().data().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-5, "auto-tiled vs full image: worst |err| = {worst}");
}

#[test]
fn deployed_matches_training_on_upscale_x4() {
    let img = probe_image(6, 6, 9);
    let net = srresnet(SrConfig {
        channels: 8,
        blocks: 1,
        scale: 4,
        method: Method::scales(),
        seed: 90,
    })
    .unwrap();
    let deployed = net.lower().unwrap();
    assert_images_close(
        &net.super_resolve(&img).unwrap(),
        &deployed.super_resolve(&img).unwrap(),
        1e-4,
        "x4",
    );
}
