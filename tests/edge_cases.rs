//! Edge-case and failure-injection tests across the workspace: degenerate
//! geometries, saturated binarizers, NaN containment, and protocol
//! boundaries.

use scales::autograd::Var;
use scales::core::{DeployedScalesConv2d, Method, ScalesConv2d, ScalesComponents};
use scales::data::{Benchmark, Image, TrainSet};
use scales::metrics::{psnr_y, ssim_y};
use scales::models::{srresnet, swinir, SrConfig, SrNetwork};
use scales::nn::init::rng;
use scales::nn::Module;
use scales::tensor::Tensor;

#[test]
fn one_pixel_lr_input_superresolves() {
    // Degenerate geometry: 1×1 LR input through a full model.
    let net = srresnet(SrConfig { channels: 4, blocks: 1, scale: 2, method: Method::scales(), seed: 1 }).unwrap();
    let lr = Image::from_tensor(Tensor::full(&[3, 1, 1], 0.5)).unwrap();
    let sr = net.super_resolve(&lr).unwrap();
    assert_eq!((sr.height(), sr.width()), (2, 2));
    assert!(sr.tensor().data().iter().all(|v| v.is_finite()));
}

#[test]
fn window_misaligned_request_is_a_typed_error_and_the_session_keeps_serving() {
    // Geometry a deployed transformer cannot serve is refused by the plan's
    // shape inference, naming the extents and the window — not a panic deep
    // inside a kernel — and leaves the session able to serve the next one.
    use scales::serve::{Engine, Precision, SrRequest};
    let net = swinir(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 3 }).unwrap();
    let engine = Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
    let session = engine.session();
    let err = session.infer(SrRequest::single(Image::zeros(18, 18))).map(|_| ()).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("18x18") && text.contains("window 4"), "{text}");
    let served = session.infer(SrRequest::single(Image::zeros(16, 16))).unwrap();
    assert_eq!(served.stats().plans_built, 1, "the refused shape left no plan behind");
    assert_eq!((served.images()[0].height(), served.images()[0].width()), (32, 32));
    // A mixed request with one bad image fails as a whole, still typed.
    let mixed = SrRequest::batch(vec![Image::zeros(16, 16), Image::zeros(16, 18)]);
    assert!(session.infer(mixed).is_err());
    assert!(session.super_resolve(&Image::zeros(16, 16)).is_ok());
}

#[test]
fn all_positive_activation_saturates_plain_sign_but_not_lsf() {
    // The failure mode motivating the β threshold: a ReLU-like all-positive
    // activation collapses under sign() to a constant map.
    let x = Var::new(Tensor::from_vec(vec![0.2, 0.5, 0.9, 1.4], &[1, 1, 2, 2]).unwrap());
    let plain = x.sign_ste().value();
    assert!(plain.data().iter().all(|&v| v == 1.0), "plain sign saturates");
    let lsf = scales::core::LsfBinarizer::new(1);
    lsf.beta().set_value(Tensor::from_vec(vec![0.7], &[1, 1, 1, 1]).unwrap());
    let adaptive = lsf.forward(&x).unwrap().value();
    let positives = adaptive.data().iter().filter(|&&v| v > 0.0).count();
    assert!(positives > 0 && positives < 4, "threshold preserves structure");
}

#[test]
fn constant_image_yields_finite_metrics() {
    let a = Image::from_tensor(Tensor::full(&[3, 16, 16], 0.4)).unwrap();
    let b = Image::from_tensor(Tensor::full(&[3, 16, 16], 0.6)).unwrap();
    let p = psnr_y(&a, &b, 2).unwrap();
    assert!(p.is_finite() && p > 0.0);
    // SSIM of two constant (zero-variance) images is driven by the
    // luminance term only and stays in (0, 1].
    let s = ssim_y(&a, &b, 2).unwrap();
    assert!(s > 0.0 && s <= 1.0, "ssim {s}");
}

#[test]
fn nan_input_does_not_poison_weights() {
    // A NaN in a forward input must not corrupt parameters unless backward
    // is run — forward is pure.
    let mut r = rng(4);
    let layer = ScalesConv2d::new(2, 2, 3, &mut r);
    let before: Vec<f32> = layer.weight().value().data().to_vec();
    let mut bad = Tensor::ones(&[1, 2, 4, 4]);
    bad.data_mut()[3] = f32::NAN;
    let _ = layer.forward(&Var::new(bad));
    assert_eq!(layer.weight().value().data(), &before[..]);
}

#[test]
fn deployed_layer_handles_extreme_alpha() {
    // α clamped near zero must not produce NaNs in the deployed kernel.
    let mut r = rng(5);
    let layer = ScalesConv2d::with_components(4, 4, 3, ScalesComponents::lsf_only(), true, &mut r);
    layer.lsf().unwrap().alpha().set_value(Tensor::from_vec(vec![1e-9], &[1]).unwrap());
    let deployed = DeployedScalesConv2d::from_trained(&layer).unwrap();
    let y = deployed.forward(&Tensor::ones(&[1, 4, 4, 4])).unwrap();
    assert!(y.data().iter().all(|v| v.is_finite()));
}

#[test]
fn benchmark_sets_have_disjoint_content() {
    // Train/eval hygiene: the four benchmark sets must not share images
    // with each other (different seeds and configurations).
    let s5 = Benchmark::SynSet5.build(2, 32).unwrap();
    let s14 = Benchmark::SynSet14.build(2, 32).unwrap();
    for a in s5.pairs() {
        for b in s14.pairs() {
            assert_ne!(a.hr, b.hr);
        }
    }
}

#[test]
fn train_stream_does_not_replay_eval_images() {
    // The DIV2K stand-in must not leak evaluation images.
    let eval = Benchmark::SynUrban100.build(2, 32).unwrap();
    let mut train = TrainSet::new(0xD172, 32);
    for _ in 0..16 {
        let scene = train.next_scene();
        for p in eval.pairs() {
            assert_ne!(scene, p.hr);
        }
    }
}

#[test]
fn zero_iteration_training_is_identity() {
    let net = srresnet(SrConfig { channels: 4, blocks: 1, scale: 2, method: Method::E2fif, seed: 1 }).unwrap();
    let before: Vec<Vec<f32>> = net.params().iter().map(|p| p.value().data().to_vec()).collect();
    let stats = scales::train::train(
        &net,
        scales::train::TrainConfig { iters: 0, batch: 1, lr_patch: 8, lr: 1e-3, halve_every: 1, seed: 1 },
    )
    .unwrap();
    assert!(stats.history.is_empty());
    for (p, b) in net.params().iter().zip(before.iter()) {
        assert_eq!(p.value().data(), &b[..]);
    }
}

#[test]
fn images_saturate_gracefully_outside_unit_range() {
    // SR outputs can overshoot [0, 1]; clamping plus metrics must behave.
    let wild = Image::from_tensor(
        Tensor::from_vec(
            (0..3 * 16 * 16).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
            &[3, 16, 16],
        )
        .unwrap(),
    )
    .unwrap();
    let clamped = wild.clamped();
    assert!(clamped.tensor().min() >= 0.0 && clamped.tensor().max() <= 1.0);
    let hr = Image::zeros(16, 16);
    assert!(psnr_y(&wild, &hr, 2).unwrap().is_finite());
}

#[test]
fn method_display_round_trips_table_rows() {
    // Report labels used across benches must stay stable (they key the
    // Table V shape assertions).
    assert_eq!(Method::scales().to_string(), "SCALES");
    assert_eq!(Method::E2fif.to_string(), "E2FIF");
    assert_eq!(Method::Scales(ScalesComponents::lsf_channel()).to_string(), "LSF+chl");
}
