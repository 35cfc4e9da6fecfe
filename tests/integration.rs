//! Cross-crate integration tests: data pipeline → models → training →
//! metrics, plus the deployment path against the training path.

use scales::autograd::Var;
use scales::binary::BinaryConv2d;
use scales::core::{Method, ScalesComponents};
use scales::data::Benchmark;
use scales::models::{edsr, srresnet, swinir, Arch, SrConfig, SrNetwork};
use scales::nn::Module;
use scales::tensor::backend::{with_thread_backend, Backend};
use scales::tensor::Tensor;
use scales::train::{evaluate, evaluate_bicubic, train, TrainConfig};

fn quick_train_config(iters: usize) -> TrainConfig {
    TrainConfig { iters, batch: 2, lr_patch: 8, lr: 2e-3, halve_every: 1_000, seed: 3 }
}

#[test]
fn training_reduces_loss_and_stays_near_bicubic_start() {
    // The untrained model *is* the bicubic baseline (zero-init tail), so at
    // a quick-test budget we assert direction (loss falls) and sanity (eval
    // stays within a band of the strong start) — the beats-bicubic claim is
    // checked at full budget in `trained_model_beats_bicubic` below.
    let set = Benchmark::SynSet5.build(2, 32).unwrap();
    let config = SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 5 };
    let untrained = srresnet(config).unwrap();
    let before = evaluate(&untrained, &set).unwrap();
    let bicubic = evaluate_bicubic(&set).unwrap();
    assert!(
        (before.psnr - bicubic.psnr).abs() < 1e-6,
        "untrained model must equal the bicubic baseline: {:.2} vs {:.2}",
        before.psnr,
        bicubic.psnr
    );
    let net = srresnet(config).unwrap();
    let stats = train(&net, quick_train_config(60)).unwrap();
    assert!(stats.improved(), "training loss must fall: {stats:?}");
    let after = evaluate(&net, &set).unwrap();
    assert!(
        after.psnr > bicubic.psnr - 3.0,
        "quick training must not destroy the model: {:.2} vs bicubic {:.2}",
        after.psnr,
        bicubic.psnr
    );
}

/// Full-budget check of the paper's central claim at reproduction scale:
/// a trained binary SCALES network beats bicubic interpolation. Takes a
/// few minutes; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full training budget (minutes); run explicitly with --ignored"]
fn trained_model_beats_bicubic() {
    let set = Benchmark::SynB100.build(2, 32).unwrap();
    let net = srresnet(SrConfig { channels: 16, blocks: 2, scale: 2, method: Method::scales(), seed: 5 }).unwrap();
    train(
        &net,
        TrainConfig { iters: 800, batch: 8, lr_patch: 12, lr: 1e-3, halve_every: 300, seed: 3 },
    )
    .unwrap();
    let ours = evaluate(&net, &set).unwrap();
    let bicubic = evaluate_bicubic(&set).unwrap();
    assert!(
        ours.psnr > bicubic.psnr,
        "trained SCALES must beat bicubic: {:.2} vs {:.2}",
        ours.psnr,
        bicubic.psnr
    );
    assert!(ours.ssim > bicubic.ssim);
}

#[test]
fn deployment_binary_conv_matches_training_path_on_signs() {
    // The autograd binary path (sign act ⊛ binarized weight) and the packed
    // XNOR kernel must agree exactly when the activation scale is 1.
    let mut rng = scales::nn::init::rng(7);
    let weight = scales::nn::init::kaiming_normal(&[6, 4, 3, 3], 36, &mut rng);
    let input = scales::nn::init::kaiming_normal(&[1, 4, 8, 8], 1, &mut rng);

    // Training path.
    let xb = Var::new(input.clone()).sign_ste();
    let wb = Var::param(weight.clone()).binarize_weight_per_channel().unwrap();
    let reference = xb
        .conv2d(&wb, scales::tensor::ops::Conv2dSpec::same(3))
        .unwrap()
        .value();

    // Deployment path (packed, same per-channel scales by construction).
    let packed = BinaryConv2d::from_float_weight(&weight).unwrap();
    let fast = packed.forward(&input).unwrap();
    assert_eq!(fast.shape(), reference.shape());
    for (a, b) in fast.data().iter().zip(reference.data().iter()) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}

#[test]
fn deployment_binary_linear_matches_training_path() {
    let mut rng = scales::nn::init::rng(8);
    let weight = scales::nn::init::xavier_uniform(&[5, 12], 12, 5, &mut rng);
    let input = scales::nn::init::kaiming_normal(&[3, 12], 1, &mut rng);
    let xb = Var::new(input.clone()).sign_ste();
    let wb = Var::param(weight.clone()).binarize_weight_per_channel().unwrap();
    let reference = xb.matmul(&wb.permute(&[1, 0]).unwrap()).unwrap().value();
    // Deployment path: every linear ships as a `k = 1` packed conv over a
    // `[n, in, 1, 1]` plane (same per-row scales by construction).
    let packed = BinaryConv2d::from_float_weight(&weight.reshape(&[5, 12, 1, 1]).unwrap()).unwrap();
    let fast = packed.forward(&input.reshape(&[3, 12, 1, 1]).unwrap()).unwrap();
    assert_eq!(fast.shape(), &[3, 5, 1, 1]);
    for (a, b) in fast.data().iter().zip(reference.data().iter()) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

#[test]
fn all_cnn_methods_train_one_step_without_nan() {
    for method in [Method::FullPrecision, Method::Bam, Method::Btm, Method::E2fif, Method::scales()] {
        let net = edsr(SrConfig { channels: 6, blocks: 1, scale: 2, method, seed: 9 }).unwrap();
        let stats = train(&net, quick_train_config(5)).unwrap();
        assert!(stats.history.iter().all(|l| l.is_finite()), "{method} produced NaN loss");
    }
}

#[test]
fn transformer_methods_train_one_step_without_nan() {
    for method in [Method::FullPrecision, Method::Bibert, Method::scales()] {
        let net = swinir(SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: 9 }).unwrap();
        let stats = train(&net, quick_train_config(4)).unwrap();
        assert!(stats.history.iter().all(|l| l.is_finite()), "{method} produced NaN loss");
    }
}

/// Training is the one place batched convolutions and the tape's batched
/// attention matmuls run: two iterations at batch 4 must leave the same
/// parameters, bit for bit, on both backends (and the same loss history).
#[test]
fn training_is_bit_identical_across_backends() {
    let config = SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 9 };
    for arch in [Arch::SrResNet, Arch::SwinIr] {
        let run = |be| {
            with_thread_backend(be, || {
                let net = arch.build(config).unwrap();
                let stats = train(net.as_ref(), TrainConfig { batch: 4, ..quick_train_config(2) }).unwrap();
                let params: Vec<Vec<u32>> = net
                    .params()
                    .iter()
                    .map(|p| p.with_value(|t| t.data().iter().map(|v| v.to_bits()).collect()))
                    .collect();
                (params, stats.history.iter().map(|l| l.to_bits()).collect::<Vec<_>>())
            })
        };
        let (scalar, simd) = (run(Backend::Scalar), run(Backend::Simd));
        assert_eq!(scalar.1, simd.1, "{arch}: loss history");
        assert!(scalar.0 == simd.0, "{arch}: trained parameters differ between backends");
    }
}

#[test]
fn ablation_components_order_cost_correctly() {
    // Table V structure: OPs(LSF) < OPs(LSF+chl) < OPs(LSF+spatial+chl).
    let mk = |c: ScalesComponents| {
        let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 4, method: Method::Scales(c), seed: 2 }).unwrap();
        net.cost(128, 128).effective_ops()
    };
    let lsf = mk(ScalesComponents::lsf_only());
    let chl = mk(ScalesComponents::lsf_channel());
    let spa = mk(ScalesComponents::lsf_spatial());
    let full = mk(ScalesComponents::full());
    assert!(lsf < chl && chl < full, "{lsf} {chl} {full}");
    assert!(lsf < spa && spa < full, "{lsf} {spa} {full}");
}

#[test]
fn scales_alpha_moves_during_training() {
    // The layer-wise scaling factor must actually learn (not stay at init).
    let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 5 }).unwrap();
    let alphas_before: Vec<f32> = net
        .params()
        .iter()
        .filter(|p| p.shape() == vec![1])
        .map(|p| p.value().data()[0])
        .collect();
    train(&net, quick_train_config(30)).unwrap();
    let alphas_after: Vec<f32> = net
        .params()
        .iter()
        .filter(|p| p.shape() == vec![1])
        .map(|p| p.value().data()[0])
        .collect();
    assert!(
        alphas_before.iter().zip(&alphas_after).any(|(a, b)| (a - b).abs() > 1e-4),
        "no layer scale moved: {alphas_before:?} -> {alphas_after:?}"
    );
    assert!(alphas_after.iter().all(|&a| a > 0.0), "alphas must stay positive");
}

#[test]
fn eval_protocol_consistency_psnr_vs_identity() {
    let set = Benchmark::SynSet14.build(2, 32).unwrap();
    // An oracle that returns the ground truth scores infinite PSNR, SSIM 1.
    for pair in set.pairs() {
        let p = scales::metrics::psnr_y(&pair.hr, &pair.hr, 2).unwrap();
        let s = scales::metrics::ssim_y(&pair.hr, &pair.hr, 2).unwrap();
        assert_eq!(p, f64::INFINITY);
        assert!((s - 1.0).abs() < 1e-9);
    }
}

#[test]
fn x4_pipeline_shapes_end_to_end() {
    let set = Benchmark::SynB100.build(4, 32).unwrap();
    let net = srresnet(SrConfig { channels: 6, blocks: 1, scale: 4, method: Method::E2fif, seed: 5 }).unwrap();
    let sr = net.super_resolve(&set.pairs()[0].lr).unwrap();
    assert_eq!((sr.height(), sr.width()), (32, 32));
    let tensor = Tensor::zeros(&[1, 3, 8, 8]);
    let y = net.forward(&Var::new(tensor)).unwrap();
    assert_eq!(y.shape(), vec![1, 3, 32, 32]);
}
