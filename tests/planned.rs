//! Planned-executor equivalence: `DeployedNetwork::forward_planned` must
//! be **bit-identical** (`f32::to_bits`) to the allocating
//! `DeployedNetwork::forward` — across the whole CNN method registry and
//! every method a transformer can be built with, every architecture (CNN
//! and transformer), both backends, and mixed batch sizes — and a
//! `Session` must build one plan per input shape and reuse it. Every
//! network is [`trained_like`]: an untrained one answers exactly its
//! bicubic skip (the tail conv is zero-initialised), so a difference in
//! its body would never reach the output.

mod common;

use common::trained_like;
use proptest::prelude::*;
use scales::core::Method;
use scales::models::{edsr, hat, rcan, rdn, srresnet, swinir, SrConfig, SrNetwork, Workspace};
use scales::nn::init::rng;
use scales::serve::{Engine, Precision, SrRequest};
use scales::tensor::backend::{self, Backend};
use scales::tensor::Tensor;

/// Every registry row with a CNN body (bicubic has no network to lower).
fn cnn_method_registry() -> Vec<Method> {
    Method::cnn_registry()
}

/// Window-aligned transformer input shapes: square, ragged, multi-window.
const ALIGNED: [(usize, usize); 3] = [(8, 8), (12, 8), (16, 16)];

fn probe_batch(n: usize, h: usize, w: usize, seed: f32) -> Tensor {
    Tensor::from_vec(
        (0..n * 3 * h * w).map(|i| ((i as f32 + seed) * 0.13).sin() * 0.4 + 0.5).collect(),
        &[n, 3, h, w],
    )
    .unwrap()
}

fn assert_planned_is_bit_identical(net: &dyn SrNetwork, batch: &Tensor, label: &str) {
    let deployed = net.lower().unwrap();
    let want = deployed.forward(batch).unwrap();
    let mut ws = Workspace::new();
    // Two rounds so the second runs on warm (stale) workspace buffers.
    for round in 0..2 {
        let got = deployed.forward_planned(batch, &mut ws).unwrap();
        assert_eq!(got.shape(), want.shape(), "{label}");
        for (i, (a, b)) in want.data().iter().zip(got.data().iter()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{label}, round {round}: value {i} differs bitwise: {a} vs {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline contract of this PR: the zero-allocation planned
    /// executor reproduces the allocating forward bit-for-bit for every
    /// registry method, on both backends, across mixed batch sizes.
    #[test]
    fn planned_executor_is_bit_identical_for_every_method_backend_and_batch(
        seed in 0u64..10_000,
        size in 6usize..10,
    ) {
        for method in cnn_method_registry() {
            let net = trained_like(srresnet(SrConfig {
                channels: 8,
                blocks: 1,
                scale: 2,
                method,
                seed: seed ^ 0x3C3C,
            })
            .unwrap());
            for be in [Backend::Scalar, Backend::Simd] {
                backend::with_thread_backend(be, || {
                    for n in [1usize, 2, 3] {
                        let batch = probe_batch(n, size, size, seed as f32);
                        assert_planned_is_bit_identical(
                            &net,
                            &batch,
                            &format!("{method}, {} backend, batch {n}", be.name()),
                        );
                    }
                });
            }
        }
        // The transformer rows of the same matrix, at a window-aligned shape.
        let (h, w) = ALIGNED[size % ALIGNED.len()];
        for method in Method::transformer_registry() {
            let cfg = SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: seed ^ 0x3C3C };
            for (name, net) in [("SwinIR", swinir(cfg).unwrap()), ("HAT", hat(cfg).unwrap())] {
                let net = trained_like(net);
                for be in [Backend::Scalar, Backend::Simd] {
                    backend::with_thread_backend(be, || {
                        for n in [1usize, 2, 3] {
                            let batch = probe_batch(n, h, w, seed as f32);
                            assert_planned_is_bit_identical(
                                &net,
                                &batch,
                                &format!("{name}/{method}, {h}x{w}, {} backend, batch {n}", be.name()),
                            );
                        }
                    });
                }
            }
        }
    }
}

/// Acceptance sweep: every architecture × every method it can be built with.
#[test]
fn planned_executor_is_bit_identical_on_every_arch_and_method() {
    let batch = probe_batch(1, 6, 6, 40.0);
    for method in cnn_method_registry() {
        let cfg = SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: 41 };
        let check = |name: &str, net: &dyn SrNetwork| {
            assert_planned_is_bit_identical(net, &batch, &format!("{name}/{method}"));
        };
        check("SRResNet", &trained_like(srresnet(cfg).unwrap()));
        check("EDSR", &trained_like(edsr(cfg).unwrap()));
        check("RDN", &trained_like(rdn(cfg).unwrap()));
        check("RCAN", &trained_like(rcan(cfg).unwrap()));
    }
    for method in Method::transformer_registry() {
        let cfg = SrConfig { channels: 8, blocks: 2, scale: 2, method, seed: 45 };
        let swin = trained_like(swinir(cfg).unwrap());
        let hybrid = trained_like(hat(cfg).unwrap());
        for (h, w) in ALIGNED {
            let batch = probe_batch(1, h, w, 46.0);
            assert_planned_is_bit_identical(&swin, &batch, &format!("SwinIR/{method} {h}x{w}"));
            assert_planned_is_bit_identical(&hybrid, &batch, &format!("HAT/{method} {h}x{w}"));
        }
    }
}

/// Two different input sizes through one `Session`: one plan per shape,
/// reused on every later request, with the response stats saying so.
#[test]
fn session_reuses_plans_across_mixed_input_sizes() {
    let net = trained_like(srresnet(SrConfig {
        channels: 8,
        blocks: 1,
        scale: 2,
        method: Method::scales(),
        seed: 42,
    })
    .unwrap());
    let engine = Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
    let session = engine.session();
    let small = scales::data::synth::scene(8, 8, scales::data::synth::SceneConfig::default(), &mut rng(43));
    let wide = scales::data::synth::scene(6, 10, scales::data::synth::SceneConfig::default(), &mut rng(44));

    let first = session.infer(SrRequest::batch(vec![small.clone(), wide.clone()])).unwrap();
    assert_eq!(first.stats().plans_built, 2, "one plan per shape");
    assert_eq!(first.stats().plan_reuses, 0);

    let second = session.infer(SrRequest::batch(vec![wide.clone(), small.clone()])).unwrap();
    assert_eq!(second.stats().plans_built, 0, "no new shapes, no new plans");
    assert_eq!(second.stats().plan_reuses, 2);

    // And the served outputs still match the allocating deployed path.
    let deployed = net.lower().unwrap();
    for (img, sr) in [&small, &wide].into_iter().zip(second.images().iter().rev()) {
        let want = deployed.super_resolve(img).unwrap();
        assert_eq!(want.tensor().data(), sr.tensor().data(), "served == allocating");
    }
}
