//! Persistence round-trip guarantees for the `scales-io` artifact format,
//! enforced end-to-end through `Session::infer`:
//!
//! * **bit-identity** — for every CNN method in the registry and every
//!   architecture (CNN and transformer), a reloaded checkpoint and a
//!   reloaded deployed artifact serve outputs with identical
//!   `f32::to_bits` to the in-memory model, at both serving precisions;
//! * **compatibility** — a checked-in format-version-1 artifact keeps
//!   loading and serving bit-identically;
//! * **negative paths** — truncated files, wrong magic, future format
//!   versions, arch/method mismatches and every malformed field of the
//!   version-2 ops all surface as typed `scales::io::Error` variants; a
//!   partial read is never accepted.

mod common;

use common::trained_like;
use scales::core::Method;
use scales::io::{
    artifact_from_bytes, artifact_to_bytes, checkpoint_from_bytes, load_artifact, load_checkpoint,
    read_kind, save_artifact, save_checkpoint, ArtifactKind, Error, FORMAT_VERSION,
};
use scales::models::{Arch, DeployedNetworkBuilder, DeployedOp, SrConfig, SrNetwork};
use scales::nn::init::rng;
use scales::serve::{Engine, Precision, Session, SrRequest};
use std::path::PathBuf;

/// Every registry row with a CNN body (bicubic has no network to save).
fn cnn_method_registry() -> Vec<Method> {
    Method::cnn_registry()
}

/// A fresh scratch directory per test (no tempfile crate in this
/// offline build).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scales-io-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn probe_image(h: usize, w: usize, seed: u64) -> scales::data::Image {
    scales::data::synth::scene(h, w, scales::data::synth::SceneConfig::default(), &mut rng(seed))
}

/// A small network, [`trained_like`], so a "round-trip" that silently
/// rebuilt from the seed instead of restoring the stored tensors would be
/// caught.
fn trained_net(arch: Arch, method: Method, seed: u64) -> Box<dyn SrNetwork> {
    trained_like(
        arch.build(SrConfig { channels: 8, blocks: 1, scale: 2, method, seed })
            .expect("build network"),
    )
}

/// Serve one request of three images (seeds `seed..`) and return the outputs.
fn serve_sizes(session: &Session<'_, '_>, sizes: [(usize, usize); 3], seed: u64) -> Vec<scales::data::Image> {
    let images = sizes.iter().zip(seed..).map(|(&(h, w), seed)| probe_image(h, w, seed)).collect();
    session.infer(SrRequest::batch(images)).expect("serve").into_images()
}

/// Serve a mixed-size request (two shapes) and return the images.
fn serve_mixed(session: &Session<'_, '_>) -> Vec<scales::data::Image> {
    serve_sizes(session, [(8, 8), (6, 10), (8, 8)], 301)
}

/// [`serve_mixed`] at window-aligned sizes (transformer inputs must divide
/// the attention window), still two shapes.
fn serve_aligned(session: &Session<'_, '_>) -> Vec<scales::data::Image> {
    serve_sizes(session, [(8, 8), (4, 8), (8, 8)], 304)
}

fn assert_bit_identical(
    a: &[scales::data::Image],
    b: &[scales::data::Image],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!((x.height(), x.width()), (y.height(), y.width()), "{label} image {i}");
        for (p, q) in x.tensor().data().iter().zip(y.tensor().data().iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "{label} image {i}");
        }
    }
}

#[test]
fn checkpoint_round_trip_serves_bit_identically_for_every_cnn_method() {
    let dir = scratch("ckpt-methods");
    for (i, method) in cnn_method_registry().into_iter().enumerate() {
        let net = trained_net(Arch::SrResNet, method, 400 + i as u64);
        let path = dir.join(format!("m{i}.sca"));
        save_checkpoint(&path, net.as_ref()).expect("save");
        assert_eq!(read_kind(&path).unwrap(), ArtifactKind::Checkpoint);
        let loaded = load_checkpoint(&path).expect("load");
        assert_eq!(loaded.config(), net.config(), "{method}");
        for precision in [Precision::Training, Precision::Deployed] {
            let mem =
                Engine::builder().model_ref(net.as_ref()).precision(precision).build().unwrap();
            let disk =
                Engine::builder().model_ref(loaded.as_ref()).precision(precision).build().unwrap();
            assert_eq!(mem.precision(), disk.precision(), "{method}/{precision}");
            let a = serve_mixed(&mem.session());
            let b = serve_mixed(&disk.session());
            assert_bit_identical(&a, &b, &format!("checkpoint {method} at {precision}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_round_trip_serves_bit_identically_for_every_cnn_method() {
    let dir = scratch("artifact-methods");
    for (i, method) in cnn_method_registry().into_iter().enumerate() {
        let net = trained_net(Arch::SrResNet, method, 500 + i as u64);
        let lowered = net.lower().expect("lower");
        let path = dir.join(format!("m{i}.sca"));
        save_artifact(&path, &lowered).expect("save");
        assert_eq!(read_kind(&path).unwrap(), ArtifactKind::Deployed);
        let loaded = load_artifact(&path).expect("load");
        assert_eq!(loaded.packed_layers(), lowered.packed_layers(), "{method}");
        let mem = Engine::builder().model(lowered).build().unwrap();
        let disk = Engine::builder().model(loaded).build().unwrap();
        assert_eq!(disk.precision(), Precision::Deployed);
        let a = serve_mixed(&mem.session());
        let b = serve_mixed(&disk.session());
        assert_bit_identical(&a, &b, &format!("artifact {method}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_lowerable_arch_round_trips_both_forms() {
    let dir = scratch("archs");
    for (i, arch) in Arch::ALL.into_iter().enumerate() {
        for method in [Method::FullPrecision, Method::scales()] {
            let net = trained_net(arch, method, 600 + i as u64);
            let ckpt = dir.join(format!("{arch}-{i}.ckpt.sca"));
            let dep = dir.join(format!("{arch}-{i}.dep.sca"));
            save_checkpoint(&ckpt, net.as_ref()).unwrap();
            save_artifact(&dep, &net.lower().unwrap()).unwrap();
            let reference = Engine::builder()
                .model_ref(net.as_ref())
                .precision(Precision::Deployed)
                .build()
                .unwrap();
            let label = format!("{arch}/{method}");
            let a = serve_aligned(&reference.session());
            // load_checkpoint(save_checkpoint(net)) serves bit-identically.
            let from_ckpt = Engine::builder()
                .model(load_checkpoint(&ckpt).unwrap())
                .precision(Precision::Deployed)
                .build()
                .unwrap();
            assert_eq!(from_ckpt.precision(), Precision::Deployed, "{label}");
            assert_bit_identical(&a, &serve_aligned(&from_ckpt.session()), &label);
            // load_artifact(save_artifact(lower(net))) serves bit-identically.
            let from_dep = Engine::builder().model(load_artifact(&dep).unwrap()).build().unwrap();
            assert_bit_identical(&a, &serve_aligned(&from_dep.session()), &label);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transformer_checkpoints_round_trip_and_serve_deployed_like_the_source() {
    let dir = scratch("transformer");
    for (i, arch) in [Arch::SwinIr, Arch::Hat].into_iter().enumerate() {
        let net = trained_net(arch, Method::Bibert, 700 + i as u64);
        let path = dir.join(format!("{arch}.sca"));
        save_checkpoint(&path, net.as_ref()).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.arch(), arch);
        // At both precisions the reloaded model serves like the source,
        // and a deployed request is served deployed — on packed layers —
        // where it used to degrade to the training path with a report.
        for precision in [Precision::Training, Precision::Deployed] {
            let mem =
                Engine::builder().model_ref(net.as_ref()).precision(precision).build().unwrap();
            let disk =
                Engine::builder().model_ref(loaded.as_ref()).precision(precision).build().unwrap();
            assert_eq!(disk.precision(), precision, "{arch}");
            let a = serve_aligned(&mem.session());
            assert_bit_identical(&a, &serve_aligned(&disk.session()), arch.name());
            if precision == Precision::Deployed {
                let graph = disk.lowered().expect("a deployed build lowers the checkpoint");
                assert!(graph.packed_layers() > 0, "{arch}");
                // And the same graph through an artifact file.
                let dep = dir.join(format!("{arch}.dep.sca"));
                save_artifact(&dep, graph).unwrap();
                let from_dep = Engine::builder().model_path(&dep).build().unwrap();
                assert_eq!(from_dep.precision(), Precision::Deployed);
                assert_bit_identical(&a, &serve_aligned(&from_dep.session()), arch.name());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixture pair under `tests/fixtures/` was written by the last
/// format-version-1 writer (the commit before version 2): a perturbed
/// SRResNet-SCALES ×2 (8 channels, 1 block), as a checkpoint and as the
/// deployed artifact lowered from it. Version 2 only adds to the format, so
/// both must keep loading, and the old artifact must serve exactly what a
/// fresh lowering of the same weights serves.
#[test]
fn version_1_artifacts_still_load_and_serve_bit_identically() {
    let ckpt = include_bytes!("fixtures/srresnet_scales_v1.ckpt.sca");
    let dep = include_bytes!("fixtures/srresnet_scales_v1.dep.sca");
    for bytes in [&ckpt[..], &dep[..]] {
        assert_eq!(bytes[8..10], 1u16.to_le_bytes(), "the fixtures are version 1 files");
    }
    let net = checkpoint_from_bytes(ckpt).expect("v1 checkpoint loads");
    let old = artifact_from_bytes(dep).expect("v1 artifact loads");
    let fresh = net.lower().unwrap();
    assert_eq!(old.packed_layers(), fresh.packed_layers());
    assert_eq!(old.num_ops(), fresh.num_ops());
    let a = serve_mixed(&Engine::builder().model(fresh).build().unwrap().session());
    let b = serve_mixed(&Engine::builder().model(old).build().unwrap().session());
    assert_bit_identical(&a, &b, "v1 artifact vs fresh lowering");
}

#[test]
fn model_path_sniffs_and_serves_either_kind() {
    let dir = scratch("model-path");
    let net = trained_net(Arch::SrResNet, Method::scales(), 800);
    let ckpt = dir.join("model.ckpt.sca");
    let dep = dir.join("model.dep.sca");
    save_checkpoint(&ckpt, net.as_ref()).unwrap();
    save_artifact(&dep, &net.lower().unwrap()).unwrap();
    let reference =
        Engine::builder().model_ref(net.as_ref()).precision(Precision::Deployed).build().unwrap();
    let a = serve_mixed(&reference.session());
    // Checkpoint path: usable at either precision.
    let from_ckpt = Engine::builder().model_path(&ckpt).build().unwrap();
    assert_eq!(from_ckpt.scale(), 2);
    assert_eq!(from_ckpt.precision(), Precision::Deployed);
    assert_bit_identical(&a, &serve_mixed(&from_ckpt.session()), "model_path checkpoint");
    let training = Engine::builder().model_path(&ckpt).precision(Precision::Training).build().unwrap();
    assert_eq!(training.precision(), Precision::Training);
    // Deployed-artifact path: already packed.
    let from_dep = Engine::builder().model_path(&dep).build().unwrap();
    assert_eq!(from_dep.precision(), Precision::Deployed);
    assert_bit_identical(&a, &serve_mixed(&from_dep.session()), "model_path artifact");
    // A packed graph has no training path — same error as the in-memory case.
    assert!(Engine::builder().model_path(&dep).precision(Precision::Training).build().is_err());
    // Exactly one model source must be set.
    assert!(Engine::builder()
        .model_ref(net.as_ref())
        .model_path(&ckpt)
        .build()
        .is_err());
    // Missing files surface as build errors, not panics.
    assert!(Engine::builder().model_path(dir.join("absent.sca")).build().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Negative paths: every malformed file maps to a typed scales::io::Error.
// ---------------------------------------------------------------------

fn checkpoint_bytes() -> Vec<u8> {
    let net = trained_net(Arch::SrResNet, Method::scales(), 900);
    scales::io::checkpoint_to_bytes(net.as_ref())
}

#[test]
fn truncated_files_are_typed_errors_for_both_kinds() {
    let dir = scratch("truncated");
    let net = trained_net(Arch::SrResNet, Method::scales(), 901);
    let bytes = scales::io::checkpoint_to_bytes(net.as_ref());
    let dep_bytes = scales::io::artifact_to_bytes(&net.lower().unwrap());
    for (label, bytes, path) in
        [("checkpoint", &bytes, dir.join("c.sca")), ("artifact", &dep_bytes, dir.join("a.sca"))]
    {
        for cut in [bytes.len() - 1, bytes.len() / 2, 13] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = match label {
                "checkpoint" => load_checkpoint(&path).map(|_| ()).unwrap_err(),
                _ => load_artifact(&path).map(|_| ()).unwrap_err(),
            };
            assert!(matches!(err, Error::Truncated { .. }), "{label} cut at {cut}: {err}");
        }
        // Cutting inside the header is BadMagic (it cannot even be
        // identified as a SCALES file).
        std::fs::write(&path, &bytes[..4]).unwrap();
        assert!(matches!(read_kind(&path), Err(Error::BadMagic { .. })), "{label}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let dir = scratch("magic");
    let mut bytes = checkpoint_bytes();
    bytes[..4].copy_from_slice(b"PNG\x00");
    let path = dir.join("x.sca");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(read_kind(&path), Err(Error::BadMagic { .. })));
    assert!(matches!(load_checkpoint(&path).map(|_| ()), Err(Error::BadMagic { .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_is_a_typed_error() {
    let dir = scratch("version");
    let mut bytes = checkpoint_bytes();
    bytes[8..10].copy_from_slice(&(FORMAT_VERSION + 3).to_le_bytes());
    let path = dir.join("x.sca");
    std::fs::write(&path, &bytes).unwrap();
    let err = load_checkpoint(&path).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, Error::UnsupportedVersion { found, supported }
            if found == FORMAT_VERSION + 3 && supported == FORMAT_VERSION),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kind_mismatch_is_a_typed_error() {
    let dir = scratch("kind");
    let net = trained_net(Arch::SrResNet, Method::scales(), 902);
    let ckpt = dir.join("c.sca");
    let dep = dir.join("a.sca");
    save_checkpoint(&ckpt, net.as_ref()).unwrap();
    save_artifact(&dep, &net.lower().unwrap()).unwrap();
    assert!(matches!(
        load_checkpoint(&dep).map(|_| ()),
        Err(Error::WrongKind { expected: ArtifactKind::Checkpoint, found: ArtifactKind::Deployed })
    ));
    assert!(matches!(
        load_artifact(&ckpt).map(|_| ()),
        Err(Error::WrongKind { expected: ArtifactKind::Deployed, found: ArtifactKind::Checkpoint })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arch_and_method_mismatches_are_typed_errors() {
    let dir = scratch("mismatch");
    let bytes = checkpoint_bytes();
    let name_field = 4 + "SRResNet".len(); // u32 length + UTF-8
    // (a) Unknown method tag: the byte right after name + 3×u32 + u64 seed.
    let method_offset = 12 + name_field + 12 + 8;
    let mut bad_method = bytes.clone();
    bad_method[method_offset] = 250;
    let path = dir.join("m.sca");
    std::fs::write(&path, &bad_method).unwrap();
    assert!(matches!(
        load_checkpoint(&path).map(|_| ()),
        Err(Error::UnknownMethod(250))
    ));
    // (b) Re-labelled architecture whose rebuilt parameters cannot fit.
    let mut relabelled = bytes[..12].to_vec();
    relabelled.extend_from_slice(&3u32.to_le_bytes());
    relabelled.extend_from_slice(b"RDN");
    relabelled.extend_from_slice(&bytes[12 + name_field..]);
    std::fs::write(&path, &relabelled).unwrap();
    assert!(matches!(
        load_checkpoint(&path).map(|_| ()),
        Err(Error::ArchMismatch { arch, .. }) if arch == "RDN"
    ));
    // (c) An architecture the registry has never heard of.
    let mut unknown = bytes[..12].to_vec();
    unknown.extend_from_slice(&4u32.to_le_bytes());
    unknown.extend_from_slice(b"VDSR");
    unknown.extend_from_slice(&bytes[12 + name_field..]);
    std::fs::write(&path, &unknown).unwrap();
    assert!(matches!(
        load_checkpoint(&path).map(|_| ()),
        Err(Error::UnknownArch(name)) if name == "VDSR"
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trailing_bytes_are_a_typed_error() {
    let dir = scratch("trailing");
    let mut bytes = checkpoint_bytes();
    bytes.extend_from_slice(&[0, 1, 2]);
    let path = dir.join("x.sca");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load_checkpoint(&path).map(|_| ()),
        Err(Error::TrailingBytes { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One mutation per field format version 2 added: each must be
/// `Error::Corrupt` at load — never a panic, a runaway allocation or a
/// deferred failure at the first forward.
#[test]
fn malformed_version_2_fields_are_corrupt_at_load() {
    use scales::binary::BinaryConv2d;
    use scales::core::DeployedBodyConv;
    use scales::tensor::Tensor;
    // A one-op graph over the network input (value 0).
    let graph = |op: DeployedOp| {
        let mut b = DeployedNetworkBuilder::new("hostile", 2);
        let v = b.push(op);
        artifact_to_bytes(&b.finish(v))
    };
    let layer_norm = |gamma: usize, beta: usize, eps: f32| DeployedOp::LayerNorm {
        gamma: vec![1.0; gamma],
        beta: vec![0.0; beta],
        eps,
        src: 0,
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("gamma and beta of different lengths", graph(layer_norm(3, 4, 1e-5))),
        ("empty gamma and beta", graph(layer_norm(0, 0, 1e-5))),
        ("zero epsilon", graph(layer_norm(3, 3, 0.0))),
        ("negative epsilon", graph(layer_norm(3, 3, -1e-5))),
        ("NaN epsilon", graph(layer_norm(3, 3, f32::NAN))),
        ("window of zero", graph(DeployedOp::WindowAttention { window: 0, q: 0, k: 0, v: 0 })),
        (
            "window beyond the factor bound",
            graph(DeployedOp::WindowAttention { window: 65, q: 0, k: 0, v: 0 }),
        ),
        (
            "bias that is not one value per output channel",
            graph(DeployedOp::Body {
                conv: Box::new(DeployedBodyConv::Basic {
                    conv: BinaryConv2d::from_float_weight(&Tensor::ones(&[4, 3, 1, 1])).unwrap(),
                    bias: Some(vec![0.0; 5]),
                    skip: false,
                }),
                src: 0,
            }),
        ),
    ];
    for (label, bytes) in cases {
        let err = artifact_from_bytes(&bytes).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { offset, .. } if offset > 12), "{label}: {err}");
    }
    // Well-formed twins of the same graphs load.
    assert!(artifact_from_bytes(&graph(layer_norm(3, 3, 1e-5))).is_ok());
    let gelu = graph(DeployedOp::Gelu { src: 0 });
    assert!(artifact_from_bytes(&gelu).is_ok());
    // The op tag is the byte after name, scale, op count and output id.
    let tag_at = 12 + 4 + "hostile".len() + 12;
    assert_eq!(gelu[tag_at], 11);
    // A tag version 2 does not define.
    let mut unknown = gelu.clone();
    unknown[tag_at] = 13;
    assert!(matches!(artifact_from_bytes(&unknown), Err(Error::Corrupt { .. })));
    // A version 2 tag in a file that claims version 1.
    let mut too_old = gelu;
    too_old[8..10].copy_from_slice(&1u16.to_le_bytes());
    assert!(matches!(artifact_from_bytes(&too_old), Err(Error::Corrupt { .. })));
}
