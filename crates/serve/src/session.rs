//! [`Session`]: the single `infer` entry point serving single-image,
//! multi-image and tiled requests through one engine, one image per
//! forward.

use crate::engine::Engine;
use crate::request::{InferStats, SrRequest, SrResponse};
use crate::tile::TileSpec;
use scales_data::Image;
use scales_models::Workspace;
use scales_tensor::{backend, Result, Tensor, TensorError};
use std::cell::{Cell, RefCell};

/// A stream of requests against one [`Engine`]. Cheap to open; carries
/// per-session serving counters and the planned executor's [`Workspace`]
/// — arena slots, kernel scratch, and the per-shape plan cache — so
/// steady-state deployed forwards on this session allocate nothing.
pub struct Session<'e, 'm> {
    engine: &'e Engine<'m>,
    requests: Cell<usize>,
    images_served: Cell<usize>,
    /// Interior-mutable so `infer` can stay `&self` (sessions hand out
    /// shared references); never borrowed across a forward boundary.
    workspace: RefCell<Workspace>,
}

impl<'e, 'm> Session<'e, 'm> {
    pub(crate) fn over(engine: &'e Engine<'m>, workspace: Workspace) -> Self {
        Self {
            engine,
            requests: Cell::new(0),
            images_served: Cell::new(0),
            workspace: RefCell::new(workspace),
        }
    }

    /// End the session and hand its workspace back, for
    /// [`Engine::session_over`] to open the next one on.
    #[must_use]
    pub fn into_workspace(self) -> Workspace {
        self.workspace.into_inner()
    }

    /// The engine this session serves through.
    #[must_use]
    pub fn engine(&self) -> &'e Engine<'m> {
        self.engine
    }

    /// Requests served so far.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests.get()
    }

    /// Images served so far.
    #[must_use]
    pub fn images_served(&self) -> usize {
        self.images_served.get()
    }

    /// Bytes resident in this session's planned-executor workspace (arena
    /// slots plus cached plans); zero until the first deployed forward.
    #[must_use]
    pub fn workspace_bytes(&self) -> usize {
        self.workspace.borrow().memory_bytes()
    }

    /// Switch the workspace's per-op plan profiler on or off (off by
    /// default — the planned forward then reads no clocks).
    pub fn set_profiling(&self, on: bool) {
        self.workspace.borrow_mut().enable_profiling(on);
    }

    /// Snapshot of the cumulative per-op profile this session's planned
    /// forwards have accumulated (empty unless
    /// [`set_profiling`](Session::set_profiling) switched it on).
    #[must_use]
    pub fn op_profile(&self) -> scales_telemetry::OpProfile {
        self.workspace.borrow().op_profile().clone()
    }

    /// Serve one request: every image, in request order, is either tiled
    /// (split → forward → stitch) or forwarded whole, per the tile policy
    /// in force (request override, else engine default). A forward is one
    /// image or one tile, so an image's output depends on that image
    /// alone. All forwards run under the engine's backend handle,
    /// installed thread-scoped for the duration of the call.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty request, an invalid per-request tile
    /// policy, or a failed forward.
    pub fn infer(&self, request: SrRequest) -> Result<SrResponse> {
        let (images, tile_override) = request.into_parts();
        let policy = tile_override.unwrap_or_else(|| self.engine.tile_policy());
        let refs: Vec<&Image> = images.iter().collect();
        self.serve_refs(&refs, policy)
    }

    /// Super-resolve one image (request-of-one convenience, under the
    /// engine-default tile policy). Borrows the input — no request
    /// allocation or image copy on this hot path.
    ///
    /// # Errors
    ///
    /// Propagates [`Session::infer`] errors.
    pub fn super_resolve(&self, lr: &Image) -> Result<Image> {
        let mut images =
            self.serve_refs(&[lr], self.engine.tile_policy())?.into_images();
        images.pop().ok_or_else(|| {
            TensorError::InvalidArgument("single-image request returned no image".into())
        })
    }

    /// The borrowed core of [`Session::infer`]: serve `images` under
    /// `policy` without taking ownership of the inputs.
    fn serve_refs(&self, images: &[&Image], policy: crate::TilePolicy) -> Result<SrResponse> {
        let engine = self.engine;
        if images.is_empty() {
            return Err(TensorError::InvalidArgument(
                "inference request needs at least one image".into(),
            ));
        }
        policy.validate()?;
        backend::with_thread_backend(engine.backend(), || {
            let (plans_before, hits_before) = {
                let ws = self.workspace.borrow();
                (ws.plans_built(), ws.plan_hits())
            };
            let forward =
                |t: &Tensor| engine.forward_with(t, &mut self.workspace.borrow_mut());
            let mut tiled = 0usize;
            let images = images
                .iter()
                .map(|img| match policy.spec_for(img.height(), img.width()) {
                    Some(spec) => {
                        tiled += 1;
                        tiled_with(forward, engine.scale(), img, spec)
                    }
                    None => forward_one(forward, engine.scale(), img.tensor())
                        .and_then(Image::from_tensor),
                })
                .collect::<Result<Vec<Image>>>()?;
            self.requests.set(self.requests.get() + 1);
            self.images_served.set(self.images_served.get() + images.len());
            let (plans_built, plan_reuses) = {
                let ws = self.workspace.borrow();
                (ws.plans_built() - plans_before, ws.plan_hits() - hits_before)
            };
            Ok(SrResponse {
                stamps: None,
                stats: InferStats {
                    images: images.len(),
                    tiled,
                    backend: engine.backend(),
                    simd: engine.backend().kernel().simd_level(),
                    precision: engine.precision(),
                    plans_built,
                    plan_reuses,
                },
                images,
            })
        })
    }
}

/// Forward one `[C, H, W]` image or tile as a `[1, C, H, W]` batch and
/// check that the output is its `scale`× upscale, returned as `[C, sH, sW]`.
fn forward_one(
    forward: impl Fn(&Tensor) -> Result<Tensor>,
    scale: usize,
    lr: &Tensor,
) -> Result<Tensor> {
    let (c, h, w) = (lr.shape()[0], lr.shape()[1], lr.shape()[2]);
    let sr = forward(&lr.reshape(&[1, c, h, w])?)?;
    let expect = [1, c, h * scale, w * scale];
    if sr.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            lhs: sr.shape().to_vec(),
            rhs: expect.to_vec(),
            op: "inference output",
        });
    }
    Tensor::from_vec(sr.into_vec(), &expect[1..])
}

/// Split → forward → stitch (see the `crate::tile` docs for the exactness
/// conditions).
fn tiled_with(
    forward: impl Fn(&Tensor) -> Result<Tensor>,
    scale: usize,
    lr: &Image,
    spec: TileSpec,
) -> Result<Image> {
    let t = lr.tensor();
    let (c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    let mut out = Tensor::zeros(&[c, h * scale, w * scale]);
    let mut y0 = 0;
    while y0 < h {
        let y1 = (y0 + spec.tile).min(h);
        let py0 = y0.saturating_sub(spec.overlap);
        let py1 = (y1 + spec.overlap).min(h);
        let mut x0 = 0;
        while x0 < w {
            let x1 = (x0 + spec.tile).min(w);
            let px0 = x0.saturating_sub(spec.overlap);
            let px1 = (x1 + spec.overlap).min(w);
            // Forward the padded tile [py0..py1) × [px0..px1).
            let tile = t.slice_axis(1, py0, py1 - py0)?.slice_axis(2, px0, px1 - px0)?;
            let sr = forward_one(&forward, scale, &tile)?;
            // Keep the center crop corresponding to [y0..y1) × [x0..x1).
            let (ky, kx) = ((y0 - py0) * scale, (x0 - px0) * scale);
            let (kh, kw) = ((y1 - y0) * scale, (x1 - x0) * scale);
            let srw = (px1 - px0) * scale;
            for ci in 0..c {
                for ry in 0..kh {
                    let src_row = (ci * (py1 - py0) * scale + ky + ry) * srw + kx;
                    let dst_row = (ci * h * scale + y0 * scale + ry) * w * scale + x0 * scale;
                    out.data_mut()[dst_row..dst_row + kw]
                        .copy_from_slice(&sr.data()[src_row..src_row + kw]);
                }
            }
            x0 = x1;
        }
        y0 = y1;
    }
    Image::from_tensor(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Precision, SrRequest, TilePolicy};
    use scales_core::{Method, ScalesComponents};
    use scales_models::{srresnet, SrConfig, SrNetwork};
    use scales_nn::init::rng;
    use scales_tensor::backend::Backend;

    fn probe_image(h: usize, w: usize, seed: u64) -> Image {
        scales_data::synth::scene(h, w, scales_data::synth::SceneConfig::default(), &mut rng(seed))
    }

    /// SRResNet-lite with 1 block: total conv radius along the deepest
    /// path is 5 (head 1 + two body convs 2 + body-end 1 + tail 1), plus 2
    /// for the bicubic kernel — receptive radius 7.
    fn local_net() -> impl SrNetwork {
        srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            // Local-only components: stitching is exact (tile module docs).
            method: Method::Scales(ScalesComponents::lsf_spatial()),
            seed: 23,
        })
        .unwrap()
    }

    #[test]
    fn session_batch_matches_single_image_forwards() {
        let net = local_net();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Training).build().unwrap();
        let session = engine.session();
        // Interleave two shapes; order must be preserved in the response.
        let images = vec![
            probe_image(8, 8, 41),
            probe_image(6, 10, 43),
            probe_image(8, 8, 42),
        ];
        let response = session.infer(SrRequest::batch(images.clone())).unwrap();
        assert_eq!(response.stats().tiled, 0);
        for (img, sr) in images.iter().zip(response.images()) {
            let single = net.super_resolve(img).unwrap();
            assert_eq!((sr.height(), sr.width()), (img.height() * 2, img.width() * 2));
            assert_eq!(sr.tensor().data(), single.tensor().data(), "bit-identical to single");
        }
        assert_eq!(session.requests(), 1);
        assert_eq!(session.images_served(), 3);
    }

    #[test]
    fn a_request_of_eight_leaves_the_workspace_one_image_leaves() {
        // A forward is one image, so the arenas are sized by the largest
        // image served, not by the request's image count.
        let net = local_net();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        let images: Vec<Image> = (0..8).map(|i| probe_image(8, 8, 80 + i)).collect();
        let eight = engine.session();
        let stats = eight.infer(SrRequest::batch(images.clone())).unwrap().stats();
        let one = engine.session();
        let _ = one.infer(SrRequest::single(images[3].clone())).unwrap();
        assert!(one.workspace_bytes() > 0);
        assert_eq!(eight.workspace_bytes(), one.workspace_bytes());
        let counts = (stats.plans_built, stats.plan_reuses);
        assert_eq!(counts, (1, 7), "one plan, one forward per image");
    }

    #[test]
    fn stats_report_tiling_backend_and_precision_on_mixed_sizes() {
        // Three shapes + one auto-tiled image in a single request,
        // checked at both precisions and on an explicit backend handle:
        // every InferStats field must reflect the engine that served it.
        let net = local_net();
        for precision in [Precision::Training, Precision::Deployed] {
            let engine = Engine::builder()
                .model_ref(&net)
                .precision(precision)
                .backend(Backend::Scalar)
                .tile_policy(TilePolicy::Auto { max_side: 12, overlap: 7 })
                .build()
                .unwrap();
            let session = engine.session();
            let images = vec![
                probe_image(8, 8, 61),
                probe_image(16, 16, 62), // oversized → tiled
                probe_image(6, 10, 63),
                probe_image(8, 8, 64),
                probe_image(10, 6, 65),
            ];
            let stats = session.infer(SrRequest::batch(images)).unwrap().stats();
            assert_eq!(stats.images, 5, "{precision}");
            assert_eq!(stats.tiled, 1, "{precision}: only the oversized image tiles");
            assert_eq!(stats.backend, Backend::Scalar, "{precision}");
            assert_eq!(stats.backend, engine.backend(), "{precision}");
            assert_eq!(stats.simd, scales_tensor::SimdLevel::None, "{precision}: scalar kernel never dispatches SIMD");
            assert_eq!(stats.precision, precision);
        }
    }

    #[test]
    fn stats_report_detected_simd_level_on_the_simd_backend() {
        let net = local_net();
        let engine = Engine::builder()
            .model_ref(&net)
            .backend(Backend::Simd)
            .build()
            .unwrap();
        let session = engine.session();
        let stats =
            session.infer(SrRequest::single(probe_image(8, 8, 71))).unwrap().stats();
        assert_eq!(stats.backend, Backend::Simd);
        assert_eq!(stats.simd, Backend::detected(), "simd kernel reports what the CPU offers");
    }

    #[test]
    fn stats_report_deployed_precision_for_a_lowered_transformer() {
        // The inversion of the old fallback pin: a transformer lowers, so
        // a Deployed request is served deployed — planned, with packed
        // layers — and the per-response stats say so.
        let net = scales_models::swinir(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 66,
        })
        .unwrap();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        assert!(engine.lowered().is_some_and(|graph| graph.packed_layers() > 0));
        let stats =
            engine.session().infer(SrRequest::single(probe_image(8, 8, 67))).unwrap().stats();
        assert_eq!(stats.precision, Precision::Deployed);
        assert_eq!(stats.plans_built, 1, "served by the planned executor");
        assert_eq!(stats.tiled, 0);
    }

    #[test]
    fn stats_count_all_tiled_requests() {
        let net = local_net();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Training).build().unwrap();
        let session = engine.session();
        // Per-request override tiles everything.
        let response = session
            .infer(
                SrRequest::batch(vec![probe_image(16, 16, 68), probe_image(14, 14, 69)])
                    .tile_policy(TilePolicy::Fixed(TileSpec::new(8, 7).unwrap())),
            )
            .unwrap();
        assert_eq!(response.stats().tiled, 2);
        // Session counters accumulate across requests.
        let _ = session.infer(SrRequest::single(probe_image(8, 8, 70))).unwrap();
        assert_eq!(session.requests(), 2);
        assert_eq!(session.images_served(), 3);
    }

    #[test]
    fn stats_surface_plan_builds_and_reuses() {
        let net = local_net();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        let session = engine.session();
        // Two shapes in one request: two plans built, nothing to reuse.
        let first = session
            .infer(SrRequest::batch(vec![probe_image(8, 8, 71), probe_image(6, 10, 72)]))
            .unwrap();
        assert_eq!(first.stats().plans_built, 2);
        assert_eq!(first.stats().plan_reuses, 0);
        // Same shapes again: both forwards reuse the session's plans.
        let second = session
            .infer(SrRequest::batch(vec![probe_image(8, 8, 73), probe_image(6, 10, 74)]))
            .unwrap();
        assert_eq!(second.stats().plans_built, 0);
        assert_eq!(second.stats().plan_reuses, 2);
        // The training path never plans.
        let training =
            Engine::builder().model_ref(&net).precision(Precision::Training).build().unwrap();
        let stats = training.session().infer(SrRequest::single(probe_image(8, 8, 75))).unwrap();
        assert_eq!(stats.stats().plans_built, 0);
        assert_eq!(stats.stats().plan_reuses, 0);
    }

    #[test]
    fn a_handed_over_workspace_keeps_its_plans_and_profiler() {
        let net = local_net();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        let session = engine.session();
        session.set_profiling(true);
        let first = session.infer(SrRequest::single(probe_image(8, 8, 76))).unwrap();
        assert_eq!(first.stats().plans_built, 1);
        let bytes = session.workspace_bytes();
        let next = engine.session_over(session.into_workspace());
        assert_eq!(next.workspace_bytes(), bytes, "arenas and plans moved over");
        let second = next.infer(SrRequest::single(probe_image(8, 8, 77))).unwrap();
        assert_eq!((second.stats().plans_built, second.stats().plan_reuses), (0, 1));
        assert!(next.op_profile().total_ns() > 0, "the profiler setting carried over");
        assert_eq!(next.requests(), 1, "serving counters are the session's own");
    }

    #[test]
    fn session_rejects_empty_requests() {
        let net = local_net();
        let engine = Engine::builder().model_ref(&net).build().unwrap();
        assert!(engine.session().infer(SrRequest::batch(vec![])).is_err());
    }

    #[test]
    fn fixed_tiling_matches_full_image_on_local_network() {
        let net = local_net();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Training).build().unwrap();
        let session = engine.session();
        let img = probe_image(16, 16, 5);
        let full = session.super_resolve(&img).unwrap();
        let tiled = session
            .infer(
                SrRequest::single(img.clone())
                    .tile_policy(TilePolicy::Fixed(TileSpec::new(12, 8).unwrap())),
            )
            .unwrap();
        assert_eq!(tiled.stats().tiled, 1);
        let tiled = &tiled.images()[0];
        assert_eq!((tiled.height(), tiled.width()), (32, 32));
        for (a, b) in tiled.tensor().data().iter().zip(full.tensor().data().iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn auto_policy_tiles_only_the_oversized_image_of_a_request() {
        let net = local_net();
        let engine = Engine::builder()
            .model_ref(&net)
            .precision(Precision::Training)
            .tile_policy(TilePolicy::Auto { max_side: 12, overlap: 7 })
            .build()
            .unwrap();
        let session = engine.session();
        let small = probe_image(8, 8, 6);
        let big = probe_image(16, 16, 7);
        let response =
            session.infer(SrRequest::batch(vec![small.clone(), big.clone()])).unwrap();
        assert_eq!(response.stats().tiled, 1);
        // The tiled result still matches the full-image forward (overlap 7
        // covers the receptive radius of the local-only net).
        let full = net.super_resolve(&big).unwrap();
        for (a, b) in response.images()[1].tensor().data().iter().zip(full.tensor().data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        let small_full = net.super_resolve(&small).unwrap();
        assert_eq!(response.images()[0].tensor().data(), small_full.tensor().data());
    }

    #[test]
    fn deployed_precision_auto_lowers_and_matches_training() {
        let net = local_net();
        let training =
            Engine::builder().model_ref(&net).precision(Precision::Training).build().unwrap();
        let deployed =
            Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        assert_eq!(deployed.precision(), Precision::Deployed);
        assert!(deployed.lowered().is_some());
        let img = probe_image(10, 10, 8);
        let a = training.session().super_resolve(&img).unwrap();
        let b = deployed.session().super_resolve(&img).unwrap();
        for (x, y) in a.tensor().data().iter().zip(b.tensor().data().iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_model_that_cannot_lower_fails_the_deployed_build_with_the_lowering_error() {
        // No in-tree architecture lacks a lowering any more, so the model
        // that cannot lower is a stub; what used to degrade to the
        // training path with a note is now the build error.
        struct NoLowering;
        impl crate::InferModel for NoLowering {
            fn scale(&self) -> usize {
                2
            }
            fn forward_infer(&self, batch: &Tensor) -> Result<Tensor> {
                Ok(batch.clone())
            }
            fn try_lower(&self) -> Result<scales_models::DeployedNetwork> {
                Err(TensorError::InvalidArgument("this layer has no packed form".into()))
            }
        }
        let built = Engine::builder().model(NoLowering).precision(Precision::Deployed).build();
        let err = built.err().expect("a model that cannot lower must fail a Deployed build");
        assert!(err.to_string().contains("no packed form"), "{err}");
        // The training path of the same model is still servable on request.
        let training =
            Engine::builder().model(NoLowering).precision(Precision::Training).build().unwrap();
        assert_eq!(training.precision(), Precision::Training);
        // And the transformer family is no longer such a model.
        let net = scales_models::swinir(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::FullPrecision,
            seed: 9,
        })
        .unwrap();
        let engine =
            Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        assert_eq!(engine.precision(), Precision::Deployed);
        assert!(engine.lowered().is_some());
    }

    #[test]
    fn engine_serves_a_pre_lowered_network() {
        let net = local_net();
        let lowered = net.lower().unwrap();
        let engine = Engine::builder().model(lowered).build().unwrap();
        assert_eq!(engine.precision(), Precision::Deployed);
        let img = probe_image(8, 8, 10);
        let direct = net.lower().unwrap().super_resolve(&img).unwrap();
        let served = engine.session().super_resolve(&img).unwrap();
        assert_eq!(served.tensor().data(), direct.tensor().data());
    }

    #[test]
    fn training_precision_on_a_deployed_model_is_an_error() {
        let lowered = local_net().lower().unwrap();
        // A lowered graph has no training path; asking for one must fail
        // loudly rather than silently serving deployed numerics.
        assert!(Engine::builder()
            .model(lowered)
            .precision(Precision::Training)
            .build()
            .is_err());
    }

    #[test]
    fn per_engine_backends_agree_and_do_not_touch_process_state() {
        let net = local_net();
        let before = backend::active();
        let img = probe_image(9, 9, 11);
        let mut outputs = Vec::new();
        for be in [Backend::Scalar, Backend::Simd] {
            let engine = Engine::builder()
                .model_ref(&net)
                .precision(Precision::Deployed)
                .backend(be)
                .build()
                .unwrap();
            assert_eq!(engine.backend(), be);
            outputs.push(engine.session().super_resolve(&img).unwrap());
        }
        assert_eq!(
            outputs[0].tensor().data(),
            outputs[1].tensor().data(),
            "kernels are bit-identical"
        );
        assert_eq!(backend::active(), before, "engines must not mutate global selection");
    }

    #[test]
    fn builder_without_a_model_errors() {
        assert!(Engine::builder().build().is_err());
    }

    #[test]
    fn invalid_tile_policies_are_rejected_at_build_and_per_request() {
        let net = local_net();
        assert!(Engine::builder()
            .model_ref(&net)
            .tile_policy(TilePolicy::Auto { max_side: 4, overlap: 4 })
            .build()
            .is_err());
        let engine = Engine::builder().model_ref(&net).build().unwrap();
        let bad = SrRequest::single(probe_image(8, 8, 12))
            .tile_policy(TilePolicy::Fixed(TileSpec { tile: 0, overlap: 0 }));
        assert!(engine.session().infer(bad).is_err());
    }
}
