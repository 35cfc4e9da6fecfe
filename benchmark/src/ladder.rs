//! The layer ladder: the same request measured at every layer of the stack,
//! bottom up — kernels → `DeployedBodyConv` → `forward_planned` →
//! `Session::infer` → `Runtime::submit` → `ModelRouter` → HTTP loopback —
//! each rung timed as the median of up to 30 probe-normalised calls. The
//! per-layer metrics are the rungs themselves and the differences between
//! adjacent rungs; the two rungs of a difference are timed alternately
//! (lower, upper, lower, upper, …) between one pair of probes, so both see
//! the same machine and the difference is the median of per-pair differences.
//!
//! A rung that a workload's model cannot reach (the transformer has no
//! lowering, so no plan, no packed layers, no artifact) reads 0.

use crate::harness::PROBE_REF_MS;
use crate::models::{ModelFiles, ModelSpec};
use crate::probe::Probe;
use crate::stats::{median, percentile};
use crate::workloads::edge_fleet::{fleet_counters, router_config, upscale_request, Connection};
use scales_binary::{BinaryConv2d, PackedBits};
use scales_core::{BodyConv, DeployedBodyConv, FloatConv2d, Method};
use scales_data::{decode_image, encode_image, Image, WireFormat};
use scales_http::{HttpConfig, HttpServer};
use scales_models::cost::body_conv_cost;
use scales_models::Workspace;
use scales_router::ModelRouter;
use scales_runtime::{Runtime, RuntimeStats};
use scales_serve::{SrRequest, TilePolicy};
use scales_tensor::ops::Conv2dSpec;
use scales_tensor::workspace::{BitScratch, ConvScratch};
use scales_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MAX_CALLS: usize = 30;
const MIN_CALLS: usize = 3;
/// A difference of two rungs needs more than three pairs to mean anything.
const MIN_PAIRS: usize = 5;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Times rungs: every rung is bracketed by two probes and its calls are
/// divided by the scale they give.
struct Rungs {
    probe: Probe,
    /// Wall-time budget per rung, in seconds.
    budget_s: f64,
}

impl Rungs {
    /// Median probe-normalised duration of `call`, in milliseconds.
    fn ms(&mut self, mut call: impl FnMut()) -> f64 {
        let before = self.probe.run();
        let mut raw_ms = Vec::with_capacity(MAX_CALLS);
        let started = Instant::now();
        while raw_ms.len() < MIN_CALLS
            || (raw_ms.len() < MAX_CALLS && started.elapsed().as_secs_f64() < self.budget_s)
        {
            let start = Instant::now();
            call();
            raw_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let after = self.probe.run();
        median(&raw_ms) / ((before + after) / 2.0 / PROBE_REF_MS[0])
    }

    /// Time two adjacent rungs alternately: `call(false)` is the lower
    /// rung, `call(true)` the upper one.
    fn pair(&mut self, mut call: impl FnMut(bool)) -> Pair {
        let before = self.probe.run();
        let (mut lower, mut upper, mut diff) = (Vec::new(), Vec::new(), Vec::new());
        let started = Instant::now();
        while diff.len() < MIN_PAIRS
            || (diff.len() < MAX_CALLS && started.elapsed().as_secs_f64() < self.budget_s)
        {
            let start = Instant::now();
            call(false);
            let middle = Instant::now();
            call(true);
            let end = Instant::now();
            lower.push((middle - start).as_secs_f64() * 1e3);
            upper.push((end - middle).as_secs_f64() * 1e3);
            diff.push(upper[upper.len() - 1] - lower[lower.len() - 1]);
        }
        let after = self.probe.run();
        let scale = (before + after) / 2.0 / PROBE_REF_MS[0];
        Pair {
            lower_ms: median(&lower) / scale,
            upper_ms: median(&upper) / scale,
            diff_ms: median(&diff) / scale,
            upper_raw_ns: upper.iter().sum::<f64>() * 1e6,
        }
    }
}

/// Two adjacent rungs timed alternately, probe-normalised milliseconds.
struct Pair {
    lower_ms: f64,
    upper_ms: f64,
    /// Median of the per-pair differences `upper - lower`.
    diff_ms: f64,
    /// Raw nanoseconds spent in all the upper-rung calls.
    upper_raw_ns: f64,
}

fn tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut state = seed;
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|_| crate::schedule::unit_f32(&mut state) - 0.5)
            .collect(),
        shape,
    )
    .expect("volume matches")
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The runtime-layer metrics a serving record gives.
pub fn runtime_counters(stats: &RuntimeStats) -> Vec<(&'static str, f64)> {
    vec![
        ("runtime.batch_fill", stats.batch_fill),
        (
            "runtime.images_per_dispatch",
            share(stats.images as f64, stats.dispatches as f64),
        ),
        (
            "runtime.busy_share",
            share(
                stats.busy.as_secs_f64(),
                stats.elapsed.as_secs_f64() * stats.workers as f64,
            ),
        ),
        ("runtime.queue_high_water", stats.queue_high_water as f64),
        (
            "runtime.refused",
            (stats.rejected + stats.shed + stats.quota_rejected + stats.expired) as f64,
        ),
    ]
}

/// The HTTP-layer metrics from matched pairs of the server's eight stage
/// spans and the client-observed round trip (nanoseconds).
pub fn http_stage_metrics(pairs: &[([u64; 8], u64)]) -> Vec<(&'static str, f64)> {
    let n = pairs.len().max(1) as f64;
    let mean_us = |stage: usize| pairs.iter().map(|(s, _)| s[stage] as f64).sum::<f64>() / n / 1e3;
    let client: f64 = pairs.iter().map(|(_, c)| *c as f64).sum();
    let staged: f64 = pairs
        .iter()
        .map(|(s, _)| s.iter().sum::<u64>() as f64)
        .sum();
    let runtime: f64 = pairs.iter().map(|(s, _)| (s[3] + s[4] + s[5]) as f64).sum();
    vec![
        ("http.parse_us", mean_us(0)),
        ("http.decode_us", mean_us(1)),
        ("http.submit_us", mean_us(2)),
        ("http.encode_us", mean_us(6)),
        ("http.write_us", mean_us(7)),
        ("http.overhead_us", (client - runtime) / n / 1e3),
        (
            "http.stage_attributed_share",
            share(staged.min(client), client),
        ),
    ]
}

/// Median of a stage's durations, nanoseconds → milliseconds.
pub fn p50_ms(durations_ns: &[u64]) -> f64 {
    let mut v: Vec<f64> = durations_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Run the ladder for `spec` within roughly `budget_s` seconds of wall time.
#[allow(clippy::too_many_lines)]
pub fn run(spec: &ModelSpec, files: &ModelFiles, budget_s: f64) -> Vec<(&'static str, f64)> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut rungs = Rungs {
        probe: Probe::new(),
        budget_s: budget_s / 20.0,
    };
    rungs.probe.run();
    let (c, scale, side) = (spec.config.channels, spec.config.scale, spec.light);
    let pixels = side * side;
    let light = crate::schedule::scene(spec.light, 101);
    let heavy = crate::schedule::scene(spec.heavy, 102);
    let features = tensor(&[1, c, side, side], 1);

    // Kernels: float GEMM at the body-width conv shape, the tail conv, and
    // sign packing.
    {
        let (rows, inner) = (c, c * 9);
        let (a, b) = (tensor(&[rows, inner], 2), tensor(&[inner, pixels], 3));
        let mut out = vec![0.0f32; rows * pixels];
        let kernel = scales_tensor::backend::kernel();
        let ms = rungs.ms(|| {
            out.fill(0.0);
            kernel.gemm(a.data(), b.data(), black_box(&mut out), rows, inner, pixels);
        });
        m.push((
            "tensor.gemm_f32_mmacs_per_s",
            (rows * inner * pixels) as f64 / 1e6 / (ms / 1e3),
        ));

        let tail_channels = 3 * scale * scale;
        let tail = FloatConv2d::new(
            tensor(&[tail_channels, c, 3, 3], 4),
            None,
            Conv2dSpec::same(3),
        )
        .expect("tail conv shape");
        let (mut col, mut out) = (Vec::new(), vec![0.0f32; tail_channels * pixels]);
        m.push((
            "tensor.conv2d_tail_ms",
            rungs.ms(|| {
                tail.forward_into(features.data(), 1, side, side, &mut col, &mut out)
                    .expect("tail conv")
            }),
        ));

        let ms = rungs.ms(|| {
            black_box(PackedBits::from_signs(black_box(features.data())));
        });
        m.push((
            "binary.pack_ns_per_value",
            ms * 1e6 / features.data().len() as f64,
        ));
    }
    // One SCALES body convolution and the XNOR-popcount convolution inside
    // it: the difference is what LSF, spatial and channel re-scaling cost —
    // the paper's Table 6/7 argument on a real run.
    {
        let trained = BodyConv::new(Method::scales(), c, c, 3, &mut scales_nn::init::rng(6))
            .expect("body conv");
        let body = DeployedBodyConv::from_trained(&trained).expect("body conv lowers");
        let DeployedBodyConv::Scales(scales) = &body else {
            panic!("a SCALES body convolution lowers to the SCALES variant");
        };
        let binary: &BinaryConv2d = scales.conv();
        let mut out = vec![0.0f32; c * pixels];
        let mut bits = BitScratch::default();
        let mut scratch = ConvScratch::new();
        let conv = rungs.pair(|whole| {
            if whole {
                body.forward_into(features.data(), 1, side, side, &mut scratch, &mut out)
                    .expect("body conv");
            } else {
                binary
                    .forward_into(features.data(), 1, side, side, &mut bits, &mut out)
                    .expect("binary conv");
            }
        });
        let ops = scales_binary::count::conv2d_cost(c, c, 3, side, side, true, false).bin_ops;
        m.push(("binary.conv_ms", conv.lower_ms));
        m.push((
            "binary.conv_gops_per_s",
            ops as f64 / 1e9 / (conv.lower_ms / 1e3),
        ));
        // Computed from tensor sizes, not measured: f32 input and output,
        // packed weights, the sign bitmap and the bit-im2col patches.
        let words_per_pixel = c.div_ceil(64);
        let bytes =
            4 * (2 * c * pixels) + 8 * (c * 9 * words_per_pixel + pixels * words_per_pixel * 10);
        m.push(("binary.conv_bytes_per_call", bytes as f64));

        m.push(("core.body_conv_ms", conv.upper_ms));
        m.push((
            "core.scales_overhead_share",
            share(conv.diff_ms, conv.upper_ms),
        ));
        let full = body_conv_cost(Method::scales(), c, c, 3, side, side).effective_ops();
        let bare =
            scales_binary::count::conv2d_cost(c, c, 3, side, side, true, false).effective_ops();
        m.push(("core.predicted_ops_share", share(full - bare, full)));
    }

    // The whole network: the training-precision tape, the planned executor
    // (profiler off and on) and the allocating interpreter.
    let input = light
        .tensor()
        .reshape(&[1, 3, side, side])
        .expect("image is CHW");
    let net = crate::models::build(spec);
    let lower_started = Instant::now();
    let deployed = net.lower().ok();
    m.push(("io.lower_ms", lower_started.elapsed().as_secs_f64() * 1e3));
    m.push((
        "models.train_forward_ms",
        rungs.ms(|| {
            black_box(
                scales_models::InferModel::forward_infer(net.as_ref(), &input)
                    .expect("training forward"),
            );
        }),
    ));
    let mut ws = Workspace::new();
    let mut planned = vec![
        ("models.forward_planned_ms", 0.0),
        ("models.forward_alloc_ms", 0.0),
        ("models.plan_build_ms", 0.0),
        ("models.plan_arena_mb", 0.0),
        ("models.packed_layers", 0.0),
        ("models.op_share.body_conv", 0.0),
        ("models.op_share.float_conv", 0.0),
        ("models.op_share.elementwise", 0.0),
        ("models.op_share.shuffle_resize", 0.0),
        ("models.op_attributed_share", 0.0),
        ("telemetry.profile_overhead_share", 0.0),
    ];
    if let Some(deployed) = &deployed {
        deployed
            .forward_planned(&input, &mut ws)
            .expect("planned forward");
        let profiled = rungs.pair(|on| {
            ws.enable_profiling(on);
            black_box(
                deployed
                    .forward_planned(&input, &mut ws)
                    .expect("planned forward"),
            );
        });
        let profile = ws.op_profile().clone();
        ws.enable_profiling(false);
        let kind_ns = |kinds: &[&str]| -> f64 {
            profile
                .entries()
                .iter()
                .filter(|e| kinds.contains(&e.kind))
                .map(|e| e.total_ns as f64)
                .sum()
        };
        let total = profile.total_ns() as f64;
        let plan_ms = rungs.ms(|| {
            black_box(deployed.plan(input.shape()).expect("plan builds"));
        });
        let plan = deployed.plan(input.shape()).expect("plan builds");
        let alloc = rungs.ms(|| {
            black_box(deployed.forward(&input).expect("allocating forward"));
        });
        planned = vec![
            ("models.forward_planned_ms", profiled.lower_ms),
            ("models.forward_alloc_ms", alloc),
            ("models.plan_build_ms", plan_ms),
            ("models.plan_arena_mb", (plan.arena_len() * 4) as f64 / 1e6),
            ("models.packed_layers", deployed.packed_layers() as f64),
            (
                "models.op_share.body_conv",
                share(kind_ns(&["body_conv"]), total),
            ),
            (
                "models.op_share.float_conv",
                share(kind_ns(&["float_conv"]), total),
            ),
            (
                "models.op_share.elementwise",
                share(
                    kind_ns(&["relu", "prelu", "add", "concat", "channel_attention"]),
                    total,
                ),
            ),
            (
                "models.op_share.shuffle_resize",
                share(kind_ns(&["pixel_shuffle", "bicubic_up"]), total),
            ),
            (
                "models.op_attributed_share",
                share(total, profiled.upper_raw_ns),
            ),
            (
                "telemetry.profile_overhead_share",
                share(profiled.diff_ms, profiled.lower_ms),
            ),
        ];
    }
    m.append(&mut planned);

    // Session::infer over the bare forward of the same input (the planned
    // executor, or the training tape where the model has no lowering), and
    // what tiling the heavy image costs over forwarding it whole.
    let engine = crate::workloads::session::engine(spec, files.serving_path());
    let session = engine.session();
    let light_request = SrRequest::single(light.clone());
    let infer = rungs.pair(|through_session| {
        if through_session {
            black_box(
                session
                    .infer(light_request.clone())
                    .expect("session serves"),
            );
        } else if let Some(deployed) = &deployed {
            black_box(
                deployed
                    .forward_planned(&input, &mut ws)
                    .expect("planned forward"),
            );
        } else {
            black_box(
                scales_models::InferModel::forward_infer(net.as_ref(), &input)
                    .expect("training forward"),
            );
        }
    });
    m.push(("serve.infer_overhead_us", infer.diff_ms * 1e3));
    drop((net, deployed, ws));
    let heavy_request = SrRequest::single(heavy.clone());
    let tile = spec.tile.spec_for(spec.heavy, spec.heavy);
    let tiles = tile.map_or(1, |t| spec.heavy.div_ceil(t.tile).pow(2));
    m.push(("serve.tiles_per_heavy", tiles as f64));
    let tile_overhead = if tile.is_some() {
        let whole_request = heavy_request.clone().tile_policy(TilePolicy::Off);
        let tiling = rungs.pair(|tiled| {
            let request = if tiled {
                &heavy_request
            } else {
                &whole_request
            };
            black_box(session.infer(request.clone()).expect("session serves"));
        });
        share(tiling.diff_ms, tiling.upper_ms)
    } else {
        0.0
    };
    m.push(("serve.tile_overhead_share", tile_overhead));
    m.push(("serve.workspace_mb", session.workspace_bytes() as f64 / 1e6));

    // A lone request through the runtime (submit → ticket round trip) over
    // the same request through the bare session.
    let runtime = Runtime::spawn(
        crate::workloads::session::engine(spec, files.serving_path()),
        router_config().runtime,
    )
    .expect("runtime spawns");
    let mut stamps = Vec::new();
    let queued = rungs.pair(|through_runtime| {
        if through_runtime {
            let response = runtime
                .submit(light_request.clone())
                .expect("accepted")
                .wait()
                .expect("served");
            stamps.extend(response.stamps());
        } else {
            black_box(
                session
                    .infer(light_request.clone())
                    .expect("session serves"),
            );
        }
    });
    m.push(("runtime.overhead_us", queued.diff_ms * 1e3));
    drop(session);
    let stage = |pick: fn(&scales_telemetry::RuntimeStamps) -> (Instant, Instant)| -> f64 {
        let ns: Vec<u64> = stamps
            .iter()
            .map(|s| {
                let (from, to) = pick(s);
                u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        p50_ms(&ns)
    };
    m.push((
        "runtime.queue_wait_ms_p50",
        stage(|s| (s.enqueued, s.dequeued)),
    ));
    m.push((
        "runtime.batch_wait_ms_p50",
        stage(|s| (s.dequeued, s.sealed)),
    ));
    m.push(("runtime.infer_ms_p50", stage(|s| (s.sealed, s.infer_done))));

    // The same lone request routed by name over the bare runtime.
    let router = ModelRouter::new(router_config()).expect("router config is valid");
    router
        .register_path("m", files.serving_path())
        .expect("model registers");
    let routed = rungs.pair(|by_name| {
        if by_name {
            black_box(
                router
                    .submit_wait_timeout("m", light_request.clone(), TIMEOUT)
                    .expect("routed")
                    .expect("served"),
            );
        } else {
            black_box(
                runtime
                    .submit(light_request.clone())
                    .expect("accepted")
                    .wait()
                    .expect("served"),
            );
        }
    });
    m.push(("router.route_overhead_us", routed.diff_ms * 1e3));
    m.extend(runtime_counters(&runtime.shutdown()));

    // And over HTTP loopback, PNG in and out.
    let server = HttpServer::bind_router("127.0.0.1:0", router.clone(), HttpConfig::default())
        .expect("server binds");
    let png = encode_image(&light, WireFormat::Png).expect("PNG encodes");
    let mut conn = Connection::open(server.addr());
    let mut sent: Vec<(String, u64)> = Vec::new();
    rungs.ms(|| {
        let id = format!("ladder-{}", sent.len());
        let wire = upscale_request("m", &id, &png);
        let start = Instant::now();
        let answer = conn.round_trip(&wire);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        assert!(
            answer.is_some_and(|(status, _)| status == 200),
            "ladder HTTP request failed"
        );
        sent.push((id, ns));
    });
    let traces = server.traces();
    let pairs: Vec<([u64; 8], u64)> = sent
        .iter()
        .filter_map(|(id, ns)| {
            traces
                .iter()
                .find(|t| t.id.as_str() == id)
                .map(|t| (t.stage_ns, *ns))
        })
        .collect();
    m.extend(http_stage_metrics(&pairs));
    let mut reloads: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            router.reload("m").expect("reload succeeds");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    reloads.sort_by(f64::total_cmp);
    m.push(("router.reload_ms_p50", percentile(&reloads, 0.5)));
    m.push(("router.reload_ms_max", percentile(&reloads, 1.0)));
    m.extend(fleet_counters(&server));
    drop(conn);
    drop(router);
    let _ = server.shutdown();

    // Wire codecs at the light request's sizes, and the bicubic skip.
    let output: Image = scales_data::upscale(&light, scale).expect("bicubic upscale");
    for (format, decode, encode) in [
        (WireFormat::Png, "data.png_decode_us", "data.png_encode_us"),
        (WireFormat::Ppm, "data.ppm_decode_us", "data.ppm_encode_us"),
    ] {
        let bytes = encode_image(&light, format).expect("encodes");
        m.push((
            decode,
            1e3 * rungs.ms(|| drop(black_box(decode_image(&bytes).expect("decodes")))),
        ));
        m.push((
            encode,
            1e3 * rungs.ms(|| drop(black_box(encode_image(&output, format).expect("encodes")))),
        ));
    }
    m.push((
        "data.bicubic_ms",
        rungs.ms(|| {
            drop(black_box(
                scales_data::upscale(&light, scale).expect("upscale"),
            ))
        }),
    ));

    // Loading the model's files.
    m.push((
        "io.checkpoint_load_ms",
        rungs.ms(|| {
            drop(black_box(
                scales_io::load_checkpoint(&files.checkpoint).expect("checkpoint loads"),
            ))
        }),
    ));
    match &files.artifact {
        Some(path) => {
            m.push((
                "io.artifact_load_ms",
                rungs.ms(|| {
                    drop(black_box(
                        scales_io::load_artifact(path).expect("artifact loads"),
                    ))
                }),
            ));
            m.push((
                "io.artifact_mb",
                std::fs::metadata(path).map_or(0.0, |meta| meta.len() as f64 / 1e6),
            ));
        }
        None => m.extend([("io.artifact_load_ms", 0.0), ("io.artifact_mb", 0.0)]),
    }
    m
}
