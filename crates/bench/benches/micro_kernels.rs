//! Hot-kernel micro-benchmarks tracking the serving primitives this
//! workspace's latency story is built on:
//!
//! * the register-blocked float GEMM at the SRResNet serving shapes
//!   (head / body / tail convolutions over a 64×64 LR image, plus the
//!   paper-scale 64-channel body), scalar vs the runtime-detected SIMD
//!   kernel (bit-identical outputs, asserted here);
//! * the direct float convolution of the deployed path at the paper's tail
//!   and head shapes and the lite tail, compiled for every `SimdLevel` the
//!   CPU offers, beside the im2col → GEMM `conv2d` it replaced there
//!   (bit-identical outputs, asserted here);
//! * the direct XNOR-popcount convolution at the paper's body shape
//!   (64 → 64, 3×3, 32×32) and at the `k = 1` shapes a lowered transformer
//!   linear runs (32 → 32 and 64 → 32 at 16×16), compiled for every
//!   `SimdLevel` the CPU offers, and a whole deployed SCALES body
//!   convolution (LSF shift, spatial and channel re-scaling, skip — all
//!   fused into that kernel) beside it;
//! * the deployed GELU slice over one SwinIR-lite MLP activation, in
//!   nanoseconds per value, compiled for every `SimdLevel` the CPU offers
//!   (bit-identical outputs, asserted here);
//! * deployed window attention at the transformer's shape (32 channels,
//!   the zoo's 4×4 window, 16×16 and 24×24) and at 2×2 and 8×8 windows
//!   (the any-window instance: one short lane group, several full ones),
//!   and the deployed LayerNorm at the transformer's shape, each compiled
//!   for every `SimdLevel` the CPU offers;
//! * the bit-packed binary convolution on a 64×64 image, comparing the
//!   allocating `forward` against the scratch-reusing `forward_into`, on
//!   scalar and simd backends.
//!
//! The run **asserts** ratios, never nanoseconds: on AVX2 hardware the SIMD
//! float GEMM ≥ 1.3× scalar on the paper-scale shape; the direct float
//! convolution on the 64 → 48 tail ≤ 0.6× the im2col → GEMM time at the
//! detected level and ≤ 1.1× the scalar one as compiled portably; every
//! detected level of the binary convolution, window attention and
//! LayerNorm bit-identical to the portable loop and at most 1.1× its time (both
//! sides of these ratios are timed in turn inside one best-of loop, so a
//! burst of neighbour load hits every side); and a
//! full SCALES body convolution ≤ 1.5× the bare binary convolution — the
//! paper's "the scalings are cheap" claim as a floor.
//!
//! The run ends with one machine-readable line —
//! `BENCH_kernels {...}` — so CI logs give a per-commit perf trajectory
//! that scripts can scrape without parsing the human table.
//!
//! ```sh
//! cargo bench --bench micro_kernels           # full reps
//! SCALES_BENCH_SMOKE=1 cargo bench --bench micro_kernels
//! ```

use scales_binary::{BinaryConv2d, Fused};
use scales_core::{BodyConv, DeployedBodyConv, Method};
use scales_tensor::backend;
use scales_tensor::backend::Backend;
use scales_tensor::ops::{
    conv2d, conv2d_into_at, gelu_into_at, layer_norm_into_at, window_attention_into_at, Conv2dSpec,
};
use scales_tensor::workspace::{BitScratch, ConvScratch};
use scales_tensor::{simd, SimdLevel, Tensor};
use std::time::Instant;

fn filled(n: usize, seed: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32 + seed) * 0.37).sin()).collect()
}

/// Wall time of one call of `f`, in seconds.
fn timed(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps).map(|_| timed(&mut f)).fold(f64::INFINITY, f64::min)
}

/// Best-of-`reps` wall time of `f(i)` for every `i < n`, in seconds. Each
/// rep calls them in turn, so a burst of neighbour load lands on every
/// side of a ratio instead of on one.
fn best_of_each(reps: usize, n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for _ in 0..reps {
        for (i, b) in best.iter_mut().enumerate() {
            *b = b.min(timed(&mut || f(i)));
        }
    }
    best
}

/// Time `run` into `out` at every level this CPU offers, print a row per
/// level and emit a `{key}_level_{level}_us` key each: every level must
/// give the portable loop's bits and cost at most 1.1× its time (timer
/// jitter; a level that loses to the loop it was compiled from is a
/// dispatch or codegen regression).
fn against_portable(
    label: &str,
    key: &str,
    reps: usize,
    json: &mut Vec<String>,
    out: &mut [f32],
    mut run: impl FnMut(SimdLevel, &mut [f32]),
) {
    println!("\n  {label:<22} {:>12} {:>9}", "time", "vs none");
    // Weakest first: the portable loop is the first row.
    let levels: Vec<SimdLevel> = simd::available().collect();
    let times = best_of_each(reps, levels.len(), |i| run(levels[i], out));
    let portable = times[0];
    let mut want: Vec<u32> = Vec::new();
    for (&level, &t) in levels.iter().zip(&times) {
        run(level, out);
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        if level == SimdLevel::None {
            want = got;
        } else {
            assert!(got == want, "{label} at {level} must be bit-identical to the portable loop");
        }
        println!("  {:<22} {:>9.1} us {:>8.2}x", level.name(), t * 1e6, portable / t);
        json.push(format!("\"{key}_level_{}_us\":{:.1}", level.name(), t * 1e6));
        assert!(
            t <= portable * 1.1,
            "{label} at {level} must not lose to the portable loop ({:.1} vs {:.1} us)",
            t * 1e6,
            portable * 1e6
        );
    }
}

fn main() {
    let smoke = std::env::var("SCALES_BENCH_SMOKE").is_ok();
    let reps = if smoke { 3 } else { 10 };
    let mut json = Vec::new();

    println!(
        "hot-kernel micro-benchmarks ({} backend, {} reps, best-of)",
        backend::active().name(),
        reps
    );

    let level = Backend::detected();
    println!("  detected CPU simd level: {level}");

    // Float GEMM at the shapes the SRResNet serving path actually runs
    // over a 64×64 LR probe: head 3→16 (k3), body 16→16 (k3), tail
    // 16→12 (k3), and the paper-scale 64-channel body — scalar kernel vs
    // the runtime-dispatched SIMD kernel on identical inputs.
    println!(
        "\n  {:<22} {:>12} {:>12} {:>12} {:>9}",
        "gemm (m,k,n)", "scalar", "GFLOP/s", "simd", "speedup"
    );
    let mut paper_gemm_speedup = 0.0f64;
    for &(label, m, k, n) in &[
        ("head 16x27x4096", 16usize, 27usize, 4096usize),
        ("body 16x144x4096", 16, 144, 4096),
        ("tail 12x144x4096", 12, 144, 4096),
        ("paper 64x576x4096", 64, 576, 4096),
    ] {
        let a = filled(m * k, 1.0);
        let b = filled(k * n, 2.0);
        // Scalar, then simd, each into its own buffer.
        let kernels = [Backend::Scalar.kernel(), Backend::Simd.kernel()];
        let mut c = [vec![0.0f32; m * n], vec![0.0f32; m * n]];
        let times = best_of_each(reps, 2, |i| {
            c[i].fill(0.0);
            kernels[i].gemm(&a, &b, &mut c[i], m, k, n);
        });
        let (t, ts) = (times[0], times[1]);
        // The house contract, checked where it is cheapest to check.
        assert!(
            c[0].iter().zip(&c[1]).all(|(x, y)| x.to_bits() == y.to_bits()),
            "simd gemm must be bit-identical to scalar at {label}"
        );
        let gflops = (2.0 * m as f64 * k as f64 * n as f64) / t / 1e9;
        let speedup = t / ts;
        if label.starts_with("paper") {
            paper_gemm_speedup = speedup;
        }
        println!(
            "  {label:<22} {:>9.1} us {gflops:>12.2} {:>9.1} us {speedup:>8.2}x",
            t * 1e6,
            ts * 1e6
        );
        json.push(format!("\"gemm_{m}x{k}x{n}_us\":{:.1}", t * 1e6));
        json.push(format!("\"gemm_simd_{m}x{k}x{n}_us\":{:.1}", ts * 1e6));
    }
    if level.has_avx2() {
        assert!(
            paper_gemm_speedup >= 1.3,
            "AVX2 float GEMM must be >= 1.3x scalar on the paper-scale shape, got {paper_gemm_speedup:.2}x"
        );
    }

    // The direct float convolution at the deployed head / tail shapes,
    // once per level this CPU offers, beside the im2col → GEMM `conv2d`
    // (allocation included) on the simd and scalar backends.
    println!("\n  {:<22} {:>12} {:>9}", "float conv 3x3", "time", "vs gemm");
    // The ratio floors are asserted on the paper's tail, the shape that
    // dominates a deployed forward.
    for &(label, ic, oc, side, asserted) in &[
        ("tail_64x48_32", 64usize, 48usize, 32usize, true),
        ("head_3x64_32", 3, 64, 32, false),
        ("tail_16x12_16", 16, 12, 16, false),
    ] {
        let spec = Conv2dSpec::same(3);
        let input = Tensor::from_vec(filled(ic * side * side, 5.0), &[1, ic, side, side]).unwrap();
        let weight = Tensor::from_vec(filled(oc * ic * 9, 6.0), &[oc, ic, 3, 3]).unwrap();
        let reps = reps * 4;
        let gemm = |backend| {
            backend::with_thread_backend(backend, || {
                best_of(reps, || {
                    std::hint::black_box(conv2d(&input, &weight, spec).unwrap());
                })
            })
        };
        let (gemm_simd, gemm_scalar) = (gemm(Backend::Simd), gemm(Backend::Scalar));
        let want = conv2d(&input, &weight, spec).unwrap();
        println!("  {label:<22} {:>9.1} us {:>9}", gemm_simd * 1e6, "im2col");
        json.push(format!("\"floatconv_{label}_gemm_us\":{:.1}", gemm_simd * 1e6));
        let mut planes = Vec::new();
        let mut out = vec![0.0f32; want.len()];
        for level in simd::available() {
            let t = best_of(reps, || {
                conv2d_into_at(level, input.data(), 1, ic, side, side, &weight, None, spec, &mut planes, &mut out)
                    .unwrap();
            });
            assert!(
                want.data().iter().zip(&out).all(|(x, y)| x.to_bits() == y.to_bits()),
                "float conv at {level} must be bit-identical to im2col -> GEMM at {label}"
            );
            println!("  {:<22} {:>9.1} us {:>8.2}x", level.name(), t * 1e6, t / gemm_simd);
            json.push(format!("\"floatconv_{label}_level_{}_us\":{:.1}", level.name(), t * 1e6));
            if asserted && level == SimdLevel::None {
                assert!(
                    t <= gemm_scalar * 1.1,
                    "the portable float conv must cost <= 1.1x the scalar im2col -> GEMM ({:.1} vs {:.1} us)",
                    t * 1e6,
                    gemm_scalar * 1e6
                );
            }
            if asserted && level == Backend::detected() && level.has_avx2() {
                assert!(
                    t <= gemm_simd * 0.6,
                    "the float conv at {level} must cost <= 0.6x im2col -> GEMM ({:.1} vs {:.1} us)",
                    t * 1e6,
                    gemm_simd * 1e6
                );
            }
        }
    }

    // The deployed GELU slice over one SwinIR-lite MLP activation (16,384
    // values), once per level this CPU offers: a lane-wise loop over the
    // branch-free `math::tanh`, so every level gives the portable loop's
    // bits.
    {
        let x: Vec<f32> = filled(16_384, 8.0).iter().map(|v| v * 3.0).collect();
        let mut out = vec![0.0f32; x.len()];
        println!("\n  {:<22} {:>12} {:>9}", "gelu 16384 values", "ns/value", "vs none");
        let (mut portable, mut want) = (f64::NAN, Vec::new());
        for level in simd::available() {
            let t = best_of(reps * 20, || gelu_into_at(level, Some(&x), &mut out).unwrap());
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            if level == SimdLevel::None {
                (portable, want) = (t, got);
            } else {
                assert!(got == want, "gelu at {level} must be bit-identical to the portable loop");
            }
            let ns = t * 1e9 / x.len() as f64;
            println!("  {:<22} {ns:>12.3} {:>8.2}x", level.name(), portable / t);
            json.push(format!("\"gelu_level_{}_ns_per_value\":{ns:.3}", level.name()));
        }
    }

    // Window attention at the deployed transformer's shape (32 channels,
    // the zoo's 4×4 window) at two LR sides, and at 2×2 and 8×8 windows so
    // the any-window instance is timed too; then the transformer's
    // LayerNorm over the same 32 channels.
    {
        let (reps, c) = (reps * 20, 32usize);
        let mut staging = Vec::new();
        for (label, key, window, side) in [
            ("attn w4 32ch 16x16", "attn_w4_32ch_16x16", 4usize, 16usize),
            ("attn w4 32ch 24x24", "attn_w4_32ch_24x24", 4, 24),
            ("attn w2 32ch 16x16", "attn_w2_32ch_16x16", 2, 16),
            ("attn w8 32ch 16x16", "attn_w8_32ch_16x16", 8, 16),
        ] {
            let len = c * side * side;
            let (q, k, v) = (filled(len, 9.0), filled(len, 10.0), filled(len, 11.0));
            against_portable(label, key, reps, &mut json, &mut vec![0.0; len], |level, out| {
                window_attention_into_at(level, &q, &k, &v, 1, c, side, side, window, &mut staging, out).unwrap();
            });
        }
        let hw = 16 * 16;
        let (x, gamma, beta) = (filled(c * hw, 12.0), filled(c, 13.0), filled(c, 14.0));
        let (label, key) = ("layer_norm 32ch 16x16", "layer_norm_32ch_16x16");
        against_portable(label, key, reps, &mut json, &mut vec![0.0; c * hw], |level, out| {
            layer_norm_into_at(level, &x, 1, c, hw, &gamma, &beta, 1e-5, &mut staging, out).unwrap();
        });
    }

    // The direct binary convolution at the paper's body shape and at the
    // 1×1 shapes of a lowered transformer linear, once per level this CPU
    // offers, then the whole deployed SCALES layer around the body shape on
    // the detected level.
    {
        // Kernel rows are short; take more samples so the ratios hold on a
        // noisy runner.
        let reps = reps * 20;
        let mut bits = BitScratch::default();
        let mut per_level = |label: &str, key: &str, conv: &BinaryConv2d, side: usize| {
            let input = filled(conv.in_channels() * side * side, 4.0);
            let mut out = vec![0.0f32; conv.out_channels() * side * side];
            against_portable(label, key, reps, &mut json, &mut out, |level, out| {
                conv.forward_at(level, &input, 1, side, side, &Fused::default(), &mut bits, out).unwrap();
            });
        };
        let (ch, side) = (64usize, 32usize);
        let trained = BodyConv::new(Method::scales(), ch, ch, 3, &mut scales_nn::init::rng(6)).unwrap();
        let body = DeployedBodyConv::from_trained(&trained).unwrap();
        let DeployedBodyConv::Scales(layer) = &body else {
            panic!("a SCALES body convolution lowers to the SCALES variant");
        };
        let conv = layer.conv();
        per_level("binary conv 64ch 32x32", "binconv", conv, side);
        // The lite models' body conv (`edge_fleet`, `runtime_bursts`), then
        // the lowered transformer linears.
        for (label, key, ic, oc, k) in [
            ("bin 3x3 16->16 16x16", "binconv_k3_16x16", 16usize, 16usize, 3usize),
            ("bin 1x1 32->32 16x16", "binconv_k1_32x32", 32, 32, 1),
            ("bin 1x1 64->32 16x16", "binconv_k1_64x32", 64, 32, 1),
        ] {
            let weight = Tensor::from_vec(filled(oc * ic * k * k, 7.0), &[oc, ic, k, k]).unwrap();
            per_level(label, key, &BinaryConv2d::from_float_weight(&weight).unwrap(), 16);
        }
        let input = filled(ch * side * side, 4.0);
        let mut out = vec![0.0f32; ch * side * side];
        let (bare, whole) = backend::with_thread_backend(Backend::Simd, || {
            let mut scratch = ConvScratch::new();
            let bare = best_of(reps, || conv.forward_into(&input, 1, side, side, &mut bits, &mut out).unwrap());
            let whole =
                best_of(reps, || body.forward_into(&input, 1, side, side, &mut scratch, &mut out).unwrap());
            (bare, whole)
        });
        println!("  {:<22} {:>9.1} us {:>8.2}x of bare", "SCALES body conv", whole * 1e6, whole / bare);
        json.push(format!("\"body_conv_us\":{:.1}", whole * 1e6));
        json.push(format!("\"body_conv_over_bare\":{:.3}", whole / bare));
        assert!(
            whole <= bare * 1.5,
            "a full SCALES body conv must cost <= 1.5x the bare binary conv, got {:.2}x",
            whole / bare
        );
    }

    // Binary convolution over a 64×64 image: allocating forward vs the
    // scratch-reusing forward_into that serving runs, on the scalar and
    // simd backends (the simd rows run the kernel and the sign packer
    // compiled for the detected level).
    println!(
        "\n  {:<22} {:>12} {:>12} {:>12} {:>9}",
        "binary conv 64x64", "alloc", "scratch", "simd scratch", "speedup"
    );
    for &(label, ch) in &[("16 channels", 16usize), ("64 channels", 64usize)] {
        let weight = Tensor::from_vec(filled(ch * ch * 9, 3.0), &[ch, ch, 3, 3]).unwrap();
        let conv = BinaryConv2d::from_float_weight(&weight).unwrap();
        let input = Tensor::from_vec(filled(ch * 64 * 64, 4.0), &[1, ch, 64, 64]).unwrap();
        let alloc = best_of(reps, || {
            let _ = conv.forward(&input).unwrap();
        });
        let mut scratch = BitScratch::default();
        let mut out = vec![0.0f32; ch * 64 * 64];
        // Warm the scratch so the timed region is the steady state.
        conv.forward_into(input.data(), 1, 64, 64, &mut scratch, &mut out).unwrap();
        let fast = backend::with_thread_backend(Backend::Scalar, || {
            best_of(reps, || {
                conv.forward_into(input.data(), 1, 64, 64, &mut scratch, &mut out).unwrap();
            })
        });
        let scalar_out = out.clone();
        let simd = backend::with_thread_backend(Backend::Simd, || {
            best_of(reps, || {
                conv.forward_into(input.data(), 1, 64, 64, &mut scratch, &mut out).unwrap();
            })
        });
        assert!(
            scalar_out.iter().zip(out.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "simd binary conv must be bit-identical to scalar at {label}"
        );
        println!(
            "  {label:<22} {:>9.1} us {:>9.1} us {:>9.1} us {:>8.2}x",
            alloc * 1e6,
            fast * 1e6,
            simd * 1e6,
            fast / simd
        );
        json.push(format!("\"binconv_{ch}ch_alloc_us\":{:.1}", alloc * 1e6));
        json.push(format!("\"binconv_{ch}ch_scratch_us\":{:.1}", fast * 1e6));
        json.push(format!("\"binconv_{ch}ch_simd_us\":{:.1}", simd * 1e6));
    }

    println!("\nBENCH_kernels {{{}}}", json.join(","));
}
