//! Generated differential tests for the two direct convolution kernels —
//! XNOR-popcount (`scales::binary`) and float (`FloatConv2d::forward_into`):
//! random shapes — channel counts across the 64-lane word boundary and the
//! float kernel's channel block, kernels larger than the image, strides,
//! over-padding, widths that leave ragged vector tails, batches — on which
//! every backend and every `SimdLevel` the CPU offers must agree
//! bit-for-bit with each other and with the im2col → GEMM reference, and
//! the fused SCALES epilogue must agree with the same operations run as
//! separate passes. The reference's own batched GEMM callers (`conv2d`,
//! `batched_matmul`) are compared across backends too.
//!
//! And for the NCHW-native transformer ops of the deployed path
//! (`layer_norm_into`, `window_attention_into`, GELU / `Scale`): each
//! against the composition of tensor ops the training tape runs on its
//! token layout, bit for bit — and all three compiled per level (the GELU
//! slice, window attention, LayerNorm) at every level and on both backends.
//!
//! And for the ops the graph executor writes out by hand (`Relu`, `Prelu`,
//! `Add`, `Concat`, `PixelShuffle`, `BicubicUp`, `ChannelAttention`) and
//! the deployed SCALES layer: each against its tensor-level formulation,
//! which lives here, in test code — the executor and the layers keep one
//! body each.

use proptest::prelude::*;
use scales::autograd::Var;
use scales::binary::{BinaryConv2d, Fused, SignShift};
use scales::core::{DeployedBodyConv, DeployedScalesConv2d, FloatConv2d, ScalesComponents, ScalesConv2d};
use scales::data::{resize_bicubic_into, resize_bicubic_tensor, BicubicAxisTaps};
use scales::models::deploy::DeployedChannelAttention;
use scales::models::{DeployedNetworkBuilder, DeployedOp, Workspace};
use scales::nn::init::rng;
use scales::nn::Module as _;
use scales::tensor::backend::{with_thread_backend, Backend};
use scales::tensor::ops::{
    batched_matmul, conv1d, conv2d, gelu_into, gelu_into_at, global_avg_pool, layer_norm_into, layer_norm_into_at,
    matmul, pixel_shuffle, sigmoid, window_attention_into, window_attention_into_at, Conv2dSpec,
};
use scales::tensor::workspace::{BitScratch, ConvScratch};
use scales::tensor::{simd, SimdLevel, Tensor};

/// SplitMix64 stream for the test data (the strategies only pick shapes).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn signs(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| if self.next() & 1 == 0 { 1.0 } else { -1.0 }).collect()
    }

    /// Values in `[-1, 1)` with an exact zero now and then (the
    /// `sign(0) = +1` rule must survive the in-register β shift).
    fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match self.next() % 16 {
                0 => 0.0,
                _ => (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            })
            .collect()
    }

    /// [`Stream::values`] salted with what float kernels get wrong: `−0.0`
    /// (a padded tap's `+0.0` product must not flip it), and now and then
    /// a NaN or an infinity.
    fn hostile_values(&mut self, n: usize) -> Vec<f32> {
        let mut values = self.values(n);
        for v in &mut values {
            match self.next() % 512 {
                0..=15 => *v = -0.0,
                16 => *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(self.next() % 3) as usize],
                _ => {}
            }
        }
        values
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one pattern. Where two NaNs meet (an
/// input NaN and the `0 · ∞` of another tap), x86 returns the first
/// operand's sign and payload, and which operand of a commutative `+` or
/// `·` comes first is the compiler's choice per compilation — Rust leaves
/// NaN payloads unspecified. Which elements are NaN is part of the
/// contract; every other element, `−0.0` and the infinities included, is
/// compared bit for bit.
fn float_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// An elementwise slice op `run(src, out)` applied to `x` out of place
/// (`src = Some(x)`) and in place (`src = None`, `out` holding `x`), as
/// [`float_bits`].
fn out_of_place_and_in_place(x: &[f32], run: impl Fn(Option<&[f32]>, &mut [f32])) -> [Vec<u32>; 2] {
    let mut out = vec![f32::NAN; x.len()];
    run(Some(x), &mut out);
    let mut in_place = x.to_vec();
    run(None, &mut in_place);
    [float_bits(&out), float_bits(&in_place)]
}

/// A scratch whose buffers are longer than any case needs and full of
/// garbage, as a long-lived serving workspace would hand it over.
fn stale_scratch() -> BitScratch {
    BitScratch { act: vec![0xDEAD_BEEF_DEAD_BEEF; 40_000], bases: vec![-12_345; 40_000] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `forward_into` on ±1 data equals `s_c · conv2d` exactly, on every
    /// backend and at every SIMD level, whatever the geometry.
    #[test]
    fn direct_kernel_matches_float_conv_on_every_backend_and_level(
        ic in 1usize..201,
        oc in 1usize..7,
        k_pick in 0usize..3,
        stride in 1usize..3,
        pad_pick in 0usize..6,
        h in 1usize..41,
        w in 1usize..41,
        n in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let k = [1, 3, 5][k_pick];
        let spec = Conv2dSpec { stride, padding: pad_pick % (k + 1) };
        let mut data = Stream(seed);
        let weight = Tensor::from_vec(data.signs(oc * ic * k * k), &[oc, ic, k, k]).unwrap();
        let input = Tensor::from_vec(data.signs(n * ic * h * w), &[n, ic, h, w]).unwrap();
        let scales: Vec<f32> = data.values(oc).iter().map(|v| v * 2.0 + 0.25).collect();
        let mut conv = BinaryConv2d::from_float_weight(&weight).unwrap().with_spec(spec);
        conv.set_scales(scales.clone()).unwrap();
        let label = format!("ic={ic} oc={oc} k={k} {spec:?} {h}x{w} n={n} seed={seed}");

        let Ok(reference) = conv2d(&input, &weight, spec) else {
            // An image smaller than the un-padded kernel: both sides refuse.
            prop_assert!(conv.forward(&input).is_err(), "{}: kernel accepted a bad geometry", label);
            return Ok(());
        };
        let plane = reference.len() / (n * oc);
        let want: Vec<u32> = reference
            .data()
            .iter()
            .enumerate()
            .map(|(i, dot)| (scales[i / plane % oc] * dot).to_bits())
            .collect();

        let mut scratch = stale_scratch();
        let mut got = vec![f32::NAN; want.len()];
        for backend in [Backend::Scalar, Backend::Simd] {
            got.fill(f32::NAN);
            with_thread_backend(backend, || conv.forward_into(input.data(), n, h, w, &mut scratch, &mut got)).unwrap();
            prop_assert!(bits(&got) == want, "{}: backend {}", label, backend);
        }
        for level in simd::available() {
            got.fill(f32::NAN);
            conv.forward_at(level, input.data(), n, h, w, &Fused::default(), &mut scratch, &mut got).unwrap();
            prop_assert!(bits(&got) == want, "{}: level {}", label, level);
        }
    }

    /// The direct float convolution equals im2col → GEMM (`conv2d` + bias)
    /// bit for bit, on every backend and at every SIMD level, whatever the
    /// geometry and however hostile the data.
    #[test]
    fn direct_float_conv_matches_im2col_gemm_on_every_backend_and_level(
        ic in 1usize..71,
        oc in 1usize..10,
        k_pick in 0usize..3,
        stride in 1usize..3,
        pad_pick in 0usize..6,
        h in 1usize..41,
        w in 1usize..41,
        n in 1usize..4,
        with_bias in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let k = [1, 3, 5][k_pick];
        let spec = Conv2dSpec { stride, padding: pad_pick % (k + 1) };
        let mut data = Stream(seed);
        let weight = Tensor::from_vec(data.hostile_values(oc * ic * k * k), &[oc, ic, k, k]).unwrap();
        let bias = (with_bias == 1).then(|| Tensor::from_vec(data.values(oc), &[1, oc, 1, 1]).unwrap());
        let input = Tensor::from_vec(data.hostile_values(n * ic * h * w), &[n, ic, h, w]).unwrap();
        let conv = FloatConv2d::new(weight, bias, spec).unwrap();
        let label = format!("ic={ic} oc={oc} k={k} {spec:?} {h}x{w} n={n} bias={with_bias} seed={seed}");

        // A long-lived workspace hands the scratch over oversized and full
        // of garbage.
        let mut scratch = vec![f32::NAN; 150_000];
        let Ok(reference) = with_thread_backend(Backend::Scalar, || conv.forward(&input)) else {
            // An image smaller than the un-padded kernel: both sides refuse.
            let refused = conv.forward_into(input.data(), n, h, w, &mut scratch, &mut []).is_err();
            prop_assert!(refused, "{}: kernel accepted a bad geometry", label);
            return Ok(());
        };
        let want = float_bits(reference.data());

        // The reference itself — one im2col → GEMM per image — is the same
        // on the simd GEMM, and a batch is its images convolved one by one.
        let on_simd = with_thread_backend(Backend::Simd, || conv.forward(&input)).unwrap();
        prop_assert!(float_bits(on_simd.data()) == want, "{}: conv2d on simd", label);
        let per_image = want.len() / n;
        for b in 0..n {
            let image = input.slice_axis(0, b, 1).unwrap();
            let alone = with_thread_backend(Backend::Simd, || conv.forward(&image)).unwrap();
            prop_assert!(
                float_bits(alone.data()) == want[b * per_image..(b + 1) * per_image],
                "{}: image {} alone",
                label,
                b
            );
        }

        let mut got = vec![f32::NAN; want.len()];
        for backend in [Backend::Scalar, Backend::Simd] {
            got.fill(f32::NAN);
            with_thread_backend(backend, || conv.forward_into(input.data(), n, h, w, &mut scratch, &mut got)).unwrap();
            prop_assert!(float_bits(&got) == want, "{}: backend {}", label, backend);
        }
        for level in simd::available() {
            got.fill(f32::NAN);
            conv.forward_at(level, input.data(), n, h, w, &mut scratch, &mut got).unwrap();
            prop_assert!(float_bits(&got) == want, "{}: level {}", label, level);
        }
    }

    /// Every `Fused` operand, alone and together, equals the same operation
    /// as a separate pass over the unfused output — at every level, for the
    /// 3×3 body convolution and for the `k = 1` form a lowered linear runs
    /// (pixels of one word, exactly one, and several with a masked tail).
    #[test]
    fn fused_operands_match_separate_passes(
        c in 1usize..80,
        linear_pick in 0usize..12,
        side_h in 1usize..24,
        side_w in 1usize..24,
        n in 1usize..3,
        which in 0usize..64,
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = (side_h, side_w);
        // Half the cases are 1×1 at the channel counts that matter there.
        let (c, k) = match [1usize, 31, 32, 64, 65, 130].get(linear_pick) {
            Some(&ic) => (ic, 1),
            None => (c, 3),
        };
        let mut data = Stream(seed);
        let weight = Tensor::from_vec(data.values(c * c * k * k), &[c, c, k, k]).unwrap();
        let conv = BinaryConv2d::from_float_weight(&weight).unwrap();
        let input = data.values(n * c * h * w);
        let (beta, means, bias) = (data.values(c), data.values(n), data.values(c));
        let (spatial, channel) = (data.values(n * h * w), data.values(n * c));
        let fused = Fused {
            shift: match which % 3 {
                0 => SignShift::None,
                1 => SignShift::PerChannel(&beta),
                _ => SignShift::PerImage(&means),
            },
            bias: (which & 32 != 0).then_some(&bias[..]),
            spatial: (which & 4 != 0).then_some(&spatial[..]),
            channel: (which & 8 != 0).then_some(&channel[..]),
            skip: which & 16 != 0,
        };
        // Unfused: shift a copy of the input, convolve, then one pass per
        // operand in `Fused` field order.
        let mut shifted = input.clone();
        for (i, v) in shifted.iter_mut().enumerate() {
            let (b, ci) = (i / (c * h * w), i / (h * w) % c);
            match fused.shift {
                SignShift::None => {}
                SignShift::PerChannel(beta) => *v -= beta[ci],
                SignShift::PerImage(means) => *v -= means[b],
            }
        }
        let mut scratch = stale_scratch();
        let mut want = vec![f32::NAN; input.len()];
        with_thread_backend(Backend::Scalar, || conv.forward_into(&shifted, n, h, w, &mut scratch, &mut want)).unwrap();
        for (i, v) in want.iter_mut().enumerate() {
            let (b, co, p) = (i / (c * h * w), i / (h * w) % c, i % (h * w));
            if let Some(bias) = fused.bias {
                *v += bias[co];
            }
            if let Some(gate) = fused.spatial {
                *v *= gate[b * h * w + p];
            }
            if let Some(gate) = fused.channel {
                *v *= gate[b * c + co];
            }
            if fused.skip {
                *v += input[i];
            }
        }
        let mut got = vec![f32::NAN; input.len()];
        for level in simd::available() {
            got.fill(f32::NAN);
            conv.forward_at(level, &input, n, h, w, &fused, &mut scratch, &mut got).unwrap();
            prop_assert!(
                bits(&got) == bits(&want),
                "c={} k={} {}x{} n={} which={} seed={}: level {}", c, k, h, w, n, which, seed, level
            );
        }
    }

    /// `layer_norm_into` on an NCHW map equals `nn::LayerNorm` — the tape's
    /// mean / centre / variance / normalise / affine chain — on the same
    /// values laid out as tokens, bit for bit, hostile values included: at
    /// every level the CPU offers and on both backends. Kills, each tried
    /// by hand: the final pass as `x · (1/d)`, and the variance summed in
    /// descending channel order.
    #[test]
    fn layer_norm_matches_the_tape_on_tokens(
        c in 1usize..71,
        h in 1usize..25,
        w in 1usize..25,
        n in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut data = Stream(seed);
        let x = Tensor::from_vec(data.hostile_values(n * c * h * w), &[n, c, h * w]).unwrap();
        let ln = scales::nn::layers::LayerNorm::new(c);
        let (gamma, beta) = (data.values(c), data.values(c));
        ln.params()[0].set_value(Tensor::from_vec(gamma.clone(), &[c]).unwrap());
        ln.params()[1].set_value(Tensor::from_vec(beta.clone(), &[c]).unwrap());
        let tokens = Var::new(x.permute(&[0, 2, 1]).unwrap());
        let want = ln.forward(&tokens).unwrap().value().permute(&[0, 2, 1]).unwrap();

        let mut stats = vec![f32::NAN; 2_000];
        let mut got = vec![f32::NAN; x.len()];
        for level in simd::available() {
            got.fill(f32::NAN);
            layer_norm_into_at(level, x.data(), n, c, h * w, &gamma, &beta, ln.eps(), &mut stats, &mut got).unwrap();
            prop_assert!(
                float_bits(&got) == float_bits(want.data()),
                "c={} {}x{} n={} seed={}: level {}", c, h, w, n, seed, level
            );
        }
        for backend in [Backend::Scalar, Backend::Simd] {
            got.fill(f32::NAN);
            with_thread_backend(backend, || {
                layer_norm_into(x.data(), n, c, h * w, &gamma, &beta, ln.eps(), &mut stats, &mut got)
            })
            .unwrap();
            prop_assert!(
                float_bits(&got) == float_bits(want.data()),
                "c={} {}x{} n={} seed={}: backend {}", c, h, w, n, seed, backend
            );
        }
    }

    /// `window_attention_into` on NCHW maps equals the tape's
    /// `window_partition → q·kᵀ → ·1/√c → softmax → ·v → window_merge` on
    /// the same values, bit for bit, hostile values included. Windows 1, 2,
    /// 3 and 8 run the any-window instance (an odd token count, 9, and
    /// several lane groups, 64), window 4 the zoo's; channel counts leave
    /// ragged channel blocks. Kills, each tried by hand: a context summed
    /// in descending token order, `1/√c` applied to `q` before the dot, the
    /// softmax's divide applied in every context block instead of the
    /// first, and the last score taken for the row maximum.
    #[test]
    fn window_attention_matches_the_tape_on_tokens(
        c in 1usize..71,
        window_pick in 0usize..5,
        windows_h in 1usize..7,
        windows_w in 1usize..7,
        n in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let window = [1usize, 2, 3, 4, 8][window_pick];
        // At most 24 pixels a side, as with windows up to 4.
        let (h, w) = (windows_h.min(24 / window) * window, windows_w.min(24 / window) * window);
        let mut data = Stream(seed);
        let mut map = || Tensor::from_vec(data.hostile_values(n * c * h * w), &[n, c, h, w]).unwrap();
        let (q, k, v) = (map(), map(), map());
        let tokens = |t: &Tensor| Var::new(t.clone()).window_partition(window).unwrap();
        let scores = tokens(&q)
            .batched_matmul(&tokens(&k).permute(&[0, 2, 1]).unwrap())
            .unwrap()
            .scale(1.0 / (c as f32).sqrt());
        let context = scores.softmax_last_axis().unwrap().batched_matmul(&tokens(&v)).unwrap();
        let want = context.window_merge(n, c, h, w, window).unwrap().value();

        let mut staging = vec![f32::NAN; 20_000];
        let mut got = vec![f32::NAN; q.len()];
        for backend in [Backend::Scalar, Backend::Simd] {
            got.fill(f32::NAN);
            with_thread_backend(backend, || {
                window_attention_into(q.data(), k.data(), v.data(), n, c, h, w, window, &mut staging, &mut got)
            })
            .unwrap();
            prop_assert!(
                float_bits(&got) == float_bits(want.data()),
                "c={} window={} {}x{} n={} seed={}: backend {}", c, window, h, w, n, seed, backend
            );
        }
        // A window that does not divide the extents is a typed error.
        let refused = window_attention_into(q.data(), k.data(), v.data(), n, c, h, w, h + 1, &mut staging, &mut got);
        prop_assert!(refused.is_err());
    }

    /// The two token ops compiled per level — the GELU slice, out of place
    /// and in place, and `window_attention_into` — give the same bits at
    /// every level the CPU offers and on both backends, hostile values
    /// included. GELU's length is never a multiple of 16, so the remainder
    /// lanes run; its values reach `tanh`'s saturation. Attention draws
    /// windows 1, 2, 3, 4 and 8, so both instances run at every level.
    #[test]
    fn gelu_and_window_attention_agree_at_every_level_and_backend(
        blocks in 0usize..12,
        rest in 1usize..16,
        c in 1usize..40,
        window_pick in 0usize..5,
        windows_h in 1usize..5,
        windows_w in 1usize..5,
        n in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut data = Stream(seed);
        let len = 16 * blocks + rest;
        let x: Vec<f32> = data.hostile_values(len).iter().map(|v| v * 6.0).collect();
        let want = float_bits(Var::new(Tensor::from_vec(x.clone(), &[len]).unwrap()).gelu().value().data());
        for level in simd::available() {
            let got = out_of_place_and_in_place(&x, |src, out| gelu_into_at(level, src, out).unwrap());
            prop_assert!(got == [want.clone(), want.clone()], "gelu len={} seed={}: level {}", len, seed, level);
        }
        for backend in [Backend::Scalar, Backend::Simd] {
            let got = out_of_place_and_in_place(&x, |src, out| {
                with_thread_backend(backend, || gelu_into(src, out)).unwrap();
            });
            prop_assert!(got == [want.clone(), want.clone()], "gelu len={} seed={}: backend {}", len, seed, backend);
        }
        prop_assert!(gelu_into(Some(&x[1..]), &mut vec![0.0; len]).is_err());

        let window = [1usize, 2, 3, 4, 8][window_pick];
        // At most 16 pixels a side, as with windows up to 4.
        let (h, w) = (windows_h.min(16 / window) * window, windows_w.min(16 / window) * window);
        let mut map = || data.hostile_values(n * c * h * w);
        let (q, k, v) = (map(), map(), map());
        let mut staging = vec![f32::NAN; 20_000];
        let mut want = vec![f32::NAN; q.len()];
        window_attention_into_at(SimdLevel::None, &q, &k, &v, n, c, h, w, window, &mut staging, &mut want).unwrap();
        let mut got = vec![f32::NAN; q.len()];
        for level in simd::available() {
            got.fill(f32::NAN);
            window_attention_into_at(level, &q, &k, &v, n, c, h, w, window, &mut staging, &mut got).unwrap();
            prop_assert!(
                float_bits(&got) == float_bits(&want),
                "attention c={} window={} {}x{} n={} seed={}: level {}", c, window, h, w, n, seed, level
            );
        }
        for backend in [Backend::Scalar, Backend::Simd] {
            got.fill(f32::NAN);
            with_thread_backend(backend, || {
                window_attention_into(&q, &k, &v, n, c, h, w, window, &mut staging, &mut got)
            })
            .unwrap();
            prop_assert!(
                float_bits(&got) == float_bits(&want),
                "attention c={} window={} {}x{} n={} seed={}: backend {}", c, window, h, w, n, seed, backend
            );
        }
    }
}

/// The batched GEMM callers — `batched_matmul`, and `conv2d` as one
/// im2col → GEMM per image — on the simd backend against the scalar one,
/// at GEMM shapes around every register-tile boundary (rows around the
/// 4-row quad, columns around and below the 8-wide tile, odd `k`): a 1×1
/// convolution of `k` channels over a `1 × n` image into `m` channels is
/// exactly the `m × k × n` product. And a batch equals its entries
/// multiplied one by one (for `conv2d` the generated float-conv case above
/// checks the same).
#[test]
fn batched_gemm_callers_are_bit_identical_across_backends_at_tile_boundaries() {
    let mut data = Stream(19);
    for &(m, k, n) in
        &[(1usize, 1usize, 1usize), (3, 5, 7), (4, 9, 8), (5, 13, 9), (8, 27, 16), (13, 7, 23), (17, 64, 33), (4, 3, 4)]
    {
        for batch in [1usize, 2, 5] {
            let a = Tensor::from_vec(data.hostile_values(batch * m * k), &[batch, m, k]).unwrap();
            let b = Tensor::from_vec(data.hostile_values(batch * k * n), &[batch, k, n]).unwrap();
            let want = with_thread_backend(Backend::Scalar, || batched_matmul(&a, &b).unwrap());
            let got = with_thread_backend(Backend::Simd, || batched_matmul(&a, &b).unwrap());
            assert_eq!(float_bits(got.data()), float_bits(want.data()), "batched_matmul {batch}x({m},{k},{n})");
            for i in 0..batch {
                let entry = |t: &Tensor, rows, cols| t.slice_axis(0, i, 1).unwrap().reshape(&[rows, cols]).unwrap();
                let alone = with_thread_backend(Backend::Simd, || matmul(&entry(&a, m, k), &entry(&b, k, n)).unwrap());
                assert_eq!(
                    float_bits(alone.data()),
                    float_bits(&want.data()[i * m * n..(i + 1) * m * n]),
                    "batched_matmul {batch}x({m},{k},{n}): entry {i} alone"
                );
            }
        }
        let weight = Tensor::from_vec(data.hostile_values(m * k), &[m, k, 1, 1]).unwrap();
        for images in [1usize, 2, 3] {
            let input = Tensor::from_vec(data.hostile_values(images * k * n), &[images, k, 1, n]).unwrap();
            let want = with_thread_backend(Backend::Scalar, || conv2d(&input, &weight, Conv2dSpec::default()).unwrap());
            let got = with_thread_backend(Backend::Simd, || conv2d(&input, &weight, Conv2dSpec::default()).unwrap());
            assert_eq!(float_bits(got.data()), float_bits(want.data()), "conv2d {images}x({m},{k},{n})");
        }
    }
}

/// Run a small graph (its last op is the output) on `x` through both
/// schedules of the one executor: slot reuse off (`forward`) and planned.
fn in_both_executors(ops: Vec<DeployedOp>, x: &Tensor) -> [(&'static str, Tensor); 2] {
    let mut b = DeployedNetworkBuilder::new("one-op", 1);
    let out = ops.into_iter().map(|op| b.push(op)).last().expect("at least one op");
    let graph = b.finish(out);
    [
        ("reuse off", graph.forward(x).unwrap()),
        ("planned", graph.forward_planned(x, &mut Workspace::new()).unwrap()),
    ]
}

/// The two elementwise transformer ops, through both executors, against
/// the tape's `gelu` / `scale` on the same hostile values.
#[test]
fn gelu_and_scale_ops_match_the_tape_in_both_executors() {
    let mut data = Stream(11);
    let x = Tensor::from_vec(data.hostile_values(2 * 5 * 6 * 7), &[2, 5, 6, 7]).unwrap();
    let tape = Var::new(x.clone());
    for (op, want) in [
        (DeployedOp::Gelu { src: 0 }, tape.gelu().value()),
        (DeployedOp::Scale { factor: 0.1, src: 0 }, tape.scale(0.1).value()),
    ] {
        let label = op.kind();
        for (executor, got) in in_both_executors(vec![op], &x) {
            assert_eq!(float_bits(got.data()), float_bits(want.data()), "{label}, {executor}");
        }
    }
}

/// Every other op the executor writes out by hand, against the
/// tensor-level operation it stands for, on hostile values: `Relu` /
/// `Prelu` / `Add` vs `map` / `zip_map`, `Concat` vs `Tensor::concat`,
/// `PixelShuffle` vs `ops::pixel_shuffle`, `BicubicUp` vs
/// `resize_bicubic_tensor` per image, and `ChannelAttention` vs
/// `global_avg_pool → conv2d → relu → conv2d → sigmoid → multiply`.
#[test]
fn graph_ops_match_their_tensor_level_formulation_in_both_executors() {
    let mut data = Stream(13);
    let (n, c, h, w) = (2usize, 8usize, 6usize, 7usize);
    let x = Tensor::from_vec(data.hostile_values(n * c * h * w), &[n, c, h, w]).unwrap();
    let relu = |t: &Tensor| t.map(|v| v.max(0.0));
    let halved = x.map(|v| v * 0.5);
    let halve = || DeployedOp::Scale { factor: 0.5, src: 0 };

    let bicubic = |scale: usize| {
        let images: Vec<Tensor> = (0..n)
            .map(|b| {
                let image = x.slice_axis(0, b, 1).unwrap().reshape(&[c, h, w]).unwrap();
                let up = resize_bicubic_tensor(&image, h * scale, w * scale).unwrap();
                up.reshape(&[1, c, h * scale, w * scale]).unwrap()
            })
            .collect();
        Tensor::concat(&images.iter().collect::<Vec<_>>(), 0).unwrap()
    };

    let squeeze = 3;
    let mut gate_conv = |oc: usize, ic: usize| {
        let weight = Tensor::from_vec(data.values(oc * ic), &[oc, ic, 1, 1]).unwrap();
        let bias = Tensor::from_vec(data.values(oc), &[1, oc, 1, 1]).unwrap();
        move || FloatConv2d::new(weight.clone(), Some(bias.clone()), Conv2dSpec::default()).unwrap()
    };
    let (down, up) = (gate_conv(squeeze, c), gate_conv(c, squeeze));
    let gate = up()
        .forward(&relu(&down().forward(&global_avg_pool(&x).unwrap()).unwrap()))
        .unwrap()
        .map(sigmoid);

    let cases: Vec<(&str, Vec<DeployedOp>, Tensor)> = vec![
        ("relu", vec![DeployedOp::Relu { src: 0 }], relu(&x)),
        (
            "prelu",
            vec![DeployedOp::Prelu { slope: 0.25, src: 0 }],
            x.map(|v| if v > 0.0 { v } else { 0.25 * v }),
        ),
        ("add x + x", vec![DeployedOp::Add { lhs: 0, rhs: 0 }], x.zip_map(&x, |a, b| a + b).unwrap()),
        (
            // The planner runs this one in place on the dying right operand.
            "add x + x/2",
            vec![halve(), DeployedOp::Add { lhs: 0, rhs: 1 }],
            x.zip_map(&halved, |a, b| a + b).unwrap(),
        ),
        (
            "concat",
            vec![halve(), DeployedOp::Relu { src: 0 }, DeployedOp::Concat { srcs: vec![0, 1, 2, 0] }],
            Tensor::concat(&[&x, &halved, &relu(&x), &x], 1).unwrap(),
        ),
        ("pixel_shuffle", vec![DeployedOp::PixelShuffle { factor: 2, src: 0 }], pixel_shuffle(&x, 2).unwrap()),
        ("bicubic x2", vec![DeployedOp::BicubicUp { scale: 2, src: 0 }], bicubic(2)),
        ("bicubic x3", vec![DeployedOp::BicubicUp { scale: 3, src: 0 }], bicubic(3)),
        ("bicubic x4", vec![DeployedOp::BicubicUp { scale: 4, src: 0 }], bicubic(4)),
        (
            "channel_attention",
            vec![DeployedOp::ChannelAttention { ca: DeployedChannelAttention::new(down(), up()), src: 0 }],
            x.zip_map(&gate, |a, g| a * g).unwrap(),
        ),
    ];
    for (label, ops, want) in cases {
        for (executor, got) in in_both_executors(ops, &x) {
            assert_eq!(got.shape(), want.shape(), "{label}, {executor}");
            assert_eq!(float_bits(got.data()), float_bits(want.data()), "{label}, {executor}");
        }
    }

    // Factor 3 needs a channel count divisible by 9.
    let x9 = Tensor::from_vec(data.hostile_values(n * 18 * h * w), &[n, 18, h, w]).unwrap();
    let want = pixel_shuffle(&x9, 3).unwrap();
    for (executor, got) in in_both_executors(vec![DeployedOp::PixelShuffle { factor: 3, src: 0 }], &x9) {
        assert_eq!(got.shape(), want.shape(), "pixel_shuffle x3, {executor}");
        assert_eq!(float_bits(got.data()), float_bits(want.data()), "pixel_shuffle x3, {executor}");
    }
}

/// The bicubic resample as the per-element loop it was written as: a
/// horizontal pass, then a vertical one, each output element starting
/// from `0.0` and adding `x · w` over its taps in span order. The
/// shipped kernel reorders the loops around that sequence, never the
/// sequence, so it has to agree bit for bit.
fn bicubic_reference(input: &[f32], c: usize, h: usize, w: usize, out_h: usize, out_w: usize) -> Vec<f32> {
    let (xtaps, ytaps) = (BicubicAxisTaps::new(w, out_w), BicubicAxisTaps::new(h, out_h));
    let mut tmp = vec![0.0f32; c * h * out_w];
    for ci in 0..c {
        for y in 0..h {
            for ox in 0..out_w {
                let mut acc = 0.0;
                for &(xi, wgt) in xtaps.taps_for(ox) {
                    acc += input[(ci * h + y) * w + xi] * wgt;
                }
                tmp[(ci * h + y) * out_w + ox] = acc;
            }
        }
    }
    let mut out = vec![0.0f32; c * out_h * out_w];
    for ci in 0..c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0;
                for &(yi, wgt) in ytaps.taps_for(oy) {
                    acc += tmp[(ci * h + yi) * out_w + ox] * wgt;
                }
                out[(ci * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
    out
}

/// Resampler inputs: [`Stream::values`] salted with `−0.0` and
/// subnormals of either sign, plus up to two non-finite samples (more
/// would turn most of the output into NaN and hide the finite lanes).
/// `tiny` scales everything down to the subnormal range first, so sums
/// of subnormals are exercised too.
fn resample_values(data: &mut Stream, n: usize, tiny: bool) -> Vec<f32> {
    let mut values = data.values(n);
    for v in &mut values {
        if tiny {
            *v *= f32::MIN_POSITIVE;
        }
        match data.next() % 32 {
            0 => *v = -0.0,
            1 => *v = f32::from_bits(1 + (data.next() % 0x7F_FFFF) as u32) * if data.next() & 1 == 0 { 1.0 } else { -1.0 },
            _ => {}
        }
    }
    for _ in 0..data.next() % 3 {
        let i = (data.next() % n as u64) as usize;
        values[i] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(data.next() % 3) as usize];
    }
    values
}

/// The shipped resampler — `resize_bicubic_tensor`, and
/// `resize_bicubic_into` on a stale staging buffer — against
/// [`bicubic_reference`], bit for bit (NaN by NaN-ness): 1 to 8 channels,
/// extents 1 to 48 (both extremes, square and non-square, every ragged
/// vector tail in between), ×2 / ×3 / ×4 upscales, arbitrary ratios, and
/// downscales, which widen the kernel's support; on values with `−0.0`,
/// subnormals, ±inf and NaN.
///
/// Hand mutants of the kernel's fold, each killed: `mul_add` instead of
/// `+= x · w` (at ×2), the taps folded in reverse (at ×2), accumulation
/// from `−0.0` instead of `0.0` (at ×3, where one-tap outputs keep a
/// `−0.0` sample's sign).
#[test]
fn bicubic_resample_matches_the_per_element_loop_bit_for_bit() {
    let mut data = Stream(23);
    let mut cases = 0;
    for mode in 0..5usize {
        let mut shapes: Vec<(usize, usize, usize)> = vec![(1, 1, 1), (3, 1, 48), (2, 48, 1), (8, 48, 48), (3, 17, 17)];
        for _ in 0..12 {
            let c = 1 + (data.next() % 8) as usize;
            shapes.push((c, 1 + (data.next() % 48) as usize, 1 + (data.next() % 48) as usize));
        }
        for (i, (c, h, w)) in shapes.into_iter().enumerate() {
            let (out_h, out_w) = match mode {
                0..=2 => (h * (mode + 2), w * (mode + 2)),
                3 => (1 + (data.next() % 96) as usize, 1 + (data.next() % 96) as usize),
                _ => (1 + (data.next() % h as u64) as usize, 1 + (data.next() % w as u64) as usize),
            };
            let input = resample_values(&mut data, c * h * w, i % 4 == 3);
            let want = float_bits(&bicubic_reference(&input, c, h, w, out_h, out_w));
            let label = format!("c={c} {h}x{w} -> {out_h}x{out_w}");

            let tensor = Tensor::from_vec(input.clone(), &[c, h, w]).unwrap();
            let got = resize_bicubic_tensor(&tensor, out_h, out_w).unwrap();
            assert_eq!(got.shape(), &[c, out_h, out_w], "{label}");
            assert_eq!(float_bits(got.data()), want, "resize_bicubic_tensor {label}");

            let (xtaps, ytaps) = (BicubicAxisTaps::new(w, out_w), BicubicAxisTaps::new(h, out_h));
            let mut stage = vec![f32::NAN; 7 + (data.next() % 5000) as usize];
            let mut out = vec![f32::NAN; c * out_h * out_w];
            resize_bicubic_into(&input, c, h, w, &xtaps, &ytaps, &mut stage, &mut out).unwrap();
            assert_eq!(float_bits(&out), want, "resize_bicubic_into {label}");
            cases += 1;
        }
    }
    assert_eq!(cases, 85);
}

/// One `BinaryConv2d` call with every `Fused` operand the geometry allows
/// (the skip needs a shape-preserving call) against an oracle that owes
/// the kernel nothing: the float convolution of `sign(x − shift)` (the
/// packer's rule: `x − shift ≥ 0` is `+1`, NaN is `−1`) with the sign
/// weights, then the epilogue written out in `Fused` field order — at
/// every level and on both backends, from stale scratch into NaN-filled
/// output. `hostile` salts the input, shift, bias and gates with NaN / ±∞
/// / `−0.0` / subnormals ([`salted`]); the shift is per channel, or per
/// image when `per_image`.
#[allow(clippy::too_many_arguments)]
fn check_fused_call_against_sign_conv(
    data: &mut Stream,
    c: usize,
    k: usize,
    spec: Conv2dSpec,
    h: usize,
    w: usize,
    hostile: bool,
    per_image: bool,
) {
    let n = 2;
    let operand = |data: &mut Stream, len: usize| if hostile { salted(data.values(len)) } else { data.values(len) };
    let weight = Tensor::from_vec(data.signs(c * c * k * k), &[c, c, k, k]).unwrap();
    let scales: Vec<f32> = data.values(c).iter().map(|v| v * 2.0 + 0.25).collect();
    let mut conv = BinaryConv2d::from_float_weight(&weight).unwrap().with_spec(spec);
    conv.set_scales(scales.clone()).unwrap();
    let input = if hostile { salted(data.hostile_values(n * c * h * w)) } else { data.values(n * c * h * w) };
    let (beta, means) = (operand(data, c), operand(data, n));
    let shift = |i: usize| if per_image { means[i / (c * h * w)] } else { beta[i / (h * w) % c] };
    let signs: Vec<f32> = input.iter().enumerate().map(|(i, &v)| if v - shift(i) >= 0.0 { 1.0 } else { -1.0 }).collect();
    let dots = conv2d(&Tensor::from_vec(signs, &[n, c, h, w]).unwrap(), &weight, spec).unwrap();
    let (oh, ow) = (dots.shape()[2], dots.shape()[3]);
    let skip = (oh, ow) == (h, w);
    let (bias, spatial, channel) = (operand(data, c), operand(data, n * oh * ow), operand(data, n * c));
    let fused = Fused {
        shift: if per_image { SignShift::PerImage(&means) } else { SignShift::PerChannel(&beta) },
        bias: Some(&bias),
        spatial: Some(&spatial),
        channel: Some(&channel),
        skip,
    };
    let want: Vec<f32> = dots
        .data()
        .iter()
        .enumerate()
        .map(|(i, &dot)| {
            let (b, co, p) = (i / (c * oh * ow), i / (oh * ow) % c, i % (oh * ow));
            let mut v = scales[co] * dot;
            v += bias[co];
            v *= spatial[b * oh * ow + p];
            v *= channel[b * c + co];
            if skip {
                v += input[i];
            }
            v
        })
        .collect();
    let want = float_bits(&want);
    let label = format!("c={c} k={k} {spec:?} {h}x{w} hostile={hostile} per_image={per_image}");
    let mut scratch = stale_scratch();
    let mut got = vec![f32::NAN; want.len()];
    for level in simd::available() {
        got.fill(f32::NAN);
        conv.forward_at(level, &input, n, h, w, &fused, &mut scratch, &mut got).unwrap();
        assert_eq!(float_bits(&got), want, "{label} at {level}");
    }
    for backend in [Backend::Scalar, Backend::Simd] {
        got.fill(f32::NAN);
        let run = || conv.forward_fused(&input, n, h, w, &fused, &mut scratch, &mut got);
        with_thread_backend(backend, run).unwrap();
        assert_eq!(float_bits(&got), want, "{label} on {backend}");
    }
}

/// Rows at and around one count segment (256 bitmap words: `w + 2·pad`
/// of 255, 256 and 257), rows cut so their last piece holds only right
/// border columns, from the first one (`w = 256 + pad`) or a later one
/// (`w = 256 + pad − 1`, for `pad` 2), and rows over two segments wide,
/// through [`check_fused_call_against_sign_conv`].
#[test]
fn direct_kernel_handles_rows_as_wide_as_a_segment_and_wider() {
    let mut data = Stream(17);
    let mut cases = 0;
    for (k, pad) in [(1usize, 1usize), (3, 1), (5, 2)] {
        for w in [256 - 2 * pad - 1, 256 - 2 * pad, 256 - 2 * pad + 1, 256 + pad - 1, 256 + pad, 2 * 256 + 3] {
            for h in [1usize, 2, 5] {
                for stride in [1usize, 2] {
                    let spec = Conv2dSpec { stride, padding: pad };
                    check_fused_call_against_sign_conv(&mut data, 5, k, spec, h, w, false, false);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 108);
}

/// `values` with every seventh element replaced, in turn, by NaN, ±∞,
/// `−0.0` or a subnormal of either sign: what the fused store's operands
/// must carry through unchanged.
fn salted(mut values: Vec<f32>) -> Vec<f32> {
    let specials =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::MIN_POSITIVE / 8.0, -f32::MIN_POSITIVE / 3.0];
    for (i, v) in values.iter_mut().enumerate().filter(|(i, _)| i % 7 == 3) {
        *v = specials[i / 7 % specials.len()];
    }
    values
}

/// The fused store through [`check_fused_call_against_sign_conv`] with
/// hostile operands: every output width around the store's 16-pixel chunk
/// (1 … 65), one and three rows, `k` 1 unpadded / 1 padded / 3 / 5 at
/// strides 1 and 2, the shift per channel and per image in turn. `k = 5`
/// runs 24 channels, so a position counts ~300 disagreeing lanes, past
/// any 8-bit counter.
///
/// Hand mutants this test kills: the row's overlapping last chunk
/// dropped; a row's output offset one pixel late
/// (`r * cols + 1`); its counts one position early (`r * pitch − 1` for
/// `r > 0`); the count read back in 8 bits (`count as u8` in the
/// epilogue); the bias added after the spatial gate.
#[test]
fn fused_store_matches_a_sign_conv_oracle_at_every_width() {
    let mut data = Stream(23);
    let mut cases = 0;
    for (k, pad) in [(1usize, 0usize), (1, 1), (3, 1), (5, 2)] {
        let c = if k == 5 { 24 } else { 6 };
        for stride in [1usize, 2] {
            for h in [1usize, 3] {
                for w in [1usize, 7, 8, 15, 16, 17, 31, 32, 33, 40, 47, 48, 49, 63, 64, 65] {
                    let spec = Conv2dSpec { stride, padding: pad };
                    check_fused_call_against_sign_conv(&mut data, c, k, spec, h, w, true, cases % 2 == 1);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 256);
}

/// The unfused pass order of a deployed SCALES layer written as tensor
/// ops: β shift → packed conv → spatial gate → channel gate → skip, each a
/// separate pass, the gates via `conv2d` / `global_avg_pool` / `conv1d`.
fn unfused_scales_forward(deployed: &DeployedScalesConv2d, input: &Tensor) -> Tensor {
    let [n, c, h, w] = [0, 1, 2, 3].map(|axis| input.shape()[axis]);
    let hw = h * w;
    // β folds into an input shift before the sign packing.
    let mut shifted = input.clone();
    if !deployed.beta().is_empty() {
        for (i, v) in shifted.data_mut().iter_mut().enumerate() {
            *v -= deployed.beta()[i / hw % c];
        }
    }
    let mut want = deployed.conv().forward(&shifted).unwrap();
    // Spatial re-scaling from the FP input: a 1×1 conv to one map.
    if let Some((wmap, bias)) = deployed.spatial() {
        let m = conv2d(input, wmap, Conv2dSpec { stride: 1, padding: 0 }).unwrap();
        for (i, v) in want.data_mut().iter_mut().enumerate() {
            *v *= sigmoid(m.data()[i / (c * hw) * hw + i % hw] + bias);
        }
    }
    // Channel re-scaling from the FP input: GAP → Conv1d over the channel
    // tokens.
    if let Some(k) = deployed.channel() {
        let tokens = global_avg_pool(input).unwrap().reshape(&[n, 1, c]).unwrap();
        let mixed = conv1d(&tokens, k, k.shape()[2] / 2).unwrap();
        for (i, v) in want.data_mut().iter_mut().enumerate() {
            *v *= sigmoid(mixed.data()[i / hw]);
        }
    }
    if deployed.skip() {
        want = want.zip_map(input, |a, b| a + b).unwrap();
    }
    want
}

/// `run(scratch, out)` — a deployed layer's `forward_into` — at every
/// `SimdLevel` the CPU offers and on both backends, each output as
/// [`float_bits`], labelled.
fn at_every_level_and_backend(
    len: usize,
    mut run_at: impl FnMut(SimdLevel, &mut ConvScratch, &mut [f32]),
    mut run: impl FnMut(&mut ConvScratch, &mut [f32]),
) -> Vec<(String, Vec<u32>)> {
    let mut scratch = ConvScratch::new();
    let mut got = Vec::new();
    for level in simd::available() {
        let mut out = vec![f32::NAN; len];
        run_at(level, &mut scratch, &mut out);
        got.push((format!("level {level}"), float_bits(&out)));
    }
    for backend in [Backend::Scalar, Backend::Simd] {
        let mut out = vec![f32::NAN; len];
        with_thread_backend(backend, || run(&mut scratch, &mut out));
        got.push((format!("backend {backend}"), float_bits(&out)));
    }
    got
}

/// The deployed SCALES layer's fused `forward_into` — and `forward`, the
/// same body on a fresh scratch — against [`unfused_scales_forward`], for
/// every component subset, with and without the skip, at every SIMD level
/// (gates and kernel compiled per level) and on both backends: channel
/// counts on both sides of the 64-lane word and of a vector, planes whose
/// pixel count is no multiple of 16, batches of one to three.
#[test]
fn fused_scales_layer_matches_the_unfused_forward_for_every_component_set() {
    let mut data = Stream(7);
    for mask in 0..16usize {
        let components = ScalesComponents {
            lsf: mask & 1 != 0,
            spatial: mask & 2 != 0,
            channel: mask & 4 != 0,
            channel_kernel: 5,
        };
        let skip = mask & 8 != 0;
        let cases = [(1usize, 5usize, 7usize, 2usize), (3, 3, 11, 3), (17, 9, 5, 1), (64, 7, 9, 2), (80, 5, 19, 3)];
        for (c, h, w, n) in cases {
            let layer = ScalesConv2d::with_components(c, c, 3, components, skip, &mut rng(400 + mask as u64));
            if let Some(lsf) = layer.lsf() {
                lsf.alpha().set_value(Tensor::from_vec(vec![0.8], &[1]).unwrap());
                lsf.beta().set_value(Tensor::from_vec(data.values(c), lsf.beta().value().shape()).unwrap());
            }
            let deployed = DeployedScalesConv2d::from_trained(&layer).unwrap();
            let input = Tensor::from_vec(data.values(n * c * h * w), &[n, c, h, w]).unwrap();
            let want = float_bits(unfused_scales_forward(&deployed, &input).data());
            let label = format!("{components:?} skip={skip} c={c} {h}x{w} n={n}");
            let x = input.data();
            let runs = at_every_level_and_backend(
                want.len(),
                |level, scratch, out| deployed.forward_into_at(level, x, n, h, w, scratch, out).unwrap(),
                |scratch, out| deployed.forward_into(x, n, h, w, scratch, out).unwrap(),
            );
            for (run, got) in runs {
                assert_eq!(got, want, "{label} {run}");
            }
            let fresh = deployed.forward(&input).unwrap();
            assert_eq!(float_bits(fresh.data()), want, "{label}, forward");
        }
    }
}

/// The full SCALES layer on hostile input — NaN, ±∞, subnormals, −0.0 —
/// against the unfused passes: which elements are NaN, and every other
/// element's bits, at every level and on both backends.
#[test]
fn fused_scales_layer_matches_the_unfused_forward_on_hostile_values() {
    let mut data = Stream(11);
    let (c, h, w, n) = (17usize, 6usize, 7usize, 2usize);
    let layer = ScalesConv2d::with_components(c, c, 3, ScalesComponents::full(), true, &mut rng(77));
    let mut values = data.hostile_values(n * c * h * w);
    for (i, v) in values.iter_mut().enumerate() {
        match i % 97 {
            0 => *v = f32::NAN,
            1 => *v = f32::INFINITY,
            2 => *v = f32::NEG_INFINITY,
            3 => *v = f32::MIN_POSITIVE / 8.0,
            4 => *v = -f32::MIN_POSITIVE / 3.0,
            _ => {}
        }
    }
    let input = Tensor::from_vec(values, &[n, c, h, w]).unwrap();
    let deployed = DeployedScalesConv2d::from_trained(&layer).unwrap();
    let want = float_bits(unfused_scales_forward(&deployed, &input).data());
    assert!(want.contains(&f32::NAN.to_bits()), "the case must carry NaNs through");
    let x = input.data();
    let runs = at_every_level_and_backend(
        want.len(),
        |level, scratch, out| deployed.forward_into_at(level, x, n, h, w, scratch, out).unwrap(),
        |scratch, out| deployed.forward_into(x, n, h, w, scratch, out).unwrap(),
    );
    for (run, got) in runs {
        assert_eq!(got, want, "hostile values, {run}");
    }
}

/// BAM's deployed layer — the `mean_c |x|` map as the kernel's per-pixel
/// gate, then the skip — against the same steps as tensor ops (the map as a
/// 1×1 convolution of `|x|` with ones, so every pixel sums from 0 in
/// ascending-channel order), at every level and on both backends.
#[test]
fn deployed_bam_layer_matches_its_magnitude_map_at_every_level() {
    let mut data = Stream(13);
    for &(c, h, w, n) in &[(1usize, 4usize, 5usize, 1usize), (17, 9, 5, 2), (80, 5, 7, 3)] {
        let weight = Tensor::from_vec(data.values(c * c * 9), &[c, c, 3, 3]).unwrap();
        let deployed = DeployedBodyConv::Bam { conv: BinaryConv2d::from_float_weight(&weight).unwrap(), skip: true };
        let input = Tensor::from_vec(data.hostile_values(n * c * h * w), &[n, c, h, w]).unwrap();
        let DeployedBodyConv::Bam { conv, .. } = &deployed else { unreachable!() };
        let mut want = conv.forward(&input).unwrap();
        let magnitude = input.map(f32::abs);
        let sums = conv2d(&magnitude, &Tensor::ones(&[1, c, 1, 1]), Conv2dSpec { stride: 1, padding: 0 }).unwrap();
        let hw = h * w;
        for (i, v) in want.data_mut().iter_mut().enumerate() {
            *v *= sums.data()[i / (c * hw) * hw + i % hw] / c as f32;
        }
        let want = float_bits(want.zip_map(&input, |a, b| a + b).unwrap().data());
        let x = input.data();
        let runs = at_every_level_and_backend(
            want.len(),
            |level, scratch, out| deployed.forward_into_at(level, x, n, h, w, scratch, out).unwrap(),
            |scratch, out| deployed.forward_into(x, n, h, w, scratch, out).unwrap(),
        );
        for (run, got) in runs {
            assert_eq!(got, want, "BAM c={c} {h}x{w} n={n} {run}");
        }
    }
}
