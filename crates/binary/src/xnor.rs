//! Bit-packed XNOR-popcount inference layers.
//!
//! These implement the deployment path the paper benchmarks with Larq on a
//! Snapdragon 870 (Table VI): weights are packed once at construction
//! into `u64` words, activations are sign-packed per call into the
//! narrowest word that holds the input channels (`u16`, `u32` or `u64`),
//! and the convolution inner product runs entirely on integer XOR +
//! popcount in that word, recovering the float result exactly for `±1`
//! inputs (zero-padded taps contribute exactly 0).
//!
//! The convolution is the direct kernel of [`crate::direct`]: no im2col,
//! lanes are output pixels, and the caller's epilogue (bias, gates,
//! identity skip) is applied in the store. The active
//! [`scales_tensor::backend`] picks which compilation of the loop runs: the
//! simd backend — the default — the one for the detected [`SimdLevel`],
//! the scalar backend the portable one (results are identical on every
//! backend and level — the inner product is integer-exact).

use crate::direct::{self, Fused, Geometry, Job};
use crate::pack::sign_bit;
use scales_tensor::ops::Conv2dSpec;
use scales_tensor::workspace::{sized, BitScratch};
use scales_tensor::{Result, SimdLevel, Tensor, TensorError};

/// A binary 2-D convolution with packed weights and per-output-channel
/// float scales (`ŵ = s_c · sign(w)`).
///
/// Packing is **channel-major**: each spatial position's input-channel
/// vector is packed once per image into one `u16` (IC ≤ 16) or `u32`
/// (IC ≤ 32) word, or `ceil(IC/64)` `u64` words, so the hot loop works on
/// whole words rather than individual bits. Weights are packed in the
/// matching `(ky, kx, channel-word)` order at construction, in `u64` words
/// with no bits set above `IC`, and narrowed to the activations' word per
/// tap.
pub struct BinaryConv2d {
    /// Per output channel: `k·k·wpp` words in (ky, kx, channel-word) order.
    packed_weights: Vec<u64>,
    /// Per (tap, output channel): [`direct::pad_fix`] of the weights.
    pad_fix: Vec<i32>,
    scales: Vec<f32>,
    out_channels: usize,
    in_channels: usize,
    kernel: usize,
    spec: Conv2dSpec,
}

impl BinaryConv2d {
    /// Pack a float weight tensor `[OC, IC, k, k]`. Scales default to the
    /// per-channel mean absolute value (the XNOR-Net rule).
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 or non-square kernels.
    pub fn from_float_weight(weight: &Tensor) -> Result<Self> {
        if weight.rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: weight.rank(), op: "binary conv weight" });
        }
        let (oc, ic, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        if kh != kw {
            return Err(TensorError::InvalidArgument(format!("kernel must be square, got {kh}x{kw}")));
        }
        let k = kh;
        let wpp = ic.div_ceil(64);
        let per = ic * k * k;
        let mut packed = vec![0u64; oc * k * k * wpp];
        let mut scales = Vec::with_capacity(oc);
        for c in 0..oc {
            let chunk = &weight.data()[c * per..(c + 1) * per];
            scales.push(chunk.iter().map(|v| v.abs()).sum::<f32>() / per as f32);
            for ky in 0..k {
                for kx in 0..k {
                    for ci in 0..ic {
                        // chunk layout: [ic, k, k]
                        let word = ((c * k + ky) * k + kx) * wpp + ci / 64;
                        packed[word] |= sign_bit(chunk[(ci * k + ky) * k + kx]) << (ci % 64);
                    }
                }
            }
        }
        Ok(Self {
            pad_fix: direct::pad_fix(&packed, k * k, wpp, ic),
            packed_weights: packed,
            scales,
            out_channels: oc,
            in_channels: ic,
            kernel: k,
            spec: Conv2dSpec::same(k),
        })
    }

    /// Override the convolution spec (default is stride-1 "same").
    #[must_use]
    pub fn with_spec(mut self, spec: Conv2dSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Rebuild a packed convolution from its raw serialized parts: the
    /// packed weight words in the layout produced by
    /// [`BinaryConv2d::packed_weights`] ((oc, ky, kx, channel-word) order,
    /// `ceil(ic/64)` words per pixel), the per-channel scales, the layer
    /// geometry, and the spec. The inverse of reading
    /// [`BinaryConv2d::packed_weights`] / [`BinaryConv2d::scales`]; the
    /// rebuilt layer is bit-identical in forward.
    ///
    /// # Errors
    ///
    /// Returns an error for zero extents or word/scale counts that do not
    /// match the geometry.
    pub fn from_packed_parts(
        out_channels: usize,
        in_channels: usize,
        kernel: usize,
        spec: Conv2dSpec,
        mut packed_weights: Vec<u64>,
        scales: Vec<f32>,
    ) -> Result<Self> {
        if out_channels == 0 || in_channels == 0 || kernel == 0 {
            return Err(TensorError::InvalidArgument(
                "binary conv needs positive channel counts and kernel size".into(),
            ));
        }
        let wpp = in_channels.div_ceil(64);
        // Checked: the extents may come from an untrusted serialized
        // artifact, and an overflow must be a typed error, not a panic
        // (debug) or a wrapped garbage comparison (release).
        let expected = out_channels
            .checked_mul(kernel)
            .and_then(|v| v.checked_mul(kernel))
            .and_then(|v| v.checked_mul(wpp))
            .ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "binary conv extents overflow ({out_channels} out, {in_channels} in, kernel {kernel})"
                ))
            })?;
        if packed_weights.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: packed_weights.len(),
            });
        }
        if scales.len() != out_channels {
            return Err(TensorError::LengthMismatch {
                expected: out_channels,
                actual: scales.len(),
            });
        }
        // The kernel counts whole words, so lanes above `in_channels` in
        // each tap's last word must be clear — serialized parts are not
        // trusted to keep that.
        if !in_channels.is_multiple_of(64) {
            let valid = (1u64 << (in_channels % 64)) - 1;
            packed_weights.iter_mut().skip(wpp - 1).step_by(wpp).for_each(|w| *w &= valid);
        }
        Ok(Self {
            pad_fix: direct::pad_fix(&packed_weights, kernel * kernel, wpp, in_channels),
            packed_weights,
            scales,
            out_channels,
            in_channels,
            kernel,
            spec,
        })
    }

    /// The packed weight words: `kernel² · ceil(in_channels/64)` words per
    /// output channel in (ky, kx, channel-word) order.
    #[must_use]
    pub fn packed_weights(&self) -> &[u64] {
        &self.packed_weights
    }

    /// The per-output-channel float scales.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of input channels.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Square kernel extent.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The convolution spec (stride and padding).
    #[must_use]
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Override the per-channel scales (e.g. to fold in a learned α).
    ///
    /// # Errors
    ///
    /// Returns an error when the count differs from the output channels.
    pub fn set_scales(&mut self, scales: Vec<f32>) -> Result<()> {
        if scales.len() != self.out_channels {
            return Err(TensorError::LengthMismatch {
                expected: self.out_channels,
                actual: scales.len(),
            });
        }
        self.scales = scales;
        Ok(())
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Run the packed convolution on a float input `[N, IC, H, W]`. The
    /// input is sign-binarized internally; the output is
    /// `s_c · (binary dot)` per channel, with zero-padded taps contributing
    /// exactly 0, bit-exact against the float reference.
    ///
    /// Allocating convenience wrapper over [`BinaryConv2d::forward_into`];
    /// serving paths thread a reusable [`BitScratch`] instead.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched channel counts or geometry.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "binary conv input" });
        }
        let (n, ic, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        if ic != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().to_vec(),
                rhs: vec![self.out_channels, self.in_channels, self.kernel, self.kernel],
                op: "binary conv channels",
            });
        }
        let oh = self.spec.out_extent(h, self.kernel)?;
        let ow = self.spec.out_extent(w, self.kernel)?;
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let mut scratch = BitScratch::default();
        self.forward_into(input.data(), n, h, w, &mut scratch, out.data_mut())?;
        Ok(out)
    }

    /// The zero-allocation core of [`BinaryConv2d::forward`]: convolve a
    /// flat `[n, in_channels, h, w]` input into a caller-provided output
    /// buffer of `n · out_channels · oh · ow` elements (fully
    /// overwritten), staging the activation bitmap in a reusable grow-only
    /// [`BitScratch`]. [`BinaryConv2d::forward_fused`] with nothing fused.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched input/output lengths or geometry.
    pub fn forward_into(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        scratch: &mut BitScratch,
        out: &mut [f32],
    ) -> Result<()> {
        self.forward_fused(input, n, h, w, &Fused::default(), scratch, out)
    }

    /// [`BinaryConv2d::forward_into`] with the caller's input shift applied
    /// in the sign packer and its bias, gates and identity skip applied in the
    /// store, per element in the order of the [`Fused`] fields — bit-identical
    /// to running them as separate passes over the output. Runs at the
    /// active backend's [`SimdLevel`].
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched input/output/operand lengths or
    /// geometry, or a skip on a layer that changes the shape.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_fused(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        fused: &Fused<'_>,
        scratch: &mut BitScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let level = scales_tensor::backend::kernel().simd_level();
        self.forward_at(level, input, n, h, w, fused, scratch, out)
    }

    /// [`BinaryConv2d::forward_fused`] with the kernel compiled for `level`
    /// (clamped to what the CPU offers, so any level is safe to ask for) —
    /// how tests and benches compare the levels in one process.
    ///
    /// # Errors
    ///
    /// As [`BinaryConv2d::forward_fused`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_at(
        &self,
        level: SimdLevel,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        fused: &Fused<'_>,
        scratch: &mut BitScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let (ic, oc) = (self.in_channels, self.out_channels);
        let g = Geometry::new(ic, self.kernel, self.spec, h, w)?;
        let (oh, ow) = g.out();
        let expect = |actual: usize, expected: usize| {
            if actual == expected {
                Ok(())
            } else {
                Err(TensorError::LengthMismatch { expected, actual })
            }
        };
        expect(input.len(), n * ic * h * w)?;
        expect(out.len(), n * oc * oh * ow)?;
        match fused.shift {
            direct::SignShift::None => {}
            direct::SignShift::PerChannel(beta) => expect(beta.len(), ic)?,
            direct::SignShift::PerImage(means) => expect(means.len(), n)?,
        }
        if let Some(bias) = fused.bias {
            expect(bias.len(), oc)?;
        }
        if let Some(gate) = fused.spatial {
            expect(gate.len(), n * oh * ow)?;
        }
        if let Some(gate) = fused.channel {
            expect(gate.len(), n * oc)?;
        }
        if fused.skip && (oc, oh, ow) != (ic, h, w) {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![n, oc, oh, ow],
                rhs: vec![n, ic, h, w],
                op: "binary conv identity skip",
            });
        }
        let BitScratch { act, bases } = scratch;
        let bitmap = sized(act, g.bitmap_words());
        let (base, rows) = sized(bases, oc * g.base_len() + g.rows_len()).split_at_mut(oc * g.base_len());
        direct::base_table(&g, &self.pad_fix, base);
        for b in 0..n {
            let image = &input[b * ic * h * w..(b + 1) * ic * h * w];
            let job = Job {
                g: &g,
                weights: &self.packed_weights,
                base: &*base,
                scales: &self.scales,
                bias: fused.bias,
                spatial: fused.spatial.map(|gate| &gate[b * oh * ow..(b + 1) * oh * ow]),
                channel: fused.channel.map(|gate| &gate[b * oc..(b + 1) * oc]),
                skip: fused.skip.then_some(image),
            };
            let planes = &mut out[b * oc * oh * ow..(b + 1) * oc * oh * ow];
            direct::run(level, &job, image, fused.shift.of_image(b), bitmap, rows, planes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_tensor::ops::conv2d;

    fn signs(n: usize, seed: u64) -> Vec<f32> {
        // Simple LCG for deterministic ±1 data without pulling in rand here.
        let mut s = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if (s >> 33) & 1 == 0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    #[test]
    fn binary_conv_matches_float_conv_on_sign_inputs() {
        let input = Tensor::from_vec(signs(2 * 3 * 8 * 8, 1), &[2, 3, 8, 8]).unwrap();
        let weight = Tensor::from_vec(signs(4 * 3 * 3 * 3, 2), &[4, 3, 3, 3]).unwrap();
        let mut bc = BinaryConv2d::from_float_weight(&weight).unwrap();
        bc.set_scales(vec![1.0; 4]).unwrap();
        let fast = bc.forward(&input).unwrap();
        let slow = conv2d(&input, &weight, Conv2dSpec::same(3)).unwrap();
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.data().iter().zip(slow.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn binary_conv_matches_float_conv_across_specs_and_word_counts() {
        // Exercises the padded-tap corrections on stride/padding variants
        // (including all-border and all-interior extremes) and the
        // multi-word channel path (IC > 64).
        for &(ic, k, stride, padding) in &[
            (3usize, 3usize, 1usize, 1usize),
            (3, 3, 2, 1),
            (3, 3, 1, 0), // no padding: every pixel interior
            (3, 5, 1, 2),
            (5, 3, 1, 2), // over-padded: interior shrinks
            (80, 3, 1, 1), // two channel words with a partial mask
            (64, 3, 1, 1), // exactly one full word
        ] {
            let spec = Conv2dSpec { stride, padding };
            let input = Tensor::from_vec(signs(2 * ic * 9 * 8, 21), &[2, ic, 9, 8]).unwrap();
            let weight = Tensor::from_vec(signs(4 * ic * k * k, 22), &[4, ic, k, k]).unwrap();
            let mut bc = BinaryConv2d::from_float_weight(&weight).unwrap().with_spec(spec);
            bc.set_scales(vec![1.0; 4]).unwrap();
            let fast = bc.forward(&input).unwrap();
            let slow = conv2d(&input, &weight, spec).unwrap();
            assert_eq!(fast.shape(), slow.shape());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-4, "ic={ic} k={k} spec={spec:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_into_reusing_stale_scratch_is_bit_identical() {
        use scales_tensor::workspace::BitScratch;
        let weight = Tensor::from_vec(signs(4 * 3 * 3 * 3, 31), &[4, 3, 3, 3]).unwrap();
        let bc = BinaryConv2d::from_float_weight(&weight).unwrap();
        let mut scratch = BitScratch::default();
        // Warm the scratch on a *larger* image so every buffer carries
        // stale data when the smaller forward reuses it.
        let big = Tensor::from_vec(signs(3 * 12 * 12, 32), &[1, 3, 12, 12]).unwrap();
        let mut big_out = vec![0.0; 4 * 12 * 12];
        bc.forward_into(big.data(), 1, 12, 12, &mut scratch, &mut big_out).unwrap();
        let small = Tensor::from_vec(signs(2 * 3 * 7 * 6, 33), &[2, 3, 7, 6]).unwrap();
        let want = bc.forward(&small).unwrap();
        let mut got = vec![f32::NAN; want.len()];
        bc.forward_into(small.data(), 2, 7, 6, &mut scratch, &mut got).unwrap();
        for (a, b) in want.data().iter().zip(got.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Length mismatches are typed errors.
        assert!(bc.forward_into(small.data(), 2, 7, 6, &mut scratch, &mut [0.0; 3]).is_err());
        assert!(bc.forward_into(&[0.0; 5], 1, 7, 6, &mut scratch, &mut got).is_err());
    }

    #[test]
    fn simd_backend_forward_is_bit_identical_to_scalar() {
        use scales_tensor::backend::{with_thread_backend, Backend};
        // Sweep spec/word-count variants on both instances of the loop
        // (3×3 one-word, and the general one); non-unit scales make any
        // miscount visible in the float output.
        for &(ic, k, stride, padding) in &[
            (3usize, 3usize, 1usize, 1usize),
            (3, 5, 1, 2),
            (64, 3, 1, 1),
            (80, 3, 1, 1), // two channel words with a partial mask
        ] {
            let spec = Conv2dSpec { stride, padding };
            let input = Tensor::from_vec(signs(2 * ic * 9 * 8, 61), &[2, ic, 9, 8]).unwrap();
            let weight = Tensor::from_vec(signs(4 * ic * k * k, 62), &[4, ic, k, k]).unwrap();
            let mut bc = BinaryConv2d::from_float_weight(&weight).unwrap().with_spec(spec);
            bc.set_scales(vec![0.5, 1.25, 2.0, 0.75]).unwrap();
            let scalar = with_thread_backend(Backend::Scalar, || bc.forward(&input).unwrap());
            let simd = with_thread_backend(Backend::Simd, || bc.forward(&input).unwrap());
            assert_eq!(scalar.shape(), simd.shape());
            for (a, b) in scalar.data().iter().zip(simd.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "ic={ic} k={k} spec={spec:?}");
            }
            // Any level is safe to ask for: one the CPU lacks clamps to
            // the best one it has.
            let mut out = vec![f32::NAN; scalar.len()];
            let mut scratch = BitScratch::default();
            bc.forward_at(SimdLevel::Avx512, input.data(), 2, 9, 8, &Fused::default(), &mut scratch, &mut out)
                .unwrap();
            for (a, b) in scalar.data().iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "ic={ic} k={k} spec={spec:?} at a clamped level");
            }
        }
    }

    #[test]
    fn fused_operands_are_validated_as_typed_errors() {
        use crate::direct::SignShift;
        let bc = BinaryConv2d::from_float_weight(&Tensor::ones(&[2, 3, 3, 3])).unwrap();
        let (input, mut out, mut scratch) = (vec![1.0; 3 * 16], vec![0.0; 2 * 16], BitScratch::default());
        let mut run = |fused: Fused<'_>| bc.forward_fused(&input, 1, 4, 4, &fused, &mut scratch, &mut out);
        assert!(run(Fused::default()).is_ok());
        assert!(run(Fused { shift: SignShift::PerChannel(&[0.0; 2]), ..Fused::default() }).is_err());
        assert!(run(Fused { shift: SignShift::PerImage(&[]), ..Fused::default() }).is_err());
        assert!(run(Fused { bias: Some(&[0.0; 3]), ..Fused::default() }).is_err());
        assert!(run(Fused { spatial: Some(&[1.0; 15]), ..Fused::default() }).is_err());
        assert!(run(Fused { channel: Some(&[1.0; 3]), ..Fused::default() }).is_err());
        // 3 → 2 channels is not shape-preserving, so there is no identity.
        assert!(run(Fused { skip: true, ..Fused::default() }).is_err());
    }

    #[test]
    fn serialized_weights_with_stray_high_lanes_are_masked() {
        // 3 input channels: lanes 3.. of every word must not count.
        let spec = Conv2dSpec::same(1);
        let clean = BinaryConv2d::from_packed_parts(1, 3, 1, spec, vec![0b101], vec![1.0]).unwrap();
        let dirty = BinaryConv2d::from_packed_parts(1, 3, 1, spec, vec![!0b010], vec![1.0]).unwrap();
        assert_eq!(dirty.packed_weights(), clean.packed_weights());
        let input = Tensor::from_vec(vec![1.0, -1.0, 1.0], &[1, 3, 1, 1]).unwrap();
        assert_eq!(dirty.forward(&input).unwrap().data(), &[3.0]);
    }

    #[test]
    fn binary_conv_scales_apply_per_channel() {
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[2, 1, 1, 1]);
        let mut bc = BinaryConv2d::from_float_weight(&weight).unwrap();
        bc.set_scales(vec![2.0, 0.5]).unwrap();
        let y = bc.forward(&input).unwrap();
        assert_eq!(y.at(&[0, 0, 1, 1]), 2.0);
        assert_eq!(y.at(&[0, 1, 1, 1]), 0.5);
    }

    #[test]
    fn weight_scale_is_mean_abs() {
        let w = Tensor::from_vec(vec![2.0, -4.0, 1.0, -1.0], &[1, 4, 1, 1]).unwrap();
        let bc = BinaryConv2d::from_float_weight(&w).unwrap();
        assert_eq!(bc.scales(), &[2.0]);
        // sign(w) = [1,-1,1,-1]; dot with sign(-3) everywhere = 0 → 2·0 = 0
        let y = bc.forward(&Tensor::full(&[1, 4, 1, 1], -3.0)).unwrap();
        assert_eq!(y.data(), &[0.0]);
    }

    #[test]
    fn packed_parts_round_trip_is_bit_identical() {
        let input = Tensor::from_vec(signs(5 * 7 * 7, 5), &[1, 5, 7, 7]).unwrap();
        let weight = Tensor::from_vec(
            signs(4 * 5 * 3 * 3, 6).iter().map(|v| v * 0.7).collect(),
            &[4, 5, 3, 3],
        )
        .unwrap();
        let bc = BinaryConv2d::from_float_weight(&weight).unwrap();
        let rebuilt = BinaryConv2d::from_packed_parts(
            bc.out_channels(),
            bc.in_channels(),
            bc.kernel(),
            bc.spec(),
            bc.packed_weights().to_vec(),
            bc.scales().to_vec(),
        )
        .unwrap();
        let a = bc.forward(&input).unwrap();
        let b = rebuilt.forward(&input).unwrap();
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn packed_parts_reject_mismatched_lengths() {
        let spec = Conv2dSpec::same(3);
        // 2 out, 3 in, 3x3: 2·9·1 = 18 words, 2 scales.
        assert!(BinaryConv2d::from_packed_parts(2, 3, 3, spec, vec![0; 17], vec![1.0; 2]).is_err());
        assert!(BinaryConv2d::from_packed_parts(2, 3, 3, spec, vec![0; 18], vec![1.0; 3]).is_err());
        assert!(BinaryConv2d::from_packed_parts(0, 3, 3, spec, vec![], vec![]).is_err());
        assert!(BinaryConv2d::from_packed_parts(2, 3, 3, spec, vec![0; 18], vec![1.0; 2]).is_ok());
    }

    #[test]
    fn rejects_bad_geometry() {
        let w = Tensor::ones(&[2, 3, 3, 3]);
        let bc = BinaryConv2d::from_float_weight(&w).unwrap();
        assert!(bc.forward(&Tensor::ones(&[1, 2, 4, 4])).is_err());
        assert!(BinaryConv2d::from_float_weight(&Tensor::ones(&[2, 3])).is_err());
    }
}
