//! The direct XNOR-popcount convolution: one loop, compiled once per
//! [`SimdLevel`].
//!
//! A call packs each image's signs into a **zero-padded, word-plane-major
//! bitmap** — `ceil(IC/64)` planes of `(h + 2·pad) × (w + 2·pad)` words, one
//! `u64` per pixel holding 64 channels. Then, for one output channel at a
//! time, it counts over *bitmap positions*: position `q` is the word where
//! a receptive field starts, and every kernel tap reads `q + ky·row + kx` —
//! the same offsets at every position. So lanes are positions: each tap is
//! one broadcast weight word XOR-ed against a run of *contiguous* bitmap
//! words and popcounted. There is no im2col, no per-tap bounds test, no
//! gather, and no row structure in the count at all: it runs flat across
//! row ends, counting the few positions that are not output pixels (the
//! `k − 1` between one output row and the next; at a stride, the skipped
//! ones) rather than stopping for them.
//!
//! The count runs in *segments* of at most 256 positions, and a
//! segment holds whole output rows — as many as fit — so the store writes
//! each row's pixels with one zip and finds the row's class once; a row
//! wider than a segment is cut into column pieces. A segment's count is
//! rounded up to whole 8-position vectors where the bitmap allows (the
//! extra positions are never stored).
//!
//! The padding is all-zero words, i.e. "every channel is −1", which a tap
//! counts like any other pixel. What a padded tap contributes depends only
//! on the weights (`IC − 2·popcount(w)`), so it is cancelled exactly in
//! integers: `pad_fix` holds the per-tap correction and `base_table` sums
//! it, per call, into the value each output pixel's count is taken from.
//! Pixels share that base by *class*: one row class per border row plus one
//! for all interior rows, and within a class one base for every interior
//! column plus one per border column — `O(classes)` values per output
//! channel, not one per pixel. Before storing a channel, the kernel spells
//! each class out as one row (its left border bases, the interior base
//! repeated for as many columns as a run can hold, its right border bases),
//! so every run's bases are one slice of it and there is no border branch
//! either.
//!
//! The store applies the fused epilogue per element in the unfused pass
//! order (`v = s_c·dot; v += bias[c]; v *= spatial[p]; v *= channel[c];
//! v += x`), each a separate IEEE operation, so every `f32::to_bits`
//! contract holds. The bias is the one a binary *linear* layer carries (a
//! 1×1 call): it sits between the dot and the gates, where the training
//! tape's `matmul.add(bias).mul(gate).add(input)` puts it.
//!
//! The count loop is compiled per kernel size: with the taps of a 3×3 (a
//! trained body convolution) or a 1×1 (a lowered transformer linear)
//! kernel unrolled, or for any size. A 1×1 call with no padding and no
//! stride — every lowered linear — has no row structure at all: a position
//! is a pixel and every pixel has the same base, so the store takes the
//! image as one row of all its pixels, and the packer writes each unpadded
//! plane as one row. Neither changes an element's operations.
//!
//! Every inner loop is a plain walk over equal-length slices, the shape
//! LLVM's loop vectorizer handles at any width. `pack_image` and
//! `conv_image` are `#[inline(always)]` bodies; the `#[target_feature]`
//! wrappers in `x86` recompile exactly these loops for hardware `popcnt`,
//! AVX2 and AVX-512 `VPOPCNTDQ`. Counts are integer and lanes never mix, so
//! every level is bit-identical by construction.

use crate::pack::sign_bit;
use scales_tensor::ops::Conv2dSpec;
use scales_tensor::{Result, SimdLevel};

/// Bitmap positions one segment counts side by side: its `u64` counters
/// are a 2 KB stack array.
const SEGMENT: usize = 256;

/// A value subtracted from the input before its sign is taken, applied in
/// the packer's registers instead of through a shifted copy of the input.
#[derive(Debug, Clone, Copy, Default)]
pub enum SignShift<'a> {
    /// Sign of the input itself.
    #[default]
    None,
    /// One threshold per input channel, shared by every image (the folded
    /// LSF β).
    PerChannel(&'a [f32]),
    /// One threshold per image, shared by its channels (BTM's per-image
    /// mean).
    PerImage(&'a [f32]),
}

impl SignShift<'_> {
    /// The shift of image `b` as (per-channel table or empty, value for
    /// channels the table does not cover). Subtracting `0.0` leaves every
    /// float — signed zeros and NaN included — unchanged, so "no shift" is
    /// the same code path.
    pub(crate) fn of_image(&self, b: usize) -> (&[f32], f32) {
        match *self {
            SignShift::None => (&[], 0.0),
            SignShift::PerChannel(beta) => (beta, 0.0),
            SignShift::PerImage(means) => (&[], means[b]),
        }
    }
}

/// What one [`BinaryConv2d::forward_fused`](crate::BinaryConv2d::forward_fused)
/// call fuses around the XNOR-popcount: a shift before the sign, and the
/// bias, gates and identity skip in the store, applied per element in field
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fused<'a> {
    /// Subtracted from the input before the sign.
    pub shift: SignShift<'a>,
    /// Per-output-channel bias `[oc]`, added to `s_c·dot` before any gate.
    pub bias: Option<&'a [f32]>,
    /// Per-pixel gate `[n, oh·ow]`, multiplied first.
    pub spatial: Option<&'a [f32]>,
    /// Per-output-channel gate `[n, oc]`, multiplied second.
    pub channel: Option<&'a [f32]>,
    /// Add the convolution's own input last (the FP identity skip; needs a
    /// shape-preserving layer).
    pub skip: bool,
}

/// One spatial axis of a convolution call.
#[derive(Debug, Clone, Copy)]
struct Axis {
    extent: usize,
    out: usize,
    /// Half-open span of output coordinates whose taps are all in bounds.
    lo: usize,
    hi: usize,
}

impl Axis {
    fn new(extent: usize, k: usize, spec: Conv2dSpec) -> Result<Self> {
        let out = spec.out_extent(extent, k)?;
        // o·stride ≥ pad and o·stride + k − 1 − pad ≤ extent − 1; empty when
        // the kernel over-covers the image.
        let lo = spec.padding.div_ceil(spec.stride);
        let (lo, hi) = match (extent + spec.padding).checked_sub(k).map(|v| v / spec.stride) {
            Some(hi) if lo <= hi => (lo.min(out), (hi + 1).min(out)),
            _ => (0, 0),
        };
        Ok(Self { extent, out, lo, hi })
    }

    /// The border coordinates, ascending.
    fn borders(&self) -> impl Iterator<Item = usize> {
        (0..self.lo).chain(self.hi..self.out)
    }

    fn border_count(&self) -> usize {
        self.out - (self.hi - self.lo)
    }

    /// Row class of coordinate `o`: its position among [`Axis::borders`],
    /// or `border_count()` for every interior coordinate.
    fn class_of(&self, o: usize) -> usize {
        if o < self.lo {
            o
        } else if o < self.hi {
            self.border_count()
        } else {
            o - (self.hi - self.lo)
        }
    }

    /// Whether tap `t` of output coordinate `o` reads the zero padding.
    fn padded(&self, o: usize, t: usize, spec: Conv2dSpec) -> bool {
        let at = o * spec.stride + t;
        at < spec.padding || at >= spec.padding + self.extent
    }
}

/// Shape of one call, shared by the packer, the base table and the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    ic: usize,
    k: usize,
    spec: Conv2dSpec,
    y: Axis,
    x: Axis,
    /// Words per pixel, i.e. bitmap planes.
    wpp: usize,
}

impl Geometry {
    pub(crate) fn new(ic: usize, k: usize, spec: Conv2dSpec, h: usize, w: usize) -> Result<Self> {
        Ok(Self { ic, k, spec, y: Axis::new(h, k, spec)?, x: Axis::new(w, k, spec)?, wpp: ic.div_ceil(64) })
    }

    /// Output extents `(oh, ow)`.
    pub(crate) fn out(&self) -> (usize, usize) {
        (self.y.out, self.x.out)
    }

    /// Words per bitmap row.
    fn row(&self) -> usize {
        self.x.extent + 2 * self.spec.padding
    }

    fn plane(&self) -> usize {
        (self.y.extent + 2 * self.spec.padding) * self.row()
    }

    /// Words the bitmap of one image takes.
    pub(crate) fn bitmap_words(&self) -> usize {
        self.wpp * self.plane()
    }

    /// [`base_table`] entries per output channel: per row class, the
    /// interior base and one base per border column.
    pub(crate) fn base_len(&self) -> usize {
        (self.y.border_count() + 1) * (self.x.border_count() + 1)
    }

    /// The output grid the store walks, `(rows, columns)`, and the span
    /// `lo..hi` of interior columns. A 1×1 kernel with no padding and no
    /// stride has no row structure — a position is a pixel and every pixel
    /// has the same base — so its grid is one row of every pixel.
    fn grid(&self) -> (usize, usize, usize, usize) {
        let (oh, ow) = self.out();
        if self.k == 1 && self.spec.padding == 0 && self.spec.stride == 1 {
            (1, oh * ow, 0, oh * ow)
        } else {
            (oh, ow, self.x.lo, self.x.hi)
        }
    }

    /// Interior columns one class row of [`Geometry::rows_len`] holds:
    /// as many as one stored run can cover.
    fn interior_width(&self) -> usize {
        let (_, _, lo, hi) = self.grid();
        (hi - lo).min(SEGMENT)
    }

    /// Entries of one output channel's bases spelled out per column: per
    /// row class, its left border bases, [`Geometry::interior_width`]
    /// copies of its interior base, and its right border bases.
    pub(crate) fn rows_len(&self) -> usize {
        (self.y.border_count() + 1) * (self.x.border_count() + self.interior_width())
    }
}

/// Per (output channel, tap): what cancels that tap's count when it reads
/// the all-zero padding — `2·popcount(w) − IC`, the negative of the dot of
/// the tap's weights with an all-`−1` pixel. `weights` is `taps × wpp`
/// words per channel with no bits above `IC`.
pub(crate) fn pad_fix(weights: &[u64], wpp: usize, ic: usize) -> Vec<i32> {
    weights
        .chunks(wpp)
        .map(|tap| 2 * tap.iter().map(|w| w.count_ones() as i32).sum::<i32>() - ic as i32)
        .collect()
}

/// Fill `table` (`base_len` entries per output channel) with the dot
/// product an output pixel has when no channel lane disagrees: `k²·IC`
/// plus the [`pad_fix`] of every tap that reads padding there. Per row
/// class, the interior columns' base comes first, then one per border
/// column in [`Axis::borders`] order. The kernel's `dot` is this minus
/// twice its count.
pub(crate) fn base_table(g: &Geometry, pad_fix: &[i32], table: &mut [i32]) {
    let k = g.k;
    let full = (k * k * g.ic) as i32;
    for (fix, classes) in pad_fix.chunks(k * k).zip(table.chunks_mut(g.base_len())) {
        // Every border row, then `None` for the interior class.
        let rows = g.y.borders().map(Some).chain([None]);
        for (bases, oy) in classes.chunks_mut(g.x.border_count() + 1).zip(rows) {
            let padded_row = |ky: usize| oy.is_some_and(|oy| g.y.padded(oy, ky, g.spec));
            let whole_rows: i32 =
                (0..k).filter(|&ky| padded_row(ky)).map(|ky| fix[ky * k..(ky + 1) * k].iter().sum::<i32>()).sum();
            let interior = full + whole_rows;
            bases[0] = interior;
            for (base, ox) in bases[1..].iter_mut().zip(g.x.borders()) {
                *base = interior;
                for ky in (0..k).filter(|&ky| !padded_row(ky)) {
                    for kx in (0..k).filter(|&kx| g.x.padded(ox, kx, g.spec)) {
                        *base += fix[ky * k + kx];
                    }
                }
            }
        }
    }
}

/// Sign-pack one `[ic, h, w]` image into the zero-padded bitmap, fully
/// overwriting it (stale scratch never leaks): each word's first channel
/// *assigns* its lane, later channels OR theirs in. Channel `c`'s bit is
/// `sign_bit(x − shift[c])`, or `x − uniform` where the table is empty.
#[inline(always)]
fn pack_image(g: &Geometry, image: &[f32], shift: (&[f32], f32), bitmap: &mut [u64]) {
    let (h, w, pad) = (g.y.extent, g.x.extent, g.spec.padding);
    // Unpadded, a plane's rows are contiguous in bitmap and image alike:
    // pack it as one row.
    let (h, w) = if pad == 0 { (1, h * w) } else { (h, w) };
    let row = w + 2 * pad;
    for (j, plane) in bitmap.chunks_mut(g.plane()).enumerate() {
        let channels = &image[j * 64 * h * w..(g.ic.min(j * 64 + 64)) * h * w];
        plane[..pad * row].fill(0);
        plane[(pad + h) * row..].fill(0);
        for (y, words) in plane[pad * row..(pad + h) * row].chunks_mut(row).enumerate() {
            words[..pad].fill(0);
            words[pad + w..].fill(0);
            let words = &mut words[pad..pad + w];
            for (lane, channel) in channels.chunks(h * w).enumerate() {
                let s = shift.0.get(j * 64 + lane).copied().unwrap_or(shift.1);
                let x = &channel[y * w..(y + 1) * w];
                if lane == 0 {
                    for (word, &v) in words.iter_mut().zip(x) {
                        *word = sign_bit(v - s);
                    }
                } else {
                    for (word, &v) in words.iter_mut().zip(x) {
                        *word |= sign_bit(v - s) << lane;
                    }
                }
            }
        }
    }
}

/// Everything the kernel reads for one image.
pub(crate) struct Job<'a> {
    pub(crate) g: &'a Geometry,
    pub(crate) bitmap: &'a [u64],
    /// Per output channel: `k² × wpp` weight words, [`base_table`]
    /// entries, the float scale and the bias.
    pub(crate) weights: &'a [u64],
    pub(crate) base: &'a [i32],
    pub(crate) scales: &'a [f32],
    pub(crate) bias: Option<&'a [f32]>,
    /// This image's epilogue operands: per-pixel gate `[oh·ow]`,
    /// per-channel gate `[oc]`, skip source `[oc, oh·ow]`.
    pub(crate) spatial: Option<&'a [f32]>,
    pub(crate) channel: Option<&'a [f32]>,
    pub(crate) skip: Option<&'a [f32]>,
}

/// Convolve one image into `planes` (one per output channel, `oh·ow`
/// floats each), through the instance of the loop for the kernel size
/// every trained body convolution (3) or lowered linear (1) has. `rows`
/// (`rows_len` entries, contents ignored) holds one channel's bases
/// spelled out per column while that channel is stored.
#[inline(always)]
fn conv_image(job: &Job<'_>, rows: &mut [i32], planes: &mut [f32]) {
    match job.g.k {
        3 => conv_planes::<3>(job, rows, planes),
        1 => conv_planes::<1>(job, rows, planes),
        _ => conv_planes::<0>(job, rows, planes),
    }
}

/// The multiplicative and additive neutral elements the store uses for an
/// absent gate, bias or skip: `v · 1.0` and `v + (−0.0)` are `v` bit for
/// bit, so one fused loop serves every [`Fused`] combination.
static ONES: [f32; SEGMENT] = [1.0; SEGMENT];
static NEG_ZEROS: [f32; SEGMENT] = [-0.0; SEGMENT];

/// [`conv_image`] with the taps of a `K×K` kernel unrolled, or for any
/// kernel when `K` is 0.
#[inline(always)]
fn conv_planes<const K: usize>(job: &Job<'_>, rows: &mut [i32], planes: &mut [f32]) {
    let g = job.g;
    let (k, wpp, stride, row) = (g.k, g.wpp, g.spec.stride, g.row());
    let (oh, ow) = g.out();
    let (grid_rows, cols, lo, hi) = g.grid();
    let (taps, per, xb, width) = (k * k * wpp, g.base_len(), g.x.border_count(), g.interior_width());
    // Positions between one output row and the next, those one row's
    // pixels span, and one past the last output pixel's.
    let (pitch, span) = (stride * row, (cols - 1) * stride + 1);
    let total = (grid_rows - 1) * pitch + span;
    // A segment holds as many whole output rows as fit; a row wider than a
    // segment is cut into pieces of as many columns as fit.
    let (seg_rows, seg_cols) =
        if span <= SEGMENT { (1 + (SEGMENT - span) / pitch, cols) } else { (1, (SEGMENT - 1) / stride + 1) };
    let segments = (0..grid_rows)
        .step_by(seg_rows)
        .flat_map(|oy0| (0..cols).step_by(seg_cols).map(move |ox0| (oy0, ox0)));
    for (c, out) in planes.chunks_mut(oh * ow).enumerate() {
        let weights = &job.weights[c * taps..(c + 1) * taps];
        // This channel's bases per row class, spelled out per column.
        for (bases, class) in rows.chunks_mut(xb + width).zip(job.base[c * per..(c + 1) * per].chunks(xb + 1)) {
            let (left, rest) = bases.split_at_mut(lo);
            let (interior, right) = rest.split_at_mut(width);
            left.copy_from_slice(&class[1..1 + lo]);
            interior.fill(class[0]);
            right.copy_from_slice(&class[1 + lo..]);
        }
        let (scale, channel) = (job.scales[c], job.channel.map_or(1.0, |gate| gate[c]));
        let bias = job.bias.map_or(-0.0, |bias| bias[c]);
        let skip = job.skip.map(|x| &x[c * oh * ow..(c + 1) * oh * ow]);
        for (oy0, ox0) in segments.clone() {
            let (n_rows, n) = (seg_rows.min(grid_rows - oy0), seg_cols.min(cols - ox0));
            let q0 = oy0 * pitch + ox0 * stride;
            // Counted out to whole vectors where the bitmap allows: the
            // extra positions are never stored.
            let len = ((n_rows - 1) * pitch + (n - 1) * stride + 1).next_multiple_of(8).min(total - q0);
            // Per position, how many channel lanes of its receptive field
            // disagree with the weights. Weights and bitmap are both zero
            // above IC, so no channel mask is needed.
            let mut differ = [0u64; SEGMENT];
            let differ = &mut differ[..len];
            for (j, plane) in job.bitmap.chunks(g.plane()).enumerate().take(wpp) {
                if K != 0 {
                    // Positions innermost with the taps unrolled inside, so
                    // a count never leaves its register.
                    let taps: [[(&[u64], u64); K]; K] = std::array::from_fn(|ky| {
                        std::array::from_fn(|kx| {
                            let at = q0 + ky * row + kx;
                            (&plane[at..at + len], weights[(ky * K + kx) * wpp + j])
                        })
                    });
                    for q in 0..len {
                        let mut count = 0;
                        for kernel_row in &taps {
                            for &(words, wv) in kernel_row {
                                count += u64::from((words[q] ^ wv).count_ones());
                            }
                        }
                        differ[q] += count;
                    }
                } else {
                    for ky in 0..k {
                        for kx in 0..k {
                            let wv = weights[(ky * k + kx) * wpp + j];
                            let at = q0 + ky * row + kx;
                            for (d, a) in differ.iter_mut().zip(&plane[at..at + len]) {
                                *d += u64::from((a ^ wv).count_ones());
                            }
                        }
                    }
                }
            }
            // Each row's run of `n` pixels is one zip. Its bases are a
            // slice of its class's spelled-out row: from column `ox0` when
            // the run starts left of the interior, else ending the interior
            // copies where the run's right border columns begin.
            let end = ox0 + n;
            let inner = end.min(hi).saturating_sub(ox0.max(lo));
            let from = if ox0 < lo { ox0 } else { lo + width - inner + ox0.saturating_sub(hi) };
            for (r, oy) in (oy0..oy0 + n_rows).enumerate() {
                let class = g.y.class_of(oy);
                let bases = &rows[class * (xb + width) + from..][..n];
                let at = oy * cols + ox0;
                let spatial = job.spatial.map_or(&ONES[..n], |gate| &gate[at..at + n]);
                let skip = skip.map_or(&NEG_ZEROS[..n], |x| &x[at..at + n]);
                let counts = &differ[r * pitch..];
                let out = out[at..at + n].iter_mut();
                let store = |v: &mut f32, (((&d, &base), &s), &x): (((&u64, &i32), &f32), &f32)| {
                    *v = (scale * (base - 2 * d as i32) as f32 + bias) * s * channel + x;
                };
                if stride == 1 {
                    out.zip(counts.iter().zip(bases).zip(spatial).zip(skip))
                        .for_each(|(v, operands)| store(v, operands));
                } else {
                    out.zip(counts.iter().step_by(stride).zip(bases).zip(spatial).zip(skip))
                        .for_each(|(v, operands)| store(v, operands));
                }
            }
        }
    }
}

/// [`pack_image`] at `level`, clamped to what the CPU offers.
pub(crate) fn pack(level: SimdLevel, g: &Geometry, image: &[f32], shift: (&[f32], f32), bitmap: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (all arms): the clamp against runtime detection
        // guarantees the CPU has every feature the wrapper enables.
        match level.min(scales_tensor::simd::detected()) {
            SimdLevel::Avx512 => return unsafe { x86::pack_avx512(g, image, shift, bitmap) },
            SimdLevel::Avx2 => return unsafe { x86::pack_avx2(g, image, shift, bitmap) },
            SimdLevel::Sse42 => return unsafe { x86::pack_popcnt(g, image, shift, bitmap) },
            SimdLevel::None => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    pack_image(g, image, shift, bitmap);
}

/// [`conv_image`] at `level`, clamped to what the CPU offers.
pub(crate) fn conv(level: SimdLevel, job: &Job<'_>, rows: &mut [i32], planes: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (all arms): as in `pack`.
        match level.min(scales_tensor::simd::detected()) {
            SimdLevel::Avx512 => return unsafe { x86::conv_avx512(job, rows, planes) },
            SimdLevel::Avx2 => return unsafe { x86::conv_avx2(job, rows, planes) },
            SimdLevel::Sse42 => return unsafe { x86::conv_popcnt(job, rows, planes) },
            SimdLevel::None => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    conv_image(job, rows, planes);
}

/// The two generic bodies recompiled per x86-64 feature level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{conv_image, pack_image, Geometry, Job};

    macro_rules! at_level {
        ($pack:ident, $conv:ident, $($feature:literal),+) => {
            /// # Safety
            ///
            /// The CPU must support the enabled features (runtime-checked
            /// by [`super::pack`]).
            #[target_feature($(enable = $feature),+)]
            pub(super) unsafe fn $pack(g: &Geometry, image: &[f32], shift: (&[f32], f32), bitmap: &mut [u64]) {
                pack_image(g, image, shift, bitmap);
            }

            /// # Safety
            ///
            /// The CPU must support the enabled features (runtime-checked
            /// by [`super::conv`]).
            #[target_feature($(enable = $feature),+)]
            pub(super) unsafe fn $conv(job: &Job<'_>, rows: &mut [i32], planes: &mut [f32]) {
                conv_image(job, rows, planes);
            }
        };
    }

    at_level!(pack_popcnt, conv_popcnt, "sse4.2", "popcnt");
    at_level!(pack_avx2, conv_avx2, "avx2", "popcnt");
    at_level!(
        pack_avx512,
        conv_avx512,
        "avx2",
        "popcnt",
        "avx512f",
        "avx512bw",
        "avx512dq",
        "avx512vl",
        "avx512vpopcntdq"
    );
}

