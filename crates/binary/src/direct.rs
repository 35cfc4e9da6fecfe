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
//! segment holds whole output rows — as many as fit — so the store finds
//! a segment's operands once and each row's with a few offsets; a row
//! wider than a segment is cut into column pieces. A segment's count is
//! rounded up to whole 8-position vectors where the bitmap allows (the
//! extra positions are never stored).
//!
//! Counts are `u32`: a position disagrees in at most `k²·64·wpp` lanes
//! (`wpp` = words per pixel), and `Geometry::new` refuses a call where
//! twice that passes `i32::MAX`, so a count, its double, every base and
//! every dot are exact `i32`s. Half the width of `u64` counters, a 16-lane
//! vector holds one store chunk's counts.
//!
//! The padding is all-zero words, i.e. "every channel is −1", which a tap
//! counts like any other pixel. What a padded tap contributes depends only
//! on the weights (`IC − 2·popcount(w)`), so it is cancelled exactly in
//! integers: `pad_fix` holds the per-tap correction and `base_table` sums
//! it, per call, into the value each output pixel's count is taken from.
//! Pixels share that base by *class*: one row class per border row plus one
//! for all interior rows, and within a class one base for every interior
//! column plus one per border column — `O(classes)` values per output
//! channel, not one per pixel. The taps of a class that read the image
//! form one range per axis (`Axis::taps_inside`), found once per class;
//! an entry is `k²·IC` plus the fix of every tap outside its row range or
//! its column range, summed in plain loops. Before storing a channel, the
//! kernel spells each class out as one row (its left border bases, the
//! interior base repeated for as many columns as a run can hold, its right
//! border bases), so every run's bases are one slice of it and there is no
//! border branch either.
//!
//! The store (`store_row`) takes one row's output, counts, bases, gate
//! and skip as slices of its own, so the compiler knows they do not
//! overlap, and writes the row in whole 16-pixel chunks — one AVX-512
//! vector each. A row of 16 pixels or more ends with one chunk that
//! overlaps the one before it; the overlap is computed and stored twice
//! with the same value, since the output is never an operand. A shorter
//! row is one plain loop. Every element gets the fused epilogue in the
//! unfused pass order (`v = s_c·dot; v += bias[c]; v *= spatial[p];
//! v *= channel[c]; v += x`), each a separate IEEE operation, so every
//! `f32::to_bits` contract holds. The bias is the one a binary *linear*
//! layer carries (a 1×1 call): it sits between the dot and the gates,
//! where the training tape's `matmul.add(bias).mul(gate).add(input)` puts
//! it.
//!
//! The count loop is compiled per kernel size: with the taps of a 3×3 (a
//! trained body convolution) or a 1×1 (a lowered transformer linear)
//! kernel unrolled, or for any size. A 1×1 call with no padding and no
//! stride — every lowered linear — has no row structure at all: a position
//! is a pixel and every pixel has the same base, so the store takes the
//! image as one row of all its pixels, and the packer writes each unpadded
//! plane as one row. Neither changes an element's operations.
//!
//! The packer builds a row's words up to 64 pixels at a time in registers
//! — each channel of a 64-channel plane ORs its sign bit into all of them
//! as one masked OR — and stores each word once; a row ends with an
//! overlapping chunk too.
//!
//! Every inner loop is a plain walk over equal-length slices or fixed-size
//! arrays, the shape LLVM's loop vectorizer handles at any width.
//! `pack_image` and `conv_image` are `#[inline(always)]` bodies; the
//! `#[target_feature]` wrappers in `x86` recompile exactly these loops for
//! hardware `popcnt`, AVX2 and AVX-512 `VPOPCNTDQ`. Counts are integer and
//! lanes never mix, so every level is bit-identical by construction.

use crate::pack::sign_bit;
use scales_tensor::ops::Conv2dSpec;
use scales_tensor::{Result, SimdLevel, TensorError};

/// Bitmap positions one segment counts side by side: its `u32` counters
/// are a 1 KB stack array.
const SEGMENT: usize = 256;

/// Pixels the store writes, and the packer assembles, side by side: one
/// 16-lane `f32` vector at AVX-512.
const CHUNK: usize = 16;

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

    fn border_count(&self) -> usize {
        self.out - (self.hi - self.lo)
    }

    /// Class of coordinate `o`: its position among the border coordinates
    /// in ascending order, or `border_count()` for every interior one.
    fn class_of(&self, o: usize) -> usize {
        if o < self.lo {
            o
        } else if o < self.hi {
            self.border_count()
        } else {
            o - (self.hi - self.lo)
        }
    }

    /// The taps `t0..t1` of a `k`-tap kernel that read the image, not the
    /// padding, at the coordinates of `class` ([`Axis::class_of`]): all of
    /// them for the interior class, one run for a border coordinate.
    fn taps_inside(&self, class: usize, k: usize, spec: Conv2dSpec) -> (usize, usize) {
        if class == self.border_count() {
            return (0, k);
        }
        let o = if class < self.lo { class } else { class + (self.hi - self.lo) };
        // Tap `t` reads the image when pad ≤ o·stride + t < pad + extent.
        let at = o * spec.stride;
        let t0 = spec.padding.saturating_sub(at).min(k);
        (t0, (spec.padding + self.extent).saturating_sub(at).clamp(t0, k))
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
    /// # Errors
    ///
    /// A kernel that does not fit the padded image, or one whose count could
    /// leave `i32`: a position disagrees in at most `k²·64·wpp` lanes, and
    /// twice that (a base reaches `2·k²·IC`) must be an `i32`.
    pub(crate) fn new(ic: usize, k: usize, spec: Conv2dSpec, h: usize, w: usize) -> Result<Self> {
        let wpp = ic.div_ceil(64);
        let most = k.checked_mul(k).and_then(|taps| taps.checked_mul(wpp)).and_then(|words| words.checked_mul(128));
        if most.is_none_or(|most| most > i32::MAX as usize) {
            return Err(TensorError::InvalidArgument(format!(
                "a {k}x{k} binary conv over {ic} channels counts past i32"
            )));
        }
        Ok(Self { ic, k, spec, y: Axis::new(h, k, spec)?, x: Axis::new(w, k, spec)?, wpp })
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

/// Per (tap, output channel), tap-major: what cancels that tap's count
/// when it reads the all-zero padding — `2·popcount(w) − IC`, the negative
/// of the dot of the tap's weights with an all-`−1` pixel. `weights` is
/// `taps × wpp` words per channel with no bits above `IC`.
pub(crate) fn pad_fix(weights: &[u64], taps: usize, wpp: usize, ic: usize) -> Vec<i32> {
    let oc = weights.len() / (taps * wpp);
    let mut fixes = Vec::with_capacity(taps * oc);
    for t in 0..taps {
        for c in 0..oc {
            let words = &weights[(c * taps + t) * wpp..][..wpp];
            fixes.push(2 * words.iter().map(|w| w.count_ones() as i32).sum::<i32>() - ic as i32);
        }
    }
    fixes
}

/// Fill `table` (`base_len` entries per output channel) with the dot
/// product an output pixel has when no channel lane disagrees: `k²·IC`
/// plus the [`pad_fix`] of every tap that reads padding there. Class-major:
/// entry `class · oc + c`, where per row class the interior columns' class
/// comes first, then one per border column in ascending order — so each
/// class is a run of plain adds over the channels. The kernel's `dot` is
/// this minus twice its count.
pub(crate) fn base_table(g: &Geometry, pad_fix: &[i32], table: &mut [i32]) {
    let k = g.k;
    let oc = pad_fix.len() / (k * k);
    let (yb, xb) = (g.y.border_count(), g.x.border_count());
    let full = (k * k * g.ic) as i32;
    for cy in 0..=yb {
        let (y0, y1) = g.y.taps_inside(cy, k, g.spec);
        for cx in 0..=xb {
            // Column class 0 is the interior, class `1 + i` border column `i`.
            let (x0, x1) = g.x.taps_inside(if cx == 0 { xb } else { cx - 1 }, k, g.spec);
            let bases = &mut table[(cy * (xb + 1) + cx) * oc..][..oc];
            bases.fill(full);
            for ky in 0..k {
                for kx in 0..k {
                    if !((y0..y1).contains(&ky) && (x0..x1).contains(&kx)) {
                        for (base, &fix) in bases.iter_mut().zip(&pad_fix[(ky * k + kx) * oc..][..oc]) {
                            *base += fix;
                        }
                    }
                }
            }
        }
    }
}

/// Sign-pack one `[ic, h, w]` image into the zero-padded bitmap, fully
/// overwriting it (stale scratch never leaks). Channel `c`'s bit is
/// `sign_bit(x − shift[c])`, or `x − uniform` where the table is empty.
/// A row's words are built `N` pixels at a time in registers and stored
/// once: `N` is the widest of 64 (where `WIDE`: AVX-512's 32 vector
/// registers hold 64 words in 8), 32, 16 or 1 that the row holds.
#[inline(always)]
fn pack_image<const WIDE: bool>(g: &Geometry, image: &[f32], shift: (&[f32], f32), bitmap: &mut [u64]) {
    let (h, w, pad) = (g.y.extent, g.x.extent, g.spec.padding);
    // Unpadded, a plane's rows are contiguous in bitmap and image alike:
    // pack it as one row.
    let (h, w) = if pad == 0 { (1, h * w) } else { (h, w) };
    let row = w + 2 * pad;
    for (j, plane) in bitmap.chunks_mut(g.plane()).enumerate() {
        let channels = &image[j * 64 * h * w..(g.ic.min(j * 64 + 64)) * h * w];
        let mut shifts = [shift.1; 64];
        for (s, &beta) in shifts.iter_mut().zip(shift.0.get(j * 64..).unwrap_or_default()) {
            *s = beta;
        }
        plane[..pad * row].fill(0);
        plane[(pad + h) * row..].fill(0);
        for (y, words) in plane[pad * row..(pad + h) * row].chunks_mut(row).enumerate() {
            words[..pad].fill(0);
            words[pad + w..].fill(0);
            let (words, at) = (&mut words[pad..pad + w], y * w);
            match w {
                64.. if WIDE => pack_row::<64>(words, channels, h * w, at, &shifts),
                32.. => pack_row::<32>(words, channels, h * w, at, &shifts),
                16.. => pack_row::<16>(words, channels, h * w, at, &shifts),
                _ => pack_row::<1>(words, channels, h * w, at, &shifts),
            }
        }
    }
}

/// Pack one bitmap row of `words.len()` (at least `N`) pixels starting at
/// `at` in each channel plane, `N` pixels at a time, the last `N`
/// overlapping their predecessors where the width is no multiple of `N`.
#[inline(always)]
fn pack_row<const N: usize>(words: &mut [u64], channels: &[f32], plane: usize, at: usize, shifts: &[f32; 64]) {
    let w = words.len();
    let mut x = 0;
    while x + N < w {
        *chunk_mut(words, x) = pack_words::<N>(channels, plane, at + x, shifts);
        x += N;
    }
    *chunk_mut(words, w - N) = pack_words::<N>(channels, plane, at + w - N, shifts);
}

/// The bitmap words of `N` pixels starting at `at` in each channel plane
/// of `channels` (`plane` floats apart, at most 64 planes), built in
/// registers: each channel ORs its sign bits into all `N` in turn.
#[inline(always)]
fn pack_words<const N: usize>(channels: &[f32], plane: usize, at: usize, shifts: &[f32; 64]) -> [u64; N] {
    let mut words = [0u64; N];
    for (lane, (channel, &s)) in channels.chunks_exact(plane).zip(shifts).enumerate() {
        let bit = 1u64 << lane;
        for (word, &v) in words.iter_mut().zip(chunk::<_, N>(channel, at)) {
            *word |= sign_bit(v - s).wrapping_neg() & bit;
        }
    }
    words
}

/// The `N` elements of `values` from `at`, as an array.
#[inline(always)]
fn chunk<T, const N: usize>(values: &[T], at: usize) -> &[T; N] {
    values[at..at + N].try_into().expect("a slice of N")
}

/// [`chunk`], mutably.
#[inline(always)]
fn chunk_mut<T, const N: usize>(values: &mut [T], at: usize) -> &mut [T; N] {
    (&mut values[at..at + N]).try_into().expect("a slice of N")
}

/// Everything the kernel reads for one image.
pub(crate) struct Job<'a> {
    pub(crate) g: &'a Geometry,
    pub(crate) bitmap: &'a [u64],
    /// Per output channel: `k² × wpp` weight words, [`base_table`]
    /// entries (class-major), the float scale and the bias.
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
    let (taps, oc, xb, width) = (k * k * wpp, job.scales.len(), g.x.border_count(), g.interior_width());
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
        let mut classes = job.base[c..].iter().step_by(oc).copied();
        for bases in rows.chunks_mut(xb + width) {
            let (left, rest) = bases.split_at_mut(lo);
            let (interior, right) = rest.split_at_mut(width);
            interior.fill(classes.next().expect("a base per class"));
            for base in left.iter_mut().chain(right) {
                *base = classes.next().expect("a base per class");
            }
        }
        let epilogue = Epilogue {
            scale: job.scales[c],
            bias: job.bias.map_or(-0.0, |bias| bias[c]),
            channel: job.channel.map_or(1.0, |gate| gate[c]),
        };
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
            let mut differ = [0u32; SEGMENT];
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
                        // In range: see `Geometry::new`.
                        differ[q] += count as u32;
                    }
                } else {
                    for ky in 0..k {
                        for kx in 0..k {
                            let wv = weights[(ky * k + kx) * wpp + j];
                            let at = q0 + ky * row + kx;
                            for (d, a) in differ.iter_mut().zip(&plane[at..at + len]) {
                                *d += (a ^ wv).count_ones();
                            }
                        }
                    }
                }
            }
            // Each row's run of `n` pixels is one `store_row`. Its bases are
            // a slice of its class's spelled-out row: from column `ox0` when
            // the run starts left of the interior, else ending the interior
            // copies where the run's right border columns begin. Rows sit
            // `cols` apart in the output and in a gate or skip; an absent
            // one is the same neutral row each time.
            let end = ox0 + n;
            let inner = end.min(hi).saturating_sub(ox0.max(lo));
            let from = if ox0 < lo { ox0 } else { lo + width - inner + ox0.saturating_sub(hi) };
            let at = oy0 * cols + ox0;
            let (spatial, spatial_pitch) = job.spatial.map_or((&ONES[..], 0), |gate| (&gate[at..], cols));
            let (skip, skip_pitch) = skip.map_or((&NEG_ZEROS[..], 0), |x| (&x[at..], cols));
            let out = &mut out[at..];
            for (r, oy) in (oy0..oy0 + n_rows).enumerate() {
                store_row(
                    &mut out[r * cols..][..n],
                    &differ[r * pitch..],
                    stride,
                    &rows[g.y.class_of(oy) * (xb + width) + from..],
                    &spatial[r * spatial_pitch..],
                    &skip[r * skip_pitch..],
                    epilogue,
                );
            }
        }
    }
}

/// One output channel's epilogue scalars: its weight scale `s_c`, bias and
/// channel gate.
#[derive(Debug, Clone, Copy)]
struct Epilogue {
    scale: f32,
    bias: f32,
    channel: f32,
}

impl Epilogue {
    /// One element: `s_c·dot`, then the bias, the pixel's gate, the
    /// channel's gate and the skip, each a separate IEEE operation.
    #[inline(always)]
    fn apply(self, count: u32, base: i32, spatial: f32, x: f32) -> f32 {
        (self.scale * (base - 2 * count as i32) as f32 + self.bias) * spatial * self.channel + x
    }
}

/// Store one output row of `out.len()` pixels. Its counts start at
/// `counts` and sit `stride` positions apart; `bases`, `spatial` and
/// `skip` start at the row's first pixel. At stride 1 the row goes in
/// whole [`CHUNK`]s, the last one overlapping its predecessor when the
/// width is no multiple of it (those pixels are stored twice, with the
/// same value), or in one plain loop when it is narrower than a chunk.
#[inline(always)]
fn store_row(
    out: &mut [f32],
    counts: &[u32],
    stride: usize,
    bases: &[i32],
    spatial: &[f32],
    skip: &[f32],
    e: Epilogue,
) {
    let n = out.len();
    let (bases, spatial, skip) = (&bases[..n], &spatial[..n], &skip[..n]);
    if stride != 1 {
        let operands = counts.iter().step_by(stride).zip(bases).zip(spatial).zip(skip);
        for (v, (((&d, &base), &s), &x)) in out.iter_mut().zip(operands) {
            *v = e.apply(d, base, s, x);
        }
        return;
    }
    let counts = &counts[..n];
    if n < CHUNK {
        for (v, (((&d, &base), &s), &x)) in out.iter_mut().zip(counts.iter().zip(bases).zip(spatial).zip(skip)) {
            *v = e.apply(d, base, s, x);
        }
        return;
    }
    let mut at = 0;
    while at + CHUNK < n {
        store_chunk(chunk_mut(out, at), chunk(counts, at), chunk(bases, at), chunk(spatial, at), chunk(skip, at), e);
        at += CHUNK;
    }
    let at = n - CHUNK;
    store_chunk(chunk_mut(out, at), chunk(counts, at), chunk(bases, at), chunk(spatial, at), chunk(skip, at), e);
}

/// [`store_row`]'s body: one [`CHUNK`] of pixels.
#[inline(always)]
fn store_chunk(
    out: &mut [f32; CHUNK],
    counts: &[u32; CHUNK],
    bases: &[i32; CHUNK],
    spatial: &[f32; CHUNK],
    skip: &[f32; CHUNK],
    e: Epilogue,
) {
    for i in 0..CHUNK {
        out[i] = e.apply(counts[i], bases[i], spatial[i], skip[i]);
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
    pack_image::<false>(g, image, shift, bitmap);
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
        ($pack:ident, $conv:ident, $wide:literal, $($feature:literal),+) => {
            /// # Safety
            ///
            /// The CPU must support the enabled features (runtime-checked
            /// by [`super::pack`]).
            #[target_feature($(enable = $feature),+)]
            pub(super) unsafe fn $pack(g: &Geometry, image: &[f32], shift: (&[f32], f32), bitmap: &mut [u64]) {
                pack_image::<$wide>(g, image, shift, bitmap);
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

    at_level!(pack_popcnt, conv_popcnt, false, "sse4.2", "popcnt");
    at_level!(pack_avx2, conv_avx2, false, "avx2", "popcnt");
    at_level!(
        pack_avx512,
        conv_avx512,
        true,
        "avx2",
        "popcnt",
        "avx512f",
        "avx512bw",
        "avx512dq",
        "avx512vl",
        "avx512vpopcntdq"
    );
}


#[cfg(test)]
mod tests {
    use super::*;
    use scales_tensor::simd;

    /// SplitMix64, for the test data.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Values around zero salted with NaN, both zeros, both infinities and
    /// subnormals of either sign.
    fn hostile(next: &mut impl FnMut() -> u64, n: usize) -> Vec<f32> {
        let specials =
            [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE / 4.0, -f32::MIN_POSITIVE / 2.0];
        (0..n)
            .map(|_| match next() % 8 {
                0 => specials[(next() % specials.len() as u64) as usize],
                _ => (next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            })
            .collect()
    }

    /// The packed bitmap against a reference written per (channel, pixel):
    /// every word zero but bit `c % 64` of word `(c / 64, pad + y, pad + x)`
    /// set where `sign_bit(x − shift) = 1`. Channel counts around one and
    /// two words, paddings 0–2, widths 1–40 (every pack chunk width and the
    /// overlapping last chunk), every [`SignShift`], hostile inputs and
    /// shifts, the bitmap full of ones beforehand — at every level.
    ///
    /// Hand mutants this test kills: the row's overlapping last chunk
    /// dropped; the left pad word left as it was; the first
    /// channel lane ORed onto the stale word instead of starting from zero;
    /// the per-channel shifts one channel late.
    #[test]
    fn pack_matches_a_per_channel_sign_reference() {
        let mut next = stream(29);
        let mut cases = 0;
        for ic in [1usize, 15, 16, 17, 63, 64, 65, 130] {
            for pad in 0..3 {
                for w in 1..=40 {
                    let h = 2;
                    let spec = Conv2dSpec { stride: 1, padding: pad };
                    let g = Geometry::new(ic, 1, spec, h, w).unwrap();
                    let image = hostile(&mut next, ic * h * w);
                    let (beta, means) = (hostile(&mut next, ic), hostile(&mut next, 1));
                    let shifts = [SignShift::None, SignShift::PerChannel(&beta), SignShift::PerImage(&means)];
                    let shift = shifts[cases % 3].of_image(0);
                    let row = w + 2 * pad;
                    let mut want = vec![0u64; g.bitmap_words()];
                    for c in 0..ic {
                        let s = shift.0.get(c).copied().unwrap_or(shift.1);
                        for y in 0..h {
                            for x in 0..w {
                                let word = (c / 64) * g.plane() + (pad + y) * row + pad + x;
                                want[word] |= sign_bit(image[(c * h + y) * w + x] - s) << (c % 64);
                            }
                        }
                    }
                    for level in simd::available() {
                        let mut bitmap = vec![u64::MAX; g.bitmap_words() + 3];
                        pack(level, &g, &image, shift, &mut bitmap[..g.bitmap_words()]);
                        assert_eq!(bitmap[..g.bitmap_words()], want, "ic={ic} pad={pad} w={w} at {level}");
                        assert_eq!(bitmap[g.bitmap_words()..], [u64::MAX; 3], "ic={ic} pad={pad} w={w} at {level}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 8 * 3 * 40);
    }

    /// Every base-table entry against its definition, pixel by pixel: `k²·IC`
    /// plus the fix of each tap that reads padding at that output pixel,
    /// looked up through the pixel's class — kernels that fit, that reach
    /// past every border at once, paddings up to `k`, strides 1–3. It kills
    /// the hand mutant of a class's column range one tap too wide
    /// (`x0..=x1`).
    #[test]
    fn base_table_matches_the_per_pixel_definition() {
        let mut next = stream(31);
        for k in 1..=5 {
            for pad in 0..=k {
                for stride in 1..=3 {
                    for (h, w) in [(1usize, 1usize), (2, 7), (5, 3), (9, 12)] {
                        let (ic, oc) = (70, 3);
                        let spec = Conv2dSpec { stride, padding: pad };
                        let Ok(g) = Geometry::new(ic, k, spec, h, w) else { continue };
                        let fix: Vec<i32> = (0..k * k * oc).map(|_| (next() % 141) as i32 - 70).collect();
                        let mut table = vec![i32::MIN; oc * g.base_len()];
                        base_table(&g, &fix, &mut table);
                        let (oh, ow) = g.out();
                        let padded = |o: usize, t: usize, extent: usize| {
                            let at = o * stride + t;
                            at < pad || at >= pad + extent
                        };
                        for c in 0..oc {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let mut want = (k * k * ic) as i32;
                                    for ky in 0..k {
                                        for kx in 0..k {
                                            if padded(oy, ky, h) || padded(ox, kx, w) {
                                                want += fix[(ky * k + kx) * oc + c];
                                            }
                                        }
                                    }
                                    let cx = match g.x.class_of(ox) {
                                        interior if interior == g.x.border_count() => 0,
                                        border => 1 + border,
                                    };
                                    let class = g.y.class_of(oy) * (g.x.border_count() + 1) + cx;
                                    let label = format!("k={k} pad={pad} stride={stride} {h}x{w} c={c} ({oy}, {ox})");
                                    assert_eq!(table[class * oc + c], want, "{label}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A call whose count could leave `i32` is refused up front; the
    /// largest one that cannot is accepted.
    #[test]
    fn counts_that_could_pass_i32_are_a_typed_error() {
        let spec = Conv2dSpec { stride: 1, padding: 1 };
        // 2·9·64·wpp ≤ i32::MAX holds up to wpp = 1,864,135.
        assert!(Geometry::new(1_864_135 * 64, 3, spec, 4, 4).is_ok());
        let err = Geometry::new(1_864_135 * 64 + 1, 3, spec, 4, 4).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument(_)), "{err:?}");
        assert!(Geometry::new(usize::MAX, 3, spec, 4, 4).is_err());
    }
}
