//! The one interpreter of a [`DeployedNetwork`]: a [`Plan`] per input
//! shape, executed by `Plan::run_op` — the only function that runs a
//! [`DeployedOp`].
//!
//! The graph, the input shape, and therefore every intermediate's size are
//! fixed after the first request. A [`Plan`] captures exactly that
//! invariant structure once:
//!
//! * **shape inference** — the `[n, c, h, w]` of every SSA value (and the
//!   check that every op reads only values produced before it);
//! * **liveness** — each value's last consumer;
//! * **slot assignment** — a linear scan over the live intervals maps
//!   every value to a slot in a shared arena, reusing slots the moment
//!   their previous value dies (best-fit by size, so the arena stays
//!   close to the live-set high-water mark rather than the graph depth).
//!   Elementwise ops (`Relu`, `Prelu`, `Gelu`, `Scale`, `Add`) run **in
//!   place** on a dying operand's slot, skipping the copy entirely;
//! * **bicubic taps** — the global-skip resampler's filter weights,
//!   precomputed per axis.
//!
//! [`DeployedNetwork::forward_planned`] executes the graph through a
//! [`Workspace`] whose slot buffers and [`ConvScratch`] (one image's
//! zero-padded input planes for the direct float convolution, the binary
//! kernel's sign bitmap, gate maps and reductions, one attention window's
//! `q` / `k` / `v` tiles and scores) grow on the first
//! request at a given shape and are reused verbatim afterwards: the steady
//! state performs **zero heap allocation** up to the returned output
//! tensor itself.
//!
//! [`DeployedNetwork::forward`] is the same executor with slot reuse off:
//! one slot per value, nothing in place, nothing recycled, fresh buffers
//! and a fresh scratch per call. Both run identical kernels on identical
//! operands, so the two can differ only where the planner aliased two
//! values that were live together — which makes `forward` the aliasing
//! oracle: `tests/planned.rs` enforces `f32::to_bits` equality of the two
//! across every architecture and method, and the model check in this
//! module's tests does the same over generated op graphs, next to the
//! slot-assignment invariants themselves. (The kernels are pinned
//! separately, against `conv2d`, separate passes and the training tape,
//! by `tests/kernels.rs`.)
//!
//! A [`Workspace`] belongs to one network (in practice: one serving
//! session). Plans are cached per input shape inside it, so a session
//! serving mixed sizes pays one planning pass per distinct shape.

use crate::deploy::{DeployedNetwork, DeployedOp, ValueId};
use scales_data::BicubicAxisTaps;
use scales_telemetry::OpProfile;
use scales_tensor::ops::{check_window, gelu_into, layer_norm_into, window_attention_into};
use scales_tensor::workspace::{sized, ConvScratch};
use scales_tensor::{Result, Tensor, TensorError};
use std::time::Instant;

/// Flat volume of a rank-4 shape.
fn vol(shape: [usize; 4]) -> usize {
    shape[0] * shape[1] * shape[2] * shape[3]
}

/// The once-per-(graph, input shape) execution schedule: value shapes,
/// arena slot assignment, and precomputed resampler taps. Build via
/// [`DeployedNetwork::plan`]; execute via
/// [`DeployedNetwork::forward_planned`].
pub struct Plan {
    input_shape: [usize; 4],
    /// Per value id (0 = network input): inferred shape.
    shapes: Vec<[usize; 4]>,
    /// Per value id: arena slot (`None` only for the network input, which
    /// is read from the request tensor directly).
    slot_of: Vec<Option<usize>>,
    /// Per slot: element capacity (max over the values it hosts).
    slot_sizes: Vec<usize>,
    /// Per op: precomputed `(y, x)` axis taps for `BicubicUp`.
    bicubic: Vec<Option<(BicubicAxisTaps, BicubicAxisTaps)>>,
    output: ValueId,
}

impl Plan {
    /// The input shape this plan was built for.
    #[must_use]
    pub fn input_shape(&self) -> [usize; 4] {
        self.input_shape
    }

    /// Number of arena slots (the live-value high-water mark, not the
    /// graph depth).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slot_sizes.len()
    }

    /// Total arena capacity in `f32` elements.
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.slot_sizes.iter().sum()
    }

    /// Number of values in the graph (ops + the input).
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.shapes.len()
    }

    /// Bytes of bookkeeping this plan holds on the heap, by allocated
    /// capacity: shape table, slot map, slot sizes, and the bicubic tap
    /// tables. The arena buffers themselves belong to the [`Workspace`]
    /// and are accounted by [`Workspace::memory_bytes`].
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let taps: usize = self
            .bicubic
            .iter()
            .flatten()
            .map(|(y, x)| y.memory_bytes() + x.memory_bytes())
            .sum();
        self.shapes.capacity() * std::mem::size_of::<[usize; 4]>()
            + self.slot_of.capacity() * std::mem::size_of::<Option<usize>>()
            + self.slot_sizes.capacity() * std::mem::size_of::<usize>()
            + self.bicubic.capacity()
                * std::mem::size_of::<Option<(BicubicAxisTaps, BicubicAxisTaps)>>()
            + taps
    }

    fn value<'a>(&self, input: &'a [f32], slots: &'a [Vec<f32>], id: ValueId) -> &'a [f32] {
        match self.slot_of[id] {
            None => input,
            Some(s) => &slots[s][..vol(self.shapes[id])],
        }
    }

    /// Execute the plan. `slots`/`scratch` grow on first use at this shape
    /// and are reused verbatim afterwards; the only steady-state
    /// allocation is the returned output tensor.
    fn execute(
        &self,
        net: &DeployedNetwork,
        input: &Tensor,
        slots: &mut Vec<Vec<f32>>,
        scratch: &mut ConvScratch,
        mut profile: Option<&mut OpProfile>,
    ) -> Result<Tensor> {
        if input.shape() != self.input_shape.as_slice() {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().to_vec(),
                rhs: self.input_shape.to_vec(),
                op: "planned forward input",
            });
        }
        if net.num_ops() + 1 != self.shapes.len() || net.output() != self.output {
            return Err(TensorError::InvalidArgument(
                "plan does not belong to this network (a Workspace serves exactly one model)"
                    .into(),
            ));
        }
        if slots.len() < self.slot_sizes.len() {
            slots.resize_with(self.slot_sizes.len(), Vec::new);
        }
        // Grown to exactly the size asked, like every scratch buffer: a
        // slot is a high-water mark over the shapes served, so its
        // capacity must not depend on the order those shapes arrived in.
        for (slot, &sz) in slots.iter_mut().zip(&self.slot_sizes) {
            sized(slot, sz);
        }
        if self.output == 0 {
            // Degenerate passthrough graph.
            return Ok(input.clone());
        }
        for (i, op) in net.ops().iter().enumerate() {
            let out_id = i + 1;
            let oshape = self.shapes[out_id];
            let oslot = self.slot_of[out_id].expect("op outputs always have a slot");
            // Move the output buffer out of the arena so the op can read
            // any other value while writing it; in-place ops find their
            // operand's data already inside it.
            let mut out_buf = std::mem::take(&mut slots[oslot]);
            // The profiler branch stamps the clock around the op only
            // when switched on; the off path pays one branch and no
            // clock reads.
            let r = match profile.as_deref_mut() {
                Some(profile) => {
                    let started = Instant::now();
                    let r = self.run_op(op, i, oslot, oshape, input.data(), slots, scratch, &mut out_buf[..vol(oshape)]);
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    profile.record(op.kind(), ns);
                    r
                }
                None => self.run_op(op, i, oslot, oshape, input.data(), slots, scratch, &mut out_buf[..vol(oshape)]),
            };
            slots[oslot] = out_buf;
            r?;
        }
        let oshape = self.shapes[self.output];
        let data = self.value(input.data(), slots, self.output).to_vec();
        Tensor::from_vec(data, &oshape)
    }

    /// Elementwise `out = f(src)` — applied in place when the plan gave the
    /// op its dying operand's slot (`out` then already holds `src`).
    fn map_op(
        &self,
        src: ValueId,
        oslot: usize,
        input: &[f32],
        slots: &[Vec<f32>],
        out: &mut [f32],
        f: impl Fn(f32) -> f32,
    ) {
        if self.slot_of[src] == Some(oslot) {
            out.iter_mut().for_each(|v| *v = f(*v));
        } else {
            for (o, &x) in out.iter_mut().zip(self.value(input, slots, src)) {
                *o = f(x);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_op(
        &self,
        op: &DeployedOp,
        i: usize,
        oslot: usize,
        oshape: [usize; 4],
        input: &[f32],
        slots: &[Vec<f32>],
        scratch: &mut ConvScratch,
        out: &mut [f32],
    ) -> Result<()> {
        match op {
            DeployedOp::FloatConv { conv, src } => {
                let [n, _, h, w] = self.shapes[*src];
                conv.forward_into(self.value(input, slots, *src), n, h, w, &mut scratch.padded, out)
            }
            DeployedOp::Body { conv, src } => {
                let [n, _, h, w] = self.shapes[*src];
                conv.forward_into(self.value(input, slots, *src), n, h, w, scratch, out)
            }
            DeployedOp::Relu { src } => {
                self.map_op(*src, oslot, input, slots, out, |v| v.max(0.0));
                Ok(())
            }
            DeployedOp::Prelu { slope, src } => {
                let s = *slope;
                self.map_op(*src, oslot, input, slots, out, |v| if v > 0.0 { v } else { s * v });
                Ok(())
            }
            DeployedOp::Gelu { src } => {
                let src = (self.slot_of[*src] != Some(oslot)).then(|| self.value(input, slots, *src));
                gelu_into(src, out)
            }
            DeployedOp::Scale { factor, src } => {
                let f = *factor;
                self.map_op(*src, oslot, input, slots, out, |v| v * f);
                Ok(())
            }
            DeployedOp::LayerNorm { gamma, beta, eps, src } => {
                let [n, c, h, w] = self.shapes[*src];
                let x = self.value(input, slots, *src);
                layer_norm_into(x, n, c, h * w, gamma, beta, *eps, &mut scratch.plane, out)
            }
            DeployedOp::WindowAttention { window, q, k, v } => {
                let [n, c, h, w] = self.shapes[*q];
                let [q, k, v] = [q, k, v].map(|id| self.value(input, slots, *id));
                window_attention_into(q, k, v, n, c, h, w, *window, &mut scratch.padded, out)
            }
            DeployedOp::Add { lhs, rhs } => {
                if lhs != rhs && self.slot_of[*lhs] == Some(oslot) {
                    // out already holds lhs.
                    for (o, &bv) in out.iter_mut().zip(self.value(input, slots, *rhs)) {
                        *o += bv;
                    }
                } else if lhs != rhs && self.slot_of[*rhs] == Some(oslot) {
                    // out already holds rhs (IEEE addition commutes
                    // bitwise for the finite values in play).
                    for (o, &av) in out.iter_mut().zip(self.value(input, slots, *lhs)) {
                        *o += av;
                    }
                } else {
                    let l = self.value(input, slots, *lhs);
                    let r = self.value(input, slots, *rhs);
                    for ((o, &av), &bv) in out.iter_mut().zip(l).zip(r) {
                        *o = av + bv;
                    }
                }
                Ok(())
            }
            DeployedOp::Concat { srcs } => {
                let n = oshape[0];
                let mut dst = 0;
                for b in 0..n {
                    for &s in srcs {
                        let p = self.shapes[s];
                        let plen = p[1] * p[2] * p[3];
                        let pdata = self.value(input, slots, s);
                        out[dst..dst + plen].copy_from_slice(&pdata[b * plen..(b + 1) * plen]);
                        dst += plen;
                    }
                }
                Ok(())
            }
            DeployedOp::ChannelAttention { ca, src } => {
                let [n, c, h, w] = self.shapes[*src];
                ca.forward_into(self.value(input, slots, *src), n, c, h, w, scratch, out)
            }
            DeployedOp::PixelShuffle { factor, src } => {
                let [n, cin, h, w] = self.shapes[*src];
                let r = *factor;
                let plane = h * w;
                let data = self.value(input, slots, *src);
                // Output row `y·r + ry` of plane `b·cout + co` interleaves
                // row `y` of the `r` input planes `(b·cout + co)·r² + ry·r + rx`;
                // each output row is written front to back.
                for bc in 0..n * cin / (r * r) {
                    for y in 0..h {
                        for ry in 0..r {
                            let first = (bc * r * r + ry * r) * plane + y * w;
                            let row = ((bc * h + y) * r + ry) * w * r;
                            for (x, pixel) in out[row..row + w * r].chunks_exact_mut(r).enumerate() {
                                for (rx, v) in pixel.iter_mut().enumerate() {
                                    *v = data[first + rx * plane + x];
                                }
                            }
                        }
                    }
                }
                Ok(())
            }
            DeployedOp::BicubicUp { src, .. } => {
                let (ytaps, xtaps) = self.bicubic[i]
                    .as_ref()
                    .expect("BicubicUp ops carry precomputed taps");
                let [n, c, h, w] = self.shapes[*src];
                let data = self.value(input, slots, *src);
                let (oh, ow) = (ytaps.out_extent(), xtaps.out_extent());
                for b in 0..n {
                    scales_data::resize_bicubic_into(
                        &data[b * c * h * w..(b + 1) * c * h * w],
                        c,
                        h,
                        w,
                        xtaps,
                        ytaps,
                        &mut scratch.padded,
                        &mut out[b * c * oh * ow..(b + 1) * c * oh * ow],
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// Infer one op's output shape from its input shapes.
fn infer_shape(op: &DeployedOp, shapes: &[[usize; 4]]) -> Result<[usize; 4]> {
    let same_shape = |ids: &[ValueId]| -> Result<[usize; 4]> {
        let first = shapes[ids[0]];
        for &id in &ids[1..] {
            if shapes[id] != first {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.to_vec(),
                    rhs: shapes[id].to_vec(),
                    op: "planned elementwise shapes",
                });
            }
        }
        Ok(first)
    };
    match op {
        DeployedOp::FloatConv { conv, src } => {
            let [n, c, h, w] = shapes[*src];
            if c != conv.weight().shape()[1] {
                return Err(TensorError::ShapeMismatch {
                    lhs: shapes[*src].to_vec(),
                    rhs: conv.weight().shape().to_vec(),
                    op: "planned conv channels",
                });
            }
            let (oc, oh, ow) = conv.out_shape(h, w)?;
            Ok([n, oc, oh, ow])
        }
        DeployedOp::Body { conv, src } => {
            let [n, c, h, w] = shapes[*src];
            if c != conv.in_channels() {
                return Err(TensorError::ShapeMismatch {
                    lhs: shapes[*src].to_vec(),
                    rhs: vec![conv.out_channels(), conv.in_channels()],
                    op: "planned body conv channels",
                });
            }
            let (oc, oh, ow) = conv.out_shape(h, w)?;
            Ok([n, oc, oh, ow])
        }
        DeployedOp::Relu { src }
        | DeployedOp::Prelu { src, .. }
        | DeployedOp::Gelu { src }
        | DeployedOp::Scale { src, .. }
        | DeployedOp::ChannelAttention { src, .. } => Ok(shapes[*src]),
        DeployedOp::LayerNorm { gamma, beta, src, .. } => {
            let c = shapes[*src][1];
            if gamma.len() != c || beta.len() != c {
                return Err(TensorError::ShapeMismatch {
                    lhs: shapes[*src].to_vec(),
                    rhs: vec![gamma.len(), beta.len()],
                    op: "planned layer-norm channels",
                });
            }
            Ok(shapes[*src])
        }
        DeployedOp::WindowAttention { window, q, k, v } => {
            let [_, _, h, w] = shapes[*q];
            check_window(h, w, *window)?;
            same_shape(&[*q, *k, *v])
        }
        DeployedOp::Add { lhs, rhs } => same_shape(&[*lhs, *rhs]),
        DeployedOp::Concat { srcs } => {
            if srcs.is_empty() {
                return Err(TensorError::InvalidArgument("concat of zero values".into()));
            }
            let first = shapes[srcs[0]];
            let mut channels = 0;
            for &s in srcs {
                let p = shapes[s];
                if [p[0], p[2], p[3]] != [first[0], first[2], first[3]] {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.to_vec(),
                        rhs: p.to_vec(),
                        op: "planned concat extents",
                    });
                }
                channels += p[1];
            }
            Ok([first[0], channels, first[2], first[3]])
        }
        DeployedOp::PixelShuffle { factor, src } => {
            let [n, c, h, w] = shapes[*src];
            let r = *factor;
            if r == 0 || !c.is_multiple_of(r * r) {
                return Err(TensorError::InvalidArgument(format!(
                    "channels {c} not divisible by r^2 = {}",
                    r * r
                )));
            }
            Ok([n, c / (r * r), h * r, w * r])
        }
        DeployedOp::BicubicUp { scale, src } => {
            let [n, c, h, w] = shapes[*src];
            if *scale == 0 {
                return Err(TensorError::InvalidArgument("upscale factor must be positive".into()));
            }
            Ok([n, c, h * scale, w * scale])
        }
    }
}

impl DeployedNetwork {
    /// Build the execution [`Plan`] for an input of the given `[n, c, h,
    /// w]` shape: shape inference over the op graph, liveness-driven arena
    /// slot assignment, and resampler tap precomputation.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-rank-4 input shape, a graph whose ops
    /// cannot accept the inferred intermediate shapes, or a malformed
    /// graph: an op reading a value no earlier op produces, or an output
    /// id past the last value.
    pub fn plan(&self, input_shape: &[usize]) -> Result<Plan> {
        self.schedule(input_shape, true)
    }

    /// [`DeployedNetwork::plan`], with slot reuse on or off. Off, every
    /// value gets a slot of its own and no op runs in place: the schedule
    /// [`DeployedNetwork::forward`] executes.
    fn schedule(&self, input_shape: &[usize], reuse: bool) -> Result<Plan> {
        let [n, c, h, w] = match *input_shape {
            [n, c, h, w] => [n, c, h, w],
            _ => {
                return Err(TensorError::RankMismatch {
                    expected: 4,
                    actual: input_shape.len(),
                    op: "planned network input",
                })
            }
        };
        let last_use = self.last_use();
        let nvals = self.num_ops() + 1;
        if self.output() >= nvals {
            return Err(TensorError::InvalidArgument(format!(
                "graph output is value {}, but the graph has only {nvals} values",
                self.output()
            )));
        }
        let mut shapes: Vec<[usize; 4]> = Vec::with_capacity(nvals);
        shapes.push([n, c, h, w]);
        let mut bicubic = Vec::with_capacity(self.num_ops());
        for (i, op) in self.ops().iter().enumerate() {
            // Op `i` may read the input and the values of ops `0..i`.
            if let Some(id) = op.inputs().as_slice().iter().find(|&&id| id > i) {
                return Err(TensorError::InvalidArgument(format!(
                    "op {i} ({}) reads value {id}, which no earlier op produces",
                    op.kind()
                )));
            }
            shapes.push(infer_shape(op, &shapes)?);
            bicubic.push(match op {
                DeployedOp::BicubicUp { scale, src } => {
                    let [_, _, sh, sw] = shapes[*src];
                    Some((
                        BicubicAxisTaps::new(sh, sh * scale),
                        BicubicAxisTaps::new(sw, sw * scale),
                    ))
                }
                _ => None,
            });
        }
        // Linear-scan slot assignment over the SSA live intervals.
        let mut slot_of: Vec<Option<usize>> = vec![None; nvals];
        let mut slot_sizes: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        for (i, op) in self.ops().iter().enumerate() {
            let out_id = i + 1;
            let need = vol(shapes[out_id]);
            if !reuse {
                slot_of[out_id] = Some(slot_sizes.len());
                slot_sizes.push(need);
                continue;
            }
            // Elementwise ops take over a dying operand's slot and run in
            // place (never the network input or the graph output).
            let steal = |v: ValueId, other: Option<ValueId>| {
                v != 0
                    && v != self.output()
                    && last_use[v] == i
                    && other != Some(v)
                    && slot_of[v].is_some()
            };
            let inplace = match op {
                DeployedOp::Relu { src }
                | DeployedOp::Prelu { src, .. }
                | DeployedOp::Gelu { src }
                | DeployedOp::Scale { src, .. } => steal(*src, None).then_some(*src),
                DeployedOp::Add { lhs, rhs } => {
                    if steal(*lhs, Some(*rhs)) {
                        Some(*lhs)
                    } else if steal(*rhs, Some(*lhs)) {
                        Some(*rhs)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let slot = match inplace {
                Some(v) => slot_of[v].expect("steal checked the slot"),
                None => {
                    // Best fit: the smallest free slot that already fits,
                    // else grow the largest free one, else a new slot.
                    let pick = free
                        .iter()
                        .enumerate()
                        .filter(|&(_, &s)| slot_sizes[s] >= need)
                        .min_by_key(|&(_, &s)| slot_sizes[s])
                        .map(|(fi, _)| fi)
                        .or_else(|| {
                            free.iter()
                                .enumerate()
                                .max_by_key(|&(_, &s)| slot_sizes[s])
                                .map(|(fi, _)| fi)
                        });
                    match pick {
                        Some(fi) => free.swap_remove(fi),
                        None => {
                            slot_sizes.push(0);
                            slot_sizes.len() - 1
                        }
                    }
                }
            };
            slot_sizes[slot] = slot_sizes[slot].max(need);
            slot_of[out_id] = Some(slot);
            // Release the slots of values whose last consumer was this op
            // (the stolen slot is already reassigned to the output).
            for &id in op.inputs().as_slice() {
                if id == 0 || id == self.output() || last_use[id] != i {
                    continue;
                }
                if let Some(s) = slot_of[id] {
                    if Some(s) != slot_of[out_id] && !free.contains(&s) {
                        free.push(s);
                    }
                }
            }
        }
        Ok(Plan {
            input_shape: [n, c, h, w],
            shapes,
            slot_of,
            slot_sizes,
            bicubic,
            output: self.output(),
        })
    }

    /// Run deployed inference on an input batch `[N, 3, H, W]` with slot
    /// reuse off: the executor of [`DeployedNetwork::forward_planned`] on a
    /// one-slot-per-value schedule, fresh buffers and a fresh scratch. No
    /// two values ever share memory, which is what makes this the oracle
    /// the planner's aliasing is tested against — and it holds every
    /// intermediate until the call returns, so serving paths use
    /// `forward_planned`.
    ///
    /// # Errors
    ///
    /// As [`DeployedNetwork::plan`], for the shape of `input`.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let schedule = self.schedule(input.shape(), false)?;
        schedule.execute(self, input, &mut Vec::new(), &mut ConvScratch::new(), None)
    }

    /// Run deployed inference through the planned zero-allocation
    /// executor. The plan for `input`'s shape is built (and cached in
    /// `ws`) on first use; afterwards the forward reuses the workspace's
    /// arena and scratch verbatim, allocating nothing but the returned
    /// output tensor. Bit-identical to [`DeployedNetwork::forward`].
    ///
    /// A [`Workspace`] must serve exactly one network.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 inputs or mismatched geometry.
    pub fn forward_planned(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        // A shape of the wrong rank matches no cached plan and is refused
        // by `plan`.
        let idx = match ws.plans.iter().position(|p| p.input_shape.as_slice() == input.shape()) {
            Some(i) => {
                ws.plan_hits += 1;
                i
            }
            None => {
                ws.plans.push(self.plan(input.shape())?);
                ws.plans_built += 1;
                ws.plans.len() - 1
            }
        };
        let Workspace { plans, slots, scratch, profile, profile_enabled, .. } = ws;
        plans[idx].execute(self, input, slots, scratch, profile_enabled.then_some(profile))
    }
}

/// The reusable execution state behind [`DeployedNetwork::forward_planned`]:
/// the arena slot buffers, the kernel [`ConvScratch`], and the per-shape
/// [`Plan`] cache, plus counters surfacing plan reuse to serving stats.
///
/// Owned by whoever owns the stream of requests (a `scales-serve`
/// session); serves exactly one network.
#[derive(Default)]
pub struct Workspace {
    slots: Vec<Vec<f32>>,
    scratch: ConvScratch,
    plans: Vec<Plan>,
    plans_built: usize,
    plan_hits: usize,
    /// Cumulative per-op-kind (calls, ns) — populated only while
    /// `profile_enabled` is set.
    profile: OpProfile,
    profile_enabled: bool,
}

impl Workspace {
    /// A fresh, empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans built so far (one per distinct input shape served).
    #[must_use]
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }

    /// Forwards that reused an already-built plan.
    #[must_use]
    pub fn plan_hits(&self) -> usize {
        self.plan_hits
    }

    /// The cached plans, in build order.
    #[must_use]
    pub fn plans(&self) -> &[Plan] {
        &self.plans
    }

    /// Switch the per-op profiler on or off. Off (the default) the
    /// planned forward reads no clocks; on, every executed op
    /// accumulates `(calls, ns)` under its
    /// [`DeployedOp::kind`] into [`op_profile`](Workspace::op_profile).
    pub fn enable_profiling(&mut self, on: bool) {
        self.profile_enabled = on;
    }

    /// Whether the per-op profiler is currently on.
    #[must_use]
    pub fn profiling_enabled(&self) -> bool {
        self.profile_enabled
    }

    /// The cumulative per-op profile recorded so far (empty while
    /// profiling has never been on).
    #[must_use]
    pub fn op_profile(&self) -> &OpProfile {
        &self.profile
    }

    /// Forget the recorded profile (the on/off switch is unchanged).
    pub fn reset_op_profile(&mut self) {
        self.profile.clear();
    }

    /// Bytes resident in this workspace, every buffer by allocated
    /// capacity: the arena slot buffers, the kernel [`ConvScratch`], and
    /// every cached plan's bookkeeping. This is the serving stack's
    /// plan-cache memory accounting — what a router charges a model for
    /// beyond its packed weights.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let slots: usize =
            self.slots.iter().map(|s| s.capacity() * std::mem::size_of::<f32>()).sum();
        let plans: usize = self.plans.iter().map(Plan::memory_bytes).sum();
        let tables = self.slots.capacity() * std::mem::size_of::<Vec<f32>>()
            + self.plans.capacity() * std::mem::size_of::<Plan>();
        slots + self.scratch.memory_bytes() + plans + tables
    }

    /// The kernel scratch the planned forwards run on.
    #[must_use]
    pub fn scratch(&self) -> &ConvScratch {
        &self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{SrConfig, SrNetwork};
    use crate::deploy::{DeployedChannelAttention, DeployedNetworkBuilder};
    use crate::{edsr, hat, rcan, rdn, srresnet, swinir};
    use scales_core::{BodyConv, BodyLinear, DeployedBodyConv, FloatConv2d, Method};
    use scales_nn::init;
    use scales_tensor::ops::Conv2dSpec;
    use std::collections::BTreeMap;

    fn probe(n: usize, h: usize, w: usize, seed: f32) -> Tensor {
        Tensor::from_vec(
            (0..n * 3 * h * w).map(|i| ((i as f32 + seed) * 0.17).sin() * 0.4 + 0.5).collect(),
            &[n, 3, h, w],
        )
        .unwrap()
    }

    fn assert_planned_bit_identical(net: &dyn SrNetwork, input: &Tensor, label: &str) {
        let deployed = net.lower().unwrap();
        let want = deployed.forward(input).unwrap();
        let mut ws = Workspace::new();
        // Twice through the same workspace: the second pass runs on warm
        // (stale) buffers.
        for round in 0..2 {
            let got = deployed.forward_planned(input, &mut ws).unwrap();
            assert_eq!(got.shape(), want.shape(), "{label}");
            for (a, b) in want.data().iter().zip(got.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{label}, round {round}");
            }
        }
        assert_eq!(ws.plans_built(), 1, "{label}");
        assert_eq!(ws.plan_hits(), 1, "{label}");
    }

    #[test]
    fn planned_matches_allocating_forward_on_every_lowerable_arch() {
        let x = probe(2, 8, 8, 1.0);
        for m in [Method::FullPrecision, Method::scales()] {
            let cfg = |seed| SrConfig { channels: 8, blocks: 2, scale: 2, method: m, seed };
            assert_planned_bit_identical(&srresnet(cfg(51)).unwrap(), &x, "SRResNet");
            assert_planned_bit_identical(&edsr(cfg(52)).unwrap(), &x, "EDSR");
            assert_planned_bit_identical(&rdn(cfg(53)).unwrap(), &x, "RDN");
            assert_planned_bit_identical(&rcan(cfg(54)).unwrap(), &x, "RCAN");
            assert_planned_bit_identical(&swinir(cfg(61)).unwrap(), &x, "SwinIR");
            assert_planned_bit_identical(&hat(cfg(62)).unwrap(), &x, "HAT");
        }
    }

    #[test]
    fn window_misaligned_input_is_a_typed_planning_error() {
        let net = swinir(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 63 })
            .unwrap();
        let deployed = net.lower().unwrap();
        let err = deployed.plan(&[1, 3, 18, 12]).err().expect("18 is not a multiple of the window");
        let text = err.to_string();
        assert!(text.contains("18x12") && text.contains("window 4"), "{text}");
        // The failed shape leaves no plan behind; an aligned one then serves.
        let mut ws = Workspace::new();
        assert!(deployed.forward_planned(&probe(1, 18, 12, 8.0), &mut ws).is_err());
        assert_eq!(ws.plans_built(), 0);
        assert!(deployed.forward_planned(&probe(1, 16, 12, 9.0), &mut ws).is_ok());
        // `forward` plans the same way, so it refuses the same way.
        assert!(deployed.forward(&probe(1, 18, 12, 8.0)).is_err());
    }

    #[test]
    fn transformer_elementwise_ops_run_in_place() {
        // Gelu and Scale join the in-place set: a HAT block's arena stays
        // at the live-set width (the shallow feature, block input,
        // attended and the q / k / v maps) however many blocks are stacked.
        let slots = |blocks| {
            let net = hat(SrConfig { channels: 8, blocks, scale: 2, method: Method::scales(), seed: 64 })
                .unwrap();
            net.lower().unwrap().plan(&[1, 3, 8, 8]).unwrap().slot_count()
        };
        assert_eq!(slots(2), slots(4));
        assert!(slots(4) <= 6, "slot count {}", slots(4));
    }

    #[test]
    fn arena_is_far_smaller_than_the_value_count() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 4,
            scale: 2,
            method: Method::scales(),
            seed: 55,
        })
        .unwrap();
        let deployed = net.lower().unwrap();
        let plan = deployed.plan(&[1, 3, 8, 8]).unwrap();
        assert!(
            plan.slot_count() * 2 < plan.num_values(),
            "liveness must reuse slots: {} slots for {} values",
            plan.slot_count(),
            plan.num_values()
        );
        // The arena is bounded by the live-set width (shallow feature +
        // skip + working value), not the op count.
        assert!(plan.slot_count() <= 6, "slot count {}", plan.slot_count());
    }

    #[test]
    fn one_workspace_serves_multiple_input_shapes() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 56,
        })
        .unwrap();
        let deployed = net.lower().unwrap();
        let mut ws = Workspace::new();
        let (a, b) = (probe(1, 8, 8, 2.0), probe(1, 6, 10, 3.0));
        for _ in 0..2 {
            for x in [&a, &b] {
                let got = deployed.forward_planned(x, &mut ws).unwrap();
                let want = deployed.forward(x).unwrap();
                for (p, q) in want.data().iter().zip(got.data().iter()) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
        assert_eq!(ws.plans_built(), 2, "one plan per shape");
        assert_eq!(ws.plan_hits(), 2, "second round reuses both");
    }

    #[test]
    fn memory_bytes_counts_the_arena_the_scratch_and_the_tap_tables() {
        let channels = 16;
        let net = srresnet(SrConfig { channels, blocks: 1, scale: 2, method: Method::scales(), seed: 60 })
            .unwrap();
        let deployed = net.lower().unwrap();
        let mut ws = Workspace::new();
        assert_eq!(ws.memory_bytes(), 0, "nothing is resident before the first forward");
        let _ = deployed.forward_planned(&probe(1, 40, 40, 7.0), &mut ws).unwrap();

        let plan = &ws.plans()[0];
        let arena = plan.arena_len() * 4;
        let scratch = ws.scratch().memory_bytes();
        let plans = plan.memory_bytes();
        // Slots are sized exactly to the plan; what is left is the slot
        // and plan tables themselves.
        let tables = ws.memory_bytes() - (arena + scratch + plans);
        assert!((1..1024).contains(&tables), "tables {tables}");
        // The tail conv's padded input planes and the body conv's sign
        // bitmap at 40×40 are in the total, as is the heap behind the
        // ×2 bicubic taps (80 outputs per axis, at least 4 taps each).
        assert!(ws.scratch().padded.capacity() >= channels * 42 * 42);
        assert!(ws.scratch().bits.act.capacity() >= 42 * 42);
        assert!(scratch >= (channels * 42 * 42) * 4 + (42 * 42) * 8, "scratch {scratch}");
        assert!(plans >= 2 * 80 * 4 * std::mem::size_of::<(usize, f32)>(), "plans {plans}");
    }

    #[test]
    fn profiler_is_off_by_default_and_attributes_wall_time_when_on() {
        // Heavy enough that the op loop dominates the non-profiled
        // overhead (slot sizing, output copy) by a wide margin.
        let net = srresnet(SrConfig {
            channels: 16,
            blocks: 2,
            scale: 2,
            method: Method::scales(),
            seed: 59,
        })
        .unwrap();
        let deployed = net.lower().unwrap();
        let x = probe(1, 32, 32, 6.0);
        let mut ws = Workspace::new();
        assert!(!ws.profiling_enabled());
        let _ = deployed.forward_planned(&x, &mut ws).unwrap();
        assert!(ws.op_profile().is_empty(), "off by default: nothing recorded");

        // Warm run with profiling on (plan already cached, arena warm),
        // then attribute one measured forward.
        ws.enable_profiling(true);
        let _ = deployed.forward_planned(&x, &mut ws).unwrap();
        ws.reset_op_profile();
        let started = std::time::Instant::now();
        let _ = deployed.forward_planned(&x, &mut ws).unwrap();
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap();
        let profile = ws.op_profile().clone();
        let attributed = profile.total_ns();
        assert!(attributed <= wall, "ops run inside the forward: {attributed} vs {wall}");
        assert!(
            attributed * 100 >= wall * 95,
            "profiler must attribute >= 95% of planned-forward wall time \
             ({attributed} of {wall} ns)"
        );
        // Every op the graph runs is named; SRResNet has binary body
        // convs, float head/tail convs and activations.
        let kinds: Vec<&str> = profile.entries().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"body_conv"), "{kinds:?}");
        assert!(kinds.contains(&"float_conv"), "{kinds:?}");
        let ops_per_forward = profile.total_calls();
        assert_eq!(ops_per_forward, deployed.num_ops() as u64, "every op is counted once");

        // Switching off stops accumulation without clearing.
        ws.enable_profiling(false);
        let _ = deployed.forward_planned(&x, &mut ws).unwrap();
        assert_eq!(ws.op_profile().total_calls(), ops_per_forward);
    }

    #[test]
    fn plan_rejects_wrong_rank_and_wrong_network() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 57,
        })
        .unwrap();
        let deployed = net.lower().unwrap();
        assert!(deployed.plan(&[3, 8, 8]).is_err());
        let mut ws = Workspace::new();
        assert!(deployed
            .forward_planned(&Tensor::zeros(&[3, 8, 8]), &mut ws)
            .is_err());
        // A workspace carrying another (different-sized) network's plan
        // must fail loudly, not read garbage.
        let _ = deployed.forward_planned(&probe(1, 8, 8, 4.0), &mut ws).unwrap();
        let other = srresnet(SrConfig {
            channels: 8,
            blocks: 2,
            scale: 2,
            method: Method::scales(),
            seed: 58,
        })
        .unwrap()
        .lower()
        .unwrap();
        assert!(other.forward_planned(&probe(1, 8, 8, 5.0), &mut ws).is_err());
    }

    #[test]
    fn malformed_graphs_are_typed_errors_not_panics() {
        let x = probe(1, 4, 4, 10.0);
        let refused = |net: &DeployedNetwork, what: &str| {
            for result in [net.plan(x.shape()).map(drop), net.forward(&x).map(drop)] {
                let text = result.expect_err(what).to_string();
                assert!(text.contains(what), "{text}");
            }
            let mut ws = Workspace::new();
            assert!(net.forward_planned(&x, &mut ws).is_err(), "{what}");
            assert_eq!(ws.plans_built(), 0, "{what}");
        };
        // An id past the last value, and a forward reference to a value a
        // later op does produce.
        for bad in [7, 2] {
            let mut b = DeployedNetworkBuilder::new("malformed", 1);
            b.push(DeployedOp::Relu { src: bad });
            b.push(DeployedOp::Add { lhs: 0, rhs: 1 });
            refused(&b.finish(2), &format!("op 0 (relu) reads value {bad}"));
        }
        let mut b = DeployedNetworkBuilder::new("malformed", 1);
        b.push(DeployedOp::Relu { src: 0 });
        refused(&b.finish(2), "graph output is value 2");
    }

    // ---- Model check of the planner -------------------------------------
    //
    // Generated well-typed op graphs over all thirteen op kinds; on each,
    // the slot assignment is checked against the liveness rules it must
    // respect and the best-fit policy it promises, and the planned forward
    // (slot reuse on, stale arena) against `forward` (slot reuse off).

    /// splitmix64: a fixed seed is a fixed sequence on every platform.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            usize::try_from(self.next() % n as u64).unwrap()
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        /// Values in `[-1, 1)`.
        fn values(&mut self, n: usize) -> Vec<f32> {
            (0..n).map(|_| (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0).collect()
        }

        /// [`Rng::values`] salted with `-0.0`, and now and then a NaN or an
        /// infinity.
        fn hostile(&mut self, n: usize) -> Vec<f32> {
            let mut values = self.values(n);
            for v in &mut values {
                match self.below(256) {
                    0..=7 => *v = -0.0,
                    8 => *v = self.pick(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
                    _ => {}
                }
            }
            values
        }

        fn tensor(&mut self, shape: &[usize]) -> Tensor {
            Tensor::from_vec(self.values(shape.iter().product()), shape).unwrap()
        }

        fn float_conv(&mut self, ic: usize, oc: usize, k: usize) -> FloatConv2d {
            let bias = self.chance(50).then(|| self.tensor(&[1, oc, 1, 1]));
            FloatConv2d::new(self.tensor(&[oc, ic, k, k]), bias, Conv2dSpec::same(k)).unwrap()
        }
    }

    /// How often the generator reached each corner the check guards.
    #[derive(Default)]
    struct Seen(BTreeMap<&'static str, usize>);

    impl Seen {
        fn note(&mut self, corner: &'static str) {
            *self.0.entry(corner).or_default() += 1;
        }
    }

    /// Largest spatial extent and channel count a generated value may
    /// reach: the graphs stay small enough to run three thousand forwards
    /// unoptimised.
    const MAX_SIDE: usize = 8;
    const MAX_CHANNELS: usize = 12;

    /// A random well-typed graph and the input shape it was typed for.
    /// Operands lean towards the newest value, so chains — and with them
    /// dying single-use operands — are common, but reach back often enough
    /// that values get several consumers, long lives, or none.
    fn generate(rng: &mut Rng) -> (DeployedNetwork, [usize; 4]) {
        let input = [1 + rng.below(3), rng.pick(&[2, 3, 4]), rng.pick(&[2, 4]), rng.pick(&[2, 4])];
        let mut shapes = vec![input];
        let mut b = DeployedNetworkBuilder::new("generated", 1);
        let ops = 2 + rng.below(13);
        while shapes.len() <= ops {
            let src = if rng.chance(55) { shapes.len() - 1 } else { rng.below(shapes.len()) };
            let [_, c, h, w] = shapes[src];
            // Some value of `src`'s shape, `src` itself included.
            let like = |rng: &mut Rng| {
                let same: Vec<ValueId> = (0..shapes.len()).filter(|&v| shapes[v] == shapes[src]).collect();
                rng.pick(&same)
            };
            let out_channels = |rng: &mut Rng| if rng.chance(60) { c } else { rng.pick(&[2, 3, 4, 8]) };
            let can_double = 2 * h <= MAX_SIDE && 2 * w <= MAX_SIDE;
            let op = match rng.below(13) {
                0 if c <= MAX_CHANNELS => {
                    let (oc, k) = (out_channels(rng), rng.pick(&[1, 3]));
                    DeployedOp::FloatConv { conv: rng.float_conv(c, oc, k), src }
                }
                1 if c <= MAX_CHANNELS => {
                    let (oc, seed) = (out_channels(rng), rng.next());
                    let conv = if rng.chance(70) {
                        let method = rng.pick(&Method::cnn_registry());
                        let layer = BodyConv::new(method, c, oc, rng.pick(&[1, 3]), &mut init::rng(seed));
                        DeployedBodyConv::from_trained(&layer.unwrap())
                    } else {
                        let method = rng.pick(&Method::transformer_registry());
                        let layer = BodyLinear::new(method, c, oc, &mut init::rng(seed));
                        DeployedBodyConv::from_trained_linear(&layer.unwrap())
                    };
                    DeployedOp::Body { conv: Box::new(conv.unwrap()), src }
                }
                2 => DeployedOp::Relu { src },
                3 => DeployedOp::Prelu { slope: 0.25, src },
                4 => DeployedOp::Gelu { src },
                5 => DeployedOp::Scale { factor: 0.5, src },
                6 => DeployedOp::Add { lhs: src, rhs: like(rng) },
                7 => {
                    // Same batch and extents, any channels, repeats allowed.
                    let fits: Vec<ValueId> = (0..shapes.len())
                        .filter(|&v| [shapes[v][0], shapes[v][2], shapes[v][3]] == [input[0], h, w])
                        .collect();
                    let srcs: Vec<ValueId> = (0..2 + rng.below(3)).map(|_| rng.pick(&fits)).collect();
                    if srcs.iter().map(|&v| shapes[v][1]).sum::<usize>() > MAX_CHANNELS {
                        continue;
                    }
                    DeployedOp::Concat { srcs }
                }
                8 => {
                    let squeezed = (c / 2).max(1);
                    let (down, up) = (rng.float_conv(c, squeezed, 1), rng.float_conv(squeezed, c, 1));
                    DeployedOp::ChannelAttention { ca: DeployedChannelAttention::new(down, up), src }
                }
                9 if c % 4 == 0 && can_double => DeployedOp::PixelShuffle { factor: 2, src },
                10 if can_double => DeployedOp::BicubicUp { scale: if 3 * h.max(w) <= MAX_SIDE { 3 } else { 2 }, src },
                11 => DeployedOp::LayerNorm { gamma: rng.values(c), beta: rng.values(c), eps: 1e-5, src },
                12 => {
                    let windows: Vec<usize> = [1, 2, 4].into_iter().filter(|win| h % win == 0 && w % win == 0).collect();
                    DeployedOp::WindowAttention { window: rng.pick(&windows), q: src, k: like(rng), v: like(rng) }
                }
                _ => continue,
            };
            shapes.push(infer_shape(&op, &shapes).expect("generated ops are well typed"));
            b.push(op);
        }
        let output = if rng.chance(60) { ops } else { 1 + rng.below(ops) };
        (b.finish(output), input)
    }

    fn is_elementwise(op: &DeployedOp) -> bool {
        matches!(
            op,
            DeployedOp::Relu { .. }
                | DeployedOp::Prelu { .. }
                | DeployedOp::Gelu { .. }
                | DeployedOp::Scale { .. }
                | DeployedOp::Add { .. }
        )
    }

    /// The slot assignment of `plan` against the rules it must respect,
    /// derived from the graph's liveness alone.
    fn check_slots(net: &DeployedNetwork, plan: &Plan, seen: &mut Seen, label: &str) {
        let (ops, out, last_use) = (net.ops(), net.output(), net.last_use());
        let nvals = ops.len() + 1;
        assert_eq!(plan.slot_of[0], None, "{label}: the input is read from the request");
        let slot = |v: ValueId| plan.slot_of[v].expect("every op output has a slot");
        let size = |v: ValueId| vol(plan.shapes[v]);
        // The last op that reads `v`: forever for the output, its own
        // producer for a value nothing consumes.
        let read_until = |v: ValueId| match last_use[v] {
            _ if v == out => usize::MAX,
            usize::MAX => v - 1,
            last => last,
        };
        // How long the planner keeps `v`'s slot: it never releases a value
        // nothing consumes.
        let held_until = |v: ValueId| if last_use[v] == usize::MAX { usize::MAX } else { read_until(v) };

        for v in 1..nvals {
            assert!(plan.slot_sizes[slot(v)] >= size(v), "{label}: value {v} overflows slot {}", slot(v));
            // Two values share a slot only when the earlier is never read
            // after the later is written (the in-place case, where it is
            // read *while* the later is written, is checked per op below).
            for u in 1..v {
                assert!(
                    slot(u) != slot(v) || read_until(u) < v,
                    "{label}: value {v} is written over value {u}, still read by op {}",
                    read_until(u)
                );
            }
        }
        if last_use[out] != usize::MAX {
            seen.note("output consumed downstream");
        }

        let mut most_held = 0;
        for (i, op) in ops.iter().enumerate() {
            let (v, inputs) = (i + 1, op.inputs());
            let inputs = inputs.as_slice();
            most_held = most_held.max((1..=v).filter(|&u| held_until(u) >= i).count());
            seen.note(op.kind());
            // An operand named twice, and whether its slot is released here
            // (once, not twice).
            let repeated: Vec<ValueId> =
                (1..inputs.len()).filter(|&j| inputs[..j].contains(&inputs[j])).map(|j| inputs[j]).collect();
            match op {
                _ if repeated.is_empty() => {}
                DeployedOp::Add { .. } => seen.note("add of a value to itself"),
                DeployedOp::Concat { .. } => seen.note("concat with a repeated operand"),
                _ => seen.note("q / k / v sharing a value"),
            }
            if repeated.iter().any(|&u| u != 0 && u != out && last_use[u] == i) {
                seen.note("repeated operand dies at its op");
            }

            // In place: only an elementwise op, only on an operand that
            // dies here, is named once, and is neither the network input
            // nor the graph output — and then always, left operand first.
            let stealable = |u: ValueId| {
                u != 0 && u != out && last_use[u] == i && inputs.iter().filter(|&&x| x == u).count() == 1
            };
            let expected = inputs.iter().copied().find(|&u| is_elementwise(op) && stealable(u));
            for &u in inputs.iter().filter(|&&u| u != 0) {
                assert_eq!(slot(u) == slot(v), expected == Some(u), "{label}: op {i} ({}) and its operand {u}", op.kind());
            }
            match (expected, op) {
                (Some(u), DeployedOp::Add { lhs, .. }) if u != *lhs => seen.note("in place on the right operand"),
                (Some(_), _) => seen.note("in place"),
                (None, op) if is_elementwise(op) => seen.note("elementwise, not in place"),
                (None, _) => {}
            }
            if expected.is_some() {
                continue;
            }

            // Otherwise best fit over the slots free when op `i` runs —
            // reconstructed from the plan: a slot is free when no value it
            // hosted so far is still held (operands dying here still are).
            let hosted = |t: usize| (1..v).filter(move |&u| slot(u) == t);
            let sized = |t: usize| hosted(t).map(size).max().expect("free slots have hosted a value");
            let created = (1..v).map(slot).max().map_or(0, |t| t + 1);
            let free: Vec<usize> = (0..created).filter(|&t| hosted(t).all(|u| held_until(u) < i)).collect();
            let fitting = free.iter().map(|&t| sized(t)).filter(|&sz| sz >= size(v)).min();
            match (free.is_empty(), fitting) {
                (true, _) => {
                    assert_eq!(slot(v), created, "{label}: op {i} must open a new slot");
                    seen.note("opened a slot");
                }
                (false, Some(tightest)) => {
                    assert!(free.contains(&slot(v)), "{label}: op {i} took an occupied or new slot");
                    assert_eq!(sized(slot(v)), tightest, "{label}: op {i} is not the best fit");
                    seen.note(if tightest > size(v) { "reused a larger slot" } else { "reused a slot of its size" });
                }
                (false, None) => {
                    let largest = free.iter().map(|&t| sized(t)).max();
                    assert!(free.contains(&slot(v)), "{label}: op {i} took an occupied or new slot");
                    assert_eq!(Some(sized(slot(v))), largest, "{label}: op {i} must grow the largest free slot");
                    seen.note("grew a free slot");
                }
            }
        }
        assert!(
            plan.slot_count() <= most_held,
            "{label}: {} slots for at most {most_held} values held at once",
            plan.slot_count()
        );

        for v in 1..nvals {
            let readers = ops.iter().filter(|op| op.inputs().as_slice().contains(&v)).count();
            match readers {
                0 if v != out => seen.note("dead value"),
                2.. => seen.note("value with several consumers"),
                _ => {}
            }
        }
    }

    /// NaN-ness plus the exact bits of everything else (an in-place `Add`
    /// on its right operand computes `rhs + lhs`, and which NaN payload a
    /// commutative `+` keeps is unspecified).
    fn float_bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    #[test]
    fn generated_graphs_plan_without_aliasing_and_match_the_reuse_off_forward() {
        let mut seen = Seen::default();
        // One arena and one scratch for the whole run, handed from graph
        // to graph like a long-lived session would keep them: oversized,
        // and full of the previous graph's values.
        let mut slots = vec![vec![f32::NAN; 2_048]; 4];
        let mut scratch = ConvScratch::new();
        for seed in 0..1_200u64 {
            let mut rng = Rng(seed);
            let (net, input) = generate(&mut rng);
            let label = format!("seed {seed}");
            let plan = net.plan(&input).unwrap();
            check_slots(&net, &plan, &mut seen, &label);
            seen.note(["batch 1", "batch 2", "batch 3"][input[0] - 1]);
            // The oracle's own schedule shares nothing: value `v` alone in
            // slot `v - 1`, sized to it.
            let unshared = net.schedule(&input, false).unwrap();
            for v in 1..unshared.num_values() {
                assert_eq!(unshared.slot_of[v], Some(v - 1), "{label}");
                assert_eq!(unshared.slot_sizes[v - 1], vol(unshared.shapes[v]), "{label}");
            }

            let len = vol(input);
            let data = if rng.chance(50) { rng.hostile(len) } else { rng.values(len) };
            let x = Tensor::from_vec(data, &input).unwrap();
            let want = net.forward(&x).unwrap();
            let mut ws = Workspace { slots, scratch, ..Workspace::default() };
            for round in 0..2 {
                let got = net.forward_planned(&x, &mut ws).unwrap();
                assert_eq!(got.shape(), want.shape(), "{label}");
                assert!(float_bits(got.data()) == float_bits(want.data()), "{label}, round {round}: planned != reuse off");
            }
            (slots, scratch) = (ws.slots, ws.scratch);
        }
        // The generator must actually reach what the check guards.
        let kinds = [
            "float_conv",
            "body_conv",
            "relu",
            "prelu",
            "add",
            "concat",
            "channel_attention",
            "pixel_shuffle",
            "bicubic_up",
            "layer_norm",
            "window_attention",
            "gelu",
            "scale",
        ];
        let corners = [
            "in place",
            "in place on the right operand",
            "elementwise, not in place",
            "opened a slot",
            "reused a slot of its size",
            "reused a larger slot",
            "grew a free slot",
            "add of a value to itself",
            "concat with a repeated operand",
            "q / k / v sharing a value",
            "repeated operand dies at its op",
            "value with several consumers",
            "output consumed downstream",
            "dead value",
            "batch 1",
            "batch 2",
            "batch 3",
        ];
        for corner in kinds.into_iter().chain(corners) {
            assert!(seen.0.get(corner).is_some_and(|&n| n >= 20), "{corner}: {:?}", seen.0);
        }
    }
}
