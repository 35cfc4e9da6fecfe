//! Deployed-artifact payload: a whole lowered op graph, packed weights
//! included.
//!
//! Layout after the common header:
//!
//! | field | encoding |
//! |---|---|
//! | network name | u32 length + UTF-8 |
//! | scale | u32 |
//! | op count, output value id | u32 each |
//! | each op | u8 tag + operands (value ids as u32) + payload |
//!
//! Op payloads bottom out in two building blocks. A **float conv** is
//! `stride + padding (u32 each) + weight tensor + bias flag byte (+ bias
//! tensor)`. A **packed binary conv** is `out/in channels + kernel +
//! stride + padding (u32 each) + per-channel f32 scales + the raw u64
//! weight words` in the `(oc, ky, kx, channel-word)` layout of
//! [`BinaryConv2d::packed_weights`]. Nothing is re-derived at load: the
//! packed words, scales and folded thresholds are reassembled exactly as
//! serialized, so a loaded artifact serves `f32::to_bits`-identical
//! outputs with no training stack present.
//!
//! | op tag | op | payload after the operand ids |
//! |---|---|---|
//! | 0 | `FloatConv` | float conv |
//! | 1 | `Body` | u8 body tag + body payload |
//! | 2 / 3 | `Relu` / `Prelu` | — / f32 slope |
//! | 4 / 5 | `Add` / `Concat` | — (two ids) / (u32 count, then the ids) |
//! | 6 | `ChannelAttention` | two float convs |
//! | 7 / 8 | `PixelShuffle` / `BicubicUp` | u32 factor |
//! | 9 (v2) | `LayerNorm` | f32s γ, f32s β, f32 ε |
//! | 10 (v2) | `WindowAttention` | (three ids `q`, `k`, `v`) u32 window |
//! | 11 / 12 (v2) | `Gelu` / `Scale` | — / f32 factor |
//!
//! **Format version 2** adds tags 9–12 and, at the end of the SCALES (body
//! tag 1) and Basic (body tag 5) payloads, a flag byte plus an `f32s`
//! per-output-channel bias — what a lowered transformer linear carries.
//! A version 1 file has neither and keeps loading: the reader decodes the
//! payload of the version the header states.
//!
//! Graph wiring is validated while decoding: op `i` may only reference
//! values `0..=i` (the SSA property of the builder), and the output id
//! must name a produced value. Violations are [`Error::Corrupt`].

use crate::wire::{Reader, Writer};
use crate::{read_header, write_header, ArtifactKind, Error, Result};
use scales_binary::BinaryConv2d;
use scales_core::{DeployedBodyConv, DeployedScalesConv2d, FloatConv2d};
use scales_models::deploy::DeployedChannelAttention;
use scales_models::{DeployedNetwork, DeployedNetworkBuilder, DeployedOp};
use scales_tensor::ops::Conv2dSpec;
use scales_tensor::Tensor;

/// Upper bound on every geometry field of the format that multiplies
/// into an output extent or allocation (network scale, `PixelShuffle`
/// factor, `BicubicUp` scale, conv stride/padding). Legitimate networks
/// use single-digit values; the bound keeps a corrupt field from loading
/// cleanly and then aborting the serving process on a huge allocation at
/// the first forward.
const MAX_FACTOR: usize = 64;

fn take_factor(r: &mut Reader<'_>, what: &str) -> Result<usize> {
    let offset = r.offset();
    let v = r.take_len()?;
    if v == 0 || v > MAX_FACTOR {
        return Err(Error::Corrupt { offset, what: format!("implausible {what} {v}") });
    }
    Ok(v)
}

fn take_spec(r: &mut Reader<'_>) -> Result<Conv2dSpec> {
    let stride = take_factor(r, "conv stride")?;
    let offset = r.offset();
    let padding = r.take_len()?;
    if padding > MAX_FACTOR {
        return Err(Error::Corrupt { offset, what: format!("implausible conv padding {padding}") });
    }
    Ok(Conv2dSpec { stride, padding })
}

fn write_float_conv(w: &mut Writer, conv: &FloatConv2d) {
    w.put_len(conv.spec().stride);
    w.put_len(conv.spec().padding);
    w.put_tensor(conv.weight());
    match conv.bias() {
        Some(b) => {
            w.put_bool(true);
            w.put_tensor(b);
        }
        None => w.put_bool(false),
    }
}

/// A per-output-channel broadcast tensor (conv bias, BN gain/shift) must
/// be exactly `[1, OC, 1, 1]`: any other broadcastable shape would blow
/// the activation up at the first forward instead of failing at load.
fn check_channel_broadcast(t: &Tensor, oc: usize, what: &str, offset: usize) -> Result<()> {
    if t.shape() != [1, oc, 1, 1] {
        return Err(Error::Corrupt {
            offset,
            what: format!("{what} has shape {:?}, expected [1, {oc}, 1, 1]", t.shape()),
        });
    }
    Ok(())
}

fn read_float_conv(r: &mut Reader<'_>) -> Result<FloatConv2d> {
    let offset = r.offset();
    let spec = take_spec(r)?;
    let weight = r.take_tensor()?;
    let bias = if r.take_bool()? { Some(r.take_tensor()?) } else { None };
    if let Some(b) = &bias {
        if weight.rank() == 4 {
            check_channel_broadcast(b, weight.shape()[0], "float conv bias", offset)?;
        }
    }
    FloatConv2d::new(weight, bias, spec)
        .map_err(|e| Error::Corrupt { offset, what: format!("float conv: {e}") })
}

fn write_binary_conv(w: &mut Writer, conv: &BinaryConv2d) {
    w.put_len(conv.out_channels());
    w.put_len(conv.in_channels());
    w.put_len(conv.kernel());
    w.put_len(conv.spec().stride);
    w.put_len(conv.spec().padding);
    w.put_f32s(conv.scales());
    w.put_u64s(conv.packed_weights());
}

fn read_binary_conv(r: &mut Reader<'_>) -> Result<BinaryConv2d> {
    let offset = r.offset();
    let oc = r.take_len()?;
    let ic = r.take_len()?;
    let kernel = r.take_len()?;
    let spec = take_spec(r)?;
    let scales = r.take_f32s()?;
    let packed = r.take_u64s()?;
    BinaryConv2d::from_packed_parts(oc, ic, kernel, spec, packed, scales)
        .map_err(|e| Error::Corrupt { offset, what: format!("packed binary conv: {e}") })
}

fn write_bias(w: &mut Writer, bias: Option<&[f32]>) {
    w.put_bool(bias.is_some());
    if let Some(bias) = bias {
        w.put_f32s(bias);
    }
}

/// The v2 bias field of a body payload (absent from v1 files): one value
/// per output channel.
fn read_bias(r: &mut Reader<'_>, version: u16, oc: usize) -> Result<Option<Vec<f32>>> {
    if version < 2 || !r.take_bool()? {
        return Ok(None);
    }
    let offset = r.offset();
    let bias = r.take_f32s()?;
    if bias.len() != oc {
        return Err(Error::Corrupt {
            offset,
            what: format!("body conv bias has {} values for {oc} output channels", bias.len()),
        });
    }
    Ok(Some(bias))
}

fn write_body(w: &mut Writer, body: &DeployedBodyConv) {
    match body {
        DeployedBodyConv::Float(conv) => {
            w.put_u8(0);
            write_float_conv(w, conv);
        }
        DeployedBodyConv::Scales(conv) => {
            w.put_u8(1);
            write_binary_conv(w, conv.conv());
            w.put_f32s(conv.beta());
            match conv.spatial() {
                Some((map, bias)) => {
                    w.put_bool(true);
                    w.put_tensor(map);
                    w.put_f32(bias);
                }
                None => w.put_bool(false),
            }
            match conv.channel() {
                Some(kernel) => {
                    w.put_bool(true);
                    w.put_tensor(kernel);
                }
                None => w.put_bool(false),
            }
            w.put_bool(conv.skip());
            w.put_len(conv.in_channels());
            write_bias(w, conv.bias());
        }
        DeployedBodyConv::E2fif { conv, gamma, beta, skip } => {
            w.put_u8(2);
            write_binary_conv(w, conv);
            w.put_tensor(gamma);
            w.put_tensor(beta);
            w.put_bool(*skip);
        }
        DeployedBodyConv::Btm { conv, skip } => {
            w.put_u8(3);
            write_binary_conv(w, conv);
            w.put_bool(*skip);
        }
        DeployedBodyConv::Bam { conv, skip } => {
            w.put_u8(4);
            write_binary_conv(w, conv);
            w.put_bool(*skip);
        }
        DeployedBodyConv::Basic { conv, bias, skip } => {
            w.put_u8(5);
            write_binary_conv(w, conv);
            w.put_bool(*skip);
            write_bias(w, bias.as_deref());
        }
    }
}

fn read_body(r: &mut Reader<'_>, version: u16) -> Result<DeployedBodyConv> {
    let offset = r.offset();
    Ok(match r.take_u8()? {
        0 => DeployedBodyConv::Float(read_float_conv(r)?),
        1 => {
            let conv = read_binary_conv(r)?;
            let beta = r.take_f32s()?;
            let spatial =
                if r.take_bool()? { Some((r.take_tensor()?, r.take_f32()?)) } else { None };
            let channel = if r.take_bool()? { Some(r.take_tensor()?) } else { None };
            let skip = r.take_bool()?;
            let in_channels = r.take_len()?;
            let bias = read_bias(r, version, conv.out_channels())?;
            DeployedBodyConv::Scales(
                DeployedScalesConv2d::from_parts(conv, beta, bias, spatial, channel, skip, in_channels)
                    .map_err(|e| Error::Corrupt { offset, what: format!("scales conv: {e}") })?,
            )
        }
        2 => {
            let conv = read_binary_conv(r)?;
            let gamma = r.take_tensor()?;
            let beta = r.take_tensor()?;
            check_channel_broadcast(&gamma, conv.out_channels(), "E2FIF BN gamma", offset)?;
            check_channel_broadcast(&beta, conv.out_channels(), "E2FIF BN beta", offset)?;
            DeployedBodyConv::E2fif { conv, gamma, beta, skip: r.take_bool()? }
        }
        3 => DeployedBodyConv::Btm { conv: read_binary_conv(r)?, skip: r.take_bool()? },
        4 => DeployedBodyConv::Bam { conv: read_binary_conv(r)?, skip: r.take_bool()? },
        5 => {
            let conv = read_binary_conv(r)?;
            let skip = r.take_bool()?;
            let bias = read_bias(r, version, conv.out_channels())?;
            DeployedBodyConv::Basic { conv, bias, skip }
        }
        tag => {
            return Err(Error::Corrupt { offset, what: format!("unknown body conv tag {tag}") })
        }
    })
}

fn write_op(w: &mut Writer, op: &DeployedOp) {
    match op {
        DeployedOp::FloatConv { conv, src } => {
            w.put_u8(0);
            w.put_len(*src);
            write_float_conv(w, conv);
        }
        DeployedOp::Body { conv, src } => {
            w.put_u8(1);
            w.put_len(*src);
            write_body(w, conv);
        }
        DeployedOp::Relu { src } => {
            w.put_u8(2);
            w.put_len(*src);
        }
        DeployedOp::Prelu { slope, src } => {
            w.put_u8(3);
            w.put_len(*src);
            w.put_f32(*slope);
        }
        DeployedOp::Add { lhs, rhs } => {
            w.put_u8(4);
            w.put_len(*lhs);
            w.put_len(*rhs);
        }
        DeployedOp::Concat { srcs } => {
            w.put_u8(5);
            w.put_len(srcs.len());
            for &s in srcs {
                w.put_len(s);
            }
        }
        DeployedOp::ChannelAttention { ca, src } => {
            w.put_u8(6);
            w.put_len(*src);
            write_float_conv(w, ca.down());
            write_float_conv(w, ca.up());
        }
        DeployedOp::PixelShuffle { factor, src } => {
            w.put_u8(7);
            w.put_len(*src);
            w.put_len(*factor);
        }
        DeployedOp::BicubicUp { scale, src } => {
            w.put_u8(8);
            w.put_len(*src);
            w.put_len(*scale);
        }
        DeployedOp::LayerNorm { gamma, beta, eps, src } => {
            w.put_u8(9);
            w.put_len(*src);
            w.put_f32s(gamma);
            w.put_f32s(beta);
            w.put_f32(*eps);
        }
        DeployedOp::WindowAttention { window, q, k, v } => {
            w.put_u8(10);
            for id in [q, k, v] {
                w.put_len(*id);
            }
            w.put_len(*window);
        }
        DeployedOp::Gelu { src } => {
            w.put_u8(11);
            w.put_len(*src);
        }
        DeployedOp::Scale { factor, src } => {
            w.put_u8(12);
            w.put_len(*src);
            w.put_f32(*factor);
        }
    }
}

/// Read one op of a `version` payload. `produced` is how many values exist
/// so far (input included), bounding every operand reference.
fn read_op(r: &mut Reader<'_>, produced: usize, version: u16) -> Result<DeployedOp> {
    let offset = r.offset();
    let tag = r.take_u8()?;
    let take_value = |r: &mut Reader<'_>| -> Result<usize> {
        let offset = r.offset();
        let id = r.take_len()?;
        if id >= produced {
            return Err(Error::Corrupt {
                offset,
                what: format!("op reads value {id} before it is produced (have {produced})"),
            });
        }
        Ok(id)
    };
    Ok(match tag {
        0 => {
            let src = take_value(r)?;
            DeployedOp::FloatConv { conv: read_float_conv(r)?, src }
        }
        1 => {
            let src = take_value(r)?;
            DeployedOp::Body { conv: Box::new(read_body(r, version)?), src }
        }
        2 => DeployedOp::Relu { src: take_value(r)? },
        3 => {
            let src = take_value(r)?;
            let slope = r.take_f32()?;
            DeployedOp::Prelu { slope, src }
        }
        4 => DeployedOp::Add { lhs: take_value(r)?, rhs: take_value(r)? },
        5 => {
            let n = r.take_len()?;
            if n == 0 {
                return Err(Error::Corrupt { offset, what: "empty concat".into() });
            }
            let mut srcs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                srcs.push(take_value(r)?);
            }
            DeployedOp::Concat { srcs }
        }
        6 => {
            let src = take_value(r)?;
            let down = read_float_conv(r)?;
            let up = read_float_conv(r)?;
            DeployedOp::ChannelAttention { ca: DeployedChannelAttention::new(down, up), src }
        }
        7 => {
            let src = take_value(r)?;
            DeployedOp::PixelShuffle { factor: take_factor(r, "pixel-shuffle factor")?, src }
        }
        8 => {
            let src = take_value(r)?;
            DeployedOp::BicubicUp { scale: take_factor(r, "bicubic upscale")?, src }
        }
        9 if version >= 2 => {
            let src = take_value(r)?;
            let gamma = r.take_f32s()?;
            let beta = r.take_f32s()?;
            let eps = r.take_f32()?;
            if gamma.is_empty() || gamma.len() != beta.len() {
                return Err(Error::Corrupt {
                    offset,
                    what: format!("layer norm with {} gains and {} shifts", gamma.len(), beta.len()),
                });
            }
            if !(eps.is_finite() && eps > 0.0) {
                return Err(Error::Corrupt { offset, what: format!("layer norm epsilon {eps}") });
            }
            DeployedOp::LayerNorm { gamma, beta, eps, src }
        }
        10 if version >= 2 => {
            let (q, k, v) = (take_value(r)?, take_value(r)?, take_value(r)?);
            DeployedOp::WindowAttention { window: take_factor(r, "attention window")?, q, k, v }
        }
        11 if version >= 2 => DeployedOp::Gelu { src: take_value(r)? },
        12 if version >= 2 => {
            let src = take_value(r)?;
            DeployedOp::Scale { factor: r.take_f32()?, src }
        }
        tag => {
            return Err(Error::Corrupt {
                offset,
                what: format!("unknown op tag {tag} in a version {version} artifact"),
            })
        }
    })
}

pub(crate) fn to_bytes(net: &DeployedNetwork) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, ArtifactKind::Deployed);
    w.put_str(net.name());
    w.put_len(net.scale());
    w.put_len(net.num_ops());
    w.put_len(net.output());
    for op in net.ops() {
        write_op(&mut w, op);
    }
    w.into_bytes()
}

pub(crate) fn from_bytes(bytes: &[u8]) -> Result<DeployedNetwork> {
    let mut r = Reader::new(bytes);
    let (kind, version) = read_header(&mut r)?;
    if kind != ArtifactKind::Deployed {
        return Err(Error::WrongKind { expected: ArtifactKind::Deployed, found: kind });
    }
    let name = r.take_str()?;
    let scale = take_factor(&mut r, "network scale")?;
    let op_count = r.take_len()?;
    // Every op costs at least a tag byte, so an op count beyond the
    // remaining payload is corrupt — checked before it can size any
    // allocation below.
    if op_count > bytes.len() {
        return Err(Error::Corrupt {
            offset: r.offset(),
            what: format!("op count {op_count} exceeds the {}-byte file", bytes.len()),
        });
    }
    let output = r.take_len()?;
    // Value 0 is the raw network input; a graph must return something an
    // op produced (ids 1..=op_count).
    if output == 0 || output > op_count {
        return Err(Error::Corrupt {
            offset: r.offset(),
            what: format!("output value {output} of a {op_count}-op graph"),
        });
    }
    let mut builder = DeployedNetworkBuilder::new(&name, scale);
    // Per-field bounds are not enough on their own: extents compose
    // *multiplicatively* across ops, so a small file could chain
    // shuffle/bicubic ops — or concat one value thousands of times —
    // into an astronomically large first-forward allocation. Cap both
    // composition axes: the graph-total upsample product (legit
    // networks: tail shuffle × bicubic skip ≤ scale² ≤ 16), and each
    // value's channel width, tracked through the graph with the real
    // conv output widths (which are pinned by weights physically present
    // in the file). Legit graphs top out around blocks × body channels.
    const MAX_WIDTH: u64 = 65536;
    let mut upsample_product: u64 = 1;
    let mut width: Vec<u64> = Vec::with_capacity((op_count + 1).min(65536));
    width.push(4); // the network input (RGB, rounded up)
    for i in 0..op_count {
        // Raw push (not the builder conveniences, which elide identity
        // ops) so value ids land exactly where the writer recorded them.
        let offset = r.offset();
        let op = read_op(&mut r, i + 1, version)?;
        let w = match &op {
            DeployedOp::FloatConv { conv, .. } => conv.out_channels() as u64,
            DeployedOp::Body { conv, .. } => conv.out_channels() as u64,
            DeployedOp::Relu { src }
            | DeployedOp::Prelu { src, .. }
            | DeployedOp::BicubicUp { src, .. }
            | DeployedOp::LayerNorm { src, .. }
            | DeployedOp::Gelu { src }
            | DeployedOp::Scale { src, .. } => width[*src],
            DeployedOp::WindowAttention { v, .. } => width[*v],
            // The CA gate broadcasts against its input, so the value can
            // be as wide as the excite conv's output — count that too.
            DeployedOp::ChannelAttention { ca, src } => {
                width[*src].max(ca.up().out_channels() as u64)
            }
            DeployedOp::PixelShuffle { factor, src } => {
                (width[*src] / (*factor as u64 * *factor as u64)).max(1)
            }
            DeployedOp::Add { lhs, rhs } => width[*lhs].max(width[*rhs]),
            DeployedOp::Concat { srcs } => {
                srcs.iter().fold(0u64, |acc, &s| acc.saturating_add(width[s]))
            }
        };
        if w > MAX_WIDTH {
            return Err(Error::Corrupt {
                offset,
                what: format!("graph channel width exceeds {MAX_WIDTH} (runaway concat fan-in)"),
            });
        }
        width.push(w);
        if let DeployedOp::PixelShuffle { factor, .. } | DeployedOp::BicubicUp { scale: factor, .. } =
            &op
        {
            upsample_product = upsample_product.saturating_mul(*factor as u64);
            if upsample_product > MAX_FACTOR as u64 {
                return Err(Error::Corrupt {
                    offset,
                    what: format!(
                        "graph upsampling product exceeds {MAX_FACTOR} (chained upsample ops)"
                    ),
                });
            }
        }
        builder.push(op);
    }
    r.finish()?;
    Ok(builder.finish(output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{artifact_from_bytes, artifact_to_bytes};
    use scales_core::Method;
    use scales_models::{hat, rcan, rdn, srresnet, SrConfig, SrNetwork};
    use scales_tensor::Tensor;

    fn probe(h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            (0..3 * h * w).map(|i| ((i as f32) * 0.19).cos() * 0.4 + 0.5).collect(),
            &[1, 3, h, w],
        )
        .unwrap()
    }

    fn assert_round_trip(net: &dyn SrNetwork, label: &str) {
        let deployed = net.lower().unwrap();
        let bytes = artifact_to_bytes(&deployed);
        let back = artifact_from_bytes(&bytes).unwrap();
        assert_eq!(back.name(), deployed.name(), "{label}");
        assert_eq!(back.scale(), deployed.scale(), "{label}");
        assert_eq!(back.num_ops(), deployed.num_ops(), "{label}");
        assert_eq!(back.packed_layers(), deployed.packed_layers(), "{label}");
        let x = probe(8, 8);
        let a = deployed.forward(&x).unwrap();
        let b = back.forward(&x).unwrap();
        assert_eq!(a.shape(), b.shape(), "{label}");
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}");
        }
    }

    #[test]
    fn srresnet_artifact_round_trips_bit_exactly() {
        // SCALES body: exercises the packed conv, folded β, both
        // re-scaling branches, pixel shuffle and the bicubic skip.
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 21,
        })
        .unwrap();
        assert_round_trip(&net, "SRResNet/SCALES");
    }

    #[test]
    fn rcan_artifact_round_trips_bit_exactly() {
        // Exercises channel attention and ReLU ops.
        let net = rcan(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::FullPrecision,
            seed: 22,
        })
        .unwrap();
        assert_round_trip(&net, "RCAN/FP");
    }

    #[test]
    fn rdn_artifact_round_trips_bit_exactly() {
        // Exercises concat fan-in and float fusion convs.
        let net = rdn(SrConfig {
            channels: 8,
            blocks: 2,
            scale: 2,
            method: Method::E2fif,
            seed: 23,
        })
        .unwrap();
        assert_round_trip(&net, "RDN/E2FIF");
    }

    #[test]
    fn hat_artifact_round_trips_bit_exactly() {
        // Exercises the four version-2 ops and the bias on both binary
        // body payloads that carry one (SCALES, Basic).
        for method in [Method::scales(), Method::Bibert] {
            let net =
                hat(SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: 30 }).unwrap();
            assert_round_trip(&net, &format!("HAT/{method}"));
        }
    }

    #[test]
    fn forward_reference_to_an_unproduced_value_is_corrupt() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::Btm,
            seed: 24,
        })
        .unwrap();
        let mut bytes = artifact_to_bytes(&net.lower().unwrap());
        // The first op is the head FloatConv reading value 0 (tag byte,
        // then the src u32) right after name/scale/counts. Point it at a
        // value that does not exist yet.
        let name_len = 4 + "SRResNet".len();
        let src_offset = 12 + name_len + 4 + 4 + 4 + 1;
        bytes[src_offset..src_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(artifact_from_bytes(&bytes), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn implausible_scale_is_corrupt_not_a_deferred_abort() {
        // A scale that would pass decoding but force a ~scale²-sized
        // allocation at the first forward must be rejected at load.
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::Btm,
            seed: 27,
        })
        .unwrap();
        let bytes = artifact_to_bytes(&net.lower().unwrap());
        let scale_offset = 12 + 4 + "SRResNet".len();
        for bad in [0u32, u32::MAX] {
            let mut tampered = bytes.clone();
            tampered[scale_offset..scale_offset + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(artifact_from_bytes(&tampered), Err(Error::Corrupt { .. })),
                "scale {bad}"
            );
        }
    }

    #[test]
    fn broadcast_tensor_shape_is_validated_at_decode() {
        // Tamper an E2FIF artifact's gamma into a rank-5 broadcast shape:
        // it must be Corrupt at load, not a huge broadcast at forward.
        let net = rdn(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::E2fif,
            seed: 29,
        })
        .unwrap();
        let good = net.lower().unwrap();
        let bytes = artifact_to_bytes(&good);
        let loaded = artifact_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.num_ops(), good.num_ops(), "well-formed round trip stays intact");
        // Find the serialized [1, 8, 1, 1] gamma dims (u32 rank 4 then the
        // dims) and stretch the leading 1 into 64.
        let needle: Vec<u8> = [4u32, 1, 8, 1, 1].iter().flat_map(|v| v.to_le_bytes()).collect();
        let pos = bytes.windows(needle.len()).position(|w| w == needle).expect("gamma dims");
        let mut tampered = bytes;
        tampered[pos + 4..pos + 8].copy_from_slice(&64u32.to_le_bytes());
        assert!(matches!(artifact_from_bytes(&tampered), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn absurd_op_count_and_input_passthrough_output_are_corrupt() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 28,
        })
        .unwrap();
        let bytes = artifact_to_bytes(&net.lower().unwrap());
        let count_offset = 12 + 4 + "SRResNet".len() + 4;
        // An op count far beyond the file size must fail before sizing
        // any allocation.
        let mut huge = bytes.clone();
        huge[count_offset..count_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(artifact_from_bytes(&huge), Err(Error::Corrupt { .. })));
        // An output id of 0 would serve the un-upscaled input.
        let mut passthrough = bytes;
        passthrough[count_offset + 4..count_offset + 8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(artifact_from_bytes(&passthrough), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn oversized_channel_attention_gate_is_corrupt_not_a_deferred_abort() {
        // A narrow value gated by a CA whose excite conv fans out to a
        // huge channel count would broadcast-expand at forward; the
        // width tracker must count the gate.
        use scales_core::FloatConv2d;
        use scales_tensor::ops::Conv2dSpec;
        let mut b = scales_models::DeployedNetworkBuilder::new("hostile", 2);
        let spec = Conv2dSpec { stride: 1, padding: 0 };
        let down = FloatConv2d::new(Tensor::ones(&[1, 3, 1, 1]), None, spec).unwrap();
        let up = FloatConv2d::new(Tensor::ones(&[1 << 20, 1, 1, 1]), None, spec).unwrap();
        let v = b.push(DeployedOp::ChannelAttention {
            ca: DeployedChannelAttention::new(down, up),
            src: b.input(),
        });
        let bytes = artifact_to_bytes(&b.finish(v));
        assert!(matches!(artifact_from_bytes(&bytes), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn chained_concats_are_corrupt_not_a_deferred_abort() {
        // Concat fan-out composes multiplicatively too: concat the input
        // 2048 times, then concat that 2048 times (~4M× duplication).
        let mut b = scales_models::DeployedNetworkBuilder::new("hostile", 2);
        let v1 = b.push(DeployedOp::Concat { srcs: vec![b.input(); 2048] });
        let v2 = b.push(DeployedOp::Concat { srcs: vec![v1; 2048] });
        let bytes = artifact_to_bytes(&b.finish(v2));
        assert!(matches!(artifact_from_bytes(&bytes), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn chained_upsample_ops_are_corrupt_not_a_deferred_abort() {
        // Per-op factors within bounds can still compose into an
        // astronomical first-forward allocation; the decoder must reject
        // the composition itself.
        let mut b = scales_models::DeployedNetworkBuilder::new("hostile", 2);
        let mut v = b.input();
        for _ in 0..4 {
            v = b.push(DeployedOp::PixelShuffle { factor: 4, src: v }); // 4⁴ = 256 > 64
        }
        let bytes = artifact_to_bytes(&b.finish(v));
        assert!(matches!(artifact_from_bytes(&bytes), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn truncated_artifact_is_typed() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 25,
        })
        .unwrap();
        let bytes = artifact_to_bytes(&net.lower().unwrap());
        for cut in [bytes.len() - 1, bytes.len() / 2, 20] {
            assert!(
                matches!(artifact_from_bytes(&bytes[..cut]), Err(Error::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let net = srresnet(SrConfig {
            channels: 8,
            blocks: 1,
            scale: 2,
            method: Method::scales(),
            seed: 26,
        })
        .unwrap();
        let checkpoint = crate::checkpoint_to_bytes(&net);
        assert!(matches!(
            artifact_from_bytes(&checkpoint),
            Err(Error::WrongKind { expected: ArtifactKind::Deployed, found: ArtifactKind::Checkpoint })
        ));
    }
}
