//! Checkpoint payload: a trained network's identity plus its parameters.
//!
//! Layout after the common header:
//!
//! | field | encoding |
//! |---|---|
//! | arch name | u32 length + UTF-8 (an [`Arch::name`]) |
//! | channels, blocks, scale | u32 each |
//! | seed | u64 |
//! | method | u8 tag; tag 6 (SCALES) adds 3 bool bytes (lsf, spatial, channel) + u32 channel kernel |
//! | parameter count | u32 |
//! | each parameter | u32 rank + u32 dims + raw little-endian f32 data |
//!
//! Parameters are stored in [`Module::params`] order, which every network
//! in the zoo documents as stable. Loading rebuilds the network through
//! [`Arch::build`] (same config, same seed) and overwrites each parameter
//! bit-exactly, so the reloaded model's forwards are `f32::to_bits`
//! identical to the source model's.

use crate::wire::{Reader, Writer};
use crate::{read_header, write_header, ArtifactKind, Error, Result};
use scales_core::{Method, ScalesComponents};
use scales_models::{Arch, SrConfig, SrNetwork};
use scales_nn::Module as _;

fn write_method(w: &mut Writer, method: Method) {
    match method {
        Method::FullPrecision => w.put_u8(0),
        Method::Bicubic => w.put_u8(1),
        Method::Bam => w.put_u8(2),
        Method::Btm => w.put_u8(3),
        Method::E2fif => w.put_u8(4),
        Method::Bibert => w.put_u8(5),
        Method::Scales(c) => {
            w.put_u8(6);
            w.put_bool(c.lsf);
            w.put_bool(c.spatial);
            w.put_bool(c.channel);
            w.put_len(c.channel_kernel);
        }
    }
}

fn read_method(r: &mut Reader<'_>) -> Result<Method> {
    Ok(match r.take_u8()? {
        0 => Method::FullPrecision,
        1 => Method::Bicubic,
        2 => Method::Bam,
        3 => Method::Btm,
        4 => Method::E2fif,
        5 => Method::Bibert,
        6 => Method::Scales(ScalesComponents {
            lsf: r.take_bool()?,
            spatial: r.take_bool()?,
            channel: r.take_bool()?,
            channel_kernel: r.take_len()?,
        }),
        tag => return Err(Error::UnknownMethod(tag)),
    })
}

pub(crate) fn to_bytes(net: &dyn SrNetwork) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, ArtifactKind::Checkpoint);
    let config = net.config();
    w.put_str(net.arch().name());
    w.put_len(config.channels);
    w.put_len(config.blocks);
    w.put_len(config.scale);
    w.put_u64(config.seed);
    write_method(&mut w, config.method);
    let params = net.params();
    w.put_len(params.len());
    for p in &params {
        p.with_value(|t| w.put_tensor(t));
    }
    w.into_bytes()
}

pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Box<dyn SrNetwork>> {
    let mut r = Reader::new(bytes);
    let (kind, _) = read_header(&mut r)?;
    if kind != ArtifactKind::Checkpoint {
        return Err(Error::WrongKind { expected: ArtifactKind::Checkpoint, found: kind });
    }
    let name = r.take_str()?;
    let arch = Arch::from_name(&name).ok_or_else(|| Error::UnknownArch(name.clone()))?;
    let extents_offset = r.offset();
    let channels = r.take_len()?;
    let blocks = r.take_len()?;
    let scale = r.take_len()?;
    // Sanity-bound the structural extents BEFORE building: `Arch::build`
    // allocates O(blocks · channels²) floats, so a corrupted field must
    // become a typed error here, never an allocation abort. Both the
    // individual fields and their allocation-governing product are
    // bounded (channels² · blocks ≤ 2²⁴ ≈ 500× the paper-scale config,
    // capping the rebuilt weights at ~1 GB) — far beyond any legitimate
    // file, far below an abort.
    const MAX_EXTENT: u64 = 4096;
    const MAX_VOLUME: u64 = 1 << 24;
    // u64 arithmetic, and the `||` short-circuit bounds both factors to
    // 4096 before the product is evaluated, so it is at most 2³⁶ — no
    // step can wrap, even on 32-bit-usize targets.
    let (c64, b64) = (channels as u64, blocks as u64);
    if c64 > MAX_EXTENT || b64 > MAX_EXTENT || c64 * c64 * b64 > MAX_VOLUME {
        return Err(Error::Corrupt {
            offset: extents_offset,
            what: format!("implausible network extents ({channels} channels, {blocks} blocks)"),
        });
    }
    let seed = r.take_u64()?;
    let method_offset = r.offset();
    let method = read_method(&mut r)?;
    if let Method::Scales(c) = method {
        // The channel branch asserts an odd kernel at construction; a
        // tampered even/zero/huge value must be a typed error here, not
        // a panic inside `Arch::build`.
        if c.channel_kernel as u64 > MAX_EXTENT
            || (c.channel && (c.channel_kernel == 0 || c.channel_kernel % 2 == 0))
        {
            return Err(Error::Corrupt {
                offset: method_offset,
                what: format!("implausible channel kernel {}", c.channel_kernel),
            });
        }
    }
    let config = SrConfig { channels, blocks, scale, method, seed };
    let net = arch.build(config)?;
    let params = net.params();
    let count = r.take_len()?;
    if count != params.len() {
        return Err(Error::ArchMismatch {
            arch: name,
            detail: format!(
                "file stores {count} parameter tensor(s), the rebuilt network has {}",
                params.len()
            ),
        });
    }
    // Decode every tensor before touching the network: a file that fails
    // halfway must not leave a half-overwritten model behind.
    let mut tensors = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        let t = r.take_tensor()?;
        if t.shape() != p.shape().as_slice() {
            return Err(Error::ArchMismatch {
                arch: name,
                detail: format!(
                    "parameter {i} has shape {:?}, the rebuilt network expects {:?}",
                    t.shape(),
                    p.shape()
                ),
            });
        }
        tensors.push(t);
    }
    r.finish()?;
    for (p, t) in params.iter().zip(tensors) {
        p.set_value(t);
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{checkpoint_from_bytes, checkpoint_to_bytes};
    use scales_autograd::Var;
    use scales_tensor::Tensor;

    fn trained_like(arch: Arch, method: Method) -> Box<dyn SrNetwork> {
        let net = arch
            .build(SrConfig { channels: 8, blocks: 1, scale: 2, method, seed: 77 })
            .unwrap();
        // Perturb every parameter off its seeded init so a round-trip that
        // silently kept the rebuilt init would be caught.
        for (i, p) in net.params().iter().enumerate() {
            p.update_value(|t| {
                for (j, v) in t.data_mut().iter_mut().enumerate() {
                    *v += ((i * 31 + j) as f32 * 0.37).sin() * 0.05;
                }
            });
        }
        net
    }

    fn probe(h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            (0..3 * h * w).map(|i| ((i as f32) * 0.17).sin() * 0.4 + 0.5).collect(),
            &[1, 3, h, w],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical_for_cnn_and_transformer() {
        for (arch, method) in
            [(Arch::SrResNet, Method::scales()), (Arch::SwinIr, Method::Bibert)]
        {
            let net = trained_like(arch, method);
            let bytes = checkpoint_to_bytes(net.as_ref());
            let back = checkpoint_from_bytes(&bytes).unwrap();
            assert_eq!(back.arch(), arch);
            assert_eq!(back.config(), net.config());
            let x = probe(8, 8);
            let a = net.forward(&Var::new(x.clone())).unwrap().value();
            let b = back.forward(&Var::new(x)).unwrap().value();
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{arch}");
            }
        }
    }

    #[test]
    fn every_method_encoding_round_trips() {
        let mut w = Writer::new();
        let methods = [
            Method::FullPrecision,
            Method::Bicubic,
            Method::Bam,
            Method::Btm,
            Method::E2fif,
            Method::Bibert,
            Method::scales(),
            Method::Scales(ScalesComponents::lsf_channel()),
        ];
        for m in methods {
            write_method(&mut w, m);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for m in methods {
            assert_eq!(read_method(&mut r).unwrap(), m);
        }
        r.finish().unwrap();
    }

    #[test]
    fn unknown_method_tag_is_typed() {
        assert!(matches!(read_method(&mut Reader::new(&[9u8])), Err(Error::UnknownMethod(9))));
    }

    #[test]
    fn arch_name_mismatch_is_typed() {
        // Re-label an SRResNet checkpoint as RDN: the parameter list no
        // longer fits the rebuilt network.
        let net = trained_like(Arch::SrResNet, Method::scales());
        let bytes = checkpoint_to_bytes(net.as_ref());
        let mut tampered = bytes[..12].to_vec();
        let mut w = Writer::new();
        w.put_str("RDN");
        tampered.extend_from_slice(&w.into_bytes());
        let old_name_end = 12 + 4 + "SRResNet".len();
        tampered.extend_from_slice(&bytes[old_name_end..]);
        assert!(matches!(
            checkpoint_from_bytes(&tampered),
            Err(Error::ArchMismatch { arch, .. }) if arch == "RDN"
        ));
    }

    #[test]
    fn unknown_arch_is_typed() {
        let net = trained_like(Arch::SrResNet, Method::scales());
        let bytes = checkpoint_to_bytes(net.as_ref());
        let mut tampered = bytes[..12].to_vec();
        let mut w = Writer::new();
        w.put_str("VDSR");
        tampered.extend_from_slice(&w.into_bytes());
        tampered.extend_from_slice(&bytes[12 + 4 + "SRResNet".len()..]);
        assert!(matches!(
            checkpoint_from_bytes(&tampered),
            Err(Error::UnknownArch(name)) if name == "VDSR"
        ));
    }

    #[test]
    fn implausible_extents_are_corrupt_not_an_allocation_abort() {
        let net = trained_like(Arch::SrResNet, Method::scales());
        let bytes = checkpoint_to_bytes(net.as_ref());
        // The channels u32 sits right after the header + name field.
        let channels_offset = 12 + 4 + "SRResNet".len();
        let mut tampered = bytes.clone();
        tampered[channels_offset..channels_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(checkpoint_from_bytes(&tampered), Err(Error::Corrupt { .. })));
        // Fields that pass individually but whose product would still
        // force a multi-terabyte build are rejected too.
        let mut product = bytes.clone();
        product[channels_offset..channels_offset + 4].copy_from_slice(&4096u32.to_le_bytes());
        product[channels_offset + 4..channels_offset + 8]
            .copy_from_slice(&4096u32.to_le_bytes());
        assert!(matches!(checkpoint_from_bytes(&product), Err(Error::Corrupt { .. })));
        // An even (or zero) channel kernel would panic inside the channel
        // branch's constructor; it must be Corrupt instead.
        let kernel_offset = channels_offset + 12 + 8 + 1 + 3; // extents, seed, tag, 3 bools
        for bad in [4u32, 0u32] {
            let mut tampered = bytes.clone();
            tampered[kernel_offset..kernel_offset + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(checkpoint_from_bytes(&tampered), Err(Error::Corrupt { .. })),
                "kernel {bad}"
            );
        }
    }

    #[test]
    fn truncation_never_yields_a_partial_model() {
        let net = trained_like(Arch::SrResNet, Method::E2fif);
        let bytes = checkpoint_to_bytes(net.as_ref());
        for cut in [bytes.len() - 1, bytes.len() / 2, 13] {
            assert!(
                matches!(checkpoint_from_bytes(&bytes[..cut]), Err(Error::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let net = trained_like(Arch::SrResNet, Method::Btm);
        let mut bytes = checkpoint_to_bytes(net.as_ref());
        bytes.push(0);
        assert!(matches!(checkpoint_from_bytes(&bytes), Err(Error::TrailingBytes { .. })));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let net = trained_like(Arch::SrResNet, Method::scales());
        let artifact = crate::artifact_to_bytes(&net.lower().unwrap());
        assert!(matches!(
            checkpoint_from_bytes(&artifact),
            Err(Error::WrongKind { expected: ArtifactKind::Checkpoint, found: ArtifactKind::Deployed })
        ));
    }
}
