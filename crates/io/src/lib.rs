//! # scales-io
//!
//! Versioned on-disk model artifacts for the SCALES reproduction — the
//! persistence layer between training and serving. Two artifact kinds
//! share one header:
//!
//! * a **checkpoint** ([`save_checkpoint`] / [`load_checkpoint`]): the
//!   f32 parameters of a trained [`SrNetwork`] plus the
//!   (architecture, config) pair needed to rebuild it through the
//!   [`Arch`](scales_models::Arch) registry;
//! * a **deployed artifact** ([`save_artifact`] / [`load_artifact`]): the
//!   whole lowered [`DeployedNetwork`] op graph, bit-packed binary
//!   weights included, ready to serve with no training stack and no
//!   re-lowering.
//!
//! The format is hand-rolled little-endian binary (no serde — the build
//! environment is offline) and **bit-exact**: a reloaded model serves
//! outputs with identical `f32::to_bits` to its in-memory source, a
//! contract enforced across the whole method registry by
//! `tests/serialize.rs`.
//!
//! ## Layout
//!
//! Every file starts with a 12-byte header:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | magic `b"SCALESIO"` |
//! | 8 | 2 | format version (little-endian u16, currently 2) |
//! | 10 | 1 | kind: 1 = checkpoint, 2 = deployed artifact |
//! | 11 | 1 | reserved (0) |
//!
//! then a kind-specific payload (documented on the `checkpoint` and
//! `artifact` modules). All integers are little-endian; `f32` values are stored
//! as raw IEEE-754 bytes; bit-packed binary weights are stored as their
//! `u64` words. Loaders reject wrong magic, versions from the future,
//! truncated payloads and trailing garbage with a typed [`Error`] — a
//! partial read is never accepted.
//!
//! | version | change |
//! |---|---|
//! | 1 | the CNN family: checkpoints, and deployed graphs of op tags 0–8 |
//! | 2 | deployed graphs of the transformer family: op tags 9–12 (`LayerNorm`, `WindowAttention`, `Gelu`, `Scale`) and an optional per-channel bias on the SCALES / Basic body-conv payloads (lowered linears). Checkpoints are unchanged. Version 1 files keep loading. |
//!
//! ## Serving straight from disk
//!
//! `scales_serve::EngineBuilder::model_path` sniffs the header
//! ([`read_kind`]) and loads whichever kind the file holds (shown as
//! text: `scales-serve` sits above this crate):
//!
//! ```text
//! let engine = scales_serve::Engine::builder().model_path("model.sca")?.build()?;
//! ```

mod artifact;
mod checkpoint;
mod fingerprint;
mod wire;

pub use fingerprint::{fingerprint, Fnv1a};

use scales_models::{DeployedNetwork, SrNetwork};
use scales_tensor::TensorError;
use std::path::Path;

/// File magic: the first 8 bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"SCALESIO";

/// The format version this build writes and the newest it can read.
/// Older versions remain readable for as long as their decoders stay
/// in-tree; newer versions are rejected with
/// [`Error::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 2;

/// Which payload an artifact file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Trained f32 parameters + (arch, config); rebuilt through the
    /// registry at load.
    Checkpoint,
    /// A lowered [`DeployedNetwork`] op graph with bit-packed weights.
    Deployed,
}

impl ArtifactKind {
    fn tag(self) -> u8 {
        match self {
            ArtifactKind::Checkpoint => 1,
            ArtifactKind::Deployed => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(ArtifactKind::Checkpoint),
            2 => Some(ArtifactKind::Deployed),
            _ => None,
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArtifactKind::Checkpoint => "checkpoint",
            ArtifactKind::Deployed => "deployed artifact",
        })
    }
}

/// Everything that can go wrong saving or loading a model artifact.
///
/// Loaders never panic and never accept a partial read: every failure
/// mode of a hostile or truncated file maps to one of these variants.
#[derive(Debug)]
pub enum Error {
    /// Filesystem failure (open, read, write).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a SCALES artifact.
    BadMagic {
        /// The first bytes actually found (up to 8).
        found: Vec<u8>,
    },
    /// The file was written by a newer format than this build reads.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// Newest version this build supports.
        supported: u16,
    },
    /// The kind byte is not a known [`ArtifactKind`].
    UnknownKind(u8),
    /// The file holds the other artifact kind than the caller asked for.
    WrongKind {
        /// Kind the loader expected.
        expected: ArtifactKind,
        /// Kind stamped in the file.
        found: ArtifactKind,
    },
    /// The payload ends before a field it promises.
    Truncated {
        /// Byte offset of the read that failed.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Total payload length.
        len: usize,
    },
    /// The payload decoded cleanly but bytes remain after it.
    TrailingBytes {
        /// Bytes consumed by the decoder.
        consumed: usize,
        /// Total file length.
        len: usize,
    },
    /// A checkpoint names an architecture the registry does not know.
    UnknownArch(String),
    /// A checkpoint carries a method tag this build does not know.
    UnknownMethod(u8),
    /// The stored parameters do not fit the network the (arch, config)
    /// pair rebuilds — the file is internally inconsistent.
    ArchMismatch {
        /// Architecture named by the file.
        arch: String,
        /// What disagreed.
        detail: String,
    },
    /// A structurally invalid payload (bad tag, bad graph wiring, bad
    /// tensor geometry, …).
    Corrupt {
        /// Byte offset where decoding failed.
        offset: usize,
        /// What was malformed.
        what: String,
    },
    /// Rebuilding the model from decoded parts failed.
    Model(TensorError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "artifact I/O error: {e}"),
            Error::BadMagic { found } => {
                write!(f, "not a SCALES artifact (magic {found:02x?}, expected {MAGIC:02x?})")
            }
            Error::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is outside the supported range 1..={supported}"
            ),
            Error::UnknownKind(tag) => write!(f, "unknown artifact kind tag {tag}"),
            Error::WrongKind { expected, found } => {
                write!(f, "expected a {expected}, found a {found}")
            }
            Error::Truncated { offset, needed, len } => write!(
                f,
                "truncated artifact: needed {needed} byte(s) at offset {offset} of {len}"
            ),
            Error::TrailingBytes { consumed, len } => {
                write!(f, "artifact has {} trailing byte(s) after the payload", len - consumed)
            }
            Error::UnknownArch(name) => {
                write!(f, "checkpoint names unknown architecture {name:?}")
            }
            Error::UnknownMethod(tag) => write!(f, "checkpoint carries unknown method tag {tag}"),
            Error::ArchMismatch { arch, detail } => {
                write!(f, "checkpoint does not fit a rebuilt {arch}: {detail}")
            }
            Error::Corrupt { offset, what } => {
                write!(f, "corrupt artifact at offset {offset}: {what}")
            }
            Error::Model(e) => write!(f, "rebuilding the model failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<TensorError> for Error {
    fn from(e: TensorError) -> Self {
        Error::Model(e)
    }
}

/// Result alias for artifact operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Publish `bytes` at `path` atomically (write a sibling temp file, then
/// rename): concurrent readers — e.g. another process building an engine
/// with `model_path` while this one saves — observe the old file,
/// nothing, or the complete new artifact, never a torn write.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let publish = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = publish {
        let _ = std::fs::remove_file(&tmp);
        return Err(Error::Io(e));
    }
    Ok(())
}

pub(crate) fn write_header(w: &mut wire::Writer, kind: ArtifactKind) {
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(kind.tag());
    w.put_u8(0);
}

/// Decode and validate the 12-byte header, returning the stored kind and
/// the format version the payload was written in.
pub(crate) fn read_header(r: &mut wire::Reader<'_>) -> Result<(ArtifactKind, u16)> {
    let magic = r.take(MAGIC.len()).map_err(|_| Error::BadMagic {
        // A file shorter than the magic cannot be a SCALES artifact
        // either; report it the same way.
        found: Vec::new(),
    })?;
    if magic != MAGIC {
        return Err(Error::BadMagic { found: magic.to_vec() });
    }
    let version = r.take_u16()?;
    // Version 0 was never written; only 1..=FORMAT_VERSION are valid.
    if version == 0 || version > FORMAT_VERSION {
        return Err(Error::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    let kind_tag = r.take_u8()?;
    let kind = ArtifactKind::from_tag(kind_tag).ok_or(Error::UnknownKind(kind_tag))?;
    let _reserved = r.take_u8()?;
    Ok((kind, version))
}

/// Sniff which artifact kind a byte buffer holds (header only).
///
/// # Errors
///
/// Returns the header's validation errors: [`Error::BadMagic`],
/// [`Error::UnsupportedVersion`], [`Error::UnknownKind`] or
/// [`Error::Truncated`].
pub fn sniff_kind(bytes: &[u8]) -> Result<ArtifactKind> {
    read_header(&mut wire::Reader::new(bytes)).map(|(kind, _)| kind)
}

/// Sniff which artifact kind a file holds (reads the header only).
///
/// # Errors
///
/// Propagates I/O failures and the [`sniff_kind`] validation errors.
pub fn read_kind(path: impl AsRef<Path>) -> Result<ArtifactKind> {
    let mut head = [0u8; 12];
    let mut file = std::fs::File::open(path)?;
    let mut filled = 0;
    while filled < head.len() {
        let n = std::io::Read::read(&mut file, &mut head[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    sniff_kind(&head[..filled])
}

/// Serialize a trained network's checkpoint to bytes.
#[must_use]
pub fn checkpoint_to_bytes(net: &dyn SrNetwork) -> Vec<u8> {
    checkpoint::to_bytes(net)
}

/// Decode a checkpoint from bytes, rebuilding the network through the
/// architecture registry.
///
/// # Errors
///
/// Returns a typed [`Error`] for every malformed input (see the variant
/// docs).
pub fn checkpoint_from_bytes(bytes: &[u8]) -> Result<Box<dyn SrNetwork>> {
    checkpoint::from_bytes(bytes)
}

/// Save a trained network's checkpoint: its f32 parameters plus the
/// (architecture, config) pair that rebuilds it. The write is atomic
/// (temp file + rename), so concurrent loaders never see a torn file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_checkpoint(path: impl AsRef<Path>, net: &dyn SrNetwork) -> Result<()> {
    write_atomic(path.as_ref(), &checkpoint_to_bytes(net))
}

/// Load a checkpoint saved by [`save_checkpoint`]. The network is rebuilt
/// through [`Arch::build`](scales_models::Arch::build) and its parameters
/// overwritten bit-exactly, so its forwards match the saved model's
/// `f32::to_bits` for `f32::to_bits`.
///
/// # Errors
///
/// Returns a typed [`Error`] for I/O failures and every malformed input.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<Box<dyn SrNetwork>> {
    checkpoint_from_bytes(&std::fs::read(path)?)
}

/// Serialize a lowered deployment graph to bytes.
#[must_use]
pub fn artifact_to_bytes(net: &DeployedNetwork) -> Vec<u8> {
    artifact::to_bytes(net)
}

/// Decode a deployed artifact from bytes.
///
/// # Errors
///
/// Returns a typed [`Error`] for every malformed input.
pub fn artifact_from_bytes(bytes: &[u8]) -> Result<DeployedNetwork> {
    artifact::from_bytes(bytes)
}

/// Save a lowered [`DeployedNetwork`] — the op graph and its bit-packed
/// binary weights — as a self-contained deployable artifact. The write
/// is atomic (temp file + rename), so concurrent loaders never see a
/// torn file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_artifact(path: impl AsRef<Path>, net: &DeployedNetwork) -> Result<()> {
    write_atomic(path.as_ref(), &artifact_to_bytes(net))
}

/// Load a deployed artifact saved by [`save_artifact`]. No training
/// stack, factory seed or re-lowering is involved: the packed graph is
/// reassembled exactly as serialized and serves bit-identical outputs.
///
/// # Errors
///
/// Returns a typed [`Error`] for I/O failures and every malformed input.
pub fn load_artifact(path: impl AsRef<Path>) -> Result<DeployedNetwork> {
    artifact_from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_both_kinds() {
        for kind in [ArtifactKind::Checkpoint, ArtifactKind::Deployed] {
            let mut w = wire::Writer::new();
            write_header(&mut w, kind);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), 12);
            assert_eq!(sniff_kind(&bytes).unwrap(), kind);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Vec::new();
        let mut w = wire::Writer::new();
        write_header(&mut w, ArtifactKind::Checkpoint);
        bytes.extend_from_slice(&w.into_bytes());
        bytes[0] = b'X';
        assert!(matches!(sniff_kind(&bytes), Err(Error::BadMagic { .. })));
        // Shorter than the magic: same classification.
        assert!(matches!(sniff_kind(b"SC"), Err(Error::BadMagic { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut w = wire::Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u16(FORMAT_VERSION + 1);
        w.put_u8(1);
        w.put_u8(0);
        let err = sniff_kind(&w.into_bytes()).unwrap_err();
        assert!(matches!(
            err,
            Error::UnsupportedVersion { found, supported }
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn version_zero_is_rejected() {
        let mut w = wire::Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u16(0);
        w.put_u8(1);
        w.put_u8(0);
        assert!(matches!(
            sniff_kind(&w.into_bytes()),
            Err(Error::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut w = wire::Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u8(9);
        w.put_u8(0);
        assert!(matches!(sniff_kind(&w.into_bytes()), Err(Error::UnknownKind(9))));
    }

    #[test]
    fn error_is_a_std_error_with_sources() {
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        let dyn_err: &dyn std::error::Error = &io;
        assert!(dyn_err.source().is_some());
        assert!(dyn_err.to_string().contains("gone"));
        let plain: &dyn std::error::Error = &Error::UnknownArch("VDSR".into());
        assert!(plain.source().is_none());
        assert!(plain.to_string().contains("VDSR"));
    }
}
