//! Wire image codecs for the network serving edge: binary PPM (P6) and a
//! deliberately small PNG subset, both hand-rolled over `std` (the build
//! environment is offline — no `image`, no `flate2`).
//!
//! These are the formats `scales_http`'s `POST /v1/upscale` accepts and
//! returns. The house rule from the artifact loaders applies verbatim:
//! **every malformed input is a typed [`CodecError`], never a panic or an
//! unbounded allocation**. Dimensions are bounded ([`MAX_DIM`] per axis,
//! [`MAX_PIXELS`] total) before any pixel buffer is sized, payload
//! lengths are checked against the header's promise, and a partial read
//! is never accepted.
//!
//! The PNG support is intentionally narrow but honest about it:
//!
//! * decode: 8-bit greyscale (colour type 0) and RGB (colour type 2),
//!   no interlace, CRC-checked chunks, zlib streams whose deflate blocks
//!   are **stored** or **fixed-Huffman** (dynamic-Huffman blocks are a
//!   typed [`CodecError::Unsupported`], not a wrong answer), Adler-32
//!   verified, all five scanline filters;
//! * encode: stored-block zlib, filter 0 — maximally compatible output
//!   any external decoder reads.
//!
//! The encoders are on every reply's path, so they cost one allocation
//! per image, not per sample: each walks the CHW planes of
//! `image.tensor().data()` a row at a time as slices, quantizing and
//! interleaving straight into the one output buffer, sized up front. PNG
//! writes signature, IHDR, each row's filter byte, the stored-block
//! headers and the samples there, and runs Adler-32 and each chunk's
//! CRC-32 over the bytes already in place; PPM appends the samples to
//! its header. The test module keeps the per-pixel encoder they
//! replaced, with its own quantize, CRC-32 and Adler-32, and checks the
//! two byte for byte; `tests/codec_alloc.rs` counts the allocations.
//!
//! The PNG decoder is row-wise too. Each chunk's CRC runs over its type
//! and then its data where they lie; a stream in one IDAT chunk (every
//! stream this encoder writes) inflates straight from that chunk, and
//! only a stream split over several is joined first. The scanline
//! filters are undone in place in the inflated buffer, the filter type
//! resolved once per row (None is no work at all; on row 0 Up is None
//! and Paeth is Sub; a row's first pixel, which has no left neighbour,
//! is done before the loop over the rest), and each row is then
//! de-interleaved into the contiguous rows of the planes through a
//! 256-entry dequantization table. A single-IDAT decode allocates three
//! times at any extent: the inflated rows, the image data and its shape.
//!
//! Quantization is the shared 8-bit protocol of [`Image::save_pnm`]:
//! `round(clamp(v, 0, 1) × 255)`, halves away from zero, on encode,
//! `v / 255` on decode — so `decode(encode(x))` is **bit-exact** for any
//! image whose values are already 8-bit quantized, and
//! `encode(decode(bytes))` reproduces a valid wire image byte for byte
//! (the loopback contract `tests/http.rs` pins across a real TCP
//! socket). The encoder computes it without a rounding call (on the
//! baseline x86-64 target, with no SSE4.1, that is a libm `roundf` call
//! per sample):
//!
//! * `x = min(max(v, 0), 1) × 255` lies in `[0, 255]` (`max` maps NaN
//!   to 0);
//! * `x + 2²³` lands where consecutive `f32`s are exactly 1 apart, so
//!   the addition rounds `x` to an integer, half to even, and the sum's
//!   low mantissa byte is that integer;
//! * half to even and half away from zero differ only on an exact tie
//!   rounded down, which `x − (sum − 2²³) == 0.5` detects. Both
//!   subtractions are exact: each pair of operands lies within a factor
//!   of two of each other (Sterbenz), or one of them is 0.
//!
//! All of it is float adds, a compare and a bit cast, so the encoders'
//! row loops vectorise. `tests/codecs.rs` checks it against the rounding
//! call for every one of the 2³² `f32` bit patterns (optimised builds).
//! Decode reads `f32::from(v) / 255.0` from a table built at compile
//! time.
//!
//! The chunk CRC-32 is table-driven slicing-by-16 (Kounavis & Berry,
//! 2005): sixteen 256-entry tables, each the classic byte table shifted
//! past one more zero byte, fold sixteen bytes per step with no
//! dependence between their lookups; the tail goes a byte at a time.
//! Adler-32 is the plain two-sum loop, reduced every 5,552 bytes.

use crate::Image;
use scales_tensor::Tensor;
use std::borrow::Cow;

/// Largest accepted image extent per axis, decode-side.
pub const MAX_DIM: u32 = 1 << 15;

/// Largest accepted pixel count (`width × height`), decode-side: bounds
/// the decoded `f32` tensor at ~192 MiB for RGB before anything is
/// allocated.
pub const MAX_PIXELS: u64 = 1 << 24;

/// The eight-byte PNG signature.
const PNG_SIG: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];

/// Which wire format a byte stream is (or should be) encoded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Binary portable pixmap, `P6`, maxval 255.
    Ppm,
    /// PNG, 8-bit greyscale or RGB (see the module docs for the
    /// supported subset).
    Png,
}

impl WireFormat {
    /// The MIME type HTTP responses carry for this format.
    #[must_use]
    pub fn content_type(self) -> &'static str {
        match self {
            WireFormat::Ppm => "image/x-portable-pixmap",
            WireFormat::Png => "image/png",
        }
    }

    /// Identify the format from the first bytes of a payload, if it is
    /// one this module speaks.
    #[must_use]
    pub fn sniff(bytes: &[u8]) -> Option<Self> {
        if bytes.starts_with(b"P6") {
            Some(WireFormat::Ppm)
        } else if bytes.starts_with(&PNG_SIG) {
            Some(WireFormat::Png)
        } else {
            None
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireFormat::Ppm => "PPM (P6)",
            WireFormat::Png => "PNG",
        })
    }
}

/// Everything that can go wrong decoding or encoding a wire image.
///
/// Decoders never panic: every failure mode of a hostile payload maps to
/// one of these variants, and `scales_http` maps each to a 4xx response.
#[derive(Debug)]
pub enum CodecError {
    /// The payload starts with no magic this module knows.
    UnknownFormat {
        /// The first bytes actually found (up to 8).
        found: Vec<u8>,
    },
    /// The payload does not start with the named format's magic.
    BadMagic {
        /// Format the caller asked to decode.
        format: WireFormat,
        /// The first bytes actually found (up to 8).
        found: Vec<u8>,
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
    /// A structurally invalid payload (bad header syntax, bad filter
    /// byte, bad deflate symbol, …).
    Malformed {
        /// Byte offset where decoding failed (best effort).
        offset: usize,
        /// What was malformed.
        what: String,
    },
    /// The header promises dimensions beyond [`MAX_DIM`] / [`MAX_PIXELS`]
    /// — rejected before any allocation is sized from them.
    DimensionLimit {
        /// Width the header claims.
        width: u64,
        /// Height the header claims.
        height: u64,
    },
    /// A checksum did not match its data (PNG chunk CRC-32 or zlib
    /// Adler-32).
    CrcMismatch {
        /// Which checksum failed (chunk type, or `"zlib adler32"`).
        what: String,
        /// Checksum stored in the payload.
        stored: u32,
        /// Checksum computed over the data.
        computed: u32,
    },
    /// Valid for the format at large, but outside the subset this module
    /// speaks (16-bit channels, palettes, interlace, dynamic-Huffman
    /// deflate blocks, …).
    Unsupported {
        /// The feature the payload needs.
        what: String,
    },
    /// The image cannot be represented in the requested wire format
    /// (e.g. a greyscale image as P6, which is RGB by definition).
    Unencodable {
        /// Why the encode was refused.
        what: String,
    },
    /// The payload decoded cleanly but bytes remain after it.
    TrailingBytes {
        /// Bytes consumed by the decoder.
        consumed: usize,
        /// Total payload length.
        len: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnknownFormat { found } => {
                write!(f, "not a known wire image format (starts {found:02x?})")
            }
            CodecError::BadMagic { format, found } => {
                write!(f, "not a {format} payload (starts {found:02x?})")
            }
            CodecError::Truncated { offset, needed, len } => write!(
                f,
                "truncated image: needed {needed} byte(s) at offset {offset} of {len}"
            ),
            CodecError::Malformed { offset, what } => {
                write!(f, "malformed image at offset {offset}: {what}")
            }
            CodecError::DimensionLimit { width, height } => write!(
                f,
                "image dimensions {width}x{height} exceed the codec limits ({MAX_DIM} per axis, {MAX_PIXELS} pixels)"
            ),
            CodecError::CrcMismatch { what, stored, computed } => write!(
                f,
                "{what} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CodecError::Unsupported { what } => {
                write!(f, "unsupported image feature: {what}")
            }
            CodecError::Unencodable { what } => write!(f, "cannot encode image: {what}"),
            CodecError::TrailingBytes { consumed, len } => {
                write!(f, "image has {} trailing byte(s) after the payload", len - consumed)
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// The shared 8-bit quantization of the wire protocol ([`Image::save_pnm`]
/// writes through it too): `round(clamp(v, 0, 1) × 255)`, halves away
/// from zero, NaN to 0 — in float adds, a compare and a bit cast, so a
/// loop over it vectorises (see the module docs for why it is exact).
#[inline]
fn quantize(v: f32) -> u8 {
    /// 2²³: from here up, consecutive `f32`s are exactly 1 apart.
    const SHIFT: f32 = 8_388_608.0;
    // Not `clamp`: `max` returns its non-NaN operand, so NaN lands on 0.
    #[allow(clippy::manual_clamp)]
    let x = v.max(0.0).min(1.0) * 255.0;
    let shifted = x + SHIFT;
    let even = shifted - SHIFT;
    #[allow(clippy::cast_possible_truncation)]
    let low = shifted.to_bits() as u8;
    low + u8::from(x - even == 0.5)
}

/// `f32::from(v) / 255.0` for every byte, evaluated once at compile time
/// (IEEE division, so the same bits as at run time).
static DEQUANTIZE: [f32; 256] = {
    let mut table = [0.0; 256];
    let mut v = 0;
    while v < 256 {
        table[v] = v as f32 / 255.0;
        v += 1;
    }
    table
};

fn dequantize(v: u8) -> f32 {
    DEQUANTIZE[usize::from(v)]
}

/// Validate decode-side dimensions before anything is allocated from
/// them.
fn check_dims(width: u64, height: u64) -> Result<(usize, usize)> {
    if width == 0
        || height == 0
        || width > u64::from(MAX_DIM)
        || height > u64::from(MAX_DIM)
        || width * height > MAX_PIXELS
    {
        return Err(CodecError::DimensionLimit { width, height });
    }
    #[allow(clippy::cast_possible_truncation)]
    Ok((width as usize, height as usize))
}

/// Interleaved 8-bit samples → planar CHW `f32` image, a row at a time:
/// row `y`'s `w × channels` samples start at `samples[y × pitch]` (PNG
/// rows sit `1 + w × channels` apart, after their filter bytes) and are
/// dequantized into each plane's row in turn.
fn image_from_samples(samples: &[u8], pitch: usize, channels: usize, h: usize, w: usize) -> Image {
    let mut tensor = Tensor::zeros(&[channels, h, w]);
    let data = tensor.data_mut();
    if channels == 3 {
        let (r, gb) = data.split_at_mut(h * w);
        let (g, b) = gb.split_at_mut(h * w);
        let planes = r.chunks_exact_mut(w).zip(g.chunks_exact_mut(w)).zip(b.chunks_exact_mut(w));
        for (y, ((r, g), b)) in planes.enumerate() {
            let row = &samples[y * pitch..][..3 * w];
            for (px, ((r, g), b)) in row.chunks_exact(3).zip(r.iter_mut().zip(g.iter_mut()).zip(b)) {
                (*r, *g, *b) = (dequantize(px[0]), dequantize(px[1]), dequantize(px[2]));
            }
        }
    } else {
        for (y, plane_row) in data.chunks_exact_mut(w).enumerate() {
            for (v, &s) in plane_row.iter_mut().zip(&samples[y * pitch..][..w]) {
                *v = dequantize(s);
            }
        }
    }
    Image::from_tensor(tensor).expect("1 or 3 channels by construction")
}

/// Pixels an RGB row is quantized in at a time: each plane's run of them
/// into an array of its own (a loop that vectorises), then interleaved
/// from the three arrays.
const RGB_RUN: usize = 16;

/// [`quantize`] of the first [`RGB_RUN`] samples of `plane`.
#[inline]
fn quantize_run(plane: &[f32]) -> [u8; RGB_RUN] {
    let mut run = [0; RGB_RUN];
    for (q, &v) in run.iter_mut().zip(plane) {
        *q = quantize(v);
    }
    run
}

/// Append row `y` of a planar CHW `f32` image as interleaved quantized
/// 8-bit samples (`x`-major, channel-minor), read straight from the
/// planes — the one place the wire's sample order is written down.
fn push_row(out: &mut Vec<u8>, image: &Image, y: usize) {
    let (h, w) = (image.height(), image.width());
    let data = image.tensor().data();
    let row = |c: usize| &data[(c * h + y) * w..][..w];
    let start = out.len();
    out.resize(start + image.channels() * w, 0);
    let dst = &mut out[start..];
    if image.channels() == 3 {
        let (r, g, b) = (row(0), row(1), row(2));
        let planes = r.chunks_exact(RGB_RUN).zip(g.chunks_exact(RGB_RUN)).zip(b.chunks_exact(RGB_RUN));
        let mut runs = dst.chunks_exact_mut(3 * RGB_RUN);
        for (px, ((r, g), b)) in runs.by_ref().zip(planes) {
            let (r, g, b) = (quantize_run(r), quantize_run(g), quantize_run(b));
            let mut interleaved = [0; 3 * RGB_RUN];
            for (i, px) in interleaved.chunks_exact_mut(3).enumerate() {
                px.copy_from_slice(&[r[i], g[i], b[i]]);
            }
            px.copy_from_slice(&interleaved);
        }
        let done = w - w % RGB_RUN;
        let rest = r[done..].iter().zip(&g[done..]).zip(&b[done..]);
        for (px, ((&r, &g), &b)) in runs.into_remainder().chunks_exact_mut(3).zip(rest) {
            px.copy_from_slice(&[quantize(r), quantize(g), quantize(b)]);
        }
    } else {
        for (s, &v) in dst.iter_mut().zip(row(0)) {
            *s = quantize(v);
        }
    }
}

/// Binary PNM bytes: `P6` for RGB, `P5` for greyscale, maxval 255 —
/// the header and samples [`encode_ppm`] and [`Image::save_pnm`] share.
pub(crate) fn encode_pnm(image: &Image) -> Vec<u8> {
    use std::io::Write as _;
    let (h, w) = (image.height(), image.width());
    let magic = if image.channels() == 3 { "P6" } else { "P5" };
    // The header is at most 29 bytes ("P6\n" + two 10-digit extents).
    let mut out = Vec::with_capacity(32 + image.channels() * h * w);
    write!(out, "{magic}\n{w} {h}\n255\n").expect("writing to a Vec cannot fail");
    for y in 0..h {
        push_row(&mut out, image, y);
    }
    out
}

/// Sniff the format and decode.
///
/// # Errors
///
/// [`CodecError::UnknownFormat`] when the payload matches no known magic,
/// otherwise whatever the format's decoder reports.
pub fn decode_image(bytes: &[u8]) -> Result<(Image, WireFormat)> {
    match WireFormat::sniff(bytes) {
        Some(WireFormat::Ppm) => Ok((decode_ppm(bytes)?, WireFormat::Ppm)),
        Some(WireFormat::Png) => Ok((decode_png(bytes)?, WireFormat::Png)),
        None => Err(CodecError::UnknownFormat {
            found: bytes.iter().copied().take(8).collect(),
        }),
    }
}

/// Encode in the requested wire format.
///
/// # Errors
///
/// [`CodecError::Unencodable`] when the image does not fit the format
/// (greyscale as P6, or extents beyond the codec limits).
pub fn encode_image(image: &Image, format: WireFormat) -> Result<Vec<u8>> {
    match format {
        WireFormat::Ppm => encode_ppm(image),
        WireFormat::Png => encode_png(image),
    }
}

// ---------------------------------------------------------------------------
// PPM (P6)
// ---------------------------------------------------------------------------

/// Decode a binary PPM (`P6`, maxval 255) payload.
///
/// Header whitespace and `#` comments follow the Netpbm spec; the sample
/// data must match the promised `3 × width × height` bytes exactly.
///
/// # Errors
///
/// A typed [`CodecError`] for every malformed input.
pub fn decode_ppm(bytes: &[u8]) -> Result<Image> {
    if !bytes.starts_with(b"P6") {
        return Err(CodecError::BadMagic {
            format: WireFormat::Ppm,
            found: bytes.iter().copied().take(8).collect(),
        });
    }
    let mut pos = 2;
    let width = ppm_token(bytes, &mut pos)?;
    let height = ppm_token(bytes, &mut pos)?;
    let maxval = ppm_token(bytes, &mut pos)?;
    if maxval != 255 {
        return Err(CodecError::Unsupported {
            what: format!("PPM maxval {maxval} (only 8-bit, maxval 255)"),
        });
    }
    // Exactly one whitespace byte separates the header from the samples.
    match bytes.get(pos) {
        Some(b) if b.is_ascii_whitespace() => pos += 1,
        Some(b) => {
            return Err(CodecError::Malformed {
                offset: pos,
                what: format!("expected whitespace after maxval, found {b:#04x}"),
            })
        }
        None => {
            return Err(CodecError::Truncated { offset: pos, needed: 1, len: bytes.len() })
        }
    }
    let (w, h) = check_dims(width, height)?;
    let needed = 3 * w * h;
    let remaining = bytes.len() - pos;
    if remaining < needed {
        return Err(CodecError::Truncated { offset: pos, needed, len: bytes.len() });
    }
    if remaining > needed {
        return Err(CodecError::TrailingBytes { consumed: pos + needed, len: bytes.len() });
    }
    Ok(image_from_samples(&bytes[pos..pos + needed], 3 * w, 3, h, w))
}

/// One whitespace/comment-separated decimal token of a PPM header.
fn ppm_token(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    // Skip whitespace and `#` comments (which run to end of line). At
    // least one separator byte is required before each token.
    let start = *pos;
    loop {
        match bytes.get(*pos) {
            Some(b) if b.is_ascii_whitespace() => *pos += 1,
            Some(b'#') => {
                while let Some(&b) = bytes.get(*pos) {
                    *pos += 1;
                    if b == b'\n' {
                        break;
                    }
                }
            }
            Some(_) if *pos == start => {
                return Err(CodecError::Malformed {
                    offset: *pos,
                    what: "PPM header fields must be whitespace-separated".into(),
                })
            }
            Some(_) => break,
            None => {
                return Err(CodecError::Truncated { offset: *pos, needed: 1, len: bytes.len() })
            }
        }
    }
    let digits_at = *pos;
    let mut value: u64 = 0;
    while let Some(&b) = bytes.get(*pos) {
        if !b.is_ascii_digit() {
            break;
        }
        if *pos - digits_at >= 10 {
            return Err(CodecError::Malformed {
                offset: digits_at,
                what: "PPM header value has more than 10 digits".into(),
            });
        }
        value = value * 10 + u64::from(b - b'0');
        *pos += 1;
    }
    if *pos == digits_at {
        return Err(CodecError::Malformed {
            offset: digits_at,
            what: "expected a decimal value in the PPM header".into(),
        });
    }
    Ok(value)
}

/// Encode as binary PPM (`P6`, maxval 255) — the bytes
/// [`Image::save_pnm`] writes for an RGB image, so a saved file and a
/// wire payload are byte-identical.
///
/// # Errors
///
/// [`CodecError::Unencodable`] for non-RGB images (P6 is RGB by
/// definition; greyscale belongs in PNG).
pub fn encode_ppm(image: &Image) -> Result<Vec<u8>> {
    if image.channels() != 3 {
        return Err(CodecError::Unencodable {
            what: format!("PPM P6 is RGB; image has {} channel(s)", image.channels()),
        });
    }
    Ok(encode_pnm(image))
}

// ---------------------------------------------------------------------------
// PNG
// ---------------------------------------------------------------------------

/// Decode a PNG payload (8-bit greyscale or RGB, no interlace; zlib
/// streams of stored and fixed-Huffman deflate blocks — see the module
/// docs for the exact subset).
///
/// Every chunk CRC and the zlib Adler-32 are verified; anything outside
/// the subset is a typed [`CodecError::Unsupported`].
///
/// # Errors
///
/// A typed [`CodecError`] for every malformed input.
pub fn decode_png(bytes: &[u8]) -> Result<Image> {
    if !bytes.starts_with(&PNG_SIG) {
        return Err(CodecError::BadMagic {
            format: WireFormat::Png,
            found: bytes.iter().copied().take(8).collect(),
        });
    }
    let mut cur = Cursor { bytes, pos: PNG_SIG.len() };
    let mut header: Option<(usize, usize, usize)> = None; // (w, h, channels)
    // The zlib stream: borrowed while it sits in one IDAT chunk, copied
    // out and joined only once a second one arrives.
    let mut idat: Option<Cow<'_, [u8]>> = None;
    loop {
        let at = cur.pos;
        let len = cur.take_u32_be()? as usize;
        let ctype: [u8; 4] = cur.take(4)?.try_into().expect("4 bytes");
        let data = cur.take(len)?;
        let stored_crc = cur.take_u32_be()?;
        let computed = !crc32_update(crc32_update(!0, &ctype), data);
        if computed != stored_crc {
            return Err(CodecError::CrcMismatch {
                what: format!("PNG chunk {}", chunk_name(ctype)),
                stored: stored_crc,
                computed,
            });
        }
        match &ctype {
            b"IHDR" => {
                if header.is_some() {
                    return Err(CodecError::Malformed {
                        offset: at,
                        what: "duplicate IHDR chunk".into(),
                    });
                }
                header = Some(parse_ihdr(data, at)?);
            }
            b"IDAT" => {
                if header.is_none() {
                    return Err(CodecError::Malformed {
                        offset: at,
                        what: "IDAT before IHDR".into(),
                    });
                }
                match &mut idat {
                    None => idat = Some(Cow::Borrowed(data)),
                    Some(stream) => stream.to_mut().extend_from_slice(data),
                }
            }
            b"IEND" => {
                if len != 0 {
                    return Err(CodecError::Malformed {
                        offset: at,
                        what: "IEND chunk must be empty".into(),
                    });
                }
                break;
            }
            b"PLTE" => {
                return Err(CodecError::Unsupported { what: "PNG palette (PLTE)".into() })
            }
            _ => {
                // Ancillary chunks (lowercase first letter) are skippable
                // by definition; unknown critical chunks are not.
                if ctype[0] & 0x20 == 0 {
                    return Err(CodecError::Unsupported {
                        what: format!("critical PNG chunk {}", chunk_name(ctype)),
                    });
                }
            }
        }
    }
    if cur.pos != bytes.len() {
        return Err(CodecError::TrailingBytes { consumed: cur.pos, len: bytes.len() });
    }
    let Some((w, h, channels)) = header else {
        return Err(CodecError::Malformed { offset: PNG_SIG.len(), what: "missing IHDR".into() });
    };
    let Some(idat) = idat else {
        return Err(CodecError::Malformed { offset: cur.pos, what: "missing IDAT".into() });
    };
    // One filter byte plus `w × channels` samples per scanline; the
    // dimensions were bounded in `parse_ihdr`, so this cannot overflow.
    let pitch = 1 + w * channels;
    let mut raw = zlib_inflate(&idat, h * pitch)?;
    unfilter(&mut raw, h, w, channels)?;
    Ok(image_from_samples(&raw[1..], pitch, channels, h, w))
}

/// A chunk type as text, for error messages.
fn chunk_name(ctype: [u8; 4]) -> String {
    String::from_utf8_lossy(&ctype).into_owned()
}

fn parse_ihdr(data: &[u8], at: usize) -> Result<(usize, usize, usize)> {
    if data.len() != 13 {
        return Err(CodecError::Malformed {
            offset: at,
            what: format!("IHDR must be 13 bytes, found {}", data.len()),
        });
    }
    let width = u64::from(u32::from_be_bytes(data[0..4].try_into().expect("4 bytes")));
    let height = u64::from(u32::from_be_bytes(data[4..8].try_into().expect("4 bytes")));
    let (bit_depth, colour, compression, filter, interlace) =
        (data[8], data[9], data[10], data[11], data[12]);
    let (w, h) = check_dims(width, height)?;
    if bit_depth != 8 {
        return Err(CodecError::Unsupported { what: format!("PNG bit depth {bit_depth}") });
    }
    let channels = match colour {
        0 => 1,
        2 => 3,
        3 => return Err(CodecError::Unsupported { what: "PNG palette colour type".into() }),
        4 | 6 => {
            return Err(CodecError::Unsupported {
                what: format!("PNG colour type {colour} (alpha)"),
            })
        }
        _ => {
            return Err(CodecError::Malformed {
                offset: at,
                what: format!("invalid PNG colour type {colour}"),
            })
        }
    };
    if compression != 0 {
        return Err(CodecError::Malformed {
            offset: at,
            what: format!("invalid PNG compression method {compression}"),
        });
    }
    if filter != 0 {
        return Err(CodecError::Malformed {
            offset: at,
            what: format!("invalid PNG filter method {filter}"),
        });
    }
    if interlace != 0 {
        return Err(CodecError::Unsupported { what: "PNG Adam7 interlace".into() });
    }
    Ok((w, h, channels))
}

/// Reverse the per-scanline filters in place: `raw` holds `h` rows of a
/// filter byte then `w × channels` samples, and each row is decoded
/// against the one before it, already decoded. The filter type is
/// resolved once per row; on row 0 the prior row is all zero, so Up
/// leaves the row as it is and Paeth is Sub, and the first pixel of a
/// row (no left neighbour) is handled before the loop over the rest.
fn unfilter(raw: &mut [u8], h: usize, w: usize, channels: usize) -> Result<()> {
    let (bpp, pitch) = (channels, 1 + w * channels);
    for y in 0..h {
        let (done, rest) = raw.split_at_mut(y * pitch);
        let (filter, line) = rest[..pitch].split_first_mut().expect("pitch >= 1");
        let prior = (y > 0).then(|| &done[done.len() - pitch + 1..]);
        match (*filter, prior) {
            (0, _) | (2, None) => {}
            (1, _) | (4, None) => {
                for i in bpp..line.len() {
                    line[i] = line[i].wrapping_add(line[i - bpp]);
                }
            }
            (2, Some(up)) => {
                for (x, &b) in line.iter_mut().zip(up) {
                    *x = x.wrapping_add(b);
                }
            }
            (3, None) => {
                for i in bpp..line.len() {
                    line[i] = line[i].wrapping_add(line[i - bpp] / 2);
                }
            }
            (3, Some(up)) => {
                for (x, &b) in line[..bpp].iter_mut().zip(up) {
                    *x = x.wrapping_add(b / 2);
                }
                for i in bpp..line.len() {
                    #[allow(clippy::cast_possible_truncation)]
                    let mean = ((u16::from(line[i - bpp]) + u16::from(up[i])) / 2) as u8;
                    line[i] = line[i].wrapping_add(mean);
                }
            }
            (4, Some(up)) => {
                // Paeth with no left neighbour predicts the byte above.
                for (x, &b) in line[..bpp].iter_mut().zip(up) {
                    *x = x.wrapping_add(b);
                }
                for i in bpp..line.len() {
                    line[i] = line[i].wrapping_add(paeth(line[i - bpp], up[i], up[i - bpp]));
                }
            }
            (filter, _) => {
                return Err(CodecError::Malformed {
                    offset: y * pitch,
                    what: format!("invalid PNG scanline filter {filter}"),
                })
            }
        }
    }
    Ok(())
}

/// The Paeth predictor (PNG spec §9.4).
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let (pa, pb, pc) = {
        let p = i16::from(a) + i16::from(b) - i16::from(c);
        ((p - i16::from(a)).abs(), (p - i16::from(b)).abs(), (p - i16::from(c)).abs())
    };
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Encode as PNG: 8-bit greyscale (1 channel) or RGB (3 channels),
/// filter 0, zlib with stored deflate blocks.
///
/// # Errors
///
/// [`CodecError::Unencodable`] for extents beyond the codec limits (the
/// decoder could never read the result back).
pub fn encode_png(image: &Image) -> Result<Vec<u8>> {
    let (h, w, channels) = (image.height(), image.width(), image.channels());
    if check_dims(w as u64, h as u64).is_err() {
        return Err(CodecError::Unencodable {
            what: format!("image extent {w}x{h} exceeds the codec limits"),
        });
    }
    let colour = if channels == 3 { 2u8 } else { 0u8 };
    let stride = w * channels;
    // The zlib payload: one filter byte (0, None) per row, then the row.
    let raw_len = h * (stride + 1);
    let blocks = raw_len.div_ceil(STORED_BLOCK);
    let idat_len = 2 + 5 * blocks + raw_len + 4;
    // Signature, IHDR (12 + 13), IDAT (12 + payload), IEND (12).
    let mut out = Vec::with_capacity(PNG_SIG.len() + 25 + 12 + idat_len + 12);
    out.extend_from_slice(&PNG_SIG);

    let type_start = open_chunk(&mut out, b"IHDR", 13);
    #[allow(clippy::cast_possible_truncation)]
    {
        out.extend_from_slice(&(w as u32).to_be_bytes());
        out.extend_from_slice(&(h as u32).to_be_bytes());
    }
    out.extend_from_slice(&[8, colour, 0, 0, 0]);
    close_chunk(&mut out, type_start);

    let type_start = open_chunk(&mut out, b"IDAT", idat_len);
    // CMF 0x78 (deflate, 32 KiB window), FLG 0x01 (check bits, no dict):
    // (0x78 << 8 | 0x01) = 30721 = 31 × 991.
    out.extend_from_slice(&[0x78, 0x01]);
    out.extend_from_slice(&stored_block_header(0, raw_len));
    let raw_start = out.len();
    for y in 0..h {
        out.push(0); // filter: None
        push_row(&mut out, image, y);
    }
    let adler = adler32(&out[raw_start..]);
    // Each later block's header goes in by moving that block along, last
    // block first, so nothing not yet moved is overwritten (a reply
    // under 64 KiB is one block and moves nothing).
    out.resize(out.len() + 5 * (blocks - 1), 0);
    for k in (1..blocks).rev() {
        let (from, to) = (raw_start + k * STORED_BLOCK, raw_start + k * (STORED_BLOCK + 5));
        let len = (raw_len - k * STORED_BLOCK).min(STORED_BLOCK);
        out.copy_within(from..from + len, to);
        out[to - 5..to].copy_from_slice(&stored_block_header(k * STORED_BLOCK, raw_len));
    }
    out.extend_from_slice(&adler.to_be_bytes());
    close_chunk(&mut out, type_start);

    let type_start = open_chunk(&mut out, b"IEND", 0);
    close_chunk(&mut out, type_start);
    Ok(out)
}

/// Write a chunk's length and type; returns where the type starts (the
/// CRC covers type and data).
fn open_chunk(out: &mut Vec<u8>, ctype: &[u8; 4], len: usize) -> usize {
    #[allow(clippy::cast_possible_truncation)]
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.extend_from_slice(ctype);
    out.len() - 4
}

/// Append the CRC of the chunk whose type starts at `type_start`.
fn close_chunk(out: &mut Vec<u8>, type_start: usize) {
    let crc = crc32(&out[type_start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

// ---------------------------------------------------------------------------
// zlib (RFC 1950) over deflate (RFC 1951), stored + fixed-Huffman subset
// ---------------------------------------------------------------------------

/// Largest payload of one stored (uncompressed) deflate block.
const STORED_BLOCK: usize = 65_535;

/// Header of the stored deflate block that starts at byte `at` of a
/// `raw_len`-byte payload: BFINAL (BTYPE=00 in bits 1-2), LEN, NLEN.
fn stored_block_header(at: usize, raw_len: usize) -> [u8; 5] {
    #[allow(clippy::cast_possible_truncation)]
    let len = (raw_len - at).min(STORED_BLOCK) as u16;
    let [l0, l1] = len.to_le_bytes();
    let [n0, n1] = (!len).to_le_bytes();
    [u8::from(at + STORED_BLOCK >= raw_len), l0, l1, n0, n1]
}

/// Inflate a zlib stream whose deflate blocks are stored or
/// fixed-Huffman, bounding the output at exactly `expected` bytes.
fn zlib_inflate(data: &[u8], expected: usize) -> Result<Vec<u8>> {
    if data.len() < 2 {
        return Err(CodecError::Truncated { offset: 0, needed: 2, len: data.len() });
    }
    let (cmf, flg) = (data[0], data[1]);
    if (u16::from(cmf) << 8 | u16::from(flg)) % 31 != 0 {
        return Err(CodecError::Malformed {
            offset: 0,
            what: format!("zlib header check failed (CMF {cmf:#04x}, FLG {flg:#04x})"),
        });
    }
    if cmf & 0x0f != 8 {
        return Err(CodecError::Unsupported {
            what: format!("zlib compression method {}", cmf & 0x0f),
        });
    }
    if flg & 0x20 != 0 {
        return Err(CodecError::Unsupported { what: "zlib preset dictionary".into() });
    }
    let mut bits = Bits { bytes: data, pos: 2, bit: 0 };
    let out = inflate(&mut bits, expected)?;
    bits.align();
    let adler_at = bits.pos;
    let stored = bits.take_u32_be()?;
    let computed = adler32(&out);
    if stored != computed {
        return Err(CodecError::CrcMismatch { what: "zlib adler32".into(), stored, computed });
    }
    if bits.pos != data.len() {
        return Err(CodecError::Malformed {
            offset: adler_at,
            what: "trailing bytes after the zlib stream".into(),
        });
    }
    if out.len() != expected {
        return Err(CodecError::Malformed {
            offset: bits.pos,
            what: format!("decompressed to {} byte(s), header promises {expected}", out.len()),
        });
    }
    Ok(out)
}

/// LSB-first deflate bit reader.
struct Bits<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit: u32,
}

impl Bits<'_> {
    fn bit(&mut self) -> Result<u32> {
        let Some(&byte) = self.bytes.get(self.pos) else {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: 1,
                len: self.bytes.len(),
            });
        };
        let b = u32::from(byte >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        Ok(b)
    }

    /// `n` bits as an LSB-first integer (deflate extra bits, lengths).
    fn bits(&mut self, n: u32) -> Result<u32> {
        let mut v = 0;
        for i in 0..n {
            v |= self.bit()? << i;
        }
        Ok(v)
    }

    /// `n` bits accumulated MSB-first (Huffman codes).
    fn code(&mut self, n: u32) -> Result<u32> {
        let mut v = 0;
        for _ in 0..n {
            v = v << 1 | self.bit()?;
        }
        Ok(v)
    }

    fn align(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.pos += 1;
        }
    }

    fn take_u32_be(&mut self) -> Result<u32> {
        debug_assert_eq!(self.bit, 0, "reads are byte-aligned here");
        if self.bytes.len() - self.pos < 4 {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: 4,
                len: self.bytes.len(),
            });
        }
        let v = u32::from_be_bytes(self.bytes[self.pos..self.pos + 4].try_into().expect("4 bytes"));
        self.pos += 4;
        Ok(v)
    }
}

/// Length codes 257..=285: (base, extra bits).
const LEN_TABLE: [(u32, u32); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1), (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3), (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5), (258, 0),
];

/// Distance codes 0..=29: (base, extra bits).
const DIST_TABLE: [(u32, u32); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4), (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8), (1025, 9), (1537, 9),
    (2049, 10), (3073, 10), (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

fn inflate(bits: &mut Bits<'_>, expected: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(expected);
    loop {
        let bfinal = bits.bit()?;
        let btype = bits.bits(2)?;
        match btype {
            0 => {
                bits.align();
                let at = bits.pos;
                if bits.bytes.len() - bits.pos < 4 {
                    return Err(CodecError::Truncated {
                        offset: at,
                        needed: 4,
                        len: bits.bytes.len(),
                    });
                }
                let len = u16::from_le_bytes(
                    bits.bytes[bits.pos..bits.pos + 2].try_into().expect("2 bytes"),
                );
                let nlen = u16::from_le_bytes(
                    bits.bytes[bits.pos + 2..bits.pos + 4].try_into().expect("2 bytes"),
                );
                bits.pos += 4;
                if len != !nlen {
                    return Err(CodecError::Malformed {
                        offset: at,
                        what: "stored deflate block length check failed".into(),
                    });
                }
                let len = usize::from(len);
                if bits.bytes.len() - bits.pos < len {
                    return Err(CodecError::Truncated {
                        offset: bits.pos,
                        needed: len,
                        len: bits.bytes.len(),
                    });
                }
                if out.len() + len > expected {
                    return Err(oversized(bits.pos, expected));
                }
                out.extend_from_slice(&bits.bytes[bits.pos..bits.pos + len]);
                bits.pos += len;
            }
            1 => fixed_block(bits, &mut out, expected)?,
            2 => {
                return Err(CodecError::Unsupported {
                    what: "dynamic-Huffman deflate block".into(),
                })
            }
            _ => {
                return Err(CodecError::Malformed {
                    offset: bits.pos,
                    what: "reserved deflate block type".into(),
                })
            }
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn oversized(offset: usize, expected: usize) -> CodecError {
    CodecError::Malformed {
        offset,
        what: format!("decompressed data exceeds the {expected} byte(s) the header promises"),
    }
}

/// Decode one fixed-Huffman deflate block into `out`.
fn fixed_block(bits: &mut Bits<'_>, out: &mut Vec<u8>, expected: usize) -> Result<()> {
    loop {
        let sym = fixed_litlen(bits)?;
        match sym {
            0..=255 => {
                if out.len() >= expected {
                    return Err(oversized(bits.pos, expected));
                }
                #[allow(clippy::cast_possible_truncation)]
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = LEN_TABLE[(sym - 257) as usize];
                let len = (base + bits.bits(extra)?) as usize;
                let dsym = bits.code(5)? as usize;
                if dsym >= DIST_TABLE.len() {
                    return Err(CodecError::Malformed {
                        offset: bits.pos,
                        what: format!("invalid deflate distance symbol {dsym}"),
                    });
                }
                let (dbase, dextra) = DIST_TABLE[dsym];
                let dist = (dbase + bits.bits(dextra)?) as usize;
                if dist > out.len() {
                    return Err(CodecError::Malformed {
                        offset: bits.pos,
                        what: format!(
                            "deflate back-reference distance {dist} before stream start"
                        ),
                    });
                }
                if out.len() + len > expected {
                    return Err(oversized(bits.pos, expected));
                }
                // Byte-by-byte: overlapping copies (dist < len) replicate.
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            }
            _ => {
                return Err(CodecError::Malformed {
                    offset: bits.pos,
                    what: format!("invalid deflate literal/length symbol {sym}"),
                })
            }
        }
    }
}

/// One symbol of the fixed literal/length code (RFC 1951 §3.2.6): 7-bit
/// codes 0x00-0x17 → 256-279, 8-bit 0x30-0xBF → 0-143 and 0xC0-0xC7 →
/// 280-287, 9-bit 0x190-0x1FF → 144-255.
fn fixed_litlen(bits: &mut Bits<'_>) -> Result<u32> {
    let mut code = bits.code(7)?;
    if code <= 0x17 {
        return Ok(256 + code);
    }
    code = code << 1 | bits.bit()?;
    if (0x30..=0xbf).contains(&code) {
        return Ok(code - 0x30);
    }
    if (0xc0..=0xc7).contains(&code) {
        return Ok(280 + code - 0xc0);
    }
    code = code << 1 | bits.bit()?;
    if (0x190..=0x1ff).contains(&code) {
        return Ok(144 + code - 0x190);
    }
    Err(CodecError::Malformed {
        offset: bits.pos,
        what: format!("invalid fixed-Huffman code {code:#x}"),
    })
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE, reflected — the PNG chunk checksum).
fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Slicing-by-16 lookup tables (Kounavis & Berry, 2005): `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][n]` is the register
/// after byte `n` is followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
};

/// Run the (pre-inverted) CRC-32 register `crc` over `data`, sixteen
/// bytes per step: the register folds into the first four, and byte `i`
/// is looked up in the table that shifts it past the `15 − i` bytes
/// after it. A tail shorter than sixteen bytes goes a byte at a time.
/// Chunks are checksummed piecewise (type, then data) by chaining calls.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let word = |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().expect("4 bytes"));
        let words = [word(0) ^ crc, word(4), word(8), word(12)];
        crc = 0;
        for (j, word) in words.into_iter().enumerate() {
            for (k, byte) in word.to_le_bytes().into_iter().enumerate() {
                crc ^= CRC_TABLES[15 - 4 * j - k][usize::from(byte)];
            }
        }
    }
    for &byte in blocks.remainder() {
        crc = CRC_TABLES[0][usize::from((crc as u8) ^ byte)] ^ (crc >> 8);
    }
    crc
}

/// Adler-32 (the zlib stream checksum), in blocks of 16-byte stripes
/// whose sums vectorise. Over `n` bytes after sums `(a, b)`, `a` gains
/// `Σ x_j` and `b` gains `n·a + Σ (n − j)·x_j`; lane `i` of the stripes
/// keeps its bytes' running sum and the running sum of that, which give
/// both without a carried add per byte. Exact by construction: integers,
/// reduced once per block.
fn adler32(data: &[u8]) -> u32 {
    const MOD: u64 = 65_521;
    /// Bytes per stripe: lane `i` takes byte `i` of every stripe.
    const STRIPE: usize = 16;
    /// Stripes per block: a lane's sum of running sums stays at most
    /// `255·S(S+1)/2 < 2³²`, so its `u32` cannot overflow.
    const BLOCK: usize = 4_096;
    let (mut a, mut b) = (1u64, 0u64);
    for block in data.chunks(STRIPE * BLOCK) {
        let stripes = block.chunks_exact(STRIPE);
        let tail = stripes.remainder();
        let (mut sums, mut sums_of_sums) = ([0u32; STRIPE], [0u32; STRIPE]);
        for stripe in stripes {
            for ((sum, total), &x) in sums.iter_mut().zip(&mut sums_of_sums).zip(stripe) {
                *sum += u32::from(x);
                *total += *sum;
            }
        }
        // Byte `i` of stripe `s` of `m` is `j = 16·s + i` and weighs
        // `n − j = 16·(m − s) − i`; lane `i`'s total counts it `m − s` times.
        let n = (block.len() - tail.len()) as u64;
        let weighted: u64 = sums_of_sums.iter().map(|&t| u64::from(t)).sum::<u64>() * STRIPE as u64
            - sums.iter().enumerate().map(|(i, &sum)| i as u64 * u64::from(sum)).sum::<u64>();
        b += n * a + weighted;
        a += sums.iter().map(|&sum| u64::from(sum)).sum::<u64>();
        for &x in tail {
            a += u64::from(x);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16 | a) as u32
}

/// A byte-slice reader with typed truncation errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: n,
                len: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u32_be(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An RGB image whose values are already 8-bit quantized, so wire
    /// round trips are bit-exact.
    fn quantized_image(h: usize, w: usize, seed: u64) -> Image {
        let mut img = Image::zeros(h, w);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for c in 0..3 {
            for y in 0..h {
                for x in 0..w {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    #[allow(clippy::cast_possible_truncation)]
                    let byte = (state >> 33) as u8;
                    *img.pixel_mut(c, y, x) = dequantize(byte);
                }
            }
        }
        img
    }

    fn assert_images_bit_identical(a: &Image, b: &Image) {
        assert_eq!(a.tensor().shape(), b.tensor().shape());
        for (x, y) in a.tensor().data().iter().zip(b.tensor().data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn ppm_round_trip_is_bit_exact() {
        let img = quantized_image(7, 5, 1);
        let bytes = encode_ppm(&img).unwrap();
        assert!(bytes.starts_with(b"P6\n5 7\n255\n"));
        let back = decode_ppm(&bytes).unwrap();
        assert_images_bit_identical(&img, &back);
        // And byte-identity the other way around.
        assert_eq!(encode_ppm(&back).unwrap(), bytes);
    }

    #[test]
    fn ppm_header_allows_comments_and_mixed_whitespace() {
        let mut bytes = b"P6 # a comment\n# another\n 2\t3\n255\n".to_vec();
        bytes.extend_from_slice(&[10u8; 18]);
        let img = decode_ppm(&bytes).unwrap();
        assert_eq!((img.width(), img.height()), (2, 3));
        assert_eq!(img.pixel(0, 0, 0).to_bits(), dequantize(10).to_bits());
    }

    #[test]
    fn png_round_trip_is_bit_exact_rgb_and_grey() {
        let img = quantized_image(6, 9, 2);
        let bytes = encode_png(&img).unwrap();
        let back = decode_png(&bytes).unwrap();
        assert_images_bit_identical(&img, &back);
        assert_eq!(encode_png(&back).unwrap(), bytes);

        let grey = Image::from_tensor(img.to_luma().map(|v| quantize(v) as f32 / 255.0)).unwrap();
        let bytes = encode_png(&grey).unwrap();
        let back = decode_png(&bytes).unwrap();
        assert_eq!(back.channels(), 1);
        assert_images_bit_identical(&grey, &back);
    }

    #[test]
    fn decode_image_sniffs_both_formats() {
        let img = quantized_image(4, 4, 3);
        let (ppm, png) = (encode_ppm(&img).unwrap(), encode_png(&img).unwrap());
        let (a, fa) = decode_image(&ppm).unwrap();
        let (b, fb) = decode_image(&png).unwrap();
        assert_eq!(fa, WireFormat::Ppm);
        assert_eq!(fb, WireFormat::Png);
        assert_images_bit_identical(&a, &b);
        let err = decode_image(b"GIF89a...").unwrap_err();
        assert!(matches!(err, CodecError::UnknownFormat { .. }), "{err}");
    }

    /// Hand-built fixed-Huffman zlib stream: literals 'a' 'b', then a
    /// length-4/distance-2 back-reference (→ "ababab"), end-of-block.
    fn fixed_huffman_zlib(payload_check: &[u8]) -> Vec<u8> {
        struct BitWriter {
            bytes: Vec<u8>,
            bit: u32,
        }
        impl BitWriter {
            /// Push `n` bits LSB-first (deflate bit order).
            fn lsb(&mut self, value: u32, n: u32) {
                for i in 0..n {
                    let b = value >> i & 1;
                    if self.bit == 0 {
                        self.bytes.push(0);
                    }
                    let last = self.bytes.len() - 1;
                    self.bytes[last] |= (b as u8) << self.bit;
                    self.bit = (self.bit + 1) % 8;
                }
            }
            /// Push an `n`-bit Huffman code MSB-first.
            fn code(&mut self, value: u32, n: u32) {
                for i in (0..n).rev() {
                    self.lsb(value >> i & 1, 1);
                }
            }
        }
        let mut w = BitWriter { bytes: vec![0x78, 0x01], bit: 0 };
        w.lsb(1, 1); // BFINAL
        w.lsb(1, 2); // BTYPE = fixed Huffman
        for lit in [b'a', b'b'] {
            w.code(0x30 + u32::from(lit), 8);
        }
        w.code(0x01, 7); // length symbol 257 → length 3, no extra bits
        w.code(0x01, 5); // distance symbol 1 → distance 2
        w.code(0x00, 7); // end of block (symbol 256)
        let mut bytes = w.bytes;
        bytes.extend_from_slice(&adler32(payload_check).to_be_bytes());
        bytes
    }

    #[test]
    fn fixed_huffman_blocks_with_back_references_inflate() {
        // 'a', 'b', then length 3 / distance 2 → "ababa".
        let expected = b"ababa";
        let stream = fixed_huffman_zlib(expected);
        let out = zlib_inflate(&stream, expected.len()).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn dynamic_huffman_blocks_are_a_typed_unsupported_error() {
        // BFINAL=1, BTYPE=10 (dynamic) — first compressed byte 0b101 = 5.
        let mut stream = vec![0x78, 0x01, 0x05];
        stream.extend_from_slice(&adler32(b"").to_be_bytes());
        let err = zlib_inflate(&stream, 8).unwrap_err();
        assert!(matches!(err, CodecError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn ppm_negative_suite() {
        let img = quantized_image(3, 3, 4);
        let good = encode_ppm(&img).unwrap();

        let bad_magic = decode_ppm(b"P5\n3 3\n255\nxxxxxxxxx").unwrap_err();
        assert!(matches!(bad_magic, CodecError::BadMagic { .. }), "{bad_magic}");

        let truncated = decode_ppm(&good[..good.len() - 1]).unwrap_err();
        assert!(matches!(truncated, CodecError::Truncated { .. }), "{truncated}");

        let mut trailing = good.clone();
        trailing.push(0);
        let err = decode_ppm(&trailing).unwrap_err();
        assert!(matches!(err, CodecError::TrailingBytes { .. }), "{err}");

        let absurd = decode_ppm(b"P6\n999999999 999999999\n255\n").unwrap_err();
        assert!(matches!(absurd, CodecError::DimensionLimit { .. }), "{absurd}");

        let sixteen_bit = decode_ppm(b"P6\n2 2\n65535\n").unwrap_err();
        assert!(matches!(sixteen_bit, CodecError::Unsupported { .. }), "{sixteen_bit}");

        let no_ws = decode_ppm(b"P63 3\n255\n").unwrap_err();
        assert!(matches!(no_ws, CodecError::Malformed { .. }), "{no_ws}");

        let header_only = decode_ppm(b"P6\n3").unwrap_err();
        assert!(matches!(header_only, CodecError::Truncated { .. }), "{header_only}");
    }

    #[test]
    fn png_negative_suite() {
        let img = quantized_image(4, 5, 5);
        let good = encode_png(&img).unwrap();

        let bad_magic = decode_png(b"notapngfile").unwrap_err();
        assert!(matches!(bad_magic, CodecError::BadMagic { .. }), "{bad_magic}");

        let truncated = decode_png(&good[..good.len() - 5]).unwrap_err();
        assert!(matches!(truncated, CodecError::Truncated { .. }), "{truncated}");

        // Flip one IDAT payload byte: the chunk CRC must catch it.
        let mut crc_broken = good.clone();
        let idat_at = good.windows(4).position(|w| w == b"IDAT").unwrap();
        crc_broken[idat_at + 7] ^= 0xff;
        let err = decode_png(&crc_broken).unwrap_err();
        assert!(matches!(err, CodecError::CrcMismatch { .. }), "{err}");

        let mut trailing = good.clone();
        trailing.push(0);
        let err = decode_png(&trailing).unwrap_err();
        assert!(matches!(err, CodecError::TrailingBytes { .. }), "{err}");

        // Absurd dimensions in IHDR (chunk re-CRC'd so only the bound
        // check can reject it).
        let mut absurd = good.clone();
        absurd[16..20].copy_from_slice(&0x7fff_ffffu32.to_be_bytes());
        let ihdr_crc = crc32(&absurd[12..29]);
        absurd[29..33].copy_from_slice(&ihdr_crc.to_be_bytes());
        let err = decode_png(&absurd).unwrap_err();
        assert!(matches!(err, CodecError::DimensionLimit { .. }), "{err}");

        // 16-bit depth is valid PNG but outside the subset.
        let mut deep = good.clone();
        deep[24] = 16;
        let crc = crc32(&deep[12..29]);
        deep[29..33].copy_from_slice(&crc.to_be_bytes());
        let err = decode_png(&deep).unwrap_err();
        assert!(matches!(err, CodecError::Unsupported { .. }), "{err}");

        // Declared size larger than the pixel data inflates to.
        let mut short = good.clone();
        short[20..24].copy_from_slice(&9u32.to_be_bytes()); // height 4 → 9
        let crc = crc32(&short[12..29]);
        short[29..33].copy_from_slice(&crc.to_be_bytes());
        let err = decode_png(&short).unwrap_err();
        assert!(
            matches!(err, CodecError::Malformed { .. } | CodecError::Truncated { .. }),
            "{err}"
        );
    }

    #[test]
    fn grey_images_refuse_p6() {
        let grey = Image::from_tensor(Tensor::zeros(&[1, 3, 3])).unwrap();
        let err = encode_ppm(&grey).unwrap_err();
        assert!(matches!(err, CodecError::Unencodable { .. }), "{err}");
    }

    #[test]
    fn checksums_match_known_vectors() {
        // Published test vectors: CRC-32("123456789") and Adler-32 of
        // "Wikipedia".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(adler32(b"Wikipedia"), 0x11e6_0398);
        assert_eq!(adler32(b""), 1);
    }

    /// The sliced CRC-32 against the bitwise one at every length 0–300
    /// and every start offset 0–15 (each tail length, each alignment,
    /// one to eighteen whole 16-byte steps), whole and split in two the
    /// way `decode_png` chains a chunk's type and data.
    #[test]
    fn sliced_crc32_matches_the_bitwise_reference() {
        let bytes: Vec<u8> = (0..316u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let data = &bytes[start..start + len];
                let want = reference::crc32(data);
                assert_eq!(crc32(data), want, "start {start}, len {len}");
                let (head, tail) = data.split_at(len.min(4));
                assert_eq!(!crc32_update(crc32_update(!0, head), tail), want, "split, start {start}, len {len}");
            }
        }
    }

    /// The blocked Adler-32 against the byte-at-a-time one at every
    /// length 0–300 (each stripe tail, one to eighteen whole stripes), at
    /// the old 5,552-byte reduction run and twice it, across a block, and
    /// on all-0xFF buffers — the largest sums a block can hold.
    #[test]
    fn blocked_adler32_matches_the_bytewise_reference() {
        let bytes: Vec<u8> = (0..140_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let lengths = (0..=300).chain(5_551..=5_553).chain([11_105, 65_535, 65_536, 65_537, 140_000]);
        for len in lengths {
            assert_eq!(adler32(&bytes[..len]), reference::adler32(&bytes[..len]), "len {len}");
        }
        for len in [16, 5_552, 65_536, 65_552, 140_001] {
            let ones = vec![0xFF; len];
            assert_eq!(adler32(&ones), reference::adler32(&ones), "all 0xFF, len {len}");
        }
    }

    /// The per-pixel encoders the plane-walking ones replaced, kept as
    /// the byte-identity reference: every sample through
    /// [`Image::pixel`], the filtered rows copied into a raw buffer, that
    /// copied again into stored deflate blocks, and each chunk copied
    /// once more for its CRC. It holds its own quantize (a rounding
    /// call), bitwise CRC-32 and Adler-32, so a change to the module's
    /// own three cannot pass by being compared with itself.
    mod reference {
        use super::super::PNG_SIG;
        use crate::Image;

        pub fn quantize(v: f32) -> u8 {
            (v.clamp(0.0, 1.0) * 255.0).round() as u8
        }

        /// CRC-32 a bit at a time, straight from the polynomial.
        pub fn crc32(data: &[u8]) -> u32 {
            let mut crc = 0xffff_ffffu32;
            for &byte in data {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    crc = if crc & 1 == 1 { 0xedb8_8320 ^ (crc >> 1) } else { crc >> 1 };
                }
            }
            !crc
        }

        pub fn adler32(data: &[u8]) -> u32 {
            let (mut a, mut b) = (1u32, 0u32);
            for &byte in data {
                a = (a + u32::from(byte)) % 65_521;
                b = (b + a) % 65_521;
            }
            b << 16 | a
        }

        fn samples_from_image(image: &Image) -> Vec<u8> {
            let (c, h, w) = (image.channels(), image.height(), image.width());
            let mut samples = Vec::with_capacity(c * h * w);
            for y in 0..h {
                for x in 0..w {
                    for ci in 0..c {
                        samples.push(quantize(image.pixel(ci, y, x)));
                    }
                }
            }
            samples
        }

        pub fn encode_ppm(image: &Image) -> Vec<u8> {
            let (h, w) = (image.height(), image.width());
            let mut out = format!("P6\n{w} {h}\n255\n").into_bytes();
            out.extend_from_slice(&samples_from_image(image));
            out
        }

        pub fn encode_png(image: &Image) -> Vec<u8> {
            let (h, w, channels) = (image.height(), image.width(), image.channels());
            let colour = if channels == 3 { 2u8 } else { 0u8 };
            let samples = samples_from_image(image);
            let stride = w * channels;
            let mut raw = Vec::with_capacity(h * (stride + 1));
            for y in 0..h {
                raw.push(0u8);
                raw.extend_from_slice(&samples[y * stride..(y + 1) * stride]);
            }
            let mut out = Vec::with_capacity(raw.len() + 128);
            out.extend_from_slice(&PNG_SIG);
            let mut ihdr = Vec::with_capacity(13);
            ihdr.extend_from_slice(&(w as u32).to_be_bytes());
            ihdr.extend_from_slice(&(h as u32).to_be_bytes());
            ihdr.extend_from_slice(&[8, colour, 0, 0, 0]);
            push_chunk(&mut out, b"IHDR", &ihdr);
            push_chunk(&mut out, b"IDAT", &zlib_deflate_stored(&raw));
            push_chunk(&mut out, b"IEND", &[]);
            out
        }

        fn push_chunk(out: &mut Vec<u8>, ctype: &[u8; 4], data: &[u8]) {
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(ctype);
            out.extend_from_slice(data);
            let mut crc_input = Vec::with_capacity(4 + data.len());
            crc_input.extend_from_slice(ctype);
            crc_input.extend_from_slice(data);
            out.extend_from_slice(&crc32(&crc_input).to_be_bytes());
        }

        fn zlib_deflate_stored(raw: &[u8]) -> Vec<u8> {
            let mut out = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
            out.extend_from_slice(&[0x78, 0x01]);
            let mut chunks = raw.chunks(65_535).peekable();
            if raw.is_empty() {
                out.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
            }
            while let Some(chunk) = chunks.next() {
                out.push(u8::from(chunks.peek().is_none()));
                let len = chunk.len() as u16;
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(!len).to_le_bytes());
                out.extend_from_slice(chunk);
            }
            out.extend_from_slice(&adler32(raw).to_be_bytes());
            out
        }
    }

    /// Every `v` whose `v · 255` is an exact `k + 0.5` tie in `f32`
    /// (where `round` goes away from zero).
    fn exact_ties() -> Vec<f32> {
        (0..255u8)
            .flat_map(|k| {
                let centre = (f32::from(k) + 0.5) / 255.0;
                (-2i32..=2)
                    .map(move |d| f32::from_bits(centre.to_bits().wrapping_add_signed(d)))
                    .filter(move |&v| v * 255.0 == f32::from(k) + 0.5)
            })
            .collect()
    }

    /// For each `k`, the largest `v` whose `v · 255` falls short of
    /// `k + 0.5` (where adding 0.5 and truncating can round up: at
    /// `k = 0` that product is 0.49999997).
    fn below_ties() -> Vec<f32> {
        (0..255u8)
            .filter_map(|k| {
                let centre = (f32::from(k) + 0.5) / 255.0;
                (-4i32..=4)
                    .map(|d| f32::from_bits(centre.to_bits().wrapping_add_signed(d)))
                    .rfind(|&v| v * 255.0 < f32::from(k) + 0.5)
            })
            .collect()
    }

    /// Values chosen to stress quantization: every third sample walks
    /// the specials (below 0, above 1, −0.0, NaN, infinities, the exact
    /// ties and the values just below them) in turn, the rest are
    /// seeded values in `[-0.1, 1.15)`.
    fn hostile_image(channels: usize, h: usize, w: usize, seed: u64) -> Image {
        let mut specials = vec![-0.5, -1e-7, -0.0, 0.0, 1.0, 1.0 + 1e-6, 7.5];
        specials.extend([f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        specials.extend(exact_ties());
        specials.extend(below_ties());
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..channels * h * w)
            .map(|i| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if i % 3 == 0 {
                    specials[i / 3 % specials.len()]
                } else {
                    ((state >> 33) % 10_000) as f32 / 8_000.0 - 0.1
                }
            })
            .collect();
        Image::from_tensor(Tensor::from_vec(data, &[channels, h, w]).unwrap()).unwrap()
    }

    /// Hand mutants of the encoder, all killed here: BFINAL off on an
    /// exactly full last block; Adler-32 over the first block header
    /// too; R and B swapped; later blocks moved one byte too far;
    /// blocks moved first to last; LEN not capped at 65,535; quantize
    /// rounding ties to even (`x - even > 0.5`); quantize as `+ 0.5`
    /// then truncate (wrong where `v · 255` is 0.49999997); one
    /// slicing table built wrong (`CRC_TABLES[9]` shifted one step
    /// short).
    #[test]
    fn encoders_are_byte_identical_to_the_per_pixel_reference() {
        assert!(exact_ties().len() > 100, "too few exact ties: {}", exact_ties().len());
        // 151×151 RGB is 68,554 raw bytes: the stream crosses the
        // 65,535-byte stored-block boundary mid-row. 255×256 grey fills
        // exactly one block, and one 1×30,000 RGB row spans two.
        let shapes = [(1, 1), (1, 37), (37, 1), (32, 32), (80, 80), (151, 151), (255, 256), (1, 30_000)];
        for (h, w) in shapes {
            for channels in [1, 3] {
                let img = hostile_image(channels, h, w, (h * 1000 + w * 10 + channels) as u64);
                assert_eq!(
                    encode_png(&img).unwrap(),
                    reference::encode_png(&img),
                    "PNG {channels}x{h}x{w}"
                );
                if channels == 3 {
                    let ppm = encode_ppm(&img).unwrap();
                    assert_eq!(ppm, reference::encode_ppm(&img), "PPM {h}x{w}");
                }
            }
        }
    }

    #[test]
    fn codec_error_display_is_exhaustive() {
        let cases: Vec<(CodecError, &str)> = vec![
            (CodecError::UnknownFormat { found: vec![1, 2] }, "not a known wire image format"),
            (
                CodecError::BadMagic { format: WireFormat::Png, found: vec![3] },
                "not a PNG payload",
            ),
            (CodecError::Truncated { offset: 4, needed: 8, len: 6 }, "needed 8 byte(s) at offset 4"),
            (CodecError::Malformed { offset: 9, what: "bad filter".into() }, "offset 9: bad filter"),
            (CodecError::DimensionLimit { width: 70_000, height: 2 }, "70000x2"),
            (
                CodecError::CrcMismatch { what: "PNG chunk IDAT".into(), stored: 1, computed: 2 },
                "PNG chunk IDAT checksum mismatch",
            ),
            (CodecError::Unsupported { what: "interlace".into() }, "unsupported image feature: interlace"),
            (CodecError::Unencodable { what: "greyscale".into() }, "cannot encode image: greyscale"),
            (CodecError::TrailingBytes { consumed: 5, len: 7 }, "2 trailing byte(s)"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{err:?} renders {text:?}, wanted {needle:?}");
            let dyn_err: &dyn std::error::Error = &err;
            assert!(dyn_err.source().is_none(), "{err:?} is a leaf error");
        }
    }
}
