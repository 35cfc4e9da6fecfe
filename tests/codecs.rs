//! Wire-codec suite: PPM/PNG round trips on random images and a hostile
//! negative sweep, mirroring the `tests/serialize.rs` treatment of the
//! on-disk format — every malformed payload is a typed [`CodecError`],
//! never a panic, and truncation at *every* byte offset is caught.

use scales::data::codec::{decode_image, decode_ppm, encode_image, CodecError};
use scales::data::{Image, WireFormat};
use scales::tensor::Tensor;

/// Random image straight from tensor data — unlike the scene
/// synthesizer, this works down to 1×1 and is already in [0, 1].
fn probe(h: usize, w: usize, seed: u64) -> Image {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32
    };
    let data: Vec<f32> = (0..3 * h * w).map(|_| next()).collect();
    Image::from_tensor(Tensor::from_vec(data, &[3, h, w]).unwrap()).unwrap()
}

/// Push an image through encode→decode once, yielding its quantized
/// (8-bit exact) representative.
fn quantized(image: &Image, format: WireFormat) -> Image {
    let (decoded, got) = decode_image(&encode_image(image, format).unwrap()).unwrap();
    assert_eq!(got, format);
    decoded
}

fn assert_bit_identical(a: &Image, b: &Image, label: &str) {
    assert_eq!(a.tensor().shape(), b.tensor().shape(), "{label}: shape");
    for (i, (x, y)) in a.tensor().data().iter().zip(b.tensor().data().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{label}: value {i} differs: {x} vs {y}");
    }
}

/// Once quantized, both codecs are exact: decode(encode(q)) == q bitwise
/// and re-encoding is byte-identical, across odd sizes down to 1×1.
#[test]
fn round_trips_are_bit_exact_on_random_images() {
    for (i, (h, w)) in [(1usize, 1usize), (2, 3), (8, 8), (5, 17), (31, 9)].iter().enumerate() {
        let image = probe(*h, *w, 100 + i as u64);
        for format in [WireFormat::Ppm, WireFormat::Png] {
            let q = quantized(&image, format);
            let bytes = encode_image(&q, format).unwrap();
            let (again, _) = decode_image(&bytes).unwrap();
            assert_bit_identical(&q, &again, &format!("{format} {h}x{w}"));
            assert_eq!(
                bytes,
                encode_image(&again, format).unwrap(),
                "{format} {h}x{w}: re-encode must be byte-identical"
            );
        }
    }
}

#[test]
fn greyscale_images_round_trip_as_png_and_refuse_ppm() {
    let rgb = probe(6, 7, 9);
    let grey = Image::from_tensor(rgb.to_luma()).unwrap();
    let q = quantized(&grey, WireFormat::Png);
    assert_eq!(q.channels(), 1);
    let bytes = encode_image(&q, WireFormat::Png).unwrap();
    let (again, _) = decode_image(&bytes).unwrap();
    assert_bit_identical(&q, &again, "greyscale png");
    // P6 is RGB by definition: a typed refusal, not a silent channel mangle.
    assert!(matches!(
        encode_image(&q, WireFormat::Ppm).unwrap_err(),
        CodecError::Unencodable { .. }
    ));
}

/// Truncation at every byte offset of a valid payload is a typed error —
/// partial reads are never accepted (`tests/serialize.rs` house rule).
#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let image = probe(4, 5, 42);
    for format in [WireFormat::Ppm, WireFormat::Png] {
        let bytes = encode_image(&image, format).unwrap();
        for len in 0..bytes.len() {
            assert!(
                decode_image(&bytes[..len]).is_err(),
                "{format}: {len}-byte prefix of {} must not decode",
                bytes.len()
            );
        }
    }
}

/// Flipping any single byte of a PNG payload never panics, and never
/// yields a silently different image: chunk CRCs (and the signature
/// check, and the zlib Adler-32) catch the corruption.
#[test]
fn png_single_byte_flips_never_corrupt_silently() {
    let image = probe(4, 4, 7);
    let bytes = encode_image(&image, WireFormat::Png).unwrap();
    let (clean, _) = decode_image(&bytes).unwrap();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        if let Ok((decoded, _)) = decode_image(&corrupt) {
            // A flip that still decodes must decode to the same pixels
            // (not reachable with full CRC coverage, but the contract is
            // "no silent corruption", so state it as such).
            assert_bit_identical(&clean, &decoded, &format!("flip at byte {i}"));
        }
    }
}

#[test]
fn hostile_ppm_headers_are_typed_errors() {
    let cases: [(&[u8], &str); 7] = [
        (b"P5\n2 2\n255\n\0\0\0\0", "P5 is not P6"),
        (b"P6\n2\n255\n", "missing height"),
        (b"P6\n2 2\n65535\n", "16-bit maxval"),
        (b"P6\n-2 2\n255\n", "negative width"),
        (b"P6\n99999999999 1\n255\n", "overflowing width"),
        (b"P6\n40000 40000\n255\n\0", "beyond the dimension caps"),
        (b"P6\n2 2\n255\n\0\0\0\0\0\0\0\0\0\0\0\0junk", "trailing bytes"),
    ];
    for (bytes, label) in cases {
        assert!(decode_ppm(bytes).is_err(), "{label} must be rejected");
    }
    // Comments in headers are legal PPM, though — not hostile.
    let ok = b"P6\n# a comment\n1 1\n255\n\x01\x02\x03";
    let image = decode_ppm(ok).expect("commented header decodes");
    assert_eq!((image.height(), image.width()), (1, 1));
}

/// The dispatching decoder tells the two containers apart and refuses
/// everything else with a typed unknown-format error.
#[test]
fn sniffing_dispatch_and_unknown_formats() {
    let image = probe(3, 3, 1);
    for format in [WireFormat::Ppm, WireFormat::Png] {
        let (_, got) = decode_image(&encode_image(&image, format).unwrap()).unwrap();
        assert_eq!(got, format);
    }
    for junk in [&b""[..], b"GIF89a", b"\xff\xd8\xff\xe0 jpeg", b"BM bitmap"] {
        assert!(matches!(
            decode_image(junk).unwrap_err(),
            CodecError::UnknownFormat { .. }
        ));
    }
}

/// A tensor that was never quantized still encodes deterministically:
/// values clamp to [0, 1] and round to 8 bits, so out-of-range inputs
/// cannot produce out-of-range wire bytes.
#[test]
fn encoding_clamps_out_of_range_values() {
    let tensor = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3, 1, 1]).unwrap();
    let image = Image::from_tensor(tensor).unwrap();
    let bytes = encode_image(&image, WireFormat::Ppm).unwrap();
    let (decoded, _) = decode_image(&bytes).unwrap();
    let data = decoded.tensor().data();
    assert_eq!(data[0], 0.0, "negative clamps to 0");
    assert_eq!(data[2], 1.0, "overrange clamps to 1");
    assert!((data[1] - 0.5).abs() < 1.0 / 255.0);
}

// ---------------------------------------------------------------------------
// Generated PNG streams: every scanline filter, as the spec defines them
// ---------------------------------------------------------------------------

/// CRC-32 a bit at a time, straight from the polynomial.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 == 1 { 0xedb8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

fn adler32(data: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    for &byte in data {
        a = (a + u32::from(byte)) % 65_521;
        b = (b + a) % 65_521;
    }
    b << 16 | a
}

/// The Paeth predictor, PNG spec §9.4.
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let p = i16::from(a) + i16::from(b) - i16::from(c);
    let (pa, pb, pc) = ((p - i16::from(a)).abs(), (p - i16::from(b)).abs(), (p - i16::from(c)).abs());
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// A PNG of interleaved 8-bit `samples` whose row `y` is filtered with
/// `filters[y]` (PNG spec §9.2: each byte minus its predictor from the
/// unfiltered left `a`, up `b` and up-left `c`, zero off the image), in
/// one IDAT of stored deflate blocks. A filter byte outside 0–4 is
/// written as is over unfiltered samples.
fn filtered_png(samples: &[u8], channels: usize, h: usize, w: usize, filters: &[u8]) -> Vec<u8> {
    let stride = w * channels;
    let mut raw = Vec::with_capacity(h * (stride + 1));
    for (y, &filter) in filters.iter().enumerate().take(h) {
        raw.push(filter);
        let at = |yy: usize, i: usize| samples[yy * stride + i];
        for i in 0..stride {
            let a = if i >= channels { at(y, i - channels) } else { 0 };
            let b = if y > 0 { at(y - 1, i) } else { 0 };
            let c = if y > 0 && i >= channels { at(y - 1, i - channels) } else { 0 };
            let predictor = match filter {
                1 => a,
                2 => b,
                3 => ((u16::from(a) + u16::from(b)) / 2) as u8,
                4 => paeth(a, b, c),
                _ => 0,
            };
            raw.push(at(y, i).wrapping_sub(predictor));
        }
    }
    let mut zlib = vec![0x78, 0x01];
    let blocks: Vec<&[u8]> = raw.chunks(65_535).collect();
    for (k, block) in blocks.iter().enumerate() {
        let len = block.len() as u16;
        zlib.push(u8::from(k + 1 == blocks.len()));
        zlib.extend_from_slice(&len.to_le_bytes());
        zlib.extend_from_slice(&(!len).to_le_bytes());
        zlib.extend_from_slice(block);
    }
    zlib.extend_from_slice(&adler32(&raw).to_be_bytes());

    let mut png = vec![0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];
    let mut ihdr = Vec::new();
    ihdr.extend_from_slice(&(w as u32).to_be_bytes());
    ihdr.extend_from_slice(&(h as u32).to_be_bytes());
    ihdr.extend_from_slice(&[8, if channels == 3 { 2 } else { 0 }, 0, 0, 0]);
    for (ctype, data) in [(b"IHDR", &ihdr[..]), (b"IDAT", &zlib[..]), (b"IEND", &[][..])] {
        png.extend_from_slice(&(data.len() as u32).to_be_bytes());
        let crc_at = png.len();
        png.extend_from_slice(ctype);
        png.extend_from_slice(data);
        let crc = crc32(&png[crc_at..]);
        png.extend_from_slice(&crc.to_be_bytes());
    }
    png
}

/// Seeded xorshift bytes.
fn bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Decoding undoes every scanline filter: a seeded filter per row (so
/// row 0, and each row's first pixel, meet every filter), grey and RGB,
/// widths 1–17 by heights 1–9 plus 40×40 and 80×80, each decoded image
/// checked by `to_bits` against its source samples. Hand mutants of
/// the decoder's `unfilter`, all killed here: Average on row 0 left
/// undone; Paeth's first pixel not given the byte above; Up on row 0
/// adding 1; Sub reaching back one byte instead of one pixel.
#[test]
fn decoding_undoes_all_five_scanline_filters() {
    let shapes = (1..=9).flat_map(|h| (1..=17).map(move |w| (h, w))).chain([(40, 40), (80, 80)]);
    let mut seen = [0usize; 5];
    for (case, (h, w)) in shapes.enumerate() {
        for channels in [1, 3] {
            let seed = (case * 2 + channels) as u64;
            let samples = bytes(channels * h * w, seed);
            let filters: Vec<u8> = bytes(h, seed + 1_000).iter().map(|b| b % 5).collect();
            for &f in &filters {
                seen[usize::from(f)] += 1;
            }
            let png = filtered_png(&samples, channels, h, w, &filters);
            let (image, _) = decode_image(&png).unwrap_or_else(|e| panic!("{channels}x{h}x{w}: {e}"));
            assert_eq!(image.tensor().shape(), &[channels, h, w]);
            let data = image.tensor().data();
            for (i, &s) in samples.iter().enumerate() {
                let (px, c) = (i / channels, i % channels);
                let got = data[c * h * w + px];
                let want = f32::from(s) / 255.0;
                assert_eq!(got.to_bits(), want.to_bits(), "{channels}x{h}x{w} filters {filters:?}: sample {i}");
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 100), "every filter is exercised: {seen:?}");
}

/// A scanline filter byte beyond 4 is a typed `Malformed` error, on the
/// first row and on a later one.
#[test]
fn an_unknown_scanline_filter_is_malformed() {
    for filters in [[5, 0, 0], [0, 2, 5]] {
        let png = filtered_png(&bytes(3 * 3 * 4, 5), 3, 3, 4, &filters);
        let err = decode_image(&png).unwrap_err();
        assert!(matches!(err, CodecError::Malformed { .. }), "{filters:?}: {err}");
        assert!(err.to_string().contains("filter 5"), "{err}");
    }
}

// ---------------------------------------------------------------------------
// Quantization, both ways
// ---------------------------------------------------------------------------

/// The wire quantization as the protocol states it.
fn reference_quantize(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Encode `values` (zero-padded to whole pixels) as a one-row RGB PPM
/// and compare each sample with the reference rule; returns how many
/// were checked.
fn check_quantize(values: &[f32]) -> usize {
    let n = values.len().div_ceil(3);
    let mut planes = values.to_vec();
    planes.resize(3 * n, 0.0);
    let image = Image::from_tensor(Tensor::from_vec(planes, &[3, 1, n]).unwrap()).unwrap();
    let ppm = encode_image(&image, WireFormat::Ppm).unwrap();
    let samples = &ppm[ppm.len() - 3 * n..];
    for (i, &v) in values.iter().enumerate() {
        let got = samples[i % n * 3 + i / n];
        assert_eq!(got, reference_quantize(v), "quantize({v:e}) (bits {:#010x})", v.to_bits());
    }
    values.len()
}

/// Encoding quantizes every `f32` as `round(clamp(v, 0, 1) × 255)`
/// does. Optimised, all 2³² bit patterns, split across up to four
/// threads. Unoptimised (the tier-1 leg), every pattern within ±64
/// ulps of each `k + 0.5` tie, ±0, the subnormal ends, ±inf, NaN
/// payloads and every 65,521st pattern of the rest. Hand mutants of
/// `quantize`, killed by both legs: ties rounded to even; `+ 0.5` then
/// truncate (wrong where `v · 255` is 0.49999997); NaN not mapped to 0
/// (`clamp` in place of `max` / `min`, then the bit cast).
#[test]
fn quantize_matches_the_rounding_rule_for_every_f32() {
    const CHUNK: u64 = 3 * 16_384;
    let checked = if cfg!(debug_assertions) {
        let mut values: Vec<f32> = (0..255u8)
            .flat_map(|k| {
                let centre = ((f32::from(k) + 0.5) / 255.0).to_bits();
                (-64i32..=64).map(move |d| f32::from_bits(centre.wrapping_add_signed(d)))
            })
            .collect();
        values.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1.0, 255.0]);
        for sign in [0, 0x8000_0000u32] {
            values.extend((1..64).chain(0x007f_ffc0..0x0080_0000).map(|b| f32::from_bits(sign | b)));
            values.extend([1, 0x0040_0000, 0x007f_ffff, 0x1234].map(|p| f32::from_bits(sign | 0x7f80_0000 | p)));
        }
        values.extend((0..=u32::MAX).step_by(65_521).map(f32::from_bits));
        values.chunks(CHUNK as usize).map(check_quantize).sum::<usize>()
    } else {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4) as u64;
        let chunks = (1u64 << 32).div_ceil(CHUNK);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        (t..chunks)
                            .step_by(threads as usize)
                            .map(|chunk| {
                                let end = ((chunk + 1) * CHUNK).min(1 << 32);
                                let values: Vec<f32> = (chunk * CHUNK..end).map(|b| f32::from_bits(b as u32)).collect();
                                check_quantize(&values)
                            })
                            .sum::<usize>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    };
    let want = if cfg!(debug_assertions) { 98_000 } else { 1 << 32 };
    assert!(checked as u64 >= want, "checked {checked} patterns");
}

/// Decoding maps every byte to exactly `f32::from(v) / 255.0`, through
/// the grey PNG and the RGB PPM paths alike.
#[test]
fn dequantize_matches_the_division_for_every_byte() {
    let all: Vec<u8> = (0..=255).collect();
    let png = filtered_png(&all, 1, 1, 256, &[0]);
    let (grey, _) = decode_image(&png).unwrap();
    let mut ppm = b"P6\n256 1\n255\n".to_vec();
    ppm.extend((0..3 * 256).map(|i| (i / 3) as u8));
    let (rgb, _) = decode_image(&ppm).unwrap();
    for v in 0..=255u8 {
        let want = (f32::from(v) / 255.0).to_bits();
        assert_eq!(grey.tensor().data()[usize::from(v)].to_bits(), want, "grey {v}");
        for c in 0..3 {
            assert_eq!(rgb.tensor().data()[c * 256 + usize::from(v)].to_bits(), want, "rgb {v} channel {c}");
        }
    }
}
