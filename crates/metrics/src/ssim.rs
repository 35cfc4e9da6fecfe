//! SSIM (Wang et al. 2004) on the Y channel with the standard 11×11
//! Gaussian window, σ = 1.5, K1 = 0.01, K2 = 0.03.

use scales_data::Image;
use scales_tensor::{Result, Tensor, TensorError};

const WINDOW: usize = 11;
const SIGMA: f64 = 1.5;
const K1: f64 = 0.01;
const K2: f64 = 0.03;

fn gaussian_window() -> Vec<f64> {
    let c = (WINDOW / 2) as f64;
    let mut w = Vec::with_capacity(WINDOW * WINDOW);
    for y in 0..WINDOW {
        for x in 0..WINDOW {
            let dy = y as f64 - c;
            let dx = x as f64 - c;
            w.push((-(dx * dx + dy * dy) / (2.0 * SIGMA * SIGMA)).exp());
        }
    }
    let s: f64 = w.iter().sum();
    for v in &mut w {
        *v /= s;
    }
    w
}

/// Mean SSIM between two single-channel `[1, H, W]` tensors in `[0, 1]`,
/// evaluated at every valid (fully-interior) window position.
///
/// # Errors
///
/// Returns an error when shapes differ or the image is smaller than the
/// 11×11 window.
pub fn ssim_tensor(a: &Tensor, b: &Tensor) -> Result<f64> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
            op: "ssim",
        });
    }
    if a.rank() != 3 || a.shape()[0] != 1 {
        return Err(TensorError::InvalidArgument("ssim expects [1, H, W] luma tensors".into()));
    }
    let (h, w) = (a.shape()[1], a.shape()[2]);
    if h < WINDOW || w < WINDOW {
        return Err(TensorError::InvalidArgument(format!(
            "image {h}x{w} smaller than the {WINDOW}x{WINDOW} ssim window"
        )));
    }
    let win = gaussian_window();
    let c1 = (K1 * 1.0) * (K1 * 1.0);
    let c2 = (K2 * 1.0) * (K2 * 1.0);
    let (da, db) = (a.data(), b.data());
    let mut total = 0.0;
    let mut count = 0usize;
    for y0 in 0..=(h - WINDOW) {
        for x0 in 0..=(w - WINDOW) {
            let mut mu_a = 0.0f64;
            let mut mu_b = 0.0f64;
            let mut aa = 0.0f64;
            let mut bb = 0.0f64;
            let mut ab = 0.0f64;
            // Window row `wy` is `WINDOW` contiguous samples of image row
            // `y0 + wy`, walked left to right: the taps in row-major order.
            for (wy, taps) in win.chunks_exact(WINDOW).enumerate() {
                let row = (y0 + wy) * w + x0..(y0 + wy) * w + x0 + WINDOW;
                for ((&g, &va), &vb) in taps.iter().zip(&da[row.clone()]).zip(&db[row]) {
                    let (va, vb) = (f64::from(va), f64::from(vb));
                    mu_a += g * va;
                    mu_b += g * vb;
                    aa += g * va * va;
                    bb += g * vb * vb;
                    ab += g * va * vb;
                }
            }
            let var_a = aa - mu_a * mu_a;
            let var_b = bb - mu_b * mu_b;
            let cov = ab - mu_a * mu_b;
            let s = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2));
            total += s;
            count += 1;
        }
    }
    Ok(total / count as f64)
}

/// SR-protocol SSIM: Y channel with `shave` border pixels removed.
///
/// # Errors
///
/// Returns an error for mismatched sizes or images smaller than the window
/// after shaving.
pub fn ssim_y(sr: &Image, hr: &Image, shave: usize) -> Result<f64> {
    if sr.height() != hr.height() || sr.width() != hr.width() {
        return Err(TensorError::ShapeMismatch {
            lhs: sr.tensor().shape().to_vec(),
            rhs: hr.tensor().shape().to_vec(),
            op: "ssim_y",
        });
    }
    let ya = sr.clamped().to_luma();
    let yb = hr.clamped().to_luma();
    let h = sr.height().saturating_sub(2 * shave);
    let w = sr.width().saturating_sub(2 * shave);
    if h == 0 || w == 0 {
        return Err(TensorError::InvalidArgument("shave removes the whole image".into()));
    }
    let ca = ya.slice_axis(1, shave, h)?.slice_axis(2, shave, w)?;
    let cb = yb.slice_axis(1, shave, h)?.slice_axis(2, shave, w)?;
    ssim_tensor(&ca, &cb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(h: usize, w: usize, f: f32) -> Tensor {
        let mut t = Tensor::zeros(&[1, h, w]);
        for y in 0..h {
            for x in 0..w {
                *t.at_mut(&[0, y, x]) = 0.5 + 0.4 * ((x as f32 * f).sin() * (y as f32 * f).cos());
            }
        }
        t
    }

    /// The mean SSIM as a per-element loop: every tap read through
    /// `Tensor::at`, each sum in window row-major order. The reference the
    /// row walk of [`ssim_tensor`] must match exactly.
    fn ssim_per_element(a: &Tensor, b: &Tensor) -> f64 {
        let (h, w) = (a.shape()[1], a.shape()[2]);
        let win = gaussian_window();
        let (c1, c2) = ((K1 * 1.0) * (K1 * 1.0), (K2 * 1.0) * (K2 * 1.0));
        let (mut total, mut count) = (0.0, 0usize);
        for y0 in 0..=(h - WINDOW) {
            for x0 in 0..=(w - WINDOW) {
                let (mut mu_a, mut mu_b, mut aa, mut bb, mut ab) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for wy in 0..WINDOW {
                    for wx in 0..WINDOW {
                        let g = win[wy * WINDOW + wx];
                        let va = f64::from(a.at(&[0, y0 + wy, x0 + wx]));
                        let vb = f64::from(b.at(&[0, y0 + wy, x0 + wx]));
                        mu_a += g * va;
                        mu_b += g * vb;
                        aa += g * va * va;
                        bb += g * vb * vb;
                        ab += g * va * vb;
                    }
                }
                let (var_a, var_b, cov) = (aa - mu_a * mu_a, bb - mu_b * mu_b, ab - mu_a * mu_b);
                total += ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
                    / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2));
                count += 1;
            }
        }
        total / count as f64
    }

    /// A textured `[1, h, w]` image in `[0, 1]`: a seeded sinusoid plus
    /// seeded noise (SplitMix64), so neighbouring windows differ.
    fn seeded_texture(h: usize, w: usize, seed: u64) -> Tensor {
        let mut state = seed;
        let mut noise = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
        };
        let f = 0.3 + (seed % 7) as f32 * 0.11;
        let data = (0..h * w)
            .map(|i| {
                let (y, x) = ((i / w) as f32, (i % w) as f32);
                (0.5 + 0.3 * (x * f).sin() * (y * f * 0.7).cos() + 0.2 * (noise() - 0.5)).clamp(0.0, 1.0)
            })
            .collect();
        Tensor::from_vec(data, &[1, h, w]).unwrap()
    }

    /// Kills a row walked right to left (tried by hand): the f64 sums'
    /// order is part of the result.
    #[test]
    fn the_row_walk_equals_the_per_element_loop_exactly() {
        let sizes = [(11usize, 11usize), (11, 30), (17, 12), (23, 31), (40, 40), (64, 48)];
        for (seed, (h, w)) in (0u64..).zip(sizes) {
            let a = seeded_texture(h, w, 2 * seed + 1);
            let b = seeded_texture(h, w, 2 * seed + 2);
            for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                let (got, want) = (ssim_tensor(x, y).unwrap(), ssim_per_element(x, y));
                assert_eq!(got.to_bits(), want.to_bits(), "{h}x{w} seed {seed}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn identical_images_score_one() {
        let t = textured(16, 16, 0.7);
        let s = ssim_tensor(&t, &t).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn noise_lowers_ssim() {
        let a = textured(16, 16, 0.7);
        let b = a.map(|v| (v + 0.15 * (v * 91.0).sin()).clamp(0.0, 1.0));
        let s = ssim_tensor(&a, &b).unwrap();
        assert!(s < 0.99 && s > 0.0, "{s}");
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = textured(16, 16, 0.7);
        let b = textured(16, 16, 0.9);
        let s1 = ssim_tensor(&a, &b).unwrap();
        let s2 = ssim_tensor(&b, &a).unwrap();
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn small_images_rejected() {
        let t = Tensor::zeros(&[1, 8, 8]);
        assert!(ssim_tensor(&t, &t).is_err());
    }

    #[test]
    fn structural_distortion_hurts_more_than_brightness() {
        let a = textured(20, 20, 0.8);
        // Constant brightness offset keeps structure.
        let bright = a.map(|v| (v + 0.03).clamp(0.0, 1.0));
        // Same MSE budget spent destroying structure (shuffle phase).
        let distorted = {
            let mut t = a.clone();
            for y in 0..20 {
                for x in 0..20 {
                    let v = 0.5 + 0.4 * ((x as f32 * 2.3).cos() * (y as f32 * 1.9).sin());
                    *t.at_mut(&[0, y, x]) = 0.7 * t.at(&[0, y, x]) + 0.3 * v;
                }
            }
            t
        };
        let s_b = ssim_tensor(&a, &bright).unwrap();
        let s_d = ssim_tensor(&a, &distorted).unwrap();
        assert!(s_b > s_d, "{s_b} vs {s_d}");
    }
}
