//! Procedural image synthesis — the reproduction's stand-in for DIV2K and
//! the four SR benchmark sets.
//!
//! Real SR training data is characterised by a mix of smooth shading and
//! high-frequency structure (edges, stripes, textures). The generators here
//! produce exactly those ingredients deterministically from a seed:
//! oriented sinusoidal gratings (the building-facade stripes of Urban100),
//! checkerboards, low-frequency Fourier "cloud" textures, hard-edged
//! geometric primitives, and composites of all of them.

use crate::image::Image;
use rand::rngs::StdRng;
use rand::Rng;
use scales_tensor::Tensor;

/// One procedural primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Oriented sinusoidal grating (stripes).
    Grating,
    /// Checkerboard with random cell size.
    Checker,
    /// Smooth random low-frequency Fourier texture.
    Clouds,
    /// Filled rectangle with hard edges.
    Rectangle,
    /// Filled disc with a hard edge.
    Disc,
    /// Linear shading gradient.
    Gradient,
}

const ALL_PRIMITIVES: [Primitive; 6] = [
    Primitive::Grating,
    Primitive::Checker,
    Primitive::Clouds,
    Primitive::Rectangle,
    Primitive::Disc,
    Primitive::Gradient,
];

fn random_color(rng: &mut StdRng) -> [f32; 3] {
    [rng.gen_range(0.05..0.95), rng.gen_range(0.05..0.95), rng.gen_range(0.05..0.95)]
}

/// Render one primitive over the whole canvas, returning per-pixel
/// intensity in `[0, 1]` (colour applied by the caller).
fn render_field(p: Primitive, h: usize, w: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut field = vec![0.0f32; h * w];
    match p {
        Primitive::Grating => {
            let freq = rng.gen_range(0.15..1.2);
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::PI);
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let (s, c) = theta.sin_cos();
            // Square-ish wave mixes hard and soft edges.
            let hardness = rng.gen_range(1.0..6.0);
            for y in 0..h {
                for x in 0..w {
                    let t = (x as f32 * c + y as f32 * s) * freq + phase;
                    let v = (t.sin() * hardness).tanh() * 0.5 + 0.5;
                    field[y * w + x] = v;
                }
            }
        }
        Primitive::Checker => {
            let cell = rng.gen_range(2..=8usize);
            for y in 0..h {
                for x in 0..w {
                    field[y * w + x] = if (x / cell + y / cell) % 2 == 0 { 1.0 } else { 0.0 };
                }
            }
        }
        Primitive::Clouds => {
            // Sum of a few random low-frequency sinusoids.
            let terms: Vec<(f32, f32, f32, f32)> = (0..5)
                .map(|_| {
                    (
                        rng.gen_range(0.02..0.25),
                        rng.gen_range(0.02..0.25),
                        rng.gen_range(0.0..std::f32::consts::TAU),
                        rng.gen_range(0.3..1.0),
                    )
                })
                .collect();
            for y in 0..h {
                for x in 0..w {
                    let mut v = 0.0;
                    let mut norm = 0.0;
                    for &(fx, fy, ph, amp) in &terms {
                        v += amp * (x as f32 * fx + y as f32 * fy + ph).sin();
                        norm += amp;
                    }
                    field[y * w + x] = (v / norm) * 0.5 + 0.5;
                }
            }
        }
        Primitive::Rectangle => {
            let x0 = rng.gen_range(0..w.max(2) / 2);
            let y0 = rng.gen_range(0..h.max(2) / 2);
            // A side of 1 leaves no far edge to draw: the rectangle is
            // that one column (row). Wider sides draw as they always did.
            let x1 = if x0 + 1 < w { rng.gen_range(x0 + 1..w) } else { x0 };
            let y1 = if y0 + 1 < h { rng.gen_range(y0 + 1..h) } else { y0 };
            for y in y0..=y1 {
                for x in x0..=x1 {
                    field[y * w + x] = 1.0;
                }
            }
        }
        Primitive::Disc => {
            let cx = rng.gen_range(0.0..w as f32);
            let cy = rng.gen_range(0.0..h as f32);
            // Below a smaller side of 5 the radius range `2..side/2` is
            // empty: take its upper end. Larger sides draw as they did.
            let r_max = (h.min(w) as f32) / 2.0;
            let r = if r_max > 2.0 { rng.gen_range(2.0..r_max) } else { r_max };
            for y in 0..h {
                for x in 0..w {
                    let d = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)).sqrt();
                    field[y * w + x] = if d <= r { 1.0 } else { 0.0 };
                }
            }
        }
        Primitive::Gradient => {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let (s, c) = theta.sin_cos();
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for y in 0..h {
                for x in 0..w {
                    let t = x as f32 * c + y as f32 * s;
                    lo = lo.min(t);
                    hi = hi.max(t);
                }
            }
            let span = (hi - lo).max(1e-6);
            for y in 0..h {
                for x in 0..w {
                    let t = x as f32 * c + y as f32 * s;
                    field[y * w + x] = (t - lo) / span;
                }
            }
        }
    }
    field
}

/// Generator configuration biasing which primitives appear — used to give
/// each synthetic benchmark set its own character.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Number of layered primitives per image (≥ 1).
    pub layers: usize,
    /// Probability weight of structured primitives (gratings/checkers) vs
    /// smooth ones — `SynUrban100` sets this high.
    pub structure_bias: f32,
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self { layers: 4, structure_bias: 0.5 }
    }
}

/// Synthesize one RGB scene of the given size.
#[must_use]
pub fn scene(h: usize, w: usize, config: SceneConfig, rng: &mut StdRng) -> Image {
    let mut t = Tensor::zeros(&[3, h, w]);
    // Base layer: clouds or gradient as background.
    let base = if rng.gen_bool(0.5) { Primitive::Clouds } else { Primitive::Gradient };
    let bg = render_field(base, h, w, rng);
    let c0 = random_color(rng);
    let c1 = random_color(rng);
    for y in 0..h {
        for x in 0..w {
            let v = bg[y * w + x];
            for ch in 0..3 {
                *t.at_mut(&[ch, y, x]) = c0[ch] * (1.0 - v) + c1[ch] * v;
            }
        }
    }
    for _ in 0..config.layers.max(1) - 1 {
        let p = if rng.gen::<f32>() < config.structure_bias {
            if rng.gen_bool(0.6) {
                Primitive::Grating
            } else {
                Primitive::Checker
            }
        } else {
            ALL_PRIMITIVES[rng.gen_range(0..ALL_PRIMITIVES.len())]
        };
        let field = render_field(p, h, w, rng);
        let color = random_color(rng);
        let opacity = rng.gen_range(0.35..0.95);
        // Restrict non-background primitives to a random window half the
        // time, so scenes have local structure like real photos.
        let (wy0, wy1, wx0, wx1) = if rng.gen_bool(0.5) && h > 4 && w > 4 {
            let y0 = rng.gen_range(0..h / 2);
            let x0 = rng.gen_range(0..w / 2);
            (y0, rng.gen_range(y0 + h / 4..h), x0, rng.gen_range(x0 + w / 4..w))
        } else {
            (0, h, 0, w)
        };
        for y in wy0..wy1 {
            for x in wx0..wx1 {
                let a = field[y * w + x] * opacity;
                for (ch, &col) in color.iter().enumerate() {
                    let old = t.at(&[ch, y, x]);
                    *t.at_mut(&[ch, y, x]) = old * (1.0 - a) + col * a;
                }
            }
        }
    }
    Image::from_tensor(t).expect("rank/channels fixed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        use rand::SeedableRng;
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn scenes_are_deterministic_per_seed() {
        let a = scene(16, 16, SceneConfig::default(), &mut rng(9));
        let b = scene(16, 16, SceneConfig::default(), &mut rng(9));
        assert_eq!(a, b);
        let c = scene(16, 16, SceneConfig::default(), &mut rng(10));
        assert_ne!(a, c);
    }

    #[test]
    fn values_in_unit_range() {
        let img = scene(24, 24, SceneConfig::default(), &mut rng(3));
        assert!(img.tensor().min() >= 0.0 && img.tensor().max() <= 1.0);
    }

    #[test]
    fn scenes_have_high_frequency_content() {
        // Mean absolute horizontal difference should be clearly nonzero —
        // flat images would be useless for SR training.
        let img = scene(32, 32, SceneConfig { layers: 5, structure_bias: 0.9 }, &mut rng(4));
        let t = img.tensor();
        let mut diff = 0.0;
        let mut n = 0;
        for c in 0..3 {
            for y in 0..32 {
                for x in 1..32 {
                    diff += (t.at(&[c, y, x]) - t.at(&[c, y, x - 1])).abs();
                    n += 1;
                }
            }
        }
        assert!(diff / n as f32 > 0.01, "too smooth: {}", diff / n as f32);
    }

    #[test]
    fn every_primitive_renders_in_range() {
        let mut r = rng(5);
        for p in ALL_PRIMITIVES {
            let f = render_field(p, 8, 8, &mut r);
            assert_eq!(f.len(), 64);
            assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)), "{p:?} out of range");
        }
    }

    #[test]
    fn small_scenes_render_without_panicking() {
        for h in 1..=8 {
            for w in 1..=8 {
                for seed in 0..24 {
                    let img = scene(h, w, SceneConfig::default(), &mut rng(seed));
                    let t = img.tensor();
                    assert_eq!(t.shape(), &[3, h, w]);
                    assert!(t.data().iter().all(|v| (0.0..=1.0).contains(v)), "{h}x{w} seed {seed}");
                }
            }
        }
        // Every primitive at every small size, not just the ones a scene
        // happens to draw.
        let mut r = rng(11);
        for p in ALL_PRIMITIVES {
            for (h, w) in [(1, 1), (1, 8), (8, 1), (2, 3), (4, 4)] {
                for _ in 0..16 {
                    let f = render_field(p, h, w, &mut r);
                    assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)), "{p:?} {h}x{w}");
                }
            }
        }
    }

    /// Once both sides are 5 or more the small-side mends take no branch:
    /// the rectangle and the disc make the same draws over the same ranges
    /// as before, so the benchmark's scenes (16–48 px) are unchanged.
    /// Pinned by an FNV-1a hash of both primitives' fields (integer
    /// corners, `sqrt` and squares only: no libm) over sizes and seeds.
    #[test]
    fn rectangles_and_discs_of_five_pixels_and_up_draw_as_before() {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for p in [Primitive::Rectangle, Primitive::Disc] {
            for (h, w) in [(5, 5), (5, 9), (8, 8), (16, 16), (24, 24), (32, 32), (48, 48), (16, 48)] {
                for seed in 0..16 {
                    for v in render_field(p, h, w, &mut rng(seed)) {
                        hash = (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(hash, 0x462b_9e16_31a7_3225);
    }
}
