//! Seed → traffic: the images a run sends, the fixed request cycle, and the
//! checksums the correctness oracle compares.
//!
//! Every workload sends requests in a fixed cycle of five — four *light*
//! images and one *heavy* — so the latency population is 80 % / 20 % by
//! construction: p50 sits inside the light class and p90 in the middle of
//! the heavy class, both set by the program and not by which percentile a
//! neighbour's burst happens to land on.

use scales_data::Image;
use scales_io::Fnv1a;

/// Requests per cycle.
pub const CYCLE: usize = 5;
/// Position of the heavy request in the cycle.
pub const HEAVY_SLOT: usize = 4;

/// SplitMix64: the benchmark's only random source beyond the scene
/// generator, so a schedule is a pure function of the seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
pub fn unit_f32(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32
}

/// The five images of one generator's cycle: index `HEAVY_SLOT` is the
/// heavy one, the rest are distinct light images in a seed-derived order.
pub struct CycleImages {
    pub images: Vec<Image>,
}

impl CycleImages {
    /// Images for generator `stream` of a run seeded `seed`.
    pub fn new(seed: u64, stream: u64, light: usize, heavy: usize) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xa24b_aed4_963e_e407);
        let mut images: Vec<Image> = (0..CYCLE)
            .map(|slot| {
                let side = if slot == HEAVY_SLOT { heavy } else { light };
                scene(side, splitmix(&mut state))
            })
            .collect();
        // Seed-derived order of the light slots (Fisher-Yates); the heavy
        // slot stays put so every cycle has the same shape sequence.
        for i in (1..HEAVY_SLOT).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            images.swap(i, j);
        }
        Self { images }
    }
}

/// One synthetic square RGB scene.
pub fn scene(side: usize, seed: u64) -> Image {
    scales_data::synth::scene(
        side,
        side,
        scales_data::synth::SceneConfig::default(),
        &mut scales_nn::init::rng(seed),
    )
}

/// FNV-1a over an image's shape and the exact bit pattern of every value.
/// The house contract is `f32::to_bits` identity across executors,
/// batching, workers and routing, so equality here is exact, not a
/// tolerance.
pub fn checksum(image: &Image) -> u64 {
    let mut h = Fnv1a::new();
    for &extent in image.tensor().shape() {
        h.write_u64(extent as u64);
    }
    for v in image.tensor().data() {
        h.write_u64(u64::from(v.to_bits()));
    }
    h.finish()
}

/// The 8-bit wire quantisation (`round(clamp(v, 0, 1) * 255) / 255`)
/// applied to a reference output, computed here rather than through the
/// program's encoder so the oracle does not inherit a codec bug.
pub fn quantised(image: &Image) -> Image {
    let mut out = image.clone();
    for v in out.tensor_mut().data_mut() {
        *v = (v.clamp(0.0, 1.0) * 255.0).round() / 255.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(c: &CycleImages) -> Vec<u8> {
        c.images
            .iter()
            .flat_map(|i| scales_data::encode_image(i, scales_data::WireFormat::Png).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_request_bytes_different_seed_different() {
        let a = CycleImages::new(7, 0, 16, 40);
        let b = CycleImages::new(7, 0, 16, 40);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&CycleImages::new(8, 0, 16, 40)));
        // Two generators of one run do not send the same images.
        assert_ne!(bytes(&a), bytes(&CycleImages::new(7, 1, 16, 40)));
    }

    #[test]
    fn the_cycle_is_four_light_and_one_heavy_at_a_fixed_slot() {
        for seed in 0..20 {
            let c = CycleImages::new(seed, 0, 16, 40);
            assert_eq!(c.images.len(), CYCLE);
            for (slot, image) in c.images.iter().enumerate() {
                let side = if slot == HEAVY_SLOT { 40 } else { 16 };
                assert_eq!((image.height(), image.width()), (side, side));
            }
        }
    }

    #[test]
    fn checksum_sees_single_bit_and_shape_changes() {
        let a = scene(8, 3);
        let mut b = a.clone();
        let v = b.tensor().data()[5];
        b.tensor_mut().data_mut()[5] = f32::from_bits(v.to_bits() ^ 1);
        assert_ne!(checksum(&a), checksum(&b));
        assert_eq!(checksum(&a), checksum(&a.clone()));
        let flat = Image::from_tensor(a.tensor().reshape(&[3, 4, 16]).unwrap()).unwrap();
        assert_ne!(checksum(&a), checksum(&flat));
    }

    #[test]
    fn quantisation_matches_the_wire_codec_round_trip() {
        let img = scene(8, 5);
        let wire = scales_data::encode_image(&img, scales_data::WireFormat::Png).unwrap();
        let (back, _) = scales_data::decode_image(&wire).unwrap();
        assert_eq!(checksum(&quantised(&img)), checksum(&back));
    }
}
