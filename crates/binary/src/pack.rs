//! Sign bit-packing.
//!
//! A binarized vector over `{−1, +1}` is stored as bits in `u64` words:
//! bit = 1 encodes `+1`, bit = 0 encodes `−1`, with `sign(0) = +1` matching
//! the autograd binarizers. A parallel *mask* records which lanes are valid
//! so the unused tail of the last word contributes exactly 0 to the dot
//! product, keeping the packed kernels bit-exact against the float reference.

/// The one sign rule of every packed kernel in this crate: bit 1 encodes
/// `+1`, bit 0 encodes `−1`, and `sign(0) = +1` (both zeros pack as 1, NaN
/// as 0). Branch-free, so packing cost does not depend on the data.
#[inline(always)]
#[must_use]
pub fn sign_bit(v: f32) -> u64 {
    u64::from(v >= 0.0)
}

/// The sign bits of up to 64 values, value `i` in lane `i`.
#[inline]
fn pack_word(values: &[f32]) -> u64 {
    values.iter().enumerate().fold(0, |word, (i, &v)| word | sign_bit(v) << i)
}

/// A bit-packed sign vector with a validity mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBits {
    bits: Vec<u64>,
    mask: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Number of `u64` words needed for `len` lanes.
    #[must_use]
    pub fn words_for(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// Pack the signs of a float slice; every lane is valid.
    #[must_use]
    pub fn from_signs(values: &[f32]) -> Self {
        let len = values.len();
        let bits = values.chunks(64).map(pack_word).collect();
        let mut mask = vec![u64::MAX; Self::words_for(len)];
        if !len.is_multiple_of(64) {
            mask[len / 64] = (1u64 << (len % 64)) - 1;
        }
        Self { bits, mask, len }
    }

    /// Lane count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed sign words.
    #[must_use]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// The validity mask words.
    #[must_use]
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Unpack back to `±1.0` floats (invalid lanes become `0.0`).
    #[must_use]
    pub fn to_signs(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| {
                let w = i / 64;
                let b = 1u64 << (i % 64);
                if self.mask[w] & b == 0 {
                    0.0
                } else if self.bits[w] & b != 0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    /// XNOR-popcount dot product. Valid lanes where both operands agree
    /// contribute `+1`, disagreements `−1`, invalid lanes (in either
    /// operand) contribute `0`:
    ///
    /// ```text
    /// dot = 2·popcount(¬(a ⊕ b) ∧ m) − popcount(m),   m = mask_a ∧ mask_b
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the operands differ in lane count.
    #[must_use]
    pub fn dot(&self, other: &PackedBits) -> i32 {
        assert_eq!(self.len, other.len, "dot length mismatch");
        let mut agree = 0u32;
        let mut valid = 0u32;
        for ((&a, &b), (&ma, &mb)) in self
            .bits
            .iter()
            .zip(other.bits.iter())
            .zip(self.mask.iter().zip(other.mask.iter()))
        {
            let m = ma & mb;
            agree += crate::count::xnor_word_agree(a, b, m);
            valid += m.count_ones();
        }
        2 * agree as i32 - valid as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_signs() {
        let v = vec![1.5, -0.2, 0.0, -3.0, 0.7];
        let p = PackedBits::from_signs(&v);
        assert_eq!(p.to_signs(), vec![1.0, -1.0, 1.0, -1.0, 1.0]);
    }

    #[test]
    fn dot_matches_float_reference() {
        let a = vec![1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0];
        let b = vec![1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0];
        let pa = PackedBits::from_signs(&a);
        let pb = PackedBits::from_signs(&b);
        let expect: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(pa.dot(&pb), expect as i32);
    }

    #[test]
    fn dot_spans_multiple_words() {
        let n = 200;
        let a: Vec<f32> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let b: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let expect: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(PackedBits::from_signs(&a).dot(&PackedBits::from_signs(&b)), expect as i32);
    }

    #[test]
    fn packing_is_exact_at_word_boundaries_and_on_the_zero_rule() {
        // −0.0 and 0.0 are +1, NaN is −1; lengths straddle the word size.
        for len in [1usize, 63, 64, 65, 128, 130] {
            let v: Vec<f32> = (0..len)
                .map(|i| match i % 5 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f32::NAN,
                    3 => 1.5,
                    _ => -2.5,
                })
                .collect();
            let p = PackedBits::from_signs(&v);
            for i in 0..len {
                let bit = |words: &[u64]| words[i / 64] >> (i % 64) & 1;
                assert_eq!(bit(p.bits()), u64::from(i % 5 < 2 || i % 5 == 3), "len {len} lane {i}");
                assert_eq!(bit(p.mask()), 1);
            }
            // No stray bits above the last lane.
            if len % 64 != 0 {
                assert_eq!(p.bits()[len / 64] >> (len % 64), 0);
                assert_eq!(p.mask()[len / 64] >> (len % 64), 0);
            }
        }
    }

    #[test]
    fn words_for_boundary() {
        assert_eq!(PackedBits::words_for(0), 0);
        assert_eq!(PackedBits::words_for(64), 1);
        assert_eq!(PackedBits::words_for(65), 2);
    }
}
