//! The workspace's one `exp` and one `tanh`: branch-free, libm-free scalar
//! functions every model path calls — `exp` in the SCALES gates' sigmoid,
//! the attention softmax and GELU (`v · σ(2u)`), `tanh` in the tape's
//! `tanh` op — so the training tape, the deployed graph and every ISA
//! level agree bit for bit.
//!
//! Both are straight-line code: each step is a separate IEEE multiply or
//! add (never FMA), range ends are selects rather than branches or
//! `f32::max` / `min` (so NaN passes through), and the only other
//! operations are bit moves. A loop over them auto-vectorises, and a lane
//! computes exactly what the scalar call computes — the per-lane argument
//! [`super::direct`] makes for the float convolution — so recompiling a
//! caller per [`SimdLevel`](crate::SimdLevel) cannot change a bit.
//!
//! Accuracy against an f64 reference rounded to f32, pinned by this
//! module's tests at `exp` ≤ 2 ulp over [−87.3, 88.7] and `tanh` ≤ 4 ulp
//! over [−10, 10]. Measured over every f32 input: both are within 1 ulp
//! everywhere (glibc's `expf` reads 1, its `tanhf` 2). The special values
//! — ±0, ±Inf, NaN, subnormal inputs, `exp`'s overflow and underflow
//! edges, `tanh`'s saturation point — are libm's exactly.

/// `ln 2` split for Cody–Waite reduction: `HI` has few enough significant
/// bits that `n · HI` is exact for every `n` the range admits.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding it rounds to the nearest integer (ties to even) and
/// leaves that integer in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// The largest input whose `e^x` is finite: `ln(f32::MAX)` rounded down.
const EXP_MAX: f32 = 88.722_83;
/// `ln 2⁻¹⁵⁰` rounded up: below it `e^x` is under half the smallest
/// subnormal, i.e. `+0`.
const EXP_MIN: f32 = -103.972_08;

/// `e^x`, branch-free: `+Inf` above `ln(f32::MAX)`, `+0` below the
/// subnormal range, subnormal results rounded once, NaN for NaN.
///
/// `x = n·ln 2 + r` with `|r| ≤ ln 2 / 2`; `e^r = 1 + r + r²·P(r)` with
/// Cephes' degree-5 `P`; and `2ⁿ` applied as two exponent-bit factors, so
/// `n` from −150 to 128 needs no special case.
#[inline(always)]
#[must_use]
pub fn exp(x: f32) -> f32 {
    let t = x * LOG2_E + ROUND;
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let k = t - ROUND;
    let r = x - k * LN2_HI;
    let r = r - k * LN2_LO;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 0.5;
    let p = p * (r * r) + r + 1.0;
    let half = n >> 1;
    let scale = |e: i32| f32::from_bits((e.wrapping_add(127) as u32).wrapping_shl(23));
    let y = p * scale(half) * scale(n.wrapping_sub(half));
    let y = if x > EXP_MAX { f32::INFINITY } else { y };
    if x < EXP_MIN {
        0.0
    } else {
        y
    }
}

/// `tanh x`, branch-free and odd (`±0` keeps its sign): Cephes' odd
/// polynomial below `|x| = 0.625`, `1 − 2 / (e^{2|x|} + 1)` above it (both
/// computed, one selected), which reaches
/// exactly `±1` from `|x| ≈ 9.01` on (and at `±Inf`). NaN for NaN.
#[inline(always)]
#[must_use]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let p = -5.704_988_7e-3;
    let p = p * z + 2.063_909e-2;
    let p = p * z - 5.373_971_6e-2;
    let p = p * z + 1.333_144_2e-1;
    let p = p * z - 3.333_328e-1;
    let small = p * z * a + a;
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let t = if a < 0.625 { small } else { large };
    t.copysign(x)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Distance in representable floats (the sign-magnitude bit patterns
    /// mapped onto one ordered integer line).
    fn ulps(a: f32, b: f32) -> u32 {
        let line = |v: f32| {
            let bits = v.to_bits() as i32;
            if bits < 0 {
                i32::MIN - bits
            } else {
                bits
            }
        };
        line(a).abs_diff(line(b))
    }

    /// Max ulp error of `f` against `reference` rounded to f32, over
    /// `steps + 1` evenly spaced points of `[lo, hi]`.
    pub(crate) fn max_ulp(f: fn(f32) -> f32, reference: fn(f64) -> f64, lo: f32, hi: f32, steps: u32) -> (u32, f32) {
        (0..=steps)
            .map(|i| lo + (hi - lo) * (i as f32 / steps as f32))
            .map(|x| (ulps(f(x), reference(f64::from(x)) as f32), x))
            .max_by_key(|&(ulp, _)| ulp)
            .unwrap()
    }

    /// Sweeps `f` over each range, printing its max error beside libm's.
    fn pin(name: &str, f: fn(f32) -> f32, libm: fn(f32) -> f32, reference: fn(f64) -> f64, ranges: &[(f32, f32)], bound: u32) {
        for &(lo, hi) in ranges {
            let (ours, at) = max_ulp(f, reference, lo, hi, 1_000_000);
            let (theirs, _) = max_ulp(libm, reference, lo, hi, 1_000_000);
            eprintln!("{name} on [{lo}, {hi}]: max {ours} ulp at {at} (libm {theirs})");
            assert!(ours <= bound, "{name}: {ours} ulp at {at}");
        }
    }

    #[test]
    fn exp_is_within_two_ulp() {
        pin("exp", exp, f32::exp, f64::exp, &[(-87.3, 88.7), (-1.0, 1.0), (-1e-3, 1e-3)], 2);
        // Subnormal results: one rounding, so within one subnormal step.
        pin("exp", exp, f32::exp, f64::exp, &[(EXP_MIN, -87.3)], 1);
    }

    #[test]
    fn tanh_is_within_four_ulp_and_odd() {
        pin("tanh", tanh, f32::tanh, f64::tanh, &[(-10.0, 10.0), (-0.7, 0.7), (-1e-3, 1e-3)], 4);
        for i in 0..=100_000 {
            let x = i as f32 * 1e-4;
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh(-{x})");
        }
    }

    #[test]
    fn exp_special_values_are_libms() {
        let tiny = f32::from_bits(1);
        for x in [0.0, -0.0, tiny, -tiny, f32::MIN_POSITIVE, 1.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN] {
            assert_eq!(exp(x).to_bits(), x.exp().to_bits(), "exp({x:e})");
        }
        assert!(exp(f32::NAN).is_nan() && exp(-f32::NAN).is_nan());
        // Overflow: the last finite result and the first infinite one.
        assert!(exp(EXP_MAX).is_finite() && EXP_MAX.exp().is_finite());
        assert_eq!(exp(EXP_MAX).to_bits(), EXP_MAX.exp().to_bits());
        assert_eq!(exp(EXP_MAX.next_up()), f32::INFINITY);
        assert_eq!(EXP_MAX.next_up().exp(), f32::INFINITY);
        // Underflow: the smallest subnormal, then `+0`.
        assert_eq!(exp(EXP_MIN).to_bits(), 1);
        assert_eq!(EXP_MIN.exp().to_bits(), 1);
        assert_eq!(exp(EXP_MIN.next_down()).to_bits(), 0);
        assert_eq!(EXP_MIN.next_down().exp().to_bits(), 0);
    }

    #[test]
    fn tanh_special_values_are_libms() {
        let tiny = f32::from_bits(1);
        for x in [0.0, -0.0, tiny, -tiny, f32::MIN_POSITIVE, -1e-30, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN]
        {
            assert_eq!(tanh(x).to_bits(), x.tanh().to_bits(), "tanh({x:e})");
        }
        assert!(tanh(f32::NAN).is_nan() && tanh(-f32::NAN).is_nan());
        // Saturation: the first input whose tanh is exactly 1 is libm's.
        let saturation = |f: fn(f32) -> f32| {
            let mut x = 8.5f32;
            while f(x) != 1.0 {
                x = x.next_up();
            }
            x
        };
        assert_eq!(saturation(tanh), saturation(f32::tanh));
        assert!(tanh(saturation(tanh).next_down()) < 1.0);
    }
}
