//! Percentiles and the probe-normalisation arithmetic every time metric
//! goes through.

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it. `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many samples lie beyond the `q` percentile of a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// A percentile is only reported as a gating number when at least this
/// many samples lie beyond it; below that it is one neighbour's burst.
pub const MIN_BEYOND: usize = 10;

/// One request's outcome inside a unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Raw wall latency in milliseconds.
    pub raw_ms: f64,
    /// Whether the request's one image came back and matched the oracle
    /// bit for bit (every request carries a single image).
    pub ok: bool,
}

/// One measured unit: a fixed piece of work bracketed by two probes.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Raw wall duration in seconds (first generator start → last end).
    pub raw_s: f64,
    /// Mean of the probes around the unit ÷ the workload's quiet reference.
    pub scale: f64,
    /// Peak live heap of the process during the unit, less the load
    /// generators' own logs, in bytes.
    pub peak_bytes: usize,
    pub samples: Vec<Sample>,
}

/// The end-to-end numbers one measured phase yields, normalised and raw.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub images_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
    pub ok_share: f64,
    pub raw_images_per_s: f64,
    pub raw_latency_p50_ms: f64,
    pub raw_latency_p90_ms: f64,
    pub scale_p50: f64,
    pub scale_max: f64,
    pub units: usize,
    pub requests: usize,
    pub failed: usize,
}

/// Fold the measured units into the end-to-end numbers. Every time is
/// divided by the scale of the unit it belongs to, over the whole phase:
/// no window is selected and nothing is dropped. `limit_ms` is the
/// workload's fixed latency limit on normalised latency.
pub fn summarise<'a>(units: impl IntoIterator<Item = &'a Unit>, limit_ms: f64) -> Summary {
    let (mut norm, mut raw, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    let (mut norm_s, mut raw_s) = (0.0, 0.0);
    let (mut within, mut failed) = (0usize, 0usize);
    for unit in units {
        norm_s += unit.raw_s / unit.scale;
        raw_s += unit.raw_s;
        scales.push(unit.scale);
        for s in &unit.samples {
            let lat = s.raw_ms / unit.scale;
            norm.push(lat);
            raw.push(s.raw_ms);
            failed += usize::from(!s.ok);
            within += usize::from(s.ok && lat <= limit_ms);
        }
    }
    norm.sort_by(f64::total_cmp);
    raw.sort_by(f64::total_cmp);
    scales.sort_by(f64::total_cmp);
    // Every request carries one image, so images returned correct are the
    // requests that did not fail.
    let images = (norm.len() - failed) as f64;
    Summary {
        images_per_s: images / norm_s,
        latency_p50_ms: percentile(&norm, 0.50),
        latency_p90_ms: percentile(&norm, 0.90),
        latency_p99_ms: percentile(&norm, 0.99),
        ok_share: within as f64 / norm.len().max(1) as f64,
        raw_images_per_s: images / raw_s,
        raw_latency_p50_ms: percentile(&raw, 0.50),
        raw_latency_p90_ms: percentile(&raw, 0.90),
        scale_p50: percentile(&scales, 0.50),
        scale_max: scales.last().copied().unwrap_or(f64::NAN),
        units: scales.len(),
        requests: norm.len(),
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn guard_counts_the_samples_beyond_a_percentile() {
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(99, 0.90), 9);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.9), 0);
        assert!(samples_beyond(175, 0.90) >= MIN_BEYOND);
        assert!(samples_beyond(175, 0.99) < MIN_BEYOND);
    }

    /// The 80/20 light/heavy cycle puts p50 inside the light class and p90
    /// in the middle of the heavy class.
    #[test]
    fn the_cycle_of_five_pins_both_percentiles_to_a_class() {
        let mut lat = Vec::new();
        for i in 0..40 {
            lat.extend([10.0, 10.1, 10.2, 10.3, 50.0 + f64::from(i)]);
        }
        lat.sort_by(f64::total_cmp);
        assert!(percentile(&lat, 0.50) < 11.0);
        let p90 = percentile(&lat, 0.90);
        assert!((60.0..80.0).contains(&p90), "{p90}");
    }

    fn synthetic(scale: f64) -> Vec<Unit> {
        (0..12)
            .map(|u| Unit {
                raw_s: 0.5 * scale,
                scale,
                peak_bytes: 0,
                samples: (0..5)
                    .map(|i| Sample {
                        raw_ms: (10.0 + f64::from(u) + f64::from(i) * 20.0) * scale,
                        ok: true,
                    })
                    .collect(),
            })
            .collect()
    }

    /// A run slowed 1.6x whose probes saw the same 1.6x must report the
    /// quiet-machine numbers, while the raw numbers show the slowdown.
    #[test]
    fn a_slowed_unit_reports_the_quiet_numbers() {
        let quiet = summarise(&synthetic(1.0), 1000.0);
        let slowed = summarise(&synthetic(1.6), 1000.0);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        assert!(close(slowed.images_per_s, quiet.images_per_s));
        assert!(close(slowed.latency_p50_ms, quiet.latency_p50_ms));
        assert!(close(slowed.latency_p90_ms, quiet.latency_p90_ms));
        assert_eq!(slowed.ok_share, quiet.ok_share);
        assert!(close(slowed.raw_images_per_s * 1.6, quiet.raw_images_per_s));
        assert!(close(
            slowed.raw_latency_p50_ms,
            quiet.raw_latency_p50_ms * 1.6
        ));
        assert!(close(slowed.scale_max, 1.6));
        // Mixed: one slowed unit among quiet ones changes nothing either.
        let mut mixed = synthetic(1.0);
        mixed[3] = synthetic(1.6)[3].clone();
        assert!(close(
            summarise(&mixed, 1000.0).images_per_s,
            quiet.images_per_s
        ));
    }

    #[test]
    fn misses_and_failures_lower_ok_share() {
        let mut units = synthetic(1.0);
        units[0].samples[0].ok = false;
        let s = summarise(&units, 65.0);
        assert_eq!(s.failed, 1);
        // Heavy samples (>= 70 ms) miss the 65 ms limit: 24 of 60, plus
        // the failed one.
        let expect = (60.0 - 24.0 - 1.0) / 60.0;
        assert!((s.ok_share - expect).abs() < 1e-12, "{}", s.ok_share);
    }
}
