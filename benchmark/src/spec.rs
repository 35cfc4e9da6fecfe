//! The benchmark's vocabulary: every metric's name, unit and direction, and
//! the regression bound of each end-to-end metric. `BENCHMARK.json` at the
//! repository root repeats this table; a unit test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when `b`
    /// is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. Each is at least three times
    /// the widest run-to-run spread (quartile distance over ten runs, as a
    /// share of their median) any workload showed when the benchmark was
    /// defined, noisy half-hours included (see the README's noise study).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "images_per_s",
        unit: "images/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Per-layer metrics: name, unit, direction. The prefix is the repository
/// module the number belongs to; none of them gates.
pub const PER_LAYER: [(&str, &str, Better); 68] = [
    ("tensor.gemm_f32_mmacs_per_s", "MMAC/s", Better::Higher),
    ("tensor.conv2d_tail_ms", "ms", Better::Lower),
    ("binary.pack_ns_per_value", "ns/value", Better::Lower),
    ("binary.conv_ms", "ms", Better::Lower),
    ("binary.conv_gops_per_s", "GOP/s", Better::Higher),
    ("binary.conv_bytes_per_call", "B/call", Better::Lower),
    ("core.body_conv_ms", "ms", Better::Lower),
    ("core.scales_overhead_share", "share", Better::Lower),
    ("core.predicted_ops_share", "share", Better::Lower),
    ("models.forward_planned_ms", "ms", Better::Lower),
    ("models.forward_alloc_ms", "ms", Better::Lower),
    ("models.train_forward_ms", "ms", Better::Lower),
    ("models.plan_build_ms", "ms", Better::Lower),
    ("models.plan_arena_mb", "MB", Better::Lower),
    ("models.packed_layers", "count", Better::Higher),
    ("models.op_share.body_conv", "share", Better::Lower),
    ("models.op_share.float_conv", "share", Better::Lower),
    ("models.op_share.elementwise", "share", Better::Lower),
    ("models.op_share.shuffle_resize", "share", Better::Lower),
    ("models.op_attributed_share", "share", Better::Higher),
    ("serve.infer_overhead_us", "us", Better::Lower),
    ("serve.tiles_per_heavy", "count", Better::Lower),
    ("serve.tile_overhead_share", "share", Better::Lower),
    ("serve.workspace_mb", "MB", Better::Lower),
    ("runtime.queue_wait_ms_p50", "ms", Better::Lower),
    ("runtime.batch_wait_ms_p50", "ms", Better::Lower),
    ("runtime.infer_ms_p50", "ms", Better::Lower),
    ("runtime.batch_fill", "share", Better::Higher),
    ("runtime.images_per_dispatch", "images", Better::Higher),
    ("runtime.busy_share", "share", Better::Higher),
    ("runtime.queue_high_water", "count", Better::Lower),
    ("runtime.refused", "count", Better::Lower),
    ("runtime.overhead_us", "us", Better::Lower),
    ("router.route_overhead_us", "us", Better::Lower),
    ("router.reload_ms_p50", "ms", Better::Lower),
    ("router.reload_ms_max", "ms", Better::Lower),
    ("router.swaps", "count", Better::Higher),
    ("router.resident_mb", "MB", Better::Lower),
    ("http.parse_us", "us", Better::Lower),
    ("http.decode_us", "us", Better::Lower),
    ("http.submit_us", "us", Better::Lower),
    ("http.encode_us", "us", Better::Lower),
    ("http.write_us", "us", Better::Lower),
    ("http.overhead_us", "us", Better::Lower),
    ("http.stage_attributed_share", "share", Better::Higher),
    ("http.refused", "count", Better::Lower),
    ("http.errors", "count", Better::Lower),
    ("data.png_decode_us", "us", Better::Lower),
    ("data.png_encode_us", "us", Better::Lower),
    ("data.ppm_decode_us", "us", Better::Lower),
    ("data.ppm_encode_us", "us", Better::Lower),
    ("data.bicubic_ms", "ms", Better::Lower),
    ("io.artifact_load_ms", "ms", Better::Lower),
    ("io.artifact_mb", "MB", Better::Lower),
    ("io.checkpoint_load_ms", "ms", Better::Lower),
    ("io.lower_ms", "ms", Better::Lower),
    ("telemetry.trace_overhead_share", "share", Better::Lower),
    ("telemetry.profile_overhead_share", "share", Better::Lower),
    ("loadgen.probe_scale_p50", "share", Better::Lower),
    ("loadgen.probe_scale_max", "share", Better::Lower),
    ("loadgen.raw_images_per_s", "images/s", Better::Higher),
    ("loadgen.raw_latency_p50_ms", "ms", Better::Lower),
    ("loadgen.raw_latency_p90_ms", "ms", Better::Lower),
    ("loadgen.latency_p99_ms", "ms", Better::Lower),
    ("loadgen.cpu_ms_per_image", "ms", Better::Lower),
    ("loadgen.peak_rss_mb", "MB", Better::Lower),
    ("loadgen.units", "count", Better::Higher),
    ("loadgen.submit_lag_ms", "ms", Better::Lower),
];

/// The one line a run prints last: `correct`, `attempted`, `failed` and the
/// named metrics, each with its value (all digits) and unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// JSON has no NaN or infinity; a metric that could not be computed reads 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Read `"name":{"value":<number>` back out of a result line.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\":{{\"value\":"))?..];
    let rest = &rest[rest.find("\"value\":")? + 8..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("a.b", "ms", 1.25),
                ("a.bc", "share", f64::NAN),
                ("x", "s", 3e-7),
            ],
        );
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert_eq!(metric_in(&line, "a.b"), Some(1.25));
        assert_eq!(metric_in(&line, "a.bc"), Some(0.0));
        assert_eq!(metric_in(&line, "x"), Some(3e-7));
        assert_eq!(metric_in(&line, "a"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::workloads::NAMES);
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(name.len() <= 64 && ok(name, "_.-"), "{name}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` repeats this module's tables; keep them in step.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for name in crate::workloads::NAMES {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
                "missing workload {name}"
            );
        }
    }
}
