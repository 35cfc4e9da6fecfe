//! Calibrated four-workload serving benchmark for the SCALES stack.
//!
//! ```text
//! scales-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! scales-benchmark selfcheck [--sets 2] [--runs 3] [--seconds <n>] [--smoke]
//! scales-benchmark probe
//! ```
//!
//! A run prints one JSON object as its last line of standard output:
//! `correct`, `attempted`, `failed` and `metrics` — the six end-to-end
//! metrics, or with `--trace` every per-layer metric. See `README.md`.

mod alloc;
mod harness;
mod ladder;
mod models;
mod probe;
mod schedule;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

use harness::{RunArgs, RunOutput, Workload};
use stats::summarise;
use std::path::PathBuf;
use std::process::ExitCode;

/// Measured-phase length when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: u32 = 26;
/// Share of a traced run's `--seconds` spent replaying the workload; the
/// layer ladder gets the rest.
const TRACED_PHASE_SHARE: f64 = 0.4;

/// Everything the benchmark writes goes under `<benchmark>/out/`.
fn out_dir(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(workload)
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64)>,
}

fn measure<W: Workload>(workload: &W, args: RunArgs) -> Report {
    let info = workload.info();
    let seconds = args.seconds;
    let phase = if args.trace {
        seconds * TRACED_PHASE_SHARE
    } else {
        seconds
    };
    let out: RunOutput = harness::run(
        workload,
        RunArgs {
            seconds: phase,
            ..args
        },
    );
    let all = || out.units.iter().chain(&out.traced_units);
    let summary = summarise(all(), info.limit_ms());
    let mut report = Report {
        correct: true,
        attempted: summary.requests + out.admin_ms.len() + out.extra_attempted,
        failed: summary.failed + out.admin_failed + out.extra_failed,
        metrics: Vec::new(),
    };
    if !args.trace && stats::samples_beyond(summary.requests, 0.90) < stats::MIN_BEYOND {
        eprintln!(
            "warning: only {} requests measured; p90 has fewer than {} samples beyond it",
            summary.requests,
            stats::MIN_BEYOND
        );
    }
    if let Err(e) = write_units(
        &out_dir(info.name).join("units.tsv"),
        &out,
        info.sensitivity,
    ) {
        eprintln!("could not write units.tsv: {e}");
    }
    eprintln!(
        "raw: images_per_s={:.4} latency_p50_ms={:.4} latency_p90_ms={:.4} scale_p50={:.4} scale_max={:.4} units={} setups={}",
        summary.raw_images_per_s,
        summary.raw_latency_p50_ms,
        summary.raw_latency_p90_ms,
        summary.scale_p50,
        summary.scale_max,
        summary.units,
        out.setups_s.len()
    );
    let peak_bytes = all()
        .map(|u| u.peak_bytes)
        .fold(out.setup_peak_bytes, usize::max);
    if !args.trace {
        report.metrics = vec![
            ("setup_s", out.setup_s()),
            ("images_per_s", summary.images_per_s),
            ("latency_p50_ms", summary.latency_p50_ms),
            ("latency_p90_ms", summary.latency_p90_ms),
            ("ok_share", summary.ok_share),
            ("peak_heap_mb", peak_bytes as f64 / 1e6),
        ];
        report.correct = report.failed == 0;
        return report;
    }

    // Traced run: the per-layer ledger. Ladder first, then what the traced
    // replay of the workload itself measured overrides the ladder's rungs.
    let mut m = ladder::run(&info.model, workload.files(), seconds - phase);
    let spans_path = out_dir(info.name).join("spans.jsonl");
    if let Err(e) = trace::write_jsonl(&spans_path, &out.spans) {
        eprintln!("could not write {}: {e}", spans_path.display());
        report.correct = false;
    }
    if let Err(e) = trace::check(&out.spans) {
        eprintln!("span tree is malformed: {e}");
        report.correct = false;
    }
    let totals = trace::totals(&out.spans);
    for (stage, metric) in trace::RUNTIME_STAGES.iter().zip([
        "runtime.queue_wait_ms_p50",
        "runtime.batch_wait_ms_p50",
        "runtime.infer_ms_p50",
    ]) {
        if let Some(t) = totals.get(stage) {
            m.push((metric, ladder::p50_ms(&t.durations_ns)));
        }
    }
    let pairs = trace::http_pairs(&out.spans);
    if !pairs.is_empty() {
        m.extend(ladder::http_stage_metrics(&pairs));
    }
    if let Some(runtime) = &out.runtime {
        m.extend(ladder::runtime_counters(runtime));
    }
    if !out.admin_ms.is_empty() {
        let mut reloads = out.admin_ms.clone();
        reloads.sort_by(f64::total_cmp);
        m.push(("router.reload_ms_p50", stats::percentile(&reloads, 0.5)));
        m.push(("router.reload_ms_max", stats::percentile(&reloads, 1.0)));
    }
    m.extend(out.stack_counters.iter().copied());
    let traced = summarise(&out.traced_units, info.limit_ms());
    let untraced = summarise(&out.units, info.limit_ms());
    m.extend([
        (
            "telemetry.trace_overhead_share",
            1.0 - traced.images_per_s / untraced.images_per_s,
        ),
        ("loadgen.probe_scale_p50", summary.scale_p50),
        ("loadgen.probe_scale_max", summary.scale_max),
        ("loadgen.raw_images_per_s", summary.raw_images_per_s),
        ("loadgen.raw_latency_p50_ms", summary.raw_latency_p50_ms),
        ("loadgen.raw_latency_p90_ms", summary.raw_latency_p90_ms),
        ("loadgen.latency_p99_ms", summary.latency_p99_ms),
        (
            "loadgen.cpu_ms_per_image",
            out.cpu_ms / (summary.requests - summary.failed).max(1) as f64,
        ),
        ("loadgen.peak_rss_mb", alloc::peak_rss_bytes() as f64 / 1e6),
        ("loadgen.units", summary.units as f64),
        (
            "loadgen.submit_lag_ms",
            if out.lag_ms.is_empty() {
                0.0
            } else {
                stats::median(&out.lag_ms)
            },
        ),
    ]);
    // Later entries override earlier ones; emit in the table's order.
    for (name, _, _) in spec::PER_LAYER {
        match m.iter().rev().find(|(n, _)| *n == name) {
            Some(&(_, value)) => report.metrics.push((name, value)),
            None => {
                eprintln!("per-layer metric {name} was not measured");
                report.correct = false;
                report.metrics.push((name, 0.0));
            }
        }
    }
    report.correct &= report.failed == 0;
    report
}

/// Every measured unit of the run, one line each, for the noise study:
/// raw seconds, the probe's slowdown around it (before the workload's
/// sensitivity exponent), peak live heap, and every request's raw latency.
fn write_units(path: &std::path::Path, out: &RunOutput, sensitivity: f64) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        file,
        "# set-up and warm-up peak heap: {} bytes",
        out.setup_peak_bytes
    )?;
    writeln!(file, "raw_s\tprobe_ratio\tpeak_bytes\traw_latencies_ms")?;
    for unit in out.units.iter().chain(&out.traced_units) {
        let latencies: Vec<String> = unit
            .samples
            .iter()
            .map(|s| format!("{:.4}", s.raw_ms))
            .collect();
        let probe_ratio = unit.scale.powf(1.0 / sensitivity);
        writeln!(
            file,
            "{}\t{probe_ratio}\t{}\t{}",
            unit.raw_s,
            unit.peak_bytes,
            latencies.join(",")
        )?;
    }
    file.flush()
}

fn run_workload(name: &str, args: RunArgs) -> Option<Report> {
    let info = workloads::info(name)?;
    let dir = out_dir(name);
    Some(match name {
        "session_cnn" | "session_transformer" => measure(
            &workloads::session::SessionWorkload::prepare(info, args.seed, &dir),
            args,
        ),
        "edge_fleet" => measure(
            &workloads::edge_fleet::EdgeFleet::prepare(info, args.seed, &dir),
            args,
        ),
        _ => measure(
            &workloads::runtime_bursts::BurstWorkload::prepare(info, args.seed, &dir),
            args,
        ),
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scales-benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]]\n       \
         scales-benchmark selfcheck [--sets 2] [--runs 3] [--seconds <n>] [--smoke]\n       \
         scales-benchmark probe",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The environment must not change the program under test: the backend
    // and the profiler switch stay at the library's compiled defaults.
    std::env::remove_var("SCALES_BACKEND");
    std::env::remove_var("SCALES_PROFILE_OPS");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::HashMap::new();
    let mut words = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(flag) => {
                // A flag takes the next word as its value unless that is
                // another flag (`--trace` and `--smoke` may stand alone).
                let value = it
                    .next_if(|next| !next.starts_with("--"))
                    .cloned()
                    .unwrap_or_else(|| "1".into());
                flags.insert(flag.to_string(), value);
            }
            None => words.push(arg.as_str()),
        }
    }
    let number =
        |flag: &str, default: u64| flags.get(flag).map_or(Some(default), |v| v.parse().ok());
    let (Some(seed), Some(seconds), Some(sets), Some(runs)) = (
        number("seed", 1),
        number("seconds", u64::from(DEFAULT_SECONDS)),
        number("sets", 2),
        number("runs", 3),
    ) else {
        return usage();
    };
    let truthy = |flag: &str| flags.get(flag).is_some_and(|v| v != "0");

    match (words.as_slice(), flags.get("workload")) {
        (["probe"], None) => {
            selfcheck::probe_references();
            ExitCode::SUCCESS
        }
        (["selfcheck"], None) => selfcheck::run(&selfcheck::Options {
            sets: sets.max(2) as usize,
            runs: runs.max(1) as usize,
            seconds: seconds as u32,
            smoke: truthy("smoke"),
        }),
        ([], Some(name)) => {
            let args = RunArgs {
                seed,
                seconds: seconds as f64,
                trace: truthy("trace"),
            };
            let Some(report) = run_workload(name, args) else {
                return usage();
            };
            let kernel = scales_tensor::backend::kernel();
            eprintln!(
                "labels: workload={name} seed={seed} seconds={seconds} trace={} backend={} simd={} \
                 detected_simd={} parallelism={}",
                args.trace,
                scales_tensor::backend::active(),
                kernel.simd_level().name(),
                scales_tensor::Backend::detected().name(),
                std::thread::available_parallelism().map_or(1, usize::from)
            );
            let units: std::collections::HashMap<&str, &str> = spec::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(spec::PER_LAYER.iter().map(|m| (m.0, m.1)))
                .collect();
            let metrics: Vec<(&str, &str, f64)> = report
                .metrics
                .iter()
                .map(|&(name, value)| (name, units[name], value))
                .collect();
            println!(
                "{}",
                spec::result_line(report.correct, report.attempted, report.failed, &metrics)
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    /// The probe must reach no repository code: a change to the program
    /// under test must never be able to change the yardstick. Its source
    /// may name nothing but `std`.
    #[test]
    fn the_probe_reaches_no_repository_code() {
        let code: Vec<&str> = include_str!("probe.rs")
            .lines()
            .map(str::trim_start)
            .filter(|l| !l.starts_with("//"))
            .collect();
        for line in &code {
            assert!(
                !line.contains("scales") && !line.contains("crate::") && !line.contains("super::"),
                "{line}"
            );
            assert!(
                !line.starts_with("use ") || line.starts_with("use std::"),
                "{line}"
            );
            assert!(
                !line.starts_with("extern ") && !line.starts_with("mod "),
                "{line}"
            );
        }
    }

    #[test]
    fn the_probe_reads_a_positive_repeatable_time() {
        let mut probe = crate::probe::Probe::new();
        probe.run();
        let (a, b) = (probe.run(), probe.run());
        assert!(a > 0.0 && b > 0.0);
        assert!(a / b < 3.0 && b / a < 3.0, "{a} ms vs {b} ms");
    }
}
