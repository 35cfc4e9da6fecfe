//! `selfcheck`: does this benchmark agree with itself? Runs every workload
//! in two interleaved sets (A, B, A, B, …) of the same binary, compares the
//! two medians of every (workload, metric) against the metric's bound, and
//! exits non-zero on a breach. `--smoke` is a few seconds per workload with
//! nothing compared — a harness sanity run. `probe` measures the quiet
//! probe references for a new machine.

use crate::probe::Probe;
use crate::spec::{metric_in, END_TO_END};
use crate::stats::median;
use crate::workloads::NAMES;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::Barrier;

pub struct Options {
    pub sets: usize,
    pub runs: usize,
    pub seconds: u32,
    pub smoke: bool,
}

/// One child run of this same binary; `None` unless it exits 0 with a
/// result line that says `"correct":true`.
fn child(workload: &str, seed: u64, seconds: u32) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", "0"])
        .output()
        .ok()?;
    let line = String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()?
        .to_string();
    (output.status.success() && line.contains("\"correct\":true")).then_some(line)
}

pub fn run(options: &Options) -> ExitCode {
    if options.smoke {
        for workload in NAMES {
            match child(workload, 1, options.seconds.min(3)) {
                Some(line) => println!("{workload}: {line}"),
                None => {
                    eprintln!("{workload}: run failed");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    // values[set][workload][metric] over the set's runs.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; NAMES.len()]; options.sets];
    for run in 0..options.runs {
        for (set, per_set) in values.iter_mut().enumerate() {
            for (w, workload) in NAMES.iter().enumerate() {
                let seed = (1000 * (set + 1) + run) as u64;
                let Some(line) = child(workload, seed, options.seconds) else {
                    eprintln!("{workload} (set {set}, run {run}): run failed");
                    return ExitCode::FAILURE;
                };
                for (m, metric) in END_TO_END.iter().enumerate() {
                    per_set[w][m].extend(metric_in(&line, metric.name));
                }
                eprintln!("set {set} run {run} {workload}: done");
            }
        }
    }

    let mut breaches = 0;
    let mut json = String::from("[");
    println!(
        "{:<20} {:<15} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    for (w, workload) in NAMES.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| median(&set[w][m])).collect();
            // The worst worsening between any two sets, in either order.
            let gap = medians
                .iter()
                .flat_map(|&a| medians.iter().map(move |&b| metric.better.worsening(a, b)))
                .fold(0.0, f64::max);
            let breach = gap > metric.bound;
            breaches += usize::from(breach);
            println!(
                "{workload:<20} {:<15} {:>12.5} {:>12.5} {:>7.2}% {:>6.1}%{}",
                metric.name,
                medians[0],
                medians[medians.len() - 1],
                gap * 100.0,
                metric.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            let _ = write!(
                json,
                "{}\n{{\"workload\":\"{workload}\",\"metric\":\"{}\",\"medians\":{medians:?},\"gap\":{gap},\"bound\":{}}}",
                if json.len() > 1 { "," } else { "" },
                metric.name,
                metric.bound
            );
        }
    }
    json.push_str("\n]\n");
    let path = crate::out_dir("").join("selfcheck.json");
    if let Err(e) =
        std::fs::create_dir_all(crate::out_dir("")).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{breaches} (workload, metric) pairs disagree by more than their bound");
        ExitCode::FAILURE
    }
}

/// Print the probe's median on one thread and on two at once: the numbers
/// to commit as `PROBE_REF_MS` after checking the machine is otherwise idle.
pub fn probe_references() {
    for threads in 1..=2 {
        let barrier = Barrier::new(threads);
        let medians: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut probe = Probe::new();
                        probe.run();
                        let readings: Vec<f64> = (0..400)
                            .map(|_| {
                                barrier.wait();
                                probe.run()
                            })
                            .collect();
                        median(&readings)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        println!(
            "probe median, {threads} thread(s) at once: {:.3} ms",
            median(&medians)
        );
    }
}
