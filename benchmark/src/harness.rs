//! The measurement method shared by every workload: timed cold set-ups, a
//! warm-up, then a measured phase of byte-identical work *units* separated
//! by the calibration probe, which every load-generating thread runs at the
//! same moment behind a barrier.

use crate::models::ModelSpec;
use crate::probe::Probe;
use crate::stats::{median, Sample, Unit};
use crate::trace::{Span, Tracer};
use scales_runtime::RuntimeStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Quiet-machine median of the probe on the reference box, in
/// milliseconds, by how many threads run it at once (the two vCPUs slow
/// each other when both are busy). Re-measure with the `probe` subcommand on
/// a new machine.
pub const PROBE_REF_MS: [f64; 2] = [6.6, 6.9];

/// What a workload tells the harness about itself.
#[derive(Debug, Clone, Copy)]
pub struct Info {
    pub name: &'static str,
    /// Load-generating threads (1 or 2).
    pub generators: usize,
    /// Threads that run the probe at once (at least `generators`): as many
    /// as the workload keeps vCPUs busy, so the probe sees the machine the
    /// way the work does. Extra probers send nothing.
    pub probers: usize,
    /// Reference p90 of normalised latency on the reference box; the
    /// workload's fixed latency limit is four times this.
    pub ref_p90_ms: f64,
    /// How much more (or less) than the probe this workload slows when the
    /// machine does: a unit's scale is the probe's slowdown raised to this
    /// power. Measured in the noise study (README); 1 means "like the probe".
    pub sensitivity: f64,
    /// The model and request shapes, for the layer ladder.
    pub model: ModelSpec,
}

impl Info {
    pub fn probe_ref_ms(&self) -> f64 {
        PROBE_REF_MS[self.probers - 1]
    }

    pub fn limit_ms(&self) -> f64 {
        4.0 * self.ref_p90_ms
    }

    /// The scale of a unit whose probes read `probe_ms`.
    pub fn scale(&self, probe_ms: f64) -> f64 {
        (probe_ms / self.probe_ref_ms()).powf(self.sensitivity)
    }
}

/// What one generator thread produced in one unit.
#[derive(Default)]
pub struct UnitOut {
    pub samples: Vec<Sample>,
    /// Latencies of administrative calls made beside the traffic (the
    /// `edge_fleet` reload), in milliseconds, and how many of them failed.
    pub admin_ms: Vec<f64>,
    pub admin_failed: usize,
    /// How late the generator issued requests against when they were due,
    /// in milliseconds.
    pub lag_ms: Vec<f64>,
}

impl UnitOut {
    /// Heap this log holds, in bytes.
    fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<Sample>()
            + (self.admin_ms.capacity() + self.lag_ms.capacity()) * std::mem::size_of::<f64>()
    }
}

/// One generator thread's view of a workload.
pub trait Client {
    /// Send this generator's share of unit `unit`. When `tracer` is given,
    /// record one root span per request (plus the children the public API
    /// returns).
    fn run_unit(&mut self, unit: u32, out: &mut UnitOut, tracer: Option<&mut Tracer>);

    /// Before the measured phase: one whole unit, so every shape in the
    /// schedule has been served by every session, plus whatever else brings
    /// the stack to its steady state.
    fn warm_up(&mut self, out: &mut UnitOut) {
        self.run_unit(0, out, None);
    }
}

/// A thread that sends nothing and only joins the probes.
struct ProbeOnly;

impl Client for ProbeOnly {
    fn run_unit(&mut self, _unit: u32, _out: &mut UnitOut, _tracer: Option<&mut Tracer>) {}
}

/// A workload: how to stand the serving stack up from bytes on disk, and
/// how each generator thread drives it.
pub trait Workload: Sync {
    type Stack: Sync;

    fn info(&self) -> Info;

    /// The served model's files (the first model's, for a fleet).
    fn files(&self) -> &crate::models::ModelFiles;

    /// Cold set-up: artifact or checkpoint bytes on disk → engine →
    /// runtime / fleet / server listening.
    fn setup(&self) -> Self::Stack;

    /// The first request of each schedule shape, answered and checked;
    /// returns how many were sent and how many were wrong. Ends a set-up.
    fn first_requests(&self, stack: &Self::Stack) -> (usize, usize);

    /// Drain and stop the stack; returns the serving record when the
    /// workload has a runtime.
    fn teardown(&self, stack: Self::Stack) -> Option<RuntimeStats>;

    /// The client of generator `generator`, created on that thread.
    fn client<'a>(&'a self, stack: &'a Self::Stack, generator: usize) -> Box<dyn Client + 'a>;

    /// Traced runs only, after each unit: move the server-side stage spans
    /// of the unit's requests into `stages`, keyed by request id.
    fn collect_stages(&self, _stack: &Self::Stack, _stages: &mut HashMap<String, [u64; 8]>) {}

    /// Traced runs only, once the measured phase is over: counters read
    /// from the live stack (`router.*`, `http.*`).
    fn stack_counters(&self, _stack: &Self::Stack) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Cold set-ups are repeated until at least this many are timed and this
/// much wall time is spent on them, up to the cap: a 10 ms set-up needs
/// many more repeats than a 400 ms one for its median to hold still.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET_S: f64 = 1.0;

/// Everything one run measured.
pub struct RunOutput {
    /// Probe-normalised durations of the cold set-ups, in seconds.
    pub setups_s: Vec<f64>,
    /// Measured units that were not traced (all of them in an untraced run).
    pub units: Vec<Unit>,
    /// Traced runs alternate traced and untraced units so the tracing
    /// overhead is an interleaved A/B inside one run.
    pub traced_units: Vec<Unit>,
    pub spans: Vec<Span>,
    pub admin_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    /// Requests and admin calls outside the measured units (set-ups and
    /// warm-up), and how many of them failed.
    pub extra_attempted: usize,
    pub extra_failed: usize,
    pub admin_failed: usize,
    /// Process CPU milliseconds spent during the measured phase.
    pub cpu_ms: f64,
    /// Peak live heap from process start to the end of the warm-up, bytes.
    pub setup_peak_bytes: usize,
    pub runtime: Option<RuntimeStats>,
    pub stack_counters: Vec<(&'static str, f64)>,
}

impl RunOutput {
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }
}

struct ThreadUnit {
    start: Instant,
    end: Instant,
    probe_before_ms: f64,
    probe_after_ms: f64,
    /// Peak live heap of the whole process during the unit (generator 0
    /// reads it for everyone), less what the generators' own logs held.
    peak_bytes: usize,
    out: UnitOut,
}

struct ThreadLog {
    warm: UnitOut,
    units: Vec<ThreadUnit>,
    spans: Vec<Span>,
    stages: HashMap<String, [u64; 8]>,
    cpu_ms: f64,
    setup_peak_bytes: usize,
    stack_counters: Vec<(&'static str, f64)>,
}

/// Whether unit `unit` of a traced run records spans (odd units do).
fn unit_is_traced(trace: bool, unit: u32) -> bool {
    trace && unit % 2 == 1
}

pub fn run<W: Workload>(workload: &W, args: RunArgs) -> RunOutput {
    let info = workload.info();
    let mut probe = Probe::new();
    probe.run(); // page the buffers in

    // Set-up phase: `setups` complete cold set-ups, each torn down before
    // the next; the last one stays up and serves the run.
    let mut setups_s = Vec::with_capacity(MAX_SETUPS);
    let mut extra_failed = 0;
    let mut extra_attempted = 0;
    let mut stack = None;
    let setups_started = Instant::now();
    while setups_s.len() < MIN_SETUPS
        || (setups_s.len() < MAX_SETUPS && setups_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some(old) = stack.take() {
            workload.teardown(old);
        }
        let before = probe.run();
        let start = Instant::now();
        let built = workload.setup();
        let (sent, wrong) = workload.first_requests(&built);
        let raw_s = start.elapsed().as_secs_f64();
        let after = probe.run();
        extra_attempted += sent;
        extra_failed += wrong;
        setups_s.push(raw_s / ((before + after) / 2.0 / PROBE_REF_MS[0]));
        stack = Some(built);
    }
    let stack = stack.expect("at least one set-up");

    let barrier = Barrier::new(info.probers);
    let stop = AtomicBool::new(false);
    // Heap held by the generators' own per-unit logs so far: it grows with
    // the number of units, so it is taken out of the unit peaks — otherwise
    // a faster machine (more units) would read as a bigger program.
    let logged_bytes = AtomicUsize::new(0);
    let epoch = Instant::now();
    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..info.probers)
            .map(|g| {
                let (barrier, stop, stack, logged_bytes) = (&barrier, &stop, &stack, &logged_bytes);
                scope.spawn(move || {
                    let mut client: Box<dyn Client + '_> = if g < info.generators {
                        workload.client(stack, g)
                    } else {
                        Box::new(ProbeOnly)
                    };
                    let mut probe = Probe::new();
                    probe.run(); // page the buffers in
                    let mut tracer = Tracer::new(epoch, g);
                    let mut log = ThreadLog {
                        warm: UnitOut::default(),
                        units: Vec::new(),
                        spans: Vec::new(),
                        stages: HashMap::new(),
                        cpu_ms: 0.0,
                        setup_peak_bytes: 0,
                        stack_counters: Vec::new(),
                    };
                    client.warm_up(&mut log.warm);
                    barrier.wait();
                    let phase_start = Instant::now();
                    let cpu_start = crate::alloc::process_cpu_ms();
                    if g == 0 {
                        log.setup_peak_bytes = crate::alloc::take_peak_bytes();
                    }
                    let mut before = probe.run();
                    for unit in 1u32.. {
                        let logged_before = logged_bytes.load(Ordering::Relaxed);
                        barrier.wait();
                        let mut out = UnitOut::default();
                        let start = Instant::now();
                        let traced = unit_is_traced(args.trace, unit);
                        client.run_unit(unit, &mut out, traced.then_some(&mut tracer));
                        let end = Instant::now();
                        barrier.wait();
                        let peak_bytes = if g == 0 {
                            crate::alloc::take_peak_bytes().saturating_sub(logged_before)
                        } else {
                            0
                        };
                        let after = probe.run();
                        logged_bytes.fetch_add(out.heap_bytes(), Ordering::Relaxed);
                        log.units.push(ThreadUnit {
                            start,
                            end,
                            probe_before_ms: before,
                            probe_after_ms: after,
                            peak_bytes,
                            out,
                        });
                        before = after;
                        if g == 0 {
                            if traced {
                                workload.collect_stages(stack, &mut log.stages);
                            }
                            let done = phase_start.elapsed().as_secs_f64() >= args.seconds;
                            stop.store(done, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    if g == 0 {
                        log.cpu_ms = crate::alloc::process_cpu_ms() - cpu_start;
                        if args.trace {
                            log.stack_counters = workload.stack_counters(stack);
                        }
                    }
                    log.spans = tracer.spans;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let runtime = workload.teardown(stack);

    // Merge the generators' logs unit by unit.
    let mut out = RunOutput {
        setups_s,
        units: Vec::new(),
        traced_units: Vec::new(),
        spans: Vec::new(),
        admin_ms: Vec::new(),
        lag_ms: Vec::new(),
        extra_attempted,
        extra_failed,
        admin_failed: 0,
        cpu_ms: logs[0].cpu_ms,
        setup_peak_bytes: logs[0].setup_peak_bytes,
        runtime,
        stack_counters: Vec::new(),
    };
    let unit_count = logs[0].units.len();
    let mut stages = HashMap::new();
    let mut per_thread: Vec<std::vec::IntoIter<ThreadUnit>> = Vec::new();
    for mut log in logs {
        out.extra_attempted += log.warm.samples.len() + log.warm.admin_ms.len();
        out.extra_failed +=
            log.warm.samples.iter().filter(|s| !s.ok).count() + log.warm.admin_failed;
        out.spans.append(&mut log.spans);
        stages.extend(log.stages);
        if !log.stack_counters.is_empty() {
            out.stack_counters = log.stack_counters;
        }
        per_thread.push(log.units.into_iter());
    }
    for index in 0..unit_count {
        let parts: Vec<ThreadUnit> = per_thread
            .iter_mut()
            .map(|it| it.next().expect("every generator ran every unit"))
            .collect();
        let start = parts.iter().map(|p| p.start).min().expect("a generator");
        let end = parts.iter().map(|p| p.end).max().expect("a generator");
        let probe_ms: f64 = parts
            .iter()
            .map(|p| (p.probe_before_ms + p.probe_after_ms) / 2.0)
            .sum::<f64>()
            / parts.len() as f64;
        let peak_bytes = parts[0].peak_bytes;
        let mut samples = Vec::new();
        for mut part in parts {
            samples.append(&mut part.out.samples);
            out.admin_ms.append(&mut part.out.admin_ms);
            out.lag_ms.append(&mut part.out.lag_ms);
            out.admin_failed += part.out.admin_failed;
        }
        let unit = Unit {
            raw_s: end.duration_since(start).as_secs_f64(),
            scale: info.scale(probe_ms),
            peak_bytes,
            samples,
        };
        // Units are numbered from 1 (0 is the warm-up).
        if unit_is_traced(args.trace, index as u32 + 1) {
            out.traced_units.push(unit);
        } else {
            out.units.push(unit);
        }
    }
    crate::trace::attach_http_stages(&mut out.spans, &stages);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RequestKey;

    /// Two generators that "serve" instantly; generator 0 also makes one
    /// admin call per unit.
    struct Fake;

    struct FakeClient(usize);

    impl Client for FakeClient {
        fn run_unit(&mut self, unit: u32, out: &mut UnitOut, tracer: Option<&mut Tracer>) {
            let start = Instant::now();
            for index in 0..3 {
                out.samples.push(Sample {
                    raw_ms: 1.0 + self.0 as f64,
                    ok: true,
                });
                out.lag_ms.push(0.5);
                let _ = index;
            }
            if self.0 == 0 {
                out.admin_ms.push(2.0);
            }
            if let Some(t) = tracer {
                let key = RequestKey {
                    generator: self.0 as u16,
                    unit,
                    index: 0,
                };
                t.root("session.infer", key, start, Instant::now());
            }
        }
    }

    impl Workload for Fake {
        type Stack = ();

        fn info(&self) -> Info {
            Info {
                name: "fake",
                generators: 2,
                probers: 2,
                ref_p90_ms: 1.0,
                sensitivity: 1.0,
                model: crate::models::lite(),
            }
        }
        fn files(&self) -> &crate::models::ModelFiles {
            unreachable!("the fake workload has no model")
        }
        fn setup(&self) {}
        fn first_requests(&self, (): &()) -> (usize, usize) {
            (2, 0)
        }
        fn teardown(&self, (): ()) -> Option<RuntimeStats> {
            None
        }
        fn client<'a>(&'a self, (): &'a (), generator: usize) -> Box<dyn Client + 'a> {
            Box::new(FakeClient(generator))
        }
    }

    #[test]
    fn scale_is_the_probe_slowdown_raised_to_the_sensitivity() {
        let like_the_probe = Fake.info();
        let two = like_the_probe.probe_ref_ms();
        assert_eq!(
            two, PROBE_REF_MS[1],
            "two probing threads use the two-thread reference"
        );
        assert!((like_the_probe.scale(two) - 1.0).abs() < 1e-12);
        assert!((like_the_probe.scale(1.2 * two) - 1.2).abs() < 1e-12);
        let touchier = Info {
            sensitivity: 1.5,
            ..like_the_probe
        };
        assert!((touchier.scale(1.2 * two) - 1.2f64.powf(1.5)).abs() < 1e-12);
        assert!((touchier.scale(two) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generators_merge_into_units_and_everything_is_counted() {
        let out = run(
            &Fake,
            RunArgs {
                seed: 1,
                seconds: 0.05,
                trace: false,
            },
        );
        let setups = out.setups_s.len();
        assert!(
            (MIN_SETUPS + 1..=MAX_SETUPS).contains(&setups),
            "instant set-ups repeat until the time budget or the cap: {setups}"
        );
        assert!(!out.units.is_empty() && out.traced_units.is_empty() && out.spans.is_empty());
        for unit in &out.units {
            assert_eq!(unit.samples.len(), 6, "three samples from each generator");
            assert!(unit.scale > 0.0 && unit.raw_s >= 0.0);
        }
        assert_eq!(out.admin_ms.len(), out.units.len());
        assert_eq!(out.lag_ms.len(), 6 * out.units.len());
        // Two requests per set-up, plus the warm-up unit of both
        // generators (3 + 3 samples and one admin call).
        assert_eq!(
            (out.extra_attempted, out.extra_failed, out.admin_failed),
            (2 * setups + 7, 0, 0)
        );
    }

    #[test]
    fn a_traced_run_alternates_traced_and_untraced_units() {
        let out = run(
            &Fake,
            RunArgs {
                seed: 1,
                seconds: 0.1,
                trace: true,
            },
        );
        let (traced, untraced) = (out.traced_units.len(), out.units.len());
        assert!(
            traced >= 1 && traced.abs_diff(untraced) <= 1,
            "{traced} traced, {untraced} untraced"
        );
        // Unit 1 is traced; one root per generator per traced unit.
        assert_eq!(out.spans.len(), 2 * traced);
        assert!(out.spans.iter().all(|s| s.request.unit % 2 == 1));
        crate::trace::check(&out.spans).unwrap();
    }
}
