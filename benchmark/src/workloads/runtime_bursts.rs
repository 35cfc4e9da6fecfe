//! `runtime_bursts`: one generator thread straight into `Runtime::submit`,
//! no HTTP. A burst is 40 single-image requests submitted back to back,
//! all due at the burst's start instant, then every ticket is awaited; the
//! queue is deep, so admission order, EDF, the weighted tenant lanes and
//! the cross-request batcher decide the numbers. Bursts drain fully before
//! the probe, so neighbour noise cannot compound into a backlog.

use super::session::Traffic;
use crate::harness::{Client, Info, UnitOut, Workload};
use crate::models::ModelFiles;
use crate::schedule::{CYCLE, HEAVY_SLOT};
use crate::stats::Sample;
use crate::trace::{RequestKey, Tracer, RUNTIME_STAGES};
use scales_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use scales_serve::SrRequest;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests per burst: eight cycles of five (32 light, 8 heavy).
pub const BURST: usize = 8 * CYCLE;
/// Bursts per unit.
const BURSTS_PER_UNIT: usize = 8;
/// Every fourth request carries this deadline, counted from the burst
/// start. It only has to order the queue (deadline-tagged heads go first):
/// a burst drains in ~50 ms, and the deadline is far enough out that a
/// hypervisor stall of a second cannot expire a request and fail the run
/// (500 ms did, once in fifty runs).
const DEADLINE: Duration = Duration::from_secs(5);
/// Warm-up volleys per shape (see `BurstClient::saturate`).
const VOLLEYS: usize = 3;
const TENANTS: [&str; 2] = ["gold", "bronze"];

pub struct BurstWorkload {
    info: Info,
    traffic: Traffic,
}

/// Library defaults plus the two weighted tenants; the profiler switch is
/// pinned off so the environment cannot change the program under test.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        tenant_weights: vec![(TENANTS[0].into(), 3), (TENANTS[1].into(), 1)],
        profile_ops: false,
        ..RuntimeConfig::default()
    }
}

impl BurstWorkload {
    pub fn prepare(info: Info, seed: u64, dir: &Path) -> Self {
        Self {
            info,
            traffic: Traffic::prepare(&info, seed, dir),
        }
    }

    /// Request `index` of a burst that started at `burst_start`.
    fn request(&self, index: usize, burst_start: Instant) -> SrRequest {
        let request = self.traffic.requests[index % CYCLE]
            .clone()
            .tenant(TENANTS[index % 2]);
        if index % 4 == 3 {
            request.deadline_at(burst_start + DEADLINE)
        } else {
            request
        }
    }
}

impl Workload for BurstWorkload {
    type Stack = Runtime;

    fn info(&self) -> Info {
        self.info
    }

    fn files(&self) -> &ModelFiles {
        &self.traffic.files
    }

    fn setup(&self) -> Runtime {
        let engine = super::session::engine(&self.info.model, self.traffic.files.serving_path());
        Runtime::spawn(engine, runtime_config()).expect("runtime spawns")
    }

    fn first_requests(&self, stack: &Runtime) -> (usize, usize) {
        let wrong = [0, HEAVY_SLOT]
            .iter()
            .filter(|&&slot| {
                let served = stack
                    .submit(self.traffic.requests[slot].clone())
                    .ok()
                    .and_then(|t| t.wait().ok());
                served.is_none_or(|r| !self.traffic.matches(slot, &r))
            })
            .count();
        (2, wrong)
    }

    fn teardown(&self, stack: Runtime) -> Option<RuntimeStats> {
        Some(stack.shutdown())
    }

    fn client<'a>(&'a self, stack: &'a Runtime, _generator: usize) -> Box<dyn Client + 'a> {
        Box::new(BurstClient {
            workload: self,
            runtime: stack,
        })
    }
}

struct BurstClient<'a> {
    workload: &'a BurstWorkload,
    runtime: &'a Runtime,
}

impl BurstClient<'_> {
    /// Volleys of `2 x max_batch` same-shape requests, heavy then light, so
    /// each of the two workers has dispatched a full batch of either shape
    /// and grown its arena to the largest it will ever need. Without this
    /// the heap peak of a run depends on when (and whether) the first
    /// all-heavy batch happens to form.
    fn saturate(&self, out: &mut UnitOut) {
        let traffic = &self.workload.traffic;
        let volley = 2 * runtime_config().max_batch;
        for slot in [HEAVY_SLOT, 0] {
            for _ in 0..VOLLEYS {
                let start = Instant::now();
                let tickets: Vec<_> = (0..volley)
                    .map(|_| {
                        self.runtime
                            .submit(traffic.requests[slot].clone().tenant(TENANTS[0]))
                    })
                    .collect();
                for ticket in tickets {
                    let ok = ticket
                        .ok()
                        .and_then(|t| t.wait().ok())
                        .is_some_and(|r| traffic.matches(slot, &r));
                    out.samples.push(Sample {
                        raw_ms: start.elapsed().as_secs_f64() * 1e3,
                        ok,
                    });
                }
            }
        }
    }
}

impl Client for BurstClient<'_> {
    fn warm_up(&mut self, out: &mut UnitOut) {
        self.saturate(out);
        self.run_unit(0, out, None);
    }

    fn run_unit(&mut self, unit: u32, out: &mut UnitOut, mut tracer: Option<&mut Tracer>) {
        for burst in 0..BURSTS_PER_UNIT {
            let burst_start = Instant::now();
            let tickets: Vec<_> = (0..BURST)
                .map(|index| {
                    let request = self.workload.request(index, burst_start);
                    let submitted = Instant::now();
                    out.lag_ms
                        .push(submitted.duration_since(burst_start).as_secs_f64() * 1e3);
                    (submitted, self.runtime.submit(request))
                })
                .collect();
            for (index, (submitted, ticket)) in tickets.into_iter().enumerate() {
                let response = ticket.ok().and_then(|t| t.wait().ok());
                let waited = Instant::now();
                let stamps = response.as_ref().and_then(scales_serve::SrResponse::stamps);
                let ok = response.is_some_and(|r| self.workload.traffic.matches(index % CYCLE, &r));
                // Every request of a burst is due at the burst's start, so
                // its latency runs from there to the end of its forward.
                let done = stamps.map_or(waited, |s| s.infer_done);
                out.samples.push(Sample {
                    raw_ms: done.duration_since(burst_start).as_secs_f64() * 1e3,
                    ok,
                });
                if let Some(t) = tracer.as_deref_mut() {
                    let key = RequestKey {
                        generator: 0,
                        unit,
                        index: (burst * BURST + index) as u32,
                    };
                    let root = t.root("runtime.request", key, submitted, waited);
                    if let Some(s) = stamps {
                        t.children(
                            root,
                            &RUNTIME_STAGES,
                            &[s.enqueued, s.dequeued, s.sealed, s.infer_done],
                        );
                    }
                }
            }
        }
    }
}
