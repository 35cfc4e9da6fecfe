//! `session_cnn` and `session_transformer`: one thread, closed loop,
//! `Session::infer` on an engine loaded from disk. No runtime, router,
//! HTTP or codec is on the path.

use crate::harness::{Client, Info, UnitOut, Workload};
use crate::models::{ModelFiles, ModelSpec};
use crate::schedule::{checksum, CycleImages, CYCLE, HEAVY_SLOT};
use crate::stats::Sample;
use crate::trace::{RequestKey, Tracer};
use scales_runtime::RuntimeStats;
use scales_serve::{Engine, Precision, Session, SrRequest, SrResponse};
use std::path::Path;
use std::time::Instant;

pub struct SessionWorkload {
    info: Info,
    traffic: Traffic,
}

/// One generator's cycle of single-image requests against one model file,
/// with the oracle: the checksum of each slot's reference output, computed
/// by a serial `Session` on the same file before the run.
pub struct Traffic {
    pub files: ModelFiles,
    pub requests: Vec<SrRequest>,
    expect: Vec<u64>,
}

impl Traffic {
    pub fn prepare(info: &Info, seed: u64, dir: &Path) -> Self {
        let files = crate::models::write(&info.model, dir, "model");
        let cycle = CycleImages::new(seed, 0, info.model.light, info.model.heavy);
        let reference = engine(&info.model, files.serving_path());
        let session = reference.session();
        let expect = cycle
            .images
            .iter()
            .map(|img| checksum(&session.super_resolve(img).expect("reference forward")))
            .collect();
        let requests = cycle.images.into_iter().map(SrRequest::single).collect();
        Self {
            files,
            requests,
            expect,
        }
    }

    /// Whether `response` is slot `slot`'s one image, bit for bit.
    pub fn matches(&self, slot: usize, response: &SrResponse) -> bool {
        response.images().len() == 1 && checksum(&response.images()[0]) == self.expect[slot]
    }
}

/// A unit is one cycle of five: 0.6-1.4 s of work on the reference box.
const CYCLES_PER_UNIT: usize = 1;

/// The engine both the workload and its oracle serve through: whatever the
/// model file holds, `Precision::Deployed` requested, the spec's tile
/// policy, everything else the library default.
pub fn engine(spec: &ModelSpec, path: &Path) -> Engine<'static> {
    Engine::builder()
        .model_path(path)
        .precision(Precision::Deployed)
        .tile_policy(spec.tile)
        .build()
        .expect("benchmark model loads")
}

impl SessionWorkload {
    pub fn prepare(info: Info, seed: u64, dir: &Path) -> Self {
        Self {
            info,
            traffic: Traffic::prepare(&info, seed, dir),
        }
    }

    fn serve(&self, session: &Session<'_, '_>, slot: usize) -> (Instant, Instant, bool) {
        let request = self.traffic.requests[slot].clone();
        let start = Instant::now();
        let response = session.infer(request);
        let end = Instant::now();
        let ok = response.is_ok_and(|r| self.traffic.matches(slot, &r));
        (start, end, ok)
    }
}

impl Workload for SessionWorkload {
    type Stack = Engine<'static>;

    fn info(&self) -> Info {
        self.info
    }

    fn files(&self) -> &ModelFiles {
        &self.traffic.files
    }

    fn setup(&self) -> Engine<'static> {
        engine(&self.info.model, self.traffic.files.serving_path())
    }

    fn first_requests(&self, stack: &Engine<'static>) -> (usize, usize) {
        let session = stack.session();
        let wrong = [0, HEAVY_SLOT]
            .iter()
            .filter(|&&slot| !self.serve(&session, slot).2)
            .count();
        (2, wrong)
    }

    fn teardown(&self, stack: Engine<'static>) -> Option<RuntimeStats> {
        drop(stack);
        None
    }

    fn client<'a>(&'a self, stack: &'a Engine<'static>, _generator: usize) -> Box<dyn Client + 'a> {
        Box::new(SessionClient {
            workload: self,
            session: stack.session(),
        })
    }
}

struct SessionClient<'a> {
    workload: &'a SessionWorkload,
    session: Session<'a, 'static>,
}

impl Client for SessionClient<'_> {
    fn run_unit(&mut self, unit: u32, out: &mut UnitOut, mut tracer: Option<&mut Tracer>) {
        let mut previous_end = None;
        for index in 0..CYCLES_PER_UNIT * CYCLE {
            let (start, end, ok) = self.workload.serve(&self.session, index % CYCLE);
            if let Some(prev) = previous_end {
                out.lag_ms
                    .push(start.duration_since(prev).as_secs_f64() * 1e3);
            }
            previous_end = Some(end);
            out.samples.push(Sample {
                raw_ms: end.duration_since(start).as_secs_f64() * 1e3,
                ok,
            });
            if let Some(t) = tracer.as_deref_mut() {
                let key = RequestKey {
                    generator: 0,
                    unit,
                    index: index as u32,
                };
                t.root("session.infer", key, start, end);
            }
        }
    }
}
