//! The calibration probe: a fixed amount of f32 multiply-add work over two
//! 64 KB buffers (cache-resident, bound by the core). It runs between work
//! units on every probing thread at once, and its duration relative to a
//! committed quiet-machine reference is how much slower than quiet this
//! machine was around that unit. Time metrics are divided by that.
//!
//! This file calls nothing outside `std` and must never change: every
//! normalised number in the repository's history is relative to exactly
//! this loop. The footprint stays small on purpose: an 8 MB streaming probe
//! evicted the model and slowed the workload it was meant to calibrate, and
//! 1 MB buffers tracked the workloads worse than these (README, noise study).

use std::hint::black_box;
use std::time::Instant;

/// f32 lanes per buffer: 64 KB.
const LANES: usize = 16 * 1024;
/// The work is cut into this many equal slices, each timed on its own; the
/// probe's reading is the median slice times the slice count, so a
/// preemption or hypervisor stall that lands inside the probe (4 ms
/// scheduler slices under the two-thread workloads, tens of milliseconds a
/// few times a minute from the host) cannot pass for a slow machine.
const SLICES: usize = 9;
/// Passes over the buffers per slice: about 0.8 ms on the reference box,
/// ~7 ms for the nine slices.
const PASSES: usize = 320;

/// Reusable probe state, one per probing thread, so the probe itself
/// allocates nothing while measuring.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            a: vec![0.0; LANES],
            b: vec![0.0; LANES],
        }
    }

    /// Run the fixed work once; returns its stall-free wall time in
    /// milliseconds.
    pub fn run(&mut self) -> f64 {
        for (i, (a, b)) in self.a.iter_mut().zip(self.b.iter_mut()).enumerate() {
            *a = 0.5 + (i % 7) as f32 * 0.01;
            *b = 0.999 + (i % 5) as f32 * 0.0001;
        }
        let mut slices = [0.0f64; SLICES];
        for slice in &mut slices {
            let start = Instant::now();
            for _ in 0..PASSES {
                let (a, b) = (black_box(&mut self.a), black_box(&self.b));
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x = *x * *y + 0.001;
                }
            }
            *slice = start.elapsed().as_secs_f64() * 1e3;
        }
        black_box(&self.a);
        slices.sort_by(f64::total_cmp);
        slices[SLICES / 2] * SLICES as f64
    }
}
