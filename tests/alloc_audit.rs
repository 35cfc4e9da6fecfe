//! Steady-state allocation audit of the planned executor.
//!
//! A counting global allocator wraps the system allocator; after the
//! warm-up forward has built the plan and grown the workspace buffers,
//! `forward_planned` must allocate **nothing but the returned output
//! tensor** (its data vector plus its shape vector). `forward` — the same
//! executor with slot reuse off, a fresh buffer per value — is measured
//! alongside as a contrast, proving the audit would catch a regression.
//!
//! The same test then serves the four shapes a paper-profile session sees
//! (the 32×32 light image and the 40×40 / 40×24 / 24×24 tiles of the heavy
//! one) through one workspace and checks the arena side: the float scratch
//! never outgrows one image's zero-padded input planes — no
//! `IC·k²·oh·ow` staging buffer exists — and a second pass over the shapes
//! regrows nothing. And the same for the transformer profile
//! (`session_transformer`'s SwinIR-lite at 16×16, 24×24, 16×16): what
//! window attention stages lives in the same scratch, is counted in
//! `Workspace::memory_bytes`, and stops growing after the first pass.
//!
//! This file holds exactly one test: the counter is process-global, and
//! the default test harness runs tests concurrently — a sibling test's
//! allocations would pollute the deltas. It runs the audit once per
//! backend, one after the other.

use scales::core::Method;
use scales::models::{srresnet, swinir, SrConfig, SrNetwork, Workspace};
use scales::tensor::backend::{self, Backend};
use scales::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with an allocation-event counter (frees are not
/// counted; the audit is about acquiring memory on the hot path).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_planned_forward_allocates_only_the_output() {
    for be in [Backend::Scalar, Backend::Simd] {
        backend::with_thread_backend(be, steady_state_audit);
    }
}

fn steady_state_audit() {
    let net = srresnet(SrConfig {
        channels: 8,
        blocks: 2,
        scale: 2,
        method: Method::scales(),
        seed: 90,
    })
    .unwrap();
    let deployed = net.lower().unwrap();
    let batch = Tensor::from_vec(
        (0..3 * 16 * 16).map(|i| ((i as f32) * 0.11).sin() * 0.4 + 0.5).collect(),
        &[1, 3, 16, 16],
    )
    .unwrap();

    let mut ws = Workspace::new();
    // Warm-up: builds the plan, grows the arena slots and every scratch
    // buffer to their steady-state sizes.
    for _ in 0..2 {
        let _ = deployed.forward_planned(&batch, &mut ws).unwrap();
    }

    const REPS: usize = 5;
    let before = allocations();
    for _ in 0..REPS {
        let out = deployed.forward_planned(&batch, &mut ws).unwrap();
        assert_eq!(out.shape(), &[1, 3, 32, 32]);
    }
    let planned_per_call = (allocations() - before) / REPS;
    // The output tensor is the only permitted acquisition: its data
    // vector plus its shape vector.
    assert!(
        planned_per_call <= 2,
        "steady-state planned forward must allocate only the output tensor, \
         got {planned_per_call} allocations per call"
    );

    // Contrast: `forward` is the same executor with slot reuse off — a
    // fresh buffer per value, a fresh scratch and a schedule built per
    // call (measured: 41 allocations per call for this 11-op graph,
    // against the planned path's 2). If that were small too, the audit
    // above would be vacuous.
    let before = allocations();
    for _ in 0..REPS {
        let _ = deployed.forward(&batch).unwrap();
    }
    let reuse_off_per_call = (allocations() - before) / REPS;
    assert!(
        reuse_off_per_call >= deployed.num_ops(),
        "the reuse-off forward must allocate at least one buffer per value, \
         got {reuse_off_per_call} for {} ops",
        deployed.num_ops()
    );

    mixed_shapes_audit();
    transformer_audit();
}

/// One workspace (what a `Session` owns) serving a paper-width network at
/// the shapes `session_cnn` produces.
fn mixed_shapes_audit() {
    const CHANNELS: usize = 64;
    let net = srresnet(SrConfig {
        channels: CHANNELS,
        blocks: 1,
        scale: 4,
        method: Method::scales(),
        seed: 91,
    })
    .unwrap();
    let deployed = net.lower().unwrap();
    let shapes = [(32, 32), (40, 40), (40, 24), (24, 24)];
    let inputs: Vec<Tensor> = shapes.iter().map(|&(h, w)| probe(h, w)).collect();

    let mut ws = Workspace::new();
    serve_all(&deployed, &inputs, &mut ws);
    // The widest float conv input is the tail's: 64 channels of the
    // 40×40 tile, padded by one pixel. The kernel needs no slack past it.
    let padded = ws.scratch().padded.capacity();
    assert!(
        padded <= CHANNELS * 42 * 42,
        "float scratch holds {padded} floats: more than one image's padded planes ({})",
        CHANNELS * 42 * 42
    );
    assert_second_pass_allocates_only_outputs(&deployed, &inputs, &mut ws);
}

fn probe(h: usize, w: usize) -> Tensor {
    Tensor::from_vec((0..3 * h * w).map(|i| ((i as f32) * 0.13).sin() * 0.4 + 0.5).collect(), &[1, 3, h, w])
        .unwrap()
}

fn serve_all(deployed: &scales::models::DeployedNetwork, inputs: &[Tensor], ws: &mut Workspace) {
    for x in inputs {
        let _ = deployed.forward_planned(x, ws).unwrap();
    }
}

/// After `ws` has served `inputs` once, serving them again acquires nothing
/// but the outputs and leaves every arena slot and scratch buffer as it was.
fn assert_second_pass_allocates_only_outputs(
    deployed: &scales::models::DeployedNetwork,
    inputs: &[Tensor],
    ws: &mut Workspace,
) {
    let resident = ws.memory_bytes();
    let before = allocations();
    serve_all(deployed, inputs, ws);
    let second_pass = allocations() - before;
    assert!(
        second_pass <= 2 * inputs.len(),
        "a second pass over served shapes must allocate only its outputs, got {second_pass} allocations"
    );
    assert_eq!(ws.memory_bytes(), resident, "no arena slot or scratch buffer regrew");
}

/// One workspace serving the benchmark's SwinIR-lite profile at the shapes
/// `session_transformer` sends: light, heavy, light again.
fn transformer_audit() {
    const CHANNELS: usize = 32;
    const WINDOW: usize = 4;
    let net = swinir(SrConfig { channels: CHANNELS, blocks: 4, scale: 2, method: Method::scales(), seed: 12 })
        .unwrap();
    let deployed = net.lower().unwrap();
    assert_eq!(deployed.packed_layers(), 4 * (6 + 1) + 1);
    let inputs = [probe(16, 16), probe(24, 24), probe(16, 16)];

    let mut ws = Workspace::new();
    serve_all(&deployed, &inputs, &mut ws);
    // What attention stages — one window's q / k / v tiles, its t × t
    // scores and two rows of t — shares the float scratch with the padded
    // conv planes, so it is charged to the workspace by capacity; here the
    // tail's padded 24×24 input is the larger of the two.
    let t = WINDOW * WINDOW;
    let padded = ws.scratch().padded.capacity();
    assert!(padded >= 3 * CHANNELS * t + t * t + 2 * t, "attention staging missing from the scratch: {padded}");
    assert!(padded <= CHANNELS * 26 * 26, "float scratch holds {padded} floats");
    assert!(ws.memory_bytes() >= ws.scratch().memory_bytes() + 4 * ws.plans()[1].arena_len());
    assert_second_pass_allocates_only_outputs(&deployed, &inputs, &mut ws);
}
