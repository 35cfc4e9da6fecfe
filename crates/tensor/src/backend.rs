//! Kernel-dispatch backend: every hot loop in the workspace (GEMM, im2col
//! convolution batches, large elementwise reductions, and the
//! output-channel loops of the two direct convolutions — float in
//! [`crate::ops::direct`], XNOR-popcount in `scales-binary`) routes
//! through the [`Kernel`] selected here.
//!
//! Three kernels ship:
//!
//! * [`ScalarKernel`] — the single-threaded reference; byte-for-byte the
//!   seed semantics.
//! * [`ParallelKernel`] — splits row-blocks across `std::thread::scope`
//!   workers. Each worker runs the *same* inner loop over a disjoint slice
//!   of the output, so results are bit-identical to the scalar kernel
//!   regardless of thread count.
//! * [`SimdKernel`] — the compiled default: runs the x86-64 vector
//!   kernels (AVX2 float GEMM, the direct float and binary convolutions
//!   compiled for the detected level up to AVX-512) when the CPU supports
//!   them
//!   (`is_x86_feature_detected!`, see [`crate::simd`]), falling back to
//!   the scalar loops on non-x86-64 targets or older CPUs. Results are
//!   bit-identical to the scalar kernel by construction (fixed per-lane
//!   summation order; see the [`crate::simd`] docs).
//!
//! Selection is layered, most specific first:
//!
//! 1. thread-scoped handle — [`with_thread_backend`] runs a closure with a
//!    backend passed by value, visible only on the calling thread. This is
//!    how `scales-serve` engines carry their own backend without touching
//!    process state: two engines on different threads can run different
//!    kernels concurrently.
//! 2. runtime — [`set_backend`] overrides the process-wide selection
//!    (tests and benches use this to compare kernels in one process);
//! 3. process environment — `SCALES_BACKEND=scalar|parallel|simd`
//!    (case-insensitive) overrides the compiled default at first use. An
//!    unrecognized value is a hard error (panic at first dispatch), never a
//!    silent fallback;
//! 4. compile-time default — `Backend::Simd` (the best ISA level detected
//!    on this CPU, the scalar loops where there is none), or
//!    `Backend::Parallel` when the crate's `parallel` feature is enabled.
//!    `Backend::Scalar` stays selectable as the portable reference.
//!
//! ```
//! use scales_tensor::backend::{self, Backend};
//!
//! let prev = backend::active();
//! backend::set_backend(Backend::Parallel);
//! assert_eq!(backend::active(), Backend::Parallel);
//! // A thread-scoped handle beats the process-wide selection…
//! backend::with_thread_backend(Backend::Scalar, || {
//!     assert_eq!(backend::active(), Backend::Scalar);
//! });
//! // …and is gone once the scope ends.
//! assert_eq!(backend::active(), Backend::Parallel);
//! backend::set_backend(prev);
//! ```

use crate::simd::SimdLevel;
use crate::TensorError;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation executes the routed hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Single-threaded portable reference loops. As the `Default` this
    /// is the zero value of a stats record, not the backend a process
    /// runs (that is [`active`]).
    #[default]
    Scalar,
    /// Row-blocked loops dispatched over `std::thread::scope` workers.
    Parallel,
    /// Runtime-detected x86-64 vector kernels (AVX2 float GEMM, the direct
    /// float and binary convolutions at the detected level), falling back to the scalar
    /// loops on hardware without them — the compiled default. Always valid
    /// to select; see [`Backend::detected`] for what the CPU actually
    /// offers.
    Simd,
}

impl Backend {
    /// The kernel implementing this backend.
    #[must_use]
    pub fn kernel(self) -> &'static dyn Kernel {
        match self {
            Backend::Scalar => &ScalarKernel,
            Backend::Parallel => &ParallelKernel,
            Backend::Simd => &SimdKernel,
        }
    }

    /// Stable display name (`"scalar"` / `"parallel"` / `"simd"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Parallel => "parallel",
            Backend::Simd => "simd",
        }
    }

    /// The CPU feature level found at runtime — what [`Backend::Simd`]
    /// will actually dispatch on this machine. Probed once per process
    /// via `is_x86_feature_detected!` ([`crate::simd::detected`]).
    #[must_use]
    pub fn detected() -> SimdLevel {
        crate::simd::detected()
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = TensorError;

    /// Parse a backend name, case-insensitively (`"scalar"`, `"Parallel"`,
    /// `"SIMD"`, …).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] naming the valid values for
    /// anything else — unrecognized backends are an error, never a silent
    /// scalar fallback.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("scalar") {
            Ok(Backend::Scalar)
        } else if s.eq_ignore_ascii_case("parallel") {
            Ok(Backend::Parallel)
        } else if s.eq_ignore_ascii_case("simd") {
            Ok(Backend::Simd)
        } else {
            Err(TensorError::InvalidArgument(format!(
                "unrecognized backend {s:?}: expected \"scalar\", \"parallel\" or \"simd\""
            )))
        }
    }
}

const BACKEND_UNSET: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
const BACKEND_PARALLEL: u8 = 2;
const BACKEND_SIMD: u8 = 3;

static ACTIVE: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

fn compiled_default() -> Backend {
    if cfg!(feature = "parallel") {
        Backend::Parallel
    } else {
        Backend::Simd
    }
}

/// The cargo feature set this kernel layer was compiled with, as a
/// stable label value (`"default"` or `"parallel"`). Feature flags only
/// exist at this crate's compile time, so the serving stack's
/// `scales_build_info` metric reads them here instead of re-testing
/// `cfg!` in a crate where the feature is never enabled.
#[must_use]
pub fn compiled_features() -> &'static str {
    if cfg!(feature = "parallel") {
        "parallel"
    } else {
        "default"
    }
}

fn initial_backend() -> Backend {
    match std::env::var("SCALES_BACKEND") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("invalid SCALES_BACKEND environment variable: {e}")),
        Err(_) => compiled_default(),
    }
}

thread_local! {
    /// Thread-scoped backend handle installed by [`with_thread_backend`].
    static THREAD_BACKEND: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// Run `f` with `backend` active on **this thread only**, restoring the
/// previous thread-scoped handle afterwards (including on panic).
///
/// Unlike [`set_backend`] this mutates no process state: the handle is
/// passed by value and consulted before the global selection, so callers
/// (notably `scales-serve` engines) can each carry their own backend while
/// other threads keep theirs.
pub fn with_thread_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_BACKEND.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_BACKEND.with(|c| c.replace(Some(backend))));
    f()
}

/// The currently active backend.
#[must_use]
pub fn active() -> Backend {
    if let Some(b) = THREAD_BACKEND.with(Cell::get) {
        return b;
    }
    match ACTIVE.load(Ordering::Relaxed) {
        BACKEND_SCALAR => Backend::Scalar,
        BACKEND_PARALLEL => Backend::Parallel,
        BACKEND_SIMD => Backend::Simd,
        _ => {
            let b = initial_backend();
            set_backend(b);
            b
        }
    }
}

/// Override the active backend for the whole process.
///
/// **This does not affect running engines or runtimes.** A
/// `scales_serve::Engine` captures its backend **by value** at build time
/// and installs it thread-scoped ([`with_thread_backend`]) around every
/// forward — the thread-scoped handle is consulted *before* this global —
/// so a `scales-runtime` worker pool keeps serving on the backend its
/// engine was built with no matter what is set here. `set_backend` only
/// changes (a) code that dispatches outside any engine/thread scope and
/// (b) the default captured by engines built *afterwards* without an
/// explicit `EngineBuilder::backend` choice.
pub fn set_backend(backend: Backend) {
    let v = match backend {
        Backend::Scalar => BACKEND_SCALAR,
        Backend::Parallel => BACKEND_PARALLEL,
        Backend::Simd => BACKEND_SIMD,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The kernel of the active backend.
#[must_use]
pub fn kernel() -> &'static dyn Kernel {
    active().kernel()
}

/// Run `f` with the given backend active, restoring the previous
/// selection afterwards (including on panic). Test/bench helper.
///
/// Implemented as a thread-scoped handle (see [`with_thread_backend`]),
/// so it composes with nested scopes — the innermost always wins — and
/// never mutates the process-global selection other threads see.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    with_thread_backend(backend, f)
}

/// Work below this many f32 ops stays single-threaded even on the parallel
/// kernel — thread-scope setup would dominate.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 15;

/// A compute kernel the tensor, convolution and binary hot loops dispatch
/// to. Implementations must produce identical numerical results; they may
/// only differ in scheduling.
pub trait Kernel: Send + Sync {
    /// Kernel display name.
    fn name(&self) -> &'static str;

    /// The CPU feature level this kernel dispatches SIMD work at.
    /// [`SimdLevel::None`] for kernels that never vectorize (scalar,
    /// parallel); the detected level for [`SimdKernel`]. The direct float
    /// convolution ([`crate::ops::conv2d_into`]) and the direct binary
    /// convolution in `scales-binary` consult this to pick which
    /// compilation of their one loop runs, keeping the whole selection
    /// behind the one backend dispatch.
    fn simd_level(&self) -> SimdLevel {
        SimdLevel::None
    }

    /// Raw GEMM `c[m×n] += a[m×k] · b[k×n]` over flat row-major slices.
    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// Split `data` into consecutive row-chunks (`row_len` elements per
    /// row) and invoke `f(first_row, chunk)` for each; chunks are disjoint,
    /// so the parallel kernel may run them concurrently. `work_per_row` is
    /// a rough op count used to decide whether threading pays off.
    /// `data.len()` must be a multiple of `row_len`.
    fn for_each_row_chunk(
        &self,
        data: &mut [f32],
        row_len: usize,
        work_per_row: usize,
        f: &(dyn Fn(usize, &mut [f32]) + Sync),
    );

    /// Sum of a flat slice (the elementwise-reduction entry point).
    ///
    /// Both kernels reduce fixed-size blocks in index order (see
    /// [`SUM_BLOCK`]), so the result is identical across backends and core
    /// counts.
    fn sum(&self, data: &[f32]) -> f32 {
        sum_block_serial(data)
    }
}

/// Block size of the deterministic blocked sum: partial sums are taken per
/// `SUM_BLOCK` elements and reduced in block order, so scalar and parallel
/// kernels agree bit-for-bit regardless of thread count. Slices at most
/// one block long reduce to a plain sequential sum.
pub const SUM_BLOCK: usize = 4096;

fn sum_block_serial(data: &[f32]) -> f32 {
    if data.len() <= SUM_BLOCK {
        return data.iter().sum();
    }
    data.chunks(SUM_BLOCK).map(|c| c.iter().sum::<f32>()).sum()
}

/// Serial GEMM building block for callers already inside a parallel
/// region (nesting thread scopes would oversubscribe the machine).
pub fn gemm_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    gemm_rows(a, b, c, 0, m, k, n);
}

/// Reference single-threaded kernel (exact seed semantics).
pub struct ScalarKernel;

/// Column width of the register tile the blocked GEMM accumulates in.
pub(crate) const GEMM_NR: usize = 8;

/// Row height of the register tile (rows of `a` sharing each loaded `b`
/// tile).
pub(crate) const GEMM_MR: usize = 4;

/// Shared inner GEMM row block, register-blocked: output rows are
/// processed in [`GEMM_MR`]-row groups whose [`GEMM_NR`]-wide column tiles
/// live in registers across the whole `k` loop, so each loaded `b` tile is
/// reused [`GEMM_MR`] times instead of once.
///
/// Every output element accumulates its products in ascending-`p` order in
/// every path (row quad, single-row remainder, column tail), which is the
/// same per-element summation order as the plain ikj reference loop —
/// results are bit-identical across kernels, row splits, and tile
/// boundaries.
fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], first_row: usize, rows: usize, k: usize, n: usize) {
    let mut r = 0;
    while r + GEMM_MR <= rows {
        let base = (first_row + r) * k;
        let block = &mut c[r * n..(r + GEMM_MR) * n];
        let (c0, block) = block.split_at_mut(n);
        let (c1, block) = block.split_at_mut(n);
        let (c2, c3) = block.split_at_mut(n);
        gemm_row_quad(
            [
                &a[base..base + k],
                &a[base + k..base + 2 * k],
                &a[base + 2 * k..base + 3 * k],
                &a[base + 3 * k..base + 4 * k],
            ],
            b,
            [c0, c1, c2, c3],
            k,
            n,
        );
        r += GEMM_MR;
    }
    while r < rows {
        let base = (first_row + r) * k;
        gemm_row_single(&a[base..base + k], b, &mut c[r * n..(r + 1) * n], k, n);
        r += 1;
    }
}

/// Four output rows at once: the `GEMM_NR`-wide accumulator tiles of all
/// four rows stay in registers over the full `k` loop.
fn gemm_row_quad(a: [&[f32]; 4], b: &[f32], c: [&mut [f32]; 4], k: usize, n: usize) {
    let [a0, a1, a2, a3] = a;
    let [c0, c1, c2, c3] = c;
    let tiles = n - n % GEMM_NR;
    let mut j = 0;
    while j < tiles {
        let mut t0: [f32; GEMM_NR] = c0[j..j + GEMM_NR].try_into().expect("tile");
        let mut t1: [f32; GEMM_NR] = c1[j..j + GEMM_NR].try_into().expect("tile");
        let mut t2: [f32; GEMM_NR] = c2[j..j + GEMM_NR].try_into().expect("tile");
        let mut t3: [f32; GEMM_NR] = c3[j..j + GEMM_NR].try_into().expect("tile");
        for p in 0..k {
            let bt: &[f32; GEMM_NR] = b[p * n + j..p * n + j + GEMM_NR].try_into().expect("tile");
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            for l in 0..GEMM_NR {
                t0[l] += x0 * bt[l];
                t1[l] += x1 * bt[l];
                t2[l] += x2 * bt[l];
                t3[l] += x3 * bt[l];
            }
        }
        c0[j..j + GEMM_NR].copy_from_slice(&t0);
        c1[j..j + GEMM_NR].copy_from_slice(&t1);
        c2[j..j + GEMM_NR].copy_from_slice(&t2);
        c3[j..j + GEMM_NR].copy_from_slice(&t3);
        j += GEMM_NR;
    }
    for jj in tiles..n {
        let (mut t0, mut t1, mut t2, mut t3) = (c0[jj], c1[jj], c2[jj], c3[jj]);
        for p in 0..k {
            let bv = b[p * n + jj];
            t0 += a0[p] * bv;
            t1 += a1[p] * bv;
            t2 += a2[p] * bv;
            t3 += a3[p] * bv;
        }
        c0[jj] = t0;
        c1[jj] = t1;
        c2[jj] = t2;
        c3[jj] = t3;
    }
}

/// Remainder rows (fewer than [`GEMM_MR`] left): same tile shape, one row.
/// `c_row` may be narrower than `n` (the AVX2 kernel re-enters here for
/// column tails with `b` re-based to the tail's first column); `n` is
/// always the stride between `b` rows.
pub(crate) fn gemm_row_single(a_row: &[f32], b: &[f32], c_row: &mut [f32], k: usize, n: usize) {
    let cols = c_row.len();
    let tiles = cols - cols % GEMM_NR;
    let mut j = 0;
    while j < tiles {
        let mut t: [f32; GEMM_NR] = c_row[j..j + GEMM_NR].try_into().expect("tile");
        for (p, &x) in a_row.iter().enumerate().take(k) {
            let bt: &[f32; GEMM_NR] = b[p * n + j..p * n + j + GEMM_NR].try_into().expect("tile");
            for l in 0..GEMM_NR {
                t[l] += x * bt[l];
            }
        }
        c_row[j..j + GEMM_NR].copy_from_slice(&t);
        j += GEMM_NR;
    }
    for jj in tiles..cols {
        let mut t = c_row[jj];
        for (p, &x) in a_row.iter().enumerate().take(k) {
            t += x * b[p * n + jj];
        }
        c_row[jj] = t;
    }
}

impl Kernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
        gemm_rows(a, b, c, 0, m, k, n);
    }

    fn for_each_row_chunk(
        &self,
        data: &mut [f32],
        row_len: usize,
        _work_per_row: usize,
        f: &(dyn Fn(usize, &mut [f32]) + Sync),
    ) {
        if row_len == 0 || data.is_empty() {
            return;
        }
        debug_assert_eq!(data.len() % row_len, 0, "data must be whole rows");
        f(0, data);
    }
}

/// Runtime-dispatched SIMD kernel: single-threaded like [`ScalarKernel`],
/// but the float GEMM runs on the AVX2 microkernel and the direct float and
/// binary convolutions (via [`Kernel::simd_level`]) run at the detected
/// level when the CPU supports them. Bit-identical to the scalar kernel on every
/// hardware level (see the [`crate::simd`] module docs for the
/// lane-order argument); on non-x86-64 targets or CPUs without the
/// features it *is* the scalar kernel.
pub struct SimdKernel;

impl Kernel for SimdKernel {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn simd_level(&self) -> SimdLevel {
        crate::simd::detected()
    }

    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
        #[cfg(target_arch = "x86_64")]
        if crate::simd::detected().has_avx2() {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { crate::simd::x86::gemm_rows_avx2(a, b, c, 0, m, k, n) };
            return;
        }
        gemm_rows(a, b, c, 0, m, k, n);
    }

    fn for_each_row_chunk(
        &self,
        data: &mut [f32],
        row_len: usize,
        _work_per_row: usize,
        f: &(dyn Fn(usize, &mut [f32]) + Sync),
    ) {
        if row_len == 0 || data.is_empty() {
            return;
        }
        debug_assert_eq!(data.len() % row_len, 0, "data must be whole rows");
        f(0, data);
    }
}

/// Number of workers worth spawning for `chunks` independent chunks.
fn worker_count(chunks: usize) -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(chunks).max(1)
}

/// Blocked multi-threaded kernel.
pub struct ParallelKernel;

impl Kernel for ParallelKernel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
        let workers = worker_count(m);
        if workers <= 1 || m * k * n < PARALLEL_FLOP_THRESHOLD {
            gemm_rows(a, b, c, 0, m, k, n);
            return;
        }
        // Split output rows into one block per worker; each worker owns a
        // disjoint &mut slice of c, so no synchronisation is needed.
        let rows_per = m.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut rest = &mut c[..m * n];
            let mut row = 0;
            while row < m {
                let take = rows_per.min(m - row);
                let (chunk, tail) = rest.split_at_mut(take * n);
                rest = tail;
                let first = row;
                scope.spawn(move || gemm_rows(a, b, chunk, first, take, k, n));
                row += take;
            }
        });
    }

    fn for_each_row_chunk(
        &self,
        data: &mut [f32],
        row_len: usize,
        work_per_row: usize,
        f: &(dyn Fn(usize, &mut [f32]) + Sync),
    ) {
        if row_len == 0 || data.is_empty() {
            return;
        }
        debug_assert_eq!(data.len() % row_len, 0, "data must be whole rows");
        let rows = data.len() / row_len;
        let workers = worker_count(rows);
        if workers <= 1 || rows * work_per_row < PARALLEL_FLOP_THRESHOLD {
            f(0, data);
            return;
        }
        let rows_per = rows.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut row = 0;
            while row < rows {
                let take = rows_per.min(rows - row);
                let (chunk, tail) = rest.split_at_mut(take * row_len);
                rest = tail;
                let first = row;
                scope.spawn(move || f(first, chunk));
                row += take;
            }
        });
    }

    fn sum(&self, data: &[f32]) -> f32 {
        let blocks = data.len().div_ceil(SUM_BLOCK);
        let workers = worker_count(blocks);
        if workers <= 1 || data.len() < PARALLEL_FLOP_THRESHOLD {
            return sum_block_serial(data);
        }
        // Same fixed-size block partials as the serial path, computed
        // concurrently and reduced in block order — bit-identical to
        // ScalarKernel::sum on any core count.
        let mut partials = vec![0.0f32; blocks];
        std::thread::scope(|scope| {
            let blocks_per = blocks.div_ceil(workers);
            for (w, out) in partials.chunks_mut(blocks_per).enumerate() {
                let start = w * blocks_per * SUM_BLOCK;
                let slice = &data[start..(start + out.len() * SUM_BLOCK).min(data.len())];
                scope.spawn(move || {
                    for (o, c) in out.iter_mut().zip(slice.chunks(SUM_BLOCK)) {
                        *o = c.iter().sum();
                    }
                });
            }
        });
        partials.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 + seed) * 0.37).sin()).collect()
    }

    #[test]
    fn kernels_agree_on_gemm() {
        let (m, k, n) = (37, 29, 41);
        let a = filled(m * k, 1.0);
        let b = filled(k * n, 2.0);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        ScalarKernel.gemm(&a, &b, &mut c1, m, k, n);
        ParallelKernel.gemm(&a, &b, &mut c2, m, k, n);
        assert_eq!(c1, c2, "parallel gemm must be bit-identical");
    }

    /// The plain ikj loop whose per-element summation order the blocked
    /// microkernel must reproduce exactly.
    fn reference_gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut t = c[i * n + j];
                for p in 0..k {
                    t += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = t;
            }
        }
    }

    #[test]
    fn blocked_microkernel_is_bit_identical_to_plain_ikj() {
        // Sizes straddling every tile boundary: row counts around the
        // 4-row quad, column counts around the 8-wide tile, including a
        // zero-heavy `a` (the old kernel's zero-skip must have been
        // bit-neutral).
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 9, 8), (5, 13, 9), (8, 27, 16), (13, 7, 23), (17, 64, 33)]
        {
            let mut a = filled(m * k, 9.0);
            for v in a.iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = filled(k * n, 10.0);
            let mut want = filled(m * n, 11.0);
            let mut got = want.clone();
            reference_gemm(&a, &b, &mut want, m, k, n);
            ScalarKernel.gemm(&a, &b, &mut got, m, k, n);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn kernels_agree_on_large_gemm() {
        // Above the threading threshold.
        let (m, k, n) = (64, 64, 64);
        let a = filled(m * k, 3.0);
        let b = filled(k * n, 4.0);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        ScalarKernel.gemm(&a, &b, &mut c1, m, k, n);
        ParallelKernel.gemm(&a, &b, &mut c2, m, k, n);
        assert_eq!(c1, c2);
    }

    #[test]
    fn row_chunks_cover_every_row_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rows = 63;
        let row_len = 17;
        let mut data = vec![0.0f32; rows * row_len];
        let visits = AtomicUsize::new(0);
        ParallelKernel.for_each_row_chunk(&mut data, row_len, 1 << 20, &|first, chunk| {
            assert_eq!(chunk.len() % row_len, 0);
            for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (first + r) as f32;
                }
            }
            visits.fetch_add(chunk.len() / row_len, Ordering::Relaxed);
        });
        assert_eq!(visits.load(Ordering::Relaxed), rows);
        for r in 0..rows {
            assert!(data[r * row_len..(r + 1) * row_len].iter().all(|&v| v == r as f32));
        }
    }

    #[test]
    fn kernels_agree_bitwise_on_sum() {
        for n in [100, SUM_BLOCK, SUM_BLOCK + 17, 100_000] {
            let data = filled(n, 5.0);
            assert_eq!(ScalarKernel.sum(&data), ParallelKernel.sum(&data), "n = {n}");
        }
    }

    #[test]
    fn blocked_sum_stays_close_to_sequential() {
        let data = filled(100_000, 5.0);
        let sequential: f32 = data.iter().sum();
        assert!((ScalarKernel.sum(&data) - sequential).abs() < 1e-2);
    }

    #[test]
    fn with_backend_composes_with_thread_scopes_without_touching_global_state() {
        // Process-global selection as a fresh thread sees it.
        let global_before = std::thread::spawn(active).join().unwrap();
        with_thread_backend(Backend::Scalar, || {
            with_backend(Backend::Parallel, || {
                // The innermost override wins for the closure.
                assert_eq!(active(), Backend::Parallel);
            });
            assert_eq!(active(), Backend::Scalar, "outer scope restored");
        });
        let global_after = std::thread::spawn(active).join().unwrap();
        assert_eq!(global_before, global_after, "global selection must be untouched");
    }

    #[test]
    fn backend_parsing_is_case_insensitive() {
        for s in ["scalar", "Scalar", "SCALAR"] {
            assert_eq!(s.parse::<Backend>().unwrap(), Backend::Scalar, "{s}");
        }
        for s in ["parallel", "Parallel", "PARALLEL"] {
            assert_eq!(s.parse::<Backend>().unwrap(), Backend::Parallel, "{s}");
        }
        for s in ["simd", "Simd", "SIMD"] {
            assert_eq!(s.parse::<Backend>().unwrap(), Backend::Simd, "{s}");
        }
    }

    #[test]
    fn backend_parsing_rejects_unknown_values_with_a_clear_error() {
        for s in ["gpu", "", "scalar ", "auto", "avx2", "simd "] {
            let err = s.parse::<Backend>().unwrap_err().to_string();
            assert!(
                err.contains("scalar") && err.contains("parallel") && err.contains("simd"),
                "error for {s:?} must name the valid values, got: {err}"
            );
        }
    }

    #[test]
    fn backend_display_round_trips_through_from_str() {
        for be in [Backend::Scalar, Backend::Parallel, Backend::Simd] {
            assert_eq!(be.to_string(), be.name());
            assert_eq!(be.to_string().parse::<Backend>().unwrap(), be);
            assert_eq!(be.kernel().name(), be.name());
        }
    }

    #[test]
    fn detected_features_match_the_simd_kernel() {
        // Backend::detected() is the capability the simd kernel reports;
        // the other kernels never dispatch SIMD.
        assert_eq!(Backend::detected(), SimdKernel.simd_level());
        assert_eq!(ScalarKernel.simd_level(), SimdLevel::None);
        assert_eq!(ParallelKernel.simd_level(), SimdLevel::None);
    }

    #[test]
    fn simd_gemm_is_bit_identical_to_scalar_across_tile_boundaries() {
        // Same hostile shape set as the ikj-reference test: row counts
        // around the 4-row quad, column counts around (and below) the
        // 8-wide vector tile, odd k, plus a zero-heavy `a`.
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 9, 8), (5, 13, 9), (8, 27, 16), (13, 7, 23), (17, 64, 33), (4, 3, 4)]
        {
            let mut a = filled(m * k, 9.0);
            for v in a.iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = filled(k * n, 10.0);
            let mut want = filled(m * n, 11.0);
            let mut got = want.clone();
            ScalarKernel.gemm(&a, &b, &mut want, m, k, n);
            SimdKernel.gemm(&a, &b, &mut got, m, k, n);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn simd_row_chunks_behave_like_scalar() {
        let rows = 9;
        let row_len = 5;
        let mut data = vec![0.0f32; rows * row_len];
        SimdKernel.for_each_row_chunk(&mut data, row_len, 1, &|first, chunk| {
            assert_eq!(first, 0, "single-threaded kernel hands over everything at once");
            assert_eq!(chunk.len(), rows * row_len);
            chunk.iter_mut().for_each(|v| *v = 1.0);
        });
        assert!(data.iter().all(|&v| v == 1.0));
        SimdKernel.for_each_row_chunk(&mut [], 5, 1, &|_, _| panic!("no rows, no calls"));
    }

    #[test]
    fn thread_backend_overrides_and_restores() {
        let prev = active();
        with_thread_backend(Backend::Parallel, || {
            assert_eq!(active(), Backend::Parallel);
            // Nested scopes stack.
            with_thread_backend(Backend::Scalar, || {
                assert_eq!(active(), Backend::Scalar);
            });
            assert_eq!(active(), Backend::Parallel);
        });
        assert_eq!(active(), prev);
    }

    #[test]
    fn thread_backend_does_not_leak_to_other_threads() {
        with_thread_backend(Backend::Parallel, || {
            // A fresh thread has no thread-scoped handle installed.
            let seen = std::thread::spawn(|| THREAD_BACKEND.with(Cell::get)).join().unwrap();
            assert_eq!(seen, None);
            assert_eq!(THREAD_BACKEND.with(Cell::get), Some(Backend::Parallel));
        });
    }

    #[test]
    fn backend_override_round_trip() {
        let prev = active();
        with_backend(Backend::Parallel, || {
            assert_eq!(active(), Backend::Parallel);
            assert_eq!(kernel().name(), "parallel");
        });
        with_backend(Backend::Scalar, || {
            assert_eq!(active(), Backend::Scalar);
        });
        assert_eq!(active(), prev);
    }
}
