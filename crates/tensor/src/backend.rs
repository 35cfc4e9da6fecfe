//! Kernel-dispatch backend: which ISA level runs the hot loops. The float
//! GEMM is a method of the [`Kernel`] selected here, and the two direct
//! convolutions (float in [`crate::ops::direct`], XNOR-popcount in
//! `scales-binary`) ask it ([`Kernel::simd_level`]) which compilation of
//! their one loop to run.
//!
//! Two kernels ship, both single-threaded (the serving stack spends cores
//! at the request level, one worker per core):
//!
//! * [`ScalarKernel`] — the portable reference; byte-for-byte the seed
//!   semantics.
//! * [`SimdKernel`] — the default: runs the x86-64 vector
//!   kernels (AVX2 float GEMM, the direct float and binary convolutions
//!   compiled for the detected level up to AVX-512) when the CPU supports
//!   them (`is_x86_feature_detected!`, see [`crate::simd`]), falling back
//!   to the scalar loops on non-x86-64 targets or older CPUs. Results are
//!   bit-identical to the scalar kernel by construction (fixed per-lane
//!   summation order; see the [`crate::simd`] docs).
//!
//! Selection is layered, most specific first:
//!
//! 1. thread-scoped handle — [`with_thread_backend`] runs a closure with a
//!    backend passed by value, visible only on the calling thread. Tests
//!    and benches compare kernels in one process this way, and it is how
//!    `scales-serve` engines carry their own backend
//!    (`EngineBuilder::backend`) without touching process state: two
//!    engines on different threads can run different kernels concurrently.
//! 2. process environment — `SCALES_BACKEND=scalar|simd`
//!    (case-insensitive), read once at first use. An unrecognized value is
//!    a hard error (panic at first dispatch), never a silent fallback;
//! 3. otherwise `Backend::Simd` (the best ISA level detected on this CPU,
//!    the scalar loops where there is none).
//!
//! ```
//! use scales_tensor::backend::{self, Backend};
//!
//! let process_default = backend::active();
//! // A thread-scoped handle beats the process default…
//! backend::with_thread_backend(Backend::Scalar, || {
//!     assert_eq!(backend::active(), Backend::Scalar);
//!     assert_eq!(backend::kernel().name(), "scalar");
//! });
//! // …and is gone once the scope ends.
//! assert_eq!(backend::active(), process_default);
//! // Names parse case-insensitively; anything else is a typed error.
//! assert_eq!("SIMD".parse::<Backend>()?, Backend::Simd);
//! assert!("gpu".parse::<Backend>().is_err());
//! # Ok::<(), scales_tensor::TensorError>(())
//! ```

use crate::simd::SimdLevel;
use crate::TensorError;
use std::cell::Cell;
use std::sync::OnceLock;

/// Which kernel implementation executes the routed hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Portable reference loops. As the `Default` this is the zero value
    /// of a stats record, not the backend a process runs (that is
    /// [`active`]).
    #[default]
    Scalar,
    /// Runtime-detected x86-64 vector kernels (AVX2 float GEMM, the direct
    /// float and binary convolutions at the detected level), falling back
    /// to the scalar loops on hardware without them — the process default.
    /// Always valid to select; see [`Backend::detected`] for what the CPU
    /// actually offers.
    Simd,
}

impl Backend {
    /// The kernel implementing this backend.
    #[must_use]
    pub fn kernel(self) -> &'static dyn Kernel {
        match self {
            Backend::Scalar => &ScalarKernel,
            Backend::Simd => &SimdKernel,
        }
    }

    /// Stable display name (`"scalar"` / `"simd"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
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

    /// Parse a backend name, case-insensitively (`"scalar"`, `"SIMD"`, …).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] naming the valid values for
    /// anything else — unrecognized backends are an error, never a silent
    /// scalar fallback.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("scalar") {
            Ok(Backend::Scalar)
        } else if s.eq_ignore_ascii_case("simd") {
            Ok(Backend::Simd)
        } else {
            Err(TensorError::InvalidArgument(format!(
                "unrecognized backend {s:?}: expected \"scalar\" or \"simd\""
            )))
        }
    }
}

/// The process default: `SCALES_BACKEND` when set, else [`Backend::Simd`].
/// Read once; a panic on an invalid value leaves the cell empty, so every
/// later dispatch fails the same way.
fn process_default() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("SCALES_BACKEND") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("invalid SCALES_BACKEND environment variable: {e}")),
        Err(_) => Backend::Simd,
    })
}

thread_local! {
    /// Thread-scoped backend handle installed by [`with_thread_backend`].
    static THREAD_BACKEND: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// Run `f` with `backend` active on **this thread only**, restoring the
/// previous thread-scoped handle afterwards (including on panic).
///
/// This mutates no process state: the handle is passed by value and
/// consulted before the process default, so callers (notably
/// `scales-serve` engines) can each carry their own backend while other
/// threads keep theirs. Nested scopes stack — the innermost wins.
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

/// The currently active backend: the innermost [`with_thread_backend`]
/// scope on this thread, else the process default.
#[must_use]
pub fn active() -> Backend {
    THREAD_BACKEND.with(Cell::get).unwrap_or_else(process_default)
}

/// The kernel of the active backend.
#[must_use]
pub fn kernel() -> &'static dyn Kernel {
    active().kernel()
}

/// A compute kernel the tensor, convolution and binary hot loops dispatch
/// to. Implementations must produce identical numerical results; they
/// differ only in which instructions run the loops.
pub trait Kernel: Send + Sync {
    /// Kernel display name.
    fn name(&self) -> &'static str;

    /// The CPU feature level this kernel dispatches SIMD work at:
    /// [`SimdLevel::None`] for [`ScalarKernel`], the detected level for
    /// [`SimdKernel`]. The direct float convolution
    /// ([`crate::ops::conv2d_into`]) and the direct binary convolution in
    /// `scales-binary` consult this to pick which compilation of their one
    /// loop runs, keeping the whole selection behind the one backend
    /// dispatch.
    fn simd_level(&self) -> SimdLevel {
        SimdLevel::None
    }

    /// Raw GEMM `c[m×n] += a[m×k] · b[k×n]` over flat row-major slices.
    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);
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
/// results are bit-identical across kernels and tile boundaries.
fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    let mut r = 0;
    while r + GEMM_MR <= rows {
        let base = r * k;
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
        let base = r * k;
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
        gemm_rows(a, b, c, m, k, n);
    }
}

/// Runtime-dispatched SIMD kernel: the float GEMM runs on the AVX2
/// microkernel and the direct float and binary convolutions (via
/// [`Kernel::simd_level`]) run at the detected level when the CPU supports
/// them. Bit-identical to the scalar kernel on every hardware level (see
/// the [`crate::simd`] module docs for the lane-order argument); on
/// non-x86-64 targets or CPUs without the features it *is* the scalar
/// kernel.
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
            unsafe { crate::simd::x86::gemm_rows_avx2(a, b, c, m, k, n) };
            return;
        }
        gemm_rows(a, b, c, m, k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 + seed) * 0.37).sin()).collect()
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
    fn with_backend_composes_with_thread_scopes_without_touching_global_state() {
        // Process-global selection as a fresh thread sees it.
        let global_before = std::thread::spawn(active).join().unwrap();
        with_thread_backend(Backend::Scalar, || {
            with_thread_backend(Backend::Simd, || {
                // The innermost override wins for the closure.
                assert_eq!(active(), Backend::Simd);
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
        for s in ["simd", "Simd", "SIMD"] {
            assert_eq!(s.parse::<Backend>().unwrap(), Backend::Simd, "{s}");
        }
    }

    #[test]
    fn backend_parsing_rejects_unknown_values_with_a_clear_error() {
        for s in ["gpu", "", "scalar ", "auto", "avx2", "simd ", "parallel"] {
            let err = s.parse::<Backend>().unwrap_err().to_string();
            assert!(
                err.contains("unrecognized backend") && err.contains("\"scalar\"") && err.contains("\"simd\""),
                "error for {s:?} must name the valid values, got: {err}"
            );
        }
    }

    #[test]
    fn backend_display_round_trips_through_from_str() {
        for be in [Backend::Scalar, Backend::Simd] {
            assert_eq!(be.to_string(), be.name());
            assert_eq!(be.to_string().parse::<Backend>().unwrap(), be);
            assert_eq!(be.kernel().name(), be.name());
        }
    }

    #[test]
    fn detected_features_match_the_simd_kernel() {
        // Backend::detected() is the capability the simd kernel reports;
        // the scalar kernel never dispatches SIMD.
        assert_eq!(Backend::detected(), SimdKernel.simd_level());
        assert_eq!(ScalarKernel.simd_level(), SimdLevel::None);
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
    fn thread_backend_overrides_and_restores() {
        let prev = active();
        with_thread_backend(Backend::Simd, || {
            assert_eq!(active(), Backend::Simd);
            // Nested scopes stack.
            with_thread_backend(Backend::Scalar, || {
                assert_eq!(active(), Backend::Scalar);
            });
            assert_eq!(active(), Backend::Simd);
        });
        assert_eq!(active(), prev);
    }

    #[test]
    fn thread_backend_does_not_leak_to_other_threads() {
        with_thread_backend(Backend::Scalar, || {
            // A fresh thread has no thread-scoped handle installed.
            let seen = std::thread::spawn(|| THREAD_BACKEND.with(Cell::get)).join().unwrap();
            assert_eq!(seen, None);
            assert_eq!(THREAD_BACKEND.with(Cell::get), Some(Backend::Scalar));
        });
    }

    #[test]
    fn backend_override_round_trip() {
        let prev = active();
        with_thread_backend(Backend::Simd, || {
            assert_eq!(active(), Backend::Simd);
            assert_eq!(kernel().name(), "simd");
        });
        with_thread_backend(Backend::Scalar, || {
            assert_eq!(active(), Backend::Scalar);
            assert_eq!(kernel().name(), "scalar");
        });
        assert_eq!(active(), prev);
    }
}
