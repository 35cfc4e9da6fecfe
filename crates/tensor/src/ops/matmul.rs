//! Matrix multiplication kernels.
//!
//! `f32` GEMM dispatched through the active [`crate::backend`] kernel: a
//! register-blocked microkernel (4-row × 8-column accumulator tiles held
//! across the whole inner-product loop), portable on the scalar backend
//! and AVX2 intrinsics ([`crate::simd`]) on the simd backend where the CPU
//! has them. Results are bit-identical — every element accumulates in the
//! same ascending-`p` order, multiply then add, on every path.

use crate::backend;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Raw GEMM: `c[m×n] += a[m×k] · b[k×n]` over flat slices, on the active
/// backend kernel.
///
/// # Panics
///
/// Panics (in debug builds) if the slices are shorter than the given
/// dimensions imply.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    backend::kernel().gemm(a, b, c, m, k, n);
}

/// Matrix product of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
///
/// # Errors
///
/// Returns an error when either operand is not a matrix or the inner
/// dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
            op: "matmul",
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Batched matrix product: `[b,m,k] × [b,k,n] → [b,m,n]`.
///
/// # Errors
///
/// Returns an error for non-rank-3 operands or mismatched batch/inner
/// dimensions.
pub fn batched_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 3 || b.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: if a.rank() != 3 { a.rank() } else { b.rank() },
            op: "batched_matmul",
        });
    }
    let (ba, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bb, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    if ba != bb || k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
            op: "batched_matmul",
        });
    }
    let mut out = Tensor::zeros(&[ba, m, n]);
    for i in 0..ba {
        gemm(
            &a.data()[i * m * k..(i + 1) * m * k],
            &b.data()[i * k * n..(i + 1) * k * n],
            &mut out.data_mut()[i * m * n..(i + 1) * m * n],
            m,
            k,
            n,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn batched_matmul_matches_loop() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i % 5) as f32).collect(), &[2, 3, 2]).unwrap();
        let c = batched_matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        for bi in 0..2 {
            let am = a.slice_axis(0, bi, 1).unwrap().reshape(&[2, 3]).unwrap();
            let bm = b.slice_axis(0, bi, 1).unwrap().reshape(&[3, 2]).unwrap();
            let cm = matmul(&am, &bm).unwrap();
            let got = c.slice_axis(0, bi, 1).unwrap().reshape(&[2, 2]).unwrap();
            assert_eq!(cm, got);
        }
    }
}
