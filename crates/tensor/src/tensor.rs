//! The dense, contiguous, row-major `f32` tensor at the heart of the
//! reproduction.

use crate::error::{Result, TensorError};
use crate::shape::{broadcast_shape, broadcast_src_index, check_axis, strides, volume};

/// Block size of [`Tensor::sum`]'s fixed summation order.
const SUM_BLOCK: usize = 4096;

/// A dense `f32` tensor stored contiguously in row-major order.
///
/// This is the single storage type used throughout the SCALES reproduction:
/// images are `[C, H, W]`, batches are `[N, C, H, W]`, token tensors are
/// `[B, L, C]`. All views are materialised (permute and slice copy), which
/// keeps the implementation simple and the autograd tape deterministic.
///
/// ```
/// use scales_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// # Ok::<(), scales_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Create a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from the shape's volume.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected = volume(shape);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { expected, actual: data.len() });
        }
        Ok(Self { data, shape: shape.to_vec() })
    }

    /// A tensor filled with zeros.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self { data: vec![0.0; volume(shape)], shape: shape.to_vec() }
    }

    /// A tensor filled with ones.
    #[must_use]
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { data: vec![value; volume(shape)], shape: shape.to_vec() }
    }

    /// A rank-0 tensor holding a single value.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Self { data: vec![value], shape: vec![] }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of axes).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (some extent is zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat storage.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its flat storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Append the flat storage to `out` as little-endian `f32` bytes —
    /// the raw-buffer view used by the `scales-io` artifact format.
    /// Bit-exact: every value round-trips through
    /// [`Tensor::from_le_bytes`] with identical `f32::to_bits`.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.data.len() * 4);
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Rebuild a tensor from little-endian `f32` bytes and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the byte count is not
    /// `4 × volume(shape)`, and [`TensorError::InvalidArgument`] when that
    /// product overflows (the shape may come from untrusted bytes).
    pub fn from_le_bytes(bytes: &[u8], shape: &[usize]) -> Result<Self> {
        let expected = shape
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| TensorError::InvalidArgument("tensor byte volume overflows".into()))?;
        if bytes.len() != expected {
            return Err(TensorError::LengthMismatch { expected, actual: bytes.len() });
        }
        let data = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(Self { data, shape: shape.to_vec() })
    }

    /// Element at the given multi-index.
    ///
    /// # Panics
    ///
    /// Panics when the index rank or any coordinate is out of range.
    #[must_use]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Mutable element access at the given multi-index.
    ///
    /// # Panics
    ///
    /// Panics when the index rank or any coordinate is out of range.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let i = self.flat_index(index);
        &mut self.data[i]
    }

    /// Row-major offset of `index`, folded Horner-style (`acc · d + i`)
    /// so that an element access costs no allocation.
    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        index.iter().zip(&self.shape).fold(0, |acc, (&i, &d)| {
            assert!(i < d, "index {i} out of range for extent {d}");
            acc * d + i
        })
    }

    /// Reinterpret the storage under a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let expected = volume(shape);
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch { expected, actual: self.data.len() });
        }
        Ok(Self { data: self.data.clone(), shape: shape.to_vec() })
    }

    /// Apply `f` to every element, producing a new tensor of the same shape.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Apply `f` in place to every element.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combine with another tensor elementwise under NumPy broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes do not
    /// broadcast together.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        let out_shape = broadcast_shape(&self.shape, &other.shape)?;
        let n = volume(&out_shape);
        let mut data = Vec::with_capacity(n);
        if self.shape == other.shape {
            // Fast path: identical shapes need no index mapping.
            data.extend(self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)));
        } else {
            for i in 0..n {
                let a = self.data[broadcast_src_index(i, &out_shape, &self.shape)];
                let b = other.data[broadcast_src_index(i, &out_shape, &other.shape)];
                data.push(f(a, b));
            }
        }
        Ok(Self { data, shape: out_shape })
    }

    /// Reduce a broadcast gradient back to this tensor's shape by summing
    /// over the broadcast axes. This is the adjoint of broadcasting and is
    /// used by the autograd layer.
    ///
    /// # Errors
    ///
    /// Returns an error when `grad`'s shape is not a broadcast extension of
    /// `target_shape`.
    pub fn reduce_to_shape(grad: &Tensor, target_shape: &[usize]) -> Result<Tensor> {
        if grad.shape() == target_shape {
            return Ok(grad.clone());
        }
        // Validate compatibility.
        let b = broadcast_shape(target_shape, grad.shape())?;
        if b != grad.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: target_shape.to_vec(),
                rhs: grad.shape.clone(),
                op: "reduce_to_shape",
            });
        }
        let mut out = Tensor::zeros(target_shape);
        for i in 0..grad.len() {
            let j = broadcast_src_index(i, &grad.shape, target_shape);
            out.data[j] += grad.data[i];
        }
        Ok(out)
    }

    /// Sum of all elements: partial sums over consecutive 4096-element
    /// blocks (`SUM_BLOCK`), each in index order, reduced in block order.
    /// The order is part of the bit-identity contract (losses and
    /// statistics computed from it are compared with `to_bits`), so it
    /// never depends on the backend. A tensor at most one block long is a
    /// plain sequential sum.
    #[must_use]
    pub fn sum(&self) -> f32 {
        if self.data.len() <= SUM_BLOCK {
            return self.data.iter().sum();
        }
        self.data.chunks(SUM_BLOCK).map(|c| c.iter().sum::<f32>()).sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Population variance of all elements (0 for an empty tensor).
    #[must_use]
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / self.data.len() as f32
    }

    /// Largest element (negative infinity for an empty tensor).
    #[must_use]
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (positive infinity for an empty tensor).
    #[must_use]
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum over one axis, optionally keeping it as an extent-1 axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Result<Tensor> {
        check_axis(axis, self.rank())?;
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let mut out = Tensor::zeros(&out_shape);
        let st = strides(&self.shape);
        let out_st = strides(&out_shape);
        for i in 0..self.len() {
            let mut rem = i;
            let mut oi = 0;
            for (a, (&s, &os)) in st.iter().zip(out_st.iter()).enumerate() {
                let coord = rem / s;
                rem %= s;
                let c = if a == axis { 0 } else { coord };
                oi += c * os;
            }
            out.data[oi] += self.data[i];
        }
        if keepdim {
            Ok(out)
        } else {
            let mut squeezed = self.shape.clone();
            squeezed.remove(axis);
            out.reshape(&squeezed)
        }
    }

    /// Mean over one axis, optionally keeping it as an extent-1 axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Result<Tensor> {
        let n = *self.shape.get(axis).ok_or(TensorError::AxisOutOfRange {
            axis,
            rank: self.rank(),
        })? as f32;
        let mut s = self.sum_axis(axis, keepdim)?;
        s.map_inplace(|x| x / n);
        Ok(s)
    }

    /// Permute axes (general transpose). The data is materialised.
    ///
    /// # Errors
    ///
    /// Returns an error when `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        if perm.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: perm.len(),
                op: "permute",
            });
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            check_axis(p, self.rank())?;
            if seen[p] {
                return Err(TensorError::InvalidArgument(format!(
                    "permutation repeats axis {p}"
                )));
            }
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_st = strides(&self.shape);
        let out_st = strides(&out_shape);
        let mut out = Tensor::zeros(&out_shape);
        for i in 0..self.len() {
            // Decompose output flat index into output coords, map to input.
            let mut rem = i;
            let mut src = 0;
            for (a, &os) in out_st.iter().enumerate() {
                let coord = rem / os;
                rem %= os;
                src += coord * in_st[perm[a]];
            }
            out.data[i] = self.data[src];
        }
        Ok(out)
    }

    /// Matrix transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank(), op: "transpose" });
        }
        self.permute(&[1, 0])
    }

    /// Extract a contiguous slab `start..start+len` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error for a bad axis or an out-of-range window.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Result<Tensor> {
        check_axis(axis, self.rank())?;
        if start + len > self.shape[axis] {
            return Err(TensorError::InvalidArgument(format!(
                "slice {start}..{} exceeds extent {}",
                start + len,
                self.shape[axis]
            )));
        }
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let mut data = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = o * self.shape[axis] * inner + start * inner;
            data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Concatenate tensors along `axis`. All other extents must match.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty input list, a bad axis, or mismatched
    /// extents.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = parts.first().ok_or_else(|| {
            TensorError::InvalidArgument("concat of zero tensors".to_string())
        })?;
        check_axis(axis, first.rank())?;
        let mut axis_total = 0;
        for p in parts {
            if p.rank() != first.rank() {
                return Err(TensorError::RankMismatch {
                    expected: first.rank(),
                    actual: p.rank(),
                    op: "concat",
                });
            }
            for (a, (&d1, &d2)) in first.shape.iter().zip(p.shape.iter()).enumerate() {
                if a != axis && d1 != d2 {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.shape.clone(),
                        rhs: p.shape.clone(),
                        op: "concat",
                    });
                }
            }
            axis_total += p.shape[axis];
        }
        let mut out_shape = first.shape.clone();
        out_shape[axis] = axis_total;
        let outer: usize = first.shape[..axis].iter().product();
        let inner: usize = first.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(volume(&out_shape));
        for o in 0..outer {
            for p in parts {
                let ext = p.shape[axis];
                let base = o * ext * inner;
                data.extend_from_slice(&p.data[base..base + ext * inner]);
            }
        }
        Tensor::from_vec(data, &out_shape)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn blocked_sum_stays_close_to_sequential() {
        let data: Vec<f32> = (0..100_000).map(|i| ((i as f32 + 5.0) * 0.37).sin()).collect();
        let sum = Tensor::from_vec(data.clone(), &[data.len()]).unwrap().sum();
        let sequential: f32 = data.iter().sum();
        assert!((sum - sequential).abs() < 1e-2);
        // The order itself is pinned: 4096-element partials in index
        // order, reduced in block order.
        let blocked: f32 = data.chunks(4096).map(|c| c.iter().sum::<f32>()).sum();
        assert_eq!(sum.to_bits(), blocked.to_bits());
    }

    #[test]
    fn indexing_round_trip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[0, 1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "index rank mismatch")]
    fn at_rejects_a_rank_mismatch() {
        let _ = Tensor::zeros(&[2, 3]).at(&[1]);
    }

    #[test]
    #[should_panic(expected = "index rank mismatch")]
    fn at_mut_rejects_a_rank_mismatch() {
        let _ = Tensor::zeros(&[2, 3]).at_mut(&[1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "index 3 out of range for extent 3")]
    fn at_rejects_an_out_of_range_coordinate() {
        // Row-major, [0, 3] would alias [1, 0]: the check, not the data
        // length, must refuse it.
        let _ = Tensor::zeros(&[2, 3]).at(&[0, 3]);
    }

    #[test]
    #[should_panic(expected = "index 2 out of range for extent 2")]
    fn at_mut_rejects_an_out_of_range_coordinate() {
        let _ = Tensor::zeros(&[2, 3]).at_mut(&[2, 0]);
    }

    /// With the `should_panic` tests above, kills the hand mutants: no
    /// rank check, no coordinate check, the fold run column-major.
    #[test]
    fn flat_index_fold_matches_the_stride_sum_at_every_index() {
        let mut state = 0x5ca1_e500_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            usize::try_from((state >> 33) % bound).unwrap()
        };
        for rank in 0..=5 {
            for _ in 0..8 {
                let shape: Vec<usize> = (0..rank).map(|_| 1 + next(4)).collect();
                let t = Tensor::zeros(&shape);
                let st = strides(&shape);
                let mut index = vec![0; rank];
                for flat in 0..volume(&shape) {
                    let mut rest = flat;
                    for (i, &d) in index.iter_mut().zip(&shape).rev() {
                        *i = rest % d;
                        rest /= d;
                    }
                    let by_strides: usize = index.iter().zip(&st).map(|(&i, &s)| i * s).sum();
                    assert_eq!(t.flat_index(&index), by_strides, "shape {shape:?} index {index:?}");
                    assert_eq!(by_strides, flat);
                }
            }
        }
    }

    #[test]
    fn zip_map_broadcasts() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2, 1]).unwrap();
        let c = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(c.data(), &[11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn reduce_to_shape_is_broadcast_adjoint() {
        let g = Tensor::ones(&[2, 3]);
        let r = Tensor::reduce_to_shape(&g, &[2, 1]).unwrap();
        assert_eq!(r.data(), &[3.0, 3.0]);
        let r2 = Tensor::reduce_to_shape(&g, &[3]).unwrap();
        assert_eq!(r2.data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn sum_axis_keepdim() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let s = t.sum_axis(1, true).unwrap();
        assert_eq!(s.shape(), &[2, 1]);
        assert_eq!(s.data(), &[6.0, 15.0]);
        let s0 = t.sum_axis(0, false).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn permute_transposes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let p = t.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_rejects_bad_perm() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let a = t.slice_axis(1, 0, 2).unwrap();
        let b = t.slice_axis(1, 2, 2).unwrap();
        let back = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(back, t);
        let r0 = t.slice_axis(0, 1, 1).unwrap();
        assert_eq!(r0.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_vec(vec![1.0, 3.0], &[2]).unwrap();
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.variance(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), 1.0);
    }

    #[test]
    fn le_bytes_round_trip_is_bit_exact() {
        // Include values whose bit patterns are easy to corrupt: -0.0,
        // subnormals, and a NaN payload.
        let t = Tensor::from_vec(
            vec![1.5, -0.0, f32::MIN_POSITIVE / 2.0, f32::from_bits(0x7fc0_1234), -3.25e7, 0.1],
            &[2, 3],
        )
        .unwrap();
        let mut bytes = Vec::new();
        t.extend_le_bytes(&mut bytes);
        assert_eq!(bytes.len(), 24);
        let back = Tensor::from_le_bytes(&bytes, &[2, 3]).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn le_bytes_rejects_wrong_length_and_overflowing_shapes() {
        assert!(Tensor::from_le_bytes(&[0u8; 7], &[2]).is_err());
        assert!(Tensor::from_le_bytes(&[0u8; 8], &[3]).is_err());
        // A shape whose byte volume wraps usize must be a typed error,
        // not a wrapped-to-zero length check that "passes".
        assert!(Tensor::from_le_bytes(&[], &[1usize << 62, 2]).is_err());
    }
}
