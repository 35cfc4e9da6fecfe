//! Reusable scratch buffers for the zero-allocation inference path.
//!
//! Every hot kernel that used to allocate per call (the zero-padded input
//! planes of the direct float convolution, the bit-packed activation
//! bitmap of the binary convolution, gate maps, batch-norm reductions, one
//! attention window's tiles and scores) instead writes into a
//! [`ConvScratch`] owned by the caller. Buffers grow on first use
//! and are **never shrunk**, so after a warm-up forward at a given shape
//! the steady state performs no heap allocation.
//!
//! Contents are *stale between uses by design*: a kernel taking a scratch
//! buffer must fully overwrite the region it reads back. The [`sized`]
//! helper hands out exactly-sized views without zeroing.

/// Grow-only view: returns `&mut buf[..len]`, growing the buffer when it
/// is too short — to exactly `len`, since a scratch buffer's size is a
/// high-water mark over the shapes served, not a sequence of pushes to
/// amortise. The returned region may contain stale data from a previous
/// use — callers must fully overwrite whatever they later read.
pub fn sized<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Bit-domain scratch of the direct binary convolution: the zero-padded
/// sign bitmap of one image and the integer corrections that cancel what
/// its padding taps count.
#[derive(Default)]
pub struct BitScratch {
    /// Zero-padded sign bitmap of one image, word-plane-major: one word
    /// per padded pixel in the narrowest lane that holds the channels
    /// (`u16` up to 16, `u32` up to 32, else `ceil(IC/64)` planes of `u64`
    /// words), the `u64`s here viewed as that lane.
    pub act: Vec<u64>,
    /// Per output channel and row class (each border row, then all
    /// interior rows), the dot product an output pixel starts from once
    /// its padded taps are cancelled — one for the interior columns and one
    /// per border column — then one channel's classes spelled out per
    /// column for the store.
    pub bases: Vec<i32>,
}

/// The full per-stream convolution scratch: float buffers for the padded
/// input planes, gate maps and reductions, plus the [`BitScratch`] of the
/// binary kernels. One `ConvScratch` serves every layer of a network
/// because layers execute sequentially.
#[derive(Default)]
pub struct ConvScratch {
    /// One image's zero-padded input planes for the direct float
    /// convolution, `ic · (h + 2p) · (w + 2p)` floats (also reused as the
    /// widest reduction / resampling temporary, and as window attention's
    /// staging: one window's `q` / `k` / `v` tiles and its scores).
    pub padded: Vec<f32>,
    /// Per-pixel gate map (spatial re-scaling branch), mid-width
    /// reductions, and LayerNorm's per-pixel mean and deviation.
    pub plane: Vec<f32>,
    /// Per-channel temporaries (pooled activations, folded gates).
    pub chan: Vec<f32>,
    /// Second per-channel temporary live at the same time as [`chan`].
    ///
    /// [`chan`]: ConvScratch::chan
    pub chan2: Vec<f32>,
    /// Bit-domain scratch of the packed binary convolution.
    pub bits: BitScratch,
}

impl ConvScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes this scratch holds on the heap, every buffer by allocated
    /// capacity.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let floats =
            self.padded.capacity() + self.plane.capacity() + self.chan.capacity() + self.chan2.capacity();
        floats * std::mem::size_of::<f32>()
            + self.bits.act.capacity() * std::mem::size_of::<u64>()
            + self.bits.bases.capacity() * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_grows_and_reuses_without_shrinking() {
        let mut buf: Vec<f32> = Vec::new();
        sized(&mut buf, 8).copy_from_slice(&[1.0; 8]);
        assert_eq!(buf.len(), 8);
        // A shorter request reuses the same storage (stale tail kept).
        assert_eq!(sized(&mut buf, 4).len(), 4);
        assert_eq!(buf.len(), 8);
        // A longer one grows; the old prefix is preserved.
        assert_eq!(sized(&mut buf, 16).len(), 16);
        assert_eq!(buf[..8], [1.0; 8]);
    }

    #[test]
    fn scratch_defaults_are_empty() {
        let s = ConvScratch::new();
        assert!(s.padded.is_empty() && s.bits.act.is_empty());
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn memory_bytes_counts_every_buffer_by_capacity() {
        let mut s = ConvScratch::new();
        s.padded = Vec::with_capacity(10);
        s.plane = Vec::with_capacity(3);
        s.chan = Vec::with_capacity(2);
        s.chan2 = Vec::with_capacity(1);
        s.bits.act = Vec::with_capacity(5);
        s.bits.bases = Vec::with_capacity(7);
        let want = 4 * (s.padded.capacity() + s.plane.capacity() + s.chan.capacity() + s.chan2.capacity())
            + 8 * s.bits.act.capacity()
            + 4 * s.bits.bases.capacity();
        assert_eq!(s.memory_bytes(), want);
        assert!(want >= 4 * 16 + 8 * 5 + 4 * 7);
    }
}
