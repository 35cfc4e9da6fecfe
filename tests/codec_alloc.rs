//! Allocation guard for the wire codecs.
//!
//! A counting global allocator wraps the system allocator; encoding an
//! image must allocate exactly once — the returned buffer, sized up
//! front — whatever its extent, for PNG RGB, PNG greyscale and PPM. A
//! per-sample allocation (an element access that builds a stride vector,
//! say) or a per-stage copy (samples, filtered rows, zlib stream, CRC
//! input) shows up as a count that grows with the image. Decoding a
//! single-IDAT PNG allocates a fixed three times, whatever its extent.
//!
//! The counter is per thread: the harness's own thread books the test it
//! just started (a map insert, a queue push) while the test runs, and a
//! process-global count would read those allocations as the encoder's.

use scales::data::{decode_image, encode_image, Image, WireFormat};
use scales::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation-event counter (frees
/// are not counted).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn image(channels: usize, side: usize) -> Image {
    let data = (0..channels * side * side).map(|i| (i % 300) as f32 / 256.0 - 0.1).collect();
    Image::from_tensor(Tensor::from_vec(data, &[channels, side, side]).unwrap()).unwrap()
}

/// Allocations made by one `encode_image` call (the image is built
/// before counting starts; the reply is dropped after it stops).
fn allocations_per_encode(image: &Image, format: WireFormat) -> usize {
    let before = allocations();
    let bytes = encode_image(image, format).unwrap();
    let count = allocations() - before;
    assert!(!bytes.is_empty());
    count
}

#[test]
fn encoding_allocates_only_the_reply_at_every_extent() {
    // Warm-up: anything initialised once per process (the CRC table)
    // is not an encode's cost.
    let _ = encode_image(&image(3, 2), WireFormat::Png).unwrap();
    for (label, channels, format) in
        [("PNG RGB", 3, WireFormat::Png), ("PNG grey", 1, WireFormat::Png), ("PPM", 3, WireFormat::Ppm)]
    {
        let counts: Vec<usize> =
            [8, 80].iter().map(|&side| allocations_per_encode(&image(channels, side), format)).collect();
        assert_eq!(counts, [1, 1], "{label}: allocations at 8x8 and 80x80");
    }
}

/// Allocations made by one `decode_image` call (the payload is encoded
/// before counting starts; the image is dropped after it stops).
fn allocations_per_decode(bytes: &[u8]) -> usize {
    let before = allocations();
    let image = decode_image(bytes).unwrap();
    let count = allocations() - before;
    drop(image);
    count
}

/// Decoding a single-IDAT PNG allocates three times at any extent: the
/// inflated scanlines (filters undone in place), the image's `f32`
/// data and its shape. The zlib stream is read straight from the chunk,
/// each chunk's CRC runs over the payload in place, and a chunk's name
/// is only spelled out for an error: none of them allocates per chunk,
/// row or sample.
#[test]
fn decoding_allocates_a_fixed_count_at_every_extent() {
    for (label, channels) in [("PNG RGB", 3), ("PNG grey", 1)] {
        let counts: Vec<usize> = [8, 80]
            .iter()
            .map(|&side| {
                let png = encode_image(&image(channels, side), WireFormat::Png).unwrap();
                allocations_per_decode(&png)
            })
            .collect();
        assert_eq!(counts, [3, 3], "{label}: allocations at 8x8 and 80x80");
    }
}
