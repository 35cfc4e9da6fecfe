//! Helpers shared by the whole-network suites (`mod common;`).

use scales::models::SrNetwork;

/// `net` with every parameter nudged off its seeded init — a stand-in for
/// training. A freshly built network answers exactly the bicubic skip (its
/// tail conv is zero-initialised), so an oracle over untrained networks
/// compares bicubic with bicubic; and a round trip that silently rebuilt
/// from the seed instead of restoring the stored tensors would pass.
pub fn trained_like<N: SrNetwork>(net: N) -> N {
    for (i, p) in net.params().iter().enumerate() {
        p.update_value(|t| {
            for (j, v) in t.data_mut().iter_mut().enumerate() {
                *v += ((i * 131 + j) as f32 * 0.29).sin() * 0.05;
            }
        });
    }
    net
}
