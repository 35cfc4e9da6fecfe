//! The four workloads. Each exists to load some layers and bypass others,
//! so a change to one layer has a workload where it should show and one
//! where the prediction is "no change" (see the README's layer table).

pub mod edge_fleet;
pub mod runtime_bursts;
pub mod session;

use crate::harness::Info;

pub const NAMES: [&str; 4] = [
    "session_cnn",
    "session_transformer",
    "edge_fleet",
    "runtime_bursts",
];

/// Harness constants per workload. `ref_p90_ms` is the normalised p90
/// measured on the reference box when the benchmark was defined; it only
/// fixes the latency limit (4x) that `ok_share` counts against.
pub fn info(name: &str) -> Option<Info> {
    Some(match name {
        "session_cnn" => Info {
            name: "session_cnn",
            generators: 1,
            probers: 1,
            ref_p90_ms: 300.0,
            // The packed integer kernels slow about 1.5x as much (in log
            // terms) as the f32 probe when a neighbour shares the core.
            sensitivity: 1.5,
            model: crate::models::cnn(),
        },
        "session_transformer" => Info {
            name: "session_transformer",
            generators: 1,
            probers: 1,
            ref_p90_ms: 430.0,
            sensitivity: 1.0,
            model: crate::models::transformer(),
        },
        "edge_fleet" => Info {
            name: "edge_fleet",
            generators: 2,
            probers: 2,
            ref_p90_ms: 11.0,
            sensitivity: 1.0,
            model: crate::models::lite(),
        },
        "runtime_bursts" => Info {
            name: "runtime_bursts",
            generators: 1,
            // Two runtime workers keep both vCPUs busy during a burst.
            probers: 2,
            ref_p90_ms: 40.0,
            sensitivity: 1.0,
            model: crate::models::lite(),
        },
        _ => return None,
    })
}
