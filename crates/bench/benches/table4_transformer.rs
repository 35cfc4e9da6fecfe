//! Regenerates **Table IV** — Transformer-based SR comparison on
//! SwinIR-lite and HAT-lite: FP / BiBERT-baseline / SCALES at ×2 and ×4.
//!
//! Expected shape: FP best; SCALES well above the BiBERT baseline
//! (the paper's ">1 dB" headline), with only a small parameter overhead.
//!
//! Beside the paper's cost columns the run first prints **measured**
//! columns, the way `table7_network_latency` has them for CNNs: per (arch,
//! method), one forward of the lite serving profile (32 channels, 4 blocks,
//! ×2, 16×16 LR) on the training tape and on the lowered graph through the
//! planned executor — asserting ratios, never nanoseconds: deployed ≤ 0.2×
//! tape on every row, and planned bit-identical to the reuse-off forward
//! (`DeployedNetwork::forward`) — then where a deployed SwinIR-SCALES
//! forward goes, per op kind, asserting the paper's deployment argument:
//! the binary body convolutions cost more than GELU and window attention
//! together, the float tail's two largest lines.
//!
//! ```sh
//! SCALES_BENCH_ITERS=400 cargo bench --bench table4_transformer
//! ```

use scales_autograd::Var;
use scales_core::Method;
use scales_models::{SrConfig, Workspace};
use scales_nn::Module as _;
use scales_tensor::Tensor;
use scales_train::{render_table, run_row, write_report, Arch, Budget};
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Tape vs deployed forward per (arch, method), and the deployed forward's
/// per-op-kind profile.
fn measured(methods: &[Method]) -> Result<String, Box<dyn std::error::Error>> {
    const SIDE: usize = 16;
    let x = Tensor::from_vec(
        (0..3 * SIDE * SIDE).map(|i| ((i as f32) * 0.071).sin() * 0.4 + 0.5).collect(),
        &[1, 3, SIDE, SIDE],
    )?;
    let mut out = format!(
        "Measured forward, lite serving profile (32 ch x 4 blocks, x2, {SIDE}x{SIDE} LR)\n  \
         {:<8} {:<8} {:>7} {:>10} {:>12} {:>7}\n",
        "arch", "method", "packed", "tape ms", "deployed ms", "ratio"
    );
    let mut profiled = None;
    for arch in [Arch::SwinIr, Arch::Hat] {
        for &method in methods {
            let net = arch.build(SrConfig { channels: 32, blocks: 4, scale: 2, method, seed: 12 })?;
            let deployed = net.lower()?;
            let mut ws = Workspace::new();
            let planned = deployed.forward_planned(&x, &mut ws)?;
            let unshared = deployed.forward(&x)?;
            assert!(
                planned.data().iter().zip(unshared.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{arch}/{method}: planned must be bit-identical to the reuse-off forward"
            );
            let input = Var::new(x.clone());
            let tape = best_ms(3, || drop(net.forward(&input).expect("tape forward")));
            let fast = best_ms(30, || drop(deployed.forward_planned(&x, &mut ws).expect("planned forward")));
            out.push_str(&format!(
                "  {:<8} {:<8} {:>7} {tape:>10.2} {fast:>12.3} {:>6.3}x\n",
                arch.name(),
                method.to_string(),
                deployed.packed_layers(),
                fast / tape
            ));
            assert!(
                fast <= tape * 0.2,
                "{arch}/{method}: deployed forward must cost <= 0.2x the tape ({fast:.3} vs {tape:.2} ms)"
            );
            if arch == Arch::SwinIr && method == Method::scales() {
                ws.enable_profiling(true);
                for _ in 0..20 {
                    deployed.forward_planned(&x, &mut ws)?;
                }
                profiled = Some(ws.op_profile().clone());
            }
        }
    }
    let profile = profiled.expect("the SwinIR / SCALES row is always measured");
    out.push_str("\nWhere a deployed SwinIR-SCALES forward goes (share of op time, 20 forwards)\n");
    let mut entries = profile.entries().to_vec();
    entries.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
    let ns = |kind| entries.iter().find(|e| e.kind == kind).map_or(0, |e| e.total_ns);
    // The paper's cost argument: the binary layers, not the float tail,
    // carry the forward.
    assert!(
        ns("gelu") < ns("body_conv"),
        "gelu ({} ns) must cost less than the binary body convs ({} ns)",
        ns("gelu"),
        ns("body_conv")
    );
    assert!(
        ns("gelu") + ns("window_attention") < ns("body_conv"),
        "gelu + window attention ({} + {} ns) must cost less than the binary body convs ({} ns)",
        ns("gelu"),
        ns("window_attention"),
        ns("body_conv")
    );
    for e in &entries {
        out.push_str(&format!(
            "  {:<18} {:>5} calls {:>6.1}%\n",
            e.kind,
            e.calls / 20,
            e.total_ns as f64 * 100.0 / profile.total_ns().max(1) as f64
        ));
    }
    Ok(out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Budget::from_env();
    let methods = [Method::FullPrecision, Method::Bibert, Method::scales()];
    // Printed before the (much longer) training rows run.
    let measured = measured(&methods)?;
    println!("{measured}");
    let mut out = String::new();
    for arch in [Arch::SwinIr, Arch::Hat] {
        for scale in [2usize, 4] {
            let mut rows = Vec::new();
            for m in methods {
                eprintln!("[table4] {arch}-{m} x{scale} (iters={})...", budget.iters);
                rows.push(run_row(arch, m, scale, &budget)?);
            }
            out.push_str(&render_table(
                &format!("Table IV (x{scale}): Transformer-based SR, {arch}"),
                arch.name(),
                scale,
                &rows,
            ));
            out.push('\n');
            // Shape check: SCALES params stay near the BiBERT baseline
            // (small overhead), both below FP. The paper's ~10x ratio
            // appears at the 60-channel scale asserted in scales-models'
            // unit tests; the tiny default budget only preserves ordering.
            let fp = rows[0].cost.as_ref().expect("cost").effective_params();
            let bb = rows[1].cost.as_ref().expect("cost").effective_params();
            let sc = rows[2].cost.as_ref().expect("cost").effective_params();
            assert!(sc < fp, "binary transformer params must be below FP");
            assert!(sc < bb * 2.0, "SCALES overhead over the baseline must stay small");
        }
    }
    out.push_str(&format!("(budget {budget:?})\n"));
    print!("{out}");
    let path = write_report("table4_transformer.txt", &format!("{measured}\n{out}"));
    println!("report written to {}", path.display());
    Ok(())
}
