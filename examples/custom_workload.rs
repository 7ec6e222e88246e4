//! Domain scenario: bringing your own kernel to the simulator.
//!
//! Models a "gather-scatter particle update" kernel that is not in the
//! built-in suite, using the public trace API: per-thread addresses are
//! coalesced exactly like a GPU would, and the resulting trace runs under
//! any protection scheme.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_workload
//! ```

use cachecraft::schemes::cachecraft::CacheCraftConfig;
use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::trace::{KernelTrace, WarpOp, WarpTrace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Particles: position array (streamed), cell index (random gather into a
/// grid), then a scattered partial write of updated positions.
fn particle_kernel(warps: u64, particles: u64, grid_cells: u64, seed: u64) -> KernelTrace {
    let pos_base = 0u64; // f32x2 per particle
    let grid_base = particles * 8; // one f32 per cell
    let traces = (0..warps)
        .map(|w| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (0xAAC0 + w));
            let mut warp = WarpTrace::default();
            let mut p = w * 32;
            while p < particles {
                // Stream this warp's 32 particle positions (8 B each):
                // `load` coalesces the lanes' addresses into atoms.
                let addrs: Vec<u64> = (0..32)
                    .filter(|t| p + t < particles)
                    .map(|t| pos_base + (p + t) * 8)
                    .collect();
                warp.load(&addrs);
                // Gather each particle's grid cell (random).
                let cells: Vec<u64> = addrs
                    .iter()
                    .map(|_| grid_base + rng.gen_range(0..grid_cells) * 4)
                    .collect();
                warp.load(&cells);
                warp.push(WarpOp::Compute { cycles: 12 });
                // Scatter updated positions back (full 8 B per particle):
                // `store` classifies atom coverage into a full and a
                // partial store.
                warp.store(&addrs, 8);
                p += warps * 32;
            }
            warp
        })
        .collect();
    KernelTrace::new("particles", traces)
}

fn main() {
    let cfg = GpuConfig::gddr6();
    let trace = particle_kernel(128, 262_144, 1 << 20, 7);
    println!("custom kernel: {trace}\n");

    let schemes = [
        ("ECC off    ", SchemeKind::NoProtection),
        ("naive      ", SchemeKind::InlineNaive { coverage: 8 }),
        (
            "CacheCraft ",
            SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg)),
        ),
    ];
    let base = run_scheme(&cfg, schemes[0].1, &trace);
    for (label, kind) in schemes {
        let s = run_scheme(&cfg, kind, &trace);
        println!(
            "{label} exec {:>9} cycles  perf {:>5.3}x  DRAM {:>6.1} B/cyc  ECC share {:>4.1}%",
            s.exec_cycles,
            base.exec_cycles as f64 / s.exec_cycles as f64,
            s.dram_bw_bytes_per_cycle(),
            100.0 * s.ecc_traffic_fraction(),
        );
    }
}
