//! F10 — capacity sweep and crossover: dedicated ECC cache vs CacheCraft
//! fragment budget.
//!
//! Sweeps both structures over the same per-channel byte budgets. The
//! question the figure answers: how big must a *dedicated* ECC cache grow
//! before it matches CacheCraft, and does CacheCraft keep its edge when
//! its own budget (taxed from L2) shrinks?

use super::sweep;
use crate::runner::ExpOptions;
use crate::Error;
use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F10.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let rows = [4u64, 16, 64, 128].map(|kib| {
        let schemes = vec![
            SchemeKind::NoProtection,
            SchemeKind::EccCache {
                coverage: 8,
                capacity_per_mc: kib << 10,
            },
            SchemeKind::CacheCraft(CacheCraftConfig {
                fragment_bytes_per_slice: kib << 10,
                ..CacheCraftConfig::full()
            }),
        ];
        (vec![format!("{kib} KiB")], GpuConfig::gddr6(), schemes)
    });
    sweep(
        opts,
        "F10",
        "ECC-structure capacity sweep, geomean normalized perf",
        "f10_ecc_capacity",
        vec![
            "capacity/channel",
            "ecc-cache (dedicated)",
            "cachecraft (L2 tax)",
        ],
        rows,
    )
}
