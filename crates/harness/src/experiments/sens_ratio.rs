//! F8 — sensitivity to the ECC coverage ratio (redundancy budget):
//! 1:8 (12.5 %), 1:16 (6.25 %), 1:32 (3.125 %).
//!
//! Lighter codes shrink the carve-out and halve the ECC traffic per
//! covered byte, but each ECC atom then covers a *wider* neighbourhood —
//! which helps reach-based mechanisms (ECC cache, fragments) and hurts
//! nothing else.

use super::sweep;
use crate::runner::ExpOptions;
use crate::Error;
use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F8.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let rows = [8u32, 16, 32].map(|coverage| {
        let labels = vec![
            format!("1:{coverage}"),
            format!("{:.2}%", 100.0 / coverage as f64),
        ];
        let schemes = vec![
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage },
            SchemeKind::EccCache {
                coverage,
                capacity_per_mc: 16 << 10,
            },
            SchemeKind::CacheCraft(CacheCraftConfig {
                coverage,
                ..CacheCraftConfig::full()
            }),
        ];
        (labels, GpuConfig::gddr6(), schemes)
    });
    sweep(
        opts,
        "F8",
        "Sensitivity to ECC coverage ratio, geomean over the sweep subset",
        "f8_coverage_ratio",
        vec!["coverage", "redundancy", "naive", "ecc-cache", "cachecraft"],
        rows,
    )
}
