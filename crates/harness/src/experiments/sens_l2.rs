//! F9 — sensitivity to L2 capacity (per slice: 128 KiB – 1 MiB).
//!
//! Larger L2s filter more ECC-triggering misses and give the fragment
//! store more victims to cover; smaller L2s stress the protection path.

use super::sweep;
use crate::runner::ExpOptions;
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F9.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let rows = [128u64, 256, 512, 1024].map(|slice_kib| {
        let mut cfg = GpuConfig::gddr6();
        cfg.l2.capacity_bytes = slice_kib << 10;
        let labels = vec![
            format!("{slice_kib} KiB"),
            format!("{} MiB", (slice_kib * 8) >> 10),
        ];
        (labels, cfg, SchemeKind::headline(&cfg).to_vec())
    });
    sweep(
        opts,
        "F9",
        "Sensitivity to L2 capacity, geomean over the sweep subset",
        "f9_l2_capacity",
        vec!["L2/slice", "L2 total", "naive", "ecc-cache", "cachecraft"],
        rows,
    )
}
