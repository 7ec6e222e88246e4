//! F13 (extension) — generality across memory types: the headline schemes
//! on an HBM2-class machine (16 narrower channels, 1 KiB rows).
//!
//! HBM parts usually carry side-band ECC, but the comparison is still
//! informative: it shows whether CacheCraft's mechanisms depend on
//! GDDR-specific geometry (long rows, few channels) or survive a
//! many-channel, short-row memory — i.e., whether a vendor could use
//! inline ECC + CacheCraft instead of paying for side-band storage.

use super::sweep;
use crate::runner::ExpOptions;
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F13.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let rows = [
        ("GDDR6-class", GpuConfig::gddr6()),
        ("HBM2-class", GpuConfig::hbm2()),
    ]
    .map(|(label, cfg)| {
        let labels = vec![
            label.to_string(),
            format!("{} x {} KiB", cfg.mem.channels, cfg.mem.row_bytes >> 10),
        ];
        (labels, cfg, SchemeKind::headline(&cfg).to_vec())
    });
    sweep(
        opts,
        "F13",
        "Generality: normalized perf on GDDR6-class vs HBM2-class machines",
        "f13_hbm",
        vec![
            "machine",
            "channels x row",
            "naive",
            "ecc-cache",
            "cachecraft",
        ],
        rows,
    )
}
