//! F11 — scaling with memory channels (4 → 16): does CacheCraft's
//! advantage persist as raw bandwidth grows?

use super::sweep;
use crate::runner::ExpOptions;
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F11.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let rows = [4u16, 8, 16].map(|channels| {
        let mut cfg = GpuConfig::gddr6();
        cfg.mem.channels = channels;
        let labels = vec![
            channels.to_string(),
            format!("{:.0}", cfg.peak_bw_bytes_per_cycle()),
        ];
        (labels, cfg, SchemeKind::headline(&cfg).to_vec())
    });
    sweep(
        opts,
        "F11",
        "Scaling with channel count, geomean normalized perf",
        "f11_channels",
        vec![
            "channels",
            "peak BW (B/cyc)",
            "naive",
            "ecc-cache",
            "cachecraft",
        ],
        rows,
    )
}
