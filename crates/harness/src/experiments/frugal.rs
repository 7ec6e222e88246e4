//! F15 (extension) — CacheCraft vs compression-backed inline ECC.
//!
//! Frugal-ECC-style compression (Kim et al., SC'15) is the other way to
//! make inline ECC cheap: if an atom compresses below the check-bit
//! budget, data and ECC travel in one transaction. Its effectiveness is
//! tied to data compressibility, which this experiment sweeps; CacheCraft
//! needs no assumption about data values. The crossover compressibility
//! is the figure's takeaway.

use super::{subset_norms, SWEEP_SUBSET};
use crate::geomean;
use crate::report::{banner, emit_csv, f3, Table};
use crate::runner::{run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F15.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    banner(
        "F15",
        &format!(
            "Compression-backed inline ECC vs CacheCraft, geomean over the sweep subset ({} size)",
            opts.size
        ),
    );
    let cfg = GpuConfig::gddr6();
    let mut t = Table::new(vec!["scheme", "normalized perf"]);
    // Baseline + cachecraft once; each compressed variant's matrix joins
    // them, so its cells are read against the same baseline cells.
    let base = SchemeKind::NoProtection;
    let craft = SchemeKind::CacheCraft(CacheCraftConfig::full());
    let mut results = run_matrix(&cfg, &SWEEP_SUBSET, &[base, craft], opts);
    t.row(vec![
        "cachecraft".to_string(),
        f3(geomean(&subset_norms(&results, &base, &craft)?)),
    ]);
    for pct in [0u8, 50, 75, 90, 100] {
        let compressed = SchemeKind::CompressedInline {
            coverage: 8,
            compress_pct: pct,
        };
        results.extend(run_matrix(&cfg, &SWEEP_SUBSET, &[compressed], opts));
        t.row(vec![
            format!("compressed-inline ({pct}% compressible)"),
            f3(geomean(&subset_norms(&results, &base, &compressed)?)),
        ]);
    }
    println!("{}", t.to_markdown());
    emit_csv("f15_compression", &t)?;
    Ok(())
}
