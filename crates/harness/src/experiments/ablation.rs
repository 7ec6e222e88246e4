//! F7 — ablation of the CacheCraft mechanisms over the memory-intensive
//! subset: each component alone, pairwise with C1, and the full design.

use super::{subset_norms, SWEEP_SUBSET};
use crate::geomean;
use crate::report::{banner, emit_csv, f3, Table};
use crate::runner::{run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

/// Prints and saves F7.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    banner(
        "F7",
        &format!(
            "CacheCraft ablation, normalized to ECC-off ({} size)",
            opts.size
        ),
    );
    let cfg = GpuConfig::gddr6();
    let variants: Vec<(&str, SchemeKind)> = vec![
        ("ecc-off", SchemeKind::NoProtection),
        ("naive", SchemeKind::InlineNaive { coverage: 8 }),
        (
            "C1 (colocate)",
            SchemeKind::CacheCraft(CacheCraftConfig::colocate_only()),
        ),
        (
            "C2 (fragments)",
            SchemeKind::CacheCraft(CacheCraftConfig::fragments_only()),
        ),
        (
            "C3 (reconstruct)",
            SchemeKind::CacheCraft(CacheCraftConfig::reconstruct_only()),
        ),
        (
            "C1+C2",
            SchemeKind::CacheCraft(CacheCraftConfig {
                reconstruct: false,
                ..CacheCraftConfig::default()
            }),
        ),
        (
            "C1+C3",
            SchemeKind::CacheCraft(CacheCraftConfig {
                fragment_store: false,
                ..CacheCraftConfig::default()
            }),
        ),
        (
            "full (C1+C2+C3)",
            SchemeKind::CacheCraft(CacheCraftConfig::full()),
        ),
    ];
    let kinds: Vec<SchemeKind> = variants.iter().map(|&(_, k)| k).collect();
    let results = run_matrix(&cfg, &SWEEP_SUBSET, &kinds, opts);

    let mut header = vec!["variant".to_string()];
    header.extend(SWEEP_SUBSET.iter().map(|w| w.name().to_string()));
    header.push("geomean".to_string());
    let mut t = Table::new(header);
    for (label, kind) in &variants {
        let norms = subset_norms(&results, &SchemeKind::NoProtection, kind)?;
        let mut row = vec![label.to_string()];
        row.extend(norms.iter().map(|&n| f3(n)));
        row.push(f3(geomean(&norms)));
        t.row(row);
    }
    println!("{}", t.to_markdown());
    emit_csv("f7_ablation", &t)?;
    Ok(())
}
