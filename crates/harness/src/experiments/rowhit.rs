//! F3 — row-buffer behaviour: reserved-region vs row-colocated ECC (C1).
//!
//! Both variants fetch ECC naively (no on-chip ECC state), isolating the
//! placement effect: co-location turns ECC fetches into row hits.

use crate::geomean;
use crate::report::{banner, emit_csv, f3, pct, Table};
use crate::runner::{require, run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_workloads::Workload;

/// Prints and saves F3.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    banner(
        "F3",
        &format!(
            "Row-buffer hit rate and performance: reserved-region vs co-located ECC ({} size)",
            opts.size
        ),
    );
    let cfg = GpuConfig::gddr6();
    let schemes @ [off, reserved_ecc, colocated_ecc] = [
        SchemeKind::NoProtection,
        SchemeKind::InlineNaive { coverage: 8 }, // reserved-region placement
        SchemeKind::CacheCraft(CacheCraftConfig::colocate_only()), // C1 only
    ];
    let results = run_matrix(&cfg, &Workload::ALL, &schemes, opts);
    let mut t = Table::new(vec![
        "workload",
        "row-hit (ecc off)",
        "row-hit (reserved)",
        "row-hit (colocated)",
        "perf (reserved)",
        "perf (colocated)",
    ]);
    let mut reserved_norm = Vec::new();
    let mut coloc_norm = Vec::new();
    for w in Workload::ALL {
        let base = &require(&results, w, &off)?.stats;
        let reserved = &require(&results, w, &reserved_ecc)?.stats;
        let coloc = &require(&results, w, &colocated_ecc)?.stats;
        let rn = base.exec_cycles as f64 / reserved.exec_cycles as f64;
        let cn = base.exec_cycles as f64 / coloc.exec_cycles as f64;
        reserved_norm.push(rn);
        coloc_norm.push(cn);
        t.row(vec![
            w.name().to_string(),
            pct(base.row_hit_rate()),
            pct(reserved.row_hit_rate()),
            pct(coloc.row_hit_rate()),
            f3(rn),
            f3(cn),
        ]);
    }
    t.row(vec![
        "**geomean**".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        f3(geomean(&reserved_norm)),
        f3(geomean(&coloc_norm)),
    ]);
    println!("{}", t.to_markdown());
    emit_csv("f3_rowhit", &t)?;
    Ok(())
}
