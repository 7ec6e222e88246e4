//! F14 — energy: what memory protection costs in joules.
//!
//! Computed post hoc from run statistics with the event-based
//! [`EnergyModel`] (GDDR6-class constants; see `ccraft_sim::energy` for
//! provenance and caveats). Reported per scheme: total energy normalized
//! to ECC-off, and the fraction of energy spent on protection (ECC
//! bursts + on-chip ECC structures).

use crate::geomean;
use crate::report::{banner, emit_csv, f3, pct, Table};
use crate::runner::{require, run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::energy::EnergyModel;
use ccraft_workloads::Workload;

/// Prints and saves F14.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    banner(
        "F14",
        &format!(
            "Energy overhead of protection, normalized to ECC-off ({} size)",
            opts.size
        ),
    );
    let cfg = GpuConfig::gddr6();
    let model = EnergyModel::gddr6();
    let schemes = SchemeKind::headline(&cfg);
    let results = run_matrix(&cfg, &Workload::ALL, &schemes, opts);

    let mut t = Table::new(vec![
        "workload",
        "naive energy",
        "ecc-cache energy",
        "cachecraft energy",
        "cachecraft prot. share",
    ]);
    let mut norms = vec![Vec::new(); 3];
    for w in Workload::ALL {
        let base = require(&results, w, &SchemeKind::NoProtection)?;
        let base_e = model.evaluate(&base.stats, cfg.mem.channels).total_nj();
        let mut row = vec![w.name().to_string()];
        let mut craft_share = 0.0;
        for (i, scheme) in schemes.iter().enumerate().skip(1) {
            let r = require(&results, w, scheme)?;
            let e = model.evaluate(&r.stats, cfg.mem.channels);
            let norm = e.total_nj() / base_e;
            norms[i - 1].push(norm);
            row.push(format!("{:.3}x", norm));
            if scheme.name() == "cachecraft" {
                craft_share = e.protection_fraction();
            }
        }
        row.push(pct(craft_share));
        t.row(row);
    }
    t.row(vec![
        "**geomean**".to_string(),
        format!("{}x", f3(geomean(&norms[0]))),
        format!("{}x", f3(geomean(&norms[1]))),
        format!("{}x", f3(geomean(&norms[2]))),
        "-".to_string(),
    ]);
    println!("{}", t.to_markdown());
    emit_csv("f14_energy", &t)?;
    Ok(())
}
