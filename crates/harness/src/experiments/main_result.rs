//! F4 + F5 — the main result: normalized performance and DRAM traffic of
//! the four headline schemes across the workload suite.

use crate::geomean;
use crate::report::{banner, emit_csv, emit_stats_json, f3, pct, Table};
use crate::runner::{require, run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::types::TrafficClass;
use ccraft_workloads::Workload;

/// Prints and saves F4 (normalized performance) and F5 (traffic).
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let cfg = GpuConfig::gddr6();
    let schemes = SchemeKind::headline(&cfg);
    let results = run_matrix(&cfg, &Workload::ALL, &schemes, opts);

    banner(
        "F4",
        &format!("Normalized performance vs ECC-off ({} size)", opts.size),
    );
    let mut header = vec!["workload".to_string()];
    header.extend(schemes.iter().map(|s| s.name().to_string()));
    let mut perf = Table::new(header);
    let mut per_scheme_norm: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in Workload::ALL {
        let base = &require(&results, w, &SchemeKind::NoProtection)?.stats;
        let mut row = vec![w.name().to_string()];
        for (i, scheme) in schemes.iter().enumerate() {
            let norm = require(&results, w, scheme)?.normalized_perf(base);
            per_scheme_norm[i].push(norm);
            row.push(f3(norm));
        }
        perf.row(row);
    }
    let mut gm_row = vec!["**geomean**".to_string()];
    for norms in &per_scheme_norm {
        gm_row.push(f3(geomean(norms)));
    }
    perf.row(gm_row);
    println!("{}", perf.to_markdown());
    emit_csv("f4_normalized_perf", &perf)?;

    banner("F5", "DRAM traffic per scheme (atoms; % is ECC share)");
    let mut traffic = Table::new(vec![
        "workload",
        "scheme",
        "data-rd",
        "data-wr",
        "ecc-rd",
        "ecc-wr",
        "ecc-share",
    ]);
    for w in Workload::ALL {
        for scheme in &schemes {
            let s = &require(&results, w, scheme)?.stats;
            traffic.row(vec![
                w.name().to_string(),
                scheme.name().to_string(),
                s.dram_count(TrafficClass::DataRead).to_string(),
                s.dram_count(TrafficClass::DataWrite).to_string(),
                s.dram_count(TrafficClass::EccRead).to_string(),
                s.dram_count(TrafficClass::EccWrite).to_string(),
                pct(s.ecc_traffic_fraction()),
            ]);
        }
    }
    println!("{}", traffic.to_markdown());
    emit_csv("f5_dram_traffic", &traffic)?;

    let all_stats: Vec<_> = results.iter().map(|r| r.stats.clone()).collect();
    emit_stats_json("main_raw", &all_stats)?;
    Ok(())
}
