//! F1 + F2 — motivation: what naive inline ECC costs.

use crate::geomean;
use crate::report::{banner, emit_csv, f3, pct, Table};
use crate::runner::{require, run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::types::TrafficClass;
use ccraft_workloads::Workload;

/// Prints and saves F1 (performance loss) and F2 (traffic breakdown).
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let cfg = GpuConfig::gddr6();
    let (off, naive) = (
        SchemeKind::NoProtection,
        SchemeKind::InlineNaive { coverage: 8 },
    );
    let results = run_matrix(&cfg, &Workload::ALL, &[off, naive], opts);

    banner(
        "F1",
        &format!(
            "Motivation: performance under naive inline ECC, normalized to ECC-off ({} size)",
            opts.size
        ),
    );
    let mut f1 = Table::new(vec!["workload", "normalized perf", "slowdown"]);
    let mut norms = Vec::new();
    for w in Workload::ALL {
        let base = &require(&results, w, &off)?.stats;
        let norm = require(&results, w, &naive)?.normalized_perf(base);
        norms.push(norm);
        f1.row(vec![w.name().to_string(), f3(norm), pct(1.0 - norm)]);
    }
    f1.row(vec![
        "**geomean**".to_string(),
        f3(geomean(&norms)),
        pct(1.0 - geomean(&norms)),
    ]);
    println!("{}", f1.to_markdown());
    emit_csv("f1_motivation_perf", &f1)?;

    banner(
        "F2",
        "Motivation: DRAM traffic breakdown under naive inline ECC",
    );
    let mut f2 = Table::new(vec![
        "workload",
        "data rd",
        "data wr",
        "ecc rd",
        "ecc wr",
        "ecc share",
        "traffic amplification",
    ]);
    for w in Workload::ALL {
        let base = &require(&results, w, &off)?.stats;
        let s = &require(&results, w, &naive)?.stats;
        let amp = s.dram_bytes() as f64 / base.dram_bytes().max(1) as f64;
        f2.row(vec![
            w.name().to_string(),
            s.dram_count(TrafficClass::DataRead).to_string(),
            s.dram_count(TrafficClass::DataWrite).to_string(),
            s.dram_count(TrafficClass::EccRead).to_string(),
            s.dram_count(TrafficClass::EccWrite).to_string(),
            pct(s.ecc_traffic_fraction()),
            format!("{amp:.2}x"),
        ]);
    }
    println!("{}", f2.to_markdown());
    emit_csv("f2_motivation_traffic", &f2)?;
    Ok(())
}
