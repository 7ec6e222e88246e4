//! F6 — on-chip ECC hit rate at the schemes' actual design points.
//!
//! The dedicated ECC cache pays for its capacity in new SRAM (16 KiB/MC at
//! the design point, 144 KiB of new silicon GPU-wide including tags); the
//! fragment store repurposes 64 KiB/slice of existing L2 for ~73 KiB of
//! new silicon (tags + buffers, see T4). This figure shows what that
//! affordable 4x capacity buys in ECC hit rate — plus, as a reference,
//! what the dedicated cache would achieve if it were grown to the same
//! 64 KiB (at 4x the silicon cost).

use crate::report::{banner, emit_csv, pct, Table};
use crate::runner::{require, run_matrix, ExpOptions};
use crate::Error;
use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_workloads::Workload;

fn hit_rate(s: &ccraft_sim::protection::ProtectionStats) -> f64 {
    let total = s.ecc_fetch_hits + s.ecc_demand_fetches;
    if total == 0 {
        1.0
    } else {
        s.ecc_fetch_hits as f64 / total as f64
    }
}

/// Prints and saves F6.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    banner(
        "F6",
        &format!(
            "On-chip ECC hit rate at the design points ({} size): 16 KiB dedicated vs 64 KiB repurposed",
            opts.size
        ),
    );
    let cfg = GpuConfig::gddr6();
    let dedicated16 = SchemeKind::EccCache {
        coverage: 8,
        capacity_per_mc: 16 << 10,
    };
    let dedicated64 = SchemeKind::EccCache {
        coverage: 8,
        capacity_per_mc: 64 << 10,
    };
    // Fragment store without C3 so pending-write hits don't inflate the
    // comparison; C1 retained (it is part of the design point).
    let fragments = SchemeKind::CacheCraft(CacheCraftConfig {
        reconstruct: false,
        ..CacheCraftConfig::default()
    });
    let results16 = run_matrix(&cfg, &Workload::ALL, &[dedicated16], opts);
    let results64 = run_matrix(&cfg, &Workload::ALL, &[dedicated64], opts);
    let resultsfr = run_matrix(&cfg, &Workload::ALL, &[fragments], opts);
    let mut t = Table::new(vec![
        "workload",
        "dedicated 16K hit",
        "fragment 64K hit",
        "dedicated 64K hit (4x silicon)",
        "ECC fetches: 16K ded / 64K frag",
    ]);
    for w in Workload::ALL {
        let d16 = &require(&results16, w, &dedicated16)?.stats;
        let d64 = &require(&results64, w, &dedicated64)?.stats;
        let fr = &require(&resultsfr, w, &fragments)?.stats;
        t.row(vec![
            w.name().to_string(),
            pct(hit_rate(&d16.protection)),
            pct(hit_rate(&fr.protection)),
            pct(hit_rate(&d64.protection)),
            format!(
                "{} / {}",
                d16.protection.ecc_demand_fetches, fr.protection.ecc_demand_fetches
            ),
        ]);
    }
    println!("{}", t.to_markdown());
    emit_csv("f6_ecchit", &t)?;
    Ok(())
}
