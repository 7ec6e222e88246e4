//! Observer pins: what the DRAM issue stream's observers record must not
//! depend on how the cycle loop hands them the stream.
//!
//! The fault injector draws from one seeded RNG per run, one Bernoulli
//! trial per DRAM read in issue order, so its counters and its trace
//! events pin that order: channels ascending within a cycle, and each
//! read in the cycle it issued. The Chrome trace and the timeline pin the
//! per-transaction events and the epoch samples. All values come from
//! `tiny` spmv, seed 1, on `GpuConfig::gddr6()` (refresh on), injecting
//! single-symbol errors into 1% of the reads.

use cachecraft::harness::cellcache::{fnv1a64, FNV_BASIS};
use cachecraft::schemes::cachecraft::CacheCraftConfig;
use cachecraft::schemes::factory::SchemeKind;
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::faults::{FaultConfig, FaultStats};
use cachecraft::sim::{simulate, Observe};
use cachecraft::telemetry::TelemetryConfig;
use cachecraft::workloads::{SizeClass, Workload};

/// The injected fault configuration: one symbol error in 1% of reads.
fn faults() -> FaultConfig {
    FaultConfig::parse("symbol:0.01")
        .expect("valid spec")
        .with_seed(1)
}

/// Every [`FaultStats`] field in declaration order. The destructuring
/// makes a new field a compile error here until it is pinned too.
fn fault_fields(f: &FaultStats) -> [u64; 7] {
    let FaultStats {
        data_reads,
        ecc_reads,
        injected,
        benign,
        corrected,
        due,
        sdc,
    } = *f;
    [data_reads, ecc_reads, injected, benign, corrected, due, sdc]
}

/// Each headline scheme's [`fault_fields`], in `SchemeKind::headline`
/// order.
const SPMV_TINY_FAULTS: [[u64; 7]; 4] = [
    [9216, 0, 83, 0, 0, 0, 83],
    [9216, 9728, 194, 0, 6, 110, 78],
    [9216, 1217, 91, 0, 4, 42, 45],
    [9216, 1154, 96, 0, 96, 0, 0],
];

#[test]
fn pinned_fault_stats_spmv_tiny_with_telemetry_off_and_full() {
    let cfg = GpuConfig::gddr6();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    for telemetry in [TelemetryConfig::Off, TelemetryConfig::Full] {
        let obs = Observe {
            telemetry,
            faults: Some(faults()),
            ..Observe::default()
        };
        let got: Vec<[u64; 7]> = SchemeKind::headline(&cfg)
            .iter()
            .map(|kind| {
                let out = simulate(&cfg, &trace, kind.build(&cfg).as_mut(), &obs);
                fault_fields(&out.stats.faults.expect("fault stats attached"))
            })
            .collect();
        for row in &got {
            println!("    {row:?},");
        }
        assert_eq!(got, SPMV_TINY_FAULTS, "telemetry {telemetry:?}");
    }
}

/// `(fnv1a64 of the Chrome-trace JSON, fnv1a64 of the timeline JSON)`
/// of the injected spmv/cachecraft cell under full telemetry.
const SPMV_TINY_CACHECRAFT_DIGESTS: (u64, u64) = (0x4243_5406_46d1_15c6, 0x9b1f_44ff_de25_8882);

#[test]
fn pinned_trace_and_timeline_digests_spmv_tiny_cachecraft() {
    let cfg = GpuConfig::gddr6();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let kind = SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg));
    let obs = Observe {
        telemetry: TelemetryConfig::Full,
        faults: Some(faults()),
        ..Observe::default()
    };
    let out = simulate(&cfg, &trace, kind.build(&cfg).as_mut(), &obs);
    let chrome = out.trace.expect("trace collected").to_json();
    assert!(chrome.contains("\"cat\":\"dram\"") && chrome.contains("\"name\":\"fault:"));
    let timeline = serde_json::to_string(&out.stats.timeline.expect("timeline attached"))
        .expect("timeline serializes");
    let got = (
        fnv1a64(chrome.as_bytes(), FNV_BASIS),
        fnv1a64(timeline.as_bytes(), FNV_BASIS),
    );
    println!("    ({:#x}, {:#x})", got.0, got.1);
    assert_eq!(got, SPMV_TINY_CACHECRAFT_DIGESTS);
}
