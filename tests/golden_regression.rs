//! Golden regression: pinned end-to-end statistics for two configurations.
//!
//! `GpuConfig::tiny()` runs with DRAM refresh off; the `gddr6()` golden
//! runs with refresh on, so refresh timing and the `refreshes` count are
//! pinned too. The simulator is fully deterministic, so these exact
//! values must reproduce on any platform. If a deliberate model change shifts them,
//! re-baseline *and* re-run the full evaluation (EXPERIMENTS.md) in the
//! same change.

use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::workloads::{SizeClass, Workload};

#[test]
fn pinned_stats_vecadd_tiny() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::VecAdd.generate(SizeClass::Tiny, 1);
    let expect: [(&str, u64, u64, [u64; 4]); 4] = [
        ("no-protection", 32675, 32492, [16384, 8192, 0, 0]),
        ("inline-naive", 66240, 65585, [16384, 8192, 24576, 8192]),
        ("ecc-cache", 43125, 42425, [16384, 8192, 3072, 984]),
        ("cachecraft", 38168, 37838, [16384, 8192, 2345, 1307]),
    ];
    for (kind, (name, cycles, exec, dram)) in SchemeKind::headline(&cfg).into_iter().zip(expect) {
        let s = run_scheme(&cfg, kind, &trace);
        assert_eq!(kind.name(), name);
        assert_eq!(s.cycles, cycles, "{name}: total cycles drifted");
        assert_eq!(s.exec_cycles, exec, "{name}: exec cycles drifted");
        assert_eq!(s.dram, dram, "{name}: DRAM traffic drifted");
    }
}

/// One scheme's pinned `(name, cycles, exec_cycles, dram, [row_hits,
/// row_empties, row_conflicts], refreshes)`.
type Pinned = (&'static str, u64, u64, [u64; 4], [u64; 3], u64);

/// `spmv` at tiny size, seed 1, on `GpuConfig::gddr6()`.
const SPMV_GDDR6: [Pinned; 4] = [
    (
        "no-protection",
        63418,
        63295,
        [9216, 512, 0, 0],
        [9318, 398, 12],
        128,
    ),
    (
        "inline-naive",
        67586,
        67015,
        [9216, 512, 9728, 512],
        [19050, 711, 207],
        136,
    ),
    (
        "ecc-cache",
        65286,
        65004,
        [9216, 512, 1217, 0],
        [10112, 672, 161],
        128,
    ),
    (
        "cachecraft",
        64118,
        63836,
        [9216, 512, 1154, 63],
        [10398, 524, 23],
        128,
    ),
];

#[test]
fn pinned_stats_spmv_tiny_gddr6() {
    let cfg = GpuConfig::gddr6();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    for (kind, expect) in SchemeKind::headline(&cfg).into_iter().zip(SPMV_GDDR6) {
        let (name, cycles, exec, dram, rows, refreshes) = expect;
        let s = run_scheme(&cfg, kind, &trace);
        assert_eq!(kind.name(), name);
        assert_eq!(s.cycles, cycles, "{name}: total cycles drifted");
        assert_eq!(s.exec_cycles, exec, "{name}: exec cycles drifted");
        assert_eq!(s.dram, dram, "{name}: DRAM traffic drifted");
        assert_eq!(
            [s.row_hits, s.row_empties, s.row_conflicts],
            rows,
            "{name}: row-buffer outcomes drifted"
        );
        assert_eq!(s.refreshes, refreshes, "{name}: refresh count drifted");
    }
}
