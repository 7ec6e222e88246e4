//! Golden regression: pinned end-to-end statistics for one configuration.
//!
//! The simulator is fully deterministic, so these exact values must
//! reproduce on any platform. If a deliberate model change shifts them,
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
