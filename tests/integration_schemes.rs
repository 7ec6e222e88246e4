//! Cross-crate integration tests: full-stack simulations on the tiny
//! machine asserting conservation laws and scheme orderings that must hold
//! regardless of parameters.

use cachecraft::schemes::cachecraft::CacheCraftConfig;
use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::types::TrafficClass;
use cachecraft::sim::{simulate, Observe};
use cachecraft::workloads::{SizeClass, Workload};

fn tiny_schemes() -> [SchemeKind; 4] {
    SchemeKind::headline(&GpuConfig::tiny())
}

#[test]
fn every_workload_completes_under_every_scheme() {
    let cfg = GpuConfig::tiny();
    for w in Workload::ALL {
        let trace = w.generate(SizeClass::Tiny, 11);
        for kind in tiny_schemes() {
            let stats = run_scheme(&cfg, kind, &trace);
            assert!(!stats.timed_out, "{w}/{kind} timed out");
            assert_eq!(stats.ops, trace.total_ops(), "{w}/{kind} lost ops");
        }
    }
}

#[test]
fn demand_data_traffic_is_scheme_invariant() {
    // Protection adds ECC traffic but must not change how much *data* is
    // read on demand (same trace, same caches modulo the CacheCraft tax).
    // Single-touch streams only: kernels with reuse may refetch a handful
    // of atoms depending on eviction timing, which differs across schemes.
    let cfg = GpuConfig::tiny();
    for w in [Workload::VecAdd, Workload::Triad, Workload::Saxpy] {
        let trace = w.generate(SizeClass::Tiny, 3);
        let counts: Vec<u64> = tiny_schemes()
            .iter()
            .map(|&k| run_scheme(&cfg, k, &trace).dram_count(TrafficClass::DataRead))
            .collect();
        assert_eq!(counts[0], counts[1], "{w}: naive changed data reads");
        assert_eq!(counts[0], counts[2], "{w}: ecc-cache changed data reads");
        // The taxed CacheCraft L2 may add a small number of extra misses.
        let slack = counts[0] / 50 + 8;
        assert!(
            counts[3] <= counts[0] + slack,
            "{w}: cachecraft data reads {} vs baseline {}",
            counts[3],
            counts[0]
        );
    }
}

#[test]
fn ecc_traffic_ordering_no_vs_naive_vs_cached() {
    let cfg = GpuConfig::tiny();
    for w in [Workload::VecAdd, Workload::Histogram, Workload::Spmv] {
        let trace = w.generate(SizeClass::Tiny, 5);
        let ecc: Vec<u64> = tiny_schemes()
            .iter()
            .map(|&k| {
                let s = run_scheme(&cfg, k, &trace);
                s.dram_count(TrafficClass::EccRead) + s.dram_count(TrafficClass::EccWrite)
            })
            .collect();
        assert_eq!(ecc[0], 0, "{w}: ECC-off must have zero ECC traffic");
        assert!(ecc[1] > 0, "{w}: naive must pay ECC traffic");
        assert!(ecc[2] <= ecc[1], "{w}: ecc-cache worse than naive");
        assert!(ecc[3] <= ecc[1], "{w}: cachecraft worse than naive");
    }
}

#[test]
fn every_dirty_atom_reaches_dram_by_flush() {
    // A pure-store kernel: after the end-of-kernel flush, every written
    // atom must have been written back exactly once under every scheme.
    let cfg = GpuConfig::tiny();
    let trace = Workload::VecAdd.generate(SizeClass::Tiny, 9);
    let stores = trace.footprint_atoms() / 3; // the C array
    for kind in tiny_schemes() {
        let s = run_scheme(&cfg, kind, &trace);
        assert_eq!(
            s.dram_count(TrafficClass::DataWrite),
            stores,
            "{kind}: writes lost or duplicated"
        );
    }
}

#[test]
fn end_to_end_determinism_across_schemes() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Bfs.generate(SizeClass::Tiny, 21);
    for kind in tiny_schemes() {
        let a = run_scheme(&cfg, kind, &trace);
        let b = run_scheme(&cfg, kind, &trace);
        assert_eq!(a, b, "{kind} not deterministic");
    }
}

#[test]
fn cachecraft_beats_naive_on_average_and_on_traffic() {
    // The headline claim, as hard invariants that are robust at tiny
    // scale: (1) CacheCraft's ECC traffic is lower than naive's on every
    // workload; (2) its performance beats naive in the geometric mean
    // (individual kernels may swing a few percent either way from L2-tax
    // and layout effects).
    let cfg = GpuConfig::tiny();
    let mut ratios = Vec::new();
    for w in Workload::ALL {
        let trace = w.generate(SizeClass::Tiny, 2);
        let naive = run_scheme(&cfg, SchemeKind::InlineNaive { coverage: 8 }, &trace);
        let craft = run_scheme(
            &cfg,
            SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg)),
            &trace,
        );
        let naive_ecc =
            naive.dram_count(TrafficClass::EccRead) + naive.dram_count(TrafficClass::EccWrite);
        let craft_ecc =
            craft.dram_count(TrafficClass::EccRead) + craft.dram_count(TrafficClass::EccWrite);
        assert!(
            craft_ecc < naive_ecc,
            "{w}: cachecraft ECC traffic {craft_ecc} not below naive {naive_ecc}"
        );
        ratios.push(naive.exec_cycles as f64 / craft.exec_cycles as f64);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        geomean > 1.0,
        "cachecraft does not beat naive on average: geomean {geomean:.3}"
    );
}

#[test]
fn hbm_preset_works_end_to_end() {
    let cfg = GpuConfig::hbm2();
    let trace = Workload::Stencil2D.generate(SizeClass::Tiny, 4);
    for kind in SchemeKind::headline(&cfg) {
        let mut scheme = kind.build(&cfg);
        let obs = Observe::default();
        let s = simulate(&cfg, &trace, scheme.as_mut(), &obs).stats;
        assert!(!s.timed_out, "{kind} timed out on hbm2");
    }
}

#[test]
fn ablation_variants_all_complete_and_order_sanely() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Saxpy.generate(SizeClass::Tiny, 6);
    let naive = run_scheme(&cfg, SchemeKind::InlineNaive { coverage: 8 }, &trace);
    for cc in [
        CacheCraftConfig::colocate_only(),
        CacheCraftConfig::fragments_only(),
        CacheCraftConfig::reconstruct_only(),
        CacheCraftConfig::for_machine(&cfg),
    ] {
        let cc = CacheCraftConfig {
            fragment_bytes_per_slice: cc.fragment_bytes_per_slice.min(cfg.l2.capacity_bytes / 8),
            ..cc
        };
        let s = run_scheme(&cfg, SchemeKind::CacheCraft(cc), &trace);
        assert!(!s.timed_out);
        let total_ecc = s.dram_count(TrafficClass::EccRead) + s.dram_count(TrafficClass::EccWrite);
        let naive_ecc =
            naive.dram_count(TrafficClass::EccRead) + naive.dram_count(TrafficClass::EccWrite);
        assert!(
            total_ecc <= naive_ecc,
            "variant {cc:?} generated more ECC traffic than naive"
        );
    }
}

#[test]
fn coverage_ratio_scales_ecc_traffic() {
    // With an ECC cache, wider coverage means one fetched ECC atom serves
    // more of the stream: ECC reads must strictly decrease.
    let cfg = GpuConfig::tiny();
    let trace = Workload::VecAdd.generate(SizeClass::Tiny, 8);
    let mut prev = u64::MAX;
    for coverage in [8u32, 16, 32] {
        let s = run_scheme(
            &cfg,
            SchemeKind::EccCache {
                coverage,
                capacity_per_mc: 4 << 10,
            },
            &trace,
        );
        let reads = s.dram_count(TrafficClass::EccRead);
        assert!(reads > 0);
        assert!(
            reads < prev,
            "coverage {coverage}: {reads} ECC reads, not fewer than tighter coverage"
        );
        prev = reads;
    }
}
