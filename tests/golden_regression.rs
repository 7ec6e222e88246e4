//! Golden regression: pinned end-to-end statistics for two configurations,
//! and a pinned digest of every generated workload trace.
//!
//! `GpuConfig::tiny()` runs with DRAM refresh off; the `gddr6()` golden
//! runs with refresh on, so refresh timing and the `refreshes` count are
//! pinned too. The simulator is fully deterministic, so these exact
//! values must reproduce on any platform. If a deliberate model change shifts them,
//! re-baseline *and* re-run the full evaluation (EXPERIMENTS.md) in the
//! same change.

use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::protection::ProtectionStats;
use cachecraft::sim::trace::{KernelTrace, WarpOp};
use cachecraft::workloads::{SizeClass, Workload};

/// Every [`ProtectionStats`] field in declaration order: demand fetches,
/// fetch hits, RMW, reconstructed, absorbed, coalesced ECC writes,
/// ECC-structure write-backs, fragment-store hits, coalesce peak
/// occupancy, coalesce merge depth. The destructuring makes a new field a
/// compile error here until it is pinned too.
fn protection_fields(p: &ProtectionStats) -> [u64; 10] {
    let ProtectionStats {
        ecc_demand_fetches,
        ecc_fetch_hits,
        rmw_writebacks,
        reconstructed_writebacks,
        absorbed_writebacks,
        coalesced_ecc_writes,
        ecc_structure_writebacks,
        fragment_store_hits,
        coalesce_peak_occupancy,
        coalesce_max_merge_depth,
    } = *p;
    [
        ecc_demand_fetches,
        ecc_fetch_hits,
        rmw_writebacks,
        reconstructed_writebacks,
        absorbed_writebacks,
        coalesced_ecc_writes,
        ecc_structure_writebacks,
        fragment_store_hits,
        coalesce_peak_occupancy,
        coalesce_max_merge_depth,
    ]
}

/// `vecadd` at tiny size, seed 1, on `GpuConfig::tiny()`: each headline
/// scheme's [`protection_fields`].
const VECADD_TINY_PROTECTION: [[u64; 10]; 4] = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [16384, 0, 8192, 0, 0, 0, 0, 0, 0, 0],
    [2048, 14336, 1024, 0, 7168, 0, 984, 0, 0, 0],
    [2048, 14336, 297, 1024, 6871, 5980, 1307, 5712, 17, 8],
];

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
    let schemes = SchemeKind::headline(&cfg)
        .into_iter()
        .zip(VECADD_TINY_PROTECTION);
    for ((kind, protection), (name, cycles, exec, dram)) in schemes.zip(expect) {
        let s = run_scheme(&cfg, kind, &trace);
        assert_eq!(kind.name(), name);
        assert_eq!(s.cycles, cycles, "{name}: total cycles drifted");
        assert_eq!(s.exec_cycles, exec, "{name}: exec cycles drifted");
        assert_eq!(s.dram, dram, "{name}: DRAM traffic drifted");
        assert_eq!(
            protection_fields(&s.protection),
            protection,
            "{name}: protection counters drifted"
        );
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

/// `spmv` at tiny size, seed 1, on `GpuConfig::gddr6()`: each headline
/// scheme's [`protection_fields`].
const SPMV_GDDR6_PROTECTION: [[u64; 10]; 4] = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [9216, 0, 512, 0, 0, 0, 0, 0, 0, 0],
    [1153, 8063, 64, 0, 448, 0, 0, 0, 0, 0],
    [1153, 8063, 1, 63, 448, 441, 63, 4654, 8, 8],
];

#[test]
fn pinned_stats_spmv_tiny_gddr6() {
    let cfg = GpuConfig::gddr6();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let schemes = SchemeKind::headline(&cfg)
        .into_iter()
        .zip(SPMV_GDDR6_PROTECTION);
    for ((kind, protection), expect) in schemes.zip(SPMV_GDDR6) {
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
        assert_eq!(
            protection_fields(&s.protection),
            protection,
            "{name}: protection counters drifted"
        );
    }
}

/// 64-bit FNV-1a over a trace's content: per warp its op count, then per
/// op its kind, its compute cycles or its atoms in order, and a store's
/// `full` flag.
fn trace_digest(trace: &KernelTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for warp in trace.warps() {
        feed(warp.len() as u64);
        for op in warp.ops() {
            match op {
                WarpOp::Compute { cycles } => {
                    feed(0);
                    feed(u64::from(cycles));
                }
                WarpOp::Load { atoms } => {
                    feed(1);
                    feed(atoms.len() as u64);
                    atoms.iter().for_each(|a| feed(a.0));
                }
                WarpOp::Store { atoms, full } => {
                    feed(2);
                    feed(atoms.len() as u64);
                    atoms.iter().for_each(|a| feed(a.0));
                    feed(u64::from(full));
                }
            }
        }
    }
    h
}

/// `(tiny, small)` trace digests at seed 1, in `Workload::ALL` order. A
/// failing run prints the digests it computed in this layout.
const TRACE_DIGESTS: [(&str, u64, u64); 13] = [
    ("vecadd", 0xbf1774bfb7384f25, 0x363bd691a8e4a925),
    ("triad", 0x2c3af4dcb4fb8425, 0x43a8259fca5e1125),
    ("saxpy", 0x91717296a0fae025, 0xa3d0ef78d015c925),
    ("reduction", 0xd7bfc2367080fdbc, 0x3c2762222ca8216c),
    ("gemm", 0xcba17eb8c26e00a5, 0xbf284b5bddb94625),
    ("stencil2d", 0xeb46f852cf7c84c5, 0x4afb6a01151fc505),
    ("conv2d", 0x5454381408ae6505, 0x85d08b4572ed5125),
    ("transpose", 0x5df851f21344d525, 0xdbb93e08a4b83725),
    ("kmeans", 0x05e1c4d3271db013, 0x0c37c5f305ae0f83),
    ("spmv", 0x23bb80b22ced2f5f, 0xc2ee48d3209bb0f5),
    ("bfs", 0x6cbbe36369d06319, 0x0e8919b4e5b41f66),
    ("histogram", 0xcb38c781cd127817, 0x357d496b1bf50f89),
    ("montecarlo", 0xe1f6d71332326f69, 0x4d36af3915a945c2),
];

#[test]
fn pinned_trace_digests_every_workload() {
    let got: Vec<(&str, u64, u64)> = Workload::ALL
        .into_iter()
        .map(|w| {
            let digest = |size| trace_digest(&w.generate(size, 1));
            (w.name(), digest(SizeClass::Tiny), digest(SizeClass::Small))
        })
        .collect();
    for (name, tiny, small) in &got {
        println!("    (\"{name}\", {tiny:#018x}, {small:#018x}),");
    }
    for (got, expect) in got.into_iter().zip(TRACE_DIGESTS) {
        assert_eq!(got, expect, "{}: generated trace drifted", expect.0);
    }
}

/// One scheme's pinned `(name, summed sm.stall_no_ready_warp, summed
/// sm.stall_lsu_busy, per-channel busy_cycles)`.
type PinnedStalls = (&'static str, u64, u64, [u64; 8]);

/// `spmv` at tiny size, seed 1, on `GpuConfig::gddr6()`: the SM stall
/// counters (through the timeline) and the controllers' busy cycles
/// (through the profile). Neither is part of `SimStats`, and both count
/// the ticks that sleeping components skip.
const SPMV_GDDR6_STALLS: [PinnedStalls; 4] = [
    (
        "no-protection",
        499178,
        256,
        [2491, 4143, 3818, 3012, 3545, 3868, 3176, 2904],
    ),
    (
        "inline-naive",
        530026,
        256,
        [6097, 5541, 6275, 6042, 6120, 5172, 6279, 5896],
    ),
    (
        "ecc-cache",
        513746,
        256,
        [5171, 4678, 4173, 3784, 5370, 4603, 3519, 3573],
    ),
    (
        "cachecraft",
        504629,
        256,
        [3909, 4712, 4016, 3157, 4079, 4002, 3742, 3006],
    ),
];

#[test]
fn pinned_stalls_and_busy_cycles_spmv_tiny_gddr6() {
    use cachecraft::sim::{simulate, Observe};
    use cachecraft::telemetry::TelemetryConfig;

    let cfg = GpuConfig::gddr6();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let obs = Observe {
        telemetry: TelemetryConfig::Timeline,
        profile: true,
        ..Observe::default()
    };
    let mut got = Vec::new();
    for kind in SchemeKind::headline(&cfg) {
        let out = simulate(&cfg, &trace, kind.build(&cfg).as_mut(), &obs);
        let timeline = out.stats.timeline.expect("timeline attached");
        let sum = |name: &str| -> u64 {
            let points = &timeline.series(name).expect("series registered").points;
            points.iter().sum::<f64>() as u64
        };
        let profile = out.profile.expect("profile attached");
        let busy: Vec<u64> = profile.channels.iter().map(|c| c.busy_cycles).collect();
        got.push((
            kind.name(),
            sum("sm.stall_no_ready_warp"),
            sum("sm.stall_lsu_busy"),
            busy,
        ));
    }
    for (name, no_ready, lsu, busy) in &got {
        println!("    (\"{name}\", {no_ready}, {lsu}, {busy:?}),");
    }
    for (got, expect) in got.into_iter().zip(SPMV_GDDR6_STALLS) {
        let (name, no_ready, lsu, busy) = expect;
        assert_eq!(got.0, name);
        assert_eq!(got.1, no_ready, "{name}: stall_no_ready_warp drifted");
        assert_eq!(got.2, lsu, "{name}: stall_lsu_busy drifted");
        assert_eq!(got.3, busy, "{name}: per-channel busy_cycles drifted");
    }
}

/// `vecadd` at tiny size, seed 1, on `GpuConfig::tiny()`: per scheme
/// `(name, SM ticks, L2 slice ticks, controller scans)`.
const VECADD_TINY_TICKS: [(&str, u64, u64, u64); 4] = [
    ("no-protection", 35066, 46725, 28453),
    ("inline-naive", 40512, 104683, 67176),
    ("ecc-cache", 36905, 55835, 35602),
    ("cachecraft", 35689, 52544, 33318),
];

/// `spmv` at tiny size, seed 1, on `GpuConfig::gddr6()`, the same
/// columns. Refresh is on here, so these also pin the scan sleep's cap at
/// the next refresh.
const SPMV_GDDR6_TICKS: [(&str, u64, u64, u64); 4] = [
    ("no-protection", 81040, 27132, 10158),
    ("inline-naive", 81062, 45417, 20698),
    ("ecc-cache", 81055, 30095, 11589),
    ("cachecraft", 81019, 29493, 11493),
];

/// The wake calendar's tick counts, read from the self-profile's memo
/// misses. They do not change the statistics, so a component that stays
/// awake when it could sleep shows up here and nowhere else.
#[test]
fn pinned_tick_counts_vecadd_tiny() {
    use cachecraft::sim::{simulate, Observe};

    let obs = Observe {
        profile: true,
        ..Observe::default()
    };
    let inputs = [
        (GpuConfig::tiny(), Workload::VecAdd, VECADD_TINY_TICKS),
        (GpuConfig::gddr6(), Workload::Spmv, SPMV_GDDR6_TICKS),
    ];
    for (cfg, workload, pinned) in inputs {
        let trace = workload.generate(SizeClass::Tiny, 1);
        let mut got = Vec::new();
        for kind in SchemeKind::headline(&cfg) {
            let out = simulate(&cfg, &trace, kind.build(&cfg).as_mut(), &obs);
            let p = out.profile.expect("profile attached");
            got.push((
                kind.name(),
                p.sm_sleep.misses.get(),
                p.slice_sleep.misses.get(),
                p.scan_memo.misses.get(),
            ));
        }
        println!("{workload}:");
        for (name, sm, slice, scans) in &got {
            println!("    (\"{name}\", {sm}, {slice}, {scans}),");
        }
        for (got, expect) in got.into_iter().zip(pinned) {
            let (name, sm, slice, scans) = expect;
            assert_eq!(got.0, name);
            assert_eq!(got.1, sm, "{workload}/{name}: SM ticks drifted");
            assert_eq!(got.2, slice, "{workload}/{name}: L2 slice ticks drifted");
            assert_eq!(got.3, scans, "{workload}/{name}: controller scans drifted");
        }
    }
}

/// Every busy controller cycle is one scan-memo lookup, whether the
/// controller ticked it or slept through it with its slice.
#[test]
fn scan_memo_lookups_equal_busy_cycles() {
    use cachecraft::sim::{simulate, Observe};

    let cfg = GpuConfig::tiny();
    let trace = Workload::VecAdd.generate(SizeClass::Tiny, 1);
    let obs = Observe {
        profile: true,
        ..Observe::default()
    };
    let kind = SchemeKind::headline(&cfg)[3];
    assert_eq!(kind.name(), "cachecraft");
    let out = simulate(&cfg, &trace, kind.build(&cfg).as_mut(), &obs);
    let p = out.profile.expect("profile attached");
    let busy: u64 = p.channels.iter().map(|c| c.busy_cycles).sum();
    assert!(p.scan_memo.hits.get() > 0);
    assert_eq!(p.scan_memo.total(), busy);
}
