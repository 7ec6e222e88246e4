//! Runtime invariant oracle, end to end (`--features check-invariants`).
//!
//! Two claims:
//!
//! 1. **The oracle is transparent.** Re-running the golden corpus with
//!    every conservation / protocol / fast-forward-memo check armed
//!    reproduces the exact pinned statistics of the default build — the
//!    instrumented build ticks through predicted-idle spans instead of
//!    jumping them, and the results are bit-identical.
//! 2. **The oracle has teeth.** A deliberately lying protection scheme —
//!    one that buffers a timed ECC write but reports no timed event, the
//!    precise contract violation `next_timed_event` exists to prevent —
//!    is caught the moment its hidden write lands inside a span the loop
//!    proved idle.

#![cfg(feature = "check-invariants")]

use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::gpu::{simulate, Observe};
use cachecraft::sim::protection::{ChannelInterleave, Fill, ProtectionScheme, Writeback};
use cachecraft::sim::trace::{KernelTrace, WarpOp, WarpTrace};
use cachecraft::sim::types::{Cycle, LogicalAtom, PhysLoc};
use cachecraft::workloads::{SizeClass, Workload};

/// The golden corpus under the oracle: every check armed, every
/// predicted-idle span ticked through and verified, and the pinned
/// statistics of `tests/golden_regression.rs` still reproduced exactly.
#[test]
fn oracle_reproduces_pinned_golden_stats() {
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
        assert_eq!(s.cycles, cycles, "{name}: oracle build drifted (cycles)");
        assert_eq!(s.exec_cycles, exec, "{name}: oracle build drifted (exec)");
        assert_eq!(s.dram, dram, "{name}: oracle build drifted (dram)");
    }
}

/// One scheme's pinned `(name, cycles, exec_cycles, dram, [row_hits,
/// row_empties, row_conflicts], refreshes)`.
type Pinned = (&'static str, u64, u64, [u64; 4], [u64; 3], u64);

/// The refresh-enabled golden under the oracle: `spmv` on `gddr6()`,
/// where MSHR-blocked SMs and sleeping L2 slices both occur and every
/// slice's wake is capped at its next refresh. The values are those
/// pinned by `tests/golden_regression.rs`.
#[test]
fn oracle_reproduces_refresh_golden() {
    let cfg = GpuConfig::gddr6();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let expect: [Pinned; 4] = [
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
    for (kind, (name, cycles, exec, dram, rows, refreshes)) in
        SchemeKind::headline(&cfg).into_iter().zip(expect)
    {
        let s = run_scheme(&cfg, kind, &trace);
        assert_eq!(kind.name(), name);
        assert_eq!(s.cycles, cycles, "{name}: oracle build drifted (cycles)");
        assert_eq!(s.exec_cycles, exec, "{name}: oracle build drifted (exec)");
        assert_eq!(s.dram, dram, "{name}: oracle build drifted (dram)");
        assert_eq!(
            [s.row_hits, s.row_empties, s.row_conflicts],
            rows,
            "{name}: oracle build drifted (row outcomes)"
        );
        assert_eq!(
            s.refreshes, refreshes,
            "{name}: oracle build drifted (refreshes)"
        );
    }
}

/// Broader oracle coverage: write-back-heavy and irregular workloads
/// exercise the RMW, coalescing and conflict paths the streaming golden
/// kernel never reaches. Any invariant violation panics; the assertions
/// here only confirm the runs did real work.
#[test]
fn oracle_passes_on_varied_workloads() {
    let cfg = GpuConfig::tiny();
    for wl in [Workload::Triad, Workload::Transpose, Workload::Histogram] {
        let trace = wl.generate(SizeClass::Tiny, 7);
        for kind in SchemeKind::headline(&cfg) {
            let s = run_scheme(&cfg, kind, &trace);
            assert!(!s.timed_out, "{wl:?}/{}: timed out", kind.name());
            assert!(s.dram_bytes() > 0, "{wl:?}/{}: no traffic", kind.name());
        }
    }
}

/// A scheme that violates the `next_timed_event` contract: `demand_fill`
/// buffers an ECC write due 500 cycles later, but `next_timed_event`
/// claims the scheme has no timed behaviour. The idle fast-forward
/// therefore proves spans idle that are not — exactly the class of bug
/// the tick-through oracle exists to catch.
#[derive(Debug)]
struct LyingScheme {
    interleave: ChannelInterleave,
    /// Buffered ECC writes: `(channel, local atom, due cycle)`.
    pending: Vec<(u16, u64, Cycle)>,
}

impl LyingScheme {
    fn new(interleave: ChannelInterleave) -> Self {
        LyingScheme {
            interleave,
            pending: Vec::new(),
        }
    }
}

impl ProtectionScheme for LyingScheme {
    fn name(&self) -> &str {
        "lying"
    }

    fn map(&self, logical: LogicalAtom) -> PhysLoc {
        let (channel, local) = self.interleave.split(logical);
        PhysLoc::new(channel, local)
    }

    fn demand_fill(&mut self, loc: PhysLoc, now: Cycle) -> Fill {
        // Hide a delayed ECC write in a carve-out far above the data.
        self.pending
            .push((loc.channel, loc.atom + (1 << 20), now + 500));
        Fill::Unprotected
    }

    fn writeback(
        &mut self,
        _loc: PhysLoc,
        _now: Cycle,
        _resident: &mut dyn FnMut(u64) -> bool,
    ) -> Writeback {
        Writeback::Unprotected
    }

    fn drain_ecc_writes(&mut self, channel: u16, now: Cycle, budget: usize, out: &mut Vec<u64>) {
        let start = out.len();
        self.pending.retain(|&(ch, atom, due)| {
            if ch == channel && due <= now && out.len() - start < budget {
                out.push(atom);
                false
            } else {
                true
            }
        });
    }

    fn flush(&mut self) {
        for p in &mut self.pending {
            p.2 = 0;
        }
    }

    fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    // The lie: pending timed writes exist, but none are ever announced.
    // (A correct scheme returns the earliest pending deadline here.)
}

/// The hidden write lands mid-span: one load plants the delayed ECC
/// write, a long trailing compute makes the machine provably idle, and
/// 500 cycles later the drain mutates memory-controller state inside the
/// frozen span. The oracle must abort the run.
#[test]
#[should_panic(expected = "predicted-idle")]
fn lying_scheme_is_caught_mid_span() {
    let cfg = GpuConfig::tiny();
    let scheme_interleave = ChannelInterleave::new(cfg.mem.channels, cfg.mem.interleave_atoms);
    let mut scheme = LyingScheme::new(scheme_interleave);
    let trace = KernelTrace::new(
        "lying-probe",
        vec![WarpTrace::new(vec![
            WarpOp::Load {
                atoms: &[LogicalAtom(0)],
            },
            WarpOp::Compute { cycles: 4000 },
        ])],
    );
    let _ = simulate(&cfg, &trace, &mut scheme, &Observe::default());
}
