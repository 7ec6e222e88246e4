//! Scheme selection and [`run_scheme`], the one-call simulation wrapper
//! used by the experiment harness, tests and examples.

use crate::cachecraft::{CacheCraft, CacheCraftConfig};
use crate::ecc_cache::EccCache;
use crate::naive::InlineNaive;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::protection::{ChannelInterleave, NoProtection, ProtectionScheme};
use ccraft_sim::stats::SimStats;
use ccraft_sim::trace::KernelTrace;
use ccraft_sim::{simulate, Observe};
use std::fmt;

/// The protection schemes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// ECC disabled (performance upper bound).
    NoProtection,
    /// Naive inline ECC: per-access ECC fetches, per-write-back RMW.
    InlineNaive {
        /// Data atoms per ECC atom.
        coverage: u32,
    },
    /// Dedicated per-MC ECC cache (industry practice).
    EccCache {
        /// Data atoms per ECC atom.
        coverage: u32,
        /// Dedicated capacity per memory controller, bytes.
        capacity_per_mc: u64,
    },
    /// CacheCraft (configurable mechanisms).
    CacheCraft(CacheCraftConfig),
    /// Compression-backed inline ECC (Frugal-ECC-style baseline) with the
    /// given compressibility percentage.
    CompressedInline {
        /// Data atoms per exception atom.
        coverage: u32,
        /// Percentage of atoms that compress below the check-bit budget.
        compress_pct: u8,
    },
}

impl SchemeKind {
    /// The four headline configurations of the main figure (F4), in plot
    /// order, with CacheCraft's fragment budget scaled to the machine.
    pub fn headline(cfg: &GpuConfig) -> [SchemeKind; 4] {
        [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
            SchemeKind::EccCache {
                coverage: 8,
                capacity_per_mc: crate::ecc_cache::DEFAULT_CAPACITY_PER_MC,
            },
            SchemeKind::CacheCraft(CacheCraftConfig::for_machine(cfg)),
        ]
    }

    /// Short name matching the scheme's `ProtectionScheme::name`.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::NoProtection => "no-protection",
            SchemeKind::InlineNaive { .. } => "inline-naive",
            SchemeKind::EccCache { .. } => "ecc-cache",
            SchemeKind::CacheCraft(_) => "cachecraft",
            SchemeKind::CompressedInline { .. } => "compressed-inline",
        }
    }

    /// Instantiates the scheme for a machine.
    pub fn build(&self, cfg: &GpuConfig) -> Box<dyn ProtectionScheme> {
        match *self {
            SchemeKind::NoProtection => Box::new(NoProtection::new(ChannelInterleave::new(
                cfg.mem.channels,
                cfg.mem.interleave_atoms,
            ))),
            SchemeKind::InlineNaive { coverage } => Box::new(InlineNaive::new(cfg, coverage)),
            SchemeKind::EccCache {
                coverage,
                capacity_per_mc,
            } => Box::new(EccCache::new(cfg, coverage, capacity_per_mc)),
            SchemeKind::CacheCraft(cc) => Box::new(CacheCraft::new(cfg, cc)),
            SchemeKind::CompressedInline {
                coverage,
                compress_pct,
            } => Box::new(crate::frugal::CompressedInline::new(
                cfg,
                coverage,
                compress_pct,
            )),
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `trace` under `kind` on `cfg`, returning the run's statistics.
pub fn run_scheme(cfg: &GpuConfig, kind: SchemeKind, trace: &KernelTrace) -> SimStats {
    let mut scheme = kind.build(cfg);
    simulate(cfg, trace, scheme.as_mut(), &Observe::default()).stats
}

/// [`run_scheme`] with the observers as positional arguments. Kept only
/// for the benchmark crate (`ccbench/`); ROADMAP item 7 deletes it.
/// Callers that observe build the scheme with [`SchemeKind::build`] and
/// call [`ccraft_sim::simulate`] with an [`Observe`].
pub fn run_scheme_profiled(
    cfg: &GpuConfig,
    kind: SchemeKind,
    trace: &KernelTrace,
    tel: &ccraft_telemetry::TelemetryConfig,
    faults: Option<&ccraft_sim::faults::FaultConfig>,
    profile: bool,
) -> ccraft_sim::SimOutput {
    let obs = Observe {
        telemetry: *tel,
        faults: faults.copied(),
        profile,
    };
    simulate(cfg, trace, kind.build(cfg).as_mut(), &obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_sim::trace::{WarpOp, WarpTrace};
    use ccraft_sim::types::{LogicalAtom, TrafficClass};

    fn small_stream() -> KernelTrace {
        let warps = (0..4u64)
            .map(|w| {
                let mut warp = WarpTrace::default();
                for i in 0..32 {
                    warp.push(WarpOp::Load {
                        atoms: &[0, 1, 2, 3].map(|k| LogicalAtom(w * 512 + i * 4 + k)),
                    });
                }
                warp
            })
            .collect();
        KernelTrace::new("stream", warps)
    }

    fn observe(
        cfg: &GpuConfig,
        kind: SchemeKind,
        trace: &KernelTrace,
        obs: &Observe,
    ) -> ccraft_sim::SimOutput {
        simulate(cfg, trace, kind.build(cfg).as_mut(), obs)
    }

    #[test]
    fn headline_order_and_names() {
        let cfg = GpuConfig::tiny();
        let names: Vec<_> = SchemeKind::headline(&cfg)
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(
            names,
            ["no-protection", "inline-naive", "ecc-cache", "cachecraft"]
        );
    }

    #[test]
    fn all_schemes_run_the_same_trace() {
        let cfg = GpuConfig::tiny();
        let trace = small_stream();
        for kind in SchemeKind::headline(&cfg) {
            let stats = run_scheme(&cfg, kind, &trace);
            assert!(!stats.timed_out, "{kind} timed out");
            assert_eq!(stats.scheme, kind.name());
            // Demand data traffic is identical across schemes.
            assert_eq!(
                stats.dram_count(TrafficClass::DataRead),
                trace.footprint_atoms(),
                "{kind}"
            );
        }
    }

    #[test]
    fn protection_ordering_holds_on_streams() {
        // ECC-off must be fastest; naive slowest; the two cached schemes in
        // between (ties allowed at this tiny scale).
        let cfg = GpuConfig::tiny();
        let trace = small_stream();
        let cycles: Vec<u64> = SchemeKind::headline(&cfg)
            .iter()
            .map(|&k| run_scheme(&cfg, k, &trace).exec_cycles)
            .collect();
        let (none, naive, ecc_cache, cachecraft) = (cycles[0], cycles[1], cycles[2], cycles[3]);
        assert!(none <= naive, "no-protection {none} > naive {naive}");
        assert!(ecc_cache <= naive, "ecc-cache {ecc_cache} > naive {naive}");
        assert!(
            cachecraft <= naive,
            "cachecraft {cachecraft} > naive {naive}"
        );
    }

    #[test]
    fn telemetry_observer_matches_plain_run() {
        let cfg = GpuConfig::tiny();
        let trace = small_stream();
        let kind = SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg));
        let plain = run_scheme(&cfg, kind, &trace);
        // Disabled telemetry: bit-identical stats, no trace.
        let off = observe(&cfg, kind, &trace, &Observe::default());
        assert_eq!(off.stats, plain);
        assert!(off.trace.is_none());
        // Enabled telemetry: histogram and timeline attached, aggregates
        // unchanged.
        let obs = Observe {
            telemetry: ccraft_telemetry::TelemetryConfig::Timeline,
            ..Observe::default()
        };
        let on = observe(&cfg, kind, &trace, &obs);
        assert_eq!(on.stats.exec_cycles, plain.exec_cycles);
        let hist = on.stats.latency_hist.as_ref().expect("histogram attached");
        assert!(hist.p99() >= hist.p50());
        assert!(hist.p50() >= 1);
        assert!(on.stats.timeline.as_ref().expect("timeline").epochs() >= 1);
    }

    #[test]
    fn schemes_decode_injected_faults_with_their_own_codec() {
        use ccraft_ecc::inject::ErrorPattern;
        use ccraft_sim::faults::{FaultConfig, FaultRate};
        let cfg = GpuConfig::tiny();
        let trace = small_stream();
        let fc = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 42,
        };
        let obs = Observe {
            faults: Some(fc),
            ..Observe::default()
        };
        let run = |kind| {
            observe(&cfg, kind, &trace, &obs)
                .stats
                .faults
                .expect("fault stats")
        };
        // No protection: every faulted data read is silent corruption.
        let none = run(SchemeKind::NoProtection);
        assert!(none.injected > 0);
        assert_eq!(none.sdc, none.injected);
        assert_eq!(none.ecc_reads, 0);
        // CacheCraft decodes RS(36,32): whole-symbol faults are corrected.
        let craft = run(SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg)));
        assert!(craft.corrected > 0, "{craft:?}");
        assert_eq!(craft.sdc, 0, "RS corrects every single-symbol fault");
        // Inline SEC-DED cannot correct multi-bit symbol faults: some
        // become DUE or SDC.
        let naive = run(SchemeKind::InlineNaive { coverage: 8 });
        assert!(naive.due + naive.sdc > 0, "{naive:?}");
        // CacheCraft's cached/reconstructed ECC exposes fewer ECC reads
        // to faults than fetch-per-access naive.
        assert!(craft.ecc_reads <= naive.ecc_reads);
    }

    #[test]
    fn ecc_traffic_ordering_holds() {
        let cfg = GpuConfig::tiny();
        let trace = small_stream();
        let ecc_reads: Vec<u64> = SchemeKind::headline(&cfg)
            .iter()
            .map(|&k| run_scheme(&cfg, k, &trace).dram_count(TrafficClass::EccRead))
            .collect();
        assert_eq!(ecc_reads[0], 0);
        assert!(
            ecc_reads[1] >= ecc_reads[2],
            "naive {} < ecc-cache {}",
            ecc_reads[1],
            ecc_reads[2]
        );
        assert!(
            ecc_reads[1] >= ecc_reads[3],
            "naive {} < cachecraft {}",
            ecc_reads[1],
            ecc_reads[3]
        );
        // Naive fetches ECC for every data read.
        assert_eq!(ecc_reads[1], trace.footprint_atoms());
    }
}
