//! Aggregate simulation results.
//!
//! [`SimStats`] is the single artifact a simulation run produces: cycle
//! count, throughput, cache behaviour, DRAM traffic broken down by
//! [`TrafficClass`], row-buffer locality, and the protection scheme's own
//! counters. It is `serde`-serializable so the experiment harness can emit
//! machine-readable results.

use crate::protection::ProtectionStats;
use crate::types::{Cycle, TrafficClass, ATOM_BYTES};
use ccraft_telemetry::{Histogram, Timeline};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Complete results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Kernel name.
    pub kernel: String,
    /// Protection scheme name.
    pub scheme: String,
    /// Total simulated cycles (including the end-of-kernel flush).
    pub cycles: Cycle,
    /// Cycles until the last warp retired (excludes the flush tail).
    pub exec_cycles: Cycle,
    /// `true` if the run hit the cycle limit before completing.
    pub timed_out: bool,
    /// Trace ops retired.
    pub ops: u64,
    /// Total warp memory accesses issued (post-coalescing).
    pub accesses: u64,
    /// L1 hits/misses/writes summed over SMs.
    pub l1_read_hits: u64,
    /// L1 read misses.
    pub l1_read_misses: u64,
    /// L2 read hits summed over slices.
    pub l2_read_hits: u64,
    /// L2 read misses.
    pub l2_read_misses: u64,
    /// L2 demand fills completed.
    pub l2_fills: u64,
    /// Data write-backs from L2 to DRAM.
    pub l2_writebacks: u64,
    /// DRAM transactions per class (see [`TrafficClass::ALL`] order).
    pub dram: [u64; 4],
    /// DRAM row-buffer hits / empties / conflicts.
    pub row_hits: u64,
    /// Row-empty accesses.
    pub row_empties: u64,
    /// Row conflicts.
    pub row_conflicts: u64,
    /// All-bank refresh operations across channels.
    pub refreshes: u64,
    /// Mean DRAM read latency (enqueue to data), cycles.
    // lint: allow(float-stats) reason=derived once at end of run from integer latency sums; never accumulated on the hot path
    pub mean_read_latency: f64,
    /// Protection-scheme counters.
    pub protection: ProtectionStats,
    /// DRAM read-latency histogram over every channel's reads. Only
    /// present when the run had telemetry on; `None` serializes to nothing,
    /// keeping disabled-run output bit-identical to earlier versions.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_hist: Option<Histogram>,
    /// Cycle-resolved epoch time-series. Only present when the run had
    /// telemetry on.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub timeline: Option<Timeline>,
    /// In-situ fault-injection counters. Only present when the run was
    /// configured with a [`crate::faults::FaultConfig`]; absent (and
    /// serialized to nothing) otherwise, keeping injection-free output
    /// bit-identical to earlier versions.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<crate::faults::FaultStats>,
}

impl SimStats {
    /// Instructions (trace ops) per cycle over the execution phase — the
    /// throughput metric used for "normalized performance" figures.
    pub fn ipc(&self) -> f64 {
        if self.exec_cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.exec_cycles as f64
        }
    }

    /// DRAM transactions of one class.
    pub fn dram_count(&self, class: TrafficClass) -> u64 {
        self.dram[class.index()]
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram.iter().sum::<u64>() * ATOM_BYTES
    }

    /// ECC share of total DRAM traffic, in [0, 1].
    pub fn ecc_traffic_fraction(&self) -> f64 {
        let total: u64 = self.dram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let ecc = self.dram_count(TrafficClass::EccRead) + self.dram_count(TrafficClass::EccWrite);
        ecc as f64 / total as f64
    }

    /// DRAM row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_empties + self.row_conflicts;
        if total == 0 {
            1.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// L2 read hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_read_hits + self.l2_read_misses;
        if total == 0 {
            1.0
        } else {
            self.l2_read_hits as f64 / total as f64
        }
    }

    /// L1 read hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_read_hits + self.l1_read_misses;
        if total == 0 {
            1.0
        } else {
            self.l1_read_hits as f64 / total as f64
        }
    }

    /// Achieved DRAM bandwidth in bytes per cycle.
    pub fn dram_bw_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dram_bytes() as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {}: {} cycles (exec {}), IPC {:.3}{}",
            self.kernel,
            self.scheme,
            self.cycles,
            self.exec_cycles,
            self.ipc(),
            if self.timed_out { " [TIMED OUT]" } else { "" }
        )?;
        writeln!(
            f,
            "  L1 hit {:.1}%  L2 hit {:.1}%  row hit {:.1}%  mean rd lat {:.0}",
            100.0 * self.l1_hit_rate(),
            100.0 * self.l2_hit_rate(),
            100.0 * self.row_hit_rate(),
            self.mean_read_latency
        )?;
        write!(
            f,
            "  DRAM: dR {} dW {} eR {} eW {} ({:.1}% ECC, {:.1} B/cyc)",
            self.dram[0],
            self.dram[1],
            self.dram[2],
            self.dram[3],
            100.0 * self.ecc_traffic_fraction(),
            self.dram_bw_bytes_per_cycle()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            kernel: "k".into(),
            scheme: "s".into(),
            cycles: 1000,
            exec_cycles: 800,
            timed_out: false,
            ops: 400,
            accesses: 1200,
            l1_read_hits: 600,
            l1_read_misses: 400,
            l2_read_hits: 300,
            l2_read_misses: 100,
            l2_fills: 100,
            l2_writebacks: 50,
            dram: [100, 50, 20, 10],
            row_hits: 120,
            row_empties: 30,
            row_conflicts: 30,
            refreshes: 4,
            mean_read_latency: 75.0,
            protection: ProtectionStats::default(),
            latency_hist: None,
            timeline: None,
            faults: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample();
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(s.dram_count(TrafficClass::DataRead), 100);
        assert_eq!(s.dram_count(TrafficClass::EccWrite), 10);
        assert_eq!(s.dram_bytes(), 180 * 32);
        assert!((s.ecc_traffic_fraction() - 30.0 / 180.0).abs() < 1e-12);
        assert!((s.row_hit_rate() - 120.0 / 180.0).abs() < 1e-12);
        assert!((s.l2_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.l1_hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.dram_bw_bytes_per_cycle() - 5.76).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let mut s = sample();
        s.exec_cycles = 0;
        s.cycles = 0;
        s.dram = [0; 4];
        s.row_hits = 0;
        s.row_empties = 0;
        s.row_conflicts = 0;
        s.l1_read_hits = 0;
        s.l1_read_misses = 0;
        s.l2_read_hits = 0;
        s.l2_read_misses = 0;
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.ecc_traffic_fraction(), 0.0);
        assert_eq!(s.row_hit_rate(), 1.0);
        assert_eq!(s.l1_hit_rate(), 1.0);
        assert_eq!(s.dram_bw_bytes_per_cycle(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn disabled_telemetry_fields_are_absent_from_json() {
        let json = serde_json::to_string(&sample()).unwrap();
        assert!(!json.contains("latency_hist"));
        assert!(!json.contains("timeline"));
        assert!(!json.contains("faults"));
        // And JSON without them deserializes to None (old outputs load).
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.latency_hist, None);
        assert_eq!(back.timeline, None);
        assert_eq!(back.faults, None);
    }

    #[test]
    fn fault_stats_round_trip_when_present() {
        let mut s = sample();
        s.faults = Some(crate::faults::FaultStats {
            data_reads: 100,
            ecc_reads: 20,
            injected: 5,
            benign: 1,
            corrected: 2,
            due: 1,
            sdc: 1,
        });
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("faults"));
        assert!(json.contains("sdc"));
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn telemetry_fields_round_trip_when_present() {
        let mut s = sample();
        let mut h = Histogram::new();
        for v in [11u64, 30, 95, 200] {
            h.record(v);
        }
        s.latency_hist = Some(h);
        let mut sampler = ccraft_telemetry::Sampler::default();
        sampler.register("ipc");
        sampler.register("dram.reads");
        sampler.sample(&[0.5, 12.0]);
        sampler.sample(&[0.75, 9.0]);
        s.timeline = Some(sampler.finish());
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("latency_hist"));
        assert!(json.contains("timeline"));
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let t = back.timeline.unwrap();
        assert_eq!(t.epochs(), 2);
        assert_eq!(t.series("ipc").unwrap().points, vec![0.5, 0.75]);
        let h = back.latency_hist.unwrap();
        assert!(h.p99() >= h.p50());
        assert!(h.p50() >= 1);
    }

    #[test]
    fn display_contains_key_numbers() {
        let text = sample().to_string();
        assert!(text.contains("IPC 0.500"));
        assert!(text.contains("dR 100"));
        assert!(!text.contains("TIMED OUT"));
    }
}
