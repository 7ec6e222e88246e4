//! Simulator configuration: machine geometry, cache parameters, and DRAM
//! timing.
//!
//! Configurations are plain data with public fields (they are passive
//! descriptions, not stateful objects) plus a [`GpuConfig::validate`] pass
//! that catches inconsistent geometry before a simulation starts. Presets
//! model a GDDR6-class GPU ([`GpuConfig::gddr6`]), an HBM2-class part
//! ([`GpuConfig::hbm2`]) and a deliberately tiny machine for unit tests
//! ([`GpuConfig::tiny`]).
//!
//! All times are in **core-clock cycles**; DRAM timings in the presets have
//! already been converted from DRAM-clock datasheet values at the preset's
//! frequency ratio (a documented approximation: the simulator runs a single
//! clock domain).

use crate::types::{ATOMS_PER_LINE, ATOM_BYTES};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Warp scheduler policy for the SM cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing the current warp while it is ready,
    /// otherwise switch to the oldest ready warp.
    GreedyThenOldest,
    /// Round-robin over ready warps.
    RoundRobin,
}

/// SM core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Number of streaming multiprocessors.
    pub sms: u16,
    /// Resident warps per SM.
    pub warps_per_sm: u16,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
}

/// Parameters of a sectored cache (used for both L1 and L2). Lines are
/// `ATOM_BYTES * ATOMS_PER_LINE` = 128 bytes: four 32-byte sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Access (hit) latency in cycles.
    pub latency: u32,
    /// Miss-status holding registers.
    pub mshrs: usize,
    /// Input request queue depth.
    pub input_queue: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (ATOM_BYTES * ATOMS_PER_LINE * self.ways as u64)
    }
}

/// Interconnect between SMs and L2 slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct XbarConfig {
    /// One-way traversal latency in cycles.
    pub latency: u32,
    /// Requests accepted per slice per cycle (and responses per SM per
    /// cycle).
    pub ports_per_endpoint: u32,
}

/// DRAM timing parameters, in core-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Activate-to-read/write delay.
    pub t_rcd: u32,
    /// Precharge latency.
    pub t_rp: u32,
    /// Minimum row-open time (activate to precharge).
    pub t_ras: u32,
    /// Read column-access latency (command to first data).
    pub cas: u32,
    /// Write recovery: last write data to precharge.
    pub t_wr: u32,
    /// Read-to-write bus turnaround penalty.
    pub t_rtw: u32,
    /// Write-to-read bus turnaround penalty.
    pub t_wtr: u32,
    /// Data-bus occupancy of one 32-byte atom transfer.
    pub burst_cycles: u32,
    /// Refresh interval (0 disables refresh).
    pub t_refi: u32,
    /// Refresh duration (all banks busy).
    pub t_rfc: u32,
}

/// Memory-system geometry and controller parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Number of channels (== L2 slices == memory controllers).
    pub channels: u16,
    /// Physical capacity per channel in bytes (includes inline-ECC space).
    pub capacity_per_channel: u64,
    /// Channel interleave granularity in atoms (e.g. 8 atoms = 256 B).
    pub interleave_atoms: u64,
    /// Banks per channel.
    pub banks: u32,
    /// Row size in bytes (per bank).
    pub row_bytes: u64,
    /// Read queue depth per controller.
    pub read_queue: usize,
    /// Write queue depth per controller.
    pub write_queue: usize,
    /// Start draining writes when the write queue reaches this fill level.
    pub write_drain_high: usize,
    /// Stop draining when it falls to this level.
    pub write_drain_low: usize,
    /// FR-FCFS scan window (requests examined per scheduling decision).
    pub sched_window: usize,
    /// Timing parameters.
    pub timing: DramTiming,
}

impl MemConfig {
    /// Atoms per DRAM row.
    pub fn row_atoms(&self) -> u64 {
        self.row_bytes / ATOM_BYTES
    }

    /// Physical atoms per channel.
    pub fn atoms_per_channel(&self) -> u64 {
        self.capacity_per_channel / ATOM_BYTES
    }
}

/// Complete machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// SM cores.
    pub core: CoreConfig,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Per-slice L2 parameters (`capacity_bytes` is per slice).
    pub l2: CacheConfig,
    /// SM↔L2 interconnect.
    pub xbar: XbarConfig,
    /// Memory system.
    pub mem: MemConfig,
    /// Hard simulation cycle limit (safety net against livelock).
    pub max_cycles: u64,
}

/// A configuration-validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl GpuConfig {
    /// Balanced GDDR6-class preset: 16 SMs, 4 MiB L2 over 8 channels.
    ///
    /// This is the default evaluation machine of the reproduction (see
    /// DESIGN.md, experiment T1).
    pub fn gddr6() -> Self {
        GpuConfig {
            core: CoreConfig {
                sms: 16,
                warps_per_sm: 24,
                scheduler: SchedulerPolicy::GreedyThenOldest,
            },
            l1: CacheConfig {
                capacity_bytes: 64 << 10,
                ways: 4,
                latency: 28,
                mshrs: 16,
                input_queue: 32,
            },
            l2: CacheConfig {
                capacity_bytes: 512 << 10, // per slice; 4 MiB total
                ways: 16,
                latency: 96,
                mshrs: 48,
                input_queue: 32,
            },
            xbar: XbarConfig {
                latency: 16,
                ports_per_endpoint: 1,
            },
            mem: MemConfig {
                channels: 8,
                capacity_per_channel: 1 << 30,
                interleave_atoms: 8, // 256 B
                banks: 16,
                row_bytes: 2 << 10,
                read_queue: 48,
                write_queue: 32,
                write_drain_high: 24,
                write_drain_low: 8,
                sched_window: 24,
                timing: DramTiming {
                    t_rcd: 20,
                    t_rp: 20,
                    t_ras: 50,
                    cas: 20,
                    t_wr: 24,
                    t_rtw: 8,
                    t_wtr: 10,
                    burst_cycles: 1,
                    t_refi: 3900,
                    t_rfc: 280,
                },
            },
            max_cycles: 200_000_000,
        }
    }

    /// HBM2-class preset: more channels, smaller rows, slightly slower
    /// per-channel bus — the side-band-ECC comparison point.
    pub fn hbm2() -> Self {
        let mut cfg = Self::gddr6();
        cfg.mem.channels = 16;
        cfg.mem.capacity_per_channel = 512 << 20;
        cfg.mem.row_bytes = 1 << 10;
        cfg.mem.banks = 16;
        cfg.mem.timing.burst_cycles = 2;
        cfg.mem.timing.t_rcd = 16;
        cfg.mem.timing.t_rp = 16;
        cfg.mem.timing.t_ras = 40;
        cfg.mem.timing.cas = 16;
        cfg
    }

    /// A tiny machine for fast unit and integration tests: 2 SMs, 2
    /// channels, small caches. Refresh disabled for determinism of simple
    /// hand-computed scenarios.
    pub fn tiny() -> Self {
        GpuConfig {
            core: CoreConfig {
                sms: 2,
                warps_per_sm: 4,
                scheduler: SchedulerPolicy::GreedyThenOldest,
            },
            l1: CacheConfig {
                capacity_bytes: 4 << 10,
                ways: 4,
                latency: 4,
                mshrs: 8,
                input_queue: 8,
            },
            l2: CacheConfig {
                capacity_bytes: 16 << 10,
                ways: 8,
                latency: 8,
                mshrs: 16,
                input_queue: 8,
            },
            xbar: XbarConfig {
                latency: 2,
                ports_per_endpoint: 1,
            },
            mem: MemConfig {
                channels: 2,
                capacity_per_channel: 16 << 20,
                interleave_atoms: 8,
                banks: 4,
                row_bytes: 2 << 10,
                read_queue: 16,
                write_queue: 16,
                write_drain_high: 12,
                write_drain_low: 4,
                sched_window: 8,
                timing: DramTiming {
                    t_rcd: 5,
                    t_rp: 5,
                    t_ras: 12,
                    cas: 5,
                    t_wr: 6,
                    t_rtw: 2,
                    t_wtr: 3,
                    burst_cycles: 1,
                    t_refi: 0, // disabled
                    t_rfc: 0,
                },
            },
            max_cycles: 20_000_000,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |msg: String| Err(ConfigError(msg));
        if self.core.sms == 0 || self.core.warps_per_sm == 0 {
            return err("need at least one SM and one warp".into());
        }
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2)] {
            if c.ways == 0 || c.capacity_bytes == 0 {
                return err(format!("{name}: zero capacity or ways"));
            }
            if c.capacity_bytes % (ATOM_BYTES * ATOMS_PER_LINE * c.ways as u64) != 0 {
                return err(format!("{name}: capacity not divisible by way size"));
            }
            if !c.sets().is_power_of_two() {
                return err(format!("{name}: set count {} not a power of two", c.sets()));
            }
            if c.mshrs == 0 || c.input_queue == 0 {
                return err(format!("{name}: zero mshrs or input queue"));
            }
        }
        let m = &self.mem;
        if m.channels == 0 {
            return err("need at least one channel".into());
        }
        if !m.capacity_per_channel.is_multiple_of(m.row_bytes) {
            return err("channel capacity not a whole number of rows".into());
        }
        if !m.row_bytes.is_multiple_of(ATOM_BYTES) || m.row_bytes == 0 {
            return err("row size must be a positive multiple of 32 B".into());
        }
        if !m.interleave_atoms.is_power_of_two() {
            return err("interleave granularity must be a power of two".into());
        }
        if m.banks == 0 || !m.banks.is_power_of_two() {
            return err("bank count must be a positive power of two".into());
        }
        if !(m.atoms_per_channel() / m.row_atoms()).is_multiple_of(m.banks as u64) {
            return err("rows per channel must divide evenly across banks".into());
        }
        if m.write_drain_low >= m.write_drain_high || m.write_drain_high > m.write_queue {
            return err("write drain watermarks must satisfy low < high <= queue".into());
        }
        if m.sched_window == 0 || m.read_queue == 0 || m.write_queue == 0 {
            return err("controller queues and window must be positive".into());
        }
        if m.timing.burst_cycles == 0 {
            return err("burst_cycles must be positive".into());
        }
        if m.timing.t_refi != 0 && m.timing.t_rfc == 0 {
            return err("refresh enabled but t_rfc is zero".into());
        }
        if self.max_cycles == 0 {
            return err("max_cycles must be positive".into());
        }
        Ok(())
    }

    /// Total L2 capacity across all slices.
    pub fn l2_total_bytes(&self) -> u64 {
        self.l2.capacity_bytes * self.mem.channels as u64
    }

    /// Peak DRAM bandwidth in bytes per cycle (all channels).
    pub fn peak_bw_bytes_per_cycle(&self) -> f64 {
        self.mem.channels as f64 * ATOM_BYTES as f64 / self.mem.timing.burst_cycles as f64
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gddr6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        GpuConfig::gddr6().validate().unwrap();
        GpuConfig::hbm2().validate().unwrap();
        GpuConfig::tiny().validate().unwrap();
    }

    #[test]
    fn default_is_gddr6() {
        assert_eq!(GpuConfig::default(), GpuConfig::gddr6());
    }

    #[test]
    fn cache_sets_math() {
        let l2 = GpuConfig::gddr6().l2;
        assert_eq!(l2.sets(), (512 << 10) / (128 * 16));
    }

    #[test]
    fn validation_rejects_non_pow2_sets() {
        let mut cfg = GpuConfig::tiny();
        cfg.l2.capacity_bytes = 3 * 128 * 8; // 3 sets
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_watermarks() {
        let mut cfg = GpuConfig::tiny();
        cfg.mem.write_drain_low = cfg.mem.write_drain_high;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_partial_rows() {
        let mut cfg = GpuConfig::tiny();
        cfg.mem.capacity_per_channel += 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_burst() {
        let mut cfg = GpuConfig::tiny();
        cfg.mem.timing.burst_cycles = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn derived_quantities() {
        let cfg = GpuConfig::gddr6();
        assert_eq!(cfg.mem.row_atoms(), 64);
        assert_eq!(cfg.mem.atoms_per_channel(), (1 << 30) / 32);
        assert_eq!(cfg.l2_total_bytes(), 4 << 20);
        assert!((cfg.peak_bw_bytes_per_cycle() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = GpuConfig::gddr6();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: GpuConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
