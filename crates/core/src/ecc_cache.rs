//! The industry-practice baseline: a small dedicated ECC cache in each
//! memory controller.
//!
//! Real inline-ECC GPUs attach a modest SRAM cache of ECC atoms to each
//! memory partition. Demand fills whose ECC atom is resident (or already
//! being fetched) skip the DRAM ECC read; write-backs whose ECC atom is
//! resident update it in place (write-allocate-on-RMW), and dirty entries
//! are written to DRAM on eviction. The structure is *dedicated* SRAM — it
//! does not tax the L2 — but its reach is limited by its size and it has no
//! visibility into what the L2 already holds, which is exactly the gap
//! CacheCraft exploits.

use crate::inline_map::{ChannelStore, InlineMap, StoreProbe};
use ccraft_ecc::layout::EccPlacement;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::protection::{FillPlan, ProtectionScheme, ProtectionStats, WritebackPlan};
use ccraft_sim::types::{Cycle, LogicalAtom, PhysLoc};

/// Default dedicated capacity per memory controller (16 KiB, as in the
/// evaluation's T1 configuration).
pub const DEFAULT_CAPACITY_PER_MC: u64 = 16 << 10;

/// One memory controller's dedicated ECC cache plus channel-local
/// counters. The scheme logic lives here — [`EccCache`] routes each
/// channel-scoped call to the owning channel.
#[derive(Debug)]
struct EccCacheChannel {
    map: InlineMap,
    store: ChannelStore,
    stats: ProtectionStats,
}

impl EccCacheChannel {
    fn demand_fill(&mut self, loc: PhysLoc, _now: Cycle) -> FillPlan {
        let ecc = self.map.ecc_atom(loc);
        match self.store.probe_fill(ecc) {
            StoreProbe::Hit | StoreProbe::InFlight => {
                self.stats.ecc_fetch_hits += 1;
                FillPlan::none()
            }
            StoreProbe::Miss => {
                self.stats.ecc_demand_fetches += 1;
                FillPlan {
                    ecc_fetches: vec![ecc],
                }
            }
        }
    }

    fn ecc_arrived(&mut self, loc: PhysLoc, _now: Cycle) {
        self.store.install(loc.atom, false);
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        _now: Cycle,
        _resident: &mut dyn FnMut(u64) -> bool,
    ) -> WritebackPlan {
        let ecc = self.map.ecc_atom(loc);
        if self.store.absorb_write(ecc) {
            self.stats.absorbed_writebacks += 1;
            return WritebackPlan::none();
        }
        // RMW with write-allocation: read the ECC atom now, keep the
        // merged result resident and dirty; DRAM sees the write when the
        // entry is evicted or flushed.
        self.stats.rmw_writebacks += 1;
        self.store.install(ecc, true);
        WritebackPlan {
            ecc_reads: vec![ecc],
            ecc_writes: Vec::new(),
        }
    }

    fn drain_ecc_writes(&mut self, _now: Cycle, budget: usize) -> Vec<u64> {
        let drained = self.store.drain_writes(budget);
        self.stats.ecc_structure_writebacks += drained.len() as u64;
        drained
    }
}

/// The dedicated-ECC-cache scheme.
#[derive(Debug)]
pub struct EccCache {
    map: InlineMap,
    /// One dedicated cache per channel.
    channels: Vec<EccCacheChannel>,
}

impl EccCache {
    /// Builds the scheme with `capacity_per_mc` bytes of dedicated ECC
    /// cache per channel.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not form a valid 8-way cache geometry.
    pub fn new(cfg: &GpuConfig, coverage: u32, capacity_per_mc: u64) -> Self {
        let map = InlineMap::new(cfg, EccPlacement::ReservedRegion, coverage);
        EccCache {
            map,
            channels: (0..cfg.mem.channels)
                .map(|_| EccCacheChannel {
                    map,
                    store: ChannelStore::new(capacity_per_mc, 8),
                    stats: ProtectionStats::default(),
                })
                .collect(),
        }
    }

    /// Builds the scheme with the default 16 KiB/MC capacity.
    pub fn with_default_capacity(cfg: &GpuConfig, coverage: u32) -> Self {
        Self::new(cfg, coverage, DEFAULT_CAPACITY_PER_MC)
    }

    /// Dedicated SRAM bytes per channel.
    pub fn capacity_per_mc(&self) -> u64 {
        self.channels[0].store.capacity_bytes()
    }
}

impl ProtectionScheme for EccCache {
    fn name(&self) -> &str {
        "ecc-cache"
    }

    fn map(&self, logical: LogicalAtom) -> PhysLoc {
        self.map.map(logical)
    }

    fn demand_fill(&mut self, loc: PhysLoc, now: Cycle) -> FillPlan {
        self.channels[loc.channel as usize].demand_fill(loc, now)
    }

    fn ecc_arrived(&mut self, loc: PhysLoc, now: Cycle) {
        self.channels[loc.channel as usize].ecc_arrived(loc, now)
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        now: Cycle,
        resident: &mut dyn FnMut(u64) -> bool,
    ) -> WritebackPlan {
        self.channels[loc.channel as usize].writeback(loc, now, resident)
    }

    fn drain_ecc_writes(&mut self, channel: u16, now: Cycle, budget: usize) -> Vec<u64> {
        self.channels[channel as usize].drain_ecc_writes(now, budget)
    }

    fn flush(&mut self) {
        for ch in &mut self.channels {
            ch.store.flush();
        }
    }

    fn is_drained(&self) -> bool {
        self.channels.iter().all(|c| c.store.is_drained())
    }

    fn fault_codec(&self) -> ccraft_sim::faults::ProtectionCodec {
        // Same SEC-DED storage code as inline-naive; only fetch policy differs.
        ccraft_sim::faults::ProtectionCodec::SecDed64
    }

    fn stats(&self) -> ProtectionStats {
        // Counters sum across channels (order-independent merge).
        let mut total = ProtectionStats::default();
        for c in &self.channels {
            total.merge(&c.stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> EccCache {
        EccCache::with_default_capacity(&GpuConfig::tiny(), 8)
    }

    #[test]
    fn first_fill_fetches_second_hits() {
        let mut s = scheme();
        let loc = s.map(LogicalAtom(0));
        assert_eq!(s.demand_fill(loc, 0).ecc_fetches.len(), 1);
        // Before arrival: a sibling fill merges with the in-flight fetch.
        let sib = s.map(LogicalAtom(1));
        assert!(s.demand_fill(sib, 1).ecc_fetches.is_empty());
        // After arrival: resident.
        let ecc = s.map.ecc_atom(loc);
        s.ecc_arrived(PhysLoc::new(loc.channel, ecc), 2);
        assert!(s.demand_fill(loc, 3).ecc_fetches.is_empty());
        let st = s.stats();
        assert_eq!(st.ecc_demand_fetches, 1);
        assert_eq!(st.ecc_fetch_hits, 2);
    }

    #[test]
    fn writeback_hits_are_absorbed() {
        let mut s = scheme();
        let loc = s.map(LogicalAtom(0));
        let ecc = s.map.ecc_atom(loc);
        s.ecc_arrived(PhysLoc::new(loc.channel, ecc), 0); // make resident
        let mut res = |_: u64| false;
        let plan = s.writeback(loc, 1, &mut res);
        assert_eq!(plan, WritebackPlan::none());
        assert_eq!(s.stats().absorbed_writebacks, 1);
        // The dirty entry is written out on flush.
        s.flush();
        let w = s.drain_ecc_writes(loc.channel, 2, 8);
        assert_eq!(w, vec![ecc]);
        assert!(s.is_drained());
    }

    #[test]
    fn writeback_miss_reads_and_allocates() {
        let mut s = scheme();
        let loc = s.map(LogicalAtom(0));
        let mut res = |_: u64| false;
        let plan = s.writeback(loc, 0, &mut res);
        assert_eq!(plan.ecc_reads.len(), 1);
        assert!(plan.ecc_writes.is_empty(), "write deferred to eviction");
        assert_eq!(s.stats().rmw_writebacks, 1);
        // Now resident: a second write-back to the same group is free.
        let sib = s.map(LogicalAtom(2));
        let plan2 = s.writeback(sib, 1, &mut res);
        assert_eq!(plan2, WritebackPlan::none());
    }

    #[test]
    fn capacity_bounds_reach() {
        // A stream of distinct ECC groups larger than the cache causes
        // repeated fetches.
        let cfg = GpuConfig::tiny();
        let mut s = EccCache::new(&cfg, 8, 1024); // 32 ECC atoms per channel
        let mut fetches = 0;
        // Interleave blocks are 8 atoms; block k of channel 0 is logical
        // 2k blocks (2 channels) -> logical atoms 16k*... use map directly.
        for i in 0..20_000u64 {
            let loc = s.map(LogicalAtom(i * 8));
            if loc.channel == 0 {
                fetches += s.demand_fill(loc, i).ecc_fetches.len();
                let ecc = s.map.ecc_atom(loc);
                s.ecc_arrived(PhysLoc::new(loc.channel, ecc), i);
            }
        }
        // Every group is new: all must fetch.
        assert!(fetches >= 9_000, "only {fetches} fetches");
        assert_eq!(s.l2_tax_bytes(), 0, "dedicated SRAM, no L2 tax");
    }
}
