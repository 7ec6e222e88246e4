//! Shared machinery for inline-ECC protection schemes: the address mapping
//! pipeline and the on-chip ECC store used by the ECC-cache baseline and
//! CacheCraft's fragment store.

use ccraft_ecc::layout::{EccPlacement, InlineLayout};
use ccraft_sim::cache::SectorCache;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::fxmap::FxHashSet;
use ccraft_sim::protection::ChannelInterleave;
use ccraft_sim::types::{LogicalAtom, PhysLoc};
use std::collections::VecDeque;

/// The logical→physical pipeline of an inline-ECC GPU:
/// channel interleave first, then the per-channel inline layout (identical
/// across channels, as in real memory partitions).
#[derive(Debug, Clone, Copy)]
pub struct InlineMap {
    interleave: ChannelInterleave,
    layout: InlineLayout,
}

impl InlineMap {
    /// Builds the map for a machine, with ECC `coverage` data atoms per
    /// ECC atom and the given placement.
    ///
    /// # Panics
    ///
    /// Panics if the layout parameters are inconsistent with the machine
    /// geometry (see [`InlineLayout::new`]).
    pub fn new(cfg: &GpuConfig, placement: EccPlacement, coverage: u32) -> Self {
        let interleave = ChannelInterleave::new(cfg.mem.channels, cfg.mem.interleave_atoms);
        let layout = InlineLayout::new(placement, coverage, cfg.mem.atoms_per_channel());
        InlineMap { interleave, layout }
    }

    /// Maps a software-visible atom to its physical location.
    pub fn map(&self, logical: LogicalAtom) -> PhysLoc {
        let (channel, local) = self.interleave.split(logical);
        PhysLoc::new(channel, self.layout.logical_to_physical(local))
    }

    /// The channel-local ECC atom protecting the given physical data atom.
    pub fn ecc_atom(&self, loc: PhysLoc) -> u64 {
        self.layout.ecc_atom_for(loc.atom)
    }

    /// The physical data atoms sharing `loc`'s ECC atom, as
    /// `(first, count)` in channel-local physical space.
    pub fn ecc_group(&self, loc: PhysLoc) -> (u64, u64) {
        self.layout.covered_data_atoms(self.ecc_atom(loc))
    }
}

/// One channel's on-chip store of ECC atoms (a dedicated ECC cache or
/// CacheCraft's repurposed-L2 fragment store): set-associative at
/// ECC-atom granularity, with in-flight-fetch merging and a
/// dirty-eviction write queue.
#[derive(Debug)]
pub struct ChannelStore {
    cache: SectorCache,
    inflight: FxHashSet<u64>,
    pending_writes: VecDeque<u64>,
}

impl ChannelStore {
    /// Builds one channel's store with `bytes` capacity, `ways`-associative.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (capacity must give a power-of-two
    /// set count).
    pub fn new(bytes: u64, ways: u32) -> Self {
        ChannelStore {
            cache: SectorCache::with_capacity_hashed(bytes, ways, 1),
            inflight: FxHashSet::default(),
            pending_writes: VecDeque::new(),
        }
    }

    /// Probes for a demand fill: on a miss the atom is registered as in
    /// flight, so concurrent misses to the same ECC atom fetch once.
    pub fn probe_fill(&mut self, ecc_atom: u64) -> StoreProbe {
        if self.cache.probe(ecc_atom) {
            // Refresh LRU.
            let _ = self.cache.lookup_read(ecc_atom);
            StoreProbe::Hit
        } else if self.inflight.contains(&ecc_atom) {
            StoreProbe::InFlight
        } else {
            self.inflight.insert(ecc_atom);
            StoreProbe::Miss
        }
    }

    /// Installs an ECC atom that arrived from DRAM (clears its in-flight
    /// entry). Dirty evictions join the write queue.
    pub fn install(&mut self, ecc_atom: u64, dirty: bool) {
        self.inflight.remove(&ecc_atom);
        if let Some(ev) = self.cache.fill(ecc_atom, dirty) {
            self.pending_writes.extend(ev.dirty_atoms());
        }
    }

    /// Attempts to absorb a write-back's ECC update: returns `true` when
    /// the atom is resident (now marked dirty) and no DRAM traffic is
    /// needed.
    pub fn absorb_write(&mut self, ecc_atom: u64) -> bool {
        if self.cache.probe(ecc_atom) {
            let _ = self.cache.lookup_write(ecc_atom);
            true
        } else {
            false
        }
    }

    /// Appends to `out` up to `budget` atoms of the dirty-eviction (and
    /// flush) write queue.
    pub fn drain_writes(&mut self, budget: usize, out: &mut Vec<u64>) {
        let n = budget.min(self.pending_writes.len());
        out.extend(self.pending_writes.drain(..n));
    }

    /// Moves every dirty resident atom into the write queue (end of
    /// kernel).
    pub fn flush(&mut self) {
        let dirty: Vec<u64> = self
            .cache
            .iter_valid()
            .filter(|&(_, d)| d)
            .map(|(a, _)| a)
            .collect();
        for a in dirty {
            self.cache.clean(a);
            self.pending_writes.push_back(a);
        }
    }

    /// `true` when no pending writes remain.
    pub fn is_drained(&self) -> bool {
        self.pending_writes.is_empty()
    }
}

/// Outcome of probing the store on a demand fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreProbe {
    /// The ECC atom is resident: no DRAM fetch needed.
    Hit,
    /// A fetch for this atom is already in flight: piggyback, no new fetch.
    InFlight,
    /// Not present: fetch required (now registered as in flight).
    Miss,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(placement: EccPlacement) -> InlineMap {
        InlineMap::new(&GpuConfig::tiny(), placement, 8)
    }

    #[test]
    fn map_is_injective_across_channels() {
        let m = map(EccPlacement::ReservedRegion);
        let mut seen = ccraft_sim::fxmap::FxHashSet::default();
        for a in 0..50_000u64 {
            let loc = m.map(LogicalAtom(a));
            assert!(seen.insert((loc.channel, loc.atom)), "collision at {a}");
        }
    }

    #[test]
    fn ecc_atom_is_in_same_channel_row_when_colocated() {
        let cfg = GpuConfig::tiny();
        let row_atoms = cfg.mem.row_atoms();
        let m = InlineMap::new(
            &cfg,
            EccPlacement::RowColocated {
                row_atoms: row_atoms as u32,
            },
            8,
        );
        for a in (0..100_000u64).step_by(997) {
            let loc = m.map(LogicalAtom(a));
            let ecc = m.ecc_atom(loc);
            assert_eq!(
                loc.atom / row_atoms,
                ecc / row_atoms,
                "atom {a} ECC in another row"
            );
        }
    }

    #[test]
    fn ecc_group_contains_self() {
        let m = map(EccPlacement::ReservedRegion);
        let loc = m.map(LogicalAtom(1234));
        let (first, count) = m.ecc_group(loc);
        assert!((first..first + count).contains(&loc.atom));
        assert!(count <= 8);
    }

    #[test]
    fn store_probe_transitions() {
        let mut s = ChannelStore::new(1024, 4);
        assert_eq!(s.probe_fill(5), StoreProbe::Miss);
        assert_eq!(s.probe_fill(5), StoreProbe::InFlight);
        s.install(5, false);
        assert_eq!(s.probe_fill(5), StoreProbe::Hit);
    }

    #[test]
    fn dirty_eviction_queues_write() {
        // 1024 B, 4-way, atom granularity -> 32 entries total. Installing
        // more dirty atoms than the capacity must evict (set indices are
        // hashed, so overfill the whole store rather than one set).
        let mut s = ChannelStore::new(1024, 4);
        for i in 0..48u64 {
            s.install(i * 8, true);
        }
        let mut w = Vec::new();
        s.drain_writes(100, &mut w);
        assert!(w.len() >= 16);
        assert!(s.is_drained());
    }

    #[test]
    fn absorb_write_requires_residency() {
        let mut s = ChannelStore::new(1024, 4);
        assert!(!s.absorb_write(3));
        s.install(3, false);
        assert!(s.absorb_write(3));
        // Flushing pushes the now-dirty atom to the write queue.
        s.flush();
        let mut w = Vec::new();
        s.drain_writes(10, &mut w);
        assert_eq!(w, vec![3]);
        // Flush is idempotent.
        s.flush();
        assert!(s.is_drained());
    }

    #[test]
    fn drain_respects_budget() {
        let mut s = ChannelStore::new(256, 1); // 8 sets, direct mapped
        for i in 0..8u64 {
            s.install(i, true);
        }
        s.flush();
        let mut w = Vec::new();
        s.drain_writes(3, &mut w);
        assert_eq!(w.len(), 3);
        s.drain_writes(100, &mut w);
        assert_eq!(w.len(), 8, "appends the other 5");
    }
}
