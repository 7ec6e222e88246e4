//! CacheCraft: reconstructed caching for GPU memory protection.
//!
//! Our reconstruction of the MICRO'24 design (see DESIGN.md §1 for the
//! provenance caveat) combines three mechanisms:
//!
//! * **C1 — ECC co-location.** The inline layout carves ECC atoms out of
//!   the tail of each DRAM row instead of a distant reserved region, so
//!   the ECC fetches that do reach DRAM are row-buffer hits alongside
//!   their data.
//! * **C2 — Reconstructed ECC residency (fragment store).** A slice-local
//!   store of ECC atoms *repurposed from L2 capacity* (the simulator
//!   shrinks the L2 by the configured budget). Because it is an order of
//!   magnitude larger than a dedicated MC-side ECC cache and is filled on
//!   every demand miss, one installed ECC atom serves the misses of all
//!   its 8–16 covered neighbours.
//! * **C3 — On-chip codeword reconstruction + write coalescing.** When a
//!   dirty atom is written back and *all* sibling atoms of its ECC group
//!   are on chip (still resident in L2, or leaving in the same eviction),
//!   the ECC atom is re-encoded from on-chip data: the read half of the
//!   RMW disappears. Outgoing ECC writes are merged in a small per-channel
//!   coalescing buffer so k dirty atoms under one ECC atom cost one DRAM
//!   write.
//!
//! Every mechanism can be disabled independently ([`CacheCraftConfig`]) for
//! the ablation study (experiment F7).

use crate::inline_map::{ChannelStore, InlineMap, StoreProbe};
use ccraft_ecc::layout::EccPlacement;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::fxmap::FxHashMap;
use ccraft_sim::protection::{FillPlan, ProtectionScheme, ProtectionStats, WritebackPlan};
use ccraft_sim::types::{Cycle, LogicalAtom, PhysLoc};
use std::collections::VecDeque;

/// Configuration of the CacheCraft mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCraftConfig {
    /// Data atoms per ECC atom (8 → 12.5 % redundancy).
    pub coverage: u32,
    /// C1: co-locate ECC atoms with their data rows.
    pub colocate: bool,
    /// C2: enable the repurposed-L2 fragment store.
    pub fragment_store: bool,
    /// C2: fragment-store budget per L2 slice, in bytes (taxed from L2).
    pub fragment_bytes_per_slice: u64,
    /// C3: enable codeword reconstruction and write coalescing.
    pub reconstruct: bool,
    /// C3: coalescing-buffer capacity per channel (ECC atoms).
    pub coalesce_entries: usize,
    /// C3: age (cycles) after which a buffered ECC write is emitted.
    pub coalesce_age: Cycle,
}

impl Default for CacheCraftConfig {
    fn default() -> Self {
        CacheCraftConfig {
            coverage: 8,
            colocate: true,
            fragment_store: true,
            fragment_bytes_per_slice: 64 << 10,
            reconstruct: true,
            coalesce_entries: 32,
            coalesce_age: 256,
        }
    }
}

impl CacheCraftConfig {
    /// The full design with all mechanisms enabled.
    pub fn full() -> Self {
        Self::default()
    }

    /// The full design with the fragment budget scaled to the machine:
    /// the default 64 KiB per slice, capped at 1/8 of the slice capacity
    /// (so tiny test machines keep a working L2).
    pub fn for_machine(gpu: &ccraft_sim::config::GpuConfig) -> Self {
        let cap = (gpu.l2.capacity_bytes / 8).max(1 << 10);
        CacheCraftConfig {
            fragment_bytes_per_slice: (64 << 10).min(cap),
            ..Self::default()
        }
    }

    /// C1 only (co-location; fills and write-backs otherwise naive).
    pub fn colocate_only() -> Self {
        CacheCraftConfig {
            fragment_store: false,
            reconstruct: false,
            ..Self::default()
        }
    }

    /// C2 only (fragment store over the reserved-region layout).
    pub fn fragments_only() -> Self {
        CacheCraftConfig {
            colocate: false,
            reconstruct: false,
            ..Self::default()
        }
    }

    /// C3 only (reconstruction + coalescing over the reserved-region
    /// layout, no fragment store).
    pub fn reconstruct_only() -> Self {
        CacheCraftConfig {
            colocate: false,
            fragment_store: false,
            ..Self::default()
        }
    }
}

/// Per-channel ECC write-coalescing buffer (C3).
#[derive(Debug, Default)]
struct CoalesceBuffer {
    /// FIFO of `(ecc_atom, due_cycle)`.
    queue: VecDeque<(u64, Cycle)>,
    /// Pending atoms mapped to the number of writes folded into their
    /// entry (1 = fresh entry, no merges yet).
    members: FxHashMap<u64, u64>,
}

impl CoalesceBuffer {
    /// Inserts or merges a pending ECC write. Returns `Some(depth)` — the
    /// entry's merge chain length — if merged into an existing entry,
    /// `None` if a fresh entry was created.
    fn push(&mut self, atom: u64, due: Cycle) -> Option<u64> {
        if let Some(count) = self.members.get_mut(&atom) {
            *count += 1;
            Some(*count)
        } else {
            self.members.insert(atom, 1);
            self.queue.push_back((atom, due));
            None
        }
    }

    /// Folds one more write into an already-pending entry, returning the
    /// new merge chain length.
    ///
    /// # Panics
    ///
    /// Panics if the atom is not pending; callers check
    /// [`contains`](Self::contains) first.
    // Documented invariant panic: callers check `contains` first.
    #[allow(clippy::expect_used)]
    fn merge_into(&mut self, atom: u64) -> u64 {
        let count = self
            .members
            .get_mut(&atom)
            .expect("caller checked membership");
        *count += 1;
        *count
    }

    fn contains(&self, atom: u64) -> bool {
        self.members.contains_key(&atom)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    /// Pops entries that are due at `now` or overflow `capacity`, up to
    /// `budget`.
    fn drain(&mut self, now: Cycle, capacity: usize, budget: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < budget {
            let Some(&(atom, due)) = self.queue.front() else {
                break;
            };
            if due <= now || self.queue.len() > capacity {
                self.queue.pop_front();
                self.members.remove(&atom);
                out.push(atom);
            } else {
                break;
            }
        }
        out
    }

    fn make_all_due(&mut self) {
        for entry in &mut self.queue {
            entry.1 = 0;
        }
    }

    /// Due cycle of the oldest pending entry, if any. Dues are stamped
    /// monotonically (`now + coalesce_age` with a constant age), so the
    /// FIFO front is the minimum.
    fn next_due(&self) -> Option<Cycle> {
        self.queue.front().map(|&(_, due)| due)
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// One channel's worth of CacheCraft state: the coalescing buffer, the
/// channel's fragment-store slice, and channel-local counters. The scheme
/// logic lives here — [`CacheCraft`] routes every channel-scoped call to
/// the owning channel.
#[derive(Debug)]
struct CacheCraftChannel {
    cfg: CacheCraftConfig,
    map: InlineMap,
    coalesce: CoalesceBuffer,
    store: Option<ChannelStore>,
    stats: ProtectionStats,
}

impl CacheCraftChannel {
    fn new(cfg: CacheCraftConfig, map: InlineMap) -> Self {
        CacheCraftChannel {
            cfg,
            map,
            coalesce: CoalesceBuffer::default(),
            store: cfg
                .fragment_store
                .then(|| ChannelStore::new(cfg.fragment_bytes_per_slice, 8)),
            stats: ProtectionStats::default(),
        }
    }

    /// Queues an outgoing ECC write, via the coalescing buffer when C3 is
    /// enabled. Returns `None` when the write was buffered or merged;
    /// `Some(atom)` when it must be issued immediately.
    fn queue_ecc_write(&mut self, ecc: u64, now: Cycle) -> Option<u64> {
        if self.cfg.reconstruct {
            match self.coalesce.push(ecc, now + self.cfg.coalesce_age) {
                Some(depth) => {
                    self.stats.coalesced_ecc_writes += 1;
                    self.stats.coalesce_max_merge_depth =
                        self.stats.coalesce_max_merge_depth.max(depth);
                }
                None => {
                    self.stats.coalesce_peak_occupancy = self
                        .stats
                        .coalesce_peak_occupancy
                        .max(self.coalesce.len() as u64);
                }
            }
            None
        } else {
            Some(ecc)
        }
    }

    fn flush(&mut self) {
        self.coalesce.make_all_due();
        if let Some(store) = &mut self.store {
            store.flush();
        }
    }

    fn is_drained(&self) -> bool {
        self.coalesce.is_empty() && self.store.as_ref().is_none_or(|s| s.is_drained())
    }

    fn demand_fill(&mut self, loc: PhysLoc, _now: Cycle) -> FillPlan {
        let ecc = self.map.ecc_atom(loc);
        // A pending coalesced write holds the freshest ECC on chip.
        if self.cfg.reconstruct && self.coalesce.contains(ecc) {
            self.stats.ecc_fetch_hits += 1;
            return FillPlan::none();
        }
        if let Some(store) = &mut self.store {
            match store.probe_fill(ecc) {
                probe @ (StoreProbe::Hit | StoreProbe::InFlight) => {
                    self.stats.ecc_fetch_hits += 1;
                    if probe == StoreProbe::Hit {
                        self.stats.fragment_store_hits += 1;
                    }
                    FillPlan::none()
                }
                StoreProbe::Miss => {
                    self.stats.ecc_demand_fetches += 1;
                    FillPlan {
                        ecc_fetches: vec![ecc],
                    }
                }
            }
        } else {
            self.stats.ecc_demand_fetches += 1;
            FillPlan {
                ecc_fetches: vec![ecc],
            }
        }
    }

    fn ecc_arrived(&mut self, loc: PhysLoc, _now: Cycle) {
        if let Some(store) = &mut self.store {
            store.install(loc.atom, false);
        }
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        now: Cycle,
        resident: &mut dyn FnMut(u64) -> bool,
    ) -> WritebackPlan {
        let ecc = self.map.ecc_atom(loc);
        // 1. Fragment-store hit: merge on chip, write on eviction.
        if let Some(store) = &mut self.store {
            if store.absorb_write(ecc) {
                self.stats.absorbed_writebacks += 1;
                return WritebackPlan::none();
            }
        }
        // 2. Pending coalesced write to the same ECC atom: merge.
        if self.cfg.reconstruct && self.coalesce.contains(ecc) {
            let depth = self.coalesce.merge_into(ecc);
            self.stats.coalesced_ecc_writes += 1;
            self.stats.coalesce_max_merge_depth = self.stats.coalesce_max_merge_depth.max(depth);
            self.stats.absorbed_writebacks += 1;
            return WritebackPlan::none();
        }
        // 3. Reconstruction: all siblings on chip → re-encode, no RMW read.
        if self.cfg.reconstruct {
            let (first, count) = self.map.ecc_group(loc);
            if (first..first + count).all(resident) {
                self.stats.reconstructed_writebacks += 1;
                let immediate = self.queue_ecc_write(ecc, now);
                return WritebackPlan {
                    ecc_reads: Vec::new(),
                    ecc_writes: immediate.into_iter().collect(),
                };
            }
        }
        // 4. Fall back to a read-modify-write.
        self.stats.rmw_writebacks += 1;
        if let Some(store) = &mut self.store {
            // Write-allocate the merged result in the fragment store.
            store.install(ecc, true);
            WritebackPlan {
                ecc_reads: vec![ecc],
                ecc_writes: Vec::new(),
            }
        } else {
            let immediate = self.queue_ecc_write(ecc, now);
            WritebackPlan {
                ecc_reads: vec![ecc],
                ecc_writes: immediate.into_iter().collect(),
            }
        }
    }

    fn drain_ecc_writes(&mut self, now: Cycle, budget: usize) -> Vec<u64> {
        let mut out = self.coalesce.drain(now, self.cfg.coalesce_entries, budget);
        if out.len() < budget {
            if let Some(store) = &mut self.store {
                out.extend(store.drain_writes(budget - out.len()));
            }
        }
        self.stats.ecc_structure_writebacks += out.len() as u64;
        out
    }

    fn next_timed_event(&self) -> Option<Cycle> {
        // The coalesce buffer is the channel's only age-triggered state:
        // an entry that yields nothing today drains by itself once its
        // due cycle passes, so idle fast-forwards must stop there. (The
        // fragment store drains purely on demand/capacity and needs no
        // event.) After `flush` all dues are 0, which reads as "busy now"
        // and correctly pins the end-of-kernel drain to real cycles.
        self.coalesce.next_due()
    }
}

/// The CacheCraft protection scheme.
#[derive(Debug)]
pub struct CacheCraft {
    cfg: CacheCraftConfig,
    map: InlineMap,
    /// One state block per channel.
    channels: Vec<CacheCraftChannel>,
}

impl CacheCraft {
    /// Builds CacheCraft for a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent with the machine
    /// geometry (e.g. the fragment budget does not form a valid cache, or
    /// the row size cannot host the carve-out).
    pub fn new(gpu: &GpuConfig, cfg: CacheCraftConfig) -> Self {
        let placement = if cfg.colocate {
            EccPlacement::RowColocated {
                row_atoms: gpu.mem.row_atoms() as u32,
            }
        } else {
            EccPlacement::ReservedRegion
        };
        let map = InlineMap::new(gpu, placement, cfg.coverage);
        CacheCraft {
            cfg,
            map,
            channels: (0..gpu.mem.channels)
                .map(|_| CacheCraftChannel::new(cfg, map))
                .collect(),
        }
    }

    /// Builds the full design with default parameters.
    pub fn full(gpu: &GpuConfig) -> Self {
        Self::new(gpu, CacheCraftConfig::full())
    }

    /// The active configuration.
    pub fn config(&self) -> CacheCraftConfig {
        self.cfg
    }
}

impl ProtectionScheme for CacheCraft {
    fn name(&self) -> &str {
        "cachecraft"
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
            ch.flush();
        }
    }

    fn is_drained(&self) -> bool {
        self.channels.iter().all(|c| c.is_drained())
    }

    fn next_timed_event(&self, channel: u16) -> Option<Cycle> {
        self.channels[channel as usize].next_timed_event()
    }

    fn l2_tax_bytes(&self) -> u64 {
        if self.cfg.fragment_store {
            self.cfg.fragment_bytes_per_slice
        } else {
            0
        }
    }

    fn fault_codec(&self) -> ccraft_sim::faults::ProtectionCodec {
        // Reconstructed codewords use the symbol-correcting RS(36,32) code.
        ccraft_sim::faults::ProtectionCodec::Rs36_32
    }

    fn stats(&self) -> ProtectionStats {
        // Counters sum and watermarks max across channels
        // (order-independent).
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

    fn scheme(cfg: CacheCraftConfig) -> CacheCraft {
        CacheCraft::new(&GpuConfig::tiny(), cfg)
    }

    #[test]
    fn colocation_keeps_ecc_in_row() {
        let gpu = GpuConfig::tiny();
        let s = CacheCraft::full(&gpu);
        let row_atoms = gpu.mem.row_atoms();
        for a in (0..50_000u64).step_by(61) {
            let loc = s.map(LogicalAtom(a));
            let ecc = s.map.ecc_atom(loc);
            assert_eq!(loc.atom / row_atoms, ecc / row_atoms);
        }
    }

    #[test]
    fn fragment_store_serves_neighbourhood() {
        let mut s = scheme(CacheCraftConfig::full());
        let loc = s.map(LogicalAtom(0));
        assert_eq!(s.demand_fill(loc, 0).ecc_fetches.len(), 1);
        let ecc = s.map.ecc_atom(loc);
        s.ecc_arrived(PhysLoc::new(loc.channel, ecc), 1);
        // All 7 siblings now fill without ECC traffic.
        for i in 1..8u64 {
            let sib = s.map(LogicalAtom(i));
            assert_eq!(sib.channel, loc.channel);
            assert!(s.demand_fill(sib, 2).ecc_fetches.is_empty(), "sibling {i}");
        }
        assert_eq!(s.stats().ecc_demand_fetches, 1);
        assert_eq!(s.stats().ecc_fetch_hits, 7);
    }

    #[test]
    fn reconstruction_eliminates_rmw_read() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let loc = s.map(LogicalAtom(0));
        // All siblings resident -> reconstruct, no ECC read, write buffered.
        let mut all_resident = |_: u64| true;
        let plan = s.writeback(loc, 0, &mut all_resident);
        assert!(plan.ecc_reads.is_empty());
        assert!(plan.ecc_writes.is_empty(), "write goes through the buffer");
        assert_eq!(s.stats().reconstructed_writebacks, 1);
        assert!(!s.is_drained());
        // Sibling write-back coalesces into the same pending ECC write.
        let sib = s.map(LogicalAtom(1));
        let plan2 = s.writeback(sib, 1, &mut all_resident);
        assert_eq!(plan2, WritebackPlan::none());
        assert_eq!(s.stats().coalesced_ecc_writes, 1);
        // Drain after the age threshold: exactly one ECC write.
        let writes = s.drain_ecc_writes(loc.channel, 10_000, 8);
        assert_eq!(writes.len(), 1);
        assert!(s.is_drained());
    }

    #[test]
    fn partial_residency_falls_back_to_rmw() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let loc = s.map(LogicalAtom(0));
        let mut none_resident = |_: u64| false;
        let plan = s.writeback(loc, 0, &mut none_resident);
        assert_eq!(plan.ecc_reads.len(), 1);
        assert_eq!(s.stats().rmw_writebacks, 1);
        assert_eq!(s.stats().reconstructed_writebacks, 0);
    }

    #[test]
    fn pending_write_serves_demand_fill() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let loc = s.map(LogicalAtom(0));
        let mut all = |_: u64| true;
        let _ = s.writeback(loc, 0, &mut all); // buffers the ECC write
                                               // A demand fill of a sibling finds the ECC on chip.
        let sib = s.map(LogicalAtom(3));
        assert!(s.demand_fill(sib, 1).ecc_fetches.is_empty());
        assert_eq!(s.stats().ecc_fetch_hits, 1);
    }

    #[test]
    fn coalesce_age_controls_drain() {
        let cfg = CacheCraftConfig {
            coalesce_age: 100,
            ..CacheCraftConfig::reconstruct_only()
        };
        let mut s = scheme(cfg);
        let loc = s.map(LogicalAtom(0));
        let mut all = |_: u64| true;
        let _ = s.writeback(loc, 50, &mut all);
        assert!(
            s.drain_ecc_writes(loc.channel, 100, 8).is_empty(),
            "not due yet"
        );
        assert_eq!(s.drain_ecc_writes(loc.channel, 150, 8).len(), 1);
    }

    #[test]
    fn overflow_forces_early_drain() {
        let cfg = CacheCraftConfig {
            coalesce_entries: 4,
            coalesce_age: 1_000_000,
            ..CacheCraftConfig::reconstruct_only()
        };
        let mut s = scheme(cfg);
        let mut all = |_: u64| true;
        // 6 distinct ECC groups on channel 0: logical blocks are
        // interleaved ch0, ch1, ch0, ... -> every other 8-atom block.
        for k in 0..6u64 {
            let loc = s.map(LogicalAtom(k * 16));
            assert_eq!(loc.channel, 0);
            let _ = s.writeback(loc, k, &mut all);
        }
        let drained = s.drain_ecc_writes(0, 10, 8);
        assert_eq!(drained.len(), 2, "entries beyond capacity must spill");
    }

    #[test]
    fn merge_depth_and_peak_occupancy_are_tracked() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let mut all = |_: u64| true;
        // Three write-backs under one ECC atom: one entry, merge depth 3.
        for k in 0..3u64 {
            let loc = s.map(LogicalAtom(k));
            let _ = s.writeback(loc, k, &mut all);
        }
        // A second distinct ECC group on the same channel: occupancy 2.
        let other = s.map(LogicalAtom(16));
        assert_eq!(other.channel, s.map(LogicalAtom(0)).channel);
        let _ = s.writeback(other, 10, &mut all);
        let st = s.stats();
        assert_eq!(st.coalesce_max_merge_depth, 3);
        assert_eq!(st.coalesce_peak_occupancy, 2);
        assert_eq!(st.coalesced_ecc_writes, 2);
    }

    #[test]
    fn fragment_store_hits_counted_separately_from_inflight() {
        let mut s = scheme(CacheCraftConfig::fragments_only());
        let loc = s.map(LogicalAtom(0));
        // Miss registers the fetch as in flight.
        assert_eq!(s.demand_fill(loc, 0).ecc_fetches.len(), 1);
        // Sibling while in flight: a hit for traffic purposes, but not a
        // resident fragment-store hit.
        let sib = s.map(LogicalAtom(1));
        assert!(s.demand_fill(sib, 1).ecc_fetches.is_empty());
        assert_eq!(s.stats().fragment_store_hits, 0);
        // After arrival, further siblings are true store hits.
        let ecc = s.map.ecc_atom(loc);
        s.ecc_arrived(PhysLoc::new(loc.channel, ecc), 2);
        let sib2 = s.map(LogicalAtom(2));
        assert!(s.demand_fill(sib2, 3).ecc_fetches.is_empty());
        assert_eq!(s.stats().fragment_store_hits, 1);
        assert_eq!(s.stats().ecc_fetch_hits, 2);
    }

    #[test]
    fn flush_drains_everything() {
        let mut s = scheme(CacheCraftConfig::full());
        let loc = s.map(LogicalAtom(0));
        let mut all = |_: u64| true;
        let _ = s.writeback(loc, 0, &mut all);
        assert!(!s.is_drained());
        s.flush();
        let mut total = 0;
        for ch in 0..2 {
            total += s.drain_ecc_writes(ch, 1, 64).len();
        }
        assert_eq!(total, 1);
        assert!(s.is_drained());
    }

    #[test]
    fn ablation_flags_shape_behaviour() {
        // C1 only: fills always fetch; l2 untaxed.
        let mut c1 = scheme(CacheCraftConfig::colocate_only());
        let loc = c1.map(LogicalAtom(0));
        assert_eq!(c1.demand_fill(loc, 0).ecc_fetches.len(), 1);
        assert_eq!(c1.demand_fill(loc, 1).ecc_fetches.len(), 1);
        assert_eq!(c1.l2_tax_bytes(), 0);
        // C2 only: taxes L2, uses reserved region.
        let c2 = scheme(CacheCraftConfig::fragments_only());
        assert_eq!(c2.l2_tax_bytes(), 64 << 10);
        let gpu = GpuConfig::tiny();
        let row_atoms = gpu.mem.row_atoms();
        let loc = c2.map(LogicalAtom(0));
        let ecc = c2.map.ecc_atom(loc);
        assert_ne!(
            loc.atom / row_atoms,
            ecc / row_atoms,
            "reserved region: different row"
        );
        // Full: taxed and co-located.
        let full = scheme(CacheCraftConfig::full());
        assert_eq!(full.l2_tax_bytes(), 64 << 10);
    }

    #[test]
    fn naive_rmw_without_any_mechanism() {
        let cfg = CacheCraftConfig {
            colocate: false,
            fragment_store: false,
            reconstruct: false,
            ..CacheCraftConfig::default()
        };
        let mut s = scheme(cfg);
        let loc = s.map(LogicalAtom(0));
        let mut none = |_: u64| false;
        let plan = s.writeback(loc, 0, &mut none);
        assert_eq!(plan.ecc_reads.len(), 1);
        assert_eq!(plan.ecc_writes.len(), 1, "no buffer: immediate RMW write");
        assert!(s.is_drained());
    }
}
