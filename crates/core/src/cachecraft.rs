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
use ccraft_sim::protection::{Fill, ProtectionScheme, ProtectionStats, Writeback};
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
    /// Most entries ever pending at once.
    peak_occupancy: u64,
    /// Longest merge chain ever folded into one entry.
    max_merge_depth: u64,
}

impl CoalesceBuffer {
    /// Adds a fresh pending ECC write. The caller has checked that the
    /// atom is not pending ([`merge_into`](Self::merge_into) covers that
    /// case).
    fn push(&mut self, atom: u64, due: Cycle) {
        let fresh = self.members.insert(atom, 1).is_none();
        debug_assert!(fresh, "ECC atom {atom} already pending");
        self.queue.push_back((atom, due));
        self.peak_occupancy = self.peak_occupancy.max(self.queue.len() as u64);
    }

    /// Folds one more write into an already-pending entry.
    ///
    /// # Panics
    ///
    /// Panics if the atom is not pending; callers check
    /// [`contains`](Self::contains) first.
    // Documented invariant panic: callers check `contains` first.
    #[allow(clippy::expect_used)]
    fn merge_into(&mut self, atom: u64) {
        let count = self
            .members
            .get_mut(&atom)
            .expect("caller checked membership");
        *count += 1;
        self.max_merge_depth = self.max_merge_depth.max(*count);
    }

    fn contains(&self, atom: u64) -> bool {
        self.members.contains_key(&atom)
    }

    /// Appends to `out` the entries that are due at `now` or overflow
    /// `capacity`, up to `budget`.
    fn drain(&mut self, now: Cycle, capacity: usize, budget: usize, out: &mut Vec<u64>) {
        for _ in 0..budget {
            match self.queue.front() {
                Some(&(atom, due)) if due <= now || self.queue.len() > capacity => {
                    self.queue.pop_front();
                    self.members.remove(&atom);
                    out.push(atom);
                }
                _ => break,
            }
        }
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

/// One channel's worth of CacheCraft state: the coalescing buffer and the
/// channel's fragment-store slice. The scheme logic lives here —
/// [`CacheCraft`] routes every channel-scoped call to the owning channel.
#[derive(Debug)]
struct CacheCraftChannel {
    cfg: CacheCraftConfig,
    map: InlineMap,
    coalesce: CoalesceBuffer,
    store: Option<ChannelStore>,
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
        }
    }

    /// Queues an outgoing ECC write, via the coalescing buffer when C3 is
    /// enabled. Returns `None` when the write was buffered; `Some(atom)`
    /// when it must be issued immediately. Callers reach this only after
    /// [`writeback`](Self::writeback)'s step 2 found no pending write to
    /// `ecc`, so the buffer never merges here.
    fn queue_ecc_write(&mut self, ecc: u64, now: Cycle) -> Option<u64> {
        if self.cfg.reconstruct {
            self.coalesce.push(ecc, now + self.cfg.coalesce_age);
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

    fn demand_fill(&mut self, loc: PhysLoc) -> Fill {
        let ecc = self.map.ecc_atom(loc);
        // A pending coalesced write holds the freshest ECC on chip.
        if self.cfg.reconstruct && self.coalesce.contains(ecc) {
            return Fill::OnChip;
        }
        match self.store.as_mut().map(|store| store.probe_fill(ecc)) {
            Some(StoreProbe::Hit) => Fill::FragmentHit,
            Some(StoreProbe::InFlight) => Fill::OnChip,
            Some(StoreProbe::Miss) | None => Fill::Fetch(ecc),
        }
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        now: Cycle,
        resident: &mut dyn FnMut(u64) -> bool,
    ) -> Writeback {
        let ecc = self.map.ecc_atom(loc);
        // 1. Fragment-store hit: merge on chip, write on eviction.
        if let Some(store) = &mut self.store {
            if store.absorb_write(ecc) {
                return Writeback::Absorbed;
            }
        }
        // 2. Pending coalesced write to the same ECC atom: merge.
        if self.cfg.reconstruct && self.coalesce.contains(ecc) {
            self.coalesce.merge_into(ecc);
            return Writeback::Merged;
        }
        // 3. Reconstruction: all siblings on chip → re-encode, no RMW read.
        if self.cfg.reconstruct {
            let (first, count) = self.map.ecc_group(loc);
            if (first..first + count).all(resident) {
                let write = self.queue_ecc_write(ecc, now);
                return Writeback::Reconstructed { write };
            }
        }
        // 4. Fall back to a read-modify-write.
        let write = if let Some(store) = &mut self.store {
            // Write-allocate the merged result in the fragment store.
            store.install(ecc, true);
            None
        } else {
            self.queue_ecc_write(ecc, now)
        };
        Writeback::Rmw { read: ecc, write }
    }

    fn drain_ecc_writes(&mut self, now: Cycle, budget: usize, out: &mut Vec<u64>) {
        let start = out.len();
        self.coalesce
            .drain(now, self.cfg.coalesce_entries, budget, out);
        if let Some(store) = &mut self.store {
            store.drain_writes(budget - (out.len() - start), out);
        }
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
}

impl ProtectionScheme for CacheCraft {
    fn name(&self) -> &str {
        "cachecraft"
    }

    fn map(&self, logical: LogicalAtom) -> PhysLoc {
        self.map.map(logical)
    }

    fn demand_fill(&mut self, loc: PhysLoc, _now: Cycle) -> Fill {
        self.channels[loc.channel as usize].demand_fill(loc)
    }

    fn ecc_arrived(&mut self, loc: PhysLoc, _now: Cycle) {
        if let Some(store) = &mut self.channels[loc.channel as usize].store {
            store.install(loc.atom, false);
        }
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        now: Cycle,
        resident: &mut dyn FnMut(u64) -> bool,
    ) -> Writeback {
        self.channels[loc.channel as usize].writeback(loc, now, resident)
    }

    fn drain_ecc_writes(&mut self, channel: u16, now: Cycle, budget: usize, out: &mut Vec<u64>) {
        self.channels[channel as usize].drain_ecc_writes(now, budget, out)
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
        // The coalescing watermarks, maxed across channels.
        let mut total = ProtectionStats::default();
        for c in &self.channels {
            total.coalesce_peak_occupancy =
                total.coalesce_peak_occupancy.max(c.coalesce.peak_occupancy);
            total.coalesce_max_merge_depth = total
                .coalesce_max_merge_depth
                .max(c.coalesce.max_merge_depth);
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

    fn drain(s: &mut CacheCraft, channel: u16, now: Cycle, budget: usize) -> Vec<u64> {
        let mut out = Vec::new();
        s.drain_ecc_writes(channel, now, budget, &mut out);
        out
    }

    #[test]
    fn colocation_keeps_ecc_in_row() {
        let gpu = GpuConfig::tiny();
        let s = CacheCraft::new(&gpu, CacheCraftConfig::full());
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
        let ecc = s.map.ecc_atom(loc);
        assert_eq!(s.demand_fill(loc, 0), Fill::Fetch(ecc));
        s.ecc_arrived(PhysLoc::new(loc.channel, ecc), 1);
        // All 7 siblings now fill without ECC traffic.
        for i in 1..8u64 {
            let sib = s.map(LogicalAtom(i));
            assert_eq!(sib.channel, loc.channel);
            assert_eq!(s.demand_fill(sib, 2), Fill::FragmentHit, "sibling {i}");
        }
    }

    #[test]
    fn reconstruction_eliminates_rmw_read() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let loc = s.map(LogicalAtom(0));
        // All siblings resident -> reconstruct, no ECC read, write buffered.
        let mut all_resident = |_: u64| true;
        assert_eq!(
            s.writeback(loc, 0, &mut all_resident),
            Writeback::Reconstructed { write: None },
            "write goes through the buffer"
        );
        assert!(!s.is_drained());
        // Sibling write-back coalesces into the same pending ECC write.
        let sib = s.map(LogicalAtom(1));
        assert_eq!(s.writeback(sib, 1, &mut all_resident), Writeback::Merged);
        // Drain after the age threshold: exactly one ECC write.
        assert_eq!(drain(&mut s, loc.channel, 10_000, 8).len(), 1);
        assert!(s.is_drained());
    }

    #[test]
    fn partial_residency_falls_back_to_rmw() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let loc = s.map(LogicalAtom(0));
        let mut none_resident = |_: u64| false;
        let ecc = s.map.ecc_atom(loc);
        assert_eq!(
            s.writeback(loc, 0, &mut none_resident),
            Writeback::Rmw {
                read: ecc,
                write: None
            }
        );
    }

    #[test]
    fn pending_write_serves_demand_fill() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let loc = s.map(LogicalAtom(0));
        let mut all = |_: u64| true;
        let _ = s.writeback(loc, 0, &mut all); // buffers the ECC write
                                               // A demand fill of a sibling finds the ECC on chip.
        let sib = s.map(LogicalAtom(3));
        assert_eq!(s.demand_fill(sib, 1), Fill::OnChip);
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
        assert!(drain(&mut s, loc.channel, 100, 8).is_empty(), "not due yet");
        assert_eq!(drain(&mut s, loc.channel, 150, 8).len(), 1);
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
        assert_eq!(
            drain(&mut s, 0, 10, 8).len(),
            2,
            "entries beyond capacity must spill"
        );
    }

    #[test]
    fn merge_depth_and_peak_occupancy_are_tracked() {
        let mut s = scheme(CacheCraftConfig::reconstruct_only());
        let mut all = |_: u64| true;
        // Three write-backs under one ECC atom: one entry, merge depth 3.
        let decisions: Vec<Writeback> = (0..3u64)
            .map(|k| {
                let loc = s.map(LogicalAtom(k));
                s.writeback(loc, k, &mut all)
            })
            .collect();
        assert_eq!(
            decisions,
            [
                Writeback::Reconstructed { write: None },
                Writeback::Merged,
                Writeback::Merged
            ]
        );
        // A second distinct ECC group on the same channel: occupancy 2.
        let other = s.map(LogicalAtom(16));
        assert_eq!(other.channel, s.map(LogicalAtom(0)).channel);
        let _ = s.writeback(other, 10, &mut all);
        assert_eq!(
            s.stats(),
            ProtectionStats {
                coalesce_max_merge_depth: 3,
                coalesce_peak_occupancy: 2,
                ..ProtectionStats::default()
            },
            "the scheme reports only its watermarks"
        );
    }

    #[test]
    fn fragment_store_hits_counted_separately_from_inflight() {
        let mut s = scheme(CacheCraftConfig::fragments_only());
        let loc = s.map(LogicalAtom(0));
        // Miss registers the fetch as in flight.
        let ecc = s.map.ecc_atom(loc);
        assert_eq!(s.demand_fill(loc, 0), Fill::Fetch(ecc));
        // Sibling while in flight: on chip for traffic purposes, but not a
        // resident fragment-store hit.
        let sib = s.map(LogicalAtom(1));
        assert_eq!(s.demand_fill(sib, 1), Fill::OnChip);
        // After arrival, further siblings are true store hits.
        s.ecc_arrived(PhysLoc::new(loc.channel, ecc), 2);
        let sib2 = s.map(LogicalAtom(2));
        assert_eq!(s.demand_fill(sib2, 3), Fill::FragmentHit);
    }

    #[test]
    fn flush_drains_everything() {
        let mut s = scheme(CacheCraftConfig::full());
        let loc = s.map(LogicalAtom(0));
        let mut all = |_: u64| true;
        let _ = s.writeback(loc, 0, &mut all);
        assert!(!s.is_drained());
        s.flush();
        let total: usize = (0..2).map(|ch| drain(&mut s, ch, 1, 64).len()).sum();
        assert_eq!(total, 1);
        assert!(s.is_drained());
    }

    #[test]
    fn ablation_flags_shape_behaviour() {
        // C1 only: fills always fetch; l2 untaxed.
        let mut c1 = scheme(CacheCraftConfig::colocate_only());
        let loc = c1.map(LogicalAtom(0));
        assert!(matches!(c1.demand_fill(loc, 0), Fill::Fetch(_)));
        assert!(matches!(c1.demand_fill(loc, 1), Fill::Fetch(_)));
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
        let ecc = s.map.ecc_atom(loc);
        assert_eq!(
            s.writeback(loc, 0, &mut none),
            Writeback::Rmw {
                read: ecc,
                write: Some(ecc)
            },
            "no buffer: immediate RMW write"
        );
        assert!(s.is_drained());
    }
}
