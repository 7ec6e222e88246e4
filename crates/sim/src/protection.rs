//! The protection-scheme interface: how memory protection injects traffic
//! into the simulated hierarchy.
//!
//! The simulator itself knows nothing about ECC codes. Instead, an
//! implementation of [`ProtectionScheme`] is consulted at three points:
//!
//! 1. **Address mapping** ([`ProtectionScheme::map`]) — logical atoms are
//!    translated to channel-local physical locations. Inline-ECC layouts
//!    insert carve-outs here.
//! 2. **Demand fills** ([`ProtectionScheme::demand_fill`]) — on an L2 miss
//!    the scheme returns a [`Fill`]: the one ECC atom to fetch before the
//!    data can be verified, or why none is needed.
//! 3. **Write-backs** ([`ProtectionScheme::writeback`]) — a dirty eviction
//!    returns a [`Writeback`]: an ECC read-modify-write, an update
//!    absorbed or merged on chip, or CacheCraft's codeword
//!    reconstruction. Buffered ECC writes leave later through
//!    [`ProtectionScheme::drain_ecc_writes`], into a buffer the caller
//!    owns.
//!
//! Both decisions are small `Copy` values, and the L2 slice that asked
//! counts them in one place, so every scheme's [`ProtectionStats`] mean
//! the same thing. A scheme's own [`stats`](ProtectionScheme::stats)
//! reports only its internal buffer state (the coalescing watermarks).
//!
//! [`NoProtection`] (ECC disabled) lives here so the simulator is testable
//! stand-alone; the inline-ECC baselines and CacheCraft live in the
//! `ccraft-core` crate.

use crate::types::{Cycle, LogicalAtom, PhysLoc};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Striping of the global logical atom space across channels.
///
/// Global logical atoms are dealt to channels in `interleave_atoms`-sized
/// blocks (256 B by default), producing a dense per-channel logical space
/// that the per-channel inline-ECC layout then maps to physical atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelInterleave {
    channels: u16,
    interleave_atoms: u64,
}

impl ChannelInterleave {
    /// Creates an interleave.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or `interleave_atoms` is not a positive
    /// power of two.
    pub fn new(channels: u16, interleave_atoms: u64) -> Self {
        assert!(channels > 0, "channels must be positive");
        assert!(
            interleave_atoms.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        ChannelInterleave {
            channels,
            interleave_atoms,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u16 {
        self.channels
    }

    /// Splits a global logical atom into `(channel, channel-local logical
    /// atom)`.
    #[inline]
    pub fn split(&self, logical: LogicalAtom) -> (u16, u64) {
        let block = logical.0 / self.interleave_atoms;
        let offset = logical.0 % self.interleave_atoms;
        let channel = (block % self.channels as u64) as u16;
        let local = (block / self.channels as u64) * self.interleave_atoms + offset;
        (channel, local)
    }

    /// Inverse of [`split`](Self::split).
    #[inline]
    pub fn join(&self, channel: u16, local: u64) -> LogicalAtom {
        let block = local / self.interleave_atoms;
        let offset = local % self.interleave_atoms;
        LogicalAtom(
            (block * self.channels as u64 + channel as u64) * self.interleave_atoms + offset,
        )
    }
}

/// A scheme's decision on one demand fill: whether the check bits that
/// gate it come from DRAM, and if not, why not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The scheme keeps no check bits (ECC off): nothing gates the fill.
    Unprotected,
    /// Fetch this channel-local ECC atom (same channel as the data); the
    /// fill waits for it. No scheme gates a fill on more than one fetch.
    Fetch(u64),
    /// The check bits are already on chip, or on their way: a resident
    /// ECC-cache entry, a fetch already in flight, a pending coalesced
    /// write, or an atom that carries its own check bits (compressed).
    OnChip,
    /// The check bits are resident in CacheCraft's fragment store (C2).
    FragmentHit,
}

/// A scheme's decision on one dirty-data write-back: the ECC traffic it
/// issues with the data write, and why. No scheme reads or writes more
/// than one ECC atom per write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writeback {
    /// The scheme keeps no check bits (ECC off).
    Unprotected,
    /// The ECC update was absorbed on chip (a resident ECC entry now
    /// dirty, or an atom that carries its own check bits): no ECC traffic.
    Absorbed,
    /// The ECC update merged into a pending coalesced ECC write to the
    /// same atom (CacheCraft C3): no ECC traffic.
    Merged,
    /// Every sibling of the ECC group is on chip, so the ECC atom was
    /// re-encoded without a read (CacheCraft C3). `write` is the ECC write
    /// to issue now, `None` when a buffer took it.
    Reconstructed {
        /// ECC atom to write now.
        write: Option<u64>,
    },
    /// A read-modify-write: read the ECC atom now; `write` is the ECC
    /// write to issue now, `None` when it is deferred (write-allocated on
    /// chip, or buffered for coalescing).
    Rmw {
        /// ECC atom to read.
        read: u64,
        /// ECC atom to write now.
        write: Option<u64>,
    },
}

/// Protection counters of a run; fields not applicable to a scheme stay
/// zero. The L2 slices count every field but the two coalescing
/// watermarks from the [`Fill`] and [`Writeback`] decisions and the
/// drained atoms; [`ProtectionScheme::stats`] reports the watermarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectionStats {
    /// Demand fills that needed an ECC fetch from DRAM.
    pub ecc_demand_fetches: u64,
    /// Demand fills whose check bits were already on chip.
    pub ecc_fetch_hits: u64,
    /// Write-backs that required an ECC read-modify-write from DRAM.
    pub rmw_writebacks: u64,
    /// Write-backs whose ECC atom was reconstructed entirely on chip
    /// (CacheCraft C3 reconstruction).
    pub reconstructed_writebacks: u64,
    /// Write-backs absorbed by an on-chip dirty ECC entry or coalescing
    /// buffer (no immediate DRAM traffic).
    pub absorbed_writebacks: u64,
    /// ECC writes merged away by coalescing (writes that never reached
    /// DRAM because a later write to the same ECC atom subsumed them).
    pub coalesced_ecc_writes: u64,
    /// Buffered ECC writes drained to DRAM (coalescing-buffer entries and
    /// dirty ECC-structure evictions): the atoms
    /// [`ProtectionScheme::drain_ecc_writes`] handed out.
    pub ecc_structure_writebacks: u64,
    /// Demand fills served by a fragment-store hit specifically (a subset
    /// of [`ecc_fetch_hits`](Self::ecc_fetch_hits)). Serialized only when
    /// nonzero, so schemes without a fragment store emit unchanged JSON.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub fragment_store_hits: u64,
    /// Peak occupancy observed across ECC write-coalescing buffers
    /// (entries). Serialized only when nonzero.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub coalesce_peak_occupancy: u64,
    /// Deepest merge chain on a single buffered ECC write (writes folded
    /// into one entry). Serialized only when nonzero.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub coalesce_max_merge_depth: u64,
}

/// Serde helper: telemetry-ish counters are omitted while zero so output
/// stays byte-compatible with earlier versions.
fn is_zero(v: &u64) -> bool {
    *v == 0
}

impl ProtectionStats {
    /// Folds another stats block into this one. Counter fields sum; the
    /// two peak/depth watermarks take the max, which is order-independent,
    /// so merging per-channel stats in any grouping gives the same
    /// aggregate.
    pub fn merge(&mut self, other: &ProtectionStats) {
        self.ecc_demand_fetches += other.ecc_demand_fetches;
        self.ecc_fetch_hits += other.ecc_fetch_hits;
        self.rmw_writebacks += other.rmw_writebacks;
        self.reconstructed_writebacks += other.reconstructed_writebacks;
        self.absorbed_writebacks += other.absorbed_writebacks;
        self.coalesced_ecc_writes += other.coalesced_ecc_writes;
        self.ecc_structure_writebacks += other.ecc_structure_writebacks;
        self.fragment_store_hits += other.fragment_store_hits;
        self.coalesce_peak_occupancy = self
            .coalesce_peak_occupancy
            .max(other.coalesce_peak_occupancy);
        self.coalesce_max_merge_depth = self
            .coalesce_max_merge_depth
            .max(other.coalesce_max_merge_depth);
    }
}

/// A memory-protection scheme plugged into the simulator.
///
/// Implementations must be deterministic: the same call sequence must
/// produce the same decisions (simulation results are required to be
/// reproducible bit-for-bit given a seed). A scheme does not count its
/// decisions: the L2 slice that asked counts them (see
/// [`ProtectionStats`]). The buffer hooks default to a scheme with no
/// on-chip ECC state.
pub trait ProtectionScheme: fmt::Debug + Send {
    /// Short scheme name for reports (e.g. `"cachecraft"`).
    fn name(&self) -> &str;

    /// Maps a software-visible logical atom to its physical location.
    fn map(&self, logical: LogicalAtom) -> PhysLoc;

    /// Called on an L2 demand miss for `loc` (a data atom). Returns the
    /// decision on the ECC fetch that gates the fill. The scheme may
    /// update internal structures (e.g. reserve an ECC-cache entry).
    fn demand_fill(&mut self, loc: PhysLoc, now: Cycle) -> Fill;

    /// Called when a demand ECC fetch previously returned by
    /// [`demand_fill`](Self::demand_fill) arrives from DRAM.
    fn ecc_arrived(&mut self, _loc: PhysLoc, _now: Cycle) {}

    /// Called when the L2 writes back a dirty data atom. `resident`
    /// answers whether a given channel-local data atom currently holds
    /// valid data in the L2 slice (used by codeword reconstruction).
    fn writeback(
        &mut self,
        loc: PhysLoc,
        now: Cycle,
        resident: &mut dyn FnMut(u64) -> bool,
    ) -> Writeback;

    /// Appends to `out` the buffered ECC writes (coalescing buffers, dirty
    /// ECC-structure evictions) that should be issued now, at most
    /// `budget` atoms for `channel`. `out` is the caller's reused buffer.
    fn drain_ecc_writes(
        &mut self,
        _channel: u16,
        _now: Cycle,
        _budget: usize,
        _out: &mut Vec<u64>,
    ) {
    }

    /// Forces all internal buffers to become drainable (end of kernel).
    fn flush(&mut self) {}

    /// `true` when no buffered ECC writes remain anywhere.
    fn is_drained(&self) -> bool {
        true
    }

    /// Earliest cycle at which [`drain_ecc_writes`](Self::drain_ecc_writes)
    /// for `channel` may newly produce atoms *without any other simulator
    /// activity* — part of that channel's L2 slice event, which drives
    /// the slice's sleep memo and the cycle loop's idle fast-forward.
    /// `None` (the default) declares the channel's drain behaviour
    /// time-independent: if a call this cycle yields fewer atoms than its
    /// budget, a call any later cycle yields nothing, so buffered state
    /// never blocks a skip on its own. Schemes with age-triggered buffers
    /// (CacheCraft's coalesce timeout) override this with the channel's
    /// earliest pending deadline; `Some(c <= now)` marks the channel busy
    /// right now.
    ///
    /// A channel's drain may depend only on calls made for that channel
    /// (and on [`flush`](Self::flush), after which the simulator wakes
    /// every slice), because a sleeping slice does not see other
    /// channels' activity; and [`demand_fill`](Self::demand_fill), which
    /// the slice calls after its drain, must not give the drain new
    /// atoms.
    fn next_timed_event(&self, _channel: u16) -> Option<Cycle> {
        None
    }

    /// L2 capacity per slice (bytes) repurposed by the scheme's on-chip
    /// structures; the simulator shrinks the L2 accordingly.
    fn l2_tax_bytes(&self) -> u64 {
        0
    }

    /// The codec the in-situ fault injector should run decode trials
    /// through (see [`crate::faults`]). Defaults to
    /// [`Unprotected`](crate::faults::ProtectionCodec::Unprotected): any
    /// injected data fault is silent corruption. Real schemes override
    /// this with their storage codec.
    fn fault_codec(&self) -> crate::faults::ProtectionCodec {
        crate::faults::ProtectionCodec::Unprotected
    }

    /// The scheme's internal buffer state: only the two coalescing
    /// watermarks (`coalesce_peak_occupancy`, `coalesce_max_merge_depth`);
    /// every other field stays zero, because the slices count the
    /// decisions. Zero by default.
    fn stats(&self) -> ProtectionStats {
        ProtectionStats::default()
    }
}

/// ECC disabled: identity layout, no extra traffic. The performance
/// upper-bound baseline.
#[derive(Debug, Clone)]
pub struct NoProtection {
    interleave: ChannelInterleave,
}

impl NoProtection {
    /// Creates the scheme for a machine with the given channel interleave.
    pub fn new(interleave: ChannelInterleave) -> Self {
        NoProtection { interleave }
    }
}

impl ProtectionScheme for NoProtection {
    fn name(&self) -> &str {
        "no-protection"
    }

    fn map(&self, logical: LogicalAtom) -> PhysLoc {
        let (channel, local) = self.interleave.split(logical);
        PhysLoc::new(channel, local)
    }

    fn demand_fill(&mut self, _loc: PhysLoc, _now: Cycle) -> Fill {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_split_join_round_trip() {
        let il = ChannelInterleave::new(8, 8);
        for atom in (0..100_000u64).step_by(977) {
            let (ch, local) = il.split(LogicalAtom(atom));
            assert!(ch < 8);
            assert_eq!(il.join(ch, local), LogicalAtom(atom));
        }
    }

    #[test]
    fn interleave_deals_blocks_round_robin() {
        let il = ChannelInterleave::new(4, 8);
        // Atoms 0..8 -> channel 0, 8..16 -> channel 1, ...
        assert_eq!(il.split(LogicalAtom(0)).0, 0);
        assert_eq!(il.split(LogicalAtom(7)).0, 0);
        assert_eq!(il.split(LogicalAtom(8)).0, 1);
        assert_eq!(il.split(LogicalAtom(31)).0, 3);
        assert_eq!(il.split(LogicalAtom(32)).0, 0);
        // Channel-local indices stay dense per channel.
        assert_eq!(il.split(LogicalAtom(32)).1, 8);
        assert_eq!(il.split(LogicalAtom(33)).1, 9);
    }

    #[test]
    fn interleave_is_balanced() {
        let il = ChannelInterleave::new(8, 8);
        let mut counts = [0u64; 8];
        for atom in 0..8 * 8 * 100 {
            counts[il.split(LogicalAtom(atom)).0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == counts[0]));
    }

    #[test]
    fn no_protection_is_identity_modulo_interleave() {
        let il = ChannelInterleave::new(2, 8);
        let mut scheme = NoProtection::new(il);
        let loc = scheme.map(LogicalAtom(100));
        let (ch, local) = il.split(LogicalAtom(100));
        assert_eq!(loc, PhysLoc::new(ch, local));
        assert_eq!(scheme.demand_fill(loc, 0), Fill::Unprotected);
        let mut resident = |_: u64| true;
        assert_eq!(
            scheme.writeback(loc, 0, &mut resident),
            Writeback::Unprotected
        );
        assert!(scheme.is_drained());
        assert_eq!(scheme.stats(), ProtectionStats::default());
        assert_eq!(scheme.l2_tax_bytes(), 0);
        assert_eq!(scheme.name(), "no-protection");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_interleave() {
        let _ = ChannelInterleave::new(2, 7);
    }

    #[test]
    fn zero_telemetry_counters_are_omitted_from_json() {
        let base = ProtectionStats {
            ecc_demand_fetches: 3,
            ..ProtectionStats::default()
        };
        let json = serde_json::to_string(&base).unwrap();
        assert!(!json.contains("fragment_store_hits"));
        assert!(!json.contains("coalesce_peak_occupancy"));
        assert!(!json.contains("coalesce_max_merge_depth"));
        // Old-format JSON (without them) still deserializes.
        let back: ProtectionStats = serde_json::from_str(&json).unwrap();
        assert_eq!(base, back);
        // Nonzero values round-trip.
        let full = ProtectionStats {
            fragment_store_hits: 5,
            coalesce_peak_occupancy: 9,
            coalesce_max_merge_depth: 4,
            ..base
        };
        let json = serde_json::to_string(&full).unwrap();
        assert!(json.contains("coalesce_max_merge_depth"));
        let back: ProtectionStats = serde_json::from_str(&json).unwrap();
        assert_eq!(full, back);
    }
}
