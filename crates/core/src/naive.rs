//! The naive inline-ECC baseline: every protected access pays for its ECC
//! in DRAM traffic.
//!
//! * Demand fill → one ECC-atom read per data-atom fetch, gating the fill.
//! * Dirty write-back → ECC read-modify-write (one ECC read + one ECC
//!   write).
//! * ECC atoms live in a reserved region at the top of memory (the default
//!   firmware layout), so ECC fetches routinely conflict with data rows.
//!
//! This models inline ECC with no on-chip ECC caching at all — the
//! motivation baseline of the evaluation (experiment F1/F2).

use crate::inline_map::InlineMap;
use ccraft_ecc::layout::EccPlacement;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::protection::{Fill, ProtectionScheme, Writeback};
use ccraft_sim::types::{Cycle, LogicalAtom, PhysLoc};

/// The naive inline-ECC scheme.
#[derive(Debug)]
pub struct InlineNaive {
    map: InlineMap,
}

impl InlineNaive {
    /// Builds the scheme for a machine, with one ECC atom per `coverage`
    /// data atoms (8 → 12.5 % redundancy).
    pub fn new(cfg: &GpuConfig, coverage: u32) -> Self {
        InlineNaive {
            map: InlineMap::new(cfg, EccPlacement::ReservedRegion, coverage),
        }
    }
}

impl ProtectionScheme for InlineNaive {
    fn name(&self) -> &str {
        "inline-naive"
    }

    fn map(&self, logical: LogicalAtom) -> PhysLoc {
        self.map.map(logical)
    }

    fn demand_fill(&mut self, loc: PhysLoc, _now: Cycle) -> Fill {
        Fill::Fetch(self.map.ecc_atom(loc))
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        _now: Cycle,
        _resident: &mut dyn FnMut(u64) -> bool,
    ) -> Writeback {
        let ecc = self.map.ecc_atom(loc);
        Writeback::Rmw {
            read: ecc,
            write: Some(ecc),
        }
    }

    fn fault_codec(&self) -> ccraft_sim::faults::ProtectionCodec {
        // SEC-DED(72,64) per inline codeword.
        ccraft_sim::faults::ProtectionCodec::SecDed64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fill_fetches_ecc() {
        let cfg = GpuConfig::tiny();
        let mut s = InlineNaive::new(&cfg, 8);
        let loc = s.map(LogicalAtom(100));
        let fill = s.demand_fill(loc, 0);
        assert!(
            matches!(fill, Fill::Fetch(ecc) if ecc != loc.atom),
            "{fill:?}"
        );
        // Repeated fill of the same atom fetches again (no caching).
        assert_eq!(s.demand_fill(loc, 1), fill);
    }

    #[test]
    fn every_writeback_is_rmw() {
        let cfg = GpuConfig::tiny();
        let mut s = InlineNaive::new(&cfg, 8);
        let loc = s.map(LogicalAtom(7));
        let mut resident = |_: u64| true; // residency is irrelevant to naive
        let ecc = s.map.ecc_atom(loc);
        assert_eq!(
            s.writeback(loc, 0, &mut resident),
            Writeback::Rmw {
                read: ecc,
                write: Some(ecc)
            }
        );
    }

    #[test]
    fn neighbours_share_an_ecc_atom() {
        let cfg = GpuConfig::tiny();
        let mut s = InlineNaive::new(&cfg, 8);
        // Atoms 0..8 are one interleave block on channel 0: one ECC group.
        let a = s.map(LogicalAtom(0));
        let b = s.map(LogicalAtom(7));
        assert_eq!(a.channel, b.channel);
        assert_eq!(s.demand_fill(a, 0), s.demand_fill(b, 0));
    }

    #[test]
    fn trivially_drained() {
        let cfg = GpuConfig::tiny();
        let mut s = InlineNaive::new(&cfg, 8);
        assert!(s.is_drained());
        s.flush();
        let mut out = Vec::new();
        s.drain_ecc_writes(0, 0, 8, &mut out);
        assert!(out.is_empty());
        assert_eq!(s.l2_tax_bytes(), 0);
    }
}
