//! Compression-backed inline ECC (Frugal-ECC-style baseline).
//!
//! An alternative way to hide inline-ECC traffic, following Kim et al.'s
//! Frugal ECC (SC'15) and related compressed-protection designs: compress
//! each 32-byte atom by at least the check-bit budget so data *and* its
//! ECC fit in one DRAM transaction. Compressible atoms then pay **zero**
//! extra traffic in either direction; incompressible atoms spill to an
//! exception region and pay like naive inline ECC (an extra read per
//! fill, a read-modify-write per write-back).
//!
//! Real compressibility depends on data values, which a timing trace does
//! not carry; we model it as a deterministic per-atom Bernoulli draw with
//! configurable probability, matching the coverage rates the Frugal ECC
//! paper reports for its coverage-oriented compressor (84–100 % across
//! SPEC/SPLASH; GPU data is less compressible, so the evaluation sweeps
//! the rate). DESIGN.md records this substitution.

use crate::inline_map::InlineMap;
use ccraft_ecc::layout::EccPlacement;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::protection::{Fill, ProtectionScheme, Writeback};
use ccraft_sim::types::{Cycle, LogicalAtom, PhysLoc};

/// The compression-backed inline-ECC scheme.
#[derive(Debug)]
pub struct CompressedInline {
    map: InlineMap,
    /// Percentage (0–100) of atoms that compress below 32 - check bytes.
    compress_pct: u8,
}

impl CompressedInline {
    /// Builds the scheme with the given compressibility percentage.
    ///
    /// # Panics
    ///
    /// Panics if `compress_pct > 100` or the machine geometry cannot host
    /// the exception region.
    pub fn new(cfg: &GpuConfig, coverage: u32, compress_pct: u8) -> Self {
        assert!(compress_pct <= 100, "compressibility is a percentage");
        CompressedInline {
            // The exception region reuses the reserved-region layout: one
            // exception atom per `coverage` data atoms, same as ECC.
            map: InlineMap::new(cfg, EccPlacement::ReservedRegion, coverage),
            compress_pct,
        }
    }

    /// Deterministic per-atom compressibility draw (splitmix64 hash).
    fn compressible(&self, atom: u64) -> bool {
        let mut z = atom.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 100) < self.compress_pct as u64
    }
}

impl ProtectionScheme for CompressedInline {
    fn name(&self) -> &str {
        "compressed-inline"
    }

    fn map(&self, logical: LogicalAtom) -> PhysLoc {
        self.map.map(logical)
    }

    fn demand_fill(&mut self, loc: PhysLoc, _now: Cycle) -> Fill {
        if self.compressible(loc.atom) {
            // The atom carries its own check bits: an avoided fetch.
            Fill::OnChip
        } else {
            Fill::Fetch(self.map.ecc_atom(loc))
        }
    }

    fn writeback(
        &mut self,
        loc: PhysLoc,
        _now: Cycle,
        _resident: &mut dyn FnMut(u64) -> bool,
    ) -> Writeback {
        if self.compressible(loc.atom) {
            Writeback::Absorbed
        } else {
            let exc = self.map.ecc_atom(loc);
            Writeback::Rmw {
                read: exc,
                write: Some(exc),
            }
        }
    }

    fn fault_codec(&self) -> ccraft_sim::faults::ProtectionCodec {
        // Compressed layouts still decode SEC-DED codewords.
        ccraft_sim::faults::ProtectionCodec::SecDed64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme(pct: u8) -> CompressedInline {
        CompressedInline::new(&GpuConfig::tiny(), 8, pct)
    }

    #[test]
    fn compressibility_rate_matches_configuration() {
        for pct in [0u8, 30, 70, 100] {
            let s = scheme(pct);
            let hits = (0..100_000u64).filter(|&a| s.compressible(a)).count();
            let rate = hits as f64 / 100_000.0;
            assert!(
                (rate - pct as f64 / 100.0).abs() < 0.01,
                "pct {pct}: measured {rate}"
            );
        }
    }

    #[test]
    fn compressible_atoms_pay_nothing() {
        let mut s = scheme(100);
        let loc = s.map(LogicalAtom(7));
        assert_eq!(s.demand_fill(loc, 0), Fill::OnChip);
        let mut res = |_: u64| false;
        assert_eq!(s.writeback(loc, 0, &mut res), Writeback::Absorbed);
    }

    #[test]
    fn incompressible_atoms_pay_like_naive() {
        let mut s = scheme(0);
        let loc = s.map(LogicalAtom(7));
        let exc = s.map.ecc_atom(loc);
        assert_eq!(s.demand_fill(loc, 0), Fill::Fetch(exc));
        let mut res = |_: u64| true; // residency is irrelevant here
        assert_eq!(
            s.writeback(loc, 0, &mut res),
            Writeback::Rmw {
                read: exc,
                write: Some(exc)
            }
        );
    }

    #[test]
    fn draw_is_deterministic_and_mixed() {
        let s = scheme(50);
        let a: Vec<bool> = (0..64).map(|i| s.compressible(i)).collect();
        let b: Vec<bool> = (0..64).map(|i| s.compressible(i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn always_drained() {
        let mut s = scheme(50);
        assert!(s.is_drained());
        s.flush();
        let mut out = Vec::new();
        s.drain_ecc_writes(0, 0, 16, &mut out);
        assert!(out.is_empty());
        assert_eq!(s.l2_tax_bytes(), 0);
        assert_eq!(s.name(), "compressed-inline");
    }
}
