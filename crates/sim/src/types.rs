//! Fundamental address and identifier types shared across the simulator.
//!
//! The simulator distinguishes three address spaces, and mixing them up is
//! the classic source of silent simulation bugs, so each gets its own type:
//!
//! * [`LogicalAtom`] — a software-visible global index of one 32-byte atom.
//!   Traces are expressed in this space.
//! * [`PhysLoc`] — a `(channel, channel-local physical atom)` pair, produced
//!   by the protection scheme's address mapping. The caches, crossbar and
//!   memory controllers all operate in this space; channel-local physical
//!   indices include inline-ECC carve-outs.
//! * DRAM geometry (bank/row/column) — derived from `PhysLoc` by
//!   [`crate::dram::DramAddressMap`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulation time in core-clock cycles.
pub type Cycle = u64;

/// Bytes per atom — the DRAM access granularity and cache sector size.
pub const ATOM_BYTES: u64 = 32;

/// Atoms per 128-byte cache line.
pub const ATOMS_PER_LINE: u64 = 4;

/// A software-visible global 32-byte-atom index (dense, no ECC holes).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(transparent)]
pub struct LogicalAtom(pub u64);

impl LogicalAtom {
    /// The atom containing the given logical byte address.
    #[inline]
    pub fn from_byte_addr(addr: u64) -> Self {
        LogicalAtom(addr / ATOM_BYTES)
    }
}

impl fmt::Display for LogicalAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A channel-local *physical* atom location: the address space the memory
/// controllers and L2 slices operate in. Physical indices include
/// inline-ECC atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhysLoc {
    /// Memory channel / L2 slice index.
    pub channel: u16,
    /// Channel-local physical atom index.
    pub atom: u64,
}

impl PhysLoc {
    /// Creates a location.
    #[inline]
    pub fn new(channel: u16, atom: u64) -> Self {
        PhysLoc { channel, atom }
    }

    /// The 128-byte line this atom belongs to (channel-local line index).
    #[inline]
    pub fn line(self) -> u64 {
        self.atom / ATOMS_PER_LINE
    }

    /// Sector slot within the line (0..4).
    #[inline]
    pub fn sector_in_line(self) -> usize {
        (self.atom % ATOMS_PER_LINE) as usize
    }
}

impl fmt::Display for PhysLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}:{:#x}", self.channel, self.atom)
    }
}

/// Identifier of a streaming multiprocessor.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(transparent)]
pub struct SmId(pub u16);

impl fmt::Display for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}", self.0)
    }
}

/// Warp index local to one SM.
pub type WarpIdx = u16;

/// Kind of memory access carried through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load; the requesting warp blocks until data returns.
    Read,
    /// A store. `full` marks stores that overwrite the entire 32-byte atom
    /// (no fetch-on-write needed).
    Write {
        /// Whether the store covers the whole atom.
        full: bool,
    },
}

impl AccessKind {
    /// `true` for either write flavour.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write { .. })
    }
}

/// Classification of DRAM transactions for traffic accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Demand or fetch-on-write data read.
    DataRead,
    /// Data write-back.
    DataWrite,
    /// ECC atom read (demand-fill verify or read-modify-write).
    EccRead,
    /// ECC atom write.
    EccWrite,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::DataRead,
        TrafficClass::DataWrite,
        TrafficClass::EccRead,
        TrafficClass::EccWrite,
    ];

    /// Index of this class in [`TrafficClass::ALL`] (the enum is declared
    /// in `ALL` order, so this is just the discriminant).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// `true` for the two ECC classes.
    pub fn is_ecc(self) -> bool {
        matches!(self, TrafficClass::EccRead | TrafficClass::EccWrite)
    }

    /// `true` for the two read classes.
    pub fn is_read(self) -> bool {
        matches!(self, TrafficClass::DataRead | TrafficClass::EccRead)
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::DataRead => "data-read",
            TrafficClass::DataWrite => "data-write",
            TrafficClass::EccRead => "ecc-read",
            TrafficClass::EccWrite => "ecc-write",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_atom_byte_math() {
        assert_eq!(LogicalAtom::from_byte_addr(0), LogicalAtom(0));
        assert_eq!(LogicalAtom::from_byte_addr(31), LogicalAtom(0));
        assert_eq!(LogicalAtom::from_byte_addr(32), LogicalAtom(1));
    }

    #[test]
    fn phys_loc_line_geometry() {
        let loc = PhysLoc::new(2, 13);
        assert_eq!(loc.line(), 3);
        assert_eq!(loc.sector_in_line(), 1);
        assert_eq!(PhysLoc::new(0, 0).sector_in_line(), 0);
        assert_eq!(PhysLoc::new(0, 7).line(), 1);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write { full: true }.is_write());
        assert!(AccessKind::Write { full: false }.is_write());
    }

    #[test]
    fn traffic_class_predicates() {
        assert!(TrafficClass::EccRead.is_ecc());
        assert!(TrafficClass::EccWrite.is_ecc());
        assert!(!TrafficClass::DataRead.is_ecc());
        assert!(TrafficClass::DataRead.is_read());
        assert!(TrafficClass::EccRead.is_read());
        assert!(!TrafficClass::DataWrite.is_read());
        assert_eq!(TrafficClass::ALL.len(), 4);
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(LogicalAtom(255).to_string(), "L0xff");
        assert_eq!(PhysLoc::new(1, 16).to_string(), "ch1:0x10");
        assert_eq!(SmId(3).to_string(), "SM3");
        assert_eq!(TrafficClass::EccWrite.to_string(), "ecc-write");
    }
}
