//! Shared building blocks for workload generators.

use ccraft_sim::coalesce::{coalesce, coalesce_writes};
use ccraft_sim::trace::WarpOp;
use ccraft_sim::types::ATOM_BYTES;

/// Threads per warp (fixed by the SIMT model).
pub const WARP_THREADS: u64 = 32;

/// A bump allocator for laying out kernel arrays in the logical address
/// space, aligned to 128-byte lines.
#[derive(Debug, Default)]
pub struct Layouter {
    next_byte: u64,
}

/// A contiguous array placed by the [`Layouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    base: u64,
    len_bytes: u64,
    elem_bytes: u64,
}

impl Layouter {
    /// Creates an empty layout starting at address zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves an array of `elems` elements of `elem_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `elems` or `elem_bytes` is zero.
    pub fn array(&mut self, elems: u64, elem_bytes: u64) -> ArrayRef {
        assert!(elems > 0 && elem_bytes > 0, "empty array");
        let base = self.next_byte;
        let len_bytes = elems * elem_bytes;
        // Align the next array to a line boundary.
        self.next_byte = (base + len_bytes).div_ceil(128) * 128;
        ArrayRef {
            base,
            len_bytes,
            elem_bytes,
        }
    }

    /// Total bytes laid out so far.
    pub fn total_bytes(&self) -> u64 {
        self.next_byte
    }
}

impl ArrayRef {
    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on out-of-bounds access.
    #[inline]
    pub fn elem(&self, i: u64) -> u64 {
        debug_assert!(
            i * self.elem_bytes < self.len_bytes,
            "element {i} out of bounds"
        );
        self.base + i * self.elem_bytes
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len_bytes / self.elem_bytes
    }

    /// `true` when the array holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Footprint in atoms.
    pub fn atoms(&self) -> u64 {
        self.len_bytes.div_ceil(ATOM_BYTES)
    }
}

/// Builds a coalesced warp load of `WARP_THREADS` consecutive elements of
/// `arr` starting at element `start` (lanes beyond the array are inactive).
pub fn warp_load(arr: &ArrayRef, start: u64) -> Option<WarpOp> {
    let addrs: Vec<u64> = (0..WARP_THREADS)
        .map(|t| start + t)
        .filter(|&i| i < arr.len())
        .map(|i| arr.elem(i))
        .collect();
    if addrs.is_empty() {
        None
    } else {
        Some(WarpOp::Load {
            atoms: coalesce(&addrs),
        })
    }
}

/// Builds a coalesced warp store of consecutive elements, classifying each
/// touched atom as fully or partially covered. Emits one `Store` per
/// coverage class when both occur.
pub fn warp_store(arr: &ArrayRef, start: u64) -> Vec<WarpOp> {
    let addrs: Vec<u64> = (0..WARP_THREADS)
        .map(|t| start + t)
        .filter(|&i| i < arr.len())
        .map(|i| arr.elem(i))
        .collect();
    store_from_addrs(&addrs, arr.elem_bytes as u32)
}

/// Builds store op(s) from raw per-thread byte addresses.
pub fn store_from_addrs(addrs: &[u64], elem_bytes: u32) -> Vec<WarpOp> {
    if addrs.is_empty() {
        return Vec::new();
    }
    let covered = coalesce_writes(addrs, elem_bytes);
    let mut full: Vec<_> = covered
        .iter()
        .filter(|&&(_, f)| f)
        .map(|&(a, _)| a)
        .collect();
    let mut partial: Vec<_> = covered
        .iter()
        .filter(|&&(_, f)| !f)
        .map(|&(a, _)| a)
        .collect();
    // The trace keeps these lists for the whole run.
    full.shrink_to_fit();
    partial.shrink_to_fit();
    let mut ops = Vec::new();
    if !full.is_empty() {
        ops.push(WarpOp::Store {
            atoms: full,
            full: true,
        });
    }
    if !partial.is_empty() {
        ops.push(WarpOp::Store {
            atoms: partial,
            full: false,
        });
    }
    ops
}

/// Builds a gather load from arbitrary per-thread element indices.
pub fn gather_load(arr: &ArrayRef, indices: &[u64]) -> Option<WarpOp> {
    let addrs: Vec<u64> = indices
        .iter()
        .filter(|&&i| i < arr.len())
        .map(|&i| arr.elem(i))
        .collect();
    if addrs.is_empty() {
        None
    } else {
        Some(WarpOp::Load {
            atoms: coalesce(&addrs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_sim::types::LogicalAtom;

    #[test]
    fn layouter_aligns_to_lines() {
        let mut l = Layouter::new();
        let a = l.array(10, 4); // 40 bytes
        let b = l.array(100, 4);
        assert_eq!(a.elem(0), 0);
        assert_eq!(b.elem(0) % 128, 0);
        assert!(b.elem(0) >= 40);
        assert_eq!(l.total_bytes() % 128, 0);
    }

    #[test]
    fn array_accessors() {
        let mut l = Layouter::new();
        let a = l.array(64, 4);
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
        assert_eq!(a.atoms(), 8);
        assert_eq!(a.elem(1) - a.elem(0), 4);
    }

    #[test]
    fn warp_load_unit_stride_is_four_atoms() {
        let mut l = Layouter::new();
        let a = l.array(1024, 4);
        let op = warp_load(&a, 0).unwrap();
        assert_eq!(op.access_count(), 4);
        match op {
            WarpOp::Load { atoms } => assert_eq!(atoms[0], LogicalAtom(0)),
            _ => panic!("not a load"),
        }
    }

    #[test]
    fn warp_load_past_end_is_none() {
        let mut l = Layouter::new();
        let a = l.array(16, 4);
        assert!(warp_load(&a, 16).is_none());
        // Partially in-bounds warp loads only the live lanes.
        let op = warp_load(&a, 8).unwrap();
        assert_eq!(op.access_count(), 1);
    }

    #[test]
    fn warp_store_full_coverage() {
        let mut l = Layouter::new();
        let a = l.array(1024, 4);
        let ops = warp_store(&a, 0);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            WarpOp::Store { atoms, full } => {
                assert_eq!(atoms.len(), 4);
                assert!(*full);
            }
            _ => panic!("not a store"),
        }
    }

    #[test]
    fn tail_store_is_partial() {
        let mut l = Layouter::new();
        // 38 elements: the tail warp writes 6 elems = 24 B of the last atom.
        let a = l.array(38, 4);
        let ops = warp_store(&a, 32);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            WarpOp::Store { full, .. } => assert!(!*full),
            _ => panic!("not a store"),
        }
    }

    #[test]
    fn gather_load_dedups_atoms() {
        let mut l = Layouter::new();
        let a = l.array(1024, 4);
        let op = gather_load(&a, &[0, 1, 2, 800, 0]).unwrap();
        // Elements 0,1,2 share atom 0; 800 is its own atom.
        assert_eq!(op.access_count(), 2);
    }

    #[test]
    fn empty_inputs_produce_no_ops() {
        let mut l = Layouter::new();
        let a = l.array(8, 4);
        assert!(gather_load(&a, &[]).is_none());
        assert!(store_from_addrs(&[], 4).is_empty());
    }
}
