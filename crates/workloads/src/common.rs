//! Shared building blocks for workload generators.

use ccraft_sim::coalesce::WARP_LANES;
use ccraft_sim::trace::{KernelTrace, WarpTrace};
use ccraft_sim::types::ATOM_BYTES;
use std::ops::Deref;

/// Threads per warp (fixed by the SIMT model).
pub const WARP_THREADS: u64 = WARP_LANES as u64;

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

/// Builds a kernel of `warps` warps, calling `body` with an empty warp
/// and its index for each. All warps are built in one reused builder, so
/// each stored warp is allocated once at its final size (see
/// [`WarpTrace::take`]).
pub fn per_warp(name: &str, warps: u64, mut body: impl FnMut(&mut WarpTrace, u64)) -> KernelTrace {
    let mut builder = WarpTrace::default();
    let traces = (0..warps)
        .map(|wid| {
            body(&mut builder, wid);
            builder.take()
        })
        .collect();
    KernelTrace::new(name, traces)
}

/// One warp's per-lane byte addresses, collected on the stack so that
/// building a warp op allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Lanes {
    addrs: [u64; WARP_LANES],
    len: usize,
}

impl FromIterator<u64> for Lanes {
    /// # Panics
    ///
    /// Panics past [`WARP_LANES`] addresses.
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut lanes = Lanes {
            addrs: [0; WARP_LANES],
            len: 0,
        };
        for addr in iter {
            assert!(lanes.len < WARP_LANES, "more than {WARP_LANES} lanes");
            lanes.addrs[lanes.len] = addr;
            lanes.len += 1;
        }
        lanes
    }
}

impl Deref for Lanes {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.addrs[..self.len]
    }
}

impl ArrayRef {
    /// Addresses of the `WARP_THREADS` consecutive elements from `start`;
    /// lanes beyond the array are inactive.
    fn lanes(&self, start: u64) -> Lanes {
        (start..start + WARP_THREADS)
            .take_while(|&i| i < self.len())
            .map(|i| self.elem(i))
            .collect()
    }
}

/// Appends a coalesced warp load of `WARP_THREADS` consecutive elements of
/// `arr` starting at element `start` (lanes beyond the array are
/// inactive; nothing when none is live).
pub fn warp_load(warp: &mut WarpTrace, arr: &ArrayRef, start: u64) {
    warp.load(&arr.lanes(start));
}

/// Appends a coalesced warp store of consecutive elements, one `Store`
/// per coverage class that occurs (see [`WarpTrace::store`]).
pub fn warp_store(warp: &mut WarpTrace, arr: &ArrayRef, start: u64) {
    warp.store(&arr.lanes(start), arr.elem_bytes as u32);
}

/// Appends a gather load from per-lane element indices (at most one per
/// lane); indices past the array are inactive lanes.
pub fn gather_load(warp: &mut WarpTrace, arr: &ArrayRef, indices: impl IntoIterator<Item = u64>) {
    let addrs: Lanes = indices
        .into_iter()
        .filter(|&i| i < arr.len())
        .map(|i| arr.elem(i))
        .collect();
    warp.load(&addrs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_sim::trace::WarpOp;
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

    /// The ops of a warp built by `build`.
    fn built(build: impl FnOnce(&mut WarpTrace)) -> Vec<(usize, Option<bool>)> {
        let mut warp = WarpTrace::default();
        build(&mut warp);
        warp.ops()
            .map(|op| match op {
                WarpOp::Compute { .. } => (0, None),
                WarpOp::Load { atoms } => (atoms.len(), None),
                WarpOp::Store { atoms, full } => (atoms.len(), Some(full)),
            })
            .collect()
    }

    #[test]
    fn warp_load_unit_stride_is_four_atoms() {
        let mut l = Layouter::new();
        let a = l.array(1024, 4);
        let mut warp = WarpTrace::default();
        warp_load(&mut warp, &a, 0);
        let op = warp.ops().next();
        match op {
            Some(WarpOp::Load { atoms }) => assert_eq!(atoms, [0, 1, 2, 3].map(LogicalAtom)),
            op => panic!("not a load: {op:?}"),
        }
    }

    #[test]
    fn warp_load_past_end_is_none() {
        let mut l = Layouter::new();
        let a = l.array(16, 4);
        assert_eq!(built(|w| warp_load(w, &a, 16)), []);
        // Partially in-bounds warp loads only the live lanes.
        assert_eq!(built(|w| warp_load(w, &a, 8)), [(1, None)]);
    }

    #[test]
    fn warp_store_full_coverage() {
        let mut l = Layouter::new();
        let a = l.array(1024, 4);
        assert_eq!(built(|w| warp_store(w, &a, 0)), [(4, Some(true))]);
    }

    #[test]
    fn tail_store_is_partial() {
        let mut l = Layouter::new();
        // 38 elements: the tail warp writes 6 elems = 24 B of the last atom.
        let a = l.array(38, 4);
        assert_eq!(built(|w| warp_store(w, &a, 32)), [(1, Some(false))]);
    }

    #[test]
    fn gather_load_dedups_atoms() {
        let mut l = Layouter::new();
        let a = l.array(1024, 4);
        // Elements 0,1,2 share atom 0; 800 is its own atom; 5000 is past
        // the array.
        let ops = built(|w| gather_load(w, &a, [0, 1, 2, 800, 0, 5000]));
        assert_eq!(ops, [(2, None)]);
    }

    #[test]
    fn empty_inputs_produce_no_ops() {
        let mut l = Layouter::new();
        let a = l.array(8, 4);
        assert_eq!(built(|w| gather_load(w, &a, [])), []);
        assert_eq!(built(|w| w.store(&[], 4)), []);
    }

    #[test]
    fn lanes_hold_one_warp() {
        let lanes: Lanes = (0..WARP_THREADS).collect();
        assert_eq!(lanes.len(), WARP_LANES);
        assert_eq!(lanes[31], 31);
    }

    #[test]
    #[should_panic(expected = "more than 32 lanes")]
    fn lanes_reject_a_33rd_address() {
        let _: Lanes = (0..=WARP_THREADS).collect();
    }
}
