//! Streaming kernels: `vecadd`, `triad`, `saxpy`, `reduction`.
//!
//! Stand-ins for the bandwidth-bound kernels of GPU benchmark suites
//! (STREAM, vectorAdd, saxpy from cuBLAS-style codes, tree reductions).
//! Unit-stride grid-stride loops: perfect coalescing, near-zero reuse —
//! DRAM bandwidth and, under inline ECC, ECC-fetch amortization dominate.

use crate::common::{per_warp, warp_load, warp_store, Layouter, WARP_THREADS};
use crate::SizeClass;
use ccraft_sim::trace::{KernelTrace, WarpOp, WarpTrace};

fn grid_stride<F>(name: &str, warps: u64, elems: u64, mut body: F) -> KernelTrace
where
    F: FnMut(&mut WarpTrace, u64),
{
    per_warp(name, warps, |w, wid| {
        let mut start = wid * WARP_THREADS;
        while start < elems {
            body(w, start);
            start += warps * WARP_THREADS;
        }
    })
}

/// `C[i] = A[i] + B[i]` — two streaming loads, one streaming store.
pub fn vecadd(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let elems = 65_536 * mult;
    let mut l = Layouter::new();
    let a = l.array(elems, 4);
    let b = l.array(elems, 4);
    let c = l.array(elems, 4);
    grid_stride("vecadd", warps, elems, |w, start| {
        warp_load(w, &a, start);
        warp_load(w, &b, start);
        w.push(WarpOp::Compute { cycles: 2 });
        warp_store(w, &c, start);
    })
}

/// STREAM triad: `A[i] = B[i] + s * C[i]`.
pub fn triad(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let elems = 65_536 * mult;
    let mut l = Layouter::new();
    let a = l.array(elems, 4);
    let b = l.array(elems, 4);
    let c = l.array(elems, 4);
    grid_stride("triad", warps, elems, |w, start| {
        warp_load(w, &b, start);
        warp_load(w, &c, start);
        w.push(WarpOp::Compute { cycles: 4 });
        warp_store(w, &a, start);
    })
}

/// `Y[i] = a * X[i] + Y[i]` — read-modify-write of Y.
pub fn saxpy(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let elems = 65_536 * mult;
    let mut l = Layouter::new();
    let x = l.array(elems, 4);
    let y = l.array(elems, 4);
    grid_stride("saxpy", warps, elems, |w, start| {
        warp_load(w, &x, start);
        warp_load(w, &y, start);
        w.push(WarpOp::Compute { cycles: 2 });
        warp_store(w, &y, start);
    })
}

/// Tree reduction: log passes over a shrinking array, streaming loads with
/// one store per pair of loads; later passes fit in cache.
pub fn reduction(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let elems = 65_536 * mult;
    let mut l = Layouter::new();
    let data = l.array(elems, 4);
    per_warp("reduction", warps, |w, wid| {
        let mut n = elems;
        // Each pass halves the live prefix; stop when it gets tiny.
        while n >= WARP_THREADS * 2 {
            let half = n / 2;
            let mut start = wid * WARP_THREADS;
            while start < half {
                warp_load(w, &data, start);
                warp_load(w, &data, half + start);
                w.push(WarpOp::Compute { cycles: 2 });
                warp_store(w, &data, start);
                start += warps * WARP_THREADS;
            }
            n = half;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecadd_shape() {
        let t = vecadd(SizeClass::Tiny, 0);
        assert_eq!(t.name(), "vecadd");
        assert!(t.total_ops() > 0);
        // Footprint: 3 arrays x 64 Ki elems x 4 B = 768 KiB = 24576 atoms.
        assert_eq!(t.footprint_atoms(), 3 * 65_536 * 4 / 32);
        // Reads:writes = 2:1.
        assert!((t.write_fraction() - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn triad_and_saxpy_shapes() {
        let t = triad(SizeClass::Tiny, 0);
        assert_eq!(t.footprint_atoms(), 3 * 65_536 * 4 / 32);
        let s = saxpy(SizeClass::Tiny, 0);
        assert_eq!(s.footprint_atoms(), 2 * 65_536 * 4 / 32);
    }

    #[test]
    fn every_atom_touched_exactly_once_per_array_pass() {
        // In vecadd each of A,B is loaded once and C stored once; total
        // accesses = footprint.
        let t = vecadd(SizeClass::Tiny, 0);
        assert_eq!(t.total_accesses(), t.footprint_atoms());
    }

    #[test]
    fn reduction_shrinks() {
        let t = reduction(SizeClass::Tiny, 0);
        // More accesses than one pass, fewer than three full passes
        // (sum of halving passes -> ~2x one pass of loads + stores).
        let one_pass_atoms = 65_536 * 4 / 32;
        assert!(t.total_accesses() > one_pass_atoms);
        assert!(t.total_accesses() < 4 * one_pass_atoms);
    }

    #[test]
    fn deterministic() {
        assert_eq!(vecadd(SizeClass::Tiny, 1), vecadd(SizeClass::Tiny, 2));
        assert_eq!(reduction(SizeClass::Tiny, 7), reduction(SizeClass::Tiny, 7));
    }

    #[test]
    fn warps_scale_with_size() {
        let tiny = vecadd(SizeClass::Tiny, 0);
        let small = vecadd(SizeClass::Small, 0);
        assert!(small.warps().len() > tiny.warps().len());
        assert!(small.footprint_atoms() > tiny.footprint_atoms());
    }
}
