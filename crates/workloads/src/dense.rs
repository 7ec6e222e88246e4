//! Dense-compute kernels: `gemm`, `stencil2d`, `conv2d`, `transpose`.
//!
//! Stand-ins for tiled matrix multiply (sgemm), hotspot-style stencils,
//! convolution layers, and the classic strided-write transpose. These
//! kernels exercise cache reuse (gemm tiles, stencil halos) and — for
//! transpose — the pathological partial-sector write pattern that makes
//! inline-ECC read-modify-writes expensive.

use crate::common::{gather_load, per_warp, warp_load, warp_store, Lanes, Layouter, WARP_THREADS};
use crate::SizeClass;
use ccraft_sim::trace::{KernelTrace, WarpOp};

/// Tiled dense matrix multiply `C = A x B` (square `n x n`, f32).
///
/// Each warp owns a 32-column strip of one C-tile row and walks the shared
/// K dimension in 32-wide tiles: loads of the A strip are private, loads of
/// the B tile are shared across the warps of a tile group (hitting in
/// L1/L2), and each tile step costs a block of compute.
pub fn gemm(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let _ = mult;
    // n chosen so the matrices exceed the L2 while keeping the trace
    // within a few hundred thousand accesses.
    let n: u64 = match size {
        SizeClass::Tiny => 128,
        SizeClass::Small => 256,
        SizeClass::Full => 384,
    };
    let mut l = Layouter::new();
    let a = l.array(n * n, 4);
    let b = l.array(n * n, 4);
    let c = l.array(n * n, 4);
    let tiles = n / WARP_THREADS;
    per_warp("gemm", warps, |w, wid| {
        // Warp wid handles C rows wid, wid+warps, ... one row-strip at a time.
        let mut row = wid;
        while row < n {
            for jt in 0..tiles {
                // C[row, jt*32 .. jt*32+32)
                for kt in 0..tiles {
                    // A[row, kt*32..): 32 consecutive elements.
                    warp_load(w, &a, row * n + kt * WARP_THREADS);
                    // B[kt*32 + lane, jt*32..): the tile rows; model the
                    // per-step B access as one row of the B tile
                    // (shared across warps computing the same jt).
                    warp_load(
                        w,
                        &b,
                        (kt * WARP_THREADS + row % WARP_THREADS) * n + jt * WARP_THREADS,
                    );
                    w.push(WarpOp::Compute { cycles: 24 });
                }
                warp_store(w, &c, row * n + jt * WARP_THREADS);
            }
            row += warps;
        }
    })
}

/// 5-point 2D stencil (hotspot-like) over an `h x w` grid, one output row
/// segment per warp step; vertical neighbours give cross-warp reuse.
pub fn stencil2d(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let w_dim: u64 = 1024;
    let h_dim: u64 = 64 * mult;
    let mut l = Layouter::new();
    let src = l.array(h_dim * w_dim, 4);
    let dst = l.array(h_dim * w_dim, 4);
    per_warp("stencil2d", warps, |w, wid| {
        let mut row = wid + 1;
        while row + 1 < h_dim {
            let mut col = 0;
            while col < w_dim {
                let i = row * w_dim + col;
                warp_load(w, &src, i); // center (covers E/W too)
                warp_load(w, &src, i - w_dim); // north
                warp_load(w, &src, i + w_dim); // south
                w.push(WarpOp::Compute { cycles: 6 });
                warp_store(w, &dst, i);
                col += WARP_THREADS;
            }
            row += warps;
        }
    })
}

/// 3x3 convolution over an `h x w` single-channel image: sliding-window
/// loads with heavy horizontal overlap (cache-friendly), dense stores.
pub fn conv2d(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let w_dim: u64 = 512;
    let h_dim: u64 = 96 * mult;
    let mut l = Layouter::new();
    let src = l.array(h_dim * w_dim, 4);
    let dst = l.array(h_dim * w_dim, 4);
    per_warp("conv2d", warps, |w, wid| {
        let mut row = wid + 1;
        while row + 1 < h_dim {
            let mut col = 0;
            while col < w_dim {
                let i = row * w_dim + col;
                // Three rows of the window; horizontal taps fall in the
                // same atoms as the row loads.
                warp_load(w, &src, i - w_dim);
                warp_load(w, &src, i);
                warp_load(w, &src, i + w_dim);
                w.push(WarpOp::Compute { cycles: 18 });
                warp_store(w, &dst, i);
                col += WARP_THREADS;
            }
            row += warps;
        }
    })
}

/// Matrix transpose `B = A^T` (`n x n`, f32): coalesced row reads, strided
/// column writes — every store touches 32 distinct atoms partially,
/// maximizing fetch-on-write and ECC read-modify-write traffic.
pub fn transpose(size: SizeClass, _seed: u64) -> KernelTrace {
    let (warps, _mult) = size.scale();
    let n: u64 = match size {
        SizeClass::Tiny => 128,
        SizeClass::Small => 512,
        SizeClass::Full => 768,
    };
    let mut l = Layouter::new();
    let a = l.array(n * n, 4);
    let b = l.array(n * n, 4);
    per_warp("transpose", warps, |w, wid| {
        let mut row = wid;
        while row < n {
            let mut col = 0;
            while col < n {
                warp_load(w, &a, row * n + col);
                w.push(WarpOp::Compute { cycles: 1 });
                // Lane t writes B[col + t, row]: stride-n scatter.
                let addrs: Lanes = (0..WARP_THREADS)
                    .filter(|t| col + t < n)
                    .map(|t| b.elem((col + t) * n + row))
                    .collect();
                w.store(&addrs, 4);
                col += WARP_THREADS;
            }
            row += warps;
        }
    })
}

/// K-means distance phase: stream points, gather a small centroid table
/// (cache-resident), write assignments — mixed streaming/gather.
pub fn kmeans(size: SizeClass, seed: u64) -> KernelTrace {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let (warps, mult) = size.scale();
    let points: u64 = 16_384 * mult;
    let k: u64 = 64;
    let dims: u64 = 8;
    let mut l = Layouter::new();
    // Structure-of-arrays layout: feature d of point p at d*points + p,
    // so per-dimension warp reads are unit stride.
    let data = l.array(points * dims, 4);
    let centroids = l.array(k * dims, 4);
    let assign = l.array(points, 4);
    per_warp("kmeans", warps, |w, wid| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (wid + 1));
        let mut p = wid * WARP_THREADS;
        while p < points {
            // Each lane streams its point's features (SoA layout).
            for d in 0..dims {
                gather_load(
                    w,
                    &data,
                    (0..WARP_THREADS)
                        .filter(|t| p + t < points)
                        .map(|t| d * points + p + t),
                );
            }
            // Probe a few random centroids (hot, cache resident).
            for _ in 0..4 {
                let c = rng.gen_range(0..k);
                warp_load(w, &centroids, c * dims);
            }
            w.push(WarpOp::Compute { cycles: 40 });
            warp_store(w, &assign, p);
            p += warps * WARP_THREADS;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_has_reuse() {
        let t = gemm(SizeClass::Tiny, 0);
        // Total accesses far exceed the footprint: tiles are re-read.
        assert!(t.total_accesses() > 2 * t.footprint_atoms());
        assert!(t.memory_intensity() < 3.0, "gemm must carry compute");
    }

    #[test]
    fn stencil_touches_whole_grid() {
        let t = stencil2d(SizeClass::Tiny, 0);
        let grid_atoms = 64 * 1024 * 4 / 32;
        // src + dst minus untouched border rows.
        assert!(t.footprint_atoms() > grid_atoms);
        assert!(t.footprint_atoms() <= 2 * grid_atoms);
    }

    #[test]
    fn transpose_writes_are_partial_scatter() {
        let t = transpose(SizeClass::Tiny, 0);
        let mut partial_atoms = 0u64;
        let mut full_atoms = 0u64;
        for w in t.warps() {
            for op in w.ops() {
                if let ccraft_sim::trace::WarpOp::Store { atoms, full } = op {
                    if full {
                        full_atoms += atoms.len() as u64;
                    } else {
                        partial_atoms += atoms.len() as u64;
                    }
                }
            }
        }
        assert!(
            partial_atoms > 10 * full_atoms.max(1),
            "transpose writes must scatter"
        );
    }

    #[test]
    fn conv_is_cache_friendly() {
        let t = conv2d(SizeClass::Tiny, 0);
        // 3 rows loaded per output row: accesses ~ 3x + stores ~ 1x of the
        // interior; row overlap means footprint << accesses.
        assert!(t.total_accesses() >= 3 * t.footprint_atoms() / 2);
    }

    #[test]
    fn kmeans_deterministic_per_seed() {
        let a = kmeans(SizeClass::Tiny, 42);
        let b = kmeans(SizeClass::Tiny, 42);
        assert_eq!(a, b);
        let c = kmeans(SizeClass::Tiny, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn all_dense_kernels_nonempty() {
        for t in [
            gemm(SizeClass::Tiny, 0),
            stencil2d(SizeClass::Tiny, 0),
            conv2d(SizeClass::Tiny, 0),
            transpose(SizeClass::Tiny, 0),
            kmeans(SizeClass::Tiny, 0),
        ] {
            assert!(t.total_ops() > 100, "{} too small", t.name());
            assert!(t.footprint_atoms() > 0);
        }
    }
}
