//! Irregular kernels: `spmv`, `bfs`, `histogram`, `montecarlo`.
//!
//! Stand-ins for sparse linear algebra (CSR SpMV), graph traversal,
//! binning/atomics codes, and table-lookup Monte Carlo. Low spatial
//! locality means each fetched ECC atom amortizes over few data atoms —
//! the regime where inline-ECC overheads are largest and on-chip ECC reach
//! matters most.

use crate::common::{gather_load, per_warp, warp_load, warp_store, Lanes, Layouter, WARP_THREADS};
use crate::SizeClass;
use ccraft_sim::trace::{KernelTrace, WarpOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// CSR sparse matrix-vector multiply `y = A x`: streaming row pointers and
/// column indices, random gathers into the dense vector `x`.
pub fn spmv(size: SizeClass, seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let rows: u64 = 4_096 * mult;
    let nnz_per_row: u64 = 8;
    let mut l = Layouter::new();
    let row_ptr = l.array(rows + 1, 4);
    let col_idx = l.array(rows * nnz_per_row, 4);
    let vals = l.array(rows * nnz_per_row, 4);
    let x = l.array(rows, 4);
    let y = l.array(rows, 4);
    per_warp("spmv", warps, |w, wid| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (0x5b0a_0000 + wid));
        let mut r = wid * WARP_THREADS;
        while r < rows {
            // One row per lane: row_ptr loads are unit stride.
            warp_load(w, &row_ptr, r);
            // Walk the nonzeros: indices and values stream; x gathers
            // are random (band-limited to model some structure).
            for k in 0..nnz_per_row {
                warp_load(w, &col_idx, r * nnz_per_row + k * WARP_THREADS);
                warp_load(w, &vals, r * nnz_per_row + k * WARP_THREADS);
                let gathers = (0..WARP_THREADS).map(|_| rng.gen_range(0..rows));
                gather_load(w, &x, gathers);
                w.push(WarpOp::Compute { cycles: 4 });
            }
            warp_store(w, &y, r);
            r += warps * WARP_THREADS;
        }
    })
}

/// Level-synchronous BFS: stream the frontier, chase random adjacency
/// lists, scatter partial updates into the visited/next arrays.
pub fn bfs(size: SizeClass, seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let nodes: u64 = 16_384 * mult;
    let degree: u64 = 8;
    let mut l = Layouter::new();
    let adj = l.array(nodes * degree, 4);
    let dist = l.array(nodes, 4);
    let frontier = l.array(nodes, 4);
    let levels = 4u64;
    per_warp("bfs", warps, |w, wid| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (0xbf50_0000 + wid));
        for level in 0..levels {
            // Each level visits a slice of the frontier.
            let span = nodes / (levels * warps * WARP_THREADS).max(1);
            for i in 0..span.max(1) {
                let base = (wid * WARP_THREADS + level * nodes / levels + i * warps * WARP_THREADS)
                    % nodes;
                warp_load(w, &frontier, base);
                // Chase each lane's adjacency run (random node).
                let node: u64 = rng.gen_range(0..nodes);
                warp_load(w, &adj, (node * degree) % (nodes * degree - WARP_THREADS));
                // Check distances of 32 random neighbours.
                let probes = (0..WARP_THREADS).map(|_| rng.gen_range(0..nodes));
                gather_load(w, &dist, probes);
                w.push(WarpOp::Compute { cycles: 3 });
                // Scatter updates for a random subset of lanes.
                let updates: Lanes = (0..WARP_THREADS)
                    .filter_map(|_| {
                        if rng.gen_bool(0.25) {
                            Some(dist.elem(rng.gen_range(0..nodes)))
                        } else {
                            None
                        }
                    })
                    .collect();
                w.store(&updates, 4);
            }
        }
    })
}

/// Histogram: stream a large input, scatter partial stores into a small
/// hot bin table (stays cache-resident and dirty — a write-coalescing
/// showcase).
pub fn histogram(size: SizeClass, seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let elems: u64 = 32_768 * mult;
    let bins: u64 = 4096;
    let mut l = Layouter::new();
    let input = l.array(elems, 4);
    let table = l.array(bins, 4);
    per_warp("histogram", warps, |w, wid| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (0x4157_0000 + wid));
        let mut p = wid * WARP_THREADS;
        while p < elems {
            warp_load(w, &input, p);
            w.push(WarpOp::Compute { cycles: 2 });
            // Zipfian-ish binning: most updates hit a hot subset.
            let updates: Lanes = (0..WARP_THREADS)
                .map(|_| {
                    let hot = rng.gen_bool(0.8);
                    let b = if hot {
                        rng.gen_range(0..bins / 16)
                    } else {
                        rng.gen_range(0..bins)
                    };
                    table.elem(b)
                })
                .collect();
            w.store(&updates, 4);
            p += warps * WARP_THREADS;
        }
    })
}

/// Monte Carlo option pricing style kernel: heavy compute per step with
/// random table lookups; latency-bound rather than bandwidth-bound.
pub fn montecarlo(size: SizeClass, seed: u64) -> KernelTrace {
    let (warps, mult) = size.scale();
    let paths_per_warp: u64 = 2 * mult;
    let table_elems: u64 = 1 << 20; // 4 MiB lookup table
    let mut l = Layouter::new();
    let table = l.array(table_elems, 4);
    let out = l.array(warps * paths_per_warp, 4);
    per_warp("montecarlo", warps, |w, wid| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (0x3c40_0000 + wid));
        for p in 0..paths_per_warp {
            // Each path: several steps of compute + a random gather.
            for _ in 0..4 {
                w.push(WarpOp::Compute { cycles: 60 });
                // Half-warp-wide random table probes.
                let probes = (0..WARP_THREADS / 2).map(|_| rng.gen_range(0..table_elems));
                gather_load(w, &table, probes);
            }
            warp_store(w, &out, wid * paths_per_warp + p);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_mixes_stream_and_gather() {
        let t = spmv(SizeClass::Tiny, 1);
        assert!(t.total_ops() > 500);
        // Gathers make accesses >> ops * 4-atom streams would suggest.
        assert!(t.memory_intensity() > 5.0);
        assert!(t.write_fraction() < 0.1);
    }

    #[test]
    fn bfs_is_scattered() {
        let t = bfs(SizeClass::Tiny, 1);
        assert!(t.total_ops() > 100);
        assert!(t.memory_intensity() > 6.0, "{}", t.memory_intensity());
    }

    #[test]
    fn histogram_writes_concentrate() {
        let t = histogram(SizeClass::Tiny, 1);
        // Bin table (4096 elems = 512 atoms) plus input footprint.
        let input_atoms = 131_072 * 4 / 32;
        assert!(t.footprint_atoms() <= input_atoms + 512 + 16);
        assert!(t.write_fraction() > 0.3, "{}", t.write_fraction());
    }

    #[test]
    fn montecarlo_is_compute_heavy() {
        let t = montecarlo(SizeClass::Tiny, 1);
        // Lots of Compute ops: intensity low-ish but gathers are wide.
        let compute_ops = t.total_ops()
            - t.warps()
                .iter()
                .flat_map(|w| w.ops())
                .filter(|o| o.is_memory())
                .count() as u64;
        assert!(compute_ops > t.total_ops() / 4);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(spmv(SizeClass::Tiny, 9), spmv(SizeClass::Tiny, 9));
        assert_eq!(bfs(SizeClass::Tiny, 9), bfs(SizeClass::Tiny, 9));
        assert_eq!(histogram(SizeClass::Tiny, 9), histogram(SizeClass::Tiny, 9));
        assert_eq!(
            montecarlo(SizeClass::Tiny, 9),
            montecarlo(SizeClass::Tiny, 9)
        );
        assert_ne!(spmv(SizeClass::Tiny, 9), spmv(SizeClass::Tiny, 10));
    }

    #[test]
    fn all_irregular_kernels_nonempty() {
        for t in [
            spmv(SizeClass::Tiny, 0),
            bfs(SizeClass::Tiny, 0),
            histogram(SizeClass::Tiny, 0),
            montecarlo(SizeClass::Tiny, 0),
        ] {
            assert!(t.total_accesses() > 0, "{} empty", t.name());
        }
    }
}
