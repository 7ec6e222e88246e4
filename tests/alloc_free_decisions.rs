//! Two hot paths whose allocations are counted:
//!
//! * Protection decisions allocate nothing: a scheme's call returns a
//!   `Copy` decision and buffered ECC writes drain into a buffer the L2
//!   slice reuses, so a protected run allocates about as often as an
//!   unprotected one.
//! * Trace generation allocates per warp, not per op: generators coalesce
//!   each op's lanes from a stack buffer straight into the warp's atom
//!   arena, so a stored warp costs two exactly sized vectors.
//!
//! A counting global allocator counts the allocations made by the calling
//! thread alone, so the two tests may run in parallel: each counts only
//! inside the call it measures (`simulate`, with the trace and the scheme
//! built before counting starts, or `Workload::generate`).

use cachecraft::schemes::factory::SchemeKind;
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::{simulate, Observe};
use cachecraft::workloads::{SizeClass, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are being torn
    // down, after anything this test measures.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A protected scheme may allocate at most this many times what ECC-off
/// allocates on the same cell. Measured on `vecadd`, tiny, seed 1, on
/// `GpuConfig::tiny()`: ECC-off makes 163 allocations inside
/// `simulate`; inline-naive, ecc-cache and CacheCraft make 157, 198 and
/// 202 (0.96, 1.21 and 1.24 times ECC-off). What is left above ECC-off
/// is the on-chip ECC stores' growth, not the decisions. When a cache
/// eviction listed its dirty atoms in a `Vec`, the four made 2,130,
/// 2,121, 2,806 and 2,421; when each decision and each drain also
/// returned a `Vec`, the three protected schemes made 34,889, 6,826 and
/// 6,271 (16.4, 3.2 and 2.9 times).
const MAX_RATIO_TO_ECC_OFF: f64 = 1.5;

#[test]
fn protection_decisions_do_not_allocate() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::VecAdd.generate(SizeClass::Tiny, 1);
    let counts: Vec<(&str, u64)> = SchemeKind::headline(&cfg)
        .into_iter()
        .map(|kind| {
            let mut scheme = kind.build(&cfg);
            let before = ALLOCS.with(Cell::get);
            let out = simulate(&cfg, &trace, scheme.as_mut(), &Observe::default());
            let allocs = ALLOCS.with(Cell::get) - before;
            assert!(!out.stats.timed_out, "{}: timed out", kind.name());
            (kind.name(), allocs)
        })
        .collect();
    println!("allocations inside simulate: {counts:?}");
    let (off_name, off) = counts[0];
    assert_eq!(off_name, "no-protection");
    for &(name, allocs) in &counts[1..] {
        assert!(
            allocs as f64 <= off as f64 * MAX_RATIO_TO_ECC_OFF,
            "{name}: {allocs} allocations inside simulate, more than \
             {MAX_RATIO_TO_ECC_OFF} x ECC-off's {off}"
        );
    }
}

/// Most allocations `Workload::generate` may make per warp. A stored
/// warp is two exactly sized vectors, its ops and its atom arena, copied
/// out of one builder that every warp of the kernel reuses: 145 to 150
/// allocations for the 64 warps at small size, builder growth included.
/// A warp has 79 to 800 ops at small size, so one allocation per op
/// fails this. When every memory op owned its own atom `Vec`, generation
/// made 314 to 3,177 allocations per warp at small size.
const MAX_ALLOCS_PER_WARP: u64 = 8;

#[test]
fn trace_generation_allocates_per_warp_not_per_op() {
    for workload in Workload::ALL {
        let before = ALLOCS.with(Cell::get);
        let trace = workload.generate(SizeClass::Small, 1);
        let allocs = ALLOCS.with(Cell::get) - before;
        let warps = trace.warps().len() as u64;
        println!(
            "{workload}: {allocs} allocations for {warps} warps and {} ops",
            trace.total_ops()
        );
        assert!(
            allocs <= MAX_ALLOCS_PER_WARP * warps,
            "{workload}: {allocs} allocations for {warps} warps, more than \
             {MAX_ALLOCS_PER_WARP} per warp"
        );
    }
}
