//! Kernel traces: the workload representation the simulator replays.
//!
//! The simulator is *trace-driven*: instead of executing an ISA, each warp
//! replays a pre-generated sequence of [`WarpOp`]s — memory instructions
//! (already coalesced into 32-byte atoms) interleaved with compute delays.
//! This is the standard methodology for memory-system studies: it preserves
//! the access pattern, concurrency, and arithmetic intensity that
//! memory-hierarchy conclusions depend on, without modelling a pipeline.
//!
//! Traces address memory in the [`LogicalAtom`] space; the protection
//! scheme maps atoms to physical locations at L1-miss time.
//!
//! A [`WarpTrace`] stores its ops flat: one `Vec` of 8-byte ops and one
//! atom arena holding every memory op's atoms back to back, so a trace
//! costs its payload and makes no allocation per op. [`WarpOp`] is the
//! borrowed view of one op that builders push and readers match on.
//! Generators append per-lane addresses with [`WarpTrace::load`] and
//! [`WarpTrace::store`], which coalesce straight into the arena.
//!
//! # Examples
//!
//! ```
//! use ccraft_sim::trace::{KernelTrace, WarpOp, WarpTrace};
//! use ccraft_sim::types::LogicalAtom;
//!
//! let mut warp = WarpTrace::new([
//!     WarpOp::Load { atoms: &[LogicalAtom(0), LogicalAtom(1)] },
//!     WarpOp::Compute { cycles: 10 },
//! ]);
//! // 8 lanes x 4 B cover atom 0 fully.
//! let lanes: Vec<u64> = (0..8).map(|t| 4 * t).collect();
//! warp.store(&lanes, 4);
//! assert_eq!(
//!     warp.ops().last(),
//!     Some(WarpOp::Store { atoms: &[LogicalAtom(0)], full: true })
//! );
//! let trace = KernelTrace::new("example", vec![warp]);
//! assert_eq!(trace.total_ops(), 3);
//! assert_eq!(trace.footprint_atoms(), 2);
//! ```

use crate::coalesce::{coalesce_into, coalesce_writes_into};
use crate::types::LogicalAtom;
use std::fmt;

/// One operation in a warp's instruction stream, borrowing its atoms from
/// the trace that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp<'a> {
    /// Non-memory work: the warp is unavailable for `cycles` after issue.
    Compute {
        /// Busy time in cycles.
        cycles: u32,
    },
    /// A coalesced load touching the given atoms. The warp blocks until
    /// every atom's data has returned.
    Load {
        /// Unique atoms accessed by the 32 threads after coalescing.
        atoms: &'a [LogicalAtom],
    },
    /// A coalesced store. The warp does not wait for completion
    /// (write-through L1, posted writes), but the accesses consume
    /// load/store-unit and queue bandwidth.
    Store {
        /// Unique atoms written.
        atoms: &'a [LogicalAtom],
        /// Whether every atom is fully overwritten (no fetch-on-write).
        full: bool,
    },
}

impl WarpOp<'_> {
    /// `true` for loads and stores.
    pub fn is_memory(&self) -> bool {
        !matches!(self, WarpOp::Compute { .. })
    }
}

/// How a [`WarpTrace`] stores one op: a memory op names its atoms as the
/// range `start..start + len` of the warp's atom arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackedOp {
    Compute { cycles: u32 },
    Load { start: u32, len: u16 },
    Store { start: u32, len: u16, full: bool },
}

const _: () = assert!(std::mem::size_of::<PackedOp>() == 8);

impl PackedOp {
    /// The op as a view into `atoms`, its warp's arena.
    #[inline]
    pub(crate) fn view(self, atoms: &[LogicalAtom]) -> WarpOp<'_> {
        let range = |start: u32, len: u16| {
            // lint: allow(panic-freedom) reason=WarpTrace records an op only after appending its atoms, and its ops and arena are private and shrink together only in take, so every stored range lies inside the arena the SM pairs it with
            &atoms[start as usize..start as usize + len as usize]
        };
        match self {
            PackedOp::Compute { cycles } => WarpOp::Compute { cycles },
            PackedOp::Load { start, len } => WarpOp::Load {
                atoms: range(start, len),
            },
            PackedOp::Store { start, len, full } => WarpOp::Store {
                atoms: range(start, len),
                full,
            },
        }
    }

    /// `true` for loads and stores.
    #[inline]
    pub(crate) fn is_memory(self) -> bool {
        !matches!(self, PackedOp::Compute { .. })
    }
}

/// The full instruction stream of one warp: its ops in program order and
/// the arena their atoms live in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarpTrace {
    ops: Vec<PackedOp>,
    atoms: Vec<LogicalAtom>,
}

impl WarpTrace {
    /// Builds a warp from ops, copying their atoms into the arena.
    ///
    /// # Panics
    ///
    /// Panics if any memory op has an empty atom list (a malformed trace).
    pub fn new<'a>(ops: impl IntoIterator<Item = WarpOp<'a>>) -> Self {
        let mut warp = WarpTrace::default();
        for op in ops {
            warp.push(op);
        }
        warp
    }

    /// Appends `op`, copying its atoms into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory op with an empty atom list.
    pub fn push(&mut self, op: WarpOp<'_>) {
        let start = self.atoms.len();
        let store = match op {
            WarpOp::Compute { cycles } => {
                self.ops.push(PackedOp::Compute { cycles });
                return;
            }
            WarpOp::Load { atoms } => {
                self.atoms.extend_from_slice(atoms);
                None
            }
            WarpOp::Store { atoms, full } => {
                self.atoms.extend_from_slice(atoms);
                Some(full)
            }
        };
        self.push_memory(start..self.atoms.len(), store);
    }

    /// Appends the coalesced load of one warp's per-lane byte addresses
    /// (see [`coalesce_into`]); nothing when no lane is active.
    pub fn load(&mut self, thread_addrs: &[u64]) {
        let start = self.atoms.len();
        coalesce_into(thread_addrs, &mut self.atoms);
        if self.atoms.len() > start {
            self.push_memory(start..self.atoms.len(), None);
        }
    }

    /// Appends the coalesced store of one warp's per-lane writes of
    /// `bytes_per_thread` bytes each (see [`coalesce_writes_into`]): a
    /// full store of the atoms the lanes overwrite completely, then a
    /// partial store of the rest, each omitted when empty.
    ///
    /// # Panics
    ///
    /// Panics if more than 32 lanes are given, or if `bytes_per_thread`
    /// is zero or exceeds the atom size.
    pub fn store(&mut self, thread_addrs: &[u64], bytes_per_thread: u32) {
        let start = self.atoms.len();
        let split = start + coalesce_writes_into(thread_addrs, bytes_per_thread, &mut self.atoms);
        let end = self.atoms.len();
        if split > start {
            self.push_memory(start..split, Some(true));
        }
        if end > split {
            self.push_memory(split..end, Some(false));
        }
    }

    /// Records a memory op whose atoms are `self.atoms[range]`; `store`
    /// is the store's `full` flag, `None` for a load.
    fn push_memory(&mut self, range: std::ops::Range<usize>, store: Option<bool>) {
        assert!(
            !range.is_empty(),
            "memory op {} has an empty atom list",
            self.ops.len()
        );
        let len = u16::try_from(range.len())
            .unwrap_or_else(|_| panic!("memory op of {} atoms", range.len()));
        let start = u32::try_from(range.start)
            .unwrap_or_else(|_| panic!("atom arena longer than u32::MAX"));
        self.ops.push(match store {
            None => PackedOp::Load { start, len },
            Some(full) => PackedOp::Store { start, len, full },
        });
    }

    /// Returns the ops built so far as an exactly sized trace and empties
    /// `self`, which keeps its capacity. A generator that builds every
    /// warp in one builder allocates each stored warp once, at its final
    /// size, and leaves no spare capacity or freed growth behind: the
    /// simulator replays the trace in place, so it stays allocated for
    /// whole runs.
    pub fn take(&mut self) -> WarpTrace {
        // `Vec::clone` allocates exactly the length.
        let warp = self.clone();
        self.ops.clear();
        self.atoms.clear();
        warp
    }

    /// The ops, in program order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = WarpOp<'_>> + '_ {
        self.ops.iter().map(|op| op.view(&self.atoms))
    }

    /// The stored ops and the atom arena they index, for in-place replay.
    pub(crate) fn parts(&self) -> (&[PackedOp], &[LogicalAtom]) {
        (&self.ops, &self.atoms)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the warp has no work.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Memory accesses over all ops: the arena's length.
    pub fn accesses(&self) -> usize {
        self.atoms.len()
    }
}

/// A complete kernel: one [`WarpTrace`] per warp, assigned to SMs
/// round-robin by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTrace {
    name: String,
    warps: Vec<WarpTrace>,
}

impl KernelTrace {
    /// Builds a kernel trace.
    pub fn new(name: impl Into<String>, warps: Vec<WarpTrace>) -> Self {
        KernelTrace {
            name: name.into(),
            warps,
        }
    }

    /// Kernel name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-warp traces.
    pub fn warps(&self) -> &[WarpTrace] {
        &self.warps
    }

    /// Total op count over all warps.
    pub fn total_ops(&self) -> u64 {
        self.warps.iter().map(|w| w.len() as u64).sum()
    }

    /// Total memory accesses (coalesced atoms) over all warps.
    pub fn total_accesses(&self) -> u64 {
        self.warps.iter().map(|w| w.accesses() as u64).sum()
    }

    /// Number of *distinct* atoms touched (the memory footprint).
    pub fn footprint_atoms(&self) -> u64 {
        let mut atoms: Vec<LogicalAtom> = Vec::with_capacity(self.total_accesses() as usize);
        for w in &self.warps {
            atoms.extend_from_slice(&w.atoms);
        }
        atoms.sort_unstable();
        atoms.dedup();
        atoms.len() as u64
    }

    /// Largest atom index referenced, or `None` for a compute-only trace.
    pub fn max_atom(&self) -> Option<LogicalAtom> {
        self.warps
            .iter()
            .flat_map(|w| w.atoms.iter())
            .max()
            .copied()
    }

    /// Memory intensity: memory accesses per op (a proxy for how
    /// bandwidth-bound the kernel is).
    pub fn memory_intensity(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.total_accesses() as f64 / ops as f64
        }
    }

    /// Fraction of memory accesses that are stores.
    pub fn write_fraction(&self) -> f64 {
        let writes: u64 = self
            .warps
            .iter()
            .flat_map(|w| &w.ops)
            .map(|op| match op {
                PackedOp::Store { len, .. } => u64::from(*len),
                PackedOp::Compute { .. } | PackedOp::Load { .. } => 0,
            })
            .sum();
        let accesses = self.total_accesses();
        if accesses == 0 {
            0.0
        } else {
            writes as f64 / accesses as f64
        }
    }
}

impl fmt::Display for KernelTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} warps, {} ops, {} accesses, {:.1} MiB footprint",
            self.name,
            self.warps.len(),
            self.total_ops(),
            self.total_accesses(),
            self.footprint_atoms() as f64 * 32.0 / (1 << 20) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(v: u64) -> LogicalAtom {
        LogicalAtom(v)
    }

    fn sample() -> KernelTrace {
        KernelTrace::new(
            "t",
            vec![
                WarpTrace::new([
                    WarpOp::Load {
                        atoms: &[la(0), la(1), la(2), la(3)],
                    },
                    WarpOp::Compute { cycles: 5 },
                    WarpOp::Store {
                        atoms: &[la(100)],
                        full: true,
                    },
                ]),
                WarpTrace::new([WarpOp::Load {
                    atoms: &[la(2), la(3)],
                }]),
            ],
        )
    }

    #[test]
    fn counting() {
        let t = sample();
        assert_eq!(t.total_ops(), 4);
        assert_eq!(t.total_accesses(), 7);
        assert_eq!(t.footprint_atoms(), 5); // 0,1,2,3,100
        assert_eq!(t.max_atom(), Some(la(100)));
    }

    #[test]
    fn intensity_and_write_fraction() {
        let t = sample();
        assert!((t.memory_intensity() - 7.0 / 4.0).abs() < 1e-9);
        assert!((t.write_fraction() - 1.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_metrics() {
        let t = KernelTrace::new("empty", vec![]);
        assert_eq!(t.total_ops(), 0);
        assert_eq!(t.footprint_atoms(), 0);
        assert_eq!(t.max_atom(), None);
        assert_eq!(t.memory_intensity(), 0.0);
        assert_eq!(t.write_fraction(), 0.0);
    }

    #[test]
    fn op_accessors() {
        assert!(!WarpOp::Compute { cycles: 3 }.is_memory());
        assert!(WarpOp::Load {
            atoms: &[la(1), la(9)],
        }
        .is_memory());
    }

    #[test]
    fn ops_read_back_as_pushed() {
        let ops = [
            WarpOp::Store {
                atoms: &[la(7), la(3)],
                full: false,
            },
            WarpOp::Compute { cycles: 9 },
            WarpOp::Load { atoms: &[la(3)] },
        ];
        let w = WarpTrace::new(ops);
        assert!(w.ops().eq(ops));
        assert_eq!((w.len(), w.accesses()), (3, 3));
    }

    #[test]
    fn coalescing_builders_split_stores_by_coverage() {
        let mut w = WarpTrace::default();
        // Lanes 0..7 write atom 0 whole; lane 8 writes 4 B of atom 1.
        let lanes: Vec<u64> = (0..9).map(|t| 4 * t).collect();
        w.store(&lanes, 4);
        w.load(&[64, 0, 65]);
        w.load(&[]);
        w.store(&[], 4);
        let ops: Vec<WarpOp<'_>> = w.ops().collect();
        assert_eq!(
            ops,
            [
                WarpOp::Store {
                    atoms: &[la(0)],
                    full: true
                },
                WarpOp::Store {
                    atoms: &[la(1)],
                    full: false
                },
                WarpOp::Load {
                    atoms: &[la(2), la(0)]
                },
            ]
        );
    }

    #[test]
    fn take_returns_an_exactly_sized_warp_and_empties_the_builder() {
        let mut builder = WarpTrace::default();
        for i in 0..100 {
            builder.push(WarpOp::Load {
                atoms: &[la(i), la(i + 1)],
            });
        }
        let built = builder.clone();
        let warp = builder.take();
        assert_eq!(warp, built);
        assert_eq!(warp.ops.capacity(), 100);
        assert_eq!(warp.atoms.capacity(), 200);
        assert!(builder.is_empty() && builder.accesses() == 0);
        assert!(
            builder.atoms.capacity() >= 200,
            "the builder keeps its capacity"
        );
    }

    #[test]
    #[should_panic(expected = "empty atom list")]
    fn rejects_empty_memory_op() {
        let _ = WarpTrace::new([WarpOp::Load { atoms: &[] }]);
    }

    #[test]
    fn display_mentions_name_and_counts() {
        let s = sample().to_string();
        assert!(s.contains("t:"));
        assert!(s.contains("2 warps"));
    }
}
