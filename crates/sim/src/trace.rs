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
//! # Examples
//!
//! ```
//! use ccraft_sim::trace::{KernelTrace, WarpOp, WarpTrace};
//! use ccraft_sim::types::LogicalAtom;
//!
//! let warp = WarpTrace::new(vec![
//!     WarpOp::Load { atoms: vec![LogicalAtom(0), LogicalAtom(1)] },
//!     WarpOp::Compute { cycles: 10 },
//!     WarpOp::Store { atoms: vec![LogicalAtom(0)], full: true },
//! ]);
//! let trace = KernelTrace::new("example", vec![warp]);
//! assert_eq!(trace.total_ops(), 3);
//! assert_eq!(trace.footprint_atoms(), 2);
//! ```

use crate::types::LogicalAtom;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One operation in a warp's instruction stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarpOp {
    /// Non-memory work: the warp is unavailable for `cycles` after issue.
    Compute {
        /// Busy time in cycles.
        cycles: u32,
    },
    /// A coalesced load touching the given atoms. The warp blocks until
    /// every atom's data has returned.
    Load {
        /// Unique atoms accessed by the 32 threads after coalescing.
        atoms: Vec<LogicalAtom>,
    },
    /// A coalesced store. The warp does not wait for completion
    /// (write-through L1, posted writes), but the accesses consume
    /// load/store-unit and queue bandwidth.
    Store {
        /// Unique atoms written.
        atoms: Vec<LogicalAtom>,
        /// Whether every atom is fully overwritten (no fetch-on-write).
        full: bool,
    },
}

impl WarpOp {
    /// Number of memory accesses this op generates (0 for compute).
    pub fn access_count(&self) -> usize {
        match self {
            WarpOp::Compute { .. } => 0,
            WarpOp::Load { atoms } => atoms.len(),
            WarpOp::Store { atoms, .. } => atoms.len(),
        }
    }

    /// `true` for loads and stores.
    pub fn is_memory(&self) -> bool {
        !matches!(self, WarpOp::Compute { .. })
    }
}

/// The full instruction stream of one warp.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WarpTrace {
    ops: Vec<WarpOp>,
}

impl WarpTrace {
    /// Wraps an op list, dropping its spare capacity: the simulator
    /// replays the trace in place, so it stays allocated for whole runs.
    ///
    /// # Panics
    ///
    /// Panics if any memory op has an empty atom list (a malformed trace).
    pub fn new(mut ops: Vec<WarpOp>) -> Self {
        ops.shrink_to_fit();
        for (i, op) in ops.iter().enumerate() {
            if op.is_memory() {
                assert!(
                    op.access_count() > 0,
                    "memory op {i} has an empty atom list"
                );
            }
        }
        WarpTrace { ops }
    }

    /// The ops, in program order.
    pub fn ops(&self) -> &[WarpOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the warp has no work.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<WarpOp> for WarpTrace {
    fn from_iter<I: IntoIterator<Item = WarpOp>>(iter: I) -> Self {
        WarpTrace::new(iter.into_iter().collect())
    }
}

/// A complete kernel: one [`WarpTrace`] per warp, assigned to SMs
/// round-robin by the simulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
        self.warps
            .iter()
            .flat_map(|w| w.ops())
            .map(|op| op.access_count() as u64)
            .sum()
    }

    /// Number of *distinct* atoms touched (the memory footprint).
    pub fn footprint_atoms(&self) -> u64 {
        let mut atoms: Vec<LogicalAtom> = Vec::with_capacity(self.total_accesses() as usize);
        for w in &self.warps {
            for op in w.ops() {
                match op {
                    WarpOp::Load { atoms: a } | WarpOp::Store { atoms: a, .. } => {
                        atoms.extend_from_slice(a);
                    }
                    WarpOp::Compute { .. } => {}
                }
            }
        }
        atoms.sort_unstable();
        atoms.dedup();
        atoms.len() as u64
    }

    /// Largest atom index referenced, or `None` for a compute-only trace.
    pub fn max_atom(&self) -> Option<LogicalAtom> {
        self.warps
            .iter()
            .flat_map(|w| w.ops())
            .filter_map(|op| match op {
                WarpOp::Load { atoms } | WarpOp::Store { atoms, .. } => atoms.iter().max().copied(),
                WarpOp::Compute { .. } => None,
            })
            .max()
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
        let mut reads = 0u64;
        let mut writes = 0u64;
        for w in &self.warps {
            for op in w.ops() {
                match op {
                    WarpOp::Load { atoms } => reads += atoms.len() as u64,
                    WarpOp::Store { atoms, .. } => writes += atoms.len() as u64,
                    WarpOp::Compute { .. } => {}
                }
            }
        }
        if reads + writes == 0 {
            0.0
        } else {
            writes as f64 / (reads + writes) as f64
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
                WarpTrace::new(vec![
                    WarpOp::Load {
                        atoms: vec![la(0), la(1), la(2), la(3)],
                    },
                    WarpOp::Compute { cycles: 5 },
                    WarpOp::Store {
                        atoms: vec![la(100)],
                        full: true,
                    },
                ]),
                WarpTrace::new(vec![WarpOp::Load {
                    atoms: vec![la(2), la(3)],
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
        assert_eq!(WarpOp::Compute { cycles: 3 }.access_count(), 0);
        assert!(!WarpOp::Compute { cycles: 3 }.is_memory());
        let ld = WarpOp::Load {
            atoms: vec![la(1), la(9)],
        };
        assert_eq!(ld.access_count(), 2);
        assert!(ld.is_memory());
    }

    #[test]
    #[should_panic(expected = "empty atom list")]
    fn rejects_empty_memory_op() {
        let _ = WarpTrace::new(vec![WarpOp::Load { atoms: vec![] }]);
    }

    #[test]
    fn from_iterator() {
        let w: WarpTrace = (0..3).map(|_| WarpOp::Compute { cycles: 1 }).collect();
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn display_mentions_name_and_counts() {
        let s = sample().to_string();
        assert!(s.contains("t:"));
        assert!(s.contains("2 warps"));
    }
}
