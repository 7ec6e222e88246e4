//! # ccraft-sim — a trace-driven GPU memory-subsystem simulator
//!
//! The infrastructure substrate of the CacheCraft reproduction: a
//! cycle-approximate model of a GPU's memory hierarchy built for studying
//! memory-protection schemes. SIMT cores replay coalesced kernel traces;
//! requests flow through sectored L1s, a crossbar, channel-sliced L2 banks
//! with MSHRs, and FR-FCFS memory controllers over a banked GDDR6/HBM2
//! DRAM timing model.
//!
//! Memory protection is injected through the
//! [`ProtectionScheme`](protection::ProtectionScheme) trait, consulted for
//! address mapping, demand-fill ECC fetches, and write-back ECC traffic.
//! The scheme implementations (inline ECC baselines and CacheCraft itself)
//! live in the `ccraft-core` crate; this crate ships only the ECC-off
//! baseline ([`protection::NoProtection`]).
//!
//! ## Quick start
//!
//! ```
//! use ccraft_sim::config::GpuConfig;
//! use ccraft_sim::gpu::{simulate, Observe};
//! use ccraft_sim::protection::{ChannelInterleave, NoProtection};
//! use ccraft_sim::trace::{KernelTrace, WarpTrace};
//!
//! let cfg = GpuConfig::tiny();
//! // One warp loads 32 consecutive f32s: the coalescer makes 4 atoms.
//! let mut warp = WarpTrace::default();
//! warp.load(&(0..32).map(|t| 4 * t).collect::<Vec<u64>>());
//! let trace = KernelTrace::new("hello", vec![warp]);
//! let mut scheme = NoProtection::new(ChannelInterleave::new(
//!     cfg.mem.channels,
//!     cfg.mem.interleave_atoms,
//! ));
//! let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
//! assert!(!stats.timed_out);
//! assert_eq!(stats.dram[0], 4); // four data-read atoms
//! ```
//!
//! Observers (telemetry, in-situ fault injection, self-profiling) are
//! switched on through the [`Observe`] value; none of them changes the
//! simulated machine's behaviour.
//!
//! ## Fidelity
//!
//! DESIGN.md §5 lists the modelling approximations (single clock domain,
//! no `tFAW`/bank-group timing, posted stores, trace-driven cores). They
//! are chosen so that the quantities this reproduction reasons about —
//! bandwidth demand, row-buffer locality, queue contention, cache reach —
//! behave faithfully.
// Library crates must not abort the process on recoverable conditions:
// panicking escapes are denied outside tests, and the few justified
// invariant panics carry scoped `#[allow]`s with a safety comment.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod calendar;
pub mod coalesce;
pub mod config;
pub mod dram;
pub mod energy;
pub mod faults;
pub mod fxmap;
pub mod gpu;
#[cfg(feature = "check-invariants")]
pub mod invariants;
pub mod l1;
pub mod l2;
pub mod mem_ctrl;
pub mod msg;
mod mshr;
pub mod protection;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod types;
pub mod xbar;

pub use config::GpuConfig;
pub use faults::{FaultConfig, FaultInjector, FaultRate, FaultStats, ProtectionCodec};
pub use gpu::{simulate, simulate_with_exec, ExecConfig, Observe, SimOutput};
pub use stats::SimStats;
pub use types::{Cycle, LogicalAtom, PhysLoc, TrafficClass};
