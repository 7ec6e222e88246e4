//! # ccraft-core — CacheCraft and its baselines
//!
//! The contribution crate of the reproduction: memory-protection schemes
//! plugged into the [`ccraft-sim`](ccraft_sim) GPU simulator, the
//! functional reliability pipeline over the [`ccraft-ecc`](ccraft_ecc)
//! codecs, and on-chip storage accounting.
//!
//! ## Schemes
//!
//! | Scheme | Module | What it models |
//! |--------|--------|----------------|
//! | `no-protection` | [`ccraft_sim::protection::NoProtection`] | ECC off (upper bound) |
//! | `inline-naive`  | [`naive`] | inline ECC with no on-chip ECC state |
//! | `ecc-cache`     | [`ecc_cache`] | dedicated per-MC ECC cache (industry practice) |
//! | `cachecraft`    | [`cachecraft`] | reconstructed caching (C1 co-location, C2 fragment store, C3 reconstruction + coalescing) |
//!
//! ## Quick start
//!
//! ```
//! use ccraft_core::factory::{run_scheme, SchemeKind};
//! use ccraft_sim::config::GpuConfig;
//! use ccraft_workloads::{SizeClass, Workload};
//!
//! let cfg = GpuConfig::tiny();
//! let trace = Workload::VecAdd.generate(SizeClass::Tiny, 1);
//! let baseline = run_scheme(&cfg, SchemeKind::NoProtection, &trace);
//! let craft = run_scheme(
//!     &cfg,
//!     SchemeKind::CacheCraft(ccraft_core::cachecraft::CacheCraftConfig::for_machine(&cfg)),
//!     &trace,
//! );
//! // Normalized performance: CacheCraft relative to ECC-off.
//! let normalized = baseline.exec_cycles as f64 / craft.exec_cycles as f64;
//! assert!(normalized > 0.0);
//! ```
// Library crates must not abort the process on recoverable conditions:
// panicking escapes are denied outside tests, and the few justified
// invariant panics carry scoped `#[allow]`s with a safety comment.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cachecraft;
pub mod ecc_cache;
pub mod factory;
pub mod frugal;
pub mod inline_map;
pub mod naive;
pub mod reliability;
pub mod storage;

pub use cachecraft::{CacheCraft, CacheCraftConfig};
pub use ecc_cache::EccCache;
pub use factory::{run_scheme, run_scheme_profiled, SchemeKind};
pub use frugal::CompressedInline;
pub use naive::InlineNaive;
