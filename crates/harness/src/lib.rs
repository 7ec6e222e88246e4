//! # ccraft-harness — experiment harness for the CacheCraft evaluation
//!
//! Shared machinery behind `ccx exp <id>`: a parallel workload×scheme
//! run matrix, result aggregation (geometric means, normalization),
//! markdown/CSV/JSON emitters, and the std-only HTTP layer ([`http`])
//! under both the live metrics endpoint and the `ccraft-serve` daemon.
//! Each entry of [`experiments::EXPERIMENTS`] regenerates one table or
//! figure of the reconstructed evaluation; `ccx exp all` runs the full
//! set (see DESIGN.md §6 and EXPERIMENTS.md).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cellcache;
pub mod checkpoint;
pub mod error;
pub mod experiments;
pub mod http;
pub mod metrics;
pub mod perfdiff;
pub mod report;
pub mod runner;
pub mod store;

pub use error::Error;
pub use runner::{
    run_cell, run_experiment, run_matrix, run_matrix_cells, run_matrix_cells_with_body,
    CacheDisposition, CellOutcome, CellRun, CellStatus, ExpOptions, MatrixResult, EXIT_DEGRADED,
    EXIT_FAILED, EXIT_OK, OPTIONS_USAGE,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquires a mutex even when a previous holder panicked. Every mutex in
/// the harness and the daemon (job queues, result slots, the cache index,
/// the checkpoint ledger) guards data that stays structurally valid across
/// a panic mid-update, so poisoning is recoverable.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Geometric mean of positive values; 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean over non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// SplitMix64 finalizer: the deterministic draw stream of the fuzz tests.
#[cfg(test)]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
