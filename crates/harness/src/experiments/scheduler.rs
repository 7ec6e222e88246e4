//! F16 (extension) — robustness to the warp scheduler: GTO vs round-robin.
//!
//! A sanity check that the headline conclusion does not hinge on the
//! scheduling policy the cores happen to use.

use super::sweep;
use crate::runner::ExpOptions;
use crate::Error;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::{GpuConfig, SchedulerPolicy};

/// Prints and saves F16.
///
/// # Errors
///
/// Returns an error when a required matrix cell is missing or a
/// report artifact cannot be written.
pub fn run(opts: &ExpOptions) -> Result<(), Error> {
    let rows = [
        ("greedy-then-oldest", SchedulerPolicy::GreedyThenOldest),
        ("round-robin", SchedulerPolicy::RoundRobin),
    ]
    .map(|(label, policy)| {
        let mut cfg = GpuConfig::gddr6();
        cfg.core.scheduler = policy;
        (
            vec![label.to_string()],
            cfg,
            SchemeKind::headline(&cfg).to_vec(),
        )
    });
    sweep(
        opts,
        "F16",
        "Warp-scheduler sensitivity, geomean over the sweep subset",
        "f16_scheduler",
        vec!["scheduler", "naive", "ecc-cache", "cachecraft"],
        rows,
    )
}
