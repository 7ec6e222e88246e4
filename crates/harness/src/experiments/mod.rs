//! One module per experiment of the reconstructed evaluation (DESIGN.md §6).
//!
//! Every module exposes `run(&ExpOptions)`: it prints the experiment's
//! markdown table(s) to stdout and saves CSV/JSON artifacts under
//! `results/`. [`EXPERIMENTS`] lists them in report order under the ids
//! `ccx exp <id>` takes, and [`run_by_id`] runs one — or, for `all`,
//! every one for the EXPERIMENTS.md refresh — through
//! [`crate::run_experiment`]. Manifests and ledgers record the id as
//! `exp-<id>` (`exp-main`, `exp-all`, …), the names of the per-experiment
//! binaries this registry replaced, so `ccx perf-diff` compares new runs
//! with old ones. `src/bin/exp-all.rs` keeps the same list as Rust calls
//! for the benchmark's sweep child, which is checked against it; a unit
//! test keeps the registry in step with it.

use crate::{run_experiment, Error, ExpOptions};

pub mod ablation;
pub mod config_table;
pub mod ecchit;
pub mod energy;
pub mod faults;
pub mod frugal;
pub mod hbm;
pub mod main_result;
pub mod motivation;
pub mod reliability;
pub mod rowhit;
pub mod scheduler;
pub mod sens_channels;
pub mod sens_ecccap;
pub mod sens_l2;
pub mod sens_ratio;
pub mod storage;
pub mod tagged;
pub mod workload_table;

/// The memory-intensive subset used by the ablation and sensitivity
/// sweeps (keeps sweep cost manageable while covering the locality
/// spectrum: pure streams, partial-write scatter, halo reuse, gathers,
/// hot-table writes).
pub const SWEEP_SUBSET: [ccraft_workloads::Workload; 6] = [
    ccraft_workloads::Workload::VecAdd,
    ccraft_workloads::Workload::Saxpy,
    ccraft_workloads::Workload::Transpose,
    ccraft_workloads::Workload::Stencil2D,
    ccraft_workloads::Workload::Spmv,
    ccraft_workloads::Workload::Histogram,
];

/// One entry of [`EXPERIMENTS`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `ccx exp` takes; runs record it as `exp-<id>`.
    pub id: &'static str,
    /// The module under `experiments::` that implements it.
    pub module: &'static str,
    /// Regenerates the experiment's table(s) and artifacts.
    pub run: fn(&ExpOptions) -> Result<(), Error>,
}

/// Builds [`EXPERIMENTS`] from `id => module` pairs, so an entry's
/// `module` and `run` cannot disagree.
macro_rules! registry {
    ($($id:literal => $module:ident,)*) => {
        /// Every experiment, in report order (`ccx exp all` runs them in
        /// this order, as `src/bin/exp-all.rs` does).
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            id: $id,
            module: stringify!($module),
            run: $module::run,
        },)*];
    };
}

registry! {
    "config" => config_table,
    "workloads" => workload_table,
    "motivation" => motivation,
    "rowhit" => rowhit,
    "main" => main_result,
    "ecchit" => ecchit,
    "ablation" => ablation,
    "sens-ratio" => sens_ratio,
    "sens-l2" => sens_l2,
    "sens-ecccap" => sens_ecccap,
    "sens-channels" => sens_channels,
    "hbm" => hbm,
    "energy" => energy,
    "frugal" => frugal,
    "scheduler" => scheduler,
    "reliability" => reliability,
    "faults" => faults,
    "storage" => storage,
    "tagged" => tagged,
}

/// Whether `ccx exp` accepts `id`: `all` or an [`EXPERIMENTS`] id.
pub fn is_known(id: &str) -> bool {
    id == "all" || EXPERIMENTS.iter().any(|e| e.id == id)
}

/// Every id `ccx exp` accepts, space-separated, `all` first.
pub fn id_list() -> String {
    std::iter::once("all")
        .chain(EXPERIMENTS.iter().map(|e| e.id))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs `ccx exp <id>` through [`run_experiment`], which takes its
/// options from the process arguments and exits the process on failure.
/// `all` runs every experiment and then prints the elapsed time. Returns
/// `false`, having run nothing, when `id` is unknown.
pub fn run_by_id(id: &str) -> bool {
    if id == "all" {
        let t0 = std::time::Instant::now();
        run_experiment("exp-all", |opts| {
            EXPERIMENTS.iter().try_for_each(|e| (e.run)(opts))
        });
        eprintln!(
            "\nAll experiments completed in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        return true;
    }
    match EXPERIMENTS.iter().find(|e| e.id == id) {
        Some(e) => {
            run_experiment(&format!("exp-{id}"), e.run);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ccx exp all`, the `exp-all` binary and the benchmark's sweep
    /// child (checked against `exp-all.rs`) must run the same list.
    #[test]
    fn registry_matches_exp_all_in_order() {
        let exp_all: Vec<&str> = include_str!("../bin/exp-all.rs")
            .lines()
            .filter_map(|l| l.trim().strip_prefix("exp::"))
            .filter_map(|l| l.split("::run").next())
            .collect();
        let ours: Vec<&str> = EXPERIMENTS.iter().map(|e| e.module).collect();
        assert_eq!(ours, exp_all);
    }

    #[test]
    fn ids_are_unique_and_known() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        assert!(!ids.contains(&"all"));
        assert!(is_known("all") && is_known("main") && is_known("sens-l2"));
        assert!(!is_known("exp-main") && !is_known("nosuch"));
        assert!(id_list().starts_with("all config workloads "));
    }
}
