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
//!
//! Experiments read matrix cells by identity, never by position: through
//! [`require`], or through `subset_norms` and `sweep`, which the ablation
//! and sensitivity figures share.

use crate::report::{banner, emit_csv, f3, Table};
use crate::runner::{require, run_matrix};
use crate::{geomean, run_experiment, Error, ExpOptions, MatrixResult};
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;

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

/// `scheme`'s performance normalized to `baseline` on each workload of
/// [`SWEEP_SUBSET`], in that order (baseline cycles / `scheme`'s cycles).
///
/// # Errors
///
/// Returns [`Error::MissingCell`] when either scheme's cell of a workload
/// is absent from `results`.
pub(crate) fn subset_norms(
    results: &[MatrixResult],
    baseline: &SchemeKind,
    scheme: &SchemeKind,
) -> Result<Vec<f64>, Error> {
    SWEEP_SUBSET
        .iter()
        .map(|&w| {
            let base = &require(results, w, baseline)?.stats;
            Ok(require(results, w, scheme)?.normalized_perf(base))
        })
        .collect()
}

/// The geomean of [`subset_norms`] for each scheme after the first, which
/// is the baseline.
///
/// # Errors
///
/// Returns [`Error::MissingCell`] when a needed cell is absent.
pub(crate) fn sweep_geomeans(
    results: &[MatrixResult],
    schemes: &[SchemeKind],
) -> Result<Vec<f64>, Error> {
    let Some((baseline, rest)) = schemes.split_first() else {
        return Ok(Vec::new());
    };
    rest.iter()
        .map(|s| Ok(geomean(&subset_norms(results, baseline, s)?)))
        .collect()
}

/// One row of a sensitivity sweep: its leading label cells, the machine,
/// and the schemes it compares, baseline first.
pub(crate) type SweepRow = (Vec<String>, GpuConfig, Vec<SchemeKind>);

/// Runs sensitivity sweep `id` (F8–F11, F13, F16) under a banner of its
/// `title` and the run's size: for each row, the matrix of
/// [`SWEEP_SUBSET`] × its schemes on its machine, tabulated as the row's
/// labels followed by its [`sweep_geomeans`]. Prints the table and saves
/// it as `<csv>.csv`.
///
/// # Errors
///
/// Returns an error when a row's machine is invalid, a needed cell is
/// missing, or the CSV cannot be written.
pub(crate) fn sweep(
    opts: &ExpOptions,
    id: &str,
    title: &str,
    csv: &str,
    header: Vec<&str>,
    rows: impl IntoIterator<Item = SweepRow>,
) -> Result<(), Error> {
    banner(id, &format!("{title} ({} size)", opts.size));
    let mut t = Table::new(header);
    for (mut cells, cfg, schemes) in rows {
        cfg.validate().map_err(|e| Error::config(e.to_string()))?;
        let results = run_matrix(&cfg, &SWEEP_SUBSET, &schemes, opts);
        cells.extend(sweep_geomeans(&results, &schemes)?.into_iter().map(f3));
        t.row(cells);
    }
    println!("{}", t.to_markdown());
    emit_csv(csv, &t)?;
    Ok(())
}

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

/// Runs every experiment of `list` in order, carrying on past one that
/// fails (reported on stderr as it happens), and returns the first error.
/// A figure that lost a cell thus costs no other figure.
fn run_all(list: &[Experiment], opts: &ExpOptions) -> Result<(), Error> {
    let mut first = Ok(());
    for e in list {
        if let Err(err) = (e.run)(opts) {
            eprintln!("warning: exp-{}: {err}", e.id);
            if first.is_ok() {
                first = Err(err);
            }
        }
    }
    first
}

/// Runs `ccx exp <id>` through [`run_experiment`], which takes its
/// options from the process arguments and exits the process on failure.
/// `all` runs every experiment, even past a failed one, and then prints
/// the elapsed time. Returns `false`, having run nothing, when `id` is
/// unknown.
pub fn run_by_id(id: &str) -> bool {
    if id == "all" {
        let t0 = std::time::Instant::now();
        run_experiment("exp-all", |opts| run_all(EXPERIMENTS, opts));
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
    use ccraft_sim::stats::SimStats;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Cycles of the cell of workload `wi` and scheme `si`.
    fn cycles(wi: usize, si: usize) -> u64 {
        1000 + 100 * si as u64 + 7 * wi as u64
    }

    /// The sweep subset × headline matrix, workload-major as
    /// `run_matrix` returns it.
    fn headline_matrix(schemes: [SchemeKind; 4]) -> Vec<MatrixResult> {
        (0..SWEEP_SUBSET.len())
            .flat_map(|wi| {
                (0..4).map(move |si| MatrixResult {
                    workload: SWEEP_SUBSET[wi],
                    scheme: schemes[si],
                    stats: SimStats {
                        exec_cycles: cycles(wi, si),
                        ..SimStats::default()
                    },
                })
            })
            .collect()
    }

    #[test]
    fn sweep_reader_computes_base_over_cell_geomeans() {
        let schemes = SchemeKind::headline(&GpuConfig::gddr6());
        let got = sweep_geomeans(&headline_matrix(schemes), &schemes).expect("full matrix");
        assert_eq!(got.len(), 3);
        for (v, g) in got.iter().enumerate() {
            let norms: Vec<f64> = (0..SWEEP_SUBSET.len())
                .map(|wi| cycles(wi, 0) as f64 / cycles(wi, 1 + v) as f64)
                .collect();
            assert_eq!(*g, geomean(&norms));
        }
    }

    #[test]
    fn sweep_reader_names_a_missing_cell() {
        let schemes = SchemeKind::headline(&GpuConfig::gddr6());
        let mut results = headline_matrix(schemes);
        // spmv's ecc-cache cell failed: every later cell moves up by one.
        results.retain(|r| {
            !(r.workload == ccraft_workloads::Workload::Spmv && r.scheme == schemes[2])
        });
        let err = sweep_geomeans(&results, &schemes).expect_err("a cell is missing");
        assert!(
            matches!(
                &err,
                Error::MissingCell { cell }
                    if cell == "spmv/EccCache { coverage: 8, capacity_per_mc: 16384 }"
            ),
            "{err}"
        );
    }

    static THIRD_RAN: AtomicBool = AtomicBool::new(false);

    fn ok(_: &ExpOptions) -> Result<(), Error> {
        Ok(())
    }

    fn missing(_: &ExpOptions) -> Result<(), Error> {
        Err(Error::MissingCell {
            cell: "spmv/cachecraft".to_string(),
        })
    }

    fn third(_: &ExpOptions) -> Result<(), Error> {
        THIRD_RAN.store(true, Ordering::SeqCst);
        Err(Error::config("third failed too"))
    }

    #[test]
    fn exp_all_runs_past_a_failed_experiment_and_returns_its_error() {
        let list = [
            ("a", ok as fn(&ExpOptions) -> _),
            ("b", missing),
            ("c", third),
        ]
        .map(|(id, run)| Experiment {
            id,
            module: id,
            run,
        });
        let err = run_all(&list, &ExpOptions::default()).expect_err("b failed");
        assert!(THIRD_RAN.load(Ordering::SeqCst), "c must still run");
        assert!(
            matches!(&err, Error::MissingCell { cell } if cell == "spmv/cachecraft"),
            "{err}"
        );
    }

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
