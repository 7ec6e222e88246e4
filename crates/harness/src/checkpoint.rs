//! The run handle: one experiment run's cell cache and ledger.
//!
//! [`crate::runner::run_experiment`] opens a [`Run`] over
//! `<results>/cells/`, a run-local [`ResultCache`] that is indexed on
//! first use, after the run's first output. Every standard matrix
//! cell goes through it, so a cell whose inputs were already simulated —
//! earlier in this run, or in a killed run restarted with `--resume` —
//! is a cache hit. Without `--resume` the run starts from an empty
//! `cells/`; progress survives a SIGKILL because each entry is written
//! durably the moment its cell finishes.
//!
//! The run also keeps a ledger: one [`CellRecord`] per executed cell, in
//! the order the matrix calls ran and, within a call, in matrix order.
//! It is written once, at the end of the run, to
//! `results/checkpoint.json`. Nothing reads it back; it is a record of
//! what ran and how each cell was served.
//!
//! The active run is process-global (installed by [`scoped`]), so every
//! matrix call inside an experiment body memoizes without threading a
//! handle through each experiment's `run(&ExpOptions)` signature.

use crate::cellcache::ResultCache;
use crate::error::Error;
use crate::runner::CellOutcome;
use ccraft_sim::stats::SimStats;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Format version of the `checkpoint.json` ledger.
pub const CHECKPOINT_SCHEMA: u32 = 3;

/// Cell completed successfully.
pub const STATUS_OK: &str = "ok";
/// Cell panicked (message recorded).
pub const STATUS_FAILED: &str = "failed";

/// Outcome of one executed matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// `m<call>/<workload>/<scheme name>` identifier, `<call>` counting
    /// the run's matrix calls from 0.
    pub key: String,
    /// [`STATUS_OK`] or [`STATUS_FAILED`].
    pub status: String,
    /// Panic message, for failed cells. It names the scheme's full
    /// config, which the key's scheme name does not.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub message: Option<String>,
    /// The cell's results, for successful cells.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<SimStats>,
    /// Result-cache disposition (`"hit"` / `"miss"` / `"uncached"`).
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub cache: String,
}

impl CellRecord {
    /// The ledger record of one executed cell of matrix call `call`.
    pub(crate) fn from_outcome(outcome: &CellOutcome, call: usize) -> CellRecord {
        CellRecord {
            key: format!("m{call}/{}", outcome.cell_name()),
            status: if outcome.status.is_ok() {
                STATUS_OK
            } else {
                STATUS_FAILED
            }
            .to_string(),
            message: outcome.as_error().map(|e| e.to_string()),
            stats: outcome.stats.clone(),
            cache: outcome.cache.as_str().to_string(),
        }
    }

    /// `true` when the cell completed with stats.
    pub fn is_ok(&self) -> bool {
        self.status == STATUS_OK && self.stats.is_some()
    }
}

/// On-disk ledger contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version.
    pub schema: u32,
    /// Experiment id of the run.
    pub experiment: String,
    /// Every executed cell, matrix call by matrix call.
    pub cells: Vec<CellRecord>,
}

/// One experiment run: its cell cache and its ledger.
#[derive(Debug)]
pub struct Run {
    dir: PathBuf,
    /// Opened on first use: creating and indexing the directory costs a
    /// few syscalls that must not delay a run's first output.
    cache: OnceLock<Option<ResultCache>>,
    /// Matrix calls recorded so far, and their cells.
    ledger: Mutex<(usize, Vec<CellRecord>)>,
}

impl Run {
    /// A run whose cell cache lives at `dir`. Without `resume` the
    /// directory is emptied first, so a fresh run simulates every
    /// distinct cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the directory cannot be emptied.
    pub fn open(dir: &Path, resume: bool) -> Result<Arc<Run>, Error> {
        if !resume {
            match std::fs::remove_dir_all(dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(Error::io(format!("emptying {}", dir.display()), e));
                }
                _ => {}
            }
        }
        Ok(Arc::new(Run {
            dir: dir.to_path_buf(),
            cache: OnceLock::new(),
            ledger: Mutex::new((0, Vec::new())),
        }))
    }

    /// The run's cell cache, opened on the first call; `None` (with one
    /// stderr warning) when its directory cannot be created or listed,
    /// in which case cells run uncached.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache
            .get_or_init(|| {
                ResultCache::open(&self.dir)
                    .map_err(|e| {
                        eprintln!("warning: run cache unavailable ({e}); cells run uncached")
                    })
                    .ok()
            })
            .as_ref()
    }

    /// Appends the cells of the next matrix call to the ledger.
    pub(crate) fn record(&self, outcomes: &[CellOutcome]) {
        let (calls, cells) = &mut *lock_clean(&self.ledger);
        cells.extend(outcomes.iter().map(|o| CellRecord::from_outcome(o, *calls)));
        *calls += 1;
    }

    /// The ledger so far.
    pub(crate) fn cells(&self) -> Vec<CellRecord> {
        lock_clean(&self.ledger).1.clone()
    }

    /// Writes the ledger durably through [`crate::store`] (checksum
    /// footer, temp file + fsync + atomic rename).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be written.
    pub fn write_ledger(&self, path: &Path, experiment: &str) -> Result<(), Error> {
        let ledger = Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            experiment: experiment.to_string(),
            cells: self.cells(),
        };
        let json = serde_json::to_string_pretty(&ledger)
            .map_err(|e| Error::config(format!("serializing checkpoint: {e}")))?;
        crate::store::write_durable(path, json.as_bytes())
    }
}

/// The process-global active run, if any.
static CURRENT: Mutex<Option<Arc<Run>>> = Mutex::new(None);

fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned lock only means some thread panicked mid-update; the
    // data inside is still valid.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Makes `run` the active run while `f` executes: every standard matrix
/// cell inside memoizes through its cache and lands in its ledger. The
/// run is uninstalled afterwards, also when `f` panics.
pub fn scoped<R>(run: &Arc<Run>, f: impl FnOnce() -> R) -> R {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            *lock_clean(&CURRENT) = None;
        }
    }
    *lock_clean(&CURRENT) = Some(Arc::clone(run));
    let _uninstall = Uninstall;
    f()
}

/// The active run, if any.
pub(crate) fn current() -> Option<Arc<Run>> {
    lock_clean(&CURRENT).clone()
}

/// Serializes tests that run matrices: the engine consults the
/// process-global run, so parallel test threads must not record cells
/// into each other's runs. It is the chaos tests' lock, because a cached
/// run writes through the store hooks a chaos test may have armed.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    crate::chaos::test_guard()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CacheDisposition, CellStatus};
    use ccraft_core::factory::SchemeKind;
    use ccraft_workloads::Workload;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccraft-checkpoint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_stats() -> SimStats {
        ccraft_core::factory::run_scheme(
            &ccraft_sim::config::GpuConfig::tiny(),
            SchemeKind::NoProtection,
            &Workload::VecAdd.generate(ccraft_workloads::SizeClass::Tiny, 1),
        )
    }

    fn outcome(workload: Workload, status: CellStatus) -> CellOutcome {
        let ok = status.is_ok();
        CellOutcome {
            workload,
            scheme: SchemeKind::NoProtection,
            status,
            stats: ok.then(sample_stats),
            cache: if ok {
                CacheDisposition::Hit
            } else {
                CacheDisposition::Uncached
            },
        }
    }

    #[test]
    fn ledger_records_executed_cells_in_order() {
        let _guard = test_guard();
        let dir = tmpdir("ledger");
        let run = Run::open(&dir.join("cells"), false).unwrap();
        run.record(&[
            outcome(Workload::VecAdd, CellStatus::Ok),
            outcome(
                Workload::Saxpy,
                CellStatus::Failed {
                    message: "boom".into(),
                },
            ),
        ]);
        run.record(&[outcome(Workload::VecAdd, CellStatus::Ok)]);
        let path = dir.join("checkpoint.json");
        run.write_ledger(&path, "exp-x").unwrap();
        let (text, verified) = crate::store::read_verified_string(&path).unwrap();
        assert!(verified, "the ledger carries a checksum footer");
        let ledger: Checkpoint = serde_json::from_str(&text).unwrap();
        assert_eq!(ledger.experiment, "exp-x");
        let summary: Vec<_> = ledger
            .cells
            .iter()
            .map(|c| (c.key.as_str(), c.status.as_str(), c.cache.as_str()))
            .collect();
        // Repeated cells get one record each.
        assert_eq!(
            summary,
            [
                ("m0/vecadd/no-protection", STATUS_OK, "hit"),
                ("m0/saxpy/no-protection", STATUS_FAILED, "uncached"),
                ("m1/vecadd/no-protection", STATUS_OK, "hit"),
            ]
        );
        assert!(ledger.cells[0].is_ok());
        assert!(ledger.cells[1].message.as_deref().unwrap().contains("boom"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_runs_empty_the_cache_and_resumed_runs_keep_it() {
        let _guard = test_guard();
        let dir = tmpdir("open").join("cells");
        let key = crate::cellcache::CellKey {
            scheme: "s".into(),
            workload: "w".into(),
            machine: "m".into(),
            size: "tiny".into(),
            seed: 1,
            inject: "none".into(),
            features: Vec::new(),
            code_version: "v".into(),
        };
        let run = Run::open(&dir, false).unwrap();
        let cache = |run: &Run| run.cache().expect("cache opens").len();
        run.cache()
            .expect("cache opens")
            .insert(&key, &sample_stats(), 1)
            .unwrap();
        assert_eq!(cache(&Run::open(&dir, true).unwrap()), 1);
        assert_eq!(cache(&Run::open(&dir, false).unwrap()), 0);
    }

    #[test]
    fn scoped_installs_and_uninstalls() {
        let _guard = test_guard();
        let run = Run::open(&tmpdir("scoped").join("cells"), false).unwrap();
        assert!(current().is_none());
        let inside = scoped(&run, || current().expect("run installed"));
        assert!(Arc::ptr_eq(&inside, &run));
        assert!(current().is_none());
        let panicked = std::panic::catch_unwind(|| scoped(&run, || panic!("body panics")));
        assert!(panicked.is_err());
        assert!(current().is_none(), "a panicking body still uninstalls");
    }
}
