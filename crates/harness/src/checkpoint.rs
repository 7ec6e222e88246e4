//! Crash-resilient experiment checkpointing.
//!
//! The runner records every completed matrix cell into
//! `results/checkpoint.json` (written atomically after each cell), so a
//! crashed or killed experiment can be re-run with `--resume` and only
//! the unfinished cells execute. A checkpoint belongs to one experiment
//! configuration, captured in its *fingerprint* (experiment id + size +
//! seed + canonical fault-injection spec, or `none`); resuming against a
//! different configuration — including a changed `--inject` — discards
//! the stale file rather than mixing results.
//!
//! Cell keys are `m<call>/<workload>/<scheme>`: experiments may invoke
//! the matrix runner several times, and calls are numbered in execution
//! order, which is deterministic across runs of the same binary.
//!
//! The active session is process-global (installed by
//! [`crate::runner::run_experiment`]) so every matrix call inside an
//! experiment body checkpoints automatically, without threading a handle
//! through each experiment's signature.

use crate::error::Error;
use ccraft_sim::stats::SimStats;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Format version of `checkpoint.json`.
pub const CHECKPOINT_SCHEMA: u32 = 1;

/// Cell completed successfully.
pub const STATUS_OK: &str = "ok";
/// Cell panicked (message recorded).
pub const STATUS_FAILED: &str = "failed";
/// Cell exceeded its watchdog timeout.
pub const STATUS_TIMEOUT: &str = "timeout";

/// Outcome of one recorded matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// `m<call>/<workload>/<scheme>` identifier.
    pub key: String,
    /// One of [`STATUS_OK`] / [`STATUS_FAILED`] / [`STATUS_TIMEOUT`].
    pub status: String,
    /// Panic or timeout message, for failed cells.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub message: Option<String>,
    /// Execution attempts consumed (≥ 1).
    pub attempts: u32,
    /// Per-attempt outcome log (`"attempt 1: failed: <msg>"`, ...),
    /// recorded so a post-mortem can see *how* a cell reached its final
    /// status. Absent in checkpoints from before this field existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub history: Vec<String>,
    /// The cell's results, for successful cells.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<SimStats>,
    /// Result-cache disposition (`"hit"` / `"miss"` / `"uncached"`);
    /// empty in checkpoints from before the cache existed.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub cache: String,
}

impl CellRecord {
    /// `true` when the cell completed and its stats can be replayed.
    pub fn is_ok(&self) -> bool {
        self.status == STATUS_OK && self.stats.is_some()
    }
}

/// On-disk checkpoint contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version.
    pub schema: u32,
    /// Experiment configuration this checkpoint belongs to.
    pub fingerprint: String,
    /// Completed cells, in completion order.
    pub cells: Vec<CellRecord>,
}

/// A live checkpointing session for one experiment run.
#[derive(Debug)]
pub struct Session {
    path: PathBuf,
    checkpoint: Checkpoint,
    /// Keys loaded from a resumed file — cells eligible for skipping.
    resumed_keys: Vec<String>,
    matrix_calls: u32,
    /// Non-fatal problems hit while loading (corrupt checkpoint
    /// quarantined, schema mismatch, ...); surfaced in the run manifest.
    warnings: Vec<String>,
}

impl Session {
    /// Opens a session at `path` for the given fingerprint.
    ///
    /// With `resume`, an existing checkpoint with a matching fingerprint
    /// is loaded and its successful cells become skippable; a missing,
    /// unreadable, or mismatched file starts fresh (with a stderr note on
    /// mismatch, since that usually means a different `--size`/`--seed`).
    pub fn start(fingerprint: &str, path: PathBuf, resume: bool) -> Self {
        let mut resumed_keys = Vec::new();
        let mut warnings = Vec::new();
        let mut checkpoint = Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            fingerprint: fingerprint.to_string(),
            cells: Vec::new(),
        };
        if resume {
            match Self::load(&path, &mut warnings) {
                Some(prev) if prev.fingerprint == fingerprint => {
                    resumed_keys = prev
                        .cells
                        .iter()
                        .filter(|c| c.is_ok())
                        .map(|c| c.key.clone())
                        .collect();
                    checkpoint = prev;
                }
                Some(prev) => {
                    warnings.push(format!(
                        "checkpoint at {} was produced by a different \
                         configuration ({} != {fingerprint}); starting fresh",
                        path.display(),
                        prev.fingerprint
                    ));
                }
                None => {}
            }
            for w in &warnings {
                eprintln!("warning: {w}");
            }
        }
        Session {
            path,
            checkpoint,
            resumed_keys,
            matrix_calls: 0,
            warnings,
        }
    }

    /// Loads and verifies a checkpoint. A file that fails checksum
    /// verification or cannot be parsed is *quarantined* (moved to
    /// `<name>.corrupt-<n>` by [`crate::store`]) rather than silently
    /// overwritten, and the problem is appended to `warnings` for the
    /// run manifest.
    fn load(path: &Path, warnings: &mut Vec<String>) -> Option<Checkpoint> {
        if !path.exists() {
            return None;
        }
        let text = match crate::store::read_verified_string(path) {
            Ok((text, _verified)) => text,
            Err(e @ Error::Corrupt { .. }) => {
                // read_verified already quarantined the file.
                warnings.push(format!("checkpoint {e}; starting fresh"));
                return None;
            }
            Err(e) => {
                warnings.push(format!(
                    "checkpoint at {} unreadable: {e}; starting fresh",
                    path.display()
                ));
                return None;
            }
        };
        match serde_json::from_str::<Checkpoint>(&text) {
            Ok(cp) if cp.schema == CHECKPOINT_SCHEMA => Some(cp),
            Ok(cp) => {
                let preserved = match crate::store::quarantine(path) {
                    Ok(q) => format!("preserved at {}", q.display()),
                    Err(e) => format!("quarantine failed: {e}"),
                };
                warnings.push(format!(
                    "checkpoint at {} has schema {} (want {CHECKPOINT_SCHEMA}); \
                     {preserved}; starting fresh",
                    path.display(),
                    cp.schema
                ));
                None
            }
            Err(e) => {
                let preserved = match crate::store::quarantine(path) {
                    Ok(q) => format!("preserved at {}", q.display()),
                    Err(e) => format!("quarantine failed: {e}"),
                };
                warnings.push(format!(
                    "unparseable checkpoint at {}: {e}; {preserved}; starting fresh",
                    path.display()
                ));
                None
            }
        }
    }

    /// Key prefix for the next matrix call (`m0`, `m1`, ...). Call order
    /// is deterministic per experiment binary, so prefixes line up across
    /// a resume.
    pub fn next_matrix_prefix(&mut self) -> String {
        let p = format!("m{}", self.matrix_calls);
        self.matrix_calls += 1;
        p
    }

    /// Looks up a resumable record: successful cells loaded from a
    /// `--resume`d checkpoint. Cells recorded during *this* run, and
    /// failed or timed-out cells, are not skippable.
    pub fn resumable(&self, key: &str) -> Option<&CellRecord> {
        if !self.resumed_keys.iter().any(|k| k == key) {
            return None;
        }
        self.checkpoint
            .cells
            .iter()
            .find(|c| c.key == key && c.is_ok())
    }

    /// Records one completed cell (replacing any previous record with the
    /// same key) and persists the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the checkpoint file cannot be written.
    pub fn record(&mut self, record: CellRecord) -> Result<(), Error> {
        self.checkpoint.cells.retain(|c| c.key != record.key);
        self.checkpoint.cells.push(record);
        self.save()
    }

    /// All recorded cells.
    pub fn cells(&self) -> &[CellRecord] {
        &self.checkpoint.cells
    }

    /// Messages of every non-ok cell, for the run manifest.
    pub fn failure_messages(&self) -> Vec<String> {
        self.checkpoint
            .cells
            .iter()
            .filter(|c| !c.is_ok())
            .map(|c| {
                format!(
                    "cell {} {}: {}",
                    c.key,
                    c.status,
                    c.message.as_deref().unwrap_or("(no message)")
                )
            })
            .collect()
    }

    /// Path of the checkpoint file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Non-fatal problems hit while loading the checkpoint (corrupt file
    /// quarantined, schema mismatch, ...), for the run manifest.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Cells whose final status is not ok — the quarantined cells of a
    /// degraded run.
    pub fn failed_cells(&self) -> usize {
        self.checkpoint.cells.iter().filter(|c| !c.is_ok()).count()
    }

    /// Writes the checkpoint durably through [`crate::store`]: checksum
    /// footer, temp file + fsync + atomic rename + directory fsync. A
    /// kill mid-write leaves the previous checkpoint intact; a host crash
    /// after return cannot lose it.
    fn save(&self) -> Result<(), Error> {
        let json = serde_json::to_string_pretty(&self.checkpoint)
            .map_err(|e| Error::config(format!("serializing checkpoint: {e}")))?;
        crate::store::write_durable(&self.path, json.as_bytes())
    }
}

/// The process-global active session, if any.
static CURRENT: Mutex<Option<Arc<Mutex<Session>>>> = Mutex::new(None);

fn lock_current() -> std::sync::MutexGuard<'static, Option<Arc<Mutex<Session>>>> {
    // A poisoned registry lock only means some thread panicked mid-swap;
    // the Option inside is still valid.
    CURRENT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `session` as the process-global session, returning the shared
/// handle. Replaces any previous session.
pub fn install(session: Session) -> Arc<Mutex<Session>> {
    let handle = Arc::new(Mutex::new(session));
    *lock_current() = Some(Arc::clone(&handle));
    handle
}

/// Removes the global session (end of experiment).
pub fn clear() {
    *lock_current() = None;
}

/// The currently-installed session, if any.
pub fn current() -> Option<Arc<Mutex<Session>>> {
    lock_current().clone()
}

/// Serializes tests that touch the process-global session (or run
/// matrices, which consult it), so parallel test threads don't record
/// cells into each other's sessions.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccraft-checkpoint-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ok_record(key: &str) -> CellRecord {
        CellRecord {
            key: key.to_string(),
            status: STATUS_OK.to_string(),
            message: None,
            attempts: 1,
            history: vec!["attempt 1: ok".to_string()],
            stats: Some(sample_stats()),
            cache: String::new(),
        }
    }

    fn sample_stats() -> SimStats {
        SimStats {
            kernel: "k".into(),
            scheme: "s".into(),
            cycles: 10,
            exec_cycles: 8,
            timed_out: false,
            ops: 4,
            accesses: 4,
            l1_read_hits: 0,
            l1_read_misses: 0,
            l2_read_hits: 0,
            l2_read_misses: 0,
            l2_fills: 0,
            l2_writebacks: 0,
            dram: [1, 0, 0, 0],
            row_hits: 0,
            row_empties: 0,
            row_conflicts: 0,
            refreshes: 0,
            mean_read_latency: 0.0,
            protection: Default::default(),
            latency_hist: None,
            timeline: None,
            faults: None,
        }
    }

    #[test]
    fn record_then_resume_round_trips() {
        let path = tmpdir("roundtrip").join("checkpoint.json");
        let _ = std::fs::remove_file(&path);
        let mut s = Session::start("exp/small/1", path.clone(), false);
        s.record(ok_record("m0/vecadd/cachecraft")).unwrap();
        s.record(CellRecord {
            key: "m0/spmv/cachecraft".into(),
            status: STATUS_FAILED.into(),
            message: Some("boom".into()),
            attempts: 2,
            history: vec![
                "attempt 1: failed: boom".to_string(),
                "attempt 2: failed: boom".to_string(),
            ],
            stats: None,
            cache: String::new(),
        })
        .unwrap();

        let resumed = Session::start("exp/small/1", path.clone(), true);
        assert!(resumed.resumable("m0/vecadd/cachecraft").is_some());
        // Failed cells are not skippable: they re-run.
        assert!(resumed.resumable("m0/spmv/cachecraft").is_none());
        assert_eq!(resumed.cells().len(), 2);
        assert_eq!(resumed.failed_cells(), 1);
        // Attempt history round-trips through the durable store.
        let failed = resumed
            .cells()
            .iter()
            .find(|c| c.key == "m0/spmv/cachecraft")
            .unwrap();
        assert_eq!(failed.history.len(), 2);
        assert!(
            failed.history[0].contains("attempt 1"),
            "{:?}",
            failed.history
        );
        let msgs = resumed.failure_messages();
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("boom"), "{msgs:?}");
    }

    #[test]
    fn without_resume_existing_checkpoint_is_ignored() {
        let path = tmpdir("noresume").join("checkpoint.json");
        let _ = std::fs::remove_file(&path);
        let mut s = Session::start("f", path.clone(), false);
        s.record(ok_record("m0/a/b")).unwrap();
        let fresh = Session::start("f", path, false);
        assert!(fresh.resumable("m0/a/b").is_none());
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let path = tmpdir("mismatch").join("checkpoint.json");
        let _ = std::fs::remove_file(&path);
        let mut s = Session::start("exp/small/1", path.clone(), false);
        s.record(ok_record("m0/a/b")).unwrap();
        let other = Session::start("exp/full/2", path, true);
        assert!(other.resumable("m0/a/b").is_none());
        assert!(other.cells().is_empty());
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_not_dropped() {
        let dir = tmpdir("corrupt");
        let path = dir.join("checkpoint.json");
        let _ = std::fs::remove_file(dir.join("checkpoint.json.corrupt-0"));
        std::fs::write(&path, "{ not json").unwrap();
        let s = Session::start("f", path.clone(), true);
        assert!(s.cells().is_empty());
        // The original bytes are preserved for post-mortem, and the
        // problem is surfaced for the manifest.
        assert!(!path.exists(), "corrupt checkpoint must be moved aside");
        let q = dir.join("checkpoint.json.corrupt-0");
        assert_eq!(std::fs::read_to_string(&q).unwrap(), "{ not json");
        assert_eq!(s.warnings().len(), 1);
        assert!(s.warnings()[0].contains("corrupt-0"), "{:?}", s.warnings());
        let _ = std::fs::remove_file(q);
    }

    #[test]
    fn checksum_corrupt_checkpoint_is_quarantined() {
        let dir = tmpdir("crccorrupt");
        let path = dir.join("checkpoint.json");
        let _ = std::fs::remove_file(dir.join("checkpoint.json.corrupt-0"));
        let mut s = Session::start("f", path.clone(), false);
        s.record(ok_record("m0/a/b")).unwrap();
        drop(s);
        // Flip a payload byte under the checksum footer.
        let mut raw = std::fs::read(&path).unwrap();
        raw[2] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let fresh = Session::start("f", path.clone(), true);
        assert!(fresh.cells().is_empty());
        assert!(!path.exists());
        assert!(dir.join("checkpoint.json.corrupt-0").exists());
        assert!(
            fresh.warnings().iter().any(|w| w.contains("verification")),
            "{:?}",
            fresh.warnings()
        );
        let _ = std::fs::remove_file(dir.join("checkpoint.json.corrupt-0"));
    }

    #[test]
    fn legacy_footerless_checkpoint_still_resumes() {
        let dir = tmpdir("legacyresume");
        let path = dir.join("checkpoint.json");
        let _ = std::fs::remove_file(&path);
        // Write a valid checkpoint through the store, then strip the
        // footer to simulate a file from before the store existed.
        let mut s = Session::start("f", path.clone(), false);
        s.record(ok_record("m0/a/b")).unwrap();
        drop(s);
        let raw = std::fs::read(&path).unwrap();
        let payload = crate::store::strip_footer(&raw).to_vec();
        std::fs::write(&path, &payload).unwrap();
        let resumed = Session::start("f", path.clone(), true);
        assert!(resumed.resumable("m0/a/b").is_some());
        assert!(resumed.warnings().is_empty());
        // Cells written by the channel-sharded engine also carried a
        // `sim_threads` field; it is ignored on read.
        let old = String::from_utf8(payload).unwrap();
        let with_threads = old.replacen("\"key\":", "\"sim_threads\": 4, \"key\":", 1);
        assert_ne!(old, with_threads, "no cell record to extend");
        std::fs::write(&path, with_threads).unwrap();
        let resumed = Session::start("f", path, true);
        assert!(resumed.resumable("m0/a/b").is_some());
        assert!(resumed.warnings().is_empty());
    }

    #[test]
    fn records_replace_same_key() {
        let path = tmpdir("replace").join("checkpoint.json");
        let _ = std::fs::remove_file(&path);
        let mut s = Session::start("f", path, false);
        s.record(CellRecord {
            key: "m0/a/b".into(),
            status: STATUS_TIMEOUT.into(),
            message: Some("timed out after 1s".into()),
            attempts: 1,
            history: Vec::new(),
            stats: None,
            cache: String::new(),
        })
        .unwrap();
        s.record(ok_record("m0/a/b")).unwrap();
        assert_eq!(s.cells().len(), 1);
        assert!(s.cells()[0].is_ok());
    }

    #[test]
    fn matrix_prefixes_count_up() {
        let path = tmpdir("prefix").join("checkpoint.json");
        let mut s = Session::start("f", path, false);
        assert_eq!(s.next_matrix_prefix(), "m0");
        assert_eq!(s.next_matrix_prefix(), "m1");
    }

    #[test]
    fn global_install_and_clear() {
        let _guard = test_guard();
        let path = tmpdir("global").join("checkpoint.json");
        let handle = install(Session::start("f", path, false));
        let got = current().expect("session installed");
        assert!(Arc::ptr_eq(&handle, &got));
        clear();
        assert!(current().is_none());
    }
}
