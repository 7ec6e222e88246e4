//! Process-level crash-resilience: kill a running experiment and resume
//! it through its cell cache, `results/cells/`.
//!
//! Drives the actual `ccx exp faults` process (not an in-process
//! harness), so the whole chain is exercised: option parsing, the global
//! run, atomic cache-entry writes surviving a SIGKILL, and `--resume`
//! serving finished cells as cache hits.

use ccraft_harness::checkpoint::Checkpoint;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `ccx exp <id>` as a command, ready for further arguments.
fn exp(id: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ccx"));
    cmd.args(["exp", id]);
    cmd
}

/// Cells exp-faults runs: SWEEP_SUBSET (6 workloads) × 4 headline schemes.
const TOTAL_CELLS: usize = 24;

/// The ledger a completed run writes.
fn read_checkpoint(path: &Path) -> Option<Checkpoint> {
    let (text, _verified) = ccraft_harness::store::read_verified_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn ok_cells(cp: &Checkpoint) -> usize {
    cp.cells.iter().filter(|c| c.is_ok()).count()
}

/// The entries of a run's cell cache.
fn cache_entries(results: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(results.join("cells"))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default()
}

/// `(hits, cells)` from a run's `cell cache: <hits>/<cells> cells hit`
/// summary line.
fn cache_summary(stderr: &str) -> (usize, usize) {
    stderr
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix("cell cache: ")?;
            let (hits, rest) = rest.split_once('/')?;
            let cells = rest.split(' ').next()?;
            Some((hits.parse().ok()?, cells.parse().ok()?))
        })
        .unwrap_or_else(|| panic!("no cell cache summary in: {stderr}"))
}

/// Quarantine files (`*.corrupt-*`) in a results directory and its cell
/// cache.
fn corrupt_files(results: &Path) -> Vec<PathBuf> {
    [results.to_path_buf(), results.join("cells")]
        .iter()
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flat_map(|entries| entries.flatten().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().contains(".corrupt-"))
        .collect()
}

#[test]
fn killed_experiment_resumes_from_checkpoint() {
    let dir = std::env::temp_dir().join(format!("ccraft-kill-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("checkpoint.json");
    let base_args = ["--size", "tiny", "--threads", "1", "--seed", "3"];

    // First run: kill it as soon as some (but not all) cells are cached.
    // Single-threaded tiny cells take long enough that the poll wins the
    // race in practice; if the run still finishes first, the resume below
    // degenerates to "hit everything", which is also a valid round-trip.
    let mut child = exp("faults")
        .args(base_args)
        .env("CCRAFT_RESULTS", &dir)
        .env("CCRAFT_PROGRESS", "0")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn exp-faults");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut first_run_completed = false;
    loop {
        if cache_entries(&dir).len() >= 2 {
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            first_run_completed = true;
            break;
        }
        assert!(Instant::now() < deadline, "first run made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    if !first_run_completed {
        child.kill().expect("kill exp-faults");
        let _ = child.wait();
    }

    let cells_after_kill = cache_entries(&dir).len();
    assert!(cells_after_kill >= 2, "kill happened after >= 2 cells");
    if !first_run_completed {
        assert!(
            cells_after_kill < TOTAL_CELLS,
            "kill should interrupt mid-run (got all {TOTAL_CELLS} cells)"
        );
    }

    // Second run resumes: everything already cached must hit, and the
    // rest runs.
    let out = exp("faults")
        .args(base_args)
        .arg("--resume")
        .env("CCRAFT_RESULTS", &dir)
        .env("CCRAFT_PROGRESS", "0")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run exp-faults --resume");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume run failed: {stderr}");
    let (hits, cells) = cache_summary(&stderr);
    assert!(
        hits >= cells_after_kill,
        "resume must hit at least the {cells_after_kill} cells cached at kill time, hit {hits}"
    );
    assert_eq!(cells, TOTAL_CELLS);

    // Final ledger: the full matrix, all ok, hits and the cells the
    // resume ran together.
    let final_cp = read_checkpoint(&checkpoint_path).expect("final checkpoint");
    assert_eq!(final_cp.experiment, "exp-faults");
    assert_eq!(final_cp.cells.len(), TOTAL_CELLS);
    assert_eq!(ok_cells(&final_cp), TOTAL_CELLS);
    let hit_records = final_cp.cells.iter().filter(|c| c.cache == "hit").count();
    assert_eq!(hit_records, hits);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generalizes the single-kill test into a sweep: SIGKILL the experiment
/// at several different cache depths, resuming after each, and assert
/// the final `--resume` leaves a complete, checksum-valid results
/// directory — every CSV verifies through the store and the ledger holds
/// the whole matrix.
#[test]
fn kill_point_sweep_recovers_at_every_depth() {
    let dir = std::env::temp_dir().join(format!("ccraft-kill-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("checkpoint.json");
    let base_args = ["--size", "tiny", "--threads", "1", "--seed", "5"];

    // Kill once the cache first reaches each of these depths. A fast
    // machine may blow past a target (or finish); both degrade safely.
    let mut completed = false;
    for (round, target) in [1usize, 4, 9].into_iter().enumerate() {
        let mut cmd = exp("faults");
        cmd.args(base_args);
        if round > 0 {
            cmd.arg("--resume");
        }
        let mut child = cmd
            .env("CCRAFT_RESULTS", &dir)
            .env("CCRAFT_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn exp-faults");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if cache_entries(&dir).len() >= target {
                break;
            }
            if child.try_wait().expect("poll child").is_some() {
                completed = true;
                break;
            }
            assert!(
                Instant::now() < deadline,
                "round {round} made no progress toward {target} cells"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        if completed {
            break;
        }
        child.kill().expect("kill exp-faults");
        let _ = child.wait();
        // Whatever survived each kill must be valid cache entries: atomic
        // rename means we never observe a torn file.
        for entry in cache_entries(&dir) {
            let v = ccraft_harness::store::read_verified(&entry).expect("entry readable");
            assert!(v.verified, "{} must verify after a kill", entry.display());
        }
    }

    // Final resume runs the remainder to completion.
    let out = exp("faults")
        .args(base_args)
        .arg("--resume")
        .env("CCRAFT_RESULTS", &dir)
        .env("CCRAFT_PROGRESS", "0")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("final resume");
    assert!(out.status.success(), "final resume failed");
    let final_cp = read_checkpoint(&checkpoint_path).expect("final checkpoint");
    assert_eq!(ok_cells(&final_cp), TOTAL_CELLS);

    // The resumed run rewrote complete, checksum-valid CSVs.
    let csvs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .collect();
    assert!(!csvs.is_empty(), "exp-faults must emit at least one CSV");
    for entry in csvs {
        let v = ccraft_harness::store::read_verified(&entry.path()).expect("CSV readable");
        assert!(
            v.verified,
            "{:?} must carry a valid checksum footer",
            entry.file_name()
        );
        assert!(!v.payload.is_empty());
    }
    // No quarantine files: SIGKILL must never corrupt the store's files,
    // cache entries included.
    let corrupt = corrupt_files(&dir);
    assert!(corrupt.is_empty(), "kill left corrupt files: {corrupt:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_a_complete_run_executes_nothing() {
    let dir = std::env::temp_dir().join(format!("ccraft-full-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base_args = ["--size", "tiny", "--threads", "2", "--seed", "9"];

    let run = |resume: bool| {
        let mut cmd = exp("faults");
        cmd.args(base_args);
        if resume {
            cmd.arg("--resume");
        }
        cmd.env("CCRAFT_RESULTS", &dir)
            .env("CCRAFT_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run exp-faults")
    };
    let first = run(false);
    assert!(first.status.success());
    let second = run(true);
    assert!(second.status.success());
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert_eq!(
        cache_summary(&stderr),
        (TOTAL_CELLS, TOTAL_CELLS),
        "every cell of a complete run must hit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// F7's six CacheCraft variants share the scheme name `cachecraft`; a
/// resume must still serve each variant its own result.
#[test]
fn resumed_ablation_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ccraft-ablation-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |resume: bool| {
        let mut cmd = exp("ablation");
        cmd.args(["--size", "tiny", "--threads", "2"]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd
            .env("CCRAFT_RESULTS", &dir)
            .env("CCRAFT_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run exp-ablation");
        assert!(out.status.success(), "{out:?}");
        let csv = std::fs::read(dir.join("f7_ablation.csv")).expect("f7_ablation.csv");
        (csv, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (fresh, _) = run(false);
    let (resumed, stderr) = run(true);
    assert!(fresh == resumed, "f7_ablation.csv changed across --resume");
    let (hits, cells) = cache_summary(&stderr);
    assert_eq!(hits, cells, "the resume simulates nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
