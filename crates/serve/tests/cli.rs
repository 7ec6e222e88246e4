//! The `ccx` front end as a process: experiment ids and unknown-flag
//! reporting.

use ccraft_telemetry::manifest::RunManifest;
use std::path::PathBuf;
use std::process::{Command, Output};

fn ccx(args: &[&str], results: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccx"))
        .args(args)
        .env("CCRAFT_RESULTS", results)
        .env("CCRAFT_PROGRESS", "0")
        .output()
        .expect("run ccx")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccraft-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_ids() {
    let dir = temp_dir("exp");
    for args in [&["exp", "nosuch"][..], &["exp"], &["exp", "--size", "tiny"]] {
        let out = ccx(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("valid ids: all config workloads motivation"),
            "{stderr}"
        );
        assert!(stderr.contains(" faults ") && stderr.contains(" tagged"));
    }
    let ran_nothing = std::fs::read_dir(&dir).expect("list").next().is_none();
    assert!(ran_nothing, "an unknown id must not run anything");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misspelled_run_flags_are_reported_not_ignored() {
    let dir = temp_dir("run");
    let out = ccx(
        &[
            "run",
            "--workload",
            "vecadd",
            "--scheme",
            "off",
            "--sise",
            "tiny",
        ],
        &dir,
    );
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: unrecognized flag(s): --sise"),
        "{stderr}"
    );
    let (manifest, _) =
        ccraft_harness::store::read_verified_string(&dir.join("manifest.json")).expect("manifest");
    let manifest: RunManifest = serde_json::from_str(&manifest).expect("manifest json");
    assert_eq!(manifest.warnings, ["unrecognized flag: --sise"]);
    // The typo changed nothing: the run used the default size.
    assert_eq!(manifest.size, "small");
    // Known flags still parse, and malformed values still fail.
    let out = ccx(&["run", "--workload", "vecadd", "--seed", "x"], &dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = ccx(&["reliability", "--trials", "10", "--codex", "rs36"], &dir);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--codex"), "{stderr}");
    // perf-diff rejects unknown flags outright, including the bench
    // record and threshold flags it once took.
    for flag in [
        "--bench-a",
        "--threshold-pct",
        "--hit-threshold-pts",
        "--min-wall-delta",
    ] {
        let out = ccx(&["perf-diff", "a", "b", flag, "10"], &dir);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag \"{flag}\"")),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn perf_diff_refuses_runs_with_different_worker_counts() {
    let dir = temp_dir("threads");
    let mut dirs = Vec::new();
    for threads in [1, 2] {
        let mut manifest = RunManifest::new("exp-all");
        manifest.size = "tiny".to_string();
        manifest.seed = 1;
        manifest.threads = threads;
        manifest.wall_time_secs = 10.0;
        let run = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&run).expect("create run dir");
        std::fs::write(run.join("manifest.json"), manifest.to_json()).expect("write manifest");
        dirs.push(run.to_string_lossy().into_owned());
    }
    let out = ccx(&["perf-diff", &dirs[0], &dirs[1]], &dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("threads differ: 1 vs 2"), "{stderr}");
    let out = ccx(&["perf-diff", &dirs[0], &dirs[1], "--force"], &dir);
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
