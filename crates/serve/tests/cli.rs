//! The `ccx` front end as a process: experiment ids, chaos-soak argument
//! checks, and unknown-flag reporting.

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
fn chaos_soak_of_an_unknown_experiment_fails_before_spawning() {
    let dir = temp_dir("soak");
    // The soak puts its reference and chaos runs under the temp dir.
    let out = Command::new(env!("CARGO_BIN_EXE_ccx"))
        .args(["chaos-soak", "nosuch", "--size", "tiny", "--kills", "0"])
        .env("TMPDIR", &dir)
        .output()
        .expect("run ccx chaos-soak");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("valid ids: all config"), "{stderr}");
    let created: Vec<_> = std::fs::read_dir(&dir).expect("list").flatten().collect();
    assert!(created.is_empty(), "soak created {created:?}");
    // `smoke` is not a size.
    let out = ccx(&["chaos-soak", "main", "--size", "smoke"], &dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
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
    let _ = std::fs::remove_dir_all(&dir);
}
