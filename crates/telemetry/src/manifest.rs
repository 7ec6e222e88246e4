//! Run manifests: a `manifest.json` written next to every experiment's
//! results, recording what produced them.

use serde::{Deserialize, Serialize};
use std::time::{SystemTime, UNIX_EPOCH};

/// Build/host provenance captured into the manifest so tools like
/// `ccx perf-diff` can refuse to compare runs from different toolchains
/// or machines. Every field degrades to `"unknown"` (or empty) when the
/// probe fails — provenance capture must never fail a run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Provenance {
    /// `rustc -V` of the toolchain that built the binary's environment.
    #[serde(default)]
    pub rustc: String,
    /// `git rev-parse HEAD` of the working tree, with a `-dirty` suffix
    /// when the tree had uncommitted changes; `"unknown"` outside a repo.
    #[serde(default)]
    pub git_commit: String,
    /// Hostname the run executed on.
    #[serde(default)]
    pub hostname: String,
    /// Cargo feature flags that alter runtime behavior (e.g.
    /// `check-invariants`), pushed by the caller — the library cannot see
    /// the binary's feature set.
    #[serde(default)]
    pub features: Vec<String>,
}

impl Provenance {
    /// Captures toolchain, commit, and hostname from the environment.
    /// `features` is left empty for the caller to fill.
    pub fn capture() -> Self {
        Provenance {
            rustc: probe_cmd("rustc", &["-V"]),
            git_commit: capture_git_commit(),
            hostname: capture_hostname(),
            features: Vec::new(),
        }
    }

    /// True when nothing was captured (used to omit the manifest field).
    pub fn is_empty(&self) -> bool {
        self == &Provenance::default()
    }
}

/// Runs a command and returns its trimmed stdout, or `"unknown"`.
fn probe_cmd(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn capture_git_commit() -> String {
    let commit = probe_cmd("git", &["rev-parse", "HEAD"]);
    if commit == "unknown" {
        return commit;
    }
    // `git status --porcelain` prints nothing when the tree is clean.
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{commit}-dirty")
    } else {
        commit
    }
}

fn capture_hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| probe_cmd("uname", &["-n"]))
}

/// Per-cell execution provenance: what actually happened to one matrix
/// cell, as opposed to what was requested for the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellManifest {
    /// Cell identifier: `m<call>/<workload>/<scheme>` in experiment runs,
    /// `<workload>/<scheme>` in the daemon's and `ccx`'s manifests.
    pub cell: String,
    /// Result-cache disposition: `"hit"` (served from the
    /// content-addressed cache, no simulation), `"miss"` (simulated and
    /// inserted), or `"uncached"` (no cache in play).
    #[serde(default)]
    pub cache: String,
    /// Final cell status (`"ok"` / `"failed"` / `"timeout"`).
    #[serde(default)]
    pub status: String,
}

/// Description of one completed experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment name (e.g. `"f4-main"` or `"ccx-run"`).
    pub experiment: String,
    /// The argv the run was invoked with.
    pub command: Vec<String>,
    /// Size class the run used (`tiny` / `small` / `full`).
    pub size: String,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_secs: f64,
    /// Completion time, milliseconds since the Unix epoch.
    pub completed_unix_ms: u64,
    /// Free-form telemetry summary (metric name, value), e.g. matrix
    /// cell counts or headline latency percentiles.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub summary: Vec<(String, f64)>,
    /// Files written by the run, relative to the results directory.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub outputs: Vec<String>,
    /// Non-fatal problems the run survived: failed or timed-out matrix
    /// cells (with their panic messages), skipped artifacts, and similar.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<String>,
    /// Per-cell execution provenance (cache disposition, status). Empty in manifests from before it existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub cells: Vec<CellManifest>,
    /// Build/host provenance; absent in manifests from before it existed.
    #[serde(default, skip_serializing_if = "Provenance::is_empty")]
    pub provenance: Provenance,
}

impl RunManifest {
    /// Creates a manifest skeleton for an experiment; the caller fills
    /// in timing, summary and outputs as the run proceeds.
    pub fn new(experiment: &str) -> Self {
        RunManifest {
            experiment: experiment.to_string(),
            command: std::env::args().collect(),
            size: String::new(),
            seed: 0,
            threads: 0,
            wall_time_secs: 0.0,
            completed_unix_ms: 0,
            summary: Vec::new(),
            outputs: Vec::new(),
            warnings: Vec::new(),
            cells: Vec::new(),
            provenance: Provenance::default(),
        }
    }

    /// Records one cell's execution provenance.
    pub fn record_cell(&mut self, cell: CellManifest) {
        self.cells.push(cell);
    }

    /// Adds a named metric to the summary.
    pub fn note(&mut self, name: &str, value: f64) {
        self.summary.push((name.to_string(), value));
    }

    /// Records a written output file.
    pub fn output(&mut self, path: &str) {
        self.outputs.push(path.to_string());
    }

    /// Records a non-fatal problem (e.g. a failed matrix cell).
    pub fn warn(&mut self, message: impl Into<String>) {
        self.warnings.push(message.into());
    }

    /// Stamps the completion time from the system clock and captures
    /// build/host provenance if the caller has not already set it
    /// (feature flags already pushed into `provenance` are preserved).
    pub fn stamp(&mut self) {
        self.completed_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        if self.provenance.rustc.is_empty() {
            let features = std::mem::take(&mut self.provenance.features);
            self.provenance = Provenance::capture();
            self.provenance.features = features;
        }
    }

    /// Serializes the manifest as pretty JSON.
    // Serializing a plain-old-data struct cannot fail; a panic here means
    // the derive or the vendored serde_json is broken.
    #[allow(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let mut m = RunManifest::new("f4-main");
        m.size = "tiny".to_string();
        m.seed = 42;
        m.threads = 4;
        m.wall_time_secs = 1.25;
        m.note("cells", 8.0);
        m.output("f4_main.csv");
        m.warn("cell m0/spmv/cachecraft failed: boom");
        m.stamp();
        let json = m.to_json();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        assert!(back.completed_unix_ms > 0);
        assert_eq!(back.warnings.len(), 1);
        // stamp() captured provenance; fields are never empty strings.
        assert!(!back.provenance.rustc.is_empty());
        assert!(!back.provenance.git_commit.is_empty());
        assert!(!back.provenance.hostname.is_empty());
    }

    #[test]
    fn empty_sections_are_omitted() {
        let m = RunManifest::new("x");
        let json = m.to_json();
        assert!(!json.contains("summary"));
        assert!(!json.contains("outputs"));
        assert!(!json.contains("warnings"));
        assert!(!json.contains("provenance"));
    }

    #[test]
    fn stamp_preserves_caller_features() {
        let mut m = RunManifest::new("x");
        m.provenance.features = vec!["check-invariants".to_string()];
        m.stamp();
        assert_eq!(m.provenance.features, vec!["check-invariants"]);
        assert!(!m.provenance.rustc.is_empty());
    }

    #[test]
    fn cell_records_round_trip() {
        let mut m = RunManifest::new("x");
        for (cell, cache) in [
            ("m0/vecadd/cachecraft", "hit"),
            ("m0/saxpy/cachecraft", "miss"),
        ] {
            m.record_cell(CellManifest {
                cell: cell.to_string(),
                cache: cache.to_string(),
                status: "ok".to_string(),
            });
        }
        let back: RunManifest = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back.cells, m.cells);
    }

    #[test]
    fn manifests_without_provenance_still_parse() {
        let json = r#"{
            "experiment": "old",
            "command": ["exp-all"],
            "size": "tiny",
            "seed": 1,
            "threads": 2,
            "wall_time_secs": 0.5,
            "completed_unix_ms": 123
        }"#;
        let m: RunManifest = serde_json::from_str(json).unwrap();
        assert!(m.provenance.is_empty());
        // Manifests from the channel-sharded engine carried a top-level
        // and a per-cell `sim_threads`; readers ignore both.
        let json = r#"{
            "experiment": "old",
            "command": ["exp-all", "--sim-threads", "4"],
            "size": "tiny",
            "seed": 1,
            "threads": 2,
            "sim_threads": 4,
            "wall_time_secs": 0.5,
            "completed_unix_ms": 123,
            "cells": [
                {"cell": "m0/vecadd/cachecraft", "sim_threads": 4,
                 "cache": "miss", "status": "ok"}
            ]
        }"#;
        let m: RunManifest = serde_json::from_str(json).unwrap();
        assert_eq!(m.threads, 2);
        assert_eq!(m.cells.len(), 1);
        assert_eq!(m.cells[0].cache, "miss");
        assert_eq!(m.cells[0].status, "ok");
        assert!(!m.to_json().contains("sim_threads"));
    }
}
