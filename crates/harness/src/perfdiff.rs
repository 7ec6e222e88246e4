//! Cross-run performance diffing: the engine behind `ccx perf-diff`.
//!
//! A *run directory* is any results directory with a `manifest.json`
//! (every `ccx exp` and `ccx run` writes one); `profile.json` (from
//! `ccx run --profile`) and a `BENCH_*.json` record (from
//! `scripts/bench_smoke`) are joined when present. Two runs are
//! *comparable* when experiment id, size, seed, and feature flags all
//! match — differing toolchains or hosts are reported but allowed, since
//! comparing across machines is often the point. `--force` overrides
//! the comparability check.
//!
//! The diff emits one row per metric with run-A / run-B values and the
//! relative delta, and flags a **regression** when run B is worse than
//! run A beyond the configured threshold. Wall-clock metrics are noisy
//! on tiny runs, so they additionally require an absolute wall-time
//! drift of at least [`DiffOptions::min_wall_delta_secs`] before they
//! can regress; simulator-derived metrics (memo hit rates, channel
//! imbalance) are deterministic for identical configurations and use no
//! floor. Exit-code mapping lives in `ccx`: 0 clean, 1 regression,
//! 2 incomparable / unusable input.

use crate::error::Error;
use ccraft_telemetry::manifest::RunManifest;
use ccraft_telemetry::profiler::ProfileReport;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Default relative threshold (percent) for wall-clock metrics.
pub const DEFAULT_WALL_THRESHOLD_PCT: f64 = 10.0;
/// Default absolute threshold (percentage points) for hit-rate metrics.
pub const DEFAULT_HIT_THRESHOLD_PTS: f64 = 5.0;
/// Default absolute wall-time drift floor (seconds) below which
/// wall-clock metrics never count as regressions.
pub const DEFAULT_MIN_WALL_DELTA_SECS: f64 = 0.1;

/// Thresholds and switches for one diff.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative regression threshold for wall-clock metrics, percent.
    pub wall_threshold_pct: f64,
    /// Absolute regression threshold for hit rates, percentage points.
    pub hit_threshold_pts: f64,
    /// Wall-time drift floor, seconds (noise guard for tiny runs).
    pub min_wall_delta_secs: f64,
    /// Compare even when the runs are incomparable.
    pub force: bool,
    /// Explicit bench record for run A (default: newest `BENCH_*.json`
    /// in the run directory, if any).
    pub bench_a: Option<PathBuf>,
    /// Explicit bench record for run B.
    pub bench_b: Option<PathBuf>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            wall_threshold_pct: DEFAULT_WALL_THRESHOLD_PCT,
            hit_threshold_pts: DEFAULT_HIT_THRESHOLD_PTS,
            min_wall_delta_secs: DEFAULT_MIN_WALL_DELTA_SECS,
            force: false,
            bench_a: None,
            bench_b: None,
        }
    }
}

/// One `BENCH_*.json` record as written by `scripts/bench_smoke`.
/// Schema documented in DESIGN.md ("Performance observatory").
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Format version: 3 since the record dropped schema 2's
    /// thread-count sweep (whose extra fields are ignored on read).
    #[serde(default)]
    pub schema: u64,
    /// UTC timestamp of the bench run (RFC 3339).
    #[serde(default)]
    pub date_utc: String,
    /// Host the bench ran on.
    #[serde(default)]
    pub host: String,
    /// `rustc -V` of the toolchain.
    #[serde(default)]
    pub rustc: String,
    /// Size class of the sweep (`tiny` / `small` / `full`).
    #[serde(default)]
    pub size: String,
    /// RNG seed of the sweep.
    #[serde(default)]
    pub seed: u64,
    /// Wall time of the sweep, seconds.
    #[serde(default)]
    pub wall_time_secs: f64,
    /// Matrix cells executed.
    #[serde(default)]
    pub cells: u64,
    /// Throughput, cells per second.
    #[serde(default)]
    pub cells_per_sec: f64,
}

/// Everything loadable from one run directory.
#[derive(Debug)]
pub struct RunSnapshot {
    /// The run directory.
    pub dir: PathBuf,
    /// Parsed `manifest.json` (required).
    pub manifest: RunManifest,
    /// Parsed `profile.json`, when present.
    pub profile: Option<ProfileReport>,
    /// Parsed bench record, when present.
    pub bench: Option<BenchRecord>,
}

impl RunSnapshot {
    /// Loads a run directory. `manifest.json` is required; profile and
    /// bench records are joined when found (`bench_override` wins over
    /// directory discovery).
    pub fn load(dir: &Path, bench_override: Option<&Path>) -> Result<RunSnapshot, Error> {
        // Store-written artifacts carry a checksum footer; a corrupt
        // manifest or profile is a hard error (quarantined by the read),
        // never a silently-wrong comparison.
        let manifest_path = dir.join("manifest.json");
        let (text, _) = crate::store::read_verified_string(&manifest_path)?;
        let manifest: RunManifest = serde_json::from_str(&text)
            .map_err(|e| Error::config(format!("parse {}: {e}", manifest_path.display())))?;
        let profile_path = dir.join("profile.json");
        let profile =
            if profile_path.is_file() {
                let (text, _) = crate::store::read_verified_string(&profile_path)?;
                Some(serde_json::from_str::<ProfileReport>(&text).map_err(|e| {
                    Error::config(format!("parse {}/profile.json: {e}", dir.display()))
                })?)
            } else {
                None
            };
        let bench_path = match bench_override {
            Some(p) => Some(p.to_path_buf()),
            None => newest_bench_file(dir),
        };
        let bench = match bench_path {
            Some(p) => {
                let (text, _) = crate::store::read_verified_string(&p)?;
                Some(
                    serde_json::from_str::<BenchRecord>(&text)
                        .map_err(|e| Error::config(format!("parse {}: {e}", p.display())))?,
                )
            }
            None => None,
        };
        Ok(RunSnapshot {
            dir: dir.to_path_buf(),
            manifest,
            profile,
            bench,
        })
    }

    /// Matrix cells in the run, from the manifest summary (`cells` or
    /// `checkpoint_cells`, whichever the experiment recorded).
    pub fn cells(&self) -> Option<f64> {
        for key in ["cells", "checkpoint_cells"] {
            if let Some((_, v)) = self.manifest.summary.iter().find(|(k, _)| k == key) {
                return Some(*v);
            }
        }
        None
    }

    /// Run throughput in cells per second, when derivable.
    pub fn cells_per_sec(&self) -> Option<f64> {
        let cells = self.cells()?;
        if self.manifest.wall_time_secs > 0.0 {
            Some(cells / self.manifest.wall_time_secs)
        } else {
            None
        }
    }
}

/// Newest `BENCH_*.json` in `dir` (lexicographic order — the filenames
/// embed a sortable UTC timestamp).
fn newest_bench_file(dir: &Path) -> Option<PathBuf> {
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    candidates.sort();
    candidates.pop()
}

/// Checks that two runs can be meaningfully compared: same experiment,
/// size, seed and feature flags. Returns the reasons they cannot.
pub fn comparability(a: &RunSnapshot, b: &RunSnapshot) -> Vec<String> {
    let mut reasons = Vec::new();
    let ma = &a.manifest;
    let mb = &b.manifest;
    if ma.experiment != mb.experiment {
        reasons.push(format!(
            "experiment differs: {} vs {}",
            ma.experiment, mb.experiment
        ));
    }
    if ma.size != mb.size {
        reasons.push(format!("size differs: {} vs {}", ma.size, mb.size));
    }
    if ma.seed != mb.seed {
        reasons.push(format!("seed differs: {} vs {}", ma.seed, mb.seed));
    }
    if ma.provenance.features != mb.provenance.features {
        reasons.push(format!(
            "feature flags differ: {:?} vs {:?}",
            ma.provenance.features, mb.provenance.features
        ));
    }
    reasons
}

/// One metric row in the diff table.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric name.
    pub metric: String,
    /// Run-A value.
    pub a: f64,
    /// Run-B value.
    pub b: f64,
    /// Relative delta in percent (B vs A), or absolute delta in
    /// percentage points for rate metrics.
    pub delta: f64,
    /// Unit of `delta` (`"%"` or `"pts"`).
    pub delta_unit: &'static str,
    /// True when B is worse than A beyond the threshold.
    pub regressed: bool,
}

/// A completed diff.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Metric rows, in emission order.
    pub rows: Vec<DiffRow>,
    /// Context lines (provenance drift, missing inputs, force notes).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Number of regressed rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Renders the report as a markdown table plus notes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let _ = writeln!(out, "| metric | run A | run B | delta | status |");
        let _ = writeln!(out, "|---|---:|---:|---:|---|");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {:.4} | {:.4} | {:+.2}{} | {} |",
                r.metric,
                r.a,
                r.b,
                r.delta,
                r.delta_unit,
                if r.regressed { "REGRESSED" } else { "ok" }
            );
        }
        let n = self.regressions();
        let _ = writeln!(
            out,
            "{}",
            if n == 0 {
                "perf-diff: no regressions".to_string()
            } else {
                format!("perf-diff: {n} regression(s)")
            }
        );
        out
    }
}

/// Relative delta of `b` vs `a`, in percent (0 when `a` is 0).
fn pct_delta(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a * 100.0
    }
}

/// Diffs two loaded runs. Pure: no I/O, fully deterministic, so the
/// regression logic is unit-testable with fixture snapshots.
pub fn diff(a: &RunSnapshot, b: &RunSnapshot, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    let pa = &a.manifest.provenance;
    let pb = &b.manifest.provenance;
    if pa.rustc != pb.rustc && !(pa.rustc.is_empty() && pb.rustc.is_empty()) {
        report
            .notes
            .push(format!("toolchain differs: {} vs {}", pa.rustc, pb.rustc));
    }
    if pa.hostname != pb.hostname && !(pa.hostname.is_empty() && pb.hostname.is_empty()) {
        report
            .notes
            .push(format!("host differs: {} vs {}", pa.hostname, pb.hostname));
    }
    if pa.git_commit != pb.git_commit && !(pa.git_commit.is_empty() && pb.git_commit.is_empty()) {
        report.notes.push(format!(
            "commit differs: {} vs {}",
            pa.git_commit, pb.git_commit
        ));
    }

    // Wall-clock metrics: noisy, so they need both the relative
    // threshold and the absolute drift floor.
    let wall_a = a.manifest.wall_time_secs;
    let wall_b = b.manifest.wall_time_secs;
    let wall_drifted = (wall_b - wall_a).abs() >= opts.min_wall_delta_secs;
    report.rows.push(DiffRow {
        metric: "wall_time_secs".to_string(),
        a: wall_a,
        b: wall_b,
        delta: pct_delta(wall_a, wall_b),
        delta_unit: "%",
        regressed: wall_drifted
            && wall_a > 0.0
            && pct_delta(wall_a, wall_b) > opts.wall_threshold_pct,
    });
    if let (Some(ca), Some(cb)) = (a.cells_per_sec(), b.cells_per_sec()) {
        report.rows.push(DiffRow {
            metric: "cells_per_sec".to_string(),
            a: ca,
            b: cb,
            delta: pct_delta(ca, cb),
            delta_unit: "%",
            regressed: wall_drifted && pct_delta(ca, cb) < -opts.wall_threshold_pct,
        });
    }

    // Profile metrics: deterministic for comparable runs, no floor.
    match (&a.profile, &b.profile) {
        (Some(prof_a), Some(prof_b)) => {
            let rate_row = |metric: &str, ra: f64, rb: f64| DiffRow {
                metric: metric.to_string(),
                a: ra,
                b: rb,
                delta: (rb - ra) * 100.0,
                delta_unit: "pts",
                // Lower hit rate = more work per cycle = regression.
                regressed: (ra - rb) * 100.0 > opts.hit_threshold_pts,
            };
            report.rows.push(rate_row(
                "sm_sleep_hit_rate",
                prof_a.mean_sm_sleep_hit_rate(),
                prof_b.mean_sm_sleep_hit_rate(),
            ));
            report.rows.push(rate_row(
                "scan_memo_hit_rate",
                prof_a.mean_scan_memo_hit_rate(),
                prof_b.mean_scan_memo_hit_rate(),
            ));
            let ia = prof_a.mean_busy_imbalance();
            let ib = prof_b.mean_busy_imbalance();
            report.rows.push(DiffRow {
                metric: "channel_busy_imbalance".to_string(),
                a: ia,
                b: ib,
                delta: pct_delta(ia, ib),
                delta_unit: "%",
                // A more skewed channel distribution is a regression.
                regressed: pct_delta(ia, ib) > opts.wall_threshold_pct,
            });
        }
        (None, None) => report.notes.push("no profiles to compare".to_string()),
        _ => report
            .notes
            .push("profile present in only one run; profile metrics skipped".to_string()),
    }

    // Bench records, when both runs have one.
    match (&a.bench, &b.bench) {
        (Some(ba), Some(bb)) => {
            let drifted = (bb.wall_time_secs - ba.wall_time_secs).abs() >= opts.min_wall_delta_secs;
            report.rows.push(DiffRow {
                metric: "bench_wall_time_secs".to_string(),
                a: ba.wall_time_secs,
                b: bb.wall_time_secs,
                delta: pct_delta(ba.wall_time_secs, bb.wall_time_secs),
                delta_unit: "%",
                regressed: drifted
                    && ba.wall_time_secs > 0.0
                    && pct_delta(ba.wall_time_secs, bb.wall_time_secs) > opts.wall_threshold_pct,
            });
            report.rows.push(DiffRow {
                metric: "bench_cells_per_sec".to_string(),
                a: ba.cells_per_sec,
                b: bb.cells_per_sec,
                delta: pct_delta(ba.cells_per_sec, bb.cells_per_sec),
                delta_unit: "%",
                regressed: drifted
                    && pct_delta(ba.cells_per_sec, bb.cells_per_sec) < -opts.wall_threshold_pct,
            });
        }
        (None, None) => {}
        _ => report
            .notes
            .push("bench record present in only one run; bench metrics skipped".to_string()),
    }
    report
}

/// Loads and diffs two run directories. Errors (unreadable inputs,
/// incomparable runs without `--force`) map to exit 2 in `ccx`.
pub fn perf_diff(dir_a: &Path, dir_b: &Path, opts: &DiffOptions) -> Result<DiffReport, Error> {
    let a = RunSnapshot::load(dir_a, opts.bench_a.as_deref())?;
    let b = RunSnapshot::load(dir_b, opts.bench_b.as_deref())?;
    let reasons = comparability(&a, &b);
    if !reasons.is_empty() && !opts.force {
        return Err(Error::config(format!(
            "runs are not comparable ({}); pass --force to diff anyway",
            reasons.join("; ")
        )));
    }
    let mut report = diff(&a, &b, opts);
    if !reasons.is_empty() {
        report
            .notes
            .insert(0, format!("forced diff: {}", reasons.join("; ")));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_telemetry::profiler::{CellProfile, ChannelLoad, SimProfile};
    use ccraft_telemetry::Counter;

    fn snapshot(wall: f64, sleep_hits: u64, sleep_misses: u64, busy: [u64; 2]) -> RunSnapshot {
        let mut manifest = RunManifest::new("test-exp");
        manifest.experiment = "test-exp".to_string();
        manifest.size = "tiny".to_string();
        manifest.seed = 1;
        manifest.wall_time_secs = wall;
        manifest.note("cells", 8.0);
        let mut profile = SimProfile {
            cycles: 1000,
            host_ns_total: (wall * 1e9) as u64,
            ..SimProfile::default()
        };
        profile.sm_sleep.hits = Counter(sleep_hits);
        profile.sm_sleep.misses = Counter(sleep_misses);
        profile.scan_memo.hits = Counter(90);
        profile.scan_memo.misses = Counter(10);
        for (ch, &b) in busy.iter().enumerate() {
            profile.channels.push(ChannelLoad {
                channel: ch as u32,
                busy_cycles: b,
                ..ChannelLoad::default()
            });
        }
        let mut report = ProfileReport::new();
        report.cells.push(CellProfile {
            workload: "w".to_string(),
            scheme: "s".to_string(),
            profile,
        });
        RunSnapshot {
            dir: PathBuf::from("fixture"),
            manifest,
            profile: Some(report),
            bench: None,
        }
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let a = snapshot(10.0, 90, 10, [500, 500]);
        let b = snapshot(10.0, 90, 10, [500, 500]);
        let report = diff(&a, &b, &DiffOptions::default());
        assert_eq!(report.regressions(), 0, "{}", report.render());
        assert!(report.render().contains("no regressions"));
    }

    #[test]
    fn wall_time_regression_is_flagged_and_improvement_is_not() {
        let a = snapshot(10.0, 90, 10, [500, 500]);
        let slower = snapshot(15.0, 90, 10, [500, 500]);
        let report = diff(&a, &slower, &DiffOptions::default());
        assert!(report.regressions() >= 1, "{}", report.render());
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "wall_time_secs" && r.regressed));
        // The reverse direction is an improvement, not a regression.
        let report = diff(&slower, &a, &DiffOptions::default());
        assert!(!report
            .rows
            .iter()
            .any(|r| r.metric == "wall_time_secs" && r.regressed));
    }

    #[test]
    fn small_absolute_wall_drift_is_noise_not_regression() {
        // 3ms -> 9ms is +200% but far below the 0.1s floor.
        let a = snapshot(0.003, 90, 10, [500, 500]);
        let b = snapshot(0.009, 90, 10, [500, 500]);
        let report = diff(&a, &b, &DiffOptions::default());
        assert_eq!(report.regressions(), 0, "{}", report.render());
    }

    #[test]
    fn memo_hit_rate_drop_is_flagged() {
        let a = snapshot(10.0, 90, 10, [500, 500]); // 90% sleep hit rate
        let b = snapshot(10.0, 50, 50, [500, 500]); // 50%
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "sm_sleep_hit_rate" && r.regressed));
        // Rising hit rate is fine.
        let report = diff(&b, &a, &DiffOptions::default());
        assert!(!report
            .rows
            .iter()
            .any(|r| r.metric == "sm_sleep_hit_rate" && r.regressed));
    }

    #[test]
    fn imbalance_drift_is_flagged() {
        let a = snapshot(10.0, 90, 10, [500, 500]); // imbalance 1.0
        let b = snapshot(10.0, 90, 10, [900, 100]); // imbalance 1.8
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "channel_busy_imbalance" && r.regressed));
    }

    #[test]
    fn incomparable_runs_are_detected() {
        let a = snapshot(10.0, 90, 10, [500, 500]);
        let mut b = snapshot(10.0, 90, 10, [500, 500]);
        b.manifest.seed = 2;
        b.manifest.provenance.features = vec!["check-invariants".to_string()];
        let reasons = comparability(&a, &b);
        assert_eq!(reasons.len(), 2, "{reasons:?}");
        assert!(reasons.iter().any(|r| r.contains("seed")));
        assert!(reasons.iter().any(|r| r.contains("feature")));
        assert!(comparability(&a, &a).is_empty());
    }

    #[test]
    fn bench_records_join_the_diff() {
        let mut a = snapshot(10.0, 90, 10, [500, 500]);
        let mut b = snapshot(10.0, 90, 10, [500, 500]);
        a.bench = Some(BenchRecord {
            schema: 1,
            wall_time_secs: 20.0,
            cells: 22,
            cells_per_sec: 1.1,
            ..BenchRecord::default()
        });
        b.bench = Some(BenchRecord {
            schema: 1,
            wall_time_secs: 30.0,
            cells: 22,
            cells_per_sec: 0.73,
            ..BenchRecord::default()
        });
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "bench_wall_time_secs" && r.regressed));
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "bench_cells_per_sec" && r.regressed));
    }

    #[test]
    fn end_to_end_perf_diff_on_written_directories() {
        let base = std::env::temp_dir().join(format!("ccraft-perfdiff-{}", std::process::id()));
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        std::fs::create_dir_all(&dir_a).unwrap();
        std::fs::create_dir_all(&dir_b).unwrap();
        let a = snapshot(10.0, 90, 10, [500, 500]);
        let mut b = snapshot(30.0, 90, 10, [500, 500]);
        std::fs::write(dir_a.join("manifest.json"), a.manifest.to_json()).unwrap();
        std::fs::write(
            dir_a.join("profile.json"),
            serde_json::to_string_pretty(a.profile.as_ref().unwrap()).unwrap(),
        )
        .unwrap();
        std::fs::write(dir_b.join("manifest.json"), b.manifest.to_json()).unwrap();
        std::fs::write(
            dir_b.join("profile.json"),
            serde_json::to_string_pretty(b.profile.as_ref().unwrap()).unwrap(),
        )
        .unwrap();
        let report = perf_diff(&dir_a, &dir_b, &DiffOptions::default()).unwrap();
        assert!(report.regressions() >= 1);

        // Schema-2 bench records carried a `sim_threads` and a `sweep`
        // array; both are ignored, and records that differ only there
        // now compare.
        for (dir, threads, wall) in [(&dir_a, 1, 20.0), (&dir_b, 4, 20.5)] {
            let record = format!(
                r#"{{"schema": 2, "size": "tiny", "seed": 1, "wall_time_secs": {wall},
                    "cells": 22, "cells_per_sec": 1.1, "sim_threads": {threads},
                    "sweep": [{{"sim_threads": 1, "wall_time_secs": 20.0,
                               "cells_per_sec": 1.1, "speedup": 1.0}}]}}"#
            );
            std::fs::write(dir.join("BENCH_20260101T000000Z.json"), record).unwrap();
        }
        let report = perf_diff(&dir_a, &dir_b, &DiffOptions::default()).unwrap();
        let wall = report
            .rows
            .iter()
            .find(|r| r.metric == "bench_wall_time_secs")
            .expect("bench rows joined");
        assert_eq!((wall.a, wall.b), (20.0, 20.5));

        // Incomparable without --force; diffable with it.
        b.manifest.seed = 99;
        std::fs::write(dir_b.join("manifest.json"), b.manifest.to_json()).unwrap();
        assert!(perf_diff(&dir_a, &dir_b, &DiffOptions::default()).is_err());
        let forced = perf_diff(
            &dir_a,
            &dir_b,
            &DiffOptions {
                force: true,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        assert!(forced.notes.iter().any(|n| n.contains("forced diff")));
        std::fs::remove_dir_all(&base).ok();
    }
}
