//! Cross-run performance diffing: the engine behind `ccx perf-diff`.
//!
//! A *run directory* is any results directory with a `manifest.json`
//! (every `ccx exp` and `ccx run` writes one; `scripts/bench_smoke`
//! keeps its sweep's as the bench record). `profile.json` (from
//! `ccx run --profile`) is joined when present. Two runs are
//! *comparable* when experiment id, size, seed, worker count and feature
//! flags all match — differing toolchains or hosts are reported but
//! allowed, since comparing across machines is often the point. `--force`
//! overrides the comparability check.
//!
//! The diff emits one row per metric with run-A / run-B values and the
//! relative delta, and flags a **regression** when run B is worse than
//! run A beyond a fixed threshold ([`DEFAULT_WALL_THRESHOLD_PCT`],
//! [`DEFAULT_HIT_THRESHOLD_PTS`]). Wall-clock metrics are noisy on tiny
//! runs, so they additionally require an absolute wall-time drift of at
//! least [`DEFAULT_MIN_WALL_DELTA_SECS`] before they can regress; simulator-derived metrics (memo hit rates, channel
//! imbalance) are deterministic for identical configurations and use no
//! floor. Exit-code mapping lives in `ccx`: 0 clean, 1 regression,
//! 2 incomparable / unusable input.

use crate::error::Error;
use ccraft_telemetry::manifest::RunManifest;
use ccraft_telemetry::profiler::ProfileReport;
use std::path::{Path, PathBuf};

/// Default relative threshold (percent) for wall-clock metrics.
pub const DEFAULT_WALL_THRESHOLD_PCT: f64 = 10.0;
/// Default absolute threshold (percentage points) for hit-rate metrics.
pub const DEFAULT_HIT_THRESHOLD_PTS: f64 = 5.0;
/// Default absolute wall-time drift floor (seconds) below which
/// wall-clock metrics never count as regressions.
pub const DEFAULT_MIN_WALL_DELTA_SECS: f64 = 0.1;

/// Switches for one diff.
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// Compare even when the runs are incomparable.
    pub force: bool,
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
}

impl RunSnapshot {
    /// Loads a run directory. `manifest.json` is required; the profile
    /// is joined when found.
    pub fn load(dir: &Path) -> Result<RunSnapshot, Error> {
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
        Ok(RunSnapshot {
            dir: dir.to_path_buf(),
            manifest,
            profile,
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

/// Checks that two runs can be meaningfully compared: same experiment,
/// size, seed, worker count and feature flags. Returns the reasons they cannot.
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
    if ma.threads != mb.threads {
        reasons.push(format!("threads differ: {} vs {}", ma.threads, mb.threads));
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
pub fn diff(a: &RunSnapshot, b: &RunSnapshot) -> DiffReport {
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
    let wall_drifted = (wall_b - wall_a).abs() >= DEFAULT_MIN_WALL_DELTA_SECS;
    report.rows.push(DiffRow {
        metric: "wall_time_secs".to_string(),
        a: wall_a,
        b: wall_b,
        delta: pct_delta(wall_a, wall_b),
        delta_unit: "%",
        regressed: wall_drifted
            && wall_a > 0.0
            && pct_delta(wall_a, wall_b) > DEFAULT_WALL_THRESHOLD_PCT,
    });
    if let (Some(ca), Some(cb)) = (a.cells_per_sec(), b.cells_per_sec()) {
        report.rows.push(DiffRow {
            metric: "cells_per_sec".to_string(),
            a: ca,
            b: cb,
            delta: pct_delta(ca, cb),
            delta_unit: "%",
            regressed: wall_drifted && pct_delta(ca, cb) < -DEFAULT_WALL_THRESHOLD_PCT,
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
                regressed: (ra - rb) * 100.0 > DEFAULT_HIT_THRESHOLD_PTS,
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
                regressed: pct_delta(ia, ib) > DEFAULT_WALL_THRESHOLD_PCT,
            });
        }
        (None, None) => report.notes.push("no profiles to compare".to_string()),
        _ => report
            .notes
            .push("profile present in only one run; profile metrics skipped".to_string()),
    }

    report
}

/// Loads and diffs two run directories. Errors (unreadable inputs,
/// incomparable runs without `--force`) map to exit 2 in `ccx`.
pub fn perf_diff(dir_a: &Path, dir_b: &Path, opts: &DiffOptions) -> Result<DiffReport, Error> {
    let a = RunSnapshot::load(dir_a)?;
    let b = RunSnapshot::load(dir_b)?;
    let reasons = comparability(&a, &b);
    if !reasons.is_empty() && !opts.force {
        return Err(Error::config(format!(
            "runs are not comparable ({}); pass --force to diff anyway",
            reasons.join("; ")
        )));
    }
    let mut report = diff(&a, &b);
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
        }
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let a = snapshot(10.0, 90, 10, [500, 500]);
        let b = snapshot(10.0, 90, 10, [500, 500]);
        let report = diff(&a, &b);
        assert_eq!(report.regressions(), 0, "{}", report.render());
        assert!(report.render().contains("no regressions"));
    }

    #[test]
    fn wall_time_regression_is_flagged_and_improvement_is_not() {
        let a = snapshot(10.0, 90, 10, [500, 500]);
        let slower = snapshot(15.0, 90, 10, [500, 500]);
        let report = diff(&a, &slower);
        assert!(report.regressions() >= 1, "{}", report.render());
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "wall_time_secs" && r.regressed));
        // The reverse direction is an improvement, not a regression.
        let report = diff(&slower, &a);
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
        let report = diff(&a, &b);
        assert_eq!(report.regressions(), 0, "{}", report.render());
    }

    #[test]
    fn memo_hit_rate_drop_is_flagged() {
        let a = snapshot(10.0, 90, 10, [500, 500]); // 90% sleep hit rate
        let b = snapshot(10.0, 50, 50, [500, 500]); // 50%
        let report = diff(&a, &b);
        assert!(report
            .rows
            .iter()
            .any(|r| r.metric == "sm_sleep_hit_rate" && r.regressed));
        // Rising hit rate is fine.
        let report = diff(&b, &a);
        assert!(!report
            .rows
            .iter()
            .any(|r| r.metric == "sm_sleep_hit_rate" && r.regressed));
    }

    #[test]
    fn imbalance_drift_is_flagged() {
        let a = snapshot(10.0, 90, 10, [500, 500]); // imbalance 1.0
        let b = snapshot(10.0, 90, 10, [900, 100]); // imbalance 1.8
        let report = diff(&a, &b);
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
        b.manifest.threads = 2;
        b.manifest.provenance.features = vec!["check-invariants".to_string()];
        let reasons = comparability(&a, &b);
        assert_eq!(reasons.len(), 3, "{reasons:?}");
        assert!(reasons.iter().any(|r| r.contains("seed")));
        assert!(reasons.iter().any(|r| r == "threads differ: 0 vs 2"));
        assert!(reasons.iter().any(|r| r.contains("feature")));
        assert!(comparability(&a, &a).is_empty());
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

        // A stray bench record from the old bench script is ignored, so
        // old run directories still diff.
        std::fs::write(
            dir_a.join("BENCH_20260101T000000Z.json"),
            r#"{"schema": 3, "wall_time_secs": 20.0, "cells_per_sec": 1.1}"#,
        )
        .unwrap();
        let report = perf_diff(&dir_a, &dir_b, &DiffOptions::default()).unwrap();
        assert!(report.rows.iter().any(|r| r.metric == "wall_time_secs"));
        assert!(!report.rows.iter().any(|r| r.metric.starts_with("bench_")));

        // Incomparable without --force; diffable with it.
        b.manifest.seed = 99;
        std::fs::write(dir_b.join("manifest.json"), b.manifest.to_json()).unwrap();
        assert!(perf_diff(&dir_a, &dir_b, &DiffOptions::default()).is_err());
        let forced = perf_diff(&dir_a, &dir_b, &DiffOptions { force: true }).unwrap();
        assert!(forced.notes.iter().any(|n| n.contains("forced diff")));
        std::fs::remove_dir_all(&base).ok();
    }
}
