//! `sweep-tiny`: the full tiny evaluation sweep in a child process, as
//! CI and reproductions run it.

use crate::checks::{cell_ok, verified_file};
use crate::contention::Watch;
use crate::report::{num, parse_json, Report};
use crate::spans::Tracer;
use crate::{ms_since, procfs, scratch_dir, Op, OpPhase, Reference, RunArgs, Usage};
use ccraft_harness::experiments as exp;
use ccraft_sim::SimStats;
use serde::{Deserialize, Value};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// First argument that makes `ccbench` act as the sweep's child.
pub const CHILD_ARG: &str = "exp-all";

/// Prefix of the last line a successful child prints: its peak resident
/// set size in kB, read just before it exits (an exited process has no
/// memory left to report).
const CHILD_PEAK: &str = "ccbench-child-vm-hwm-kb ";

/// The child: the experiment list of the `exp-all` binary, run through
/// the same `run_experiment` entry point (flags, checkpoint, manifest,
/// exit codes). Kept in `exp-all`'s order; a unit test compares the two.
pub fn child_main() {
    ccraft_harness::run_experiment("exp-all", |opts| {
        exp::config_table::run(opts)?;
        exp::workload_table::run(opts)?;
        exp::motivation::run(opts)?;
        exp::rowhit::run(opts)?;
        exp::main_result::run(opts)?;
        exp::ecchit::run(opts)?;
        exp::ablation::run(opts)?;
        exp::sens_ratio::run(opts)?;
        exp::sens_l2::run(opts)?;
        exp::sens_ecccap::run(opts)?;
        exp::sens_channels::run(opts)?;
        exp::hbm::run(opts)?;
        exp::energy::run(opts)?;
        exp::frugal::run(opts)?;
        exp::scheduler::run(opts)?;
        exp::reliability::run(opts)?;
        exp::faults::run(opts)?;
        exp::storage::run(opts)?;
        exp::tagged::run(opts)
    });
    if let Ok(text) = std::fs::read_to_string("/proc/self/status") {
        if let Ok(kb) = procfs::parse_vm_hwm_kb(&text) {
            println!("{CHILD_PEAK}{kb}");
        }
    }
}

fn spawn(results: &Path, seed: u64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating ccbench: {e}"))?;
    Command::new(exe)
        .args([
            CHILD_ARG,
            "--size",
            "tiny",
            "--threads",
            "2",
            "--sim-threads",
            "1",
        ])
        .args(["--seed", &seed.to_string()])
        .env("CCRAFT_RESULTS", results)
        .env("CCRAFT_PROGRESS", "0")
        .env_remove("CCRAFT_CHAOS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning the sweep: {e}"))
}

/// Spawns the child and times how long it takes to print its first line.
/// The child is then killed and reaped.
fn time_startup(results: &Path, seed: u64) -> Result<Op, String> {
    let t0 = Instant::now();
    let mut child = spawn(results, seed)?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let elapsed = ms_since(t0);
    // The child may already have exited; either way it is reaped below.
    let _ = child.kill();
    child
        .wait()
        .map_err(|e| format!("reaping the sweep: {e}"))?;
    match read {
        // Too short-lived to watch its run-queue wait.
        Some(Ok(n)) if n > 0 => Ok(Op {
            wall_ms: elapsed,
            delay_ms: 0.0,
        }),
        _ => Err("the sweep printed nothing".to_string()),
    }
}

/// One sweep, observed from outside.
struct SweepRun {
    op: Op,
    startup_ms: f64,
    exit_ok: bool,
    peak_rss_mb: f64,
    usage: Usage,
}

/// Runs one sweep to completion. CPU and write accounting are read once
/// the child has exited but before it is reaped.
fn run_sweep(results: &Path, seed: u64) -> Result<SweepRun, String> {
    let t0 = Instant::now();
    let mut child = spawn(results, seed)?;
    let pid = child.id().to_string();
    let watch = Watch::start(&pid);
    let start = watch.delay_ns();
    let mut startup_ms = None;
    let mut peak_rss_mb: f64 = 0.0;
    if let Some(out) = child.stdout.take() {
        let mut reader = BufReader::new(out);
        let mut line = String::new();
        while reader
            .read_line(&mut line)
            .map_err(|e| format!("reading the sweep: {e}"))?
            > 0
        {
            startup_ms.get_or_insert_with(|| ms_since(t0));
            if let Some(kb) = line.trim().strip_prefix(CHILD_PEAK) {
                peak_rss_mb = kb.parse::<f64>().unwrap_or(0.0) / 1024.0;
            }
            line.clear();
        }
    }
    // Stdout closes as the child exits; wait until it is a zombie.
    let deadline = Instant::now() + Duration::from_secs(30);
    while procfs::stat(&pid).is_ok_and(|s| s.state != 'Z') && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let op = Op::since(&watch, start, ms_since(t0));
    drop(watch);
    let usage = Usage::read(&pid);
    let status = child
        .wait()
        .map_err(|e| format!("reaping the sweep: {e}"))?;
    Ok(SweepRun {
        op,
        startup_ms: startup_ms.unwrap_or(op.wall_ms),
        exit_ok: status.success(),
        peak_rss_mb,
        usage: usage?,
    })
}

/// What a finished sweep's results directory holds.
#[derive(Debug, Default)]
pub struct SweepOutput {
    /// `(checkpoint key, stats)` of every cell that completed.
    pub cells: Vec<(String, SimStats)>,
    /// Cells recorded as failed, timed out or without stats.
    pub bad_cells: u64,
    /// CacheCraft's geomean from the F4 table.
    pub norm_perf: Option<f64>,
    /// Sweep-level check failures.
    pub failures: Vec<String>,
}

/// Checks a finished sweep's results directory: every artifact verifies
/// against its checksum footer, the manifest reports no quarantined
/// cell, and every checkpointed cell completed correctly.
pub fn verify_results(dir: &Path) -> SweepOutput {
    let mut out = SweepOutput::default();
    let mut files: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(e) => {
            out.failures.push(format!("listing {}: {e}", dir.display()));
            return out;
        }
    };
    files.sort();
    let mut read = |name: &str| -> Option<String> {
        let path = dir.join(name);
        match verified_file(&path).map(String::from_utf8) {
            Ok(Ok(text)) => Some(text),
            Ok(Err(e)) => {
                out.failures.push(format!("{name}: {e}"));
                None
            }
            Err(e) => {
                out.failures.push(e);
                None
            }
        }
    };
    let manifest = read("manifest.json");
    let checkpoint = read("checkpoint.json");
    let f4 = read("f4_normalized_perf.csv");
    for path in files
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "csv" || x == "json"))
    {
        if let Err(e) = verified_file(path) {
            out.failures.push(e);
        }
    }
    if let Some(text) = manifest {
        match quarantined(&text) {
            Ok(0) => {}
            Ok(n) => out.failures.push(format!("{n} cells quarantined")),
            Err(e) => out.failures.push(format!("manifest.json: {e}")),
        }
    }
    if let Some(text) = checkpoint {
        if let Err(e) = checkpoint_cells(&text, &mut out) {
            out.failures.push(format!("checkpoint.json: {e}"));
        }
    }
    match f4.as_deref().map(f4_geomean) {
        Some(Ok(v)) => out.norm_perf = Some(v),
        Some(Err(e)) => out.failures.push(format!("f4_normalized_perf.csv: {e}")),
        None => {}
    }
    out
}

/// `cells_quarantined` from a manifest's summary notes.
fn quarantined(manifest: &str) -> Result<u64, String> {
    let v = parse_json(manifest)?;
    let Some(Value::Array(notes)) = v.get("summary") else {
        return Err("no summary".to_string());
    };
    notes
        .iter()
        .find_map(|n| match n {
            Value::Array(kv) if kv.first() == Some(&Value::String("cells_quarantined".into())) => {
                kv.get(1).and_then(num)
            }
            _ => None,
        })
        .map(|n| n as u64)
        .ok_or_else(|| "no cells_quarantined note".to_string())
}

fn checkpoint_cells(text: &str, out: &mut SweepOutput) -> Result<(), String> {
    let v = parse_json(text)?;
    let Some(Value::Array(cells)) = v.get("cells") else {
        return Err("no cells".to_string());
    };
    for c in cells {
        let key = match c.get("key") {
            Some(Value::String(k)) => k.clone(),
            _ => "?".to_string(),
        };
        let ok = c.get("status") == Some(&Value::String("ok".into()));
        let stats = c.get("stats").map(SimStats::from_value);
        match (ok, stats) {
            (true, Some(Ok(s))) => match cell_ok(&s) {
                Ok(()) => out.cells.push((key, s)),
                Err(e) => {
                    out.bad_cells += 1;
                    out.failures.push(e);
                }
            },
            _ => {
                out.bad_cells += 1;
                out.failures.push(format!("cell {key} did not complete"));
            }
        }
    }
    Ok(())
}

/// The `cachecraft` column of the F4 table's geomean row.
fn f4_geomean(csv: &str) -> Result<f64, String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let col = header
        .iter()
        .position(|h| *h == "cachecraft")
        .ok_or("no cachecraft column")?;
    lines
        .find(|l| l.starts_with("**geomean**,"))
        .and_then(|l| l.split(',').nth(col))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no geomean row".to_string())
}

/// Runs the workload: set-up probes, then one sweep (it takes about the
/// default window on the reference host).
///
/// # Errors
///
/// When the scratch directory cannot be made or the child cannot be
/// spawned.
pub fn run(
    args: &RunArgs,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<OpPhase, String> {
    let dir = scratch_dir("sweep-tiny")?;
    let mut phase = OpPhase {
        threads: 2.0,
        ..OpPhase::default()
    };
    for i in 0..crate::SETUP_REPEATS {
        phase
            .setup
            .push(time_startup(&dir.join(format!("setup-{i}")), args.seed)?);
    }
    let results = dir.join("sweep");
    let span = tracer
        .as_deref_mut()
        .map(|t| t.begin("exp-all --size tiny", "bench"));
    let sweep = run_sweep(&results, args.seed)?;
    if let (Some(t), Some(id)) = (tracer, span) {
        t.end(id);
    }
    let out = verify_results(&results);
    let sweep_failed = !out.failures.is_empty() || !sweep.exit_ok;
    if !sweep.exit_ok {
        report.fail("the sweep exited with a failure status");
    }
    out.failures.into_iter().for_each(|f| report.fail(f));
    // The sweep itself counts as one operation beside its cells.
    report.tally(
        out.cells.len() as u64 + out.bad_cells + 1,
        out.bad_cells + u64::from(sweep_failed),
    );
    phase.ops.push(sweep.op);
    phase.cycles = out.cells.iter().map(|(_, s)| s.cycles).sum();
    phase.peak_rss_mb = sweep.peak_rss_mb;
    phase.norm_perf = out.norm_perf;
    phase.usage = sweep.usage;
    report.extra("child_startup_ms", sweep.startup_ms, "ms");
    report.extra("child_user_cpu_s", sweep.usage.user_s, "s");
    report.extra("child_sys_cpu_s", sweep.usage.sys_s, "s");
    report.extra("child_write_mb", sweep.usage.write_bytes as f64 / 1e6, "MB");
    report.extra("child_write_calls", sweep.usage.write_calls as f64, "count");
    let reference = out.cells.into_iter().map(|(_, s)| s).collect();
    phase.reference = Reference::Stats(reference);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_child_runs_exp_alls_experiment_list() {
        let calls = |src: &str| -> Vec<String> {
            src.lines()
                .filter_map(|l| l.trim().strip_prefix("exp::"))
                .map(|l| l.split("::run").next().unwrap_or_default().to_string())
                .collect()
        };
        let exp_all = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/harness/src/bin/exp-all.rs"
        ))
        .unwrap();
        let ours =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/sweep.rs")).unwrap();
        let theirs = calls(&exp_all);
        assert_eq!(theirs.len(), 19);
        assert_eq!(calls(&ours)[..theirs.len()], theirs[..]);
    }

    #[test]
    fn f4_geomean_reads_the_cachecraft_column() {
        let csv = "workload,no-protection,inline-naive,ecc-cache,cachecraft\n\
                   vecadd,1.000,0.934,0.971,0.985\n**geomean**,1.000,0.942,0.967,0.980\n";
        assert_eq!(f4_geomean(csv), Ok(0.98));
        assert!(f4_geomean("workload,x\n**geomean**,1\n").is_err());
    }

    #[test]
    fn quarantined_cells_are_read_from_the_manifest_summary() {
        let m = r#"{"experiment":"exp-all","summary":[["checkpoint_cells",716.0],["cells_quarantined",2.0]]}"#;
        assert_eq!(quarantined(m), Ok(2));
        assert!(quarantined(r#"{"summary":[]}"#).is_err());
    }
}
