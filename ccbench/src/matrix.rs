//! `main-read` and `main-write`: the F4 main matrix (four headline
//! schemes) at full size through the harness matrix engine, with the raw
//! results persisted as the F4 experiment persists them.

use crate::checks::{cell_ok, verified_file};
use crate::contention::Watch;
use crate::report::Report;
use crate::spans::Tracer;
use crate::{ops_for, procfs, scratch_dir, stats, Op, OpPhase, Reference, RunArgs, Usage};
use ccraft_core::factory::SchemeKind;
use ccraft_harness::runner::{run_cell, CellBody};
use ccraft_harness::{run_matrix_cells_with_body, ExpOptions};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::SimStats;
use ccraft_workloads::{SizeClass, Workload};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Read-heavy kernels (write fraction at most [`READ_MAX_WRITE_FRACTION`]).
pub const READ: [Workload; 5] = [
    Workload::Spmv,
    Workload::Gemm,
    Workload::MonteCarlo,
    Workload::KMeans,
    Workload::Bfs,
];

/// Write-heavy kernels (write fraction above [`READ_MAX_WRITE_FRACTION`]).
pub const WRITE: [Workload; 5] = [
    Workload::Transpose,
    Workload::Histogram,
    Workload::Saxpy,
    Workload::Stencil2D,
    Workload::Triad,
];

/// The write fraction that separates the two kernel sets.
pub const READ_MAX_WRITE_FRACTION: f64 = 0.2;

/// Worker threads of the matrix engine.
pub const THREADS: usize = 2;

/// Passes every run makes, whatever the window: the normalized
/// performance is taken over exactly these seeds, so it is exact.
const MIN_PASSES: usize = 2;

/// One pass on the reference host, seconds.
const PASS_NOMINAL_S: f64 = 6.5;

/// Set-up: generate every kernel's trace at `seed`, and check that each
/// belongs to its set. Returns any misfit.
fn prepare(kernels: &[Workload], seed: u64) -> Vec<String> {
    let write_heavy = kernels == WRITE;
    kernels
        .iter()
        .filter_map(|&k| {
            let wf = k.generate(SizeClass::Full, seed).write_fraction();
            (write_heavy != (wf > READ_MAX_WRITE_FRACTION))
                .then(|| format!("{k} has write fraction {wf:.3}, outside its set"))
        })
        .collect()
}

/// One executed cell, timed around the engine's own cell function.
struct CellTime {
    start: Instant,
    end: Instant,
    thread: ThreadId,
    name: String,
}

/// Runs the workload: `kernels` x the headline schemes, one seed per
/// pass, for as many passes as fill the window (at least [`MIN_PASSES`]).
///
/// # Errors
///
/// When the scratch directory or `/proc` cannot be used; failed cells
/// are recorded in `report`.
pub fn run(
    args: &RunArgs,
    kernels: &[Workload],
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<OpPhase, String> {
    let cfg = GpuConfig::gddr6();
    let schemes = SchemeKind::headline(&cfg);
    let mut phase = OpPhase {
        threads: THREADS as f64,
        ..OpPhase::default()
    };
    let watch = Watch::start("self");
    for i in 0..crate::SETUP_REPEATS {
        let (misfits, op) = Op::time(&watch, || prepare(kernels, args.seed));
        phase.setup.push(op);
        if i == 0 {
            misfits.into_iter().for_each(|m| report.fail(m));
        }
    }
    let dir = scratch_dir(args.workload.name)?;
    let raw_path = dir.join("main_raw.json");
    let before = Usage::read("self")?;
    let mut cell_ms = Vec::new();
    let mut busy_ms = 0.0;
    let mut pairs = Vec::new();
    let mut reference = Vec::new();
    let mut lanes: Vec<ThreadId> = Vec::new();
    for pass in 0..ops_for(args.seconds, PASS_NOMINAL_S, MIN_PASSES) {
        let opts = ExpOptions {
            size: SizeClass::Full,
            seed: args.seed + pass as u64,
            threads: THREADS,
            sim_threads: 1,
            ..ExpOptions::default()
        };
        let times = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&times);
        // The engine's standard cell body, with a clock around it.
        let body: Arc<CellBody> = Arc::new(move |idx, w, s| {
            let start = Instant::now();
            let run = run_cell(&cfg, &opts, idx, w, s);
            if let Ok(mut t) = sink.lock() {
                t.push(CellTime {
                    start,
                    end: Instant::now(),
                    thread: std::thread::current().id(),
                    name: format!("run_cell {w}/{s}"),
                });
            }
            run
        });
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("run_matrix_cells", "harness"));
        let ((outcomes, stats, payload, saved), op) = Op::time(&watch, || {
            let outcomes = run_matrix_cells_with_body(kernels, &schemes, &opts, body);
            // Persist the raw results the way the F4 experiment does.
            let stats: Vec<SimStats> = outcomes.iter().filter_map(|o| o.stats.clone()).collect();
            let payload = serde_json::to_string_pretty(&stats).unwrap_or_default();
            let saved = ccraft_harness::store::write_durable(&raw_path, payload.as_bytes());
            (outcomes, stats, payload, saved)
        });
        phase.ops.push(op);
        match saved
            .map_err(|e| e.to_string())
            .and_then(|()| verified_file(&raw_path))
        {
            Ok(bytes) if bytes == payload.as_bytes() => {}
            Ok(_) => report.fail("main_raw.json read back other bytes"),
            Err(e) => report.fail(format!("main_raw.json: {e}")),
        }
        let times = std::mem::take(&mut *times.lock().map_err(|_| "cell clock poisoned")?);
        for t in &times {
            let ms = t.end.duration_since(t.start).as_secs_f64() * 1000.0;
            cell_ms.push(ms);
            busy_ms += ms;
            let lane = lanes
                .iter()
                .position(|&l| l == t.thread)
                .unwrap_or_else(|| {
                    lanes.push(t.thread);
                    lanes.len() - 1
                });
            if let Some(tr) = tracer.as_deref_mut() {
                tr.add(&t.name, "harness", 2 + lane as u32, t.start, t.end);
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.end(id);
        }
        let mut bad = 0;
        for o in &outcomes {
            let verdict = match (&o.stats, o.status.is_ok()) {
                (Some(s), true) => cell_ok(s),
                _ => Err(format!("{} ended {:?}", o.cell_name(), o.status)),
            };
            if let Err(e) = verdict {
                bad += 1;
                report.fail(e);
            }
        }
        report.tally(outcomes.len() as u64, bad);
        phase.cycles += stats.iter().map(|s| s.cycles).sum::<u64>();
        if pass < MIN_PASSES {
            for k in kernels {
                let exec = |scheme: &str| {
                    stats
                        .iter()
                        .find(|s| s.kernel == k.name() && s.scheme == scheme)
                        .map(|s| s.exec_cycles)
                };
                match (exec("no-protection"), exec("cachecraft")) {
                    (Some(off), Some(cc)) => pairs.push((off, cc)),
                    _ => report.fail(format!("{k}: no ECC-off/CacheCraft pair at pass {pass}")),
                }
            }
        }
        if pass == 0 {
            reference = stats;
        }
    }
    phase.usage = Usage::read("self")?.since(before);
    phase.peak_rss_mb = procfs::peak_rss_mb("self")?;
    phase.norm_perf = stats::norm_perf(&pairs);
    phase.reference = Reference::Stats(reference);
    let wall_ms: f64 = phase.ops.iter().map(|o| o.wall_ms).sum();
    for p in [50.0, 75.0] {
        if let Some(v) = stats::percentile(&cell_ms, p) {
            report.extra(format!("cell_ms_p{p}"), v, "ms");
        }
    }
    report.extra("cells", cell_ms.len() as f64, "count");
    report.extra(
        "worker_busy_frac",
        busy_ms / (wall_ms * THREADS as f64),
        "ratio",
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(phase)
}
