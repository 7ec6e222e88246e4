//! # ccbench — end-to-end and per-layer benchmark of the CacheCraft reproduction
//!
//! `ccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload for about `s` seconds from one process, with at most two
//! busy threads, checks every output, and prints one `name value unit`
//! line per metric followed by one JSON result line. `--trace 1` is the
//! separate traced run: it records spans around each call the benchmark
//! makes into a layer, replays the workload's cells layer by layer, and
//! reports the per-layer metrics plus a Chrome trace. The benchmark only
//! measures from outside the program: it times calls into each crate's
//! public functions and reads `/proc` accounting.
//!
//! The metric catalog, the layer → end-to-end metric → workload map and
//! the comparison protocol are in `README.md` next to this crate.

#![warn(missing_docs)]

pub mod catalog;
pub mod checks;
pub mod contention;
pub mod matrix;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;

use catalog::WorkloadInfo;
use contention::{uncontended, Watch};
use report::Report;
use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// How many times a run repeats its set-up to report the median.
pub const SETUP_REPEATS: usize = 5;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static WorkloadInfo,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds: it sizes the work (see [`ops_for`]).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// One measured operation (or set-up repetition).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency, ms.
    pub wall_ms: f64,
    /// Run-queue wait of the watched threads meanwhile, ms.
    pub delay_ms: f64,
}

impl Op {
    /// Times `f`, with the run-queue wait `watch` saw meanwhile.
    pub fn time<T>(watch: &Watch, f: impl FnOnce() -> T) -> (T, Op) {
        let d0 = watch.delay_ns();
        let t0 = Instant::now();
        let out = f();
        let wall_ms = ms_since(t0);
        (out, Op::since(watch, d0, wall_ms))
    }

    /// An operation of `wall_ms` that started when `watch` had seen
    /// `delay_ns` of run-queue wait.
    pub fn since(watch: &Watch, delay_ns: u64, wall_ms: f64) -> Op {
        let delay_ms = watch.delay_ns().saturating_sub(delay_ns) as f64 / 1e6;
        Op { wall_ms, delay_ms }
    }
}

/// What the measured operations of a run produced, before it is turned
/// into metrics.
#[derive(Debug, Default)]
pub struct OpPhase {
    /// Every operation, in order.
    pub ops: Vec<Op>,
    /// Threads the operations keep busy side by side (for
    /// [`uncontended`]).
    pub threads: f64,
    /// Simulated cycles of every cell the operations returned.
    pub cycles: u64,
    /// CacheCraft's normalized performance over the run's fixed cells.
    pub norm_perf: Option<f64>,
    /// Peak resident set size of the process that ran the operations.
    pub peak_rss_mb: f64,
    /// Each set-up repetition (one thread at work).
    pub setup: Vec<Op>,
    /// CPU and write accounting of the process that ran the operations,
    /// over the operations.
    pub usage: Usage,
    /// Results of the cells at the run's seed, for the traced replay to
    /// reproduce.
    pub reference: Reference,
}

/// CPU and write accounting over an interval.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Write system calls.
    pub write_calls: u64,
}

impl Usage {
    /// Reads the accounting of `pid` (`"self"` for this process).
    ///
    /// # Errors
    ///
    /// When `/proc` cannot be read.
    pub fn read(pid: &str) -> Result<Usage, String> {
        let (stat, io) = (procfs::stat(pid)?, procfs::io(pid)?);
        Ok(Usage {
            user_s: stat.user_s(),
            sys_s: stat.sys_s(),
            write_bytes: io.wchar,
            write_calls: io.syscw,
        })
    }

    /// The accounting accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
        }
    }
}

/// Results the operations produced for the cells the traced replay
/// re-runs.
#[derive(Debug, Default)]
pub enum Reference {
    /// None recorded.
    #[default]
    None,
    /// Full statistics; a replayed cell must equal one of the same
    /// kernel and scheme.
    Stats(Vec<ccraft_sim::SimStats>),
    /// A job CSV's cycle columns.
    Csv(Vec<checks::CsvCell>),
}

/// Where runs keep their files: `work/` in this crate's directory, so a
/// run reads and writes only inside its checkout.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A fresh, empty directory for this run's files under [`work_dir`].
///
/// # Errors
///
/// When the directory cannot be created.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = work_dir().join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// How many operations fill a window of `seconds` when one takes
/// `nominal_s` on the reference host (at least `min`). The count depends
/// only on the arguments, never on how fast this host happens to be, so
/// every run of a seed does the same work.
pub fn ops_for(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Runs one workload and returns its report; the caller prints it.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut tracer = args.trace.then(Tracer::default);
    let (r, t) = (&mut report, tracer.as_mut());
    let phase = match args.workload.name {
        "sweep-tiny" => sweep::run(args, r, t),
        "main-read" => matrix::run(args, &matrix::READ, r, t),
        "main-write" => matrix::run(args, &matrix::WRITE, r, t),
        "serve-resubmit" => serve::run(args, r, t),
        other => Err(format!("unknown workload {other}")),
    };
    let phase = match phase {
        Ok(p) => p,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    let ops = phase.ops.len().max(1) as f64;
    let op_ms: Vec<f64> = phase
        .ops
        .iter()
        .map(|o| uncontended(o.wall_ms, o.delay_ms, phase.threads))
        .collect();
    let setup_ms: Vec<f64> = phase
        .setup
        .iter()
        .map(|o| uncontended(o.wall_ms, o.delay_ms, 1.0))
        .collect();
    let op_ms_p50 = stats::median(&op_ms).unwrap_or(f64::NAN);
    let op_s: f64 = op_ms.iter().sum::<f64>() / 1000.0;
    report.set("op_ms_p50", op_ms_p50);
    report.set("sim_mcycles_per_s", phase.cycles as f64 / 1e6 / op_s);
    report.set("cachecraft_norm_perf", phase.norm_perf.unwrap_or(f64::NAN));
    report.set("peak_rss_mb", phase.peak_rss_mb);
    report.set(
        "setup_s",
        stats::median(&setup_ms).unwrap_or(f64::NAN) / 1000.0,
    );
    let wall: Vec<f64> = phase.ops.iter().map(|o| o.wall_ms).collect();
    let wall_s = wall.iter().sum::<f64>() / 1000.0;
    let delay_s = phase.ops.iter().map(|o| o.delay_ms).sum::<f64>() / 1000.0 / phase.threads;
    report.extra("ops", phase.ops.len() as f64, "count");
    report.extra(
        "wall_op_ms_p50",
        stats::median(&wall).unwrap_or(f64::NAN),
        "ms",
    );
    report.extra("run_queue_share", delay_s / wall_s, "ratio");
    if let Some(tracer) = tracer.as_mut() {
        report.set("trace.op_ms_p50", op_ms_p50);
        let u = phase.usage;
        report.set("proc.user_cpu_s_per_op", u.user_s / ops);
        report.set("proc.sys_cpu_s_per_op", u.sys_s / ops);
        report.set("proc.write_mb_per_op", u.write_bytes as f64 / 1e6 / ops);
        report.set("proc.write_calls_per_op", u.write_calls as f64 / ops);
        if let Err(e) = replay::run(args, &phase.reference, &mut report, tracer) {
            report.fail(e);
        }
        match write_trace(args, tracer) {
            Ok(path) => report.note(format!("chrome trace: {}", path.display())),
            Err(e) => report.fail(e),
        }
    }
    report
}

/// Writes the Chrome trace under `work/traces/` and checks that it
/// parses back as JSON.
fn write_trace(args: &RunArgs, tracer: &Tracer) -> Result<PathBuf, String> {
    let dir = work_dir().join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name, args.seed));
    let json = spans::chrome_trace(tracer.spans());
    report::parse_json(&json).map_err(|e| format!("chrome trace is not JSON: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
