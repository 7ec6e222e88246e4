//! Parallel, crash-resilient execution of workload × scheme simulation
//! matrices.
//!
//! Every cell runs once, under [`std::panic::catch_unwind`], so one
//! panicking simulation marks only its own cell as failed instead of
//! poisoning the worker pool. A cell cannot hang: the cycle loop stops at
//! `GpuConfig::max_cycles`. Inside
//! [`run_experiment`], every cell memoizes through the run's cell cache
//! at `results/cells/` (see [`crate::checkpoint`]), so a killed run
//! restarted with `--resume` serves the cells that already finished as
//! cache hits.
//!
//! Cells of one `(workload, size, seed)` share one generated trace: see
//! [`run_cell`] and DESIGN.md §5.2 ("trace lifetime").

use crate::cellcache::{cached, CellKey};
use crate::checkpoint;
use crate::error::Error;
use crate::lock_clean;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::faults::FaultConfig;
use ccraft_sim::stats::SimStats;
use ccraft_sim::trace::KernelTrace;
use ccraft_sim::{simulate, Observe};
use ccraft_telemetry::manifest::RunManifest;
use ccraft_workloads::{SizeClass, Workload};
use std::io::IsTerminal as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::time::Instant;

/// Usage text for the options shared by every experiment.
pub const OPTIONS_USAGE: &str = "\
experiment options (ccx exp; ccx run and submit take --size, --seed, --inject):
  --size tiny|small|full   workload size class (default: small)
  --seed N                 trace-generation seed (default: 1)
  --threads N              worker threads, 0 = number of CPUs (default: 0)
  --inject <pat>:<rate>    in-situ DRAM fault injection, e.g. symbol:1e-6
                           or bit2:fit=5000@24 (pattern bit1|bit2|bit3|
                           burst4|symbol|chiplane; rate per access or
                           fit=<FIT>[@hours])
  --resume                 keep the cell cache in results/cells/: cells
                           that already finished are served, not re-run
  --metrics-addr ADDR      serve live Prometheus metrics over HTTP while the
                           run executes, e.g. 127.0.0.1:9184 (default: off)

Unrecognized flags never fail a run, but they are reported (stderr +
manifest warnings) so a typo like --thread is never silently ignored.";

/// Exit status of a fully successful run.
pub const EXIT_OK: i32 = 0;
/// Exit status of a failed run (configuration error or a non-cell
/// failure).
pub const EXIT_FAILED: i32 = 2;
/// Exit status of a *degraded* run: one or more cells panicked and were
/// quarantined, but the sweep itself completed.
pub const EXIT_DEGRADED: i32 = 3;

/// Options shared by every experiment, parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Workload size class.
    pub size: SizeClass,
    /// Trace-generation seed.
    pub seed: u64,
    /// Worker threads (0 = number of CPUs).
    pub threads: usize,
    /// Always 1, and read by nothing: every simulation runs the
    /// single-threaded cycle loop. Kept so existing struct literals
    /// compile; `--sim-threads` accepts only 1.
    pub sim_threads: u32,
    /// In-situ fault injection, when configured (`--inject`).
    pub inject: Option<FaultConfig>,
    /// Keep the run's cell cache (`results/cells/`) instead of starting
    /// from an empty one, so finished cells are served, not re-run.
    pub resume: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            size: SizeClass::Small,
            seed: 1,
            threads: 0,
            sim_threads: 1,
            inject: None,
            resume: false,
        }
    }
}

impl ExpOptions {
    /// Parses options from an argument list. Positional arguments and
    /// unknown flags are ignored so callers can add their own; use
    /// [`ExpOptions::parse_with_unknown`] to also learn which `--` flags
    /// went unrecognized.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on a malformed or missing value for a
    /// recognized flag.
    pub fn parse(args: &[String]) -> Result<Self, Error> {
        Self::parse_with_unknown(args).map(|(opts, _)| opts)
    }

    /// [`ExpOptions::parse`], additionally returning every `--` flag the
    /// parser did not recognize. Values of unknown flags are not
    /// reported — only the flags themselves — so a typo like
    /// `--thread 4` surfaces as `--thread`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on a malformed or missing value for a
    /// recognized flag.
    pub fn parse_with_unknown(args: &[String]) -> Result<(Self, Vec<String>), Error> {
        let mut opts = ExpOptions::default();
        let mut unknown: Vec<String> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--size" => {
                    i += 1;
                    opts.size = match args.get(i).map(String::as_str) {
                        Some("tiny") => SizeClass::Tiny,
                        Some("small") => SizeClass::Small,
                        Some("full") => SizeClass::Full,
                        other => {
                            return Err(Error::config(format!(
                                "--size expects tiny|small|full, got {other:?}"
                            )))
                        }
                    };
                }
                "--seed" => {
                    i += 1;
                    opts.seed = parse_value(args, i, "--seed", "an integer")?;
                }
                "--threads" => {
                    i += 1;
                    opts.threads = parse_value(args, i, "--threads", "an integer")?;
                }
                "--sim-threads" => {
                    i += 1;
                    let n: u32 = parse_value(args, i, "--sim-threads", "an integer")?;
                    if n != 1 {
                        return Err(Error::config(
                            "--sim-threads accepts only 1: sharded simulation was removed; \
                             use --threads to run cells in parallel",
                        ));
                    }
                }
                "--inject" => {
                    i += 1;
                    let spec = args.get(i).ok_or_else(|| {
                        Error::config("--inject expects <pattern>:<rate>".to_string())
                    })?;
                    opts.inject = Some(FaultConfig::parse(spec).map_err(Error::Config)?);
                }
                "--resume" => opts.resume = true,
                // The address itself is read by `run_experiment`
                // (`ExpOptions` is `Copy` and holds no strings); the
                // parser only insists that there is one.
                "--metrics-addr" => {
                    i += 1;
                    if args.get(i).is_none_or(|a| a.starts_with("--")) {
                        return Err(Error::config(
                            "--metrics-addr expects an address, e.g. 127.0.0.1:9184",
                        ));
                    }
                }
                other if other.starts_with("--") => unknown.push(other.to_string()),
                _ => {}
            }
            i += 1;
        }
        Ok((opts, unknown))
    }

    /// Effective worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }

    /// Worker count the matrix engine actually spawns: the effective
    /// thread count clamped to `[1, 64]`. This — not the raw request —
    /// is what run manifests record.
    pub fn effective_workers(&self) -> usize {
        self.effective_threads().clamp(1, 64)
    }
}

/// Reports unrecognized `--` flags on stderr (once, comma-joined).
fn warn_unknown_flags(unknown: &[String]) {
    if !unknown.is_empty() {
        eprintln!(
            "warning: unrecognized flag(s): {} (see the options list below)\n\n{OPTIONS_USAGE}",
            unknown.join(", ")
        );
    }
}

fn parse_value<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    flag: &str,
    wants: &str,
) -> Result<T, Error> {
    match args.get(i).map(|s| s.parse()) {
        Some(Ok(v)) => Ok(v),
        _ => Err(Error::config(format!(
            "{flag} expects {wants}, got {:?}",
            args.get(i)
        ))),
    }
}

/// Renders a panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Whether per-cell progress lines should be written to stderr.
///
/// Controlled by `CCRAFT_PROGRESS` (`0` forces off, anything else forces
/// on); when unset, progress is shown only when stderr is a terminal, so
/// test runs and redirected logs stay clean.
fn progress_enabled() -> bool {
    match std::env::var("CCRAFT_PROGRESS") {
        Ok(v) => v != "0",
        Err(_) => std::io::stderr().is_terminal(),
    }
}

/// Renders one progress line: completed/total cells, the cell that just
/// finished, elapsed wall time, and a linear-extrapolation ETA.
fn progress_line(done: usize, total: usize, workload: &str, scheme: &str, elapsed: f64) -> String {
    if done < total {
        let eta = elapsed / done.max(1) as f64 * (total - done) as f64;
        format!("[{done}/{total}] {workload}/{scheme} done ({elapsed:.1}s elapsed, ETA {eta:.1}s)")
    } else {
        format!("[{done}/{total}] {workload}/{scheme} done ({elapsed:.1}s total)")
    }
}

/// One cell of a run matrix.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// The workload.
    pub workload: Workload,
    /// The scheme.
    pub scheme: SchemeKind,
    /// Simulation results.
    pub stats: SimStats,
}

impl MatrixResult {
    /// Performance normalized to a baseline run of the same workload
    /// (baseline cycles / this run's cycles — higher is better, 1.0 means
    /// parity with the baseline).
    pub fn normalized_perf(&self, baseline: &SimStats) -> f64 {
        baseline.exec_cycles as f64 / self.stats.exec_cycles as f64
    }
}

/// Terminal state of one executed matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Completed normally.
    Ok,
    /// Panicked; the payload message is recorded.
    Failed {
        /// Panic message.
        message: String,
    },
}

impl CellStatus {
    /// `true` for [`CellStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }
}

/// How one cell's result relates to the content-addressed result cache
/// (see `crate::cellcache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheDisposition {
    /// No cache was in play (a matrix run outside [`run_experiment`]).
    #[default]
    Uncached,
    /// Served from the cache; the simulation never ran.
    Hit,
    /// Simulated and inserted into the cache.
    Miss,
}

impl CacheDisposition {
    /// Stable string form used in the ledger and manifests.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Uncached => "uncached",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// What one executed cell produced: the simulation results plus the
/// truthful execution provenance the manifest records per cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Simulation results.
    pub stats: SimStats,
    /// Result-cache disposition.
    pub cache: CacheDisposition,
}

impl CellRun {
    /// Wraps raw stats as a plain uncached execution.
    pub fn plain(stats: SimStats) -> Self {
        CellRun {
            stats,
            cache: CacheDisposition::Uncached,
        }
    }
}

/// Full outcome of one matrix cell, successful or not.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The workload.
    pub workload: Workload,
    /// The scheme.
    pub scheme: SchemeKind,
    /// Terminal state.
    pub status: CellStatus,
    /// Simulation results, present when `status.is_ok()`.
    pub stats: Option<SimStats>,
    /// Result-cache disposition of the cell's stats.
    pub cache: CacheDisposition,
}

impl CellOutcome {
    /// `workload/scheme` identifier used in logs and the ledger.
    pub fn cell_name(&self) -> String {
        format!("{}/{}", self.workload.name(), self.scheme.name())
    }

    /// The error equivalent of a non-ok outcome, naming the cell by its
    /// [`cell_label`].
    pub fn as_error(&self) -> Option<Error> {
        match &self.status {
            CellStatus::Ok => None,
            CellStatus::Failed { message } => Some(Error::WorkerPanic {
                cell: cell_label(self.workload, &self.scheme),
                message: message.clone(),
            }),
        }
    }
}

/// The name a cell goes by in warnings and errors: the workload and the
/// scheme with its full config, so configurations that share a scheme
/// name (the CacheCraft ablation variants) stay distinct.
pub fn cell_label(workload: Workload, scheme: &SchemeKind) -> String {
    format!("{}/{scheme:?}", workload.name())
}

/// The simulation body of one cell: returns the stats plus the truthful
/// execution provenance ([`CellRun`]).
pub type CellBody = dyn Fn(usize, Workload, SchemeKind) -> CellRun + Send + Sync;

/// Runs a cell once, inline under `catch_unwind`: a panic becomes the
/// cell's failed outcome instead of unwinding through its worker.
fn run_one_cell(
    body: &CellBody,
    idx: usize,
    workload: Workload,
    scheme: SchemeKind,
) -> CellOutcome {
    let (status, stats, cache) =
        match catch_unwind(AssertUnwindSafe(|| body(idx, workload, scheme))) {
            Ok(run) => (CellStatus::Ok, Some(run.stats), run.cache),
            Err(payload) => (
                CellStatus::Failed {
                    message: panic_message(payload),
                },
                None,
                CacheDisposition::Uncached,
            ),
        };
    CellOutcome {
        workload,
        scheme,
        status,
        stats,
        cache,
    }
}

/// The fault-injection config of matrix cell `idx`, when `--inject` is
/// set: each cell gets its own injection stream, its seed derived from
/// the experiment seed and the cell index so runs reproduce.
pub fn cell_faults(opts: &ExpOptions, idx: usize) -> Option<FaultConfig> {
    opts.inject.map(|fc| {
        fc.with_seed(
            opts.seed
                .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    })
}

/// What a generated trace is a function of.
type TraceKey = (Workload, SizeClass, u64);

/// A shared trace: empty until the first cell that needs it generates it.
type TraceSlot = Arc<OnceLock<KernelTrace>>;

/// Every trace slot some cell or matrix still holds, by key. The table
/// holds only weak references, so a trace is freed as soon as its last
/// holder lets go; dead entries are pruned on every lookup.
static TRACES: Mutex<Vec<(TraceKey, Weak<OnceLock<KernelTrace>>)>> = Mutex::new(Vec::new());

/// The live slot for `(workload, size, seed)`, or a new empty one.
fn trace_slot(workload: Workload, size: SizeClass, seed: u64) -> TraceSlot {
    let key = (workload, size, seed);
    let mut table = lock_clean(&TRACES);
    table.retain(|(_, slot)| slot.strong_count() > 0);
    if let Some(slot) = table
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, slot)| slot.upgrade())
    {
        return slot;
    }
    let slot = TraceSlot::default();
    table.push((key, Arc::downgrade(&slot)));
    slot
}

/// Runs one standard simulation cell: take the workload trace, run the
/// scheme, with per-cell-seeded fault injection when configured.
///
/// The trace is shared: every cell that runs while another holds the same
/// `(workload, size, seed)` trace replays that one, and concurrent cells
/// generate it once. Within a matrix the engine keeps each workload's
/// trace alive until its last cell finishes.
pub fn run_cell(
    cfg: &GpuConfig,
    opts: &ExpOptions,
    idx: usize,
    workload: Workload,
    scheme: SchemeKind,
) -> CellRun {
    let slot = trace_slot(workload, opts.size, opts.seed);
    let trace = slot.get_or_init(|| workload.generate(opts.size, opts.seed));
    let obs = Observe {
        faults: cell_faults(opts, idx),
        ..Observe::default()
    };
    let mut built = scheme.build(cfg);
    let stats = simulate(cfg, trace, built.as_mut(), &obs).stats;
    CellRun::plain(stats)
}

/// Builds the standard cell body around [`run_cell`], memoized through
/// the active run's cell cache when there is one.
fn standard_body(cfg: &GpuConfig, opts: &ExpOptions) -> Arc<CellBody> {
    let (cfg, opts) = (*cfg, *opts);
    memoized_body(cfg, opts, move |idx, workload, scheme| {
        run_cell(&cfg, &opts, idx, workload, scheme).stats
    })
}

/// A cell body that serves cell `idx` from the active run's cache under
/// the key of `cfg` and `opts`, and calls `simulate` only on a miss.
/// Without an active run every call simulates.
fn memoized_body(
    cfg: GpuConfig,
    opts: ExpOptions,
    simulate: impl Fn(usize, Workload, SchemeKind) -> SimStats + Send + Sync + 'static,
) -> Arc<CellBody> {
    let run = checkpoint::current();
    Arc::new(
        move |idx, workload, scheme| match run.as_ref().and_then(|r| r.cache()) {
            Some(cache) => {
                let key = CellKey::for_cell(&cfg, &opts, idx, workload, scheme);
                cached(cache, &key, || simulate(idx, workload, scheme))
            }
            None => CellRun::plain(simulate(idx, workload, scheme)),
        },
    )
}

/// Runs every `(workload, scheme)` pair in parallel and returns the full
/// per-cell outcomes — including failed cells — in deterministic
/// (workload-major, scheme-minor) order.
///
/// Each cell is an independent simulation with its own scheme instance,
/// isolated by `catch_unwind`; a panicking cell is reported in its
/// outcome and the rest of the matrix completes.
pub fn run_matrix_cells(
    cfg: &GpuConfig,
    workloads: &[Workload],
    schemes: &[SchemeKind],
    opts: &ExpOptions,
) -> Vec<CellOutcome> {
    run_matrix_cells_with_body(workloads, schemes, opts, standard_body(cfg, opts))
}

/// [`run_matrix_cells`] with a caller-supplied cell body — the matrix
/// engine itself, and the hook the `ccraft-serve` daemon uses to wrap
/// [`run_cell`] with its own cache.
///
/// Fans `workloads × schemes` out over a worker pool, runs each cell
/// once under `catch_unwind`, records the outcomes in the active run's
/// ledger, and returns every outcome in deterministic (workload-major,
/// scheme-minor) order.
pub fn run_matrix_cells_with_body(
    workloads: &[Workload],
    schemes: &[SchemeKind],
    opts: &ExpOptions,
    body: Arc<CellBody>,
) -> Vec<CellOutcome> {
    let all: Vec<(usize, Workload, SchemeKind)> = workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| (w, s)))
        .enumerate()
        .map(|(i, (w, s))| (i, w, s))
        .collect();
    let total = all.len();
    let finished: Mutex<Vec<(usize, CellOutcome)>> = Mutex::new(Vec::with_capacity(total));
    let queue = Mutex::new(all);
    let workers = opts.effective_workers();
    let metrics = crate::metrics::current();
    if let Some(m) = &metrics {
        m.add_planned(total as u64);
        m.set_workers(workers as u64);
    }
    // Each workload's trace slot stays pinned until the workload's last
    // cell finishes, so its cells share one trace even when they run one
    // after another; the slot stays empty unless a cell fills it.
    let pins: Vec<(AtomicUsize, Mutex<Option<TraceSlot>>)> = workloads
        .iter()
        .map(|&w| {
            let slot = trace_slot(w, opts.size, opts.seed);
            (AtomicUsize::new(schemes.len()), Mutex::new(Some(slot)))
        })
        .collect();
    let started = Instant::now();
    let show_progress = progress_enabled();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = lock_clean(&queue).pop();
                let Some((idx, workload, scheme)) = job else {
                    break;
                };
                if let Some(m) = &metrics {
                    m.worker_started();
                }
                let cell_started = Instant::now();
                let outcome = run_one_cell(&*body, idx, workload, scheme);
                let (left, pin) = &pins[idx / schemes.len()];
                if left.fetch_sub(1, Ordering::SeqCst) == 1 {
                    lock_clean(pin).take();
                }
                // Degraded mode: a failed cell is quarantined (failure
                // recorded in the ledger, manifest and metrics) and the
                // sweep continues; it no longer counts toward completion,
                // so the endpoint's ETA can reach zero on degraded runs.
                let ok = outcome.status.is_ok();
                if let Some(m) = &metrics {
                    m.observe_cell(cell_started.elapsed().as_secs_f64(), ok);
                    if outcome.cache == CacheDisposition::Hit {
                        m.cache_hit();
                    }
                    m.worker_finished();
                }
                if let Some(err) = outcome.as_error() {
                    eprintln!("warning: {err}");
                }
                let done = {
                    let mut finished = lock_clean(&finished);
                    finished.push((idx, outcome));
                    finished.len()
                };
                if show_progress {
                    eprintln!(
                        "{}",
                        progress_line(
                            done,
                            total,
                            workload.name(),
                            scheme.name(),
                            started.elapsed().as_secs_f64(),
                        )
                    );
                }
            });
        }
    });
    let mut finished = finished
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    finished.sort_unstable_by_key(|&(idx, _)| idx);
    let outcomes: Vec<CellOutcome> = finished.into_iter().map(|(_, o)| o).collect();
    if let Some(run) = checkpoint::current() {
        run.record(&outcomes);
    }
    outcomes
}

/// Runs every `(workload, scheme)` pair in parallel and returns the
/// successful results in deterministic (workload-major, scheme-minor)
/// order.
///
/// Failed cells are reported on stderr (and in the ledger/manifest via
/// the active run) and omitted from the returned vector; callers that
/// need them use [`run_matrix_cells`].
pub fn run_matrix(
    cfg: &GpuConfig,
    workloads: &[Workload],
    schemes: &[SchemeKind],
    opts: &ExpOptions,
) -> Vec<MatrixResult> {
    run_matrix_cells(cfg, workloads, schemes, opts)
        .into_iter()
        .filter_map(|o| {
            let (workload, scheme) = (o.workload, o.scheme);
            o.stats.map(|stats| MatrixResult {
                workload,
                scheme,
                stats,
            })
        })
        .collect()
}

/// Binds the live metrics endpoint when `--metrics-addr` was given and
/// installs its registry as the process-global sink the matrix engine
/// reports into. A bind failure is a warning, never a run failure.
///
/// The address is read from `std::env::args` here rather than kept in
/// [`ExpOptions`], which is `Copy` and carries no allocations;
/// `ExpOptions::parse` has already rejected a missing value.
fn start_metrics_server() -> Option<crate::http::Server> {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .iter()
        .position(|a| a == "--metrics-addr")
        .and_then(|i| args.get(i + 1).cloned())?;
    let registry = Arc::new(crate::metrics::MetricsRegistry::new());
    match crate::http::Server::bind(&addr, crate::metrics::handler(Arc::clone(&registry))) {
        Ok(server) => {
            crate::metrics::install(registry);
            eprintln!("metrics: serving http://{}/metrics", server.addr());
            Some(server)
        }
        Err(e) => {
            eprintln!("warning: --metrics-addr {addr}: {e}; metrics disabled");
            None
        }
    }
}

/// Standard entry point for an experiment (`ccx exp <id>`): parses [`ExpOptions`]
/// from the command line, starts the live metrics endpoint when
/// `--metrics-addr` was given, runs `body` with every matrix cell
/// memoized through the run cache at `results/cells/` (kept under
/// `--resume`, emptied otherwise), then writes the `results/checkpoint.json`
/// ledger and a `results/manifest.json` recording what produced the
/// results directory — including a warning per failed cell.
///
/// A `body` that returns an error still gets its manifest (stamped with
/// the failure), then the process exits with status 2.
///
/// Manifest- and ledger-write failures are reported on stderr but do not
/// fail the run — the experiment's own artifacts are already on disk.
pub fn run_experiment(id: &str, body: impl FnOnce(&ExpOptions) -> Result<(), Error>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, unknown_flags) = match ExpOptions::parse_with_unknown(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{OPTIONS_USAGE}");
            std::process::exit(EXIT_FAILED);
        }
    };
    warn_unknown_flags(&unknown_flags);
    let started = Instant::now();
    let metrics_server = start_metrics_server();
    let results = crate::report::results_dir();
    let run = match &results {
        Ok(dir) => checkpoint::Run::open(&dir.join("cells"), opts.resume)
            .map_err(|e| eprintln!("warning: {e}; cells run uncached"))
            .ok(),
        Err(e) => {
            eprintln!("warning: results dir unavailable ({e}); cells run uncached");
            None
        }
    };
    let result = match &run {
        Some(run) => checkpoint::scoped(run, || body(&opts)),
        None => body(&opts),
    };
    let mut manifest = RunManifest::new(id);
    // The cache keys' provenance, so the process captures it once.
    manifest.provenance = crate::cellcache::provenance().clone();
    // Behavior-altering feature flags go into provenance so perf-diff can
    // refuse to compare e.g. an oracle build against a stock one.
    manifest.provenance.features = crate::cellcache::features();
    manifest.size = opts.size.to_string();
    manifest.seed = opts.seed;
    manifest.threads = opts.effective_workers();
    manifest.wall_time_secs = started.elapsed().as_secs_f64();
    // Unrecognized flags are non-fatal but must not vanish: a typo like
    // `--thread 4` would otherwise silently change what ran.
    for flag in &unknown_flags {
        manifest.warn(format!("unrecognized flag: {flag}"));
    }
    let cells = run.as_ref().map(|r| r.cells()).unwrap_or_default();
    manifest.note("checkpoint_cells", cells.len() as f64);
    if let (Some(run), Ok(dir)) = (&run, &results) {
        let hits = cells
            .iter()
            .filter(|c| c.cache == CacheDisposition::Hit.as_str())
            .count();
        let corrupt = run.cache().map_or(0, |c| c.counters().corrupt);
        manifest.note("cache_entries_quarantined", corrupt as f64);
        eprintln!("cell cache: {hits}/{} cells hit", cells.len());
        if let Err(e) = run.write_ledger(&dir.join("checkpoint.json"), id) {
            eprintln!("warning: failed to write checkpoint.json: {e}");
        }
    }
    let mut quarantined = 0usize;
    for cell in &cells {
        manifest.record_cell(ccraft_telemetry::manifest::CellManifest {
            cell: cell.key.clone(),
            cache: cell.cache.clone(),
            status: cell.status.clone(),
        });
        // The matrix engine already warned on stderr when the cell
        // failed; the manifest keeps the same words.
        if !cell.is_ok() {
            quarantined += 1;
            manifest.warn(
                cell.message
                    .clone()
                    .unwrap_or_else(|| format!("cell {} {}", cell.key, cell.status)),
            );
        }
    }
    // Graceful degradation: a failed cell is quarantined (checkpoint +
    // manifest + metric) and the sweep completes with a distinct exit
    // code.
    manifest.note("cells_quarantined", quarantined as f64);
    if quarantined > 0 {
        let w = format!("degraded run: {quarantined} cell(s) quarantined");
        eprintln!("warning: {w}");
        manifest.warn(w);
    }
    if let Err(e) = &result {
        eprintln!("error: {id}: {e}");
        manifest.warn(format!("experiment failed: {e}"));
    }
    if let Some(server) = metrics_server {
        crate::metrics::clear();
        server.shutdown();
    }
    manifest.stamp();
    match crate::report::write_manifest(&manifest) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("warning: failed to write manifest.json: {e}"),
    }
    let exit = match &result {
        // A report that only failed because quarantined cells left holes
        // in the matrix is a *degraded* completion, not a failure.
        Err(Error::MissingCell { .. }) if quarantined > 0 => EXIT_DEGRADED,
        Err(_) => EXIT_FAILED,
        Ok(()) if quarantined > 0 => EXIT_DEGRADED,
        Ok(()) => EXIT_OK,
    };
    if exit != EXIT_OK {
        std::process::exit(exit);
    }
}

/// The cell of `(workload, scheme)` in a matrix, matched on the full
/// [`SchemeKind`] (configuration included), so two configurations of one
/// scheme, such as the CacheCraft ablation variants, are different cells.
///
/// A cell that is absent (its simulation failed) becomes
/// [`Error::MissingCell`] instead of a panic or a wrong neighbour: the
/// figure fails, and `ccx exp all` still runs every other figure.
///
/// # Errors
///
/// Returns [`Error::MissingCell`] naming the cell by its [`cell_label`]
/// when the cell is absent.
pub fn require<'a>(
    results: &'a [MatrixResult],
    workload: Workload,
    scheme: &SchemeKind,
) -> Result<&'a MatrixResult, Error> {
    results
        .iter()
        .find(|r| r.workload == workload && r.scheme == *scheme)
        .ok_or_else(|| Error::MissingCell {
            cell: cell_label(workload, scheme),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_core::cachecraft::CacheCraftConfig;
    use ccraft_core::factory::run_scheme;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tiny_opts(threads: usize) -> ExpOptions {
        ExpOptions {
            size: SizeClass::Tiny,
            seed: 1,
            threads,
            ..ExpOptions::default()
        }
    }

    #[test]
    fn parse_accepts_valid_options() {
        let o = ExpOptions::parse(&argv(&["--size", "tiny", "--seed", "7", "--threads", "3"]))
            .expect("valid options parse");
        assert_eq!(o.size, SizeClass::Tiny);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 3);
        // Defaults survive an empty argument list.
        let d = ExpOptions::parse(&[]).unwrap();
        assert_eq!(d.size, SizeClass::Small);
        assert_eq!(d.seed, 1);
        assert_eq!(d.threads, 0);
        assert!(d.inject.is_none());
        assert!(!d.resume);
    }

    #[test]
    fn parse_accepts_resilience_options() {
        let o = ExpOptions::parse(&argv(&["--inject", "symbol:1e-4", "--resume"]))
            .expect("resilience options parse");
        assert!(o.inject.is_some());
        assert!(o.resume);
    }

    #[test]
    fn parse_rejects_malformed_values() {
        let e = ExpOptions::parse(&argv(&["--seed", "not-a-number"]))
            .unwrap_err()
            .to_string();
        assert!(e.contains("--seed"), "{e}");
        let e = ExpOptions::parse(&argv(&["--threads"]))
            .unwrap_err()
            .to_string();
        assert!(e.contains("--threads"), "{e}");
        let e = ExpOptions::parse(&argv(&["--size", "huge"]))
            .unwrap_err()
            .to_string();
        assert!(e.contains("--size"), "{e}");
        let e = ExpOptions::parse(&argv(&["--inject", "nosuch:1"]))
            .unwrap_err()
            .to_string();
        assert!(e.contains("--inject"), "{e}");
        // Typed: all of these are configuration errors.
        assert!(matches!(
            ExpOptions::parse(&argv(&["--threads", "x"])),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn parse_passes_unknown_flags_through() {
        let o = ExpOptions::parse(&argv(&["--workload", "spmv", "--energy", "--seed", "4"]))
            .expect("unknown flags are ignored");
        assert_eq!(o.seed, 4);
        assert_eq!(o.size, SizeClass::Small);
    }

    #[test]
    fn parse_with_unknown_reports_typos_and_caller_flags() {
        // A typo like --thread must be surfaced, not swallowed.
        let (o, unknown) = ExpOptions::parse_with_unknown(&argv(&["--thread", "4", "--seed", "2"]))
            .expect("unknown flags never fail the parse");
        assert_eq!(o.seed, 2);
        assert_eq!(o.threads, 0, "the typo must not set threads");
        assert_eq!(unknown, vec!["--thread".to_string()]);
        // --metrics-addr is the harness's own flag and is not reported;
        // a caller's flags are, and the caller filters out its own.
        let (_, unknown) = ExpOptions::parse_with_unknown(&argv(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--workload",
            "spmv",
        ]))
        .expect("harness and caller flags parse");
        assert_eq!(unknown, vec!["--workload".to_string()]);
        // Bare positional values (`ccx exp main`, a flag's value) are
        // not flags and are not reported.
        let (_, unknown) = ExpOptions::parse_with_unknown(&argv(&["exp", "main", "spmv"]))
            .expect("positional ignored");
        assert!(unknown.is_empty(), "{unknown:?}");
        // The removed per-cell resilience flags are reported like any
        // other unknown flag, and set nothing.
        let (o, unknown) = ExpOptions::parse_with_unknown(&argv(&[
            "--retries",
            "2",
            "--cell-timeout",
            "5",
            "--fail-fast",
        ]))
        .expect("removed flags never fail the parse");
        assert_eq!(unknown, ["--retries", "--cell-timeout", "--fail-fast"]);
        assert_eq!(format!("{o:?}"), format!("{:?}", ExpOptions::default()));
    }

    #[test]
    fn sim_threads_flag_accepts_only_one() {
        let o = ExpOptions::parse(&argv(&["--sim-threads", "1", "--seed", "3"]))
            .expect("--sim-threads 1 still parses");
        assert_eq!(o.seed, 3);
        for n in ["0", "2", "8"] {
            let e = ExpOptions::parse(&argv(&["--sim-threads", n])).unwrap_err();
            assert!(matches!(e, Error::Config(_)), "{e}");
            assert!(
                e.to_string().contains("sharded simulation was removed"),
                "{e}"
            );
        }
    }

    #[test]
    fn outcomes_carry_cache_disposition() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        for inject in [
            None,
            Some(FaultConfig::parse("symbol:1.0").expect("valid spec")),
        ] {
            let opts = ExpOptions {
                inject,
                ..tiny_opts(1)
            };
            let outcomes = run_matrix_cells_with_body(
                &[Workload::VecAdd],
                &[SchemeKind::NoProtection],
                &opts,
                standard_body(&cfg, &opts),
            );
            assert_eq!(outcomes[0].status, CellStatus::Ok);
            assert_eq!(outcomes[0].cache, CacheDisposition::Uncached);
        }
    }

    #[test]
    fn progress_line_extrapolates_eta() {
        let line = progress_line(2, 8, "spmv", "cachecraft", 4.0);
        assert!(line.contains("[2/8]"), "{line}");
        assert!(line.contains("spmv/cachecraft"), "{line}");
        assert!(line.contains("ETA 12.0s"), "{line}");
        let last = progress_line(8, 8, "spmv", "cachecraft", 16.0);
        assert!(last.contains("16.0s total"), "{last}");
        // Never divides by zero even if called before any completion.
        let first = progress_line(0, 8, "w", "s", 1.0);
        assert!(first.contains("[0/8]"), "{first}");
    }

    #[test]
    fn matrix_runs_all_cells_in_order() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let opts = tiny_opts(2);
        let workloads = [Workload::VecAdd, Workload::Histogram];
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
        ];
        let results = run_matrix(&cfg, &workloads, &schemes, &opts);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].workload, Workload::VecAdd);
        assert_eq!(results[0].scheme.name(), "no-protection");
        assert_eq!(results[3].workload, Workload::Histogram);
        assert_eq!(results[3].scheme.name(), "inline-naive");
        for r in &results {
            assert!(!r.stats.timed_out);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let workloads = [Workload::Saxpy];
        let schemes = [SchemeKind::InlineNaive { coverage: 8 }];
        let par = run_matrix(
            &cfg,
            &workloads,
            &schemes,
            &ExpOptions {
                seed: 5,
                ..tiny_opts(4)
            },
        );
        let seq = run_matrix(
            &cfg,
            &workloads,
            &schemes,
            &ExpOptions {
                seed: 5,
                ..tiny_opts(1)
            },
        );
        assert_eq!(par[0].stats, seq[0].stats);
    }

    #[test]
    fn normalized_perf_is_relative() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let opts = tiny_opts(1);
        let results = run_matrix(
            &cfg,
            &[Workload::VecAdd],
            &[
                SchemeKind::NoProtection,
                SchemeKind::InlineNaive { coverage: 8 },
            ],
            &opts,
        );
        let baseline = &results[0].stats;
        assert!((results[0].normalized_perf(baseline) - 1.0).abs() < 1e-12);
        assert!(results[1].normalized_perf(baseline) <= 1.0);
    }

    #[test]
    fn require_tells_scheme_configs_apart() {
        let cell = |scheme, exec_cycles| MatrixResult {
            workload: Workload::VecAdd,
            scheme,
            stats: SimStats {
                exec_cycles,
                ..SimStats::default()
            },
        };
        let c1 = SchemeKind::CacheCraft(CacheCraftConfig::colocate_only());
        let c2 = SchemeKind::CacheCraft(CacheCraftConfig::fragments_only());
        let results = [cell(c1, 100), cell(c2, 200)];
        let got =
            |scheme| require(&results, Workload::VecAdd, &scheme).map(|r| r.stats.exec_cycles);
        assert_eq!(got(c1).ok(), Some(100));
        assert_eq!(got(c2).ok(), Some(200));
        let full = SchemeKind::CacheCraft(CacheCraftConfig::full());
        let label = format!("vecadd/{full:?}");
        assert!(label.starts_with("vecadd/CacheCraft(CacheCraftConfig {"));
        assert!(matches!(
            got(full),
            Err(Error::MissingCell { cell }) if cell == label
        ));
    }

    #[test]
    fn panicking_cell_fails_alone() {
        let _guard = crate::checkpoint::test_guard();
        // A body that panics for exactly one cell: the rest of the matrix
        // completes, the failure carries the panic message, and the
        // failing cell ran exactly once.
        let opts = tiny_opts(2);
        let failing_calls = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&failing_calls);
        let body: Arc<CellBody> = Arc::new(move |_, workload, scheme| {
            if workload == Workload::Saxpy && scheme.name() == "no-protection" {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("deliberate test panic");
            }
            CellRun::plain(run_scheme(
                &GpuConfig::tiny(),
                scheme,
                &workload.generate(SizeClass::Tiny, 1),
            ))
        });
        let outcomes = run_matrix_cells_with_body(
            &[Workload::VecAdd, Workload::Saxpy],
            &[
                SchemeKind::NoProtection,
                SchemeKind::InlineNaive { coverage: 8 },
            ],
            &opts,
            body,
        );
        assert_eq!(outcomes.len(), 4);
        let failed: Vec<_> = outcomes.iter().filter(|o| !o.status.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].cell_name(), "saxpy/no-protection");
        match &failed[0].status {
            CellStatus::Failed { message } => {
                assert!(message.contains("deliberate test panic"), "{message}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(failed[0].stats.is_none());
        assert_eq!(failing_calls.load(Ordering::SeqCst), 1);
        // Every other cell completed with stats.
        assert_eq!(outcomes.iter().filter(|o| o.status.is_ok()).count(), 3);
        // And the lossy view simply omits the failed cell.
        let err = failed[0].as_error().expect("non-ok maps to an error");
        assert!(matches!(err, Error::WorkerPanic { .. }));
    }

    #[test]
    fn failed_cells_are_quarantined_and_the_sweep_completes() {
        let _guard = crate::checkpoint::test_guard();
        // One worker pops the queue from the back, so histogram (the last
        // cell) fails first; the cells after it still run.
        let body: Arc<CellBody> = Arc::new(|_, workload, scheme| {
            if workload == Workload::Histogram {
                panic!("quarantine me");
            }
            CellRun::plain(run_scheme(
                &GpuConfig::tiny(),
                scheme,
                &workload.generate(SizeClass::Tiny, 1),
            ))
        });
        let registry = Arc::new(crate::metrics::MetricsRegistry::new());
        crate::metrics::install(Arc::clone(&registry));
        let outcomes = run_matrix_cells_with_body(
            &[Workload::VecAdd, Workload::Saxpy, Workload::Histogram],
            &[SchemeKind::NoProtection],
            &tiny_opts(1),
            body,
        );
        crate::metrics::clear();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].status.is_ok() && outcomes[1].status.is_ok());
        assert!(matches!(outcomes[2].status, CellStatus::Failed { .. }));
        assert!(registry.render().contains("ccraft_cells_failed_total 1"));
    }

    #[test]
    fn injection_reaches_matrix_cells() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let opts = ExpOptions {
            inject: Some(FaultConfig::parse("symbol:1.0").expect("valid spec")),
            ..tiny_opts(2)
        };
        let results = run_matrix(
            &cfg,
            &[Workload::VecAdd],
            &[
                SchemeKind::NoProtection,
                SchemeKind::InlineNaive { coverage: 8 },
            ],
            &opts,
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            let fs = r.stats.faults.expect("fault stats attached");
            assert!(fs.injected > 0, "{}", r.scheme.name());
        }
        // Same options reproduce bit-identically (per-cell derived seeds).
        let again = run_matrix(
            &cfg,
            &[Workload::VecAdd],
            &[
                SchemeKind::NoProtection,
                SchemeKind::InlineNaive { coverage: 8 },
            ],
            &opts,
        );
        for (a, b) in results.iter().zip(&again) {
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn thread_count_does_not_change_stats() {
        let _guard = crate::checkpoint::test_guard();
        // Guards the idle-skip and buffer-reuse rewrites against any
        // order-dependence: an 8-worker run of a mixed matrix must produce
        // bit-identical SimStats to a sequential run.
        let cfg = GpuConfig::tiny();
        let workloads = [Workload::VecAdd, Workload::Saxpy, Workload::Histogram];
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
            SchemeKind::CacheCraft(ccraft_core::CacheCraftConfig::for_machine(&cfg)),
        ];
        let opts_1 = ExpOptions {
            seed: 7,
            ..tiny_opts(1)
        };
        let opts_8 = ExpOptions {
            seed: 7,
            ..tiny_opts(8)
        };
        let seq = run_matrix(&cfg, &workloads, &schemes, &opts_1);
        let par = run_matrix(&cfg, &workloads, &schemes, &opts_8);
        assert_eq!(seq.len(), 9);
        assert_eq!(par.len(), 9);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.scheme.name(), b.scheme.name());
            assert_eq!(
                a.stats,
                b.stats,
                "{}/{}",
                a.workload.name(),
                a.scheme.name()
            );
        }
    }

    #[test]
    fn matrix_engine_feeds_the_metrics_registry() {
        let _guard = crate::checkpoint::test_guard();
        let registry = Arc::new(crate::metrics::MetricsRegistry::new());
        crate::metrics::install(Arc::clone(&registry));
        let opts = tiny_opts(2);
        let body: Arc<CellBody> = Arc::new(|_, workload, scheme| {
            if workload == Workload::Saxpy {
                panic!("metrics test casualty");
            }
            CellRun::plain(run_scheme(
                &GpuConfig::tiny(),
                scheme,
                &workload.generate(SizeClass::Tiny, 1),
            ))
        });
        let outcomes = run_matrix_cells_with_body(
            &[Workload::VecAdd, Workload::Saxpy],
            &[SchemeKind::NoProtection],
            &opts,
            body,
        );
        crate::metrics::clear();
        assert_eq!(outcomes.len(), 2);
        let text = registry.render();
        assert!(text.contains("ccraft_cells_planned 2"), "{text}");
        // The panicking saxpy cell is failed (quarantined), not completed.
        assert!(text.contains("ccraft_cells_completed_total 1"), "{text}");
        assert!(text.contains("ccraft_cells_failed_total 1"), "{text}");
        assert!(text.contains("ccraft_workers 2"), "{text}");
        // All workers idle again after the scope joins.
        assert!(text.contains("ccraft_workers_active 0"), "{text}");
        assert!(text.contains("ccraft_cell_seconds_count 2"), "{text}");
    }

    /// A run cache under the temp dir; emptied unless `resume`.
    fn run_at(tag: &str, resume: bool) -> Arc<checkpoint::Run> {
        let dir = std::env::temp_dir().join(format!("ccraft-runner-{tag}-{}", std::process::id()));
        checkpoint::Run::open(&dir, resume).unwrap()
    }

    fn dispositions(outcomes: &[CellOutcome]) -> Vec<CacheDisposition> {
        outcomes.iter().map(|o| o.cache).collect()
    }

    #[test]
    fn resume_hits_finished_cells_and_reruns_the_rest() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let opts = tiny_opts(2);
        let workloads = [Workload::VecAdd, Workload::Saxpy];
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
        ];
        let uncached = run_matrix_cells(&cfg, &workloads, &schemes, &opts);
        let run = run_at("resume", false);
        let first =
            checkpoint::scoped(&run, || run_matrix_cells(&cfg, &workloads, &schemes, &opts));
        assert_eq!(dispositions(&first), [CacheDisposition::Miss; 4]);

        // A kill before the last cell finished leaves no entry for it.
        let last = CellKey::for_cell(&cfg, &opts, 3, Workload::Saxpy, schemes[1]);
        let entry = format!("{}.json", last.digest());
        std::fs::remove_file(run.cache().expect("cache opens").dir().join(entry)).unwrap();

        let resumed = run_at("resume", true);
        let second = checkpoint::scoped(&resumed, || {
            run_matrix_cells(&cfg, &workloads, &schemes, &opts)
        });
        use CacheDisposition::{Hit, Miss};
        assert_eq!(dispositions(&second), [Hit, Hit, Hit, Miss]);
        for ((a, b), c) in uncached.iter().zip(&first).zip(&second) {
            assert_eq!(a.stats, b.stats, "a cached run is bit-identical");
            assert_eq!(a.stats, c.stats, "a resumed run is bit-identical");
        }
        // The ledger records every executed cell with its disposition.
        let ledger = resumed.cells();
        assert_eq!(ledger.len(), 4);
        assert!(ledger.iter().all(|c| c.is_ok()));
        assert_eq!(ledger[0].cache, "hit");
        assert_eq!(ledger[3].cache, "miss");
    }

    #[test]
    fn failed_cells_leave_no_entry_and_rerun_on_resume() {
        let _guard = crate::checkpoint::test_guard();
        // First run: one cell panics, three succeed. Resumed run: only
        // the failed cell simulates; the finished ones are hits.
        let cfg = GpuConfig::tiny();
        let opts = tiny_opts(2);
        let workloads = [Workload::VecAdd, Workload::Saxpy];
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
        ];
        let executed = Arc::new(Mutex::new(Vec::new()));
        let body = |panicky: bool| {
            let executed = Arc::clone(&executed);
            memoized_body(cfg, opts, move |idx, workload, scheme| {
                let name = format!("{}/{}", workload.name(), scheme.name());
                if panicky && name == "saxpy/inline-naive" {
                    panic!("first-run casualty");
                }
                lock_clean(&executed).push(name);
                run_cell(&cfg, &opts, idx, workload, scheme).stats
            })
        };
        let ledger_at = |run: &checkpoint::Run| {
            let path = run.cache().expect("cache opens").dir().join("ledger.json");
            run.write_ledger(&path, "t").unwrap();
            let (text, verified) = crate::store::read_verified_string(&path).unwrap();
            assert!(verified, "the ledger carries a checksum footer");
            serde_json::from_str::<checkpoint::Checkpoint>(&text).unwrap()
        };

        let run = run_at("failed", false);
        let first = checkpoint::scoped(&run, || {
            run_matrix_cells_with_body(&workloads, &schemes, &opts, body(true))
        });
        assert_eq!(first.iter().filter(|o| o.status.is_ok()).count(), 3);
        assert_eq!(run.cache().expect("cache opens").len(), 3);
        let failed = &ledger_at(&run).cells[3];
        assert_eq!(failed.key, "m0/saxpy/inline-naive");
        assert_eq!(failed.status, checkpoint::STATUS_FAILED);
        let message = failed.message.as_deref().unwrap_or_default();
        assert!(message.contains("first-run casualty"), "{message}");
        assert!(message.contains("InlineNaive { coverage: 8 }"), "{message}");

        lock_clean(&executed).clear();
        let resumed = run_at("failed", true);
        let second = checkpoint::scoped(&resumed, || {
            run_matrix_cells_with_body(&workloads, &schemes, &opts, body(false))
        });
        use CacheDisposition::{Hit, Miss};
        assert_eq!(dispositions(&second), [Hit, Hit, Hit, Miss]);
        assert_eq!(*lock_clean(&executed), ["saxpy/inline-naive"]);
        let fresh = run_cell(&cfg, &opts, 3, Workload::Saxpy, schemes[1]).stats;
        assert_eq!(second[3].stats.as_ref(), Some(&fresh));
        let ledger = ledger_at(&resumed);
        assert_eq!(ledger.cells.len(), 4);
        assert!(ledger.cells.iter().all(|c| c.is_ok()));
    }

    #[test]
    fn resumed_variants_sharing_a_name_keep_their_own_stats() {
        let _guard = crate::checkpoint::test_guard();
        // Both variants are named `cachecraft`; a name-keyed resume would
        // hand one variant's stats to the other.
        let cfg = GpuConfig::tiny();
        let opts = tiny_opts(2);
        let workloads = [Workload::Spmv];
        let schemes = [
            SchemeKind::CacheCraft(ccraft_core::CacheCraftConfig::colocate_only()),
            SchemeKind::CacheCraft(ccraft_core::CacheCraftConfig::reconstruct_only()),
        ];
        assert_eq!(schemes[0].name(), schemes[1].name());
        let fresh: Vec<SimStats> = schemes
            .iter()
            .enumerate()
            .map(|(idx, &s)| run_cell(&cfg, &opts, idx, workloads[0], s).stats)
            .collect();
        assert_ne!(fresh[0], fresh[1], "the variants must be distinguishable");
        let run = run_at("variants", false);
        checkpoint::scoped(&run, || run_matrix_cells(&cfg, &workloads, &schemes, &opts));
        let resumed = run_at("variants", true);
        let second = checkpoint::scoped(&resumed, || {
            run_matrix_cells(&cfg, &workloads, &schemes, &opts)
        });
        assert_eq!(dispositions(&second), [CacheDisposition::Hit; 2]);
        for (o, want) in second.iter().zip(&fresh) {
            assert_eq!(o.stats.as_ref(), Some(want));
        }
    }

    #[test]
    fn shared_cells_of_a_later_matrix_call_hit() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let opts = tiny_opts(1);
        let naive = SchemeKind::InlineNaive { coverage: 8 };
        let craft = SchemeKind::CacheCraft(ccraft_core::CacheCraftConfig::for_machine(&cfg));
        let run = run_at("dedupe", false);
        let (a, b) = checkpoint::scoped(&run, || {
            let a = run_matrix_cells(
                &cfg,
                &[Workload::VecAdd],
                &[SchemeKind::NoProtection, naive],
                &opts,
            );
            // `naive` moves from index 1 to index 0: without injection
            // the index is not part of the key.
            let b = run_matrix_cells(&cfg, &[Workload::VecAdd], &[naive, craft], &opts);
            (a, b)
        });
        use CacheDisposition::{Hit, Miss};
        assert_eq!(dispositions(&a), [Miss, Miss]);
        assert_eq!(dispositions(&b), [Hit, Miss]);
        let fresh = run_cell(&cfg, &opts, 0, Workload::VecAdd, naive).stats;
        assert_eq!(b[0].stats.as_ref(), Some(&fresh));
        assert_eq!(run.cells().len(), 4, "repeated cells get a record each");
        assert_eq!(run.cache().expect("cache opens").len(), 3);
    }

    #[test]
    fn changed_inject_misses_and_unchanged_inject_hits() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let workloads = [Workload::VecAdd];
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
        ];
        let with = |spec: &str| ExpOptions {
            inject: Some(FaultConfig::parse(spec).expect("valid spec")),
            ..tiny_opts(1)
        };
        let go = |opts: &ExpOptions, resume: bool| {
            let run = run_at("inject", resume);
            checkpoint::scoped(&run, || run_matrix_cells(&cfg, &workloads, &schemes, opts))
        };
        use CacheDisposition::{Hit, Miss};
        assert_eq!(dispositions(&go(&with("symbol:1.0"), false)), [Miss, Miss]);
        // A resume under a different fault config re-runs every cell...
        let changed = go(&with("bit2:1.0"), true);
        assert_eq!(dispositions(&changed), [Miss, Miss]);
        // ...and an unchanged one replays them bit-identically.
        let again = go(&with("bit2:1.0"), true);
        assert_eq!(dispositions(&again), [Hit, Hit]);
        for (a, b) in changed.iter().zip(&again) {
            assert_eq!(a.stats, b.stats);
            let faults = a.stats.as_ref().and_then(|s| s.faults);
            assert!(faults.is_some_and(|f| f.injected > 0));
        }
    }

    #[test]
    fn metrics_addr_requires_a_value() {
        for args in [&["--metrics-addr"][..], &["--metrics-addr", "--seed", "2"]] {
            let e = ExpOptions::parse(&argv(args)).unwrap_err();
            assert!(matches!(e, Error::Config(_)), "{e}");
            assert!(e.to_string().contains("--metrics-addr"), "{e}");
        }
        let o = ExpOptions::parse(&argv(&["--metrics-addr", "127.0.0.1:0", "--seed", "2"]))
            .expect("an address parses");
        assert_eq!(o.seed, 2);
    }

    /// Whether the trace table holds a live slot for `key`.
    fn table_holds(key: TraceKey) -> bool {
        lock_clean(&TRACES)
            .iter()
            .any(|(k, slot)| *k == key && slot.strong_count() > 0)
    }

    // The sharing tests use seeds no other test uses, so tests running
    // side by side never hold their slots.

    #[test]
    fn concurrent_cells_share_one_generated_trace() {
        let seed = 0x5EED_0001;
        let barrier = std::sync::Barrier::new(2);
        let generated = AtomicUsize::new(0);
        let slots: Vec<TraceSlot> = std::thread::scope(|scope| {
            let take = || {
                barrier.wait();
                let slot = trace_slot(Workload::Spmv, SizeClass::Tiny, seed);
                slot.get_or_init(|| {
                    generated.fetch_add(1, Ordering::SeqCst);
                    Workload::Spmv.generate(SizeClass::Tiny, seed)
                });
                // Neither thread lets go before both hold the slot.
                barrier.wait();
                slot
            };
            let handles = [scope.spawn(take), scope.spawn(take)];
            handles.map(|h| h.join().expect("no panic")).into()
        });
        assert!(Arc::ptr_eq(&slots[0], &slots[1]));
        assert_eq!(generated.load(Ordering::SeqCst), 1);
        assert_eq!(
            slots[0].get(),
            Some(&Workload::Spmv.generate(SizeClass::Tiny, seed))
        );
    }

    #[test]
    fn different_sizes_and_seeds_never_alias() {
        let seed = 0x5EED_0002;
        let keys = [
            (Workload::VecAdd, SizeClass::Tiny, seed),
            (Workload::VecAdd, SizeClass::Small, seed),
            (Workload::VecAdd, SizeClass::Tiny, seed + 1),
            (Workload::Saxpy, SizeClass::Tiny, seed),
        ];
        let slots: Vec<TraceSlot> = keys.iter().map(|&(w, z, s)| trace_slot(w, z, s)).collect();
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        for (&(w, z, s), slot) in keys.iter().zip(&slots) {
            assert!(Arc::ptr_eq(slot, &trace_slot(w, z, s)));
            if z == SizeClass::Tiny {
                assert_eq!(slot.get_or_init(|| w.generate(z, s)), &w.generate(z, s));
            }
        }
    }

    #[test]
    fn released_traces_are_freed() {
        let _guard = crate::checkpoint::test_guard();
        let seed = 0x5EED_0003;
        let key = (Workload::Triad, SizeClass::Tiny, seed);
        let slot = trace_slot(key.0, key.1, key.2);
        slot.get_or_init(|| key.0.generate(key.1, key.2));
        let weak = Arc::downgrade(&slot);
        assert!(table_holds(key));
        drop(slot);
        assert_eq!(weak.strong_count(), 0);
        assert!(!table_holds(key));
        // A matrix releases its pins and its cells' holds when it returns.
        let opts = ExpOptions {
            seed,
            ..tiny_opts(2)
        };
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
        ];
        let outcomes =
            run_matrix_cells(&GpuConfig::tiny(), &[key.0, Workload::Bfs], &schemes, &opts);
        assert!(outcomes.iter().all(|o| o.status.is_ok()));
        assert!(!table_holds(key));
        assert!(!table_holds((Workload::Bfs, SizeClass::Tiny, seed)));
    }

    #[test]
    fn single_worker_matrix_replays_one_trace_per_workload() {
        let _guard = crate::checkpoint::test_guard();
        let cfg = GpuConfig::tiny();
        let opts = ExpOptions {
            seed: 0x5EED_0004,
            ..tiny_opts(1)
        };
        // Weak references keep each slot's allocation, so a freed slot's
        // address is never reused by a later one.
        type Seen = Vec<(Workload, Weak<OnceLock<KernelTrace>>)>;
        let seen: Arc<Mutex<Seen>> = Arc::default();
        let sink = Arc::clone(&seen);
        let body: Arc<CellBody> = Arc::new(move |idx, workload, scheme| {
            let slot = trace_slot(workload, opts.size, opts.seed);
            lock_clean(&sink).push((workload, Arc::downgrade(&slot)));
            run_cell(&cfg, &opts, idx, workload, scheme)
        });
        let workloads = [Workload::VecAdd, Workload::Histogram];
        let schemes = [
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
            SchemeKind::InlineNaive { coverage: 4 },
        ];
        let outcomes = run_matrix_cells_with_body(&workloads, &schemes, &opts, body);
        assert!(outcomes.iter().all(|o| o.status.is_ok()));
        let seen = lock_clean(&seen);
        assert_eq!(seen.len(), 6);
        let firsts: Vec<&Weak<OnceLock<KernelTrace>>> = workloads
            .iter()
            .map(|&w| {
                let mut slots = seen.iter().filter(|(x, _)| *x == w).map(|(_, s)| s);
                let first = slots.next().expect("the workload ran");
                assert!(
                    slots.all(|s| s.ptr_eq(first)),
                    "{w}: one slot across its cells"
                );
                first
            })
            .collect();
        assert!(!firsts[0].ptr_eq(firsts[1]), "workloads never share a slot");
    }
}
