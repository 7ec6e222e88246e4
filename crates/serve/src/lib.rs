//! # ccraft-serve — persistent experiment service with a content-addressed result cache
//!
//! A warm daemon (`ccx serve`) that accepts sweep submissions over a
//! std-only HTTP API and answers them from a durable, content-addressed
//! cell result cache (`ccraft_harness::cellcache`). Cache hits skip
//! simulation entirely, so a repeated identical sweep costs O(changed
//! cells): the second submission of the same [`JobSpec`] re-simulates
//! nothing and returns byte-identical CSVs.
//!
//! ## API
//!
//! | Method | Path                 | Meaning                                     |
//! |--------|----------------------|---------------------------------------------|
//! | GET    | `/healthz`           | liveness probe (`ok`)                       |
//! | GET    | `/metrics`           | Prometheus exposition of the installed `ccraft_harness::metrics` registry (`ccx serve` installs one) |
//! | GET    | `/cache`             | cache counters + entry count (JSON)         |
//! | POST   | `/jobs`              | submit a [`JobSpec`] (JSON body) → job id   |
//! | GET    | `/jobs/<id>`         | job status summary (JSON)                   |
//! | GET    | `/jobs/<id>/events`  | per-cell progress log (JSON array; `?from=N` skips the first N) |
//! | GET    | `/jobs/<id>/manifest`| the job's `RunManifest` (JSON)              |
//! | GET    | `/jobs/<id>/csv`     | results CSV in durable encoding (crc32 footer; verify with `ccraft_harness::store`) |
//!
//! The listener is `ccraft_harness::http::Server`, the same std-only
//! HTTP/1.1 layer that serves an experiment's `--metrics-addr` endpoint:
//! one listener thread, one short-lived thread per connection, bounded
//! request reads. [`Server`] adds only the routing above. Each submitted
//! job executes on its own thread through the harness matrix engine with
//! a cache-aware cell body, so many clients can share one warm process.
//!
//! ## Cache keys
//!
//! A cell result is keyed by everything that determines it, through the
//! same `CellKey::for_cell` and `cached` path experiment runs use: scheme
//! (with full config), workload, machine config, size, effective seed,
//! the cell's derived inject config, cargo feature flags, and the code
//! version (see `ccraft_harness::cellcache` for the digest definition).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ccraft_core::factory::SchemeKind;
use ccraft_harness::cellcache::{cached, fnv1a64, CellKey, ResultCache, FNV_BASIS};
use ccraft_harness::http::{Request, Response};
use ccraft_harness::report::Table;
use ccraft_harness::runner::{run_cell, run_matrix_cells_with_body, CellBody, CellRun};
use ccraft_harness::{lock_clean, CacheDisposition, CellOutcome, Error, ExpOptions};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::faults::FaultConfig;
use ccraft_telemetry::manifest::{CellManifest, RunManifest};
use ccraft_workloads::{SizeClass, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use ccraft_harness::http::request as http_request;

/// Overrides the sweep seed for one `workload/scheme` cell, so a client
/// can re-run exactly one cell of an otherwise-cached sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedOverride {
    /// Workload short name.
    pub workload: String,
    /// Scheme short name.
    pub scheme: String,
    /// Seed for that cell.
    pub seed: u64,
}

/// One sweep submission: the JSON body of `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Workload names, or `["all"]`.
    #[serde(default)]
    pub workloads: Vec<String>,
    /// Scheme names, or `["all"]`.
    #[serde(default)]
    pub schemes: Vec<String>,
    /// Machine name (`gddr6` | `hbm2`).
    #[serde(default = "default_machine")]
    pub machine: String,
    /// Size class (`tiny` | `small` | `full`).
    #[serde(default = "default_size")]
    pub size: String,
    /// Base seed for every cell.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Fault-injection spec (e.g. `symbol:1e-6`), if any.
    #[serde(default)]
    pub inject: Option<String>,
    /// Per-cell seed overrides.
    #[serde(default)]
    pub seed_overrides: Vec<SeedOverride>,
}

fn default_machine() -> String {
    "gddr6".to_string()
}
fn default_size() -> String {
    "small".to_string()
}
fn default_seed() -> u64 {
    1
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            workloads: vec!["all".to_string()],
            schemes: vec!["all".to_string()],
            machine: default_machine(),
            size: default_size(),
            seed: default_seed(),
            inject: None,
            seed_overrides: Vec::new(),
        }
    }
}

/// Resolves a headline scheme's short name (`SchemeKind::name`), or the
/// alias `off` or `naive`, against a machine config. Shared by the
/// daemon and the `ccx` front end so both accept the same vocabulary.
pub fn scheme_by_name(name: &str, cfg: &GpuConfig) -> Option<SchemeKind> {
    let name = match name {
        "off" => "no-protection",
        "naive" => "inline-naive",
        other => other,
    };
    SchemeKind::headline(cfg)
        .into_iter()
        .find(|k| k.name() == name)
}

/// Resolves a machine name to its config.
pub fn machine_by_name(name: &str) -> Option<GpuConfig> {
    match name {
        "gddr6" => Some(GpuConfig::gddr6()),
        "hbm2" => Some(GpuConfig::hbm2()),
        _ => None,
    }
}

/// Resolves a size-class name.
pub fn size_by_name(name: &str) -> Option<SizeClass> {
    match name {
        "tiny" => Some(SizeClass::Tiny),
        "small" => Some(SizeClass::Small),
        "full" => Some(SizeClass::Full),
        _ => None,
    }
}

/// A resolved, validated job spec.
struct ResolvedSpec {
    cfg: GpuConfig,
    size: SizeClass,
    workloads: Vec<Workload>,
    schemes: Vec<SchemeKind>,
    inject: Option<FaultConfig>,
}

fn resolve_spec(spec: &JobSpec) -> Result<ResolvedSpec, Error> {
    let cfg = machine_by_name(&spec.machine)
        .ok_or_else(|| Error::Config(format!("unknown machine {:?}", spec.machine)))?;
    let size = size_by_name(&spec.size)
        .ok_or_else(|| Error::Config(format!("unknown size {:?}", spec.size)))?;
    let workloads: Vec<Workload> =
        if spec.workloads.is_empty() || spec.workloads.iter().any(|w| w == "all") {
            Workload::ALL.to_vec()
        } else {
            spec.workloads
                .iter()
                .map(|w| {
                    Workload::from_name(w)
                        .ok_or_else(|| Error::Config(format!("unknown workload {w:?}")))
                })
                .collect::<Result<_, _>>()?
        };
    let schemes: Vec<SchemeKind> =
        if spec.schemes.is_empty() || spec.schemes.iter().any(|s| s == "all") {
            SchemeKind::headline(&cfg).to_vec()
        } else {
            spec.schemes
                .iter()
                .map(|s| {
                    scheme_by_name(s, &cfg)
                        .ok_or_else(|| Error::Config(format!("unknown scheme {s:?}")))
                })
                .collect::<Result<_, _>>()?
        };
    let inject = match &spec.inject {
        None => None,
        Some(s) => Some(
            FaultConfig::parse(s)
                .map_err(Error::Config)?
                .with_seed(spec.seed),
        ),
    };
    Ok(ResolvedSpec {
        cfg,
        size,
        workloads,
        schemes,
        inject,
    })
}

/// Status summary of one job, as served by `GET /jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id.
    pub id: String,
    /// `queued` | `running` | `done` | `failed`.
    pub status: String,
    /// Error message when `status == "failed"`.
    #[serde(default)]
    pub error: String,
    /// Total cells in the sweep.
    pub cells: u64,
    /// Cells served from the result cache.
    pub hits: u64,
    /// Cells that missed the cache.
    pub misses: u64,
    /// Cells actually simulated (cache misses + uncached failures).
    pub simulated: u64,
    /// Number of progress events so far.
    pub events: u64,
}

/// One job's full in-memory state.
#[derive(Debug)]
struct Job {
    view: JobView,
    events: Vec<String>,
    /// Durable-encoded CSV (crc32 footer included), ready for download.
    csv: Vec<u8>,
    manifest_json: String,
}

impl Job {
    fn new(id: String) -> Job {
        Job {
            view: JobView {
                id,
                status: "queued".to_string(),
                error: String::new(),
                cells: 0,
                hits: 0,
                misses: 0,
                simulated: 0,
                events: 0,
            },
            events: Vec::new(),
            csv: Vec::new(),
            manifest_json: String::new(),
        }
    }

    fn push_event(&mut self, line: String) {
        self.events.push(line);
        self.view.events = self.events.len() as u64;
    }
}

/// Shared daemon state: the cache and the job table.
#[derive(Debug)]
pub struct ServeState {
    cache: ResultCache,
    jobs: Mutex<BTreeMap<String, Arc<Mutex<Job>>>>,
    next_job: AtomicU64,
}

impl ServeState {
    /// Opens the cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the cache directory cannot be opened.
    pub fn open(cache_dir: &std::path::Path) -> Result<Arc<ServeState>, Error> {
        Ok(Arc::new(ServeState {
            cache: ResultCache::open(cache_dir)?,
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
        }))
    }

    /// The result cache (for tests and the `/cache` endpoint).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Submits a job: validates the spec, registers it, and spawns its
    /// executor thread. Returns the job id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the spec does not resolve (unknown
    /// workload/scheme/machine/size or malformed inject spec).
    pub fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<String, Error> {
        // Resolve eagerly so a bad spec fails the POST, not the job.
        let resolved = resolve_spec(&spec)?;
        let id = format!("job-{}", self.next_job.fetch_add(1, Ordering::Relaxed));
        let job = Arc::new(Mutex::new(Job::new(id.clone())));
        lock_clean(&job).view.cells = (resolved.workloads.len() * resolved.schemes.len()) as u64;
        lock_clean(&self.jobs).insert(id.clone(), Arc::clone(&job));
        let state = Arc::clone(self);
        let thread_job = Arc::clone(&job);
        let spawned = std::thread::Builder::new()
            .name(format!("ccraft-{id}"))
            .spawn(move || state.execute(&thread_job, &spec, resolved));
        if let Err(e) = spawned {
            let mut j = lock_clean(&job);
            j.view.status = "failed".to_string();
            j.view.error = format!("failed to spawn executor: {e}");
        }
        Ok(id)
    }

    /// Looks a job up by id.
    fn job(&self, id: &str) -> Option<Arc<Mutex<Job>>> {
        lock_clean(&self.jobs).get(id).cloned()
    }

    /// Runs one job to completion on the calling thread.
    fn execute(self: Arc<Self>, job: &Arc<Mutex<Job>>, spec: &JobSpec, resolved: ResolvedSpec) {
        {
            let mut j = lock_clean(job);
            j.view.status = "running".to_string();
            j.push_event(format!(
                "job started: {} workloads x {} schemes, size {}, seed {}",
                resolved.workloads.len(),
                resolved.schemes.len(),
                spec.size,
                spec.seed
            ));
        }
        let base_opts = ExpOptions {
            size: resolved.size,
            seed: spec.seed,
            threads: 1,
            inject: resolved.inject,
            ..ExpOptions::default()
        };
        let state = Arc::clone(&self);
        let body_job = Arc::clone(job);
        let body_spec = spec.clone();
        let cfg = resolved.cfg;
        let body: Arc<CellBody> = Arc::new(move |_, workload, scheme| {
            state.run_cached_cell(&body_job, &body_spec, &cfg, &base_opts, workload, scheme)
        });
        let outcomes =
            run_matrix_cells_with_body(&resolved.workloads, &resolved.schemes, &base_opts, body);

        let mut j = lock_clean(job);
        for o in &outcomes {
            match o.cache {
                CacheDisposition::Hit => j.view.hits += 1,
                CacheDisposition::Miss => j.view.misses += 1,
                CacheDisposition::Uncached => {}
            }
        }
        // Every cell the cache did not serve ran its simulation.
        j.view.simulated = outcomes
            .iter()
            .filter(|o| o.cache != CacheDisposition::Hit)
            .count() as u64;
        let failed: Vec<&CellOutcome> = outcomes.iter().filter(|o| !o.status.is_ok()).collect();
        j.csv = ccraft_harness::store::encode(job_csv(&outcomes).as_bytes());
        j.manifest_json = job_manifest_json(self.as_ref(), spec, &outcomes);
        if failed.is_empty() {
            j.view.status = "done".to_string();
        } else {
            j.view.status = "failed".to_string();
            j.view.error = format!(
                "{} cell(s) failed: {}",
                failed.len(),
                failed
                    .iter()
                    .map(|o| o.cell_name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let line = format!(
            "job finished: cells={} hits={} misses={} simulated={} status={}",
            j.view.cells, j.view.hits, j.view.misses, j.view.simulated, j.view.status
        );
        j.push_event(line);
    }

    /// The cache-aware cell body: the cell's seed override and stable
    /// index around the shared lookup-or-simulate path.
    fn run_cached_cell(
        &self,
        job: &Arc<Mutex<Job>>,
        spec: &JobSpec,
        cfg: &GpuConfig,
        base_opts: &ExpOptions,
        workload: Workload,
        scheme: SchemeKind,
    ) -> CellRun {
        let cell = format!("{}/{}", workload.name(), scheme.name());
        let seed = spec
            .seed_overrides
            .iter()
            .find(|o| o.workload == workload.name() && o.scheme == scheme.name())
            .map_or(spec.seed, |o| o.seed);
        let cell_opts = ExpOptions { seed, ..*base_opts };
        // The injection seed derives from the cell index; use a stable
        // per-identity index (FNV-1a of the cell name) so the result is
        // independent of the sweep's shape (the cache key must fully
        // determine the result).
        let idx = fnv1a64(cell.as_bytes(), FNV_BASIS) as usize;
        let key = CellKey::for_cell(cfg, &cell_opts, idx, workload, scheme);
        let run = cached(&self.cache, &key, || {
            lock_clean(job).push_event(format!("cell {cell}: cache miss, simulating"));
            run_cell(cfg, &cell_opts, idx, workload, scheme).stats
        });
        lock_clean(job).push_event(match run.cache {
            CacheDisposition::Hit => format!("cell {cell}: cache hit ({})", key.digest()),
            _ => format!("cell {cell}: simulated"),
        });
        run
    }
}

/// Renders a deterministic results CSV over the sweep's successful cells.
fn job_csv(outcomes: &[CellOutcome]) -> String {
    let mut table = Table::new(vec![
        "workload",
        "scheme",
        "cycles",
        "exec_cycles",
        "ipc",
        "l2_hit_rate",
        "row_hit_rate",
        "dram_bytes",
        "mean_read_latency",
        "cache",
    ]);
    for o in outcomes {
        let Some(stats) = &o.stats else { continue };
        table.row(vec![
            o.workload.name().to_string(),
            o.scheme.name().to_string(),
            stats.cycles.to_string(),
            stats.exec_cycles.to_string(),
            format!("{:.6}", stats.ipc()),
            format!("{:.6}", stats.l2_hit_rate()),
            format!("{:.6}", stats.row_hit_rate()),
            stats.dram_bytes().to_string(),
            format!("{:.4}", stats.mean_read_latency),
            o.cache.as_str().to_string(),
        ]);
    }
    table.to_csv()
}

/// Builds the job's manifest JSON: per-cell cache disposition plus the
/// sweep parameters.
fn job_manifest_json(state: &ServeState, spec: &JobSpec, outcomes: &[CellOutcome]) -> String {
    let mut manifest = RunManifest::new("ccraft-serve");
    manifest.provenance = ccraft_harness::cellcache::provenance().clone();
    manifest.provenance.features = ccraft_harness::cellcache::features();
    manifest.size = spec.size.clone();
    manifest.seed = spec.seed;
    manifest.threads = 1;
    for o in outcomes {
        let status = if o.status.is_ok() { "ok" } else { "failed" };
        manifest.record_cell(CellManifest {
            cell: o.cell_name(),
            cache: o.cache.as_str().to_string(),
            status: status.to_string(),
        });
    }
    manifest.note("cache_entries", state.cache.len() as f64);
    manifest.stamp();
    serde_json::to_string_pretty(&manifest).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

// ---------------------------------------------------------------------
// The daemon's routes, served by `ccraft_harness::http::Server`.

/// A running `ccraft-serve` daemon; dropping (or [`Server::shutdown`])
/// stops the listener thread. Job executor threads run to completion
/// independently.
#[derive(Debug)]
pub struct Server {
    http: ccraft_harness::http::Server,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and serves `state` until
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the listener cannot bind.
    pub fn bind(addr: &str, state: Arc<ServeState>) -> Result<Server, Error> {
        let routes = Arc::clone(&state);
        let http =
            ccraft_harness::http::Server::bind(addr, Arc::new(move |req| route(&routes, req)))?;
        Ok(Server { http, state })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The shared daemon state.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the listener thread and waits for it.
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

fn json_error(status: &'static str, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":\"{message}\"}}"))
}

/// Answers one request (see the API table in the crate docs).
fn route(state: &Arc<ServeState>, req: Request) -> Response {
    // Strip a query string; only /events uses one.
    let (path, query) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::new("200 OK", "text/plain", "ok\n"),
        ("GET", "/metrics") => match ccraft_harness::metrics::current() {
            Some(registry) => ccraft_harness::metrics::exposition(&registry),
            None => json_error("404 Not Found", "no metrics registry installed"),
        },
        ("GET", "/cache") => {
            let c = state.cache().counters();
            let json = serde_json::to_string_pretty(&c).unwrap_or_default();
            // counters() has no entry count; splice it in as a sibling.
            let json = json.replacen(
                '{',
                &format!("{{\n  \"entries\": {},", state.cache().len()),
                1,
            );
            Response::json("200 OK", json)
        }
        ("POST", "/jobs") => {
            match serde_json::from_str::<JobSpec>(&String::from_utf8_lossy(&req.body)) {
                Err(e) => json_error("400 Bad Request", &format!("bad job spec: {e}")),
                Ok(spec) => match state.submit(spec) {
                    Ok(id) => Response::json("200 OK", format!("{{\"job\":\"{id}\"}}")),
                    Err(e) => json_error("400 Bad Request", &e.to_string()),
                },
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, sub) = rest.split_once('/').unwrap_or((rest, ""));
            let Some(job) = state.job(id) else {
                return json_error("404 Not Found", "no such job");
            };
            let j = lock_clean(&job);
            match sub {
                "" => Response::json(
                    "200 OK",
                    serde_json::to_string_pretty(&j.view).unwrap_or_default(),
                ),
                "events" => {
                    let from: usize = query
                        .split('&')
                        .filter_map(|kv| kv.split_once('='))
                        .find(|(k, _)| *k == "from")
                        .and_then(|(_, v)| v.parse().ok())
                        .unwrap_or(0);
                    let slice: Vec<String> = j.events.iter().skip(from).cloned().collect();
                    Response::json(
                        "200 OK",
                        serde_json::to_string_pretty(&slice).unwrap_or_default(),
                    )
                }
                "manifest" if j.manifest_json.is_empty() => {
                    json_error("404 Not Found", "job not finished")
                }
                "manifest" => Response::json("200 OK", j.manifest_json.clone()),
                "csv" if j.csv.is_empty() => json_error("404 Not Found", "job not finished"),
                "csv" => Response::new("200 OK", "text/csv", j.csv.clone()),
                _ => json_error("404 Not Found", "not found"),
            }
        }
        _ => json_error("404 Not Found", "not found"),
    }
}

// ---------------------------------------------------------------------
// Client side (used by `ccx submit` and the e2e tests); `http_request`
// is `ccraft_harness::http::request`, re-exported above.

/// Submits `spec` to a daemon at `addr` and returns the job id.
///
/// # Errors
///
/// Propagates transport errors; [`Error::Config`] when the daemon
/// rejects the spec.
pub fn submit_job(addr: &str, spec: &JobSpec) -> Result<String, Error> {
    let body = serde_json::to_string(spec)
        .map_err(|e| Error::Config(format!("serializing job spec: {e}")))?;
    let (status, response) = http_request(addr, "POST", "/jobs", Some(body.as_bytes()))?;
    let text = String::from_utf8_lossy(&response).to_string();
    if status != 200 {
        return Err(Error::Config(format!("submit rejected ({status}): {text}")));
    }
    #[derive(Deserialize)]
    struct SubmitResponse {
        #[serde(default)]
        job: String,
    }
    let value: SubmitResponse = serde_json::from_str(&text)
        .map_err(|e| Error::Config(format!("malformed submit response: {e}")))?;
    if value.job.is_empty() {
        return Err(Error::Config(format!(
            "submit response missing job id: {text}"
        )));
    }
    Ok(value.job)
}

/// Polls `GET /jobs/<id>` until the job leaves `queued`/`running`,
/// printing progress events as they appear when `progress` is set.
///
/// # Errors
///
/// Propagates transport errors; [`Error::Config`] on malformed status.
pub fn wait_for_job(addr: &str, id: &str, progress: bool) -> Result<JobView, Error> {
    let mut seen = 0usize;
    loop {
        if progress {
            let (status, body) =
                http_request(addr, "GET", &format!("/jobs/{id}/events?from={seen}"), None)?;
            if status == 200 {
                if let Ok(events) =
                    serde_json::from_str::<Vec<String>>(&String::from_utf8_lossy(&body))
                {
                    for e in &events {
                        eprintln!("  {e}");
                    }
                    seen += events.len();
                }
            }
        }
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(Error::Config(format!(
                "job {id} vanished ({status}): {}",
                String::from_utf8_lossy(&body)
            )));
        }
        let view: JobView = serde_json::from_str(&String::from_utf8_lossy(&body))
            .map_err(|e| Error::Config(format!("malformed job status: {e}")))?;
        if view.status != "queued" && view.status != "running" {
            return Ok(view);
        }
        // lint: allow(wall-clock) reason=client-side poll interval while waiting on the daemon; host-side only, never inside simulated time
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Downloads and checksum-verifies a finished job's CSV. Returns the
/// *decoded* payload (footer stripped) plus the raw durable bytes.
///
/// # Errors
///
/// [`Error::Corrupt`] when the footer is missing or does not verify;
/// transport errors otherwise.
pub fn fetch_csv(addr: &str, id: &str) -> Result<(Vec<u8>, Vec<u8>), Error> {
    let (status, raw) = http_request(addr, "GET", &format!("/jobs/{id}/csv"), None)?;
    if status != 200 {
        return Err(Error::Config(format!(
            "csv download failed ({status}): {}",
            String::from_utf8_lossy(&raw)
        )));
    }
    let payload = ccraft_harness::store::strip_footer(&raw);
    if payload.len() == raw.len() {
        return Err(Error::corrupt(
            format!("/jobs/{id}/csv"),
            "durable checksum footer missing".to_string(),
        ));
    }
    let expected = ccraft_harness::store::footer_for(payload);
    if !raw.ends_with(expected.as_bytes()) {
        return Err(Error::corrupt(
            format!("/jobs/{id}/csv"),
            "crc32 footer mismatch".to_string(),
        ));
    }
    Ok((payload.to_vec(), raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccraft-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> JobSpec {
        JobSpec {
            workloads: vec!["vecadd".to_string(), "saxpy".to_string()],
            schemes: vec!["no-protection".to_string(), "cachecraft".to_string()],
            machine: "gddr6".to_string(),
            size: "tiny".to_string(),
            seed: 1,
            inject: None,
            seed_overrides: Vec::new(),
        }
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut spec = tiny_spec();
        spec.inject = Some("symbol:1e-6".to_string());
        spec.seed_overrides.push(SeedOverride {
            workload: "vecadd".to_string(),
            scheme: "cachecraft".to_string(),
            seed: 9,
        });
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: JobSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(spec, back);
        // Defaults fill an empty body.
        let sparse: JobSpec = serde_json::from_str("{}").expect("defaults");
        assert_eq!(sparse.machine, "gddr6");
        assert_eq!(sparse.seed, 1);
        assert!(sparse.inject.is_none());
    }

    #[test]
    fn bad_specs_fail_submit_eagerly() {
        let dir = temp_cache("badspec");
        let state = ServeState::open(&dir).expect("open state");
        let bad = JobSpec {
            workloads: vec!["nosuch".to_string()],
            ..tiny_spec()
        };
        assert!(state.submit(bad).is_err());
        let bad = JobSpec {
            machine: "pcie".to_string(),
            ..tiny_spec()
        };
        assert!(state.submit(bad).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmitted_sweep_is_fully_cached_and_byte_identical() {
        let dir = temp_cache("resubmit");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr().to_string();

        let id1 = submit_job(&addr, &tiny_spec()).expect("submit 1");
        let v1 = wait_for_job(&addr, &id1, false).expect("wait 1");
        assert_eq!(v1.status, "done", "{v1:?}");
        assert_eq!(v1.cells, 4);
        assert_eq!(v1.hits, 0);
        assert_eq!(v1.misses, 4);
        assert_eq!(v1.simulated, 4);
        let (csv1, raw1) = fetch_csv(&addr, &id1).expect("csv 1");
        assert!(csv1.starts_with(b"workload,scheme,"), "csv header present");

        // The identical sweep again: zero cells re-simulated, CSV
        // byte-identical (modulo the per-cell cache column flipping from
        // miss to hit — so compare the durable payloads with that column
        // normalized out... no: the cache column is provenance, so the
        // raw payloads differ there by design; assert the *data* columns
        // match byte-for-byte instead).
        let id2 = submit_job(&addr, &tiny_spec()).expect("submit 2");
        let v2 = wait_for_job(&addr, &id2, false).expect("wait 2");
        assert_eq!(v2.status, "done", "{v2:?}");
        assert_eq!(v2.hits, 4);
        assert_eq!(v2.misses, 0);
        assert_eq!(v2.simulated, 0, "nothing re-simulated");
        let (csv2, _raw2) = fetch_csv(&addr, &id2).expect("csv 2");
        let strip_cache = |b: &[u8]| {
            String::from_utf8_lossy(b)
                .lines()
                .map(|l| {
                    l.rsplit_once(',')
                        .map_or_else(|| l.to_string(), |(d, _)| d.to_string())
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip_cache(&csv1),
            strip_cache(&csv2),
            "cached sweep returns byte-identical data"
        );
        assert!(!raw1.is_empty());

        // Changing one cell's seed re-runs exactly that cell.
        let mut spec3 = tiny_spec();
        spec3.seed_overrides.push(SeedOverride {
            workload: "saxpy".to_string(),
            scheme: "cachecraft".to_string(),
            seed: 2,
        });
        let id3 = submit_job(&addr, &spec3).expect("submit 3");
        let v3 = wait_for_job(&addr, &id3, false).expect("wait 3");
        assert_eq!(v3.status, "done", "{v3:?}");
        assert_eq!(v3.hits, 3, "three cells still cached");
        assert_eq!(v3.misses, 1, "exactly the overridden cell missed");
        assert_eq!(v3.simulated, 1);

        // The manifest records per-cell dispositions.
        let (status, manifest) =
            http_request(&addr, "GET", &format!("/jobs/{id2}/manifest"), None).expect("manifest");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&manifest).to_string();
        assert!(text.contains("\"cache\": \"hit\""), "{text}");

        // /cache reflects the traffic.
        let (status, cache) = http_request(&addr, "GET", "/cache", None).expect("cache");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&cache).to_string();
        assert!(text.contains("\"entries\": 5"), "{text}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_surface_serves_health_events_and_404s() {
        let dir = temp_cache("http");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", state).expect("bind");
        let addr = server.addr().to_string();

        let (status, body) = http_request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        let (status, _) = http_request(&addr, "GET", "/jobs/nope", None).expect("missing job");
        assert_eq!(status, 404);
        let (status, _) = http_request(&addr, "GET", "/bogus", None).expect("bogus route");
        assert_eq!(status, 404);
        let (status, body) = http_request(&addr, "POST", "/jobs", Some(b"{\"machine\":\"pcie\"}"))
            .expect("bad spec");
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

        // Events stream incrementally with ?from=.
        let spec = JobSpec {
            workloads: vec!["vecadd".to_string()],
            schemes: vec!["no-protection".to_string()],
            ..tiny_spec()
        };
        let id = submit_job(&addr, &spec).expect("submit");
        let v = wait_for_job(&addr, &id, false).expect("wait");
        assert_eq!(v.status, "done");
        let (status, body) =
            http_request(&addr, "GET", &format!("/jobs/{id}/events"), None).expect("events");
        assert_eq!(status, 200);
        let events: Vec<String> =
            serde_json::from_str(&String::from_utf8_lossy(&body)).expect("events json");
        assert!(events.len() >= 3, "{events:?}");
        assert!(
            events.iter().any(|e| e.contains("cache miss")),
            "{events:?}"
        );
        let (status, body) = http_request(
            &addr,
            "GET",
            &format!("/jobs/{id}/events?from={}", events.len()),
            None,
        )
        .expect("events tail");
        assert_eq!(status, 200);
        let tail: Vec<String> =
            serde_json::from_str(&String::from_utf8_lossy(&body)).expect("tail json");
        assert!(tail.is_empty(), "{tail:?}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_sweeps_cache_and_replay_deterministically() {
        let dir = temp_cache("inject");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr().to_string();
        let spec = JobSpec {
            workloads: vec!["vecadd".to_string()],
            schemes: vec!["no-protection".to_string(), "cachecraft".to_string()],
            inject: Some("symbol:1.0".to_string()),
            ..tiny_spec()
        };
        let id1 = submit_job(&addr, &spec).expect("submit 1");
        let v1 = wait_for_job(&addr, &id1, false).expect("wait 1");
        assert_eq!(v1.status, "done", "{v1:?}");
        assert_eq!(v1.misses, 2);
        let id2 = submit_job(&addr, &spec).expect("submit 2");
        let v2 = wait_for_job(&addr, &id2, false).expect("wait 2");
        assert_eq!(v2.hits, 2, "injected cells are cacheable too");
        assert_eq!(v2.simulated, 0);
        // An injected sweep differs from the fault-free one in the key.
        let clean = JobSpec {
            inject: None,
            ..spec.clone()
        };
        let id3 = submit_job(&addr, &clean).expect("submit 3");
        let v3 = wait_for_job(&addr, &id3, false).expect("wait 3");
        assert_eq!(v3.misses, 2, "inject spec reaches the cache key");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    #[test]
    fn headline_schemes_round_trip_by_name() {
        for cfg in [GpuConfig::gddr6(), GpuConfig::hbm2()] {
            for kind in SchemeKind::headline(&cfg) {
                assert_eq!(scheme_by_name(kind.name(), &cfg), Some(kind));
            }
            let headline = SchemeKind::headline(&cfg);
            assert_eq!(scheme_by_name("off", &cfg), Some(headline[0]));
            assert_eq!(scheme_by_name("naive", &cfg), Some(headline[1]));
            assert_eq!(scheme_by_name("compressed-inline", &cfg), None);
        }
    }

    #[test]
    fn metrics_count_the_cells_of_finished_jobs() {
        use ccraft_harness::metrics::{self, MetricsRegistry};
        let dir = temp_cache("metrics");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", state).expect("bind");
        let addr = server.addr().to_string();
        // As `ccx serve` does; other tests' jobs may count here too.
        metrics::install(Arc::new(MetricsRegistry::new()));
        let id = submit_job(&addr, &tiny_spec()).expect("submit");
        let view = wait_for_job(&addr, &id, false).expect("wait");
        assert_eq!(view.status, "done", "{view:?}");
        let (status, body) = http_request(&addr, "GET", "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body);
        let completed: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("ccraft_cells_completed_total "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no completed counter in:\n{text}"));
        assert!(completed >= view.cells, "{completed} < {}", view.cells);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
