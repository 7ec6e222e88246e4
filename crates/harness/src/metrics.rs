//! Prometheus metrics endpoint for the experiment runner.
//!
//! When an experiment is started with `--metrics-addr HOST:PORT` (e.g.
//! `ccx exp main --metrics-addr 127.0.0.1:9184`),
//! [`crate::runner::run_experiment`] serves [`handler`] there on the
//! shared [`crate::http::Server`] and installs a process-global
//! [`MetricsRegistry`] that the matrix engine updates as cells execute.
//! `ccx serve` installs one for the daemon's jobs and answers its own
//! `GET /metrics` from it. `GET /metrics` answers in Prometheus text
//! exposition format ([`CONTENT_TYPE`]) with cells completed / failed /
//! quarantined, a per-cell wall-time histogram, worker occupancy, elapsed
//! time and an ETA.
//!
//! Metrics never touch simulated state — this is host-side telemetry
//! about the *runner*, not the simulator (the simulator's own
//! observability is `ccraft-telemetry`).

use crate::http::{Handler, Request, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bounds (seconds) of the per-cell wall-time histogram buckets;
/// an implicit `+Inf` bucket completes the series.
pub const CELL_SECONDS_BUCKETS: [f64; 10] =
    [0.01, 0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0];

/// Relaxed-ordering counters describing one experiment run. All methods
/// take `&self`; the registry is shared across worker threads via `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Matrix cells planned across all matrix calls so far.
    cells_planned: AtomicU64,
    /// Cells finished (any status), including cache hits.
    cells_completed: AtomicU64,
    /// Cells that panicked.
    cells_failed: AtomicU64,
    /// Cells served from the run's cell cache without simulating.
    cells_resumed: AtomicU64,
    /// Cells quarantined after permanent failure (degraded completion).
    cells_quarantined: AtomicU64,
    /// Transient-I/O retries performed by the durable store.
    store_retries: AtomicU64,
    /// Configured worker thread count for the current matrix call.
    workers: AtomicU64,
    /// Workers currently executing a cell.
    workers_active: AtomicU64,
    /// Sum of observed per-cell wall times, in microseconds.
    cell_us_sum: AtomicU64,
    /// Count of observed per-cell wall times.
    cell_count: AtomicU64,
    /// Cumulative bucket counts for [`CELL_SECONDS_BUCKETS`].
    cell_buckets: [AtomicU64; CELL_SECONDS_BUCKETS.len()],
    /// Run start, for elapsed/ETA; `None` until the first `start_run`.
    started: Mutex<Option<Instant>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry and stamps the run start time.
    pub fn new() -> Self {
        MetricsRegistry {
            cells_planned: AtomicU64::new(0),
            cells_completed: AtomicU64::new(0),
            cells_failed: AtomicU64::new(0),
            cells_resumed: AtomicU64::new(0),
            cells_quarantined: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            workers_active: AtomicU64::new(0),
            cell_us_sum: AtomicU64::new(0),
            cell_count: AtomicU64::new(0),
            cell_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            started: Mutex::new(Some(Instant::now())),
        }
    }

    /// Adds `n` planned cells (one matrix call's worth).
    pub fn add_planned(&self, n: u64) {
        self.cells_planned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one cell served from the run's cell cache (it is also
    /// observed through [`MetricsRegistry::observe_cell`]).
    pub fn cache_hit(&self) {
        self.cells_resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transient-I/O retry inside the durable store.
    pub fn store_retry(&self) {
        self.store_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the configured worker count.
    pub fn set_workers(&self, n: u64) {
        self.workers.store(n, Ordering::Relaxed);
    }

    /// Marks one worker as busy.
    pub fn worker_started(&self) {
        self.workers_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one worker as idle again.
    pub fn worker_finished(&self) {
        // Saturating at 0: a stray call must not wrap the gauge.
        let _ = self
            .workers_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Records one executed cell: wall time, final status, and whether
    /// the cell was quarantined (failed on a degraded run). Quarantined
    /// cells count as failed + quarantined — not completed — so the ETA
    /// can reach zero on degraded runs.
    pub fn observe_cell(&self, wall_secs: f64, ok: bool, quarantined: bool) {
        if quarantined {
            self.cells_quarantined.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cells_completed.fetch_add(1, Ordering::Relaxed);
        }
        if !ok {
            self.cells_failed.fetch_add(1, Ordering::Relaxed);
        }
        let us = (wall_secs.max(0.0) * 1e6).round() as u64;
        self.cell_us_sum.fetch_add(us, Ordering::Relaxed);
        self.cell_count.fetch_add(1, Ordering::Relaxed);
        for (i, &bound) in CELL_SECONDS_BUCKETS.iter().enumerate() {
            if wall_secs <= bound {
                self.cell_buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Renders the registry in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`). Buckets are cumulative, as the
    /// format requires.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let planned = self.cells_planned.load(Ordering::Relaxed);
        let completed = self.cells_completed.load(Ordering::Relaxed);
        let failed = self.cells_failed.load(Ordering::Relaxed);
        let resumed = self.cells_resumed.load(Ordering::Relaxed);
        let quarantined = self.cells_quarantined.load(Ordering::Relaxed);
        let store_retries = self.store_retries.load(Ordering::Relaxed);
        let workers = self.workers.load(Ordering::Relaxed);
        let active = self.workers_active.load(Ordering::Relaxed);
        let count = self.cell_count.load(Ordering::Relaxed);
        let sum_secs = self.cell_us_sum.load(Ordering::Relaxed) as f64 / 1e6;
        let elapsed = self
            .started
            .lock()
            .ok()
            .and_then(|s| *s)
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        // ETA from mean throughput so far; 0 when unknown or done.
        // Quarantined cells will never complete, so they are excluded
        // from `remaining` — otherwise a degraded run's ETA stays
        // nonzero forever.
        let remaining = planned
            .saturating_sub(completed)
            .saturating_sub(quarantined);
        let eta = if completed > 0 && remaining > 0 && elapsed > 0.0 {
            elapsed / completed as f64 * remaining as f64
        } else {
            0.0
        };

        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, v: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        gauge(
            "ccraft_cells_planned",
            "Matrix cells planned in the current run.",
            planned as f64,
        );
        gauge(
            "ccraft_workers",
            "Configured worker threads.",
            workers as f64,
        );
        gauge(
            "ccraft_workers_active",
            "Workers currently executing a cell.",
            active as f64,
        );
        gauge(
            "ccraft_run_elapsed_seconds",
            "Wall time since the run started.",
            elapsed,
        );
        gauge(
            "ccraft_run_eta_seconds",
            "Estimated seconds until all planned cells complete.",
            eta,
        );
        let mut counter = |name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            "ccraft_cells_completed_total",
            "Matrix cells finished (any status).",
            completed,
        );
        counter(
            "ccraft_cells_failed_total",
            "Matrix cells that panicked.",
            failed,
        );
        counter(
            "ccraft_cells_resumed_total",
            "Matrix cells served from the run's cell cache (finished cells of a --resume).",
            resumed,
        );
        counter(
            "ccraft_cells_quarantined_total",
            "Matrix cells quarantined after permanent failure (degraded run).",
            quarantined,
        );
        counter(
            "ccraft_store_retries_total",
            "Transient I/O retries performed by the durable store.",
            store_retries,
        );
        let _ = writeln!(
            out,
            "# HELP ccraft_cell_seconds Wall time per executed matrix cell."
        );
        let _ = writeln!(out, "# TYPE ccraft_cell_seconds histogram");
        for (i, &bound) in CELL_SECONDS_BUCKETS.iter().enumerate() {
            let n = self.cell_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "ccraft_cell_seconds_bucket{{le=\"{bound}\"}} {n}");
        }
        let _ = writeln!(out, "ccraft_cell_seconds_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "ccraft_cell_seconds_sum {sum_secs}");
        let _ = writeln!(out, "ccraft_cell_seconds_count {count}");
        out
    }
}

// ---------------------------------------------------------------------
// Process-global registry (same idiom as `crate::checkpoint`'s run): installed
// by `run_experiment` when `--metrics-addr` is given (cleared at the end of
// the run) and by `ccx serve` for the daemon's lifetime; consulted by the
// matrix engine.

static CURRENT: Mutex<Option<Arc<MetricsRegistry>>> = Mutex::new(None);

fn lock_current() -> std::sync::MutexGuard<'static, Option<Arc<MetricsRegistry>>> {
    CURRENT
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `registry` as the process-global metrics registry.
pub fn install(registry: Arc<MetricsRegistry>) {
    *lock_current() = Some(registry);
}

/// Clears the process-global registry.
pub fn clear() {
    *lock_current() = None;
}

/// The installed registry, if any.
pub fn current() -> Option<Arc<MetricsRegistry>> {
    lock_current().clone()
}

// ---------------------------------------------------------------------
// The HTTP surface, served by `crate::http::Server`.

/// Content type of the Prometheus text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// `registry`'s exposition as a `200 OK` response.
pub fn exposition(registry: &MetricsRegistry) -> Response {
    Response::new("200 OK", CONTENT_TYPE, registry.render())
}

/// The `--metrics-addr` endpoint: `GET /metrics` (or `/`) serves
/// `registry`'s exposition; anything else gets 404.
pub fn handler(registry: Arc<MetricsRegistry>) -> Arc<Handler> {
    Arc::new(move |req: Request| {
        if req.method == "GET" && (req.path == "/metrics" || req.path == "/") {
            exposition(&registry)
        } else {
            Response::new("404 Not Found", CONTENT_TYPE, "not found\n")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_and_renders() {
        let reg = MetricsRegistry::new();
        reg.add_planned(10);
        reg.set_workers(4);
        reg.worker_started();
        reg.observe_cell(0.2, true, false);
        reg.observe_cell(2.0, false, true);
        reg.observe_cell(0.001, true, false);
        reg.cache_hit();
        reg.worker_finished();
        reg.store_retry();
        reg.store_retry();
        let text = reg.render();
        assert!(text.contains("ccraft_cells_planned 10"));
        // 1 simulated + 1 cache hit; the quarantined cell is *not*
        // completed (it counts under quarantined instead).
        assert!(text.contains("ccraft_cells_completed_total 2"));
        assert!(text.contains("ccraft_cells_failed_total 1"));
        assert!(text.contains("ccraft_cells_resumed_total 1"));
        assert!(text.contains("ccraft_cells_quarantined_total 1"));
        assert!(text.contains("ccraft_store_retries_total 2"));
        assert!(text.contains("ccraft_workers 4"));
        assert!(text.contains("ccraft_workers_active 0"));
        assert!(text.contains("ccraft_cell_seconds_count 3"));
        // Cumulative buckets: the 0.25s bucket holds two samples, +Inf all.
        assert!(text.contains("ccraft_cell_seconds_bucket{le=\"0.25\"} 2"));
        assert!(text.contains("ccraft_cell_seconds_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn quarantined_cells_do_not_pin_eta_above_zero() {
        // A degraded run: 2 planned, 1 ok, 1 quarantined. The quarantined
        // cell will never complete, so remaining must be 0 and the ETA
        // must read 0 — not extrapolate forever from the dead cell.
        let reg = MetricsRegistry::new();
        reg.add_planned(2);
        reg.observe_cell(0.5, true, false);
        reg.observe_cell(0.5, false, true);
        let text = reg.render();
        assert!(text.contains("ccraft_cells_completed_total 1"));
        assert!(text.contains("ccraft_cells_quarantined_total 1"));
        assert!(
            text.contains("ccraft_run_eta_seconds 0"),
            "degraded run must report ETA 0, got:\n{text}"
        );
    }

    #[test]
    fn worker_gauge_does_not_underflow() {
        let reg = MetricsRegistry::new();
        reg.worker_finished();
        assert!(reg.render().contains("ccraft_workers_active 0"));
    }

    #[test]
    fn bucket_counts_are_monotone() {
        let reg = MetricsRegistry::new();
        for secs in [0.001, 0.1, 0.3, 2.0, 30.0, 5000.0] {
            reg.observe_cell(secs, true, false);
        }
        let mut prev = 0u64;
        for b in &reg.cell_buckets {
            let v = b.load(Ordering::Relaxed);
            assert!(v >= prev, "cumulative buckets must be monotone");
            prev = v;
        }
        assert!(reg.cell_count.load(Ordering::Relaxed) >= prev);
    }

    #[test]
    fn install_clear_current_round_trip() {
        let _guard = crate::checkpoint::test_guard();
        clear();
        assert!(current().is_none());
        let reg = Arc::new(MetricsRegistry::new());
        install(Arc::clone(&reg));
        let got = current().expect("installed");
        got.add_planned(1);
        assert!(reg.render().contains("ccraft_cells_planned 1"));
        clear();
        assert!(current().is_none());
    }
}
