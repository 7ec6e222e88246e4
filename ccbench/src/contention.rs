//! Host time lost to other tenants' processes.
//!
//! The benchmark shares its two CPUs with other people's processes.
//! While one of them holds a CPU, the benchmark's runnable threads wait:
//! wall time grows, by up to twice on this kind of host, while the CPU
//! time the threads receive does not. The kernel counts that wait per
//! thread (`run_delay` in `/proc/<pid>/task/<tid>/schedstat`), and a
//! host-time metric subtracts the wait of the threads that did the work.
//! Waiting the program does by itself (a poll sleep, I/O) is not
//! run-queue wait and stays in. Neighbours that slow the CPU itself
//! (shared caches, memory bandwidth) are not removed; `README.md` gives
//! the spread that remains.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the watcher reads the threads, so that a thread that exits
/// between two snapshots still counts.
const POLL: Duration = Duration::from_millis(10);

/// Parses the run-queue wait (ns), the second field of a `schedstat`
/// line.
pub fn parse_run_delay(text: &str) -> Option<u64> {
    text.split_whitespace().nth(1)?.parse().ok()
}

/// The latest run-queue wait seen for each thread of one process, ns.
#[derive(Debug, Default)]
struct Seen {
    by_tid: BTreeMap<u32, u64>,
    skip_tid: Option<u32>,
}

impl Seen {
    fn read(&mut self, pid: &str) {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return;
        };
        for task in tasks.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<u32>().ok())
            else {
                continue;
            };
            if Some(tid) == self.skip_tid {
                continue;
            }
            let now = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| parse_run_delay(&s));
            if let Some(ns) = now {
                let slot = self.by_tid.entry(tid).or_default();
                *slot = (*slot).max(ns);
            }
        }
    }
}

/// Every update leaves `Seen` whole, so a poisoned lock is still usable.
fn lock(seen: &Mutex<Seen>) -> MutexGuard<'_, Seen> {
    seen.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Watches the run-queue wait of every thread of one process, its own
/// watcher thread excepted.
#[derive(Debug)]
pub struct Watch {
    pid: String,
    seen: Arc<Mutex<Seen>>,
    stop: Arc<AtomicBool>,
    watcher: Option<JoinHandle<()>>,
}

impl Watch {
    /// Starts watching `pid` (`"self"` for this process).
    pub fn start(pid: &str) -> Watch {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let (w_seen, w_stop, w_pid) = (Arc::clone(&seen), Arc::clone(&stop), pid.to_string());
        let watcher = std::thread::Builder::new()
            .name("ccbench-watch".to_string())
            .spawn(move || {
                lock(&w_seen).skip_tid = std::fs::read_link("/proc/thread-self")
                    .ok()
                    .and_then(|p| p.file_name()?.to_str()?.parse().ok());
                while !w_stop.load(Ordering::SeqCst) {
                    lock(&w_seen).read(&w_pid);
                    std::thread::sleep(POLL);
                }
            })
            .ok();
        Watch {
            pid: pid.to_string(),
            seen,
            stop,
            watcher,
        }
    }

    /// Run-queue wait accrued so far by the watched threads, ns.
    pub fn delay_ns(&self) -> u64 {
        let mut seen = lock(&self.seen);
        seen.read(&self.pid);
        seen.by_tid.values().sum()
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }
}

/// `wall_ms` without the run-queue wait `delay_ms` of `threads` threads
/// working side by side (the wait is spread over them).
pub fn uncontended(wall_ms: f64, delay_ms: f64, threads: f64) -> f64 {
    (wall_ms - delay_ms / threads).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn schedstat_second_field_is_the_run_delay() {
        assert_eq!(parse_run_delay("1587441636 6669589 48\n"), Some(6_669_589));
        assert_eq!(parse_run_delay("15"), None);
    }

    #[test]
    fn the_wait_is_spread_over_the_working_threads() {
        // Two threads each waited 260 ms of a 490 ms interval.
        assert_eq!(uncontended(490.0, 520.0, 2.0), 230.0);
        // A poll sleep is not run-queue wait.
        assert_eq!(uncontended(52.0, 0.5, 1.0), 51.5);
        assert_eq!(uncontended(10.0, 50.0, 1.0), 0.0);
    }

    #[test]
    fn this_process_is_watched() {
        let w = Watch::start("self");
        let before = w.delay_ns();
        // More busy threads than CPUs: some must wait for one.
        let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
        std::thread::scope(|s| {
            for _ in 0..cpus + 2 {
                s.spawn(|| {
                    let t = std::time::Instant::now();
                    while t.elapsed() < Duration::from_millis(100) {
                        black_box(0u64);
                    }
                });
            }
        });
        assert!(w.delay_ns() > before);
    }
}
