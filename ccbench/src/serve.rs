//! `serve-resubmit`: an in-process experiment daemon driven by one
//! closed-loop client on the `ccx submit` path.

use crate::checks::{csv_cells, job_ok, same_csv_data, JobExpect};
use crate::contention::Watch;
use crate::report::Report;
use crate::spans::Tracer;
use crate::{ops_for, procfs, scratch_dir, stats, Op, OpPhase, Reference, RunArgs, Usage};
use ccraft_serve::{
    fetch_csv, http_request, submit_job, wait_for_job, JobSpec, SeedOverride, ServeState, Server,
};
use ccraft_workloads::Workload;
use std::path::Path;
use std::time::Instant;

/// Warm resubmissions every run makes, whatever the window.
const MIN_WARM: usize = 100;

/// Warm resubmissions per second of window (they take about half of it
/// at 50 ms each).
const WARM_PER_S: f64 = 10.0;

/// A daemon with an empty cache in `dir`, answering on a free local port.
/// Answers one health probe before returning.
///
/// # Errors
///
/// When the cache cannot be opened, the port cannot be bound, or the
/// probe fails.
pub fn start(dir: &Path) -> Result<Server, String> {
    let state = ServeState::open(dir).map_err(|e| format!("opening the daemon: {e}"))?;
    let server = Server::bind("127.0.0.1:0", state).map_err(|e| format!("binding: {e}"))?;
    match http_request(&server.addr().to_string(), "GET", "/healthz", None) {
        Ok((200, _)) => Ok(server),
        other => Err(format!("health probe failed: {other:?}")),
    }
}

/// One finished job, timed call by call.
#[derive(Debug)]
pub struct Job {
    /// `submit_job` latency, ms.
    pub submit_ms: f64,
    /// `wait_for_job` latency, ms.
    pub wait_ms: f64,
    /// `fetch_csv` latency, ms.
    pub fetch_ms: f64,
    /// The whole job, ms.
    pub total_ms: f64,
    /// The verified CSV payload.
    pub csv: String,
}

/// Runs one job through the client calls `ccx submit` makes and checks
/// its counts. A failed check is returned as the error.
fn job(
    addr: &str,
    spec: &JobSpec,
    want: JobExpect,
    label: &str,
    mut tracer: Option<&mut Tracer>,
) -> Result<Job, String> {
    fn traced<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
        match tracer {
            Some(t) => t.time(name, "serve", f).0,
            None => f(),
        }
    }
    let span = tracer
        .as_deref_mut()
        .map(|t| t.begin(format!("job {label}"), "serve"));
    let t0 = Instant::now();
    let id = traced(&mut tracer, "submit_job", || submit_job(addr, spec));
    let t1 = Instant::now();
    let view = traced(&mut tracer, "wait_for_job", || {
        id.as_ref().ok().map(|id| wait_for_job(addr, id, false))
    });
    let t2 = Instant::now();
    let csv = traced(&mut tracer, "fetch_csv", || {
        id.as_ref().ok().map(|id| fetch_csv(addr, id))
    });
    let t3 = Instant::now();
    if let (Some(t), Some(span)) = (tracer, span) {
        t.end(span);
    }
    let id = id.map_err(|e| format!("submit: {e}"))?;
    let view = view
        .ok_or("no job")?
        .map_err(|e| format!("wait for {id}: {e}"))?;
    job_ok(&view, want)?;
    let (csv, _raw) = csv
        .ok_or("no job")?
        .map_err(|e| format!("fetch {id}: {e}"))?;
    let csv = String::from_utf8(csv).map_err(|e| format!("{id} csv is not UTF-8: {e}"))?;
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1000.0;
    Ok(Job {
        submit_ms: ms(t0, t1),
        wait_ms: ms(t1, t2),
        fetch_ms: ms(t2, t3),
        total_ms: ms(t0, t3),
        csv,
    })
}

/// A sweep of `workloads` x every headline scheme.
pub fn spec(workloads: &[Workload], size: &str, seed: u64) -> JobSpec {
    JobSpec {
        workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
        schemes: vec!["all".to_string()],
        size: size.to_string(),
        seed,
        ..JobSpec::default()
    }
}

/// The same sweep with one CacheCraft cell moved to another seed.
pub fn override_spec(base: &JobSpec, workload: Workload, seed: u64) -> JobSpec {
    JobSpec {
        seed_overrides: vec![SeedOverride {
            workload: workload.name().to_string(),
            scheme: "cachecraft".to_string(),
            seed,
        }],
        ..base.clone()
    }
}

/// CacheCraft's normalized performance over a job CSV's kernels.
///
/// # Errors
///
/// On a malformed CSV or a kernel missing either scheme.
pub fn csv_norm_perf(csv: &str) -> Result<f64, String> {
    let cells = csv_cells(csv)?;
    let exec = |w: &str, s: &str| {
        cells
            .iter()
            .find(|c| c.workload == w && c.scheme == s)
            .map(|c| c.exec_cycles)
    };
    let mut kernels: Vec<&str> = cells.iter().map(|c| c.workload.as_str()).collect();
    kernels.dedup();
    let pairs = kernels
        .iter()
        .map(
            |w| match (exec(w, "no-protection"), exec(w, "cachecraft")) {
                (Some(off), Some(cc)) => Ok((off, cc)),
                _ => Err(format!("{w}: no ECC-off/CacheCraft pair")),
            },
        )
        .collect::<Result<Vec<_>, _>>()?;
    stats::norm_perf(&pairs).ok_or_else(|| "no cycle pairs".to_string())
}

fn total_cycles(csv: &str) -> u64 {
    csv_cells(csv).map_or(0, |c| c.iter().map(|c| c.cycles).sum())
}

/// One job to send and what it must report.
#[derive(Debug, Clone)]
pub struct Planned {
    label: &'static str,
    spec: JobSpec,
    want: JobExpect,
    /// The `workload,scheme` cell a seed override moved, if any.
    overridden: Option<String>,
}

impl Planned {
    /// A job over `cells` cells of which `hits` must come from the cache
    /// and the rest be simulated.
    pub fn new(label: &'static str, spec: JobSpec, cells: u64, hits: u64) -> Planned {
        let want = JobExpect {
            cells,
            hits,
            simulated: cells - hits,
        };
        let overridden = spec
            .seed_overrides
            .first()
            .map(|o| format!("{},{}", o.workload, o.scheme));
        Planned {
            label,
            spec,
            want,
            overridden,
        }
    }
}

/// Sends `jobs` one after another, each timed as an operation. With a
/// `reference` CSV, every job's data must match it except in the
/// overridden cell. Returns the jobs that passed their checks.
pub fn send(
    addr: &str,
    jobs: &[Planned],
    reference: Option<&str>,
    watch: &Watch,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Vec<(Job, Op)> {
    let mut done = Vec::new();
    for p in jobs {
        let (r, op) = Op::time(watch, || {
            job(addr, &p.spec, p.want, p.label, tracer.as_deref_mut())
        });
        let r = r.and_then(|j| match reference {
            Some(csv) => same_csv_data(csv, &j.csv, p.overridden.as_slice()).map(|()| j),
            None => Ok(j),
        });
        report.tally(1, u64::from(r.is_err()));
        match r {
            Ok(j) => done.push((j, op)),
            Err(e) => report.fail(e),
        }
    }
    done
}

/// Runs the workload: one cold sweep of every kernel at `small`, one
/// seed override per kernel, then warm resubmissions.
///
/// # Errors
///
/// When the daemon cannot be started or the cold sweep fails.
pub fn run(
    args: &RunArgs,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<OpPhase, String> {
    let dir = scratch_dir("serve-resubmit")?;
    // The client waits while the daemon's one job thread works.
    let mut phase = OpPhase {
        threads: 1.0,
        ..OpPhase::default()
    };
    let watch = Watch::start("self");
    let mut server = None;
    for i in 0..crate::SETUP_REPEATS {
        let (s, op) = Op::time(&watch, || start(&dir.join(format!("cache-{i}"))));
        phase.setup.push(op);
        if let Some(old) = server.replace(s?) {
            old.shutdown();
        }
    }
    let server = server.ok_or("no daemon")?;
    let addr = server.addr().to_string();
    let before = Usage::read("self")?;
    let n = Workload::ALL.len() as u64 * 4;
    let base = spec(&Workload::ALL, "small", args.seed);
    let mut run = |jobs: &[Planned], reference: Option<&str>, phase: &mut OpPhase| {
        let done = send(
            &addr,
            jobs,
            reference,
            &watch,
            report,
            tracer.as_deref_mut(),
        );
        done.into_iter()
            .map(|(j, op)| {
                phase.ops.push(op);
                phase.cycles += total_cycles(&j.csv);
                j
            })
            .collect::<Vec<_>>()
    };
    let cold = run(
        &[Planned::new("cold", base.clone(), n, 0)],
        None,
        &mut phase,
    )
    .pop()
    .ok_or("the cold sweep failed")?;
    let overrides: Vec<Planned> = Workload::ALL
        .iter()
        .map(|&w| Planned::new("override", override_spec(&base, w, args.seed + 1), n, n - 1))
        .collect();
    let overrides = run(&overrides, Some(&cold.csv), &mut phase);
    let count = ops_for(args.seconds, 1.0 / WARM_PER_S, MIN_WARM);
    let warm = vec![Planned::new("warm", base.clone(), n, n); count];
    let warm = run(&warm, Some(&cold.csv), &mut phase);

    phase.usage = Usage::read("self")?.since(before);
    phase.peak_rss_mb = procfs::peak_rss_mb("self")?;
    server.shutdown();
    phase.norm_perf = Some(csv_norm_perf(&cold.csv)?);
    phase.reference = Reference::Csv(csv_cells(&cold.csv)?);
    let ms = |jobs: &[Job]| jobs.iter().map(|j| j.total_ms).collect::<Vec<_>>();
    let warm_ms = ms(&warm);
    report.extra("cold_job_s", cold.total_ms / 1000.0, "s");
    report.extra(
        "job_ms_p50",
        stats::median(&warm_ms).unwrap_or(f64::NAN),
        "ms",
    );
    if let Some(p) = stats::tail_percentile(warm_ms.len()) {
        let v = stats::percentile(&warm_ms, p).unwrap_or(f64::NAN);
        report.extra(format!("job_ms_p{p}"), v, "ms");
    }
    let over_ms = stats::median(&ms(&overrides)).unwrap_or(f64::NAN);
    report.extra("override_job_ms_p50", over_ms, "ms");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_norm_perf_pairs_each_kernels_schemes() {
        let csv = "workload,scheme,cycles,exec_cycles,ipc,cache\n\
                   vecadd,no-protection,10,100,1,miss\nvecadd,cachecraft,10,50,1,miss\n\
                   gemm,no-protection,10,100,1,miss\ngemm,cachecraft,10,200,1,miss\n";
        assert!((csv_norm_perf(csv).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(total_cycles(csv), 40);
        assert!(
            csv_norm_perf("workload,scheme,cycles,exec_cycles,x\nvecadd,cachecraft,1,1,0\n")
                .is_err()
        );
    }
}
