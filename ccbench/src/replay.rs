//! The traced run's layer replay: the workload's cells at the run's seed,
//! pushed call by call through each layer's public functions, with a span
//! around every call. Per-layer metrics come from these spans and from
//! the results the calls return.

use crate::checks::{cell_ok, same_stats, verified_file};
use crate::contention::Watch;
use crate::report::Report;
use crate::serve::{self, Planned};
use crate::spans::{self_times_ns, Tracer};
use crate::{matrix, scratch_dir, stats, Reference, RunArgs};
use ccraft_core::factory::{run_scheme_profiled, SchemeKind};
use ccraft_harness::cellcache::{CellKey, ResultCache};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::dram::MapOrder;
use ccraft_sim::{simulate_with_exec, ExecConfig, SimStats, TrafficClass};
use ccraft_telemetry::profiler::MemoStats;
use ccraft_telemetry::TelemetryConfig;
use ccraft_workloads::{SizeClass, Workload};

/// Lookups of every cached cell, so the lookup tail has enough samples.
const LOOKUP_ROUNDS: usize = 5;

/// Warm resubmissions of the serve probe job.
const PROBE_WARM: usize = 10;

/// The profiler's component buckets, in `SimProfile` order.
const COMPONENTS: [&str; 9] = [
    "sm",
    "l1",
    "xbar",
    "l2",
    "mc",
    "dram",
    "flush",
    "idle_probe",
    "other",
];

/// Layers whose self-time share is reported.
const LAYERS: [&str; 5] = ["workloads", "core", "sim", "harness", "serve"];

/// The cells a workload replays: its kernels at its size class.
pub fn replay_set(workload: &str) -> (&'static [Workload], SizeClass) {
    match workload {
        "main-read" => (&matrix::READ, SizeClass::Full),
        "main-write" => (&matrix::WRITE, SizeClass::Full),
        "serve-resubmit" => (&Workload::ALL, SizeClass::Small),
        _ => (&Workload::ALL, SizeClass::Tiny),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Whether `stats` reproduces what the run's own operations returned.
fn matches_reference(stats: &SimStats, reference: &Reference) -> Result<(), String> {
    match reference {
        Reference::None => Ok(()),
        Reference::Stats(cells) => {
            let same_cell: Vec<&SimStats> = cells
                .iter()
                .filter(|s| s.kernel == stats.kernel && s.scheme == stats.scheme)
                .collect();
            match same_cell.iter().find(|s| **s == stats) {
                Some(_) => Ok(()),
                None => match same_cell.first() {
                    Some(s) => same_stats("replay vs run", s, stats),
                    None => Err(format!("{}/{}: not in the run", stats.kernel, stats.scheme)),
                },
            }
        }
        Reference::Csv(cells) => {
            let cell = cells
                .iter()
                .find(|c| c.workload == stats.kernel && c.scheme == stats.scheme)
                .ok_or_else(|| format!("{}/{}: not in the job csv", stats.kernel, stats.scheme))?;
            if (cell.cycles, cell.exec_cycles) == (stats.cycles, stats.exec_cycles) {
                Ok(())
            } else {
                Err(format!(
                    "{}/{}: replay cycles {}/{} differ from the job's {}/{}",
                    stats.kernel,
                    stats.scheme,
                    stats.cycles,
                    stats.exec_cycles,
                    cell.cycles,
                    cell.exec_cycles
                ))
            }
        }
    }
}

/// Running sums over the profiled CacheCraft cells.
#[derive(Debug, Default)]
struct Profiled {
    component_ns: [u64; 9],
    host_ns: u64,
    cycles: u64,
    idle_skipped: u64,
    sm_sleep: MemoStats,
    scan_memo: MemoStats,
    profiled_ns: u64,
    plain_ns: u64,
}

/// Replays the workload's cells and records the per-layer metrics.
///
/// # Errors
///
/// When the scratch directory or the probe daemon cannot be set up;
/// wrong results are recorded in `report`.
pub fn run(
    args: &RunArgs,
    reference: &Reference,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (kernels, size) = replay_set(args.workload.name);
    let cfg = GpuConfig::gddr6();
    let tel = TelemetryConfig::disabled();
    let exec = ExecConfig { sim_threads: 1 };
    let dir = scratch_dir("replay")?;
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("creating store dir: {e}"))?;
    let cache = ResultCache::open(&dir.join("cache")).map_err(|e| e.to_string())?;

    let replay = tracer.begin("replay", "bench");
    let (mut generate_ms, mut build_ms, mut simulate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insert_ms, mut write_ms, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut accesses = 0;
    let mut simulate_ns = 0;
    let mut all: Vec<SimStats> = Vec::new();
    let mut craft: Vec<SimStats> = Vec::new();
    let mut prof = Profiled::default();
    let mut cached: Vec<(CellKey, SimStats)> = Vec::new();
    for &k in kernels {
        let (trace, ns) = tracer.time(&format!("generate {k}"), "workloads", || {
            k.generate(size, args.seed)
        });
        generate_ms.push(ms(ns));
        accesses += trace.total_accesses();
        for kind in SchemeKind::headline(&cfg) {
            let cell = tracer.begin(format!("cell {k}/{kind}"), "bench");
            let (mut scheme, build_ns) =
                tracer.time("SchemeKind::build", "core", || kind.build(&cfg));
            let (out, sim_ns) = tracer.time("simulate_with_exec", "sim", || {
                simulate_with_exec(
                    &cfg,
                    MapOrder::RoBaCo,
                    &trace,
                    scheme.as_mut(),
                    &tel,
                    None,
                    false,
                    &exec,
                )
            });
            build_ms.push(ms(build_ns));
            simulate_ms.push(ms(sim_ns));
            simulate_ns += sim_ns;
            let stats = out.stats;
            let mut verdict = cell_ok(&stats).and_then(|()| matches_reference(&stats, reference));
            if matches!(kind, SchemeKind::CacheCraft(_)) {
                let (p, p_ns) = tracer.time("run_scheme_profiled", "sim", || {
                    run_scheme_profiled(&cfg, kind, &trace, &tel, None, true)
                });
                verdict = verdict.and_then(|()| same_stats("profiled vs plain", &stats, &p.stats));
                if let Some(profile) = p.profile {
                    for (slot, name) in prof.component_ns.iter_mut().zip(COMPONENTS) {
                        *slot += profile.component_ns(name);
                    }
                    prof.host_ns += profile.host_ns_total;
                    prof.cycles += profile.cycles;
                    prof.idle_skipped += profile.idle_cycles_skipped;
                    prof.sm_sleep.merge(&profile.sm_sleep);
                    prof.scan_memo.merge(&profile.scan_memo);
                } else {
                    verdict = verdict.and(Err("profiled run returned no profile".to_string()));
                }
                prof.profiled_ns += p_ns;
                prof.plain_ns += build_ns + sim_ns;
                craft.push(stats.clone());
            }
            let key = CellKey {
                scheme: format!("{kind:?}"),
                workload: k.name().to_string(),
                machine: "gddr6".to_string(),
                size: size.to_string(),
                seed: args.seed,
                inject: "none".to_string(),
                features: Vec::new(),
                code_version: "ccbench".to_string(),
            };
            let (inserted, ns) = tracer.time("ResultCache::insert", "harness", || {
                cache.insert(&key, &stats, 1)
            });
            insert_ms.push(ms(ns));
            let path = store_dir.join(format!("{k}-{kind}.json"));
            let payload = serde_json::to_string_pretty(&stats).unwrap_or_default();
            let (written, ns) = tracer.time("store::write_durable", "harness", || {
                ccraft_harness::store::write_durable(&path, payload.as_bytes())
            });
            write_ms.push(ms(ns));
            let (read, ns) =
                tracer.time("store::read_verified", "harness", || verified_file(&path));
            read_ms.push(ms(ns));
            verdict = verdict
                .and(inserted.map_err(|e| format!("cache insert: {e}")))
                .and(written.map_err(|e| format!("store write: {e}")))
                .and(read)
                .and_then(|bytes| {
                    (bytes == payload.as_bytes())
                        .then_some(())
                        .ok_or_else(|| format!("{}: store read back other bytes", path.display()))
                });
            tracer.end(cell);
            report.tally(1, u64::from(verdict.is_err()));
            if let Err(e) = verdict {
                report.fail(e);
            }
            cached.push((key, stats.clone()));
            all.push(stats);
        }
    }

    let lookups = tracer.begin("cache lookups", "bench");
    let mut lookup_us = Vec::new();
    let mut lookup_misses = 0;
    for _ in 0..LOOKUP_ROUNDS {
        for (key, stats) in &cached {
            let (entry, ns) = tracer.time("ResultCache::lookup", "harness", || cache.lookup(key));
            lookup_us.push(ns as f64 / 1e3);
            if entry.map(|e| e.stats) != Some(stats.clone()) {
                lookup_misses += 1;
            }
        }
    }
    tracer.end(lookups);
    report.check(lookup_misses == 0, || {
        format!("{lookup_misses} cache lookups missed or returned other stats")
    });

    probe(args, kernels[0], size, report, tracer, &dir)?;
    let replay_ns = tracer.end(replay);

    let sum = |f: &dyn Fn(&SimStats) -> u64, cells: &[SimStats]| -> f64 {
        cells.iter().map(f).sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let cycles = sum(&|s| s.cycles, &all);
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    report.set("workloads.generate_ms_p50", p50(&generate_ms));
    report.set("workloads.accesses", accesses as f64);
    report.set("core.build_ms_p50", p50(&build_ms));
    report.set(
        "core.ecc_traffic_share",
        ratio(
            sum(
                &|s| s.dram_count(TrafficClass::EccRead) + s.dram_count(TrafficClass::EccWrite),
                &craft,
            ),
            sum(&|s| s.dram.iter().sum(), &craft),
        ),
    );
    report.set(
        "core.ecc_fetch_hit_rate",
        ratio(
            sum(&|s| s.protection.ecc_fetch_hits, &craft),
            sum(
                &|s| s.protection.ecc_fetch_hits + s.protection.ecc_demand_fetches,
                &craft,
            ),
        ),
    );
    report.set(
        "core.fragment_store_hits",
        sum(&|s| s.protection.fragment_store_hits, &craft),
    );
    report.set(
        "core.reconstructed_writebacks",
        sum(&|s| s.protection.reconstructed_writebacks, &craft),
    );
    report.set(
        "core.coalesced_ecc_writes",
        sum(&|s| s.protection.coalesced_ecc_writes, &craft),
    );
    report.set("sim.simulate_ms_p50", p50(&simulate_ms));
    report.set("sim.host_ns_per_cycle", ratio(simulate_ns as f64, cycles));
    report.set("sim.cycles", cycles);
    report.set(
        "sim.l2_hit_rate",
        ratio(
            sum(&|s| s.l2_read_hits, &all),
            sum(&|s| s.l2_read_hits + s.l2_read_misses, &all),
        ),
    );
    report.set(
        "sim.row_hit_rate",
        ratio(
            sum(&|s| s.row_hits, &all),
            sum(&|s| s.row_hits + s.row_empties + s.row_conflicts, &all),
        ),
    );
    for (name, ns) in COMPONENTS.iter().zip(prof.component_ns) {
        report.set(
            format!("sim.{name}_share"),
            ratio(ns as f64, prof.host_ns as f64),
        );
    }
    report.set(
        "sim.idle_skip_frac",
        ratio(prof.idle_skipped as f64, prof.cycles as f64),
    );
    report.set("sim.sm_sleep_hit_rate", prof.sm_sleep.hit_rate());
    report.set("sim.scan_memo_hit_rate", prof.scan_memo.hit_rate());
    report.set(
        "sim.profile_overhead",
        ratio(prof.profiled_ns as f64, prof.plain_ns as f64) - 1.0,
    );
    report.set("harness.cache_insert_ms_p50", p50(&insert_ms));
    report.set("harness.cache_lookup_us_p50", p50(&lookup_us));
    report.set(
        "harness.cache_lookup_us_p90",
        stats::percentile(&lookup_us, 90.0).unwrap_or(f64::NAN),
    );
    report.set("harness.store_write_ms_p50", p50(&write_ms));
    report.set("harness.store_read_ms_p50", p50(&read_ms));

    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    for layer in LAYERS {
        let ns: u64 = spans[replay..]
            .iter()
            .zip(&self_ns[replay..])
            .filter(|(s, _)| s.cat == layer)
            .map(|(_, t)| t)
            .sum();
        report.set(
            format!("{layer}.self_share"),
            ratio(ns as f64, replay_ns as f64),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The serve layer on one kernel of the replay set: a cold job, warm
/// resubmissions and one seed override against a fresh daemon.
fn probe(
    args: &RunArgs,
    kernel: Workload,
    size: SizeClass,
    report: &mut Report,
    tracer: &mut Tracer,
    dir: &std::path::Path,
) -> Result<(), String> {
    let span = tracer.begin("serve probe", "bench");
    let (server, _) = tracer.time("ServeState::open + Server::bind", "serve", || {
        serve::start(&dir.join("probe"))
    });
    let server = server?;
    let addr = server.addr().to_string();
    let watch = Watch::start("self");
    let spec = serve::spec(&[kernel], &size.to_string(), args.seed);
    let n = 4;
    let cold = serve::send(
        &addr,
        &[Planned::new("cold", spec.clone(), n, 0)],
        None,
        &watch,
        report,
        Some(tracer),
    )
    .pop()
    .map(|(j, _)| j)
    .ok_or("the probe's cold job failed")?;
    let warm = vec![Planned::new("warm", spec.clone(), n, n); PROBE_WARM];
    let warm = serve::send(&addr, &warm, Some(&cold.csv), &watch, report, Some(tracer));
    let over = serve::override_spec(&spec, kernel, args.seed + 1);
    let over = [Planned::new("override", over, n, n - 1)];
    let overridden = serve::send(&addr, &over, Some(&cold.csv), &watch, report, Some(tracer));
    let counters = server.state().cache().counters();
    server.shutdown();
    tracer.end(span);

    report.check(counters.corrupt == 0, || {
        format!("{} corrupt cache entries", counters.corrupt)
    });
    let p50 = |f: fn(&serve::Job) -> f64| {
        stats::median(&warm.iter().map(|(j, _)| f(j)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    report.set("serve.cold_job_ms", cold.total_ms);
    report.set("serve.submit_ms_p50", p50(|j| j.submit_ms));
    report.set("serve.wait_ms_p50", p50(|j| j.wait_ms));
    report.set("serve.fetch_ms_p50", p50(|j| j.fetch_ms));
    report.set(
        "serve.override_job_ms",
        overridden.first().map_or(f64::NAN, |(j, _)| j.total_ms),
    );
    report.set("harness.cache_hits", counters.hits as f64);
    report.set("harness.cache_misses", counters.misses as f64);
    report.set("harness.cache_negative_hits", counters.negative_hits as f64);
    report.set("harness.cache_inserts", counters.inserts as f64);
    Ok(())
}
