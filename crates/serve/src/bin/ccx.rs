//! `ccx` — the CacheCraft command-line driver.
//!
//! A user-facing front end over the library for one-off simulations,
//! without writing Rust:
//!
//! ```text
//! ccx list                               # workloads, schemes, experiments
//! ccx exp main --size tiny               # one table/figure; `all` for every one
//! ccx run --workload spmv --scheme cachecraft --size small
//! ccx run --workload triad --scheme all --machine hbm2 --energy
//! ccx reliability --codec rs36 --pattern symbol --trials 5000
//! ccx serve --addr 127.0.0.1:8077 &
//! ccx submit --workload all --scheme all --size tiny
//! ```

use ccraft_core::factory::{run_scheme, run_scheme_profiled, SchemeKind};
use ccraft_core::reliability::{Campaign, CodecKind};
use ccraft_ecc::inject::ErrorPattern;
use ccraft_harness::experiments;
use ccraft_harness::perfdiff::{self, DiffOptions};
use ccraft_harness::report::{results_dir, write_manifest};
use ccraft_harness::{Error, ExpOptions, OPTIONS_USAGE};
use ccraft_serve::{machine_by_name, scheme_by_name};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::energy::EnergyModel;
use ccraft_telemetry::chrome_trace::ChromeTrace;
use ccraft_telemetry::manifest::RunManifest;
use ccraft_telemetry::profiler::{CellProfile, ProfileReport};
use ccraft_telemetry::TelemetryConfig;
use ccraft_workloads::Workload;
use serde::{Serialize, Value};
use std::process::ExitCode;

const USAGE: &str = "\
ccx — CacheCraft simulator driver

USAGE:
  ccx list
  ccx exp <id|all> [experiment options]
  ccx run --workload <name|all> [--scheme <name|all>] [--size tiny|small|full]
          [--machine gddr6|hbm2] [--seed N] [--energy]
          [--inject <pattern>:<rate>]
          [--hist] [--timeline <file>] [--trace <file>] [--profile]
  ccx reliability [--codec <secded|rs36|rs18|crc32|tagged4>]
                  [--pattern <bit1|bit2|bit3|burst4|symbol|chiplane>] [--trials N] [--seed N]
  ccx perf-diff <run-dir-A> <run-dir-B> [--threshold-pct P] [--hit-threshold-pts P]
                [--min-wall-delta SECS] [--bench-a FILE] [--bench-b FILE] [--force]
  ccx chaos-soak <id> [--size tiny|small|full] [--seed N] [--threads N]
                 [--chaos <spec>] [--kills N] [--max-attempts N]
  ccx serve [--addr HOST:PORT] [--cache-dir DIR]
  ccx submit [--addr HOST:PORT] [--workload <name,...|all>] [--scheme <name,...|all>]
             [--size tiny|small|full] [--machine gddr6|hbm2] [--seed N]
             [--inject <pattern>:<rate>]
             [--override-seed <workload>/<scheme>:<seed>]...
             [--csv-out FILE] [--manifest-out FILE]

EXPERIMENTS (ccx exp):
  Regenerates one table or figure of the evaluation (ids: `ccx list`;
  `all` runs every one in report order) into results/ (or
  $CCRAFT_RESULTS) with a manifest.json recording it as exp-<id>.
  Exit codes: 0 ok, 2 failed or unknown id, 3 degraded.

EXPERIMENT SERVICE (ccx serve / ccx submit):
  `ccx serve` starts a persistent daemon with a content-addressed result
  cache (default results/cellcache): every cell result is keyed by scheme,
  workload, machine, size, seed, inject spec, feature flags and code
  version, and stored durably with a crc32 footer. `ccx submit` sends a
  sweep to the daemon; cells already in the cache are served without
  simulation, so resubmitting an identical sweep re-simulates nothing and
  returns byte-identical data. --override-seed re-runs exactly one cell.
  submit prints a greppable summary line: cells=N hits=N misses=N
  simulated=N. GET /metrics on the daemon serves Prometheus counters for
  its jobs' cells.

CHAOS SOAK (ccx chaos-soak):
  Verifies crash/fault recovery end to end: runs `ccx exp <id>` (e.g.
  main) once fault-free as a golden reference, then again with I/O
  faults injected via CCRAFT_CHAOS (--chaos, e.g.
  \"seed=7,eio=0.05,torn=0.05,flip=0.02\"), SIGKILLed at seeded points
  and resumed with --resume (finished cells come back from the run's
  results/cells/ cache) until it completes. Exits 0 only when every
  reference CSV comes back byte-identical and checksum-valid from the
  chaos run. A chaos spec of probabilities 0 (the default) degenerates
  to a pure kill/resume soak.

PERF DIFF (ccx perf-diff):
  Joins each run directory's manifest.json, profile.json (from --profile)
  and newest BENCH_*.json (from scripts/bench_smoke), prints a regression
  table, and exits 1 when run B regressed past the thresholds (0 clean,
  2 unusable or incomparable inputs). Runs must match on experiment,
  size, seed and feature flags unless --force is given.

FAULT INJECTION (ccx run):
  --inject <pattern>:<rate>  expose DRAM reads to in-situ faults while the
                     simulation runs: pattern is bit1|bit2|bit3|burst4|
                     symbol|chiplane, rate is a per-access probability
                     (e.g. symbol:1e-6) or FIT-style (bit2:fit=5000@24 =
                     5000 FIT/GB for a 24-hour exposure). Decode outcomes
                     (benign/corrected/DUE/SDC) go through each scheme's
                     stored codec and are reported per cell. Injection is
                     observational: timing and traffic are unchanged.

TELEMETRY (ccx run):
  --profile          self-profile the simulator: host wall-time per component,
                     idle/sleep memo hit rates, FR-FCFS scan depths and a
                     per-channel load table, written to results/profile.json
  --hist             print read-latency percentiles (p50/p90/p99/max) per cell
  --timeline <file>  write every cell's epoch time-series as JSON
  --trace <file>     write a Chrome/Perfetto trace (open in chrome://tracing
                     or ui.perfetto.dev); with multiple cells the trace
                     covers the last cell run
  Every `ccx run` also writes results/manifest.json describing the run.
  Telemetry is passive: --energy reports identical numbers with or without
  --hist/--timeline/--trace, because energy is computed post hoc from the
  same aggregate statistics that telemetry leaves untouched.

Unrecognized flags on run, reliability, serve and submit are reported
on stderr (and, for run, in the manifest) but do not fail the command.

Run `ccx list` to see every workload, scheme and experiment name.";

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the shared experiment options (`--size`, `--seed`,
/// `--inject`, ...) out of a subcommand's arguments and reports, on
/// stderr, every `--` flag that neither [`ExpOptions`] nor the
/// subcommand (`own`) knows. Returns the options and those flags.
fn parse_options(args: &[String], own: &[&str]) -> Result<(ExpOptions, Vec<String>), Error> {
    let (opts, mut unknown) = ExpOptions::parse_with_unknown(args)?;
    unknown.retain(|f| !own.contains(&f.as_str()));
    if !unknown.is_empty() {
        eprintln!(
            "warning: unrecognized flag(s): {} (see `ccx` usage)",
            unknown.join(", ")
        );
    }
    Ok((opts, unknown))
}

/// `ccx exp <id|all>`: runs one experiment (or all of them) through
/// `run_experiment`, which reads the options from the process arguments.
fn cmd_exp(args: &[String]) -> ExitCode {
    let id = args.get(1).map_or("", String::as_str);
    if experiments::run_by_id(id) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "unknown experiment {id:?}; valid ids: {}",
            experiments::id_list()
        );
        ExitCode::from(2)
    }
}

fn cmd_list() -> ExitCode {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {w}");
    }
    println!("schemes:");
    for kind in SchemeKind::headline(&GpuConfig::gddr6()) {
        println!("  {}", kind.name());
    }
    println!("  (aliases: off = no-protection, naive = inline-naive)");
    println!("machines:\n  gddr6 (default)\n  hbm2");
    println!("sizes:\n  tiny\n  small (default)\n  full");
    println!("codecs:\n  secded  rs36  rs18  crc32  tagged4");
    println!("patterns:\n  bit1  bit2  bit3  burst4  symbol  chiplane");
    println!("experiments (ccx exp):\n  {}", experiments::id_list());
    println!(
        "telemetry flags (ccx run):\n  --hist            latency percentiles\n  \
         --timeline FILE   epoch time-series JSON\n  --trace FILE      Chrome trace-event JSON"
    );
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    const OWN: [&str; 8] = [
        "--workload",
        "--scheme",
        "--machine",
        "--energy",
        "--hist",
        "--timeline",
        "--trace",
        "--profile",
    ];
    let (opts, unknown_flags) = match parse_options(args, &OWN) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (size, seed) = (opts.size, opts.seed);
    let fault_cfg = opts.inject.map(|fc| fc.with_seed(seed));
    let machine = parse_flag(args, "--machine").unwrap_or_else(|| "gddr6".into());
    let Some(cfg) = machine_by_name(&machine) else {
        eprintln!("unknown machine {machine:?}");
        return ExitCode::FAILURE;
    };
    let show_energy = args.iter().any(|a| a == "--energy");
    let show_hist = args.iter().any(|a| a == "--hist");
    let profile = args.iter().any(|a| a == "--profile");
    let timeline_path = parse_flag(args, "--timeline");
    let trace_path = parse_flag(args, "--trace");
    for (flag, value) in [("--timeline", &timeline_path), ("--trace", &trace_path)] {
        if value.as_deref().is_some_and(|v| v.starts_with("--")) {
            eprintln!("{flag} expects a file path\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let tel = if trace_path.is_some() {
        TelemetryConfig::full()
    } else if show_hist || timeline_path.is_some() {
        TelemetryConfig::enabled()
    } else {
        TelemetryConfig::disabled()
    };
    let telemetry_on = tel.enabled || tel.trace_events;
    let Some(workload_arg) = parse_flag(args, "--workload") else {
        eprintln!("--workload is required\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let workloads: Vec<Workload> = if workload_arg == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::from_name(&workload_arg) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {workload_arg:?} (see `ccx list`)");
                return ExitCode::FAILURE;
            }
        }
    };
    let scheme_arg = parse_flag(args, "--scheme").unwrap_or_else(|| "all".into());
    let schemes: Vec<SchemeKind> = if scheme_arg == "all" {
        SchemeKind::headline(&cfg).to_vec()
    } else {
        match scheme_by_name(&scheme_arg, &cfg) {
            Some(k) => vec![k],
            None => {
                eprintln!("unknown scheme {scheme_arg:?} (see `ccx list`)");
                return ExitCode::FAILURE;
            }
        }
    };
    let model = EnergyModel::gddr6();
    // lint: allow(wall-clock) reason=CLI elapsed-time readout for the operator; never feeds back into simulated state
    let started = std::time::Instant::now();
    let mut timeline_cells: Vec<Value> = Vec::new();
    let mut last_trace: Option<(String, ChromeTrace)> = None;
    let mut last_percentiles: Option<(u64, u64, u64, u64)> = None;
    let mut fault_totals = ccraft_sim::faults::FaultStats::default();
    let mut cells = 0u64;
    let mut cell_names: Vec<String> = Vec::new();
    let mut profile_report = ProfileReport::new();
    for w in workloads {
        let trace = w.generate(size, seed);
        println!("\n{trace}");
        for &kind in &schemes {
            let s = if profile || telemetry_on || fault_cfg.is_some() {
                let out =
                    run_scheme_profiled(&cfg, kind, &trace, &tel, fault_cfg.as_ref(), profile);
                if let Some(chrome) = out.trace {
                    last_trace = Some((format!("{}/{}", w.name(), kind.name()), chrome));
                }
                if let Some(tl) = &out.stats.timeline {
                    timeline_cells.push(Value::Object(vec![
                        ("workload".to_string(), Value::String(w.name().to_string())),
                        ("scheme".to_string(), Value::String(kind.name().to_string())),
                        ("timeline".to_string(), tl.to_value()),
                    ]));
                }
                if let Some(p) = out.profile {
                    print_profile_summary(&p);
                    profile_report.cells.push(CellProfile {
                        workload: w.name().to_string(),
                        scheme: kind.name().to_string(),
                        profile: p,
                    });
                }
                out.stats
            } else {
                run_scheme(&cfg, kind, &trace)
            };
            cells += 1;
            cell_names.push(format!("{}/{}", w.name(), kind.name()));
            println!("{s}");
            if let Some(fs) = &s.faults {
                println!(
                    "  faults: {} injected over {} data + {} ecc reads -> \
                     {} benign / {} corrected / {} DUE / {} SDC",
                    fs.injected,
                    fs.data_reads,
                    fs.ecc_reads,
                    fs.benign,
                    fs.corrected,
                    fs.due,
                    fs.sdc,
                );
                fault_totals.data_reads += fs.data_reads;
                fault_totals.ecc_reads += fs.ecc_reads;
                fault_totals.injected += fs.injected;
                fault_totals.benign += fs.benign;
                fault_totals.corrected += fs.corrected;
                fault_totals.due += fs.due;
                fault_totals.sdc += fs.sdc;
            }
            if let Some(h) = &s.latency_hist {
                last_percentiles = Some((h.p50(), h.p90(), h.p99(), h.max));
                if show_hist {
                    println!(
                        "  read latency: p50 {} / p90 {} / p99 {} / max {} cycles \
                         (mean {:.1} over {} reads)",
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.max,
                        h.mean(),
                        h.count,
                    );
                }
            }
            if show_energy {
                println!("  energy: {}", model.evaluate(&s, cfg.mem.channels));
            }
        }
    }
    let mut manifest = RunManifest::new("ccx-run");
    // Behavior-altering feature flags go into provenance so perf-diff can
    // refuse to compare e.g. an oracle build against a stock one.
    if cfg!(feature = "check-invariants") {
        manifest
            .provenance
            .features
            .push("check-invariants".to_string());
    }
    manifest.size = size.to_string();
    manifest.seed = seed;
    manifest.threads = 1;
    manifest.wall_time_secs = started.elapsed().as_secs_f64();
    for flag in &unknown_flags {
        manifest.warn(format!("unrecognized flag: {flag}"));
    }
    for name in &cell_names {
        manifest.record_cell(ccraft_telemetry::manifest::CellManifest {
            cell: name.clone(),
            cache: "uncached".to_string(),
            status: "ok".to_string(),
        });
    }
    manifest.note("cells", cells as f64);
    if fault_cfg.is_some() {
        manifest.note("faults_injected", fault_totals.injected as f64);
        manifest.note("faults_corrected", fault_totals.corrected as f64);
        manifest.note("faults_due", fault_totals.due as f64);
        manifest.note("faults_sdc", fault_totals.sdc as f64);
    }
    if let Some((p50, p90, p99, max)) = last_percentiles {
        manifest.note("read_latency_p50", p50 as f64);
        manifest.note("read_latency_p90", p90 as f64);
        manifest.note("read_latency_p99", p99 as f64);
        manifest.note("read_latency_max", max as f64);
    }
    if let Some(path) = &timeline_path {
        let json = serde_json::to_string_pretty(&RawValue(Value::Array(timeline_cells)))
            .expect("timeline serialization is infallible");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("timeline: {path}");
        manifest.output(path);
    }
    if let Some(path) = &trace_path {
        let Some((cell, chrome)) = &last_trace else {
            eprintln!("--trace requested but no cell produced a trace");
            return ExitCode::FAILURE;
        };
        if cells > 1 {
            eprintln!("note: trace covers the last cell only ({cell})");
        }
        if let Err(e) = std::fs::write(path, chrome.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {path} ({} events)", chrome.len());
        manifest.output(path);
    }
    if profile {
        let json = serde_json::to_string_pretty(&profile_report)
            .expect("profile serialization is infallible");
        let path = match results_dir() {
            Ok(dir) => dir.join("profile.json"),
            Err(e) => {
                eprintln!("failed to resolve results dir: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Durable, checksummed write: perf-diff refuses to read a torn
        // or bit-flipped profile silently.
        if let Err(e) = ccraft_harness::store::write_durable(&path, json.as_bytes()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "profile: {} ({} cells)",
            path.display(),
            profile_report.cells.len()
        );
        manifest.output("profile.json");
        manifest.note(
            "profile_host_ms",
            profile_report.total_host_ns() as f64 / 1e6,
        );
        manifest.note(
            "profile_sm_sleep_hit_rate",
            profile_report.mean_sm_sleep_hit_rate(),
        );
        manifest.note(
            "profile_scan_memo_hit_rate",
            profile_report.mean_scan_memo_hit_rate(),
        );
        manifest.note(
            "profile_busy_imbalance",
            profile_report.mean_busy_imbalance(),
        );
    }
    manifest.stamp();
    match write_manifest(&manifest) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("warning: failed to write manifest.json: {e}"),
    }
    ExitCode::SUCCESS
}

/// Prints one cell's self-profile as a compact human summary; the full
/// numbers land in `results/profile.json`.
fn print_profile_summary(p: &ccraft_telemetry::profiler::SimProfile) {
    let total = p.host_ns_total.max(1);
    let pct = |name: &str| 100.0 * p.component_ns(name) as f64 / total as f64;
    println!(
        "  profile: host {:.1}ms over {} cycles | sm {:.0}% l1 {:.0}% xbar {:.0}% \
         l2 {:.0}% mc {:.0}% dram {:.0}% other {:.0}%",
        p.host_ns_total as f64 / 1e6,
        p.cycles,
        pct("sm"),
        pct("l1"),
        pct("xbar"),
        pct("l2"),
        pct("mc"),
        pct("dram"),
        pct("flush") + pct("idle_probe") + pct("other"),
    );
    println!(
        "           sleep memo {:.1}% hit, scan memo {:.1}% hit, \
         busy imbalance {:.2}x, idle: {} jumps skipping {} cycles",
        100.0 * p.sm_sleep.hit_rate(),
        100.0 * p.scan_memo.hit_rate(),
        p.busy_imbalance(),
        p.idle_jumps,
        p.idle_cycles_skipped,
    );
}

/// `ccx perf-diff A B`: joins two run directories and flags regressions.
/// Exit codes: 0 clean, 1 regression(s), 2 unusable or incomparable input.
fn cmd_perf_diff(args: &[String]) -> ExitCode {
    let mut opts = DiffOptions::default();
    let mut dirs: Vec<String> = Vec::new();
    let mut i = 1; // args[0] is "perf-diff"
    while i < args.len() {
        match args[i].as_str() {
            "--force" => opts.force = true,
            "--threshold-pct" | "--hit-threshold-pts" | "--min-wall-delta" => {
                let flag = args[i].clone();
                i += 1;
                let Some(Ok(v)) = args.get(i).map(|s| s.parse::<f64>()) else {
                    eprintln!("{flag} expects a number\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                match flag.as_str() {
                    "--threshold-pct" => opts.wall_threshold_pct = v,
                    "--hit-threshold-pts" => opts.hit_threshold_pts = v,
                    _ => opts.min_wall_delta_secs = v,
                }
            }
            "--bench-a" | "--bench-b" => {
                let flag = args[i].clone();
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("{flag} expects a file path\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                let path = std::path::PathBuf::from(path);
                if flag == "--bench-a" {
                    opts.bench_a = Some(path);
                } else {
                    opts.bench_b = Some(path);
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            dir => dirs.push(dir.to_string()),
        }
        i += 1;
    }
    if dirs.len() != 2 {
        eprintln!(
            "perf-diff expects exactly two run directories, got {}\n\n{USAGE}",
            dirs.len()
        );
        return ExitCode::from(2);
    }
    match perfdiff::perf_diff(
        std::path::Path::new(&dirs[0]),
        std::path::Path::new(&dirs[1]),
        &opts,
    ) {
        Ok(report) => {
            print!("{}", report.render());
            if report.regressions() > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Serializes an already-built JSON value (the vendored serde data model
/// has no blanket `Serialize for Value`).
struct RawValue(Value);

impl Serialize for RawValue {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `ccx chaos-soak <id>`: crash/fault recovery verifier (see
/// `ccraft_harness::soak`). Exit codes: 0 recovery contract held,
/// 1 violated or soak setup failed, 2 bad arguments.
fn cmd_chaos_soak(args: &[String]) -> ExitCode {
    let mut opts = ccraft_harness::soak::SoakOptions::default();
    let mut experiment: Option<String> = None;
    let mut i = 1; // args[0] is "chaos-soak"
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                i += 1;
                opts.size = match args.get(i).map(String::as_str) {
                    Some(s @ ("tiny" | "small" | "full")) => s.to_string(),
                    other => {
                        eprintln!("--size expects tiny|small|full, got {other:?}\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--seed" | "--threads" | "--kills" | "--max-attempts" => {
                let flag = args[i].clone();
                i += 1;
                let Some(Ok(v)) = args.get(i).map(|s| s.parse::<u64>()) else {
                    eprintln!("{flag} expects an integer\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                match flag.as_str() {
                    "--seed" => opts.seed = v,
                    "--threads" => opts.threads = v as usize,
                    "--kills" => opts.kills = v as u32,
                    _ => opts.max_attempts = v as u32,
                }
            }
            "--chaos" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!("--chaos expects a spec (e.g. seed=7,eio=0.05)\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                opts.chaos = match ccraft_harness::chaos::ChaosConfig::parse(spec) {
                    Ok(cfg) => cfg,
                    Err(e) => {
                        eprintln!("--chaos: {e}\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            name => experiment = Some(name.to_string()),
        }
        i += 1;
    }
    let experiment = experiment.unwrap_or_default();
    if !experiments::is_known(&experiment) {
        eprintln!(
            "chaos-soak expects an experiment id, got {experiment:?}; valid ids: {}\n\n{USAGE}",
            experiments::id_list()
        );
        return ExitCode::from(2);
    }
    opts.experiment = experiment;
    match ccraft_harness::soak::run_soak(&opts) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chaos-soak: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_reliability(args: &[String]) -> ExitCode {
    let seed = match parse_options(args, &["--codec", "--pattern", "--trials"]) {
        Ok((opts, _)) => opts.seed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let codec = match parse_flag(args, "--codec").as_deref() {
        None | Some("secded") => CodecKind::SecDed64,
        Some("rs36") => CodecKind::Rs36_32,
        Some("rs18") => CodecKind::Rs18_16,
        Some("crc32") => CodecKind::Crc32,
        Some("tagged4") => CodecKind::Tagged4,
        Some(other) => {
            eprintln!("unknown codec {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let pattern = match parse_flag(args, "--pattern").as_deref() {
        None | Some("bit1") => ErrorPattern::RandomBits { count: 1 },
        Some("bit2") => ErrorPattern::RandomBits { count: 2 },
        Some("bit3") => ErrorPattern::RandomBits { count: 3 },
        Some("burst4") => ErrorPattern::AdjacentBurst { len: 4 },
        Some("symbol") => ErrorPattern::SymbolError,
        Some("chiplane") => ErrorPattern::ChipLane { stride: 4 },
        Some(other) => {
            eprintln!("unknown pattern {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let trials: u32 = match parse_flag(args, "--trials").map(|s| s.parse()) {
        None => 2_000,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!("--trials expects an integer\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let r = Campaign {
        codec,
        pattern,
        trials,
        seed,
    }
    .run();
    println!("{codec} under {pattern} ({trials} trials):");
    println!(
        "  benign {:.2}%  corrected {:.2}%  DUE {:.2}%  SDC {:.2}%",
        100.0 * r.benign as f64 / r.trials as f64,
        100.0 * r.corrected as f64 / r.trials as f64,
        100.0 * r.due_rate(),
        100.0 * r.sdc_rate(),
    );
    ExitCode::SUCCESS
}

/// `ccx serve`: runs the persistent experiment daemon until killed.
fn cmd_serve(args: &[String]) -> ExitCode {
    if let Err(e) = parse_options(args, &["--addr", "--cache-dir"]) {
        eprintln!("error: {e}\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let addr = parse_flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8077".into());
    let cache_dir = match parse_flag(args, "--cache-dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => match results_dir() {
            Ok(dir) => dir.join("cellcache"),
            Err(e) => {
                eprintln!("failed to resolve results dir: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let state = match ccraft_serve::ServeState::open(&cache_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to open cache {}: {e}", cache_dir.display());
            return ExitCode::FAILURE;
        }
    };
    let entries = state.cache().len();
    // The jobs' matrix engine reports into the process-global registry,
    // which GET /metrics serves.
    ccraft_harness::metrics::install(std::sync::Arc::new(
        ccraft_harness::metrics::MetricsRegistry::new(),
    ));
    let server = match ccraft_serve::Server::bind(&addr, state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "ccraft-serve listening on http://{} (cache: {} with {entries} entries)",
        server.addr(),
        cache_dir.display(),
    );
    loop {
        std::thread::park();
    }
}

/// `ccx submit`: sends one sweep to a running daemon, waits for it, and
/// prints a greppable summary (`cells=N hits=N misses=N simulated=N`).
/// Exit codes: 0 done, 1 job failed, 2 transport or argument errors.
fn cmd_submit(args: &[String]) -> ExitCode {
    const OWN: [&str; 7] = [
        "--addr",
        "--workload",
        "--scheme",
        "--machine",
        "--override-seed",
        "--csv-out",
        "--manifest-out",
    ];
    let opts = match parse_options(args, &OWN) {
        Ok((opts, _)) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let addr = parse_flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8077".into());
    let split_list = |v: Option<String>| -> Vec<String> {
        v.unwrap_or_else(|| "all".into())
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let mut spec = ccraft_serve::JobSpec {
        workloads: split_list(parse_flag(args, "--workload")),
        schemes: split_list(parse_flag(args, "--scheme")),
        size: opts.size.to_string(),
        seed: opts.seed,
        // The daemon parses the spec itself; `opts` has validated it.
        inject: parse_flag(args, "--inject"),
        ..ccraft_serve::JobSpec::default()
    };
    if let Some(machine) = parse_flag(args, "--machine") {
        spec.machine = machine;
    }
    // --override-seed is repeatable: every occurrence adds one override.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--override-seed" {
            i += 1;
            let parsed = args.get(i).and_then(|v| {
                let (cell, seed) = v.rsplit_once(':')?;
                let (workload, scheme) = cell.split_once('/')?;
                Some(ccraft_serve::SeedOverride {
                    workload: workload.to_string(),
                    scheme: scheme.to_string(),
                    seed: seed.parse().ok()?,
                })
            });
            match parsed {
                Some(o) => spec.seed_overrides.push(o),
                None => {
                    eprintln!("--override-seed expects <workload>/<scheme>:<seed>\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        i += 1;
    }
    let id = match ccraft_serve::submit_job(&addr, &spec) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("submit failed: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("submitted {id} to {addr}");
    let view = match ccraft_serve::wait_for_job(&addr, &id, true) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("waiting for {id} failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = parse_flag(args, "--csv-out") {
        match ccraft_serve::fetch_csv(&addr, &id) {
            // The raw durable bytes (crc32 footer included) land on disk,
            // so downstream readers can re-verify with the store layer.
            Ok((_, raw)) => {
                if let Err(e) = std::fs::write(&path, raw) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("csv: {path} (checksum verified)");
            }
            Err(e) => {
                eprintln!("csv download failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = parse_flag(args, "--manifest-out") {
        match ccraft_serve::http_request(&addr, "GET", &format!("/jobs/{id}/manifest"), None) {
            Ok((200, body)) => {
                if let Err(e) = std::fs::write(&path, body) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("manifest: {path}");
            }
            Ok((status, _)) => {
                eprintln!("manifest download failed ({status})");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("manifest download failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "job {} {}: cells={} hits={} misses={} simulated={}",
        view.id, view.status, view.cells, view.hits, view.misses, view.simulated
    );
    if view.status == "done" {
        ExitCode::SUCCESS
    } else {
        eprintln!("job failed: {}", view.error);
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("exp") => cmd_exp(&args),
        Some("run") => cmd_run(&args),
        Some("reliability") => cmd_reliability(&args),
        Some("perf-diff") => cmd_perf_diff(&args),
        Some("chaos-soak") => cmd_chaos_soak(&args),
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        _ => {
            eprintln!("{USAGE}\n\n{OPTIONS_USAGE}");
            ExitCode::FAILURE
        }
    }
}
