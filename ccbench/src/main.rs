//! `ccbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints one `name value unit` line per
//! metric, then one JSON result line. See `README.md` next to this crate.

use ccbench::catalog::{self, END_TO_END, PER_LAYER};
use ccbench::RunArgs;
use std::process::Command;

const USAGE: &str = "usage: ccbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

/// glibc's malloc arena limit.
const ARENA_MAX: &str = "MALLOC_ARENA_MAX";

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(catalog::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {name:?}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(ccbench::sweep::CHILD_ARG) {
        ccbench::sweep::child_main();
        return;
    }
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // glibc gives threads their own malloc arenas, up to eight per CPU,
    // and which threads got one decides how much memory stays resident:
    // the daemon's thread-per-connection design then moves peak RSS by a
    // quarter from run to run. Two arenas (one per CPU) keep it steady.
    if std::env::var_os(ARENA_MAX).is_none() {
        let status = std::env::current_exe()
            .and_then(|exe| Command::new(exe).args(&args).env(ARENA_MAX, "2").status());
        match status {
            Ok(s) => std::process::exit(s.code().unwrap_or(1)),
            Err(e) => {
                eprintln!("error: re-running with {ARENA_MAX}: {e}");
                std::process::exit(1);
            }
        }
    }
    let metrics: &[_] = if run.trace { &PER_LAYER } else { &END_TO_END };
    for line in ccbench::run(&run).render(metrics) {
        println!("{line}");
    }
}
