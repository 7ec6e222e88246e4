//! `ccx chaos-soak` — an end-to-end recovery verifier.
//!
//! Runs a real experiment binary twice over the same seed and size:
//!
//! 1. **Reference run** — fault-free, in its own results directory. This
//!    is the golden corpus the chaos run must reproduce.
//! 2. **Chaos run** — the same experiment with `CCRAFT_CHAOS` set on the
//!    child (so [`crate::chaos`] injects I/O faults into every store
//!    operation), killed with SIGKILL at seeded points and restarted with
//!    `--resume` until it completes.
//!
//! The soak then asserts the recovery contract from DESIGN.md §14: every
//! CSV the reference run produced exists in the chaos run's directory
//! **byte-identical** (checksum footer included), and each one carries a
//! valid checksum. Any `*.corrupt-*` quarantine files the chaos run left
//! behind, in the results directory or its `cells/` cache, are reported —
//! they are evidence of detection working, not a failure.
//!
//! Everything random is derived from the soak seed (kill delays via
//! SplitMix64, per-attempt chaos seeds by mixing the attempt index), so a
//! failing soak reproduces with the same arguments.

use crate::chaos::{self, ChaosConfig};
use crate::error::Error;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Exit status an experiment child may end with and still count as a
/// completed sweep (see [`crate::runner::EXIT_DEGRADED`]).
const ACCEPTED_EXITS: [i32; 2] = [crate::runner::EXIT_OK, crate::runner::EXIT_DEGRADED];

/// Configuration for one soak (see [`run_soak`]).
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Experiment binary name, e.g. `exp-main`.
    pub experiment: String,
    /// Size class passed to the child (`tiny`/`small`/`full`).
    pub size: String,
    /// Trace seed passed to the child.
    pub seed: u64,
    /// Worker threads passed to the child (0 = number of CPUs).
    pub threads: usize,
    /// Fault schedule installed in the chaos run's children. The seed
    /// field is re-mixed per attempt so a permanent injected failure
    /// cannot repeat deterministically on every resume.
    pub chaos: ChaosConfig,
    /// Number of SIGKILLs to deliver before letting a run complete.
    pub kills: u32,
    /// Attempt budget for the chaos run (kills + completion retries).
    /// The final attempt runs with chaos disabled so the soak always
    /// terminates; reaching it is reported in [`SoakReport`].
    pub max_attempts: u32,
    /// Per-child wall-clock budget; a child exceeding it is killed and
    /// the soak fails.
    pub attempt_timeout: Duration,
    /// Explicit path to the experiment binary (tests); defaults to a
    /// sibling of the running executable.
    pub exe: Option<PathBuf>,
    /// Scratch root holding the `reference/` and `chaos/` results
    /// directories; defaults to a per-process directory under the
    /// system temp dir.
    pub root: Option<PathBuf>,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            experiment: "exp-main".to_string(),
            size: "tiny".to_string(),
            seed: 1,
            threads: 0,
            chaos: ChaosConfig::quiet(1),
            kills: 3,
            max_attempts: 12,
            attempt_timeout: Duration::from_secs(300),
            exe: None,
            root: None,
        }
    }
}

/// What a completed soak observed. Produced only when the recovery
/// contract held; any violation is an [`Error`] instead.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Results directory of the fault-free reference run.
    pub reference_dir: PathBuf,
    /// Results directory of the chaos run.
    pub chaos_dir: PathBuf,
    /// Child processes launched for the chaos run (kills + retries + the
    /// completing run).
    pub attempts: u32,
    /// SIGKILLs actually delivered (a fast child may finish first).
    pub kills_delivered: u32,
    /// CSV files compared byte-for-byte against the reference.
    pub csv_files: usize,
    /// Quarantine files (`*.corrupt-*`) the chaos run left behind, cache
    /// entries as `cells/<name>` — corruption that was detected and
    /// preserved, not silently read.
    pub quarantined: Vec<String>,
    /// Whether the completing run exited degraded
    /// ([`crate::runner::EXIT_DEGRADED`]) rather than clean.
    pub degraded: bool,
    /// Whether the soak had to fall back to a chaos-free final attempt
    /// to complete within the attempt budget.
    pub chaos_disabled_final: bool,
}

impl SoakReport {
    /// Human summary for the CLI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos-soak: OK — {} CSV file(s) byte-identical to the fault-free reference\n\
             attempts: {} ({} kill(s) delivered){}{}\n",
            self.csv_files,
            self.attempts,
            self.kills_delivered,
            if self.degraded {
                ", completed degraded (quarantined cells)"
            } else {
                ""
            },
            if self.chaos_disabled_final {
                ", final attempt ran chaos-free"
            } else {
                ""
            },
        );
        if self.quarantined.is_empty() {
            out.push_str("quarantined files: none\n");
        } else {
            out.push_str(&format!(
                "quarantined files ({} — corruption detected and preserved):\n",
                self.quarantined.len()
            ));
            for q in &self.quarantined {
                out.push_str(&format!("  {q}\n"));
            }
        }
        out
    }
}

/// Locates the experiment binary: an explicit override, or a sibling of
/// the currently running executable (experiment binaries and `ccx` are
/// built into the same target directory).
fn resolve_exe(opts: &SoakOptions) -> Result<PathBuf, Error> {
    if let Some(exe) = &opts.exe {
        return Ok(exe.clone());
    }
    let me = std::env::current_exe().map_err(|e| Error::io("resolving current executable", e))?;
    let dir = me
        .parent()
        .ok_or_else(|| Error::config("current executable has no parent directory"))?;
    let candidate = dir.join(&opts.experiment);
    if candidate.is_file() {
        return Ok(candidate);
    }
    // Under `cargo test` the harness lives one level down in deps/.
    if let Some(parent) = dir.parent() {
        let candidate = parent.join(&opts.experiment);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(Error::config(format!(
        "experiment binary `{}` not found next to {} — build it first \
         (cargo build --release) or pass an explicit path",
        opts.experiment,
        dir.display()
    )))
}

/// Builds the child command for one run.
fn child_command(
    exe: &Path,
    opts: &SoakOptions,
    results: &Path,
    resume: bool,
    chaos_spec: Option<&str>,
) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("--size")
        .arg(&opts.size)
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--threads")
        .arg(opts.threads.to_string());
    if resume {
        cmd.arg("--resume");
    }
    cmd.env("CCRAFT_RESULTS", results)
        .env("CCRAFT_PROGRESS", "0")
        .env_remove(chaos::CHAOS_ENV)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = chaos_spec {
        cmd.env(chaos::CHAOS_ENV, spec);
    }
    cmd
}

/// Waits for `child` until `deadline`, polling; returns its exit code
/// (`None` for signal death, which a SIGKILL-free run must not produce).
fn wait_with_deadline(child: &mut Child, deadline: Instant) -> Result<Option<i32>, Error> {
    loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| Error::io("polling soak child", e))?
        {
            return Ok(status.code());
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Error::config(
                "chaos-soak: child exceeded the attempt timeout",
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs one fault-free reference run to completion in `results`.
fn run_reference(exe: &Path, opts: &SoakOptions, results: &Path) -> Result<(), Error> {
    let mut child = child_command(exe, opts, results, false, None)
        .spawn()
        .map_err(|e| Error::io("spawning reference run", e))?;
    let code = wait_with_deadline(&mut child, Instant::now() + opts.attempt_timeout)?;
    if code != Some(crate::runner::EXIT_OK) {
        return Err(Error::config(format!(
            "chaos-soak: fault-free reference run of {} exited with {code:?} — \
             fix the experiment before soaking it",
            opts.experiment
        )));
    }
    Ok(())
}

/// The chaos run: seeded kills, resume after each, then completion
/// attempts. Returns `(attempts, kills_delivered, degraded, chaos_free_final)`.
fn run_chaos(
    exe: &Path,
    opts: &SoakOptions,
    results: &Path,
) -> Result<(u32, u32, bool, bool), Error> {
    let max_attempts = opts.max_attempts.max(opts.kills + 2);
    let mut kills_delivered = 0u32;
    for attempt in 0..max_attempts {
        // Re-mix the chaos seed per attempt: a permanently injected
        // failure (fsync/rename/enospc) must not recur at the same op on
        // every resume, or the soak could never converge.
        let mut cfg = opts.chaos.clone();
        cfg.seed = chaos::splitmix64(opts.chaos.seed ^ u64::from(attempt));
        let chaos_free_final = attempt == max_attempts - 1;
        let spec = if chaos_free_final {
            None
        } else {
            Some(cfg.to_spec())
        };
        let resume = attempt > 0;
        let mut child = child_command(exe, opts, results, resume, spec.as_deref())
            .spawn()
            .map_err(|e| Error::io("spawning chaos run", e))?;
        let deadline = Instant::now() + opts.attempt_timeout;

        if kills_delivered < opts.kills && !chaos_free_final {
            // Seeded kill point: 30–530 ms into the run, long enough for
            // some cells to land in the cell cache on tiny sizes, short
            // enough to interrupt most runs.
            let h = chaos::splitmix64(opts.seed ^ chaos::splitmix64(u64::from(attempt) | 1 << 32));
            let delay = Duration::from_millis(30 + h % 500);
            std::thread::sleep(delay.min(opts.attempt_timeout));
            match child
                .try_wait()
                .map_err(|e| Error::io("polling soak child", e))?
            {
                Some(status) => {
                    // Finished before the kill point; treat as a
                    // completion attempt below.
                    let code = status.code();
                    if code.is_some_and(|c| ACCEPTED_EXITS.contains(&c)) {
                        return Ok((
                            attempt + 1,
                            kills_delivered,
                            code == Some(crate::runner::EXIT_DEGRADED),
                            false,
                        ));
                    }
                    eprintln!(
                        "chaos-soak: attempt {} exited {code:?} under faults; resuming",
                        attempt + 1
                    );
                    continue;
                }
                None => {
                    child
                        .kill()
                        .map_err(|e| Error::io("killing soak child", e))?;
                    let _ = child.wait();
                    kills_delivered += 1;
                    eprintln!(
                        "chaos-soak: kill {kills_delivered}/{} after {delay:?} (attempt {})",
                        opts.kills,
                        attempt + 1
                    );
                    continue;
                }
            }
        }

        // Completion attempt: let the child run.
        let code = wait_with_deadline(&mut child, deadline)?;
        if code.is_some_and(|c| ACCEPTED_EXITS.contains(&c)) {
            return Ok((
                attempt + 1,
                kills_delivered,
                code == Some(crate::runner::EXIT_DEGRADED),
                chaos_free_final,
            ));
        }
        eprintln!(
            "chaos-soak: attempt {} exited {code:?} under faults; resuming",
            attempt + 1
        );
    }
    Err(Error::config(format!(
        "chaos-soak: no attempt completed within the budget of {max_attempts} \
         (even the final chaos-free one)"
    )))
}

/// Lists the `.csv` file names directly inside `dir`, sorted.
fn csv_names(dir: &Path) -> Result<Vec<String>, Error> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| Error::io(format!("listing {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(format!("listing {}", dir.display()), e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Collects quarantine files (`*.corrupt-*`) inside `dir` and its
/// `cells/` cache, the latter as `cells/<name>`.
fn quarantine_names(dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for (sub, prefix) in [(dir.to_path_buf(), ""), (dir.join("cells"), "cells/")] {
        if let Ok(entries) = std::fs::read_dir(sub) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.contains(".corrupt-") {
                    names.push(format!("{prefix}{name}"));
                }
            }
        }
    }
    names.sort();
    names
}

/// Verifies the recovery contract: every reference CSV exists in the
/// chaos directory byte-identical and checksum-valid.
fn compare_outputs(reference: &Path, chaos_dir: &Path) -> Result<usize, Error> {
    let ref_csvs = csv_names(reference)?;
    if ref_csvs.is_empty() {
        return Err(Error::config(format!(
            "chaos-soak: reference run produced no CSV files in {}",
            reference.display()
        )));
    }
    for name in &ref_csvs {
        let ref_path = reference.join(name);
        let chaos_path = chaos_dir.join(name);
        let want = std::fs::read(&ref_path)
            .map_err(|e| Error::io(format!("reading {}", ref_path.display()), e))?;
        let got = std::fs::read(&chaos_path).map_err(|e| {
            Error::io(
                format!("chaos run never produced {}", chaos_path.display()),
                e,
            )
        })?;
        if want != got {
            return Err(Error::config(format!(
                "chaos-soak: {name} differs between the chaos run and the \
                 fault-free reference ({} vs {} bytes) — recovery is not byte-exact",
                got.len(),
                want.len()
            )));
        }
        // Identical bytes with a valid footer on one side implies the
        // other, but verify the chaos copy explicitly: the contract is
        // "checksum-valid", not just "same as reference".
        let v = crate::store::read_verified(&chaos_path)?;
        if !v.verified {
            return Err(Error::config(format!(
                "chaos-soak: {name} carries no checksum footer"
            )));
        }
    }
    Ok(ref_csvs.len())
}

/// Runs the full soak: reference run, chaos run with kills and resumes,
/// byte-exact comparison. See the module docs for the contract.
///
/// # Errors
///
/// Returns [`Error::Config`] when the recovery contract is violated
/// (missing/differing/unverifiable outputs, or no attempt completed) and
/// [`Error::Io`] on spawn/read failures.
pub fn run_soak(opts: &SoakOptions) -> Result<SoakReport, Error> {
    let exe = resolve_exe(opts)?;
    let root = opts.root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ccraft-soak-{}", std::process::id()))
    });
    let reference_dir = root.join("reference");
    let chaos_dir = root.join("chaos");
    for dir in [&reference_dir, &chaos_dir] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
    }

    eprintln!(
        "chaos-soak: reference run ({} --size {} --seed {})",
        opts.experiment, opts.size, opts.seed
    );
    run_reference(&exe, opts, &reference_dir)?;

    eprintln!(
        "chaos-soak: chaos run under `{}`, {} kill(s)",
        opts.chaos.to_spec(),
        opts.kills
    );
    let (attempts, kills_delivered, degraded, chaos_disabled_final) =
        run_chaos(&exe, opts, &chaos_dir)?;

    let csv_files = compare_outputs(&reference_dir, &chaos_dir)?;
    Ok(SoakReport {
        quarantined: quarantine_names(&chaos_dir),
        reference_dir,
        chaos_dir,
        attempts,
        kills_delivered,
        csv_files,
        degraded,
        chaos_disabled_final,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_rejects_missing_and_differing_files() {
        let root = std::env::temp_dir().join(format!("ccraft-soak-cmp-{}", std::process::id()));
        let a = root.join("a");
        let b = root.join("b");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();

        // Empty reference is itself an error.
        assert!(compare_outputs(&a, &b).is_err());

        crate::store::write_durable(&a.join("t.csv"), b"h\n1\n").unwrap();
        // Missing on the chaos side.
        assert!(compare_outputs(&a, &b).is_err());
        // Differing bytes.
        crate::store::write_durable(&b.join("t.csv"), b"h\n2\n").unwrap();
        assert!(compare_outputs(&a, &b).is_err());
        // Identical and verified.
        crate::store::write_durable(&b.join("t.csv"), b"h\n1\n").unwrap();
        assert_eq!(compare_outputs(&a, &b).unwrap(), 1);
        // A footer-less (legacy) chaos copy fails the contract even when
        // byte-identical to a footer-less reference.
        std::fs::write(a.join("u.csv"), b"x\n").unwrap();
        std::fs::write(b.join("u.csv"), b"x\n").unwrap();
        assert!(compare_outputs(&a, &b).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_listing_spots_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("ccraft-soak-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::create_dir_all(dir.join("cells")).unwrap();
        std::fs::write(dir.join("f4.csv.corrupt-0"), b"junk").unwrap();
        std::fs::write(dir.join("main.csv"), b"fine").unwrap();
        std::fs::write(dir.join("cells/ab.json.corrupt-1"), b"junk").unwrap();
        std::fs::write(dir.join("cells/cd.json"), b"fine").unwrap();
        assert_eq!(
            quarantine_names(&dir),
            vec!["cells/ab.json.corrupt-1", "f4.csv.corrupt-0"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_binary_is_a_config_error() {
        let opts = SoakOptions {
            experiment: "exp-does-not-exist".to_string(),
            ..SoakOptions::default()
        };
        let err = resolve_exe(&opts).unwrap_err().to_string();
        assert!(err.contains("exp-does-not-exist"), "{err}");
        // An explicit override bypasses the search entirely.
        let opts = SoakOptions {
            exe: Some(PathBuf::from("/bin/true")),
            ..SoakOptions::default()
        };
        assert_eq!(resolve_exe(&opts).unwrap(), PathBuf::from("/bin/true"));
    }

    #[test]
    fn report_renders_quarantines_and_modes() {
        let r = SoakReport {
            reference_dir: PathBuf::from("/tmp/ref"),
            chaos_dir: PathBuf::from("/tmp/chaos"),
            attempts: 5,
            kills_delivered: 3,
            csv_files: 2,
            quarantined: vec!["cells/ab.json.corrupt-0".to_string()],
            degraded: true,
            chaos_disabled_final: false,
        };
        let text = r.render();
        assert!(text.contains("2 CSV file(s)"), "{text}");
        assert!(text.contains("3 kill(s)"), "{text}");
        assert!(text.contains("degraded"), "{text}");
        assert!(text.contains("cells/ab.json.corrupt-0"), "{text}");
        let clean = SoakReport {
            quarantined: Vec::new(),
            degraded: false,
            ..r
        };
        assert!(clean.render().contains("quarantined files: none"));
    }
}
