//! Crash atomicity of `store::write_durable`, as a tested property: a
//! process killed inside the write leaves the destination reading back
//! verified as exactly the old version or exactly the new one.
//!
//! The parent writes a verified `v1`, then starts a child (this test
//! binary again, on the ignored `child_rewrites_v1_with_v2` helper) that
//! rewrites the file with a multi-MiB `v2`. The parent polls until the
//! write is in progress, SIGKILLs the child and reads the file back. Only
//! kills that land before the write finished count, and at least one
//! must.

use ccraft_harness::store::{read_verified, write_durable};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Tells the child helper which file to rewrite; read only by this test.
const CHILD_PATH_VAR: &str = "CCRAFT_CRASH_TEST_PATH";

/// Kill attempts; each costs one child process and one `v2` write.
const ATTEMPTS: usize = 6;

/// Size of the `v2` payload: large enough that its write and fsync
/// outlast the parent's polling interval.
const V2_BYTES: usize = 16 << 20;

/// A text payload of about `bytes` bytes, distinct per `version`.
fn payload(version: u32, bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + 64);
    let mut line = 0u64;
    while out.len() < bytes {
        out.extend_from_slice(format!("v{version} line {line}\n").as_bytes());
        line += 1;
    }
    out
}

fn tmp_of(path: &Path) -> PathBuf {
    let mut name = path.file_name().expect("file name").to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The child side: rewrite the file named by [`CHILD_PATH_VAR`] with
/// `v2`. Does nothing when run without it (`cargo test -- --ignored`).
#[test]
#[ignore = "child process of write_durable_is_atomic_under_sigkill"]
fn child_rewrites_v1_with_v2() {
    if let Some(path) = std::env::var_os(CHILD_PATH_VAR) {
        write_durable(Path::new(&path), &payload(2, V2_BYTES)).expect("child write");
    }
}

/// One attempt: start the child, kill it once its write is in progress,
/// and check what the destination holds. Returns `true` when the kill
/// landed before the write finished.
fn kill_during_write(path: &Path, v1: &[u8], v2: &[u8]) -> bool {
    write_durable(path, v1).expect("write v1");
    let v1_len = std::fs::metadata(path).expect("stat v1").len();
    let tmp = tmp_of(path);
    let _ = std::fs::remove_file(&tmp);
    let mut child = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "child_rewrites_v1_with_v2",
            "--ignored",
            "--quiet",
        ])
        .env(CHILD_PATH_VAR, path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");
    let deadline = Instant::now() + Duration::from_secs(30);
    let in_progress = || tmp.exists() || std::fs::metadata(path).is_ok_and(|m| m.len() != v1_len);
    let mut started = false;
    while !started && Instant::now() < deadline {
        if child.try_wait().expect("poll child").is_some() {
            break;
        }
        started = in_progress();
        if !started {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let running = child.try_wait().expect("poll child").is_none();
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    let back = read_verified(path).expect("destination readable and not corrupt");
    assert!(back.verified, "destination lost its checksum footer");
    assert!(
        back.payload == v1 || back.payload == v2,
        "destination is neither v1 nor v2 ({} bytes)",
        back.payload.len()
    );
    started && running && (tmp.exists() || back.payload == v1)
}

#[test]
fn write_durable_is_atomic_under_sigkill() {
    let dir = std::env::temp_dir().join(format!("ccraft-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("artifact.json");
    let (v1, v2) = (payload(1, 4096), payload(2, V2_BYTES));
    let landed = (0..ATTEMPTS)
        .filter(|_| kill_during_write(&path, &v1, &v2))
        .count();
    let _ = std::fs::remove_dir_all(&dir);
    println!("{landed} of {ATTEMPTS} kills landed inside a write");
    assert!(
        landed >= 1,
        "no kill of {ATTEMPTS} landed inside a write; the property went untested"
    );
}
