//! Deterministic I/O fault injection behind the persistence layer.
//!
//! The [`crate::store`] module routes every filesystem primitive it uses
//! (write, fsync, rename, read) through the hooks in this module. When no
//! chaos configuration is installed the hooks are a single relaxed atomic
//! load — effectively free. When one *is* installed (via
//! [`install`] or the `CCRAFT_CHAOS` environment variable, see
//! [`init_from_env`]), each primitive consults a seeded, reproducible
//! schedule and may be told to fail:
//!
//! - `eio=P` — transient EIO on a write (the store's retry loop absorbs
//!   isolated occurrences),
//! - `enospc=P` — permanent out-of-space failure on a write,
//! - `torn=P` — a torn/partial write: only a prefix of the bytes reaches
//!   the temp file, reported as a transient short-write so the retry loop
//!   rewrites it in full (the destination file is never touched, because
//!   the rename never runs against a torn temp file),
//! - `rename=P` — the atomic rename fails (permanent),
//! - `fsync=P` — an fsync fails (permanent: after a failed fsync the
//!   kernel page-cache state is unknowable, so retrying is wrong),
//! - `read-eio=P` — transient EIO on a read,
//! - `flip=P` — a single bit of a read's payload is flipped in memory,
//!   which checksum verification must catch.
//!
//! The schedule is a pure function of `(seed, op counter, fault kind)`:
//! the same spec replays the same faults at the same operations, which is
//! what makes `ccx chaos-soak` failures reproducible.

use crate::error::Error;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Environment variable holding a chaos spec (see [`ChaosConfig::parse`]).
pub const CHAOS_ENV: &str = "CCRAFT_CHAOS";

/// What the store should do with a pending write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDirective {
    /// Write all bytes normally.
    Proceed,
    /// Torn write: persist only this many bytes, then report a transient
    /// short-write failure.
    Truncate(usize),
    /// Fail with a transient EIO without writing anything.
    FailTransient,
    /// Fail with a permanent out-of-space error.
    FailEnospc,
}

/// A parsed, seeded fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every probability draw.
    pub seed: u64,
    /// Probability of a transient EIO per write.
    pub eio: f64,
    /// Probability of a permanent ENOSPC per write.
    pub enospc: f64,
    /// Probability of a torn (partial) write per write.
    pub torn: f64,
    /// Probability of a failed rename.
    pub rename: f64,
    /// Probability of a failed fsync.
    pub fsync: f64,
    /// Probability of a transient EIO per read.
    pub read_eio: f64,
    /// Probability of a single-bit flip per read.
    pub flip: f64,
}

impl ChaosConfig {
    /// A schedule that injects nothing (all probabilities zero).
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            eio: 0.0,
            enospc: 0.0,
            torn: 0.0,
            rename: 0.0,
            fsync: 0.0,
            read_eio: 0.0,
            flip: 0.0,
        }
    }

    /// Parses a spec string: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed` (u64, default 0) and the per-fault probabilities
    /// `eio`, `enospc`, `torn`, `rename`, `fsync`, `read-eio`, `flip`
    /// (each a float in `[0, 1]`, default 0). Example:
    /// `seed=7,eio=0.05,torn=0.05,rename=0.02,flip=0.01`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on unknown keys, malformed numbers, or
    /// probabilities outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, Error> {
        let mut cfg = ChaosConfig::quiet(0);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| Error::config(format!("chaos spec `{part}`: expected key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                cfg.seed = value.parse().map_err(|_| {
                    Error::config(format!("chaos spec seed `{value}`: expected an integer"))
                })?;
                continue;
            }
            let p: f64 = value.parse().map_err(|_| {
                Error::config(format!("chaos spec {key}=`{value}`: expected a number"))
            })?;
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::config(format!(
                    "chaos spec {key}={value}: probability must be in [0, 1]"
                )));
            }
            match key {
                "eio" => cfg.eio = p,
                "enospc" => cfg.enospc = p,
                "torn" => cfg.torn = p,
                "rename" => cfg.rename = p,
                "fsync" => cfg.fsync = p,
                "read-eio" => cfg.read_eio = p,
                "flip" => cfg.flip = p,
                other => {
                    return Err(Error::config(format!(
                        "chaos spec: unknown key `{other}` \
                         (expected seed/eio/enospc/torn/rename/fsync/read-eio/flip)"
                    )))
                }
            }
        }
        Ok(cfg)
    }

    /// Canonical spec string (round-trips through [`ChaosConfig::parse`]).
    pub fn to_spec(&self) -> String {
        format!(
            "seed={},eio={},enospc={},torn={},rename={},fsync={},read-eio={},flip={}",
            self.seed,
            self.eio,
            self.enospc,
            self.torn,
            self.rename,
            self.fsync,
            self.read_eio,
            self.flip
        )
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of its input. Also
/// used by [`crate::soak`] to derive reproducible kill delays.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a draw for `(seed, op, salt)` onto `[0, 1)`.
fn draw(seed: u64, op: u64, salt: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(op.wrapping_add(salt.wrapping_mul(0x51ed_270b))));
    // 53 mantissa bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// Salts keep each fault family's draw stream independent.
const SALT_EIO: u64 = 1;
const SALT_ENOSPC: u64 = 2;
const SALT_TORN: u64 = 3;
const SALT_RENAME: u64 = 4;
const SALT_FSYNC: u64 = 5;
const SALT_READ_EIO: u64 = 6;
const SALT_FLIP: u64 = 7;
const SALT_TORN_LEN: u64 = 8;
const SALT_FLIP_BIT: u64 = 9;

/// Fast-path flag: `false` means every hook is a no-op.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonic operation counter shared by all hooks.
static OPS: AtomicU64 = AtomicU64::new(0);
/// The installed schedule, if any.
static CURRENT: Mutex<Option<Arc<ChaosConfig>>> = Mutex::new(None);

fn lock_current() -> std::sync::MutexGuard<'static, Option<Arc<ChaosConfig>>> {
    // Poison only means a panic mid-swap; the Option inside is valid.
    CURRENT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `cfg` as the process-global fault schedule and resets the
/// operation counter, so identical specs replay identical faults.
pub fn install(cfg: ChaosConfig) {
    *lock_current() = Some(Arc::new(cfg));
    OPS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes the global schedule; hooks become free again.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *lock_current() = None;
}

/// The installed schedule, if any.
pub fn current() -> Option<Arc<ChaosConfig>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    lock_current().clone()
}

/// Installs a schedule from the `CCRAFT_CHAOS` environment variable, if
/// set and non-empty. Does nothing (and clears nothing) otherwise.
///
/// # Errors
///
/// Returns [`Error::Config`] when the variable is set but malformed.
pub fn init_from_env() -> Result<bool, Error> {
    match std::env::var(CHAOS_ENV) {
        Ok(spec) if !spec.trim().is_empty() => {
            install(ChaosConfig::parse(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

fn next_op() -> u64 {
    OPS.fetch_add(1, Ordering::SeqCst)
}

/// Write hook: consulted once per write of `len` bytes.
pub fn on_write(len: usize) -> WriteDirective {
    let Some(cfg) = current() else {
        return WriteDirective::Proceed;
    };
    let op = next_op();
    if draw(cfg.seed, op, SALT_ENOSPC) < cfg.enospc {
        return WriteDirective::FailEnospc;
    }
    if draw(cfg.seed, op, SALT_TORN) < cfg.torn && len > 0 {
        let keep = (draw(cfg.seed, op, SALT_TORN_LEN) * len as f64) as usize;
        return WriteDirective::Truncate(keep.min(len.saturating_sub(1)));
    }
    if draw(cfg.seed, op, SALT_EIO) < cfg.eio {
        return WriteDirective::FailTransient;
    }
    WriteDirective::Proceed
}

/// Rename hook: `Some(error)` means the rename must fail (permanent).
pub fn on_rename() -> Option<std::io::Error> {
    let cfg = current()?;
    let op = next_op();
    if draw(cfg.seed, op, SALT_RENAME) < cfg.rename {
        return Some(std::io::Error::other("injected rename failure"));
    }
    None
}

/// Fsync hook: `Some(error)` means the fsync must fail (permanent).
pub fn on_fsync() -> Option<std::io::Error> {
    let cfg = current()?;
    let op = next_op();
    if draw(cfg.seed, op, SALT_FSYNC) < cfg.fsync {
        return Some(std::io::Error::other("injected fsync failure"));
    }
    None
}

/// Read hook: may fail transiently, or flip one bit of `buf` in place
/// (modelling an undetected medium/bus error that checksum verification
/// must catch).
///
/// # Errors
///
/// Returns a transient `Interrupted` I/O error on an injected read EIO.
pub fn on_read(buf: &mut [u8]) -> Result<(), std::io::Error> {
    let Some(cfg) = current() else {
        return Ok(());
    };
    let op = next_op();
    if draw(cfg.seed, op, SALT_READ_EIO) < cfg.read_eio {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected read EIO",
        ));
    }
    if !buf.is_empty() && draw(cfg.seed, op, SALT_FLIP) < cfg.flip {
        let bit = (draw(cfg.seed, op, SALT_FLIP_BIT) * (buf.len() * 8) as f64) as usize;
        let bit = bit.min(buf.len() * 8 - 1);
        buf[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

/// Serializes tests that install a global chaos schedule (shared with
/// the store, cell-cache and matrix tests, which write through the
/// hooks).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_validates() {
        let cfg = ChaosConfig::parse("seed=7,eio=0.5,torn=0.25,read-eio=0.1").unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.eio, 0.5);
        assert_eq!(cfg.torn, 0.25);
        assert_eq!(cfg.read_eio, 0.1);
        assert_eq!(cfg.enospc, 0.0);
        let back = ChaosConfig::parse(&cfg.to_spec()).unwrap();
        assert_eq!(back, cfg);

        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("eio=1.5").is_err());
        assert!(ChaosConfig::parse("eio=-0.1").is_err());
        assert!(ChaosConfig::parse("seed=x").is_err());
        assert!(ChaosConfig::parse("noequals").is_err());
        // Empty segments and whitespace are tolerated.
        assert!(ChaosConfig::parse(" seed=1 , ,eio=0 ").is_ok());
        assert!(ChaosConfig::parse("").is_ok());
    }

    #[test]
    fn disabled_hooks_are_noops() {
        let _guard = test_guard();
        clear();
        assert_eq!(on_write(100), WriteDirective::Proceed);
        assert!(on_rename().is_none());
        assert!(on_fsync().is_none());
        let mut buf = vec![0xAAu8; 16];
        on_read(&mut buf).unwrap();
        assert_eq!(buf, vec![0xAAu8; 16]);
    }

    #[test]
    fn schedule_is_reproducible() {
        let _guard = test_guard();
        let cfg = ChaosConfig::parse("seed=42,eio=0.3,enospc=0.1,torn=0.2").unwrap();
        install(cfg.clone());
        let a: Vec<WriteDirective> = (0..64).map(|_| on_write(100)).collect();
        install(cfg);
        let b: Vec<WriteDirective> = (0..64).map(|_| on_write(100)).collect();
        clear();
        assert_eq!(a, b);
        assert!(
            a.iter().any(|d| *d != WriteDirective::Proceed),
            "nonzero schedule must inject something in 64 ops"
        );
        assert!(
            a.contains(&WriteDirective::Proceed),
            "moderate schedule must let some ops through"
        );
    }

    #[test]
    fn torn_writes_truncate_short_of_full_length() {
        let _guard = test_guard();
        install(ChaosConfig::parse("seed=3,torn=1").unwrap());
        for _ in 0..32 {
            match on_write(100) {
                WriteDirective::Truncate(n) => assert!(n < 100, "torn write kept {n}/100"),
                other => panic!("expected Truncate, got {other:?}"),
            }
        }
        clear();
    }

    #[test]
    fn bit_flips_change_exactly_one_bit() {
        let _guard = test_guard();
        install(ChaosConfig::parse("seed=9,flip=1").unwrap());
        let orig = vec![0u8; 32];
        let mut buf = orig.clone();
        on_read(&mut buf).unwrap();
        clear();
        let flipped: u32 = orig
            .iter()
            .zip(&buf)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn env_install_and_error() {
        let _guard = test_guard();
        clear();
        std::env::remove_var(CHAOS_ENV);
        assert!(!init_from_env().unwrap());
        std::env::set_var(CHAOS_ENV, "seed=5,eio=0.5");
        assert!(init_from_env().unwrap());
        assert_eq!(current().map(|c| c.seed), Some(5));
        std::env::set_var(CHAOS_ENV, "nope");
        assert!(init_from_env().is_err());
        std::env::remove_var(CHAOS_ENV);
        clear();
    }
}
