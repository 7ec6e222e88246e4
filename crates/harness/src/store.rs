//! Durable, checksummed artifact persistence.
//!
//! Everything the pipeline persists — `checkpoint.json`, `manifest.json`,
//! `profile.json`, the experiment CSVs and stats JSONs — goes through two
//! entry points:
//!
//! * [`write_durable`]: write to a temp file in the same directory,
//!   append a CRC32 *checksum footer*, fsync the file, atomically rename
//!   it over the destination, then fsync the parent directory. A process
//!   kill leaves the previous version intact; a host crash after return
//!   cannot lose the write.
//! * [`read_verified`]: read the file, locate the footer, and verify the
//!   payload checksum. A corrupt file is *quarantined* — renamed to
//!   `<name>.corrupt-<n>` — and reported as [`Error::Corrupt`], never
//!   silently discarded. Files without a footer (hand-edited, or produced
//!   by an older version) are accepted as *legacy unverified*.
//!
//! The footer is one final line of the file:
//!
//! ```text
//! #ccraft-store:v1:crc32=XXXXXXXX:len=NNN
//! ```
//!
//! where `XXXXXXXX` is the lowercase-hex CRC32 (IEEE, reflected) of the
//! first `NNN` bytes of the file — the payload exactly as the caller
//! passed it. A `\n` separator is inserted before the footer when the
//! payload does not already end in one; the separator, like the footer,
//! is *not* part of the checksummed payload. The `#`-prefixed line is an
//! ignorable comment to most line-oriented tools; JSON consumers strip it
//! with [`strip_footer`] (or by splitting on `\n#ccraft-store:`).
//!
//! Transient I/O errors (see [`crate::error::io_error_is_transient`])
//! get a bounded, deterministic retry schedule ([`RETRY_DELAYS_MS`]) —
//! fixed backoff, no jitter, so fault-injected runs replay identically.
//! All filesystem primitives route through the [`crate::chaos`] hooks,
//! which are free when no fault schedule is installed.

use crate::chaos::{self, WriteDirective};
use crate::error::Error;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Marker that begins a checksum footer line.
pub const FOOTER_MARK: &str = "#ccraft-store:v1:crc32=";

/// Retry backoff schedule for transient I/O errors, in milliseconds.
/// Fixed and jitter-free: attempt `i` sleeps `RETRY_DELAYS_MS[i]` before
/// retrying; after the schedule is exhausted the last error surfaces.
pub const RETRY_DELAYS_MS: [u64; 3] = [5, 20, 80];

/// Upper bound on quarantine suffix probing (`.corrupt-0` ...).
const MAX_QUARANTINE: u32 = 10_000;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — table-driven, no deps.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Footer encode / decode.

/// Renders the footer line (with trailing newline) for `payload`.
pub fn footer_for(payload: &[u8]) -> String {
    format!(
        "{FOOTER_MARK}{:08x}:len={}\n",
        crc32(payload),
        payload.len()
    )
}

/// Payload + separator (when needed) + footer: the on-disk byte image.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let footer = footer_for(payload);
    let mut out = Vec::with_capacity(payload.len() + footer.len() + 1);
    out.extend_from_slice(payload);
    if !payload.is_empty() && !payload.ends_with(b"\n") {
        out.push(b'\n');
    }
    out.extend_from_slice(footer.as_bytes());
    out
}

/// Locates a well-formed footer in `bytes`: returns
/// `(payload_len, stored_crc)`. The footer must start at the beginning of
/// a line and be the last thing in the file (a single trailing newline is
/// tolerated); anything else means "no footer".
fn parse_footer(bytes: &[u8]) -> Option<(usize, u32)> {
    let mark = FOOTER_MARK.as_bytes();
    if bytes.len() < mark.len() {
        return None;
    }
    // The footer is the final line: search backwards for the mark at a
    // line start.
    let mut i = bytes.len() - mark.len();
    let pos = loop {
        if bytes[i..].starts_with(mark) && (i == 0 || bytes[i - 1] == b'\n') {
            break i;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    };
    let line = std::str::from_utf8(&bytes[pos..]).ok()?;
    let rest = line.strip_prefix(FOOTER_MARK)?;
    let rest = rest.strip_suffix('\n').unwrap_or(rest);
    if rest.contains('\n') {
        return None; // content after the footer line: not a footer
    }
    let (crc_hex, len_part) = rest.split_once(':')?;
    let len: usize = len_part.strip_prefix("len=")?.parse().ok()?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || len > pos {
        return None;
    }
    Some((len, crc))
}

/// Removes a checksum footer (and its separator) from raw file bytes,
/// returning the original payload. Bytes without a footer pass through
/// unchanged. Does *not* verify the checksum — see [`read_verified`].
pub fn strip_footer(bytes: &[u8]) -> &[u8] {
    match parse_footer(bytes) {
        Some((len, _)) => &bytes[..len],
        None => bytes,
    }
}

// ---------------------------------------------------------------------
// Chaos-aware filesystem primitives with bounded deterministic retries.

fn sleep_backoff(attempt: usize) {
    if let Some(reg) = crate::metrics::current() {
        reg.store_retry();
    }
    let ms = RETRY_DELAYS_MS[attempt.min(RETRY_DELAYS_MS.len() - 1)];
    // lint: allow(wall-clock) reason=bounded deterministic retry backoff for transient I/O; fixed schedule, host-side only
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// Runs `op` with the transient-error retry schedule: permanent errors
/// surface immediately, transient ones are retried after fixed delays
/// until the schedule is exhausted.
fn with_retries<T>(mut op: impl FnMut() -> Result<T, Error>) -> Result<T, Error> {
    let mut attempt = 0usize;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < RETRY_DELAYS_MS.len() => {
                sleep_backoff(attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_once(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), Error> {
    let ctx = |what: &str, p: &Path| format!("{what} {}", p.display());
    let mut f = File::create(tmp).map_err(|e| Error::io(ctx("creating", tmp), e))?;
    match chaos::on_write(bytes.len()) {
        WriteDirective::Proceed => f
            .write_all(bytes)
            .map_err(|e| Error::io(ctx("writing", tmp), e))?,
        WriteDirective::Truncate(keep) => {
            // Torn write: only a prefix lands; report a transient
            // short-write so the retry rewrites the temp file in full.
            let _ = f.write_all(&bytes[..keep]);
            let _ = f.sync_all();
            return Err(Error::io(
                ctx("writing", tmp),
                std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("short write: {keep} of {} bytes", bytes.len()),
                ),
            ));
        }
        WriteDirective::FailTransient => {
            return Err(Error::io(
                ctx("writing", tmp),
                std::io::Error::new(std::io::ErrorKind::Interrupted, "injected transient EIO"),
            ));
        }
        WriteDirective::FailEnospc => {
            return Err(Error::io(
                ctx("writing", tmp),
                std::io::Error::other("no space left on device (injected)"),
            ));
        }
    }
    if let Some(e) = chaos::on_fsync() {
        return Err(Error::io(ctx("fsyncing", tmp), e));
    }
    f.sync_all()
        .map_err(|e| Error::io(ctx("fsyncing", tmp), e))?;
    drop(f);
    if let Some(e) = chaos::on_rename() {
        return Err(Error::io(ctx("renaming to", path), e));
    }
    fs::rename(tmp, path).map_err(|e| Error::io(ctx("renaming to", path), e))?;
    // Make the rename itself durable: fsync the parent directory.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    if let Some(e) = chaos::on_fsync() {
        return Err(Error::io(ctx("fsyncing dir", &dir), e));
    }
    let d = File::open(&dir).map_err(|e| Error::io(ctx("opening dir", &dir), e))?;
    d.sync_all()
        .map_err(|e| Error::io(ctx("fsyncing dir", &dir), e))?;
    Ok(())
}

/// Durably writes `payload` (plus checksum footer) to `path`:
/// temp file in the same directory → fsync → atomic rename → fsync of the
/// parent directory. Transient failures are retried on the fixed
/// schedule; the temp file never replaces the destination until it holds
/// the complete, fsynced image.
///
/// # Errors
///
/// Returns [`Error::Io`] when a permanent failure occurs or the retry
/// schedule is exhausted. The destination is untouched on error.
pub fn write_durable(path: &Path, payload: &[u8]) -> Result<(), Error> {
    let bytes = encode(payload);
    let tmp = tmp_path(path);
    let result = with_retries(|| write_once(path, &tmp, &bytes));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A successful verified read.
#[derive(Debug, Clone)]
pub struct Verified {
    /// The payload, with any checksum footer stripped.
    pub payload: Vec<u8>,
    /// `true` when a footer was present and the checksum matched;
    /// `false` for legacy footer-less files, accepted unverified.
    pub verified: bool,
}

impl Verified {
    /// The payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when the payload is not valid UTF-8.
    pub fn into_string(self, path: &Path) -> Result<String, Error> {
        String::from_utf8(self.payload)
            .map_err(|e| Error::corrupt(path.display().to_string(), format!("not UTF-8: {e}")))
    }
}

fn read_once(path: &Path) -> Result<Vec<u8>, Error> {
    let mut bytes =
        fs::read(path).map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
    chaos::on_read(&mut bytes).map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
    Ok(bytes)
}

/// One read's verification result: no footer at all, a verified payload,
/// or a checksum mismatch (stored, computed).
enum Check {
    NoFooter,
    Good(Vec<u8>),
    Mismatch(u32, u32),
}

fn check(bytes: &[u8]) -> Check {
    let Some((len, stored)) = parse_footer(bytes) else {
        return Check::NoFooter;
    };
    let computed = crc32(&bytes[..len]);
    if computed == stored {
        Check::Good(bytes[..len].to_vec())
    } else {
        Check::Mismatch(stored, computed)
    }
}

/// Reads `path` and verifies its checksum footer.
///
/// Footer-less files are returned unverified (legacy format). When the
/// first read does not verify — checksum mismatch, *or* a footer that no
/// longer parses (a read-side corruption can land in the footer itself) —
/// the file is read once more from disk: a transient in-memory corruption
/// (e.g. an injected bit flip) goes away on the second read, persistent
/// on-disk corruption does not. A file that is footer-less on both reads
/// is genuinely legacy; anything else that fails twice gets quarantined
/// to `<name>.corrupt-<n>` with an [`Error::Corrupt`] naming the
/// quarantine location.
///
/// # Errors
///
/// [`Error::Io`] when the file cannot be read (after transient retries);
/// [`Error::Corrupt`] when verification fails persistently.
pub fn read_verified(path: &Path) -> Result<Verified, Error> {
    let first = with_retries(|| read_once(path))?;
    let first_check = check(&first);
    if let Check::Good(payload) = first_check {
        return Ok(Verified {
            payload,
            verified: true,
        });
    }
    // One fresh re-read decides between in-memory corruption (gone now),
    // a legacy footer-less file (still footer-less), and on-disk damage.
    let second = with_retries(|| read_once(path)).ok();
    let second_check = second.as_deref().map(check);
    match &second_check {
        Some(Check::Good(payload)) => {
            return Ok(Verified {
                payload: payload.clone(),
                verified: true,
            })
        }
        // Legacy acceptance is deliberately strict: footer-less on BOTH
        // reads *and* byte-identical. A read-side flip that mangles the
        // footer region makes the reads differ, so corrupted bytes are
        // never handed back as "legacy".
        Some(Check::NoFooter)
            if matches!(first_check, Check::NoFooter)
                && second.as_deref() == Some(first.as_slice()) =>
        {
            return Ok(Verified {
                payload: first,
                verified: false,
            });
        }
        _ => {}
    }
    let detail = match first_check {
        Check::Mismatch(stored, computed) => {
            format!("crc32 mismatch (stored {stored:08x}, computed {computed:08x})")
        }
        _ => "checksum footer unparseable".to_string(),
    };
    let quarantined = quarantine(path)?;
    Err(Error::corrupt(
        path.display().to_string(),
        format!("{detail}; original preserved at {}", quarantined.display()),
    ))
}

/// Reads `path` as UTF-8 text with checksum verification (see
/// [`read_verified`]). Returns `(text, verified)`.
///
/// # Errors
///
/// As [`read_verified`], plus [`Error::Corrupt`] on invalid UTF-8.
pub fn read_verified_string(path: &Path) -> Result<(String, bool), Error> {
    let v = read_verified(path)?;
    let verified = v.verified;
    Ok((v.into_string(path)?, verified))
}

/// Moves `path` aside to the first free `<name>.corrupt-<n>` sibling and
/// returns the quarantine path. Used by [`read_verified`] on checksum
/// failure and by the cell cache on unparseable entries, so corrupt
/// artifacts are preserved for post-mortem instead of overwritten.
///
/// # Errors
///
/// Returns [`Error::Io`] when the rename fails or no free quarantine
/// name exists.
pub fn quarantine(path: &Path) -> Result<PathBuf, Error> {
    let name = path.file_name().unwrap_or_default().to_os_string();
    for n in 0..MAX_QUARANTINE {
        let mut qname = name.clone();
        qname.push(format!(".corrupt-{n}"));
        let candidate = path.with_file_name(qname);
        if candidate.exists() {
            continue;
        }
        fs::rename(path, &candidate).map_err(|e| {
            Error::io(
                format!("quarantining {} to {}", path.display(), candidate.display()),
                e,
            )
        })?;
        return Ok(candidate);
    }
    Err(Error::io(
        format!("quarantining {}", path.display()),
        std::io::Error::other("no free .corrupt-<n> slot"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccraft-store-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn footer_round_trip_text_with_and_without_newline() {
        for payload in [&b"hello\nworld\n"[..], b"no trailing newline", b""] {
            let encoded = encode(payload);
            assert_eq!(strip_footer(&encoded), payload);
            let (len, crc) = parse_footer(&encoded).expect("footer present");
            assert_eq!(len, payload.len());
            assert_eq!(crc, crc32(payload));
        }
    }

    #[test]
    fn footerless_bytes_pass_through() {
        assert_eq!(strip_footer(b"plain,csv\n1,2\n"), b"plain,csv\n1,2\n");
        assert_eq!(strip_footer(b""), b"");
        // A mark mid-line is not a footer.
        let tricky = b"data #ccraft-store:v1:crc32=00000000:len=0 more";
        assert_eq!(strip_footer(tricky), &tricky[..]);
    }

    #[test]
    fn write_then_read_verifies() {
        let _guard = crate::chaos::test_guard();
        crate::chaos::clear();
        let path = tmpdir("roundtrip").join("t.csv");
        write_durable(&path, b"a,b\n1,2\n").unwrap();
        let v = read_verified(&path).unwrap();
        assert!(v.verified);
        assert_eq!(v.payload, b"a,b\n1,2\n");
        // On-disk bytes carry exactly one footer line.
        let raw = fs::read(&path).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&raw).matches(FOOTER_MARK).count(),
            1
        );
        // No temp file left behind.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn legacy_file_reads_unverified() {
        let _guard = crate::chaos::test_guard();
        crate::chaos::clear();
        let path = tmpdir("legacy").join("old.json");
        fs::write(&path, b"{\"x\":1}").unwrap();
        let v = read_verified(&path).unwrap();
        assert!(!v.verified);
        assert_eq!(v.payload, b"{\"x\":1}");
    }

    #[test]
    fn corrupt_file_is_quarantined_not_dropped() {
        let _guard = crate::chaos::test_guard();
        crate::chaos::clear();
        let dir = tmpdir("corrupt");
        let path = dir.join("c.json");
        let _ = fs::remove_file(dir.join("c.json.corrupt-0"));
        write_durable(&path, b"{\"x\":1}\n").unwrap();
        // Flip a payload byte on disk.
        let mut raw = fs::read(&path).unwrap();
        raw[2] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        let err = read_verified(&path).unwrap_err();
        match &err {
            Error::Corrupt { detail, .. } => {
                assert!(detail.contains("corrupt-0"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert!(dir.join("c.json.corrupt-0").exists());
        // A second corruption quarantines to the next free slot.
        write_durable(&path, b"{\"x\":2}\n").unwrap();
        let mut raw = fs::read(&path).unwrap();
        raw[2] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        let _ = read_verified(&path).unwrap_err();
        assert!(dir.join("c.json.corrupt-1").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn transient_read_flip_survives_via_reread() {
        let _guard = crate::chaos::test_guard();
        let dir = tmpdir("flip");
        let path = dir.join("f.json");
        crate::chaos::clear();
        write_durable(&path, b"{\"stable\":true}\n").unwrap();
        // flip=0.5: some reads corrupt in memory; every one must either
        // verify via the re-read or quarantine — but the file on disk is
        // good, so quarantine would be a bug in the re-read defence only
        // if *both* reads flip. With p=0.5 over 20 rounds some reads flip;
        // we assert no round both-flips into a *matching* wrong CRC (the
        // checksum catches every flip) and that most rounds succeed.
        crate::chaos::install(ChaosConfig::parse("seed=11,flip=0.5").unwrap());
        let mut ok = 0;
        let mut quarantined = 0;
        for _ in 0..20 {
            match read_verified(&path) {
                Ok(v) => {
                    assert!(v.verified);
                    assert_eq!(v.payload, b"{\"stable\":true}\n");
                    ok += 1;
                }
                Err(Error::Corrupt { .. }) => {
                    // Both reads flipped (p = flip²) — allowed to
                    // quarantine, never to return bad data. Put the good
                    // file back for the next round; a flip-only schedule
                    // never touches the write hooks (and re-installing
                    // would reset the op counter and replay the same
                    // flips forever).
                    quarantined += 1;
                    write_durable(&path, b"{\"stable\":true}\n").unwrap();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        crate::chaos::clear();
        assert_eq!(ok + quarantined, 20);
        // flip=0.5 → a round quarantines only when both reads flip
        // (p = 0.25), so the single-flip re-read defence must carry a
        // clear majority of rounds.
        assert!(ok >= 10, "re-read defence should save most flips: ok={ok}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn transient_write_errors_are_retried() {
        let _guard = crate::chaos::test_guard();
        let dir = tmpdir("retry");
        let path = dir.join("r.csv");
        // eio=0.4: isolated transient failures; the 3-retry schedule
        // makes 4 consecutive failures (p≈2.6%) unlikely per write, so
        // at least one of the writes below must land.
        crate::chaos::install(ChaosConfig::parse("seed=2,eio=0.4").unwrap());
        let mut landed = 0;
        for i in 0..5 {
            if write_durable(&path, format!("row-{i}\n").as_bytes()).is_ok() {
                landed += 1;
            }
        }
        crate::chaos::clear();
        assert!(landed >= 1, "retries should absorb isolated transient EIO");
        let v = read_verified(&path).unwrap();
        assert!(v.verified);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_writes_never_corrupt_the_destination() {
        let _guard = crate::chaos::test_guard();
        let dir = tmpdir("torn");
        let path = dir.join("t.json");
        crate::chaos::clear();
        write_durable(&path, b"{\"generation\":0}\n").unwrap();
        crate::chaos::install(ChaosConfig::parse("seed=4,torn=0.6").unwrap());
        for g in 1..10 {
            let _ = write_durable(&path, format!("{{\"generation\":{g}}}\n").as_bytes());
            // Whatever happened, the destination must verify.
            crate::chaos::clear();
            let v = read_verified(&path).unwrap();
            assert!(v.verified, "destination must never hold a torn image");
            crate::chaos::install(ChaosConfig::parse("seed=4,torn=0.6").unwrap());
        }
        crate::chaos::clear();
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn enospc_is_permanent_and_destination_survives() {
        let _guard = crate::chaos::test_guard();
        let dir = tmpdir("enospc");
        let path = dir.join("e.json");
        crate::chaos::clear();
        write_durable(&path, b"{\"v\":1}\n").unwrap();
        crate::chaos::install(ChaosConfig::parse("seed=1,enospc=1").unwrap());
        let err = write_durable(&path, b"{\"v\":2}\n").unwrap_err();
        assert!(!err.is_transient(), "ENOSPC must not be retried");
        crate::chaos::clear();
        let v = read_verified(&path).unwrap();
        assert_eq!(v.payload, b"{\"v\":1}\n");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn verified_into_string_rejects_bad_utf8() {
        let v = Verified {
            payload: vec![0xFF, 0xFE],
            verified: true,
        };
        assert!(matches!(
            v.into_string(Path::new("x")),
            Err(Error::Corrupt { .. })
        ));
    }
}
