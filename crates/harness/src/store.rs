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
//!   silently discarded. A file without a footer (hand-edited, or
//!   produced by an older version) is returned with `verified: false`;
//!   each caller decides whether unverified bytes are acceptable.
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

use crate::error::Error;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Marker that begins a checksum footer line.
pub const FOOTER_MARK: &str = "#ccraft-store:v1:crc32=";

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
// Durable write.

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_via_tmp(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), Error> {
    let ctx = |what: &str, p: &Path| format!("{what} {}", p.display());
    let mut f = File::create(tmp).map_err(|e| Error::io(ctx("creating", tmp), e))?;
    f.write_all(bytes)
        .map_err(|e| Error::io(ctx("writing", tmp), e))?;
    f.sync_all()
        .map_err(|e| Error::io(ctx("fsyncing", tmp), e))?;
    drop(f);
    fs::rename(tmp, path).map_err(|e| Error::io(ctx("renaming to", path), e))?;
    // Make the rename itself durable: fsync the parent directory.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let d = File::open(&dir).map_err(|e| Error::io(ctx("opening dir", &dir), e))?;
    d.sync_all()
        .map_err(|e| Error::io(ctx("fsyncing dir", &dir), e))?;
    Ok(())
}

/// Durably writes `payload` (plus checksum footer) to `path`:
/// temp file in the same directory → fsync → atomic rename → fsync of the
/// parent directory. The temp file never replaces the destination until
/// it holds the complete, fsynced image.
///
/// # Errors
///
/// Returns [`Error::Io`] when any step fails. A failure before the
/// rename leaves the destination untouched; only the directory fsync
/// comes after it.
pub fn write_durable(path: &Path, payload: &[u8]) -> Result<(), Error> {
    let bytes = encode(payload);
    let tmp = tmp_path(path);
    let result = write_via_tmp(path, &tmp, &bytes);
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
    /// `false` for a footer-less file, returned as read.
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

/// Reads `path` and verifies its checksum footer, in one read.
///
/// A footer that verifies yields the payload with `verified: true`; a
/// file with no footer comes back whole with `verified: false`. A
/// checksum mismatch is on-disk damage: the file is quarantined to
/// `<name>.corrupt-<n>` and the caller gets an [`Error::Corrupt`] naming
/// the quarantine location.
///
/// # Errors
///
/// [`Error::Io`] when the file cannot be read; [`Error::Corrupt`] when
/// the checksum does not match.
pub fn read_verified(path: &Path) -> Result<Verified, Error> {
    let mut bytes =
        fs::read(path).map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
    let Some((len, stored)) = parse_footer(&bytes) else {
        return Ok(Verified {
            payload: bytes,
            verified: false,
        });
    };
    let computed = crc32(&bytes[..len]);
    if computed == stored {
        bytes.truncate(len);
        return Ok(Verified {
            payload: bytes,
            verified: true,
        });
    }
    let quarantined = quarantine(path)?;
    Err(Error::corrupt(
        path.display().to_string(),
        format!(
            "crc32 mismatch (stored {stored:08x}, computed {computed:08x}); \
             original preserved at {}",
            quarantined.display()
        ),
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
        let path = tmpdir("legacy").join("old.json");
        fs::write(&path, b"{\"x\":1}").unwrap();
        let v = read_verified(&path).unwrap();
        assert!(!v.verified);
        assert_eq!(v.payload, b"{\"x\":1}");
    }

    #[test]
    fn corrupt_file_is_quarantined_not_dropped() {
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
    fn failed_write_leaves_the_destination_intact() {
        let dir = tmpdir("failed-write");
        let path = dir.join("e.json");
        write_durable(&path, b"{\"v\":1}\n").unwrap();
        // A directory squatting on the temp path makes `File::create` fail.
        fs::create_dir_all(tmp_path(&path)).unwrap();
        let err = write_durable(&path, b"{\"v\":2}\n").unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err:?}");
        let v = read_verified(&path).unwrap();
        assert!(v.verified);
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
