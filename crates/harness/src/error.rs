//! Typed errors for the experiment harness.
//!
//! The harness distinguishes several failure classes: bad user input
//! ([`Error::Config`]), filesystem trouble ([`Error::Io`]), a persisted
//! artifact whose checksum no longer matches ([`Error::Corrupt`]), a
//! simulation cell that panicked ([`Error::WorkerPanic`]), and a report
//! missing a cell ([`Error::MissingCell`]). Binaries convert these to
//! exit status + stderr; the runner turns a panicking cell into its
//! per-cell outcome instead of aborting the whole matrix.

use std::fmt;

/// A harness-level failure.
#[derive(Debug)]
pub enum Error {
    /// Malformed or contradictory user-supplied configuration (CLI flags,
    /// environment, spec strings).
    Config(String),
    /// An I/O operation failed; `context` names what was being done.
    Io {
        /// Human-readable description of the operation.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A simulation cell panicked.
    WorkerPanic {
        /// The cell's [`cell_label`](crate::runner::cell_label).
        cell: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An experiment's report needed a matrix cell that is absent from
    /// the results (its simulation failed, or was never scheduled).
    MissingCell {
        /// The missing cell's [`cell_label`](crate::runner::cell_label).
        cell: String,
    },
    /// A persisted artifact failed checksum verification and was moved
    /// aside (quarantined) rather than silently discarded.
    Corrupt {
        /// The artifact that failed verification.
        path: String,
        /// What exactly did not check out, and where the original was
        /// preserved.
        detail: String,
    },
}

impl Error {
    /// Convenience constructor for [`Error::Io`].
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for [`Error::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        Error::Config(msg.into())
    }

    /// Convenience constructor for [`Error::Corrupt`].
    pub fn corrupt(path: impl Into<String>, detail: impl Into<String>) -> Self {
        Error::Corrupt {
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "{msg}"),
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::WorkerPanic { cell, message } => {
                write!(f, "cell {cell} panicked: {message}")
            }
            Error::MissingCell { cell } => {
                write!(f, "cell {cell} missing from matrix results")
            }
            Error::Corrupt { path, detail } => {
                write!(f, "{path} failed verification: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_salient_fields() {
        let e = Error::config("--seed expects an integer");
        assert!(e.to_string().contains("--seed"));
        let e = Error::io(
            "writing results/x.csv",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        let s = e.to_string();
        assert!(s.contains("results/x.csv") && s.contains("denied"), "{s}");
        let e = Error::WorkerPanic {
            cell: "spmv/cachecraft".into(),
            message: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("spmv/cachecraft") && s.contains("index out of bounds"));
    }

    #[test]
    fn corrupt_display_names_path_and_detail() {
        let e = Error::corrupt("results/checkpoint.json", "crc 1 != 2");
        let s = e.to_string();
        assert!(
            s.contains("checkpoint.json") && s.contains("crc 1 != 2"),
            "{s}"
        );
    }

    #[test]
    fn io_errors_expose_their_source() {
        use std::error::Error as _;
        let e = Error::io(
            "open",
            std::io::Error::new(std::io::ErrorKind::NotFound, "x"),
        );
        assert!(e.source().is_some());
        assert!(Error::config("bad").source().is_none());
    }
}
