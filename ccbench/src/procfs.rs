//! Process accounting read from `/proc/<pid>/{stat,io,status}`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
pub const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Process state letter (`R`, `S`, `Z`, ...).
    pub state: char,
    /// User-mode CPU time, in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU time, in clock ticks.
    pub stime: u64,
}

impl Stat {
    /// User CPU seconds.
    pub fn user_s(&self) -> f64 {
        self.utime as f64 / TICKS_PER_S
    }

    /// System CPU seconds.
    pub fn sys_s(&self) -> f64 {
        self.stime as f64 / TICKS_PER_S
    }
}

/// Write accounting from `/proc/<pid>/io`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Io {
    /// Bytes passed to write-family system calls.
    pub wchar: u64,
    /// Write-family system calls.
    pub syscw: u64,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may hold spaces
/// and parentheses, so fields are counted from the last `)`.
///
/// # Errors
///
/// Describes the first missing or malformed field.
pub fn parse_stat(text: &str) -> Result<Stat, String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat: no command-name terminator")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let state = fields
        .first()
        .and_then(|s| s.chars().next())
        .ok_or("stat: no state field")?;
    let tick = |i: usize, name: &str| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("stat: bad {name} field"))
    };
    Ok(Stat {
        state,
        utime: tick(11, "utime")?,
        stime: tick(12, "stime")?,
    })
}

/// Parses `/proc/<pid>/io`.
///
/// # Errors
///
/// Names a missing or malformed `wchar`/`syscw` line.
pub fn parse_io(text: &str) -> Result<Io, String> {
    let field = |name: &str| -> Result<u64, String> {
        text.lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim() == name)
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| format!("io: missing or bad {name}"))
    };
    Ok(Io {
        wchar: field("wchar")?,
        syscw: field("syscw")?,
    })
}

/// Parses the peak resident set size (`VmHWM`, in kB) from
/// `/proc/<pid>/status`.
///
/// # Errors
///
/// When the line is absent (as for a process that has exited) or
/// malformed.
pub fn parse_vm_hwm_kb(text: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "status: missing or bad VmHWM".to_string())
}

fn read(pid: &str, file: &str) -> Result<String, String> {
    let path = format!("/proc/{pid}/{file}");
    fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
}

/// Reads and parses `/proc/<pid>/stat` (`pid` may be `"self"`).
///
/// # Errors
///
/// On read or parse failure.
pub fn stat(pid: &str) -> Result<Stat, String> {
    parse_stat(&read(pid, "stat")?)
}

/// Reads and parses `/proc/<pid>/io`.
///
/// # Errors
///
/// On read or parse failure.
pub fn io(pid: &str) -> Result<Io, String> {
    parse_io(&read(pid, "io")?)
}

/// Reads the peak resident set size of `pid` in MB.
///
/// # Errors
///
/// On read or parse failure.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    Ok(parse_vm_hwm_kb(&read(pid, "status")?)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (exp all) (x)) S 1 4242 4242 0 -1 4194304 85 0 0 0 \
        1234 56 7 8 20 0 3 0 269426 2703360 306 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1";

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(s.state, 'S');
        assert_eq!(s.utime, 1234);
        assert_eq!(s.stime, 56);
        assert!((s.user_s() - 12.34).abs() < 1e-9);
        assert!((s.sys_s() - 0.56).abs() < 1e-9);
        let zombie = STAT.replace(") S ", ") Z ");
        assert_eq!(parse_stat(&zombie).unwrap().state, 'Z');
        assert!(parse_stat("4242 (x) S 1 2").is_err());
        assert!(parse_stat("no paren").is_err());
    }

    #[test]
    fn io_reads_write_accounting() {
        let text = "rchar: 3980\nwchar: 314572800\nsyscr: 9\nsyscw: 867\n\
                    read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(
            parse_io(text).unwrap(),
            Io {
                wchar: 314_572_800,
                syscw: 867
            }
        );
        assert!(parse_io("rchar: 1\n").is_err());
        assert!(parse_io("wchar: x\nsyscw: 1\n").is_err());
    }

    #[test]
    fn status_reads_the_high_water_mark() {
        let text = "Name:\tccbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1688 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_kb(text).unwrap(), 1688);
        // A zombie's status has no memory lines.
        assert!(parse_vm_hwm_kb("Name:\tx\nState:\tZ (zombie)\n").is_err());
    }
}
