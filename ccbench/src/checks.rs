//! Output checks. Each returns `Err` with a one-line reason when the
//! program's output is wrong.

use ccraft_serve::JobView;
use ccraft_sim::{SimStats, TrafficClass};
use serde::Serialize;
use std::path::Path;

/// Two runs of the same cell must produce bit-identical statistics.
///
/// # Errors
///
/// Names the first top-level field that differs.
pub fn same_stats(what: &str, a: &SimStats, b: &SimStats) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let (va, vb) = (a.to_value(), b.to_value());
    let field = match (&va, &vb) {
        (serde::Value::Object(fa), serde::Value::Object(_)) => fa
            .iter()
            .find(|(k, v)| vb.get(k) != Some(v))
            .map_or("?", |(k, _)| k.as_str()),
        _ => "?",
    };
    Err(format!(
        "{what}: {}/{} stats differ (first in `{field}`)",
        a.kernel, a.scheme
    ))
}

/// A finished cell: it completed, and with ECC off it moved no ECC
/// traffic.
///
/// # Errors
///
/// On a timed-out cell or ECC traffic under `no-protection`.
pub fn cell_ok(stats: &SimStats) -> Result<(), String> {
    let cell = format!("{}/{}", stats.kernel, stats.scheme);
    if stats.timed_out {
        return Err(format!("{cell} timed out"));
    }
    let ecc = stats.dram_count(TrafficClass::EccRead) + stats.dram_count(TrafficClass::EccWrite);
    if stats.scheme == "no-protection" && ecc != 0 {
        return Err(format!("{cell} moved {ecc} ECC atoms with ECC off"));
    }
    Ok(())
}

/// Reads a file written through the durable store and insists that its
/// checksum footer is present and verifies.
///
/// # Errors
///
/// On a read failure, a checksum mismatch or a missing footer.
pub fn verified_file(path: &Path) -> Result<Vec<u8>, String> {
    match ccraft_harness::store::read_verified(path) {
        Ok(v) if v.verified => Ok(v.payload),
        Ok(_) => Err(format!("{}: no checksum footer", path.display())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// What a finished job must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobExpect {
    /// Cells in the sweep.
    pub cells: u64,
    /// Cells served from the cache.
    pub hits: u64,
    /// Cells simulated.
    pub simulated: u64,
}

/// A job finished and served exactly the expected hits and simulations.
///
/// # Errors
///
/// On any status or count mismatch.
pub fn job_ok(view: &JobView, want: JobExpect) -> Result<(), String> {
    let got = JobExpect {
        cells: view.cells,
        hits: view.hits,
        simulated: view.simulated,
    };
    if view.status != "done" {
        return Err(format!(
            "job {} ended {}: {}",
            view.id, view.status, view.error
        ));
    }
    if got != want || view.misses != want.cells - want.hits {
        return Err(format!(
            "job {}: cells={} hits={} misses={} simulated={}, expected cells={} hits={} simulated={}",
            view.id,
            view.cells,
            view.hits,
            view.misses,
            view.simulated,
            want.cells,
            want.hits,
            want.simulated
        ));
    }
    Ok(())
}

/// The data rows of a job CSV: the header is dropped, and so is the last
/// column, which says whether the row came from the cache.
pub fn csv_data(csv: &str) -> Vec<&str> {
    csv.lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| l.rsplit_once(',').map_or(l, |(data, _)| data))
        .collect()
}

/// Data rows that must be byte-identical to a reference job's, except
/// the rows of the cells in `changed` (`workload,scheme`), which may
/// differ.
///
/// # Errors
///
/// Names the first differing row, or a row-count mismatch.
pub fn same_csv_data(reference: &str, got: &str, changed: &[String]) -> Result<(), String> {
    let (a, b) = (csv_data(reference), csv_data(got));
    if a.len() != b.len() {
        return Err(format!(
            "csv has {} data rows, expected {}",
            b.len(),
            a.len()
        ));
    }
    for (ra, rb) in a.iter().zip(&b) {
        let overridden = changed.iter().any(|c| ra.starts_with(&format!("{c},")));
        if ra != rb && !overridden {
            return Err(format!("csv row `{rb}` does not match `{ra}`"));
        }
    }
    Ok(())
}

/// One parsed data row of a job CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvCell {
    /// Workload name.
    pub workload: String,
    /// Scheme name.
    pub scheme: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles until the last warp retired.
    pub exec_cycles: u64,
}

/// Parses the leading `workload,scheme,cycles,exec_cycles` columns of a
/// job CSV.
///
/// # Errors
///
/// On an unexpected header or a malformed row.
pub fn csv_cells(csv: &str) -> Result<Vec<CsvCell>, String> {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or_default();
    if !header.starts_with("workload,scheme,cycles,exec_cycles,") {
        return Err(format!("unexpected job csv header `{header}`"));
    }
    lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            let n = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok());
            match (f.first(), f.get(1), n(2), n(3)) {
                (Some(w), Some(s), Some(cycles), Some(exec_cycles)) => Ok(CsvCell {
                    workload: (*w).to_string(),
                    scheme: (*s).to_string(),
                    cycles,
                    exec_cycles,
                }),
                _ => Err(format!("malformed job csv row `{l}`")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_core::factory::{run_scheme, SchemeKind};
    use ccraft_sim::config::GpuConfig;
    use ccraft_workloads::{SizeClass, Workload};

    fn cell(scheme: SchemeKind) -> SimStats {
        let trace = Workload::Saxpy.generate(SizeClass::Tiny, 1);
        run_scheme(&GpuConfig::gddr6(), scheme, &trace)
    }

    #[test]
    fn one_changed_stats_field_is_caught() {
        let a = cell(SchemeKind::NoProtection);
        assert!(same_stats("replay", &a, &a.clone()).is_ok());
        let mut b = a.clone();
        b.l2_fills += 1;
        let err = same_stats("replay", &a, &b).unwrap_err();
        assert!(err.contains("`l2_fills`"), "{err}");
        let mut c = a.clone();
        c.protection.fragment_store_hits += 1;
        assert!(same_stats("replay", &a, &c)
            .unwrap_err()
            .contains("`protection`"));
    }

    #[test]
    fn ecc_traffic_with_ecc_off_or_a_timeout_is_caught() {
        let off = cell(SchemeKind::NoProtection);
        assert!(cell_ok(&off).is_ok());
        let mut bad = off.clone();
        bad.dram[TrafficClass::EccRead.index()] = 3;
        assert!(cell_ok(&bad).is_err());
        let mut late = off;
        late.timed_out = true;
        assert!(cell_ok(&late).is_err());
        let naive = cell(SchemeKind::InlineNaive { coverage: 8 });
        assert!(naive.dram_count(TrafficClass::EccRead) > 0);
        assert!(cell_ok(&naive).is_ok());
    }

    #[test]
    fn a_broken_csv_footer_is_caught() {
        let dir = crate::scratch_dir("test-checks").unwrap();
        let path = dir.join("t.csv");
        ccraft_harness::store::write_durable(&path, b"a,b\n1,2\n").unwrap();
        assert_eq!(verified_file(&path).unwrap(), b"a,b\n1,2\n");
        // A footer that no longer parses reads back as footer-less.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("crc32=", "crc3=")).unwrap();
        assert!(verified_file(&path)
            .unwrap_err()
            .contains("no checksum footer"));
        // A payload that no longer matches its checksum is quarantined.
        std::fs::write(&path, text.replace("1,2", "1,3")).unwrap();
        assert!(verified_file(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn view(hits: u64, simulated: u64) -> JobView {
        JobView {
            id: "job-2".to_string(),
            status: "done".to_string(),
            error: String::new(),
            cells: 52,
            hits,
            misses: 52 - hits,
            simulated,
            events: 0,
        }
    }

    #[test]
    fn a_warm_job_that_simulated_is_caught() {
        let warm = JobExpect {
            cells: 52,
            hits: 52,
            simulated: 0,
        };
        assert!(job_ok(&view(52, 0), warm).is_ok());
        assert!(job_ok(&view(52, 1), warm).is_err());
        assert!(job_ok(&view(51, 1), warm).is_err());
        let mut failed = view(52, 0);
        failed.status = "failed".to_string();
        assert!(job_ok(&failed, warm).is_err());
    }

    #[test]
    fn csv_data_ignores_only_the_cache_column_and_overridden_rows() {
        let cold = "workload,scheme,cycles,exec_cycles,cache\nvecadd,off,10,9,miss\nvecadd,cc,12,11,miss\n";
        let warm = cold.replace("miss", "hit");
        assert!(same_csv_data(cold, &warm, &[]).is_ok());
        let drift = warm.replace("12,11", "12,10");
        assert!(same_csv_data(cold, &drift, &[]).is_err());
        assert!(same_csv_data(cold, &drift, &["vecadd,cc".to_string()]).is_ok());
        assert!(same_csv_data(cold, &drift, &["vecadd,off".to_string()]).is_err());
        assert!(same_csv_data(cold, "workload\nvecadd,off,10,9,hit\n", &[]).is_err());
        let cells = csv_cells(cold).unwrap();
        assert_eq!(cells[1].exec_cycles, 11);
        assert!(csv_cells("x,y\n").is_err());
    }
}
