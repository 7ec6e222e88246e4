//! End-to-end fault-injection and crash-resilience acceptance.
//!
//! Covers this PR's criteria at the facade level:
//! * in-situ injection is observational — rate 0 (and injection disabled)
//!   leaves `SimStats` bit-identical, and any rate leaves timing and
//!   traffic untouched;
//! * injected faults flow through each scheme's real stored codec:
//!   CacheCraft's RS(36,32) corrects whole-symbol (chip) errors that
//!   SEC-DED baselines can only detect or miss;
//! * a panicking matrix cell is reported as a failed cell while the rest
//!   of the matrix completes;
//! * an interrupted run resumes through its cell cache with only
//!   unfinished cells executing.

use cachecraft::harness::cellcache::CellKey;
use cachecraft::harness::checkpoint::{self, Run};
use cachecraft::harness::runner::{run_matrix, CacheDisposition, ExpOptions};
use cachecraft::schemes::cachecraft::CacheCraftConfig;
use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::faults::FaultConfig;
use cachecraft::sim::trace::KernelTrace;
use cachecraft::sim::{simulate, Observe, SimOutput};
use cachecraft::workloads::{SizeClass, Workload};

/// Runs `kind` on `trace` with in-situ injection under `fc`.
fn injected(cfg: &GpuConfig, kind: SchemeKind, trace: &KernelTrace, fc: FaultConfig) -> SimOutput {
    let obs = Observe {
        faults: Some(fc),
        ..Observe::default()
    };
    simulate(cfg, trace, kind.build(cfg).as_mut(), &obs)
}

#[test]
fn rate_zero_injection_is_bit_identical() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let kind = SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg));
    let plain = run_scheme(&cfg, kind, &trace);
    let fc = FaultConfig::parse("symbol:0").expect("valid spec");
    let zero = injected(&cfg, kind, &trace, fc);
    let mut stats = zero.stats.clone();
    let faults = stats.faults.take().expect("fault stats attached");
    assert_eq!(faults.injected, 0, "rate 0 must inject nothing");
    assert_eq!(stats, plain, "rate-0 injection must not perturb the run");
}

#[test]
fn injection_never_perturbs_timing() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Transpose.generate(SizeClass::Tiny, 2);
    let kind = SchemeKind::InlineNaive { coverage: 8 };
    let plain = run_scheme(&cfg, kind, &trace);
    let fc = FaultConfig::parse("bit2:1.0").expect("valid spec");
    let hot = injected(&cfg, kind, &trace, fc);
    let mut stats = hot.stats.clone();
    let faults = stats.faults.take().expect("fault stats attached");
    assert!(faults.injected > 0, "p=1.0 must inject");
    assert_eq!(
        stats, plain,
        "injection is observational: timing and traffic unchanged"
    );
}

#[test]
fn cachecraft_corrects_symbol_faults_baselines_cannot() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let fc = FaultConfig::parse("symbol:1.0")
        .expect("valid spec")
        .with_seed(7);
    let run = |kind| {
        injected(&cfg, kind, &trace, fc)
            .stats
            .faults
            .expect("fault stats attached")
    };
    let craft = run(SchemeKind::CacheCraft(CacheCraftConfig::for_machine(&cfg)));
    assert!(craft.injected > 0);
    assert_eq!(craft.sdc, 0, "RS(36,32) corrects every single-symbol fault");
    assert_eq!(craft.corrected + craft.benign, craft.injected);
    let naive = run(SchemeKind::InlineNaive { coverage: 8 });
    assert!(
        naive.due + naive.sdc > 0,
        "SEC-DED cannot correct whole-symbol faults: {naive:?}"
    );
}

/// Serializes tests that run matrices: the run consulted by `run_matrix`
/// is process-global.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn matrix_results_come_back_in_deterministic_order() {
    let _guard = guard();
    let cfg = GpuConfig::tiny();
    let opts = ExpOptions {
        size: SizeClass::Tiny,
        threads: 2,
        ..ExpOptions::default()
    };
    let results = run_matrix(
        &cfg,
        &[Workload::VecAdd, Workload::Saxpy],
        &[
            SchemeKind::NoProtection,
            SchemeKind::InlineNaive { coverage: 8 },
        ],
        &opts,
    );
    assert_eq!(results.len(), 4);
    let names: Vec<_> = results
        .iter()
        .map(|r| format!("{}/{}", r.workload.name(), r.scheme.name()))
        .collect();
    assert_eq!(
        names,
        [
            "vecadd/no-protection",
            "vecadd/inline-naive",
            "saxpy/no-protection",
            "saxpy/inline-naive",
        ]
    );
}

#[test]
fn checkpoint_round_trips_across_sessions() {
    let _guard = guard();
    let dir = std::env::temp_dir().join(format!("ccraft-facade-resume-{}", std::process::id()));
    let cells = dir.join("cells");
    let cfg = GpuConfig::tiny();
    let opts = ExpOptions {
        size: SizeClass::Tiny,
        threads: 1,
        ..ExpOptions::default()
    };
    let workloads = [Workload::VecAdd];
    let schemes = [
        SchemeKind::NoProtection,
        SchemeKind::InlineNaive { coverage: 8 },
    ];

    // Run 1 simulates and caches both cells.
    let run = Run::open(&cells, false).unwrap();
    let first = checkpoint::scoped(&run, || run_matrix(&cfg, &workloads, &schemes, &opts));
    assert_eq!(first.len(), 2);
    assert_eq!(run.cache().expect("cache opens").len(), 2);

    // Simulate an interruption: drop the second cell's entry, as if the
    // process died before completing it.
    let dropped = CellKey::for_cell(&cfg, &opts, 1, workloads[0], schemes[1]);
    std::fs::remove_file(cells.join(format!("{}.json", dropped.digest()))).unwrap();

    // Run 2 resumes: the surviving cell hits, the dropped one re-runs,
    // and results are bit-identical to the uninterrupted run.
    let resumed = Run::open(&cells, true).unwrap();
    let second = checkpoint::scoped(&resumed, || {
        cachecraft::harness::run_matrix_cells(&cfg, &workloads, &schemes, &opts)
    });
    assert_eq!(second.len(), 2);
    assert_eq!(second[0].cache, CacheDisposition::Hit);
    assert_eq!(second[1].cache, CacheDisposition::Miss);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(Some(&a.stats), b.stats.as_ref(), "resume is bit-identical");
    }
    // The ledger is written once, with a checksum footer, and records
    // both executed cells.
    let path = dir.join("checkpoint.json");
    resumed.write_ledger(&path, "facade").unwrap();
    let (text, verified) = cachecraft::harness::store::read_verified_string(&path).unwrap();
    assert!(verified, "the ledger must carry a valid checksum footer");
    let cp: checkpoint::Checkpoint = serde_json::from_str(&text).unwrap();
    assert_eq!(cp.cells.len(), 2);
    assert!(cp.cells.iter().all(|c| c.is_ok()));
    let _ = std::fs::remove_dir_all(&dir);
}
