//! Fixture tests for every lint rule: known-bad snippets must fire,
//! allow-listed ones must be waived (and counted), clean ones must pass.

use xtask::lexer::lex;
use xtask::rules::{lint_file, scope_for, FileReport, LintContext};

/// Lints a fixture as if it lived at `rel` inside the workspace.
fn run(rel: &str, src: &str) -> FileReport {
    let ctx = LintContext {
        float_stats_fields: vec!["mean_read_latency".into()],
    };
    lint_file(rel, &lex(src), scope_for(rel), &ctx)
}

fn lines_of(report: &FileReport, rule: &str) -> Vec<usize> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn hash_state_fires() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/hash_fires.rs"),
    );
    assert_eq!(lines_of(&r, "default-hash-state"), vec![2, 3, 6, 10, 12]);
    assert!(r.waived.is_empty());
    assert!(r.directive_errors.is_empty());
}

#[test]
fn hash_state_allow_listed() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/hash_allowed.rs"),
    );
    assert!(r.violations.is_empty(), "waived: {:?}", r.violations);
    assert_eq!(r.waived.len(), 2);
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
    assert!(r.waived.iter().all(|w| w.rule == "default-hash-state"));
    assert!(r.waived.iter().all(|w| !w.reason.is_empty()));
}

#[test]
fn hash_state_clean() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/hash_clean.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.waived.is_empty());
    assert!(r.directive_errors.is_empty());
}

#[test]
fn hash_state_in_scope_in_harness_and_serve() {
    // Host-side code replays cached results under checksum comparison,
    // so the hasher ban extends to harness and serve.
    for rel in [
        "crates/harness/src/fixture.rs",
        "crates/serve/src/fixture.rs",
    ] {
        let r = run(rel, include_str!("fixtures/hash_fires.rs"));
        assert!(!lines_of(&r, "default-hash-state").is_empty(), "{rel}");
    }
}

#[test]
fn hash_state_out_of_scope_in_xtask() {
    // The same bad source under an unscanned path is out of scope.
    let r = run(
        "crates/xtask/src/fixture.rs",
        include_str!("fixtures/hash_fires.rs"),
    );
    assert!(r.violations.is_empty());
}

#[test]
fn wall_clock_fires() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/wallclock_fires.rs"),
    );
    assert_eq!(lines_of(&r, "wall-clock"), vec![2, 5, 6, 7, 8, 9]);
}

#[test]
fn wall_clock_sleep_waived_in_store() {
    // The durable store is in wall-clock scope; its single sanctioned
    // `thread::sleep` (the bounded retry backoff) must lint clean only
    // through an explicit waiver.
    let r = run(
        "crates/harness/src/store.rs",
        include_str!("fixtures/wallclock_sleep_allowed.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waived.len(), 1);
    assert_eq!(r.waived[0].rule, "wall-clock");
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn store_scope_is_surgical() {
    // Only store.rs joins the wall-clock scope; the rest of the harness
    // (host-side orchestration) legitimately uses wall time.
    assert!(scope_for("crates/harness/src/store.rs").wall_clock);
    assert!(!scope_for("crates/harness/src/checkpoint.rs").wall_clock);
    assert!(!scope_for("crates/harness/src/runner.rs").wall_clock);
}

#[test]
fn wall_clock_clean() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/wallclock_clean.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn wall_clock_exempt_in_manifest() {
    // telemetry::manifest is the documented exception (run manifests
    // record real timestamps).
    let r = run(
        "crates/telemetry/src/manifest.rs",
        include_str!("fixtures/wallclock_fires.rs"),
    );
    assert!(r.violations.is_empty());
}

#[test]
fn float_stats_fires() {
    let r = run(
        "crates/sim/src/stats.rs",
        include_str!("fixtures/floatstats_fires.rs"),
    );
    // Line 5: undocumented float field; line 9: `+=` accumulation.
    assert_eq!(lines_of(&r, "float-stats"), vec![5, 9]);
}

#[test]
fn float_stats_allow_listed() {
    let r = run(
        "crates/sim/src/stats.rs",
        include_str!("fixtures/floatstats_allowed.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waived.len(), 1);
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn pairing_fires() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/pairing_fires.rs"),
    );
    // ProbeOnly: probe without tick (10); TickOnly: tick without probe
    // (20); BadSig: &mut receiver + non-Option return (30, 30).
    assert_eq!(lines_of(&r, "next-event-pairing"), vec![10, 20, 30, 30]);
}

#[test]
fn pairing_allow_listed() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/pairing_allowed.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waived.len(), 1);
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn pairing_clean() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/pairing_clean.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn owned_state_fires() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/owned_state_fires.rs"),
    );
    // Line 2: Arc + Mutex; 3: RefCell; 5/6: static items; 8: the
    // thread_local macro name; 10: the static inside its body; 14: Arc +
    // Mutex again; 15: RefCell; 21: OnceLock in the type and in the call;
    // 27: an atomic field.
    assert_eq!(
        lines_of(&r, "sim-owned-state"),
        vec![2, 2, 3, 5, 6, 8, 10, 14, 14, 15, 21, 21, 27]
    );
    assert!(r.waived.is_empty());
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn owned_state_allow_listed() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/owned_state_allowed.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waived.len(), 2);
    assert!(r.waived.iter().all(|w| w.rule == "sim-owned-state"));
    // The waiver syntax makes the reason mandatory; both carry one.
    assert!(r.waived.iter().all(|w| !w.reason.is_empty()));
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn owned_state_out_of_scope_outside_sim() {
    // The same source under core/ or harness/ paths is out of scope:
    // host-side orchestration legitimately uses Arc/Mutex and atomics.
    for rel in ["crates/core/src/fixture.rs", "crates/harness/src/pool.rs"] {
        let r = run(rel, include_str!("fixtures/owned_state_fires.rs"));
        assert!(lines_of(&r, "sim-owned-state").is_empty(), "{rel}");
    }
}

#[test]
fn owned_state_flags_atomics() {
    // The cycle loop is single-threaded, so any atomic in the simulator
    // is shared state: every `Atomic*` name fires, `Ordering` does not.
    let r = run(
        "crates/sim/src/fixture.rs",
        "use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};\n\
         struct Progress { through: AtomicU64, counts: Vec<AtomicU32> }\n",
    );
    assert_eq!(lines_of(&r, "sim-owned-state"), vec![1, 1, 2, 2]);
    assert!(r.violations.iter().all(|v| v.rule == "sim-owned-state"));
}

#[test]
fn directive_errors_are_hard_errors() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/directives_bad.rs"),
    );
    assert!(r.violations.is_empty());
    assert_eq!(r.directive_errors.len(), 3, "{:?}", r.directive_errors);
    let msgs: Vec<&str> = r.directive_errors.iter().map(|d| d.msg.as_str()).collect();
    assert!(msgs[0].contains("malformed"), "{}", msgs[0]);
    assert!(msgs[1].contains("unknown rule"), "{}", msgs[1]);
    assert!(msgs[2].contains("unused"), "{}", msgs[2]);
}

#[test]
fn whole_workspace_is_clean() {
    // The real tree must satisfy its own determinism contract — all
    // seven rule families, zero stale waivers. This is the same check
    // CI runs via `cargo xtask analyze`.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = xtask::analyze_workspace(&root).expect("analyze runs");
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
    assert!(
        report.is_clean(),
        "workspace analysis failed:\n{}",
        xtask::render(&report)
    );
    assert_eq!(xtask::exit_code(&report), 0);
    // Every honoured waiver must carry a non-empty reason.
    assert!(report.waived.iter().all(|w| !w.reason.is_empty()));
}
