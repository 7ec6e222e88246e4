//! Fixture tests for the function-scoped analysis families
//! (panic-freedom, fallible-result), the stale-waiver / exit-code
//! contracts, and the workspace scan's stale-root check.

use xtask::analyze::{analyze_file, AnalyzeContext};
use xtask::lexer::lex;
use xtask::rules::{scope_for, DirectiveKind, FileReport, LintContext};
use xtask::LintReport;

/// Analyzes a fixture as if it lived at `rel`, treating the fixture
/// itself as the whole crate (the call graph is seeded from roots found
/// in the file).
fn run(rel: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let ctx = AnalyzeContext::single_file(rel, &lexed, LintContext::default());
    analyze_file(rel, &lexed, scope_for(rel), &ctx)
}

/// Same, with an explicit set of known `Result`-returning persistence
/// functions (normally harvested from store/checkpoint/cellcache).
fn run_fallible(rel: &str, src: &str, fns: &[&str]) -> FileReport {
    let lexed = lex(src);
    let mut ctx = AnalyzeContext::single_file(rel, &lexed, LintContext::default());
    ctx.fallible_fns = fns.iter().map(|s| s.to_string()).collect();
    analyze_file(rel, &lexed, scope_for(rel), &ctx)
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
fn panic_freedom_fires() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/panic_fires.rs"),
    );
    // 4: unwrap; 5: computed index; 6: let slice pattern; 7: cycle
    // subtraction; 12: expect in a reachable helper; 21: match-arm slice
    // pattern in a reachable helper. `cold` (never called) is line 16 and
    // must not appear.
    assert_eq!(lines_of(&r, "panic-freedom"), vec![4, 5, 6, 7, 12, 21]);
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn panic_freedom_allow_listed() {
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/panic_allowed.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waived.len(), 3);
    assert!(r.waived.iter().all(|w| w.rule == "panic-freedom"));
    assert!(r.waived.iter().all(|w| !w.reason.is_empty()));
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn panic_freedom_clean() {
    // Safe forms on the hot path; panic vectors only in unreachable or
    // #[cfg(test)] code.
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/panic_clean.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.waived.is_empty());
}

#[test]
fn panic_freedom_out_of_scope_in_invariants_and_core() {
    // invariants.rs exists to panic; core/ is not in the cycle loop.
    for rel in ["crates/sim/src/invariants.rs", "crates/core/src/fixture.rs"] {
        let r = run(rel, include_str!("fixtures/panic_fires.rs"));
        assert!(lines_of(&r, "panic-freedom").is_empty(), "{rel}");
    }
}

#[test]
fn fallible_result_fires() {
    let r = run_fallible(
        "crates/harness/src/fixture.rs",
        include_str!("fixtures/fallible_fires.rs"),
        &["write_durable", "quarantine", "read_verified"],
    );
    // 7: `let _ =` on a qualified call; 8: bare-statement discard; 9:
    // `let _ =` on a method call. `File::open` (10), the `?` propagation
    // (14), the named binding (15), and the #[cfg(test)] discard stay
    // clean.
    assert_eq!(lines_of(&r, "fallible-result"), vec![7, 8, 9]);
    assert!(r.directive_errors.is_empty(), "{:?}", r.directive_errors);
}

#[test]
fn fallible_result_fires_in_serve_too() {
    let r = run_fallible(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/fallible_fires.rs"),
        &["write_durable", "quarantine", "read_verified"],
    );
    assert_eq!(lines_of(&r, "fallible-result"), vec![7, 8, 9]);
}

#[test]
fn fallible_modules_cover_the_ledger_and_cache_io() {
    let mut fns = std::collections::BTreeSet::new();
    for module in xtask::analyze::FALLIBLE_MODULES {
        let path = format!("{}/../harness/src/{module}.rs", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("persistence module exists");
        let lexed = lex(&src);
        let map = xtask::scopes::ScopeMap::scan(&lexed);
        fns.extend(xtask::analyze::fallible_fn_names(&lexed, &map));
    }
    // The ledger write, the run cache's open, and the cache's insert:
    // discarding any of their `Result`s must be flagged.
    for name in ["write_ledger", "open", "insert", "write_durable"] {
        assert!(fns.contains(name), "{name} not harvested: {fns:?}");
    }
}

#[test]
fn fallible_result_allow_listed() {
    let r = run_fallible(
        "crates/harness/src/fixture.rs",
        include_str!("fixtures/fallible_allowed.rs"),
        &["quarantine"],
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waived.len(), 1);
    assert_eq!(r.waived[0].rule, "fallible-result");
}

#[test]
fn fallible_result_clean() {
    let r = run_fallible(
        "crates/harness/src/fixture.rs",
        include_str!("fixtures/fallible_clean.rs"),
        &["write_durable", "quarantine"],
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.waived.is_empty());
}

#[test]
fn fallible_result_out_of_scope_in_sim() {
    let r = run_fallible(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/fallible_fires.rs"),
        &["write_durable", "quarantine", "read_verified"],
    );
    assert!(lines_of(&r, "fallible-result").is_empty());
}

#[test]
fn stale_waiver_is_a_hard_error() {
    // The violation the directive once covered has been fixed; the
    // leftover directive must surface as DirectiveKind::Stale.
    let r = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/directives_stale.rs"),
    );
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.waived.is_empty());
    assert_eq!(r.directive_errors.len(), 1, "{:?}", r.directive_errors);
    assert_eq!(r.directive_errors[0].kind, DirectiveKind::Stale);
    assert_eq!(r.directive_errors[0].line, 4);
}

#[test]
fn exit_codes_follow_the_contract() {
    use xtask::rules::{DirectiveError, Violation};
    let clean = LintReport::default();
    assert_eq!(xtask::exit_code(&clean), 0);

    let mut violations = LintReport::default();
    violations.violations.push(Violation {
        rule: "panic-freedom",
        file: "f.rs".into(),
        line: 1,
        msg: "m".into(),
    });
    assert_eq!(xtask::exit_code(&violations), 1);

    // Directive errors dominate plain violations.
    let mut stale = violations;
    stale.directive_errors.push(DirectiveError {
        file: "f.rs".into(),
        line: 2,
        kind: DirectiveKind::Stale,
        msg: "stale".into(),
    });
    assert_eq!(xtask::exit_code(&stale), 2);
}

#[test]
fn github_format_emits_error_annotations() {
    let mut report = LintReport::default();
    report.violations.push(xtask::rules::Violation {
        rule: "panic-freedom",
        file: "crates/sim/src/gpu.rs".into(),
        line: 42,
        msg: "needs a\nchecked subtraction".into(),
    });
    let out = xtask::render_github(&report);
    assert!(
        out.contains("::error file=crates/sim/src/gpu.rs,line=42,title=xtask panic-freedom::"),
        "{out}"
    );
    // Newlines must be %0A-escaped or GitHub truncates the message.
    assert!(out.contains("needs a%0Achecked subtraction"), "{out}");
}

#[test]
fn waiver_listing_is_sorted_file_then_line() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = xtask::analyze_workspace(&root).expect("analyze runs");
    let listing = xtask::render_waivers(&report);
    let keys: Vec<(String, usize)> = listing
        .lines()
        .map(|l| {
            let mut it = l.splitn(3, [':', ' ']);
            let file = it.next().expect("file").to_string();
            let line = it.next().expect("line").parse().expect("line number");
            (file, line)
        })
        .collect();
    assert!(!keys.is_empty(), "the canonical waiver inventory is gone?");
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    // The canonical inventory from DESIGN.md §12 must be present: the
    // three profiler wall-clock sites, and nothing in the store.
    assert!(!listing.contains("crates/harness/src/store.rs"));
    assert_eq!(
        listing
            .lines()
            .filter(|l| l.starts_with("crates/telemetry/src/profiler.rs"))
            .count(),
        3
    );
}

#[test]
fn stale_panic_freedom_root_fails_the_workspace_scan() {
    // A minimal workspace whose cycle loop is defined only under
    // `#[cfg(test)]`: the root counts as missing, so the scan fails
    // instead of silently dropping the loop out of panic-freedom.
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale-root-ws");
    let _ = std::fs::remove_dir_all(&root);
    for sub in xtask::SCANNED_ROOTS {
        std::fs::create_dir_all(root.join(sub)).expect("mkdir");
    }
    let write = |rel: &str, src: &str| std::fs::write(root.join(rel), src).expect("write");
    write(
        xtask::rules::SIMSTATS_PATH,
        "pub struct SimStats { pub cycles: u64 }\n",
    );
    write(
        "crates/sim/src/gpu.rs",
        "fn tick() {}\nfn next_event() {}\n#[cfg(test)]\nfn simulate() {}\n",
    );
    let err = xtask::analyze_workspace(&root).expect_err("stale root must fail the scan");
    assert!(err.contains("\"simulate\""), "{err}");
    assert!(!err.contains("\"tick\""), "{err}");

    // Defining the root makes the same workspace clean.
    write(
        "crates/sim/src/gpu.rs",
        "fn tick() {}\nfn next_event() {}\npub fn simulate() { tick(); }\n",
    );
    let report = xtask::analyze_workspace(&root).expect("all roots defined");
    assert!(report.is_clean(), "{}", xtask::render(&report));
    std::fs::remove_dir_all(&root).expect("cleanup");
}
