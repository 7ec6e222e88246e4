//! `cargo xtask analyze` — repo-specific static analysis for the
//! CacheCraft workspace.
//!
//! The evaluation methodology rests on bit-identical `SimStats` (the
//! golden-regression corpus and the threads-1-vs-8 determinism test), so
//! the simulator crates must not depend on randomized hash iteration
//! order, wall-clock time, ambient randomness, or float accumulation —
//! and the crash-resilience story rests on panic-free cycle loops and
//! never-discarded persistence `Result`s.
//! Clippy cannot express those rules; this tool lexes the workspace with
//! a small hand-rolled lexer (the build is offline, so `syn` is not
//! available — see `vendor/README.md`), layers a brace-aware scope map
//! over it ([`scopes`]) and enforces them. See [`rules`] and [`analyze`]
//! for the rule catalog and `DESIGN.md` §16 ("Static-analysis suite")
//! for the rationale.
//!
//! Run it as `cargo xtask analyze` (`lint` is a compatibility alias for
//! the same full suite). Exit codes: 0 clean, 1 rule violations, 2
//! directive errors (malformed, unknown-rule, or stale waivers) — see
//! [`exit_code`].

pub mod analyze;
pub mod lexer;
pub mod rules;
pub mod scopes;

use analyze::AnalyzeContext;
use rules::{DirectiveError, FileReport, LintContext, Violation, Waived};
use std::fs;
use std::path::{Path, PathBuf};

/// The crates scanned by the analyzer (workspace-relative source roots).
pub const SCANNED_ROOTS: [&str; 7] = [
    "crates/sim/src",
    "crates/core/src",
    "crates/ecc/src",
    "crates/workloads/src",
    "crates/telemetry/src",
    "crates/harness/src",
    "crates/serve/src",
];

/// Aggregated result of analyzing the whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All violations, ordered by file then line.
    pub violations: Vec<Violation>,
    /// All waived violations (the verified allow-list).
    pub waived: Vec<Waived>,
    /// Directive problems (malformed / unknown rule / stale).
    pub directive_errors: Vec<DirectiveError>,
}

impl LintReport {
    /// `true` when the tree is clean (waived entries are fine).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.directive_errors.is_empty()
    }

    fn absorb(&mut self, fr: FileReport) {
        self.violations.extend(fr.violations);
        self.waived.extend(fr.waived);
        self.directive_errors.extend(fr.directive_errors);
    }
}

/// The process exit code contract: 0 clean, 1 violations, 2 directive
/// errors. Directive errors dominate — a rotten waiver inventory makes
/// every other verdict untrustworthy, so it gets the louder code.
pub fn exit_code(report: &LintReport) -> i32 {
    if !report.directive_errors.is_empty() {
        2
    } else if !report.violations.is_empty() {
        1
    } else {
        0
    }
}

/// Workspace file list + cross-file analysis context, shared by
/// [`lint_workspace`] and [`analyze_workspace`].
struct WorkspaceFiles {
    /// `(workspace-relative path, source, lexed)` for every scanned file.
    files: Vec<(String, String, lexer::Lexed)>,
    ctx: LintContext,
}

fn load_workspace(root: &Path) -> Result<WorkspaceFiles, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for sub in SCANNED_ROOTS {
        let dir = root.join(sub);
        if !dir.is_dir() {
            return Err(format!("missing source root {}", dir.display()));
        }
        collect_rs(&dir, &mut paths)?;
    }
    paths.sort();

    // Pass 1: discover float SimStats fields for the accumulation rule.
    let stats_path = root.join(rules::SIMSTATS_PATH);
    let ctx = match fs::read_to_string(&stats_path) {
        Ok(src) => LintContext {
            float_stats_fields: rules::simstats_float_fields(&lexer::lex(&src))
                .into_iter()
                .map(|(name, _)| name)
                .collect(),
        },
        Err(e) => return Err(format!("read {}: {e}", stats_path.display())),
    };

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes workspace root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        files.push((rel, src, lexed));
    }
    Ok(WorkspaceFiles { files, ctx })
}

/// Runs the full analysis suite — the flat token rules plus the
/// function-scoped families (panic-freedom, fallible-result) — on the
/// workspace rooted at `root`.
///
/// Fails when a [`analyze::PF_ROOTS`] entry has no non-test definition in
/// `crates/sim/src`.
pub fn analyze_workspace(root: &Path) -> Result<LintReport, String> {
    let ws = load_workspace(root)?;

    // Cross-file context: the cycle-loop call graph over crates/sim, and
    // the Result-returning exports of the persistence modules.
    let sim_files: Vec<(&str, &lexer::Lexed)> = ws
        .files
        .iter()
        .filter(|(rel, _, _)| rel.starts_with("crates/sim/src/"))
        .map(|(rel, _, lexed)| (rel.as_str(), lexed))
        .collect();
    let (hot, missing) = analyze::hot_spans(&sim_files);
    if !missing.is_empty() {
        return Err(format!(
            "stale panic-freedom root(s) {missing:?}: no non-test `fn` of that name in \
             crates/sim/src, so the cycle loop would drop out of the rule; update PF_ROOTS"
        ));
    }
    let mut actx = AnalyzeContext {
        lint: ws.ctx.clone(),
        fallible_fns: Default::default(),
        hot,
    };
    for (rel, _, lexed) in &ws.files {
        let module = rel
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or("");
        if analyze::FALLIBLE_MODULES.contains(&module) {
            let map = scopes::ScopeMap::scan(lexed);
            actx.fallible_fns
                .extend(analyze::fallible_fn_names(lexed, &map));
        }
    }

    let mut report = LintReport::default();
    for (rel, _, lexed) in &ws.files {
        report.absorb(analyze::analyze_file(
            rel,
            lexed,
            rules::scope_for(rel),
            &actx,
        ));
        report.files_scanned += 1;
    }
    sort_report(&mut report);
    Ok(report)
}

fn sort_report(report: &mut LintReport) {
    let key = |f: &String, l: &usize| (f.clone(), *l);
    report.violations.sort_by_key(|v| key(&v.file, &v.line));
    report.waived.sort_by_key(|w| key(&w.file, &w.line));
    report
        .directive_errors
        .sort_by_key(|d| key(&d.file, &d.line));
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders the report in the summary-table format shown by `cargo xtask
/// analyze`.
pub fn render(report: &LintReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "xtask analyze: scanned {} files under {}",
        report.files_scanned,
        SCANNED_ROOTS.join(", ")
    );
    if !report.waived.is_empty() {
        let _ = writeln!(s, "\nallow-listed ({} verified):", report.waived.len());
        let width = report
            .waived
            .iter()
            .map(|w| w.file.len() + 1 + w.line.to_string().len())
            .max()
            .unwrap_or(0);
        for w in &report.waived {
            let loc = format!("{}:{}", w.file, w.line);
            let _ = writeln!(s, "  {:20} {loc:width$}  {}", w.rule, w.reason);
        }
    }
    if !report.violations.is_empty() {
        let _ = writeln!(s, "\nviolations ({}):", report.violations.len());
        for v in &report.violations {
            let _ = writeln!(s, "  {:20} {}:{}  {}", v.rule, v.file, v.line, v.msg);
        }
    }
    if !report.directive_errors.is_empty() {
        let _ = writeln!(s, "\ndirective errors ({}):", report.directive_errors.len());
        for d in &report.directive_errors {
            let _ = writeln!(s, "  {}:{}  {}", d.file, d.line, d.msg);
        }
    }
    let _ = writeln!(
        s,
        "\n{}",
        if report.is_clean() {
            "clean: determinism contract holds"
        } else {
            "FAILED: determinism contract violated (fix or justify with \
             `// lint: allow(<rule>) reason=...`)"
        }
    );
    s
}

/// Renders violations and directive errors as GitHub workflow commands
/// (`::error file=…,line=…::…`) so CI annotates the diff in place.
pub fn render_github(report: &LintReport) -> String {
    use std::fmt::Write as _;
    let esc = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    };
    let mut s = String::new();
    for v in &report.violations {
        let _ = writeln!(
            s,
            "::error file={},line={},title=xtask {}::{}",
            v.file,
            v.line,
            v.rule,
            esc(&v.msg)
        );
    }
    for d in &report.directive_errors {
        let _ = writeln!(
            s,
            "::error file={},line={},title=xtask directive::{}",
            d.file,
            d.line,
            esc(&d.msg)
        );
    }
    let _ = writeln!(
        s,
        "xtask analyze: {} files, {} violations, {} waived, {} directive errors",
        report.files_scanned,
        report.violations.len(),
        report.waived.len(),
        report.directive_errors.len()
    );
    s
}

/// Renders the honoured-waiver inventory, one `file:line rule reason`
/// per line, sorted by file then line (`--list-waivers`).
pub fn render_waivers(report: &LintReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for w in &report.waived {
        let _ = writeln!(s, "{}:{} {} {}", w.file, w.line, w.rule, w.reason);
    }
    s
}
