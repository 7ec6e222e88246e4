//! The determinism lint rules.
//!
//! Five rules, all properties clippy cannot express because they are
//! repo-specific policy rather than general Rust hygiene:
//!
//! * `default-hash-state` (L1) — no default-`RandomState` `HashMap`/`HashSet`
//!   in `sim`/`core`/`ecc`. Iteration order of the default hasher is
//!   randomly seeded per process, which silently breaks the bit-identical
//!   `SimStats` replay contract. Use `fxmap::FxHashMap`/`FxHashSet` or
//!   `BTreeMap`/`BTreeSet`.
//! * `wall-clock` (L2) — no `Instant`/`SystemTime` and no ambient
//!   randomness (`thread_rng`, `rand::random`) outside `harness`/
//!   `telemetry::manifest`. Simulated time and seeded RNGs only.
//! * `float-stats` (L3) — no `f32`/`f64` accumulation into `SimStats`
//!   fields: float addition is non-associative, so parallel or reordered
//!   accumulation drifts. Float fields themselves must carry an allow
//!   directive documenting why they are safe (e.g. derived once at end of
//!   run from integer sums).
//! * `next-event-pairing` (L4) — in `sim`, any inherent impl providing the
//!   `next_event` idle fast-forward probe must also provide its paired
//!   `tick`, and vice versa, so new components cannot silently opt out of
//!   (or lie to) the fast-forward machinery. `next_event` must be a
//!   side-effect-free `&self` probe returning `Option<Cycle>`.
//! * `sim-owned-state` (L5) — in `sim`, no `static` items and no
//!   shared-mutability primitives (`lazy_static`, `thread_local`,
//!   `OnceLock`/`OnceCell`/`LazyLock`, `Mutex`/`RwLock`, `RefCell`,
//!   `Rc`/`Arc`, `Atomic*`). A simulation replays bit-identically only
//!   because every piece of mutable state has exactly one owner inside
//!   the run; process-global, reference-counted or atomically shared
//!   state would leak between runs (and between cells running side by
//!   side) invisibly.
//!
//! Violations can be waived with `// lint: allow(<rule>) reason=<text>` on
//! or immediately above the offending line; every directive must justify
//! itself with a reason and must match a real violation (unused directives
//! are hard errors, so stale waivers cannot linger).

use crate::lexer::{Directive, Lexed, TokKind, Token};

/// Canonical rule names, as used in `allow(...)` directives. The first
/// five are the flat token rules of this module; the last two are the
/// function-scoped analysis rules of [`crate::analyze`].
pub const RULE_NAMES: [&str; 7] = [
    "default-hash-state",
    "wall-clock",
    "float-stats",
    "next-event-pairing",
    "sim-owned-state",
    "panic-freedom",
    "fallible-result",
];

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// L1: default-hasher ban (sim/core/ecc).
    pub hash_state: bool,
    /// L2: wall-clock / ambient randomness ban.
    pub wall_clock: bool,
    /// L3 (declaration side): float `SimStats` fields need an allow.
    pub float_fields: bool,
    /// L3 (use side): no compound assignment into float stats fields.
    pub float_accum: bool,
    /// L4: next_event/tick pairing (sim only).
    pub pairing: bool,
    /// L5: static items / shared-mutability primitives ban (sim only).
    pub owned_state: bool,
    /// A1: panic vectors in the cycle-loop call graph (sim, minus the
    /// invariants module whose whole purpose is to panic).
    pub panic_freedom: bool,
    /// A3: no discarded persistence `Result`s (harness + serve).
    pub fallible_result: bool,
}

/// Path of the `SimStats` declaration, the anchor for rule L3.
pub const SIMSTATS_PATH: &str = "crates/sim/src/stats.rs";

/// Computes the rule scope for a workspace-relative path (forward slashes).
pub fn scope_for(rel: &str) -> Scope {
    let in_any = |roots: &[&str]| roots.iter().any(|r| rel.starts_with(r));
    let deterministic_core = in_any(&["crates/sim/src/", "crates/core/src/", "crates/ecc/src/"]);
    let host_side = in_any(&["crates/harness/src/", "crates/serve/src/"]);
    let in_sim = rel.starts_with("crates/sim/src/");
    Scope {
        // Host-side code replays cached results and compares checksums;
        // nondeterministic iteration order is as fatal there as in sim.
        hash_state: deterministic_core || host_side,
        wall_clock: ((deterministic_core
            || in_any(&["crates/workloads/src/", "crates/telemetry/src/"]))
            && rel != "crates/telemetry/src/manifest.rs")
            // The durable store is host-side but must stay deterministic:
            // it has no wall-clock site, and none may creep in.
            || rel == "crates/harness/src/store.rs"
            // The serve daemon hands out cached deterministic results;
            // its two sanctioned wall-clock sites carry waivers.
            || rel.starts_with("crates/serve/src/"),
        float_fields: rel == SIMSTATS_PATH,
        float_accum: in_any(&["crates/sim/src/", "crates/core/src/"]),
        pairing: in_sim,
        owned_state: in_sim,
        // invariants.rs exists to panic on contract breaches; exempting
        // it keeps the rule about *accidental* panic vectors.
        panic_freedom: in_sim && rel != "crates/sim/src/invariants.rs",
        fallible_result: host_side,
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

/// A violation waived by a verified allow directive.
#[derive(Debug, Clone)]
pub struct Waived {
    /// Rule name.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the waived violation.
    pub line: usize,
    /// The justification from the directive.
    pub reason: String,
}

/// What is wrong with a directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveKind {
    /// Unparseable directive text (e.g. missing `reason=`).
    Malformed,
    /// `allow(<rule>)` names a rule that does not exist.
    UnknownRule,
    /// The directive no longer suppresses any violation.
    Stale,
}

/// Directive-level problems: malformed, unknown rule, or stale.
#[derive(Debug, Clone)]
pub struct DirectiveError {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// Failure class (drives the exit-code contract: any of these is
    /// exit code 2).
    pub kind: DirectiveKind,
    /// What is wrong with it.
    pub msg: String,
}

/// Per-file lint result.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations not covered by a directive.
    pub violations: Vec<Violation>,
    /// Violations waived by a directive.
    pub waived: Vec<Waived>,
    /// Problems with the directives themselves.
    pub directive_errors: Vec<DirectiveError>,
}

/// Cross-file context: float-typed `SimStats` fields discovered from
/// `stats.rs`, consumed by the accumulation half of rule L3.
#[derive(Debug, Clone, Default)]
pub struct LintContext {
    /// Names of `f32`/`f64` fields of `SimStats`.
    pub float_stats_fields: Vec<String>,
}

/// Extracts `(name, line)` of every `f32`/`f64` field of `struct SimStats`.
pub fn simstats_float_fields(lexed: &Lexed) -> Vec<(String, usize)> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    let Some(start) = t.windows(2).position(|w| {
        matches!(&w[0].kind, TokKind::Ident(s) if s == "struct")
            && matches!(&w[1].kind, TokKind::Ident(s) if s == "SimStats")
    }) else {
        return out;
    };
    let Some(open) = (start..t.len()).find(|&i| t[i].kind == TokKind::Open('{')) else {
        return out;
    };
    let mut i = open + 1;
    let mut depth = 1usize;
    // Walk `name : type ,` fields at depth 1, skipping `#[...]` attributes.
    while i < t.len() && depth > 0 {
        match &t[i].kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Punct('#') if depth == 1 => {
                // Skip the attribute group.
                if let Some(Token {
                    kind: TokKind::Open('['),
                    ..
                }) = t.get(i + 1)
                {
                    let mut d = 1;
                    i += 2;
                    while i < t.len() && d > 0 {
                        match t[i].kind {
                            TokKind::Open(_) => d += 1,
                            TokKind::Close(_) => d -= 1,
                            _ => {}
                        }
                        i += 1;
                    }
                    continue;
                }
            }
            TokKind::Ident(name)
                if depth == 1
                    && name != "pub"
                    && matches!(t.get(i + 1).map(|n| &n.kind), Some(TokKind::Punct(':'))) =>
            {
                // Field declaration: scan its type up to the next `,` at
                // depth 1 (or the closing brace).
                let field_line = t[i].line;
                let field_name = name.clone();
                let mut j = i + 2;
                let mut d = depth;
                let mut angle = 0i32;
                let mut is_float = false;
                while j < t.len() {
                    match &t[j].kind {
                        TokKind::Open(_) => d += 1,
                        TokKind::Close(_) => {
                            if d == 1 {
                                break;
                            }
                            d -= 1;
                        }
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => angle -= 1,
                        TokKind::Punct(',') if d == 1 && angle == 0 => break,
                        TokKind::Ident(ty) if ty == "f32" || ty == "f64" => is_float = true,
                        _ => {}
                    }
                    j += 1;
                }
                if is_float {
                    out.push((field_name, field_line));
                }
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Lints one file's token stream under `scope`, resolving allow directives.
/// Flat token rules only; `analyze::analyze_file` adds the
/// function-scoped families on top and is what the CLI runs.
pub fn lint_file(rel: &str, lexed: &Lexed, scope: Scope, ctx: &LintContext) -> FileReport {
    let raw = collect_raw(rel, lexed, scope, ctx);
    resolve_directives(rel, lexed, raw)
}

/// Runs the flat token rules and returns the unresolved violations, so
/// callers can append function-scoped findings before directive
/// resolution (directives must see the union, or waivers for the new
/// rules would register as stale).
pub(crate) fn collect_raw(
    rel: &str,
    lexed: &Lexed,
    scope: Scope,
    ctx: &LintContext,
) -> Vec<Violation> {
    let mut raw: Vec<Violation> = Vec::new();
    if scope.hash_state {
        rule_default_hash_state(rel, lexed, &mut raw);
    }
    if scope.wall_clock {
        rule_wall_clock(rel, lexed, &mut raw);
    }
    if scope.float_fields {
        for (name, line) in simstats_float_fields(lexed) {
            raw.push(Violation {
                rule: "float-stats",
                file: rel.to_string(),
                line,
                msg: format!(
                    "float-typed `SimStats` field `{name}`; floats in stats risk \
                     non-associative accumulation — justify with an allow directive"
                ),
            });
        }
    }
    if scope.float_accum {
        rule_float_accum(rel, lexed, ctx, &mut raw);
    }
    if scope.pairing {
        rule_next_event_pairing(rel, lexed, &mut raw);
    }
    if scope.owned_state {
        rule_sim_owned_state(rel, lexed, &mut raw);
    }
    raw
}

/// Matches violations against directives; unused/unknown directives error.
pub(crate) fn resolve_directives(rel: &str, lexed: &Lexed, raw: Vec<Violation>) -> FileReport {
    let mut report = FileReport::default();
    for (line, msg) in &lexed.malformed {
        report.directive_errors.push(DirectiveError {
            file: rel.to_string(),
            line: *line,
            kind: DirectiveKind::Malformed,
            msg: msg.clone(),
        });
    }
    // A directive covers its own line (trailing comment) when code shares
    // it, otherwise the next line holding any token.
    let target_line = |d: &Directive| -> Option<usize> {
        if lexed.tokens.iter().any(|t| t.line == d.line) {
            return Some(d.line);
        }
        lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > d.line)
            .min()
    };
    let mut used = vec![false; lexed.directives.len()];
    for v in raw {
        let mut waived = false;
        for (di, d) in lexed.directives.iter().enumerate() {
            if d.rule == v.rule && target_line(d) == Some(v.line) {
                used[di] = true;
                waived = true;
                report.waived.push(Waived {
                    rule: v.rule,
                    file: v.file.clone(),
                    line: v.line,
                    reason: d.reason.clone(),
                });
                break;
            }
        }
        if !waived {
            report.violations.push(v);
        }
    }
    for (di, d) in lexed.directives.iter().enumerate() {
        if !RULE_NAMES.contains(&d.rule.as_str()) {
            report.directive_errors.push(DirectiveError {
                file: rel.to_string(),
                line: d.line,
                kind: DirectiveKind::UnknownRule,
                msg: format!(
                    "unknown rule `{}` in allow directive (known: {})",
                    d.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else if !used[di] {
            report.directive_errors.push(DirectiveError {
                file: rel.to_string(),
                line: d.line,
                kind: DirectiveKind::Stale,
                msg: format!(
                    "stale/unused allow({}) directive — the waived violation no longer \
                     exists; delete the directive",
                    d.rule
                ),
            });
        }
    }
    report
}

/// L1: `HashMap`/`HashSet` without an explicit hasher, or `RandomState`.
fn rule_default_hash_state(rel: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        let TokKind::Ident(name) = &t[i].kind else {
            continue;
        };
        match name.as_str() {
            "RandomState" => out.push(Violation {
                rule: "default-hash-state",
                file: rel.to_string(),
                line: t[i].line,
                msg: "`RandomState` is randomly seeded per process and breaks bit-identical \
                      replay; use `fxmap::FxHasher` or an ordered map"
                    .into(),
            }),
            "HashMap" | "HashSet" => {
                let need = if name == "HashMap" { 3 } else { 2 };
                if generic_arg_count(t, i + 1) < need {
                    out.push(Violation {
                        rule: "default-hash-state",
                        file: rel.to_string(),
                        line: t[i].line,
                        msg: format!(
                            "`{name}` with the default `RandomState` hasher — iteration order \
                             is nondeterministic; use `fxmap::Fx{name}` or `BTree{}`",
                            &name[4..]
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Counts top-level generic arguments in a `<...>` (or turbofish `::<...>`)
/// starting at token index `i`; returns 0 when no generic list follows.
fn generic_arg_count(t: &[Token], mut i: usize) -> usize {
    if matches!(t.get(i).map(|x| &x.kind), Some(TokKind::Punct(':')))
        && matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Punct(':')))
        && matches!(t.get(i + 2).map(|x| &x.kind), Some(TokKind::Punct('<')))
    {
        i += 2;
    }
    if !matches!(t.get(i).map(|x| &x.kind), Some(TokKind::Punct('<'))) {
        return 0;
    }
    let mut angle = 1i32;
    let mut delim = 0i32;
    let mut args = 1usize;
    let mut j = i + 1;
    while j < t.len() && angle > 0 {
        match &t[j].kind {
            // `->` return arrows inside `Fn(..) -> T` bounds.
            TokKind::Punct('-')
                if matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Punct('>'))) =>
            {
                j += 1;
            }
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Open(_) => delim += 1,
            TokKind::Close(_) => {
                if delim == 0 {
                    // `<` was a comparison, not a generic list.
                    return 0;
                }
                delim -= 1;
            }
            TokKind::Punct(';') if delim == 0 => return 0,
            TokKind::Punct(',') if angle == 1 && delim == 0 => args += 1,
            _ => {}
        }
        j += 1;
    }
    if angle > 0 {
        return 0;
    }
    args
}

/// L2: wall-clock types and ambient randomness.
fn rule_wall_clock(rel: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        let TokKind::Ident(name) = &t[i].kind else {
            continue;
        };
        let msg = match name.as_str() {
            "Instant" | "SystemTime" => format!(
                "wall-clock `{name}` in simulator code — simulated `Cycle` time only \
                 (wall time belongs in harness/bench/telemetry::manifest)"
            ),
            "thread_rng" | "ThreadRng" => format!(
                "ambient randomness `{name}` — all randomness must come from a seeded RNG \
                 threaded through the config"
            ),
            "random"
                if i >= 3
                    && matches!(&t[i - 3].kind, TokKind::Ident(r) if r == "rand")
                    && t[i - 2].kind == TokKind::Punct(':')
                    && t[i - 1].kind == TokKind::Punct(':') =>
            {
                "ambient `rand::random` — all randomness must come from a seeded RNG".into()
            }
            "sleep"
                if i >= 3
                    && matches!(&t[i - 3].kind, TokKind::Ident(r) if r == "thread")
                    && t[i - 2].kind == TokKind::Punct(':')
                    && t[i - 1].kind == TokKind::Punct(':') =>
            {
                "`thread::sleep` in deterministic code — wall-clock delays belong in the \
                 harness; a sanctioned retry backoff needs an explicit waiver"
                    .into()
            }
            _ => continue,
        };
        out.push(Violation {
            rule: "wall-clock",
            file: rel.to_string(),
            line: t[i].line,
            msg,
        });
    }
}

/// L5: `static` items and shared-mutability primitives in `sim`.
///
/// The determinism contract rests on single ownership: every mutable
/// object belongs to exactly one component of exactly one run. A
/// `static`, a `lazy_static!`/`thread_local!` cell, a
/// `OnceLock`/`OnceCell`/`LazyLock`, a lock (`Mutex`/`RwLock`), interior
/// mutability (`RefCell`), shared ownership (`Rc`/`Arc`) or an atomic
/// (`Atomic*`) all create state whose visibility is scheduler-dependent,
/// which this lint makes impossible to introduce silently.
fn rule_sim_owned_state(rel: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        let TokKind::Ident(name) = &t[i].kind else {
            continue;
        };
        let msg = match name.as_str() {
            // A `static` item declaration: `static [mut] NAME :`. The
            // shape check keeps `'static` lifetimes (lexed as `Lifetime`,
            // never `Ident`) and prose out; requiring the `:` avoids
            // firing twice inside a flagged `thread_local!` body... which
            // would still be correct, just noisy.
            "static" => {
                let mut j = i + 1;
                if matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Ident(m)) if m == "mut") {
                    j += 1;
                }
                let named = matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Ident(_)));
                let typed = matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Punct(':')));
                if !(named && typed) {
                    continue;
                }
                "`static` item in simulator code — process-global state outlives the \
                 simulation and is visible to every cell in the process; thread it \
                 through the owning component instead"
                    .to_string()
            }
            "lazy_static" | "thread_local" => format!(
                "`{name}!` in simulator code — lazily initialized global state breaks \
                 the one-owner-per-run model bit-identical replay depends on"
            ),
            "OnceLock" | "OnceCell" | "LazyLock" => format!(
                "`{name}` in simulator code — write-once global cells still make \
                 initialization order observable across cells; pass the value \
                 through the component that owns it"
            ),
            "Mutex" | "RwLock" => format!(
                "`{name}` in simulator code — lock acquisition order is scheduler- \
                 dependent, so anything guarded by it cannot replay bit-identically; \
                 give the state a single owner instead"
            ),
            "RefCell" => "`RefCell` in simulator code — interior mutability hides writes \
                 from the ownership structure the replay contract is derived from"
                .to_string(),
            "Rc" | "Arc" => format!(
                "`{name}` in simulator code — shared ownership lets two components \
                 alias the same mutable object; give the state a single owner"
            ),
            n if n.starts_with("Atomic") => format!(
                "`{name}` in simulator code — an atomic exists to be shared across \
                 threads, and the cycle loop is single-threaded; give the value a \
                 single owner"
            ),
            _ => continue,
        };
        out.push(Violation {
            rule: "sim-owned-state",
            file: rel.to_string(),
            line: t[i].line,
            msg,
        });
    }
}

/// L3 (use side): compound assignment into a float `SimStats` field.
fn rule_float_accum(rel: &str, lexed: &Lexed, ctx: &LintContext, out: &mut Vec<Violation>) {
    if ctx.float_stats_fields.is_empty() {
        return;
    }
    let t = &lexed.tokens;
    for i in 0..t.len() {
        if t[i].kind != TokKind::Punct('.') {
            continue;
        }
        let Some(TokKind::Ident(field)) = t.get(i + 1).map(|x| &x.kind) else {
            continue;
        };
        if !ctx.float_stats_fields.iter().any(|f| f == field) {
            continue;
        }
        let op = t.get(i + 2).map(|x| &x.kind);
        let eq = t.get(i + 3).map(|x| &x.kind);
        if matches!(op, Some(TokKind::Punct(c)) if matches!(c, '+' | '-' | '*' | '/'))
            && matches!(eq, Some(TokKind::Punct('=')))
        {
            out.push(Violation {
                rule: "float-stats",
                file: rel.to_string(),
                line: t[i + 1].line,
                msg: format!(
                    "float accumulation into `SimStats::{field}` — non-associative float \
                     addition drifts under reordering; accumulate integers and derive \
                     the float once at end of run"
                ),
            });
        }
    }
}

/// A function found at the top level of an inherent impl body.
#[derive(Debug)]
struct ImplFn {
    name: String,
    line: usize,
    /// `Some(true)` = `&self`, `Some(false)` = `&mut self`/`self`, `None` =
    /// no receiver (associated fn).
    shared_receiver: Option<bool>,
    /// Return type mentions `Option`.
    returns_option: bool,
}

/// L4: next_event/tick pairing in inherent impls, plus the `next_event`
/// signature contract (`&self` probe returning `Option<_>`).
fn rule_next_event_pairing(rel: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        if !matches!(&t[i].kind, TokKind::Ident(s) if s == "impl") {
            continue;
        }
        // Skip type-position `impl Trait` (argument/return position): the
        // preceding token is then punctuation opening a type context.
        if i > 0 {
            match &t[i - 1].kind {
                TokKind::Punct(':' | ',' | '<' | '>' | '=' | '&') | TokKind::Open('(') => continue,
                TokKind::Ident(s) if s == "dyn" => continue,
                _ => {}
            }
        }
        // Header: up to the body `{` at delimiter depth 0.
        let mut j = i + 1;
        let mut is_trait_impl = false;
        let mut angle = 0i32;
        while j < t.len() {
            match &t[j].kind {
                TokKind::Punct('-')
                    if matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Punct('>'))) =>
                {
                    j += 1;
                }
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Ident(s) if s == "for" && angle == 0 => is_trait_impl = true,
                TokKind::Open('{') => break,
                TokKind::Punct(';') => break, // not an impl block after all
                _ => {}
            }
            j += 1;
        }
        if is_trait_impl || j >= t.len() || t[j].kind != TokKind::Open('{') {
            continue;
        }
        let type_name = header_type_name(&t[i + 1..j]);
        let fns = collect_impl_fns(t, j);
        let next_event = fns.iter().find(|f| f.name == "next_event");
        let tick = fns.iter().find(|f| f.name == "tick");
        match (next_event, tick) {
            (Some(ne), None) => out.push(Violation {
                rule: "next-event-pairing",
                file: rel.to_string(),
                line: ne.line,
                msg: format!(
                    "`{type_name}` implements the `next_event` fast-forward probe without \
                     its paired `tick` — the probe's promise must be dischargeable by a \
                     tick method in the same impl"
                ),
            }),
            (None, Some(tk)) => out.push(Violation {
                rule: "next-event-pairing",
                file: rel.to_string(),
                line: tk.line,
                msg: format!(
                    "`{type_name}` implements `tick` without a `next_event` probe — the \
                     component silently opts out of idle fast-forward, so a pending event \
                     inside it could be skipped over"
                ),
            }),
            _ => {}
        }
        if let Some(ne) = next_event {
            if ne.shared_receiver != Some(true) {
                out.push(Violation {
                    rule: "next-event-pairing",
                    file: rel.to_string(),
                    line: ne.line,
                    msg: format!(
                        "`{type_name}::next_event` must take `&self` — the probe is called \
                         speculatively and must be side-effect-free"
                    ),
                });
            }
            if !ne.returns_option {
                out.push(Violation {
                    rule: "next-event-pairing",
                    file: rel.to_string(),
                    line: ne.line,
                    msg: format!(
                        "`{type_name}::next_event` must return `Option<Cycle>` \
                         (`None` = component idle forever)"
                    ),
                });
            }
        }
    }
}

/// Best-effort self-type name from the impl header tokens.
fn header_type_name(header: &[Token]) -> String {
    let mut angle = 0i32;
    for tok in header {
        match &tok.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Ident(s) if angle == 0 && s != "unsafe" => return s.clone(),
            _ => {}
        }
    }
    "<unknown>".into()
}

/// Collects `fn` items at the top level of an impl body whose `{` is at
/// token index `open`.
fn collect_impl_fns(t: &[Token], open: usize) -> Vec<ImplFn> {
    let mut fns = Vec::new();
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < t.len() && depth > 0 {
        match &t[i].kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Ident(s) if s == "fn" && depth == 1 => {
                if let Some(TokKind::Ident(name)) = t.get(i + 1).map(|x| &x.kind) {
                    fns.push(parse_fn_sig(t, i + 1, name.clone()));
                }
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

/// Parses receiver and return-type facts from a fn signature starting at
/// the name token.
fn parse_fn_sig(t: &[Token], name_idx: usize, name: String) -> ImplFn {
    let line = t[name_idx].line;
    let mut i = name_idx + 1;
    // Skip generics.
    if matches!(t.get(i).map(|x| &x.kind), Some(TokKind::Punct('<'))) {
        let mut angle = 1i32;
        i += 1;
        while i < t.len() && angle > 0 {
            match &t[i].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                _ => {}
            }
            i += 1;
        }
    }
    let mut shared_receiver = None;
    let mut returns_option = false;
    if matches!(t.get(i).map(|x| &x.kind), Some(TokKind::Open('('))) {
        // Receiver: the tokens before the first `,` at depth 1.
        let mut j = i + 1;
        let mut by_ref = false;
        let mut is_mut = false;
        let mut depth = 1i32;
        while j < t.len() && depth > 0 {
            match &t[j].kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct(',') if depth == 1 => break,
                TokKind::Punct('&') => by_ref = true,
                TokKind::Ident(s) if s == "mut" => is_mut = true,
                TokKind::Ident(s) if s == "self" => {
                    shared_receiver = Some(by_ref && !is_mut);
                }
                _ => {}
            }
            j += 1;
        }
        // Find the params' closing paren, then the return type.
        let mut depth = 1i32;
        let mut k = i + 1;
        while k < t.len() && depth > 0 {
            match &t[k].kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        if matches!(t.get(k).map(|x| &x.kind), Some(TokKind::Punct('-')))
            && matches!(t.get(k + 1).map(|x| &x.kind), Some(TokKind::Punct('>')))
        {
            let mut m = k + 2;
            while m < t.len() {
                match &t[m].kind {
                    TokKind::Open('{') | TokKind::Punct(';') => break,
                    TokKind::Ident(s) if s == "Option" => returns_option = true,
                    TokKind::Ident(s) if s == "where" => break,
                    _ => {}
                }
                m += 1;
            }
        }
    }
    ImplFn {
        name,
        line,
        shared_receiver,
        returns_option,
    }
}
