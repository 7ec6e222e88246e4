//! The function-scoped analysis rules (`cargo xtask analyze`).
//!
//! Two rule families ride on the [`crate::scopes`] layer, extending
//! the flat token rules of [`crate::rules`]:
//!
//! * `panic-freedom` (A1) — inside the cycle-loop call graph of
//!   `crates/sim` (every function reachable, by name, from
//!   [`PF_ROOTS`]), flag the constructs that can abort a simulation
//!   mid-corpus: `.unwrap()` / `.expect(...)` residue, `[...]` indexing
//!   with a computed (arithmetic) index, slice patterns
//!   (`let [a, b] = ...`, `[..] =>`), and unchecked `-` / `*` between
//!   cycle/address-named values (underflow panics in debug builds — the
//!   builds the golden corpus and CI run — and silently wraps in
//!   release). Intentional invariant panics stay, waived with a reason
//!   naming the guard that makes them unreachable. Every root must be
//!   defined: a renamed loop would otherwise drop out of the rule
//!   silently, so the workspace scan fails on a stale root.
//! * `fallible-result` (A3) — in `crates/harness` and `crates/serve`,
//!   discarding the `Result` of a call into the durable-persistence
//!   layer (`store::`, `checkpoint::`, `cellcache::`, or any function
//!   those modules export that returns `Result`) with `let _ = ...` or
//!   a bare statement is an error: a swallowed store failure silently
//!   un-does the crash-resilience contract of DESIGN.md §14.
//!
//! The third family, stale-waiver detection, lives in the directive
//! resolver ([`crate::rules`]): every `lint: allow` that no longer
//! suppresses a violation is a [`DirectiveKind::Stale`] hard error with
//! its own exit code, so waivers cannot rot.
//!
//! [`DirectiveKind::Stale`]: crate::rules::DirectiveKind::Stale

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{self, FileReport, LintContext, Scope, Violation};
use crate::scopes::{called_names, ScopeMap};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// Root functions of the cycle-loop call graph in `crates/sim`. Every
/// function reachable from these by name is "hot" for `panic-freedom`.
/// `analyze_workspace` fails when one of them has no non-test definition.
pub const PF_ROOTS: [&str; 3] = ["simulate", "tick", "next_event"];

/// Identifier names treated as cycle/address arithmetic operands by the
/// unchecked-subtraction/multiplication check of `panic-freedom`.
pub const PF_CYCLE_IDENTS: [&str; 19] = [
    "addr",
    "address",
    "arrival",
    "base",
    "c",
    "cycle",
    "deadline",
    "end",
    "epoch",
    "epoch_start",
    "horizon",
    "lat",
    "latency",
    "now",
    "slot",
    "start",
    "stride",
    "t",
    "wake",
];

/// Persistence modules whose `Result`s must never be discarded.
pub const FALLIBLE_MODULES: [&str; 3] = ["store", "checkpoint", "cellcache"];

/// Cross-file context for the analysis rules, built once per workspace
/// scan (see `analyze_workspace`).
#[derive(Debug, Clone, Default)]
pub struct AnalyzeContext {
    /// Context for the flat token rules (float `SimStats` fields).
    pub lint: LintContext,
    /// Names of `Result`-returning functions exported by the
    /// persistence modules, harvested by [`fallible_fn_names`].
    pub fallible_fns: BTreeSet<String>,
    /// Per-file (workspace-relative path → body token ranges) extent of
    /// the cycle-loop call graph, computed by [`hot_spans`].
    pub hot: BTreeMap<String, Vec<Range<usize>>>,
}

impl AnalyzeContext {
    /// Context treating `rel`/`lexed` as a complete single-file crate:
    /// the call graph is seeded from [`PF_ROOTS`] found in the file
    /// itself. Used by fixtures; the workspace scan builds the real one.
    pub fn single_file(rel: &str, lexed: &Lexed, lint: LintContext) -> AnalyzeContext {
        AnalyzeContext {
            lint,
            fallible_fns: BTreeSet::new(),
            hot: hot_spans(&[(rel, lexed)]).0,
        }
    }
}

/// Computes the cycle-loop call graph over the given `crates/sim` files:
/// seeds at [`PF_ROOTS`], then follows call *names* (free, path and
/// method calls) transitively. Name-level resolution over-approximates —
/// `x.tick()` marks every `fn tick` in the crate hot — which is the safe
/// direction: a hot function can never silently fall out of scope.
/// `#[cfg(test)]` functions are never hot.
///
/// Also returns the roots that have no non-test definition in `files`.
pub fn hot_spans(
    files: &[(&str, &Lexed)],
) -> (BTreeMap<String, Vec<Range<usize>>>, Vec<&'static str>) {
    let maps: Vec<ScopeMap> = files.iter().map(|(_, l)| ScopeMap::scan(l)).collect();
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, m) in maps.iter().enumerate() {
        for (ni, f) in m.fns.iter().enumerate() {
            if !f.cfg_test {
                by_name.entry(f.name.as_str()).or_default().push((fi, ni));
            }
        }
    }
    let mut visited: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let missing: Vec<&'static str> = PF_ROOTS
        .into_iter()
        .filter(|root| !by_name.contains_key(root))
        .collect();
    for root in PF_ROOTS {
        for &node in by_name.get(root).into_iter().flatten() {
            if visited.insert(node) {
                queue.push_back(node);
            }
        }
    }
    while let Some((fi, ni)) = queue.pop_front() {
        let body = maps[fi].fns[ni].body.clone();
        for name in called_names(&files[fi].1.tokens, &body) {
            for &node in by_name.get(name.as_str()).into_iter().flatten() {
                if visited.insert(node) {
                    queue.push_back(node);
                }
            }
        }
    }
    let mut out: BTreeMap<String, Vec<Range<usize>>> = BTreeMap::new();
    for (fi, ni) in visited {
        out.entry(files[fi].0.to_string())
            .or_default()
            .push(maps[fi].fns[ni].body.clone());
    }
    for spans in out.values_mut() {
        spans.sort_by_key(|r| r.start);
    }
    (out, missing)
}

/// Harvests the names of non-test `Result`-returning functions from a
/// lexed persistence module, for the `fallible-result` call-site check.
pub fn fallible_fn_names(lexed: &Lexed, map: &ScopeMap) -> BTreeSet<String> {
    map.fns
        .iter()
        .filter(|f| !f.cfg_test && returns_result(&lexed.tokens, &f.sig))
        .map(|f| f.name.clone())
        .collect()
}

fn returns_result(t: &[Token], sig: &Range<usize>) -> bool {
    let mut i = sig.start;
    // Skip past the parameter list so `impl FnMut() -> Result<..>`
    // bounds in argument position do not count as the return type.
    let mut depth = 0i32;
    let mut seen_params = false;
    while i < sig.end {
        match &t[i].kind {
            TokKind::Open('(') => {
                depth += 1;
                seen_params = true;
            }
            TokKind::Close(')') => depth -= 1,
            _ => {}
        }
        i += 1;
        if seen_params && depth == 0 {
            break;
        }
    }
    while i + 1 < sig.end {
        if t[i].kind == TokKind::Punct('-') && t[i + 1].kind == TokKind::Punct('>') {
            return t[i + 2..sig.end]
                .iter()
                .any(|tok| matches!(&tok.kind, TokKind::Ident(s) if s == "Result"));
        }
        i += 1;
    }
    false
}

/// Runs the full rule suite (flat + function-scoped) on one file and
/// resolves its waiver directives. This is `analyze`'s per-file unit;
/// `lint_file` remains the flat-rules-only subset.
pub fn analyze_file(rel: &str, lexed: &Lexed, scope: Scope, ctx: &AnalyzeContext) -> FileReport {
    let mut raw = rules::collect_raw(rel, lexed, scope, &ctx.lint);
    let map = ScopeMap::scan(lexed);
    if scope.panic_freedom {
        rule_panic_freedom(rel, lexed, ctx, &mut raw);
    }
    if scope.fallible_result {
        rule_fallible_result(rel, lexed, &map, ctx, &mut raw);
    }
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    rules::resolve_directives(rel, lexed, raw)
}

/// A1: panic vectors inside the cycle-loop call graph.
fn rule_panic_freedom(rel: &str, lexed: &Lexed, ctx: &AnalyzeContext, out: &mut Vec<Violation>) {
    let Some(spans) = ctx.hot.get(rel) else {
        return;
    };
    let t = &lexed.tokens;
    let push = |out: &mut Vec<Violation>, line: usize, msg: String| {
        out.push(Violation {
            rule: "panic-freedom",
            file: rel.to_string(),
            line,
            msg,
        });
    };
    for span in spans {
        for i in span.clone() {
            match &t[i].kind {
                TokKind::Ident(n) if n == "unwrap" || n == "expect" => {
                    let method = i > 0
                        && t[i - 1].kind == TokKind::Punct('.')
                        && matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Open('(')));
                    if method {
                        push(
                            out,
                            t[i].line,
                            format!(
                                "`.{n}(...)` on the hot path — a panic here aborts the cell \
                                 mid-corpus; restructure to make the failure impossible, or \
                                 waive with the invariant that guarantees `Some`/`Ok`"
                            ),
                        );
                    }
                }
                TokKind::Open('[') if is_index_position(t, i) => {
                    if let Some(op) = computed_index_op(t, i, span.end) {
                        push(
                            out,
                            t[i].line,
                            format!(
                                "computed index `[.. {op} ..]` on the hot path — an \
                                 out-of-range result panics; bound-check it, use `get`, or \
                                 waive with the invariant that keeps it in range"
                            ),
                        );
                    }
                }
                TokKind::Ident(n) if n == "let" => {
                    if matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Open('['))) {
                        push(
                            out,
                            t[i].line,
                            "slice pattern in `let` on the hot path — refutable length \
                             panics; destructure with `get`/`split_first` or waive with the \
                             invariant fixing the length"
                                .into(),
                        );
                    }
                }
                TokKind::Close(']')
                    if matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Punct('=')))
                        && matches!(t.get(i + 2).map(|x| &x.kind), Some(TokKind::Punct('>'))) =>
                {
                    push(
                        out,
                        t[i].line,
                        "slice pattern in match arm on the hot path — cover the length \
                         mismatch arm explicitly or waive with the invariant fixing the \
                         length"
                            .into(),
                    );
                }
                TokKind::Punct(op @ ('-' | '*')) => {
                    if let Some((l, r)) = cycle_arith_operands(t, i) {
                        push(
                            out,
                            t[i].line,
                            format!(
                                "unchecked `{l} {op} {r}` on cycle/address values — underflow \
                                 or overflow panics in debug (the build the golden corpus \
                                 runs) and wraps in release; use `saturating_/checked_` or \
                                 waive with the guard that orders the operands"
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Is the `[` at `i` in expression position (indexing/slicing), as
/// opposed to an array literal, attribute, or type?
fn is_index_position(t: &[Token], i: usize) -> bool {
    i > 0
        && matches!(
            t[i - 1].kind,
            TokKind::Ident(_) | TokKind::Close(')') | TokKind::Close(']')
        )
}

/// Returns the first top-level *binary* arithmetic operator inside the
/// bracket group opening at `i`, if any. Unary forms (`[*i]` deref,
/// `[-1]` negation) are not arithmetic: the operator only counts when
/// the preceding token can end an operand.
fn computed_index_op(t: &[Token], i: usize, limit: usize) -> Option<char> {
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < t.len() && j < limit && depth > 0 {
        match &t[j].kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Punct(op @ ('+' | '-' | '*')) if depth == 1 => {
                let binary = matches!(
                    t[j - 1].kind,
                    TokKind::Ident(_) | TokKind::Lit | TokKind::Close(_)
                );
                // `->` inside an index can only appear in closures; skip.
                let arrow = matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Punct('>')));
                if binary && !arrow {
                    return Some(*op);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// For a binary `-`/`*` at `i`, the (left, right) operand identifiers
/// when both are simple ident/field chains naming cycle/address values.
fn cycle_arith_operands(t: &[Token], i: usize) -> Option<(String, String)> {
    // Not `->`, `-=`, `*=`, and not unary (left operand must be an ident).
    if matches!(
        t.get(i + 1).map(|x| &x.kind),
        Some(TokKind::Punct('>') | TokKind::Punct('='))
    ) {
        return None;
    }
    let TokKind::Ident(left) = &t.get(i.wrapping_sub(1))?.kind else {
        return None;
    };
    // Right operand: last identifier of an `a.b.c` chain.
    let mut j = i + 1;
    let TokKind::Ident(first) = &t.get(j)?.kind else {
        return None;
    };
    let mut right: &str = first;
    while matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Punct('.'))) {
        match t.get(j + 2).map(|x| &x.kind) {
            Some(TokKind::Ident(f)) => {
                right = f;
                j += 2;
            }
            _ => break,
        }
    }
    // A chain ending in a call is a method result, not a named value.
    if matches!(t.get(j + 1).map(|x| &x.kind), Some(TokKind::Open('('))) {
        return None;
    }
    let hot = |s: &str| PF_CYCLE_IDENTS.contains(&s);
    if hot(left) && hot(right) {
        Some((left.clone(), right.to_string()))
    } else {
        None
    }
}

/// A3: discarded `Result`s from the persistence layer.
fn rule_fallible_result(
    rel: &str,
    lexed: &Lexed,
    map: &ScopeMap,
    ctx: &AnalyzeContext,
    out: &mut Vec<Violation>,
) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        let TokKind::Ident(name) = &t[i].kind else {
            continue;
        };
        if !matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Open('('))) {
            continue;
        }
        if !ctx.fallible_fns.contains(name.as_str()) {
            continue;
        }
        if map.enclosing(i).is_some_and(|f| f.cfg_test) {
            continue;
        }
        let method_call = i > 0 && t[i - 1].kind == TokKind::Punct('.');
        // Walk back to the expression start: over a `receiver.field.`
        // chain for method calls, or a `mod::path::` qualifier
        // (remembering the innermost qualifying module) otherwise.
        let mut start = i;
        let mut qualifier: Option<&str> = None;
        if method_call {
            while start >= 2
                && t[start - 1].kind == TokKind::Punct('.')
                && matches!(t[start - 2].kind, TokKind::Ident(_))
            {
                start -= 2;
            }
        }
        while start >= 3
            && t[start - 1].kind == TokKind::Punct(':')
            && t[start - 2].kind == TokKind::Punct(':')
        {
            match &t[start - 3].kind {
                TokKind::Ident(m) => {
                    qualifier.get_or_insert(m.as_str());
                    start -= 3;
                }
                _ => break,
            }
        }
        if let Some(q) = qualifier {
            // Qualified by a foreign module/type (e.g. `File::open`):
            // out of scope for this rule.
            if !FALLIBLE_MODULES.contains(&q) && q != "crate" && q != "self" && q != "super" {
                continue;
            }
        }
        let display = if let Some(q) = qualifier {
            format!("{q}::{name}")
        } else {
            name.clone()
        };
        // `let _ = ...` silences the compiler's must_use check; flag it
        // for persistence calls in any call form.
        let let_discard = start >= 3
            && t[start - 1].kind == TokKind::Punct('=')
            && matches!(&t[start - 2].kind, TokKind::Ident(u) if u == "_")
            && matches!(&t[start - 3].kind, TokKind::Ident(l) if l == "let");
        // Bare `call(...);` in statement position (free/path calls only:
        // method receivers make the statement start ambiguous, and rustc's
        // `must_use` already rejects bare method discards).
        let stmt_discard = !method_call
            && !let_discard
            && (start == 0
                || matches!(
                    t[start - 1].kind,
                    TokKind::Punct(';') | TokKind::Open('{') | TokKind::Close('}')
                ))
            && {
                let mut depth = 1i32;
                let mut j = i + 2;
                while j < t.len() && depth > 0 {
                    match &t[j].kind {
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                matches!(t.get(j).map(|x| &x.kind), Some(TokKind::Punct(';')))
            };
        if let_discard || stmt_discard {
            let how = if let_discard {
                "`let _ =`"
            } else {
                "a bare statement"
            };
            out.push(Violation {
                rule: "fallible-result",
                file: rel.to_string(),
                line: t[i].line,
                msg: format!(
                    "`Result` of `{display}` discarded with {how} — a swallowed \
                     persistence failure breaks the durability contract (DESIGN.md §14); \
                     handle it, propagate it, or waive with the reason the failure is \
                     benign"
                ),
            });
        }
    }
}
