//! Brace-aware scope layer on top of the flat lexer.
//!
//! The token-level rules in [`crate::rules`] treat a file as one flat
//! stream, which is enough for "this identifier is banned here" checks
//! but not for rules that must reason about *which function* code lives
//! in: panic-freedom applies only to the cycle-loop call graph, and
//! fallible-result discipline must ignore `#[cfg(test)]` modules.
//!
//! This module derives that structure with a single pass over the token
//! stream: a stack of brace frames classified as `mod`, `impl`/`trait`,
//! `fn`, or anonymous block, with item attributes (`#[cfg(test)]`)
//! captured and inherited downward. No external parser — the build is
//! offline (see `vendor/README.md`), so like the lexer this is
//! hand-rolled and deliberately approximate: it only needs to be right
//! about the constructs this workspace actually uses, and every rule
//! riding on it is pinned by fixtures.

use crate::lexer::{Lexed, TokKind, Token};
use std::collections::BTreeSet;
use std::ops::Range;

/// One `fn` item discovered in the file, with its token extent.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the signature: `[fn keyword, body `{`)`.
    pub sig: Range<usize>,
    /// Token range strictly inside the body braces.
    pub body: Range<usize>,
    /// Inside a `#[cfg(test)]` item (directly or inherited from an
    /// enclosing module): exempt from the analysis rules.
    pub cfg_test: bool,
}

/// All functions of one file, in source order.
#[derive(Debug, Default)]
pub struct ScopeMap {
    /// Every `fn` item (including nested fns and trait-impl methods;
    /// closures are anonymous and excluded).
    pub fns: Vec<FnScope>,
}

impl ScopeMap {
    /// The innermost function whose extent contains token index `idx`.
    pub fn enclosing(&self, idx: usize) -> Option<&FnScope> {
        self.fns
            .iter()
            .filter(|f| f.sig.start <= idx && idx < f.body.end)
            .max_by_key(|f| f.sig.start)
    }

    /// Scans a lexed file into its scope map.
    pub fn scan(lexed: &Lexed) -> ScopeMap {
        Scanner::default().run(&lexed.tokens)
    }
}

#[derive(Debug)]
struct Frame {
    /// The index into `fns` of the fn whose body this `{` opened; `None`
    /// for a `mod`/`impl` body or an anonymous block.
    fn_idx: Option<usize>,
    /// Effective test-gating at this frame (own attr or inherited).
    cfg_test: bool,
}

#[derive(Default)]
struct Scanner {
    frames: Vec<Frame>,
    fns: Vec<FnScope>,
    /// `#[cfg(test)]` seen among the attributes of the upcoming item.
    pending_cfg_test: bool,
    /// Frame for the next `{`: its fn index and test-gating (set by
    /// `mod`/`impl`/`fn` headers; `None` means anonymous block).
    pending_open: Option<(Option<usize>, bool)>,
    /// Nesting inside `(...)`/`[...]` groups: a `;` in an array type
    /// (`[u32; 2]`) must not be mistaken for an item-ending semicolon.
    delim: i32,
}

impl Scanner {
    fn inherited_cfg_test(&self) -> bool {
        self.frames.last().is_some_and(|f| f.cfg_test)
    }

    fn run(mut self, t: &[Token]) -> ScopeMap {
        let mut i = 0;
        while i < t.len() {
            match &t[i].kind {
                // Outer attribute `#[...]`: harvest idents for cfg(test).
                // Inner attributes `#![...]` are skipped without effect.
                TokKind::Punct('#') => {
                    let inner = matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Punct('!')));
                    let open = if inner { i + 2 } else { i + 1 };
                    if matches!(t.get(open).map(|x| &x.kind), Some(TokKind::Open('['))) {
                        let mut depth = 1usize;
                        let mut j = open + 1;
                        let mut saw_cfg = false;
                        let mut saw_test = false;
                        while j < t.len() && depth > 0 {
                            match &t[j].kind {
                                TokKind::Open(_) => depth += 1,
                                TokKind::Close(_) => depth -= 1,
                                TokKind::Ident(s) if s == "cfg" => saw_cfg = true,
                                TokKind::Ident(s) if s == "test" => saw_test = true,
                                _ => {}
                            }
                            j += 1;
                        }
                        if !inner && saw_cfg && saw_test {
                            self.pending_cfg_test = true;
                        }
                        i = j;
                        continue;
                    }
                }
                TokKind::Ident(kw) if kw == "mod" => {
                    // `mod name ;` declares an external file — no frame.
                    if matches!(t.get(i + 1).map(|x| &x.kind), Some(TokKind::Ident(_)))
                        && matches!(t.get(i + 2).map(|x| &x.kind), Some(TokKind::Open('{')))
                    {
                        let test = self.pending_cfg_test || self.inherited_cfg_test();
                        self.pending_open = Some((None, test));
                    }
                    self.pending_cfg_test = false;
                }
                TokKind::Ident(kw) if kw == "impl" || kw == "trait" => {
                    self.impl_header(t, i);
                    self.pending_cfg_test = false;
                }
                TokKind::Ident(kw) if kw == "fn" => {
                    if let Some(TokKind::Ident(name)) = t.get(i + 1).map(|x| &x.kind) {
                        // `fn(` is a fn-pointer type, not an item.
                        let test = self.pending_cfg_test || self.inherited_cfg_test();
                        self.fns.push(FnScope {
                            name: name.clone(),
                            line: t[i].line,
                            sig: i..i, // end patched at body open
                            body: 0..0,
                            cfg_test: test,
                        });
                        self.pending_open = Some((Some(self.fns.len() - 1), test));
                    }
                    self.pending_cfg_test = false;
                }
                TokKind::Ident(kw)
                    if matches!(
                        kw.as_str(),
                        "struct" | "enum" | "use" | "static" | "const" | "type" | "macro_rules"
                    ) =>
                {
                    self.pending_cfg_test = false;
                }
                TokKind::Open('(' | '[') => self.delim += 1,
                TokKind::Close(')' | ']') => self.delim -= 1,
                TokKind::Punct(';') if self.delim == 0 => {
                    // A top-level `;` before the pending `{` means the
                    // item had no body after all (e.g. a trait method
                    // declaration).
                    if let Some((Some(idx), _)) = self.pending_open {
                        // Signature-only: keep it with an empty body.
                        self.fns[idx].sig = self.fns[idx].sig.start..i;
                    }
                    self.pending_open = None;
                }
                TokKind::Open('{') => {
                    let (fn_idx, test) = self
                        .pending_open
                        .take()
                        .unwrap_or((None, self.inherited_cfg_test()));
                    if let Some(idx) = fn_idx {
                        self.fns[idx].sig = self.fns[idx].sig.start..i;
                        self.fns[idx].body = (i + 1)..(i + 1);
                    }
                    self.frames.push(Frame {
                        fn_idx,
                        cfg_test: test,
                    });
                }
                TokKind::Close('}') => {
                    if let Some(frame) = self.frames.pop() {
                        if let Some(idx) = frame.fn_idx {
                            self.fns[idx].body = self.fns[idx].body.start..i;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        ScopeMap { fns: self.fns }
    }

    /// Classifies an `impl`/`trait` header starting at token `i`,
    /// setting `pending_open` for its body brace. Type-position
    /// `impl Trait` opens no scope.
    fn impl_header(&mut self, t: &[Token], i: usize) {
        if i > 0 {
            match &t[i - 1].kind {
                // `fn f(x: impl Fn())`, `-> impl Iterator`, `&impl T`, ...
                TokKind::Punct(':' | ',' | '<' | '>' | '=' | '&' | '+') | TokKind::Open('(') => {
                    return;
                }
                TokKind::Ident(s) if s == "dyn" => return,
                _ => {}
            }
        }
        for tok in &t[i + 1..] {
            match tok.kind {
                TokKind::Open('{') => {
                    let test = self.pending_cfg_test || self.inherited_cfg_test();
                    self.pending_open = Some((None, test));
                    return;
                }
                TokKind::Punct(';') => return,
                _ => {}
            }
        }
    }
}

/// Rust keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: [&str; 9] = [
    "if", "while", "for", "match", "loop", "return", "move", "fn", "unsafe",
];

/// Collects the names invoked inside a body token range: free and path
/// calls (`name(...)`, `module::name(...)`) and method calls
/// (`.name(...)`). Macro invocations (`name!(...)`) are *not* calls —
/// their argument tokens are still in the stream, so calls inside them
/// are seen. This is a name-level over-approximation: resolving `x.tick()`
/// to every `fn tick` in the crate is deliberate — reachability built on
/// it can only over-include, never silently drop a hot function.
pub fn called_names(tokens: &[Token], body: &Range<usize>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in body.clone() {
        let TokKind::Ident(name) = &tokens[i].kind else {
            continue;
        };
        if CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        if matches!(tokens.get(i + 1).map(|x| &x.kind), Some(TokKind::Open('('))) {
            out.insert(name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> ScopeMap {
        ScopeMap::scan(&lex(src))
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let m = scan(
            "fn free() { body(); }\n\
             struct S;\n\
             impl S { fn method(&self) -> u32 { 1 } }\n\
             impl Clone for S { fn clone(&self) -> S { S } }\n",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "method", "clone"]);
        assert_eq!(m.fns[0].line, 1);
    }

    #[test]
    fn mod_nesting_and_cfg_test_inheritance() {
        let m = scan(
            "mod outer {\n\
               fn a() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                 fn b() {}\n\
                 impl T { fn c(&self) {} }\n\
               }\n\
             }\n\
             #[cfg(test)]\n\
             fn d() {}\n\
             fn e() {}\n",
        );
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).expect("fn");
        assert!(!by_name("a").cfg_test);
        assert!(by_name("b").cfg_test);
        assert!(by_name("c").cfg_test, "impl inside test mod inherits");
        assert!(by_name("d").cfg_test);
        assert!(!by_name("e").cfg_test, "cfg(test) does not leak forward");
    }

    #[test]
    fn array_type_semicolon_does_not_end_the_item() {
        // The `;` inside `[u32; 2]` (param or return position) is part of
        // an array type, not an item terminator: the fn keeps its body.
        let m =
            scan("fn split(v: &[u32]) -> [u32; 2] { [v[0], v[1]] }\nfn sig_only(x: [u8; 4]);\n");
        assert_eq!(m.fns.len(), 2);
        assert!(!m.fns[0].body.is_empty(), "split must have a body");
        assert!(m.fns[1].body.is_empty(), "sig_only is signature-only");
    }

    #[test]
    fn body_ranges_cover_exactly_the_braces() {
        let src = "fn f() { inner(); } fn g() {}";
        let lexed = lex(src);
        let m = ScopeMap::scan(&lexed);
        let f = &m.fns[0];
        let inner: Vec<&TokKind> = lexed.tokens[f.body.clone()]
            .iter()
            .map(|t| &t.kind)
            .collect();
        assert_eq!(
            inner,
            [
                &TokKind::Ident("inner".into()),
                &TokKind::Open('('),
                &TokKind::Close(')'),
                &TokKind::Punct(';')
            ]
        );
        assert!(m.fns[1].body.is_empty());
    }

    #[test]
    fn type_position_impl_opens_no_scope() {
        let m = scan("fn f(x: impl Fn() -> u8) -> impl Iterator<Item = u8> { g() }");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "f");
    }

    #[test]
    fn trait_method_declaration_without_body() {
        let m = scan("trait T { fn decl(&self); fn with_default(&self) { x() } }");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["decl", "with_default"]);
        assert!(m.fns[0].body.is_empty());
        assert!(!m.fns[1].body.is_empty());
    }

    #[test]
    fn called_names_sees_through_macros_and_methods() {
        let src = "fn f() { free(); x.method(); path::qualified(); assert!(check(y)); }";
        let lexed = lex(src);
        let m = ScopeMap::scan(&lexed);
        let calls = called_names(&lexed.tokens, &m.fns[0].body);
        for n in ["free", "method", "qualified", "check"] {
            assert!(calls.contains(n), "missing {n}: {calls:?}");
        }
        assert!(!calls.contains("assert"), "macros are not calls");
    }

    #[test]
    fn enclosing_picks_the_innermost_fn() {
        let src = "fn outer() { fn inner() { deep(); } inner(); }";
        let lexed = lex(src);
        let m = ScopeMap::scan(&lexed);
        let deep_idx = lexed
            .tokens
            .iter()
            .position(|t| t.kind == TokKind::Ident("deep".into()))
            .expect("deep");
        assert_eq!(m.enclosing(deep_idx).expect("fn").name, "inner");
    }
}
