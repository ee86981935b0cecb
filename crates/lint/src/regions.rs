//! Structural regions over the token stream: `#[cfg(test)]` / `#[test]`
//! items (excluded from every rule — tests may unwrap and hash freely) and
//! function bodies (needed by the span-pairing and kernel-accessor rules).

use crate::lexer::{Tok, TokKind};

/// A function found in the stream.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    pub name: String,
    /// Half-open token range of the body (inside the braces), when the
    /// function has one (trait method declarations do not).
    pub body: Option<(usize, usize)>,
    /// True when the parameter list mentions `WarpCtx` — the marker for
    /// simulated-kernel code, where the instrumented-accessor rule applies.
    pub has_warpctx: bool,
}

#[derive(Debug, Default)]
pub struct Regions {
    /// Half-open token ranges covered by test-only items.
    test_ranges: Vec<(usize, usize)>,
    pub fns: Vec<FnInfo>,
}

impl Regions {
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= idx && idx < b)
    }

    /// True when `idx` sits inside any function whose parameters mention
    /// `WarpCtx` (including helpers called with the warp context).
    pub fn in_kernel_fn(&self, idx: usize) -> bool {
        self.fns
            .iter()
            .any(|f| f.has_warpctx && f.body.is_some_and(|(a, b)| a <= idx && idx < b))
    }
}

/// Finds the token index just past the matching close for the open bracket
/// at `open` (which must be `(`, `[`, or `{`). Returns `toks.len()` when
/// unbalanced (truncated input).
fn match_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// Computes test ranges and function infos for one file's tokens.
pub fn compute(toks: &[Tok]) -> Regions {
    let mut r = Regions::default();
    collect_test_ranges(toks, &mut r);
    collect_fns(toks, &mut r);
    r
}

fn collect_test_ranges(toks: &[Tok], r: &mut Regions) {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct('#') && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_end = match_close(toks, i + 1);
        let idents: Vec<&str> = toks[i + 1..attr_end]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` mark the item
        // test-only; `#[cfg(not(test))]` is production code.
        let is_test_attr = idents == ["test"]
            || (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"));
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_end;
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            j = match_close(toks, j + 1);
        }
        // The item runs to its body's closing brace, or to a top-level `;`
        // for brace-less items (`#[cfg(test)] use …;`).
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut end = toks.len();
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    ";" if paren == 0 && bracket == 0 => {
                        end = j + 1;
                        break;
                    }
                    "{" if paren == 0 && bracket == 0 => {
                        end = match_close(toks, j);
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        r.test_ranges.push((i, end));
        i = end;
    }
}

fn collect_fns(toks: &[Tok], r: &mut Regions) {
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn` inside a type like `Fn(u32)` lexes differently
        }
        // Find the parameter list's `(`: immediately after the name, or
        // after a generic parameter list. Generic bounds may themselves
        // contain `Fn(…)` parens, so walk with angle-depth tracking and
        // take the first `(` at angle depth 0. `->` inside generics would
        // miscount the `>`, so it is skipped as a pair.
        let mut j = i + 2;
        let mut angle = 0i32;
        let params_open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') => {
                    if j > 0 && toks[j - 1].is_punct('-') {
                        // the `>` of `->`
                    } else {
                        angle -= 1;
                    }
                }
                Some(t) if t.is_punct('(') && angle <= 0 => break Some(j),
                Some(t) if (t.is_punct('{') || t.is_punct(';')) && angle <= 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(params_open) = params_open else {
            continue;
        };
        let params_end = match_close(toks, params_open);
        let has_warpctx = toks[params_open..params_end]
            .iter()
            .any(|t| t.is_ident("WarpCtx"));
        // Body: first `{` before a top-level `;` (return types can hold
        // `[u32; 4]`, so `;` only terminates at bracket depth 0).
        let mut k = params_end;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    ";" if paren == 0 && bracket == 0 => break,
                    "{" if paren == 0 && bracket == 0 => {
                        body = Some((k + 1, match_close(toks, k).saturating_sub(1)));
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        r.fns.push(FnInfo {
            start: i,
            line: toks[i].line,
            name: name_tok.text.clone(),
            body,
            has_warpctx,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    impl Regions {
        /// The innermost function body containing `idx`, if any.
        fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
            self.fns
                .iter()
                .filter(|f| f.body.is_some_and(|(a, b)| a <= idx && idx < b))
                .min_by_key(|f| {
                    let (a, b) = f.body.unwrap_or((0, usize::MAX));
                    b - a
                })
        }
    }

    fn regions(src: &str) -> (Vec<Tok>, Regions) {
        let toks = lex(src).toks;
        let r = compute(&toks);
        (toks, r)
    }

    fn idx_of(toks: &[Tok], name: &str) -> usize {
        toks.iter().position(|t| t.is_ident(name)).expect("ident")
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn lib_code() { a(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn helper() { b(); }\n}\n\
                   fn more_lib() { c(); }";
        let (toks, r) = regions(src);
        assert!(!r.in_test(idx_of(&toks, "a")));
        assert!(r.in_test(idx_of(&toks, "b")));
        assert!(!r.in_test(idx_of(&toks, "c")));
    }

    #[test]
    fn test_attr_fn_is_a_test_region() {
        let src = "#[test]\nfn check() { x(); }\nfn prod() { y(); }";
        let (toks, r) = regions(src);
        assert!(r.in_test(idx_of(&toks, "x")));
        assert!(!r.in_test(idx_of(&toks, "y")));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn prod() { p(); }";
        let (toks, r) = regions(src);
        assert!(!r.in_test(idx_of(&toks, "p")));
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() { q(); }";
        let (toks, r) = regions(src);
        assert!(r.in_test(idx_of(&toks, "HashMap")));
        assert!(!r.in_test(idx_of(&toks, "q")));
    }

    #[test]
    fn stacked_attributes_before_the_item_are_covered() {
        let src = "#[test]\n#[ignore]\nfn slow() { s(); }\nfn prod() { t(); }";
        let (toks, r) = regions(src);
        assert!(r.in_test(idx_of(&toks, "s")));
        assert!(!r.in_test(idx_of(&toks, "t")));
    }

    #[test]
    fn fn_bodies_and_warpctx_params_are_found() {
        let src = "impl K { fn run(&self, w: &mut WarpCtx<'_>) { body(); } }\n\
                   fn plain(x: u32) -> [u32; 4] { other(); [x; 4] }";
        let (toks, r) = regions(src);
        assert_eq!(r.fns.len(), 2);
        assert!(r.in_kernel_fn(idx_of(&toks, "body")));
        assert!(!r.in_kernel_fn(idx_of(&toks, "other")));
        let f = r.enclosing_fn(idx_of(&toks, "other")).expect("enclosing");
        assert_eq!(f.name, "plain");
    }

    #[test]
    fn generic_fn_with_fn_bound_parses() {
        let src = "fn apply<F: Fn(u32) -> u32>(f: F) { inner(); }";
        let (toks, r) = regions(src);
        assert_eq!(r.fns.len(), 1);
        let f = r.enclosing_fn(idx_of(&toks, "inner")).expect("enclosing");
        assert_eq!(f.name, "apply");
    }

    #[test]
    fn nested_fns_attribute_to_the_innermost() {
        let src = "fn outer() { fn inner() { deep(); } shallow(); }";
        let (toks, r) = regions(src);
        assert_eq!(
            r.enclosing_fn(idx_of(&toks, "deep")).map(|f| &*f.name),
            Some("inner")
        );
        assert_eq!(
            r.enclosing_fn(idx_of(&toks, "shallow")).map(|f| &*f.name),
            Some("outer")
        );
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> u32; }";
        let (_, r) = regions(src);
        assert_eq!(r.fns.len(), 1);
        assert!(r.fns[0].body.is_none());
    }
}
