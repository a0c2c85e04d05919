//! Shared token-shape helpers: brace matching, function extents and
//! `#[cfg(test)] mod` exclusion ranges.

use crate::lexer::Token;

/// Returns the index of the delimiter matching the opener at `open`
/// (`(`/`)`, `[`/`]` or `{`/`}`), or `tokens.len()` when unterminated.
pub fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match &tokens[open].tok {
        crate::lexer::Tok::Punct('(') => ('(', ')'),
        crate::lexer::Tok::Punct('[') => ('[', ']'),
        crate::lexer::Tok::Punct('{') => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Scanning backwards from `close`, the index of the matching opener.
pub fn match_delim_back(tokens: &[Token], close: usize) -> usize {
    let (o, c) = match &tokens[close].tok {
        crate::lexer::Tok::Punct(')') => ('(', ')'),
        crate::lexer::Tok::Punct(']') => ('[', ']'),
        crate::lexer::Tok::Punct('}') => ('{', '}'),
        _ => return close,
    };
    let mut depth = 0i64;
    for i in (0..=close).rev() {
        if tokens[i].is_punct(c) {
            depth += 1;
        } else if tokens[i].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    0
}

/// One function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token range `(open_brace, close_brace)` of the body; `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the signature's return type mentions a `…Guard` type —
    /// the lock-order rule treats a call to such a function like a lock
    /// acquisition held by the caller.
    pub guard_returning: bool,
}

impl FnSpan {
    /// True when token index `i` falls inside this function's body.
    pub fn contains(&self, i: usize) -> bool {
        self.body.is_some_and(|(a, b)| i > a && i < b)
    }
}

/// Extracts every `fn` item (including nested ones) with its body extent.
pub fn functions(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("fn") {
            let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else {
                i += 1;
                continue;
            };
            // Parameter list: first `(` after the name (skipping generics).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('(') {
                j += 1;
            }
            if j >= tokens.len() {
                break;
            }
            let params_end = match_delim(tokens, j);
            // Between the params and the body: return type / where clause.
            // A `;` first means a bodiless declaration.
            let mut k = params_end + 1;
            let mut guard_returning = false;
            let mut body = None;
            while k < tokens.len() {
                if tokens[k].is_punct(';') {
                    break;
                }
                if tokens[k].is_punct('{') {
                    body = Some((k, match_delim(tokens, k)));
                    break;
                }
                if tokens[k].ident().is_some_and(|id| id.contains("Guard")) {
                    guard_returning = true;
                }
                k += 1;
            }
            out.push(FnSpan {
                name: name.to_owned(),
                line: tokens[i].line,
                fn_idx: i,
                body,
                guard_returning,
            });
            // Continue scanning *inside* the body too (nested fns, and the
            // linear rules below want every token anyway).
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// True when the file is on the serving path: one of its inner attributes
/// denies `clippy::indexing_slicing`, as the serving-path modules'
/// `#![cfg_attr(not(test), deny(clippy::indexing_slicing, …))]` does.
pub fn denies_panics(tokens: &[Token]) -> bool {
    (2..tokens.len()).any(|open| {
        let inner = tokens[open - 2].is_punct('#')
            && tokens[open - 1].is_punct('!')
            && tokens[open].is_punct('[');
        inner && {
            let attr = &tokens[open..match_delim(tokens, open).min(tokens.len())];
            let has = |name| attr.iter().any(|t| t.ident() == Some(name));
            has("deny") && has("indexing_slicing")
        }
    })
}

/// Token ranges covered by `#[cfg(test)] mod … { … }` items: unit-test
/// modules are exempt from every rule.
pub fn test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].ident() == Some("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].ident() == Some("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip further attributes, visibility and the `mod name` tokens up
        // to the opening brace; bail if something else follows.
        let mut j = i + 7;
        let mut saw_mod = false;
        while j < tokens.len() {
            match tokens[j].ident() {
                Some("mod") => {
                    saw_mod = true;
                    j += 1;
                }
                Some(_) => j += 1,
                None if tokens[j].is_punct('#')
                    && j + 1 < tokens.len()
                    && tokens[j + 1].is_punct('[') =>
                {
                    j = match_delim(tokens, j + 1) + 1;
                }
                None if tokens[j].is_punct('{') => break,
                None => break,
            }
        }
        if saw_mod && j < tokens.len() && tokens[j].is_punct('{') {
            let end = match_delim(tokens, j);
            out.push((j, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// True when token index `i` is inside any of `ranges` (exclusive of the
/// braces themselves is fine for every rule's purposes).
pub fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn function_extents_and_guard_detection() {
        let src = "
            impl X {
                fn plain(&self) -> u32 { 1 }
                fn guarded(&self) -> Result<MutexGuard<'_, T>, E> { self.m.lock() }
                fn decl(&self);
            }";
        let l = lex(src);
        let fns = functions(&l.tokens);
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].guard_returning);
        assert!(fns[1].guard_returning);
        assert!(fns[1].body.is_some());
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn test_mods_are_found() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); }
            }";
        let l = lex(src);
        let ranges = test_mod_ranges(&l.tokens);
        assert_eq!(ranges.len(), 1);
        let unwrap_idx =
            l.tokens.iter().position(|t| t.ident() == Some("unwrap")).expect("unwrap token");
        assert!(in_ranges(&ranges, unwrap_idx));
        let live_idx = l.tokens.iter().position(|t| t.ident() == Some("live")).expect("live");
        assert!(!in_ranges(&ranges, live_idx));
    }

    /// The serving path is the modules that deny `clippy::indexing_slicing`
    /// in an inner attribute, plain or under `cfg_attr`; an `expect` of it,
    /// an outer attribute or none at all is not.
    #[test]
    fn serving_path_is_the_modules_that_deny_indexing() {
        let serving = |src: &str| denies_panics(&lex(src).tokens);
        assert!(serving("#![deny(clippy::indexing_slicing)] fn f() {}"));
        assert!(serving(
            "//! Docs.\n#![cfg_attr(not(test), deny(clippy::panic, clippy::indexing_slicing))]\n"
        ));
        assert!(!serving("#![deny(clippy::panic)] fn f() {}"));
        assert!(!serving("#![expect(clippy::indexing_slicing, reason = \"x\")] fn f() {}"));
        assert!(!serving("#[deny(clippy::indexing_slicing)] fn f() {}"));
        assert!(!serving("fn f() { let xs = [0]; xs[0] }"));
    }
}
