//! Rule 8: swallowed errors on the serving/decode path.
//!
//! In files that carry a `serving-path` or `decode-fn` marker, silently
//! discarding a `Result` hides exactly the failure class PR 5 kept
//! finding by hand (lazy-load errors swallowed into wrong answers).
//! Three shapes are findings:
//!
//! * `let _ = fallible(…);` — the `Result` is explicitly dropped;
//! * a bare `fallible(…);` statement — the `Result` is dropped via the
//!   `#[must_use]`-defeating semicolon (detected through the call
//!   graph's return-type table, so a helper in another crate counts);
//! * a statement-final `.ok();` — converts the error to `None` and drops
//!   it (`.ok()` exists only on `Result`, so no resolution is needed).
//!
//! `fallible(…)?;` propagates and is fine. Call resolution uses
//! [`CallGraph::resolve_exact`] only — an unresolved or merely
//! name-matched callee is treated as infallible rather than borrowing
//! `returns_result` from same-named functions elsewhere (a bare
//! `children.insert(…)` is `Vec::insert`, not `BPlusTree::insert`).
//! Escape:
//! `// roadlint: allow(discard) reason="…"`. Unit-test modules are
//! exempt.

use crate::callgraph::{self, CallGraph};
use crate::flow::stmt_semi;
use crate::lexer::Token;
use crate::markers::Marker;
use crate::syntax;
use crate::{FileData, Finding};

/// Runs the swallowed-error pass over the workspace.
pub fn check(files: &[FileData], cg: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, fd) in files.iter().enumerate() {
        let decode_file = fd.markers.markers.iter().any(|m| m.marker == Marker::DecodeFn);
        if !fd.markers.serving_path() && !decode_file {
            continue;
        }
        let toks = &fd.lexed.tokens;
        let escaped = |line: u32| {
            fd.markers.has_on_line(&Marker::AllowDiscard, line)
                || (line > 0 && fd.markers.has_on_line(&Marker::AllowDiscard, line - 1))
        };
        let mut report = |line: u32, message: String| {
            if !escaped(line) {
                out.push(Finding { file: fd.path.clone(), line, rule: "swallowed-error", message });
            }
        };
        for i in 0..toks.len() {
            if syntax::in_ranges(&fd.test_ranges, i) {
                continue;
            }
            let t = &toks[i];
            // `let _ = …;`
            if t.ident() == Some("let")
                && toks.get(i + 1).is_some_and(|t| t.ident() == Some("_"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
            {
                let end = stmt_semi(toks, i + 3);
                // `let _ = fallible()?;` propagates before dropping `Ok`.
                let propagates = (i + 3..end).any(|k| toks[k].is_punct('?'));
                if !propagates {
                    if let Some(callee) = fallible_call_in(toks, i + 3, end, fi, cg) {
                        report(
                            t.line,
                            format!(
                                "`let _ =` discards the Result of {callee}; handle or propagate \
                                 the error, or mark `// roadlint: allow(discard) reason=\"…\"`"
                            ),
                        );
                    }
                }
                continue;
            }
            // Statement-final `.ok();`
            if t.is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.ident() == Some("ok"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                && toks.get(i + 4).is_some_and(|t| t.is_punct(';'))
                && bare_statement(toks, i)
            {
                let line = toks[i + 1].line;
                report(
                    line,
                    "statement-final `.ok()` swallows the error; handle or propagate it, \
                     or mark `// roadlint: allow(discard) reason=\"…\"`"
                        .to_owned(),
                );
                continue;
            }
            // Bare `fallible(…);` statement.
            if t.is_punct(';') && i >= 2 && toks[i - 1].is_punct(')') {
                let open = syntax::match_delim_back(toks, i - 1);
                let Some(name_idx) = open.checked_sub(1) else { continue };
                let Some(site) = callgraph::call_at(toks, name_idx) else { continue };
                if site.name == "ok" || !bare_statement(toks, name_idx) {
                    continue;
                }
                let Some(me) = cg.enclosing_fn(fi, name_idx) else { continue };
                let callees = cg.resolve_exact(me, &site);
                if let Some(&c) = callees.iter().find(|&&c| cg.fns[c].returns_result) {
                    report(
                        site.line,
                        format!(
                            "bare `{}(…);` statement drops a Result ({} is fallible); `?` it, \
                             handle it, or mark `// roadlint: allow(discard) reason=\"…\"`",
                            site.name,
                            cg.qualified(c)
                        ),
                    );
                }
            }
        }
    }
    out
}

/// The first call in the region whose exact resolution says it returns
/// a `Result`, as its qualified name.
fn fallible_call_in(
    toks: &[Token],
    a: usize,
    b: usize,
    fi: usize,
    cg: &CallGraph,
) -> Option<String> {
    for k in a..b {
        let Some(site) = callgraph::call_at(toks, k) else { continue };
        let Some(me) = cg.enclosing_fn(fi, k) else { continue };
        let callees = cg.resolve_exact(me, &site);
        if let Some(&c) = callees.iter().find(|&&c| cg.fns[c].returns_result) {
            return Some(cg.qualified(c));
        }
    }
    None
}

/// True when the statement containing token `at` is a bare expression:
/// it follows a `;`/`{`/`}` boundary with no `let`, assignment, `return`
/// or other consuming context in between (walking back through a method
/// chain).
fn bare_statement(toks: &[Token], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return true;
        }
        if t.is_punct(')') || t.is_punct(']') {
            j = syntax::match_delim_back(toks, j);
            continue;
        }
        if t.is_punct('.') || t.is_punct('?') || t.is_punct('*') || t.ident().is_some() {
            if t.ident().is_some_and(|id| {
                matches!(id, "let" | "return" | "match" | "if" | "while" | "for" | "in")
            }) {
                return false;
            }
            continue;
        }
        // `=`, operators, `(`, `,` … — the value is consumed.
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![FileData::new("t.rs", src)];
        let cg = CallGraph::build(&files);
        check(&files, &cg)
    }

    const HELPERS: &str = "impl S {
        fn flush(&self) -> Result<(), E> { Ok(()) }
        fn tick(&self) {}
    }";

    #[test]
    fn let_underscore_on_result_is_a_finding() {
        let f = run(&format!(
            "// roadlint: serving-path\n{HELPERS}
             impl S {{ fn f(&self) {{ let _ = self.flush(); }} }}"
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("flush"));
    }

    #[test]
    fn question_mark_and_infallible_and_escape_are_quiet() {
        let f = run(&format!(
            "// roadlint: serving-path\n{HELPERS}
             impl S {{
                 fn f(&self) -> Result<(), E> {{
                     let _ = self.flush()?;
                     self.tick();
                     self.flush()?;
                     // roadlint: allow(discard) reason=\"best-effort prefetch\"
                     let _ = self.flush();
                     Ok(())
                 }}
             }}"
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_fallible_statement_is_a_finding() {
        let f = run(&format!(
            "// roadlint: serving-path\n{HELPERS}
             impl S {{ fn f(&self) {{ self.flush(); }} }}"
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("S::flush"), "{f:?}");
    }

    #[test]
    fn statement_final_ok_is_a_finding_but_bound_ok_is_not() {
        let f = run(&format!(
            "// roadlint: serving-path\n{HELPERS}
             impl S {{
                 fn f(&self) {{ self.flush().ok(); }}
                 fn g(&self) -> Option<()> {{ let v = self.flush().ok(); v }}
             }}"
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".ok()"));
    }

    #[test]
    fn unmarked_files_and_test_mods_are_exempt() {
        let f = run(&format!(
            "{HELPERS}
             impl S {{ fn f(&self) {{ let _ = self.flush(); }} }}
             #[cfg(test)]
             mod tests {{ fn t() {{ let _ = s.flush(); }} }}"
        ));
        assert!(f.is_empty(), "{f:?}");
    }
}
