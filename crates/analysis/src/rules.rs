//! The per-file roadlint rules.
//!
//! * **hot-alloc** — inside `hot-path` fences, no fresh heap
//!   allocations (`Vec::new`, `vec![]`, `Box::new`, `format!`,
//!   `.to_vec()`, `.clone()`, `.collect()`, …). Escape: `allow(alloc)`.
//! * **atomic-ordering** — every `Ordering::Relaxed` needs an adjacent
//!   `relaxed-ok reason="…"`; `Ordering::SeqCst` is flagged outright
//!   (pick the weakest sufficient ordering, or justify via `seqcst-ok`).
//!
//! Unit-test modules (`#[cfg(test)] mod`) are exempt from all of these.

use crate::lexer::Token;
use crate::markers::{Marker, Markers};
use crate::syntax::{self, FnSpan};
use crate::{FileData, Finding};

/// Types whose constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "Box",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Rc",
];

/// Constructor names that allocate on the types above.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Method calls that allocate a fresh container.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "clone", "collect"];

/// Runs every per-file rule over one parsed file.
pub fn check_file(fd: &FileData) -> Vec<Finding> {
    let file = fd.path.as_str();
    let markers = &fd.markers;
    let fns = &fd.fns;

    let mut findings = markers.hygiene.clone();
    // `taint-source` markers have their fn association resolved by the
    // call graph; here we only check they are not dangling.
    dangling_markers(file, markers, Marker::TaintSource, fns, &mut findings);

    let ctx = Ctx { file, tokens: &fd.lexed.tokens, markers, test_ranges: &fd.test_ranges };
    hot_alloc_rule(&ctx, &mut findings);
    atomic_ordering_rule(&ctx, &mut findings);
    findings
}

/// Shared per-file scanning context.
pub(crate) struct Ctx<'a> {
    pub file: &'a str,
    pub tokens: &'a [Token],
    pub markers: &'a Markers,
    pub test_ranges: &'a [(usize, usize)],
}

impl<'a> Ctx<'a> {
    fn excluded(&self, i: usize) -> bool {
        syntax::in_ranges(self.test_ranges, i)
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding { file: self.file.to_owned(), line, rule, message }
    }

    /// True when an escape marker (with a reason) sits on the finding's
    /// line or the line directly above it.
    fn line_escaped(&self, marker: &Marker, line: u32) -> bool {
        self.markers.has_on_line(marker, line)
            || (line > 0 && self.markers.has_on_line(marker, line - 1))
    }
}

/// Reports each occurrence of `marker` with no function directly below
/// it.
fn dangling_markers(
    file: &str,
    markers: &Markers,
    marker: Marker,
    fns: &[FnSpan],
    findings: &mut Vec<Finding>,
) {
    for m in markers.markers.iter().filter(|m| m.marker == marker) {
        let next = fns.iter().filter(|f| f.line > m.line).min_by_key(|f| f.line);
        match next {
            Some(f) if f.line - m.line <= 5 => {}
            _ => findings.push(Finding {
                file: file.to_owned(),
                line: m.line,
                rule: "marker",
                message: format!(
                    "{:?} marker is not directly above a function (nearest `fn` is too far)",
                    marker
                ),
            }),
        }
    }
}

/// Rule 3: no fresh heap allocations inside hot-path fences.
fn hot_alloc_rule(ctx: &Ctx, findings: &mut Vec<Finding>) {
    let ranges = ctx.markers.hot_ranges();
    if ranges.is_empty() {
        return;
    }
    let in_fence = |line: u32| ranges.iter().any(|&(a, b)| line > a && line < b);
    let toks = ctx.tokens;
    let mut report = |i: usize, line: u32, msg: String| {
        if ctx.excluded(i) || ctx.line_escaped(&Marker::AllowAlloc, line) {
            return;
        }
        findings.push(ctx.finding("hot-alloc", line, msg));
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if !in_fence(t.line) {
            continue;
        }
        if let Some(name) = t.ident() {
            // `Vec::new(…)`-shaped constructor paths, with or without a
            // turbofish (`Vec::<u8>::with_capacity(…)`).
            if ALLOC_TYPES.contains(&name)
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                let mut at = i + 3;
                if toks.get(at).is_some_and(|t| t.is_punct('<')) {
                    let mut angle = 0usize;
                    while let Some(t) = toks.get(at) {
                        if t.is_punct('<') {
                            angle += 1;
                        } else if t.is_punct('>') && !toks[at - 1].is_punct('-') {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        at += 1;
                    }
                    // Past the closing `>` and the `::` after it.
                    at += 3;
                    if !(toks.get(at - 2).is_some_and(|t| t.is_punct(':'))
                        && toks.get(at - 1).is_some_and(|t| t.is_punct(':')))
                    {
                        continue;
                    }
                }
                if let Some(ctor) = toks.get(at).and_then(|t| t.ident()) {
                    if ALLOC_CTORS.contains(&ctor) {
                        report(
                            i,
                            t.line,
                            format!("{name}::{ctor} allocates inside a hot-path fence; reuse workspace buffers"),
                        );
                    }
                }
            }
            // Allocating macros.
            if (name == "vec" || name == "format")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                report(i, t.line, format!("{name}! allocates inside a hot-path fence"));
            }
        }
        // Allocating method calls (`Arc::clone(&x)` is path-form and
        // intentionally not matched — it only bumps a refcount).
        if t.is_punct('.') {
            if let (Some(m), true) = (
                toks.get(i + 1).and_then(|t| t.ident()),
                toks.get(i + 2).is_some_and(|t| t.is_punct('(')),
            ) {
                if ALLOC_METHODS.contains(&m) {
                    report(
                        i + 1,
                        toks[i + 1].line,
                        format!(".{m}() allocates inside a hot-path fence"),
                    );
                }
            }
        }
    }
}

/// Rule 4: atomic-ordering hygiene, workspace-wide.
fn atomic_ordering_rule(ctx: &Ctx, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if toks[i].ident() != Some("Ordering")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        let Some(ord) = toks.get(i + 3).and_then(|t| t.ident()) else { continue };
        if ctx.excluded(i) {
            continue;
        }
        let line = toks[i + 3].line;
        match ord {
            "Relaxed" => {
                let ok = ctx.markers.has_on_line(&Marker::RelaxedOk, line)
                    || (1..=2)
                        .any(|d| line > d && ctx.markers.has_on_line(&Marker::RelaxedOk, line - d));
                if !ok {
                    findings.push(
                        ctx.finding(
                            "atomic-ordering",
                            line,
                            "Ordering::Relaxed needs an adjacent relaxed-ok reason=\"…\" marker"
                                .to_owned(),
                        ),
                    );
                }
            }
            "SeqCst" => {
                let ok = ctx.markers.has_on_line(&Marker::SeqCstOk, line)
                    || (1..=2)
                        .any(|d| line > d && ctx.markers.has_on_line(&Marker::SeqCstOk, line - d));
                if !ok {
                    findings.push(ctx.finding(
                        "atomic-ordering",
                        line,
                        "bare Ordering::SeqCst: pick the weakest sufficient ordering or justify with seqcst-ok reason=\"…\"".to_owned(),
                    ));
                }
            }
            _ => {}
        }
    }
}
