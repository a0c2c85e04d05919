//! Parsing of roadlint marker comments.
//!
//! A marker is a comment containing the tool name followed by a colon and
//! one directive. The directives (documented in ARCHITECTURE.md
//! §"Invariants and static analysis"):
//!
//! | directive | effect |
//! |---|---|
//! | `hot-path` / `end hot-path` | fence a region where heap allocation is banned |
//! | `allow(alloc) reason="…"` | escape: this line and the next may allocate |
//! | `relaxed-ok reason="…"` | justifies an adjacent `Ordering::Relaxed` |
//! | `seqcst-ok reason="…"` | justifies an adjacent `Ordering::SeqCst` |
//! | `lock(<class>)` | classifies an unrecognized lock acquisition on this line |
//! | `taint-source` | the next function's return value is untrusted input |
//! | `sanitized reason="…"` | taint escape: a sink on this/next line is bounded |
//! | `allow(io-under-lock) reason="…"` | escape: guard intentionally held across page IO |
//!
//! Every escape *requires* a non-empty reason; an escape without one is
//! itself a finding and does not suppress anything.
//!
//! The serving path is not a marker: it is the modules that deny panics
//! to clippy ([`crate::syntax::denies_panics`]).

use crate::lexer::Comment;
use crate::Finding;

/// One parsed marker directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    HotPathStart,
    HotPathEnd,
    AllowAlloc,
    RelaxedOk,
    SeqCstOk,
    LockClass(String),
    TaintSource,
    /// Taint escape with its reason text (shown in the verdict table).
    Sanitized(String),
    AllowIoUnderLock,
}

/// A marker plus the line its comment starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkerAt {
    pub marker: Marker,
    pub line: u32,
}

/// All markers of one file, plus hygiene findings (unknown directives,
/// escapes without reasons).
#[derive(Debug, Default)]
pub struct Markers {
    pub markers: Vec<MarkerAt>,
    pub hygiene: Vec<Finding>,
}

impl Markers {
    /// True if `marker` appears on line `l`.
    pub fn has_on_line(&self, marker: &Marker, l: u32) -> bool {
        self.markers.iter().any(|m| &m.marker == marker && m.line == l)
    }

    /// The manual lock class attached to line `l`, if any.
    pub fn lock_class_on_line(&self, l: u32) -> Option<&str> {
        self.markers.iter().find_map(|m| match &m.marker {
            Marker::LockClass(c) if m.line == l => Some(c.as_str()),
            _ => None,
        })
    }

    /// The reason of an escape marker on line `l` or the line above;
    /// `pick` extracts the reason from the marker kind the caller honours.
    pub fn reason_near<'m>(
        &'m self,
        l: u32,
        pick: impl Fn(&'m Marker) -> Option<&'m str>,
    ) -> Option<&'m str> {
        let near = |m: &&MarkerAt| m.line == l || (l > 0 && m.line == l - 1);
        self.markers.iter().filter(near).find_map(|m| pick(&m.marker))
    }

    /// Hot-path fence line ranges `(start, end)`, inclusive. Unbalanced
    /// fences are reported in `hygiene` by `parse`.
    pub fn hot_ranges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut open: Option<u32> = None;
        for m in &self.markers {
            match m.marker {
                Marker::HotPathStart => open = Some(m.line),
                Marker::HotPathEnd => {
                    if let Some(s) = open.take() {
                        out.push((s, m.line));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// Parses the markers out of a file's comments.
pub fn parse(file: &str, comments: &[Comment]) -> Markers {
    let mut out = Markers::default();
    let mut open_fences = 0i32;
    for c in comments {
        let Some(pos) = c.text.find("roadlint:") else { continue };
        let rest = c.text[pos + "roadlint:".len()..].trim();
        let hygiene = |msg: String| Finding {
            file: file.to_owned(),
            line: c.line,
            rule: "marker",
            message: msg,
        };
        let reasoned = |out: &mut Markers, marker: Marker, what: &str| {
            if has_reason(rest) {
                out.markers.push(MarkerAt { marker, line: c.line });
            } else {
                out.hygiene.push(hygiene(format!(
                    "`{what}` requires a non-empty reason=\"…\" and suppresses nothing without one"
                )));
            }
        };
        if rest.starts_with("end hot-path") {
            open_fences -= 1;
            out.markers.push(MarkerAt { marker: Marker::HotPathEnd, line: c.line });
        } else if rest.starts_with("hot-path") {
            open_fences += 1;
            out.markers.push(MarkerAt { marker: Marker::HotPathStart, line: c.line });
        } else if rest.starts_with("taint-source") {
            out.markers.push(MarkerAt { marker: Marker::TaintSource, line: c.line });
        } else if rest.starts_with("sanitized") {
            match reason_text(rest) {
                Some(reason) => out
                    .markers
                    .push(MarkerAt { marker: Marker::Sanitized(reason.to_owned()), line: c.line }),
                None => out.hygiene.push(hygiene(
                    "`sanitized` requires a non-empty reason=\"…\" and suppresses nothing without one".to_owned(),
                )),
            }
        } else if rest.starts_with("allow(io-under-lock)") {
            reasoned(&mut out, Marker::AllowIoUnderLock, "allow(io-under-lock)");
        } else if rest.starts_with("allow(alloc)") {
            reasoned(&mut out, Marker::AllowAlloc, "allow(alloc)");
        } else if rest.starts_with("relaxed-ok") {
            reasoned(&mut out, Marker::RelaxedOk, "relaxed-ok");
        } else if rest.starts_with("seqcst-ok") {
            reasoned(&mut out, Marker::SeqCstOk, "seqcst-ok");
        } else if let Some(cls) = rest.strip_prefix("lock(").and_then(|r| r.split(')').next()) {
            if cls.is_empty() {
                out.hygiene.push(hygiene("`lock(…)` needs a class name".to_owned()));
            } else {
                out.markers
                    .push(MarkerAt { marker: Marker::LockClass(cls.to_owned()), line: c.line });
            }
        } else {
            out.hygiene.push(hygiene(format!(
                "unknown roadlint directive `{}`",
                rest.split_whitespace().next().unwrap_or("")
            )));
        }
    }
    if open_fences != 0 {
        out.hygiene.push(Finding {
            file: file.to_owned(),
            line: 0,
            rule: "marker",
            message: "unbalanced hot-path fences (every `hot-path` needs an `end hot-path`)"
                .to_owned(),
        });
    }
    out
}

/// True when the directive tail carries `reason="<non-empty>"`.
fn has_reason(rest: &str) -> bool {
    reason_text(rest).is_some()
}

/// The non-empty `reason="…"` text of a directive tail, if present.
fn reason_text(rest: &str) -> Option<&str> {
    let at = rest.find("reason=\"")?;
    let tail = &rest[at + "reason=\"".len()..];
    let r = tail.split('"').next()?.trim();
    (!r.is_empty()).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Markers {
        parse("f.rs", &lex(src).comments)
    }

    #[test]
    fn directives_parse_with_lines() {
        let m = parse_src(
            "fn a() {}\n\
             fn b() {}\n\
             // roadlint: hot-path\n\
             // roadlint: end hot-path\n\
             // roadlint: allow(alloc) reason=\"bounded above\"\n\
             // roadlint: lock(stripe)\n",
        );
        assert_eq!(m.hot_ranges(), vec![(3, 4)]);
        assert!(m.has_on_line(&Marker::AllowAlloc, 5));
        assert_eq!(m.lock_class_on_line(6), Some("stripe"));
        assert!(m.hygiene.is_empty());
    }

    #[test]
    fn escapes_without_reasons_are_findings() {
        let m = parse_src(
            "// roadlint: allow(alloc)\n\
             // roadlint: relaxed-ok reason=\"  \"\n\
             // roadlint: frobnicate\n",
        );
        assert_eq!(m.hygiene.len(), 3);
        assert!(!m.has_on_line(&Marker::AllowAlloc, 1));
        assert!(m.hygiene[2].message.contains("unknown"));
    }

    /// The directives of retired rules — decode-bound, swallowed-error,
    /// panic-freedom and determinism, now rustc's, clippy's and the
    /// types' — are unknown: a stale one is a finding, not a no-op.
    #[test]
    fn retired_directives_are_unknown() {
        let m = parse_src(
            "// roadlint: decode-fn\n\
             // roadlint: allow(discard) reason=\"best-effort\"\n\
             // roadlint: serving-path\n\
             // roadlint: allow(panic) reason=\"bounded\"\n\
             // roadlint: allow(panic-fn) reason=\"bounded\"\n\
             // roadlint: order-sink\n\
             // roadlint: ordered reason=\"sorted later\"\n",
        );
        assert!(m.markers.is_empty(), "{:?}", m.markers);
        assert_eq!(m.hygiene.len(), 7);
        assert!(m.hygiene.iter().all(|f| f.message.contains("unknown roadlint directive")));
    }

    #[test]
    fn unbalanced_fence_is_a_finding() {
        let m = parse_src("// roadlint: hot-path\nfn f() {}\n");
        assert_eq!(m.hygiene.len(), 1);
        assert!(m.hygiene[0].message.contains("unbalanced"));
    }
}
