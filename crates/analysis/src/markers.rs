//! Parsing of roadlint marker comments.
//!
//! A marker is a comment containing the tool name followed by a colon and
//! one directive. The directives (documented in ARCHITECTURE.md
//! §"Invariants and static analysis"):
//!
//! | directive | effect |
//! |---|---|
//! | `lock(<class>)` | classifies an unrecognized lock acquisition on this line |
//! | `allow(io-under-lock) reason="…"` | escape: guard intentionally held across page IO |
//!
//! The escape *requires* a non-empty reason; one without is itself a
//! finding and suppresses nothing. Any other directive is an unknown one,
//! also a finding: the markers of retired rules cannot linger as no-ops.
//!
//! The serving path is not a marker: it is the modules that deny panics
//! to clippy ([`crate::syntax::denies_panics`]).

use crate::lexer::Comment;
use crate::Finding;

/// One parsed marker directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    LockClass(String),
    AllowIoUnderLock,
}

/// A marker plus the line its comment starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkerAt {
    pub marker: Marker,
    pub line: u32,
}

/// All markers of one file, plus hygiene findings (unknown directives,
/// an escape without a reason).
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
}

/// Parses the markers out of a file's comments.
pub fn parse(file: &str, comments: &[Comment]) -> Markers {
    let mut out = Markers::default();
    for c in comments {
        let Some(pos) = c.text.find("roadlint:") else { continue };
        let rest = c.text[pos + "roadlint:".len()..].trim();
        let hygiene = |msg: String| Finding {
            file: file.to_owned(),
            line: c.line,
            rule: "marker",
            message: msg,
        };
        if rest.starts_with("allow(io-under-lock)") {
            if has_reason(rest) {
                out.markers.push(MarkerAt { marker: Marker::AllowIoUnderLock, line: c.line });
            } else {
                out.hygiene.push(hygiene(
                    "`allow(io-under-lock)` requires a non-empty reason=\"…\" and suppresses nothing without one".to_owned(),
                ));
            }
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
    out
}

/// True when the directive tail carries a non-empty `reason="…"`.
fn has_reason(rest: &str) -> bool {
    let Some(at) = rest.find("reason=\"") else { return false };
    let tail = &rest[at + "reason=\"".len()..];
    tail.split('"').next().is_some_and(|r| !r.trim().is_empty())
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
             // roadlint: allow(io-under-lock) reason=\"bounded above\"\n\
             // roadlint: lock(stripe)\n",
        );
        assert!(m.has_on_line(&Marker::AllowIoUnderLock, 2));
        assert_eq!(m.lock_class_on_line(3), Some("stripe"));
        assert!(m.hygiene.is_empty());
    }

    #[test]
    fn escapes_without_reasons_are_findings() {
        let m = parse_src(
            "// roadlint: allow(io-under-lock)\n\
             // roadlint: allow(io-under-lock) reason=\"  \"\n\
             // roadlint: frobnicate\n",
        );
        assert_eq!(m.hygiene.len(), 3);
        assert!(!m.has_on_line(&Marker::AllowIoUnderLock, 1));
        assert!(m.hygiene[2].message.contains("unknown"));
    }

    /// The directives of retired rules — decode-bound, swallowed-error,
    /// panic-freedom, determinism, allocation fences, atomic orderings and
    /// decode taint, now rustc's, clippy's, the types' and counted tests' —
    /// are unknown: a stale one is a finding, not a no-op.
    #[test]
    fn retired_directives_are_unknown() {
        let m = parse_src(
            "// roadlint: decode-fn\n\
             // roadlint: allow(discard) reason=\"best-effort\"\n\
             // roadlint: serving-path\n\
             // roadlint: allow(panic) reason=\"bounded\"\n\
             // roadlint: allow(panic-fn) reason=\"bounded\"\n\
             // roadlint: order-sink\n\
             // roadlint: ordered reason=\"sorted later\"\n\
             // roadlint: hot-path\n\
             // roadlint: end hot-path\n\
             // roadlint: allow(alloc) reason=\"cold path\"\n\
             // roadlint: relaxed-ok reason=\"stats counter\"\n\
             // roadlint: seqcst-ok reason=\"handshake\"\n\
             // roadlint: taint-source\n\
             // roadlint: sanitized reason=\"checked above\"\n",
        );
        assert!(m.markers.is_empty(), "{:?}", m.markers);
        assert_eq!(m.hygiene.len(), 14);
        assert!(m.hygiene.iter().all(|f| f.message.contains("unknown roadlint directive")));
    }
}
