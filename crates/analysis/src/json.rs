//! Hand-rolled JSON rendering of an [`Analysis`] for the CI artifact
//! (`roadlint --json`). No serde: the report is four flat arrays of
//! strings and integers, not worth a dependency the container may not
//! have.

use crate::Analysis;

/// Renders the full machine-readable report.
pub fn render(a: &Analysis) -> String {
    let mut s = String::with_capacity(4096);
    s.push('{');
    s.push_str(&format!("\"files_scanned\":{},", a.files_scanned));
    s.push_str("\"findings\":[");
    for (i, f) in a.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            esc(&f.file),
            f.line,
            esc(f.rule),
            esc(&f.message)
        ));
    }
    s.push_str("],\"lock_graph\":{\"classes\":[");
    for (i, c) in a.graph.classes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&esc(c));
    }
    s.push_str("],\"edges\":[");
    for (i, ((from, to), site)) in a.graph.edges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"from\":{},\"to\":{},\"file\":{},\"line\":{},\"function\":{}}}",
            esc(from),
            esc(to),
            esc(&site.file),
            site.line,
            esc(&site.function)
        ));
    }
    s.push_str("]},\"taint\":[");
    for (i, v) in a.taint.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"source\":{},\"sanitizer\":{},\"sink\":{}}}",
            esc(&v.source),
            esc(&v.sanitizer),
            esc(&v.sink)
        ));
    }
    s.push_str("]}");
    s
}

/// JSON string literal with the mandatory escapes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;

    #[test]
    fn report_shape_and_escaping() {
        let a = analyze_sources([("t.rs", "fn f(&self) { x.store(1, Ordering::Relaxed); }")]);
        let j = render(&a);
        assert!(j.starts_with("{\"files_scanned\":1,"));
        assert!(j.contains("\"rule\":\"atomic-ordering\""));
        assert!(j.ends_with("\"taint\":[]}"));
        assert_eq!(esc("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(esc("\u{1}\t\u{1f}"), "\"\\u0001\\t\\u001f\"");
    }
}
