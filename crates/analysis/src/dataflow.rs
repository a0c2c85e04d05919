//! Rule 5: untrusted-input taint for the decode path — the taint rule
//! table of the [`crate::flow`] engine.
//!
//! * **Sources**: `from_le_bytes` (every raw byte reader in the
//!   workspace bottoms out there) and `taint-source`-marked functions,
//!   directly or through calls and field/element reads.
//! * **Sanitizers**: a comparison guard whose body can fail the function
//!   (`if n > limit { return Err(…) }`), a sanitizing callee (one whose
//!   own body bound-checks its parameter — `Reader::require` is
//!   discovered from its body, not hardcoded), `.min(…)` / `.clamp(…)`,
//!   `% n`, `& MASK`, and `partition_point` / `binary_search` indices.
//! * **Sinks**: allocation sizes (`with_capacity`, `reserve`,
//!   `reserve_exact`, `resize`, `set_len`), slice index/range
//!   expressions, and `for … in 0..n` loop bounds. A tainted value at a
//!   sink is a finding unless the line carries
//!   `// roadlint: sanitized reason="…"`; a sanitized one is a row of the
//!   taint verdict table (`roadlint --taint`).
//!
//! Documented approximations beyond the engine's: `while` loop bounds
//! are not sinks; a guard sanitizes its operands from the guard line
//! onward without branch sensitivity.

use crate::callgraph::{self, CallGraph, CallSite, FnInfo};
use crate::flow::{self, FnCx, Prov, Rule, Verdict};
use crate::lexer::{Tok, Token};
use crate::markers::Marker;
use crate::syntax;
use crate::{FileData, Finding};

/// Allocation-size sinks recognized by callee name.
const SINK_FNS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "resize", "set_len"];

/// Divergence evidence inside a guard's body.
const DIVERGES: &[&str] =
    &["return", "Err", "None", "break", "continue", "panic", "unreachable", "todo", "bail"];

/// Runs the taint pass over the workspace.
pub fn check(files: &[FileData], cg: &CallGraph) -> (Vec<Finding>, Vec<Verdict>) {
    flow::run::<Taint>(files, cg).into_sorted()
}

/// The taint rule: `Raw` is tainted, `Fixed` is bounded.
#[derive(Default)]
pub struct Taint;

impl Rule for Taint {
    const ID: &'static str = "taint";
    const MUTATORS: &'static [&'static str] =
        &["push", "insert", "extend", "extend_from_slice", "push_str", "copy_from_slice", "append"];

    fn message(origin: &str, sink: &str) -> String {
        format!(
            "tainted value from {origin} reaches {sink} without a sanitizer; \
             bound it first or mark `// roadlint: sanitized reason=\"…\"`"
        )
    }

    fn escape(m: &Marker) -> Option<&str> {
        match m {
            Marker::Sanitized(reason) => Some(reason),
            _ => None,
        }
    }

    fn source_callee(info: &FnInfo) -> bool {
        info.taint_source
    }

    fn prim_call(cx: &mut FnCx<Self>, site: &CallSite, close: usize) -> Option<(Prov, bool)> {
        match site.name.as_str() {
            "from_le_bytes" => {
                let origin = cx.origin(cx.me, cx.cg.fns[cx.me].line);
                return Some((Prov::Raw(origin), false));
            }
            // Lengths/capacities of real containers are trusted sizes,
            // and `partition_point` / `binary_search` indices are bounded
            // by the container they searched.
            "len" | "capacity" | "is_empty" | "partition_point" | "binary_search" => {}
            // `x.min(…)` / `x.clamp(…)` return a bounded value (the
            // receiver's demotion already happened); don't let the bound
            // argument's provenance leak into the result.
            "min" | "clamp" => {
                args_prov(cx, site, close);
            }
            name if SINK_FNS.contains(&name) => {
                let av = args_prov(cx, site, close);
                cx.sink(av, cx.here(&format!("{name}()"), site.line), site.line);
            }
            _ => return None,
        }
        Some((Prov::Clean, true))
    }

    fn for_loop(cx: &mut FnCx<Self>, at: usize, binders: Vec<String>, start: usize, open: usize) {
        let toks = cx.toks();
        let v = cx.eval(start, open);
        // `for … in 0..n` — `n` is a loop bound (a sink); iterator loops
        // are bounded by the container and stay quiet.
        let is_range = (start..open.saturating_sub(1))
            .any(|k| toks[k].is_punct('.') && toks[k + 1].is_punct('.'));
        if is_range {
            let line = toks[at].line;
            cx.sink(v.clone(), cx.here("loop bound", line), line);
        }
        cx.bind(binders, v);
    }

    /// A comparison guard whose body can fail the function sanitizes
    /// every tracked operand it compares.
    fn guard(cx: &mut FnCx<Self>, at: usize, open: usize) {
        let toks = cx.toks();
        let close = syntax::match_delim(toks, open);
        let diverges =
            (open..close).any(|k| toks[k].ident().is_some_and(|id| DIVERGES.contains(&id)));
        if diverges && (at + 1..open).any(|k| is_cmp_at(toks, k)) {
            let by = format!("guard ({}:{})", cx.fd.path, toks[at].line);
            cx.sanitize_region(at + 1, open, &by);
        }
    }

    /// A slice index/range expression is a sink.
    fn event_at(cx: &mut FnCx<Self>, j: usize, b: usize) -> Option<(Prov, usize)> {
        let toks = cx.toks();
        if toks[j].is_punct('[') && j > 0 {
            let prev = &toks[j - 1];
            let is_macro = prev.ident().is_some() && j >= 2 && toks[j - 2].is_punct('!');
            let indexes = (prev.ident().is_some() && !is_macro)
                || prev.is_punct(')')
                || prev.is_punct(']')
                || prev.is_punct('?');
            let close = syntax::match_delim(toks, j);
            if indexes && close <= b {
                let iv = cx.eval_quiet(j + 1, close);
                cx.sink(iv, cx.here("slice index/range", toks[j].line), toks[j].line);
            }
        }
        None
    }

    /// A bounding operation directly after a tainted value demotes it:
    /// `% n`, `& MASK`, or a chain ending in a bounded method
    /// (`.min(…)`, `.clamp(…)`, `.partition_point(…)`,
    /// `.binary_search(…)` — the last two through any number of field
    /// reads, so `node.keys.partition_point(…)` on a tainted `node`
    /// yields a bounded index, not a tainted one).
    fn after(cx: &FnCx<Self>, v: Prov, at: usize, b: usize) -> Prov {
        if !matches!(v, Prov::Raw(_)) {
            return v;
        }
        let toks = cx.toks();
        let mut k = at + 1;
        while k < b && toks[k].is_punct('?') {
            k += 1;
        }
        if k < b && toks[k].is_punct('%') {
            return v.fixed_by(|| format!("% bound (line {})", toks[k].line));
        }
        if k + 1 < b && toks[k].is_punct('&') {
            let next = &toks[k + 1];
            let is_mask = next.tok == Tok::Lit
                || next.ident().is_some_and(|id| {
                    id.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                });
            if is_mask {
                return v.fixed_by(|| format!("& mask (line {})", toks[k].line));
            }
        }
        while k + 1 < b && toks[k].is_punct('.') {
            let Some(m) = toks[k + 1].ident() else { break };
            if k + 2 < b && toks[k + 2].is_punct('(') {
                if matches!(m, "min" | "clamp" | "partition_point" | "binary_search") {
                    return v.fixed_by(|| format!("{m}() (line {})", toks[k + 1].line));
                }
                break;
            }
            // A field read (`node.keys`) — keep walking the chain.
            k += 2;
        }
        v
    }
}

/// Merged provenance of a call's arguments.
fn args_prov(cx: &mut FnCx<Taint>, site: &CallSite, close: usize) -> Prov {
    let mut av = Prov::Clean;
    for (x, y) in callgraph::split_args(cx.toks(), site.args_open, close) {
        av.merge(cx.eval(x, y));
    }
    av
}

/// True when token `k` is a comparison operator (`<`, `>`, `==`, `!=`,
/// `<=`, `>=`) rather than a path, arrow or generic bracket.
fn is_cmp_at(toks: &[Token], k: usize) -> bool {
    let t = &toks[k];
    if t.is_punct('<') {
        return !(k > 0 && toks[k - 1].is_punct(':'));
    }
    if t.is_punct('>') {
        return !(k > 0 && (toks[k - 1].is_punct('-') || toks[k - 1].is_punct('=')));
    }
    t.is_punct('=') && k > 0 && flow::is_cmp_prefix(&toks[k - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(srcs: &[(&str, &str)]) -> (Vec<Finding>, Vec<Verdict>) {
        let files: Vec<FileData> = srcs.iter().map(|(p, s)| FileData::new(p, s)).collect();
        let cg = CallGraph::build(&files);
        check(&files, &cg)
    }

    #[test]
    fn unsanitized_count_at_alloc_index_and_loop_is_found() {
        let (f, _) = run(&[(
            "t.rs",
            "fn read_u32(b: &[u8], at: usize) -> u32 {
                 u32::from_le_bytes([b[at], b[at+1], b[at+2], b[at+3]])
             }
             fn decode(b: &[u8]) -> Vec<u32> {
                 let n = read_u32(b, 0) as usize;
                 let mut out = Vec::with_capacity(n);
                 for i in 0..n { out.push(read_u32(b, 4 + 4 * i)); }
                 out
             }
             fn decode_opt(b: &[u8]) -> Vec<u32> {
                 let n: Option<usize> = Some(read_u32(b, 0) as usize);
                 let m = n.unwrap_or(0);
                 Vec::with_capacity(m)
             }",
        )]);
        let msgs: String = f.iter().map(|x| x.message.as_str()).collect();
        assert!(msgs.contains("with_capacity"), "{f:?}");
        assert!(msgs.contains("loop bound"), "{f:?}");
        // The `>` before `=` closes the ascription's generic: `n` is
        // bound, and its taint reaches the allocation through `m`.
        assert!(msgs.contains("in decode_opt"), "{f:?}");
    }

    #[test]
    fn guard_and_callee_sanitizers_suppress_and_are_tabulated() {
        let (f, v) = run(&[(
            "t.rs",
            "fn read_u32(b: &[u8], at: usize) -> u32 {
                 u32::from_le_bytes([b[at], b[at+1], b[at+2], b[at+3]])
             }
             fn require(n: usize, limit: usize) -> Result<(), E> {
                 if n > limit { return Err(E); }
                 Ok(())
             }
             fn decode(b: &[u8]) -> Result<Vec<u32>, E> {
                 let n = read_u32(b, 0) as usize;
                 require(n, b.len() / 4)?;
                 let mut out = Vec::with_capacity(n);
                 let m = read_u32(b, 4) as usize;
                 if m > b.len() { return Err(E); }
                 for i in 0..m { out.push(i as u32); }
                 Ok(out)
             }",
        )]);
        let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
        assert!(taint.is_empty(), "{taint:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("require")), "{v:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("guard")), "{v:?}");
    }

    #[test]
    fn cross_file_param_sink_is_interprocedural() {
        let (f, _) = run(&[
            (
                "reader.rs",
                "pub fn le_u32(b: &[u8], at: usize) -> u32 {
                     u32::from_le_bytes([b[at], b[at+1], b[at+2], b[at+3]])
                 }",
            ),
            ("helper.rs", "pub fn alloc_records(n: usize) -> Vec<u64> { Vec::with_capacity(n) }"),
            (
                "decode.rs",
                "fn decode(b: &[u8]) -> Vec<u64> {
                     let n = le_u32(b, 0) as usize;
                     alloc_records(n)
                 }",
            ),
        ]);
        let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
        assert_eq!(taint.len(), 1, "{f:?}");
        assert!(taint[0].file == "decode.rs", "{taint:?}");
        assert!(
            taint[0].message.contains("alloc_records")
                || taint[0].message.contains("with_capacity"),
            "{taint:?}"
        );
    }

    #[test]
    fn min_clamp_and_marker_demote() {
        let (f, v) = run(&[(
            "t.rs",
            "fn le(b: &[u8]) -> u32 { u32::from_le_bytes([b[0], b[1], b[2], b[3]]) }
             fn decode(b: &[u8]) -> Vec<u8> {
                 let n = le(b) as usize;
                 let mut out = Vec::with_capacity(n.min(b.len()));
                 // roadlint: sanitized reason=\"n re-checked above\"
                 out.reserve(n);
                 out
             }",
        )]);
        assert!(f.iter().all(|x| x.rule != "taint"), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("min")), "{v:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("marker")), "{v:?}");
    }
}
