//! Workspace call graph: the symbol table the interprocedural passes
//! (taint, lock order) resolve call sites against.
//!
//! Construction is purely token-shaped, like everything else in this
//! crate:
//!
//! * **impl-block spans** give every method a "type-ish" owner: the last
//!   path segment of the `impl`'d type (`impl PagePool for TalliedPool`
//!   owns its fns under `TalliedPool`), so methods are keyed by
//!   `(type, name)` instead of bare name;
//! * a **struct field-type table** reduces each named field's declared
//!   type to its innermost non-wrapper type name
//!   (`pool: Arc<StripedBufferPool>` → `StripedBufferPool`), which lets
//!   `self.pool.with_page(…)` resolve across crates;
//! * **call sites** carry a receiver hint (`self.m(…)`, `self.f.m(…)`,
//!   `Type::m(…)`, `expr.m(…)`, `free(…)`) that picks the resolution
//!   strategy.
//!
//! Two resolution strengths exist on purpose. `resolve` falls back from
//! typed lookups to same-file-by-name and finally to the workspace-wide
//! union — the right over-approximation for lock footprints, where a
//! missed edge is worse than a spurious one. `resolve_confident` stops
//! at the typed and same-file levels: the taint pass must not smear one
//! type's summary over every same-named method (`get`, `insert`, …) in
//! the workspace.

use crate::lexer::Token;
use crate::markers::Marker;
use crate::syntax::{self, FnSpan};
use crate::FileData;
use std::collections::BTreeMap;

/// Index of a function in [`CallGraph::fns`].
pub type FnId = usize;

/// Wrapper types skipped when reducing a field's declared type to the
/// name methods are resolved against.
const WRAPPERS: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Option",
    "Result",
    "Vec",
    "VecDeque",
    "RwLock",
    "Mutex",
    "OnceLock",
    "RefCell",
    "Cell",
    "ManuallyDrop",
];

/// Identifiers that look like `name (` in the token stream but are not
/// calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "return", "for", "loop", "in", "as", "fn", "let", "else", "move",
    "unsafe", "break", "continue", "where", "impl", "pub", "use", "mod", "dyn", "ref", "mut",
];

/// One function of the workspace, with everything resolution and the
/// dataflow passes need.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub file_idx: usize,
    pub name: String,
    /// The `impl`'d type when the fn sits inside an impl block.
    pub self_type: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range `(open_brace, close_brace)` of the body.
    pub body: Option<(usize, usize)>,
    pub guard_returning: bool,
    /// Parameter names with `self` excluded, so indices align with
    /// call-site argument positions for method calls.
    pub params: Vec<String>,
    pub in_test_mod: bool,
    /// Carries a `taint-source` marker: its return value is untrusted.
    pub taint_source: bool,
}

/// The receiver hint of a call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.name(…)`
    SelfMethod,
    /// `self.field.name(…)`
    SelfField(String),
    /// `Type::name(…)` (`Self` resolves to the enclosing impl type)
    Path(String),
    /// `expr.name(…)` with an unknown receiver
    Method,
    /// `name(…)`
    Free,
}

/// One syntactic call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name.
    pub name_idx: usize,
    /// Token index of the opening `(` of the arguments.
    pub args_open: usize,
    pub name: String,
    pub recv: Receiver,
    pub line: u32,
}

/// Recognizes a call site whose name sits at token `i`.
pub fn call_at(tokens: &[Token], i: usize) -> Option<CallSite> {
    let name = tokens[i].ident()?;
    if NOT_CALLS.contains(&name) || !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    if i > 0 && tokens[i - 1].ident() == Some("fn") {
        return None;
    }
    let recv = if i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
        match i.checked_sub(3).and_then(|j| tokens[j].ident()) {
            Some(t) => Receiver::Path(t.to_owned()),
            // `<T as Trait>::f(…)` and friends: unknown receiver.
            None => Receiver::Method,
        }
    } else if i >= 2 && tokens[i - 1].is_punct('.') {
        if tokens[i - 2].ident() == Some("self") {
            Receiver::SelfMethod
        } else if i >= 4
            && tokens[i - 2].ident().is_some()
            && tokens[i - 3].is_punct('.')
            && tokens[i - 4].ident() == Some("self")
        {
            Receiver::SelfField(tokens[i - 2].ident().unwrap_or_default().to_owned())
        } else {
            Receiver::Method
        }
    } else {
        Receiver::Free
    };
    Some(CallSite {
        name_idx: i,
        args_open: i + 1,
        name: name.to_owned(),
        recv,
        line: tokens[i].line,
    })
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnInfo>,
    by_type_name: BTreeMap<(String, String), Vec<FnId>>,
    free_by_name: BTreeMap<String, Vec<FnId>>,
    by_name: BTreeMap<String, Vec<FnId>>,
    /// `(owner struct, field) -> reduced type name`.
    field_types: BTreeMap<(String, String), String>,
    file_fns: Vec<Vec<FnId>>,
}

impl CallGraph {
    pub fn build(files: &[FileData]) -> CallGraph {
        let mut cg = CallGraph { file_fns: vec![Vec::new(); files.len()], ..Default::default() };
        for (fi, fd) in files.iter().enumerate() {
            let toks = &fd.lexed.tokens;
            let impls = impl_spans(toks);
            for (owner, field, ftype) in struct_fields(toks) {
                cg.field_types.entry((owner, field)).or_insert(ftype);
            }
            let taint_lines: Vec<u32> = fd
                .markers
                .markers
                .iter()
                .filter(|m| m.marker == Marker::TaintSource)
                .map(|m| m.line)
                .collect();
            for f in &fd.fns {
                let id = cg.fns.len();
                let self_type = impls
                    .iter()
                    .filter(|(_, (a, b))| f.fn_idx > *a && f.fn_idx < *b)
                    .min_by_key(|(_, (a, b))| b - a)
                    .map(|(t, _)| t.clone());
                let taint_source = taint_lines.iter().any(|&l| f.line > l && f.line - l <= 5);
                let info = FnInfo {
                    file_idx: fi,
                    name: f.name.clone(),
                    self_type,
                    line: f.line,
                    body: f.body,
                    guard_returning: f.guard_returning,
                    params: params(toks, f),
                    in_test_mod: syntax::in_ranges(&fd.test_ranges, f.fn_idx),
                    taint_source,
                };
                match &info.self_type {
                    Some(t) => {
                        cg.by_type_name.entry((t.clone(), info.name.clone())).or_default().push(id)
                    }
                    None => cg.free_by_name.entry(info.name.clone()).or_default().push(id),
                }
                cg.by_name.entry(info.name.clone()).or_default().push(id);
                cg.file_fns[fi].push(id);
                cg.fns.push(info);
            }
        }
        cg
    }

    pub fn fns_in_file(&self, fi: usize) -> &[FnId] {
        &self.file_fns[fi]
    }

    /// `Type::name` for methods, `name` for free fns.
    pub fn qualified(&self, id: FnId) -> String {
        let f = &self.fns[id];
        match &f.self_type {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Typed resolution with over-approximating fallbacks (same file,
    /// then workspace union) — for the lock pass, where a missed callee
    /// means a missed edge.
    pub fn resolve(&self, caller: FnId, site: &CallSite) -> Vec<FnId> {
        let (hit, confident) = self.resolve_inner(caller, site);
        if !hit.is_empty() || confident {
            return hit;
        }
        self.by_name.get(&site.name).cloned().unwrap_or_default()
    }

    /// Typed + same-file resolution only: an empty result means "treat
    /// the callee as unknown", never "use every same-named fn".
    pub fn resolve_confident(&self, caller: FnId, site: &CallSite) -> Vec<FnId> {
        self.resolve_inner(caller, site).0
    }

    /// Strictest tier: only hits the resolver is confident about (typed
    /// receiver, free fn, `self.…`). A plain `expr.m(…)` never resolves —
    /// the guard-io rule must not attribute `children.insert(…)` (a `Vec`
    /// method) to a same-named workspace fn.
    pub fn resolve_exact(&self, caller: FnId, site: &CallSite) -> Vec<FnId> {
        let (hit, confident) = self.resolve_inner(caller, site);
        if confident {
            hit
        } else {
            Vec::new()
        }
    }

    /// Returns the resolved ids plus whether the lookup was confident
    /// (typed hit, or typed table consulted and the miss is meaningful).
    fn resolve_inner(&self, caller: FnId, site: &CallSite) -> (Vec<FnId>, bool) {
        let me = &self.fns[caller];
        let typed = |t: &str| self.by_type_name.get(&(t.to_owned(), site.name.clone()));
        match &site.recv {
            Receiver::SelfMethod => {
                if let Some(hit) = me.self_type.as_deref().and_then(typed) {
                    return (hit.clone(), true);
                }
                (self.same_file(me.file_idx, &site.name, false), true)
            }
            Receiver::SelfField(field) => {
                let ftype = me
                    .self_type
                    .as_ref()
                    .and_then(|t| self.field_types.get(&(t.clone(), field.clone())));
                match ftype {
                    Some(t) => (typed(t).cloned().unwrap_or_default(), true),
                    None => (self.same_file(me.file_idx, &site.name, false), false),
                }
            }
            Receiver::Path(t) => {
                let t = if t == "Self" { me.self_type.as_deref().unwrap_or("Self") } else { t };
                // A miss on a path call is a std/external type
                // (`u32::from_le_bytes`): confidently unresolved.
                (typed(t).cloned().unwrap_or_default(), true)
            }
            Receiver::Method => (self.same_file(me.file_idx, &site.name, false), false),
            Receiver::Free => {
                let hit = self.same_file(me.file_idx, &site.name, true);
                if !hit.is_empty() {
                    return (hit, true);
                }
                (self.free_by_name.get(&site.name).cloned().unwrap_or_default(), true)
            }
        }
    }

    fn same_file(&self, fi: usize, name: &str, free_only: bool) -> Vec<FnId> {
        self.file_fns[fi]
            .iter()
            .copied()
            .filter(|&id| {
                self.fns[id].name == name && (!free_only || self.fns[id].self_type.is_none())
            })
            .collect()
    }
}

/// Splits the argument region `(open, close)` of a call into per-argument
/// token sub-ranges (empty for `()`).
pub fn split_args(tokens: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if close <= open + 1 {
        return out;
    }
    let mut start = open + 1;
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().take(close).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push((start, j));
            start = j + 1;
        }
    }
    out.push((start, close));
    out
}

/// `impl` blocks as `(type name, body token range)`.
fn impl_spans(tokens: &[Token]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() != Some("impl") {
            i += 1;
            continue;
        }
        // Find the body `{` at angle-bracket depth 0; the header of a
        // (non-Fn-trait) impl contains no other braces.
        let mut angle = 0i64;
        let mut j = i + 1;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
                angle -= 1;
            } else if t.is_punct('{') && angle <= 0 {
                open = Some(j);
                break;
            } else if t.is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        // Type region: after the last angle-depth-0 `for`, stopping at
        // `where`; the name is the last path segment at depth 0.
        let mut region_start = i + 1;
        let mut angle = 0i64;
        for k in i + 1..open {
            match tokens[k].ident() {
                Some("for") if angle == 0 => region_start = k + 1,
                _ => {}
            }
            if tokens[k].is_punct('<') {
                angle += 1;
            } else if tokens[k].is_punct('>') && !tokens[k - 1].is_punct('-') {
                angle -= 1;
            }
        }
        let mut angle = 0i64;
        let mut name = None;
        for k in region_start..open {
            let t = &tokens[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !tokens[k - 1].is_punct('-') {
                angle -= 1;
            } else if angle == 0 {
                match t.ident() {
                    Some("where") => break,
                    Some(id) if id != "dyn" && id != "mut" && id != "const" => {
                        name = Some(id.to_owned());
                    }
                    _ => {}
                }
            }
        }
        if let Some(name) = name {
            out.push((name, (open, syntax::match_delim(tokens, open))));
        }
        i = open + 1;
    }
    out
}

/// Named struct fields as `(owner, field, reduced type name)`: the first
/// uppercase non-wrapper ident of the field's type, for method resolution.
/// Fields whose type reduces to no workspace-resolvable name (primitives,
/// tuples, generics) are left out.
fn struct_fields(tokens: &[Token]) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() != Some("struct") {
            i += 1;
            continue;
        }
        let Some(owner) = tokens.get(i + 1).and_then(|t| t.ident()).map(str::to_owned) else {
            i += 1;
            continue;
        };
        // Skip generics to the `{` of a named-field struct; `;`/`(`
        // means unit/tuple struct.
        let mut angle = 0i64;
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !tokens[j - 1].is_punct('-') {
                angle -= 1;
            } else if (t.is_punct(';') || t.is_punct('(')) && angle == 0 {
                break;
            } else if t.is_punct('{') && angle == 0 {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let close = syntax::match_delim(tokens, open);
        // Fields: `name :` at brace depth 1 (relative), not `::`.
        let mut depth = 0i64;
        for k in open..close {
            let t = &tokens[k];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('}')
                || t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && !tokens[k - 1].is_punct('-'))
            {
                depth -= 1;
            } else if depth == 1
                && t.ident().is_some()
                && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
                && k > 0
                && !tokens[k - 1].is_punct(':')
            {
                // Type region: to the `,` back at depth 1 or the close.
                let field = t.ident().unwrap_or_default().to_owned();
                let mut d2 = 0i64;
                let mut ftype = None;
                for m in k + 2..close {
                    let u = &tokens[m];
                    if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') || u.is_punct('<') {
                        d2 += 1;
                    } else if u.is_punct(')')
                        || u.is_punct(']')
                        || u.is_punct('}')
                        || (u.is_punct('>') && !tokens[m - 1].is_punct('-'))
                    {
                        if d2 == 0 {
                            break;
                        }
                        d2 -= 1;
                    } else if u.is_punct(',') && d2 == 0 {
                        break;
                    } else if let Some(id) = u.ident() {
                        if ftype.is_none()
                            && id.starts_with(|c: char| c.is_ascii_uppercase())
                            && !WRAPPERS.contains(&id)
                        {
                            ftype = Some(id.to_owned());
                        }
                    }
                }
                if let Some(ftype) = ftype {
                    out.push((owner.clone(), field, ftype));
                }
            }
        }
        i = close + 1;
    }
    out
}

/// The parameter binders of a fn's signature.
fn params(tokens: &[Token], f: &FnSpan) -> Vec<String> {
    // Params: first `(` after the name (skipping generics).
    let mut j = f.fn_idx + 2;
    while j < tokens.len() && !tokens[j].is_punct('(') {
        j += 1;
    }
    if j >= tokens.len() {
        return Vec::new();
    }
    let close = syntax::match_delim(tokens, j);
    let mut params = Vec::new();
    for (a, b) in split_args(tokens, j, close) {
        // Binder: the first ident before the `:`, skipping `mut`/`ref`;
        // a bare `self` (with any `&`/`mut` decoration) is not a param.
        let mut binder = None;
        for t in tokens.iter().take(b).skip(a) {
            if t.is_punct(':') {
                break;
            }
            match t.ident() {
                Some("mut") | Some("ref") => {}
                Some("self") => {
                    binder = None;
                    break;
                }
                Some(id) if binder.is_none() => binder = Some(id.to_owned()),
                Some(_) => {}
                None => {}
            }
        }
        params.extend(binder);
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph(srcs: &[(&str, &str)]) -> (CallGraph, Vec<FileData>) {
        let files: Vec<FileData> = srcs.iter().map(|(p, s)| FileData::new(p, s)).collect();
        let cg = CallGraph::build(&files);
        (cg, files)
    }

    #[test]
    fn impl_spans_find_plain_trait_and_generic_impls() {
        let l = lex("impl Foo { fn a() {} }
            impl<T: Clone> Bar<T> { fn b() {} }
            impl Display for Baz<'_> { fn fmt() {} }");
        let spans = impl_spans(&l.tokens);
        let names: Vec<&str> = spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Foo", "Bar", "Baz"]);
    }

    #[test]
    fn struct_fields_reduce_wrapper_types() {
        let fields = struct_fields(
            &lex("struct Engine {
                pool: Arc<StripedBufferPool>,
                locks: Vec<Mutex<LruCache<u32, Frame>>>,
                count: usize,
                pub name: String,
            }")
            .tokens,
        );
        assert!(fields.contains(&("Engine".into(), "pool".into(), "StripedBufferPool".into())));
        assert!(fields.contains(&("Engine".into(), "locks".into(), "LruCache".into())));
        assert!(!fields.iter().any(|(_, f, _)| f == "count"), "{fields:?}");
    }

    #[test]
    fn cross_file_field_typed_resolution() {
        let (cg, _files) = graph(&[
            (
                "a.rs",
                "struct Eng { pool: Arc<Pool> }
                 impl Eng { fn run(&self) { self.pool.fault(3); } }",
            ),
            (
                "b.rs",
                "struct Pool; impl Pool { fn fault(&self, n: u32) -> Result<(), E> { Ok(()) } }",
            ),
        ]);
        let run = cg.fns.iter().position(|f| f.name == "run").expect("run");
        let toks = &lex("self . pool . fault ( 3 )").tokens;
        let site = call_at(toks, 4).expect("site");
        assert_eq!(site.recv, Receiver::SelfField("pool".into()));
        let hit = cg.resolve_confident(run, &site);
        assert_eq!(hit.len(), 1);
        assert_eq!(cg.qualified(hit[0]), "Pool::fault");
        assert_eq!(cg.fns[hit[0]].params, ["n"]);
    }

    #[test]
    fn path_miss_is_confidently_unresolved() {
        let (cg, _files) =
            graph(&[("a.rs", "fn with_capacity() {} fn f() { let v = Vec::with_capacity(9); }")]);
        let f = cg.fns.iter().position(|x| x.name == "f").expect("f");
        let toks = &lex("Vec :: with_capacity ( 9 )").tokens;
        let site = call_at(toks, 3).expect("site");
        assert!(cg.resolve_confident(f, &site).is_empty());
        assert!(cg.resolve(f, &site).is_empty());
    }
}
