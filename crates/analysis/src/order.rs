//! Rules 7–9: the determinism prover — the order rule table of the
//! [`crate::flow`] engine, plus the scheduling check.
//!
//! The workspace's load-bearing invariant since the parallel-build PRs is
//! that serialized `ShortcutStore`s are **byte-identical** across thread
//! counts, contraction orders and witness budgets. One unordered
//! `FastMap::iter()` feeding a serializer would break that silently; this
//! pass proves statically that it cannot happen. Three rules:
//!
//! * **unordered-iter** (rule 7) — iterating a hash-ordered container
//!   (`FastMap`/`FastSet`/`HashMap`/`HashSet`, via `.iter()`, `.keys()`,
//!   `.values()`, `.drain()`, `into_iter()` or `for … in &map`) is the
//!   source; it must not reach a byte-output sink (`extend_from_slice`,
//!   `write_all`, `serialize_into`, or any function that transitively
//!   emits) or an order-sensitive commit (a function carrying the
//!   `order-sink` marker). Sanitizers: collect-then-`sort*`, a
//!   `BTreeMap`/`BTreeSet` rebind, or a reasoned
//!   `// roadlint: ordered reason="…"` escape.
//! * **float-order** (rule 8) — float accumulation whose iteration
//!   domain is unordered (`.sum::<f64>()`, `+=` on an `f64`/`f32`/
//!   `Weight` accumulator inside the loop, `min_by`/`max_by` via
//!   `partial_cmp`) is flagged even without a byte sink: float
//!   reassociation is exactly the bug class the byte-equality pin cannot
//!   tolerate. `total_cmp` is the sanctioned deterministic tie-break.
//! * **sched-order** (rule 9) — inside a `std::thread::scope` fan-out,
//!   results must land in index-addressed slots (`chunks_mut`) or be
//!   joined in spawn order, never consumed in thread-completion order
//!   (`.recv()` loops, `Mutex<Vec>::push`).
//!
//! Every *sanitized* flow that reaches a sink becomes a row of the order
//! verdict table (`source → sanitizer → sink`, printed by
//! `roadlint --order` and pinned canonically in `determinism.expected`).
//!
//! Documented approximations beyond the engine's: container typing comes
//! from type ascriptions, struct-field declarations, known constructors
//! (`FastMap::default()`, `fast_map_with_capacity`, …) and resolved
//! callee return types; a method chain on an unresolved call result is
//! not a source; pushing into a local `Vec` inside an unordered loop
//! marks that `Vec` unordered only within the loop's token range.
//! *Typing only* (binding a local from a cross-crate `-> FastMap<…>`
//! callee) uses the over-approximating [`CallGraph::resolve`].

use crate::callgraph::{self, CallGraph, CallSite, FnId};
use crate::flow::{self, FnCx, Prov, Report, Rule, Verdict};
use crate::lexer::Token;
use crate::markers::Marker;
use crate::syntax;
use crate::{FileData, Finding};
use std::collections::BTreeSet;

/// Hash-ordered container types: iterating one yields an unordered
/// stream.
const UNORDERED: &[&str] = &["FastMap", "FastSet", "HashMap", "HashSet"];

/// Wrappers transparent for ordering purposes (deref to the inner type
/// without changing what iteration yields).
const TRANSPARENT: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "RwLock",
    "Mutex",
    "OnceLock",
    "RefCell",
    "Cell",
    "ManuallyDrop",
    "Option",
    "Result",
];

/// Container methods that start an iteration over the receiver.
const ITER_SOURCES: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Sort calls: applied to an unordered collection they fix its order.
const SORTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// Order-insensitive terminal reductions: the result does not depend on
/// iteration order (`sum` only for integers — the float case is caught
/// by its turbofish before this list applies).
const CLEAN_REDUCERS: &[&str] =
    &["count", "len", "any", "all", "sum", "min", "max", "contains", "is_empty"];

/// Byte-output primitives: emitting through one of these makes the
/// enclosing statement order-observable in the serialized output.
const EMIT_PRIMS: &[&str] = &["extend_from_slice", "write_all", "serialize_into"];

/// Constructors of unordered containers by free-fn name.
const UNORDERED_CTORS: &[&str] = &["fast_map_with_capacity", "fast_set_with_capacity"];

/// Accumulator types whose `+=` is float addition.
const FLOAT_TYPES: &[&str] = &["f64", "f32", "Weight"];

/// How a type chain iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A hash-ordered container.
    Map,
    /// A `BTreeMap`/`BTreeSet` (iterates in key order).
    BTree,
    /// Anything else.
    Other,
}

/// Classifies a type-name chain by its outermost non-transparent
/// container.
fn classify(chain: &[String]) -> Shape {
    let mut it = chain.iter().filter(|id| !TRANSPARENT.contains(&id.as_str()));
    let Some(first) = it.next() else { return Shape::Other };
    if UNORDERED.contains(&first.as_str()) {
        return Shape::Map;
    }
    if first == "BTreeMap" || first == "BTreeSet" {
        return Shape::BTree;
    }
    Shape::Other
}

/// Runs the determinism pass over the workspace.
pub fn check(files: &[FileData], cg: &CallGraph) -> (Vec<Finding>, Vec<Verdict>) {
    let mut report = flow::run::<Order>(files, cg);
    for id in (0..cg.fns.len()).filter(|&id| !cg.fns[id].in_test_mod) {
        sched_check(files, cg, id, &mut report);
    }
    report.into_sorted()
}

/// The order rule: `Raw` is hash-unordered, `Fixed` is sorted. Its
/// per-function state is the container typing of the locals.
#[derive(Default)]
pub struct Order {
    /// Locals that *are* unordered containers (iterating them is the
    /// source event; using them by key is not).
    map_vars: BTreeSet<String>,
    /// Float accumulators (by ascription).
    float_vars: BTreeSet<String>,
    /// Open unordered-loop contexts as `(body_close, origin)`: pushes
    /// into a `Vec` inside such a loop order it by the loop's domain.
    loop_ctx: Vec<(usize, String)>,
}

impl Order {
    /// Types `binders` as unordered containers when `shape` is one.
    fn typed(&mut self, shape: Shape, binders: &[String]) -> bool {
        if shape == Shape::Map {
            self.map_vars.extend(binders.iter().cloned());
        }
        shape == Shape::Map
    }
}

fn is_float(chain: &[String]) -> bool {
    chain.iter().any(|id| FLOAT_TYPES.contains(&id.as_str()))
}

fn float_message(origin: &str, sink: &str) -> String {
    format!(
        "float reduction over the hash-ordered domain {origin}: {sink}; \
         reassociation breaks byte-identical builds — sort the domain, \
         use integer/total_cmp reductions, or mark \
         `// roadlint: ordered reason=\"…\"`"
    )
}

impl Rule for Order {
    const ID: &'static str = "unordered-iter";
    /// These write their argument's elements into the receiver in
    /// iteration order.
    const MUTATORS: &'static [&'static str] = &["push", "extend", "append", "insert"];

    fn message(origin: &str, sink: &str) -> String {
        format!(
            "hash-ordered iteration from {origin} reaches {sink}; sort the domain \
             first, rebind through a BTreeMap, or mark \
             `// roadlint: ordered reason=\"…\"`"
        )
    }

    fn escape(m: &Marker) -> Option<&str> {
        match m {
            Marker::Ordered(reason) => Some(reason),
            _ => None,
        }
    }

    fn enter(cx: &mut FnCx<Self>) {
        let cg = cx.cg;
        let info = &cg.fns[cx.me];
        cx.sum.emits = info.order_sink;
        for (i, p) in info.params.iter().enumerate() {
            let chain = info.param_chains.get(i).map(Vec::as_slice).unwrap_or(&[]);
            let binder = std::slice::from_ref(p);
            if !cx.rule.typed(classify(chain), binder) {
                // Slices, vecs, iterators: order inherited from the
                // caller.
                cx.vars.insert(p.clone(), Prov::Param(i));
            }
            if is_float(chain) {
                cx.rule.float_vars.insert(p.clone());
            }
        }
    }

    fn bind_let(
        cx: &mut FnCx<Self>,
        binders: Vec<String>,
        ascription: Option<(usize, usize)>,
        rhs: (usize, usize),
        v: Prov,
    ) {
        let chain = ascription.map(|(a, b)| ascription_chain(cx.toks(), a, b)).unwrap_or_default();
        if is_float(&chain) {
            cx.rule.float_vars.extend(binders.iter().cloned());
        }
        // The ascription decides the binding when it names a container;
        // otherwise the RHS may type it.
        let shape = match classify(&chain) {
            Shape::Other if cx.rhs_is_map(rhs.0, rhs.1) => Shape::Map,
            shape => shape,
        };
        if cx.rule.typed(shape, &binders) {
            return;
        }
        // A BTree rebind of an unordered stream is sorted.
        let v = match shape {
            Shape::BTree => v.fixed_by(|| "BTreeMap rebind".to_owned()),
            _ => v,
        };
        cx.bind(binders, v);
    }

    fn assign(cx: &mut FnCx<Self>, name: &str, rhs: (usize, usize)) -> bool {
        let is_map = cx.rhs_is_map(rhs.0, rhs.1);
        if is_map {
            cx.rule.map_vars.insert(name.to_owned());
        }
        is_map
    }

    fn for_loop(cx: &mut FnCx<Self>, at: usize, binders: Vec<String>, start: usize, open: usize) {
        let toks = cx.toks();
        let close = syntax::match_delim(toks, open);
        let line = toks[at].line;
        let v = cx.domain(start, open);
        cx.bind(binders, Prov::Clean);
        // Scan the loop body for order-observable events before the
        // statements inside are walked individually.
        let emission = cx.body_emission(open, close);
        let floats = cx.body_float_events(open, close);
        if let Some(sink) = emission {
            cx.sink(v.clone(), sink, line);
        }
        for (desc, fline) in floats {
            cx.float_event(v.clone(), desc, fline);
        }
        if let Prov::Raw(origin) = v {
            // Pushes into locals inside this body inherit the domain's
            // unorderedness.
            cx.rule.loop_ctx.push((close, origin));
        }
    }

    /// An unordered-container iteration source: `map.keys()…`,
    /// `self.objects.values()…`.
    fn event_at(cx: &mut FnCx<Self>, j: usize, b: usize) -> Option<(Prov, usize)> {
        let (origin, after) = cx.map_iter_at(j, b)?;
        Some((cx.chain(Prov::Raw(origin), after, b), after))
    }

    fn prim_call(cx: &mut FnCx<Self>, site: &CallSite, _close: usize) -> Option<(Prov, bool)> {
        // A byte-output primitive; its argument region is walked
        // normally.
        EMIT_PRIMS.contains(&site.name.as_str()).then(|| {
            cx.sum.emits = true;
            (Prov::Clean, false)
        })
    }

    /// A call to an `order-sink` fn: every argument's order is committed.
    fn sink_call(
        cx: &mut FnCx<Self>,
        site: &CallSite,
        callees: &[FnId],
        args: &[(usize, usize)],
    ) -> bool {
        let Some(&cid) = callees.iter().find(|&&c| cx.cg.fns[c].order_sink) else {
            return false;
        };
        cx.sum.emits = true;
        for (i, &(x, y)) in args.iter().enumerate() {
            let av = cx.eval(x, y);
            let desc = format!(
                "order-sensitive commit {} (arg {}) at {}:{}",
                cx.cg.qualified(cid),
                i + 1,
                cx.fd.path,
                site.line
            );
            cx.sink(av, desc, site.line);
        }
        true
    }

    fn var_method(cx: &mut FnCx<Self>, name: &str, v: &Prov, m: &str, at: usize) -> bool {
        if SORTS.contains(&m) {
            // `v.sort_unstable()` fixes the order; a sorted Param domain
            // is deterministic regardless of the caller's ordering.
            let sorted = match v {
                Prov::Param(_) => Prov::Clean,
                v => v.clone().fixed_by(|| format!("{m}()")),
            };
            cx.vars.insert(name.to_owned(), sorted);
            return true;
        }
        if Self::MUTATORS.contains(&m) {
            // Inside an unordered loop, `out.push(x)` orders `out` by
            // the loop's domain.
            cx.rule.loop_ctx.retain(|&(close, _)| at < close);
            if let Some((_, origin)) = cx.rule.loop_ctx.last() {
                let mut pushed = v.clone();
                pushed.merge(Prov::Raw(origin.clone()));
                cx.vars.insert(name.to_owned(), pushed);
            }
        }
        false
    }
}

impl FnCx<'_, Order> {
    /// True when the let-RHS region evidently produces an unordered
    /// container: `FastMap::default()`, `fast_map_with_capacity(…)`, a
    /// `.clone()` of a map var, or a call resolving (over-approximately,
    /// for typing only) to fns that all return an unordered container.
    fn rhs_is_map(&self, a: usize, b: usize) -> bool {
        let toks = self.toks();
        let mut j = a;
        while j < b && (toks[j].is_punct('&') || toks[j].ident() == Some("mut")) {
            j += 1;
        }
        // `m` / `m.clone()` for a known map var.
        if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
            if self.rule.map_vars.contains(name) {
                let bare = j + 1 >= b;
                let cloned = toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && toks.get(j + 2).is_some_and(|t| t.ident() == Some("clone"));
                if bare || cloned {
                    return true;
                }
            }
        }
        for k in j..b {
            if let Some(id) = toks[k].ident() {
                if UNORDERED.contains(&id)
                    && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                {
                    return true;
                }
                if UNORDERED_CTORS.contains(&id) {
                    return true;
                }
            }
            if let Some(site) = callgraph::call_at(toks, k) {
                let callees = self.cg.resolve(self.me, &site);
                if !callees.is_empty()
                    && callees.iter().all(|&c| classify(&self.cg.fns[c].ret_chain) == Shape::Map)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Evaluates a `for`-loop domain region: the domain's order provenance.
    fn domain(&mut self, a: usize, open: usize) -> Prov {
        let toks = self.toks();
        let mut j = a;
        while j < open && (toks[j].is_punct('&') || toks[j].ident() == Some("mut")) {
            j += 1;
        }
        // Resolve a bare base: `var` or `self.field`.
        let (shape, base_end, origin) = self.base_at(j);
        match shape {
            // `for (k, v) in &map` — direct unordered iteration.
            Shape::Map if base_end >= open => return Prov::Raw(origin),
            // `for k in map.keys().…` — source plus adapter chain.
            Shape::Map => {
                if let Some((origin, after)) = self.map_iter_at(j, open) {
                    return self.chain(Prov::Raw(origin), after, open);
                }
            }
            _ => {}
        }
        self.eval(j, open)
    }

    /// The shape of the bare base expression at `j`: `(shape, tokens
    /// consumed through, origin description)`. `Shape::Other` with
    /// `base_end == j` means "no typed base here".
    fn base_at(&self, j: usize) -> (Shape, usize, String) {
        let toks = self.toks();
        let line = toks.get(j).map_or(0, |t| t.line);
        if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
            if name == "self"
                && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 2).is_some_and(|t| t.ident().is_some())
            {
                let field = toks[j + 2].ident().unwrap_or_default();
                let chain = self.cg.fns[self.me]
                    .self_type
                    .as_deref()
                    .and_then(|t| self.cg.field_chain(t, field))
                    .unwrap_or(&[]);
                let origin = format!(
                    "self.{field} ({}) in {}",
                    chain.first().map(String::as_str).unwrap_or("?"),
                    self.origin(self.me, line),
                );
                return (classify(chain), j + 3, origin);
            }
            let prev_is_dot = j > 0 && toks[j - 1].is_punct('.');
            if !prev_is_dot && self.rule.map_vars.contains(name) {
                let origin = format!("`{name}` in {}", self.origin(self.me, line));
                return (Shape::Map, j + 1, origin);
            }
        }
        (Shape::Other, j, String::new())
    }

    /// Recognizes an iteration source rooted at a typed unordered
    /// container at token `j`: `map.keys(`, `self.field.iter(`,
    /// `map.drain(`. Returns `(origin, index after the source call's
    /// close paren)`.
    fn map_iter_at(&self, j: usize, b: usize) -> Option<(String, usize)> {
        let toks = self.toks();
        if j > 0 && toks[j - 1].is_punct('.') {
            return None;
        }
        let (shape, base_end, origin_base) = self.base_at(j);
        if shape != Shape::Map || base_end >= b {
            return None;
        }
        let (m, margs) = flow::method_after(toks, base_end - 1)?;
        if !ITER_SOURCES.contains(&m) {
            return None;
        }
        let mclose = syntax::match_delim(toks, margs);
        if mclose >= b {
            return None;
        }
        let origin = origin_base.replacen(" in ", &format!(".{m}() in "), 1);
        Some((origin, mclose + 1))
    }

    /// Walks a method chain after an iteration source, tracking how the
    /// stream's order evolves: adapters preserve it, sorts and BTree
    /// collects fix it, clean reducers terminate it, float reductions
    /// fire rule 8.
    fn chain(&mut self, mut cur: Prov, mut k: usize, b: usize) -> Prov {
        let toks = self.toks();
        while k + 1 < b && toks[k].is_punct('.') {
            let Some(m) = toks[k + 1].ident() else { break };
            let line = toks[k + 1].line;
            // Optional turbofish: `collect::<BTreeMap<…>>(`,
            // `sum::<f64>(`.
            let mut p = k + 2;
            let mut turbofish: Vec<&str> = Vec::new();
            if toks.get(p).is_some_and(|t| t.is_punct(':'))
                && toks.get(p + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(p + 2).is_some_and(|t| t.is_punct('<'))
            {
                let mut angle = 1i64;
                let mut q = p + 3;
                while q < b && angle > 0 {
                    if toks[q].is_punct('<') {
                        angle += 1;
                    } else if toks[q].is_punct('>') && !toks[q - 1].is_punct('-') {
                        angle -= 1;
                    } else if let Some(id) = toks[q].ident() {
                        turbofish.push(id);
                    }
                    q += 1;
                }
                p = q;
            }
            if !toks.get(p).is_some_and(|t| t.is_punct('(')) {
                // A field read in the chain — keep walking.
                k += 2;
                continue;
            }
            let argclose = syntax::match_delim(toks, p);
            if argclose >= b {
                break;
            }
            let args_have = |needle: &str| (p..argclose).any(|q| toks[q].ident() == Some(needle));
            if SORTS.contains(&m) {
                cur = cur.fixed_by(|| format!("{m}()"));
            } else if m == "collect"
                && turbofish.iter().any(|id| matches!(*id, "BTreeMap" | "BTreeSet"))
            {
                cur = cur.fixed_by(|| "BTreeMap rebind".to_owned());
            } else if m == "sum" && turbofish.iter().any(|id| FLOAT_TYPES.contains(id)) {
                self.float_event(cur, self.here("float `.sum()`", line), line);
                cur = Prov::Clean;
            } else if matches!(m, "min_by" | "max_by" | "min_by_key" | "max_by_key") {
                if args_have("total_cmp") {
                    // The sanctioned deterministic tie-break.
                    cur = cur.fixed_by(|| "total_cmp tie-break".to_owned());
                } else if args_have("partial_cmp") {
                    let desc = self.here(&format!("float `.{m}(partial_cmp)`"), line);
                    self.float_event(cur, desc, line);
                    cur = Prov::Clean;
                }
            } else if CLEAN_REDUCERS.contains(&m) {
                // Order-insensitive terminal reduction.
                cur = Prov::Clean;
            }
            // Everything else (map/filter/collect/copied/enumerate/…)
            // preserves the stream's order provenance.
            k = argclose + 1;
        }
        cur
    }

    /// The first byte-output event in a loop body, as a sink description.
    fn body_emission(&self, open: usize, close: usize) -> Option<String> {
        let toks = self.toks();
        (open..close).filter_map(|k| callgraph::call_at(toks, k)).find_map(|site| {
            if EMIT_PRIMS.contains(&site.name.as_str()) {
                return Some(self.here(&format!("byte output (`{}`)", site.name), site.line));
            }
            let callees = self.cg.resolve_confident(self.me, &site);
            let c = *callees.iter().find(|&&c| self.cg.fns[c].order_sink || self.sums[c].emits)?;
            let what = format!("order-observable call to {}", self.cg.qualified(c));
            Some(self.here(&what, site.line))
        })
    }

    /// Float-accumulation events in a loop body: `acc += …` on a float
    /// accumulator, plus the chain-level reductions (which `chain`
    /// catches when the stream is inline, and this scan catches when the
    /// accumulation is written as loop statements).
    fn body_float_events(&self, open: usize, close: usize) -> Vec<(String, u32)> {
        let toks = self.toks();
        let mut out = Vec::new();
        for k in open..close {
            let Some(name) = toks[k].ident() else { continue };
            if self.rule.float_vars.contains(name)
                && toks.get(k + 1).is_some_and(|t| t.is_punct('+') || t.is_punct('*'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct('='))
            {
                let op = if toks[k + 1].is_punct('+') { "+" } else { "*" };
                let what = format!("float accumulation `{name} {op}=`");
                out.push((self.here(&what, toks[k].line), toks[k].line));
            }
        }
        out
    }

    /// A float accumulation saw domain provenance `v` (rule 8).
    fn float_event(&mut self, v: Prov, desc: String, line: u32) {
        let desc = match v {
            Prov::Param(_) => format!("{desc} (float reduction)"),
            _ => desc,
        };
        self.sink_as("float-order", float_message, v, desc, line);
    }
}

/// Rule 9: scheduling-dependence inside `std::thread::scope` fan-outs.
/// Results must land in index-addressed slots or be joined in spawn
/// order — never consumed in thread-completion order.
fn sched_check(files: &[FileData], cg: &CallGraph, id: FnId, report: &mut Report) {
    let info = &cg.fns[id];
    let Some((open, close)) = info.body else { return };
    let fd = &files[info.file_idx];
    let toks = &fd.lexed.tokens;
    let calls = |name: &str, k: usize| {
        toks[k].ident() == Some(name) && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
    };
    let Some(scope_at) = (open..close).find(|&k| calls("scope", k)) else { return };
    let source = format!(
        "thread::scope fan-out in {} ({}:{})",
        cg.qualified(id),
        fd.path,
        toks[scope_at].line
    );
    let escape = |line: u32| fd.markers.reason_near(line, Order::escape);
    let mut found = Vec::new();
    for site in (open..close).filter_map(|k| callgraph::call_at(toks, k)) {
        if site.name == "recv" || site.name == "try_recv" {
            match escape(site.line) {
                Some(reason) => {
                    report.verdicts.insert(Verdict {
                        source: source.clone(),
                        sanitizer: format!("marker: {reason}"),
                        sink: format!("channel receive at {}:{}", fd.path, site.line),
                    });
                }
                None => found.push((
                    site.line,
                    format!(
                        "`{}()` near a thread::scope fan-out consumes results in \
                         thread-completion order; deposit into index-addressed slots \
                         (the chunks_mut pattern) and commit in deterministic order, or \
                         mark `// roadlint: ordered reason=\"…\"`",
                        site.name
                    ),
                )),
            }
        }
        // `….lock()…push(…)` within the same statement: a shared Vec
        // accumulates in completion order.
        if site.name == "lock"
            && (site.name_idx..flow::stmt_semi(toks, site.name_idx)).any(|q| calls("push", q))
            && escape(site.line).is_none()
        {
            found.push((
                site.line,
                "`lock().…push(…)` inside a thread::scope fan-out accumulates \
                 in thread-completion order; deposit into index-addressed \
                 slots instead, or mark `// roadlint: ordered reason=\"…\"`"
                    .to_owned(),
            ));
        }
    }
    if !found.is_empty() {
        report.findings.extend(found.into_iter().map(|(line, message)| Finding {
            file: fd.path.clone(),
            line,
            rule: "sched-order",
            message,
        }));
        return;
    }
    // The fan-out is clean: record which sanctioned shape it uses.
    let sanitizer = if (open..close).any(|k| toks[k].ident() == Some("chunks_mut")) {
        "indexed per-slot deposit (chunks_mut)"
    } else if (open..close).any(|k| calls("join", k)) {
        "worker handles joined in spawn order"
    } else {
        return;
    };
    report.verdicts.insert(Verdict {
        source,
        sanitizer: sanitizer.to_owned(),
        sink: format!("deterministic commit order in {}", cg.qualified(id)),
    });
}

/// The uppercase idents of a let-ascription region, in order.
fn ascription_chain(toks: &[Token], a: usize, b: usize) -> Vec<String> {
    toks.iter()
        .take(b)
        .skip(a)
        .filter_map(|t| t.ident())
        .filter(|id| {
            id.starts_with(|c: char| c.is_ascii_uppercase()) || id == &"f64" || id == &"f32"
        })
        .map(str::to_owned)
        .collect()
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
    fn unordered_loop_emitting_bytes_is_found() {
        let (f, _) = run(&[(
            "t.rs",
            "fn dump(out: &mut Vec<u8>) {
                 let map: FastMap<u32, u32> = FastMap::default();
                 for k in map.keys() { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-iter");
    }

    #[test]
    fn collect_sort_then_emit_is_a_verdict() {
        let (f, v) = run(&[(
            "t.rs",
            "fn dump(map: &FastMap<u32, u32>, out: &mut Vec<u8>) {
                 let mut keys: Vec<u32> = map.keys().copied().collect();
                 keys.sort_unstable();
                 for k in keys { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].sanitizer.contains("sort_unstable"), "{v:?}");
        assert!(v[0].source.contains("keys()"), "{v:?}");
    }

    #[test]
    fn btree_rebind_and_marker_escape_are_verdicts() {
        let (f, v) = run(&[(
            "t.rs",
            "fn dump(map: &FastMap<u32, u32>, out: &mut Vec<u8>) {
                 let sorted: BTreeMap<u32, u32> =
                     map.iter().map(|(k, v)| (*k, *v)).collect();
                 for (k, _) in &sorted { out.extend_from_slice(&k.to_le_bytes()); }
                 // roadlint: ordered reason=\"xor fold is commutative\"
                 for k in map.keys() { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("BTreeMap rebind")), "{v:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("marker")), "{v:?}");
    }

    #[test]
    fn float_accumulation_over_unordered_domain_is_found() {
        let (f, _) = run(&[(
            "t.rs",
            "fn total(map: &FastMap<u32, f64>) -> f64 {
                 let mut sum: f64 = 0.0;
                 for v in map.values() { sum += v; }
                 sum
             }
             fn total2(map: &FastMap<u32, f64>) -> f64 {
                 map.values().copied().sum::<f64>()
             }",
        )]);
        assert_eq!(f.iter().filter(|x| x.rule == "float-order").count(), 2, "{f:?}");
    }

    #[test]
    fn integer_reductions_and_sorted_floats_are_quiet() {
        let (f, _) = run(&[(
            "t.rs",
            "fn count(map: &FastMap<u32, u32>) -> usize {
                 let mut n = 0usize;
                 for list in map.values() { n += list.count_ones() as usize; }
                 n + map.keys().count()
             }
             fn total(map: &FastMap<u32, f64>) -> f64 {
                 let mut vals: Vec<f64> = map.values().copied().collect();
                 vals.sort_by(|a, b| a.total_cmp(b));
                 let mut sum: f64 = 0.0;
                 for v in vals { sum += v; }
                 sum
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn order_sink_marker_makes_args_sinks() {
        let (f, v) = run(&[(
            "t.rs",
            "struct Store;
             impl Store {
                 // roadlint: order-sink
                 fn commit(&mut self, ids: &[u32]) {}
             }
             fn bad(store: &mut Store, map: &FastMap<u32, u32>) {
                 let ids: Vec<u32> = map.keys().copied().collect();
                 store.commit(&ids);
             }
             fn good(store: &mut Store, map: &FastMap<u32, u32>) {
                 let mut ids: Vec<u32> = map.keys().copied().collect();
                 ids.sort_unstable();
                 store.commit(&ids);
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-iter");
        assert!(f[0].message.contains("Store::commit"), "{f:?}");
        assert!(v.iter().any(|r| r.sink.contains("Store::commit")), "{v:?}");
    }

    #[test]
    fn cross_file_unordered_chain_needs_both_files() {
        let emitter = "pub fn emit_all(keys: &[u32], out: &mut Vec<u8>) {
                           for k in keys { out.extend_from_slice(&k.to_le_bytes()); }
                       }";
        let caller = "pub fn dump(map: &FastMap<u32, u64>, out: &mut Vec<u8>) {
                          let keys: Vec<u32> = map.keys().copied().collect();
                          emit_all(&keys, out);
                      }";
        let (f, _) = run(&[("emitter.rs", emitter), ("caller.rs", caller)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "caller.rs");
        assert!(f[0].message.contains("emit_all"), "{f:?}");
        // Each file alone is clean: the chain only exists across both.
        let (fa, _) = run(&[("emitter.rs", emitter)]);
        let (fb, _) = run(&[("caller.rs", caller)]);
        assert!(fa.is_empty() && fb.is_empty(), "{fa:?} {fb:?}");
    }

    #[test]
    fn scope_fanout_shapes() {
        let (f, v) = run(&[(
            "t.rs",
            "fn good(queries: &[u32]) -> Vec<u32> {
                 let mut out = Vec::new();
                 std::thread::scope(|scope| {
                     let workers: Vec<_> =
                         queries.chunks(4).map(|c| scope.spawn(move || c.len() as u32)).collect();
                     for w in workers { out.push(w.join().unwrap()); }
                 });
                 out
             }
             fn bad(queries: &[u32]) -> Vec<u32> {
                 let (tx, rx) = std::sync::mpsc::channel();
                 std::thread::scope(|scope| {
                     for q in queries {
                         let tx = tx.clone();
                         scope.spawn(move || tx.send(*q));
                     }
                 });
                 let mut out = Vec::new();
                 while let Ok(x) = rx.recv() { out.push(x); }
                 out
             }",
        )]);
        let sched: Vec<_> = f.iter().filter(|x| x.rule == "sched-order").collect();
        assert_eq!(sched.len(), 1, "{f:?}");
        assert!(sched[0].message.contains("recv"), "{sched:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("joined in spawn order")), "{v:?}");
    }

    #[test]
    fn push_inside_unordered_loop_then_sort_is_clean() {
        let (f, v) = run(&[(
            "t.rs",
            "fn dump(map: &FastMap<u32, u32>, out: &mut Vec<u8>) {
                 let mut all = Vec::new();
                 for k in map.keys() { all.push(*k); }
                 all.sort_unstable();
                 for k in all { out.extend_from_slice(&k.to_le_bytes()); }
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert!(v.iter().any(|r| r.sanitizer.contains("sort_unstable")), "{v:?}");
    }
}
