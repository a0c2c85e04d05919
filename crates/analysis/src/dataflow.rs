//! Rule 5: untrusted-input taint for the decode path, on an
//! interprocedural dataflow engine.
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
//! **The engine.** A per-function forward pass over the token stream
//! tracks the provenance of let-bound locals through a four-point lattice
//! ([`Prov`]): **raw** (straight from a source), **param** (inherited
//! from the caller), **fixed** (raw, then sanitized — kept with both
//! descriptions so a sink can print the chain) and **clean**.
//! Per-function [`Summary`]s — return provenance, parameters that reach
//! sinks, parameters the function sanitizes — are computed by
//! [`fixpoint`] over the workspace call graph, resolved with
//! [`CallGraph::resolve_confident`] only: an unknown callee propagates
//! its arguments' provenance instead of borrowing summaries from
//! same-named functions elsewhere.
//!
//! Documented approximations: values inside containers are tracked only
//! via receiver provenance (`v.push(raw)` makes `v` raw, and everything
//! read out of `v` afterwards); closure parameters are untracked; a
//! guard sanitizes its operands from the guard line onward without
//! branch sensitivity; a block-final expression counts as a possible
//! return value; `while` loop bounds are not sinks.

use crate::callgraph::{self, CallGraph, CallSite, FnId};
use crate::lexer::{Tok, Token};
use crate::markers::Marker;
use crate::syntax;
use crate::{FileData, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Pattern tokens that are never variable binders.
const NON_BINDERS: &[&str] = &["mut", "ref", "box", "self", "_"];

/// Allocation-size sinks recognized by callee name.
const SINK_FNS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "resize", "set_len"];

/// Divergence evidence inside a guard's body.
const DIVERGES: &[&str] =
    &["return", "Err", "None", "break", "continue", "panic", "unreachable", "todo", "bail"];

/// Receiver methods that write their arguments into the receiver.
const MUTATORS: &[&str] =
    &["push", "insert", "extend", "extend_from_slice", "push_str", "copy_from_slice", "append"];

/// Round cap of [`fixpoint`]. Monotone summaries (lock footprints) need
/// one round per call-chain hop against the scan order — 9 on this
/// workspace; the provenance summaries are not monotone (a rank can
/// flip-flop in mutually recursive code), which is what the cap is for.
pub const ROUNDS: usize = 32;

/// Provenance of one value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Prov {
    #[default]
    Clean,
    /// From a source, then sanitized: `(origin, sanitizer)`.
    Fixed(String, String),
    /// Derived from parameter `i` of the enclosing fn, unsanitized.
    Param(usize),
    /// Straight from a source, with the origin description.
    Raw(String),
}

impl Prov {
    fn rank(&self) -> u8 {
        match self {
            Prov::Clean => 0,
            Prov::Fixed(..) => 1,
            Prov::Param(_) => 2,
            Prov::Raw(_) => 3,
        }
    }

    /// Worst-wins merge; ties keep `self` (scan order is deterministic,
    /// so summaries converge).
    pub fn merge(&mut self, other: Prov) {
        if other.rank() > self.rank() {
            *self = other;
        }
    }

    /// A raw value sanitized by `by`; anything else unchanged.
    pub fn fixed_by(self, by: impl FnOnce() -> String) -> Prov {
        match self {
            Prov::Raw(origin) => Prov::Fixed(origin, by()),
            other => other,
        }
    }
}

/// The interprocedural summary of one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Summary {
    pub ret: Prov,
    /// Parameters that reach a sink inside this fn (or transitively),
    /// with the sink's description.
    pub param_sinks: BTreeSet<(usize, String)>,
    /// Parameters this fn sanitizes (bound-checks with a failing guard).
    pub sanitizes: BTreeSet<usize>,
}

/// One row of the verdict table: a sanitized flow that reached a sink.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Verdict {
    pub source: String,
    pub sanitizer: String,
    pub sink: String,
}

/// Runs `step` over every function until no summary changes; `false`
/// when [`ROUNDS`] ran out first. `step` returns `None` for functions
/// the pass does not summarize.
pub fn fixpoint<S: PartialEq>(
    sums: &mut [S],
    mut step: impl FnMut(FnId, &[S]) -> Option<S>,
) -> bool {
    for _ in 0..ROUNDS {
        let mut changed = false;
        for id in 0..sums.len() {
            if let Some(s) = step(id, sums).filter(|s| *s != sums[id]) {
                sums[id] = s;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

/// Runs the taint pass over the workspace: summaries to a fixpoint, then
/// one reporting walk of every function.
pub fn check(files: &[FileData], cg: &CallGraph) -> (Vec<Finding>, Vec<Verdict>) {
    let live = |id: FnId| !cg.fns[id].in_test_mod && cg.fns[id].body.is_some();
    let mut sums = vec![Summary::default(); cg.fns.len()];
    fixpoint(&mut sums, |id, sums| live(id).then(|| FnCx::walk(files, cg, id, sums, None)));
    let mut report = Report::default();
    for id in (0..cg.fns.len()).filter(|&id| live(id)) {
        FnCx::walk(files, cg, id, &sums, Some(&mut report));
    }
    (report.findings.into_iter().collect(), report.verdicts.into_iter().collect())
}

/// What the pass reports: findings and verdict rows, both canonically
/// ordered.
#[derive(Default)]
struct Report {
    findings: BTreeSet<Finding>,
    verdicts: BTreeSet<Verdict>,
}

/// The per-function walker.
struct FnCx<'a> {
    cg: &'a CallGraph,
    sums: &'a [Summary],
    me: FnId,
    fd: &'a FileData,
    /// Provenance of the tracked locals.
    vars: BTreeMap<String, Prov>,
    /// The summary being built.
    sum: Summary,
    /// Inside a sub-expression that the enclosing walk visits again
    /// (an index region): sinks still record parameters, nothing is
    /// reported twice.
    quiet: bool,
    report: Option<&'a mut Report>,
}

impl<'a> FnCx<'a> {
    fn walk(
        files: &'a [FileData],
        cg: &'a CallGraph,
        me: FnId,
        sums: &'a [Summary],
        report: Option<&'a mut Report>,
    ) -> Summary {
        let info = &cg.fns[me];
        let mut cx = FnCx {
            cg,
            sums,
            me,
            fd: &files[info.file_idx],
            vars: BTreeMap::new(),
            sum: Summary::default(),
            quiet: false,
            report,
        };
        cx.vars.extend(info.params.iter().cloned().zip((0..).map(Prov::Param)));
        if let Some((bs, be)) = info.body {
            cx.stmts(bs + 1, be);
        }
        cx.sum
    }

    fn toks(&self) -> &'a [Token] {
        &self.fd.lexed.tokens
    }

    /// `what at file:line in Type::fn` — a sink description.
    fn here(&self, what: &str, line: u32) -> String {
        format!("{what} at {}:{line} in {}", self.fd.path, self.cg.qualified(self.me))
    }

    /// `Type::fn (file:line)` — an origin description naming fn `id`.
    fn origin(&self, id: FnId, line: u32) -> String {
        format!("{} ({}:{line})", self.cg.qualified(id), self.fd.path)
    }

    fn bind(&mut self, binders: Vec<String>, v: Prov) {
        for bnd in binders {
            self.vars.insert(bnd, v.clone());
        }
    }

    /// Statement-by-statement scan of a block region.
    fn stmts(&mut self, a: usize, b: usize) {
        let toks = self.toks();
        let mut i = a;
        while i < b {
            let t = &toks[i];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
                i += 1;
                continue;
            }
            match t.ident() {
                Some("let") => i = self.handle_let(i, b),
                Some("for") => i = self.handle_for(i, b),
                Some("if") => i = self.handle_if(i, b),
                Some("while") | Some("match") => {
                    let open = find_block_open(toks, i + 1, b);
                    self.eval(i + 1, open);
                    i = open + 1;
                }
                Some("return") => {
                    let (end, _) = stmt_limit(toks, i + 1, b, true);
                    let v = self.eval(i + 1, end);
                    self.sum.ret.merge(v);
                    i = end + 1;
                }
                Some("else") | Some("loop") | Some("unsafe") => i += 1,
                _ => {
                    let (end, closed) = stmt_limit(toks, i, b, true);
                    let v = self.handle_expr_stmt(i, end);
                    if closed {
                        // Block-final expression: a (possible) tail value.
                        self.sum.ret.merge(v);
                    }
                    i = end + 1;
                }
            }
        }
    }

    fn handle_let(&mut self, i: usize, b: usize) -> usize {
        // Pattern region: up to the depth-0 `=`, stopping binder
        // collection at a depth-0 `:` (type ascription).
        let toks = self.toks();
        let mut depth = 0i64;
        let mut j = i + 1;
        let mut pattern_end = None;
        let mut eq = None;
        while j < b {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth == 0 {
                if t.is_punct(';') {
                    // `let x;` — uninitialized.
                    self.bind(pattern_binders(toks, i + 1, j), Prov::Clean);
                    return j + 1;
                }
                if t.is_punct(':') && !toks[j + 1].is_punct(':') && !toks[j - 1].is_punct(':') {
                    pattern_end.get_or_insert(j);
                }
                if t.is_punct('=') && !toks[j + 1].is_punct('=') && !toks[j + 1].is_punct('>') {
                    // After an ascription, a preceding `>` closes its
                    // generic (`let m: FastMap<u32, u32> = …`), not a
                    // `>=` comparison.
                    let generic_close = pattern_end.is_some() && toks[j - 1].is_punct('>');
                    if generic_close || !is_cmp_prefix(&toks[j - 1]) {
                        eq = Some(j);
                        break;
                    }
                }
            }
            j += 1;
        }
        let Some(eq) = eq else {
            return j + 1;
        };
        let binders = pattern_binders(toks, i + 1, pattern_end.unwrap_or(eq));
        let (end, _) = stmt_limit(toks, eq + 1, b, true);
        let v = self.eval(eq + 1, end);
        self.bind(binders, v);
        end + 1
    }

    fn handle_for(&mut self, i: usize, b: usize) -> usize {
        let toks = self.toks();
        let mut j = i + 1;
        while j < b && toks[j].ident() != Some("in") && !toks[j].is_punct('{') {
            j += 1;
        }
        let open = find_block_open(toks, j + 1, b);
        let v = self.eval(j + 1, open);
        // `for … in 0..n` — `n` is a loop bound (a sink); iterator loops
        // are bounded by the container and stay quiet.
        let is_range = (j + 1..open.saturating_sub(1))
            .any(|k| toks[k].is_punct('.') && toks[k + 1].is_punct('.'));
        if is_range {
            let line = toks[i].line;
            self.sink(v.clone(), self.here("loop bound", line), line);
        }
        self.bind(pattern_binders(toks, i + 1, j), v);
        open + 1
    }

    fn handle_if(&mut self, i: usize, b: usize) -> usize {
        let toks = self.toks();
        if toks.get(i + 1).is_some_and(|t| t.ident() == Some("let")) {
            // `if let PAT = expr {`: bind and move on.
            let open = find_block_open(toks, i + 2, b);
            let eq = (i + 2..open).find(|&k| {
                toks[k].is_punct('=')
                    && !toks.get(k + 1).is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
                    && !is_cmp_prefix(&toks[k - 1])
            });
            if let Some(eq) = eq {
                let v = self.eval(eq + 1, open);
                self.bind(pattern_binders(toks, i + 2, eq), v);
            }
            return open + 1;
        }
        let open = find_block_open(toks, i + 1, b);
        self.eval(i + 1, open);
        // A comparison guard whose body can fail the function sanitizes
        // every tracked operand it compares.
        let close = syntax::match_delim(toks, open);
        let diverges =
            (open..close).any(|k| toks[k].ident().is_some_and(|id| DIVERGES.contains(&id)));
        if diverges && (i + 1..open).any(|k| is_cmp_at(toks, k)) {
            let by = format!("guard ({}:{})", self.fd.path, toks[i].line);
            self.sanitize_region(i + 1, open, &by);
        }
        open + 1
    }

    /// Expression statement: assignment tracking, else plain eval.
    fn handle_expr_stmt(&mut self, a: usize, b: usize) -> Prov {
        let toks = self.toks();
        let mut k = a;
        while k < b && toks[k].is_punct('*') {
            k += 1;
        }
        if let Some(name) = toks.get(k).and_then(|t| t.ident()) {
            let plain = toks.get(k + 1).is_some_and(|t| t.is_punct('='))
                && !toks.get(k + 2).is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
            let compound = toks
                .get(k + 1)
                .is_some_and(|t| matches!(t.tok, Tok::Punct(c) if "+-*/%&|^".contains(c)))
                && toks.get(k + 2).is_some_and(|t| t.is_punct('='));
            if plain || compound {
                let eq = if plain { k + 1 } else { k + 2 };
                let v = self.eval(eq + 1, b);
                let slot = self.vars.entry(name.to_owned()).or_default();
                if compound {
                    slot.merge(v);
                } else {
                    *slot = v;
                }
                return Prov::Clean;
            }
        }
        self.eval(a, b)
    }

    /// The expression walker: merges provenance contributions, resolves
    /// calls against summaries, and sinks slice index/range expressions.
    fn eval(&mut self, a: usize, b: usize) -> Prov {
        let toks = self.toks();
        let mut val = Prov::Clean;
        let mut j = a;
        while j < b {
            self.index_sink(j, b);
            if let Some(site) = callgraph::call_at(toks, j) {
                let close = syntax::match_delim(toks, site.args_open);
                if close < b {
                    let (c, skip) = self.eval_call(&site, close);
                    val.merge(self.after(c, close, b));
                    j = if skip { close + 1 } else { site.args_open + 1 };
                    continue;
                }
            }
            // A local read — not a field (`x.name`), though a range
            // bound (`0..name`, two `.`s before it) is one.
            let is_field =
                j > 0 && toks[j - 1].is_punct('.') && !(j >= 2 && toks[j - 2].is_punct('.'));
            let local = toks[j].ident().filter(|_| !is_field);
            if let Some((name, v)) = local.and_then(|n| Some((n, self.vars.get(n)?.clone()))) {
                if let Some((m, margs)) = method_after(toks, j) {
                    let mclose = syntax::match_delim(toks, margs);
                    if MUTATORS.contains(&m) && mclose < b {
                        // `v.push(raw)` makes `v` raw.
                        let av = self.eval(margs + 1, mclose);
                        self.vars.entry(name.to_owned()).or_default().merge(av);
                        j = mclose + 1;
                        continue;
                    }
                }
                val.merge(self.after(v, j, b));
            }
            j += 1;
        }
        val
    }

    /// [`Self::eval`] of a region the enclosing walk visits again.
    fn eval_quiet(&mut self, a: usize, b: usize) -> Prov {
        let was = std::mem::replace(&mut self.quiet, true);
        let v = self.eval(a, b);
        self.quiet = was;
        v
    }

    /// Applies a call's summaries. Returns `(contribution, skip_args)`:
    /// resolved calls skip their argument region in the caller's walk
    /// (the summary is precise), unresolved calls let it be walked
    /// (arguments' provenance propagates through unknown callees).
    fn eval_call(&mut self, site: &CallSite, close: usize) -> (Prov, bool) {
        if let Some(prim) = self.prim_call(site, close) {
            return prim;
        }
        let (cg, sums) = (self.cg, self.sums);
        let callees = cg.resolve_confident(self.me, site);
        if callees.is_empty() {
            return (Prov::Clean, false);
        }
        let args = callgraph::split_args(self.toks(), site.args_open, close);
        let arg_vals: Vec<Prov> = args.iter().map(|&(x, y)| self.eval(x, y)).collect();
        let mut out = Prov::Clean;
        for &cid in &callees {
            if cg.fns[cid].taint_source {
                out.merge(Prov::Raw(self.origin(cid, site.line)));
            }
            let sum = &sums[cid];
            out.merge(match &sum.ret {
                Prov::Param(p) => arg_vals.get(*p).cloned().unwrap_or_default(),
                ret => ret.clone(),
            });
            for (p, desc) in &sum.param_sinks {
                if let Some(av) = arg_vals.get(*p) {
                    self.sink(av.clone(), desc.clone(), site.line);
                }
            }
            for p in &sum.sanitizes {
                if let Some(&(x, y)) = args.get(*p) {
                    let by = format!("{} (line {})", cg.qualified(cid), cg.fns[cid].line);
                    self.sanitize_region(x, y, &by);
                }
            }
        }
        (out, true)
    }

    /// Marks every tracked operand in a region sanitized by `by` (a
    /// guard, or an argument of a sanitizing callee).
    fn sanitize_region(&mut self, a: usize, b: usize, by: &str) {
        let toks = self.toks();
        for k in a..b {
            if k > 0 && toks[k - 1].is_punct('.') {
                continue;
            }
            let Some(slot) = toks[k].ident().and_then(|name| self.vars.get_mut(name)) else {
                continue;
            };
            if let Prov::Param(p) = slot {
                self.sum.sanitizes.insert(*p);
                *slot = Prov::Clean;
            } else {
                *slot = std::mem::take(slot).fixed_by(|| by.to_owned());
            }
        }
    }

    /// Provenance `v` reached the sink `desc`: a parameter makes `desc` a
    /// sink of every caller, a fixed value is a verdict row, a raw one a
    /// finding unless a `sanitized` marker covers `line`.
    fn sink(&mut self, v: Prov, desc: String, line: u32) {
        let fd = self.fd;
        let report = self.report.as_deref_mut().filter(|_| !self.quiet);
        let (source, sanitizer) = match v {
            Prov::Clean => return,
            Prov::Param(p) => {
                self.sum.param_sinks.insert((p, desc));
                return;
            }
            Prov::Fixed(origin, by) => (origin, by),
            Prov::Raw(origin) => match fd.markers.reason_near(line, sanitized_reason) {
                Some(reason) => (origin, format!("marker: {reason}")),
                None => {
                    if let Some(report) = report {
                        let message = format!(
                            "tainted value from {origin} reaches {desc} without a sanitizer; \
                             bound it first or mark `// roadlint: sanitized reason=\"…\"`"
                        );
                        let file = fd.path.clone();
                        report.findings.insert(Finding { file, line, rule: "taint", message });
                    }
                    return;
                }
            },
        };
        if let Some(report) = report {
            report.verdicts.insert(Verdict { source, sanitizer, sink: desc });
        }
    }

    /// Sources, sanitizers and sinks recognized by callee name, before
    /// resolution: `(contribution, skip_args)`, or `None` for summary
    /// resolution.
    fn prim_call(&mut self, site: &CallSite, close: usize) -> Option<(Prov, bool)> {
        match site.name.as_str() {
            "from_le_bytes" => {
                let origin = self.origin(self.me, self.cg.fns[self.me].line);
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
                self.args_prov(site, close);
            }
            name if SINK_FNS.contains(&name) => {
                let av = self.args_prov(site, close);
                self.sink(av, self.here(&format!("{name}()"), site.line), site.line);
            }
            _ => return None,
        }
        Some((Prov::Clean, true))
    }

    /// A slice index/range expression is a sink.
    fn index_sink(&mut self, j: usize, b: usize) {
        let toks = self.toks();
        if toks[j].is_punct('[') && j > 0 {
            let prev = &toks[j - 1];
            let is_macro = prev.ident().is_some() && j >= 2 && toks[j - 2].is_punct('!');
            let indexes = (prev.ident().is_some() && !is_macro)
                || prev.is_punct(')')
                || prev.is_punct(']')
                || prev.is_punct('?');
            let close = syntax::match_delim(toks, j);
            if indexes && close <= b {
                let iv = self.eval_quiet(j + 1, close);
                self.sink(iv, self.here("slice index/range", toks[j].line), toks[j].line);
            }
        }
    }

    /// A bounding operation directly after a tainted value demotes it:
    /// `% n`, `& MASK`, or a chain ending in a bounded method
    /// (`.min(…)`, `.clamp(…)`, `.partition_point(…)`,
    /// `.binary_search(…)` — the last two through any number of field
    /// reads, so `node.keys.partition_point(…)` on a tainted `node`
    /// yields a bounded index, not a tainted one).
    fn after(&self, v: Prov, at: usize, b: usize) -> Prov {
        if !matches!(v, Prov::Raw(_)) {
            return v;
        }
        let toks = self.toks();
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

    /// Merged provenance of a call's arguments.
    fn args_prov(&mut self, site: &CallSite, close: usize) -> Prov {
        let mut av = Prov::Clean;
        for (x, y) in callgraph::split_args(self.toks(), site.args_open, close) {
            av.merge(self.eval(x, y));
        }
        av
    }
}

/// End of the statement starting at `a`, as `(index, closed)`: the
/// depth-0 `;` (`closed` = false: not a tail expression), a depth-0
/// match-arm `,` when `arms` is set, the closer of the enclosing block,
/// or `b`.
fn stmt_limit(toks: &[Token], a: usize, b: usize, arms: bool) -> (usize, bool) {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(b).skip(a) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return (j, true);
            }
        } else if depth == 0 && (t.is_punct(';') || (arms && t.is_punct(','))) {
            return (j, t.is_punct(','));
        }
    }
    (b, true)
}

/// The `{` opening the body of an `if`/`for`/`while`/`match` whose
/// header starts at `a`.
fn find_block_open(toks: &[Token], a: usize, b: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(b).skip(a) {
        if t.is_punct('{') {
            if depth == 0 {
                return j;
            }
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        }
    }
    b
}

/// Binder identifiers of a pattern region (lowercase-initial, not
/// `mut`/`ref`/`_`/`self`).
fn pattern_binders(toks: &[Token], a: usize, b: usize) -> Vec<String> {
    toks.iter()
        .take(b)
        .skip(a)
        .filter_map(|t| t.ident())
        .filter(|id| !NON_BINDERS.contains(id))
        .filter(|id| id.starts_with(|c: char| c.is_ascii_lowercase() || c == '_'))
        .map(str::to_owned)
        .collect()
}

/// `. m (` directly after token `j` (the last token of a receiver) →
/// `(m, index of the "(")`.
fn method_after(toks: &[Token], j: usize) -> Option<(&str, usize)> {
    if toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
        let m = toks.get(j + 2)?.ident()?;
        if toks.get(j + 3).is_some_and(|t| t.is_punct('(')) {
            return Some((m, j + 3));
        }
    }
    None
}

/// True when `t` makes a following `=` a comparison (`==`, `!=`, `<=`,
/// `>=`) rather than an assignment.
fn is_cmp_prefix(t: &Token) -> bool {
    t.is_punct('=') || t.is_punct('!') || t.is_punct('<') || t.is_punct('>')
}

/// The reason of a `sanitized` marker.
fn sanitized_reason(m: &Marker) -> Option<&str> {
    match m {
        Marker::Sanitized(reason) => Some(reason),
        _ => None,
    }
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
    t.is_punct('=') && k > 0 && is_cmp_prefix(&toks[k - 1])
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
