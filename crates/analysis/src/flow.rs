//! The dataflow engine the taint prover ([`crate::dataflow`]) and the
//! determinism prover ([`crate::order`]) both run on: one provenance
//! lattice, one statement walker, one summary fixpoint.
//!
//! A per-function forward pass over the token stream tracks the
//! provenance of let-bound locals through a four-point lattice
//! ([`Prov`]): **raw** (straight from a rule's source), **param**
//! (inherited from the caller), **fixed** (raw, then sanitized — kept
//! with both descriptions so a sink can print the chain) and **clean**.
//! A raw value at a sink is a finding unless an escape marker covers the
//! line; a fixed value at a sink is a row of the rule's verdict table
//! (`source → sanitizer → sink`).
//!
//! **Interprocedural**: per-function [`Summary`]s — return provenance,
//! parameters that reach sinks, parameters the function sanitizes,
//! whether calling it is itself observable — are computed by
//! [`fixpoint`] over the workspace call graph, resolved with
//! [`CallGraph::resolve_confident`] only: an unknown callee propagates
//! its arguments' provenance instead of borrowing summaries from
//! same-named functions elsewhere.
//!
//! What makes a pass a *rule* — its sources, sanitizers, sinks and the
//! events it watches for — is a [`Rule`] implementation; the walker calls
//! its hooks and owns everything else.
//!
//! Documented approximations: values inside containers are tracked only
//! via receiver provenance (`v.push(raw)` makes `v` raw, and everything
//! read out of `v` afterwards); closure parameters are untracked; a
//! sanitizer applies from its line onward without branch sensitivity;
//! a block-final expression counts as a possible return value.

use crate::callgraph::{self, CallGraph, CallSite, FnId, FnInfo};
use crate::lexer::{Tok, Token};
use crate::markers::Marker;
use crate::syntax;
use crate::{FileData, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Pattern tokens that are never variable binders.
const NON_BINDERS: &[&str] = &["mut", "ref", "box", "self", "_"];

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
    /// Calling this fn is itself observable at the rule's sinks (it
    /// emits bytes or commits in argument order), so a loop around the
    /// call exposes the loop's iteration order.
    pub emits: bool,
}

/// One row of a verdict table: a sanitized flow that reached a sink.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Verdict {
    pub source: String,
    pub sanitizer: String,
    pub sink: String,
}

impl Verdict {
    /// The chain as `--order-dag` prints it: `source => sanitizer => sink`
    /// with the `:line` after every file path dropped. A chain is then
    /// keyed by function and file, and an edit above it in the same file
    /// is no diff against the committed `determinism.expected` (the JSON
    /// report and the `--order` table keep the lines).
    pub fn chain_key(&self) -> String {
        let chain = format!("{} => {} => {}", self.source, self.sanitizer, self.sink);
        let mut parts = chain.split(".rs:");
        let mut key = parts.next().unwrap_or_default().to_owned();
        for after_path in parts {
            key.push_str(".rs");
            key.push_str(after_path.trim_start_matches(|c: char| c.is_ascii_digit()));
        }
        key
    }
}

/// What a pass reports: findings and verdict rows, both canonically
/// ordered.
#[derive(Default)]
pub struct Report {
    pub findings: BTreeSet<Finding>,
    pub verdicts: BTreeSet<Verdict>,
}

impl Report {
    pub fn into_sorted(self) -> (Vec<Finding>, Vec<Verdict>) {
        (self.findings.into_iter().collect(), self.verdicts.into_iter().collect())
    }
}

/// What makes a dataflow pass a rule. The required items are what both
/// rules have; the defaulted hooks are events only one of them watches.
pub trait Rule: Default {
    /// Rule id of a finding at this rule's ordinary sinks.
    const ID: &'static str;
    /// Receiver methods that write their arguments into the receiver.
    const MUTATORS: &'static [&'static str];
    /// Finding text for a raw value from `origin` reaching `sink`.
    fn message(origin: &str, sink: &str) -> String;
    /// The reason text when `m` is this rule's escape marker.
    fn escape(m: &Marker) -> Option<&str>;
    /// Sources, sanitizers and sinks recognized by callee name, before
    /// resolution. Returns `(contribution, skip_args)`; `None` hands the
    /// call to summary resolution.
    fn prim_call(cx: &mut FnCx<Self>, site: &CallSite, close: usize) -> Option<(Prov, bool)>;
    /// A `for` header at token `at`: the domain region is `start..open`.
    /// Evaluates the domain, fires loop sinks and binds `binders`.
    fn for_loop(cx: &mut FnCx<Self>, at: usize, binders: Vec<String>, start: usize, open: usize);

    /// Binds the fn's parameters on entry.
    fn enter(cx: &mut FnCx<Self>) {
        let cg = cx.cg;
        cx.vars.extend(cg.fns[cx.me].params.iter().cloned().zip((0..).map(Prov::Param)));
    }
    /// Binds a `let` whose RHS region `rhs` evaluated to `v`; the
    /// ascription region, if any, may decide the binding instead.
    fn bind_let(
        cx: &mut FnCx<Self>,
        binders: Vec<String>,
        _ascription: Option<(usize, usize)>,
        _rhs: (usize, usize),
        v: Prov,
    ) {
        cx.bind(binders, v);
    }
    /// An assignment to `name` from the region `rhs`; `true` when the
    /// rule typed the binding itself.
    fn assign(_cx: &mut FnCx<Self>, _name: &str, _rhs: (usize, usize)) -> bool {
        false
    }
    /// A plain `if` at token `at` whose body opens at `open`.
    fn guard(_cx: &mut FnCx<Self>, _at: usize, _open: usize) {}
    /// A rule-specific source or sink at token `j` of an expression
    /// ending at `b`: `(contribution, token to resume at)`.
    fn event_at(_cx: &mut FnCx<Self>, _j: usize, _b: usize) -> Option<(Prov, usize)> {
        None
    }
    /// A resolved call to a marked sink: sinks the arguments and returns
    /// `true`, replacing summary application.
    fn sink_call(
        _cx: &mut FnCx<Self>,
        _site: &CallSite,
        _callees: &[FnId],
        _args: &[(usize, usize)],
    ) -> bool {
        false
    }
    /// The callee is a marked source: its return value is raw.
    fn source_callee(_info: &FnInfo) -> bool {
        false
    }
    /// Adjusts a value read at token `at` by what directly follows it.
    fn after(_cx: &FnCx<Self>, v: Prov, _at: usize, _b: usize) -> Prov {
        v
    }
    /// `name.m(…)` on a tracked local with provenance `v`, at token
    /// `at`; `true` when the method consumed the read.
    fn var_method(_cx: &mut FnCx<Self>, _name: &str, _v: &Prov, _m: &str, _at: usize) -> bool {
        false
    }
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

/// Runs rule `R` over the workspace: summaries to a fixpoint, then one
/// reporting walk of every function.
pub fn run<R: Rule>(files: &[FileData], cg: &CallGraph) -> Report {
    let live = |id: FnId| !cg.fns[id].in_test_mod && cg.fns[id].body.is_some();
    let mut sums = vec![Summary::default(); cg.fns.len()];
    fixpoint(&mut sums, |id, sums| live(id).then(|| FnCx::<R>::walk(files, cg, id, sums, None)));
    let mut report = Report::default();
    for id in (0..cg.fns.len()).filter(|&id| live(id)) {
        FnCx::<R>::walk(files, cg, id, &sums, Some(&mut report));
    }
    report
}

/// The per-function walker.
pub struct FnCx<'a, R: Rule> {
    pub cg: &'a CallGraph,
    pub sums: &'a [Summary],
    pub me: FnId,
    pub fd: &'a FileData,
    /// Provenance of the tracked locals.
    pub vars: BTreeMap<String, Prov>,
    /// The rule's own per-function state.
    pub rule: R,
    /// The summary being built.
    pub sum: Summary,
    /// Inside a sub-expression that the enclosing walk visits again
    /// (an index region): sinks still record parameters, nothing is
    /// reported twice.
    quiet: bool,
    report: Option<&'a mut Report>,
}

impl<'a, R: Rule> FnCx<'a, R> {
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
            rule: R::default(),
            sum: Summary::default(),
            quiet: false,
            report,
        };
        R::enter(&mut cx);
        if let Some((bs, be)) = info.body {
            cx.stmts(bs + 1, be);
        }
        cx.sum
    }

    pub fn toks(&self) -> &'a [Token] {
        &self.fd.lexed.tokens
    }

    /// `what at file:line in Type::fn` — a sink description.
    pub fn here(&self, what: &str, line: u32) -> String {
        format!("{what} at {}:{line} in {}", self.fd.path, self.cg.qualified(self.me))
    }

    /// `Type::fn (file:line)` — an origin description naming fn `id`.
    pub fn origin(&self, id: FnId, line: u32) -> String {
        format!("{} ({}:{line})", self.cg.qualified(id), self.fd.path)
    }

    pub fn bind(&mut self, binders: Vec<String>, v: Prov) {
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
        R::bind_let(self, binders, pattern_end.map(|pe| (pe + 1, eq)), (eq + 1, end), v);
        end + 1
    }

    fn handle_for(&mut self, i: usize, b: usize) -> usize {
        let toks = self.toks();
        let mut j = i + 1;
        while j < b && toks[j].ident() != Some("in") && !toks[j].is_punct('{') {
            j += 1;
        }
        let open = find_block_open(toks, j + 1, b);
        R::for_loop(self, i, pattern_binders(toks, i + 1, j), j + 1, open);
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
        R::guard(self, i, open);
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
                if !R::assign(self, name, (eq + 1, b)) {
                    let slot = self.vars.entry(name.to_owned()).or_default();
                    if compound {
                        slot.merge(v);
                    } else {
                        *slot = v;
                    }
                }
                return Prov::Clean;
            }
        }
        self.eval(a, b)
    }

    /// The expression walker: merges provenance contributions, resolves
    /// calls against summaries, and lets the rule see its events.
    pub fn eval(&mut self, a: usize, b: usize) -> Prov {
        let toks = self.toks();
        let mut val = Prov::Clean;
        let mut j = a;
        while j < b {
            if let Some((v, next)) = R::event_at(self, j, b) {
                val.merge(v);
                j = next;
                continue;
            }
            if let Some(site) = callgraph::call_at(toks, j) {
                let close = syntax::match_delim(toks, site.args_open);
                if close < b {
                    let (c, skip) = self.eval_call(&site, close);
                    val.merge(R::after(self, c, close, b));
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
                    if R::var_method(self, name, &v, m, j) {
                        j = mclose + 1;
                        continue;
                    }
                    if R::MUTATORS.contains(&m) && mclose < b {
                        // `v.push(raw)` makes `v` raw.
                        let av = self.eval(margs + 1, mclose);
                        self.vars.entry(name.to_owned()).or_default().merge(av);
                        j = mclose + 1;
                        continue;
                    }
                }
                val.merge(R::after(self, v, j, b));
            }
            j += 1;
        }
        val
    }

    /// [`Self::eval`] of a region the enclosing walk visits again.
    pub fn eval_quiet(&mut self, a: usize, b: usize) -> Prov {
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
        if let Some(prim) = R::prim_call(self, site, close) {
            return prim;
        }
        let (cg, sums) = (self.cg, self.sums);
        let callees = cg.resolve_confident(self.me, site);
        if callees.is_empty() {
            return (Prov::Clean, false);
        }
        let args = callgraph::split_args(self.toks(), site.args_open, close);
        if R::sink_call(self, site, &callees, &args) {
            return (Prov::Clean, true);
        }
        let arg_vals: Vec<Prov> = args.iter().map(|&(x, y)| self.eval(x, y)).collect();
        let mut out = Prov::Clean;
        for &cid in &callees {
            if R::source_callee(&cg.fns[cid]) {
                out.merge(Prov::Raw(self.origin(cid, site.line)));
            }
            let sum = &sums[cid];
            self.sum.emits |= sum.emits;
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
    pub fn sanitize_region(&mut self, a: usize, b: usize, by: &str) {
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

    /// Provenance `v` reached the rule's sink `desc`.
    pub fn sink(&mut self, v: Prov, desc: String, line: u32) {
        self.sink_as(R::ID, R::message, v, desc, line);
    }

    /// Provenance `v` reached the sink `desc`: a parameter makes `desc`
    /// a sink of every caller, a fixed value is a verdict row, a raw one
    /// a finding of `rule` unless an escape marker covers `line`.
    pub fn sink_as(
        &mut self,
        rule: &'static str,
        message: fn(&str, &str) -> String,
        v: Prov,
        desc: String,
        line: u32,
    ) {
        let fd = self.fd;
        let report = self.report.as_deref_mut().filter(|_| !self.quiet);
        let (source, sanitizer) = match v {
            Prov::Clean => return,
            Prov::Param(p) => {
                self.sum.param_sinks.insert((p, desc));
                return;
            }
            Prov::Fixed(origin, by) => (origin, by),
            Prov::Raw(origin) => match fd.markers.reason_near(line, R::escape) {
                Some(reason) => (origin, format!("marker: {reason}")),
                None => {
                    if let Some(report) = report {
                        let (file, message) = (fd.path.clone(), message(&origin, &desc));
                        report.findings.insert(Finding { file, line, rule, message });
                    }
                    return;
                }
            },
        };
        if let Some(report) = report {
            report.verdicts.insert(Verdict { source, sanitizer, sink: desc });
        }
    }
}

/// End of the statement starting at `a`, as `(index, closed)`: the
/// depth-0 `;` (`closed` = false: not a tail expression), a depth-0
/// match-arm `,` when `arms` is set, the closer of the enclosing block,
/// or `b`.
pub fn stmt_limit(toks: &[Token], a: usize, b: usize, arms: bool) -> (usize, bool) {
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

/// Index of the `;` ending the statement starting at `a`, wherever in
/// the file that is.
pub fn stmt_semi(toks: &[Token], a: usize) -> usize {
    stmt_limit(toks, a, toks.len(), false).0
}

/// The `{` opening the body of an `if`/`for`/`while`/`match` whose
/// header starts at `a`.
pub fn find_block_open(toks: &[Token], a: usize, b: usize) -> usize {
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
pub fn pattern_binders(toks: &[Token], a: usize, b: usize) -> Vec<String> {
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
pub fn method_after(toks: &[Token], j: usize) -> Option<(&str, usize)> {
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
pub fn is_cmp_prefix(t: &Token) -> bool {
    t.is_punct('=') || t.is_punct('!') || t.is_punct('<') || t.is_punct('>')
}
