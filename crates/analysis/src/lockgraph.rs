//! Rules 2 and 6: lock-order discipline and guard-across-IO, on the
//! workspace call graph.
//!
//! The pass extracts every lock acquisition (`.lock()`, and zero-argument
//! `.read()` / `.write()` on `RwLock`-shaped receivers) from every
//! workspace file, classifies each site into a named lock class by its
//! receiver, and builds an **acquired-while-held** graph:
//!
//! * a guard bound by a `let` whose statement ends at the acquisition
//!   chain is considered held until the end of the brace block containing
//!   it;
//! * an acquisition consumed mid-expression (`self.store.write()?.alloc()`)
//!   is *transient* — held only for the rest of its own statement;
//! * a call site is resolved through [`CallGraph::resolve`] (typed
//!   receiver → same file → workspace union), and **may-acquire sets**
//!   are propagated over the resolved edges to a fixpoint — so the
//!   cross-crate footprint core::paged → storage::striped →
//!   storage::store is computed, not hand-tabulated. A `let`-bound call
//!   to a function returning a `…Guard` type counts as acquiring the
//!   callee's classes.
//!
//! Extraction runs on all files (callees outside serving-path files
//! still contribute footprints); edge emission and findings are gated to
//! serving-path files, the modules that deny panics to clippy
//! ([`syntax::denies_panics`]). Any cycle — including a self-edge, i.e.
//! re-acquiring a held class — fails the build. Transient guards
//! deliberately do not propagate through calls, and call-derived
//! self-edges are dropped: both are over-approximation escape valves;
//! the direct-acquisition edges that define the discipline are exact.
//!
//! **Guard-across-IO** (rule 6): `PageStore` IO — acquiring the `store`
//! class, or calling anything whose may-set contains it — while a guard
//! of any class other than `stripe`/`store` is held is a finding: page
//! faults can block for a disk round-trip, and only the buffer pool's
//! own stripe is designed to be held across one (the documented
//! stripe→store order). Escape:
//! `// roadlint: allow(io-under-lock) reason="…"`.

use crate::callgraph::{self, CallGraph, FnId};
use crate::dataflow;
use crate::lexer::Token;
use crate::markers::Marker;
use crate::syntax;
use crate::{FileData, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Receiver-identifier → lock-class table for this codebase. A site whose
/// receiver is not listed here can be classified manually with a
/// `lock(<class>)` marker on the same line; otherwise it is a finding.
const RECEIVER_CLASSES: &[(&str, &str)] = &[
    ("stripe", "stripe"),
    ("stripes", "stripe"),
    ("store", "store"),
    ("page_in", "page-in"),
    ("current", "publish"),
    ("shared", "publish"),
];

/// Method names that acquire a lock when called with zero arguments.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Chain adapters that pass the guard through unchanged.
const GUARD_ADAPTERS: &[&str] = &["map_err", "unwrap_or_else", "expect", "unwrap", "ok_or"];

/// The lock class whose acquisition IS PageStore IO.
const IO_CLASS: &str = "store";

/// Classes a guard may legitimately belong to while PageStore IO runs:
/// the buffer pool's own stripe (the documented stripe→store design) and
/// the store itself.
const IO_SAFE_HELD: &[&str] = &["stripe", "store"];

/// One body-ordered lock-relevant event inside a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockEvent {
    /// A direct acquisition. `held` means let-bound: the guard lives to
    /// the end of the brace block at `depth` that contains it.
    Acquire { class: String, held: bool, line: u32, depth: u32, io_escape: bool },
    /// A call, resolved against the workspace call graph. `callees` is
    /// the broad (over-approximating) resolution used for may-acquire
    /// edges; `io_callees` is the typed-only resolution the guard-io
    /// rule trusts — a `Vec::insert` must not inherit
    /// `BPlusTree::insert`'s IO footprint.
    Call {
        callees: Vec<FnId>,
        io_callees: Vec<FnId>,
        let_bound: bool,
        line: u32,
        depth: u32,
        io_escape: bool,
    },
    /// A statement boundary (releases transient guards).
    StmtEnd,
    /// A `}` closed a block: guards let-bound deeper than `depth` (the
    /// enclosing depth) are dropped.
    BlockEnd { depth: u32 },
}

/// Lock events of one function.
#[derive(Debug, Clone)]
pub struct LockFn {
    pub id: FnId,
    pub events: Vec<LockEvent>,
}

/// Lock summary of one file. `serving` gates edge emission and findings;
/// non-serving files still contribute may-acquire footprints.
#[derive(Debug, Clone)]
pub struct FileLocks {
    pub file: String,
    pub serving: bool,
    pub fns: Vec<LockFn>,
}

/// An example acquisition site backing a graph edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub file: String,
    pub line: u32,
    pub function: String,
}

/// What calling a function may do, transitively: the lock classes it may
/// acquire and whether it may do PageStore IO.
#[derive(Clone, PartialEq, Default)]
struct Footprint {
    may: BTreeSet<String>,
    io: bool,
}

/// The acquired-while-held graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    pub classes: BTreeSet<String>,
    /// `(held, acquired) -> example site` of the acquisition.
    pub edges: BTreeMap<(String, String), Site>,
}

/// Extracts the per-function lock events of one file. Unclassifiable
/// acquisitions are findings in serving-path files only.
pub fn extract_file_locks(
    fd: &FileData,
    fi: usize,
    cg: &CallGraph,
    findings: &mut Vec<Finding>,
) -> FileLocks {
    let toks = &fd.lexed.tokens;
    let serving = syntax::denies_panics(&fd.lexed.tokens);
    let escaped = |line: u32| {
        fd.markers.has_on_line(&Marker::AllowIoUnderLock, line)
            || (line > 0 && fd.markers.has_on_line(&Marker::AllowIoUnderLock, line - 1))
    };
    let mut out = FileLocks { file: fd.path.clone(), serving, fns: Vec::new() };
    for &fid in cg.fns_in_file(fi) {
        let info = &cg.fns[fid];
        if info.in_test_mod {
            continue;
        }
        let Some((body_start, body_end)) = info.body else { continue };
        let mut events = Vec::new();
        let mut depth = 0u32;
        let mut i = body_start + 1;
        while i < body_end {
            let t = &toks[i];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                if t.is_punct('{') {
                    depth += 1;
                }
                if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                    events.push(LockEvent::BlockEnd { depth });
                }
                events.push(LockEvent::StmtEnd);
                i += 1;
                continue;
            }
            // Direct acquisition: `. lock ( )` with zero arguments.
            if t.is_punct('.')
                && toks
                    .get(i + 1)
                    .and_then(|t| t.ident())
                    .is_some_and(|m| LOCK_METHODS.contains(&m))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                let line = toks[i + 1].line;
                let class = fd
                    .markers
                    .lock_class_on_line(line)
                    .map(str::to_owned)
                    .or_else(|| classify_receiver(toks, i));
                match class {
                    Some(class) => {
                        let held = chain_ends_statement(toks, i + 3, body_end)
                            && statement_is_let(toks, i, body_start);
                        events.push(LockEvent::Acquire {
                            class,
                            held,
                            line,
                            depth,
                            io_escape: escaped(line),
                        });
                    }
                    None if serving => findings.push(Finding {
                        file: fd.path.clone(),
                        line,
                        rule: "lock-order",
                        message: format!(
                            ".{}() acquisition with unrecognized receiver; name the field after its lock class or add a lock(<class>) marker",
                            toks[i + 1].ident().unwrap_or("lock")
                        ),
                    }),
                    None => {}
                }
                i += 4;
                continue;
            }
            // Call: resolved through the workspace call graph.
            if let Some(site) = callgraph::call_at(toks, i) {
                if !LOCK_METHODS.contains(&site.name.as_str()) {
                    let callees = cg.resolve(fid, &site);
                    if !callees.is_empty() {
                        let io_callees = cg.resolve_exact(fid, &site);
                        let close = syntax::match_delim(toks, site.args_open);
                        let let_bound = chain_ends_statement(toks, close, body_end)
                            && statement_is_let(toks, i, body_start);
                        events.push(LockEvent::Call {
                            callees,
                            io_callees,
                            let_bound,
                            line: t.line,
                            depth,
                            io_escape: escaped(t.line),
                        });
                    }
                }
            }
            i += 1;
        }
        out.fns.push(LockFn { id: fid, events });
    }
    out
}

/// Walks backwards from the `.` of an acquisition to classify its
/// receiver: skips `?` and balanced `(…)` / `[…]` groups, follows method
/// chains, and stops at the first identifier with a known class.
fn classify_receiver(toks: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        let t = &toks[j];
        if t.is_punct('?') || t.is_punct('.') {
            j = j.checked_sub(1)?;
        } else if t.is_punct(')') || t.is_punct(']') {
            let open = syntax::match_delim_back(toks, j);
            j = open.checked_sub(1)?;
        } else if let Some(name) = t.ident() {
            if let Some((_, class)) = RECEIVER_CLASSES.iter().find(|(r, _)| *r == name) {
                return Some((*class).to_owned());
            }
            // Part of a method chain (`x.get(i).lock()`)? Keep walking.
            if j >= 1 && toks[j - 1].is_punct('.') {
                j = j.checked_sub(2)?;
            } else {
                return None;
            }
        } else {
            return None;
        }
    }
}

/// From the closing delimiter of an acquisition/call at `close`, skips
/// guard-passing adapters (`.map_err(…)?` etc.) and reports whether the
/// chain ends its statement there (`;`).
fn chain_ends_statement(toks: &[Token], close: usize, body_end: usize) -> bool {
    let mut j = close + 1;
    while j < body_end {
        if toks[j].is_punct('?') {
            j += 1;
        } else if toks[j].is_punct('.')
            && toks.get(j + 1).and_then(|t| t.ident()).is_some_and(|m| GUARD_ADAPTERS.contains(&m))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            j = syntax::match_delim(toks, j + 2) + 1;
        } else {
            return toks[j].is_punct(';');
        }
    }
    false
}

/// True when the statement containing token `at` starts with `let`
/// (scanning back to the previous statement/block boundary).
fn statement_is_let(toks: &[Token], at: usize, body_start: usize) -> bool {
    let mut j = at;
    while j > body_start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.ident() == Some("let") {
            return true;
        }
    }
    false
}

/// Builds the acquired-while-held graph from every file's lock events and
/// reports ordering violations (cycles, including self-edges) and
/// guard-across-IO sites in serving files.
pub fn check(locks: &[FileLocks], cg: &CallGraph) -> (LockGraph, Vec<Finding>) {
    // Lock footprints per FnId, to a fixpoint over the resolved call
    // graph. IO propagates only over the *exact* (typed) resolution —
    // the guard-io rule must not attribute a `Vec::insert` to a
    // same-named workspace fn the way the broad may-acquire edges
    // deliberately do.
    let mut events: Vec<&[LockEvent]> = vec![&[]; cg.fns.len()];
    for f in locks.iter().flat_map(|file| &file.fns) {
        events[f.id] = &f.events;
    }
    let mut foot = vec![Footprint::default(); cg.fns.len()];
    let converged = dataflow::fixpoint(&mut foot, |id, foot| {
        let mut s = foot[id].clone();
        for e in events[id] {
            match e {
                LockEvent::Acquire { class, .. } => {
                    s.io |= class == IO_CLASS;
                    s.may.insert(class.clone());
                }
                LockEvent::Call { callees, io_callees, .. } => {
                    s.may.extend(callees.iter().flat_map(|&c| foot[c].may.iter().cloned()));
                    s.io |= io_callees.iter().any(|&c| foot[c].io);
                }
                _ => {}
            }
        }
        Some(s)
    });
    let mut findings = Vec::new();
    if !converged {
        // Footprints only grow, so this means a call chain deeper than
        // the round cap — and a graph that may be missing edges.
        findings.push(Finding {
            file: String::new(),
            line: 0,
            rule: "lock-order",
            message: format!("lock footprints did not converge in {} rounds", dataflow::ROUNDS),
        });
    }

    // Edge emission by linear simulation of each serving-file function.
    let mut graph = LockGraph::default();
    for file in locks {
        if !file.serving {
            continue;
        }
        for f in &file.fns {
            let fname = cg.qualified(f.id);
            let mut held: Vec<(String, u32)> = Vec::new();
            let mut transients: Vec<String> = Vec::new();
            let mut io_finding = |held: &[(String, u32)], line: u32, what: &str| {
                if let Some((from, _)) =
                    held.iter().find(|(c, _)| !IO_SAFE_HELD.contains(&c.as_str()))
                {
                    findings.push(Finding {
                        file: file.file.clone(),
                        line,
                        rule: "guard-io",
                        message: format!(
                            "`{from}` guard held across PageStore IO ({what} in {fname}); \
                             release it first or mark `// roadlint: allow(io-under-lock) reason=\"…\"`"
                        ),
                    });
                }
            };
            for e in &f.events {
                match e {
                    LockEvent::StmtEnd => transients.clear(),
                    LockEvent::BlockEnd { depth } => {
                        held.retain(|(_, d)| *d <= *depth);
                    }
                    LockEvent::Acquire { class, held: h, line, depth, io_escape } => {
                        graph.classes.insert(class.clone());
                        let site =
                            Site { file: file.file.clone(), line: *line, function: fname.clone() };
                        for from in held.iter().map(|(c, _)| c).chain(transients.iter()) {
                            graph
                                .edges
                                .entry((from.clone(), class.clone()))
                                .or_insert_with(|| site.clone());
                        }
                        if class == IO_CLASS && !io_escape {
                            io_finding(&held, *line, &format!("acquiring `{IO_CLASS}`"));
                        }
                        if *h {
                            held.push((class.clone(), *depth));
                        } else {
                            transients.push(class.clone());
                        }
                    }
                    LockEvent::Call { callees, io_callees, let_bound, line, depth, io_escape } => {
                        let acquired: BTreeSet<String> =
                            callees.iter().flat_map(|&c| foot[c].may.iter().cloned()).collect();
                        if acquired.is_empty() {
                            continue;
                        }
                        graph.classes.extend(acquired.iter().cloned());
                        let site =
                            Site { file: file.file.clone(), line: *line, function: fname.clone() };
                        for (from, _) in &held {
                            for to in &acquired {
                                // Call-derived self-edges are dropped:
                                // name-level resolution is too coarse to
                                // prove a genuine re-acquisition.
                                if from != to {
                                    graph
                                        .edges
                                        .entry((from.clone(), to.clone()))
                                        .or_insert_with(|| site.clone());
                                }
                            }
                        }
                        let io_callee = io_callees.iter().find(|&&c| foot[c].io);
                        if let Some(&c) = io_callee.filter(|_| !io_escape) {
                            io_finding(&held, *line, &format!("call to {}", cg.qualified(c)));
                        }
                        if *let_bound && callees.iter().any(|&c| cg.fns[c].guard_returning) {
                            held.extend(acquired.iter().map(|c| (c.clone(), *depth)));
                        }
                    }
                }
            }
        }
    }

    // Cycle detection (self-edges are cycles of length one).
    if let Some(cycle) = find_cycle(&graph) {
        let mut msg = String::from("lock-order cycle: ");
        for (k, (a, b)) in cycle.iter().enumerate() {
            let site = &graph.edges[&(a.clone(), b.clone())];
            if k > 0 {
                msg.push_str(", ");
            }
            msg.push_str(&format!(
                "{a} -> {b} (at {}:{} in {})",
                site.file, site.line, site.function
            ));
        }
        let (first_a, first_b) = &cycle[0];
        let site = graph.edges[&(first_a.clone(), first_b.clone())].clone();
        findings.push(Finding {
            file: site.file,
            line: site.line,
            rule: "lock-order",
            message: msg,
        });
    }
    (graph, findings)
}

/// Finds one cycle in the edge set, returned as its list of edges.
fn find_cycle(g: &LockGraph) -> Option<Vec<(String, String)>> {
    // Self-edges first: the clearest violation.
    for (a, b) in g.edges.keys() {
        if a == b {
            return Some(vec![(a.clone(), b.clone())]);
        }
    }
    let succ = |n: &String| -> Vec<String> {
        g.edges.keys().filter(|(a, _)| a == n).map(|(_, b)| b.clone()).collect()
    };
    // Iterative DFS with an explicit on-path stack.
    for start in &g.classes {
        let mut path: Vec<String> = vec![start.clone()];
        let mut iters: Vec<Vec<String>> = vec![succ(start)];
        let mut visited_from_start: BTreeSet<String> = BTreeSet::new();
        while let Some(frame) = iters.last_mut() {
            let Some(next) = frame.pop() else {
                path.pop();
                iters.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|n| n == &next) {
                // Cycle: path[pos..] + next closes it.
                let mut cycle = Vec::new();
                for w in path[pos..].windows(2) {
                    cycle.push((w[0].clone(), w[1].clone()));
                }
                cycle.push((path[path.len() - 1].clone(), next));
                return Some(cycle);
            }
            if visited_from_start.insert(next.clone()) {
                iters.push(succ(&next));
                path.push(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(srcs: &[(&str, &str)]) -> (Vec<FileLocks>, CallGraph, Vec<Finding>) {
        let files: Vec<FileData> = srcs.iter().map(|(p, s)| FileData::new(p, s)).collect();
        let cg = CallGraph::build(&files);
        let mut findings = Vec::new();
        let locks = files
            .iter()
            .enumerate()
            .map(|(fi, fd)| extract_file_locks(fd, fi, &cg, &mut findings))
            .collect();
        (locks, cg, findings)
    }

    fn run(srcs: &[(&str, &str)]) -> (LockGraph, Vec<Finding>) {
        let (locks, cg, mut findings) = extract(srcs);
        let (graph, more) = check(&locks, &cg);
        findings.extend(more);
        (graph, findings)
    }

    #[test]
    fn held_vs_transient_classification() {
        let (locks, _, _) = extract(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            impl P {
                fn a(&self) {
                    let id = self.store.write().map_err(E)?.alloc();
                    let mut stripe = self.stripes[0].lock().map_err(E)?;
                    stripe.put(id);
                }
            }",
        )]);
        let ev = &locks[0].fns[0].events;
        assert!(ev.iter().any(|e| matches!(
            e,
            LockEvent::Acquire { class, held: false, line: 4, .. } if class == "store"
        )));
        assert!(ev.iter().any(|e| matches!(
            e,
            LockEvent::Acquire { class, held: true, line: 5, .. } if class == "stripe"
        )));
    }

    #[test]
    fn block_scoped_guard_expires_at_block_end() {
        // Two sequential `{ let g = lock(); … }` blocks of the same class
        // must NOT look like a re-acquisition (paged.rs::ensure_rnet_loaded).
        let (_, findings) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            fn seq(&self) {
                let a = {
                    let cursor = self.page_in.lock();
                    cursor.page()
                };
                let b = {
                    let cursor = self.page_in.lock();
                    cursor.page()
                };
            }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn chained_receiver_resolves_through_adapters() {
        let (locks, _, _) = extract(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            fn a(&self) {
                let g = self.stripes.get(idx).ok_or(Bad)?.lock().map_err(E)?;
                g.touch();
            }",
        )]);
        assert!(locks[0].fns[0].events.iter().any(|e| matches!(
            e,
            LockEvent::Acquire { class, held: true, .. } if class == "stripe"
        )));
    }

    #[test]
    fn opposite_orders_cycle() {
        let (graph, findings) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            impl P {
                fn ab(&self) {
                    let a = self.page_in.lock();
                    let b = self.store.write();
                }
                fn ba(&self) {
                    let b = self.store.write();
                    let a = self.page_in.lock();
                }
            }",
        )]);
        assert!(graph.edges.contains_key(&("page-in".into(), "store".into())));
        assert!(graph.edges.contains_key(&("store".into(), "page-in".into())));
        assert!(findings.iter().any(|f| f.message.contains("lock-order cycle")));
    }

    #[test]
    fn consistent_order_is_clean_and_call_edges_propagate() {
        let (graph, findings) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            impl P {
                fn low(&self) {
                    let s = self.stripe.lock();
                }
                fn high(&self) {
                    let g = self.page_in.lock();
                    // roadlint: allow(io-under-lock) reason=\"n/a: no store here\"
                    self.low();
                }
            }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(graph.edges.contains_key(&("page-in".into(), "stripe".into())));
    }

    #[test]
    fn cross_file_call_footprint_is_computed() {
        // The callee lives in another file (≈ another crate): the edge
        // page-in → store must still appear, and guard-io must fire since
        // a page-in guard is held across PageStore IO.
        let (graph, findings) = run(&[
            (
                "core/paged.rs",
                "#![deny(clippy::indexing_slicing)]
                struct Eng { pool: Arc<Pool> }
                impl Eng {
                    fn fault(&self) {
                        let g = self.page_in.lock();
                        self.pool.alloc(1);
                    }
                }",
            ),
            (
                "storage/pool.rs",
                "#![deny(clippy::indexing_slicing)]
                struct Pool { x: u32 }
                impl Pool {
                    fn alloc(&self, n: u32) {
                        let s = self.store.write();
                    }
                }",
            ),
        ]);
        assert!(graph.edges.contains_key(&("page-in".into(), "store".into())), "{graph:?}");
        assert!(
            findings.iter().any(|f| f.rule == "guard-io" && f.message.contains("page-in")),
            "{findings:?}"
        );
    }

    #[test]
    fn guard_io_escape_suppresses() {
        let (_, findings) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            impl P {
                fn f(&self) {
                    let g = self.page_in.lock();
                    // roadlint: allow(io-under-lock) reason=\"page-in lock serializes appends\"
                    let s = self.store.write();
                }
            }",
        )]);
        assert!(findings.iter().all(|f| f.rule != "guard-io"), "{findings:?}");
        // Without the escape the same shape is a finding.
        let (_, bad) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            impl P {
                fn f(&self) {
                    let g = self.page_in.lock();
                    let s = self.store.write();
                }
            }",
        )]);
        assert!(bad.iter().any(|f| f.rule == "guard-io"), "{bad:?}");
    }

    #[test]
    fn stripe_held_across_store_io_is_allowed() {
        let (_, findings) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            impl P {
                fn f(&self) {
                    let g = self.stripe.lock();
                    let s = self.store.write();
                }
            }",
        )]);
        assert!(findings.iter().all(|f| f.rule != "guard-io"), "{findings:?}");
    }

    #[test]
    fn reacquiring_a_held_class_is_a_self_cycle() {
        let (_, findings) = run(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            fn double(&self) {
                let a = self.stripes[0].lock();
                let b = self.stripes[1].lock();
            }",
        )]);
        assert!(findings.iter().any(|f| f.message.contains("stripe -> stripe")), "{findings:?}");
    }

    #[test]
    fn unclassified_receiver_is_a_finding_unless_marked() {
        let (_, _, bad) = extract(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            fn f(&self) { let g = self.mystery.lock(); }",
        )]);
        assert!(bad.iter().any(|f| f.rule == "lock-order"));
        let (_, _, ok) = extract(&[(
            "t.rs",
            "#![deny(clippy::indexing_slicing)]
            fn f(&self) {
                let g = self.mystery.lock(); // roadlint: lock(mystery)
            }",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    /// A file off the serving path (no `deny` of `clippy::indexing_slicing`)
    /// still lends its callers footprints, but emits no edge and no
    /// unclassified-receiver finding of its own.
    #[test]
    fn only_serving_path_files_emit_edges_and_findings() {
        let body = "impl P {
                fn a(&self) {
                    let g = self.page_in.lock().map_err(E)?;
                    let s = self.store.write().map_err(E)?;
                    let m = self.mystery.lock();
                }
            }";
        let (graph, findings) = run(&[("t.rs", body)]);
        assert!(graph.edges.is_empty(), "{:?}", graph.edges);
        assert!(findings.is_empty(), "{findings:?}");
        let serving = format!("#![deny(clippy::indexing_slicing)]\n{body}");
        let (graph, findings) = run(&[("t.rs", serving.as_str())]);
        assert!(graph.edges.contains_key(&("page-in".to_owned(), "store".to_owned())));
        assert!(
            findings.iter().any(|f| f.message.contains("unrecognized receiver")),
            "{findings:?}"
        );
    }
}
