//! Network expansion: Dijkstra's algorithm and reusable search state.
//!
//! Every approach evaluated in the paper reduces to *network expansion*
//! somewhere: the NetExp baseline runs it directly over the whole network
//! (ref \[16\]), ROAD runs it over the Route Overlay where shortcut jumps are
//! extra relaxations, shortcut construction runs it inside each Rnet, and
//! the Euclidean baseline uses A* (`road_baselines::euclidean::AStar`).
//!
//! The central type here is [`Dijkstra`], a reusable search state with
//! generation-stamped distance labels. Re-running a query does not pay an
//! `O(|N|)` re-initialisation — important when an experiment fires hundreds
//! of queries at a 175k-node network. The expansion is visitor-driven so
//! callers decide when to stop (k objects found, range exceeded, target
//! settled) and what to do at every settled node (object lookup).

use crate::csr::CsrGraph;
use crate::graph::{RoadNetwork, WeightKind};
use crate::ids::{EdgeId, NodeId};
use crate::path::Path;
use crate::weight::Weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the expansion should do after settling a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// Relax the node's out-edges and keep going.
    Continue,
    /// Do not relax out of this node, but keep draining the queue.
    Skip,
    /// Stop the whole expansion.
    Break,
}

const NO_PRED: u32 = u32::MAX;

/// Reusable Dijkstra state over a [`RoadNetwork`].
pub struct Dijkstra {
    dist: Vec<Weight>,
    pred_node: Vec<u32>,
    pred_edge: Vec<u32>,
    stamp: Vec<u32>,
    round: u32,
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
    settled_count: usize,
}

impl Dijkstra {
    /// Creates state sized for a network of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Dijkstra {
            dist: vec![Weight::INFINITY; num_nodes],
            pred_node: vec![NO_PRED; num_nodes],
            pred_edge: vec![NO_PRED; num_nodes],
            stamp: vec![0; num_nodes],
            round: 0,
            heap: BinaryHeap::new(),
            settled_count: 0,
        }
    }

    /// Convenience constructor from a network.
    pub fn for_network(g: &RoadNetwork) -> Self {
        Dijkstra::new(g.num_nodes())
    }

    /// Grows internal arrays when the network gained nodes since creation.
    pub fn ensure_capacity(&mut self, num_nodes: usize) {
        if num_nodes > self.dist.len() {
            self.dist.resize(num_nodes, Weight::INFINITY);
            self.pred_node.resize(num_nodes, NO_PRED);
            self.pred_edge.resize(num_nodes, NO_PRED);
            self.stamp.resize(num_nodes, 0);
        }
    }

    #[inline]
    fn fresh(&mut self) {
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // Stamp wrap-around: invalidate everything explicitly once every
            // 2^32 searches.
            self.stamp.fill(0);
            self.round = 1;
        }
        self.heap.clear();
        self.settled_count = 0;
    }

    #[inline]
    fn label(&mut self, n: u32, d: Weight, pn: u32, pe: u32) {
        let i = n as usize;
        self.dist[i] = d;
        self.pred_node[i] = pn;
        self.pred_edge[i] = pe;
        self.stamp[i] = self.round;
    }

    #[inline]
    fn current_dist(&self, n: u32) -> Weight {
        let i = n as usize;
        if self.stamp[i] == self.round {
            self.dist[i]
        } else {
            Weight::INFINITY
        }
    }

    /// Distance label of `n` from the most recent run (`None` = unreached).
    #[inline]
    pub fn distance(&self, n: NodeId) -> Option<Weight> {
        let d = self.current_dist(n.0);
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// Predecessor link of `n` from the most recent run.
    pub fn predecessor(&self, n: NodeId) -> Option<(NodeId, EdgeId)> {
        if self.stamp[n.index()] != self.round || self.pred_node[n.index()] == NO_PRED {
            return None;
        }
        Some((NodeId(self.pred_node[n.index()]), EdgeId(self.pred_edge[n.index()])))
    }

    /// Number of nodes settled in the most recent run.
    pub fn settled(&self) -> usize {
        self.settled_count
    }

    /// Reconstructs the path from the most recent run's source to `dst`.
    pub fn path_to(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        let total = self.distance(dst)?;
        Path::from_predecessors(src, dst, total, |n| self.predecessor(n))
    }

    /// General expansion from possibly many `(source, initial-distance)`
    /// seeds; the multi-seed form is what object-on-edge distances need
    /// (an object is reached through either endpoint of its edge).
    ///
    /// `visitor(node, dist)` is invoked once per settled node in
    /// non-descending distance order; its return value steers the search.
    pub fn expand_multi<V>(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        sources: &[(NodeId, Weight)],
        mut visitor: V,
    ) where
        V: FnMut(NodeId, Weight) -> Control,
    {
        self.expand_filtered_multi(g, kind, sources, |_| true, &mut visitor)
    }

    /// Expansion from a single source.
    pub fn expand<V>(&mut self, g: &RoadNetwork, kind: WeightKind, src: NodeId, mut visitor: V)
    where
        V: FnMut(NodeId, Weight) -> Control,
    {
        self.expand_filtered_multi(g, kind, &[(src, Weight::ZERO)], |_| true, &mut visitor)
    }

    /// Expansion that only relaxes edges accepted by `edge_filter`. This is
    /// how shortcut construction confines Dijkstra to a single Rnet.
    pub fn expand_filtered_multi<F, V>(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        sources: &[(NodeId, Weight)],
        edge_filter: F,
        visitor: &mut V,
    ) where
        F: Fn(EdgeId) -> bool,
        V: FnMut(NodeId, Weight) -> Control,
    {
        self.ensure_capacity(g.num_nodes());
        self.fresh();
        for &(s, d0) in sources {
            if d0 < self.current_dist(s.0) {
                self.label(s.0, d0, NO_PRED, NO_PRED);
                self.heap.push(Reverse((d0, s.0)));
            }
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.current_dist(u) {
                continue; // stale heap entry
            }
            self.settled_count += 1;
            match visitor(NodeId(u), d) {
                Control::Break => return,
                Control::Skip => continue,
                Control::Continue => {}
            }
            for (e, v) in g.neighbors(NodeId(u)) {
                if !edge_filter(e) {
                    continue;
                }
                let w = g.weight(e, kind);
                if w.is_infinite() {
                    continue; // tombstoned-by-weight edge
                }
                let nd = d + w;
                if nd < self.current_dist(v.0) {
                    self.label(v.0, nd, u, e.0);
                    self.heap.push(Reverse((nd, v.0)));
                }
            }
        }
    }

    /// Shortest network distance `||src, dst||`.
    pub fn one_to_one(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Weight> {
        let mut found = None;
        self.expand(g, kind, src, |n, d| {
            if n == dst {
                found = Some(d);
                Control::Break
            } else {
                Control::Continue
            }
        });
        found
    }

    /// Shortest path `SP(src, dst)`.
    pub fn shortest_path(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Path> {
        self.one_to_one(g, kind, src, dst)?;
        self.path_to(src, dst)
    }
}

thread_local! {
    /// Pool backing [`with_pooled`]: one spare `Dijkstra` per thread.
    static DIJKSTRA_POOL: std::cell::RefCell<Option<Box<Dijkstra>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with a thread-pooled, network-sized [`Dijkstra`] — the cheap
/// way to fire many one-shot expansions (oracles, reference checks)
/// without paying an `O(|N|)` state allocation per call. Re-entrant calls
/// simply build a fresh state for the inner level.
pub fn with_pooled<R>(g: &RoadNetwork, f: impl FnOnce(&mut Dijkstra) -> R) -> R {
    let mut dij =
        DIJKSTRA_POOL.with(|p| p.borrow_mut().take()).unwrap_or_else(|| Box::new(Dijkstra::new(0)));
    dij.ensure_capacity(g.num_nodes());
    let r = f(&mut dij);
    DIJKSTRA_POOL.with(|p| *p.borrow_mut() = Some(dij));
    r
}

/// One-shot convenience: shortest distance between two nodes.
pub fn shortest_path_weight(
    g: &RoadNetwork,
    kind: WeightKind,
    src: NodeId,
    dst: NodeId,
) -> Option<Weight> {
    Dijkstra::for_network(g).one_to_one(g, kind, src, dst)
}

/// One-shot convenience: shortest path between two nodes.
pub fn shortest_path(g: &RoadNetwork, kind: WeightKind, src: NodeId, dst: NodeId) -> Option<Path> {
    Dijkstra::for_network(g).shortest_path(g, kind, src, dst)
}

/// Estimates the network diameter with the classic double-sweep heuristic:
/// expand from an arbitrary node, then expand again from the farthest node
/// found. The range-query experiments express `r` as a fraction of this.
pub fn estimate_diameter(g: &RoadNetwork, kind: WeightKind) -> Weight {
    if g.num_nodes() == 0 {
        return Weight::ZERO;
    }
    let mut dij = Dijkstra::for_network(g);
    let mut farthest = (NodeId(0), Weight::ZERO);
    dij.expand(g, kind, NodeId(0), |n, d| {
        farthest = (n, d);
        Control::Continue
    });
    let mut best = Weight::ZERO;
    dij.expand(g, kind, farthest.0, |_, d| {
        best = d;
        Control::Continue
    });
    best
}

// ---------------------------------------------------------------------------
// Local (dense-relabelled) Dijkstra over small virtual graphs.
// ---------------------------------------------------------------------------

/// Reusable Dijkstra over *local* graphs held as flat CSR arenas:
/// Rnet-internal subgraphs and the border-node overlay graphs used to
/// compose shortcuts level by level (Lemma 2). Arc labels are opaque
/// caller-supplied tags carried into predecessor links (e.g. "physical
/// edge id" or "child shortcut id").
pub struct LocalDijkstra {
    dist: Vec<Weight>,
    pred_node: Vec<u32>,
    pred_label: Vec<u32>,
    stamp: Vec<u32>,
    /// Generation-stamped target marker (replaces a per-run `Vec<bool>`).
    target_stamp: Vec<u32>,
    round: u32,
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
}

impl Default for LocalDijkstra {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalDijkstra {
    /// Creates empty reusable state.
    pub fn new() -> Self {
        LocalDijkstra {
            dist: Vec::new(),
            pred_node: Vec::new(),
            pred_label: Vec::new(),
            stamp: Vec::new(),
            target_stamp: Vec::new(),
            round: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Runs from `src` over a flat CSR arena (see [`crate::csr`]).  Arc
    /// labels are carried into predecessor links, infinite arcs are
    /// skipped, and when `targets` is non-empty the run stops once all of
    /// them are settled.  One extra knob: nodes with id `< seal_below`
    /// (other than `src`) are *sealed*.  A sealed node is settled normally but never relaxed
    /// out of, so every returned path is internally free of sealed nodes.
    /// Pass `seal_below = 0` for an ordinary run.
    ///
    /// The shortcut builder seals border ids to materialise paths that
    /// avoid intermediate borders (the transitive prune of Lemma 4) in a
    /// single pass.
    pub fn run_csr(&mut self, g: &CsrGraph, src: u32, targets: &[u32], seal_below: u32) {
        let n = g.num_nodes();
        if n > self.dist.len() {
            self.dist.resize(n, Weight::INFINITY);
            self.pred_node.resize(n, NO_PRED);
            self.pred_label.resize(n, NO_PRED);
            self.stamp.resize(n, 0);
            self.target_stamp.resize(n, 0);
        }
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.round = 1;
        }
        self.heap.clear();

        let mut pending = targets.len();
        for &t in targets {
            self.target_stamp[t as usize] = self.round;
        }

        self.dist[src as usize] = Weight::ZERO;
        self.pred_node[src as usize] = NO_PRED;
        self.stamp[src as usize] = self.round;
        self.heap.push(Reverse((Weight::ZERO, src)));

        while let Some(Reverse((d, u))) = self.heap.pop() {
            let ui = u as usize;
            if self.stamp[ui] != self.round || d > self.dist[ui] {
                continue;
            }
            if pending > 0 && self.target_stamp[ui] == self.round {
                // A target can be pushed twice; only count its settlement once.
                self.target_stamp[ui] = self.round.wrapping_sub(1);
                pending -= 1;
                if pending == 0 {
                    return;
                }
            }
            if u != src && u < seal_below {
                continue; // sealed: settled but never expanded
            }
            for (to, weight, label) in g.out(u) {
                if weight.is_infinite() {
                    continue;
                }
                let nd = d + weight;
                let vi = to as usize;
                let cur =
                    if self.stamp[vi] == self.round { self.dist[vi] } else { Weight::INFINITY };
                if nd < cur {
                    self.dist[vi] = nd;
                    self.pred_node[vi] = u;
                    self.pred_label[vi] = label;
                    self.stamp[vi] = self.round;
                    self.heap.push(Reverse((nd, to)));
                }
            }
        }
    }

    /// Distance of `n` from the last run.
    #[inline]
    pub fn dist(&self, n: u32) -> Weight {
        let i = n as usize;
        if i < self.stamp.len() && self.stamp[i] == self.round {
            self.dist[i]
        } else {
            Weight::INFINITY
        }
    }

    /// Predecessor `(node, label)` of `n` from the last run.
    #[inline]
    pub fn pred(&self, n: u32) -> Option<(u32, u32)> {
        let i = n as usize;
        if i < self.stamp.len() && self.stamp[i] == self.round && self.pred_node[i] != NO_PRED {
            Some((self.pred_node[i], self.pred_label[i]))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::NetworkBuilder;

    /// Small fixture mirroring Figure 8's chain with a detour.
    fn diamond() -> RoadNetwork {
        // 0 --1-- 1 --1-- 3
        //  \--3-- 2 --1--/
        let mut b = NetworkBuilder::default();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(Point::new(i as f64, 0.0))).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[3], 1.0).unwrap();
        b.add_edge(n[0], n[2], 3.0).unwrap();
        b.add_edge(n[2], n[3], 1.0).unwrap();
        b.build()
    }

    #[test]
    fn one_to_one_takes_the_short_route() {
        let g = diamond();
        let mut d = Dijkstra::for_network(&g);
        assert_eq!(
            d.one_to_one(&g, WeightKind::Distance, NodeId(0), NodeId(3)),
            Some(Weight::new(2.0))
        );
        // node 2 is reached more cheaply through 3 than directly
        assert_eq!(
            d.one_to_one(&g, WeightKind::Distance, NodeId(0), NodeId(2)),
            Some(Weight::new(3.0))
        );
    }

    #[test]
    fn shortest_path_reconstructs_and_validates() {
        let g = diamond();
        let p = shortest_path(&g, WeightKind::Distance, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.total(), Weight::new(2.0));
        assert!(p.validate(&g, WeightKind::Distance));
    }

    #[test]
    fn expansion_settles_in_distance_order() {
        let g = diamond();
        let mut d = Dijkstra::for_network(&g);
        let mut order = Vec::new();
        d.expand(&g, WeightKind::Distance, NodeId(0), |n, dist| {
            order.push((n, dist));
            Control::Continue
        });
        let dists: Vec<f64> = order.iter().map(|(_, w)| w.get()).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "not sorted: {dists:?}");
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn break_stops_and_skip_prunes() {
        let g = diamond();
        let mut d = Dijkstra::for_network(&g);
        let mut count = 0;
        d.expand(&g, WeightKind::Distance, NodeId(0), |_, _| {
            count += 1;
            Control::Break
        });
        assert_eq!(count, 1);
        // Skipping the source means nothing else is ever reached.
        let mut settled = Vec::new();
        d.expand(&g, WeightKind::Distance, NodeId(0), |n, _| {
            settled.push(n);
            Control::Skip
        });
        assert_eq!(settled, vec![NodeId(0)]);
    }

    #[test]
    fn reuse_across_runs_is_clean() {
        let g = diamond();
        let mut d = Dijkstra::for_network(&g);
        for _ in 0..100 {
            assert_eq!(
                d.one_to_one(&g, WeightKind::Distance, NodeId(0), NodeId(3)),
                Some(Weight::new(2.0))
            );
            assert_eq!(
                d.one_to_one(&g, WeightKind::Distance, NodeId(3), NodeId(0)),
                Some(Weight::new(2.0))
            );
        }
        // labels from the previous run (source 3) don't leak
        assert_eq!(d.distance(NodeId(3)), Some(Weight::ZERO));
        assert_eq!(d.distance(NodeId(0)), Some(Weight::new(2.0)));
    }

    #[test]
    fn multi_source_seeds_compete() {
        let g = diamond();
        let mut d = Dijkstra::for_network(&g);
        let mut first = None;
        d.expand_multi(
            &g,
            WeightKind::Distance,
            &[(NodeId(0), Weight::new(5.0)), (NodeId(3), Weight::ZERO)],
            |n, dist| {
                if first.is_none() {
                    first = Some((n, dist));
                }
                Control::Continue
            },
        );
        assert_eq!(first, Some((NodeId(3), Weight::ZERO)));
        // node 1 is at 1.0 via node 3, cheaper than 6.0 via node 0
        assert_eq!(d.distance(NodeId(1)), Some(Weight::new(1.0)));
    }

    #[test]
    fn edge_filter_confines_search() {
        let g = diamond();
        let mut d = Dijkstra::for_network(&g);
        // Only allow the bottom route 0-2-3.
        let allowed = [EdgeId(2), EdgeId(3)];
        let mut seen = Vec::new();
        d.expand_filtered_multi(
            &g,
            WeightKind::Distance,
            &[(NodeId(0), Weight::ZERO)],
            |e| allowed.contains(&e),
            &mut |n, _| {
                seen.push(n);
                Control::Continue
            },
        );
        assert_eq!(d.distance(NodeId(3)), Some(Weight::new(4.0)));
        assert_eq!(d.distance(NodeId(1)), None);
    }

    #[test]
    fn infinite_weight_edges_are_impassable() {
        let mut g = diamond();
        g.set_weight(EdgeId(0), WeightKind::Distance, Weight::INFINITY).unwrap();
        let mut d = Dijkstra::for_network(&g);
        // must go the long way now
        assert_eq!(
            d.one_to_one(&g, WeightKind::Distance, NodeId(0), NodeId(3)),
            Some(Weight::new(4.0))
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = NetworkBuilder::default();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let g = b.build();
        assert_eq!(shortest_path_weight(&g, WeightKind::Distance, a, c), None);
        assert!(shortest_path(&g, WeightKind::Distance, a, c).is_none());
    }

    #[test]
    fn diameter_of_a_chain_is_its_length() {
        let mut b = NetworkBuilder::default();
        let n: Vec<NodeId> = (0..5).map(|i| b.add_node(Point::new(i as f64, 0.0))).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 2.0).unwrap();
        }
        let g = b.build();
        assert_eq!(estimate_diameter(&g, WeightKind::Distance), Weight::new(8.0));
    }

    /// The arc labels on the last run's path to `dst`, source first, read
    /// off the predecessor links. `None` if `dst` was not reached.
    fn labels_to(ld: &LocalDijkstra, dst: u32) -> Option<Vec<u32>> {
        if ld.dist(dst).is_infinite() {
            return None;
        }
        let mut labels = Vec::new();
        let mut cur = dst;
        while let Some((p, l)) = ld.pred(cur) {
            labels.push(l);
            cur = p;
        }
        labels.reverse();
        Some(labels)
    }

    /// The diamond as a local CSR graph, arcs labelled by edge id.
    fn diamond_csr(g: &RoadNetwork) -> crate::csr::CsrGraph {
        let mut b = crate::csr::CsrBuilder::default();
        for e in g.edge_ids() {
            let (a, bb) = g.edge(e).endpoints();
            let w = g.weight(e, WeightKind::Distance);
            b.push(a.0, bb.0, w, e.0);
            b.push(bb.0, a.0, w, e.0);
        }
        let mut csr = crate::csr::CsrGraph::default();
        b.finish_into(4, &mut csr);
        csr
    }

    #[test]
    fn local_dijkstra_matches_dense() {
        let g = diamond();
        let csr = diamond_csr(&g);
        let mut ld = LocalDijkstra::new();
        ld.run_csr(&csr, 0, &[], 0);
        assert_eq!(ld.dist(3), Weight::new(2.0));
        assert_eq!(ld.dist(2), Weight::new(3.0));
        assert_eq!(labels_to(&ld, 3), Some(vec![0, 1]));
        // early-exit variant still produces correct labels for the target
        ld.run_csr(&csr, 0, &[1], 0);
        assert_eq!(ld.dist(1), Weight::new(1.0));
        // reuse across rounds
        ld.run_csr(&csr, 3, &[], 0);
        assert_eq!(ld.dist(0), Weight::new(2.0));
    }

    #[test]
    fn run_csr_matches_network_dijkstra_and_seals_borders() {
        let g = diamond();
        let csr = diamond_csr(&g);
        let mut d = Dijkstra::for_network(&g);
        let mut lc = LocalDijkstra::new();
        for src in 0..4u32 {
            lc.run_csr(&csr, src, &[], 0);
            for n in 0..4u32 {
                let want = d.one_to_one(&g, WeightKind::Distance, NodeId(src), NodeId(n));
                assert_eq!(Some(lc.dist(n)), want, "src {src} node {n}");
            }
        }

        // Sealing node 1 forces 0 -> 3 through the detour over node 2, and
        // the sealed node itself keeps its direct (settled) label.
        lc.run_csr(&csr, 0, &[], 2);
        assert_eq!(lc.dist(3), Weight::new(4.0));
        assert_eq!(labels_to(&lc, 3), Some(vec![2, 3]));
        assert_eq!(lc.dist(1), Weight::new(1.0));

        // Early exit with targets still settles the requested nodes.
        lc.run_csr(&csr, 0, &[3], 0);
        assert_eq!(lc.dist(3), Weight::new(2.0));
        assert_eq!(labels_to(&lc, 3), Some(vec![0, 1]));
    }
}
