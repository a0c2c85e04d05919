//! Flat query-path adjacency arena.
//!
//! The hot LDSQ expansion loop ([`crate::search`]) asks, for every settled
//! node, "which live edges leave `n`, at what weight under the framework's
//! metric, and which finest Rnet owns them?".  Answering that from
//! [`RoadNetwork`]'s per-node adjacency lists costs three pointer chases per
//! arc (adjacency entry → edge record → weight array) plus a hierarchy
//! lookup.  The arena pre-joins all of it into four parallel flat per-arc
//! vectors and a per-node span table, in CSR layout — the same
//! cache-friendly shape [`road_network::csr::CsrGraph`] gives the
//! construction path — so the expansion loop streams arcs linearly.
//!
//! Arc order per node is exactly `RoadNetwork::neighbors` order, so query
//! tie-breaking (and with it paged/in-memory byte agreement) is unchanged.
//!
//! Maintenance keeps the arena current instead of rebuilding per query:
//! a weight update patches the two endpoint ranges in place
//! ([`QueryArena::patch_weight`]); topology changes rebuild it wholesale —
//! an `O(V + E)` pass dwarfed by the shortcut refresh the same update
//! already pays for.  The arena sits behind an `Arc` in
//! [`crate::framework::RoadFramework`], so forking a framework shares it
//! until the next mutation (the same structural-sharing contract as the
//! shortcut store) — and the un-sharing copy is cut the way
//! [`RoadNetwork`]'s is: the spans and the three columns a weight update
//! never writes stay behind their own `Arc`, and the weight column is a
//! [`CowChunks`] of 512 weights a chunk, so a reweight copies the chunk of
//! each endpoint, not the column.  Chunks are cut at node boundaries: a
//! node whose arcs would straddle one starts the next chunk instead, the
//! slots skipped are padding no node's span covers, and `arcs(n)` still
//! zips four contiguous slices.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_macros
    )
)]

use crate::hierarchy::{RnetHierarchy, RnetId};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{CowChunks, EdgeId, NodeId, Weight};
use std::sync::Arc;

/// A copy-on-write chunk of the weight column holds `2^9` weights (4 KB)
/// unless some node has more arcs; see the module docs.
const ARC_CHUNK_SHIFT: u32 = 9;

/// What fills the slots a node boundary skips; never read.
const PAD: u32 = u32::MAX;

/// The columns only a topology change rewrites.
#[derive(Debug, Default)]
struct ArcColumns {
    /// Per node, the `(start, end)` of its arcs in the other columns: the
    /// padding between two nodes belongs to neither.
    spans: Vec<(u32, u32)>,
    edges: Vec<u32>,
    targets: Vec<u32>,
    leaves: Vec<u32>,
}

/// Pre-joined adjacency for the query path: per-arc edge id, head node,
/// framework-metric weight and owning finest Rnet, in CSR layout.
#[derive(Debug, Clone)]
pub(crate) struct QueryArena {
    arcs: Arc<ArcColumns>,
    weights: CowChunks<Weight>,
}

impl QueryArena {
    /// Builds the arena by streaming every node's `neighbors` list — the
    /// arc order the query path has always used. A chunk holds 512 arcs,
    /// or the most any node has (rounded up to a power of two) if that is
    /// more.
    pub(crate) fn build(g: &RoadNetwork, hier: &RnetHierarchy, kind: WeightKind) -> Self {
        let most = g.node_ids().map(|n| g.degree(n)).max().unwrap_or(0);
        let shift = ARC_CHUNK_SHIFT.max(most.next_power_of_two().trailing_zeros());
        let per_chunk = 1usize << shift;
        let mut arcs = ArcColumns::default();
        let mut weights = Vec::new();
        arcs.spans.reserve(g.num_nodes());
        for n in g.node_ids() {
            let used = arcs.edges.len() % per_chunk;
            if used + g.degree(n) > per_chunk {
                for _ in used..per_chunk {
                    arcs.edges.push(PAD);
                    arcs.targets.push(PAD);
                    weights.push(Weight::INFINITY);
                    arcs.leaves.push(PAD);
                }
            }
            let start = arcs.edges.len() as u32;
            for (e, v) in g.neighbors(n) {
                arcs.edges.push(e.0);
                arcs.targets.push(v.0);
                weights.push(g.weight(e, kind));
                arcs.leaves.push(hier.leaf_of_edge(e).0);
            }
            arcs.spans.push((start, arcs.edges.len() as u32));
        }
        QueryArena { arcs: Arc::new(arcs), weights: CowChunks::from_vec(weights, shift) }
    }

    /// How many chunks of the weight column the two arenas physically
    /// share (none when a topology edit rebuilt either since they forked).
    pub(crate) fn shared_weight_chunks(&self, other: &QueryArena) -> usize {
        self.weights.shared_chunks(&other.weights)
    }

    /// Bytes of weights copied to un-share chunks from the arena's clones.
    pub(crate) fn bytes_copied(&self) -> u64 {
        self.weights.bytes_copied()
    }

    /// Index range of `n`'s arcs in the columns; empty for ids outside the
    /// arena.
    #[inline]
    fn range(&self, n: usize) -> std::ops::Range<usize> {
        let len = self.arcs.edges.len();
        let (lo, hi) = self.arcs.spans.get(n).copied().unwrap_or((0, 0));
        let lo = (lo as usize).min(len);
        lo..(hi as usize).clamp(lo, len)
    }

    /// Iterate the arcs of `n` as `(edge, head, weight, leaf Rnet)` in
    /// `neighbors` order.  Out-of-range ids yield an empty iterator.
    #[inline]
    pub(crate) fn arcs(
        &self,
        n: u32,
    ) -> impl Iterator<Item = (EdgeId, NodeId, Weight, RnetId)> + '_ {
        let (arcs, run) = (&*self.arcs, self.range(n as usize));
        arcs.edges
            .get(run.clone())
            .unwrap_or(&[])
            .iter()
            .zip(arcs.targets.get(run.clone()).unwrap_or(&[]))
            .zip(self.weights.slice(run.clone()).unwrap_or(&[]))
            .zip(arcs.leaves.get(run).unwrap_or(&[]))
            .map(|(((&e, &t), &w), &l)| (EdgeId(e), NodeId(t), w, RnetId(l)))
    }

    /// Re-joins the weight of edge `e` (already updated in `g`) into both
    /// endpoints' arc ranges.  `O(deg(a) + deg(b))`.
    pub(crate) fn patch_weight(&mut self, g: &RoadNetwork, e: EdgeId, weight: Weight) {
        let (a, b) = g.edge(e).endpoints();
        self.patch_endpoint(a, e, weight);
        self.patch_endpoint(b, e, weight);
    }

    /// Rewrites the weight slot(s) of edge `e` within one endpoint's range.
    fn patch_endpoint(&mut self, n: NodeId, e: EdgeId, weight: Weight) {
        for i in self.range(n.index()) {
            if self.arcs.edges.get(i).copied() == Some(e.0) {
                if let Some(w) = self.weights.make_mut(i) {
                    *w = weight;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::RoadFramework;
    use road_network::generator::simple;

    #[test]
    fn arena_mirrors_neighbors_with_leaf_and_weight() {
        let g = simple::grid(5, 5, 1.0);
        let fw = RoadFramework::builder(g).fanout(2).levels(2).build().unwrap();
        let (g, hier) = (fw.network(), fw.hierarchy());
        let arena = QueryArena::build(g, hier, WeightKind::Distance);
        for n in 0..g.num_nodes() as u32 {
            let want: Vec<_> = g
                .neighbors(NodeId(n))
                .map(|(e, v)| (e, v, g.weight(e, WeightKind::Distance), hier.leaf_of_edge(e)))
                .collect();
            let got: Vec<_> = arena.arcs(n).collect();
            assert_eq!(got, want, "node {n}");
        }
        assert!(arena.arcs(g.num_nodes() as u32 + 7).next().is_none());
    }

    /// A node never straddles two chunks of the weight column: a hub with
    /// more arcs than a chunk widens every chunk, and a node that would
    /// cross a chunk boundary starts the next one — on a grid whose arcs
    /// fill several chunks, every node's arcs still read as one slice, in
    /// `neighbors` order, before and after patching.
    #[test]
    fn nodes_are_never_cut_by_a_chunk() {
        let grid = simple::grid(24, 24, 1.0);
        let mut b = RoadNetwork::builder();
        for n in grid.node_ids() {
            b.add_node(grid.coord(n));
        }
        for e in grid.edge_ids() {
            let (u, v) = grid.edge(e).endpoints();
            b.add_edge(u, v, 1.0).unwrap();
        }
        let hub = b.add_node(road_network::Point::new(11.5, 11.5));
        for n in grid.node_ids() {
            b.add_edge(hub, n, 3.0).unwrap();
        }
        let fw = RoadFramework::builder(b.build()).fanout(2).levels(2).build().unwrap();
        let (g, hier) = (fw.network(), fw.hierarchy());
        let mut arena = QueryArena::build(g, hier, WeightKind::Distance);
        assert_eq!(arena.weights.chunk_len(), 1024, "576 arcs at the hub widen the chunks");
        assert!(arena.weights.num_chunks() > 2);
        let fork = arena.clone();
        let mut g2 = g.clone();
        for e in g.edge_ids().step_by(97) {
            g2.set_weight(e, WeightKind::Distance, Weight::new(5.0)).unwrap();
            arena.patch_weight(&g2, e, Weight::new(5.0));
        }
        for (net, arena) in [(g, &fork), (&g2, &arena)] {
            for n in net.node_ids() {
                let want: Vec<_> = net
                    .neighbors(n)
                    .map(|(e, v)| (e, v, net.weight(e, WeightKind::Distance), hier.leaf_of_edge(e)))
                    .collect();
                assert_eq!(arena.arcs(n.0).collect::<Vec<_>>(), want, "node {n}");
            }
        }
    }

    #[test]
    fn patch_updates_both_endpoint_ranges() {
        let g = simple::grid(4, 4, 1.0);
        let fw = RoadFramework::builder(g).fanout(2).levels(2).build().unwrap();
        let (g, hier) = (fw.network(), fw.hierarchy());
        let mut g2 = g.clone();
        let e = g2.edge_ids().next().unwrap();
        g2.set_weight(e, WeightKind::Distance, Weight::new(42.0)).unwrap();

        let mut arena = QueryArena::build(g, hier, WeightKind::Distance);
        arena.patch_weight(&g2, e, Weight::new(42.0));
        let fresh = QueryArena::build(&g2, hier, WeightKind::Distance);
        for n in 0..g2.num_nodes() as u32 {
            let a: Vec<_> = arena.arcs(n).collect();
            let b: Vec<_> = fresh.arcs(n).collect();
            assert_eq!(a, b, "node {n}");
        }
    }
}
