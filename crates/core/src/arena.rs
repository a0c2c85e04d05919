//! Flat query-path adjacency arena.
//!
//! The hot LDSQ expansion loop ([`crate::search`]) asks, for every settled
//! node, "which live edges leave `n`, at what weight under the framework's
//! metric, and which finest Rnet owns them?".  Answering that from
//! [`RoadNetwork`]'s per-node adjacency lists costs three pointer chases per
//! arc (adjacency entry → edge record → weight array) plus a hierarchy
//! lookup.  The arena pre-joins all of it into five parallel flat vectors in
//! CSR layout — the same cache-friendly shape
//! [`road_network::csr::CsrGraph`] gives the construction path — so the
//! expansion loop streams arcs linearly.
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
//! [`RoadNetwork`]'s is: the four columns a weight update never writes
//! stay behind their own `Arc`, only the weight column is copied.

// roadlint: serving-path

use crate::hierarchy::{RnetHierarchy, RnetId};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, NodeId, Weight};
use std::sync::Arc;

/// The columns only a topology change rewrites.
#[derive(Debug, Default)]
struct ArcColumns {
    offsets: Vec<u32>,
    edges: Vec<u32>,
    targets: Vec<u32>,
    leaves: Vec<u32>,
}

/// Pre-joined adjacency for the query path: per-arc edge id, head node,
/// framework-metric weight and owning finest Rnet, in CSR layout.
#[derive(Debug, Default, Clone)]
pub(crate) struct QueryArena {
    arcs: Arc<ArcColumns>,
    weights: Vec<Weight>,
}

impl QueryArena {
    /// Builds the arena by streaming every node's `neighbors` list — the
    /// arc order the query path has always used.
    pub(crate) fn build(g: &RoadNetwork, hier: &RnetHierarchy, kind: WeightKind) -> Self {
        let mut arcs = ArcColumns::default();
        let mut weights = Vec::new();
        arcs.offsets.reserve(g.num_nodes() + 1);
        for n in 0..g.num_nodes() as u32 {
            arcs.offsets.push(arcs.edges.len() as u32);
            for (e, v) in g.neighbors(NodeId(n)) {
                arcs.edges.push(e.0);
                arcs.targets.push(v.0);
                weights.push(g.weight(e, kind));
                arcs.leaves.push(hier.leaf_of_edge(e).0);
            }
        }
        arcs.offsets.push(arcs.edges.len() as u32);
        QueryArena { arcs: Arc::new(arcs), weights }
    }

    /// Index range of `n`'s arcs in the columns; empty for ids outside the
    /// arena.
    #[inline]
    fn range(&self, n: usize) -> std::ops::Range<usize> {
        let arcs = &self.arcs;
        let lo = arcs.offsets.get(n).copied().unwrap_or(0) as usize;
        let hi = arcs.offsets.get(n + 1).copied().unwrap_or(lo as u32) as usize;
        let lo = lo.min(arcs.edges.len());
        lo..hi.clamp(lo, arcs.edges.len())
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
            .zip(self.weights.get(run.clone()).unwrap_or(&[]))
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
                if let Some(w) = self.weights.get_mut(i) {
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
