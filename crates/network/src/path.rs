//! Paths through the network.
//!
//! `P(u, v)` in the paper is a set of edges connecting `u` and `v`; its
//! distance is the sum of edge weights. We store the node sequence and the
//! edge sequence side by side so a path can be rendered, validated, and
//! concatenated (shortcut expansion in the Route Overlay stitches child
//! shortcut paths together exactly this way).

use crate::graph::{RoadNetwork, WeightKind};
use crate::ids::{EdgeId, NodeId};
use crate::weight::Weight;

/// A walk `n_0, e_0, n_1, e_1, ..., n_k` with its total weight.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    total: Weight,
}

impl Path {
    /// A zero-length path sitting at `n`.
    pub fn trivial(n: NodeId) -> Self {
        Path { nodes: vec![n], edges: Vec::new(), total: Weight::ZERO }
    }

    /// Builds a path from explicit parts.
    ///
    /// # Panics
    /// Panics if `nodes.len() != edges.len() + 1` or `nodes` is empty.
    pub fn from_parts(nodes: Vec<NodeId>, edges: Vec<EdgeId>, total: Weight) -> Self {
        assert!(!nodes.is_empty(), "a path has at least one node");
        assert_eq!(nodes.len(), edges.len() + 1, "node/edge sequence mismatch");
        Path { nodes, edges, total }
    }

    /// Source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Target node.
    #[inline]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// Total path weight.
    #[inline]
    pub fn total(&self) -> Weight {
        self.total
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges (hops).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a zero-hop path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Reverses the path in place (paths are undirected walks).
    pub fn reverse(&mut self) {
        self.nodes.reverse();
        self.edges.reverse();
    }

    /// Appends `other` to `self`; `other` must start where `self` ends.
    ///
    /// # Panics
    /// Panics if the endpoints do not line up.
    pub fn extend(&mut self, other: &Path) {
        assert_eq!(self.target(), other.source(), "paths do not join");
        self.nodes.extend_from_slice(&other.nodes[1..]);
        self.edges.extend_from_slice(&other.edges);
        self.total += other.total;
    }

    /// Checks the path against a network: consecutive nodes joined by the
    /// recorded edges, and the stored total matching the edge-weight sum
    /// under `kind`. Used by tests and debug assertions.
    pub fn validate(&self, g: &RoadNetwork, kind: WeightKind) -> bool {
        let mut sum = Weight::ZERO;
        for (i, &e) in self.edges.iter().enumerate() {
            let (a, b) = g.edge(e).endpoints();
            let (u, v) = (self.nodes[i], self.nodes[i + 1]);
            if !((a == u && b == v) || (a == v && b == u)) {
                return false;
            }
            sum += g.weight(e, kind);
        }
        sum.approx_eq(self.total)
    }

    /// Reconstructs a path from Dijkstra (or A*) predecessor links.
    ///
    /// `pred[n]` holds the `(previous node, via edge)` pair for every
    /// settled node, with `src` mapping to itself.
    pub fn from_predecessors(
        src: NodeId,
        dst: NodeId,
        total: Weight,
        pred: impl Fn(NodeId) -> Option<(NodeId, EdgeId)>,
    ) -> Option<Path> {
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, e) = pred(cur)?;
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn line() -> (RoadNetwork, Vec<NodeId>, Vec<EdgeId>) {
        let mut b = RoadNetwork::builder();
        let ns: Vec<NodeId> = (0..4).map(|i| b.add_node(Point::new(i as f64, 0.0))).collect();
        let es = vec![
            b.add_edge(ns[0], ns[1], 1.0).unwrap(),
            b.add_edge(ns[1], ns[2], 2.0).unwrap(),
            b.add_edge(ns[2], ns[3], 3.0).unwrap(),
        ];
        (b.build(), ns, es)
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId(5));
        assert_eq!(p.source(), NodeId(5));
        assert_eq!(p.target(), NodeId(5));
        assert!(p.is_empty());
        assert_eq!(p.total(), Weight::ZERO);
    }

    #[test]
    fn extend_joins_paths() {
        let (g, ns, es) = line();
        let mut p = Path::from_parts(vec![ns[0], ns[1]], vec![es[0]], Weight::new(1.0));
        let q = Path::from_parts(vec![ns[1], ns[2], ns[3]], vec![es[1], es[2]], Weight::new(5.0));
        p.extend(&q);
        assert_eq!(p.total(), Weight::new(6.0));
        assert_eq!(p.len(), 3);
        assert!(p.validate(&g, WeightKind::Distance));
    }

    #[test]
    #[should_panic(expected = "do not join")]
    fn extend_rejects_disjoint() {
        let (_, ns, es) = line();
        let mut p = Path::from_parts(vec![ns[0], ns[1]], vec![es[0]], Weight::new(1.0));
        let q = Path::from_parts(vec![ns[2], ns[3]], vec![es[2]], Weight::new(3.0));
        p.extend(&q);
    }

    #[test]
    fn validate_catches_wrong_totals_and_edges() {
        let (g, ns, es) = line();
        let good = Path::from_parts(vec![ns[0], ns[1]], vec![es[0]], Weight::new(1.0));
        assert!(good.validate(&g, WeightKind::Distance));
        let bad_total = Path::from_parts(vec![ns[0], ns[1]], vec![es[0]], Weight::new(2.0));
        assert!(!bad_total.validate(&g, WeightKind::Distance));
        let bad_edge = Path::from_parts(vec![ns[0], ns[1]], vec![es[1]], Weight::new(2.0));
        assert!(!bad_edge.validate(&g, WeightKind::Distance));
    }

    #[test]
    fn reverse_flips_endpoints() {
        let (g, ns, es) = line();
        let mut p =
            Path::from_parts(vec![ns[0], ns[1], ns[2]], vec![es[0], es[1]], Weight::new(3.0));
        p.reverse();
        assert_eq!(p.source(), ns[2]);
        assert_eq!(p.target(), ns[0]);
        assert!(p.validate(&g, WeightKind::Distance));
    }

    /// A predecessor chain walks back from `dst` to `src` into a path in
    /// forward order; a node on the way with no predecessor means `dst`
    /// was not reached from `src`, and there is no path.
    #[test]
    fn from_predecessors_walks_back_to_the_source() {
        let (g, ns, es) = line();
        let pred = |n: NodeId| (n.0 > 0).then(|| (NodeId(n.0 - 1), es[n.0 as usize - 1]));
        let p = Path::from_predecessors(ns[0], ns[3], Weight::new(6.0), pred).unwrap();
        assert_eq!((p.source(), p.target(), p.len()), (ns[0], ns[3], 3));
        assert!(p.validate(&g, WeightKind::Distance));
        let trivial = Path::from_predecessors(ns[2], ns[2], Weight::ZERO, pred).unwrap();
        assert!(trivial.is_empty());
        assert!(Path::from_predecessors(ns[1], ns[3], Weight::new(5.0), |_| None).is_none());
    }
}
