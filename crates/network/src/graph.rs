//! The road-network graph.
//!
//! A road network is modelled exactly as in Section 3.1 of the paper: an
//! undirected weighted graph `N = (N, E)` where nodes are road intersections
//! with planar coordinates and edges are road segments with positive
//! weights. Every edge carries three weight metrics at once — travel
//! *distance*, *trip time* and *toll* — because a core selling point of the
//! ROAD framework is that shortcuts can be customised per metric.
//!
//! The structure is mutable: the maintenance experiments (Section 5.2)
//! change edge weights, add edges and delete edges at runtime. Deleted
//! edges are tombstoned so that `EdgeId`s remain stable.
//!
//! A clone is a copy-on-write fork, cut where the two kinds of update
//! differ. What a weight change never writes — node coordinates and the
//! per-node adjacency lists, one heap vector per node — sits behind one
//! shared [`Arc`]; the edge records (endpoints, the three weights, the
//! tombstone) are a [`CowChunks`] column of 256 records (10 KB) a chunk.
//! Cloning a network therefore copies one pointer per chunk of edge
//! records and nothing else, however many nodes it has; a weight change
//! then copies the one chunk holding its record
//! ([`RoadNetwork::shared_edge_chunks`]), and only `add_node` /
//! `add_edge` / `remove_edge` / `restore_edge` un-share the topology
//! ([`RoadNetwork::shares_topology_with`]). The live engine's snapshots
//! (`road_core::live`) rest on this: a traffic update after a publish pays
//! for the chunks it writes, not for 100,000 adjacency vectors or 4.8 MB of
//! edge records.

use crate::cow::CowChunks;
use crate::error::NetworkError;
use crate::geometry::{Point, Rect};
use crate::ids::{EdgeId, NodeId};
use crate::weight::Weight;
use std::sync::Arc;

/// A copy-on-write chunk of edge records holds `2^8` of them (10 KB): a
/// reweight copies one chunk, a fork one pointer per chunk.
const EDGE_CHUNK_SHIFT: u32 = 8;

/// Which per-edge metric a search or index should use.
///
/// The paper's LDSQ definition singles the distance condition out from other
/// attributes; `WeightKind` selects what "distance" means.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum WeightKind {
    /// Physical length of the road segment.
    #[default]
    Distance,
    /// Time to traverse the segment.
    TravelTime,
    /// Monetary cost (tolls); zero on most edges.
    Toll,
}

impl WeightKind {
    /// All supported metrics, handy for exhaustive tests.
    pub const ALL: [WeightKind; 3] =
        [WeightKind::Distance, WeightKind::TravelTime, WeightKind::Toll];
}

/// One road segment.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRecord {
    a: NodeId,
    b: NodeId,
    distance: Weight,
    travel_time: Weight,
    toll: Weight,
    deleted: bool,
}

impl EdgeRecord {
    /// The two endpoints `(n, n')` in insertion order.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Weight under the given metric.
    #[inline]
    pub fn weight(&self, kind: WeightKind) -> Weight {
        match kind {
            WeightKind::Distance => self.distance,
            WeightKind::TravelTime => self.travel_time,
            WeightKind::Toll => self.toll,
        }
    }

    /// Whether the edge has been removed from the network.
    #[inline]
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }
}

#[derive(Clone, Copy, Debug)]
struct AdjEntry {
    edge: EdgeId,
    to: NodeId,
}

/// The part of a network no weight update writes; see the module docs.
#[derive(Clone)]
struct Topology {
    coords: Vec<Point>,
    adj: Vec<Vec<AdjEntry>>,
}

/// An undirected, multi-metric, mutable road network.
#[derive(Clone)]
pub struct RoadNetwork {
    topo: Arc<Topology>,
    edges: CowChunks<EdgeRecord>,
    live_edges: usize,
}

impl RoadNetwork {
    /// Starts an incremental builder.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.coords.len()
    }

    /// `true` when the two networks physically share their coordinates
    /// and adjacency lists (same allocation, not merely equal contents):
    /// they are clones of one another and neither has had a node or an
    /// edge added, removed or restored since — weight changes keep it.
    pub fn shares_topology_with(&self, other: &RoadNetwork) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// How many chunks of edge records the two networks physically share,
    /// position by position (see the module docs): a clone shares all of
    /// them, and each later write un-shares the one chunk it lands in.
    pub fn shared_edge_chunks(&self, other: &RoadNetwork) -> usize {
        self.edges.shared_chunks(&other.edges)
    }

    /// Bytes of edge records this network's copy-on-write column copied to
    /// un-share chunks from its clones, over its whole history.
    pub fn bytes_copied(&self) -> u64 {
        self.edges.bytes_copied()
    }

    /// Number of live (non-deleted) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Number of edge slots including tombstones; `EdgeId`s range over this.
    #[inline]
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Coordinates of a node.
    #[inline]
    pub fn coord(&self, n: NodeId) -> Point {
        self.topo.coords[n.index()]
    }

    /// The full edge record (including tombstones).
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        match self.edges.get(e.index()) {
            Some(rec) => rec,
            None => panic!("{e} is outside the network's {} edge slots", self.edges.len()),
        }
    }

    /// Weight of a live edge under `kind`.
    #[inline]
    pub fn weight(&self, e: EdgeId, kind: WeightKind) -> Weight {
        self.edge(e).weight(kind)
    }

    /// The endpoint of `e` that is not `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, n: NodeId) -> NodeId {
        let rec = self.edge(e);
        if rec.a == n {
            rec.b
        } else {
            debug_assert_eq!(rec.b, n, "{n} is not an endpoint of {e}");
            rec.a
        }
    }

    /// Degree of a node (live edges only).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.topo.adj[n.index()].len()
    }

    /// Iterates the live incident edges of `n` as `(edge, neighbour)` pairs.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.topo.adj[n.index()].iter().map(|a| (a.edge, a.to))
    }

    /// All node ids.
    #[inline]
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// All live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().enumerate().filter(|(_, rec)| !rec.deleted).map(|(i, _)| EdgeId(i as u32))
    }

    /// The live edge between `a` and `b`, if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.topo.adj[a.index()].iter().find(|entry| entry.to == b).map(|entry| entry.edge)
    }

    /// Bounding rectangle of all node coordinates.
    pub fn bounding_rect(&self) -> Rect {
        Rect::covering(self.topo.coords.iter().copied())
    }

    /// Straight-line length of an edge from its endpoint coordinates.
    #[inline]
    pub fn euclidean_length(&self, e: EdgeId) -> f64 {
        let (a, b) = self.edge(e).endpoints();
        self.coord(a).distance(self.coord(b))
    }

    /// Euclidean distance between two nodes.
    #[inline]
    pub fn euclidean(&self, a: NodeId, b: NodeId) -> f64 {
        self.coord(a).distance(self.coord(b))
    }

    /// Changes one metric of a live edge; returns the previous value.
    ///
    /// This is the primitive behind the paper's "change of edge distance"
    /// maintenance scenario (Section 5.2.1).
    pub fn set_weight(
        &mut self,
        e: EdgeId,
        kind: WeightKind,
        w: Weight,
    ) -> Result<Weight, NetworkError> {
        self.check_live(e)?;
        let rec = self.edges.make_mut(e.index()).ok_or(NetworkError::EdgeOutOfBounds(e))?;
        let slot = match kind {
            WeightKind::Distance => &mut rec.distance,
            WeightKind::TravelTime => &mut rec.travel_time,
            WeightKind::Toll => &mut rec.toll,
        };
        Ok(std::mem::replace(slot, w))
    }

    /// Adds a new edge between existing nodes; returns its id.
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        distance: Weight,
        travel_time: Weight,
        toll: Weight,
    ) -> Result<EdgeId, NetworkError> {
        if a.index() >= self.num_nodes() {
            return Err(NetworkError::NodeOutOfBounds(a));
        }
        if b.index() >= self.num_nodes() {
            return Err(NetworkError::NodeOutOfBounds(b));
        }
        if a == b {
            return Err(NetworkError::SelfLoop(a));
        }
        if self.edge_between(a, b).is_some() {
            return Err(NetworkError::DuplicateEdge(a, b));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { a, b, distance, travel_time, toll, deleted: false });
        let adj = &mut Arc::make_mut(&mut self.topo).adj;
        adj[a.index()].push(AdjEntry { edge: id, to: b });
        adj[b.index()].push(AdjEntry { edge: id, to: a });
        self.live_edges += 1;
        Ok(id)
    }

    /// Adds a new isolated node; returns its id. Used when road construction
    /// introduces new intersections.
    pub fn add_node(&mut self, at: Point) -> NodeId {
        let id = NodeId(self.num_nodes() as u32);
        let topo = Arc::make_mut(&mut self.topo);
        topo.coords.push(at);
        topo.adj.push(Vec::new());
        id
    }

    /// Removes (tombstones) a live edge. The id stays allocated.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<(), NetworkError> {
        self.check_live(e)?;
        let rec = self.edges.make_mut(e.index()).ok_or(NetworkError::EdgeOutOfBounds(e))?;
        rec.deleted = true;
        let (a, b) = (rec.a, rec.b);
        let adj = &mut Arc::make_mut(&mut self.topo).adj;
        adj[a.index()].retain(|entry| entry.edge != e);
        adj[b.index()].retain(|entry| entry.edge != e);
        self.live_edges -= 1;
        Ok(())
    }

    /// Restores a previously removed edge with its stored weights.
    pub fn restore_edge(&mut self, e: EdgeId) -> Result<(), NetworkError> {
        if self.check_live(e).is_ok() {
            return Ok(());
        }
        let rec = self.edges.make_mut(e.index()).ok_or(NetworkError::EdgeOutOfBounds(e))?;
        rec.deleted = false;
        let (a, b) = (rec.a, rec.b);
        let adj = &mut Arc::make_mut(&mut self.topo).adj;
        adj[a.index()].push(AdjEntry { edge: e, to: b });
        adj[b.index()].push(AdjEntry { edge: e, to: a });
        self.live_edges += 1;
        Ok(())
    }

    /// `Ok` when `e` is a live edge; checked before a write, so that a
    /// refused one un-shares no chunk.
    fn check_live(&self, e: EdgeId) -> Result<(), NetworkError> {
        match self.edges.get(e.index()) {
            None => Err(NetworkError::EdgeOutOfBounds(e)),
            Some(rec) if rec.deleted => Err(NetworkError::EdgeDeleted(e)),
            Some(_) => Ok(()),
        }
    }

    /// Number of connected components (over live edges).
    pub fn connected_components(&self) -> usize {
        let n = self.num_nodes();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(NodeId(start as u32));
            while let Some(u) = stack.pop() {
                for (_, v) in self.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
        }
        components
    }

    /// Errors unless the network is a single connected component.
    pub fn require_connected(&self) -> Result<(), NetworkError> {
        match self.connected_components() {
            0 | 1 => Ok(()),
            c => Err(NetworkError::Disconnected { components: c }),
        }
    }

    /// Sum of all live edge weights under `kind`.
    pub fn total_weight(&self, kind: WeightKind) -> Weight {
        let mut total = Weight::ZERO;
        for e in self.edge_ids() {
            total += self.weight(e, kind);
        }
        total
    }
}

impl std::fmt::Debug for RoadNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoadNetwork")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Incremental builder for [`RoadNetwork`].
#[derive(Default)]
pub struct NetworkBuilder {
    coords: Vec<Point>,
    edges: Vec<EdgeRecord>,
}

impl NetworkBuilder {
    /// Pre-allocates for the expected sizes.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        NetworkBuilder { coords: Vec::with_capacity(nodes), edges: Vec::with_capacity(edges) }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node at `p`, returning its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        let id = NodeId(self.coords.len() as u32);
        self.coords.push(p);
        id
    }

    /// Adds an edge whose three metrics are all `distance` (tests and simple
    /// examples rarely care about time/toll).
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        distance: f64,
    ) -> Result<EdgeId, NetworkError> {
        let w = Weight::try_new(distance)?;
        self.add_edge_full(a, b, w, w, Weight::ZERO)
    }

    /// Adds an edge with explicit per-metric weights.
    pub fn add_edge_full(
        &mut self,
        a: NodeId,
        b: NodeId,
        distance: Weight,
        travel_time: Weight,
        toll: Weight,
    ) -> Result<EdgeId, NetworkError> {
        if a.index() >= self.coords.len() {
            return Err(NetworkError::NodeOutOfBounds(a));
        }
        if b.index() >= self.coords.len() {
            return Err(NetworkError::NodeOutOfBounds(b));
        }
        if a == b {
            return Err(NetworkError::SelfLoop(a));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { a, b, distance, travel_time, toll, deleted: false });
        Ok(id)
    }

    /// Finalises the network, building adjacency lists.
    pub fn build(self) -> RoadNetwork {
        let mut adj: Vec<Vec<AdjEntry>> = vec![Vec::new(); self.coords.len()];
        // First pass counts degrees so each adjacency vector is allocated
        // exactly once (perf-book: reserve when the final length is known).
        let mut degree = vec![0u32; self.coords.len()];
        for rec in &self.edges {
            degree[rec.a.index()] += 1;
            degree[rec.b.index()] += 1;
        }
        for (v, d) in adj.iter_mut().zip(degree) {
            v.reserve_exact(d as usize);
        }
        for (i, rec) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            adj[rec.a.index()].push(AdjEntry { edge: id, to: rec.b });
            adj[rec.b.index()].push(AdjEntry { edge: id, to: rec.a });
        }
        let live_edges = self.edges.len();
        let topo = Arc::new(Topology { coords: self.coords, adj });
        RoadNetwork { topo, edges: CowChunks::from_vec(self.edges, EDGE_CHUNK_SHIFT), live_edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 1.0));
        b.add_edge(n0, n1, 1.0).unwrap();
        b.add_edge(n1, n2, 2.0).unwrap();
        b.add_edge(n2, n0, 3.0).unwrap();
        b.build()
    }

    #[test]
    fn builder_produces_symmetric_adjacency() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        for n in g.node_ids() {
            assert_eq!(g.degree(n), 2);
            for (e, m) in g.neighbors(n) {
                assert_eq!(g.other_endpoint(e, n), m);
                // the reverse direction exists too
                assert!(g.neighbors(m).any(|(e2, n2)| e2 == e && n2 == n));
            }
        }
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        assert_eq!(b.add_edge(n0, n0, 1.0).unwrap_err(), NetworkError::SelfLoop(n0));
        assert_eq!(
            b.add_edge(n0, NodeId(9), 1.0).unwrap_err(),
            NetworkError::NodeOutOfBounds(NodeId(9))
        );
        assert!(matches!(b.add_edge(n0, n0, f64::NAN), Err(NetworkError::InvalidWeight(_))));
    }

    #[test]
    fn weights_are_per_metric() {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let e =
            b.add_edge_full(n0, n1, Weight::new(10.0), Weight::new(2.0), Weight::new(0.5)).unwrap();
        let g = b.build();
        assert_eq!(g.weight(e, WeightKind::Distance), Weight::new(10.0));
        assert_eq!(g.weight(e, WeightKind::TravelTime), Weight::new(2.0));
        assert_eq!(g.weight(e, WeightKind::Toll), Weight::new(0.5));
    }

    #[test]
    fn set_weight_replaces_and_returns_old() {
        let mut g = triangle();
        let e = EdgeId(0);
        let old = g.set_weight(e, WeightKind::Distance, Weight::new(9.0)).unwrap();
        assert_eq!(old, Weight::new(1.0));
        assert_eq!(g.weight(e, WeightKind::Distance), Weight::new(9.0));
    }

    #[test]
    fn remove_and_restore_edge() {
        let mut g = triangle();
        let e = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        g.remove_edge(e).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.edge_between(NodeId(0), NodeId(1)).is_none());
        assert!(g.edge(e).is_deleted());
        assert_eq!(g.remove_edge(e).unwrap_err(), NetworkError::EdgeDeleted(e));
        // EdgeIds of other edges are unaffected.
        assert_eq!(g.edge(EdgeId(1)).endpoints(), (NodeId(1), NodeId(2)));
        g.restore_edge(e).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_between(NodeId(0), NodeId(1)), Some(e));
    }

    #[test]
    fn add_edge_and_node_at_runtime() {
        let mut g = triangle();
        let n3 = g.add_node(Point::new(2.0, 2.0));
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.degree(n3), 0);
        let e =
            g.add_edge(NodeId(0), n3, Weight::new(4.0), Weight::new(4.0), Weight::ZERO).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.other_endpoint(e, n3), NodeId(0));
        assert!(matches!(
            g.add_edge(NodeId(0), n3, Weight::ZERO, Weight::ZERO, Weight::ZERO),
            Err(NetworkError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn connectivity_counts_components() {
        let mut b = RoadNetwork::builder();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let _n2 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(n0, n1, 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.connected_components(), 2);
        assert!(matches!(g.require_connected(), Err(NetworkError::Disconnected { components: 2 })));
        let t = triangle();
        assert_eq!(t.connected_components(), 1);
        assert!(t.require_connected().is_ok());
    }

    #[test]
    fn geometry_helpers() {
        let g = triangle();
        assert_eq!(g.euclidean(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(g.euclidean_length(EdgeId(0)), 1.0);
        let r = g.bounding_rect();
        assert_eq!(r.min, Point::new(0.0, 0.0));
        assert_eq!(r.max, Point::new(1.0, 1.0));
    }

    #[test]
    fn total_weight_sums_live_edges() {
        let mut g = triangle();
        assert_eq!(g.total_weight(WeightKind::Distance), Weight::new(6.0));
        g.remove_edge(EdgeId(2)).unwrap();
        assert_eq!(g.total_weight(WeightKind::Distance), Weight::new(3.0));
    }
}
