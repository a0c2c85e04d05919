//! Euclidean-bound search (refs \[16\], \[19\]).
//!
//! Objects live in an R-tree keyed by their planar positions. Euclidean
//! distance lower-bounds network distance, so candidates are drawn in
//! increasing Euclidean order and verified with A* (ref \[3\]); a kNN search
//! stops once the next candidate's Euclidean bound exceeds the k-th best
//! verified network distance. The paper's two criticisms fall straight out
//! of the implementation: each candidate pays its own A* over the same
//! region ("redundant shortest path searches"), and for metrics Euclidean
//! distance cannot bound (tolls, travel time on mixed roads) the heuristic
//! degenerates and every object becomes a candidate.
//!
//! The A* itself ([`AStar`]) lives here too, with its heuristic: the
//! heuristic is `h(n) = scale · euclid(n, goal)` where `scale` must satisfy
//! `scale · euclid(u,v) ≤ w(u,v)` on every edge for
//! admissibility/consistency; [`admissible_scale`] derives the largest such
//! factor from the network itself, which makes the heuristic valid for
//! *any* metric (it degenerates to `h = 0`, i.e. plain Dijkstra, for
//! metrics like toll that Euclidean distance cannot bound — exactly the
//! weakness of the Euclidean approach the paper calls out).

use crate::layout::{ADJ_ENTRY_BYTES, NODE_BASE_BYTES, NS_NODES, NS_RTREE, OBJECT_BYTES};
use crate::{timed, Engine, QueryCost, UpdateCost};
use road_core::model::{Object, ObjectFilter, ObjectId};
use road_core::search::SearchHit;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::hash::FastMap;
use road_network::path::Path;
use road_network::{EdgeId, NodeId, Weight};
use road_spatial::RTree;
use road_storage::ccam::NodeClustering;
use road_storage::IoTracker;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The Euclidean-bound engine.
pub struct EuclideanEngine {
    g: RoadNetwork,
    kind: WeightKind,
    objects: FastMap<u64, Object>,
    rtree: RTree,
    astar: AStar,
    clustering: NodeClustering,
    io: IoTracker,
    build_seconds: f64,
}

impl EuclideanEngine {
    /// Builds the engine: bulk-loads the object R-tree and clusters node
    /// records into CCAM pages.
    pub fn build(
        g: RoadNetwork,
        kind: WeightKind,
        objects: Vec<Object>,
        buffer_pages: usize,
    ) -> Self {
        let ((rtree, object_map, clustering, astar), build_seconds) = timed(|| {
            let points: Vec<_> = objects.iter().map(|o| (o.position(&g), o.id.0)).collect();
            let rtree = RTree::bulk_load(&points, RTree::DEFAULT_MAX_ENTRIES);
            let object_map: FastMap<u64, Object> =
                objects.into_iter().map(|o| (o.id.0, o)).collect();
            let clustering =
                NodeClustering::build(&g, |n| NODE_BASE_BYTES + ADJ_ENTRY_BYTES * g.degree(n));
            let astar = AStar::for_network(&g, kind);
            (rtree, object_map, clustering, astar)
        });
        EuclideanEngine {
            g,
            kind,
            objects: object_map,
            rtree,
            astar,
            clustering,
            io: IoTracker::new(buffer_pages),
            build_seconds,
        }
    }

    /// Exact network distance to an object: A* to the cheaper endpoint.
    /// Touches node pages for every A*-settled node. Free-standing so the
    /// kNN loop can hold the R-tree iterator while verifying.
    #[allow(clippy::too_many_arguments)]
    fn verify_distance(
        g: &RoadNetwork,
        kind: WeightKind,
        astar: &mut AStar,
        clustering: &NodeClustering,
        io: &mut IoTracker,
        settled_total: &mut usize,
        source: NodeId,
        o: &Object,
    ) -> Option<Weight> {
        let (a, b) = g.edge(o.edge).endpoints();
        let mut best: Option<Weight> = None;
        for endpoint in [a, b] {
            let d = astar.one_to_one_visit(g, kind, source, endpoint, |n| {
                let (start, span) = clustering.span_of(n);
                io.touch_span(NS_NODES, start, span);
            });
            *settled_total += astar.settled();
            if let Some(d) = d {
                let total = d + o.offset_from(g, kind, endpoint);
                best = Some(best.map(|b: Weight| b.min(total)).unwrap_or(total));
            }
        }
        best
    }
}

impl Engine for EuclideanEngine {
    fn name(&self) -> &'static str {
        "Euclidean"
    }

    fn knn(&mut self, node: NodeId, k: usize, filter: &ObjectFilter) -> QueryCost {
        self.io.reset();
        if k == 0 {
            return QueryCost { hits: Vec::new(), page_faults: 0, nodes_visited: 0 };
        }
        let from = self.g.coord(node);
        let scale = self.astar.scale();
        let mut nodes_visited = 0usize;
        // Interleaved incremental-Euclidean-NN + A* verification: draw the
        // next candidate by Euclidean distance, verify its network
        // distance, stop once the Euclidean lower bound of the next
        // candidate exceeds the k-th best verified network distance.
        let mut verified: Vec<SearchHit> = Vec::new();
        let mut iter = self.rtree.nearest(from);
        for (oid, ed) in iter.by_ref() {
            if verified.len() >= k {
                let kth = verified[k - 1].distance;
                if Weight::new(ed * scale) > kth {
                    break; // no further candidate can beat the kth answer
                }
            }
            let Some(o) = self.objects.get(&oid) else { continue };
            if !filter.matches(o) {
                continue;
            }
            if let Some(d) = Self::verify_distance(
                &self.g,
                self.kind,
                &mut self.astar,
                &self.clustering,
                &mut self.io,
                &mut nodes_visited,
                node,
                o,
            ) {
                verified.push(SearchHit { object: ObjectId(oid), distance: d });
                verified.sort_by(|x, y| x.distance.cmp(&y.distance).then(x.object.cmp(&y.object)));
                verified.truncate(k);
            }
        }
        for &n in iter.visited_nodes() {
            self.io.touch(NS_RTREE, n);
        }
        drop(iter);
        QueryCost { hits: verified, page_faults: self.io.faults(), nodes_visited }
    }

    fn range(&mut self, node: NodeId, radius: Weight, filter: &ObjectFilter) -> QueryCost {
        self.io.reset();
        let from = self.g.coord(node);
        let scale = self.astar.scale();
        // Euclidean pre-filter: network distance >= scale * euclid, so any
        // answer lies within euclid <= radius / scale. scale = 0 (metric
        // unboundable by geometry) degenerates to scanning every object —
        // exactly the paper's criticism.
        let (candidates, visited) = if scale > 0.0 {
            self.rtree.range(from, radius.get() / scale)
        } else {
            let all: Vec<(u64, f64)> =
                self.objects.sorted().into_iter().map(|(&oid, _)| (oid, 0.0)).collect();
            (all, Vec::new())
        };
        for n in visited {
            self.io.touch(NS_RTREE, n);
        }
        let mut hits = Vec::new();
        let mut nodes_visited = 0usize;
        for (oid, _) in candidates {
            let o = match self.objects.get(&oid) {
                Some(o) if filter.matches(o) => o.clone(),
                _ => continue,
            };
            if let Some(d) = Self::verify_distance(
                &self.g,
                self.kind,
                &mut self.astar,
                &self.clustering,
                &mut self.io,
                &mut nodes_visited,
                node,
                &o,
            ) {
                if d <= radius {
                    hits.push(SearchHit { object: ObjectId(oid), distance: d });
                }
            }
        }
        hits.sort_by(|x, y| x.distance.cmp(&y.distance).then(x.object.cmp(&y.object)));
        QueryCost { hits, page_faults: self.io.faults(), nodes_visited }
    }

    fn insert_object(&mut self, object: Object) -> UpdateCost {
        let (_, seconds) = timed(|| {
            self.rtree.insert(object.position(&self.g), object.id.0);
            self.objects.insert(object.id.0, object);
        });
        UpdateCost { seconds }
    }

    fn remove_object(&mut self, id: ObjectId) -> UpdateCost {
        let (_, seconds) = timed(|| {
            if let Some(o) = self.objects.remove(&id.0) {
                let p = o.position(&self.g);
                self.rtree.remove(p, id.0);
            }
        });
        UpdateCost { seconds }
    }

    fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> UpdateCost {
        let kind = self.kind;
        let (_, seconds) = timed(|| {
            self.g.set_weight(e, kind, w).expect("live edge");
            // A decreased weight may invalidate the admissibility scale.
            self.astar.refresh_scale(&self.g, kind);
        });
        UpdateCost { seconds }
    }

    fn edge_weight(&self, e: EdgeId) -> Weight {
        self.g.weight(e, self.kind)
    }

    fn index_size_bytes(&self) -> usize {
        self.clustering.size_bytes() + self.rtree.size_bytes() + self.objects.len() * OBJECT_BYTES
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }
}

// ---------------------------------------------------------------------------
// A* with the Euclidean admissible heuristic (ref [3]).
// ---------------------------------------------------------------------------

const NO_PRED: u32 = u32::MAX;

/// Largest `scale` such that `scale * euclid(u,v) <= weight(u,v)` holds for
/// every live edge. Returns 0 when no positive scale is admissible.
pub fn admissible_scale(g: &RoadNetwork, kind: WeightKind) -> f64 {
    let mut scale = f64::INFINITY;
    for e in g.edge_ids() {
        let len = g.euclidean_length(e);
        if len <= 0.0 {
            continue; // zero-length embedding constrains nothing
        }
        let w = g.weight(e, kind).get();
        if !w.is_finite() {
            continue;
        }
        scale = scale.min(w / len);
    }
    if scale.is_finite() {
        scale
    } else {
        0.0
    }
}

/// Reusable A* state.
pub struct AStar {
    dist: Vec<Weight>,
    pred_node: Vec<u32>,
    pred_edge: Vec<u32>,
    stamp: Vec<u32>,
    round: u32,
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
    settled_count: usize,
    /// heuristic factor; fixed per (network, metric) pair
    scale: f64,
}

impl AStar {
    /// Creates state for `g`, deriving the heuristic scale from the network.
    pub fn for_network(g: &RoadNetwork, kind: WeightKind) -> Self {
        AStar {
            dist: vec![Weight::INFINITY; g.num_nodes()],
            pred_node: vec![NO_PRED; g.num_nodes()],
            pred_edge: vec![NO_PRED; g.num_nodes()],
            stamp: vec![0; g.num_nodes()],
            round: 0,
            heap: BinaryHeap::new(),
            settled_count: 0,
            scale: admissible_scale(g, kind),
        }
    }

    /// The heuristic scale in use.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Re-derives the scale after edge-weight changes; a decreased weight
    /// can invalidate the previous scale.
    pub fn refresh_scale(&mut self, g: &RoadNetwork, kind: WeightKind) {
        self.scale = admissible_scale(g, kind);
    }

    /// Number of nodes settled in the last query — the baseline's "network
    /// traversal" cost driver.
    pub fn settled(&self) -> usize {
        self.settled_count
    }

    /// Shortest network distance `||src, dst||`, or `None` if disconnected.
    /// `visit` is called once per settled node (for I/O accounting).
    pub fn one_to_one_visit(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        src: NodeId,
        dst: NodeId,
        mut visit: impl FnMut(NodeId),
    ) -> Option<Weight> {
        if g.num_nodes() > self.dist.len() {
            self.dist.resize(g.num_nodes(), Weight::INFINITY);
            self.pred_node.resize(g.num_nodes(), NO_PRED);
            self.pred_edge.resize(g.num_nodes(), NO_PRED);
            self.stamp.resize(g.num_nodes(), 0);
        }
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            self.stamp.fill(0);
            self.round = 1;
        }
        self.heap.clear();
        self.settled_count = 0;

        let goal = g.coord(dst);
        let h = |n: NodeId| Weight::new(self.scale * g.coord(n).distance(goal));

        self.dist[src.index()] = Weight::ZERO;
        self.pred_node[src.index()] = NO_PRED;
        self.stamp[src.index()] = self.round;
        self.heap.push(Reverse((h(src), src.0)));

        while let Some(Reverse((f, u))) = self.heap.pop() {
            let ui = u as usize;
            let du = if self.stamp[ui] == self.round { self.dist[ui] } else { Weight::INFINITY };
            // Stale check against the f-value this label was pushed with.
            if f > du + h(NodeId(u)) {
                continue;
            }
            self.settled_count += 1;
            visit(NodeId(u));
            if u == dst.0 {
                return Some(du);
            }
            for (e, v) in g.neighbors(NodeId(u)) {
                let w = g.weight(e, kind);
                if w.is_infinite() {
                    continue;
                }
                let nd = du + w;
                let vi = v.index();
                let cur =
                    if self.stamp[vi] == self.round { self.dist[vi] } else { Weight::INFINITY };
                if nd < cur {
                    self.dist[vi] = nd;
                    self.pred_node[vi] = u;
                    self.pred_edge[vi] = e.0;
                    self.stamp[vi] = self.round;
                    self.heap.push(Reverse((nd + h(v), v.0)));
                }
            }
        }
        None
    }

    /// Shortest network distance without a visit callback.
    pub fn one_to_one(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Weight> {
        self.one_to_one_visit(g, kind, src, dst, |_| {})
    }

    /// Shortest path, reconstructed from the last run's predecessor links.
    pub fn shortest_path(
        &mut self,
        g: &RoadNetwork,
        kind: WeightKind,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Path> {
        let total = self.one_to_one(g, kind, src, dst)?;
        Path::from_predecessors(src, dst, total, |n| {
            let i = n.index();
            if self.stamp[i] == self.round && self.pred_node[i] != NO_PRED {
                Some((NodeId(self.pred_node[i]), EdgeId(self.pred_edge[i])))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_core::model::CategoryId;
    use road_network::generator::simple;
    use road_network::geometry::Point;
    use road_network::graph::NetworkBuilder;

    fn engine() -> EuclideanEngine {
        let g = simple::grid(10, 10, 1.0);
        let objects = vec![
            Object::new(ObjectId(1), EdgeId(0), 0.5, CategoryId(0)),
            Object::new(ObjectId(2), EdgeId(50), 0.25, CategoryId(1)),
            Object::new(ObjectId(3), EdgeId(120), 0.75, CategoryId(0)),
            Object::new(ObjectId(4), EdgeId(170), 0.1, CategoryId(1)),
        ];
        EuclideanEngine::build(g, WeightKind::Distance, objects, 50)
    }

    #[test]
    fn knn_is_sorted_and_counts_io() {
        let mut e = engine();
        let res = e.knn(NodeId(45), 3, &ObjectFilter::Any);
        assert_eq!(res.hits.len(), 3);
        assert!(res.hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        assert!(res.page_faults > 0);
    }

    #[test]
    fn range_verifies_with_network_distance() {
        let mut e = engine();
        let res = e.range(NodeId(0), Weight::new(6.0), &ObjectFilter::Any);
        for h in &res.hits {
            assert!(h.distance <= Weight::new(6.0));
        }
        let all = e.range(NodeId(0), Weight::new(100.0), &ObjectFilter::Any);
        assert_eq!(all.hits.len(), 4);
    }

    #[test]
    fn filter_and_churn() {
        let mut e = engine();
        let res = e.knn(NodeId(0), 9, &ObjectFilter::Category(CategoryId(1)));
        assert_eq!(res.hits.len(), 2);
        e.insert_object(Object::new(ObjectId(7), EdgeId(10), 0.4, CategoryId(1)));
        let res = e.knn(NodeId(0), 9, &ObjectFilter::Category(CategoryId(1)));
        assert_eq!(res.hits.len(), 3);
        e.remove_object(ObjectId(2));
        let res = e.knn(NodeId(0), 9, &ObjectFilter::Category(CategoryId(1)));
        assert_eq!(res.hits.len(), 2);
    }

    #[test]
    fn weight_update_refreshes_scale() {
        let mut e = engine();
        // Shrinking an edge's weight below its Euclidean length forces the
        // admissibility scale down; queries must stay correct.
        e.set_edge_weight(EdgeId(0), Weight::new(0.01));
        let res = e.knn(NodeId(0), 4, &ObjectFilter::Any);
        assert_eq!(res.hits.len(), 4);
        assert!(res.hits.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn admissible_scale_is_one_for_euclidean_weights() {
        let g = simple::grid(4, 4, 1.0);
        let s = admissible_scale(&g, WeightKind::Distance);
        assert!((s - 1.0).abs() < 1e-9, "scale = {s}");
    }

    /// A lowered weight can make the scale inadmissible; `refresh_scale`
    /// re-derives it from the edge now bounding it, and A* then agrees
    /// with Dijkstra again.
    #[test]
    fn refresh_scale_follows_a_lowered_weight() {
        let mut g = simple::grid(5, 5, 1.0);
        let mut astar = AStar::for_network(&g, WeightKind::Distance);
        g.set_weight(EdgeId(0), WeightKind::Distance, Weight::new(0.25)).unwrap();
        assert!((astar.scale() - 1.0).abs() < 1e-9);
        astar.refresh_scale(&g, WeightKind::Distance);
        assert!((astar.scale() - 0.25).abs() < 1e-9, "scale = {}", astar.scale());
        for (a, b) in [(0u32, 24u32), (1, 20), (24, 0)] {
            let want = road_network::dijkstra::shortest_path_weight(
                &g,
                WeightKind::Distance,
                NodeId(a),
                NodeId(b),
            );
            assert_eq!(astar.one_to_one(&g, WeightKind::Distance, NodeId(a), NodeId(b)), want);
        }
    }

    #[test]
    fn astar_matches_dijkstra_on_grids() {
        let g = simple::grid(6, 5, 1.0);
        let mut astar = AStar::for_network(&g, WeightKind::Distance);
        for (a, b) in [(0u32, 29u32), (3, 17), (5, 24), (0, 0)] {
            let want = road_network::dijkstra::shortest_path_weight(
                &g,
                WeightKind::Distance,
                NodeId(a),
                NodeId(b),
            );
            let got = astar.one_to_one(&g, WeightKind::Distance, NodeId(a), NodeId(b));
            assert_eq!(got, want, "{a} -> {b}");
        }
    }

    #[test]
    fn astar_settles_fewer_nodes_than_dijkstra() {
        let g = simple::grid(20, 20, 1.0);
        let src = NodeId(0);
        let dst = NodeId(19); // far corner of the first row
        let mut astar = AStar::for_network(&g, WeightKind::Distance);
        astar.one_to_one(&g, WeightKind::Distance, src, dst).unwrap();
        let mut dij = road_network::dijkstra::Dijkstra::for_network(&g);
        dij.one_to_one(&g, WeightKind::Distance, src, dst).unwrap();
        assert!(
            astar.settled() < dij.settled(),
            "A* settled {} vs Dijkstra {}",
            astar.settled(),
            dij.settled()
        );
    }

    #[test]
    fn astar_path_validates() {
        let g = simple::grid(5, 5, 1.0);
        let mut astar = AStar::for_network(&g, WeightKind::Distance);
        let p = astar.shortest_path(&g, WeightKind::Distance, NodeId(0), NodeId(24)).unwrap();
        assert!(p.validate(&g, WeightKind::Distance));
        assert_eq!(p.total(), Weight::new(8.0));
    }

    #[test]
    fn zero_scale_for_toll_metric_still_correct() {
        // Toll weights bear no relation to geometry: scale becomes 0 and A*
        // degenerates to Dijkstra but stays correct.
        let mut b = NetworkBuilder::default();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        let n2 = b.add_node(Point::new(5.0, 5.0));
        b.add_edge_full(n0, n1, Weight::new(10.0), Weight::new(1.0), Weight::new(5.0)).unwrap();
        // A free segment with positive Euclidean length forces scale = 0.
        b.add_edge_full(n0, n2, Weight::new(8.0), Weight::new(1.0), Weight::ZERO).unwrap();
        b.add_edge_full(n2, n1, Weight::new(8.0), Weight::new(1.0), Weight::new(2.0)).unwrap();
        let g = b.build();
        let mut astar = AStar::for_network(&g, WeightKind::Toll);
        assert_eq!(astar.scale(), 0.0);
        assert_eq!(astar.one_to_one(&g, WeightKind::Toll, n0, n1), Some(Weight::new(2.0)));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = NetworkBuilder::default();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let g = b.build();
        let mut astar = AStar::for_network(&g, WeightKind::Distance);
        assert_eq!(astar.one_to_one(&g, WeightKind::Distance, a, c), None);
    }
}
