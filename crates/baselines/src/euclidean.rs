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

use crate::layout::{ADJ_ENTRY_BYTES, NODE_BASE_BYTES, NS_NODES, NS_RTREE, OBJECT_BYTES};
use crate::{timed, Engine, QueryCost, UpdateCost};
use road_core::model::{Object, ObjectFilter, ObjectId};
use road_core::search::SearchHit;
use road_network::astar::AStar;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::hash::FastMap;
use road_network::{EdgeId, NodeId, Weight};
use road_spatial::RTree;
use road_storage::ccam::NodeClustering;
use road_storage::IoTracker;

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
            let all: Vec<(u64, f64)> = self.objects.keys().map(|&oid| (oid, 0.0)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use road_core::model::CategoryId;
    use road_network::generator::simple;

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
}
