//! NetExp: incremental network expansion (INE, Papadias et al., ref \[16\]).
//!
//! The no-index baseline: objects are stored in the records of their
//! edges' endpoint nodes, and a query is a Dijkstra expansion from the
//! query node that collects objects as their nodes settle — "an almost
//! blind scan over the entire search space ... slow node-by-node expansion
//! towards all directions" (Section 2). Its redeeming qualities, which the
//! experiments confirm: near-zero index cost and trivially cheap updates.

use crate::layout::{ADJ_ENTRY_BYTES, NODE_BASE_BYTES, NS_NODES, OBJECT_BYTES};
use crate::{timed, Engine, QueryCost, UpdateCost};
use road_core::model::{Object, ObjectFilter, ObjectId};
use road_core::search::SearchHit;
use road_network::dijkstra::{Control, Dijkstra};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::hash::{FastMap, FastSet};
use road_network::{EdgeId, NodeId, Weight};
use road_storage::ccam::NodeClustering;
use road_storage::IoTracker;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The network-expansion engine.
///
/// The expansion state (generation-stamped [`Dijkstra`] labels, candidate
/// heap, emitted-object set) is owned by the engine and reused across
/// queries, mirroring the core engine's `SearchWorkspace` discipline: a
/// steady query stream pays no per-query container allocations.
pub struct NetExpEngine {
    g: RoadNetwork,
    kind: WeightKind,
    objects: FastMap<u64, Object>,
    node_objects: FastMap<u32, Vec<ObjectId>>,
    clustering: NodeClustering,
    io: IoTracker,
    build_seconds: f64,
    dij: Dijkstra,
    /// Discovered objects waiting for the frontier to pass their total
    /// distance, as `(total, object id)` — popping in that order gives the
    /// oracle's `(distance, object id)` tie-break.
    cand: BinaryHeap<Reverse<(Weight, u64)>>,
    /// Objects already reported this query.
    emitted: FastSet<u64>,
}

impl NetExpEngine {
    /// Builds the engine: clusters node records (with their objects) into
    /// CCAM pages.
    pub fn build(
        g: RoadNetwork,
        kind: WeightKind,
        objects: Vec<Object>,
        buffer_pages: usize,
    ) -> Self {
        let ((node_objects, object_map, clustering), build_seconds) = timed(|| {
            let mut node_objects: FastMap<u32, Vec<ObjectId>> = FastMap::default();
            let mut object_map: FastMap<u64, Object> = FastMap::default();
            for o in objects {
                let (a, b) = g.edge(o.edge).endpoints();
                node_objects.entry(a.0).or_default().push(o.id);
                node_objects.entry(b.0).or_default().push(o.id);
                object_map.insert(o.id.0, o);
            }
            let clustering = Self::cluster(&g, &node_objects);
            (node_objects, object_map, clustering)
        });
        let dij = Dijkstra::for_network(&g);
        NetExpEngine {
            g,
            kind,
            objects: object_map,
            node_objects,
            clustering,
            io: IoTracker::new(buffer_pages),
            build_seconds,
            dij,
            cand: BinaryHeap::new(),
            emitted: FastSet::default(),
        }
    }

    fn cluster(g: &RoadNetwork, node_objects: &FastMap<u32, Vec<ObjectId>>) -> NodeClustering {
        NodeClustering::build(g, |n| {
            let objs = node_objects.get(&n.0).map(Vec::len).unwrap_or(0);
            NODE_BASE_BYTES + ADJ_ENTRY_BYTES * g.degree(n) + OBJECT_BYTES * objs
        })
    }

    /// Shared expansion loop; `radius = None` means kNN mode.
    ///
    /// Runs the reusable [`Dijkstra`] over the network and buffers objects
    /// discovered at settled nodes in a candidate heap. A candidate is
    /// reported only once the frontier distance passes its total distance:
    /// by then every node able to host an equal-or-closer object has been
    /// expanded, so candidates emit in exact `(distance, object id)` order
    /// — the same tie-break as the core engine and the oracles.
    fn search(
        &mut self,
        source: NodeId,
        k: usize,
        radius: Option<Weight>,
        filter: &ObjectFilter,
    ) -> QueryCost {
        self.io.reset(); // the paper starts every query with a cold cache
        let mut hits = Vec::new();
        let mut nodes_visited = 0usize;
        self.cand.clear();
        self.emitted.clear();
        // Split borrows: the expansion state mutates alongside reads of
        // the network and object tables.
        let NetExpEngine {
            g, kind, objects, node_objects, clustering, io, dij, cand, emitted, ..
        } = self;
        dij.expand(g, *kind, source, |nid, d| {
            // Report candidates the frontier has passed; equal-distance
            // candidates wait until every node at that distance settled.
            while let Some(&Reverse((total, oid))) = cand.peek() {
                if total >= d {
                    break;
                }
                cand.pop();
                if emitted.insert(oid) {
                    hits.push(SearchHit { object: ObjectId(oid), distance: total });
                    if hits.len() >= k {
                        return Control::Break;
                    }
                }
            }
            if let Some(r) = radius {
                if d > r {
                    return Control::Break;
                }
            }
            nodes_visited += 1;
            let (start, span) = clustering.span_of(nid);
            io.touch_span(NS_NODES, start, span);
            if let Some(list) = node_objects.get(&nid.0) {
                for oid in list {
                    let o = &objects[&oid.0];
                    if !filter.matches(o) || emitted.contains(&o.id.0) {
                        continue;
                    }
                    let total = d + o.offset_from(g, *kind, nid);
                    if radius.map(|r| total > r).unwrap_or(false) {
                        continue;
                    }
                    cand.push(Reverse((total, o.id.0)));
                }
            }
            Control::Continue
        });
        // The expansion ended (component exhausted or radius passed);
        // whatever is still buffered is within bounds and final.
        while hits.len() < k {
            match cand.pop() {
                Some(Reverse((total, oid))) => {
                    if emitted.insert(oid) {
                        hits.push(SearchHit { object: ObjectId(oid), distance: total });
                    }
                }
                None => break,
            }
        }
        QueryCost { hits, page_faults: self.io.faults(), nodes_visited }
    }
}

impl Engine for NetExpEngine {
    fn name(&self) -> &'static str {
        "NetExp"
    }

    fn knn(&mut self, node: NodeId, k: usize, filter: &ObjectFilter) -> QueryCost {
        if k == 0 {
            return QueryCost { hits: Vec::new(), page_faults: 0, nodes_visited: 0 };
        }
        self.search(node, k, None, filter)
    }

    fn range(&mut self, node: NodeId, radius: Weight, filter: &ObjectFilter) -> QueryCost {
        self.search(node, usize::MAX, Some(radius), filter)
    }

    fn insert_object(&mut self, object: Object) -> UpdateCost {
        let (_, seconds) = timed(|| {
            let (a, b) = self.g.edge(object.edge).endpoints();
            self.node_objects.entry(a.0).or_default().push(object.id);
            self.node_objects.entry(b.0).or_default().push(object.id);
            self.objects.insert(object.id.0, object);
            // Object lives inside the endpoint node records; the affected
            // pages are simply rewritten (no index restructuring).
        });
        UpdateCost { seconds }
    }

    fn remove_object(&mut self, id: ObjectId) -> UpdateCost {
        let (_, seconds) = timed(|| {
            if let Some(o) = self.objects.remove(&id.0) {
                let (a, b) = self.g.edge(o.edge).endpoints();
                for n in [a.0, b.0] {
                    if let Some(v) = self.node_objects.get_mut(&n) {
                        v.retain(|&x| x != id);
                    }
                }
            }
        });
        UpdateCost { seconds }
    }

    fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> UpdateCost {
        let kind = self.kind;
        let (_, seconds) = timed(|| {
            self.g.set_weight(e, kind, w).expect("live edge");
        });
        UpdateCost { seconds }
    }

    fn edge_weight(&self, e: EdgeId) -> Weight {
        self.g.weight(e, self.kind)
    }

    fn index_size_bytes(&self) -> usize {
        self.clustering.size_bytes()
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

    fn engine_with_objects() -> NetExpEngine {
        let g = simple::grid(10, 10, 1.0);
        let objects = vec![
            Object::new(ObjectId(1), EdgeId(0), 0.5, CategoryId(0)),
            Object::new(ObjectId(2), EdgeId(50), 0.25, CategoryId(1)),
            Object::new(ObjectId(3), EdgeId(120), 0.75, CategoryId(0)),
        ];
        NetExpEngine::build(g, WeightKind::Distance, objects, 50)
    }

    #[test]
    fn knn_finds_objects_in_distance_order() {
        let mut e = engine_with_objects();
        let res = e.knn(NodeId(0), 3, &ObjectFilter::Any);
        assert_eq!(res.hits.len(), 3);
        assert!(res.hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        assert!(res.page_faults > 0);
        assert!(res.nodes_visited > 0);
    }

    #[test]
    fn range_respects_radius() {
        let mut e = engine_with_objects();
        let all = e.range(NodeId(0), Weight::new(100.0), &ObjectFilter::Any);
        assert_eq!(all.hits.len(), 3);
        let near = e.range(NodeId(0), Weight::new(1.0), &ObjectFilter::Any);
        assert!(near.hits.len() < 3);
        for h in &near.hits {
            assert!(h.distance <= Weight::new(1.0));
        }
    }

    #[test]
    fn filter_is_applied() {
        let mut e = engine_with_objects();
        let res = e.knn(NodeId(0), 5, &ObjectFilter::Category(CategoryId(0)));
        assert_eq!(res.hits.len(), 2);
    }

    #[test]
    fn object_churn_is_cheap_and_visible() {
        let mut e = engine_with_objects();
        e.insert_object(Object::new(ObjectId(9), EdgeId(3), 0.5, CategoryId(5)));
        let res = e.knn(NodeId(0), 10, &ObjectFilter::Category(CategoryId(5)));
        assert_eq!(res.hits.len(), 1);
        e.remove_object(ObjectId(9));
        let res = e.knn(NodeId(0), 10, &ObjectFilter::Category(CategoryId(5)));
        assert!(res.hits.is_empty());
    }

    #[test]
    fn weight_update_changes_answers() {
        let mut e = engine_with_objects();
        let before = e.knn(NodeId(0), 1, &ObjectFilter::Any).hits[0];
        // Make the object's edge endpoint unreachable cheaply: raise edge 0.
        e.set_edge_weight(EdgeId(0), Weight::new(500.0));
        let after = e.knn(NodeId(0), 1, &ObjectFilter::Any).hits[0];
        assert!(after.distance >= before.distance);
        assert_eq!(e.edge_weight(EdgeId(0)), Weight::new(500.0));
    }

    #[test]
    fn index_is_small_and_build_fast() {
        let e = engine_with_objects();
        assert!(e.index_size_bytes() > 0);
        assert!(e.index_size_bytes() < 1_000_000);
        assert!(e.build_seconds() < 1.0);
    }
}
