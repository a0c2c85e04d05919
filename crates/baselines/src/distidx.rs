//! Distance Index (Hu, Lee & Lee, ref \[6\]).
//!
//! Every node stores a *distance signature*: one entry per object holding
//! the exact network distance to that object plus a pointer to the next
//! node on the shortest path towards it. (The paper's evaluation also uses
//! exact distances "to provide the optimal search performance".) Queries
//! are then trivial at the query node — read its signature, pick the best
//! objects, chase next-hop pointers to materialise the answers — but the
//! structure costs `|N| × |O|` entries to store and `|O|` full network
//! expansions to build, which is precisely the impracticality the ROAD
//! paper demonstrates (242 MB and half an hour for CA with 1,000 objects).

use crate::layout::{ADJ_ENTRY_BYTES, NODE_BASE_BYTES, NS_NODES, SIG_ENTRY_BYTES};
use crate::{timed, Engine, QueryCost, UpdateCost};
use road_core::model::{Object, ObjectFilter, ObjectId};
use road_core::search::SearchHit;
use road_network::dijkstra::{Control, Dijkstra};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::hash::FastMap;
use road_network::{EdgeId, NodeId, Weight};
use road_storage::ccam::NodeClustering;
use road_storage::IoTracker;

const NO_HOP: u32 = u32::MAX;

/// One signature column: distances and next hops for a single object.
struct Column {
    object: Object,
    dist: Vec<f32>,
    next: Vec<u32>,
}

/// The Distance Index engine.
pub struct DistIdxEngine {
    g: RoadNetwork,
    kind: WeightKind,
    columns: Vec<Column>,
    col_of: FastMap<u64, usize>,
    clustering: NodeClustering,
    io: IoTracker,
    dij: Dijkstra,
    build_seconds: f64,
}

impl DistIdxEngine {
    /// Builds the index: one full network expansion per object.
    pub fn build(
        g: RoadNetwork,
        kind: WeightKind,
        objects: Vec<Object>,
        buffer_pages: usize,
    ) -> Self {
        let mut dij = Dijkstra::for_network(&g);
        let ((columns, col_of, clustering), build_seconds) = timed(|| {
            let mut columns: Vec<Column> = Vec::with_capacity(objects.len());
            let mut col_of = FastMap::default();
            for o in objects {
                col_of.insert(o.id.0, columns.len());
                columns.push(Self::compute_column(&g, kind, &mut dij, o));
            }
            let m = columns.len();
            let clustering = NodeClustering::build(&g, |n| {
                NODE_BASE_BYTES + ADJ_ENTRY_BYTES * g.degree(n) + SIG_ENTRY_BYTES * m
            });
            (columns, col_of, clustering)
        });
        DistIdxEngine {
            g,
            kind,
            columns,
            col_of,
            clustering,
            io: IoTracker::new(buffer_pages),
            dij,
            build_seconds,
        }
    }

    /// Expands from the object (both edge endpoints seeded with their
    /// offsets) to fill the column: `dist[n] = ||n, o||` and `next[n]` =
    /// the neighbour of `n` on the shortest path towards the object.
    fn compute_column(g: &RoadNetwork, kind: WeightKind, dij: &mut Dijkstra, o: Object) -> Column {
        let (a, b) = g.edge(o.edge).endpoints();
        let seeds = [(a, o.offset_from(g, kind, a)), (b, o.offset_from(g, kind, b))];
        dij.expand_multi(g, kind, &seeds, |_, _| Control::Continue);
        let n = g.num_nodes();
        let mut dist = vec![f32::INFINITY; n];
        let mut next = vec![NO_HOP; n];
        for i in 0..n {
            let node = NodeId(i as u32);
            if let Some(d) = dij.distance(node) {
                dist[i] = d.get() as f32;
                // The predecessor in the from-object expansion is the next
                // hop on the path towards the object; seeds have none.
                next[i] = dij.predecessor(node).map(|(p, _)| p.0).unwrap_or(NO_HOP);
            }
        }
        Column { object: o, dist, next }
    }

    fn touch_node(&mut self, n: NodeId) {
        let (start, span) = self.clustering.span_of(n);
        self.io.touch_span(NS_NODES, start, span);
    }

    /// Chases next-hop pointers from `source` to the object of `col`,
    /// touching every node record on the way (this is how the Distance
    /// Index materialises an answer and its path).
    fn chase(&mut self, source: NodeId, col: usize) -> usize {
        let mut hops = 0usize;
        let mut cur = source.0;
        let limit = self.g.num_nodes() + 1;
        while hops < limit {
            let nxt = self.columns[col].next[cur as usize];
            if nxt == NO_HOP {
                break; // reached an endpoint of the object's edge
            }
            cur = nxt;
            self.touch_node(NodeId(cur));
            hops += 1;
        }
        hops
    }

    fn collect(
        &mut self,
        node: NodeId,
        filter: &ObjectFilter,
        k: Option<usize>,
        radius: Option<Weight>,
    ) -> QueryCost {
        self.io.reset();
        self.touch_node(node); // load the (possibly multi-page) signature
        let mut entries: Vec<(Weight, usize)> = Vec::new();
        for (c, col) in self.columns.iter().enumerate() {
            if !filter.matches(&col.object) {
                continue;
            }
            let d = col.dist[node.index()];
            if !d.is_finite() {
                continue;
            }
            let d = Weight::new(d as f64);
            if radius.map(|r| d > r).unwrap_or(false) {
                continue;
            }
            entries.push((d, c));
        }
        entries.sort_by(|a, b| {
            a.0.cmp(&b.0).then(self.columns[a.1].object.id.cmp(&self.columns[b.1].object.id))
        });
        if let Some(k) = k {
            entries.truncate(k);
        }
        let mut nodes_visited = 1usize;
        let hits: Vec<SearchHit> = entries
            .iter()
            .map(|&(d, c)| SearchHit { object: self.columns[c].object.id, distance: d })
            .collect();
        for &(_, c) in &entries {
            nodes_visited += self.chase(node, c);
        }
        QueryCost { hits, page_faults: self.io.faults(), nodes_visited }
    }

    /// Is column `c` possibly affected by a change of edge `(u, v)`?
    /// The edge lies on the column's shortest-path tree iff one endpoint's
    /// next hop is the other; a decrease can also create new shorter paths
    /// through the edge.
    fn column_affected(
        &self,
        c: usize,
        u: NodeId,
        v: NodeId,
        new_w: Weight,
        old_w: Weight,
    ) -> bool {
        let col = &self.columns[c];
        if col.object.edge.index() < self.g.edge_slots() {
            let (a, b) = self.g.edge(col.object.edge).endpoints();
            if (a == u && b == v) || (a == v && b == u) {
                return true; // the object sits on the changed edge
            }
        }
        if new_w < old_w {
            // Improvement possible if going through the cheaper edge beats
            // a current distance.
            let du = col.dist[u.index()] as f64;
            let dv = col.dist[v.index()] as f64;
            return du + new_w.get() < dv || dv + new_w.get() < du;
        }
        // Increase: only matters if the edge is on the SP tree.
        col.next[u.index()] == v.0 || col.next[v.index()] == u.0
    }
}

impl Engine for DistIdxEngine {
    fn name(&self) -> &'static str {
        "DistIdx"
    }

    fn knn(&mut self, node: NodeId, k: usize, filter: &ObjectFilter) -> QueryCost {
        self.collect(node, filter, Some(k), None)
    }

    fn range(&mut self, node: NodeId, radius: Weight, filter: &ObjectFilter) -> QueryCost {
        self.collect(node, filter, None, Some(radius))
    }

    /// Adding an object appends a column: one full network expansion plus
    /// a rewrite of every node record — the cost the paper measures in
    /// Figure 15.
    fn insert_object(&mut self, object: Object) -> UpdateCost {
        let (_, seconds) = timed(|| {
            self.col_of.insert(object.id.0, self.columns.len());
            let col = Self::compute_column(&self.g, self.kind, &mut self.dij, object);
            self.columns.push(col);
            self.recluster();
        });
        UpdateCost { seconds }
    }

    /// Removing an object deletes its column from every node record.
    fn remove_object(&mut self, id: ObjectId) -> UpdateCost {
        let (_, seconds) = timed(|| {
            let Some(c) = self.col_of.remove(&id.0) else { return };
            self.columns.swap_remove(c);
            if c < self.columns.len() {
                let moved = self.columns[c].object.id;
                self.col_of.insert(moved.0, c);
            }
            self.recluster();
        });
        UpdateCost { seconds }
    }

    /// Edge-weight change: every affected column (edge on its SP tree, or
    /// improvable through the cheaper edge) is recomputed by a fresh
    /// expansion — "distance signatures of many nodes have to be
    /// reexamined and updated" (Section 6.2).
    fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> UpdateCost {
        let kind = self.kind;
        let (_, seconds) = timed(|| {
            let old = self.g.set_weight(e, kind, w).expect("live edge");
            if old == w {
                return;
            }
            let (u, v) = self.g.edge(e).endpoints();
            let affected: Vec<usize> = (0..self.columns.len())
                .filter(|&c| self.column_affected(c, u, v, w, old))
                .collect();
            for c in affected {
                let o = self.columns[c].object.clone();
                self.columns[c] = Self::compute_column(&self.g, kind, &mut self.dij, o);
            }
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

impl DistIdxEngine {
    /// Node record sizes change with the number of columns; repack.
    fn recluster(&mut self) {
        let m = self.columns.len();
        let g = &self.g;
        self.clustering = NodeClustering::build(g, |n| {
            NODE_BASE_BYTES + ADJ_ENTRY_BYTES * g.degree(n) + SIG_ENTRY_BYTES * m
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_core::model::CategoryId;
    use road_network::generator::simple;

    fn engine() -> DistIdxEngine {
        let g = simple::grid(9, 9, 1.0);
        let objects = vec![
            Object::new(ObjectId(1), EdgeId(0), 0.5, CategoryId(0)),
            Object::new(ObjectId(2), EdgeId(40), 0.25, CategoryId(1)),
            Object::new(ObjectId(3), EdgeId(100), 0.75, CategoryId(0)),
        ];
        DistIdxEngine::build(g, WeightKind::Distance, objects, 50)
    }

    #[test]
    fn knn_reads_signature_and_chases() {
        let mut e = engine();
        let res = e.knn(NodeId(44), 2, &ObjectFilter::Any);
        assert_eq!(res.hits.len(), 2);
        assert!(res.hits[0].distance <= res.hits[1].distance);
        assert!(res.nodes_visited >= 2, "must chase next hops");
        assert!(res.page_faults >= 1);
    }

    #[test]
    fn range_filters_by_distance() {
        let mut e = engine();
        let res = e.range(NodeId(0), Weight::new(3.0), &ObjectFilter::Any);
        for h in &res.hits {
            assert!(h.distance <= Weight::new(3.0));
        }
        let all = e.range(NodeId(0), Weight::new(100.0), &ObjectFilter::Any);
        assert_eq!(all.hits.len(), 3);
    }

    #[test]
    fn signature_grows_index_size() {
        let g = simple::grid(9, 9, 1.0);
        let few = DistIdxEngine::build(g.clone(), WeightKind::Distance, vec![], 50);
        let objects: Vec<Object> = (0..50)
            .map(|i| Object::new(ObjectId(i), EdgeId(i as u32), 0.5, CategoryId(0)))
            .collect();
        let many = DistIdxEngine::build(g, WeightKind::Distance, objects, 50);
        assert!(many.index_size_bytes() > few.index_size_bytes() * 2);
    }

    #[test]
    fn object_churn_updates_columns() {
        let mut e = engine();
        e.insert_object(Object::new(ObjectId(9), EdgeId(7), 0.5, CategoryId(2)));
        let res = e.knn(NodeId(0), 5, &ObjectFilter::Category(CategoryId(2)));
        assert_eq!(res.hits.len(), 1);
        e.remove_object(ObjectId(1));
        let res = e.knn(NodeId(0), 5, &ObjectFilter::Any);
        assert_eq!(res.hits.len(), 3); // 2 originals + the new one
        assert!(!res.hits.iter().any(|h| h.object == ObjectId(1)));
    }

    #[test]
    fn weight_update_repairs_affected_columns() {
        let mut e = engine();
        let before = e.knn(NodeId(80), 3, &ObjectFilter::Any).hits;
        // Raise a central edge massively; recompute and compare against a
        // freshly built index.
        e.set_edge_weight(EdgeId(72), Weight::new(50.0));
        let got = e.knn(NodeId(80), 3, &ObjectFilter::Any).hits;
        let fresh = {
            let objects: Vec<Object> = e.columns.iter().map(|c| c.object.clone()).collect();
            let mut f = DistIdxEngine::build(e.g.clone(), WeightKind::Distance, objects, 50);
            f.knn(NodeId(80), 3, &ObjectFilter::Any).hits
        };
        assert_eq!(got.len(), fresh.len());
        for (g, f) in got.iter().zip(&fresh) {
            assert!(g.distance.approx_eq(f.distance), "{} vs {}", g.distance, f.distance);
        }
        let _ = before;
    }

    #[test]
    fn decrease_creates_shorter_paths() {
        let mut e = engine();
        // Shrink an edge to near zero somewhere between query and objects.
        e.set_edge_weight(EdgeId(5), Weight::new(0.01));
        let got = e.knn(NodeId(72), 3, &ObjectFilter::Any).hits;
        let objects: Vec<Object> = e.columns.iter().map(|c| c.object.clone()).collect();
        let mut fresh = DistIdxEngine::build(e.g.clone(), WeightKind::Distance, objects, 50);
        let want = fresh.knn(NodeId(72), 3, &ObjectFilter::Any).hits;
        for (g, w) in got.iter().zip(&want) {
            assert!(g.distance.approx_eq(w.distance), "{} vs {}", g.distance, w.distance);
        }
    }
}
