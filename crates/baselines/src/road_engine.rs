//! ROAD behind the uniform [`Engine`] interface.
//!
//! Wraps [`RoadFramework`] + [`AssociationDirectory`] together with the
//! disk-resident engine we ship: a [`PagedEngine`] laid out from them
//! (CCAM-clustered node and shortcut records, B+-tree-indexed directory
//! records, 4 KB pages). A query clears the buffer pool and runs through
//! those pages, so the I/O reported for ROAD is the pool's own fault count
//! — not a model of it. Updates repair the framework and directory; the
//! page layout is not incremental, so an update drops the image and the
//! next query (or size request) lays it out again, outside every timer.

use crate::{timed, Engine, QueryCost, UpdateCost};
use road_core::association::AssociationDirectory;
use road_core::framework::RoadFramework;
use road_core::model::{Object, ObjectFilter, ObjectId};
use road_core::paged::{PagedEngine, PagedOptions};
use road_core::search::{KnnQuery, RangeQuery};
use road_core::{RoadError, SearchResult};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, NodeId, Weight};
use std::cell::OnceCell;

/// Hierarchy shape for the wrapped framework.
#[derive(Clone, Copy, Debug)]
pub struct RoadEngineConfig {
    /// Partition fanout `p`.
    pub fanout: usize,
    /// Hierarchy depth `l`.
    pub levels: u32,
}

impl Default for RoadEngineConfig {
    fn default() -> Self {
        RoadEngineConfig { fanout: 4, levels: 4 }
    }
}

/// The ROAD engine.
pub struct RoadEngine {
    fw: RoadFramework,
    ad: AssociationDirectory,
    /// The page image of `fw` + `ad`; empty after an update until the next
    /// query or size request lays it out again.
    paged: OnceCell<PagedEngine>,
    opts: PagedOptions,
    build_seconds: f64,
}

impl RoadEngine {
    /// Builds the framework, maps the objects, and lays out the pages.
    pub fn build(
        g: RoadNetwork,
        kind: WeightKind,
        objects: Vec<Object>,
        buffer_pages: usize,
        cfg: RoadEngineConfig,
    ) -> Result<Self, RoadError> {
        let (engine, build_seconds) = timed(|| -> Result<_, RoadError> {
            let fw = RoadFramework::builder(g)
                .fanout(cfg.fanout)
                .levels(cfg.levels)
                .metric(kind)
                .build()?;
            let mut ad = AssociationDirectory::new(fw.hierarchy());
            for o in objects {
                ad.insert(fw.network(), fw.hierarchy(), o)?;
            }
            // One stripe: the paper's single LRU, the pool NetExp,
            // Euclidean and DistIdx count their faults through.
            let opts = PagedOptions::with_buffer_pages(buffer_pages).with_stripes(1);
            let paged = PagedEngine::new(&fw, &ad, opts)?;
            Ok(RoadEngine { fw, ad, paged: paged.into(), opts, build_seconds: 0.0 })
        });
        let mut engine = engine?;
        engine.build_seconds = build_seconds;
        Ok(engine)
    }

    /// Direct access to the wrapped framework.
    pub fn framework(&self) -> &RoadFramework {
        &self.fw
    }

    /// Direct access to the wrapped directory.
    pub fn directory(&self) -> &AssociationDirectory {
        &self.ad
    }

    /// The current page image, laid out on demand.
    fn paged(&self) -> &PagedEngine {
        self.paged.get_or_init(|| {
            PagedEngine::new(&self.fw, &self.ad, self.opts).expect("a built framework lays out")
        })
    }

    /// One cold-cache query through the pages.
    fn run(
        &self,
        query: impl FnOnce(&PagedEngine) -> Result<SearchResult, RoadError>,
    ) -> QueryCost {
        let paged = self.paged();
        paged.clear_cache().expect("pool locks are never poisoned here");
        let res = query(paged).expect("valid query");
        QueryCost {
            hits: res.hits,
            page_faults: res.stats.page_faults as u64,
            nodes_visited: res.stats.nodes_settled,
        }
    }

    /// Times `repair` alone, then drops the page image it invalidated.
    fn update(
        &mut self,
        repair: impl FnOnce(&mut RoadFramework, &mut AssociationDirectory),
    ) -> UpdateCost {
        let (_, seconds) = timed(|| repair(&mut self.fw, &mut self.ad));
        self.paged.take();
        UpdateCost { seconds }
    }
}

impl Engine for RoadEngine {
    fn name(&self) -> &'static str {
        "ROAD"
    }

    fn knn(&mut self, node: NodeId, k: usize, filter: &ObjectFilter) -> QueryCost {
        let q = KnnQuery::new(node, k).with_filter(filter.clone());
        self.run(|paged| paged.knn(&q))
    }

    fn range(&mut self, node: NodeId, radius: Weight, filter: &ObjectFilter) -> QueryCost {
        let q = RangeQuery::new(node, radius).with_filter(filter.clone());
        self.run(|paged| paged.range(&q))
    }

    fn insert_object(&mut self, object: Object) -> UpdateCost {
        self.update(|fw, ad| {
            ad.insert(fw.network(), fw.hierarchy(), object).expect("valid object");
        })
    }

    fn remove_object(&mut self, id: ObjectId) -> UpdateCost {
        self.update(|fw, ad| {
            // Tolerate unknown ids for trait uniformity (the other engines
            // treat removal of a missing object as a no-op); anything else
            // is a harness bug.
            match ad.remove(fw.network(), fw.hierarchy(), id) {
                Ok(_) | Err(RoadError::UnknownObject(_)) => {}
                Err(e) => panic!("removing {id:?}: {e}"),
            }
        })
    }

    fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> UpdateCost {
        self.update(|fw, _| {
            fw.set_edge_weight(e, w).expect("live edge");
        })
    }

    fn edge_weight(&self, e: EdgeId) -> Weight {
        self.fw.network().weight(e, self.fw.metric())
    }

    fn index_size_bytes(&self) -> usize {
        self.paged().disk_size_bytes()
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_core::model::CategoryId;
    use road_core::search::{oracle_knn, oracle_range};
    use road_core::QueryEngine;
    use road_network::generator::simple;

    fn engine_with(buffer_pages: usize) -> RoadEngine {
        let g = simple::grid(12, 12, 1.0);
        let objects = vec![
            Object::new(ObjectId(1), EdgeId(0), 0.5, CategoryId(0)),
            Object::new(ObjectId(2), EdgeId(90), 0.25, CategoryId(1)),
            Object::new(ObjectId(3), EdgeId(200), 0.75, CategoryId(0)),
        ];
        RoadEngine::build(
            g,
            WeightKind::Distance,
            objects,
            buffer_pages,
            RoadEngineConfig { fanout: 4, levels: 2 },
        )
        .unwrap()
    }

    fn engine() -> RoadEngine {
        engine_with(50)
    }

    #[test]
    fn knn_works_and_reports_io() {
        let mut e = engine();
        let res = e.knn(NodeId(77), 2, &ObjectFilter::Any);
        assert_eq!(res.hits.len(), 2);
        assert!(res.hits[0].distance <= res.hits[1].distance);
        assert!(res.page_faults > 0);
    }

    #[test]
    fn range_and_filters() {
        let mut e = engine();
        let res = e.range(NodeId(0), Weight::new(30.0), &ObjectFilter::Category(CategoryId(0)));
        assert_eq!(res.hits.len(), 2);
    }

    /// The figures' ROAD column is the shipped engines: faults are a cold
    /// query's on a one-stripe `PagedEngine` — the paper's single LRU, the
    /// one the other engines count through — hits are `QueryEngine`'s,
    /// size is the page store's. A 3-page buffer makes the fault count
    /// depend on eviction, and on how the pool is striped.
    #[test]
    fn faults_hits_and_size_are_the_shipped_engines() {
        let mut e = engine_with(3);
        let opts = PagedOptions::with_buffer_pages(3).with_stripes(1);
        let paged = PagedEngine::new(e.framework(), e.directory(), opts).unwrap();
        let mem = QueryEngine::new(e.framework().clone(), e.directory().clone());
        assert_eq!(e.index_size_bytes(), paged.disk_size_bytes());
        let cat0 = ObjectFilter::Category(CategoryId(0));
        for n in (0..144).step_by(13).map(NodeId) {
            for filter in [&ObjectFilter::Any, &cat0] {
                let q = KnnQuery::new(n, 2).with_filter(filter.clone());
                let got = e.knn(n, 2, filter);
                paged.clear_cache().unwrap();
                let cold = paged.knn(&q).unwrap();
                assert!(cold.stats.page_faults > 3, "buffer too large to evict");
                assert_eq!(got.page_faults, cold.stats.page_faults as u64, "knn at {n}");
                assert_eq!(got.nodes_visited, cold.stats.nodes_settled);
                assert_eq!(got.hits, mem.knn(&q).unwrap().hits);

                let q = RangeQuery::new(n, Weight::new(9.0)).with_filter(filter.clone());
                let got = e.range(n, q.radius, filter);
                paged.clear_cache().unwrap();
                let cold = paged.range(&q).unwrap();
                assert_eq!(got.page_faults, cold.stats.page_faults as u64, "range at {n}");
                assert_eq!(got.hits, mem.range(&q).unwrap().hits);
            }
        }
    }

    fn assert_oracle_knn(e: &mut RoadEngine, node: NodeId, k: usize, filter: &ObjectFilter) {
        let got = e.knn(node, k, filter).hits;
        let q = KnnQuery::new(node, k).with_filter(filter.clone());
        assert_eq!(got, oracle_knn(e.framework(), e.directory(), &q));
    }

    #[test]
    fn object_churn_never_answers_from_a_stale_image() {
        let mut e = engine();
        let cat2 = ObjectFilter::Category(CategoryId(2));
        for i in 10..60u64 {
            e.insert_object(Object::new(ObjectId(i), EdgeId((i * 3) as u32), 0.5, CategoryId(2)));
        }
        assert_eq!(e.knn(NodeId(0), 50, &cat2).hits.len(), 50);
        assert_oracle_knn(&mut e, NodeId(0), 50, &cat2);
        e.remove_object(ObjectId(10));
        assert_eq!(e.knn(NodeId(0), 50, &cat2).hits.len(), 49);
        assert_oracle_knn(&mut e, NodeId(0), 50, &cat2);
        let q = RangeQuery::new(NodeId(70), Weight::new(6.0)).with_filter(cat2.clone());
        let want = oracle_range(e.framework(), e.directory(), &q);
        assert_eq!(e.range(q.node, q.radius, &cat2).hits, want);
    }

    /// Removing an id the directory never held is a no-op, as on the other
    /// engines: only `UnknownObject` is tolerated.
    #[test]
    fn removing_an_unknown_object_changes_nothing() {
        let mut e = engine();
        let before = e.knn(NodeId(77), 3, &ObjectFilter::Any).hits;
        e.remove_object(ObjectId(999));
        assert_eq!(e.directory().len(), 3);
        assert_eq!(e.knn(NodeId(77), 3, &ObjectFilter::Any).hits, before);
        assert_oracle_knn(&mut e, NodeId(77), 3, &ObjectFilter::Any);
    }

    #[test]
    fn weight_updates_never_answer_from_a_stale_image() {
        let mut e = engine();
        let nearest = e.knn(NodeId(140), 1, &ObjectFilter::Any).hits[0];
        let edge = e.directory().object(nearest.object).unwrap().edge;
        let open = e.edge_weight(edge);
        // Closing the nearest object's edge makes it unreachable...
        e.set_edge_weight(edge, Weight::INFINITY);
        let closed = e.knn(NodeId(140), 3, &ObjectFilter::Any).hits;
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|h| h.object != nearest.object));
        assert_oracle_knn(&mut e, NodeId(140), 3, &ObjectFilter::Any);
        // ...and restoring the weight brings it back at its old distance.
        e.set_edge_weight(edge, open);
        assert_eq!(e.knn(NodeId(140), 3, &ObjectFilter::Any).hits[0], nearest);
        assert_oracle_knn(&mut e, NodeId(140), 3, &ObjectFilter::Any);
    }

    /// Update timers cover the overlay/directory repair only: every update
    /// leaves the engine without a page image, and it is the next query or
    /// size request (untimed) that lays one out.
    #[test]
    fn updates_drop_the_image_and_the_next_reader_lays_it_out() {
        let mut e = engine();
        assert!(e.paged.get().is_some(), "build lays the pages out");
        e.insert_object(Object::new(ObjectId(9), EdgeId(7), 0.5, CategoryId(0)));
        assert!(e.paged.get().is_none());
        let with_nine = e.index_size_bytes();
        assert!(e.paged.get().is_some());
        e.remove_object(ObjectId(9));
        assert!(e.paged.get().is_none());
        e.knn(NodeId(3), 1, &ObjectFilter::Any);
        assert!(e.paged.get().is_some());
        assert!(e.index_size_bytes() <= with_nine);
        e.set_edge_weight(EdgeId(5), Weight::new(4.0));
        assert!(e.paged.get().is_none());
        e.range(NodeId(3), Weight::new(2.0), &ObjectFilter::Any);
        assert!(e.paged.get().is_some());
    }
}
