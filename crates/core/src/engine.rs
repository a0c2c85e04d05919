//! Concurrent query serving: [`QueryEngine`].
//!
//! [`RoadFramework`] queries take `&self` and the framework holds no
//! interior mutability, so one built overlay can serve any number of
//! threads at once. `QueryEngine` makes that a first-class API: it wraps
//! `Arc<RoadFramework>` + `Arc<AssociationDirectory>` behind a cheaply
//! clonable handle, pairs every serving thread with its own reusable
//! [`SearchWorkspace`], and offers a batch entry point that fans a query
//! load out over scoped threads. Like the framework's and the paged
//! engine's, each door is one call of a query runner in [`crate::search`]:
//! pooled doors borrow a workspace from the per-thread pool, `_with` doors
//! and batch workers reuse the caller's, so steady-state serving performs
//! no per-query container allocations (see the
//! [`workspace`](crate::workspace) module docs).
//!
//! ```
//! use road_core::prelude::*;
//! use road_network::generator::simple;
//!
//! let net = simple::grid(8, 8, 1.0);
//! let road = RoadFramework::builder(net).fanout(4).levels(2).build().unwrap();
//! let mut pois = AssociationDirectory::new(road.hierarchy());
//! let edge = road.network().edge_ids().next().unwrap();
//! pois.insert(road.network(), road.hierarchy(), Object::new(ObjectId(1), edge, 0.5, CategoryId(0)))
//!     .unwrap();
//!
//! let engine = QueryEngine::new(road, pois);
//! let queries: Vec<KnnQuery> = (0..16).map(|n| KnnQuery::new(NodeId(n), 1)).collect();
//! let answers = engine.batch_knn(&queries, 4).unwrap();
//! assert_eq!(answers.len(), 16);
//! ```

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

use crate::association::AssociationDirectory;
use crate::framework::RoadFramework;
use crate::search::{
    self, AggregateKnnQuery, Backend, KnnQuery, MemorySource, RangeQuery, SearchHit, SearchResult,
    SearchStats,
};
use crate::workspace::SearchWorkspace;
use crate::RoadError;
use road_network::fanout::fan_out;
use road_network::{NodeId, Weight};
use std::sync::Arc;

/// A shareable, thread-safe handle over one Route Overlay and one object
/// directory. Clone it into every serving thread; all clones answer
/// against the same index.
#[derive(Clone)]
pub struct QueryEngine {
    fw: Arc<RoadFramework>,
    ad: Arc<AssociationDirectory>,
}

// Serving from many threads only works if the shared state really is
// immutable-shareable; keep that a compile-time fact, not a convention.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<RoadFramework>();
    assert_send_sync::<AssociationDirectory>();
};

impl QueryEngine {
    /// Wraps a framework and a directory for concurrent serving.
    pub fn new(fw: RoadFramework, ad: AssociationDirectory) -> Self {
        Self::from_shared(Arc::new(fw), Arc::new(ad))
    }

    /// Wraps state another owner shares: a live snapshot's framework and
    /// the directory it hands on unchanged across publishes.
    pub(crate) fn from_shared(fw: Arc<RoadFramework>, ad: Arc<AssociationDirectory>) -> Self {
        QueryEngine { fw, ad }
    }

    /// The wrapped framework.
    pub fn framework(&self) -> &RoadFramework {
        &self.fw
    }

    /// The wrapped directory.
    pub fn directory(&self) -> &AssociationDirectory {
        &self.ad
    }

    /// kNN through the per-thread workspace pool.
    pub fn knn(&self, query: &KnnQuery) -> Result<SearchResult, RoadError> {
        search::run(self, query.node, &query.filter, query.mode())
    }

    /// Range query through the per-thread workspace pool.
    pub fn range(&self, query: &RangeQuery) -> Result<SearchResult, RoadError> {
        search::run(self, query.node, &query.filter, query.mode())
    }

    /// Allocation-free kNN into caller-owned scratch; the serving-loop hot
    /// path. See [`RoadFramework::knn_with`].
    pub fn knn_with(
        &self,
        query: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        search::run_into(self, query.node, &query.filter, query.mode(), ws, hits)
    }

    /// Allocation-free range query into caller-owned scratch.
    pub fn range_with(
        &self,
        query: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        search::run_into(self, query.node, &query.filter, query.mode(), ws, hits)
    }

    /// Aggregate kNN over a query group; see
    /// [`RoadFramework::aggregate_knn_with_stats`] for the strategy.
    pub fn aggregate_knn(&self, query: &AggregateKnnQuery) -> Result<Vec<SearchHit>, RoadError> {
        Ok(search::aggregate(self, query)?.0)
    }

    /// Point-to-point network distance through the overlay.
    pub fn network_distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
        Ok(search::distance(self, from, to)?.distance_to_node(to))
    }

    /// Evaluates a batch of kNN queries on up to `threads` scoped worker
    /// threads (each with one workspace reused across its whole share) and
    /// returns the hit lists in query order. `threads <= 1` runs inline.
    ///
    /// On failure the error is deterministic regardless of thread timing:
    /// when several queries fail, the reported error is that of the
    /// **lowest query index** — workers own contiguous in-order chunks,
    /// all of them are joined, and results are scanned in query order,
    /// never in completion order.
    pub fn batch_knn(
        &self,
        queries: &[KnnQuery],
        threads: usize,
    ) -> Result<Vec<Vec<SearchHit>>, RoadError> {
        run_batch(queries, threads, |q, ws, hits| self.knn_with(q, ws, hits))
    }

    /// Evaluates a batch of range queries; see [`QueryEngine::batch_knn`].
    pub fn batch_range(
        &self,
        queries: &[RangeQuery],
        threads: usize,
    ) -> Result<Vec<Vec<SearchHit>>, RoadError> {
        run_batch(queries, threads, |q, ws, hits| self.range_with(q, ws, hits))
    }
}

/// Fans `queries` out over up to `threads` workers ([`fan_out`]), each
/// with one reused [`SearchWorkspace`], and returns the hit lists in query
/// order — the batch engine behind [`QueryEngine`] and the paged engine's
/// batch API.
///
/// **Error contract:** when several queries fail, the reported error is
/// that of the **lowest query index**, independent of which worker thread
/// finishes (or fails) first. Workers own contiguous, in-order chunks and
/// stop at their first failure, so the first failing chunk's error is the
/// globally lowest-index failure; all workers are joined before any error
/// is returned, and the chunk results are then scanned in query order —
/// never in completion order. A worker that panics makes the batch
/// `RoadError::Internal("batch worker panicked")`.
pub(crate) fn run_batch<Q: Sync>(
    queries: &[Q],
    threads: usize,
    run: impl Fn(&Q, &mut SearchWorkspace, &mut Vec<SearchHit>) -> Result<SearchStats, RoadError> + Sync,
) -> Result<Vec<Vec<SearchHit>>, RoadError> {
    let run_chunk = |chunk: &[Q]| -> Result<Vec<Vec<SearchHit>>, RoadError> {
        let mut ws = SearchWorkspace::new();
        chunk
            .iter()
            .map(|q| {
                let mut hits = Vec::new();
                run(q, &mut ws, &mut hits)?;
                Ok(hits)
            })
            .collect()
    };
    let threads = threads.clamp(1, queries.len().max(1));
    let chunk_len = queries.len().div_ceil(threads).max(1);
    // Every chunk's result is in before any is read, and they are read in
    // query order: the reported error cannot depend on completion order.
    let results = fan_out(queries.chunks(chunk_len), run_chunk)
        .map_err(|_| RoadError::Internal("batch worker panicked".into()))?;
    let mut out = Vec::with_capacity(queries.len());
    for chunk in results {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Every door above opens the wrapped framework and directory in place.
impl Backend for QueryEngine {
    type Source<'a> = MemorySource<'a>;

    fn source(&self, objects: bool) -> MemorySource<'_> {
        MemorySource { fw: &self.fw, ad: Some(&*self.ad) }.source(objects)
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("framework", &*self.fw)
            .field("objects", &self.ad.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that panics — on a spawned thread or on the calling one —
    /// makes the batch an `Err`, never a panic of the caller.
    #[test]
    fn a_panicking_worker_is_an_internal_error() {
        let queries: Vec<u32> = (0..8).collect();
        for (threads, bad) in [(1, 5), (4, 0), (4, 5)] {
            let got = run_batch(&queries, threads, |&q, _, _| {
                if q == bad {
                    panic!("query {q}");
                }
                Ok(SearchStats::default())
            });
            let Err(RoadError::Internal(msg)) = got else { panic!("{threads}/{bad}: {got:?}") };
            assert_eq!(msg, "batch worker panicked");
        }
        let hits = run_batch(&queries, 4, |_, _, _| Ok(SearchStats::default())).unwrap();
        assert_eq!(hits.len(), queries.len());
    }
}
