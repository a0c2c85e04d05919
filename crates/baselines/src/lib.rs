//! # road-baselines
//!
//! The three comparison approaches of the ROAD paper's evaluation
//! (Section 6), plus a wrapper presenting ROAD itself through the same
//! interface so the experiment harness can drive all four uniformly:
//!
//! * [`netexp`] — **NetExp**: plain network expansion (INE, ref \[16\]);
//!   objects are stored with network nodes, no extra index.
//! * [`euclidean`] — **Euclidean**: objects in an R-tree, candidates
//!   retrieved in increasing Euclidean distance (a lower bound of network
//!   distance) and verified with A* (refs \[16\], \[19\], \[3\]).
//! * [`distidx`] — **DistIdx**: Distance Index (ref \[6\]); per-node
//!   distance signatures with one entry (distance + next hop) per object.
//! * [`road_engine`] — ROAD behind the same [`Engine`] trait.
//!
//! Every engine owns its copy of the network and follows the paper's
//! measurement methodology: 4 KB pages, 50-page LRU buffer, queries
//! starting with an empty cache. ROAD reads real pages through
//! `road_core`'s `PagedEngine` and reports the buffer pool's fault count;
//! the three comparison engines *model* their layout (CCAM node pages,
//! object/R-tree pages) and count faults with `road_storage::IoTracker`.

pub mod distidx;
pub mod euclidean;
pub mod netexp;
pub mod road_engine;

pub use distidx::DistIdxEngine;
pub use euclidean::EuclideanEngine;
pub use netexp::NetExpEngine;
pub use road_engine::RoadEngine;

use road_core::model::{Object, ObjectFilter, ObjectId};
use road_core::search::SearchHit;
use road_network::{EdgeId, NodeId, Weight};

/// Layout constants shared by the comparison engines' disk-size models.
pub mod layout {
    /// Node record header: id + coordinates.
    pub const NODE_BASE_BYTES: usize = 16;
    /// One adjacency entry: edge ref + weight + neighbour id.
    pub const ADJ_ENTRY_BYTES: usize = 8;
    /// One stored object: id + edge + offset + category + payload ref.
    pub const OBJECT_BYTES: usize = 32;
    /// One distance-signature entry: f32 distance + object ref + next hop.
    pub const SIG_ENTRY_BYTES: usize = 12;

    /// Page namespaces for the I/O tracker.
    pub const NS_NODES: u32 = 0;
    pub const NS_RTREE: u32 = 2;
}

/// Outcome of one query run through an engine.
#[derive(Clone, Debug)]
pub struct QueryCost {
    /// Answer objects in non-descending network distance.
    pub hits: Vec<SearchHit>,
    /// Page faults through a cold 50-page LRU buffer — the paper's I/O.
    /// Counted by the buffer pool for ROAD, by the `IoTracker` layout
    /// model for the three comparison engines.
    pub page_faults: u64,
    /// Network nodes whose records the query touched.
    pub nodes_visited: usize,
}

/// Cost of one maintenance operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateCost {
    /// Wall-clock seconds the engine spent applying the update.
    pub seconds: f64,
}

/// The uniform interface the experiment harness drives.
///
/// Engines take `&mut self` everywhere because they reuse search state and
/// the page buffer across queries. Queries on nodes outside the network
/// panic — harness inputs are constructed valid.
pub trait Engine {
    /// Label used in figures ("NetExp", "Euclidean", "DistIdx", "ROAD").
    fn name(&self) -> &'static str;

    /// k nearest neighbours of `node` under the engine's metric.
    fn knn(&mut self, node: NodeId, k: usize, filter: &ObjectFilter) -> QueryCost;

    /// All objects within `radius` of `node`.
    fn range(&mut self, node: NodeId, radius: Weight, filter: &ObjectFilter) -> QueryCost;

    /// Adds one object.
    fn insert_object(&mut self, object: Object) -> UpdateCost;

    /// Removes one object.
    fn remove_object(&mut self, id: ObjectId) -> UpdateCost;

    /// Changes an edge weight (the engine's metric).
    fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> UpdateCost;

    /// Current weight of an edge (for restore-style experiments).
    fn edge_weight(&self, e: EdgeId) -> Weight;

    /// On-disk index size in bytes (node pages + object pages + any
    /// index-specific structures): the page store's size for ROAD, the
    /// layout model's for the comparison engines.
    fn index_size_bytes(&self) -> usize;

    /// Wall-clock seconds spent building the index.
    fn build_seconds(&self) -> f64;
}

/// Helper: time a closure in seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
