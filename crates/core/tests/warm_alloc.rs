//! A warm serving loop allocates nothing, a warm repair a pinned number of
//! times per Rnet, and a build-side kernel no more on a larger network.
//!
//! `knn_with` / `range_with` promise zero per-query allocations once the
//! caller's workspace and hit buffer have grown to the network, and so does
//! point-to-point routing on its pooled workspace. This binary installs a
//! counting global allocator and checks the promise on a `QueryEngine`, on
//! a `LiveEngine` snapshot and on a `PagedEngine` whose pool holds its
//! whole image: a query mix runs once to warm the scratch (and the pool,
//! and a lazy engine's page-ins), then again, and the second pass must make
//! no allocation at all. The same counter pins a warm writer tick's
//! allocations per refreshed Rnet, holds the partitioner's and the
//! contractor's kernels to as many allocations on a large grid as on a
//! small one, and holds the hierarchy's border derivation to allocations
//! per Rnet, not per node. Only the measuring thread counts, so the test
//! harness's other threads cannot disturb the figure — and a repair runs
//! at `shortcut_threads(1)`, on that thread.
//!
//! These counts are what keep the hot loops allocation-free: the search
//! loop, the paged record readers and the B+-tree lookup (the warm
//! queries), the min-plus kernels and the repair's keep rule and unpacking
//! (the tick), the KL refinement and the contraction with its witness
//! searches (the kernels).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::{HierarchyConfig, RnetHierarchy, RoadError, SearchStats};
use road_network::contractor::{ContractionOrder, Contractor};
use road_network::csr::{CsrBuilder, CsrGraph};
use road_network::generator::simple;
use road_network::partition::bisect;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on threads that opted in, then defers to the
/// system allocator.
struct Counting;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    if let Ok(true) = MEASURING.try_with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.with(Cell::get)
}

enum Query {
    Knn(KnnQuery),
    Range(RangeQuery),
    Route(NodeId, NodeId),
}

/// An 18x18 grid with 60 objects in three categories, and a mix of kNN
/// (k = 1, 5, 20), category-filtered kNN, range and routing queries.
fn world() -> (RoadFramework, AssociationDirectory, Vec<Query>) {
    let g = simple::grid(18, 18, 1.0);
    let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let edges: Vec<_> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(2718);
    for i in 0..60u64 {
        let e = edges[rng.random_range(0..edges.len())];
        let o = Object::new(
            ObjectId(i),
            e,
            rng.random_range(0.0..=1.0),
            CategoryId(rng.random_range(0..3)),
        );
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    let nodes = fw.network().num_nodes() as u32;
    let mut queries = Vec::new();
    for q in 0..60u16 {
        let node = NodeId(rng.random_range(0..nodes));
        queries.push(match q % 6 {
            0 => Query::Knn(KnnQuery::new(node, 1)),
            1 => Query::Knn(KnnQuery::new(node, 5)),
            2 => Query::Knn(KnnQuery::new(node, 20)),
            3 => Query::Knn(
                KnnQuery::new(node, 5).with_filter(ObjectFilter::Category(CategoryId(q % 3))),
            ),
            4 => Query::Range(RangeQuery::new(node, Weight::new(4.0))),
            _ => Query::Route(node, NodeId(rng.random_range(0..nodes))),
        });
    }
    (fw, ad, queries)
}

/// The allocation-free doors an engine serves the mix through: the `_with`
/// doors, and routing on the pooled workspace.
trait Doors {
    fn network_distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError>;
    fn knn_with(
        &self,
        q: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError>;
    fn range_with(
        &self,
        q: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError>;
}

impl Doors for QueryEngine {
    fn network_distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
        QueryEngine::network_distance(self, from, to)
    }
    fn knn_with(
        &self,
        q: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        QueryEngine::knn_with(self, q, ws, hits)
    }
    fn range_with(
        &self,
        q: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        QueryEngine::range_with(self, q, ws, hits)
    }
}

impl Doors for PagedEngine {
    fn network_distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
        PagedEngine::network_distance(self, from, to)
    }
    fn knn_with(
        &self,
        q: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        PagedEngine::knn_with(self, q, ws, hits)
    }
    fn range_with(
        &self,
        q: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        PagedEngine::range_with(self, q, ws, hits)
    }
}

/// Runs the mix twice through the `_with` doors of `engine` and returns
/// the second pass's allocation count.
fn warm_allocations(engine: &impl Doors, queries: &[Query]) -> u64 {
    let mut ws = SearchWorkspace::new();
    let mut hits = Vec::new();
    let pass = |ws: &mut SearchWorkspace, hits: &mut Vec<SearchHit>| {
        for q in queries {
            let stats = match q {
                Query::Knn(q) => engine.knn_with(q, ws, hits),
                Query::Range(q) => engine.range_with(q, ws, hits),
                Query::Route(from, to) => {
                    assert!(engine.network_distance(*from, *to).unwrap().is_some());
                    continue;
                }
            };
            assert!(stats.unwrap().nodes_settled > 0);
        }
    };
    pass(&mut ws, &mut hits);
    allocations_in(|| pass(&mut ws, &mut hits))
}

#[test]
fn a_warm_query_engine_allocates_nothing() {
    let (fw, ad, queries) = world();
    let engine = QueryEngine::new(fw, ad);
    assert_eq!(warm_allocations(&engine, &queries), 0);
}

#[test]
fn a_warm_snapshot_allocates_nothing() {
    let (fw, ad, queries) = world();
    let e = fw.network().edge_ids().next().unwrap();
    let (live, mut writer) = LiveEngine::new(fw, ad);
    // A published update: the snapshot shares all but the repaired Rnets
    // with its predecessor.
    writer.set_edge_weight(e, Weight::new(3.0)).unwrap();
    writer.publish();
    let snapshot = live.snapshot();
    assert_eq!(snapshot.version(), 1);
    let engine: &QueryEngine = &snapshot;
    assert_eq!(warm_allocations(engine, &queries), 0);
}

/// Pool hits only: one stripe as large as the image, so the first pass
/// caches every page it reads and the second faults none. An eager engine
/// and a lazily opened one — whose first pass also paged its Rnets in.
#[test]
fn a_warm_pool_hit_paged_engine_allocates_nothing() {
    let (fw, ad, queries) = world();
    let eager_pages = PagedEngine::new(&fw, &ad, PagedOptions::default()).unwrap().num_disk_pages();
    // Room for the lazy engine's appended shortcut records besides.
    let whole = PagedOptions::with_buffer_pages(2 * eager_pages).with_stripes(1);
    let eager = PagedEngine::new(&fw, &ad, whole).unwrap();
    let objects: Vec<Object> = ad.objects().cloned().collect();
    let image = PagedImage::open(fw.to_bytes()).unwrap();
    let lazy = PagedEngine::open(image, objects, whole).unwrap();
    for (disk, name) in [(&eager, "eager"), (&lazy, "lazy")] {
        assert_eq!(warm_allocations(disk, &queries), 0, "{name}");
        assert!(disk.num_disk_pages() <= disk.buffer_capacity(), "{name}: the pool holds it all");
        // Two more warm passes, counted: pool hits, every one.
        disk.reset_io_stats();
        assert_eq!(warm_allocations(disk, &queries), 0, "{name}, again");
        let io = disk.buffer_stats();
        assert!(io.logical_reads > 0 && io.page_faults == 0, "{name}: {io:?}");
    }
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations_in(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(8))));
    assert_eq!(n, 1);
}

/// Deriving a hierarchy's borders allocates per Rnet, not per node: the
/// per-node derivation runs over buffers the caller grows once, and each
/// leaf's edge list and each Rnet's border list is allocated once, at its
/// final size. Restoring a hierarchy from its leaf assignment (every image
/// open does) and validating it, on a grid of 9,216 nodes and 340 Rnets: a
/// list per node would be thousands of allocations.
#[test]
fn border_derivation_allocates_per_rnet_not_per_node() {
    let g = simple::grid(96, 96, 1.0);
    let cfg = HierarchyConfig { fanout: 4, levels: 4, ..Default::default() };
    let built = RnetHierarchy::build(&g, &cfg).unwrap();
    let leaf = |e| built.leaf_index_of_edge(e).unwrap();
    let mut restored = None;
    let opened = allocations_in(|| {
        restored = Some(RnetHierarchy::from_leaf_assignment(&g, 4, 4, leaf).unwrap());
    });
    let restored = restored.unwrap();
    let validated = allocations_in(|| restored.validate(&g).unwrap());
    let rnets = restored.num_rnets() as u64;
    assert_eq!((g.num_nodes(), rnets), (9_216, 340));
    // A border list per Rnet, an edge list per leaf, a few growing arenas.
    assert!(opened <= 2 * rnets + 64, "{opened} allocations restoring {rnets} Rnets");
    // A handful of buffers, however many nodes and Rnets are checked.
    assert!(validated <= 64, "{validated} allocations validating {rnets} Rnets");
}

/// A warm writer tick allocates at most a pinned number of times per Rnet
/// it refreshes: the new shortcut tables, the copied-on-write chunks and
/// the published snapshot, never anything per border pair, per matrix row
/// or per node. Ten ticks of eight reweights and a publish warm the
/// writer's scratch; twenty more are counted, on the measuring thread
/// (`shortcut_threads(1)`).
#[test]
fn a_warm_tick_allocates_a_pinned_number_of_times_per_refreshed_rnet() {
    let g = simple::grid(18, 18, 1.0);
    let fw = RoadFramework::builder(g).fanout(4).levels(2).shortcut_threads(1).build().unwrap();
    let ad = AssociationDirectory::new(fw.hierarchy());
    let edges: Vec<_> = fw.network().edge_ids().collect();
    let (_live, mut writer) = LiveEngine::new(fw, ad);
    let mut rng = StdRng::seed_from_u64(31);
    let mut tick = || {
        let updates: Vec<_> = (0..8)
            .map(|_| {
                let e = edges[rng.random_range(0..edges.len())];
                (e, Weight::new(rng.random_range(0.5..2.0)))
            })
            .collect();
        let mut refreshed = 0;
        let allocations = allocations_in(|| {
            refreshed = writer.set_edge_weights(&updates).unwrap().rnets_refreshed;
            writer.publish();
        });
        (allocations, refreshed as u64)
    };
    for _ in 0..10 {
        tick();
    }
    let (allocations, refreshed) =
        (0..20).map(|_| tick()).fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
    println!("{allocations} allocations over {refreshed} refreshed Rnets");
    assert!(refreshed >= 20, "{refreshed} Rnets refreshed in 20 ticks");
    assert!(
        allocations as f64 <= ALLOCATIONS_PER_RNET * refreshed as f64,
        "{allocations} allocations over {refreshed} refreshed Rnets"
    );
}

/// The most a warm tick may allocate per refreshed Rnet: 1,478 allocations
/// over 193 refreshed Rnets (7.66 each) when this was pinned, so one more
/// allocation per Rnet fails.
const ALLOCATIONS_PER_RNET: f64 = 7.7;

/// A `side x side` grid's edges.
fn grid_edges(side: usize) -> (road_network::RoadNetwork, Vec<road_network::EdgeId>) {
    let g = simple::grid(side, side, 1.0);
    let edges = g.edge_ids().collect();
    (g, edges)
}

/// A bisection allocates its buffers and the KL refinement's hash tables,
/// each sized once or grown by doubling: on a grid with 16 times the edges,
/// no more than a few growth steps more. Anything per tentative move, per
/// candidate or per edge would be hundreds more.
#[test]
fn a_bisection_allocates_no_more_on_a_larger_network() {
    let count = |side| {
        let (g, edges) = grid_edges(side);
        allocations_in(|| drop(bisect(&g, &edges)))
    };
    let (small, large) = (count(16), count(64));
    println!("bisection: {small} allocations at 16x16, {large} at 64x64");
    assert!(large <= small + 16, "{small} allocations at 16x16, {large} at 64x64");
}

/// A `side x side` grid as a symmetric local graph, its first row sealed.
fn grid_csr(side: u32) -> CsrGraph {
    let mut b = CsrBuilder::default();
    for y in 0..side {
        for x in 0..side {
            let n = y * side + x;
            let right = (x + 1 < side).then_some(n + 1);
            for m in right.into_iter().chain((y + 1 < side).then_some(n + side)) {
                let w = Weight::new(1.0 + ((n * 7 + m) % 5) as f64 / 8.0);
                b.push(n, m, w, 0);
                b.push(m, n, w, 0);
            }
        }
    }
    let mut g = CsrGraph::default();
    b.finish_into((side * side) as usize, &mut g);
    g
}

/// A warm contractor — its overlay lists, bucket queue and witness-search
/// scratch grown by a first run — contracts the same graph again without
/// allocating, at 256 nodes as at 4,096: nothing per contracted node, per
/// neighbour pair or per witness search.
#[test]
fn a_warm_contraction_allocates_nothing_at_any_size() {
    for side in [16u32, 64] {
        let g = grid_csr(side);
        let (mut contractor, mut out) = (Contractor::default(), CsrBuilder::default());
        let mut run = || {
            out.clear();
            contractor.contract(&g, side, ContractionOrder::MinDegree, 64, &mut out);
        };
        run();
        assert_eq!(allocations_in(run), 0, "{side}x{side}");
        assert!(!out.is_empty());
    }
}
