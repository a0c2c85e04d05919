//! "Same expansion", pinned inside tier-1: one seeded generator world and
//! query mix, with golden values for a hash of every answer plus the eight
//! expansion counters summed over the mix (and the page traffic of the
//! paged engines), asserted for every engine that runs the search loop.
//!
//! The goldens were recorded on the commit *before* the Route Overlay was
//! laid out search-shaped (flattened shortcut trees, per-Rnet shortcut
//! arenas, one label record per node), so a layout change that moves what
//! is expanded, in which order, or how ties break fails here to the digit
//! — not only under roadbench's exact-count gate in CI.
//!
//! Two things were recorded later, by the change that made a query ask
//! each Rnet's abstract once (the per-Rnet verdict memo in
//! `SearchWorkspace`): the paged engines' `io` tuples, which that change
//! exists to move — eager (167676, 45869) → (116721, 37078), lazy
//! (168366, 47251) → (117411, 39861), hash and the eight counters beside
//! them untouched — and `lookups`, the counter it added. The in-place
//! B+-tree descent of the same change moved nothing here.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "concurrency tests race threads against one engine on purpose; nothing they return is committed in completion order"
)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::live::LiveEngine;
use road_core::paged::{PagedEngine, PagedOptions};
use road_core::prelude::*;
use road_core::search::AggregateKnnQuery;
use road_core::SearchStats;
use road_network::generator::Dataset;
use road_network::EdgeId;

const SEED: u64 = 0x5EA2_C4C0;
const OBJECTS: u64 = 30;
const RARE: CategoryId = CategoryId(3);

/// What one engine did over the whole mix.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over every answer: object ids and exact distance bits, in
    /// answer order, query after query.
    hits_hash: u64,
    /// `nodes_settled`, `edges_relaxed`, `shortcuts_taken`,
    /// `rnets_bypassed`, `rnets_descended`, `abstract_checks`,
    /// `objects_read`, `heap_pushes`, summed over the mix.
    counters: [usize; 8],
    /// `abstract_lookups` summed over the mix: of the `abstract_checks`
    /// verdicts consulted, those the source was asked for.
    lookups: usize,
    /// `(pages_read, page_faults)` summed over the mix; zero in memory.
    io: (usize, usize),
}

struct Tally {
    hash: u64,
    stats: SearchStats,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

impl Tally {
    fn word(&mut self, w: u64) {
        self.hash = fnv1a(self.hash, &w.to_le_bytes());
    }

    fn answer(&mut self, hits: &[SearchHit], stats: &SearchStats) {
        self.word(hits.len() as u64);
        for h in hits {
            self.word(h.object.0);
            self.word(h.distance.get().to_bits());
        }
        self.stats.absorb(stats);
    }

    fn golden(self) -> Golden {
        let s = self.stats;
        Golden {
            hits_hash: self.hash,
            counters: [
                s.nodes_settled,
                s.edges_relaxed,
                s.shortcuts_taken,
                s.rnets_bypassed,
                s.rnets_descended,
                s.abstract_checks,
                s.objects_read,
                s.heap_pushes,
            ],
            lookups: s.abstract_lookups,
            io: (s.pages_read, s.page_faults),
        }
    }
}

fn world() -> (RoadFramework, AssociationDirectory) {
    world_of(0.012, 4, 3, 0)
}

/// The golden world's kind at another size, built (and, for a framework
/// that is then updated, repaired) on `threads` workers, `0` the host's.
fn world_of(
    scale: f64,
    fanout: usize,
    levels: u32,
    threads: usize,
) -> (RoadFramework, AssociationDirectory) {
    let net = Dataset::SfStreets.generate_scaled(scale, SEED).unwrap();
    let builder = RoadFramework::builder(net).fanout(fanout).levels(levels);
    let fw = builder.shortcut_threads(threads).build().unwrap();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for i in 0..OBJECTS {
        let e = edges[rng.random_range(0..edges.len())];
        let category = if i % 6 == 0 { RARE } else { CategoryId((i % 3) as u16) };
        let o = Object::new(ObjectId(i), e, rng.random_range(0.0..=1.0), category);
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    (fw, ad)
}

enum Query {
    Knn(KnnQuery),
    Range(RangeQuery),
    /// Two-member aggregate kNN: the only public door to `ToNode` routing
    /// that also reports its counters (member-to-member distance).
    Group(AggregateKnnQuery),
}

/// k in {1, 5, 20}, category-filtered, bounded kNN, range, and `ToNode`.
fn query_mix(num_nodes: u32) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let mut out = Vec::new();
    for i in 0..96usize {
        let node = NodeId(rng.random_range(0..num_nodes));
        out.push(match i % 8 {
            0 => Query::Knn(KnnQuery::new(node, 1)),
            1 | 2 => Query::Knn(KnnQuery::new(node, 5)),
            3 => Query::Knn(KnnQuery::new(node, 20)),
            4 => Query::Knn(KnnQuery::new(node, 5).with_filter(ObjectFilter::Category(RARE))),
            5 => Query::Range(RangeQuery::new(node, Weight::new(rng.random_range(300.0..1500.0)))),
            6 => Query::Knn(
                KnnQuery::new(node, 5).within(Weight::new(rng.random_range(200.0..900.0))),
            ),
            _ => Query::Group(AggregateKnnQuery::new(
                vec![node, NodeId(rng.random_range(0..num_nodes))],
                2,
            )),
        });
    }
    out
}

/// How one engine answers: plain queries into caller-owned scratch, the
/// group query through its `_with_stats` door.
trait Serve {
    fn knn(&self, q: &KnnQuery, ws: &mut SearchWorkspace, hits: &mut Vec<SearchHit>)
        -> SearchStats;
    fn range(
        &self,
        q: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> SearchStats;
    fn group(&self, q: &AggregateKnnQuery) -> (Vec<SearchHit>, SearchStats);
    fn distance(&self, from: NodeId, to: NodeId) -> Option<Weight>;
}

impl Serve for (&RoadFramework, &AssociationDirectory) {
    fn knn(
        &self,
        q: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> SearchStats {
        self.0.knn_with(self.1, q, ws, hits).unwrap()
    }
    fn range(
        &self,
        q: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> SearchStats {
        self.0.range_with(self.1, q, ws, hits).unwrap()
    }
    fn group(&self, q: &AggregateKnnQuery) -> (Vec<SearchHit>, SearchStats) {
        self.0.aggregate_knn_with_stats(self.1, q).unwrap()
    }
    fn distance(&self, from: NodeId, to: NodeId) -> Option<Weight> {
        self.0.network_distance(from, to).unwrap()
    }
}

impl Serve for PagedEngine {
    fn knn(
        &self,
        q: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> SearchStats {
        self.knn_with(q, ws, hits).unwrap()
    }
    fn range(
        &self,
        q: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> SearchStats {
        self.range_with(q, ws, hits).unwrap()
    }
    fn group(&self, q: &AggregateKnnQuery) -> (Vec<SearchHit>, SearchStats) {
        self.aggregate_knn_with_stats(q).unwrap()
    }
    fn distance(&self, from: NodeId, to: NodeId) -> Option<Weight> {
        self.network_distance(from, to).unwrap()
    }
}

/// One query through `engine`, the plain ones on `ws`.
fn ask(engine: &impl Serve, q: &Query, ws: &mut SearchWorkspace) -> (Vec<SearchHit>, SearchStats) {
    let mut hits = Vec::new();
    let stats = match q {
        Query::Knn(q) => engine.knn(q, ws, &mut hits),
        Query::Range(q) => engine.range(q, ws, &mut hits),
        Query::Group(q) => return engine.group(q),
    };
    (hits, stats)
}

fn run(engine: &impl Serve, mix: &[Query]) -> Golden {
    let mut tally = Tally { hash: FNV_OFFSET, stats: SearchStats::default() };
    let mut ws = SearchWorkspace::new();
    for q in mix {
        let (hits, stats) = ask(engine, q, &mut ws);
        tally.answer(&hits, &stats);
    }
    tally.golden()
}

const MEMORY: Golden = Golden {
    hits_hash: 13634855155528178901,
    counters: [47572, 97993, 102403, 17421, 19833, 37254, 3151, 60904],
    lookups: 4646,
    io: (0, 0),
};

#[test]
fn query_engine_expands_exactly_as_recorded() {
    let (fw, ad) = world();
    let mix = query_mix(fw.network().num_nodes() as u32);
    let engine = QueryEngine::new(fw, ad);
    assert_eq!(run(&(engine.framework(), engine.directory()), &mix), MEMORY);
}

/// An update wave (reweights, a closure, object moves, an edge added and
/// one removed so borders are promoted and demoted) and a publish: the
/// snapshot is a copy-on-write fork whose hierarchy and refreshed Rnets
/// were rebuilt in place.
#[test]
fn live_snapshot_after_an_update_wave_expands_exactly_as_recorded() {
    let (fw, ad) = world();
    let num_nodes = fw.network().num_nodes() as u32;
    let mix = query_mix(num_nodes);
    let (live, mut writer) = LiveEngine::new(fw, ad);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
    let wave: Vec<(EdgeId, Weight)> = (0..24)
        .map(|_| {
            let e = edges[rng.random_range(0..edges.len())];
            let w = writer.framework().network().weight(e, WeightKind::Distance);
            (e, Weight::new(w.get() * rng.random_range(0.5..3.0)))
        })
        .collect();
    writer.set_edge_weights(&wave).unwrap();
    for _ in 0..8 {
        let id = ObjectId(rng.random_range(0..OBJECTS));
        let to = edges[rng.random_range(0..edges.len())];
        writer.move_object(id, to, rng.random_range(0.0..=1.0)).unwrap();
    }
    let mut added = 0;
    while added < 3 {
        let (a, b) =
            (NodeId(rng.random_range(0..num_nodes)), NodeId(rng.random_range(0..num_nodes)));
        if a != b && writer.framework().network().edge_between(a, b).is_none() {
            let w = Weight::new(rng.random_range(20.0..200.0));
            writer.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
            added += 1;
        }
    }
    let mut removed = 0;
    while removed < 3 {
        let e = edges[rng.random_range(0..edges.len())];
        if writer.remove_edge(e).is_ok() {
            removed += 1;
        }
    }
    writer.publish();
    let snap = live.snapshot();
    snap.framework().verify().unwrap();
    let golden = Golden {
        hits_hash: 9567276778457246924,
        counters: [53321, 111824, 103003, 19013, 24155, 43168, 3082, 67470],
        lookups: 5335,
        io: (0, 0),
    };
    assert_eq!(run(&(snap.framework(), snap.directory()), &mix), golden);
}

/// The paged engines run the same loop, so hash, counters and lookups are
/// the in-memory goldens; only the page traffic is theirs. One thread and
/// an LRU pool make that exact too.
#[test]
fn paged_engines_expand_exactly_as_recorded() {
    let (fw, ad) = world();
    let mix = query_mix(fw.network().num_nodes() as u32);
    let opts = PagedOptions::with_buffer_pages(8);

    let eager = PagedEngine::new(&fw, &ad, opts).unwrap();
    assert_eq!(run(&eager, &mix), Golden { io: (57148, 31613), ..MEMORY });

    let objects: Vec<Object> = ad.objects().cloned().collect();
    let image = PagedImage::open(fw.to_bytes()).unwrap();
    let lazy = PagedEngine::open(image, objects, opts).unwrap();
    assert_eq!(run(&lazy, &mix), Golden { io: (67446, 32626), ..MEMORY });
}

/// [`ask`], with the counters less what legitimately depends on history:
/// the reuse flag and, for a paged engine, how warm the pool was.
/// `pages_read` stays — a verdict leaking in from an earlier query would
/// save an abstract read.
fn answer(
    engine: &impl Serve,
    q: &Query,
    ws: &mut SearchWorkspace,
) -> (Vec<SearchHit>, SearchStats) {
    let (hits, mut stats) = ask(engine, q, ws);
    assert!(stats.abstract_lookups <= stats.abstract_checks, "{stats:?}");
    stats.workspace_reused = false;
    stats.page_faults = 0;
    (hits, stats)
}

/// The verdict memo is per-query state in a workspace that outlives the
/// query, so nothing one query learned may reach the next: one
/// `SearchWorkspace` (and, for the group queries and `network_distance`,
/// whose `ToNode` expansions make `must_enter` part of the verdict, this
/// thread's pooled ones) serves alternating filters, query kinds and two
/// engines with different Rnet counts, and every answer and counter equals
/// what a new thread with a new workspace gets for the same query.
#[test]
fn a_reused_workspace_answers_exactly_like_a_fresh_one() {
    let (fw, ad) = world();
    let (small_fw, small_ad) = world_of(0.004, 2, 3, 0);
    assert_ne!(fw.hierarchy().num_rnets(), small_fw.hierarchy().num_rnets());
    let memory = (&fw, &ad);
    let paged = PagedEngine::new(&small_fw, &small_ad, PagedOptions::with_buffer_pages(8)).unwrap();

    /// The query on `ws` and the distance on this thread's pooled
    /// workspace, against both from a thread that has served nothing.
    fn check(
        engine: &(impl Serve + Sync),
        q: &Query,
        (from, to): (NodeId, NodeId),
        ws: &mut SearchWorkspace,
        i: usize,
    ) {
        let fresh = std::thread::scope(|s| {
            s.spawn(|| (answer(engine, q, &mut SearchWorkspace::new()), engine.distance(from, to)))
                .join()
                .unwrap()
        });
        assert_eq!((answer(engine, q, ws), engine.distance(from, to)), fresh, "query #{i}");
    }

    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let mut ws = SearchWorkspace::new();
    let filters = [
        ObjectFilter::Category(RARE),
        ObjectFilter::Any,
        ObjectFilter::AnyOf(vec![CategoryId(1), RARE]),
    ];
    for i in 0..54usize {
        let num_nodes = if i % 2 == 0 { fw.network() } else { small_fw.network() }.num_nodes();
        let mut node = || NodeId(rng.random_range(0..num_nodes as u32));
        let filter = filters[i % 3].clone();
        let q = match (i / 3) % 3 {
            0 => Query::Knn(KnnQuery::new(node(), 5).with_filter(filter)),
            1 => Query::Range(RangeQuery::new(node(), Weight::new(800.0)).with_filter(filter)),
            _ => Query::Group(AggregateKnnQuery::new(vec![node(), node()], 2).with_filter(filter)),
        };
        let ends = (node(), node());
        if i % 2 == 0 {
            check(&memory, &q, ends, &mut ws, i);
        } else {
            check(&paged, &q, ends, &mut ws, i);
        }
    }
}

/// The layout change is in memory only: the image `to_bytes` writes for the
/// golden world is, byte for byte, the one the commit before it wrote (no
/// `persist` version bump; either side opens the other's images), and
/// after the live test's kind of history too.
#[test]
fn persisted_image_is_byte_identical_to_the_recorded_one() {
    let (mut fw, _) = world();
    let image = fw.to_bytes();
    assert_eq!((image.len(), fnv1a(FNV_OFFSET, &image)), (265946, 675403485886745177));
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    fw.set_edge_weights(&[(edges[7], Weight::new(333.0)), (edges[99], Weight::new(5.0))]).unwrap();
    let w = Weight::new(40.0);
    fw.add_edge(NodeId(3), NodeId(900), (w, w, Weight::ZERO)).unwrap();
    fw.remove_edge(edges[250], &[]).unwrap();
    let image = fw.to_bytes();
    assert_eq!((image.len(), fnv1a(FNV_OFFSET, &image)), (268015, 16397612003796771485));
    assert_eq!(RoadFramework::from_bytes(&image).unwrap().to_bytes(), image);
}

/// A `live_update`-shaped history (roadbench's writer: per tick 8 edges
/// reweighted to their *original* weight times U[0.5, 2), 4 objects moved,
/// one publish) of 300 ticks on a float-weight world one level deeper than
/// the golden one, then the shortcut store's `serialize_into` bytes — the
/// distances and waypoints every repaired Rnet was left with. Recorded on
/// the commit before the dense arm took its waypoints from the elimination
/// instead of one sealed Dijkstra per border: on float weights the
/// shortest border-free path of a kept pair is unique, so either way
/// stores the same path at the same bits. The writer repairs inline, on
/// two threads (what roadbench's `live_update` writer runs on a two-thread
/// host) and on four, and each leaves the recorded store.
#[test]
fn a_300_tick_update_history_leaves_the_recorded_store() {
    for threads in [1, 2, 4] {
        assert_eq!(
            three_hundred_ticks(threads),
            (6152, 4735, 446_740, 0x2895_319a_b433_6db2),
            "Rnets refreshed, Rnets changed, store bytes, FNV-1a-64 at {threads} threads"
        );
    }
}

/// The history above on a writer built and repairing on `threads` workers.
fn three_hundred_ticks(threads: usize) -> (usize, usize, usize, u64) {
    let (fw, ad) = world_of(0.03, 4, 4, threads);
    let (live, mut writer) = LiveEngine::new(fw, ad);
    let net = writer.framework().network();
    let edges: Vec<EdgeId> = net.edge_ids().collect();
    let base: Vec<Weight> = edges.iter().map(|&e| net.weight(e, WeightKind::Distance)).collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let (mut refreshed, mut changed) = (0, 0);
    for _ in 0..300 {
        let tick: Vec<(EdgeId, Weight)> = (0..8)
            .map(|_| {
                let i = rng.random_range(0..edges.len());
                (edges[i], Weight::new(base[i].get() * rng.random_range(0.5..2.0)))
            })
            .collect();
        let outcome = writer.set_edge_weights(&tick).unwrap();
        refreshed += outcome.rnets_refreshed;
        changed += outcome.rnets_changed;
        for _ in 0..4 {
            let id = ObjectId(rng.random_range(0..OBJECTS));
            let to = edges[rng.random_range(0..edges.len())];
            writer.move_object(id, to, rng.random_range(0.0..1.0)).unwrap();
        }
        writer.publish();
    }
    let snap = live.snapshot();
    let mut store = Vec::new();
    snap.framework().shortcuts().serialize_into(snap.framework().hierarchy(), &mut store);
    (refreshed, changed, store.len(), fnv1a(FNV_OFFSET, &store))
}

/// `(image bytes, shortcuts, FNV-1a-64 of the image)` of a default build of
/// a roadbench world (`benchmark/src/world.rs`: network seed `0xEDB72009`,
/// fanout 4, 6 levels) on `threads` workers.
fn roadbench_build(dataset: Dataset, scale: f64, threads: usize) -> (usize, usize, u64) {
    let net = dataset.generate_scaled(scale, 0xEDB7_2009).unwrap();
    assert_eq!(dataset.suggested_levels(net.num_edges(), 4), 6);
    let fw =
        RoadFramework::builder(net).fanout(4).levels(6).shortcut_threads(threads).build().unwrap();
    let image = fw.to_bytes();
    (image.len(), fw.shortcuts().num_shortcuts(), fnv1a(FNV_OFFSET, &image))
}

/// The whole build path at release scale: the images of the two roadbench
/// worlds, recorded on the hash-map Kernighan–Lin partitioner — before the
/// flat-array rewrite and the threaded binary rounds — and unchanged by
/// them. `crates/network/tests/partition_golden.rs` holds the partitioner
/// to 259 small edge sets inside tier-1; this holds the ~4,000 bisections
/// of a real build, and what the shortcut builder and `persist` make of
/// them, on the worlds `benchmark/baseline.json` counts. Half a minute
/// unoptimised, so `#[ignore]`d: CI's stress step runs it.
#[test]
#[ignore = "release-scale build pins (roadbench worlds B and W); run via --include-ignored"]
fn roadbench_worlds_build_the_recorded_images() {
    let b = (8_475_348, 240_152, 0xd9bb_0214_263f_7938);
    assert_eq!(roadbench_build(Dataset::SfStreets, 0.25, 0), b);
    assert_eq!(roadbench_build(Dataset::SfStreets, 0.25, 1), b);
    let w = (12_657_143, 250_868, 0x607f_49cb_68fe_6703);
    assert_eq!(roadbench_build(Dataset::Continent, 0.1, 0), w);
    assert_eq!(roadbench_build(Dataset::Continent, 0.1, 3), w);
}
