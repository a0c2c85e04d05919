//! Cross-engine history harness: seeded random histories of live updates,
//! replayed against every engine and held to plain Dijkstra after every
//! publish.
//!
//! The world is a unit grid whose weights stay dyadic (0, ½, 1, 2, 4 and
//! +∞ for a closed edge), so every path sum is exact and the grid's many
//! equal-length routes force ties at the k-th place that only the
//! canonical (distance, id) order resolves the same way everywhere. A
//! history mixes weight waves (zero, closed and restored weights), edge
//! additions and removals, object inserts, moves and removals, and
//! publishes. After every publish, kNN (filtered and unfiltered), range,
//! `network_distance` and aggregate kNN (`Sum` and `Max`, two or three
//! members) must agree bit for bit across
//!
//! - the fresh snapshot and plain Dijkstra on its state;
//! - every snapshot held so far, against the answers recorded when it was
//!   published (all but the aggregates, which re-run member expansions the
//!   other asks already cover);
//! - a `QueryEngine` over the writer's state;
//! - every few publishes, a `QueryEngine` over `RoadFramework::from_bytes`
//!   of the snapshot's `to_bytes()` (which must write those bytes again),
//!   and a lazily opened `PagedEngine` over the same image on a 4-page
//!   pool, asked everything twice with `clear_cache()` between the rounds.
//!
//! Every engine answers each kNN and range ask through its pooled door and
//! through its `_with` door on one reused `SearchWorkspace`, and the
//! publish's asks once more through `batch_knn` / `batch_range` on two
//! threads, in query order. Cases with an odd seed build the writer with
//! `shortcut_threads(2)` and replay every operation on a second writer at
//! `shortcut_threads(1)`: each operation's outcome, and the snapshot's
//! `to_bytes()` every few publishes, must be the same on both.
//!
//! `AssociationDirectory::validate` runs after every step. The vendored
//! proptest does not shrink, so a failing case prints its seed and the
//! history up to the failure; `HISTORY_SEED=<seed>` replays that one case.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::Strategy;
use proptest::test_runner::case_rng;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::search::{oracle_knn, oracle_range, Aggregate, AggregateKnnQuery};
use road_core::{RoadError, SearchResult, SearchStats};
use road_network::dijkstra::shortest_path_weight;
use road_network::generator::simple;
use road_network::EdgeId;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Side of the grid world.
const SIDE: usize = 10;
/// Objects placed before the history starts.
const OBJECTS: u64 = 24;
/// Object categories, for the filtered queries.
const CATEGORIES: u16 = 3;
/// What a wave sets an edge to; restoring the built weight is drawn apart.
const WAVE_WEIGHTS: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, f64::INFINITY];
/// Every how many publishes a paged engine is opened over the image.
const PAGED_EVERY: usize = 3;

/// One question put to every engine.
#[derive(Clone, Debug)]
enum Ask {
    Knn(KnnQuery),
    Range(RangeQuery),
    Distance(NodeId, NodeId),
    Group(AggregateKnnQuery),
}

/// An engine's answer to an [`Ask`], compared bit for bit.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Hits(Vec<SearchHit>),
    Distance(Option<Weight>),
}

/// The entry points the engines share.
trait Serve {
    fn knn(&self, q: &KnnQuery) -> Result<SearchResult, RoadError>;
    fn range(&self, q: &RangeQuery) -> Result<SearchResult, RoadError>;
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
    fn batch_knn(&self, qs: &[KnnQuery], threads: usize) -> Result<Vec<Vec<SearchHit>>, RoadError>;
    fn batch_range(
        &self,
        qs: &[RangeQuery],
        threads: usize,
    ) -> Result<Vec<Vec<SearchHit>>, RoadError>;
    fn group(&self, q: &AggregateKnnQuery) -> Result<Vec<SearchHit>, RoadError>;
    fn distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError>;

    /// The answer through the pooled doors.
    fn answer(&self, ask: &Ask) -> Answer {
        match ask {
            Ask::Knn(q) => Answer::Hits(self.knn(q).unwrap().hits),
            Ask::Range(q) => Answer::Hits(self.range(q).unwrap().hits),
            Ask::Distance(a, b) => Answer::Distance(self.distance(*a, *b).unwrap()),
            Ask::Group(q) => Answer::Hits(self.group(q).unwrap()),
        }
    }

    /// A kNN or range answer through the `_with` door on `ws`.
    fn answer_with(&self, ask: &Ask, ws: &mut SearchWorkspace) -> Option<Answer> {
        let mut hits = Vec::new();
        match ask {
            Ask::Knn(q) => self.knn_with(q, ws, &mut hits).unwrap(),
            Ask::Range(q) => self.range_with(q, ws, &mut hits).unwrap(),
            _ => return None,
        };
        Some(Answer::Hits(hits))
    }

    /// The kNN and range asks among `asks` through the batch doors on two
    /// threads, each batch in query order, paired with the ask's index.
    fn batch_answers(&self, asks: &[Ask]) -> Vec<(usize, Answer)> {
        let (mut knn, mut knn_at, mut range, mut range_at) = (vec![], vec![], vec![], vec![]);
        for (i, ask) in asks.iter().enumerate() {
            match ask {
                Ask::Knn(q) => (knn.push(q.clone()), knn_at.push(i)),
                Ask::Range(q) => (range.push(q.clone()), range_at.push(i)),
                _ => continue,
            };
        }
        let knn = self.batch_knn(&knn, 2).unwrap();
        let range = self.batch_range(&range, 2).unwrap();
        assert_eq!((knn.len(), range.len()), (knn_at.len(), range_at.len()));
        knn_at
            .into_iter()
            .chain(range_at)
            .zip(knn.into_iter().chain(range).map(Answer::Hits))
            .collect()
    }
}

/// `QueryEngine` and `PagedEngine` name and shape their doors alike.
macro_rules! serve {
    ($($engine:ty),*) => {$(
        impl Serve for $engine {
            fn knn(&self, q: &KnnQuery) -> Result<SearchResult, RoadError> {
                <$engine>::knn(self, q)
            }
            fn range(&self, q: &RangeQuery) -> Result<SearchResult, RoadError> {
                <$engine>::range(self, q)
            }
            fn knn_with(
                &self,
                q: &KnnQuery,
                ws: &mut SearchWorkspace,
                hits: &mut Vec<SearchHit>,
            ) -> Result<SearchStats, RoadError> {
                <$engine>::knn_with(self, q, ws, hits)
            }
            fn range_with(
                &self,
                q: &RangeQuery,
                ws: &mut SearchWorkspace,
                hits: &mut Vec<SearchHit>,
            ) -> Result<SearchStats, RoadError> {
                <$engine>::range_with(self, q, ws, hits)
            }
            fn batch_knn(
                &self,
                qs: &[KnnQuery],
                threads: usize,
            ) -> Result<Vec<Vec<SearchHit>>, RoadError> {
                <$engine>::batch_knn(self, qs, threads)
            }
            fn batch_range(
                &self,
                qs: &[RangeQuery],
                threads: usize,
            ) -> Result<Vec<Vec<SearchHit>>, RoadError> {
                <$engine>::batch_range(self, qs, threads)
            }
            fn group(&self, q: &AggregateKnnQuery) -> Result<Vec<SearchHit>, RoadError> {
                self.aggregate_knn(q)
            }
            fn distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
                self.network_distance(from, to)
            }
        }
    )*};
}

serve!(QueryEngine, PagedEngine);

/// Plain Dijkstra's answer on a framework and directory.
fn oracle(fw: &RoadFramework, ad: &AssociationDirectory, ask: &Ask) -> Answer {
    match ask {
        Ask::Knn(q) => Answer::Hits(oracle_knn(fw, ad, q)),
        Ask::Range(q) => Answer::Hits(oracle_range(fw, ad, q)),
        Ask::Distance(a, b) => {
            Answer::Distance(shortest_path_weight(fw.network(), fw.metric(), *a, *b))
        }
        Ask::Group(q) => Answer::Hits(oracle_group(fw, ad, q)),
    }
}

/// Each member's plain-Dijkstra distance to every object, combined in
/// member order; an object some member cannot reach has no aggregate.
fn oracle_group(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    q: &AggregateKnnQuery,
) -> Vec<SearchHit> {
    let mut combined: Option<HashMap<ObjectId, Weight>> = None;
    for &member in &q.nodes {
        let reach = RangeQuery::new(member, Weight::INFINITY).with_filter(q.filter.clone());
        let d: HashMap<ObjectId, Weight> =
            oracle_range(fw, ad, &reach).into_iter().map(|h| (h.object, h.distance)).collect();
        combined = Some(match combined {
            None => d.into_iter().map(|(o, d)| (o, q.aggregate.combine(Weight::ZERO, d))).collect(),
            Some(acc) => acc
                .into_iter()
                .filter_map(|(o, a)| Some((o, q.aggregate.combine(a, *d.get(&o)?))))
                .collect(),
        });
    }
    let mut hits: Vec<SearchHit> = combined
        .unwrap_or_default()
        .into_iter()
        .map(|(object, distance)| SearchHit { object, distance })
        .collect();
    hits.sort_by(|a, b| a.distance.cmp(&b.distance).then(a.object.cmp(&b.object)));
    hits.truncate(q.k);
    hits
}

/// A published snapshot with the questions asked of it then and the
/// answers it gave.
struct Held {
    snapshot: Arc<Snapshot>,
    asks: Vec<Ask>,
    answers: Vec<Answer>,
}

/// One seeded history in progress.
struct History<'a> {
    rng: StdRng,
    /// Every operation applied so far, for the failure report.
    log: &'a mut Vec<String>,
    live: LiveEngine,
    writer: UpdateHandle,
    /// In a case whose writer builds and repairs on two threads, a writer
    /// on one thread that every operation is replayed on.
    twin: Option<UpdateHandle>,
    /// One workspace every `_with` door reuses.
    ws: SearchWorkspace,
    /// The weight each grid edge was built with, for restoring waves.
    built: Vec<Weight>,
    held: Vec<Held>,
    next_object: u64,
    /// kNN answers with an exact tie at the k-th place.
    ties: usize,
}

impl<'a> History<'a> {
    /// A grid with a quarter of its edges reweighted (zeros included)
    /// before the build, and [`OBJECTS`] objects on it. An odd seed builds
    /// the writer on two threads, beside a twin on one.
    fn new(seed: u64, log: &'a mut Vec<String>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = simple::grid(SIDE, SIDE, 1.0);
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        for _ in 0..edges.len() / 4 {
            let e = edges[rng.random_range(0..edges.len())];
            let w = [0.0, 0.5, 2.0, 4.0][rng.random_range(0..4)];
            g.set_weight(e, WeightKind::Distance, Weight::new(w)).unwrap();
        }
        let built = edges.iter().map(|&e| g.weight(e, WeightKind::Distance)).collect();
        let build = |g, threads| {
            RoadFramework::builder(g).fanout(4).levels(2).shortcut_threads(threads).build().unwrap()
        };
        let threads = 1 + (seed % 2) as usize;
        let fw = build(g.clone(), threads);
        let mut ad = AssociationDirectory::new(fw.hierarchy());
        for i in 0..OBJECTS {
            let o = random_object(&mut rng, ObjectId(i), &edges);
            ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
        }
        let twin = (threads > 1).then(|| LiveEngine::new(build(g, 1), ad.clone()).1);
        let (live, writer) = LiveEngine::new(fw, ad);
        History {
            rng,
            log,
            live,
            writer,
            twin,
            ws: SearchWorkspace::new(),
            built,
            held: Vec::new(),
            next_object: OBJECTS,
            ties: 0,
        }
    }

    /// Applies one operation to the writer and to its twin, which must
    /// report the same outcome.
    fn apply<T: PartialEq + std::fmt::Debug>(
        &mut self,
        op: impl Fn(&mut UpdateHandle) -> Result<T, RoadError>,
    ) {
        let outcome = op(&mut self.writer).unwrap();
        if let Some(twin) = &mut self.twin {
            assert_eq!(op(twin).unwrap(), outcome, "one and two threads differ");
        }
    }

    /// Applies `steps` random operations, checking after each.
    fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            match self.rng.random_range(0..20) {
                0..=5 => self.wave(),
                6 => self.add_edge(),
                7 => self.remove_edge(),
                8..=9 => self.insert_object(),
                10..=12 => self.move_object(),
                13 => self.remove_object(),
                _ => self.publish(),
            }
            let fw = self.writer.framework();
            self.writer.directory().validate(fw.network(), fw.hierarchy()).unwrap();
        }
        self.publish();
    }

    fn live_edges(&self) -> Vec<EdgeId> {
        self.writer.framework().network().edge_ids().collect()
    }

    /// Reweights one to six edges: a dyadic weight, a closure, or back to
    /// the weight the edge was built with.
    fn wave(&mut self) {
        let edges = self.live_edges();
        let wave: Vec<(EdgeId, Weight)> = (0..self.rng.random_range(1..=6))
            .map(|_| {
                let e = edges[self.rng.random_range(0..edges.len())];
                let restore = self.rng.random_range(0..4) == 0;
                let w = match self.built.get(e.index()) {
                    Some(&built) if restore => built,
                    _ => Weight::new(WAVE_WEIGHTS[self.rng.random_range(0..WAVE_WEIGHTS.len())]),
                };
                (e, w)
            })
            .collect();
        self.log.push(format!("set_edge_weights {wave:?}"));
        self.apply(|w| w.set_edge_weights(&wave));
    }

    /// Adds a diagonal across one grid cell.
    fn add_edge(&mut self) {
        let (x, y) = (self.rng.random_range(0..SIDE - 1), self.rng.random_range(0..SIDE - 1));
        let (a, b) = (NodeId((y * SIDE + x) as u32), NodeId(((y + 1) * SIDE + x + 1) as u32));
        if self.writer.framework().network().edge_between(a, b).is_some() {
            return;
        }
        let w = Weight::new([0.0, 0.5, 1.0, 2.0][self.rng.random_range(0..4)]);
        self.log.push(format!("add_edge {a} {b} {w}"));
        self.apply(|writer| writer.add_edge(a, b, (w, w, Weight::ZERO)));
    }

    /// Removes an edge no object sits on.
    fn remove_edge(&mut self) {
        let edges = self.live_edges();
        let e = edges[self.rng.random_range(0..edges.len())];
        if self.writer.directory().objects_on_edge(e).next().is_some() {
            return;
        }
        self.log.push(format!("remove_edge {e}"));
        self.apply(|w| w.remove_edge(e));
    }

    fn insert_object(&mut self) {
        let edges = self.live_edges();
        let o = random_object(&mut self.rng, ObjectId(self.next_object), &edges);
        self.next_object += 1;
        self.log.push(format!("insert_object {o:?}"));
        self.apply(|w| w.insert_object(o.clone()));
    }

    fn random_id(&mut self) -> Option<ObjectId> {
        let ids: Vec<ObjectId> = self.writer.directory().objects().map(|o| o.id).collect();
        (!ids.is_empty()).then(|| ids[self.rng.random_range(0..ids.len())])
    }

    fn move_object(&mut self) {
        let Some(id) = self.random_id() else { return };
        let edges = self.live_edges();
        let e = edges[self.rng.random_range(0..edges.len())];
        let fraction = [0.0, 0.25, 0.5, 0.75, 1.0][self.rng.random_range(0..5)];
        self.log.push(format!("move_object {id:?} {e} {fraction}"));
        self.apply(|w| w.move_object(id, e, fraction));
    }

    fn remove_object(&mut self) {
        let Some(id) = self.random_id() else { return };
        self.log.push(format!("remove_object {id:?}"));
        self.apply(|w| w.remove_object(id));
    }

    /// A dozen questions about `fw`'s world — kNN with and without a
    /// category filter (one in six asking for more than there is), range
    /// with and without one, and node-to-node distances — and two
    /// aggregate kNNs, one `Sum` and one `Max`.
    fn draw_asks(&mut self, fw: &RoadFramework) -> Vec<Ask> {
        let num_nodes = fw.network().num_nodes() as u32;
        let mut asks = Vec::new();
        for i in 0..12 {
            let node = NodeId(self.rng.random_range(0..num_nodes));
            let filter = ObjectFilter::Category(CategoryId(self.rng.random_range(0..CATEGORIES)));
            let filtered = self.rng.random_range(0..3) == 0;
            asks.push(match i % 3 {
                0 => {
                    let k = if self.rng.random_range(0..6) == 0 {
                        100
                    } else {
                        self.rng.random_range(1..6)
                    };
                    let q = KnnQuery::new(node, k);
                    Ask::Knn(if filtered { q.with_filter(filter) } else { q })
                }
                1 => {
                    let radius = Weight::new(f64::from(self.rng.random_range(0..12u32)) * 0.5);
                    let q = RangeQuery::new(node, radius);
                    Ask::Range(if filtered { q.with_filter(filter) } else { q })
                }
                _ => Ask::Distance(node, NodeId(self.rng.random_range(0..num_nodes))),
            });
        }
        for aggregate in [Aggregate::Sum, Aggregate::Max] {
            let members = self.rng.random_range(2..=3);
            let nodes = (0..members).map(|_| NodeId(self.rng.random_range(0..num_nodes))).collect();
            let q = AggregateKnnQuery::new(nodes, self.rng.random_range(1..6));
            let filter = ObjectFilter::Category(CategoryId(self.rng.random_range(0..CATEGORIES)));
            let q = if self.rng.random_range(0..3) == 0 { q.with_filter(filter) } else { q };
            asks.push(Ask::Group(q.with_aggregate(aggregate)));
        }
        asks
    }

    /// Publishes, then holds every engine to Dijkstra and every held
    /// snapshot to what it answered when it was published.
    fn publish(&mut self) {
        let version = self.writer.publish();
        self.log.push(format!("publish -> v{version}"));
        let snap = self.live.snapshot();
        let (fw, ad) = (snap.framework(), snap.directory());
        let asks = self.draw_asks(fw);
        let want: Vec<Answer> = asks.iter().map(|a| oracle(fw, ad, a)).collect();
        self.ties += asks.iter().filter(|a| tied_at_k(fw, ad, a)).count();
        let writer =
            QueryEngine::new(self.writer.framework().clone(), self.writer.directory().clone());
        let mut engines: Vec<(&str, Box<dyn Serve>)> = vec![
            ("fresh snapshot", Box::new((**snap).clone())),
            ("writer's state", Box::new(writer)),
        ];
        let mut paged = None;
        if self.held.len().is_multiple_of(PAGED_EVERY) {
            let bytes = fw.to_bytes();
            if let Some(twin) = &self.twin {
                let on_one = twin.framework().to_bytes();
                assert!(on_one == bytes, "v{version}: one and two threads store other bytes");
            }
            let reopened = RoadFramework::from_bytes(&bytes).unwrap();
            assert!(
                reopened.to_bytes() == bytes,
                "v{version}: a reopened image writes other bytes"
            );
            engines.push(("eager reopen", Box::new(QueryEngine::new(reopened, ad.clone()))));
            let objects: Vec<Object> = ad.objects().cloned().collect();
            let image = PagedImage::open(bytes).unwrap();
            let lazy =
                PagedEngine::open(image, objects, PagedOptions::with_buffer_pages(4)).unwrap();
            assert!(lazy.is_lazy());
            paged = Some(lazy);
        }
        let check = |name: &str, engine: &dyn Serve, ws: &mut SearchWorkspace| {
            for (ask, want) in asks.iter().zip(&want) {
                assert_eq!(&engine.answer(ask), want, "v{version}, {name}: {ask:?}");
                if let Some(with) = engine.answer_with(ask, ws) {
                    assert_eq!(&with, want, "v{version}, {name} into a workspace: {ask:?}");
                }
            }
            for (i, got) in engine.batch_answers(&asks) {
                assert_eq!(&got, &want[i], "v{version}, {name} in a batch: {:?}", asks[i]);
            }
        };
        for (name, engine) in &engines {
            check(name, engine.as_ref(), &mut self.ws);
        }
        if let Some(paged) = &paged {
            check("lazy paged engine", paged, &mut self.ws);
            paged.clear_cache().unwrap();
            check("lazy paged engine after clear_cache", paged, &mut self.ws);
        }
        for held in &self.held {
            let v = held.snapshot.version();
            // An aggregate is its members' expansions again; they add cost
            // here, not coverage.
            let asked = held.asks.iter().zip(&held.answers);
            for (ask, then) in asked.filter(|(ask, _)| !matches!(ask, Ask::Group(_))) {
                assert_eq!(&held.snapshot.answer(ask), then, "v{v} held to v{version}: {ask:?}");
            }
        }
        self.held.push(Held { snapshot: snap, asks, answers: want });
    }
}

/// True when a kNN ask has an exact tie between its k-th and (k+1)-th
/// object: the case only the canonical (distance, id) order settles.
fn tied_at_k(fw: &RoadFramework, ad: &AssociationDirectory, ask: &Ask) -> bool {
    let Ask::Knn(q) = ask else { return false };
    let next = oracle_knn(fw, ad, &KnnQuery { k: q.k + 1, ..q.clone() });
    next.len() > q.k && next[q.k].distance == next[q.k - 1].distance
}

fn random_object(rng: &mut StdRng, id: ObjectId, edges: &[EdgeId]) -> Object {
    let e = edges[rng.random_range(0..edges.len())];
    let fraction = [0.0, 0.25, 0.5, 0.75, 1.0][rng.random_range(0..5)];
    Object::new(id, e, fraction, CategoryId(rng.random_range(0..CATEGORIES)))
}

/// Runs one seeded history of `steps` operations and returns its k-th
/// place ties. A failure prints the seed and the history up to it before
/// it propagates.
fn replay(seed: u64, steps: usize) -> usize {
    let mut log = Vec::new();
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut history = History::new(seed, &mut log);
        history.run(steps);
        history.ties
    }));
    run.unwrap_or_else(|cause| {
        eprintln!("history {seed:#x} failed after {} operations:", log.len());
        for (i, op) in log.iter().enumerate() {
            eprintln!("  {i:3}: {op}");
        }
        eprintln!("replay it alone with HISTORY_SEED={seed:#x}");
        panic::resume_unwind(cause)
    })
}

/// `cases` seeds drawn from the test's proptest stream, whose histories
/// must between them tie at the k-th place somewhere — or, when
/// `HISTORY_SEED` is set, that one seed alone.
fn run_cases(test: &str, cases: u32, steps: usize) {
    if let Ok(seed) = std::env::var("HISTORY_SEED") {
        let seed = seed.trim();
        let hex = seed.strip_prefix("0x").map(|h| u64::from_str_radix(h, 16));
        replay(hex.unwrap_or_else(|| seed.parse()).expect("HISTORY_SEED is a u64"), steps);
        return;
    }
    let mut rng = case_rng(test);
    let ties: usize = (0..cases).map(|_| replay((0..u64::MAX).new_value(&mut rng), steps)).sum();
    assert!(ties > 0, "no kNN answer had a tie at the k-th place");
}

#[test]
fn histories_agree_with_dijkstra_on_every_engine() {
    run_cases("histories_agree_with_dijkstra_on_every_engine", 24, 60);
}

#[test]
#[ignore = "stress: long histories, run via --include-ignored"]
fn long_histories_agree_with_dijkstra_on_every_engine() {
    run_cases("long_histories_agree_with_dijkstra_on_every_engine", 64, 160);
}
