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
//! publishes. After every publish, kNN (filtered and unfiltered), range
//! and `network_distance` must agree bit for bit across
//!
//! - the fresh snapshot and plain Dijkstra on its state;
//! - every snapshot held so far, against the answers recorded when it was
//!   published;
//! - a `QueryEngine` over the writer's state;
//! - every few publishes, a `QueryEngine` over `RoadFramework::from_bytes`
//!   of the snapshot's `to_bytes()` (which must write those bytes again),
//!   and a lazily opened `PagedEngine` over the same image on a 4-page
//!   pool.
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
use road_core::search::{oracle_knn, oracle_range};
use road_core::{RoadError, SearchResult};
use road_network::dijkstra::shortest_path_weight;
use road_network::generator::simple;
use road_network::EdgeId;
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
    fn distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError>;

    fn answer(&self, ask: &Ask) -> Answer {
        match ask {
            Ask::Knn(q) => Answer::Hits(self.knn(q).unwrap().hits),
            Ask::Range(q) => Answer::Hits(self.range(q).unwrap().hits),
            Ask::Distance(a, b) => Answer::Distance(self.distance(*a, *b).unwrap()),
        }
    }
}

impl Serve for QueryEngine {
    fn knn(&self, q: &KnnQuery) -> Result<SearchResult, RoadError> {
        QueryEngine::knn(self, q)
    }
    fn range(&self, q: &RangeQuery) -> Result<SearchResult, RoadError> {
        QueryEngine::range(self, q)
    }
    fn distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
        self.network_distance(from, to)
    }
}

impl Serve for PagedEngine {
    fn knn(&self, q: &KnnQuery) -> Result<SearchResult, RoadError> {
        PagedEngine::knn(self, q)
    }
    fn range(&self, q: &RangeQuery) -> Result<SearchResult, RoadError> {
        PagedEngine::range(self, q)
    }
    fn distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
        self.network_distance(from, to)
    }
}

/// Plain Dijkstra's answer on a framework and directory.
fn oracle(fw: &RoadFramework, ad: &AssociationDirectory, ask: &Ask) -> Answer {
    match ask {
        Ask::Knn(q) => Answer::Hits(oracle_knn(fw, ad, q)),
        Ask::Range(q) => Answer::Hits(oracle_range(fw, ad, q)),
        Ask::Distance(a, b) => {
            Answer::Distance(shortest_path_weight(fw.network(), fw.metric(), *a, *b))
        }
    }
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
    /// The weight each grid edge was built with, for restoring waves.
    built: Vec<Weight>,
    held: Vec<Held>,
    next_object: u64,
    /// kNN answers with an exact tie at the k-th place.
    ties: usize,
}

impl<'a> History<'a> {
    /// A grid with a quarter of its edges reweighted (zeros included)
    /// before the build, and [`OBJECTS`] objects on it.
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
        let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
        let mut ad = AssociationDirectory::new(fw.hierarchy());
        for i in 0..OBJECTS {
            let o = random_object(&mut rng, ObjectId(i), &edges);
            ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
        }
        let (live, writer) = LiveEngine::new(fw, ad);
        History { rng, log, live, writer, built, held: Vec::new(), next_object: OBJECTS, ties: 0 }
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
        self.writer.set_edge_weights(&wave).unwrap();
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
        self.writer.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
    }

    /// Removes an edge no object sits on.
    fn remove_edge(&mut self) {
        let edges = self.live_edges();
        let e = edges[self.rng.random_range(0..edges.len())];
        if self.writer.directory().objects_on_edge(e).next().is_some() {
            return;
        }
        self.log.push(format!("remove_edge {e}"));
        self.writer.remove_edge(e).unwrap();
    }

    fn insert_object(&mut self) {
        let edges = self.live_edges();
        let o = random_object(&mut self.rng, ObjectId(self.next_object), &edges);
        self.next_object += 1;
        self.log.push(format!("insert_object {o:?}"));
        self.writer.insert_object(o).unwrap();
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
        self.writer.move_object(id, e, fraction).unwrap();
    }

    fn remove_object(&mut self) {
        let Some(id) = self.random_id() else { return };
        self.log.push(format!("remove_object {id:?}"));
        self.writer.remove_object(id).unwrap();
    }

    /// A dozen questions about `fw`'s world: kNN with and without a
    /// category filter (one in six asking for more than there is), range
    /// with and without one, and node-to-node distances.
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
        if self.held.len().is_multiple_of(PAGED_EVERY) {
            let bytes = fw.to_bytes();
            let reopened = RoadFramework::from_bytes(&bytes).unwrap();
            assert!(
                reopened.to_bytes() == bytes,
                "v{version}: a reopened image writes other bytes"
            );
            engines.push(("eager reopen", Box::new(QueryEngine::new(reopened, ad.clone()))));
            let objects: Vec<Object> = ad.objects().cloned().collect();
            let image = PagedImage::open(bytes).unwrap();
            let paged =
                PagedEngine::open(image, objects, PagedOptions::with_buffer_pages(4)).unwrap();
            assert!(paged.is_lazy());
            engines.push(("lazy paged engine", Box::new(paged)));
        }
        for (name, engine) in &engines {
            for (ask, want) in asks.iter().zip(&want) {
                assert_eq!(&engine.answer(ask), want, "v{version}, {name}: {ask:?}");
            }
        }
        for held in &self.held {
            let v = held.snapshot.version();
            for (ask, then) in held.asks.iter().zip(&held.answers) {
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
