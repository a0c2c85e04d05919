//! Worlds and op streams, generated here: the same `--seed` gives
//! byte-identical inputs, and the program under test only ever sees what
//! is generated here.
//!
//! The two road networks are fixed datasets, as the paper's CA, NA and SF
//! are: their generator seed is a constant. `--seed` draws what is put on
//! them — object placements, query nodes, weight changes and object
//! moves. A network drawn per seed moved `ops_per_s` by 20% and the p99 by
//! 49% from one seed to the next (quartile spread over ten seeds), which
//! no bound could sit on top of; with the networks fixed a seed moves
//! them by a few percent.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::{CategoryId, KnnQuery, Object, ObjectFilter, ObjectId, RangeQuery};
use road_network::dijkstra::estimate_diameter;
use road_network::generator::Dataset;
use road_network::{EdgeId, NodeId, RoadNetwork, Weight, WeightKind};

/// Every framework in the benchmark is built with the paper's fanout.
pub const FANOUT: usize = 4;
/// The metric every framework is built for (the crates' default).
pub const METRIC: WeightKind = WeightKind::Distance;
pub const OBJECTS: usize = 400;
/// The category every tenth object carries; the filtered queries ask for it.
pub const RARE: CategoryId = CategoryId(1);
/// Ops in the query stream `S`; the serving loops cycle through it.
pub const STREAM_LEN: usize = 4096;
/// Range radius as a share of the estimated network diameter.
pub const RANGE_RADIUS_SHARE: f64 = 0.02;
/// First queries served by a freshly reopened engine in one build cycle.
pub const FIRST_QUERIES: usize = 64;
pub const TICK_EDGES: usize = 8;
pub const TICK_MOVES: usize = 4;

/// Generator seed of both road networks.
const NETWORK_SEED: u64 = 0xEDB7_2009;

// Independent random streams of one seed.
const SALT_OBJECTS: u64 = 0x0B1E_C700_0000_0001;
const SALT_STREAM: u64 = 0x5712_EA00_0000_0002;
const SALT_TICKS: u64 = 0x71C6_5000_0000_0003;

/// A road network, the hierarchy depth to build it with, and its objects.
pub struct World {
    pub net: RoadNetwork,
    pub levels: u32,
    pub objects: Vec<Object>,
}

/// Serving world `W`: a tenth of the continental preset (100,000 nodes).
/// The highway presets are no use here: their generators are super-linear
/// and would dominate set-up.
pub fn serving_world(seed: u64) -> World {
    world(Dataset::Continent, 0.1, seed)
}

/// Build world `B`: a quarter of the San Francisco street preset, the
/// dense network on which ROADMAP says contraction loses to the sweep.
pub fn build_world(seed: u64) -> World {
    world(Dataset::SfStreets, 0.25, seed)
}

fn world(dataset: Dataset, scale: f64, seed: u64) -> World {
    let net =
        dataset.generate_scaled(scale, NETWORK_SEED).expect("preset generators accept any seed");
    let levels = dataset.suggested_levels(net.num_edges(), FANOUT);
    let objects = objects(&net, seed);
    World { net, levels, objects }
}

fn live_edges(net: &RoadNetwork) -> Vec<EdgeId> {
    net.edge_ids().filter(|&e| !net.edge(e).is_deleted()).collect()
}

/// `OBJECTS` objects: edge uniform, fraction uniform, every tenth `RARE`.
fn objects(net: &RoadNetwork, seed: u64) -> Vec<Object> {
    let mut rng = StdRng::seed_from_u64(seed ^ SALT_OBJECTS);
    let edges = live_edges(net);
    (0..OBJECTS as u64)
        .map(|i| {
            let edge = edges[rng.random_range(0..edges.len())];
            let fraction = rng.random_range(0.0..1.0);
            let category = if i % 10 == 0 { RARE } else { CategoryId(0) };
            Object::new(ObjectId(i), edge, fraction, category)
        })
        .collect()
}

/// The five query shapes of the stream, in the order reports list them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Knn1,
    Knn5,
    Knn20,
    /// k = 5 among the `RARE` tenth: abstract-driven bypass dominates.
    Knn5Filtered,
    Range,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::Knn1, Kind::Knn5, Kind::Knn20, Kind::Knn5Filtered, Kind::Range];
    /// The mix, per ten ops.
    const PATTERN: [Kind; 10] = [
        Kind::Knn1,
        Kind::Knn1,
        Kind::Knn5,
        Kind::Knn5,
        Kind::Knn5,
        Kind::Knn5,
        Kind::Knn20,
        Kind::Knn5Filtered,
        Kind::Range,
        Kind::Range,
    ];
}

#[derive(Clone, Debug)]
pub enum Query {
    Knn(KnnQuery),
    Range(RangeQuery),
}

#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub query: Query,
}

/// `len` ops on uniform random nodes, mixed as `Kind::PATTERN`.
pub fn stream(net: &RoadNetwork, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ SALT_STREAM);
    let radius = Weight::new(RANGE_RADIUS_SHARE * estimate_diameter(net, METRIC).get());
    let nodes = net.num_nodes() as u32;
    (0..len)
        .map(|i| {
            let node = NodeId(rng.random_range(0..nodes));
            let kind = Kind::PATTERN[i % Kind::PATTERN.len()];
            let query = match kind {
                Kind::Knn1 => Query::Knn(KnnQuery::new(node, 1)),
                Kind::Knn5 => Query::Knn(KnnQuery::new(node, 5)),
                Kind::Knn20 => Query::Knn(KnnQuery::new(node, 20)),
                Kind::Knn5Filtered => {
                    Query::Knn(KnnQuery::new(node, 5).with_filter(ObjectFilter::Category(RARE)))
                }
                Kind::Range => Query::Range(RangeQuery::new(node, radius)),
            };
            Op { kind, query }
        })
        .collect()
}

/// The first queries of a build cycle: `FIRST_QUERIES` kNN k = 5.
pub fn first_queries(net: &RoadNetwork, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ SALT_STREAM);
    let nodes = net.num_nodes() as u32;
    (0..FIRST_QUERIES)
        .map(|_| Op {
            kind: Kind::Knn5,
            query: Query::Knn(KnnQuery::new(NodeId(rng.random_range(0..nodes)), 5)),
        })
        .collect()
}

/// One writer tick: reweight `TICK_EDGES` edges, move `TICK_MOVES` objects.
#[derive(Clone, Debug, PartialEq)]
pub struct Tick {
    pub weights: Vec<(EdgeId, Weight)>,
    pub moves: Vec<(ObjectId, EdgeId, f64)>,
}

/// The update stream. Each new weight is the edge's *original* weight
/// times U[0.5, 2), so the network neither drifts nor degenerates however
/// long the window runs.
pub struct TickStream {
    rng: StdRng,
    edges: Vec<EdgeId>,
    base: Vec<Weight>,
}

impl TickStream {
    pub fn new(net: &RoadNetwork, seed: u64) -> TickStream {
        let edges = live_edges(net);
        let base = edges.iter().map(|&e| net.weight(e, METRIC)).collect();
        TickStream { rng: StdRng::seed_from_u64(seed ^ SALT_TICKS), edges, base }
    }

    pub fn next_tick(&mut self) -> Tick {
        let rng = &mut self.rng;
        let weights = (0..TICK_EDGES)
            .map(|_| {
                let i = rng.random_range(0..self.edges.len());
                let factor: f64 = rng.random_range(0.5..2.0);
                (self.edges[i], Weight::new(self.base[i].get() * factor))
            })
            .collect();
        let moves = (0..TICK_MOVES)
            .map(|_| {
                let id = ObjectId(rng.random_range(0..OBJECTS as u64));
                let edge = self.edges[rng.random_range(0..self.edges.len())];
                (id, edge, rng.random_range(0.0..1.0))
            })
            .collect();
        Tick { weights, moves }
    }
}

/// FNV-1a over everything generated for `seed`: both worlds (network and
/// objects), the query streams and the head of the update stream. Equal fingerprints mean
/// byte-identical inputs.
pub fn fingerprint(seed: u64) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for world in [serving_world(seed), build_world(seed)] {
        h.u64(world.net.num_nodes() as u64);
        for n in world.net.node_ids() {
            let p = world.net.coord(n);
            h.u64(p.x.to_bits());
            h.u64(p.y.to_bits());
        }
        for e in world.net.edge_ids() {
            let (a, b) = world.net.edge(e).endpoints();
            h.u64(u64::from(a.0) << 32 | u64::from(b.0));
            for kind in WeightKind::ALL {
                h.u64(world.net.weight(e, kind).get().to_bits());
            }
        }
        h.u64(u64::from(world.levels));
        for o in &world.objects {
            h.u64(o.id.0);
            h.u64(u64::from(o.edge.0));
            h.u64(o.fraction.to_bits());
            h.u64(u64::from(o.category.0));
        }
        for op in
            stream(&world.net, seed, STREAM_LEN).iter().chain(&first_queries(&world.net, seed))
        {
            match &op.query {
                Query::Knn(q) => {
                    h.u64(u64::from(q.node.0));
                    h.u64(q.k as u64);
                    h.u64(u64::from(q.filter != ObjectFilter::Any));
                }
                Query::Range(q) => {
                    h.u64(u64::from(q.node.0));
                    h.u64(q.radius.get().to_bits());
                }
            }
        }
        let mut ticks = TickStream::new(&world.net, seed);
        for _ in 0..16 {
            let tick = ticks.next_tick();
            for (e, w) in tick.weights {
                h.u64(u64::from(e.0));
                h.u64(w.get().to_bits());
            }
            for (id, e, f) in tick.moves {
                h.u64(id.0);
                h.u64(u64::from(e.0));
                h.u64(f.to_bits());
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = fingerprint(0xEDB7_2009);
        assert_eq!(a, fingerprint(0xEDB7_2009));
        assert_ne!(a, fingerprint(0xEDB7_200A));
    }

    #[test]
    fn stream_has_the_declared_mix() {
        let w = build_world(3);
        let s = stream(&w.net, 3, 1000);
        let count = |k: Kind| s.iter().filter(|op| op.kind == k).count();
        assert_eq!(
            Kind::ALL.map(count),
            [200, 400, 100, 100, 200],
            "2x k=1, 4x k=5, 1x k=20, 1x filtered, 2x range per ten ops"
        );
        assert_eq!(w.objects.len(), OBJECTS);
        assert_eq!(w.objects.iter().filter(|o| o.category == RARE).count(), OBJECTS / 10);
        let t = TickStream::new(&w.net, 3).next_tick();
        assert_eq!((t.weights.len(), t.moves.len()), (TICK_EDGES, TICK_MOVES));
        assert_eq!(t, TickStream::new(&w.net, 3).next_tick());
    }
}
