//! Crate-level tests: search correctness against a brute-force oracle and
//! maintenance consistency on randomized workloads.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::search::{oracle_knn, oracle_range};
use road_network::generator::{simple, Dataset};
use road_network::graph::RoadNetwork;
use road_network::{EdgeId, NetworkBuilder, Point};

/// Deterministically scatters `count` objects over the network's edges.
fn scatter_objects(
    fw: &RoadFramework,
    count: usize,
    categories: u16,
    seed: u64,
) -> AssociationDirectory {
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let g = fw.network();
    let edges: Vec<_> = g.edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let e = edges[rng.random_range(0..edges.len())];
        let o = Object::new(
            ObjectId(i as u64),
            e,
            rng.random_range(0.0..=1.0),
            CategoryId(rng.random_range(0..categories.max(1))),
        );
        ad.insert(g, fw.hierarchy(), o).unwrap();
    }
    ad
}

fn build(net: RoadNetwork, fanout: usize, levels: u32) -> RoadFramework {
    RoadFramework::builder(net).fanout(fanout).levels(levels).build().unwrap()
}

fn assert_hits_equal(got: &[SearchHit], want: &[SearchHit], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: hit count {} vs {}", got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(
            g.distance.approx_eq(w.distance),
            "{ctx}: distance {} vs {}",
            g.distance,
            w.distance
        );
    }
    // Same multiset of objects at equal distances (order may tie-break
    // differently): compare sorted by (distance, id).
    let norm = |hs: &[SearchHit]| {
        let mut v: Vec<(u64, String)> =
            hs.iter().map(|h| (h.object.0, format!("{:.6}", h.distance.get()))).collect();
        v.sort();
        v
    };
    assert_eq!(norm(got), norm(want), "{ctx}: object sets differ");
}

#[test]
fn knn_matches_oracle_on_grid() {
    let fw = build(simple::grid(15, 15, 1.0), 4, 3);
    let ad = scatter_objects(&fw, 25, 3, 42);
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
        let k = rng.random_range(1..8);
        let q = KnnQuery::new(node, k);
        let got = fw.knn(&ad, &q).unwrap();
        let want = oracle_knn(&fw, &ad, &q);
        assert_hits_equal(&got.hits, &want, &format!("knn seed {seed} node {node} k {k}"));
    }
}

#[test]
fn knn_with_category_filter_matches_oracle() {
    let fw = build(simple::grid(12, 12, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 30, 4, 7);
    for cat in 0..4u16 {
        let q = KnnQuery::new(NodeId(5), 3).with_filter(ObjectFilter::Category(CategoryId(cat)));
        let got = fw.knn(&ad, &q).unwrap();
        let want = oracle_knn(&fw, &ad, &q);
        assert_hits_equal(&got.hits, &want, &format!("cat {cat}"));
        assert!(got
            .hits
            .iter()
            .all(|h| { ad.object(h.object).unwrap().category == CategoryId(cat) }));
    }
}

#[test]
fn range_matches_oracle_on_random_networks() {
    for seed in 0..10u64 {
        let net = simple::random_connected(120, 40, seed);
        let fw = build(net, 2, 3);
        let ad = scatter_objects(&fw, 18, 2, seed * 3 + 1);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        for _ in 0..5 {
            let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
            let radius = Weight::new(rng.random_range(5.0..80.0));
            let q = RangeQuery::new(node, radius);
            let got = fw.range(&ad, &q).unwrap();
            let want = oracle_range(&fw, &ad, &q);
            assert_hits_equal(&got.hits, &want, &format!("range seed {seed} node {node}"));
        }
    }
}

#[test]
fn knn_matches_oracle_on_ca_like_network() {
    let net = Dataset::CaHighways.generate_scaled(0.03, 11).unwrap();
    let fw = build(net, 4, 3);
    let ad = scatter_objects(&fw, 12, 1, 5);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..15 {
        let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
        let q = KnnQuery::new(node, 5);
        let got = fw.knn(&ad, &q).unwrap();
        let want = oracle_knn(&fw, &ad, &q);
        assert_hits_equal(&got.hits, &want, &format!("CA node {node}"));
    }
}

#[test]
fn search_bypasses_rnets_and_takes_shortcuts() {
    // Few objects on a large network: most Rnets are empty and must be
    // bypassed; the whole point of the framework.
    let fw = build(simple::grid(20, 20, 1.0), 4, 3);
    let ad = scatter_objects(&fw, 3, 1, 1);
    let q = KnnQuery::new(NodeId(0), 1);
    let res = fw.knn(&ad, &q).unwrap();
    assert_eq!(res.hits.len(), 1);
    assert!(res.stats.rnets_bypassed > 0, "no Rnet was bypassed: {:?}", res.stats);
    assert!(res.stats.shortcuts_taken > 0, "no shortcut was taken: {:?}", res.stats);
    // And it must beat plain expansion on settled nodes.
    let brute = {
        let mut dij = road_network::dijkstra::Dijkstra::for_network(fw.network());
        let mut settled = 0;
        let target = res.hits[0].distance;
        dij.expand(fw.network(), fw.metric(), NodeId(0), |_, d| {
            if d > target {
                road_network::dijkstra::Control::Break
            } else {
                settled += 1;
                road_network::dijkstra::Control::Continue
            }
        });
        settled
    };
    assert!(
        res.stats.nodes_settled < brute,
        "ROAD settled {} nodes, plain expansion {brute}",
        res.stats.nodes_settled
    );
}

#[test]
fn path_reconstruction_is_valid_and_matches_distance() {
    let fw = build(simple::grid(14, 14, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 10, 1, 3);
    let q = KnnQuery::new(NodeId(100), 4);
    let res = fw.knn(&ad, &q).unwrap();
    assert_eq!(res.hits.len(), 4);
    for hit in &res.hits {
        let (path, edge, offset) = res.path_to_hit(&fw, &ad, hit).expect("path");
        assert!(path.validate(fw.network(), fw.metric()), "invalid path for {:?}", hit.object);
        assert_eq!(path.source(), NodeId(100));
        let total = path.total() + offset;
        assert!(
            total.approx_eq(hit.distance),
            "path {} + offset {} != hit distance {}",
            path.total(),
            offset,
            hit.distance
        );
        let o = ad.object(hit.object).unwrap();
        assert_eq!(o.edge, edge);
    }
}

#[test]
fn point_to_point_distance_matches_dijkstra() {
    let net = Dataset::CaHighways.generate_scaled(0.02, 3).unwrap();
    let fw = build(net, 4, 3);
    let mut rng = StdRng::seed_from_u64(17);
    let n = fw.network().num_nodes() as u32;
    for _ in 0..12 {
        let a = NodeId(rng.random_range(0..n));
        let b = NodeId(rng.random_range(0..n));
        let want = road_network::dijkstra::shortest_path_weight(fw.network(), fw.metric(), a, b);
        let got = fw.network_distance(a, b).unwrap();
        match (got, want) {
            (Some(g), Some(w)) => assert!(g.approx_eq(w), "{a}->{b}: {g} vs {w}"),
            (g, w) => assert_eq!(g.is_some(), w.is_some(), "{a}->{b} reachability"),
        }
        if let Some(p) = fw.shortest_path(a, b).unwrap() {
            assert!(p.validate(fw.network(), fw.metric()));
            assert!(p.total().approx_eq(want.unwrap()));
        }
    }
}

/// Two carriageways between the same junctions: `NetworkBuilder` accepts
/// parallel edges, and a path unpacked from a leaf shortcut must take the
/// one the shortcut was measured over, not the first in adjacency order.
/// A 12×12 grid whose every street is added twice, heavy (5) then light
/// (1): weights are integers, so a path's total is exactly its distance.
#[test]
fn shortest_paths_over_parallel_edges_weigh_their_distance() {
    let side = 12;
    let mut b = NetworkBuilder::default();
    for y in 0..side {
        for x in 0..side {
            b.add_node(Point::new(x as f64, y as f64));
        }
    }
    let id = |x: usize, y: usize| NodeId((y * side + x) as u32);
    for y in 0..side {
        for x in 0..side {
            let ends = [(x + 1 < side).then(|| id(x + 1, y)), (y + 1 < side).then(|| id(x, y + 1))];
            for to in ends.into_iter().flatten() {
                b.add_edge(id(x, y), to, 5.0).unwrap();
                b.add_edge(id(x, y), to, 1.0).unwrap();
            }
        }
    }
    let fw = build(b.build(), 4, 2);
    let g = fw.network();
    let nodes = (side * side) as u32;
    for a in (0..nodes).step_by(7).map(NodeId) {
        for t in (0..nodes).step_by(11).map(NodeId) {
            let want = road_network::dijkstra::shortest_path_weight(g, fw.metric(), a, t);
            let got = fw.network_distance(a, t).unwrap();
            assert_eq!(got, want, "{a}->{t}");
            let path = fw.shortest_path(a, t).unwrap().expect("the grid is connected");
            assert_eq!(Some(path.total()), got, "{a}->{t}: path {:?}", path.edges());
            let sum = path.edges().iter().fold(Weight::ZERO, |s, &e| s + g.weight(e, fw.metric()));
            assert_eq!(sum, path.total(), "{a}->{t}");
            assert_eq!((path.source(), path.target()), (a, t));
            for (hop, &e) in path.nodes().windows(2).zip(path.edges()) {
                let (u, v) = g.edge(e).endpoints();
                assert!((u, v) == (hop[0], hop[1]) || (v, u) == (hop[0], hop[1]), "{a}->{t}");
            }
        }
    }
}

/// A routing target past the network is `NodeOutOfBounds` on every engine,
/// never a panic: the search checks a `ToNode` target beside its source,
/// and an aggregate group's later members reach the search as targets.
#[test]
fn a_target_past_the_network_is_out_of_bounds_on_every_engine() {
    use road_core::search::AggregateKnnQuery;
    let fw = build(simple::grid(8, 8, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 12, 1, 3);
    let (inside, past) = (NodeId(3), NodeId(10_000));
    let oob = Some(road_core::RoadError::NodeOutOfBounds(past));
    let groups = [vec![inside, past], vec![past, inside]].map(|g| AggregateKnnQuery::new(g, 3));

    assert_eq!(fw.network_distance(inside, past).err(), oob, "framework distance");
    assert_eq!(fw.shortest_path(inside, past).err(), oob, "framework path");
    for q in &groups {
        assert_eq!(fw.aggregate_knn(&ad, q).err(), oob, "framework aggregate");
    }

    let engine = QueryEngine::new(fw.clone(), ad.clone());
    let (live, _writer) = LiveEngine::new(fw.clone(), ad.clone());
    let snapshot = live.snapshot();
    for (label, engine) in [("engine", &engine), ("snapshot", &**snapshot)] {
        assert_eq!(engine.network_distance(inside, past).err(), oob, "{label} distance");
        for q in &groups {
            assert_eq!(engine.aggregate_knn(q).err(), oob, "{label} aggregate");
        }
    }

    let opts = PagedOptions::with_buffer_pages(4);
    let eager = PagedEngine::new(&fw, &ad, opts).unwrap();
    let image = PagedImage::open(fw.to_bytes()).unwrap();
    let lazy = PagedEngine::open(image, ad.objects().cloned().collect(), opts).unwrap();
    for (label, paged) in [("eager paged", &eager), ("lazy paged", &lazy)] {
        assert_eq!(paged.network_distance(inside, past).err(), oob, "{label} distance");
        for q in &groups {
            assert_eq!(paged.aggregate_knn(q).err(), oob, "{label} aggregate");
        }
    }
}

#[test]
fn k_larger_than_objects_returns_all() {
    let fw = build(simple::grid(8, 8, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 4, 1, 2);
    let res = fw.knn(&ad, &KnnQuery::new(NodeId(0), 50)).unwrap();
    assert_eq!(res.hits.len(), 4);
    // k = 0 is a valid degenerate query.
    let res = fw.knn(&ad, &KnnQuery::new(NodeId(0), 0)).unwrap();
    assert!(res.hits.is_empty());
}

#[test]
fn empty_directory_returns_nothing() {
    let fw = build(simple::grid(6, 6, 1.0), 2, 2);
    let ad = AssociationDirectory::new(fw.hierarchy());
    let res = fw.knn(&ad, &KnnQuery::new(NodeId(0), 3)).unwrap();
    assert!(res.hits.is_empty());
    let res = fw.range(&ad, &RangeQuery::new(NodeId(0), Weight::new(100.0))).unwrap();
    assert!(res.hits.is_empty());
}

#[test]
fn out_of_bounds_query_node_errors() {
    let fw = build(simple::grid(4, 4, 1.0), 2, 1);
    let ad = AssociationDirectory::new(fw.hierarchy());
    assert!(fw.knn(&ad, &KnnQuery::new(NodeId(999), 1)).is_err());
}

#[test]
fn zero_radius_range_finds_only_colocated_objects() {
    let fw = build(simple::grid(6, 6, 1.0), 2, 2);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let e = fw.network().edge_ids().next().unwrap();
    let (a, _) = fw.network().edge(e).endpoints();
    ad.insert(fw.network(), fw.hierarchy(), Object::new(ObjectId(1), e, 0.0, CategoryId(0)))
        .unwrap();
    let res = fw.range(&ad, &RangeQuery::new(a, Weight::ZERO)).unwrap();
    assert_eq!(res.hits.len(), 1);
    assert_eq!(res.hits[0].distance, Weight::ZERO);
}

// ---------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------

#[test]
fn weight_updates_keep_answers_correct() {
    let mut fw = build(simple::grid(10, 10, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 12, 1, 8);
    let mut rng = StdRng::seed_from_u64(21);
    let edges: Vec<_> = fw.network().edge_ids().collect();
    for step in 0..25 {
        let e = edges[rng.random_range(0..edges.len())];
        let w = Weight::new(rng.random_range(0.2..6.0));
        fw.set_edge_weight(e, w).unwrap();
        let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
        let q = KnnQuery::new(node, 3);
        let got = fw.knn(&ad, &q).unwrap();
        let want = oracle_knn(&fw, &ad, &q);
        assert_hits_equal(&got.hits, &want, &format!("after update {step}"));
    }
    fw.verify().unwrap();
}

#[test]
fn weight_update_propagation_stops_early() {
    let mut fw = build(simple::grid(16, 16, 1.0), 4, 3);
    // An edge deep inside a leaf Rnet, not on any shortcut: refreshing its
    // leaf must not propagate anywhere.
    let mut quiet = None;
    for e in fw.network().edge_ids() {
        let leaf = fw.hierarchy().leaf_of_edge(e);
        let (a, b) = fw.network().edge(e).endpoints();
        let covered = fw
            .hierarchy()
            .borders(leaf)
            .iter()
            .flat_map(|&bn| fw.shortcuts().from(leaf, bn))
            .any(|sc| sc.via.contains(&a) || sc.via.contains(&b) || sc.to == a || sc.to == b);
        if !covered
            && !fw.hierarchy().bordered_rnets(a).contains(&leaf)
            && !fw.hierarchy().bordered_rnets(b).contains(&leaf)
        {
            quiet = Some(e);
            break;
        }
    }
    if let Some(e) = quiet {
        // Large increase on an uncovered edge: leaf refresh detects no
        // change, propagation stops at level l.
        let outcome = fw.set_edge_weight(e, Weight::new(50.0)).unwrap();
        assert_eq!(outcome.rnets_refreshed, 1, "outcome: {outcome:?}");
        assert_eq!(outcome.rnets_changed, 0);
    }
    // A no-op update refreshes nothing at all.
    let e = fw.network().edge_ids().next().unwrap();
    let w = fw.network().weight(e, fw.metric());
    let outcome = fw.set_edge_weight(e, w).unwrap();
    assert_eq!(outcome.rnets_refreshed, 0);
}

#[test]
fn edge_deletion_and_restoration_keep_answers_correct() {
    let mut fw = build(simple::grid(9, 9, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 10, 1, 4);
    let mut rng = StdRng::seed_from_u64(31);
    let edges: Vec<_> = fw.network().edge_ids().collect();
    for step in 0..10 {
        // The paper's edge-deletion experiment: weight to infinity, then
        // restore — the graph stays structurally intact.
        let e = edges[rng.random_range(0..edges.len())];
        let original = fw.network().weight(e, fw.metric());
        fw.set_edge_weight(e, Weight::INFINITY).unwrap();
        let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
        let q = KnnQuery::new(node, 2);
        assert_hits_equal(
            &fw.knn(&ad, &q).unwrap().hits,
            &oracle_knn(&fw, &ad, &q),
            &format!("with edge {e} cut (step {step})"),
        );
        fw.set_edge_weight(e, original).unwrap();
        assert_hits_equal(
            &fw.knn(&ad, &q).unwrap().hits,
            &oracle_knn(&fw, &ad, &q),
            &format!("after restoring {e} (step {step})"),
        );
    }
    fw.verify().unwrap();
}

#[test]
fn structural_edge_addition_and_removal() {
    let mut fw = build(simple::grid(8, 8, 1.0), 2, 2);
    let ad = scatter_objects(&fw, 8, 1, 9);
    // Add a diagonal highway across the grid (case 2: endpoints in
    // different Rnets, promoting a border node).
    let w = Weight::new(0.5);
    let (e, outcome) = fw.add_edge(NodeId(0), NodeId(63), (w, w, Weight::ZERO)).unwrap();
    assert!(outcome.rnets_refreshed > 0);
    fw.verify().unwrap();
    let q = KnnQuery::new(NodeId(0), 3);
    assert_hits_equal(&fw.knn(&ad, &q).unwrap().hits, &oracle_knn(&fw, &ad, &q), "after add");
    // Remove it again (no objects on it, so this must succeed).
    let outcome = fw.remove_edge(e, &[&ad]).unwrap();
    assert!(outcome.rnets_refreshed > 0);
    fw.verify().unwrap();
    assert_hits_equal(&fw.knn(&ad, &q).unwrap().hits, &oracle_knn(&fw, &ad, &q), "after remove");
}

#[test]
fn removing_edge_with_objects_is_refused() {
    let mut fw = build(simple::grid(6, 6, 1.0), 2, 2);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let e = fw.network().edge_ids().next().unwrap();
    ad.insert(fw.network(), fw.hierarchy(), Object::new(ObjectId(1), e, 0.3, CategoryId(0)))
        .unwrap();
    let err = fw.remove_edge(e, &[&ad]).unwrap_err();
    assert!(matches!(err, road_core::RoadError::EdgeHasObjects(_, 1)));
    // After relocating the object, removal succeeds.
    ad.remove(fw.network(), fw.hierarchy(), ObjectId(1)).unwrap();
    fw.remove_edge(e, &[&ad]).unwrap();
    fw.verify().unwrap();
}

#[test]
fn new_node_with_connecting_road() {
    let mut fw = build(simple::grid(7, 7, 1.0), 2, 2);
    let ad = scatter_objects(&fw, 6, 1, 13);
    let n = fw.add_node(road_network::Point::new(3.5, 3.5));
    let w = Weight::new(0.7);
    let (_, _) = fw.add_edge(n, NodeId(24), (w, w, Weight::ZERO)).unwrap();
    fw.verify().unwrap();
    // Queries from the new node work and agree with the oracle.
    let q = KnnQuery::new(n, 3);
    assert_hits_equal(&fw.knn(&ad, &q).unwrap().hits, &oracle_knn(&fw, &ad, &q), "from new node");
}

#[test]
fn random_maintenance_storm_stays_consistent() {
    let mut fw = build(simple::grid(8, 8, 1.0), 2, 2);
    let mut ad = scatter_objects(&fw, 10, 2, 77);
    let mut rng = StdRng::seed_from_u64(55);
    let mut next_obj = 1000u64;
    for step in 0..60 {
        match rng.random_range(0..5) {
            0 => {
                // weight change
                let edges: Vec<_> = fw.network().edge_ids().collect();
                let e = edges[rng.random_range(0..edges.len())];
                fw.set_edge_weight(e, Weight::new(rng.random_range(0.1..5.0))).unwrap();
            }
            1 => {
                // object insert
                let edges: Vec<_> = fw.network().edge_ids().collect();
                let e = edges[rng.random_range(0..edges.len())];
                let o = Object::new(
                    ObjectId(next_obj),
                    e,
                    rng.random_range(0.0..=1.0),
                    CategoryId(rng.random_range(0..2)),
                );
                next_obj += 1;
                ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
            }
            2 => {
                // object delete (if any)
                let id = ad.objects().next().map(|o| o.id);
                if let Some(id) = id {
                    ad.remove(fw.network(), fw.hierarchy(), id).unwrap();
                }
            }
            3 => {
                // structural add between random non-adjacent nodes
                let n = fw.network().num_nodes() as u32;
                let a = NodeId(rng.random_range(0..n));
                let b = NodeId(rng.random_range(0..n));
                if a != b && fw.network().edge_between(a, b).is_none() {
                    let w = Weight::new(rng.random_range(0.5..3.0));
                    fw.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
                }
            }
            _ => {
                // query + compare with oracle
                let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
                let q = KnnQuery::new(node, 3);
                assert_hits_equal(
                    &fw.knn(&ad, &q).unwrap().hits,
                    &oracle_knn(&fw, &ad, &q),
                    &format!("storm step {step}"),
                );
            }
        }
    }
    fw.verify().unwrap();
    ad.validate(fw.network(), fw.hierarchy()).unwrap();
}

#[test]
fn bounded_knn_combines_k_and_radius() {
    let fw = build(simple::grid(12, 12, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 20, 1, 6);
    for (k, cap) in [(3usize, 2.0f64), (5, 6.0), (20, 4.0), (2, 0.0)] {
        let q = KnnQuery::new(NodeId(66), k).within(Weight::new(cap));
        let got = fw.knn(&ad, &q).unwrap();
        let want = road_core::search::oracle_knn(&fw, &ad, &q);
        assert_hits_equal(&got.hits, &want, &format!("bounded k={k} cap={cap}"));
        assert!(got.hits.len() <= k);
        for h in &got.hits {
            assert!(h.distance <= Weight::new(cap));
        }
        // The bound must also cap the expansion itself (+1: the bounded
        // search settles the first node past the cap before breaking).
        let unbounded = fw.knn(&ad, &KnnQuery::new(NodeId(66), k)).unwrap();
        assert!(got.stats.nodes_settled <= unbounded.stats.nodes_settled + 1);
    }
}

#[test]
fn aggregate_knn_matches_brute_force() {
    use road_core::search::{Aggregate, AggregateKnnQuery};
    let fw = build(simple::grid(11, 11, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 15, 1, 12);
    let group = vec![NodeId(0), NodeId(60), NodeId(115)];
    for aggregate in [Aggregate::Sum, Aggregate::Max] {
        let q = AggregateKnnQuery::new(group.clone(), 4).with_aggregate(aggregate);
        let got = fw.aggregate_knn(&ad, &q).unwrap();
        // Brute force: per-object aggregate from plain Dijkstra runs.
        let mut dij = road_network::dijkstra::Dijkstra::for_network(fw.network());
        let mut best: Vec<(f64, u64)> = ad
            .objects()
            .map(|o| {
                let (a, b) = fw.network().edge(o.edge).endpoints();
                let mut agg: f64 = 0.0;
                for &qn in &group {
                    let da = dij
                        .one_to_one(fw.network(), fw.metric(), qn, a)
                        .map(|d| d + o.offset_from(fw.network(), fw.metric(), a));
                    let db = dij
                        .one_to_one(fw.network(), fw.metric(), qn, b)
                        .map(|d| d + o.offset_from(fw.network(), fw.metric(), b));
                    let d = match (da, db) {
                        (Some(x), Some(y)) => x.min(y).get(),
                        (Some(x), None) => x.get(),
                        (None, Some(y)) => y.get(),
                        (None, None) => f64::INFINITY,
                    };
                    agg = match aggregate {
                        Aggregate::Sum => agg + d,
                        Aggregate::Max => agg.max(d),
                    };
                }
                (agg, o.id.0)
            })
            .collect();
        best.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        for (hit, (want_d, want_o)) in got.iter().zip(&best) {
            assert_eq!(hit.object.0, *want_o, "{aggregate:?}");
            assert!(
                (hit.distance.get() - want_d).abs() < 1e-6,
                "{aggregate:?}: {} vs {}",
                hit.distance,
                want_d
            );
        }
        assert_eq!(got.len(), 4);
    }
    // Degenerate group.
    assert!(fw.aggregate_knn(&ad, &AggregateKnnQuery::new(vec![], 1)).is_err());
    // Single-member group equals plain kNN.
    let single = fw.aggregate_knn(&ad, &AggregateKnnQuery::new(vec![NodeId(7)], 3)).unwrap();
    let plain = fw.knn(&ad, &KnnQuery::new(NodeId(7), 3)).unwrap();
    for (a, b) in single.iter().zip(&plain.hits) {
        assert!(a.distance.approx_eq(b.distance));
    }
}

#[test]
fn search_stats_are_internally_consistent() {
    let fw = build(simple::grid(14, 14, 1.0), 4, 3);
    let ad = scatter_objects(&fw, 8, 2, 19);
    for k in [1usize, 3, 7] {
        let res = fw.knn(&ad, &KnnQuery::new(NodeId(97), k)).unwrap();
        let s = res.stats;
        // Every consulted abstract is either bypassed or descended into.
        assert_eq!(
            s.abstract_checks,
            s.rnets_bypassed + s.rnets_descended,
            "abstract accounting broken: {s:?}"
        );
        // Work happened and was recorded.
        assert!(s.nodes_settled >= 1);
        assert!(s.heap_pushes >= s.nodes_settled);
        assert!(s.shortcuts_taken == 0 || s.rnets_bypassed > 0);
    }
}

#[test]
fn equal_distance_ties_break_by_object_id_like_the_oracle() {
    // Three objects planted at network distance exactly 2.0 from the query
    // node — one strictly closer object fills the first slot, so the tie
    // straddles every k in 2..4. One tied object sits *at* a node
    // (fraction 0/1), which the old object-before-node heap ordering could
    // report ahead of a smaller-id object discovered through that node.
    // Engine, kNN oracle and range oracle must produce identical
    // *sequences*, not just multisets.
    let fw = build(simple::chain(21, 1.0), 2, 2);
    let g = fw.network();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let edge = |a: u32, b: u32| g.edge_between(NodeId(a), NodeId(b)).unwrap();
    // Closest object, distance 0.5.
    ad.insert(g, fw.hierarchy(), Object::new(ObjectId(20), edge(10, 11), 0.5, CategoryId(0)))
        .unwrap();
    // Three objects tied at distance 2.0, adversarial id order: the
    // smallest id (3) lives at the node that settles *last* among the
    // distance-2 frontier.
    ad.insert(g, fw.hierarchy(), Object::new(ObjectId(9), edge(12, 13), 0.0, CategoryId(0)))
        .unwrap();
    ad.insert(g, fw.hierarchy(), Object::new(ObjectId(5), edge(11, 12), 1.0, CategoryId(0)))
        .unwrap();
    ad.insert(g, fw.hierarchy(), Object::new(ObjectId(3), edge(7, 8), 1.0, CategoryId(0))).unwrap();

    let source = NodeId(10);
    for k in 1..=4usize {
        let q = KnnQuery::new(source, k);
        let got = fw.knn(&ad, &q).unwrap();
        let want = oracle_knn(&fw, &ad, &q);
        let got_ids: Vec<u64> = got.hits.iter().map(|h| h.object.0).collect();
        let want_ids: Vec<u64> = want.iter().map(|h| h.object.0).collect();
        assert_eq!(got_ids, want_ids, "k={k}: engine and oracle disagree on tie order");
    }
    // Expected order is fully determined: distance, then object id.
    let got = fw.knn(&ad, &KnnQuery::new(source, 4)).unwrap();
    let ids: Vec<u64> = got.hits.iter().map(|h| h.object.0).collect();
    assert_eq!(ids, vec![20, 3, 5, 9]);

    // The range oracle and the engine's range search agree on the same
    // (distance, id) sequence, and the kNN oracle is its prefix.
    let rq = RangeQuery::new(source, Weight::new(2.0));
    let got_range = fw.range(&ad, &rq).unwrap();
    let want_range = oracle_range(&fw, &ad, &rq);
    let got_ids: Vec<u64> = got_range.hits.iter().map(|h| h.object.0).collect();
    let want_ids: Vec<u64> = want_range.iter().map(|h| h.object.0).collect();
    assert_eq!(got_ids, want_ids, "range tie order");
    let knn_ids: Vec<u64> =
        oracle_knn(&fw, &ad, &KnnQuery::new(source, 2)).iter().map(|h| h.object.0).collect();
    assert_eq!(knn_ids, want_ids[..2], "kNN oracle is a prefix of the range oracle");
}

#[test]
fn aggregate_knn_bounded_expansions_prune_and_agree() {
    use road_core::search::{Aggregate, AggregateKnnQuery};
    let fw = build(simple::grid(13, 13, 1.0), 4, 2);
    let ad = scatter_objects(&fw, 40, 1, 23);
    // A tight group: the k-th best aggregate is small, so the
    // triangle-inequality bound should confine members 2 and 3 to a
    // fraction of the component.
    let group = vec![NodeId(40), NodeId(41), NodeId(54)];
    for aggregate in [Aggregate::Sum, Aggregate::Max] {
        let q = AggregateKnnQuery::new(group.clone(), 3).with_aggregate(aggregate);
        let (got, stats) = fw.aggregate_knn_with_stats(&ad, &q).unwrap();

        // Reference: the unbounded per-member evaluation (the previous
        // implementation), combined the same way.
        let mut unbounded_settled = 0usize;
        let mut acc: std::collections::HashMap<u64, (Weight, usize)> = Default::default();
        for &m in &group {
            let res = fw.range(&ad, &RangeQuery::new(m, Weight::INFINITY)).unwrap();
            unbounded_settled += res.stats.nodes_settled;
            for hit in &res.hits {
                let entry = acc.entry(hit.object.0).or_insert((Weight::ZERO, 0));
                entry.0 = aggregate.combine(entry.0, hit.distance);
                entry.1 += 1;
            }
        }
        let mut want: Vec<(u64, Weight)> = acc
            .into_iter()
            .filter(|&(_, (_, seen))| seen == group.len())
            .map(|(o, (d, _))| (o, d))
            .collect();
        want.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        want.truncate(3);

        assert_eq!(got.len(), want.len(), "{aggregate:?}");
        for (hit, (o, d)) in got.iter().zip(&want) {
            assert_eq!(hit.object.0, *o, "{aggregate:?}");
            assert!(hit.distance.approx_eq(*d), "{aggregate:?}: {} vs {}", hit.distance, d);
        }
        // The point of the fix: the bounded evaluation must do strictly
        // less settling work than three unbounded component sweeps.
        assert!(
            stats.nodes_settled < unbounded_settled,
            "{aggregate:?}: pruning never engaged ({} vs {unbounded_settled} settled)",
            stats.nodes_settled
        );
    }
}

#[test]
fn equal_distance_ties_prefer_objects_over_nodes() {
    // An object exactly at a node (fraction 0) must be reported at the
    // distance of that node, and popping it may not depend on whether the
    // node is expanded first.
    let fw = build(simple::chain(10, 1.0), 2, 2);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let e = fw.network().edge_between(NodeId(4), NodeId(5)).unwrap();
    let (a, _) = fw.network().edge(e).endpoints();
    ad.insert(fw.network(), fw.hierarchy(), Object::new(ObjectId(1), e, 0.0, CategoryId(0)))
        .unwrap();
    let res = fw.knn(&ad, &KnnQuery::new(NodeId(0), 1)).unwrap();
    assert_eq!(res.hits.len(), 1);
    let node_dist = res.distance_to_node(a).unwrap();
    assert!(res.hits[0].distance.approx_eq(node_dist));
}

#[test]
fn disconnected_component_objects_are_unreachable() {
    // Two grids glued into one id space with no connecting edge: objects
    // in the far component are invisible to queries from the near one.
    let mut b = road_network::graph::RoadNetwork::builder();
    for i in 0..4 {
        b.add_node(road_network::Point::new(i as f64, 0.0));
    }
    for i in 0..4 {
        b.add_node(road_network::Point::new(i as f64, 10.0));
    }
    for i in 0..3u32 {
        b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        b.add_edge(NodeId(i + 4), NodeId(i + 5), 1.0).unwrap();
    }
    let fw = build(b.build(), 2, 1);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let far_edge = fw.network().edge_between(NodeId(4), NodeId(5)).unwrap();
    let near_edge = fw.network().edge_between(NodeId(0), NodeId(1)).unwrap();
    ad.insert(fw.network(), fw.hierarchy(), Object::new(ObjectId(1), far_edge, 0.5, CategoryId(0)))
        .unwrap();
    ad.insert(
        fw.network(),
        fw.hierarchy(),
        Object::new(ObjectId(2), near_edge, 0.5, CategoryId(0)),
    )
    .unwrap();
    let res = fw.knn(&ad, &KnnQuery::new(NodeId(0), 5)).unwrap();
    assert_eq!(res.hits.len(), 1, "only the same-component object is reachable");
    assert_eq!(res.hits[0].object, ObjectId(2));
    // Range across the gap likewise finds nothing extra.
    let res = fw.range(&ad, &RangeQuery::new(NodeId(0), Weight::new(1e6))).unwrap();
    assert_eq!(res.hits.len(), 1);
}

/// Closing an edge (Fig. 16's "deletion") strands the objects on it: they
/// are unreachable, not hits at distance `inf` — for the in-memory and the
/// paged engine alike, since both run one loop.
fn closed_edge_world() -> (RoadFramework, AssociationDirectory, road_core::PagedEngine) {
    let mut fw = build(simple::grid(8, 8, 1.0), 4, 2);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for (id, e) in [(1, EdgeId(0)), (2, EdgeId(40))] {
        let o = Object::new(ObjectId(id), e, 0.5, CategoryId(0));
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    fw.set_edge_weight(EdgeId(40), Weight::INFINITY).unwrap();
    let paged = road_core::PagedEngine::new(&fw, &ad, Default::default()).unwrap();
    (fw, ad, paged)
}

#[test]
fn objects_on_closed_edges_are_unreachable_not_infinitely_far() {
    let (fw, ad, paged) = closed_edge_world();
    let reachable = [SearchHit { object: ObjectId(1), distance: Weight::new(2.5) }];
    let knn = KnnQuery::new(NodeId(3), 5);
    assert_eq!(oracle_knn(&fw, &ad, &knn), reachable);
    assert_eq!(fw.knn(&ad, &knn).unwrap().hits, reachable);
    assert_eq!(paged.knn(&knn).unwrap().hits, reachable);
    let range = RangeQuery::new(NodeId(3), Weight::INFINITY);
    assert_eq!(oracle_range(&fw, &ad, &range), reachable);
    assert_eq!(fw.range(&ad, &range).unwrap().hits, reachable);
    assert_eq!(paged.range(&range).unwrap().hits, reachable);
}

#[test]
fn aggregate_knn_skips_objects_on_closed_edges() {
    let (fw, ad, paged) = closed_edge_world();
    // Sum over the group {n3, n5}: o1 sits 2.5 and 4.5 away.
    let q = road_core::search::AggregateKnnQuery::new(vec![NodeId(3), NodeId(5)], 5);
    let reachable = [SearchHit { object: ObjectId(1), distance: Weight::new(7.0) }];
    assert_eq!(fw.aggregate_knn(&ad, &q).unwrap(), reachable);
    assert_eq!(paged.aggregate_knn(&q).unwrap(), reachable);
}

#[test]
fn point_to_point_edge_cases() {
    let fw = build(simple::grid(6, 6, 1.0), 2, 2);
    // Distance to self is zero with a trivial path.
    assert_eq!(fw.network_distance(NodeId(8), NodeId(8)).unwrap(), Some(Weight::ZERO));
    let p = fw.shortest_path(NodeId(8), NodeId(8)).unwrap().unwrap();
    assert!(p.is_empty());
    assert_eq!(p.source(), NodeId(8));
    // Adjacent nodes take the direct edge.
    let d = fw.network_distance(NodeId(0), NodeId(1)).unwrap().unwrap();
    assert_eq!(d, Weight::new(1.0));
    // Out-of-bounds errors cleanly.
    assert!(fw.network_distance(NodeId(999), NodeId(0)).is_err());
}

/// An edge between two *isolated* nodes carries no topological hint about
/// its Rnet, so the framework hosts it in the leaf geometrically nearest
/// the endpoints — not in an arbitrary first leaf.
#[test]
fn edge_between_isolated_nodes_joins_nearest_leaf() {
    let mut fw = build(simple::grid(8, 8, 1.0), 4, 1);
    // Two new intersections far beyond the grid's (7, 7) corner.
    let a = fw.add_node(road_network::Point::new(30.0, 30.0));
    let b = fw.add_node(road_network::Point::new(31.0, 30.0));
    let w = Weight::new(1.0);
    let (e, _) = fw.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();

    let hier = fw.hierarchy();
    let chosen = hier.leaf_of_edge(e);
    assert!(chosen.is_valid());
    // The nearest existing structure is the corner node at (7, 7): the
    // chosen leaf must be one hosting an edge incident to that corner,
    // never a leaf from the far side of the grid.
    let corner = NodeId(63); // grid node at (7, 7)
    let corner_leaves: Vec<_> =
        fw.network().neighbors(corner).map(|(ce, _)| hier.leaf_of_edge(ce)).collect();
    assert!(
        corner_leaves.contains(&chosen),
        "edge hosted in {chosen:?}, expected one of the corner leaves {corner_leaves:?}"
    );
    // The repair left the overlay exact.
    fw.verify().unwrap();
}
