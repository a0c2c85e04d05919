//! The reproduction's keystone test: all four approaches (ROAD, NetExp,
//! Euclidean, DistIdx) must return identical answers for identical
//! queries — they differ only in cost.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_baselines::road_engine::RoadEngineConfig;
use road_baselines::{DistIdxEngine, Engine, EuclideanEngine, NetExpEngine, RoadEngine};
use road_core::model::{CategoryId, Object, ObjectFilter, ObjectId};
use road_core::search::SearchHit;
use road_network::generator::{simple, Dataset};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, NodeId, Weight};

fn scatter(g: &RoadNetwork, count: usize, categories: u16, seed: u64) -> Vec<Object> {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    (0..count)
        .map(|i| {
            Object::new(
                ObjectId(i as u64),
                edges[rng.random_range(0..edges.len())],
                rng.random_range(0.0..=1.0),
                CategoryId(rng.random_range(0..categories.max(1))),
            )
        })
        .collect()
}

fn engines(g: &RoadNetwork, kind: WeightKind, objects: &[Object]) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(NetExpEngine::build(g.clone(), kind, objects.to_vec(), 50)),
        Box::new(EuclideanEngine::build(g.clone(), kind, objects.to_vec(), 50)),
        Box::new(DistIdxEngine::build(g.clone(), kind, objects.to_vec(), 50)),
        Box::new(
            RoadEngine::build(
                g.clone(),
                kind,
                objects.to_vec(),
                50,
                RoadEngineConfig { fanout: 4, levels: 3 },
            )
            .unwrap(),
        ),
    ]
}

fn normalize(hits: &[SearchHit]) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = hits.iter().map(|h| (h.object.0, h.distance.get())).collect();
    v.sort_by_key(|&(o, _)| o);
    v
}

/// DistIdx stores f32 distances (4-byte signature entries), so agreement
/// is up to single-precision rounding, not bit-exact.
fn assert_agree(results: &[(&'static str, Vec<SearchHit>)], ctx: &str) {
    let (ref_name, ref_hits) = &results[0];
    let want = normalize(ref_hits);
    for (name, hits) in &results[1..] {
        let got = normalize(hits);
        assert_eq!(
            got.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            want.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            "{ctx}: {name} returns different objects than {ref_name}"
        );
        for (&(o, dg), &(_, dw)) in got.iter().zip(&want) {
            let scale = dg.abs().max(dw.abs()).max(1.0);
            assert!(
                (dg - dw).abs() <= 1e-5 * scale,
                "{ctx}: {name} distance for o{o} = {dg} vs {ref_name} {dw}"
            );
        }
    }
}

#[test]
fn all_engines_agree_on_knn_grid() {
    let g = simple::grid(13, 13, 1.0);
    let objects = scatter(&g, 20, 3, 1);
    let mut engines = engines(&g, WeightKind::Distance, &objects);
    let mut rng = StdRng::seed_from_u64(2);
    for trial in 0..12 {
        let node = NodeId(rng.random_range(0..g.num_nodes() as u32));
        let k = rng.random_range(1..6);
        let results: Vec<(&'static str, Vec<SearchHit>)> = engines
            .iter_mut()
            .map(|e| (e.name(), e.knn(node, k, &ObjectFilter::Any).hits))
            .collect();
        assert_agree(&results, &format!("knn trial {trial} node {node} k {k}"));
        assert_eq!(results[0].1.len(), k.min(objects.len()));
    }
}

#[test]
fn all_engines_agree_on_range_grid() {
    let g = simple::grid(11, 11, 1.0);
    let objects = scatter(&g, 15, 2, 3);
    let mut engines = engines(&g, WeightKind::Distance, &objects);
    let mut rng = StdRng::seed_from_u64(4);
    for trial in 0..10 {
        let node = NodeId(rng.random_range(0..g.num_nodes() as u32));
        let radius = Weight::new(rng.random_range(1.0..15.0));
        let results: Vec<(&'static str, Vec<SearchHit>)> = engines
            .iter_mut()
            .map(|e| (e.name(), e.range(node, radius, &ObjectFilter::Any).hits))
            .collect();
        assert_agree(&results, &format!("range trial {trial} node {node} r {radius}"));
    }
}

#[test]
fn all_engines_agree_with_category_filters() {
    let g = simple::grid(10, 10, 1.0);
    let objects = scatter(&g, 24, 4, 5);
    let mut engines = engines(&g, WeightKind::Distance, &objects);
    for cat in 0..4u16 {
        let filter = ObjectFilter::Category(CategoryId(cat));
        let results: Vec<(&'static str, Vec<SearchHit>)> =
            engines.iter_mut().map(|e| (e.name(), e.knn(NodeId(37), 4, &filter).hits)).collect();
        assert_agree(&results, &format!("filtered knn cat {cat}"));
    }
}

#[test]
fn all_engines_agree_on_ca_like_network() {
    let g = Dataset::CaHighways.generate_scaled(0.02, 9).unwrap();
    let objects = scatter(&g, 10, 1, 6);
    let mut engines = engines(&g, WeightKind::Distance, &objects);
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..6 {
        let node = NodeId(rng.random_range(0..g.num_nodes() as u32));
        let results: Vec<(&'static str, Vec<SearchHit>)> = engines
            .iter_mut()
            .map(|e| (e.name(), e.knn(node, 3, &ObjectFilter::Any).hits))
            .collect();
        assert_agree(&results, &format!("CA trial {trial} node {node}"));
    }
}

#[test]
fn all_engines_agree_under_travel_time_metric() {
    // Travel time is not proportional to geometry (speeds differ per
    // road), which stresses the Euclidean engine's admissibility handling.
    let g = Dataset::CaHighways.generate_scaled(0.015, 13).unwrap();
    let objects = scatter(&g, 8, 1, 8);
    let mut engines = engines(&g, WeightKind::TravelTime, &objects);
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..5 {
        let node = NodeId(rng.random_range(0..g.num_nodes() as u32));
        let results: Vec<(&'static str, Vec<SearchHit>)> = engines
            .iter_mut()
            .map(|e| (e.name(), e.knn(node, 2, &ObjectFilter::Any).hits))
            .collect();
        assert_agree(&results, &format!("travel-time trial {trial} node {node}"));
    }
}

#[test]
fn all_engines_agree_after_updates() {
    let g = simple::grid(9, 9, 1.0);
    let objects = scatter(&g, 12, 2, 15);
    let mut engines = engines(&g, WeightKind::Distance, &objects);
    let mut rng = StdRng::seed_from_u64(16);
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    let mut next_id = 1000u64;
    for step in 0..10 {
        match step % 3 {
            0 => {
                // weight change on a random edge
                let e = edges[rng.random_range(0..edges.len())];
                let w = Weight::new(rng.random_range(0.2..4.0));
                for eng in engines.iter_mut() {
                    eng.set_edge_weight(e, w);
                }
            }
            1 => {
                // object insertion
                let o = Object::new(
                    ObjectId(next_id),
                    edges[rng.random_range(0..edges.len())],
                    rng.random_range(0.0..=1.0),
                    CategoryId(0),
                );
                next_id += 1;
                for eng in engines.iter_mut() {
                    eng.insert_object(o.clone());
                }
            }
            _ => {
                // object deletion
                let victim = ObjectId(rng.random_range(0..12) as u64);
                for eng in engines.iter_mut() {
                    eng.remove_object(victim);
                }
            }
        }
        let node = NodeId(rng.random_range(0..g.num_nodes() as u32));
        let results: Vec<(&'static str, Vec<SearchHit>)> = engines
            .iter_mut()
            .map(|e| (e.name(), e.knn(node, 3, &ObjectFilter::Any).hits))
            .collect();
        assert_agree(&results, &format!("update step {step}"));
    }
}

#[test]
fn road_visits_fewest_nodes_with_sparse_objects() {
    // The paper's headline: with few objects on a large network, ROAD's
    // pruning visits far fewer node records than blind expansion.
    let g = simple::grid(24, 24, 1.0);
    let objects = scatter(&g, 3, 1, 21);
    let mut netexp = NetExpEngine::build(g.clone(), WeightKind::Distance, objects.clone(), 50);
    let mut road = RoadEngine::build(
        g.clone(),
        WeightKind::Distance,
        objects,
        50,
        RoadEngineConfig { fanout: 4, levels: 3 },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let mut road_total = 0usize;
    let mut netexp_total = 0usize;
    for _ in 0..10 {
        let node = NodeId(rng.random_range(0..g.num_nodes() as u32));
        road_total += road.knn(node, 1, &ObjectFilter::Any).nodes_visited;
        netexp_total += netexp.knn(node, 1, &ObjectFilter::Any).nodes_visited;
    }
    assert!(
        road_total * 2 < netexp_total,
        "ROAD visited {road_total} nodes vs NetExp {netexp_total}; pruning ineffective"
    );
}

#[test]
fn removing_deleted_object_is_harmless() {
    let g = simple::grid(6, 6, 1.0);
    let objects = scatter(&g, 4, 1, 33);
    let mut netexp = NetExpEngine::build(g.clone(), WeightKind::Distance, objects.clone(), 50);
    netexp.remove_object(ObjectId(0));
    netexp.remove_object(ObjectId(0)); // double delete: no panic
    let res = netexp.knn(NodeId(0), 10, &ObjectFilter::Any);
    assert_eq!(res.hits.len(), 3);
}
