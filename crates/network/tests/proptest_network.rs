//! Property tests for the graph substrate: metric properties of shortest
//! paths and partition invariants on arbitrary connected networks.

use proptest::prelude::*;
use road_network::dijkstra::{shortest_path, shortest_path_weight, Dijkstra};
use road_network::generator::simple;
use road_network::graph::WeightKind;
use road_network::partition::{bisect, internal_border_count, partition_edges, PartitionOptions};
use road_network::{EdgeId, NodeId};

fn net_strategy() -> impl Strategy<Value = road_network::graph::RoadNetwork> {
    (5usize..60, 0usize..25, 0u64..500)
        .prop_map(|(n, extra, seed)| simple::random_connected(n, extra, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Undirected network distance is symmetric.
    #[test]
    fn distance_is_symmetric(g in net_strategy(), a in 0u32..60, b in 0u32..60) {
        let a = NodeId(a % g.num_nodes() as u32);
        let b = NodeId(b % g.num_nodes() as u32);
        let ab = shortest_path_weight(&g, WeightKind::Distance, a, b);
        let ba = shortest_path_weight(&g, WeightKind::Distance, b, a);
        match (ab, ba) {
            (Some(x), Some(y)) => prop_assert!(x.approx_eq(y)),
            (x, y) => prop_assert_eq!(x.is_some(), y.is_some()),
        }
    }

    /// Shortest distances satisfy the triangle inequality.
    #[test]
    fn triangle_inequality(g in net_strategy(),
                           a in 0u32..60, b in 0u32..60, c in 0u32..60) {
        let n = g.num_nodes() as u32;
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        let mut dij = Dijkstra::for_network(&g);
        let ab = dij.one_to_one(&g, WeightKind::Distance, a, b);
        let bc = dij.one_to_one(&g, WeightKind::Distance, b, c);
        let ac = dij.one_to_one(&g, WeightKind::Distance, a, c);
        if let (Some(ab), Some(bc), Some(ac)) = (ab, bc, ac) {
            prop_assert!(ac.get() <= ab.get() + bc.get() + 1e-9 * (1.0 + ac.get()));
        }
    }

    /// Reconstructed shortest paths are valid walks with the right total.
    #[test]
    fn shortest_paths_validate(g in net_strategy(), a in 0u32..60, b in 0u32..60) {
        let a = NodeId(a % g.num_nodes() as u32);
        let b = NodeId(b % g.num_nodes() as u32);
        if let Some(p) = shortest_path(&g, WeightKind::Distance, a, b) {
            prop_assert!(p.validate(&g, WeightKind::Distance));
            prop_assert_eq!(p.source(), a);
            prop_assert_eq!(p.target(), b);
            let d = shortest_path_weight(&g, WeightKind::Distance, a, b).unwrap();
            prop_assert!(p.total().approx_eq(d));
        }
    }

    /// Bisection covers every edge exactly once and respects balance.
    #[test]
    fn bisection_invariants(g in net_strategy()) {
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let opts = PartitionOptions::default();
        let side = bisect(&g, &edges, &opts);
        prop_assert_eq!(side.len(), edges.len());
        if edges.len() >= 4 {
            let right = side.iter().filter(|&&s| s).count();
            let min = (edges.len() as f64 * opts.min_balance).floor() as usize;
            prop_assert!(right >= min && edges.len() - right >= min,
                "unbalanced: {} / {}", edges.len() - right, right);
        }
        // Border count is consistent with a recount.
        let _ = internal_border_count(&g, &edges, &side);
    }

    /// Multi-way partitions assign every edge to a valid part.
    #[test]
    fn partition_assigns_all(g in net_strategy(),
                             parts in prop_oneof![Just(2usize), Just(4), Just(8)]) {
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let assignment = partition_edges(&g, &edges, parts, &PartitionOptions::default());
        prop_assert_eq!(assignment.len(), edges.len());
        for &p in &assignment {
            prop_assert!((p as usize) < parts);
        }
    }

    /// Weight mutations round-trip and never corrupt other edges.
    #[test]
    fn weight_updates_are_isolated(mut g in net_strategy(),
                                   idx in 0usize..100, w in 0.01f64..50.0) {
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let e = edges[idx % edges.len()];
        let snapshot: Vec<f64> = edges.iter()
            .map(|&x| g.weight(x, WeightKind::Distance).get()).collect();
        let old = g.set_weight(e, WeightKind::Distance, road_network::Weight::new(w)).unwrap();
        prop_assert_eq!(old.get(), snapshot[idx % edges.len()]);
        for (i, &x) in edges.iter().enumerate() {
            if x != e {
                prop_assert_eq!(g.weight(x, WeightKind::Distance).get(), snapshot[i]);
            } else {
                prop_assert_eq!(g.weight(x, WeightKind::Distance).get(), w);
            }
        }
    }
}
