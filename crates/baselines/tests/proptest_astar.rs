//! Property test for the Euclidean baseline's A*: with the admissible
//! heuristic derived from the network, it returns plain Dijkstra's
//! distance on arbitrary connected networks, for every metric.

use proptest::prelude::*;
use road_baselines::euclidean::AStar;
use road_network::dijkstra::shortest_path_weight;
use road_network::generator::simple;
use road_network::graph::WeightKind;
use road_network::NodeId;

fn net_strategy() -> impl Strategy<Value = road_network::graph::RoadNetwork> {
    (5usize..60, 0usize..25, 0u64..500)
        .prop_map(|(n, extra, seed)| simple::random_connected(n, extra, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A* with the derived admissible heuristic equals Dijkstra, for every
    /// metric.
    #[test]
    fn astar_equals_dijkstra(g in net_strategy(), a in 0u32..60, b in 0u32..60) {
        let a = NodeId(a % g.num_nodes() as u32);
        let b = NodeId(b % g.num_nodes() as u32);
        for kind in WeightKind::ALL {
            let want = shortest_path_weight(&g, kind, a, b);
            let got = AStar::for_network(&g, kind).one_to_one(&g, kind, a, b);
            match (got, want) {
                (Some(x), Some(y)) => prop_assert!(x.approx_eq(y), "{:?}: {} vs {}", kind, x, y),
                (x, y) => prop_assert_eq!(x.is_some(), y.is_some()),
            }
        }
    }

    /// The path A* unpacks from its predecessor links joins its endpoints
    /// over real edges and sums to the distance it reports.
    #[test]
    fn astar_paths_validate(g in net_strategy(), a in 0u32..60, b in 0u32..60) {
        let a = NodeId(a % g.num_nodes() as u32);
        let b = NodeId(b % g.num_nodes() as u32);
        for kind in WeightKind::ALL {
            let mut astar = AStar::for_network(&g, kind);
            let dist = astar.one_to_one(&g, kind, a, b);
            let path = astar.shortest_path(&g, kind, a, b);
            prop_assert_eq!(path.as_ref().map(|p| p.total()), dist);
            if let Some(p) = path {
                prop_assert_eq!((p.source(), p.target()), (a, b));
                prop_assert!(p.validate(&g, kind), "{:?}: {:?}", kind, p);
            }
        }
    }
}
