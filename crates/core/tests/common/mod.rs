//! Shared by the construction suites: a world that takes a build through
//! both arms of the shortcut builder's size switch.

use road_core::shortcut::DENSE_MAX_NODES;
use road_core::RnetHierarchy;
use road_network::generator::simple;
use road_network::graph::RoadNetwork;
use road_network::NodeId;

const WIDTH: u32 = 27;
const HEIGHT: u32 = 26;

/// The grid [`two_arm_hierarchy`] partitions (unit weights; callers
/// reweight it first).
pub fn two_arm_grid() -> RoadNetwork {
    simple::grid(WIDTH as usize, HEIGHT as usize, 1.0)
}

/// Two levels of fanout 2 over [`two_arm_grid`]: leaf 0 owns the left 21
/// columns — 546 nodes, above [`DENSE_MAX_NODES`], so its border matrix is
/// the contractor's — while the other three leaves (the rest, by rows) and
/// both level-1 Rnets are small enough for dense elimination. Contraction
/// order and witness budget are read by the contractor alone, so sweeps
/// over them need a world like this one; that both arms have work is
/// asserted here.
pub fn two_arm_hierarchy(g: &RoadNetwork) -> RnetHierarchy {
    let hier = RnetHierarchy::from_leaf_assignment(g, 2, 2, |e| {
        let (a, b) = g.edge(e).endpoints();
        let (col, row) = (a.0.max(b.0) % WIDTH, a.0.max(b.0) / WIDTH);
        if col <= 20 {
            0
        } else {
            1 + row * 3 / HEIGHT
        }
    })
    .unwrap();
    let leaf_nodes = |leaf| {
        let mut nodes: Vec<NodeId> = hier
            .leaf_edge_list(leaf)
            .iter()
            .flat_map(|&e| <[NodeId; 2]>::from(g.edge(e).endpoints()))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    };
    let sizes: Vec<usize> = hier.rnets_at_level(2).map(leaf_nodes).collect();
    assert!(sizes.iter().any(|&n| n > DENSE_MAX_NODES), "nothing for the contractor: {sizes:?}");
    assert!(sizes.iter().any(|&n| n <= DENSE_MAX_NODES), "nothing for the kernel: {sizes:?}");
    hier
}
