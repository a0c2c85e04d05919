//! Tiny deterministic networks for tests, examples and property checks.

use crate::geometry::Point;
use crate::graph::{NetworkBuilder, RoadNetwork};
use crate::hash::FastSet;
use crate::ids::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A `w × h` lattice with uniform `spacing`; node `(x, y)` has id `y*w + x`.
pub fn grid(w: usize, h: usize, spacing: f64) -> RoadNetwork {
    assert!(w >= 1 && h >= 1);
    let mut b = NetworkBuilder::with_capacity(w * h, 2 * w * h);
    for y in 0..h {
        for x in 0..w {
            b.add_node(Point::new(x as f64 * spacing, y as f64 * spacing));
        }
    }
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y), spacing).unwrap();
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1), spacing).unwrap();
            }
        }
    }
    b.build()
}

/// A straight chain of `n` nodes with uniform edge length.
pub fn chain(n: usize, edge_len: f64) -> RoadNetwork {
    assert!(n >= 1);
    let mut b = NetworkBuilder::with_capacity(n, n.saturating_sub(1));
    let ids: Vec<NodeId> =
        (0..n).map(|i| b.add_node(Point::new(i as f64 * edge_len, 0.0))).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], edge_len).unwrap();
    }
    b.build()
}

/// A cycle of `n ≥ 3` nodes laid out on a circle.
pub fn ring(n: usize, edge_len: f64) -> RoadNetwork {
    assert!(n >= 3);
    let mut b = NetworkBuilder::with_capacity(n, n);
    let r = edge_len * n as f64 / std::f64::consts::TAU;
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            b.add_node(Point::new(r * a.cos(), r * a.sin()))
        })
        .collect();
    for i in 0..n {
        b.add_edge(ids[i], ids[(i + 1) % n], edge_len).unwrap();
    }
    b.build()
}

/// A connected random network: a random spanning tree over uniform points
/// plus `extra_edges` random chords. Edge weights equal Euclidean length
/// (plus a tiny epsilon so zero-length edges cannot occur). Deterministic
/// per seed; used heavily by property tests.
pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> RoadNetwork {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::with_capacity(n, n - 1 + extra_edges);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
        .collect();
    let ids: Vec<NodeId> = pts.iter().map(|&p| b.add_node(p)).collect();
    // Random spanning tree: attach each node to a random earlier node.
    for i in 1..n {
        let j = rng.random_range(0..i);
        let w = pts[i].distance(pts[j]) + 0.001;
        b.add_edge(ids[i], ids[j], w).unwrap();
    }
    // Random chords, skipping duplicates/self-loops (best effort).
    let mut added = 0;
    let mut attempts = 0;
    // Chords already drawn, by node pair: at most `extra_edges` of the n²
    // pairs, so a set.
    let mut existing = FastSet::default();
    while added < extra_edges && attempts < extra_edges * 20 + 40 {
        attempts += 1;
        if n < 2 {
            break;
        }
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        let key = (i.min(j) as u32, i.max(j) as u32);
        if !existing.insert(key) {
            continue;
        }
        let w = pts[i].distance(pts[j]) + 0.001;
        if b.add_edge(ids[i], ids[j], w).is_ok() {
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path_weight;
    use crate::graph::WeightKind;
    use crate::weight::Weight;

    #[test]
    fn grid_has_expected_shape() {
        let g = grid(4, 3, 2.0);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // h*(w-1) + (h-1)*w
        assert_eq!(g.connected_components(), 1);
        // Manhattan distance between corners.
        let d = shortest_path_weight(&g, WeightKind::Distance, NodeId(0), NodeId(11)).unwrap();
        assert_eq!(d, Weight::new(2.0 * 5.0));
    }

    #[test]
    fn chain_and_ring_shapes() {
        let c = chain(5, 1.5);
        assert_eq!(c.num_nodes(), 5);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.degree(NodeId(0)), 1);
        assert_eq!(c.degree(NodeId(2)), 2);
        let r = ring(6, 1.0);
        assert_eq!(r.num_edges(), 6);
        assert!(r.node_ids().all(|n| r.degree(n) == 2));
        // Going around the short way: 6-node ring, opposite node = 3 hops.
        let d = shortest_path_weight(&r, WeightKind::Distance, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(d, Weight::new(3.0));
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        for seed in 0..5 {
            let g = random_connected(40, 15, seed);
            assert_eq!(g.num_nodes(), 40);
            assert_eq!(g.connected_components(), 1);
            assert!(g.num_edges() >= 39);
            let g2 = random_connected(40, 15, seed);
            assert_eq!(g2.num_edges(), g.num_edges());
            // Same topology edge by edge.
            for (e1, e2) in g.edge_ids().zip(g2.edge_ids()) {
                assert_eq!(g.edge(e1).endpoints(), g2.edge(e2).endpoints());
            }
        }
    }

    #[test]
    fn single_node_graphs_work() {
        let g = chain(1, 1.0);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        let g = random_connected(1, 3, 7);
        assert_eq!(g.num_nodes(), 1);
    }
}
