//! Highway-like network generator (CA / NA analogue).
//!
//! Real highway datasets are dominated by long chains of degree-2 vertices:
//! CA has 21,048 nodes but only 21,693 edges (ratio 1.031). We reproduce
//! that by (1) building a sparse planar-ish *backbone* of intersections
//! connected to near neighbours, then (2) subdividing backbone segments
//! with degree-2 chain nodes until the exact node/edge targets are met.
//! Subdivision adds one node and one edge at a time, so the cyclomatic
//! number `E - N` is fixed entirely by the backbone — which is how the
//! generator hits both targets exactly.

use super::{add_subdivided_edge, allocate_proportional, RoadClass};
use crate::error::NetworkError;
use crate::graph::{NetworkBuilder, RoadNetwork};
use crate::hash::FastSet;
use crate::unionfind::UnionFind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Targets and tuning for [`generate`].
#[derive(Clone, Debug)]
pub struct HighwayConfig {
    /// Exact number of nodes in the output.
    pub nodes: usize,
    /// Exact number of edges in the output.
    pub edges: usize,
    /// Number of backbone intersections (`<= nodes`).
    pub backbone_nodes: usize,
    /// Side length of the square embedding region.
    pub extent: f64,
    /// RNG seed; equal seeds give identical networks.
    pub seed: u64,
}

/// Generates a highway-like network hitting the configured node and edge
/// counts exactly.
pub fn generate(cfg: &HighwayConfig) -> Result<RoadNetwork, NetworkError> {
    let bb = cfg.backbone_nodes;
    if bb < 2 || bb > cfg.nodes {
        return Err(NetworkError::InfeasibleTargets(format!(
            "backbone_nodes = {bb} must be in [2, nodes = {}]",
            cfg.nodes
        )));
    }
    let cyclomatic = cfg.edges as i64 - cfg.nodes as i64;
    let backbone_edges = bb as i64 + cyclomatic;
    if backbone_edges < bb as i64 - 1 {
        return Err(NetworkError::InfeasibleTargets(format!(
            "edges - nodes = {cyclomatic} leaves the backbone short of a spanning tree"
        )));
    }
    let backbone_edges = backbone_edges as usize;
    let max_edges = bb * (bb - 1) / 2;
    if backbone_edges > max_edges {
        return Err(NetworkError::InfeasibleTargets(format!(
            "backbone cannot carry {backbone_edges} edges over {bb} nodes"
        )));
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // 1. Backbone intersections, uniform over the extent.
    let pts: Vec<(f64, f64)> = (0..bb)
        .map(|_| (rng.random_range(0.0..cfg.extent), rng.random_range(0.0..cfg.extent)))
        .collect();

    // 2. Candidate edges: k nearest neighbours per point found through a
    //    uniform grid (avoids the O(n^2) scan at NA scale).
    let candidates = knn_candidates(&pts, cfg.extent, 8);

    // 3. Kruskal: take a spanning tree from the shortest candidates first,
    //    then keep adding the next-shortest until the edge budget is met.
    let mut uf = UnionFind::new(bb as u32 as usize);
    let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(backbone_edges);
    // Hashed: node pairs, of which the backbone takes a sparse few.
    let mut used = FastSet::default();
    for &(_, a, b) in &candidates {
        if chosen.len() == backbone_edges && uf.components() == 1 {
            break;
        }
        let key = (a.min(b), a.max(b));
        if used.contains(&key) {
            continue;
        }
        let joins = uf.union(a, b);
        if joins || chosen.len() < backbone_edges {
            used.insert(key);
            chosen.push((a, b));
        }
    }
    // The kNN graph is almost surely connected for uniform points; patch up
    // stragglers by wiring component representatives to their nearest
    // outside neighbour.
    while uf.components() > 1 {
        let (a, b) = nearest_cross_component_pair(&pts, &mut uf);
        uf.union(a, b);
        let key = (a.min(b), a.max(b));
        if used.insert(key) {
            chosen.push((a, b));
        }
    }
    // Over-budget can happen when connecting stragglers exceeded the goal;
    // trim non-tree extras (rare, small networks only).
    if chosen.len() > backbone_edges {
        trim_non_tree_edges(&mut chosen, bb, backbone_edges);
    }
    // Under-budget: add random chords.
    let mut attempts = 0;
    while chosen.len() < backbone_edges {
        attempts += 1;
        if attempts > backbone_edges * 50 + 1000 {
            return Err(NetworkError::InfeasibleTargets(
                "could not place enough backbone chords".to_string(),
            ));
        }
        let a = rng.random_range(0..bb as u32);
        let b = rng.random_range(0..bb as u32);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if used.insert(key) {
            chosen.push((a, b));
        }
    }

    // 4. Distribute subdivision nodes over backbone edges by length.
    let lengths: Vec<f64> = chosen
        .iter()
        .map(|&(a, b)| {
            let (ax, ay) = pts[a as usize];
            let (bx, by) = pts[b as usize];
            ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
        })
        .collect();
    let subdivisions = allocate_proportional(cfg.nodes - bb, &lengths);

    // 5. Materialise. Road class per backbone edge: longer segments are
    //    faster interstates, a few carry tolls.
    let mut b = NetworkBuilder::with_capacity(cfg.nodes, cfg.edges);
    let ids: Vec<crate::ids::NodeId> =
        pts.iter().map(|&(x, y)| b.add_node(crate::geometry::Point::new(x, y))).collect();
    let mut sorted_len: Vec<f64> = lengths.clone();
    sorted_len.sort_by(f64::total_cmp);
    let fast_cutoff = sorted_len[sorted_len.len() * 2 / 3];
    for (i, &(u, v)) in chosen.iter().enumerate() {
        let is_fast = lengths[i] >= fast_cutoff;
        let tolled = rng.random_range(0.0..1.0) < 0.07;
        let class = RoadClass {
            speed_kmh: if is_fast { 105.0 } else { 70.0 },
            toll_rate: if tolled { 0.05 } else { 0.01 },
            curvature: 1.02,
        };
        add_subdivided_edge(
            &mut b,
            &mut rng,
            ids[u as usize],
            pts[u as usize],
            ids[v as usize],
            pts[v as usize],
            subdivisions[i],
            class,
        );
    }
    let g = b.build();
    debug_assert_eq!(g.num_nodes(), cfg.nodes);
    debug_assert_eq!(g.num_edges(), cfg.edges);
    Ok(g)
}

/// Sorted `(distance², a, b)` candidate edges from a grid-accelerated kNN.
fn knn_candidates(pts: &[(f64, f64)], extent: f64, k: usize) -> Vec<(f64, u32, u32)> {
    let n = pts.len();
    let cells_per_side = ((n as f64).sqrt().ceil() as usize).max(1);
    let cell = (extent / cells_per_side as f64).max(1e-12);
    let cell_of = |x: f64, y: f64| -> (usize, usize) {
        (
            ((x / cell) as usize).min(cells_per_side - 1),
            ((y / cell) as usize).min(cells_per_side - 1),
        )
    };
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(x, y);
        buckets[cy * cells_per_side + cx].push(i as u32);
    }
    let mut out: Vec<(f64, u32, u32)> = Vec::with_capacity(n * k);
    // Hashed: node pairs, k per point out of n².
    let mut seen = FastSet::default();
    let mut near: Vec<(f64, u32)> = Vec::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        near.clear();
        let (cx, cy) = cell_of(x, y);
        // Expand rings of cells until we have k candidates (plus one ring
        // of safety margin for correctness at the ring boundary).
        let mut ring = 1usize;
        loop {
            near.clear();
            let x0 = cx.saturating_sub(ring);
            let x1 = (cx + ring).min(cells_per_side - 1);
            let y0 = cy.saturating_sub(ring);
            let y1 = (cy + ring).min(cells_per_side - 1);
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    for &j in &buckets[gy * cells_per_side + gx] {
                        if j as usize != i {
                            let (jx, jy) = pts[j as usize];
                            let d2 = (x - jx).powi(2) + (y - jy).powi(2);
                            near.push((d2, j));
                        }
                    }
                }
            }
            if near.len() >= k
                || (x0 == 0 && y0 == 0 && x1 == cells_per_side - 1 && y1 == cells_per_side - 1)
            {
                break;
            }
            ring += 1;
        }
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(d2, j) in near.iter().take(k) {
            let key = ((i as u32).min(j), (i as u32).max(j));
            if seen.insert(key) {
                out.push((d2, key.0, key.1));
            }
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Finds the closest pair of points spanning two different components
/// (brute force; only runs in the rare patch-up case).
fn nearest_cross_component_pair(pts: &[(f64, f64)], uf: &mut UnionFind) -> (u32, u32) {
    let n = pts.len();
    let mut best = (f64::INFINITY, 0u32, 1u32);
    for i in 0..n {
        for j in (i + 1)..n {
            if uf.find(i as u32) != uf.find(j as u32) {
                let d2 = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                if d2 < best.0 {
                    best = (d2, i as u32, j as u32);
                }
            }
        }
    }
    (best.1, best.2)
}

/// Removes surplus edges while keeping the graph connected.
fn trim_non_tree_edges(chosen: &mut Vec<(u32, u32)>, n: usize, target: usize) {
    while chosen.len() > target {
        let mut removed = false;
        for idx in (0..chosen.len()).rev() {
            // Try removing edge idx; keep if still connected without it.
            let mut uf = UnionFind::new(n);
            for (j, &(a, b)) in chosen.iter().enumerate() {
                if j != idx {
                    uf.union(a, b);
                }
            }
            if uf.components() == 1 {
                chosen.swap_remove(idx);
                removed = true;
                break;
            }
        }
        if !removed {
            break; // every edge is a bridge; cannot trim further
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HighwayConfig {
        HighwayConfig { nodes: 800, edges: 830, backbone_nodes: 80, extent: 500.0, seed: 42 }
    }

    #[test]
    fn hits_exact_targets_and_is_connected() {
        let g = generate(&small_cfg()).unwrap();
        assert_eq!(g.num_nodes(), 800);
        assert_eq!(g.num_edges(), 830);
        assert_eq!(g.connected_components(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_cfg()).unwrap();
        let b = generate(&small_cfg()).unwrap();
        for (ea, eb) in a.edge_ids().zip(b.edge_ids()) {
            assert_eq!(a.edge(ea).endpoints(), b.edge(eb).endpoints());
            assert_eq!(
                a.weight(ea, crate::graph::WeightKind::Distance),
                b.weight(eb, crate::graph::WeightKind::Distance)
            );
        }
        let c = generate(&HighwayConfig { seed: 43, ..small_cfg() }).unwrap();
        // Different seed, different layout (cheap smoke check).
        let same = a
            .edge_ids()
            .zip(c.edge_ids())
            .all(|(ea, ec)| a.edge(ea).endpoints() == c.edge(ec).endpoints());
        assert!(!same);
    }

    #[test]
    fn is_dominated_by_degree_two_chains() {
        let g = generate(&small_cfg()).unwrap();
        let deg2 = g.node_ids().filter(|&n| g.degree(n) == 2).count();
        assert!(
            deg2 as f64 > 0.8 * g.num_nodes() as f64,
            "highway networks should be mostly chains: {deg2}/{}",
            g.num_nodes()
        );
    }

    #[test]
    fn weights_dominate_euclidean_length() {
        let g = generate(&small_cfg()).unwrap();
        for e in g.edge_ids() {
            let w = g.weight(e, crate::graph::WeightKind::Distance).get();
            let l = g.euclidean_length(e);
            assert!(w >= l * 0.999, "edge {e:?}: weight {w} < euclid {l}");
        }
    }

    #[test]
    fn all_metrics_are_positive_where_distance_is() {
        let g = generate(&small_cfg()).unwrap();
        for e in g.edge_ids() {
            let d = g.weight(e, crate::graph::WeightKind::Distance).get();
            let t = g.weight(e, crate::graph::WeightKind::TravelTime).get();
            let toll = g.weight(e, crate::graph::WeightKind::Toll).get();
            if d > 0.0 {
                assert!(t > 0.0);
                assert!(toll > 0.0);
            }
        }
    }

    #[test]
    fn rejects_infeasible_targets() {
        let bad =
            HighwayConfig { nodes: 100, edges: 10, backbone_nodes: 50, extent: 10.0, seed: 1 };
        assert!(matches!(generate(&bad), Err(NetworkError::InfeasibleTargets(_))));
        let bad = HighwayConfig { nodes: 10, edges: 12, backbone_nodes: 40, extent: 10.0, seed: 1 };
        assert!(matches!(generate(&bad), Err(NetworkError::InfeasibleTargets(_))));
    }
}
