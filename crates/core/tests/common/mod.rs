//! Shared by the construction suites: a world that takes a build through
//! both arms of the shortcut builder's size switch, and the comparison of
//! two stores that a world with equally short paths still allows.

use road_core::shortcut::{ShortcutStore, DENSE_MAX_NODES};
use road_core::{RnetHierarchy, RnetId};
use road_network::generator::simple;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::hash::FastMap;
use road_network::{NodeId, Weight};

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

/// The local graph Rnet `r`'s shortcuts of `store` were computed over, as
/// the lightest open arc per ordered node pair: the Rnet's own edges at a
/// leaf, its children's shortcuts above.
fn local_arcs(
    g: &RoadNetwork,
    hier: &RnetHierarchy,
    store: &ShortcutStore,
    r: RnetId,
) -> FastMap<(NodeId, NodeId), f64> {
    let mut arcs = FastMap::default();
    let mut arc = |u: NodeId, v: NodeId, w: Weight| {
        if w.is_finite() {
            let slot = arcs.entry((u, v)).or_insert(f64::INFINITY);
            *slot = slot.min(w.get());
        }
    };
    if hier.is_leaf(r) {
        for &e in hier.leaf_edge_list(r) {
            let (u, v) = g.edge(e).endpoints();
            let w = g.weight(e, WeightKind::Distance);
            arc(u, v, w);
            arc(v, u, w);
        }
    } else {
        for child in hier.children(r) {
            for &from in hier.borders(child) {
                for sc in store.from(hier, child, from) {
                    arc(from, sc.to, sc.dist);
                }
            }
        }
    }
    arcs
}

/// Byte equality, less the one thing a world with equally short paths
/// leaves open. The dense arm of the builder reads a kept pair's path out
/// of its elimination, the contractor arm and the all-pairs oracle search
/// for it with a sealed Dijkstra; where several border-free paths are
/// equally short the two may store different ones. Everything else must
/// still agree: per Rnet the same `(from, to)` pairs in the same order at
/// bit-equal distances, and in either store every waypoint chain a real
/// path of the Rnet's local graph that avoids the Rnet's other borders and
/// sums, left to right, to the stored distance bit for bit.
#[allow(dead_code)] // parallel_build.rs shares this module and compares one builder with itself
pub fn assert_stores_equal_up_to_tied_paths(
    g: &RoadNetwork,
    hier: &RnetHierarchy,
    a: &ShortcutStore,
    b: &ShortcutStore,
    label: &str,
) {
    assert_eq!(a.num_shortcuts(), b.num_shortcuts(), "{label}: shortcut counts diverged");
    for r in (1..=hier.levels()).flat_map(|level| hier.rnets_at_level(level)) {
        let borders = hier.borders(r);
        for &from in borders {
            let heads = |s: &ShortcutStore| -> Vec<(NodeId, u64)> {
                s.from(hier, r, from).map(|sc| (sc.to, sc.dist.get().to_bits())).collect()
            };
            assert_eq!(heads(a), heads(b), "{label}: {r:?} shortcuts of {from} diverged");
        }
        for (store, name) in [(a, "first"), (b, "second")] {
            let arcs = local_arcs(g, hier, store, r);
            for &from in borders {
                for sc in store.from(hier, r, from) {
                    let at = format!(
                        "{label}: {name} store, {r:?} {from} -> {} via {:?}",
                        sc.to, sc.via
                    );
                    assert!(sc.via.iter().all(|w| !borders.contains(w)), "{at}: crosses a border");
                    let mut walked = 0.0;
                    let mut u = from;
                    for &v in sc.via.iter().chain([&sc.to]) {
                        let hop = arcs.get(&(u, v));
                        walked += *hop.unwrap_or_else(|| panic!("{at}: no arc {u} -> {v}"));
                        u = v;
                    }
                    assert_eq!(walked.to_bits(), sc.dist.get().to_bits(), "{at}: sums to {walked}");
                }
            }
        }
    }
}
