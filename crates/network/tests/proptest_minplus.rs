//! Differential test of the dense min-plus kernel: on random symmetric
//! local graphs — tree-sparse to clique, any sealed count from "no border"
//! to "no interior", closed (`+∞`) and zero-weight arcs, disconnected
//! pieces — the border matrix of [`minplus::border_matrix`] must equal
//!
//! * the closure ([`minplus::close_arcs`]) of the contractor's remainder,
//!   at witness budgets 0, 64 and unbounded under all three contraction
//!   orders, and
//! * one plain [`LocalDijkstra::run_csr`] per sealed node,
//!
//! bit for bit when the weights are dyadic (every path sum is then exact in
//! `f64`, so "the same distance" has one representation), and within
//! [`Weight::approx_eq`] on arbitrary floats, where the three sum the same
//! arcs in different orders.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_network::contractor::{ContractionOrder, Contractor};
use road_network::csr::{CsrBuilder, CsrGraph};
use road_network::dijkstra::LocalDijkstra;
use road_network::minplus;
use road_network::Weight;

/// How many undirected edges a graph of `n` nodes gets on top of its
/// spanning forest.
#[derive(Clone, Copy, Debug)]
enum Density {
    Tree,
    Sparse,
    Dense,
    Clique,
}

/// A symmetric local graph over `0..n`: a random spanning forest (a tree
/// unless `split`, which leaves two components and so disconnected
/// borders), plus chords by `density`. One edge in eight is closed, one in
/// eight is free; the rest are dyadic `k/64` or arbitrary floats.
fn local_graph(n: usize, density: Density, split: bool, dyadic: bool, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let weight = |rng: &mut StdRng| match rng.random_range(0..8u32) {
        0 => Weight::INFINITY,
        1 => Weight::ZERO,
        _ if dyadic => Weight::new(f64::from(rng.random_range(1..=1024u32)) / 64.0),
        _ => Weight::new(rng.random_range(0.001..100.0)),
    };
    let mut b = CsrBuilder::default();
    let edge = |b: &mut CsrBuilder, rng: &mut StdRng, u: usize, v: usize| {
        let w = weight(rng);
        b.push(u as u32, v as u32, w, 0);
        b.push(v as u32, u as u32, w, 0);
    };
    for v in 1..n {
        if split && v == n / 2 {
            continue; // `v` roots a second component (if nothing below joins them)
        }
        let lo = if split && v > n / 2 { n / 2 } else { 0 };
        let u = rng.random_range(lo..v);
        edge(&mut b, &mut rng, u, v);
    }
    let chords = match density {
        Density::Tree => 0,
        Density::Sparse => n / 2,
        Density::Dense => 4 * n,
        Density::Clique => 0,
    };
    for _ in 0..chords {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v && !(split && (u < n / 2) != (v < n / 2)) {
            edge(&mut b, &mut rng, u, v); // parallel edges welcome: min per pair
        }
    }
    if matches!(density, Density::Clique) {
        for u in 0..n {
            for v in u + 1..n {
                if !(split && (u < n / 2) != (v < n / 2)) {
                    edge(&mut b, &mut rng, u, v);
                }
            }
        }
    }
    let mut g = CsrGraph::default();
    b.finish_into(n, &mut g);
    g
}

fn same(a: &[f64], b: &[f64], exact: bool) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            if exact {
                x.to_bits() == y.to_bits()
            } else {
                Weight::new(x).approx_eq(Weight::new(y))
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_matrix_equals_contraction_closure_and_dijkstra(
        // Small graphs hit the degenerate shapes, large ones cost a cubic
        // closure per comparison: a third of the cases each.
        size in prop_oneof![2usize..=24, 2usize..=96, 2usize..=300],
        density in prop_oneof![
            Just(Density::Tree), Just(Density::Sparse), Just(Density::Dense), Just(Density::Clique)
        ],
        // Sealed share in eighths; 0 and 8 are "no border" and "no interior".
        sealed_eighths in 0usize..=8,
        split in (0u8..4).prop_map(|s| s == 0),
        dyadic in (0u8..2).prop_map(|d| d == 1),
        seed in 0u64..1_000_000,
    ) {
        // Contraction is cubic in the degree fill-in reaches: the sizes up
        // to 300 are for the sparse classes.
        let n = match density {
            Density::Clique => 2 + size % 39,
            Density::Dense => 2 + size % 99,
            Density::Tree | Density::Sparse => size,
        };
        let g = local_graph(n, density, split, dyadic, seed);
        // One border exactly, every so often: the degenerate matrix.
        let sealed = if seed % 7 == 0 { 1 } else { (n * sealed_eighths).div_ceil(8) };

        let (mut elim, mut dense) = (Vec::new(), Vec::new());
        minplus::border_matrix(&g, sealed, &mut elim, &mut dense);
        prop_assert_eq!(dense.len(), sealed * sealed);

        let mut dij = LocalDijkstra::new();
        let mut swept = Vec::with_capacity(sealed * sealed);
        for b in 0..sealed as u32 {
            dij.run_csr(&g, b, &[], 0);
            swept.extend((0..sealed as u32).map(|t| dij.dist(t).get()));
        }
        prop_assert!(same(&dense, &swept, dyadic),
            "dense != per-border Dijkstra (n={} sealed={} {:?} split={})", n, sealed, density, split);

        let mut contractor = Contractor::default();
        let mut remainder = CsrBuilder::default();
        let mut closed = Vec::new();
        for order in [
            ContractionOrder::MinDegree, ContractionOrder::InputOrder, ContractionOrder::ReverseInput,
        ] {
            for budget in [0, 64, usize::MAX] {
                remainder.clear();
                contractor.contract(&g, sealed as u32, order, budget, &mut remainder);
                minplus::close_arcs(sealed, remainder.arcs(), &mut closed);
                prop_assert!(same(&dense, &closed, dyadic),
                    "dense != contraction closure (n={} sealed={} {:?} split={} {:?} budget={})",
                    n, sealed, density, split, order, budget);
            }
        }
    }
}
