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
//!
//! And what the elimination leaves behind ([`minplus::Elimination`]) must
//! be what one *sealed* Dijkstra per sealed node finds — the shortcut
//! builder's dense arm stores the former where it used to run the latter:
//! the same border-free distance for every sealed pair (both infinite
//! together), an unpacked chain that is a real path of the graph through
//! interior nodes only and sums, left to right, to that distance — and on
//! floats without ties, where the shortest path is unique, Dijkstra's own
//! predecessor chain node for node at Dijkstra's own bits.
//!
//! The dense kernels work one triangle of each matrix, which on a symmetric
//! graph must change no bit: the elimination's distances and recorded
//! pivots, the closed border block and the keep rule's cover of every pair
//! equal those of the square kernels they replaced ([`square`], a scalar
//! copy kept here as the reference, and [`minplus::cover_row`]).

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

/// What the open edges of a graph weigh.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Weights {
    /// `k/64`, one edge in eight free: every path sum is exact, ties abound.
    Dyadic,
    /// Arbitrary floats, one edge in eight free (so zero-length detours tie).
    Float,
    /// Arbitrary positive floats: no two paths are equally long.
    TieFreeFloat,
}

/// A symmetric local graph over `0..n`: a random spanning forest (a tree
/// unless `split`, which leaves two components and so disconnected
/// borders), plus chords by `density`. One edge in eight is closed; the
/// rest weigh what `weights` says.
fn local_graph(n: usize, density: Density, split: bool, weights: Weights, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let weight = |rng: &mut StdRng| match rng.random_range(0..8u32) {
        0 => Weight::INFINITY,
        1 if weights != Weights::TieFreeFloat => Weight::ZERO,
        _ if weights == Weights::Dyadic => {
            Weight::new(f64::from(rng.random_range(1..=1024u32)) / 64.0)
        }
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

fn same_distance(x: f64, y: f64, exact: bool) -> bool {
    if exact {
        x.to_bits() == y.to_bits()
    } else {
        Weight::new(x).approx_eq(Weight::new(y))
    }
}

fn same(a: &[f64], b: &[f64], exact: bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same_distance(x, y, exact))
}

/// The graph size a case runs at: contraction and the cubic closure cost
/// what the degree fill-in reaches, so sizes up to 300 are for the sparse
/// classes.
fn size_for(density: Density, size: usize) -> usize {
    match density {
        Density::Clique => 2 + size % 39,
        Density::Dense => 2 + size % 99,
        Density::Tree | Density::Sparse => size,
    }
}

/// One border exactly, every so often (the degenerate matrix); otherwise
/// the share asked for, in eighths.
fn sealed_for(n: usize, sealed_eighths: usize, seed: u64) -> usize {
    if seed.is_multiple_of(7) {
        1
    } else {
        (n * sealed_eighths).div_ceil(8)
    }
}

/// The lightest open arc `u -> v` of `g` — what the matrix was seeded with.
fn arc(g: &CsrGraph, u: u32, v: u32) -> Option<f64> {
    g.out(u)
        .filter(|&(to, w, _)| to == v && w.is_finite())
        .map(|(_, w, _)| w.get())
        .reduce(f64::min)
}

/// What the dense kernels computed over the whole square, before they
/// were cut to one triangle.
struct Square {
    /// The `n x n` matrix after the interior pivots.
    dist: Vec<f64>,
    /// Per entry the last pivot that strictly improved it.
    mid: Vec<Option<u32>>,
    /// The sealed block, closed.
    closed: Vec<f64>,
}

/// The square elimination and closure, scalar: pivot `k` relaxes every
/// live pair `(i, j)`, both below `k`, through `d[i][k] + d[k][j]`.
fn square(g: &CsrGraph, sealed: usize) -> Square {
    let n = g.num_nodes();
    let mut d = vec![f64::INFINITY; n * n];
    for i in 0..n {
        d[i * n + i] = 0.0;
    }
    for u in 0..n as u32 {
        for (v, w, _) in g.out(u) {
            let at = u as usize * n + v as usize;
            d[at] = if w.get() < d[at] { w.get() } else { d[at] };
        }
    }
    let mut mid = vec![None; n * n];
    for k in (sealed..n).rev() {
        for i in 0..k {
            for j in 0..k {
                let via = d[i * n + k] + d[k * n + j];
                if via < d[i * n + j] {
                    (d[i * n + j], mid[i * n + j]) = (via, Some(k as u32));
                }
            }
        }
    }
    let mut closed: Vec<f64> =
        (0..sealed).flat_map(|i| d[i * n..i * n + sealed].to_vec()).collect();
    for k in 0..sealed {
        for i in (0..sealed).filter(|&i| i != k) {
            for j in 0..sealed {
                let via = closed[i * sealed + k] + closed[k * sealed + j];
                if via < closed[i * sealed + j] {
                    closed[i * sealed + j] = via;
                }
            }
        }
    }
    Square { dist: d, mid, closed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_triangle_computes_what_the_square_did(
        size in prop_oneof![2usize..=24, 2usize..=96, 2usize..=300],
        density in prop_oneof![
            Just(Density::Tree), Just(Density::Sparse), Just(Density::Dense), Just(Density::Clique)
        ],
        sealed_eighths in 0usize..=8,
        split in (0u8..4).prop_map(|s| s == 0),
        weights in prop_oneof![
            Just(Weights::Dyadic), Just(Weights::Float), Just(Weights::TieFreeFloat)
        ],
        seed in 0u64..1_000_000,
    ) {
        let n = size_for(density, size);
        let g = local_graph(n, density, split, weights, seed);
        let sealed = sealed_for(n, sealed_eighths, seed);
        let at = format!("n={n} sealed={sealed} {density:?} split={split} {weights:?}");

        let (mut elim, mut closed) = (minplus::Elimination::default(), Vec::new());
        minplus::border_matrix(&g, sealed, &mut elim, &mut closed);
        let want = square(&g, sealed);
        for i in 0..n as u32 {
            for j in (0..n as u32).filter(|&j| j != i) {
                let (d, sq) = (elim.border_free(i, j), want.dist[i as usize * n + j as usize]);
                prop_assert_eq!(d.to_bits(), sq.to_bits(), "d({}, {}) = {} not {}, {}", i, j, d, sq, &at);
                prop_assert_eq!(elim.pivot(i, j), want.mid[i as usize * n + j as usize],
                    "pivot of ({}, {}), {}", i, j, &at);
            }
        }
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&closed), bits(&want.closed), "closed block, {}", &at);

        let (mut pairs, mut row) = (Vec::new(), vec![0.0; sealed]);
        minplus::cover_pairs(&closed, sealed, &mut pairs);
        for b in 0..sealed {
            minplus::cover_row(&closed, sealed, b, &mut row);
            for t in (0..sealed).filter(|&t| t != b) {
                prop_assert_eq!(pairs[b * sealed + t].to_bits(), row[t].to_bits(),
                    "cover of ({}, {}), {}", b, t, &at);
            }
        }
    }

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
        let n = size_for(density, size);
        let weights = if dyadic { Weights::Dyadic } else { Weights::Float };
        let g = local_graph(n, density, split, weights, seed);
        let sealed = sealed_for(n, sealed_eighths, seed);

        let (mut elim, mut dense) = (minplus::Elimination::default(), Vec::new());
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

    #[test]
    fn unpacked_paths_are_what_a_sealed_dijkstra_finds(
        size in prop_oneof![2usize..=24, 2usize..=96, 2usize..=300],
        density in prop_oneof![
            Just(Density::Tree), Just(Density::Sparse), Just(Density::Dense), Just(Density::Clique)
        ],
        sealed_eighths in 0usize..=8,
        split in (0u8..4).prop_map(|s| s == 0),
        weights in prop_oneof![
            Just(Weights::Dyadic), Just(Weights::Float), Just(Weights::TieFreeFloat)
        ],
        seed in 0u64..1_000_000,
    ) {
        let n = size_for(density, size);
        let g = local_graph(n, density, split, weights, seed);
        let sealed = sealed_for(n, sealed_eighths, seed) as u32;
        let exact = weights == Weights::Dyadic;

        let (mut elim, mut closed) = (minplus::Elimination::default(), Vec::new());
        minplus::border_matrix(&g, sealed as usize, &mut elim, &mut closed);
        let mut dij = LocalDijkstra::new();
        let mut chain = Vec::new();
        for b in 0..sealed {
            dij.run_csr(&g, b, &[], sealed);
            for t in (0..sealed).filter(|&t| t != b) {
                let at = format!("{b} -> {t} (n={n} sealed={sealed} {density:?} split={split})");
                let want = dij.dist(t).get();
                prop_assert!(same_distance(elim.border_free(b, t), want, exact),
                    "border-free {} != sealed Dijkstra's {} for {}", elim.border_free(b, t), want, at);
                chain.clear();
                let sum = elim.unpack(b, t, |k| chain.push(k));
                if want == f64::INFINITY {
                    prop_assert!(sum == f64::INFINITY && chain.is_empty(), "no path, yet {}", at);
                    continue;
                }
                prop_assert!(chain.iter().all(|&k| k >= sealed), "{:?} leaves the interior, {}", chain, at);
                let mut walked = 0.0;
                let mut from = b;
                for &to in chain.iter().chain([&t]) {
                    let hop = arc(&g, from, to);
                    prop_assert!(hop.is_some(), "{:?} hops {} -> {} without an arc, {}", chain, from, to, at);
                    walked += hop.unwrap_or(f64::NAN);
                    from = to;
                }
                prop_assert_eq!(walked.to_bits(), sum.to_bits(), "{:?} is not summed left to right, {}", chain, at);
                prop_assert!(same_distance(sum, want, exact), "{:?} is {} long, not {}, {}", chain, sum, want, at);
                if weights == Weights::TieFreeFloat {
                    let mut settled = Vec::new();
                    let mut cur = t;
                    while let Some((prev, _)) = dij.pred(cur).filter(|&(prev, _)| prev != b) {
                        settled.push(prev);
                        cur = prev;
                    }
                    settled.reverse();
                    prop_assert_eq!(&chain, &settled, "not Dijkstra's path, {}", at);
                    prop_assert_eq!(sum.to_bits(), want.to_bits(), "same path, other bits, {}", at);
                }
            }
        }
    }
}
