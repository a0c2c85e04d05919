//! The partition, pinned to the byte: FNV-1a-64 over what
//! [`partition_edges`] (2, 4 and 16 parts) and [`bisect`] return for a
//! fixed family of 238 generated edge sets — grids, chains
//! and rings, the four dataset presets shrunk to a few hundred edges,
//! random geometric graphs with parallel edges, edge lists that are
//! shuffled, thinned or repeat an id, 0 to ~2,000 edges. (A `RoadNetwork`
//! cannot hold a self-loop — both ways of adding an edge refuse one — so
//! there is none to generate.)
//!
//! The goldens were recorded on the hash-map Kernighan–Lin the flat-array
//! one replaced, before the rewrite, and the rewrite is held to them: it
//! must not move one edge.
//!
//! **A toolchain whose `HashMap` iterates differently fails here first.**
//! The refinement breaks equal-gain ties by taking the *first* best
//! candidate, and candidates are visited in the iteration order of a
//! `FastSet` of border-node ids, itself seeded in the iteration order of a
//! `FastMap` keyed by node id (ARCHITECTURE.md, "Hierarchy construction").
//! With the fixed-seed `FxHasher` that order is a pure function of the
//! insert/remove history *and of std's hash-table implementation*: a std
//! that changes its probing, growth policy or group width re-partitions
//! every world — every stored image, every `search_counters.rs` golden,
//! `benchmark/baseline.json`'s exact-count rows — and this file is the
//! smallest place that shows it. If it fails after a toolchain bump with no
//! change to `partition.rs`, that is what happened; the cure is the
//! lowest-edge-position tie-break the architecture note describes, landed
//! together with a re-record of everything above. Under
//! `--features shuffle-hasher` the order changes from process to process by
//! design, so the goldens are compiled out there.

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(not(feature = "shuffle-hasher"))]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use road_network::generator::{simple, Dataset};
use road_network::geometry::Point;
use road_network::graph::{NetworkBuilder, RoadNetwork};
use road_network::ids::{EdgeId, NodeId};
use road_network::partition::{bisect, internal_border_count, partition_edges, PartitionOptions};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Hash of one family plus how many edge sets went into it.
#[derive(Debug, PartialEq, Eq)]
struct Family {
    cases: usize,
    hash: u64,
}

impl Family {
    fn new() -> Family {
        Family { cases: 0, hash: FNV_OFFSET }
    }

    /// Folds in everything the partitioner says about one edge set: the
    /// bisection (and its border count), then 2, 4 and 16 parts.
    fn case(&mut self, g: &RoadNetwork, edges: &[EdgeId]) {
        self.cases += 1;
        self.hash = fnv1a(self.hash, &(edges.len() as u64).to_le_bytes());
        let side = bisect(g, edges);
        assert_eq!(side.len(), edges.len());
        let bytes: Vec<u8> = side.iter().map(|&s| s as u8).collect();
        self.hash = fnv1a(self.hash, &bytes);
        let borders = internal_border_count(g, edges, &side) as u64;
        self.hash = fnv1a(self.hash, &borders.to_le_bytes());
        for parts in [2usize, 4, 16] {
            let assignment = partition_edges(g, edges, parts, &PartitionOptions::default());
            assert_eq!(assignment.len(), edges.len());
            assert!(assignment.iter().all(|&p| (p as usize) < parts));
            if parts == 2 && edges.len() > 1 {
                // One binary round of the recursion *is* the bisection
                // (a lone edge stays in part 0 without being bisected).
                assert!(assignment.iter().zip(&side).all(|(&p, &s)| p == s as u16));
            }
            for p in assignment {
                self.hash = fnv1a(self.hash, &p.to_le_bytes());
            }
        }
    }

    fn all_edges(&mut self, g: &RoadNetwork) {
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        self.case(g, &edges);
    }
}

/// `n` uniform points in a `width x height` box, an edge between every
/// pair closer than `radius`, every fifth edge doubled and every eleventh
/// tripled (parallel edges: distinct ids, same endpoints).
fn random_geometric(n: usize, width: f64, height: f64, radius: f64, seed: u64) -> RoadNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::default();
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.random_range(0.0..width), rng.random_range(0.0..height)))
        .collect();
    let ids: Vec<NodeId> = pts.iter().map(|&p| b.add_node(p)).collect();
    let mut made = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let d = pts[i].distance(pts[j]);
            if d >= radius {
                continue;
            }
            made += 1;
            let copies = 1 + made.is_multiple_of(5) as usize + made.is_multiple_of(11) as usize;
            for _ in 0..copies {
                // Half the copies run the other way round.
                let (a, z) = if rng.random_range(0..2u32) == 0 { (i, j) } else { (j, i) };
                b.add_edge(ids[a], ids[z], d + 0.001).unwrap();
            }
        }
    }
    b.build()
}

#[test]
fn grids() {
    let mut f = Family::new();
    for (w, h) in [
        (1, 1),
        (2, 1),
        (1, 3),
        (2, 2),
        (3, 2),
        (3, 3),
        (4, 4),
        (5, 3),
        (2, 9),
        (6, 6),
        (7, 7),
        (8, 8),
        (9, 9),
        (10, 10),
        (12, 12),
        (16, 9),
        (9, 16),
        (15, 15),
        (20, 20),
        (3, 100),
        (25, 25),
        (40, 24),
        (32, 32),
    ] {
        f.all_edges(&simple::grid(w, h, 1.0));
    }
    // A stretched lattice: the wider axis is decided by the spacing.
    f.all_edges(&simple::grid(11, 13, 0.25));
    assert_eq!(f, Family { cases: 24, hash: 17865216135615737392 });
}

#[test]
fn chains_and_rings() {
    let mut f = Family::new();
    for n in [1, 2, 3, 4, 5, 6, 8, 16, 17, 33, 64, 200, 501, 1200, 2001] {
        f.all_edges(&simple::chain(n, 1.0));
    }
    for n in [3, 4, 5, 10, 31, 100, 640, 2000] {
        f.all_edges(&simple::ring(n, 1.0));
    }
    assert_eq!(f, Family { cases: 23, hash: 2339861085005849615 });
}

#[test]
fn small_presets() {
    let mut f = Family::new();
    for (dataset, scale) in [
        (Dataset::CaHighways, 0.004),
        (Dataset::CaHighways, 0.02),
        (Dataset::CaHighways, 0.08),
        (Dataset::NaHighways, 0.001),
        (Dataset::NaHighways, 0.004),
        (Dataset::NaHighways, 0.01),
        (Dataset::SfStreets, 0.0005),
        (Dataset::SfStreets, 0.002),
        (Dataset::SfStreets, 0.005),
        (Dataset::SfStreets, 0.008),
        (Dataset::Continent, 0.0002),
        (Dataset::Continent, 0.0008),
        (Dataset::Continent, 0.0015),
    ] {
        for seed in [7u64, 0xEDB7_2009] {
            let g = dataset.generate_scaled(scale, seed).unwrap();
            assert!(g.num_edges() <= 2_300, "{dataset} at {scale}: {} edges", g.num_edges());
            f.all_edges(&g);
        }
    }
    assert_eq!(f, Family { cases: 26, hash: 2608250959225758914 });
}

#[test]
fn random_geometric_graphs() {
    let mut f = Family::new();
    let mut total_edges = 0;
    for seed in 0..40u64 {
        // 8 to 320 nodes, boxes from 4:1 to 1:4, mean degree about 3 to 9.
        let n = 8 + (seed as usize * 8);
        let (width, height) = match seed % 4 {
            0 => (100.0, 100.0),
            1 => (200.0, 50.0),
            2 => (50.0, 200.0),
            _ => (100.0, 99.0),
        };
        let degree = 3.0 + (seed % 7) as f64;
        let radius = (degree * width * height / (std::f64::consts::PI * n as f64)).sqrt();
        let g = random_geometric(n, width, height, radius, 0x9E0 ^ seed);
        total_edges += g.num_edges();
        f.all_edges(&g);

        // The same graph through edge lists the hierarchy never passes but
        // the public functions accept: shuffled, thinned, an id repeated.
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let mut edges: Vec<EdgeId> = g.edge_ids().collect();
        edges.shuffle(&mut rng);
        f.case(&g, &edges);
        let mut thinned: Vec<EdgeId> =
            g.edge_ids().filter(|_| rng.random_range(0..3u32) > 0).collect();
        f.case(&g, &thinned);
        if thinned.len() >= 2 {
            for _ in 0..1 + thinned.len() / 10 {
                let again = thinned[rng.random_range(0..thinned.len())];
                thinned.insert(rng.random_range(0..=thinned.len()), again);
            }
            f.case(&g, &thinned);
        }
    }
    assert!(total_edges > 10_000, "the family shrank: {total_edges} edges");
    assert_eq!(f, Family { cases: 160, hash: 3833185265446430974 });
}

#[test]
fn tiny_groups() {
    let mut f = Family::new();
    // Groups of 0, 1 and 3 edges, out of a graph that has more.
    let g = simple::grid(4, 4, 1.0);
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    f.case(&g, &[]);
    f.case(&g, &edges[5..6]);
    f.case(&g, &edges[2..5]);
    f.case(&g, &[edges[0], edges[23], edges[11]]);
    f.case(&g, &edges[..4]);
    assert_eq!(f, Family { cases: 5, hash: 14788140720301558697 });
}
