//! Parallel-construction determinism harness: [`ShortcutStore::build`]
//! with any worker-thread count must be **byte-identical** — same
//! serialized bytes, which the in-memory arenas mirror entry for entry —
//! to the fully sequential build, across random worlds and on a world
//! that runs both arms of the builder.  The scheduler owns *when* an
//! Rnet's map is computed, never *what* it contains or *where* it lands:
//! workers write into per-Rnet indexed slots and the caller commits them
//! in hierarchy order, which is the whole byte-equality argument (see
//! ARCHITECTURE.md, "Parallel construction").
//!
//! The hierarchy is built under the same thread setting
//! ([`RoadBuilder::shortcut_threads`]) by the same argument one layer down
//! — a round's groups are bisected into per-group slots — so the
//! framework-level checks here vary its threads too: same leaf of every
//! edge, same border lists, same image. (Under the shuffled hasher the
//! partition differs from run to run, never within one: one process, one
//! hasher seed, and the thread count still cannot matter.)
//!
//! The same must hold for maintenance, which drains its Rnets the way a
//! build does — a parent as soon as its own children are done — on
//! scratches the framework keeps warm: one seeded history of weight storms,
//! edge additions and removals (repairs that span levels) leaves
//! frameworks built and repairing on 1/2/4/8 workers byte-identical after
//! every step, with equal [`UpdateOutcome`]s, and a batched repair
//! ([`RoadFramework::set_edge_weights`]) leaves the framework
//! byte-identical to applying the same updates one at a time.
//!
//! Weights are exact in f64 (small integers / dyadic rationals), so
//! "equivalent" and "bit-identical" coincide — any scheduling leak shows
//! up as a byte diff, not as an approx-eq near miss.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::shortcut::{ShortcutOptions, ShortcutStore};
use road_core::{HierarchyConfig, RnetHierarchy, UpdateOutcome};
use road_network::generator::simple;
use road_network::graph::RoadNetwork;
use road_network::ids::{EdgeId, NodeId};

/// Rewrites every edge's Distance weight deterministically from `seed` —
/// small integers or dyadic rationals `k/64`, both exact in f64.
fn reweight(g: &mut RoadNetwork, seed: u64, dyadic: bool) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_AD1C);
    let edges: Vec<_> = g.edge_ids().collect();
    for &e in &edges {
        let w = if dyadic {
            Weight::new(rng.random_range(1..=1024u32) as f64 / 64.0)
        } else {
            Weight::new(rng.random_range(1..=16u32) as f64)
        };
        g.set_weight(e, WeightKind::Distance, w).unwrap();
    }
}

fn serialize(hier: &RnetHierarchy, store: &ShortcutStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.serialize_into(hier, &mut out);
    out
}

fn hier_for(g: &RoadNetwork, fanout: usize, levels: u32) -> RnetHierarchy {
    RnetHierarchy::build(g, &HierarchyConfig { fanout, levels, ..Default::default() }).unwrap()
}

/// Builds the framework — hierarchy and shortcuts — sequentially, then
/// with 2/4/8 workers, and diffs partition, borders, store and image.
fn assert_thread_counts_byte_identical(g: &RoadNetwork, fanout: usize, levels: u32, label: &str) {
    let build = |threads: usize| {
        RoadFramework::builder(g.clone())
            .fanout(fanout)
            .levels(levels)
            .shortcut_threads(threads)
            .build()
            .unwrap()
    };
    let reference = build(1);
    let ref_store = serialize(reference.hierarchy(), reference.shortcuts());
    let ref_image = reference.to_bytes();
    for threads in [2usize, 4, 8] {
        let fw = build(threads);
        let (hier, ref_hier) = (fw.hierarchy(), reference.hierarchy());
        for e in g.edge_ids() {
            assert_eq!(
                hier.leaf_index_of_edge(e),
                ref_hier.leaf_index_of_edge(e),
                "{label}: {e} changed leaf at {threads} threads"
            );
        }
        for level in 1..=levels {
            for r in hier.rnets_at_level(level) {
                assert_eq!(
                    hier.borders(r),
                    ref_hier.borders(r),
                    "{label}: borders of {r:?} diverged at {threads} threads"
                );
            }
        }
        assert_eq!(
            serialize(fw.hierarchy(), fw.shortcuts()),
            ref_store,
            "{label}: serialized bytes diverged at {threads} threads"
        );
        assert_eq!(
            fw.shortcuts().size_bytes(),
            reference.shortcuts().size_bytes(),
            "{label}: incremental byte accounting diverged at {threads} threads"
        );
        assert_eq!(fw.to_bytes(), ref_image, "{label}: image diverged at {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random connected worlds under either fanout the sequential suite
    /// pins: thread counts 1/2/4/8 all serialize to the same bytes. (Worlds
    /// this small are dense elimination throughout; the contractor arm is
    /// run by `thread_counts_agree_across_orders_and_budgets`.)
    #[test]
    fn parallel_build_is_byte_identical(
        n in 16usize..70,
        extra in 0usize..25,
        seed in 0u64..1000,
        dyadic in (0u8..2).prop_map(|b| b == 1),
        fanout in (1u32..3).prop_map(|p| 1usize << p),
    ) {
        let mut g = simple::random_connected(n, extra, seed);
        reweight(&mut g, seed, dyadic);
        let levels = if fanout >= 4 { 2 } else { 3 };
        assert_thread_counts_byte_identical(&g, fanout, levels,
            &format!("n={n} extra={extra} seed={seed} dyadic={dyadic} fanout={fanout}"));
    }

    /// Repair parity: a weight-update storm applied as one batched,
    /// level-by-level repair to a framework built on 4 workers leaves it
    /// byte-identical to the same updates applied one edge at a time to a
    /// framework built inline; so does an edge added and one removed
    /// after it, topology repairs on the workers the storm left parked —
    /// and both frameworks still verify against a fresh rebuild.
    #[test]
    fn batched_parallel_repair_matches_sequential(
        n in 20usize..60,
        extra in 2usize..20,
        seed in 0u64..1000,
        storm in 3usize..24,
    ) {
        let mut g = simple::random_connected(n, extra, seed);
        reweight(&mut g, seed, false);

        let build = |threads: usize, g: RoadNetwork| {
            RoadFramework::builder(g)
                .fanout(2)
                .levels(3)
                .shortcut_threads(threads)
                .build()
                .unwrap()
        };
        let mut fw_seq = build(1, g.clone());
        let mut fw_par = build(4, g.clone());
        prop_assert_eq!(fw_seq.to_bytes(), fw_par.to_bytes(), "parallel construction diverged");

        // Distinct edges, fresh exact integer weights.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5708_4EED);
        let edges: Vec<_> = g.edge_ids().collect();
        let mut updates: Vec<(EdgeId, Weight)> = Vec::new();
        let mut picked = road_network::hash::FastSet::default();
        while updates.len() < storm.min(edges.len()) {
            let e = edges[rng.random_range(0..edges.len())];
            if picked.insert(e) {
                updates.push((e, Weight::new(rng.random_range(1..=16u32) as f64)));
            }
        }

        let mut seq_outcome = UpdateOutcome::default();
        for &(e, w) in &updates {
            seq_outcome.absorb(&fw_seq.set_edge_weight(e, w).unwrap());
        }
        let par_outcome = fw_par.set_edge_weights(&updates).unwrap();

        prop_assert_eq!(fw_seq.to_bytes(), fw_par.to_bytes(), "repair bytes diverged");
        // The batch repairs each affected Rnet at most once per update
        // wave; edge-at-a-time repair can only do more work.
        prop_assert!(par_outcome.rnets_refreshed <= seq_outcome.rnets_refreshed);

        let n = g.num_nodes() as u32;
        let (a, b) = loop {
            let (a, b) = (NodeId(rng.random_range(0..n)), NodeId(rng.random_range(0..n)));
            if a != b && g.edge_between(a, b).is_none() {
                break (a, b);
            }
        };
        let w = Weight::new(rng.random_range(1..=16u32) as f64);
        let gone = edges[rng.random_range(0..edges.len())];
        for fw in [&mut fw_seq, &mut fw_par] {
            fw.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
            fw.remove_edge(gone, &[]).unwrap();
        }
        prop_assert_eq!(fw_seq.to_bytes(), fw_par.to_bytes(), "topology repair bytes diverged");
        fw_seq.verify().unwrap();
        fw_par.verify().unwrap();
    }
}

/// The thread count cannot matter where both arms of the builder run
/// either: one leaf large enough for the contractor beside Rnets that dense
/// elimination takes, built on 2, 4 and 8 workers, gives the bytes of the
/// sequential build. (The name is from when this swept
/// `ShortcutOptions::contraction_order` × `witness_budget` on 4 workers;
/// both options are gone — the contractor arm runs min-degree first, 64
/// settles per witness search — and that neither moves a border distance
/// stays pinned where `dmat` is computed:
/// `crates/network/tests/proptest_minplus.rs`, three orders × budgets
/// 0 / 64 / unbounded against one Dijkstra per border.)
#[test]
fn thread_counts_agree_across_orders_and_budgets() {
    let mut g = common::two_arm_grid();
    reweight(&mut g, 42, false);
    let hier = common::two_arm_hierarchy(&g);
    let sequential = ShortcutOptions { threads: 1 };
    let reference = ShortcutStore::build(&g, &hier, WeightKind::Distance, &sequential);
    for threads in [2usize, 4, 8] {
        let opts = ShortcutOptions { threads };
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &opts);
        assert_eq!(
            serialize(&hier, &store),
            serialize(&hier, &reference),
            "two-arm grid diverged on {threads} workers"
        );
        assert_eq!(store.size_bytes(), reference.size_bytes());
    }
}

/// `size_bytes` is maintained incrementally through build and repair;
/// round-tripping through the serialized form (which recounts from the
/// decoded maps) must land on the same number.
#[test]
fn size_bytes_survives_maintenance_and_roundtrip() {
    let mut g = simple::grid(8, 8, 1.0);
    reweight(&mut g, 7, false);
    let mut fw = RoadFramework::builder(g.clone()).fanout(2).levels(3).build().unwrap();
    let fresh = RoadFramework::from_bytes(&fw.to_bytes()).unwrap();
    assert_eq!(fw.shortcuts().size_bytes(), fresh.shortcuts().size_bytes());

    let mut rng = StdRng::seed_from_u64(0xB17E);
    let edges: Vec<_> = g.edge_ids().collect();
    let updates: Vec<(EdgeId, Weight)> = (0..10)
        .map(|_| {
            let e = edges[rng.random_range(0..edges.len())];
            (e, Weight::new(rng.random_range(1..=16u32) as f64))
        })
        .collect();
    fw.set_edge_weights(&updates).unwrap();
    let fresh = RoadFramework::from_bytes(&fw.to_bytes()).unwrap();
    assert_eq!(
        fw.shortcuts().size_bytes(),
        fresh.shortcuts().size_bytes(),
        "incrementally maintained byte count drifted from a recount"
    );
    assert_eq!(fw.shortcuts().num_shortcuts(), fresh.shortcuts().num_shortcuts());
}

/// Oversubscription smoke: more workers than Rnets (and than cores) must
/// neither wedge nor change bytes.
#[test]
fn oversubscribed_threads_are_harmless() {
    let mut g = simple::grid(6, 6, 1.0);
    reweight(&mut g, 3, true);
    let hier = hier_for(&g, 2, 2);
    let seq =
        ShortcutStore::build(&g, &hier, WeightKind::Distance, &ShortcutOptions { threads: 1 });
    let over =
        ShortcutStore::build(&g, &hier, WeightKind::Distance, &ShortcutOptions { threads: 64 });
    assert_eq!(serialize(&hier, &seq), serialize(&hier, &over));
}

/// One step of a repair history.
enum Step {
    /// A weight storm through `set_edge_weights`.
    Storm(Vec<(EdgeId, Weight)>),
    /// A new edge between two nodes that had none.
    Add(NodeId, NodeId, Weight),
    /// An edge removed.
    Remove(EdgeId),
}

/// A seeded history over `g`: six storms of 12 exact integer reweights,
/// with an edge added after the second and fifth and one removed after the
/// third and sixth — topology repairs, whose lists run from a leaf to the
/// root and across sibling subtrees.
fn repair_history(g: &RoadNetwork, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E9A_1125);
    let weight = |rng: &mut StdRng| Weight::new(rng.random_range(1..=16u32) as f64);
    let mut live: Vec<EdgeId> = g.edge_ids().collect();
    let mut added = Vec::new();
    let mut steps = Vec::new();
    for round in 0..6 {
        let storm = (0..12).map(|_| (live[rng.random_range(0..live.len())], weight(&mut rng)));
        steps.push(Step::Storm(storm.collect()));
        match round % 3 {
            1 => loop {
                let n = g.num_nodes() as u32;
                let (a, b) = (NodeId(rng.random_range(0..n)), NodeId(rng.random_range(0..n)));
                let fresh = a != b && g.edge_between(a, b).is_none();
                if fresh && !added.contains(&(a.min(b), a.max(b))) {
                    added.push((a.min(b), a.max(b)));
                    steps.push(Step::Add(a, b, weight(&mut rng)));
                    break;
                }
            },
            2 => steps.push(Step::Remove(live.swap_remove(rng.random_range(0..live.len())))),
            _ => {}
        }
    }
    steps
}

/// Replays `history` on `fw`: after every step, the image, the step's
/// outcome and how many levels hold an Rnet the step refreshed — one whose
/// tables the framework no longer shares with its fork from before.
fn replay(mut fw: RoadFramework, history: &[Step]) -> Vec<(Vec<u8>, UpdateOutcome, usize)> {
    history
        .iter()
        .map(|step| {
            let fork = fw.clone();
            let outcome = match *step {
                Step::Storm(ref updates) => fw.set_edge_weights(updates).unwrap(),
                Step::Add(a, b, w) => fw.add_edge(a, b, (w, w, Weight::ZERO)).unwrap().1,
                Step::Remove(e) => fw.remove_edge(e, &[]).unwrap(),
            };
            let hier = fw.hierarchy();
            let levels = (1..=hier.levels())
                .filter(|&level| {
                    let mut rnets = hier.rnets_at_level(level);
                    rnets.any(|r| !fw.shortcuts().shares_rnet(fork.shortcuts(), r))
                })
                .count();
            (fw.to_bytes(), outcome, levels)
        })
        .collect()
}

/// Frameworks built by `build(threads)` on 1, 2, 4 and 8 workers, put
/// through one seeded repair history, agree step for step: the same image
/// bytes, the same `UpdateOutcome`, `minplus_entries` included, and the
/// same refreshed levels — so which worker repaired an Rnet, and in what
/// order, is unobservable. Returns the most levels one weight storm
/// refreshed.
fn assert_repair_thread_counts_agree(
    build: impl Fn(usize) -> RoadFramework,
    seed: u64,
    label: &str,
) -> usize {
    let reference = build(1);
    let history = repair_history(reference.network(), seed);
    let expected = replay(reference, &history);
    assert!(
        expected.iter().any(|(_, outcome, _)| outcome.rnets_changed > 0),
        "{label}: nothing moved"
    );
    for threads in [2usize, 4, 8] {
        let steps = replay(build(threads), &history);
        for (i, (got, want)) in steps.iter().zip(&expected).enumerate() {
            assert_eq!(got.1, want.1, "{label}: outcome of step {i} diverged at {threads} threads");
            assert_eq!(got.2, want.2, "{label}: levels of step {i} diverged at {threads} threads");
            assert!(got.0 == want.0, "{label}: image after step {i} diverged at {threads} threads");
        }
    }
    let storms = history.iter().zip(&expected).filter(|(step, _)| matches!(step, Step::Storm(_)));
    storms.map(|(_, (.., levels))| *levels).max().unwrap_or(0)
}

/// The repair thread sweep on random worlds of eight leaves: weight storms
/// repair the ancestors of their leaves while shortcut sets change, edge
/// additions and removals a closure that spans every level.
#[test]
fn repair_is_byte_identical_at_every_thread_count() {
    for seed in [3u64, 58, 711] {
        let mut g = simple::random_connected(48, 14, seed);
        reweight(&mut g, seed, false);
        let build = |threads: usize| {
            let builder = RoadFramework::builder(g.clone()).fanout(2).levels(3);
            builder.shortcut_threads(threads).build().unwrap()
        };
        let label = format!("random world, seed {seed}");
        assert_repair_thread_counts_agree(build, seed, &label);
    }
}

/// The same sweep where repair runs both arms of the builder: the storms on
/// [`common::two_arm_grid`] reach its contractor leaf and its dense ones.
#[test]
fn repair_of_both_arms_is_byte_identical_at_every_thread_count() {
    let mut g = common::two_arm_grid();
    reweight(&mut g, 42, false);
    let hier = common::two_arm_hierarchy(&g);
    let build = |threads: usize| {
        let mut cfg = RoadConfig::default();
        cfg.hierarchy.fanout = 2;
        cfg.hierarchy.levels = 2;
        cfg.shortcuts.threads = threads;
        let leaf = |e| hier.leaf_index_of_edge(e).unwrap();
        RoadFramework::build_with_partition(g.clone(), cfg, leaf).unwrap()
    };
    assert_repair_thread_counts_agree(build, 42, "two-arm grid");
}

/// The sweep on a hierarchy of 256 leaves (fanout 4, 4 levels), where a
/// storm's twelve leaves sit in different subtrees and the repair plan has
/// Rnets of several levels to interleave: some storm refreshes Rnets at
/// three levels or more in one update.
#[test]
fn repair_of_a_deep_hierarchy_is_byte_identical_at_every_thread_count() {
    let mut g = simple::grid(24, 24, 1.0);
    reweight(&mut g, 9, false);
    let build = |threads: usize| {
        let builder = RoadFramework::builder(g.clone()).fanout(4).levels(4);
        builder.shortcut_threads(threads).build().unwrap()
    };
    let levels = assert_repair_thread_counts_agree(build, 9, "24 x 24 grid, 4 levels");
    assert!(levels >= 3, "no storm refreshed more than {levels} levels");
}
