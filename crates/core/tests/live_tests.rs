//! Live-update serving tests: readers on published snapshots must always
//! agree with a brute-force oracle evaluated on *the snapshot they hold*
//! (no torn reads), held snapshots must stay immutable under later
//! publications, and the publish path must repair locally — refreshing
//! only affected Rnets and structurally sharing the rest — never falling
//! back to a full rebuild.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "concurrency tests race threads, and atomic flags and counters, against one engine on purpose; nothing they return is committed in completion order"
)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::live::LiveEngine;
use road_core::prelude::*;
use road_core::search::{oracle_knn, oracle_range, Aggregate, AggregateKnnQuery};
use road_core::{LiveStats, UpdateOutcome};
use road_network::dijkstra::shortest_path_weight;
use road_network::generator::simple;
use road_network::{EdgeId, EdgeRecord};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

fn grid_engine(seed: u64, objects: u64) -> (LiveEngine, road_core::UpdateHandle) {
    let g = simple::grid(12, 12, 1.0);
    let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..objects {
        let e = edges[rng.random_range(0..edges.len())];
        let o = Object::new(
            ObjectId(i),
            e,
            rng.random_range(0.0..=1.0),
            CategoryId(rng.random_range(0..3)),
        );
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    LiveEngine::new(fw, ad)
}

fn assert_hits_match(got: &[SearchHit], want: &[SearchHit], ctx: &str) {
    let g: Vec<u64> = got.iter().map(|h| h.object.0).collect();
    let w: Vec<u64> = want.iter().map(|h| h.object.0).collect();
    assert_eq!(g, w, "{ctx}: objects differ");
    for (a, b) in got.iter().zip(want) {
        assert!(a.distance.approx_eq(b.distance), "{ctx}: {} vs {}", a.distance, b.distance);
    }
}

/// The headline consistency property: while a writer streams weight
/// updates, topology edits and object churn through published snapshots,
/// every reader's answer matches the brute-force Dijkstra oracle computed
/// on the same snapshot the reader holds.
#[test]
fn concurrent_readers_agree_with_oracle_on_their_snapshot() {
    let (live, mut writer) = grid_engine(42, 24);
    let num_nodes = live.snapshot().framework().network().num_nodes() as u32;
    let done = AtomicBool::new(false);
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Writer: 60 publish cycles mixing weight changes, object churn
        // and a topology edit, batching a few updates per publish.
        let worker = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(4242);
            for round in 0u64..60 {
                for _ in 0..3 {
                    let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
                    let e = edges[rng.random_range(0..edges.len())];
                    let w = writer.framework().network().weight(e, WeightKind::Distance);
                    let factor = rng.random_range(0.25..4.0);
                    writer.set_edge_weight(e, Weight::new((w.get() * factor).max(0.05))).unwrap();
                }
                // Object churn: move one object somewhere else.
                let id = ObjectId(rng.random_range(0..24));
                let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
                let target = edges[rng.random_range(0..edges.len())];
                writer.move_object(id, target, 0.5).unwrap();
                // Occasional topology edit: add then remove a connector.
                if round % 20 == 19 {
                    let a = NodeId(rng.random_range(0..num_nodes));
                    let b = NodeId(rng.random_range(0..num_nodes));
                    if a != b && writer.framework().network().edge_between(a, b).is_none() {
                        let w = Weight::new(0.5);
                        let (e, _) = writer.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
                        writer.publish();
                        writer.remove_edge(e).unwrap();
                    }
                }
                writer.publish();
            }
            done.store(true, Ordering::Relaxed);
            writer
        });

        // Readers: grab a snapshot, answer a query mix on it, and compare
        // against the oracle evaluated on that same snapshot.
        for t in 0..3u64 {
            let live = live.clone();
            let done = &done;
            let checks = &checks;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t);
                let mut ws = SearchWorkspace::new();
                let mut hits = Vec::new();
                let mut rounds = 0u64;
                // Keep checking until the writer finished, then once more
                // on the final snapshot.
                loop {
                    let finished = done.load(Ordering::Relaxed);
                    let snap = live.snapshot();
                    for _ in 0..4 {
                        let node = NodeId(rng.random_range(0..num_nodes));
                        let q = KnnQuery::new(node, rng.random_range(1..5));
                        snap.knn_with(&q, &mut ws, &mut hits).unwrap();
                        let want = oracle_knn(snap.framework(), snap.directory(), &q);
                        assert_hits_match(
                            &hits,
                            &want,
                            &format!("snapshot v{} knn from {node}", snap.version()),
                        );
                        let r = RangeQuery::new(node, Weight::new(rng.random_range(1.0..5.0)));
                        snap.range_with(&r, &mut ws, &mut hits).unwrap();
                        let want = oracle_range(snap.framework(), snap.directory(), &r);
                        assert_hits_match(
                            &hits,
                            &want,
                            &format!("snapshot v{} range from {node}", snap.version()),
                        );
                        checks.fetch_add(1, Ordering::Relaxed);
                    }
                    rounds += 1;
                    if finished {
                        break;
                    }
                }
                assert!(rounds > 0);
            });
        }

        let writer = worker.join().expect("writer thread");
        // The writer's final working state must still verify against a
        // from-scratch rebuild (shortcuts exact after the whole stream).
        writer.framework().verify().unwrap();
        writer
            .directory()
            .validate(writer.framework().network(), writer.framework().hierarchy())
            .unwrap();
    });
    assert!(checks.load(Ordering::Relaxed) >= 24, "readers barely ran");
}

/// A held snapshot is immutable: publishing updates must not change the
/// answers (or the observable network) of a snapshot acquired earlier.
#[test]
fn held_snapshots_are_unaffected_by_later_publishes() {
    let (live, mut writer) = grid_engine(7, 12);
    let held = live.snapshot();
    let q = KnnQuery::new(NodeId(0), 4);
    let before = held.knn(&q).unwrap().hits;
    let weight_before = held.framework().network().weight(EdgeId(0), WeightKind::Distance);

    // Congest every edge heavily and churn the objects.
    let edges: Vec<EdgeId> = held.framework().network().edge_ids().collect();
    for &e in edges.iter().take(40) {
        writer.set_edge_weight(e, Weight::new(25.0)).unwrap();
    }
    writer.remove_object(ObjectId(0)).unwrap();
    writer.publish();

    // Old snapshot: identical answers, identical weights.
    assert_eq!(held.framework().network().weight(EdgeId(0), WeightKind::Distance), weight_before);
    assert_hits_match(&held.knn(&q).unwrap().hits, &before, "held snapshot");
    assert!(held.directory().object(ObjectId(0)).is_some());

    // New snapshot: sees the churn.
    let fresh = live.snapshot();
    assert!(fresh.version() > held.version());
    assert_eq!(
        fresh.framework().network().weight(EdgeId(0), WeightKind::Distance),
        Weight::new(25.0)
    );
    assert!(fresh.directory().object(ObjectId(0)).is_none());
    // And matches its own oracle.
    assert_hits_match(
        &fresh.knn(&q).unwrap().hits,
        &oracle_knn(fresh.framework(), fresh.directory(), &q),
        "fresh snapshot",
    );
}

/// A snapshot is a `QueryEngine` with a version: a held one answers
/// `batch_knn`, `batch_range` and `aggregate_knn` exactly as an engine
/// over the same state does, after the writer has moved on.
#[test]
fn a_held_snapshot_batches_like_a_query_engine_over_its_state() {
    let (live, mut writer) = grid_engine(11, 16);
    writer.set_edge_weight(EdgeId(3), Weight::new(6.0)).unwrap();
    writer.move_object(ObjectId(2), EdgeId(40), 0.25).unwrap();
    writer.publish();
    let held = live.snapshot();
    let engine = QueryEngine::new(held.framework().clone(), held.directory().clone());
    for e in 0..30 {
        writer.set_edge_weight(EdgeId(e), Weight::new(9.0)).unwrap();
    }
    writer.remove_object(ObjectId(0)).unwrap();
    writer.publish();
    assert!(live.snapshot().version() > held.version());

    let knns: Vec<KnnQuery> = (0..24).map(|n| KnnQuery::new(NodeId(n * 6), 3)).collect();
    let ranges: Vec<RangeQuery> =
        (0..24).map(|n| RangeQuery::new(NodeId(n * 6), Weight::new(2.5))).collect();
    assert_eq!(held.batch_knn(&knns, 2).unwrap(), engine.batch_knn(&knns, 2).unwrap());
    assert_eq!(held.batch_range(&ranges, 2).unwrap(), engine.batch_range(&ranges, 2).unwrap());
    for aggregate in [Aggregate::Sum, Aggregate::Max] {
        let q = AggregateKnnQuery::new(vec![NodeId(0), NodeId(77), NodeId(143)], 4)
            .with_aggregate(aggregate);
        assert_eq!(held.aggregate_knn(&q).unwrap(), engine.aggregate_knn(&q).unwrap());
    }
}

/// Updates are invisible until `publish`, and `publish` with nothing
/// pending is a no-op.
#[test]
fn publication_is_explicit_and_batched() {
    let (live, mut writer) = grid_engine(3, 6);
    assert_eq!(live.version(), 0);
    assert_eq!(writer.publish(), 0, "clean publish is a no-op");

    let e = live.snapshot().framework().network().edge_ids().next().unwrap();
    writer.set_edge_weight(e, Weight::new(9.0)).unwrap();
    assert!(writer.has_pending());
    assert_eq!(live.version(), 0, "unpublished update leaked to readers");
    assert_eq!(
        live.snapshot().framework().network().weight(e, WeightKind::Distance),
        Weight::new(1.0)
    );

    let v = writer.publish();
    assert_eq!(v, 1);
    assert!(!writer.has_pending());
    assert_eq!(live.version(), 1);
    assert_eq!(
        live.snapshot().framework().network().weight(e, WeightKind::Distance),
        Weight::new(9.0)
    );
    // Reader handles reach the same deployment through the writer too.
    assert_eq!(writer.reader().version(), 1);
}

/// The publish path repairs locally: a weight update refreshes at most
/// one Rnet per level, and consecutive snapshots physically share every
/// unaffected Rnet's shortcut map (no deep copy, no full rebuild).
#[test]
fn publish_refreshes_only_affected_rnets_and_shares_the_rest() {
    let (live, mut writer) = grid_engine(11, 10);
    let before = live.snapshot();
    let hier_levels = before.framework().hierarchy().levels() as usize;
    let num_rnets = before.framework().hierarchy().num_rnets();

    let e = before.framework().network().edge_ids().next().unwrap();
    let outcome = writer.set_edge_weight(e, Weight::new(50.0)).unwrap();
    writer.publish();
    let after = live.snapshot();

    // Locality: the refresh walked one leaf-to-root chain at most.
    assert!(outcome.rnets_refreshed >= 1);
    assert!(
        outcome.rnets_refreshed <= hier_levels,
        "one weight change refreshed {} Rnets (levels = {hier_levels})",
        outcome.rnets_refreshed
    );

    // Structural sharing: every unrefreshed Rnet's map is the same
    // allocation in both snapshots.
    let shared = after.framework().shortcuts().shared_rnet_count(before.framework().shortcuts());
    assert!(
        shared >= num_rnets - outcome.rnets_refreshed,
        "only {shared}/{num_rnets} Rnets shared after refreshing {}",
        outcome.rnets_refreshed
    );
    assert!(shared < num_rnets, "the refreshed Rnet must have a new map");

    // Cumulative stats over a longer stream stay far below a rebuild.
    for (i, e) in before.framework().network().edge_ids().take(20).enumerate() {
        writer.set_edge_weight(e, Weight::new(2.0 + i as f64)).unwrap();
    }
    writer.publish();
    let stats = writer.stats();
    assert_eq!(stats.publishes, 2);
    assert_eq!(stats.updates, 21);
    let per_update = stats.outcome.rnets_refreshed as f64 / stats.updates as f64;
    assert!(
        per_update <= hier_levels as f64,
        "average {per_update:.2} Rnets refreshed per update — repairs are not local"
    );
    writer.framework().verify().unwrap();
}

/// Directory copy-on-write: network-side updates never copy the object
/// directory (snapshots share it), and object updates never copy the
/// network side.
#[test]
fn snapshots_share_untouched_components() {
    let (live, mut writer) = grid_engine(5, 8);
    let s0 = live.snapshot();

    // Weight-only publish: directories are the same Arc payload.
    let e = s0.framework().network().edge_ids().next().unwrap();
    writer.set_edge_weight(e, Weight::new(3.0)).unwrap();
    writer.publish();
    let s1 = live.snapshot();
    assert!(
        std::ptr::eq(s0.directory(), s1.directory()),
        "a network-side update must not copy the directory"
    );

    // Object-only publish: all shortcut maps stay shared.
    writer.insert_object(Object::new(ObjectId(900), e, 0.25, CategoryId(1))).unwrap();
    writer.publish();
    let s2 = live.snapshot();
    let num_rnets = s1.framework().hierarchy().num_rnets();
    assert_eq!(
        s2.framework().shortcuts().shared_rnet_count(s1.framework().shortcuts()),
        num_rnets,
        "an object-side update must not copy any shortcut data"
    );
    assert!(!std::ptr::eq(s1.directory(), s2.directory()));
    assert!(s2.directory().object(ObjectId(900)).is_some());
    assert!(s1.directory().object(ObjectId(900)).is_none());
}

/// What a weight update copies, held to account: after a publish and a
/// batch of reweights the writer's network still shares its topology
/// allocation (coordinates, adjacency lists) with the held snapshot, which
/// keeps answering on the old weights while the next one answers on the
/// new — each equal to its own oracle. A topology edit is what un-shares
/// it, and a snapshot published before the edit keeps its adjacency.
#[test]
fn weight_updates_share_the_topology_and_topology_edits_unshare_it() {
    let (live, mut writer) = grid_engine(17, 12);
    let held = live.snapshot();
    let shares = |writer: &road_core::UpdateHandle, snap: &road_core::live::Snapshot| {
        writer.framework().network().shares_topology_with(snap.framework().network())
    };
    assert!(shares(&writer, &held));

    let wave: Vec<(EdgeId, Weight)> =
        held.framework().network().edge_ids().take(9).map(|e| (e, Weight::new(7.5))).collect();
    writer.set_edge_weights(&wave).unwrap();
    assert!(shares(&writer, &held), "a weight update copied the topology");
    writer.publish();
    let reweighted = live.snapshot();
    assert!(reweighted.framework().network().shares_topology_with(held.framework().network()));
    for snap in [&held, &reweighted] {
        let want = if snap.version() == 0 { Weight::new(1.0) } else { Weight::new(7.5) };
        for &(e, _) in &wave {
            assert_eq!(snap.framework().network().weight(e, WeightKind::Distance), want);
        }
        for node in [0u32, 5, 77, 143] {
            let q = KnnQuery::new(NodeId(node), 4);
            let want = oracle_knn(snap.framework(), snap.directory(), &q);
            assert_hits_match(&snap.knn(&q).unwrap().hits, &want, "knn on a sharing snapshot");
            let r = RangeQuery::new(NodeId(node), Weight::new(6.0));
            let want = oracle_range(snap.framework(), snap.directory(), &r);
            assert_hits_match(&snap.range(&r).unwrap().hits, &want, "range on a sharing snapshot");
        }
    }

    // A connector between two far corners, then its removal.
    let (a, b) = (NodeId(0), NodeId(143));
    let neighbours = |snap: &road_core::live::Snapshot| {
        snap.framework().network().neighbors(a).collect::<Vec<_>>()
    };
    let adjacency_before = neighbours(&reweighted);
    let w = Weight::new(2.0);
    let (e, _) = writer.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
    assert!(!shares(&writer, &reweighted), "add_edge wrote into a shared topology");
    assert_eq!(neighbours(&reweighted), adjacency_before);
    assert_eq!(neighbours(&held), adjacency_before);
    assert!(reweighted.framework().network().edge_between(a, b).is_none());
    writer.publish();
    let connected = live.snapshot();
    assert_eq!(connected.framework().network().edge_between(a, b), Some(e));

    writer.remove_edge(e).unwrap();
    assert!(!shares(&writer, &connected));
    assert_eq!(connected.framework().network().edge_between(a, b), Some(e));
    assert_eq!(neighbours(&connected).len(), adjacency_before.len() + 1);
    assert_eq!(connected.network_distance(a, b).unwrap(), Some(w));
    writer.publish();
    let removed = live.snapshot();
    let around = shortest_path_weight(removed.framework().network(), WeightKind::Distance, a, b);
    assert!(around > Some(w));
    assert_eq!(removed.network_distance(a, b).unwrap(), around);
}

/// `move_object` is atomic from the readers' perspective and rolls back
/// cleanly when the destination is invalid.
#[test]
fn move_object_is_atomic_and_rolls_back() {
    let (live, mut writer) = grid_engine(13, 4);
    let snap = live.snapshot();
    let edges: Vec<EdgeId> = snap.framework().network().edge_ids().collect();
    let target = edges[edges.len() / 2];

    writer.move_object(ObjectId(2), target, 0.75).unwrap();
    writer.publish();
    let moved = live.snapshot().directory().object(ObjectId(2)).cloned().unwrap();
    assert_eq!(moved.edge, target);
    assert_eq!(moved.fraction, 0.75);

    // Invalid destination: the object stays where it was.
    let err = writer.move_object(ObjectId(2), EdgeId(99999), 0.5);
    assert!(err.is_err());
    let still = writer.directory().object(ObjectId(2)).cloned().unwrap();
    assert_eq!(still.edge, target);
    writer
        .directory()
        .validate(writer.framework().network(), writer.framework().hierarchy())
        .unwrap();
}

/// Repair parity for the contraction-based builder: after a long mixed
/// churn stream (weight updates, connector edges added and removed,
/// object moves), the incrementally repaired shortcut store must be
/// **byte-identical** to a from-scratch `ShortcutStore::build` over the
/// final network — same serialized bytes, not just the same answers.
/// Weights are small integers so f64 arithmetic is exact and the
/// refresh path's no-op detection coincides with bitwise equality.
#[test]
fn contraction_refresh_equals_fresh_rebuild_after_mixed_churn() {
    use road_core::shortcut::ShortcutStore;

    let (_live, mut writer) = grid_engine(21, 16);
    let num_nodes = writer.framework().network().num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut added: Vec<EdgeId> = Vec::new();
    for round in 0..40u64 {
        let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
        for _ in 0..3 {
            let e = edges[rng.random_range(0..edges.len())];
            let w = Weight::new(rng.random_range(1..=16u32) as f64);
            writer.set_edge_weight(e, w).unwrap();
        }
        writer.move_object(ObjectId(rng.random_range(0..16)), edges[0], 0.25).unwrap();
        if round % 8 == 3 {
            let a = NodeId(rng.random_range(0..num_nodes));
            let b = NodeId(rng.random_range(0..num_nodes));
            if a != b && writer.framework().network().edge_between(a, b).is_none() {
                let w = Weight::new(2.0);
                let (e, _) = writer.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
                added.push(e);
            }
        }
        if round % 16 == 11 {
            if let Some(e) = added.pop() {
                writer.remove_edge(e).unwrap();
            }
        }
        writer.publish();
    }

    let fw = writer.framework();
    let fresh =
        ShortcutStore::build(fw.network(), fw.hierarchy(), fw.metric(), &Default::default());
    let mut repaired_bytes = Vec::new();
    fw.shortcuts().serialize_into(fw.hierarchy(), &mut repaired_bytes);
    let mut fresh_bytes = Vec::new();
    fresh.serialize_into(fw.hierarchy(), &mut fresh_bytes);
    assert_eq!(fw.shortcuts().num_shortcuts(), fresh.num_shortcuts());
    assert_eq!(
        repaired_bytes, fresh_bytes,
        "incrementally repaired store diverged from a from-scratch rebuild"
    );
}

/// The composition no other suite exercises end to end: a live update
/// history (one batched weight wave, object insert / move / remove) is
/// published, the published framework is persisted, and the bytes are
/// reopened both whole (a fresh `QueryEngine`) and page by page (a lazily
/// loading `PagedEngine`). All three must give the plain-Dijkstra answer.
/// Weights and offsets are dyadic, so every path sum is exact: distances
/// must match the oracle bit for bit, and the unit grid's many
/// equal-length routes put exact ties at the k-th place that only the
/// canonical (distance, id) order resolves the same way everywhere.
#[test]
fn published_persisted_and_lazily_reopened_history_agrees_with_oracle() {
    let fw = RoadFramework::builder(simple::grid(12, 12, 1.0)).fanout(4).levels(2).build().unwrap();
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(0xC0_4405E);
    let random_edge = |rng: &mut StdRng| edges[rng.random_range(0..edges.len())];
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for i in 0..40u64 {
        let o = Object::new(ObjectId(i), random_edge(&mut rng), 0.5, CategoryId((i % 3) as u16));
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    // Objects 20 and 21 survive the churn below; their edges get closed.
    let closed = [ObjectId(20), ObjectId(21)];
    let closed_edges = closed.map(|o| ad.object(o).unwrap().edge);
    let (live, mut writer) = LiveEngine::new(fw, ad);

    let wave: Vec<(EdgeId, Weight)> = (0..24)
        .map(|_| (random_edge(&mut rng), Weight::new([0.5, 2.0, 4.0][rng.random_range(0..3)])))
        .collect();
    assert!(writer.set_edge_weights(&wave).unwrap().rnets_refreshed > 0);
    // Fig. 16's way of deleting an edge: an object on it becomes
    // unreachable, which is not the same as "a hit at distance inf".
    writer.set_edge_weights(&closed_edges.map(|e| (e, Weight::INFINITY))).unwrap();
    for i in 40..48u64 {
        let o = Object::new(ObjectId(i), random_edge(&mut rng), 0.25, CategoryId(1));
        writer.insert_object(o).unwrap();
    }
    for i in 0..8u64 {
        writer.move_object(ObjectId(i), random_edge(&mut rng), 0.75).unwrap();
        writer.remove_object(ObjectId(8 + i)).unwrap();
    }
    writer.publish();

    let snap = live.snapshot();
    let (fw, ad) = (snap.framework(), snap.directory());
    let bytes = fw.to_bytes();
    let objects: Vec<Object> = ad.objects().cloned().collect();
    let reachable = objects.iter().filter(|o| !closed_edges.contains(&o.edge)).count();
    let reopened = RoadFramework::from_bytes(&bytes).unwrap();
    let mut reopened_ad = AssociationDirectory::new(reopened.hierarchy());
    for o in &objects {
        reopened_ad.insert(reopened.network(), reopened.hierarchy(), o.clone()).unwrap();
    }
    let fresh = QueryEngine::new(reopened, reopened_ad);
    let image = PagedImage::open(bytes).unwrap();
    let paged = PagedEngine::open(image, objects, PagedOptions::with_buffer_pages(8)).unwrap();
    assert!(paged.is_lazy() && paged.rnets_loaded() == 0);

    let num_nodes = fw.network().num_nodes() as u32;
    let mut tied_at_k = 0;
    for i in 0..80 {
        let node = NodeId(rng.random_range(0..num_nodes));
        let mut knn = KnnQuery::new(node, rng.random_range(1..8));
        let mut range = RangeQuery::new(node, Weight::new(rng.random_range(1..12u32) as f64 * 0.5));
        if i % 4 == 0 {
            knn = knn.with_filter(ObjectFilter::Category(CategoryId(1)));
            range = range.with_filter(ObjectFilter::Category(CategoryId(2)));
        }
        // Every tenth query asks for more than is reachable.
        let ask_all = i % 10 == 5;
        if ask_all {
            knn.k = 100;
            range.radius = Weight::INFINITY;
        }
        let want = oracle_knn(fw, ad, &knn);
        if ask_all {
            assert_eq!(want.len(), reachable, "the oracle answers every reachable object");
            assert!(want.iter().all(|h| h.distance.is_finite() && !closed.contains(&h.object)));
        }
        assert_eq!(snap.knn(&knn).unwrap().hits, want, "snapshot knn {knn:?}");
        assert_eq!(fresh.knn(&knn).unwrap().hits, want, "reopened knn {knn:?}");
        assert_eq!(paged.knn(&knn).unwrap().hits, want, "paged knn {knn:?}");
        let next = oracle_knn(fw, ad, &KnnQuery { k: knn.k + 1, ..knn.clone() });
        tied_at_k +=
            (next.len() > want.len() && next[knn.k].distance == next[knn.k - 1].distance) as usize;
        let want = oracle_range(fw, ad, &range);
        assert_eq!(snap.range(&range).unwrap().hits, want, "snapshot range {range:?}");
        assert_eq!(fresh.range(&range).unwrap().hits, want, "reopened range {range:?}");
        assert_eq!(paged.range(&range).unwrap().hits, want, "paged range {range:?}");
    }
    assert!(tied_at_k > 0, "no query had an exact tie at the k-th place");
    assert!(paged.rnets_loaded() > 0, "the paged engine never loaded an Rnet lazily");
}

/// Forty random probes of one engine — `knn`, `range` and `distance` are
/// its answers — against plain Dijkstra over (`fw`, `ad`), bit for bit.
fn assert_answers_like_dijkstra(
    rng: &mut StdRng,
    (fw, ad): (&RoadFramework, &AssociationDirectory),
    ctx: &str,
    knn: impl Fn(&KnnQuery) -> Vec<SearchHit>,
    range: impl Fn(&RangeQuery) -> Vec<SearchHit>,
    distance: impl Fn(NodeId, NodeId) -> Option<Weight>,
) {
    let num_nodes = fw.network().num_nodes() as u32;
    for _ in 0..40 {
        let (from, to) =
            (NodeId(rng.random_range(0..num_nodes)), NodeId(rng.random_range(0..num_nodes)));
        let want = shortest_path_weight(fw.network(), WeightKind::Distance, from, to);
        assert_eq!(distance(from, to), want, "{ctx}: distance {from} -> {to}");
        let q = KnnQuery::new(from, rng.random_range(1..6));
        assert_eq!(knn(&q), oracle_knn(fw, ad, &q), "{ctx}: {q:?}");
        let q = RangeQuery::new(from, Weight::new(f64::from(rng.random_range(0..8u32)) * 0.5));
        assert_eq!(range(&q), oracle_range(fw, ad, &q), "{ctx}: {q:?}");
    }
}

/// Zero is a legal weight (a toll is zero on most edges), and two borders
/// at distance zero used to cover each other's shortcuts — each pair
/// dropped in favour of the other, both gone, answers too long. Zeros are
/// present when the framework is built and keep arriving as updates; after
/// every one of them the in-memory engine, the published snapshot and —
/// at the end — a lazily reopened paged engine must answer kNN, range and
/// point-to-point distance like plain Dijkstra. Unit grid, so every
/// distance is exact.
#[test]
fn zero_weight_edges_answer_like_dijkstra_on_every_engine() {
    let mut g = simple::grid(12, 12, 1.0);
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(0x2E80);
    let random_edge = |rng: &mut StdRng| edges[rng.random_range(0..edges.len())];
    for _ in 0..6 {
        g.set_weight(random_edge(&mut rng), WeightKind::Distance, Weight::ZERO).unwrap();
    }
    let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for i in 0..30u64 {
        let o = Object::new(ObjectId(i), random_edge(&mut rng), 0.5, CategoryId(0));
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }

    let engine = QueryEngine::new(fw.clone(), ad.clone());
    assert_answers_like_dijkstra(
        &mut rng,
        (&fw, &ad),
        "zeros at build time",
        |q| engine.knn(q).unwrap().hits,
        |q| engine.range(q).unwrap().hits,
        |a, b| engine.network_distance(a, b).unwrap(),
    );

    let (live, mut writer) = LiveEngine::new(fw, ad);
    for update in 0..12 {
        writer.set_edge_weight(random_edge(&mut rng), Weight::ZERO).unwrap();
        writer.publish();
        let snap = live.snapshot();
        assert_answers_like_dijkstra(
            &mut rng,
            (snap.framework(), snap.directory()),
            &format!("snapshot after zero #{update}"),
            |q| snap.knn(q).unwrap().hits,
            |q| snap.range(q).unwrap().hits,
            |a, b| snap.network_distance(a, b).unwrap(),
        );
    }

    let snap = live.snapshot();
    let objects: Vec<Object> = snap.directory().objects().cloned().collect();
    let image = PagedImage::open(snap.framework().to_bytes()).unwrap();
    let paged = PagedEngine::open(image, objects, PagedOptions::with_buffer_pages(8)).unwrap();
    assert_answers_like_dijkstra(
        &mut rng,
        (snap.framework(), snap.directory()),
        "reopened paged engine",
        |q| paged.knn(q).unwrap().hits,
        |q| paged.range(q).unwrap().hits,
        |a, b| paged.network_distance(a, b).unwrap(),
    );
}

/// A `side`×`side` unit grid over a fixed quadtree partition — `levels`
/// levels of fanout 4, leaves the blocks of a `2^levels`-wide raster in
/// Morton order, each edge in the block of its first endpoint — with
/// `objects` objects on it, built and repaired on `threads` workers (`0`:
/// the host's). No hash order can move the partition, so what a history
/// refreshes and copies is the same under every hasher, as it is at every
/// thread count.
fn quadtree_engine(
    side: usize,
    levels: u32,
    objects: u64,
    seed: u64,
    threads: usize,
) -> (LiveEngine, UpdateHandle) {
    let g = simple::grid(side, side, 1.0);
    let block = side >> levels;
    let leaf: Vec<u32> = g
        .edge_ids()
        .map(|e| {
            let p = g.coord(g.edge(e).endpoints().0);
            let (bx, by) = ((p.x as usize / block) as u32, (p.y as usize / block) as u32);
            (0..levels).map(|bit| ((bx >> bit & 1) | (by >> bit & 1) << 1) << (2 * bit)).sum()
        })
        .collect();
    let mut cfg = RoadConfig::default();
    cfg.hierarchy.fanout = 4;
    cfg.hierarchy.levels = levels;
    cfg.shortcuts.threads = threads;
    let fw = RoadFramework::build_with_partition(g, cfg, |e| leaf[e.index()]).unwrap();
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for i in 0..objects {
        let e = edges[rng.random_range(0..edges.len())];
        let o = Object::new(ObjectId(i), e, 0.5, CategoryId((i % 3) as u16));
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    LiveEngine::new(fw, ad)
}

/// One roadbench-shaped tick: a wave of 8 reweights (a unit edge becomes
/// 0.5, 1.5 or 2), then 4 object moves, then a publish.
struct Tick {
    wave: Vec<(EdgeId, Weight)>,
    moves: Vec<(ObjectId, EdgeId)>,
}

impl Tick {
    fn draw(rng: &mut StdRng, edges: &[EdgeId], objects: u64) -> Tick {
        let edge = |rng: &mut StdRng| edges[rng.random_range(0..edges.len())];
        let wave = (0..8)
            .map(|_| (edge(rng), Weight::new([0.5, 1.5, 2.0][rng.random_range(0..3)])))
            .collect();
        let moves = (0..4).map(|_| (ObjectId(rng.random_range(0..objects)), edge(rng))).collect();
        Tick { wave, moves }
    }

    fn apply(&self, writer: &mut UpdateHandle) -> UpdateOutcome {
        let outcome = writer.set_edge_weights(&self.wave).unwrap();
        for &(id, e) in &self.moves {
            writer.move_object(id, e, 0.5).unwrap();
        }
        writer.publish();
        outcome
    }
}

/// A snapshot is a fork of chunked columns, so its immutability rests on
/// every writer's chunk copy: one held across 200 ticks — each writing
/// edge records, arena weights, the per-Rnet table and directory shards
/// it shares — answers kNN, range and distance queries bit for bit as it
/// did when it was published, and the writer's final state still equals
/// a rebuild.
#[test]
fn a_snapshot_held_across_200_ticks_answers_as_when_published() {
    let (live, mut writer) = quadtree_engine(32, 3, 60, 0x5A_F00D, 0);
    let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    Tick::draw(&mut rng, &edges, 60).apply(&mut writer);
    let held = live.snapshot();
    let probes: Vec<(NodeId, NodeId)> = (0..24)
        .map(|_| (NodeId(rng.random_range(0..1024)), NodeId(rng.random_range(0..1024))))
        .collect();
    let answers = |snap: &Snapshot| -> Vec<_> {
        probes
            .iter()
            .map(|&(a, b)| {
                let knn = snap.knn(&KnnQuery::new(a, 5)).unwrap().hits;
                let range = snap.range(&RangeQuery::new(a, Weight::new(6.0))).unwrap().hits;
                (knn, range, snap.network_distance(a, b).unwrap())
            })
            .collect()
    };
    let weights = |snap: &Snapshot| -> Vec<Weight> {
        edges.iter().map(|&e| snap.framework().network().weight(e, WeightKind::Distance)).collect()
    };
    let (published, published_weights) = (answers(&held), weights(&held));
    let objects: Vec<Object> = held.directory().objects().cloned().collect();
    for _ in 0..200 {
        Tick::draw(&mut rng, &edges, 60).apply(&mut writer);
    }
    let latest = live.snapshot();
    assert_eq!(latest.version(), held.version() + 200);
    assert_ne!(weights(&latest), published_weights, "the ticks changed nothing");
    assert_eq!(weights(&held), published_weights);
    assert_eq!(held.directory().objects().cloned().collect::<Vec<_>>(), objects);
    assert_eq!(answers(&held), published);
    writer.framework().verify().unwrap();
    let fw = writer.framework();
    writer.directory().validate(fw.network(), fw.hierarchy()).unwrap();
}

/// What one tick copies, held to account chunk by chunk: against the
/// snapshot published before it, the next one still shares the topology,
/// every chunk of edge records but the ≤ 8 its reweights land in, every
/// chunk of arena weights but the ≤ 16 of their endpoints, every chunk of
/// the per-Rnet table but one per refreshed Rnet (and, as before, every
/// unrefreshed Rnet's arena), and every directory shard and abstract chunk
/// but those its 4 moves write.
#[test]
fn a_tick_unshares_only_the_chunks_it_writes() {
    use road_core::association::{ABSTRACT_CHUNK, LIST_SHARD, OBJECT_SHARDS};
    use std::collections::BTreeSet;

    let (live, mut writer) = quadtree_engine(64, 4, 200, 0xC4_0C5, 0);
    let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(0xB17E5);
    for round in 0..3 {
        let before = live.snapshot();
        let tick = Tick::draw(&mut rng, &edges, 200);
        // The shards and chunks the moves write, from where each object is
        // at its turn: object map, the four endpoint lists, both edge
        // lists, both abstract chains.
        let mut touched = BTreeSet::new();
        let outcome = writer.set_edge_weights(&tick.wave).unwrap();
        for &(id, to) in &tick.moves {
            let from = writer.directory().object(id).unwrap().edge;
            let (g, hier) = (writer.framework().network(), writer.framework().hierarchy());
            touched.insert((0, id.0 as usize % OBJECT_SHARDS));
            for e in [from, to] {
                let (a, b) = g.edge(e).endpoints();
                touched.insert((1, a.index() / LIST_SHARD));
                touched.insert((1, b.index() / LIST_SHARD));
                touched.insert((2, e.index() / LIST_SHARD));
                let mut r = hier.leaf_of_edge(e);
                while r.is_valid() {
                    touched.insert((3, r.0 as usize / ABSTRACT_CHUNK));
                    r = hier.parent(r);
                }
            }
            writer.move_object(id, to, 0.5).unwrap();
        }
        writer.publish();
        let after = live.snapshot();
        let (fw0, fw1) = (before.framework(), after.framework());
        let (g0, g1) = (fw0.network(), fw1.network());
        let unshared = |total: usize, shared: usize| total - shared;

        assert!(g1.shares_topology_with(g0), "round {round}: a reweight copied the topology");
        let edge_chunks = unshared(g0.shared_edge_chunks(g0), g1.shared_edge_chunks(g0));
        assert!((1..=8).contains(&edge_chunks), "round {round}: {edge_chunks} edge chunks copied");
        let arena_chunks = unshared(fw0.shared_arena_chunks(fw0), fw1.shared_arena_chunks(fw0));
        assert!((1..=16).contains(&arena_chunks), "round {round}: {arena_chunks} arena chunks");
        let (s0, s1) = (fw0.shortcuts(), fw1.shortcuts());
        let rnet_chunks = unshared(s0.shared_rnet_chunks(s0), s1.shared_rnet_chunks(s0));
        assert!(
            (1..=outcome.rnets_refreshed).contains(&rnet_chunks),
            "round {round}: {rnet_chunks} table chunks for {} refreshed Rnets",
            outcome.rnets_refreshed
        );
        let num_rnets = fw0.hierarchy().num_rnets();
        assert!(s1.shared_rnet_count(s0) >= num_rnets - outcome.rnets_refreshed);
        let (ad0, ad1) = (before.directory(), after.directory());
        let shards = unshared(ad0.shared_shards(ad0), ad1.shared_shards(ad0));
        assert!(
            (1..=touched.len()).contains(&shards),
            "round {round}: {shards} directory shards copied, the moves touch {}",
            touched.len()
        );
        assert!(touched.len() < ad0.shared_shards(ad0) / 2, "the moves touch half the directory");
    }
}

/// A seeded 50-tick history on a world no hasher can repartition, with the
/// writer repairing on `threads` workers (1 or 2), run once per thread count
/// for the pins below: the writer's stats after it, the Rnets it refreshed,
/// and what one copy of the network's edge records weighs.
fn fifty_ticks(threads: usize) -> &'static (LiveStats, usize, u64) {
    static HISTORIES: [OnceLock<(LiveStats, usize, u64)>; 2] = [OnceLock::new(), OnceLock::new()];
    HISTORIES[threads - 1].get_or_init(|| {
        let (_live, mut writer) = quadtree_engine(64, 4, 200, 0xB47E5, threads);
        let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
        let mut rng = StdRng::seed_from_u64(0x50_71C5);
        assert_eq!(writer.stats().bytes_copied, 0);
        let mut refreshed = 0;
        for _ in 0..50 {
            refreshed += Tick::draw(&mut rng, &edges, 200).apply(&mut writer).rnets_refreshed;
        }
        let edge_records = writer.framework().network().edge_slots() * size_of::<EdgeRecord>();
        (writer.stats(), refreshed, edge_records as u64)
    })
}

/// `LiveStats::bytes_copied` is what copy-on-write copied, pinned for the
/// 50-tick history at one and two repair workers — and it is a fraction of
/// what copying the network's edge records once per tick, as every tick did
/// before the columns were chunked, would have cost. 6,004 of the copied
/// elements are object abstracts, `size_of::<ObjectAbstract>()` = 32 bytes
/// each on a 64-bit target (a `u32` total and a `Vec` of counts). 16,056
/// are entries of the shortcut store's per-Rnet table, 24 bytes each: the
/// hot table's pointer and length and the waypoints' pointer.
#[test]
fn fifty_ticks_copy_a_pinned_number_of_bytes() {
    for threads in [1, 2] {
        let &(stats, refreshed, edge_records) = fifty_ticks(threads);
        assert_eq!((stats.publishes, refreshed), (50, 1226), "{threads} threads");
        assert_eq!(stats.bytes_copied, 5_726_008, "{threads} threads");
        assert!(stats.bytes_copied < 50 * edge_records, "{stats:?}");
    }
}

/// `UpdateOutcome::minplus_entries` is the repair's arithmetic, pinned for
/// the same history at one and two repair workers: a kernel that does more
/// or less work moves it, a timer never has to be patched in to see that,
/// and which worker relaxed an entry never does.
#[test]
fn fifty_ticks_relax_a_pinned_number_of_matrix_entries() {
    for threads in [1, 2] {
        let &(stats, refreshed, _) = fifty_ticks(threads);
        assert_eq!(stats.outcome.rnets_refreshed, refreshed, "{threads} threads");
        assert_eq!(stats.outcome.minplus_entries, 126_028_953, "{threads} threads");
    }
}
