//! Concurrency tests for [`QueryEngine`]: many threads hammering one
//! shared overlay must each get oracle-exact answers, whether they go
//! through the pooled convenience API, explicit per-thread workspaces, or
//! the batch entry point.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "concurrency tests race threads against one engine on purpose; nothing they return is committed in completion order"
)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::search::oracle_knn;
use road_network::generator::simple;

/// Builds a 14x14 grid engine with scattered objects plus the oracle
/// answers for a deterministic query mix.
fn setup() -> (QueryEngine, Vec<KnnQuery>, Vec<Vec<SearchHit>>) {
    let g = simple::grid(14, 14, 1.0);
    let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let edges: Vec<_> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(77);
    for i in 0..30u64 {
        let e = edges[rng.random_range(0..edges.len())];
        let o = Object::new(
            ObjectId(i),
            e,
            rng.random_range(0.0..=1.0),
            CategoryId(rng.random_range(0..3)),
        );
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    let mut queries = Vec::new();
    for q in 0..40 {
        let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
        let k = rng.random_range(1..7);
        let mut query = KnnQuery::new(node, k);
        if q % 3 == 0 {
            query = query.with_filter(ObjectFilter::Category(CategoryId(q as u16 % 3)));
        }
        queries.push(query);
    }
    let oracle: Vec<Vec<SearchHit>> = queries.iter().map(|q| oracle_knn(&fw, &ad, q)).collect();
    (QueryEngine::new(fw, ad), queries, oracle)
}

fn assert_matches_oracle(got: &[SearchHit], want: &[SearchHit], ctx: &str) {
    let g: Vec<u64> = got.iter().map(|h| h.object.0).collect();
    let w: Vec<u64> = want.iter().map(|h| h.object.0).collect();
    assert_eq!(g, w, "{ctx}: objects differ");
    for (a, b) in got.iter().zip(want) {
        assert!(a.distance.approx_eq(b.distance), "{ctx}: {} vs {}", a.distance, b.distance);
    }
}

#[test]
fn many_threads_agree_with_the_oracle() {
    let (engine, queries, oracle) = setup();
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let engine = engine.clone();
            let queries = &queries;
            let oracle = &oracle;
            scope.spawn(move || {
                // Each thread interleaves the pooled API and an explicit
                // reused workspace, starting at a different offset so the
                // pool sees genuinely concurrent traffic.
                let mut ws = SearchWorkspace::new();
                let mut hits = Vec::new();
                for round in 0..3 {
                    for i in 0..queries.len() {
                        let idx = (i + t * 7 + round) % queries.len();
                        let q = &queries[idx];
                        let ctx = format!("thread {t} round {round} query {idx}");
                        if (i + t) % 2 == 0 {
                            let res = engine.knn(q).unwrap();
                            assert_matches_oracle(&res.hits, &oracle[idx], &ctx);
                        } else {
                            let stats = engine.knn_with(q, &mut ws, &mut hits).unwrap();
                            assert_matches_oracle(&hits, &oracle[idx], &ctx);
                            if ws.reuse_count() > 1 {
                                assert!(stats.workspace_reused, "{ctx}: reuse not recorded");
                            }
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn batch_knn_matches_sequential_and_scales_thread_counts() {
    let (engine, queries, oracle) = setup();
    for threads in [1usize, 2, 3, 8, 64] {
        let answers = engine.batch_knn(&queries, threads).unwrap();
        assert_eq!(answers.len(), queries.len());
        for (i, hits) in answers.iter().enumerate() {
            assert_matches_oracle(hits, &oracle[i], &format!("threads {threads} query {i}"));
        }
    }
}

#[test]
fn batch_range_matches_single_queries() {
    let (engine, _, _) = setup();
    let queries: Vec<RangeQuery> = (0..20)
        .map(|i| RangeQuery::new(NodeId(i * 9), Weight::new(4.0 + i as f64 / 3.0)))
        .collect();
    let sequential: Vec<Vec<SearchHit>> =
        queries.iter().map(|q| engine.range(q).unwrap().hits).collect();
    let batched = engine.batch_range(&queries, 4).unwrap();
    assert_eq!(batched.len(), sequential.len());
    for (b, s) in batched.iter().zip(&sequential) {
        assert_eq!(
            b.iter().map(|h| h.object.0).collect::<Vec<_>>(),
            s.iter().map(|h| h.object.0).collect::<Vec<_>>()
        );
    }
}

#[test]
fn batch_propagates_invalid_nodes() {
    let (engine, _, _) = setup();
    let bad = NodeId(engine.framework().network().num_nodes() as u32 + 5);
    let queries = vec![KnnQuery::new(NodeId(0), 1), KnnQuery::new(bad, 1)];
    assert!(engine.batch_knn(&queries, 2).is_err());
    assert!(engine.knn(&KnnQuery::new(bad, 1)).is_err());
}

/// Satellite regression: when several queries in a batch fail, the
/// reported error is that of the **lowest query index** — deterministic,
/// never "whichever worker thread loses the race". Distinct out-of-bounds
/// node ids make the failures distinguishable through the error value.
#[test]
fn batch_error_is_lowest_query_index() {
    let (engine, _, _) = setup();
    let n = engine.framework().network().num_nodes() as u32;
    for threads in [1usize, 2, 4, 7, 64] {
        let mut queries: Vec<KnnQuery> = (0..40u32).map(|i| KnnQuery::new(NodeId(i), 2)).collect();
        // Failures at indices 31, 17 and 6 — on different worker chunks
        // for most thread counts. Index 6 must win every time.
        queries[31] = KnnQuery::new(NodeId(n + 31), 2);
        queries[17] = KnnQuery::new(NodeId(n + 17), 2);
        queries[6] = KnnQuery::new(NodeId(n + 6), 2);
        let err = engine.batch_knn(&queries, threads).unwrap_err();
        assert_eq!(
            err,
            road_core::RoadError::NodeOutOfBounds(NodeId(n + 6)),
            "threads={threads}: batch must report the lowest failing index"
        );
        // Same contract for range batches.
        let mut ranges: Vec<RangeQuery> =
            (0..40u32).map(|i| RangeQuery::new(NodeId(i), Weight::new(2.0))).collect();
        ranges[25] = RangeQuery::new(NodeId(n + 25), Weight::new(2.0));
        ranges[9] = RangeQuery::new(NodeId(n + 9), Weight::new(2.0));
        let err = engine.batch_range(&ranges, threads).unwrap_err();
        assert_eq!(err, road_core::RoadError::NodeOutOfBounds(NodeId(n + 9)), "threads={threads}");
    }
}

#[test]
fn pooled_results_keep_labels_while_other_queries_run() {
    let (engine, queries, _) = setup();
    // Two results alive at once: the pool must hand out distinct
    // workspaces, and each result's labels must survive the other query.
    let a = engine.knn(&queries[0]).unwrap();
    let da = a.distance_to_node(queries[0].node);
    let b = engine.knn(&queries[1]).unwrap();
    assert_eq!(a.distance_to_node(queries[0].node), da, "labels invalidated by a later query");
    assert_eq!(da, Some(Weight::ZERO));
    // Paths reconstructed from a pooled result validate on the network.
    if let Some(hit) = a.hits.first() {
        let (path, _, _) =
            a.path_to_hit(engine.framework(), engine.directory(), hit).expect("path to hit");
        assert!(path.validate(engine.framework().network(), engine.framework().metric()));
    }
    drop(a);
    drop(b);
    // After recycling, fresh queries still answer (round bumping works).
    let again = engine.knn(&queries[0]).unwrap();
    assert_eq!(again.distance_to_node(queries[0].node), Some(Weight::ZERO));
}

#[test]
fn network_distance_is_thread_safe_and_consistent() {
    let (engine, _, _) = setup();
    let g = engine.framework().network();
    let kind = engine.framework().metric();
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let engine = engine.clone();
            scope.spawn(move || {
                for i in 0..12u32 {
                    let from = NodeId((t * 31 + i * 7) % g.num_nodes() as u32);
                    let to = NodeId((t * 13 + i * 29) % g.num_nodes() as u32);
                    let got = engine.network_distance(from, to).unwrap();
                    let want = road_network::dijkstra::shortest_path_weight(g, kind, from, to);
                    match (got, want) {
                        (Some(a), Some(b)) => assert!(a.approx_eq(b), "{from}->{to}: {a} vs {b}"),
                        (a, b) => assert_eq!(a.is_some(), b.is_some(), "{from}->{to}"),
                    }
                }
            });
        }
    });
}
