//! Oracle-agreement harness for disk-resident serving: [`PagedEngine`]
//! must answer **byte-for-byte** like the in-memory [`QueryEngine`] —
//! identical distances (exact f64 bits), identical object ids, identical
//! tie order — for every query in a randomized mix, at every buffer size
//! including a pathological 1-page pool, whether the pages were laid out
//! eagerly from a built framework or paged in lazily from a persisted
//! image, and whether the engine is queried from one thread or **shared
//! across many** (queries take `&self`). The expansion counters must
//! agree too: the paged engine runs the *same* search, it only pays page
//! I/O on top — and under concurrency every query's page deltas stay
//! exact (they sum to the pool's cumulative counters).

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "concurrency tests race threads against one engine on purpose; nothing they return is committed in completion order"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::paged::{PagedEngine, PagedOptions};
use road_core::prelude::*;
use road_core::search::{Aggregate, AggregateKnnQuery};
use road_core::SearchStats;
use road_network::generator::simple;
use road_network::graph::RoadNetwork;

fn build_world(
    net: RoadNetwork,
    objects: usize,
    seed: u64,
) -> (RoadFramework, AssociationDirectory) {
    let fw = RoadFramework::builder(net).fanout(2).levels(2).build().unwrap();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    let edges: Vec<_> = fw.network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..objects {
        let e = edges[rng.random_range(0..edges.len())];
        let o = Object::new(
            ObjectId(i as u64),
            e,
            rng.random_range(0.0..=1.0),
            CategoryId(rng.random_range(0..4)),
        );
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    (fw, ad)
}

/// A randomized query mix: kNN (with filters and distance caps) and range
/// queries, deterministic in `seed`.
fn query_mix(num_nodes: u32, count: usize, seed: u64) -> (Vec<KnnQuery>, Vec<RangeQuery>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let mut knns = Vec::new();
    let mut ranges = Vec::new();
    for i in 0..count {
        let node = NodeId(rng.random_range(0..num_nodes));
        if i % 3 == 2 {
            let mut q = RangeQuery::new(node, Weight::new(rng.random_range(0.1..30.0)));
            if i % 2 == 0 {
                q = q.with_filter(ObjectFilter::Category(CategoryId(rng.random_range(0..5))));
            }
            ranges.push(q);
        } else {
            let mut q = KnnQuery::new(node, rng.random_range(1..9));
            match i % 4 {
                0 => q = q.with_filter(ObjectFilter::Category(CategoryId(rng.random_range(0..5)))),
                1 => {
                    q = q.with_filter(ObjectFilter::AnyOf(vec![
                        CategoryId(rng.random_range(0..3)),
                        CategoryId(rng.random_range(0..5)),
                    ]))
                }
                _ => {}
            }
            if i % 5 == 0 {
                q = q.within(Weight::new(rng.random_range(1.0..20.0)));
            }
            knns.push(q);
        }
    }
    (knns, ranges)
}

/// Expansion counters must match between memory and paged serving; only
/// the page-I/O fields (and workspace-recycling flag) may differ.
fn normalize(mut stats: SearchStats) -> SearchStats {
    stats.pages_read = 0;
    stats.page_faults = 0;
    stats.workspace_reused = false;
    stats
}

fn assert_engines_agree(
    engine: &QueryEngine,
    disk: &PagedEngine,
    knns: &[KnnQuery],
    ranges: &[RangeQuery],
    label: &str,
) {
    for (i, q) in knns.iter().enumerate() {
        let mem = engine.knn(q).unwrap();
        let paged = disk.knn(q).unwrap();
        assert_eq!(mem.hits, paged.hits, "{label}: kNN query #{i} hits diverged ({q:?})");
        assert_eq!(
            normalize(mem.stats),
            normalize(paged.stats),
            "{label}: kNN query #{i} took a different expansion ({q:?})"
        );
    }
    for (i, q) in ranges.iter().enumerate() {
        let mem = engine.range(q).unwrap();
        let paged = disk.range(q).unwrap();
        assert_eq!(mem.hits, paged.hits, "{label}: range query #{i} hits diverged ({q:?})");
        assert_eq!(
            normalize(mem.stats),
            normalize(paged.stats),
            "{label}: range query #{i} took a different expansion ({q:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: random framework + object set + query mix,
    /// paged results equal in-memory results across buffer sizes,
    /// including a 1-page pathological pool, for both the eager layout
    /// and the lazily-opened persisted image.
    #[test]
    fn paged_matches_memory_across_buffer_sizes(
        n in 16usize..70,
        extra in 0usize..25,
        objects in 0usize..22,
        seed in 0u64..1000,
    ) {
        let (fw, ad) = build_world(simple::random_connected(n, extra, seed), objects, seed);
        let num_nodes = fw.network().num_nodes() as u32;
        let (knns, ranges) = query_mix(num_nodes, 15, seed);
        let engine = QueryEngine::new(fw.clone(), ad.clone());
        let image_bytes = fw.to_bytes();
        let objs: Vec<Object> = ad.objects().cloned().collect();

        for buffer_pages in [1usize, 3, 8, 64] {
            let opts = PagedOptions::with_buffer_pages(buffer_pages);
            let eager = PagedEngine::new(&fw, &ad, opts).unwrap();
            assert_engines_agree(
                &engine, &eager, &knns, &ranges,
                &format!("eager/buffer={buffer_pages}"),
            );

            let image = PagedImage::open(image_bytes.clone()).unwrap();
            let lazy = PagedEngine::open(image, objs.clone(), opts).unwrap();
            assert_engines_agree(
                &engine, &lazy, &knns, &ranges,
                &format!("lazy/buffer={buffer_pages}"),
            );
            // Lazy and eager engines converge on the same resident set.
            prop_assert!(lazy.rnets_loaded() <= eager.rnets_loaded());
        }
    }

    /// The PR-5 tentpole property: one shared engine (eager *and* lazily
    /// opened), hammered by 4 threads, answers every query in the mix
    /// byte-identically to the in-memory engine — and `aggregate_knn`
    /// (the new parity surface) agrees too.
    #[test]
    fn shared_engine_agrees_from_four_threads(
        n in 16usize..60,
        extra in 0usize..20,
        objects in 0usize..18,
        seed in 0u64..1000,
    ) {
        let (fw, ad) = build_world(simple::random_connected(n, extra, seed), objects, seed);
        let num_nodes = fw.network().num_nodes() as u32;
        let (knns, ranges) = query_mix(num_nodes, 12, seed);
        let engine = QueryEngine::new(fw.clone(), ad.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let aggregates: Vec<AggregateKnnQuery> = (0..3)
            .map(|i| {
                let m = rng.random_range(1..4usize);
                let nodes = (0..m).map(|_| NodeId(rng.random_range(0..num_nodes))).collect();
                let agg = if i % 2 == 0 { Aggregate::Sum } else { Aggregate::Max };
                AggregateKnnQuery::new(nodes, rng.random_range(1..5)).with_aggregate(agg)
            })
            .collect();
        // Single-threaded expectations (already oracle-pinned elsewhere).
        let want_knn: Vec<_> = knns.iter().map(|q| engine.knn(q).unwrap().hits).collect();
        let want_range: Vec<_> = ranges.iter().map(|q| engine.range(q).unwrap().hits).collect();
        let want_agg: Vec<_> =
            aggregates.iter().map(|q| fw.aggregate_knn(&ad, q).unwrap()).collect();

        let objs: Vec<Object> = ad.objects().cloned().collect();
        let image = PagedImage::open(fw.to_bytes()).unwrap();
        let opts = PagedOptions::with_buffer_pages(16);
        let engines = [
            ("eager", PagedEngine::new(&fw, &ad, opts).unwrap()),
            ("lazy", PagedEngine::open(image, objs, opts).unwrap()),
        ];
        for (label, disk) in &engines {
            std::thread::scope(|scope| {
                for t in 0..4usize {
                    let disk = &disk;
                    let (knns, ranges, aggregates) = (&knns, &ranges, &aggregates);
                    let (want_knn, want_range, want_agg) = (&want_knn, &want_range, &want_agg);
                    scope.spawn(move || {
                        let mut ws = SearchWorkspace::new();
                        let mut hits = Vec::new();
                        // Each thread starts at a different offset so the
                        // stripes see genuinely interleaved traffic.
                        for round in 0..2 {
                            for i in 0..knns.len() {
                                let idx = (i + t * 3 + round) % knns.len();
                                disk.knn_with(&knns[idx], &mut ws, &mut hits).unwrap();
                                assert_eq!(
                                    hits, want_knn[idx],
                                    "{label}: thread {t} kNN #{idx} diverged"
                                );
                            }
                            for (idx, q) in ranges.iter().enumerate() {
                                disk.range_with(q, &mut ws, &mut hits).unwrap();
                                assert_eq!(
                                    hits, want_range[idx],
                                    "{label}: thread {t} range #{idx} diverged"
                                );
                            }
                            for (idx, q) in aggregates.iter().enumerate() {
                                let got = disk.aggregate_knn(q).unwrap();
                                assert_eq!(
                                    got, want_agg[idx],
                                    "{label}: thread {t} aggregate #{idx} diverged"
                                );
                            }
                        }
                    });
                }
            });
        }
    }
}

/// The same property at a scale CI only pays for in the `--include-ignored`
/// stress pass: a larger network, more objects, a longer query mix, and
/// the two extreme buffer sizes.
#[test]
#[ignore = "stress: larger agreement sweep, run via --include-ignored"]
fn stress_paged_agreement_large_network() {
    for seed in [7u64, 99, 4242] {
        let (fw, ad) = build_world(simple::random_connected(350, 140, seed), 60, seed);
        let num_nodes = fw.network().num_nodes() as u32;
        let (knns, ranges) = query_mix(num_nodes, 60, seed);
        let engine = QueryEngine::new(fw.clone(), ad.clone());
        let objs: Vec<Object> = ad.objects().cloned().collect();
        for buffer_pages in [1usize, 50] {
            let opts = PagedOptions::with_buffer_pages(buffer_pages);
            let eager = PagedEngine::new(&fw, &ad, opts).unwrap();
            assert_engines_agree(
                &engine,
                &eager,
                &knns,
                &ranges,
                &format!("stress-eager/seed={seed}/buffer={buffer_pages}"),
            );
            let image = PagedImage::open(fw.to_bytes()).unwrap();
            let lazy = PagedEngine::open(image, objs.clone(), opts).unwrap();
            assert_engines_agree(
                &engine,
                &lazy,
                &knns,
                &ranges,
                &format!("stress-lazy/seed={seed}/buffer={buffer_pages}"),
            );
        }
    }
}

/// The concurrent stress suite the CI `--include-ignored` step runs: many
/// threads on one shared engine under the nastiest configurations —
/// tiny pools with **one page per stripe** (maximum eviction churn, every
/// read a likely fault) and lazily opened images whose Rnet sections
/// race to load — must stay byte-identical to the in-memory engine. The
/// last case is the stale-pin trap under contention: a pool that evicts
/// nothing and a fresh lazy engine per round, all threads released at
/// once onto the same category-filtered queries, so that one thread's pin
/// of the append region's open page predates another thread's
/// append to it (the deterministic form of that interleaving is
/// `another_threads_page_in_after_the_pin_is_not_read_through_the_pin` in
/// `paged.rs`).
#[test]
#[ignore = "stress: concurrent paged serving sweep, run via --include-ignored"]
fn stress_concurrent_paged_tiny_pools() {
    const THREADS: usize = 8;
    for seed in [11u64, 222, 3333] {
        let (fw, ad) = build_world(simple::random_connected(180, 70, seed), 40, seed);
        let num_nodes = fw.network().num_nodes() as u32;
        let (knns, ranges) = query_mix(num_nodes, 40, seed);
        let engine = QueryEngine::new(fw.clone(), ad.clone());
        let want_knn: Vec<_> = knns.iter().map(|q| engine.knn(q).unwrap().hits).collect();
        let want_range: Vec<_> = ranges.iter().map(|q| engine.range(q).unwrap().hits).collect();
        let objs: Vec<Object> = ad.objects().cloned().collect();
        let image_bytes = fw.to_bytes();
        // One page per stripe: capacity == stripes, so every stripe is a
        // single-frame LRU and concurrent faults hammer the store.
        for (pages, stripes) in [(4usize, 4usize), (8, 8), (50, 8)] {
            let opts = PagedOptions::with_buffer_pages(pages).with_stripes(stripes);
            let image = PagedImage::open(image_bytes.clone()).unwrap();
            let engines = [
                ("eager", PagedEngine::new(&fw, &ad, opts).unwrap()),
                ("lazy", PagedEngine::open(image, objs.clone(), opts).unwrap()),
            ];
            for (label, disk) in &engines {
                std::thread::scope(|scope| {
                    for t in 0..THREADS {
                        let disk = &disk;
                        let (knns, ranges) = (&knns, &ranges);
                        let (want_knn, want_range) = (&want_knn, &want_range);
                        scope.spawn(move || {
                            let mut ws = SearchWorkspace::new();
                            let mut hits = Vec::new();
                            for i in 0..knns.len() {
                                let idx = (i + t * 5) % knns.len();
                                disk.knn_with(&knns[idx], &mut ws, &mut hits).unwrap();
                                assert_eq!(
                                    hits, want_knn[idx],
                                    "{label}: seed {seed} pages {pages} thread {t} kNN #{idx}"
                                );
                            }
                            for (idx, q) in ranges.iter().enumerate() {
                                disk.range_with(q, &mut ws, &mut hits).unwrap();
                                assert_eq!(
                                    hits, want_range[idx],
                                    "{label}: seed {seed} pages {pages} thread {t} range #{idx}"
                                );
                            }
                        });
                    }
                });
            }
        }
        let filtered: Vec<usize> =
            (0..knns.len()).filter(|&i| knns[i].filter != ObjectFilter::Any).collect();
        for round in 0..10 {
            let image = PagedImage::open(image_bytes.clone()).unwrap();
            let opts = PagedOptions::with_buffer_pages(4096);
            let lazy = PagedEngine::open(image, objs.clone(), opts).unwrap();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (lazy, start, filtered) = (&lazy, &start, &filtered);
                    let (knns, want_knn) = (&knns, &want_knn);
                    scope.spawn(move || {
                        let mut ws = SearchWorkspace::new();
                        let mut hits = Vec::new();
                        start.wait();
                        for &idx in filtered {
                            lazy.knn_with(&knns[idx], &mut ws, &mut hits).unwrap();
                            assert_eq!(
                                hits, want_knn[idx],
                                "pins vs page-ins: seed {seed} round {round} thread {t} kNN #{idx}"
                            );
                        }
                    });
                }
            });
        }
    }
}

/// Exact accounting under concurrency: every query's `SearchStats` page
/// deltas come from its private tally, and the tallies of all threads sum
/// to the pool's cumulative `BufferStats` — no double counting, no lost
/// or cross-charged traffic.
#[test]
fn per_query_stats_sum_to_pool_counters_under_threads() {
    let (fw, ad) = build_world(simple::grid(10, 10, 1.0), 16, 9);
    let (knns, ranges) = query_mix(fw.network().num_nodes() as u32, 24, 9);
    let disk = PagedEngine::new(&fw, &ad, PagedOptions::with_buffer_pages(6)).unwrap();
    let zero = disk.buffer_stats();
    assert_eq!((zero.logical_reads, zero.page_faults), (0, 0), "build must reset counters");
    let per_thread: Vec<SearchStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4usize)
            .map(|t| {
                let disk = &disk;
                let (knns, ranges) = (&knns, &ranges);
                scope.spawn(move || {
                    let mut ws = SearchWorkspace::new();
                    let mut hits = Vec::new();
                    let mut total = SearchStats::default();
                    // 200 queries a thread: each settles its own tally into
                    // the pool's counters when it returns.
                    for i in 0..200 - ranges.len() {
                        let q = &knns[(i + t * 7) % knns.len()];
                        total.absorb(&disk.knn_with(q, &mut ws, &mut hits).unwrap());
                    }
                    for q in ranges.iter() {
                        total.absorb(&disk.range_with(q, &mut ws, &mut hits).unwrap());
                    }
                    total
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let reads: usize = per_thread.iter().map(|s| s.pages_read).sum();
    let faults: usize = per_thread.iter().map(|s| s.page_faults).sum();
    let pool = disk.buffer_stats();
    assert_eq!(reads as u64, pool.logical_reads, "per-query reads drifted from the pool");
    assert_eq!(faults as u64, pool.page_faults, "per-query faults drifted from the pool");
    assert!(reads > 0 && faults > 0, "workload must generate page traffic");
    // `reset_io_stats` zeroes the cumulative counters without touching
    // the cache, so a fresh accounting round starts clean and warm.
    disk.reset_io_stats();
    let st = disk.buffer_stats();
    assert_eq!((st.logical_reads, st.page_faults, st.write_backs), (0, 0, 0));
    assert_eq!(st.hit_rate(), 1.0, "hit rate must be defined at zero reads");
}

/// Regression (lost write), the engine's form: `clear_cache(&self)` is
/// public, and on a lazily opened engine serving threads *write* — an
/// Rnet's shortcut records are appended on first touch. The pool used to
/// flush and then empty its stripes in two passes; a record written in
/// between was dropped with its frame, and the next read of it saw zeros —
/// a well-formed "0 shortcuts" record and a silently wrong answer. Four
/// threads page a fresh engine in while a fifth clears the cache
/// throughout; every answer must be the in-memory engine's.
#[test]
fn clear_cache_beside_lazy_page_ins_loses_no_record() {
    let (fw, ad) = build_world(simple::random_connected(120, 50, 21), 30, 21);
    let (knns, ranges) = query_mix(fw.network().num_nodes() as u32, 24, 21);
    let engine = QueryEngine::new(fw.clone(), ad.clone());
    let want_knn: Vec<_> = knns.iter().map(|q| engine.knn(q).unwrap().hits).collect();
    let want_range: Vec<_> = ranges.iter().map(|q| engine.range(q).unwrap().hits).collect();
    let objs: Vec<Object> = ad.objects().cloned().collect();
    let image_bytes = fw.to_bytes();
    for round in 0..12 {
        let image = PagedImage::open(image_bytes.clone()).unwrap();
        let disk = PagedEngine::open(image, objs.clone(), PagedOptions::default()).unwrap();
        std::thread::scope(|scope| {
            let serving: Vec<_> = (0..4usize)
                .map(|t| {
                    let disk = &disk;
                    let (knns, ranges) = (&knns, &ranges);
                    let (want_knn, want_range) = (&want_knn, &want_range);
                    scope.spawn(move || {
                        let mut ws = SearchWorkspace::new();
                        let mut hits = Vec::new();
                        for pass in 0..2 {
                            for i in 0..knns.len() {
                                let idx = (i + t * 5) % knns.len();
                                disk.knn_with(&knns[idx], &mut ws, &mut hits).unwrap();
                                assert_eq!(
                                    hits, want_knn[idx],
                                    "round {round} pass {pass} thread {t} kNN #{idx}"
                                );
                            }
                            for (idx, q) in ranges.iter().enumerate() {
                                disk.range_with(q, &mut ws, &mut hits).unwrap();
                                assert_eq!(
                                    hits, want_range[idx],
                                    "round {round} pass {pass} thread {t} range #{idx}"
                                );
                            }
                        }
                    })
                })
                .collect();
            while !serving.iter().all(|thread| thread.is_finished()) {
                disk.clear_cache().unwrap();
            }
        });
    }
}

/// Workspace reuse composes with paged serving: one workspace carried
/// across queries against engines of different sizes answers like the
/// convenience API.
#[test]
fn paged_knn_with_reused_workspace() {
    let (fw_a, ad_a) = build_world(simple::grid(7, 7, 1.0), 9, 1);
    let (fw_b, ad_b) = build_world(simple::chain(9, 1.0), 3, 2);
    let disk_a = PagedEngine::new(&fw_a, &ad_a, PagedOptions::default()).unwrap();
    let disk_b = PagedEngine::new(&fw_b, &ad_b, PagedOptions::default()).unwrap();
    let mut ws = SearchWorkspace::new();
    let mut hits = Vec::new();
    for step in 0..12u32 {
        let (disk, num_nodes) = if step % 2 == 0 {
            (&disk_a, fw_a.network().num_nodes())
        } else {
            (&disk_b, fw_b.network().num_nodes())
        };
        let q = KnnQuery::new(NodeId(step % num_nodes as u32), 1 + (step as usize % 4));
        disk.knn_with(&q, &mut ws, &mut hits).unwrap();
        let fresh = disk.knn(&q).unwrap();
        assert_eq!(hits, fresh.hits, "reused workspace diverged at step {step}");
    }
    assert!(ws.reuse_count() >= 12);
}

/// The paged engine's batch entry points: same answers as the in-memory
/// batch (in query order, any thread count) and the same deterministic
/// lowest-query-index error contract.
#[test]
fn paged_batches_match_memory_and_report_lowest_error() {
    let (fw, ad) = build_world(simple::grid(9, 9, 1.0), 12, 3);
    let n = fw.network().num_nodes() as u32;
    let engine = QueryEngine::new(fw.clone(), ad.clone());
    let disk = PagedEngine::new(&fw, &ad, PagedOptions::with_buffer_pages(12)).unwrap();
    let (knns, ranges) = query_mix(n, 30, 3);
    for threads in [1usize, 3, 8] {
        assert_eq!(disk.batch_knn(&knns, threads).unwrap(), engine.batch_knn(&knns, 1).unwrap());
        assert_eq!(
            disk.batch_range(&ranges, threads).unwrap(),
            engine.batch_range(&ranges, 1).unwrap()
        );
    }
    // Error determinism (same contract as QueryEngine::batch_knn).
    let mut bad = knns.clone();
    let hi = bad.len() - 1;
    bad[hi] = KnnQuery::new(NodeId(n + 100), 1);
    bad[2] = KnnQuery::new(NodeId(n + 2), 1);
    for threads in [1usize, 4] {
        assert_eq!(
            disk.batch_knn(&bad, threads).unwrap_err(),
            road_core::RoadError::NodeOutOfBounds(NodeId(n + 2)),
        );
    }
}

/// Page faults cannot increase when the buffer grows (same layout, same
/// query stream), the buffer does not change what a query *touches* —
/// page accesses are the same at every size — and on this workload it
/// matters: the largest pool faults strictly less than the smallest.
/// LRU's inclusion property holds per stripe, so the guarantee requires
/// the **same stripe count at every size** (a different count
/// re-partitions pages across stripes); the sweep pins one stripe, the
/// strict single-LRU regime.
#[test]
fn faults_decrease_monotonically_with_buffer_size() {
    let (fw, ad) = build_world(simple::grid(10, 10, 1.0), 14, 5);
    let (knns, ranges) = query_mix(fw.network().num_nodes() as u32, 20, 5);
    let mut sweep: Vec<(u64, u64)> = Vec::new();
    for buffer_pages in [1usize, 4, 16, 64, 256] {
        let opts = PagedOptions::with_buffer_pages(buffer_pages).with_stripes(1);
        let disk = PagedEngine::new(&fw, &ad, opts).unwrap();
        let (mut reads, mut faults) = (0u64, 0u64);
        let knn_stats = knns.iter().map(|q| disk.knn(q).unwrap().stats);
        for stats in knn_stats.chain(ranges.iter().map(|q| disk.range(q).unwrap().stats)) {
            reads += stats.pages_read as u64;
            faults += stats.page_faults as u64;
        }
        if let Some(&(last_reads, last_faults)) = sweep.last() {
            assert_eq!(reads, last_reads, "page accesses moved at {buffer_pages} buffer pages");
            assert!(
                faults <= last_faults,
                "faults grew from {last_faults} to {faults} when buffer grew to {buffer_pages} pages"
            );
        }
        sweep.push((reads, faults));
    }
    assert!(sweep[0].1 > sweep[4].1, "buffer growth showed no effect: {sweep:?}");
}
