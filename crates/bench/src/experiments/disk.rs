//! `exp_disk` — disk-resident serving through the real storage stack.
//!
//! The paper's headline numbers are page accesses through a 4 KB-page,
//! 50-frame LRU buffer (Section 6 methodology; Figures 15–18 report I/O).
//! The figure experiments report ROAD's cold per-query faults from the
//! same [`road_core::paged::PagedEngine`] (behind `baselines::RoadEngine`);
//! this one looks at what the paper does not: **warm** serving, lazy
//! open and sharing, always from actual serialized pages and reporting
//! what the buffer pool really did. Three views:
//!
//! 1. **Buffer sweep** (memory-constrained serving): a warm serving loop
//!    over the Figure 17 kNN workload at increasing pool sizes. Page
//!    *accesses* stay constant (same expansion), page *faults* must fall
//!    monotonically as the pool grows — LRU's inclusion property, checked
//!    here and in the `paged_tests` suite. Every sweep point also asserts
//!    the paged hit lists equal the in-memory `QueryEngine`'s.
//! 2. **Page-granular open**: serving straight from a `ROADFW01` image,
//!    reporting how few Rnet shortcut sections the first queries page in
//!    and the first-touch vs steady-state fault cost.
//! 3. **Thread scaling** (beyond the paper): warm-cache kNN throughput of
//!    one *shared* `PagedEngine` (`&self` queries, lock-striped buffer
//!    pool) at 1..N threads, against the explicitly rejected baseline —
//!    the same engine behind one big `Mutex`, which serializes every
//!    query. With real hardware parallelism the shared engine must beat
//!    the mutex at 4 threads (asserted); answers are oracle-checked
//!    either way.

use super::Ctx;
use crate::table::{fmt_f, fmt_mb, print_table};
use crate::{config, workload};
use road_core::paged::{PagedEngine, PagedOptions};
use road_core::prelude::*;
use road_core::{PagedImage, QueryEngine, SearchStats};
use road_network::generator::Dataset;
use std::sync::Mutex;
use std::time::Instant;

/// Buffer sizes swept in view 1 (pages; the paper's default is 50).
pub const BUFFER_SWEEP: [usize; 5] = [10, 25, 50, 100, 200];

/// One buffer-sweep measurement point.
pub struct SweepPoint {
    pub buffer_pages: usize,
    pub pages_read: u64,
    pub page_faults: u64,
    pub hit_rate: f64,
}

/// Runs the warm-serving kNN workload at each buffer size, asserting
/// oracle agreement with `engine` at every point. Returns one point per
/// buffer size; faults are guaranteed non-increasing (panics otherwise —
/// this is the experiment's acceptance criterion, not a soft report).
///
/// Every point runs at the **same stripe count** — pinned to the
/// smallest swept size (capped at the default). LRU's inclusion property
/// holds per stripe only when the page-to-stripe mapping is identical
/// across the compared pools; letting the engine pick a different stripe
/// count per size would re-partition the pages and break the
/// monotonicity guarantee for non-nested stripe counts.
pub fn sweep_buffer_sizes(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    engine: &QueryEngine,
    queries: &[KnnQuery],
    buffer_sizes: &[usize],
) -> Vec<SweepPoint> {
    let stripes = buffer_sizes
        .iter()
        .copied()
        .min()
        .unwrap_or(road_storage::DEFAULT_BUFFER_STRIPES)
        .clamp(1, road_storage::DEFAULT_BUFFER_STRIPES);
    let mut points = Vec::new();
    let mut last_faults = u64::MAX;
    for &buffer_pages in buffer_sizes {
        let opts = PagedOptions::with_buffer_pages(buffer_pages).with_stripes(stripes);
        let disk = PagedEngine::new(fw, ad, opts).expect("paged engine builds");
        let mut total = SearchStats::default();
        for q in queries {
            let paged = disk.knn(q).expect("valid query");
            let mem = engine.knn(q).expect("valid query");
            assert_eq!(mem.hits, paged.hits, "paged serving diverged from the in-memory oracle");
            total.absorb(&paged.stats);
        }
        let (pages_read, page_faults) = (total.pages_read as u64, total.page_faults as u64);
        assert!(
            page_faults <= last_faults,
            "page faults grew ({last_faults} -> {page_faults}) when the buffer grew to \
             {buffer_pages} pages"
        );
        last_faults = page_faults;
        points.push(SweepPoint {
            buffer_pages,
            pages_read,
            page_faults,
            hit_rate: total.buffer_hit_rate(),
        });
    }
    points
}

/// One thread-scaling measurement point.
pub struct ScalingPoint {
    pub threads: usize,
    pub shared_qps: f64,
    pub mutex_qps: f64,
}

/// Warm-cache kNN throughput of one serving configuration: `threads`
/// scoped workers interleave over the query stream (round-robin by
/// index, so every thread mixes the whole working set), each with a
/// reused workspace. The per-query closure is the only difference
/// between the shared engine and the mutex baseline, so both measure the
/// exact same workload split.
fn serving_qps(
    queries: &[KnnQuery],
    threads: usize,
    passes: usize,
    run: impl Fn(&KnnQuery, &mut SearchWorkspace, &mut Vec<SearchHit>) + Sync,
) -> f64 {
    let run = &run;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut ws = SearchWorkspace::new();
                let mut hits = Vec::new();
                for _ in 0..passes {
                    for (i, q) in queries.iter().enumerate() {
                        if i % threads == t {
                            run(q, &mut ws, &mut hits);
                        }
                    }
                }
            });
        }
    });
    (passes * queries.len()) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the warm-cache thread-scaling comparison (view 3): the shared
/// `&self` engine against the rejected baseline — the same engine behind
/// one global `Mutex`, which is what sharing a `&mut self` engine would
/// have required. Every point serves the same stream; answers were
/// already oracle-checked by the buffer sweep.
///
/// With `enforce` set and >= 4 hardware threads, the shared engine must
/// beat the mutex baseline at 4 threads (asserted — the acceptance
/// criterion). The harness passes `enforce = true` at its real workload
/// scale; tiny smoke workloads should pass `false`, because measurements
/// dominated by thread spawn/join noise would make a relative-speed
/// assert flaky without indicating any defect.
pub fn thread_scaling(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    queries: &[KnnQuery],
    buffer_pages: usize,
    passes: usize,
    enforce: bool,
) -> Vec<ScalingPoint> {
    let opts = PagedOptions::with_buffer_pages(buffer_pages);
    let shared = PagedEngine::new(fw, ad, opts).expect("paged engine builds");
    let locked = Mutex::new(PagedEngine::new(fw, ad, opts).expect("paged engine builds"));
    let shared_run = |q: &KnnQuery, ws: &mut SearchWorkspace, hits: &mut Vec<SearchHit>| {
        shared.knn_with(q, ws, hits).expect("valid query");
    };
    let mutex_run = |q: &KnnQuery, ws: &mut SearchWorkspace, hits: &mut Vec<SearchHit>| {
        locked.lock().expect("baseline lock").knn_with(q, ws, hits).expect("valid query");
    };
    // Warm both caches once so every measured pass is steady-state.
    let _ = serving_qps(queries, 1, 1, shared_run);
    let _ = serving_qps(queries, 1, 1, mutex_run);
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut points = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let point = ScalingPoint {
            threads,
            shared_qps: serving_qps(queries, threads, passes, shared_run),
            mutex_qps: serving_qps(queries, threads, passes, mutex_run),
        };
        if enforce && threads == 4 && hw >= 4 {
            assert!(
                point.shared_qps > point.mutex_qps,
                "shared engine ({:.0} QPS) must beat the Mutex baseline ({:.0} QPS) at 4 \
                 threads on {hw}-way hardware",
                point.shared_qps,
                point.mutex_qps,
            );
        }
        points.push(point);
    }
    points
}

/// Full experiment (the `exp_disk` binary).
pub fn run(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let objects = workload::uniform_objects(&g, count, ctx.params.seed + 31);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 310);

    println!("\n## exp_disk — disk-resident serving (CA, |O| = {count}, k = {})", ctx.params.k);
    println!(
        "\nnetwork: {} nodes / {} edges, hierarchy p={} l={levels}",
        g.num_nodes(),
        g.num_edges(),
        ctx.params.fanout
    );

    let fw = RoadFramework::builder(g.clone())
        .fanout(ctx.params.fanout)
        .levels(levels)
        .metric(ctx.params.metric)
        .build()
        .expect("framework builds");
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for o in &objects {
        ad.insert(fw.network(), fw.hierarchy(), o.clone()).expect("objects place");
    }
    let engine = QueryEngine::new(fw.clone(), ad.clone());
    let queries: Vec<KnnQuery> = nodes.iter().map(|&n| KnnQuery::new(n, ctx.params.k)).collect();

    // --- 1: warm serving vs buffer size --------------------------------
    let points = sweep_buffer_sizes(&fw, &ad, &engine, &queries, &BUFFER_SWEEP);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.buffer_pages.to_string(),
                p.pages_read.to_string(),
                p.page_faults.to_string(),
                format!("{:.1}%", p.hit_rate * 100.0),
            ]
        })
        .collect();
    print_table(
        "Warm serving: page traffic vs buffer size (kNN workload, oracle-checked)",
        &["buffer (pages)", "page accesses", "page faults", "buffer hit rate"],
        &rows,
    );
    println!(
        "\npage faults fall monotonically with buffer size (asserted); \
         accesses stay constant because the expansion is identical."
    );

    // --- 2: page-granular open ------------------------------------------
    let image_bytes = fw.to_bytes();
    let image_mb = image_bytes.len();
    let image = PagedImage::open(image_bytes).expect("image opens");
    let total_rnets = image.num_rnets();
    let lazy = PagedEngine::open(
        image,
        objects.clone(),
        PagedOptions::with_buffer_pages(ctx.params.buffer_pages),
    )
    .expect("image serves");
    let mut first = SearchStats::default();
    for q in &queries {
        let res = lazy.knn(q).expect("valid query");
        let mem = engine.knn(q).expect("valid query");
        assert_eq!(mem.hits, res.hits, "image-served results diverged from the oracle");
        first.absorb(&res.stats);
    }
    let loaded_after_first = lazy.rnets_loaded();
    let mut second = SearchStats::default();
    for q in &queries {
        second.absorb(&lazy.knn(q).expect("valid query").stats);
    }
    print_table(
        "Page-granular image open (lazy per-Rnet shortcut load)",
        &["pass", "page accesses", "page faults", "Rnets resident"],
        &[
            vec![
                "first (pages Rnets in)".into(),
                first.pages_read.to_string(),
                first.page_faults.to_string(),
                format!("{loaded_after_first}/{total_rnets}"),
            ],
            vec![
                "second (steady state)".into(),
                second.pages_read.to_string(),
                second.page_faults.to_string(),
                format!("{}/{}", lazy.rnets_loaded(), total_rnets),
            ],
        ],
    );
    println!(
        "\nimage: {}, on-disk layout: {} pages ({}), node region {} pages; \
         the first pass touched {loaded_after_first} of {total_rnets} Rnet sections.",
        fmt_mb(image_mb),
        lazy.num_disk_pages(),
        fmt_mb(lazy.disk_size_bytes()),
        lazy.node_region_pages(),
    );

    // --- 3: warm-cache thread scaling, shared vs Mutex baseline ---------
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let points = thread_scaling(&fw, &ad, &queries, ctx.params.buffer_pages, 20, true);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                fmt_f(p.shared_qps),
                fmt_f(p.mutex_qps),
                format!("{:.2}x", p.shared_qps / p.mutex_qps.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Warm-cache thread scaling: shared &self engine vs Mutex<PagedEngine> baseline \
             ({hw} hardware threads)"
        ),
        &["threads", "shared QPS", "mutex QPS", "shared/mutex"],
        &rows,
    );
    println!(
        "\nthe Mutex row is the rejected design (one lock around a &mut engine); the shared \
         row is the lock-striped pool{}",
        if hw >= 4 {
            " — asserted faster at 4 threads."
        } else {
            ". (assertion skipped: fewer than 4 hardware threads)"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::generator::simple;

    /// The acceptance property on a CI-sized world: faults monotone in
    /// buffer size and every point oracle-checked (the helper asserts
    /// internally).
    #[test]
    fn buffer_sweep_is_monotone_and_oracle_checked() {
        let g = simple::grid(9, 9, 1.0);
        let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
        let mut ad = AssociationDirectory::new(fw.hierarchy());
        for (i, e) in fw.network().edge_ids().step_by(11).enumerate() {
            ad.insert(
                fw.network(),
                fw.hierarchy(),
                Object::new(ObjectId(i as u64), e, 0.3, CategoryId(0)),
            )
            .unwrap();
        }
        let engine = QueryEngine::new(fw.clone(), ad.clone());
        let queries: Vec<KnnQuery> = (0..20u32).map(|i| KnnQuery::new(NodeId(i * 4), 3)).collect();
        let points = sweep_buffer_sizes(&fw, &ad, &engine, &queries, &[2, 8, 32, 128]);
        assert_eq!(points.len(), 4);
        // Accesses identical at every buffer size; hit rate non-decreasing.
        assert!(points.windows(2).all(|w| w[0].pages_read == w[1].pages_read));
        assert!(points.windows(2).all(|w| w[0].hit_rate <= w[1].hit_rate + 1e-12));
        // The sweep must show a real spread on this workload.
        assert!(
            points.first().unwrap().page_faults > points.last().unwrap().page_faults,
            "buffer growth showed no effect"
        );
    }

    /// The thread-scaling smoke: the shared-vs-mutex comparison completes
    /// at every thread count. The 4-thread superiority assertion is NOT
    /// enforced here — this workload (a few dozen queries) is dominated
    /// by thread spawn/join noise, which would make a relative-speed
    /// assert flaky. `exp_disk` enforces it at its real workload scale.
    #[test]
    fn thread_scaling_smoke() {
        let g = simple::grid(8, 8, 1.0);
        let fw = RoadFramework::builder(g).fanout(4).levels(2).build().unwrap();
        let mut ad = AssociationDirectory::new(fw.hierarchy());
        for (i, e) in fw.network().edge_ids().step_by(9).enumerate() {
            ad.insert(
                fw.network(),
                fw.hierarchy(),
                Object::new(ObjectId(i as u64), e, 0.5, CategoryId(0)),
            )
            .unwrap();
        }
        let queries: Vec<KnnQuery> = (0..16u32).map(|i| KnnQuery::new(NodeId(i * 4), 3)).collect();
        let points = thread_scaling(&fw, &ad, &queries, 25, 2, false);
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.shared_qps > 0.0 && p.mutex_qps > 0.0));
    }
}
