//! Disk-resident serving: build the overlay once, ship it as a
//! `ROADFW01` image, and serve kNN straight from 4 KB pages through an
//! LRU buffer pool — the paper's actual cost model, where queries are
//! charged in page accesses, not CPU time.
//!
//! The walk-through: build + persist, open the image *page-granularly*
//! (no monolithic deserialize — Rnet shortcut sections page in on first
//! touch), serve a burst of queries under a small memory budget,
//! cross-check every answer against the in-memory engine, fan the same
//! replica out across **four serving threads** (queries take `&self`;
//! the lock-striped buffer pool needs no wrapper mutex), and watch the
//! buffer-pool economics change as the pool grows.
//!
//! ```text
//! cargo run --release --example disk_serving
//! ```

use road_core::paged::{PagedEngine, PagedOptions};
use road_core::prelude::*;
use road_network::fanout::fan_out;
use road_network::generator::simple;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build once: a 24x24 street grid with 100 m blocks, fanout-4
    //    hierarchy, and a directory of fuel stations.
    let network = simple::grid(24, 24, 100.0);
    let road = RoadFramework::builder(network).fanout(4).levels(3).build()?;
    const FUEL: CategoryId = CategoryId(7);
    let mut stations = AssociationDirectory::new(road.hierarchy());
    let edges: Vec<_> = road.network().edge_ids().collect();
    for i in 0..18u64 {
        let e = edges[(i as usize * 61) % edges.len()];
        stations.insert(
            road.network(),
            road.hierarchy(),
            Object::new(ObjectId(i), e, 0.5, FUEL),
        )?;
    }
    println!(
        "built overlay: {} nodes, {} shortcuts, {} stations",
        road.network().num_nodes(),
        road.shortcuts().num_shortcuts(),
        stations.len()
    );

    // 2. Ship it: the persisted image is the deployment artifact.
    let image_bytes = road.to_bytes();
    println!("persisted image: {} KB", image_bytes.len() / 1024);

    // 3. A serving replica opens the image page-granularly: the network
    //    and hierarchy load eagerly, but no Rnet's shortcuts are decoded
    //    until a query first crosses that Rnet.
    let image = PagedImage::open(image_bytes)?;
    let objects: Vec<Object> = stations.objects().cloned().collect();
    let replica = PagedEngine::open(image, objects, PagedOptions::with_buffer_pages(25))?;
    println!(
        "replica opened lazily: {}/{} Rnet sections resident, {} disk pages",
        replica.rnets_loaded(),
        replica.hierarchy().num_rnets(),
        replica.num_disk_pages()
    );

    // 4. Serve a query burst from pages, oracle-checking each answer
    //    against the in-memory engine.
    let oracle = QueryEngine::new(road.clone(), stations);
    let mut first_burst_faults = 0usize;
    for i in 0..40u32 {
        let q = KnnQuery::new(NodeId((i * 14) % 576), 3).with_filter(ObjectFilter::Category(FUEL));
        let paged = replica.knn(&q)?;
        let mem = oracle.knn(&q)?;
        assert_eq!(paged.hits, mem.hits, "paged serving must match the in-memory engine");
        first_burst_faults += paged.stats.page_faults;
    }
    println!(
        "first burst: 40 queries oracle-checked, {} page faults, {}/{} Rnet sections paged in",
        first_burst_faults,
        replica.rnets_loaded(),
        replica.hierarchy().num_rnets()
    );

    // 5. The same burst again: the working set is resident now.
    let mut warm = 0usize;
    let mut accesses = 0usize;
    for i in 0..40u32 {
        let q = KnnQuery::new(NodeId((i * 14) % 576), 3).with_filter(ObjectFilter::Category(FUEL));
        let res = replica.knn(&q)?;
        warm += res.stats.page_faults;
        accesses += res.stats.pages_read;
    }
    println!("warm burst: {accesses} page accesses, {warm} faults");

    // 6. Concurrent serving: queries take `&self`, so four threads share
    //    the replica directly — no Mutex wrapper — each oracle-checking
    //    its own slice of the burst. Per-thread SearchStats stay exact
    //    (each query's page counters come from its private tally).
    let served: usize = fan_out(0..4u32, |t| {
        let mut ws = SearchWorkspace::new();
        let mut hits = Vec::new();
        let mut served = 0usize;
        for i in (0..40u32).filter(|i| i % 4 == t) {
            let q =
                KnnQuery::new(NodeId((i * 14) % 576), 3).with_filter(ObjectFilter::Category(FUEL));
            replica.knn_with(&q, &mut ws, &mut hits).expect("valid query");
            let mem = oracle.knn(&q).expect("valid query");
            assert_eq!(hits, mem.hits, "concurrent paged serving must stay exact");
            served += 1;
        }
        served
    })
    .expect("serving thread panicked")
    .into_iter()
    .sum();
    println!(
        "concurrent burst: {served} queries from 4 threads on one shared replica, all \
         oracle-checked ({} buffer stripes)",
        replica.buffer_stripes()
    );

    // 7. Memory-constrained serving: the same workload under shrinking
    //    buffer budgets (eager layout so each run is self-contained).
    println!("\nbuffer sweep (same 40-query burst, eager layout):");
    let stations2 = {
        let mut ad = AssociationDirectory::new(road.hierarchy());
        for o in oracle.directory().objects() {
            ad.insert(road.network(), road.hierarchy(), o.clone())?;
        }
        ad
    };
    for pages in [5usize, 25, 100] {
        let engine = PagedEngine::new(&road, &stations2, PagedOptions::with_buffer_pages(pages))?;
        let mut faults = 0usize;
        let mut reads = 0usize;
        for i in 0..40u32 {
            let q =
                KnnQuery::new(NodeId((i * 14) % 576), 3).with_filter(ObjectFilter::Category(FUEL));
            let res = engine.knn(&q)?;
            faults += res.stats.page_faults;
            reads += res.stats.pages_read;
        }
        println!(
            "  {pages:>4} pages ({:>3} KB buffer): {faults:>4} faults / {reads} accesses \
             (hit rate {:.1}%)",
            pages * 4,
            100.0 * (1.0 - faults as f64 / reads as f64)
        );
    }

    Ok(())
}
