//! Layer probes: every per-layer metric, measured from outside by timing
//! calls into the crates' public functions and reading the counters they
//! return. Op counts are fixed (times `--ops-scale`), so every count
//! repeats exactly for a seed; timings are medians or totals over the
//! fixed passes. The passes are the workloads' own loops, traced.

use crate::stats::{median, percentile};
use crate::trace::{durations_ns, Span};
use crate::workloads::{
    build_served, serve, threads_beside_a_reader, tick_timings, Budget, Building, Live, Prepared,
    Run, Schedule, Serving, Target, POOL_PAGES, TICK_INTERVAL,
};
use crate::world::{self, Kind, Op, Query, FANOUT, METRIC, STREAM_LEN};
use crate::{hw_threads, oracle::Oracle, trace::Tracer};
use road_baselines::netexp::NetExpEngine;
use road_baselines::Engine;
use road_core::hierarchy::{HierarchyConfig, RnetHierarchy};
use road_core::{
    AssociationDirectory, KnnQuery, LiveEngine, Object, PagedEngine, PagedOptions, QueryEngine,
    RoadFramework, ShortcutOptions, ShortcutStore, UpdateHandle,
};
use road_network::contractor::{ContractionOrder, Contractor};
use road_network::csr::{CsrBuilder, CsrGraph};
use road_network::partition::{partition_edges, PartitionOptions};
use road_network::{EdgeId, Weight};
use road_storage::{BPlusTree, BufferPool, IoTally, NodeClustering, PageId, PageStore};
use road_storage::{StripedBufferPool, DEFAULT_BUFFER_STRIPES};
use std::hint::black_box;
use std::time::Instant;

/// Fixed op counts of the probe passes, before `--ops-scale`.
pub const MEM_OPS: usize = STREAM_LEN;
pub const PAGED_OPS: usize = STREAM_LEN / 4;
pub const COLD_QUERIES: usize = 256;
pub const NETEXP_OPS: usize = 512;
pub const LIVE_TICKS: usize = 24;
pub const BUILD_CYCLES: usize = 2;
pub const POOL_ACCESSES: usize = 200_000;
pub const BPTREE_KEYS: usize = 100_000;
pub const SNAPSHOTS: usize = 100_000;

#[derive(Default)]
pub struct Probes {
    pub values: Vec<(&'static str, f64)>,
    /// Answers checked along the way, and how many were wrong.
    pub attempted: usize,
    pub failed: usize,
}

impl Probes {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn absorb(&mut self, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
    }
}

struct Scale(f64);

impl Scale {
    fn of(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.0) as usize).max(floor)
    }
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn median_ns(samples: Vec<u64>) -> f64 {
    let mut s = samples;
    s.sort_unstable();
    percentile(&s, 50.0) as f64
}

fn median_span_ns(spans: &[Span], name: &str) -> f64 {
    median_ns(durations_ns(spans, name))
}

fn total_span_ns(spans: &[Span], name: &str) -> f64 {
    durations_ns(spans, name).iter().sum::<u64>() as f64
}

/// Sum of one counter over every span called `span`.
fn count(spans: &[Span], span: &str, key: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == span)
        .flat_map(|s| s.counts.iter())
        .filter(|c| c.0 == key)
        .map(|c| c.1)
        .sum::<u64>() as f64
}

pub fn run_all(seed: u64, ops_scale: f64) -> Probes {
    let scale = Scale(ops_scale);
    let mut out = Probes::default();
    let mut group = |name: &str, probe: &mut dyn FnMut(&mut Probes)| {
        let ((), s) = secs(|| probe(&mut out));
        println!("  probes: {name} took {s:.2} s");
    };
    group("network", &mut network);
    group("build path on B", &mut |out| build_path(seed, &scale, out));
    group("storage", &mut |out| storage(&scale, out));
    // Both groups below start from the same framework and directory, built
    // as `live_mixed` builds them: clones share every payload, the live
    // writer copies on write, and queries never look at the thread count.
    let (fw, ad, objects) = build_served(world::serving_world(seed), threads_beside_a_reader());
    group("serving on W", &mut |out| serving(&fw, &ad, &objects, seed, &scale, out));
    group("live on W", &mut |out| live(LiveEngine::new(fw.clone(), ad.clone()), seed, &scale, out));
    out
}

/// `network.contractor`: a 64x64 unit grid as a `CsrGraph`, perimeter
/// sealed, everything inside contracted.
fn network(out: &mut Probes) {
    const SIDE: u32 = 64;
    let on_rim = |x: u32, y: u32| x == 0 || y == 0 || x == SIDE - 1 || y == SIDE - 1;
    // Sealed nodes take the low ids.
    let mut id = vec![0u32; (SIDE * SIDE) as usize];
    let mut next = 0;
    for rim in [true, false] {
        for y in 0..SIDE {
            for x in 0..SIDE {
                if on_rim(x, y) == rim {
                    id[(y * SIDE + x) as usize] = next;
                    next += 1;
                }
            }
        }
    }
    let sealed = 4 * SIDE - 4;
    let mut arcs = CsrBuilder::default();
    for y in 0..SIDE {
        for x in 0..SIDE {
            let a = id[(y * SIDE + x) as usize];
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx < SIDE && ny < SIDE {
                    let b = id[(ny * SIDE + nx) as usize];
                    arcs.push(a, b, Weight::new(1.0), 0);
                    arcs.push(b, a, Weight::new(1.0), 0);
                }
            }
        }
    }
    let mut grid = CsrGraph::default();
    arcs.finish_into((SIDE * SIDE) as usize, &mut grid);
    let mut contractor = Contractor::default();
    let mut remainder = CsrBuilder::default();
    let times: Vec<f64> = (0..3)
        .map(|_| {
            remainder.clear();
            secs(|| {
                contractor.contract(&grid, sealed, ContractionOrder::MinDegree, 64, &mut remainder)
            })
            .1
        })
        .collect();
    black_box(remainder.len());
    out.set("network.contractor.grid64_contract_ms", median(&times) * 1e3);
}

/// The build path on world `B`: partition, hierarchy, shortcuts, the rest
/// of `build`, persist, reopen.
fn build_path(seed: u64, scale: &Scale, out: &mut Probes) {
    let gens: Vec<f64> = (0..3).map(|_| secs(|| world::serving_world(seed)).1).collect();
    out.set("network.generator.gen_s", median(&gens));

    let b = world::build_world(seed);
    let edges: Vec<EdgeId> = b.net.edge_ids().collect();
    let (parts, partition_s) =
        secs(|| partition_edges(&b.net, &edges, FANOUT, &PartitionOptions::default()));
    black_box(parts);
    out.set("network.partition.partition_s", partition_s);

    let cfg = HierarchyConfig {
        fanout: FANOUT,
        levels: b.levels,
        partition: PartitionOptions::default(),
    };
    let (hier, hierarchy_s) = secs(|| RnetHierarchy::build(&b.net, &cfg).expect("B partitions"));
    out.set("core.hierarchy.build_s", hierarchy_s);
    let top: Vec<f64> = hier.rnets_at_level(1).map(|r| hier.borders(r).len() as f64).collect();
    out.set("core.hierarchy.mean_borders_l1", top.iter().sum::<f64>() / top.len() as f64);

    let sequential = ShortcutOptions { threads: 1, ..ShortcutOptions::default() };
    let (store, x1_s) = secs(|| ShortcutStore::build(&b.net, &hier, METRIC, &sequential));
    out.set("core.shortcut.build_x1_s", x1_s);
    out.set("core.shortcut.count", store.num_shortcuts() as f64);
    out.set("core.shortcut.mb", store.size_bytes() as f64 / 1e6);
    drop(store);
    // `threads: 0` is the builder's default: whatever the host offers.
    let (store, xhw_s) =
        secs(|| ShortcutStore::build(&b.net, &hier, METRIC, &ShortcutOptions::default()));
    drop(store);
    out.set("core.shortcut.build_xhw_s", xhw_s);

    drop(hier);
    let net = b.net.clone();
    let (fw, build_s) =
        secs(|| RoadFramework::builder(net).fanout(FANOUT).levels(b.levels).build());
    let fw = fw.expect("B builds");
    // What `build` spends outside the hierarchy and the shortcuts (the
    // query arena and the plumbing), all three timed back to back. Small
    // against either, so it can come out below zero on a noisy host.
    out.set("core.framework.build_residual_s", build_s - hierarchy_s - xhw_s);
    let bytes = fw.to_bytes();
    drop(fw);
    let (reloaded, from_bytes_s) = secs(|| RoadFramework::from_bytes(&bytes));
    out.failed += usize::from(reloaded.is_err());
    out.attempted += 1;
    out.set("core.persist.from_bytes_s", from_bytes_s);
    let image_bytes = bytes.len();
    drop((reloaded, bytes));

    let mut cycles = Building::new(b, image_bytes, seed, false);
    let run = cycles.run(Budget::Ops(scale.of(BUILD_CYCLES, 1)), true);
    out.absorb(&run);
    let spans = &run.spans;
    out.set("core.persist.to_bytes_s", median_span_ns(spans, "core.persist.to_bytes") / 1e9);
    out.set("core.persist.image_open_s", median_span_ns(spans, "core.persist.image_open") / 1e9);
    out.set("core.persist.image_mb", cycles.index_bytes() as f64 / 1e6);
    out.set("core.paged.engine_open_s", median_span_ns(spans, "core.paged.engine_open") / 1e9);
    out.set(
        "core.paged.rnets_loaded_share",
        count(spans, "first_queries", "rnets_loaded") / count(spans, "first_queries", "rnets"),
    );
}

fn knn_queries(stream: &[Op]) -> Vec<KnnQuery> {
    stream
        .iter()
        .filter_map(|op| match &op.query {
            Query::Knn(q) => Some(q.clone()),
            Query::Range(_) => None,
        })
        .collect()
}

/// `core.search`, `core.engine`, `core.paged`, `storage.striped` on the
/// engines, `storage.ccam`, `core.association`, and the NetExp reference:
/// everything that reads world `W` without changing it.
fn serving(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    objects: &[Object],
    seed: u64,
    scale: &Scale,
    out: &mut Probes,
) {
    let t = Instant::now();
    let mut again = AssociationDirectory::new(fw.hierarchy());
    for o in objects {
        again.insert(fw.network(), fw.hierarchy(), o.clone()).expect("objects sit on live edges");
    }
    out.set("core.association.insert_us", t.elapsed().as_secs_f64() * 1e6 / objects.len() as f64);
    out.set("core.association.mb", again.size_bytes() as f64 / 1e6);
    drop(again);

    let mem_ops = scale.of(MEM_OPS, 40);
    let stream = world::stream(fw.network(), seed, mem_ops.min(STREAM_LEN));
    let t = Instant::now();
    let mut oracle = Oracle::new(fw.network(), objects);
    let expected = oracle.answers(&stream);
    out.set(
        "network.dijkstra.ns_per_settled",
        t.elapsed().as_secs_f64() * 1e9 / oracle.settled as f64,
    );

    // --- in memory ----------------------------------------------------
    let engine = QueryEngine::new(fw.clone(), ad.clone());
    let mut mem = Serving { engine, stream, expected, index_bytes: 0 };
    mem.warm();
    let run = mem.run(Budget::Ops(mem_ops), true);
    out.absorb(&run);
    let ops = run.ops() as f64;
    let call = <QueryEngine as Target>::SPAN;
    for (name, key) in [
        ("core.search.nodes_settled_per_op", "nodes_settled"),
        ("core.search.edges_relaxed_per_op", "edges_relaxed"),
        ("core.search.shortcuts_taken_per_op", "shortcuts_taken"),
        ("core.search.rnets_bypassed_per_op", "rnets_bypassed"),
        ("core.search.rnets_descended_per_op", "rnets_descended"),
        ("core.search.abstract_checks_per_op", "abstract_checks"),
        ("core.search.objects_read_per_op", "objects_read"),
        ("core.search.heap_pushes_per_op", "heap_pushes"),
    ] {
        out.set(name, count(&run.spans, call, key) / ops);
    }
    let bypassed = count(&run.spans, call, "rnets_bypassed");
    let descended = count(&run.spans, call, "rnets_descended");
    out.set("core.search.bypass_ratio", bypassed / (bypassed + descended).max(1.0));
    let mem_ns: f64 = run.lat_ns.iter().sum::<u64>() as f64;
    out.set("core.search.ns_per_settled", mem_ns / count(&run.spans, call, "nodes_settled"));
    let by_kind = [
        "core.search.knn1_us",
        "core.search.knn5_us",
        "core.search.knn20_us",
        "core.search.knn5_filtered_us",
        "core.search.range_us",
    ];
    for (kind, name) in Kind::ALL.into_iter().zip(by_kind) {
        let of_kind =
            run.lat_ns.iter().zip(mem.stream.iter().cycle()).filter(|(_, op)| op.kind == kind);
        out.set(name, median_ns(of_kind.map(|(&ns, _)| ns).collect()) / 1e3);
    }
    let mem_lat_ns = run.lat_ns;

    let queries = knn_queries(&mem.stream);
    let batch_s = |threads: usize| secs(|| black_box(mem.engine.batch_knn(&queries, threads))).1;
    let two = hw_threads().min(2);
    out.set("core.engine.batch_knn_x2_scaling", batch_s(1) / batch_s(two));

    // --- the reference the paper compares against ---------------------
    let netexp_ops = scale.of(NETEXP_OPS, 16).min(mem.stream.len());
    let mut netexp =
        NetExpEngine::build(fw.network().clone(), METRIC, objects.to_vec(), POOL_PAGES);
    let (mut netexp_ns, mut road_ns, mut n) = (0.0, 0.0, 0);
    for (op, &ns) in mem.stream[..netexp_ops].iter().zip(&mem_lat_ns) {
        if let Query::Knn(q) = &op.query {
            netexp_ns += secs(|| black_box(netexp.knn(q.node, q.k, &q.filter))).1 * 1e9;
            road_ns += ns as f64;
            n += 1;
        }
    }
    out.set("baselines.netexp.us_per_op", netexp_ns / 1e3 / n as f64);
    out.set("core.search.speedup_vs_netexp", netexp_ns / road_ns);
    drop(netexp);

    // --- from pages, the paper's 50-frame pool ------------------------
    let (clustering, ccam_s) =
        secs(|| NodeClustering::build(fw.network(), |n| 16 + 8 * fw.network().degree(n)));
    black_box(clustering.num_pages());
    out.set("storage.ccam.build_s", ccam_s);

    let (engine, new_s) =
        secs(|| PagedEngine::new(fw, ad, PagedOptions::with_buffer_pages(POOL_PAGES)));
    let engine = engine.expect("a built framework lays out onto pages");
    out.set("core.paged.engine_new_s", new_s);
    out.set("storage.ccam.node_region_pages", engine.node_region_pages() as f64);
    let disk_pages = engine.num_disk_pages();

    let paged_ops = scale.of(PAGED_OPS, 20).min(mem_ops);
    let Serving { stream, expected, .. } = mem;
    let mut paged = Serving { engine, stream, expected, index_bytes: 0 };
    paged.warm();
    let run = paged.run(Budget::Ops(paged_ops), true);
    out.absorb(&run);
    let call = <PagedEngine as Target>::SPAN;
    let reads = count(&run.spans, call, "pages_read");
    let faults = count(&run.spans, call, "page_faults");
    out.set("core.paged.pages_read_per_op", reads / run.ops() as f64);
    out.set("core.paged.faults_per_op", faults / run.ops() as f64);
    out.set("storage.striped.hit_rate", 1.0 - faults / reads.max(1.0));
    let paged_ns = run.lat_ns.iter().sum::<u64>() as f64;
    let same_ops_mem_ns = mem_lat_ns[..paged_ops].iter().sum::<u64>() as f64;
    // What going through pages adds to the same ops, per page access.
    out.set("core.paged.ns_per_page_access", (paged_ns - same_ops_mem_ns) / reads.max(1.0));
    out.set("core.paged.slowdown_vs_memory", paged_ns / same_ops_mem_ns);

    // The paper's discipline: every query starts on a cold buffer.
    let cold: Vec<&Op> = paged.stream.iter().filter(|op| op.kind == Kind::Knn5).collect();
    let cold = &cold[..scale.of(COLD_QUERIES, 8).min(cold.len())];
    let mut ws = road_core::SearchWorkspace::new();
    let mut hits = Vec::new();
    let mut cold_faults = 0;
    for op in cold {
        paged.engine.clear_cache().expect("the pool lock is not poisoned");
        match paged.engine.query(op, &mut ws, &mut hits) {
            Ok(stats) => cold_faults += stats.page_faults,
            Err(_) => out.failed += 1,
        }
        out.attempted += 1;
    }
    out.set("core.paged.cold_faults_per_knn5", cold_faults as f64 / cold.len() as f64);

    // Two clients on the shared pool against one, through `batch_knn`.
    let head = &paged.stream[..scale.of(PAGED_OPS / 2, 20).min(paged.stream.len())];
    let queries = knn_queries(head);
    let batch_s = |threads: usize| secs(|| black_box(paged.engine.batch_knn(&queries, threads))).1;
    out.set("storage.striped.x2_client_scaling", batch_s(1) / batch_s(two));

    // A pool that holds every page: what is left is not eviction.
    let fit = PagedEngine::new(fw, ad, PagedOptions::with_buffer_pages(disk_pages + 8))
        .expect("a built framework lays out onto pages");
    let pass = || serve(&fit, head, None, Budget::Ops(head.len()), false, &mut Tracer::off());
    pass();
    let filled = pass();
    out.set("storage.striped.fit_ops_per_s", filled.ops() as f64 / filled.window_s);
}

/// `storage.striped` and `storage.bptree` on synthetic page sets.
fn storage(scale: &Scale, out: &mut Probes) {
    const PAGES: u32 = 256;
    const FRAMES: usize = 64;
    let mut store = PageStore::new();
    for _ in 0..PAGES {
        store.alloc();
    }
    let pool = StripedBufferPool::new(store, FRAMES, DEFAULT_BUFFER_STRIPES);
    let mut tally = IoTally::default();
    let accesses = scale.of(POOL_ACCESSES, 1_000);
    let mut touch = |range: u32| {
        let ((), s) = secs(|| {
            for i in 0..accesses {
                let id = PageId(i as u32 % range);
                pool.with_page(id, &mut tally, |p| black_box(p.bytes()[0]))
                    .expect("the pool lock is not poisoned");
            }
        });
        s * 1e9 / accesses as f64
    };
    // Four pages per stripe stay resident; cycling through every page of a
    // pool a quarter their number evicts on each access.
    touch(FRAMES as u32 / 2);
    out.set("storage.striped.hit_ns", touch(FRAMES as u32 / 2));
    out.set("storage.striped.miss_ns", touch(PAGES));

    let keys = scale.of(BPTREE_KEYS, 1_000) as u64;
    let mut pool = BufferPool::new(PageStore::new(), 4_096);
    let mut tree = BPlusTree::new(&mut pool).expect("an in-memory store allocates");
    for k in 0..keys {
        // An odd multiplier mod 2^64 is a bijection: distinct, scattered.
        tree.insert(&mut pool, k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k)
            .expect("an in-memory store allocates");
    }
    let ((), s) = secs(|| {
        for k in 0..keys {
            let key = (k.wrapping_mul(7919) % keys).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            black_box(tree.get(&mut pool, key).expect("an in-memory store reads"));
        }
    });
    out.set("storage.bptree.get_ns", s * 1e9 / keys as f64);
    out.set("storage.bptree.height", f64::from(tree.height()));
}

/// `core.live`, and the repair side of `core.shortcut`, `core.framework`
/// and `core.association`: a short `live_mixed` run, traced.
fn live(engine: (LiveEngine, UpdateHandle), seed: u64, scale: &Scale, out: &mut Probes) {
    let rnets = engine.1.framework().hierarchy().num_rnets() as f64;
    let mut mixed = Live::new(engine, seed, true, false);

    let snapshots = scale.of(SNAPSHOTS, 1_000);
    let ((), s) = secs(|| {
        for _ in 0..snapshots {
            black_box(mixed.engine().snapshot());
        }
    });
    out.set("core.live.snapshot_ns", s * 1e9 / snapshots as f64);

    // The reader alone on the same engine: the base of `reader_slowdown`.
    mixed.warm();
    let alone = mixed.read_alone(Budget::Ops(scale.of(STREAM_LEN / 2, 40)));
    out.absorb(&alone);
    let before = mixed.engine().snapshot();
    let run = mixed.run(Budget::Ops(scale.of(LIVE_TICKS, 3)), true);
    let after = mixed.engine().snapshot();
    out.absorb(&run);
    out.set("core.live.reader_slowdown", run.summary().ops_per_s / alone.summary().ops_per_s);
    // Rnets whose shortcut maps the last snapshot still shares, physically,
    // with the one readers held before the probe's ticks.
    let shared = after.framework().shortcuts().shared_rnet_count(before.framework().shortcuts());
    out.set("core.live.shared_rnets_share", shared as f64 / rnets);

    let spans = &run.spans;
    let timings = tick_timings(spans);
    let schedule = Schedule { interval_ns: TICK_INTERVAL.as_nanos() as u64 };
    let busy: u64 = timings.iter().map(|t| t.busy_ns).sum();
    out.set("core.live.writer_busy_share", busy as f64 / (run.window_s * 1e9));
    out.set("core.live.writer_late_share", schedule.late_share(&timings));
    let mut from_due: Vec<u64> = timings.iter().map(|t| t.from_due_ns).collect();
    from_due.sort_unstable();
    out.set("core.live.update_p50_us", percentile(&from_due, 50.0) as f64 / 1e3);
    out.set("core.live.update_p90_us", percentile(&from_due, 90.0) as f64 / 1e3);
    out.set("core.live.publish_us", median_span_ns(spans, "core.live.publish") / 1e3);

    let reweigh = "core.framework.set_edge_weights";
    let refreshed = count(spans, reweigh, "rnets_refreshed");
    out.set("core.live.rnets_refreshed_per_update", refreshed / timings.len() as f64);
    out.set("core.shortcut.refresh_us_per_rnet", total_span_ns(spans, reweigh) / 1e3 / refreshed);
    out.set("core.framework.set_edge_weights_ms_per_batch", median_span_ns(spans, reweigh) / 1e6);
    out.set(
        "core.association.move_us",
        median_span_ns(spans, "core.association.move_object") / 1e3,
    );
}
