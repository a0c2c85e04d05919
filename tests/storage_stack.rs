//! Integration tests of the storage stack working together: B+-tree over
//! the buffer pool over the page store, CCAM layouts feeding the I/O
//! tracker — the machinery behind every I/O number in the figures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_network::generator::simple;
use road_storage::ccam::NodeClustering;
use road_storage::lru::LruCache;
use road_storage::{
    BPlusTree, BufferPool, IoTally, IoTracker, PagePool, PageStore, StripedBufferPool,
    DEFAULT_BUFFER_PAGES, PAGE_SIZE,
};
use std::collections::BTreeMap;

#[test]
fn bptree_as_association_directory_index() {
    // Model the paper's Association Directory: node id -> object-record
    // pointer for 10k nodes, under a 50-page buffer.
    let mut pool = BufferPool::new(PageStore::new(), DEFAULT_BUFFER_PAGES);
    let mut tree = BPlusTree::new(&mut pool).unwrap();
    // 32-byte object records packed in insertion order.
    let per_page = (PAGE_SIZE / 32) as u64;
    for (i, node) in (0..10_000u64).step_by(7).enumerate() {
        tree.insert(&mut pool, node, i as u64 / per_page).unwrap();
    }
    pool.clear_cache().unwrap();
    pool.reset_stats();
    // A cold lookup path costs height+1 page faults at most.
    let v = tree.get(&mut pool, 7 * 100).unwrap();
    assert!(v.is_some());
    let faults = pool.stats().page_faults;
    assert!(faults as u32 <= tree.height() + 1, "lookup cost {faults} pages");
    // Missing keys are cheap too and prove absence.
    assert_eq!(tree.get(&mut pool, 3).unwrap(), None);
}

#[test]
fn ccam_beats_random_placement_for_expansion_io() {
    // The reason every engine stores node records with CCAM (ref [18]):
    // a BFS-ordered layout faults far less under network expansion than a
    // scattered one.
    let g = simple::grid(40, 40, 1.0);
    let record = |_: road_network::NodeId| 128usize;
    let ccam = NodeClustering::build(&g, record);

    // Scattered layout: node i -> page by hashed order (same record size).
    let per_page = PAGE_SIZE / 128;
    let scatter_page =
        |n: u32| (n.wrapping_mul(2654435761) % (g.num_nodes() as u32)) / per_page as u32;

    // Expand from a corner in BFS order, touching each node's page.
    let mut order = Vec::new();
    {
        let mut seen = vec![false; g.num_nodes()];
        let mut queue = std::collections::VecDeque::from([road_network::NodeId(0)]);
        seen[0] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for (_, v) in g.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    let mut io_ccam = IoTracker::paper_default();
    let mut io_rand = IoTracker::paper_default();
    for &n in order.iter().take(400) {
        let (p, span) = ccam.span_of(n);
        io_ccam.touch_span(0, p, span);
        io_rand.touch(0, scatter_page(n.0));
    }
    assert!(
        io_ccam.faults() * 2 < io_rand.faults(),
        "CCAM {} faults vs scattered {}",
        io_ccam.faults(),
        io_rand.faults()
    );
}

#[test]
fn buffer_pool_bounds_resident_pages() {
    let mut pool = BufferPool::new(PageStore::new(), 10);
    let ids: Vec<_> = (0..100).map(|_| pool.alloc().unwrap()).collect();
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page_mut(id, |p| p.bytes_mut()[0] = i as u8).unwrap();
    }
    // Everything is still readable (write-back worked) …
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page(id, |p| assert_eq!(p.bytes()[0], i as u8)).unwrap();
    }
    // … and the store carries the truth after a flush.
    pool.clear_cache().unwrap();
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page(id, |p| assert_eq!(p.bytes()[0], i as u8)).unwrap();
    }
}

/// LRU eviction order must respect *re-pins*: an old page that gets
/// touched again (via `get`, a `put` update, or a pool read) moves to the
/// MRU end and outlives everything that was younger before the re-pin.
#[test]
fn lru_eviction_order_under_repin() {
    let mut c: LruCache<u32, u32> = LruCache::new(4);
    for k in 0..4 {
        c.put(k, k * 10);
    }
    // Re-pin the two oldest in reverse age order: 1 then 0.
    assert_eq!(c.get(&1), Some(&mut 10));
    assert_eq!(c.get(&0), Some(&mut 0));
    // Recency now (LRU -> MRU): 2, 3, 1, 0. Overflow four times and check
    // the exact eviction sequence.
    assert_eq!(c.put(4, 40), Some((2, 20)));
    assert_eq!(c.put(5, 50), Some((3, 30)));
    // Updating key 1 re-pins it again, so 0 goes before 1.
    assert_eq!(c.put(1, 11), None);
    assert_eq!(c.put(6, 60), Some((0, 0)));
    assert_eq!(c.put(7, 70), Some((4, 40)));
    let survivors: Vec<u32> = {
        let mut keys: Vec<u32> = c.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys
    };
    assert_eq!(survivors, vec![1, 5, 6, 7]);
}

/// The same property observed through the buffer pool: re-reading a page
/// mid-stream keeps it resident across evictions that claim its cohort.
#[test]
fn buffer_pool_repin_protects_hot_page() {
    let mut pool = BufferPool::new(PageStore::new(), 3);
    let pages: Vec<_> = (0..6).map(|_| pool.alloc().unwrap()).collect();
    pool.clear_cache().unwrap();
    pool.reset_stats();
    // Fault in 0, 1, 2; re-pin 0; then stream 3 and 4 (evicting 1 and 2).
    for &p in &pages[..3] {
        pool.with_page(p, |_| ()).unwrap();
    }
    pool.with_page(pages[0], |_| ()).unwrap();
    pool.with_page(pages[3], |_| ()).unwrap();
    pool.with_page(pages[4], |_| ()).unwrap();
    let faults_before = pool.stats().page_faults;
    pool.with_page(pages[0], |_| ()).unwrap(); // still resident: no fault
    assert_eq!(pool.stats().page_faults, faults_before, "re-pinned page was evicted");
    pool.with_page(pages[1], |_| ()).unwrap(); // evicted: faults
    assert_eq!(pool.stats().page_faults, faults_before + 1);
}

/// Holds `tree` to `model` over `universe`: `get` on every present and
/// absent key, and `len`. Then the page count: the tree is the pool's only
/// user, so the next page the pool allocates is the one after its last.
fn assert_tree_matches_model(
    tree: &BPlusTree,
    pool: &mut BufferPool,
    model: &BTreeMap<u64, u64>,
    universe: impl IntoIterator<Item = u64>,
) {
    for key in universe {
        assert_eq!(tree.get(pool, key).unwrap(), model.get(&key).copied(), "key {key}");
    }
    assert_eq!(tree.len() as usize, model.len());
    assert_eq!(pool.alloc().unwrap().index(), tree.num_pages(), "pages the tree owns");
}

/// B+-tree structural edge cases at the smallest legal fanouts: splits at
/// exactly-full leaves and internal nodes, and root splits up to height 2 —
/// for every (leaf_cap, int_cap) boundary combination.
#[test]
fn bptree_splits_at_boundary_fanouts() {
    for (leaf_cap, int_cap) in [(3usize, 3usize), (3, 4), (4, 3), (4, 4), (5, 3)] {
        let mut pool = BufferPool::new(PageStore::new(), 8);
        let mut tree = BPlusTree::with_caps(&mut pool, leaf_cap, int_cap).unwrap();
        let mut model = BTreeMap::new();
        // Ascending fill to one past every split boundary; even keys, so
        // every odd one is an absent key between two present ones.
        let n = (leaf_cap * int_cap * int_cap + 1) as u64;
        for k in 0..n {
            assert_eq!(
                tree.insert(&mut pool, 2 * k, !k).unwrap(),
                model.insert(2 * k, !k),
                "caps {leaf_cap}/{int_cap}"
            );
            if k % 7 == 0 {
                // Interleaved probes keep lookups honest mid-split.
                assert_eq!(tree.get(&mut pool, k).unwrap(), model.get(&k).copied());
            }
        }
        assert!(tree.height() >= 2, "caps {leaf_cap}/{int_cap} never built height");
        assert_tree_matches_model(&tree, &mut pool, &model, (0..=2 * n).chain([u64::MAX]));
    }
}

/// Zigzag inserts around one boundary key count, alternating ends — every
/// split then lands at both edges of a subtree, not only its right one.
#[test]
fn bptree_zigzag_at_split_boundary() {
    let mut pool = BufferPool::new(PageStore::new(), 8);
    let mut tree = BPlusTree::with_caps(&mut pool, 3, 3).unwrap();
    let mut model = BTreeMap::new();
    for round in 0..40u64 {
        let base = round * 100;
        for (i, k) in (0..9).enumerate() {
            let key = if i % 2 == 0 { base + k } else { base + 8 - k };
            assert_eq!(tree.insert(&mut pool, key, k).unwrap(), model.insert(key, k));
        }
    }
    assert_tree_matches_model(&tree, &mut pool, &model, 0..=4_000);
}

/// Two trees in one pool, as a paged engine lays out its node and abstract
/// directories: inserts into both interleave, each tree answers only for
/// its own keys, and their pages are every page the pool handed out.
#[test]
fn bptree_two_trees_share_one_pool() {
    let mut pool = BufferPool::new(PageStore::new(), 8);
    let mut nodes = BPlusTree::with_caps(&mut pool, 3, 3).unwrap();
    let mut rnets = BPlusTree::with_caps(&mut pool, 4, 5).unwrap();
    let (mut node_model, mut rnet_model) = (BTreeMap::new(), BTreeMap::new());
    for k in 0..300u64 {
        assert_eq!(nodes.insert(&mut pool, 2 * k, k).unwrap(), node_model.insert(2 * k, k));
        if k % 3 != 0 {
            let key = 2 * k + 1;
            assert_eq!(rnets.insert(&mut pool, key, !k).unwrap(), rnet_model.insert(key, !k));
        }
    }
    for key in 0..=601 {
        assert_eq!(nodes.get(&mut pool, key).unwrap(), node_model.get(&key).copied(), "{key}");
        assert_eq!(rnets.get(&mut pool, key).unwrap(), rnet_model.get(&key).copied(), "{key}");
    }
    assert_eq!((nodes.len(), rnets.len()), (300, 200));
    assert_eq!(pool.alloc().unwrap().index(), nodes.num_pages() + rnets.num_pages());
}

/// Stress pass (CI `--include-ignored`): a large randomized B+-tree soak
/// under a tiny buffer, checked against a model at every step batch.
#[test]
#[ignore = "stress: 100k-op B+-tree soak, run via --include-ignored"]
fn stress_bptree_soak_under_tiny_buffer() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut pool = BufferPool::new(PageStore::new(), 4);
    let mut tree = BPlusTree::with_caps(&mut pool, 4, 4).unwrap();
    let mut model = BTreeMap::new();
    for step in 0..100_000u64 {
        let key = rng.random_range(0..4_000u64);
        if rng.random_range(0..5) < 3 {
            assert_eq!(tree.insert(&mut pool, key, step).unwrap(), model.insert(key, step));
        } else {
            assert_eq!(tree.get(&mut pool, key).unwrap(), model.get(&key).copied());
        }
        if step % 20_000 == 0 {
            for k in 0..4_000u64 {
                assert_eq!(tree.get(&mut pool, k).unwrap(), model.get(&k).copied(), "key {k}");
            }
        }
    }
    assert_tree_matches_model(&tree, &mut pool, &model, 0..=4_000);
}

/// The shared pool's read doors as a [`PagePool`], for lookups: `with_page`
/// runs on a pinned page, and nothing is allocated or written.
struct SharedReads<'a>(&'a StripedBufferPool, IoTally);

impl PagePool for SharedReads<'_> {
    fn alloc(&mut self) -> Result<road_storage::PageId, road_storage::StorageError> {
        Err(road_storage::StorageError::Internal("lookups do not allocate"))
    }
    fn with_page<R>(
        &mut self,
        id: road_storage::PageId,
        f: impl FnOnce(&road_storage::Page) -> R,
    ) -> Result<R, road_storage::StorageError> {
        self.0.with_page(id, &mut self.1, f)
    }
    fn with_page_mut<R>(
        &mut self,
        _: road_storage::PageId,
        _: impl FnOnce(&mut road_storage::Page) -> R,
    ) -> Result<R, road_storage::StorageError> {
        Err(road_storage::StorageError::Internal("lookups do not write"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The paged B+-tree agrees with BTreeMap under arbitrary workloads
    /// and tiny buffers (heavy eviction).
    #[test]
    fn bptree_model_under_tiny_buffer(ops in prop::collection::vec((0u8..2, 0u64..200), 1..120)) {
        let mut pool = BufferPool::new(PageStore::new(), 4);
        let mut tree = BPlusTree::with_caps(&mut pool, 4, 4).unwrap();
        let mut model = BTreeMap::new();
        for (op, key) in ops {
            if op == 0 {
                prop_assert_eq!(tree.insert(&mut pool, key, key + 1).unwrap(), model.insert(key, key + 1));
            } else {
                prop_assert_eq!(tree.get(&mut pool, key).unwrap(), model.get(&key).copied());
            }
        }
        assert_tree_matches_model(&tree, &mut pool, &model, 0..=200);
    }

    /// One pool: the single-owner `BufferPool` is a one-stripe
    /// `StripedBufferPool` reached without a lock. The same stream of
    /// allocations, reads, writes, flushes and clears through the handle's
    /// closures and through a one-stripe shared pool's closure-free doors
    /// (`alloc`, `with_page` and `pin`, `write`) reads the same bytes and
    /// counts the same reads, faults and write-backs after every step — so
    /// the two fault on the same accesses and evict in the same order.
    #[test]
    fn owner_handle_and_shared_pool_are_one_pool(
        frames in 1usize..6,
        ops in prop::collection::vec((0u8..6, 0usize..32, 1u8..255), 1..160),
    ) {
        let mut owner = BufferPool::new(PageStore::new(), frames);
        let shared = StripedBufferPool::new(PageStore::new(), frames, 1);
        let mut tally = IoTally::default();
        let mut pages = Vec::new();
        for (step, (op, at, byte)) in ops.into_iter().enumerate() {
            match (op, pages.len()) {
                (0, _) | (_, 0) => {
                    let id = owner.alloc().unwrap();
                    prop_assert_eq!(shared.alloc().unwrap(), id);
                    pages.push(id);
                }
                (1, n) => {
                    let id = pages[at % n];
                    let read = |p: &road_storage::Page| p.bytes()[at];
                    prop_assert_eq!(owner.with_page(id, read).unwrap(), shared.with_page(id, &mut tally, read).unwrap());
                }
                (2, n) => {
                    let id = pages[at % n];
                    let read = |p: &road_storage::Page| p.bytes()[at];
                    prop_assert_eq!(owner.with_page(id, read).unwrap(), read(&shared.pin(id, &mut tally).unwrap()));
                }
                (3, n) => {
                    let id = pages[at % n];
                    owner.with_page_mut(id, |p| p.bytes_mut()[at] = byte).unwrap();
                    shared.write(id, at, &[byte], &mut tally).unwrap();
                }
                (4, _) => {
                    owner.flush().unwrap();
                    shared.flush().unwrap();
                }
                _ => {
                    owner.clear_cache().unwrap();
                    shared.clear_cache().unwrap();
                }
            }
            let st = owner.stats();
            let shared_st = shared.stats();
            prop_assert_eq!(
                (st.logical_reads, st.page_faults, st.write_backs),
                (tally.logical_reads, tally.page_faults, shared_st.write_backs),
                "after step {}", step
            );
        }
    }

    /// Write runs at any offset and of any length up to two pages land
    /// where a flat model of the pages says, page boundaries and all: every
    /// page reads back as the model after every run, through a pool small
    /// enough to evict at any stripe count, and again after a clear.
    fn write_runs_read_back_whole_at_any_stripe_count(
        frames in 1usize..6,
        stripes in 1usize..5,
        runs in prop::collection::vec((0usize..8, 0usize..PAGE_SIZE, 1usize..2 * PAGE_SIZE, 1u8..255), 1..24),
    ) {
        const PAGES: usize = 8;
        let pool = StripedBufferPool::new(PageStore::new(), frames, stripes);
        let ids: Vec<_> = (0..PAGES).map(|_| pool.alloc().unwrap()).collect();
        let mut model = vec![0u8; PAGES * PAGE_SIZE];
        let mut tally = IoTally::default();
        let mut check = |pool: &StripedBufferPool, model: &[u8]| {
            for (i, &id) in ids.iter().enumerate() {
                let page = pool.pin(id, &mut tally).unwrap();
                prop_assert!(page.bytes()[..] == model[i * PAGE_SIZE..(i + 1) * PAGE_SIZE], "page {}", i);
            }
        };
        for (page, offset, len, byte) in runs {
            let start = page * PAGE_SIZE + offset;
            let len = len.min(model.len() - start);
            let bytes: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
            pool.write(ids[page], offset, &bytes, &mut IoTally::default()).unwrap();
            model[start..start + len].copy_from_slice(&bytes);
            check(&pool, &model);
        }
        pool.clear_cache().unwrap();
        check(&pool, &model);
    }

    /// A B+-tree filled through the owner view of a striped pool of any
    /// stripe count and a tiny capacity is the model map, read back through
    /// the shared pool's pinned pages.
    fn a_bptree_built_by_a_striped_owner_reads_back_through_shared_doors(
        stripes in 1usize..5,
        frames in 1usize..8,
        ops in prop::collection::vec((0u64..300, 0u64..u64::MAX), 1..200),
    ) {
        let mut pool = StripedBufferPool::new(PageStore::new(), frames, stripes);
        let mut tally = IoTally::default();
        let mut tree = BPlusTree::with_caps(&mut pool.owner(&mut tally), 4, 4).unwrap();
        let mut model = BTreeMap::new();
        for (key, value) in ops {
            prop_assert_eq!(tree.insert(&mut pool.owner(&mut tally), key, value).unwrap(), model.insert(key, value));
        }
        pool.clear_cache().unwrap();
        let mut shared = SharedReads(&pool, IoTally::default());
        for key in 0..300 {
            prop_assert_eq!(tree.get(&mut shared, key).unwrap(), model.get(&key).copied(), "key {}", key);
        }
        prop_assert!(shared.1.page_faults > 0);
    }
}
