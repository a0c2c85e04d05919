//! The concurrent buffer pool: an LRU sharded into lock stripes.
//!
//! The single-threaded [`BufferPool`](crate::BufferPool) moves its LRU
//! list on every read, so sharing it between serving threads would mean a
//! global mutex — one cache-warm query serializing every other. This pool
//! shards the frame cache into `N` **stripes** keyed by page id
//! (`page % N`), each an independent LRU behind its own mutex: threads
//! touching different stripes never contend, and the paper's cost model is
//! preserved because every page access still goes through exactly one LRU
//! cache with bounded total capacity.
//!
//! ## Capacity split
//!
//! The requested capacity is distributed across stripes remainder-first
//! (`50` pages over `8` stripes = `7,7,6,6,6,6,6,6`), with a floor of one
//! frame per stripe. Two properties follow:
//!
//! * total capacity is exact whenever `capacity >= stripes` (the paper's
//!   50-page default splits exactly);
//! * every stripe's capacity is **monotone** in the requested capacity,
//!   so for pools with the **same stripe count** LRU's inclusion property
//!   holds per stripe and total page faults cannot increase when the
//!   buffer grows — the invariant `exp_disk` asserts (its sweeps pin one
//!   stripe count across all sizes; comparing pools with *different*
//!   stripe counts re-partitions the pages and voids the guarantee).
//!
//! Pools smaller than the stripe count are rounded up to one frame per
//! stripe ([`StripedBufferPool::capacity`] reports the effective size).
//!
//! ## Exact per-query accounting
//!
//! Global counters are atomics, but a concurrent query must not see other
//! threads' traffic in its own `SearchStats` delta. Every access therefore
//! also bumps a caller-owned [`IoTally`]; the tallies of all concurrent
//! queries sum exactly to the pool's cumulative [`BufferStats`] (a
//! property the core crate's paged tests pin down).
//!
//! ## Lock order and poisoning
//!
//! Lock order is `stripe -> store`, everywhere: the allocation path
//! releases the store lock before touching a stripe, and fault/write-back
//! paths take the store lock only while already holding a stripe. No path
//! holds two stripe locks at once. The `roadlint` pass extracts every
//! acquisition site in this file and checks the acquired-while-held graph
//! stays acyclic.
//!
//! A poisoned lock (a caller's closure panicked inside `with_page`)
//! surfaces as [`StorageError::LockPoisoned`] on every later access to
//! that stripe — the serving thread gets an `Err`, never a propagated
//! panic.
// roadlint: serving-path

use crate::buffer::{BufferStats, PagePool};
use crate::error::StorageError;
use crate::lru::LruCache;
use crate::page::{Page, PageId};
use crate::store::PageStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

/// Default stripe count: enough to keep a handful of serving threads off
/// each other's locks without fragmenting small pools.
pub const DEFAULT_BUFFER_STRIPES: usize = 8;

/// Caller-owned I/O counters for one query (or one build phase): the
/// pool's per-access delta sink. Under concurrency these are the *only*
/// exact per-query numbers — diffing the global atomics would charge one
/// query with another's traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTally {
    /// Page accesses through the pool.
    pub logical_reads: u64,
    /// Accesses that missed the cache and hit the store.
    pub page_faults: u64,
}

struct Frame {
    page: Page,
    dirty: bool,
}

/// A thread-safe, lock-striped LRU buffer pool over a [`PageStore`].
///
/// All methods take `&self`; the pool is `Send + Sync` and is what lets
/// the core crate's `PagedEngine` serve `knn`/`range` from many threads at
/// once. See the [module docs](crate::striped) for the design.
pub struct StripedBufferPool {
    store: RwLock<PageStore>,
    stripes: Vec<Mutex<LruCache<u32, Frame>>>,
    capacity: usize,
    logical_reads: AtomicU64,
    page_faults: AtomicU64,
    write_backs: AtomicU64,
}

// The pool is shared by reference between serving threads; keep that a
// compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StripedBufferPool>();
};

impl StripedBufferPool {
    /// Wraps `store` with `capacity` frames sharded over `stripes` locks.
    ///
    /// # Panics
    /// Panics when `capacity` or `stripes` is zero.
    pub fn new(store: PageStore, capacity: usize, stripes: usize) -> Self {
        // roadlint: allow(panic) reason="construction-time configuration check, not a serving path"
        assert!(capacity > 0, "buffer-pool capacity must be positive");
        // roadlint: allow(panic) reason="construction-time configuration check, not a serving path"
        assert!(stripes > 0, "stripe count must be positive");
        let per_stripe =
            |i: usize| (capacity / stripes + usize::from(i < capacity % stripes)).max(1);
        let capacity = (0..stripes).map(per_stripe).sum();
        let stripes: Vec<Mutex<LruCache<u32, Frame>>> =
            (0..stripes).map(|i| Mutex::new(LruCache::new(per_stripe(i)))).collect();
        StripedBufferPool {
            store: RwLock::new(store),
            stripes,
            capacity,
            logical_reads: AtomicU64::new(0),
            page_faults: AtomicU64::new(0),
            write_backs: AtomicU64::new(0),
        }
    }

    /// Locks the stripe owning page `id`; `Err` if a previous holder
    /// panicked.
    #[inline]
    fn stripe(&self, id: PageId) -> Result<MutexGuard<'_, LruCache<u32, Frame>>, StorageError> {
        // roadlint: allow(panic) reason="index is id % stripes.len(), in range by construction"
        self.stripes[id.index() % self.stripes.len()]
            .lock()
            .map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))
    }

    /// Inserts a frame into `stripe`, writing back the evicted frame if it
    /// was dirty. Caller holds the stripe lock; the store lock is taken
    /// after (`stripe -> store` order).
    fn insert_frame(
        &self,
        stripe: &mut LruCache<u32, Frame>,
        id: u32,
        frame: Frame,
    ) -> Result<(), StorageError> {
        if let Some((evicted_id, evicted)) = stripe.put(id, frame) {
            if evicted.dirty {
                // roadlint: relaxed-ok reason="monotonic stats counter, read only by stats()"
                self.write_backs.fetch_add(1, Ordering::Relaxed);
                self.store
                    .write()
                    .map_err(|_| StorageError::LockPoisoned("page store"))?
                    .write(PageId(evicted_id), &evicted.page);
            }
        }
        Ok(())
    }

    /// Allocates a fresh zeroed page (cached clean).
    ///
    /// The store lock is released before the stripe lock is taken, so
    /// callers that need *consecutive* page ids (multi-page records) must
    /// serialize their own allocation runs.
    pub fn alloc(&self) -> Result<PageId, StorageError> {
        let id = self.store.write().map_err(|_| StorageError::LockPoisoned("page store"))?.alloc();
        let mut stripe = self.stripe(id)?;
        self.insert_frame(&mut stripe, id.0, Frame { page: Page::zeroed(), dirty: false })?;
        Ok(id)
    }

    /// Faults `id` into its (locked) stripe, where it is not resident. This
    /// is where a page id enters the store, and ids reach here off page
    /// bytes (a B+-tree child pointer, a packed record location): one the
    /// store never allocated is a corrupt page, not an index. A resident
    /// page cannot be unallocated, so hits skip the check.
    fn fault_in(
        &self,
        stripe: &mut LruCache<u32, Frame>,
        id: PageId,
        tally: &mut IoTally,
    ) -> Result<(), StorageError> {
        let page = {
            let store = self.store.read().map_err(|_| StorageError::LockPoisoned("page store"))?;
            if id.index() >= store.num_pages() {
                return Err(StorageError::CorruptPage("page id outside the store"));
            }
            store.read(id)
        };
        // roadlint: relaxed-ok reason="monotonic stats counter; exactness is per-caller via IoTally"
        self.page_faults.fetch_add(1, Ordering::Relaxed);
        tally.page_faults += 1;
        self.insert_frame(stripe, id.0, Frame { page, dirty: false })
    }

    /// Runs `f` on the frame of page `id`, charging `tally` (and the global
    /// counters) one logical read plus a fault if the page was not
    /// resident. A hit is one probe of the stripe's LRU.
    fn with_frame<R>(
        &self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R, StorageError> {
        // roadlint: relaxed-ok reason="monotonic stats counter; exactness is per-caller via IoTally"
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        tally.logical_reads += 1;
        let mut stripe = self.stripe(id)?;
        if let Some(frame) = stripe.get(&id.0) {
            return Ok(f(frame));
        }
        self.fault_in(&mut stripe, id, tally)?;
        stripe.get(&id.0).map(f).ok_or(StorageError::Internal("frame evicted during fault-in"))
    }

    /// Reads page `id` through the cache, charging `tally` (and the global
    /// counters) one logical read plus a fault if the page was not
    /// resident. `Err` when the stripe or store lock is poisoned, or when
    /// `id` names a page the store does not have.
    pub fn with_page<R>(
        &self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R, StorageError> {
        self.with_frame(id, tally, |frame| f(&frame.page))
    }

    /// Mutates page `id` through the cache, marking it dirty; same
    /// accounting and error contract as [`StripedBufferPool::with_page`].
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.with_frame(id, tally, |frame| {
            frame.dirty = true;
            f(&mut frame.page)
        })
    }

    /// Writes every dirty frame back to the store (frames stay cached and
    /// become clean, so a later eviction will not write them again).
    pub fn flush(&self) -> Result<(), StorageError> {
        for stripe in &self.stripes {
            let mut stripe =
                stripe.lock().map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))?;
            let dirty: Vec<u32> =
                stripe.iter().filter(|(_, fr)| fr.dirty).map(|(id, _)| *id).collect();
            for id in dirty {
                let Some(frame) = stripe.get(&id) else { continue };
                frame.dirty = false;
                let page = frame.page.clone();
                // roadlint: relaxed-ok reason="monotonic stats counter, read only by stats()"
                self.write_backs.fetch_add(1, Ordering::Relaxed);
                self.store
                    .write()
                    .map_err(|_| StorageError::LockPoisoned("page store"))?
                    .write(PageId(id), &page);
            }
        }
        Ok(())
    }

    /// Flushes and empties every stripe — the paper initialises every
    /// measured query with an empty cache. Faults after a clear are
    /// counted once per access like any other cold read; the flush inside
    /// marks frames clean first, so nothing is written back twice.
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        self.flush()?;
        for stripe in &self.stripes {
            stripe.lock().map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))?.clear();
        }
        Ok(())
    }

    /// Cumulative pool counters since the last reset. Under concurrency
    /// this is the sum of every caller's [`IoTally`] deltas (plus
    /// write-backs, which are pool-internal).
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            // roadlint: relaxed-ok reason="independent monotonic counters; no cross-counter ordering is promised"
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            // roadlint: relaxed-ok reason="independent monotonic counters; no cross-counter ordering is promised"
            page_faults: self.page_faults.load(Ordering::Relaxed),
            // roadlint: relaxed-ok reason="independent monotonic counters; no cross-counter ordering is promised"
            write_backs: self.write_backs.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the pool counters (cache contents unchanged; callers'
    /// tallies are theirs to reset).
    pub fn reset_stats(&self) {
        // roadlint: relaxed-ok reason="stats reset races benignly with concurrent bumps"
        self.logical_reads.store(0, Ordering::Relaxed);
        // roadlint: relaxed-ok reason="stats reset races benignly with concurrent bumps"
        self.page_faults.store(0, Ordering::Relaxed);
        // roadlint: relaxed-ok reason="stats reset races benignly with concurrent bumps"
        self.write_backs.store(0, Ordering::Relaxed);
    }

    /// Effective capacity in frames (requested capacity rounded up to at
    /// least one frame per stripe).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Frames currently cached across all stripes.
    ///
    /// Introspection only: a poisoned stripe is *recovered* here (its LRU
    /// bookkeeping stays coherent — see the module docs) so diagnostics
    /// keep working even after a serving thread died.
    pub fn cached_pages(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).len()) // roadlint: lock(stripe)
            .sum()
    }

    /// Pages allocated in the backing store. Introspection: recovers a
    /// poisoned store lock like [`StripedBufferPool::cached_pages`].
    pub fn num_pages(&self) -> usize {
        self.store.read().unwrap_or_else(|poisoned| poisoned.into_inner()).num_pages()
    }

    /// Backing-store size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.store.read().unwrap_or_else(|poisoned| poisoned.into_inner()).size_bytes()
    }
}

/// One caller's view of a [`StripedBufferPool`]: a shared pool reference
/// plus that caller's private [`IoTally`]. Implements [`PagePool`], so a
/// [`crate::BPlusTree`] descent through the concurrent pool charges the
/// right query.
pub struct TalliedPool<'a> {
    /// The shared pool.
    pub pool: &'a StripedBufferPool,
    /// The caller's delta counters.
    pub tally: &'a mut IoTally,
}

impl PagePool for TalliedPool<'_> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.pool.alloc()
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError> {
        self.pool.with_page(id, self.tally, f)
    }

    fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.pool.with_page_mut(id, self.tally, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize, stripes: usize) -> StripedBufferPool {
        StripedBufferPool::new(PageStore::new(), capacity, stripes)
    }

    #[test]
    fn capacity_splits_exactly_when_large_enough() {
        let p = pool(50, 8);
        assert_eq!(p.capacity(), 50);
        assert_eq!(p.num_stripes(), 8);
        // Tiny pools round up to one frame per stripe.
        let tiny = pool(1, 8);
        assert_eq!(tiny.capacity(), 8);
    }

    #[test]
    fn reads_and_faults_roundtrip_across_stripes() {
        let p = pool(16, 4);
        let mut tally = IoTally::default();
        let ids: Vec<PageId> = (0..12).map(|_| p.alloc().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, &mut tally, |pg| pg.bytes_mut()[7] = i as u8).unwrap();
        }
        p.clear_cache().unwrap();
        p.reset_stats();
        let mut tally = IoTally::default();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page(id, &mut tally, |pg| assert_eq!(pg.bytes()[7], i as u8)).unwrap();
        }
        assert_eq!(tally.page_faults, 12, "cold reads fault once each");
        // Warm repeat: reads grow, faults do not.
        for &id in &ids {
            p.with_page(id, &mut tally, |_| ()).unwrap();
        }
        assert_eq!(tally.logical_reads, 24);
        assert_eq!(tally.page_faults, 12);
        let st = p.stats();
        assert_eq!((st.logical_reads, st.page_faults), (24, 12));
    }

    /// Regression (stats drift): `clear_cache` flushes dirty frames as
    /// clean, so the flush write-back is the only one — evicting or
    /// re-clearing must not write the same page again, and faults after a
    /// clear are charged exactly once per access.
    #[test]
    fn clear_cache_does_not_double_count() {
        let p = pool(8, 2);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        p.with_page_mut(a, &mut tally, |pg| pg.bytes_mut()[0] = 1).unwrap();
        p.clear_cache().unwrap();
        let after_first = p.stats().write_backs;
        assert_eq!(after_first, 1, "one dirty frame, one write-back");
        // Clearing again: the frame is gone, nothing to write.
        p.clear_cache().unwrap();
        assert_eq!(p.stats().write_backs, after_first);
        // Fault it back in twice: one fault, two reads.
        p.reset_stats();
        let mut tally = IoTally::default();
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 1)).unwrap();
        p.with_page(a, &mut tally, |_| ()).unwrap();
        assert_eq!(tally, IoTally { logical_reads: 2, page_faults: 1 });
        // A clean frame evicted by pressure is not written back.
        for _ in 0..20 {
            p.alloc().unwrap();
        }
        assert_eq!(p.stats().write_backs, 0);
    }

    /// Regression (stats drift): hit rate is defined (`1.0`) before any
    /// access, and equals the usual ratio afterwards.
    #[test]
    fn hit_rate_defined_at_zero_reads() {
        let p = pool(4, 2);
        assert_eq!(p.stats().hit_rate(), 1.0);
        let a = p.alloc().unwrap();
        p.clear_cache().unwrap();
        let mut tally = IoTally::default();
        p.with_page(a, &mut tally, |_| ()).unwrap();
        p.with_page(a, &mut tally, |_| ()).unwrap();
        let rate = p.stats().hit_rate();
        assert!((rate - 0.5).abs() < 1e-12, "one fault in two reads, got {rate}");
    }

    /// The tentpole accounting property: per-caller tallies sum exactly to
    /// the pool's cumulative counters under concurrent access.
    #[test]
    fn tallies_sum_to_global_stats_under_threads() {
        let p = pool(6, 3); // small enough to keep evicting
        let ids: Vec<PageId> = (0..32).map(|_| p.alloc().unwrap()).collect();
        p.clear_cache().unwrap();
        p.reset_stats();
        let tallies: Vec<IoTally> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let p = &p;
                    let ids = &ids;
                    scope.spawn(move || {
                        let mut tally = IoTally::default();
                        for i in 0..400u64 {
                            let id = ids[((i * 7 + t * 13) % ids.len() as u64) as usize];
                            p.with_page(id, &mut tally, |pg| {
                                assert_eq!(pg.bytes()[0], 0);
                            })
                            .unwrap();
                        }
                        tally
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let reads: u64 = tallies.iter().map(|t| t.logical_reads).sum();
        let faults: u64 = tallies.iter().map(|t| t.page_faults).sum();
        let st = p.stats();
        assert_eq!(reads, st.logical_reads);
        assert_eq!(faults, st.page_faults);
        assert_eq!(reads, 4 * 400);
        assert!(faults >= 32, "a 6-frame pool over 32 pages must fault");
    }

    /// Dirty pages written concurrently survive eviction and clear.
    #[test]
    fn concurrent_writes_are_not_lost() {
        let p = pool(4, 2);
        let ids: Vec<PageId> = (0..16).map(|_| p.alloc().unwrap()).collect();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let p = &p;
                let ids = &ids;
                scope.spawn(move || {
                    let mut tally = IoTally::default();
                    // Each thread owns a disjoint quarter of the pages.
                    for (i, &id) in ids.iter().enumerate().skip(t * 4).take(4) {
                        p.with_page_mut(id, &mut tally, |pg| pg.bytes_mut()[100] = i as u8 + 1)
                            .unwrap();
                    }
                });
            }
        });
        p.clear_cache().unwrap();
        let mut tally = IoTally::default();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page(id, &mut tally, |pg| {
                assert_eq!(pg.bytes()[100], i as u8 + 1, "page {i} lost its write");
            })
            .unwrap();
        }
    }

    #[test]
    fn capacity_bound_is_respected() {
        let p = pool(5, 4); // caps 2,1,1,1
        assert_eq!(p.capacity(), 5);
        let mut tally = IoTally::default();
        let ids: Vec<PageId> = (0..64).map(|_| p.alloc().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, &mut tally, |_| ()).unwrap();
        }
        assert!(p.cached_pages() <= p.capacity());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = pool(0, 4);
    }

    /// The panic-freedom satellite: a closure that panics inside
    /// `with_page` poisons that stripe, and every later access to the
    /// stripe surfaces `Err(LockPoisoned)` — never a propagated panic.
    #[test]
    fn poisoned_stripe_surfaces_as_err_not_panic() {
        let p = pool(8, 2);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        let sibling = {
            // A page in the same stripe as `a` (same id parity).
            let mut id = p.alloc().unwrap();
            while id.index() % 2 != a.index() % 2 {
                id = p.alloc().unwrap();
            }
            id
        };
        let other = {
            // A page in the other stripe.
            let mut id = p.alloc().unwrap();
            while id.index() % 2 == a.index() % 2 {
                id = p.alloc().unwrap();
            }
            id
        };
        // Poison `a`'s stripe: panic while holding its lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t = IoTally::default();
            let _ = p.with_page(a, &mut t, |_| panic!("die holding the stripe lock"));
        }));
        assert!(panicked.is_err(), "closure panic must unwind out of with_page");
        // Same stripe: every access reports Err.
        assert_eq!(
            p.with_page(a, &mut tally, |_| ()),
            Err(StorageError::LockPoisoned("buffer-pool stripe"))
        );
        assert_eq!(
            p.with_page_mut(sibling, &mut tally, |_| ()),
            Err(StorageError::LockPoisoned("buffer-pool stripe"))
        );
        assert!(p.flush().is_err(), "flush walks every stripe");
        // The untouched stripe still serves.
        assert!(p.with_page(other, &mut tally, |_| ()).is_ok());
        // Introspection recovers instead of failing.
        let _ = p.cached_pages();
        assert!(p.num_pages() >= 3);
    }

    /// B+-tree over the concurrent pool via `TalliedPool`: shared reads
    /// from several threads agree with the single-threaded answer.
    #[test]
    fn bptree_reads_through_tallied_pool() {
        use crate::bptree::BPlusTree;
        let p = pool(8, 4);
        let mut tally = IoTally::default();
        let mut tree =
            BPlusTree::with_caps(&mut TalliedPool { pool: &p, tally: &mut tally }, 4, 4).unwrap();
        for k in 0..300u64 {
            tree.insert(&mut TalliedPool { pool: &p, tally: &mut tally }, k, k * 3).unwrap();
        }
        p.clear_cache().unwrap();
        p.reset_stats();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let p = &p;
                let tree = &tree;
                scope.spawn(move || {
                    let mut tally = IoTally::default();
                    for i in 0..300u64 {
                        let k = (i * 11 + t) % 300;
                        let got = tree
                            .get(&mut TalliedPool { pool: p, tally: &mut tally }, k)
                            .unwrap()
                            .expect("key present");
                        assert_eq!(got, k * 3);
                    }
                    assert!(tally.logical_reads > 0);
                });
            }
        });
    }
}
