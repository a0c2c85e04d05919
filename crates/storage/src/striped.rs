//! The buffer pool: an LRU sharded into lock stripes, with dirty
//! write-back.
//!
//! Every page access in the workspace goes through this one pool. Shared
//! between serving threads, one LRU list would mean a global mutex — one
//! cache-warm query serializing every other. So the frame cache is sharded
//! into `N` **stripes** keyed by page id (`page % N`), each an independent
//! LRU behind its own mutex: threads touching different stripes never
//! contend, and the paper's cost model is preserved because every page
//! access still goes through exactly one LRU cache with bounded total
//! capacity.
//!
//! ## Two doors, one logic
//!
//! The LRU probe, the fault-in and the dirty write-back are written once,
//! on one stripe's frames (`Stripe`). A shared caller (`&self`) reaches a
//! stripe through its mutex and the store through its `RwLock`. An owner
//! holding `&mut` reaches the same code through `Mutex::get_mut` /
//! `RwLock::get_mut`: no lock is taken and no atomic is bumped. The
//! single-owner [`BufferPool`](crate::BufferPool) — the paged B+-tree's
//! pool in tests and in roadbench's probe — is a one-stripe pool used
//! through that door, so its access stream, faults and eviction order are
//! those of a one-stripe shared pool.
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
//!   buffer grows — the invariant
//!   `paged_tests::faults_decrease_monotonically_with_buffer_size` asserts
//!   (its sweep pins one stripe count across all sizes; comparing pools
//!   with *different* stripe counts re-partitions the pages and voids the
//!   guarantee).
//!
//! Pools smaller than the stripe count are rounded up to one frame per
//! stripe ([`StripedBufferPool::capacity`] reports the effective size).
//!
//! ## Pages by handle
//!
//! A frame holds an `Arc<Page>`, the same handle the [`PageStore`] holds: a
//! fault clones the handle instead of copying 4 KB, and a write-back hands
//! the frame's handle to the store. [`StripedBufferPool::pin`] gives a
//! reader that handle and releases the stripe: the lock is held for the
//! bookkeeping — the LRU probe, a fault-in, the handle clone — never while
//! a record is decoded or a B+-tree node searched. What makes that safe is
//! **copy-on-write**, and it is the contract: [`with_page_mut`] goes
//! through [`Arc::make_mut`], so a page somebody else still holds (the
//! store, a pinned reader) is copied before the first byte changes. A
//! pinned handle is a snapshot — it never shows a half-written page, and
//! it never shows a write made after it was taken either; a reader that
//! must see such writes pins again.
//!
//! [`with_page_mut`]: StripedBufferPool::with_page_mut
//!
//! ## Exact per-query accounting
//!
//! A concurrent query must not see other threads' traffic in its own
//! `SearchStats` delta, so every access bumps a caller-owned [`IoTally`]
//! and nothing else — no shared counter is written on the access path. A
//! caller hands its finished tally to [`StripedBufferPool::settle`] once
//! (a query does when it returns, with an answer or an error), and the
//! pool's cumulative [`BufferStats`] are the sum of the settled tallies (a
//! property the core crate's paged tests pin down). Write-backs are
//! pool-internal and counted where they happen.
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
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_macros
    )
)]

use crate::buffer::{BufferStats, PagePool};
use crate::error::StorageError;
use crate::lru::LruCache;
use crate::page::{Page, PageId};
use crate::store::PageStore;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// The pool's cumulative statistics counters, and the one place outside
/// tests that holds a std atomic (`clippy.toml` disallows them everywhere
/// else).
mod stat_counter {
    #![expect(
        clippy::disallowed_types,
        reason = "the pool's statistics counters are the one shared atomic; every access is the ordering below"
    )]

    use std::sync::atomic::{AtomicU64, Ordering};

    /// `Relaxed`, for every access: each counter is monotonic between
    /// resets and read on its own, nothing is published through it, and
    /// no ordering between two counters is promised. A reset races
    /// benignly with concurrent bumps; exact per-query numbers are the
    /// callers' own `IoTally`s.
    const ORDER: Ordering = Ordering::Relaxed;

    /// One monotonic counter of [`super::StripedBufferPool::stats`].
    #[derive(Debug, Default)]
    pub(super) struct StatCounter(AtomicU64);

    impl StatCounter {
        pub(super) fn add(&self, n: u64) {
            self.0.fetch_add(n, ORDER);
        }

        pub(super) fn get(&self) -> u64 {
            self.0.load(ORDER)
        }

        pub(super) fn reset(&self) {
            self.0.store(0, ORDER);
        }

        /// The count itself, for an owner holding `&mut`: no atomic op.
        pub(super) fn get_mut(&mut self) -> &mut u64 {
            self.0.get_mut()
        }
    }
}

use stat_counter::StatCounter;

/// Default stripe count: enough to keep a handful of serving threads off
/// each other's locks without fragmenting small pools.
pub const DEFAULT_BUFFER_STRIPES: usize = 8;

/// Caller-owned I/O counters for one query (or one build phase): the
/// pool's per-access delta sink. Under concurrency these are the *only*
/// exact per-query numbers, and the pool's cumulative counters are their
/// sum once each has been [settled](StripedBufferPool::settle).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTally {
    /// Page accesses through the pool.
    pub logical_reads: u64,
    /// Accesses that missed the cache and hit the store.
    pub page_faults: u64,
}

/// A cached page: the store's own handle until the first write through the
/// pool copies it (see the module docs).
struct Frame {
    page: Arc<Page>,
    dirty: bool,
}

/// The frames of one stripe.
type Frames = LruCache<u32, Frame>;

/// The store and the write-back counter, as a stripe operation reaches
/// them: through the store's lock from the shared pool, or directly from an
/// owner holding `&mut` — no lock taken, no atomic bumped.
enum Disk<'a> {
    Locked(&'a RwLock<PageStore>, &'a StatCounter),
    Owned(&'a mut RwLock<PageStore>, &'a mut u64),
}

impl Disk<'_> {
    /// Page `id` by handle, no bytes moved. This is where a page id enters
    /// the store, and ids reach here off page bytes (a B+-tree child
    /// pointer, a packed record location): one the store never allocated
    /// is a corrupt page, not an index.
    fn read(&mut self, id: PageId) -> Result<Arc<Page>, StorageError> {
        let poisoned = StorageError::LockPoisoned("page store");
        let page = match self {
            Disk::Locked(store, _) => store.read().map_err(|_| poisoned)?.read(id),
            Disk::Owned(store, _) => store.get_mut().map_err(|_| poisoned)?.read(id),
        };
        page.ok_or(StorageError::CorruptPage("page id outside the store"))
    }

    /// Writes a dirty frame's page back, counting the write-back.
    fn write_back(&mut self, id: u32, page: Arc<Page>) -> Result<(), StorageError> {
        let poisoned = StorageError::LockPoisoned("page store");
        match self {
            Disk::Locked(store, write_backs) => {
                write_backs.add(1);
                store.write().map_err(|_| poisoned)?.write(PageId(id), page);
            }
            Disk::Owned(store, write_backs) => {
                **write_backs += 1;
                store.get_mut().map_err(|_| poisoned)?.write(PageId(id), page);
            }
        }
        Ok(())
    }
}

/// One stripe's frames with the disk behind them: the LRU probe, the
/// fault-in and the dirty write-back, written once for the locked and the
/// owned path. A locked caller holds the stripe lock for as long as this
/// lives, and the store lock is taken inside it (`stripe -> store`).
struct Stripe<'a> {
    frames: &'a mut Frames,
    disk: Disk<'a>,
}

impl Stripe<'_> {
    /// Inserts a frame, writing back the evicted frame if it was dirty.
    fn insert(&mut self, id: u32, frame: Frame) -> Result<(), StorageError> {
        match self.frames.put(id, frame) {
            Some((evicted_id, evicted)) if evicted.dirty => {
                self.disk.write_back(evicted_id, evicted.page)
            }
            _ => Ok(()),
        }
    }

    /// Runs `f` on the frame of page `id`, charging `tally` one logical
    /// read plus a fault if the page was not resident. A hit is one LRU
    /// probe; a miss faults the stored page in by handle. The lookup after
    /// the fault-in cannot miss (the admitted page is the most recent), but
    /// the invariant is reported as `Err`: serving threads must survive
    /// storage bugs.
    fn with_frame<R>(
        &mut self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R, StorageError> {
        tally.logical_reads += 1;
        if let Some(frame) = self.frames.get(&id.0) {
            return Ok(f(frame));
        }
        self.fault_in(id, tally)?;
        self.frames.get(&id.0).map(f).ok_or(StorageError::Internal("frame evicted during fault-in"))
    }

    /// The miss path of [`Stripe::with_frame`], kept out of line so that a
    /// hit stays small enough to inline into its caller.
    #[cold]
    #[inline(never)]
    fn fault_in(&mut self, id: PageId, tally: &mut IoTally) -> Result<(), StorageError> {
        let page = self.disk.read(id)?;
        tally.page_faults += 1;
        self.insert(id.0, Frame { page, dirty: false })
    }

    /// Writes the dirty frames back to the store, then with `clear`
    /// empties the stripe. Kept frames stay cached, clean and in the LRU
    /// order they were in, so a later eviction will not write them again.
    fn write_back_dirty(&mut self, clear: bool) -> Result<(), StorageError> {
        let dirty: Vec<u32> =
            self.frames.iter().filter(|(_, fr)| fr.dirty).map(|(id, _)| *id).collect();
        for id in dirty {
            let Some(frame) = self.frames.peek_mut(&id) else { continue };
            frame.dirty = false;
            let page = Arc::clone(&frame.page);
            self.disk.write_back(id, page)?;
        }
        if clear {
            self.frames.clear();
        }
        Ok(())
    }
}

/// Marks a frame dirty and hands out its page for writing: copied first
/// when the store or a [pinned](StripedBufferPool::pin) reader still holds
/// it.
fn write_frame<R>(frame: &mut Frame, f: impl FnOnce(&mut Page) -> R) -> R {
    frame.dirty = true;
    f(Arc::make_mut(&mut frame.page))
}

/// A thread-safe, lock-striped LRU buffer pool over a [`PageStore`].
///
/// Shared access takes `&self`; the pool is `Send + Sync` and is what lets
/// the core crate's `PagedEngine` serve `knn`/`range` from many threads at
/// once. See the [module docs](crate::striped) for the design.
pub struct StripedBufferPool {
    store: RwLock<PageStore>,
    stripes: Vec<Mutex<Frames>>,
    /// `stripes.len()`, as the `u32` a page id is reduced by: the stripe of
    /// every access is one 32-bit remainder.
    num_stripes: u32,
    capacity: usize,
    logical_reads: StatCounter,
    page_faults: StatCounter,
    write_backs: StatCounter,
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
    /// Panics when `capacity` or `stripes` is zero, or when `stripes` does
    /// not fit the `u32` that page ids are.
    #[expect(
        clippy::disallowed_macros,
        reason = "construction-time configuration check, not a serving path"
    )]
    pub fn new(store: PageStore, capacity: usize, stripes: usize) -> Self {
        assert!(capacity > 0, "buffer-pool capacity must be positive");
        let num_stripes = u32::try_from(stripes).unwrap_or(0);
        assert!(num_stripes > 0, "stripe count must be positive (and no more than page ids)");
        let per_stripe =
            |i: usize| (capacity / stripes + usize::from(i < capacity % stripes)).max(1);
        let capacity = (0..stripes).map(per_stripe).sum();
        let stripes: Vec<Mutex<Frames>> =
            (0..stripes).map(|i| Mutex::new(LruCache::new(per_stripe(i)))).collect();
        StripedBufferPool {
            store: RwLock::new(store),
            stripes,
            num_stripes,
            capacity,
            logical_reads: StatCounter::default(),
            page_faults: StatCounter::default(),
            write_backs: StatCounter::default(),
        }
    }

    /// Locks the stripe owning page `id`; `Err` if a previous holder
    /// panicked.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "the index is id % stripes.len(), in range by construction"
    )]
    fn stripe(&self, id: PageId) -> Result<MutexGuard<'_, Frames>, StorageError> {
        self.stripes[(id.0 % self.num_stripes) as usize]
            .lock()
            .map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))
    }

    /// The shared path to the disk: through the store's lock.
    fn disk(&self) -> Disk<'_> {
        Disk::Locked(&self.store, &self.write_backs)
    }

    /// The stripe owning page `id`, reached by an owner: `get_mut`, no lock
    /// taken. A one-stripe pool skips the division. A stripe poisoned while
    /// the pool was shared stays an `Err`.
    #[inline]
    fn owned(&mut self, id: PageId) -> Result<Stripe<'_>, StorageError> {
        let frames = match self.stripes.as_mut_slice() {
            [only] => only,
            all => all
                .get_mut((id.0 % self.num_stripes) as usize)
                .ok_or(StorageError::Internal("stripe index"))?,
        };
        let frames =
            frames.get_mut().map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))?;
        Ok(Stripe { frames, disk: Disk::Owned(&mut self.store, self.write_backs.get_mut()) })
    }

    /// Allocates a fresh zeroed page (cached clean).
    ///
    /// The store lock is released before the stripe lock is taken, so
    /// callers that need *consecutive* page ids (multi-page records) must
    /// serialize their own allocation runs.
    pub fn alloc(&self) -> Result<PageId, StorageError> {
        let id = self.store.write().map_err(|_| StorageError::LockPoisoned("page store"))?.alloc();
        let mut stripe = self.stripe(id)?;
        let frame = Frame { page: Arc::new(Page::zeroed()), dirty: false };
        Stripe { frames: &mut stripe, disk: self.disk() }.insert(id.0, frame)?;
        Ok(id)
    }

    /// Runs `f` on the frame of page `id` under its stripe's lock.
    fn with_frame<R>(
        &self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R, StorageError> {
        let mut stripe = self.stripe(id)?;
        Stripe { frames: &mut stripe, disk: self.disk() }.with_frame(id, tally, f)
    }

    /// Hands out page `id` by handle: the stripe lock is held for the LRU
    /// probe (a fault-in when the page is not resident) and the handle
    /// clone, and released before the caller reads a byte. Same accounting
    /// and error contract as [`StripedBufferPool::with_page`].
    ///
    /// The handle is a snapshot. Copy-on-write is the contract: a later
    /// [`StripedBufferPool::with_page_mut`] on `id` writes to a copy, so the
    /// handle keeps reading the bytes it was taken on — whole, never
    /// half-written, and never newer. Pin again to see a later write.
    pub fn pin(&self, id: PageId, tally: &mut IoTally) -> Result<Arc<Page>, StorageError> {
        self.with_frame(id, tally, |frame| Arc::clone(&frame.page))
    }

    /// Reads page `id` through the cache, charging `tally` one logical read
    /// plus a fault if the page was not resident; `f` runs under the
    /// stripe's lock. `Err` when the stripe or store lock is poisoned, or
    /// when `id` names a page the store does not have.
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
    /// A page shared with the store or a [pinned](StripedBufferPool::pin)
    /// reader is copied first, so neither ever sees the write.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.with_frame(id, tally, |frame| write_frame(frame, f))
    }

    /// Adds a caller's finished `tally` to the cumulative counters — once
    /// per query or build phase, in place of a shared-counter write on
    /// every access.
    pub fn settle(&self, tally: &IoTally) {
        self.logical_reads.add(tally.logical_reads);
        self.page_faults.add(tally.page_faults);
    }

    /// Writes the dirty frames of every stripe back, and with `clear`
    /// empties each stripe under the **same** acquisition of its lock: a
    /// write that lands between a flush and a separate clear would be
    /// dropped with its frame.
    fn write_back_all(&self, clear: bool) -> Result<(), StorageError> {
        for stripe in &self.stripes {
            let mut stripe =
                stripe.lock().map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))?;
            Stripe { frames: &mut stripe, disk: self.disk() }.write_back_dirty(clear)?;
        }
        Ok(())
    }

    /// Writes every dirty frame back to the store (frames stay cached and
    /// become clean).
    pub fn flush(&self) -> Result<(), StorageError> {
        self.write_back_all(false)
    }

    /// Flushes and empties every stripe — the paper initialises every
    /// measured query with an empty cache. Faults after a clear are
    /// counted once per access like any other cold read.
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        self.write_back_all(true)
    }

    // -- The owner's path: `&mut self`, no lock taken, the same logic --

    /// [`StripedBufferPool::alloc`] for an owner.
    pub(crate) fn alloc_owned(&mut self) -> Result<PageId, StorageError> {
        let id =
            self.store.get_mut().map_err(|_| StorageError::LockPoisoned("page store"))?.alloc();
        let frame = Frame { page: Arc::new(Page::zeroed()), dirty: false };
        self.owned(id)?.insert(id.0, frame)?;
        Ok(id)
    }

    /// [`StripedBufferPool::with_page`] for an owner.
    #[inline]
    pub(crate) fn with_page_owned<R>(
        &mut self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R, StorageError> {
        self.owned(id)?.with_frame(id, tally, |frame| f(&frame.page))
    }

    /// [`StripedBufferPool::with_page_mut`] for an owner.
    pub(crate) fn with_page_mut_owned<R>(
        &mut self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.owned(id)?.with_frame(id, tally, |frame| write_frame(frame, f))
    }

    /// [`StripedBufferPool::flush`] (`clear == false`) or
    /// [`StripedBufferPool::clear_cache`] for an owner.
    pub(crate) fn write_back_all_owned(&mut self, clear: bool) -> Result<(), StorageError> {
        for frames in &mut self.stripes {
            let frames =
                frames.get_mut().map_err(|_| StorageError::LockPoisoned("buffer-pool stripe"))?;
            let disk = Disk::Owned(&mut self.store, self.write_backs.get_mut());
            Stripe { frames, disk }.write_back_dirty(clear)?;
        }
        Ok(())
    }

    /// Cumulative pool counters since the last reset: the sum of every
    /// [settled](StripedBufferPool::settle) [`IoTally`] (plus write-backs,
    /// which are pool-internal).
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            logical_reads: self.logical_reads.get(),
            page_faults: self.page_faults.get(),
            write_backs: self.write_backs.get(),
        }
    }

    /// Zeroes the pool counters (cache contents unchanged; callers'
    /// tallies are theirs to reset).
    pub fn reset_stats(&self) {
        self.logical_reads.reset();
        self.page_faults.reset();
        self.write_backs.reset();
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
/// [`crate::BPlusTree`] built or searched through the concurrent pool
/// charges the right caller.
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
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "concurrency tests race threads, and an atomic flag, against one engine on purpose; nothing they return is committed in completion order"
)]
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
        assert_eq!(p.stats(), BufferStats::default(), "nothing is counted before it is settled");
        p.settle(&tally);
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
        p.settle(&tally);
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
                        p.settle(&tally);
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

    /// Regression (lost write): `clear_cache` used to flush every stripe and
    /// then, in a second pass, lock each stripe again and empty it — a
    /// write landing between the two passes was dropped with its frame and
    /// never reached the store. One thread dirties 32 pages round after
    /// round, each write to a byte of its own, while another clears the
    /// cache in a loop; every one of the 6,400 writes must be there at the
    /// end. (On the two-pass pool about 2% of them were not.)
    #[test]
    fn clear_cache_racing_a_writer_loses_no_write() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const ROUNDS: usize = 200;
        let p = pool(64, 4);
        let ids: Vec<PageId> = (0..32).map(|_| p.alloc().unwrap()).collect();
        let stamp = |i: usize| 0x80 | i as u8;
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    p.clear_cache().unwrap();
                }
            });
            let mut tally = IoTally::default();
            for round in 0..ROUNDS {
                for (i, &id) in ids.iter().enumerate() {
                    p.with_page_mut(id, &mut tally, |pg| pg.bytes_mut()[round] = stamp(i)).unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        p.clear_cache().unwrap();
        let mut tally = IoTally::default();
        let mut lost = 0;
        for (i, &id) in ids.iter().enumerate() {
            p.with_page(id, &mut tally, |pg| {
                lost += pg.bytes()[..ROUNDS].iter().filter(|&&b| b != stamp(i)).count();
            })
            .unwrap();
        }
        assert_eq!(lost, 0, "{lost} of {} writes never reached the store", ROUNDS * ids.len());
    }

    /// `flush` cleans frames where they are: it must not promote the
    /// frames it writes back, or a flush would change what the next miss
    /// evicts.
    #[test]
    fn flush_leaves_the_lru_order_alone() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let (a, b, c) = (p.alloc().unwrap(), p.alloc().unwrap(), p.alloc().unwrap());
        p.clear_cache().unwrap();
        p.with_page_mut(a, &mut tally, |pg| pg.bytes_mut()[0] = 1).unwrap();
        p.with_page(b, &mut tally, |_| ()).unwrap();
        p.flush().unwrap();
        assert_eq!(p.stats().write_backs, 1);
        // `a` is still the least recent: `c` evicts it, `b` stays.
        p.with_page(c, &mut tally, |_| ()).unwrap();
        let before = tally.page_faults;
        p.with_page(b, &mut tally, |_| ()).unwrap();
        assert_eq!(tally.page_faults, before, "flush promoted the frame it cleaned");
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 1)).unwrap();
        assert_eq!(tally.page_faults, before + 1);
        assert_eq!(p.stats().write_backs, 1, "a flushed frame is clean when it is evicted");
    }

    /// Copy-on-write is the contract of `pin`: a handle keeps reading the
    /// bytes it was taken on, whole, while `with_page_mut` on the same id
    /// writes to a copy that the pool (and the next `pin`) sees — also
    /// across an eviction and a `clear_cache`.
    #[test]
    fn a_pinned_handle_is_a_snapshot() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        p.with_page_mut(a, &mut tally, |pg| pg.bytes_mut()[..4].fill(1)).unwrap();
        let old = p.pin(a, &mut tally).unwrap();
        p.with_page_mut(a, &mut tally, |pg| pg.bytes_mut()[..4].fill(2)).unwrap();
        assert_eq!(old.bytes()[..4], [1; 4], "a pinned page changed under its reader");
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[..4], [2; 4])).unwrap();
        let new = p.pin(a, &mut tally).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        // Unpinned and unshared, the frame is written in place.
        drop(new);
        let at = p.pin(a, &mut tally).map(|h| Arc::as_ptr(&h)).unwrap();
        p.with_page_mut(a, &mut tally, |pg| pg.bytes_mut()[4] = 3).unwrap();
        assert_eq!(p.pin(a, &mut tally).map(|h| Arc::as_ptr(&h)).unwrap(), at);
        // The write survives eviction and a clear; the old handle still
        // reads what it read.
        p.alloc().unwrap();
        p.alloc().unwrap();
        p.clear_cache().unwrap();
        let back = p.pin(a, &mut tally).unwrap();
        assert_eq!(back.bytes()[..5], [2, 2, 2, 2, 3]);
        assert_eq!(old.bytes()[..5], [1, 1, 1, 1, 0]);
        // A fault shares the stored page instead of copying it.
        p.clear_cache().unwrap();
        assert!(Arc::ptr_eq(&back, &p.pin(a, &mut tally).unwrap()));
    }

    /// The owner's `&mut` path and the locked path reach the same frames,
    /// the same store and the same write-back count: what one caches is a
    /// hit for the other, and a dirty frame evicted or cleared through the
    /// owner's path is counted where `stats()` reads it.
    #[test]
    fn owned_and_locked_access_share_one_pool() {
        let mut p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc_owned().unwrap();
        p.with_page_mut_owned(a, &mut tally, |pg| pg.bytes_mut()[0] = 5).unwrap();
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 5)).unwrap();
        let b = p.alloc().unwrap();
        p.with_page_mut(b, &mut tally, |pg| pg.bytes_mut()[0] = 6).unwrap();
        p.with_page_owned(b, &mut tally, |pg| assert_eq!(pg.bytes()[0], 6)).unwrap();
        assert_eq!(tally, IoTally { logical_reads: 4, page_faults: 0 });
        // `a` is the least recent: an owner's allocation evicts it, dirty.
        p.alloc_owned().unwrap();
        assert_eq!(p.stats().write_backs, 1);
        p.write_back_all_owned(true).unwrap();
        assert_eq!(p.stats().write_backs, 2, "`b` was dirty, the new page clean");
        assert_eq!(p.cached_pages(), 0);
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 5)).unwrap();
        p.with_page_owned(b, &mut tally, |pg| assert_eq!(pg.bytes()[0], 6)).unwrap();
        assert_eq!(tally.page_faults, 2);
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
            p.with_page(a, &mut t, |_| panic!("die holding the stripe lock"))
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
