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
//! The LRU probe, the fault-in, the write and the dirty write-back are
//! written once, on one stripe's frames (`Stripe`). A shared caller
//! (`&self`) reaches a stripe through its mutex and the store through its
//! `RwLock`. An owner holding `&mut` reaches the same code through an
//! [`OwnedPool`] ([`StripedBufferPool::owner`]): `Mutex::get_mut` /
//! `RwLock::get_mut`, no lock taken and no atomic bumped. The
//! single-owner [`BufferPool`](crate::BufferPool) — the paged B+-tree's
//! pool in tests and in roadbench's probe — is a one-stripe pool used
//! through that door, so its access stream, faults and eviction order are
//! those of a one-stripe shared pool; a `PagedEngine` lays its pages out
//! and fills its B+-trees through it too, while it is built.
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
//! reader that handle and releases the stripe, and
//! [`StripedBufferPool::with_page`] runs its closure on such a handle: the
//! lock is held for the bookkeeping — the LRU probe, a fault-in, the handle
//! clone — never while a record is decoded or a B+-tree node searched.
//! What makes that safe is **copy-on-write**, and it is the contract:
//! [`StripedBufferPool::write`] goes through [`Arc::make_mut`], so a page
//! somebody else still holds (the store, a pinned reader) is copied before
//! the first byte changes. A pinned handle is a snapshot — it never shows a
//! half-written page, and it never shows a write made after it was taken
//! either; a reader that must see such writes pins again.
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
//! The pool's guards are held by pool code only: no door of the shared
//! pool runs caller code under one. [`StripedBufferPool::pin`] and
//! [`StripedBufferPool::with_page`] hold a stripe for the LRU probe, a
//! fault-in and the handle clone; [`StripedBufferPool::write`] for the
//! same and a copy of the caller's bytes; [`StripedBufferPool::alloc`]
//! takes the store, releases it and then takes a stripe; a flush or a
//! clear takes the stripes one after another. The order is
//! `stripe -> store`: the store lock is taken inside a stripe, for a
//! fault-in or a write-back, and never the other way. A path holds one
//! stripe at most: a locked `Stripe` borrows its caller's [`IoTally`]
//! mutably for as long as it lives, so a second stripe taken for the same
//! caller under the first does not compile (E0499). The one lock above the
//! pool, a lazily opened `PagedEngine`'s page-in lock, is taken before any
//! of these (`page-in -> stripe -> store`). `clippy.toml` disallows std's
//! lock and guard types; the two fields of [`StripedBufferPool`] that
//! declare these locks carry an `#[expect]` each that says why.
//!
//! A poisoned lock — a thread panicked while it held a stripe; no pool
//! code does, and no caller's code runs under one — surfaces as
//! [`StorageError::LockPoisoned`] on every later access to that stripe:
//! the serving thread gets an `Err`, never a propagated panic.
//! Introspection ([`StripedBufferPool::cached_pages`],
//! [`StripedBufferPool::num_pages`]) recovers the lock instead.
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
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::store::PageStore;
use std::ops::DerefMut;
use std::sync::{Arc, PoisonError};

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

const STRIPE_POISONED: StorageError = StorageError::LockPoisoned("buffer-pool stripe");
const STORE_POISONED: StorageError = StorageError::LockPoisoned("page store");

/// The store and the write-back counter, as a stripe operation reaches
/// them: through the pool's store lock from the shared pool, or directly
/// from an owner holding `&mut` — no lock taken, no atomic bumped.
enum Disk<'a> {
    Locked(&'a StripedBufferPool),
    Owned(&'a mut PageStore, &'a mut u64),
}

impl Disk<'_> {
    /// Page `id` by handle, no bytes moved. This is where a page id enters
    /// the store, and ids reach here off page bytes (a B+-tree child
    /// pointer, a packed record location): one the store never allocated
    /// is a corrupt page, not an index.
    fn read(&mut self, id: PageId) -> Result<Arc<Page>, StorageError> {
        let page = match self {
            Disk::Locked(pool) => pool.store.read().map_err(|_| STORE_POISONED)?.read(id),
            Disk::Owned(store, _) => store.read(id),
        };
        page.ok_or(StorageError::CorruptPage("page id outside the store"))
    }

    /// Writes a dirty frame's page back, counting the write-back.
    fn write_back(&mut self, id: u32, page: Arc<Page>) -> Result<(), StorageError> {
        match self {
            Disk::Locked(pool) => {
                pool.write_backs.add(1);
                pool.store.write().map_err(|_| STORE_POISONED)?.write(PageId(id), page);
            }
            Disk::Owned(store, write_backs) => {
                **write_backs += 1;
                store.write(PageId(id), page);
            }
        }
        Ok(())
    }
}

/// One stripe's frames with the disk behind them and the caller's tally:
/// the LRU probe, the fault-in, the write and the dirty write-back,
/// written once for the locked and the owned path. `F` is the stripe's
/// guard on the locked path — held for as long as this lives, with the
/// store lock taken inside it (`stripe -> store`) — and `&mut Frames` on
/// the owned one. The tally is borrowed mutably for as long, so one
/// caller cannot hold two stripes at once (see the module docs).
struct Stripe<'a, F> {
    frames: F,
    disk: Disk<'a>,
    tally: &'a mut IoTally,
}

impl<F: DerefMut<Target = Frames>> Stripe<'_, F> {
    /// Inserts a frame, writing back the evicted frame if it was dirty.
    fn insert(&mut self, id: u32, frame: Frame) -> Result<(), StorageError> {
        match self.frames.put(id, frame) {
            Some((evicted_id, evicted)) if evicted.dirty => {
                self.disk.write_back(evicted_id, evicted.page)
            }
            _ => Ok(()),
        }
    }

    /// Runs `f` on the frame of page `id`, charging the tally one logical
    /// read plus a fault if the page was not resident. A hit is one LRU
    /// probe; a miss faults the stored page in by handle. The lookup after
    /// the fault-in cannot miss (the admitted page is the most recent), but
    /// the invariant is reported as `Err`: serving threads must survive
    /// storage bugs.
    fn with_frame<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R, StorageError> {
        self.tally.logical_reads += 1;
        if let Some(frame) = self.frames.get(&id.0) {
            return Ok(f(frame));
        }
        self.fault_in(id)?;
        self.frames.get(&id.0).map(f).ok_or(StorageError::Internal("frame evicted during fault-in"))
    }

    /// The miss path of [`Stripe::with_frame`], kept out of line so that a
    /// hit stays small enough to inline into its caller.
    #[cold]
    #[inline(never)]
    fn fault_in(&mut self, id: PageId) -> Result<(), StorageError> {
        let page = self.disk.read(id)?;
        self.tally.page_faults += 1;
        self.insert(id.0, Frame { page, dirty: false })
    }

    /// Copies `bytes` into page `id` at `offset` — one piece of a
    /// [`write_run`], which keeps it inside the page.
    fn write(&mut self, id: PageId, offset: usize, bytes: &[u8]) -> Result<(), StorageError> {
        self.with_frame(id, |frame| {
            write_frame(frame, |page| {
                let to = page.bytes_mut().get_mut(offset..offset + bytes.len())?;
                to.copy_from_slice(bytes);
                Some(())
            })
        })?
        .ok_or(StorageError::Internal("write piece past the page end"))
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

/// Cuts a run of `bytes` written at (`id`, `offset`) into pages: what fits
/// page `id` from `offset` on, then the rest from the start of each
/// following page id, `piece` writing each. An offset outside the page is
/// an `Err` before anything is written; an empty run writes nothing.
fn write_run(
    mut id: PageId,
    mut offset: usize,
    mut bytes: &[u8],
    mut piece: impl FnMut(PageId, usize, &[u8]) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    if offset >= PAGE_SIZE {
        return Err(StorageError::Internal("write offset outside the page"));
    }
    while !bytes.is_empty() {
        let (head, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - offset));
        piece(id, offset, head)?;
        if !rest.is_empty() {
            let next = id.0.checked_add(1).ok_or(StorageError::Internal("write past page ids"))?;
            id = PageId(next);
        }
        (offset, bytes) = (0, rest);
    }
    Ok(())
}

/// A thread-safe, lock-striped LRU buffer pool over a [`PageStore`].
///
/// Shared access takes `&self`; the pool is `Send + Sync` and is what lets
/// the core crate's `PagedEngine` serve `knn`/`range` from many threads at
/// once. See the [module docs](crate::striped) for the design.
pub struct StripedBufferPool {
    #[expect(
        clippy::disallowed_types,
        reason = "the store lock: held by pool code for one page read, write or allocation, inside a stripe or alone, never across anything else"
    )]
    store: std::sync::RwLock<PageStore>,
    #[expect(
        clippy::disallowed_types,
        reason = "the stripe locks: held by pool code for an LRU probe, a fault-in, a handle clone, a copy of the caller's bytes or a write-back, never by a caller and never two at once"
    )]
    stripes: Vec<std::sync::Mutex<Frames>>,
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
        StripedBufferPool {
            store: store.into(),
            stripes: (0..stripes).map(|i| LruCache::new(per_stripe(i)).into()).collect(),
            num_stripes,
            capacity: (0..stripes).map(per_stripe).sum(),
            logical_reads: StatCounter::default(),
            page_faults: StatCounter::default(),
            write_backs: StatCounter::default(),
        }
    }

    /// Locks stripe `index` for a caller charging `tally`; `Err` if a
    /// previous holder panicked. Every lock of a stripe is taken here.
    fn stripe_at<'a>(
        &'a self,
        index: usize,
        tally: &'a mut IoTally,
    ) -> Result<Stripe<'a, impl DerefMut<Target = Frames> + 'a>, StorageError> {
        let frames = self.stripes.get(index).ok_or(StorageError::Internal("stripe index"))?;
        let frames = frames.lock().map_err(|_| STRIPE_POISONED)?;
        Ok(Stripe { frames, disk: Disk::Locked(self), tally })
    }

    /// Locks the stripe owning page `id`.
    #[inline]
    fn stripe<'a>(
        &'a self,
        id: PageId,
        tally: &'a mut IoTally,
    ) -> Result<Stripe<'a, impl DerefMut<Target = Frames> + 'a>, StorageError> {
        self.stripe_at((id.0 % self.num_stripes) as usize, tally)
    }

    /// The stripe owning page `id`, reached by an owner: `get_mut`, no lock
    /// taken. A one-stripe pool skips the division. A stripe poisoned while
    /// the pool was shared stays an `Err`.
    #[inline]
    fn owned<'a>(
        &'a mut self,
        id: PageId,
        tally: &'a mut IoTally,
    ) -> Result<Stripe<'a, &'a mut Frames>, StorageError> {
        let frames = match self.stripes.as_mut_slice() {
            [only] => only,
            all => all
                .get_mut((id.0 % self.num_stripes) as usize)
                .ok_or(StorageError::Internal("stripe index"))?,
        };
        let frames = frames.get_mut().map_err(|_| STRIPE_POISONED)?;
        let store = self.store.get_mut().map_err(|_| STORE_POISONED)?;
        Ok(Stripe { frames, disk: Disk::Owned(store, self.write_backs.get_mut()), tally })
    }

    /// Allocates a fresh zeroed page (cached clean).
    ///
    /// The store lock is released before the stripe lock is taken, so
    /// callers that need *consecutive* page ids (multi-page records) must
    /// serialize their own allocation runs.
    pub fn alloc(&self) -> Result<PageId, StorageError> {
        let id = self.store.write().map_err(|_| STORE_POISONED)?.alloc();
        let frame = Frame { page: Arc::new(Page::zeroed()), dirty: false };
        self.stripe(id, &mut IoTally::default())?.insert(id.0, frame)?;
        Ok(id)
    }

    /// Hands out page `id` by handle, charging `tally` one logical read
    /// plus a fault if the page was not resident: the stripe lock is held
    /// for the LRU probe (a fault-in when the page is not resident) and
    /// the handle clone, and released before the caller reads a byte.
    /// `Err` when the stripe or store lock is poisoned, or when `id` names
    /// a page the store does not have.
    ///
    /// The handle is a snapshot. Copy-on-write is the contract: a later
    /// [`StripedBufferPool::write`] to `id` writes to a copy, so the
    /// handle keeps reading the bytes it was taken on — whole, never
    /// half-written, and never newer. Pin again to see a later write.
    pub fn pin(&self, id: PageId, tally: &mut IoTally) -> Result<Arc<Page>, StorageError> {
        self.stripe(id, tally)?.with_frame(id, |frame| Arc::clone(&frame.page))
    }

    /// Reads page `id` through the cache: `f` runs on a
    /// [pinned](StripedBufferPool::pin) handle, after the stripe lock is
    /// released. Same accounting and error contract as `pin`.
    pub fn with_page<R>(
        &self,
        id: PageId,
        tally: &mut IoTally,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R, StorageError> {
        let page = self.pin(id, tally)?;
        Ok(f(&page))
    }

    /// Copies `bytes` into the pages from (`id`, `offset`) on, marking each
    /// page dirty: a run longer than the rest of page `id` continues at the
    /// start of the next page id. Charges `tally` one access (and a fault
    /// when cold) per page written, as [`StripedBufferPool::pin`] does. A
    /// page shared with the store or a pinned reader is copied first, so
    /// neither ever sees the write. Nothing of the caller's runs under the
    /// stripe lock; an `offset` outside the page is an `Err`.
    pub fn write(
        &self,
        id: PageId,
        offset: usize,
        bytes: &[u8],
        tally: &mut IoTally,
    ) -> Result<(), StorageError> {
        write_run(id, offset, bytes, |id, offset, piece| {
            self.stripe(id, tally)?.write(id, offset, piece)
        })
    }

    /// The pool's owner view: `&mut self` and the owner's `tally`, every
    /// access through the owned path (no lock taken, no atomic bumped). A
    /// [`PagePool`], so a [`crate::BPlusTree`] is built and read through
    /// it.
    pub fn owner<'a>(&'a mut self, tally: &'a mut IoTally) -> OwnedPool<'a> {
        OwnedPool { pool: self, tally }
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
        for index in 0..self.stripes.len() {
            self.stripe_at(index, &mut IoTally::default())?.write_back_dirty(clear)?;
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

    /// [`StripedBufferPool::flush`] (`clear == false`) or
    /// [`StripedBufferPool::clear_cache`] for an owner.
    pub(crate) fn write_back_all_owned(&mut self, clear: bool) -> Result<(), StorageError> {
        let store = self.store.get_mut().map_err(|_| STORE_POISONED)?;
        for frames in &mut self.stripes {
            let frames = frames.get_mut().map_err(|_| STRIPE_POISONED)?;
            let disk = Disk::Owned(store, self.write_backs.get_mut());
            Stripe { frames, disk, tally: &mut IoTally::default() }.write_back_dirty(clear)?;
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
        self.stripes.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// Pages allocated in the backing store. Introspection: recovers a
    /// poisoned store lock like [`StripedBufferPool::cached_pages`].
    pub fn num_pages(&self) -> usize {
        self.store.read().unwrap_or_else(PoisonError::into_inner).num_pages()
    }

    /// Backing-store size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.store.read().unwrap_or_else(PoisonError::into_inner).size_bytes()
    }
}

/// The owner's view of a [`StripedBufferPool`]: the pool through `&mut`
/// plus the owner's [`IoTally`], from [`StripedBufferPool::owner`]. Same
/// frames, store and accounting as the shared doors, and no lock: a
/// [`PagePool`] whose closures run with nothing held.
pub struct OwnedPool<'a> {
    pub(crate) pool: &'a mut StripedBufferPool,
    pub(crate) tally: &'a mut IoTally,
}

impl OwnedPool<'_> {
    /// [`StripedBufferPool::write`] for the owner.
    pub fn write(&mut self, id: PageId, offset: usize, bytes: &[u8]) -> Result<(), StorageError> {
        write_run(id, offset, bytes, |id, offset, piece| {
            self.pool.owned(id, self.tally)?.write(id, offset, piece)
        })
    }
}

impl PagePool for OwnedPool<'_> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        let store = self.pool.store.get_mut().map_err(|_| STORE_POISONED)?;
        let id = store.alloc();
        let frame = Frame { page: Arc::new(Page::zeroed()), dirty: false };
        self.pool.owned(id, self.tally)?.insert(id.0, frame)?;
        Ok(id)
    }

    #[inline]
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError> {
        self.pool.owned(id, self.tally)?.with_frame(id, |frame| f(&frame.page))
    }

    fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.pool.owned(id, self.tally)?.with_frame(id, |frame| write_frame(frame, f))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "concurrency tests race threads, and an atomic flag, against one pool on purpose, and reach into its stripe mutexes; nothing they return is committed in completion order"
)]
mod tests {
    use super::*;
    use crate::bptree::BPlusTree;

    fn pool(capacity: usize, stripes: usize) -> StripedBufferPool {
        StripedBufferPool::new(PageStore::new(), capacity, stripes)
    }

    /// The mutex of the stripe owning page `id`.
    fn stripe_of(p: &StripedBufferPool, id: PageId) -> &std::sync::Mutex<Frames> {
        &p.stripes[id.index() % p.stripes.len()]
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
            p.write(id, 7, &[i as u8], &mut tally).unwrap();
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

    /// A write longer than the rest of its page continues at the start of
    /// the next page id, one access per page; an empty one touches nothing,
    /// and one that starts outside the page is an `Err` that writes
    /// nothing.
    #[test]
    fn a_write_runs_on_across_page_boundaries() {
        let p = pool(8, 2);
        let ids: Vec<PageId> = (0..3).map(|_| p.alloc().unwrap()).collect();
        let run: Vec<u8> = (0..PAGE_SIZE + 20).map(|i| (i % 251) as u8 + 1).collect();
        let mut tally = IoTally::default();
        p.write(ids[0], PAGE_SIZE - 10, &run, &mut tally).unwrap();
        assert_eq!(tally.logical_reads, 3, "one access per page the run touches");
        let mut back = Vec::new();
        for &id in &ids {
            back.extend_from_slice(p.pin(id, &mut tally).unwrap().bytes());
        }
        assert_eq!(back[PAGE_SIZE - 10..PAGE_SIZE + run.len() - 10], run[..]);
        assert!(back[..PAGE_SIZE - 10]
            .iter()
            .chain(&back[PAGE_SIZE + run.len() - 10..])
            .all(|&b| b == 0));
        let mut tally = IoTally::default();
        p.write(ids[1], 5, &[], &mut tally).unwrap();
        assert_eq!(
            p.write(ids[1], PAGE_SIZE, &[1], &mut tally),
            Err(StorageError::Internal("write offset outside the page"))
        );
        assert_eq!(tally, IoTally::default());
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
        p.write(a, 0, &[1], &mut tally).unwrap();
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
                        p.write(id, 100, &[i as u8 + 1], &mut tally).unwrap();
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
                    p.write(id, round, &[stamp(i)], &mut tally).unwrap();
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
        p.write(a, 0, &[1], &mut tally).unwrap();
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
    /// bytes it was taken on, whole, while `write` on the same id writes to
    /// a copy that the pool (and the next `pin`) sees — also across an
    /// eviction and a `clear_cache`.
    #[test]
    fn a_pinned_handle_is_a_snapshot() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        p.write(a, 0, &[1; 4], &mut tally).unwrap();
        let old = p.pin(a, &mut tally).unwrap();
        p.write(a, 0, &[2; 4], &mut tally).unwrap();
        assert_eq!(old.bytes()[..4], [1; 4], "a pinned page changed under its reader");
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[..4], [2; 4])).unwrap();
        let new = p.pin(a, &mut tally).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        // Unpinned and unshared, the frame is written in place.
        drop(new);
        let at = p.pin(a, &mut tally).map(|h| Arc::as_ptr(&h)).unwrap();
        p.write(a, 4, &[3], &mut tally).unwrap();
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

    /// The owner's view and the locked doors reach the same frames, the
    /// same store and the same write-back count: what one caches is a hit
    /// for the other, and a dirty frame evicted or cleared through the
    /// owner's view is counted where `stats()` reads it.
    #[test]
    fn owned_and_locked_access_share_one_pool() {
        let mut p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.owner(&mut tally).alloc().unwrap();
        p.owner(&mut tally).write(a, 0, &[5]).unwrap();
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 5)).unwrap();
        let b = p.alloc().unwrap();
        p.write(b, 0, &[6], &mut tally).unwrap();
        p.owner(&mut tally).with_page(b, |pg| assert_eq!(pg.bytes()[0], 6)).unwrap();
        assert_eq!(tally, IoTally { logical_reads: 4, page_faults: 0 });
        // `a` is the least recent: an owner's allocation evicts it, dirty.
        p.owner(&mut tally).alloc().unwrap();
        assert_eq!(p.stats().write_backs, 1);
        p.write_back_all_owned(true).unwrap();
        assert_eq!(p.stats().write_backs, 2, "`b` was dirty, the new page clean");
        assert_eq!(p.cached_pages(), 0);
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 5)).unwrap();
        p.owner(&mut tally).with_page(b, |pg| assert_eq!(pg.bytes()[0], 6)).unwrap();
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

    /// No caller code runs under a pool guard: inside a `with_page`
    /// closure the page's stripe is free — a lock another thread (or the
    /// caller itself) takes there cannot order against it.
    #[test]
    fn a_with_page_closure_runs_with_its_stripe_released() {
        let p = pool(4, 2);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        let free = p.with_page(a, &mut tally, |_| stripe_of(&p, a).try_lock().is_ok()).unwrap();
        assert!(free, "the closure ran under the stripe lock");
    }

    /// A thread that panics while it holds a stripe poisons it: every
    /// door to that stripe — shared and owned, reads, writes, allocations
    /// landing there, flush and clear — returns `Err(LockPoisoned)`, never
    /// a propagated panic; the other stripe still serves, and
    /// introspection recovers.
    #[test]
    fn a_poisoned_stripe_fails_every_door_and_introspection_recovers() {
        let mut p = pool(8, 2);
        let mut tally = IoTally::default();
        let (a, other) = (p.alloc().unwrap(), p.alloc().unwrap());
        p.write(a, 0, &[1], &mut tally).unwrap();
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = stripe_of(&p, a).lock().unwrap();
                    panic!("die holding the stripe lock");
                })
                .join()
        });
        assert!(died.is_err());
        let poisoned = StorageError::LockPoisoned("buffer-pool stripe");
        assert_eq!(p.pin(a, &mut tally).err(), Some(poisoned));
        assert_eq!(p.with_page(a, &mut tally, |_| ()), Err(poisoned));
        assert_eq!(p.write(a, 0, &[2], &mut tally), Err(poisoned));
        assert_eq!(p.flush(), Err(poisoned), "flush walks every stripe");
        assert_eq!(p.clear_cache(), Err(poisoned), "so does clear");
        // Of two allocations one lands in each stripe.
        let allocs = [p.alloc(), p.alloc()];
        assert!(allocs.contains(&Err(poisoned)), "{allocs:?}");
        assert!(p.with_page(other, &mut tally, |_| ()).is_ok(), "the other stripe serves");
        assert_eq!(p.cached_pages(), 3, "introspection recovers the poisoned stripe");
        assert_eq!(p.num_pages(), 4);
        let mut owner = p.owner(&mut tally);
        assert_eq!(owner.with_page(a, |_| ()), Err(poisoned));
        assert_eq!(owner.with_page_mut(a, |_| ()), Err(poisoned));
        assert_eq!(owner.write(a, 0, &[3]), Err(poisoned));
        assert!(owner.with_page(other, |_| ()).is_ok());
        assert_eq!(p.write_back_all_owned(false), Err(poisoned));
    }

    /// A `with_page` closure may go through the pool again for its own
    /// page, nested or by `pin`: one stripe, so a guard held around the
    /// closure would have been taken twice on one thread.
    #[test]
    fn a_with_page_closure_can_pin_and_read_its_own_page() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        p.write(a, 3, &[9], &mut tally).unwrap();
        let mut inner = IoTally::default();
        let read = p
            .with_page(a, &mut tally, |pg| {
                assert!(stripe_of(&p, a).try_lock().is_ok(), "held: the nesting would deadlock");
                let nested = p.with_page(a, &mut inner, |again| again.bytes()[3]).unwrap();
                let pinned = p.pin(a, &mut inner).unwrap().bytes()[3];
                (pg.bytes()[3], nested, pinned)
            })
            .unwrap();
        assert_eq!(read, (9, 9, 9));
        assert_eq!(inner, IoTally { logical_reads: 2, page_faults: 0 });
    }

    /// A `with_page` closure may write its own page: the write lands in the
    /// pool, and the closure goes on reading the snapshot it was handed.
    #[test]
    fn a_with_page_closure_can_write_its_own_page_and_keeps_its_snapshot() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        let mut inner = IoTally::default();
        let seen = p
            .with_page(a, &mut tally, |pg| {
                assert!(stripe_of(&p, a).try_lock().is_ok(), "held: the write would deadlock");
                p.write(a, 0, &[7; 8], &mut inner).unwrap();
                pg.bytes()[..8].to_vec()
            })
            .unwrap();
        assert_eq!(seen, [0; 8], "the closure's page changed under it");
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[..8], [7; 8])).unwrap();
        assert_eq!(inner, IoTally { logical_reads: 1, page_faults: 0 });
    }

    /// The pool-wide doors run from inside a `with_page` closure too: an
    /// allocation, a flush and a clear each lock the stripe the closure's
    /// page lives in, and the page the closure holds is left alone.
    #[test]
    fn a_with_page_closure_can_allocate_flush_and_clear() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        p.write(a, 0, &[4], &mut tally).unwrap();
        let b = p
            .with_page(a, &mut tally, |pg| {
                assert!(stripe_of(&p, a).try_lock().is_ok(), "held: the doors would deadlock");
                let b = p.alloc().unwrap();
                p.flush().unwrap();
                p.clear_cache().unwrap();
                assert_eq!(pg.bytes()[0], 4, "a clear reached into a pinned page");
                b
            })
            .unwrap();
        assert_eq!(b, PageId(a.0 + 1));
        assert_eq!(p.stats().write_backs, 1, "the flush cleaned `a`, the clear found it clean");
        assert_eq!(p.cached_pages(), 0);
        p.with_page(a, &mut tally, |pg| assert_eq!(pg.bytes()[0], 4)).unwrap();
    }

    /// A `with_page` closure may wait on another thread that reads the same
    /// page: nothing of the pool's is held while the caller's code runs.
    #[test]
    fn a_with_page_closure_can_wait_on_another_thread_reading_its_page() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        p.write(a, 1, &[6], &mut tally).unwrap();
        let theirs = p
            .with_page(a, &mut tally, |_| {
                assert!(stripe_of(&p, a).try_lock().is_ok(), "held: the wait would deadlock");
                std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            let mut theirs = IoTally::default();
                            p.with_page(a, &mut theirs, |pg| pg.bytes()[1])
                        })
                        .join()
                        .unwrap()
                })
            })
            .unwrap();
        assert_eq!(theirs, Ok(6));
    }

    /// Every door returns with every stripe and the store free, a pinned
    /// handle held or not: the pool's guards never outlive the call that
    /// takes them.
    #[test]
    fn every_door_returns_with_the_pools_locks_free() {
        let p = pool(4, 2);
        let free = |p: &StripedBufferPool| {
            p.stripes.iter().all(|s| s.try_lock().is_ok()) && p.store.try_write().is_ok()
        };
        let mut tally = IoTally::default();
        let a = p.alloc().unwrap();
        assert!(free(&p), "alloc");
        let pinned = p.pin(a, &mut tally).unwrap();
        assert!(free(&p), "a held pin");
        p.with_page(a, &mut tally, |_| ()).unwrap();
        assert!(free(&p), "with_page");
        p.write(a, PAGE_SIZE - 2, &[1; 2], &mut tally).unwrap();
        assert!(free(&p), "write");
        p.flush().unwrap();
        assert!(free(&p), "flush");
        p.clear_cache().unwrap();
        assert!(free(&p), "clear_cache");
        p.settle(&tally);
        assert_eq!((p.cached_pages(), p.num_pages(), p.size_bytes()), (0, 1, PAGE_SIZE));
        assert!(free(&p), "introspection");
        assert_eq!(pinned.bytes()[PAGE_SIZE - 2..], [0; 2]);
    }

    /// A page id the store never allocated reaches the pool off page bytes
    /// (a child pointer, a record location): every door reports it as a
    /// corrupt page, runs no closure and faults nothing in.
    #[test]
    fn a_page_the_store_never_allocated_is_a_corrupt_page_at_every_door() {
        let p = pool(4, 2);
        let a = p.alloc().unwrap();
        let wild = PageId(7);
        let corrupt = StorageError::CorruptPage("page id outside the store");
        let mut tally = IoTally::default();
        assert_eq!(p.pin(wild, &mut tally).err(), Some(corrupt));
        let mut ran = false;
        assert_eq!(p.with_page(wild, &mut tally, |_| ran = true), Err(corrupt));
        assert!(!ran, "a closure ran on a page that does not exist");
        assert_eq!(p.write(wild, 0, &[1], &mut tally), Err(corrupt));
        assert_eq!(tally.page_faults, 0);
        assert_eq!((p.cached_pages(), p.num_pages()), (1, 1));
        assert!(p.pin(a, &mut tally).is_ok());
    }

    /// A write run is cut at page ends: what fits the first page from the
    /// offset on, each following page from its start, the last one short;
    /// a piece that fails ends the run.
    #[test]
    fn write_run_cuts_a_run_into_page_pieces() {
        let mut pieces = Vec::new();
        let run = vec![0u8; 2 * PAGE_SIZE + 50];
        write_run(PageId(3), PAGE_SIZE - 100, &run, |id, offset, bytes| {
            pieces.push((id.0, offset, bytes.len()));
            Ok(())
        })
        .unwrap();
        assert_eq!(pieces, [(3, PAGE_SIZE - 100, 100), (4, 0, PAGE_SIZE), (5, 0, PAGE_SIZE - 50)]);
        pieces.clear();
        let failed = StorageError::Internal("piece");
        let got = write_run(PageId(0), 0, &run, |id, offset, bytes| {
            pieces.push((id.0, offset, bytes.len()));
            if id.0 == 1 {
                Err(failed)
            } else {
                Ok(())
            }
        });
        assert_eq!(got, Err(failed));
        assert_eq!(pieces, [(0, 0, PAGE_SIZE), (1, 0, PAGE_SIZE)]);
    }

    /// A run that would go on past the last page id is an `Err` once the
    /// last page's piece is written, not a wrap to page 0.
    #[test]
    fn write_run_stops_at_the_last_page_id() {
        let mut pieces = Vec::new();
        let got = write_run(PageId(u32::MAX), PAGE_SIZE - 1, &[1, 2], |id, offset, bytes| {
            pieces.push((id.0, offset, bytes.len()));
            Ok(())
        });
        assert_eq!(got, Err(StorageError::Internal("write past page ids")));
        assert_eq!(pieces, [(u32::MAX, PAGE_SIZE - 1, 1)]);
    }

    /// A thread that panics holding the store lock poisons it: a fault-in,
    /// an allocation and a write-back need the store and return
    /// `Err(LockPoisoned)`, while resident pages go on serving from their
    /// stripe and introspection recovers the lock.
    #[test]
    fn a_poisoned_store_fails_what_needs_it_while_resident_pages_serve() {
        let p = pool(2, 1);
        let mut tally = IoTally::default();
        let (a, b, c) = (p.alloc().unwrap(), p.alloc().unwrap(), p.alloc().unwrap());
        // Two frames: `c`'s allocation evicted `a`, clean.
        p.write(c, 0, &[1], &mut tally).unwrap();
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = p.store.write().unwrap();
                    panic!("die holding the store lock");
                })
                .join()
        });
        assert!(died.is_err());
        let poisoned = StorageError::LockPoisoned("page store");
        assert_eq!(p.pin(b, &mut tally).map(|pg| pg.bytes()[0]), Ok(0), "a resident page");
        assert_eq!(p.pin(a, &mut tally).err(), Some(poisoned), "a fault-in");
        assert_eq!(p.alloc(), Err(poisoned));
        assert_eq!(p.flush(), Err(poisoned), "`c` is dirty");
        assert_eq!(
            p.with_page(c, &mut tally, |pg| pg.bytes()[0]),
            Ok(1),
            "the stripe still serves"
        );
        assert_eq!((p.num_pages(), p.size_bytes()), (3, 3 * PAGE_SIZE));
    }

    /// A write to a page that is not resident faults it in first, once: the
    /// write charges the access and the fault, and the next write is a hit.
    #[test]
    fn a_write_to_a_cold_page_faults_it_in_once() {
        let p = pool(4, 1);
        let a = p.alloc().unwrap();
        p.clear_cache().unwrap();
        let mut tally = IoTally::default();
        p.write(a, 0, &[1], &mut tally).unwrap();
        assert_eq!(tally, IoTally { logical_reads: 1, page_faults: 1 });
        p.write(a, 1, &[2], &mut tally).unwrap();
        assert_eq!(tally, IoTally { logical_reads: 2, page_faults: 1 });
        p.clear_cache().unwrap();
        assert_eq!(p.stats().write_backs, 1);
        assert_eq!(p.pin(a, &mut tally).unwrap().bytes()[..3], [1, 2, 0]);
    }

    /// A page lives in the stripe its id picks, and a stripe's misses
    /// evict only its own frames: a scan through one stripe leaves what
    /// another holds resident.
    #[test]
    fn a_stripe_evicts_only_its_own_pages() {
        let p = pool(4, 2); // two frames a stripe
        let ids: Vec<PageId> = (0..8).map(|_| p.alloc().unwrap()).collect();
        p.clear_cache().unwrap();
        let mut tally = IoTally::default();
        for id in [ids[1], ids[3]] {
            p.pin(id, &mut tally).unwrap();
        }
        // Stripe 0's four pages through its two frames.
        for id in [ids[0], ids[2], ids[4], ids[6]] {
            p.pin(id, &mut tally).unwrap();
        }
        assert_eq!(tally.page_faults, 6);
        for id in [ids[1], ids[3]] {
            p.pin(id, &mut tally).unwrap();
        }
        assert_eq!(tally.page_faults, 6, "stripe 0's misses evicted stripe 1's pages");
        assert_eq!(p.cached_pages(), 4);
    }

    /// The capacity split, per stripe: remainder first, at least one frame
    /// each, exact in total from one frame a stripe on, and never smaller
    /// for a larger request — the per-stripe monotonicity the module docs
    /// build LRU's inclusion property on.
    #[test]
    fn stripe_capacities_are_remainder_first_and_monotone() {
        let caps = |p: &StripedBufferPool| -> Vec<usize> {
            p.stripes.iter().map(|s| s.lock().unwrap().capacity()).collect()
        };
        assert_eq!(caps(&pool(50, 8)), [7, 7, 6, 6, 6, 6, 6, 6]);
        assert_eq!(caps(&pool(3, 4)), [1, 1, 1, 1]);
        for stripes in 1..=8 {
            let mut before = vec![0; stripes];
            for capacity in 1..=40 {
                let p = pool(capacity, stripes);
                let now = caps(&p);
                assert!(now.iter().zip(&before).all(|(n, b)| n >= b), "{capacity}/{stripes}");
                assert_eq!(now.iter().sum::<usize>(), p.capacity());
                assert_eq!(p.capacity(), capacity.max(stripes));
                before = now;
            }
        }
    }

    #[test]
    #[should_panic(expected = "stripe count")]
    fn zero_stripes_rejected() {
        let _ = pool(4, 0);
    }

    /// The owner's `write` and the shared one are one write: the same runs
    /// leave the same pages, charge the same tallies and write back as
    /// often; an offset outside the page is the same `Err` from both.
    #[test]
    fn owner_and_shared_writes_leave_the_same_pages_and_tallies() {
        let shared = pool(3, 2);
        let mut owned = pool(3, 2);
        let (mut shared_tally, mut owned_tally) = (IoTally::default(), IoTally::default());
        for _ in 0..4 {
            let id = shared.alloc().unwrap();
            assert_eq!(owned.owner(&mut owned_tally).alloc().unwrap(), id);
        }
        shared.clear_cache().unwrap();
        owned.write_back_all_owned(true).unwrap();
        let runs = [(0, 10, 5_000), (2, PAGE_SIZE - 1, 2), (1, 0, 1), (3, 0, PAGE_SIZE)];
        for (n, (id, offset, len)) in runs.into_iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|i| (i + n) as u8 | 1).collect();
            shared.write(PageId(id), offset, &bytes, &mut shared_tally).unwrap();
            owned.owner(&mut owned_tally).write(PageId(id), offset, &bytes).unwrap();
            assert_eq!(shared_tally, owned_tally, "run {n}");
        }
        let outside = Err(StorageError::Internal("write offset outside the page"));
        assert_eq!(shared.write(PageId(0), PAGE_SIZE, &[1], &mut shared_tally), outside);
        assert_eq!(owned.owner(&mut owned_tally).write(PageId(0), PAGE_SIZE, &[1]), outside);
        for id in (0..4).map(PageId) {
            let theirs = owned.owner(&mut owned_tally).with_page(id, |pg| pg.bytes().to_vec());
            assert_eq!(shared.pin(id, &mut shared_tally).unwrap().bytes(), &theirs.unwrap()[..]);
        }
        assert_eq!(shared_tally, owned_tally);
        assert_eq!(shared.stats().write_backs, owned.stats().write_backs);
    }

    /// The store lock is released before the stripe is taken, and ids
    /// still come out distinct: threads allocating at once get every id
    /// once, each thread's in rising order.
    #[test]
    fn concurrent_allocations_hand_out_distinct_ids() {
        let p = pool(8, 4);
        let per_thread: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..50).map(|_| p.alloc().unwrap().0).collect::<Vec<_>>()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        }
        let mut all: Vec<u32> = per_thread.concat();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<u32>>());
        assert_eq!(p.num_pages(), 200);
        assert!(p.cached_pages() <= p.capacity());
    }

    /// Readers pinning pages while a writer rewrites them whole, page
    /// after page, see one write's bytes on every page they get, never a
    /// page half old and half new.
    #[test]
    fn readers_beside_a_writer_only_ever_see_whole_pages() {
        const ROUNDS: u8 = 120;
        let p = pool(4, 2);
        let ids: Vec<PageId> = (0..2).map(|_| p.alloc().unwrap()).collect();
        std::thread::scope(|scope| {
            for reader in 0..2 {
                let (p, ids) = (&p, &ids);
                scope.spawn(move || {
                    let mut tally = IoTally::default();
                    for i in 0..600 {
                        let page = p.pin(ids[(i + reader) % 2], &mut tally).unwrap();
                        let first = page.bytes()[0];
                        assert!(page.bytes().iter().all(|&b| b == first), "a torn page");
                    }
                });
            }
            let mut tally = IoTally::default();
            for round in 1..=ROUNDS {
                for &id in &ids {
                    p.write(id, 0, &[round; PAGE_SIZE], &mut tally).unwrap();
                }
            }
        });
        let mut tally = IoTally::default();
        for &id in &ids {
            assert!(p.pin(id, &mut tally).unwrap().bytes().iter().all(|&b| b == ROUNDS));
        }
    }

    /// Readers faulting pages in while another thread clears the cache in
    /// a loop always read the stored bytes: a clear between a reader's
    /// probe and its fault-in cannot make a read fail or come back empty.
    #[test]
    fn readers_racing_a_clearing_thread_read_the_stored_bytes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let p = pool(8, 2);
        let ids: Vec<PageId> = (0..16).map(|_| p.alloc().unwrap()).collect();
        let mut tally = IoTally::default();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, 9, &[i as u8 + 1], &mut tally).unwrap();
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    p.clear_cache().unwrap();
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    let (p, ids) = (&p, &ids);
                    scope.spawn(move || {
                        let mut tally = IoTally::default();
                        for i in 0..800 {
                            let at = (i * 5 + r) % ids.len();
                            let byte = p.with_page(ids[at], &mut tally, |pg| pg.bytes()[9]);
                            assert_eq!(byte, Ok(at as u8 + 1), "page {at}");
                        }
                        tally
                    })
                })
                .collect();
            let faults: u64 = readers.into_iter().map(|r| r.join().unwrap().page_faults).sum();
            done.store(true, Ordering::Release);
            assert!(faults > 0, "no read raced a clear");
        });
    }

    /// The owner view charges the owner's tally and no shared counter:
    /// the pool's statistics stay at zero until the tally is settled.
    #[test]
    fn an_owner_view_charges_only_its_tally_until_settled() {
        let mut p = pool(2, 1);
        let mut tally = IoTally::default();
        let a = p.owner(&mut tally).alloc().unwrap();
        p.write_back_all_owned(true).unwrap();
        for _ in 0..2 {
            p.owner(&mut tally).with_page(a, |_| ()).unwrap();
        }
        p.owner(&mut tally).with_page_mut(a, |pg| pg.bytes_mut()[0] = 1).unwrap();
        assert_eq!(tally, IoTally { logical_reads: 3, page_faults: 1 });
        assert_eq!(p.stats(), BufferStats::default());
        p.settle(&tally);
        assert_eq!(p.stats(), BufferStats { logical_reads: 3, page_faults: 1, write_backs: 0 });
    }

    /// An allocation hands out the next page id, zeroed and cached clean:
    /// reading it costs no fault, and a clear writes nothing back.
    #[test]
    fn alloc_hands_out_zeroed_pages_cached_clean() {
        let p = pool(4, 2);
        let ids: Vec<PageId> = (0..3).map(|_| p.alloc().unwrap()).collect();
        assert_eq!(ids, [PageId(0), PageId(1), PageId(2)]);
        let mut tally = IoTally::default();
        for &id in &ids {
            assert!(p.pin(id, &mut tally).unwrap().bytes().iter().all(|&b| b == 0));
        }
        assert_eq!(tally, IoTally { logical_reads: 3, page_faults: 0 });
        p.clear_cache().unwrap();
        assert_eq!(p.stats().write_backs, 0);
        assert_eq!(p.size_bytes(), 3 * PAGE_SIZE);
    }

    /// `flush` and `clear_cache` walk every stripe: each dirty frame is
    /// written back once, wherever it lives, and a clear after a flush
    /// writes back only what was dirtied since.
    #[test]
    fn flush_and_clear_write_back_every_stripes_dirty_frames() {
        let p = pool(8, 4);
        let ids: Vec<PageId> = (0..8).map(|_| p.alloc().unwrap()).collect();
        let mut tally = IoTally::default();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, 0, &[i as u8 + 1], &mut tally).unwrap();
        }
        p.flush().unwrap();
        assert_eq!((p.stats().write_backs, p.cached_pages()), (8, 8));
        for &id in &ids[..4] {
            p.write(id, 1, &[0xEE], &mut tally).unwrap();
        }
        p.clear_cache().unwrap();
        assert_eq!((p.stats().write_backs, p.cached_pages()), (12, 0));
        for (i, &id) in ids.iter().enumerate() {
            let want = [i as u8 + 1, if i < 4 { 0xEE } else { 0 }];
            assert_eq!(p.pin(id, &mut tally).unwrap().bytes()[..2], want, "page {i}");
        }
    }

    /// A read-only [`PagePool`] over the shared pool, through `pin`.
    struct Pinned<'a>(&'a StripedBufferPool, IoTally);

    impl PagePool for Pinned<'_> {
        fn alloc(&mut self) -> Result<PageId, StorageError> {
            unreachable!("lookups do not allocate")
        }
        fn with_page<R>(
            &mut self,
            id: PageId,
            f: impl FnOnce(&Page) -> R,
        ) -> Result<R, StorageError> {
            self.0.with_page(id, &mut self.1, f)
        }
        fn with_page_mut<R>(
            &mut self,
            _: PageId,
            _: impl FnOnce(&mut Page) -> R,
        ) -> Result<R, StorageError> {
            unreachable!("lookups do not write")
        }
    }

    /// A B+-tree built through the owner view is read back concurrently
    /// through the shared pool: every thread gets the single-threaded
    /// answers.
    #[test]
    fn bptree_built_by_the_owner_reads_back_under_threads() {
        let mut p = pool(8, 4);
        let mut tally = IoTally::default();
        let mut tree = BPlusTree::with_caps(&mut p.owner(&mut tally), 4, 4).unwrap();
        for k in 0..300u64 {
            tree.insert(&mut p.owner(&mut tally), k, k * 3).unwrap();
        }
        p.clear_cache().unwrap();
        p.reset_stats();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let p = &p;
                let tree = &tree;
                scope.spawn(move || {
                    let mut view = Pinned(p, IoTally::default());
                    for i in 0..300u64 {
                        let k = (i * 11 + t) % 300;
                        assert_eq!(tree.get(&mut view, k).unwrap(), Some(k * 3));
                    }
                    assert!(view.1.logical_reads > 0);
                });
            }
        });
    }
}
