//! The buffer pool's counters, the page-access trait the paged B+-tree
//! reads through, and [`BufferPool`]: the single-owner handle of a
//! one-stripe [`StripedBufferPool`].
//!
//! There is one pool implementation, in [`crate::striped`]. The handle
//! reaches it through `&mut`, so no access takes a lock, and keeps its own
//! [`IoTally`] — the counters are exact the moment an access returns.
//! Matches the paper's cache model: a fixed number of frames (50 by
//! default) replaced LRU, cold at the start of every measured query.
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

use crate::error::StorageError;
use crate::page::{Page, PageId};
use crate::store::PageStore;
use crate::striped::{IoTally, StripedBufferPool};

/// Buffer-pool counters. `page_faults` is the paper's I/O metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page accesses through the pool.
    pub logical_reads: u64,
    /// Accesses that missed the cache and hit the store.
    pub page_faults: u64,
    /// Dirty pages written back (on eviction or flush).
    pub write_backs: u64,
}

impl BufferStats {
    /// Fraction of accesses served from the cache. Defined at zero reads:
    /// a pool that has served no accesses has missed none, so the rate is
    /// `1.0` (never `NaN`) — the same convention as
    /// `SearchStats::buffer_hit_rate` in the core crate.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - self.page_faults as f64 / self.logical_reads as f64
        }
    }
}

/// Page-granular storage access: what the paged [`crate::BPlusTree`] needs
/// from its backing pool. Implemented by the single-owner [`BufferPool`]
/// and by [`crate::OwnedPool`], the owner's view of a
/// [`StripedBufferPool`] — the same pool code behind both, and no lock
/// held while a closure runs.
///
/// Every method is fallible: a stripe poisoned while the pool was shared
/// surfaces as [`StorageError::LockPoisoned`], and a page id the store
/// never allocated as [`StorageError::CorruptPage`], so the trait carries
/// the `Result` through to every caller.
pub trait PagePool {
    /// Allocates a fresh zeroed page (cached clean).
    fn alloc(&mut self) -> Result<PageId, StorageError>;
    /// Reads page `id` through the cache.
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError>;
    /// Mutates page `id` through the cache, marking it dirty.
    fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError>;
}

/// A buffer pool with one owner: a one-stripe [`StripedBufferPool`]
/// reached through `&mut`, so no access takes a lock, plus the owner's
/// [`IoTally`].
pub struct BufferPool {
    pool: StripedBufferPool,
    tally: IoTally,
}

impl BufferPool {
    /// Wraps `store` with a pool of `capacity` frames.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(store: PageStore, capacity: usize) -> Self {
        BufferPool { pool: StripedBufferPool::new(store, capacity, 1), tally: IoTally::default() }
    }

    /// Writes every dirty frame back to the store (frames stay cached, in
    /// the order they were).
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.pool.write_back_all_owned(false)
    }

    /// Flushes and empties the cache — the paper initialises every query
    /// with an empty cache.
    pub fn clear_cache(&mut self) -> Result<(), StorageError> {
        self.pool.write_back_all_owned(true)
    }

    /// Pool counters.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            logical_reads: self.tally.logical_reads,
            page_faults: self.tally.page_faults,
            write_backs: self.pool.stats().write_backs,
        }
    }

    /// Zeroes the pool counters (cache contents unchanged).
    pub fn reset_stats(&mut self) {
        self.tally = IoTally::default();
        self.pool.reset_stats();
    }
}

/// Page access: the pool's [owner view](StripedBufferPool::owner),
/// charged to the owner's tally.
impl PagePool for BufferPool {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.pool.owner(&mut self.tally).alloc()
    }

    #[inline]
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError> {
        self.pool.owner(&mut self.tally).with_page(id, f)
    }

    fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.pool.owner(&mut self.tally).with_page_mut(id, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_reads_do_not_fault() {
        let mut pool = BufferPool::new(PageStore::new(), 4);
        let p = pool.alloc().unwrap();
        pool.reset_stats();
        for _ in 0..10 {
            pool.with_page(p, |pg| assert_eq!(pg.bytes()[0], 0)).unwrap();
        }
        let st = pool.stats();
        assert_eq!(st.logical_reads, 10);
        assert_eq!(st.page_faults, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut pool = BufferPool::new(PageStore::new(), 2);
        let a = pool.alloc().unwrap();
        pool.with_page_mut(a, |pg| pg.bytes_mut()[0] = 42).unwrap();
        // Fill the pool until `a` is evicted.
        let _b = pool.alloc().unwrap();
        let _c = pool.alloc().unwrap();
        assert!(pool.stats().write_backs >= 1);
        // Fault `a` back in: the write-back preserved the data.
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[0], 42)).unwrap();
        assert!(pool.stats().page_faults >= 1);
    }

    #[test]
    fn clear_cache_then_cold_reads_fault() {
        let mut pool = BufferPool::new(PageStore::new(), 8);
        let ids: Vec<PageId> = (0..4).map(|_| pool.alloc().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |pg| pg.bytes_mut()[0] = i as u8).unwrap();
        }
        pool.clear_cache().unwrap();
        pool.reset_stats();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page(id, |pg| assert_eq!(pg.bytes()[0], i as u8)).unwrap();
        }
        assert_eq!(pool.stats().page_faults, 4);
        // Second round is warm.
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().page_faults, 4);
    }

    #[test]
    fn flush_persists_without_dropping_frames() {
        let mut pool = BufferPool::new(PageStore::new(), 4);
        let a = pool.alloc().unwrap();
        pool.with_page_mut(a, |pg| pg.bytes_mut()[1] = 9).unwrap();
        pool.flush().unwrap();
        pool.reset_stats();
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[1], 9)).unwrap();
        assert_eq!(pool.stats().page_faults, 0, "flush must not evict");
    }

    /// `reset_stats` zeroes the counters and nothing else: cached frames
    /// keep their bytes, their LRU order and their dirty state.
    #[test]
    fn reset_stats_keeps_cached_pages() {
        let mut pool = BufferPool::new(PageStore::new(), 2);
        let a = pool.alloc().unwrap();
        pool.with_page_mut(a, |pg| pg.bytes_mut()[3] = 4).unwrap();
        let b = pool.alloc().unwrap();
        pool.with_page(b, |_| ()).unwrap();
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[3], 4)).unwrap();
        assert_eq!(pool.stats().page_faults, 0, "the reset evicted a frame");
        // Recency is now `b`, `a`: the first allocation evicts clean `b`,
        // the second evicts `a`, still dirty, and writes it back.
        pool.alloc().unwrap();
        assert_eq!(pool.stats().write_backs, 0);
        pool.alloc().unwrap();
        assert_eq!(pool.stats().write_backs, 1, "the reset cleaned a dirty frame");
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[3], 4)).unwrap();
    }

    /// A page id the store never allocated (one read off a corrupt page)
    /// is an `Err`, not a panic, and faults nothing in.
    #[test]
    fn an_unallocated_page_is_an_error_not_a_panic() {
        let mut pool = BufferPool::new(PageStore::new(), 2);
        let a = pool.alloc().unwrap();
        let wild = PageId(a.0 + 1);
        let corrupt = Err(StorageError::CorruptPage("page id outside the store"));
        assert_eq!(pool.with_page(wild, |_| ()), corrupt);
        assert_eq!(pool.with_page_mut(wild, |pg| pg.bytes_mut()[0] = 1), corrupt);
        assert_eq!(pool.stats().page_faults, 0);
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[0], 0)).unwrap();
    }

    /// Through the handle, as through the shared pool: a clear writes each
    /// dirty frame back once, a clean frame never, and an empty cache
    /// writes nothing.
    #[test]
    fn clear_cache_writes_back_each_dirty_frame_once() {
        let mut pool = BufferPool::new(PageStore::new(), 8);
        let ids: Vec<PageId> = (0..6).map(|_| pool.alloc().unwrap()).collect();
        for &id in ids.iter().step_by(2) {
            pool.with_page_mut(id, |pg| pg.bytes_mut()[0] = 1).unwrap();
        }
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.clear_cache().unwrap();
        assert_eq!(pool.stats().write_backs, 3);
        pool.clear_cache().unwrap();
        pool.flush().unwrap();
        assert_eq!(pool.stats().write_backs, 3, "an empty cache wrote a page back");
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page(id, |pg| assert_eq!(pg.bytes()[0], u8::from(i % 2 == 0))).unwrap();
        }
    }
}
