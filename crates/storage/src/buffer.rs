//! The buffer pool: LRU page frames with dirty write-back.
//!
//! Matches the paper's cache model: a fixed number of frames (50 by
//! default) replaced LRU, cold at the start of every measured query.
// roadlint: serving-path

use crate::error::StorageError;
use crate::lru::LruCache;
use crate::page::{Page, PageId};
use crate::store::PageStore;
use std::sync::Arc;

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
/// from its backing pool. Implemented by the single-threaded [`BufferPool`]
/// and by [`crate::striped::TalliedPool`], a per-query view of the
/// concurrent [`crate::striped::StripedBufferPool`].
///
/// Every method is fallible: the striped implementation surfaces a
/// poisoned stripe or store lock as [`StorageError::LockPoisoned`] instead
/// of panicking the serving thread, so the trait carries the `Result`
/// through to every caller.
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

/// A cached page: a handle shared with the store until the first write
/// through the pool copies it.
struct Frame {
    page: Arc<Page>,
    dirty: bool,
}

/// An LRU buffer pool over a [`PageStore`].
pub struct BufferPool {
    store: PageStore,
    frames: LruCache<u32, Frame>,
    stats: BufferStats,
}

impl BufferPool {
    /// Wraps `store` with a pool of `capacity` frames.
    pub fn new(store: PageStore, capacity: usize) -> Self {
        BufferPool { store, frames: LruCache::new(capacity), stats: BufferStats::default() }
    }

    /// Allocates a fresh zeroed page (cached clean).
    pub fn alloc(&mut self) -> PageId {
        let id = self.store.alloc();
        self.cache_insert(id.0, Frame { page: Arc::new(Page::zeroed()), dirty: false });
        id
    }

    fn cache_insert(&mut self, id: u32, frame: Frame) {
        if let Some((evicted_id, evicted)) = self.frames.put(id, frame) {
            if evicted.dirty {
                self.stats.write_backs += 1;
                self.store.write(PageId(evicted_id), evicted.page);
            }
        }
    }

    /// Runs `f` on the frame of page `id`. A hit is one LRU probe; only a
    /// miss goes to the store, and that is where a page id enters it: ids
    /// reach here off page bytes (a B+-tree child pointer, a packed record
    /// location), so one the store never allocated is a corrupt page, not
    /// an index. The lookup after the fault-in cannot miss (the LRU holds
    /// at least one frame and the admitted page is the most recent), but
    /// the invariant is reported as `Err` rather than unwound: serving
    /// threads must survive storage bugs.
    fn with_frame<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R, StorageError> {
        self.stats.logical_reads += 1;
        if let Some(frame) = self.frames.get(&id.0) {
            return Ok(f(frame));
        }
        if id.index() >= self.store.num_pages() {
            return Err(StorageError::CorruptPage("page id outside the store"));
        }
        self.stats.page_faults += 1;
        let page = self.store.read(id);
        self.cache_insert(id.0, Frame { page, dirty: false });
        self.frames.get(&id.0).map(f).ok_or(StorageError::Internal("frame evicted during fault-in"))
    }

    /// Reads page `id` through the cache.
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R, StorageError> {
        self.with_frame(id, |frame| f(&frame.page))
    }

    /// Mutates page `id` through the cache, marking it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        self.with_frame(id, |frame| {
            frame.dirty = true;
            f(Arc::make_mut(&mut frame.page))
        })
    }

    /// Writes every dirty frame back to the store (frames stay cached, in
    /// the order they were).
    pub fn flush(&mut self) {
        // Collect dirty ids first; iteration cannot borrow mutably.
        let dirty: Vec<u32> =
            self.frames.iter().filter(|(_, fr)| fr.dirty).map(|(id, _)| *id).collect();
        for id in dirty {
            let Some(frame) = self.frames.peek_mut(&id) else { continue };
            frame.dirty = false;
            self.stats.write_backs += 1;
            self.store.write(PageId(id), Arc::clone(&frame.page));
        }
    }

    /// Flushes and empties the cache — the paper initialises every query
    /// with an empty cache.
    pub fn clear_cache(&mut self) {
        self.flush();
        self.frames.clear();
    }

    /// Pool counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Zeroes the pool counters (cache contents unchanged).
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    /// The underlying store (for size accounting).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Number of frames the pool may hold.
    pub fn capacity(&self) -> usize {
        self.frames.capacity()
    }
}

impl PagePool for BufferPool {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        Ok(BufferPool::alloc(self))
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError> {
        BufferPool::with_page(self, id, f)
    }

    fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        BufferPool::with_page_mut(self, id, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_reads_do_not_fault() {
        let mut pool = BufferPool::new(PageStore::new(), 4);
        let p = pool.alloc();
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
        let a = pool.alloc();
        pool.with_page_mut(a, |pg| pg.bytes_mut()[0] = 42).unwrap();
        // Fill the pool until `a` is evicted.
        let _b = pool.alloc();
        let _c = pool.alloc();
        assert!(pool.stats().write_backs >= 1);
        // Fault `a` back in: the write-back preserved the data.
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[0], 42)).unwrap();
        assert!(pool.stats().page_faults >= 1);
    }

    #[test]
    fn clear_cache_then_cold_reads_fault() {
        let mut pool = BufferPool::new(PageStore::new(), 8);
        let ids: Vec<PageId> = (0..4).map(|_| pool.alloc()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |pg| pg.bytes_mut()[0] = i as u8).unwrap();
        }
        pool.clear_cache();
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
        let a = pool.alloc();
        pool.with_page_mut(a, |pg| pg.bytes_mut()[1] = 9).unwrap();
        pool.flush();
        pool.reset_stats();
        pool.with_page(a, |pg| assert_eq!(pg.bytes()[1], 9)).unwrap();
        assert_eq!(pool.stats().page_faults, 0, "flush must not evict");
    }
}
