//! The simulated disk: a growable array of pages with physical I/O
//! counters.
//!
//! Pages are held by handle (`Arc<Page>`): a read hands out the stored
//! page; nothing is copied until someone writes. A buffer pool that faults
//! a page in shares it with the store, and the first mutation through the
//! pool copies it ([`Arc::make_mut`]); a write-back replaces the stored
//! handle, so whoever still holds the old one keeps reading the old bytes.

use crate::page::{Page, PageId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative physical I/O counters of a [`PageStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages read from the store.
    pub reads: u64,
    /// Pages written to the store.
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
}

/// An in-memory "disk" of 4 KB pages.
///
/// Reads take `&self` (counters are atomic), so a concurrent buffer pool
/// can fault pages in under a shared lock; allocation and write-back still
/// need `&mut self` because they grow or mutate the page array.
#[derive(Default)]
pub struct PageStore {
    pages: Vec<Arc<Page>>,
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> Self {
        PageStore::default()
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes occupied on "disk".
    pub fn size_bytes(&self) -> usize {
        self.pages.len() * crate::page::PAGE_SIZE
    }

    /// Allocates a fresh zeroed page.
    pub fn alloc(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        self.pages.push(Arc::new(Page::zeroed()));
        self.allocations.fetch_add(1, Ordering::Relaxed); // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
        id
    }

    /// Reads a page (counted as one physical read): a handle to the stored
    /// page, not a copy of it.
    ///
    /// # Panics
    /// Panics on an unallocated page id — always a logic error here.
    pub fn read(&self, id: PageId) -> Arc<Page> {
        self.reads.fetch_add(1, Ordering::Relaxed); // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
        Arc::clone(&self.pages[id.index()])
    }

    /// Writes a page back (counted as one physical write): the store keeps
    /// the handle it is given.
    pub fn write(&mut self, id: PageId, page: Arc<Page>) {
        self.writes.fetch_add(1, Ordering::Relaxed); // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
        self.pages[id.index()] = page;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            reads: self.reads.load(Ordering::Relaxed), // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
            writes: self.writes.load(Ordering::Relaxed), // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
            allocations: self.allocations.load(Ordering::Relaxed), // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
        }
    }

    /// Zeroes the counters (page contents are retained).
    pub fn reset_stats(&mut self) {
        self.reads.store(0, Ordering::Relaxed); // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
        self.writes.store(0, Ordering::Relaxed); // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
        self.allocations.store(0, Ordering::Relaxed); // roadlint: relaxed-ok reason="independent diagnostic counter; never ordered against page data"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut s = PageStore::new();
        let a = s.alloc();
        let b = s.alloc();
        assert_eq!(s.num_pages(), 2);
        assert_ne!(a, b);
        let before = s.read(a);
        let mut p = Arc::clone(&before);
        Arc::make_mut(&mut p).bytes_mut()[0] = 7;
        s.write(a, p);
        assert_eq!(s.read(a).bytes()[0], 7);
        assert_eq!(before.bytes()[0], 0, "a handle read earlier keeps the bytes it read");
        assert_eq!(s.read(b).bytes()[0], 0);
        let st = s.stats();
        assert_eq!(st.allocations, 2);
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 3);
        assert!(Arc::ptr_eq(&s.read(b), &s.read(b)), "a read copies nothing");
    }

    #[test]
    fn reset_stats_keeps_data() {
        let mut s = PageStore::new();
        let a = s.alloc();
        let mut p = s.read(a);
        Arc::make_mut(&mut p).bytes_mut()[9] = 1;
        s.write(a, p);
        s.reset_stats();
        assert_eq!(s.stats(), StoreStats::default());
        assert_eq!(s.read(a).bytes()[9], 1);
    }
}
