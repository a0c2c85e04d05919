//! The simulated disk: a growable array of pages.
//!
//! Pages are held by handle (`Arc<Page>`): a read hands out the stored
//! page; nothing is copied until someone writes. A buffer pool that faults
//! a page in shares it with the store, and the first mutation through the
//! pool copies it ([`Arc::make_mut`]); a write-back replaces the stored
//! handle, so whoever still holds the old one keeps reading the old bytes.
//! The store counts nothing: every read and fault is counted once, by the
//! pool ([`crate::IoTally`], [`crate::BufferStats`]).

use crate::page::{Page, PageId};
use std::sync::Arc;

/// An in-memory "disk" of 4 KB pages.
///
/// Reads take `&self`, so a concurrent buffer pool can fault pages in under
/// a shared lock; allocation and write-back need `&mut self` because they
/// grow or mutate the page array.
#[derive(Default)]
pub struct PageStore {
    pages: Vec<Arc<Page>>,
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
        id
    }

    /// Reads a page: a handle to the stored page, not a copy of it.
    /// `None` for a page id the store never allocated.
    pub fn read(&self, id: PageId) -> Option<Arc<Page>> {
        self.pages.get(id.index()).cloned()
    }

    /// Writes a page back: the store keeps the handle it is given.
    pub fn write(&mut self, id: PageId, page: Arc<Page>) {
        self.pages[id.index()] = page;
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
        let before = s.read(a).unwrap();
        let mut p = Arc::clone(&before);
        Arc::make_mut(&mut p).bytes_mut()[0] = 7;
        s.write(a, p);
        assert_eq!(s.read(a).unwrap().bytes()[0], 7);
        assert_eq!(before.bytes()[0], 0, "a handle read earlier keeps the bytes it read");
        assert_eq!(s.read(b).unwrap().bytes()[0], 0);
        assert!(Arc::ptr_eq(&s.read(b).unwrap(), &s.read(b).unwrap()), "a read copies nothing");
        assert!(s.read(PageId(2)).is_none(), "an unallocated id is no page");
    }
}
