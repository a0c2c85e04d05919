//! Per-query I/O tracking for the modelled comparison engines.
//!
//! NetExp, Euclidean and DistIdx model their disk layout as a set of
//! *namespaces* (node records, object records, R-tree nodes, ...), each
//! packed by a [`crate::ccam::NodeClustering`] or by plain arithmetic.
//! During a query the engine reports every page it touches; the
//! [`IoTracker`] maps the touches through a cold LRU buffer of the paper's
//! size and counts faults — the paper's "I/O" number. (ROAD itself is
//! measured through the real buffer pool, see [`crate::striped`].)

use crate::lru::LruCache;

/// Counts page faults of an access stream through a cold LRU buffer.
///
/// Pages from different structures live in different `namespace`s so their
/// ids cannot collide.
pub struct IoTracker {
    lru: LruCache<u64, ()>,
    logical: u64,
    faults: u64,
}

impl IoTracker {
    /// A tracker with the given buffer capacity (in pages).
    pub fn new(buffer_pages: usize) -> Self {
        IoTracker { lru: LruCache::new(buffer_pages), logical: 0, faults: 0 }
    }

    /// A tracker with the paper's 50-page buffer.
    pub fn paper_default() -> Self {
        IoTracker::new(crate::DEFAULT_BUFFER_PAGES)
    }

    /// Touches one page.
    #[inline]
    pub fn touch(&mut self, namespace: u32, page: u32) {
        self.logical += 1;
        let key = ((namespace as u64) << 32) | page as u64;
        if self.lru.get(&key).is_none() {
            self.faults += 1;
            self.lru.put(key, ());
        }
    }

    /// Touches `span` consecutive pages starting at `start`.
    #[inline]
    pub fn touch_span(&mut self, namespace: u32, start: u32, span: u32) {
        for p in start..start + span {
            self.touch(namespace, p);
        }
    }

    /// Page faults so far (the paper's I/O metric).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Logical page touches so far.
    pub fn logical(&self) -> u64 {
        self.logical
    }

    /// Empties the buffer and zeroes counters — "in every run, a query is
    /// initialized with an empty cache".
    pub fn reset(&mut self) {
        self.lru.clear();
        self.logical = 0;
        self.faults = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_faults_once_per_resident_page() {
        let mut t = IoTracker::new(10);
        t.touch(0, 1);
        t.touch(0, 1);
        t.touch(0, 2);
        assert_eq!(t.faults(), 2);
        assert_eq!(t.logical(), 3);
    }

    #[test]
    fn tracker_namespaces_do_not_collide() {
        let mut t = IoTracker::new(10);
        t.touch(0, 7);
        t.touch(1, 7);
        assert_eq!(t.faults(), 2);
    }

    #[test]
    fn tracker_evicts_lru() {
        let mut t = IoTracker::new(2);
        t.touch(0, 1);
        t.touch(0, 2);
        t.touch(0, 3); // evicts 1
        t.touch(0, 1); // faults again
        assert_eq!(t.faults(), 4);
    }

    #[test]
    fn tracker_reset_gives_cold_cache() {
        let mut t = IoTracker::new(4);
        t.touch_span(0, 0, 3);
        assert_eq!(t.faults(), 3);
        t.reset();
        assert_eq!(t.faults(), 0);
        t.touch(0, 0);
        assert_eq!(t.faults(), 1, "cache must be cold after reset");
    }
}
