//! A generic O(1) LRU cache.
//!
//! Backbone of the buffer pool and of the per-query I/O tracker. The
//! intrusive doubly-linked list lives in a slot arena indexed by `usize`,
//! so no per-entry allocation happens after warm-up. Slot values are kept
//! in `Option`s purely so eviction can move them out safely.

use road_network::hash::FastMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: Option<K>,
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU cache. Inserting into a full cache evicts the least
/// recently used entry and returns it.
pub struct LruCache<K: Hash + Eq + Clone, V> {
    map: FastMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: FastMap::default(),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.slots[i].value.as_mut()
    }

    /// Mutable access to `key`'s value without touching recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let &i = self.map.get(key)?;
        self.slots[i].value.as_mut()
    }

    /// Inserts or updates `key`, marking it most recently used. Returns the
    /// evicted `(key, value)` pair when the insert overflowed capacity.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = Some(value);
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        let evicted = if self.map.len() == self.capacity { self.pop_lru() } else { None };
        let slot = Slot { key: Some(key.clone()), value: Some(value), prev: NIL, next: NIL };
        let i = if let Some(free) = self.free.pop() {
            self.slots[free] = slot;
            free
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let i = self.tail;
        self.unlink(i);
        self.free.push(i);
        // A linked slot always has both halves; `zip` expresses that
        // without a panic path.
        let key = self.slots[i].key.take();
        let value = self.slots[i].value.take();
        let entry = key.zip(value);
        if let Some((key, _)) = &entry {
            self.map.remove(key);
        }
        entry
    }

    /// Drops every entry (capacity unchanged).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Iterates entries from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        LruIter { cache: self, cur: self.head }
    }
}

struct LruIter<'a, K: Hash + Eq + Clone, V> {
    cache: &'a LruCache<K, V>,
    cur: usize,
}

impl<'a, K: Hash + Eq + Clone, V> Iterator for LruIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let slot = &self.cache.slots[self.cur];
        self.cur = slot.next;
        slot.key.as_ref().zip(slot.value.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_eviction_order() {
        let mut c = LruCache::new(2);
        assert_eq!(c.put(1, "a"), None);
        assert_eq!(c.put(2, "b"), None);
        assert_eq!(c.get(&1), Some(&mut "a")); // 1 becomes MRU
        let evicted = c.put(3, "c");
        assert_eq!(evicted, Some((2, "b"))); // 2 was LRU
        assert_eq!(c.iter().map(|(&k, _)| k).collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn updating_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11); // refresh 1
        let evicted = c.put(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.peek_mut(&1), Some(&mut 11));
    }

    /// `peek_mut` reads and edits a value without refreshing it: the entry
    /// it touched is still the next one evicted.
    #[test]
    fn peek_mut_leaves_recency_alone() {
        let mut c = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        *c.peek_mut(&1).unwrap() += 1;
        assert_eq!(c.put(3, 30), Some((1, 11)));
        assert_eq!(c.peek_mut(&1), None);
    }

    #[test]
    fn evictions_reuse_slots() {
        let mut c = LruCache::new(3);
        for k in 0..10 {
            c.put(k, k);
        }
        assert_eq!(c.pop_lru(), Some((7, 7)));
        c.put(10, 10);
        assert_eq!(c.len(), 3);
        // arena should not have grown beyond capacity slots
        assert_eq!(c.slots.len(), 3);
    }

    #[test]
    fn pop_lru_empties_in_order() {
        let mut c = LruCache::new(3);
        c.put('a', 1);
        c.put('b', 2);
        c.put('c', 3);
        c.get(&'a');
        let drained: Vec<_> = std::iter::from_fn(|| c.pop_lru()).collect();
        assert_eq!(drained, vec![('b', 2), ('c', 3), ('a', 1)]);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_is_mru_first() {
        let mut c = LruCache::new(3);
        c.put(1, ());
        c.put(2, ());
        c.put(3, ());
        c.get(&2);
        let keys: Vec<i32> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3, 1]);
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.put(1, 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        c.put(2, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, ()>::new(0);
    }

    /// Model test against a naive reference implementation.
    #[test]
    fn matches_reference_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut lru = LruCache::new(8);
        let mut model: Vec<(u32, u32)> = Vec::new(); // MRU at front
        for step in 0..5_000u32 {
            let key = rng.random_range(0..24u32);
            match rng.random_range(0..3) {
                0 => {
                    // put
                    let evicted = lru.put(key, step);
                    if let Some(pos) = model.iter().position(|&(k, _)| k == key) {
                        model.remove(pos);
                        assert!(evicted.is_none());
                    } else if model.len() == 8 {
                        let expect = model.pop().unwrap();
                        assert_eq!(evicted, Some(expect));
                    } else {
                        assert!(evicted.is_none());
                    }
                    model.insert(0, (key, step));
                }
                1 => {
                    // get
                    let got = lru.get(&key).copied();
                    let pos = model.iter().position(|&(k, _)| k == key);
                    assert_eq!(got, pos.map(|p| model[p].1));
                    if let Some(p) = pos {
                        let e = model.remove(p);
                        model.insert(0, e);
                    }
                }
                _ => {
                    // pop the least recently used
                    assert_eq!(lru.pop_lru(), model.pop());
                }
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}
