//! Fast hashing for integer-keyed maps, and the workspace's only hash
//! containers.
//!
//! SipHash (the std default) is overkill for dense `u32` ids that cannot be
//! attacker-controlled; the multiply-xor scheme below (the widely used
//! "Fx" construction from the Firefox/rustc codebases) is several times
//! faster on the small keys that dominate graph workloads. We implement it
//! locally instead of pulling in `rustc-hash`, keeping the offline
//! dependency set minimal.
//!
//! [`FastMap`] and [`FastSet`] wrap std's `HashMap` / `HashSet` (which
//! `clippy.toml` disallows everywhere else) and leave out every unordered
//! walk: no `iter`, `keys`, `values`, `drain` or `IntoIterator`. A hash
//! order cannot reach a serialized byte or a float sum by accident, then.
//! A walk is either [`FastMap::sorted`] / [`FastMap::into_sorted`] /
//! [`FastSet::sorted`], or the one named hash-order walk,
//! [`FastMap::hash_order`] / [`FastSet::hash_order`], which `clippy.toml`
//! disallows too: each caller carries an `#[expect]` saying why the order
//! it sees is the one it needs.
//!
//! ```compile_fail
//! let map: road_network::hash::FastMap<u32, f64> = Default::default();
//! for _ in &map {}
//! ```
//! ```compile_fail
//! let map: road_network::hash::FastMap<u32, f64> = Default::default();
//! let _ = map.iter();
//! ```
//! ```compile_fail
//! let map: road_network::hash::FastMap<u32, f64> = Default::default();
//! let _ = map.keys();
//! ```
//! ```compile_fail
//! let map: road_network::hash::FastMap<u32, f64> = Default::default();
//! let _ = map.values();
//! ```
//! ```compile_fail
//! let mut map: road_network::hash::FastMap<u32, f64> = Default::default();
//! let _ = map.drain();
//! ```
//! ```compile_fail
//! let map: road_network::hash::FastMap<u32, f64> = Default::default();
//! let _ = map.into_iter();
//! ```
//! ```compile_fail
//! let map: road_network::hash::FastMap<u32, f64> = Default::default();
//! let _ = map.values().sum::<f64>();
//! ```
//! ```compile_fail
//! let set: road_network::hash::FastSet<u32> = Default::default();
//! for _ in &set {}
//! ```
//! ```compile_fail
//! let set: road_network::hash::FastSet<u32> = Default::default();
//! let _ = set.iter();
//! ```
//! ```compile_fail
//! let mut set: road_network::hash::FastSet<u32> = Default::default();
//! let _ = set.drain();
//! ```
//! ```compile_fail
//! let set: road_network::hash::FastSet<u32> = Default::default();
//! let _ = set.into_iter();
//! ```
//!
//! What they do keep, on the same bindings:
//!
//! ```
//! use road_network::hash::{FastMap, FastSet};
//! let mut map: FastMap<u32, f64> = Default::default();
//! map.insert(2, 0.5);
//! *map.entry(1).or_insert(0.0) += 1.0;
//! assert_eq!(map.get(&1), Some(&1.0));
//! let total: f64 = map.sorted().into_iter().map(|(_, &w)| w).sum();
//! assert_eq!(total, 1.5);
//! let set: FastSet<u32> = [3, 1, 2].into_iter().collect();
//! assert!(set.contains(&2));
//! assert_eq!(set.sorted(), [&1, &2, &3]);
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the home of the newtypes that stand in for std's hash containers"
)]

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

type FxBuild = BuildHasherDefault<FxHasher>;

/// A hash map keyed with the fast hasher, without unordered iteration.
#[repr(transparent)]
#[derive(Clone)]
pub struct FastMap<K, V>(HashMap<K, V, FxBuild>);

/// A hash set keyed with the fast hasher, without unordered iteration.
#[repr(transparent)]
#[derive(Clone)]
pub struct FastSet<T>(HashSet<T, FxBuild>);

impl<K, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap(HashMap::default())
    }
}

impl<K, V> FastMap<K, V> {
    /// An empty map with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        FastMap(HashMap::with_capacity_and_hasher(cap, FxBuild::default()))
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K: Hash + Eq, V> FastMap<K, V> {
    #[inline]
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(key)
    }

    #[inline]
    pub fn get_mut<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(key)
    }

    #[inline]
    pub fn contains_key<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(key)
    }

    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    #[inline]
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(key)
    }

    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// The entries in the map's bucket order: an order the hasher, the
    /// capacity and the insertion history decide. Disallowed in
    /// `clippy.toml`; a caller says in an `#[expect]` why that order is
    /// the one it needs.
    pub fn hash_order(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter()
    }

    /// The entries by ascending key.
    pub fn sorted(&self) -> Vec<(&K, &V)>
    where
        K: Ord,
    {
        let mut out: Vec<(&K, &V)> = self.0.iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// The entries by ascending key, by value.
    pub fn into_sorted(self) -> Vec<(K, V)>
    where
        K: Ord,
    {
        let mut out: Vec<(K, V)> = self.0.into_iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl<K: Hash + Eq + Borrow<Q>, Q: Hash + Eq + ?Sized, V> std::ops::Index<&Q> for FastMap<K, V> {
    type Output = V;

    /// # Panics
    /// Panics when `key` is absent, as std's maps do.
    #[inline]
    fn index(&self, key: &Q) -> &V {
        &self.0[key]
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for FastMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        FastMap(HashMap::from_iter(iter))
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for FastMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<T> Default for FastSet<T> {
    fn default() -> Self {
        FastSet(HashSet::default())
    }
}

impl<T> FastSet<T> {
    /// An empty set with room for `cap` members.
    pub fn with_capacity(cap: usize) -> Self {
        FastSet(HashSet::with_capacity_and_hasher(cap, FxBuild::default()))
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<T: Hash + Eq> FastSet<T> {
    #[inline]
    pub fn contains<Q: Hash + Eq + ?Sized>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.contains(value)
    }

    /// `true` when `value` was not a member yet.
    #[inline]
    pub fn insert(&mut self, value: T) -> bool {
        self.0.insert(value)
    }

    /// `true` when `value` was a member.
    #[inline]
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.remove(value)
    }

    /// The members in the set's bucket order; see [`FastMap::hash_order`].
    pub fn hash_order(&self) -> impl Iterator<Item = &T> {
        self.0.iter()
    }

    /// The members, ascending.
    pub fn sorted(&self) -> Vec<&T>
    where
        T: Ord,
    {
        let mut out: Vec<&T> = self.0.iter().collect();
        out.sort_unstable();
        out
    }
}

impl<T: Hash + Eq> FromIterator<T> for FastSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        FastSet(HashSet::from_iter(iter))
    }
}

impl<T: Hash + Eq> Extend<T> for FastSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx multiply-xor hasher.
#[derive(Clone)]
pub struct FxHasher {
    hash: u64,
}

/// Initial hasher state. Normally 0 (the classic Fx construction, fully
/// deterministic across processes). Under the `shuffle-hasher` test
/// feature it is drawn once per process from the OS (via std's
/// `RandomState`), which shuffles every `FastMap`/`FastSet` bucket order:
/// CI re-runs the byte-equality proptests under it, so a hash-order
/// dependence that a `hash_order` caller did not own up to breaks the
/// build instead of shipping.
#[cfg(feature = "shuffle-hasher")]
fn initial_state() -> u64 {
    use std::hash::BuildHasher;
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| std::collections::hash_map::RandomState::new().build_hasher().finish())
}

#[cfg(not(feature = "shuffle-hasher"))]
fn initial_state() -> u64 {
    0
}

impl Default for FxHasher {
    fn default() -> FxHasher {
        FxHasher { hash: initial_state() }
    }
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "hashing folds the bytes it is handed in 8-byte words; nothing read here is a count"
    )]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works_like_hashmap() {
        let mut m: FastMap<u32, &str> = FastMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn sorted_walks_ascend_whatever_the_insert_order() {
        let mut m: FastMap<u32, char> = FastMap::with_capacity(4);
        m.extend([(30, 'c'), (10, 'a'), (20, 'b')]);
        assert_eq!(m.sorted(), [(&10, &'a'), (&20, &'b'), (&30, &'c')]);
        assert_eq!(m.into_sorted(), [(10, 'a'), (20, 'b'), (30, 'c')]);
        let mut s: FastSet<u32> = [7, 3, 5].into_iter().collect();
        assert!(s.insert(1) && !s.insert(3) && s.remove(&5));
        assert_eq!(s.sorted(), [&1, &3, &7]);
    }

    /// `#[repr(transparent)]`: a shard of the object directory is the size
    /// it was as a bare std map, so no copy-on-write chunk grows.
    #[test]
    fn newtypes_are_the_size_of_the_std_containers() {
        use std::mem::size_of;
        assert_eq!(size_of::<FastMap<u64, u64>>(), size_of::<HashMap<u64, u64, FxBuild>>());
        assert_eq!(size_of::<FastSet<u32>>(), size_of::<HashSet<u32, FxBuild>>());
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        // Not a rigorous test of hash quality, just a guard against a
        // catastrophic implementation bug (e.g. hashing everything to 0).
        let mut seen = FastSet::default();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert!(seen.len() > 9_990);
    }

    #[test]
    fn initial_state_is_stable_within_a_process() {
        let a = FxHasher::default().finish();
        let b = FxHasher::default().finish();
        assert_eq!(a, b);
        // Without the shuffle feature the construction is the classic
        // zero-seeded Fx, deterministic across processes and platforms.
        #[cfg(not(feature = "shuffle-hasher"))]
        assert_eq!(a, 0);
    }

    #[test]
    fn byte_stream_hashing_handles_remainders() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
