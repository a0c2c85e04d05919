//! A paged B+-tree with `u64` keys and `u64` values.
//!
//! Both ROAD components are B+-tree-indexed in the paper (Section 3.4):
//! Route Overlay "nodes are indexed by a B+-tree with unique node IDs as
//! search keys", and the Association Directory "also adopts B+-tree with
//! unique node IDs or Rnet IDs as the search key". Values here are opaque
//! `u64` record pointers (page id + offset, or an inline small payload).
//!
//! Every node occupies one 4 KB page and is read and written through a
//! [`PagePool`] — the single-owner [`crate::BufferPool`] handle, the
//! [`crate::OwnedPool`] view an engine builds its trees through, or a
//! query's read-only view of the shared pool's pinned pages — so tree
//! operations produce realistic page-fault patterns. Branching
//! factors are configurable (tests use tiny fanouts to force deep trees);
//! the defaults fill a page.
//!
//! A tree is filled by inserts while an engine lays its pages out, and is
//! only read after that: nothing removes an entry or scans a key range, so
//! the tree has neither, and a node page is never freed.
//!
//! Every operation is fallible: the pool can report a poisoned lock, and a
//! node read from a page whose header contradicts the page format (an
//! entry count larger than the page holds, an unknown tag) surfaces as
//! [`StorageError::CorruptPage`] instead of sizing an allocation from
//! hostile bytes or indexing out of range.
//!
//! Two read paths share that header check. Insert — build-time work —
//! decodes a node into owned vectors, edits them and encodes the node
//! back. [`BPlusTree::get`], which a disk-resident query calls once per
//! settled node and once per Rnet it consults, never decodes: it takes one page access per level and binary-searches the
//! keys where they lie encoded in the page (8 bytes apart in an internal
//! node, 16 in a leaf), allocating nothing. It touches the pages the
//! decoded descent touched, in the same order, so page-access and fault
//! counts are those of the textbook descent.
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

use crate::buffer::PagePool;
use crate::decode::{Cursor, Table};
use crate::error::StorageError;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Default maximum entries per leaf: `(4096 - 8) / 16`.
pub const DEFAULT_LEAF_CAP: usize = 255;
/// Default maximum keys per internal node (fits comfortably in a page).
pub const DEFAULT_INT_CAP: usize = 255;

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// A paged B+-tree.
pub struct BPlusTree {
    root: PageId,
    height: u32, // 0 = root is a leaf
    len: u64,
    leaf_cap: usize,
    int_cap: usize,
    live_pages: usize,
}

/// Decoded in-memory form of one tree node.
#[derive(Debug, Clone)]
struct BNode {
    leaf: bool,
    keys: Vec<u64>,
    vals: Vec<u64>,     // leaf only
    children: Vec<u32>, // internal only
}

/// A node as its page holds it, header checked: a leaf's `(key, value)`
/// pairs, or an internal node's keys and the children around them.
enum NodeView<'a> {
    Leaf(Table<'a>),
    Internal { keys: Table<'a>, children: Table<'a> },
}

/// Reads a node's header off its page and lays its entry tables over the
/// bytes after it. Bytes 0, 2 and 3 of the 8-byte header hold the tag and
/// the count; the rest are zero. The count comes off raw page bytes, so
/// the cursor checks it against what the page can physically hold, and an
/// internal node's also against the tree's fanout, *before* anyone forms an
/// offset or sizes an allocation from it — the one gate both the in-place
/// lookup and [`BNode::decode`] go through. An internal node keeps its
/// keys at offset 8 and its children at `8 + int_cap * 8`.
fn node_view(b: &[u8; PAGE_SIZE], int_cap: usize) -> Result<NodeView<'_>, StorageError> {
    let mut c = Cursor::new(b);
    let tag = c.u8()?;
    c.take(1)?;
    match tag {
        TAG_LEAF => {
            let too_many = StorageError::CorruptPage("leaf entry count exceeds page capacity");
            let count = c.count_u16(16).map_err(|_| too_many)?;
            c.take(4)?;
            Ok(NodeView::Leaf(c.table_of(count, 16)?))
        }
        TAG_INTERNAL => {
            let too_many = StorageError::CorruptPage("internal key count exceeds fanout");
            let count = c.count_u16(8).map_err(|_| too_many)?;
            if count > int_cap {
                return Err(too_many);
            }
            c.take(4)?;
            let keys = c.table_of(count, 8)?;
            c.take((int_cap - count) * 8)?;
            Ok(NodeView::Internal { keys, children: c.table_of(count + 1, 4)? })
        }
        _ => Err(StorageError::CorruptPage("unknown B+-tree node tag")),
    }
}

impl BNode {
    fn new_leaf() -> Self {
        BNode { leaf: true, keys: Vec::new(), vals: Vec::new(), children: Vec::new() }
    }

    fn new_internal() -> Self {
        BNode { leaf: false, keys: Vec::new(), vals: Vec::new(), children: Vec::new() }
    }

    /// Decodes one tree node from its page into owned vectors — the
    /// build-time form insert works on. The header is validated by
    /// [`node_view`] *before* the entry count sizes any allocation or
    /// offset arithmetic.
    fn decode(page: &Page, int_cap: usize) -> Result<Self, StorageError> {
        match node_view(page.bytes(), int_cap)? {
            NodeView::Leaf(entries) => {
                let keys = (0..entries.len()).map(|i| entries.u64(i, 0)).collect();
                let vals = (0..entries.len()).map(|i| entries.u64(i, 8)).collect();
                Ok(BNode { leaf: true, keys, vals, children: Vec::new() })
            }
            NodeView::Internal { keys, children } => Ok(BNode {
                leaf: false,
                keys: (0..keys.len()).map(|i| keys.u64(i, 0)).collect(),
                vals: Vec::new(),
                children: (0..children.len()).map(|i| children.u32(i, 0)).collect(),
            }),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "write path encodes nodes the tree built itself; counts are bounded by the fanout invariant"
    )]
    fn encode(&self, page: &mut Page, int_cap: usize) {
        let b = page.bytes_mut();
        b[0] = if self.leaf { TAG_LEAF } else { TAG_INTERNAL };
        b[1] = 0;
        let count = self.keys.len() as u16;
        b[2..4].copy_from_slice(&count.to_le_bytes());
        if self.leaf {
            for (i, (&k, &v)) in self.keys.iter().zip(&self.vals).enumerate() {
                let off = 8 + i * 16;
                b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                b[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
            }
        } else {
            for (i, &k) in self.keys.iter().enumerate() {
                let off = 8 + i * 8;
                b[off..off + 8].copy_from_slice(&k.to_le_bytes());
            }
            let child_base = 8 + int_cap * 8;
            for (i, &c) in self.children.iter().enumerate() {
                let off = child_base + i * 4;
                b[off..off + 4].copy_from_slice(&c.to_le_bytes());
            }
        }
    }
}

impl BPlusTree {
    /// Creates an empty tree with default (page-filling) fanouts.
    pub fn new(pool: &mut impl PagePool) -> Result<Self, StorageError> {
        Self::with_caps(pool, DEFAULT_LEAF_CAP, DEFAULT_INT_CAP)
    }

    /// Creates an empty tree with explicit fanouts (tests use small ones).
    ///
    /// # Panics
    /// Panics on fanouts that are too small to split (< 3) or that would
    /// not fit a page.
    #[expect(
        clippy::disallowed_macros,
        reason = "construction-time configuration check, not a serving path"
    )]
    pub fn with_caps(
        pool: &mut impl PagePool,
        leaf_cap: usize,
        int_cap: usize,
    ) -> Result<Self, StorageError> {
        assert!(leaf_cap >= 3 && int_cap >= 3, "B+-tree fanout too small");
        assert!(8 + leaf_cap * 16 <= PAGE_SIZE, "leaf fanout does not fit a page");
        assert!(
            8 + int_cap * 8 + (int_cap + 1) * 4 <= PAGE_SIZE,
            "internal fanout does not fit a page"
        );
        let root = pool.alloc()?;
        let tree = BPlusTree { root, height: 0, len: 0, leaf_cap, int_cap, live_pages: 1 };
        tree.write_node(pool, root, &BNode::new_leaf())?;
        Ok(tree)
    }

    fn read_node(&self, pool: &mut impl PagePool, id: PageId) -> Result<BNode, StorageError> {
        let cap = self.int_cap;
        pool.with_page(id, |p| BNode::decode(p, cap))?
    }

    fn write_node(
        &self,
        pool: &mut impl PagePool,
        id: PageId,
        node: &BNode,
    ) -> Result<(), StorageError> {
        let cap = self.int_cap;
        pool.with_page_mut(id, |p| node.encode(p, cap))
    }

    fn alloc_node(&mut self, pool: &mut impl PagePool) -> Result<PageId, StorageError> {
        self.live_pages += 1;
        pool.alloc()
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages currently owned by the tree (its on-disk size in pages).
    pub fn num_pages(&self) -> usize {
        self.live_pages
    }

    /// On-disk size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.live_pages * PAGE_SIZE
    }

    /// Tree height (0 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The page holding the root node, where every descent starts.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Inserts `key -> val`; returns the previous value if the key existed.
    pub fn insert(
        &mut self,
        pool: &mut impl PagePool,
        key: u64,
        val: u64,
    ) -> Result<Option<u64>, StorageError> {
        // Preemptive root split keeps the downward pass single-pass.
        let root_node = self.read_node(pool, self.root)?;
        if self.is_full(&root_node) {
            let old_root = self.root;
            let new_root_page = self.alloc_node(pool)?;
            let mut new_root = BNode::new_internal();
            new_root.children.push(old_root.0);
            self.write_node(pool, new_root_page, &new_root)?;
            self.split_child(pool, new_root_page, 0)?;
            self.root = new_root_page;
            self.height += 1;
        }
        self.insert_nonfull(pool, self.root, self.height, key, val)
    }

    fn is_full(&self, node: &BNode) -> bool {
        if node.leaf {
            node.keys.len() >= self.leaf_cap
        } else {
            node.keys.len() >= self.int_cap
        }
    }

    /// Splits the full child at `child_idx` of the internal node `parent`.
    #[expect(
        clippy::indexing_slicing,
        reason = "build/maintenance write path over nodes the tree built; indices bounded by the fanout invariant"
    )]
    fn split_child(
        &mut self,
        pool: &mut impl PagePool,
        parent_page: PageId,
        child_idx: usize,
    ) -> Result<(), StorageError> {
        let mut parent = self.read_node(pool, parent_page)?;
        let child_page = PageId(parent.children[child_idx]);
        let mut child = self.read_node(pool, child_page)?;
        let right_page = self.alloc_node(pool)?;

        if child.leaf {
            let mid = child.keys.len() / 2;
            let mut right = BNode::new_leaf();
            right.keys = child.keys.split_off(mid);
            right.vals = child.vals.split_off(mid);
            let separator = right.keys[0];
            parent.keys.insert(child_idx, separator);
            parent.children.insert(child_idx + 1, right_page.0);
            self.write_node(pool, right_page, &right)?;
        } else {
            let mid = child.keys.len() / 2;
            let mut right = BNode::new_internal();
            right.keys = child.keys.split_off(mid + 1);
            let separator = child
                .keys
                .pop()
                .ok_or(StorageError::Internal("split of an internal node without keys"))?;
            right.children = child.children.split_off(mid + 1);
            parent.keys.insert(child_idx, separator);
            parent.children.insert(child_idx + 1, right_page.0);
            self.write_node(pool, right_page, &right)?;
        }
        self.write_node(pool, child_page, &child)?;
        self.write_node(pool, parent_page, &parent)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "build/maintenance write path; indices bounded by the preemptive-split invariant"
    )]
    fn insert_nonfull(
        &mut self,
        pool: &mut impl PagePool,
        page: PageId,
        level: u32,
        key: u64,
        val: u64,
    ) -> Result<Option<u64>, StorageError> {
        if level == 0 {
            let mut leaf = self.read_node(pool, page)?;
            let idx = leaf.keys.partition_point(|&k| k < key);
            if idx < leaf.keys.len() && leaf.keys[idx] == key {
                let old = leaf.vals[idx];
                leaf.vals[idx] = val;
                self.write_node(pool, page, &leaf)?;
                return Ok(Some(old));
            }
            leaf.keys.insert(idx, key);
            leaf.vals.insert(idx, val);
            self.write_node(pool, page, &leaf)?;
            self.len += 1;
            return Ok(None);
        }
        let node = self.read_node(pool, page)?;
        let mut idx = node.keys.partition_point(|&k| k <= key);
        let child_page = PageId(node.children[idx]);
        let child = self.read_node(pool, child_page)?;
        if self.is_full(&child) {
            self.split_child(pool, page, idx)?;
            // Re-read: the separator decides which half we descend into.
            let node = self.read_node(pool, page)?;
            if key >= node.keys[idx] {
                idx += 1;
            }
            let child_page = PageId(node.children[idx]);
            return self.insert_nonfull(pool, child_page, level - 1, key, val);
        }
        self.insert_nonfull(pool, child_page, level - 1, key, val)
    }
}

// The serving read path. A directory lookup runs once per settled node and
// once per consulted Rnet of every paged query, so it searches the encoded
// page in place — no `BNode`, no allocation; `road_core`'s `warm_alloc.rs`
// counts a warm paged query's allocations, these lookups included: zero.

/// `partition_point` over the keys of a node's entry table (the key is
/// each entry's first 8 bytes): the index of the first key failing `pred`.
fn key_partition_point(keys: &Table, pred: impl Fn(u64) -> bool) -> usize {
    let (mut lo, mut hi) = (0, keys.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(keys.u64(mid, 0)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The child of the internal node encoded in `b` that covers `key`.
fn child_covering(b: &[u8; PAGE_SIZE], int_cap: usize, key: u64) -> Result<PageId, StorageError> {
    let NodeView::Internal { keys, children } = node_view(b, int_cap)? else {
        return Err(StorageError::CorruptPage("leaf node above the tree's leaf level"));
    };
    // `idx <= keys.len()`, and there is one child more than keys.
    let idx = key_partition_point(&keys, |k| k <= key);
    Ok(PageId(children.u32(idx, 0)))
}

/// The value stored under `key` in the leaf encoded in `b`.
fn value_in_leaf(
    b: &[u8; PAGE_SIZE],
    int_cap: usize,
    key: u64,
) -> Result<Option<u64>, StorageError> {
    let NodeView::Leaf(entries) = node_view(b, int_cap)? else {
        return Err(StorageError::CorruptPage("internal node at the tree's leaf level"));
    };
    let idx = key_partition_point(&entries, |k| k < key);
    Ok((idx < entries.len() && entries.u64(idx, 0) == key).then(|| entries.u64(idx, 8)))
}

impl BPlusTree {
    /// Looks up `key`: one page access per level, `height + 1` in all, each
    /// a binary search over the keys as they lie encoded in the page. A
    /// corrupt node — a count the page cannot hold, an unknown tag, a node
    /// of the wrong kind for its depth — is an `Err`, never an out-of-range
    /// index.
    pub fn get(&self, pool: &mut impl PagePool, key: u64) -> Result<Option<u64>, StorageError> {
        let int_cap = self.int_cap;
        let mut page = self.root;
        for _ in 0..self.height {
            page = pool.with_page(page, |p| child_covering(p.bytes(), int_cap, key))??;
        }
        pool.with_page(page, |p| value_in_leaf(p.bytes(), int_cap, key))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::store::PageStore;
    use crate::striped::{IoTally, StripedBufferPool};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn pool() -> BufferPool {
        BufferPool::new(PageStore::new(), 64)
    }

    /// Holds `t` to `model` over `universe`: `get` on every present and
    /// absent key, and `len`. Then the page count: the tree is the pool's
    /// only user, so the next page the pool allocates is the one after the
    /// tree's last.
    fn assert_matches_model(
        t: &BPlusTree,
        p: &mut impl PagePool,
        model: &std::collections::BTreeMap<u64, u64>,
        universe: impl IntoIterator<Item = u64>,
    ) {
        for key in universe {
            assert_eq!(t.get(p, key).unwrap(), model.get(&key).copied(), "key {key}");
        }
        assert_eq!(t.len() as usize, model.len());
        assert_eq!(p.alloc().unwrap().index(), t.num_pages(), "pages the tree owns");
    }

    #[test]
    fn empty_tree() {
        let mut p = pool();
        let t = BPlusTree::new(&mut p).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(&mut p, 7).unwrap(), None);
        assert_eq!(t.height(), 0);
        assert_eq!(t.num_pages(), 1);
        assert_matches_model(&t, &mut p, &Default::default(), [0, 7, u64::MAX]);
    }

    #[test]
    fn insert_get_update() {
        let mut p = pool();
        let mut t = BPlusTree::new(&mut p).unwrap();
        assert_eq!(t.insert(&mut p, 5, 50).unwrap(), None);
        assert_eq!(t.insert(&mut p, 3, 30).unwrap(), None);
        assert_eq!(t.insert(&mut p, 9, 90).unwrap(), None);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&mut p, 3).unwrap(), Some(30));
        assert_eq!(t.insert(&mut p, 3, 31).unwrap(), Some(30));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&mut p, 3).unwrap(), Some(31));
        assert_eq!(t.get(&mut p, 4).unwrap(), None);
    }

    #[test]
    fn splits_build_height_with_tiny_fanout() {
        let mut p = pool();
        let mut t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for k in 0..200u64 {
            t.insert(&mut p, k, k * 10).unwrap();
            model.insert(k, k * 10);
        }
        assert!(t.height() >= 3, "height = {}", t.height());
        assert_matches_model(&t, &mut p, &model, (0..=210).chain([u64::MAX]));
    }

    #[test]
    fn reverse_and_shuffled_insertions() {
        let model: std::collections::BTreeMap<u64, u64> = (0..100).map(|k| (k * 2, k)).collect();
        let mut p = pool();
        let mut t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        for (&k, &v) in model.iter().rev() {
            t.insert(&mut p, k, v).unwrap();
        }
        assert_matches_model(&t, &mut p, &model, 0..=201);
        let mut p2 = pool();
        let mut t2 = BPlusTree::with_caps(&mut p2, 4, 4).unwrap();
        let mut keys: Vec<u64> = model.keys().copied().collect();
        use rand::seq::SliceRandom;
        keys.shuffle(&mut StdRng::seed_from_u64(3));
        for &k in &keys {
            t2.insert(&mut p2, k, model[&k]).unwrap();
        }
        assert_matches_model(&t2, &mut p2, &model, 0..=201);
    }

    #[test]
    fn model_test_against_btreemap() {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut p = pool();
        let mut t = BPlusTree::with_caps(&mut p, 4, 5).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..4000 {
            let key = rng.random_range(0..500u64);
            if rng.random_range(0..2) == 0 {
                let val = rng.random_range(0..1_000_000u64);
                assert_eq!(t.insert(&mut p, key, val).unwrap(), model.insert(key, val));
            } else {
                assert_eq!(t.get(&mut p, key).unwrap(), model.get(&key).copied());
            }
            assert_eq!(t.len() as usize, model.len());
        }
        assert_matches_model(&t, &mut p, &model, 0..=500);
    }

    #[test]
    fn tree_survives_cold_cache() {
        let mut p = BufferPool::new(PageStore::new(), 8); // tiny pool
        let mut t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        for k in 0..500u64 {
            t.insert(&mut p, k, !k).unwrap();
        }
        p.clear_cache().unwrap();
        for k in (0..500u64).step_by(17) {
            assert_eq!(t.get(&mut p, k).unwrap(), Some(!k));
        }
        assert!(p.stats().page_faults > 0);
    }

    /// A split allocates one page and a root split one more, at most once
    /// a level per insert: the page count grows with the tree, and is the
    /// count of pages the pool handed it.
    #[test]
    fn page_accounting_tracks_live_pages() {
        let mut p = pool();
        let mut t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        let mut pages = t.num_pages();
        for k in 0..64u64 {
            t.insert(&mut p, k, k).unwrap();
            assert!(t.num_pages() >= pages);
            assert!(t.num_pages() <= pages + t.height() as usize + 1);
            pages = t.num_pages();
        }
        assert!(pages > 10);
        assert_eq!(p.alloc().unwrap().index(), pages);
    }

    /// A fanout below three cannot split a node into two non-empty halves,
    /// and one too wide for a page cannot be encoded: `with_caps` refuses
    /// both.
    #[test]
    fn fanouts_that_cannot_split_or_fit_a_page_are_refused() {
        for (leaf_cap, int_cap, msg) in [
            (2, 4, "B+-tree fanout too small"),
            (4, 2, "B+-tree fanout too small"),
            (256, 4, "leaf fanout does not fit a page"),
            (4, 400, "internal fanout does not fit a page"),
        ] {
            let payload = std::panic::catch_unwind(|| {
                BPlusTree::with_caps(&mut pool(), leaf_cap, int_cap).map(|_| ())
            })
            .expect_err("with_caps accepted the fanouts");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&msg), "caps {leaf_cap}/{int_cap}");
        }
    }

    /// `(height, pages)` at the default fanouts for the two key streams the
    /// engines and roadbench's `storage.bptree` probe insert: ascending ids,
    /// and ids scattered by an odd multiplier. A change to how a node splits
    /// or how pages are allocated moves them.
    #[test]
    fn default_fanouts_build_the_recorded_shapes() {
        for (scattered, shape) in [(false, (1, 158)), (true, (1, 129))] {
            let mut p = pool();
            let mut t = BPlusTree::new(&mut p).unwrap();
            for k in 0..20_000u64 {
                let key = if scattered { k.wrapping_mul(0x9E37_79B9_7F4A_7C15) } else { k };
                t.insert(&mut p, key, k).unwrap();
            }
            assert_eq!((t.height(), t.num_pages()), shape, "scattered: {scattered}");
            assert_eq!(t.size_bytes(), t.num_pages() * PAGE_SIZE);
        }
    }

    /// Of a node's 8-byte header only the tag (byte 0) and the entry count
    /// (bytes 2-3) carry anything; the other five bytes are zero on every
    /// page of the tree.
    #[test]
    fn header_padding_is_zero_on_every_node() {
        let mut p = pool();
        let mut t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        for k in 0..200u64 {
            t.insert(&mut p, k * 7 % 200, k).unwrap();
        }
        assert!(t.height() >= 2);
        for i in 0..t.num_pages() {
            let pad = p
                .with_page(PageId(i as u32), |pg| {
                    let b = pg.bytes();
                    [b[1], b[4], b[5], b[6], b[7]]
                })
                .unwrap();
            assert_eq!(pad, [0; 5], "page {i}");
        }
    }

    /// A page whose header claims more entries than fit the page must come
    /// back as `CorruptPage`, not as a hostile-sized allocation or an
    /// out-of-range read.
    #[test]
    fn corrupt_counts_surface_as_errors() {
        let mut p = pool();
        let t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        // Overwrite the root leaf's count with an impossible value.
        let root = t.root;
        p.with_page_mut(root, |pg| {
            pg.bytes_mut()[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        })
        .unwrap();
        assert_eq!(
            t.get(&mut p, 1),
            Err(StorageError::CorruptPage("leaf entry count exceeds page capacity"))
        );
        // An internal node claiming more keys than its fanout: tag byte 1,
        // count larger than int_cap but small enough to "fit" a page.
        p.with_page_mut(root, |pg| {
            let b = pg.bytes_mut();
            b[0] = 1; // TAG_INTERNAL
            b[2..4].copy_from_slice(&100u16.to_le_bytes());
        })
        .unwrap();
        assert_eq!(
            t.get(&mut p, 1),
            Err(StorageError::CorruptPage("internal key count exceeds fanout"))
        );
        // Unknown tag.
        p.with_page_mut(root, |pg| pg.bytes_mut()[0] = 9).unwrap();
        assert_eq!(t.get(&mut p, 1), Err(StorageError::CorruptPage("unknown B+-tree node tag")));
    }

    impl BPlusTree {
        /// The lookup `get` replaced — decode every node on the path into a
        /// `BNode` and search its vectors — kept as the reference the
        /// in-place descent is held to.
        fn get_decoded(
            &self,
            pool: &mut impl PagePool,
            key: u64,
        ) -> Result<Option<u64>, StorageError> {
            let mut page = self.root;
            for _ in 0..self.height {
                let node = self.read_node(pool, page)?;
                let idx = node.keys.partition_point(|&k| k <= key);
                let child = node
                    .children
                    .get(idx)
                    .copied()
                    .ok_or(StorageError::CorruptPage("internal node missing a child slot"))?;
                page = PageId(child);
            }
            let leaf = self.read_node(pool, page)?;
            let idx = leaf.keys.partition_point(|&k| k < key);
            Ok(match (leaf.keys.get(idx), leaf.vals.get(idx)) {
                (Some(&k), Some(&v)) if k == key => Some(v),
                _ => None,
            })
        }
    }

    /// Histories draw keys from `1..=KEYS` and store them tripled, so every
    /// tree has absent keys between present ones, below its smallest and
    /// above its largest.
    const KEYS: u64 = 1000;
    const FANOUTS: [usize; 4] = [3, 4, 5, 255];

    /// Inserts `keys` into a fresh tree and holds `get` to `get_decoded` on
    /// every key the history could have touched and their neighbours —
    /// through whatever the 8-frame pool happens to hold, and straight
    /// after a `clear_cache` — and to `height + 1` page accesses a lookup.
    fn in_place_get_matches_decoded<P: PagePool>(
        pool: &mut P,
        fanout: usize,
        keys: &[u64],
        reads: impl Fn(&P) -> u64,
        clear_cache: impl Fn(&mut P),
    ) {
        let mut t = BPlusTree::with_caps(pool, fanout, fanout).unwrap();
        for &k in keys {
            t.insert(pool, k * 3, !k).unwrap();
        }
        let per_get = u64::from(t.height()) + 1;
        for key in (0..=KEYS * 3 + 3).chain([u64::MAX - 1, u64::MAX]) {
            let want = t.get_decoded(pool, key).unwrap();
            if key % 7 == 0 {
                clear_cache(pool);
            }
            let before = reads(pool);
            assert_eq!(t.get(pool, key).unwrap(), want, "key {key}, fanout {fanout}");
            assert_eq!(reads(pool) - before, per_get, "key {key}: one access per level");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Deep trees (fanout 3–5) and page-filling ones (255, two levels
        /// once a history keeps more than 255 keys), through both pools.
        #[test]
        fn in_place_get_agrees_with_the_decoded_descent(
            fanout in 0usize..FANOUTS.len(),
            keys in prop::collection::vec(1..=KEYS, 1..900),
        ) {
            let fanout = FANOUTS[fanout];
            in_place_get_matches_decoded(
                &mut BufferPool::new(PageStore::new(), 8),
                fanout,
                &keys,
                |p| p.stats().logical_reads,
                |p| p.clear_cache().unwrap(),
            );
            let mut striped = StripedBufferPool::new(PageStore::new(), 8, 4);
            in_place_get_matches_decoded(
                &mut striped.owner(&mut IoTally::default()),
                fanout,
                &keys,
                |p| p.tally.logical_reads,
                |p| p.pool.write_back_all_owned(true).unwrap(),
            );
        }
    }

    /// Pages from the root down to the leaf covering `key`.
    fn path_to(t: &BPlusTree, pool: &mut BufferPool, key: u64) -> Vec<PageId> {
        let mut path = vec![t.root];
        for _ in 0..t.height {
            let node = t.read_node(pool, path[path.len() - 1]).unwrap();
            path.push(PageId(node.children[node.keys.partition_point(|&k| k <= key)]));
        }
        path
    }

    /// Overwrites `len` bytes at `at` of `page`, returning what was there.
    fn stomp(pool: &mut impl PagePool, page: PageId, at: usize, bytes: &[u8]) -> Vec<u8> {
        pool.with_page_mut(page, |pg| {
            let field = &mut pg.bytes_mut()[at..at + bytes.len()];
            let old = field.to_vec();
            field.copy_from_slice(bytes);
            old
        })
        .unwrap()
    }

    fn header(tag: u8, count: u16) -> [u8; 4] {
        let [lo, hi] = count.to_le_bytes();
        [tag, 0, lo, hi]
    }

    /// Every header the decoded descent rejects, at every depth of a path,
    /// is rejected with the same error in place; and the two shapes it only
    /// survived by accident — a well-formed node of the wrong kind for its
    /// depth — are now named.
    #[test]
    fn in_place_get_rejects_what_the_decoded_descent_rejects() {
        let mut p = pool();
        let mut t = BPlusTree::with_caps(&mut p, 4, 4).unwrap();
        for k in 0..200u64 {
            t.insert(&mut p, k, k * 10).unwrap();
        }
        let path = path_to(&t, &mut p, 77);
        assert!(path.len() >= 4, "height = {}", t.height());
        for (depth, &page) in path.iter().enumerate() {
            for (tag, count) in [
                (TAG_LEAF, u16::MAX),
                (TAG_LEAF, 256), // one entry more than a page holds
                (TAG_INTERNAL, 5),
                (TAG_INTERNAL, 100),
                (9, 1),
                (0xFF, 0),
            ] {
                let good = stomp(&mut p, page, 0, &header(tag, count));
                let got = t.get(&mut p, 77);
                assert!(matches!(got, Err(StorageError::CorruptPage(_))), "{got:?}");
                assert_eq!(got, t.get_decoded(&mut p, 77), "depth {depth}: {tag}/{count}");
                stomp(&mut p, page, 0, &good);
                assert_eq!(t.get(&mut p, 77), Ok(Some(770)));
            }
        }
        // An internal tag at leaf depth: the reference searched the decoded
        // keys, found no value beside them and served a present key as absent.
        let leaf = path[path.len() - 1];
        let good = stomp(&mut p, leaf, 0, &header(TAG_INTERNAL, 2));
        assert_eq!(
            t.get(&mut p, 77),
            Err(StorageError::CorruptPage("internal node at the tree's leaf level"))
        );
        assert_eq!(t.get_decoded(&mut p, 77), Ok(None));
        stomp(&mut p, leaf, 0, &good);
        // A leaf tag where the height expects an internal node: the
        // reference failed only because a decoded leaf has no child slots.
        let good = stomp(&mut p, path[1], 0, &header(TAG_LEAF, 2));
        assert_eq!(
            t.get(&mut p, 77),
            Err(StorageError::CorruptPage("leaf node above the tree's leaf level"))
        );
        assert_eq!(
            t.get_decoded(&mut p, 77),
            Err(StorageError::CorruptPage("internal node missing a child slot"))
        );
        stomp(&mut p, path[1], 0, &good);
        assert_eq!(t.get(&mut p, 77), Ok(Some(770)));
    }

    /// A page id read off a page is checked where it enters the store: a
    /// child pointer gone bad used to index the store's page array and
    /// panic the serving thread. It is `CorruptPage` through either pool,
    /// and the pool keeps serving once the pointer is good again.
    #[test]
    fn wild_child_pointer_is_an_error_not_a_panic() {
        fn check(pool: &mut impl PagePool) {
            let mut t = BPlusTree::with_caps(pool, 4, 4).unwrap();
            for k in 0..40u64 {
                t.insert(pool, k, k + 100).unwrap();
            }
            assert!(t.height() >= 1);
            let first_child = 8 + t.int_cap * 8;
            let good = stomp(pool, t.root, first_child, &0xFFFF_FF00u32.to_le_bytes());
            assert_eq!(t.get(pool, 0), Err(StorageError::CorruptPage("page id outside the store")));
            stomp(pool, t.root, first_child, &good);
            for k in 0..40u64 {
                assert_eq!(t.get(pool, k), Ok(Some(k + 100)));
            }
        }
        check(&mut pool());
        let mut striped = StripedBufferPool::new(PageStore::new(), 8, 4);
        check(&mut striped.owner(&mut IoTally::default()));
    }
}
