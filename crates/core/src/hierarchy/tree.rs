//! What the search loop reads of the hierarchy: O(1) level and parent
//! tables, and per border node its **flattened shortcut tree**.
//!
//! The paper keeps a shortcut tree per node in the Route Overlay
//! (Section 3.3, Figure 6) so that `ChoosePath` is one top-down walk. The
//! tree of a border node is derived from the Rnets it borders; here it is
//! derived *once*, when the node's borders are installed or refreshed, and
//! stored — as the only per-node list of those Rnets — in the order the
//! walk visits it: a pre-order listing in which
//! every entry knows where its subtree ends. `ChoosePath` then is a forward
//! scan — after a bypass continue at [`TreeEntry::skip`], otherwise at the
//! next entry — with no stack and no level arithmetic per settled node.
//!
//! Every entry also carries the node's *slot* in its Rnet: its index in
//! [`borders`](super::RnetHierarchy::borders). The shortcut store keeps
//! one run per border, indexed by that slot, so a bypass reads its run
//! without looking the node up. Slots are stamped whenever a border list
//! is installed or changed; [`RnetHierarchy::validate`](super::RnetHierarchy::validate)
//! checks every one.
//!
//! Sibling order is part of the search's tie-breaking contract (the first
//! relaxation to reach a label keeps it), so it is pinned: top-level Rnets
//! in descending id order, each followed by its children in descending id
//! order — what the LIFO descent over the level-ascending (that is,
//! id-ascending) border list used to pop. A `cfg(test)` copy of that
//! descent is the reference the proptests compare against.
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

use super::RnetId;
use crate::RoadError;
use road_network::NodeId;

/// Bit 15 of `TreeEntry::skip_leaf`: the Rnet is at the finest level.
const LEAF_BIT: u16 = 1 << 15;

/// One Rnet of a border node's flattened shortcut tree; 8 bytes, what
/// [`overlay_size_bytes`](crate::RoadFramework::overlay_size_bytes)
/// charges per shortcut-tree entry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TreeEntry {
    /// The Rnet this entry stands for.
    pub rnet: RnetId,
    /// Low 15 bits: index within the node's tree one past this Rnet's
    /// subtree. Bit 15: the leaf flag.
    skip_leaf: u16,
    /// The node's index in the Rnet's border list.
    slot: u16,
}

impl TreeEntry {
    /// Where the scan continues after bypassing this Rnet: the index,
    /// within the node's tree, one past its subtree.
    #[inline]
    pub fn skip(self) -> usize {
        (self.skip_leaf & !LEAF_BIT) as usize
    }

    /// `true` for a finest-level Rnet: descending relaxes physical edges.
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.skip_leaf & LEAF_BIT != 0
    }

    /// The node's index in [`borders`](super::RnetHierarchy::borders) of
    /// this Rnet: where its shortcuts across the Rnet are stored.
    #[inline]
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// Checked: a subtree end that does not fit 15 bits is an error, never
    /// a truncated (and therefore backwards) jump.
    fn with_skip(self, skip: usize) -> Result<Self, RoadError> {
        match u16::try_from(skip) {
            Ok(s) if s < LEAF_BIT => {
                Ok(TreeEntry { skip_leaf: (self.skip_leaf & LEAF_BIT) | s, ..self })
            }
            _ => Err(too_large(format!("a shortcut tree of {skip} entries"))),
        }
    }

    /// Checked: a border index that does not fit 16 bits is an error,
    /// never a truncated slot (and therefore another node's shortcuts).
    pub(super) fn with_slot(self, slot: usize) -> Result<Self, RoadError> {
        match u16::try_from(slot) {
            Ok(slot) => Ok(TreeEntry { slot, ..self }),
            Err(_) => Err(too_large(format!("an Rnet of {} borders", slot + 1))),
        }
    }
}

impl std::fmt::Debug for TreeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let leaf = if self.is_leaf() { " leaf" } else { "" };
        write!(f, "{:?}{leaf} ->{} @{}", self.rnet, self.skip(), self.slot)
    }
}

/// A tree past `2^15 - 1` entries, an Rnet past `2^16` borders or a tree
/// arena past `u32` offsets.
fn too_large(what: String) -> RoadError {
    RoadError::InvalidConfig(format!("{what} exceeds the shortcut tree's fields"))
}

/// Level and parent of every Rnet, indexed by id. Total: an id outside the
/// hierarchy (`RnetId::NONE`, or one read off a corrupt page) has level 0
/// and no parent.
#[derive(Clone)]
pub(super) struct LevelTable {
    levels: u32,
    level: Vec<u8>,
    parent: Vec<RnetId>,
}

impl LevelTable {
    /// `level_offsets[lv - 1]` is the first id of level `lv`, with a
    /// trailing total; `lv <= 12`, so a level fits a byte.
    pub(super) fn new(level_offsets: &[u32], fanout: u32) -> Self {
        let total = level_offsets.last().copied().unwrap_or(0) as usize;
        let (mut level, mut parent) = (Vec::with_capacity(total), Vec::with_capacity(total));
        let mut above: Option<u32> = None;
        let mut lv = 0u8;
        for w in level_offsets.windows(2) {
            let &[lo, hi] = w else { continue };
            lv += 1;
            for idx in 0..hi - lo {
                level.push(lv);
                parent.push(above.map_or(RnetId::NONE, |first| RnetId(first + idx / fanout)));
            }
            above = Some(lo);
        }
        LevelTable { levels: lv as u32, level, parent }
    }

    #[inline]
    pub(super) fn level_of(&self, r: RnetId) -> u32 {
        self.level.get(r.0 as usize).map_or(0, |&lv| lv as u32)
    }

    #[inline]
    pub(super) fn parent(&self, r: RnetId) -> RnetId {
        self.parent.get(r.0 as usize).copied().unwrap_or(RnetId::NONE)
    }

    /// Flattens the shortcut tree over `rnets` (a node's bordered Rnets,
    /// ascending id — hence level ascending) into `out`, in `ChoosePath`
    /// visit order; every slot is 0 until the caller stamps it.
    pub(super) fn flatten(
        &self,
        rnets: &[RnetId],
        out: &mut Vec<TreeEntry>,
    ) -> Result<(), RoadError> {
        out.clear();
        let Some(&first) = rnets.first() else { return Ok(()) };
        let top = self.level_of(first);
        for &r in rnets.iter().rev() {
            if self.level_of(r) == top {
                self.emit(r, rnets, out)?;
            }
        }
        Ok(())
    }

    /// Appends `r` and, recursively, its children among `rnets`; then
    /// points `r`'s entry past what was appended. Depth is the number of
    /// levels (at most 12).
    fn emit(&self, r: RnetId, rnets: &[RnetId], out: &mut Vec<TreeEntry>) -> Result<(), RoadError> {
        let at = out.len();
        let lv = self.level_of(r);
        let leaf = if lv == self.levels { LEAF_BIT } else { 0 };
        out.push(TreeEntry { rnet: r, skip_leaf: leaf, slot: 0 });
        for &c in rnets.iter().rev() {
            if self.level_of(c) == lv + 1 && self.parent(c) == r {
                self.emit(c, rnets, out)?;
            }
        }
        let end = out.len();
        if let Some(entry) = out.get_mut(at) {
            *entry = entry.with_skip(end)?;
        }
        Ok(())
    }
}

/// Every border node's flattened tree in one arena, CSR style: node `n`
/// owns `entries[offsets[n]..offsets[n + 1]]`. Nodes past the offset table
/// (added after the last border change) and nodes with an empty run are
/// interior.
#[derive(Clone, Default)]
pub(super) struct ShortcutTrees {
    offsets: Vec<u32>,
    entries: Vec<TreeEntry>,
}

impl ShortcutTrees {
    /// The flattened tree of `n`; empty for interior nodes.
    #[inline]
    pub(super) fn of(&self, n: NodeId) -> &[TreeEntry] {
        let i = n.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => self.entries.get(lo as usize..hi as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Replaces the tree of `n`. Appending behind the last border node —
    /// the build, in node order — is O(tree); a change in the middle moves
    /// the runs behind it, O(arena), which only topology edits pay.
    pub(super) fn set(&mut self, n: NodeId, tree: &[TreeEntry]) -> Result<(), RoadError> {
        let i = n.index();
        let end = self.offsets.last().copied().unwrap_or(0);
        if self.offsets.len() < i + 2 {
            self.offsets.resize(i + 2, end);
        }
        let lo = self.offsets.get(i).copied().unwrap_or(end);
        let hi = self.offsets.get(i + 1).copied().unwrap_or(end);
        // The arena must stay addressable by the u32 offsets behind `n`.
        let new_hi = u32::try_from(tree.len())
            .ok()
            .and_then(|len| lo.checked_add(len))
            .filter(|new_hi| new_hi.checked_add(end - hi).is_some())
            .ok_or_else(|| too_large("the shortcut tree arena".into()))?;
        self.entries.splice(lo as usize..hi as usize, tree.iter().copied());
        if new_hi != hi {
            for o in self.offsets.iter_mut().skip(i + 1) {
                *o = *o - hi + new_hi;
            }
        }
        Ok(())
    }

    /// Sets the slot of `n`'s entry for `r`; `Err` when it does not fit,
    /// a no-op when `n` does not border `r`.
    pub(super) fn stamp(&mut self, n: NodeId, r: RnetId, slot: usize) -> Result<(), RoadError> {
        let i = n.index();
        let (Some(&lo), Some(&hi)) = (self.offsets.get(i), self.offsets.get(i + 1)) else {
            return Ok(());
        };
        let Some(tree) = self.entries.get_mut(lo as usize..hi as usize) else { return Ok(()) };
        if let Some(entry) = tree.iter_mut().find(|e| e.rnet == r) {
            *entry = entry.with_slot(slot)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A subtree end of 32,767 is the last a tree can hold; one past it —
    /// a tree of 2^15 entries — is an error, not a jump wrapped back to
    /// the start. (Flattening a tree that long takes a node bordering
    /// 2^15 Rnets; the entry's own check is what such a build meets.)
    #[test]
    fn a_tree_past_fifteen_bits_of_skip_is_an_error() {
        let entry = TreeEntry { rnet: RnetId(3), skip_leaf: LEAF_BIT, slot: 9 };
        let last = entry.with_skip((1 << 15) - 1).unwrap();
        assert_eq!((last.skip(), last.is_leaf(), last.slot()), (32_767, true, 9));
        let err = entry.with_skip(1 << 15).unwrap_err().to_string();
        assert!(err.contains("a shortcut tree of 32768 entries"), "{err}");
        let table = LevelTable::new(&[0, 4, 20], 4);
        let mut out = Vec::new();
        table.flatten(&[RnetId(1), RnetId(2), RnetId(9)], &mut out).unwrap();
        let shape: Vec<(u32, usize, bool)> =
            out.iter().map(|e| (e.rnet.0, e.skip(), e.is_leaf())).collect();
        assert_eq!(shape, [(2, 1, false), (1, 3, false), (9, 3, true)]);
    }

    /// Slot 65,535 is the last a border can take; the 65,537th border of
    /// an Rnet is an error, in the entry and through the arena.
    #[test]
    fn a_slot_past_sixteen_bits_is_an_error() {
        let entry = TreeEntry { rnet: RnetId(3), skip_leaf: LEAF_BIT | 1, slot: 0 };
        let last = entry.with_slot(65_535).unwrap();
        assert_eq!((last.slot(), last.skip(), last.is_leaf()), (65_535, 1, true));
        let err = entry.with_slot(65_536).unwrap_err().to_string();
        assert!(err.contains("an Rnet of 65537 borders"), "{err}");
        let mut trees = ShortcutTrees::default();
        trees.set(NodeId(2), &[entry]).unwrap();
        trees.stamp(NodeId(2), RnetId(3), 65_535).unwrap();
        assert!(trees.stamp(NodeId(2), RnetId(3), 65_536).is_err());
        assert_eq!(trees.of(NodeId(2))[0].slot(), 65_535, "a refused stamp changes nothing");
    }
}
