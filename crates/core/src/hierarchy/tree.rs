//! What the search loop reads of the hierarchy: O(1) level and parent
//! tables, and per border node its **flattened shortcut tree**.
//!
//! The paper keeps a shortcut tree per node in the Route Overlay
//! (Section 3.3, Figure 6) so that `ChoosePath` is one top-down walk. The
//! tree of a border node is derived from the Rnets it borders; here it is
//! derived *once*, when the node's borders are installed or refreshed, and
//! stored in the order the walk visits it: a pre-order listing in which
//! every entry knows where its subtree ends. `ChoosePath` then is a forward
//! scan — after a bypass continue at [`TreeEntry::skip`], otherwise at the
//! next entry — with no stack and no level arithmetic per settled node.
//!
//! Sibling order is part of the search's tie-breaking contract (the first
//! relaxation to reach a label keeps it), so it is pinned: top-level Rnets
//! in reverse [`bordered_rnets`](super::RnetHierarchy::bordered_rnets)
//! order, each followed by its children in reverse order — what the LIFO
//! descent over that list used to pop. A `cfg(test)` copy of that descent
//! is the reference the proptests compare against.
// roadlint: serving-path

use super::RnetId;
use crate::RoadError;
use road_network::NodeId;

/// Bit 31 of `TreeEntry::skip_leaf`: the Rnet is at the finest level.
const LEAF_BIT: u32 = 1 << 31;

/// One Rnet of a border node's flattened shortcut tree; 8 bytes, what
/// [`overlay_size_bytes`](crate::RoadFramework::overlay_size_bytes)
/// charges per shortcut-tree entry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TreeEntry {
    /// The Rnet this entry stands for.
    pub rnet: RnetId,
    /// Low 31 bits: index within the node's tree one past this Rnet's
    /// subtree. Bit 31: the leaf flag.
    skip_leaf: u32,
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

    /// Checked: a subtree end that does not fit 31 bits is an error, never
    /// a truncated (and therefore backwards) jump.
    fn with_skip(self, skip: usize) -> Result<Self, RoadError> {
        match u32::try_from(skip) {
            Ok(s) if s < LEAF_BIT => {
                Ok(TreeEntry { skip_leaf: (self.skip_leaf & LEAF_BIT) | s, ..self })
            }
            _ => Err(too_large()),
        }
    }
}

impl std::fmt::Debug for TreeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let leaf = if self.is_leaf() { " leaf" } else { "" };
        write!(f, "{:?}{leaf} ->{}", self.rnet, self.skip())
    }
}

fn too_large() -> RoadError {
    RoadError::InvalidConfig("shortcut trees exceed 2^31 entries".into())
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
    /// level ascending) into `out`, in `ChoosePath` visit order.
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
        out.push(TreeEntry { rnet: r, skip_leaf: leaf });
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
            .ok_or_else(too_large)?;
        self.entries.splice(lo as usize..hi as usize, tree.iter().copied());
        if new_hi != hi {
            for o in self.offsets.iter_mut().skip(i + 1) {
                *o = *o - hi + new_hi;
            }
        }
        Ok(())
    }
}
