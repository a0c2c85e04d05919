//! The Rnet hierarchy (Definitions 1 and 4, Section 3.3).
//!
//! The whole network (the implicit level-0 Rnet) is partitioned into `p`
//! Rnets, each recursively partitioned into `p` children, for `l` levels.
//! Edges belong to exactly one Rnet per level (Definition 4 condition 1);
//! nodes incident to edges of two different Rnets at some level are the
//! *border nodes* of those Rnets — the only entrances and exits a traversal
//! can use.
//!
//! We materialise edge membership only at the finest level: the Rnet ids
//! are numbered so a leaf's ancestor at any level is integer arithmetic
//! (`index / p^(l - level)`), which is also what makes the Route Overlay's
//! "flattened" storage possible. Border-node sets are maintained per Rnet,
//! and per node the Rnets it borders are one list: its *shortcut tree*
//! (Figure 6), flattened into the order `ChoosePath` walks it (see
//! [`TreeEntry`]).
//!
//! Construction is the partitioner's: `l` levels of fanout `2^x` are
//! `l * x` binary rounds of [`road_network::partition::split_rounds`] over
//! one flat list of groups — no per-level regrouping here — fanned out
//! over the builder's worker threads; what comes back after the last round
//! are the leaf Rnets in leaf-index order. The thread count changes
//! nothing that is built (ARCHITECTURE.md, "Hierarchy construction").

mod tree;

pub use tree::TreeEntry;

use road_network::graph::RoadNetwork;
use road_network::partition::{split_rounds, PartitionOptions};
use road_network::{EdgeId, NodeId};
use std::fmt;
use tree::{LevelTable, ShortcutTrees};

/// The border lists of Rnets as they were before a topology edit changed
/// them (see [`RnetHierarchy::refresh_node_borders`]). An edit changes a
/// handful of Rnets, so the list is searched linearly.
pub(crate) type BordersBefore = Vec<(RnetId, Vec<NodeId>)>;

/// Identifier of an Rnet in the hierarchy (level-order numbering).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RnetId(pub u32);

impl RnetId {
    /// Sentinel for "no Rnet".
    pub const NONE: RnetId = RnetId(u32::MAX);

    /// `true` unless this is the sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != u32::MAX
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "R{}", self.0)
        } else {
            write!(f, "R<none>")
        }
    }
}

/// Configuration of the hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Partition fanout `p` (a power of two; the paper uses 4).
    pub fanout: usize,
    /// Number of levels `l` (the paper uses 4 for CA, 8 for NA/SF).
    pub levels: u32,
    /// Carries nothing: the partitioner's settings are constants (see
    /// [`PartitionOptions`]).
    pub partition: PartitionOptions,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { fanout: 4, levels: 4, partition: PartitionOptions::default() }
    }
}

/// The Rnet hierarchy over a road network.
///
/// `Clone` is a deep copy; the framework only pays it on the first
/// *topology* change after a snapshot fork (weight updates never touch
/// the hierarchy), via [`std::sync::Arc::make_mut`].
#[derive(Clone)]
pub struct RnetHierarchy {
    fanout: u32,
    levels: u32,
    /// `level_offsets[lv - 1]` = id of the first Rnet at level `lv`;
    /// a trailing entry holds the total count.
    level_offsets: Vec<u32>,
    /// Edge lists of the finest-level Rnets, indexed by leaf *index*.
    leaf_edges: Vec<Vec<EdgeId>>,
    /// Finest Rnet of each edge slot (NONE for deleted edges).
    leaf_of_edge: Vec<RnetId>,
    /// Border nodes per Rnet id.
    borders: Vec<Vec<NodeId>>,
    /// Level and parent per Rnet id (what `level_offsets` implies, O(1)).
    table: LevelTable,
    /// For each border node: the Rnets it borders, as its flattened
    /// shortcut tree — the one per-node list of them.
    trees: ShortcutTrees,
}

/// Checks a hierarchy's shape and lays out its Rnet ids: entry `lv - 1` is
/// the id of the first Rnet at level `lv` (level `lv` has `fanout^lv`), a
/// trailing entry holds the total. Every way of making a hierarchy goes
/// through here, so a bad shape is an `InvalidConfig`, never a panic.
fn checked_level_offsets(fanout: usize, levels: u32) -> Result<Vec<u32>, crate::RoadError> {
    // The partitioner numbers parts in 16 bits (`partition_edges`).
    if !fanout.is_power_of_two() || !(2..=1 << 16).contains(&fanout) {
        return Err(crate::RoadError::InvalidConfig(format!(
            "fanout must be a power of two in [2, 65536], got {fanout}"
        )));
    }
    if levels == 0 || levels > 12 {
        return Err(crate::RoadError::InvalidConfig(format!(
            "levels must be in [1, 12], got {levels}"
        )));
    }
    let mut level_offsets = Vec::with_capacity(levels as usize + 1);
    let mut acc = 0u64;
    for lv in 1..=levels {
        level_offsets.push(acc as u32);
        acc += (fanout as u64).pow(lv);
        if acc > u32::MAX as u64 {
            return Err(crate::RoadError::InvalidConfig(format!(
                "hierarchy too large: {acc} Rnets"
            )));
        }
    }
    level_offsets.push(acc as u32);
    Ok(level_offsets)
}

/// How many Rnets a hierarchy of `fanout` over `levels` has, the shape
/// checked as [`RnetHierarchy::from_leaf_assignment`] checks it: what an
/// image's reader holds against the bytes left before the shape sizes
/// anything.
pub(crate) fn rnet_count(fanout: usize, levels: u32) -> Result<usize, crate::RoadError> {
    Ok(checked_level_offsets(fanout, levels)?.last().map_or(0, |&n| n as usize))
}

impl RnetHierarchy {
    /// Builds the hierarchy by recursive geometric + KL partitioning, on
    /// all available hardware threads (the partition does not depend on
    /// how many there are).
    pub fn build(g: &RoadNetwork, cfg: &HierarchyConfig) -> Result<Self, crate::RoadError> {
        Self::build_on(g, cfg, 0)
    }

    /// [`RnetHierarchy::build`] on `threads` workers, read as
    /// [`crate::shortcut::ShortcutOptions::threads`] is (`0` = all the
    /// host has): the framework builds its hierarchy and its shortcuts
    /// under the one setting.
    ///
    /// `l` levels of fanout `2^x` are `l * x` binary rounds over one flat
    /// list of groups (see [`road_network::partition`]): the groups after
    /// the last round are the leaf Rnets, in leaf-index order.
    pub(crate) fn build_on(
        g: &RoadNetwork,
        cfg: &HierarchyConfig,
        threads: usize,
    ) -> Result<Self, crate::RoadError> {
        let level_offsets = checked_level_offsets(cfg.fanout, cfg.levels)?;
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let rounds = cfg.levels * cfg.fanout.trailing_zeros();
        let leaves = split_rounds(g, &edges, rounds, threads);
        let leaf_edges =
            leaves.iter().map(|leaf| leaf.iter().map(|&pos| edges[pos as usize]).collect());
        Self::from_leaves(g, cfg.fanout, level_offsets, leaf_edges.collect())
    }

    /// Builds a hierarchy from an *explicit* leaf assignment instead of the
    /// built-in partitioner: `leaf_index_of(edge)` gives each live edge's
    /// finest-Rnet index in `0..fanout^levels`.
    ///
    /// This enables the paper's "partitioning based on network semantics"
    /// (country → state → county → township) and is also how a persisted
    /// framework restores its hierarchy without re-partitioning.
    pub fn from_leaf_assignment(
        g: &RoadNetwork,
        fanout: usize,
        levels: u32,
        leaf_index_of: impl Fn(EdgeId) -> u32,
    ) -> Result<Self, crate::RoadError> {
        let level_offsets = checked_level_offsets(fanout, levels)?;
        let num_leaves =
            (level_offsets[levels as usize] - level_offsets[levels as usize - 1]) as usize;
        // Counted first, so every leaf's list is allocated once, at size.
        let mut counts = vec![0usize; num_leaves];
        for e in g.edge_ids() {
            let idx = leaf_index_of(e);
            let Some(count) = counts.get_mut(idx as usize) else {
                return Err(crate::RoadError::InvalidConfig(format!(
                    "edge {e} assigned to leaf {idx}, but only {num_leaves} leaves exist"
                )));
            };
            *count += 1;
        }
        let mut leaf_edges: Vec<Vec<EdgeId>> =
            counts.iter().map(|&count| Vec::with_capacity(count)).collect();
        for e in g.edge_ids() {
            leaf_edges[leaf_index_of(e) as usize].push(e);
        }
        Self::from_leaves(g, fanout, level_offsets, leaf_edges)
    }

    /// The hierarchy over the given leaf edge lists (one per leaf index, a
    /// partition of the live edges), borders and shortcut trees derived.
    fn from_leaves(
        g: &RoadNetwork,
        fanout: usize,
        level_offsets: Vec<u32>,
        leaf_edges: Vec<Vec<EdgeId>>,
    ) -> Result<Self, crate::RoadError> {
        let levels = level_offsets.len() - 1;
        debug_assert_eq!(
            leaf_edges.len() as u32,
            level_offsets[levels] - level_offsets[levels - 1]
        );
        let mut leaf_of_edge = vec![RnetId::NONE; g.edge_slots()];
        for (leaf, edges) in (level_offsets[levels - 1]..).zip(&leaf_edges) {
            for &e in edges {
                leaf_of_edge[e.index()] = RnetId(leaf);
            }
        }
        RnetHierarchy {
            fanout: fanout as u32,
            levels: levels as u32,
            borders: Vec::new(),
            table: LevelTable::new(&level_offsets, fanout as u32),
            trees: ShortcutTrees::default(),
            level_offsets,
            leaf_edges,
            leaf_of_edge,
        }
        .with_borders_installed(g)
    }

    /// Leaf index (within the finest level) of a live edge; used by
    /// persistence to round-trip the assignment.
    pub fn leaf_index_of_edge(&self, e: EdgeId) -> Option<u32> {
        let leaf = self.leaf_of_edge(e);
        if leaf.is_valid() {
            Some(leaf.0 - self.level_offsets[self.levels as usize - 1])
        } else {
            None
        }
    }

    /// Partition fanout `p`.
    pub fn fanout(&self) -> usize {
        self.fanout as usize
    }

    /// Number of levels `l`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Total number of Rnets across all levels.
    pub fn num_rnets(&self) -> usize {
        self.level_offsets.last().copied().unwrap_or(0) as usize
    }

    /// All Rnet ids at `level` (1-based).
    pub fn rnets_at_level(&self, level: u32) -> impl Iterator<Item = RnetId> {
        assert!(level >= 1 && level <= self.levels);
        let lo = self.level_offsets[level as usize - 1];
        let hi = self.level_offsets[level as usize];
        (lo..hi).map(RnetId)
    }

    /// The level (1-based) of an Rnet; 0 for an id outside the hierarchy
    /// ([`RnetId::NONE`] included).
    #[inline]
    pub fn level_of(&self, r: RnetId) -> u32 {
        self.table.level_of(r)
    }

    /// Index of `r` within its level.
    fn index_in_level(&self, r: RnetId) -> u32 {
        r.0 - self.level_offsets[self.level_of(r) as usize - 1]
    }

    /// The parent Rnet (NONE for level-1 Rnets and for ids outside the
    /// hierarchy).
    #[inline]
    pub fn parent(&self, r: RnetId) -> RnetId {
        self.table.parent(r)
    }

    /// Child Rnets (none for finest-level Rnets).
    pub fn children(&self, r: RnetId) -> impl ExactSizeIterator<Item = RnetId> {
        let lv = self.level_of(r);
        let ids = if lv == 0 || lv >= self.levels {
            0..0
        } else {
            let base = self.level_offsets[lv as usize] + self.index_in_level(r) * self.fanout;
            base..base + self.fanout
        };
        ids.map(RnetId)
    }

    /// `true` for finest-level Rnets.
    #[inline]
    pub fn is_leaf(&self, r: RnetId) -> bool {
        self.level_of(r) == self.levels
    }

    /// The finest Rnet an edge belongs to.
    pub fn leaf_of_edge(&self, e: EdgeId) -> RnetId {
        self.leaf_of_edge.get(e.index()).copied().unwrap_or(RnetId::NONE)
    }

    /// The Rnet containing `e` at the given level.
    pub fn rnet_of_edge_at(&self, e: EdgeId, level: u32) -> RnetId {
        let leaf = self.leaf_of_edge(e);
        if !leaf.is_valid() {
            return RnetId::NONE;
        }
        self.ancestor_at(leaf, level)
    }

    /// Ancestor of `r` at `level` (≤ its own level).
    pub fn ancestor_at(&self, r: RnetId, level: u32) -> RnetId {
        let lv = self.level_of(r);
        assert!(level >= 1 && level <= lv);
        let idx = self.index_in_level(r) / self.fanout.pow(lv - level);
        RnetId(self.level_offsets[level as usize - 1] + idx)
    }

    /// Edges of a finest-level Rnet.
    pub fn leaf_edge_list(&self, r: RnetId) -> &[EdgeId] {
        debug_assert!(self.is_leaf(r));
        let idx = self.index_in_level(r) as usize;
        &self.leaf_edges[idx]
    }

    /// Border nodes of an Rnet.
    pub fn borders(&self, r: RnetId) -> &[NodeId] {
        &self.borders[r.index()]
    }

    /// The shortcut tree of `n` (Figure 6) flattened into `ChoosePath`
    /// visit order, so the top-down walk is one forward scan: every Rnet
    /// `n` borders, once, its first entry at `n`'s coarsest border level;
    /// empty for interior nodes.
    #[inline]
    pub fn shortcut_tree(&self, n: NodeId) -> &[TreeEntry] {
        self.trees.of(n)
    }

    /// `n`'s slot in `r` — its index in [`RnetHierarchy::borders`] — read
    /// off its shortcut tree; `None` unless `n` borders `r`.
    #[inline]
    pub fn slot_of(&self, n: NodeId, r: RnetId) -> Option<usize> {
        self.shortcut_tree(n).iter().find(|e| e.rnet == r).map(|e| e.slot())
    }

    /// `true` if `n` is a border node of `r`.
    pub fn is_border_of(&self, n: NodeId, r: RnetId) -> bool {
        self.shortcut_tree(n).iter().any(|e| e.rnet == r)
    }

    /// The coarsest level at which `n` is a border node (`None` = interior).
    pub fn border_level(&self, n: NodeId) -> Option<u32> {
        self.shortcut_tree(n).first().map(|e| self.level_of(e.rnet))
    }

    /// Derives into `out` the Rnets `n` should border from its current
    /// incident edges: for each level from the coarsest where its edges
    /// span two Rnets down to the finest, every Rnet containing one of its
    /// edges — ascending id, which is level ascending (ids are numbered
    /// level by level). `leaves` is scratch; with both buffers grown, the
    /// derivation allocates nothing.
    ///
    /// The distinct leaf indices of the edges are sorted once; an
    /// ancestor index is a leaf index divided by a power of the fanout, so
    /// each level's are sorted too, distinct where they change, and span
    /// two Rnets exactly when the first and the last differ.
    fn node_borders(
        &self,
        g: &RoadNetwork,
        n: NodeId,
        leaves: &mut Vec<u32>,
        out: &mut Vec<RnetId>,
    ) {
        out.clear();
        leaves.clear();
        let leaf_base = self.level_offsets[self.levels as usize - 1];
        let valid = g.neighbors(n).map(|(e, _)| self.leaf_of_edge(e)).filter(|r| r.is_valid());
        leaves.extend(valid.map(|r| r.0 - leaf_base));
        leaves.sort_unstable();
        leaves.dedup();
        let (Some(&first), Some(&last)) = (leaves.first(), leaves.last()) else { return };
        for lv in 1..=self.levels {
            let shift = self.fanout.pow(self.levels - lv);
            if first / shift == last / shift {
                continue; // not yet a border at this coarse level
            }
            let base = self.level_offsets[lv as usize - 1];
            let mut prev = None;
            for &leaf in leaves.iter() {
                let at = leaf / shift;
                if prev != Some(at) {
                    out.push(RnetId(base + at));
                    prev = Some(at);
                }
            }
        }
    }

    /// Derives every node's borders and shortcut tree (construction), in
    /// two passes over the nodes: the first derives each node's Rnets and
    /// gives it the next slot in each, counting; the second files every
    /// node into its slots of border lists allocated at their final size.
    /// What allocates is one list per Rnet and the tree arena's growth,
    /// never a node.
    fn with_borders_installed(mut self, g: &RoadNetwork) -> Result<Self, crate::RoadError> {
        let (mut leaves, mut rnets, mut tree) = (Vec::new(), Vec::new(), Vec::new());
        let mut counts = vec![0usize; self.num_rnets()];
        for n in g.node_ids() {
            self.node_borders(g, n, &mut leaves, &mut rnets);
            if rnets.is_empty() {
                continue;
            }
            self.table.flatten(&rnets, &mut tree)?;
            // `n` goes behind the borders its Rnets already have.
            for entry in &mut tree {
                let count = &mut counts[entry.rnet.index()];
                *entry = entry.with_slot(*count)?;
                *count += 1;
            }
            self.trees.set(n, &tree)?;
        }
        self.borders = counts.iter().map(|&count| vec![NodeId(u32::MAX); count]).collect();
        for n in g.node_ids() {
            for entry in self.trees.of(n) {
                self.borders[entry.rnet.index()][entry.slot()] = n;
            }
        }
        Ok(self)
    }

    // -----------------------------------------------------------------
    // Maintenance hooks (Section 5.2): the framework mutates edge
    // membership and refreshes border bookkeeping through these.
    // -----------------------------------------------------------------

    /// Registers a new edge slot as belonging to leaf Rnet `leaf`.
    pub(crate) fn assign_edge(&mut self, e: EdgeId, leaf: RnetId) {
        debug_assert!(self.is_leaf(leaf));
        if e.index() >= self.leaf_of_edge.len() {
            self.leaf_of_edge.resize(e.index() + 1, RnetId::NONE);
        }
        debug_assert!(!self.leaf_of_edge[e.index()].is_valid(), "edge already assigned");
        self.leaf_of_edge[e.index()] = leaf;
        let idx = self.index_in_level(leaf) as usize;
        self.leaf_edges[idx].push(e);
    }

    /// Unregisters a deleted edge from its leaf Rnet.
    pub(crate) fn unassign_edge(&mut self, e: EdgeId) {
        let leaf = self.leaf_of_edge[e.index()];
        if !leaf.is_valid() {
            return;
        }
        self.leaf_of_edge[e.index()] = RnetId::NONE;
        let idx = self.index_in_level(leaf) as usize;
        self.leaf_edges[idx].retain(|&x| x != e);
    }

    /// Recomputes which Rnets `n` borders after its incident edges changed,
    /// and with them its shortcut tree. Returns `(gained, lost)` Rnet lists
    /// (promotion / demotion). Every Rnet whose border list changed has its
    /// borders' slots restamped. `Err` only when the tree would outgrow its
    /// fields or the arena its 32-bit offsets, before anything is changed.
    ///
    /// `before` collects the border list of every Rnet this changes as it
    /// was before its first change: the key a shortcut arena built before
    /// the edit is still indexed by.
    pub(crate) fn refresh_node_borders(
        &mut self,
        g: &RoadNetwork,
        n: NodeId,
        before: &mut BordersBefore,
    ) -> Result<(Vec<RnetId>, Vec<RnetId>), crate::RoadError> {
        let mut new = Vec::new();
        self.node_borders(g, n, &mut Vec::new(), &mut new);
        let old = self.shortcut_tree(n).to_vec();
        let gained: Vec<RnetId> =
            new.iter().copied().filter(|&r| !old.iter().any(|e| e.rnet == r)).collect();
        let lost: Vec<RnetId> = old.iter().map(|e| e.rnet).filter(|r| !new.contains(r)).collect();
        // `n` keeps its old entry's slot where it stays a border and goes
        // last where it becomes one.
        let mut tree = Vec::new();
        self.table.flatten(&new, &mut tree)?;
        for entry in &mut tree {
            let slot = match old.iter().find(|e| e.rnet == entry.rnet) {
                Some(kept) => kept.slot(),
                None => self.borders[entry.rnet.index()].len(),
            };
            *entry = entry.with_slot(slot)?;
        }
        self.trees.set(n, &tree)?;
        for &r in gained.iter().chain(&lost) {
            if !before.iter().any(|&(seen, _)| seen == r) {
                before.push((r, self.borders[r.index()].clone()));
            }
        }
        for &r in &lost {
            self.borders[r.index()].retain(|&m| m != n);
            // Every border behind `n` moved up one slot.
            for (slot, &m) in self.borders[r.index()].iter().enumerate() {
                self.trees.stamp(m, r, slot)?;
            }
        }
        for &r in &gained {
            self.borders[r.index()].push(n);
        }
        Ok((gained, lost))
    }

    /// Checks Definition 4 and the border-node derivation. Test helper.
    pub fn validate(&self, g: &RoadNetwork) -> Result<(), String> {
        // 1. Every live edge belongs to exactly one leaf Rnet; leaf lists
        //    partition the live edges.
        let mut seen = vec![false; g.edge_slots()];
        for edges in &self.leaf_edges {
            for &e in edges {
                let Some(was_seen) = seen.get_mut(e.index()) else {
                    return Err(format!("leaf list holds unknown edge {e}"));
                };
                if g.edge(e).is_deleted() {
                    return Err(format!("leaf list holds deleted edge {e}"));
                }
                if std::mem::replace(was_seen, true) {
                    return Err(format!("edge {e} in two leaf Rnets"));
                }
            }
        }
        for e in g.edge_ids() {
            if !seen[e.index()] {
                return Err(format!("edge {e} not assigned to any leaf Rnet"));
            }
            if !self.leaf_of_edge(e).is_valid() {
                return Err(format!("edge {e} has no leaf pointer"));
            }
        }
        // 2. leaf_of_edge agrees with leaf lists.
        let leaf_base = self.level_offsets[self.levels as usize - 1];
        for (idx, edges) in self.leaf_edges.iter().enumerate() {
            let id = RnetId(leaf_base + idx as u32);
            for &e in edges {
                if self.leaf_of_edge(e) != id {
                    return Err(format!("edge {e} leaf pointer mismatch"));
                }
            }
        }
        // 3. Each node's tree holds the Rnets Definition 1/4 derive from
        //    the network, in ChoosePath order.
        let (mut leaves, mut expect) = (Vec::new(), Vec::new());
        let (mut fresh, mut open, mut got) = (Vec::new(), Vec::<usize>::new(), Vec::new());
        for n in g.node_ids() {
            self.node_borders(g, n, &mut leaves, &mut expect);
            let tree = self.shortcut_tree(n);
            got.clear();
            got.extend(tree.iter().map(|e| e.rnet));
            got.sort_unstable();
            if got != expect {
                return Err(format!("node {n} border set mismatch: {tree:?} vs {expect:?}"));
            }
            // The flattened tree is that set in ChoosePath order, every
            // `skip` one past its subtree: forward, inside the tree, and
            // nested within its parent's; every slot `n`'s place in its
            // Rnet's border list.
            self.table.flatten(&expect, &mut fresh).map_err(|e| e.to_string())?;
            let shape = |e: &TreeEntry| (e.rnet, e.skip(), e.is_leaf());
            if !tree.iter().map(shape).eq(fresh.iter().map(shape)) {
                return Err(format!("node {n} shortcut tree {tree:?} is stale; want {fresh:?}"));
            }
            open.clear(); // ends of the subtrees enclosing entry `i`
            for (i, entry) in tree.iter().enumerate() {
                if self.borders(entry.rnet).get(entry.slot()) != Some(&n) {
                    return Err(format!("node {n} shortcut tree {tree:?}: bad slot at {i}"));
                }
                open.retain(|&end| end > i);
                let enclosing = open.last().copied().unwrap_or(tree.len());
                if entry.skip() <= i || entry.skip() > enclosing {
                    return Err(format!("node {n} shortcut tree {tree:?}: bad skip at {i}"));
                }
                if entry.is_leaf() != self.is_leaf(entry.rnet) {
                    return Err(format!("node {n} shortcut tree {tree:?}: leaf flag at {i}"));
                }
                open.push(entry.skip());
            }
        }
        // 4. Rnet border lists contain only genuine borders.
        for (ri, list) in self.borders.iter().enumerate() {
            for &n in list {
                self.node_borders(g, n, &mut leaves, &mut expect);
                if !expect.contains(&RnetId(ri as u32)) {
                    return Err(format!("{n} listed as border of R{ri} but does not border it"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::generator::simple;

    /// The Rnets `n` borders, derived afresh from its edges.
    fn node_borders(hier: &RnetHierarchy, g: &RoadNetwork, n: NodeId) -> Vec<RnetId> {
        let mut out = Vec::new();
        hier.node_borders(g, n, &mut Vec::new(), &mut out);
        out
    }

    fn build_grid(w: usize, h: usize, fanout: usize, levels: u32) -> (RoadNetwork, RnetHierarchy) {
        let g = simple::grid(w, h, 1.0);
        let cfg = HierarchyConfig { fanout, levels, partition: PartitionOptions::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        (g, hier)
    }

    #[test]
    fn builds_and_validates_on_grids() {
        for (fanout, levels) in [(2, 3), (4, 2), (4, 3)] {
            let (g, hier) = build_grid(10, 10, fanout, levels);
            hier.validate(&g).unwrap();
            assert_eq!(hier.fanout(), fanout);
            assert_eq!(hier.levels(), levels);
            let expect: usize = (1..=levels).map(|lv| fanout.pow(lv)).sum();
            assert_eq!(hier.num_rnets(), expect);
        }
    }

    /// The Rnet count an image's reader checks its bytes against is the
    /// count a built hierarchy of that shape has, and a shape the
    /// hierarchy refuses is refused here too, with no count.
    #[test]
    fn rnet_count_is_a_built_hierarchys_and_refuses_what_it_refuses() {
        for (fanout, levels) in [(2, 3), (4, 2), (4, 3)] {
            let (_, hier) = build_grid(10, 10, fanout, levels);
            assert_eq!(rnet_count(fanout, levels).unwrap(), hier.num_rnets());
        }
        assert_eq!(rnet_count(65_536, 1).unwrap(), 65_536);
        assert_eq!(rnet_count(2, 12).unwrap(), (1 << 13) - 2);
        for (fanout, levels) in
            [(3, 2), (0, 2), (1, 2), (1 << 17, 1), (4, 0), (2, 13), (1 << 16, 2)]
        {
            let refused = rnet_count(fanout, levels);
            assert!(
                matches!(refused, Err(crate::RoadError::InvalidConfig(_))),
                "fanout {fanout} over {levels} levels: {refused:?}"
            );
        }
    }

    #[test]
    fn id_arithmetic_roundtrips() {
        let (_, hier) = build_grid(8, 8, 4, 3);
        for lv in 1..=3 {
            for r in hier.rnets_at_level(lv) {
                assert_eq!(hier.level_of(r), lv);
                if lv > 1 {
                    let p = hier.parent(r);
                    assert_eq!(hier.level_of(p), lv - 1);
                    assert!(hier.children(p).any(|c| c == r));
                    assert_eq!(hier.ancestor_at(r, lv - 1), p);
                    assert_eq!(hier.ancestor_at(r, lv), r);
                }
                if lv < 3 {
                    for c in hier.children(r) {
                        assert_eq!(hier.parent(c), r);
                    }
                } else {
                    assert!(hier.is_leaf(r));
                    assert_eq!(hier.children(r).len(), 0);
                }
            }
        }
        let top = hier.rnets_at_level(1).next().unwrap();
        assert_eq!(hier.parent(top), RnetId::NONE);
        // Total on ids outside the hierarchy: no level, no parent, no
        // children, not a leaf — where the binary search used to return
        // garbage for `NONE`.
        for outside in [RnetId::NONE, RnetId(hier.num_rnets() as u32)] {
            assert_eq!(hier.level_of(outside), 0);
            assert_eq!(hier.parent(outside), RnetId::NONE);
            assert_eq!(hier.children(outside).len(), 0);
            assert!(!hier.is_leaf(outside));
        }
    }

    #[test]
    fn every_edge_has_a_leaf_and_consistent_ancestors() {
        let (g, hier) = build_grid(9, 9, 4, 3);
        for e in g.edge_ids() {
            let leaf = hier.leaf_of_edge(e);
            assert!(leaf.is_valid());
            assert!(hier.is_leaf(leaf));
            assert!(hier.leaf_edge_list(leaf).contains(&e));
            for lv in 1..=3 {
                assert_eq!(hier.rnet_of_edge_at(e, lv), hier.ancestor_at(leaf, lv));
            }
        }
    }

    #[test]
    fn border_levels_are_upward_closed() {
        let (g, hier) = build_grid(12, 12, 4, 3);
        let mut border_count = 0;
        for n in g.node_ids() {
            let levels: Vec<u32> =
                hier.shortcut_tree(n).iter().map(|e| hier.level_of(e.rnet)).collect();
            if levels.is_empty() {
                continue;
            }
            border_count += 1;
            let bl = hier.border_level(n).unwrap();
            // The tree is rooted at the coarsest level it holds.
            assert_eq!(levels.iter().min(), Some(&bl));
            // Once a border, a border at every finer level.
            for lv in bl..=hier.levels() {
                assert!(levels.contains(&lv), "{n} border at {bl} but not at {lv}");
            }
            // It borders at least two Rnets at its border level.
            let at_bl = levels.iter().filter(|&&lv| lv == bl).count();
            assert!(at_bl >= 2, "{n} borders only {at_bl} Rnet at level {bl}");
        }
        assert!(border_count > 0, "a partitioned grid must have border nodes");
        assert!(border_count < g.num_nodes(), "not every node should be a border node");
    }

    #[test]
    fn chain_borders_are_cut_points() {
        // A chain partitioned into 2 at one level: exactly 1 border node.
        let g = simple::chain(32, 1.0);
        let cfg = HierarchyConfig { fanout: 2, levels: 1, partition: PartitionOptions::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        hier.validate(&g).unwrap();
        let all_borders: std::collections::BTreeSet<u32> =
            hier.rnets_at_level(1).flat_map(|r| hier.borders(r).iter().map(|n| n.0)).collect();
        assert_eq!(all_borders.len(), 1, "one cut point expected: {all_borders:?}");
    }

    #[test]
    fn rejects_bad_config() {
        let g = simple::grid(4, 4, 1.0);
        let bad = HierarchyConfig { fanout: 3, levels: 2, partition: PartitionOptions::default() };
        assert!(RnetHierarchy::build(&g, &bad).is_err());
        let bad = HierarchyConfig { fanout: 4, levels: 0, partition: PartitionOptions::default() };
        assert!(RnetHierarchy::build(&g, &bad).is_err());
    }

    #[test]
    fn a_fanout_no_part_index_can_number_is_a_config_error() {
        // 2^17 passed the power-of-two check and panicked in the
        // partitioner ("fanout too large").
        let g = simple::grid(4, 4, 1.0);
        let too_wide = 1usize << 17;
        let cfg = HierarchyConfig { fanout: too_wide, levels: 1, ..Default::default() };
        for result in [
            RnetHierarchy::build(&g, &cfg),
            RnetHierarchy::from_leaf_assignment(&g, too_wide, 1, |_| 0),
        ] {
            match result {
                Err(crate::RoadError::InvalidConfig(why)) => {
                    assert!(why.contains("fanout"), "{why}")
                }
                Err(other) => panic!("expected InvalidConfig, got {other:?}"),
                Ok(_) => panic!("fanout {too_wide} was accepted"),
            }
        }
        // The widest fanout that is one still builds, by either way in.
        let cfg = HierarchyConfig { fanout: 1 << 16, levels: 1, ..Default::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        hier.validate(&g).unwrap();
        let again = RnetHierarchy::from_leaf_assignment(&g, 1 << 16, 1, |e| {
            hier.leaf_index_of_edge(e).unwrap()
        })
        .unwrap();
        again.validate(&g).unwrap();
        assert_eq!(again.num_rnets(), 1 << 16);
    }

    #[test]
    fn the_hierarchy_does_not_depend_on_the_thread_count() {
        let worlds = [
            (simple::grid(17, 13, 1.0), 4, 3),
            (simple::random_connected(300, 120, 9), 2, 7),
            (simple::chain(3, 1.0), 4, 3), // nearly every group empty
        ];
        for (g, fanout, levels) in worlds {
            let cfg = HierarchyConfig { fanout, levels, ..Default::default() };
            let reference = RnetHierarchy::build_on(&g, &cfg, 1).unwrap();
            reference.validate(&g).unwrap();
            for threads in [0, 2, 4, 8] {
                let hier = RnetHierarchy::build_on(&g, &cfg, threads).unwrap();
                for e in g.edge_ids() {
                    assert_eq!(hier.leaf_index_of_edge(e), reference.leaf_index_of_edge(e));
                }
                for r in (0..hier.num_rnets() as u32).map(RnetId) {
                    assert_eq!(hier.borders(r), reference.borders(r), "{r:?}, {threads} threads");
                }
                assert_eq!(hier.leaf_edges, reference.leaf_edges);
            }
        }
    }

    #[test]
    fn deeper_than_meaningful_levels_still_validate() {
        // 3 edges, 2 levels of fanout 4: most leaves are empty.
        let g = simple::chain(4, 1.0);
        let cfg = HierarchyConfig { fanout: 4, levels: 2, partition: PartitionOptions::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        hier.validate(&g).unwrap();
    }

    #[test]
    fn maintenance_hooks_keep_validity() {
        let (mut g, mut hier) = build_grid(6, 6, 2, 2);
        // Delete an edge and unassign it.
        let e = g.edge_ids().next().unwrap();
        let (a, b) = g.edge(e).endpoints();
        g.remove_edge(e).unwrap();
        hier.unassign_edge(e);
        let mut before = BordersBefore::default();
        hier.refresh_node_borders(&g, a, &mut before).unwrap();
        hier.refresh_node_borders(&g, b, &mut before).unwrap();
        hier.validate(&g).unwrap();
        // Add a fresh edge far away and assign it to the leaf of a
        // neighbouring edge.
        let (u, v) = (NodeId(30), NodeId(25)); // not adjacent in a 6-grid
        let ew = road_network::Weight::new(3.0);
        let new_e = g.add_edge(u, v, ew, ew, road_network::Weight::ZERO).unwrap();
        let leaf = hier.leaf_of_edge(g.neighbors(u).next().unwrap().0);
        hier.assign_edge(new_e, leaf);
        hier.refresh_node_borders(&g, u, &mut before).unwrap();
        hier.refresh_node_borders(&g, v, &mut before).unwrap();
        hier.validate(&g).unwrap();
    }

    /// The Rnets `ChoosePath` consults at `n`, in order, under a bypass
    /// verdict per Rnet — by the stack descent over the level-ascending
    /// border list the search loop ran before the tree was flattened
    /// (levels by binary search, parents by id arithmetic, as then), kept
    /// as the reference. The list is recomputed from the network, not
    /// read off the tree under test.
    fn stack_descent(
        hier: &RnetHierarchy,
        g: &RoadNetwork,
        n: NodeId,
        bypass: &impl Fn(RnetId) -> bool,
    ) -> Vec<RnetId> {
        let level_of = |r: RnetId| match hier.level_offsets.binary_search(&r.0) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        };
        let parent = |r: RnetId| {
            let lv = level_of(r) as usize;
            let idx = (r.0 - hier.level_offsets[lv - 1]) / hier.fanout;
            RnetId(hier.level_offsets[lv - 2] + idx)
        };
        let bordered = node_borders(hier, g, n);
        let Some(&top) = bordered.first() else { return Vec::new() };
        let top_level = level_of(top);
        let mut stack: Vec<RnetId> =
            bordered.iter().copied().filter(|&r| level_of(r) == top_level).collect();
        let mut visited = Vec::new();
        while let Some(r) = stack.pop() {
            visited.push(r);
            if bypass(r) || level_of(r) == hier.levels {
                continue;
            }
            let lv = level_of(r);
            for &c in &bordered {
                if level_of(c) == lv + 1 && parent(c) == r {
                    stack.push(c);
                }
            }
        }
        visited
    }

    /// The same sequence by the forward scan the search loop runs now.
    fn tree_scan(hier: &RnetHierarchy, n: NodeId, bypass: &impl Fn(RnetId) -> bool) -> Vec<RnetId> {
        let tree = hier.shortcut_tree(n);
        let mut visited = Vec::new();
        let mut at = 0;
        while let Some(entry) = tree.get(at) {
            visited.push(entry.rnet);
            at = if bypass(entry.rnet) { entry.skip() } else { at + 1 };
        }
        visited
    }

    /// Every node, under all-descend, all-bypass and three seeded verdict
    /// mixes: the flattened tree must visit what the stack descent visits.
    fn assert_visit_order_pinned(g: &RoadNetwork, hier: &RnetHierarchy, seed: u64) {
        hier.validate(g).unwrap();
        for n in g.node_ids() {
            assert_eq!(
                tree_scan(hier, n, &|_| false).len(),
                node_borders(hier, g, n).len(),
                "{n}: descending everywhere must visit every bordered Rnet"
            );
            for mix in 0..5u64 {
                let bypass = |r: RnetId| match mix {
                    0 => false,
                    1 => true,
                    _ => {
                        let h =
                            (seed ^ mix ^ ((r.0 as u64) << 20)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        h >> 63 == 1
                    }
                };
                assert_eq!(
                    tree_scan(hier, n, &bypass),
                    stack_descent(hier, g, n, &bypass),
                    "{n} (verdict mix {mix}): tree {:?}",
                    hier.shortcut_tree(n)
                );
            }
        }
    }

    /// Every tree entry holds `n`'s place in its Rnet's border list, and
    /// the run a bypass reaches through it is the one a by-node reference
    /// finds: `n`'s position in `borders(r)`, looked up in a store rebuilt
    /// from scratch over the same hierarchy.
    fn assert_slots_address_runs(fw: &crate::framework::RoadFramework) {
        use crate::shortcut::ShortcutStore;
        let hier = fw.hierarchy();
        let fresh = ShortcutStore::build(fw.network(), hier, fw.metric(), &Default::default());
        for n in fw.network().node_ids() {
            for &entry in hier.shortcut_tree(n) {
                let (r, borders) = (entry.rnet, hier.borders(entry.rnet));
                assert_eq!(borders.get(entry.slot()), Some(&n), "{n}: {entry:?}");
                let by_node = borders.iter().position(|&m| m == n).unwrap();
                let (got, want) =
                    (fw.shortcuts().heads_at(r, entry.slot()), fresh.heads_at(r, by_node));
                assert_eq!(got.len(), want.len(), "{n} across {r:?}: {got:?} vs {want:?}");
                for (a, b) in got.iter().zip(want.iter()) {
                    assert!(a.to == b.to && a.dist.approx_eq(b.dist), "{n} across {r:?}");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_a_tree_that_is_not_its_border_list() {
        let (g, hier) = build_grid(8, 8, 4, 2);
        let deep = g
            .node_ids()
            .find(|&n| hier.shortcut_tree(n).len() > 2 && !hier.shortcut_tree(n)[0].is_leaf())
            .expect("a node bordering two levels");
        let own = hier.shortcut_tree(deep).to_vec();
        // Cut short: an Rnet `deep` borders is missing from its tree.
        let mut cut = hier.clone();
        cut.trees.set(deep, &own[..own.len() - 1]).unwrap();
        assert!(cut.validate(&g).unwrap_err().contains("border set mismatch"));
        // Siblings in ascending id order instead of reversed: same Rnets,
        // another visit order, other ties.
        let mut reversed = hier.clone();
        let top_len = own[0].skip();
        let mut swapped = own[top_len..].to_vec();
        swapped.extend_from_slice(&own[..top_len]);
        reversed.trees.set(deep, &swapped).unwrap();
        assert!(reversed.validate(&g).unwrap_err().contains("is stale"));
        let mut gone = hier.clone();
        gone.trees.set(deep, &[]).unwrap();
        assert!(gone.validate(&g).unwrap_err().contains("border set mismatch"));
        // The right length, but one leaf entry names a leaf `deep` does
        // not border.
        let mut foreign = hier.clone();
        let mut swapped_leaf = own.clone();
        let last = swapped_leaf.last_mut().unwrap();
        last.rnet = hier.rnets_at_level(2).find(|&r| !hier.is_border_of(deep, r)).unwrap();
        foreign.trees.set(deep, &swapped_leaf).unwrap();
        assert!(foreign.validate(&g).unwrap_err().contains("border set mismatch"));
        // The right shape with a slot pointing at another border.
        let mut moved = hier.clone();
        let r = own[0].rnet;
        let other = (own[0].slot() + 1) % hier.borders(r).len();
        moved.trees.stamp(deep, r, other).unwrap();
        assert!(moved.validate(&g).unwrap_err().contains("bad slot"));
        hier.validate(&g).unwrap();
    }

    /// Two hubs joined by `spokes` two-edge paths, the hub sides in two
    /// leaves: every spoke node borders both, so each leaf has `spokes`
    /// borders. The 65,537th cannot be given a slot: the build is an
    /// error, not a wrapped slot.
    #[test]
    fn an_rnet_past_sixteen_bits_of_borders_is_an_error() {
        let star = |spokes: u32| {
            let mut b = RoadNetwork::builder();
            for i in 0..spokes + 2 {
                b.add_node(road_network::Point::new(f64::from(i), 0.0));
            }
            for i in 2..spokes + 2 {
                b.add_edge(NodeId(0), NodeId(i), 1.0).unwrap();
                b.add_edge(NodeId(i), NodeId(1), 1.0).unwrap();
            }
            let g = b.build();
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| e.0 % 2)
        };
        let widest = star(1 << 16).unwrap();
        assert_eq!(widest.borders(RnetId(0)).len(), 1 << 16);
        assert_eq!(widest.slot_of(NodeId((1 << 16) + 1), RnetId(1)), Some(65_535));
        let err = star((1 << 16) + 1).err().expect("a 65,537th border was given a slot");
        assert!(err.to_string().contains("an Rnet of 65537 borders"), "{err}");
    }

    #[test]
    fn tree_entries_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<TreeEntry>(), 8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Visit order is pinned, not hoped for: random grids x fanout
        /// {2, 4} x levels 1-4.
        #[test]
        fn flattened_tree_visits_in_stack_descent_order(
            w in 3usize..11,
            h in 3usize..11,
            fanout_log2 in 1u32..3,
            levels in 1u32..5,
            seed in 0u64..1_000_000,
        ) {
            let (g, hier) = build_grid(w, h, 1 << fanout_log2, levels);
            assert_visit_order_pinned(&g, &hier, seed);
        }

        /// ... and stays pinned through `add_edge` / `remove_edge`
        /// histories, which promote interior nodes to borders, demote
        /// borders, and rewrite trees in the middle of the arena — and so
        /// do the slots, which a demotion shifts for every border behind
        /// the demoted one.
        #[test]
        fn flattened_tree_survives_topology_histories(
            side in 4usize..8,
            fanout_log2 in 1u32..3,
            levels in 1u32..4,
            seed in 0u64..1_000_000,
        ) {
            use crate::framework::RoadFramework;
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            use road_network::Weight;
            let g = simple::grid(side, side, 1.0);
            let mut fw =
                RoadFramework::builder(g).fanout(1 << fanout_log2).levels(levels).build().unwrap();
            let num_nodes = fw.network().num_nodes() as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next = |bound: u64| rng.random_range(0..bound);
            // An interior node of another leaf Rnet than any at `a`: an
            // edge to it is hosted on `a`'s side and promotes it; taking
            // the edge away again demotes it.
            let far_interior = |fw: &RoadFramework, a: NodeId, from: u64| {
                let hier = fw.hierarchy();
                let leaves_at = |n: NodeId| -> Vec<RnetId> {
                    fw.network().neighbors(n).map(|(e, _)| hier.leaf_of_edge(e)).collect()
                };
                let at_a = leaves_at(a);
                (0..num_nodes).map(|i| NodeId(((from + i) % num_nodes) as u32)).find(|&b| {
                    hier.shortcut_tree(b).is_empty()
                        && leaves_at(b).iter().all(|leaf| !at_a.contains(leaf))
                })
            };
            let (mut promoted, mut demoted) = (0, 0);
            let mut added = Vec::new();
            for step in 0..6 {
                let a = NodeId(next(num_nodes) as u32);
                let Some(b) = far_interior(&fw, a, next(num_nodes)) else { continue };
                let w = Weight::new(1.5);
                let (e, outcome) = fw.add_edge(a, b, (w, w, Weight::ZERO)).unwrap();
                added.push(e);
                promoted += outcome.borders_promoted;
                assert_visit_order_pinned(fw.network(), fw.hierarchy(), seed ^ step);
                assert_slots_address_runs(&fw);
            }
            let connectors = added.len();
            for step in 0..connectors + 3 {
                // The added connectors first, then a few original streets.
                let e = added.pop().unwrap_or_else(|| {
                    let live: Vec<EdgeId> = fw.network().edge_ids().collect();
                    live[next(live.len() as u64) as usize]
                });
                demoted += fw.remove_edge(e, &[]).unwrap().borders_demoted;
                assert_visit_order_pinned(fw.network(), fw.hierarchy(), seed ^ step as u64);
                assert_slots_address_runs(&fw);
            }
            // Deep hierarchies over small grids have no interior node left
            // to promote; everywhere else the history must move borders.
            assert!(
                connectors == 0 || (promoted > 0 && demoted > 0),
                "{connectors} connectors promoted {promoted} and demoted {demoted} nodes"
            );
            // A node added after the last border change lies past the
            // tree table: interior, like any node without a tree.
            let fresh = fw.add_node(road_network::Point::new(0.5, 0.5));
            assert!(fw.hierarchy().shortcut_tree(fresh).is_empty());
        }
    }
}
