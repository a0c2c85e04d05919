//! The ROAD framework facade: construction, queries and network
//! maintenance.
//!
//! `RoadFramework` owns the road network together with its Route Overlay
//! (Rnet hierarchy + shortcut store), keeping the two consistent across
//! edge-weight changes and topology changes (Section 5.2). Association
//! Directories are intentionally *not* owned: the clean separation between
//! network and objects is the framework's core design property, letting
//! several object sets share one overlay.

use crate::arena::QueryArena;
use crate::association::AssociationDirectory;
use crate::hierarchy::{BordersBefore, HierarchyConfig, RnetHierarchy, RnetId};
use crate::search::{
    self, AggregateKnnQuery, KnnQuery, MemorySource, RangeQuery, SearchHit, SearchResult,
    SearchStats,
};
use crate::shortcut::{ShortcutOptions, ShortcutStore, WorkerScratches};
use crate::workspace::SearchWorkspace;
use crate::RoadError;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, NodeId, Point, Weight};
use std::sync::Arc;

/// Framework configuration.
#[derive(Clone, Debug, Default)]
pub struct RoadConfig {
    /// The distance metric shortcuts are built for.
    pub metric: WeightKind,
    /// Rnet hierarchy shape.
    pub hierarchy: HierarchyConfig,
    /// Shortcut construction options.
    pub shortcuts: ShortcutOptions,
}

/// Counters describing one maintenance operation (Section 5.2).
///
/// Filter-and-refresh repairs are *local*: a weight change refreshes at
/// most one Rnet per hierarchy level, so `rnets_refreshed` staying far
/// below [`RnetHierarchy::num_rnets`] is the proof that maintenance never
/// degenerates into a full rebuild. Accumulate outcomes over an update
/// stream with [`UpdateOutcome::absorb`]:
///
/// ```
/// use road_core::UpdateOutcome;
///
/// let mut total = UpdateOutcome::default();
/// total.absorb(&UpdateOutcome { rnets_refreshed: 3, rnets_changed: 1, ..Default::default() });
/// total.absorb(&UpdateOutcome { rnets_refreshed: 2, borders_promoted: 1, ..Default::default() });
/// assert_eq!(total.rnets_refreshed, 5);
/// assert_eq!(total.rnets_changed, 1);
/// assert_eq!(total.borders_promoted, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Rnets whose shortcuts were recomputed ("refreshed").
    pub rnets_refreshed: usize,
    /// Refreshed Rnets whose shortcut set actually changed.
    pub rnets_changed: usize,
    /// Nodes promoted to border nodes.
    pub borders_promoted: usize,
    /// Nodes demoted from border nodes.
    pub borders_demoted: usize,
    /// Matrix entries the min-plus kernels relaxed while repairing — the
    /// eliminations, border closures and keep rules of every refreshed
    /// Rnet ([`road_network::minplus`]), one add of its length per relaxed
    /// row: the repair's arithmetic, counted exactly instead of timed.
    pub minplus_entries: u64,
}

impl UpdateOutcome {
    /// Adds another operation's counters into this one (the accumulation
    /// the live engine's [`stats`](crate::live::LiveStats) and the
    /// maintenance experiments report).
    pub fn absorb(&mut self, other: &UpdateOutcome) {
        self.rnets_refreshed += other.rnets_refreshed;
        self.rnets_changed += other.rnets_changed;
        self.borders_promoted += other.borders_promoted;
        self.borders_demoted += other.borders_demoted;
        self.minplus_entries += other.minplus_entries;
    }
}

/// The ROAD framework over one road network.
///
/// Internally copy-on-write: the network, hierarchy and query arena live
/// behind [`Arc`]s and the per-Rnet shortcut arenas behind one `Arc` each,
/// in chunks of 64 pointers, so [`Clone`] is a cheap fork (a pointer bump
/// per component and per chunk) that shares every payload with the
/// original. Maintenance methods
/// un-share lazily and by the chunk: a weight update copies the chunks of
/// edge records and arena weights it writes and the chunk of each
/// refreshed Rnet's pointer, plus that Rnet's fresh shortcut arena;
/// topology changes additionally copy the network's adjacency and the
/// hierarchy and rebuild the arena. That is what makes the live engine's
/// snapshot publication affordable under a sustained update stream (see
/// [`crate::live`]), and [`LiveStats::bytes_copied`](crate::LiveStats::bytes_copied)
/// counts it.
pub struct RoadFramework {
    g: Arc<RoadNetwork>,
    cfg: RoadConfig,
    hier: Arc<RnetHierarchy>,
    shortcuts: ShortcutStore,
    /// Pre-joined flat adjacency for the query path (see [`crate::arena`]);
    /// kept current by every maintenance operation.
    arena: Arc<QueryArena>,
    /// Bytes the copy-on-write columns of arenas a topology edit has since
    /// replaced had copied; part of `bytes_copied`.
    retired_copies: u64,
    /// The writer's repair threads: a warm scratch on the calling thread
    /// and up to `cfg.shortcuts.threads - 1` parked workers with one each,
    /// made as repairs first need them and joined when the framework is
    /// dropped. A clone — every published snapshot — starts with none.
    workers: WorkerScratches,
}

impl Clone for RoadFramework {
    /// Forks the framework: both copies share the network, hierarchy and
    /// all shortcut data until one of them is mutated (standard `Clone`
    /// semantics — the copies never observe each other's later changes).
    fn clone(&self) -> Self {
        RoadFramework {
            g: Arc::clone(&self.g),
            cfg: self.cfg.clone(),
            hier: Arc::clone(&self.hier),
            shortcuts: self.shortcuts.clone(),
            arena: Arc::clone(&self.arena),
            retired_copies: self.retired_copies,
            workers: WorkerScratches::default(),
        }
    }
}

impl RoadFramework {
    /// Builds the framework: partitions the network into the Rnet
    /// hierarchy and computes all shortcuts bottom-up.
    pub fn build(g: RoadNetwork, cfg: RoadConfig) -> Result<Self, RoadError> {
        let hier = RnetHierarchy::build_on(&g, &cfg.hierarchy, cfg.shortcuts.threads)?;
        let shortcuts = ShortcutStore::build(&g, &hier, cfg.metric, &cfg.shortcuts);
        Ok(Self::assemble(Arc::new(g), cfg, Arc::new(hier), shortcuts))
    }

    /// Fluent construction helper.
    pub fn builder(g: RoadNetwork) -> RoadBuilder {
        RoadBuilder { g, cfg: RoadConfig::default() }
    }

    /// Assembles a framework from pre-built parts (persistence restore and
    /// custom-partition construction); validates the hierarchy against the
    /// network.
    pub(crate) fn from_parts(
        g: RoadNetwork,
        cfg: RoadConfig,
        hier: RnetHierarchy,
        shortcuts: ShortcutStore,
    ) -> Result<Self, RoadError> {
        Self::from_shared_parts(Arc::new(g), cfg, Arc::new(hier), shortcuts)
    }

    /// [`RoadFramework::from_parts`] over already-shared network and
    /// hierarchy handles (the page-granular image keeps serving from the
    /// same parts it hands to the framework).
    pub(crate) fn from_shared_parts(
        g: Arc<RoadNetwork>,
        cfg: RoadConfig,
        hier: Arc<RnetHierarchy>,
        shortcuts: ShortcutStore,
    ) -> Result<Self, RoadError> {
        hier.validate(&g).map_err(RoadError::InvalidConfig)?;
        Ok(Self::assemble(g, cfg, hier, shortcuts))
    }

    /// The framework over consistent parts, its query arena joined from
    /// them and its repair scratches not yet made.
    fn assemble(
        g: Arc<RoadNetwork>,
        cfg: RoadConfig,
        hier: Arc<RnetHierarchy>,
        shortcuts: ShortcutStore,
    ) -> Self {
        let arena = Arc::new(QueryArena::build(&g, &hier, cfg.metric));
        let workers = WorkerScratches::default();
        RoadFramework { g, cfg, hier, shortcuts, arena, retired_copies: 0, workers }
    }

    /// Builds the framework over a caller-supplied leaf partition (e.g.
    /// administrative boundaries — the paper's "partitioning based on
    /// network semantics"). `leaf_index_of(edge)` maps every live edge to
    /// a finest-Rnet index in `0..fanout^levels`; shortcuts are then
    /// computed as usual.
    pub fn build_with_partition(
        g: RoadNetwork,
        cfg: RoadConfig,
        leaf_index_of: impl Fn(EdgeId) -> u32,
    ) -> Result<Self, RoadError> {
        let hier = RnetHierarchy::from_leaf_assignment(
            &g,
            cfg.hierarchy.fanout,
            cfg.hierarchy.levels,
            leaf_index_of,
        )?;
        let shortcuts = ShortcutStore::build(&g, &hier, cfg.metric, &cfg.shortcuts);
        Ok(Self::assemble(Arc::new(g), cfg, Arc::new(hier), shortcuts))
    }

    /// Serializes the framework (network + hierarchy + shortcuts); see
    /// [`crate::persist`] for the format and rationale.
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::persist::to_bytes(self)
    }

    /// Restores a framework serialized with [`RoadFramework::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RoadError> {
        crate::persist::from_bytes(bytes)
    }

    /// The pre-joined query-path adjacency arena (see [`crate::arena`]).
    #[inline]
    pub(crate) fn arena(&self) -> &QueryArena {
        &self.arena
    }

    /// How many chunks of the query arena's weight column this framework
    /// physically shares with `other` — the arena's counterpart of
    /// [`RoadNetwork::shared_edge_chunks`]: a fork shares all of them, a
    /// reweight un-shares the chunk of each endpoint, a topology edit
    /// rebuilds the arena and shares none.
    pub fn shared_arena_chunks(&self, other: &RoadFramework) -> usize {
        self.arena.shared_weight_chunks(&other.arena)
    }

    /// Bytes the framework's copy-on-write columns — edge records, arena
    /// weights, the per-Rnet shortcut table — copied to un-share chunks
    /// from its clones, over its whole history. Fresh shortcut arenas of
    /// refreshed Rnets and the topology copies of topology edits are
    /// writes, not copies, and are not counted.
    pub(crate) fn bytes_copied(&self) -> u64 {
        self.g.bytes_copied()
            + self.arena.bytes_copied()
            + self.shortcuts.bytes_copied()
            + self.retired_copies
    }

    /// The underlying network.
    pub fn network(&self) -> &RoadNetwork {
        &self.g
    }

    /// The Rnet hierarchy.
    pub fn hierarchy(&self) -> &RnetHierarchy {
        &self.hier
    }

    /// The shared handle to the hierarchy (the search loop clones it so a
    /// borrow of the hierarchy can outlive mutable access to the source).
    pub(crate) fn hierarchy_arc(&self) -> &Arc<RnetHierarchy> {
        &self.hier
    }

    /// The shortcut store.
    pub fn shortcuts(&self) -> &ShortcutStore {
        &self.shortcuts
    }

    /// The metric this framework's shortcuts are built for.
    pub fn metric(&self) -> WeightKind {
        self.cfg.metric
    }

    /// The configuration.
    pub fn config(&self) -> &RoadConfig {
        &self.cfg
    }

    /// Modelled Route Overlay size in bytes: per-node records (adjacency +
    /// shortcut-tree entries) plus the shortcut store — the quantity the
    /// index-size experiments charge to ROAD's network side.
    pub fn overlay_size_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for n in self.g.node_ids() {
            bytes += 16; // node header + coordinates
            bytes += 8 * self.g.degree(n); // adjacency entries
            bytes += 8 * self.hier.shortcut_tree(n).len(); // shortcut-tree entries
        }
        bytes + self.shortcuts.size_bytes()
    }

    // ------------------------------------------------------------------
    // Queries (Section 4)
    // ------------------------------------------------------------------

    /// Evaluates a kNN query against a directory.
    pub fn knn(
        &self,
        ad: &AssociationDirectory,
        query: &KnnQuery,
    ) -> Result<SearchResult, RoadError> {
        let be = MemorySource { fw: self, ad: Some(ad) };
        search::run(&be, query.node, &query.filter, query.mode())
    }

    /// kNN into caller-owned scratch: the workspace and the hit buffer are
    /// reused across calls, so a steady-state serving loop performs **zero
    /// per-query container allocations**. Returns the work counters;
    /// answers land in `hits` (cleared first).
    pub fn knn_with(
        &self,
        ad: &AssociationDirectory,
        query: &KnnQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        let be = MemorySource { fw: self, ad: Some(ad) };
        search::run_into(&be, query.node, &query.filter, query.mode(), ws, hits)
    }

    /// Range query into caller-owned scratch; see [`RoadFramework::knn_with`].
    pub fn range_with(
        &self,
        ad: &AssociationDirectory,
        query: &RangeQuery,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        let be = MemorySource { fw: self, ad: Some(ad) };
        search::run_into(&be, query.node, &query.filter, query.mode(), ws, hits)
    }

    /// Evaluates a range query against a directory.
    pub fn range(
        &self,
        ad: &AssociationDirectory,
        query: &RangeQuery,
    ) -> Result<SearchResult, RoadError> {
        let be = MemorySource { fw: self, ad: Some(ad) };
        search::run(&be, query.node, &query.filter, query.mode())
    }

    /// Aggregate kNN over a query group (ref \[19\]'s ANN queries on the
    /// ROAD overlay): find the k objects minimising the aggregate of their
    /// network distances from every group member. Objects unreachable from
    /// *any* group member are excluded (their aggregate is undefined).
    pub fn aggregate_knn(
        &self,
        ad: &AssociationDirectory,
        query: &AggregateKnnQuery,
    ) -> Result<Vec<SearchHit>, RoadError> {
        Ok(self.aggregate_knn_with_stats(ad, query)?.0)
    }

    /// [`RoadFramework::aggregate_knn`] plus the summed work counters of
    /// every expansion it ran (tests use them to check that the bounded
    /// expansions actually prune).
    ///
    /// Evaluation strategy: the first member runs one unbounded discovery
    /// expansion (every answer must be reachable from it). Each later
    /// member's expansion is then bounded by an *upper bound on the k-th
    /// best aggregate*, derived from the triangle inequality on network
    /// distance: `d_j(o) <= d_0(o) + ||q_0, q_j||`, so
    /// `combine_j(d_0(o) + ||q_0, q_j||)` over-estimates any object's
    /// final aggregate, and the k-th smallest over-estimate bounds the
    /// k-th best answer. Pruning against that bound is sound for both
    /// `Sum` and `Max` because every per-member distance lower-bounds the
    /// combined aggregate — an object outside the bound for *any* member
    /// cannot make the top k.
    pub fn aggregate_knn_with_stats(
        &self,
        ad: &AssociationDirectory,
        query: &AggregateKnnQuery,
    ) -> Result<(Vec<SearchHit>, SearchStats), RoadError> {
        search::aggregate(&MemorySource { fw: self, ad: Some(ad) }, query)
    }

    /// Point-to-point network distance through the overlay: with no
    /// objects to find, every Rnet not containing the target is bypassed
    /// via shortcuts, so this is hierarchical routing in the style of
    /// HEPV/HiTi — a capability ROAD gets for free.
    pub fn network_distance(&self, from: NodeId, to: NodeId) -> Result<Option<Weight>, RoadError> {
        let res = search::distance(&MemorySource { fw: self, ad: None }, from, to)?;
        Ok(res.distance_to_node(to))
    }

    /// Point-to-point shortest path through the overlay, fully expanded to
    /// physical edges.
    pub fn shortest_path(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<Option<road_network::Path>, RoadError> {
        let res = search::distance(&MemorySource { fw: self, ad: None }, from, to)?;
        Ok(res.path_to_node(self, to))
    }

    // ------------------------------------------------------------------
    // Maintenance (Section 5.2)
    // ------------------------------------------------------------------

    /// Changes the (framework-metric) weight of an edge and repairs the
    /// affected shortcuts by filter-and-refresh: the enclosing finest Rnet
    /// is recomputed, and the update propagates to the parent level only
    /// while shortcut sets keep changing (Lemma 2).
    pub fn set_edge_weight(
        &mut self,
        e: EdgeId,
        weight: Weight,
    ) -> Result<UpdateOutcome, RoadError> {
        self.set_edge_weights(&[(e, weight)])
    }

    /// Applies a batch of weight updates and repairs every affected Rnet
    /// once: the finest Rnet of each changed edge is recomputed, and an
    /// ancestor only while one of its children's shortcut sets changed —
    /// exactly the per-edge early-break of
    /// [`RoadFramework::set_edge_weight`]. A parent waits for its own
    /// children and for nothing else (Lemma 2), so the repair runs as one
    /// dependency-ordered plan over [`ShortcutOptions::threads`] threads:
    /// the caller and worker threads the framework spawns at the first
    /// repair that can use them and keeps parked, with their scratches
    /// warm, from update to update, each woken once per update. The thread
    /// count never changes a stored byte or a counter of the outcome.
    ///
    /// The whole batch is validated before any weight is written: one bad
    /// edge rejects the batch with the network untouched.  Updates that
    /// leave a weight unchanged are skipped (they must not un-share a
    /// forked network); duplicate edges apply in order, last one winning.
    pub fn set_edge_weights(
        &mut self,
        updates: &[(EdgeId, Weight)],
    ) -> Result<UpdateOutcome, RoadError> {
        for &(e, _) in updates {
            if e.index() >= self.g.edge_slots() {
                return Err(road_network::error::NetworkError::EdgeOutOfBounds(e).into());
            }
            if self.g.edge(e).is_deleted() {
                return Err(road_network::error::NetworkError::EdgeDeleted(e).into());
            }
        }
        let mut leaves: Vec<RnetId> = Vec::new();
        for &(e, weight) in updates {
            if self.g.weight(e, self.cfg.metric) == weight {
                continue;
            }
            // Both `make_mut`s are shallow: a forked network or arena is one
            // pointer per chunk, and the write then copies one chunk.
            Arc::make_mut(&mut self.g).set_weight(e, self.cfg.metric, weight)?;
            Arc::make_mut(&mut self.arena).patch_weight(&self.g, e, weight);
            let leaf = self.hier.leaf_of_edge(e);
            if leaf.is_valid() {
                leaves.push(leaf);
            }
        }
        Ok(self.shortcuts.repair(
            &self.g,
            &self.hier,
            self.cfg.metric,
            &leaves,
            &BordersBefore::default(),
            &self.cfg.shortcuts,
            &mut self.workers,
        ))
    }

    /// Adds a new intersection (used when road construction introduces new
    /// nodes); connect it with [`RoadFramework::add_edge`].
    pub fn add_node(&mut self, at: Point) -> NodeId {
        let n = Arc::make_mut(&mut self.g).add_node(at);
        // The arena's offset table must cover the new node id; an isolated
        // node has no arcs, so a rebuild here is cheap and keeps `arcs`
        // in-range without special cases.
        self.rebuild_arena();
        n
    }

    /// Adds a road segment (Section 5.2.2, "addition of a new edge").
    ///
    /// The edge joins the finest Rnet of one of its endpoints' existing
    /// edges; endpoints whose incident edges now span several Rnets are
    /// promoted to border nodes and all affected Rnets' shortcuts are
    /// refreshed.
    ///
    /// Fallback: when *both* endpoints are isolated (no incident edges
    /// anywhere), no Rnet is implied by the topology, so the edge is
    /// hosted in the finest Rnet geometrically nearest the endpoints —
    /// the leaf containing the edge endpoint closest to the new segment's
    /// midpoint. Only a network with no edges at all falls back to the
    /// first leaf.
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        weights: (Weight, Weight, Weight),
    ) -> Result<(EdgeId, UpdateOutcome), RoadError> {
        // Choose the host leaf Rnet before mutating anything: prefer a leaf
        // shared by both endpoints (Case 1), then a's side, then b's
        // (Case 2 promotes the far endpoint to a border node).
        let leaf_candidates = |n: NodeId| -> Vec<RnetId> {
            self.g
                .neighbors(n)
                .map(|(e, _)| self.hier.leaf_of_edge(e))
                .filter(|r| r.is_valid())
                .collect()
        };
        let leaves_a = leaf_candidates(a);
        let leaves_b = leaf_candidates(b);
        let leaf = leaves_a
            .iter()
            .find(|r| leaves_b.contains(r))
            .or(leaves_a.first())
            .or(leaves_b.first())
            .copied()
            .unwrap_or_else(|| self.nearest_leaf_rnet(a, b));
        let e = Arc::make_mut(&mut self.g).add_edge(a, b, weights.0, weights.1, weights.2)?;
        Arc::make_mut(&mut self.hier).assign_edge(e, leaf);
        Ok((e, self.repair_after_topology_change(&[a, b], leaf)?))
    }

    /// The finest Rnet whose edges come geometrically closest to the
    /// midpoint of `a` and `b` — the host for an edge between two isolated
    /// nodes, where no existing edge implies a leaf. Falls back to the
    /// first leaf only when every leaf is empty.
    fn nearest_leaf_rnet(&self, a: NodeId, b: NodeId) -> RnetId {
        let (pa, pb) = (self.g.coord(a), self.g.coord(b));
        let mid = Point::new((pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0);
        let Some(first) = self.hier.rnets_at_level(self.hier.levels()).next() else {
            // A hierarchy with no leaves is degenerate; nothing to pick.
            return RnetId(0);
        };
        let mut best: (f64, RnetId) = (f64::INFINITY, first);
        for r in self.hier.rnets_at_level(self.hier.levels()) {
            for &e in self.hier.leaf_edge_list(r) {
                let (u, v) = self.g.edge(e).endpoints();
                for n in [u, v] {
                    let d = mid.distance(self.g.coord(n));
                    if d < best.0 {
                        best = (d, r);
                    }
                }
            }
        }
        best.1
    }

    /// Removes a road segment (Section 5.2.2, "deletion of an existing
    /// edge"). Fails if any of the given directories still has objects on
    /// the edge (they would silently become unreachable).
    pub fn remove_edge(
        &mut self,
        e: EdgeId,
        directories: &[&AssociationDirectory],
    ) -> Result<UpdateOutcome, RoadError> {
        for ad in directories {
            let count = ad.objects_on_edge(e).count();
            if count > 0 {
                return Err(RoadError::EdgeHasObjects(e, count));
            }
        }
        if e.index() >= self.g.edge_slots() || self.g.edge(e).is_deleted() {
            return Err(RoadError::EdgeUnavailable(e));
        }
        let (a, b) = self.g.edge(e).endpoints();
        let leaf = self.hier.leaf_of_edge(e);
        Arc::make_mut(&mut self.g).remove_edge(e)?;
        Arc::make_mut(&mut self.hier).unassign_edge(e);
        self.repair_after_topology_change(&[a, b], leaf)
    }

    /// Re-joins the query arena from the network and hierarchy, keeping
    /// the replaced arena's copy count in `bytes_copied`.
    fn rebuild_arena(&mut self) {
        self.retired_copies += self.arena.bytes_copied();
        self.arena = Arc::new(QueryArena::build(&self.g, &self.hier, self.cfg.metric));
    }

    /// After a topology change touching `nodes` and leaf Rnet `leaf`:
    /// refresh border bookkeeping, then recompute shortcuts for the
    /// ancestor closure of every affected Rnet.
    fn repair_after_topology_change(
        &mut self,
        nodes: &[NodeId],
        leaf: RnetId,
    ) -> Result<UpdateOutcome, RoadError> {
        fn add_chain(hier: &RnetHierarchy, mut r: RnetId, affected: &mut Vec<RnetId>) {
            while r.is_valid() {
                affected.push(r);
                r = hier.parent(r);
            }
        }
        let mut outcome = UpdateOutcome::default();
        let mut affected: Vec<RnetId> = Vec::new();
        let mut before = BordersBefore::default();
        // Topology changed: re-join the query arena (edge set and leaf
        // assignments moved). O(V + E), dwarfed by the shortcut refreshes
        // below.
        self.rebuild_arena();
        // Border bookkeeping mutates the hierarchy; un-share it once here
        // (a no-op unless a snapshot fork still references it).
        let hier = Arc::make_mut(&mut self.hier);
        if leaf.is_valid() {
            add_chain(hier, leaf, &mut affected);
        }
        for &n in nodes {
            let (gained, lost) = hier.refresh_node_borders(&self.g, n, &mut before)?;
            outcome.borders_promoted += usize::from(!gained.is_empty());
            outcome.borders_demoted += usize::from(!lost.is_empty());
            for r in gained.into_iter().chain(lost) {
                add_chain(hier, r, &mut affected);
            }
            // Every Rnet the node still borders may gain/lose shortcuts
            // through the changed edge set.
            for e in hier.shortcut_tree(n) {
                add_chain(hier, e.rnet, &mut affected);
            }
        }
        // Every Rnet on the list is refreshed; the list is closed under
        // parents, so none is left to the children's verdicts.
        let repaired = self.shortcuts.repair(
            &self.g,
            &self.hier,
            self.cfg.metric,
            &affected,
            &before,
            &self.cfg.shortcuts,
            &mut self.workers,
        );
        outcome.absorb(&repaired);
        Ok(outcome)
    }

    /// Full consistency check against fresh rebuilds (tests only — this is
    /// as expensive as constructing the framework).
    pub fn verify(&self) -> Result<(), String> {
        self.hier.validate(&self.g)?;
        self.shortcuts.verify_against_rebuild(
            &self.g,
            &self.hier,
            self.cfg.metric,
            &self.cfg.shortcuts,
        )
    }
}

impl std::fmt::Debug for RoadFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoadFramework")
            .field("nodes", &self.g.num_nodes())
            .field("edges", &self.g.num_edges())
            .field("levels", &self.hier.levels())
            .field("fanout", &self.hier.fanout())
            .field("shortcuts", &self.shortcuts.num_shortcuts())
            .finish()
    }
}

/// Fluent builder returned by [`RoadFramework::builder`].
pub struct RoadBuilder {
    g: RoadNetwork,
    cfg: RoadConfig,
}

impl RoadBuilder {
    /// Sets the partition fanout `p` (power of two; paper default 4).
    pub fn fanout(mut self, p: usize) -> Self {
        self.cfg.hierarchy.fanout = p;
        self
    }

    /// Sets the number of hierarchy levels `l`.
    pub fn levels(mut self, l: u32) -> Self {
        self.cfg.hierarchy.levels = l;
        self
    }

    /// Sets the distance metric.
    pub fn metric(mut self, kind: WeightKind) -> Self {
        self.cfg.metric = kind;
        self
    }

    /// Sets the worker-thread count of the build — the hierarchy's
    /// partitioning rounds and shortcut construction — and of repair after
    /// an update, which drains its Rnets the way a build does, a parent as
    /// soon as its own children are done (`0` = all hardware threads, `1` =
    /// inline). A pure speed knob: it never changes
    /// the partition or a single output byte.
    pub fn shortcut_threads(mut self, threads: usize) -> Self {
        self.cfg.shortcuts.threads = threads;
        self
    }

    /// Builds the framework.
    pub fn build(self) -> Result<RoadFramework, RoadError> {
        RoadFramework::build(self.g, self.cfg)
    }
}
