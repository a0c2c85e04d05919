//! LDSQ evaluation: `kNNSearch`, `RangeSearch` and `ChoosePath`
//! (Section 4, Figures 9 and 10).
//!
//! The engine is a network expansion over the Route Overlay: a priority
//! queue holds pending *nodes and objects* in non-descending distance
//! order. Settling a node looks its objects up in the Association
//! Directory and then runs `ChoosePath`, which walks the node's shortcut
//! tree top-down — one forward scan over the flattened tree the hierarchy
//! keeps per border node: an Rnet whose object abstract cannot match the
//! query's filter is **bypassed** — its border nodes are enqueued through
//! shortcuts without visiting anything inside, and the scan jumps past its
//! subtree — while Rnets that may contain matches are *descended* level by
//! level until physical edges are relaxed. The first `k` objects popped are the kNNs; a range search
//! terminates when the expansion front passes the radius.
//!
//! Bypass or descend is decided once per Rnet per query. The verdict —
//! the abstract may match, or (point-to-point routing) the Rnet contains
//! the target — does not depend on which border node the scan reached the
//! Rnet from, so the loop keeps it in the workspace's round-stamped
//! per-Rnet table and asks its storage source only the first time.
//! [`SearchStats::abstract_checks`] counts verdicts *consulted*, as it
//! always has (every consulted Rnet is bypassed or descended, so it is
//! their sum); [`SearchStats::abstract_lookups`] counts the ones fetched.
//! The memo changes how often the source is asked, never what it answers:
//! hits, tie order and every expansion counter are those of the loop that
//! asked every time.
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

use crate::association::AssociationDirectory;
use crate::framework::RoadFramework;
use crate::hierarchy::RnetId;
use crate::model::{ObjectFilter, ObjectId};
use crate::workspace::{self, Hop, PooledWorkspace, QueueKey, SearchWorkspace};
use crate::RoadError;
use road_network::dijkstra;
use road_network::hash::FastMap;
use road_network::path::Path;
use road_network::{EdgeId, NodeId, Weight};

/// A k-nearest-neighbour query (e.g. Q2 in the paper's introduction).
#[derive(Clone, Debug)]
pub struct KnnQuery {
    /// The query node `n_q`.
    pub node: NodeId,
    /// Number of neighbours to retrieve.
    pub k: usize,
    /// Attribute predicate `A`.
    pub filter: ObjectFilter,
    /// Optional distance cap: the *bounded kNN* combination ("the 5
    /// nearest hotels, but only within 20 minutes"). `None` = plain kNN.
    pub max_distance: Option<Weight>,
}

impl KnnQuery {
    /// A kNN query with no attribute filter.
    pub fn new(node: NodeId, k: usize) -> Self {
        KnnQuery { node, k, filter: ObjectFilter::Any, max_distance: None }
    }

    /// Adds an attribute filter.
    pub fn with_filter(mut self, filter: ObjectFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Caps the distance (bounded kNN). The search stops at the cap even
    /// when fewer than `k` objects exist inside it.
    pub fn within(mut self, max_distance: Weight) -> Self {
        self.max_distance = Some(max_distance);
        self
    }

    /// The loop's termination discipline for this query.
    pub(crate) fn mode(&self) -> Mode {
        Mode::Knn(self.k, self.max_distance)
    }
}

/// A range query (e.g. Q1 in the paper's introduction).
#[derive(Clone, Debug)]
pub struct RangeQuery {
    /// The query node `n_q`.
    pub node: NodeId,
    /// Distance bound `D` under the framework's metric.
    pub radius: Weight,
    /// Attribute predicate `A`.
    pub filter: ObjectFilter,
}

impl RangeQuery {
    /// A range query with no attribute filter.
    pub fn new(node: NodeId, radius: Weight) -> Self {
        RangeQuery { node, radius, filter: ObjectFilter::Any }
    }

    /// Adds an attribute filter.
    pub fn with_filter(mut self, filter: ObjectFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The loop's termination discipline for this query.
    pub(crate) fn mode(&self) -> Mode {
        Mode::Range(self.radius)
    }
}

/// One answer object with its network distance from the query node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchHit {
    /// The object.
    pub object: ObjectId,
    /// `||n_q, o||`.
    pub distance: Weight,
}

/// How an aggregate query combines the distances from its query nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Aggregate {
    /// Minimise the total distance over all query nodes (a meeting point
    /// cheap for the whole group).
    #[default]
    Sum,
    /// Minimise the worst distance over all query nodes (fair for the
    /// farthest member).
    Max,
}

impl Aggregate {
    /// Folds one member distance into a running aggregate.
    pub fn combine(self, acc: Weight, d: Weight) -> Weight {
        match self {
            Aggregate::Sum => acc + d,
            Aggregate::Max => acc.max(d),
        }
    }
}

/// An aggregate k-nearest-neighbour query over a *group* of query nodes
/// (the ANN queries of the paper's ref \[19\], evaluated here on the ROAD
/// overlay): find the k objects minimising the aggregate of their network
/// distances from every group member.
#[derive(Clone, Debug)]
pub struct AggregateKnnQuery {
    /// The query group `Q` (at least one node).
    pub nodes: Vec<NodeId>,
    /// Number of answers.
    pub k: usize,
    /// Attribute predicate.
    pub filter: ObjectFilter,
    /// Distance combinator.
    pub aggregate: Aggregate,
}

impl AggregateKnnQuery {
    /// A sum-aggregate query with no filter.
    pub fn new(nodes: Vec<NodeId>, k: usize) -> Self {
        AggregateKnnQuery { nodes, k, filter: ObjectFilter::Any, aggregate: Aggregate::Sum }
    }

    /// Sets the combinator.
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Adds an attribute filter.
    pub fn with_filter(mut self, filter: ObjectFilter) -> Self {
        self.filter = filter;
        self
    }
}

/// Work counters of one search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes settled (popped un-visited from the queue).
    pub nodes_settled: usize,
    /// Physical edges relaxed.
    pub edges_relaxed: usize,
    /// Shortcuts relaxed (jumps taken over bypassed Rnets).
    pub shortcuts_taken: usize,
    /// Rnets bypassed after an abstract miss.
    pub rnets_bypassed: usize,
    /// Rnets descended into because their abstract may match.
    pub rnets_descended: usize,
    /// Enter-or-bypass verdicts consulted, one per shortcut-tree entry
    /// the scan stopped at.
    pub abstract_checks: usize,
    /// Verdicts that had to be fetched from the source — the Rnet's object
    /// abstract and, for point-to-point routing, its containment test —
    /// because this query had not asked about the Rnet before: the number
    /// of distinct Rnets consulted. Never above `abstract_checks`; the
    /// difference was answered from the workspace's per-Rnet memo.
    pub abstract_lookups: usize,
    /// Objects read from the directory at settled nodes.
    pub objects_read: usize,
    /// Priority-queue pushes.
    pub heap_pushes: usize,
    /// Logical page accesses through the buffer pool. Always 0 for the
    /// in-memory engines; [`crate::paged::PagedEngine`] reads every record
    /// through its pool and reports the traffic here.
    pub pages_read: usize,
    /// Page accesses that missed the buffer pool and had to fault the page
    /// in from the store — the paper's disk-I/O metric.
    pub page_faults: usize,
    /// `true` when this query ran on a [`SearchWorkspace`] that had
    /// already served earlier queries — i.e. its scratch containers were
    /// recycled instead of freshly allocated (`tests/engine_tests.rs`
    /// holds every query of a serving loop after the first to it).
    pub workspace_reused: bool,
}

impl SearchStats {
    /// Accumulates another search's counters (used by multi-expansion
    /// queries such as aggregate kNN).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes_settled += other.nodes_settled;
        self.edges_relaxed += other.edges_relaxed;
        self.shortcuts_taken += other.shortcuts_taken;
        self.rnets_bypassed += other.rnets_bypassed;
        self.rnets_descended += other.rnets_descended;
        self.abstract_checks += other.abstract_checks;
        self.abstract_lookups += other.abstract_lookups;
        self.objects_read += other.objects_read;
        self.heap_pushes += other.heap_pushes;
        self.pages_read += other.pages_read;
        self.page_faults += other.page_faults;
        self.workspace_reused |= other.workspace_reused;
    }

    /// Fraction of page accesses served from the buffer pool. `1.0` for a
    /// query that touched no pages (the in-memory engines).
    pub fn buffer_hit_rate(&self) -> f64 {
        if self.pages_read == 0 {
            1.0
        } else {
            1.0 - self.page_faults as f64 / self.pages_read as f64
        }
    }
}

/// Result of a kNN or range search.
///
/// Holds the workspace that ran the query (recycled into a per-thread pool
/// on drop), so the distance labels and predecessor links stay readable
/// for [`SearchResult::distance_to_node`] and
/// [`SearchResult::path_to_node`] without copying them out.
pub struct SearchResult {
    /// Answer objects in non-descending distance order.
    pub hits: Vec<SearchHit>,
    /// Work counters.
    pub stats: SearchStats,
    source: NodeId,
    ws: PooledWorkspace,
}

impl SearchResult {
    /// The labelled network distance of `n`, if the search reached it.
    pub fn distance_to_node(&self, n: NodeId) -> Option<Weight> {
        self.ws.get()?.label_of(n.0)
    }

    /// Reconstructs the full physical path from the query node to `n`,
    /// expanding every shortcut hop. `None` if the search never reached
    /// `n`.
    pub fn path_to_node(&self, fw: &RoadFramework, n: NodeId) -> Option<Path> {
        let ws = self.ws.get()?;
        ws.label_of(n.0)?;
        let mut hops = Vec::new();
        let mut cur = n.0;
        while cur != self.source.0 {
            let (prev, hop) = ws.pred_of(cur)?;
            hops.push((prev, hop, cur));
            cur = prev;
        }
        hops.reverse();
        let mut path = Path::trivial(self.source);
        for (prev, hop, cur) in hops {
            let seg = match hop {
                Hop::Edge(e) => Path::from_parts(
                    vec![NodeId(prev), NodeId(cur)],
                    vec![e],
                    fw.network().weight(e, fw.metric()),
                ),
                Hop::Shortcut(r) => {
                    let sc =
                        fw.shortcuts().between(fw.hierarchy(), r, NodeId(prev), NodeId(cur))?;
                    fw.shortcuts().expand(
                        fw.network(),
                        fw.hierarchy(),
                        fw.metric(),
                        r,
                        NodeId(prev),
                        sc,
                    )?
                }
            };
            path.extend(&seg);
        }
        Some(path)
    }

    /// Path to a hit: the node path to the cheaper endpoint of the
    /// object's edge, plus `(edge, offset along it)` for the last leg.
    pub fn path_to_hit(
        &self,
        fw: &RoadFramework,
        ad: &AssociationDirectory,
        hit: &SearchHit,
    ) -> Option<(Path, EdgeId, Weight)> {
        let object = ad.object(hit.object)?;
        let (a, b) = fw.network().edge(object.edge).endpoints();
        let kind = fw.metric();
        let via_a = self.distance_to_node(a).map(|d| d + object.offset_from(fw.network(), kind, a));
        let via_b = self.distance_to_node(b).map(|d| d + object.offset_from(fw.network(), kind, b));
        let endpoint = match (via_a, via_b) {
            (Some(da), Some(db)) => {
                if da <= db {
                    a
                } else {
                    b
                }
            }
            (Some(_), None) => a,
            (None, Some(_)) => b,
            (None, None) => return None,
        };
        let path = self.path_to_node(fw, endpoint)?;
        let offset = object.offset_from(fw.network(), kind, endpoint);
        Some((path, object.edge, offset))
    }
}

/// Search mode: the three termination disciplines of the engine.
pub(crate) enum Mode {
    /// k results, optionally capped by a distance bound.
    Knn(usize, Option<Weight>),
    Range(Weight),
    /// Point-to-point distance query: expand until the target settles.
    /// With no objects to find, every Rnet not containing the target is
    /// bypassed, giving HEPV/HiTi-style hierarchical routing for free.
    ToNode(NodeId),
}

/// Where the expansion reads the Route Overlay and Association Directory
/// from. One implementation serves from the deserialized in-memory
/// structures ([`MemorySource`]); the other reads every record through a
/// buffer pool over 4 KB pages ([`crate::paged::PagedEngine`]). Both feed
/// the **same** expansion loop ([`execute_source_into`]) through the
/// **same** runners ([`run`], [`run_into`], [`aggregate`], [`distance`]),
/// each engine saying only how it opens a source ([`Backend`]) — which is
/// what guarantees the paged engine answers byte-for-byte like the
/// in-memory one: the traversal logic cannot diverge, only the storage
/// behind it.
///
/// Visitor methods take `&mut self` because paged reads mutate the buffer
/// pool (faults, LRU order, lazy Rnet loads). Visit order is part of the
/// contract: implementations must yield records in the same order the
/// in-memory structures iterate them, or tie-breaking diverges. The loop is
/// compiled once per source and the visitors are `impl FnMut`, so the
/// per-record relaxation inlines into the source's record walk.
pub(crate) trait SearchSource {
    /// Number of nodes in the served network (sizes the workspace).
    fn num_nodes(&self) -> usize;
    /// The Rnet hierarchy (always RAM-resident: it is the search skeleton).
    fn hierarchy(&self) -> &std::sync::Arc<crate::hierarchy::RnetHierarchy>;
    /// `true` when an object directory is attached.
    fn has_directory(&self) -> bool;
    /// Visits every object associated with node `n`, in directory order:
    /// `(object id, category, offset of the object from n)`. Fallible like
    /// every accessor here: a paged source reads records through a shared
    /// buffer pool whose locks can be poisoned and whose pages can decode
    /// corrupt, and either failure must reach the query as an `Err`
    /// instead of panicking the serving thread.
    fn objects_at(
        &mut self,
        n: NodeId,
        visit: impl FnMut(u64, crate::model::CategoryId, Weight),
    ) -> Result<(), RoadError>;
    /// May Rnet `r` contain objects matching `filter`? (Abstract lookup.)
    fn rnet_may_match(&mut self, r: RnetId, filter: &ObjectFilter) -> Result<bool, RoadError>;
    /// Visits the usable physical edges at `n` as `(edge, neighbour,
    /// weight)`, skipping infinite-weight edges; with `leaf` set, only the
    /// edges belonging to that leaf Rnet.
    fn edges_at(
        &mut self,
        n: NodeId,
        leaf: Option<RnetId>,
        visit: impl FnMut(EdgeId, u32, Weight),
    ) -> Result<(), RoadError>;
    /// Visits the outgoing shortcuts of the border in `slot` of Rnet `r`
    /// (its index in [`RnetHierarchy::borders`](crate::hierarchy::RnetHierarchy::borders),
    /// read off its shortcut tree) as `(target border node, shortcut
    /// distance)`. Fallible: a paged source
    /// may have to decode the Rnet's shortcut section from a retained
    /// image on first touch, and a section found corrupt *at query time*
    /// must surface as an error — silently visiting nothing would be
    /// indistinguishable from "Rnet has no shortcuts" and produce wrong
    /// answers.
    fn shortcuts_at(
        &mut self,
        r: RnetId,
        slot: usize,
        visit: impl FnMut(u32, Weight),
    ) -> Result<(), RoadError>;
    /// Does Rnet `r` contain node `t` (as member or border)? Drives
    /// [`Mode::ToNode`] routing.
    fn rnet_contains_node(&mut self, r: RnetId, t: NodeId) -> Result<bool, RoadError>;
    /// Cumulative `(logical page reads, page faults)` so far; the loop
    /// diffs this around the query to fill [`SearchStats::pages_read`] /
    /// [`SearchStats::page_faults`]. In-memory sources report `(0, 0)`.
    fn io_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// An engine as the query doors see it: something that opens a
/// [`SearchSource`] for each expansion. Every public door of every engine
/// is one call of a runner below on its backend.
pub(crate) trait Backend {
    /// One expansion's view of the engine's storage.
    type Source<'a>: SearchSource
    where
        Self: 'a;
    /// Opens a source. `objects = false` is the point-to-point routing
    /// configuration: the directory is not consulted.
    fn source(&self, objects: bool) -> Self::Source<'_>;
}

/// The RAM-resident source: the framework's own structures.
pub(crate) struct MemorySource<'a> {
    pub fw: &'a RoadFramework,
    pub ad: Option<&'a AssociationDirectory>,
}

/// The in-memory engines' backend is their source: reading RAM needs no
/// per-query state.
impl<'f> Backend for MemorySource<'f> {
    type Source<'a>
        = MemorySource<'f>
    where
        Self: 'a;

    fn source(&self, objects: bool) -> MemorySource<'f> {
        MemorySource { fw: self.fw, ad: self.ad.filter(|_| objects) }
    }
}

impl SearchSource for MemorySource<'_> {
    fn num_nodes(&self) -> usize {
        self.fw.network().num_nodes()
    }

    fn hierarchy(&self) -> &std::sync::Arc<crate::hierarchy::RnetHierarchy> {
        self.fw.hierarchy_arc()
    }

    fn has_directory(&self) -> bool {
        self.ad.is_some()
    }

    fn objects_at(
        &mut self,
        n: NodeId,
        mut visit: impl FnMut(u64, crate::model::CategoryId, Weight),
    ) -> Result<(), RoadError> {
        let Some(ad) = self.ad else { return Ok(()) };
        let g = self.fw.network();
        let kind = self.fw.metric();
        for object in ad.objects_at_node(n) {
            visit(object.id.0, object.category, object.offset_from(g, kind, n));
        }
        Ok(())
    }

    fn rnet_may_match(&mut self, r: RnetId, filter: &ObjectFilter) -> Result<bool, RoadError> {
        self.ad.map_or(Ok(false), |ad| ad.rnet_may_match(r, filter))
    }

    fn edges_at(
        &mut self,
        n: NodeId,
        leaf: Option<RnetId>,
        mut visit: impl FnMut(EdgeId, u32, Weight),
    ) -> Result<(), RoadError> {
        // Stream the framework's pre-joined flat arena (see [`crate::arena`]):
        // edge id, head, metric weight and owning leaf live in parallel flat
        // vectors, so the expansion loop takes no detour through the edge
        // records or the hierarchy. Arc order equals `neighbors` order.
        for (e, v, w, leaf_r) in self.fw.arena().arcs(n.0) {
            if let Some(r) = leaf {
                if leaf_r != r {
                    continue;
                }
            }
            if w.is_infinite() {
                continue;
            }
            visit(e, v.0, w);
        }
        Ok(())
    }

    fn shortcuts_at(
        &mut self,
        r: RnetId,
        slot: usize,
        mut visit: impl FnMut(u32, Weight),
    ) -> Result<(), RoadError> {
        for sc in self.fw.shortcuts().heads_at(r, slot).iter() {
            visit(sc.to.0, sc.dist);
        }
        Ok(())
    }

    fn rnet_contains_node(&mut self, r: RnetId, t: NodeId) -> Result<bool, RoadError> {
        let hier = self.fw.hierarchy();
        if hier.is_border_of(t, r) {
            return Ok(true);
        }
        let lv = hier.level_of(r);
        Ok(self.fw.network().neighbors(t).any(|(e, _)| hier.rnet_of_edge_at(e, lv) == r))
    }
}

/// A query on a workspace borrowed from the per-thread pool: the pooled
/// doors. Only point-to-point routing ([`Mode::ToNode`]) opens its source
/// without the directory. The workspace travels into the returned
/// [`SearchResult`] (keeping distance labels readable) and is recycled
/// when the result is dropped.
pub(crate) fn run(
    be: &impl Backend,
    node: NodeId,
    filter: &ObjectFilter,
    mode: Mode,
) -> Result<SearchResult, RoadError> {
    let mut src = be.source(!matches!(mode, Mode::ToNode(_)));
    let mut ws = workspace::acquire();
    let mut hits = Vec::new();
    match execute_source_into(&mut src, node, filter, mode, true, &mut ws, &mut hits) {
        Ok(stats) => Ok(SearchResult { hits, stats, source: node, ws: PooledWorkspace::new(ws) }),
        Err(e) => {
            workspace::release(ws);
            Err(e)
        }
    }
}

/// A kNN or range query into the caller's workspace and hit buffer (cleared
/// first): the allocation-free `_with` doors and the batch workers. Nothing
/// reconstructs a path from `ws` afterwards, so the query records none:
/// the workspace keeps this query's distance labels, and no predecessor
/// link is written.
pub(crate) fn run_into(
    be: &impl Backend,
    node: NodeId,
    filter: &ObjectFilter,
    mode: Mode,
    ws: &mut SearchWorkspace,
    hits: &mut Vec<SearchHit>,
) -> Result<SearchStats, RoadError> {
    execute_source_into(&mut be.source(true), node, filter, mode, false, ws, hits)
}

/// Point-to-point routing from `from` until `to` settles: the distance
/// doors read [`SearchResult::distance_to_node`] off the result,
/// `shortest_path` reads [`SearchResult::path_to_node`].
pub(crate) fn distance(
    be: &impl Backend,
    from: NodeId,
    to: NodeId,
) -> Result<SearchResult, RoadError> {
    run(be, from, &ObjectFilter::Any, Mode::ToNode(to))
}

/// The one expansion loop behind every engine (see [`SearchSource`]).
/// `paths` says whether the round records predecessor links
/// ([`SearchWorkspace::begin`]); it changes nothing else.
pub(crate) fn execute_source_into(
    src: &mut impl SearchSource,
    source: NodeId,
    filter: &ObjectFilter,
    mode: Mode,
    paths: bool,
    ws: &mut SearchWorkspace,
    hits: &mut Vec<SearchHit>,
) -> Result<SearchStats, RoadError> {
    let num_nodes = src.num_nodes();
    let hier = std::sync::Arc::clone(src.hierarchy());
    let has_directory = src.has_directory();
    if source.index() >= num_nodes {
        return Err(RoadError::NodeOutOfBounds(source));
    }
    // A routing target is probed from the first Rnet the search meets, so
    // it is checked before anything expands, like the source.
    if let Mode::ToNode(target) = mode {
        if target.index() >= num_nodes {
            return Err(RoadError::NodeOutOfBounds(target));
        }
    }

    let mut stats = SearchStats { workspace_reused: ws.reuse_count() > 0, ..Default::default() };
    let io_before = src.io_counters();
    hits.clear();
    ws.begin(num_nodes, hier.num_rnets(), paths);

    let want = match mode {
        Mode::Knn(k, _) => k,
        _ => usize::MAX,
    };
    let bound = match mode {
        Mode::Knn(_, b) => b,
        Mode::Range(r) => Some(r),
        Mode::ToNode(_) => None,
    };
    if want == 0 {
        return Ok(stats);
    }

    ws.label_source(source.0);
    ws.push(Weight::ZERO, QueueKey::Node(source.0));
    stats.heap_pushes += 1;

    // The LDSQ expansion loop: every scratch container below is recycled
    // workspace state. roadlint rejects fresh heap allocations in here.
    // roadlint: hot-path
    while let Some((d, key)) = ws.pop() {
        match key {
            QueueKey::Object(oid) => {
                if !ws.first_object_sighting(oid) {
                    continue;
                }
                hits.push(SearchHit { object: ObjectId(oid), distance: d });
                if hits.len() >= want {
                    break;
                }
            }
            QueueKey::Node(n) => {
                if !ws.settle(n, d) {
                    continue; // stale entry
                }
                stats.nodes_settled += 1;
                if let Some(b) = bound {
                    if d > b {
                        break; // expansion front passed the cap
                    }
                }
                if let Mode::ToNode(t) = mode {
                    if t.0 == n {
                        break;
                    }
                }
                // --- SearchObject: collect objects at this node --------
                if has_directory {
                    src.objects_at(NodeId(n), |oid, category, offset| {
                        stats.objects_read += 1;
                        if !filter.accepts_category(category) || ws.object_seen(oid) {
                            return;
                        }
                        let total = d + offset;
                        // An object on a closed (infinite-weight) edge is
                        // unreachable, not a hit at distance inf.
                        if !total.is_finite() {
                            return;
                        }
                        if let Some(b) = bound {
                            if total > b {
                                return;
                            }
                        }
                        ws.push(total, QueueKey::Object(oid));
                        stats.heap_pushes += 1;
                    })?;
                }
                // --- ChoosePath: pick edges and shortcuts to relax -----
                // One forward scan over the node's flattened shortcut tree
                // (see `hierarchy::TreeEntry`): entries come in the order
                // the top-down walk visits them, a bypass continues past
                // the bypassed Rnet's subtree.
                let tree = hier.shortcut_tree(NodeId(n));
                if tree.is_empty() {
                    // Interior node: the shortcut tree is a single leaf
                    // holding the physical edges.
                    src.edges_at(NodeId(n), None, |e, v, w| {
                        stats.edges_relaxed += 1;
                        if ws.relax(n, v, d + w, Hop::Edge(e)) {
                            stats.heap_pushes += 1;
                        }
                    })?;
                    continue;
                }
                let mut at = 0;
                while let Some(&entry) = tree.get(at) {
                    let r = entry.rnet;
                    stats.abstract_checks += 1;
                    // The verdict is a function of (query, Rnet) alone, so
                    // the source is asked once per Rnet; every other border
                    // node that reaches `r` reads the answer back.
                    let enter = match ws.verdict(r) {
                        Some(enter) => enter,
                        None => {
                            stats.abstract_lookups += 1;
                            let may_match = has_directory && src.rnet_may_match(r, filter)?;
                            let must_enter = match mode {
                                Mode::ToNode(t) => src.rnet_contains_node(r, t)?,
                                _ => false,
                            };
                            let enter = may_match || must_enter;
                            ws.set_verdict(r, enter);
                            enter
                        }
                    };
                    if !enter {
                        // Bypass: jump to the Rnet's other borders.
                        stats.rnets_bypassed += 1;
                        src.shortcuts_at(r, entry.slot(), |to, dist| {
                            stats.shortcuts_taken += 1;
                            if ws.relax(n, to, d + dist, Hop::Shortcut(r)) {
                                stats.heap_pushes += 1;
                            }
                        })?;
                        at = entry.skip();
                        continue;
                    }
                    stats.rnets_descended += 1;
                    if entry.is_leaf() {
                        src.edges_at(NodeId(n), Some(r), |e, v, w| {
                            stats.edges_relaxed += 1;
                            if ws.relax(n, v, d + w, Hop::Edge(e)) {
                                stats.heap_pushes += 1;
                            }
                        })?;
                    }
                    at += 1;
                }
            }
        }
    }
    // roadlint: end hot-path
    let io_after = src.io_counters();
    stats.pages_read = (io_after.0 - io_before.0) as usize;
    stats.page_faults = (io_after.1 - io_before.1) as usize;
    Ok(stats)
}

/// Aggregate kNN over any [`Backend`]; see
/// [`RoadFramework::aggregate_knn_with_stats`] for the strategy
/// (discovery expansion from member 0, then triangle-inequality-bounded
/// expansions for the remaining members).
pub(crate) fn aggregate(
    be: &impl Backend,
    query: &AggregateKnnQuery,
) -> Result<(Vec<SearchHit>, SearchStats), RoadError> {
    let Some(&first_node) = query.nodes.first() else {
        return Err(RoadError::InvalidConfig("aggregate query needs >= 1 node".into()));
    };
    let mut total = SearchStats::default();
    if query.k == 0 {
        return Ok((Vec::new(), total));
    }
    let m = query.nodes.len();
    if m == 1 {
        // A single-member group is a plain kNN.
        let mut res = run(be, first_node, &query.filter, Mode::Knn(query.k, None))?;
        total.absorb(&res.stats);
        return Ok((std::mem::take(&mut res.hits), total));
    }

    // Member 0: unbounded discovery of every candidate.
    let first = run(be, first_node, &query.filter, Mode::Range(Weight::INFINITY))?;
    total.absorb(&first.stats);
    if first.hits.is_empty() {
        return Ok((Vec::new(), total));
    }

    // Member-to-member distances from member 0 (the triangle tails).
    let mut member_dist: Vec<Weight> = Vec::with_capacity(m);
    member_dist.push(Weight::ZERO);
    for &q in query.nodes.iter().skip(1) {
        let res = distance(be, first_node, q)?;
        total.absorb(&res.stats);
        member_dist.push(res.distance_to_node(q).unwrap_or(Weight::INFINITY));
    }

    // Candidates carry (object, d_0, running partial aggregate).
    let mut cands: Vec<(ObjectId, Weight, Weight)> = first
        .hits
        .iter()
        .map(|h| (h.object, h.distance, query.aggregate.combine(Weight::ZERO, h.distance)))
        .collect();
    let mut ubs: Vec<Weight> = Vec::with_capacity(cands.len());
    for (i, &member_node) in query.nodes.iter().enumerate().skip(1) {
        // Upper-bound each candidate's final aggregate: exact partials
        // for processed members, triangle tails for the rest. The k-th
        // smallest is a sound expansion bound for member i.
        let tails = member_dist.get(i..).unwrap_or(&[]);
        ubs.clear();
        ubs.extend(cands.iter().map(|&(_, d0, partial)| {
            let mut ub = partial;
            for &tail in tails {
                ub = query.aggregate.combine(ub, d0 + tail);
            }
            ub
        }));
        let bound = if ubs.len() < query.k {
            Weight::INFINITY
        } else {
            let (_, kth, _) = ubs.select_nth_unstable(query.k - 1);
            // Inflate by a relative epsilon: the triangle-inequality
            // sum `d_0(o) + ||q_0, q_i||` and Dijkstra's edge-by-edge
            // fold of the same path round differently, so a true
            // answer could exceed the exact bound by a few ULPs and
            // be wrongly pruned. Over-admitting costs a little extra
            // expansion; under-admitting costs correctness.
            Weight::new(kth.get() * (1.0 + 1e-9) + f64::MIN_POSITIVE)
        };
        let res = run(be, member_node, &query.filter, Mode::Range(bound))?;
        total.absorb(&res.stats);
        // Hashed: keyed by `ObjectId`, a sparse user-chosen `u64`.
        let di: FastMap<u64, Weight> = res.hits.iter().map(|h| (h.object.0, h.distance)).collect();
        cands.retain_mut(|c| match di.get(&c.0 .0) {
            Some(&d) => {
                c.2 = query.aggregate.combine(c.2, d);
                true
            }
            // Outside member i's (bounded) reach: either unreachable
            // or provably beyond the k-th best aggregate.
            None => false,
        });
        if cands.is_empty() {
            break;
        }
    }
    let mut hits: Vec<SearchHit> =
        cands.into_iter().map(|(o, _, agg)| SearchHit { object: o, distance: agg }).collect();
    hits.sort_by(|a, b| a.distance.cmp(&b.distance).then(a.object.cmp(&b.object)));
    hits.truncate(query.k);
    Ok((hits, total))
}

/// Brute-force oracle used by tests and benchmarks: plain network
/// expansion (no shortcuts, no abstracts), the INE algorithm of ref \[16\].
pub fn oracle_knn(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    query: &KnnQuery,
) -> Vec<SearchHit> {
    oracle(fw, ad, query.node, &query.filter, Some(query.k), query.max_distance)
}

/// Brute-force range oracle.
pub fn oracle_range(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    query: &RangeQuery,
) -> Vec<SearchHit> {
    oracle(fw, ad, query.node, &query.filter, None, Some(query.radius))
}

fn oracle(
    fw: &RoadFramework,
    ad: &AssociationDirectory,
    source: NodeId,
    filter: &ObjectFilter,
    k: Option<usize>,
    radius: Option<Weight>,
) -> Vec<SearchHit> {
    let g = fw.network();
    let kind = fw.metric();
    // Hashed: keyed by `ObjectId`, a sparse user-chosen `u64`.
    let mut best: FastMap<u64, Weight> = FastMap::default();
    // The oracle reuses a thread-pooled Dijkstra: agreement suites fire
    // thousands of reference queries, and a fresh `O(|N|)` state per query
    // would dominate their runtime.
    dijkstra::with_pooled(g, |dij| {
        dij.expand(g, kind, source, |n, d| {
            if let Some(r) = radius {
                if d > r {
                    return dijkstra::Control::Break;
                }
            }
            for object in ad.objects_at_node(n) {
                if !filter.matches(object) {
                    continue;
                }
                let total = d + object.offset_from(g, kind, n);
                let cur = best.get(&object.id.0).copied().unwrap_or(Weight::INFINITY);
                if total < cur {
                    best.insert(object.id.0, total);
                }
            }
            dijkstra::Control::Continue
        });
    });
    let mut hits: Vec<SearchHit> = best
        .into_sorted()
        .into_iter()
        .map(|(o, d)| SearchHit { object: ObjectId(o), distance: d })
        .filter(|h| radius.map(|r| h.distance <= r).unwrap_or(true))
        .collect();
    hits.sort_by(|a, b| a.distance.cmp(&b.distance).then(a.object.cmp(&b.object)));
    if let Some(k) = k {
        hits.truncate(k);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CategoryId, Object};
    use road_network::generator::simple;

    /// The in-memory source, noting every Rnet it is asked a verdict on.
    struct Noting<'a> {
        inner: MemorySource<'a>,
        abstracts_asked: Vec<RnetId>,
        containments_asked: Vec<RnetId>,
    }

    impl SearchSource for Noting<'_> {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn hierarchy(&self) -> &std::sync::Arc<crate::hierarchy::RnetHierarchy> {
            self.inner.hierarchy()
        }
        fn has_directory(&self) -> bool {
            self.inner.has_directory()
        }
        fn objects_at(
            &mut self,
            n: NodeId,
            visit: impl FnMut(u64, CategoryId, Weight),
        ) -> Result<(), RoadError> {
            self.inner.objects_at(n, visit)
        }
        fn rnet_may_match(&mut self, r: RnetId, filter: &ObjectFilter) -> Result<bool, RoadError> {
            self.abstracts_asked.push(r);
            self.inner.rnet_may_match(r, filter)
        }
        fn edges_at(
            &mut self,
            n: NodeId,
            leaf: Option<RnetId>,
            visit: impl FnMut(EdgeId, u32, Weight),
        ) -> Result<(), RoadError> {
            self.inner.edges_at(n, leaf, visit)
        }
        fn shortcuts_at(
            &mut self,
            r: RnetId,
            slot: usize,
            visit: impl FnMut(u32, Weight),
        ) -> Result<(), RoadError> {
            self.inner.shortcuts_at(r, slot, visit)
        }
        fn rnet_contains_node(&mut self, r: RnetId, t: NodeId) -> Result<bool, RoadError> {
            self.containments_asked.push(r);
            self.inner.rnet_contains_node(r, t)
        }
    }

    fn distinct(asked: &[RnetId]) -> usize {
        asked.iter().collect::<std::collections::BTreeSet<_>>().len()
    }

    /// `abstract_lookups` is the number of distinct Rnets the query
    /// consulted, and the source hears about each of them exactly once —
    /// its abstract for an object query, its containment test (the
    /// directory is off) for point-to-point routing — however many border
    /// nodes reach it.
    #[test]
    fn the_source_is_asked_once_per_rnet_and_lookups_counts_those() {
        let grid = simple::grid(12, 12, 1.0);
        let fw = RoadFramework::builder(grid).fanout(4).levels(2).build().unwrap();
        let mut ad = AssociationDirectory::new(fw.hierarchy());
        let edge = fw.network().edge_ids().nth(200).unwrap();
        ad.insert(fw.network(), fw.hierarchy(), Object::new(ObjectId(1), edge, 0.5, CategoryId(0)))
            .unwrap();
        let mut ws = SearchWorkspace::new();
        let mut hits = Vec::new();
        for (ad, mode) in [(Some(&ad), Mode::Knn(1, None)), (None, Mode::ToNode(NodeId(143)))] {
            let mut src = Noting {
                inner: MemorySource { fw: &fw, ad },
                abstracts_asked: Vec::new(),
                containments_asked: Vec::new(),
            };
            let any = ObjectFilter::Any;
            let stats =
                execute_source_into(&mut src, NodeId(0), &any, mode, false, &mut ws, &mut hits)
                    .unwrap();
            let asked = match ad {
                Some(_) => &src.abstracts_asked,
                None => &src.containments_asked,
            };
            assert_eq!(asked.len(), distinct(asked), "an Rnet was asked about twice");
            assert_eq!(stats.abstract_lookups, asked.len());
            assert!(stats.abstract_lookups < stats.abstract_checks, "{stats:?}");
            assert_eq!(stats.abstract_checks, stats.rnets_bypassed + stats.rnets_descended);
        }
    }
}
