//! Shortcuts (Definition 3) and their bottom-up construction (Lemma 2).
//!
//! For every Rnet, shortcuts connect its border nodes along shortest paths
//! *restricted to the Rnet* — the compositional variant Lemma 2 computes:
//! finest-level shortcuts come from Dijkstra runs confined to the Rnet's
//! physical edges, and level-`i` shortcuts run over an overlay graph whose
//! edges are the level-`i+1` shortcuts of the Rnet's children. (Any global
//! shortest path decomposes at border nodes into intra-Rnet segments, so
//! this preserves all network distances; see ARCHITECTURE.md, Design
//! notes §1.)
//!
//! Lemma 4 pruning: a shortcut whose path passes through *another border of
//! the same Rnet* is transitively reachable via that border's own shortcuts
//! at equal total distance, so it is dropped. This keeps the overlay graphs
//! and Route Overlay sparse without losing correctness. It is not optional:
//! every store this module builds or repairs is pruned (ARCHITECTURE.md,
//! design note 2, has the measurement against an unpruned overlay). The
//! canonical form used here is the *matrix rule*: with `dmat` the all-pairs
//! border distance matrix of the Rnet's local graph, the pair `(b, t)` is
//! kept iff `dmat[b][t]` is finite and no third border `m` satisfies
//! `dmat[b][m] + dmat[m][t] <= dmat[b][t]` *with both legs strictly
//! positive* (ties drop — by the triangle inequality a covering pair splits
//! at *exactly* the original distance). Each leg of a cover is then
//! strictly shorter than the pair it covers, so by induction on the
//! distance, chaining kept shortcuts reconstructs every border distance for
//! any non-negative weights. The positive-legs clause is what zero weights
//! need — without it two borders at distance zero cover each other's
//! shortcuts, each pair dropped in favour of the other — and on positive
//! weights it only ever excludes `m == b` and `m == t`, the zero diagonal.
//!
//! Construction is by elimination: instead of one full Dijkstra per border
//! over the local graph, the interior nodes are eliminated and `dmat` is
//! closed over the borders alone, which preserves all pairwise border
//! distances by construction. A local graph of at most
//! [`DENSE_MAX_NODES`] nodes — every Rnet of a hierarchy of the suggested
//! depth, and everything a weight update refreshes — is eliminated as a
//! dense matrix ([`road_network::minplus`]); a larger one (the leaves of a
//! shallow hierarchy run to thousands of nodes) is *contracted*
//! ([`road_network::contractor`]) down to the border-only remainder graph.
//! `dmat` only decides which pairs are kept. What is stored for a kept
//! pair is its shortest *border-free* path — Lemma 4's path shape, no
//! other border of the Rnet inside — as waypoints, and the sum of that
//! path's arc weights from the source onwards as distance. Where it comes
//! from depends on the arm. The dense elimination already holds it: each
//! interior pivot recorded which entries it strictly improved, which is
//! the paper's `S(n1,n3) = (S(n1,nd), S(nd,n3))` read backwards, and the
//! matrix before the closure holds the border-free distances, so the path
//! is unpacked ([`minplus::Elimination::unpack`]) and nothing is searched.
//! The dense arm also computes each pair once: a local graph is undirected
//! — a leaf's edges are assembled both ways at one weight, a child's kept
//! `b → t` and `t → b` are one path summed from either end — so its matrix
//! is symmetric up to rounding, and the elimination, the border closure and
//! the keep rule all work its lower triangle (see [`road_network::minplus`]
//! for why that changes no bit on a leaf). The keep verdict is then one per
//! pair — `b → t` is kept iff `t → b` is — while what is stored stays
//! directional: each direction's distance is the left-to-right sum of its
//! own arcs, read from the triangle the kernels never write, so the two may
//! differ in the last bit exactly as two Dijkstra labels would.
//! The contractor keeps no such record, so its arm runs one *sealed*
//! Dijkstra per source border over the local CSR arena
//! ([`LocalDijkstra::run_csr`] with `seal_below` = the border count):
//! border nodes are settled but never expanded, so the predecessor chains
//! are border-free in a single pass. The legacy all-pairs sweep survives
//! as `ShortcutStore::build_with_oracle` (`#[doc(hidden)]`: the reference
//! the differential tests compare against) and finalises the same way.
//!
//! All builders share the canonical local-graph assembly and the matrix
//! rule, and both finalisations sum a path's arcs in travel order, so the
//! same path is stored at the same bits: the builders' outputs are
//! **byte-identical whenever the shortest border-free path of every kept
//! pair is unique** — any world with real-valued weights, where two
//! different paths do not add up to the same length (pinned by
//! `tests/construction_oracle.rs`, and by the images and update histories
//! of `tests/search_counters.rs`, which were recorded while the dense arm
//! still searched and worked the whole square). Where several border-free
//! paths are equally short (integer weights on a grid) a sealed Dijkstra
//! stores the one it settles first and the elimination the one its last
//! strictly improving pivot left; the builders then still keep the same
//! pairs in the same order at bit-equal distances, and every stored chain
//! is a valid border-free path of exactly that length — which is all a
//! search, or [`ShortcutStore::expand`], ever asks of it.
//!
//! Each shortcut stores its intermediate *waypoints* — physical nodes at
//! the finest level, child border nodes above — which is exactly the
//! paper's representation `S(n1,n3) = (S(n1,nd), S(nd,n3))`; the recursive
//! [`ShortcutStore::expand`] turns a shortcut back into a full physical
//! [`Path`].
//!
//! An Rnet's shortcuts live in one flat arena (`RnetShortcuts`): source
//! border nodes sorted ascending, an offset table, contiguous 16-byte
//! heads `(dist, to, via_end)` in per-source order, and one waypoint
//! vector the heads index into. That is the shape the search loop reads —
//! a bypass is a binary search and a linear scan over heads, no hash, no
//! per-shortcut allocation — and the shape the file format writes, so
//! serializing needs no sort.
//!
//! Each Rnet's arena sits behind its own [`Arc`], and the table of those
//! `Arc`s is a [`CowChunks`] of 64 pointers a chunk: cloning the store
//! copies one pointer per chunk (86 on a 5,460-Rnet hierarchy), and a
//! refresh of one Rnet copies the chunk of pointers that holds it,
//! leaving every other Rnet's arena — and every other chunk — physically
//! shared with prior clones. This is what makes snapshot publication in
//! [`crate::live`] cheap: an update clones only the affected Rnets'
//! shortcut data and a pointer chunk each.

use crate::hierarchy::{RnetHierarchy, RnetId};
use road_network::contractor::{ContractionOrder, Contractor};
use road_network::csr::{CsrBuilder, CsrGraph};
use road_network::dijkstra::LocalDijkstra;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::minplus;
use road_network::path::Path;
use road_network::{CowChunks, NodeId, Weight};
use std::sync::Arc;

/// A copy-on-write chunk of the store's per-Rnet table holds `2^6` arena
/// pointers: a refresh copies one chunk (512 bytes), a fork one pointer
/// per chunk.
const RNET_CHUNK_SHIFT: u32 = 6;

/// Local graphs of at most this many nodes get their border-distance
/// matrix from dense elimination ([`minplus::border_matrix`]); larger ones
/// go through the contractor, since a leaf of thousands of nodes cannot be
/// a matrix (this many nodes are a 2 MiB one, and as much again for the
/// pivots it records). A speed switch on the input's size and nothing
/// else: both arms compute the same border distances, keep the same pairs
/// and store each at the length of its shortest border-free path — read
/// out of the elimination below the switch, searched for by a sealed
/// Dijkstra above it (the module docs say when the two can differ in
/// *which* equally short path they store).
///
/// The value was the measured crossover against the arm above it, on the
/// graphs where that arm is at its best — sparse leaves — before the
/// elimination recorded its pivots: dense won 1.4x at 449–512 nodes and
/// lost (0.8x) at 513–640. Measured again with the pivots recorded and one
/// triangle worked (the fill of the border matrix alone, one thread):
/// on CONT@0.1's leaves at 4 levels (arcs per node 1.9–2.7) dense wins
/// 1.6x at 257–448 nodes and loses (0.8x) at 449–629, on SF@0.25's at 3
/// levels (2.4–2.6) it still wins 1.5x at 643–761, and on the upper
/// levels' near-cliques of child shortcuts (23–184 nodes, up to 62 arcs
/// per node) it wins 36–160x (ARCHITECTURE.md, "Shortcut construction",
/// has the table). The value stays: on a world whose equally short paths
/// tie, moving it changes which chain a leaf between the two values
/// stores.
pub const DENSE_MAX_NODES: usize = 512;

/// Settle bound for each witness search of the contractor arm. Bounded
/// witness searches only ever make the remainder graph denser (a missed
/// witness adds a redundant arc), never wrong, so this — like the
/// contraction order beside it, [`ContractionOrder::MinDegree`] — is purely
/// a speed constant: the border distances are the same under every order
/// and budget (`crates/network/tests/proptest_minplus.rs` holds the
/// contractor to one Dijkstra per border under three orders and budgets
/// 0 / 64 / unbounded).
const WITNESS_SETTLE_LIMIT: usize = 64;

/// One directed shortcut out of a border node, borrowed from its Rnet's
/// arena.
#[derive(Clone, Copy, Debug)]
pub struct ShortcutEdge<'a> {
    /// Target border node.
    pub to: NodeId,
    /// Shortest-path distance within the Rnet.
    pub dist: Weight,
    /// Intermediate waypoints: physical nodes (finest level) or child
    /// border nodes (upper levels); endpoints excluded.
    pub via: &'a [NodeId],
}

/// The fixed-size part of a stored shortcut — all a bypass reads. 16 bytes,
/// the header size [`ShortcutStore::size_bytes`] models.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShortcutHead {
    pub(crate) dist: Weight,
    pub(crate) to: NodeId,
    /// End of this shortcut's waypoints in the Rnet's waypoint vector;
    /// they start where the previous head's end.
    via_end: u32,
}

/// All shortcuts of one Rnet, flat (see the module docs): `sources[i]`'s
/// shortcuts are `heads[head_offsets[i]..head_offsets[i + 1]]`, stored in
/// the order the builder kept them, and head `k`'s waypoints are
/// `vias[heads[k - 1].via_end..heads[k].via_end]`. `head_offsets` is empty
/// when `sources` is, so an Rnet without shortcuts allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct RnetShortcuts {
    sources: Vec<u32>,
    head_offsets: Vec<u32>,
    heads: Vec<ShortcutHead>,
    vias: Vec<NodeId>,
}

/// Arena offsets are `u32`. The builder can only get past that by holding
/// 64 GiB of heads or 16 GiB of waypoints for a single Rnet.
fn arena_offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "one Rnet's shortcut arena outgrew its 32-bit offsets");
    len as u32
}

impl RnetShortcuts {
    fn num_shortcuts(&self) -> usize {
        self.heads.len()
    }

    /// Modelled serialized bytes: 16 per head, 4 per waypoint.
    fn size_bytes(&self) -> usize {
        16 * self.heads.len() + 4 * self.vias.len()
    }

    /// Index range in `heads` of the `i`-th source's shortcuts.
    fn run(&self, i: usize) -> std::ops::Range<usize> {
        match (self.head_offsets.get(i), self.head_offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// Index range in `heads` of the shortcuts leaving border node `n`;
    /// empty when it has none in this Rnet.
    #[inline]
    fn run_of(&self, n: u32) -> std::ops::Range<usize> {
        match self.sources.binary_search(&n) {
            Ok(i) => self.run(i),
            Err(_) => 0..0,
        }
    }

    /// The heads of the shortcuts leaving border node `n`.
    #[inline]
    pub(crate) fn heads_of(&self, n: u32) -> &[ShortcutHead] {
        self.heads.get(self.run_of(n)).unwrap_or(&[])
    }

    /// Every source in ascending order with its heads — the order the file
    /// format and the paged engine's lazy page-in write them.
    pub(crate) fn by_source(&self) -> impl Iterator<Item = (u32, &[ShortcutHead])> {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, &from)| (from, self.heads.get(self.run(i)).unwrap_or(&[])))
    }

    /// The `k`-th head with its waypoints.
    fn edge(&self, k: usize) -> Option<ShortcutEdge<'_>> {
        let head = self.heads.get(k)?;
        let via_start = match k.checked_sub(1) {
            Some(before) => self.heads.get(before)?.via_end,
            None => 0,
        };
        let via = self.vias.get(via_start as usize..head.via_end as usize)?;
        Some(ShortcutEdge { to: head.to, dist: head.dist, via })
    }

    /// The shortcuts leaving `n`, waypoints included.
    fn edges_of(&self, n: u32) -> impl Iterator<Item = ShortcutEdge<'_>> {
        self.run_of(n).filter_map(|k| self.edge(k))
    }

    /// The shortcut `from -> to`, found over the heads alone.
    fn between(&self, from: u32, to: NodeId) -> Option<ShortcutEdge<'_>> {
        let run = self.run_of(from);
        let at = self.heads.get(run.clone())?.iter().position(|sc| sc.to == to)?;
        self.edge(run.start + at)
    }

    /// Appends a shortcut of the source being written; its waypoints are
    /// whatever the caller pushed onto `vias` since the previous head.
    fn push_head(&mut self, to: NodeId, dist: Weight) {
        self.heads.push(ShortcutHead { dist, to, via_end: arena_offset(self.vias.len()) });
    }

    /// Closes the run of heads pushed since the previous source. Sources
    /// must arrive in strictly ascending order.
    fn end_source(&mut self, from: u32) {
        debug_assert!(self.sources.last().is_none_or(|&last| last < from));
        if self.head_offsets.is_empty() {
            self.head_offsets.push(0);
        }
        self.sources.push(from);
        self.head_offsets.push(arena_offset(self.heads.len()));
    }

    /// Gives back the growth slack of a finished arena: it lives as long
    /// as the store (and every snapshot sharing it) does.
    fn shrink_to_fit(&mut self) {
        self.sources.shrink_to_fit();
        self.head_offsets.shrink_to_fit();
        self.heads.shrink_to_fit();
        self.vias.shrink_to_fit();
    }
}

/// Shortcut construction options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortcutOptions {
    /// Worker threads for construction and repair: Rnets of the same level
    /// are independent (Lemma 2 — a level reads only the level below), so
    /// each level of a build, and each level a repair reaches, fans out
    /// over scoped workers, each on a scratch kept warm across levels and
    /// updates. `0` means "use [`std::thread::available_parallelism`]",
    /// `1` runs fully inline. [`RoadFramework::build`](crate::RoadFramework::build)
    /// builds the hierarchy under the same setting — each binary round of
    /// the partitioner fans its groups out the same way. The thread count
    /// never changes a single output byte: every worker writes its Rnet's
    /// map into a per-Rnet indexed slot and the slots are committed in
    /// list order, so scheduling cannot reorder anything observable
    /// (differential tests sweep 1/2/4/8 threads over builds and update
    /// histories to prove it).
    pub threads: usize,
}

/// Resolves the `threads` option: `0` asks the OS for the available
/// parallelism (falling back to 1 when that is unknowable).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        threads
    }
}

/// All shortcuts of the hierarchy, grouped per Rnet and source node.
///
/// Cloning the store is cheap (one [`Arc`] bump per 64 Rnets) and shares
/// every per-Rnet arena with the original; a refresh then
/// replaces only the refreshed Rnet's arena and copies the chunk of
/// pointers that holds it, which is the structural-sharing contract the
/// live engine's snapshots rely on.
#[derive(Clone)]
pub struct ShortcutStore {
    /// Element `r` holds the shortcuts of Rnet `r`, by source border node.
    per_rnet: CowChunks<Arc<RnetShortcuts>>,
    num_shortcuts: usize,
    /// Modelled serialized bytes of every stored shortcut, maintained
    /// incrementally by [`ShortcutStore::replace_rnet`] exactly like
    /// `num_shortcuts` — [`ShortcutStore::size_bytes`] must not re-walk
    /// every list on each call (the index-size reports sum it per build,
    /// and parallel construction makes full walks costlier still).
    num_bytes: usize,
}

impl ShortcutStore {
    /// Builds every Rnet's shortcuts bottom-up (finest level first): a
    /// repair of every Rnet from an empty store (`refresh_rnets`), each
    /// level fanned out over [`ShortcutOptions::threads`] scoped workers.
    /// Workers deposit maps into per-Rnet indexed slots committed in
    /// hierarchy order, so the store is **byte-identical** to a
    /// single-threaded build regardless of scheduling (pinned by
    /// `tests/parallel_build.rs`).
    pub fn build(
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        opts: &ShortcutOptions,
    ) -> Self {
        let mut store = ShortcutStore::empty(hier.num_rnets());
        let finest_first: Vec<RnetId> =
            (1..=hier.levels()).rev().flat_map(|level| hier.rnets_at_level(level)).collect();
        store.refresh_rnets(g, hier, kind, &finest_first, opts, &mut WorkerScratches::default());
        store
    }

    fn empty(num_rnets: usize) -> Self {
        ShortcutStore {
            per_rnet: CowChunks::from_vec(
                (0..num_rnets).map(|_| Arc::default()).collect(),
                RNET_CHUNK_SHIFT,
            ),
            num_shortcuts: 0,
            num_bytes: 0,
        }
    }

    /// Computes the shortcut maps of one level's Rnets — of a build or of a
    /// repair — fanned out over scoped worker threads, one per scratch in
    /// `scratches`. Every thread owns a contiguous chunk of `rnets` and the
    /// scratch at its chunk's position: the calling thread takes the first
    /// chunk on the first scratch, and each other chunk gets a spawned
    /// worker on the next one, all of them warm from the levels and
    /// updates before. With one scratch nothing is spawned. Every map lands
    /// in the slot indexed by its Rnet's position, so the result is
    /// independent of scheduling. `self` is only read (the children's
    /// maps), never written — commits happen afterwards, in order, on the
    /// caller's thread.
    fn compute_level_maps(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        rnets: &[RnetId],
        scratches: &mut [BuildScratch],
    ) -> Vec<RnetShortcuts> {
        debug_assert!(
            rnets.windows(2).all(|w| hier.level_of(w[0]) == hier.level_of(w[1])),
            "a fan-out computes one level: a parent must not be computed beside its child"
        );
        assert!(!scratches.is_empty(), "the calling thread computes on the first scratch");
        let mut maps: Vec<RnetShortcuts> = Vec::new();
        maps.resize_with(rnets.len(), RnetShortcuts::default);
        let fill = |chunk: &[RnetId], out: &mut [RnetShortcuts], scratch: &mut BuildScratch| {
            for (&r, slot) in chunk.iter().zip(out) {
                *slot = self.compute_rnet_map(g, hier, kind, r, scratch);
            }
        };
        let chunk_len = rnets.len().div_ceil(scratches.len()).max(1);
        let mut chunks = rnets.chunks(chunk_len).zip(maps.chunks_mut(chunk_len)).zip(scratches);
        let own = chunks.next();
        std::thread::scope(|scope| {
            for ((chunk, out), scratch) in chunks {
                scope.spawn(move || fill(chunk, out, scratch));
            }
            if let Some(((chunk, out), scratch)) = own {
                fill(chunk, out, scratch);
            }
        });
        maps
    }

    /// Outgoing shortcuts of node `n` within Rnet `r`, in stored order.
    pub fn from(&self, r: RnetId, n: NodeId) -> impl Iterator<Item = ShortcutEdge<'_>> {
        self.rnet(r).edges_of(n.0)
    }

    /// `(target, distance)` of the shortcuts [`ShortcutStore::from`] yields,
    /// without their waypoints: what a bypass relaxes and what the paged
    /// engine lays onto its hot records.
    #[inline]
    pub(crate) fn heads(&self, r: RnetId, n: NodeId) -> &[ShortcutHead] {
        self.per_rnet.get(r.0 as usize).map_or(&[], |rnet| rnet.heads_of(n.0))
    }

    /// The stored shortcut `from -> to` within `r`, if kept.
    pub fn between(&self, r: RnetId, from: NodeId, to: NodeId) -> Option<ShortcutEdge<'_>> {
        self.rnet(r).between(from.0, to)
    }

    /// The arena of Rnet `r`.
    ///
    /// # Panics
    /// Panics when `r` is not an Rnet of the store's hierarchy.
    fn rnet(&self, r: RnetId) -> &RnetShortcuts {
        match self.per_rnet.get(r.0 as usize) {
            Some(rnet) => rnet,
            None => panic!("R{} is outside the store's {} Rnets", r.0, self.per_rnet.len()),
        }
    }

    /// Total number of stored (directed) shortcuts.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Modelled serialized size: 16 bytes per shortcut header plus 4 bytes
    /// per waypoint. O(1) — maintained incrementally by the private
    /// `replace_rnet` commit step, never recomputed by walking every
    /// shortcut list.
    pub fn size_bytes(&self) -> usize {
        self.num_bytes
    }

    fn replace_rnet(&mut self, r: RnetId, new: RnetShortcuts) {
        let old = self.rnet(r);
        let (old_shortcuts, old_bytes) = (old.num_shortcuts(), old.size_bytes());
        self.num_shortcuts = self.num_shortcuts - old_shortcuts + new.num_shortcuts();
        self.num_bytes = self.num_bytes - old_bytes + new.size_bytes();
        if let Some(slot) = self.per_rnet.make_mut(r.0 as usize) {
            *slot = Arc::new(new);
        }
    }

    /// How many Rnets' shortcut arenas this store physically shares with
    /// `other` (same allocation, not merely equal contents). Two stores
    /// related by snapshot forks share every Rnet that no intervening
    /// maintenance refreshed — the quantity the live-serving tests and
    /// roadbench's `core.live.shared_rnets_share` use to prove updates
    /// never fall back to full rebuilds.
    pub fn shared_rnet_count(&self, other: &ShortcutStore) -> usize {
        self.per_rnet.iter().zip(other.per_rnet.iter()).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// How many chunks of the per-Rnet table (64 arena pointers each)
    /// this store physically shares with `other`: a fork shares all
    /// of them, and a refresh un-shares the one chunk holding its Rnet.
    pub fn shared_rnet_chunks(&self, other: &ShortcutStore) -> usize {
        self.per_rnet.shared_chunks(&other.per_rnet)
    }

    /// Bytes of the per-Rnet table copied to un-share chunks from the
    /// store's clones (pointers only: a refreshed Rnet's new arena is a
    /// write, not a copy).
    pub(crate) fn bytes_copied(&self) -> u64 {
        self.per_rnet.bytes_copied()
    }

    /// Recomputes Rnets' shortcuts in place: `rnets` must be sorted finest
    /// level first (ties in any order — Rnets of one level are
    /// independent). Each run of one level is computed by
    /// [`ShortcutStore::compute_level_maps`] against the store as the finer
    /// runs left it, fanned out over `workers`' warm scratches, and
    /// committed in list order before the next, coarser run starts — so
    /// parents always read fully repaired children, and the store is
    /// byte-equal whatever the thread count. Returns the per-Rnet "shortcut
    /// set changed" flags, aligned with `rnets`: the signal that drives
    /// upward propagation in the filter-and-refresh maintenance of
    /// Section 5.2.
    // roadlint: order-sink
    pub(crate) fn refresh_rnets(
        &mut self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        rnets: &[RnetId],
        opts: &ShortcutOptions,
        workers: &mut WorkerScratches,
    ) -> Vec<bool> {
        debug_assert!(
            rnets.windows(2).all(|w| hier.level_of(w[0]) >= hier.level_of(w[1])),
            "refresh_rnets input must be sorted finest level first"
        );
        let mut changed = Vec::with_capacity(rnets.len());
        for run in rnets.chunk_by(|a, b| hier.level_of(*a) == hier.level_of(*b)) {
            let scratches = workers.for_level(opts, run.len());
            let maps = self.compute_level_maps(g, hier, kind, run, scratches);
            for (&r, map) in run.iter().zip(maps) {
                changed.push(!Self::maps_equivalent(self.rnet(r), &map));
                self.replace_rnet(r, map);
            }
        }
        changed
    }

    /// Same `(from, to)` pairs at approximately equal distances? List order
    /// within a source follows `hier.borders(r)`, which a border change
    /// between the two builds may have permuted, so a target is looked for
    /// in place first and anywhere in the list second. Targets are unique
    /// within a source (one matrix cell each), which makes the equal-length
    /// one-way match a bijection.
    fn maps_equivalent(a: &RnetShortcuts, b: &RnetShortcuts) -> bool {
        let non_empty =
            |rnet| RnetShortcuts::by_source(rnet).filter(|(_, heads)| !heads.is_empty());
        let (mut runs_a, mut runs_b) = (non_empty(a), non_empty(b));
        loop {
            let ((from_a, ha), (from_b, hb)) = match (runs_a.next(), runs_b.next()) {
                (None, None) => return true,
                (Some(ra), Some(rb)) => (ra, rb),
                _ => return false,
            };
            if from_a != from_b || ha.len() != hb.len() {
                return false;
            }
            for (k, x) in ha.iter().enumerate() {
                let twin = match hb.get(k) {
                    Some(y) if y.to == x.to => Some(y),
                    _ => hb.iter().find(|y| y.to == x.to),
                };
                if !twin.is_some_and(|y| x.dist.approx_eq(y.dist)) {
                    return false;
                }
            }
        }
    }

    /// Computes the shortcut map of one Rnet from the network (finest
    /// level) or from its children's current shortcuts (upper levels).
    ///
    /// The all-pairs border distance matrix `dmat` comes first — by dense
    /// elimination when the local graph has at most [`DENSE_MAX_NODES`]
    /// nodes, by node contraction above — and what Lemma 4's keep rule
    /// leaves of it is materialised from the elimination's own record or
    /// by a sealed Dijkstra per border respectively.
    fn compute_rnet_map(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        scratch: &mut BuildScratch,
    ) -> RnetShortcuts {
        // Either arm eliminates the interiors and closes over the borders;
        // they differ in what holds the graph while it shrinks. Under exact
        // arithmetic both reproduce the sweep's distances bit-for-bit (all
        // three are exact sums of the same edge weights).
        self.compute_rnet_map_with(g, hier, kind, r, scratch, |scratch, nb| {
            if scratch.csr.num_nodes() <= DENSE_MAX_NODES {
                scratch.eliminate_into_dmat(nb)
            } else {
                scratch.contract_into_dmat(nb)
            }
        })
    }

    /// [`ShortcutStore::compute_rnet_map`] with the way `scratch.dmat` is
    /// filled from the assembled local graph left to the caller, who also
    /// says where that left the kept pairs' paths: everything around it —
    /// canonical assembly, keep rule, emission — is shared by the
    /// size-switched build and the all-pairs oracle, which is what pins
    /// their outputs byte-equal wherever shortest paths are unique.
    fn compute_rnet_map_with(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        scratch: &mut BuildScratch,
        fill_dmat: impl FnOnce(&mut BuildScratch, usize) -> PathSource,
    ) -> RnetShortcuts {
        #[cfg(test)]
        {
            scratch.rnets_computed += 1;
        }
        let borders = hier.borders(r);
        let mut out = RnetShortcuts::default();
        if borders.len() < 2 {
            return out;
        }
        self.assemble_local(g, hier, kind, r, scratch, borders);
        let paths = fill_dmat(scratch, borders.len());
        self.finalize_from_matrix(scratch, borders, paths, &mut out);
        out
    }

    /// Assembles Rnet `r`'s local graph into `scratch.csr` under the
    /// *canonical numbering*: every border of `r` gets local id `0..nb` in
    /// `hier.borders(r)` order first (reachable or not), interiors follow in
    /// first-appearance order. Upper levels iterate children's borders in
    /// hierarchy order and look the lists up by key, so the assembly — and
    /// with it everything downstream — depends only on map *contents*,
    /// never on map iteration order.
    fn assemble_local(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        scratch: &mut BuildScratch,
        borders: &[NodeId],
    ) {
        scratch.clear(g.num_nodes());
        for &b in borders {
            scratch.local(b.0);
        }
        scratch.border_locals.extend(0..borders.len() as u32);
        if hier.is_leaf(r) {
            for &e in hier.leaf_edge_list(r) {
                let rec = g.edge(e);
                let (w, (a, b)) = (rec.weight(kind), rec.endpoints());
                let (la, lb) = (scratch.local(a.0), scratch.local(b.0));
                scratch.builder.push(la, lb, w, e.0);
                scratch.builder.push(lb, la, w, e.0);
            }
        } else {
            for child in hier.children(r) {
                for &from in hier.borders(child) {
                    let heads = self.heads(child, from);
                    if heads.is_empty() {
                        continue;
                    }
                    let lf = scratch.local(from.0);
                    for sc in heads {
                        let lt = scratch.local(sc.to.0);
                        scratch.builder.push(lf, lt, sc.dist, 0);
                    }
                }
            }
        }
        let (builder, csr) = (&mut scratch.builder, &mut scratch.csr);
        builder.finish_into(scratch.global.len(), csr);
    }

    /// Shared finalisation of a pruned build: apply the matrix keep rule to
    /// `scratch.dmat`, then give each kept pair its border-free distance
    /// and waypoints from wherever `paths` says they are — the elimination
    /// that filled `dmat` (the dense arm), or one *sealed* Dijkstra per
    /// source border over the local CSR (borders settle but never expand),
    /// whose predecessor chains are border-free by construction. Either
    /// way the distance is the sum of the path's arc weights from the
    /// source onwards, so the same path is stored at the same bits.
    fn finalize_from_matrix(
        &self,
        scratch: &mut BuildScratch,
        borders: &[NodeId],
        paths: PathSource,
        out: &mut RnetShortcuts,
    ) {
        let nb = borders.len();
        // Lemma 4 (matrix form): a pair is covered when some third border
        // splits it, both legs positive, at no more than its distance — ties
        // drop. The elimination's `dmat` is symmetric, so every pair is
        // covered over one triangle; the contractor's and the oracle's need
        // not be, and are covered a source row at a time.
        let entries = match paths {
            PathSource::Elimination => minplus::cover_pairs(&scratch.dmat, nb, &mut scratch.cover),
            PathSource::SealedDijkstra => {
                let (dmat, cover) = (&scratch.dmat, &mut scratch.cover);
                cover.resize(nb * nb, f64::INFINITY);
                let rows = cover.chunks_exact_mut(nb).enumerate();
                rows.map(|(b, row)| minplus::cover_row(dmat, nb, b, row)).sum()
            }
        };
        scratch.minplus_entries += entries;
        // Sources in ascending node order, the arena's and the file's; a
        // source's list depends on nothing but its own matrix rows.
        scratch.sort_sources(borders);
        for si in 0..nb {
            let bi = scratch.source_order[si] as usize;
            scratch.kept.clear();
            // roadlint: hot-path
            let row = &scratch.dmat[bi * nb..(bi + 1) * nb];
            let covers = &scratch.cover[bi * nb..(bi + 1) * nb];
            for (ti, (&d, &cover)) in row.iter().zip(covers).enumerate() {
                // An infinite distance is an internally disconnected Rnet:
                // no shortcut.
                if ti != bi && d != f64::INFINITY && d < cover {
                    scratch.kept.push(ti as u32);
                }
            }
            // roadlint: end hot-path
            if scratch.kept.is_empty() {
                continue;
            }
            let first = out.heads.len();
            // A kept pair may still have no border-free path: every path
            // runs through another border, and the matrix rule kept it all
            // the same — the border sits at distance zero from one end (a
            // zero leg covers nothing), or the covering sum rounded one ulp
            // above `d`. The through-border shortcuts already carry the
            // pair, so it is dropped rather than stored as infinite.
            match paths {
                PathSource::Elimination => {
                    let (elim, global) = (&mut scratch.elim, &scratch.global);
                    // roadlint: hot-path
                    for &t in &scratch.kept {
                        let dist = elim
                            .unpack(bi as u32, t, |k| out.vias.push(NodeId(global[k as usize])));
                        if dist != f64::INFINITY {
                            out.push_head(NodeId(global[t as usize]), Weight::new(dist));
                        }
                    }
                    // roadlint: end hot-path
                }
                PathSource::SealedDijkstra => {
                    #[cfg(test)]
                    {
                        scratch.sealed_runs += 1;
                    }
                    scratch.dij.run_csr(&scratch.csr, bi as u32, &scratch.kept, nb as u32);
                    for &t in &scratch.kept {
                        let dist = scratch.dij.dist(t);
                        if dist.is_finite() {
                            scratch.push_via_chain(bi as u32, t, &mut out.vias);
                            out.push_head(NodeId(scratch.global[t as usize]), dist);
                        }
                    }
                }
            }
            if out.heads.len() > first {
                out.end_source(borders[bi].0);
            }
        }
        out.shrink_to_fit();
    }

    /// Legacy all-pairs construction, kept as the differential-testing
    /// oracle: `dmat` comes from one *full* local-graph Dijkstra per border
    /// (the pre-contraction sweep) instead of an elimination.
    /// Shares the canonical assembly, the matrix rule and the contractor
    /// arm's sealed finalisation with [`ShortcutStore::build`], and either
    /// elimination preserves all pairwise border distances exactly, so the
    /// two keep the same pairs at the same distances — and store the same
    /// bytes wherever no kept pair has two equally short border-free paths
    /// (the module docs have the tie case).
    #[doc(hidden)]
    pub fn build_with_oracle(g: &RoadNetwork, hier: &RnetHierarchy, kind: WeightKind) -> Self {
        Self::build_inline_with(g, hier, kind, |scratch, nb| {
            scratch.dmat.clear();
            for bi in 0..nb {
                scratch.dij.run_csr(&scratch.csr, bi as u32, &scratch.border_locals, 0);
                scratch.dmat.extend((0..nb).map(|ti| scratch.dij.dist(ti as u32).get()));
            }
            PathSource::SealedDijkstra
        })
    }

    /// [`ShortcutStore::build`] on the calling thread, every Rnet's `dmat`
    /// filled by `fill_dmat` (see [`ShortcutStore::compute_rnet_map_with`]).
    fn build_inline_with(
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        fill_dmat: impl Fn(&mut BuildScratch, usize) -> PathSource,
    ) -> Self {
        let mut store = ShortcutStore::empty(hier.num_rnets());
        let mut scratch = BuildScratch::default();
        for level in (1..=hier.levels()).rev() {
            for r in hier.rnets_at_level(level) {
                let map = store.compute_rnet_map_with(g, hier, kind, r, &mut scratch, &fill_dmat);
                store.replace_rnet(r, map);
            }
        }
        store
    }

    /// Expands a shortcut of Rnet `r` starting at `from` into the full
    /// physical path, weighted under `kind` (the metric the store was
    /// built with). Returns `None` only on store inconsistency.
    pub fn expand(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        r: RnetId,
        from: NodeId,
        sc: ShortcutEdge<'_>,
    ) -> Option<Path> {
        let mut seq = Vec::with_capacity(sc.via.len() + 2);
        seq.push(from);
        seq.extend_from_slice(sc.via);
        seq.push(sc.to);
        let mut path = Path::trivial(from);
        if hier.is_leaf(r) {
            for hop in seq.windows(2) {
                // Parallel edges (two carriageways) may join the hop's
                // nodes, in other leaves too; the shortcut's length was
                // computed over the lightest of `r`'s.
                let e = g
                    .neighbors(hop[0])
                    .filter(|&(e, v)| v == hop[1] && hier.leaf_of_edge(e) == r)
                    .map(|(e, _)| e)
                    .min_by_key(|&e| (g.weight(e, kind), e))?;
                let seg = Path::from_parts(vec![hop[0], hop[1]], vec![e], g.weight(e, kind));
                path.extend(&seg);
            }
        } else {
            for hop in seq.windows(2) {
                // Pick the child providing the cheapest (u, v) shortcut.
                let mut best: Option<(RnetId, ShortcutEdge<'_>)> = None;
                for c in hier.children(r) {
                    if let Some(s) = self.between(c, hop[0], hop[1]) {
                        if best.map(|(_, bs)| s.dist < bs.dist).unwrap_or(true) {
                            best = Some((c, s));
                        }
                    }
                }
                let (c, s) = best?;
                let seg = self.expand(g, hier, kind, c, hop[0], s)?;
                path.extend(&seg);
            }
        }
        Some(path)
    }

    /// Appends a flat binary encoding of the store to `out` (see
    /// [`crate::persist`] for the enclosing format). Public so tests can
    /// locate the store section inside a full image byte-for-byte.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.per_rnet.len() as u32).to_le_bytes());
        for rnet in self.per_rnet.iter() {
            out.extend_from_slice(&(rnet.sources.len() as u32).to_le_bytes());
            // Sources are stored ascending: reproducible files, no sort.
            for (i, from) in rnet.sources.iter().enumerate() {
                let run = rnet.run(i);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&(run.len() as u32).to_le_bytes());
                for sc in run.filter_map(|k| rnet.edge(k)) {
                    out.extend_from_slice(&sc.to.0.to_le_bytes());
                    out.extend_from_slice(&sc.dist.get().to_le_bytes());
                    out.extend_from_slice(&(sc.via.len() as u32).to_le_bytes());
                    for w in sc.via {
                        out.extend_from_slice(&w.0.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decodes a store previously written by
    /// [`ShortcutStore::serialize_into`]; `pos` is advanced past it.
    ///
    /// Every count is validated against the bytes that remain and every
    /// node id against `num_nodes`, so a truncated or bit-flipped buffer
    /// fails with an error instead of panicking, over-allocating, or
    /// producing a store that panics at query time.
    pub(crate) fn deserialize(
        buf: &[u8],
        pos: &mut usize,
        num_nodes: u32,
        expected_rnets: usize,
    ) -> Result<Self, String> {
        let num_rnets = Self::read_store_header(buf, pos, expected_rnets)?;
        let mut per_rnet = Vec::with_capacity(num_rnets.min(buf.len() / 4 + 1));
        let mut num_shortcuts = 0usize;
        let mut num_bytes = 0usize;
        for _ in 0..num_rnets {
            let mut rnet = RnetShortcuts::default();
            Self::walk_rnet_section(buf, pos, num_nodes, Some(&mut rnet))?;
            num_shortcuts += rnet.num_shortcuts();
            num_bytes += rnet.size_bytes();
            per_rnet.push(Arc::new(rnet));
        }
        let per_rnet = CowChunks::from_vec(per_rnet, RNET_CHUNK_SHIFT);
        Ok(ShortcutStore { per_rnet, num_shortcuts, num_bytes })
    }

    /// Reads and validates the store header (the Rnet-section count)
    /// against the hierarchy — shared by the monolithic decode and the
    /// page-granular open so the two paths cannot drift.
    pub(crate) fn read_store_header(
        buf: &[u8],
        pos: &mut usize,
        expected_rnets: usize,
    ) -> Result<usize, String> {
        let num_rnets = read_u32(buf, pos)? as usize;
        if num_rnets != expected_rnets {
            return Err(format!(
                "shortcut store describes {num_rnets} Rnets, hierarchy has {expected_rnets}"
            ));
        }
        Ok(num_rnets)
    }

    /// Assembles a store from already-decoded per-Rnet sections (the lazy
    /// image's "materialize everything" path).
    pub(crate) fn from_rnet_maps(maps: Vec<RnetShortcuts>) -> Self {
        ShortcutStore {
            num_shortcuts: maps.iter().map(RnetShortcuts::num_shortcuts).sum(),
            num_bytes: maps.iter().map(RnetShortcuts::size_bytes).sum(),
            per_rnet: CowChunks::from_vec(
                maps.into_iter().map(Arc::new).collect(),
                RNET_CHUNK_SHIFT,
            ),
        }
    }

    /// Walks one Rnet's section of a serialized store, validating counts
    /// against the remaining bytes, node ids against `num_nodes` and the
    /// sources' strictly ascending order (which every writer of this
    /// format has produced, and which rules out duplicate sources).
    ///
    /// With `out`, the section is decoded into it. Without, no arena is
    /// built: how a lazily-opened image records per-Rnet byte ranges up
    /// front at a fraction of the decode cost. Both modes make the same
    /// checks, so a section that passes the walk can never fail to decode
    /// later.
    pub(crate) fn walk_rnet_section(
        buf: &[u8],
        pos: &mut usize,
        num_nodes: u32,
        mut out: Option<&mut RnetShortcuts>,
    ) -> Result<(), String> {
        let check_node = |id: u32| -> Result<NodeId, String> {
            if id >= num_nodes {
                return Err(format!("shortcut references node {id} outside 0..{num_nodes}"));
            }
            Ok(NodeId(id))
        };
        let start = *pos;
        let num_sources = read_u32(buf, pos)? as usize;
        // A source costs at least 8 bytes (node id + edge count); reject an
        // over-claimed count before looping on it.
        if num_sources > (buf.len() - *pos) / 8 {
            return Err("truncated shortcut store (source count exceeds buffer)".into());
        }
        if let Some(out) = out.as_deref_mut().filter(|_| num_sources > 0) {
            out.sources.reserve_exact(num_sources);
            out.head_offsets.reserve_exact(num_sources + 1);
        }
        let mut last_source: Option<u32> = None;
        for _ in 0..num_sources {
            let from = check_node(read_u32(buf, pos)?)?.0;
            if last_source.is_some_and(|last| last >= from) {
                return Err(format!("duplicate or unsorted shortcut source node {from}"));
            }
            last_source = Some(from);
            let num_edges = read_u32(buf, pos)? as usize;
            // A shortcut costs at least 16 bytes; an over-claimed count
            // must not drive a huge allocation.
            if num_edges > (buf.len() - *pos) / 16 {
                return Err("truncated shortcut store (edge count exceeds buffer)".into());
            }
            if let Some(out) = out.as_deref_mut() {
                out.heads.reserve(num_edges);
            }
            for _ in 0..num_edges {
                let to = check_node(read_u32(buf, pos)?)?;
                let dist = read_f64(buf, pos)?;
                if dist.is_nan() || dist < 0.0 {
                    return Err(format!("corrupt shortcut distance {dist}"));
                }
                let via_len = read_u32(buf, pos)? as usize;
                if via_len > (buf.len() - *pos) / 4 {
                    return Err("truncated shortcut store (via count exceeds buffer)".into());
                }
                if let Some(out) = out.as_deref_mut() {
                    out.vias.reserve(via_len);
                }
                for _ in 0..via_len {
                    let via = check_node(read_u32(buf, pos)?)?;
                    if let Some(out) = out.as_deref_mut() {
                        out.vias.push(via);
                    }
                }
                section_fits_arena(start, *pos)?;
                if let Some(out) = out.as_deref_mut() {
                    out.push_head(to, Weight::new(dist));
                }
            }
            if let Some(out) = out.as_deref_mut() {
                out.end_source(from);
            }
        }
        Ok(())
    }

    /// Rebuilds from scratch and verifies this store describes the same
    /// distances — the maintenance tests' ground truth.
    pub fn verify_against_rebuild(
        &self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        opts: &ShortcutOptions,
    ) -> Result<(), String> {
        let fresh = ShortcutStore::build(g, hier, kind, opts);
        for (i, (a, b)) in self.per_rnet.iter().zip(fresh.per_rnet.iter()).enumerate() {
            if !Self::maps_equivalent(a, b) {
                return Err(format!("Rnet R{i} shortcuts diverge from a fresh rebuild"));
            }
        }
        Ok(())
    }
}

/// An Rnet's arena addresses heads and waypoints by `u32`. A head takes 16
/// bytes of its section and a waypoint 4, so a section of up to 16 GiB
/// fits; both walkers refuse a longer one, shortcut by shortcut, before
/// `arena_offset` could be asked for more.
fn section_fits_arena(start: usize, pos: usize) -> Result<(), String> {
    if (pos - start) / 4 > u32::MAX as usize {
        return Err("shortcut section exceeds the 32-bit arena offsets".into());
    }
    Ok(())
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos.checked_add(4).ok_or("truncated shortcut store")?;
    let b = buf.get(*pos..end).and_then(|b| b.first_chunk::<4>());
    let b = *b.ok_or("truncated shortcut store")?;
    *pos = end;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64, String> {
    let end = pos.checked_add(8).ok_or("truncated shortcut store")?;
    let b = buf.get(*pos..end).and_then(|b| b.first_chunk::<8>());
    let b = *b.ok_or("truncated shortcut store")?;
    *pos = end;
    Ok(f64::from_le_bytes(b))
}

/// Where [`ShortcutStore::finalize_from_matrix`] finds the border-free path
/// of a kept pair: whatever filled `dmat` says which.
#[derive(Clone, Copy)]
enum PathSource {
    /// In `scratch.elim`, which recorded its pivots: the path is unpacked.
    Elimination,
    /// Nowhere yet: one sealed Dijkstra per source border searches for it.
    SealedDijkstra,
}

/// The scratches of the level fan-out, one per worker: the first is the
/// calling thread's, and the next is made the first time a level has
/// enough Rnets for another worker, up to [`ShortcutOptions::threads`].
/// Kept across levels and, in a framework, across updates — a fresh
/// scratch per worker and level costs more than repairing a level on one
/// thread (ARCHITECTURE.md, "Parallel construction").
#[derive(Default)]
pub(crate) struct WorkerScratches {
    scratches: Vec<BuildScratch>,
    /// [`ShortcutOptions::threads`] resolved once (asking the OS reads
    /// cgroup files, as long as a small Rnet's repair); `0` before the
    /// first level.
    threads: usize,
}

impl WorkerScratches {
    /// The scratches a level of `rnets` Rnets fans out over: one per
    /// thread, never more than one per Rnet, and at least the caller's.
    fn for_level(&mut self, opts: &ShortcutOptions, rnets: usize) -> &mut [BuildScratch] {
        if self.threads == 0 {
            self.threads = resolve_threads(opts.threads);
        }
        let workers = self.threads.min(rnets).max(1);
        if self.scratches.len() < workers {
            self.scratches.resize_with(workers, BuildScratch::default);
        }
        &mut self.scratches[..workers]
    }

    /// The matrix entries the min-plus kernels relaxed, on every worker,
    /// since the last call: what a repair's eliminations, closures and
    /// keep rules cost, counted rather than timed.
    pub(crate) fn take_minplus_entries(&mut self) -> u64 {
        self.scratches.iter_mut().map(|s| std::mem::take(&mut s.minplus_entries)).sum()
    }
}

/// Reusable allocations for shortcut computation: the local-id interner,
/// the CSR arena of the Rnet being built, the elimination matrices and the
/// contraction state (one arm each), the border-distance matrix and the
/// shared Dijkstra.
#[derive(Default)]
struct BuildScratch {
    /// Global → local ids of the graph being assembled, dense over the
    /// network's node ids: `generation << 32 | local`, valid where the
    /// upper half is the current generation — so starting the next graph
    /// is one increment, and interning an arc endpoint one indexed load.
    local_of: Vec<u64>,
    generation: u32,
    /// Local → global ids, in interning order.
    global: Vec<u32>,
    builder: CsrBuilder,
    csr: CsrGraph,
    /// The `n x n` arc matrix dense elimination works in, and the pivots
    /// it recorded (small graphs).
    elim: minplus::Elimination,
    contractor: Contractor,
    remainder_builder: CsrBuilder,
    dij: LocalDijkstra,
    /// Sealed Dijkstras run by pruned finalisations so far.
    #[cfg(test)]
    sealed_runs: usize,
    /// Rnets whose maps this scratch computed so far.
    #[cfg(test)]
    rnets_computed: usize,
    /// The identity list `0..nb` (borders own the first local ids) — the
    /// target set handed to each matrix Dijkstra.
    border_locals: Vec<u32>,
    /// Row-major `nb x nb` all-pairs border distances of the current Rnet.
    dmat: Vec<f64>,
    /// Row-major `nb x nb` keep rule of the current Rnet: per pair, the
    /// cheapest split through a third border.
    cover: Vec<f64>,
    /// Matrix entries the min-plus kernels relaxed since the last
    /// [`WorkerScratches::take_minplus_entries`].
    minplus_entries: u64,
    /// Kept target locals of the current source border (matrix rule).
    kept: Vec<u32>,
    /// Border locals in ascending global node id: the order sources are
    /// written into the Rnet's arena.
    source_order: Vec<u32>,
}

impl BuildScratch {
    /// Forgets the assembled graph; the next one interns node ids below
    /// `num_nodes`.
    fn clear(&mut self, num_nodes: usize) {
        if self.local_of.is_empty() {
            // Zeroed pages straight from the allocator: a worker's fresh
            // scratch pays for the part of the table its Rnets touch.
            self.local_of = vec![0; num_nodes];
        } else if self.local_of.len() < num_nodes {
            self.local_of.resize(num_nodes, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.local_of.fill(0);
            self.generation = 1;
        }
        self.global.clear();
        self.builder.clear();
        self.border_locals.clear();
    }

    /// The local id of `global`: the one it was given first, else the next
    /// free one.
    #[inline]
    fn local(&mut self, global: u32) -> u32 {
        let slot = &mut self.local_of[global as usize];
        if (*slot >> 32) as u32 != self.generation {
            *slot = u64::from(self.generation) << 32 | self.global.len() as u64;
            self.global.push(global);
        }
        *slot as u32
    }

    /// All-pairs distances of the assembled graph's `nb` borders into
    /// `dmat`, interiors pivoted out of a dense matrix that remembers how.
    fn eliminate_into_dmat(&mut self, nb: usize) -> PathSource {
        self.minplus_entries +=
            minplus::border_matrix(&self.csr, nb, &mut self.elim, &mut self.dmat);
        PathSource::Elimination
    }

    /// The same matrix by node contraction. The *remainder* graph lives on
    /// the borders alone and preserves all their pairwise distances; its
    /// arcs are folded straight off the builder, since the closure only
    /// needs the min weight per border pair and freezing them into a CSR
    /// (a counting sort) would be pure overhead.
    fn contract_into_dmat(&mut self, nb: usize) -> PathSource {
        self.remainder_builder.clear();
        self.contractor.contract(
            &self.csr,
            nb as u32,
            ContractionOrder::MinDegree,
            WITNESS_SETTLE_LIMIT,
            &mut self.remainder_builder,
        );
        self.minplus_entries +=
            minplus::close_arcs(nb, self.remainder_builder.arcs(), &mut self.dmat);
        PathSource::SealedDijkstra
    }

    /// Fills `source_order` for `borders` (whose locals are `0..nb`).
    fn sort_sources(&mut self, borders: &[NodeId]) {
        self.source_order.clear();
        self.source_order.extend(0..borders.len() as u32);
        self.source_order.sort_unstable_by_key(|&bi| borders[bi as usize].0);
    }

    /// Appends the waypoints of the last Dijkstra's path `from -> to`
    /// (both local ids, endpoints excluded) to `vias` as global node ids,
    /// in travel order.
    fn push_via_chain(&self, from: u32, to: u32, vias: &mut Vec<NodeId>) {
        let start = vias.len();
        let mut cur = to;
        while let Some((prev, _label)) = self.dij.pred(cur) {
            if prev == from {
                break;
            }
            vias.push(NodeId(self.global[prev as usize]));
            cur = prev;
        }
        vias[start..].reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use road_network::dijkstra::Dijkstra;
    use road_network::generator::simple;

    fn build(g: &RoadNetwork, fanout: usize, levels: u32) -> (RnetHierarchy, ShortcutStore) {
        let cfg = HierarchyConfig { fanout, levels, ..Default::default() };
        let hier = RnetHierarchy::build(g, &cfg).unwrap();
        let store = ShortcutStore::build(g, &hier, WeightKind::Distance, &Default::default());
        (hier, store)
    }

    /// Every stored shortcut must equal the Rnet-restricted shortest-path
    /// distance between its endpoints.
    fn assert_shortcuts_exact(g: &RoadNetwork, hier: &RnetHierarchy, store: &ShortcutStore) {
        let mut dij = Dijkstra::for_network(g);
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                for &b in hier.borders(r) {
                    for sc in store.from(r, b) {
                        let want = {
                            let mut found = None;
                            dij.expand_filtered_multi(
                                g,
                                WeightKind::Distance,
                                &[(b, Weight::ZERO)],
                                |e| hier.rnet_of_edge_at(e, lv) == r,
                                &mut |n, d| {
                                    if n == sc.to {
                                        found = Some(d);
                                        road_network::dijkstra::Control::Break
                                    } else {
                                        road_network::dijkstra::Control::Continue
                                    }
                                },
                            );
                            found
                        };
                        let want = want.unwrap_or(Weight::INFINITY);
                        assert!(
                            sc.dist.approx_eq(want),
                            "{r:?} shortcut {b}->{} = {} but restricted SP = {}",
                            sc.to,
                            sc.dist,
                            want
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chain_shortcuts_bridge_segments() {
        let g = simple::chain(16, 1.0);
        let (hier, store) = build(&g, 2, 2);
        assert!(store.num_shortcuts() > 0);
        assert_shortcuts_exact(&g, &hier, &store);
    }

    #[test]
    fn grid_shortcuts_match_restricted_dijkstra() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, store) = build(&g, 4, 2);
        assert!(store.num_shortcuts() > 0);
        assert_shortcuts_exact(&g, &hier, &store);
    }

    #[test]
    fn expansion_yields_valid_physical_paths() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, store) = build(&g, 4, 2);
        let mut expanded = 0;
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                for &b in hier.borders(r) {
                    for sc in store.from(r, b) {
                        let p = store
                            .expand(&g, &hier, WeightKind::Distance, r, b, sc)
                            .expect("expandable");
                        assert_eq!(p.source(), b);
                        assert_eq!(p.target(), sc.to);
                        assert!(p.validate(&g, WeightKind::Distance), "invalid path");
                        assert!(
                            p.total().approx_eq(sc.dist),
                            "expanded dist {} != shortcut dist {}",
                            p.total(),
                            sc.dist
                        );
                        expanded += 1;
                    }
                }
            }
        }
        assert!(expanded > 0);
    }

    #[test]
    fn pruned_shortcut_paths_avoid_other_borders() {
        let g = simple::grid(10, 10, 1.0);
        let (hier, store) = build(&g, 4, 2);
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                let borders = hier.borders(r);
                for &b in borders {
                    for sc in store.from(r, b) {
                        for w in sc.via {
                            assert!(
                                !borders.contains(w),
                                "{r:?}: kept shortcut {b}->{} passes border {w}",
                                sc.to
                            );
                        }
                    }
                }
            }
        }
    }

    /// Refreshes the one Rnet `r`; returns whether its shortcut set changed.
    fn refresh_one(
        store: &mut ShortcutStore,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        r: RnetId,
        opts: &ShortcutOptions,
        workers: &mut WorkerScratches,
    ) -> bool {
        store.refresh_rnets(g, hier, WeightKind::Distance, &[r], opts, workers)[0]
    }

    #[test]
    fn refresh_detects_weight_changes() {
        let mut g = simple::grid(6, 6, 1.0);
        let (hier, mut store) = build(&g, 4, 2);
        let (opts, mut workers) = (ShortcutOptions::default(), WorkerScratches::default());
        // Pick an edge inside some leaf Rnet with shortcuts.
        let e = g.edge_ids().next().unwrap();
        let leaf = hier.leaf_of_edge(e);
        // No-op refresh: nothing changed.
        let changed = refresh_one(&mut store, &g, &hier, leaf, &opts, &mut workers);
        assert!(!changed, "refresh without a weight change must be a no-op");
        // Make the edge very expensive, then refresh the ancestor chain
        // finest first: the store equals a full rebuild.
        g.set_weight(e, WeightKind::Distance, Weight::new(100.0)).unwrap();
        let (mut chain, mut r) = (Vec::new(), leaf);
        while r.is_valid() {
            chain.push(r);
            r = hier.parent(r);
        }
        store.refresh_rnets(&g, &hier, WeightKind::Distance, &chain, &opts, &mut workers);
        store.verify_against_rebuild(&g, &hier, WeightKind::Distance, &opts).unwrap();
    }

    /// Repair fans a level out over the warm scratches: refreshing a level
    /// of several Rnets at `threads = 2` computes some of them on the
    /// second scratch, and at `threads = 1` the first scratch computes them
    /// all — so a silent fallback to inline repair fails here, not only in
    /// a timing. The scratches outlive the call, as a framework keeps them.
    #[test]
    fn a_repaired_level_fans_out_over_a_second_scratch_only_at_two_threads() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, mut store) = build(&g, 4, 2);
        let leaves: Vec<RnetId> = hier.rnets_at_level(hier.levels()).collect();
        assert!(leaves.len() >= 2, "{leaves:?}");
        for threads in [1, 2] {
            let opts = ShortcutOptions { threads };
            let mut workers = WorkerScratches::default();
            for round in 1..=2 {
                let kind = WeightKind::Distance;
                let changed = store.refresh_rnets(&g, &hier, kind, &leaves, &opts, &mut workers);
                assert_eq!(changed, vec![false; leaves.len()]);
                let computed: Vec<usize> =
                    workers.scratches.iter().map(|s| s.rnets_computed).collect();
                assert_eq!(computed.iter().sum::<usize>(), round * leaves.len(), "{computed:?}");
                let second = computed.get(1).copied().unwrap_or(0);
                if threads == 1 {
                    assert_eq!(second, 0, "threads = 1 fanned out: {computed:?}");
                } else {
                    assert!(second >= round, "threads = 2 repaired inline: {computed:?}");
                }
            }
        }
    }

    /// The fan-out computes one level at a time: a run mixing a parent
    /// with its child would read the child's map while it is replaced.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a fan-out computes one level")]
    fn a_run_of_two_levels_is_refused() {
        let g = simple::grid(6, 6, 1.0);
        let (hier, store) = build(&g, 4, 2);
        let leaf = hier.rnets_at_level(hier.levels()).next().unwrap();
        let mut scratches = [BuildScratch::default(), BuildScratch::default()];
        let run = [leaf, hier.parent(leaf)];
        store.compute_level_maps(&g, &hier, WeightKind::Distance, &run, &mut scratches);
    }

    /// The structural-sharing contract behind snapshot publication: a fork
    /// shares every Rnet's allocation, and refreshing one Rnet replaces
    /// exactly that one.
    #[test]
    fn a_fork_shares_every_rnet_and_a_refresh_replaces_exactly_one() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, store) = build(&g, 4, 2);
        let mut fork = store.clone();
        assert_eq!(fork.shared_rnet_count(&store), hier.num_rnets());
        let leaf = hier.rnets_at_level(hier.levels()).next().unwrap();
        let mut workers = WorkerScratches::default();
        let changed = refresh_one(&mut fork, &g, &hier, leaf, &Default::default(), &mut workers);
        assert!(!changed);
        assert_eq!(fork.shared_rnet_count(&store), hier.num_rnets() - 1);
        let arena = |s: &ShortcutStore| Arc::clone(s.per_rnet.get(leaf.0 as usize).unwrap());
        assert!(!Arc::ptr_eq(&arena(&fork), &arena(&store)));
        assert_eq!(fork.num_shortcuts(), store.num_shortcuts());
        assert_eq!(fork.size_bytes(), store.size_bytes());
    }

    /// `maps_equivalent` as it was over hash maps — flatten to `(from, to,
    /// dist)`, sort, compare pairwise — kept as the reference for its
    /// allocation-free successor's verdicts.
    fn flatten_sort_equivalent(a: &RnetShortcuts, b: &RnetShortcuts) -> bool {
        let flatten = |m: &RnetShortcuts| {
            let mut v: Vec<(u32, u32, Weight)> = m
                .by_source()
                .flat_map(|(from, list)| list.iter().map(move |sc| (from, sc.to.0, sc.dist)))
                .collect();
            v.sort_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.cmp(&y.2)));
            v
        };
        let (fa, fb) = (flatten(a), flatten(b));
        fa.len() == fb.len()
            && fa.iter().zip(&fb).all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.approx_eq(y.2))
    }

    fn arena(lists: &[(u32, Vec<(u32, f64)>)]) -> RnetShortcuts {
        let mut out = RnetShortcuts::default();
        for (from, list) in lists {
            for &(to, dist) in list {
                out.vias.push(NodeId(to)); // a waypoint, so heads and vias differ in length
                out.push_head(NodeId(to), Weight::new(dist));
            }
            out.end_source(*from);
        }
        out
    }

    #[test]
    fn maps_equivalent_keeps_the_flatten_and_sort_verdicts() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let base = vec![(2, vec![(5, 1.0), (7, 2.5), (9, 4.0)]), (5, vec![(2, 1.0)]), (9, vec![])];
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut next = |bound: u64| rng.random_range(0..bound);
        let (mut same, mut different) = (0, 0);
        for _ in 0..400 {
            let mut other = base.clone();
            match next(7) {
                0 => other[0].1.rotate_left(1 + next(2) as usize), // permuted list
                1 => other[0].1[next(3) as usize].1 *= 1.0 + 1e-13, // rounding noise
                2 => other[0].1[next(3) as usize].1 += 0.5,        // a real change
                3 => other[0].1[next(3) as usize].0 = 11,          // another target
                4 => drop(other[0].1.pop()),                       // a lost shortcut
                5 => drop(other.remove(2)),                        // empty source == absent
                _ => other.insert(1, (3, vec![(2, 1.0)])),         // a new source
            }
            let (a, b) = (arena(&base), arena(&other));
            let verdict = ShortcutStore::maps_equivalent(&a, &b);
            assert_eq!(verdict, flatten_sort_equivalent(&a, &b), "{base:?} vs {other:?}");
            assert_eq!(verdict, ShortcutStore::maps_equivalent(&b, &a), "not symmetric");
            if verdict {
                same += 1;
            } else {
                different += 1;
            }
        }
        assert!(same > 50 && different > 50, "{same} equivalent, {different} not");
        assert!(ShortcutStore::maps_equivalent(&arena(&[]), &arena(&[(4, vec![])])));
    }

    /// The walk without an arena must reject everything the decode
    /// rejects — a section it passes can never fail to decode later (the
    /// lazy image relies on this to keep per-Rnet decodes infallible).
    /// Duplicate source nodes are the one structural error a byte-walk
    /// could otherwise miss.
    #[test]
    fn skip_scan_rejects_duplicate_sources_like_decode() {
        // A hand-built section: 2 sources, both node 0, each with one
        // shortcut to node 1 at distance 1.0 and no waypoints.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes()); // num_sources
        for _ in 0..2 {
            buf.extend_from_slice(&0u32.to_le_bytes()); // from = 0 (duplicate)
            buf.extend_from_slice(&1u32.to_le_bytes()); // num_edges
            buf.extend_from_slice(&1u32.to_le_bytes()); // to
            buf.extend_from_slice(&1.0f64.to_le_bytes()); // dist
            buf.extend_from_slice(&0u32.to_le_bytes()); // via_len
        }
        let mut pos = 0;
        let mut arena = RnetShortcuts::default();
        let decode = ShortcutStore::walk_rnet_section(&buf, &mut pos, 4, Some(&mut arena));
        let mut pos = 0;
        let skip = ShortcutStore::walk_rnet_section(&buf, &mut pos, 4, None);
        assert!(decode.is_err(), "decode must reject duplicate sources");
        assert!(skip.is_err(), "skip-scan must reject exactly what decode rejects");
    }

    /// On a built store the two modes of the walk read the same bytes,
    /// section by section, and the decoded arenas serialize back to them.
    #[test]
    fn the_walk_reads_a_built_store_the_same_in_both_modes() {
        let g = simple::grid(6, 6, 1.0);
        let (hier, store) = build(&g, 2, 2);
        let mut buf = Vec::new();
        store.serialize_into(&mut buf);
        let num_nodes = g.num_nodes() as u32;
        let mut skipped = 0;
        ShortcutStore::read_store_header(&buf, &mut skipped, hier.num_rnets()).unwrap();
        let mut decoded = skipped;
        let mut maps = Vec::new();
        for _ in 0..hier.num_rnets() {
            ShortcutStore::walk_rnet_section(&buf, &mut skipped, num_nodes, None).unwrap();
            let mut rnet = RnetShortcuts::default();
            ShortcutStore::walk_rnet_section(&buf, &mut decoded, num_nodes, Some(&mut rnet))
                .unwrap();
            assert_eq!(skipped, decoded);
            maps.push(rnet);
        }
        assert_eq!(skipped, buf.len());
        assert!(store.num_shortcuts() > 0);
        // Waypoints on board, so the via loop of the walk runs too: a list
        // entry without any is 16 bytes.
        assert!(store.size_bytes() > 16 * store.num_shortcuts(), "no shortcut carries waypoints");
        let mut again = Vec::new();
        ShortcutStore::from_rnet_maps(maps).serialize_into(&mut again);
        assert_eq!(again, buf);
    }

    #[test]
    fn travel_time_metric_builds_distinct_shortcuts() {
        let g = road_network::generator::Dataset::CaHighways.generate_scaled(0.02, 5).unwrap();
        let cfg = HierarchyConfig { fanout: 4, levels: 2, ..Default::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        let dist_store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        let time_store =
            ShortcutStore::build(&g, &hier, WeightKind::TravelTime, &Default::default());
        // Same topology, different weights.
        let mut diverged = false;
        for r in hier.rnets_at_level(hier.levels()) {
            for &b in hier.borders(r) {
                for sc in dist_store.from(r, b) {
                    if let Some(t) = time_store.between(r, b, sc.to) {
                        if !t.dist.approx_eq(sc.dist) {
                            diverged = true;
                        }
                    }
                }
            }
        }
        assert!(diverged, "time-metric shortcuts should differ from distance-metric ones");
    }

    /// The keep rule, verified post hoc against restricted shortest-path
    /// distances on a unit grid (heavy with equal-weight ties, and every
    /// sum exact): the store holds `(b, t)` **iff** the restricted distance
    /// is finite and no third border `m` covers it with
    /// `d(b,m) + d(m,t) == d(b,t)`, both legs positive (which on a unit
    /// grid every leg between distinct nodes is). Since `d` is a
    /// shortest-path distance no split is ever shorter (triangle
    /// inequality, asserted), so every covered pair is an equal-weight tie.
    /// Returns how many reachable pairs the rule dropped.
    fn assert_keep_rule_on_grid(w: usize, h: usize) -> usize {
        let g = simple::grid(w, h, 1.0);
        let (hier, store) = build(&g, 4, 2);
        let mut dij = Dijkstra::for_network(&g);
        let mut dropped = 0;
        for lv in 1..=hier.levels() {
            for r in hier.rnets_at_level(lv) {
                let borders = hier.borders(r);
                let nb = borders.len();
                let mut dmat = vec![Weight::INFINITY; nb * nb];
                for (bi, &b) in borders.iter().enumerate() {
                    dij.expand_filtered_multi(
                        &g,
                        WeightKind::Distance,
                        &[(b, Weight::ZERO)],
                        |e| hier.rnet_of_edge_at(e, lv) == r,
                        &mut |n, d| {
                            if let Some(ti) = borders.iter().position(|&t| t == n) {
                                dmat[bi * nb + ti] = d;
                            }
                            road_network::dijkstra::Control::Continue
                        },
                    );
                }
                for bi in 0..nb {
                    for ti in 0..nb {
                        if ti == bi {
                            continue;
                        }
                        let d = dmat[bi * nb + ti];
                        let covered = (0..nb).any(|mi| {
                            let (first, second) = (dmat[bi * nb + mi], dmat[mi * nb + ti]);
                            assert!(first + second >= d, "{r:?}: a split beats a shortest path");
                            first > Weight::ZERO && second > Weight::ZERO && first + second == d
                        });
                        let keep = d.is_finite() && !covered;
                        let present = store.between(r, borders[bi], borders[ti]).is_some();
                        assert_eq!(
                            present, keep,
                            "{w}x{h} {r:?}: membership of {}->{} disagrees with the keep \
                             rule (d = {d}, covered = {covered})",
                            borders[bi], borders[ti]
                        );
                        dropped += usize::from(d.is_finite() && covered);
                    }
                }
            }
        }
        dropped
    }

    /// Every covered pair is a tie, so a drop on the 8x8 unit grid pins
    /// that ties drop the shortcut rather than keep it.
    #[test]
    fn matrix_rule_governs_membership_and_ties_drop() {
        assert!(
            assert_keep_rule_on_grid(8, 8) > 0,
            "unit grid produced no equal-weight tie to pin"
        );
    }

    /// Lemma 4 on an odd-sided grid: the store is exactly the pairs the
    /// keep rule admits, and the rule drops at least one reachable pair.
    #[test]
    fn lemma4_keeps_exactly_the_uncovered_pairs_on_an_odd_grid() {
        assert!(assert_keep_rule_on_grid(9, 7) > 0, "9x7: Lemma 4 dropped no reachable pair");
    }

    /// Degenerate leaves: a single-border Rnet keeps no shortcuts at all,
    /// and a zero-interior Rnet keeps exactly the direct border-to-border
    /// arc with an empty via list.  Border pairs disconnected *within*
    /// their Rnet stay absent from the store, not stored as infinity.
    #[test]
    fn degenerate_leaves_single_border_and_zero_interior() {
        // Path a-b-c-d; leaf 1 owns only the middle edge b-c, so it has
        // borders {b, c} and zero interior nodes, while b and c fall in two
        // different components of leaf 0 (a-b and c-d).
        let g = simple::chain(4, 1.0);
        let edges: Vec<_> = g.edge_ids().collect();
        let hier =
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(e == edges[1])).unwrap();
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        let (b, c) = (NodeId(1), NodeId(2));
        let middle = hier.leaf_of_edge(edges[1]);
        let outer = hier.leaf_of_edge(edges[0]);
        let sc = store.between(middle, b, c).expect("zero-interior leaf keeps the direct arc");
        assert_eq!(sc.dist, Weight::new(1.0));
        assert!(sc.via.is_empty(), "direct border-to-border arc must have no waypoints");
        assert!(store.between(middle, c, b).is_some(), "shortcuts are stored per direction");
        // b and c are disconnected inside leaf 0: absent, not infinite.
        assert!(store.between(outer, b, c).is_none());
        assert!(store.between(outer, c, b).is_none());

        // Path a-b-c split at b: every leaf sees exactly one border, so the
        // whole store is empty.
        let g = simple::chain(3, 1.0);
        let edges: Vec<_> = g.edge_ids().collect();
        let hier =
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(e == edges[1])).unwrap();
        let store = ShortcutStore::build(&g, &hier, WeightKind::Distance, &Default::default());
        assert_eq!(store.num_shortcuts(), 0, "single-border Rnets keep no shortcuts");
    }

    /// The size switch picks a way to compute `dmat` and to read a kept
    /// pair's path, never what is stored: on a world with local graphs on
    /// both sides of [`DENSE_MAX_NODES`], dense elimination everywhere,
    /// contraction everywhere, the switched build and the all-pairs oracle
    /// serialize to the same bytes. Weights are dyadic, so every path sum
    /// is exact and "same distances" means "same bits", and each carries
    /// its own random multiple of 2^-30, so no two paths are equally long
    /// and "the shortest border-free path" means one path — an unpacked
    /// elimination and a sealed Dijkstra are only bound to agree on that.
    #[test]
    fn either_arm_builds_the_same_bytes_on_a_world_straddling_the_switch() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // 27 x 26 grid: leaf 0 takes the left 21 columns (546 nodes), the
        // other three share the rest by rows.
        let (w, h) = (27u32, 26u32);
        let mut g = simple::grid(w as usize, h as usize, 1.0);
        let mut rng = StdRng::seed_from_u64(0xD1AD);
        for e in g.edge_ids().collect::<Vec<_>>() {
            let sixty_fourths = f64::from(rng.random_range(1..=1024u32)) / 64.0;
            let tie_break = f64::from(rng.random_range(0..1u32 << 20)) / f64::from(1u32 << 30);
            g.set_weight(e, WeightKind::Distance, Weight::new(sixty_fourths + tie_break)).unwrap();
        }
        let hier = RnetHierarchy::from_leaf_assignment(&g, 2, 2, |e| {
            let (a, b) = g.edge(e).endpoints();
            let (col, row) = (a.0.max(b.0) % w, a.0.max(b.0) / w);
            if col <= 20 {
                0
            } else {
                1 + row * 3 / h
            }
        })
        .unwrap();

        let opts = ShortcutOptions::default();
        let bytes = |store: &ShortcutStore| {
            let mut out = Vec::new();
            store.serialize_into(&mut out);
            out
        };
        let kind = WeightKind::Distance;
        let switched = bytes(&ShortcutStore::build(&g, &hier, kind, &opts));
        let sizes = std::cell::RefCell::new(Vec::new());
        let dense = ShortcutStore::build_inline_with(&g, &hier, kind, |scratch, nb| {
            sizes.borrow_mut().push(scratch.csr.num_nodes());
            scratch.eliminate_into_dmat(nb)
        });
        let sizes = sizes.into_inner();
        assert!(sizes.iter().any(|&n| n > DENSE_MAX_NODES), "nothing above the switch: {sizes:?}");
        assert!(sizes.iter().any(|&n| n <= DENSE_MAX_NODES), "nothing below it: {sizes:?}");
        let contracted = ShortcutStore::build_inline_with(&g, &hier, kind, |scratch, nb| {
            scratch.contract_into_dmat(nb)
        });
        assert!(dense.num_shortcuts() > 0);
        assert_eq!(bytes(&dense), switched, "dense elimination everywhere diverged");
        assert_eq!(bytes(&contracted), switched, "contraction everywhere diverged");
        let oracle = ShortcutStore::build_with_oracle(&g, &hier, kind);
        assert_eq!(bytes(&oracle), switched, "the all-pairs oracle diverged");
    }

    /// The dense arm searches for nothing: a world whose every local graph
    /// is below the switch is repaired, Rnet by Rnet and bottom-up — which
    /// is also how it is built — without one sealed Dijkstra. A leaf above
    /// the switch still runs one per source border that keeps a pair.
    #[test]
    fn below_the_switch_no_sealed_dijkstra_runs() {
        let kind = WeightKind::Distance;
        let opts = ShortcutOptions { threads: 1 };
        let mut g = road_network::generator::Dataset::CaHighways.generate_scaled(0.02, 5).unwrap();
        let cfg = HierarchyConfig { fanout: 4, levels: 3, ..Default::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        let mut store = ShortcutStore::build(&g, &hier, kind, &opts);
        for e in g.edge_ids().step_by(5).collect::<Vec<_>>() {
            let slower = Weight::new(g.weight(e, kind).get() * 1.75);
            g.set_weight(e, kind, slower).unwrap();
        }
        let mut workers = WorkerScratches::default();
        let mut changed = 0;
        for level in (1..=hier.levels()).rev() {
            for r in hier.rnets_at_level(level) {
                changed += usize::from(refresh_one(&mut store, &g, &hier, r, &opts, &mut workers));
                let nodes = workers.scratches[0].csr.num_nodes();
                assert!(nodes <= DENSE_MAX_NODES, "{r:?} is above the switch");
            }
        }
        assert!(changed > 0 && store.num_shortcuts() > 0);
        assert_eq!(workers.scratches[0].sealed_runs, 0);
        store.verify_against_rebuild(&g, &hier, kind, &opts).unwrap();

        // 1,200 nodes in two leaves: the contractor's, and its finalisation.
        let g = simple::grid(40, 30, 1.0);
        let cfg = HierarchyConfig { fanout: 2, levels: 1, ..Default::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        let mut store = ShortcutStore::build(&g, &hier, kind, &opts);
        let leaf = hier.rnets_at_level(1).next().unwrap();
        refresh_one(&mut store, &g, &hier, leaf, &opts, &mut workers);
        assert!(workers.scratches[0].csr.num_nodes() > DENSE_MAX_NODES);
        assert!(workers.scratches[0].sealed_runs > 0);
    }
}
