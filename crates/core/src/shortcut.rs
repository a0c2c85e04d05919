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
//! An Rnet's shortcuts live in two flat tables (`RnetShortcuts`). The
//! *hot* one holds only what a bypass reads: a table of run starts, one
//! per border node in the order of [`RnetHierarchy::borders`] (a border's
//! *slot*) and one more, followed by one run of 12-byte heads `(to, dist)`
//! per slot, all in one allocation. The *cold* one holds the waypoints and
//! where each head's waypoints end. The slot of a border in each Rnet it
//! borders sits in its shortcut tree
//! ([`crate::hierarchy::TreeEntry::slot`]), so a bypass indexes its run
//! and scans the heads: no search, no hash, no per-shortcut allocation,
//! and two dependent loads from the per-Rnet table to the first head —
//! the hot table's pointer, then the run's two starts. The file format
//! lists each Rnet's non-empty runs by ascending source node instead; the
//! writer orders the slots by their nodes, and the decoder maps every
//! stored source back to its slot through the hierarchy, rejecting a
//! source or a target that is not a border of the Rnet.
//!
//! Each table sits behind its own [`Arc`], and the per-Rnet table of those
//! pairs of `Arc`s is a [`CowChunks`] of 64 pairs a chunk: cloning the
//! store copies one pointer per chunk (86 on a 5,460-Rnet hierarchy), and
//! a refresh of one Rnet copies the chunk of pairs that holds it, leaving
//! every other Rnet's tables — and every other chunk — physically shared
//! with prior clones. This is what makes snapshot publication in
//! [`crate::live`] cheap: an update clones only the affected Rnets'
//! shortcut data and a chunk of pairs each.

use crate::framework::UpdateOutcome;
use crate::hierarchy::{BordersBefore, RnetHierarchy, RnetId};
use road_network::contractor::{ContractionOrder, Contractor};
use road_network::csr::{CsrBuilder, CsrGraph};
use road_network::dijkstra::LocalDijkstra;
use road_network::fanout::{fan_out, Aborted, Plan, PlanTask, WarmWorkers};
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::minplus;
use road_network::path::Path;
use road_network::{CowChunks, NodeId, Weight};
use road_storage::decode::{Cursor, DecodeError, Words};
use std::cmp::Reverse;
use std::ops::Deref;
use std::sync::Arc;

/// A copy-on-write chunk of the store's per-Rnet table holds `2^6` pairs
/// of table pointers: a refresh copies one chunk (1,536 bytes), a fork one
/// pointer per chunk.
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

/// A stored shortcut as a bypass reads it: its target and length, without
/// waypoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ShortcutHead {
    pub(crate) to: NodeId,
    pub(crate) dist: Weight,
}

/// Words of a head in an Rnet's hot table: `to`, then the bits of `dist`,
/// low word first.
const HEAD_WORDS: usize = 3;

/// All shortcuts of one Rnet (see the module docs), in two allocations.
///
/// `hot` is what a bypass reads, in 32-bit words: a start table with one
/// entry per slot and one more, then the heads of every run back to back
/// ([`HEAD_WORDS`] each), in slot order and within a run in the order the
/// builder kept them. The shortcuts of the border in slot `s` are the
/// words `hot[s]..hot[s + 1]`. A start is a word index into `hot` itself,
/// so the first run starts right after the table, and `hot[0]` is also the
/// table's length: a slot at or past it has no run. An Rnet without
/// shortcuts has no words at all. So from the table's pointer a bypass
/// reaches its heads in one more load.
///
/// `cold` holds the waypoints, which only path expansion, repair and the
/// file format read: head `k`'s are `vias[ends[k - 1]..ends[k]]`.
///
/// Cloning shares both; the per-Rnet table of the store holds this pair
/// itself, so copy-on-write un-shares a chunk of pairs, never a table.
#[derive(Clone, Debug, Default)]
pub(crate) struct RnetShortcuts {
    hot: Arc<[u32]>,
    cold: Arc<Waypoints>,
}

/// The waypoints of an Rnet's shortcuts, by head (see [`RnetShortcuts`]).
#[derive(Debug, Default)]
struct Waypoints {
    ends: Box<[u32]>,
    vias: Box<[NodeId]>,
}

/// The heads of one run, borrowed from an Rnet's hot table.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Heads<'a>(&'a [[u32; HEAD_WORDS]]);

impl<'a> Heads<'a> {
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.0.len()
    }

    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The `k`-th head of the run.
    pub(crate) fn get(self, k: usize) -> Option<ShortcutHead> {
        self.0.get(k).map(|&words| unpack_head(words))
    }

    #[inline]
    pub(crate) fn iter(self) -> impl Iterator<Item = ShortcutHead> + 'a {
        self.0.iter().map(|&words| unpack_head(words))
    }
}

#[inline]
fn unpack_head([to, lo, hi]: [u32; HEAD_WORDS]) -> ShortcutHead {
    ShortcutHead {
        to: NodeId(to),
        dist: Weight::new(f64::from_bits(u64::from(hi) << 32 | u64::from(lo))),
    }
}

fn pack_head(to: NodeId, dist: Weight) -> [u32; HEAD_WORDS] {
    let bits = dist.get().to_bits();
    [to.0, bits as u32, (bits >> 32) as u32]
}

/// Table offsets are `u32`. The builder can only get past that by holding
/// 16 GiB of heads or of waypoints for a single Rnet.
fn arena_offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "one Rnet's shortcut arena outgrew its 32-bit offsets");
    len as u32
}

impl RnetShortcuts {
    fn num_shortcuts(&self) -> usize {
        self.cold.ends.len()
    }

    /// Modelled serialized bytes: 16 per head, 4 per waypoint.
    fn size_bytes(&self) -> usize {
        16 * self.cold.ends.len() + 4 * self.cold.vias.len()
    }

    /// Length of the start table; 0 without shortcuts.
    #[inline]
    fn table_len(&self) -> usize {
        self.hot.first().map_or(0, |&len| len as usize)
    }

    /// Word range in `hot` of the run in `slot`; empty past the last.
    #[inline]
    fn run_words(&self, slot: usize) -> std::ops::Range<usize> {
        match self.hot.get(slot..self.table_len()).and_then(|starts| starts.first_chunk()) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            None => 0..0,
        }
    }

    /// The heads of the shortcuts leaving the border in `slot`.
    #[inline]
    pub(crate) fn heads_at(&self, slot: usize) -> Heads<'_> {
        Heads(self.hot.get(self.run_words(slot)).unwrap_or_default().as_chunks().0)
    }

    /// Index range of the run in `slot` among all the Rnet's heads (the
    /// index its waypoint ends go by).
    fn run(&self, slot: usize) -> std::ops::Range<usize> {
        let (words, table) = (self.run_words(slot), self.table_len());
        let head = |word: usize| word.saturating_sub(table) / HEAD_WORDS;
        head(words.start)..head(words.end)
    }

    /// Do `self` and `other` share their allocations (one is a clone of
    /// the other), rather than merely hold equal shortcuts?
    fn is_shared_with(&self, other: &RnetShortcuts) -> bool {
        Arc::ptr_eq(&self.hot, &other.hot) && Arc::ptr_eq(&self.cold, &other.cold)
    }

    /// The non-empty runs as `(slot, source, heads)`, by ascending source
    /// node — the order the file format and the paged engine's lazy
    /// page-in write them. `borders` is the border list the table is
    /// indexed by: in node order, so the slots are too, unless a topology
    /// edit appended to it, and only then are they sorted.
    pub(crate) fn runs_by_source<'a>(
        &'a self,
        borders: &'a [NodeId],
    ) -> impl Iterator<Item = (usize, NodeId, Heads<'a>)> + 'a {
        let by_node = (!borders.is_sorted()).then(|| {
            let mut slots: Vec<usize> = (0..borders.len()).collect();
            slots.sort_unstable_by_key(|&slot| borders.get(slot).copied());
            slots
        });
        (0..borders.len())
            .map(move |i| by_node.as_ref().and_then(|slots| slots.get(i).copied()).unwrap_or(i))
            .filter_map(move |slot| {
                let heads = self.heads_at(slot);
                Some((slot, *borders.get(slot)?, heads)).filter(|_| !heads.is_empty())
            })
    }

    /// The `k`-th head with its waypoints.
    fn edge(&self, k: usize) -> Option<ShortcutEdge<'_>> {
        let words = self.hot.get(self.table_len()..)?.as_chunks().0.get(k)?;
        let (head, ends) = (unpack_head(*words), &self.cold.ends);
        let via_start = match k.checked_sub(1) {
            Some(before) => *ends.get(before)?,
            None => 0,
        };
        let via = self.cold.vias.get(via_start as usize..*ends.get(k)? as usize)?;
        Some(ShortcutEdge { to: head.to, dist: head.dist, via })
    }

    /// The shortcuts leaving the border in `slot`, waypoints included.
    fn edges_at(&self, slot: usize) -> impl Iterator<Item = ShortcutEdge<'_>> {
        self.run(slot).filter_map(|k| self.edge(k))
    }

    /// The shortcut from the border in `slot` to `to`, found over the
    /// heads alone.
    fn between(&self, slot: usize, to: NodeId) -> Option<ShortcutEdge<'_>> {
        let at = self.heads_at(slot).iter().position(|sc| sc.to == to)?;
        self.edge(self.run(slot).start + at)
    }
}

/// An Rnet's shortcuts while they are written — by the builder, in slot
/// order, or by the decoder, skipping to each stored source's slot — and
/// copied into an [`RnetShortcuts`] by [`RnetBuilder::finish`], which
/// leaves it empty for the next Rnet.
#[derive(Default)]
pub(crate) struct RnetBuilder {
    /// End of each closed run in `heads`, by slot.
    run_ends: Vec<u32>,
    heads: Vec<[u32; HEAD_WORDS]>,
    /// End of each head's waypoints in `vias`.
    via_ends: Vec<u32>,
    vias: Vec<NodeId>,
}

impl RnetBuilder {
    /// A builder with room for whatever a serialized section of `bytes`
    /// bytes holds for an Rnet of `slots` borders (a head takes at least
    /// 16 bytes of it, a waypoint 4), so decoding it grows no buffer.
    pub(crate) fn for_section(slots: usize, bytes: usize) -> Self {
        RnetBuilder {
            run_ends: Vec::with_capacity(slots),
            heads: Vec::with_capacity(bytes / 16),
            via_ends: Vec::with_capacity(bytes / 16),
            vias: Vec::with_capacity(bytes / 4),
        }
    }

    /// Runs closed so far.
    fn num_runs(&self) -> usize {
        self.run_ends.len()
    }

    /// Appends a shortcut of the run being written; its waypoints are
    /// whatever the caller pushed onto `vias` since the previous head.
    fn push_head(&mut self, to: NodeId, dist: Weight) {
        self.heads.push(pack_head(to, dist));
        self.via_ends.push(arena_offset(self.vias.len()));
    }

    /// Closes the run of the next slot: the heads pushed since the
    /// previous run closed, possibly none.
    fn end_run(&mut self) {
        self.run_ends.push(arena_offset(self.heads.len()));
    }

    /// Closes empty runs up to `slots`, copies what was written into the
    /// two tables of an [`RnetShortcuts`] — exactly sized, since they live
    /// as long as the store (and every snapshot sharing them) does — and
    /// empties the builder for the next Rnet.
    pub(crate) fn finish(&mut self, slots: usize) -> RnetShortcuts {
        while self.num_runs() < slots {
            self.end_run();
        }
        let hot = if self.heads.is_empty() {
            Arc::default()
        } else {
            let table = self.run_ends.len() + 1;
            let start = |heads: u32| arena_offset(table + HEAD_WORDS * heads as usize);
            let starts = std::iter::once(0).chain(self.run_ends.iter().copied()).map(start);
            starts.chain(self.heads.as_flattened().iter().copied()).collect()
        };
        let cold = Arc::new(Waypoints {
            ends: self.via_ends.as_slice().into(),
            vias: self.vias.as_slice().into(),
        });
        self.run_ends.clear();
        self.heads.clear();
        self.via_ends.clear();
        self.vias.clear();
        RnetShortcuts { hot, cold }
    }
}

/// What [`ShortcutStore::walk_rnet_section`] writes a section into as it
/// checks it: nothing (`()`), an [`RnetBuilder`], or the paged engine's
/// shortcut records. Per stored source the walk calls `open_run`, then
/// `waypoints` and `shortcut` for each of its shortcuts, then
/// `close_run`; each call comes after the checks of what it hands over.
/// A section that fails a check leaves the sink half written.
pub(crate) trait SectionSink {
    /// A stored source's run begins: its slot and its shortcut count.
    fn open_run(&mut self, _slot: usize, _len: usize) {}

    /// The waypoints of the next shortcut, every one below the node count.
    fn waypoints(&mut self, _vias: Words<'_>) {}

    /// A shortcut of the run: a border of the Rnet as its target, a
    /// distance that is neither NaN nor negative.
    fn shortcut(&mut self, _to: NodeId, _dist: f64) {}

    /// The run's last shortcut has been handed over.
    fn close_run(&mut self) {}
}

/// The walk that only checks.
impl SectionSink for () {}

/// The decoder: each stored source's run lands in its slot, the runs
/// before it empty.
impl SectionSink for RnetBuilder {
    fn open_run(&mut self, slot: usize, len: usize) {
        while self.num_runs() < slot {
            self.end_run();
        }
        self.heads.reserve(len);
        self.via_ends.reserve(len);
    }

    fn waypoints(&mut self, vias: Words<'_>) {
        self.vias.extend(vias.iter().map(NodeId));
    }

    fn shortcut(&mut self, to: NodeId, dist: f64) {
        self.push_head(to, Weight::new(dist));
    }

    fn close_run(&mut self) {
        self.end_run();
    }
}

/// Shortcut construction options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortcutOptions {
    /// Worker threads for construction and repair: an Rnet reads only its
    /// own children's shortcuts (Lemma 2), so a build, and each repair,
    /// runs as one plan ([`road_network::fanout::Plan`]) that these threads
    /// drain together, each on a scratch of its own, a parent as soon as
    /// its last child is done, whatever the rest of its level is doing.
    /// A build drains on scoped threads; a framework's repairs on worker
    /// threads it keeps parked, scratches warm, across updates. `0` means
    /// "use [`std::thread::available_parallelism`]", `1` runs fully inline.
    /// [`RoadFramework::build`](crate::RoadFramework::build) builds the
    /// hierarchy under the same setting — each binary round of the
    /// partitioner fans its groups out over scoped threads. The thread
    /// count never changes a single output byte: every Rnet's map lands in
    /// the slot of its task and the slots are committed in hierarchy order
    /// at the end, so scheduling cannot reorder anything observable
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
/// every Rnet's tables with the original; a refresh then replaces only
/// the refreshed Rnet's tables and copies the chunk of pointers that holds
/// them, which is the structural-sharing contract the live engine's
/// snapshots rely on.
#[derive(Clone)]
pub struct ShortcutStore {
    /// Element `r` holds the shortcuts of Rnet `r`, by source border node.
    per_rnet: CowChunks<RnetShortcuts>,
    num_shortcuts: usize,
    /// Modelled serialized bytes of every stored shortcut, maintained
    /// incrementally by [`ShortcutStore::replace_rnet`] exactly like
    /// `num_shortcuts` — [`ShortcutStore::size_bytes`] must not re-walk
    /// every list on each call (the index-size reports sum it per build,
    /// and parallel construction makes full walks costlier still).
    num_bytes: usize,
}

impl ShortcutStore {
    /// Builds every Rnet's shortcuts bottom-up: one refresh of every Rnet
    /// from an empty store, drained by [`ShortcutOptions::threads`] scoped
    /// threads ([`fan_out`]), each on a scratch of its own: at two threads
    /// one takes the Rnets up from the first, the other down from the last,
    /// so each allocates a contiguous run of maps. A parent is computed as
    /// soon as its own children are, whatever the rest of its level is
    /// doing, and the maps are committed in hierarchy order at the end, so
    /// the store is **byte-identical** to a single-threaded build
    /// regardless of scheduling (pinned by `tests/parallel_build.rs`).
    pub fn build(
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        opts: &ShortcutOptions,
    ) -> Self {
        Self::build_with(g, hier, kind, resolve_threads(opts.threads), size_switched)
    }

    /// [`ShortcutStore::build`] on at most `threads` threads, every Rnet's
    /// `dmat` filled by `fill_dmat` (see [`Refresh::refresh`]).
    fn build_with(
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        kind: WeightKind,
        threads: usize,
        fill_dmat: impl Fn(&mut BuildScratch, usize) -> PathSource + Sync,
    ) -> Self {
        let mut store = ShortcutStore::empty(hier.num_rnets());
        let every: Vec<RnetId> = (0..hier.num_rnets() as u32).map(RnetId).collect();
        let before = BordersBefore::default();
        let run = Refresh::new(store.clone(), g, hier, kind, before, &every);
        let mut scratches: Vec<BuildScratch> = Vec::new();
        scratches.resize_with(threads.min(run.plan.width()).max(1), BuildScratch::default);
        fan_out(scratches.iter_mut().enumerate(), |(thread, scratch)| {
            run.drain(scratch, thread, &fill_dmat)
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        run.commit(&mut store);
        store
    }

    fn empty(num_rnets: usize) -> Self {
        ShortcutStore {
            per_rnet: CowChunks::from_vec(
                (0..num_rnets).map(|_| RnetShortcuts::default()).collect(),
                RNET_CHUNK_SHIFT,
            ),
            num_shortcuts: 0,
            num_bytes: 0,
        }
    }

    /// Outgoing shortcuts of node `n` within Rnet `r`, in stored order;
    /// none unless `n` borders `r` in `hier`, the hierarchy the store was
    /// built over.
    pub fn from<'a>(
        &'a self,
        hier: &RnetHierarchy,
        r: RnetId,
        n: NodeId,
    ) -> impl Iterator<Item = ShortcutEdge<'a>> {
        let rnet = self.rnet(r);
        hier.slot_of(n, r).into_iter().flat_map(move |slot| rnet.edges_at(slot))
    }

    /// `(target, distance)` of the shortcuts leaving the border in `slot`
    /// of Rnet `r` (see [`crate::hierarchy::TreeEntry::slot`]), without
    /// their waypoints: what a bypass relaxes and what the paged engine
    /// lays onto its hot records.
    #[inline]
    pub(crate) fn heads_at(&self, r: RnetId, slot: usize) -> Heads<'_> {
        self.per_rnet.get(r.0 as usize).map(|rnet| rnet.heads_at(slot)).unwrap_or_default()
    }

    /// The stored shortcut `from -> to` within `r`, if kept.
    pub fn between(
        &self,
        hier: &RnetHierarchy,
        r: RnetId,
        from: NodeId,
        to: NodeId,
    ) -> Option<ShortcutEdge<'_>> {
        self.rnet(r).between(hier.slot_of(from, r)?, to)
    }

    /// The tables of Rnet `r`.
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
            *slot = new;
        }
    }

    /// How many Rnets' shortcut tables this store physically shares with
    /// `other` (same allocation, not merely equal contents). Two stores
    /// related by snapshot forks share every Rnet that no intervening
    /// maintenance refreshed — the quantity the live-serving tests and
    /// roadbench's `core.live.shared_rnets_share` use to prove updates
    /// never fall back to full rebuilds.
    pub fn shared_rnet_count(&self, other: &ShortcutStore) -> usize {
        self.per_rnet.iter().zip(other.per_rnet.iter()).filter(|(a, b)| a.is_shared_with(b)).count()
    }

    /// Whether this store physically shares Rnet `r`'s tables with
    /// `other`: true of every Rnet that no maintenance refreshed since one
    /// store was forked from the other.
    pub fn shares_rnet(&self, other: &ShortcutStore, r: RnetId) -> bool {
        let i = r.0 as usize;
        self.per_rnet.get(i).zip(other.per_rnet.get(i)).is_some_and(|(a, b)| a.is_shared_with(b))
    }

    /// How many chunks of the per-Rnet table (64 pairs of pointers each)
    /// this store physically shares with `other`: a fork shares all
    /// of them, and a refresh un-shares the one chunk holding its Rnet.
    pub fn shared_rnet_chunks(&self, other: &ShortcutStore) -> usize {
        self.per_rnet.shared_chunks(&other.per_rnet)
    }

    /// Bytes of the per-Rnet table copied to un-share chunks from the
    /// store's clones (pointers only: a refreshed Rnet's new tables are a
    /// write, not a copy).
    pub(crate) fn bytes_copied(&self) -> u64 {
        self.per_rnet.bytes_copied()
    }

    /// Recomputes the shortcuts of the Rnets in `forced` and of their
    /// ancestors in place — filter-and-refresh (Section 5.2): each Rnet in
    /// `forced` is recomputed, and each ancestor only if one of its
    /// children's shortcut sets changed (Lemma 2), so a list closed under
    /// parents refreshes every Rnet on it. The refresh is drained on the
    /// calling thread and `workers`' parked threads, a parent as soon as
    /// its own children are done; the maps are committed at the end, finest
    /// level first and then by id, so the store and the returned counters
    /// are the same at every thread count. An Rnet's old arena is read
    /// under its border list in `before` when a topology edit changed it,
    /// under `hier`'s otherwise. A panic in any Rnet's computation is
    /// re-raised here with nothing committed.
    #[allow(clippy::too_many_arguments, reason = "the store's one repair entry point")]
    pub(crate) fn repair(
        &mut self,
        g: &Arc<RoadNetwork>,
        hier: &Arc<RnetHierarchy>,
        kind: WeightKind,
        forced: &[RnetId],
        before: &BordersBefore,
        opts: &ShortcutOptions,
        workers: &mut WorkerScratches,
    ) -> UpdateOutcome {
        if forced.is_empty() {
            return UpdateOutcome::default();
        }
        let (g, hier, before) = (Arc::clone(g), Arc::clone(hier), before.clone());
        let run = Refresh::new(self.clone(), g, hier, kind, before, forced);
        let run = Arc::new(run);
        workers.drain(&run, opts);
        // Every job dropped its handle before it answered.
        let Some(run) = Arc::into_inner(run) else {
            panic!("a repair job outlived its run");
        };
        run.commit(self)
    }

    /// Same `(from, to)` pairs at approximately equal distances? Each
    /// arena is read under the border list it is indexed by, which a
    /// border change between the two builds may have permuted; so runs are
    /// matched by source node, and a target is looked for in place first
    /// and anywhere in the list second. Targets are unique within a source
    /// (one matrix cell each), which makes the equal-length one-way match a
    /// bijection.
    fn maps_equivalent(
        a: &RnetShortcuts,
        a_borders: &[NodeId],
        b: &RnetShortcuts,
        b_borders: &[NodeId],
    ) -> bool {
        let (mut runs_a, mut runs_b) = (a.runs_by_source(a_borders), b.runs_by_source(b_borders));
        loop {
            let ((_, from_a, ha), (_, from_b, hb)) = match (runs_a.next(), runs_b.next()) {
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

    /// Shared finalisation of a pruned build: apply the matrix keep rule to
    /// `scratch.dmat`, then give each kept pair its border-free distance
    /// and waypoints from wherever `paths` says they are — the elimination
    /// that filled `dmat` (the dense arm), or one *sealed* Dijkstra per
    /// source border over the local CSR (borders settle but never expand),
    /// whose predecessor chains are border-free by construction. Either
    /// way the distance is the sum of the path's arc weights from the
    /// source onwards, so the same path is stored at the same bits.
    fn finalize_from_matrix(
        scratch: &mut BuildScratch,
        borders: &[NodeId],
        paths: PathSource,
        out: &mut RnetBuilder,
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
        // One run per border, in slot order — the borders' local ids; a
        // source's run depends on nothing but its own matrix rows.
        for bi in 0..nb {
            scratch.kept.clear();
            let row = &scratch.dmat[bi * nb..(bi + 1) * nb];
            let covers = &scratch.cover[bi * nb..(bi + 1) * nb];
            for (ti, (&d, &cover)) in row.iter().zip(covers).enumerate() {
                // An infinite distance is an internally disconnected Rnet:
                // no shortcut.
                if ti != bi && d != f64::INFINITY && d < cover {
                    scratch.kept.push(ti as u32);
                }
            }
            if scratch.kept.is_empty() {
                out.end_run();
                continue;
            }
            // A kept pair may still have no border-free path: every path
            // runs through another border, and the matrix rule kept it all
            // the same — the border sits at distance zero from one end (a
            // zero leg covers nothing), or the covering sum rounded one ulp
            // above `d`. The through-border shortcuts already carry the
            // pair, so it is dropped rather than stored as infinite.
            match paths {
                PathSource::Elimination => {
                    let (elim, global) = (&mut scratch.elim, &scratch.global);
                    for &t in &scratch.kept {
                        let dist = elim
                            .unpack(bi as u32, t, |k| out.vias.push(NodeId(global[k as usize])));
                        if dist != f64::INFINITY {
                            out.push_head(NodeId(global[t as usize]), Weight::new(dist));
                        }
                    }
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
            out.end_run();
        }
    }

    /// Legacy all-pairs construction, kept as the differential-testing
    /// oracle: `dmat` comes from one *full* local-graph Dijkstra per border
    /// (the pre-contraction sweep) instead of an elimination, on one thread.
    /// Shares the canonical assembly, the matrix rule and the contractor
    /// arm's sealed finalisation with [`ShortcutStore::build`], and either
    /// elimination preserves all pairwise border distances exactly, so the
    /// two keep the same pairs at the same distances — and store the same
    /// bytes wherever no kept pair has two equally short border-free paths
    /// (the module docs have the tie case).
    #[doc(hidden)]
    pub fn build_with_oracle(g: &RoadNetwork, hier: &RnetHierarchy, kind: WeightKind) -> Self {
        Self::build_with(g, hier, kind, 1, |scratch, nb| {
            scratch.dmat.clear();
            for bi in 0..nb {
                scratch.dij.run_csr(&scratch.csr, bi as u32, &scratch.border_locals, 0);
                scratch.dmat.extend((0..nb).map(|ti| scratch.dij.dist(ti as u32).get()));
            }
            PathSource::SealedDijkstra
        })
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
                    if let Some(s) = self.between(hier, c, hop[0], hop[1]) {
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

    /// Appends a flat binary encoding of the store, built over `hier`, to
    /// `out` (see [`crate::persist`] for the enclosing format). Public so
    /// tests can locate the store section inside a full image
    /// byte-for-byte.
    pub fn serialize_into(&self, hier: &RnetHierarchy, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.per_rnet.len() as u32).to_le_bytes());
        for (r, rnet) in self.per_rnet.iter().enumerate() {
            // Each Rnet's non-empty runs by ascending source node: the
            // file does not depend on the order of the border list. Their
            // count goes in front once they are written.
            let count_at = out.len();
            out.extend_from_slice(&0u32.to_le_bytes());
            let mut count = 0u32;
            for (slot, from, _) in rnet.runs_by_source(hier.borders(RnetId(r as u32))) {
                count += 1;
                let run = rnet.run(slot);
                out.extend_from_slice(&from.0.to_le_bytes());
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
            if let Some(at) = out.get_mut(count_at..count_at + 4) {
                at.copy_from_slice(&count.to_le_bytes());
            }
        }
    }

    /// Decodes a store previously written by
    /// [`ShortcutStore::serialize_into`] for the hierarchy `hier` over
    /// `num_nodes` nodes; `pos` is advanced past it.
    ///
    /// Every count is validated against the bytes that remain, every node
    /// id against `num_nodes` and every shortcut's ends against the borders
    /// of its Rnet, so a truncated or bit-flipped buffer fails with an
    /// error instead of panicking, over-allocating, or producing a store
    /// that panics or answers wrongly at query time.
    pub(crate) fn deserialize(
        c: &mut Cursor<'_>,
        num_nodes: u32,
        hier: &RnetHierarchy,
    ) -> Result<Self, String> {
        let num_rnets = Self::read_store_header(c, hier.num_rnets())?;
        let mut per_rnet = Vec::with_capacity(num_rnets);
        let mut num_shortcuts = 0usize;
        let mut num_bytes = 0usize;
        let mut builder = RnetBuilder::default();
        for r in 0..num_rnets as u32 {
            let rnet = Self::decode_rnet_section(c, num_nodes, hier, RnetId(r), &mut builder)?;
            num_shortcuts += rnet.num_shortcuts();
            num_bytes += rnet.size_bytes();
            per_rnet.push(rnet);
        }
        let per_rnet = CowChunks::from_vec(per_rnet, RNET_CHUNK_SHIFT);
        Ok(ShortcutStore { per_rnet, num_shortcuts, num_bytes })
    }

    /// Reads and validates the store header (the Rnet-section count, each
    /// section at least its 4-byte source count) against the hierarchy —
    /// shared by the monolithic decode and the page-granular open so the
    /// two paths cannot drift.
    pub(crate) fn read_store_header(
        c: &mut Cursor<'_>,
        expected_rnets: usize,
    ) -> Result<usize, String> {
        let num_rnets = c.count(4).map_err(truncated("Rnet count"))?;
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
            per_rnet: CowChunks::from_vec(maps, RNET_CHUNK_SHIFT),
        }
    }

    /// Walks Rnet `r`'s section of a serialized store into `out`,
    /// validating counts against the remaining bytes, node ids against
    /// `num_nodes`, every source and target against `hier.borders(r)`,
    /// every distance (neither NaN nor negative) and the sources' strictly
    /// ascending slots. A hierarchy read from a file lists each Rnet's
    /// borders by ascending node, which is the order every writer of this
    /// format has emitted the sources in; so a valid section passes, and a
    /// duplicate source cannot. A run of waypoints is checked by its
    /// largest id and handed over as stored.
    ///
    /// The one section walker: the sink decides what a checked section
    /// becomes — nothing (`()`, how a lazily-opened image records per-Rnet
    /// byte ranges up front), an [`RnetBuilder`]
    /// ([`ShortcutStore::decode_rnet_section`]) or a paged engine's
    /// shortcut records. Every sink sees the same checks, so a section
    /// that passes one walk passes them all.
    pub(crate) fn walk_rnet_section(
        c: &mut Cursor<'_>,
        num_nodes: u32,
        hier: &RnetHierarchy,
        r: RnetId,
        out: &mut impl SectionSink,
    ) -> Result<(), String> {
        let check_node = |id: u32| -> Result<NodeId, String> {
            if id >= num_nodes {
                return Err(format!("shortcut references node {id} outside 0..{num_nodes}"));
            }
            Ok(NodeId(id))
        };
        let start = c.pos();
        // A source costs at least 8 bytes (node id + edge count).
        let num_sources = c.count(8).map_err(truncated("source count"))?;
        // A shortcut joins two borders of its Rnet: a source elsewhere has
        // no slot, and a target elsewhere would be a jump to anywhere. A
        // hierarchy read from a file lists each Rnet's borders in node
        // order, so a slot is found by binary search; another list is
        // scanned.
        let borders = hier.borders(r);
        let sorted = borders.is_sorted();
        let border_slot = |id: u32, end: &str| -> Result<usize, String> {
            let n = check_node(id)?;
            let slot = match sorted {
                true => borders.binary_search(&n).ok(),
                false => borders.iter().position(|&b| b == n),
            };
            slot.ok_or_else(|| format!("shortcut {end} {n} is not a border of {r:?}"))
        };
        let mut next_slot = 0;
        for _ in 0..num_sources {
            let from = c.u32().map_err(truncated("source"))?;
            let slot = border_slot(from, "source")?;
            if slot < next_slot {
                return Err(format!("duplicate or unsorted shortcut source node {from}"));
            }
            next_slot = slot + 1;
            // A shortcut costs at least 16 bytes.
            let num_edges = c.count(16).map_err(truncated("edge count"))?;
            out.open_run(slot, num_edges);
            for _ in 0..num_edges {
                let to = c.u32().map_err(truncated("target"))?;
                border_slot(to, "target")?;
                let dist = c.f64().map_err(truncated("distance"))?;
                if dist.is_nan() || dist < 0.0 {
                    return Err(format!("corrupt shortcut distance {dist}"));
                }
                let vias = c.words().map_err(truncated("waypoints"))?;
                if let Some(max) = vias.iter().max() {
                    check_node(max)?;
                }
                section_fits_arena(start, c.pos())?;
                out.waypoints(vias);
                out.shortcut(NodeId(to), dist);
            }
            out.close_run();
        }
        Ok(())
    }

    /// Decodes Rnet `r`'s section of a serialized store (see
    /// [`ShortcutStore::walk_rnet_section`], which checks it) through
    /// `builder`, which comes back empty either way.
    pub(crate) fn decode_rnet_section(
        c: &mut Cursor<'_>,
        num_nodes: u32,
        hier: &RnetHierarchy,
        r: RnetId,
        builder: &mut RnetBuilder,
    ) -> Result<RnetShortcuts, String> {
        let walked = Self::walk_rnet_section(c, num_nodes, hier, r, builder);
        let rnet = builder.finish(hier.borders(r).len());
        walked.map(|()| rnet)
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
            let borders = hier.borders(RnetId(i as u32));
            if !Self::maps_equivalent(a, borders, b, borders) {
                return Err(format!("Rnet R{i} shortcuts diverge from a fresh rebuild"));
            }
        }
        Ok(())
    }
}

/// An Rnet's tables address heads and waypoints by `u32`. A head takes 16
/// bytes of its section and 12 of the hot table, a waypoint 4 of each, so
/// a section of up to 16 GiB fits; both walkers refuse a longer one,
/// shortcut by shortcut, before `arena_offset` could be asked for more.
fn section_fits_arena(start: usize, pos: usize) -> Result<(), String> {
    if (pos - start) / 4 > u32::MAX as usize {
        return Err("shortcut section exceeds the 32-bit arena offsets".into());
    }
    Ok(())
}

/// The error of a section read that ran out of bytes: which field, and
/// whether the bytes ended or a count claimed more than they hold.
fn truncated(field: &'static str) -> impl Fn(DecodeError) -> String {
    move |e| format!("truncated shortcut store ({field}: {e})")
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

/// Fills `scratch.dmat` the way a build and every repair do: by dense
/// elimination up to [`DENSE_MAX_NODES`] local nodes, by node contraction
/// above. Under exact arithmetic both reproduce the all-pairs sweep's
/// distances bit for bit (all three are exact sums of the same edge
/// weights).
fn size_switched(scratch: &mut BuildScratch, nb: usize) -> PathSource {
    if scratch.csr.num_nodes() <= DENSE_MAX_NODES {
        scratch.eliminate_into_dmat(nb)
    } else {
        scratch.contract_into_dmat(nb)
    }
}

/// One refresh — a build or a repair — as every thread that drains it
/// reads it: the network and the hierarchy (borrowed by a build; shared
/// handles in a repair, whose parked workers own their jobs), the store as
/// it was before the refresh, the Rnets it may recompute in commit order
/// (finest level first, then by id) with the [`Plan`] over them, and the
/// old border lists of Rnets a topology edit changed.
struct Refresh<G, H> {
    store: ShortcutStore,
    g: G,
    hier: H,
    kind: WeightKind,
    before: BordersBefore,
    rnets: Vec<RnetId>,
    plan: Plan<Refreshed>,
}

/// A recomputed Rnet: its new tables, and the matrix entries the min-plus
/// kernels relaxed computing them.
struct Refreshed {
    map: RnetShortcuts,
    minplus_entries: u64,
}

/// A repair's refresh: what a parked worker is sent, one handle per thread.
type RepairRun = Refresh<Arc<RoadNetwork>, Arc<RnetHierarchy>>;

/// The position of `r` in `rnets`, sorted finest level first and then by
/// id; `None` when `r` is not there.
fn task_of(rnets: &[RnetId], hier: &RnetHierarchy, r: RnetId) -> Option<usize> {
    let key = |r: RnetId| (Reverse(hier.level_of(r)), r.0);
    rnets.binary_search_by_key(&key(r), |&x| key(x)).ok()
}

impl<G: Deref<Target = RoadNetwork>, H: Deref<Target = RnetHierarchy>> Refresh<G, H> {
    /// The refresh of `forced` over `store`: every Rnet in `forced` is a
    /// forced task, and every ancestor of one that is not itself in
    /// `forced` a conditional one. Task `i` of the plan is `rnets[i]`.
    fn new(
        store: ShortcutStore,
        g: G,
        hier: H,
        kind: WeightKind,
        before: BordersBefore,
        forced: &[RnetId],
    ) -> Self {
        let h: &RnetHierarchy = &hier;
        let mut tasks: Vec<(RnetId, bool)> = Vec::new();
        for &r in forced {
            tasks.push((r, true));
            let mut up = h.parent(r);
            while up.is_valid() {
                tasks.push((up, false));
                up = h.parent(up);
            }
        }
        // A forced copy sorts before a conditional one and survives the
        // dedup.
        tasks.sort_unstable_by_key(|&(r, forced)| (Reverse(h.level_of(r)), r.0, !forced));
        tasks.dedup_by_key(|&mut (r, _)| r);
        let rnets: Vec<RnetId> = tasks.iter().map(|&(r, _)| r).collect();
        let plan = Plan::new(
            tasks
                .iter()
                .map(|&(r, forced)| PlanTask { parent: task_of(&rnets, h, h.parent(r)), forced }),
        );
        Refresh { store, g, hier, kind, before, rnets, plan }
    }

    /// Runs the share of the refresh of the `thread`-th thread draining
    /// it on `scratch`; see [`Plan::drain`].
    fn drain(
        &self,
        scratch: &mut BuildScratch,
        thread: usize,
        fill_dmat: &impl Fn(&mut BuildScratch, usize) -> PathSource,
    ) -> Result<(), Aborted> {
        self.plan.drain(thread, |task| self.refresh(task, scratch, fill_dmat))
    }

    /// Recomputes the Rnet of `task` from the network (finest level) or
    /// from its children's shortcuts (upper levels), and says whether its
    /// shortcut set changed.
    ///
    /// The all-pairs border distance matrix `dmat` comes first, filled by
    /// `fill_dmat` from the assembled local graph, which also says where
    /// that left the kept pairs' paths: everything around it — canonical
    /// assembly, keep rule, emission — is shared by the size-switched
    /// build and the all-pairs oracle, which is what pins their outputs
    /// byte-equal wherever shortest paths are unique.
    fn refresh(
        &self,
        task: usize,
        scratch: &mut BuildScratch,
        fill_dmat: impl FnOnce(&mut BuildScratch, usize) -> PathSource,
    ) -> (Refreshed, bool) {
        #[cfg(test)]
        {
            scratch.rnets_computed += 1;
        }
        let r = self.rnets[task];
        let borders = self.hier.borders(r);
        let map = if borders.len() < 2 {
            RnetShortcuts::default()
        } else {
            self.assemble_local(r, scratch, borders);
            let paths = fill_dmat(scratch, borders.len());
            let mut out = std::mem::take(&mut scratch.out);
            ShortcutStore::finalize_from_matrix(scratch, borders, paths, &mut out);
            let map = out.finish(borders.len());
            scratch.out = out;
            map
        };
        let old = self.before.iter().find(|&&(id, _)| id == r).map_or(borders, |(_, old)| old);
        let changed = !ShortcutStore::maps_equivalent(self.store.rnet(r), old, &map, borders);
        let minplus_entries = std::mem::take(&mut scratch.minplus_entries);
        (Refreshed { map, minplus_entries }, changed)
    }

    /// Child `c`'s tables as this refresh reads them: what it computed
    /// for `c` if `c` ran, the store's otherwise.
    fn child(&self, c: RnetId) -> &RnetShortcuts {
        match task_of(&self.rnets, &self.hier, c).and_then(|task| self.plan.result(task)) {
            Some((done, _)) => &done.map,
            None => self.store.rnet(c),
        }
    }

    /// Assembles Rnet `r`'s local graph into `scratch.csr` under the
    /// *canonical numbering*: every border of `r` gets local id `0..nb` in
    /// `hier.borders(r)` order first (reachable or not), interiors follow in
    /// first-appearance order. Upper levels iterate children's borders in
    /// hierarchy order and look the lists up by key, so the assembly — and
    /// with it everything downstream — depends only on map *contents*,
    /// never on map iteration order.
    fn assemble_local(&self, r: RnetId, scratch: &mut BuildScratch, borders: &[NodeId]) {
        let (g, hier) = (&*self.g, &*self.hier);
        scratch.clear(g.num_nodes());
        for &b in borders {
            scratch.local(b.0);
        }
        scratch.border_locals.extend(0..borders.len() as u32);
        if hier.is_leaf(r) {
            for &e in hier.leaf_edge_list(r) {
                let rec = g.edge(e);
                let (w, (a, b)) = (rec.weight(self.kind), rec.endpoints());
                let (la, lb) = (scratch.local(a.0), scratch.local(b.0));
                scratch.builder.push(la, lb, w, e.0);
                scratch.builder.push(lb, la, w, e.0);
            }
        } else {
            for child in hier.children(r) {
                let tables = self.child(child);
                for (slot, &from) in hier.borders(child).iter().enumerate() {
                    let heads = tables.heads_at(slot);
                    if heads.is_empty() {
                        continue;
                    }
                    let lf = scratch.local(from.0);
                    for sc in heads.iter() {
                        let lt = scratch.local(sc.to.0);
                        scratch.builder.push(lf, lt, sc.dist, 0);
                    }
                }
            }
        }
        let (builder, csr) = (&mut scratch.builder, &mut scratch.csr);
        builder.finish_into(scratch.global.len(), csr);
    }

    /// Commits every recomputed Rnet's tables into `store` in task order —
    /// finest level first, then by id — after dropping the refresh's own
    /// clone of the store, so the commits find its chunks as unshared as
    /// they were; returns what the refresh refreshed, changed and relaxed.
    fn commit(self, store: &mut ShortcutStore) -> UpdateOutcome {
        let Refresh { store: as_before, rnets, plan, .. } = self;
        drop(as_before);
        let mut outcome = UpdateOutcome::default();
        for (r, done) in rnets.into_iter().zip(plan.into_results()) {
            let Some((refreshed, changed)) = done else { continue };
            outcome.rnets_refreshed += 1;
            outcome.rnets_changed += usize::from(changed);
            outcome.minplus_entries += refreshed.minplus_entries;
            store.replace_rnet(r, refreshed.map);
        }
        outcome
    }
}

/// A repair's threads: the calling thread's scratch and up to
/// [`ShortcutOptions::threads`]` - 1` parked workers, each with a scratch
/// of its own, spawned the first time a repair can keep them busy. Kept
/// across updates — a fresh scratch per worker and repair costs more than
/// a small repair on one thread, and a thread spawned and joined per
/// repair some 45 µs (ARCHITECTURE.md, "Parallel construction"). A
/// framework's clone starts with none of either, so a published snapshot
/// owns no thread.
pub(crate) struct WorkerScratches {
    /// The calling thread's scratch.
    own: BuildScratch,
    /// The other threads, each draining on its own scratch.
    helpers: WarmWorkers<BuildScratch, (Arc<RepairRun>, usize), Result<(), Aborted>>,
    /// [`ShortcutOptions::threads`] resolved once (asking the OS reads
    /// cgroup files, as long as a small Rnet's repair); `0` before the
    /// first repair.
    threads: usize,
}

impl Default for WorkerScratches {
    fn default() -> Self {
        WorkerScratches {
            own: BuildScratch::default(),
            helpers: WarmWorkers::new(|scratch, (run, thread)| {
                run.drain(scratch, thread, &size_switched)
            }),
            threads: 0,
        }
    }
}

impl WorkerScratches {
    /// Drains `run` on the calling thread and on as many parked workers as
    /// its plan can keep busy at once, one wake-up each; returns when every
    /// job has dropped its handle.
    fn drain(&mut self, run: &Arc<RepairRun>, opts: &ShortcutOptions) {
        if self.threads == 0 {
            self.threads = resolve_threads(opts.threads);
        }
        let jobs = self.threads.min(run.plan.width()).max(1);
        self.helpers
            .run(&mut self.own, (0..jobs).map(|thread| (Arc::clone(run), thread)))
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
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
    /// Matrix entries the min-plus kernels relaxed since the job that
    /// last took them.
    minplus_entries: u64,
    /// Kept target locals of the current source border (matrix rule).
    kept: Vec<u32>,
    /// The shortcuts of the Rnet being finalised, until they are copied
    /// into its tables.
    out: RnetBuilder,
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
                    for sc in store.from(hier, r, b) {
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
                    for sc in store.from(&hier, r, b) {
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
                    for sc in store.from(&hier, r, b) {
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

    /// Repairs Rnets the way a framework does: `forced` and, while their
    /// shortcut sets change, their ancestors, on `workers`.
    fn repair(
        store: &mut ShortcutStore,
        g: &Arc<RoadNetwork>,
        hier: &Arc<RnetHierarchy>,
        forced: &[RnetId],
        opts: &ShortcutOptions,
        workers: &mut WorkerScratches,
    ) -> UpdateOutcome {
        let (kind, before) = (WeightKind::Distance, BordersBefore::default());
        store.repair(g, hier, kind, forced, &before, opts, workers)
    }

    /// Refreshes Rnet `r`, and its ancestors while shortcut sets change;
    /// returns whether `r`'s changed.
    fn refresh_one(
        store: &mut ShortcutStore,
        g: &Arc<RoadNetwork>,
        hier: &Arc<RnetHierarchy>,
        r: RnetId,
        opts: &ShortcutOptions,
        workers: &mut WorkerScratches,
    ) -> bool {
        repair(store, g, hier, &[r], opts, workers).rnets_changed > 0
    }

    #[test]
    fn refresh_detects_weight_changes() {
        let mut g = simple::grid(6, 6, 1.0);
        let (hier, mut store) = build(&g, 4, 2);
        let (opts, mut workers) = (ShortcutOptions::default(), WorkerScratches::default());
        // Pick an edge inside some leaf Rnet with shortcuts.
        let e = g.edge_ids().next().unwrap();
        let leaf = hier.leaf_of_edge(e);
        let hier = Arc::new(hier);
        // No-op refresh: nothing changed.
        let changed =
            refresh_one(&mut store, &Arc::new(g.clone()), &hier, leaf, &opts, &mut workers);
        assert!(!changed, "refresh without a weight change must be a no-op");
        // Make the edge very expensive, then refresh the ancestor chain
        // finest first: the store equals a full rebuild.
        g.set_weight(e, WeightKind::Distance, Weight::new(100.0)).unwrap();
        let (mut chain, mut r) = (Vec::new(), leaf);
        while r.is_valid() {
            chain.push(r);
            r = hier.parent(r);
        }
        let g = Arc::new(g);
        repair(&mut store, &g, &hier, &chain, &opts, &mut workers);
        store.verify_against_rebuild(&g, &hier, WeightKind::Distance, &opts).unwrap();
    }

    /// Repair drains over parked workers: at `threads = 1` the calling
    /// thread's scratch computes every leaf and no worker is spawned, and
    /// at `threads = 2` one worker is spawned and sent the plan. The
    /// worker outlives the call, as a framework keeps it, and the second
    /// round spawns no other. Nothing changes, so no ancestor runs.
    #[test]
    fn a_repair_drains_on_a_parked_worker_only_at_two_threads() {
        let g = simple::grid(8, 8, 1.0);
        let (hier, mut store) = build(&g, 4, 2);
        let leaves: Vec<RnetId> = hier.rnets_at_level(hier.levels()).collect();
        assert!(leaves.len() >= 2, "{leaves:?}");
        let (g, hier) = (Arc::new(g), Arc::new(hier));
        for threads in [1, 2] {
            let opts = ShortcutOptions { threads };
            let mut workers = WorkerScratches::default();
            for round in 1..=2 {
                let outcome = repair(&mut store, &g, &hier, &leaves, &opts, &mut workers);
                assert_eq!((outcome.rnets_refreshed, outcome.rnets_changed), (leaves.len(), 0));
                if threads == 1 {
                    let own = workers.own.rnets_computed;
                    assert_eq!(own, round * leaves.len(), "threads = 1 fanned out");
                }
                assert_eq!(workers.helpers.threads(), threads - 1);
            }
        }
    }

    /// A repair that panics at a coarse level commits nothing, the finer
    /// levels it had finished included, and the next repair on the same
    /// workers — a fresh one where the panic ended a worker — runs to the
    /// rebuilt store. The panic comes from a corrupt sibling: a leaf whose
    /// stored shortcut leads to a node the network does not have, read by
    /// the parent of a leaf the repair changed — every edge of it three
    /// times as long.
    #[test]
    fn a_panicking_repair_commits_nothing_and_the_next_one_runs() {
        let mut g = simple::grid(8, 8, 1.0);
        let (hier, built) = build(&g, 4, 2);
        let kind = WeightKind::Distance;
        let e = g.edge_ids().next().unwrap();
        let leaf = hier.leaf_of_edge(e);
        let sibling = hier.children(hier.parent(leaf)).find(|&c| c != leaf).unwrap();
        let borders = hier.borders(sibling).to_vec();
        assert!(borders.len() >= 2, "{borders:?}");
        let mut store = built.clone();
        store.replace_rnet(sibling, arena(&borders, &[(borders[0].0, vec![(u32::MAX, 1.0)])]));
        for &e in hier.leaf_edge_list(leaf) {
            g.set_weight(e, kind, Weight::new(3.0)).unwrap();
        }
        let (g, hier) = (Arc::new(g), Arc::new(hier));
        let bytes = |s: &ShortcutStore| {
            let mut out = Vec::new();
            s.serialize_into(&hier, &mut out);
            out
        };
        let corrupt = bytes(&store);
        let opts = ShortcutOptions { threads: 2 };
        let mut workers = WorkerScratches::default();
        for _ in 0..3 {
            let repaired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                repair(&mut store, &g, &hier, &[leaf], &opts, &mut workers)
            }));
            assert!(repaired.is_err(), "the parent read the corrupt sibling");
            assert_eq!(bytes(&store), corrupt, "a panicking repair committed");
        }
        store.replace_rnet(sibling, built.rnet(sibling).clone());
        let outcome = repair(&mut store, &g, &hier, &[leaf], &opts, &mut workers);
        assert!(outcome.rnets_changed > 0);
        store.verify_against_rebuild(&g, &hier, kind, &opts).unwrap();
    }

    /// A border that leaves an Rnet moves every border behind it up one
    /// slot. Its run was empty and nothing led to it, so the Rnet's
    /// shortcuts are what they were — which the repair sees only by
    /// reading the old arena under the old border list, matched by node.
    /// Read under the new list the runs would be off by one slot.
    #[test]
    fn a_border_leaving_an_rnet_is_compared_under_the_old_slots() {
        // Leaf 1: a - c - m, and a dead-end spur n - y; leaf 0: a - p - n
        // and p - q - m. So a, n and m border both leaves, and n reaches
        // no other border inside leaf 1.
        let (a, n, m, c, y, p, q) = (0, 1, 2, 3, 4, 5, 6);
        let mut b = RoadNetwork::builder();
        for i in 0..7 {
            b.add_node(road_network::Point::new(f64::from(i), 0.0));
        }
        let leaf1 = [(a, c), (c, m), (n, y)];
        for (u, v) in leaf1.into_iter().chain([(a, p), (n, p), (m, q), (p, q)]) {
            b.add_edge(NodeId(u), NodeId(v), 1.0).unwrap();
        }
        let mut g = b.build();
        let mut hier = RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(e.0 < 3))
            .expect("two leaves");
        let (r, spur) = (RnetId(1), road_network::EdgeId(2));
        assert_eq!(hier.borders(r), [NodeId(a), NodeId(n), NodeId(m)]);
        let kind = WeightKind::Distance;
        let (opts, mut workers) = (ShortcutOptions::default(), WorkerScratches::default());
        let store = ShortcutStore::build(&g, &hier, kind, &opts);
        assert!(store.heads_at(r, 1).is_empty(), "the spur's border has no run");
        g.remove_edge(spur).unwrap();
        hier.unassign_edge(spur);
        let mut before = BordersBefore::default();
        for end in [n, y] {
            hier.refresh_node_borders(&g, NodeId(end), &mut before).unwrap();
        }
        assert_eq!(hier.borders(r), [NodeId(a), NodeId(m)]);
        let (g, hier) = (Arc::new(g), Arc::new(hier));
        let refresh = |before: &BordersBefore, workers: &mut WorkerScratches| {
            let outcome = store.clone().repair(&g, &hier, kind, &[r], before, &opts, workers);
            (outcome.rnets_refreshed, outcome.rnets_changed)
        };
        assert_eq!(refresh(&before, &mut workers), (1, 0));
        // The same old arena read under the new border list: wrong.
        assert_eq!(refresh(&BordersBefore::default(), &mut workers), (1, 1));
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
        let (g, shared) = (Arc::new(g), Arc::new(hier.clone()));
        let changed = refresh_one(&mut fork, &g, &shared, leaf, &Default::default(), &mut workers);
        assert!(!changed);
        assert_eq!(fork.shared_rnet_count(&store), hier.num_rnets() - 1);
        let tables = |s: &ShortcutStore| s.per_rnet.get(leaf.0 as usize).unwrap().clone();
        let (ours, theirs) = (tables(&fork), tables(&store));
        assert!(!Arc::ptr_eq(&ours.hot, &theirs.hot) && !Arc::ptr_eq(&ours.cold, &theirs.cold));
        assert_eq!(fork.num_shortcuts(), store.num_shortcuts());
        assert_eq!(fork.size_bytes(), store.size_bytes());
    }

    /// `maps_equivalent`'s reference: flatten each arena to `(from, to,
    /// dist)` slot by slot under its own border list, sort, compare
    /// pairwise.
    fn flatten_sort_equivalent(
        a: &RnetShortcuts,
        a_borders: &[NodeId],
        b: &RnetShortcuts,
        b_borders: &[NodeId],
    ) -> bool {
        let flatten = |m: &RnetShortcuts, borders: &[NodeId]| {
            let mut v: Vec<(u32, u32, Weight)> = (0..borders.len())
                .flat_map(|slot| {
                    let from = borders[slot].0;
                    m.heads_at(slot).iter().map(move |sc| (from, sc.to.0, sc.dist))
                })
                .collect();
            v.sort_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.cmp(&y.2)));
            v
        };
        let (fa, fb) = (flatten(a, a_borders), flatten(b, b_borders));
        fa.len() == fb.len()
            && fa.iter().zip(&fb).all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.approx_eq(y.2))
    }

    /// An arena indexed by `borders` holding `lists` of `(source node,
    /// shortcuts)`; every source must be among `borders`.
    fn arena(borders: &[NodeId], lists: &[(u32, Vec<(u32, f64)>)]) -> RnetShortcuts {
        let mut out = RnetBuilder::default();
        for &b in borders {
            for (_, list) in lists.iter().filter(|(from, _)| *from == b.0) {
                for &(to, dist) in list {
                    out.vias.push(NodeId(to)); // a waypoint, so heads and vias differ in length
                    out.push_head(NodeId(to), Weight::new(dist));
                }
            }
            out.end_run();
        }
        out.finish(borders.len())
    }

    /// The verdict matches runs by source node, so it holds across two
    /// border lists in different orders — what a topology edit leaves
    /// between an Rnet's old arena and its repaired one.
    #[test]
    fn maps_equivalent_keeps_the_flatten_and_sort_verdicts() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let base = vec![(2, vec![(5, 1.0), (7, 2.5), (9, 4.0)]), (5, vec![(2, 1.0)]), (9, vec![])];
        let nodes = |ids: &[u32]| -> Vec<NodeId> { ids.iter().map(|&n| NodeId(n)).collect() };
        let (borders_a, borders_b) = (nodes(&[9, 2, 5, 3]), nodes(&[3, 5, 9, 2]));
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
            let (a, b) = (arena(&borders_a, &base), arena(&borders_b, &other));
            let verdict = ShortcutStore::maps_equivalent(&a, &borders_a, &b, &borders_b);
            let reference = flatten_sort_equivalent(&a, &borders_a, &b, &borders_b);
            assert_eq!(verdict, reference, "{base:?} vs {other:?}");
            let swapped = ShortcutStore::maps_equivalent(&b, &borders_b, &a, &borders_a);
            assert_eq!(verdict, swapped, "not symmetric");
            if verdict {
                same += 1;
            } else {
                different += 1;
            }
        }
        assert!(same > 50 && different > 50, "{same} equivalent, {different} not");
        let four = nodes(&[4]);
        let empty = arena(&four, &[(4, vec![])]);
        assert!(ShortcutStore::maps_equivalent(&arena(&[], &[]), &[], &empty, &four));
    }

    /// Path 0-1-2-3 over two leaves, the middle edge alone in leaf 1:
    /// nodes 1 and 2 border both leaves, node 0 borders none.
    fn two_border_leaf() -> (RnetHierarchy, RnetId) {
        let g = simple::chain(4, 1.0);
        let edges: Vec<_> = g.edge_ids().collect();
        let hier =
            RnetHierarchy::from_leaf_assignment(&g, 2, 1, |e| u32::from(e == edges[1])).unwrap();
        let middle = hier.leaf_of_edge(edges[1]);
        assert_eq!(hier.borders(middle), [NodeId(1), NodeId(2)]);
        (hier, middle)
    }

    /// A section of `(source, targets)` runs, each shortcut at distance
    /// 1.0 with no waypoints.
    fn section(runs: &[(u32, &[u32])]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for &(from, targets) in runs {
            buf.extend_from_slice(&from.to_le_bytes());
            buf.extend_from_slice(&(targets.len() as u32).to_le_bytes());
            for &to in targets {
                buf.extend_from_slice(&to.to_le_bytes());
                buf.extend_from_slice(&1.0f64.to_le_bytes());
                buf.extend_from_slice(&0u32.to_le_bytes()); // via_len
            }
        }
        buf
    }

    /// The three sinks of the walk on one section: the decode's arena, or
    /// its error — which the walk into nothing and the walk into a paged
    /// engine's shortcut records must return too. Where it passes, the
    /// records are what the eager layout encodes the arena's heads to.
    fn walk_all(hier: &RnetHierarchy, r: RnetId, buf: &[u8]) -> Result<RnetShortcuts, String> {
        let mut decoded = Cursor::new(buf);
        let (mut skipped, mut copied) = (decoded.clone(), decoded.clone());
        let mut builder = RnetBuilder::default();
        let decode = ShortcutStore::decode_rnet_section(&mut decoded, 4, hier, r, &mut builder);
        let skip = ShortcutStore::walk_rnet_section(&mut skipped, 4, hier, r, &mut ());
        let mut records = crate::paged::ShortcutRecords::default();
        let copy = ShortcutStore::walk_rnet_section(&mut copied, 4, hier, r, &mut records);
        let verdict = decode.as_ref().map(|_| ()).map_err(String::clone);
        assert_eq!(verdict, skip, "the walk into nothing must reject exactly what decode does");
        assert_eq!(verdict, copy, "the walk into records must reject exactly what decode does");
        if let Ok(arena) = &decode {
            assert_eq!((skipped.pos(), copied.pos()), (decoded.pos(), decoded.pos()));
            let want: Vec<(usize, Vec<u8>)> = arena
                .runs_by_source(hier.borders(r))
                .map(|(slot, _, heads)| {
                    let mut rec = Vec::new();
                    crate::paged::encode_shortcut_record(heads, &mut rec);
                    (slot, rec)
                })
                .collect();
            let got: Vec<(usize, Vec<u8>)> =
                records.records().map(|(slot, rec)| (slot, rec.to_vec())).collect();
            assert_eq!(got, want, "records differ from the encoded heads");
        }
        decode
    }

    /// The walk without an arena must reject everything the decode
    /// rejects — a section it passes can never fail to decode later (the
    /// lazy image relies on this to keep per-Rnet decodes infallible).
    /// Duplicate source nodes are the one structural error a byte-walk
    /// could otherwise miss.
    #[test]
    fn skip_scan_rejects_duplicate_sources_like_decode() {
        let (hier, middle) = two_border_leaf();
        let err = walk_all(&hier, middle, &section(&[(1, &[2]), (1, &[2])])).unwrap_err();
        assert!(err.contains("duplicate or unsorted"), "{err}");
        let err = walk_all(&hier, middle, &section(&[(2, &[1]), (1, &[2])])).unwrap_err();
        assert!(err.contains("duplicate or unsorted"), "{err}");
    }

    /// A shortcut whose source or target is not a border of its Rnet is
    /// corrupt: the source has no slot, and the target would be a jump to
    /// an arbitrary node. Both are in the network, so only the border
    /// check can catch them.
    #[test]
    fn a_shortcut_end_off_the_rnets_borders_is_rejected() {
        let (hier, middle) = two_border_leaf();
        let err = walk_all(&hier, middle, &section(&[(0, &[2])])).unwrap_err();
        assert!(err.contains("source n0 is not a border"), "{err}");
        let err = walk_all(&hier, middle, &section(&[(1, &[3])])).unwrap_err();
        assert!(err.contains("target n3 is not a border"), "{err}");
        let err = walk_all(&hier, middle, &section(&[(1, &[7])])).unwrap_err();
        assert!(err.contains("outside 0..4"), "{err}");
    }

    /// A stored source lands in its slot, the runs before it empty: the
    /// hot table starts both runs right after its three starts, and a slot
    /// past the last reads an empty run, not the heads as starts.
    #[test]
    fn a_decoded_source_lands_in_its_slot() {
        let (hier, middle) = two_border_leaf();
        let arena = walk_all(&hier, middle, &section(&[(2, &[1])])).unwrap();
        assert!(arena.heads_at(0).is_empty());
        let heads: Vec<NodeId> = arena.heads_at(1).iter().map(|sc| sc.to).collect();
        assert_eq!(heads, [NodeId(1)]);
        assert_eq!(arena.hot[..3], [3, 3, 6]);
        assert_eq!((arena.hot.len(), arena.num_shortcuts()), (6, 1));
        assert!((2..7).chain([usize::MAX]).all(|slot| arena.heads_at(slot).is_empty()));
        let empty = walk_all(&hier, middle, &section(&[])).unwrap();
        assert_eq!((empty.hot.len(), empty.num_shortcuts()), (0, 0));
        assert!(empty.heads_at(0).is_empty());
    }

    /// The words of an Rnet's two tables: the hot table, then the
    /// waypoint ends and the waypoints.
    fn table_words(rnet: &RnetShortcuts) -> (Vec<u32>, Vec<u32>) {
        let cold = rnet.cold.ends.iter().copied().chain(rnet.cold.vias.iter().map(|v| v.0));
        (rnet.hot.to_vec(), cold.collect())
    }

    /// On a built store every sink of the walk reads the same bytes,
    /// section by section; the decoded tables equal the built ones word
    /// for word and serialize back to the same bytes, and the copied
    /// records are what the eager layout encodes the built heads to.
    #[test]
    fn the_walk_reads_a_built_store_the_same_in_both_modes() {
        let g = simple::grid(6, 6, 1.0);
        let (hier, store) = build(&g, 2, 2);
        let mut buf = Vec::new();
        store.serialize_into(&hier, &mut buf);
        let num_nodes = g.num_nodes() as u32;
        let mut skipped = Cursor::new(&buf);
        ShortcutStore::read_store_header(&mut skipped, hier.num_rnets()).unwrap();
        let (mut decoded, mut copied) = (skipped.clone(), skipped.clone());
        let (mut maps, mut builder) = (Vec::new(), RnetBuilder::default());
        let (mut records, mut rec) = (crate::paged::ShortcutRecords::default(), Vec::new());
        for r in (0..hier.num_rnets() as u32).map(RnetId) {
            ShortcutStore::walk_rnet_section(&mut skipped, num_nodes, &hier, r, &mut ()).unwrap();
            records.clear();
            ShortcutStore::walk_rnet_section(&mut copied, num_nodes, &hier, r, &mut records)
                .unwrap();
            let runs = store.rnet(r).runs_by_source(hier.borders(r));
            let want: Vec<(usize, Vec<u8>)> = runs
                .map(|(slot, _, heads)| {
                    crate::paged::encode_shortcut_record(heads, &mut rec);
                    (slot, rec.clone())
                })
                .collect();
            let got: Vec<(usize, Vec<u8>)> =
                records.records().map(|(slot, bytes)| (slot, bytes.to_vec())).collect();
            assert_eq!(got, want, "{r:?}: records differ from the encoded heads");
            let rnet =
                ShortcutStore::decode_rnet_section(&mut decoded, num_nodes, &hier, r, &mut builder)
                    .unwrap();
            assert_eq!((skipped.pos(), copied.pos()), (decoded.pos(), decoded.pos()));
            let built = store.rnet(r);
            assert_eq!(table_words(&rnet), table_words(built), "{r:?}: tables differ");
            maps.push(rnet);
        }
        assert_eq!(skipped.pos(), buf.len());
        assert!(store.num_shortcuts() > 0);
        // Waypoints on board, so the via loop of the walk runs too: a list
        // entry without any is 16 bytes.
        assert!(store.size_bytes() > 16 * store.num_shortcuts(), "no shortcut carries waypoints");
        let mut again = Vec::new();
        ShortcutStore::from_rnet_maps(maps).serialize_into(&hier, &mut again);
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
                for sc in dist_store.from(&hier, r, b) {
                    if let Some(t) = time_store.between(&hier, r, b, sc.to) {
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
                        let present = store.between(&hier, r, borders[bi], borders[ti]).is_some();
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
        let sc =
            store.between(&hier, middle, b, c).expect("zero-interior leaf keeps the direct arc");
        assert_eq!(sc.dist, Weight::new(1.0));
        assert!(sc.via.is_empty(), "direct border-to-border arc must have no waypoints");
        assert!(store.between(&hier, middle, c, b).is_some(), "shortcuts are stored per direction");
        // b and c are disconnected inside leaf 0: absent, not infinite.
        assert!(store.between(&hier, outer, b, c).is_none());
        assert!(store.between(&hier, outer, c, b).is_none());

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
            store.serialize_into(&hier, &mut out);
            out
        };
        let kind = WeightKind::Distance;
        let switched = bytes(&ShortcutStore::build(&g, &hier, kind, &opts));
        let sizes = std::sync::Mutex::new(Vec::new());
        let dense = ShortcutStore::build_with(&g, &hier, kind, 1, |scratch, nb| {
            sizes.lock().unwrap().push(scratch.csr.num_nodes());
            scratch.eliminate_into_dmat(nb)
        });
        let sizes = sizes.into_inner().unwrap();
        assert!(sizes.iter().any(|&n| n > DENSE_MAX_NODES), "nothing above the switch: {sizes:?}");
        assert!(sizes.iter().any(|&n| n <= DENSE_MAX_NODES), "nothing below it: {sizes:?}");
        let contracted = ShortcutStore::build_with(&g, &hier, kind, 1, |scratch, nb| {
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
        let (g, hier) = (Arc::new(g), Arc::new(hier));
        for level in (1..=hier.levels()).rev() {
            for r in hier.rnets_at_level(level) {
                changed += usize::from(refresh_one(&mut store, &g, &hier, r, &opts, &mut workers));
                let nodes = workers.own.csr.num_nodes();
                assert!(nodes <= DENSE_MAX_NODES, "{r:?} is above the switch");
            }
        }
        assert!(changed > 0 && store.num_shortcuts() > 0);
        assert_eq!(workers.own.sealed_runs, 0);
        store.verify_against_rebuild(&g, &hier, kind, &opts).unwrap();

        // 1,200 nodes in two leaves: the contractor's, and its finalisation.
        let g = simple::grid(40, 30, 1.0);
        let cfg = HierarchyConfig { fanout: 2, levels: 1, ..Default::default() };
        let hier = RnetHierarchy::build(&g, &cfg).unwrap();
        let mut store = ShortcutStore::build(&g, &hier, kind, &opts);
        let leaf = hier.rnets_at_level(1).next().unwrap();
        let (g, hier) = (Arc::new(g), Arc::new(hier));
        refresh_one(&mut store, &g, &hier, leaf, &opts, &mut workers);
        assert!(workers.own.csr.num_nodes() > DENSE_MAX_NODES);
        assert!(workers.own.sealed_runs > 0);
    }
}
