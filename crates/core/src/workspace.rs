//! Reusable, allocation-free per-query search state.
//!
//! Every LDSQ evaluation needs the same scratch containers: tentative
//! distance labels, predecessor links, a settled marker, a priority queue
//! and a seen-object set. Allocating them per query (as hash maps, the
//! original design) makes a heavy-traffic deployment pay allocator and
//! hashing costs proportional to the query rate. [`SearchWorkspace`]
//! replaces them with dense arrays indexed by node id and *invalidated by
//! a bumped generation counter* instead of being cleared: starting a query
//! is `O(1)`, and a label is valid only when its stamp equals the current
//! round. The same reuse discipline already drives
//! [`road_network::dijkstra::Dijkstra`]; this module applies it to the
//! Route Overlay expansion, which additionally tracks objects and shortcut
//! hops.
//!
//! Distance, label stamp and settle stamp of a node share one 16-byte
//! record: a relaxation reads all three, and from one cache line instead
//! of three. Predecessor links stay in their own array, and only a round
//! that records paths touches it: `SearchWorkspace::begin` says whether
//! this one does. Only path reconstruction reads a link, and only the
//! pooled doors, whose [`SearchResult`](crate::search::SearchResult) serves
//! `path_to_node`, record them. A `_with` query or a batch worker writes
//! none — an improving relaxation then writes one random line, not two —
//! and a workspace that only ever serves those never allocates the array.
//!
//! The priority queue is two 4-ary min-heaps of packed `u128` keys, one
//! for nodes (`distance bits << 64 | node`) and one for objects
//! (`distance bits << 64 | object id`). A [`Weight`] is never NaN or
//! `-0.0`, so its bits order like the weight itself, and one integer
//! compare orders `(distance, id)`. `SearchWorkspace::pop` takes the
//! node whenever its distance is at most the top object's — the tie rule
//! documented on `QueueKey`. The heaps are exact, not radix or monotone
//! buckets: zero-weight edges, objects at offset 0 and `d + w` rounding
//! back to `d` all push keys equal to the last one popped.
//!
//! A second stamped table, indexed by Rnet id, memoises the query's
//! enter-or-bypass **verdict** on each Rnet. `ChoosePath` needs that
//! verdict at every border node whose shortcut tree lists the Rnet, and it
//! is a function of the query (filter, routing target) and the Rnet alone
//! — not of the node — so the first border node that reaches an Rnet asks
//! the source (an abstract lookup; on the paged engine a B+-tree descent
//! and a record read) and every later one reads the table. The memo is
//! exact, not a cache with a policy: within a round the source would
//! return the same value, the round bump drops every entry at once, and a
//! query that fails midway leaves nothing a later round can see.
//!
//! Node ids reaching this module can come straight off a page (the paged
//! engine's records), so every accessor is total: an id past the arrays is
//! unlabelled, unsettled and never relaxed.
//!
//! Workspaces reach queries two ways:
//!
//! * **explicitly** — callers that own their serving loop create one
//!   `SearchWorkspace` per thread and pass it to
//!   [`RoadFramework::knn_with`](crate::framework::RoadFramework::knn_with)
//!   / [`range_with`](crate::framework::RoadFramework::range_with) together
//!   with a reusable hit buffer: zero per-query container allocations;
//! * **implicitly** — the convenience APIs (`knn`, `range`, …) borrow a
//!   workspace from a small per-thread pool and hand it to the returned
//!   [`SearchResult`](crate::search::SearchResult), which keeps the dense
//!   distance labels and predecessor links alive for `distance_to_node` /
//!   `path_to_node` and recycles the workspace back into the pool when the
//!   result is dropped.
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

use crate::hierarchy::RnetId;
use road_network::hash::FastSet;
use road_network::{EdgeId, Weight};
use std::cell::RefCell;

/// How a hop in the predecessor chain was made.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Hop {
    Edge(EdgeId),
    Shortcut(RnetId),
}

/// What a queue entry stands for. The tie rule lives in
/// [`SearchWorkspace::pop`]: at equal distance a **node** pops before an
/// **object**, so that every node able to host an equal-distance object is
/// expanded (and its objects enqueued) before any object at that distance
/// is reported. Equal-distance nodes pop in ascending node id, and
/// equal-distance objects in ascending object id — exactly the
/// `(distance, object id)` tie-break the brute-force oracles use. The
/// derived order (`Node < Object`, then id) is that same rule, which the
/// queue's test checks against a `BinaryHeap`.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
pub(crate) enum QueueKey {
    Node(u32),
    Object(u64),
}

/// A 4-ary min-heap of packed `(distance bits << 64 | id)` keys.
///
/// Four children per slot make it half as deep as a binary heap, and a
/// slot's children are 64 contiguous bytes, compared as two pairs. Keys
/// are plain integers: no `Ord` impl runs per compare.
#[derive(Default)]
struct QuadHeap(Vec<u128>);

impl QuadHeap {
    #[inline]
    fn clear(&mut self) {
        self.0.clear();
    }

    #[inline]
    fn peek(&self) -> Option<u128> {
        self.0.first().copied()
    }

    #[inline]
    fn push(&mut self, key: u128) {
        // Sift a hole up from the new last slot, then drop `key` into it.
        let mut at = self.0.len();
        self.0.push(key);
        while at > 0 {
            let up = (at - 1) / 4;
            let Some(&parent) = self.0.get(up) else { break };
            if parent <= key {
                break;
            }
            if let Some(slot) = self.0.get_mut(at) {
                *slot = parent;
            }
            at = up;
        }
        if let Some(slot) = self.0.get_mut(at) {
            *slot = key;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u128> {
        let last = self.0.pop()?;
        let Some(&top) = self.0.first() else { return Some(last) };
        // Sift a hole down from the root, then drop `last` into it.
        let mut at = 0;
        loop {
            let first = 4 * at + 1;
            // The least child: of a full group of four, else of the
            // heap's last, partial group; a leaf has none and stops here.
            let least = match self.0.get(first..first + 4) {
                Some(&[a, b, c, d]) => {
                    let ab = if b < a { (b, first + 1) } else { (a, first) };
                    let cd = if d < c { (d, first + 3) } else { (c, first + 2) };
                    if cd.0 < ab.0 {
                        cd
                    } else {
                        ab
                    }
                }
                _ => {
                    let mut least = (u128::MAX, at);
                    for (i, &kid) in self.0.get(first..).unwrap_or_default().iter().enumerate() {
                        if kid < least.0 {
                            least = (kid, first + i);
                        }
                    }
                    least
                }
            };
            if least.0 >= last {
                break;
            }
            if let Some(slot) = self.0.get_mut(at) {
                *slot = least.0;
            }
            at = least.1;
        }
        if let Some(slot) = self.0.get_mut(at) {
            *slot = last;
        }
        Some(top)
    }
}

#[inline]
fn pack(d: Weight, id: u64) -> u128 {
    u128::from(d.get().to_bits()) << 64 | u128::from(id)
}

#[inline]
fn unpack(key: u128) -> (Weight, u64) {
    (Weight::new(f64::from_bits((key >> 64) as u64)), key as u64)
}

const NO_PRED: u32 = u32::MAX;
const NO_LINK: (u32, Hop) = (NO_PRED, Hop::Edge(EdgeId(u32::MAX)));

/// Per-node search state; `dist` means something only while `stamp` equals
/// the workspace's round, and the node is settled while `settled` does.
#[derive(Clone, Copy)]
struct Label {
    dist: Weight,
    stamp: u32,
    settled: u32,
}

const UNSEEN: Label = Label { dist: Weight::INFINITY, stamp: 0, settled: 0 };

/// Per-Rnet search state: the query's enter-or-bypass verdict on the Rnet,
/// meaningful only while `stamp` equals the workspace's round.
#[derive(Clone, Copy)]
struct Verdict {
    stamp: u32,
    enter: bool,
}

const UNASKED: Verdict = Verdict { stamp: 0, enter: false };

/// Reusable scratch state for one in-flight overlay search.
///
/// All per-node arrays are generation-stamped: an entry is meaningful only
/// when its stamp equals the workspace's current round, so starting a new
/// query never touches the arrays. Create one per serving thread and reuse
/// it across queries; results are identical to a fresh workspace (a
/// property the crate's proptests pin down).
pub struct SearchWorkspace {
    /// Tentative distance, label generation and settle generation per node.
    labels: Vec<Label>,
    /// Predecessor link per node; valid iff the node's label is and the
    /// round records paths. Grown only by a round that does.
    pred: Vec<(u32, Hop)>,
    /// Whether this round writes `pred` (see [`Self::begin`]).
    paths: bool,
    /// Enter-or-bypass verdict per Rnet, stamped like the labels.
    verdicts: Vec<Verdict>,
    /// Current round; bumped per query.
    round: u32,
    /// Pending nodes, least `(distance, node)` on top.
    nodes: QuadHeap,
    /// Pending objects, least `(distance, object id)` on top.
    objects: QuadHeap,
    /// Objects already reported this round (object ids are sparse `u64`s,
    /// so this one stays a hash set; `clear()` keeps its capacity).
    seen_objects: FastSet<u64>,
    /// Queries served so far (drives `SearchStats::workspace_reused`).
    runs: u64,
}

impl Default for SearchWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchWorkspace {
    /// An empty workspace; arrays grow to the network size on first use.
    pub fn new() -> Self {
        Self::with_node_capacity(0)
    }

    /// A workspace pre-sized for `num_nodes` nodes. The predecessor links
    /// are left to the first query that records paths: the doors that take
    /// a caller's workspace never do.
    pub fn with_node_capacity(num_nodes: usize) -> Self {
        SearchWorkspace {
            labels: vec![UNSEEN; num_nodes],
            pred: Vec::new(),
            paths: false,
            verdicts: Vec::new(),
            round: 0,
            nodes: QuadHeap::default(),
            objects: QuadHeap::default(),
            seen_objects: FastSet::default(),
            runs: 0,
        }
    }

    /// Number of queries this workspace has served.
    pub fn reuse_count(&self) -> u64 {
        self.runs
    }

    /// Nodes the dense arrays are currently sized for.
    pub fn node_capacity(&self) -> usize {
        self.labels.len()
    }

    /// Starts a new round: grows the arrays if the network or its
    /// hierarchy did, bumps the generation, and clears the
    /// (capacity-retaining) containers. With `paths`, the round records a
    /// predecessor link per labelled node; without, it writes none and
    /// [`Self::pred_of`] answers `None` all round. Whether a round records
    /// is a property of the door that runs it: only a result that can
    /// reconstruct a path asks for it.
    pub(crate) fn begin(&mut self, num_nodes: usize, num_rnets: usize, paths: bool) {
        if num_nodes > self.labels.len() {
            self.labels.resize(num_nodes, UNSEEN);
        }
        if paths && num_nodes > self.pred.len() {
            self.pred.resize(num_nodes, NO_LINK);
        }
        self.paths = paths;
        if num_rnets > self.verdicts.len() {
            self.verdicts.resize(num_rnets, UNASKED);
        }
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // Stamp wrap-around: invalidate everything explicitly once
            // every 2^32 queries.
            self.labels.fill(UNSEEN);
            self.verdicts.fill(UNASKED);
            self.round = 1;
        }
        self.nodes.clear();
        self.objects.clear();
        self.seen_objects.clear();
        self.runs += 1;
    }

    /// Distance label of `n` this round (`None` = unlabelled).
    #[inline]
    pub(crate) fn label_of(&self, n: u32) -> Option<Weight> {
        self.labels.get(n as usize).filter(|l| l.stamp == self.round).map(|l| l.dist)
    }

    /// Predecessor link of `n` this round (`None` for sources, unlabelled
    /// nodes, and every node of a round that records no paths).
    #[inline]
    pub(crate) fn pred_of(&self, n: u32) -> Option<(u32, Hop)> {
        if !self.paths {
            return None;
        }
        self.label_of(n)?;
        self.pred.get(n as usize).copied().filter(|link| link.0 != NO_PRED)
    }

    /// Labels the source node at distance zero with no predecessor.
    #[inline]
    pub(crate) fn label_source(&mut self, n: u32) {
        let Some(label) = self.labels.get_mut(n as usize) else { return };
        label.dist = Weight::ZERO;
        label.stamp = self.round;
        self.link(n, NO_LINK);
    }

    /// Records `n`'s predecessor link, if this round records paths.
    #[inline]
    fn link(&mut self, n: u32, link: (u32, Hop)) {
        if self.paths {
            if let Some(slot) = self.pred.get_mut(n as usize) {
                *slot = link;
            }
        }
    }

    /// Settles `n`, popped off the queue at distance `d`. `false` for a
    /// stale queue entry: `n` was settled before, or (never, with keys
    /// pushed by [`Self::relax`]) `d` is behind its label.
    #[inline]
    pub(crate) fn settle(&mut self, n: u32, d: Weight) -> bool {
        let Some(label) = self.labels.get_mut(n as usize) else { return false };
        if label.settled == self.round {
            return false;
        }
        label.settled = self.round;
        label.stamp != self.round || d <= label.dist
    }

    /// Relaxes a hop `from -> to` at new distance `nd`; returns `true` if
    /// the label improved and a heap entry was pushed.
    #[inline]
    pub(crate) fn relax(&mut self, from: u32, to: u32, nd: Weight, hop: Hop) -> bool {
        let Some(label) = self.labels.get_mut(to as usize) else { return false };
        let cur = if label.stamp == self.round { label.dist } else { Weight::INFINITY };
        if nd < cur && label.settled != self.round {
            label.dist = nd;
            label.stamp = self.round;
            self.link(to, (from, hop));
            self.nodes.push(pack(nd, u64::from(to)));
            true
        } else {
            false
        }
    }

    /// This round's verdict on Rnet `r` — enter (`true`) or bypass — if
    /// [`Self::set_verdict`] recorded one.
    #[inline]
    pub(crate) fn verdict(&self, r: RnetId) -> Option<bool> {
        self.verdicts.get(r.0 as usize).filter(|v| v.stamp == self.round).map(|v| v.enter)
    }

    /// Records this round's verdict on Rnet `r`.
    #[inline]
    pub(crate) fn set_verdict(&mut self, r: RnetId, enter: bool) {
        if let Some(v) = self.verdicts.get_mut(r.0 as usize) {
            *v = Verdict { stamp: self.round, enter };
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, d: Weight, key: QueueKey) {
        match key {
            QueueKey::Node(n) => self.nodes.push(pack(d, u64::from(n))),
            QueueKey::Object(oid) => self.objects.push(pack(d, oid)),
        }
    }

    /// The least pending entry in `(distance, Node < Object, id)` order:
    /// the top node unless the top object is strictly nearer.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Weight, QueueKey)> {
        let node_first = match (self.nodes.peek(), self.objects.peek()) {
            (Some(node), Some(object)) => node >> 64 <= object >> 64,
            (node, _) => node.is_some(),
        };
        if node_first {
            let (d, n) = unpack(self.nodes.pop()?);
            Some((d, QueueKey::Node(n as u32)))
        } else {
            let (d, oid) = unpack(self.objects.pop()?);
            Some((d, QueueKey::Object(oid)))
        }
    }

    /// First sighting of object `oid` this round?
    #[inline]
    pub(crate) fn first_object_sighting(&mut self, oid: u64) -> bool {
        self.seen_objects.insert(oid)
    }

    #[inline]
    pub(crate) fn object_seen(&self, oid: u64) -> bool {
        self.seen_objects.contains(&oid)
    }
}

// ---------------------------------------------------------------------------
// Per-thread workspace pool
// ---------------------------------------------------------------------------

/// Upper bound on pooled workspaces per thread. More than one is only
/// needed while several `SearchResult`s are alive at once (each keeps its
/// workspace until dropped); the cap bounds memory if a caller hoards
/// results.
const POOL_CAP: usize = 8;

thread_local! {
    // Boxed on purpose (not `clippy::vec_box` noise): acquire/release
    // shuttle the same allocation between the pool and `PooledWorkspace`
    // guards without ever moving the workspace struct itself.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<SearchWorkspace>>> = const { RefCell::new(Vec::new()) };
}

/// Borrows a workspace from this thread's pool (or creates one).
pub(crate) fn acquire() -> Box<SearchWorkspace> {
    POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a workspace to this thread's pool.
pub(crate) fn release(ws: Box<SearchWorkspace>) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(ws);
        }
    });
}

/// Owning guard inside a [`SearchResult`](crate::search::SearchResult):
/// keeps the labels of the producing query readable and recycles the
/// workspace into the thread-local pool when dropped. Deliberately a
/// separate type so `SearchResult` itself has no `Drop` impl and its
/// public `hits` field can still be moved out.
pub(crate) struct PooledWorkspace(Option<Box<SearchWorkspace>>);

impl PooledWorkspace {
    pub(crate) fn new(ws: Box<SearchWorkspace>) -> Self {
        PooledWorkspace(Some(ws))
    }

    #[inline]
    pub(crate) fn get(&self) -> Option<&SearchWorkspace> {
        self.0.as_deref()
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(ws) = self.0.take() {
            release(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_invalidate_without_clearing() {
        let mut ws = SearchWorkspace::with_node_capacity(4);
        ws.begin(4, 0, true);
        ws.label_source(2);
        assert_eq!(ws.label_of(2), Some(Weight::ZERO));
        assert!(ws.relax(2, 3, Weight::new(1.5), Hop::Edge(EdgeId(0))));
        assert_eq!(ws.label_of(3), Some(Weight::new(1.5)));
        // New round: every label is stale, nothing was cleared.
        ws.begin(4, 0, true);
        assert_eq!(ws.label_of(2), None);
        assert_eq!(ws.label_of(3), None);
        assert_eq!(ws.reuse_count(), 2);
    }

    #[test]
    fn settling_is_once_per_round_and_ids_past_the_arrays_are_inert() {
        let mut ws = SearchWorkspace::with_node_capacity(4);
        ws.begin(4, 0, true);
        ws.label_source(1);
        assert!(ws.relax(1, 2, Weight::new(2.0), Hop::Edge(EdgeId(7))));
        assert!(!ws.relax(1, 2, Weight::new(2.0), Hop::Edge(EdgeId(8))), "a tie keeps the label");
        assert!(ws.settle(2, Weight::new(2.0)));
        assert!(!ws.settle(2, Weight::new(2.0)), "second pop of a settled node is stale");
        assert!(!ws.relax(1, 2, Weight::new(1.0), Hop::Edge(EdgeId(9))), "settled stays settled");
        assert!(matches!(ws.pred_of(2), Some((1, Hop::Edge(EdgeId(7))))));
        // A node id read off a corrupt page must not index past the arrays.
        assert!(!ws.relax(1, 4, Weight::new(1.0), Hop::Edge(EdgeId(0))));
        assert!(!ws.settle(u32::MAX, Weight::ZERO));
        assert_eq!(ws.label_of(9), None);
        assert!(ws.pred_of(9).is_none());
        ws.begin(4, 0, true);
        assert!(ws.settle(2, Weight::ZERO), "a new round forgets the settle");
    }

    /// A round that records no paths writes no link and reads none back;
    /// a recording round after it, on the same workspace, links every node
    /// it labels anew — the source's empty link included — and shows no
    /// link an earlier round left.
    #[test]
    fn a_round_without_paths_writes_no_link_and_a_recording_one_relinks() {
        let (edge, cut) = (|e| Hop::Edge(EdgeId(e)), Hop::Shortcut(RnetId(3)));
        let mut ws = SearchWorkspace::with_node_capacity(4);
        ws.begin(4, 0, false);
        ws.label_source(0);
        assert!(ws.relax(0, 1, Weight::new(1.0), edge(5)));
        assert!(ws.relax(1, 2, Weight::new(2.0), cut));
        assert_eq!(ws.label_of(2), Some(Weight::new(2.0)));
        assert!(ws.pred.is_empty(), "a round without paths grew the links");
        assert_eq!((ws.pred_of(1), ws.pred_of(2)), (None, None));

        ws.begin(4, 0, true);
        ws.label_source(3);
        assert!(ws.relax(3, 2, Weight::new(1.0), edge(7)));
        assert!(ws.relax(2, 1, Weight::new(2.0), cut));
        assert_eq!(ws.pred_of(2), Some((3, edge(7))));
        assert_eq!(ws.pred_of(1), Some((2, cut)));
        assert_eq!((ws.pred_of(3), ws.pred_of(0)), (None, None), "source and unlabelled");
        let recorded = ws.pred.clone();

        ws.begin(4, 0, false);
        ws.label_source(1);
        assert!(ws.relax(1, 2, Weight::new(1.0), edge(9)));
        assert!(ws.relax(1, 3, Weight::new(1.0), cut));
        assert_eq!(ws.pred, recorded, "a round without paths wrote a link");
        assert_eq!((ws.pred_of(2), ws.pred_of(3)), (None, None));

        ws.begin(4, 0, true);
        ws.label_source(1);
        assert!(ws.relax(1, 0, Weight::new(1.0), edge(10)));
        assert_eq!(ws.pred_of(1), None, "the source kept the link of an earlier round");
        assert_eq!(ws.pred_of(0), Some((1, edge(10))));
        assert_eq!(ws.pred_of(2), None, "a link of an earlier round shows through");
    }

    #[test]
    fn verdicts_last_one_round_and_the_stamp_wrap_clears_them() {
        let mut ws = SearchWorkspace::new();
        ws.begin(4, 3, false);
        assert_eq!(ws.verdict(RnetId(2)), None);
        ws.set_verdict(RnetId(2), true);
        ws.set_verdict(RnetId(0), false);
        assert_eq!(ws.verdict(RnetId(2)), Some(true));
        assert_eq!(ws.verdict(RnetId(0)), Some(false));
        // An id outside the hierarchy the round was sized for is inert.
        ws.set_verdict(RnetId::NONE, true);
        assert_eq!(ws.verdict(RnetId::NONE), None);
        // A new round forgets; a bigger hierarchy grows the table, a
        // smaller one leaves it be.
        ws.begin(4, 6, false);
        assert_eq!(ws.verdict(RnetId(2)), None);
        ws.set_verdict(RnetId(5), true);
        ws.begin(4, 2, false);
        assert_eq!(ws.verdict(RnetId(5)), None);
        // Round 1 again after the wrap: the verdict stamped in the first
        // round 1 must be gone, like the labels.
        ws.round = 0;
        ws.begin(4, 6, false);
        ws.set_verdict(RnetId(1), true);
        ws.label_source(1);
        ws.round = u32::MAX;
        ws.begin(4, 6, false);
        assert_eq!(ws.round, 1);
        assert_eq!(ws.verdict(RnetId(1)), None);
        assert_eq!(ws.label_of(1), None);
    }

    #[test]
    fn pool_recycles_up_to_cap() {
        let before = POOL.with(|p| p.borrow().len());
        let ws = acquire();
        release(ws);
        let after = POOL.with(|p| p.borrow().len());
        assert!(after >= before.min(POOL_CAP));
        for _ in 0..(POOL_CAP * 2) {
            release(Box::default());
        }
        assert!(POOL.with(|p| p.borrow().len()) <= POOL_CAP);
    }

    #[test]
    fn queue_key_orders_nodes_before_objects() {
        // The tie-break contract: at equal distance, nodes expand first and
        // objects report in ascending id order.
        assert!(QueueKey::Node(u32::MAX) < QueueKey::Object(0));
        assert!(QueueKey::Object(3) < QueueKey::Object(5));
        assert!(QueueKey::Node(1) < QueueKey::Node(2));
    }

    /// The two heaps and `pop`'s tie rule pop exactly what one
    /// `BinaryHeap` over `(Weight, QueueKey)` pops, on seeded interleavings
    /// of pushes and pops with tie-heavy distances and extreme ids.
    #[test]
    fn queue_pops_in_the_order_of_a_binary_heap_over_queue_keys() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let dists = [0.0, 1.0, 1.0, 2.0, f64::INFINITY].map(Weight::new);
        let nodes = [0, 1, 2, 3, u32::MAX];
        let objects = [0, 1, 2, u64::from(u32::MAX) + 1, u64::MAX];
        let mut ws = SearchWorkspace::new();
        let (mut deepest, mut ties) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // The last round left entries queued, as a query that returned
            // an error midway does: `begin` must drop every one of them.
            ws.begin(0, 0, false);
            assert_eq!(ws.pop(), None, "seed {seed}: begin left an entry queued");
            let mut reference = BinaryHeap::new();
            let push_share = rng.random_range(0.5..0.95);
            for _ in 0..rng.random_range(1..3000) {
                if rng.random_bool(push_share) {
                    let d = dists[rng.random_range(0..dists.len())];
                    let key = if rng.random_bool(0.5) {
                        QueueKey::Node(nodes[rng.random_range(0..nodes.len())])
                    } else {
                        QueueKey::Object(objects[rng.random_range(0..objects.len())])
                    };
                    ws.push(d, key);
                    reference.push(Reverse((d, key)));
                    deepest = deepest.max(reference.len());
                } else {
                    let want = reference.pop().map(|Reverse(e)| e);
                    if let Some((d, QueueKey::Node(_))) = want {
                        ties += usize::from(ws.objects.peek().is_some_and(|o| unpack(o).0 == d));
                    }
                    assert_eq!(ws.pop(), want, "seed {seed}");
                }
            }
            // Drain every other round; the rest stay queued for `begin`.
            if seed % 2 == 0 {
                while let Some(Reverse(want)) = reference.pop() {
                    assert_eq!(ws.pop(), Some(want), "seed {seed}");
                }
                assert_eq!(ws.pop(), None);
            }
        }
        // 4-ary levels hold 1, 4, 16, 64, 256, 1024 slots: six or more
        // levels were in use, and nodes popped ahead of equal objects.
        assert!(deepest > 341, "deepest heap {deepest}");
        assert!(ties > 0);
    }
}
