//! Edge-disjoint graph partitioning for Rnet formation.
//!
//! Section 3.3 of the paper: an ideal partitioning produces equal-sized
//! Rnets while minimising border nodes, which is NP-complete \[15\]; the
//! authors adopt the *geometric approach* of Huang et al. \[8\] to coarsely
//! split the edge set in two, then the *Kernighan–Lin algorithm* \[12\] to
//! exchange edges between the halves until border nodes stop decreasing.
//! With partition fanout `p = 2^x`, binary partitioning is applied
//! recursively `x` times.
//!
//! Partitions here are over **edges** (Definition 4: the edge sets of
//! sibling Rnets are disjoint; nodes shared between parts become border
//! nodes). The unit moved by KL is therefore an edge, and the cost function
//! is the number of *internal border nodes*: nodes incident to edges of
//! both halves.
//!
//! # Shape of the code
//!
//! The recursion is run breadth-first, as *binary rounds* over one flat
//! list of groups ([`split_rounds`]): one arena of edge positions, group
//! `k` a contiguous range of it, and each round stably partitions every
//! group's range in place into its left and right half. A bisection is a
//! pure function of its group's edges in their order, so the groups of a
//! round are fanned out over scoped workers; a worker owns a run of
//! adjacent groups (one contiguous arena slice), one `Bisector` of
//! scratch, and one slot per group to deposit the split point in. The
//! partition is the same for every worker count. What a bisection reads of
//! an edge (endpoints, midpoint) is copied out of the network once, into a
//! flat table by position, and streamed from there every round.
//!
//! A bisection works on *dense local node ids*, handed out in order of
//! first appearance: endpoints are a `[u32; 2]` per edge, the node → edges
//! index a counting-sorted CSR, the per-side incidence counts a
//! `Vec<[u32; 2]>`, and a move's gain two array reads. All of it lives in
//! the worker's `Bisector` and is reused from one bisection to the next.
//!
//! # The two hash containers, and why they are still here
//!
//! KL takes the *first* candidate of maximal gain, and "first" has always
//! meant: border nodes in the iteration order of a `FastSet` of node ids,
//! each node's edges in group order. Equal gains are the common case, so
//! that order decides the partition — and with it every stored image and
//! every exact count pinned downstream. It is a written-down deviation
//! (ARCHITECTURE.md, "Hierarchy construction"): the partition depends on
//! `HashMap` iteration order. Until a change that is allowed to re-record
//! those pins replaces it with a lowest-edge-position tie-break, two hash
//! containers are kept **as order authorities and nothing else**:
//!
//! * one fresh `FastMap` per bisection, global node id → local id, filled
//!   by `entry()` in edge order (`a` then `b`). It hands out the local
//!   ids; its `hash_order()`, read once, seeds every pass's border set;
//! * one fresh `FastSet` per pass holding the current border nodes, keyed
//!   by *global* id (`BorderNode` carries the local id along without
//!   hashing it), receiving exactly the inserts and removes — redundant
//!   ones included, since a redundant insert may still grow the table —
//!   that flipping an edge has always issued, and walked by `hash_order()`.
//!
//! Those two walks are the `#[expect(clippy::disallowed_methods)]` on
//! `kl_refine`.
//!
//! Nothing else in a bisection hashes. `tests/partition_golden.rs` holds
//! the result to the bytes recorded from the hash-map implementation this
//! replaced.

use crate::fanout::fan_out;
use crate::geometry::Point;
use crate::graph::RoadNetwork;
use crate::hash::{FastMap, FastSet};
use crate::ids::EdgeId;
use std::hash::{Hash, Hasher};

/// Kernighan–Lin improvement passes over a cut.
const KL_PASSES: usize = 3;

/// Each side of a bisection keeps at least this fraction of the edges.
const MIN_BALANCE: f64 = 0.40;

/// The partitioner's settings, which are constants (three KL passes, at
/// least 40% of the edges on each side, `4 * sqrt(m) + 64` tentative moves
/// per pass over `m` edges): nothing chose other values but tests. The
/// type stays, empty, because the benchmark harness names it, in
/// [`partition_edges`]' argument and in the hierarchy's configuration.
#[derive(Clone, Debug, Default)]
pub struct PartitionOptions {}

/// Splits `edges` into `parts` (a power of two) groups by recursive
/// geometric bisection + KL refinement, on all available hardware threads.
/// Returns one part index per input edge, in input order.
///
/// # Panics
/// Panics if `parts` is zero, not a power of two, or above 65,536.
pub fn partition_edges(
    g: &RoadNetwork,
    edges: &[EdgeId],
    parts: usize,
    _: &PartitionOptions,
) -> Vec<u16> {
    assert!(parts > 0 && parts.is_power_of_two(), "fanout must be a power of two, got {parts}");
    assert!(parts <= u16::MAX as usize + 1, "fanout too large");
    let groups = split_rounds(g, edges, parts.trailing_zeros(), 0);
    let mut assignment = vec![0u16; edges.len()];
    for (part, group) in groups.iter().enumerate() {
        for &pos in group {
            assignment[pos as usize] = part as u16;
        }
    }
    assignment
}

/// What [`split_rounds`] returns: the positions `0..edges.len()` arranged
/// into consecutive groups.
pub struct EdgeGroups {
    /// Positions into the input edge list, group after group; within a
    /// group in input order.
    positions: Vec<u32>,
    /// Group `k` is `positions[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<u32>,
}

impl EdgeGroups {
    /// The groups in part order, each a list of positions into the edge
    /// list that was split, ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.bounds.windows(2).map(|w| &self.positions[w[0] as usize..w[1] as usize])
    }
}

/// Runs `rounds` binary rounds over `edges`: every round bisects each
/// group of the round before (the first, all of `edges`) into a left and a
/// right group, so `2^rounds` groups come back, numbered as the recursion
/// numbers them. A group of at most one edge is not bisected: it stays
/// left and its right sibling is empty, so part numbering keeps the shape
/// of the recursion.
///
/// The groups of a round are independent and are fanned out over up to
/// `workers` threads (`0` = all the host has, `1` runs inline) by
/// [`fan_out`]; the result does not depend on `workers`.
///
/// # Panics
/// Panics if `edges` holds more than `u32::MAX` entries.
pub fn split_rounds(g: &RoadNetwork, edges: &[EdgeId], rounds: u32, workers: usize) -> EdgeGroups {
    assert!(edges.len() <= u32::MAX as usize, "edge positions must fit 32 bits");
    let total = edges.len() as u32;
    let mut positions: Vec<u32> = (0..total).collect();
    let mut bounds = vec![0, total];
    let table = edge_table(g, edges);
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    let mut bisectors: Vec<Bisector> = Vec::new();
    bisectors.resize_with(workers, Bisector::default);
    for _ in 0..rounds {
        let groups = bounds.len() - 1;
        // Slot `k`: how many of group `k`'s edges went left.
        let mut lefts = vec![0u32; groups];
        let chunk_len = groups.div_ceil(bisectors.len());
        let mut arena = positions.as_mut_slice();
        let mut first = 0;
        let jobs = lefts.chunks_mut(chunk_len).zip(&mut bisectors).map(|(out, bisector)| {
            let bounds = &bounds[first..=first + out.len()];
            first += out.len();
            let len = (bounds[out.len()] - bounds[0]) as usize;
            let (mine, rest) = std::mem::take(&mut arena).split_at_mut(len);
            arena = rest;
            (out, bisector, mine, bounds)
        });
        let table = table.as_slice();
        fan_out(jobs, |(out, bisector, mine, bounds)| {
            bisector.split_groups(table, mine, bounds, out)
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        let mut next = Vec::with_capacity(2 * groups + 1);
        for (&start, &left) in bounds.iter().zip(&lefts) {
            next.extend([start, start + left]);
        }
        next.push(total);
        bounds = next;
    }
    EdgeGroups { positions, bounds }
}

/// Bisects an edge set: `false` = left half, `true` = right half.
pub fn bisect(g: &RoadNetwork, edges: &[EdgeId]) -> Vec<bool> {
    let mut bisector = Bisector::default();
    let group: Vec<u32> = (0..edges.len() as u32).collect();
    bisector.bisect(&edge_table(g, edges), &group);
    bisector.side
}

/// What a bisection reads of an edge.
#[derive(Clone, Copy)]
struct EdgeInfo {
    /// Endpoints, as (global) node ids.
    ends: [u32; 2],
    /// Midpoint of the segment between them.
    mid: Point,
}

/// [`EdgeInfo`] of every edge of a list, by position: read from the network
/// once, then streamed round after round (a group's positions ascend)
/// where the network's edge records and coordinates would be three random
/// reads per edge, per round.
fn edge_table(g: &RoadNetwork, edges: &[EdgeId]) -> Vec<EdgeInfo> {
    let info = |&e: &EdgeId| {
        let (a, b) = g.edge(e).endpoints();
        EdgeInfo { ends: [a.0, b.0], mid: g.coord(a).midpoint(g.coord(b)) }
    };
    edges.iter().map(info).collect()
}

/// A border node as the per-pass border set holds it: hashed and compared
/// by its *global* id alone — exactly as the `u32` it stands in for, so
/// the set lays out and iterates as a `FastSet<u32>` of global ids would —
/// with the local id riding along, so that iterating the set needs no
/// lookup to get back to the arrays.
#[derive(Clone, Copy)]
struct BorderNode {
    global: u32,
    local: u32,
}

impl Hash for BorderNode {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.global); // what `u32::hash` does
    }
}

impl PartialEq for BorderNode {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.global == other.global
    }
}

impl Eq for BorderNode {}

/// Maps floats to integers that compare as [`f64::total_cmp`] compares the
/// floats (the same sign-magnitude to two's-complement flip, then biased to
/// unsigned), so that sorting by coordinate is sorting integers.
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    ((bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64) ^ (1 << 63)
}

/// `true` for a node with edges on both sides.
#[inline]
fn on_both_sides(c: [u32; 2]) -> bool {
    c[0] > 0 && c[1] > 0
}

/// Change in the border count when one edge at a node with side counts `c`
/// goes from side `s` to the other: the node is a border afterwards iff
/// another of its edges stays on `s`.
#[inline]
fn flip_delta(c: [u32; 2], s: usize) -> i64 {
    (c[s] > 1) as i64 - on_both_sides(c) as i64
}

/// One worker's scratch: every buffer a bisection needs, sized by the
/// largest group it has seen and reused from one bisection to the next.
/// All indices are positions within the group being bisected (edges) or
/// local ids `0..n` in order of first appearance (nodes).
#[derive(Default)]
struct Bisector {
    /// The answer: side of each edge of the group.
    side: Vec<bool>,
    /// Per edge, its midpoint's coordinate along the wider axis (as
    /// [`total_order_bits`]) above its position: compared as plain integers.
    keys: Vec<u128>,
    /// Endpoints of each edge, as local ids.
    ends: Vec<[u32; 2]>,
    /// Global id of each local node.
    global: Vec<u32>,
    /// The nodes in the order-authority map's iteration order.
    seed: Vec<BorderNode>,
    /// CSR node → incident edges, in group order; a self-loop is listed
    /// once. Node `v`'s run is `incident[starts[v]..starts[v + 1]]`.
    starts: Vec<u32>,
    incident: Vec<u32>,
    /// Incident edges of each node per side; refilled every pass.
    counts: Vec<[u32; 2]>,
    locked: Vec<bool>,
    /// The pass's chain of tentative moves.
    moved: Vec<u32>,
    /// The right half of a group while its range is rearranged.
    right: Vec<u32>,
}

impl Bisector {
    /// Bisects each group of a run of adjacent groups and rearranges its
    /// range of the arena to left half, then right half, both in their
    /// previous order. `bounds` are the run's group boundaries as offsets
    /// into the whole arena, `arena` the slice from `bounds[0]` on, and
    /// `lefts[k]` receives the size of group `k`'s left half.
    fn split_groups(
        &mut self,
        table: &[EdgeInfo],
        arena: &mut [u32],
        bounds: &[u32],
        lefts: &mut [u32],
    ) {
        for (w, left) in bounds.windows(2).zip(lefts) {
            let group = &mut arena[(w[0] - bounds[0]) as usize..(w[1] - bounds[0]) as usize];
            if group.len() <= 1 {
                *left = group.len() as u32;
                continue;
            }
            self.bisect(table, group);
            self.right.clear();
            let mut kept = 0;
            for i in 0..group.len() {
                if self.side[i] {
                    self.right.push(group[i]);
                } else {
                    group[kept] = group[i];
                    kept += 1;
                }
            }
            group[kept..].copy_from_slice(&self.right);
            *left = kept as u32;
        }
    }

    /// Geometric split, then KL refinement, of the edges at positions
    /// `group` of `table`; the answer is in `self.side`.
    fn bisect(&mut self, table: &[EdgeInfo], group: &[u32]) {
        self.geometric_split(table, group);
        if group.len() >= 4 {
            self.kl_refine(table, group);
        }
    }

    /// The geometric half: order edges by their midpoint along the wider
    /// axis of the bounding box and cut that order in the middle, giving
    /// two spatially coherent halves with equal edge counts.
    fn geometric_split(&mut self, table: &[EdgeInfo], group: &[u32]) {
        let mids = group.iter().map(|&pos| table[pos as usize].mid);
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for m in mids.clone() {
            min_x = min_x.min(m.x);
            max_x = max_x.max(m.x);
            min_y = min_y.min(m.y);
            max_y = max_y.max(m.y);
        }
        let use_x = (max_x - min_x) >= (max_y - min_y);
        self.keys.clear();
        // Coordinate above, position below: ties go to the lower position,
        // so the keys are unique and the upper half is one set of edges
        // whichever way a selection leaves either half ordered.
        self.keys.extend(mids.zip(0u32..).map(|(m, i)| {
            (total_order_bits(if use_x { m.x } else { m.y }) as u128) << 32 | i as u128
        }));
        let half = self.keys.len() / 2;
        if half < self.keys.len() {
            self.keys.select_nth_unstable(half);
        }
        self.side.clear();
        self.side.resize(self.keys.len(), false);
        for &k in &self.keys[half..] {
            self.side[k as u32 as usize] = true;
        }
    }

    /// Kernighan–Lin refinement of `self.side`: repeatedly build a chain of
    /// tentative best-gain edge moves (allowing interim losses), then keep
    /// the prefix with the highest cumulative gain. Stops when a pass
    /// yields no improvement, i.e. "until further exchanges do not reduce
    /// the number of border nodes".
    #[expect(
        clippy::disallowed_methods,
        reason = "the two order authorities (module docs) are walked in hash order until the partition is re-recorded"
    )]
    fn kl_refine(&mut self, table: &[EdgeInfo], group: &[u32]) {
        let m = group.len();
        let move_cap = ((m as f64).sqrt() as usize) * 4 + 64;
        let min_side = ((m as f64) * MIN_BALANCE).floor() as i64;

        // Local ids from the first order authority (module docs): one
        // `entry()` per endpoint in edge order, `a` then `b`.
        let mut local_of: FastMap<u32, u32> = FastMap::default();
        self.ends.clear();
        self.global.clear();
        for &pos in group {
            let [a, b] = table[pos as usize].ends;
            let mut local = |n: u32| {
                *local_of.entry(n).or_insert_with(|| {
                    self.global.push(n);
                    self.global.len() as u32 - 1
                })
            };
            let ends = [local(a), local(b)];
            self.ends.push(ends);
        }
        let n = self.global.len();
        self.seed.clear();
        self.seed
            .extend(local_of.hash_order().map(|(&global, &local)| BorderNode { global, local }));
        drop(local_of);

        // Node → incident edges by counting sort (the candidate scan walks
        // only edges touching current border nodes, keeping each move
        // O(border) instead of O(|edges|)). Degrees are counted two slots
        // up so that, once summed, slot `v + 1` is the fill cursor of `v`
        // and ends up as its end.
        self.starts.clear();
        self.starts.resize(n + 2, 0);
        for &[a, b] in &self.ends {
            self.starts[a as usize + 2] += 1;
            if b != a {
                self.starts[b as usize + 2] += 1;
            }
        }
        for v in 2..n + 2 {
            self.starts[v] += self.starts[v - 1];
        }
        self.incident.clear();
        self.incident.resize(self.starts[n + 1] as usize, 0);
        for (&[a, b], i) in self.ends.iter().zip(0u32..) {
            let mut list = |v: u32| {
                let cursor = &mut self.starts[v as usize + 1];
                self.incident[*cursor as usize] = i;
                *cursor += 1;
            };
            list(a);
            if b != a {
                list(b);
            }
        }

        self.moved.clear();
        self.moved.reserve(move_cap.min(m));
        for _pass in 0..KL_PASSES {
            self.counts.clear();
            self.counts.resize(n, [0, 0]);
            let mut side_sizes = [0i64; 2];
            for (&[a, b], &s) in self.ends.iter().zip(&self.side) {
                self.counts[a as usize][s as usize] += 1;
                self.counts[b as usize][s as usize] += 1;
                side_sizes[s as usize] += 1;
            }
            // The second order authority: seeded in the first one's order.
            let mut border: FastSet<BorderNode> = self
                .seed
                .iter()
                .filter(|node| on_both_sides(self.counts[node.local as usize]))
                .copied()
                .collect();
            self.locked.clear();
            self.locked.resize(m, false);
            self.moved.clear();
            let mut cumulative = 0i64;
            let mut best_cumulative = 0i64;
            let mut best_len = 0usize;

            for _step in 0..move_cap {
                // Candidates: unlocked edges touching a current border
                // node; the first of maximal gain wins.
                let mut best: Option<(i64, usize)> = None;
                for node in border.hash_order() {
                    let v = node.local as usize;
                    for &i in &self.incident[self.starts[v] as usize..self.starts[v + 1] as usize] {
                        let i = i as usize;
                        if self.locked[i] {
                            continue;
                        }
                        let s = self.side[i] as usize;
                        if side_sizes[s] - 1 < min_side {
                            continue; // would unbalance
                        }
                        let [a, b] = self.ends[i];
                        let gain = if a == b {
                            0
                        } else {
                            -(flip_delta(self.counts[a as usize], s)
                                + flip_delta(self.counts[b as usize], s))
                        };
                        if best.is_none_or(|(best_gain, _)| gain > best_gain) {
                            best = Some((gain, i));
                        }
                    }
                }
                let Some((gain, i)) = best else { break };
                // Apply tentatively. A self-loop flips its node twice.
                let s = self.side[i] as usize;
                for v in self.ends[i] {
                    let c = &mut self.counts[v as usize];
                    c[s] -= 1;
                    c[1 - s] += 1;
                    let node = BorderNode { global: self.global[v as usize], local: v };
                    if on_both_sides(*c) {
                        border.insert(node);
                    } else {
                        border.remove(&node);
                    }
                }
                self.side[i] = !self.side[i];
                side_sizes[s] -= 1;
                side_sizes[1 - s] += 1;
                self.locked[i] = true;
                self.moved.push(i as u32);
                cumulative += gain;
                if cumulative > best_cumulative {
                    best_cumulative = cumulative;
                    best_len = self.moved.len();
                }
                // Heuristic early stop: deep negative chains rarely recover.
                if cumulative < best_cumulative - 8 {
                    break;
                }
            }

            // Roll back past the best prefix.
            for &i in &self.moved[best_len..] {
                self.side[i as usize] = !self.side[i as usize];
            }
            if best_cumulative <= 0 {
                break; // pass did not improve the cut
            }
        }
    }
}

/// Number of nodes incident to edges on both sides — the KL objective.
pub fn internal_border_count(g: &RoadNetwork, edges: &[EdgeId], side: &[bool]) -> usize {
    let mut counts = vec![[0u32; 2]; g.num_nodes()];
    for (&e, &s) in edges.iter().zip(side) {
        let (a, b) = g.edge(e).endpoints();
        for n in [a, b] {
            counts[n.index()][s as usize] += 1;
        }
    }
    counts.into_iter().filter(|&c| on_both_sides(c)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::simple;

    fn all_edges(g: &RoadNetwork) -> Vec<EdgeId> {
        g.edge_ids().collect()
    }

    #[test]
    fn sort_keys_order_as_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &x in &samples {
            for &y in &samples {
                assert_eq!(
                    total_order_bits(x).cmp(&total_order_bits(y)),
                    x.total_cmp(&y),
                    "{x:?} against {y:?}"
                );
            }
        }
    }

    #[test]
    fn bisection_balances_edge_counts() {
        let g = simple::grid(8, 8, 1.0);
        let edges = all_edges(&g);
        let side = bisect(&g, &edges);
        let right = side.iter().filter(|&&s| s).count();
        let left = side.len() - right;
        let min = (side.len() as f64 * 0.40) as usize;
        assert!(left >= min && right >= min, "unbalanced: {left}/{right}");
    }

    #[test]
    fn kl_does_not_worsen_geometric_cut() {
        let g = simple::grid(10, 10, 1.0);
        let edges = all_edges(&g);
        let mut bisector = Bisector::default();
        let group: Vec<u32> = (0..edges.len() as u32).collect();
        bisector.geometric_split(&edge_table(&g, &edges), &group);
        let geo_cost = internal_border_count(&g, &edges, &bisector.side);
        let refined = bisect(&g, &edges);
        let refined_cost = internal_border_count(&g, &edges, &refined);
        assert!(refined_cost <= geo_cost, "KL worsened the cut: {refined_cost} > {geo_cost}");
    }

    #[test]
    fn grid_bisection_border_is_roughly_one_column() {
        // A 12x12 unit grid cut in half should have a border close to one
        // grid line (12 nodes), certainly far less than half the nodes.
        let g = simple::grid(12, 12, 1.0);
        let edges = all_edges(&g);
        let side = bisect(&g, &edges);
        let cost = internal_border_count(&g, &edges, &side);
        assert!(cost <= 24, "border too fat: {cost}");
        assert!(cost >= 12 - 4, "suspiciously thin border: {cost}");
    }

    #[test]
    fn partition_into_four_covers_all_edges_disjointly() {
        let g = simple::grid(9, 9, 1.0);
        let edges = all_edges(&g);
        let parts = partition_edges(&g, &edges, 4, &PartitionOptions::default());
        assert_eq!(parts.len(), edges.len());
        let mut counts = [0usize; 4];
        for &p in &parts {
            assert!(p < 4);
            counts[p as usize] += 1;
        }
        // Every part holds a reasonable share (Definition 4: non-empty, and
        // the paper aims at equal-sized Rnets).
        let min = edges.len() / 8;
        for (i, &c) in counts.iter().enumerate() {
            assert!(c >= min, "part {i} too small: {c} of {}", edges.len());
        }
    }

    #[test]
    fn chain_partition_cuts_at_articulation_points() {
        // A 16-node chain has 15 edges; a perfect bisection has exactly one
        // border node in the middle.
        let g = simple::chain(16, 1.0);
        let edges = all_edges(&g);
        let side = bisect(&g, &edges);
        let cost = internal_border_count(&g, &edges, &side);
        assert_eq!(cost, 1, "chain bisection should meet at a single node");
    }

    #[test]
    fn degenerate_inputs() {
        let g = simple::chain(2, 1.0);
        let edges = all_edges(&g); // one edge
        let parts = partition_edges(&g, &edges, 4, &PartitionOptions::default());
        assert_eq!(parts, vec![0]);
        let empty: Vec<EdgeId> = Vec::new();
        let parts = partition_edges(&g, &empty, 2, &PartitionOptions::default());
        assert!(parts.is_empty());
    }

    fn groups_of(groups: &EdgeGroups) -> Vec<Vec<u32>> {
        groups.iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn rounds_do_not_depend_on_the_worker_count() {
        let g = crate::generator::Dataset::SfStreets.generate_scaled(0.01, 5).unwrap();
        let edges = all_edges(&g);
        let reference = groups_of(&split_rounds(&g, &edges, 7, 1));
        assert_eq!(reference.len(), 128);
        assert!(reference.iter().all(|group| group.windows(2).all(|w| w[0] < w[1])));
        let mut seen: Vec<u32> = reference.concat();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..edges.len() as u32), "groups partition the positions");
        for workers in [0, 2, 3, 4, 8, 200] {
            let groups = groups_of(&split_rounds(&g, &edges, 7, workers));
            assert_eq!(groups, reference, "{workers} workers");
        }
    }

    #[test]
    fn lopsided_rounds_keep_their_part_slots_on_any_worker_count() {
        // K5's ten edges over six rounds: after the fourth every group
        // holds at most one edge, so most of the 64 groups are empty —
        // and most workers' runs of groups are zero edges long. Empty and
        // one-edge groups still take their two slots.
        let mut b = crate::graph::NetworkBuilder::default();
        let nodes: Vec<_> =
            (0..5).map(|i| b.add_node(Point::new((i * i) as f64, (7 * i % 5) as f64))).collect();
        for i in 0..5 {
            for j in i + 1..5 {
                b.add_edge(nodes[i], nodes[j], 1.0).unwrap();
            }
        }
        let g = b.build();
        let edges = all_edges(&g);
        let reference = groups_of(&split_rounds(&g, &edges, 6, 1));
        assert_eq!(reference.len(), 64);
        assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 10);
        assert!(reference.iter().all(|group| group.len() <= 1));
        assert_eq!(reference.iter().filter(|group| group.is_empty()).count(), 54);
        for workers in [2, 3, 5, 8, 64, 100] {
            let groups = groups_of(&split_rounds(&g, &edges, 6, workers));
            assert_eq!(groups, reference, "{workers} workers");
        }
        // A lone edge is never bisected: it stays in part 0 of 2^rounds.
        let lone = groups_of(&split_rounds(&g, &edges[3..4], 4, 3));
        assert_eq!(lone.len(), 16);
        assert_eq!(lone[0], [0]);
        assert!(lone[1..].iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fanout_must_be_power_of_two() {
        let g = simple::chain(4, 1.0);
        let edges = all_edges(&g);
        let _ = partition_edges(&g, &edges, 3, &PartitionOptions::default());
    }
}
