//! Flat CSR (compressed sparse row) adjacency arenas.
//!
//! The shortcut builder and the contraction pass (see [`crate::contractor`])
//! work over *local* graphs — an Rnet's borders and interiors renumbered to a
//! dense `0..n` id space.  A pointer-rich per-node adjacency list would cost
//! one heap allocation per node; this module holds a local graph in a single
//! contiguous arena: arc targets, weights and labels live in three parallel
//! flat vectors indexed by a per-node offset table.  That layout is what every
//! contraction hierarchy implementation converges on (Nannicini et al., *Fast
//! paths in large-scale dynamic road networks*): one cache line holds several
//! arcs, a rebuild is three `memcpy`-shaped passes, and there is no per-node
//! heap allocation at all.
//!
//! [`CsrBuilder`] accepts arcs in any order and finalises them with a stable
//! counting sort, so arcs of one source node keep their insertion order — the
//! shortcut builder relies on that to stay byte-compatible with the legacy
//! adjacency-list sweep.  Both the builder and the graph are designed for
//! reuse: `finish_into` writes into a caller-owned [`CsrGraph`], and all
//! scratch vectors are recycled across Rnets.

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

use crate::weight::Weight;

/// A frozen CSR adjacency arena over dense node ids `0..num_nodes`.
///
/// Layout (all arcs of node `n` are contiguous):
///
/// ```text
/// offsets: [ 0 .. n+1 ]          offsets[n] .. offsets[n+1] = arc range of n
/// targets: [ u32; num_arcs ]     head node of each arc
/// weights: [ Weight; num_arcs ]  arc weight (f64 newtype)
/// labels:  [ u32; num_arcs ]     caller-defined tag (edge id at leaves)
/// ```
#[derive(Debug, Default, Clone)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<Weight>,
    labels: Vec<u32>,
}

impl CsrGraph {
    /// Number of nodes the arena was finalised for.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `n` (0 for out-of-range ids).
    #[inline]
    pub fn degree(&self, n: u32) -> usize {
        let lo = self.offsets.get(n as usize).copied().unwrap_or(0) as usize;
        let hi = self.offsets.get(n as usize + 1).copied().unwrap_or(0) as usize;
        hi.saturating_sub(lo)
    }

    /// Iterate the arcs of `n` as `(target, weight, label)` in insertion
    /// order.  Out-of-range ids yield an empty iterator.
    #[inline]
    pub fn out(&self, n: u32) -> impl Iterator<Item = (u32, Weight, u32)> + '_ {
        let lo = self.offsets.get(n as usize).copied().unwrap_or(0) as usize;
        let hi = self.offsets.get(n as usize + 1).copied().unwrap_or(lo as u32) as usize;
        let lo = lo.min(self.targets.len());
        let hi = hi.clamp(lo, self.targets.len());
        self.targets
            .get(lo..hi)
            .unwrap_or(&[])
            .iter()
            .zip(self.weights.get(lo..hi).unwrap_or(&[]))
            .zip(self.labels.get(lo..hi).unwrap_or(&[]))
            .map(|((&t, &w), &l)| (t, w, l))
    }

    /// Drop all nodes and arcs, keeping capacity.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.targets.clear();
        self.weights.clear();
        self.labels.clear();
    }
}

/// Arc accumulator that freezes into a [`CsrGraph`] with a stable counting
/// sort: arcs may be pushed in any source order, and arcs sharing a source
/// keep their relative push order.
#[derive(Debug, Default)]
pub struct CsrBuilder {
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    ws: Vec<Weight>,
    labels: Vec<u32>,
    cursor: Vec<u32>,
}

impl CsrBuilder {
    /// Forget all pushed arcs, keeping capacity.
    pub fn clear(&mut self) {
        self.srcs.clear();
        self.dsts.clear();
        self.ws.clear();
        self.labels.clear();
    }

    /// Number of arcs pushed since the last [`clear`](Self::clear).
    #[inline]
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// True when no arcs have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Record one directed arc `from -> to`.
    #[inline]
    pub fn push(&mut self, from: u32, to: u32, weight: Weight, label: u32) {
        self.srcs.push(from);
        self.dsts.push(to);
        self.ws.push(weight);
        self.labels.push(label);
    }

    /// Iterate the raw pushed arcs as `(from, to, weight)` in push order,
    /// without freezing them into a [`CsrGraph`].  Consumers that only fold
    /// over the arc set (the shortcut builder's border-distance closure)
    /// skip the counting sort entirely.
    #[inline]
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32, Weight)> + '_ {
        self.srcs.iter().zip(&self.dsts).zip(&self.ws).map(|((&s, &d), &w)| (s, d, w))
    }

    /// Freeze the pushed arcs into `out` as a CSR arena over `num_nodes`
    /// dense ids.  Arcs whose source id is `>= num_nodes` are dropped.
    /// Stable: arcs of one source keep their push order.
    #[expect(
        clippy::indexing_slicing,
        reason = "counting-sort cursors are derived from the builder's own arc vectors; every index is bounded by the prefix sums computed two passes above"
    )]
    pub fn finish_into(&mut self, num_nodes: usize, out: &mut CsrGraph) {
        out.clear();
        self.cursor.clear();
        self.cursor.resize(num_nodes + 1, 0);

        // Pass 1: out-degree histogram (shifted by one for the prefix sum).
        for &s in &self.srcs {
            if (s as usize) < num_nodes {
                self.cursor[s as usize + 1] += 1;
            }
        }
        // Pass 2: exclusive prefix sum = final offsets.
        for i in 1..=num_nodes {
            self.cursor[i] += self.cursor[i - 1];
        }
        out.offsets.extend_from_slice(&self.cursor);
        let total = self.cursor[num_nodes] as usize;
        out.targets.resize(total, 0);
        out.weights.resize(total, Weight::ZERO);
        out.labels.resize(total, 0);

        // Pass 3: stable scatter; cursor[s] walks s's arc range forward.
        for i in 0..self.srcs.len() {
            let s = self.srcs[i] as usize;
            if s >= num_nodes {
                continue;
            }
            let slot = self.cursor[s] as usize;
            out.targets[slot] = self.dsts[i];
            out.weights[slot] = self.ws[i];
            out.labels[slot] = self.labels[i];
            self.cursor[s] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    #[test]
    fn finish_preserves_per_source_push_order() {
        let mut b = CsrBuilder::default();
        // Interleave sources; per-source order must survive the sort.
        b.push(2, 0, w(5.0), 50);
        b.push(0, 1, w(1.0), 10);
        b.push(2, 1, w(6.0), 60);
        b.push(0, 2, w(2.0), 20);
        b.push(2, 2, w(7.0), 70);
        let mut g = CsrGraph::default();
        b.finish_into(3, &mut g);

        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 5);
        let n0: Vec<_> = g.out(0).collect();
        assert_eq!(n0, vec![(1, w(1.0), 10), (2, w(2.0), 20)]);
        assert_eq!(g.degree(1), 0);
        assert!(g.out(1).next().is_none());
        let n2: Vec<_> = g.out(2).collect();
        assert_eq!(n2, vec![(0, w(5.0), 50), (1, w(6.0), 60), (2, w(7.0), 70)]);
    }

    #[test]
    fn out_of_range_queries_are_empty_not_panics() {
        let mut b = CsrBuilder::default();
        b.push(0, 1, w(1.0), 0);
        b.push(9, 1, w(1.0), 0); // source beyond num_nodes: dropped
        let mut g = CsrGraph::default();
        b.finish_into(2, &mut g);
        assert_eq!(g.num_arcs(), 1);
        assert_eq!(g.degree(7), 0);
        assert!(g.out(7).next().is_none());
        assert!(CsrGraph::default().out(0).next().is_none());
    }

    #[test]
    fn builder_and_graph_are_reusable() {
        let mut b = CsrBuilder::default();
        let mut g = CsrGraph::default();
        b.push(1, 0, w(3.0), 1);
        b.finish_into(2, &mut g);
        assert_eq!(g.num_arcs(), 1);

        b.clear();
        b.push(0, 1, w(4.0), 2);
        b.push(0, 2, w(5.0), 3);
        b.finish_into(3, &mut g);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 2);
        let n0: Vec<_> = g.out(0).collect();
        assert_eq!(n0, vec![(1, w(4.0), 2), (2, w(5.0), 3)]);
        assert!(g.out(1).next().is_none());
    }
}
