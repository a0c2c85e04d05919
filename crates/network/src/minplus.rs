//! Dense min-plus kernels over flat `f64` matrices.
//!
//! The shortcut builder needs, per Rnet, the all-pairs distances among the
//! Rnet's border nodes.  [`crate::contractor`] gets there by eliminating the
//! interior nodes from adjacency lists, which is the right shape for a leaf
//! of thousands of nodes and the wrong one for what maintenance actually
//! recomputes: local graphs of a few dozen to a couple of hundred nodes, at
//! the upper levels nearly cliques of child shortcuts (average degree ≈ 25),
//! where every contraction is pure fill-in through linear list scans.  On
//! such a graph the same elimination over an `n x n` matrix is a run of
//! `dst[j] = min(dst[j], a + src[j])` rows — no search, no branch, no
//! allocation, and a loop the compiler vectorises.
//!
//! Everything here is that one row operation applied three ways, and on the
//! dense arm each of the three works one triangle of the matrix:
//!
//! * [`border_matrix`] — seed the matrix from the local CSR, pivot the
//!   interior nodes out last-to-first, close over the sealed prefix;
//! * [`cover_pairs`] — the Lemma-4 keep rule, every pair of the closed
//!   prefix at once.
//!
//! The road network is undirected, and so is every graph these kernels are
//! given: a leaf's local graph has both directions of every edge at one
//! weight, an upper level's has a child's kept `b → t` and `t → b`, the same
//! path summed from either end.  On a symmetric matrix `d[i][j]` and
//! `d[j][i]` are computed from the same two operands — `d[i][k] + d[k][j]`
//! against `d[j][k] + d[k][i]` — and IEEE addition commutes, so the square
//! computes every value twice.  The kernels read the lower triangle only
//! (`i > j`), take it as the distance of the pair, and write nothing above
//! it: half the min-adds, and on symmetric input bit for bit what the square
//! computes (`tests/proptest_minplus.rs` holds them to a copy of the square
//! kernel).  Above a leaf the two directions of a child shortcut can differ
//! in the last bit, and the lower one then stands for both; the stored
//! shortcut sums are not affected (below).
//!
//! [`close_arcs`] and [`cover_row`] are the same operations over the whole
//! square, for the contractor's remainder graph and the all-pairs oracle,
//! whose border distances are not symmetric bit for bit.
//!
//! Eliminating node `k` rewrites `d[i][j]` to `min(d[i][j], d[i][k] +
//! d[k][j])` for all remaining `i, j` — exactly what contracting `k` with a
//! witness budget of zero does to the overlay's adjacency lists — so after
//! the last interior pivot the sealed prefix holds the contraction
//! remainder, and Floyd–Warshall over that prefix finishes the job.  Every
//! entry is a sum of arc weights along a real path, so on weights exact in
//! `f64` the result equals the contractor's and a per-border Dijkstra's bit
//! for bit (pinned by `tests/proptest_minplus.rs`).
//!
//! A pivot that improves `d[i][j]` is also *how* `i` reaches `j`: the
//! paper stores a shortcut as two shorter ones joined at a node, `S(n1, n3)
//! = (S(n1, nd), S(nd, n3))` (Definition 3, Lemma 2), and `k` is that
//! `nd`.  The interior pivots of [`border_matrix`] therefore record, per
//! pair, the last pivot that strictly improved it, and the matrix they
//! leave — before the closure, which runs on a copy and records nothing —
//! holds for every sealed pair its *border-free* distance, over paths
//! through interior nodes only.  [`Elimination`] keeps both, and
//! [`Elimination::unpack`] turns a pair back into its path: what the
//! shortcut builder stores as a kept pair's waypoints, with no search.
//! Stored sums stay directional: the upper triangle is never written, so it
//! still holds the arc `w(i → j)` it was seeded with, and a segment no pivot
//! split adds `d[i][j]` as asked — the lower triangle's untouched `w(i → j)`
//! when `i > j`, the upper's when `i < j`.  An unpacked shortcut is
//! therefore the left-to-right sum of its own direction's arcs, the bits a
//! Dijkstra label along that path would carry.
//!
//! Weights enter as [`Weight`], hence non-negative and never NaN; `+∞`
//! stands for "no arc" and is absorbing under `+`, so unreachable pairs
//! need no special case.  Comparisons are written `if via < cur` — the
//! exact semantics of the scalar loops these kernels replaced (and of
//! `minpd`), so ties and signed zeros resolve as they always did, and a
//! recorded pivot is always a strict improvement.
//!
//! Every kernel returns how many matrix entries it relaxed, one add per
//! relaxed row of the row's length: an exact, timer-free measure of the
//! work a kernel change saves.

use crate::csr::CsrGraph;
use crate::weight::Weight;

// roadlint: hot-path (dense elimination: flat matrices, caller-owned scratch)

/// `dst[j] = min(dst[j], a + src[j])`.
#[inline]
fn relax_row(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let via = a + s;
        *d = if via < *d { via } else { *d };
    }
}

/// [`relax_row`] over strictly positive second legs only: an entry of `src`
/// that is zero relaxes nothing.
#[inline]
fn relax_row_positive_legs(dst: &mut [f64], a: f64, src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let via = if s > 0.0 { a + s } else { f64::INFINITY };
        *d = if via < *d { via } else { *d };
    }
}

/// [`relax_row`] that also remembers who improved what: `mid[j] = pivot`
/// exactly where `dst[j]` strictly dropped. `mid` is as wide as the
/// distances, so the pair of selects shares one compare mask and the loop
/// vectorises like the plain one.
#[inline]
fn relax_tracked(dst: &mut [f64], mid: &mut [u64], a: f64, src: &[f64], pivot: u64) {
    for ((d, m), &s) in dst.iter_mut().zip(mid).zip(src) {
        let via = a + s;
        let better = via < *d;
        *d = if better { via } else { *d };
        *m = if better { pivot } else { *m };
    }
}

/// [`relax_tracked`] a block at a time, blocks nothing improves in left
/// unwritten: twice the stores of the plain kernel are worth a look first,
/// since the later a pivot comes the fewer entries it still improves.
#[inline]
fn relax_row_tracked(dst: &mut [f64], mid: &mut [u64], a: f64, src: &[f64], pivot: u64) {
    const BLOCK: usize = 8;
    let mut rows = dst.chunks_exact_mut(BLOCK);
    let mut mids = mid.chunks_exact_mut(BLOCK);
    let mut srcs = src.chunks_exact(BLOCK);
    for ((d, m), s) in rows.by_ref().zip(mids.by_ref()).zip(srcs.by_ref()) {
        if d.iter().zip(s).fold(false, |any, (&d, &s)| any | (a + s < d)) {
            relax_tracked(d, m, a, s, pivot);
        }
    }
    relax_tracked(rows.into_remainder(), mids.into_remainder(), a, srcs.remainder(), pivot);
}

/// Resets `mat` to the `n x n` matrix of a graph without arcs: zero on the
/// diagonal, `+∞` elsewhere.
fn reset(mat: &mut Vec<f64>, n: usize) {
    mat.clear();
    mat.resize(n * n, f64::INFINITY);
    for i in 0..n {
        mat[i * n + i] = 0.0;
    }
}

/// Folds one arc into the matrix (min per pair; arcs leaving `0..n` are
/// ignored, infinite ones are no-ops).
#[inline]
fn seed(mat: &mut [f64], n: usize, u: u32, v: u32, w: Weight) {
    let (u, v) = (u as usize, v as usize);
    if u < n && v < n && w.get() < mat[u * n + v] {
        mat[u * n + v] = w.get();
    }
}

/// Copies the lower triangle of the row-major `n x n` matrix `d` onto the
/// upper one.
fn mirror(d: &mut [f64], n: usize) {
    for i in 1..n {
        for j in 0..i {
            d[j * n + i] = d[i * n + j];
        }
    }
}

/// Floyd–Warshall over the row-major `n x n` matrix `d`, in place.  The
/// diagonal is zero and weights are non-negative, so relaxing the pivot
/// row through itself is the identity and is skipped.
fn close(d: &mut [f64], n: usize) -> u64 {
    let mut relaxed = 0;
    for k in 0..n {
        for i in 0..n {
            let a = d[i * n + k];
            if i == k || a == f64::INFINITY {
                continue;
            }
            let (row, pivot) = if i < k {
                let (lo, hi) = d.split_at_mut(k * n);
                (&mut lo[i * n..(i + 1) * n], &hi[..n])
            } else {
                let (lo, hi) = d.split_at_mut(i * n);
                (&mut hi[..n], &lo[k * n..(k + 1) * n])
            };
            relax_row(row, a, pivot);
            relaxed += n as u64;
        }
    }
    relaxed
}

/// [`close`] over the lower triangle of `d`, read as symmetric, then
/// mirrored onto the upper one. Pivot `k`'s row — its own prefix, then
/// column `k` below the diagonal — is gathered into `pivot` first, and no
/// row relaxed through `k` changes it: an entry in row or column `k`
/// relaxes through the zero diagonal to itself.
fn close_lower(d: &mut [f64], n: usize, pivot: &mut Vec<f64>) -> u64 {
    let mut relaxed = 0;
    for k in 0..n {
        pivot.clear();
        pivot.extend_from_slice(&d[k * n..k * n + k]);
        pivot.push(0.0);
        pivot.extend((k + 1..n).map(|j| d[j * n + k]));
        for (i, row) in d.chunks_exact_mut(n).enumerate() {
            let a = pivot[i];
            if i != k && a != f64::INFINITY {
                relax_row(&mut row[..i], a, &pivot[..i]);
                relaxed += i as u64;
            }
        }
    }
    mirror(d, n);
    relaxed
}

/// `mid` of an entry no pivot improved: it still holds its seeded arc.
const NO_PIVOT: u64 = u64::MAX;

/// What [`border_matrix`] works in and leaves behind: the arc matrix with
/// the interiors pivoted out, and per pair the pivot that last improved
/// it — the paper's `S(n1, n3) = (S(n1, nd), S(nd, n3))` (Definition 3),
/// which is all a path needs. Reusable; sized by the last graph given.
///
/// After [`border_matrix`]`(g, sealed, ..)` the entry of a sealed pair
/// `(b, t)` is its *border-free* distance, over paths whose inner nodes
/// are all interior — what a Dijkstra from `b` that never expands another
/// sealed node finds — and [`Elimination::unpack`] walks such a path.
#[derive(Default)]
pub struct Elimination {
    n: usize,
    /// Row-major `n x n`. The lower triangle is the distance of each pair;
    /// row `k`'s prefix and column `k` below the diagonal are frozen once
    /// `k` is pivoted out, so both legs every pivot combined stay
    /// readable. The upper triangle is never written: `(i, j)` for `i < j`
    /// is the arc `i -> j` it was seeded with.
    dist: Vec<f64>,
    /// Per pair, in the lower triangle, the last pivot that *strictly*
    /// improved it, or [`NO_PIVOT`]. Only interior pivots are recorded:
    /// the closure over the sealed prefix works on a copy.
    mid: Vec<u64>,
    /// Segments still to be walked by [`Elimination::unpack`], rightmost
    /// at the bottom.
    stack: Vec<(u32, u32)>,
    /// The closure's current pivot row, gathered from its triangle.
    pivot_row: Vec<f64>,
}

impl Elimination {
    /// Index of the pair `{i, j}` in the lower triangle.
    #[inline]
    fn lower(&self, i: u32, j: u32) -> usize {
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        hi as usize * self.n + lo as usize
    }

    /// Border-free distance between sealed nodes `b` and `t`; `+∞` when
    /// every path between them runs through a third sealed node (or there
    /// is none). For any other pair of the graph, the distance as the
    /// elimination left it.
    ///
    /// # Panics
    /// When `b` or `t` is not a node of the last graph eliminated.
    #[inline]
    pub fn border_free(&self, b: u32, t: u32) -> f64 {
        assert!(
            (b as usize) < self.n && (t as usize) < self.n,
            "node outside the eliminated graph"
        );
        self.dist[self.lower(b, t)]
    }

    /// The pivot that last strictly improved the pair `(i, j)` — the `nd`
    /// of `S(i, j) = (S(i, nd), S(nd, j))` — or `None` where the pair still
    /// holds the arcs it was seeded with.
    ///
    /// # Panics
    /// When `i` or `j` is not a node of the last graph eliminated.
    pub fn pivot(&self, i: u32, j: u32) -> Option<u32> {
        assert!(
            (i as usize) < self.n && (j as usize) < self.n,
            "node outside the eliminated graph"
        );
        let k = self.mid[self.lower(i, j)];
        (k != NO_PIVOT).then_some(k as u32)
    }

    /// Walks a shortest border-free path from sealed node `b` to sealed
    /// node `t`: `waypoint` sees its inner nodes in travel order, and the
    /// result is the sum of its arc weights *taken left to right* — the
    /// additions a Dijkstra label makes, in its order, so the same bits as
    /// the label of the same path (the matrix entry sums the same arcs as
    /// two halves, which on inexact weights may round differently). Each
    /// arc is the one of the direction travelled, `w(i -> j)` and not
    /// `w(j -> i)`, where the two differ in the last bit. An infinite
    /// [`Elimination::border_free`] returns `+∞` with no waypoint.
    ///
    /// `(i, j)` splits at its recorded pivot `k` into `(i, k)` and
    /// `(k, j)`. A pair with `k` was last written before `k` was pivoted
    /// out, by a pivot eliminated earlier — one with a larger id — so pivot
    /// ids strictly increase down a branch, stay below `n`, and the walk
    /// ends; a pair without a pivot is the arc it was seeded with. Among
    /// equally short paths the one found is fixed by that rule — the
    /// *last* pivot (the smallest id) that strictly improved each pair —
    /// and need not be the one Dijkstra settles first.
    ///
    /// # Panics
    /// When `b` or `t` is not a node of the last graph eliminated.
    pub fn unpack(&mut self, b: u32, t: u32, mut waypoint: impl FnMut(u32)) -> f64 {
        if self.border_free(b, t) == f64::INFINITY {
            return f64::INFINITY;
        }
        let n = self.n;
        let mut sum = 0.0;
        self.stack.clear();
        self.stack.push((b, t));
        while let Some((i, j)) = self.stack.pop() {
            let k = self.mid[self.lower(i, j)];
            if k == NO_PIVOT {
                sum += self.dist[i as usize * n + j as usize];
                // Whatever is still stacked lies beyond `j`.
                if !self.stack.is_empty() {
                    waypoint(j);
                }
            } else {
                self.stack.push((k as u32, j));
                self.stack.push((i, k as u32));
            }
        }
        sum
    }
}

/// All-pairs distances among the sealed nodes `0..sealed` of the local
/// graph `g`, row-major `sealed x sealed` into `out`, by dense elimination
/// over one triangle: `elim` is seeded as the `n x n` arc matrix of `g`,
/// the interior nodes `sealed..n` are pivoted out last-to-first — pivot `k`
/// relaxes each live row `i < k` with a finite `d[k][i]` over its prefix
/// `0..i` from `d[k][0..i]`, about `(n³ − sealed³) / 6` min-adds in all —
/// and a copy of the sealed prefix's triangle is closed and mirrored into
/// `out`. Self-loops and infinite-weight (closed) arcs of `g` are ignored,
/// as in [`crate::contractor::Contractor::contract`]. Returns the matrix
/// entries relaxed (see the module docs).
///
/// `g` must be undirected up to rounding: every open arc has a reverse arc
/// of [`Weight::approx_eq`] weight (checked in debug builds). The kernels
/// read the pair `{i, j}` from the lower triangle alone, so of a one-way
/// arc they would see one direction or none — on an arc `i -> j` with no
/// way back from `j` a shortcut would be kept that does not exist, or be
/// lost that does.
///
/// `elim` keeps the state before the closure, pivots included: see
/// [`Elimination`] for what can be read from it afterwards.
///
/// Memory is `16 n²` bytes of `elim`; the caller bounds `n`.
pub fn border_matrix(
    g: &CsrGraph,
    sealed: usize,
    elim: &mut Elimination,
    out: &mut Vec<f64>,
) -> u64 {
    let n = g.num_nodes();
    let sealed = sealed.min(n);
    elim.n = n;
    reset(&mut elim.dist, n);
    elim.mid.clear();
    elim.mid.resize(n * n, NO_PIVOT);
    for u in 0..n as u32 {
        for (v, w, _) in g.out(u) {
            seed(&mut elim.dist, n, u, v, w);
        }
    }
    debug_assert!(
        undirected_up_to_rounding(&elim.dist, n),
        "a local graph with a one-way arc: the one-triangle kernels need both directions"
    );
    let mut relaxed = 0;
    for k in (sealed..n).rev() {
        let (live, rest) = elim.dist.split_at_mut(k * n);
        let pivot = &rest[..k];
        let rows = live.chunks_exact_mut(n).zip(elim.mid.chunks_exact_mut(n));
        for (i, (row, mid)) in rows.enumerate() {
            let a = pivot[i];
            if a != f64::INFINITY {
                relax_row_tracked(&mut row[..i], &mut mid[..i], a, &pivot[..i], k as u64);
                relaxed += i as u64;
            }
        }
    }
    out.clear();
    for row in elim.dist.chunks_exact(n.max(1)).take(sealed) {
        out.extend_from_slice(&row[..sealed]);
    }
    relaxed + close_lower(out, sealed, &mut elim.pivot_row)
}

/// All-pairs distances over `0..n` of the graph given by `arcs`, row-major
/// `n x n` into `out` — the closure of a contraction remainder, folded
/// straight off the arc list (min per pair), over the whole square. Returns
/// the matrix entries relaxed.
///
/// The whole square, because a remainder left by bounded witness searches
/// need not be symmetric bit for bit. It goes with the contractor, when one
/// eliminator takes every local graph (ROADMAP item 3).
pub fn close_arcs(
    n: usize,
    arcs: impl Iterator<Item = (u32, u32, Weight)>,
    out: &mut Vec<f64>,
) -> u64 {
    reset(out, n);
    for (u, v, w) in arcs {
        seed(out, n, u, v, w);
    }
    close(out, n)
}

/// The Lemma-4 cover of source `b` in the closed `n x n` matrix `d`:
/// `cover[t] = min over m of d[b][m] + d[m][t]`, taken over the third nodes
/// `m` whose *both* legs are strictly positive.  The diagonal of `d` is
/// zero, so `m == b` and `m == t` are excluded by that same test — and so
/// is a node at distance zero from either end, which could otherwise cover
/// a pair that in turn covers it.  `cover` (length `n`) is overwritten.
/// Returns the matrix entries relaxed.
///
/// The whole square, for matrices that are not symmetric bit for bit (the
/// contractor's closure, the oracle's Dijkstra rows); [`cover_pairs`] is
/// the dense arm's. It goes with the contractor, when one eliminator takes
/// every local graph (ROADMAP item 3).
pub fn cover_row(d: &[f64], n: usize, b: usize, cover: &mut [f64]) -> u64 {
    cover.fill(f64::INFINITY);
    let mut relaxed = 0;
    for (m, &a) in d[b * n..(b + 1) * n].iter().enumerate() {
        if a > 0.0 && a != f64::INFINITY {
            relax_row_positive_legs(cover, a, &d[m * n..(m + 1) * n]);
            relaxed += n as u64;
        }
    }
    relaxed
}

/// [`cover_row`] of every source at once, row-major `n x n` into `cover`,
/// over one triangle: `d` is a closed *symmetric* matrix (what
/// [`border_matrix`] leaves in `out`), so `cover[b][t]` for `t < b` is
/// relaxed from the contiguous row prefixes `d[m][0..b]` and mirrored onto
/// `cover[t][b]` — the same sums, operands swapped. The diagonal is left
/// `+∞`: a pair needs two distinct ends. Returns the matrix entries
/// relaxed.
pub fn cover_pairs(d: &[f64], n: usize, cover: &mut Vec<f64>) -> u64 {
    cover.clear();
    cover.resize(n * n, f64::INFINITY);
    let mut relaxed = 0;
    for (b, row) in cover.chunks_exact_mut(n.max(1)).enumerate() {
        for (m, &a) in d[b * n..(b + 1) * n].iter().enumerate() {
            if a > 0.0 && a != f64::INFINITY {
                relax_row_positive_legs(&mut row[..b], a, &d[m * n..m * n + b]);
                relaxed += b as u64;
            }
        }
    }
    mirror(cover, n);
    relaxed
}

// roadlint: end hot-path

/// Whether every open arc of the seeded `n x n` matrix `d` has a reverse
/// arc of [`Weight::approx_eq`] weight.
fn undirected_up_to_rounding(d: &[f64], n: usize) -> bool {
    (1..n).all(|i| (0..i).all(|j| Weight::new(d[i * n + j]).approx_eq(Weight::new(d[j * n + i]))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const INF: f64 = f64::INFINITY;

    fn csr(n: usize, edges: &[(u32, u32, f64)]) -> CsrGraph {
        let mut b = CsrBuilder::default();
        for &(u, v, w) in edges {
            b.push(u, v, Weight::new(w), 0);
            b.push(v, u, Weight::new(w), 0);
        }
        let mut g = CsrGraph::default();
        b.finish_into(n, &mut g);
        g
    }

    fn matrix(g: &CsrGraph, sealed: usize) -> Vec<f64> {
        let (mut elim, mut out) = (Elimination::default(), Vec::new());
        border_matrix(g, sealed, &mut elim, &mut out);
        out
    }

    #[test]
    fn interiors_are_eliminated_and_the_prefix_closed() {
        // 0 -1- 2 -1- 3 -1- 1, plus the direct arc 0 -5- 1: the interior
        // chain wins, and the matrix is over the two sealed nodes only.
        let g = csr(4, &[(0, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (0, 1, 5.0)]);
        assert_eq!(matrix(&g, 2), vec![0.0, 3.0, 3.0, 0.0]);
        // Sealing everything leaves only the closure: 0 -> 1 through 2, 3.
        let all = matrix(&g, 4);
        assert_eq!(all[1], 3.0);
        assert_eq!(all[3], 2.0);
    }

    #[test]
    fn the_kernels_count_the_entries_they_relax() {
        // The graph above: pivot 3 relaxes row 1 (one entry) and row 2
        // (two), pivot 2 row 1 (one); the closure of the two borders
        // relaxes row 1 through pivot 0 (one entry) and row 0 through
        // pivot 1 (none). The square kernels relax 6 + 4 and 2 + 2.
        let g = csr(4, &[(0, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (0, 1, 5.0)]);
        let (mut elim, mut out) = (Elimination::default(), Vec::new());
        assert_eq!(border_matrix(&g, 2, &mut elim, &mut out), 5);
        let mut cover = Vec::new();
        // Row 1 of the cover through its one positive first leg, which
        // finds no third border.
        assert_eq!(cover_pairs(&out, 2, &mut cover), 1);
        assert_eq!(cover, vec![INF; 4]);
        assert_eq!(close_arcs(2, [(0, 1, Weight::new(1.0))].into_iter(), &mut out), 2);
        assert_eq!(cover_row(&out, 2, 0, &mut cover[..2]), 2);
    }

    fn unpacked(elim: &mut Elimination, b: u32, t: u32) -> (f64, Vec<u32>) {
        let mut chain = Vec::new();
        let sum = elim.unpack(b, t, |k| chain.push(k));
        (sum, chain)
    }

    #[test]
    fn the_elimination_remembers_its_paths() {
        // The chain of the test above beside a shorter way through one more
        // interior node, 0 -½- 4 -½- 1.
        let g =
            csr(5, &[(0, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (0, 1, 5.0), (0, 4, 0.5), (4, 1, 0.5)]);
        let (mut elim, mut out) = (Elimination::default(), Vec::new());
        border_matrix(&g, 2, &mut elim, &mut out);
        assert_eq!(out, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(unpacked(&mut elim, 0, 1), (1.0, vec![4]));
        assert_eq!(
            (elim.pivot(0, 1), elim.pivot(1, 0), elim.pivot(0, 4)),
            (Some(4), Some(4), None)
        );
        // The same graph with that node third and sealed: the closure still
        // goes through it, a border-free path may not.
        let g =
            csr(5, &[(0, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0), (0, 1, 5.0), (0, 2, 0.5), (2, 1, 0.5)]);
        border_matrix(&g, 3, &mut elim, &mut out);
        assert_eq!(out[1], 1.0);
        assert_eq!(elim.border_free(0, 1), 3.0);
        assert_eq!(unpacked(&mut elim, 0, 1), (3.0, vec![3, 4]));
        assert_eq!(unpacked(&mut elim, 1, 0), (3.0, vec![4, 3]));
        assert_eq!(unpacked(&mut elim, 0, 2), (0.5, vec![]), "a seeded arc has no waypoint");
        // Without the interior chain and the direct arc only the sealed
        // node joins 0 and 1: closed distance 1, no border-free path.
        let g = csr(3, &[(0, 2, 0.5), (2, 1, 0.5)]);
        border_matrix(&g, 3, &mut elim, &mut out);
        assert_eq!(out[1], 1.0);
        assert_eq!(unpacked(&mut elim, 0, 1), (INF, vec![]));
    }

    #[test]
    fn of_two_equally_short_paths_the_last_strict_improvement_stays() {
        // 0 -> 1 through 2 or through 3, both 2 long. Pivot 3 goes first and
        // improves the pair; pivot 2 ties and is not recorded. (A Dijkstra
        // from 0 settles 2 before 3 and would say "through 2".)
        let g = csr(4, &[(0, 2, 1.0), (2, 1, 1.0), (0, 3, 1.0), (3, 1, 1.0)]);
        let (mut elim, mut out) = (Elimination::default(), Vec::new());
        border_matrix(&g, 2, &mut elim, &mut out);
        assert_eq!(unpacked(&mut elim, 0, 1), (2.0, vec![3]));
        // A zero-weight detour ties too, and is not taken: 0 -1- 2 -1- 1
        // stays, 2 -0- 3 leads nowhere shorter.
        let g = csr(4, &[(0, 2, 1.0), (2, 1, 1.0), (2, 3, 0.0), (3, 1, 1.0)]);
        border_matrix(&g, 2, &mut elim, &mut out);
        assert_eq!(unpacked(&mut elim, 0, 1), (2.0, vec![2]));
    }

    #[test]
    fn closed_arcs_self_loops_and_disconnected_pairs() {
        let mut b = CsrBuilder::default();
        b.push(0, 2, Weight::INFINITY, 0); // closed edge: no arc
        b.push(2, 0, Weight::INFINITY, 0);
        b.push(2, 1, Weight::new(1.0), 0);
        b.push(1, 2, Weight::new(1.0), 0);
        b.push(1, 1, Weight::new(4.0), 0); // self-loop: ignored
        let mut g = CsrGraph::default();
        b.finish_into(3, &mut g);
        assert_eq!(matrix(&g, 2), vec![0.0, INF, INF, 0.0]);
        // No sealed node, a single one, and the empty graph.
        assert!(matrix(&g, 0).is_empty());
        assert_eq!(matrix(&g, 1), vec![0.0]);
        assert!(matrix(&CsrGraph::default(), 0).is_empty());
    }

    /// A local graph with an arc one way only is not a graph the triangle
    /// may be given, and a debug build says so rather than keep a pair
    /// whose way back does not exist.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "one-way arc")]
    fn a_one_way_arc_fails_in_debug_builds() {
        let mut b = CsrBuilder::default();
        b.push(0, 2, Weight::new(1.0), 0);
        b.push(2, 0, Weight::new(1.0), 0);
        b.push(2, 1, Weight::new(1.0), 0);
        let mut g = CsrGraph::default();
        b.finish_into(3, &mut g);
        matrix(&g, 2);
    }

    /// Above a leaf the two directions of a pair may differ in the last
    /// bit. The kernels read the lower triangle, never write the upper one,
    /// and an unpacked path adds the arcs of the direction it travels.
    #[test]
    fn stored_sums_stay_directional() {
        let mut rng = StdRng::seed_from_u64(0xD1EC7);
        let (mut elim, mut out) = (Elimination::default(), Vec::new());
        let (mut bumped, mut unpacked_pairs) = (0, 0);
        for _ in 0..200 {
            let n = rng.random_range(2..=40usize);
            let mut arcs = vec![INF; n * n];
            let mut b = CsrBuilder::default();
            for _ in 0..rng.random_range(n..=4 * n) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u == v {
                    continue;
                }
                let w = rng.random_range(0.001..100.0f64);
                let back = if rng.random_range(0..3u32) == 0 { w.next_up() } else { w };
                bumped += usize::from(back != w);
                for (from, to, w) in [(u, v, w), (v, u, back)] {
                    b.push(from as u32, to as u32, Weight::new(w), 0);
                    arcs[from * n + to] = arcs[from * n + to].min(w);
                }
            }
            let mut g = CsrGraph::default();
            b.finish_into(n, &mut g);
            let sealed = rng.random_range(1..=n);
            border_matrix(&g, sealed, &mut elim, &mut out);
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(elim.dist[i * n + j].to_bits(), arcs[i * n + j].to_bits());
                }
            }
            for b in 0..sealed as u32 {
                for t in (0..sealed as u32).filter(|&t| t != b) {
                    let (sum, chain) = unpacked(&mut elim, b, t);
                    if elim.border_free(b, t) == INF {
                        continue;
                    }
                    let mut walked = 0.0;
                    let mut from = b as usize;
                    for &to in chain.iter().chain([&t]) {
                        assert!(to as usize >= sealed || to == t, "{chain:?} crosses a border");
                        walked += arcs[from * n + to as usize];
                        from = to as usize;
                    }
                    assert_eq!(walked.to_bits(), sum.to_bits(), "{b} -> {t} along {chain:?}");
                    assert!(Weight::new(sum).approx_eq(Weight::new(elim.border_free(b, t))));
                    unpacked_pairs += 1;
                }
            }
        }
        assert!(bumped > 500 && unpacked_pairs > 5_000, "{bumped} bumped, {unpacked_pairs} paths");
    }

    #[test]
    fn closing_an_arc_list_keeps_the_minimum_per_pair() {
        let arcs = [(0u32, 1u32, 4.0), (0, 1, 2.0), (1, 2, 1.0), (7, 0, 1.0)];
        let mut out = Vec::new();
        close_arcs(3, arcs.iter().map(|&(u, v, w)| (u, v, Weight::new(w))), &mut out);
        assert_eq!(out, vec![0.0, 2.0, 3.0, INF, 0.0, 1.0, INF, INF, 0.0]);
    }

    #[test]
    fn a_cover_needs_two_positive_legs() {
        // 0 and 1 at distance zero, both 5 away from 2.
        let d = [0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 5.0, 5.0, 0.0];
        let mut cover = vec![0.0; 3];
        cover_row(&d, 3, 0, &mut cover);
        // 0 -> 2 is not covered through 1 (first leg zero); 0 -> 1 would be
        // covered through 2 at 10, which is no cover of a zero distance.
        assert_eq!(cover, vec![10.0, 10.0, INF]);
        cover_row(&d, 3, 2, &mut cover);
        // 2 -> 0 through 1 has a zero second leg, and vice versa.
        assert_eq!(cover, vec![INF, INF, 10.0]);
        // Every pair at once: the same off the diagonal.
        let mut pairs = Vec::new();
        cover_pairs(&d, 3, &mut pairs);
        assert_eq!(pairs, vec![INF, 10.0, INF, 10.0, INF, INF, INF, INF, INF]);
        // With positive legs a tie still covers: 0 -1- 1 -1- 2, d(0, 2) = 2.
        let d = [0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0];
        cover_row(&d, 3, 0, &mut cover);
        assert_eq!(cover, vec![2.0, 3.0, 2.0]);
        cover_pairs(&d, 3, &mut pairs);
        assert_eq!(pairs, vec![INF, 3.0, 2.0, 3.0, INF, 3.0, 2.0, 3.0, INF]);
    }
}
