//! Connectivity-clustered node-to-page assignment (CCAM, ref \[18\]).
//!
//! Shekhar & Liu's CCAM stores network nodes so that nodes adjacent in the
//! graph tend to share a disk page, which makes network expansion touch far
//! fewer pages than random placement. The paper stores the node records of
//! *all* evaluated approaches this way.
//!
//! We implement the standard approximation: order nodes by a breadth-first
//! traversal (neighbours end up adjacent in the order) and pack records
//! into pages first-fit in that order. Records larger than a page span
//! multiple consecutive pages (Distance Index signatures routinely do).

use crate::page::PAGE_SIZE;
use road_network::graph::RoadNetwork;
use road_network::ids::NodeId;

/// Exact placement of one record: which pages it occupies and where its
/// bytes start. Small records sit at `offset` within their single page;
/// multi-page records always start at offset 0 of `page` and run
/// contiguously across `span` pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordLocation {
    /// First page of the record.
    pub page: u32,
    /// Number of consecutive pages spanned (>= 1 for non-empty records).
    pub span: u32,
    /// Byte offset of the record within its first page.
    pub offset: u32,
}

/// Result of clustering: where each node's record lives.
#[derive(Clone, Debug)]
pub struct NodeClustering {
    /// Per node: (first page, number of pages spanned, offset in page).
    locs: Vec<RecordLocation>,
    num_pages: u32,
    total_bytes: usize,
}

impl NodeClustering {
    /// Packs every node's record into pages along a BFS order.
    ///
    /// `record_size(n)` is the serialized size of node `n`'s record in
    /// bytes (adjacency lists, shortcut trees, signatures, ... — whatever
    /// the approach stores per node).
    pub fn build(g: &RoadNetwork, record_size: impl Fn(NodeId) -> usize) -> Self {
        let order = bfs_order(g);
        let mut locs = vec![RecordLocation { page: 0, span: 0, offset: 0 }; g.num_nodes()];
        let mut page = 0u32;
        let mut fill = 0usize;
        let mut total_bytes = 0usize;
        for n in order {
            let size = record_size(n);
            total_bytes += size;
            if size > PAGE_SIZE {
                // Multi-page record: starts on a fresh page.
                if fill > 0 {
                    page += 1;
                    fill = 0;
                }
                let span = size.div_ceil(PAGE_SIZE) as u32;
                locs[n.index()] = RecordLocation { page, span, offset: 0 };
                page += span;
            } else {
                if fill + size > PAGE_SIZE {
                    page += 1;
                    fill = 0;
                }
                locs[n.index()] = RecordLocation { page, span: 1, offset: fill as u32 };
                fill += size;
            }
        }
        let num_pages = if fill > 0 { page + 1 } else { page };
        NodeClustering { locs, num_pages, total_bytes }
    }

    /// `(first page, span)` of a node's record.
    #[inline]
    pub fn span_of(&self, n: NodeId) -> (u32, u32) {
        let loc = self.locs[n.index()];
        (loc.page, loc.span)
    }

    /// Exact placement of a node's record, including the byte offset within
    /// its first page — what a writer needs to lay the record's actual
    /// bytes onto [`crate::store::PageStore`] pages.
    #[inline]
    pub fn locate(&self, n: NodeId) -> RecordLocation {
        self.locs[n.index()]
    }

    /// Total pages used.
    pub fn num_pages(&self) -> usize {
        self.num_pages as usize
    }

    /// Sum of record sizes (before page rounding).
    pub fn payload_bytes(&self) -> usize {
        self.total_bytes
    }

    /// On-disk size (pages × 4 KB).
    pub fn size_bytes(&self) -> usize {
        self.num_pages() * PAGE_SIZE
    }
}

/// BFS order over the network, covering every component deterministically.
fn bfs_order(g: &RoadNetwork) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push_back(NodeId(start as u32));
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for (_, v) in g.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::generator::simple;

    #[test]
    fn packs_all_nodes_and_counts_pages() {
        let g = simple::grid(10, 10, 1.0);
        let c = NodeClustering::build(&g, |_| 100);
        // 40 records of 100 B fit one 4096 B page; 100 records -> 3 pages.
        assert_eq!(c.num_pages(), 3);
    }

    #[test]
    fn page_count_matches_first_fit() {
        let g = simple::chain(100, 1.0);
        let c = NodeClustering::build(&g, |_| 1000);
        // 4 records of 1000 B fit a page -> 25 pages.
        assert_eq!(c.num_pages(), 25);
        assert_eq!(c.payload_bytes(), 100_000);
        assert_eq!(c.size_bytes(), 25 * PAGE_SIZE);
    }

    #[test]
    fn adjacent_chain_nodes_share_pages() {
        let g = simple::chain(64, 1.0);
        let c = NodeClustering::build(&g, |_| 256); // 16 per page
        let mut co_located = 0;
        for e in g.edge_ids() {
            let (a, b) = g.edge(e).endpoints();
            if c.span_of(a).0 == c.span_of(b).0 {
                co_located += 1;
            }
        }
        // All but the page-boundary edges share a page.
        assert!(co_located >= 59, "only {co_located} of 63 edges co-located");
    }

    #[test]
    fn oversized_records_span_pages() {
        let g = simple::chain(3, 1.0);
        let c = NodeClustering::build(&g, |n| if n.0 == 1 { 10_000 } else { 64 });
        let (_, span) = c.span_of(NodeId(1));
        assert_eq!(span, 3); // ceil(10000 / 4096)
        assert!(c.num_pages() >= 4);
    }

    #[test]
    fn locations_are_disjoint_and_in_bounds() {
        let g = simple::grid(8, 8, 1.0);
        let size = |n: NodeId| 200 + (n.0 as usize * 131) % 1100;
        let c = NodeClustering::build(&g, size);
        // Every record occupies its own byte range; collect and sort the
        // absolute ranges and check for overlap.
        let mut ranges: Vec<(usize, usize)> = g
            .node_ids()
            .map(|n| {
                let loc = c.locate(n);
                let start = loc.page as usize * PAGE_SIZE + loc.offset as usize;
                (start, start + size(n))
            })
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "records overlap: {:?} vs {:?}", w[0], w[1]);
        }
        for n in g.node_ids() {
            let loc = c.locate(n);
            assert!((loc.offset as usize) < PAGE_SIZE);
            if loc.span == 1 {
                assert!(loc.offset as usize + size(n) <= PAGE_SIZE, "single-page record leaks");
            } else {
                assert_eq!(loc.offset, 0, "multi-page records start page-aligned");
            }
            assert!((loc.page + loc.span) as usize <= c.num_pages());
        }
    }

    #[test]
    fn variable_sizes_never_overflow_pages() {
        let g = simple::grid(8, 8, 1.0);
        let size = |n: NodeId| 300 + (n.0 as usize * 97) % 900;
        let c = NodeClustering::build(&g, size);
        // Recompute fill per page and assert <= PAGE_SIZE.
        let mut fill = road_network::hash::FastMap::default();
        for n in g.node_ids() {
            let (p, span) = c.span_of(n);
            if span == 1 {
                *fill.entry(p).or_insert(0usize) += size(n);
            }
        }
        for (&p, &f) in fill.sorted() {
            assert!(f <= PAGE_SIZE, "page {p} overfilled: {f}");
        }
    }
}
