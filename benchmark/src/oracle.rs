//! The reference every answer is checked against: brute-force network
//! expansion with plain Dijkstra (`road_network::dijkstra` only — no
//! shortcuts, no abstracts, nothing from the code under test).

use crate::world::{Op, Query, METRIC};
use road_core::{Object, ObjectFilter, ObjectId, SearchHit};
use road_network::dijkstra::{Control, Dijkstra};
use road_network::{NodeId, RoadNetwork, Weight};

pub struct Oracle<'a> {
    net: &'a RoadNetwork,
    objects: &'a [Object],
    /// Per node, the objects on its incident edges (indices into `objects`).
    at_node: Vec<Vec<u32>>,
    dij: Dijkstra,
    /// Nodes settled over every answer so far.
    pub settled: u64,
}

impl<'a> Oracle<'a> {
    pub fn new(net: &'a RoadNetwork, objects: &'a [Object]) -> Oracle<'a> {
        let mut at_node = vec![Vec::new(); net.num_nodes()];
        for (i, o) in objects.iter().enumerate() {
            let (a, b) = net.edge(o.edge).endpoints();
            at_node[a.0 as usize].push(i as u32);
            if b != a {
                at_node[b.0 as usize].push(i as u32);
            }
        }
        Oracle { net, objects, at_node, dij: Dijkstra::for_network(net), settled: 0 }
    }

    /// The exact answer to `op`: hits ascending by (distance, object id).
    pub fn answer(&mut self, op: &Op) -> Vec<SearchHit> {
        match &op.query {
            Query::Knn(q) => self.expand(q.node, &q.filter, Some(q.k), q.max_distance),
            Query::Range(q) => self.expand(q.node, &q.filter, None, Some(q.radius)),
        }
    }

    pub fn answers(&mut self, ops: &[Op]) -> Vec<Vec<SearchHit>> {
        ops.iter().map(|op| self.answer(op)).collect()
    }

    fn expand(
        &mut self,
        source: NodeId,
        filter: &ObjectFilter,
        k: Option<usize>,
        radius: Option<Weight>,
    ) -> Vec<SearchHit> {
        let (net, objects, at_node) = (self.net, self.objects, &self.at_node);
        // Best total distance per object found so far, unordered.
        let mut best: Vec<(ObjectId, Weight)> = Vec::new();
        // Upper bound on the k-th answer distance once k objects are known.
        let mut kth = Weight::INFINITY;
        self.dij.expand(net, METRIC, source, |n, d| {
            // Every object still to be found or improved lies at >= d.
            if radius.is_some_and(|r| d > r) || d > kth {
                return Control::Break;
            }
            let mut improved = false;
            for &i in &at_node[n.0 as usize] {
                let o = &objects[i as usize];
                if !filter.matches(o) {
                    continue;
                }
                let total = d + o.offset_from(net, METRIC, n);
                match best.iter_mut().find(|(id, _)| *id == o.id) {
                    Some((_, cur)) if total < *cur => *cur = total,
                    Some(_) => continue,
                    None => best.push((o.id, total)),
                }
                improved = true;
            }
            if let (true, Some(k)) = (improved, k) {
                if best.len() >= k && k > 0 {
                    let mut dists: Vec<Weight> = best.iter().map(|&(_, w)| w).collect();
                    dists.sort_unstable();
                    kth = dists[k - 1];
                }
            }
            Control::Continue
        });
        self.settled += self.dij.settled() as u64;
        let mut hits: Vec<SearchHit> = best
            .into_iter()
            .filter(|&(_, d)| radius.is_none_or(|r| d <= r))
            .map(|(object, distance)| SearchHit { object, distance })
            .collect();
        hits.sort_by(|a, b| a.distance.cmp(&b.distance).then(a.object.cmp(&b.object)));
        if let Some(k) = k {
            hits.truncate(k);
        }
        hits
    }
}

/// Whether an engine's hit list is the oracle's: same objects in the same
/// order, distances equal up to the rounding that summing a path in a
/// different order introduces.
pub fn hits_match(got: &[SearchHit], want: &[SearchHit]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.object == w.object && g.distance.approx_eq(w.distance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_world, stream, Kind};
    use road_core::search::{oracle_knn, oracle_range};
    use road_core::{AssociationDirectory, RoadFramework};

    /// The early-terminating oracle agrees with the crates' exhaustive one.
    #[test]
    fn agrees_with_exhaustive_expansion() {
        let w = build_world(11);
        let ops = stream(&w.net, 11, 60);
        let fw = RoadFramework::builder(w.net.clone()).fanout(2).levels(2).build().unwrap();
        let mut ad = AssociationDirectory::new(fw.hierarchy());
        for o in &w.objects {
            ad.insert(fw.network(), fw.hierarchy(), o.clone()).unwrap();
        }
        let mut oracle = Oracle::new(&w.net, &w.objects);
        for op in &ops {
            let want = match &op.query {
                Query::Knn(q) => oracle_knn(&fw, &ad, q),
                Query::Range(q) => oracle_range(&fw, &ad, q),
            };
            let got = oracle.answer(op);
            assert!(hits_match(&got, &want), "{:?}: {got:?} vs {want:?}", op.kind);
            if op.kind == Kind::Knn20 {
                assert_eq!(got.len(), 20);
            }
        }
        assert!(oracle.settled > 0);
    }

    #[test]
    fn a_corrupted_hit_list_does_not_match() {
        let hit = |o, d| SearchHit { object: ObjectId(o), distance: Weight::new(d) };
        let want = vec![hit(1, 1.0), hit(2, 2.0)];
        assert!(hits_match(&[hit(1, 1.0 + 1e-13), hit(2, 2.0)], &want));
        assert!(!hits_match(&[hit(1, 1.0)], &want));
        assert!(!hits_match(&[hit(2, 1.0), hit(1, 2.0)], &want));
        assert!(!hits_match(&[hit(1, 1.0), hit(2, 2.1)], &want));
    }
}
