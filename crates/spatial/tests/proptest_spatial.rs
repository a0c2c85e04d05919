//! Property tests for the spatial substrates.

use proptest::prelude::*;
use road_network::geometry::Point;
use road_spatial::RTree;

fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk-loaded R-trees answer kNN exactly like brute force.
    #[test]
    fn rtree_bulk_knn_exact(pts in points_strategy(),
                            qx in 0.0f64..1000.0, qy in 0.0f64..1000.0,
                            k in 1usize..12) {
        let entries: Vec<(Point, u64)> = pts.iter().enumerate()
            .map(|(i, &(x, y))| (Point::new(x, y), i as u64)).collect();
        let tree = RTree::bulk_load(&entries, 8);
        tree.validate().unwrap();
        let q = Point::new(qx, qy);
        let got: Vec<f64> = tree.nearest(q).take(k).map(|(_, d)| d).collect();
        let mut want: Vec<f64> = entries.iter().map(|&(p, _)| p.distance(q)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "{} vs {}", g, w);
        }
    }

    /// Arbitrary insert/remove interleavings keep the tree valid and the
    /// range query exact.
    #[test]
    fn rtree_churn_stays_exact(ops in prop::collection::vec((0u8..3, 0.0f64..100.0, 0.0f64..100.0), 1..80),
                               radius in 1.0f64..60.0) {
        let mut tree = RTree::new(5);
        let mut alive: Vec<(Point, u64)> = Vec::new();
        let mut next = 0u64;
        for (op, x, y) in ops {
            if op < 2 || alive.is_empty() {
                let p = Point::new(x, y);
                tree.insert(p, next);
                alive.push((p, next));
                next += 1;
            } else {
                let i = (x as usize) % alive.len();
                let (p, id) = alive.swap_remove(i);
                prop_assert!(tree.remove(p, id));
            }
        }
        tree.validate().unwrap();
        prop_assert_eq!(tree.len(), alive.len());
        let q = Point::new(50.0, 50.0);
        let (mut got, _) = tree.range(q, radius);
        got.sort_by_key(|&(id, _)| id);
        let mut want: Vec<u64> = alive.iter()
            .filter(|&&(p, _)| p.distance(q) <= radius).map(|&(_, id)| id).collect();
        want.sort_unstable();
        prop_assert_eq!(got.into_iter().map(|(id, _)| id).collect::<Vec<_>>(), want);
    }
}
