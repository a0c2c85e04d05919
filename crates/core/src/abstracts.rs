//! Object abstracts (Definition 2, Lemma 1).
//!
//! An object abstract summarises the objects inside an Rnet so a search can
//! decide — without descending — whether the Rnet may contain objects of
//! interest. The paper suggests aggregated values, Bloom filters or
//! signatures; the one representation here is **exact per-category
//! counts**, which (a) answer every filter our LDSQs use with no false
//! positives, and (b) support decrement-on-delete, keeping Lemma 1
//! (`O(R) = ⋃ O(R_i)`) true under object churn. It is also the only one the
//! disk-resident engine can serve: `PagedEngine` lays each abstract onto
//! its page as the sorted `(category, count)` pairs, and a lossy sketch has
//! no counts to lay out.

use crate::model::{CategoryId, ObjectFilter};

/// The abstract of one Rnet: how many of its objects fall in each
/// category.
#[derive(Clone, Debug, Default)]
pub struct ObjectAbstract {
    total: u32,
    /// `(category, count)` pairs, ascending category, no zero count: an
    /// Rnet holds a handful of categories, so a sorted vector beats a map.
    per_category: Vec<(u16, u32)>,
}

impl ObjectAbstract {
    /// Where `c` is in `per_category`, or where it would go.
    fn find(&self, c: CategoryId) -> Result<usize, usize> {
        self.per_category.binary_search_by_key(&c.0, |&(k, _)| k)
    }

    /// Records one object of `category`.
    pub fn insert(&mut self, category: CategoryId) {
        self.total += 1;
        match self.find(category) {
            Ok(i) => self.per_category[i].1 += 1,
            Err(i) => self.per_category.insert(i, (category.0, 1)),
        }
    }

    /// Removes one object of `category`.
    ///
    /// # Panics
    /// Panics (in debug builds) when removing from an empty abstract —
    /// that is always a directory bookkeeping bug.
    pub fn remove(&mut self, category: CategoryId) {
        debug_assert!(self.total > 0, "abstract underflow");
        self.total = self.total.saturating_sub(1);
        let Ok(i) = self.find(category) else {
            debug_assert!(false, "removing unknown category {category:?}");
            return;
        };
        self.per_category[i].1 -= 1;
        if self.per_category[i].1 == 0 {
            self.per_category.remove(i);
        }
    }

    /// Total number of objects summarised.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// `true` when no object is summarised.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// May the Rnet contain an object matching `filter`? Exact: `true`
    /// only when one does.
    pub fn may_match(&self, filter: &ObjectFilter) -> bool {
        if self.total == 0 {
            return false;
        }
        match filter {
            ObjectFilter::Any => true,
            ObjectFilter::Category(c) => self.may_have_category(*c),
            ObjectFilter::AnyOf(cs) => cs.iter().any(|&c| self.may_have_category(c)),
        }
    }

    fn may_have_category(&self, c: CategoryId) -> bool {
        self.per_category.iter().any(|&(k, _)| k == c.0)
    }

    /// Per-category counts in ascending category order. The paged engine
    /// lays these onto abstract records as they are.
    pub(crate) fn counts(&self) -> &[(u16, u32)] {
        &self.per_category
    }

    /// Exact count for a category.
    pub fn category_count(&self, c: CategoryId) -> u32 {
        self.find(c).map_or(0, |i| self.per_category[i].1)
    }

    /// Modelled serialized size in bytes (for the index-size experiments):
    /// a 4-byte total plus 6 bytes per distinct category.
    pub fn size_bytes(&self) -> usize {
        4 + self.per_category.len() * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_track_inserts_and_removes() {
        let mut a = ObjectAbstract::default();
        assert!(a.is_empty());
        a.insert(CategoryId(1));
        a.insert(CategoryId(1));
        a.insert(CategoryId(2));
        assert_eq!(a.total(), 3);
        assert_eq!(a.category_count(CategoryId(1)), 2);
        assert_eq!(a.category_count(CategoryId(3)), 0);
        assert_eq!(a.counts(), [(1, 2), (2, 1)]);
        assert!(a.may_match(&ObjectFilter::Category(CategoryId(2))));
        assert!(!a.may_match(&ObjectFilter::Category(CategoryId(3))));
        a.remove(CategoryId(2));
        assert!(!a.may_match(&ObjectFilter::Category(CategoryId(2))));
        assert!(a.may_match(&ObjectFilter::Any));
        a.remove(CategoryId(1));
        a.remove(CategoryId(1));
        assert!(a.is_empty());
        assert!(!a.may_match(&ObjectFilter::Any));
        assert!(a.counts().is_empty());
    }

    #[test]
    fn any_of_filters() {
        let mut a = ObjectAbstract::default();
        a.insert(CategoryId(5));
        assert!(a.may_match(&ObjectFilter::AnyOf(vec![CategoryId(4), CategoryId(5)])));
        assert!(!a.may_match(&ObjectFilter::AnyOf(vec![CategoryId(4)])));
        assert!(!a.may_match(&ObjectFilter::AnyOf(vec![])));
    }

    /// Removing one of a category's objects decrements its count and keeps
    /// it listed; removing its last one drops it from `counts`, so
    /// the paged layout never writes a zero count. The total and the other
    /// categories follow.
    #[test]
    fn removals_decrement_then_drop_a_category() {
        let mut a = ObjectAbstract::default();
        for c in [3u16, 1, 3, 2] {
            a.insert(CategoryId(c));
        }
        a.remove(CategoryId(3));
        assert_eq!((a.total(), a.category_count(CategoryId(3))), (3, 1));
        assert_eq!(a.counts(), [(1, 1), (2, 1), (3, 1)]);
        assert!(a.may_match(&ObjectFilter::Category(CategoryId(3))));
        a.remove(CategoryId(1));
        assert_eq!(a.total(), 2);
        assert_eq!(a.counts(), [(2, 1), (3, 1)]);
        assert!(!a.may_match(&ObjectFilter::Category(CategoryId(1))));
        assert!(a.may_match(&ObjectFilter::AnyOf(vec![CategoryId(1), CategoryId(2)])));
    }

    /// The paged engine writes `counts` onto its page as is, so the
    /// pairs come out in category order whatever order objects went in.
    #[test]
    fn counts_are_in_category_order() {
        let mut a = ObjectAbstract::default();
        for c in (0..300u16).rev().step_by(7) {
            for _ in 0..=c % 4 {
                a.insert(CategoryId(c));
            }
        }
        let counts = a.counts();
        assert_eq!(counts.len(), 43);
        assert!(counts.windows(2).all(|w| w[0].0 < w[1].0), "{counts:?}");
        assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u32>(), a.total());
        for &(c, n) in counts {
            assert_eq!(a.category_count(CategoryId(c)), n);
        }
    }

    /// A seeded interleaving of inserts and removes over categories that
    /// include both ends of `u16`, first met out of order: after every
    /// step the abstract answers what a `BTreeMap` of counts does.
    #[test]
    fn churn_matches_a_btreemap_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::BTreeMap;
        let pool = [u16::MAX, 7, 0, 300, 1, u16::MAX - 1, 42, 9];
        let absent = CategoryId(8);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut a, mut model) = (ObjectAbstract::default(), BTreeMap::<u16, u32>::new());
            for step in 0..600 {
                if model.is_empty() || rng.random_range(0..5u32) < 3 {
                    let c = pool[rng.random_range(0..pool.len())];
                    a.insert(CategoryId(c));
                    *model.entry(c).or_insert(0) += 1;
                } else {
                    let present: Vec<u16> = model.keys().copied().collect();
                    let c = present[rng.random_range(0..present.len())];
                    a.remove(CategoryId(c));
                    let n = model.get_mut(&c).unwrap();
                    *n -= 1;
                    if *n == 0 {
                        model.remove(&c);
                    }
                }
                let want: Vec<(u16, u32)> = model.iter().map(|(&c, &n)| (c, n)).collect();
                assert_eq!(a.counts(), want.as_slice(), "seed {seed}, step {step}");
                assert_eq!(a.total(), model.values().sum::<u32>());
                assert_eq!(a.size_bytes(), 4 + 6 * model.len());
                assert_eq!(a.may_match(&ObjectFilter::Any), !model.is_empty());
                for &c in &pool {
                    let (id, has) = (CategoryId(c), model.contains_key(&c));
                    assert_eq!(a.category_count(id), model.get(&c).copied().unwrap_or(0));
                    assert_eq!(a.may_match(&ObjectFilter::Category(id)), has);
                    assert_eq!(a.may_match(&ObjectFilter::AnyOf(vec![absent, id])), has);
                }
                let ends = ObjectFilter::AnyOf(vec![CategoryId(u16::MAX), CategoryId(0)]);
                let has_end = model.contains_key(&0) || model.contains_key(&u16::MAX);
                assert_eq!(a.may_match(&ends), has_end);
                assert!(!a.may_match(&ObjectFilter::Category(absent)));
            }
        }
    }

    #[test]
    fn size_model_grows_with_categories() {
        let mut a = ObjectAbstract::default();
        let empty = a.size_bytes();
        for c in 0..10u16 {
            a.insert(CategoryId(c));
        }
        assert_eq!(a.size_bytes(), empty + 10 * 6);
    }
}
