//! Spatial objects and query predicates.
//!
//! Section 3.1 of the paper: objects reside on edges; an object `o` on edge
//! `(n, n')` has distances `δ(o, n)` and `δ(o, n')` to the endpoints, and an
//! attribute predicate `A` filters which objects a query is interested in.
//! We place objects at a *fraction* `t ∈ [0, 1]` of the edge so `δ` is
//! defined consistently under every weight metric (`δ(o,n) = t·|n,n'|`).

use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, NodeId, Point, Weight};
use std::fmt;

/// Identifier of a spatial object; unique within one directory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Object category (restaurant, hotel, bus station, ...). The paper's
/// attribute predicates (e.g. `o.type = 'seafood'`) are modelled as
/// categories, which is what object abstracts summarise.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CategoryId(pub u16);

impl fmt::Debug for CategoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cat{}", self.0)
    }
}

/// A spatial object living on a network edge.
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// Unique id.
    pub id: ObjectId,
    /// The edge the object resides on.
    pub edge: EdgeId,
    /// Position along the edge: 0 at the first endpoint, 1 at the second.
    pub fraction: f64,
    /// The object's category (attribute).
    pub category: CategoryId,
}

impl Object {
    /// Creates an object at fraction `t` of `edge`.
    pub fn new(id: ObjectId, edge: EdgeId, fraction: f64, category: CategoryId) -> Self {
        Object { id, edge, fraction, category }
    }

    /// `δ(o, n)` — the object's offset from endpoint `n` of its edge under
    /// the given metric. An object at an endpoint sits on it: its offset
    /// from that endpoint is zero even when the edge is closed (weight
    /// `+∞`, where the product would be NaN).
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of the object's edge.
    pub fn offset_from(&self, g: &RoadNetwork, kind: WeightKind, n: NodeId) -> Weight {
        let (a, b) = g.edge(self.edge).endpoints();
        let w = g.weight(self.edge, kind).get();
        let share = if n == a {
            self.fraction
        } else {
            assert_eq!(n, b, "{n} is not an endpoint of {:?}", self.edge);
            1.0 - self.fraction
        };
        Weight::new(if share == 0.0 { 0.0 } else { w * share })
    }

    /// The object's planar position (interpolated along its edge).
    pub fn position(&self, g: &RoadNetwork) -> Point {
        let (a, b) = g.edge(self.edge).endpoints();
        g.coord(a).lerp(g.coord(b), self.fraction)
    }
}

/// The attribute predicate `A` of an LDSQ.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ObjectFilter {
    /// Accept every object.
    #[default]
    Any,
    /// Accept only the given category.
    Category(CategoryId),
    /// Accept any of the listed categories.
    AnyOf(Vec<CategoryId>),
}

impl ObjectFilter {
    /// Does `object` satisfy the predicate?
    #[inline]
    pub fn matches(&self, object: &Object) -> bool {
        match self {
            ObjectFilter::Any => true,
            ObjectFilter::Category(c) => object.category == *c,
            ObjectFilter::AnyOf(cs) => cs.contains(&object.category),
        }
    }

    /// Does the predicate accept the given category?
    #[inline]
    pub fn accepts_category(&self, category: CategoryId) -> bool {
        match self {
            ObjectFilter::Any => true,
            ObjectFilter::Category(c) => *c == category,
            ObjectFilter::AnyOf(cs) => cs.contains(&category),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::geometry::Point;

    fn two_node_net() -> (RoadNetwork, EdgeId) {
        let mut b = RoadNetwork::builder();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let e = b.add_edge(a, c, 20.0).unwrap();
        (b.build(), e)
    }

    #[test]
    fn offsets_split_the_edge_weight() {
        let (g, e) = two_node_net();
        let o = Object::new(ObjectId(1), e, 0.25, CategoryId(0));
        assert_eq!(o.offset_from(&g, WeightKind::Distance, NodeId(0)), Weight::new(5.0));
        assert_eq!(o.offset_from(&g, WeightKind::Distance, NodeId(1)), Weight::new(15.0));
        let total = o.offset_from(&g, WeightKind::Distance, NodeId(0))
            + o.offset_from(&g, WeightKind::Distance, NodeId(1));
        assert_eq!(total, g.weight(e, WeightKind::Distance));
    }

    #[test]
    fn an_object_at_an_endpoint_of_a_closed_edge_sits_on_it() {
        let (mut g, e) = two_node_net();
        g.set_weight(e, WeightKind::Distance, Weight::INFINITY).unwrap();
        for (fraction, on) in [(0.0, NodeId(0)), (1.0, NodeId(1))] {
            let o = Object::new(ObjectId(1), e, fraction, CategoryId(0));
            let far = NodeId(1 - on.0);
            assert_eq!(o.offset_from(&g, WeightKind::Distance, on), Weight::ZERO);
            assert_eq!(o.offset_from(&g, WeightKind::Distance, far), Weight::INFINITY);
        }
    }

    #[test]
    fn position_interpolates() {
        let (g, e) = two_node_net();
        let o = Object::new(ObjectId(1), e, 0.5, CategoryId(0));
        assert_eq!(o.position(&g), Point::new(5.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn offset_from_foreign_node_panics() {
        let (g, e) = two_node_net();
        let mut b2 = RoadNetwork::builder();
        b2.add_node(Point::new(0.0, 0.0));
        let o = Object::new(ObjectId(1), e, 0.5, CategoryId(0));
        let _ = o.offset_from(&g, WeightKind::Distance, NodeId(7));
    }

    #[test]
    fn filters() {
        let (_, e) = two_node_net();
        let o = Object::new(ObjectId(1), e, 0.5, CategoryId(3));
        assert!(ObjectFilter::Any.matches(&o));
        assert!(ObjectFilter::Category(CategoryId(3)).matches(&o));
        assert!(!ObjectFilter::Category(CategoryId(4)).matches(&o));
        assert!(ObjectFilter::AnyOf(vec![CategoryId(1), CategoryId(3)]).matches(&o));
        assert!(!ObjectFilter::AnyOf(vec![]).matches(&o));
        assert!(ObjectFilter::Any.accepts_category(CategoryId(9)));
    }
}
