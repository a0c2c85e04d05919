//! The Association Directory (Section 3.4, Figure 7).
//!
//! The directory maps node ids to the objects on their incident edges
//! (with offsets) and Rnet ids to object abstracts — cleanly separated
//! from the Route Overlay, which is the framework's headline design
//! property: map providers maintain the network, content providers map
//! their objects onto it on the fly, and several directories (one per
//! object type) can coexist over one overlay.
//!
//! Object insertion and deletion (Section 5.1) touch only this structure:
//! the node associations of the edge's endpoints and the abstracts of the
//! enclosing Rnet chain, `O(l)` work per update.
//!
//! The directory is copy-on-write by the shard, so the live engine can
//! publish it every tick (`crate::live`): the objects sit in
//! [`OBJECT_SHARDS`] maps by the low bits of their id, the per-node and
//! per-edge object lists in one map per range of [`LIST_SHARD`] ids, and
//! the abstracts in chunks of [`ABSTRACT_CHUNK`] Rnets — each shard or
//! chunk behind its own `Arc`, all of them [`CowChunks`] columns. A clone
//! is one pointer per shard and chunk; an object update then copies the
//! shards and chunks it writes, a few maps of a handful of entries each,
//! and every other one stays shared
//! ([`AssociationDirectory::shared_shards`]).

use crate::abstracts::ObjectAbstract;
use crate::hierarchy::{RnetHierarchy, RnetId};
use crate::model::{CategoryId, Object, ObjectFilter, ObjectId};
use crate::RoadError;
use road_network::graph::RoadNetwork;
use road_network::hash::FastMap;
use road_network::{CowChunks, EdgeId, NodeId};

/// Maps of the object table, each holding the objects whose id has its
/// index in the low bits. Ids are arbitrary `u64`s, so the table cannot be
/// cut by id range the way the lists are.
pub const OBJECT_SHARDS: usize = 64;
/// Node (or edge) ids per shard of the object lists.
pub const LIST_SHARD: usize = 1 << LIST_SHARD_SHIFT;
const LIST_SHARD_SHIFT: u32 = 10;
/// Rnet abstracts per copy-on-write chunk.
pub const ABSTRACT_CHUNK: usize = 1 << ABSTRACT_CHUNK_SHIFT;
const ABSTRACT_CHUNK_SHIFT: u32 = 3;

/// The objects listed per node (or per edge) id, sharded by id range:
/// shard `id >> LIST_SHARD_SHIFT` is one map behind its own `Arc`, and a
/// list leaves its map when its last object does.
#[derive(Clone)]
struct Lists {
    /// Hashed: a shard holds lists for the few of its ids carrying objects.
    shards: CowChunks<FastMap<u32, Vec<ObjectId>>>,
}

impl Lists {
    fn new() -> Self {
        Lists { shards: CowChunks::new(0) }
    }

    fn shard_of(id: u32) -> usize {
        (id >> LIST_SHARD_SHIFT) as usize
    }

    fn get(&self, id: u32) -> &[ObjectId] {
        let list = self.shards.get(Self::shard_of(id)).and_then(|shard| shard.get(&id));
        list.map_or(&[], Vec::as_slice)
    }

    fn push(&mut self, id: u32, object: ObjectId) {
        let shard = Self::shard_of(id);
        while self.shards.len() <= shard {
            self.shards.push(FastMap::default());
        }
        if let Some(map) = self.shards.make_mut(shard) {
            map.entry(id).or_default().push(object);
        }
    }

    fn remove(&mut self, id: u32, object: ObjectId) {
        if let Some(map) = self.shards.make_mut(Self::shard_of(id)) {
            if let Some(list) = map.get_mut(&id) {
                list.retain(|&o| o != object);
                if list.is_empty() {
                    map.remove(&id);
                }
            }
        }
    }

    /// Every non-empty list with its id, by ascending id (a shard holds
    /// one id range).
    fn iter(&self) -> impl Iterator<Item = (u32, &Vec<ObjectId>)> {
        self.shards.iter().flat_map(FastMap::sorted).map(|(&id, list)| (id, list))
    }
}

/// An object directory over one Rnet hierarchy.
///
/// `Clone` is a fork: one pointer per shard and chunk (see the module
/// docs), after which either copy writes only the shards it touches — the
/// live engine forks its writer's directory at every publish that changed
/// an object, and a network-side update never touches it.
#[derive(Clone)]
pub struct AssociationDirectory {
    len: usize,
    /// Hashed: keyed by `ObjectId`, a sparse user-chosen `u64`.
    objects: CowChunks<FastMap<u64, Object>>,
    node_objects: Lists,
    edge_objects: Lists,
    abstracts: CowChunks<ObjectAbstract>,
}

impl AssociationDirectory {
    /// An empty directory sized for `hier`.
    pub fn new(hier: &RnetHierarchy) -> Self {
        AssociationDirectory {
            len: 0,
            objects: CowChunks::from_vec(vec![FastMap::default(); OBJECT_SHARDS], 0),
            node_objects: Lists::new(),
            edge_objects: Lists::new(),
            abstracts: CowChunks::from_vec(
                vec![ObjectAbstract::default(); hier.num_rnets()],
                ABSTRACT_CHUNK_SHIFT,
            ),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the directory holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn object_shard(id: ObjectId) -> usize {
        (id.0 % OBJECT_SHARDS as u64) as usize
    }

    /// Looks an object up by id.
    pub fn object(&self, id: ObjectId) -> Option<&Object> {
        self.objects.get(Self::object_shard(id))?.get(&id.0)
    }

    /// Iterates all objects, shard by shard, each shard in its hash order.
    #[expect(
        clippy::disallowed_methods,
        reason = "an engine reopened from this walk (PagedEngine::open) files its objects in this order, and the pinned images and counters were recorded on it"
    )]
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.iter().flat_map(|shard| shard.hash_order().map(|(_, o)| o))
    }

    /// Inserts an object (Section 5.1): associates it with both endpoint
    /// nodes and bumps the abstracts of its Rnet chain.
    pub fn insert(
        &mut self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        object: Object,
    ) -> Result<(), RoadError> {
        if self.object(object.id).is_some() {
            return Err(RoadError::DuplicateObject(object.id));
        }
        if object.edge.index() >= g.edge_slots() || g.edge(object.edge).is_deleted() {
            return Err(RoadError::EdgeUnavailable(object.edge));
        }
        if !(object.fraction.is_finite() && (0.0..=1.0).contains(&object.fraction)) {
            return Err(RoadError::BadPlacement(format!(
                "fraction {} outside [0, 1]",
                object.fraction
            )));
        }
        let leaf = hier.leaf_of_edge(object.edge);
        if !leaf.is_valid() {
            return Err(RoadError::BadPlacement(format!(
                "edge {} is not assigned to any Rnet",
                object.edge
            )));
        }
        let (a, b) = g.edge(object.edge).endpoints();
        self.node_objects.push(a.0, object.id);
        self.node_objects.push(b.0, object.id);
        self.edge_objects.push(object.edge.0, object.id);
        self.update_chain(hier, leaf, |a| a.insert(object.category));
        if let Some(shard) = self.objects.make_mut(Self::object_shard(object.id)) {
            shard.insert(object.id.0, object);
            self.len += 1;
        }
        Ok(())
    }

    /// Removes an object (Section 5.1), returning it.
    pub fn remove(
        &mut self,
        g: &RoadNetwork,
        hier: &RnetHierarchy,
        id: ObjectId,
    ) -> Result<Object, RoadError> {
        if self.object(id).is_none() {
            return Err(RoadError::UnknownObject(id));
        }
        let object = self
            .objects
            .make_mut(Self::object_shard(id))
            .and_then(|shard| shard.remove(&id.0))
            .ok_or(RoadError::UnknownObject(id))?;
        self.len -= 1;
        let (a, b) = g.edge(object.edge).endpoints();
        self.node_objects.remove(a.0, id);
        self.node_objects.remove(b.0, id);
        self.edge_objects.remove(object.edge.0, id);
        self.update_chain(hier, hier.leaf_of_edge(object.edge), |a| a.remove(object.category));
        Ok(object)
    }

    /// Updates an object's category attribute in place (the paper's
    /// "changes of object attributes" case).
    pub fn update_category(
        &mut self,
        hier: &RnetHierarchy,
        id: ObjectId,
        category: CategoryId,
    ) -> Result<CategoryId, RoadError> {
        let object = self.object(id).ok_or(RoadError::UnknownObject(id))?;
        let (old, edge) = (object.category, object.edge);
        if old == category {
            return Ok(old);
        }
        if let Some(object) =
            self.objects.make_mut(Self::object_shard(id)).and_then(|shard| shard.get_mut(&id.0))
        {
            object.category = category;
        }
        self.update_chain(hier, hier.leaf_of_edge(edge), |a| {
            a.remove(old);
            a.insert(category);
        });
        Ok(old)
    }

    /// Applies `update` to the abstract of `leaf` and of every ancestor.
    fn update_chain(
        &mut self,
        hier: &RnetHierarchy,
        leaf: RnetId,
        mut update: impl FnMut(&mut ObjectAbstract),
    ) {
        let mut r = leaf;
        while r.is_valid() {
            if let Some(a) = self.abstracts.make_mut(r.0 as usize) {
                update(a);
            }
            r = hier.parent(r);
        }
    }

    /// Objects associated with node `n` (those on its incident edges).
    pub fn objects_at_node(&self, n: NodeId) -> impl Iterator<Item = &Object> {
        self.node_objects.get(n.0).iter().filter_map(|&id| self.object(id))
    }

    /// `true` when some object is associated with node `n`.
    pub fn node_has_objects(&self, n: NodeId) -> bool {
        !self.node_objects.get(n.0).is_empty()
    }

    /// Objects on edge `e`.
    pub fn objects_on_edge(&self, e: EdgeId) -> impl Iterator<Item = &Object> {
        self.edge_objects.get(e.0).iter().filter_map(|&id| self.object(id))
    }

    /// The abstract of an Rnet, or `None` when `r` is not an Rnet of the
    /// directory's hierarchy.
    pub fn abstract_of(&self, r: RnetId) -> Option<&ObjectAbstract> {
        self.abstracts.get(r.0 as usize)
    }

    /// SearchObject against an Rnet: may it contain objects matching the
    /// filter? (Figure 10, line 7.) An `r` past the directory's Rnets —
    /// the directory was built for another hierarchy — is an error.
    #[inline]
    pub fn rnet_may_match(&self, r: RnetId, filter: &ObjectFilter) -> Result<bool, RoadError> {
        match self.abstract_of(r) {
            Some(a) => Ok(a.may_match(filter)),
            None => Err(self.foreign_rnet(r)),
        }
    }

    /// The error for an Rnet id the directory has no abstract for.
    pub(crate) fn foreign_rnet(&self, r: RnetId) -> RoadError {
        RoadError::InvalidConfig(format!(
            "R{} is outside the directory's {} Rnets: it was built for another hierarchy",
            r.0,
            self.abstracts.len()
        ))
    }

    /// Count of stored objects matching `filter` (exact, full scan).
    pub fn matching_count(&self, filter: &ObjectFilter) -> usize {
        self.objects().filter(|o| filter.matches(o)).count()
    }

    /// Modelled serialized size in bytes: per-node associations (node id +
    /// object id + offset per entry) plus non-empty Rnet abstracts — the
    /// quantities Figure 13/14 charge to ROAD's object side.
    pub fn size_bytes(&self) -> usize {
        let (nodes, node_entries) =
            self.node_objects.iter().fold((0, 0), |(n, e), (_, list)| (n + 1, e + list.len()));
        let node_bytes = node_entries * 20 + nodes * 8;
        let abstract_bytes: usize =
            self.abstracts.iter().filter(|a| !a.is_empty()).map(|a| a.size_bytes() + 8).sum();
        node_bytes + abstract_bytes
    }

    /// How many of its shards and chunks — object maps, list maps,
    /// abstract chunks — this directory physically shares with `other`,
    /// position by position: a fork shares all of them, and an object
    /// update un-shares the ones it writes (see the module docs).
    pub fn shared_shards(&self, other: &AssociationDirectory) -> usize {
        self.objects.shared_chunks(&other.objects)
            + self.node_objects.shards.shared_chunks(&other.node_objects.shards)
            + self.edge_objects.shards.shared_chunks(&other.edge_objects.shards)
            + self.abstracts.shared_chunks(&other.abstracts)
    }

    /// Bytes of shards and chunks copied to un-share them from the
    /// directory's clones, over its whole history (a map's own entries are
    /// cloned with it and not counted; [`road_network::cow`]).
    pub(crate) fn bytes_copied(&self) -> u64 {
        self.objects.bytes_copied()
            + self.node_objects.shards.bytes_copied()
            + self.edge_objects.shards.bytes_copied()
            + self.abstracts.bytes_copied()
    }

    /// Checks Lemma 1 (`O(R) = ⋃ O(R_i)`) and association consistency
    /// against a from-scratch recount. Test helper.
    pub fn validate(&self, g: &RoadNetwork, hier: &RnetHierarchy) -> Result<(), String> {
        // Recount abstract totals per Rnet.
        let mut totals = vec![0u32; hier.num_rnets()];
        for o in self.objects() {
            let mut r = hier.leaf_of_edge(o.edge);
            while r.is_valid() {
                totals[r.0 as usize] += 1;
                r = hier.parent(r);
            }
        }
        for (i, a) in self.abstracts.iter().enumerate() {
            if a.total() != totals[i] {
                return Err(format!("abstract R{i}: total {} != recount {}", a.total(), totals[i]));
            }
        }
        // Node associations match edge endpoints.
        for o in self.objects() {
            let (a, b) = g.edge(o.edge).endpoints();
            for n in [a, b] {
                if !self.node_objects.get(n.0).contains(&o.id) {
                    return Err(format!("{:?} missing from node {n} association", o.id));
                }
            }
        }
        // No dangling or empty associations.
        for (n, list) in self.node_objects.iter() {
            if list.is_empty() {
                return Err(format!("node {n} keeps an empty association"));
            }
            for &id in list {
                if self.object(id).is_none() {
                    return Err(format!("node {n} references deleted {id:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use road_network::generator::simple;

    fn setup() -> (RoadNetwork, RnetHierarchy) {
        let g = simple::grid(8, 8, 1.0);
        let hier = RnetHierarchy::build(&g, &HierarchyConfig::default()).unwrap();
        (g, hier)
    }

    fn obj(id: u64, e: EdgeId, cat: u16) -> Object {
        Object::new(ObjectId(id), e, 0.5, CategoryId(cat))
    }

    #[test]
    fn insert_remove_roundtrip_and_lemma1() {
        let (g, hier) = setup();
        let mut ad = AssociationDirectory::new(&hier);
        let edges: Vec<EdgeId> = g.edge_ids().take(10).collect();
        for (i, &e) in edges.iter().enumerate() {
            ad.insert(&g, &hier, obj(i as u64, e, (i % 3) as u16)).unwrap();
        }
        assert_eq!(ad.len(), 10);
        ad.validate(&g, &hier).unwrap();
        // Level-1 abstracts must sum to the object count (Lemma 1).
        let total: u32 = hier.rnets_at_level(1).map(|r| ad.abstract_of(r).unwrap().total()).sum();
        assert_eq!(total, 10);
        for i in 0..10u64 {
            let o = ad.remove(&g, &hier, ObjectId(i)).unwrap();
            assert_eq!(o.id, ObjectId(i));
        }
        assert!(ad.is_empty());
        ad.validate(&g, &hier).unwrap();
        assert!(hier.rnets_at_level(1).all(|r| ad.abstract_of(r).unwrap().is_empty()));
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let (g, hier) = setup();
        let mut ad = AssociationDirectory::new(&hier);
        let e = g.edge_ids().next().unwrap();
        ad.insert(&g, &hier, obj(1, e, 0)).unwrap();
        assert!(matches!(ad.insert(&g, &hier, obj(1, e, 0)), Err(RoadError::DuplicateObject(_))));
        assert!(matches!(ad.remove(&g, &hier, ObjectId(9)), Err(RoadError::UnknownObject(_))));
    }

    #[test]
    fn bad_placements_error() {
        let (g, hier) = setup();
        let mut ad = AssociationDirectory::new(&hier);
        let e = g.edge_ids().next().unwrap();
        let mut o = obj(1, e, 0);
        o.fraction = 1.5;
        assert!(matches!(ad.insert(&g, &hier, o), Err(RoadError::BadPlacement(_))));
        let mut o = obj(2, e, 0);
        o.fraction = f64::NAN;
        assert!(matches!(ad.insert(&g, &hier, o), Err(RoadError::BadPlacement(_))));
        let o = obj(3, EdgeId(9999), 0);
        assert!(matches!(ad.insert(&g, &hier, o), Err(RoadError::EdgeUnavailable(_))));
    }

    #[test]
    fn node_and_edge_associations() {
        let (g, hier) = setup();
        let mut ad = AssociationDirectory::new(&hier);
        let e = g.edge_ids().next().unwrap();
        let (a, b) = g.edge(e).endpoints();
        ad.insert(&g, &hier, obj(1, e, 0)).unwrap();
        ad.insert(&g, &hier, obj(2, e, 1)).unwrap();
        assert_eq!(ad.objects_at_node(a).count(), 2);
        assert_eq!(ad.objects_at_node(b).count(), 2);
        assert!(ad.node_has_objects(a));
        assert_eq!(ad.objects_on_edge(e).count(), 2);
        ad.remove(&g, &hier, ObjectId(1)).unwrap();
        assert_eq!(ad.objects_at_node(a).count(), 1);
    }

    #[test]
    fn category_update_rewrites_abstracts() {
        let (g, hier) = setup();
        let mut ad = AssociationDirectory::new(&hier);
        let e = g.edge_ids().next().unwrap();
        ad.insert(&g, &hier, obj(1, e, 0)).unwrap();
        let leaf = hier.leaf_of_edge(e);
        assert!(ad.rnet_may_match(leaf, &ObjectFilter::Category(CategoryId(0))).unwrap());
        ad.update_category(&hier, ObjectId(1), CategoryId(7)).unwrap();
        assert!(!ad.rnet_may_match(leaf, &ObjectFilter::Category(CategoryId(0))).unwrap());
        assert!(ad.rnet_may_match(leaf, &ObjectFilter::Category(CategoryId(7))).unwrap());
        ad.validate(&g, &hier).unwrap();
        assert_eq!(ad.matching_count(&ObjectFilter::Category(CategoryId(7))), 1);
    }

    #[test]
    fn multiple_directories_over_one_overlay() {
        // The paper's flexibility claim: different object types in
        // different directories over the same hierarchy.
        let (g, hier) = setup();
        let mut hotels = AssociationDirectory::new(&hier);
        let mut fuel = AssociationDirectory::new(&hier);
        let e = g.edge_ids().next().unwrap();
        hotels.insert(&g, &hier, obj(1, e, 0)).unwrap();
        fuel.insert(&g, &hier, obj(1, e, 5)).unwrap(); // same id, no clash
        assert_eq!(hotels.len(), 1);
        assert_eq!(fuel.len(), 1);
        // Each directory's abstracts see only its own objects.
        let leaf = hier.leaf_of_edge(e);
        let (hotel, station) =
            (ObjectFilter::Category(CategoryId(0)), ObjectFilter::Category(CategoryId(5)));
        assert!(hotels.rnet_may_match(leaf, &hotel).unwrap());
        assert!(!hotels.rnet_may_match(leaf, &station).unwrap());
        assert!(fuel.rnet_may_match(leaf, &station).unwrap());
        assert!(!fuel.rnet_may_match(leaf, &hotel).unwrap());
        fuel.remove(&g, &hier, ObjectId(1)).unwrap();
        assert_eq!((hotels.len(), fuel.len()), (1, 0));
        assert_eq!(hotels.object(ObjectId(1)).map(|o| o.category), Some(CategoryId(0)));
    }

    /// An Rnet id past the hierarchy the directory was sized for has no
    /// abstract, and asking whether it may match is an `InvalidConfig`
    /// that names the id.
    #[test]
    fn an_rnet_past_the_hierarchy_has_no_abstract() {
        let (_g, hier) = setup();
        let ad = AssociationDirectory::new(&hier);
        let past = RnetId(hier.num_rnets() as u32);
        assert!(ad.abstract_of(RnetId(past.0 - 1)).is_some());
        assert!(ad.abstract_of(past).is_none());
        match ad.rnet_may_match(past, &ObjectFilter::Any) {
            Err(RoadError::InvalidConfig(msg)) => assert!(msg.contains(&format!("R{}", past.0))),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// Removing an object used to leave an empty list behind for each of
    /// its endpoints and its edge, so a directory's size — and the cost of
    /// every fork of it — grew with its history. After a seeded history of
    /// moves and removes, the directory must be indistinguishable from one
    /// rebuilt from the objects it holds.
    #[test]
    fn a_history_of_moves_and_removes_leaves_what_a_rebuild_has() {
        use crate::framework::RoadFramework;
        use crate::search::KnnQuery;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let fw = RoadFramework::builder(simple::grid(16, 16, 1.0)).levels(2).build().unwrap();
        let (g, hier) = (fw.network(), fw.hierarchy());
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut rng = StdRng::seed_from_u64(0xD1_2EC7);
        let mut ad = AssociationDirectory::new(hier);
        for i in 0..120u64 {
            let e = edges[rng.random_range(0..edges.len())];
            ad.insert(g, hier, obj(i, e, (i % 4) as u16)).unwrap();
        }
        for step in 0..600 {
            let id = ObjectId(rng.random_range(0..120));
            let Ok(mut o) = ad.remove(g, hier, id) else { continue };
            if step % 5 != 0 {
                o.edge = edges[rng.random_range(0..edges.len())];
                ad.insert(g, hier, o).unwrap();
            }
        }
        ad.validate(g, hier).unwrap();
        let mut rebuilt = AssociationDirectory::new(hier);
        for o in ad.objects() {
            rebuilt.insert(g, hier, o.clone()).unwrap();
        }
        assert!(ad.len() < 120, "the history removed nothing");
        assert_eq!(ad.size_bytes(), rebuilt.size_bytes());
        for n in g.node_ids() {
            assert_eq!(ad.node_has_objects(n), rebuilt.node_has_objects(n), "node {n}");
            let q = KnnQuery::new(n, 4);
            assert_eq!(fw.knn(&ad, &q).unwrap().hits, fw.knn(&rebuilt, &q).unwrap().hits);
        }
    }

    #[test]
    fn size_model_is_monotone() {
        let (g, hier) = setup();
        let mut ad = AssociationDirectory::new(&hier);
        let s0 = ad.size_bytes();
        for (i, e) in g.edge_ids().take(20).enumerate() {
            ad.insert(&g, &hier, obj(i as u64, e, 0)).unwrap();
        }
        assert!(ad.size_bytes() > s0);
    }
}
