//! Live-update serving: a writer/reader split over atomically published
//! snapshots.
//!
//! ROAD's maintenance story (Section 5.2) says the Route Overlay survives
//! edge-weight changes and topology edits by repairing only the affected
//! Rnets — but every repair method on [`RoadFramework`] takes `&mut self`,
//! so a deployment serving concurrent kNN traffic could not absorb a
//! single traffic update without tearing its engine down. This module
//! closes that gap with copy-on-write snapshot publication:
//!
//! * **One writer.** An [`UpdateHandle`] (not `Clone`; every mutator takes
//!   `&mut self`) owns the master framework and directory. It applies
//!   edge-weight changes, topology edits and object updates through the
//!   ordinary §5.2 filter-and-refresh repairs — each update refreshes only
//!   the affected Rnets' shortcut maps, never rebuilding the overlay —
//!   and makes a batch of updates visible with
//!   [`publish`](UpdateHandle::publish).
//! * **Any number of readers.** A [`LiveEngine`] handle is cheaply
//!   clonable; [`snapshot`](LiveEngine::snapshot) hands back an
//!   `Arc<`[`Snapshot`]`>` — a [`QueryEngine`] with a version, which
//!   keeps answering on exactly the state it was published with, no
//!   matter what the writer does next. A snapshot dereferences to its
//!   engine, so readers drive the same zero-alloc
//!   [`knn_with`](QueryEngine::knn_with) / [`range_with`](QueryEngine::range_with)
//!   hot path, batches and aggregate queries as any `QueryEngine`.
//!
//! Publication swaps an `Arc` behind a mutex held only for the pointer
//! exchange: readers never wait on a repair in progress, and the writer
//! never waits for readers to finish (old snapshots are freed by the last
//! reader dropping them). The swap is cheap because the framework and the
//! directory are copy-on-write by the chunk ([`RoadFramework`] and
//! [`AssociationDirectory`] docs, [`road_network::cow`]): publishing
//! clones one pointer per component and per chunk of the per-Rnet
//! shortcut table (86 on a 5,460-Rnet hierarchy), plus one per shard of
//! the directory when an object changed, and the updates after a publish
//! copy the chunks they write and nothing else. A weight update copies
//! the chunk of edge records holding the edge and the chunk of arena
//! weights of each endpoint — a few kilobytes, however large the network
//! ([`RoadNetwork::shared_edge_chunks`](road_network::RoadNetwork::shared_edge_chunks),
//! [`RoadFramework::shared_arena_chunks`]); node coordinates, adjacency
//! lists and the arena's other columns are written by topology edits only
//! and stay shared
//! ([`RoadNetwork::shares_topology_with`](road_network::RoadNetwork::shares_topology_with));
//! each refreshed Rnet gets a fresh shortcut arena and copies its chunk of
//! the table, and every other Rnet's shortcut data stays physically shared
//! across all live snapshots (`ShortcutStore::shared_rnet_count`). An
//! object move copies the directory shards and abstract chunks it writes
//! ([`AssociationDirectory::shared_shards`]). The sharing is asserted in
//! `tests/live_tests.rs`, and [`LiveStats::bytes_copied`] counts what the
//! copies cost. Dropping a snapshot frees what it alone held — the chunks
//! the writer has since replaced — off the publication lock.
//!
//! ```
//! use road_core::prelude::*;
//! use road_network::generator::simple;
//!
//! let net = simple::grid(8, 8, 1.0);
//! let fw = RoadFramework::builder(net).fanout(4).levels(2).build().unwrap();
//! let mut pois = AssociationDirectory::new(fw.hierarchy());
//! let edge = fw.network().edge_ids().next().unwrap();
//! pois.insert(fw.network(), fw.hierarchy(), Object::new(ObjectId(1), edge, 0.5, CategoryId(0)))
//!     .unwrap();
//!
//! let (live, mut writer) = LiveEngine::new(fw, pois);
//! let before = live.snapshot(); // clone into any number of reader threads
//!
//! writer.set_edge_weight(edge, Weight::new(40.0)).unwrap();
//! let version = writer.publish();
//! let after = live.snapshot();
//!
//! assert_eq!(after.version(), version);
//! // The held snapshot still answers on pre-update weights...
//! assert_eq!(before.framework().network().weight(edge, WeightKind::Distance), Weight::new(1.0));
//! // ...while new snapshots see the congestion.
//! assert_eq!(after.framework().network().weight(edge, WeightKind::Distance), Weight::new(40.0));
//! ```

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

use crate::association::AssociationDirectory;
use crate::engine::QueryEngine;
use crate::framework::{RoadFramework, UpdateOutcome};
use crate::model::{CategoryId, Object, ObjectId};
use crate::RoadError;
use road_network::{EdgeId, NodeId, Point, Weight};
use std::sync::{Arc, PoisonError};

/// One published, immutable state of the road network and its objects:
/// a [`QueryEngine`] with a version, which it dereferences to.
///
/// A snapshot answers queries on exactly the state it was published with,
/// for as long as any reader holds it; later publications never mutate it.
/// Obtain one from [`LiveEngine::snapshot`] and hold it for the duration
/// of a request (or a batch of requests) — re-acquiring per query is
/// cheap, but holding one guarantees a consistent view across several
/// queries.
#[derive(Debug)]
pub struct Snapshot {
    version: u64,
    engine: QueryEngine,
}

impl Snapshot {
    /// Monotonically increasing publication number (the initial state is
    /// version 0).
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl std::ops::Deref for Snapshot {
    type Target = QueryEngine;

    fn deref(&self) -> &QueryEngine {
        &self.engine
    }
}

/// State shared between the reader handles and the writer: the currently
/// published snapshot, swapped atomically under a briefly-held mutex. The
/// guard never leaves [`Shared::load`] and [`Shared::swap`].
struct Shared {
    #[expect(
        clippy::disallowed_types,
        reason = "the published snapshot's lock: held to clone or exchange one Arc, never across a repair, a query or a free"
    )]
    current: std::sync::Mutex<Arc<Snapshot>>,
}

impl Shared {
    /// The published snapshot. The mutex is held only to clone or store an
    /// `Arc`, so a poisoned lock leaves the pointer itself intact: both
    /// doors recover the guard instead of propagating the panic.
    fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next`, returning the snapshot it replaces — to be
    /// dropped, and freed if no reader holds it, after the lock is gone.
    fn swap(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        std::mem::replace(&mut self.current.lock().unwrap_or_else(PoisonError::into_inner), next)
    }
}

/// Cumulative counters of one [`UpdateHandle`]'s lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveStats {
    /// Maintenance operations applied (weight changes, topology edits,
    /// object updates).
    pub updates: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Summed §5.2 repair counters of every network-side update. The
    /// ratio `outcome.rnets_refreshed / updates` staying near the
    /// hierarchy depth — not near [`num_rnets`](crate::RnetHierarchy::num_rnets)
    /// — is the evidence that live maintenance repairs locally instead of
    /// rebuilding.
    pub outcome: UpdateOutcome,
    /// Bytes copy-on-write copied to un-share chunks of the writer's state
    /// from published snapshots: edge records, arena weights, the per-Rnet
    /// shortcut table, directory shards and abstract chunks, counted in
    /// chunk bytes ([`road_network::cow`]; the fresh arenas of refreshed
    /// Rnets are writes, not copies). The evidence that a tick copies what
    /// it touched, not the network.
    pub bytes_copied: u64,
}

/// The shareable reader side of a live deployment: clone it into every
/// serving thread; each clone hands out the currently published
/// [`Snapshot`].
///
/// Created together with the unique writer by [`LiveEngine::new`]. See the
/// [module docs](self) for the full writer/reader contract and an example.
#[derive(Clone)]
pub struct LiveEngine {
    shared: Arc<Shared>,
}

impl LiveEngine {
    /// Wraps a built framework and directory for live serving, publishing
    /// their current state as snapshot version 0. Returns the shareable
    /// reader handle and the unique writer.
    pub fn new(fw: RoadFramework, ad: AssociationDirectory) -> (LiveEngine, UpdateHandle) {
        let published_ad = Arc::new(ad.clone());
        let snapshot = Arc::new(Snapshot {
            version: 0,
            engine: QueryEngine::from_shared(Arc::new(fw.clone()), Arc::clone(&published_ad)),
        });
        let shared = Arc::new(Shared { current: snapshot.into() });
        let writer = UpdateHandle {
            shared: Arc::clone(&shared),
            copied_before: fw.bytes_copied() + ad.bytes_copied(),
            fw,
            ad,
            published_ad,
            objects_changed: false,
            published_version: 0,
            dirty: false,
            stats: LiveStats::default(),
        };
        (LiveEngine { shared }, writer)
    }

    /// The currently published snapshot. Briefly locks to clone the `Arc`
    /// — never waits on a repair in progress, only (at worst) on another
    /// pointer exchange.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.load()
    }

    /// Version of the currently published snapshot.
    pub fn version(&self) -> u64 {
        self.shared.load().version
    }
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine").field("published", &*self.snapshot()).finish()
    }
}

/// The unique writer of a live deployment.
///
/// Mutators apply to the writer's private working state through the
/// ordinary [`RoadFramework`] / [`AssociationDirectory`] maintenance
/// paths; readers observe nothing until [`publish`](UpdateHandle::publish)
/// swaps the working state in as the new current [`Snapshot`]. Batching
/// several updates per publish amortises the copy-on-write costs and
/// gives readers coherent multi-edge updates (e.g. re-weighting a whole
/// congested route at once).
///
/// The handle is deliberately not `Clone` and every mutator takes
/// `&mut self`: single-writer discipline is enforced by ownership, not by
/// locking on the query path.
pub struct UpdateHandle {
    shared: Arc<Shared>,
    /// Working framework; shares payloads with published snapshots until
    /// a mutation un-shares the chunks it touches.
    fw: RoadFramework,
    /// Working directory, same copy-on-write discipline.
    ad: AssociationDirectory,
    /// The directory of the current snapshot, handed on unchanged by a
    /// publish that changed no object.
    published_ad: Arc<AssociationDirectory>,
    objects_changed: bool,
    /// `bytes_copied` of the state the writer started from.
    copied_before: u64,
    published_version: u64,
    dirty: bool,
    stats: LiveStats,
}

impl UpdateHandle {
    // ------------------------------------------------------------------
    // Network maintenance (Section 5.2 against the working state)
    // ------------------------------------------------------------------

    /// Changes an edge weight and repairs the affected shortcuts; visible
    /// to readers after the next [`publish`](UpdateHandle::publish). See
    /// [`RoadFramework::set_edge_weight`]. Setting the weight an edge
    /// already has mutates nothing and leaves the pending/stats state
    /// untouched (no spurious snapshot version on the next publish).
    ///
    /// Cost: the change copies the chunk of edge records holding `e` and
    /// the chunk of arena weights of each endpoint where a snapshot still
    /// shares them (a few kilobytes; nothing per node), patches the arena in
    /// place (`O(deg)`) and refreshes the enclosing leaf and, while its
    /// shortcut set changes, its ancestors — one dense elimination each,
    /// whose recorded pivots also give the kept shortcuts' waypoints, run
    /// on the framework's
    /// [`threads`](crate::shortcut::ShortcutOptions::threads)
    /// (ARCHITECTURE.md, "Live updates", has the per-tick breakdown).
    pub fn set_edge_weight(
        &mut self,
        e: EdgeId,
        weight: Weight,
    ) -> Result<UpdateOutcome, RoadError> {
        let outcome = self.fw.set_edge_weight(e, weight)?;
        // A default outcome means the weight was already `weight`: a
        // genuine change always refreshes at least the enclosing leaf.
        if outcome != UpdateOutcome::default() {
            self.note(outcome);
        }
        Ok(outcome)
    }

    /// Applies a batch of weight updates in one repair pass; see
    /// [`RoadFramework::set_edge_weights`]. A traffic-feed storm that
    /// touches many Rnets repairs each affected Rnet once, a parent as soon
    /// as its own children are done, on the framework's repair workers — far
    /// cheaper than per-edge
    /// [`set_edge_weight`](UpdateHandle::set_edge_weight) calls, and the
    /// resulting store is byte-identical to applying the batch edge by
    /// edge. A batch of pure no-ops leaves the pending/stats state
    /// untouched.
    pub fn set_edge_weights(
        &mut self,
        updates: &[(EdgeId, Weight)],
    ) -> Result<UpdateOutcome, RoadError> {
        let outcome = self.fw.set_edge_weights(updates)?;
        if outcome != UpdateOutcome::default() {
            self.note(outcome);
        }
        Ok(outcome)
    }

    /// Adds a new intersection to the working network.
    pub fn add_node(&mut self, at: Point) -> NodeId {
        self.bump();
        self.fw.add_node(at)
    }

    /// Adds a road segment; see [`RoadFramework::add_edge`].
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        weights: (Weight, Weight, Weight),
    ) -> Result<(EdgeId, UpdateOutcome), RoadError> {
        let (e, outcome) = self.fw.add_edge(a, b, weights)?;
        self.note(outcome);
        Ok((e, outcome))
    }

    /// Removes a road segment; fails while the working directory still has
    /// objects on it. See [`RoadFramework::remove_edge`].
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<UpdateOutcome, RoadError> {
        let outcome = self.fw.remove_edge(e, &[&self.ad])?;
        self.note(outcome);
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Object maintenance (Section 5.1 against the working state)
    // ------------------------------------------------------------------

    /// Inserts an object into the working directory.
    pub fn insert_object(&mut self, object: Object) -> Result<(), RoadError> {
        let fw = &self.fw;
        self.ad.insert(fw.network(), fw.hierarchy(), object)?;
        self.bump_objects();
        Ok(())
    }

    /// Removes an object from the working directory, returning it.
    pub fn remove_object(&mut self, id: ObjectId) -> Result<Object, RoadError> {
        let fw = &self.fw;
        let object = self.ad.remove(fw.network(), fw.hierarchy(), id)?;
        self.bump_objects();
        Ok(object)
    }

    /// Moves an object to a new position (the paper's "change of object
    /// location": deletion at the old position, insertion at the new one,
    /// atomically within this update — readers never see the object
    /// absent). Restores the original placement if the new one is invalid.
    pub fn move_object(
        &mut self,
        id: ObjectId,
        edge: EdgeId,
        fraction: f64,
    ) -> Result<(), RoadError> {
        let (fw, ad) = (&self.fw, &mut self.ad);
        let old = ad.remove(fw.network(), fw.hierarchy(), id)?;
        let mut moved = old.clone();
        moved.edge = edge;
        moved.fraction = fraction;
        if let Err(err) = ad.insert(fw.network(), fw.hierarchy(), moved) {
            if ad.insert(fw.network(), fw.hierarchy(), old).is_err() {
                // Rollback of a just-removed object cannot fail unless the
                // directory itself is inconsistent; report, don't panic.
                return Err(RoadError::Internal(
                    "move_object rollback failed; directory lost the object".into(),
                ));
            }
            return Err(err);
        }
        self.bump_objects();
        Ok(())
    }

    /// Updates an object's category attribute.
    pub fn update_category(
        &mut self,
        id: ObjectId,
        category: CategoryId,
    ) -> Result<CategoryId, RoadError> {
        let fw = &self.fw;
        let old = self.ad.update_category(fw.hierarchy(), id, category)?;
        self.bump_objects();
        Ok(old)
    }

    // ------------------------------------------------------------------
    // Publication
    // ------------------------------------------------------------------

    /// Atomically publishes the working state as the new current snapshot
    /// and returns its version. Readers holding earlier snapshots are
    /// unaffected; new [`LiveEngine::snapshot`] calls observe every update
    /// applied since the previous publish. A no-op (returning the current
    /// version) when nothing changed.
    pub fn publish(&mut self) -> u64 {
        if !self.dirty {
            return self.published_version;
        }
        self.published_version += 1;
        if std::mem::take(&mut self.objects_changed) {
            self.published_ad = Arc::new(self.ad.clone());
        }
        let snapshot = Arc::new(Snapshot {
            version: self.published_version,
            engine: QueryEngine::from_shared(
                Arc::new(self.fw.clone()),
                Arc::clone(&self.published_ad),
            ),
        });
        // If no reader still holds the previous snapshot, it is freed here,
        // off the lock.
        drop(self.shared.swap(snapshot));
        self.dirty = false;
        self.stats.publishes += 1;
        self.published_version
    }

    /// `true` while updates applied since the last publish are not yet
    /// visible to readers.
    pub fn has_pending(&self) -> bool {
        self.dirty
    }

    /// Version of the most recent publication (0 = initial state).
    pub fn published_version(&self) -> u64 {
        self.published_version
    }

    /// Cumulative update/publish counters.
    pub fn stats(&self) -> LiveStats {
        let copied = self.fw.bytes_copied() + self.ad.bytes_copied();
        LiveStats { bytes_copied: copied - self.copied_before, ..self.stats }
    }

    /// The writer's working framework — includes unpublished updates.
    pub fn framework(&self) -> &RoadFramework {
        &self.fw
    }

    /// The writer's working directory — includes unpublished updates.
    pub fn directory(&self) -> &AssociationDirectory {
        &self.ad
    }

    /// A fresh reader handle for the deployment this writer publishes to.
    pub fn reader(&self) -> LiveEngine {
        LiveEngine { shared: Arc::clone(&self.shared) }
    }

    fn note(&mut self, outcome: UpdateOutcome) {
        self.stats.outcome.absorb(&outcome);
        self.bump();
    }

    fn bump(&mut self) {
        self.stats.updates += 1;
        self.dirty = true;
    }

    fn bump_objects(&mut self) {
        self.objects_changed = true;
        self.bump();
    }
}

impl std::fmt::Debug for UpdateHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateHandle")
            .field("published_version", &self.published_version)
            .field("pending", &self.dirty)
            .field("stats", &self.stats())
            .finish()
    }
}

// Readers clone `LiveEngine` into threads and ship `Arc<Snapshot>`s across
// them; the writer may live on yet another thread. Keep all of that a
// compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<LiveEngine>();
    assert_send_sync::<Snapshot>();
    assert_send::<UpdateHandle>();
};

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a reader thread loads beside the writer on purpose; what it records is checked per thread"
)]
mod tests {
    use super::*;
    use road_network::generator::simple;

    /// A live deployment over a small grid, and the id of one of its edges.
    fn live() -> (LiveEngine, UpdateHandle, EdgeId) {
        let fw = RoadFramework::builder(simple::grid(6, 6, 1.0)).fanout(4).levels(2).build();
        let fw = fw.unwrap();
        let ad = AssociationDirectory::new(fw.hierarchy());
        let e = fw.network().edge_ids().next().unwrap();
        let (reader, writer) = LiveEngine::new(fw, ad);
        (reader, writer, e)
    }

    /// Applies one weight change and publishes it.
    fn tick(writer: &mut UpdateHandle, e: EdgeId, i: u64) -> u64 {
        writer.set_edge_weight(e, Weight::new(1.0 + (i % 7) as f64)).unwrap();
        writer.publish()
    }

    /// The snapshot lock hands out no guard: a loaded snapshot is held
    /// with the lock free, and a publish leaves it free.
    #[test]
    fn load_and_swap_return_with_the_snapshot_lock_free() {
        let (reader, mut writer, e) = live();
        let held = reader.snapshot();
        assert!(reader.shared.current.try_lock().is_ok(), "a held snapshot holds the lock");
        assert_eq!(tick(&mut writer, e, 1), 1);
        assert!(reader.shared.current.try_lock().is_ok(), "publish");
        assert_eq!((held.version(), reader.version()), (0, 1));
    }

    /// `swap` hands back the very snapshot it replaced, and `load` the one
    /// it published; a reader's held snapshot outlives the swap.
    #[test]
    fn swap_hands_back_the_snapshot_it_replaced() {
        let (reader, _writer, _) = live();
        let first = reader.shared.load();
        let next = Arc::new(Snapshot { version: 9, engine: first.engine.clone() });
        let replaced = reader.shared.swap(Arc::clone(&next));
        assert!(Arc::ptr_eq(&replaced, &first));
        assert!(Arc::ptr_eq(&reader.shared.load(), &next));
        drop(replaced);
        assert_eq!((first.version(), Arc::strong_count(&first)), (0, 1));
        assert_eq!(reader.version(), 9);
    }

    /// A reader that panicked holding the snapshot lock leaves the pointer
    /// whole: loads and publishes go on, neither propagates the panic.
    #[test]
    fn a_poisoned_snapshot_lock_still_serves_and_publishes() {
        let (reader, mut writer, e) = live();
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = reader.shared.current.lock().unwrap();
            panic!("poison the snapshot lock");
        }));
        assert!(poisoner.is_err());
        assert!(reader.shared.current.is_poisoned());
        assert_eq!(reader.version(), 0);
        assert_eq!(tick(&mut writer, e, 1), 1);
        assert_eq!(reader.snapshot().version(), 1);
    }

    /// The published snapshot is shared, not owned by the writer: readers
    /// cloned before the writer is dropped, and readers cloned from them
    /// after, go on serving the last publication.
    #[test]
    fn readers_outlive_the_writer_on_its_last_publication() {
        let (reader, mut writer, e) = live();
        assert_eq!(tick(&mut writer, e, 3), 1);
        let from_writer = writer.reader();
        writer.set_edge_weight(e, Weight::new(9.0)).unwrap();
        drop(writer);
        let later = reader.clone();
        for r in [&reader, &from_writer, &later] {
            assert_eq!(r.version(), 1);
            let snapshot = r.snapshot();
            assert!(Arc::ptr_eq(&snapshot, &reader.snapshot()));
            let hits = snapshot.knn(&crate::search::KnnQuery::new(NodeId(0), 1)).unwrap().hits;
            assert!(hits.is_empty(), "no objects were ever inserted");
        }
    }

    /// A reader loading beside a publishing writer never sees the version
    /// go back, and ends on the last one published.
    #[test]
    fn a_reader_beside_the_writer_sees_versions_only_rise() {
        const TICKS: u64 = 40;
        let (reader, mut writer, e) = live();
        std::thread::scope(|scope| {
            // Dropped when the writer is done, or when it fails: the
            // watcher stops either way.
            let (done, finished) = std::sync::mpsc::channel::<()>();
            let watching = &reader;
            let watcher = scope.spawn(move || {
                let mut seen = vec![watching.version()];
                while finished.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                    seen.push(watching.snapshot().version());
                }
                seen.push(watching.version());
                seen
            });
            for i in 1..=TICKS {
                assert_eq!(tick(&mut writer, e, i), i);
            }
            drop(done);
            let seen = watcher.join().unwrap();
            assert_eq!(seen.last(), Some(&TICKS));
            assert!(seen.windows(2).all(|w| w[0] <= w[1]), "a version went back");
        });
        assert_eq!(reader.version(), TICKS);
    }
}
