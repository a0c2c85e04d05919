//! # road-core — the ROAD framework
//!
//! A faithful implementation of **ROAD** (Lee, Lee & Zheng, *Fast Object
//! Search on Road Networks*, EDBT 2009): a general framework for
//! evaluating location-dependent spatial queries — range and k-nearest-
//! neighbour search over objects living on a road network — under network
//! distance.
//!
//! The framework organises a road network as a hierarchy of regional
//! sub-networks (**Rnets**), augments it with **shortcuts** (precomputed
//! shortest paths between Rnet border nodes) and **object abstracts**
//! (per-Rnet object summaries), and evaluates queries by network expansion
//! that *bypasses* object-free Rnets instead of crawling through them.
//! The two index components give the framework its name:
//!
//! * the **Route Overlay** ([`hierarchy`] + [`shortcut`]) manages the
//!   network side — Rnets, border nodes, shortcut trees;
//! * the **Association Directory** ([`association`]) maps objects and
//!   object abstracts onto nodes and Rnets, fully decoupled from the
//!   network so several object sets can share one overlay.
//!
//! ## Quick start
//!
//! ```
//! use road_core::prelude::*;
//! use road_network::generator::simple;
//!
//! // A 12x12 street grid with unit-length edges.
//! let net = simple::grid(12, 12, 1.0);
//! let road = RoadFramework::builder(net).fanout(4).levels(2).build().unwrap();
//!
//! // Map a couple of cafes onto the network.
//! let mut cafes = AssociationDirectory::new(road.hierarchy());
//! let edge = road.network().edge_ids().next().unwrap();
//! cafes
//!     .insert(
//!         road.network(),
//!         road.hierarchy(),
//!         Object::new(ObjectId(1), edge, 0.5, CategoryId(0)),
//!     )
//!     .unwrap();
//!
//! // Nearest cafe from node 77.
//! let res = road.knn(&cafes, &KnnQuery::new(NodeId(77), 1)).unwrap();
//! assert_eq!(res.hits.len(), 1);
//! ```

pub mod abstracts;
pub(crate) mod arena;
pub mod association;
pub mod engine;
pub mod error;
pub mod framework;
pub mod hierarchy;
pub mod live;
pub mod model;
pub mod paged;
pub mod persist;
pub mod search;
pub mod shortcut;
pub mod workspace;

pub use abstracts::ObjectAbstract;
pub use association::AssociationDirectory;
pub use engine::QueryEngine;
pub use error::RoadError;
pub use framework::{RoadConfig, RoadFramework, UpdateOutcome};
pub use hierarchy::{HierarchyConfig, RnetHierarchy, RnetId};
pub use live::{LiveEngine, LiveStats, Snapshot, UpdateHandle};
pub use model::{CategoryId, Object, ObjectFilter, ObjectId};
pub use paged::{PagedEngine, PagedOptions};
pub use persist::PagedImage;
pub use search::{KnnQuery, RangeQuery, SearchHit, SearchResult, SearchStats};
pub use shortcut::{ShortcutEdge, ShortcutOptions, ShortcutStore};
pub use workspace::SearchWorkspace;

/// Convenient glob-import of the public API.
pub mod prelude {
    pub use crate::association::AssociationDirectory;
    pub use crate::engine::QueryEngine;
    pub use crate::framework::{RoadConfig, RoadFramework};
    pub use crate::live::{LiveEngine, Snapshot, UpdateHandle};
    pub use crate::model::{CategoryId, Object, ObjectFilter, ObjectId};
    pub use crate::paged::{PagedEngine, PagedOptions};
    pub use crate::persist::PagedImage;
    pub use crate::search::{KnnQuery, RangeQuery, SearchHit};
    pub use crate::workspace::SearchWorkspace;
    pub use road_network::graph::WeightKind;
    pub use road_network::{NodeId, Weight};
}
