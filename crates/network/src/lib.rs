//! # road-network
//!
//! Road-network graph substrate for the ROAD framework (Lee, Lee & Zheng,
//! *Fast Object Search on Road Networks*, EDBT 2009).
//!
//! This crate provides everything the framework and its baselines need from
//! the underlying network:
//!
//! * [`graph::RoadNetwork`] — an undirected weighted graph with coordinates
//!   and multiple edge-weight metrics (travel distance, trip time, toll);
//! * [`dijkstra`] — network-expansion primitives (visitor-based
//!   Dijkstra over the network, and over small local CSR graphs); the
//!   Euclidean baseline's A* lives with that baseline in `road-baselines`;
//! * [`csr`] / [`contractor`] / [`minplus`] — flat CSR adjacency arenas,
//!   node contraction with bounded witness search and dense min-plus
//!   elimination: the border-distance side of shortcut construction, for
//!   large and for small local graphs respectively;
//! * [`cow`] — chunked copy-on-write columns: the edge records here, and
//!   the query arena, shortcut table and object directory of `road-core`,
//!   so a fork copies only the chunks an update writes;
//! * [`partition`] — edge-disjoint graph partitioning (geometric bisection
//!   refined by a Kernighan–Lin pass) used to form Rnets;
//! * [`fanout`] — the thread fan-outs, scoped and parked, and the plan of
//!   dependent tasks they drain, results by job and task index;
//! * [`hash`] — the Fx hasher and the hash containers without unordered
//!   iteration;
//! * [`generator`] — seeded synthetic road networks calibrated to the
//!   paper's three real datasets (CA / NA / SF), plus small shapes for
//!   testing.
//!
//! The crate is dependency-light and entirely deterministic for a given
//! seed, which keeps every experiment in the workspace reproducible.

pub mod contractor;
pub mod cow;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod fanout;
pub mod generator;
pub mod geometry;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod minplus;
pub mod partition;
pub mod path;
pub mod unionfind;
pub mod weight;

pub use cow::CowChunks;
pub use error::NetworkError;
pub use geometry::{Point, Rect};
pub use graph::{EdgeRecord, NetworkBuilder, RoadNetwork, WeightKind};
pub use ids::{EdgeId, NodeId};
pub use path::Path;
pub use weight::Weight;
