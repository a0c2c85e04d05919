//! # road-spatial
//!
//! Spatial substrates used by the ROAD reproduction:
//!
//! * [`rtree`] — an R-tree with STR bulk loading, incremental best-first
//!   nearest-neighbour search and range search. The Euclidean-bound
//!   baseline (refs \[16\], \[19\] of the paper) indexes object coordinates in
//!   an R-tree and retrieves candidates in increasing Euclidean distance.
//!
//! Object abstracts are not here: ROAD keeps exact per-category counts
//! (`road_core::abstracts`), not a Bloom filter or signature.

pub mod rtree;

pub use rtree::RTree;
