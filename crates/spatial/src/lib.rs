//! # road-spatial
//!
//! Spatial substrates used by the ROAD reproduction:
//!
//! * [`rtree`] — an R-tree with STR bulk loading, incremental best-first
//!   nearest-neighbour search and range search. The Euclidean-bound
//!   baseline (refs \[16\], \[19\] of the paper) indexes object coordinates in
//!   an R-tree and retrieves candidates in increasing Euclidean distance.
//! * [`bloom`] — a counting Bloom filter (ref \[1\]); one of the compact
//!   representations the paper suggests for *object abstracts*, made
//!   counting so that object deletion works without rebuilding.

pub mod bloom;
pub mod rtree;

pub use bloom::CountingBloom;
pub use rtree::RTree;
