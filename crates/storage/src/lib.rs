//! # road-storage
//!
//! The paged storage stack behind the disk model of the ROAD paper's
//! evaluation (Section 6): every index is disk-resident with a **4 KB page
//! size** and queries run through a **50-page LRU buffer** that starts cold.
//! The paper's I/O metric counts page faults through exactly this stack, so
//! reading real records through it reports comparable numbers
//! deterministically.
//!
//! Components:
//!
//! * [`error`] — [`StorageError`], how fallible paths report poisoned
//!   locks and corrupt pages instead of panicking a serving thread;
//! * [`decode`] — the [`Cursor`] every image, page and record decoder
//!   reads untrusted bytes through: counts checked against the bytes left
//!   before they size anything;
//! * [`page`] — fixed 4 KB pages and page ids;
//! * [`store`] — the simulated disk (a growable array of pages, counting
//!   nothing); pages are held by handle, so a read hands out the stored
//!   page and nothing is copied until someone writes;
//! * [`lru`] — a generic O(1) LRU cache;
//! * [`striped`] — the one buffer pool: LRU page frames with dirty
//!   write-back, sharded into lock stripes keyed by page id, frames that
//!   share the store's page handles (copy-on-write), exact per-query
//!   [`IoTally`] deltas settled into the cumulative counters once per
//!   query (what lets one disk-resident engine serve many threads);
//! * [`buffer`] — the pool's [`BufferStats`], the [`PagePool`] access
//!   trait, and [`BufferPool`]: a one-stripe pool's lock-free owner;
//! * [`bptree`] — a real paged B+-tree (the paper's Route Overlay and
//!   Association Directory both index by node/Rnet id through B+-trees),
//!   built by inserts once and then only read by point lookups;
//! * [`ccam`] — connectivity-clustered node-to-page assignment after
//!   Shekhar & Liu's CCAM (ref \[18\]), used for node records by every
//!   evaluated approach;
//! * [`io_tracker`] — the per-query [`IoTracker`]: a cold LRU over
//!   *modelled* page ids, used only by the three comparison engines
//!   (NetExp, Euclidean, DistIdx) of the experiment harness.

pub mod bptree;
pub mod buffer;
pub mod ccam;
pub mod decode;
pub mod error;
pub mod io_tracker;
pub mod lru;
pub mod page;
pub mod store;
pub mod striped;

pub use bptree::BPlusTree;
pub use buffer::{BufferPool, BufferStats, PagePool};
pub use ccam::{NodeClustering, RecordLocation};
pub use decode::{Cursor, DecodeError};
pub use error::StorageError;
pub use io_tracker::IoTracker;
pub use lru::LruCache;
pub use page::{Page, PageId, PAGE_SIZE};
pub use store::PageStore;
pub use striped::{IoTally, OwnedPool, StripedBufferPool, DEFAULT_BUFFER_STRIPES};

/// The paper's buffer-pool capacity: "a memory cache of 50 pages with LRU
/// replacement scheme".
pub const DEFAULT_BUFFER_PAGES: usize = 50;
