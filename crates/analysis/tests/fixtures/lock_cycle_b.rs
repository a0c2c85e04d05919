#![deny(clippy::indexing_slicing)]
// The other half of the cross-file lock-cycle pair: store -> page-in,
// the reverse of lock_cycle_a. Clean on its own; a cycle only when both
// files are in the same workspace graph.
use std::sync::Mutex;

pub struct PoolB {
    page_in: Mutex<u32>,
    store: Mutex<u32>,
}

impl PoolB {
    pub fn backward(&self) -> u32 {
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        let a = self.page_in.lock().unwrap_or_else(|p| p.into_inner());
        *a + *s
    }
}
