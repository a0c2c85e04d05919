#![deny(clippy::indexing_slicing)]
// Half of the cross-file lock-cycle pair: page-in -> store (the
// documented direction). Clean on its own.
use std::sync::Mutex;

pub struct PoolA {
    page_in: Mutex<u32>,
    store: Mutex<u32>,
}

impl PoolA {
    pub fn forward(&self) -> u32 {
        let a = self.page_in.lock().unwrap_or_else(|p| p.into_inner());
        // roadlint: allow(io-under-lock) reason="fixture: cursor claim atomic with the store tail"
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        *a + *s
    }
}
