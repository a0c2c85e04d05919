#![deny(clippy::indexing_slicing)]
use std::sync::Mutex;

pub struct Pool {
    page_in: Mutex<u32>,
    store: Mutex<u32>,
}

impl Pool {
    pub fn forward(&self) -> u32 {
        let a = self.page_in.lock().unwrap_or_else(|p| p.into_inner());
        // roadlint: allow(io-under-lock) reason="fixture: cursor update atomic with the store claim"
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        *a + *s
    }

    pub fn also_forward(&self) -> u32 {
        let a = self.page_in.lock().unwrap_or_else(|p| p.into_inner());
        // roadlint: allow(io-under-lock) reason="fixture: delegates to forward, same discipline"
        *a + self.forward()
    }
}
