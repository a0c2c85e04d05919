#![deny(clippy::indexing_slicing)]
// The two sanctioned ways to run PageStore IO with a guard held: under
// the pool's own stripe (the documented stripe -> store order), or with
// a reasoned escape.
use std::sync::Mutex;

pub struct Pool {
    store: Mutex<u32>,
    stripe: Mutex<u32>,
}

impl Pool {
    pub fn alloc(&self) -> u32 {
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        *s
    }

    pub fn fault_under_stripe(&self) -> u32 {
        let g = self.stripe.lock().unwrap_or_else(|p| p.into_inner());
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        *g + *s
    }
}

pub struct Eng {
    image: Mutex<u32>,
    pool: Pool,
}

impl Eng {
    pub fn fault_escaped(&self) -> u32 {
        let g = self.image.lock().unwrap_or_else(|p| p.into_inner()); // roadlint: lock(image)
        // roadlint: allow(io-under-lock) reason="fixture: one-time load serialized by this guard"
        *g + self.pool.alloc()
    }
}
