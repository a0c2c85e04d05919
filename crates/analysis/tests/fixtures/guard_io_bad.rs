#![deny(clippy::indexing_slicing)]
// An `image` guard (a class named by marker) held across a call whose
// typed resolution reaches PageStore IO (Pool::alloc acquires `store`):
// rule 6, found through the call graph, not at the acquisition site.
use std::sync::Mutex;

pub struct Pool {
    store: Mutex<u32>,
}

impl Pool {
    pub fn alloc(&self) -> u32 {
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        *s
    }
}

pub struct Eng {
    image: Mutex<u32>,
    pool: Pool,
}

impl Eng {
    pub fn fault(&self) -> u32 {
        let g = self.image.lock().unwrap_or_else(|p| p.into_inner()); // roadlint: lock(image)
        *g + self.pool.alloc()
    }
}
