#![deny(clippy::indexing_slicing)]
use std::sync::Mutex;

pub struct Pool {
    page_in: Mutex<u32>,
    store: Mutex<u32>,
}

impl Pool {
    pub fn forward(&self) -> u32 {
        let a = self.page_in.lock().unwrap_or_else(|p| p.into_inner());
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        *a + *s
    }

    pub fn backward(&self) -> u32 {
        let s = self.store.lock().unwrap_or_else(|p| p.into_inner());
        let a = self.page_in.lock().unwrap_or_else(|p| p.into_inner());
        *a + *s
    }
}
