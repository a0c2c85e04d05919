#![deny(clippy::indexing_slicing)]
use std::sync::Mutex;

pub struct P {
    mystery: Mutex<u32>,
}

impl P {
    pub fn touch(&self) -> u32 {
        let g = self.mystery.lock().unwrap_or_else(|p| p.into_inner());
        *g
    }
}
