//! BX011 and BX018: a cache built from `Send + Sync` parts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Cache {
    slots: Mutex<Vec<u8>>,
    hits: AtomicU64,
    shared: Arc<Vec<u8>>,
}

impl Cache {
    fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }
}
