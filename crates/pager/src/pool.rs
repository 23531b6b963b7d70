//! A small buffer pool with selectable eviction policy.
//!
//! The paper's experiments run with caching *off*, but §7 notes the
//! structures only improve with caching ("especially because the root tends
//! to be cached at all times"). Ablation A4 quantifies that with this pool.
//!
//! Two policies, selectable via [`PoolPolicy`] so the A-series ablations
//! can compare them head-to-head:
//!
//! * [`PoolPolicy::Lru`] — the original least-recently-used stamp scan.
//! * [`PoolPolicy::Clock`] (default) — a second-chance CLOCK sweep. Frames
//!   sit on a ring; a hit sets the frame's reference bit, the sweep clears
//!   reference bits as it passes and evicts the first unreferenced,
//!   unpinned frame, replacing it *in place* and parking the hand just
//!   after it. New frames enter with the reference bit **clear**, so a
//!   one-pass bulk load recycles its own ring slots instead of flushing
//!   the resident working set (scan resistance).
//!
//! Both policies treat pinned frames as structurally ineligible: the
//! victim search never considers them, so evicting a pinned frame is
//! impossible rather than merely checked.

use crate::BlockId;
use std::collections::HashMap;

/// Hit/miss counters for the buffer pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Reads served from the pool (no disk I/O charged).
    pub hits: u64,
    /// Reads that had to go to the simulated disk.
    pub misses: u64,
}

/// Buffer-pool eviction policy (the A-series ablation knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Least-recently-used: evict the unpinned frame with the oldest
    /// access stamp.
    Lru,
    /// Second-chance CLOCK sweep: scan-resistant (new frames start
    /// unreferenced), one reference bit of history per frame.
    #[default]
    Clock,
}

struct Frame {
    data: Box<[u8]>,
    dirty: bool,
    /// Logical access time for LRU eviction.
    stamp: u64,
    /// Pin count: a pinned frame is never an eviction victim.
    pins: u32,
    /// CLOCK reference bit: set on access, cleared by a passing sweep.
    referenced: bool,
}

/// Eviction failure: the pool is full and every frame is pinned, so the
/// insert could not make room without evicting a pinned frame — which is
/// impossible by construction. Surfaced as `PagerError::Pinned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPinned;

/// An evicted dirty block `(id, data)` the caller must write back — or
/// [`PoolPinned`] when the pool is full of pinned frames.
pub type EvictResult = Result<Option<(BlockId, Box<[u8]>)>, PoolPinned>;

/// Internal eviction result: the victim's ring slot (for in-place
/// replacement) alongside its dirty payload, if any.
type SlotEvict = Result<(usize, Option<(BlockId, Box<[u8]>)>), PoolPinned>;

/// Pool of block copies. Capacity 0 disables it entirely.
pub struct BufferPool {
    capacity: usize,
    policy: PoolPolicy,
    frames: HashMap<BlockId, Frame>,
    /// Frame ids in CLOCK ring order (also tracked under LRU so policy is
    /// switch-safe and discard/evict share one bookkeeping path).
    ring: Vec<BlockId>,
    /// CLOCK hand: index into `ring` where the next sweep starts.
    hand: usize,
    clock: u64,
    stats: PoolStats,
}

impl BufferPool {
    /// Pool with room for `capacity` frames (0 disables caching).
    pub fn new(capacity: usize, policy: PoolPolicy) -> Self {
        Self {
            capacity,
            policy,
            frames: HashMap::with_capacity(capacity),
            ring: Vec::with_capacity(capacity),
            hand: 0,
            clock: 0,
            stats: PoolStats::default(),
        }
    }

    /// The canonical disabled pool (capacity 0).
    pub fn disabled() -> Self {
        Self::new(0, PoolPolicy::default())
    }

    /// Configured frame capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up a block; counts a hit/miss when the pool is enabled. A hit
    /// refreshes the LRU stamp and sets the CLOCK reference bit.
    pub fn get(&mut self, id: BlockId) -> Option<Box<[u8]>> {
        if self.capacity == 0 {
            return None;
        }
        let stamp = self.tick();
        match self.frames.get_mut(&id) {
            Some(frame) => {
                frame.stamp = stamp;
                frame.referenced = true;
                self.stats.hits += 1;
                Some(frame.data.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a block just read from disk. Returns an evicted dirty block
    /// `(id, data)` that the caller must write back, if any, or
    /// [`PoolPinned`] when the pool is full of pinned frames.
    pub fn insert_clean(&mut self, id: BlockId, data: Box<[u8]>) -> EvictResult {
        self.insert(id, data, false)
    }

    /// Insert a freshly written block. Returns an evicted dirty block the
    /// caller must write back, if any, or [`PoolPinned`] when the pool is
    /// full of pinned frames. Never called with capacity 0.
    pub fn insert_dirty(&mut self, id: BlockId, data: Box<[u8]>) -> EvictResult {
        self.insert(id, data, true)
    }

    fn insert(&mut self, id: BlockId, data: Box<[u8]>, dirty: bool) -> EvictResult {
        if self.capacity == 0 {
            return Ok(None);
        }
        let stamp = self.tick();
        if let Some(frame) = self.frames.get_mut(&id) {
            // In-place update: an access, so it refreshes recency state.
            frame.data = data;
            frame.dirty = frame.dirty || dirty;
            frame.stamp = stamp;
            frame.referenced = true;
            return Ok(None);
        }
        let evicted = if self.frames.len() >= self.capacity {
            let (slot, evicted) = match self.policy {
                PoolPolicy::Lru => self.evict_lru()?,
                PoolPolicy::Clock => self.evict_clock()?,
            };
            // Replace the victim in place; the hand parks just past it so
            // the new frame gets a full lap before the sweep returns.
            self.ring[slot] = id;
            self.hand = (slot + 1) % self.ring.len();
            evicted
        } else {
            self.ring.push(id);
            None
        };
        self.frames.insert(
            id,
            Frame {
                data,
                dirty,
                stamp,
                pins: 0,
                // New frames start unreferenced: a one-pass scan cannot
                // displace the referenced working set (scan resistance).
                referenced: false,
            },
        );
        Ok(evicted)
    }

    /// Evict the least-recently-used *unpinned* frame. Returns its ring
    /// slot (for in-place replacement) and its dirty payload, if any.
    fn evict_lru(&mut self) -> SlotEvict {
        let victim = self
            .frames
            .iter()
            .filter(|(_, f)| f.pins == 0)
            .min_by_key(|(_, f)| f.stamp)
            .map(|(id, _)| *id)
            .ok_or(PoolPinned)?;
        let slot = self.ring.iter().position(|r| *r == victim).unwrap_or(0);
        let Some(frame) = self.frames.remove(&victim) else {
            return Ok((slot, None));
        };
        Ok((slot, frame.dirty.then_some((victim, frame.data))))
    }

    /// One CLOCK sweep: starting at the hand, skip pinned frames (their
    /// reference bits are left untouched — a pin is stronger than a
    /// reference), give referenced frames their second chance (clear the
    /// bit, move on), and evict the first unpinned unreferenced frame.
    /// Terminates because at least one unpinned frame exists (pre-checked)
    /// and each unpinned frame's reference bit is cleared at most once
    /// before the sweep returns to it.
    fn evict_clock(&mut self) -> SlotEvict {
        if !self.frames.values().any(|f| f.pins == 0) {
            return Err(PoolPinned);
        }
        loop {
            if self.ring.is_empty() {
                return Err(PoolPinned);
            }
            let slot = self.hand % self.ring.len();
            let id = self.ring[slot];
            let Some(frame) = self.frames.get_mut(&id) else {
                // Stale slot (defensive; discard keeps ring and map in
                // sync): drop it and resume the sweep at the same index.
                self.ring.remove(slot);
                if slot < self.hand {
                    self.hand -= 1;
                }
                continue;
            };
            if frame.pins > 0 {
                self.hand = (slot + 1) % self.ring.len();
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                self.hand = (slot + 1) % self.ring.len();
                continue;
            }
            let Some(frame) = self.frames.remove(&id) else {
                continue;
            };
            return Ok((slot, frame.dirty.then_some((id, frame.data))));
        }
    }

    /// Pin a resident frame against eviction. Returns `false` when the
    /// block is not resident (nothing to pin).
    pub fn pin(&mut self, id: BlockId) -> bool {
        match self.frames.get_mut(&id) {
            Some(frame) => {
                frame.pins = frame.pins.saturating_add(1);
                true
            }
            None => false,
        }
    }

    /// Drop one pin from a resident frame. Returns `false` when the block
    /// is not resident or not pinned.
    pub fn unpin(&mut self, id: BlockId) -> bool {
        match self.frames.get_mut(&id) {
            Some(frame) if frame.pins > 0 => {
                frame.pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `id` is resident with a nonzero pin count.
    pub fn is_pinned(&self, id: BlockId) -> bool {
        self.frames.get(&id).is_some_and(|f| f.pins > 0)
    }

    /// Ids of every pinned resident frame (audit support).
    pub fn pinned_ids(&self) -> Vec<BlockId> {
        self.frames
            .iter()
            .filter(|(_, f)| f.pins > 0)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Drop any cached copy of `id` without write-back (block was freed).
    pub fn discard(&mut self, id: BlockId) {
        if self.frames.remove(&id).is_none() {
            return;
        }
        if let Some(pos) = self.ring.iter().position(|r| *r == id) {
            self.ring.remove(pos);
            if pos < self.hand {
                self.hand -= 1;
            }
            if self.ring.is_empty() {
                self.hand = 0;
            } else {
                self.hand %= self.ring.len();
            }
        }
    }

    /// Ids of every resident frame (audit support).
    pub fn frame_ids(&self) -> Vec<BlockId> {
        self.frames.keys().copied().collect()
    }

    /// Remove and return all dirty frames for write-back.
    pub fn take_dirty(&mut self) -> Vec<(BlockId, Box<[u8]>)> {
        let dirty_ids: Vec<BlockId> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| *id)
            .collect();
        dirty_ids
            .into_iter()
            .filter_map(|id| {
                let frame = self.frames.get_mut(&id)?;
                frame.dirty = false;
                Some((id, frame.data.clone()))
            })
            .collect()
    }

    /// Drop every frame. Caller must have flushed dirty frames first.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.ring.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(b: u8) -> Box<[u8]> {
        vec![b; 8].into_boxed_slice()
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut pool = BufferPool::disabled();
        assert_eq!(pool.insert_clean(BlockId(1), blk(1)), Ok(None));
        assert!(pool.get(BlockId(1)).is_none());
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut pool = BufferPool::new(2, PoolPolicy::Lru);
        pool.insert_clean(BlockId(1), blk(1)).expect("room");
        pool.insert_clean(BlockId(2), blk(2)).expect("room");
        pool.get(BlockId(1)); // 2 is now LRU
        assert_eq!(pool.insert_clean(BlockId(3), blk(3)), Ok(None)); // clean eviction
        assert!(pool.get(BlockId(2)).is_none());
        assert!(pool.get(BlockId(1)).is_some());
    }

    #[test]
    fn clock_gives_referenced_frames_a_second_chance() {
        let mut pool = BufferPool::new(2, PoolPolicy::Clock);
        pool.insert_clean(BlockId(1), blk(1)).expect("room");
        pool.insert_clean(BlockId(2), blk(2)).expect("room");
        pool.get(BlockId(1)); // sets 1's reference bit
                              // Sweep: 1 referenced → second chance; 2 unreferenced → victim.
        assert_eq!(pool.insert_clean(BlockId(3), blk(3)), Ok(None));
        assert!(pool.get(BlockId(2)).is_none());
        assert!(pool.get(BlockId(1)).is_some());
    }

    #[test]
    fn clock_is_scan_resistant() {
        let mut pool = BufferPool::new(3, PoolPolicy::Clock);
        pool.insert_clean(BlockId(1), blk(1)).expect("room");
        pool.insert_clean(BlockId(2), blk(2)).expect("room");
        pool.get(BlockId(1)); // hot frame
                              // One-pass scan of fresh blocks: each enters unreferenced and the
                              // sweep recycles the scan's own slots, never the hot frame (LRU
                              // would evict block 1 on the scan's last insert — oldest stamp).
        for b in 10..13u32 {
            pool.insert_clean(BlockId(b), blk(1)).expect("unpinned");
        }
        assert!(
            pool.get(BlockId(1)).is_some(),
            "hot frame survived the scan"
        );
    }

    #[test]
    fn dirty_eviction_returns_data() {
        for policy in [PoolPolicy::Lru, PoolPolicy::Clock] {
            let mut pool = BufferPool::new(1, policy);
            pool.insert_dirty(BlockId(1), blk(9)).expect("room");
            let evicted = pool.insert_clean(BlockId(2), blk(2)).expect("unpinned");
            assert_eq!(evicted.map(|(id, d)| (id, d[0])), Some((BlockId(1), 9)));
        }
    }

    #[test]
    fn reinsert_merges_dirty_flag() {
        let mut pool = BufferPool::new(2, PoolPolicy::Clock);
        pool.insert_dirty(BlockId(1), blk(1)).expect("room");
        pool.insert_clean(BlockId(1), blk(2)).expect("in place"); // stays dirty
        let dirty = pool.take_dirty();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].1[0], 2);
        assert!(pool.take_dirty().is_empty(), "flush clears dirty flags");
    }

    #[test]
    fn discard_drops_without_writeback() {
        for policy in [PoolPolicy::Lru, PoolPolicy::Clock] {
            let mut pool = BufferPool::new(2, policy);
            pool.insert_dirty(BlockId(1), blk(1)).expect("room");
            pool.discard(BlockId(1));
            assert!(pool.take_dirty().is_empty());
            // The freed slot is reusable and the ring stays consistent.
            pool.insert_clean(BlockId(2), blk(2)).expect("room");
            pool.insert_clean(BlockId(3), blk(3)).expect("room");
            pool.insert_clean(BlockId(4), blk(4)).expect("unpinned");
        }
    }

    #[test]
    fn pinned_frame_is_never_the_eviction_victim() {
        for policy in [PoolPolicy::Lru, PoolPolicy::Clock] {
            let mut pool = BufferPool::new(2, policy);
            pool.insert_clean(BlockId(1), blk(1)).expect("room");
            pool.insert_clean(BlockId(2), blk(2)).expect("room");
            assert!(pool.pin(BlockId(1)));
            // Block 1 is first in sweep/LRU order, but the pin redirects
            // eviction onto block 2.
            assert_eq!(pool.insert_clean(BlockId(3), blk(3)), Ok(None));
            assert!(pool.get(BlockId(1)).is_some());
            assert!(pool.get(BlockId(2)).is_none());
        }
    }

    #[test]
    fn full_pool_of_pinned_frames_rejects_inserts() {
        for policy in [PoolPolicy::Lru, PoolPolicy::Clock] {
            let mut pool = BufferPool::new(2, policy);
            pool.insert_clean(BlockId(1), blk(1)).expect("room");
            pool.insert_clean(BlockId(2), blk(2)).expect("room");
            assert!(pool.pin(BlockId(1)));
            assert!(pool.pin(BlockId(2)));
            assert_eq!(pool.insert_clean(BlockId(3), blk(3)), Err(PoolPinned));
            assert_eq!(pool.pinned_ids().len(), 2);
            assert!(pool.unpin(BlockId(2)));
            assert!(!pool.is_pinned(BlockId(2)));
            assert_eq!(pool.insert_clean(BlockId(3), blk(3)), Ok(None));
        }
    }

    #[test]
    fn pin_requires_residency_and_unpin_balances() {
        let mut pool = BufferPool::new(2, PoolPolicy::Clock);
        assert!(!pool.pin(BlockId(7)), "absent block cannot be pinned");
        pool.insert_clean(BlockId(7), blk(7)).expect("room");
        assert!(pool.pin(BlockId(7)));
        assert!(pool.pin(BlockId(7)));
        assert!(pool.unpin(BlockId(7)));
        assert!(pool.is_pinned(BlockId(7)), "second pin still held");
        assert!(pool.unpin(BlockId(7)));
        assert!(!pool.unpin(BlockId(7)), "unbalanced unpin is reported");
    }
}
