//! The write-ahead log: an append-only byte stream with an explicit
//! durability barrier, group commit, and checkpoint truncation.
//!
//! Where the bytes live is the [`LogStore`] seam: the in-memory
//! [`MemLogStore`](crate::store::MemLogStore) models a real WAL file as two
//! byte buffers (`durable` = what survives a crash, `pending` = the OS
//! write cache); the file-backed
//! [`FileLogStore`](crate::store::FileLogStore) is the real thing — an
//! append and an fsync per group commit, checkpoint rotation via
//! write-new-then-atomic-rename. [`Wal::commit`] appends the record to the
//! pending window and, every `sync_every` commits, issues the durability
//! barrier and tells the pager to apply buffered after-images. With
//! `sync_every > 1` this is classic group commit: fewer barriers, but a
//! crash loses up to `sync_every − 1` recent operations — consistently,
//! because the pager defers applying exactly the same set.
//!
//! # fsync-failure poisoning
//!
//! A failed durability operation (append or fsync) **poisons** the log:
//! after a failed fsync the kernel may have dropped the dirty pages while
//! keeping the file position advanced, so a retried fsync that "succeeds"
//! proves nothing about the lost window (the fsyncgate failure mode). The
//! WAL therefore never retries — it reports [`JournalAck::Lost`], answers
//! `Lost` to every later commit/barrier, refuses to checkpoint, and lets
//! the pager enter its degraded read-only path. The durable prefix stays
//! intact and recoverable.
//!
//! Checkpoints happen in [`Wal::applied`], i.e. strictly *after* the backend
//! has every durable record applied: the log is replaced by a single
//! checkpoint record carrying the full meta fold (an atomic log rotation),
//! which bounds recovery time.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use boxes_pager::codec;
use boxes_pager::{
    lock_unpoisoned, BlockId, Journal, JournalAck, JournalCounters, TxnFrame, TxnRecord,
};

use crate::crashpoint::CrashClock;
use crate::frame::{self, Record, RecordKind};
use crate::store::{FileLogStore, LogStore, MemLogStore, StoreError};

/// Tuning for a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Emit a durability barrier (fsync) every N commit records. `1` =
    /// every operation is durable at its commit; larger = group commit.
    pub sync_every: u64,
    /// Truncate the log at a checkpoint after every N applied sync
    /// batches. `0` disables checkpointing (the log grows unboundedly).
    pub checkpoint_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            sync_every: 1,
            checkpoint_every: 0,
        }
    }
}

/// Counters of WAL activity, for the ablation harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Commit records appended.
    pub records: u64,
    /// Block frames across all appended records.
    pub frames: u64,
    /// Total bytes appended (commits + checkpoints).
    pub appended_bytes: u64,
    /// Durability barriers issued.
    pub syncs: u64,
    /// Explicit [`Journal::barrier`] requests (the pager's group-commit
    /// publish path), whether or not an fsync was needed.
    pub barriers: u64,
    /// Checkpoint truncations performed.
    pub checkpoints: u64,
    /// Failed durability operations (append or fsync). The first one
    /// poisons the log permanently.
    pub sync_failures: u64,
}

struct WalInner {
    store: Box<dyn LogStore>,
    /// Set by the first failed durability operation; never cleared. See
    /// the module docs on fsync-failure poisoning.
    poisoned: bool,
    next_lsn: u64,
    commits_since_sync: u64,
    batches_since_ckpt: u64,
    fold: BTreeMap<String, Vec<u8>>,
    stats: WalStats,
    /// Block images rebuilt for read-repair ([`Journal::counters`]).
    replays: u64,
}

/// A write-ahead log implementing the pager's [`Journal`] hook, generic
/// over where its bytes live ([`LogStore`]).
pub struct Wal {
    block_size: usize,
    config: WalConfig,
    clock: Option<Arc<CrashClock>>,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// New empty in-memory log for a pager with the given block size.
    pub fn new(block_size: usize, config: WalConfig) -> Arc<Self> {
        Self::build(block_size, config, None, Box::new(MemLogStore::new()))
    }

    /// New in-memory log with a crash clock ticking at every append and
    /// sync barrier.
    pub fn with_crash_clock(
        block_size: usize,
        config: WalConfig,
        clock: Arc<CrashClock>,
    ) -> Arc<Self> {
        Self::build(
            block_size,
            config,
            Some(clock),
            Box::new(MemLogStore::new()),
        )
    }

    /// New log over an explicit [`LogStore`] (file-backed, fault-wrapped,
    /// …), with an optional crash clock.
    pub fn with_store(
        block_size: usize,
        config: WalConfig,
        clock: Option<Arc<CrashClock>>,
        store: Box<dyn LogStore>,
    ) -> Arc<Self> {
        Self::build(block_size, config, clock, store)
    }

    /// Create a file-backed log at `path` (truncating any existing file).
    pub fn create_file(
        path: &Path,
        block_size: usize,
        config: WalConfig,
    ) -> Result<Arc<Self>, StoreError> {
        let store = FileLogStore::create(path, block_size)?;
        Ok(Self::build(block_size, config, None, Box::new(store)))
    }

    fn build(
        block_size: usize,
        config: WalConfig,
        clock: Option<Arc<CrashClock>>,
        store: Box<dyn LogStore>,
    ) -> Arc<Self> {
        assert!(config.sync_every >= 1, "sync_every must be at least 1");
        Arc::new(Self {
            block_size,
            config,
            clock,
            inner: Mutex::new(WalInner {
                store,
                poisoned: false,
                next_lsn: 1,
                commits_since_sync: 0,
                batches_since_ckpt: 0,
                fold: BTreeMap::new(),
                stats: WalStats::default(),
                replays: 0,
            }),
        })
    }

    /// The bytes that would survive a crash right now (everything up to the
    /// last durability barrier). This is the input to
    /// [`recover`](crate::recover). A store whose durable prefix cannot be
    /// read back (a failed medium) yields an empty log.
    #[must_use]
    pub fn durable_bytes(&self) -> Vec<u8> {
        lock_unpoisoned(&self.inner)
            .store
            .durable()
            .unwrap_or_default()
    }

    /// Current durable log length in bytes.
    #[must_use]
    pub fn durable_len(&self) -> usize {
        codec::u64_to_index(lock_unpoisoned(&self.inner).store.durable_len())
    }

    /// Whether a failed durability operation has poisoned the log (every
    /// later commit/barrier answers [`JournalAck::Lost`]).
    #[must_use]
    pub fn poisoned(&self) -> bool {
        lock_unpoisoned(&self.inner).poisoned
    }

    /// Snapshot of the activity counters.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        lock_unpoisoned(&self.inner).stats
    }

    fn tick(&self) {
        if let Some(clock) = &self.clock {
            clock.tick();
        }
    }

    /// Issue the durability barrier on `inner`'s store, applying the
    /// poisoning protocol on failure. Returns the ack to surface.
    fn sync_locked(inner: &mut WalInner) -> JournalAck {
        match inner.store.sync() {
            Ok(()) => {
                inner.stats.syncs += 1;
                inner.commits_since_sync = 0;
                JournalAck::Durable
            }
            Err(_) => {
                inner.poisoned = true;
                inner.stats.sync_failures += 1;
                JournalAck::Lost
            }
        }
    }
}

impl Journal for Wal {
    fn commit(&self, record: &TxnRecord) -> JournalAck {
        // Crash point: the record append (before anything is buffered —
        // crashing here loses the operation entirely, which is consistent
        // because the pager has not applied anything either).
        self.tick();
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.poisoned {
            // The pending window is gone; nothing new can become durable.
            return JournalAck::Lost;
        }
        // Meta dedup: only log blobs whose value changed since the last
        // record that carried them; the fold keeps the authoritative merge
        // for checkpoints.
        let metas: Vec<(String, Vec<u8>)> = record
            .metas
            .iter()
            .filter(|(name, data)| inner.fold.get(name) != Some(data))
            .cloned()
            .collect();
        for (name, data) in &record.metas {
            inner.fold.insert(name.clone(), data.clone());
        }
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let rec = Record {
            kind: RecordKind::Commit,
            lsn,
            frames: record.frames.clone(),
            freed: record.freed.clone(),
            metas,
        };
        let bytes = frame::encode(&rec, self.block_size);
        inner.stats.records += 1;
        inner.stats.frames += codec::usize_to_u64(rec.frames.len());
        inner.stats.appended_bytes += codec::usize_to_u64(bytes.len());
        if inner.store.append(&bytes).is_err() {
            // The record may be partially on the medium: poison — the
            // decoder will roll the torn tail back at recovery.
            inner.poisoned = true;
            inner.stats.sync_failures += 1;
            return JournalAck::Lost;
        }
        inner.commits_since_sync += 1;
        if inner.commits_since_sync < self.config.sync_every {
            return JournalAck::Deferred;
        }
        drop(inner);
        // Crash point: the durability barrier itself — crashing here loses
        // the whole pending batch, again in step with the pager.
        self.tick();
        let mut inner = lock_unpoisoned(&self.inner);
        Self::sync_locked(&mut inner)
    }

    fn barrier(&self) -> JournalAck {
        {
            let mut inner = lock_unpoisoned(&self.inner);
            inner.stats.barriers += 1;
            if inner.poisoned {
                return JournalAck::Lost;
            }
            if inner.store.pending_len() == 0 {
                // Already at a barrier: no fsync to charge, nothing to lose.
                return JournalAck::Durable;
            }
        }
        // Crash point: an explicit durability barrier, same exposure as the
        // sync_every-triggered one in `commit`.
        self.tick();
        let mut inner = lock_unpoisoned(&self.inner);
        Self::sync_locked(&mut inner)
    }

    fn healthy(&self) -> bool {
        !lock_unpoisoned(&self.inner).poisoned
    }

    fn applied(&self) {
        if self.config.checkpoint_every == 0 {
            return;
        }
        {
            let mut inner = lock_unpoisoned(&self.inner);
            if inner.poisoned {
                return;
            }
            inner.batches_since_ckpt += 1;
            if inner.batches_since_ckpt < self.config.checkpoint_every {
                return;
            }
        }
        // Crash point: checkpoint write + rotation. Crashing before the
        // rotation below leaves the old (longer but equivalent) log.
        self.tick();
        let mut inner = lock_unpoisoned(&self.inner);
        // The checkpoint must carry the full image set the old log folded
        // to, or rotation would destroy the read-repair source for every
        // block written before it. A fold failure means our own durable
        // bytes no longer decode — keep the old (still longer, still valid)
        // log instead of rotating onto a lossy checkpoint.
        let Ok(durable) = inner.store.durable() else {
            return;
        };
        let Ok(images) = crate::repair::image_fold(&durable, self.block_size) else {
            return;
        };
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let rec = Record {
            kind: RecordKind::Checkpoint,
            lsn,
            frames: images
                .into_iter()
                .map(|(raw, after)| TxnFrame {
                    block: BlockId(raw),
                    before: None,
                    after,
                })
                .collect(),
            freed: Vec::new(),
            metas: inner.fold.clone().into_iter().collect(),
        };
        let bytes = frame::encode(&rec, self.block_size);
        // Atomic log rotation: the new durable log is just the checkpoint
        // record. On a file store this is write-side-file + fsync + rename
        // (+ parent-dir fsync); a rotation failure keeps the old log, which
        // is longer but equally valid — not a poisoning event.
        if inner.store.rotate(&bytes).is_err() {
            return;
        }
        inner.stats.appended_bytes += codec::usize_to_u64(bytes.len());
        inner.stats.checkpoints += 1;
        inner.batches_since_ckpt = 0;
    }

    fn repair_image(&self, id: BlockId) -> Option<Box<[u8]>> {
        // Repair restores *durable* state only: the backend never holds
        // unsynced images (the pager's overlay serves those), so the
        // durable log — checkpoint images plus redo replay — is exactly
        // the right reconstruction source.
        let mut inner = lock_unpoisoned(&self.inner);
        let durable = inner.store.durable().ok()?;
        let image = crate::repair::latest_image(&durable, self.block_size, id);
        if image.is_some() {
            inner.replays += 1;
        }
        image
    }

    fn counters(&self) -> JournalCounters {
        let inner = lock_unpoisoned(&self.inner);
        JournalCounters {
            appends: inner.stats.records,
            syncs: inner.stats.syncs,
            checkpoints: inner.stats.checkpoints,
            replays: inner.replays,
        }
    }
}
