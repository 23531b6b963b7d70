#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Simulated block device with I/O accounting — the storage substrate for the
//! BOXes reproduction.
//!
//! The original paper implements its data structures on top of TPIE and
//! measures performance as the *number of 8 KB block I/Os with main-memory
//! caching turned off*. This crate provides the equivalent substrate: a
//! [`Pager`] that owns an in-memory array of fixed-size byte blocks, counts
//! every read and write, and optionally interposes an LRU buffer pool (the
//! paper's experiments run with the pool disabled, but §7 notes the structures
//! only improve with caching — ablation A4 in `DESIGN.md` measures that).
//!
//! All higher-level structures (LIDF heap file, W-BOX, B-BOX, naive-k) share a
//! single [`Pager`] through [`SharedPager`] so that space and I/O are
//! accounted on one "disk", exactly like a real database file.
//!
//! # Example
//!
//! ```
//! use boxes_pager::{Pager, PagerConfig};
//!
//! let pager = Pager::new(PagerConfig::with_block_size(512));
//! let id = pager.alloc();
//! let mut block = pager.read(id);
//! block[0] = 42;
//! pager.write(id, &block);
//! assert_eq!(pager.read(id)[0], 42);
//! assert_eq!(pager.stats().reads, 2);
//! assert_eq!(pager.stats().writes, 1);
//! ```

/// Block codecs and the workspace's checked width-conversion helpers.
pub mod codec;
/// Deterministic faulty-disk plans for the [`FaultInjector`] seam.
pub mod fault;
mod file;
/// Buffer pool with selectable eviction policy (LRU / CLOCK).
pub mod pool;
mod stats;
mod table;
/// The raw-file surface beneath the file backends, plus the fault-wrapping
/// handle that injects disk failures below the file layer.
pub mod vfs;

pub use codec::{crc32, Reader, VecWriter, Writer};
pub use fault::{splitmix64, FaultEvent, FaultPlan, FaultPlanConfig, FaultSite, ReadFault};
pub use file::{recover_image, FileError};
pub use pool::{BufferPool, PoolPinned, PoolPolicy, PoolStats};
pub use stats::{IoStats, JournalCounters, PagerCounters};
pub use table::ShardStats;
pub use vfs::{sector_floor, FaultFile, FileFaultPlan, RawFile, SECTOR_SIZE};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use table::{PageTable, TableRef};

/// Default block size used throughout the reproduction: 8 KB, matching §7
/// ("For all experiments, the block size is set to 8KB").
pub const DEFAULT_BLOCK_SIZE: usize = 8192;

/// Identifier of an allocated block. Stable for the lifetime of the block
/// (until [`Pager::free`]); freed ids may be recycled by later allocations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Sentinel for "no block"; never returned by [`Pager::alloc`].
    pub const INVALID: BlockId = BlockId(u32::MAX);

    /// The backing-store slot this id addresses (checked widening).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        codec::u32_to_usize(self.0)
    }

    /// Whether this id is the [`BlockId::INVALID`] sentinel.
    #[inline]
    pub fn is_invalid(self) -> bool {
        self == Self::INVALID
    }
}

impl std::fmt::Debug for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_invalid() {
            write!(f, "BlockId(∅)")
        } else {
            write!(f, "BlockId({})", self.0)
        }
    }
}

/// Configuration for a [`Pager`].
#[derive(Clone, Debug)]
pub struct PagerConfig {
    /// Size of each block in bytes.
    pub block_size: usize,
    /// Capacity of the buffer pool in blocks. `0` disables caching — the
    /// setting used for all paper experiments.
    pub pool_capacity: usize,
    /// Eviction policy of the buffer pool ([`PoolPolicy::Clock`] by
    /// default; [`PoolPolicy::Lru`] kept for the A-series ablations).
    pub pool_policy: PoolPolicy,
    /// Back the blocks with this file instead of memory (extension beyond
    /// the paper's simulated setup: real disk I/O, same accounting).
    pub file: Option<std::path::PathBuf>,
}

impl Default for PagerConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            pool_capacity: 0,
            pool_policy: PoolPolicy::Clock,
            file: None,
        }
    }
}

impl PagerConfig {
    /// Config with the given block size and caching disabled.
    pub fn with_block_size(block_size: usize) -> Self {
        Self {
            block_size,
            pool_capacity: 0,
            pool_policy: PoolPolicy::Clock,
            file: None,
        }
    }

    /// Enable a buffer pool holding `capacity` blocks (CLOCK eviction
    /// unless overridden with [`PagerConfig::with_pool_policy`]).
    pub fn with_pool(mut self, capacity: usize) -> Self {
        self.pool_capacity = capacity;
        self
    }

    /// Select the buffer-pool eviction policy (ablation knob: LRU vs the
    /// scan-resistant CLOCK second-chance sweep).
    pub fn with_pool_policy(mut self, policy: PoolPolicy) -> Self {
        self.pool_policy = policy;
        self
    }

    /// Store blocks in a real file at `path` (created or truncated). The
    /// I/O accounting is identical to the in-memory backend; wall-clock
    /// time then includes genuine disk latency.
    pub fn backed_by_file(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.file = Some(path.into());
        self
    }
}

/// One block's before/after images inside a transaction record.
///
/// `before` is `None` when the block was freshly allocated inside the same
/// transaction (there is no prior committed image to fall back to).
#[derive(Clone, Debug)]
pub struct TxnFrame {
    /// The block this frame describes.
    pub block: BlockId,
    /// Committed image prior to this transaction, if the block existed.
    pub before: Option<Box<[u8]>>,
    /// Image the transaction commits.
    pub after: Box<[u8]>,
}

/// Everything one logical operation dirtied, handed to the journal as a
/// single atomic unit: the group-commit batch of the paper's multi-block
/// updates (a W-BOX respace, a B-BOX rip) plus the structure-state blobs
/// needed to reopen the in-memory headers after a crash.
#[derive(Clone, Debug, Default)]
pub struct TxnRecord {
    /// Dirty blocks, in ascending block order.
    pub frames: Vec<TxnFrame>,
    /// Blocks the operation freed (deallocation is deferred to apply time).
    pub freed: Vec<BlockId>,
    /// Named structure-state blobs (`"lidf"`, `"wbox"`, …, plus the pager's
    /// own `"pager"` allocator state appended last).
    pub metas: Vec<(String, Vec<u8>)>,
}

/// Durability outcome of a [`Journal::commit`] or [`Journal::barrier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalAck {
    /// The record and every earlier one reached stable storage — the
    /// pager may apply buffered after-images to the backend.
    Durable,
    /// Group commit: the record is logged but its durability barrier is
    /// deferred. The pager parks the after-images in the volatile overlay.
    Deferred,
    /// The log's unsynced tail is **gone** — a durability operation (an
    /// append or an fsync) failed, and fsyncgate semantics forbid
    /// retrying: after a failed fsync the dirty-page state is unknowable,
    /// so the journal poisons its pending window and reports every
    /// affected record as lost. The pager must treat this as
    /// [`DegradedReason::JournalFault`]: park the frames (reads stay
    /// correct in-process), reject mutations, and *never* apply unlogged
    /// after-images to the backend.
    Lost,
}

/// Write-ahead journal hook. Implemented by `boxes-wal`; the pager only
/// knows the protocol: log first, then apply. `Send + Sync` so a journaled
/// pager can be shared across threads behind [`SharedPager`].
pub trait Journal: Send + Sync {
    /// Persist `record` ahead of any backend write. Returns
    /// [`JournalAck::Durable`] when the record (and every earlier one)
    /// reached durable storage — the pager then applies all buffered
    /// after-images to the backend. [`JournalAck::Deferred`] (group
    /// commit) defers both the sync and the apply;
    /// [`JournalAck::Lost`] reports a poisoned log tail.
    fn commit(&self, record: &TxnRecord) -> JournalAck;

    /// Called after the pager finished applying every record covered by the
    /// last durable commit — the journal's checkpoint opportunity.
    fn applied(&self);

    /// Reconstruct the latest durable image of `id` from the log — the last
    /// checkpoint image plus redo replay — for read-repair of a block that
    /// failed its checksum. `None` when the log retains nothing for the
    /// block; the default says no journal can repair anything.
    fn repair_image(&self, _id: BlockId) -> Option<Box<[u8]>> {
        None
    }

    /// Force a durability barrier *now*: promote every pending (committed
    /// but unsynced) record to durable storage as if the group-commit
    /// window had closed. Returns [`JournalAck::Durable`] when the whole
    /// log tail is durable afterwards, [`JournalAck::Lost`] when the
    /// fsync failed and the tail is poisoned. The pager calls this from
    /// [`Pager::publish_barrier`] before applying the overlay, so the
    /// log-first protocol is preserved; the default is `Durable` because
    /// a journal without a volatile tail is always at a barrier.
    fn barrier(&self) -> JournalAck {
        JournalAck::Durable
    }

    /// Whether the journal can still make records durable. `false` after
    /// a poisoned durability failure ([`JournalAck::Lost`]): the log's
    /// committed prefix is intact but nothing new will ever sync, so
    /// [`Pager::try_resume`] must refuse to re-apply parked frames — the
    /// only way forward is recovery from the durable prefix. Defaults to
    /// `true` for journals that cannot fail.
    fn healthy(&self) -> bool {
        true
    }

    /// Cumulative activity counters, read by [`Pager::counters`] under the
    /// pager's lock, so an implementation must not call back into the
    /// pager. The default reports nothing.
    fn counters(&self) -> JournalCounters {
        JournalCounters::default()
    }
}

/// Decision returned by a [`FaultInjector`] for one backend block write
/// attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Perform the write normally.
    Proceed,
    /// Persist only the first `n` bytes (the torn-write model: the stored
    /// checksum goes stale) and then crash.
    TearAndCrash(usize),
    /// Crash before the write reaches the backend at all.
    Crash,
    /// This attempt fails with a transient I/O error; a retry may succeed.
    TransientError,
    /// Every attempt fails: the sector's write path is gone. Past the retry
    /// budget the pager enters [`Health::Degraded`].
    PersistentError,
    /// Persist only the first `n` bytes (stale stored checksum) and report
    /// failure — unlike [`WriteFault::TearAndCrash`], the process survives
    /// and the retry rewrites the full block.
    ShortWrite(usize),
    /// The write succeeds after a deterministic stall of this many ticks.
    Latency(u64),
}

/// Fault-injection hook consulted before every backend block I/O: applied
/// block writes via [`FaultInjector::on_block_write`], checked block reads
/// via [`FaultInjector::on_block_read`]. `Send + Sync` for the same reason
/// as [`Journal`]: the hook is called with the pager shared across threads.
pub trait FaultInjector: Send + Sync {
    /// Decide the fate of the pending write to `id`.
    fn on_block_write(&self, id: BlockId) -> WriteFault;

    /// Decide the fate of the pending read of `id`. Defaults to
    /// [`ReadFault::Proceed`] so write-only injectors (the WAL's crash
    /// clock) need not care about the read path.
    fn on_block_read(&self, _id: BlockId) -> ReadFault {
        ReadFault::Proceed
    }
}

/// Panic payload used to simulate process death at an injected crash point.
/// Harnesses catch it with `std::panic::catch_unwind` and then recover from
/// the surviving "disk" ([`Pager::disk_image`]) plus the durable log.
#[derive(Clone, Copy, Debug)]
pub struct CrashSignal;

/// Why a pager left normal service — the payload of
/// [`Health::Degraded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedReason {
    /// A backend write to this block kept failing past the retry budget.
    /// The unapplied after-images are parked in the volatile overlay, so
    /// reads stay correct; mutations are rejected until
    /// [`Pager::try_resume`] succeeds.
    WriteFault {
        /// The block whose write exhausted the budget.
        block: BlockId,
    },
    /// A checksum-mismatched or unreadable block could not be reconstructed
    /// from the durable log (no journal attached, or the block is newer
    /// than everything the log retains).
    Unrepairable {
        /// The block that could not be repaired.
        block: BlockId,
    },
    /// The journal reported [`JournalAck::Lost`]: a durability operation
    /// (append or fsync) failed and the log's pending window is poisoned.
    /// The lost records' frames are parked in the overlay so in-process
    /// reads stay correct, but they will never be durable — recovery from
    /// the log's intact committed prefix is the only path forward.
    JournalFault,
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::WriteFault { block } => {
                write!(f, "write to {block:?} failed past the retry budget")
            }
            DegradedReason::Unrepairable { block } => {
                write!(f, "{block:?} is corrupt and not repairable from the log")
            }
            DegradedReason::JournalFault => {
                write!(
                    f,
                    "the journal lost its unsynced tail (failed durability \
                     barrier); reopen from the durable log prefix"
                )
            }
        }
    }
}

/// Service state of a [`Pager`]: normal, or read-only after an unrecoverable
/// fault. Degraded pagers keep answering reads and lookups (committed state
/// is intact in the backend, log, and overlay); mutations fail fast with
/// [`PagerError::Degraded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Normal service.
    Ok,
    /// Read-only: mutations are rejected until [`Pager::try_resume`].
    Degraded(DegradedReason),
}

impl Health {
    /// Whether the pager is in normal service.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Health::Ok)
    }
}

/// Typed failure of a fallible pager I/O operation. Also used as the panic
/// payload when an infallible-signature entry point (e.g. [`Pager::read`])
/// hits a disk fault, so harnesses can classify the failure with
/// `std::panic::catch_unwind` exactly like [`CrashSignal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagerError {
    /// An I/O error persisted past the retry budget.
    Io {
        /// The block whose I/O failed.
        block: BlockId,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// A block failed its checksum and no repair source exists.
    Corrupt {
        /// The corrupt block.
        block: BlockId,
    },
    /// The pager is degraded (read-only); the mutation was rejected.
    Degraded(DegradedReason),
    /// The operation needed to evict or release a pinned buffer-pool
    /// frame, which is impossible by construction: either the pool is full
    /// of pinned frames and an insert could not make room, or a pinned
    /// block was freed.
    Pinned {
        /// The block whose operation collided with a pin.
        block: BlockId,
    },
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::Io { block, attempts } => {
                write!(f, "I/O on {block:?} failed after {attempts} attempts")
            }
            PagerError::Corrupt { block } => {
                write!(f, "{block:?} failed its checksum with no repair source")
            }
            PagerError::Degraded(reason) => {
                write!(f, "pager is degraded (read-only): {reason}")
            }
            PagerError::Pinned { block } => {
                write!(
                    f,
                    "{block:?} is pinned; the frame cannot be evicted or freed"
                )
            }
        }
    }
}

impl std::error::Error for PagerError {}

impl PagerError {
    /// Run `op`, converting a [`PagerError`] panic payload — raised by the
    /// infallible-signature entry points on disk faults or degraded-mode
    /// rejections — into a typed error. Any other panic, including
    /// [`CrashSignal`], resumes unwinding untouched. This is how layers
    /// without their own fallible plumbing (schemes, the LIDF) expose
    /// `try_*` variants.
    pub fn catch<T>(op: impl FnOnce() -> T) -> Result<T, PagerError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)) {
            Ok(value) => Ok(value),
            Err(payload) => match payload.downcast::<PagerError>() {
                Ok(err) => Err(*err),
                Err(payload) => std::panic::resume_unwind(payload),
            },
        }
    }
}

/// Bounded-retry policy for transient disk faults. Backoff is measured in
/// deterministic ticks (doubling per retry from `backoff_base`), never wall
/// clock — sweeps must replay bit-for-bit (BX007).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt. `0` = fail immediately.
    pub budget: u32,
    /// Backoff ticks charged for the first retry; doubles each retry.
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            budget: 4,
            backoff_base: 1,
        }
    }
}

impl RetryPolicy {
    /// Backoff ticks charged before retry number `retry` (1-based):
    /// exponential, `backoff_base << (retry - 1)`, saturating.
    #[must_use]
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(32);
        self.backoff_base.saturating_mul(1u64 << shift)
    }
}

/// RAII guard for one operation-scoped transaction. All pager writes, allocs
/// and frees between [`Pager::txn`] and the guard's drop form one atomic
/// journal record. Scopes nest; only the outermost commits. If the guard
/// drops during a panic (an injected crash), the transaction is aborted and
/// nothing is journaled — that *is* the crash semantics.
#[must_use = "dropping the scope immediately commits an empty transaction"]
pub struct TxnScope {
    pager: SharedPager,
}

impl TxnScope {
    /// Commit the scope now (equivalent to dropping it).
    pub fn commit(self) {}
}

impl Drop for TxnScope {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.pager.abort_txn();
        } else {
            self.pager.end_txn();
        }
    }
}

/// A buffered dirty block inside the open transaction.
struct TxnEntry {
    before: Option<Box<[u8]>>,
    data: Box<[u8]>,
}

/// In-flight transaction state. Only populated while a journal is attached;
/// without one, [`TxnScope`] is pure depth bookkeeping and every pager call
/// behaves exactly as in the unjournaled seed.
#[derive(Default)]
struct TxnState {
    depth: u32,
    cache: std::collections::BTreeMap<u32, TxnEntry>,
    fresh: std::collections::BTreeSet<u32>,
    freed: Vec<BlockId>,
    metas: std::collections::BTreeMap<String, Vec<u8>>,
}

/// Committed-but-unapplied state under group commit: records whose journal
/// entries are still in the log's volatile tail. Reads see this overlay;
/// a crash loses it together with the unsynced log tail — consistently.
#[derive(Default)]
struct Overlay {
    frames: std::collections::BTreeMap<u32, Box<[u8]>>,
    freed: Vec<BlockId>,
}

/// Snapshot-isolation state: the published epoch counter, per-epoch pin
/// refcounts, and the published/pending split of structure-state meta
/// blobs. The frozen block versions themselves live in the sharded
/// [`PageTable`] next to the frames they shadow, so snapshot readers can
/// resolve a pinned-epoch read inside one shard without the coordinator.
///
/// The epoch advances exactly at *group-commit boundaries* — when a sync
/// barrier has made the log tail durable **and** every covered frame has
/// been applied to the backend — so each published epoch is a consistent,
/// reopenable database state. Meta blobs from commits whose frames are
/// still deferred (group commit) or parked (degraded apply) stay in
/// `pending_metas` until the frames land; snapshots only ever see
/// `published_metas`, which always describes the backend-plus-frozen-
/// versions state at their pin epoch.
#[derive(Default)]
struct SnapState {
    /// Number of published group-commit boundaries; pins are minted at
    /// this value.
    epoch: u64,
    /// Open-snapshot refcounts per pinned epoch.
    pins: std::collections::BTreeMap<u64, u64>,
    /// Meta blobs of the last published epoch (shared with snapshots).
    published_metas: Arc<std::collections::BTreeMap<String, Vec<u8>>>,
    /// Meta blobs staged by commits whose frames are not yet applied.
    pending_metas: std::collections::BTreeMap<String, Vec<u8>>,
}

/// Read-only tether of a snapshot-view pager to its base pager: the pinned
/// epoch plus the base handle. Lives *outside* the view's mutex so a view
/// read never holds its own lock while taking the base's (the two are the
/// same lock identity to the BX015/BX017 lock-order analysis). Dropping
/// the view drops the tether, which releases the epoch pin.
struct SnapshotRef {
    base: SharedPager,
    epoch: u64,
}

impl Drop for SnapshotRef {
    fn drop(&mut self) {
        self.base.unpin_epoch(self.epoch);
    }
}

/// A crash-consistent snapshot of the backend: what survives process death.
/// Blocks carry their *stored* checksums, so recovery can classify torn
/// pages instead of panicking on them.
#[derive(Clone, Debug)]
pub struct DiskImage {
    /// Block size of the captured pager.
    pub block_size: usize,
    /// One entry per backend slot; `None` for deallocated holes.
    pub blocks: Vec<Option<DiskBlock>>,
}

/// One surviving block of a [`DiskImage`].
#[derive(Clone, Debug)]
pub struct DiskBlock {
    /// Raw block bytes as persisted (possibly a torn prefix).
    pub data: Box<[u8]>,
    /// The checksum *stored* alongside the block — stale when torn.
    pub crc: u32,
}

impl DiskBlock {
    /// Whether the stored checksum matches the data (i.e. the block is not
    /// torn or corrupt).
    #[must_use]
    pub fn intact(&self) -> bool {
        codec::crc32(&self.data) == self.crc
    }
}

/// Outcome of one [`Pager::scrub_step`] increment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Backend slots examined (allocated or holes).
    pub scanned: usize,
    /// Blocks whose stale checksum was repaired from the journal.
    pub repaired: usize,
    /// Blocks with a stale checksum and no repair source — the pager is
    /// now degraded ([`DegradedReason::Unrepairable`]).
    pub failed: Vec<BlockId>,
    /// Whether the cursor wrapped past the end of the store during this
    /// step (a full incremental pass has completed).
    pub wrapped: bool,
}

struct PagerInner {
    backend: Backend,
    free: Vec<u32>,
    stats: IoStats,
    pool: BufferPool,
    journal: Option<Arc<dyn Journal>>,
    fault: Option<Arc<dyn FaultInjector>>,
    txn: TxnState,
    overlay: Overlay,
    retry: RetryPolicy,
    degraded: Option<DegradedReason>,
    degraded_entries: u64,
    snap: SnapState,
    /// Next backend slot the incremental scrubber will examine.
    scrub_cursor: usize,
}

/// Classified backend read failure, consumed by the pager's checked read
/// path: retry ([`ReadFailure::Io`]), read-repair ([`ReadFailure::Checksum`])
/// or the documented contract panic ([`ReadFailure::Unallocated`]).
enum ReadFailure {
    Unallocated,
    Checksum,
    Io,
}

enum Backend {
    /// In-memory blocks, stored in the sharded [`PageTable`] (the same
    /// `Arc` the owning [`Pager`] holds in its `table` field, so snapshot
    /// readers can reach frames without the coordinator).
    Memory(TableRef),
    File(file::FileStore),
}

impl Backend {
    fn len(&self) -> usize {
        match self {
            Backend::Memory(t) => t.len(),
            Backend::File(f) => f.len(),
        }
    }

    fn is_allocated(&self, id: BlockId) -> bool {
        match self {
            Backend::Memory(t) => t.is_allocated(id.0),
            Backend::File(f) => f.is_allocated(id.index()),
        }
    }

    fn push_zeroed(&mut self, block_size: usize) {
        match self {
            Backend::Memory(t) => t.push_zeroed(block_size),
            Backend::File(f) => f.push_zeroed(),
        }
    }

    fn reuse_zeroed(&mut self, id: BlockId, block_size: usize) {
        match self {
            Backend::Memory(t) => t.reuse_zeroed(id.0, block_size),
            Backend::File(f) => f.reuse_zeroed(id.index()),
        }
    }

    fn deallocate(&mut self, id: BlockId) {
        match self {
            Backend::Memory(t) => t.deallocate(id.0),
            Backend::File(f) => f.deallocate(id.index()),
        }
    }

    /// Read a block, classifying failures instead of panicking: the pager's
    /// checked read path turns a checksum mismatch into read-repair and a
    /// missing block into the documented contract panic.
    fn try_read(&mut self, id: BlockId, block_size: usize) -> Result<Box<[u8]>, ReadFailure> {
        match self {
            Backend::Memory(t) => t.try_read(id.0),
            Backend::File(f) => match f.read(id.index(), block_size) {
                Ok(data) => Ok(data),
                Err(file::FileError::Unallocated(_)) => Err(ReadFailure::Unallocated),
                Err(file::FileError::Checksum(_) | file::FileError::ShortBlock { .. }) => {
                    Err(ReadFailure::Checksum)
                }
                Err(_) => Err(ReadFailure::Io),
            },
        }
    }

    /// Flip `mask` into the stored byte at `offset`, leaving the stored
    /// checksum stale — the media-corruption (bit rot) primitive behind
    /// [`Pager::corrupt_block`] and [`ReadFault::BitFlip`].
    fn corrupt(&mut self, id: BlockId, offset: usize, mask: u8, block_size: usize) {
        match self {
            Backend::Memory(t) => t.corrupt(id.0, offset, mask),
            Backend::File(f) => {
                if let Some((mut data, _crc)) = f.raw(id.index(), block_size) {
                    if let Some(byte) = data.get_mut(offset) {
                        *byte ^= mask;
                        // Full-length "torn" write: data updated, trailer
                        // checksum left stale — exactly bit rot. If the slot
                        // vanished mid-corruption there is no media left to
                        // damage and the fault evaporates, so either outcome
                        // is acceptable (BX008 suppressed in lint.toml).
                        let _ = f.write_torn(id.index(), &data);
                    }
                }
            }
        }
    }

    fn write(&mut self, id: BlockId, data: Box<[u8]>) {
        match self {
            Backend::Memory(t) => t.write(id.0, data),
            Backend::File(f) => f
                .write(id.index(), &data)
                .unwrap_or_else(|e| panic!("write of {id:?} failed: {e}")),
        }
    }

    /// Persist only the first `prefix` bytes of `data`, leaving the rest of
    /// the block and its stored checksum stale — the torn-write fault model.
    fn write_torn(&mut self, id: BlockId, data: &[u8], prefix: usize) {
        let n = prefix.min(data.len());
        match self {
            Backend::Memory(t) => {
                if !t.write_torn(id.0, data, n) {
                    panic!("torn write of unallocated {id:?}");
                }
            }
            Backend::File(f) => f
                .write_torn(id.index(), &data[..n])
                .unwrap_or_else(|e| panic!("torn write of {id:?} failed: {e}")),
        }
    }

    /// Raw block bytes plus the *stored* checksum, without verification —
    /// the crash-recovery path inspects torn pages instead of panicking.
    fn raw(&mut self, id: BlockId, block_size: usize) -> Option<(Box<[u8]>, u32)> {
        match self {
            Backend::Memory(t) => t.raw(id.0),
            Backend::File(f) => f.raw(id.index(), block_size),
        }
    }

    fn allocated_count(&self) -> usize {
        match self {
            Backend::Memory(t) => t.allocated_count(),
            Backend::File(f) => f.allocated_count(),
        }
    }
}

/// An in-memory simulated disk of fixed-size blocks with I/O accounting.
///
/// `Send + Sync`, with a two-tier locking split (ROADMAP item 1): the
/// coarse `inner` [`Mutex`] is the *coordinator* — alloc/free, epoch
/// publish, WAL group-commit barriers and all write paths serialize there —
/// while the block frames and frozen snapshot versions live in the sharded
/// [`PageTable`] (per-shard mutexes, per-frame `RwLock` latches). Snapshot
/// readers resolve pinned-epoch reads entirely inside one shard, so reader
/// sessions touching disjoint blocks never contend with each other or with
/// the coordinator. Lock order: coordinator → shard → frame latch
/// (registered with the BX015 lock-order lint).
pub struct Pager {
    /// Process-unique handle id ([`Pager::id`]).
    id: u64,
    block_size: usize,
    /// The sharded frame/version store. For memory-backed pagers this is
    /// the same `Arc` as in `Backend::Memory`; file-backed pagers keep
    /// only frozen versions here.
    table: TableRef,
    inner: Mutex<PagerInner>,
    /// `Some` makes this pager a read-only *snapshot view* onto another
    /// pager at a pinned epoch. Deliberately outside `inner`: view reads
    /// charge their own stats under their own lock, release it, and only
    /// then take the base pager's lock — sequentially, never nested.
    view: Option<SnapshotRef>,
}

/// A fresh process-unique [`Pager::id`].
fn next_pager_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::SeqCst)
}

/// Shared handle to a [`Pager`]. All data structures in this workspace take
/// one of these so a single simulated disk backs the whole database.
pub type SharedPager = Arc<Pager>;

/// Acquire `m`, recovering from poisoning. Crash injection intentionally
/// panics (`CrashSignal`, typed [`PagerError`] payloads) while locks are
/// held; harnesses catch the unwind and then inspect the surviving state
/// (`disk_image`, recovery), so a poisoned lock must keep serving — the
/// guarded state is crash-consistent by construction. This is the
/// workspace's canonical lock-acquisition helper; the lock-discipline lint
/// (BX015–BX017) recognizes it as an acquisition site.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Pager {
    /// Acquire the pager lock (poison-recovering; see [`lock_unpoisoned`]).
    fn lock(&self) -> MutexGuard<'_, PagerInner> {
        lock_unpoisoned(&self.inner)
    }
    /// Create a pager with the given configuration.
    pub fn new(config: PagerConfig) -> SharedPager {
        assert!(config.block_size >= 16, "block size unreasonably small");
        let table: TableRef = Arc::new(PageTable::new());
        let backend = match &config.file {
            None => Backend::Memory(TableRef::clone(&table)),
            Some(path) => Backend::File(
                file::FileStore::create(path, config.block_size)
                    .unwrap_or_else(|e| panic!("cannot create pager file {path:?}: {e}")),
            ),
        };
        Arc::new(Pager {
            id: next_pager_id(),
            block_size: config.block_size,
            table,
            inner: Mutex::new(PagerInner {
                backend,
                free: Vec::new(),
                stats: IoStats::default(),
                pool: BufferPool::new(config.pool_capacity, config.pool_policy),
                journal: None,
                fault: None,
                txn: TxnState::default(),
                overlay: Overlay::default(),
                retry: RetryPolicy::default(),
                degraded: None,
                degraded_entries: 0,
                snap: SnapState::default(),
                scrub_cursor: 0,
            }),
            view: None,
        })
    }

    /// Reconstruct a pager from a crash-recovered [`DiskImage`] and the
    /// committed free list; the pager starts unjournaled with zeroed
    /// counters. Every block's stored checksum must match its data (the
    /// WAL's `recover` checks or computes each one): the frames keep those
    /// checksums and start verified, so nothing is hashed again here.
    pub fn from_image(image: DiskImage, free: Vec<u32>) -> SharedPager {
        debug_assert!(
            image.blocks.iter().flatten().all(DiskBlock::intact),
            "from_image: a block's stored checksum does not match its data"
        );
        let blocks = image
            .blocks
            .into_iter()
            .map(|slot| slot.map(|b| (b.data, b.crc)))
            .collect();
        let table: TableRef = Arc::new(PageTable::from_blocks(blocks));
        Arc::new(Pager {
            id: next_pager_id(),
            block_size: image.block_size,
            table: TableRef::clone(&table),
            inner: Mutex::new(PagerInner {
                backend: Backend::Memory(table),
                free,
                stats: IoStats::default(),
                pool: BufferPool::disabled(),
                journal: None,
                fault: None,
                txn: TxnState::default(),
                overlay: Overlay::default(),
                retry: RetryPolicy::default(),
                degraded: None,
                degraded_entries: 0,
                snap: SnapState::default(),
                scrub_cursor: 0,
            }),
            view: None,
        })
    }

    /// Snapshot the backend as it would survive process death *right now*:
    /// applied blocks with their stored checksums. Buffered transaction
    /// state and the group-commit overlay are volatile and excluded, like
    /// the contents of a dead process's heap.
    #[must_use]
    pub fn disk_image(&self) -> DiskImage {
        let mut inner = self.lock();
        let len = inner.backend.len();
        let mut blocks = Vec::with_capacity(len);
        for idx in 0..len {
            let id = BlockId(codec::usize_to_u32(idx).unwrap_or(u32::MAX));
            blocks.push(
                inner
                    .backend
                    .raw(id, self.block_size)
                    .map(|(data, crc)| DiskBlock { data, crc }),
            );
        }
        DiskImage {
            block_size: self.block_size,
            blocks,
        }
    }

    /// Attach a write-ahead journal. From now on every mutation must happen
    /// inside a [`TxnScope`]; dirty blocks are buffered and handed to the
    /// journal as one atomic [`TxnRecord`] per outermost scope.
    ///
    /// # Panics
    /// Panics if a buffer pool is configured (the journal's write-ahead
    /// guarantee is defined against the paper's pool-off setup) or if a
    /// transaction is already open.
    pub fn attach_journal(&self, journal: Arc<dyn Journal>) {
        assert!(self.view.is_none(), "snapshot views are read-only");
        let mut inner = self.lock();
        assert_eq!(
            inner.pool.capacity(),
            0,
            "journal requires the buffer pool to be disabled (paper setup)"
        );
        assert_eq!(inner.txn.depth, 0, "journal attached mid-transaction");
        inner.journal = Some(journal);
    }

    /// Attach a crash/torn-write fault injector consulted on every applied
    /// backend block write.
    pub fn attach_fault_injector(&self, fault: Arc<dyn FaultInjector>) {
        self.lock().fault = Some(fault);
    }

    /// Whether a journal is attached.
    pub fn journaled(&self) -> bool {
        self.lock().journal.is_some()
    }

    /// Open an operation-scoped transaction. Nested calls return nested
    /// scopes; only the outermost commits. Without an attached journal this
    /// is pure bookkeeping and changes nothing about pager behavior.
    pub fn txn(self: &Arc<Self>) -> TxnScope {
        assert!(self.view.is_none(), "snapshot views are read-only");
        self.lock().txn.depth += 1;
        TxnScope {
            pager: Arc::clone(self),
        }
    }

    /// Stage a named structure-state blob into the open transaction. The
    /// closure is only evaluated while a journal is attached and a scope is
    /// open, so unjournaled callers pay nothing. Later stages under the same
    /// name within one transaction overwrite earlier ones.
    pub fn txn_meta(&self, name: &str, bytes: impl FnOnce() -> Vec<u8>) {
        let needed = {
            let inner = self.lock();
            inner.journal.is_some() && inner.txn.depth > 0
        };
        if needed {
            let blob = bytes();
            self.lock().txn.metas.insert(name.to_string(), blob);
        }
    }

    fn abort_txn(&self) {
        let mut inner = self.lock();
        inner.txn.depth = inner.txn.depth.saturating_sub(1);
        if inner.txn.depth == 0 {
            inner.txn.cache.clear();
            inner.txn.fresh.clear();
            inner.txn.freed.clear();
            inner.txn.metas.clear();
        }
    }

    fn end_txn(&self) {
        let (journal, record) = {
            let mut inner = self.lock();
            assert!(inner.txn.depth > 0, "transaction scope underflow");
            inner.txn.depth -= 1;
            if inner.txn.depth > 0 {
                return;
            }
            let Some(journal) = inner.journal.clone() else {
                return;
            };
            if inner.degraded.is_some() {
                // Read-only: mutations were rejected up front, so the record
                // is empty; committing it anyway would let the journal
                // checkpoint while the overlay still parks unapplied frames.
                return;
            }
            let record = Self::drain_txn(&mut inner);
            (journal, record)
        };
        let ack = journal.commit(&record);
        let applied_ok = {
            let mut inner = self.lock();
            match ack {
                JournalAck::Durable => {
                    // Merge the overlay (older) with this record (newer)
                    // into a single apply batch so one backend pass either
                    // drains everything or parks the unapplied remainder
                    // atomically.
                    let overlay = std::mem::take(&mut inner.overlay);
                    let mut frames = overlay.frames;
                    let mut freed = overlay.freed;
                    for frame in record.frames {
                        frames.insert(frame.block.0, frame.after);
                    }
                    freed.extend(record.freed);
                    let ok =
                        Self::apply_frames(&mut inner, &self.table, frames, freed, self.block_size)
                            .is_ok();
                    if ok {
                        // Group-commit boundary: log durable, frames applied —
                        // publish a fresh snapshot epoch carrying every staged
                        // meta blob plus this record's.
                        Self::publish_epoch(&mut inner, record.metas);
                    } else {
                        // The apply parked frames in the overlay (degraded);
                        // the metas stay pending and publish with the frames
                        // when try_resume re-applies them.
                        Self::stage_pending_metas(&mut inner, record.metas);
                    }
                    ok
                }
                JournalAck::Deferred => {
                    for frame in record.frames {
                        inner.overlay.frames.insert(frame.block.0, frame.after);
                    }
                    for id in record.freed {
                        inner.overlay.frames.remove(&id.0);
                        inner.overlay.freed.push(id);
                    }
                    Self::stage_pending_metas(&mut inner, record.metas);
                    false
                }
                JournalAck::Lost => {
                    // fsyncgate: the log tail (this record and any earlier
                    // deferred ones) will never be durable. The frames are
                    // parked so in-process reads stay correct, but the
                    // backend must never see these unlogged after-images —
                    // the pager degrades and `try_resume` refuses while
                    // the journal reports unhealthy.
                    for frame in record.frames {
                        inner.overlay.frames.insert(frame.block.0, frame.after);
                    }
                    for id in record.freed {
                        inner.overlay.frames.remove(&id.0);
                        inner.overlay.freed.push(id);
                    }
                    Self::stage_pending_metas(&mut inner, record.metas);
                    Self::enter_degraded(&mut inner, DegradedReason::JournalFault);
                    false
                }
            }
        };
        if applied_ok {
            journal.applied();
        }
    }

    /// Drain the buffered transaction into a record, appending the pager's
    /// own allocator state (post-apply backend length and free list) as the
    /// `"pager"` meta blob.
    fn drain_txn(inner: &mut PagerInner) -> TxnRecord {
        let cache = std::mem::take(&mut inner.txn.cache);
        let fresh = std::mem::take(&mut inner.txn.fresh);
        let freed = std::mem::take(&mut inner.txn.freed);
        let mut metas: Vec<(String, Vec<u8>)> =
            std::mem::take(&mut inner.txn.metas).into_iter().collect();
        let frames: Vec<TxnFrame> = cache
            .into_iter()
            .map(|(raw, entry)| TxnFrame {
                block: BlockId(raw),
                before: if fresh.contains(&raw) {
                    None
                } else {
                    entry.before
                },
                after: entry.data,
            })
            .collect();
        let mut meta = codec::VecWriter::new();
        meta.u64(codec::usize_to_u64(inner.backend.len()));
        let free_after: Vec<u32> = inner
            .free
            .iter()
            .copied()
            .chain(inner.overlay.freed.iter().map(|id| id.0))
            .chain(freed.iter().map(|id| id.0))
            .collect();
        meta.u32(codec::usize_to_u32(free_after.len()).expect("free list fits u32"));
        for raw in free_after {
            meta.u32(raw);
        }
        metas.push(("pager".to_string(), meta.into_bytes()));
        TxnRecord {
            frames,
            freed,
            metas,
        }
    }

    /// Apply after-images and deferred frees to the backend through the
    /// checked write path. On a write fault that survives the retry budget
    /// the failing frame and every not-yet-applied one are parked back in
    /// the volatile overlay (reads stay correct — the overlay is consulted
    /// first) and the pager enters [`Health::Degraded`]; a later
    /// [`Pager::try_resume`] re-attempts the apply.
    fn apply_frames(
        inner: &mut PagerInner,
        table: &PageTable,
        mut frames: std::collections::BTreeMap<u32, Box<[u8]>>,
        mut freed: Vec<BlockId>,
        block_size: usize,
    ) -> Result<(), DegradedReason> {
        while let Some((raw, data)) = frames.pop_first() {
            let id = BlockId(raw);
            Self::freeze_for_pins(inner, table, id, block_size);
            if let Err((data, reason)) = Self::write_block_checked(inner, id, data) {
                frames.insert(raw, data);
                inner.overlay.frames.append(&mut frames);
                inner.overlay.freed.append(&mut freed);
                Self::enter_degraded(inner, reason);
                return Err(reason);
            }
        }
        for id in freed {
            Self::freeze_for_pins(inner, table, id, block_size);
            inner.backend.deallocate(id);
            inner.free.push(id.0);
        }
        Ok(())
    }

    /// Copy-on-write hook for snapshot isolation: before a block is
    /// overwritten or deallocated, freeze its current backend image for any
    /// pinned snapshot epoch that could still read it. No-op when no epoch
    /// is pinned, when the newest frozen version already covers the current
    /// epoch, when the block was never materialized, or when the on-media
    /// image fails its checksum (a corrupt image is not worth preserving —
    /// snapshot reads then fall back to the repaired backend path).
    fn freeze_for_pins(inner: &mut PagerInner, table: &PageTable, id: BlockId, block_size: usize) {
        if inner.snap.pins.is_empty() {
            return;
        }
        let epoch = inner.snap.epoch;
        match &inner.backend {
            // Memory backend: the frame lives in the table already, so the
            // freeze is a single shard-atomic copy-on-write step.
            Backend::Memory(_) => table.freeze_image(id.0, epoch),
            // File backend: read the on-media image here (under the
            // coordinator) and park it in the table's version store.
            Backend::File(_) => {
                if table.newest_version_covers(id.0, epoch) {
                    return;
                }
                let Some((data, crc)) = inner.backend.raw(id, block_size) else {
                    return;
                };
                if codec::crc32(&data) != crc {
                    return;
                }
                table.push_version(id.0, epoch, data);
            }
        }
    }

    /// Advance the snapshot epoch at a group-commit boundary: the journal is
    /// durable and every frame of the committed prefix has been applied (or
    /// frozen for pinned readers first), so new snapshots may now observe
    /// it. Publishes staged pending metas plus `metas` into the immutable
    /// published-meta map that new snapshots clone.
    fn publish_epoch(inner: &mut PagerInner, metas: Vec<(String, Vec<u8>)>) {
        let mut map = (*inner.snap.published_metas).clone();
        for (name, bytes) in std::mem::take(&mut inner.snap.pending_metas) {
            map.insert(name, bytes);
        }
        for (name, bytes) in metas {
            map.insert(name, bytes);
        }
        inner.snap.published_metas = Arc::new(map);
        inner.snap.epoch += 1;
    }

    /// Stage meta blobs from a commit whose frames have not all reached the
    /// backend (group-commit deferral or a degraded apply). They publish
    /// together with the frames at the next boundary, keeping snapshot metas
    /// and snapshot frames atomic.
    fn stage_pending_metas(inner: &mut PagerInner, metas: Vec<(String, Vec<u8>)>) {
        for (name, bytes) in metas {
            inner.snap.pending_metas.insert(name, bytes);
        }
    }

    /// Drop frozen versions no pinned epoch can still read (the window
    /// arithmetic lives in [`PageTable::reclaim_versions`]). Runs under the
    /// coordinator after every unpin.
    fn reclaim_versions(inner: &mut PagerInner, table: &PageTable) {
        table.reclaim_versions(&inner.snap.pins);
    }

    /// Transition to read-only service. Idempotent: the first reason wins
    /// and later faults while already degraded are not counted again.
    fn enter_degraded(inner: &mut PagerInner, reason: DegradedReason) {
        if inner.degraded.is_none() {
            inner.degraded = Some(reason);
            inner.degraded_entries += 1;
        }
    }

    /// One backend block write under the fault injector and the retry
    /// policy. Transient errors and short writes are retried with
    /// deterministic exponential tick backoff; a fault that outlives the
    /// budget hands the unwritten image back to the caller. `TearAndCrash`
    /// and `Crash` keep their process-death semantics ([`CrashSignal`]).
    #[allow(clippy::type_complexity)]
    fn write_block_checked(
        inner: &mut PagerInner,
        id: BlockId,
        data: Box<[u8]>,
    ) -> Result<(), (Box<[u8]>, DegradedReason)> {
        let fault = inner.fault.clone();
        let policy = inner.retry;
        let mut retry = 0u32;
        loop {
            let action = fault
                .as_ref()
                .map_or(WriteFault::Proceed, |f| f.on_block_write(id));
            match action {
                WriteFault::Proceed => break,
                WriteFault::Latency(ticks) => {
                    inner.stats.backoff_ticks += ticks;
                    break;
                }
                WriteFault::TearAndCrash(prefix) => {
                    inner.backend.write_torn(id, &data, prefix);
                    std::panic::panic_any(CrashSignal);
                }
                WriteFault::Crash => std::panic::panic_any(CrashSignal),
                WriteFault::ShortWrite(prefix) => {
                    // The media now holds a stale-checksum prefix; the retry
                    // below rewrites the full block over it.
                    inner.backend.write_torn(id, &data, prefix);
                }
                WriteFault::TransientError | WriteFault::PersistentError => {}
            }
            if retry >= policy.budget {
                return Err((data, DegradedReason::WriteFault { block: id }));
            }
            retry += 1;
            inner.stats.retries += 1;
            inner.stats.backoff_ticks += policy.backoff_ticks(retry);
        }
        inner.backend.write(id, data);
        Ok(())
    }

    /// One backend block read under the fault injector and the retry
    /// policy. `consult_faults` is `false` on bookkeeping peeks (before-image
    /// capture) so they cannot shift the fault plan's deterministic attempt
    /// counters. A checksum mismatch — whether injected bit rot or found on
    /// the media — goes through [`Pager::repair_block`].
    fn read_block_checked(
        inner: &mut PagerInner,
        id: BlockId,
        block_size: usize,
        consult_faults: bool,
    ) -> Result<Box<[u8]>, PagerError> {
        let fault = if consult_faults {
            inner.fault.clone()
        } else {
            None
        };
        let policy = inner.retry;
        let mut retry = 0u32;
        loop {
            let action = fault
                .as_ref()
                .map_or(ReadFault::Proceed, |f| f.on_block_read(id));
            let attempt_failed = match action {
                ReadFault::Proceed => false,
                ReadFault::Latency(ticks) => {
                    inner.stats.backoff_ticks += ticks;
                    false
                }
                ReadFault::BitFlip { offset, mask } => {
                    // The injected rot lands on the media itself; the read
                    // below sees the mismatch and takes the repair path.
                    inner.backend.corrupt(id, offset, mask, block_size);
                    false
                }
                ReadFault::TransientError | ReadFault::PersistentError => true,
            };
            if !attempt_failed {
                match inner.backend.try_read(id, block_size) {
                    Ok(data) => return Ok(data),
                    Err(ReadFailure::Unallocated) => panic!("read of unallocated {id:?}"),
                    Err(ReadFailure::Checksum) => return Self::repair_block(inner, id, block_size),
                    Err(ReadFailure::Io) => {}
                }
            }
            if retry >= policy.budget {
                return Err(PagerError::Io {
                    block: id,
                    attempts: retry + 1,
                });
            }
            retry += 1;
            inner.stats.retries += 1;
            inner.stats.backoff_ticks += policy.backoff_ticks(retry);
        }
    }

    /// Read-repair: reconstruct a checksum-mismatched block from the journal
    /// (checkpoint image + redo replay), rewrite it in place, and answer the
    /// read from the reconstructed image. Without a repair source the pager
    /// degrades with [`DegradedReason::Unrepairable`] and the read fails
    /// loudly — never a silently wrong answer.
    fn repair_block(
        inner: &mut PagerInner,
        id: BlockId,
        block_size: usize,
    ) -> Result<Box<[u8]>, PagerError> {
        let image = inner.journal.as_ref().and_then(|j| j.repair_image(id));
        match image {
            Some(data) if data.len() == block_size => {
                inner.stats.repairs += 1;
                if let Err((_, reason)) = Self::write_block_checked(inner, id, data.clone()) {
                    // The read is still answered from the log image; only
                    // write service is lost.
                    Self::enter_degraded(inner, reason);
                }
                Ok(data)
            }
            _ => {
                let reason = DegradedReason::Unrepairable { block: id };
                Self::enter_degraded(inner, reason);
                Err(PagerError::Corrupt { block: id })
            }
        }
    }

    /// Pager with default 8 KB blocks and caching off — the paper setup.
    pub fn default_paper() -> SharedPager {
        Self::new(PagerConfig::default())
    }

    /// Open a file-backed pager at `path`, creating a fresh file when none
    /// exists. On reopen the header is validated, the allocation bitmap and
    /// free list are rebuilt from the per-slot trailers, and all surviving
    /// data is readable again.
    pub fn open_file(
        path: impl AsRef<std::path::Path>,
        block_size: usize,
    ) -> Result<SharedPager, FileError> {
        let path = path.as_ref();
        let store = if path.exists() {
            file::FileStore::open(path, block_size)?
        } else {
            file::FileStore::create(path, block_size)?
        };
        let free = store
            .free_indices()
            .into_iter()
            .map(|idx| codec::usize_to_u32(idx).unwrap_or(u32::MAX))
            .collect();
        Ok(Arc::new(Pager {
            id: next_pager_id(),
            block_size,
            table: Arc::new(PageTable::new()),
            inner: Mutex::new(PagerInner {
                backend: Backend::File(store),
                free,
                stats: IoStats::default(),
                pool: BufferPool::disabled(),
                journal: None,
                fault: None,
                txn: TxnState::default(),
                overlay: Overlay::default(),
                retry: RetryPolicy::default(),
                degraded: None,
                degraded_entries: 0,
                snap: SnapState::default(),
                scrub_cursor: 0,
            }),
            view: None,
        }))
    }

    /// Size of every block in bytes.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Whether `id` is allocated from the current transaction's point of
    /// view: backend-allocated and not deferred-freed by the open scope or
    /// the group-commit overlay.
    fn txn_is_allocated(inner: &PagerInner, id: BlockId) -> bool {
        inner.backend.is_allocated(id)
            && !inner.txn.freed.contains(&id)
            && !inner.overlay.freed.contains(&id)
    }

    /// Uncharged peek at a block's current committed-or-buffered content,
    /// used only to capture before-images (bookkeeping, not a paper I/O).
    /// Skips fault consultation — bookkeeping must not advance the fault
    /// plan — but still read-repairs media corruption it trips over.
    fn peek(
        inner: &mut PagerInner,
        id: BlockId,
        block_size: usize,
    ) -> Result<Box<[u8]>, PagerError> {
        if let Some(data) = inner.overlay.frames.get(&id.0) {
            return Ok(data.clone());
        }
        Self::read_block_checked(inner, id, block_size, false)
    }

    /// Allocate a zeroed block. Recycles freed ids first so the file stays
    /// compact (the paper assumes a compact LIDF).
    ///
    /// # Panics
    /// With a journal attached, panics when called outside a [`TxnScope`]:
    /// every mutation must belong to a recoverable operation. While degraded
    /// (read-only), panics with a typed [`PagerError::Degraded`] payload.
    pub fn alloc(&self) -> BlockId {
        assert!(self.view.is_none(), "snapshot views are read-only");
        let mut inner = self.lock();
        if let Some(reason) = inner.degraded {
            std::panic::panic_any(PagerError::Degraded(reason));
        }
        inner.stats.allocs += 1;
        if inner.journal.is_some() {
            assert!(
                inner.txn.depth > 0,
                "journaled pager: alloc outside a TxnScope"
            );
        }
        let id = if let Some(idx) = inner.free.pop() {
            // Safe even pre-commit: the free list only holds blocks whose
            // deallocation has been applied, so the eager zero-fill can
            // never destroy committed live data.
            inner.backend.reuse_zeroed(BlockId(idx), self.block_size);
            BlockId(idx)
        } else {
            let idx = inner.backend.len();
            assert!(
                idx < codec::u32_to_usize(u32::MAX),
                "pager address space exhausted"
            );
            inner.backend.push_zeroed(self.block_size);
            BlockId(codec::usize_to_u32(idx).unwrap_or(u32::MAX))
        };
        if inner.journal.is_some() {
            inner.txn.fresh.insert(id.0);
            inner.txn.cache.insert(
                id.0,
                TxnEntry {
                    before: None,
                    data: vec![0u8; self.block_size].into_boxed_slice(),
                },
            );
        }
        id
    }

    /// Release a block. The id may be recycled by a later [`Pager::alloc`].
    ///
    /// Under a journal the deallocation is deferred to commit-apply time so
    /// a crash before the commit record is durable cannot have destroyed the
    /// committed contents.
    ///
    /// # Panics
    /// Panics if the block is not currently allocated (double free), or if a
    /// journal is attached and no [`TxnScope`] is open. While degraded
    /// (read-only), panics with a typed [`PagerError::Degraded`] payload.
    pub fn free(&self, id: BlockId) {
        assert!(self.view.is_none(), "snapshot views are read-only");
        let mut inner = self.lock();
        if let Some(reason) = inner.degraded {
            std::panic::panic_any(PagerError::Degraded(reason));
        }
        if inner.pool.is_pinned(id) {
            // A pinned frame is promised to stay readable; freeing the block
            // under it would break that promise, so it is a typed error.
            std::panic::panic_any(PagerError::Pinned { block: id });
        }
        inner.stats.frees += 1;
        // Drop any cached copy; a dirty cached copy of a freed block is dead
        // data, so it is discarded without a write-back.
        inner.pool.discard(id);
        if inner.journal.is_some() {
            assert!(
                inner.txn.depth > 0,
                "journaled pager: free outside a TxnScope"
            );
            assert!(
                Self::txn_is_allocated(&inner, id),
                "double free or out-of-range free of {id:?}"
            );
            inner.txn.cache.remove(&id.0);
            inner.txn.fresh.remove(&id.0);
            inner.txn.freed.push(id);
            return;
        }
        assert!(
            inner.backend.is_allocated(id),
            "double free or out-of-range free of {id:?}"
        );
        Self::freeze_for_pins(&mut inner, &self.table, id, self.block_size);
        inner.backend.deallocate(id);
        inner.free.push(id.0);
    }

    /// Read a block, returning an owned copy of its contents.
    ///
    /// Costs one read I/O unless the buffer pool holds the block. Under a
    /// journal, reads inside a scope that hit the transaction's own dirty
    /// buffer are still charged one read — the buffer exists for atomicity,
    /// not caching, and accounting must match the unjournaled pager.
    ///
    /// # Panics
    /// On a disk fault that survives retry and repair, panics with a typed
    /// [`PagerError`] payload (catch and classify with
    /// `std::panic::catch_unwind`, like [`CrashSignal`]); use
    /// [`Pager::try_read`] for a `Result` instead. Panics on reads of
    /// unallocated blocks (caller contract violation).
    pub fn read(&self, id: BlockId) -> Box<[u8]> {
        match self.read_impl(id) {
            Ok(data) => data,
            Err(err) => std::panic::panic_any(err),
        }
    }

    /// Fallible twin of [`Pager::read`]: a disk fault that survives retry
    /// and repair comes back as a typed [`PagerError`] instead of a panic.
    /// Still panics on reads of unallocated blocks (contract violation, not
    /// a disk fault). Reads keep working while degraded.
    pub fn try_read(&self, id: BlockId) -> Result<Box<[u8]>, PagerError> {
        self.read_impl(id)
    }

    fn read_impl(&self, id: BlockId) -> Result<Box<[u8]>, PagerError> {
        if let Some(view) = &self.view {
            // Charge this view's own stats first (own lock, fully released),
            // then consult the base pager — sequential acquisitions, never
            // nested, so the shared lock identity stays acyclic.
            self.charge_view_read();
            return view.base.snapshot_read_raw(id, view.epoch);
        }
        let mut inner = self.lock();
        if inner.journal.is_some() {
            inner.stats.reads += 1;
            assert!(
                Self::txn_is_allocated(&inner, id),
                "read of unallocated {id:?}"
            );
            if let Some(entry) = inner.txn.cache.get(&id.0) {
                return Ok(entry.data.clone());
            }
            if let Some(data) = inner.overlay.frames.get(&id.0) {
                return Ok(data.clone());
            }
            return Self::read_block_checked(&mut inner, id, self.block_size, true);
        }
        if let Some(data) = inner.pool.get(id) {
            return Ok(data);
        }
        let data = Self::read_block_checked(&mut inner, id, self.block_size, true)?;
        inner.stats.reads += 1;
        if let Some((evicted, dirty)) = inner
            .pool
            .insert_clean(id, data.clone())
            .map_err(|_| PagerError::Pinned { block: id })?
        {
            Self::freeze_for_pins(&mut inner, &self.table, evicted, self.block_size);
            Self::write_back(&mut inner, evicted, dirty)?;
        }
        Ok(data)
    }

    /// Write a block's contents.
    ///
    /// Costs one write I/O immediately when caching is off; with a buffer
    /// pool the write is absorbed and charged on eviction or [`Pager::flush`].
    /// Under a journal the write is buffered in the open [`TxnScope`] (still
    /// charged now, so accounting matches the unjournaled pager) and reaches
    /// the backend only after the commit record is durable.
    ///
    /// # Panics
    /// While degraded, or on a disk fault that survives the retry budget,
    /// panics with a typed [`PagerError`] payload; use [`Pager::try_write`]
    /// for a `Result`. Panics on writes to unallocated blocks or (journaled)
    /// outside a [`TxnScope`] — contract violations.
    pub fn write(&self, id: BlockId, data: &[u8]) {
        if let Err(err) = self.write_impl(id, data) {
            std::panic::panic_any(err);
        }
    }

    /// Fallible twin of [`Pager::write`]: degraded-mode rejections and disk
    /// faults that survive the retry budget come back as typed
    /// [`PagerError`]s instead of panics. Contract violations still panic.
    pub fn try_write(&self, id: BlockId, data: &[u8]) -> Result<(), PagerError> {
        self.write_impl(id, data)
    }

    fn write_impl(&self, id: BlockId, data: &[u8]) -> Result<(), PagerError> {
        assert!(self.view.is_none(), "snapshot views are read-only");
        assert_eq!(data.len(), self.block_size, "write of wrong-sized block");
        let mut inner = self.lock();
        if let Some(reason) = inner.degraded {
            return Err(PagerError::Degraded(reason));
        }
        if inner.journal.is_some() {
            assert!(
                inner.txn.depth > 0,
                "journaled pager: write outside a TxnScope"
            );
            assert!(
                Self::txn_is_allocated(&inner, id),
                "write to unallocated {id:?}"
            );
            inner.stats.writes += 1;
            let boxed = data.to_vec().into_boxed_slice();
            if let Some(entry) = inner.txn.cache.get_mut(&id.0) {
                entry.data = boxed;
            } else {
                let before = Some(Self::peek(&mut inner, id, self.block_size)?);
                inner.txn.cache.insert(
                    id.0,
                    TxnEntry {
                        before,
                        data: boxed,
                    },
                );
            }
            return Ok(());
        }
        assert!(
            inner.backend.is_allocated(id),
            "write to unallocated {id:?}"
        );
        if inner.pool.capacity() == 0 {
            inner.stats.writes += 1;
            Self::freeze_for_pins(&mut inner, &self.table, id, self.block_size);
            let boxed = data.to_vec().into_boxed_slice();
            if let Err((_, reason)) = Self::write_block_checked(&mut inner, id, boxed) {
                Self::enter_degraded(&mut inner, reason);
                return Err(PagerError::Degraded(reason));
            }
            return Ok(());
        }
        if let Some((evicted, dirty)) = inner
            .pool
            .insert_dirty(id, data.to_vec().into_boxed_slice())
            .map_err(|_| PagerError::Pinned { block: id })?
        {
            Self::freeze_for_pins(&mut inner, &self.table, evicted, self.block_size);
            Self::write_back(&mut inner, evicted, dirty)?;
        }
        Ok(())
    }

    fn write_back(inner: &mut PagerInner, id: BlockId, data: Box<[u8]>) -> Result<(), PagerError> {
        inner.stats.writes += 1;
        if let Err((_, reason)) = Self::write_block_checked(inner, id, data) {
            // Unjournaled pool write-back has no overlay to park in: the
            // dirty image is lost, which is exactly why the failure is loud.
            Self::enter_degraded(inner, reason);
            return Err(PagerError::Degraded(reason));
        }
        Ok(())
    }

    /// Flush all dirty pooled blocks to the backing store, charging writes.
    ///
    /// # Panics
    /// Panics with a typed [`PagerError`] payload when a write-back fault
    /// survives the retry budget.
    pub fn flush(&self) {
        let mut inner = self.lock();
        for (id, data) in inner.pool.take_dirty() {
            if let Err(err) = Self::write_back(&mut inner, id, data) {
                std::panic::panic_any(err);
            }
        }
    }

    /// Drop every pooled block, writing back dirty ones first.
    pub fn clear_pool(&self) {
        self.flush();
        self.lock().pool.clear();
    }

    /// Snapshot of the I/O counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.lock().stats
    }

    /// One snapshot of everything this handle has counted: its I/O, its
    /// buffer-pool hits and its journal's activity. Costs one pager lock
    /// and one [`Journal::counters`] call.
    #[must_use]
    pub fn counters(&self) -> PagerCounters {
        let inner = self.lock();
        PagerCounters {
            io: inner.stats,
            cache_hits: inner.pool.stats().hits,
            journal: inner
                .journal
                .as_ref()
                .map_or_else(JournalCounters::default, |j| j.counters()),
        }
    }

    /// Process-unique id of this handle; a snapshot view has its own. Trace
    /// tallies are kept under it.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current service state: [`Health::Ok`], or [`Health::Degraded`] after
    /// an unrecoverable fault (reads keep working; mutations fail fast).
    #[must_use]
    pub fn health(&self) -> Health {
        match self.lock().degraded {
            None => Health::Ok,
            Some(reason) => Health::Degraded(reason),
        }
    }

    /// How many times this pager has entered degraded mode (ablation and
    /// chaos-sweep metric; re-entering after a successful resume counts
    /// again).
    #[must_use]
    pub fn degraded_entries(&self) -> u64 {
        self.lock().degraded_entries
    }

    /// Attempt to leave degraded mode: re-apply every parked overlay frame
    /// and deferred free through the checked write path. On success the
    /// pager returns to normal service and the journal gets its deferred
    /// checkpoint opportunity; if the disk still faults, the remainder is
    /// parked again and the original [`PagerError::Degraded`] is returned.
    pub fn try_resume(&self) -> Result<(), PagerError> {
        let journal = {
            let mut inner = self.lock();
            let Some(reason) = inner.degraded else {
                return Ok(());
            };
            // A poisoned journal never heals: its parked frames have no
            // durable log records, so re-applying them would put unlogged
            // after-images on the backend — silent divergence after the
            // next crash. Recovery from the durable prefix is the only
            // way out of a journal fault.
            if inner.journal.as_ref().is_some_and(|j| !j.healthy()) {
                return Err(PagerError::Degraded(reason));
            }
            let overlay = std::mem::take(&mut inner.overlay);
            if Self::apply_frames(
                &mut inner,
                &self.table,
                overlay.frames,
                overlay.freed,
                self.block_size,
            )
            .is_err()
            {
                return Err(PagerError::Degraded(reason));
            }
            inner.degraded = None;
            // The parked prefix is now fully on the backend: publish it (and
            // its staged metas) as a fresh snapshot epoch.
            Self::publish_epoch(&mut inner, Vec::new());
            inner.journal.clone()
        };
        if let Some(journal) = journal {
            journal.applied();
        }
        Ok(())
    }

    /// Replace the transient-fault retry policy (defaults to
    /// [`RetryPolicy::default`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.lock().retry = policy;
    }

    /// The transient-fault retry policy in effect.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.lock().retry
    }

    /// Flip `mask` into the stored byte at `offset` of block `id`, leaving
    /// the stored checksum stale — simulated media rot for fault drills
    /// (`boxes_core::faultlib`, the chaos sweep). No-op if the block is not
    /// allocated or `offset` is out of range. Not an accounted I/O.
    pub fn corrupt_block(&self, id: BlockId, offset: usize, mask: u8) {
        let mut inner = self.lock();
        inner.pool.discard(id);
        inner.backend.corrupt(id, offset, mask, self.block_size);
    }

    /// One increment of the background media scrubber: examine up to
    /// `budget` backend slots starting at the persistent scrub cursor,
    /// verifying each allocated block's stored checksum against its data
    /// (the file backend's slot trailer, the memory backend's page crc).
    /// A mismatch goes through the regular WAL read-repair path
    /// ([`Journal::repair_image`] + rewrite); an unrepairable block is
    /// reported in [`ScrubReport::failed`] and degrades the pager exactly
    /// like a failed foreground read. The cursor survives across calls, so
    /// repeated small-budget calls walk the whole store incrementally —
    /// latent bit rot is found and repaired before a foreground read (or a
    /// post-crash recovery, which has no overlay to hide behind) trips
    /// over it.
    pub fn scrub_step(&self, budget: usize) -> ScrubReport {
        let mut inner = self.lock();
        let mut report = ScrubReport::default();
        let len = inner.backend.len();
        if len == 0 || budget == 0 {
            report.wrapped = true;
            return report;
        }
        for _ in 0..budget.min(len) {
            if inner.scrub_cursor >= len {
                inner.scrub_cursor = 0;
                report.wrapped = true;
            }
            let idx = inner.scrub_cursor;
            inner.scrub_cursor += 1;
            if inner.scrub_cursor >= len {
                inner.scrub_cursor = 0;
                report.wrapped = true;
            }
            let id = BlockId(codec::usize_to_u32(idx).unwrap_or(u32::MAX));
            report.scanned += 1;
            let Some((data, crc)) = inner.backend.raw(id, self.block_size) else {
                continue; // deallocated hole
            };
            if codec::crc32(&data) == crc {
                continue;
            }
            // Stale checksum: scrub it through the foreground repair path.
            inner.pool.discard(id);
            match Self::repair_block(&mut inner, id, self.block_size) {
                Ok(_) => report.repaired += 1,
                Err(_) => report.failed.push(id),
            }
        }
        report
    }

    /// Buffer-pool hit/miss counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.lock().pool.stats()
    }

    /// Per-shard latch counters and occupancy of the sharded page table,
    /// in shard order: acquisition/contention tallies plus resident frame
    /// and frozen-version counts. Lock-free on the coordinator (shard
    /// guards only), so stress harnesses can sample it live.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.table.shard_stats()
    }

    /// Number of currently allocated blocks — the paper's "total space"
    /// metric, in blocks.
    pub fn allocated_blocks(&self) -> usize {
        self.lock().backend.allocated_count()
    }

    /// Whether `id` names a currently allocated block. No I/O is charged:
    /// this inspects allocation metadata, not block contents. Auditors use
    /// it to classify dangling pointers without tripping the read panic.
    /// Under a journal, blocks freed by the open scope or the group-commit
    /// overlay already count as deallocated.
    pub fn is_allocated(&self, id: BlockId) -> bool {
        if id.is_invalid() {
            return false;
        }
        if let Some(view) = &self.view {
            return view.base.snapshot_is_allocated(id, view.epoch);
        }
        Self::txn_is_allocated(&self.lock(), id)
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_blocks() * self.block_size
    }

    // ------------------------------------------------------------------
    // Snapshot isolation (`boxes-session` substrate)
    // ------------------------------------------------------------------

    /// The current published snapshot epoch. Starts at 0 for a fresh pager
    /// and advances by one at every group-commit boundary ([`Pager::end_txn`]
    /// with a synced, fully applied record), successful
    /// [`Pager::try_resume`], and dirty [`Pager::publish_barrier`].
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.lock().snap.epoch
    }

    /// For a snapshot view, the epoch it is pinned to; `None` on a base
    /// pager.
    #[must_use]
    pub fn snapshot_epoch(&self) -> Option<u64> {
        self.view.as_ref().map(|v| v.epoch)
    }

    /// Pin the current published epoch against version reclamation and
    /// return it together with the published meta map (the structure-state
    /// blobs as of that epoch). Each pin must be balanced by one
    /// [`Pager::unpin_epoch`]; [`SnapshotRef`] (and thus every snapshot
    /// view) does this on drop.
    #[must_use]
    pub fn pin_epoch(&self) -> (u64, Arc<std::collections::BTreeMap<String, Vec<u8>>>) {
        let mut inner = self.lock();
        let epoch = inner.snap.epoch;
        *inner.snap.pins.entry(epoch).or_insert(0) += 1;
        (epoch, Arc::clone(&inner.snap.published_metas))
    }

    /// Release one pin on `epoch` and reclaim any frozen block versions no
    /// remaining pin can read. Unbalanced unpins are tolerated (no-op).
    pub fn unpin_epoch(&self, epoch: u64) {
        let mut inner = self.lock();
        if let Some(count) = inner.snap.pins.get_mut(&epoch) {
            *count -= 1;
            if *count == 0 {
                inner.snap.pins.remove(&epoch);
            }
            Self::reclaim_versions(&mut inner, &self.table);
        }
    }

    /// Read block `id` as of pinned snapshot `epoch`: the oldest frozen
    /// version still valid at that epoch wins, else the backend image (which
    /// is correct whenever no later write has touched the block). Charges
    /// nothing here — the snapshot *view* charges its own stats before
    /// calling. Never consults the fault plan: snapshot reads must not shift
    /// the deterministic fault-attempt counters of the main session.
    fn snapshot_read_raw(&self, id: BlockId, epoch: u64) -> Result<Box<[u8]>, PagerError> {
        // Fast path: resolve the read inside one shard — frozen version or
        // a checksum-clean live frame — without touching the coordinator.
        // This is what lets 8 readers on disjoint blocks run latch-parallel.
        if let Some(data) = self.table.snapshot_read(id.0, epoch) {
            return Ok(data);
        }
        // Slow path (under the coordinator): file-backend reads, checksum
        // repair, and the unallocated-block contract panic.
        let mut inner = self.lock();
        if let Some(data) = self.table.snapshot_read(id.0, epoch) {
            // A writer froze or repaired the block between our fast-path
            // miss and taking the coordinator.
            return Ok(data);
        }
        Self::read_block_checked(&mut inner, id, self.block_size, false)
    }

    /// Whether `id` is readable as of pinned snapshot `epoch`: a covering
    /// frozen version exists, or the block is currently allocated (a block
    /// neither frozen nor allocated was freed with no pinned reader needing
    /// it). Used by snapshot views to answer [`Pager::is_allocated`].
    fn snapshot_is_allocated(&self, id: BlockId, epoch: u64) -> bool {
        // Shard-local fast path: a covering version or resident frame is
        // proof of allocation. A miss is inconclusive (file backends keep
        // no frames in the table), so fall back to the coordinator.
        if self.table.snapshot_covers(id.0, epoch) {
            return true;
        }
        let inner = self.lock();
        if self.table.snapshot_covers(id.0, epoch) {
            return true;
        }
        inner.backend.is_allocated(id)
    }

    /// Open a read-only *snapshot view*: a second [`Pager`] whose reads see
    /// the committed state as of the current published epoch, immune to
    /// concurrent writer progress. Returns the view and the published meta
    /// map at that epoch (for reopening structures over the view). The view
    /// has its own [`IoStats`] — per-session I/O attribution — and forwards
    /// block reads to this pager's frozen versions first, backend second.
    /// Dropping the view unpins the epoch.
    ///
    /// # Panics
    /// Panics when called on a pager that is itself a snapshot view.
    pub fn snapshot_view(
        self: &Arc<Self>,
    ) -> (
        SharedPager,
        Arc<std::collections::BTreeMap<String, Vec<u8>>>,
    ) {
        assert!(
            self.view.is_none(),
            "snapshot views cannot be snapshotted again"
        );
        let (epoch, metas) = self.pin_epoch();
        // The view's own table/backend are empty dummies: every read
        // forwards to the base pager's sharded table via the tether.
        let table: TableRef = Arc::new(PageTable::new());
        let view = Arc::new(Pager {
            id: next_pager_id(),
            block_size: self.block_size,
            table: TableRef::clone(&table),
            inner: Mutex::new(PagerInner {
                backend: Backend::Memory(table),
                free: Vec::new(),
                stats: IoStats::default(),
                pool: pool::BufferPool::disabled(),
                fault: None,
                journal: None,
                txn: TxnState::default(),
                overlay: Overlay::default(),
                retry: RetryPolicy::default(),
                degraded: None,
                degraded_entries: 0,
                snap: SnapState::default(),
                scrub_cursor: 0,
            }),
            view: Some(SnapshotRef {
                base: Arc::clone(self),
                epoch,
            }),
        });
        (view, metas)
    }

    /// Charge one read to this snapshot view's own stats. Split into its own
    /// scope so the view's lock is provably released before the base
    /// pager's lock is taken in [`Pager::read_impl`].
    fn charge_view_read(&self) {
        let mut inner = self.lock();
        inner.stats.reads += 1;
    }

    /// Force a group-commit boundary now: ask the journal for a durability
    /// barrier ([`Journal::barrier`]), apply any overlay remainder, and
    /// publish a fresh epoch so snapshots opened afterwards observe every
    /// commit streamed so far. Returns `true` when a new epoch was
    /// published; `false` when there was nothing unpublished, no journal is
    /// attached, a transaction is open, or the pager is degraded.
    pub fn publish_barrier(&self) -> bool {
        let journal = {
            let inner = self.lock();
            if inner.degraded.is_some() || inner.txn.depth > 0 {
                return false;
            }
            let Some(journal) = inner.journal.clone() else {
                return false;
            };
            journal
        };
        match journal.barrier() {
            JournalAck::Durable => {}
            JournalAck::Deferred => return false,
            JournalAck::Lost => {
                let mut inner = self.lock();
                Self::enter_degraded(&mut inner, DegradedReason::JournalFault);
                return false;
            }
        }
        let applied_ok = {
            let mut inner = self.lock();
            let dirty = !inner.overlay.frames.is_empty()
                || !inner.overlay.freed.is_empty()
                || !inner.snap.pending_metas.is_empty();
            if !dirty {
                return false;
            }
            let overlay = std::mem::take(&mut inner.overlay);
            let ok = Self::apply_frames(
                &mut inner,
                &self.table,
                overlay.frames,
                overlay.freed,
                self.block_size,
            )
            .is_ok();
            if ok {
                Self::publish_epoch(&mut inner, Vec::new());
            }
            ok
        };
        if applied_ok {
            journal.applied();
        }
        applied_ok
    }

    /// Pin a pooled frame against eviction (buffer-pool mode only). Returns
    /// `false` when the block is not resident. Balance with
    /// [`Pager::unpin_pooled`]; the audit reports leaked pins.
    pub fn pin_pooled(&self, id: BlockId) -> bool {
        self.lock().pool.pin(id)
    }

    /// Release one eviction pin from a pooled frame. Returns `false` when
    /// the block is not resident or not pinned.
    pub fn unpin_pooled(&self, id: BlockId) -> bool {
        self.lock().pool.unpin(id)
    }
}

impl boxes_audit::Auditable for Pager {
    /// Audit the allocator's bookkeeping: the free list must exactly cover
    /// the deallocated holes in the file (no duplicates, no overlap with
    /// allocated blocks) and the buffer pool must only cache live blocks —
    /// the single-threaded analog of a pin-count leak check.
    fn audit(&self) -> boxes_audit::AuditReport {
        use boxes_audit::{Violation, ViolationKind};
        let inner = self.lock();
        let mut report = boxes_audit::AuditReport::new();
        let len = inner.backend.len();
        let mut seen = std::collections::HashSet::new();
        for (i, &id) in inner.free.iter().enumerate() {
            let path = format!("pager/free[{i}]");
            if codec::u32_to_usize(id) >= len {
                report.push(
                    Violation::new(ViolationKind::FreeListOverlap, path.clone())
                        .at_block(id)
                        .expected(format!("block id < {len}"))
                        .actual(id),
                );
            } else if inner.backend.is_allocated(BlockId(id)) {
                report.push(
                    Violation::new(ViolationKind::FreeListOverlap, path.clone())
                        .at_block(id)
                        .expected("deallocated block")
                        .actual("still allocated in the backend"),
                );
            }
            if !seen.insert(id) {
                report.push(
                    Violation::new(ViolationKind::FreeListDuplicate, path)
                        .at_block(id)
                        .expected("each freed block listed once")
                        .actual("listed again"),
                );
            }
        }
        let holes = len - inner.backend.allocated_count();
        if holes != inner.free.len() {
            report.push(
                Violation::new(ViolationKind::CountMismatch, "pager/free")
                    .expected(format!("{holes} entries (one per deallocated block)"))
                    .actual(inner.free.len()),
            );
        }
        for id in inner.pool.frame_ids() {
            if !inner.backend.is_allocated(id) {
                report.push(
                    Violation::new(ViolationKind::PoolLeak, "pager/pool")
                        .at_block(id.0)
                        .expected("pool frames only for allocated blocks")
                        .actual("frame caches a freed block"),
                );
            }
        }
        // Pin leaks: the audit runs when every session should have closed,
        // so surviving pool pins or snapshot-epoch pins are leaked RAII
        // guards (a dropped-without-unpin bug).
        for id in inner.pool.pinned_ids() {
            report.push(
                Violation::new(ViolationKind::PinLeak, "pager/pool")
                    .at_block(id.0)
                    .expected("zero pool pins at audit time")
                    .actual("frame still pinned against eviction"),
            );
        }
        for (&epoch, &count) in &inner.snap.pins {
            report.push(
                Violation::new(ViolationKind::PinLeak, format!("pager/snap/epoch[{epoch}]"))
                    .expected("zero snapshot pins at audit time")
                    .actual(format!("{count} reader(s) still pinned")),
            );
        }
        // Frozen versions outliving every pin are a reclaim leak: the
        // copy-on-write store must drain once no snapshot can read it.
        if inner.snap.pins.is_empty() && !self.table.versions_empty() {
            report.push(
                Violation::new(ViolationKind::PinLeak, "pager/table/versions")
                    .expected("no frozen versions once all pins are released")
                    .actual("unreclaimed frozen versions in the page table"),
            );
        }
        report
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Pager")
            .field("block_size", &self.block_size)
            .field("blocks", &inner.backend.len())
            .field("free", &inner.free.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager(bs: usize) -> SharedPager {
        Pager::new(PagerConfig::with_block_size(bs))
    }

    #[test]
    fn alloc_returns_zeroed_blocks() {
        let p = pager(64);
        let id = p.alloc();
        assert!(p.read(id).iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let p = pager(64);
        let id = p.alloc();
        let mut data = vec![0u8; 64];
        data[..4].copy_from_slice(&[1, 2, 3, 4]);
        p.write(id, &data);
        assert_eq!(&p.read(id)[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn io_counting_without_pool() {
        let p = pager(64);
        let id = p.alloc();
        let block = p.read(id);
        p.write(id, &block);
        p.read(id);
        let s = p.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn freed_ids_are_recycled() {
        let p = pager(64);
        let a = p.alloc();
        let b = p.alloc();
        p.free(a);
        let c = p.alloc();
        assert_eq!(c, a);
        assert_ne!(c, b);
        assert_eq!(p.allocated_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let p = pager(64);
        let a = p.alloc();
        p.free(a);
        p.free(a);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_after_free_panics() {
        let p = pager(64);
        let a = p.alloc();
        p.free(a);
        p.read(a);
    }

    #[test]
    fn recycled_block_is_zeroed() {
        let p = pager(64);
        let a = p.alloc();
        p.write(a, &[7u8; 64]);
        p.free(a);
        let b = p.alloc();
        assert_eq!(b, a);
        assert!(p.read(b).iter().all(|&x| x == 0));
    }

    #[test]
    fn pool_absorbs_repeated_reads() {
        let p = Pager::new(PagerConfig::with_block_size(64).with_pool(4));
        let id = p.alloc();
        p.read(id);
        p.read(id);
        p.read(id);
        assert_eq!(p.stats().reads, 1, "only the miss costs an I/O");
        assert_eq!(p.pool_stats().hits, 2);
    }

    #[test]
    fn pool_defers_writes_until_flush() {
        let p = Pager::new(PagerConfig::with_block_size(64).with_pool(4));
        let id = p.alloc();
        p.write(id, &[9u8; 64]);
        p.write(id, &[8u8; 64]);
        assert_eq!(p.stats().writes, 0);
        p.flush();
        assert_eq!(p.stats().writes, 1, "coalesced into one write-back");
        // Backing store now has the latest data even on a cold read.
        p.clear_pool();
        assert_eq!(p.read(id)[0], 8);
    }

    #[test]
    fn pool_eviction_charges_dirty_write_back() {
        let p = Pager::new(PagerConfig::with_block_size(64).with_pool(1));
        let a = p.alloc();
        let b = p.alloc();
        p.write(a, &[1u8; 64]);
        assert_eq!(p.stats().writes, 0);
        p.read(b); // evicts dirty `a`
        assert_eq!(p.stats().writes, 1);
        p.clear_pool();
        assert_eq!(p.read(a)[0], 1);
    }

    #[test]
    fn free_discards_dirty_pooled_copy_without_write() {
        let p = Pager::new(PagerConfig::with_block_size(64).with_pool(4));
        let a = p.alloc();
        p.write(a, &[5u8; 64]);
        p.free(a);
        p.flush();
        assert_eq!(p.stats().writes, 0);
    }

    #[test]
    fn allocated_bytes_tracks_blocks() {
        let p = pager(128);
        let a = p.alloc();
        p.alloc();
        assert_eq!(p.allocated_bytes(), 256);
        p.free(a);
        assert_eq!(p.allocated_bytes(), 128);
    }

    /// Test journal capturing every committed record; `sync_every` > 1
    /// simulates group commit by reporting "not yet durable".
    struct MockJournal {
        records: Mutex<Vec<TxnRecord>>,
        sync_every: usize,
        applied: std::sync::atomic::AtomicUsize,
    }

    impl MockJournal {
        fn new(sync_every: usize) -> Arc<Self> {
            Arc::new(Self {
                records: Mutex::new(Vec::new()),
                sync_every,
                applied: std::sync::atomic::AtomicUsize::new(0),
            })
        }

        fn records(&self) -> std::sync::MutexGuard<'_, Vec<TxnRecord>> {
            self.records.lock().unwrap()
        }

        fn applied_count(&self) -> usize {
            self.applied.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Journal for MockJournal {
        fn commit(&self, record: &TxnRecord) -> JournalAck {
            let mut records = self.records();
            records.push(record.clone());
            if records.len().is_multiple_of(self.sync_every) {
                JournalAck::Durable
            } else {
                JournalAck::Deferred
            }
        }

        fn applied(&self) {
            self.applied
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn txn_scope_without_journal_changes_nothing() {
        let p = pager(64);
        let scope = p.txn();
        let inner_scope = p.txn();
        let id = p.alloc();
        p.write(id, &[3u8; 64]);
        drop(inner_scope);
        drop(scope);
        assert_eq!(p.stats().writes, 1);
        assert_eq!(p.read(id)[0], 3);
    }

    #[test]
    fn journaled_commit_logs_one_record_and_applies() {
        let p = pager(64);
        let j = MockJournal::new(1);
        p.attach_journal(j.clone());
        {
            let _txn = p.txn();
            let a = p.alloc();
            let b = p.alloc();
            p.write(a, &[1u8; 64]);
            p.write(b, &[2u8; 64]);
            p.write(a, &[7u8; 64]); // overwrite coalesces into one frame
        }
        let records = j.records();
        assert_eq!(records.len(), 1, "one logical op = one record");
        let rec = &records[0];
        assert_eq!(rec.frames.len(), 2);
        assert!(
            rec.frames.iter().all(|f| f.before.is_none()),
            "fresh allocs"
        );
        assert_eq!(rec.frames[0].after[0], 7, "last write wins");
        assert_eq!(
            rec.metas.last().map(|(n, _)| n.as_str()),
            Some("pager"),
            "allocator state rides along"
        );
        assert_eq!(j.applied_count(), 1);
        // Applied to the backend: readable outside any scope.
        assert_eq!(p.read(BlockId(0))[0], 7);
        assert_eq!(p.read(BlockId(1))[0], 2);
    }

    #[test]
    fn journaled_write_captures_before_image() {
        let p = pager(64);
        let j = MockJournal::new(1);
        p.attach_journal(j.clone());
        let id = {
            let _txn = p.txn();
            let id = p.alloc();
            p.write(id, &[5u8; 64]);
            id
        };
        {
            let _txn = p.txn();
            p.write(id, &[6u8; 64]);
        }
        let records = j.records();
        let before = records[1].frames[0].before.as_ref().expect("has before");
        assert_eq!(before[0], 5);
        assert_eq!(records[1].frames[0].after[0], 6);
    }

    #[test]
    fn abort_on_panic_leaves_backend_untouched() {
        let p = pager(64);
        let j = MockJournal::new(1);
        p.attach_journal(j.clone());
        let id = {
            let _txn = p.txn();
            let id = p.alloc();
            p.write(id, &[9u8; 64]);
            id
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _txn = p.txn();
            p.write(id, &[1u8; 64]);
            std::panic::panic_any(CrashSignal);
        }));
        assert!(result.is_err());
        assert_eq!(j.records().len(), 1, "crashed op never journaled");
        assert_eq!(p.read(id)[0], 9, "backend keeps committed image");
    }

    #[test]
    #[should_panic(expected = "outside a TxnScope")]
    fn journaled_write_outside_scope_panics() {
        let p = pager(64);
        p.attach_journal(MockJournal::new(1));
        let id = {
            let _txn = p.txn();
            p.alloc()
        };
        p.write(id, &[0u8; 64]);
    }

    #[test]
    fn deferred_free_is_not_recycled_within_its_txn() {
        let p = pager(64);
        p.attach_journal(MockJournal::new(1));
        let id = {
            let _txn = p.txn();
            let id = p.alloc();
            p.write(id, &[4u8; 64]);
            id
        };
        {
            let _txn = p.txn();
            p.free(id);
            let fresh = p.alloc();
            assert_ne!(fresh, id, "freed block must not be reused pre-commit");
            assert!(!p.is_allocated(id));
        }
        // After commit the hole is recyclable.
        let _txn = p.txn();
        assert_eq!(p.alloc(), id);
    }

    #[test]
    fn group_commit_defers_apply_until_sync() {
        let p = pager(64);
        let j = MockJournal::new(2); // sync every second commit
        p.attach_journal(j.clone());
        let a = {
            let _txn = p.txn();
            let a = p.alloc();
            p.write(a, &[1u8; 64]);
            a
        };
        // Unsynced: volatile overlay serves reads, the disk image does not
        // have the block contents yet.
        assert_eq!(p.read(a)[0], 1);
        let image = p.disk_image();
        assert!(
            image.blocks[0].as_ref().is_some_and(|b| b.data[0] == 0),
            "backend still zeroed before the sync barrier"
        );
        {
            let _txn = p.txn();
            p.write(a, &[2u8; 64]);
        }
        // Second commit synced: everything applied.
        let image = p.disk_image();
        assert!(image.blocks[0].as_ref().is_some_and(|b| b.data[0] == 2));
        assert_eq!(j.applied_count(), 1);
    }

    #[test]
    fn disk_image_roundtrips_through_from_image() {
        use boxes_audit::Auditable as _;
        let p = pager(64);
        let a = p.alloc();
        let b = p.alloc();
        p.write(a, &[3u8; 64]);
        p.free(b);
        let image = p.disk_image();
        assert!(image.blocks[0].as_ref().is_some_and(DiskBlock::intact));
        assert!(image.blocks[1].is_none(), "hole survives the snapshot");
        let q = Pager::from_image(image, vec![b.0]);
        assert_eq!(q.read(a)[0], 3);
        assert_eq!(q.alloc(), b, "free list restored");
        assert!(q.audit().is_clean());
    }

    #[test]
    fn transient_write_fault_is_retried_within_budget() {
        let p = pager(64);
        let j = MockJournal::new(1);
        p.attach_journal(j);
        let plan = FaultPlan::new(FaultPlanConfig::quiet(11, 64));
        let id = {
            let _txn = p.txn();
            let id = p.alloc();
            p.write(id, &[3u8; 64]);
            id
        };
        p.attach_fault_injector(plan.clone());
        plan.stumble_writes_to(id, 2);
        {
            let _txn = p.txn();
            p.write(id, &[4u8; 64]);
        }
        assert!(p.health().is_ok(), "streak of 2 fits the default budget");
        assert_eq!(p.read(id)[0], 4);
        let s = p.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff_ticks, 1 + 2, "exponential deterministic ticks");
    }

    #[test]
    fn persistent_write_fault_degrades_but_reads_survive() {
        let p = pager(64);
        let j = MockJournal::new(1);
        p.attach_journal(j);
        let plan = FaultPlan::new(FaultPlanConfig::quiet(7, 64));
        let id = {
            let _txn = p.txn();
            let id = p.alloc();
            p.write(id, &[1u8; 64]);
            id
        };
        p.attach_fault_injector(plan.clone());
        plan.fail_writes_to(id);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _txn = p.txn();
            p.write(id, &[2u8; 64]);
        }));
        // The commit succeeded (the record is durable); only the apply
        // faulted, which parks the frame and degrades without panicking.
        assert!(err.is_ok(), "apply failure must not unwind");
        assert!(matches!(
            p.health(),
            Health::Degraded(DegradedReason::WriteFault { .. })
        ));
        assert_eq!(p.degraded_entries(), 1);
        assert_eq!(p.read(id)[0], 2, "overlay-parked image serves reads");
        // Mutations fail fast with the typed error.
        let denied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _txn = p.txn();
            p.write(id, &[9u8; 64]);
        }));
        let payload = denied.expect_err("degraded write must reject");
        assert!(matches!(
            payload.downcast_ref::<PagerError>(),
            Some(PagerError::Degraded(_))
        ));
        // Resume fails while the fault persists, succeeds once healed.
        assert!(p.try_resume().is_err());
        plan.heal();
        assert!(p.try_resume().is_ok());
        assert!(p.health().is_ok());
        assert_eq!(p.read(id)[0], 2, "parked image reached the backend");
        let _txn = p.txn();
        p.write(id, &[5u8; 64]);
        drop(_txn);
        assert_eq!(p.read(id)[0], 5, "service resumed");
    }

    #[test]
    fn corrupt_block_without_journal_is_loud_and_degrades() {
        let p = pager(64);
        let a = p.alloc();
        p.write(a, &[8u8; 64]);
        p.corrupt_block(a, 3, 0x40);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read(a)));
        let payload = err.expect_err("corruption without a repair source");
        assert!(matches!(
            payload.downcast_ref::<PagerError>(),
            Some(PagerError::Corrupt { .. })
        ));
        assert!(matches!(
            p.health(),
            Health::Degraded(DegradedReason::Unrepairable { .. })
        ));
    }

    /// Journal that can repair exactly one block from a stored image.
    struct RepairingJournal {
        block: BlockId,
        image: Box<[u8]>,
    }

    impl Journal for RepairingJournal {
        fn commit(&self, _record: &TxnRecord) -> JournalAck {
            JournalAck::Durable
        }
        fn applied(&self) {}
        fn repair_image(&self, id: BlockId) -> Option<Box<[u8]>> {
            (id == self.block).then(|| self.image.clone())
        }
    }

    #[test]
    fn checksum_mismatch_is_read_repaired_from_the_journal() {
        let p = pager(64);
        let id = {
            // Establish committed content before the repairing journal.
            let id = p.alloc();
            p.write(id, &[6u8; 64]);
            id
        };
        p.attach_journal(Arc::new(RepairingJournal {
            block: id,
            image: vec![6u8; 64].into_boxed_slice(),
        }));
        p.corrupt_block(id, 0, 0x01);
        let _txn = p.txn();
        assert_eq!(p.read(id)[0], 6, "repaired read answers correctly");
        assert_eq!(p.stats().repairs, 1);
        assert!(p.health().is_ok());
        drop(_txn);
        // The rewrite fixed the media: a fresh unjournaled reader sees it.
        assert!(p.disk_image().blocks[id.index()]
            .as_ref()
            .is_some_and(DiskBlock::intact));
    }

    #[test]
    fn scrub_step_repairs_latent_rot_before_any_read() {
        let p = pager(64);
        let ids: Vec<BlockId> = (0..4)
            .map(|i| {
                let id = p.alloc();
                p.write(id, &[i + 1; 64]);
                id
            })
            .collect();
        p.attach_journal(Arc::new(RepairingJournal {
            block: ids[2],
            image: vec![3u8; 64].into_boxed_slice(),
        }));
        p.corrupt_block(ids[2], 5, 0x40);
        // Budget 2 covers slots 0..2: the rotten slot is not reached yet.
        let first = p.scrub_step(2);
        assert_eq!(
            first,
            ScrubReport {
                scanned: 2,
                repaired: 0,
                failed: Vec::new(),
                wrapped: false
            }
        );
        // The cursor persisted: the next increment finds and repairs the
        // rot without any foreground read having tripped over it.
        let second = p.scrub_step(2);
        assert_eq!(second.scanned, 2);
        assert_eq!(second.repaired, 1);
        assert!(second.failed.is_empty());
        assert!(second.wrapped, "cursor walked off the end and reset");
        assert_eq!(p.stats().repairs, 1);
        assert!(p.health().is_ok());
        // The media itself was rewritten, not just a cached copy.
        assert!(p.disk_image().blocks[ids[2].index()]
            .as_ref()
            .is_some_and(DiskBlock::intact));
        // A clean store scrubs quietly.
        let clean = p.scrub_step(16);
        assert_eq!(clean.repaired, 0);
        assert!(clean.failed.is_empty());
    }

    #[test]
    fn scrub_step_skips_holes_and_degrades_on_unrepairable_rot() {
        let p = pager(64);
        let a = p.alloc();
        let b = p.alloc();
        p.write(a, &[1u8; 64]);
        p.write(b, &[2u8; 64]);
        p.free(a); // deallocated hole: the scrubber must skip it
        p.corrupt_block(b, 0, 0x08); // no journal → unrepairable
        let report = p.scrub_step(8);
        assert_eq!(report.scanned, 2);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.failed, vec![b]);
        assert!(matches!(
            p.health(),
            Health::Degraded(DegradedReason::Unrepairable { .. })
        ));
    }

    #[test]
    fn retry_budget_zero_fails_immediately() {
        let p = pager(64);
        p.set_retry_policy(RetryPolicy {
            budget: 0,
            backoff_base: 1,
        });
        let plan = FaultPlan::new(FaultPlanConfig::quiet(5, 64));
        let a = p.alloc();
        p.write(a, &[1u8; 64]);
        p.attach_fault_injector(plan.clone());
        plan.fail_reads_of(a);
        let err = p.try_read(a);
        assert_eq!(
            err,
            Err(PagerError::Io {
                block: a,
                attempts: 1
            })
        );
        assert_eq!(p.stats().retries, 0);
    }

    #[test]
    fn torn_write_detected_on_read() {
        let p = pager(64);
        let a = p.alloc();
        p.write(a, &[8u8; 64]);
        // Simulate a torn apply directly at the backend layer.
        p.lock().backend.write_torn(a, &[0xFFu8; 64], 10);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read(a)));
        assert!(err.is_err(), "torn page must not decode silently");
        let image = p.disk_image();
        assert!(
            !image.blocks[0].as_ref().expect("present").intact(),
            "image classifies the slot as torn"
        );
    }

    #[test]
    fn snapshot_view_is_immune_to_writer_progress() {
        let p = pager(64);
        p.attach_journal(MockJournal::new(1));
        let a = {
            let _txn = p.txn();
            let a = p.alloc();
            p.write(a, &[1u8; 64]);
            a
        };
        assert_eq!(p.published_epoch(), 1, "every synced commit publishes");
        let (snap, _metas) = p.snapshot_view();
        assert_eq!(snap.snapshot_epoch(), Some(1));
        {
            let _txn = p.txn();
            p.write(a, &[2u8; 64]);
        }
        assert_eq!(p.published_epoch(), 2);
        assert_eq!(snap.read(a)[0], 1, "snapshot pins the old version");
        assert_eq!(p.read(a)[0], 2, "base sees the new committed value");
        assert_eq!(snap.stats().reads, 1, "view charges its own stats");
        let base_reads = p.stats().reads;
        snap.read(a);
        assert_eq!(p.stats().reads, base_reads, "base stats untouched by view");
        drop(snap);
        let (snap2, _metas) = p.snapshot_view();
        assert_eq!(snap2.read(a)[0], 2, "fresh snapshot sees the new epoch");
    }

    #[test]
    fn snapshot_survives_free_of_its_blocks() {
        let p = pager(64);
        p.attach_journal(MockJournal::new(1));
        let (a, b) = {
            let _txn = p.txn();
            let a = p.alloc();
            let b = p.alloc();
            p.write(a, &[1u8; 64]);
            p.write(b, &[9u8; 64]);
            (a, b)
        };
        let (snap, _metas) = p.snapshot_view();
        {
            let _txn = p.txn();
            p.free(b);
        }
        assert!(!p.is_allocated(b), "base sees the free");
        assert!(snap.is_allocated(b), "snapshot still sees the block");
        assert_eq!(snap.read(b)[0], 9, "frozen image survives deallocation");
        assert_eq!(snap.read(a)[0], 1);
    }

    #[test]
    fn dropping_readers_reclaims_frozen_versions() {
        let p = pager(64);
        p.attach_journal(MockJournal::new(1));
        let a = {
            let _txn = p.txn();
            let a = p.alloc();
            p.write(a, &[1u8; 64]);
            a
        };
        let (s1, _m1) = p.snapshot_view();
        {
            let _txn = p.txn();
            p.write(a, &[2u8; 64]);
        }
        let (s2, _m2) = p.snapshot_view();
        {
            let _txn = p.txn();
            p.write(a, &[3u8; 64]);
        }
        assert_eq!(s1.read(a)[0], 1);
        assert_eq!(s2.read(a)[0], 2);
        drop(s1);
        assert_eq!(s2.read(a)[0], 2, "reclaim keeps versions s2 still needs");
        drop(s2);
        assert!(p.table.versions_empty(), "all versions reclaimed");
        let inner = p.lock();
        assert!(inner.snap.pins.is_empty(), "all pins released");
    }

    #[test]
    fn publish_barrier_drains_the_group_commit_tail() {
        let p = pager(64);
        let j = MockJournal::new(2); // sync every second commit
        p.attach_journal(j.clone());
        let a = {
            let _txn = p.txn();
            let a = p.alloc();
            p.write(a, &[1u8; 64]);
            a
        };
        assert_eq!(
            p.published_epoch(),
            0,
            "unsynced commit must not publish an epoch"
        );
        let (stale, _m) = p.snapshot_view();
        assert!(p.publish_barrier(), "tail was dirty: barrier publishes");
        assert_eq!(p.published_epoch(), 1);
        assert!(!p.publish_barrier(), "nothing left to publish");
        let (fresh, _m) = p.snapshot_view();
        assert_eq!(fresh.read(a)[0], 1, "post-barrier snapshot sees the commit");
        assert_eq!(
            j.applied_count(),
            1,
            "barrier gives the journal its checkpoint"
        );
        drop(stale);
        drop(fresh);
    }

    #[test]
    fn freeing_a_pinned_pooled_frame_is_a_typed_error() {
        let p = Pager::new(PagerConfig {
            block_size: 64,
            pool_capacity: 2,
            pool_policy: PoolPolicy::Clock,
            file: None,
        });
        let id = p.alloc();
        p.write(id, &[5u8; 64]);
        assert!(p.pin_pooled(id));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.free(id)))
            .expect_err("free of a pinned frame must fail");
        let err = err
            .downcast::<PagerError>()
            .expect("typed PagerError payload");
        assert!(matches!(*err, PagerError::Pinned { block } if block == id));
        assert!(p.unpin_pooled(id));
        p.free(id);
    }

    #[test]
    fn audit_flags_leaked_pins() {
        use boxes_audit::Auditable;
        let p = Pager::new(PagerConfig {
            block_size: 64,
            pool_capacity: 2,
            pool_policy: PoolPolicy::Clock,
            file: None,
        });
        let id = p.alloc();
        p.write(id, &[5u8; 64]);
        assert!(p.pin_pooled(id));
        let (epoch, _metas) = p.pin_epoch();
        let report = p.audit();
        assert_eq!(
            report
                .violations()
                .iter()
                .filter(|v| v.kind == boxes_audit::ViolationKind::PinLeak)
                .count(),
            2,
            "one pool pin leak + one snapshot pin leak"
        );
        assert!(p.unpin_pooled(id));
        p.unpin_epoch(epoch);
        p.audit().assert_clean("pager");
    }

    #[test]
    #[should_panic(expected = "snapshot views are read-only")]
    fn snapshot_views_reject_writes() {
        let p = pager(64);
        p.attach_journal(MockJournal::new(1));
        let a = {
            let _txn = p.txn();
            let a = p.alloc();
            p.write(a, &[1u8; 64]);
            a
        };
        let (snap, _m) = p.snapshot_view();
        snap.write(a, &[2u8; 64]);
    }
}
