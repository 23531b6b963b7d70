#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Snapshot-isolated concurrent sessions over the BOXes schemes.
//!
//! The paper's structures are maintained by a single mutator (`&mut self`
//! everywhere), but lookups are `&self` — and the storage core is `Send +
//! Sync`. This crate turns that into a concurrent API:
//!
//! * [`SessionManager`] owns a journaled [`SharedPager`] and one labeling
//!   scheme.
//! * [`SessionManager::writer`] hands out the single [`WriterSession`],
//!   which streams inserts/deletes through the existing journaled path.
//! * [`SessionManager::snapshot`] opens any number of read-only
//!   [`Snapshot`] sessions. Each sees one *published epoch* — the committed
//!   prefix as of the last group-commit boundary — and is completely immune
//!   to concurrent writer progress.
//!
//! Snapshot isolation rides the WAL no-steal overlay as copy-on-write: the
//! pager freezes a block's pre-image before overwriting or freeing it
//! whenever a snapshot epoch is pinned, snapshot reads go frozen-version
//! first then backend, and the last reader of an epoch reclaims its
//! versions on drop ([`boxes_pager::Pager::snapshot_view`]). The writer
//! publishes a new epoch at every group-commit boundary automatically, or
//! on demand with [`WriterSession::publish`].
//!
//! Each snapshot reads through its own view pager, which has its own I/O
//! counters, so per-session I/O attribution needs no extra bookkeeping:
//! trace spans opened on a view measure that view alone, and the profile
//! gate's accounting identity holds per handle with concurrent readers
//! active ([`boxes_trace::tally`]).
//!
//! ```
//! use boxes_core::{LabelingScheme, WBoxScheme};
//! use boxes_pager::{Pager, PagerConfig};
//! use boxes_session::SessionManager;
//! use boxes_wal::{Wal, WalConfig};
//! use boxes_wbox::WBoxConfig;
//!
//! let pager = Pager::new(PagerConfig::with_block_size(1024));
//! pager.attach_journal(Wal::new(1024, WalConfig::default()));
//! let manager = SessionManager::<WBoxScheme>::create(
//!     pager.clone(),
//!     WBoxConfig::from_block_size(1024),
//! );
//! let lids = {
//!     let mut writer = manager.writer().expect("writer free");
//!     writer.bulk_load_document(&[1, 0, 3, 2])
//! };
//! let snap = manager.snapshot().expect("committed state");
//! let frozen = snap.lookup(lids[0]);
//! {
//!     let mut writer = manager.writer().expect("writer returned");
//!     writer.insert_element_before(lids[0]);
//! }
//! assert_eq!(snap.lookup(lids[0]), frozen, "snapshot is stable");
//! ```

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

use boxes_bbox::BBoxConfig;
use boxes_core::scheme::{BBoxScheme, NaiveScheme, WBoxScheme};
use boxes_core::LabelingScheme;
use boxes_lidf::{Lidf, Record};
use boxes_naive::NaiveConfig;
use boxes_pager::{lock_unpoisoned, IoStats, PagerError, SharedPager};
use boxes_trace::OpSpan;
use boxes_wbox::WBoxConfig;

/// Why a session could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No committed state for this structure exists at the snapshot's
    /// epoch: nothing was ever committed *and published* under the meta
    /// name (e.g. the writer streamed ops into an unsynced group-commit
    /// tail — call [`WriterSession::publish`] first).
    NoCommittedState {
        /// The missing meta blob name (`"wbox"`, `"bbox"`, `"naive"`,
        /// `"lidf"`).
        meta: &'static str,
    },
    /// The single writer session is already handed out.
    WriterBusy,
    /// The storage layer rejected the operation.
    Pager(PagerError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoCommittedState { meta } => {
                write!(f, "no committed {meta:?} state published at this epoch")
            }
            SessionError::WriterBusy => write!(f, "the writer session is already handed out"),
            SessionError::Pager(e) => write!(f, "pager error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<PagerError> for SessionError {
    fn from(e: PagerError) -> Self {
        SessionError::Pager(e)
    }
}

/// A labeling scheme that can participate in sessions: constructible fresh
/// on a shared pager, and re-openable read-only over a snapshot view from
/// the published meta blobs.
pub trait SessionScheme: LabelingScheme + Sized + Send {
    /// Scheme parameters, shared by the writer and every snapshot reopen.
    type Config: Clone + Send + Sync;

    /// Build a fresh (empty) structure on `pager`.
    fn create(pager: SharedPager, config: Self::Config) -> Self;

    /// Reattach to the committed state in `metas` (the published meta map
    /// of a snapshot epoch) over `pager` (a snapshot view).
    fn open_view(
        pager: SharedPager,
        config: &Self::Config,
        metas: &BTreeMap<String, Vec<u8>>,
    ) -> Result<Self, SessionError>;
}

fn require<'m>(
    metas: &'m BTreeMap<String, Vec<u8>>,
    name: &'static str,
) -> Result<&'m [u8], SessionError> {
    metas
        .get(name)
        .map(Vec::as_slice)
        .ok_or(SessionError::NoCommittedState { meta: name })
}

impl SessionScheme for WBoxScheme {
    type Config = WBoxConfig;

    fn create(pager: SharedPager, config: Self::Config) -> Self {
        WBoxScheme::new(pager, config)
    }

    fn open_view(
        pager: SharedPager,
        config: &Self::Config,
        metas: &BTreeMap<String, Vec<u8>>,
    ) -> Result<Self, SessionError> {
        Ok(WBoxScheme::reopen(
            pager,
            *config,
            require(metas, "wbox")?,
            require(metas, "lidf")?,
        ))
    }
}

impl SessionScheme for BBoxScheme {
    type Config = BBoxConfig;

    fn create(pager: SharedPager, config: Self::Config) -> Self {
        BBoxScheme::new(pager, config)
    }

    fn open_view(
        pager: SharedPager,
        config: &Self::Config,
        metas: &BTreeMap<String, Vec<u8>>,
    ) -> Result<Self, SessionError> {
        Ok(BBoxScheme::reopen(
            pager,
            *config,
            require(metas, "bbox")?,
            require(metas, "lidf")?,
        ))
    }
}

impl SessionScheme for NaiveScheme {
    type Config = NaiveConfig;

    fn create(pager: SharedPager, config: Self::Config) -> Self {
        NaiveScheme::new(pager, config)
    }

    fn open_view(
        pager: SharedPager,
        config: &Self::Config,
        metas: &BTreeMap<String, Vec<u8>>,
    ) -> Result<Self, SessionError> {
        Ok(NaiveScheme::reopen(
            pager,
            *config,
            require(metas, "naive")?,
        ))
    }
}

/// Owns one scheme on one journaled pager and hands out sessions: many
/// concurrent read-only [`Snapshot`]s, one exclusive [`WriterSession`].
///
/// `Sync` for `S: Send`: share it across reader threads behind an [`Arc`].
pub struct SessionManager<S: SessionScheme> {
    pager: SharedPager,
    config: S::Config,
    /// The writer-side structure. `None` while a [`WriterSession`] is out.
    /// Never held across a pager or trace call — take the scheme out, drop
    /// the guard, then work.
    writer: Mutex<Option<S>>,
}

impl<S: SessionScheme> SessionManager<S> {
    /// Create a fresh structure on `pager` (journaled; snapshots need the
    /// WAL's group-commit boundaries to define epochs) and manage it. The
    /// bootstrap runs as one journaled transaction.
    pub fn create(pager: SharedPager, config: S::Config) -> Self {
        let scheme = {
            let _txn = pager.txn();
            S::create(Arc::clone(&pager), config.clone())
        };
        Self::adopt(scheme, config)
    }

    /// Manage an existing structure (e.g. one reopened after WAL recovery).
    /// `config` must match the one the structure was built with — snapshot
    /// reopens use it.
    pub fn adopt(scheme: S, config: S::Config) -> Self {
        let pager = Arc::clone(scheme.pager());
        SessionManager {
            pager,
            config,
            writer: Mutex::new(Some(scheme)),
        }
    }

    /// The shared pager (I/O accounting, epoch inspection).
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// The currently published snapshot epoch (see
    /// [`boxes_pager::Pager::published_epoch`]).
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.pager.published_epoch()
    }

    /// Per-shard page-table latch statistics of the underlying pager (see
    /// [`boxes_pager::Pager::shard_stats`]): how concurrent this manager's
    /// reader sessions actually ran, shard by shard.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<boxes_pager::ShardStats> {
        self.pager.shard_stats()
    }

    /// Claim the single writer session. Errors with
    /// [`SessionError::WriterBusy`] while another writer session is alive.
    pub fn writer(&self) -> Result<WriterSession<'_, S>, SessionError> {
        let scheme = {
            let mut slot = lock_unpoisoned(&self.writer);
            slot.take().ok_or(SessionError::WriterBusy)?
        };
        Ok(WriterSession {
            manager: self,
            scheme: Some(scheme),
        })
    }

    /// Open a read-only snapshot of the last published epoch. The snapshot
    /// pins that epoch's frozen block versions until dropped; its structure
    /// is a fresh reopen over a snapshot-view pager, so lookups on it never
    /// touch (or observe) writer state.
    pub fn snapshot(&self) -> Result<Snapshot<S>, SessionError> {
        let (view, metas) = self.pager.snapshot_view();
        let epoch = view.snapshot_epoch().unwrap_or(0);
        let scheme = {
            let _span = OpSpan::op(&view, "session", "open");
            S::open_view(view, &self.config, &metas)?
        };
        Ok(Snapshot {
            scheme,
            epoch,
            metas,
        })
    }
}

/// The single streaming-writer session. Dereferences to the scheme, so all
/// [`LabelingScheme`] mutators are available; every mutation goes through
/// the existing journaled path and becomes visible to *new* snapshots at
/// the next group-commit boundary. Returns the scheme to the manager on
/// drop.
pub struct WriterSession<'a, S: SessionScheme> {
    manager: &'a SessionManager<S>,
    scheme: Option<S>,
}

impl<S: SessionScheme> WriterSession<'_, S> {
    /// Force a group-commit boundary now (fsync the WAL tail, apply it,
    /// publish a fresh epoch). Returns `true` when a new epoch was
    /// published. Use this to make the latest streamed ops visible to
    /// snapshots without waiting for `sync_every` to trip.
    pub fn publish(&self) -> bool {
        let _span = OpSpan::op(&self.manager.pager, "session", "publish");
        self.manager.pager.publish_barrier()
    }
}

impl<S: SessionScheme> Deref for WriterSession<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        self.scheme.as_ref().expect("scheme present until drop")
    }
}

impl<S: SessionScheme> DerefMut for WriterSession<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        self.scheme.as_mut().expect("scheme present until drop")
    }
}

impl<S: SessionScheme> Drop for WriterSession<'_, S> {
    fn drop(&mut self) {
        let scheme = self.scheme.take();
        *lock_unpoisoned(&self.manager.writer) = scheme;
    }
}

/// A read-only snapshot session: one scheme reopened over a snapshot-view
/// pager pinned to a published epoch. Dereferences immutably to the scheme
/// — the read-only [`boxes_core::LabelView`] surface is available, the
/// `&mut self` mutators are unreachable by construction (and the snapshot
/// pager rejects writes at runtime besides).
pub struct Snapshot<S: SessionScheme> {
    scheme: S,
    epoch: u64,
    metas: Arc<BTreeMap<String, Vec<u8>>>,
}

impl<S: SessionScheme> Snapshot<S> {
    /// The published epoch this snapshot is pinned to.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Label of `lid` at this snapshot's epoch. Inherent (not just via
    /// `Deref`) so call sites with both [`boxes_core::LabelingScheme`] and
    /// [`boxes_core::LabelView`] in scope stay unambiguous.
    pub fn lookup(&self, lid: boxes_lidf::Lid) -> S::Label {
        self.scheme.lookup(lid)
    }

    /// Fallible [`Snapshot::lookup`]: disk faults come back as typed
    /// errors, never wrong labels.
    pub fn try_lookup(&self, lid: boxes_lidf::Lid) -> Result<S::Label, PagerError> {
        self.scheme.try_lookup(lid)
    }

    /// Number of live labels at this snapshot's epoch.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.scheme.len()
    }

    /// Whether the snapshot holds no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scheme.is_empty()
    }

    /// I/O charged to this snapshot so far (the view pager's own counters —
    /// disjoint from the base pager's).
    #[must_use]
    pub fn io(&self) -> IoStats {
        self.scheme.pager().stats()
    }

    /// The published meta blobs at this snapshot's epoch.
    #[must_use]
    pub fn metas(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.metas
    }

    /// Open the LIDF of this epoch over the same snapshot view — read-only
    /// record access (`Lidf::read`, `Lidf::scan`) at snapshot isolation.
    pub fn lidf<R: Record>(&self) -> Result<Lidf<R>, SessionError> {
        Ok(Lidf::reopen(
            Arc::clone(self.scheme.pager()),
            require(&self.metas, "lidf")?,
        ))
    }
}

impl<S: SessionScheme> Deref for Snapshot<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_lidf::BlockPtrRecord;
    use boxes_pager::{Pager, PagerConfig};
    use boxes_wal::{Wal, WalConfig};

    const BS: usize = 1024;

    fn wbox_manager(sync_every: u64) -> SessionManager<WBoxScheme> {
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        pager.attach_journal(Wal::new(
            BS,
            WalConfig {
                sync_every,
                checkpoint_every: 0,
            },
        ));
        SessionManager::create(pager.clone(), WBoxConfig::from_block_size(BS))
    }

    #[test]
    fn writer_is_exclusive_and_returns_on_drop() {
        let m = wbox_manager(1);
        let w = m.writer().expect("first claim");
        assert!(matches!(m.writer(), Err(SessionError::WriterBusy)));
        drop(w);
        m.writer().expect("returned on drop");
    }

    #[test]
    fn snapshot_before_any_commit_has_no_state() {
        let m = wbox_manager(4);
        // The bootstrap commit is parked in the unsynced group-commit tail:
        // nothing published yet.
        assert!(matches!(
            m.snapshot().err(),
            Some(SessionError::NoCommittedState { .. })
        ));
    }

    #[test]
    fn snapshot_is_stable_while_writer_streams() {
        let m = wbox_manager(1);
        let lids = {
            let mut w = m.writer().expect("writer");
            w.bulk_load_document(&[1, 0, 3, 2])
        };
        let snap = m.snapshot().expect("snapshot");
        let before: Vec<u64> = lids.iter().map(|&l| snap.lookup(l)).collect();
        {
            let mut w = m.writer().expect("writer");
            for _ in 0..20 {
                w.insert_element_before(lids[2]);
            }
        }
        let after: Vec<u64> = lids.iter().map(|&l| snap.lookup(l)).collect();
        assert_eq!(before, after, "snapshot labels never move");
        let fresh = m.snapshot().expect("fresh snapshot");
        assert!(fresh.epoch() > snap.epoch());
        assert_eq!(fresh.len(), 44, "fresh snapshot sees the inserts");
        assert!(snap.io().reads > 0, "snapshot charged its own reads");
    }

    #[test]
    fn shard_stats_surface_reader_latch_traffic() {
        let m = wbox_manager(1);
        {
            let mut w = m.writer().expect("writer");
            w.bulk_load_document(&[1, 0, 3, 2]);
        }
        let before: u64 = m.shard_stats().iter().map(|s| s.acquisitions).sum();
        let snap = m.snapshot().expect("snapshot");
        let _ = snap.len();
        let after: u64 = m.shard_stats().iter().map(|s| s.acquisitions).sum();
        assert!(
            after > before,
            "snapshot reads go through the sharded table ({before} -> {after})"
        );
    }

    #[test]
    fn publish_makes_unsynced_tail_visible() {
        let m = wbox_manager(1_000); // group commit never trips on its own
        let lids = {
            let mut w = m.writer().expect("writer");
            let lids = w.bulk_load_document(&[1, 0]);
            assert!(w.publish(), "explicit barrier publishes the tail");
            lids
        };
        let snap = m.snapshot().expect("published state");
        assert_eq!(snap.len(), 2);
        let _ = snap.lookup(lids[0]);
    }

    #[test]
    fn snapshot_lidf_reads_records_at_its_epoch() {
        let m = wbox_manager(1);
        {
            let mut w = m.writer().expect("writer");
            w.bulk_load_document(&[1, 0, 3, 2]);
        }
        let snap = m.snapshot().expect("snapshot");
        let lidf = snap.lidf::<BlockPtrRecord>().expect("lidf view");
        assert_eq!(lidf.len(), 4);
        let mut seen = 0;
        lidf.scan(|_, rec| {
            assert!(!rec.block.is_invalid());
            seen += 1;
        });
        assert_eq!(seen, 4);
    }

    #[test]
    fn publish_fsyncs_through_a_file_backed_log() {
        let mut log = std::env::temp_dir();
        log.push(format!("boxes-session-test-publish-{}", std::process::id()));
        let _ = std::fs::remove_file(&log);
        let pager = Pager::new(PagerConfig::with_block_size(BS));
        let wal = Wal::create_file(
            &log,
            BS,
            WalConfig {
                sync_every: 1_000, // group commit never trips on its own
                checkpoint_every: 0,
            },
        )
        .expect("create log");
        pager.attach_journal(wal.clone());
        let m: SessionManager<WBoxScheme> =
            SessionManager::create(pager.clone(), WBoxConfig::from_block_size(BS));
        let before = wal.durable_len();
        {
            let mut w = m.writer().expect("writer");
            w.bulk_load_document(&[1, 0, 3, 2]);
            assert_eq!(
                wal.durable_len(),
                before,
                "streamed ops sit in the unsynced tail"
            );
            assert!(w.publish(), "publish issues the real fsync");
        }
        let after = wal.durable_len();
        assert!(after > before, "publish grew the durable log on disk");
        // The published state is now on the medium: a post-mortem read of
        // the file sees exactly the durable prefix publish() created.
        let bytes = boxes_wal::store::FileLogStore::read_log(&log, BS).expect("read log");
        assert_eq!(bytes.len(), after);
        let _ = std::fs::remove_file(&log);
    }
}
