//! The [`LogStore`] seam: where the WAL's bytes actually live.
//!
//! [`Wal`](crate::Wal) is generic over this trait. [`MemLogStore`] keeps
//! the original simulated two-buffer model (`durable`/`pending` vectors);
//! [`FileLogStore`] puts the log on a real file — append + fsync on group
//! commit, checkpoint rotation via write-new-then-atomic-rename — through
//! the positioned-I/O [`RawFile`] surface, so the fault-wrapping
//! [`FaultFile`](boxes_pager::FaultFile) can inject short writes, EIO,
//! fsync failure and power cuts *below* the store.
//!
//! # File layout
//!
//! ```text
//! header (16 bytes): magic "BOXWAL01" | block_size u64 LE
//! record stream    : exactly the frame encoding of crate::frame
//! ```
//!
//! The store never interprets the record stream; torn tails are the
//! decoder's job ([`crate::recover`]). `synced_len` tracks the last
//! successful fsync: bytes beyond it are the pending window, which a
//! failed durability operation poisons (the caller — the WAL — must then
//! treat them as lost and never retry the sync; see the fsyncgate
//! discussion on [`LogStore::sync`]).

#![allow(
    clippy::disallowed_methods,
    reason = "the file-backed WAL store is a designated disk surface, under the accounted layer"
)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use boxes_pager::codec;
use boxes_pager::RawFile;

/// Magic bytes opening every WAL file (versioned).
pub const WAL_MAGIC: [u8; 8] = *b"BOXWAL01";
/// Bytes of file header before the first record: record offsets reported by
/// [`LogStore::durable_len`] are relative to this.
pub const HEADER_SIZE: u64 = 16;

/// Typed failure of a log store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying OS I/O failure (append, fsync, rotation step).
    Io(std::io::Error),
    /// The file is not a WAL file or its header is damaged.
    BadHeader(String),
    /// Reopened with a different block size than the file was created with.
    BlockSizeMismatch {
        /// Block size recorded in the file header.
        file: u64,
        /// Block size the caller requested.
        requested: usize,
    },
    /// A checkpoint rotation published the new log (the rename happened)
    /// but could not make the rename durable. Later commits land on the new
    /// file, which a power cut may roll back to the old log, so the caller
    /// must poison the log instead of acking them.
    RotationNotDurable(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "log store I/O error: {e}"),
            StoreError::BadHeader(why) => write!(f, "bad WAL file header: {why}"),
            StoreError::BlockSizeMismatch { file, requested } => write!(
                f,
                "WAL block size mismatch: file has {file}, caller requested {requested}"
            ),
            StoreError::RotationNotDurable(e) => {
                write!(f, "WAL rotation published but not durable: {e}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) | StoreError::RotationNotDurable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Backing storage for the WAL's byte stream. `Send` so the WAL (which
/// wraps the store in its own mutex) stays shareable across threads.
pub trait LogStore: Send {
    /// Append `bytes` to the pending (unsynced) window. An error means the
    /// bytes may be partially on the medium: the caller must poison the
    /// pending window.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Durability barrier: make every appended byte stable. **fsyncgate
    /// semantics**: after an error the dirty-page state is unknowable — a
    /// retry that "succeeds" proves nothing about the dropped pages, so
    /// the caller must treat the whole pending window as lost and never
    /// call `sync` again for it.
    fn sync(&mut self) -> Result<(), StoreError>;

    /// The durable byte stream (everything up to the last successful
    /// sync) — the input to [`recover`](crate::recover).
    fn durable(&self) -> Result<Vec<u8>, StoreError>;

    /// Length in bytes of the durable stream.
    fn durable_len(&self) -> u64;

    /// Length in bytes of the pending (appended, unsynced) window.
    fn pending_len(&self) -> u64;

    /// Atomically replace the whole log with `bytes`, durably — checkpoint
    /// rotation. On [`StoreError::RotationNotDurable`] the new log is live
    /// but may not survive a power cut; on any other error the old log
    /// must remain intact and durable (the caller keeps the longer,
    /// still-valid log). Only called when the pending window is empty.
    fn rotate(&mut self, bytes: &[u8]) -> Result<(), StoreError>;
}

/// The original in-memory simulated store: `durable` is what survives a
/// crash, `pending` is the OS write cache.
#[derive(Default)]
pub struct MemLogStore {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

impl MemLogStore {
    /// New empty in-memory store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStore for MemLogStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.pending.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let pending = std::mem::take(&mut self.pending);
        self.durable.extend_from_slice(&pending);
        Ok(())
    }

    fn durable(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.durable.clone())
    }

    fn durable_len(&self) -> u64 {
        codec::usize_to_u64(self.durable.len())
    }

    fn pending_len(&self) -> u64 {
        codec::usize_to_u64(self.pending.len())
    }

    fn rotate(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.durable = bytes.to_vec();
        self.pending.clear();
        Ok(())
    }
}

/// A file-backed log store. Appends land on the file immediately
/// (positioned writes, no buffering — the OS page cache *is* the pending
/// window); [`LogStore::sync`] is a real fsync. Rotation writes a complete
/// side file, fsyncs it, renames it over the live path, and fsyncs the
/// parent directory so the rename itself is durable.
pub struct FileLogStore {
    file: Box<dyn RawFile>,
    path: PathBuf,
    block_size: usize,
    /// File length covered by the last successful fsync.
    synced_len: u64,
    /// File length including appended-but-unsynced bytes.
    appended_len: u64,
}

impl std::fmt::Debug for FileLogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileLogStore")
            .field("path", &self.path)
            .field("block_size", &self.block_size)
            .field("synced_len", &self.synced_len)
            .field("appended_len", &self.appended_len)
            .finish_non_exhaustive()
    }
}

impl FileLogStore {
    /// Create (or truncate) a WAL file at `path` and durably write its
    /// header.
    pub fn create(path: &Path, block_size: usize) -> Result<Self, StoreError> {
        Self::create_with(path, block_size, |f| -> Box<dyn RawFile> { Box::new(f) })
    }

    /// Create a WAL file whose handle is wrapped by `wrap` — the fault
    ///-injection entry point: pass a closure boxing the [`File`] into a
    /// [`FaultFile`](boxes_pager::FaultFile). The wrapper applies to the
    /// live handle only; a checkpoint rotation opens a fresh (unwrapped)
    /// handle, so fault plans target the pre-rotation window.
    pub fn create_with(
        path: &Path,
        block_size: usize,
        wrap: impl FnOnce(File) -> Box<dyn RawFile>,
    ) -> Result<Self, StoreError> {
        let raw = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let file = wrap(raw);
        file.write_all_at(&header_bytes(block_size), 0)?;
        file.sync()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            block_size,
            synced_len: HEADER_SIZE,
            appended_len: HEADER_SIZE,
        })
    }

    /// Reopen an existing WAL file, validating the header. Everything on
    /// the medium counts as durable (this runs after a crash or restart:
    /// the pending window of the dead process either landed or didn't —
    /// the record decoder sorts out any torn tail).
    pub fn open(path: &Path, block_size: usize) -> Result<Self, StoreError> {
        let raw = OpenOptions::new().read(true).write(true).open(path)?;
        let file: Box<dyn RawFile> = Box::new(raw);
        let len = file.file_len()?;
        validate_header(file.as_ref(), len, block_size)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            block_size,
            synced_len: len,
            appended_len: len,
        })
    }

    /// Read the record stream (everything past the header) of the WAL file
    /// at `path` without opening it for writing — the post-mortem read a
    /// crash-recovery harness performs on a dead process's log.
    pub fn read_log(path: &Path, block_size: usize) -> Result<Vec<u8>, StoreError> {
        let file = OpenOptions::new().read(true).open(path)?;
        let len = RawFile::file_len(&file)?;
        validate_header(&file, len, block_size)?;
        let mut payload = vec![0u8; codec::u64_to_index(len - HEADER_SIZE)];
        RawFile::read_exact_at(&file, &mut payload, HEADER_SIZE)?;
        Ok(payload)
    }
}

fn header_bytes(block_size: usize) -> [u8; 16] {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&WAL_MAGIC);
    header[8..].copy_from_slice(&codec::usize_to_u64(block_size).to_le_bytes());
    header
}

fn validate_header(file: &dyn RawFile, len: u64, block_size: usize) -> Result<(), StoreError> {
    if len < HEADER_SIZE {
        return Err(StoreError::BadHeader(format!(
            "file is {len} bytes, smaller than the {HEADER_SIZE}-byte header"
        )));
    }
    let mut header = [0u8; 16];
    file.read_exact_at(&mut header, 0)?;
    if header[..8] != WAL_MAGIC {
        return Err(StoreError::BadHeader("magic bytes do not match".into()));
    }
    let file_bs = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    if file_bs != codec::usize_to_u64(block_size) {
        return Err(StoreError::BlockSizeMismatch {
            file: file_bs,
            requested: block_size,
        });
    }
    Ok(())
}

impl LogStore for FileLogStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.write_all_at(bytes, self.appended_len)?;
        self.appended_len += codec::usize_to_u64(bytes.len());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync()?;
        self.synced_len = self.appended_len;
        Ok(())
    }

    fn durable(&self) -> Result<Vec<u8>, StoreError> {
        let mut payload = vec![0u8; codec::u64_to_index(self.synced_len - HEADER_SIZE)];
        self.file.read_exact_at(&mut payload, HEADER_SIZE)?;
        Ok(payload)
    }

    fn durable_len(&self) -> u64 {
        self.synced_len - HEADER_SIZE
    }

    fn pending_len(&self) -> u64 {
        self.appended_len - self.synced_len
    }

    fn rotate(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        // Write-new-then-atomic-rename: build the complete replacement in a
        // side file, make *it* durable, then swap it over the live path.
        // Any failure before the rename leaves the old log untouched and
        // still durable. After a successful rename the side handle *is*
        // the live file (same inode), so we adopt it.
        let tmp = self.path.with_extension("rotate");
        let raw = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let file: Box<dyn RawFile> = Box::new(raw);
        file.write_all_at(&header_bytes(self.block_size), 0)?;
        file.write_all_at(bytes, HEADER_SIZE)?;
        file.sync()?;
        std::fs::rename(&tmp, &self.path)?;
        let new_len = HEADER_SIZE + codec::usize_to_u64(bytes.len());
        self.file = file;
        self.synced_len = new_len;
        self.appended_len = new_len;
        // Make the rename itself durable by fsyncing the parent directory.
        // The new file is already live: commits acked from here on land on
        // its inode, and a power cut before the directory reaches the
        // medium can bring the old log back without them.
        File::open(parent_dir(&self.path))
            .and_then(|dir| dir.sync_all())
            .map_err(StoreError::RotationNotDurable)
    }
}

/// The directory whose entry names `path`. A bare file name has the empty
/// path as its parent, which `File::open` rejects, so it resolves to `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_dir_of_a_bare_name_is_the_current_directory() {
        assert_eq!(parent_dir(Path::new("wal.bin")), Path::new("."));
        assert_eq!(parent_dir(Path::new("logs/wal.bin")), Path::new("logs"));
        assert_eq!(parent_dir(Path::new("/wal.bin")), Path::new("/"));
    }

    #[test]
    fn rotation_not_durable_names_its_cause() {
        use std::error::Error as _;
        let err = StoreError::RotationNotDurable(std::io::Error::other("dir fsync"));
        assert!(err.to_string().contains("not durable: dir fsync"), "{err}");
        assert!(err.source().is_some(), "the io error stays reachable");
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("boxes-wal-store-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn file_store_appends_sync_and_reopen() {
        let path = temp_path("roundtrip");
        {
            let mut store = FileLogStore::create(&path, 64).expect("create");
            store.append(b"aaaa").expect("append");
            assert_eq!(store.pending_len(), 4);
            assert_eq!(store.durable_len(), 0);
            store.sync().expect("sync");
            assert_eq!(store.durable_len(), 4);
            store.append(b"bb").expect("append");
            // The unsynced tail is on the medium (OS cache model): a
            // process death keeps it, so reopen sees all 6 bytes.
        }
        {
            let store = FileLogStore::open(&path, 64).expect("reopen");
            assert_eq!(store.durable_len(), 6);
            assert_eq!(store.durable().expect("read"), b"aaaabb");
        }
        assert_eq!(
            FileLogStore::read_log(&path, 64).expect("read_log"),
            b"aaaabb"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_rejects_bad_header_and_wrong_block_size() {
        let path = temp_path("badmeta");
        FileLogStore::create(&path, 64).expect("create");
        match FileLogStore::open(&path, 128) {
            Err(StoreError::BlockSizeMismatch {
                file: 64,
                requested: 128,
            }) => {}
            other => panic!("expected BlockSizeMismatch, got {other:?}"),
        }
        std::fs::write(&path, b"junk").expect("clobber");
        match FileLogStore::open(&path, 64) {
            Err(StoreError::BadHeader(_)) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_replaces_the_log_atomically() {
        let path = temp_path("rotate");
        {
            let mut store = FileLogStore::create(&path, 64).expect("create");
            store.append(b"old-old-old").expect("append");
            store.sync().expect("sync");
            store.rotate(b"ckpt").expect("rotate");
            assert_eq!(store.durable_len(), 4);
            assert_eq!(store.durable().expect("read"), b"ckpt");
            // The adopted handle keeps appending to the rotated file.
            store.append(b"+more").expect("append");
            store.sync().expect("sync");
        }
        let store = FileLogStore::open(&path, 64).expect("reopen");
        assert_eq!(store.durable().expect("read"), b"ckpt+more");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("rotate")).ok();
    }

    #[test]
    fn mem_store_matches_the_two_buffer_model() {
        let mut store = MemLogStore::new();
        store.append(b"abc").expect("append");
        assert_eq!(store.durable_len(), 0);
        assert_eq!(store.pending_len(), 3);
        store.sync().expect("sync");
        assert_eq!(store.durable().expect("read"), b"abc");
        store.rotate(b"z").expect("rotate");
        assert_eq!(store.durable().expect("read"), b"z");
    }

    #[test]
    fn injected_fsync_failure_surfaces_through_the_store() {
        use boxes_pager::{FaultFile, FileFaultPlan};
        let path = temp_path("faulty");
        let mut store = FileLogStore::create_with(&path, 64, |f| {
            Box::new(FaultFile::new(
                f,
                FileFaultPlan {
                    // Sync 1 is the header sync in create(); fail the first
                    // post-create barrier.
                    fail_sync_at: Some(2),
                    ..Default::default()
                },
            ))
        })
        .expect("create");
        store.append(b"doomed").expect("append");
        store.sync().expect_err("injected fsync failure");
        assert_eq!(store.durable_len(), 0, "pending window is not durable");
        std::fs::remove_file(&path).ok();
    }
}
