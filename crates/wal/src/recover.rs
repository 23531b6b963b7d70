//! Crash recovery: replay the durable log against the surviving disk image.
//!
//! The protocol is redo-only over a no-steal pager: uncommitted after-images
//! never reach the backend, so "undo" amounts to rolling back (ignoring) the
//! torn tail of the log — nothing of an uncommitted operation exists on
//! disk. Recovery therefore:
//!
//! 1. scans the log record by record, stopping silently at a torn tail and
//!    loudly ([`WalError::Corrupt`]) at a full-length record whose checksum
//!    mismatches;
//! 2. redoes every complete record's after-images onto the image (redo is
//!    idempotent, so records already applied before the crash are harmless)
//!    and folds the structure-state metas;
//! 3. reshapes the image to the committed allocator state (`"pager"` meta):
//!    truncates blocks past the committed length (eager allocations of the
//!    crashed operation) and clears committed holes;
//! 4. verifies the checksum of every surviving block the log did not
//!    rewrite — a torn page must have been repaired by some committed
//!    record's redo; one that was not is external corruption and fails
//!    recovery with [`WalError::TornPage`]. Redone blocks came from
//!    checksum-verified log records, so each is hashed exactly once, to
//!    give its frame a checksum.

use std::collections::BTreeMap;

use boxes_pager::codec;
use boxes_pager::{BlockId, DiskBlock, DiskImage, Pager, SharedPager};

use crate::frame::{self, DecodeStep, RecordKind, WalError};

/// The outcome of a successful [`recover`].
pub struct Recovered {
    /// Fresh pager holding the committed state (unjournaled; attach a new
    /// [`Wal`](crate::Wal) to continue durably).
    pub pager: SharedPager,
    /// Final fold of every structure-state blob, keyed by name — feed these
    /// to each structure's `reopen`.
    pub metas: BTreeMap<String, Vec<u8>>,
    /// Number of committed operations (commit records) the log contained
    /// *after the last checkpoint truncation* — a recovery-cost metric, not
    /// a total operation count (checkpoints fold earlier commits away).
    pub commits: u64,
    /// Total complete records decoded (commits + checkpoints). Zero means
    /// nothing was ever durable: the caller should start fresh.
    pub records: u64,
    /// Whether an incomplete tail record was found and rolled back.
    pub rolled_back_tail: bool,
}

impl Recovered {
    /// Fetch a structure-state blob by name.
    pub fn meta(&self, name: &str) -> Option<&[u8]> {
        self.metas.get(name).map(Vec::as_slice)
    }
}

/// Replay `log` (the durable WAL bytes) over `image` (the surviving disk).
/// See the module docs for the protocol and failure taxonomy.
pub fn recover(log: &[u8], mut image: DiskImage) -> Result<Recovered, WalError> {
    let block_size = image.block_size;
    let mut metas: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut commits = 0u64;
    let mut records = 0u64;
    let mut rolled_back_tail = false;
    // Latest redo after-image per slot, kept apart from the image so a
    // block rewritten by many records is hashed once, after the scan.
    let mut redo: BTreeMap<usize, Box<[u8]>> = BTreeMap::new();
    let mut pos = 0usize;
    loop {
        match frame::decode_at(log, pos, block_size)? {
            DecodeStep::End => break,
            DecodeStep::TornTail => {
                rolled_back_tail = true;
                break;
            }
            DecodeStep::Complete(record, next) => {
                pos = next;
                records += 1;
                if record.kind == RecordKind::Commit {
                    commits += 1;
                }
                for (name, data) in record.metas {
                    metas.insert(name, data);
                }
                for frame in record.frames {
                    let idx = frame.block.index();
                    if image.blocks.len() <= idx {
                        image.blocks.resize_with(idx + 1, || None);
                    }
                    redo.insert(idx, frame.after);
                }
                for id in record.freed {
                    let idx = id.index();
                    redo.remove(&idx);
                    if idx < image.blocks.len() {
                        image.blocks[idx] = None;
                    }
                }
            }
        }
    }
    if records == 0 {
        // Nothing was ever durable: recovered state is an empty database.
        // (A checkpoint-only log — a crash right after rotation — is NOT
        // this case: its meta fold carries the full committed state.)
        return Ok(Recovered {
            pager: Pager::from_image(
                DiskImage {
                    block_size,
                    blocks: Vec::new(),
                },
                Vec::new(),
            ),
            metas: BTreeMap::new(),
            commits: 0,
            records: 0,
            rolled_back_tail,
        });
    }
    let pager_meta = metas.get("pager").ok_or(WalError::MetaMissing("pager"))?;
    let (committed_len, free) = decode_pager_meta(pager_meta)?;
    // Blocks past the committed length are eager allocations of operations
    // that never committed; committed holes must be holes.
    image.blocks.truncate(committed_len);
    redo.retain(|&idx, _| idx < committed_len);
    if image.blocks.len() < committed_len {
        return Err(WalError::Corrupt {
            offset: log.len(),
            reason: format!(
                "committed length {committed_len} exceeds surviving image ({} blocks)",
                image.blocks.len()
            ),
        });
    }
    for &raw in &free {
        let idx = codec::u32_to_usize(raw);
        if idx >= committed_len {
            return Err(WalError::Corrupt {
                offset: log.len(),
                reason: format!("free-list entry {raw} out of committed range {committed_len}"),
            });
        }
        image.blocks[idx] = None;
        redo.remove(&idx);
    }
    let free_set: std::collections::BTreeSet<u32> = free.iter().copied().collect();
    for (idx, slot) in image.blocks.iter().enumerate() {
        if redo.contains_key(&idx) {
            continue;
        }
        let id = BlockId(codec::usize_to_u32(idx).unwrap_or(u32::MAX));
        match slot {
            Some(block) => {
                if !block.intact() {
                    return Err(WalError::TornPage(id));
                }
            }
            None => {
                if !free_set.contains(&id.0) {
                    return Err(WalError::Corrupt {
                        offset: log.len(),
                        reason: format!("committed block {idx} missing from the image"),
                    });
                }
            }
        }
    }
    for (idx, data) in redo {
        let crc = codec::crc32(&data);
        image.blocks[idx] = Some(DiskBlock { data, crc });
    }
    Ok(Recovered {
        pager: Pager::from_image(image, free),
        metas,
        commits,
        records,
        rolled_back_tail,
    })
}

/// Decode the pager's `"pager"` allocator meta: committed backend length
/// plus the free list, in post-apply order.
fn decode_pager_meta(meta: &[u8]) -> Result<(usize, Vec<u32>), WalError> {
    let corrupt = |reason: &str| WalError::Corrupt {
        offset: 0,
        reason: format!("pager meta: {reason}"),
    };
    if meta.len() < 12 {
        return Err(corrupt("shorter than its fixed header"));
    }
    let mut r = boxes_pager::Reader::new(meta);
    let len = codec::u64_to_index(r.u64());
    let n_free = codec::u32_to_usize(r.u32());
    if meta.len() != 12 + n_free * 4 {
        return Err(corrupt("length does not match its free-list count"));
    }
    let free = (0..n_free).map(|_| r.u32()).collect();
    Ok((len, free))
}
