//! Read-repair: reconstruct block images from the durable log.
//!
//! The pager verifies a per-block checksum on read (memory frames once per
//! version, file slots on every read). On a mismatch (torn media, injected
//! bit rot) it asks its journal for the latest *durable* image of the
//! block instead of failing outright. This module
//! answers that question by folding the durable log front to back: a
//! checkpoint record contributes the full image set captured at rotation
//! time, every later commit record redoes its after-images over that, and
//! frees drop entries. The result is exactly the backend state the log
//! guarantees — the state read-repair may legitimately rewrite in place.
//!
//! A block absent from the fold (never journaled, or freed and not
//! re-written) has no repair source; the pager then degrades loudly rather
//! than serve a possibly-wrong image.

use std::collections::BTreeMap;

use boxes_pager::BlockId;

use crate::frame::{decode_at, DecodeStep, WalError};

/// Fold the durable log into the latest image per block: checkpoint images
/// first, then redo replay of every later commit, with frees removing
/// entries. Keys are raw block ids. A torn tail contributes nothing (it is
/// exactly what recovery would roll back); full-length corruption is a loud
/// [`WalError::Corrupt`].
pub fn image_fold(log: &[u8], block_size: usize) -> Result<BTreeMap<u32, Box<[u8]>>, WalError> {
    let mut images: BTreeMap<u32, Box<[u8]>> = BTreeMap::new();
    let mut pos = 0usize;
    loop {
        match decode_at(log, pos, block_size)? {
            DecodeStep::End | DecodeStep::TornTail => break,
            DecodeStep::Complete(record, next) => {
                for frame in record.frames {
                    images.insert(frame.block.0, frame.after);
                }
                for id in record.freed {
                    images.remove(&id.0);
                }
                pos = next;
            }
        }
    }
    Ok(images)
}

/// The latest durable image of `id`, or `None` when the log retains nothing
/// for the block (unjournaled history, or freed without a later rewrite) —
/// the repair-impossible case that sends the pager into degraded mode.
#[must_use]
pub fn latest_image(log: &[u8], block_size: usize, id: BlockId) -> Option<Box<[u8]>> {
    image_fold(log, block_size)
        .ok()
        .and_then(|mut images| images.remove(&id.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, Record, RecordKind};
    use boxes_pager::TxnFrame;

    const BS: usize = 32;

    fn commit(lsn: u64, writes: &[(u32, u8)], freed: &[u32]) -> Vec<u8> {
        let rec = Record {
            kind: RecordKind::Commit,
            lsn,
            frames: writes
                .iter()
                .map(|&(block, fill)| TxnFrame {
                    block: BlockId(block),
                    before: None,
                    after: vec![fill; BS].into_boxed_slice(),
                })
                .collect(),
            freed: freed.iter().map(|&b| BlockId(b)).collect(),
            metas: Vec::new(),
        };
        encode(&rec, BS)
    }

    #[test]
    fn fold_keeps_the_latest_image_per_block() {
        let mut log = commit(1, &[(0, 1), (1, 2)], &[]);
        log.extend(commit(2, &[(0, 9)], &[]));
        let images = image_fold(&log, BS).expect("clean log");
        assert_eq!(images[&0][0], 9, "later commit wins");
        assert_eq!(images[&1][0], 2);
    }

    #[test]
    fn freed_blocks_have_no_repair_source() {
        let mut log = commit(1, &[(0, 1)], &[]);
        log.extend(commit(2, &[], &[0]));
        assert!(latest_image(&log, BS, BlockId(0)).is_none());
        // A later rewrite of the recycled id restores repairability.
        log.extend(commit(3, &[(0, 7)], &[]));
        assert_eq!(latest_image(&log, BS, BlockId(0)).expect("present")[0], 7);
    }

    #[test]
    fn torn_tail_contributes_nothing() {
        let mut log = commit(1, &[(0, 1)], &[]);
        let full = log.len();
        log.extend(commit(2, &[(0, 5)], &[]));
        let torn = &log[..full + 7];
        assert_eq!(latest_image(torn, BS, BlockId(0)).expect("present")[0], 1);
    }

    #[test]
    fn unknown_block_is_unrepairable() {
        let log = commit(1, &[(0, 1)], &[]);
        assert!(latest_image(&log, BS, BlockId(42)).is_none());
    }
}
