//! O(N/B) bulk loading (§5).
//!
//! With a single pass, leaves are produced in document order and the upper
//! levels are assembled bottom-up; every node is written exactly once and
//! the LIDF is appended sequentially. Underflow can only appear at the right
//! edge of each level and is repaired by balancing the last two siblings —
//! equivalent to the paper's "borrow from or merge with left siblings".

use crate::node::{ChildEntry, Node};
use crate::tree::BBox;
use boxes_lidf::{BlockPtrRecord, Lid};
use boxes_pager::codec::{usize_to_i64, usize_to_u64};
use boxes_pager::BlockId;

/// Split `total` entries into chunks of at most `cap`, each at least `min`
/// (except a single chunk when `total < min`). Greedy full chunks with the
/// final two rebalanced.
pub(crate) fn chunk_sizes(total: usize, cap: usize, min: usize) -> Vec<usize> {
    debug_assert!(min * 2 <= cap + 1);
    if total == 0 {
        return Vec::new();
    }
    if total <= cap {
        return vec![total];
    }
    let mut sizes = Vec::with_capacity(total / cap + 1);
    let full = total / cap;
    let rem = total % cap;
    for _ in 0..full {
        sizes.push(cap);
    }
    if rem > 0 {
        if rem >= min {
            sizes.push(rem);
        } else {
            // Rebalance the tail: split (cap + rem) into two legal chunks.
            let tail = cap + rem;
            sizes.pop();
            sizes.push(tail.div_ceil(2));
            sizes.push(tail / 2);
        }
    }
    sizes
}

impl BBox {
    /// Bulk load `count` labels in document order into an empty B-BOX.
    /// O(N/B) I/Os. Returns the LIDs in document order.
    pub fn bulk_load(&mut self, count: usize) -> Vec<Lid> {
        let _span = boxes_trace::OpSpan::op(self.pager(), self.trace_tag(), "bulk_load");
        self.journaled(|t| t.bulk_load_impl(count))
    }

    fn bulk_load_impl(&mut self, count: usize) -> Vec<Lid> {
        assert!(self.is_empty(), "bulk_load on a non-empty B-BOX");
        if count == 0 {
            return Vec::new();
        }
        let old_root = self.root_id();
        self.pager().free(old_root);
        let (root, height, lids) = self.build_forest(count);
        self.set_root(root, height);
        self.add_len(usize_to_i64(count));
        lids
    }

    /// Build a standalone, fully valid B-BOX subtree holding `count` fresh
    /// labels (appended to this tree's LIDF). Returns (root block, height,
    /// lids in order). The root's back-link is INVALID; callers splice it.
    pub(crate) fn build_forest(&mut self, count: usize) -> (BlockId, usize, Vec<Lid>) {
        assert!(count > 0);
        let leaf_sizes = chunk_sizes(count, self.config().leaf_capacity, self.config().min_leaf());
        // Allocate leaf blocks up front so LIDF records can be appended
        // sequentially with the right pointers.
        let leaf_ids: Vec<BlockId> = leaf_sizes.iter().map(|_| self.pager().alloc()).collect();
        let mut records = Vec::with_capacity(count);
        for (&id, &size) in leaf_ids.iter().zip(&leaf_sizes) {
            for _ in 0..size {
                records.push(BlockPtrRecord::new(id));
            }
        }
        let lids = self.lidf().bulk_append(&records);

        // Group lids into leaves (contents held in memory until the parent
        // is known, so each block is written exactly once).
        let mut level: Vec<(BlockId, Node, u64)> = Vec::with_capacity(leaf_ids.len());
        let mut cursor = 0;
        for (&id, &size) in leaf_ids.iter().zip(&leaf_sizes) {
            let chunk = lids[cursor..cursor + size].to_vec();
            cursor += size;
            level.push((
                id,
                Node::Leaf {
                    parent: BlockId::INVALID,
                    lids: chunk,
                },
                usize_to_u64(size),
            ));
        }

        let mut height = 1;
        while level.len() > 1 {
            let sizes = chunk_sizes(
                level.len(),
                self.config().internal_capacity,
                self.config().min_internal(),
            );
            let mut next: Vec<(BlockId, Node, u64)> = Vec::with_capacity(sizes.len());
            let mut cursor = 0;
            for &size in &sizes {
                let id = self.pager().alloc();
                let group = &mut level[cursor..cursor + size];
                cursor += size;
                let mut entries = Vec::with_capacity(size);
                let mut total = 0;
                for (child_id, child_node, child_size) in group.iter_mut() {
                    child_node.set_parent(id);
                    entries.push(ChildEntry {
                        child: *child_id,
                        size: *child_size,
                    });
                    total += *child_size;
                }
                next.push((
                    id,
                    Node::Internal {
                        parent: BlockId::INVALID,
                        entries,
                    },
                    total,
                ));
            }
            // Children now know their parents: persist them.
            for (id, node, _) in &level {
                self.write_node(*id, node);
            }
            level = next;
            height += 1;
        }
        let (root, node, _) = level.pop().expect("at least one node");
        self.write_node(root, &node);
        (root, height, lids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BBoxConfig;
    use boxes_pager::{Pager, PagerConfig};

    fn make(bs: usize, ordinal: bool) -> BBox {
        let pager = Pager::new(PagerConfig::with_block_size(bs));
        let mut c = BBoxConfig::from_block_size(bs);
        if ordinal {
            c = c.with_ordinal();
        }
        BBox::new(pager, c)
    }

    #[test]
    fn chunking_respects_bounds() {
        for total in 1..200 {
            for (cap, min) in [(7, 3), (4, 2), (10, 5)] {
                let sizes = chunk_sizes(total, cap, min);
                assert_eq!(sizes.iter().sum::<usize>(), total);
                for (i, &s) in sizes.iter().enumerate() {
                    assert!(s <= cap, "total={total} cap={cap}: chunk {s} too big");
                    if total >= min {
                        assert!(
                            s >= min,
                            "total={total} cap={cap} min={min}: chunk {i}={s} too small in {sizes:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_load_small() {
        let mut b = make(64, true);
        let lids = b.bulk_load(5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.height(), 1);
        assert_eq!(b.iter_lids(), lids);
        b.validate();
    }

    #[test]
    fn bulk_load_multi_level() {
        let mut b = make(64, true); // leaf cap 7, internal cap 4
        let lids = b.bulk_load(1000);
        assert!(b.height() >= 4);
        assert_eq!(b.iter_lids(), lids);
        b.validate();
        for (i, &lid) in lids.iter().enumerate().step_by(97) {
            assert_eq!(b.ordinal_of(lid), i as u64);
        }
    }

    #[test]
    fn bulk_load_is_linear_io() {
        let mut b = make(256, false);
        let pager = b.pager().clone();
        let before = pager.stats();
        b.bulk_load(10_000);
        let cost = pager.stats().since(&before);
        let blocks = pager.allocated_blocks() as u64;
        assert!(
            cost.total() <= 3 * blocks + 10,
            "bulk load must be O(N/B): {cost:?} for {blocks} blocks"
        );
        b.validate();
    }

    #[test]
    fn bulk_then_update() {
        let mut b = make(64, false);
        let mut lids = b.bulk_load(100);
        // Bulk-loaded leaves are full: the first insert must split.
        let before = b.counters().leaf_splits;
        let new = b.insert_before(lids[50]);
        assert_eq!(b.counters().leaf_splits, before + 1);
        lids.insert(50, new);
        for _ in 0..50 {
            let n = b.insert_before(lids[50]);
            lids.insert(50, n);
        }
        let labels: Vec<_> = lids.iter().map(|&l| b.lookup(l)).collect();
        for w in labels.windows(2) {
            assert!(w[0] < w[1]);
        }
        b.validate();
    }

    #[test]
    fn bulk_load_exact_boundaries() {
        // Counts that hit leaf capacity multiples exactly.
        for count in [7, 14, 28, 49] {
            let mut b = make(64, true);
            let lids = b.bulk_load(count);
            assert_eq!(lids.len(), count);
            b.validate();
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn double_bulk_load_panics() {
        let mut b = make(64, false);
        b.bulk_load(10);
        b.bulk_load(10);
    }
}
