//! The B-BOX tree: lookup, compare, insert, delete (§5).

use crate::config::BBoxConfig;
use crate::label::{ceil_log2, PathLabel};
use crate::node::{ChildEntry, Node};
use boxes_lidf::{BlockPtrRecord, Lid, Lidf};
use boxes_pager::{BlockId, SharedPager};
use boxes_trace::OpSpan;
use std::cmp::Ordering;

/// Trace scheme tag for a B-BOX with this configuration (mirrors
/// `LabelingScheme::name`).
pub(crate) fn tag_for(config: &BBoxConfig) -> &'static str {
    if config.ordinal {
        "B-BOX-O"
    } else {
        "B-BOX"
    }
}

/// Event counters exposed for the experiments (the "steps" visible in
/// Figure 6 correspond to these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BBoxCounters {
    /// Leaf splits.
    pub leaf_splits: u64,
    /// Internal-node splits.
    pub internal_splits: u64,
    /// Merges (leaf or internal).
    pub merges: u64,
    /// Borrow-from-sibling events.
    pub borrows: u64,
}

/// A structural reorganization note for the §6 caching layer: which label
/// prefixes a split/merge/borrow invalidated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BBoxChange {
    /// The node at `prefix` gained or lost a child at position `j`: labels
    /// `prefix · k · …` with k ≥ j are invalid (§6 case 1).
    ChildrenFrom {
        /// Path components of the reorganized node (empty for the root).
        prefix: Vec<u32>,
        /// First affected child position.
        j: u32,
    },
    /// The boundary between children `j` and `j + 1` of the node at
    /// `prefix` moved: labels with next component j or j + 1 are invalid
    /// (§6 case 2).
    Boundary {
        /// Path components of the node whose children rebalanced.
        prefix: Vec<u32>,
        /// Left child of the shifted boundary.
        j: u32,
    },
}

/// The Back-linked B-tree for Ordering XML.
pub struct BBox {
    pager: SharedPager,
    lidf: Lidf<BlockPtrRecord>,
    config: BBoxConfig,
    root: BlockId,
    /// Number of levels; 1 means the root is a leaf.
    height: usize,
    len: u64,
    counters: BBoxCounters,
    /// Blocks freed since the last [`BBox::take_freed_log`] — lets the
    /// subtree-repair passes detect seam nodes consumed by a merge.
    freed_log: Vec<BlockId>,
    /// Structural reorganizations since [`BBox::take_changes`] (§6 support).
    changes: Vec<BBoxChange>,
}

impl BBox {
    /// Create an empty B-BOX on the shared pager.
    pub fn new(pager: SharedPager, config: BBoxConfig) -> Self {
        config.validate();
        let _span = OpSpan::op(&pager, tag_for(&config), "open");
        let txn = pager.txn();
        let lidf = Lidf::new(pager.clone());
        let root = pager.alloc();
        let node = Node::leaf(BlockId::INVALID);
        let this = Self {
            pager,
            lidf,
            config,
            root,
            height: 1,
            len: 0,
            counters: BBoxCounters::default(),
            freed_log: Vec::new(),
            changes: Vec::new(),
        };
        this.write_node(root, &node);
        this.pager.txn_meta("bbox", || this.save_state());
        this.pager.txn_meta("lidf", || this.lidf.save_state());
        txn.commit();
        this
    }

    /// Reconstruct a B-BOX from its `"bbox"` and `"lidf"` state blobs over a
    /// recovered pager. `config` must match the build-time configuration.
    /// Transient observability state — [`BBoxCounters`], the freed-block log,
    /// and the §6 change log — restarts empty; the caching layer realigns
    /// its mod-log to the recovered checkpoint timestamp instead.
    pub fn reopen(pager: SharedPager, config: BBoxConfig, state: &[u8], lidf_state: &[u8]) -> Self {
        let _span = OpSpan::op(&pager, tag_for(&config), "open");
        config.validate();
        let lidf = Lidf::reopen(pager.clone(), lidf_state);
        let mut r = boxes_pager::Reader::new(state);
        let root = BlockId(r.u32());
        let height = boxes_pager::codec::u64_to_index(r.u64());
        let len = r.u64();
        assert!(pager.is_allocated(root), "recovered B-BOX root unallocated");
        Self {
            pager,
            lidf,
            config,
            root,
            height,
            len,
            counters: BBoxCounters::default(),
            freed_log: Vec::new(),
            changes: Vec::new(),
        }
    }

    /// Serialize the in-memory header — everything [`BBox::reopen`] needs
    /// beyond the blocks themselves and the LIDF's own `"lidf"` blob.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = boxes_pager::VecWriter::new();
        w.u32(self.root.0);
        w.u64(boxes_pager::codec::usize_to_u64(self.height));
        w.u64(self.len);
        w.into_bytes()
    }

    /// Run `f` as one journaled operation: all blocks it dirties (splits,
    /// merges, borrows, subtree grafts) commit as a single atomic WAL
    /// record carrying the refreshed `"bbox"` state blob.
    pub(crate) fn trace_tag(&self) -> &'static str {
        tag_for(&self.config)
    }

    pub(crate) fn journaled<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let txn = self.pager.txn();
        let out = f(self);
        let state = self.save_state();
        self.pager.txn_meta("bbox", || state);
        txn.commit();
        out
    }

    // ----- node I/O ------------------------------------------------------

    pub(crate) fn read_node(&self, id: BlockId) -> Node {
        Node::decode(&self.pager.read(id))
    }

    pub(crate) fn write_node(&self, id: BlockId, node: &Node) {
        let mut buf = vec![0u8; self.pager.block_size()].into_boxed_slice();
        node.encode(&mut buf);
        self.pager.write(id, &buf);
    }

    /// Rewrite a child's back-link (2 I/Os — the cost §5 charges for every
    /// relocated internal entry).
    pub(crate) fn set_parent(&self, child: BlockId, parent: BlockId) {
        let mut node = self.read_node(child);
        node.set_parent(parent);
        self.write_node(child, &node);
    }

    /// Free a tree block, remembering it in the freed log.
    pub(crate) fn free_node(&mut self, id: BlockId) {
        self.freed_log.push(id);
        self.pager.free(id);
    }

    /// Drain the freed-block log (subtree-repair bookkeeping).
    pub(crate) fn take_freed_log(&mut self) -> Vec<BlockId> {
        std::mem::take(&mut self.freed_log)
    }

    /// Conservative note: everything cached is invalid (bulk subtree ops).
    pub(crate) fn note_change_all(&mut self) {
        self.changes.push(BBoxChange::ChildrenFrom {
            prefix: Vec::new(),
            j: 0,
        });
    }

    /// Drain the structural-change notes accumulated since the last call.
    /// The §6 caching layer turns each into an `invalidated` log entry;
    /// they are empty for the (vastly more common) leaf-local updates.
    pub fn take_changes(&mut self) -> Vec<BBoxChange> {
        std::mem::take(&mut self.changes)
    }

    /// Path components of a node (empty for the root): the shared prefix of
    /// every label below it. Costs one read per level above the node.
    pub(crate) fn path_components_of(&self, id: BlockId) -> Vec<u32> {
        let mut components = Vec::new();
        let mut cur = id;
        loop {
            let node = self.read_node(cur);
            let parent = node.parent();
            if parent.is_invalid() {
                break;
            }
            let p = self.read_node(parent);
            components.push(p.position_of_child(cur) as u32);
            cur = parent;
        }
        components.reverse();
        components
    }

    /// The anchor's full label plus the number of records on its leaf —
    /// the `prefix`, position and `hi_last` of §6's B-BOX shift entries.
    pub fn leaf_extent(&self, lid: Lid) -> (PathLabel, u32) {
        let leaf_id = self.lidf.read(lid).block;
        let node = self.read_node(leaf_id);
        let count = node.lids().len() as u32;
        let mut components = vec![node.position_of_lid(lid) as u32];
        let mut cur = leaf_id;
        let mut parent = node.parent();
        while !parent.is_invalid() {
            let p = self.read_node(parent);
            components.push(p.position_of_child(cur) as u32);
            cur = parent;
            parent = p.parent();
        }
        components.reverse();
        (PathLabel(components), count)
    }

    // ----- accessors ------------------------------------------------------

    /// Number of labels stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the structure holds no labels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Configuration in effect.
    pub fn config(&self) -> &BBoxConfig {
        &self.config
    }

    /// Event counters.
    pub fn counters(&self) -> BBoxCounters {
        self.counters
    }

    /// Shared pager handle.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// Whether `lid` currently names a live label (one LIDF slot read).
    pub fn is_live(&self, lid: Lid) -> bool {
        self.lidf.is_live(lid)
    }

    pub(crate) fn root_id(&self) -> BlockId {
        self.root
    }

    pub(crate) fn lidf_ref(&self) -> &Lidf<BlockPtrRecord> {
        &self.lidf
    }

    pub(crate) fn set_root(&mut self, root: BlockId, height: usize) {
        self.root = root;
        self.height = height;
    }

    pub(crate) fn lidf(&mut self) -> &mut Lidf<BlockPtrRecord> {
        &mut self.lidf
    }

    pub(crate) fn add_len(&mut self, delta: i64) {
        self.len = (self.len as i64 + delta) as u64;
    }

    /// Block currently holding the BOX record of `lid` (one LIDF I/O).
    pub(crate) fn lidf_read_block(&self, lid: Lid) -> BlockId {
        self.lidf.read(lid).block
    }

    /// Re-point a batch of LIDF records at `block` (grouped I/Os).
    pub(crate) fn lidf_repoint(&mut self, lids: &[Lid], block: BlockId) {
        self.lidf.write_batch(
            lids.iter()
                .map(|&l| (l, BlockPtrRecord::new(block)))
                .collect(),
        );
    }

    /// Path from a leaf block to the root: `[(block, decoded node)]`,
    /// level 0 first. Costs one read per level.
    pub(crate) fn path_to_root(&self, leaf: BlockId) -> Vec<(BlockId, Node)> {
        let mut path = Vec::with_capacity(self.height);
        let mut cur = leaf;
        loop {
            let node = self.read_node(cur);
            let parent = node.parent();
            path.push((cur, node));
            if parent.is_invalid() {
                return path;
            }
            cur = parent;
        }
    }

    /// Bring a node back within its minimum-fill bound if needed. Handles
    /// the root specially (an internal root collapses while it has a single
    /// child). Used by the subtree-splice repair passes.
    pub(crate) fn repair_if_underfull(&mut self, id: BlockId) {
        if id == self.root {
            // The root has no fill minimum; it only collapses.
            loop {
                let node = self.read_node(self.root);
                if node.is_leaf() || node.count() != 1 {
                    return;
                }
                self.changes.push(BBoxChange::ChildrenFrom {
                    prefix: Vec::new(),
                    j: 0,
                });
                let only = node.entries()[0].child;
                let root = self.root;
                self.free_node(root);
                self.set_parent(only, BlockId::INVALID);
                self.root = only;
                self.height -= 1;
            }
        }
        let node = self.read_node(id);
        let min = if node.is_leaf() {
            self.config.min_leaf()
        } else {
            self.config.min_internal()
        };
        if node.count() < min {
            self.rebalance(id, node);
        }
    }

    /// Maximum bits a label can currently require: ⌈log₂ f_r⌉ for the root
    /// component plus full-width components below (Theorem 5.1 accounting).
    /// Reads the root (one I/O).
    pub fn label_bits(&self) -> u32 {
        let root = self.read_node(self.root);
        let f_r = root.count().max(2);
        if self.height == 1 {
            return ceil_log2(f_r);
        }
        let internal = ceil_log2(self.config.internal_capacity);
        let leaf = ceil_log2(self.config.leaf_capacity);
        ceil_log2(f_r) + (self.height as u32 - 2) * internal + leaf
    }

    // ----- lookup ---------------------------------------------------------

    /// Reconstruct the label of `lid` bottom-up through the back-links
    /// (Theorem 5.2: O(log_B N) I/Os, plus one for the LIDF).
    pub fn lookup(&self, lid: Lid) -> PathLabel {
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "lookup");
        let leaf_id = self.lidf.read(lid).block;
        let node = self.read_node(leaf_id);
        let mut components = vec![node.position_of_lid(lid) as u32];
        let mut cur = leaf_id;
        let mut parent = node.parent();
        while !parent.is_invalid() {
            let p = self.read_node(parent);
            components.push(p.position_of_child(cur) as u32);
            cur = parent;
            parent = p.parent();
        }
        components.reverse();
        PathLabel(components)
    }

    /// Ordinal label of `lid` (requires ordinal mode): the number of records
    /// preceding it in document order. Same O(log_B N) bottom-up walk,
    /// accumulating the size fields left of the path (Figure 4's example:
    /// 2 + (4+4+5) + 20 = 35).
    pub fn ordinal_of(&self, lid: Lid) -> u64 {
        assert!(
            self.config.ordinal,
            "ordinal lookup requires BBoxConfig::with_ordinal"
        );
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "ordinal");
        let leaf_id = self.lidf.read(lid).block;
        let node = self.read_node(leaf_id);
        let mut count = node.position_of_lid(lid) as u64;
        let mut cur = leaf_id;
        let mut parent = node.parent();
        while !parent.is_invalid() {
            let p = self.read_node(parent);
            let pos = p.position_of_child(cur);
            count += p.entries()[..pos].iter().map(|e| e.size).sum::<u64>();
            cur = parent;
            parent = p.parent();
        }
        count
    }

    /// Compare two labels by walking both paths bottom-up only as far as
    /// their lowest common ancestor — often far cheaper than two lookups
    /// when the labels are close in document order.
    pub fn compare(&self, a: Lid, b: Lid) -> Ordering {
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "compare");
        if a == b {
            return Ordering::Equal;
        }
        let leaf_a = self.lidf.read(a).block;
        let leaf_b = self.lidf.read(b).block;
        if leaf_a == leaf_b {
            let n = self.read_node(leaf_a);
            return n.position_of_lid(a).cmp(&n.position_of_lid(b));
        }
        let mut cur_a = leaf_a;
        let mut cur_b = leaf_b;
        loop {
            let na = self.read_node(cur_a);
            let nb = self.read_node(cur_b);
            let pa = na.parent();
            let pb = nb.parent();
            assert!(
                !pa.is_invalid() && !pb.is_invalid(),
                "labels from different trees"
            );
            if pa == pb {
                let p = self.read_node(pa);
                return p.position_of_child(cur_a).cmp(&p.position_of_child(cur_b));
            }
            cur_a = pa;
            cur_b = pb;
        }
    }

    // ----- insertion ------------------------------------------------------

    /// Insert the very first label into an empty B-BOX.
    pub fn insert_first(&mut self) -> Lid {
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "insert");
        self.journaled(|t| t.insert_first_impl())
    }

    fn insert_first_impl(&mut self) -> Lid {
        assert!(self.is_empty(), "insert_first on a non-empty B-BOX");
        let lid = self.lidf.alloc(BlockPtrRecord::new(self.root));
        let mut node = self.read_node(self.root);
        node.lids_mut().push(lid);
        self.write_node(self.root, &node);
        self.len = 1;
        lid
    }

    /// Insert a new label immediately before `lid_old`. Returns the new LID.
    pub fn insert_before(&mut self, lid_old: Lid) -> Lid {
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "insert");
        self.journaled(|t| t.insert_before_impl(lid_old))
    }

    fn insert_before_impl(&mut self, lid_old: Lid) -> Lid {
        let leaf_id = self.lidf.read(lid_old).block;
        let leaf = self.read_node(leaf_id);
        let pos = leaf.position_of_lid(lid_old);
        let new_lid = self.lidf.alloc(BlockPtrRecord::new(leaf_id));
        self.insert_at(leaf_id, leaf, pos, new_lid);
        self.len += 1;
        new_lid
    }

    /// Insert a new element (start and end labels) before the tag labeled
    /// `lid`, per §3: end label first, then start label before it.
    pub fn insert_element_before(&mut self, lid: Lid) -> (Lid, Lid) {
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "insert_element");
        self.journaled(|t| {
            let end = t.insert_before_impl(lid);
            let start = t.insert_before_impl(end);
            (start, end)
        })
    }

    pub(crate) fn insert_at(&mut self, leaf_id: BlockId, mut leaf: Node, pos: usize, new_lid: Lid) {
        leaf.lids_mut().insert(pos, new_lid);
        if leaf.count() <= self.config.leaf_capacity {
            self.write_node(leaf_id, &leaf);
            if self.config.ordinal {
                self.bump_sizes(leaf.parent(), leaf_id, 1);
            }
            return;
        }
        // Split: the first half of the records remain on the old leaf while
        // the rest move to a new leaf (whose LIDF records must be updated).
        let _phase = OpSpan::phase(&self.pager, "split");
        self.counters.leaf_splits += 1;
        let n = leaf.count();
        let right_lids = leaf.lids_mut().split_off(n.div_ceil(2));
        let right_id = self.pager.alloc();
        let right = Node::Leaf {
            parent: leaf.parent(),
            lids: right_lids,
        };
        self.write_node(leaf_id, &leaf);
        self.write_node(right_id, &right);
        self.lidf.write_batch(
            right
                .lids()
                .iter()
                .map(|&l| (l, BlockPtrRecord::new(right_id)))
                .collect(),
        );
        let left_size = leaf.count() as u64;
        let right_size = right.count() as u64;
        self.insert_child_after(leaf.parent(), leaf_id, right_id, left_size, right_size, 1);
    }

    /// After splitting `left_child`, register `new_child` immediately after
    /// it under `parent_id` (allocating a new root when the split node was
    /// the root). `left_size`/`new_size` are the refreshed size fields;
    /// `delta` is how many records the whole operation added below this
    /// point (1 for a single insert, N' for a subtree splice) and is applied
    /// to the size fields of the untouched ancestors above.
    pub(crate) fn insert_child_after(
        &mut self,
        parent_id: BlockId,
        left_child: BlockId,
        new_child: BlockId,
        left_size: u64,
        new_size: u64,
        delta: i64,
    ) {
        if parent_id.is_invalid() {
            // The split node was the root: grow the tree. Every label gains
            // a component, so everything cached is invalid.
            self.changes.push(BBoxChange::ChildrenFrom {
                prefix: Vec::new(),
                j: 0,
            });
            let new_root = self.pager.alloc();
            let node = Node::Internal {
                parent: BlockId::INVALID,
                entries: vec![
                    ChildEntry {
                        child: left_child,
                        size: left_size,
                    },
                    ChildEntry {
                        child: new_child,
                        size: new_size,
                    },
                ],
            };
            self.write_node(new_root, &node);
            self.set_parent(left_child, new_root);
            self.set_parent(new_child, new_root);
            self.root = new_root;
            self.height += 1;
            return;
        }
        let mut p = self.read_node(parent_id);
        let pos = p.position_of_child(left_child);
        p.entries_mut()[pos].size = left_size;
        p.entries_mut().insert(
            pos + 1,
            ChildEntry {
                child: new_child,
                size: new_size,
            },
        );
        if p.count() <= self.config.internal_capacity {
            self.write_node(parent_id, &p);
            // §6 case 1: this node gained a child at `pos` (the split child
            // itself keeps position `pos` but lost records to position
            // pos + 1, so labels from component `pos` onward are stale).
            self.changes.push(BBoxChange::ChildrenFrom {
                prefix: self.path_components_of(parent_id),
                j: pos as u32,
            });
            if self.config.ordinal {
                self.bump_sizes(p.parent(), parent_id, delta);
            }
            return;
        }
        self.split_internal(parent_id, p, delta);
    }

    /// Split an overflowing internal node (decoded in `p`, not yet
    /// persisted in its overfull state) and propagate upward. Relocated
    /// entries need their children's back-links rewritten — the O(B) term
    /// of Theorem 5.3.
    pub(crate) fn split_internal(&mut self, parent_id: BlockId, mut p: Node, delta: i64) {
        let _phase = OpSpan::phase(&self.pager, "split");
        self.counters.internal_splits += 1;
        let n = p.count();
        let right_entries = p.entries_mut().split_off(n.div_ceil(2));
        let right_id = self.pager.alloc();
        let right = Node::Internal {
            parent: p.parent(),
            entries: right_entries,
        };
        self.write_node(parent_id, &p);
        self.write_node(right_id, &right);
        for e in right.entries() {
            self.set_parent(e.child, right_id);
        }
        let lsize = p.size_sum();
        let rsize = right.size_sum();
        self.insert_child_after(p.parent(), parent_id, right_id, lsize, rsize, delta);
    }

    /// Add `delta` to the size field leading to `child` in every ancestor
    /// starting at `node_id` — the extra O(log_B N) cost of B-BOX-O updates.
    pub(crate) fn bump_sizes(&mut self, node_id: BlockId, child_id: BlockId, delta: i64) {
        let mut cur = node_id;
        let mut child = child_id;
        while !cur.is_invalid() {
            let mut n = self.read_node(cur);
            let pos = n.position_of_child(child);
            let e = &mut n.entries_mut()[pos];
            e.size = (e.size as i64 + delta) as u64;
            self.write_node(cur, &n);
            child = cur;
            cur = n.parent();
        }
    }

    // ----- deletion -------------------------------------------------------

    /// Remove the label identified by `lid`, reclaiming its LIDF record.
    pub fn delete(&mut self, lid: Lid) {
        let _span = OpSpan::op(&self.pager, self.trace_tag(), "delete");
        self.journaled(|t| t.delete_impl(lid));
    }

    fn delete_impl(&mut self, lid: Lid) {
        let leaf_id = self.lidf.read(lid).block;
        let mut leaf = self.read_node(leaf_id);
        let pos = leaf.position_of_lid(lid);
        leaf.lids_mut().remove(pos);
        self.lidf.free(lid);
        self.len -= 1;
        self.write_node(leaf_id, &leaf);
        if self.config.ordinal {
            self.bump_sizes(leaf.parent(), leaf_id, -1);
        }
        if leaf.count() >= self.config.min_leaf() || leaf.parent().is_invalid() {
            return;
        }
        self.rebalance(leaf_id, leaf);
    }

    /// Fix an underfull non-root node by merging with or redistributing
    /// against adjacent siblings. Iterates until the node is legal (rip
    /// operations can leave nodes more than one entry short, so a single
    /// merge may not suffice), then sweeps upward to repair any parent the
    /// merges left underfull. `node` is the decoded current state (already
    /// persisted).
    pub(crate) fn rebalance(&mut self, node_id: BlockId, node: Node) {
        let _phase = OpSpan::phase(&self.pager, "merge");
        let mut node_id = node_id;
        let mut node = node;
        loop {
            if node_id == self.root {
                return; // the root has no minimum
            }
            let min = if node.is_leaf() {
                self.config.min_leaf()
            } else {
                self.config.min_internal()
            };
            if node.count() >= min {
                break;
            }
            let parent_id = node.parent();
            debug_assert!(!parent_id.is_invalid());
            let p = self.read_node(parent_id);
            if p.count() == 1 {
                // The node has absorbed every sibling. If the parent is the
                // root, the node becomes the new root (and is then legal by
                // definition); otherwise repair the parent level first so
                // the node gains siblings, then retry.
                if parent_id == self.root {
                    self.changes.push(BBoxChange::ChildrenFrom {
                        prefix: Vec::new(),
                        j: 0,
                    });
                    self.free_node(parent_id);
                    self.set_parent(node_id, BlockId::INVALID);
                    self.root = node_id;
                    self.height -= 1;
                    return;
                }
                self.rebalance(parent_id, p);
                node = self.read_node(node_id);
                continue;
            }
            let cap = if node.is_leaf() {
                self.config.leaf_capacity
            } else {
                self.config.internal_capacity
            };
            let mut p = p;
            let pos = p.position_of_child(node_id);
            // Pair with an adjacent sibling (prefer the left one):
            // redistribute when the pair overflows one node, merge
            // otherwise. Redistribution (rather than borrowing a single
            // entry) also repairs the multi-entry deficits of subtree rips.
            if pos > 0 {
                let left_id = p.entries()[pos - 1].child;
                let mut left = self.read_node(left_id);
                if left.count() + node.count() > cap {
                    self.counters.borrows += 1;
                    self.redistribute(&mut left, left_id, &mut node, node_id);
                    self.write_node(left_id, &left);
                    self.write_node(node_id, &node);
                    p.entries_mut()[pos - 1].size = left.size_sum();
                    p.entries_mut()[pos].size = node.size_sum();
                    self.write_node(parent_id, &p);
                    self.changes.push(BBoxChange::Boundary {
                        prefix: self.path_components_of(parent_id),
                        j: (pos - 1) as u32,
                    });
                    break;
                }
                // Merge `node` into its left sibling; the survivor (the
                // left sibling) becomes the node under repair.
                self.counters.merges += 1;
                self.changes.push(BBoxChange::ChildrenFrom {
                    prefix: self.path_components_of(parent_id),
                    j: (pos - 1) as u32,
                });
                let dead = std::mem::replace(&mut node, left);
                self.merge_into(&mut node, dead, left_id);
                self.write_node(left_id, &node);
                self.free_node(node_id);
                let removed = p.entries_mut().remove(pos);
                p.entries_mut()[pos - 1].size += removed.size;
                self.write_node(parent_id, &p);
                node_id = left_id;
            } else {
                let right_id = p.entries()[pos + 1].child;
                let mut right = self.read_node(right_id);
                if right.count() + node.count() > cap {
                    self.counters.borrows += 1;
                    self.redistribute(&mut node, node_id, &mut right, right_id);
                    self.write_node(right_id, &right);
                    self.write_node(node_id, &node);
                    p.entries_mut()[pos + 1].size = right.size_sum();
                    p.entries_mut()[pos].size = node.size_sum();
                    self.write_node(parent_id, &p);
                    self.changes.push(BBoxChange::Boundary {
                        prefix: self.path_components_of(parent_id),
                        j: pos as u32,
                    });
                    break;
                }
                // Merge the right sibling into `node`.
                self.counters.merges += 1;
                self.changes.push(BBoxChange::ChildrenFrom {
                    prefix: self.path_components_of(parent_id),
                    j: pos as u32,
                });
                self.merge_into(&mut node, right, node_id);
                self.write_node(node_id, &node);
                self.free_node(right_id);
                let removed = p.entries_mut().remove(pos + 1);
                p.entries_mut()[pos].size += removed.size;
                self.write_node(parent_id, &p);
            }
        }
        // The node is legal; its parent may have lost entries to the
        // merges above. Sweep upward.
        let parent_id = self.read_node(node_id).parent();
        if parent_id.is_invalid() {
            return;
        }
        let p = self.read_node(parent_id);
        if parent_id == self.root {
            if !p.is_leaf() && p.count() == 1 {
                self.changes.push(BBoxChange::ChildrenFrom {
                    prefix: Vec::new(),
                    j: 0,
                });
                self.free_node(parent_id);
                self.set_parent(node_id, BlockId::INVALID);
                self.root = node_id;
                self.height -= 1;
            }
            return;
        }
        if p.count() < self.config.min_internal() {
            self.rebalance(parent_id, p);
        }
    }

    /// Evenly redistribute the combined entries of two adjacent siblings
    /// (`left` precedes `right`), fixing the LIDF pointer or back-link of
    /// every entry that changes node.
    fn redistribute(
        &mut self,
        left: &mut Node,
        left_id: BlockId,
        right: &mut Node,
        right_id: BlockId,
    ) {
        let total = left.count() + right.count();
        let keep_left = total.div_ceil(2);
        match (left, right) {
            (Node::Leaf { lids: ll, .. }, Node::Leaf { lids: rl, .. }) => {
                if ll.len() > keep_left {
                    // Shift the tail of `left` to the front of `right`.
                    let moved: Vec<Lid> = ll.split_off(keep_left);
                    self.lidf.write_batch(
                        moved
                            .iter()
                            .map(|&l| (l, BlockPtrRecord::new(right_id)))
                            .collect(),
                    );
                    rl.splice(0..0, moved);
                } else {
                    // Shift the head of `right` to the back of `left`.
                    let take = keep_left - ll.len();
                    let moved: Vec<Lid> = rl.drain(..take).collect();
                    self.lidf.write_batch(
                        moved
                            .iter()
                            .map(|&l| (l, BlockPtrRecord::new(left_id)))
                            .collect(),
                    );
                    ll.extend(moved);
                }
            }
            (Node::Internal { entries: le, .. }, Node::Internal { entries: re, .. }) => {
                if le.len() > keep_left {
                    let moved: Vec<ChildEntry> = le.split_off(keep_left);
                    for e in &moved {
                        self.set_parent(e.child, right_id);
                    }
                    re.splice(0..0, moved);
                } else {
                    let take = keep_left - le.len();
                    let moved: Vec<ChildEntry> = re.drain(..take).collect();
                    for e in &moved {
                        self.set_parent(e.child, left_id);
                    }
                    le.extend(moved);
                }
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    /// Append all entries of `dead` onto `survivor` (which keeps block id
    /// `survivor_id`), fixing LIDF pointers / back-links of the moved
    /// entries — the paper's O(B) merge cost.
    fn merge_into(&mut self, survivor: &mut Node, dead: Node, survivor_id: BlockId) {
        match (survivor, dead) {
            (Node::Leaf { lids: sl, .. }, Node::Leaf { lids: dl, .. }) => {
                self.lidf.write_batch(
                    dl.iter()
                        .map(|&l| (l, BlockPtrRecord::new(survivor_id)))
                        .collect(),
                );
                sl.extend(dl);
            }
            (Node::Internal { entries: se, .. }, Node::Internal { entries: de, .. }) => {
                for e in &de {
                    self.set_parent(e.child, survivor_id);
                }
                se.extend(de);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    // ----- whole-tree helpers (tests, oracle, bulk ops) --------------------

    /// All LIDs in document order (DFS). Test/bulk support; costs one read
    /// per node.
    pub fn iter_lids(&self) -> Vec<Lid> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.collect_lids(self.root, &mut out);
        out
    }

    fn collect_lids(&self, id: BlockId, out: &mut Vec<Lid>) {
        match self.read_node(id) {
            Node::Leaf { lids, .. } => out.extend(lids),
            Node::Internal { entries, .. } => {
                for e in entries {
                    self.collect_lids(e.child, out);
                }
            }
        }
    }

    /// Exhaustively verify the §5 invariants; panics on violation with the
    /// full [`boxes_audit::AuditReport`] listing. Intended for tests (reads
    /// the whole tree). The non-panicking form is
    /// [`boxes_audit::Auditable::audit`].
    pub fn validate(&self) {
        boxes_audit::Auditable::audit(self).assert_clean("B-BOX");
    }

    /// Blocks used by the tree plus its LIDF.
    pub fn blocks_used(&self) -> usize {
        self.pager.allocated_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FillPolicy;
    use boxes_pager::{Pager, PagerConfig};

    fn small() -> BBox {
        // 64-byte blocks: leaf cap 7, internal cap 4.
        let pager = Pager::new(PagerConfig::with_block_size(64));
        BBox::new(pager, BBoxConfig::from_block_size(64))
    }

    fn small_ordinal() -> BBox {
        let pager = Pager::new(PagerConfig::with_block_size(64));
        BBox::new(pager, BBoxConfig::from_block_size(64).with_ordinal())
    }

    /// Build by inserting `n` labels at the end (document-append order).
    fn build_appending(bbox: &mut BBox, n: usize) -> Vec<Lid> {
        assert!(n >= 1);
        let mut lids = vec![bbox.insert_first()];
        for _ in 1..n {
            // Insert before nothing = we need an anchor; emulate append by
            // inserting before the last lid then swapping meaning: instead,
            // keep a sentinel "last" record and always insert before it.
            let last = *lids.last().unwrap();
            let new = bbox.insert_before(last);
            let idx = lids.len() - 1;
            lids.insert(idx, new);
        }
        lids
    }

    fn assert_order(bbox: &BBox, lids: &[Lid]) {
        let labels: Vec<PathLabel> = lids.iter().map(|&l| bbox.lookup(l)).collect();
        for (i, w) in labels.windows(2).enumerate() {
            assert!(
                w[0] < w[1],
                "order violated between {:?} and {:?}: {:?} !< {:?}",
                lids[i],
                lids[i + 1],
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn first_label_is_all_zeros() {
        let mut b = small();
        let lid = b.insert_first();
        assert_eq!(b.lookup(lid), PathLabel(vec![0]));
        b.validate();
    }

    #[test]
    fn inserts_split_leaves_and_grow_tree() {
        let mut b = small();
        let lids = build_appending(&mut b, 100);
        assert_eq!(b.len(), 100);
        assert!(b.height() >= 3, "100 records over cap-7 leaves: height ≥ 3");
        assert!(b.counters().leaf_splits > 0);
        assert!(b.counters().internal_splits > 0);
        assert_order(&b, &lids);
        b.validate();
    }

    #[test]
    fn concentrated_inserts_keep_order() {
        let mut b = small();
        let mut lids = build_appending(&mut b, 3);
        // Squeeze 200 inserts right before the middle element.
        let anchor = lids[1];
        for _ in 0..200 {
            let new = b.insert_before(anchor);
            let pos = lids.iter().position(|&l| l == anchor).unwrap();
            lids.insert(pos, new);
        }
        assert_order(&b, &lids);
        b.validate();
    }

    #[test]
    fn element_insert_is_nested_pair() {
        let mut b = small();
        let lids = build_appending(&mut b, 4);
        let (s, e) = b.insert_element_before(lids[2]);
        assert!(b.lookup(lids[1]) < b.lookup(s));
        assert!(b.lookup(s) < b.lookup(e));
        assert!(b.lookup(e) < b.lookup(lids[2]));
        b.validate();
    }

    #[test]
    fn compare_agrees_with_lookup() {
        let mut b = small();
        let lids = build_appending(&mut b, 60);
        for i in (0..60).step_by(7) {
            for j in (0..60).step_by(11) {
                let via_labels = b.lookup(lids[i]).cmp(&b.lookup(lids[j]));
                assert_eq!(b.compare(lids[i], lids[j]), via_labels);
            }
        }
    }

    #[test]
    fn compare_close_labels_is_cheaper_than_two_lookups() {
        let mut b = small();
        let lids = build_appending(&mut b, 300);
        let pager = b.pager().clone();
        let before = pager.stats();
        b.compare(lids[100], lids[101]);
        let close = pager.stats().since(&before).total();
        let before = pager.stats();
        let _ = (b.lookup(lids[100]), b.lookup(lids[101]));
        let full = pager.stats().since(&before).total();
        assert!(close < full, "LCA walk ({close}) vs two lookups ({full})");
    }

    #[test]
    fn delete_simple_keeps_order() {
        let mut b = small();
        let mut lids = build_appending(&mut b, 30);
        for i in [25, 20, 15, 10, 5] {
            b.delete(lids.remove(i));
        }
        assert_eq!(b.len(), 25);
        assert_order(&b, &lids);
        b.validate();
    }

    #[test]
    fn delete_everything_then_reuse() {
        let mut b = small();
        let lids = build_appending(&mut b, 50);
        for &l in &lids[..49] {
            b.delete(l);
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.height(), 1, "tree shrinks back to a single leaf");
        b.validate();
        b.delete(lids[49]);
        assert!(b.is_empty());
        let lid = b.insert_first();
        assert_eq!(b.lookup(lid), PathLabel(vec![0]));
        b.validate();
    }

    #[test]
    fn deletes_trigger_borrows_and_merges() {
        let mut b = small();
        let mut lids = build_appending(&mut b, 200);
        // Delete from the middle to force underflow cascades.
        while lids.len() > 20 {
            b.delete(lids.remove(lids.len() / 2));
        }
        let c = b.counters();
        assert!(c.borrows > 0, "expected borrow events");
        assert!(c.merges > 0, "expected merge events");
        assert_order(&b, &lids);
        b.validate();
    }

    #[test]
    fn quarter_fill_policy_validates() {
        let pager = Pager::new(PagerConfig::with_block_size(128));
        let mut b = BBox::new(
            pager,
            BBoxConfig::from_block_size(128).with_fill(FillPolicy::Quarter),
        );
        let mut lids = build_appending(&mut b, 150);
        for _ in 0..100 {
            b.delete(lids.remove(lids.len() / 2));
        }
        assert_order(&b, &lids);
        b.validate();
    }

    #[test]
    fn ordinal_tracks_document_position() {
        let mut b = small_ordinal();
        let lids = build_appending(&mut b, 80);
        for (i, &lid) in lids.iter().enumerate() {
            assert_eq!(b.ordinal_of(lid), i as u64, "position {i}");
        }
        b.validate();
    }

    #[test]
    fn ordinal_updates_on_insert_and_delete() {
        let mut b = small_ordinal();
        let mut lids = build_appending(&mut b, 40);
        let new = b.insert_before(lids[10]);
        lids.insert(10, new);
        b.delete(lids.remove(30));
        b.delete(lids.remove(3));
        for (i, &lid) in lids.iter().enumerate() {
            assert_eq!(b.ordinal_of(lid), i as u64);
        }
        b.validate();
    }

    #[test]
    #[should_panic(expected = "ordinal lookup requires")]
    fn ordinal_without_support_panics() {
        let mut b = small();
        let lid = b.insert_first();
        b.ordinal_of(lid);
    }

    #[test]
    fn basic_insert_touches_only_leaf_and_lidf() {
        let mut b = small();
        let lids = build_appending(&mut b, 8); // leaf is cap 7 → two leaves now
        let pager = b.pager().clone();
        let before = pager.stats();
        b.insert_before(lids[0]);
        let cost = pager.stats().since(&before);
        // LIDF read (1) + leaf read (1) + LIDF alloc rw (2) + leaf write (1).
        assert!(
            cost.total() <= 6,
            "non-splitting insert should be constant: {cost:?}"
        );
    }

    #[test]
    fn ordinal_insert_costs_height() {
        let mut b = small_ordinal();
        let lids = build_appending(&mut b, 100);
        let pager = b.pager().clone();
        let before = pager.stats();
        b.insert_before(lids[0]);
        let cost = pager.stats().since(&before);
        // Must at least read+write each ancestor level above the leaf.
        assert!(
            cost.total() >= 2 * (b.height() as u64 - 1),
            "size-field maintenance reaches the root: {cost:?}"
        );
    }

    #[test]
    fn label_bits_are_logarithmic() {
        let mut b = small();
        build_appending(&mut b, 500);
        let bits = b.label_bits();
        // Theorem 5.1: log N + 1 + (log N − 1)/(log B − 1) with B ≈ 8.
        let n = 500f64;
        let bound = n.log2() + 1.0 + (n.log2() - 1.0) / (3.0 - 1.0) + 3.0;
        assert!(
            (bits as f64) < bound + 4.0,
            "bits {bits} vs theorem bound ≈ {bound:.1}"
        );
    }

    #[test]
    fn iter_lids_matches_insert_order() {
        let mut b = small();
        let lids = build_appending(&mut b, 64);
        assert_eq!(b.iter_lids(), lids);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::config::BBoxConfig;
    use boxes_pager::{Pager, PagerConfig};

    fn make() -> BBox {
        let pager = Pager::new(PagerConfig::with_block_size(64));
        BBox::new(pager, BBoxConfig::from_block_size(64))
    }

    #[test]
    fn compare_agrees_with_labels_under_churn() {
        let mut b = make();
        let mut order = b.bulk_load(150);
        for round in 0..300usize {
            if round % 4 == 3 && order.len() > 10 {
                let at = (round * 13) % order.len();
                b.delete(order.remove(at));
            } else {
                let at = (round * 29) % order.len();
                let new = b.insert_before(order[at]);
                order.insert(at, new);
            }
        }
        for i in (0..order.len()).step_by(11) {
            for j in (0..order.len()).step_by(17) {
                let expect = i.cmp(&j);
                assert_eq!(b.compare(order[i], order[j]), expect, "({i},{j})");
            }
        }
        b.validate();
    }

    #[test]
    fn hammering_both_document_ends() {
        let mut b = make();
        let order = b.bulk_load(100);
        let first = order[0];
        let last = *order.last().unwrap();
        for i in 0..300 {
            b.insert_before(if i % 2 == 0 { first } else { last });
        }
        assert_eq!(b.len(), 400);
        b.validate();
    }

    #[test]
    fn tree_grows_and_shrinks_repeatedly() {
        let mut b = make();
        let anchor_pool = b.bulk_load(20);
        let anchor = anchor_pool[10];
        for _ in 0..3 {
            let mut inserted = Vec::new();
            for _ in 0..600 {
                inserted.push(b.insert_before(anchor));
            }
            let tall = b.height();
            assert!(tall >= 3);
            for lid in inserted {
                b.delete(lid);
            }
            assert!(b.height() < tall, "tree shrank back");
            b.validate();
        }
        assert_eq!(b.len(), 20);
    }

    #[test]
    fn structural_changes_are_reported_to_the_cache_layer() {
        let mut b = make();
        let order = b.bulk_load(60);
        let _ = b.take_changes();
        // Non-structural insert: no change notes.
        let in_room = b.insert_before(order[3]);
        let _ = in_room;
        // ... the bulk leaves are full, so actually that DID split. Check
        // that split produced notes, and a quiet insert afterwards doesn't.
        assert!(!b.take_changes().is_empty(), "split must be reported");
        b.insert_before(order[3]);
        assert!(
            b.take_changes().is_empty(),
            "leaf-local insert reports nothing"
        );
        b.validate();
    }

    #[test]
    fn ordinal_mode_survives_grow_shrink_cycles() {
        let pager = Pager::new(PagerConfig::with_block_size(64));
        let mut b = BBox::new(pager, BBoxConfig::from_block_size(64).with_ordinal());
        let mut order = b.bulk_load(50);
        for round in 0..4 {
            for i in 0..200 {
                let at = (round * 71 + i * 3) % order.len();
                let new = b.insert_before(order[at]);
                order.insert(at, new);
            }
            while order.len() > 50 {
                let at = (order.len() * 7 + round) % order.len();
                b.delete(order.remove(at));
            }
            for (i, &lid) in order.iter().enumerate().step_by(13) {
                assert_eq!(b.ordinal_of(lid), i as u64);
            }
            b.validate();
        }
    }
}
