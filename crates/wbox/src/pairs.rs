//! W-BOX-O: the start/end pair optimization (§4, "Further optimization for
//! start/end pairs").
//!
//! In pair mode each leaf record knows its partner (the other label of the
//! same element) by LID and block, and each **start** record caches the
//! current value of its element's end label. A pair lookup then costs two
//! I/Os total (LIDF + one leaf) instead of four.
//!
//! The price is maintenance, reproduced here exactly as the paper bounds it:
//!
//! * when a leaf split relocates records, the partners of the moved records
//!   must have their block pointers rewritten — O(B), amortized O(1);
//! * when a range R is relabeled, the start records *outside* R caching end
//!   labels *inside* R must be refreshed. Those elements all contain R's
//!   left endpoint, so they lie on one root-to-leaf path of the XML tree:
//!   at most D of them (Theorem 4.7's O(D + log_B N) insert bound).

use crate::node::WNode;
use crate::tree::WBox;
use boxes_lidf::Lid;
use boxes_pager::codec::usize_to_u64;
use boxes_pager::BlockId;
use std::collections::HashMap;

impl WBox {
    /// Write a leaf after records at positions ≥ `first_changed` shifted
    /// (their labels changed under the leaf-ordinal rule). In pair mode the
    /// partners of shifted **end** records get their cached end labels
    /// refreshed — locally when the partner shares this leaf, remotely
    /// otherwise.
    pub(crate) fn write_leaf_after_shift(
        &mut self,
        id: BlockId,
        node: &WNode,
        first_changed: usize,
    ) {
        if !self.config().pair {
            self.write_node(id, node);
            return;
        }
        let mut node = node.clone();
        let range_lo = node.range_lo();
        let snapshot = node.recs().clone();
        let mut remote: Vec<(BlockId, Lid, u64)> = Vec::new();
        for (i, r) in snapshot.iter().enumerate().skip(first_changed) {
            if !r.is_start && r.partner_lid != Lid::INVALID {
                let new_label = range_lo + usize_to_u64(i);
                if r.partner == id {
                    if let Some(p) = node.recs_mut().iter_mut().find(|x| x.lid == r.partner_lid) {
                        p.end_cache = new_label;
                    }
                } else {
                    remote.push((r.partner, r.partner_lid, new_label));
                }
            }
        }
        self.write_node(id, &node);
        self.apply_end_cache_fixes(remote);
    }

    /// Apply deferred end-cache refreshes, grouped by block.
    pub(crate) fn apply_end_cache_fixes(&mut self, mut fixes: Vec<(BlockId, Lid, u64)>) {
        fixes.sort_by_key(|(b, _, _)| *b);
        let mut i = 0;
        while i < fixes.len() {
            let block = fixes[i].0;
            let mut node = self.read_node(block);
            while i < fixes.len() && fixes[i].0 == block {
                let (_, lid, label) = fixes[i];
                if let Some(r) = node.recs_mut().iter_mut().find(|r| r.lid == lid) {
                    debug_assert!(r.is_start, "end caches live on start records");
                    r.end_cache = label;
                }
                i += 1;
            }
            self.write_node(block, &node);
        }
    }

    /// After relocating the records of `moved` from `old_id` into `new_id`
    /// (a leaf split), rewrite the partner block pointers that named the
    /// old location. Partners inside either half are fixed in memory by the
    /// caller's subsequent writes; this handles the in-memory updates plus
    /// the remote ones.
    ///
    /// Must be called *before* the final writes of `kept` and `moved`; it
    /// mutates both.
    pub(crate) fn fix_partner_blocks_for_split(
        &mut self,
        kept: &mut WNode,
        old_id: BlockId,
        moved: &mut WNode,
        new_id: BlockId,
    ) {
        if !self.config().pair {
            return;
        }
        let moved_lids: std::collections::HashSet<Lid> =
            moved.recs().iter().map(|r| r.lid).collect();
        let mut remote: Vec<(BlockId, Lid)> = Vec::new();
        let partners: Vec<(Lid, BlockId)> = moved
            .recs()
            .iter()
            .filter(|r| r.partner_lid != Lid::INVALID)
            .map(|r| (r.partner_lid, r.partner))
            .collect();
        for r in moved.recs_mut().iter_mut() {
            if r.partner_lid != Lid::INVALID && moved_lids.contains(&r.partner_lid) {
                // Both halves of the pair moved together.
                r.partner = new_id;
            }
        }
        for (partner_lid, partner_block) in partners {
            if moved_lids.contains(&partner_lid) {
                continue; // handled above
            }
            if partner_block == old_id {
                if let Some(p) = kept.recs_mut().iter_mut().find(|p| p.lid == partner_lid) {
                    p.partner = new_id;
                }
            } else {
                remote.push((partner_block, partner_lid));
            }
        }
        // Remote partners: rewrite their block pointers, grouped by block.
        let mut remote_fixes = remote;
        remote_fixes.sort_by_key(|(b, _)| *b);
        let mut i = 0;
        while i < remote_fixes.len() {
            let block = remote_fixes[i].0;
            let mut node = self.read_node(block);
            while i < remote_fixes.len() && remote_fixes[i].0 == block {
                let (_, lid) = remote_fixes[i];
                if let Some(r) = node.recs_mut().iter_mut().find(|r| r.lid == lid) {
                    r.partner = new_id;
                }
                i += 1;
            }
            self.write_node(block, &node);
        }
    }

    /// Cross-link the two labels of one element and prime the end cache.
    pub(crate) fn wire_pair(&mut self, start: Lid, end: Lid) {
        let start_block = self.lidf_ref().read(start).block;
        let end_block = self.lidf_ref().read(end).block;
        let mut snode = self.read_node(start_block);
        let end_label = if end_block == start_block {
            let pos = snode.position_of_lid(end);
            snode.range_lo() + usize_to_u64(pos)
        } else {
            let enode = self.read_node(end_block);
            enode.range_lo() + usize_to_u64(enode.position_of_lid(end))
        };
        {
            let pos = snode.position_of_lid(start);
            let r = &mut snode.recs_mut()[pos];
            r.is_start = true;
            r.partner_lid = end;
            r.partner = end_block;
            r.end_cache = end_label;
        }
        if end_block == start_block {
            let pos = snode.position_of_lid(end);
            let r = &mut snode.recs_mut()[pos];
            r.is_start = false;
            r.partner_lid = start;
            r.partner = start_block;
            self.write_node(start_block, &snode);
        } else {
            self.write_node(start_block, &snode);
            let mut enode = self.read_node(end_block);
            let pos = enode.position_of_lid(end);
            let r = &mut enode.recs_mut()[pos];
            r.is_start = false;
            r.partner_lid = start;
            r.partner = start_block;
            self.write_node(end_block, &enode);
        }
    }

    /// Both labels of an element from its start LID in **two I/Os** (one
    /// LIDF read + one leaf read) — the W-BOX-O payoff.
    pub fn pair_lookup(&self, start_lid: Lid) -> (u64, u64) {
        assert!(
            self.config().pair,
            "pair_lookup requires WBoxConfig::with_pair_optimization"
        );
        let _span = boxes_trace::OpSpan::op(self.pager(), self.trace_tag(), "pair_lookup");
        let block = self.lidf_ref().read(start_lid).block;
        let node = self.read_node(block);
        let pos = node.position_of_lid(start_lid);
        let r = &node.recs()[pos];
        assert!(r.is_start, "pair_lookup takes a start label");
        (node.range_lo() + usize_to_u64(pos), r.end_cache)
    }

    /// Recompute partner blocks and end caches for a fully materialized
    /// record set (used by bulk builds): `placed` maps every LID to its
    /// (block, label).
    pub(crate) fn refresh_pair_fields(
        recs: &mut [crate::node::LeafRecord],
        placed: &HashMap<Lid, (BlockId, u64)>,
    ) {
        for r in recs.iter_mut() {
            if r.partner_lid == Lid::INVALID {
                continue;
            }
            if let Some(&(block, label)) = placed.get(&r.partner_lid) {
                r.partner = block;
                if r.is_start {
                    r.end_cache = label;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::WBoxConfig;
    use crate::tree::WBox;
    use boxes_lidf::Lid;
    use boxes_pager::{Pager, PagerConfig};

    fn make() -> WBox {
        let pager = Pager::new(PagerConfig::with_block_size(512));
        WBox::new(
            pager,
            WBoxConfig::small_for_tests().with_pair_optimization(),
        )
    }

    /// partner map for a flat document: root element wraps n children:
    /// tags = [root_s, c1_s, c1_e, c2_s, c2_e, ..., root_e].
    fn flat_partner_map(children: usize) -> Vec<usize> {
        let total = 2 + 2 * children;
        let mut p = vec![0usize; total];
        p[0] = total - 1;
        p[total - 1] = 0;
        for c in 0..children {
            let s = 1 + 2 * c;
            p[s] = s + 1;
            p[s + 1] = s;
        }
        p
    }

    #[test]
    fn bulk_load_pairs_wires_everything() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(200));
        assert_eq!(w.len(), 402);
        w.validate(); // includes the pair-linkage audit
                      // Root pair lookup: both labels in two I/Os.
        let pager = w.pager().clone();
        let before = pager.stats();
        let (s, e) = w.pair_lookup(lids[0]);
        assert_eq!(pager.stats().since(&before).total(), 2, "W-BOX-O payoff");
        assert_eq!(s, w.lookup(lids[0]));
        assert_eq!(e, w.lookup(lids[401]), "cached end label is fresh");
        assert!(s < e);
    }

    #[test]
    fn insert_element_wires_and_survives_shifts() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(50));
        // Insert elements as last children of the root (before root end).
        let root_end = lids[101];
        let mut new_elems = Vec::new();
        for _ in 0..120 {
            new_elems.push(w.insert_element_before(root_end));
        }
        w.validate();
        for &(s, e) in &new_elems {
            let (ls, le) = w.pair_lookup(s);
            assert_eq!(ls, w.lookup(s));
            assert_eq!(le, w.lookup(e));
            assert!(ls < le);
        }
    }

    #[test]
    fn caches_survive_relabeling_splits() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(100));
        // Hammer inserts just before one child's start tag: the containing
        // ancestors' end labels keep shifting and splits relabel ranges.
        let anchor = lids[51];
        for _ in 0..300 {
            w.insert_element_before(anchor);
        }
        w.validate();
    }

    #[test]
    fn deep_document_caches_stay_fresh() {
        let mut w = make();
        // Nested chain: <a><b><c>...</c></b></a> depth 40.
        let depth = 40usize;
        let total = depth * 2;
        let mut p = vec![0usize; total];
        for d in 0..depth {
            p[d] = total - 1 - d;
            p[total - 1 - d] = d;
        }
        let lids = w.bulk_load_pairs(&p);
        // Insert inside the innermost element repeatedly: every ancestor's
        // end label shifts each time (the paper's D-bounded fix-up case).
        let innermost_end = lids[depth];
        for _ in 0..200 {
            w.insert_element_before(innermost_end);
        }
        w.validate();
        let (s0, e0) = w.pair_lookup(lids[0]);
        assert_eq!(s0, w.lookup(lids[0]));
        assert_eq!(
            e0,
            w.lookup(lids[total - 1]),
            "outermost end label tracks every shift"
        );
    }

    #[test]
    fn pair_lookup_cost_beats_two_lookups() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(2_000));
        let pager = w.pager().clone();
        let before = pager.stats();
        w.pair_lookup(lids[0]);
        let pair_cost = pager.stats().since(&before).total();
        let before = pager.stats();
        let _ = (w.lookup(lids[0]), w.lookup(lids[4001]));
        let two_cost = pager.stats().since(&before).total();
        assert!(pair_cost < two_cost);
        assert_eq!(pair_cost, 2);
    }

    #[test]
    fn deletes_keep_pairs_consistent() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(80));
        // Delete elements 10..30 (both tags each).
        for c in 10..30 {
            let s = lids[1 + 2 * c];
            let e = lids[2 + 2 * c];
            w.delete(s);
            w.delete(e);
        }
        assert_eq!(w.len(), 162 - 40);
        w.validate();
    }

    #[test]
    fn subtree_insert_pairs_wire_correctly() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(300));
        let sub = w.insert_subtree_before_pairs(lids[301], &flat_partner_map(60));
        w.validate();
        let (s, e) = w.pair_lookup(sub[0]);
        assert_eq!(s, w.lookup(sub[0]));
        assert_eq!(e, w.lookup(*sub.last().unwrap()));
        assert!(s < e);
    }

    #[test]
    #[should_panic(expected = "pair_lookup takes a start label")]
    fn pair_lookup_of_end_label_panics() {
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(5));
        w.pair_lookup(*lids.last().unwrap());
    }

    #[test]
    fn plain_records_allowed_in_pair_mode() {
        // insert_before (single label) leaves the record unpaired; pairs
        // validation must tolerate INVALID partners.
        let mut w = make();
        let lids = w.bulk_load_pairs(&flat_partner_map(10));
        let _loose = w.insert_before(lids[5]);
        w.validate();
        let _ = Lid::INVALID;
    }
}
