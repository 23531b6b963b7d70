//! Update streams for the experiments of §7.
//!
//! A workload is a base document to bulk-load plus a sequence of abstract
//! update operations. Operations reference elements by [`ElemRef`]: base
//! elements are numbered 0.. in document order of their start tags; every
//! element created by an insert op is assigned the next number, in insertion
//! order (for subtree inserts, in document order of the subtree). A driver
//! keeps the `ElemRef → (start LID, end LID)` table and replays the stream
//! against any labeling scheme.

use crate::generate::two_level;
use crate::tree::XmlTree;

/// Reference to an element known to the stream (base or previously inserted).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ElemRef(pub usize);

/// Where a new element (or subtree) goes, phrased as the paper's
/// `insert-element-before`: immediately before an existing tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// Before the start tag of the element: become its previous sibling.
    BeforeStart(ElemRef),
    /// Before the end tag of the element: become its last child.
    BeforeEnd(ElemRef),
}

/// One update operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// Insert a single new element at the anchor. Creates one new `ElemRef`.
    InsertElement {
        /// Insertion point.
        anchor: Anchor,
    },
    /// Delete a single element; its children are promoted to its parent.
    DeleteElement {
        /// The doomed element.
        elem: ElemRef,
    },
    /// Bulk-insert a whole subtree at the anchor. Creates one `ElemRef` per
    /// subtree element, in document order of the subtree.
    InsertSubtree {
        /// Insertion point.
        anchor: Anchor,
        /// The subtree; its root becomes one element of the document.
        tree: XmlTree,
    },
    /// Bulk-delete the subtree rooted at the element.
    DeleteSubtree {
        /// Root of the doomed subtree.
        elem: ElemRef,
        /// Every element the subtree contains (including `elem`), so the
        /// driver can retire their label references; the stream generator
        /// always knows this set.
        removed: Vec<ElemRef>,
    },
}

/// A bulk-loaded base document plus update operations.
#[derive(Clone, Debug)]
pub struct UpdateStream {
    /// Document to bulk-load before applying `ops`.
    pub base: XmlTree,
    /// The update operations, in order.
    pub ops: Vec<Op>,
    /// Index of the first op included in measurements (the XMark experiment
    /// primes the structures with the first 200,000 insertions).
    pub measure_from: usize,
}

impl UpdateStream {
    /// Number of single-element insert ops.
    pub fn insert_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::InsertElement { .. }))
            .count()
    }
}

/// The concentrated insertion sequence (Figures 5 and 6).
///
/// Base: a two-level document with `base_children + 1` elements. Then a
/// two-level subtree of `subtree_elements` elements is inserted one element
/// at a time: the subtree root first (as a child of the document root), then
/// its first and last children, second and second-to-last, and so on — each
/// pair "squeezed into the center of a growing list of siblings".
pub fn concentrated(base_children: usize, subtree_elements: usize) -> UpdateStream {
    assert!(subtree_elements >= 1);
    let base = two_level(base_children);
    let base_len = base.len();
    let mut ops = Vec::with_capacity(subtree_elements);
    let root_ref = ElemRef(0); // document root is element 0 in document order

    // Subtree root: last child of the document root.
    ops.push(Op::InsertElement {
        anchor: Anchor::BeforeEnd(root_ref),
    });
    let subtree_root = ElemRef(base_len);

    let children = subtree_elements - 1;
    // The element currently at the left edge of the right half; the center
    // gap sits immediately before its start tag.
    let mut right_frontier: Option<ElemRef> = None;
    for i in 0..children {
        // The first two inserts seed the left and right ends of the child
        // list; afterwards every insert targets the center gap, alternating
        // a left-half element (stays put) with a right-half element (which
        // becomes the new frontier).
        let anchor = match right_frontier {
            Some(frontier) if i >= 2 => Anchor::BeforeStart(frontier),
            _ => Anchor::BeforeEnd(subtree_root),
        };
        ops.push(Op::InsertElement { anchor });
        if i % 2 == 1 {
            right_frontier = Some(ElemRef(base_len + 1 + i));
        }
    }

    UpdateStream {
        base,
        ops,
        measure_from: 0,
    }
}

/// The same workload as [`concentrated`] but delivered as one bulk
/// [`Op::InsertSubtree`] — the "Other findings" comparison (E7).
pub fn concentrated_bulk(base_children: usize, subtree_elements: usize) -> UpdateStream {
    assert!(subtree_elements >= 1);
    let base = two_level(base_children);
    let tree = two_level(subtree_elements - 1);
    UpdateStream {
        base,
        ops: vec![Op::InsertSubtree {
            anchor: Anchor::BeforeEnd(ElemRef(0)),
            tree,
        }],
        measure_from: 0,
    }
}

/// The scattered insertion sequence (Figure 7): `inserts` new elements
/// spread evenly over the base document, each becoming the previous sibling
/// of an existing child.
pub fn scattered(base_children: usize, inserts: usize) -> UpdateStream {
    assert!(base_children >= 1);
    let base = two_level(base_children);
    let ops = (0..inserts)
        .map(|j| {
            // Base children occupy refs 1..=base_children in document order.
            let target = 1 + (j * base_children) / inserts.max(1);
            Op::InsertElement {
                anchor: Anchor::BeforeStart(ElemRef(target)),
            }
        })
        .collect();
    UpdateStream {
        base,
        ops,
        measure_from: 0,
    }
}

/// The XMark insertion sequence (Figures 8 and 9): the document is built up
/// element by element in document order of start tags; each element is
/// appended as the (current) last child of its parent, i.e. inserted before
/// the parent's end tag. The base document is just the root element.
///
/// `measure_after` insertions are treated as priming (200,000 in the paper).
pub fn document_order(doc: &XmlTree, measure_after: usize) -> UpdateStream {
    let order = doc.document_order();
    // Map the source tree's element ids to stream refs: the root is base
    // element 0; the i-th inserted element gets ref i (i starting at 1
    // because the base contributes exactly one element).
    let mut ref_of = vec![usize::MAX; order.len()];
    let mut index_of = std::collections::HashMap::new();
    for (i, &e) in order.iter().enumerate() {
        index_of.insert(e, i);
    }
    ref_of[0] = 0;
    let base = XmlTree::new(doc.tag(doc.root()));
    let mut ops = Vec::with_capacity(order.len().saturating_sub(1));
    for (i, &e) in order.iter().enumerate().skip(1) {
        #[expect(
            clippy::expect_used,
            reason = "workload generators never pick the root as a deletion victim, so parent() is Some"
        )]
        let parent = doc.parent(e).expect("non-root element has a parent");
        let parent_ref = ref_of[index_of[&parent]];
        debug_assert_ne!(parent_ref, usize::MAX, "parent inserted before child");
        ops.push(Op::InsertElement {
            anchor: Anchor::BeforeEnd(ElemRef(parent_ref)),
        });
        ref_of[i] = i;
    }
    let measure_from = measure_after.min(ops.len());
    UpdateStream {
        base,
        ops,
        measure_from,
    }
}

/// Mixed insert/delete churn at one hot spot (ablation A2): first fill the
/// neighborhood with `prefill` inserts (so the hot leaf sits at capacity),
/// then repeatedly insert an element and immediately delete it — the
/// adversary §5 describes against the standard B/2 fill policy. Only the
/// churn rounds are measured.
pub fn insert_delete_churn(base_children: usize, rounds: usize) -> UpdateStream {
    insert_delete_churn_with_prefill(base_children, rounds, 2_000)
}

/// [`insert_delete_churn`] with an explicit prefill size.
pub fn insert_delete_churn_with_prefill(
    base_children: usize,
    rounds: usize,
    prefill: usize,
) -> UpdateStream {
    assert!(base_children >= 2);
    let base = two_level(base_children);
    let base_len = base.len();
    // Hot spot: before the start tag of the middle child.
    let hot = Anchor::BeforeStart(ElemRef(base_children / 2));
    let mut ops = Vec::with_capacity(prefill + rounds * 2);
    for _ in 0..prefill {
        ops.push(Op::InsertElement { anchor: hot });
    }
    for r in 0..rounds {
        ops.push(Op::InsertElement { anchor: hot });
        ops.push(Op::DeleteElement {
            elem: ElemRef(base_len + prefill + r),
        });
    }
    UpdateStream {
        base,
        ops,
        measure_from: prefill,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::xmark;

    /// Replay a stream against a plain XmlTree to get the resulting
    /// document — the reference semantics used by driver tests.
    pub(crate) fn replay_on_tree(stream: &UpdateStream) -> XmlTree {
        let mut tree = stream.base.clone();
        let mut refs: Vec<crate::tree::ElementId> = tree.document_order();
        for op in &stream.ops {
            match op {
                Op::InsertElement { anchor } => {
                    let new = match *anchor {
                        Anchor::BeforeStart(r) => tree.insert_before(refs[r.0], "new"),
                        Anchor::BeforeEnd(r) => tree.add_child(refs[r.0], "new"),
                    };
                    refs.push(new);
                }
                Op::DeleteElement { elem } => {
                    tree.remove_element(refs[elem.0]);
                }
                Op::InsertSubtree { anchor, tree: sub } => {
                    // Insert root then rebuild the subtree under it.
                    let sub_order = sub.document_order();
                    let root = match *anchor {
                        Anchor::BeforeStart(r) => tree.insert_before(refs[r.0], "subroot"),
                        Anchor::BeforeEnd(r) => tree.add_child(refs[r.0], "subroot"),
                    };
                    let mut map = std::collections::HashMap::new();
                    map.insert(sub_order[0], root);
                    refs.push(root);
                    for &e in &sub_order[1..] {
                        let p = map[&sub.parent(e).unwrap()];
                        let n = tree.add_child(p, sub.tag(e));
                        map.insert(e, n);
                        refs.push(n);
                    }
                }
                Op::DeleteSubtree { elem, removed } => {
                    let gone = tree.remove_subtree(refs[elem.0]);
                    assert_eq!(gone.len(), removed.len());
                }
            }
        }
        tree
    }

    #[test]
    fn concentrated_produces_sorted_sibling_list() {
        // With children tagged by insertion parity we can check the final
        // sibling order is exactly "squeeze into the center".
        let stream = concentrated(4, 8); // subtree root + 7 children
        assert_eq!(stream.ops.len(), 8);
        let tree = replay_on_tree(&stream);
        tree.validate();
        // Subtree root is the 5th (last) child of the document root.
        let sub = *tree.children(tree.root()).last().unwrap();
        let sibs = tree.children(sub);
        assert_eq!(sibs.len(), 7);
        // Insertion order was 1, m, 2, m-1, 3, m-2, 4; in document order the
        // element ids must read: ins#0, ins#2, ins#4, ins#6, ins#5, ins#3, ins#1.
        let ids: Vec<u32> = sibs.iter().map(|e| e.0).collect();
        let first = ids[0];
        assert_eq!(
            ids,
            vec![
                first,
                first + 2,
                first + 4,
                first + 6,
                first + 5,
                first + 3,
                first + 1
            ]
        );
    }

    #[test]
    fn concentrated_counts() {
        let stream = concentrated(10, 5);
        assert_eq!(stream.base.len(), 11);
        assert_eq!(stream.insert_count(), 5);
        let tree = replay_on_tree(&stream);
        assert_eq!(tree.len(), 16);
    }

    #[test]
    fn scattered_spreads_evenly() {
        let stream = scattered(100, 10);
        let tree = replay_on_tree(&stream);
        assert_eq!(tree.len(), 111);
        // All inserts are children of the root, spread across the range.
        let mut anchors: Vec<usize> = stream
            .ops
            .iter()
            .map(|op| match op {
                Op::InsertElement {
                    anchor: Anchor::BeforeStart(r),
                } => r.0,
                _ => panic!("unexpected op"),
            })
            .collect();
        anchors.dedup();
        assert_eq!(anchors.len(), 10, "ten distinct evenly spaced anchors");
        assert_eq!(*anchors.first().unwrap(), 1);
        assert!(*anchors.last().unwrap() > 90);
    }

    #[test]
    fn document_order_rebuilds_the_document() {
        let doc = xmark(500, 11);
        let stream = document_order(&doc, 100);
        assert_eq!(stream.measure_from, 100);
        assert_eq!(stream.ops.len(), doc.len() - 1);
        let rebuilt = replay_on_tree(&stream);
        rebuilt.validate();
        assert_eq!(rebuilt.len(), doc.len());
        // Same shape: parent index sequence must match in document order.
        let orig_order = doc.document_order();
        let orig_idx: std::collections::HashMap<_, _> = orig_order
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i))
            .collect();
        let new_order = rebuilt.document_order();
        let new_idx: std::collections::HashMap<_, _> =
            new_order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        for (i, (&o, &n)) in orig_order.iter().zip(&new_order).enumerate().skip(1) {
            let op = orig_idx[&doc.parent(o).unwrap()];
            let np = new_idx[&rebuilt.parent(n).unwrap()];
            assert_eq!(op, np, "parent mismatch at document position {i}");
        }
    }

    #[test]
    fn churn_keeps_size_constant_after_prefill() {
        let stream = insert_delete_churn_with_prefill(50, 20, 30);
        let tree = replay_on_tree(&stream);
        assert_eq!(tree.len(), 51 + 30);
        assert_eq!(stream.measure_from, 30);
    }

    #[test]
    fn bulk_stream_matches_element_at_a_time_shape() {
        let bulk = replay_on_tree(&concentrated_bulk(6, 9));
        let single = replay_on_tree(&concentrated(6, 9));
        assert_eq!(bulk.len(), single.len());
        let sub_bulk = *bulk.children(bulk.root()).last().unwrap();
        let sub_single = *single.children(single.root()).last().unwrap();
        assert_eq!(
            bulk.children(sub_bulk).len(),
            single.children(sub_single).len()
        );
    }
}
