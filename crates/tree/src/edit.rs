//! Node edit operations on general trees (§2 of the paper).
//!
//! Three operations are defined on rooted ordered labeled trees:
//!
//! * **Insertion** adds a node `Nx` between a parent `Np` and a consecutive
//!   run of `Np`'s children, which become `Nx`'s children.
//! * **Deletion** removes a non-root node, splicing its children into its
//!   parent's child list in place (the inverse of insertion).
//! * **Renaming** changes a node's label.
//!
//! Applying an operation produces a *new* tree with fresh (preorder) node
//! ids; id stability across edits is deliberately not promised because
//! deletions compact the arena.
//!
//! These operations drive the decay-factor data generator and, crucially,
//! the property tests for Lemma 1/2: `TED(t, apply_edits(t, ops)) ≤
//! ops.len()` because each operation is a unit-cost edit.

use crate::error::EditError;
use crate::label::Label;
use crate::tree::{NodeId, Tree};

/// A single node edit operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Change the label of `node` to `label`.
    Rename {
        /// Node to relabel.
        node: NodeId,
        /// New label.
        label: Label,
    },
    /// Remove `node` (non-root), splicing its children into its parent.
    Delete {
        /// Node to remove.
        node: NodeId,
    },
    /// Insert a new node labeled `label` as a child of `parent` at child
    /// position `start`, adopting the `count` consecutive existing children
    /// `children[start .. start + count]`.
    Insert {
        /// Parent under which the new node is placed.
        parent: NodeId,
        /// Position in the parent's child list.
        start: usize,
        /// Number of consecutive children adopted by the new node.
        count: usize,
        /// Label of the inserted node.
        label: Label,
    },
}

/// Applies one edit operation, returning the edited tree.
///
/// Ids are preorder before and after, so each operation is one O(n) pass
/// over the two columns that allocates only the new tree: a rename stores
/// one label; a delete drops slot `v`, hands `v`'s children to its parent
/// and moves later ids down; an insert opens the slot where the new node's
/// run starts, hangs the adopted run from it and moves later ids up.
pub fn apply_edit(tree: &Tree, op: &EditOp) -> Result<Tree, EditError> {
    let (labels, parents) = (tree.labels(), tree.parents());
    let n = tree.len();
    let check = |node: NodeId| -> Result<usize, EditError> {
        if node.index() < n {
            Ok(node.index())
        } else {
            Err(EditError::UnknownNode)
        }
    };

    match *op {
        EditOp::Rename { node, label } => {
            let v = check(node)?;
            let mut labels = labels.to_vec();
            labels[v] = label;
            Ok(Tree::from_preorder_columns(labels, parents.to_vec()))
        }
        EditOp::Delete { node } => {
            let v = check(node)?;
            let up = tree.parent(node).ok_or(EditError::DeleteRoot)?.0;
            let new_labels = [&labels[..v], &labels[v + 1..]].concat();
            // Ids before v keep their parents (all before v, or the
            // root's mark); later ones lose v and move down.
            let mut new_parents = Vec::with_capacity(n - 1);
            new_parents.extend_from_slice(&parents[..v]);
            new_parents.extend(parents[v + 1..].iter().map(|&p| {
                let p = if p == node.0 { up } else { p };
                p - u32::from(p > node.0)
            }));
            Ok(Tree::from_preorder_columns(new_labels, new_parents))
        }
        EditOp::Insert {
            parent,
            start,
            count,
            label,
        } => {
            let p = check(parent)?;
            let kids = || tree.children(parent).map(NodeId::index);
            let available = kids().count();
            if start > available || count > available - start {
                return Err(EditError::BadChildRange {
                    start,
                    count,
                    available,
                });
            }
            // The new node takes slot s, where child `start` or the end of
            // the parent's run is; the adopted run is s..e.
            let end = (p + 1..n).find(|&j| parents[j] < parent.0).unwrap_or(n);
            let s = kids().nth(start).unwrap_or(end);
            let e = kids().nth(start + count).unwrap_or(end);
            let new_labels = [&labels[..s], &[label], &labels[s..]].concat();
            // Ids before s keep their parents; later ones move up, and the
            // parent's children in s..e now hang from slot s.
            let mut new_parents = Vec::with_capacity(n + 1);
            new_parents.extend_from_slice(&parents[..s]);
            new_parents.push(parent.0);
            new_parents.extend((s..n).zip(&parents[s..]).map(|(u, &q)| {
                if q == parent.0 && u < e {
                    s as u32
                } else {
                    q + u32::from(q as usize >= s)
                }
            }));
            Ok(Tree::from_preorder_columns(new_labels, new_parents))
        }
    }
}

/// Applies a sequence of operations left to right.
///
/// Node ids in each operation refer to the tree produced by the *previous*
/// operation, so callers generating random scripts should derive each op
/// from the intermediate tree.
pub fn apply_edits(tree: &Tree, ops: &[EditOp]) -> Result<Tree, EditError> {
    let mut current = tree.clone();
    for op in ops {
        current = apply_edit(&current, op)?;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;
    use crate::parser::{parse_bracket, to_bracket};

    fn t(input: &str, labels: &mut LabelInterner) -> Tree {
        parse_bracket(input, labels).unwrap()
    }

    #[test]
    fn rename_changes_one_label() {
        let mut labels = LabelInterner::new();
        let tree = t("{a{b}{c}}", &mut labels);
        let b_node = tree.children(tree.root()).next().unwrap();
        let new = apply_edit(
            &tree,
            &EditOp::Rename {
                node: b_node,
                label: labels.intern("z"),
            },
        )
        .unwrap();
        assert_eq!(to_bracket(&new, &labels), "{a{z}{c}}");
    }

    #[test]
    fn delete_splices_children() {
        // Figure 2: T1 -> T2 deletes N4; N4's child N5 takes its place.
        let mut labels = LabelInterner::new();
        let tree = t("{1{2{3}{4{5}}{6}}{7}}", &mut labels);
        let n2 = tree.children(tree.root()).next().unwrap();
        let n4 = tree.children(n2).nth(1).unwrap();
        let new = apply_edit(&tree, &EditOp::Delete { node: n4 }).unwrap();
        assert_eq!(to_bracket(&new, &labels), "{1{2{3}{5}{6}}{7}}");
        new.validate().unwrap();
    }

    #[test]
    fn delete_leaf() {
        let mut labels = LabelInterner::new();
        let tree = t("{a{b}{c}}", &mut labels);
        let c_node = tree.children(tree.root()).nth(1).unwrap();
        let new = apply_edit(&tree, &EditOp::Delete { node: c_node }).unwrap();
        assert_eq!(to_bracket(&new, &labels), "{a{b}}");
    }

    #[test]
    fn delete_root_rejected() {
        let mut labels = LabelInterner::new();
        let tree = t("{a{b}}", &mut labels);
        let err = apply_edit(&tree, &EditOp::Delete { node: tree.root() });
        assert_eq!(err.unwrap_err(), EditError::DeleteRoot);
    }

    #[test]
    fn insert_adopts_consecutive_children() {
        // Figure 2: T2 -> T3 inserts N8 between N1 and {N6, N7}.
        let mut labels = LabelInterner::new();
        let tree = t("{1{2{3}{5}{6}}{7}}", &mut labels);
        let n2 = tree.children(tree.root()).next().unwrap();
        // Insert "8" as child of node 2, adopting children [1..3) = {5, 6}.
        let new = apply_edit(
            &tree,
            &EditOp::Insert {
                parent: n2,
                start: 1,
                count: 2,
                label: labels.intern("8"),
            },
        )
        .unwrap();
        assert_eq!(to_bracket(&new, &labels), "{1{2{3}{8{5}{6}}}{7}}");
        new.validate().unwrap();
    }

    #[test]
    fn insert_leaf_adopting_nothing() {
        let mut labels = LabelInterner::new();
        let tree = t("{a{b}}", &mut labels);
        let new = apply_edit(
            &tree,
            &EditOp::Insert {
                parent: tree.root(),
                start: 1,
                count: 0,
                label: labels.intern("x"),
            },
        )
        .unwrap();
        assert_eq!(to_bracket(&new, &labels), "{a{b}{x}}");
    }

    #[test]
    fn insert_bad_range_rejected() {
        let mut labels = LabelInterner::new();
        let tree = t("{a{b}}", &mut labels);
        let err = apply_edit(
            &tree,
            &EditOp::Insert {
                parent: tree.root(),
                start: 0,
                count: 2,
                label: labels.intern("x"),
            },
        );
        assert!(matches!(err, Err(EditError::BadChildRange { .. })));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut labels = LabelInterner::new();
        let tree = t("{a}", &mut labels);
        let bogus = NodeId::from_index(99);
        assert!(matches!(
            apply_edit(&tree, &EditOp::Delete { node: bogus }),
            Err(EditError::UnknownNode)
        ));
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let mut labels = LabelInterner::new();
        let tree = t("{r{a}{b}{c}}", &mut labels);
        let inserted = apply_edit(
            &tree,
            &EditOp::Insert {
                parent: tree.root(),
                start: 0,
                count: 3,
                label: labels.intern("m"),
            },
        )
        .unwrap();
        assert_eq!(to_bracket(&inserted, &labels), "{r{m{a}{b}{c}}}");
        // Deleting the inserted node restores the original structure.
        let m_node = inserted.children(inserted.root()).next().unwrap();
        let restored = apply_edit(&inserted, &EditOp::Delete { node: m_node }).unwrap();
        assert!(restored.structurally_eq(&tree));
    }

    #[test]
    fn figure2_full_sequence() {
        // T1 --delete N4--> T2 --insert N8--> T3 --rename N5--> T4.
        let mut labels = LabelInterner::new();
        let t1 = t("{1{2{3}{4{5}}{6}}{7}}", &mut labels);
        let n2 = t1.children(t1.root()).next().unwrap();
        let n4 = t1.children(n2).nth(1).unwrap();
        let t2 = apply_edit(&t1, &EditOp::Delete { node: n4 }).unwrap();
        let n2 = t2.children(t2.root()).next().unwrap();
        let t3 = apply_edit(
            &t2,
            &EditOp::Insert {
                parent: n2,
                start: 1,
                count: 2,
                label: labels.intern("8"),
            },
        )
        .unwrap();
        let n2 = t3.children(t3.root()).next().unwrap();
        let n8 = t3.children(n2).nth(1).unwrap();
        let n5 = t3.children(n8).next().unwrap();
        let t4 = apply_edit(
            &t3,
            &EditOp::Rename {
                node: n5,
                label: labels.intern("9"),
            },
        )
        .unwrap();
        assert_eq!(to_bracket(&t4, &labels), "{1{2{3}{8{9}{6}}}{7}}");
    }
}
