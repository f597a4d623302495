//! Left-child right-sibling (LC-RS) binary tree representation.
//!
//! Knuth's transformation (§3.1, Figure 4) maps a general rooted ordered
//! labeled tree to a binary tree over the *same node set*: each node's
//! `left` pointer goes to its leftmost child in the general tree and its
//! `right` pointer to its next sibling. Node labels are unchanged, so
//! [`NodeId`]s are shared between a [`Tree`] and its [`BinaryTree`].
//!
//! A tree's ids are preorder, and LC-RS preorder (node, left subtree, right
//! subtree) is general preorder, so no pointer is stored. With `size(v)`
//! the general subtree size and `p` the parent of `v`:
//!
//! * the left child of `v` is `v + 1` when `v` is its parent;
//! * the right child of `v` is `v + size(v)` when the parents agree;
//! * the binary subtree of `v` is the run of ids from `v` up to the end of
//!   its parent's general subtree, `p + size(p)` (the whole tree for the
//!   root), so its size is `p + size(p) − v`;
//! * two nodes compare in binary postorder by whether one's run holds the
//!   other ([`BinaryTree::post_cmp`]);
//! * the general postorder number (the binary inorder) is
//!   `v − depth(v) + size(v)`, 1-based.
//!
//! A [`BinaryTree`] is a view: a copy of the tree's label and parent
//! columns, each with one padding slot a missing child reads, and two
//! `u32` caches a node — `size` and `general_post` — filled by one forward
//! pass (depth) and one backward pass (size) over the columns. The
//! partitioning scheme (§3.3) and the postorder-pruning index layer (§3.4)
//! read it.

use crate::label::Label;
use crate::tree::{NodeId, Tree, NO_PARENT};
use std::cmp::Ordering;

/// Which pointer of the parent leads to a node.
///
/// In the paper's edge taxonomy (§3.1), a node reached through its parent's
/// left pointer has a *right incoming edge* in the drawing of Figure 5 —
/// we avoid that easily-confused vocabulary and name edges by the parent
/// pointer used: `Side::Left` means "this node is its parent's left child".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The node is the left (first-child) successor of its parent.
    Left,
    /// The node is the right (next-sibling) successor of its parent.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// The LC-RS view of a [`Tree`], indexed by [`NodeId`] (see the
/// [module docs](self) for what it stores and why).
#[derive(Debug, Clone)]
pub struct BinaryTree {
    /// The tree's label column, then `ε` in slot n.
    labels: Vec<Label>,
    /// The tree's parent column with `n` for the root's parent, then
    /// `u32::MAX` in slot n: nobody's parent, so slot n is nobody's child
    /// or sibling.
    parents: Vec<u32>,
    /// General subtree size per id, then 0 in slot n.
    size: Vec<u32>,
    /// 1-based general postorder number per id.
    general_post: Vec<u32>,
}

impl BinaryTree {
    /// Builds the LC-RS representation of `tree` (Knuth's transformation).
    ///
    /// Node ids are preserved: binary node `n` is general node `n`.
    pub fn from_tree(tree: &Tree) -> BinaryTree {
        let mut binary = BinaryTree {
            labels: Vec::new(),
            parents: Vec::new(),
            size: Vec::new(),
            general_post: Vec::new(),
        };
        binary.rebuild_from(tree);
        binary
    }

    /// Rebuilds this LC-RS representation in place for a new `tree`,
    /// reusing every array. Equivalent to `*self =
    /// BinaryTree::from_tree(tree)` but allocation-free once the buffers
    /// fit the largest tree seen — repeated probes reuse one instance.
    pub fn rebuild_from(&mut self, tree: &Tree) {
        let n = tree.len();
        self.labels.clear();
        self.labels.extend_from_slice(tree.labels());
        self.labels.push(Label::EPSILON);
        self.parents.clear();
        self.parents.extend_from_slice(tree.parents());
        self.parents[0] = n as u32;
        self.parents.push(NO_PARENT);
        tree.fill_subtree_sizes(&mut self.size);
        // Depths first, then turned into postorder numbers in place.
        tree.fill_depths(&mut self.general_post);
        let numbered = self.general_post.iter_mut().zip(&self.size);
        for (v, (post, &size)) in (0..).zip(numbered) {
            *post = v - *post + size;
        }
        self.size.push(0);
    }

    /// Number of nodes (equal to the size of the source general tree).
    #[inline]
    pub fn len(&self) -> usize {
        self.general_post.len()
    }

    /// Binary trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (same id as the general tree's root).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.labels[node.index()]
    }

    /// The left child's id, or [`BinaryTree::len`] when there is none —
    /// the padding slot of a per-node array, which a caller keeps neutral
    /// (the label read there is `ε`).
    #[inline]
    pub fn left_slot(&self, node: NodeId) -> usize {
        let child = node.index() + 1;
        if self.parents[child] == node.index() as u32 {
            child
        } else {
            self.len()
        }
    }

    /// The right child's id, or [`BinaryTree::len`] when there is none
    /// (see [`BinaryTree::left_slot`]).
    #[inline]
    pub fn right_slot(&self, node: NodeId) -> usize {
        let v = node.index();
        let sibling = v + self.size[v] as usize;
        if self.parents[sibling] == self.parents[v] {
            sibling
        } else {
            self.len()
        }
    }

    /// The general parent's id, or [`BinaryTree::len`] for the root (see
    /// [`BinaryTree::left_slot`]).
    #[inline]
    pub fn parent_slot(&self, node: NodeId) -> usize {
        self.parents[node.index()] as usize
    }

    /// The label at a slot [`BinaryTree::left_slot`] or
    /// [`BinaryTree::right_slot`] returned: `ε` for a missing child.
    #[inline]
    pub fn slot_label(&self, slot: usize) -> Label {
        self.labels[slot]
    }

    /// The left child (leftmost child in the general tree).
    #[inline]
    pub fn left(&self, node: NodeId) -> Option<NodeId> {
        self.node_at(self.left_slot(node))
    }

    /// The right child (next sibling in the general tree).
    #[inline]
    pub fn right(&self, node: NodeId) -> Option<NodeId> {
        self.node_at(self.right_slot(node))
    }

    fn node_at(&self, slot: usize) -> Option<NodeId> {
        (slot < self.len()).then(|| NodeId::from_index(slot))
    }

    /// The child of `node` on `side`.
    #[inline]
    pub fn child(&self, node: NodeId, side: Side) -> Option<NodeId> {
        match side {
            Side::Left => self.left(node),
            Side::Right => self.right(node),
        }
    }

    /// Which side of its parent this node hangs from (`None` for the
    /// root): a first child hangs left, and follows its parent in id order.
    #[inline]
    pub fn side(&self, node: NodeId) -> Option<Side> {
        match self.parent_slot(node) {
            parent if parent == self.len() => None,
            parent if parent + 1 == node.index() => Some(Side::Left),
            _ => Some(Side::Right),
        }
    }

    /// One past the last id of `node`'s binary subtree: the end of its
    /// parent's general subtree (the padding slot's size is 0, so the
    /// root's run ends at `n`).
    #[inline]
    fn end(&self, node: NodeId) -> usize {
        let parent = self.parent_slot(node);
        parent + self.size[parent] as usize
    }

    /// Size of the binary subtree rooted at `node` (node + both subtrees):
    /// the run of ids `node..` it covers.
    #[inline]
    pub fn subtree_size(&self, node: NodeId) -> u32 {
        (self.end(node) - node.index()) as u32
    }

    /// Binary postorder (left subtree, right subtree, node) as a
    /// comparison: `a` comes first when it lies in `b`'s binary subtree,
    /// or wholly before it in preorder.
    #[inline]
    pub fn post_cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        let before = match a.cmp(&b) {
            Ordering::Equal => return Ordering::Equal,
            Ordering::Greater => a.index() < self.end(b),
            Ordering::Less => b.index() >= self.end(a),
        };
        if before {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// 1-based *general-tree* postorder numbers, indexed by node id:
    /// general postorder is LC-RS inorder (left subtree = descendants,
    /// node, right subtree = later siblings). Equal to
    /// [`Tree::postorder_numbers`] of the source tree.
    #[inline]
    pub fn general_post(&self) -> &[u32] {
        &self.general_post
    }

    /// Iterates over all node ids in arena order, which is preorder.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;
    use crate::tree::TreeBuilder;

    /// The general tree of the paper's Figure 4(a):
    /// N1(ℓ1) with children N2, N6(ℓ6), N7(ℓ7); N2(ℓ2) child N3(ℓ3);
    /// N3 children N4(ℓ4), N5(ℓ5); N7 child N8(ℓ8); N8 children N9, N10.
    fn figure4_tree() -> (Tree, LabelInterner) {
        let mut labels = LabelInterner::new();
        let l: Vec<_> = (1..=10).map(|i| labels.intern(&format!("l{i}"))).collect();
        let mut b = TreeBuilder::new();
        let n1 = b.root(l[0]);
        let n2 = b.child(n1, l[1]);
        let n3 = b.child(n2, l[2]);
        b.child(n3, l[3]);
        b.child(n3, l[4]);
        b.child(n1, l[5]);
        let n7 = b.child(n1, l[6]);
        let n8 = b.child(n7, l[7]);
        b.child(n8, l[8]);
        b.child(n8, l[9]);
        (b.build(), labels)
    }

    /// Inverse of Knuth's transformation, read off the left/right links
    /// in preorder.
    fn to_general(bin: &BinaryTree) -> Tree {
        fn add(bin: &BinaryTree, b: &mut TreeBuilder, first: Option<NodeId>, parent: NodeId) {
            let mut sibling = first;
            while let Some(v) = sibling {
                let id = b.child(parent, bin.label(v));
                add(bin, b, bin.left(v), id);
                sibling = bin.right(v);
            }
        }
        assert_eq!(
            bin.right(bin.root()),
            None,
            "an LC-RS root has no right child"
        );
        let mut builder = TreeBuilder::with_capacity(bin.len());
        let root = builder.root(bin.label(bin.root()));
        add(bin, &mut builder, bin.left(bin.root()), root);
        builder.build()
    }

    #[test]
    fn knuth_transform_matches_figure4() {
        let (tree, labels) = figure4_tree();
        let bin = BinaryTree::from_tree(&tree);
        assert_eq!(bin.len(), 10);

        let by_name = |name: &str| {
            let label = labels.get(name).unwrap();
            tree.node_ids().find(|&n| tree.label(n) == label).unwrap()
        };
        let (n1, n2, n3, n4, n6, n7, n8, n9) = (
            by_name("l1"),
            by_name("l2"),
            by_name("l3"),
            by_name("l4"),
            by_name("l6"),
            by_name("l7"),
            by_name("l8"),
            by_name("l9"),
        );
        // Figure 4(b): N1 -left-> N2 -left-> N3, N2 -right-> N6 -right-> N7,
        // N3 -left-> N4 -right-> N5, N7 -left-> N8 -left-> N9 -right-> N10.
        assert_eq!(bin.left(n1), Some(n2));
        assert_eq!(bin.right(n1), None);
        assert_eq!(bin.left(n2), Some(n3));
        assert_eq!(bin.right(n2), Some(n6));
        assert_eq!(bin.right(n6), Some(n7));
        assert_eq!(bin.left(n6), None);
        assert_eq!(bin.left(n3), Some(n4));
        assert_eq!(bin.left(n7), Some(n8));
        assert_eq!(bin.left(n8), Some(n9));
        assert_eq!(bin.side(n2), Some(Side::Left));
        assert_eq!(bin.side(n6), Some(Side::Right));
        assert_eq!(bin.side(n1), None);
    }

    #[test]
    fn postorder_numbers_cover_all_nodes() {
        let (tree, _) = figure4_tree();
        let bin = BinaryTree::from_tree(&tree);
        let mut order: Vec<NodeId> = bin.node_ids().collect();
        order.sort_by(|&a, &b| bin.post_cmp(a, b));
        // The walk the comparison stands for: left, right, node.
        fn walk(bin: &BinaryTree, node: Option<NodeId>, out: &mut Vec<NodeId>) {
            if let Some(v) = node {
                walk(bin, bin.left(v), out);
                walk(bin, bin.right(v), out);
                out.push(v);
            }
        }
        let mut want = Vec::new();
        walk(&bin, Some(bin.root()), &mut want);
        assert_eq!(order, want);
        // Root is visited last in binary postorder.
        assert_eq!(order.last(), Some(&bin.root()));
    }

    #[test]
    fn a_subtree_is_a_run_of_the_preorder() {
        let (tree, _) = figure4_tree();
        let bin = BinaryTree::from_tree(&tree);
        for node in bin.node_ids() {
            // The run opens with the node, then its left subtree, then
            // its right one — each again a run of its own size.
            let mut at = node.index() + 1;
            for child in [bin.left(node), bin.right(node)].into_iter().flatten() {
                assert_eq!(child.index(), at);
                at += bin.subtree_size(child) as usize;
            }
            assert_eq!(at - node.index(), bin.subtree_size(node) as usize);
        }
    }

    #[test]
    fn rebuild_from_matches_fresh_build_across_mismatched_trees() {
        // One reused BinaryTree cycled over trees of different shapes and
        // sizes must reproduce from_tree exactly, including all caches.
        let (fig4, _) = figure4_tree();
        let sources = [
            Tree::leaf(Label::from_raw(7)),
            fig4.clone(),
            Tree::leaf(Label::from_raw(1)),
            fig4,
        ];
        let mut reused = BinaryTree::from_tree(&sources[0]);
        for tree in &sources {
            reused.rebuild_from(tree);
            let fresh = BinaryTree::from_tree(tree);
            assert_eq!(reused.len(), fresh.len());
            assert_eq!(reused.root(), fresh.root());
            assert_eq!(reused.general_post(), tree.postorder_numbers());
            for node in fresh.node_ids() {
                assert_eq!(reused.label(node), fresh.label(node));
                assert_eq!(reused.left(node), fresh.left(node));
                assert_eq!(reused.right(node), fresh.right(node));
                assert_eq!(reused.side(node), fresh.side(node));
                assert_eq!(reused.subtree_size(node), fresh.subtree_size(node));
            }
        }
    }

    #[test]
    fn subtree_sizes_match_binary_structure() {
        let (tree, _) = figure4_tree();
        let bin = BinaryTree::from_tree(&tree);
        assert_eq!(bin.subtree_size(bin.root()) as usize, bin.len());
        for node in bin.node_ids() {
            let expected = 1
                + bin.left(node).map_or(0, |l| bin.subtree_size(l))
                + bin.right(node).map_or(0, |r| bin.subtree_size(r));
            assert_eq!(bin.subtree_size(node), expected);
        }
    }

    #[test]
    fn round_trip_to_general() {
        let (tree, _) = figure4_tree();
        let bin = BinaryTree::from_tree(&tree);
        let back = to_general(&bin);
        assert!(back.structurally_eq(&tree));
        back.validate().unwrap();
    }

    #[test]
    fn single_node_round_trip() {
        let tree = Tree::leaf(Label::from_raw(3));
        let bin = BinaryTree::from_tree(&tree);
        assert_eq!(bin.len(), 1);
        assert_eq!(bin.left(bin.root()), None);
        assert_eq!(bin.right(bin.root()), None);
        assert!(to_general(&bin).structurally_eq(&tree));
    }

    #[test]
    fn deep_chain_round_trip() {
        // A path tree (each node one child) becomes a left spine.
        let mut labels = LabelInterner::new();
        let mut b = TreeBuilder::new();
        let mut cur = b.root(labels.intern("n0"));
        for i in 1..50 {
            cur = b.child(cur, labels.intern(&format!("n{i}")));
        }
        let tree = b.build();
        let bin = BinaryTree::from_tree(&tree);
        for node in bin.node_ids() {
            assert_eq!(bin.right(node), None, "path tree has no siblings");
        }
        assert!(to_general(&bin).structurally_eq(&tree));
    }

    #[test]
    fn flat_star_round_trip() {
        // A star (root with many children) becomes a right spine under the
        // root's left child.
        let mut labels = LabelInterner::new();
        let mut b = TreeBuilder::new();
        let root = b.root(labels.intern("root"));
        for i in 0..40 {
            b.child(root, labels.intern(&format!("c{i}")));
        }
        let tree = b.build();
        let bin = BinaryTree::from_tree(&tree);
        let first = bin.left(bin.root()).unwrap();
        let mut chain = 1;
        let mut cur = first;
        while let Some(next) = bin.right(cur) {
            chain += 1;
            cur = next;
        }
        assert_eq!(chain, 40);
        assert!(to_general(&bin).structurally_eq(&tree));
    }

    #[test]
    fn side_flip() {
        assert_eq!(Side::Left.flip(), Side::Right);
        assert_eq!(Side::Right.flip(), Side::Left);
    }
}
