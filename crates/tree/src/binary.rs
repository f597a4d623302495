//! Left-child right-sibling (LC-RS) binary tree representation.
//!
//! Knuth's transformation (§3.1, Figure 4) maps a general rooted ordered
//! labeled tree to a binary tree over the *same node set*: each node's
//! `left` pointer goes to its leftmost child in the general tree and its
//! `right` pointer to its next sibling. Node labels are unchanged, so
//! [`NodeId`]s are shared between a [`Tree`] and its [`BinaryTree`].
//!
//! The binary tree caches its postorder and preorder numberings, its
//! subtree sizes and the *general-tree* postorder numbering (which is the
//! binary inorder) because the partitioning scheme (§3.3) and the
//! postorder-pruning index layer (§3.4) consult them constantly.

use crate::label::Label;
use crate::tree::{NodeId, Tree, TreeBuilder};

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

/// An LC-RS binary tree, stored struct-of-arrays and indexed by [`NodeId`].
#[derive(Debug, Clone)]
pub struct BinaryTree {
    labels: Vec<Label>,
    left: Vec<Option<NodeId>>,
    right: Vec<Option<NodeId>>,
    parent: Vec<Option<(NodeId, Side)>>,
    root: NodeId,
    /// Nodes in binary postorder (left subtree, right subtree, node).
    postorder: Vec<NodeId>,
    /// 1-based postorder number per node id.
    post_of: Vec<u32>,
    /// Nodes in binary preorder (node, left subtree, right subtree): a
    /// binary subtree is the contiguous run of `subtree_size` nodes that
    /// starts at its root.
    preorder: Vec<NodeId>,
    /// 1-based preorder number per node id.
    pre_of: Vec<u32>,
    /// Binary-subtree size (node + left subtree + right subtree) per id.
    subtree_size: Vec<u32>,
    /// 1-based binary *inorder* number per node id — the postorder number
    /// of the node in the general tree this is the LC-RS image of.
    general_post: Vec<u32>,
    /// Persistent traversal stack for cache rebuilds; empty between
    /// calls but keeps its capacity, so [`BinaryTree::rebuild_from`] is
    /// allocation-free in steady state.
    walk: Vec<(NodeId, u8)>,
}

impl BinaryTree {
    /// Builds the LC-RS representation of `tree` (Knuth's transformation).
    ///
    /// Node ids are preserved: binary node `n` is general node `n`.
    pub fn from_tree(tree: &Tree) -> BinaryTree {
        let mut binary = BinaryTree {
            labels: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            parent: Vec::new(),
            root: tree.root(),
            postorder: Vec::new(),
            post_of: Vec::new(),
            preorder: Vec::new(),
            pre_of: Vec::new(),
            subtree_size: Vec::new(),
            general_post: Vec::new(),
            walk: Vec::new(),
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
        self.labels.reserve(n);
        self.left.clear();
        self.left.resize(n, None);
        self.right.clear();
        self.right.resize(n, None);
        self.parent.clear();
        self.parent.resize(n, None);
        for node in tree.node_ids() {
            self.labels.push(tree.label(node));
            let children = tree.children(node);
            if let Some(&first) = children.first() {
                self.left[node.index()] = Some(first);
                self.parent[first.index()] = Some((node, Side::Left));
            }
            for pair in children.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                self.right[a.index()] = Some(b);
                self.parent[b.index()] = Some((a, Side::Right));
            }
        }
        self.root = tree.root();
        self.rebuild_caches();
    }

    /// Builds a binary tree directly from explicit child links.
    ///
    /// Intended for tests and for workloads that are natively binary (e.g.
    /// the paper's Figure 3 trees, RNA secondary structures). Unlike
    /// [`BinaryTree::from_tree`], the result need not be the LC-RS image of
    /// any general tree — in particular the root may have a right child.
    ///
    /// # Panics
    /// Panics if the links do not form a single tree rooted at `root`.
    pub fn from_links(
        labels: Vec<Label>,
        left: Vec<Option<NodeId>>,
        right: Vec<Option<NodeId>>,
        root: NodeId,
    ) -> BinaryTree {
        let n = labels.len();
        assert_eq!(left.len(), n, "left link table has wrong length");
        assert_eq!(right.len(), n, "right link table has wrong length");
        let mut parent: Vec<Option<(NodeId, Side)>> = vec![None; n];
        for i in 0..n {
            let node = NodeId::from_index(i);
            if let Some(l) = left[i] {
                assert!(parent[l.index()].is_none(), "{l} has two parents");
                parent[l.index()] = Some((node, Side::Left));
            }
            if let Some(r) = right[i] {
                assert!(parent[r.index()].is_none(), "{r} has two parents");
                parent[r.index()] = Some((node, Side::Right));
            }
        }
        assert!(parent[root.index()].is_none(), "root has a parent");
        let mut binary = BinaryTree {
            labels,
            left,
            right,
            parent,
            root,
            postorder: Vec::new(),
            post_of: Vec::new(),
            preorder: Vec::new(),
            pre_of: Vec::new(),
            subtree_size: Vec::new(),
            general_post: Vec::new(),
            walk: Vec::new(),
        };
        binary.rebuild_caches();
        assert_eq!(
            binary.postorder.len(),
            n,
            "links do not form a single connected tree"
        );
        binary
    }

    fn rebuild_caches(&mut self) {
        let n = self.labels.len();
        self.postorder.clear();
        self.postorder.reserve(n);
        self.post_of.clear();
        self.post_of.resize(n, 0);
        self.preorder.clear();
        self.preorder.reserve(n);
        self.pre_of.clear();
        self.pre_of.resize(n, 0);
        self.subtree_size.clear();
        self.subtree_size.resize(n, 1);
        self.general_post.clear();
        self.general_post.resize(n, 0);
        let mut inorder = 0u32;
        // Iterative postorder: 0 = descend left, 1 = descend right, 2 = emit.
        // Taking the persistent stack sidesteps the borrow of `self`
        // inside the loop; it is handed back (empty, capacity kept) after.
        let mut stack = std::mem::take(&mut self.walk);
        stack.clear();
        stack.push((self.root, 0));
        while let Some((node, stage)) = stack.pop() {
            match stage {
                0 => {
                    self.preorder.push(node);
                    self.pre_of[node.index()] = self.preorder.len() as u32;
                    stack.push((node, 1));
                    if let Some(l) = self.left[node.index()] {
                        stack.push((l, 0));
                    }
                }
                1 => {
                    // Between the two descents is the inorder visit: a
                    // node's general-tree descendants are its left
                    // subtree, everything after it hangs off its right.
                    inorder += 1;
                    self.general_post[node.index()] = inorder;
                    stack.push((node, 2));
                    if let Some(r) = self.right[node.index()] {
                        stack.push((r, 0));
                    }
                }
                _ => {
                    let mut size = 1;
                    if let Some(l) = self.left[node.index()] {
                        size += self.subtree_size[l.index()];
                    }
                    if let Some(r) = self.right[node.index()] {
                        size += self.subtree_size[r.index()];
                    }
                    self.subtree_size[node.index()] = size;
                    self.post_of[node.index()] = self.postorder.len() as u32 + 1;
                    self.postorder.push(node);
                }
            }
        }
        self.walk = stack;
        debug_assert_eq!(self.postorder.len(), n, "binary tree not connected");
    }

    /// Number of nodes (equal to the size of the source general tree).
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Binary trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (same id as the general tree's root).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.labels[node.index()]
    }

    /// The left child (leftmost child in the general tree).
    #[inline]
    pub fn left(&self, node: NodeId) -> Option<NodeId> {
        self.left[node.index()]
    }

    /// The right child (next sibling in the general tree).
    #[inline]
    pub fn right(&self, node: NodeId) -> Option<NodeId> {
        self.right[node.index()]
    }

    /// The child of `node` on `side`.
    #[inline]
    pub fn child(&self, node: NodeId, side: Side) -> Option<NodeId> {
        match side {
            Side::Left => self.left(node),
            Side::Right => self.right(node),
        }
    }

    /// Parent link: `(parent, side)` where `side` says which pointer of the
    /// parent leads here. `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, Side)> {
        self.parent[node.index()]
    }

    /// Which side of its parent this node hangs from (`None` for the root).
    #[inline]
    pub fn side(&self, node: NodeId) -> Option<Side> {
        self.parent(node).map(|(_, side)| side)
    }

    /// Nodes in binary postorder (left, right, node).
    #[inline]
    pub fn postorder(&self) -> &[NodeId] {
        &self.postorder
    }

    /// 1-based postorder number of `node` in the binary traversal.
    #[inline]
    pub fn post_of(&self, node: NodeId) -> u32 {
        self.post_of[node.index()]
    }

    /// The node with 1-based binary postorder number `k`.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the tree size.
    #[inline]
    pub fn node_at_postorder(&self, k: u32) -> NodeId {
        self.postorder[k as usize - 1]
    }

    /// Nodes in binary preorder (node, left, right). The binary subtree
    /// of `node` is `preorder()[pre_of(node) − 1..][..subtree_size(node)]`.
    #[inline]
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// 1-based preorder number of `node` in the binary traversal.
    #[inline]
    pub fn pre_of(&self, node: NodeId) -> u32 {
        self.pre_of[node.index()]
    }

    /// 1-based *general-tree* postorder numbers, indexed by node id:
    /// general postorder is LC-RS inorder (left subtree = descendants,
    /// node, right subtree = later siblings), numbered by the same walk
    /// that fills the other caches. Equal to
    /// [`Tree::postorder_numbers`] of the source tree.
    #[inline]
    pub fn general_post(&self) -> &[u32] {
        &self.general_post
    }

    /// Size of the binary subtree rooted at `node` (node + both subtrees).
    #[inline]
    pub fn subtree_size(&self, node: NodeId) -> u32 {
        self.subtree_size[node.index()]
    }

    /// Iterates over all node ids in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId::from_index_u32)
    }

    /// Inverse of Knuth's transformation: reconstructs the general tree.
    ///
    /// Node ids are *not* preserved (the result uses fresh preorder ids),
    /// but the reconstructed tree is structurally equal to the original:
    /// `BinaryTree::from_tree(t).to_general().structurally_eq(t)`.
    pub fn to_general(&self) -> Tree {
        let mut builder = TreeBuilder::with_capacity(self.len());
        let root = builder.root(self.label(self.root));
        debug_assert!(
            self.right(self.root).is_none(),
            "LC-RS root cannot have a right child"
        );
        // Each stack entry is the *leftmost* general child of `parent`;
        // following the right-chain from it enumerates all of `parent`'s
        // children in order, so one pop emits a full child list at once and
        // other stack entries can never interleave into it.
        let mut stack: Vec<(NodeId, crate::tree::NodeId)> = Vec::new();
        if let Some(first) = self.left(self.root) {
            stack.push((first, root));
        }
        while let Some((first_child, parent)) = stack.pop() {
            let mut cur = Some(first_child);
            while let Some(node) = cur {
                let id = builder.child(parent, self.label(node));
                if let Some(child) = self.left(node) {
                    stack.push((child, id));
                }
                cur = self.right(node);
            }
        }
        builder.build()
    }
}

impl NodeId {
    #[inline]
    fn from_index_u32(index: u32) -> NodeId {
        NodeId(index)
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
        let mut numbers: Vec<u32> = bin.node_ids().map(|n| bin.post_of(n)).collect();
        numbers.sort_unstable();
        assert_eq!(numbers, (1..=10).collect::<Vec<u32>>());
        // Root is visited last in binary postorder.
        assert_eq!(bin.post_of(bin.root()), 10);
        for node in bin.node_ids() {
            assert_eq!(bin.node_at_postorder(bin.post_of(node)), node);
        }
    }

    #[test]
    fn a_subtree_is_a_run_of_the_preorder() {
        let (tree, _) = figure4_tree();
        let bin = BinaryTree::from_tree(&tree);
        assert_eq!(bin.preorder()[0], bin.root());
        for node in bin.node_ids() {
            let start = bin.pre_of(node) as usize - 1;
            assert_eq!(bin.preorder()[start], node);
            // The run opens with the node, then its left subtree, then
            // its right one — each again a run of its own size.
            let mut at = start + 1;
            for child in [bin.left(node), bin.right(node)].into_iter().flatten() {
                assert_eq!(bin.pre_of(child) as usize - 1, at);
                at += bin.subtree_size(child) as usize;
            }
            assert_eq!(at - start, bin.subtree_size(node) as usize);
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
            for node in fresh.node_ids() {
                assert_eq!(reused.label(node), fresh.label(node));
                assert_eq!(reused.left(node), fresh.left(node));
                assert_eq!(reused.right(node), fresh.right(node));
                assert_eq!(reused.parent(node), fresh.parent(node));
                assert_eq!(reused.post_of(node), fresh.post_of(node));
                assert_eq!(reused.pre_of(node), fresh.pre_of(node));
                assert_eq!(reused.general_post(), tree.postorder_numbers());
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
        let back = bin.to_general();
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
        assert!(bin.to_general().structurally_eq(&tree));
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
        assert!(bin.to_general().structurally_eq(&tree));
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
        assert!(bin.to_general().structurally_eq(&tree));
    }

    #[test]
    fn side_flip() {
        assert_eq!(Side::Left.flip(), Side::Right);
        assert_eq!(Side::Right.flip(), Side::Left);
    }
}
