//! Rooted ordered labeled trees stored as four flat columns.
//!
//! This is the "general tree" of the paper (§2): a directed acyclic graph
//! where every node has one parent (except the unique root), a label, and an
//! ordered list of children. Nodes are identified by dense [`NodeId`]s,
//! which makes traversals allocation-free and lets companion structures
//! (postorder numbers, subtree sizes, the LC-RS representation) be plain
//! vectors indexed by node id.
//!
//! A [`Tree`] is four `u32` columns indexed by id — `labels`, `parents`
//! (`u32::MAX` for the root), `child_start` (n + 1 offsets) and `kids` (the
//! n − 1 non-root ids grouped by parent) — so a node costs 16 bytes of heap
//! and a tree four allocations, whatever its shape
//! ([`Tree::heap_bytes`]). Ids are handed out by [`TreeBuilder`] in call
//! order: the root is 0 and a child's id is above its parent's, but ids
//! are not preorder. Because a child is always a fresh id appended as its
//! parent's rightmost child, the children of a node in call order are its
//! children in id order, so [`TreeBuilder::build`] lays out every child
//! list at once with one stable counting sort of the ids by parent.

use crate::error::ParseError;
use crate::label::Label;
use std::fmt;

/// Index of a node inside a [`Tree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NodeId` from a raw arena slot.
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// The `parents` entry of the root.
const NO_PARENT: u32 = u32::MAX;

/// A rooted ordered labeled tree.
///
/// Construct with [`TreeBuilder`] or one of the parsers in
/// [`crate::parser`]. Trees always contain at least one node (the root,
/// id 0); the empty tree is not representable. Storage is four flat `u32`
/// columns, 16 bytes a node (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Tree {
    /// `labels[i]`: the label of node `i`.
    labels: Vec<Label>,
    /// `parents[i]`: the parent of node `i`, [`NO_PARENT`] for the root.
    parents: Vec<u32>,
    /// `kids[child_start[i]..child_start[i + 1]]` are node `i`'s children.
    child_start: Vec<u32>,
    /// Every non-root id, grouped by parent in parent-id order, each group
    /// in child order (which is id order).
    kids: Vec<NodeId>,
}

impl Tree {
    /// Creates a single-node tree.
    pub fn leaf(label: Label) -> Tree {
        let mut builder = TreeBuilder::with_capacity(1);
        builder.root(label);
        builder.build()
    }

    /// Number of nodes, written `|T|` in the paper.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Heap bytes this tree holds: 16 a node once capacity is exact,
    /// which every built, cloned or decoded tree is.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.labels.capacity() * size_of::<Label>()
            + (self.parents.capacity() + self.child_start.capacity()) * size_of::<u32>()
            + self.kids.capacity() * size_of::<NodeId>()
    }

    /// Trees are never empty, so this is always `false`; provided for
    /// clippy-idiomatic pairing with [`Tree::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.labels[node.index()]
    }

    /// The parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.parents[node.index()];
        (parent != NO_PARENT).then_some(NodeId(parent))
    }

    /// The ordered children of `node`.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.kids[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Whether `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Iterates over all node ids in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Nodes in preorder (node before its children, children left to right).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![self.root()];
        while let Some(node) = stack.pop() {
            order.push(node);
            // Push children reversed so the leftmost child is popped first.
            for &child in self.children(node).iter().rev() {
                stack.push(child);
            }
        }
        order
    }

    /// Nodes in postorder (children left to right, then the node).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        // (node, next child index to visit)
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root(), 0)];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = self.children(node);
            if *next < children.len() {
                let child = children[*next];
                *next += 1;
                stack.push((child, 0));
            } else {
                order.push(node);
                stack.pop();
            }
        }
        order
    }

    /// 1-based postorder numbers indexed by node id.
    ///
    /// `postorder_numbers()[n.index()]` is the position (starting at 1) of
    /// node `n` in [`Tree::postorder`]. These are the "numbers in
    /// parentheses" of the paper's Figure 7 — and the reference for the
    /// numbers a [`crate::BinaryTree`] caches as it is built
    /// ([`crate::BinaryTree::general_post`]), which is what the join
    /// layers read.
    pub fn postorder_numbers(&self) -> Vec<u32> {
        let mut numbers = vec![0; self.len()];
        let mut stack = vec![(self.root(), 0)];
        let mut next_post = 0u32;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = self.children(node);
            if *next < children.len() {
                let child = children[*next];
                *next += 1;
                stack.push((child, 0));
            } else {
                next_post += 1;
                numbers[node.index()] = next_post;
                stack.pop();
            }
        }
        numbers
    }

    /// Labels in preorder, the traversal string of Guha et al. (§2).
    pub fn preorder_labels(&self) -> Vec<Label> {
        self.preorder().into_iter().map(|n| self.label(n)).collect()
    }

    /// Labels in postorder, the traversal string of Guha et al. (§2).
    pub fn postorder_labels(&self) -> Vec<Label> {
        self.postorder()
            .into_iter()
            .map(|n| self.label(n))
            .collect()
    }

    /// Number of nodes in the subtree rooted at each node, indexed by id.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![1u32; self.len()];
        for node in self.postorder() {
            let total: u32 = self.children(node).iter().map(|c| sizes[c.index()]).sum();
            sizes[node.index()] += total;
        }
        sizes
    }

    /// Depth of each node (root = 0), indexed by id.
    pub fn depths(&self) -> Vec<u32> {
        let mut depths = vec![0u32; self.len()];
        for node in self.preorder() {
            if let Some(parent) = self.parent(node) {
                depths[node.index()] = depths[parent.index()] + 1;
            }
        }
        depths
    }

    /// Maximum node depth (a single-node tree has depth 0).
    pub fn max_depth(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Maximum number of children over all nodes.
    pub fn max_fanout(&self) -> usize {
        self.node_ids()
            .map(|n| self.children(n).len())
            .max()
            .unwrap_or(0)
    }

    /// The position of `node` among its parent's children, or `None` for
    /// the root.
    pub fn child_position(&self, node: NodeId) -> Option<usize> {
        let parent = self.parent(node)?;
        self.children(parent).iter().position(|&c| c == node)
    }

    /// Structural + label equality (node ids are ignored).
    pub fn structurally_eq(&self, other: &Tree) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut stack = vec![(self.root(), other.root())];
        while let Some((a, b)) = stack.pop() {
            if self.label(a) != other.label(b) {
                return false;
            }
            let ca = self.children(a);
            let cb = other.children(b);
            if ca.len() != cb.len() {
                return false;
            }
            stack.extend(ca.iter().copied().zip(cb.iter().copied()));
        }
        true
    }

    /// Flattens the tree into a parent-linked preorder sequence — the
    /// wire form used by snapshot serialization (`tsj-catalog`).
    ///
    /// Entry `k` is `(label, parent)` where `parent` is the *position of
    /// the parent within the returned sequence* (`None` only for the
    /// root, at position 0). Preorder guarantees parents precede their
    /// children and sibling order is preserved, so
    /// [`Tree::from_flattened`] reconstructs a structurally identical
    /// tree regardless of how the original ids were laid out (a builder's
    /// ids follow its call order, not preorder).
    pub fn flatten(&self) -> Vec<(Label, Option<u32>)> {
        let order = self.preorder();
        let mut pos = vec![0u32; self.len()];
        for (k, node) in order.iter().enumerate() {
            pos[node.index()] = k as u32;
        }
        order
            .iter()
            .map(|&node| (self.label(node), self.parent(node).map(|p| pos[p.index()])))
            .collect()
    }

    /// Rebuilds a tree from a [`Tree::flatten`] sequence.
    ///
    /// The result is [structurally equal](Tree::structurally_eq) to the
    /// flattened tree; node ids are renumbered to preorder positions.
    /// Returns an error (positioned at the offending entry index) for an
    /// empty sequence, a non-root first entry, an extra root, or a
    /// forward parent reference — malformed input never panics.
    pub fn from_flattened(nodes: &[(Label, Option<u32>)]) -> Result<Tree, ParseError> {
        let mut builder = TreeBuilder::with_capacity(nodes.len());
        for (k, &(label, parent)) in nodes.iter().enumerate() {
            match (k, parent) {
                (0, None) => {
                    builder.root(label);
                }
                (0, Some(_)) => {
                    return Err(ParseError::new(0, "first flattened entry must be the root"))
                }
                (_, None) => return Err(ParseError::new(k, "second root in flattened tree")),
                (_, Some(p)) => {
                    if p as usize >= k {
                        return Err(ParseError::new(
                            k,
                            format!("parent {p} does not precede node {k}"),
                        ));
                    }
                    builder.child(NodeId(p), label);
                }
            }
        }
        if builder.is_empty() {
            return Err(ParseError::new(0, "empty flattened tree"));
        }
        Ok(builder.build())
    }

    /// Consistency check used by tests and debug builds: parent/child links
    /// agree, every non-root node is reachable from the root exactly once.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.root()];
        if self.parent(self.root()).is_some() {
            return Err("root has a parent".into());
        }
        let mut count = 0usize;
        while let Some(node) = stack.pop() {
            if seen[node.index()] {
                return Err(format!("{node} reachable twice"));
            }
            seen[node.index()] = true;
            count += 1;
            for &child in self.children(node) {
                if self.parent(child) != Some(node) {
                    return Err(format!("{child} has wrong parent link"));
                }
                stack.push(child);
            }
        }
        if count != self.len() {
            return Err(format!(
                "{} of {} nodes reachable from root",
                count,
                self.len()
            ));
        }
        Ok(())
    }
}

/// Incremental builder for [`Tree`]: records a label and a parent a node,
/// and lays the child lists out once, in [`TreeBuilder::build`].
///
/// Nodes must be added parent-before-child (e.g. in preorder):
///
/// ```
/// use tsj_tree::{LabelInterner, TreeBuilder};
/// let mut labels = LabelInterner::new();
/// let mut builder = TreeBuilder::new();
/// let root = builder.root(labels.intern("a"));
/// let b = builder.child(root, labels.intern("b"));
/// builder.child(b, labels.intern("c"));
/// builder.child(root, labels.intern("d"));
/// let tree = builder.build();
/// assert_eq!(tree.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    labels: Vec<Label>,
    parents: Vec<u32>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        TreeBuilder {
            labels: Vec::with_capacity(capacity),
            parents: Vec::with_capacity(capacity),
        }
    }

    /// Adds the root node. Must be called exactly once, first.
    ///
    /// # Panics
    /// Panics if a root was already added.
    pub fn root(&mut self, label: Label) -> NodeId {
        assert!(self.labels.is_empty(), "root must be the first node");
        self.labels.push(label);
        self.parents.push(NO_PARENT);
        NodeId(0)
    }

    /// Appends a new rightmost child under `parent`.
    ///
    /// # Panics
    /// Panics if `parent` was not returned by this builder.
    pub fn child(&mut self, parent: NodeId, label: Label) -> NodeId {
        assert!(
            parent.index() < self.labels.len(),
            "unknown parent {parent}"
        );
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.parents.push(parent.0);
        id
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Finalizes the tree: trims the two recorded columns to their length
    /// and groups the non-root ids by parent with a counting sort.
    ///
    /// # Panics
    /// Panics if no root was added.
    pub fn build(self) -> Tree {
        let TreeBuilder {
            mut labels,
            mut parents,
        } = self;
        assert!(!labels.is_empty(), "tree must have a root");
        labels.shrink_to_fit();
        parents.shrink_to_fit();
        let n = labels.len();
        // Child counts, turned into each group's end by inclusive prefix
        // sums; slot n, which no node names as parent, ends at n − 1.
        let mut child_start = vec![0u32; n + 1];
        for &parent in &parents[1..] {
            child_start[parent as usize] += 1;
        }
        let mut end = 0;
        for slot in &mut child_start {
            end += *slot;
            *slot = end;
        }
        // Fill every group back to front with ids in descending order, so
        // each ends up in id order — which is call order — and its slot
        // ends up at the group's start.
        let mut kids = vec![NodeId(0); n - 1];
        for child in (1..n).rev() {
            let slot = &mut child_start[parents[child] as usize];
            *slot -= 1;
            kids[*slot as usize] = NodeId(child as u32);
        }
        Tree {
            labels,
            parents,
            child_start,
            kids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;

    fn figure1_tree() -> (Tree, LabelInterner) {
        // The HTML fragment of the paper's Figure 1.
        let mut labels = LabelInterner::new();
        let mut b = TreeBuilder::new();
        let html = b.root(labels.intern("html"));
        let title = b.child(html, labels.intern("title"));
        b.child(title, labels.intern("Test page"));
        let body = b.child(html, labels.intern("body"));
        let p = b.child(body, labels.intern("p"));
        b.child(p, labels.intern("This is a"));
        let dfn = b.child(p, labels.intern("dfn"));
        b.child(dfn, labels.intern("dfn"));
        b.child(p, labels.intern("tag example."));
        (b.build(), labels)
    }

    #[test]
    fn builder_produces_valid_tree() {
        let (tree, _) = figure1_tree();
        assert_eq!(tree.len(), 9);
        tree.validate().unwrap();
        assert_eq!(tree.children(tree.root()).len(), 2);
    }

    #[test]
    fn preorder_visits_parent_first() {
        let (tree, _) = figure1_tree();
        let pre = tree.preorder();
        assert_eq!(pre.len(), tree.len());
        assert_eq!(pre[0], tree.root());
        let position: Vec<usize> = {
            let mut pos = vec![0; tree.len()];
            for (i, n) in pre.iter().enumerate() {
                pos[n.index()] = i;
            }
            pos
        };
        for node in tree.node_ids() {
            if let Some(parent) = tree.parent(node) {
                assert!(position[parent.index()] < position[node.index()]);
            }
        }
    }

    #[test]
    fn postorder_visits_children_first() {
        let (tree, _) = figure1_tree();
        let post = tree.postorder();
        assert_eq!(post.len(), tree.len());
        assert_eq!(*post.last().unwrap(), tree.root());
        let numbers = tree.postorder_numbers();
        for node in tree.node_ids() {
            for &child in tree.children(node) {
                assert!(numbers[child.index()] < numbers[node.index()]);
            }
        }
    }

    #[test]
    fn postorder_numbers_are_a_permutation() {
        let (tree, _) = figure1_tree();
        let mut numbers = tree.postorder_numbers();
        numbers.sort_unstable();
        let expected: Vec<u32> = (1..=tree.len() as u32).collect();
        assert_eq!(numbers, expected);
    }

    #[test]
    fn subtree_sizes_sum_correctly() {
        let (tree, _) = figure1_tree();
        let sizes = tree.subtree_sizes();
        assert_eq!(sizes[tree.root().index()] as usize, tree.len());
        for node in tree.node_ids() {
            let expected: u32 = 1 + tree
                .children(node)
                .iter()
                .map(|c| sizes[c.index()])
                .sum::<u32>();
            assert_eq!(sizes[node.index()], expected);
        }
    }

    #[test]
    fn depths_and_fanout() {
        let (tree, _) = figure1_tree();
        // html -> body -> p -> dfn -> "dfn" is the deepest path.
        assert_eq!(tree.max_depth(), 4);
        assert_eq!(tree.max_fanout(), 3); // node `p` has three children
        let depths = tree.depths();
        assert_eq!(depths[tree.root().index()], 0);
    }

    #[test]
    fn structural_equality() {
        let (t1, _) = figure1_tree();
        let (t2, _) = figure1_tree();
        assert!(t1.structurally_eq(&t2));
        let mut labels = LabelInterner::new();
        let other = Tree::leaf(labels.intern("x"));
        assert!(!t1.structurally_eq(&other));
    }

    #[test]
    fn leaf_tree() {
        let tree = Tree::leaf(Label::from_raw(5));
        assert_eq!(tree.len(), 1);
        assert!(tree.is_leaf(tree.root()));
        assert_eq!(tree.max_depth(), 0);
        tree.validate().unwrap();
    }

    #[test]
    fn flatten_round_trips() {
        let (tree, _) = figure1_tree();
        let flat = tree.flatten();
        assert_eq!(flat.len(), tree.len());
        assert_eq!(flat[0].1, None, "root leads the sequence");
        let rebuilt = Tree::from_flattened(&flat).unwrap();
        assert!(tree.structurally_eq(&rebuilt));
        // The preorder form is canonical: re-flattening is a fixpoint.
        assert_eq!(rebuilt.flatten(), flat);
    }

    #[test]
    fn flatten_round_trips_after_edits() {
        // Edited trees are renumbered; flatten must still preserve
        // sibling order.
        use crate::edit::{apply_edit, EditOp};
        let (tree, _) = figure1_tree();
        let victim = tree.children(tree.root())[0];
        let edited = apply_edit(&tree, &EditOp::Delete { node: victim }).unwrap();
        let rebuilt = Tree::from_flattened(&edited.flatten()).unwrap();
        assert!(edited.structurally_eq(&rebuilt));
        assert_eq!(rebuilt.preorder_labels(), edited.preorder_labels());
        assert_eq!(rebuilt.postorder_labels(), edited.postorder_labels());
    }

    #[test]
    fn from_flattened_rejects_malformed_sequences() {
        let l = Label::from_raw(1);
        assert!(Tree::from_flattened(&[]).is_err());
        assert!(
            Tree::from_flattened(&[(l, Some(0))]).is_err(),
            "root with parent"
        );
        assert!(
            Tree::from_flattened(&[(l, None), (l, None)]).is_err(),
            "two roots"
        );
        assert!(
            Tree::from_flattened(&[(l, None), (l, Some(2))]).is_err(),
            "forward parent reference"
        );
        assert!(
            Tree::from_flattened(&[(l, None), (l, Some(1))]).is_err(),
            "self parent"
        );
    }

    #[test]
    fn child_position() {
        let (tree, _) = figure1_tree();
        assert_eq!(tree.child_position(tree.root()), None);
        let kids = tree.children(tree.root());
        assert_eq!(tree.child_position(kids[0]), Some(0));
        assert_eq!(tree.child_position(kids[1]), Some(1));
    }
}
