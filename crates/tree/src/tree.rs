//! Rooted ordered labeled trees stored as two flat columns.
//!
//! This is the "general tree" of the paper (§2): a directed acyclic graph
//! where every node has one parent (except the unique root), a label, and an
//! ordered list of children. Nodes are identified by dense [`NodeId`]s,
//! which makes traversals allocation-free and lets companion structures
//! (postorder numbers, subtree sizes, the LC-RS representation) be plain
//! vectors indexed by node id.
//!
//! A [`Tree`] is two exact-size `u32` columns indexed by id — `labels` and
//! `parents` (`u32::MAX` for the root) — so a node costs 8 bytes of heap
//! and a tree two allocations, whatever its shape ([`Tree::heap_bytes`]).
//!
//! **Ids are preorder**: the root is 0, a node's first child is the next id,
//! and a node's subtree is the run of `size` ids that starts at it. Two
//! numbers a node, its depth (one forward pass over `parents`) and its
//! subtree size (one backward pass), then give every order this workspace
//! reads as arithmetic: the 1-based postorder number of `v` is
//! `v − depth(v) + size(v)`, the next sibling of `v` is `v + size(v)` when
//! their parents agree. This is the (preorder number, scope) encoding of
//! the tree-mining literature. A tree therefore has one layout per shape:
//! two trees are structurally equal exactly when their columns are, and
//! [`Tree::flatten`] is a copy of them. No child list is stored: the
//! children of `v` are the ids of its run whose parent is `v`
//! ([`Tree::children`], O(size(v))), and a whole-tree pass that needs every
//! node's children reads child counts ([`Tree::child_counts`]) or next
//! siblings ([`Tree::fill_subtree_sizes`]) off the columns in O(n).
//! [`TreeBuilder::build`] renumbers a builder's call order to preorder when
//! it is not already (parsers build in preorder and pay one O(n) check),
//! [`Tree::from_columns`] rejects columns that are not, and
//! [`crate::apply_edit`] edits the columns in place of a rebuild.

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
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A rooted ordered labeled tree.
///
/// Construct with [`TreeBuilder`] or one of the parsers in
/// [`crate::parser`]. Trees always contain at least one node (the root,
/// id 0); the empty tree is not representable. Node ids are preorder and
/// storage is two exact-size `u32` columns, 8 bytes a node in two
/// allocations (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Tree {
    /// `labels[i]`: the label of node `i`.
    labels: Box<[Label]>,
    /// `parents[i]`: the parent of node `i`, [`NO_PARENT`] for the root.
    parents: Box<[u32]>,
}

impl Tree {
    /// Creates a single-node tree.
    pub fn leaf(label: Label) -> Tree {
        let mut builder = TreeBuilder::with_capacity(1);
        builder.root(label);
        builder.build()
    }

    /// Wraps columns already known to be a preorder tree (one root at 0,
    /// every other parent before its child, preorder ids).
    pub(crate) fn from_preorder_columns(labels: Vec<Label>, parents: Vec<u32>) -> Tree {
        debug_assert!(labels.len() == parents.len() && is_preorder(&parents));
        Tree {
            labels: labels.into_boxed_slice(),
            parents: parents.into_boxed_slice(),
        }
    }

    /// Number of nodes, written `|T|` in the paper.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Heap bytes this tree holds: 8 a node, since both columns are
    /// exact-size.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.labels) + std::mem::size_of_val(&*self.parents)
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

    /// The label column: every node's label, in id order — which is
    /// preorder.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The parent column: every node's parent id, in id order, `u32::MAX`
    /// for the root.
    #[inline]
    pub fn parents(&self) -> &[u32] {
        &self.parents
    }

    /// The ordered children of `node`: the ids of its preorder run — every
    /// later id whose parent is at least `node` — whose parent is `node`.
    /// O(size(node)); a pass over every node's children reads
    /// [`Tree::child_counts`] or next siblings instead.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let v = node.0;
        let run = self.parents[node.index() + 1..].iter();
        (v + 1..)
            .zip(run.take_while(move |&&parent| parent >= v))
            .filter(move |&(_, &parent)| parent == v)
            .map(|(child, _)| NodeId(child))
    }

    /// Whether `node` has no children: its first child would be the next
    /// id.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.parents.get(node.index() + 1) != Some(&node.0)
    }

    /// Iterates over all node ids in arena order, which is preorder.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Nodes in preorder (node before its children, children left to
    /// right): the ids in ascending order.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.node_ids().collect()
    }

    /// Nodes in postorder (children left to right, then the node).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = vec![NodeId(0); self.len()];
        for (node, post) in self.node_ids().zip(self.postorder_numbers()) {
            order[post as usize - 1] = node;
        }
        order
    }

    /// 1-based postorder numbers indexed by node id: `v − depth(v) +
    /// size(v)`, since the nodes before `v` in postorder are its
    /// `size(v) − 1` descendants and the `v − depth(v)` nodes before it in
    /// preorder that are not its ancestors.
    ///
    /// These are the "numbers in parentheses" of the paper's Figure 7 —
    /// and what [`crate::BinaryTree::general_post`] holds, which is what
    /// the join layers read.
    pub fn postorder_numbers(&self) -> Vec<u32> {
        let (mut depths, mut sizes) = (Vec::new(), Vec::new());
        self.fill_depths(&mut depths);
        self.fill_subtree_sizes(&mut sizes);
        (0..self.len() as u32)
            .zip(depths.iter().zip(&sizes))
            .map(|(v, (&depth, &size))| v - depth + size)
            .collect()
    }

    /// Labels in preorder, the traversal string of Guha et al. (§2).
    pub fn preorder_labels(&self) -> Vec<Label> {
        self.labels.to_vec()
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
        let mut sizes = Vec::new();
        self.fill_subtree_sizes(&mut sizes);
        sizes
    }

    /// [`Tree::subtree_sizes`] into `sizes`, reusing its buffer: one
    /// backward pass over the parent column (a child's id is above its
    /// parent's, so every size is final before it is added to the
    /// parent's).
    pub fn fill_subtree_sizes(&self, sizes: &mut Vec<u32>) {
        sizes.clear();
        sizes.resize(self.len(), 1);
        for v in (1..self.len()).rev() {
            sizes[self.parents[v] as usize] += sizes[v];
        }
    }

    /// Depth of each node (root = 0), indexed by id.
    pub fn depths(&self) -> Vec<u32> {
        let mut depths = Vec::new();
        self.fill_depths(&mut depths);
        depths
    }

    /// [`Tree::depths`] into `depths`, reusing its buffer: one forward
    /// pass over the parent column.
    pub fn fill_depths(&self, depths: &mut Vec<u32>) {
        depths.clear();
        depths.resize(self.len(), 0);
        for v in 1..self.len() {
            depths[v] = depths[self.parents[v] as usize] + 1;
        }
    }

    /// Number of children of each node, indexed by id: one pass over the
    /// parent column.
    pub fn child_counts(&self) -> Vec<u32> {
        let mut counts = vec![0; self.len()];
        for &parent in &self.parents[1..] {
            counts[parent as usize] += 1;
        }
        counts
    }

    /// Maximum node depth (a single-node tree has depth 0).
    pub fn max_depth(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Maximum number of children over all nodes.
    pub fn max_fanout(&self) -> usize {
        self.child_counts().into_iter().max().unwrap_or(0) as usize
    }

    /// The position of `node` among its parent's children, or `None` for
    /// the root: how many ids between the parent and `node` have the same
    /// parent.
    pub fn child_position(&self, node: NodeId) -> Option<usize> {
        let parent = self.parent(node)?;
        let between = &self.parents[parent.index() + 1..node.index()];
        Some(between.iter().filter(|&&p| p == parent.0).count())
    }

    /// Structural + label equality. Ids are preorder, so a shape has one
    /// layout and this compares the label and parent columns.
    pub fn structurally_eq(&self, other: &Tree) -> bool {
        self.labels == other.labels && self.parents == other.parents
    }

    /// Flattens the tree into a parent-linked preorder sequence.
    ///
    /// Entry `k` is `(label, parent)` where `parent` is the *position of
    /// the parent within the returned sequence* (`None` only for the
    /// root, at position 0). Ids are preorder, so this is the label and
    /// parent columns side by side, and [`Tree::from_flattened`] takes the
    /// same columns back.
    pub fn flatten(&self) -> Vec<(Label, Option<u32>)> {
        let parents = self.parents.iter();
        let parents = parents.map(|&p| (p != NO_PARENT).then_some(p));
        self.labels.iter().copied().zip(parents).collect()
    }

    /// Rebuilds a tree from a [`Tree::flatten`] sequence: the sequence
    /// split into its two columns, then [`Tree::from_columns`].
    ///
    /// The result is [structurally equal](Tree::structurally_eq) to the
    /// flattened tree, with the same ids, so `flatten(from_flattened(x)) ==
    /// x` whenever this succeeds. The errors are those of
    /// [`Tree::from_columns`]; a parent of `Some(u32::MAX)` is a forward
    /// reference, not the root's mark.
    pub fn from_flattened(nodes: &[(Label, Option<u32>)]) -> Result<Tree, ParseError> {
        let mut parents = Vec::with_capacity(nodes.len());
        for (k, &(_, parent)) in nodes.iter().enumerate() {
            parents.push(parent_entry(k, parent)?);
        }
        let labels = nodes.iter().map(|&(label, _)| label).collect();
        Tree::from_columns(labels, parents)
    }

    /// Takes a label and a parent column (`u32::MAX` for the root) as a
    /// tree, keeping both allocations — the decoders' entry point.
    ///
    /// Only the preorder columns of a tree are accepted. Returns an error
    /// (positioned at the offending entry index) for columns of different
    /// lengths, empty columns, a non-root first entry, an extra root, a
    /// forward parent reference, or — at the first entry whose preorder
    /// position is not its index — columns out of preorder. Malformed
    /// input never panics.
    pub fn from_columns(labels: Vec<Label>, parents: Vec<u32>) -> Result<Tree, ParseError> {
        if labels.len() != parents.len() {
            let message = format!("{} labels but {} parents", labels.len(), parents.len());
            return Err(ParseError::new(labels.len().min(parents.len()), message));
        }
        if parents.is_empty() {
            return Err(ParseError::new(0, "empty flattened tree"));
        }
        for (k, &parent) in parents.iter().enumerate() {
            parent_entry(k, (parent != NO_PARENT).then_some(parent))?;
        }
        if !is_preorder(&parents) {
            let n = parents.len();
            let mut scratch = vec![0; 2 * n];
            let (slots, positions) = scratch.split_at_mut(n);
            preorder_positions(&parents, slots, positions);
            let k = (1..n)
                .find(|&k| positions[k] as usize != k)
                .expect("one is out of place");
            let message = format!(
                "node {k} is out of preorder: it belongs at {}",
                positions[k]
            );
            return Err(ParseError::new(k, message));
        }
        Ok(Tree::from_preorder_columns(labels, parents))
    }

    /// Consistency check used by tests and debug builds: the root alone
    /// has no parent, every other node's parent comes before it (so every
    /// node is reachable from the root exactly once), and ids are
    /// preorder. One pass over the parent column.
    pub fn validate(&self) -> Result<(), String> {
        if self.parents[0] != NO_PARENT {
            return Err("root has a parent".into());
        }
        if let Some(v) = (1..self.len()).find(|&v| self.parents[v] as usize >= v) {
            return Err(format!("{} does not follow its parent", NodeId(v as u32)));
        }
        if !is_preorder(&self.parents) {
            return Err("ids are not preorder".into());
        }
        Ok(())
    }
}

/// The parent column entry of flattened entry `k`: only entry 0 is the
/// root, and every other entry's parent precedes it.
fn parent_entry(k: usize, parent: Option<u32>) -> Result<u32, ParseError> {
    match (k, parent) {
        (0, None) => Ok(NO_PARENT),
        (0, Some(_)) => Err(ParseError::new(0, "first flattened entry must be the root")),
        (_, None) => Err(ParseError::new(k, "second root in flattened tree")),
        (_, Some(p)) if p as usize >= k => Err(ParseError::new(
            k,
            format!("parent {p} does not precede node {k}"),
        )),
        (_, Some(p)) => Ok(p),
    }
}

/// Whether a parent column (each parent below its child) lists its tree
/// in preorder: each node's parent lies on the path from the node before
/// it up to the root. The walk up from `v − 1` passes only nodes whose
/// subtree `v` closes, and a closed node is on no later path, so the
/// whole check is O(n) and allocates nothing.
fn is_preorder(parents: &[u32]) -> bool {
    (1..parents.len() as u32).all(|v| {
        let (parent, mut up) = (parents[v as usize], v - 1);
        while up > parent {
            up = parents[up as usize];
        }
        up == parent
    })
}

/// Every node's preorder position, from a parent column (each parent below
/// its child): with subtree sizes from one backward pass, each child in id
/// order takes its parent's next free slot — `p + 1` plus the sizes of its
/// earlier siblings — and its entry in `slots` (n entries) turns from its
/// size into its own next free slot. `positions[v]` (n entries) ends as
/// node `v`'s position.
fn preorder_positions(parents: &[u32], slots: &mut [u32], positions: &mut [u32]) {
    let n = parents.len();
    slots.fill(1);
    for v in (1..n).rev() {
        slots[parents[v] as usize] += slots[v];
    }
    slots[0] = 1;
    positions[0] = 0;
    for v in 1..n {
        let parent = parents[v] as usize;
        let at = slots[parent];
        slots[parent] += slots[v];
        slots[v] = at + 1;
        positions[v] = at;
    }
}

/// Moves builder columns to their preorder positions in place, through
/// one scratch column of 2n slots: [`preorder_positions`] fills it, then
/// each column is scattered into its first half and copied back, parents
/// translated on the way.
fn renumber_to_preorder(labels: &mut [Label], parents: &mut [u32]) {
    let n = parents.len();
    let mut scratch = vec![0; 2 * n];
    let (moved, positions) = scratch.split_at_mut(n);
    preorder_positions(parents, moved, positions);
    for (v, label) in labels.iter().enumerate() {
        moved[positions[v] as usize] = label.raw();
    }
    for (label, &raw) in labels.iter_mut().zip(&*moved) {
        *label = Label::from_raw(raw);
    }
    for v in 1..n {
        moved[positions[v] as usize] = positions[parents[v] as usize];
    }
    parents[1..].copy_from_slice(&moved[1..]);
}

/// Incremental builder for [`Tree`]: records a label and a parent a node,
/// and hands both columns to the tree in [`TreeBuilder::build`].
///
/// Nodes must be added parent-before-child:
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
///
/// The ids [`TreeBuilder::child`] hands out are call order. They name the
/// same nodes of the built tree only when the calls were made in preorder,
/// as above; otherwise [`TreeBuilder::build`] renumbers, and a caller that
/// kept builder ids must find its nodes again in the tree.
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

    /// The parent of a node added so far, in call order (`None` for the
    /// root).
    pub(crate) fn parent(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.parents[node.index()];
        (parent != NO_PARENT).then_some(NodeId(parent))
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Finalizes the tree: checks that the calls were made in preorder
    /// and, if not, moves the two recorded columns to their preorder
    /// positions in place (through one scratch column), then trims them to
    /// their length.
    ///
    /// # Panics
    /// Panics if no root was added.
    pub fn build(self) -> Tree {
        let TreeBuilder {
            mut labels,
            mut parents,
        } = self;
        assert!(!labels.is_empty(), "tree must have a root");
        if !is_preorder(&parents) {
            renumber_to_preorder(&mut labels, &mut parents);
        }
        Tree::from_preorder_columns(labels, parents)
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
        assert_eq!(tree.children(tree.root()).count(), 2);
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
            for child in tree.children(node) {
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
            let expected: u32 = 1 + tree.children(node).map(|c| sizes[c.index()]).sum::<u32>();
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
        let victim = tree.children(tree.root()).next().unwrap();
        let edited = apply_edit(&tree, &EditOp::Delete { node: victim }).unwrap();
        let rebuilt = Tree::from_flattened(&edited.flatten()).unwrap();
        assert!(edited.structurally_eq(&rebuilt));
        assert_eq!(rebuilt.preorder_labels(), edited.preorder_labels());
        assert_eq!(rebuilt.postorder_labels(), edited.postorder_labels());
    }

    #[test]
    fn from_flattened_accepts_only_preorder() {
        // {a{b{d}}{c}}: preorder a b d c. Its BFS order a b c d lists every
        // parent before its children too, but is not the tree's flatten.
        let l = Label::from_raw;
        let preorder = [
            (l(1), None),
            (l(2), Some(0)),
            (l(4), Some(1)),
            (l(3), Some(0)),
        ];
        let tree = Tree::from_flattened(&preorder).unwrap();
        assert_eq!(tree.flatten(), preorder);
        // The first entry not at its preorder position is reported: c
        // comes before b's child d, so it sits at 2 but belongs at 3.
        let bfs = [(1, None), (2, Some(0)), (3, Some(0)), (4, Some(1))].map(|(x, p)| (l(x), p));
        let err = Tree::from_flattened(&bfs).unwrap_err();
        assert_eq!(err.position, 2, "{err}");
        // Two siblings' subtrees swapped past each other: c and its child
        // e before b's child d.
        let swapped = [
            (1, None),
            (2, Some(0)),
            (3, Some(0)),
            (5, Some(2)),
            (4, Some(1)),
        ];
        let swapped = swapped.map(|(x, p)| (l(x), p));
        assert_eq!(Tree::from_flattened(&swapped).unwrap_err().position, 2);
        // A deeper preorder sequence is accepted as it stands.
        let deep = [
            (1, None),
            (2, Some(0)),
            (3, Some(1)),
            (4, Some(2)),
            (5, Some(1)),
        ];
        let deep = deep.map(|(x, p)| (l(x), p));
        assert_eq!(Tree::from_flattened(&deep).unwrap().flatten(), deep);
    }

    #[test]
    fn build_renumbers_call_order_to_preorder() {
        // Children attached breadth-first: call ids r0 a1 b2 c3 (under a)
        // d4 (under b) e5 (under a).
        let l = Label::from_raw;
        let mut b = TreeBuilder::new();
        let r = b.root(l(1));
        let a = b.child(r, l(2));
        let bb = b.child(r, l(3));
        b.child(a, l(4));
        b.child(bb, l(5));
        b.child(a, l(6));
        let tree = b.build();
        tree.validate().unwrap();
        // Preorder r a c e b d.
        assert_eq!(tree.labels(), [1, 2, 4, 6, 3, 5].map(l));
        let kids = |v: usize| tree.children(NodeId::from_index(v)).collect::<Vec<_>>();
        assert_eq!(kids(0), [NodeId(1), NodeId(4)]);
        assert_eq!(kids(1), [NodeId(2), NodeId(3)]);
        assert_eq!(kids(4), [NodeId(5)]);
        assert_eq!(tree.postorder_numbers(), [6, 3, 1, 2, 5, 4]);
        assert_eq!(tree.subtree_sizes(), [6, 3, 1, 1, 2, 1]);
        assert_eq!(tree.depths(), [0, 1, 2, 2, 1, 2]);
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
        // `u32::MAX` marks the root only in a parent column.
        let max = Some(u32::MAX);
        assert!(
            Tree::from_flattened(&[(l, max)]).is_err(),
            "root with parent"
        );
        let err = Tree::from_flattened(&[(l, None), (l, max)]).unwrap_err();
        assert!(err.message.contains("does not precede"), "{err}");
        assert!(Tree::from_columns(vec![l], vec![u32::MAX]).is_ok());
        let err = Tree::from_columns(vec![l, l], vec![u32::MAX, u32::MAX]).unwrap_err();
        assert_eq!(err.position, 1, "second root");
        let err = Tree::from_columns(vec![l, l], vec![u32::MAX]).unwrap_err();
        assert_eq!(err.position, 1, "columns of different lengths");
    }

    #[test]
    fn child_position() {
        let (tree, _) = figure1_tree();
        assert_eq!(tree.child_position(tree.root()), None);
        let kids: Vec<NodeId> = tree.children(tree.root()).collect();
        assert_eq!(tree.child_position(kids[0]), Some(0));
        assert_eq!(tree.child_position(kids[1]), Some(1));
    }
}
