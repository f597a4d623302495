//! Subgraph extraction and matching (§3.1–§3.4).
//!
//! A *subgraph* of a δ-partitioning is a connected component of the binary
//! tree after removing the bridging edges, **plus** the bridging edges
//! incident to it (Definition 1). For matching we store, per component
//! node, the labels and whether each child pointer leads inside the
//! component, across a bridging edge, or nowhere.
//!
//! Matching enforces labels, component structure, bridging-edge existence
//! and — under the default [`MatchSemantics::Exact`] — the *absence* of
//! children where the component has neither a child nor a bridge. Both
//! semantics are sound for Lemma 2 (an untouched subgraph keeps its exact
//! edge structure; any operation granting one of its nodes a child would
//! have changed it), and the paper's Figure 7 remark that "the grandchild
//! of N is not relevant to this matching" is consistent with the
//! grandchild hanging below a *bridge* slot, whose subtree is always
//! unconstrained. The weaker [`MatchSemantics::Embedding`] exists for the
//! matching-semantics ablation.
//!
//! A tree's δ subgraphs are built and handed on **flat**: the components
//! partition the tree, so their preorder node lists tile one buffer of
//! `|T|` [`SgNode`]s, and a [`Partition`] is that buffer plus δ small
//! records — no list, box or stack per subgraph. Who partitions a stream
//! of trees (every join loop) owns a [`PartitionScratch`] and calls
//! [`partition_tree_with`]: the γ search and the cut selection share its
//! residual array, the walk its cut bits, and the partition it lends
//! out is the scratch's own, overwritten by the next tree — the index
//! copies out of it only the shapes it has not seen. [`partition_tree`]
//! and [`build_subgraphs`] are the same bodies over a scratch they
//! build and drop, for callers that keep the result.

use crate::config::{MatchSemantics, PartitionScheme};
use crate::partition::cuts_for_in;
use tsj_tree::{pack_twig, BinaryTree, Label, NodeId, Side};

/// Index of a tree within the joined collection (re-exported convention
/// from `tsj_ted::outcome`).
pub type TreeIdx = u32;

/// What hangs off one side of a component node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChildKind {
    /// No child and no bridging edge: unconstrained in embedding matching.
    Absent,
    /// The child belongs to the same component; structure is enforced
    /// recursively.
    Component,
    /// A bridging edge of the δ-partitioning: the matched node must have
    /// *some* child on this side (its label belongs to another subgraph).
    Bridge,
}

/// One component node: its label and the kinds of its two children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SgNode {
    /// Node label.
    pub label: Label,
    /// Left (first-child) side.
    pub left: ChildKind,
    /// Right (next-sibling) side.
    pub right: ChildKind,
}

/// One subgraph of a [`Partition`], ready for indexing and matching: its
/// bookkeeping by value, its component nodes borrowed from the
/// partition's one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Subgraph<'a> {
    /// Container tree index within the joined collection.
    pub tree: TreeIdx,
    /// 1-based ordinal `k` in greedy-discovery (binary postorder of root)
    /// order; the paper's `s_k`.
    pub ordinal: u16,
    /// The subgraph root node in the container tree (ids are shared
    /// between the general tree and its LC-RS representation).
    pub root: NodeId,
    /// `p_k`: 1-based postorder number of the subgraph root in the
    /// container *general* tree — the edit-stable coordinate of the
    /// postorder-pruning layer (see `WindowPolicy` for why general, not
    /// binary, postorder must be used).
    pub root_post: u32,
    /// Suffix position `n − p_k` (nodes after the root in general
    /// postorder).
    pub suffix: u32,
    /// Which parent pointer the root hangs from; `None` for the subgraph
    /// containing the tree root.
    pub incoming: Option<Side>,
    /// Packed label twig of the root: `(label, left component child label
    /// or ε, right component child label or ε)` — the layer-2 index key.
    pub twig: u64,
    /// Component nodes in preorder (node, left subtree, right subtree).
    pub nodes: &'a [SgNode],
}

impl Subgraph<'_> {
    /// Number of component nodes.
    pub fn component_size(&self) -> usize {
        self.nodes.len()
    }
}

/// What a [`Partition`] keeps per subgraph: the [`Subgraph`] fields its
/// place in the partition does not give, and where its nodes end in the
/// shared buffer (they start where the previous subgraph's end).
#[derive(Debug, Clone, Copy)]
struct Part {
    root: NodeId,
    incoming: Option<Side>,
    twig: u64,
    root_post: u32,
    end: u32,
}

/// The δ subgraphs of one tree, flat: every component's nodes back to
/// back in **one** buffer (they tile it — the components partition the
/// tree) and one small record per subgraph. This is what travels from
/// [`partition_tree`] / [`build_subgraphs`] to `SubgraphIndex::insert_tree`;
/// [`Partition::get`] and [`Partition::iter`] lend the subgraphs out.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    tree: TreeIdx,
    /// Container tree size (suffix positions are `size − root_post`).
    size: u32,
    nodes: Vec<SgNode>,
    parts: Vec<Part>,
}

impl Partition {
    /// Number of subgraphs (δ for a partitioned tree).
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the partition holds no subgraph (only before it is filled).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The `k`-th subgraph in discovery order (ordinal `k + 1`).
    ///
    /// # Panics
    /// Panics if `k` is not below [`Partition::len`].
    pub fn get(&self, k: usize) -> Subgraph<'_> {
        let part = self.parts[k];
        let start = k.checked_sub(1).map_or(0, |prev| self.parts[prev].end);
        Subgraph {
            tree: self.tree,
            ordinal: k as u16 + 1,
            root: part.root,
            root_post: part.root_post,
            suffix: self.size - part.root_post,
            incoming: part.incoming,
            twig: part.twig,
            nodes: &self.nodes[start as usize..part.end as usize],
        }
    }

    /// The subgraphs in discovery order; the last contains the tree root.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Subgraph<'_>> + '_ {
        (0..self.len()).map(|k| self.get(k))
    }
}

/// The temporaries of partitioning one tree, and the [`Partition`] it
/// produces (see the [module docs](self)): grow-only, so
/// [`partition_tree_with`] calls the allocator for nothing once they fit
/// the largest tree seen.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    /// Residual sizes of the greedy passes (γ search and cut selection).
    residual: Vec<u32>,
    cuts: Vec<NodeId>,
    /// All `false` between calls: a walk clears exactly the bits it set.
    is_cut: Vec<bool>,
    partition: Partition,
}

impl PartitionScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> PartitionScratch {
        PartitionScratch::default()
    }
}

/// Builds the subgraphs induced by cutting the parent edges of `cuts`.
///
/// `cuts` must be non-root nodes in strictly ascending binary postorder
/// (as produced by `partition::select_cuts`); `general_post` maps node ids
/// to 1-based postorder numbers of the container *general* tree
/// ([`BinaryTree::general_post`]). The result contains `cuts.len() + 1`
/// subgraphs in discovery order; the last one contains the tree root.
pub fn build_subgraphs(
    binary: &BinaryTree,
    general_post: &[u32],
    cuts: &[NodeId],
    tree: TreeIdx,
) -> Partition {
    let mut partition = Partition {
        nodes: Vec::with_capacity(binary.len()),
        parts: Vec::with_capacity(cuts.len() + 1),
        ..Partition::default()
    };
    let is_cut = &mut Vec::new();
    fill_partition(binary, general_post, cuts, tree, is_cut, &mut partition);
    partition
}

/// [`build_subgraphs`] into `out` (emptied first), through a caller-owned
/// `is_cut` that is all `false` on entry and on return.
fn fill_partition(
    binary: &BinaryTree,
    general_post: &[u32],
    cuts: &[NodeId],
    tree: TreeIdx,
    is_cut: &mut Vec<bool>,
    out: &mut Partition,
) {
    debug_assert!(cuts.windows(2).all(|w| binary.post_cmp(w[0], w[1]).is_lt()));
    debug_assert!(cuts.iter().all(|&c| c != binary.root()));

    // One slot past the nodes, never set, for a missing child.
    if is_cut.len() <= binary.len() {
        is_cut.resize(binary.len() + 1, false);
    }
    for &c in cuts {
        is_cut[c.index()] = true;
    }
    out.tree = tree;
    out.size = binary.len() as u32;
    out.nodes.clear();
    out.parts.clear();
    for &root in cuts.iter().chain(std::iter::once(&binary.root())) {
        let start = out.nodes.len();
        collect_component(binary, root, is_cut, &mut out.nodes);
        let root_node = out.nodes[start];
        let left_label = component_child_label(binary, root, Side::Left, root_node.left);
        let right_label = component_child_label(binary, root, Side::Right, root_node.right);
        out.parts.push(Part {
            root,
            incoming: binary.side(root),
            twig: pack_twig(root_node.label, left_label, right_label),
            root_post: general_post[root.index()],
            end: out.nodes.len() as u32,
        });
    }
    for &c in cuts {
        is_cut[c.index()] = false;
    }
}

/// Algorithm 1's publish rule, shared by every index producer: a tree
/// with fewer than `δ = 2τ + 1` nodes cannot be δ-partitioned and is
/// side-listed by its caller (`None`); any other tree is cut under
/// `scheme` into the δ subgraphs its caller inserts. `general_post` is
/// as for [`build_subgraphs`]; `tree` also salts
/// [`PartitionScheme::Random`]'s per-tree seed.
pub fn partition_tree(
    binary: &BinaryTree,
    general_post: &[u32],
    tau: u32,
    scheme: PartitionScheme,
    tree: TreeIdx,
) -> Option<Partition> {
    let mut scratch = PartitionScratch::new();
    partition_tree_with(binary, general_post, tau, scheme, tree, &mut scratch)?;
    Some(scratch.partition)
}

/// [`partition_tree`] through a caller-owned scratch: the γ search, the
/// cut selection and the component walk share its temporaries, and the
/// partition it lends out is the scratch's own, valid until the next
/// call.
pub fn partition_tree_with<'s>(
    binary: &BinaryTree,
    general_post: &[u32],
    tau: u32,
    scheme: PartitionScheme,
    tree: TreeIdx,
    scratch: &'s mut PartitionScratch,
) -> Option<&'s Partition> {
    if is_side_listed(binary.len(), tau) {
        return None;
    }
    let PartitionScratch {
        residual,
        cuts,
        is_cut,
        partition,
    } = scratch;
    cuts_for_in(binary, delta(tau), scheme, u64::from(tree), residual, cuts);
    fill_partition(binary, general_post, cuts, tree, is_cut, partition);
    Some(partition)
}

/// `δ = 2τ + 1`, the number of subgraphs a tree is cut into.
fn delta(tau: u32) -> usize {
    2 * tau as usize + 1
}

/// The δ rule as a predicate: a tree of `size` nodes is too small to be
/// δ-partitioned at `tau` — [`partition_tree`] answers `None` for it. An
/// owner that restores an index instead of building it re-lists these
/// from their sizes ([`crate::SubgraphIndex::list_small`]).
pub fn is_side_listed(size: usize, tau: u32) -> bool {
    size < delta(tau)
}

fn component_child_label(binary: &BinaryTree, node: NodeId, side: Side, kind: ChildKind) -> Label {
    match kind {
        ChildKind::Component => {
            let child = binary.child(node, side).expect("component child exists");
            binary.label(child)
        }
        _ => Label::EPSILON,
    }
}

/// Appends the component rooted at `root` (stopping at cut nodes) to
/// `out` in preorder, recording child kinds: the run of ids that is
/// `root`'s binary subtree, stepping over the subtree of every cut node
/// met in it.
fn collect_component(binary: &BinaryTree, root: NodeId, is_cut: &[bool], out: &mut Vec<SgNode>) {
    // Looked up, not branched on: which children exist and which are cut
    // is the least predictable thing about a tree. A missing child's slot
    // is the one past the nodes, whose bit is never set.
    const KINDS: [ChildKind; 4] = [
        ChildKind::Component,
        ChildKind::Bridge,
        ChildKind::Absent,
        ChildKind::Absent,
    ];
    let missing = binary.len();
    let kind = |slot: usize| KINDS[usize::from(is_cut[slot]) | usize::from(slot == missing) << 1];
    let end = root.index() + binary.subtree_size(root) as usize;
    let mut at = root.index();
    while at < end {
        let v = NodeId::from_index(at);
        if is_cut[at] && v != root {
            at += binary.subtree_size(v) as usize;
            continue;
        }
        out.push(SgNode {
            label: binary.label(v),
            left: kind(binary.left_slot(v)),
            right: kind(binary.right_slot(v)),
        });
        at += 1;
    }
}

/// Match under the default [`MatchSemantics::Exact`]: does `sg` appear in
/// `binary` rooted at `node`?
pub fn subgraph_matches(sg: &Subgraph, binary: &BinaryTree, node: NodeId) -> bool {
    subgraph_matches_with(sg, binary, node, MatchSemantics::Exact)
}

/// Matches `sg` at `node` under the given semantics.
///
/// Checks the incoming bridging edge, then walks the component preorder in
/// lockstep with the tree: labels and component/bridge slots are always
/// enforced; `Absent` slots are enforced only under
/// [`MatchSemantics::Exact`]. `O(component size)`.
pub fn subgraph_matches_with(
    sg: &Subgraph,
    binary: &BinaryTree,
    node: NodeId,
    semantics: MatchSemantics,
) -> bool {
    let mut stack = Vec::new();
    nodes_match_at(sg.nodes, sg.incoming, binary, node, semantics, &mut stack)
}

/// Slice form of [`subgraph_matches_with`]: matches a component given as a
/// preorder [`SgNode`] slice (e.g. straight out of the index's contiguous
/// arena) with its incoming side. `stack` is caller-owned scratch —
/// cleared on entry — so repeated match attempts allocate nothing.
pub fn nodes_match_at(
    nodes: &[SgNode],
    incoming: Option<Side>,
    binary: &BinaryTree,
    node: NodeId,
    semantics: MatchSemantics,
    stack: &mut Vec<NodeId>,
) -> bool {
    if let Some(side) = incoming {
        if binary.side(node) != Some(side) {
            return false;
        }
    }
    // Cheap rejection: the component cannot embed into a smaller subtree.
    if (binary.subtree_size(node) as usize) < nodes.len() {
        return false;
    }
    let exact = semantics == MatchSemantics::Exact;

    stack.clear();
    stack.push(node);
    let mut i = 0usize;
    while let Some(v) = stack.pop() {
        let sg_node = nodes[i];
        i += 1;
        if binary.label(v) != sg_node.label {
            return false;
        }
        match sg_node.right {
            ChildKind::Component => match binary.right(v) {
                Some(r) => stack.push(r),
                None => return false,
            },
            ChildKind::Bridge => {
                if binary.right(v).is_none() {
                    return false;
                }
            }
            ChildKind::Absent => {
                if exact && binary.right(v).is_some() {
                    return false;
                }
            }
        }
        match sg_node.left {
            ChildKind::Component => match binary.left(v) {
                Some(l) => stack.push(l),
                None => return false,
            },
            ChildKind::Bridge => {
                if binary.left(v).is_none() {
                    return false;
                }
            }
            ChildKind::Absent => {
                if exact && binary.left(v).is_some() {
                    return false;
                }
            }
        }
    }
    debug_assert_eq!(i, nodes.len());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{LabelInterner, Tree, TreeBuilder};

    /// The Figure 4 general tree; its LC-RS image is Figure 4(b).
    fn figure4() -> (Tree, BinaryTree, LabelInterner) {
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
        let tree = b.build();
        let binary = BinaryTree::from_tree(&tree);
        (tree, binary, labels)
    }

    fn node_with_label(tree: &Tree, labels: &LabelInterner, name: &str) -> NodeId {
        let label = labels.get(name).unwrap();
        tree.node_ids().find(|&n| tree.label(n) == label).unwrap()
    }

    /// Figure 5: the 3-partitioning of Figure 4(b) cutting ⟨N2,N3⟩ and
    /// ⟨N6,N7⟩ — cut roots N3 and N7.
    fn figure5_subgraphs() -> (Tree, BinaryTree, LabelInterner, Partition) {
        let (tree, binary, labels) = figure4();
        let n3 = node_with_label(&tree, &labels, "l3");
        let n7 = node_with_label(&tree, &labels, "l7");
        let mut cuts = vec![n3, n7];
        cuts.sort_by(|&a, &b| binary.post_cmp(a, b));
        let sgs = build_subgraphs(&binary, binary.general_post(), &cuts, 0);
        (tree, binary, labels, sgs)
    }

    #[test]
    fn figure5_structure() {
        let (_, _binary, labels, sgs) = figure5_subgraphs();
        assert_eq!(sgs.len(), 3);
        let l = |name: &str| labels.get(name).unwrap();

        // s1 = {N3, N4, N5}: root ℓ3 with left component child; N3's right
        // pointer is empty in the binary tree; the incoming edge comes from
        // N2's left pointer.
        let s1 = sgs.get(0);
        assert_eq!(s1.ordinal, 1);
        assert_eq!(s1.root_post, 3); // general postorder: N4, N5, N3, ...
        assert_eq!(s1.component_size(), 3);
        assert_eq!(s1.nodes[0].label, l("l3"));
        assert_eq!(s1.incoming, Some(Side::Left));
        assert_eq!(s1.nodes[0].left, ChildKind::Component);
        assert_eq!(s1.nodes[0].right, ChildKind::Absent);

        // s2 = {N7, N8, N9, N10}: left chain, incoming from N6's right.
        let s2 = sgs.get(1);
        assert_eq!(s2.ordinal, 2);
        assert_eq!(s2.root_post, 9); // N7 is 9th in general postorder
        assert_eq!(s2.component_size(), 4);
        assert_eq!(s2.nodes[0].label, l("l7"));
        assert_eq!(s2.incoming, Some(Side::Right));

        // s3 = {N1, N2, N6}: contains the root, two outgoing bridges.
        let s3 = sgs.get(2);
        assert_eq!(s3.ordinal, 3);
        assert_eq!(s3.root_post, 10);
        assert_eq!(s3.suffix, 0);
        assert_eq!(s3.component_size(), 3);
        assert_eq!(s3.incoming, None);
        // N2 (second node in preorder) has a left bridge to N3 and a
        // component right child N6; N6 has a right bridge to N7.
        assert_eq!(s3.nodes[1].label, l("l2"));
        assert_eq!(s3.nodes[1].left, ChildKind::Bridge);
        assert_eq!(s3.nodes[1].right, ChildKind::Component);
        assert_eq!(s3.nodes[2].label, l("l6"));
        assert_eq!(s3.nodes[2].right, ChildKind::Bridge);
    }

    #[test]
    fn components_cover_tree_disjointly() {
        let (_, binary, _, sgs) = figure5_subgraphs();
        let total: usize = sgs.iter().map(|s| s.component_size()).sum();
        assert_eq!(total, binary.len());
    }

    #[test]
    fn every_subgraph_matches_its_own_tree() {
        let (_, binary, _, sgs) = figure5_subgraphs();
        for sg in sgs.iter() {
            assert!(
                subgraph_matches(&sg, &binary, sg.root),
                "subgraph {} must match its own root",
                sg.ordinal
            );
        }
    }

    #[test]
    fn subgraph_does_not_match_wrong_positions() {
        let (_, binary, _, sgs) = figure5_subgraphs();
        let s1 = sgs.get(0);
        for node in binary.node_ids() {
            if node == s1.root {
                continue;
            }
            assert!(
                !subgraph_matches(&s1, &binary, node),
                "s1 must not match at node {node}"
            );
        }
    }

    #[test]
    fn embedding_ignores_extra_descendants() {
        // Under Embedding semantics, subgraph {a, b} (a with left component
        // child b, b with nothing) matches a tree where b has further
        // children; under Exact it must not.
        let mut labels = LabelInterner::new();
        let (a, b_lbl, c) = (labels.intern("a"), labels.intern("b"), labels.intern("c"));
        // Container: a -> b (leaf). Cut nothing; single subgraph of 2 nodes.
        let mut builder = TreeBuilder::new();
        let root = builder.root(a);
        builder.child(root, b_lbl);
        let small_tree = builder.build();
        let small = BinaryTree::from_tree(&small_tree);
        let sgs = build_subgraphs(&small, &small_tree.postorder_numbers(), &[], 0);
        assert_eq!(sgs.len(), 1);
        let sg = &sgs.get(0);

        // Bigger tree: a -> b -> c. In LC-RS: a.l=b, b.l=c.
        let mut builder = TreeBuilder::new();
        let root = builder.root(a);
        let b_node = builder.child(root, b_lbl);
        builder.child(b_node, c);
        let big = BinaryTree::from_tree(&builder.build());
        assert!(
            subgraph_matches_with(sg, &big, big.root(), MatchSemantics::Embedding),
            "embedding semantics: extra grandchild must not block the match"
        );
        assert!(
            !subgraph_matches_with(sg, &big, big.root(), MatchSemantics::Exact),
            "exact semantics: the extra grandchild is an absence violation"
        );
    }

    #[test]
    fn bridge_requires_child_presence() {
        // Subgraph root with a left bridge requires the matched node to
        // have a left child.
        let mut labels = LabelInterner::new();
        let (a, b_lbl) = (labels.intern("a"), labels.intern("b"));
        let mut builder = TreeBuilder::new();
        let root = builder.root(a);
        builder.child(root, b_lbl);
        let container_tree = builder.build();
        let container = BinaryTree::from_tree(&container_tree);
        // Cut the single child: subgraph s2 (root component) has a left
        // bridge at its root.
        let child = container.left(container.root()).unwrap();
        let sgs = build_subgraphs(&container, &container_tree.postorder_numbers(), &[child], 0);
        let root_sg = &sgs.get(1);
        assert_eq!(root_sg.nodes[0].left, ChildKind::Bridge);

        // Match against a single-node tree labeled a: must fail.
        let lone = BinaryTree::from_tree(&Tree::leaf(a));
        assert!(!subgraph_matches(root_sg, &lone, lone.root()));
        // Match against a -> z: succeeds (bridge child label is free).
        let mut builder = TreeBuilder::new();
        let r = builder.root(a);
        builder.child(r, labels.intern("z"));
        let with_child = BinaryTree::from_tree(&builder.build());
        assert!(subgraph_matches(root_sg, &with_child, with_child.root()));
    }

    #[test]
    fn incoming_side_is_enforced() {
        let (_, binary, _, sgs) = figure5_subgraphs();
        // s2 hangs from a right pointer. Its own root is the only node
        // where it matches; flip a copy to demand a left incoming edge and
        // it must no longer match there.
        let mut flipped = sgs.get(1);
        assert!(subgraph_matches(&flipped, &binary, flipped.root));
        flipped.incoming = Some(Side::Left);
        assert!(!subgraph_matches(&flipped, &binary, flipped.root));
    }

    #[test]
    fn twig_uses_component_children_only() {
        let (_, _, labels, sgs) = figure5_subgraphs();
        let s3 = sgs.get(2);
        // Root N1: left component child N2, no right child.
        let expected = pack_twig(
            labels.get("l1").unwrap(),
            labels.get("l2").unwrap(),
            Label::EPSILON,
        );
        assert_eq!(s3.twig, expected);
        // s1 root N3: left component child N4, right absent.
        let s1 = sgs.get(0);
        let expected = pack_twig(
            labels.get("l3").unwrap(),
            labels.get("l4").unwrap(),
            Label::EPSILON,
        );
        assert_eq!(s1.twig, expected);
    }
}
