//! Preprocessed trees for the tree edit distance dynamic programs.
//!
//! Zhang–Shasha's algorithm works on 1-based postorder arrays: node labels,
//! leftmost-leaf descendants (`lld`) and *keyroots* (nodes whose leftmost
//! leaf differs from their parent's — the roots of the "relevant subtrees"
//! whose forest distances must be computed).
//!
//! [`TedTree::mirrored`] builds the same arrays for the mirror image of the
//! tree (children reversed at every node). Running Zhang–Shasha on two
//! mirrored inputs computes the *right-path* decomposition of the original
//! pair — the second half of the RTED-inspired hybrid in
//! [`crate::hybrid`].
//!
//! A [`Tree`]'s ids are preorder, so every array is arithmetic on two
//! numbers a node, its depth and its subtree size ([`TedTree::rebuild`]
//! takes one forward and one backward pass over the tree's columns and
//! scatters; no walk): node `v` has postorder number `v − depth(v) +
//! size(v)` and leftmost leaf `v − depth(v) + 1`; in the mirror, preorder
//! reversed, it is `n − v` with leftmost leaf `n + 1 − v − size(v)`. The
//! keyroots of the left decomposition are the root and every node that
//! is not its parent's first child; those of the right one, the root and
//! every node that is not its parent's last child; each spans its
//! subtree, which prices both decompositions in the same pass.
//!
//! The left arrays determine the mirror's as well: `lld` encodes the
//! whole shape (the children of `i`, right to left, are `c = i − 1, c ←
//! lld(c) − 1` while `c ≥ lld(i)`), so [`TedTree::mirror_of`] derives the
//! mirrored form without the tree. The hybrid builds only left forms ahead
//! of time, with the mirror's cost ([`TedTree::mirror_cost`]).

use tsj_tree::{Label, Tree};

/// Reusable temporaries for [`TedTree::rebuild`]: the depth and subtree
/// size columns and the keyroot marks. Grow-only, so rebuilding a stream
/// of probe trees through one scratch is allocation-free once the buffers
/// reach the largest tree seen.
#[derive(Debug, Default, Clone)]
pub struct TedBuildScratch {
    depth: Vec<u32>,
    size: Vec<u32>,
    keyroot: Vec<bool>,
}

impl TedBuildScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> TedBuildScratch {
        TedBuildScratch::default()
    }
}

/// A tree preprocessed for the Zhang–Shasha dynamic program.
///
/// All arrays are 1-based (slot 0 is unused padding) and ordered by the
/// tree's postorder — possibly the mirrored postorder, see
/// [`TedTree::mirrored`].
#[derive(Debug, Clone)]
pub struct TedTree {
    n: usize,
    /// `labels[i]`: label of the node with postorder number `i`.
    labels: Vec<Label>,
    /// `lld[i]`: postorder number of the leftmost leaf descendant of `i`;
    /// `u32` like every node count of a [`Tree`], 4 bytes a node.
    lld: Vec<u32>,
    /// Keyroots (postorder numbers) in ascending order, `u32` likewise.
    keyroots: Vec<u32>,
    /// Σ over keyroots of their relevant-forest span; the number of
    /// forest-distance cells this decomposition touches scales with this,
    /// so it drives the hybrid's left-vs-right choice.
    decomposition_cost: u64,
    /// The mirrored form's `decomposition_cost`.
    mirror_cost: u64,
}

impl TedTree {
    /// Preprocesses `tree` with its natural (left-to-right) child order.
    pub fn new(tree: &Tree) -> TedTree {
        Self::new_with(tree, &mut TedBuildScratch::new())
    }

    /// Preprocesses the mirror image of `tree` (children reversed).
    ///
    /// `TED(a, b) == TED(mirror(a), mirror(b))` because edit mappings are
    /// preserved under simultaneous mirroring, so Zhang–Shasha over two
    /// mirrored `TedTree`s yields the same distance while decomposing along
    /// right paths of the original trees.
    pub fn mirrored(tree: &Tree) -> TedTree {
        let mut built = Self::placeholder();
        built.rebuild(tree, true, &mut TedBuildScratch::new());
        built
    }

    /// [`TedTree::new`] using caller-provided walk temporaries, for batch
    /// preparation of many trees through one scratch.
    pub fn new_with(tree: &Tree, scratch: &mut TedBuildScratch) -> TedTree {
        let mut built = Self::placeholder();
        built.rebuild(tree, false, scratch);
        built
    }

    /// The mirrored form of `left` — field for field what
    /// [`TedTree::mirrored`] builds from the tree `left` was built from.
    pub fn mirror_of(left: &TedTree, scratch: &mut TedBuildScratch) -> TedTree {
        let mut built = Self::placeholder();
        built.rebuild_mirror_of(left, scratch);
        built
    }

    fn placeholder() -> TedTree {
        TedTree {
            n: 0,
            labels: Vec::new(),
            lld: Vec::new(),
            keyroots: Vec::new(),
            decomposition_cost: 0,
            mirror_cost: 0,
        }
    }

    /// Rebuilds this preprocessed form in place for a new `tree`, reusing
    /// both this tree's arrays and the walk temporaries in `scratch`.
    /// Equivalent to `*self = TedTree::new(tree)` (or `mirrored`) but
    /// allocation-free once every buffer has grown to the largest tree
    /// seen — the backbone of reusable probe preparation.
    pub fn rebuild(&mut self, tree: &Tree, mirror: bool, scratch: &mut TedBuildScratch) {
        let n = tree.len();
        self.n = n;
        self.labels.clear();
        self.labels.resize(n + 1, Label::EPSILON);
        self.lld.clear();
        self.lld.resize(n + 1, 0);
        tree.fill_depths(&mut scratch.depth);
        tree.fill_subtree_sizes(&mut scratch.size);
        let TedBuildScratch {
            depth,
            size,
            keyroot,
        } = scratch;
        keyroot.clear();
        keyroot.resize(n + 1, false);
        let (labels, parents) = (tree.labels(), tree.parents());
        // The root is last in either postorder, its leftmost leaf is
        // first, and it spans the tree.
        self.labels[n] = labels[0];
        self.lld[n] = 1;
        keyroot[n] = true;
        let (mut costs, mut counts) = ([n as u64; 2], [1; 2]);
        for v in 1..n {
            let (parent, span) = (parents[v] as usize, size[v] as usize);
            // Keyroots of the left decomposition are not their parent's
            // first child; of the right one, not its last.
            let keys = [parent + 1 != v, v + span != parent + size[parent] as usize];
            for (side, key) in keys.into_iter().enumerate() {
                costs[side] += span as u64 * u64::from(key);
                counts[side] += usize::from(key);
            }
            let (post, lld, key) = if mirror {
                (n - v, n + 1 - v - span, keys[1])
            } else {
                let left_of = v - depth[v] as usize;
                (left_of + span, left_of + 1, keys[0])
            };
            self.labels[post] = labels[v];
            self.lld[post] = lld as u32;
            keyroot[post] = key;
        }
        let side = usize::from(mirror);
        (self.decomposition_cost, self.mirror_cost) = (costs[side], costs[1 - side]);
        // Compacted without a branch: every number is written, and only a
        // keyroot's advances the cursor. The root, last, fills the last slot.
        self.keyroots.clear();
        self.keyroots.resize(counts[side], 0);
        let mut at = 0;
        for (post, &key) in (1..).zip(&keyroot[1..]) {
            self.keyroots[at] = post;
            at += usize::from(key);
        }
    }

    /// [`TedTree::mirror_of`] in place, reusing this tree's arrays.
    ///
    /// Mirrored postorder is preorder reversed, and a node's preorder
    /// number is its depth plus the `lld(i) − 1` nodes entirely to its
    /// left plus one; the mirror's leftmost leaf of `i` is the end of its
    /// rightmost-child chain `i − 1, i − 2, …`, the last leaf at or before
    /// `i` in postorder.
    pub(crate) fn rebuild_mirror_of(&mut self, left: &TedTree, scratch: &mut TedBuildScratch) {
        let n = left.n;
        self.n = n;
        self.labels.clear();
        self.labels.resize(n + 1, Label::EPSILON);
        self.lld.clear();
        self.lld.resize(n + 1, 0);

        // Depths first: a parent's postorder number is above its
        // children's, so descending order sees each depth before its use.
        let depth = &mut scratch.depth;
        depth.clear();
        depth.resize(n + 1, 0);
        for i in (1..=n).rev() {
            let mut child = i - 1;
            while child >= left.lld(i) {
                depth[child] = depth[i] + 1;
                child = left.lld(child) - 1;
            }
        }
        let mut leaf = 0;
        for i in 1..=n {
            let post = n + 1 - left.lld(i) - depth[i] as usize;
            if left.lld(i) == i {
                leaf = post as u32;
            }
            self.labels[post] = left.labels[i];
            self.lld[post] = leaf;
        }
        self.index_keyroots(&mut scratch.keyroot);
        self.mirror_cost = left.decomposition_cost;
    }

    /// Fills `keyroots` and `decomposition_cost` from `lld`.
    fn index_keyroots(&mut self, seen: &mut Vec<bool>) {
        // Keyroots: nodes with no higher-postorder node sharing their lld.
        seen.clear();
        seen.resize(self.n + 1, false);
        self.keyroots.clear();
        for i in (1..=self.n).rev() {
            let lld = self.lld(i);
            if !seen[lld] {
                seen[lld] = true;
                self.keyroots.push(i as u32);
            }
        }
        self.keyroots.reverse();

        self.decomposition_cost = self
            .keyroots
            .iter()
            .map(|&k| (k - self.lld[k as usize] + 1) as u64)
            .sum();
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Label of the node with postorder number `i` (1-based).
    #[inline]
    pub fn label(&self, i: usize) -> Label {
        self.labels[i]
    }

    /// Leftmost-leaf descendant (postorder number) of node `i` (1-based).
    #[inline]
    pub fn lld(&self, i: usize) -> usize {
        self.lld[i] as usize
    }

    /// Every node's label, in postorder.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels[1..]
    }

    /// Every node's leftmost-leaf descendant, in postorder. Two trees have
    /// the same shape exactly when these arrays are equal.
    #[inline]
    pub fn llds(&self) -> &[u32] {
        &self.lld[1..]
    }

    /// Keyroots in ascending postorder; the last one is the root.
    #[inline]
    pub fn keyroots(&self) -> &[u32] {
        &self.keyroots
    }

    /// Heap bytes this decomposition holds: its label, `lld` and keyroot
    /// arrays, by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.labels.capacity() * size_of::<Label>()
            + (self.lld.capacity() + self.keyroots.capacity()) * size_of::<u32>()
    }

    /// Work estimate of decomposing along this tree's paths (Σ keyroot
    /// spans). Used by the hybrid strategy.
    #[inline]
    pub fn decomposition_cost(&self) -> u64 {
        self.decomposition_cost
    }

    /// The mirrored form's [`TedTree::decomposition_cost`], without
    /// building it: the mirror's keyroots are the root and every node that
    /// is not its parent's last child, and a keyroot's span is its subtree
    /// size either way round.
    #[inline]
    pub fn mirror_cost(&self) -> u64 {
        self.mirror_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn t(input: &str) -> Tree {
        let mut labels = LabelInterner::new();
        parse_bracket(input, &mut labels).unwrap()
    }

    #[test]
    fn postorder_arrays_for_small_tree() {
        // {f {d {a} {c {b}}} {e}} — the classic Zhang–Shasha example tree.
        let tree = t("{f{d{a}{c{b}}}{e}}");
        let tt = TedTree::new(&tree);
        assert_eq!(tt.len(), 6);
        // Postorder: a(1), b(2), c(3), d(4), e(5), f(6).
        // llds:      a:1, b:2, c:2, d:1, e:5, f:1.
        assert_eq!(
            (1..=6).map(|i| tt.lld(i)).collect::<Vec<_>>(),
            vec![1, 2, 2, 1, 5, 1]
        );
        // Keyroots: highest-postorder node per distinct lld = {c(3), e(5), f(6)}.
        assert_eq!(tt.keyroots(), &[3, 5, 6]);
    }

    #[test]
    fn mirrored_swaps_decomposition() {
        let tree = t("{f{d{a}{c{b}}}{e}}");
        let tt = TedTree::mirrored(&tree);
        // Mirrored postorder: e(1), b(2), c(3), a(4), d(5), f(6).
        // In the mirror, "first child" is the original last child.
        assert_eq!(tt.lld(6), 1, "root's mirrored leftmost leaf is e");
        assert_eq!(tt.len(), 6);
        // Root is always a keyroot.
        assert_eq!(*tt.keyroots().last().unwrap(), 6);
    }

    #[test]
    fn leaf_tree() {
        let tree = t("{x}");
        let tt = TedTree::new(&tree);
        assert_eq!(tt.len(), 1);
        assert_eq!(tt.lld(1), 1);
        assert_eq!(tt.keyroots(), &[1]);
        assert_eq!(tt.decomposition_cost(), 1);
    }

    #[test]
    fn path_tree_has_single_keyroot() {
        // A path collapses to one keyroot (the root) under left
        // decomposition: every node shares the same leftmost leaf.
        let tree = t("{a{b{c{d}}}}");
        let tt = TedTree::new(&tree);
        assert_eq!(tt.keyroots(), &[4]);
        assert_eq!(tt.decomposition_cost(), 4);
    }

    #[test]
    fn star_tree_keyroots() {
        // Root with k children: every non-first child is a keyroot.
        let tree = t("{r{a}{b}{c}{d}}");
        let tt = TedTree::new(&tree);
        assert_eq!(tt.keyroots().len(), 4); // b, c, d, root
        assert_eq!(tt.decomposition_cost(), 1 + 1 + 1 + 5);
    }

    #[test]
    fn rebuild_matches_fresh_build_across_mismatched_trees() {
        // One dirty scratch + one reused TedTree cycled over trees of very
        // different shapes and sizes must reproduce fresh builds exactly.
        let sources = [
            "{f{d{a}{c{b}}}{e}}",
            "{x}",
            "{r{a}{b}{c}{d}}",
            "{a{b{c{d{e}}}}}",
            "{f{d{a}{c{b}}}{e}}",
        ];
        let mut scratch = TedBuildScratch::new();
        let mut reused = TedTree::new(&t("{x}"));
        let mut reused_mirror = TedTree::mirrored(&t("{x}"));
        for src in sources {
            let tree = t(src);
            reused.rebuild(&tree, false, &mut scratch);
            reused_mirror.rebuild(&tree, true, &mut scratch);
            assert_eq!(std::mem::size_of_val(reused.llds()), 4 * tree.len());
            let fresh = TedTree::new(&tree);
            let fresh_mirror = TedTree::mirrored(&tree);
            for (got, want) in [(&reused, &fresh), (&reused_mirror, &fresh_mirror)] {
                assert_eq!(got.len(), want.len(), "{src}");
                assert_eq!(got.keyroots(), want.keyroots(), "{src}");
                assert_eq!(got.decomposition_cost(), want.decomposition_cost(), "{src}");
                for i in 1..=want.len() {
                    assert_eq!(got.label(i), want.label(i), "{src} node {i}");
                    assert_eq!(got.lld(i), want.lld(i), "{src} node {i}");
                }
            }
        }
    }

    #[test]
    fn decomposition_costs_differ_for_skewed_trees() {
        // A left-deep comb is cheap for left decomposition and expensive
        // for right decomposition; the mirror flips this.
        let comb = t("{a{b{c{d{e}}}{x3}}{x2}}");
        let left = TedTree::new(&comb);
        let right = TedTree::mirrored(&comb);
        assert_ne!(left.decomposition_cost(), right.decomposition_cost());
    }
}
