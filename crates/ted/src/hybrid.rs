//! RTED-inspired dynamic decomposition choice and the [`TedEngine`].
//!
//! The paper computes all exact distances with RTED (Pawlik & Augsten,
//! PVLDB 2011), a framework that picks, per subproblem, the decomposition
//! path minimizing the number of relevant subproblems. Full RTED requires
//! Demaine-style general single-path functions; as documented in
//! `docs/ARCHITECTURE.md` (§Substitutions), we reproduce its *decision* at
//! tree-pair granularity over the two classical single-path algorithms:
//!
//! * **left decomposition** — Zhang–Shasha on the trees as given;
//! * **right decomposition** — Zhang–Shasha on both mirror images, which is
//!   equivalent to decomposing the originals along right paths.
//!
//! Each [`PreparedTree`] carries the left preprocessed form and both
//! relevant-subproblem cost estimates (the right one read off the left
//! arrays, [`TedTree::mirror_cost`]); [`TedEngine::distance`] multiplies
//! the per-tree costs and runs the cheaper side, deriving a tree's
//! mirrored form the first time a pair runs right-side. Both sides are
//! exact, so the choice affects only running time — never the reported
//! distance.
//! The threshold entry ([`TedEngine::verify`]) makes the same choice and
//! runs the τ-bounded kernel on it.

use crate::ted_tree::{TedBuildScratch, TedTree};
use crate::zs::{tree_distance, tree_distance_bounded, TedWorkspace};
use std::sync::OnceLock;
use tsj_tree::Tree;

/// A tree preprocessed for repeated distance computations: the left form
/// built ahead of time, the mirrored one derived from it on first use
/// (in a `OnceLock` — prepared trees are shared across verify workers).
#[derive(Debug, Clone)]
pub struct PreparedTree {
    left: TedTree,
    right_cost: u64,
    right: OnceLock<TedTree>,
}

impl PreparedTree {
    /// Preprocesses `tree`: two passes over its columns and a scatter.
    pub fn new(tree: &Tree) -> PreparedTree {
        PreparedTree::new_with(tree, &mut TedBuildScratch::new())
    }

    /// [`PreparedTree::new`] using caller-provided walk temporaries, for
    /// batch preparation of many trees through one scratch.
    pub fn new_with(tree: &Tree, scratch: &mut TedBuildScratch) -> PreparedTree {
        let left = TedTree::new_with(tree, scratch);
        PreparedTree {
            right_cost: left.mirror_cost(),
            left,
            right: OnceLock::new(),
        }
    }

    /// Rebuilds this instance in place for a new `tree`.
    ///
    /// Equivalent to `*self = PreparedTree::new(tree)` but reuses every
    /// array (and the walk temporaries in `scratch`), so preparing a
    /// stream of probe trees is allocation-free in steady state. A slot
    /// that has derived its mirrored form before derives the new tree's
    /// into the same arrays at once; one that never ran right-side still
    /// has none.
    pub fn rebuild(&mut self, tree: &Tree, scratch: &mut TedBuildScratch) {
        self.left.rebuild(tree, false, scratch);
        self.right_cost = self.left.mirror_cost();
        if let Some(right) = self.right.get_mut() {
            right.rebuild_mirror_of(&self.left, scratch);
        }
    }

    /// The left (as given) preprocessed form.
    #[inline]
    pub fn left(&self) -> &TedTree {
        &self.left
    }

    /// The mirrored preprocessed form, derived from the left one on first
    /// use. Its label array reversed is the tree's preorder string.
    pub fn right(&self) -> &TedTree {
        self.right
            .get_or_init(|| TedTree::mirror_of(&self.left, &mut TedBuildScratch::new()))
    }

    /// Whether [`PreparedTree::right`] has been asked for yet.
    pub fn right_built(&self) -> bool {
        self.right.get().is_some()
    }

    /// Heap bytes held: the left decomposition, and the mirrored one once
    /// built.
    pub fn heap_bytes(&self) -> usize {
        self.left.heap_bytes() + self.right.get().map_or(0, TedTree::heap_bytes)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Work estimate of the left decomposition.
    pub fn left_cost(&self) -> u64 {
        self.left.decomposition_cost()
    }

    /// Work estimate of the right decomposition.
    pub fn right_cost(&self) -> u64 {
        self.right_cost
    }
}

/// A reusable unit-cost tree-edit-distance computer: one scratch
/// workspace, and counters for instrumentation.
///
/// ```
/// use tsj_ted::TedEngine;
/// use tsj_tree::{parse_bracket, LabelInterner};
/// let mut labels = LabelInterner::new();
/// let a = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
/// let b = parse_bracket("{a{b}{z}}", &mut labels).unwrap();
/// let mut engine = TedEngine::unit();
/// assert_eq!(engine.distance_trees(&a, &b), 1);
/// assert_eq!(engine.computations(), 1);
/// ```
#[derive(Debug)]
pub struct TedEngine {
    ws: TedWorkspace,
    computations: u64,
}

impl TedEngine {
    /// Engine with unit costs that picks the cheaper decomposition per
    /// tree pair (the paper's setting).
    pub fn unit() -> TedEngine {
        TedEngine {
            ws: TedWorkspace::new(),
            computations: 0,
        }
    }

    /// Number of exact distance computations performed so far.
    ///
    /// The evaluation section charges joins by exact TED computations; the
    /// harness reads this counter to report them.
    pub fn computations(&self) -> u64 {
        self.computations
    }

    /// Resets the computation counter.
    pub fn reset_counters(&mut self) {
        self.computations = 0;
    }

    /// Exact distance between two prepared trees: the unbounded DP, the
    /// reference the baselines and every test oracle run.
    pub fn distance(&mut self, a: &PreparedTree, b: &PreparedTree) -> u32 {
        self.computations += 1;
        let (a, b) = decomposition(a, b);
        tree_distance(a, b, &mut self.ws)
    }

    /// Exact distance between two raw trees (preprocesses internally).
    pub fn distance_trees(&mut self, a: &Tree, b: &Tree) -> u32 {
        self.distance(&PreparedTree::new(a), &PreparedTree::new(b))
    }

    /// Threshold test: `Some(TED(a, b))` when it is at most `tau`, for a
    /// caller that has done its own filtering. Every pair counts one
    /// computation, as [`TedEngine::distance`] would, and runs the
    /// τ-bounded kernel ([`tree_distance_bounded`]) — O(n·τ) cells per
    /// surviving keyroot pair instead of the whole DP.
    pub fn verify(&mut self, a: &PreparedTree, b: &PreparedTree, tau: u32) -> Option<u32> {
        self.computations += 1;
        let (a, b) = decomposition(a, b);
        tree_distance_bounded(a, b, tau, &mut self.ws)
    }
}

/// The pair of preprocessed forms with the fewer estimated relevant
/// subproblems: the DP work is (cost of a's side) × (cost of b's side).
fn decomposition<'t>(a: &'t PreparedTree, b: &'t PreparedTree) -> (&'t TedTree, &'t TedTree) {
    let left = a.left_cost().saturating_mul(b.left_cost());
    let right = a.right_cost().saturating_mul(b.right_cost());
    if right < left {
        (a.right(), b.right())
    } else {
        (&a.left, &b.left)
    }
}

/// Convenience: exact unit-cost TED between two trees on the cheaper
/// decomposition. Allocates a fresh engine; prefer [`TedEngine`] in loops.
pub fn ted(a: &Tree, b: &Tree) -> u32 {
    TedEngine::unit().distance_trees(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tree::{parse_bracket, LabelInterner};

    fn pair(a: &str, b: &str) -> (Tree, Tree) {
        let mut labels = LabelInterner::new();
        (
            parse_bracket(a, &mut labels).unwrap(),
            parse_bracket(b, &mut labels).unwrap(),
        )
    }

    #[test]
    fn all_strategies_agree() {
        let cases = [
            ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}", 2),
            ("{1{2}{1{3}}}", "{1{2{1}{3}}}", 3),
            ("{a{b{c{d{e}}}}}", "{a{b{c{d}}}}", 1),
            ("{r{a}{b}{c}{d}{e}}", "{r{e}{d}{c}{b}{a}}", 4),
        ];
        for (sa, sb, expected) in cases {
            let (ta, tb) = pair(sa, sb);
            let (pa, pb) = (PreparedTree::new(&ta), PreparedTree::new(&tb));
            let ws = &mut TedWorkspace::new();
            let left = tree_distance(pa.left(), pb.left(), ws);
            let right = tree_distance(pa.right(), pb.right(), ws);
            let dynamic = TedEngine::unit().distance_trees(&ta, &tb);
            assert_eq!(
                (left, right, dynamic),
                (expected, expected, expected),
                "(left, right, dynamic) on {sa} vs {sb}"
            );
        }
    }

    #[test]
    fn dynamic_prefers_cheap_side_for_skewed_trees() {
        // Right combs are pathological for left decomposition; the dynamic
        // engine must not be slower than the better static choice in work
        // estimate terms.
        let mut s = String::from("{a");
        for _ in 0..30 {
            s.push_str("{x}{b");
        }
        s.push('}');
        for _ in 0..30 {
            s.push('}');
        }
        let mut labels = LabelInterner::new();
        let t1 = parse_bracket(&s, &mut labels).unwrap();
        let p = PreparedTree::new(&t1);
        assert!(
            p.left_cost() != p.right_cost(),
            "skewed tree should have asymmetric costs"
        );
    }

    #[test]
    fn counter_counts() {
        let (ta, tb) = pair("{a}", "{b}");
        let mut engine = TedEngine::unit();
        for _ in 0..5 {
            engine.distance_trees(&ta, &tb);
        }
        assert_eq!(engine.computations(), 5);
        engine.reset_counters();
        assert_eq!(engine.computations(), 0);
    }

    #[test]
    fn one_shot_helper() {
        let (ta, tb) = pair("{a{b}}", "{a{c}}");
        assert_eq!(ted(&ta, &tb), 1);
    }
}
