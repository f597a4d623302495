//! The `SET` baseline: binary branch distance join (Yang et al.).
//!
//! A *binary branch* of a binary tree is a node together with the labels
//! of its two children (`ε` when absent). A general tree contributes the
//! binary branches of its LC-RS representation, giving exactly `|T|`
//! branches. With `X1`, `X2` the branch bags of two trees,
//!
//! ```text
//! BIB(T1, T2) = |X1| + |X2| − 2·|X1 ∩ X2|     (bag intersection)
//! ```
//!
//! and Yang et al. prove `BIB(T1, T2) ≤ 5 · TED(T1, T2)` (§2, reference
//! \[27]). The SET filter therefore keeps a pair iff `BIB ≤ 5τ`. Branch
//! bags are precomputed as sorted vectors of packed `u64` twig keys so the
//! bag intersection is a linear merge.

use crate::common::filter_verify_join;
use tsj_ted::JoinOutcome;
use tsj_tree::{pack_twig, BinaryTree, Tree};

/// The sorted multiset of binary branches of `tree`'s LC-RS image, read
/// off its [`BinaryTree`] view: every node with its first child's label
/// and its next sibling's (`ε` when absent; the root has no sibling).
pub fn tree_branch_bag(tree: &Tree) -> Vec<u64> {
    let binary = BinaryTree::from_tree(tree);
    let label_at = |slot| binary.slot_label(slot);
    let mut bag: Vec<u64> = binary
        .node_ids()
        .map(|v| {
            let (left, right) = (binary.left_slot(v), binary.right_slot(v));
            pack_twig(binary.label(v), label_at(left), label_at(right))
        })
        .collect();
    bag.sort_unstable();
    bag
}

/// Binary branch distance between two pre-sorted branch bags.
pub fn bib_distance(a: &[u64], b: &[u64]) -> u64 {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    let mut i = 0;
    let mut j = 0;
    let mut common = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() as u64 + b.len() as u64 - 2 * common
}

/// Evaluates the SET similarity self-join at threshold `tau`.
pub fn set_join(trees: &[Tree], tau: u32) -> JoinOutcome {
    let limit = 5 * tau as u64;
    filter_verify_join(
        trees,
        tau,
        || trees.iter().map(tree_branch_bag).collect::<Vec<_>>(),
        |bags, i, j| bib_distance(&bags[i], &bags[j]) <= limit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_ted::ted;
    use tsj_tree::{parse_bracket, Label, LabelInterner};

    fn collection(specs: &[&str]) -> Vec<Tree> {
        let mut labels = LabelInterner::new();
        specs
            .iter()
            .map(|s| parse_bracket(s, &mut labels).unwrap())
            .collect()
    }

    #[test]
    fn figure3_bib_is_six() {
        // §2: "it can be verified that BIB(T1, T2) = 6 ≤ 5·TED(T1, T2) = 15".
        // Figure 3's trees are standalone binary trees, not LC-RS images —
        // T1's root has a right child — so their bags are written out as
        // (label, left, right) triples.
        let bag = |branches: [(u32, u32, u32); 4]| -> Vec<u64> {
            let l = Label::from_raw;
            let mut bag: Vec<u64> = branches
                .iter()
                .map(|&(v, a, b)| pack_twig(l(v), l(a), l(b)))
                .collect();
            bag.sort_unstable();
            bag
        };
        let e = Label::EPSILON.raw();
        // T1: ℓ1 with left ℓ2 and right ℓ1, which has left ℓ3.
        let x1 = bag([(1, 2, 1), (2, e, e), (1, 3, e), (3, e, e)]);
        // T2: ℓ1 with left ℓ2, which has left ℓ1 and right ℓ3.
        let x2 = bag([(1, 2, e), (2, 1, 3), (1, e, e), (3, e, e)]);
        assert_eq!(bib_distance(&x1, &x2), 6);
    }

    #[test]
    fn bag_respects_multiplicity() {
        // Two identical leaves under one parent yield a duplicate branch.
        let trees = collection(&["{a{b}{b}}"]);
        let bag = tree_branch_bag(&trees[0]);
        assert_eq!(bag.len(), 3);
        // LC-RS: a-left->b1, b1-right->b2. Branches: (a,b,ε), (b,ε,b), (b,ε,ε).
        let distinct: std::collections::HashSet<u64> = bag.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn identical_trees_have_zero_bib() {
        let trees = collection(&["{a{b{c}}{d}}", "{a{b{c}}{d}}"]);
        let (x1, x2) = (tree_branch_bag(&trees[0]), tree_branch_bag(&trees[1]));
        assert_eq!(bib_distance(&x1, &x2), 0);
    }

    #[test]
    fn bib_bound_holds_on_fixed_cases() {
        let cases = [
            ("{a{b}{c}}", "{a{b}{c}}"),
            ("{a{b}{c}}", "{a{c}{b}}"),
            ("{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}"),
            ("{1{2}{1{3}}}", "{1{2{1}{3}}}"),
            ("{r{x{y{z}}}}", "{r}"),
        ];
        for (sa, sb) in cases {
            let trees = collection(&[sa, sb]);
            let bib = bib_distance(&tree_branch_bag(&trees[0]), &tree_branch_bag(&trees[1]));
            let real = ted(&trees[0], &trees[1]) as u64;
            assert!(bib <= 5 * real, "BIB {bib} > 5·TED {real} for {sa} vs {sb}");
        }
    }

    #[test]
    fn join_verifies_candidates() {
        let trees = collection(&["{a{b}{c}}", "{a{b}{c}}", "{a{z}{c}}", "{m{n{o{p{q}}}}}"]);
        let outcome = set_join(&trees, 1);
        assert_eq!(outcome.pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert!(outcome.stats.candidates >= outcome.stats.results);
    }

    #[test]
    fn set_filter_is_weaker_at_larger_tau() {
        // The binary branch structure is τ-insensitive: at larger τ the
        // 5τ budget admits more candidates (the paper's observation about
        // SET's growing false positive rate).
        let trees = collection(&[
            "{a{b}{c}{d}}",
            "{a{b}{x}{y}}",
            "{a{p}{q}{r}}",
            "{z{b}{c}{d}}",
        ]);
        let c1 = set_join(&trees, 1).stats.candidates;
        let c3 = set_join(&trees, 3).stats.candidates;
        assert!(c3 >= c1);
    }
}
