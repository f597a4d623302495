//! Decay-factor mutations (the `Dz` model of Yang et al., §4 of the paper).
//!
//! "For each node of the tree generated by the data generator, we change it
//! with probability Dz; the change is randomly chosen from the three node
//! edit operations (insertion, deletion and renaming) with equal
//! probability." Mutated copies of base trees give a collection its
//! near-duplicate pairs — without them a similarity self-join on random
//! trees is empty at small τ.

use rand::Rng;
use tsj_tree::{apply_edit, EditOp, Label, NodeId, Tree};

/// Draws one random *valid* edit operation against `tree`.
///
/// Operation kinds are sampled with equal probability; impossible choices
/// (deleting the root of a single-node tree) fall back to a rename.
pub fn random_edit<R: Rng>(tree: &Tree, rng: &mut R, num_labels: u32) -> EditOp {
    let random_label = |rng: &mut R| Label::from_raw(rng.gen_range(1..=num_labels));
    let random_node = |rng: &mut R| NodeId::from_index(rng.gen_range(0..tree.len()));
    match rng.gen_range(0..3u8) {
        0 => EditOp::Rename {
            node: random_node(rng),
            label: random_label(rng),
        },
        1 => {
            // Delete a random non-root node; fall back to rename when the
            // tree is a single root.
            if tree.len() == 1 {
                EditOp::Rename {
                    node: tree.root(),
                    label: random_label(rng),
                }
            } else {
                let node = loop {
                    let candidate = random_node(rng);
                    if candidate != tree.root() {
                        break candidate;
                    }
                };
                EditOp::Delete { node }
            }
        }
        _ => {
            let parent = random_node(rng);
            let available = tree.children(parent).count();
            let start = rng.gen_range(0..=available);
            let count = rng.gen_range(0..=available - start);
            EditOp::Insert {
                parent,
                start,
                count,
                label: random_label(rng),
            }
        }
    }
}

/// Applies exactly `k` random valid edits, returning the edited tree and
/// the script. `TED(tree, result) ≤ k` — the workhorse of the Lemma 1/2
/// property tests.
pub fn random_edit_script<R: Rng>(
    tree: &Tree,
    k: usize,
    rng: &mut R,
    num_labels: u32,
) -> (Tree, Vec<EditOp>) {
    let mut current = tree.clone();
    let mut script = Vec::with_capacity(k);
    for _ in 0..k {
        let op = random_edit(&current, rng, num_labels);
        current = apply_edit(&current, &op).expect("random_edit only emits valid ops");
        script.push(op);
    }
    (current, script)
}

/// Decay-factor mutation: each node triggers an edit with probability `dz`.
///
/// The number of operations is drawn as a Binomial(|T|, dz) by per-node
/// coin flips, then that many random edits are applied to the evolving
/// tree (matching Yang et al.'s generator, which mutates while walking).
pub fn mutate<R: Rng>(tree: &Tree, dz: f64, rng: &mut R, num_labels: u32) -> Tree {
    let flips = (0..tree.len()).filter(|_| rng.gen_bool(dz)).count();
    random_edit_script(tree, flips, rng, num_labels).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grow::{grow_tree, ShapeProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsj_ted::ted;

    fn sample_tree(seed: u64) -> Tree {
        let profile = ShapeProfile {
            max_fanout: 3,
            max_depth: 5,
            deepen_prob: 0.3,
        };
        grow_tree(&mut StdRng::seed_from_u64(seed), 30, 10, &profile)
    }

    #[test]
    fn random_edits_are_always_valid() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut tree = sample_tree(1);
        for _ in 0..200 {
            let op = random_edit(&tree, &mut rng, 10);
            tree = apply_edit(&tree, &op).expect("op must be valid");
            tree.validate().unwrap();
        }
    }

    #[test]
    fn edit_script_bounds_ted() {
        // TED(t, edit^k(t)) ≤ k for every k — the foundation of Lemma 2.
        let mut rng = StdRng::seed_from_u64(17);
        for seed in 0..10 {
            let tree = sample_tree(seed);
            for k in 0..5usize {
                let (edited, script) = random_edit_script(&tree, k, &mut rng, 10);
                assert_eq!(script.len(), k);
                let d = ted(&tree, &edited);
                assert!(
                    d <= k as u32,
                    "TED {d} exceeded script length {k} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn zero_decay_is_identity() {
        let tree = sample_tree(3);
        let mut rng = StdRng::seed_from_u64(5);
        let out = mutate(&tree, 0.0, &mut rng, 10);
        assert!(out.structurally_eq(&tree));
    }

    #[test]
    fn high_decay_changes_tree() {
        let tree = sample_tree(4);
        let mut rng = StdRng::seed_from_u64(6);
        let out = mutate(&tree, 0.9, &mut rng, 10);
        assert!(!out.structurally_eq(&tree), "90% decay should mutate");
    }

    #[test]
    fn mutation_of_leaf_tree_is_safe() {
        let tree = Tree::leaf(Label::from_raw(1));
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let out = mutate(&tree, 1.0, &mut rng, 5);
            out.validate().unwrap();
        }
    }

    #[test]
    fn typical_decay_produces_small_distance() {
        // Dz = 0.05 on a 30-node tree flips ~1.5 coins on average, so the
        // TED to the original should usually be small.
        let mut rng = StdRng::seed_from_u64(21);
        let tree = sample_tree(9);
        let mut total = 0u32;
        for _ in 0..20 {
            let out = mutate(&tree, 0.05, &mut rng, 10);
            total += ted(&tree, &out);
        }
        assert!(total <= 20 * 5, "average decay distance too large: {total}");
    }
}
