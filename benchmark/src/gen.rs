//! Workload inputs, made from the seed and from nothing else.
//!
//! The collections have the shape of `tsj_datagen`'s (`swissprot_like`,
//! `synthetic`): half the trees are independent random trees, half sit in
//! clusters of four near-duplicates. They are built here, from the same
//! public `grow_tree` / `random_edit` primitives and the same profile
//! constants, because the benchmark has to read the same on every seed:
//! `tsj_datagen` draws tree sizes and per-copy edit counts independently,
//! which moves the exact-TED call count (and so the time of a join) by
//! 5–40 % from seed to seed. Stratifying sizes and edit counts alone left
//! ±10 % (48 to 57 calls on `join_bigtree`), because a copy a little beyond
//! τ from its base reaches exact TED or not as its random edits fall. So
//! every cluster pair's fate is *decided by construction*:
//!
//! - a **renamed** copy differs from the base by at most τ/2 renames: the
//!   same shape, so the chain's `shape-accept` stage takes the pair;
//! - an **edited** copy has an odd number (≤ τ/2) of insertions/deletions:
//!   another size, so never the base's shape, and within τ of the base and
//!   of the renamed copy — no bound can decide those two pairs, both reach
//!   exact TED and both are results. In all but one cluster of
//!   `edited_every` it is a second renamed copy instead;
//! - a **far** copy has `far_edits` ≥ 3τ random edits: a candidate as often
//!   as not, and for the lower bounds to reject.
//!
//! The seed still decides every shape, label and edit position, and the
//! final order; it does not decide how much work the join has to do.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tsj_datagen::{grow_tree, random_edit, random_edit_script, ShapeProfile};
use tsj_tree::{apply_edit, EditOp, Label, NodeId, Tree};

/// Trees per near-duplicate cluster (one base plus mutated copies), as in
/// `tsj_datagen::datasets`.
const CLUSTER_SIZE: usize = 4;

/// The distribution a collection is drawn from.
#[derive(Debug, Clone, Copy)]
pub struct CollectionSpec {
    /// Distinct labels, drawn uniformly from `1..=labels`.
    pub labels: u32,
    /// Mean target size; sizes cover `[avg/2, 3·avg/2]` evenly.
    pub avg_size: usize,
    /// Shape constraints handed to `grow_tree`.
    pub profile: ShapeProfile,
    /// Renames of a cluster's renamed copies; at most τ/2.
    pub renames: usize,
    /// Insertions/deletions of its edited copy; odd, at most τ/2.
    pub structural: usize,
    /// One cluster in this many has an edited copy (two exact TEDs).
    pub edited_every: usize,
    /// Random edits of its far copy; at least 3τ.
    pub far_edits: usize,
}

impl CollectionSpec {
    /// `tsj_datagen::swissprot_like`'s distribution: wide shallow records,
    /// average size 62, 84 labels, depth cap 4. Clusters are cut for τ = 2;
    /// a third have an edited copy, so exact TED stays the smaller part.
    pub const SWISSPROT: CollectionSpec = CollectionSpec {
        labels: 84,
        avg_size: 62,
        profile: ShapeProfile {
            max_fanout: 24,
            max_depth: 4,
            deepen_prob: 0.0,
        },
        renames: 1,
        structural: 1,
        edited_every: 3,
        far_edits: 8,
    };

    /// `tsj_datagen::synthetic` with `avg_size = 150, depth = 5,
    /// labels = 20, decay = 0.05`: few, large trees whose exact TED is
    /// three orders of magnitude dearer than a filter. Clusters are cut for
    /// τ = 6 and every one has an edited copy.
    pub const BIGTREE: CollectionSpec = CollectionSpec {
        labels: 20,
        avg_size: 150,
        profile: ShapeProfile {
            max_fanout: 3,
            max_depth: 5,
            deepen_prob: 0.25,
        },
        renames: 2,
        structural: 3,
        edited_every: 1,
        far_edits: 20,
    };
}

/// `count` target sizes spread evenly over `[avg/2, 3·avg/2]`, ascending:
/// the same sizes on every seed.
fn stratified_sizes(count: usize, avg: usize) -> impl Iterator<Item = usize> {
    let lo = (avg / 2).max(1);
    let span = (3 * avg) / 2 - lo + 1;
    (0..count).map(move |k| lo + (k * span) / count.max(1))
}

/// `base` with `count` nodes renamed: the same shape.
fn renamed(base: &Tree, count: usize, rng: &mut StdRng, labels: u32) -> Tree {
    (0..count).fold(base.clone(), |tree, _| {
        let op = EditOp::Rename {
            node: NodeId::from_index(rng.gen_range(0..tree.len())),
            label: Label::from_raw(rng.gen_range(1..=labels)),
        };
        apply_edit(&tree, &op).expect("renaming an existing node is valid")
    })
}

/// `base` after `count` random insertions and deletions, no renames.
fn restructured(base: &Tree, count: usize, rng: &mut StdRng, labels: u32) -> Tree {
    (0..count).fold(base.clone(), |tree, _| loop {
        let op = random_edit(&tree, rng, labels);
        if !matches!(op, EditOp::Rename { .. }) {
            break apply_edit(&tree, &op).expect("random_edit only emits valid ops");
        }
    })
}

/// `n` trees drawn from `spec`, deterministic in `(n, spec, seed)`.
pub fn collection(n: usize, spec: &CollectionSpec, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = n / 2 / CLUSTER_SIZE;
    let singles = n - clusters * CLUSTER_SIZE;

    let mut trees = Vec::with_capacity(n);
    for (c, size) in stratified_sizes(clusters, spec.avg_size).enumerate() {
        let base = grow_tree(&mut rng, size, spec.labels, &spec.profile);
        trees.push(renamed(&base, spec.renames, &mut rng, spec.labels));
        trees.push(if c % spec.edited_every == 0 {
            restructured(&base, spec.structural, &mut rng, spec.labels)
        } else {
            renamed(&base, spec.renames, &mut rng, spec.labels)
        });
        trees.push(random_edit_script(&base, spec.far_edits, &mut rng, spec.labels).0);
        trees.push(base);
    }
    for size in stratified_sizes(singles, spec.avg_size) {
        trees.push(grow_tree(&mut rng, size, spec.labels, &spec.profile));
    }
    trees.shuffle(&mut rng);
    trees
}

/// A probe pool for a frozen catalog: the first half are `0..=tau + 2`-edit
/// mutants of catalog trees (edit counts cycled, so a fixed share lands
/// within `tau`), the second half fresh trees from the same distribution.
pub fn probe_pool(
    catalog: &[Tree],
    count: usize,
    tau: u32,
    spec: &CollectionSpec,
    seed: u64,
) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mutants = count / 2;
    let mut pool = Vec::with_capacity(count);
    for k in 0..mutants {
        // Evenly spaced catalog trees (the catalog is already shuffled).
        let base = &catalog[(k * catalog.len()) / mutants];
        let edits = k % (tau as usize + 3);
        pool.push(random_edit_script(base, edits, &mut rng, spec.labels).0);
    }
    for size in stratified_sizes(count - mutants, spec.avg_size) {
        pool.push(grow_tree(&mut rng, size, spec.labels, &spec.profile));
    }
    pool.shuffle(&mut rng);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trees_other_seed_other_trees() {
        let a = collection(64, &CollectionSpec::SWISSPROT, 7);
        let b = collection(64, &CollectionSpec::SWISSPROT, 7);
        let c = collection(64, &CollectionSpec::SWISSPROT, 8);
        assert_eq!(a.len(), 64);
        assert!(a.iter().zip(&b).all(|(x, y)| x.structurally_eq(y)));
        assert!(!a.iter().zip(&c).all(|(x, y)| x.structurally_eq(y)));
    }

    #[test]
    fn sizes_cover_half_to_three_halves_of_the_average() {
        let sizes: Vec<usize> = stratified_sizes(100, 62).collect();
        assert_eq!((sizes[0], sizes[99]), (31, 93));
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        let mean = sizes.iter().sum::<usize>() as f64 / 100.0;
        assert!((mean - 62.0).abs() < 1.5, "{mean}");
    }

    #[test]
    fn the_amount_of_similarity_does_not_depend_on_the_seed() {
        // 96 trees: 12 clusters, 4 of them with an edited copy. Whatever
        // the seed, base, renamed and edited/renamed copy of a cluster are
        // within tau of each other (3 result pairs a cluster), and exactly
        // the 2 pairs of an edited copy differ in size, so cannot be
        // accepted on shape.
        let spec = CollectionSpec::SWISSPROT;
        let tau = 2;
        for seed in [1, 2, 3] {
            let trees = collection(96, &spec, seed);
            let (mut results, mut unequal_size) = (0, 0);
            for (i, a) in trees.iter().enumerate() {
                for b in &trees[..i] {
                    if a.len().abs_diff(b.len()) <= tau && tsj_ted::ted(a, b) <= tau as u32 {
                        results += 1;
                        unequal_size += usize::from(a.len() != b.len());
                    }
                }
            }
            assert_eq!((results, unequal_size), (36, 8), "seed {seed}");
        }
    }

    #[test]
    fn probe_pool_is_half_mutants_half_fresh() {
        let catalog = collection(40, &CollectionSpec::SWISSPROT, 3);
        let pool = probe_pool(&catalog, 32, 2, &CollectionSpec::SWISSPROT, 3);
        assert_eq!(pool.len(), 32);
        pool.iter().for_each(|t| t.validate().unwrap());
    }
}
