//! Collection generators for the paper's four evaluation datasets (§4).
//!
//! The three real datasets (Swissprot, Treebank, Sentiment) are not
//! redistributable offline, so — per `docs/ARCHITECTURE.md` §Substitutions —
//! each is simulated by a generator tuned to reproduce the statistics the
//! paper reports (average tree size, label count, average and maximum
//! depth). The synthetic dataset follows the Zaki generator parameters of
//! Table 1 plus the decay factor `Dz` of Yang et al.
//!
//! Every collection mixes *independent* random trees with clusters of
//! lightly-edited near-duplicates (the decay model of Yang et al.): real
//! collections contain both unrelated entries and versioned/near-duplicate
//! ones, and it is this mix the filters under study are sensitive to. A
//! mother-tree sampler in the style of Zaki's generator is also available
//! ([`crate::mother`]) for workloads with heavy substructure sharing.
//! Collections are deterministic in `(n, seed)`.

use crate::grow::{grow_tree, ShapeProfile};
use crate::mutate::random_edit_script;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tsj_tree::Tree;

/// Parameters of the Zaki-style synthetic generator (paper Table 1).
#[derive(Debug, Clone, Copy)]
pub struct SyntheticParams {
    /// Maximum fanout `f` (default 3).
    pub fanout: usize,
    /// Maximum depth `d` (default 5).
    pub depth: usize,
    /// Number of distinct labels `l` (default 20).
    pub labels: u32,
    /// Average tree size `t` (default 80).
    pub avg_size: usize,
    /// Decay factor `Dz` (default 0.05, as in Yang et al.).
    pub decay: f64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            fanout: 3,
            depth: 5,
            labels: 20,
            avg_size: 80,
            decay: 0.05,
        }
    }
}

/// Fraction of the collection that belongs to near-duplicate clusters.
const CLUSTER_FRACTION: f64 = 0.5;
/// Trees per near-duplicate cluster (one base plus mutated copies).
const CLUSTER_SIZE: usize = 4;

/// Mixed generation: independent random trees plus light-edit clusters.
///
/// Each cluster copy receives `Uniform{0..=max_ops}` random edit
/// operations against the cluster base, with `max_ops ≈ 2·dz·avg_size`
/// (so the expected per-copy edit count matches the decay model's
/// `dz·avg_size`). Pairwise distances inside a cluster therefore spread
/// from 0 to `2·max_ops`, giving the τ-sweep results at every threshold.
fn mixed_collection<R: Rng, F: FnMut(&mut R) -> Tree>(
    n: usize,
    rng: &mut R,
    num_labels: u32,
    avg_size: usize,
    dz: f64,
    mut fresh: F,
) -> Vec<Tree> {
    let max_ops = ((2.0 * dz * avg_size as f64).round() as usize).clamp(2, 10);
    let clustered_target = (n as f64 * CLUSTER_FRACTION) as usize;
    let mut trees = Vec::with_capacity(n);
    while trees.len() < clustered_target.min(n) {
        let base = fresh(rng);
        let copies = (CLUSTER_SIZE - 1).min(n - trees.len() - 1);
        for _ in 0..copies {
            let ops = rng.gen_range(0..=max_ops);
            let (copy, _) = random_edit_script(&base, ops, rng, num_labels);
            trees.push(copy);
        }
        trees.push(base);
    }
    while trees.len() < n {
        trees.push(fresh(rng));
    }
    trees.shuffle(rng);
    trees
}

/// Samples a tree size uniformly in `[avg/2, 3·avg/2]` (mean `avg`).
fn sample_size<R: Rng>(rng: &mut R, avg: usize) -> usize {
    let lo = (avg / 2).max(1);
    let hi = (3 * avg) / 2;
    rng.gen_range(lo..=hi.max(lo))
}

/// The synthetic dataset: Zaki-style random trees + decay clusters
/// (§4, Table 1).
pub fn synthetic(n: usize, params: &SyntheticParams, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = ShapeProfile {
        max_fanout: params.fanout,
        max_depth: params.depth,
        deepen_prob: 0.25,
    };
    let (labels, avg, decay) = (params.labels, params.avg_size, params.decay);
    mixed_collection(n, &mut rng, labels, avg, decay, move |rng| {
        let size = sample_size(rng, avg);
        grow_tree(rng, size, labels, &profile)
    })
}

/// [`synthetic`] at the paper's default shape parameters but trees of
/// `avg_size` nodes on average — small sizes keep brute-force oracles
/// cheap, which is the collection the equivalence suites share.
pub fn synthetic_sized(n: usize, avg_size: usize, seed: u64) -> Vec<Tree> {
    let params = SyntheticParams {
        avg_size,
        ..Default::default()
    };
    synthetic(n, &params, seed)
}

/// Swissprot-like: 100K-scale flat, medium trees.
///
/// Paper statistics: average size 62.37, 84 labels, average depth 2.65,
/// maximum depth 4. Protein entries are wide shallow records, so the
/// profile uses high fanout, depth cap 4 and no deepening bias.
pub fn swissprot_like(n: usize, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5155));
    let profile = ShapeProfile {
        max_fanout: 24,
        max_depth: 4,
        deepen_prob: 0.0,
    };
    mixed_collection(n, &mut rng, 84, 62, 0.05, move |rng| {
        let size = sample_size(rng, 62);
        grow_tree(rng, size, 84, &profile)
    })
}

/// Treebank-like: small, deep parse trees.
///
/// Paper statistics: average size 45.12, 218 labels, average depth 6.93,
/// maximum depth 35. A strong deepening bias yields parse-like spines.
pub fn treebank_like(n: usize, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x7EEB));
    let profile = ShapeProfile {
        max_fanout: 6,
        max_depth: 35,
        deepen_prob: 0.66,
    };
    mixed_collection(n, &mut rng, 218, 45, 0.05, move |rng| {
        let size = sample_size(rng, 45);
        grow_tree(rng, size, 218, &profile)
    })
}

/// Sentiment-like: binarized sentiment parse trees.
///
/// Paper statistics: average size 37.31, 5 labels, average depth 10.84,
/// maximum depth 30. Fanout is capped at 2 (the Stanford sentiment
/// treebank is binarized) with a moderate deepening bias.
pub fn sentiment_like(n: usize, seed: u64) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5E47));
    let profile = ShapeProfile {
        max_fanout: 2,
        max_depth: 30,
        deepen_prob: 0.78,
    };
    mixed_collection(n, &mut rng, 5, 37, 0.05, move |rng| {
        let size = sample_size(rng, 37);
        grow_tree(rng, size, 5, &profile)
    })
}

/// Summary statistics of a collection, mirroring the numbers the paper
/// reports for each dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionStats {
    /// Number of trees.
    pub cardinality: usize,
    /// Mean tree size.
    pub avg_size: f64,
    /// Largest tree size.
    pub max_size: usize,
    /// Number of distinct labels across the collection.
    pub distinct_labels: usize,
    /// Mean node depth over all nodes of all trees (the statistic the
    /// paper reports as "average depth").
    pub avg_depth: f64,
    /// Maximum depth over all trees.
    pub max_depth: u32,
}

/// Computes [`CollectionStats`] for `trees`.
pub fn collection_stats(trees: &[Tree]) -> CollectionStats {
    let mut labels = tsj_tree::FxHashSet::default();
    let mut total_size = 0usize;
    let mut max_size = 0usize;
    let mut depth_sum = 0f64;
    let mut max_depth = 0u32;
    for tree in trees {
        total_size += tree.len();
        max_size = max_size.max(tree.len());
        let depths = tree.depths();
        for &d in &depths {
            depth_sum += d as f64;
            max_depth = max_depth.max(d);
        }
        for node in tree.node_ids() {
            labels.insert(tree.label(node));
        }
    }
    CollectionStats {
        cardinality: trees.len(),
        avg_size: total_size as f64 / trees.len().max(1) as f64,
        max_size,
        distinct_labels: labels.len(),
        avg_depth: depth_sum / total_size.max(1) as f64,
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_matches_table1_defaults() {
        let trees = synthetic(200, &SyntheticParams::default(), 42);
        assert_eq!(trees.len(), 200);
        let stats = collection_stats(&trees);
        assert!(stats.avg_size > 50.0 && stats.avg_size < 110.0, "{stats:?}");
        assert!(
            stats.max_depth <= 5 + 3,
            "decay inserts may deepen slightly"
        );
        assert!(stats.distinct_labels <= 20);
        for tree in &trees {
            tree.validate().unwrap();
        }
    }

    #[test]
    fn swissprot_like_is_flat_and_medium() {
        let trees = swissprot_like(150, 1);
        let stats = collection_stats(&trees);
        assert!(stats.avg_size > 45.0 && stats.avg_size < 80.0, "{stats:?}");
        assert!(stats.avg_depth < 3.5, "{stats:?}");
        assert!(stats.distinct_labels <= 84);
    }

    #[test]
    fn treebank_like_is_deep() {
        let trees = treebank_like(150, 2);
        let stats = collection_stats(&trees);
        assert!(stats.avg_size > 30.0 && stats.avg_size < 60.0, "{stats:?}");
        assert!(stats.avg_depth > 4.5, "{stats:?}");
        assert!(stats.max_depth <= 35 + 5);
    }

    #[test]
    fn sentiment_like_is_binary_and_deep() {
        let trees = sentiment_like(150, 3);
        let stats = collection_stats(&trees);
        assert!(stats.avg_size > 25.0 && stats.avg_size < 50.0, "{stats:?}");
        assert!(stats.distinct_labels <= 5);
        assert!(stats.avg_depth > 6.0, "{stats:?}");
        // Insertions adopting consecutive children can momentarily exceed
        // fanout 2, but the bulk of the collection must stay binary.
        let binaryish = trees.iter().filter(|t| t.max_fanout() <= 3).count();
        assert!(binaryish * 10 >= trees.len() * 9);
    }

    #[test]
    fn collections_are_deterministic() {
        let a = synthetic(50, &SyntheticParams::default(), 7);
        let b = synthetic(50, &SyntheticParams::default(), 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.structurally_eq(y));
        }
        let c = synthetic(50, &SyntheticParams::default(), 8);
        let all_equal = a.iter().zip(&c).all(|(x, y)| x.structurally_eq(y));
        assert!(!all_equal, "different seeds should differ");
    }

    #[test]
    fn mother_sampling_creates_similar_pairs() {
        // Trees sampled from one mother must include pairs within a small
        // TED — the join workload is non-degenerate. Smaller trees keep
        // the brute-force check cheap.
        let params = SyntheticParams {
            avg_size: 24,
            ..SyntheticParams::default()
        };
        let trees = synthetic(120, &params, 9);
        let mut engine = tsj_ted::TedEngine::unit();
        let mut close_pairs = 0;
        'outer: for i in 0..trees.len() {
            for j in i + 1..trees.len() {
                if trees[i].len().abs_diff(trees[j].len()) <= 6
                    && engine.distance_trees(&trees[i], &trees[j]) <= 6
                {
                    close_pairs += 1;
                    if close_pairs >= 3 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(close_pairs >= 1, "no similar pairs generated");
    }

    #[test]
    fn stats_on_empty_collection() {
        let stats = collection_stats(&[]);
        assert_eq!(stats.cardinality, 0);
        assert_eq!(stats.avg_size, 0.0);
    }
}
