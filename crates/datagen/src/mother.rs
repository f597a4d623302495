//! Mother-tree sampling — the mechanism of Zaki's tree generator
//! (reference \[28\] of the paper), which §4 uses for the synthetic dataset.
//!
//! A single large *mother tree* is grown once per collection; every
//! database tree is a random prefix-closed subtree of it (pick a root,
//! then repeatedly adopt a random frontier child until the target size is
//! reached, preserving the mother's child order and labels). Trees sampled
//! from overlapping mother regions naturally share large substructures, so
//! a similarity self-join has results across the whole distance range —
//! the distribution real datasets exhibit — rather than an artificial
//! band of mutated clones. A final decay pass (`Dz`, Yang et al.) adds
//! local noise.

use crate::grow::{grow_tree, ShapeProfile};
use crate::mutate::mutate;
use rand::Rng;
use tsj_tree::{NodeId, Tree, TreeBuilder};

/// A grown mother tree from which database trees are sampled.
#[derive(Debug, Clone)]
pub struct MotherSampler {
    mother: Tree,
    subtree_sizes: Vec<u32>,
}

impl MotherSampler {
    /// Grows a mother tree with `mother_size` nodes under `profile`.
    pub fn new<R: Rng>(
        rng: &mut R,
        mother_size: usize,
        num_labels: u32,
        profile: &ShapeProfile,
    ) -> MotherSampler {
        let mother = grow_tree(rng, mother_size, num_labels, profile);
        let subtree_sizes = mother.subtree_sizes();
        MotherSampler {
            mother,
            subtree_sizes,
        }
    }

    /// The mother tree itself.
    pub fn mother(&self) -> &Tree {
        &self.mother
    }

    /// The ordered children of a mother node: the next id, then each
    /// sibling past the run of the one before, up to the end of the
    /// node's own run.
    fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let sizes = &self.subtree_sizes;
        let end = node.index() + sizes[node.index()] as usize;
        let first = Some(node.index() + 1).filter(|&child| child < end);
        let next = move |&child: &usize| Some(child + sizes[child] as usize).filter(|&c| c < end);
        std::iter::successors(first, next).map(NodeId::from_index)
    }

    /// Samples a random prefix-closed subtree with about `target` nodes.
    ///
    /// The sampled tree's root is a random mother node whose subtree can
    /// accommodate `target` nodes (falling back to the mother root);
    /// children are adopted in random frontier order but attached in the
    /// mother's original child order, so the sample is itself a rooted
    /// ordered labeled tree sharing structure with every other sample
    /// drawn from the same region.
    pub fn sample<R: Rng>(&self, rng: &mut R, target: usize) -> Tree {
        let target = target.max(1);
        // Candidate roots: subtree at least as large as the target. Retry
        // a few times before falling back to the mother root so samples
        // spread across regions instead of always starting at the top.
        let mut root = self.mother.root();
        for _ in 0..16 {
            let candidate = NodeId::from_index(rng.gen_range(0..self.mother.len()));
            if self.subtree_sizes[candidate.index()] as usize >= target {
                root = candidate;
                break;
            }
        }

        // Frontier expansion: include `root`, then adopt random frontier
        // children until the target is met.
        let mut included: Vec<NodeId> = vec![root];
        let mut frontier: Vec<NodeId> = self.children(root).collect();
        while included.len() < target && !frontier.is_empty() {
            let pick = rng.gen_range(0..frontier.len());
            let node = frontier.swap_remove(pick);
            included.push(node);
            frontier.extend(self.children(node));
        }

        // Rebuild the induced subtree in preorder, keeping the mother's
        // child order: the sample holds every included node's parent, and
        // mother ids are preorder, so its preorder is its ids ascending.
        let mut in_sample = vec![false; self.mother.len()];
        for &node in &included {
            in_sample[node.index()] = true;
        }
        let mut placed = vec![root; self.mother.len()];
        let mut builder = TreeBuilder::with_capacity(included.len());
        placed[root.index()] = builder.root(self.mother.label(root));
        let end = root.index() + self.subtree_sizes[root.index()] as usize;
        let parents = self.mother.parents();
        for v in (root.index() + 1..end).filter(|&v| in_sample[v]) {
            let label = self.mother.label(NodeId::from_index(v));
            placed[v] = builder.child(placed[parents[v] as usize], label);
        }
        builder.build()
    }
}

/// Generates a collection of `n` trees sampled from one mother tree and
/// decay-mutated with probability `dz` per node.
pub fn mother_collection<R: Rng>(
    rng: &mut R,
    n: usize,
    avg_size: usize,
    num_labels: u32,
    profile: &ShapeProfile,
    mother_factor: usize,
    dz: f64,
) -> Vec<Tree> {
    let mother_size = (avg_size * mother_factor).max(avg_size * 2);
    let sampler = MotherSampler::new(rng, mother_size, num_labels, profile);
    (0..n)
        .map(|_| {
            let lo = (avg_size / 2).max(1);
            let hi = (3 * avg_size / 2).max(lo);
            let target = rng.gen_range(lo..=hi);
            let sampled = sampler.sample(rng, target);
            if dz > 0.0 {
                mutate(&sampled, dz, rng, num_labels)
            } else {
                sampled
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> ShapeProfile {
        ShapeProfile {
            max_fanout: 3,
            max_depth: 8,
            deepen_prob: 0.3,
        }
    }

    #[test]
    fn samples_are_valid_trees_of_roughly_target_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let sampler = MotherSampler::new(&mut rng, 400, 10, &profile());
        for _ in 0..50 {
            let tree = sampler.sample(&mut rng, 40);
            tree.validate().unwrap();
            assert!(tree.len() <= 41);
        }
    }

    #[test]
    fn samples_preserve_mother_child_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = MotherSampler::new(&mut rng, 200, 6, &profile());
        // Sampling the full mother from the root must reproduce it.
        let full = sampler.sample(&mut rng, 200);
        if full.len() == sampler.mother().len() {
            assert!(full.structurally_eq(sampler.mother()));
        }
    }

    #[test]
    fn samples_share_structure() {
        // Two samples of the whole mother are much closer to each other
        // than to an unrelated random tree of the same size.
        let mut rng = StdRng::seed_from_u64(17);
        let sampler = MotherSampler::new(&mut rng, 120, 8, &profile());
        let a = sampler.sample(&mut rng, 60);
        let b = sampler.sample(&mut rng, 60);
        let unrelated = grow_tree(&mut rng, 60, 8, &profile());
        let d_ab = tsj_ted::ted(&a, &b);
        let d_au = tsj_ted::ted(&a, &unrelated);
        assert!(
            d_ab < d_au,
            "mother samples should be closer ({d_ab}) than unrelated trees ({d_au})"
        );
    }

    #[test]
    fn collection_is_deterministic() {
        let gen = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            mother_collection(&mut rng, 30, 40, 10, &profile(), 10, 0.05)
        };
        let a = gen(5);
        let b = gen(5);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.structurally_eq(y));
        }
    }

    #[test]
    fn respects_shape_profile() {
        let mut rng = StdRng::seed_from_u64(23);
        let trees = mother_collection(&mut rng, 40, 30, 5, &profile(), 10, 0.0);
        for tree in &trees {
            assert!(tree.max_fanout() <= 3);
            assert!(tree.max_depth() <= 8);
        }
    }
}
