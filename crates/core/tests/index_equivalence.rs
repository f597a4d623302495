//! Equivalence test for the dense subgraph index: **index ≡ linear
//! scan** — probing the flat per-size / position-bucket / twig-sorted
//! storage must surface exactly the handles a naive scan over every
//! inserted subgraph's registration predicate (size match, position
//! within `[pos − ∆′, pos + ∆′]`, twig among the probe's keys) selects,
//! for all three window policies and τ ∈ {0, 1, 3}.

use partsj::{build_subgraphs, max_min_size, select_cuts, SubgraphIndex, TwigKeys, WindowPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_datagen::{grow_tree, ShapeProfile};
use tsj_tree::{BinaryTree, Label, Tree};

fn random_tree(seed: u64, size: usize, labels: u32, deepen: f64) -> Tree {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: deepen,
    };
    grow_tree(&mut StdRng::seed_from_u64(seed), size, labels, &profile)
}

/// One recorded registration: everything the naive reference needs to
/// decide whether a probe should surface the handle.
struct RefEntry {
    handle: u32,
    tree_size: u32,
    position: u32,
    half_width: u32,
    twig: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dense index surfaces exactly the handles a linear scan over
    /// all inserted subgraphs selects.
    #[test]
    fn probe_equals_linear_scan(seed in any::<u64>()) {
        for window in [WindowPolicy::Safe, WindowPolicy::Tight, WindowPolicy::PaperAbsolute] {
            for tau in [0u32, 1, 3] {
                let delta = 2 * tau as usize + 1;
                let mut rng = StdRng::seed_from_u64(seed ^ (tau as u64) << 3 ^ window as u64);
                let trees: Vec<Tree> = (0..6)
                    .map(|_| {
                        let size = rng.gen_range(delta.max(2)..delta + 30);
                        random_tree(rng.gen(), size, 5, rng.gen_range(0.0..0.6))
                    })
                    .collect();

                let mut index = SubgraphIndex::new(tau, window);
                let mut reference: Vec<RefEntry> = Vec::new();
                for (i, tree) in trees.iter().enumerate() {
                    if tree.len() < delta {
                        continue;
                    }
                    let binary = BinaryTree::from_tree(tree);
                    let gamma = max_min_size(&binary, delta);
                    let cuts = select_cuts(&binary, delta, gamma);
                    let sgs =
                        build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, i as u32);
                    let base = index.len() as u32;
                    for (k, sg) in sgs.iter().enumerate() {
                        reference.push(RefEntry {
                            handle: base + k as u32,
                            tree_size: tree.len() as u32,
                            position: index.position_of(sg),
                            half_width: index.window_half_width(sg.ordinal),
                            twig: sg.twig,
                        });
                    }
                    index.insert_tree(tree.len() as u32, sgs);
                }

                // Probe with every node of every tree over the full
                // symmetric size window (the streaming/R×S superset).
                for tree in &trees {
                    let binary = BinaryTree::from_tree(tree);
                    let posts = tree.postorder_numbers();
                    let size = tree.len() as u32;
                    for node in binary.node_ids() {
                        let label = binary.label(node);
                        let left = binary
                            .left(node)
                            .map_or(Label::EPSILON, |c| binary.label(c));
                        let right = binary
                            .right(node)
                            .map_or(Label::EPSILON, |c| binary.label(c));
                        let keys = TwigKeys::new(label, left, right);
                        let position = index.probe_position(posts[node.index()], size);
                        for n in size.saturating_sub(tau).max(1)..=size + tau {
                            let mut got: Vec<u32> = Vec::new();
                            if let Some(layer) = index.layer_id(n) {
                                index.layer(layer).probe(position, &keys, |h| got.push(h));
                            }
                            got.sort_unstable();
                            let mut expected: Vec<u32> = reference
                                .iter()
                                .filter(|e| {
                                    e.tree_size == n
                                        && position >= e.position.saturating_sub(e.half_width)
                                        && position <= e.position + e.half_width
                                        && keys.as_slice().contains(&e.twig)
                                })
                                .map(|e| e.handle)
                                .collect();
                            expected.sort_unstable();
                            prop_assert_eq!(
                                got,
                                expected,
                                "window {:?}, tau {}, probe size {}",
                                window,
                                tau,
                                n
                            );
                        }
                    }
                }
            }
        }
    }
}
