//! Property-based correctness tests for PartSJ.
//!
//! The two load-bearing properties:
//!
//! 1. **Lemma 2** — after at most `τ` edit operations, at least one
//!    subgraph of any `δ = 2τ+1`-partitioning of the original tree embeds
//!    in the edited tree;
//! 2. **Join equivalence** — PartSJ (all complete configurations) returns
//!    exactly the brute-force result set on random collections.

use partsj::{
    build_subgraphs, max_min_size, partitionable, partsj_join_detailed, partsj_join_rs,
    partsj_join_with, partsj_topk, select_cuts, subgraph_matches, PartSjConfig, PartitionScheme,
    WindowPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_baselines::brute_force_join;
use tsj_datagen::{grow_tree, random_edit_script, ShapeProfile};
use tsj_ted::ted;
use tsj_tree::{BinaryTree, Tree};

fn random_tree(seed: u64, size: usize, labels: u32, deepen: f64) -> Tree {
    let profile = ShapeProfile {
        max_fanout: 4,
        max_depth: 12,
        deepen_prob: deepen,
    };
    grow_tree(&mut StdRng::seed_from_u64(seed), size, labels, &profile)
}

fn random_collection(seed: u64, count: usize, labels: u32) -> Vec<Tree> {
    // Mix fresh trees with lightly edited copies so joins are non-empty.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees = Vec::with_capacity(count);
    for i in 0..count {
        if i >= 2 && rng.gen_bool(0.5) {
            let base_idx = rng.gen_range(0..trees.len());
            let edits = rng.gen_range(0..4usize);
            let (edited, _) = random_edit_script(&trees[base_idx], edits, &mut rng, labels);
            trees.push(edited);
        } else {
            let size = rng.gen_range(4..28usize);
            let deepen = rng.gen_range(0.0..0.7);
            trees.push(random_tree(rng.gen(), size, labels, deepen));
        }
    }
    trees
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 2, end to end: partition, edit ≤ τ times, search for an
    /// embedded subgraph anywhere in the edited tree.
    #[test]
    fn lemma2_some_subgraph_survives(seed in any::<u64>(), tau in 1u32..4) {
        let delta = 2 * tau as usize + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let size = rng.gen_range(delta..delta + 40);
        let tree = random_tree(rng.gen(), size, 6, 0.3);
        prop_assume!(tree.len() >= delta);

        let binary = BinaryTree::from_tree(&tree);
        let gamma = max_min_size(&binary, delta);
        let cuts = select_cuts(&binary, delta, gamma);
        let subgraphs = build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, 0);
        prop_assert_eq!(subgraphs.len(), delta);

        let edits = rng.gen_range(0..=tau as usize);
        let (edited, _) = random_edit_script(&tree, edits, &mut rng, 6);
        let edited_bin = BinaryTree::from_tree(&edited);

        let survived = subgraphs.iter().any(|sg| {
            edited_bin
                .node_ids()
                .any(|node| subgraph_matches(&sg, &edited_bin, node))
        });
        prop_assert!(
            survived,
            "no subgraph survived {} edits (tau {}, tree size {})",
            edits, tau, tree.len()
        );
    }

    /// Join equivalence: every *complete* configuration (Safe window with
    /// MaxMin or Random partitioning) must equal brute force, and so must
    /// the collection's R×S join with itself: the diagonal plus each
    /// brute-force pair both ways round. The paper's Tight window is
    /// knowingly incomplete (≈0.2% of randomized runs, see
    /// `window_sweep.rs`), so it is only required to be a subset.
    #[test]
    fn partsj_equals_brute_force(seed in any::<u64>(), tau in 1u32..4) {
        let trees = random_collection(seed, 26, 5);
        let expected = brute_force_join(&trees, tau);
        let mut mirrored: Vec<(u32, u32)> = (0..trees.len() as u32).map(|i| (i, i)).collect();
        mirrored.extend(expected.pairs.iter().flat_map(|&(i, j)| [(i, j), (j, i)]));
        mirrored.sort_unstable();

        for config in [
            PartSjConfig::default(),
            PartSjConfig {
                partitioning: PartitionScheme::Random { seed },
                ..Default::default()
            },
        ] {
            let outcome = partsj_join_with(&trees, tau, &config);
            prop_assert_eq!(
                &outcome.pairs,
                &expected.pairs,
                "config {:?} diverged from brute force (tau {})",
                config,
                tau
            );
            let rs = partsj_join_rs(&trees, &trees, tau, &config);
            prop_assert_eq!(&rs.pairs, &mirrored, "R×S, config {:?}, tau {}", config, tau);
        }

        let tight = partsj_join_with(
            &trees,
            tau,
            &PartSjConfig { window: WindowPolicy::Tight, ..Default::default() },
        );
        for pair in &tight.pairs {
            prop_assert!(
                expected.pairs.contains(pair),
                "tight window produced a non-result pair {:?}",
                pair
            );
        }
    }

    /// Top-k is exactly the first `k` of the exhaustive join sorted by
    /// `(distance, i, j)` — ties resolved identically.
    #[test]
    fn topk_equals_exhaustive_prefix(seed in any::<u64>(), k in 0usize..12) {
        let trees = random_collection(seed, 14, 4);
        let mut all: Vec<(u32, u32, u32)> = Vec::new();
        for i in 0..trees.len() {
            for j in i + 1..trees.len() {
                all.push((ted(&trees[i], &trees[j]), i as u32, j as u32));
            }
        }
        all.sort_unstable();
        let outcome = partsj_topk(&trees, k);
        let got: Vec<(u32, u32, u32)> = outcome
            .pairs
            .iter()
            .map(|p| (p.distance, p.i, p.j))
            .collect();
        all.truncate(k);
        prop_assert_eq!(got, all);
    }

    /// Candidate-count ordering between the windows: the tight window
    /// registers subgraphs in fewer groups, so it can only produce fewer
    /// (or equal) candidates, and its results are a subset of Safe's.
    #[test]
    fn window_candidate_ordering(seed in any::<u64>(), tau in 1u32..3) {
        let trees = random_collection(seed, 20, 5);
        let (tight, _) = partsj_join_detailed(
            &trees,
            tau,
            &PartSjConfig { window: WindowPolicy::Tight, ..Default::default() },
        );
        let (safe, _) = partsj_join_detailed(&trees, tau, &PartSjConfig::default());
        prop_assert!(tight.stats.candidates <= safe.stats.candidates);
        prop_assert!(tight.stats.results <= tight.stats.candidates);
        for pair in &tight.pairs {
            prop_assert!(safe.pairs.contains(pair));
        }
    }

    /// Partition invariants on random trees: δ disjoint components covering
    /// the tree, each of at least the optimal γ nodes, and γ is maximal.
    #[test]
    fn partition_invariants(seed in any::<u64>(), tau in 1u32..5) {
        let delta = 2 * tau as usize + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let size = rng.gen_range(delta..delta + 60);
        let tree = random_tree(rng.gen(), size, 8, 0.4);
        prop_assume!(tree.len() >= delta);
        let binary = BinaryTree::from_tree(&tree);

        let gamma = max_min_size(&binary, delta);
        prop_assert!(partitionable(&binary, delta, gamma));
        prop_assert!(!partitionable(&binary, delta, gamma + 1));

        let cuts = select_cuts(&binary, delta, gamma);
        prop_assert_eq!(cuts.len(), delta - 1);
        let subgraphs = build_subgraphs(&binary, &tree.postorder_numbers(), &cuts, 0);
        prop_assert_eq!(subgraphs.len(), delta);

        let total: usize = subgraphs.iter().map(|s| s.component_size()).sum();
        prop_assert_eq!(total, binary.len(), "components must partition the tree");
        for sg in subgraphs.iter() {
            prop_assert!(
                sg.component_size() >= gamma as usize,
                "subgraph {} has {} nodes < gamma {}",
                sg.ordinal, sg.component_size(), gamma
            );
        }
        // Ordinals are assigned in discovery order, 1-based and dense.
        for (idx, sg) in subgraphs.iter().enumerate() {
            prop_assert_eq!(sg.ordinal as usize, idx + 1);
        }
    }

    /// Every subgraph of a tree matches its own tree at its own root
    /// (self-containment sanity for the matcher).
    #[test]
    fn subgraphs_match_their_container(seed in any::<u64>(), tau in 1u32..4) {
        let delta = 2 * tau as usize + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let size = rng.gen_range(delta..delta + 30);
        let tree = random_tree(rng.gen(), size, 4, 0.2);
        prop_assume!(tree.len() >= delta);
        let binary = BinaryTree::from_tree(&tree);
        let gamma = max_min_size(&binary, delta);
        let subgraphs = build_subgraphs(
            &binary,
            &tree.postorder_numbers(),
            &select_cuts(&binary, delta, gamma),
            0,
        );
        for sg in subgraphs.iter() {
            prop_assert!(subgraph_matches(&sg, &binary, sg.root));
        }
    }
}

/// Deterministic regression net: many seeds, moderate scale, sequential.
#[test]
fn join_equivalence_sweep() {
    for seed in 0..12u64 {
        let trees = random_collection(seed.wrapping_mul(0x9e3779b9), 30, 6);
        for tau in 1..=3u32 {
            let expected = brute_force_join(&trees, tau);
            let actual = partsj_join_with(&trees, tau, &PartSjConfig::default());
            assert_eq!(
                actual.pairs, expected.pairs,
                "seed {seed} tau {tau}: PartSJ diverged from brute force"
            );
        }
    }
}

/// The literal paper window (absolute postorder keys) must be a subset of
/// the truth — and this test documents that it *can* miss results, which
/// is why the suffix correction is the default.
#[test]
fn paper_absolute_window_is_subset_and_can_miss() {
    let mut missed_anywhere = false;
    for seed in 0..40u64 {
        let trees = random_collection(seed.wrapping_mul(31), 24, 5);
        for tau in 1..=3u32 {
            let expected = brute_force_join(&trees, tau);
            let paper = partsj_join_with(
                &trees,
                tau,
                &PartSjConfig {
                    window: WindowPolicy::PaperAbsolute,
                    ..Default::default()
                },
            );
            for pair in &paper.pairs {
                assert!(
                    expected.pairs.contains(pair),
                    "paper window produced a non-result pair {pair:?}"
                );
            }
            if paper.pairs.len() < expected.pairs.len() {
                missed_anywhere = true;
            }
        }
    }
    // We do not assert `missed_anywhere` — completeness violations need
    // size-differing near-pairs — but report it for the curious:
    eprintln!("paper-absolute window missed results in sweep: {missed_anywhere}");
}
