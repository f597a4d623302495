//! Integration tests exercising the public facade API end to end: parse →
//! transform → join → inspect, the way a downstream user would.

use tree_similarity_join::prelude::*;
use tree_similarity_join::tree::to_bracket;

#[test]
fn parse_join_inspect_round_trip() {
    let mut labels = LabelInterner::new();
    let docs = [
        "<album><title>x</title><year>1969</year></album>",
        "<album><title>x</title><year>2019</year></album>",
        "<album><title>y</title><artist>z</artist><year>1969</year></album>",
    ];
    let trees: Vec<Tree> = docs
        .iter()
        .map(|d| parse_xmlish(d, &mut labels).unwrap())
        .collect();

    let outcome = partsj_join(&trees, 1);
    assert_eq!(outcome.pairs, vec![(0, 1)]);
    assert_eq!(outcome.stats.results, 1);

    // Serialization of parsed trees round-trips structurally.
    for tree in &trees {
        let rendered = to_bracket(tree, &labels);
        let mut labels2 = LabelInterner::new();
        let reparsed = parse_bracket(&rendered, &mut labels2).unwrap();
        assert_eq!(reparsed.len(), tree.len());
    }
}

#[test]
fn binary_transform_is_exposed() {
    let mut labels = LabelInterner::new();
    let tree = parse_bracket("{a{b{c}{d}}{e}}", &mut labels).unwrap();
    let binary = BinaryTree::from_tree(&tree);
    assert_eq!(binary.len(), tree.len());
    // a's first child b, b's next sibling e, b's first child c and c's
    // next sibling d: the LC-RS links, over the tree's own ids.
    let label = |v: Option<tree_similarity_join::tree::NodeId>| {
        v.map(|v| labels.resolve(binary.label(v)).unwrap())
    };
    let (a, b) = (binary.root(), binary.left(binary.root()).unwrap());
    assert_eq!(
        (label(binary.left(a)), label(binary.right(a))),
        (Some("b"), None)
    );
    assert_eq!(
        (label(binary.left(b)), label(binary.right(b))),
        (Some("c"), Some("e"))
    );
    assert_eq!(binary.general_post(), tree.postorder_numbers());
}

#[test]
fn ted_engine_and_join_stats_are_consistent() {
    let mut labels = LabelInterner::new();
    let trees: Vec<Tree> = ["{a{b}{c}}", "{a{b}{c}}", "{a{b}{d}}", "{z{x{y{w}}}}"]
        .iter()
        .map(|s| parse_bracket(s, &mut labels).unwrap())
        .collect();

    let outcome = partsj_join(&trees, 1);
    let mut engine = TedEngine::unit();
    for &(a, b) in &outcome.pairs {
        let d = engine.distance_trees(&trees[a as usize], &trees[b as usize]);
        assert!(d <= 1, "reported pair ({a},{b}) has TED {d} > tau");
    }
    // Non-pairs really are farther apart.
    for a in 0..trees.len() {
        for b in a + 1..trees.len() {
            if !outcome.pairs.contains(&(a as u32, b as u32)) {
                let d = engine.distance_trees(&trees[a], &trees[b]);
                assert!(d > 1, "missing pair ({a},{b}) with TED {d}");
            }
        }
    }
}

#[test]
fn collection_stats_reported_through_facade() {
    let trees = swissprot_like(80, 7);
    let stats = collection_stats(&trees);
    assert_eq!(stats.cardinality, 80);
    assert!(stats.avg_size > 30.0);
    assert!(stats.distinct_labels <= 84);
}

#[test]
fn detailed_join_exposes_filter_internals() {
    let trees = synthetic(
        100,
        &SyntheticParams {
            avg_size: 30,
            ..SyntheticParams::default()
        },
        11,
    );
    let (outcome, detail) = partsj_join_detailed(&trees, 2, &PartSjConfig::default());
    assert!(detail.subgraphs_built > 0);
    assert!(detail.probes > 0);
    assert!(detail.index_registrations >= detail.subgraphs_built);
    assert!(detail.matches >= outcome.stats.candidates - detail.small_tree_candidates);
}

#[test]
fn empty_collection_is_fine() {
    let outcome = partsj_join(&[], 3);
    assert!(outcome.pairs.is_empty());
    assert_eq!(outcome.stats.results, 0);
}
