//! Property-based tests for the tree substrate: parser round-trips, the
//! Knuth transform, traversal invariants and edit-operation validity on
//! randomly generated trees.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_tree::{
    apply_edit, parse_bracket, to_bracket, BinaryTree, EditError, EditOp, Label, LabelInterner,
    NodeId, Tree, TreeBuilder,
};

/// Builds a random tree directly with the builder (no datagen dependency
/// here — the tree crate sits below it).
fn random_tree(seed: u64, max_size: usize) -> (Tree, LabelInterner) {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = rng.gen_range(1..=max_size.max(1));
    let mut labels = LabelInterner::new();
    let names: Vec<String> = (0..6).map(|i| format!("l{i}")).collect();
    let mut builder = TreeBuilder::new();
    let root = builder.root(labels.intern(&names[rng.gen_range(0..names.len())]));
    let mut nodes = vec![root];
    for _ in 1..size {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let child = builder.child(parent, labels.intern(&names[rng.gen_range(0..names.len())]));
        nodes.push(child);
    }
    (builder.build(), labels)
}

/// The tree a builder makes when node `k` is added under `parents[k − 1]`
/// (each below `k`), beside the child lists those calls describe, in
/// builder ids, and where the built tree put each builder id: the calls'
/// preorder, walked over those child lists.
fn built_and_reference(parents: &[usize]) -> (Tree, Vec<Vec<NodeId>>, Vec<NodeId>) {
    let mut builder = TreeBuilder::new();
    builder.root(Label::from_raw(1));
    let mut reference = vec![Vec::new()];
    for (k, &parent) in parents.iter().enumerate() {
        let label = Label::from_raw(1 + (k % 5) as u32);
        reference[parent].push(builder.child(NodeId::from_index(parent), label));
        reference.push(Vec::new());
    }
    let mut placed = vec![NodeId::from_index(0); reference.len()];
    let (mut next, mut stack) = (0, vec![NodeId::from_index(0)]);
    while let Some(node) = stack.pop() {
        placed[node.index()] = NodeId::from_index(next);
        next += 1;
        stack.extend(reference[node.index()].iter().rev());
    }
    (builder.build(), reference, placed)
}

#[test]
fn interleaved_children_keep_call_order() {
    let mut builder = TreeBuilder::new();
    let l = Label::from_raw;
    let r = builder.root(l(1));
    let a = builder.child(r, l(2));
    let b = builder.child(r, l(3));
    builder.child(a, l(4));
    builder.child(b, l(5));
    builder.child(a, l(6));
    builder.child(r, l(7));
    let tree = builder.build();
    tree.validate().unwrap();
    // Ids are the preorder r a c e b d f, whatever the call order; each
    // child list keeps its calls' order.
    assert_eq!(tree.labels(), [1, 2, 4, 6, 3, 5, 7].map(l));
    let labels_of = |node: usize| -> Vec<Label> {
        let kids = tree.children(NodeId::from_index(node));
        kids.map(|c| tree.label(c)).collect()
    };
    assert_eq!(labels_of(0), [2, 3, 7].map(l));
    assert_eq!(labels_of(1), [4, 6].map(l));
    assert_eq!(labels_of(4), [5].map(l));
    assert!([2, 3, 5, 6]
        .iter()
        .all(|&leaf| tree.is_leaf(NodeId::from_index(leaf))));
    assert_eq!(tree.preorder(), tree.node_ids().collect::<Vec<_>>());
    assert_eq!(
        tree.parent(NodeId::from_index(3)),
        Some(NodeId::from_index(1))
    );
}

/// Inverse of Knuth's transformation, read off the left/right links in
/// preorder.
fn to_general(bin: &BinaryTree) -> Tree {
    fn add(bin: &BinaryTree, b: &mut TreeBuilder, first: Option<NodeId>, parent: NodeId) {
        let mut sibling = first;
        while let Some(v) = sibling {
            let id = b.child(parent, bin.label(v));
            add(bin, b, bin.left(v), id);
            sibling = bin.right(v);
        }
    }
    let mut builder = TreeBuilder::with_capacity(bin.len());
    let root = builder.root(bin.label(bin.root()));
    add(bin, &mut builder, bin.left(bin.root()), root);
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat builder answers every query as per-node child lists built
    /// from the same calls would, on bushy and deep random shapes alike.
    #[test]
    fn flat_builder_matches_child_lists(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let size = rng.gen_range(1..=60);
        let deepen = rng.gen_range(0.0..1.0);
        let parents: Vec<usize> = (1..size)
            .map(|k| if rng.gen_bool(deepen) { k - 1 } else { rng.gen_range(0..k) })
            .collect();
        let (tree, reference, placed) = built_and_reference(&parents);
        prop_assert!(tree.validate().is_ok());
        prop_assert_eq!(tree.len(), size);
        let mut counts = vec![0; size];
        for (call, kids) in reference.iter().enumerate() {
            let node = placed[call];
            let want: Vec<NodeId> = kids.iter().map(|k| placed[k.index()]).collect();
            prop_assert_eq!(tree.children(node).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(tree.is_leaf(node), want.is_empty());
            for (k, &child) in want.iter().enumerate() {
                prop_assert_eq!(tree.child_position(child), Some(k));
            }
            counts[node.index()] = want.len() as u32;
            let parent = call.checked_sub(1).map(|k| placed[parents[k]]);
            prop_assert_eq!(tree.parent(node), parent);
        }
        prop_assert_eq!(tree.child_position(tree.root()), None);
        prop_assert_eq!(tree.child_counts(), counts.clone());
        let widest = reference.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert_eq!(tree.max_fanout(), widest);
        let rebuilt = Tree::from_flattened(&tree.flatten()).unwrap();
        prop_assert!(rebuilt.structurally_eq(&tree));
        prop_assert_eq!(rebuilt.flatten(), tree.flatten());
        let columns = Tree::from_columns(tree.labels().to_vec(), tree.parents().to_vec());
        prop_assert!(columns.unwrap().structurally_eq(&tree));

        let mut post = vec![0u32; size];
        let mut next = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some(&mut (node, ref mut visited)) = stack.last_mut() {
            if let Some(child) = reference[node].get(*visited) {
                *visited += 1;
                stack.push((child.index(), 0));
            } else {
                next += 1;
                post[placed[node].index()] = next;
                stack.pop();
            }
        }
        prop_assert_eq!(tree.postorder_numbers(), post.clone());
        let binary = BinaryTree::from_tree(&tree);
        prop_assert_eq!(binary.general_post(), &post[..]);
    }

    /// Bracket serialization round-trips structurally.
    #[test]
    fn bracket_round_trip(seed in any::<u64>()) {
        let (tree, labels) = random_tree(seed, 40);
        let text = to_bracket(&tree, &labels);
        let mut labels2 = LabelInterner::new();
        let reparsed = parse_bracket(&text, &mut labels2).unwrap();
        prop_assert_eq!(reparsed.len(), tree.len());
        // Re-serializing with the new interner gives the same text.
        prop_assert_eq!(to_bracket(&reparsed, &labels2), text);
    }

    /// Knuth transform round-trips through its inverse.
    #[test]
    fn lcrs_round_trip(seed in any::<u64>()) {
        let (tree, _) = random_tree(seed, 50);
        let binary = BinaryTree::from_tree(&tree);
        prop_assert_eq!(binary.len(), tree.len());
        prop_assert!(to_general(&binary).structurally_eq(&tree));
    }

    /// LC-RS structural invariants: the root has no right child; every
    /// node's binary children agree with the general structure.
    #[test]
    fn lcrs_invariants(seed in any::<u64>()) {
        let (tree, _) = random_tree(seed, 50);
        let binary = BinaryTree::from_tree(&tree);
        prop_assert!(binary.right(binary.root()).is_none());
        for node in tree.node_ids() {
            prop_assert_eq!(binary.left(node), tree.children(node).next());
            let next_sibling = tree.parent(node).and_then(|p| {
                let siblings: Vec<NodeId> = tree.children(p).collect();
                let pos = siblings.iter().position(|&c| c == node).unwrap();
                siblings.get(pos + 1).copied()
            });
            prop_assert_eq!(binary.right(node), next_sibling);
        }
    }

    /// Postorder numbers: children precede parents; numbers form 1..=n;
    /// the binary postorder ends at the root.
    #[test]
    fn postorder_invariants(seed in any::<u64>()) {
        let (tree, _) = random_tree(seed, 50);
        let numbers = tree.postorder_numbers();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (1..=tree.len() as u32).collect::<Vec<_>>());
        for node in tree.node_ids() {
            for child in tree.children(node) {
                prop_assert!(numbers[child.index()] < numbers[node.index()]);
            }
        }
        let binary = BinaryTree::from_tree(&tree);
        prop_assert!(tree.node_ids().all(|v| binary.post_cmp(v, binary.root()).is_le()));
    }

    /// General-tree postorder is LC-RS inorder: the numbers
    /// `BinaryTree` caches equal `Tree::postorder_numbers` — on builder
    /// trees (children attached to random earlier parents, so the calls
    /// are not in preorder) and on edited trees.
    #[test]
    fn general_post_is_the_trees_postorder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tree, _) = random_tree(seed ^ 0x77, 50);
        let node = NodeId::from_index(rng.gen_range(0..tree.len()));
        let wrap = EditOp::Insert {
            parent: node,
            start: 0,
            count: tree.children(node).count(),
            label: Label::from_raw(2),
        };
        let mut trees = vec![apply_edit(&tree, &wrap).unwrap()];
        if node != tree.root() {
            trees.push(apply_edit(&tree, &EditOp::Delete { node }).unwrap());
        }
        trees.push(tree);
        let mut reused = BinaryTree::from_tree(&trees[0]);
        for tree in &trees {
            let want = tree.postorder_numbers();
            let binary = BinaryTree::from_tree(tree);
            prop_assert_eq!(binary.general_post(), &want[..]);
            reused.rebuild_from(tree);
            prop_assert_eq!(reused.general_post(), &want[..]);
        }
    }

    /// Subtree sizes and depths are mutually consistent.
    #[test]
    fn size_and_depth_consistency(seed in any::<u64>()) {
        let (tree, _) = random_tree(seed, 50);
        let sizes = tree.subtree_sizes();
        prop_assert_eq!(sizes[tree.root().index()] as usize, tree.len());
        let depths = tree.depths();
        let max = tree.max_depth();
        prop_assert_eq!(depths.iter().copied().max().unwrap_or(0), max);
        // Total size = sum over depth-0 root of everything; every leaf has
        // subtree size 1.
        for node in tree.node_ids() {
            if tree.is_leaf(node) {
                prop_assert_eq!(sizes[node.index()], 1);
            }
        }
    }

    /// Randomly chosen valid edits keep the tree valid and change its size
    /// by exactly one (insert/delete) or zero (rename).
    #[test]
    fn edits_change_size_by_at_most_one(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tree, _) = random_tree(seed ^ 0x1234, 30);
        let node = NodeId::from_index(rng.gen_range(0..tree.len()));
        let ops = [
            EditOp::Rename { node, label: Label::from_raw(1) },
            EditOp::Insert {
                parent: node,
                start: 0,
                count: tree.children(node).count(),
                label: Label::from_raw(2),
            },
        ];
        for op in ops {
            let edited = apply_edit(&tree, &op).unwrap();
            edited.validate().unwrap();
            let delta = edited.len() as i64 - tree.len() as i64;
            prop_assert!(delta.abs() <= 1);
        }
        if tree.len() > 1 && node != tree.root() {
            let edited = apply_edit(&tree, &EditOp::Delete { node }).unwrap();
            edited.validate().unwrap();
            prop_assert_eq!(edited.len(), tree.len() - 1);
        }
    }
}

/// `apply_edit` as it was written over per-node child lists: copy every
/// child list, edit the lists, rebuild in preorder through a builder. The
/// column edit must give the same trees, ids and errors.
fn apply_edit_by_child_lists(tree: &Tree, op: &EditOp) -> Result<Tree, EditError> {
    let n = tree.len();
    let mut labels = tree.labels().to_vec();
    let mut children: Vec<Vec<NodeId>> = tree
        .node_ids()
        .map(|id| tree.children(id).collect())
        .collect();
    let check = |node: NodeId| {
        if node.index() < n {
            Ok(())
        } else {
            Err(EditError::UnknownNode)
        }
    };
    match *op {
        EditOp::Rename { node, label } => {
            check(node)?;
            labels[node.index()] = label;
        }
        EditOp::Delete { node } => {
            check(node)?;
            let parent = tree.parent(node).ok_or(EditError::DeleteRoot)?;
            let siblings = &children[parent.index()];
            let pos = siblings.iter().position(|&c| c == node).unwrap();
            let grandchildren = std::mem::take(&mut children[node.index()]);
            children[parent.index()].splice(pos..=pos, grandchildren);
        }
        EditOp::Insert {
            parent,
            start,
            count,
            label,
        } => {
            check(parent)?;
            let available = children[parent.index()].len();
            if start > available || start + count > available {
                return Err(EditError::BadChildRange {
                    start,
                    count,
                    available,
                });
            }
            let new_id = NodeId::from_index(labels.len());
            labels.push(label);
            let adopted = children[parent.index()].splice(start..start + count, [new_id]);
            let adopted: Vec<NodeId> = adopted.collect();
            children.push(adopted);
        }
    }
    let mut builder = TreeBuilder::with_capacity(labels.len());
    let root = builder.root(labels[0]);
    let mut stack: Vec<(NodeId, NodeId)> = children[0].iter().rev().map(|&c| (c, root)).collect();
    while let Some((old, parent)) = stack.pop() {
        let id = builder.child(parent, labels[old.index()]);
        stack.extend(children[old.index()].iter().rev().map(|&c| (c, id)));
    }
    Ok(builder.build())
}

/// A random tree of 1..=`max_size` nodes: bushy or deep at random, or
/// (one time in three each) a path or a star.
fn random_shape(rng: &mut StdRng, max_size: usize) -> Tree {
    let size = rng.gen_range(1..=max_size);
    let shape = rng.gen_range(0..4);
    let deepen = rng.gen_range(0.0..1.0);
    let parents: Vec<usize> = (1..size)
        .map(|k| match shape {
            0 => k - 1,
            1 => 0,
            _ if rng.gen_bool(deepen) => k - 1,
            _ => rng.gen_range(0..k),
        })
        .collect();
    built_and_reference(&parents).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The column edit equals the child-list algorithm on every op a
    /// random tree admits — each rename, each delete (the root's error
    /// included), each insert range — and on out-of-range inserts and
    /// unknown nodes.
    #[test]
    fn column_edits_match_child_list_edits(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_shape(&mut rng, 24);
        let n = tree.len();
        let mut ops = Vec::new();
        for node in tree.node_ids().chain([NodeId::from_index(n)]) {
            let label = Label::from_raw(rng.gen_range(1..=8));
            ops.push(EditOp::Rename { node, label });
            ops.push(EditOp::Delete { node });
            let available = if node.index() < n { tree.children(node).count() } else { 0 };
            for start in 0..=available + 1 {
                for count in 0..=available + 1 - start {
                    ops.push(EditOp::Insert { parent: node, start, count, label });
                }
            }
        }
        for op in &ops {
            let (got, want) = (apply_edit(&tree, op), apply_edit_by_child_lists(&tree, op));
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert!(got.structurally_eq(&want), "{:?} on {:?}", op, tree.flatten());
                    prop_assert!(got.validate().is_ok());
                }
                (got, want) => prop_assert_eq!(got.err(), want.err(), "{:?}", op),
            }
        }
    }
}

/// Every whole-tree pass is linear: a 100 000-node path and a 100 000-node
/// star each go through parse, serialize, validate, every edit kind and a
/// flatten round trip (a quadratic pass would take minutes here, a
/// recursive one would overflow the stack on the path).
#[test]
fn hundred_thousand_node_path_and_star() {
    let n = 100_000;
    let path = format!("{}{}", "{a".repeat(n), "}".repeat(n));
    let star = format!("{{r{}}}", "{a}".repeat(n - 1));
    for text in [path, star] {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket(&text, &mut labels).unwrap();
        assert_eq!(tree.len(), n);
        assert_eq!(to_bracket(&tree, &labels), text);
        tree.validate().unwrap();
        let last = NodeId::from_index(n - 1);
        let middle = NodeId::from_index(n / 2);
        let width = tree.children(tree.root()).count();
        assert_eq!(tree.max_fanout(), width);
        assert_eq!(tree.child_position(last), Some(width - 1));
        let label = labels.intern("b");
        let ops = [
            EditOp::Rename { node: last, label },
            EditOp::Delete { node: middle },
            EditOp::Insert {
                parent: tree.root(),
                start: 0,
                count: width,
                label,
            },
            EditOp::Insert {
                parent: last,
                start: 0,
                count: 0,
                label,
            },
        ];
        for op in &ops {
            let edited = apply_edit(&tree, op).unwrap();
            edited.validate().unwrap();
            let decoded = Tree::from_flattened(&edited.flatten()).unwrap();
            assert!(decoded.structurally_eq(&edited));
        }
    }
}
